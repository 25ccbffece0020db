//! Offline stand-in for `crossbeam` (see Cargo.toml).

pub mod channel {
    pub use std::sync::mpsc::{RecvError, SendError};

    #[derive(Debug)]
    pub struct Sender<T>(std::sync::mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    #[derive(Debug)]
    pub struct Receiver<T>(std::sync::mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (s, r) = std::sync::mpsc::channel();
        (Sender(s), Receiver(r))
    }
}
