//! Generation-counted allgather slot — the one shared primitive every
//! collective is built from.

use std::sync::{Condvar, Mutex, PoisonError};

/// Payload carried through a collective: the sender's virtual clock (ns) and
//  an opaque byte message.
pub(crate) type Envelope = (u64, Vec<u8>);

struct Round {
    generation: u64,
    values: Vec<Option<Envelope>>,
    arrived: usize,
    result: Vec<Envelope>,
}

/// A reusable allgather rendezvous for a fixed set of participants.
///
/// Correctness argument for reuse: a participant can only enter generation
/// `g+1` after returning from generation `g`, and generation `g+1` cannot
/// complete (and overwrite `result`) until *every* participant has entered
/// it — so no reader of `result` for `g` can race a writer for `g+1`.
pub(crate) struct AllgatherSlot {
    size: usize,
    state: Mutex<Round>,
    cv: Condvar,
}

impl AllgatherSlot {
    pub fn new(size: usize) -> Self {
        AllgatherSlot {
            size,
            state: Mutex::new(Round {
                generation: 0,
                values: vec![None; size],
                arrived: 0,
                result: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Contribute `value` for `rank` and return everyone's contributions (in
    /// rank order) once all `size` participants have arrived.
    pub fn allgather(&self, rank: usize, value: Envelope) -> Vec<Envelope> {
        assert!(rank < self.size, "rank {rank} out of range {}", self.size);
        // A rank that panicked inside a collective must not take the others'
        // lock with it: poisoning is ignored, the round's data is intact.
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let my_gen = g.generation;
        assert!(
            g.values[rank].is_none(),
            "rank {rank} entered a collective twice"
        );
        g.values[rank] = Some(value);
        g.arrived += 1;
        if g.arrived == self.size {
            let gathered: Vec<Envelope> = g
                .values
                .iter_mut()
                .map(|v| v.take().expect("all ranks arrived"))
                .collect();
            g.result = gathered.clone();
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
            gathered
        } else {
            while g.generation == my_gen {
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            g.result.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn allgather_collects_in_rank_order_across_rounds() {
        let slot = Arc::new(AllgatherSlot::new(4));
        let results: Vec<Vec<Envelope>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let slot = Arc::clone(&slot);
                    s.spawn(move || {
                        let mut last = Vec::new();
                        for round in 0..50u64 {
                            last = slot.allgather(r, (round, vec![r as u8]));
                            // Every round everyone must see all four values.
                            assert_eq!(last.len(), 4);
                            for (i, (g, payload)) in last.iter().enumerate() {
                                assert_eq!(*g, round, "mixed generations");
                                assert_eq!(payload, &vec![i as u8]);
                            }
                        }
                        last
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results.len(), 4);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_poison_the_round() {
        let slot = AllgatherSlot::new(2);
        let arrived = || {
            slot.state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .arrived
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| slot.allgather(0, (1, vec![0])));
            while arrived() == 0 {
                std::thread::yield_now();
            }
            // A second entry as rank 0 trips the double-entry assert while
            // holding the lock, mid-collective.
            let intruder = s.spawn(|| slot.allgather(0, (1, vec![9])));
            assert!(intruder.join().is_err());
            assert!(slot.state.is_poisoned());
            let mine = slot.allgather(1, (1, vec![1]));
            assert_eq!(mine, vec![(1, vec![0]), (1, vec![1])]);
            assert_eq!(waiter.join().expect("waiter survives the poison"), mine);
        });
    }

    #[test]
    fn single_rank_allgather_returns_immediately() {
        let slot = AllgatherSlot::new(1);
        let out = slot.allgather(0, (7, vec![1, 2, 3]));
        assert_eq!(out, vec![(7, vec![1, 2, 3])]);
    }
}
