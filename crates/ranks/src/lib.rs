//! # ranks — MPI-like rank runtime on threads
//!
//! SPH-EXA is MPI+X with one rank per GPU/GCD (§III-A/B). This crate gives
//! the reproduction the same shape: [`run`] spawns one OS thread per rank,
//! each receiving a [`RankCtx`] with collectives (barrier, allreduce,
//! allgather, broadcast) and point-to-point halo exchange, all of which also
//! synchronize the ranks' *virtual clocks* under a latency/bandwidth cost
//! model ([`CommCost`]).
//!
//! ```
//! use ranks::{run, CommCost, Op};
//!
//! let sums = run(4, CommCost::default(), |ctx| {
//!     ctx.allreduce_f64(ctx.rank() as f64, Op::Sum)
//! });
//! assert_eq!(sums, vec![6.0; 4]);
//! ```

mod cost;
mod ctx;
mod shared;

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

pub use cost::CommCost;
pub use ctx::{CommStats, Op, RankCtx};

use shared::{AllgatherSlot, Envelope};

/// Run `f` on `size` ranks (one thread each) and collect the return values
/// in rank order. Panics in any rank propagate.
pub fn run<F, R>(size: usize, cost: CommCost, f: F) -> Vec<R>
where
    F: Fn(&mut RankCtx) -> R + Send + Sync,
    R: Send,
{
    assert!(size > 0, "world must have at least one rank");
    let slot = Arc::new(AllgatherSlot::new(size));

    // Channel matrix: tx[src][dst] feeds rx[dst][src].
    let mut tx: Vec<Vec<Option<Sender<Envelope>>>> = (0..size)
        .map(|_| (0..size).map(|_| None).collect())
        .collect();
    let mut rx: Vec<Vec<Option<Receiver<Envelope>>>> = (0..size)
        .map(|_| (0..size).map(|_| None).collect())
        .collect();
    for src in 0..size {
        for dst in 0..size {
            let (s, r) = channel();
            tx[src][dst] = Some(s);
            rx[dst][src] = Some(r);
        }
    }

    // Assemble per-rank contexts up front so the closure only borrows `f`.
    let mut ctxs: Vec<RankCtx> = Vec::with_capacity(size);
    for (rank, (tx_row, rx_row)) in tx.into_iter().zip(rx).enumerate() {
        let senders = tx_row
            .into_iter()
            .map(|s| s.expect("filled above"))
            .collect();
        let receivers = rx_row
            .into_iter()
            .map(|r| r.expect("filled above"))
            .collect();
        ctxs.push(RankCtx::new(
            rank,
            size,
            Arc::clone(&slot),
            senders,
            receivers,
            cost,
        ));
    }

    std::thread::scope(|scope| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .map(|mut ctx| {
                let f = &f;
                scope.spawn(move || {
                    if telemetry::active() {
                        telemetry::set_track(format!("rank-{}", ctx.rank()));
                    }
                    f(&mut ctx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::{SimDuration, SimInstant};

    #[test]
    fn allreduce_ops() {
        let out = run(5, CommCost::free(), |ctx| {
            let r = ctx.rank() as f64;
            (
                ctx.allreduce_f64(r, Op::Sum),
                ctx.allreduce_f64(r, Op::Min),
                ctx.allreduce_f64(r, Op::Max),
                ctx.allreduce_u64(ctx.rank() as u64 + 1, Op::Sum),
            )
        });
        for (sum, min, max, usum) in out {
            assert_eq!(sum, 10.0);
            assert_eq!(min, 0.0);
            assert_eq!(max, 4.0);
            assert_eq!(usum, 15);
        }
    }

    #[test]
    fn collectives_synchronize_clocks_to_slowest_rank() {
        let clocks = run(4, CommCost::default(), |ctx| {
            // Rank r "computes" for r milliseconds.
            ctx.advance(SimDuration::from_millis(ctx.rank() as u64));
            ctx.barrier();
            ctx.now()
        });
        let first = clocks[0];
        assert!(
            clocks.iter().all(|c| *c == first),
            "clocks diverged: {clocks:?}"
        );
        // Everyone is at least as late as the slowest rank plus latency.
        assert!(first >= SimInstant::ZERO + SimDuration::from_millis(3));
    }

    #[test]
    fn broadcast_delivers_root_payload() {
        let out = run(3, CommCost::free(), |ctx| {
            ctx.broadcast_bytes(1, vec![ctx.rank() as u8; 4])
        });
        for payload in out {
            assert_eq!(payload, vec![1u8; 4]);
        }
    }

    #[test]
    fn allgather_f64s_supports_variable_lengths() {
        let out = run(3, CommCost::free(), |ctx| {
            let mine: Vec<f64> = (0..=ctx.rank()).map(|i| i as f64).collect();
            ctx.allgather_f64s(&mine)
        });
        for gathered in out {
            assert_eq!(gathered[0], vec![0.0]);
            assert_eq!(gathered[1], vec![0.0, 1.0]);
            assert_eq!(gathered[2], vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn ring_exchange_delivers_neighbor_data() {
        let out = run(4, CommCost::default(), |ctx| {
            let size = ctx.size();
            let left = (ctx.rank() + size - 1) % size;
            let right = (ctx.rank() + 1) % size;

            ctx.exchange(vec![
                (left, vec![ctx.rank() as u8]),
                (right, vec![ctx.rank() as u8]),
            ])
        });
        for (rank, incoming) in out.iter().enumerate() {
            let left = (rank + 3) % 4;
            let right = (rank + 1) % 4;
            assert_eq!(incoming[0], (left, vec![left as u8]));
            assert_eq!(incoming[1], (right, vec![right as u8]));
        }
    }

    #[test]
    fn recv_advances_clock_by_transfer_cost() {
        let clocks = run(
            2,
            CommCost {
                latency: SimDuration::from_micros(10),
                bandwidth: 1e6,
            },
            |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, vec![0u8; 1000]); // 1 kB at 1 MB/s = 1 ms
                    ctx.now()
                } else {
                    let _ = ctx.recv(0);
                    ctx.now()
                }
            },
        );
        assert_eq!(clocks[0], SimInstant::ZERO, "send is non-blocking");
        let expect = SimInstant::ZERO + SimDuration::from_micros(10) + SimDuration::from_millis(1);
        assert_eq!(clocks[1], expect);
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn a_panicking_rank_propagates_out_of_run_instead_of_hanging_its_peer() {
        run(2, CommCost::free(), |ctx| {
            ctx.barrier();
            if ctx.rank() == 1 {
                panic!("rank 1 dies before its send");
            }
            // Rank 0 parks on a message that will never come; the dead
            // rank's dropped sender wakes it.
            ctx.recv(1);
        });
    }

    #[test]
    fn single_rank_world_works() {
        let out = run(1, CommCost::default(), |ctx| {
            ctx.barrier();
            ctx.allreduce_f64(42.0, Op::Min)
        });
        assert_eq!(out, vec![42.0]);
    }

    #[test]
    fn many_rounds_of_mixed_collectives_stay_consistent() {
        let out = run(6, CommCost::default(), |ctx| {
            let mut acc = 0.0;
            for round in 0..40 {
                let v = (ctx.rank() * 41 + round) as f64;
                acc += ctx.allreduce_f64(v, Op::Max);
                ctx.barrier();
            }
            acc
        });
        let first = out[0];
        assert!(out.iter().all(|v| (*v - first).abs() < 1e-12));
    }

    #[test]
    fn comm_stats_count_operations_and_bytes() {
        let stats = run(2, CommCost::free(), |ctx| {
            ctx.barrier(); // collective, 0 bytes
            ctx.allreduce_f64(1.0, Op::Sum); // collective, 8 bytes
            if ctx.rank() == 0 {
                ctx.send(1, vec![0u8; 100]);
                let _ = ctx.recv(1);
            } else {
                let _ = ctx.recv(0);
                ctx.send(0, vec![0u8; 50]);
            }
            ctx.comm_stats()
        });
        for s in &stats {
            assert_eq!(s.collectives, 2);
            assert_eq!(s.collective_bytes, 8);
            assert_eq!(s.sends, 1);
            assert_eq!(s.recvs, 1);
        }
        assert_eq!(stats[0].send_bytes, 100);
        assert_eq!(stats[0].recv_bytes, 50);
        assert_eq!(stats[1].send_bytes, 50);
        assert_eq!(stats[1].recv_bytes, 100);
    }

    #[test]
    fn results_returned_in_rank_order() {
        let out = run(8, CommCost::free(), |ctx| ctx.rank());
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }
}
