//! # par — a dependency-free data-parallel execution layer
//!
//! The paper's offline sweet-spot search multiplies kernels × clocks ×
//! workloads, and the SPH per-particle loops dominate every step; both are
//! embarrassingly parallel. This crate provides the rayon-style primitives
//! the rest of the workspace builds on — [`par_map`] (an order-preserving
//! indexed map) and [`par_for_each_mut`] (disjoint in-place slots) — on plain
//! `std::thread::scope`, so the workspace needs no external runtime.
//!
//! ## Determinism contract
//!
//! Every primitive is *bit-identical to its serial equivalent* regardless of
//! thread count:
//!
//! * [`par_map`] computes `f(i)` independently per index and writes each
//!   result into slot `i`. The accumulation order *within* one index is
//!   whatever `f` does — identical to the serial loop — and no cross-index
//!   reduction exists, so chunk boundaries cannot affect results.
//! * [`par_for_each_mut`] hands element `i` to exactly one worker, which is
//!   the only one ever to touch it.
//!
//! Callers that need a parallel *reduction* must instead map into per-index
//! slots and fold serially (gather, not scatter) — that is the pattern the
//! SPH kernels use, and it is what keeps 1-thread and N-thread runs equal
//! to the last bit.
//!
//! ## Thread-count control
//!
//! Priority order: [`set_max_threads`] override (used by the determinism
//! tests and `--jobs` CLI flags) → the `RAYON_NUM_THREADS` environment
//! variable → `std::thread::available_parallelism()`. With the `parallel`
//! feature disabled everything runs inline on the calling thread.
//!
//! [`par_map_threads`] is the coarse-grained entry point (`--jobs N` whole
//! experiments): while its workers run, the calls nested under them share
//! the configured count instead of each taking all of it, so `jobs × inner`
//! stays at the machine width and a full-width `--jobs` runs every inner
//! call inline.

use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Threads running whole jobs right now, process-wide: the workers of the
/// [`par_map_threads`] calls in flight plus every live [`job_workers`] guard.
static JOB_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Counts `n` threads as running whole jobs — parallel programs of their
/// own, like one experiment of a `--jobs N` batch or of a daemon's worker
/// pool — until the guard is dropped (unwinding too). Data-parallel calls
/// made meanwhile divide [`max_threads`] by the count.
pub fn job_workers(n: usize) -> JobWorkers {
    JOB_WORKERS.fetch_add(n, Ordering::SeqCst);
    JobWorkers(n)
}

/// Guard returned by [`job_workers`].
#[must_use = "the threads stop counting as job workers when this is dropped"]
pub struct JobWorkers(usize);

impl Drop for JobWorkers {
    fn drop(&mut self) {
        JOB_WORKERS.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// How many chunks each worker should expect to claim. More chunks per
/// thread smooths load imbalance (neighbor counts vary across particles) at
/// the cost of a little counter traffic.
const CHUNKS_PER_THREAD: usize = 8;

/// Override the worker count for every subsequent parallel call in this
/// process. `0` clears the override. Safe to call from any thread; the
/// results of parallel calls do not depend on the value (see the
/// determinism contract), only their speed does.
pub fn set_max_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count parallel calls will use: the [`set_max_threads`]
/// override, else `RAYON_NUM_THREADS`, else the machine's available
/// parallelism. Always 1 with the `parallel` feature disabled.
pub fn max_threads() -> usize {
    if !cfg!(feature = "parallel") {
        return 1;
    }
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker count of one data-parallel call: [`max_threads`], divided among
/// the job workers running right now (see [`par_map_threads`]). Every call
/// under a job sees the same count from the job's first step to its last —
/// the jobs' workers are counted for the whole outer call — so its threads,
/// and the allocator arenas they would touch, do not depend on timing.
fn call_threads() -> usize {
    share(max_threads(), JOB_WORKERS.load(Ordering::SeqCst))
}

fn share(configured: usize, job_workers: usize) -> usize {
    (configured / job_workers.max(1)).max(1)
}

/// Raw output cursor shared by the workers of one `par_map` call. Workers
/// write disjoint index sets, so sharing the base pointer is sound.
struct OutPtr<T>(*mut MaybeUninit<T>);
unsafe impl<T: Send> Sync for OutPtr<T> {}

/// Order-preserving parallel indexed map: returns `vec![f(0), .., f(n-1)]`.
///
/// Work is distributed in fixed-size chunks claimed from an atomic cursor,
/// so threads stay busy even when per-index cost varies. Falls back to a
/// plain serial loop for tiny inputs, one worker, or a serial build.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_on(call_threads(), n, f)
}

/// [`par_map`] with an explicit worker count, for whole jobs (a `--jobs N`
/// flag): each `f(i)` is expected to be a parallel program of its own. The
/// data-parallel calls made while this one runs divide [`max_threads`] by
/// its worker count rather than oversubscribing the machine `threads`-fold;
/// at `threads >= max_threads()` they run inline.
pub fn par_map_threads<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    let _jobs = job_workers(threads);
    map_on(threads, n, f)
}

fn map_on<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if !cfg!(feature = "parallel") || threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = (n / (threads * CHUNKS_PER_THREAD)).max(1);
    let mut out: Vec<MaybeUninit<T>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
    let next = AtomicUsize::new(0);
    let base = OutPtr(out.as_mut_ptr());
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (next, f, base) = (&next, &f, &base);
            s.spawn(move || loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for i in start..end {
                    // SAFETY: the cursor hands each index range to exactly
                    // one worker, and `out` outlives the scope, so slot `i`
                    // is written once with no aliasing.
                    unsafe { base.0.add(i).write(MaybeUninit::new(f(i))) };
                }
            });
        }
    });
    // SAFETY: the cursor covered 0..n and the scope joined every worker, so
    // all n slots are initialized; re-owning the buffer as Vec<T> is the
    // standard MaybeUninit -> init conversion.
    let mut out = ManuallyDrop::new(out);
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), n, out.capacity()) }
}

/// Run `f(i, &mut data[i])` for every element, each index claimed by
/// exactly one worker. Like [`par_map`], but in place over caller-owned
/// slots — the pattern for heavyweight per-chunk scratch (e.g. the neighbor
/// list's build buffers) that must be reused across calls rather than
/// returned. Elements are claimed one at a time: each is expected to carry
/// many rows of work, so cursor traffic is negligible and single-element
/// claims give the best load balance.
pub fn par_for_each_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = data.len();
    let threads = call_threads().min(n.max(1));
    if !cfg!(feature = "parallel") || threads <= 1 || n <= 1 {
        for (i, v) in data.iter_mut().enumerate() {
            f(i, v);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let base = OutPtr(data.as_mut_ptr().cast::<MaybeUninit<T>>());
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (next, f, base) = (&next, &f, &base);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: the cursor hands each index to exactly one worker
                // and `data` outlives the scope, so this is the only live
                // reference to element `i`; it is an initialized `T` only
                // lent out as `&mut T`, never moved or deinitialized.
                let v = unsafe { &mut *base.0.add(i).cast::<T>() };
                f(i, v);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn par_map_matches_serial_map() {
        let serial: Vec<u64> = (0..10_000)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        let parallel = par_map(10_000, |i| (i as u64).wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_preserves_order_for_nontrivial_types() {
        let out = par_map(513, |i| format!("item-{i}"));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s, &format!("item-{i}"));
        }
    }

    #[test]
    fn par_map_edge_sizes() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
        assert_eq!(par_map(2, |i| i * 3), vec![0, 3]);
    }

    #[test]
    fn par_map_threads_explicit_counts_agree() {
        let reference = par_map_threads(1, 4096, |i| (i * i) % 97);
        for t in [2, 3, 4, 8, 64] {
            assert_eq!(par_map_threads(t, 4096, |i| (i * i) % 97), reference);
        }
    }

    #[test]
    fn par_map_uses_at_most_the_requested_workers() {
        let seen = Mutex::new(HashSet::new());
        let _ = par_map_threads(3, 20_000, |i| {
            seen.lock().unwrap().insert(std::thread::current().id());
            i
        });
        // 3 workers requested; the calling thread never computes items on
        // the parallel path, so at most 3 distinct ids appear.
        let distinct = seen.lock().unwrap().len();
        let cap = if cfg!(feature = "parallel") { 3 } else { 1 };
        assert!(distinct <= cap, "saw {distinct} worker threads");
    }

    #[test]
    fn calls_under_jobs_share_the_configured_count() {
        assert_eq!(share(8, 0), 8, "no job running: the full count");
        assert_eq!(share(8, 2), 4);
        assert_eq!(share(3, 2), 1);
        assert_eq!(share(2, 2), 1, "full-width jobs: inner calls run inline");
        assert_eq!(share(2, 4), 1, "never below one");
        // Other tests of this binary may hold job workers too, never fewer.
        let held = par_map_threads(2, 2, |_| JOB_WORKERS.load(Ordering::SeqCst));
        assert!(held.iter().all(|&h| h >= 2), "{held:?}");
    }

    #[test]
    fn nested_maps_match_serial_at_any_job_count() {
        let serial: Vec<Vec<usize>> = (0..6)
            .map(|k| (0..3000).map(|i| i * k + 1).collect())
            .collect();
        for jobs in [1, 2, 3, 6] {
            let nested = par_map_threads(jobs, 6, |k| par_map(3000, |i| i * k + 1));
            assert_eq!(nested, serial, "at {jobs} jobs");
        }
    }

    #[test]
    fn par_for_each_mut_matches_serial() {
        let mut serial: Vec<Vec<u64>> = (0..257).map(|i| vec![i as u64]).collect();
        for (i, v) in serial.iter_mut().enumerate() {
            v.push((i as u64).wrapping_mul(0x9E3779B9));
        }
        let mut parallel: Vec<Vec<u64>> = (0..257).map(|i| vec![i as u64]).collect();
        par_for_each_mut(&mut parallel, |i, v| {
            v.push((i as u64).wrapping_mul(0x9E3779B9));
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_for_each_mut_thread_counts_agree() {
        let run = |threads: usize| {
            set_max_threads(threads);
            let mut data = vec![0u64; 4096];
            par_for_each_mut(&mut data, |i, v| *v = (i as u64) * 3 + 1);
            set_max_threads(0);
            data
        };
        let reference = run(1);
        for t in [2, 3, 8] {
            assert_eq!(run(t), reference, "at {t} threads");
        }
    }

    #[test]
    fn par_for_each_mut_empty_and_single() {
        let mut empty: Vec<u8> = Vec::new();
        par_for_each_mut(&mut empty, |_, _| panic!("no elements expected"));
        let mut one = vec![1u8];
        par_for_each_mut(&mut one, |i, v| {
            assert_eq!(i, 0);
            *v = 7;
        });
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn override_round_trips() {
        set_max_threads(2);
        assert_eq!(
            max_threads(),
            if cfg!(feature = "parallel") { 2 } else { 1 }
        );
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn gather_then_fold_is_thread_count_invariant() {
        // The reduction pattern the SPH kernels rely on: map into slots,
        // fold serially. Sums of f64 are order-sensitive, so this only holds
        // because the fold order is fixed by the output Vec.
        let terms = |i: usize| 1.0f64 / (i as f64 + 1.0);
        let a: f64 = par_map_threads(1, 5000, terms).iter().sum();
        let b: f64 = par_map_threads(7, 5000, terms).iter().sum();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
