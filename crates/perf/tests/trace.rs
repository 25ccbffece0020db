//! The `TimingObserver` around a fake instrument with known costs: stamps
//! are ordered, the wrapper forwards every hook, and the span arithmetic
//! attributes the time to the right place.

use std::time::{Duration, Instant};

use archsim::{KernelWorkload, SimDuration};
use perf::trace::{SpanStore, StepStamps, TimingObserver};
use ranks::{CommCost, RankCtx};
use sph::{FuncId, StepObserver};

/// Burns a fixed host time in each hook and counts the calls.
#[derive(Default)]
struct Busy {
    before_calls: u32,
    after_calls: u32,
}

fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

const BEFORE: Duration = Duration::from_micros(200);
const AFTER: Duration = Duration::from_micros(400);
const PHYSICS: Duration = Duration::from_micros(1000);

impl StepObserver for Busy {
    fn before(&mut self, _func: FuncId, _ctx: &mut RankCtx) {
        self.before_calls += 1;
        spin(BEFORE);
    }

    fn after(&mut self, _f: FuncId, _w: &KernelWorkload, _h: SimDuration, _ctx: &mut RankCtx) {
        self.after_calls += 1;
        spin(AFTER);
    }
}

#[test]
fn stamps_split_a_step_into_phase_and_instrument_time() {
    let funcs = [FuncId::XMass, FuncId::MomentumEnergy, FuncId::Timestep];
    let (steps, launches, inner) = ranks::run(1, CommCost::default(), |ctx| {
        let epoch = Instant::now();
        let mut inner = Busy::default();
        let mut obs = TimingObserver::new(&mut inner, epoch);
        let mut steps = Vec::new();
        for _ in 0..2 {
            let start = epoch.elapsed().as_nanos() as u64;
            for func in funcs {
                obs.before(func, ctx);
                spin(PHYSICS);
                let w = KernelWorkload::new(func.name(), 1e9, 1e9);
                obs.after(func, &w, SimDuration::from_micros(50), ctx);
            }
            let end = epoch.elapsed().as_nanos() as u64;
            steps.push(StepStamps {
                start,
                end,
                calls: obs.take_step(),
            });
        }
        let launches = obs.into_launches();
        (steps, launches, inner)
    })
    .remove(0);

    assert_eq!((inner.before_calls, inner.after_calls), (6, 6));
    // Only the first step's launch sequence is kept for replay.
    assert_eq!(
        launches.iter().map(|l| l.func).collect::<Vec<_>>(),
        funcs.to_vec()
    );

    for step in &steps {
        assert_eq!(step.calls.len(), 3);
        let mut last = step.start;
        for c in &step.calls {
            assert!(last <= c.before_in && c.before_in <= c.before_out);
            assert!(c.before_out <= c.after_in && c.after_in <= c.after_out);
            last = c.after_out;
            // Each part is at least what the fake burned, and not wildly more
            // (generous: a descheduled test thread adds milliseconds).
            assert!(c.phase_ns() >= PHYSICS.as_nanos() as u64);
            assert!(c.instrument_ns() >= (BEFORE + AFTER).as_nanos() as u64);
        }
        assert!(last <= step.end);
        assert_eq!(step.phase_ns(FuncId::XMass), step.calls[0].phase_ns());
        // Nothing but the three calls happens in this "step".
        assert!(
            step.closure() > 0.95 && step.closure() <= 1.0,
            "{}",
            step.closure()
        );
    }

    let mut store = SpanStore::default();
    let run = store.push_rank(3, 0, "fake rank 0", &steps);
    let own = store.self_times_ns();
    // run → 2 steps → 3 × (before, phase, after).
    assert_eq!(store.spans.len(), 1 + 2 * (1 + 9));
    let step_ids: Vec<usize> = store
        .spans
        .iter()
        .filter(|s| s.parent == Some(run))
        .map(|s| s.id as usize)
        .collect();
    assert_eq!(step_ids.len(), 2);
    for (id, step) in step_ids.iter().zip(&steps) {
        let children: u64 = step
            .calls
            .iter()
            .map(|c| c.phase_ns() + c.instrument_ns())
            .sum();
        assert_eq!(own[*id], step.wall_ns() - children);
    }
    // The run span's self time is the gap between the two steps.
    assert_eq!(own[run as usize], steps[1].start - steps[0].end);
}
