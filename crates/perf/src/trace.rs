//! Benchmark-owned tracing: a [`StepObserver`] wrapper that stamps host
//! `Instant`s around the instrument's hooks, the span tree built from those
//! stamps (run → step → phase | instrument), self-time arithmetic, and the
//! Chrome-trace writer. Nothing here touches the program under test — spans
//! inside the crates are a later change.

use std::fmt::Write as _;
use std::time::Instant;

use archsim::{KernelWorkload, SimDuration};
use ranks::RankCtx;
use sph::{FuncId, StepObserver};

/// Host stamps of one instrumented function call, ns since the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallStamps {
    pub func: FuncId,
    pub before_in: u64,
    pub before_out: u64,
    pub after_in: u64,
    pub after_out: u64,
}

impl CallStamps {
    /// The physics between the hooks.
    pub fn phase_ns(&self) -> u64 {
        self.after_in - self.before_out
    }

    /// Both hooks: policy + PMT reads + simulated GPU execution.
    pub fn instrument_ns(&self) -> u64 {
        (self.before_out - self.before_in) + (self.after_out - self.after_in)
    }
}

/// One launch as the instrument saw it: the replay input for the
/// simulator-stack probes.
#[derive(Debug, Clone)]
pub struct Launch {
    pub func: FuncId,
    pub workload: KernelWorkload,
    pub host_pre: SimDuration,
}

/// Wraps the real observer and stamps entry and exit of both hooks.
pub struct TimingObserver<'a, O: StepObserver> {
    inner: &'a mut O,
    epoch: Instant,
    calls: Vec<CallStamps>,
    /// Launch sequence of the first step only (every step repeats it).
    launches: Vec<Launch>,
    first_step_done: bool,
    open: Option<(FuncId, u64, u64)>,
}

impl<'a, O: StepObserver> TimingObserver<'a, O> {
    pub fn new(inner: &'a mut O, epoch: Instant) -> Self {
        TimingObserver {
            inner,
            epoch,
            calls: Vec::new(),
            launches: Vec::new(),
            first_step_done: false,
            open: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Hand back the calls stamped since the last take (one step's worth).
    pub fn take_step(&mut self) -> Vec<CallStamps> {
        self.first_step_done = true;
        std::mem::take(&mut self.calls)
    }

    pub fn into_launches(self) -> Vec<Launch> {
        self.launches
    }
}

impl<O: StepObserver> StepObserver for TimingObserver<'_, O> {
    fn before(&mut self, func: FuncId, ctx: &mut RankCtx) {
        let t_in = self.now();
        self.inner.before(func, ctx);
        self.open = Some((func, t_in, self.now()));
    }

    fn after(
        &mut self,
        func: FuncId,
        workload: &KernelWorkload,
        host_pre: SimDuration,
        ctx: &mut RankCtx,
    ) {
        let after_in = self.now();
        self.inner.after(func, workload, host_pre, ctx);
        let after_out = self.now();
        let (open_func, before_in, before_out) = self.open.take().expect("after without before");
        assert_eq!(open_func, func, "mismatched before/after pair");
        self.calls.push(CallStamps {
            func,
            before_in,
            before_out,
            after_in,
            after_out,
        });
        if !self.first_step_done {
            self.launches.push(Launch {
                func,
                workload: workload.clone(),
                host_pre,
            });
        }
    }
}

/// One step of one rank: the outer stamps taken around `Simulation::step`
/// and the calls inside it.
#[derive(Debug, Clone)]
pub struct StepStamps {
    pub start: u64,
    pub end: u64,
    pub calls: Vec<CallStamps>,
}

impl StepStamps {
    pub fn wall_ns(&self) -> u64 {
        self.end - self.start
    }

    pub fn phase_ns(&self, func: FuncId) -> u64 {
        self.calls
            .iter()
            .filter(|c| c.func == func)
            .map(CallStamps::phase_ns)
            .sum()
    }

    /// Time inside the step's child spans (phases and both hooks).
    pub fn children_ns(&self) -> u64 {
        self.calls
            .iter()
            .map(|c| c.phase_ns() + c.instrument_ns())
            .sum()
    }

    /// Σ children ÷ step: how much of the step the spans account for.
    pub fn closure(&self) -> f64 {
        self.children_ns() as f64 / self.wall_ns().max(1) as f64
    }
}

/// A closed interval in the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Shared by every span of one experiment run (Chrome `pid`).
    pub run: u32,
    /// Rank thread (Chrome `tid`).
    pub rank: u32,
    pub cat: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store; ids are indices.
#[derive(Debug, Default)]
pub struct SpanStore {
    pub spans: Vec<Span>,
}

impl SpanStore {
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        parent: Option<u32>,
        run: u32,
        rank: u32,
        cat: &'static str,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            run,
            rank,
            cat,
            name: name.into(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Add one rank's steps under a fresh run-level span; returns its id.
    pub fn push_rank(&mut self, run: u32, rank: u32, label: &str, steps: &[StepStamps]) -> u32 {
        let start = steps.first().map_or(0, |s| s.start);
        let end = steps.last().map_or(start, |s| s.end);
        let run_id = self.push(None, run, rank, "run", label, start, end);
        for (i, step) in steps.iter().enumerate() {
            let step_id = self.push(
                Some(run_id),
                run,
                rank,
                "step",
                format!("step {}", i + 1),
                step.start,
                step.end,
            );
            for c in &step.calls {
                let p = Some(step_id);
                self.push(
                    p,
                    run,
                    rank,
                    "instrument",
                    "before",
                    c.before_in,
                    c.before_out,
                );
                self.push(
                    p,
                    run,
                    rank,
                    "phase",
                    c.func.name(),
                    c.before_out,
                    c.after_in,
                );
                self.push(p, run, rank, "instrument", "after", c.after_in, c.after_out);
            }
        }
        run_id
    }

    /// Self time per span: duration minus the durations of its direct
    /// children (children of one parent never overlap here — they are
    /// sequential stamps of one thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Chrome trace-event JSON (`chrome://tracing`, ui.perfetto.dev):
    /// complete (`X`) events, microsecond stamps, run as pid, rank as tid.
    pub fn chrome_trace(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::with_capacity(self.spans.len() * 160 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Names are FuncId names / fixed labels: no escaping needed
            // beyond the quote-free invariant asserted here.
            debug_assert!(!s.name.contains(['"', '\\']));
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.cat,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.run,
                s.rank,
                s.id,
                parent,
                own[i] as f64 / 1e3,
            )
            .expect("write to String");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(func: FuncId, t: u64) -> CallStamps {
        // before 10 ns, phase 100 ns, after 20 ns, then a 5 ns gap.
        CallStamps {
            func,
            before_in: t,
            before_out: t + 10,
            after_in: t + 110,
            after_out: t + 130,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let step = StepStamps {
            start: 0,
            end: 300,
            calls: vec![call(FuncId::XMass, 5), call(FuncId::Timestep, 140)],
        };
        assert_eq!(step.phase_ns(FuncId::XMass), 100);
        assert_eq!(step.calls[0].instrument_ns(), 30);
        assert!((step.closure() - 260.0 / 300.0).abs() < 1e-12);

        let mut store = SpanStore::default();
        let run = store.push_rank(7, 0, "rank 0", std::slice::from_ref(&step));
        let own = store.self_times_ns();
        // run span covers exactly the step: no self time.
        assert_eq!(own[run as usize], 0);
        // step: 300 − 2·(10+100+20) = 40 ns unaccounted.
        assert_eq!(own[run as usize + 1], 40);
        // leaves keep their whole duration.
        assert_eq!(own[run as usize + 3], 100);
        assert_eq!(store.spans.len(), 2 + 6);
        assert!(store.spans.iter().all(|s| s.run == 7));
        assert_eq!(store.spans[3].parent, Some(1));

        let json = store.chrome_trace();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 8);
        assert!(json.contains("\"name\":\"XMass\""));
    }
}
