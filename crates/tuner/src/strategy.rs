//! The one search strategy: evaluate every configuration.
//!
//! KernelTuner offers many strategies; brute force is its default and is
//! entirely adequate for the paper's one-axis frequency sweep (§III-C notes
//! brute force "can be done in a reasonable amount of time" for small
//! spaces).

use crate::measure::ConfigResult;
use crate::space::{ParamSpace, ParamValues};

/// Evaluate all of `space`, fanned out across worker threads. Results come
/// back in enumeration order, so the output does not depend on the worker
/// count. One `tuner/sweep` span wraps one `tuner/eval` span per
/// configuration.
pub(crate) fn sweep<F>(space: &ParamSpace, evaluate: F) -> Vec<ConfigResult>
where
    F: Fn(&ParamValues) -> ConfigResult + Sync,
{
    let all = space.enumerate();
    let mut sweep = telemetry::span_start("tuner", "sweep");
    if sweep.is_active() {
        sweep.field("strategy", "brute_force_parallel");
        sweep.field("space", all.len());
    }
    let results = par::par_map(all.len(), |i| {
        let mut sp = telemetry::span_start("tuner", "eval");
        let r = evaluate(&all[i]);
        if sp.is_active() {
            if let Some(f) = r.params.frequency() {
                sp.field("freq_mhz", f.0);
            }
            sp.field("time_s", r.time_s);
            sp.field("energy_j", r.energy_j);
            sp.field("edp", r.edp);
        }
        r
    });
    sweep.field("evals", results.len());
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::MegaHertz;

    fn sweep_paper_space() -> Vec<ConfigResult> {
        let mut space = ParamSpace::new();
        space.add_frequency_range(MegaHertz(1005), MegaHertz(1410), 15);
        sweep(&space, |a| ConfigResult {
            params: a.clone(),
            time_s: 1.0,
            energy_j: 1.0,
            edp: 1.0,
        })
    }

    #[test]
    fn brute_force_covers_everything_in_order() {
        let out = sweep_paper_space();
        assert_eq!(out.len(), 28);
        assert_eq!(out[0].params.frequency(), Some(MegaHertz(1410)));
        assert_eq!(out[27].params.frequency(), Some(MegaHertz(1005)));
    }

    /// Exported traces are compared across PRs: the span names and field
    /// names and values are part of the output.
    #[test]
    fn sweep_and_eval_spans_keep_their_fields() {
        telemetry::start();
        sweep_paper_space();
        let trace = telemetry::chrome_trace(&telemetry::stop());
        if telemetry::ENABLED {
            let sweep_args = r#""strategy":"brute_force_parallel","space":28,"evals":28"#;
            assert!(trace.contains(sweep_args), "{trace}");
            assert!(trace.contains(r#""freq_mhz":1005,"time_s":1"#), "{trace}");
        }
    }
}
