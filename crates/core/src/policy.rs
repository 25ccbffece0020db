//! GPU frequency policies: the baseline, static down-scaling, the hardware
//! DVFS governor, and the paper's contribution — ManDyn, per-function
//! dynamic frequency selection.

use std::collections::BTreeMap;

use archsim::{GpuSpec, MegaHertz};
use online::{OnlineError, OnlineTunerConfig, PredictiveConfig, PredictiveTuner};
use serde::{Deserialize, Serialize};
use sph::FuncId;
use tuner::{tune_kernel, Objective, ParamSpace, TuneOptions, TuneResult};

/// Per-function frequency table (the outcome of the §III-C tuning step,
/// Fig. 2).
pub type FreqTable = BTreeMap<FuncId, MegaHertz>;

/// How the GPU compute clock is managed during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FreqPolicy {
    /// Centre default: application clocks pinned at the maximum
    /// (1410 MHz on the A100 systems of Table I).
    Baseline,
    /// Application clocks pinned at one lower value for the entire run
    /// (§IV-C).
    Static(MegaHertz),
    /// Hand the clock to the hardware/driver DVFS governor (§IV-D/E).
    Dvfs,
    /// "ManDyn": before each instrumented function, pin the clock to that
    /// function's tuned best frequency (§III-D, Fig. 7).
    ManDyn(FreqTable),
    /// Online ManDyn (the `online` crate): learn the per-function table *in
    /// the run*, no offline KernelTuner pass — per-kernel coarse-then-refine
    /// search over the full clock ladder with windowed EDP estimates,
    /// convergence pinning, learned-table persistence and power-cap
    /// composition. `{"ManDynOnline": {}}` in a spec file selects the
    /// paper-equivalent defaults.
    ManDynOnline(OnlineTunerConfig),
    /// Predictive ManDyn (the `online` crate's model path): probe a handful
    /// of rungs per kernel, fit the analytic roofline/CV²f model, jump
    /// straight to the predicted (core, memory) EDP optimum and verify it in
    /// one measurement — falling back to the `ManDynOnline` search whenever
    /// the fit is rejected, probes are quarantined, or verification fails.
    /// `{"ManDynPredictive": {}}` in a spec file selects the defaults;
    /// `"tune_memory": true` opens the memory P-state axis.
    ManDynPredictive(PredictiveConfig),
}

impl FreqPolicy {
    /// Short label used in reports and figure legends.
    pub fn label(&self) -> String {
        match self {
            FreqPolicy::Baseline => "baseline".into(),
            FreqPolicy::Static(f) => format!("static-{}", f.0),
            FreqPolicy::Dvfs => "dvfs".into(),
            FreqPolicy::ManDyn(_) => "mandyn".into(),
            FreqPolicy::ManDynOnline(_) => "mandyn-online".into(),
            FreqPolicy::ManDynPredictive(_) => "mandyn-predictive".into(),
        }
    }

    /// The in-run tuner this policy learns with, built over `gpu`'s clock
    /// ladders; `None` for the policies that learn nothing. This is the one
    /// place that tells the learning policies apart: `ManDynOnline` is the
    /// predictive tuner with no probe plan, so everything downstream holds
    /// one tuner type. An `Err` is a config the tuner refuses; spec entry
    /// points call this once up front so a bad config is a clean error.
    pub fn tuner(&self, gpu: &GpuSpec) -> Result<Option<PredictiveTuner>, OnlineError> {
        match self {
            FreqPolicy::ManDynOnline(cfg) => {
                PredictiveTuner::search_only(gpu, cfg.clone()).map(Some)
            }
            FreqPolicy::ManDynPredictive(cfg) => PredictiveTuner::new(gpu, cfg.clone()).map(Some),
            _ => Ok(None),
        }
    }

    /// The clock this policy wants before `func` runs, or `None` for
    /// governor control.
    pub fn frequency_for(&self, func: FuncId, gpu: &GpuSpec) -> Option<MegaHertz> {
        match self {
            FreqPolicy::Baseline => Some(gpu.clock_table.max()),
            FreqPolicy::Static(f) => Some(*f),
            FreqPolicy::ManDyn(table) => {
                Some(table.get(&func).copied().unwrap_or(gpu.clock_table.max()))
            }
            // The governor decides, or the policy's tuner does per call.
            FreqPolicy::Dvfs | FreqPolicy::ManDynOnline(_) | FreqPolicy::ManDynPredictive(_) => {
                None
            }
        }
    }
}

/// Sweep every instrumented function over `[lo, hi]` (the paper uses
/// 1005–1410 MHz) and return the per-function best frequency under
/// `objective`, plus the full per-function tuning data (Fig. 2's source).
pub fn tune_table(
    gpu: &GpuSpec,
    problem_size: f64,
    lo: MegaHertz,
    hi: MegaHertz,
    objective: Objective,
    include_gravity: bool,
) -> (FreqTable, Vec<(FuncId, TuneResult)>) {
    let mut space = ParamSpace::new();
    space.add_frequency_range(lo, hi, gpu.clock_table.step());
    // Functions tune independently (each sweep benchmarks fresh simulated
    // devices), so the per-function sweeps run concurrently. Results are
    // collected in `FuncId::ALL` order, so `detail` and the table are
    // identical to the serial sweep's.
    let funcs: Vec<FuncId> = FuncId::ALL
        .into_iter()
        .filter(|&f| f != FuncId::Gravity || include_gravity)
        .collect();
    let detail: Vec<(FuncId, TuneResult)> = par::par_map(funcs.len(), |k| {
        let func = funcs[k];
        let result = tune_kernel(
            func.name(),
            |_params, n| func.workload(n),
            problem_size,
            &space,
            gpu,
            TuneOptions {
                objective,
                iterations: 3,
            },
        );
        (func, result)
    });
    let table: FreqTable = detail
        .iter()
        .map(|(func, result)| {
            (
                *func,
                result.best_frequency().expect("frequency axis present"),
            )
        })
        .collect();
    (table, detail)
}

/// The paper's §III-C configuration: 450³ particles, best-EDP frequency per
/// kernel, swept over 1005–1410 MHz on an A100.
pub fn paper_mandyn_table(gpu: &GpuSpec) -> FreqTable {
    let n = 450.0f64.powi(3);
    tune_table(
        gpu,
        n,
        MegaHertz(1005),
        MegaHertz(1410),
        Objective::Edp,
        true,
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuSpec {
        GpuSpec::a100_pcie_40gb()
    }

    #[test]
    fn labels() {
        assert_eq!(FreqPolicy::Baseline.label(), "baseline");
        assert_eq!(FreqPolicy::Static(MegaHertz(1005)).label(), "static-1005");
        assert_eq!(FreqPolicy::Dvfs.label(), "dvfs");
        assert_eq!(FreqPolicy::ManDyn(FreqTable::new()).label(), "mandyn");
        assert_eq!(
            FreqPolicy::ManDynOnline(OnlineTunerConfig::default()).label(),
            "mandyn-online"
        );
        assert_eq!(
            FreqPolicy::ManDynPredictive(PredictiveConfig::default()).label(),
            "mandyn-predictive"
        );
    }

    #[test]
    fn only_the_learning_policies_build_a_tuner() {
        let g = gpu();
        for fixed in [
            FreqPolicy::Baseline,
            FreqPolicy::Static(MegaHertz(1005)),
            FreqPolicy::Dvfs,
            FreqPolicy::ManDyn(FreqTable::new()),
        ] {
            assert!(fixed.tuner(&g).unwrap().is_none(), "{}", fixed.label());
        }
        let search = FreqPolicy::ManDynOnline(OnlineTunerConfig::default());
        assert!(!search.tuner(&g).unwrap().unwrap().drives_memory_clock());
        let model = FreqPolicy::ManDynPredictive(PredictiveConfig::default());
        assert!(model.tuner(&g).unwrap().unwrap().drives_memory_clock());
        // Configs the tuners refuse come back as errors, not panics.
        let bad_search = FreqPolicy::ManDynOnline(OnlineTunerConfig {
            coarse_step: 0,
            ..Default::default()
        });
        assert!(bad_search.tuner(&g).is_err());
        let bad_model = FreqPolicy::ManDynPredictive(PredictiveConfig {
            probe_rungs: 9,
            ..Default::default()
        });
        assert!(bad_model.tuner(&g).is_err());
    }

    #[test]
    fn frequency_for_resolves_policy() {
        let g = gpu();
        assert_eq!(
            FreqPolicy::Baseline.frequency_for(FuncId::XMass, &g),
            Some(MegaHertz(1410))
        );
        assert_eq!(
            FreqPolicy::Static(MegaHertz(1050)).frequency_for(FuncId::XMass, &g),
            Some(MegaHertz(1050))
        );
        assert_eq!(FreqPolicy::Dvfs.frequency_for(FuncId::XMass, &g), None);
        let mut table = FreqTable::new();
        table.insert(FuncId::XMass, MegaHertz(1020));
        let mandyn = FreqPolicy::ManDyn(table);
        assert_eq!(
            mandyn.frequency_for(FuncId::XMass, &g),
            Some(MegaHertz(1020))
        );
        // Functions missing from the table fall back to the max clock.
        assert_eq!(
            mandyn.frequency_for(FuncId::MomentumEnergy, &g),
            Some(MegaHertz(1410))
        );
    }

    #[test]
    fn tuned_table_reproduces_fig2_ordering() {
        let (table, detail) = tune_table(
            &gpu(),
            450.0f64.powi(3),
            MegaHertz(1005),
            MegaHertz(1410),
            Objective::Edp,
            true,
        );
        assert_eq!(table.len(), 12);
        assert_eq!(detail.len(), 12);
        let me = table[&FuncId::MomentumEnergy];
        let iad = table[&FuncId::IADVelocityDivCurl];
        let xmass = table[&FuncId::XMass];
        let gradh = table[&FuncId::NormalizationGradh];
        // Fig. 2: compute-bound kernels tune high, bandwidth-bound tune low.
        assert!(me >= MegaHertz(1300), "MomentumEnergy tuned to {me}");
        assert!(iad >= MegaHertz(1200), "IAD tuned to {iad}");
        assert!(xmass <= MegaHertz(1110), "XMass tuned to {xmass}");
        assert!(
            gradh < me,
            "NormalizationGradh {gradh} below MomentumEnergy {me}"
        );
        // All chosen clocks stay inside the sweep.
        for (&f, &mhz) in &table {
            assert!(
                mhz >= MegaHertz(1005) && mhz <= MegaHertz(1410),
                "{f}: {mhz}"
            );
        }
    }

    #[test]
    fn turbulence_table_skips_gravity() {
        let (table, _) = tune_table(
            &gpu(),
            1e6,
            MegaHertz(1005),
            MegaHertz(1410),
            Objective::Edp,
            false,
        );
        assert_eq!(table.len(), 11);
        assert!(!table.contains_key(&FuncId::Gravity));
    }
}
