//! # tuner — a KernelTuner-style GPU auto-tuning harness
//!
//! Reproduces the slice of KernelTuner (van Werkhoven, FGCS 2019 — the
//! paper's ref. \[27\]) that §III-C uses: run one kernel repeatedly under a
//! dictionary of tunable parameters, measure time / energy / EDP per
//! configuration, and report the best. The paper's single tunable is the
//! *device-wide* GPU compute frequency, swept from 1005 to 1410 MHz.
//!
//! ```
//! use archsim::{GpuSpec, MegaHertz};
//! use tuner::{tune_kernel, Objective, TuneOptions, ParamSpace};
//!
//! // Sweep MomentumEnergy-like work over the paper's frequency range.
//! let mut params = ParamSpace::new();
//! params.add_frequency_range(MegaHertz(1005), MegaHertz(1410), 45);
//! let result = tune_kernel(
//!     "MomentumEnergy",
//!     |_p, n| archsim::KernelWorkload::new("MomentumEnergy", 4800.0 * n, 810.0 * n)
//!         .with_activity(0.95, 0.55),
//!     91.125e6,
//!     &params,
//!     &GpuSpec::a100_pcie_40gb(),
//!     TuneOptions { objective: Objective::Edp, ..Default::default() },
//! );
//! assert!(!result.configs.is_empty());
//! ```

pub mod measure;
pub mod space;
mod strategy;

use archsim::{GpuSpec, KernelWorkload, MegaHertz};

pub use measure::{measure_config, ConfigResult};
pub use space::{ParamSpace, ParamValues, FREQ_KEY, MEM_FREQ_KEY};

/// What to optimize for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize time-to-solution.
    Time,
    /// Minimize energy-to-solution.
    Energy,
    /// Minimize energy-delay product (the paper's Fig. 2 choice).
    Edp,
}

impl Objective {
    /// The scalar this objective minimizes for a given measurement.
    pub fn score(&self, r: &ConfigResult) -> f64 {
        match self {
            Objective::Time => r.time_s,
            Objective::Energy => r.energy_j,
            Objective::Edp => r.edp,
        }
    }
}

/// Tuning options (`tune_kernel` keyword arguments in the Python original).
#[derive(Debug, Clone)]
pub struct TuneOptions {
    pub objective: Objective,
    /// Times each configuration is executed; results are averaged
    /// (KernelTuner's `iterations`, default 7).
    pub iterations: u32,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            objective: Objective::Edp,
            iterations: 7,
        }
    }
}

/// Outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    pub kernel_name: String,
    /// All evaluated configurations, in evaluation order.
    pub configs: Vec<ConfigResult>,
    /// Index of the best configuration under the chosen objective.
    pub best: usize,
}

impl TuneResult {
    pub fn best_config(&self) -> &ConfigResult {
        &self.configs[self.best]
    }

    /// The winning frequency, if the space included one.
    pub fn best_frequency(&self) -> Option<archsim::MegaHertz> {
        self.best_config().params.frequency()
    }
}

/// The `tune_kernel` entry point.
///
/// * `kernel_name` — reported name.
/// * `kernel_source` — builds the workload from a parameter assignment and
///   the problem size (the analogue of compiling the kernel with `params`
///   macros applied).
/// * `problem_size` — particles/elements; scales the workload (fixed at
///   `450^3` in §III-C).
/// * `params` — the tunable-parameter dictionary.
pub fn tune_kernel<F>(
    kernel_name: &str,
    kernel_source: F,
    problem_size: f64,
    params: &ParamSpace,
    gpu: &GpuSpec,
    opts: TuneOptions,
) -> TuneResult
where
    F: Fn(&ParamValues, f64) -> KernelWorkload + Sync,
{
    // Each evaluation benchmarks a fresh simulated device, so configurations
    // are independent and the sweep runs them concurrently.
    let evaluate = |assignment: &ParamValues| -> ConfigResult {
        let workload = kernel_source(assignment, problem_size);
        measure_config(gpu, &workload, assignment, opts.iterations)
    };
    let configs = strategy::sweep(params, evaluate);
    assert!(!configs.is_empty(), "empty parameter space");
    let best = configs
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            opts.objective
                .score(a)
                .partial_cmp(&opts.objective.score(b))
                .expect("finite scores")
        })
        .map(|(i, _)| i)
        .expect("non-empty configs");
    TuneResult {
        kernel_name: kernel_name.to_string(),
        configs,
        best,
    }
}

/// Build the full (core, memory) product space for `gpu`: core clocks in
/// `[lo, max]` on the ladder, crossed with every memory P-state.
pub fn core_mem_space(gpu: &GpuSpec, lo: MegaHertz) -> ParamSpace {
    let mut params = ParamSpace::new();
    params.add_frequency_range(lo, gpu.clock_table.max(), gpu.clock_table.step());
    if gpu.mem_clock_table.len() > 1 {
        params.add_memory_frequencies(&gpu.mem_clock_table);
    }
    params
}

/// Exhaustively sweep the (core, memory) clock product — the ground truth
/// the predictive sweep is judged against.
pub fn exhaustive_core_mem_sweep<F>(
    kernel_name: &str,
    kernel_source: F,
    problem_size: f64,
    gpu: &GpuSpec,
    lo: MegaHertz,
    opts: TuneOptions,
) -> TuneResult
where
    F: Fn(&ParamValues, f64) -> KernelWorkload + Sync,
{
    let params = core_mem_space(gpu, lo);
    tune_kernel(kernel_name, kernel_source, problem_size, &params, gpu, opts)
}

/// Outcome of a predictive (model-fitting) sweep.
#[derive(Debug, Clone)]
pub struct PredictiveSweep {
    pub kernel_name: String,
    /// The fitted analytic model.
    pub model: model::KernelModel,
    /// The model's predicted optimum over the (core, mem) product.
    pub predicted: model::Predicted,
    /// Measured cost at the predicted point (the verification launch).
    pub verified: ConfigResult,
    /// Configurations actually measured: the probes plus the verification.
    /// Compare against the product-space size for the launch savings.
    pub measurements: usize,
}

/// Sweep the (core, memory) product by measuring only `probe_rungs` core
/// clocks (plus one low-memory probe when the device has multiple P-states),
/// fitting the analytic roofline/power model, and jumping to its predicted
/// EDP optimum — which is then measured once to verify.
///
/// Errors propagate from the fit (too few probes, degenerate samples); the
/// caller decides whether to fall back to [`exhaustive_core_mem_sweep`].
pub fn predictive_core_mem_sweep<F>(
    kernel_name: &str,
    kernel_source: F,
    problem_size: f64,
    gpu: &GpuSpec,
    lo: MegaHertz,
    probe_rungs: usize,
    iterations: u32,
) -> Result<PredictiveSweep, model::FitError>
where
    F: Fn(&ParamValues, f64) -> KernelWorkload + Sync,
{
    let ladder: Vec<MegaHertz> = gpu
        .clock_table
        .clocks_in_range(lo, gpu.clock_table.max())
        .into_iter()
        .rev()
        .collect(); // ascending
    assert!(!ladder.is_empty(), "empty core ladder");
    let k = probe_rungs.clamp(2, ladder.len());
    let mem_default = gpu.mem_clock;
    // Evenly spaced core probes at the default P-state, top and bottom
    // included, then one probe at the lowest P-state to open the memory axis.
    let mut points: Vec<(MegaHertz, MegaHertz)> = (0..k)
        .map(|j| {
            let idx = (ladder.len() - 1) * (k - 1 - j) / (k - 1);
            (ladder[idx], mem_default)
        })
        .collect();
    points.dedup();
    if gpu.mem_clock_table.len() > 1 {
        let lowest = *gpu.mem_clock_table.last().expect("non-empty table");
        points.push((*ladder.last().expect("non-empty"), lowest));
    }
    let measure_at = |core: MegaHertz, mem: MegaHertz| -> ConfigResult {
        let mut p = ParamSpace::new();
        p.add_frequencies(&[core]);
        if gpu.mem_clock_table.len() > 1 {
            p.add_memory_frequencies(&[mem]);
        }
        let assignment = p.enumerate().remove(0);
        let workload = kernel_source(&assignment, problem_size);
        measure_config(gpu, &workload, &assignment, iterations)
    };
    let samples: Vec<model::Sample> = points
        .iter()
        .map(|&(core, mem)| {
            let r = measure_at(core, mem);
            model::Sample {
                f_core_mhz: f64::from(core.0),
                f_mem_mhz: f64::from(mem.0),
                time_s: r.time_s,
                energy_j: r.energy_j,
            }
        })
        .collect();
    let voltage = model::VoltageParams {
        v_min: gpu.voltage.v_min.0,
        v_max: gpu.voltage.v_max.0,
        f_min_mhz: f64::from(gpu.voltage.f_min.0),
        f_max_mhz: f64::from(gpu.voltage.f_max.0),
    };
    let fitted = model::KernelModel::fit(
        &samples,
        f64::from(ladder.last().expect("non-empty").0),
        f64::from(mem_default.0),
        voltage,
    )?;
    let core_mhz: Vec<u32> = ladder.iter().map(|f| f.0).collect();
    let mem_mhz: Vec<u32> = gpu.mem_clock_table.iter().map(|f| f.0).collect();
    let predicted = fitted
        .predict_optimum(&core_mhz, &mem_mhz)
        .expect("non-empty ladders");
    let verified = measure_at(
        MegaHertz(predicted.f_core_mhz),
        MegaHertz(predicted.f_mem_mhz),
    );
    Ok(PredictiveSweep {
        kernel_name: kernel_name.to_string(),
        model: fitted,
        predicted,
        verified,
        measurements: points.len() + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::MegaHertz;

    fn compute_bound(_p: &ParamValues, n: f64) -> KernelWorkload {
        KernelWorkload::new("MomentumEnergy", 4800.0 * n, 810.0 * n).with_activity(0.95, 0.55)
    }

    fn memory_bound(_p: &ParamValues, n: f64) -> KernelWorkload {
        KernelWorkload::new("XMass", 330.0 * n, 500.0 * n).with_activity(0.30, 0.85)
    }

    fn paper_space() -> ParamSpace {
        let mut p = ParamSpace::new();
        p.add_frequency_range(MegaHertz(1005), MegaHertz(1410), 15);
        p
    }

    fn gpu() -> GpuSpec {
        GpuSpec::a100_pcie_40gb()
    }

    #[test]
    fn brute_force_evaluates_entire_space() {
        let r = tune_kernel(
            "k",
            compute_bound,
            1e6,
            &paper_space(),
            &gpu(),
            TuneOptions::default(),
        );
        assert_eq!(r.configs.len(), 28, "1005..=1410 step 15");
    }

    #[test]
    fn time_objective_picks_max_frequency() {
        let r = tune_kernel(
            "k",
            compute_bound,
            1e6,
            &paper_space(),
            &gpu(),
            TuneOptions {
                objective: Objective::Time,
                ..Default::default()
            },
        );
        assert_eq!(r.best_frequency(), Some(MegaHertz(1410)));
    }

    #[test]
    fn memory_bound_kernel_prefers_lower_edp_frequency_than_compute_bound() {
        // The Fig. 2 relationship: XMass-like kernels tune to lower clocks
        // than MomentumEnergy-like kernels.
        let opts = TuneOptions::default();
        let rc = tune_kernel(
            "me",
            compute_bound,
            1e6,
            &paper_space(),
            &gpu(),
            opts.clone(),
        );
        let rm = tune_kernel("xm", memory_bound, 1e6, &paper_space(), &gpu(), opts);
        let fc = rc.best_frequency().unwrap();
        let fm = rm.best_frequency().unwrap();
        assert!(
            fm < fc,
            "memory-bound best {fm} should be below compute-bound best {fc}"
        );
        assert_eq!(
            fm,
            MegaHertz(1005),
            "bandwidth-bound kernels tune to the sweep floor"
        );
    }

    #[test]
    fn energy_objective_never_picks_higher_freq_than_edp() {
        for factory in [
            compute_bound as fn(&ParamValues, f64) -> KernelWorkload,
            memory_bound,
        ] {
            let e = tune_kernel(
                "k",
                factory,
                1e6,
                &paper_space(),
                &gpu(),
                TuneOptions {
                    objective: Objective::Energy,
                    ..Default::default()
                },
            );
            let d = tune_kernel(
                "k",
                factory,
                1e6,
                &paper_space(),
                &gpu(),
                TuneOptions {
                    objective: Objective::Edp,
                    ..Default::default()
                },
            );
            assert!(e.best_frequency().unwrap() <= d.best_frequency().unwrap());
        }
    }

    #[test]
    fn two_axis_tuning_finds_joint_optimum() {
        // A second tunable besides frequency, KernelTuner-style: block size
        // affects launch structure (larger blocks -> fewer launches but a
        // lower activity factor for this synthetic kernel).
        let mut params = ParamSpace::new();
        params.add("block_size", vec![64.0, 128.0, 256.0]);
        params.add_frequencies(&[MegaHertz(1410), MegaHertz(1200), MegaHertz(1005)]);
        let factory = |p: &ParamValues, n: f64| {
            let bs = p.get("block_size").expect("axis present");
            let launches = (1024.0 * 64.0 / bs) as u32;
            KernelWorkload::new("k", 300.0 * n, 400.0 * n)
                .with_launches(launches)
                .with_activity(0.5, 0.8)
        };
        let r = tune_kernel("k", factory, 1e6, &params, &gpu(), TuneOptions::default());
        assert_eq!(r.configs.len(), 9, "full cartesian product");
        let best = r.best_config();
        // Fewer launches always win here (launch overhead is pure cost), and
        // the bandwidth-bound kernel prefers the sweep floor.
        assert_eq!(best.params.get("block_size"), Some(256.0));
        assert_eq!(r.best_frequency(), Some(MegaHertz(1005)));
    }

    #[test]
    fn exhaustive_core_mem_sweep_covers_the_product() {
        let gpu = GpuSpec::a100_sxm4_80gb();
        let r = exhaustive_core_mem_sweep(
            "k",
            compute_bound,
            1e6,
            &gpu,
            MegaHertz(1005),
            TuneOptions {
                iterations: 2,
                ..Default::default()
            },
        );
        // 28 core rungs × 3 memory P-states.
        assert_eq!(r.configs.len(), 28 * 3);
        let best = r.best_config();
        assert!(best.params.frequency().is_some());
        assert!(best.params.memory_frequency().is_some());
    }

    #[test]
    fn memory_bound_kernel_keeps_top_pstate_in_joint_sweep() {
        let gpu = GpuSpec::a100_sxm4_80gb();
        let r = exhaustive_core_mem_sweep(
            "xm",
            memory_bound,
            1e6,
            &gpu,
            MegaHertz(1005),
            TuneOptions {
                iterations: 2,
                ..Default::default()
            },
        );
        assert_eq!(
            r.best_config().params.memory_frequency(),
            Some(MegaHertz(1593)),
            "downclocking memory starves a bandwidth-bound kernel"
        );
    }

    #[test]
    fn predictive_sweep_lands_within_one_bin_of_exhaustive() {
        let gpu = GpuSpec::a100_sxm4_80gb();
        // Single-regime workloads at paper scale: the roofline stays on one
        // side of the kink across the window, so the analytic model applies.
        // (Kernels that cross the kink mid-window are what the online
        // verification step and search fallback exist for.)
        let strongly_compute = |_p: &ParamValues, n: f64| {
            KernelWorkload::new("grav", 50_000.0 * n, 100.0 * n).with_activity(0.95, 0.9)
        };
        for factory in [
            &strongly_compute as &(dyn Fn(&ParamValues, f64) -> KernelWorkload + Sync),
            &memory_bound,
        ] {
            let truth = exhaustive_core_mem_sweep(
                "k",
                factory,
                91.125e6,
                &gpu,
                MegaHertz(1005),
                TuneOptions {
                    iterations: 2,
                    ..Default::default()
                },
            );
            let pred =
                predictive_core_mem_sweep("k", factory, 91.125e6, &gpu, MegaHertz(1005), 4, 2)
                    .unwrap();
            let best = truth.best_config();
            let step = gpu.clock_table.step();
            let d = best
                .params
                .frequency()
                .unwrap()
                .0
                .abs_diff(pred.predicted.f_core_mhz);
            assert!(
                d <= step,
                "predicted {} vs exhaustive {} (> one bin)",
                pred.predicted.f_core_mhz,
                best.params.frequency().unwrap()
            );
            assert_eq!(
                Some(MegaHertz(pred.predicted.f_mem_mhz)),
                best.params.memory_frequency(),
                "memory P-state choice must match"
            );
            // ≥5× fewer measured configurations than the brute-force product.
            assert!(pred.measurements * 5 <= truth.configs.len());
        }
    }

    #[test]
    fn edp_equals_time_times_energy() {
        let r = tune_kernel(
            "k",
            compute_bound,
            1e6,
            &paper_space(),
            &gpu(),
            TuneOptions::default(),
        );
        for c in &r.configs {
            assert!((c.edp - c.time_s * c.energy_j).abs() < 1e-9 * c.edp.max(1.0));
        }
    }
}
