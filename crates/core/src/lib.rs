//! # freqscale — instrumented energy measurement and dynamic GPU frequency
//! scaling for SPH simulations
//!
//! The primary contribution of *"Increasing Energy Efficiency of
//! Astrophysics Simulations Through GPU Frequency Scaling"* (SC 2024),
//! reproduced over simulated hardware:
//!
//! * [`EnergyInstrument`] — hooks into the SPH-EXA-style propagator,
//!   measuring per-function time and energy through PMT and applying a
//!   [`FreqPolicy`] before each kernel via the NVML shim;
//! * [`FreqPolicy`] — `Baseline` (pinned max), `Static(f)`, `Dvfs`
//!   (governor), `ManDyn` (the paper's per-function dynamic scaling), and
//!   the two policies that learn the table in the run through one `online`
//!   tuner — `ManDynOnline` (search) and `ManDynPredictive` (probe, fit,
//!   jump) — with warm-state persistence and power-cap composition;
//! * [`policy::tune_table`] — the KernelTuner-based sweet-spot search that
//!   produces the ManDyn table (Fig. 2);
//! * [`run_experiment`] — full experiment orchestration (cluster, setup
//!   phase, instrumented ranks, pm_counters, Slurm accounting), with
//!   [`run_experiments`] running independent scenarios concurrently;
//! * [`ExperimentResult`] — every measurement view the paper reports,
//!   JSON-serializable;
//! * [`ExperimentExecutor`] — the bridge into the `serve` crate's
//!   long-running daemon: spec submissions over a Unix socket, a shared
//!   in-process table server for single-flight warm starts (see the
//!   `freqscale-serve` / `freqscale-submit` binaries).
//!
//! ```no_run
//! use freqscale::{run_experiment, ExperimentSpec, FreqPolicy};
//!
//! // The §IV-D comparison on miniHPC: baseline vs ManDyn.
//! let base = run_experiment(&ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 10));
//! let table = freqscale::policy::paper_mandyn_table(&archsim::GpuSpec::a100_pcie_40gb());
//! let mandyn = run_experiment(&ExperimentSpec::minihpc_turbulence(FreqPolicy::ManDyn(table), 10));
//! let (time, energy, edp) = mandyn.normalized_to(&base);
//! println!("ManDyn: {:.2}% slower, {:.2}% less GPU energy, EDP x{edp:.3}",
//!     (time - 1.0) * 100.0, (1.0 - energy) * 100.0);
//! ```

pub mod analysis;
pub mod checkpoint;
pub mod instrument;
pub mod policy;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod serving;

pub use analysis::{
    best_edp, compare_tables, dominated_area, max_deviation_mhz, pareto_front, tables_within_bin,
    PolicyPoint, TableDeviation,
};
pub use checkpoint::{
    latest_checkpoint, load_manifest, spec_hash, Checkpointer, Manifest, RestorePoint,
};
pub use instrument::EnergyInstrument;
pub use policy::{paper_mandyn_table, tune_table, FreqPolicy, FreqTable};
pub use report::{ExperimentResult, FunctionReport, NodeBreakdown, RankReport};
pub use runner::{
    run_experiment, run_experiment_warm, run_experiments, ExperimentSpec, WorkloadKind,
};
pub use scenario::{system_for_device, workload_for, SCENARIOS};
pub use serving::ExperimentExecutor;
