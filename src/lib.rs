//! # gpu-freq-scaling
//!
//! Rust reproduction of **"Increasing Energy Efficiency of Astrophysics
//! Simulations Through GPU Frequency Scaling"** (Simsek, Piccinali, Ciorba —
//! SC 2024), built entirely on simulated hardware so the full experiment
//! pipeline — instrumented energy measurement, per-kernel frequency tuning,
//! and dynamic frequency scaling — runs on any laptop.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`archsim`] — CPU+GPU node architecture simulator (roofline execution,
//!   DVFS power model, boost governor, virtual time);
//! * [`nvml_shim`] — NVML-shaped device control plane;
//! * [`pm_counters`] — HPE/Cray 10 Hz out-of-band node energy counters;
//! * [`pmt`] — Power Measurement Toolkit (sensor trait + backends);
//! * [`ranks`] — MPI-like rank runtime with virtual-clock collectives;
//! * [`cornerstone`] — SFC keys, octree, neighbor search, domain
//!   decomposition;
//! * [`sph`] — SPH-EXA-like hydrodynamics framework with profiling hooks;
//! * [`tuner`] — KernelTuner-style frequency sweep harness;
//! * [`slurm_sim`] — job energy accounting (`sacct` / `ConsumedEnergy`);
//! * [`online`] — in-run autotuning: online per-kernel frequency search,
//!   learned-table persistence, and power-cap coordination;
//! * [`freqscale`] — the paper's contribution: instrumentation + the
//!   Baseline / Static / DVFS / ManDyn / ManDynOnline frequency policies.
//!
//! ## Quickstart
//!
//! ```
//! use freqscale::{run_experiment, ExperimentSpec, FreqPolicy};
//!
//! let spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 2);
//! let result = run_experiment(&spec);
//! assert!(result.time_to_solution_s > 0.0);
//! assert!(result.pmt_gpu_j > 0.0);
//! ```
//!
//! See `examples/` for the full workflows and `crates/bench` for the
//! regenerators of every table and figure in the paper.

pub use archsim;
pub use cornerstone;
pub use freqscale;
pub use nvml_shim;
pub use online;
pub use pm_counters;
pub use pmt;
pub use ranks;
pub use serve;
pub use slurm_sim;
pub use sph;
pub use tuner;
