//! Online ManDyn: in-run autotuning and power management.
//!
//! The paper's ManDyn policy (§III-C/D) needs an *offline* KernelTuner
//! sweep before the production run. This crate removes that prerequisite
//! and adds the operational pieces a production deployment needs:
//!
//! - [`OnlineTuner`] — a per-kernel search over the GPU clock ladder that
//!   optimises windowed per-call EDP while the job runs. Coarse probing
//!   followed by step-halving hill-climbing (exploration decay); kernels
//!   pin once their estimate is stable within one ladder bin; kernels with
//!   too few samples run at the maximum clock (Baseline fallback).
//! - [`PredictiveTuner`] — probe, fit the `model` crate's roofline/CV²f
//!   model, jump to the predicted optimum; falls back to the search per
//!   kernel, and with an empty probe plan *is* the search.
//! - [`TableStore`] — JSON persistence of [`WarmState`]s (learned table +
//!   fitted models) keyed by `(GPU, workload)`, so later runs warm-start
//!   and skip exploration.
//! - [`PowerCapCoordinator`] — splits a node/cluster watt budget across
//!   ranks by greedily clamping the kernels with the smallest marginal EDP
//!   cost, and emits the per-rank device power limit that enforces it.
//!
//! The `freqscale` crate integrates these as the `ManDynOnline` and
//! `ManDynPredictive` frequency policies, both through one
//! [`PredictiveTuner`].

pub mod config;
pub mod controller;
pub mod coordinator;
pub mod error;
pub mod estimator;
pub mod predictive;
pub mod store;

pub use config::{OnlineTunerConfig, PredictiveConfig};
pub use controller::{LearnedTable, OnlineTuner, RecordOutcome};
pub use coordinator::{PowerCapCoordinator, RankAllocation, DEFAULT_MARGIN};
pub use error::OnlineError;
pub use estimator::RungEstimate;
pub use predictive::{ModelTable, PredictiveTuner, WarmState};
pub use store::{StoredTable, TableStore};
