//! End-to-end acceptance for the experiment service (`crates/serve` +
//! `ExperimentExecutor`): K concurrent same-key submissions share one
//! exploration, queue overflow is rejected cleanly, and chaos (a killed job,
//! a corrupt store entry) leaves the daemon serving.

use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gpu_freq_scaling::freqscale::{ExperimentExecutor, ExperimentSpec, FreqPolicy, WorkloadKind};
use gpu_freq_scaling::online::{OnlineTunerConfig, PredictiveConfig, TableStore};
use gpu_freq_scaling::serve::{
    client, Daemon, DaemonHandle, Executor, JobMeta, JobOutcome, ServeConfig, TableServerConfig,
};

fn tmp(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

/// The proven full-pin online configuration from `tests/online_tuning.rs`:
/// every turbulence kernel pins within 70 steps, so the explorer always has
/// a non-empty table to publish.
fn online_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::minihpc_turbulence(
        FreqPolicy::ManDynOnline(OnlineTunerConfig::default()),
        70,
    );
    spec.workload = WorkloadKind::Turbulence {
        n_side: 6,
        mach: 0.3,
        seed: 9,
    };
    spec.target_neighbors = 30;
    spec
}

/// The proven probe-free-warm-start predictive configuration from the
/// runner's own store round-trip test: 16 steps fit and pin every kernel,
/// so the explorer publishes both a table and model coefficients.
fn predictive_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::minihpc_turbulence(
        FreqPolicy::ManDynPredictive(PredictiveConfig::default()),
        16,
    );
    spec.workload = WorkloadKind::Turbulence {
        n_side: 6,
        mach: 0.3,
        seed: 1,
    };
    spec.target_neighbors = 30;
    spec
}

fn baseline_spec(steps: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, steps);
    spec.workload = WorkloadKind::Turbulence {
        n_side: 6,
        mach: 0.3,
        seed: 9,
    };
    spec.target_neighbors = 30;
    spec
}

fn spec_json(spec: &ExperimentSpec) -> String {
    serde_json::to_string(spec).unwrap()
}

fn start(tag: &str, queue: usize, workers: usize, store: Option<PathBuf>) -> DaemonHandle {
    let cfg = ServeConfig {
        socket: tmp(&format!("{tag}.sock")),
        queue_capacity: queue,
        workers,
        tables: TableServerConfig {
            dir: store,
            capacity: 8,
        },
    };
    Daemon::start(cfg, ExperimentExecutor).expect("daemon starts")
}

/// ISSUE acceptance: K=4 concurrent submissions of the same (GPU, workload)
/// key — exactly one explores, the other three warm-start from its published
/// table, pinned by exploration-launch counts.
#[test]
fn four_concurrent_same_key_submissions_share_one_exploration() {
    let store = tmp("k4-store");
    let handle = start("k4", 8, 4, Some(store.clone()));

    let spec = spec_json(&online_spec());
    let subs: Vec<(String, String)> = (0..4)
        .map(|i| (format!("turb-{i}"), spec.clone()))
        .collect();
    let results = client::submit_all(handle.socket(), &subs).expect("submit");

    assert_eq!(results.len(), 4);
    for r in &results {
        assert!(r.ok, "{}: {:?} {:?}", r.name, r.error, r.rejected);
    }
    let explorers: Vec<_> = results
        .iter()
        .filter(|r| r.exploration_launches > 0)
        .collect();
    let warm: Vec<_> = results.iter().filter(|r| r.warm_start).collect();
    assert_eq!(
        explorers.len(),
        1,
        "exactly one of K concurrent same-key jobs explores: {results:?}"
    );
    assert!(!explorers[0].warm_start);
    assert_eq!(warm.len(), 3, "the other three warm-start: {results:?}");
    for r in &warm {
        assert_eq!(
            r.exploration_launches, 0,
            "{}: warm start spends zero exploration launches",
            r.name
        );
        assert_eq!(
            r.table_version,
            Some(1),
            "{}: served the first publish",
            r.name
        );
    }

    let stats = client::stats(handle.socket()).expect("stats");
    assert_eq!(stats.jobs_completed, 4);
    assert_eq!(stats.tables.explorations, 1);
    assert_eq!(stats.tables.publishes, 1);
    assert_eq!(stats.tables.warm_starts, 3);

    // The explored table reached the on-disk store through write-behind.
    client::shutdown(handle.socket()).expect("shutdown");
    handle.join();
    let disk = TableStore::open(&store).unwrap();
    let entries = disk.list().unwrap();
    assert_eq!(entries.len(), 1, "one (GPU, workload) slot persisted");
    assert!(!entries[0].table.is_empty());
    assert_eq!(entries[0].version, 1);
    let _ = std::fs::remove_dir_all(&store);
}

/// Tentpole acceptance, serving layer: a predictive job's fitted
/// coefficients travel through the table server — the explorer publishes
/// models alongside its table, write-behind persists both, and a repeat
/// submission of the same key warm-starts *probe-free* (zero exploration
/// launches) from the served models.
#[test]
fn served_predictive_warm_start_skips_probe_phase() {
    let store = tmp("predictive-store");
    let handle = start("predictive", 4, 1, Some(store.clone()));

    let spec = spec_json(&predictive_spec());
    let cold = client::submit_all(handle.socket(), &[("pred-cold".to_string(), spec.clone())])
        .expect("submit");
    assert!(cold[0].ok, "{:?}", cold[0].error);
    assert!(!cold[0].warm_start, "first submission explores");
    assert!(
        cold[0].exploration_launches > 0,
        "cold predictive run spends probe launches"
    );

    let warm =
        client::submit_all(handle.socket(), &[("pred-warm".to_string(), spec)]).expect("submit");
    assert!(warm[0].ok, "{:?}", warm[0].error);
    assert!(warm[0].warm_start, "second submission is served warm");
    assert_eq!(
        warm[0].exploration_launches, 0,
        "served models must skip even the probe phase"
    );

    client::shutdown(handle.socket()).expect("shutdown");
    handle.join();
    // Write-behind persisted the coefficients in the batch-store layout.
    let disk = TableStore::open(&store).unwrap();
    let entries = disk.list().unwrap();
    assert_eq!(entries.len(), 1);
    assert!(!entries[0].table.is_empty(), "table persisted");
    assert!(!entries[0].models.is_empty(), "models persisted");
    let _ = std::fs::remove_dir_all(&store);
}

/// `ExperimentExecutor` behind a gate, so jobs stay in flight while the
/// queue is deliberately overflowed.
struct GatedExecutor {
    inner: ExperimentExecutor,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Executor for GatedExecutor {
    fn validate(&self, spec_json: &str) -> Result<JobMeta, String> {
        self.inner.validate(spec_json)
    }

    fn execute(
        &self,
        spec_json: &str,
        warm: Option<&gpu_freq_scaling::online::WarmState>,
    ) -> Result<JobOutcome, String> {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        drop(open);
        self.inner.execute(spec_json, warm)
    }
}

/// ISSUE acceptance: overflowing the queue returns `rejected: queue_full`
/// for the excess submission without wedging the daemon — held jobs still
/// finish, and a fresh submission afterwards completes.
#[test]
fn queue_overflow_rejects_queue_full_without_wedging() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let cfg = ServeConfig {
        socket: tmp("overflow.sock"),
        queue_capacity: 2,
        workers: 1,
        tables: TableServerConfig {
            dir: None,
            capacity: 8,
        },
    };
    let exec = GatedExecutor {
        inner: ExperimentExecutor,
        gate: gate.clone(),
    };
    let handle = Daemon::start(cfg, exec).expect("daemon starts");
    let socket = handle.socket().to_path_buf();

    // The worker holds held-0 at the gate; submit_all blocks until jobs
    // finish, so each held batch runs on a thread.
    let spec = spec_json(&baseline_spec(2));
    let wait_for = |want_submitted: u64, want_depth: usize, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = client::stats(&socket).expect("stats");
            if stats.jobs_submitted >= want_submitted && stats.queue_depth == want_depth {
                return;
            }
            assert!(Instant::now() < deadline, "{what}: {stats:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let first = {
        let (socket, spec) = (socket.clone(), spec.clone());
        std::thread::spawn(move || {
            client::submit_all(&socket, &[("held-0".into(), spec)]).expect("held-0")
        })
    };
    wait_for(1, 0, "worker never picked up held-0");

    // With the only worker gated, two more submissions fill the queue.
    let rest = {
        let (socket, spec) = (socket.clone(), spec.clone());
        std::thread::spawn(move || {
            client::submit_all(
                &socket,
                &[("held-1".into(), spec.clone()), ("held-2".into(), spec)],
            )
            .expect("held batch")
        })
    };
    wait_for(3, 2, "held-1/held-2 never queued");

    // Queue is full: the next submission is rejected, cleanly.
    let overflow = client::submit_all(&socket, &[("extra".into(), spec.clone())]).expect("submit");
    assert_eq!(overflow.len(), 1);
    assert_eq!(overflow[0].rejected.as_deref(), Some("queue_full"));
    assert!(!overflow[0].ok);

    // Open the gate: everything held drains and finishes ok.
    {
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    let mut results = first.join().unwrap();
    results.extend(rest.join().unwrap());
    assert!(results.iter().all(|r| r.ok), "{results:?}");

    // Not wedged: a fresh submission completes.
    let fresh = client::submit_all(&socket, &[("fresh".into(), spec)]).expect("submit");
    assert!(fresh[0].ok, "{fresh:?}");

    let stats = client::stats(&socket).expect("stats");
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.jobs_completed, 4);
    client::shutdown(&socket).expect("shutdown");
    handle.join();
}

/// ISSUE acceptance: chaos — a job killed mid-run (panicking executor) and
/// a corrupt store entry — leaves the daemon accepting and completing new
/// submissions.
#[test]
fn killed_job_and_corrupt_store_entry_leave_daemon_serving() {
    let store_dir = tmp("chaos-store");

    // A distinct (GPU, workload) slot, pre-populated then corrupted on disk.
    let mut corrupt_victim = online_spec();
    corrupt_victim.target_particles_per_rank = 300.0f64.powi(3);
    {
        let store = TableStore::open(&store_dir).unwrap();
        let gpu = corrupt_victim.system.node.gpu.name.clone();
        store
            .save(&gpu, &corrupt_victim.table_store_key(), &Default::default())
            .unwrap();
        let entry = std::fs::read_dir(&store_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "json"))
            .expect("seeded entry on disk");
        std::fs::write(entry.path(), "{torn mid-write, not a StoredTable").unwrap();
    }

    let handle = start("chaos", 8, 2, Some(store_dir.clone()));

    // Kill vector: passes validation, then dies inside the runner — an
    // off-ladder `--gpu-freq` makes the privileged clock set panic.
    let mut killer = baseline_spec(2);
    killer.slurm_gpu_freq = Some(gpu_freq_scaling::archsim::MegaHertz(1007));

    let results = client::submit_all(
        handle.socket(),
        &[
            ("killer".into(), spec_json(&killer)),
            ("corrupt-slot".into(), spec_json(&corrupt_victim)),
        ],
    )
    .expect("submit");

    let killed = results.iter().find(|r| r.name == "killer").unwrap();
    assert!(!killed.ok, "off-ladder clock request must fail the job");
    assert!(
        killed.error.as_deref().unwrap_or("").contains("ladder"),
        "failure surfaces the panic message: {:?}",
        killed.error
    );

    // The corrupt entry cost one cold-start exploration, not a crash.
    let survivor = results.iter().find(|r| r.name == "corrupt-slot").unwrap();
    assert!(survivor.ok, "{:?}", survivor.error);
    assert!(!survivor.warm_start, "corrupt entry cannot warm-start");
    assert!(survivor.exploration_launches > 0);
    let aside = std::fs::read_dir(&store_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| e.path().to_string_lossy().ends_with(".json.corrupt"));
    assert!(aside, "corrupt bytes moved aside for inspection");

    // Still serving: a fresh submission after both chaos vectors completes.
    let fresh = client::submit_all(
        handle.socket(),
        &[("fresh".into(), spec_json(&baseline_spec(2)))],
    )
    .expect("submit");
    assert!(fresh[0].ok, "{fresh:?}");

    let stats = client::stats(handle.socket()).expect("stats");
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 2);
    client::shutdown(handle.socket()).expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}
