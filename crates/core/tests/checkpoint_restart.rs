//! Checkpoint/restart end-to-end: a run killed mid-way and restored from
//! its last checkpoint must continue **bit-identically** — same final
//! particle state (rank-ordered digest) and same learned tuner table — even
//! under a chaos fault profile. Also pins that a corrupt rank blob
//! cold-starts cleanly (`.corrupt` sidecar, no panic).

use freqscale::{run_experiment, ExperimentSpec, FreqPolicy, RestorePoint, WorkloadKind};
use online::OnlineTunerConfig;
use std::path::PathBuf;

/// The shared experiment identity: 2 ranks, online tuning that pins every
/// kernel within two launches (so the table is converged well before the
/// checkpoint), and the standard chaos fault mix.
fn physics_spec(steps: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::minihpc_turbulence(
        FreqPolicy::ManDynOnline(OnlineTunerConfig {
            max_explore_launches: 2,
            ..OnlineTunerConfig::default()
        }),
        steps,
    );
    spec.workload = WorkloadKind::Turbulence {
        n_side: 8,
        mach: 0.3,
        seed: 7,
    };
    spec.target_neighbors = 30;
    spec.ranks = 2;
    spec.faults = Some(faults::FaultProfile::chaos());
    spec
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("freqscale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_and_restore_continues_bit_identically_under_chaos() {
    let ckpt = tmp_dir("ckpt-chaos");

    // Ground truth: six uninterrupted steps.
    let full = run_experiment(&physics_spec(6));

    // The "killed" run: stops after step 3, having committed a checkpoint.
    let mut killed = physics_spec(3);
    killed.checkpoint_dir = Some(ckpt.clone());
    killed.checkpoint_every = 3;
    let at_kill = run_experiment(&killed);
    assert!(
        ckpt.join("step-000003").join("manifest.json").exists(),
        "checkpoint committed at the kill point"
    );

    // Restore and run the remaining three steps.
    let mut resumed = physics_spec(6);
    resumed.restore_from = Some(ckpt.clone());
    let restored = run_experiment(&resumed);

    assert_eq!(
        restored.state_digest, full.state_digest,
        "restored continuation must be bit-identical to the uninterrupted run"
    );
    assert_ne!(
        at_kill.state_digest, full.state_digest,
        "sanity: the digest distinguishes step 3 from step 6"
    );
    // The tuner pinned every kernel before the checkpoint, the manifest
    // carried the table, and the warm start re-pins it with zero
    // exploration — so the learned tables match entry for entry.
    assert_eq!(
        restored.per_rank[0].learned_table, full.per_rank[0].learned_table,
        "learned tuner table must survive kill→restore"
    );
    assert_eq!(
        restored.per_rank[0].exploration_launches, 0,
        "warm-started restore must not re-explore"
    );

    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn restore_resumes_at_the_checkpoint_step_not_step_zero() {
    let ckpt = tmp_dir("ckpt-resume-step");

    let mut killed = physics_spec(4);
    killed.checkpoint_dir = Some(ckpt.clone());
    killed.checkpoint_every = 2;
    run_experiment(&killed);
    // Checkpoints at steps 2 and 4; discovery must pick the newest.
    assert!(ckpt.join("step-000004").join("manifest.json").exists());

    let mut resumed = physics_spec(6);
    resumed.restore_from = Some(ckpt.clone());
    let rp = RestorePoint::discover(&ckpt, &resumed).expect("committed checkpoint found");
    assert_eq!(rp.manifest.step, 4, "newest checkpoint wins");
    assert_eq!(rp.manifest.ranks, 2);
    assert!(
        rp.manifest.splits.is_some(),
        "multirank checkpoints carry the SFC splits"
    );

    let full = run_experiment(&physics_spec(6));
    let restored = run_experiment(&resumed);
    assert_eq!(restored.state_digest, full.state_digest);

    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn corrupt_rank_blob_cold_starts_with_sidecar_not_panic() {
    let ckpt = tmp_dir("ckpt-corrupt");

    let mut killed = physics_spec(3);
    killed.checkpoint_dir = Some(ckpt.clone());
    killed.checkpoint_every = 3;
    run_experiment(&killed);

    // Flip a byte in the middle of rank 1's blob: the v2 checksum catches
    // it at load and the whole job cold-starts from the initial conditions.
    let blob_path = ckpt.join("step-000003").join("rank-0001.bin");
    let mut blob = std::fs::read(&blob_path).expect("blob written");
    let mid = blob.len() / 2;
    blob[mid] ^= 0x40;
    std::fs::write(&blob_path, &blob).unwrap();

    let mut resumed = physics_spec(6);
    resumed.restore_from = Some(ckpt.clone());
    let restored = run_experiment(&resumed);

    // Cold start == a plain six-step run from scratch.
    let fresh = run_experiment(&physics_spec(6));
    assert_eq!(
        restored.state_digest, fresh.state_digest,
        "a damaged checkpoint must cold-start, not half-restore"
    );
    assert!(
        ckpt.join("step-000003")
            .join("rank-0001.bin.corrupt")
            .exists(),
        "damaged blob moved aside for post-mortem"
    );
    assert!(!blob_path.exists(), "damaged blob no longer in place");

    let _ = std::fs::remove_dir_all(&ckpt);
}
