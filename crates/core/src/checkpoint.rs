//! Checkpoint/restart for long experiments.
//!
//! A checkpoint is a directory `step-NNNNNN/` under the spec's
//! `checkpoint_dir`, holding one `rank-NNNN.bin` particle snapshot per rank
//! (the versioned `sph::snapshot` codec) plus a `manifest.json` with the
//! integrator clocks, the SFC splits in force, the tuner's learned state,
//! and a hash of the spec's physics identity. Restoring from it continues
//! the run **bit-identically**: every field a step reads before writing is
//! in the snapshot, the splits make migration and halo traffic replay
//! exactly, and the warm tuner state reproduces the frequency schedule.
//!
//! Crash safety follows the `TableStore` discipline: every file is written
//! to a `*.tmp.<pid>` sibling and renamed into place, and the manifest is
//! written **last** — a directory without a manifest is an aborted write
//! and is ignored by [`latest_checkpoint`]. The `LATEST` pointer file is a
//! convenience for log-watchers and CI polling; discovery never trusts it
//! over the manifest scan.
//!
//! A corrupt or truncated rank snapshot is never fatal: the loader moves it
//! aside to `rank-NNNN.bin.corrupt`, warns, and the run cold-starts from
//! step 0 on every rank (the decision is made collectively so no rank
//! resumes alone).

use std::fs;
use std::path::{Path, PathBuf};

use online::{LearnedTable, ModelTable, WarmState};
use serde::{Deserialize, Serialize};
use sph::Particles;

use crate::runner::ExperimentSpec;

/// Manifest format version this build writes.
pub const MANIFEST_VERSION: u32 = 1;

/// Everything needed to continue a run besides the per-rank particle blobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    pub version: u32,
    /// Steps completed when the checkpoint was taken; the restored run
    /// resumes at this step index.
    pub step: u64,
    /// Simulation time and last dt as exact f64 bit patterns.
    pub time_bits: u64,
    pub dt_bits: u64,
    pub ranks: usize,
    /// Hash of the spec's physics identity ([`spec_hash`]); restoring under
    /// a spec with a different hash is refused.
    pub spec_hash: u64,
    pub workload: String,
    /// SFC splits in force at checkpoint time (absent for never-partitioned
    /// runs; restoring without them forces a full repartition).
    #[serde(default)]
    pub splits: Option<Vec<u64>>,
    /// Rank 0's learned per-kernel table at checkpoint time (the same
    /// payload the table store persists at end of run).
    #[serde(default)]
    pub learned_table: LearnedTable,
    /// Fitted predictive-model coefficients at checkpoint time.
    #[serde(default)]
    pub models: ModelTable,
}

impl Manifest {
    /// The tuner state the checkpoint carries.
    pub fn warm(&self) -> WarmState {
        WarmState {
            table: self.learned_table.clone(),
            models: self.models.clone(),
        }
    }
}

/// Hash of the spec fields that define the *physics identity* of a run:
/// restoring is legal exactly when these match. `steps` is deliberately
/// excluded — running to step 30, being killed at 10, and restoring with
/// `steps: 30` is the whole point — and so are measurement-side knobs
/// (traces, report dirs, table stores, power caps).
pub fn spec_hash(spec: &ExperimentSpec) -> u64 {
    #[derive(Serialize)]
    struct Identity {
        ranks: usize,
        workload: crate::runner::WorkloadKind,
        kernel: sph::Kernel,
        target_neighbors: usize,
        policy: String,
        faults: Option<faults::FaultProfile>,
        halo_overlap: bool,
        repart_skew_threshold: Option<u64>,
    }
    let identity = Identity {
        ranks: spec.ranks,
        workload: spec.workload,
        kernel: spec.kernel,
        target_neighbors: spec.target_neighbors,
        policy: spec.policy.label(),
        faults: spec.faults.clone(),
        halo_overlap: spec.halo_overlap,
        repart_skew_threshold: spec.repart_skew_threshold.map(f64::to_bits),
    };
    let body = serde_json::to_string(&identity).expect("spec identity serializes");
    sph::fnv1a(body.as_bytes())
}

/// Write `bytes` to `dest` atomically (tmp sibling + rename).
fn write_atomic(dest: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dest.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, bytes)?;
    if let Err(e) = fs::rename(&tmp, dest) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

fn step_dir_name(step: u64) -> String {
    format!("step-{step:06}")
}

fn rank_file_name(rank: usize) -> String {
    format!("rank-{rank:04}.bin")
}

/// Periodic checkpoint writer. All methods are called from inside rank
/// closures; the caller provides the barrier sequencing (rank 0 creates the
/// directory before anyone writes; the manifest is written after every rank
/// file is in place).
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
    every: u64,
    spec_hash: u64,
}

impl Checkpointer {
    pub fn new(dir: &Path, every: u64, spec_hash: u64) -> Self {
        Checkpointer {
            dir: dir.to_path_buf(),
            every: every.max(1),
            spec_hash,
        }
    }

    /// Whether a checkpoint is due after `completed_steps` steps.
    pub fn due(&self, completed_steps: u64) -> bool {
        completed_steps > 0 && completed_steps.is_multiple_of(self.every)
    }

    /// The physics-identity hash this checkpointer stamps into manifests.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    pub fn step_dir(&self, step: u64) -> PathBuf {
        self.dir.join(step_dir_name(step))
    }

    /// Phase 1 (rank 0 only, before the first barrier): create the step
    /// directory.
    pub fn prepare(&self, step: u64) {
        fs::create_dir_all(self.step_dir(step)).expect("create checkpoint step directory");
    }

    /// Phase 2 (every rank, between barriers): write this rank's snapshot.
    pub fn write_rank(&self, step: u64, rank: usize, snapshot: &[u8]) {
        let dest = self.step_dir(step).join(rank_file_name(rank));
        write_atomic(&dest, snapshot).expect("write rank snapshot");
    }

    /// Phase 3 (rank 0 only, after the second barrier): commit by writing
    /// the manifest, then repoint `LATEST`.
    pub fn commit(&self, manifest: &Manifest) {
        let body = serde_json::to_string_pretty(manifest).expect("manifest serializes");
        write_atomic(
            &self.step_dir(manifest.step).join("manifest.json"),
            body.as_bytes(),
        )
        .expect("write checkpoint manifest");
        write_atomic(
            &self.dir.join("LATEST"),
            step_dir_name(manifest.step).as_bytes(),
        )
        .expect("write LATEST pointer");
    }
}

/// Find the newest *committed* checkpoint (highest step with a readable
/// manifest) under `dir`. Directories without a manifest — aborted writes —
/// are skipped; the `LATEST` pointer is not trusted.
pub fn latest_checkpoint(dir: &Path) -> Option<PathBuf> {
    let entries = fs::read_dir(dir).ok()?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let Some(step_str) = name.to_str().and_then(|n| n.strip_prefix("step-")) else {
            continue;
        };
        let Ok(step) = step_str.parse::<u64>() else {
            continue;
        };
        if !path.join("manifest.json").is_file() {
            continue;
        }
        if best.as_ref().is_none_or(|(b, _)| step > *b) {
            best = Some((step, path));
        }
    }
    best.map(|(_, p)| p)
}

/// Load and validate a checkpoint's manifest.
pub fn load_manifest(checkpoint: &Path) -> Result<Manifest, String> {
    let path = checkpoint.join("manifest.json");
    let body =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let manifest: Manifest = serde_json::from_str(&body)
        .map_err(|e| format!("manifest {} is invalid: {e}", path.display()))?;
    if manifest.version == 0 || manifest.version > MANIFEST_VERSION {
        return Err(format!(
            "manifest version {} unsupported (this build reads 1..={MANIFEST_VERSION})",
            manifest.version
        ));
    }
    Ok(manifest)
}

/// A validated restore point: the manifest plus the directory the rank
/// blobs live in. Each rank loads its own blob from inside its closure.
#[derive(Debug, Clone)]
pub struct RestorePoint {
    pub dir: PathBuf,
    pub manifest: Manifest,
}

impl RestorePoint {
    /// Locate the newest committed checkpoint under `dir` and validate its
    /// manifest against the spec (physics-identity hash and rank count).
    pub fn discover(dir: &Path, spec: &ExperimentSpec) -> Result<Self, String> {
        let checkpoint = latest_checkpoint(dir)
            .ok_or_else(|| format!("no committed checkpoint found under {}", dir.display()))?;
        let manifest = load_manifest(&checkpoint)?;
        if manifest.ranks != spec.ranks {
            return Err(format!(
                "checkpoint {} was taken with {} ranks, spec has {}",
                checkpoint.display(),
                manifest.ranks,
                spec.ranks
            ));
        }
        let expect = spec_hash(spec);
        if manifest.spec_hash != expect {
            return Err(format!(
                "checkpoint {} belongs to a different experiment \
                 (spec hash {:#018x}, expected {:#018x}); refusing to mix physics",
                checkpoint.display(),
                manifest.spec_hash,
                expect
            ));
        }
        Ok(RestorePoint {
            dir: checkpoint,
            manifest,
        })
    }

    /// Decode this rank's particle snapshot. On a corrupt or truncated
    /// blob the file is moved aside to `*.corrupt` and an error describing
    /// the damage is returned — the caller cold-starts, never panics.
    pub fn rank_particles(&self, rank: usize) -> Result<Particles, String> {
        let path = self.dir.join(rank_file_name(rank));
        let bytes =
            fs::read(&path).map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
        match sph::decode_particles(&bytes) {
            Ok(parts) => Ok(parts),
            Err(detail) => {
                let aside = path.with_extension("bin.corrupt");
                let moved = fs::rename(&path, &aside).is_ok();
                Err(format!(
                    "snapshot {} is damaged ({detail}){}",
                    path.display(),
                    if moved {
                        format!("; moved aside to {}", aside.display())
                    } else {
                        String::new()
                    }
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FreqPolicy;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("freqscale-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn manifest(step: u64, spec: &ExperimentSpec) -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            step,
            time_bits: 0.5f64.to_bits(),
            dt_bits: 0.01f64.to_bits(),
            ranks: spec.ranks,
            spec_hash: spec_hash(spec),
            workload: spec.workload.name().to_string(),
            splits: Some(vec![0, u64::MAX]),
            learned_table: Default::default(),
            models: Default::default(),
        }
    }

    #[test]
    fn discovery_skips_uncommitted_directories() {
        let dir = tmpdir("discovery");
        let spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 10);
        let ck = Checkpointer::new(&dir, 5, spec_hash(&spec));

        assert!(latest_checkpoint(&dir).is_none(), "empty dir: nothing");

        // An aborted write: directory + rank file, no manifest.
        ck.prepare(10);
        ck.write_rank(10, 0, b"partial");
        assert!(latest_checkpoint(&dir).is_none(), "no manifest, no commit");

        // A committed earlier checkpoint wins over the aborted later one.
        ck.prepare(5);
        ck.write_rank(5, 0, b"whole");
        ck.commit(&manifest(5, &spec));
        assert_eq!(latest_checkpoint(&dir), Some(dir.join("step-000005")));

        // Committing the later one shifts discovery to it.
        ck.commit(&manifest(10, &spec));
        assert_eq!(latest_checkpoint(&dir), Some(dir.join("step-000010")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_hash_ignores_steps_but_not_physics() {
        let spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 10);
        let mut longer = spec.clone();
        longer.steps = 500;
        longer.collect_trace = true;
        longer.report_dir = Some(PathBuf::from("/tmp/elsewhere"));
        assert_eq!(
            spec_hash(&spec),
            spec_hash(&longer),
            "steps and measurement knobs are not physics"
        );

        let mut other = spec.clone();
        other.target_neighbors += 1;
        assert_ne!(spec_hash(&spec), spec_hash(&other));

        let mut reranked = spec.clone();
        reranked.ranks = 4;
        assert_ne!(spec_hash(&spec), spec_hash(&reranked));
    }

    #[test]
    fn mismatched_spec_is_refused_with_context() {
        let dir = tmpdir("mismatch");
        let spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 10);
        let ck = Checkpointer::new(&dir, 5, spec_hash(&spec));
        ck.prepare(5);
        ck.write_rank(5, 0, b"x");
        ck.commit(&manifest(5, &spec));

        let mut other = spec.clone();
        other.workload = crate::runner::WorkloadKind::Evrard { n_side: 8 };
        let err = RestorePoint::discover(&dir, &other).expect_err("must refuse");
        assert!(err.contains("different experiment"), "{err}");

        let mut reranked = spec.clone();
        reranked.ranks = 2;
        let err = RestorePoint::discover(&dir, &reranked).expect_err("must refuse");
        assert!(err.contains("ranks"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_rank_blob_is_moved_aside_not_fatal() {
        let dir = tmpdir("corrupt");
        let spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 10);
        let ck = Checkpointer::new(&dir, 5, spec_hash(&spec));
        ck.prepare(5);
        ck.write_rank(5, 0, b"this is not a snapshot");
        ck.commit(&manifest(5, &spec));

        let rp = RestorePoint::discover(&dir, &spec).expect("manifest fine");
        let err = rp.rank_particles(0).expect_err("blob is garbage");
        assert!(err.contains("damaged"), "{err}");
        assert!(
            dir.join("step-000005")
                .join("rank-0000.bin.corrupt")
                .is_file(),
            "damaged blob moved aside"
        );
        assert!(
            !dir.join("step-000005").join("rank-0000.bin").is_file(),
            "original gone"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn due_respects_interval() {
        let ck = Checkpointer::new(Path::new("/tmp/x"), 5, 0);
        assert!(!ck.due(0));
        assert!(!ck.due(4));
        assert!(ck.due(5));
        assert!(!ck.due(6));
        assert!(ck.due(10));
        // every = 0 is clamped to 1 (checkpoint after every step).
        let every_step = Checkpointer::new(Path::new("/tmp/x"), 0, 0);
        assert!(every_step.due(1));
    }
}
