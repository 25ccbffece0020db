//! Experiment orchestration: cluster + job lifecycle + instrumented ranks.
//!
//! `run_experiment` reproduces the paper's measurement setup end to end:
//! a Slurm-style job is "submitted" at t = 0, spends a setup phase
//! (allocation, IC construction, host→device copy) with idle GPUs, then runs
//! the instrumented time-stepping loop with one MPI rank per GPU/GCD. Slurm
//! accounts the whole job through pm_counters; PMT measures the loop only —
//! the §IV-A validation gap.
//!
//! Every run is two stages, each a world of rank threads, one after the
//! other, and they meet at two values. The physics stage reads one
//! `PhysicsKey`: it builds or restores the initial conditions, steps the
//! SPH, commits the checkpoints as it goes, and returns per rank a tape of
//! every call and every comm op, in a call or outside one. The device stage
//! learns what the physics did only from that tape: it replays it through
//! the spec's cluster, instruments, policy and faults, re-commits a
//! checkpoint whose tuner state it must add and closes the job. Specs
//! with equal keys ([`physics_groups`]) share one physics stage.

use std::path::PathBuf;

use archsim::{Cluster, MegaHertz, SimDuration, SimInstant, SystemSpec, Watts};
use nvml_shim::Nvml;
use online::{PowerCapCoordinator, StoredTable, TableStore, WarmState};
use pm_counters::PmCounters;
use ranks::{CommCost, CommOp, CommStats, RankCtx};
use serde::{Deserialize, Serialize};
use slurm_sim::{AccountingConfig, JobTimes, Slurm};
use sph::{
    evrard, kelvin_helmholtz, rotating_disk, sedov, sod, subsonic_turbulence, InitialConditions,
    Kernel, SimConfig, Simulation, StepTape, TapeRecorder,
};

use crate::checkpoint::{spec_hash, Checkpointer, Manifest, RestorePoint, MANIFEST_VERSION};
use crate::instrument::EnergyInstrument;
use crate::policy::{FreqPolicy, FreqTable};
use crate::report::{ExperimentResult, NodeBreakdown, RankReport};

/// CPU/DRAM activity during the setup phase (IC generation, H2D staging).
const SETUP_CPU_ACTIVITY: f64 = 0.50;
const SETUP_MEM_ACTIVITY: f64 = 0.40;
/// CPU/DRAM activity while the GPU-resident loop runs — the host mostly
/// idles, which is why Fig. 5's CPU energy is proportional to function time.
const LOOP_CPU_ACTIVITY: f64 = 0.22;
const LOOP_MEM_ACTIVITY: f64 = 0.30;

/// Which scenario-zoo workload to run (Table I pair + validation problems).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Subsonic turbulence (no gravity).
    Turbulence { n_side: usize, mach: f64, seed: u64 },
    /// Evrard collapse (with gravity).
    Evrard { n_side: usize },
    /// Sedov-Taylor blast (no gravity) — the strong-shock validation
    /// problem, usable as a third instrumented workload.
    Sedov { n_side: usize, e0: f64 },
    /// Kelvin–Helmholtz shear layer (no gravity, compute-heavy kernel mix).
    KelvinHelmholtz { n_side: usize, seed: u64 },
    /// Rotating self-gravitating disk (gravity-dominated kernel mix).
    RotatingDisk { n_side: usize },
    /// Sod shock tube (no gravity, memory-bound kernel mix).
    Sod { n_side: usize },
}

impl WorkloadKind {
    /// Construct the (global) initial model.
    pub fn build(&self) -> InitialConditions {
        match *self {
            WorkloadKind::Turbulence { n_side, mach, seed } => {
                subsonic_turbulence(n_side, mach, seed)
            }
            WorkloadKind::Evrard { n_side } => evrard(n_side),
            WorkloadKind::Sedov { n_side, e0 } => sedov(n_side, e0),
            WorkloadKind::KelvinHelmholtz { n_side, seed } => kelvin_helmholtz(n_side, seed),
            WorkloadKind::RotatingDisk { n_side } => rotating_disk(n_side),
            WorkloadKind::Sod { n_side } => sod(n_side),
        }
    }

    /// The requested lattice side and the smallest one this workload's
    /// `sph::ic` generator accepts.
    fn side_and_minimum(&self) -> (usize, usize) {
        use sph::ic;
        match *self {
            WorkloadKind::Turbulence { n_side, .. } => (n_side, ic::TURBULENCE_MIN_SIDE),
            WorkloadKind::Evrard { n_side } => (n_side, ic::EVRARD_MIN_SIDE),
            WorkloadKind::Sedov { n_side, .. } => (n_side, ic::SEDOV_MIN_SIDE),
            WorkloadKind::KelvinHelmholtz { n_side, .. } => (n_side, ic::KELVIN_HELMHOLTZ_MIN_SIDE),
            WorkloadKind::RotatingDisk { n_side } => (n_side, ic::ROTATING_DISK_MIN_SIDE),
            WorkloadKind::Sod { n_side } => (n_side, ic::SOD_MIN_SIDE),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Turbulence { .. } => "SubsonicTurbulence",
            WorkloadKind::Evrard { .. } => "EvrardCollapse",
            WorkloadKind::Sedov { .. } => "SedovBlast",
            WorkloadKind::KelvinHelmholtz { .. } => "KelvinHelmholtz",
            WorkloadKind::RotatingDisk { .. } => "RotatingDisk",
            WorkloadKind::Sod { .. } => "SodShockTube",
        }
    }
}

/// Everything one experiment needs. Serializable, so experiments can be
/// described as JSON spec files and run with the `freqscale-run` CLI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    pub system: SystemSpec,
    pub ranks: usize,
    pub workload: WorkloadKind,
    pub steps: usize,
    pub policy: FreqPolicy,
    /// Paper-scale particles per GPU assumed by the workload model
    /// (e.g. 150e6, 80e6, or 450³).
    pub target_particles_per_rank: f64,
    /// Job setup time before the loop starts.
    pub setup: SimDuration,
    pub comm: CommCost,
    pub kernel: Kernel,
    /// Laptop-scale neighbor target for the physics.
    pub target_neighbors: usize,
    /// Record rank 0's clock trace (Fig. 9).
    pub collect_trace: bool,
    /// Slurm-side `--gpu-freq` request, applied with scheduler privilege at
    /// allocation (the only frequency control on locked production systems,
    /// §II-B).
    pub slurm_gpu_freq: Option<archsim::MegaHertz>,
    /// Slurm-side `--cpu-freq` request in kHz (§II-B; ARCHER2-style centre
    /// defaults also come through this path).
    pub slurm_cpu_freq_khz: Option<u64>,
    /// When set, per-rank reports and the aggregate report are written here
    /// as JSON — §III-B's "gathered at the end of the execution and stored
    /// into a file for post-hoc analysis".
    pub report_dir: Option<std::path::PathBuf>,
    /// Total watt budget across all ranks' GPUs. When set, a
    /// [`PowerCapCoordinator`] splits it per rank, the per-rank device power
    /// limit is enforced on the hardware, and a learning policy's search is
    /// capped so it never explores rungs the limit would throttle.
    #[serde(default)]
    pub power_cap_w: Option<f64>,
    /// Directory of learned-table JSON files. A learning policy
    /// warm-starts from the [`WarmState`] stored for this (GPU, workload) —
    /// skipping exploration entirely, and for kernels with stored model
    /// coefficients even the probe phase — and persists whatever it learns
    /// at the end.
    #[serde(default)]
    pub table_store: Option<std::path::PathBuf>,
    /// Pin every GPU's memory clock to this P-state (MHz) for the whole
    /// run. Must be one of the device's supported memory clocks
    /// (`mem_clock_table`); [`ExperimentSpec::validate`] checks this before
    /// the run starts. `None` keeps the device default.
    #[serde(default)]
    pub memory_clock: Option<u32>,
    /// Deterministic fault-injection profile for chaos runs (see DESIGN.md
    /// "Fault model & resilience"). `None` or an all-zero profile runs
    /// fault-free; [`faults::FaultProfile::chaos`] is the standard mix. The
    /// schedule depends only on `(seed, channel, device)`, so a profile
    /// reproduces exactly across runs and worker counts.
    #[serde(default)]
    pub faults: Option<faults::FaultProfile>,
    /// Scenario-registry name (e.g. `"kelvin-helmholtz"`). When set, the
    /// concrete `workload` is replaced by the registry's default-parameter
    /// IC for that scenario via [`ExperimentSpec::resolve_scenario`]; an
    /// unknown name is a hard error listing the valid scenarios — never a
    /// silent fall-through to a default IC.
    #[serde(default)]
    pub scenario: Option<String>,
    /// When set, periodic checkpoints (particle snapshots + tuner state +
    /// SFC splits) are written here every `checkpoint_every` steps; see
    /// [`crate::checkpoint`].
    #[serde(default)]
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Steps between checkpoints. `0` (the default) means every 5 steps
    /// when `checkpoint_dir` is set.
    #[serde(default)]
    pub checkpoint_every: usize,
    /// Restore from the newest committed checkpoint under this directory
    /// and continue to `steps`. The checkpoint's spec hash and rank count
    /// must match; a damaged rank snapshot cold-starts instead.
    #[serde(default)]
    pub restore_from: Option<std::path::PathBuf>,
    /// Override the incremental-repartition skew threshold
    /// ([`SimConfig::repart_skew_threshold`], default 1.15). Values below
    /// 1.0 rebuild the partition every step (the pre-incremental behavior).
    #[serde(default)]
    pub repart_skew_threshold: Option<f64>,
    /// Overlap deferred halo-field communication with interior compute
    /// ([`SimConfig::halo_overlap`]); bit-identical on or off.
    #[serde(default = "default_halo_overlap")]
    pub halo_overlap: bool,
}

fn default_halo_overlap() -> bool {
    true
}

impl ExperimentSpec {
    /// A miniHPC single-GPU turbulence experiment at 450³ paper scale — the
    /// configuration of §IV-C/D/E.
    pub fn minihpc_turbulence(policy: FreqPolicy, steps: usize) -> Self {
        ExperimentSpec {
            system: archsim::mini_hpc(),
            ranks: 1,
            workload: WorkloadKind::Turbulence {
                n_side: 8,
                mach: 0.3,
                seed: 42,
            },
            steps,
            policy,
            target_particles_per_rank: 450.0f64.powi(3),
            setup: SimDuration::from_secs(2),
            comm: CommCost::default(),
            kernel: Kernel::CubicSpline,
            target_neighbors: 40,
            collect_trace: false,
            slurm_gpu_freq: None,
            slurm_cpu_freq_khz: None,
            report_dir: None,
            power_cap_w: None,
            table_store: None,
            memory_clock: None,
            faults: None,
            scenario: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            restore_from: None,
            repart_skew_threshold: None,
            halo_overlap: true,
        }
    }

    /// Resolve the optional `scenario` registry name into the concrete
    /// `workload`. A no-op when `scenario` is `None`; an error (listing the
    /// valid names) when the name is not in the registry. Every spec entry
    /// point — `freqscale-run`, the serving executor, the matrix generator —
    /// calls this before running.
    pub fn resolve_scenario(&mut self) -> Result<(), String> {
        let Some(name) = self.scenario.as_deref() else {
            return Ok(());
        };
        match crate::scenario::workload_for(name) {
            Some(w) => {
                self.workload = w;
                Ok(())
            }
            None => Err(format!(
                "unknown scenario {name:?} (valid scenarios: {})",
                crate::scenario::SCENARIOS.join(", ")
            )),
        }
    }

    /// Refuse a spec that parses but cannot run: everything here used to be
    /// a panic inside the runner or a rank thread. Every spec entry point —
    /// `freqscale-run`, `freqscale-matrix`, the serving executor — calls
    /// this (after [`ExperimentSpec::resolve_scenario`]) before any work.
    ///
    /// It checks the node, the run's sizes and bounds, the memory and Slurm
    /// clocks, the power cap, the fault profile, the tuner config, that
    /// `restore_from` holds a checkpoint this spec resumes
    /// ([`RestorePoint::discover`]), and last that `table_store`,
    /// `report_dir` and `checkpoint_dir` can be created (they stay) and
    /// written. Two specs sharing a checkpoint directory are a batch's
    /// error: [`shared_checkpoint_dir`].
    pub fn validate(&self) -> Result<(), String> {
        // An embedded system deserializes unchecked, and the node model
        // divides by its device counts and clocks from its tables.
        self.system
            .node
            .validate()
            .map_err(|e| format!("system {}: {e}", self.system.name))?;
        let target = self.target_particles_per_rank;
        if !(target.is_finite() && target > 0.0) {
            return Err(format!(
                "target_particles_per_rank must be finite and positive (got {target})"
            ));
        }
        if self.ranks == 0 {
            return Err("spec.ranks must be at least 1".to_string());
        }
        // A run of no step reports nothing but the setup's energy.
        if self.steps == 0 {
            return Err("spec.steps must be at least 1".to_string());
        }
        // Each step costs host time and one tape entry per rank, so an
        // unbounded count ties a serving worker up without end.
        if self.steps > MAX_STEPS {
            return Err(format!(
                "spec.steps must be at most {MAX_STEPS} (got {})",
                self.steps
            ));
        }
        // A rank world allocates a ranks² channel matrix before it starts a
        // thread (~700 B a pair: 183 MB at 512), and an allocation failure
        // aborts the process, which no `catch_unwind` contains.
        if self.ranks > MAX_RANKS {
            return Err(format!(
                "spec.ranks must be at most {MAX_RANKS} (got {})",
                self.ranks
            ));
        }
        let (n_side, min) = self.workload.side_and_minimum();
        if n_side < min {
            return Err(format!(
                "workload {}: n_side {n_side} is below the generator's minimum of {min}",
                self.workload.name()
            ));
        }
        // The generators allocate an n_side³ lattice before the run starts;
        // an allocation failure aborts the process like a huge rank world.
        if n_side > MAX_N_SIDE {
            return Err(format!(
                "workload {}: n_side must be at most {MAX_N_SIDE} (got {n_side})",
                self.workload.name()
            ));
        }
        // Each step grows every `h` by up to 1.25x toward the target, and the
        // neighbour list stores every pair inside the support, so a huge
        // target drives each row toward all n pairs.
        if self.target_neighbors > MAX_TARGET_NEIGHBORS {
            return Err(format!(
                "target_neighbors must be at most {MAX_TARGET_NEIGHBORS} (got {})",
                self.target_neighbors
            ));
        }
        // Virtual time costs host time: a three-year setup ran past 20 s
        // without finishing, and a 12-day latency was killed for its memory.
        // A latency near `u64::MAX` also wraps `CommCost::collective`'s
        // `latency * hops` into a cheaper message.
        if self.setup > MAX_SETUP {
            return Err(format!(
                "setup must be at most {} s (got {} s)",
                MAX_SETUP.as_secs_f64(),
                self.setup.as_secs_f64()
            ));
        }
        let comm = &self.comm;
        if comm.latency > MAX_COMM_LATENCY {
            return Err(format!(
                "comm.latency must be at most {} s (got {} s)",
                MAX_COMM_LATENCY.as_secs_f64(),
                comm.latency.as_secs_f64()
            ));
        }
        // A bandwidth that is not positive would make every transfer free
        // (`SimDuration::from_secs_f64` clamps to zero); infinity is the
        // deliberately free link of `CommCost::free`.
        if comm.bandwidth.is_nan() || comm.bandwidth <= 0.0 {
            return Err(format!(
                "comm.bandwidth must be positive bytes/s (got {})",
                comm.bandwidth
            ));
        }
        // A requested memory clock must be one of the device's P-states,
        // the way NVML rejects an unsupported memory clock at the
        // SetApplicationsClocks call.
        if let Some(m) = self.memory_clock {
            let gpu = &self.system.node.gpu;
            if !gpu.mem_clock_table.iter().any(|p| p.0 == m) {
                let supported: Vec<String> = gpu
                    .mem_clock_table
                    .iter()
                    .map(|p| p.0.to_string())
                    .collect();
                return Err(format!(
                    "memory clock {m} MHz is not a supported P-state on {} (supported: {} MHz)",
                    gpu.name,
                    supported.join(", ")
                ));
            }
        }
        // Slurm applies `--gpu-freq` before the job starts, and only a rung
        // of the device's ladder can be applied.
        if let Some(f) = self.slurm_gpu_freq {
            self.system.node.gpu.require_rung("slurm_gpu_freq", f)?;
        }
        // The coordinator must be able to split the budget over the demand a
        // cold run starts from; a warm-start table covers a subset of those
        // kernels, so it can only lower the floor.
        if let Some(w) = self.power_cap_w {
            let demand = match &self.policy {
                FreqPolicy::ManDyn(table) => table.clone(),
                _ => FreqTable::default(),
            };
            PowerCapCoordinator::new(self.system.node.gpu.clone(), Watts(w))
                .allocate(&vec![demand; self.ranks])
                .map_err(|e| format!("power_cap_w: {e}"))?;
        }
        if let Some(profile) = &self.faults {
            profile
                .validate()
                .map_err(|e| format!("fault profile: {e}"))?;
        }
        // A config the policy's tuner refuses (say `max_explore_launches:
        // 0`) parses fine; building the tuner once is the check.
        self.policy
            .tuner(&self.system.node.gpu)
            .map_err(|e| e.to_string())?;
        // `run_group` and the ranks panic on a restore point they cannot use.
        if let Some(dir) = &self.restore_from {
            RestorePoint::discover(dir, self)
                .map_err(|e| format!("restore_from {}: {e}", dir.display()))?;
        }
        // Last, so a spec refused above creates nothing: the run creates
        // these directories anyway, and one it cannot write would panic at
        // the start, at a checkpoint or after the whole run.
        for (field, dir) in [
            ("table_store", &self.table_store),
            ("report_dir", &self.report_dir),
            ("checkpoint_dir", &self.checkpoint_dir),
        ] {
            if let Some(dir) = dir {
                let probe = dir.join(format!(".probe.{}", std::process::id()));
                std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&probe, b""))
                    .map_err(|e| format!("{field} {}: not writable: {e}", dir.display()))?;
                // A concurrent probe of the same directory may be first.
                let _ = std::fs::remove_file(&probe);
            }
        }
        Ok(())
    }

    /// The key a run's learned table is stored under: the workload plus the
    /// paper-scale problem size (which determines every kernel's roofline
    /// position and therefore its sweet-spot clock).
    pub fn table_store_key(&self) -> String {
        format!(
            "{}-{:.0}",
            self.workload.name(),
            self.target_particles_per_rank
        )
    }
}

/// The largest rank world [`ExperimentSpec::validate`] accepts. The paper's
/// largest run is 96 GCDs.
const MAX_RANKS: usize = 512;

/// The largest lattice side [`ExperimentSpec::validate`] accepts: 128³ is
/// about 2.1 M particles.
const MAX_N_SIDE: usize = 128;

/// The largest `target_neighbors` [`ExperimentSpec::validate`] accepts;
/// every checked-in spec, exhibit and test asks for 30–60. A list stores at
/// most 2·(nn + 1) indices a particle (`bench::max_pairs`), so at
/// [`MAX_N_SIDE`] this allows 424 M pairs: 1.7 GB of 4-byte indices.
const MAX_TARGET_NEIGHBORS: usize = 100;

/// The most steps [`ExperimentSpec::validate`] accepts. The longest runs
/// anything asks for are `freqscale-matrix`'s 80-step cells, the
/// benchmark's 70-step served jobs, `extension_autotune`'s 48 steps and the
/// checked-in specs' 40; this leaves twelve times the largest.
pub(crate) const MAX_STEPS: usize = 1000;

/// The longest job setup [`ExperimentSpec::validate`] accepts: one hour.
const MAX_SETUP: SimDuration = SimDuration::from_secs(3600);

/// The largest per-hop message latency [`ExperimentSpec::validate`]
/// accepts: one second, half a million times the default 2 µs.
const MAX_COMM_LATENCY: SimDuration = SimDuration::from_secs(1);

/// Run the experiment and gather every measurement view.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResult {
    run_experiment_warm(spec, None)
}

/// Like [`run_experiment`], but with externally supplied warm-start state
/// taking precedence over the spec's own `table_store` directory.
///
/// This is the entry point the experiment service uses: its in-process table
/// server owns warm-start state (versioned, LRU-cached, single-flight), so a
/// served job receives it directly instead of re-reading JSON from disk.
/// Kernels covered by `external.models` pin straight from the analytic
/// model — not even a probe phase; the rest of `external.table` pins
/// through the search.
pub fn run_experiment_warm(
    spec: &ExperimentSpec,
    external: Option<&WarmState>,
) -> ExperimentResult {
    run_group(&[spec], external).remove(0)
}

/// What the physics ended with, and the comm counters its world left this
/// rank with, which the rank's device stage must reproduce.
pub(crate) struct Summary {
    digest: u64,
    repartitions: u64,
    migrated: u64,
    comm: CommStats,
}

/// One tape entry, in the order the physics produced them: every step, the
/// collectives it issued outside any call (the restore's agreement, the two
/// barriers around each checkpoint), and after each checkpoint's barriers
/// the manifest the physics stage committed, which carries no tuner state.
#[derive(Debug)]
pub(crate) enum Entry {
    Step(StepTape),
    Comm(Vec<CommOp>),
    Checkpoint(Manifest),
}

/// One rank's finished tape and the summary its physics ended with.
pub(crate) struct Tape {
    pub(crate) entries: Vec<Entry>,
    summary: Summary,
}

/// The spec's checkpoint writer, stamping its [`spec_hash`].
fn checkpointer(spec: &ExperimentSpec) -> Option<Checkpointer> {
    let (dir, every) = spec.physics_key().checkpoints?;
    Some(Checkpointer::new(&dir, every, spec_hash(spec)))
}

/// The body behind [`run_experiment_warm`] and every group of
/// [`run_experiments`]: one physics stage for the group, which shares one
/// [`PhysicsKey`], then one device stage per spec over its finished tapes,
/// in order.
fn run_group(specs: &[&ExperimentSpec], external: Option<&WarmState>) -> Vec<ExperimentResult> {
    let lead = specs[0];
    // Every manifest is validated up front (`ExperimentSpec::validate` has
    // turned a mismatch into an error; a caller that skipped it gets the
    // panic), so each member resumes from the checkpoint the physics restores.
    let restores: Vec<Option<RestorePoint>> = specs
        .iter()
        .map(|spec| {
            spec.restore_from.as_ref().map(|dir| {
                RestorePoint::discover(dir, spec).unwrap_or_else(|e| panic!("cannot restore: {e}"))
            })
        })
        .collect();
    let key = lead.physics_key();
    let tapes = {
        let _sp = stage_span("physics", lead);
        physics_stage(&key, checkpointer(lead).as_ref(), restores[0].as_ref())
    };
    specs
        .iter()
        .zip(&restores)
        .map(|(spec, restore)| device_stage(spec, external, restore.as_ref(), &tapes))
        .collect()
}

/// One wall-clock span per stage, labelled with the spec it runs for.
fn stage_span(name: &'static str, spec: &ExperimentSpec) -> telemetry::SpanGuard {
    let mut sp = telemetry::span_start("run", name);
    if sp.is_active() {
        sp.field("workload", spec.workload.name());
        sp.field("policy", spec.policy.label());
    }
    sp
}

/// Stage 1: build (or restore) the initial conditions, step the SPH, commit
/// the checkpoints, and return each rank's tape, in rank order. It reads
/// the key and nothing else. No device, no clock that anything reads: its
/// rank threads record on `physics-N` wall-clock tracks.
pub(crate) fn physics_stage(
    key: &PhysicsKey,
    checkpointer: Option<&Checkpointer>,
    restore: Option<&RestorePoint>,
) -> Vec<Tape> {
    // Nothing reads the recorder's workloads or this world's clocks, so the
    // paper-scale target and the comm cost are fixed values.
    let sim_cfg = SimConfig {
        kernel: key.kernel,
        target_neighbors: key.target_neighbors,
        bucket_size: 32,
        repart_skew_threshold: key.repart_skew_threshold,
        halo_overlap: key.halo_overlap,
        ..SimConfig::default()
    };
    ranks::run(key.ranks, CommCost::default(), |ctx| {
        telemetry::set_wall_track(format!("physics-{}", ctx.rank()));
        let mut tape = Vec::new();
        let ic = key.workload.build();
        let mut sim = if ctx.size() == 1 {
            Simulation::new(ic, sim_cfg)
        } else {
            Simulation::distribute(ic, sim_cfg, ctx.rank(), ctx.size())
        };
        // Restore is collective: every rank loads its own blob, then the
        // ranks agree (allreduce Min over ok flags) — one damaged blob makes
        // the whole job cold-start, never a half-restored mix.
        if let Some(rp) = restore {
            let loaded = match rp.rank_particles(ctx.rank()) {
                Ok(parts) => Some(parts),
                Err(e) => {
                    eprintln!("warning: rank {}: {e}; cold-starting", ctx.rank());
                    None
                }
            };
            ctx.start_comm_log();
            let everywhere = ctx.allreduce_u64(loaded.is_some() as u64, ranks::Op::Min);
            tape.push(Entry::Comm(ctx.take_comm_log()));
            if everywhere == 1 {
                if let Some(splits) = &rp.manifest.splits {
                    sim.set_assignment_splits(splits.clone());
                }
                sim.restore_snapshot(
                    loaded.expect("all ranks loaded"),
                    rp.manifest.step,
                    rp.manifest.time_bits,
                    rp.manifest.dt_bits,
                );
            }
        }
        let (mut repartitions, mut migrated) = (0u64, 0u64);
        while sim.step_index() < key.steps as u64 {
            let mut rec = TapeRecorder::new(&sim);
            let stats = sim.step(ctx, &mut rec);
            tape.push(Entry::Step(rec.finish()));
            repartitions += stats.repartitioned as u64;
            migrated += stats.migrated;
            let step = sim.step_index();
            if let Some(ck) = checkpointer.filter(|ck| ck.due(step)) {
                // Rank 0 creates the directory before anyone writes, and
                // commits the manifest once every blob has landed, so the
                // checkpoint is restorable while the physics runs on. Its
                // tuner state is empty until a device stage re-commits it.
                ctx.start_comm_log();
                if ctx.rank() == 0 {
                    ck.prepare(step);
                }
                ctx.barrier();
                ck.write_rank(step, ctx.rank(), &sim.capture_snapshot());
                ctx.barrier();
                tape.push(Entry::Comm(ctx.take_comm_log()));
                let manifest = Manifest {
                    version: MANIFEST_VERSION,
                    step,
                    time_bits: sim.time().to_bits(),
                    dt_bits: sim.dt().to_bits(),
                    ranks: ctx.size(),
                    spec_hash: ck.spec_hash(),
                    workload: format!("{:?}", key.workload),
                    splits: sim.assignment_splits().map(<[u64]>::to_vec),
                    learned_table: Default::default(),
                    models: Default::default(),
                };
                if ctx.rank() == 0 {
                    ck.commit(&manifest);
                }
                tape.push(Entry::Checkpoint(manifest));
            }
        }
        let summary = Summary {
            digest: sim.state_digest(),
            repartitions,
            migrated,
            comm: ctx.comm_stats(),
        };
        Tape {
            entries: tape,
            summary,
        }
    })
}

/// Stage 2: one spec's cluster, instrument, policy and faults driven through
/// the group's tapes, then the job's close — Slurm, node breakdowns, CPU
/// attribution, the table store and the report files. No particles.
fn device_stage(
    spec: &ExperimentSpec,
    external: Option<&WarmState>,
    restore: Option<&RestorePoint>,
    tapes: &[Tape],
) -> ExperimentResult {
    let _sp = stage_span("devices", spec);
    let cluster = Cluster::for_ranks(spec.system.clone(), spec.ranks);
    let setup_end = SimInstant::ZERO + spec.setup;

    // Slurm applies a requested --gpu-freq with scheduler privilege before
    // the job starts, regardless of user-level clock-control policy. Spec
    // entry points have already checked it against the ladder.
    if let Some(f) = spec.slurm_gpu_freq {
        for node in cluster.nodes() {
            node.privileged_set_gpu_clocks(f)
                .expect("requested --gpu-freq must be on the device ladder");
        }
    }
    if let Some(khz) = spec.slurm_cpu_freq_khz {
        for node in cluster.nodes() {
            node.cpu().lock().set_frequency_khz(khz);
        }
    }
    // A requested memory P-state applies before the injector is installed,
    // like --gpu-freq: scheduler-side setup is never perturbed. Spec entry
    // points validate the value against the device table up front, so a
    // failure here means a programmatic spec skipped validation.
    if let Some(mem) = spec.memory_clock {
        for node in cluster.nodes() {
            for gpu in node.gpus() {
                gpu.lock()
                    .set_memory_clock(MegaHertz(mem))
                    .expect("requested memory clock must be a supported P-state");
            }
        }
    }

    // Chaos harness: one injector for the whole run, installed after the
    // privileged --gpu-freq so scheduler-side setup is never perturbed.
    // Device ids are global GPU indices; rank-side channels use rank ids.
    let injector = {
        let profile = spec.faults.clone().unwrap_or_default();
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid fault profile: {e}"));
        faults::FaultInjector::new(profile)
    };
    if injector.is_active() {
        let mut global_dev = 0u64;
        for node in cluster.nodes() {
            for gpu in node.gpus() {
                gpu.lock().set_fault_handle(injector.device(global_dev));
                global_dev += 1;
            }
        }
    }

    // --- setup phase: GPUs idle, host busy staging -----------------------
    for node in cluster.nodes() {
        node.settle_until(setup_end, SETUP_CPU_ACTIVITY, SETUP_MEM_ACTIVITY);
    }

    // --- learning policies: warm state + power-cap allocation ------------
    // Spec entry points have already turned a refused tuner config into a
    // clean error; a programmatic caller gets the panic here, not in a rank.
    let learns = spec
        .policy
        .tuner(&spec.system.node.gpu)
        .unwrap_or_else(|e| panic!("invalid policy: {e}"))
        .is_some();
    let store = spec
        .table_store
        .as_ref()
        .map(|dir| TableStore::open(dir).expect("table store directory is usable"));
    let gpu_name = spec.system.node.gpu.name.clone();
    let store_key = spec.table_store_key();
    // A corrupt or truncated store entry must cost one cold-start
    // exploration, never a crash: `load_or_rebuild` warns, moves the bad
    // file aside and returns `None`.
    let mut warm: Option<WarmState> = match (external, &store) {
        _ if !learns => None,
        (Some(w), _) => Some(w.clone()),
        (None, Some(s)) => s
            .load_or_rebuild(&gpu_name, &store_key)
            .map(StoredTable::warm),
        (None, None) => None,
    };

    // A checkpoint's tuner state warm-starts the restored run exactly like
    // a table-store entry would, overriding store/external warm state (a
    // checkpoint taken before anything pinned overrides nothing).
    if let Some(rp) = restore {
        let ckpt = rp.manifest.warm();
        let w = warm.get_or_insert_with(WarmState::default);
        if !ckpt.table.is_empty() {
            w.table = ckpt.table;
        }
        if !ckpt.models.is_empty() {
            w.models = ckpt.models;
        }
    }
    let checkpointer = checkpointer(spec);

    // One (device budget, clock ceiling) per rank. The budget is enforced on
    // the device; the ceiling keeps an online search out of throttled rungs.
    // Spec entry points have already checked that the budget splits.
    let power_allocs: Option<Vec<(Watts, MegaHertz)>> = spec.power_cap_w.map(|w| {
        let coord = PowerCapCoordinator::new(spec.system.node.gpu.clone(), Watts(w));
        let demand: FreqTable = match &spec.policy {
            FreqPolicy::ManDyn(table) => table.clone(),
            _ => warm.as_ref().map(|w| w.table.clone()).unwrap_or_default(),
        };
        let demands = vec![demand; spec.ranks];
        coord
            .allocate(&demands)
            .expect("power budget feasible at the ladder floor")
            .into_iter()
            .map(|a| (a.budget, coord.freq_ceiling(a.budget, &a.table)))
            .collect()
    });

    // --- instrumented replay, one rank per GPU ---------------------------
    let attach = |ctx: &RankCtx| {
        let (node_idx, _dev_idx) = cluster.place_rank(ctx.rank());
        let nvml = Nvml::init_for_node(&cluster.nodes()[node_idx]);
        let mut inst = EnergyInstrument::new(&nvml, ctx.rank(), spec.policy.clone())
            .expect("rank binds to a device");
        if spec.collect_trace && ctx.rank() == 0 {
            inst = inst.with_freq_trace();
        }
        if let Some(warm) = &warm {
            inst = inst.with_warm(warm);
        }
        if let Some(allocs) = &power_allocs {
            let (budget, ceiling) = allocs[ctx.rank()];
            inst = inst.with_power_cap(budget, ceiling);
        }
        inst
    };
    let outputs: Vec<(RankReport, u64)> = ranks::run(spec.ranks, spec.comm, |ctx| {
        if injector.is_active() {
            // Straggler stalls key on the rank id, not the GPU id, so the
            // schedule survives re-binding ranks to different devices.
            ctx.install_faults(injector.device(ctx.rank() as u64));
        }
        ctx.advance_to(setup_end);
        let mut inst = attach(ctx);
        let target = spec.target_particles_per_rank;
        let tape = &tapes[ctx.rank()];
        for entry in &tape.entries {
            match entry {
                Entry::Step(step) => sph::replay_step(ctx, &mut inst, target, step),
                Entry::Comm(ops) => ops.iter().for_each(|&op| ctx.replay(op)),
                Entry::Checkpoint(manifest) => {
                    // Re-commit the physics stage's manifest only to add
                    // this spec's tuner state at this step.
                    if ctx.rank() == 0 {
                        let ck = checkpointer
                            .as_ref()
                            .expect("a checkpoint entry implies a checkpoint_dir");
                        let WarmState { table, models } = inst.learned();
                        let learned = Manifest {
                            spec_hash: ck.spec_hash(),
                            learned_table: table,
                            models,
                            ..manifest.clone()
                        };
                        if learned != *manifest {
                            ck.commit(&learned);
                        }
                    }
                }
            }
        }
        // Every op the physics issued was issued again here, in its place.
        debug_assert_eq!(ctx.comm_stats(), tape.summary.comm, "rank {}", ctx.rank());
        let end_ns = ctx.now().as_nanos();
        (inst.finish(ctx), end_ns)
    });

    let global_end = SimInstant::from_nanos(
        outputs
            .iter()
            .map(|&(_, end_ns)| end_ns)
            .max()
            .expect("at least one rank"),
    )
    .max(setup_end);

    // --- close every node's timeline at the common end -------------------
    for node in cluster.nodes() {
        node.settle_until(global_end, LOOP_CPU_ACTIVITY, LOOP_MEM_ACTIVITY);
    }

    // --- node breakdowns over the loop window (exact integrals) ----------
    let per_node: Vec<NodeBreakdown> = cluster
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| NodeBreakdown {
            node: i,
            gpu_j: node.gpu_energy(setup_end, global_end).0,
            cpu_j: node.cpu_energy(setup_end, global_end).0,
            mem_j: node.memory_energy(setup_end, global_end).0,
            other_j: node.aux_energy(setup_end, global_end).0,
        })
        .collect();

    // --- Slurm view: whole job, 10 Hz counters ---------------------------
    let counters: Vec<PmCounters> = cluster.nodes().iter().map(PmCounters::attach).collect();
    let mut slurm = Slurm::new(AccountingConfig::default());
    let job_id = slurm.record(
        format!("{}-{}", spec.workload.name(), spec.policy.label()),
        JobTimes {
            submit: SimInstant::ZERO,
            loop_start: setup_end,
            end: global_end,
        },
        counters,
    );
    let slurm_consumed_j = slurm
        .sacct()
        .iter()
        .find(|r| r.job_id == job_id)
        .and_then(|r| r.consumed_energy_j)
        .expect("energy TRES enabled");

    // Rank-order digest-of-digests: equal values on two runs mean every
    // rank's carried state (and the clocks) matched bit for bit.
    let state_digest = {
        let mut bytes = Vec::with_capacity(tapes.len() * 8);
        for tape in tapes {
            bytes.extend_from_slice(&tape.summary.digest.to_le_bytes());
        }
        sph::fnv1a(&bytes)
    };
    // Repartition count is a collective decision (every rank agrees), and
    // migration counts are already allreduced inside the step — rank 0's
    // totals are the job's totals.
    let totals = &tapes[0].summary;
    let mut per_rank: Vec<RankReport> = outputs.into_iter().map(|(report, _)| report).collect();

    // Post-hoc CPU attribution: the host package draws near-constant power
    // during the GPU-resident loop, so each function's CPU energy is its
    // duration times the rank's share of the node's average CPU power.
    let loop_s = (global_end - setup_end).as_secs_f64();
    if loop_s > 0.0 {
        let ranks_per_node = spec.system.node.gpu_devices as usize;
        for report in &mut per_rank {
            let (node_idx, _) = cluster.place_rank(report.rank);
            let node_cpu_w = per_node[node_idx].cpu_j / loop_s;
            let ranks_on_node =
                ((spec.ranks - node_idx * ranks_per_node).min(ranks_per_node)).max(1) as f64;
            for f in report.functions.values_mut() {
                f.cpu_j = f.time_s * node_cpu_w / ranks_on_node;
            }
        }
    }
    // Persist what the tuner learned — pinned clocks and any fitted
    // coefficients — so the next run of the same (GPU, workload)
    // warm-starts with zero exploration launches.
    if let Some(s) = &store {
        let learned = per_rank[0].warm_state();
        if !learned.table.is_empty() || !learned.models.is_empty() {
            s.save_warm(&gpu_name, &store_key, &learned)
                .expect("persist learned state");
        }
    }

    let pmt_gpu_j: f64 = per_rank.iter().map(|r| r.gpu_loop_j).sum();
    let pmt_total_j: f64 = pmt_gpu_j + per_node.iter().map(|n| n.cpu_j + n.mem_j).sum::<f64>();
    let node_loop_j: f64 = per_node.iter().map(NodeBreakdown::total_j).sum();

    let result = ExperimentResult {
        system: spec.system.name.clone(),
        workload: spec.workload.name().to_string(),
        policy: spec.policy.label(),
        ranks: spec.ranks,
        steps: spec.steps,
        time_to_solution_s: (global_end - setup_end).as_secs_f64(),
        job_elapsed_s: (global_end - SimInstant::ZERO).as_secs_f64(),
        per_rank,
        per_node,
        pmt_gpu_j,
        pmt_total_j,
        slurm_consumed_j,
        node_loop_j,
        fault_stats: injector.stats(),
        state_digest,
        repartitions: totals.repartitions,
        migrated_particles: totals.migrated,
    };

    if let Some(dir) = &spec.report_dir {
        std::fs::create_dir_all(dir).expect("create report directory");
        for rank in &result.per_rank {
            let body = serde_json::to_string_pretty(rank).expect("rank report serializes");
            std::fs::write(dir.join(format!("rank-{:04}.json", rank.rank)), body)
                .expect("write rank report");
        }
        std::fs::write(dir.join("experiment.json"), result.to_json())
            .expect("write experiment report");
        std::fs::write(dir.join("functions.csv"), result.functions_csv())
            .expect("write function CSV");
    }

    result
}

/// Everything [`physics_stage`] reads, so everything else — system, policy,
/// paper-scale target, comm cost, faults, setup, clocks, report files —
/// reaches only the device stage. Specs with equal keys share one physics
/// stage ([`physics_groups`]); a checkpoint's [`spec_hash`] covers the
/// serialized fields, all but the step count and the directories.
#[derive(PartialEq, Serialize)]
pub(crate) struct PhysicsKey {
    workload: WorkloadKind,
    ranks: usize,
    kernel: Kernel,
    target_neighbors: usize,
    /// [`SimConfig`]'s default when the spec gives none.
    repart_skew_threshold: f64,
    halo_overlap: bool,
    #[serde(skip)]
    steps: usize,
    /// The checkpoint directory and interval (`checkpoint_every` 0 is 5).
    #[serde(skip)]
    checkpoints: Option<(PathBuf, u64)>,
    #[serde(skip)]
    restore_from: Option<PathBuf>,
}

impl ExperimentSpec {
    /// The [`PhysicsKey`] of this spec.
    pub(crate) fn physics_key(&self) -> PhysicsKey {
        let every = match self.checkpoint_every {
            0 => 5,
            n => n as u64,
        };
        PhysicsKey {
            workload: self.workload,
            ranks: self.ranks,
            kernel: self.kernel,
            target_neighbors: self.target_neighbors,
            repart_skew_threshold: self
                .repart_skew_threshold
                .unwrap_or_else(|| SimConfig::default().repart_skew_threshold),
            halo_overlap: self.halo_overlap,
            steps: self.steps,
            checkpoints: self.checkpoint_dir.clone().map(|dir| (dir, every)),
            restore_from: self.restore_from.clone(),
        }
    }
}

/// Whether a spec reads and writes a file a group-mate's run could also
/// read and write: a table store is loaded at the start of a run and saved
/// at its end, so such a spec runs alone.
fn has_side_effects(spec: &ExperimentSpec) -> bool {
    spec.table_store.is_some()
}

/// Indices of `specs` grouped by equal `PhysicsKey`s, in order of each
/// group's first spec. A spec with a table store is a group of one.
pub fn physics_groups(specs: &[ExperimentSpec]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let key = spec.physics_key();
        let mate = groups.iter_mut().find(|g| {
            let first = &specs[g[0]];
            !has_side_effects(spec) && !has_side_effects(first) && first.physics_key() == key
        });
        match mate {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// The first two specs, by index, whose `checkpoint_dir`s are one directory
/// once canonicalized: their blobs would tear each other, or one's device
/// stage would re-commit the other's manifests under its own spec hash.
pub fn shared_checkpoint_dir(specs: &[ExperimentSpec]) -> Option<(usize, usize)> {
    let mut seen: Vec<(PathBuf, usize)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if let Some(dir) = &spec.checkpoint_dir {
            let canonical = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.clone());
            if let Some(&(_, first)) = seen.iter().find(|(d, _)| *d == canonical) {
                return Some((first, i));
            }
            seen.push((canonical, i));
        }
    }
    None
}

/// Run several experiments, at most `jobs` groups at a time (`0` means the
/// `par` layer's default worker count), and return the results in spec
/// order. Every result is identical to what [`run_experiment`] returns for
/// that spec alone.
///
/// Specs with equal physics inputs ([`physics_groups`]) share one physics
/// stage (see the module docs) and replay its tapes one after another:
/// clock policy and device change the virtual timeline, never the
/// particles, so each replay reports what any other would.
///
/// Groups run concurrently and independently, unless a spec names a
/// `table_store`: then they run one at a time, in spec order, whatever
/// `jobs` says, so a later spec warm-starts from what an earlier one saved.
/// The groups share the machine: their data-parallel sweeps split `par`'s
/// worker count between the jobs (see [`par::par_map_threads`]).
///
/// Panics, before any stage runs, on two specs that share a checkpoint
/// directory ([`shared_checkpoint_dir`]).
pub fn run_experiments(specs: &[ExperimentSpec], jobs: usize) -> Vec<ExperimentResult> {
    if let Some((a, b)) = shared_checkpoint_dir(specs) {
        let dir = specs[b].checkpoint_dir.as_ref().expect("a shared dir");
        panic!("specs {a} and {b} both checkpoint to {}", dir.display());
    }
    let threads = match jobs {
        _ if specs.iter().any(has_side_effects) => 1,
        0 => par::max_threads(),
        n => n,
    };
    let groups = physics_groups(specs);
    let per_group = par::par_map_threads(threads, groups.len(), |g| {
        let members: Vec<&ExperimentSpec> = groups[g].iter().map(|&i| &specs[i]).collect();
        run_group(&members, None)
    });
    let mut ordered: Vec<Option<ExperimentResult>> = specs.iter().map(|_| None).collect();
    for (group, results) in groups.iter().zip(per_group) {
        for (&i, result) in group.iter().zip(results) {
            ordered[i] = Some(result);
        }
    }
    ordered
        .into_iter()
        .map(|r| r.expect("every spec is in one group"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::MegaHertz;

    fn quick(policy: FreqPolicy) -> ExperimentResult {
        let mut spec = ExperimentSpec::minihpc_turbulence(policy, 2);
        spec.workload = WorkloadKind::Turbulence {
            n_side: 6,
            mach: 0.3,
            seed: 1,
        };
        spec.target_neighbors = 30;
        run_experiment(&spec)
    }

    #[test]
    fn validate_bounds_the_rank_world() {
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 1);
        spec.ranks = MAX_RANKS;
        assert_eq!(spec.validate(), Ok(()), "{MAX_RANKS} ranks");
        spec.ranks = MAX_RANKS + 1;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("at most 512"), "{err}");
    }

    #[test]
    fn validate_holds_each_workload_to_its_generators_minimum() {
        let kinds: [fn(usize) -> WorkloadKind; 6] = [
            |n_side| WorkloadKind::Turbulence {
                n_side,
                mach: 0.3,
                seed: 1,
            },
            |n_side| WorkloadKind::Evrard { n_side },
            |n_side| WorkloadKind::Sedov { n_side, e0: 1.0 },
            |n_side| WorkloadKind::KelvinHelmholtz { n_side, seed: 1 },
            |n_side| WorkloadKind::RotatingDisk { n_side },
            |n_side| WorkloadKind::Sod { n_side },
        ];
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 1);
        for at in kinds {
            let (_, min) = at(0).side_and_minimum();
            let name = at(min).name();
            spec.workload = at(min);
            assert_eq!(spec.validate(), Ok(()), "{name} at {min}");
            assert!(!at(min).build().parts.is_empty(), "{name} builds at {min}");
            spec.workload = at(min - 1);
            let err = spec.validate().unwrap_err();
            assert!(err.contains(name) && err.contains("minimum"), "{err}");
        }
        spec.workload = kinds[0](8);
        spec.ranks = 0;
        assert!(spec.validate().unwrap_err().contains("ranks"));
    }

    #[test]
    fn validate_bounds_the_step_count() {
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, MAX_STEPS);
        assert_eq!(spec.validate(), Ok(()), "{MAX_STEPS} steps");
        spec.steps = MAX_STEPS + 1;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("steps must be at most 1000"), "{err}");
    }

    #[test]
    fn validate_bounds_the_lattice_side() {
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 1);
        let turbulence = |n_side| WorkloadKind::Turbulence {
            n_side,
            mach: 0.3,
            seed: 1,
        };
        spec.workload = turbulence(MAX_N_SIDE);
        assert_eq!(spec.validate(), Ok(()), "n_side {MAX_N_SIDE}");
        spec.workload = turbulence(MAX_N_SIDE + 1);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("n_side must be at most 128"), "{err}");
    }

    #[test]
    fn validate_checks_the_checkpoint_dir_and_the_restore_point() {
        let tmp = std::env::temp_dir().join(format!("freqscale-spec-paths-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).unwrap();
        let file = tmp.join("file");
        std::fs::write(&file, b"").unwrap();
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 1);
        spec.workload = WorkloadKind::Turbulence {
            n_side: 6,
            mach: 0.3,
            seed: 1,
        };
        spec.target_neighbors = 30;
        // A directory under a regular file cannot be created.
        let under = file.join("ckpt");
        let err = ExperimentSpec {
            checkpoint_dir: Some(under.clone()),
            ..spec.clone()
        }
        .validate()
        .unwrap_err();
        let want = format!("checkpoint_dir {}: not writable: ", under.display());
        assert!(err.starts_with(&want), "{err}");
        // A restore point that is not there, or that another spec committed.
        let ckpt = tmp.join("ckpt");
        let restore = |spec: &ExperimentSpec| ExperimentSpec {
            restore_from: Some(ckpt.clone()),
            ..spec.clone()
        };
        let err = restore(&spec).validate().unwrap_err();
        assert!(err.contains("no committed checkpoint"), "{err}");
        run_experiment(&ExperimentSpec {
            checkpoint_dir: Some(ckpt.clone()),
            checkpoint_every: 1,
            ..spec.clone()
        });
        assert_eq!(restore(&spec).validate(), Ok(()));
        let other = ExperimentSpec {
            target_neighbors: 32,
            ..spec.clone()
        };
        let err = restore(&other).validate().unwrap_err();
        assert!(err.contains("different experiment"), "{err}");
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn run_experiments_refuses_two_specs_sharing_a_checkpoint_dir() {
        let dir =
            std::env::temp_dir().join(format!("freqscale-shared-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Two spellings of one directory, around a spec that names none.
        let spelled = dir.join("..").join(dir.file_name().unwrap());
        let spec = ExperimentSpec {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 1)
        };
        let specs = [
            spec.clone(),
            ExperimentSpec {
                checkpoint_dir: None,
                ..spec.clone()
            },
            ExperimentSpec {
                checkpoint_dir: Some(spelled.clone()),
                steps: 2,
                ..spec
            },
        ];
        assert_eq!(shared_checkpoint_dir(&specs), Some((0, 2)));
        assert_eq!(shared_checkpoint_dir(&specs[..2]), None);
        let panic = std::panic::catch_unwind(|| run_experiments(&specs, 2)).unwrap_err();
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some(&*format!(
                "specs 0 and 2 both checkpoint to {}",
                spelled.display()
            ))
        );
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "no checkpoint may be written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_device_stage_that_learns_nothing_writes_no_checkpoint_file() {
        let dir = std::env::temp_dir().join(format!("freqscale-one-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = ExperimentSpec {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            ..ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 6)
        };
        spec.workload = WorkloadKind::Turbulence {
            n_side: 8,
            mach: 0.3,
            seed: 7,
        };
        spec.target_neighbors = 30;
        spec.ranks = 2;
        let tapes = physics_stage(&spec.physics_key(), checkpointer(&spec).as_ref(), None);
        for step in [2, 4, 6] {
            let manifest = dir.join(format!("step-{step:06}")).join("manifest.json");
            std::fs::remove_file(manifest).expect("the physics stage committed it");
        }
        device_stage(&spec, None, None, &tapes);
        // Left: the three step directories, each holding the two blobs and
        // no manifest, pointer or temporary file.
        let list = |dir: &std::path::Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(list(&dir), ["step-000002", "step-000004", "step-000006"]);
        for step in list(&dir) {
            assert_eq!(list(&dir.join(step)), ["rank-0000.bin", "rank-0001.bin"]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_bounds_target_neighbors() {
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 1);
        spec.target_neighbors = MAX_TARGET_NEIGHBORS;
        assert_eq!(spec.validate(), Ok(()), "{MAX_TARGET_NEIGHBORS} neighbours");
        spec.target_neighbors = MAX_TARGET_NEIGHBORS + 1;
        let err = spec.validate().unwrap_err();
        assert!(
            err.contains("target_neighbors must be at most 100"),
            "{err}"
        );
    }

    #[test]
    fn validate_bounds_setup_and_comm() {
        let spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 1);
        let check = |edit: &dyn Fn(&mut ExperimentSpec)| {
            let mut s = spec.clone();
            edit(&mut s);
            s.validate()
        };
        let ns = SimDuration::from_nanos;
        assert_eq!(
            check(&|s| s.setup = MAX_SETUP),
            Ok(()),
            "setup at the bound"
        );
        let err = check(&|s| s.setup = MAX_SETUP + ns(1)).unwrap_err();
        assert!(err.contains("setup must be at most 3600 s"), "{err}");
        assert_eq!(check(&|s| s.comm.latency = MAX_COMM_LATENCY), Ok(()));
        for latency in [MAX_COMM_LATENCY + ns(1), ns(u64::MAX)] {
            let err = check(&|s| s.comm.latency = latency).unwrap_err();
            assert!(err.contains("comm.latency must be at most 1 s"), "{err}");
        }
        assert_eq!(
            check(&|s| s.comm = CommCost::free()),
            Ok(()),
            "an infinite link"
        );
        assert_eq!(check(&|s| s.comm.bandwidth = f64::MIN_POSITIVE), Ok(()));
        for bandwidth in [0.0, -0.0, -25e9, f64::NEG_INFINITY, f64::NAN] {
            let err = check(&|s| s.comm.bandwidth = bandwidth).unwrap_err();
            assert!(
                err.contains("comm.bandwidth must be positive"),
                "{bandwidth}: {err}"
            );
        }
    }

    #[test]
    fn baseline_experiment_produces_consistent_views() {
        let r = quick(FreqPolicy::Baseline);
        assert_eq!(r.ranks, 1);
        assert_eq!(r.per_rank.len(), 1);
        assert_eq!(r.per_node.len(), 1);
        assert!(r.time_to_solution_s > 0.0);
        assert!(r.job_elapsed_s > r.time_to_solution_s, "job includes setup");
        // Slurm sees the whole job (setup + aux), PMT only loop devices.
        assert!(r.slurm_consumed_j > r.pmt_total_j);
        // GPU energy measured by PMT matches the node-breakdown GPU energy
        // (same window, same device, modulo the idle remainder of the node's
        // second GPU on miniHPC).
        let node_gpu = r.per_node[0].gpu_j;
        assert!(r.pmt_gpu_j <= node_gpu + 1e-9);
        assert!(r.pmt_gpu_j > 0.3 * node_gpu, "instrumented GPU dominates");
        // EDP is positive and consistent.
        assert!((r.edp() - r.node_loop_j * r.time_to_solution_s).abs() < 1e-9);
    }

    #[test]
    fn static_downscaling_trades_time_for_gpu_energy() {
        let base = quick(FreqPolicy::Baseline);
        let low = quick(FreqPolicy::Static(MegaHertz(1005)));
        let (t, e, _) = low.normalized_to(&base);
        assert!(t > 1.02, "static-1005 must be slower: {t}");
        assert!(t < 1.45, "slowdown bounded by 1/f: {t}");
        assert!(e < 0.95, "static-1005 must save GPU energy: {e}");
    }

    #[test]
    fn multirank_experiment_on_production_system_denies_clock_control() {
        let spec = ExperimentSpec {
            system: archsim::cscs_a100(),
            ranks: 8,
            workload: WorkloadKind::Turbulence {
                n_side: 8,
                mach: 0.3,
                seed: 2,
            },
            target_particles_per_rank: 150e6,
            setup: SimDuration::from_secs(1),
            target_neighbors: 30,
            ..ExperimentSpec::minihpc_turbulence(FreqPolicy::Static(MegaHertz(1005)), 2)
        };
        let r = run_experiment(&spec);
        assert_eq!(r.per_rank.len(), 8);
        assert_eq!(r.per_node.len(), 2, "8 ranks on 4-GPU nodes");
        assert!(
            r.per_rank.iter().all(|rr| rr.clock_control_denied),
            "production systems lock SetApplicationsClocks"
        );
        // Baseline behaviour: pinned at the centre default anyway.
        assert!(r.pmt_gpu_j > 0.0);
    }

    #[test]
    fn evrard_workload_reports_gravity() {
        let spec = ExperimentSpec {
            workload: WorkloadKind::Evrard { n_side: 8 },
            target_particles_per_rank: 80e6,
            ..ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 2)
        };
        let r = run_experiment(&spec);
        assert_eq!(r.workload, "EvrardCollapse");
        assert!(r.per_rank[0].functions.contains_key("Gravity"));
        assert_eq!(r.per_rank[0].functions.len(), 12);
    }

    #[test]
    fn slurm_gpu_freq_overrides_locked_production_clocks() {
        // §II-B: --gpu-freq is applied with scheduler privilege, so it works
        // even where user-level SetApplicationsClocks is denied.
        let mut spec = ExperimentSpec {
            system: archsim::cscs_a100(),
            ranks: 4,
            workload: WorkloadKind::Turbulence {
                n_side: 8,
                mach: 0.3,
                seed: 3,
            },
            target_particles_per_rank: 150e6,
            setup: SimDuration::from_secs(1),
            target_neighbors: 30,
            slurm_gpu_freq: Some(MegaHertz(1005)),
            ..ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 2)
        };
        let low = run_experiment(&spec);
        // User-level control is still denied (Baseline tries to pin 1410 and
        // fails), but the Slurm-applied 1005 MHz governs every function.
        assert!(low.per_rank.iter().all(|r| r.clock_control_denied));
        for rank in &low.per_rank {
            for (name, f) in &rank.functions {
                assert!(
                    (f.avg_freq_mhz - 1005.0).abs() < 1.0,
                    "{name} ran at {} despite --gpu-freq=1005",
                    f.avg_freq_mhz
                );
            }
        }
        // And it actually saves energy vs the default clocks.
        spec.slurm_gpu_freq = None;
        let default = run_experiment(&spec);
        assert!(low.pmt_gpu_j < default.pmt_gpu_j);
        assert!(low.time_to_solution_s > default.time_to_solution_s);
    }

    #[test]
    fn cpu_energy_attribution_is_time_proportional() {
        let r = quick(FreqPolicy::Baseline);
        let rank = &r.per_rank[0];
        let cpu_sum: f64 = rank.functions.values().map(|f| f.cpu_j).sum();
        assert!(cpu_sum > 0.0, "cpu_j must be filled post-hoc");
        // Proportionality: cpu_j / time_s is the same constant everywhere.
        let rates: Vec<f64> = rank
            .functions
            .values()
            .map(|f| f.cpu_j / f.time_s)
            .collect();
        let first = rates[0];
        assert!(
            rates.iter().all(|r| (r - first).abs() / first < 1e-9),
            "CPU power attribution must be constant: {rates:?}"
        );
        // And the per-function CPU energy sums to (about) the rank's share
        // of the node CPU energy.
        let node_cpu: f64 = r.per_node.iter().map(|n| n.cpu_j).sum();
        assert!(cpu_sum <= node_cpu + 1e-9);
        assert!(
            cpu_sum > 0.9 * node_cpu,
            "rank share {cpu_sum} vs node {node_cpu}"
        );
    }

    #[test]
    fn slurm_cpu_freq_reduces_cpu_energy_without_time_cost() {
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 2);
        spec.workload = WorkloadKind::Turbulence {
            n_side: 6,
            mach: 0.3,
            seed: 1,
        };
        spec.target_neighbors = 30;
        let base = run_experiment(&spec);
        spec.slurm_cpu_freq_khz = Some(2_000_000);
        let slow = run_experiment(&spec);
        assert_eq!(
            slow.time_to_solution_s, base.time_to_solution_s,
            "GPU-bound: no time cost"
        );
        let cpu_base: f64 = base.per_node.iter().map(|n| n.cpu_j).sum();
        let cpu_slow: f64 = slow.per_node.iter().map(|n| n.cpu_j).sum();
        assert!(
            cpu_slow < cpu_base * 0.95,
            "CPU energy must drop: {cpu_slow} vs {cpu_base}"
        );
    }

    #[test]
    fn report_dir_writes_per_rank_files() {
        let dir = std::env::temp_dir().join("freqscale_report_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 1);
        spec.workload = WorkloadKind::Turbulence {
            n_side: 6,
            mach: 0.3,
            seed: 1,
        };
        spec.target_neighbors = 30;
        spec.ranks = 2;
        spec.report_dir = Some(dir.clone());
        let r = run_experiment(&spec);
        // Per-rank files + aggregate + CSV.
        assert!(dir.join("rank-0000.json").exists());
        assert!(dir.join("rank-0001.json").exists());
        let exp = std::fs::read_to_string(dir.join("experiment.json")).expect("file written");
        let parsed = crate::report::ExperimentResult::from_json(&exp).expect("valid JSON");
        assert_eq!(parsed.ranks, r.ranks);
        let csv = std::fs::read_to_string(dir.join("functions.csv")).expect("csv written");
        assert!(csv.starts_with("function,calls"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn sedov_workload_runs_instrumented() {
        let spec = ExperimentSpec {
            workload: WorkloadKind::Sedov { n_side: 8, e0: 1.0 },
            target_particles_per_rank: 125e6,
            ..ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 2)
        };
        let r = run_experiment(&spec);
        assert_eq!(r.workload, "SedovBlast");
        assert_eq!(r.per_rank[0].functions.len(), 11, "hydro set, no gravity");
        assert!(r.pmt_gpu_j > 0.0);
    }

    #[test]
    fn predictive_run_persists_models_and_warm_starts_probe_free() {
        let dir =
            std::env::temp_dir().join(format!("freqscale_predictive_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = ExperimentSpec::minihpc_turbulence(
            FreqPolicy::ManDynPredictive(online::PredictiveConfig::default()),
            16,
        );
        spec.workload = WorkloadKind::Turbulence {
            n_side: 6,
            mach: 0.3,
            seed: 1,
        };
        spec.target_neighbors = 30;
        spec.table_store = Some(dir.clone());

        let cold = run_experiment(&spec);
        let rank = &cold.per_rank[0];
        assert!(rank.exploration_launches > 0, "cold start probes");
        assert!(!rank.models.is_empty(), "models reported");
        assert!(!rank.learned_table.is_empty(), "kernels pinned");

        // The store now holds both the table and the fitted coefficients…
        let store = online::TableStore::open(&dir).unwrap();
        let stored = store
            .load_or_rebuild(&spec.system.node.gpu.name, &spec.table_store_key())
            .expect("entry persisted");
        assert!(!stored.models.is_empty(), "coefficients persisted");
        assert_eq!(
            stored.table.len(),
            rank.learned_table.len(),
            "table persisted"
        );

        // …so the second run skips probing entirely for model-backed
        // kernels and pins table-backed ones through the search warm start.
        let warm = run_experiment(&spec);
        assert_eq!(
            warm.per_rank[0].exploration_launches, 0,
            "warm start must skip the probe phase"
        );
        assert_eq!(
            warm.per_rank[0].learned_table, cold.per_rank[0].learned_table,
            "warm run pins the same clocks"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn pinned_memory_clock_slows_memory_bound_work() {
        let base = quick(FreqPolicy::Baseline);
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, 2);
        spec.workload = WorkloadKind::Turbulence {
            n_side: 6,
            mach: 0.3,
            seed: 1,
        };
        spec.target_neighbors = 30;
        spec.memory_clock = Some(810);
        let slow = run_experiment(&spec);
        assert!(
            slow.time_to_solution_s > base.time_to_solution_s,
            "halving memory bandwidth must cost time: {} vs {}",
            slow.time_to_solution_s,
            base.time_to_solution_s
        );
    }

    #[test]
    fn trace_collection_is_opt_in() {
        let mut spec = ExperimentSpec::minihpc_turbulence(FreqPolicy::Dvfs, 1);
        spec.workload = WorkloadKind::Turbulence {
            n_side: 6,
            mach: 0.3,
            seed: 1,
        };
        spec.target_neighbors = 30;
        let without = run_experiment(&spec);
        assert!(without.per_rank[0].freq_trace.is_empty());
        spec.collect_trace = true;
        let with = run_experiment(&spec);
        assert!(!with.per_rank[0].freq_trace.is_empty());
    }
}
