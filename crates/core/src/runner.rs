//! Experiment orchestration: cluster + job lifecycle + instrumented ranks.
//!
//! `run_experiment` reproduces the paper's measurement setup end to end:
//! a Slurm-style job is "submitted" at t = 0, spends a setup phase
//! (allocation, IC construction, host→device copy) with idle GPUs, then runs
//! the instrumented time-stepping loop with one MPI rank per GPU/GCD. Slurm
//! accounts the whole job through pm_counters; PMT measures the loop only —
//! the §IV-A validation gap.

use archsim::{Cluster, MegaHertz, SimDuration, SimInstant, SystemSpec, Watts};
use nvml_shim::Nvml;
use online::{PowerCapCoordinator, StoredTable, TableStore, WarmState};
use pm_counters::PmCounters;
use ranks::CommCost;
use serde::{Deserialize, Serialize};
use slurm_sim::{AccountingConfig, JobTimes, Slurm};
use sph::{
    evrard, kelvin_helmholtz, rotating_disk, sedov, sod, subsonic_turbulence, InitialConditions,
    Kernel, SimConfig, Simulation,
};

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
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks == 0 {
            return Err("spec.ranks must be at least 1".to_string());
        }
        let (n_side, min) = self.workload.side_and_minimum();
        if n_side < min {
            return Err(format!(
                "workload {}: n_side {n_side} is below the generator's minimum of {min}",
                self.workload.name()
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
        if let Some(profile) = &self.faults {
            profile
                .validate()
                .map_err(|e| format!("fault profile: {e}"))?;
        }
        // A config the policy's tuner refuses (say `coarse_step: 0`) parses
        // fine; building the tuner once is the check.
        self.policy
            .tuner(&self.system.node.gpu)
            .map_err(|e| e.to_string())?;
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
    let cluster = Cluster::for_ranks(spec.system.clone(), spec.ranks);
    let setup_end = SimInstant::ZERO + spec.setup;

    // Slurm applies a requested --gpu-freq with scheduler privilege before
    // the job starts, regardless of user-level clock-control policy.
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

    // --- checkpoint/restart plumbing -------------------------------------
    let spec_hash = crate::checkpoint::spec_hash(spec);
    let checkpointer = spec.checkpoint_dir.as_ref().map(|dir| {
        let every = if spec.checkpoint_every == 0 {
            5
        } else {
            spec.checkpoint_every as u64
        };
        crate::checkpoint::Checkpointer::new(dir, every, spec_hash)
    });
    // The manifest is validated once, up front (the CLI has already turned
    // a mismatch into a clean error; a programmatic caller gets the panic).
    let restore = spec.restore_from.as_ref().map(|dir| {
        crate::checkpoint::RestorePoint::discover(dir, spec)
            .unwrap_or_else(|e| panic!("cannot restore: {e}"))
    });
    // A checkpoint's tuner state warm-starts the restored run exactly like
    // a table-store entry would, overriding store/external warm state (a
    // checkpoint taken before anything pinned overrides nothing).
    if let Some(rp) = &restore {
        let ckpt = rp.manifest.warm();
        let w = warm.get_or_insert_with(WarmState::default);
        if !ckpt.table.is_empty() {
            w.table = ckpt.table;
        }
        if !ckpt.models.is_empty() {
            w.models = ckpt.models;
        }
    }

    // One (device budget, clock ceiling) per rank. The budget is enforced on
    // the device; the ceiling keeps an online search out of throttled rungs.
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

    // --- instrumented loop, one rank per GPU -----------------------------
    let sim_cfg = SimConfig {
        kernel: spec.kernel,
        target_particles_per_rank: spec.target_particles_per_rank,
        target_neighbors: spec.target_neighbors,
        bucket_size: 32,
        repart_skew_threshold: spec
            .repart_skew_threshold
            .unwrap_or_else(|| SimConfig::default().repart_skew_threshold),
        halo_overlap: spec.halo_overlap,
    };
    let outputs: Vec<(RankReport, u64, u64, u64, u64)> = ranks::run(spec.ranks, spec.comm, |ctx| {
        if injector.is_active() {
            // Straggler stalls key on the rank id, not the GPU id, so the
            // schedule survives re-binding ranks to different devices.
            ctx.install_faults(injector.device(ctx.rank() as u64));
        }
        ctx.advance_to(setup_end);
        let ic = spec.workload.build();
        let mut sim = if ctx.size() == 1 {
            Simulation::new(ic, sim_cfg)
        } else {
            Simulation::distribute(ic, sim_cfg, ctx.rank(), ctx.size())
        };
        // Restore is collective: every rank loads its own blob, then the
        // ranks agree (allreduce Min over ok flags) — one damaged blob makes
        // the whole job cold-start, never a half-restored mix.
        if let Some(rp) = &restore {
            let loaded = match rp.rank_particles(ctx.rank()) {
                Ok(parts) => Some(parts),
                Err(e) => {
                    eprintln!("warning: rank {}: {e}; cold-starting", ctx.rank());
                    None
                }
            };
            let everywhere = ctx.allreduce_u64(loaded.is_some() as u64, ranks::Op::Min);
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
        let mut repartitions = 0u64;
        let mut migrated = 0u64;
        while sim.step_index() < spec.steps as u64 {
            let stats = sim.step(ctx, &mut inst);
            repartitions += stats.repartitioned as u64;
            migrated += stats.migrated;
            if let Some(ck) = &checkpointer {
                if ck.due(sim.step_index()) {
                    // Barrier sequencing makes the manifest a commit marker:
                    // rank 0 creates the directory before anyone writes, and
                    // writes the manifest only after every rank file landed.
                    let step = sim.step_index();
                    if ctx.rank() == 0 {
                        ck.prepare(step);
                    }
                    ctx.barrier();
                    ck.write_rank(step, ctx.rank(), &sim.capture_snapshot());
                    ctx.barrier();
                    if ctx.rank() == 0 {
                        let WarmState { table, models } = inst.learned();
                        ck.commit(&crate::checkpoint::Manifest {
                            version: crate::checkpoint::MANIFEST_VERSION,
                            step,
                            time_bits: sim.time().to_bits(),
                            dt_bits: sim.dt().to_bits(),
                            ranks: ctx.size(),
                            spec_hash: ck.spec_hash(),
                            workload: format!("{:?}", spec.workload),
                            splits: sim.assignment_splits().map(<[u64]>::to_vec),
                            learned_table: table,
                            models,
                        });
                    }
                }
            }
        }
        let end = ctx.now();
        let digest = sim.state_digest();
        (
            inst.finish(ctx),
            end.as_nanos(),
            digest,
            repartitions,
            migrated,
        )
    });

    let global_end = SimInstant::from_nanos(
        outputs
            .iter()
            .map(|(_, end, ..)| *end)
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
        let mut bytes = Vec::with_capacity(outputs.len() * 8);
        for (_, _, digest, _, _) in &outputs {
            bytes.extend_from_slice(&digest.to_le_bytes());
        }
        sph::fnv1a(&bytes)
    };
    // Repartition count is a collective decision (every rank agrees), and
    // migration counts are already allreduced inside the step — rank 0's
    // totals are the job's totals.
    let repartitions = outputs.first().map_or(0, |(_, _, _, r, _)| *r);
    let migrated_particles = outputs.first().map_or(0, |(_, _, _, _, m)| *m);
    let mut per_rank: Vec<RankReport> = outputs.into_iter().map(|(r, ..)| r).collect();

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
        repartitions,
        migrated_particles,
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

/// Run several experiments concurrently, at most `jobs` at a time (`0`
/// means the `par` layer's default worker count), and return the results
/// in spec order.
///
/// Each experiment builds its own simulated cluster, spawns its own rank
/// threads and (optionally) writes its own `report_dir`, so scenarios are
/// fully independent; every result is identical to what [`run_experiment`]
/// returns for that spec alone. Specs sharing a `report_dir` or
/// `table_store` path should be run with `jobs = 1`. The experiments share
/// the machine: their data-parallel sweeps split `par`'s worker count
/// between the jobs (see [`par::par_map_threads`]).
pub fn run_experiments(specs: &[ExperimentSpec], jobs: usize) -> Vec<ExperimentResult> {
    let threads = if jobs == 0 { par::max_threads() } else { jobs };
    par::par_map_threads(threads, specs.len(), |i| run_experiment(&specs[i]))
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
            steps: 2,
            policy: FreqPolicy::Static(MegaHertz(1005)),
            target_particles_per_rank: 150e6,
            setup: SimDuration::from_secs(1),
            comm: CommCost::default(),
            kernel: Kernel::CubicSpline,
            target_neighbors: 30,
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
            steps: 2,
            policy: FreqPolicy::Baseline,
            target_particles_per_rank: 150e6,
            setup: SimDuration::from_secs(1),
            comm: CommCost::default(),
            kernel: Kernel::CubicSpline,
            target_neighbors: 30,
            collect_trace: false,
            slurm_gpu_freq: Some(MegaHertz(1005)),
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
