//! The traced run: `freqscale::run_experiment`'s loop replayed through
//! public API only, with a [`TimingObserver`] between the simulation and the
//! instrument. It must produce the same bits as the real entry point — the
//! caller checks `state_digest`, `pmt_gpu_j` and the learned tables — so any
//! drift between this file and `crates/core/src/runner.rs` fails the
//! benchmark instead of silently tracing something else. The public surface
//! this depends on is listed in the README.

use std::time::Instant;

use archsim::{Cluster, SimInstant};
use cornerstone::Box3;
use freqscale::{
    Checkpointer, EnergyInstrument, ExperimentResult, ExperimentSpec, Manifest, NodeBreakdown,
    RankReport,
};
use nvml_shim::Nvml;
use pm_counters::PmCounters;
use ranks::CommStats;
use slurm_sim::{AccountingConfig, JobTimes, Slurm};
use sph::{Kernel, SimConfig, Simulation};

use crate::trace::{Launch, StepStamps, TimingObserver};

// The runner keeps these private; same values, or the energy bits diverge
// and the digest check catches it.
const SETUP_CPU_ACTIVITY: f64 = 0.50;
const SETUP_MEM_ACTIVITY: f64 = 0.40;
const LOOP_CPU_ACTIVITY: f64 = 0.22;
const LOOP_MEM_ACTIVITY: f64 = 0.30;

/// One rank's side of a traced run.
pub struct RankTrace {
    pub rank: usize,
    pub steps: Vec<StepStamps>,
    pub ic_build_ns: u64,
    pub finish_ns: u64,
    /// Host `(start, end)` stamps of each checkpoint, barriers included.
    pub checkpoints: Vec<(u64, u64)>,
    pub comm: CommStats,
    /// Globally reduced total energy after the first and the last step.
    pub energy_first: f64,
    pub energy_last: f64,
}

/// Rank 0's particle arrays after the last step: the input of the
/// cornerstone and snapshot probes.
pub struct FinalState {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub h: Vec<f64>,
    pub n_local: usize,
    pub bbox: Box3,
    pub kernel: Kernel,
    pub snapshot: Vec<u8>,
}

pub struct TracedRun {
    pub result: ExperimentResult,
    pub ranks: Vec<RankTrace>,
    pub attach_ns: u64,
    pub slurm_ns: u64,
    /// Rank 0's first-step launch sequence.
    pub launch_seq: Vec<Launch>,
    pub final_state: FinalState,
}

struct RankOut {
    report: RankReport,
    end_ns: u64,
    digest: u64,
    repartitions: u64,
    migrated: u64,
    trace: RankTrace,
    launch_seq: Vec<Launch>,
    final_state: Option<FinalState>,
}

/// Run `spec` like `run_experiment` does, stamping every hook. `epoch` is
/// the zero of all host stamps (shared across cells of one traced workload).
pub fn run_traced(spec: &ExperimentSpec, epoch: Instant) -> TracedRun {
    assert!(
        spec.slurm_gpu_freq.is_none()
            && spec.slurm_cpu_freq_khz.is_none()
            && spec.memory_clock.is_none()
            && spec.faults.is_none()
            && spec.power_cap_w.is_none()
            && spec.table_store.is_none()
            && spec.restore_from.is_none()
            && spec.report_dir.is_none()
            && !spec.collect_trace,
        "the traced replica covers only what the benchmark workloads use"
    );
    let cluster = Cluster::for_ranks(spec.system.clone(), spec.ranks);
    let setup_end = SimInstant::ZERO + spec.setup;
    for node in cluster.nodes() {
        node.settle_until(setup_end, SETUP_CPU_ACTIVITY, SETUP_MEM_ACTIVITY);
    }

    let checkpointer = spec.checkpoint_dir.as_ref().map(|dir| {
        let every = if spec.checkpoint_every == 0 {
            5
        } else {
            spec.checkpoint_every as u64
        };
        Checkpointer::new(dir, every, freqscale::spec_hash(spec))
    });

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
    let stamp = move || epoch.elapsed().as_nanos() as u64;

    let mut outputs: Vec<RankOut> = ranks::run(spec.ranks, spec.comm, |ctx| {
        ctx.advance_to(setup_end);
        let t_ic = Instant::now();
        let ic = spec.workload.build();
        let ic_build_ns = t_ic.elapsed().as_nanos() as u64;
        let mut sim = if ctx.size() == 1 {
            Simulation::new(ic, sim_cfg)
        } else {
            Simulation::distribute(ic, sim_cfg, ctx.rank(), ctx.size())
        };
        let (node_idx, _dev_idx) = cluster.place_rank(ctx.rank());
        let nvml = Nvml::init_for_node(&cluster.nodes()[node_idx]);
        let mut inst = EnergyInstrument::new(&nvml, ctx.rank(), spec.policy.clone())
            .expect("rank binds to a device");

        let mut steps = Vec::with_capacity(spec.steps);
        let mut checkpoints = Vec::new();
        let (mut repartitions, mut migrated) = (0u64, 0u64);
        let (mut energy_first, mut energy_last) = (f64::NAN, f64::NAN);
        let launch_seq = {
            let mut obs = TimingObserver::new(&mut inst, epoch);
            while sim.step_index() < spec.steps as u64 {
                let start = stamp();
                let stats = sim.step(ctx, &mut obs);
                let end = stamp();
                steps.push(StepStamps {
                    start,
                    end,
                    calls: obs.take_step(),
                });
                repartitions += stats.repartitioned as u64;
                migrated += stats.migrated;
                if energy_first.is_nan() {
                    energy_first = stats.budget.total();
                }
                energy_last = stats.budget.total();
                if let Some(ck) = &checkpointer {
                    if ck.due(sim.step_index()) {
                        // `obs` borrows the instrument; the manifest needs
                        // its tables, which no benchmark policy has mid-run
                        // (ManDyn carries a fixed table) — so an empty
                        // learned table here matches the runner's.
                        let ck_start = stamp();
                        let step = sim.step_index();
                        if ctx.rank() == 0 {
                            ck.prepare(step);
                        }
                        ctx.barrier();
                        ck.write_rank(step, ctx.rank(), &sim.capture_snapshot());
                        ctx.barrier();
                        if ctx.rank() == 0 {
                            ck.commit(&Manifest {
                                version: freqscale::checkpoint::MANIFEST_VERSION,
                                step,
                                time_bits: sim.time().to_bits(),
                                dt_bits: sim.dt().to_bits(),
                                ranks: ctx.size(),
                                spec_hash: ck.spec_hash(),
                                workload: format!("{:?}", spec.workload),
                                splits: sim.assignment_splits().map(<[u64]>::to_vec),
                                learned_table: Default::default(),
                                models: Default::default(),
                            });
                        }
                        checkpoints.push((ck_start, stamp()));
                    }
                }
            }
            obs.into_launches()
        };
        let end = ctx.now();
        let digest = sim.state_digest();
        let final_state = (ctx.rank() == 0).then(|| FinalState {
            x: sim.parts.x.clone(),
            y: sim.parts.y.clone(),
            z: sim.parts.z.clone(),
            h: sim.parts.h.clone(),
            n_local: sim.parts.n_local,
            bbox: sim.bbox,
            kernel: sim.cfg.kernel,
            snapshot: sim.capture_snapshot(),
        });
        let comm = ctx.comm_stats();
        let t_fin = Instant::now();
        let report = inst.finish(ctx);
        let finish_ns = t_fin.elapsed().as_nanos() as u64;
        RankOut {
            report,
            end_ns: end.as_nanos(),
            digest,
            repartitions,
            migrated,
            trace: RankTrace {
                rank: ctx.rank(),
                steps,
                ic_build_ns,
                finish_ns,
                checkpoints,
                comm,
                energy_first,
                energy_last,
            },
            launch_seq,
            final_state,
        }
    });

    let global_end = SimInstant::from_nanos(
        outputs
            .iter()
            .map(|o| o.end_ns)
            .max()
            .expect("at least one rank"),
    )
    .max(setup_end);
    for node in cluster.nodes() {
        node.settle_until(global_end, LOOP_CPU_ACTIVITY, LOOP_MEM_ACTIVITY);
    }
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

    let t_attach = Instant::now();
    let counters: Vec<PmCounters> = cluster.nodes().iter().map(PmCounters::attach).collect();
    let attach_ns = t_attach.elapsed().as_nanos() as u64;
    let t_slurm = Instant::now();
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
    let slurm_ns = t_slurm.elapsed().as_nanos() as u64;

    let state_digest = {
        let mut bytes = Vec::with_capacity(outputs.len() * 8);
        for o in &outputs {
            bytes.extend_from_slice(&o.digest.to_le_bytes());
        }
        sph::fnv1a(&bytes)
    };
    let repartitions = outputs[0].repartitions;
    let migrated_particles = outputs[0].migrated;
    let launch_seq = std::mem::take(&mut outputs[0].launch_seq);
    let final_state = outputs[0].final_state.take().expect("rank 0 state");

    let (mut per_rank, ranks): (Vec<RankReport>, Vec<RankTrace>) =
        outputs.into_iter().map(|o| (o.report, o.trace)).unzip();
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
        fault_stats: faults::FaultInjector::new(Default::default()).stats(),
        state_digest,
        repartitions,
        migrated_particles,
    };
    TracedRun {
        result,
        ranks,
        attach_ns,
        slurm_ns,
        launch_seq,
        final_state,
    }
}

/// What must match between two runs of one spec for them to count as the
/// same run: carried state, measured GPU energy, and what the tuners learned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub state_digest: u64,
    pub pmt_gpu_j_bits: u64,
    pub learned: Vec<std::collections::BTreeMap<String, u32>>,
}

impl Fingerprint {
    pub fn of(r: &ExperimentResult) -> Fingerprint {
        Fingerprint {
            state_digest: r.state_digest,
            pmt_gpu_j_bits: r.pmt_gpu_j.to_bits(),
            learned: r
                .per_rank
                .iter()
                .map(|rank| rank.learned_table.clone())
                .collect(),
        }
    }
}
