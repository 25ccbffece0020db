//! Direct-call layer probes: timed calls into each crate's public functions
//! on the traced run's own data (rank 0's final particle arrays, its launch
//! sequence, its device), so each layer has a cost that does not depend on
//! spans inside the program.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use archsim::{GpuDevice, GpuSpec, MegaHertz};
use cornerstone::{CellList, NeighborList, Octree};
use freqscale::{Checkpointer, ExperimentResult, ExperimentSpec, Manifest};
use model::{KernelModel, Sample, VoltageParams};
use nvml_shim::Nvml;
use online::{OnlineTuner, PredictiveTuner, TableStore};
use parking_lot::Mutex;
use pmt::{backends::NvmlSensor, Pmt};
use ranks::{CommCost, Op};
use sph::FuncId;

use crate::metrics::{median, MetricSet};
use crate::replica::FinalState;
use crate::trace::Launch;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median host ns of `f` over `reps` calls.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ns_since(t)
        })
        .collect();
    median(&samples)
}

/// Host ns per call of a sub-microsecond `f`, timed in batches of 1000 so
/// the clock read does not dominate; median over `batches`.
fn per_call_ns<R>(batches: usize, mut f: impl FnMut() -> R) -> f64 {
    median_ns(batches, || {
        for _ in 0..1000 {
            black_box(f());
        }
    }) / 1000.0
}

/// How often the probes repeat a timed call: full for a benchmark run,
/// once for `perf smoke` (a debug build in tests).
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub reps: usize,
}

impl Effort {
    pub const FULL: Effort = Effort { reps: 5 };
    pub const SMOKE: Effort = Effort { reps: 1 };
}

/// How many times the simulator-stack probes replay the launch sequence:
/// one matrix cell's worth, enough for both tuners to pin every kernel.
const REPLAY_ROUNDS: usize = 80;

// ---- cornerstone ------------------------------------------------------------

/// Key sort, octree, cell grid and CSR list builds on rank 0's final
/// arrays — the same calls, in the same order, a step makes.
pub fn cornerstone(m: &mut MetricSet, st: &FinalState, effort: Effort) {
    let n = st.n_local;
    let keys = || {
        let mut keys: Vec<u64> = (0..n)
            .map(|i| cornerstone::key_of(st.x[i], st.y[i], st.z[i], &st.bbox))
            .collect();
        keys.sort_unstable();
        keys
    };
    m.layer(
        "cornerstone.key_sort_ms",
        median_ns(effort.reps, keys) / 1e6,
    );
    let sorted = keys();
    m.layer(
        "cornerstone.octree_build_ms",
        median_ns(effort.reps, || Octree::build(&sorted, 32)) / 1e6,
    );

    let h_max = st.h.iter().copied().fold(1e-6, f64::max);
    let cell = st.kernel.support(h_max) * 1.4;
    let grid = || CellList::build(&st.x, &st.y, &st.z, &st.bbox, cell);
    m.layer(
        "cornerstone.celllist_build_ms",
        median_ns(effort.reps, grid) / 1e6,
    );
    let grid = grid();
    let radii: Vec<f64> = st.h.iter().map(|&h| st.kernel.support(h) * 1.4).collect();
    let mut nlist = NeighborList::new();
    // Steady state reuses the buffers, so warm them before timing.
    nlist.build_adaptive_into(&grid, &st.x, &st.y, &st.z, n, &radii);
    m.layer(
        "cornerstone.nlist_build_ms",
        median_ns(effort.reps.min(3), || {
            nlist.build_adaptive_into(&grid, &st.x, &st.y, &st.z, n, &radii)
        }) / 1e6,
    );
    m.layer("cornerstone.nlist_csr_bytes", nlist.csr_bytes() as f64);
    m.layer("cornerstone.nlist_avg_neighbors", nlist.avg_neighbors());
}

// ---- par / ranks ------------------------------------------------------------

pub fn par_spawn(m: &mut MetricSet, effort: Effort) {
    let workers = par::max_threads();
    m.layer("par.workers", workers as f64);
    m.layer(
        "par.spawn_us",
        median_ns(effort.reps * 40, || par::par_map(workers, |i| i)) / 1e3,
    );
}

/// 1000 `allreduce_f64` calls at the workload's rank count, rank 0's view.
pub fn ranks_allreduce(m: &mut MetricSet, size: usize) {
    const CALLS: u32 = 1000;
    let per_rank = ranks::run(size, CommCost::default(), |ctx| {
        let t = Instant::now();
        for i in 0..CALLS {
            black_box(ctx.allreduce_f64(f64::from(i), Op::Min));
        }
        ns_since(t) / f64::from(CALLS)
    });
    m.layer("ranks.allreduce_us", per_rank[0] / 1e3);
}

// ---- core -------------------------------------------------------------------

pub fn core_spec_and_report(
    m: &mut MetricSet,
    spec: &ExperimentSpec,
    result: &ExperimentResult,
    effort: Effort,
) {
    let text = serde_json::to_string_pretty(spec).expect("spec serialises");
    m.layer(
        "core.spec_parse_us",
        median_ns(effort.reps * 10, || {
            serde_json::from_str::<ExperimentSpec>(&text).expect("spec parses")
        }) / 1e3,
    );
    m.layer(
        "core.report_json_ms",
        median_ns(effort.reps, || result.to_json()) / 1e6,
    );
    m.layer("core.report_json_bytes", result.to_json().len() as f64);
}

/// One rank blob plus the manifest commit, into `dir`: what a checkpoint
/// costs this workload's rank 0 at its final size.
pub fn core_checkpoint(
    m: &mut MetricSet,
    spec: &ExperimentSpec,
    st: &FinalState,
    dir: &std::path::Path,
    effort: Effort,
) {
    let ck = Checkpointer::new(dir, 1, freqscale::spec_hash(spec));
    let mut step = 0u64;
    m.layer(
        "core.checkpoint_write_ms",
        median_ns(effort.reps, || {
            step += 1;
            ck.prepare(step);
            ck.write_rank(step, 0, &st.snapshot);
            ck.commit(&Manifest {
                version: freqscale::checkpoint::MANIFEST_VERSION,
                step,
                time_bits: 0,
                dt_bits: 0,
                ranks: 1,
                spec_hash: ck.spec_hash(),
                workload: format!("{:?}", spec.workload),
                splits: None,
                learned_table: Default::default(),
                models: Default::default(),
            });
        }) / 1e6,
    );
    m.layer("core.checkpoint_bytes", st.snapshot.len() as f64);
}

pub fn sph_snapshot(m: &mut MetricSet, st: &FinalState, effort: Effort) {
    let parts = sph::decode_particles(&st.snapshot).expect("own snapshot decodes");
    m.layer(
        "sph.snapshot_encode_ms",
        median_ns(effort.reps, || sph::encode_particles(&parts)) / 1e6,
    );
    m.layer("sph.snapshot_bytes", st.snapshot.len() as f64);
}

// ---- simulator stack --------------------------------------------------------

fn fresh_gpu(spec: &GpuSpec) -> GpuDevice {
    GpuDevice::new(0, spec.clone())
}

/// Replay the workload's launch sequence on fresh devices and tuners.
pub fn simulator_stack(m: &mut MetricSet, gpu: &GpuSpec, seq: &[Launch], effort: Effort) {
    assert!(!seq.is_empty(), "traced run recorded no launches");
    let max = gpu.clock_table.max();
    let rounds = REPLAY_ROUNDS;

    // archsim: pinned and DVFS region execution, per launch descriptor.
    let mut pinned = fresh_gpu(gpu);
    pinned
        .set_application_clocks(max)
        .expect("max is on ladder");
    let mut dvfs = fresh_gpu(gpu);
    dvfs.reset_application_clocks().expect("clocks unlocked");
    let (mut t_pinned, mut t_dvfs) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        for l in seq {
            pinned.advance_idle(l.host_pre);
            let t = Instant::now();
            black_box(pinned.run_region(&l.workload));
            t_pinned.push(ns_since(t));
            dvfs.advance_idle(l.host_pre);
            let t = Instant::now();
            black_box(dvfs.run_region(&l.workload));
            t_dvfs.push(ns_since(t));
        }
    }
    m.layer("archsim.run_region_pinned_ns", median(&t_pinned));
    m.layer("archsim.run_region_dvfs_ns", median(&t_dvfs));
    m.layer(
        "archsim.segments_per_launch",
        pinned.power_timeline().len() as f64 / (rounds * seq.len()) as f64,
    );
    let (end, half) = (pinned.now(), pinned.now().as_nanos() / 2);
    m.layer(
        "archsim.energy_between_ns",
        per_call_ns(effort.reps, || {
            pinned.energy_between(archsim::SimInstant::from_nanos(half), end)
        }),
    );

    // nvml + pmt on one shared device, as the instrument holds them.
    let dev = Arc::new(Mutex::new(fresh_gpu(gpu)));
    let nvml = Nvml::init(vec![dev.clone()]);
    let handle = nvml.device_by_index(0).expect("device 0");
    let mem = dev.lock().current_mem_clock().0;
    let clocks = gpu.clock_table.supported_clocks();
    let (lo, hi) = (clocks[clocks.len() / 2].0, max.0);
    let mut flip = false;
    m.layer(
        "nvml.set_clocks_ns",
        per_call_ns(effort.reps, || {
            flip = !flip;
            handle.set_applications_clocks(mem, if flip { lo } else { hi })
        }),
    );
    let mut pmt = Pmt::new(Box::new(NvmlSensor::new(&handle)));
    let mut t_read = Vec::new();
    for _ in 0..rounds {
        for l in seq {
            dev.lock().run_region(&l.workload);
            let t = Instant::now();
            black_box(pmt.read());
            t_read.push(ns_since(t));
        }
    }
    m.layer("pmt.read_ns", median(&t_read));

    // online search tuner: propose + record around each launch.
    let mut dev = fresh_gpu(gpu);
    let mut tuner = OnlineTuner::new(gpu, Default::default()).expect("default config");
    let mut t_tune = Vec::new();
    for _ in 0..rounds {
        for l in seq {
            let t = Instant::now();
            let f = tuner.propose(l.func);
            let proposed = ns_since(t);
            dev.set_application_clocks(f)
                .expect("tuner proposes ladder rungs");
            let exec = dev.run_region(&l.workload);
            let t = Instant::now();
            black_box(tuner.record(
                l.func,
                exec.avg_freq,
                exec.energy.0,
                exec.duration().as_secs_f64(),
            ));
            t_tune.push(proposed + ns_since(t));
        }
    }
    let total = (rounds * seq.len()) as f64;
    m.layer("online.propose_record_ns", median(&t_tune));
    m.layer(
        "online.launches_to_pin",
        tuner.exploration_launches() as f64,
    );
    m.layer(
        "online.pinned_frac",
        1.0 - tuner.exploration_launches() as f64 / total,
    );

    // predictive tuner: same loop with the memory axis open.
    let mut dev = fresh_gpu(gpu);
    let mut tuner = PredictiveTuner::new(gpu, Default::default()).expect("default config");
    let mut t_tune = Vec::new();
    for _ in 0..rounds {
        for l in seq {
            let t = Instant::now();
            let (core, mem) = tuner.propose(l.func);
            let proposed = ns_since(t);
            dev.set_application_clocks(core)
                .expect("tuner proposes ladder rungs");
            dev.set_memory_clock(mem)
                .expect("tuner proposes supported P-states");
            let exec = dev.run_region(&l.workload);
            let t = Instant::now();
            black_box(tuner.record(
                l.func,
                exec.avg_freq,
                mem,
                exec.energy.0,
                exec.duration().as_secs_f64(),
            ));
            t_tune.push(proposed + ns_since(t));
        }
    }
    m.layer("online.predictive_propose_record_ns", median(&t_tune));
    m.layer(
        "online.predictive_launches_to_pin",
        tuner.exploration_launches() as f64,
    );
    m.layer("online.search_fallbacks", tuner.search_fallbacks() as f64);

    // model: fit one kernel from four pinned rungs, then its discrete argmin.
    let heavy = seq
        .iter()
        .find(|l| l.func == FuncId::MomentumEnergy)
        .unwrap_or(&seq[0]);
    let rungs: Vec<MegaHertz> = (0..4).map(|i| clocks[i * (clocks.len() - 1) / 3]).collect();
    let mem_ref = gpu.mem_clock;
    let samples: Vec<Sample> = rungs
        .iter()
        .map(|&f| {
            let mut dev = fresh_gpu(gpu);
            dev.set_application_clocks(f).expect("rung on ladder");
            let exec = dev.run_region(&heavy.workload);
            Sample {
                f_core_mhz: f64::from(f.0),
                f_mem_mhz: f64::from(mem_ref.0),
                time_s: exec.duration().as_secs_f64(),
                energy_j: exec.energy.0,
            }
        })
        .collect();
    let voltage = VoltageParams {
        v_min: gpu.voltage.v_min.0,
        v_max: gpu.voltage.v_max.0,
        f_min_mhz: f64::from(gpu.voltage.f_min.0),
        f_max_mhz: f64::from(gpu.voltage.f_max.0),
    };
    let fit = || KernelModel::fit(&samples, f64::from(max.0), f64::from(mem_ref.0), voltage);
    m.layer("model.fit_us", median_ns(effort.reps * 10, fit) / 1e3);
    let model = fit().expect("four clean rungs fit");
    let core_ladder: Vec<u32> = clocks.iter().map(|c| c.0).collect();
    let mem_ladder: Vec<u32> = gpu.mem_clock_table.iter().map(|c| c.0).collect();
    m.layer(
        "model.predict_optimum_us",
        median_ns(effort.reps * 10, || {
            model.predict_optimum(&core_ladder, &mem_ladder)
        }) / 1e3,
    );
}

pub fn online_store(m: &mut MetricSet, dir: &std::path::Path, effort: Effort) {
    let store = TableStore::open(dir.join("store-probe")).expect("store directory");
    let table: online::LearnedTable = FuncId::ALL
        .into_iter()
        .map(|f| (f, MegaHertz(1200)))
        .collect();
    m.layer(
        "online.store_roundtrip_us",
        median_ns(effort.reps * 4, || {
            store.save("probe-gpu", "probe-key", &table).expect("save");
            store.load("probe-gpu", "probe-key").expect("load")
        }) / 1e3,
    );
}

// ---- tuner ------------------------------------------------------------------

pub fn tuner(m: &mut MetricSet, gpu: &GpuSpec, problem_size: f64, effort: Effort) {
    let (lo, hi) = (
        gpu.clock_table
            .nearest(MegaHertz(gpu.clock_table.max().0 * 1005 / 1410)),
        gpu.clock_table.max(),
    );
    m.layer(
        "tuner.tune_table_ms",
        median_ns(effort.reps, || {
            freqscale::tune_table(gpu, problem_size, lo, hi, tuner::Objective::Edp, true)
        }) / 1e6,
    );
    let func = FuncId::MomentumEnergy;
    m.layer(
        "tuner.exhaustive_sweep_ms",
        median_ns(effort.reps, || {
            tuner::exhaustive_core_mem_sweep(
                func.name(),
                |_params, n| func.workload(n),
                problem_size,
                gpu,
                lo,
                tuner::TuneOptions {
                    objective: tuner::Objective::Edp,
                    iterations: 3,
                    ..Default::default()
                },
            )
        }) / 1e6,
    );
}

// ---- telemetry / faults -------------------------------------------------------

/// The inert paths every hot loop pays when nothing records and no fault
/// profile is installed.
pub fn inert_paths(m: &mut MetricSet, effort: Effort) {
    assert!(!telemetry::active(), "probe needs the recorder idle");
    m.layer(
        "telemetry.inactive_span_ns",
        per_call_ns(effort.reps * 4, || {
            telemetry::span_start("perf", "probe").is_active()
        }),
    );
    let inert = faults::DeviceFaults::default();
    m.layer(
        "faults.inert_draw_ns",
        per_call_ns(effort.reps * 4, || black_box(&inert).clock_set_rejects()),
    );
}

/// Re-run `cells` inside a telemetry session: the recorder's own account of
/// the time it spent appending records (summed over threads) as a share of
/// the session's wall, and how much it records per step. An on/off wall
/// difference over six cells cannot resolve a 1 % budget on a host whose
/// identical runs differ by ±10 %; the self-account can.
pub fn telemetry_recorder(m: &mut MetricSet, cells: &[ExperimentSpec]) {
    telemetry::start();
    black_box(freqscale::run_experiments(cells, par::max_threads()));
    let data = telemetry::stop();
    let steps: usize = cells.iter().map(|c| c.steps).sum();
    m.layer("telemetry.recorder_overhead_frac", data.overhead_fraction());
    m.layer(
        "telemetry.events_per_step",
        (data.span_count() + data.instant_count()) as f64 / steps.max(1) as f64,
    );
}
