//! The four workloads: their frozen sizes, and the experiment specs each one
//! feeds the program — all derived from `--seed`.

use std::path::Path;

use archsim::{DeviceTemplate, MegaHertz};
use freqscale::scenario::{system_for_device, SCENARIOS};
use freqscale::{ExperimentSpec, FreqPolicy, FreqTable, WorkloadKind};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Turb100k,
    Evrard2Rank,
    Matrix48,
    ServeClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Turb100k,
        Workload::Evrard2Rank,
        Workload::Matrix48,
        Workload::ServeClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Turb100k => "turb_100k",
            Workload::Evrard2Rank => "evrard_2rank",
            Workload::Matrix48 => "matrix_48",
            Workload::ServeClosed => "serve_closed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (repeated in BENCHMARK.json and the README).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Turb100k => {
                "one large memory-bound rank-step: the five neighbor sweeps and the CSR list build do nearly all the work; gravity, comms, checkpoint and tuners do none"
            }
            Workload::Evrard2Rank => {
                "same sph/cornerstone code, skewed h and 2 ranks: adds Barnes-Hut gravity, halo exchange, incremental repartition, per-kernel clock sets and checkpoint I/O"
            }
            Workload::Matrix48 => {
                "the scenario x device x policy cube CI runs: 44k instrumented launches over cache-resident physics, so per-call and per-run fixed costs dominate"
            }
            Workload::ServeClosed => {
                "jobs through the daemon, closed loop with nproc outstanding: the only workload with socket framing, queue, table server and single-flight leases on the path"
            }
        }
    }
}

/// `BENCHMARK.json`'s `run_seconds`: the length of the untraced call the
/// frozen sizes below were calibrated to, and the only `--seconds` value
/// `perf run` accepts — the program's entry points take step and job
/// counts, not deadlines.
pub const RUN_SECONDS: u64 = 20;

/// Paper-scale problem size behind Evrard's ManDyn table (§III-C).
pub const EVRARD_TARGET_PARTICLES: f64 = 80e6;

/// Work per workload: [`Sizing::FULL`] for a benchmark run, calibrated once
/// on the reference host (2 hardware threads) so each untraced call takes
/// 10–25 s and then frozen; [`Sizing::smoke`] for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sizing {
    pub turb_n_side: usize,
    pub turb_steps: usize,
    pub evrard_n_side: usize,
    pub evrard_steps: usize,
    pub checkpoint_every: usize,
    pub cells: usize,
    pub cell_steps: usize,
    pub jobs: usize,
    pub job_steps: usize,
    /// How many times set-up is repeated for the `setup_s` median: where it
    /// is a one-step run of seconds (the step workloads), and where it is
    /// milliseconds or less (cube expansion, daemon start). There the host
    /// slows single calls by half for stretches of 50–500 ms, so the
    /// repeats have to span about a second for their median to hold still.
    pub setup_repeats: usize,
    pub quick_setup_repeats: usize,
}

impl Sizing {
    pub const FULL: Sizing = Sizing {
        turb_n_side: 46,
        turb_steps: 25,
        evrard_n_side: 40,
        evrard_steps: 40,
        checkpoint_every: 10,
        cells: 48,
        // Above the online tuner's 64-launch exploration budget, so every
        // kernel pins and every cell publishes a table (freqscale-matrix's
        // own default).
        cell_steps: 80,
        jobs: 120,
        // 70 steps pin every kernel online; 40 leave MomentumEnergy
        // exploring and the explorer would publish a partial table.
        job_steps: 70,
        setup_repeats: 5,
        quick_setup_repeats: 401,
    };

    /// Toy scale for `perf smoke` and the tests: same code, seconds in a
    /// debug build. Too few steps for the tuners to pin, so the checks that
    /// need converged tables are skipped (see [`Sizing::tuners_converge`]).
    pub fn smoke() -> Sizing {
        Sizing {
            turb_n_side: 10,
            turb_steps: 3,
            evrard_n_side: 10,
            evrard_steps: 3,
            checkpoint_every: 2,
            cells: 4,
            cell_steps: 3,
            jobs: 8,
            job_steps: 3,
            setup_repeats: 2,
            quick_setup_repeats: 3,
        }
    }

    /// Whether cells and jobs run long enough for every kernel to pin.
    pub fn tuners_converge(&self) -> bool {
        self.cell_steps >= 80 && self.job_steps >= 70
    }
}

/// splitmix64: the benchmark's own input generator, independent of whatever
/// `rand` the program links.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn base_spec(policy: FreqPolicy, steps: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::minihpc_turbulence(policy, steps);
    spec.target_neighbors = 40;
    spec
}

pub fn turb_spec(seed: u64, sizing: &Sizing, steps: usize) -> ExperimentSpec {
    let mut spec = base_spec(FreqPolicy::Baseline, steps);
    spec.workload = WorkloadKind::Turbulence {
        n_side: sizing.turb_n_side,
        mach: 0.3,
        seed,
    };
    spec
}

/// The ManDyn table the paper builds offline before an Evrard run:
/// best-EDP clock per kernel over 1005–1410 MHz, gravity included.
pub fn evrard_table() -> FreqTable {
    let gpu = archsim::mini_hpc().node.gpu;
    freqscale::tune_table(
        &gpu,
        EVRARD_TARGET_PARTICLES,
        MegaHertz(1005),
        MegaHertz(1410),
        tuner::Objective::Edp,
        true,
    )
    .0
}

pub fn evrard_spec(
    policy: FreqPolicy,
    sizing: &Sizing,
    steps: usize,
    checkpoint_dir: &Path,
) -> ExperimentSpec {
    let mut spec = base_spec(policy, steps);
    spec.workload = WorkloadKind::Evrard {
        n_side: sizing.evrard_n_side,
    };
    spec.ranks = 2;
    spec.target_particles_per_rank = EVRARD_TARGET_PARTICLES;
    spec.checkpoint_dir = Some(checkpoint_dir.to_path_buf());
    spec.checkpoint_every = sizing.checkpoint_every;
    spec
}

/// Resolve a registry scenario into a concrete IC whose random seed (where
/// the IC has one) comes from the benchmark seed. The symbolic name is
/// cleared so no later `resolve_scenario` resets the IC to the registry's.
fn resolve_seeded(spec: &mut ExperimentSpec, scenario: &str, seed: u64) {
    spec.scenario = Some(scenario.to_string());
    spec.resolve_scenario().expect("registry scenario");
    spec.scenario = None;
    match &mut spec.workload {
        WorkloadKind::Turbulence { seed: s, .. }
        | WorkloadKind::KelvinHelmholtz { seed: s, .. } => *s = seed,
        _ => {}
    }
}

/// A spec as a user's file would carry it: serialised and parsed back.
pub fn json_round_trip(spec: &ExperimentSpec) -> ExperimentSpec {
    let text = serde_json::to_string_pretty(spec).expect("spec serialises");
    serde_json::from_str(&text).expect("spec parses back")
}

/// The default `freqscale-matrix` cube — 6 scenarios × 4 builtin devices ×
/// {online, predictive} — in seed-shuffled order, cut to `sizing.cells`.
pub fn matrix_specs(seed: u64, sizing: &Sizing) -> Vec<ExperimentSpec> {
    let mut rng = SplitMix(seed);
    let mut specs = Vec::new();
    for device in archsim::BUILTIN_DEVICES {
        let template = DeviceTemplate::builtin(device).expect("builtin device");
        let system = system_for_device(&template).expect("zoo system");
        for scenario in SCENARIOS {
            let ic_seed = rng.next_u64();
            for policy in [
                FreqPolicy::ManDynOnline(Default::default()),
                FreqPolicy::ManDynPredictive(Default::default()),
            ] {
                let mut spec = ExperimentSpec::minihpc_turbulence(policy, sizing.cell_steps);
                spec.system = system.clone();
                resolve_seeded(&mut spec, scenario, ic_seed);
                specs.push(json_round_trip(&spec));
            }
        }
    }
    rng.shuffle(&mut specs);
    specs.truncate(sizing.cells);
    specs
}

/// `(name, spec JSON)` submissions for the daemon: `ManDynOnline` jobs over
/// the six scenario keys on the A100 zoo device, round-robin over the keys
/// then shuffled, so every key has one explorer and a tail of warm starts.
pub fn serve_jobs(seed: u64, sizing: &Sizing) -> Vec<(String, String)> {
    let mut rng = SplitMix(seed ^ 0x5e21_7e00);
    let template = DeviceTemplate::builtin("a100-sxm4-80gb").expect("builtin device");
    let system = system_for_device(&template).expect("zoo system");
    let bodies: Vec<(String, String)> = SCENARIOS
        .iter()
        .map(|scenario| {
            let mut spec = ExperimentSpec::minihpc_turbulence(
                FreqPolicy::ManDynOnline(Default::default()),
                sizing.job_steps,
            );
            spec.system = system.clone();
            resolve_seeded(&mut spec, scenario, rng.next_u64());
            (
                scenario.to_string(),
                serde_json::to_string(&spec).expect("spec serialises"),
            )
        })
        .collect();
    let mut jobs: Vec<(String, String)> = (0..sizing.jobs)
        .map(|i| {
            let (scenario, body) = &bodies[i % bodies.len()];
            (format!("{scenario}-{i}"), body.clone())
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

/// Distinct scenario keys among the first `jobs` submissions.
pub fn serve_distinct_keys(sizing: &Sizing) -> usize {
    sizing.jobs.min(SCENARIOS.len())
}
