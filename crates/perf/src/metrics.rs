//! The benchmark's vocabulary: every metric name it may print, with unit,
//! clock, direction, and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` repeats the names and bounds; `tests/names.rs` keeps
//! the two in step.

use serde::{Deserialize, Serialize};

use crate::workloads::Workload;

/// Which clock a number is read from. *Host* time is this repo's
/// performance; *virtual* time/energy and exact counts are the simulated
/// system's results and repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Clock {
    Host,
    Virtual,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The workloads on whose path a metric lies. `perf run` prints a metric
/// only there; elsewhere it is absent, not zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    /// `evrard_2rank`: the only workload that checkpoints and that builds
    /// an offline tuner table.
    Evrard,
    /// `matrix_48`: the cells the telemetry-recorder probe re-runs.
    Matrix,
    /// `serve_closed`: the only workload with jobs, a queue and leases.
    Serve,
}

impl On {
    pub fn includes(self, workload: Workload) -> bool {
        match self {
            On::All => true,
            On::Evrard => workload == Workload::Evrard2Rank,
            On::Matrix => workload == Workload::Matrix48,
            On::Serve => workload == Workload::ServeClosed,
        }
    }
}

/// A metric a user of the system sees. `rel_bound` is the share of the
/// baseline by which it may worsen before `perf compare` (and the PR
/// driver) call it a regression; `abs_floor` is the absolute slack below
/// which a relative change is noise (the larger of the two applies).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rel_bound: f64,
    pub abs_floor: f64,
    pub on: On,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        rel_bound: 0.25,
        abs_floor: 0.0,
        on: On::All,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        rel_bound: 0.25,
        abs_floor: 0.05,
        on: On::All,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        rel_bound: 0.25,
        abs_floor: 0.0,
        on: On::All,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        rel_bound: 0.25,
        abs_floor: 0.0,
        on: On::All,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        rel_bound: 0.25,
        abs_floor: 0.0,
        on: On::All,
    },
    EndToEnd {
        name: "job_p50_s",
        unit: "s",
        better: Better::Lower,
        rel_bound: 0.25,
        abs_floor: 0.0,
        on: On::Serve,
    },
    EndToEnd {
        name: "job_p90_s",
        unit: "s",
        better: Better::Lower,
        rel_bound: 0.25,
        abs_floor: 0.0,
        on: On::Serve,
    },
];

/// A metric of one layer (crate). `moves` names the end-to-end metric and
/// workloads it is predicted to move — written down before measuring.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub moves: &'static str,
    pub on: On,
}

const fn host(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock: Clock::Host,
        better: Better::Lower,
        moves,
        on: On::All,
    }
}

/// Exact count or simulated quantity: repeats bit-for-bit for a seed.
const fn exact(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock: Clock::Virtual,
        better: Better::Lower,
        moves,
        on: On::All,
    }
}

const fn only(on: On, metric: PerLayer) -> PerLayer {
    PerLayer { on, ..metric }
}

const SPH_STEP: &str = "ops_per_s, cpu_s (all workloads)";
const SPH_DIST: &str = "ops_per_s on evrard_2rank";
const SIM_STACK: &str = "ops_per_s on matrix_48, serve_closed";
const SERVE: &str = "job_p50_s, job_p90_s on serve_closed";
const REPORT_ONLY: &str = "none (reported only)";

pub const PER_LAYER: [PerLayer; 78] = [
    host("trace_overhead_frac", "frac", REPORT_ONLY),
    // ---- sph ----
    host("sph.step_ms_p50", "ms", SPH_STEP),
    host("sph.step_ms_max", "ms", SPH_STEP),
    PerLayer {
        better: Better::Higher,
        ..host("sph.phase_closure", "frac", REPORT_ONLY)
    },
    host("sph.domain_sync_ms", "ms", SPH_DIST),
    host("sph.timestep_ms", "ms", SPH_DIST),
    host("sph.conservation_ms", "ms", SPH_DIST),
    exact("sph.repartitions", "count", SPH_DIST),
    exact("sph.migrated_particles", "count", SPH_DIST),
    host("sph.find_neighbors_ms", "ms", SPH_STEP),
    host("sph.density_ms", "ms", SPH_STEP),
    host("sph.iad_ms", "ms", SPH_STEP),
    host("sph.momentum_ms", "ms", SPH_STEP),
    host("sph.xmass_ms", "ms", SPH_STEP),
    host("sph.eos_ms", "ms", SPH_STEP),
    host("sph.av_ms", "ms", SPH_STEP),
    host("sph.update_ms", "ms", SPH_STEP),
    host(
        "sph.gravity_ms",
        "ms",
        "ops_per_s on evrard_2rank, matrix_48",
    ),
    host(
        "sph.ic_build_ms",
        "ms",
        "setup_s (step workloads), wall_s on matrix_48",
    ),
    only(
        On::Evrard,
        host("sph.snapshot_encode_ms", "ms", "wall_s on evrard_2rank"),
    ),
    only(
        On::Evrard,
        exact("sph.snapshot_bytes", "bytes", "wall_s on evrard_2rank"),
    ),
    exact("sph.energy_drift", "frac", REPORT_ONLY),
    // ---- cornerstone ----
    host(
        "cornerstone.key_sort_ms",
        "ms",
        "ops_per_s on turb_100k, evrard_2rank",
    ),
    host("cornerstone.octree_build_ms", "ms", SPH_DIST),
    host(
        "cornerstone.celllist_build_ms",
        "ms",
        "ops_per_s on turb_100k, evrard_2rank",
    ),
    host(
        "cornerstone.nlist_build_ms",
        "ms",
        "ops_per_s on turb_100k, evrard_2rank",
    ),
    exact("cornerstone.nlist_csr_bytes", "bytes", "peak_rss_mb"),
    exact("cornerstone.nlist_avg_neighbors", "count", SPH_STEP),
    // ---- par ----
    exact("par.workers", "count", REPORT_ONLY),
    host("par.spawn_us", "us", SIM_STACK),
    PerLayer {
        better: Better::Higher,
        ..host("par.cpu_per_wall", "ratio", "wall_s vs cpu_s")
    },
    // ---- ranks ----
    exact("ranks.collectives_per_step", "count", SPH_DIST),
    exact("ranks.p2p_bytes_per_step", "bytes", SPH_DIST),
    exact("ranks.collective_bytes_per_step", "bytes", SPH_DIST),
    host("ranks.allreduce_us", "us", SPH_DIST),
    // ---- core (freqscale) ----
    host("core.instrument_before_us", "us", SIM_STACK),
    host("core.instrument_after_us", "us", SIM_STACK),
    host("core.instrument_share", "frac", SIM_STACK),
    exact("core.launches", "count", SIM_STACK),
    host("core.spec_parse_us", "us", "wall_s on matrix_48"),
    host("core.finish_ms", "ms", "wall_s on matrix_48"),
    host("core.report_json_ms", "ms", "wall_s on matrix_48"),
    exact("core.report_json_bytes", "bytes", "wall_s on matrix_48"),
    only(
        On::Evrard,
        host("core.checkpoint_write_ms", "ms", "wall_s on evrard_2rank"),
    ),
    only(
        On::Evrard,
        exact("core.checkpoint_bytes", "bytes", "wall_s on evrard_2rank"),
    ),
    // ---- simulator stack ----
    host("archsim.run_region_pinned_ns", "ns", SIM_STACK),
    host("archsim.run_region_dvfs_ns", "ns", SIM_STACK),
    exact("archsim.segments_per_launch", "count", SIM_STACK),
    host("archsim.energy_between_ns", "ns", SIM_STACK),
    host("nvml.set_clocks_ns", "ns", SIM_STACK),
    host("pmt.read_ns", "ns", SIM_STACK),
    host("pmcounters.attach_ms", "ms", SIM_STACK),
    host("slurm.record_sacct_ms", "ms", SIM_STACK),
    host("online.propose_record_ns", "ns", SIM_STACK),
    host("online.predictive_propose_record_ns", "ns", SIM_STACK),
    exact("online.launches_to_pin", "count", SIM_STACK),
    exact("online.predictive_launches_to_pin", "count", SIM_STACK),
    PerLayer {
        better: Better::Higher,
        ..exact("online.pinned_frac", "frac", SIM_STACK)
    },
    exact("online.search_fallbacks", "count", SIM_STACK),
    host("online.store_roundtrip_us", "us", "wall_s on serve_closed"),
    host("model.fit_us", "us", SIM_STACK),
    host("model.predict_optimum_us", "us", SIM_STACK),
    // ---- tuner ----
    only(
        On::Evrard,
        host("tuner.tune_table_ms", "ms", "setup_s on evrard_2rank"),
    ),
    only(
        On::Evrard,
        host("tuner.exhaustive_sweep_ms", "ms", REPORT_ONLY),
    ),
    // ---- serve ----
    only(On::Serve, host("serve.ack_ms_p50", "ms", SERVE)),
    only(On::Serve, host("serve.queue_wait_ms_p50", "ms", SERVE)),
    only(On::Serve, host("serve.queue_wait_ms_p90", "ms", SERVE)),
    only(On::Serve, host("serve.run_s_p50", "s", SERVE)),
    only(
        On::Serve,
        host("serve.ping_us", "us", "setup_s on serve_closed"),
    ),
    // Frames carry host-time floats of varying width: a host-clock count.
    only(On::Serve, host("serve.frame_bytes_per_job", "bytes", SERVE)),
    only(On::Serve, exact("serve.lease_explorations", "count", SERVE)),
    only(On::Serve, exact("serve.lease_warm_starts", "count", SERVE)),
    // Which same-key jobs arrive while their explorer is still running
    // depends on host scheduling, so these two are host-clock counts.
    only(
        On::Serve,
        host("serve.lease_waits", "count", "job_p90_s on serve_closed"),
    ),
    only(On::Serve, host("serve.rejected", "count", SERVE)),
    // ---- telemetry / faults ----
    host("telemetry.inactive_span_ns", "ns", SPH_STEP),
    host("faults.inert_draw_ns", "ns", SIM_STACK),
    only(
        On::Matrix,
        host(
            "telemetry.recorder_overhead_frac",
            "frac",
            "none (item 5's 1 % budget)",
        ),
    ),
    only(
        On::Matrix,
        exact("telemetry.events_per_step", "count", REPORT_ONLY),
    ),
];

/// One printed number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub clock: Clock,
    /// Wall-clock metric taken on a host with fewer than two hardware
    /// threads: the number is real but says nothing about a normal host.
    #[serde(default)]
    pub degraded: bool,
}

impl Measured {
    /// The `name value unit clock=…` line `perf run` prints.
    pub fn line(&self) -> String {
        format!(
            "{} {} {} clock={}{}",
            self.name,
            self.value,
            self.unit,
            self.clock.label(),
            if self.degraded { " degraded" } else { "" }
        )
    }
}

/// Collects measured values against the declared tables; a name that is
/// not declared, or set twice, is a bug in the benchmark and panics. A
/// value for a metric that is off this workload's path is dropped, unless
/// the set was opened with `every_metric` (the PR driver's contract: every
/// declared name on every workload).
#[derive(Debug)]
pub struct MetricSet {
    workload: Workload,
    every_metric: bool,
    values: Vec<Measured>,
}

impl MetricSet {
    pub fn new(workload: Workload, every_metric: bool) -> Self {
        MetricSet {
            workload,
            every_metric,
            values: Vec::new(),
        }
    }

    /// Whether metrics declared `on` are reported by this set — ask before
    /// paying for a probe whose numbers would be dropped.
    pub fn wants(&self, on: On) -> bool {
        self.every_metric || on.includes(self.workload)
    }

    fn push(&mut self, name: &str, unit: &str, clock: Clock, on: On, value: f64) {
        assert!(
            self.values.iter().all(|m| m.name != name),
            "metric {name} set twice"
        );
        if self.wants(on) {
            self.values.push(Measured {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
                clock,
                degraded: false,
            });
        }
    }

    pub fn end_to_end(&mut self, name: &str, value: f64) {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("undeclared end-to-end metric {name}"));
        self.push(name, m.unit, Clock::Host, m.on, value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        self.push(name, m.unit, m.clock, m.on, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Mark every wall-clock-dependent value degraded (1-core host).
    /// `cpu_s`, memory and exact counts stay valid.
    pub fn mark_wall_clock_degraded(&mut self) {
        for m in &mut self.values {
            let cpu_or_mem = matches!(m.name.as_str(), "cpu_s" | "peak_rss_mb");
            if m.clock == Clock::Host && !cpu_or_mem {
                m.degraded = true;
            }
        }
    }

    pub fn into_values(self) -> Vec<Measured> {
        self.values
    }
}

/// Median of a non-empty sample (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank index (1-based) of the `per_mille` quantile among `n`
/// sorted samples, in integers: `0.9 * 100` is not 90 in floating point.
fn rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of a non-empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), (p * 10.0).round() as usize) - 1]
}

/// Percentiles a tail metric may report, ascending, in per-mille.
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder with at least ten samples beyond
/// it — the only tail a sample of `n` can state with any confidence. 120
/// samples give p90 (12 beyond); under 20 samples only the median is left.
pub fn highest_supported_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&pm| n > 0 && n - rank(n, pm) >= 10)
        .unwrap_or(500) as f64
        / 10.0
}

/// Tail latency under the ten-beyond rule, capped at `cap` (the percentile
/// the metric is named after): returns `(percentile used, value)`.
pub fn tail(samples: &[f64], cap: f64) -> (f64, f64) {
    let p = highest_supported_percentile(samples.len()).min(cap);
    (p, percentile(samples, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(highest_supported_percentile(8), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(120), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 60.0);
        assert_eq!(percentile(&s, 90.0), 108.0);
        assert_eq!(tail(&s, 90.0), (90.0, 108.0));
        assert_eq!(tail(&s[..30], 90.0), (50.0, 15.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
