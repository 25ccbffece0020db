//! Measurement reports: per-function, per-rank, per-node and per-experiment.
//!
//! These are the "reports that users can analyze to develop energy-efficient
//! code" of §I — JSON-serializable so the analysis scripts (and the bench
//! harness regenerating the paper's figures) consume them directly.

use std::collections::BTreeMap;

use archsim::MegaHertz;
use online::WarmState;
use serde::{Deserialize, Serialize};
use sph::FuncId;

/// Accumulated measurements for one instrumented function on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FunctionReport {
    pub calls: u64,
    /// Wall (virtual) time attributed to the function, seconds.
    pub time_s: f64,
    /// GPU energy attributed to the function, joules.
    pub gpu_j: f64,
    /// CPU-package energy attributed to the function (this rank's share),
    /// joules. Filled post-hoc by the runner: the host draws near-constant
    /// power while the GPU computes, so per-function CPU energy is
    /// proportional to duration — the paper's Fig. 5 observation.
    #[serde(default)]
    pub cpu_j: f64,
    /// Time-weighted average GPU clock during the function, MHz.
    pub avg_freq_mhz: f64,
}

/// One rank's measurement report (gathered at the end of the run, §III-B:
/// "measured per each MPI rank throughout the simulation ... stored into a
/// file for post-hoc analysis").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RankReport {
    pub rank: usize,
    /// Per-function accumulation. Keys are function names to keep the JSON
    /// self-describing.
    pub functions: BTreeMap<String, FunctionReport>,
    /// Time-stepping-loop wall time, seconds (PMT's measurement window).
    pub loop_time_s: f64,
    /// GPU energy over the loop, joules.
    pub gpu_loop_j: f64,
    /// True if a frequency-control call was denied (production systems that
    /// lock user-level clock changes).
    pub clock_control_denied: bool,
    /// GPU clock trace sampled over the loop: `(seconds, MHz)` (Fig. 9).
    pub freq_trace: Vec<(f64, u32)>,
    /// GPU power trace sampled over the loop: `(seconds, watts)`. Filled
    /// alongside `freq_trace`; the power-cap acceptance check reads it.
    #[serde(default)]
    pub power_trace: Vec<(f64, f64)>,
    /// Per-kernel clocks a learning policy (ManDynOnline /
    /// ManDynPredictive) committed by the end of the run. Keys are function
    /// names, values MHz.
    #[serde(default)]
    pub learned_table: BTreeMap<String, u32>,
    /// Launches spent exploring (before kernels were pinned) under a
    /// learning policy; `0` for other policies and for warm-started runs.
    #[serde(default)]
    pub exploration_launches: u64,
    /// Per-kernel memory P-state (MHz) the predictive policy committed:
    /// one entry per pinned kernel, at the default P-state unless the
    /// memory axis is open. Empty for every other policy (`ManDynOnline`
    /// never sets the memory clock).
    #[serde(default)]
    pub mem_table: BTreeMap<String, u32>,
    /// Fitted analytic models (predictive policy), keyed by function name —
    /// the coefficients a table store persists for model warm starts.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub models: BTreeMap<String, model::KernelModel>,
    /// Kernels that abandoned the predictive model path for the search
    /// (quarantined probes, rejected fits or failed verification).
    #[serde(default)]
    pub search_fallbacks: u64,
}

impl RankReport {
    /// What this rank's tuner learned, re-keyed from the report's kernel
    /// names to the typed [`WarmState`] that stores, the table server and
    /// checkpoints carry (names this build does not know are dropped).
    /// Empty when the run's policy learns nothing or pinned nothing.
    pub fn warm_state(&self) -> WarmState {
        WarmState {
            table: self
                .learned_table
                .iter()
                .filter_map(|(name, mhz)| Some((FuncId::from_name(name)?, MegaHertz(*mhz))))
                .collect(),
            models: self
                .models
                .iter()
                .filter_map(|(name, m)| Some((FuncId::from_name(name)?, m.clone())))
                .collect(),
        }
    }

    /// Function report by id.
    pub fn function(&self, func: FuncId) -> Option<&FunctionReport> {
        self.functions.get(func.name())
    }

    /// Sum of per-function GPU energy (should closely match `gpu_loop_j`).
    pub fn functions_gpu_j(&self) -> f64 {
        self.functions.values().map(|f| f.gpu_j).sum()
    }

    /// Sum of per-function time.
    pub fn functions_time_s(&self) -> f64 {
        self.functions.values().map(|f| f.time_s).sum()
    }

    /// Function energy shares of the rank's GPU energy, by name.
    pub fn gpu_energy_shares(&self) -> BTreeMap<String, f64> {
        let total = self.functions_gpu_j().max(1e-300);
        self.functions
            .iter()
            .map(|(name, f)| (name.clone(), f.gpu_j / total))
            .collect()
    }
}

/// Device-level energy breakdown of one node over a time window (what Fig. 4
/// shows as percentages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeBreakdown {
    pub node: usize,
    pub gpu_j: f64,
    pub cpu_j: f64,
    pub mem_j: f64,
    /// Auxiliary/uninstrumented draw — the paper's calculated "Other".
    pub other_j: f64,
}

impl NodeBreakdown {
    pub fn total_j(&self) -> f64 {
        self.gpu_j + self.cpu_j + self.mem_j + self.other_j
    }

    /// `(gpu, cpu, mem, other)` shares of the node total.
    pub fn shares(&self) -> (f64, f64, f64, f64) {
        let t = self.total_j().max(1e-300);
        (
            self.gpu_j / t,
            self.cpu_j / t,
            self.mem_j / t,
            self.other_j / t,
        )
    }

    /// Shares with memory folded into "Other" — the CSCS-A100 presentation
    /// (its blades expose no separate memory counter).
    pub fn shares_mem_in_other(&self) -> (f64, f64, f64) {
        let t = self.total_j().max(1e-300);
        (
            self.gpu_j / t,
            self.cpu_j / t,
            (self.mem_j + self.other_j) / t,
        )
    }
}

/// Everything measured in one experiment run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    pub system: String,
    pub workload: String,
    pub policy: String,
    pub ranks: usize,
    pub steps: usize,
    /// Time-stepping-loop wall time (time-to-solution), seconds.
    pub time_to_solution_s: f64,
    /// Whole-job elapsed (submit to end), seconds.
    pub job_elapsed_s: f64,
    pub per_rank: Vec<RankReport>,
    /// Per-node device breakdown over the *loop* window.
    pub per_node: Vec<NodeBreakdown>,
    /// PMT's view: GPU energy summed over ranks, loop window only.
    pub pmt_gpu_j: f64,
    /// PMT's per-device total (GPU + CPU + memory), loop window only.
    pub pmt_total_j: f64,
    /// Slurm's `ConsumedEnergy`: all nodes, whole job including setup.
    pub slurm_consumed_j: f64,
    /// Node energy over the loop window (devices + aux).
    pub node_loop_j: f64,
    /// Injected/recovered fault counts when the run carried a fault profile
    /// (all zero otherwise, and in builds without the `faults` feature).
    #[serde(default)]
    pub fault_stats: faults::FaultStats,
    /// Rank-ordered FNV-1a digest of every rank's final carried state —
    /// equal digests between two runs mean bit-identical trajectories
    /// (the kill→restore acceptance check compares exactly this).
    #[serde(default)]
    pub state_digest: u64,
    /// How many steps recomputed the SFC partition (the incremental
    /// repartitioner's whole point is keeping this far below `steps`).
    #[serde(default)]
    pub repartitions: u64,
    /// Total particles that changed owner across the run (allreduced).
    #[serde(default)]
    pub migrated_particles: u64,
}

impl ExperimentResult {
    /// Energy-delay product over the loop: node energy × time-to-solution.
    pub fn edp(&self) -> f64 {
        self.node_loop_j * self.time_to_solution_s
    }

    /// GPU-only EDP (per-GPU optimization view used in Figs. 6–8).
    pub fn gpu_edp(&self) -> f64 {
        self.pmt_gpu_j * self.time_to_solution_s
    }

    /// `(time, gpu_energy, gpu_edp)` of `self` normalized to `baseline`.
    pub fn normalized_to(&self, baseline: &ExperimentResult) -> (f64, f64, f64) {
        (
            self.time_to_solution_s / baseline.time_to_solution_s,
            self.pmt_gpu_j / baseline.pmt_gpu_j,
            self.gpu_edp() / baseline.gpu_edp(),
        )
    }

    /// Aggregate per-function report over all ranks.
    pub fn functions_all_ranks(&self) -> BTreeMap<String, FunctionReport> {
        let mut out: BTreeMap<String, FunctionReport> = BTreeMap::new();
        for rank in &self.per_rank {
            for (name, f) in &rank.functions {
                let e = out.entry(name.clone()).or_default();
                e.calls += f.calls;
                e.time_s += f.time_s;
                e.gpu_j += f.gpu_j;
                e.cpu_j += f.cpu_j;
                // Energy-weighted average frequency across ranks.
                e.avg_freq_mhz += f.avg_freq_mhz * f.gpu_j;
            }
        }
        for f in out.values_mut() {
            if f.gpu_j > 0.0 {
                f.avg_freq_mhz /= f.gpu_j;
            }
        }
        out
    }

    /// Whole-experiment device breakdown (sums node breakdowns).
    pub fn device_totals(&self) -> NodeBreakdown {
        let mut total = NodeBreakdown::default();
        for n in &self.per_node {
            total.gpu_j += n.gpu_j;
            total.cpu_j += n.cpu_j;
            total.mem_j += n.mem_j;
            total.other_j += n.other_j;
        }
        total
    }

    /// Export the aggregated per-function table as CSV (the hand-off format
    /// for external plotting/analysis scripts).
    pub fn functions_csv(&self) -> String {
        let mut out = String::from("function,calls,time_s,gpu_j,cpu_j,avg_freq_mhz,gpu_share\n");
        let agg = self.functions_all_ranks();
        let total: f64 = agg.values().map(|f| f.gpu_j).sum();
        for (name, f) in agg {
            out.push_str(&format!(
                "{},{},{:.6},{:.4},{:.4},{:.1},{:.5}\n",
                name,
                f.calls,
                f.time_s,
                f.gpu_j,
                f.cpu_j,
                f.avg_freq_mhz,
                f.gpu_j / total.max(1e-300)
            ));
        }
        out
    }

    /// Serialize to pretty JSON (the post-hoc analysis file of §III-B).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse a report file.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func_report(time_s: f64, gpu_j: f64) -> FunctionReport {
        FunctionReport {
            calls: 10,
            time_s,
            gpu_j,
            cpu_j: gpu_j * 0.1,
            avg_freq_mhz: 1400.0,
        }
    }

    #[test]
    fn rank_report_shares_sum_to_one() {
        let mut r = RankReport {
            rank: 0,
            ..Default::default()
        };
        r.functions
            .insert("MomentumEnergy".into(), func_report(2.0, 200.0));
        r.functions.insert("XMass".into(), func_report(0.5, 50.0));
        let shares = r.gpu_energy_shares();
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((shares["MomentumEnergy"] - 0.8).abs() < 1e-12);
        assert_eq!(r.function(FuncId::XMass).unwrap().gpu_j, 50.0);
        assert!(r.function(FuncId::Gravity).is_none());
    }

    #[test]
    fn node_breakdown_shares() {
        let n = NodeBreakdown {
            node: 0,
            gpu_j: 750.0,
            cpu_j: 100.0,
            mem_j: 50.0,
            other_j: 100.0,
        };
        let (g, c, m, o) = n.shares();
        assert!((g - 0.75).abs() < 1e-12);
        assert!((g + c + m + o - 1.0).abs() < 1e-12);
        let (g2, _c2, o2) = n.shares_mem_in_other();
        assert_eq!(g2, g);
        assert!((o2 - 0.15).abs() < 1e-12);
    }

    #[test]
    fn experiment_normalization_and_edp() {
        let base = ExperimentResult {
            time_to_solution_s: 10.0,
            pmt_gpu_j: 1000.0,
            node_loop_j: 2000.0,
            ..Default::default()
        };
        let other = ExperimentResult {
            time_to_solution_s: 11.0,
            pmt_gpu_j: 900.0,
            node_loop_j: 1900.0,
            ..Default::default()
        };
        assert_eq!(base.edp(), 20000.0);
        let (t, e, edp) = other.normalized_to(&base);
        assert!((t - 1.1).abs() < 1e-12);
        assert!((e - 0.9).abs() < 1e-12);
        assert!((edp - 0.99).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let mut r = ExperimentResult {
            system: "miniHPC".into(),
            workload: "SubsonicTurbulence".into(),
            policy: "mandyn".into(),
            ranks: 1,
            steps: 10,
            time_to_solution_s: 5.0,
            ..Default::default()
        };
        r.per_rank.push(RankReport {
            rank: 0,
            ..Default::default()
        });
        let json = r.to_json();
        let back = ExperimentResult::from_json(&json).unwrap();
        assert_eq!(back.system, "miniHPC");
        assert_eq!(back.per_rank.len(), 1);
    }

    #[test]
    fn functions_csv_has_header_and_rows() {
        let mut r0 = RankReport {
            rank: 0,
            ..Default::default()
        };
        r0.functions.insert("XMass".into(), func_report(1.0, 100.0));
        r0.functions
            .insert("MomentumEnergy".into(), func_report(2.0, 300.0));
        let result = ExperimentResult {
            per_rank: vec![r0],
            ..Default::default()
        };
        let csv = result.functions_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("function,calls,time_s,gpu_j,cpu_j"));
        assert!(csv.contains("MomentumEnergy,10,"));
        // Shares sum to 1 across rows.
        let share_sum: f64 = lines[1..]
            .iter()
            .map(|l| {
                l.rsplit(',')
                    .next()
                    .expect("share column")
                    .parse::<f64>()
                    .expect("float")
            })
            .sum();
        assert!((share_sum - 1.0).abs() < 1e-3);
    }

    #[test]
    fn functions_all_ranks_aggregates() {
        let mut r0 = RankReport {
            rank: 0,
            ..Default::default()
        };
        r0.functions.insert("XMass".into(), func_report(1.0, 100.0));
        let mut r1 = RankReport {
            rank: 1,
            ..Default::default()
        };
        r1.functions.insert("XMass".into(), func_report(2.0, 300.0));
        let result = ExperimentResult {
            per_rank: vec![r0, r1],
            ..Default::default()
        };
        let agg = result.functions_all_ranks();
        let x = &agg["XMass"];
        assert_eq!(x.calls, 20);
        assert_eq!(x.time_s, 3.0);
        assert_eq!(x.gpu_j, 400.0);
        assert!((x.avg_freq_mhz - 1400.0).abs() < 1e-9);
    }
}
