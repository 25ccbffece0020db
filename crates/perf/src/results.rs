//! Result files: what one workload run leaves in `target/perf/`, and the
//! one-line JSON the PR driver reads from stdout.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::metrics::Measured;
use crate::workloads::Sizing;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// A prediction written down before measuring (README "Predictions"),
/// reported as confirmed or refuted with the numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    pub name: String,
    pub confirmed: bool,
    pub detail: String,
}

/// Everything one workload run measured, with enough provenance to tell
/// whether two files are comparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    pub workload: String,
    pub git_rev: String,
    pub seed: u64,
    /// `registry` for the real crates.io dependencies, `stubs` when
    /// `bench.sh` had to fall back to the stand-ins under `stubs/`. Times
    /// from the two builds do not compare.
    pub deps: String,
    pub host_threads: usize,
    /// 1-minute load average when the run started.
    pub load_avg_1m: f64,
    /// The frozen step, cell and job counts this run used.
    pub sizing: Sizing,
    /// Fewer than two hardware threads: wall-clock metrics carry
    /// `degraded: true` and `perf compare` reports them `unresolved`.
    pub degraded: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub checks: Vec<Check>,
    #[serde(default)]
    pub predictions: Vec<Prediction>,
    /// From the untraced run (empty in a `--trace 1` result).
    #[serde(default)]
    pub end_to_end: Vec<Measured>,
    /// From the traced run (empty in a `--trace 0` result).
    #[serde(default)]
    pub per_layer: Vec<Measured>,
}

impl ResultFile {
    pub fn correct(&self) -> bool {
        self.ops_failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let body = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(path, body + "\n")
    }
}

/// A result set: one file holding one run (an object) or several (an
/// array, possibly with several runs per workload).
pub fn read_set(path: &Path) -> Result<Vec<ResultFile>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str::<Vec<ResultFile>>(&text)
        .or_else(|_| serde_json::from_str::<ResultFile>(&text).map(|r| vec![r]))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[derive(Serialize)]
struct DriverMetric {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct DriverLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, DriverMetric>,
}

/// The last stdout line of a run: `{"correct":…,"attempted":…,"failed":…,
/// "metrics":{name:{value,unit}}}`.
pub fn driver_line(result: &ResultFile, metrics: &[Measured]) -> String {
    let line = DriverLine {
        correct: result.correct(),
        attempted: result.ops_attempted.max(1),
        failed: result.ops_failed,
        metrics: metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                (
                    m.name.clone(),
                    DriverMetric {
                        value: m.value,
                        unit: m.unit.clone(),
                    },
                )
            })
            .collect(),
    };
    serde_json::to_string(&line).expect("driver line serialises")
}
