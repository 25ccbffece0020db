//! Learned-table persistence.
//!
//! A `TableStore` is a directory of JSON files, one per `(GPU, workload)`
//! pair, each holding the per-kernel frequency table a previous run learned.
//! A later run on the same hardware and workload loads the table and
//! warm-starts: the tuner pins every kernel up front and spends zero
//! launches exploring.
//!
//! File layout: `<root>/<gpu>__<workload>.json` (names sanitised to
//! filesystem-safe characters), containing a [`StoredTable`] with the
//! identity key repeated inside the file so a store survives renames and
//! can be audited with a pager.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::controller::LearnedTable;
use crate::error::OnlineError;
use crate::predictive::{ModelTable, WarmState};

/// One persisted table, self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredTable {
    /// GPU spec name the table was learned on (e.g. `A100-PCIE-40GB`).
    pub gpu: String,
    /// Workload name (e.g. `turbulence-8`).
    pub workload: String,
    /// Learned per-kernel clocks.
    pub table: LearnedTable,
    /// Monotonic publish version for this `(gpu, workload)` slot. Each
    /// [`TableStore::save_warm`] moves it forward, so an in-process table
    /// server can evict an entry and later reload it from disk without ever
    /// handing out a version that goes backwards. Absent in pre-version
    /// files, which read back as version 0.
    #[serde(default)]
    pub version: u64,
    /// Fitted analytic models (predictive policy). Absent in pre-predictive
    /// files — those read back empty, and a predictive warm start then runs
    /// its probe phase. Omitted from the JSON when empty so search-only
    /// stores keep their old shape.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub models: ModelTable,
}

impl StoredTable {
    /// The entry's payload, without its identity and version.
    pub fn warm(self) -> WarmState {
        WarmState {
            table: self.table,
            models: self.models,
        }
    }
}

/// Directory-backed store of learned frequency tables.
///
/// Clones share a save lock, so concurrent [`TableStore::save`] calls from
/// one process serialize their read-bump-write and the persisted version
/// stays monotone per slot. Writers in *other* processes are only protected
/// by the atomic rename (no torn entries), not by the version bump.
#[derive(Debug, Clone)]
pub struct TableStore {
    root: PathBuf,
    save_lock: Arc<Mutex<()>>,
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl TableStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, OnlineError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(TableStore {
            root,
            save_lock: Arc::new(Mutex::new(())),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn file_for(&self, gpu: &str, workload: &str) -> PathBuf {
        self.root
            .join(format!("{}__{}.json", sanitize(gpu), sanitize(workload)))
    }

    /// Load the table learned for `(gpu, workload)`, if one is stored. A
    /// corrupt file is a hard [`OnlineError::Corrupt`], so audits catch it.
    pub fn load(&self, gpu: &str, workload: &str) -> Result<Option<LearnedTable>, OnlineError> {
        Ok(self.read(gpu, workload)?.map(|s| s.table))
    }

    fn read(&self, gpu: &str, workload: &str) -> Result<Option<StoredTable>, OnlineError> {
        let path = self.file_for(gpu, workload);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let stored: StoredTable =
            serde_json::from_str(&text).map_err(|e| OnlineError::Corrupt {
                path: path.clone(),
                detail: e.to_string(),
            })?;
        Ok(Some(stored))
    }

    /// Load the full entry for `(gpu, workload)`, degrading gracefully.
    ///
    /// Unlike [`TableStore::load`], this treats any unreadable entry as "no
    /// warm start available": it logs a warning, moves the offending file
    /// aside to `<name>.json.corrupt` so the bad bytes survive for
    /// inspection (and so the next save rebuilds a clean entry), and returns
    /// `None`. Production runs and the table server use this path: a
    /// truncated or hand-mangled store must cost one cold-start exploration,
    /// never a crash.
    pub fn load_or_rebuild(&self, gpu: &str, workload: &str) -> Option<StoredTable> {
        match self.read(gpu, workload) {
            Ok(found) => found,
            Err(OnlineError::Corrupt { path, detail }) => {
                let aside = path.with_extension("json.corrupt");
                let moved = fs::rename(&path, &aside).is_ok();
                eprintln!(
                    "warning: learned-table store entry {} is corrupt ({detail}); \
                     {} and rebuilding from a cold start",
                    path.display(),
                    if moved {
                        format!("moved aside to {}", aside.display())
                    } else {
                        "leaving it in place".to_string()
                    }
                );
                None
            }
            Err(e) => {
                eprintln!(
                    "warning: learned-table store unreadable for ({gpu}, {workload}): {e}; \
                     rebuilding from a cold start"
                );
                None
            }
        }
    }

    /// Persist a plain table: [`TableStore::save_warm`] with no models.
    pub fn save(
        &self,
        gpu: &str,
        workload: &str,
        table: &LearnedTable,
    ) -> Result<u64, OnlineError> {
        self.save_warm(
            gpu,
            workload,
            &WarmState {
                table: table.clone(),
                models: ModelTable::new(),
            },
        )
    }

    /// Persist `warm` for `(gpu, workload)`, replacing any previous entry.
    ///
    /// The entry's version advances past whatever is currently on disk
    /// (corrupt or missing entries restart from version 1); the read, bump
    /// and write happen under the save lock. Returns the version written.
    pub fn save_warm(
        &self,
        gpu: &str,
        workload: &str,
        warm: &WarmState,
    ) -> Result<u64, OnlineError> {
        let _bump = self.save_lock.lock().unwrap_or_else(|e| e.into_inner());
        let prior = match self.read(gpu, workload) {
            Ok(stored) => stored,
            Err(OnlineError::Corrupt { .. }) => None,
            Err(e) => return Err(e),
        };
        let version = prior.as_ref().map_or(0, |s| s.version) + 1;
        self.write(gpu, workload, warm, version, prior)?;
        Ok(version)
    }

    /// Persist `warm` for `(gpu, workload)` at an explicit `version` — the
    /// table server's write-behind path, which owns the version counter.
    pub fn save_at(
        &self,
        gpu: &str,
        workload: &str,
        warm: &WarmState,
        version: u64,
    ) -> Result<(), OnlineError> {
        // Only a model-less save needs the entry it replaces.
        let prior = if warm.models.is_empty() {
            self.read(gpu, workload).ok().flatten()
        } else {
            None
        };
        self.write(gpu, workload, warm, version, prior)
    }

    /// Stage and rename one entry. A save that carries no models keeps the
    /// ones `prior` holds: a search-only run refreshing a slot must not
    /// discard a predictive run's coefficients.
    ///
    /// The write is atomic: the entry is staged to a uniquely named
    /// `*.json.tmp.<pid>.<seq>` file in the same directory and renamed over
    /// the destination, so a concurrent reader sees either the old complete
    /// entry or the new complete entry — never a torn half-write — and a
    /// crash mid-save leaves the previous entry intact.
    fn write(
        &self,
        gpu: &str,
        workload: &str,
        warm: &WarmState,
        version: u64,
        prior: Option<StoredTable>,
    ) -> Result<(), OnlineError> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let models = match prior {
            Some(p) if warm.models.is_empty() => p.models,
            _ => warm.models.clone(),
        };
        let stored = StoredTable {
            gpu: gpu.to_string(),
            workload: workload.to_string(),
            table: warm.table.clone(),
            version,
            models,
        };
        let text = serde_json::to_string_pretty(&stored)
            .map_err(|e| OnlineError::InvalidConfig(e.to_string()))?;
        let dest = self.file_for(gpu, workload);
        let tmp = dest.with_extension(format!(
            "json.tmp.{}.{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        fs::write(&tmp, text)?;
        if let Err(e) = fs::rename(&tmp, &dest) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Every table in the store, in directory order.
    pub fn list(&self) -> Result<Vec<StoredTable>, OnlineError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = fs::read_to_string(&path)?;
            let stored: StoredTable =
                serde_json::from_str(&text).map_err(|e| OnlineError::Corrupt {
                    path: path.clone(),
                    detail: e.to_string(),
                })?;
            out.push(stored);
        }
        out.sort_by(|a, b| (&a.gpu, &a.workload).cmp(&(&b.gpu, &b.workload)));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::MegaHertz;
    use sph::FuncId;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("online-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_table() -> LearnedTable {
        let mut t = LearnedTable::new();
        t.insert(FuncId::XMass, MegaHertz(1050));
        t.insert(FuncId::MomentumEnergy, MegaHertz(1410));
        t
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmpdir("roundtrip");
        let store = TableStore::open(&dir).unwrap();
        assert_eq!(store.load("A100", "turbulence-8").unwrap(), None);
        let table = sample_table();
        store.save("A100", "turbulence-8", &table).unwrap();
        assert_eq!(store.load("A100", "turbulence-8").unwrap(), Some(table));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_isolated_and_sanitized() {
        let dir = tmpdir("keys");
        let store = TableStore::open(&dir).unwrap();
        let table = sample_table();
        store.save("A100/SXM4 80GB", "sedov n=50", &table).unwrap();
        assert_eq!(store.load("A100", "sedov n=50").unwrap(), None);
        assert_eq!(
            store.load("A100/SXM4 80GB", "sedov n=50").unwrap(),
            Some(table.clone())
        );
        let all = store.list().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].gpu, "A100/SXM4 80GB", "identity survives sanitising");
        assert_eq!(all[0].table, table);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_reported_not_swallowed() {
        let dir = tmpdir("corrupt");
        let store = TableStore::open(&dir).unwrap();
        fs::write(dir.join("A100__turb.json"), "{not json").unwrap();
        match store.load("A100", "turb") {
            Err(OnlineError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_or_rebuild_recovers_from_corruption() {
        let dir = tmpdir("rebuild");
        let store = TableStore::open(&dir).unwrap();
        fs::write(dir.join("A100__turb.json"), "{not json").unwrap();
        assert_eq!(
            store.load_or_rebuild("A100", "turb"),
            None,
            "corrupt entry degrades to a cold start"
        );
        assert!(
            !dir.join("A100__turb.json").exists(),
            "corrupt file is moved aside"
        );
        assert!(
            dir.join("A100__turb.json.corrupt").exists(),
            "bad bytes are preserved for inspection"
        );
        // The slot now rebuilds cleanly.
        let table = sample_table();
        store.save("A100", "turb", &table).unwrap();
        assert_eq!(
            store.load_or_rebuild("A100", "turb").map(|s| s.table),
            Some(table)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_or_rebuild_handles_truncated_and_missing_files() {
        let dir = tmpdir("truncated");
        let store = TableStore::open(&dir).unwrap();
        assert_eq!(store.load_or_rebuild("A100", "evrard"), None, "missing");
        // Simulate a write cut short mid-file (e.g. node OOM during save).
        let full = serde_json::to_string(&StoredTable {
            gpu: "A100".into(),
            workload: "evrard".into(),
            table: sample_table(),
            version: 1,
            models: ModelTable::new(),
        })
        .unwrap();
        fs::write(dir.join("A100__evrard.json"), &full[..full.len() / 2]).unwrap();
        assert_eq!(
            store.load_or_rebuild("A100", "evrard"),
            None,
            "truncated entry degrades to a cold start"
        );
        assert!(dir.join("A100__evrard.json.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    fn sample_models() -> ModelTable {
        let samples = [
            (1005.0, 0.090),
            (1140.0, 0.082),
            (1275.0, 0.076),
            (1410.0, 0.071),
        ]
        .map(|(f, t)| model::Sample {
            f_core_mhz: f,
            f_mem_mhz: 1593.0,
            time_s: t,
            energy_j: t * (80.0 + 0.1 * f),
        });
        let voltage = model::VoltageParams {
            v_min: 0.70,
            v_max: 1.05,
            f_min_mhz: 210.0,
            f_max_mhz: 1410.0,
        };
        let m = model::KernelModel::fit(&samples, 1410.0, 1593.0, voltage).unwrap();
        let mut t = ModelTable::new();
        t.insert(FuncId::XMass, m);
        t
    }

    /// Satellite: a PR-6-era store file — no `models` key at all — must
    /// load cleanly with empty models, so the predictive warm start falls
    /// through to its probe phase instead of crashing on the old schema.
    #[test]
    fn pre_model_schema_loads_with_empty_models() {
        let dir = tmpdir("oldschema");
        let store = TableStore::open(&dir).unwrap();
        // Byte-for-byte the shape `save` produced before models existed
        // (and before that, without `version` either).
        fs::write(
            dir.join("A100__turb.json"),
            r#"{"gpu":"A100","workload":"turb","table":{"XMass":1050},"version":3}"#,
        )
        .unwrap();
        fs::write(
            dir.join("A100__sedov.json"),
            r#"{"gpu":"A100","workload":"sedov","table":{"Gravity":1410}}"#,
        )
        .unwrap();
        let turb = store.load_or_rebuild("A100", "turb").unwrap();
        assert_eq!(turb.version, 3);
        assert!(turb.models.is_empty());
        let sedov = store.load_or_rebuild("A100", "sedov").unwrap();
        assert_eq!(sedov.version, 0, "pre-version files read as version 0");
        assert!(sedov.models.is_empty());
        // And a plain re-save of the old-format slot keeps models empty.
        store.save("A100", "turb", &sample_table()).unwrap();
        let resaved = store.load_or_rebuild("A100", "turb").unwrap();
        assert_eq!(resaved.version, 4);
        assert!(resaved.models.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Satellite: the new format — coefficients included — round-trips
    /// save/load bit-exactly.
    #[test]
    fn model_schema_round_trips_bit_exactly() {
        let dir = tmpdir("modelschema");
        let store = TableStore::open(&dir).unwrap();
        let warm = WarmState {
            table: sample_table(),
            models: sample_models(),
        };
        store.save_warm("A100", "turb", &warm).unwrap();
        let first = fs::read(dir.join("A100__turb.json")).unwrap();
        let stored = store.load_or_rebuild("A100", "turb").unwrap();
        assert_eq!(stored.clone().warm(), warm);
        // Re-saving the loaded entry reproduces the same bytes (version
        // pinned so the bump doesn't differ).
        store.save_at("A100", "turb", &stored.warm(), 1).unwrap();
        let second = fs::read(dir.join("A100__turb.json")).unwrap();
        assert_eq!(first, second, "save/load is bit-exact");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A search-only save must not discard a previous predictive run's
    /// fitted coefficients for the same slot.
    #[test]
    fn plain_save_preserves_stored_models() {
        let dir = tmpdir("preserve");
        let store = TableStore::open(&dir).unwrap();
        let warm = WarmState {
            table: sample_table(),
            models: sample_models(),
        };
        store.save_warm("A100", "turb", &warm).unwrap();
        store.save("A100", "turb", &sample_table()).unwrap();
        let stored = store.load_or_rebuild("A100", "turb").unwrap();
        assert_eq!(stored.version, 2);
        assert_eq!(stored.models, sample_models());
        // The table server's explicit-version path applies the same rule.
        store
            .save_at("A100", "turb", &WarmState::default(), 7)
            .unwrap();
        let stored = store.load_or_rebuild("A100", "turb").unwrap();
        assert_eq!(stored.version, 7);
        assert_eq!(stored.models, sample_models());
        let _ = fs::remove_dir_all(&dir);
    }
}
