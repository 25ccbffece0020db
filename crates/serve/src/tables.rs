//! The shared in-process table server.
//!
//! Promotes the on-disk `online::TableStore` into a concurrent service:
//! an `RwLock`-guarded map of versioned learned tables keyed by
//! `(GPU, workload)`, with LRU eviction at a configurable capacity,
//! write-behind persistence to the store's JSON directory layout, and
//! single-flight semantics for cold keys.
//!
//! ## Single flight
//!
//! [`TableServer::lease`] is the only way a job obtains warm-start state.
//! For a cached key it returns [`Lease::Warm`] immediately. For a cold key
//! exactly one caller wins the flight and receives [`Lease::Explore`]; every
//! other concurrent caller for the same key *blocks inside `lease`* until
//! the winner publishes (then they return `Warm` with the new table) or
//! aborts (then they re-race for the flight). K queued jobs sharing a key
//! therefore cost one exploration, not K — and a crashed explorer can never
//! strand its waiters, because dropping an unused [`ExploreGuard`] (panic
//! unwinding included) aborts the flight and wakes them.
//!
//! ## Versioning
//!
//! Every publish moves the key's version forward. High-water marks live in
//! a side map that eviction never touches, and each version is persisted
//! inside the JSON entry (`StoredTable::version`), so a version observed by
//! any client is monotone per key even across LRU eviction, daemon restart
//! and write-behind races — the property the concurrency tests pin.
//!
//! ## Write-behind
//!
//! Publishes update the in-memory map synchronously and queue the disk
//! write to a persister thread, so the publish path never blocks on I/O.
//! [`TableServer::flush`] drains the persister (used at daemon shutdown and
//! by tests); writes go through `TableStore::save_at`, which stages to a
//! temp file and renames, so readers never observe a torn entry.
//!
//! ## Models
//!
//! An entry is one [`online::WarmState`]: the learned table plus whatever
//! fitted per-kernel model coefficients were published with it. Warm leases
//! hand the whole value back, so a repeat predictive submission skips even
//! the probe phase. A publish without models never erases the ones an entry
//! already holds — in memory or on disk.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};

use online::{LearnedTable, TableStore, WarmState};
use serde::{Deserialize, Serialize};

type Key = (String, String);

/// Configuration for [`TableServer`].
#[derive(Debug, Clone, Default)]
pub struct TableServerConfig {
    /// Directory for write-behind persistence (the `TableStore` layout).
    /// `None` keeps tables in memory only.
    pub dir: Option<std::path::PathBuf>,
    /// Maximum resident entries; least-recently-used entries are evicted
    /// past this. `0` means unbounded.
    pub capacity: usize,
}

/// Counter snapshot, exported through the protocol's `Stats` event.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TableServerStats {
    /// Leases served from the in-memory map.
    pub hits: u64,
    /// Leases that found no resident entry.
    pub misses: u64,
    /// Misses satisfied from the on-disk store.
    pub disk_loads: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Leases resolved to `Warm` (from memory, disk, or a publish).
    pub warm_starts: u64,
    /// Leases resolved to `Explore`.
    pub explorations: u64,
    /// Tables published by explorers.
    pub publishes: u64,
    /// Flights abandoned (explorer failed or learned nothing).
    pub aborts: u64,
    /// Times a lease blocked behind another key's in-flight exploration.
    pub waits: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Entry {
    warm: WarmState,
    version: u64,
    /// Monotonic use tick for LRU; atomic so hits can touch it under the
    /// read lock.
    last_used: AtomicU64,
}

struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    disk_loads: AtomicU64,
    evictions: AtomicU64,
    warm_starts: AtomicU64,
    explorations: AtomicU64,
    publishes: AtomicU64,
    aborts: AtomicU64,
    waits: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Counters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            explorations: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }
}

enum WriteMsg {
    Save {
        gpu: String,
        workload: String,
        warm: WarmState,
        version: u64,
    },
    Flush(mpsc::Sender<()>),
}

struct Inner {
    map: RwLock<HashMap<Key, Entry>>,
    /// Per-key version high-water marks. Never evicted, so versions stay
    /// monotone even when the table entry itself is dropped and reloaded.
    versions: Mutex<HashMap<Key, u64>>,
    /// Keys with an exploration in flight.
    flight: Mutex<HashSet<Key>>,
    flight_changed: Condvar,
    store: Option<TableStore>,
    capacity: usize,
    tick: AtomicU64,
    counters: Counters,
    writer: Option<mpsc::Sender<WriteMsg>>,
}

/// What a job gets from [`TableServer::lease`].
pub enum Lease {
    /// Warm-start from this state (version included for reporting). Its
    /// `models` are empty unless a predictive job explored this key.
    Warm { warm: WarmState, version: u64 },
    /// This caller won the flight for a cold key: run the exploration, then
    /// [`ExploreGuard::publish`] what it learned (or drop/abort to release
    /// the waiters to re-race).
    Explore(ExploreGuard),
}

/// Exclusive right to explore one cold key. Dropping without publishing
/// aborts the flight — this is what keeps a panicked explorer from
/// stranding its waiters.
pub struct ExploreGuard {
    inner: Arc<Inner>,
    key: Key,
    done: bool,
}

impl ExploreGuard {
    /// Publish what the exploration learned, waking all waiters with
    /// `Warm` leases. Returns the new version. When `learned` carries no
    /// models, any the entry already held (in memory or on disk) are
    /// preserved — a search-only publish must not discard a predictive
    /// run's coefficients.
    pub fn publish(mut self, learned: WarmState) -> u64 {
        self.done = true;
        self.inner.publish(&self.key, learned)
    }

    /// Abandon the flight without publishing; waiters re-race for it.
    pub fn abort(mut self) {
        self.done = true;
        self.inner.abort(&self.key);
    }
}

impl Drop for ExploreGuard {
    fn drop(&mut self) {
        if !self.done {
            self.inner.abort(&self.key);
        }
    }
}

impl Inner {
    fn bump(&self, counter: &AtomicU64, name: &'static str) {
        counter.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add(name, 1);
    }

    /// Fast-path lookup; touches the LRU tick on hit.
    fn cached(&self, key: &Key) -> Option<(WarmState, u64)> {
        let map = self.map.read().unwrap_or_else(|e| e.into_inner());
        let e = map.get(key)?;
        e.last_used.store(
            self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        Some((e.warm.clone(), e.version))
    }

    fn insert(&self, key: &Key, warm: WarmState, version: u64) {
        let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
        map.insert(
            key.clone(),
            Entry {
                warm,
                version,
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed) + 1),
            },
        );
        if self.capacity > 0 {
            while map.len() > self.capacity {
                let victim = map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                    .map(|(k, _)| k.clone())
                    .expect("map is over capacity, so non-empty");
                map.remove(&victim);
                self.bump(&self.counters.evictions, "serve.tables.evictions");
            }
        }
    }

    /// Record `version` as the key's high-water mark if it moves forward.
    fn observe_version(&self, key: &Key, version: u64) {
        let mut v = self.versions.lock().unwrap_or_else(|e| e.into_inner());
        let slot = v.entry(key.clone()).or_insert(0);
        *slot = (*slot).max(version);
    }

    fn next_version(&self, key: &Key) -> u64 {
        let mut v = self.versions.lock().unwrap_or_else(|e| e.into_inner());
        let slot = v.entry(key.clone()).or_insert(0);
        *slot += 1;
        *slot
    }

    fn publish(self: &Arc<Self>, key: &Key, mut learned: WarmState) -> u64 {
        // A model-less publish inherits whatever coefficients the resident
        // entry holds, so a search-only job refreshing a key never wipes a
        // predictive job's fit (`TableStore::save_at` applies the same rule
        // against the on-disk entry for keys that were evicted in between).
        if learned.models.is_empty() {
            if let Some((resident, _)) = self.cached(key) {
                learned.models = resident.models;
            }
        }
        let version = self.next_version(key);
        self.insert(key, learned.clone(), version);
        if let Some(tx) = &self.writer {
            let _ = tx.send(WriteMsg::Save {
                gpu: key.0.clone(),
                workload: key.1.clone(),
                warm: learned,
                version,
            });
        }
        self.bump(&self.counters.publishes, "serve.tables.publishes");
        self.release_flight(key);
        version
    }

    fn abort(self: &Arc<Self>, key: &Key) {
        self.bump(&self.counters.aborts, "serve.tables.aborts");
        self.release_flight(key);
    }

    fn release_flight(&self, key: &Key) {
        let mut fl = self.flight.lock().unwrap_or_else(|e| e.into_inner());
        fl.remove(key);
        drop(fl);
        self.flight_changed.notify_all();
    }
}

/// Shared handle to the table server; clones serve the same state.
#[derive(Clone)]
pub struct TableServer {
    inner: Arc<Inner>,
}

impl TableServer {
    pub fn new(cfg: TableServerConfig) -> std::io::Result<Self> {
        let store = match &cfg.dir {
            Some(dir) => Some(TableStore::open(dir).map_err(|e| {
                std::io::Error::other(format!("table store {}: {e}", dir.display()))
            })?),
            None => None,
        };
        // Write-behind persister: publishes enqueue, this thread writes.
        // The sender drops with `Inner`, which ends the thread.
        let writer = store.clone().map(|persist_store| {
            let (tx, rx) = mpsc::channel::<WriteMsg>();
            std::thread::Builder::new()
                .name("table-persist".into())
                .spawn(move || {
                    for msg in rx {
                        match msg {
                            WriteMsg::Save {
                                gpu,
                                workload,
                                warm,
                                version,
                            } => {
                                if let Err(e) =
                                    persist_store.save_at(&gpu, &workload, &warm, version)
                                {
                                    eprintln!(
                                        "warning: table write-behind for ({gpu}, {workload}) \
                                         failed: {e}"
                                    );
                                }
                            }
                            WriteMsg::Flush(ack) => {
                                let _ = ack.send(());
                            }
                        }
                    }
                })
                .expect("spawn table persister");
            tx
        });
        Ok(TableServer {
            inner: Arc::new(Inner {
                map: RwLock::new(HashMap::new()),
                versions: Mutex::new(HashMap::new()),
                flight: Mutex::new(HashSet::new()),
                flight_changed: Condvar::new(),
                store,
                capacity: cfg.capacity,
                tick: AtomicU64::new(0),
                counters: Counters::new(),
                writer,
            }),
        })
    }

    /// Obtain warm-start state for `(gpu, workload)` — see the module docs
    /// for the single-flight contract. Blocks while another caller explores
    /// the same key.
    pub fn lease(&self, gpu: &str, workload: &str) -> Lease {
        let key: Key = (gpu.to_string(), workload.to_string());
        let inner = &self.inner;
        loop {
            if let Some((warm, version)) = inner.cached(&key) {
                inner.bump(&inner.counters.hits, "serve.tables.hits");
                inner.bump(&inner.counters.warm_starts, "serve.tables.warm_starts");
                return Lease::Warm { warm, version };
            }
            let mut fl = inner.flight.lock().unwrap_or_else(|e| e.into_inner());
            // Re-check under the flight lock: a publisher inserts into the
            // map *before* releasing the flight, so "not cached and not in
            // flight" here really means cold.
            if let Some((warm, version)) = inner.cached(&key) {
                drop(fl);
                inner.bump(&inner.counters.hits, "serve.tables.hits");
                inner.bump(&inner.counters.warm_starts, "serve.tables.warm_starts");
                return Lease::Warm { warm, version };
            }
            if fl.contains(&key) {
                inner.bump(&inner.counters.waits, "serve.tables.waits");
                let _unused = inner
                    .flight_changed
                    .wait(fl)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            fl.insert(key.clone());
            drop(fl);
            inner.bump(&inner.counters.misses, "serve.tables.misses");
            // Cold in memory — try the on-disk store before exploring. A
            // corrupt entry degrades to exploration (load_or_rebuild moves
            // it aside), never a crash.
            if let Some(store) = &inner.store {
                if let Some(stored) = store.load_or_rebuild(gpu, workload) {
                    let version = stored.version;
                    let warm = stored.warm();
                    inner.observe_version(&key, version);
                    inner.insert(&key, warm.clone(), version);
                    inner.release_flight(&key);
                    inner.bump(&inner.counters.disk_loads, "serve.tables.disk_loads");
                    inner.bump(&inner.counters.warm_starts, "serve.tables.warm_starts");
                    return Lease::Warm { warm, version };
                }
            }
            inner.bump(&inner.counters.explorations, "serve.tables.explorations");
            return Lease::Explore(ExploreGuard {
                inner: inner.clone(),
                key,
                done: false,
            });
        }
    }

    /// Non-blocking peek at a resident entry (no stats, no LRU touch).
    pub fn peek(&self, gpu: &str, workload: &str) -> Option<(LearnedTable, u64)> {
        let key: Key = (gpu.to_string(), workload.to_string());
        let map = self.inner.map.read().unwrap_or_else(|e| e.into_inner());
        map.get(&key).map(|e| (e.warm.table.clone(), e.version))
    }

    /// Block until every queued write-behind save has hit disk.
    pub fn flush(&self) {
        if let Some(tx) = &self.inner.writer {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(WriteMsg::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }

    pub fn stats(&self) -> TableServerStats {
        let c = &self.inner.counters;
        TableServerStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            disk_loads: c.disk_loads.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            warm_starts: c.warm_starts.load(Ordering::Relaxed),
            explorations: c.explorations.load(Ordering::Relaxed),
            publishes: c.publishes.load(Ordering::Relaxed),
            aborts: c.aborts.load(Ordering::Relaxed),
            waits: c.waits.load(Ordering::Relaxed),
            entries: self
                .inner
                .map
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// What a search-only job publishes: a one-kernel table, no models.
    fn table(mhz: u32) -> WarmState {
        WarmState {
            table: [(sph::FuncId::XMass, archsim::MegaHertz(mhz))].into(),
            models: online::ModelTable::new(),
        }
    }

    /// A fitted single-kernel model set, as a predictive job would publish.
    fn models() -> online::ModelTable {
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
        [(sph::FuncId::XMass, m)].into()
    }

    fn mem_server(capacity: usize) -> TableServer {
        TableServer::new(TableServerConfig {
            dir: None,
            capacity,
        })
        .unwrap()
    }

    #[test]
    fn cold_key_explores_then_serves_warm() {
        let srv = mem_server(0);
        let lease = srv.lease("A100", "turb");
        let guard = match lease {
            Lease::Explore(g) => g,
            Lease::Warm { .. } => panic!("cold key must explore"),
        };
        assert_eq!(guard.publish(table(1410)), 1);
        match srv.lease("A100", "turb") {
            Lease::Warm { warm, version } => {
                assert_eq!(version, 1);
                assert_eq!(warm, table(1410), "plain publish carries no models");
            }
            Lease::Explore(_) => panic!("published key must be warm"),
        }
        let s = srv.stats();
        assert_eq!(s.explorations, 1);
        assert_eq!(s.warm_starts, 1);
        assert_eq!(s.publishes, 1);
    }

    #[test]
    fn k_concurrent_leases_single_flight() {
        let srv = mem_server(0);
        let k = 4;
        let barrier = Arc::new(Barrier::new(k));
        let handles: Vec<_> = (0..k)
            .map(|_| {
                let srv = srv.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    match srv.lease("A100", "turb") {
                        Lease::Explore(g) => {
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            g.publish(table(1200));
                            true
                        }
                        Lease::Warm { warm, version } => {
                            assert_eq!(warm, table(1200));
                            assert_eq!(version, 1);
                            false
                        }
                    }
                })
            })
            .collect();
        let explorers: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(explorers, 1, "exactly one of K concurrent leases explores");
        let s = srv.stats();
        assert_eq!(s.explorations, 1);
        assert_eq!(s.warm_starts, 3);
    }

    #[test]
    fn dropped_guard_releases_waiters_to_rerace() {
        let srv = mem_server(0);
        let g = match srv.lease("A100", "turb") {
            Lease::Explore(g) => g,
            _ => panic!("cold"),
        };
        let waiter = {
            let srv = srv.clone();
            std::thread::spawn(move || srv.lease("A100", "turb"))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g); // explorer "dies" without publishing
        match waiter.join().unwrap() {
            Lease::Explore(g2) => g2.abort(), // waiter re-races and wins the flight
            Lease::Warm { .. } => panic!("nothing was published"),
        }
        assert_eq!(srv.stats().aborts, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_only_past_capacity() {
        let srv = mem_server(2);
        for (i, key) in ["a", "b"].iter().enumerate() {
            match srv.lease("G", key) {
                Lease::Explore(g) => {
                    g.publish(table(1000 + i as u32));
                }
                _ => panic!("cold"),
            }
        }
        // Touch "a" so "b" is the LRU victim.
        assert!(matches!(srv.lease("G", "a"), Lease::Warm { .. }));
        match srv.lease("G", "c") {
            Lease::Explore(g) => {
                g.publish(table(1500));
            }
            _ => panic!("cold"),
        }
        assert_eq!(srv.stats().entries, 2);
        assert_eq!(srv.stats().evictions, 1);
        assert!(srv.peek("G", "a").is_some(), "recently used entry survives");
        assert!(srv.peek("G", "b").is_none(), "LRU entry evicted");
        assert!(srv.peek("G", "c").is_some());
    }

    #[test]
    fn versions_stay_monotone_across_eviction_with_store() {
        let dir = std::env::temp_dir().join(format!("serve-tables-mono-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let srv = TableServer::new(TableServerConfig {
            dir: Some(dir.clone()),
            capacity: 1,
        })
        .unwrap();
        match srv.lease("G", "a") {
            Lease::Explore(g) => {
                assert_eq!(g.publish(table(1000)), 1);
            }
            _ => panic!("cold"),
        }
        // Publishing "b" evicts "a" (capacity 1).
        match srv.lease("G", "b") {
            Lease::Explore(g) => {
                g.publish(table(1100));
            }
            _ => panic!("cold"),
        }
        assert!(srv.peek("G", "a").is_none(), "a evicted");
        srv.flush();
        // "a" reloads from disk at its persisted version, not version 0.
        match srv.lease("G", "a") {
            Lease::Warm { version, .. } => assert_eq!(version, 1),
            Lease::Explore(_) => panic!("disk should warm-start"),
        }
        // And republishing moves past the high-water mark.
        match srv.lease("G", "c") {
            Lease::Explore(g) => {
                g.publish(table(1200));
            }
            _ => panic!("cold"),
        }
        srv.flush();
        assert!(srv.peek("G", "a").is_none(), "a evicted again");
        match srv.lease("G", "a") {
            Lease::Warm { version, .. } => assert_eq!(version, 1),
            Lease::Explore(_) => panic!("disk entry persists"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_behind_persists_via_store_layout() {
        let dir = std::env::temp_dir().join(format!("serve-tables-wb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let srv = TableServer::new(TableServerConfig {
            dir: Some(dir.clone()),
            capacity: 0,
        })
        .unwrap();
        match srv.lease("A100", "turb") {
            Lease::Explore(g) => {
                g.publish(table(1410));
            }
            _ => panic!("cold"),
        }
        srv.flush();
        // Readable through a plain TableStore — same JSON layout.
        let store = TableStore::open(&dir).unwrap();
        let stored = store.load_or_rebuild("A100", "turb").unwrap();
        assert_eq!(stored.version, 1);
        assert_eq!(stored.warm(), table(1410));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_degrades_to_exploration() {
        let dir = std::env::temp_dir().join(format!("serve-tables-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("A100__turb.json"), "{definitely not json").unwrap();
        let srv = TableServer::new(TableServerConfig {
            dir: Some(dir.clone()),
            capacity: 0,
        })
        .unwrap();
        match srv.lease("A100", "turb") {
            Lease::Explore(g) => {
                g.publish(table(900));
            }
            Lease::Warm { .. } => panic!("corrupt entry must not warm-start"),
        }
        assert!(
            dir.join("A100__turb.json.corrupt").exists(),
            "bad bytes moved aside"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn published_models_round_trip_through_memory_and_disk() {
        let dir = std::env::temp_dir().join(format!("serve-tables-models-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let srv = TableServer::new(TableServerConfig {
            dir: Some(dir.clone()),
            capacity: 1,
        })
        .unwrap();
        match srv.lease("A100", "turb") {
            Lease::Explore(g) => {
                g.publish(WarmState {
                    models: models(),
                    ..table(1410)
                });
            }
            _ => panic!("cold"),
        }
        // Resident entry serves the models back.
        match srv.lease("A100", "turb") {
            Lease::Warm { warm, .. } => assert_eq!(warm.models, models()),
            Lease::Explore(_) => panic!("published key must be warm"),
        }
        // Evict via capacity 1, then reload: models come back from disk,
        // readable by a plain TableStore in the batch-runner layout.
        match srv.lease("A100", "other") {
            Lease::Explore(g) => {
                g.publish(table(900));
            }
            _ => panic!("cold"),
        }
        srv.flush();
        assert!(srv.peek("A100", "turb").is_none(), "evicted");
        let store = TableStore::open(&dir).unwrap();
        let stored = store.load_or_rebuild("A100", "turb").unwrap();
        assert_eq!(stored.models, models());
        match srv.lease("A100", "turb") {
            Lease::Warm { warm, .. } => {
                assert_eq!(warm.models, models(), "disk warm start has models")
            }
            Lease::Explore(_) => panic!("disk should warm-start"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn search_only_publish_preserves_existing_models() {
        let dir = std::env::temp_dir().join(format!("serve-tables-keep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let srv = TableServer::new(TableServerConfig {
            dir: Some(dir.clone()),
            capacity: 0,
        })
        .unwrap();
        // Seed the store the way a batch predictive run would.
        let store = TableStore::open(&dir).unwrap();
        let seeded = WarmState {
            models: models(),
            ..table(1410)
        };
        store.save_at("A100", "turb", &seeded, 1).unwrap();
        // First lease loads models from disk; pretend the entry goes stale
        // and an online (search-only) job republishes the key.
        match srv.lease("A100", "turb") {
            Lease::Warm { warm, .. } => assert_eq!(warm, seeded),
            Lease::Explore(_) => panic!("disk should warm-start"),
        }
        srv.inner
            .publish(&("A100".to_string(), "turb".to_string()), table(1200));
        srv.flush();
        // Neither the resident entry nor the disk entry lost the fit.
        match srv.lease("A100", "turb") {
            Lease::Warm { warm, .. } => {
                assert_eq!(warm.table, table(1200).table, "table refreshed");
                assert_eq!(warm.models, models(), "models inherited across the publish");
            }
            Lease::Explore(_) => panic!("warm"),
        }
        let stored = store.load_or_rebuild("A100", "turb").unwrap();
        assert_eq!(stored.table, table(1200).table);
        assert_eq!(stored.models, models());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
