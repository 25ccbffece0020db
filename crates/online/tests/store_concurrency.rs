//! Concurrent `TableStore` access: N threads hammering save/load on
//! overlapping keys must never observe a torn entry, per-key versions must
//! be monotone, and `load_or_rebuild` must cold-start past corruption even
//! while writers race it. These properties are what make the store safe as
//! the write-behind target of the in-process table server.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use archsim::MegaHertz;
use online::{LearnedTable, OnlineError, TableStore};
use sph::FuncId;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("online-store-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A self-consistent table: every kernel pinned to the same clock, so a mix
/// of two writers' payloads is detectable.
fn uniform_table(mhz: u32) -> LearnedTable {
    let mut t = LearnedTable::new();
    for f in [
        FuncId::XMass,
        FuncId::MomentumEnergy,
        FuncId::FindNeighbors,
        FuncId::Timestep,
    ] {
        t.insert(f, MegaHertz(mhz));
    }
    t
}

fn assert_uniform(t: &LearnedTable) -> u32 {
    let mut values = t.values().map(|m| m.0);
    let first = values.next().expect("table non-empty");
    assert!(
        values.all(|v| v == first),
        "torn read: table mixes writers' payloads: {t:?}"
    );
    first
}

#[test]
fn concurrent_save_load_no_torn_reads() {
    let dir = tmpdir("torn");
    let store = TableStore::open(&dir).unwrap();
    let keys = ["turb-a", "turb-b", "evrard-c"];
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // 4 writers cycling over the shared keys with distinct payloads.
        for w in 0..4u32 {
            let store = store.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let key = keys[(i as usize + w as usize) % keys.len()];
                    store
                        .save("A100", key, &uniform_table(1000 + w))
                        .expect("save never fails under contention");
                    i += 1;
                }
            });
        }
        // 4 readers: every successful load parses and is self-consistent.
        for r in 0..4usize {
            let store = store.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut seen = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let key = keys[(seen as usize + r) % keys.len()];
                    match store.load("A100", key) {
                        Ok(Some(t)) => {
                            let v = assert_uniform(&t);
                            assert!((1000..1004).contains(&v), "unexpected payload {v}");
                        }
                        Ok(None) => {}
                        Err(OnlineError::Corrupt { path, detail }) => {
                            panic!("torn read at {}: {detail}", path.display())
                        }
                        Err(e) => panic!("unexpected store error: {e}"),
                    }
                    seen += 1;
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });

    // No stray staging files left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "staging files leaked: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_saves_keep_versions_monotone() {
    let dir = tmpdir("versions");
    let store = TableStore::open(&dir).unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for w in 0..3u32 {
            let store = store.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    store
                        .save("A100", "hot-key", &uniform_table(1100 + w))
                        .unwrap();
                }
            });
        }
        // One observer: the persisted version must never go backwards.
        let store_obs = store.clone();
        let stop_obs = stop.clone();
        let observer = s.spawn(move || {
            let mut last = 0u64;
            let mut observations = 0u32;
            while !stop_obs.load(Ordering::Relaxed) {
                // `list` reports a torn entry as a hard error, so it could
                // never pass for a version.
                if let Some(stored) = store_obs.list().unwrap().pop() {
                    assert!(
                        stored.version >= last,
                        "version went backwards: {} after {last}",
                        stored.version
                    );
                    last = stored.version;
                    observations += 1;
                }
            }
            (last, observations)
        });
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        let (last, observations) = observer.join().unwrap();
        assert!(observations > 0, "observer never saw an entry");
        assert!(last >= 1, "at least one versioned save landed");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_or_rebuild_cold_starts_past_corruption_under_contention() {
    let dir = tmpdir("corrupt");
    let store = TableStore::open(&dir).unwrap();
    // Seed a corrupt entry where the store expects JSON.
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("A100__wrecked.json"), "{torn mid-write").unwrap();

    std::thread::scope(|s| {
        // Several threads race load_or_rebuild on the corrupt key while
        // writers hammer a *different* key in the same directory.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = store.clone();
                s.spawn(move || store.load_or_rebuild("A100", "wrecked"))
            })
            .collect();
        for w in 0..2u32 {
            let store = store.clone();
            s.spawn(move || {
                for _ in 0..50 {
                    store
                        .save("A100", "healthy", &uniform_table(1300 + w))
                        .unwrap();
                }
            });
        }
        for h in handles {
            assert_eq!(
                h.join().unwrap(),
                None,
                "corrupt entry degrades to a cold start, never a crash"
            );
        }
    });
    assert!(
        !dir.join("A100__wrecked.json").exists(),
        "corrupt file moved aside"
    );
    // The slot rebuilds cleanly afterwards.
    store.save("A100", "wrecked", &uniform_table(1500)).unwrap();
    assert_eq!(
        store.load_or_rebuild("A100", "wrecked").map(|s| s.table),
        Some(uniform_table(1500))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
