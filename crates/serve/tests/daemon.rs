//! Daemon lifecycle tests against a mock executor: backpressure, crash
//! containment, client disconnects and single-flight table serving — the
//! serving machinery proven without running any real experiment.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use serve::daemon::{
    Daemon, Executor, JobMeta, JobOutcome, ServeConfig, MAX_CONNECTIONS, MAX_FRAME_BYTES,
};
use serve::protocol::{read_frame, Event, Request};
use serve::tables::TableServerConfig;
use serve::{client, PROTOCOL_VERSION};

/// The mock's spec language.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MockSpec {
    /// Table key (workload half; GPU is fixed).
    key: String,
    /// "ok" | "fail" | "panic".
    mode: String,
    /// Participate in table serving.
    #[serde(default)]
    uses_tables: bool,
    /// Wait for the shared gate before finishing (lets tests hold jobs
    /// running deterministically).
    #[serde(default)]
    gated: bool,
}

fn spec(key: &str, mode: &str, uses_tables: bool, gated: bool) -> String {
    serde_json::to_string(&MockSpec {
        key: key.to_string(),
        mode: mode.to_string(),
        uses_tables,
        gated,
    })
    .unwrap()
}

#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut g = self.open.lock().unwrap();
        while !*g {
            g = self.cv.wait(g).unwrap();
        }
    }
}

struct MockExec {
    gate: Arc<Gate>,
}

impl Executor for MockExec {
    fn validate(&self, spec_json: &str) -> Result<JobMeta, String> {
        let spec: MockSpec = serde_json::from_str(spec_json).map_err(|e| e.to_string())?;
        if !matches!(spec.mode.as_str(), "ok" | "fail" | "panic") {
            return Err(format!("unknown mode {:?}", spec.mode));
        }
        Ok(JobMeta {
            name: format!("mock-{}", spec.key),
            gpu: "MockGPU".to_string(),
            workload: spec.key,
            uses_tables: spec.uses_tables,
            nodes: 1,
        })
    }

    fn execute(
        &self,
        spec_json: &str,
        warm: Option<&online::WarmState>,
    ) -> Result<JobOutcome, String> {
        let spec: MockSpec = serde_json::from_str(spec_json).unwrap();
        if spec.gated {
            self.gate.wait();
        }
        match spec.mode.as_str() {
            "panic" => panic!("chaos kill for {}", spec.key),
            "fail" => Err(format!("mock failure for {}", spec.key)),
            _ => {
                let explored = warm.is_none() && spec.uses_tables;
                let mut learned = online::WarmState::default();
                if explored {
                    learned
                        .table
                        .insert(sph::FuncId::XMass, archsim::MegaHertz(1200));
                }
                Ok(JobOutcome {
                    learned,
                    exploration_launches: if explored { 5 } else { 0 },
                    elapsed_s: 1.0,
                    energy_j: 100.0,
                    setup_energy_j: 10.0,
                    edp: 90.0,
                    recovery: None,
                    report: None,
                })
            }
        }
    }
}

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("serve-test-{tag}-{}.sock", std::process::id()))
}

fn start(tag: &str, queue: usize, workers: usize) -> (serve::DaemonHandle, Arc<Gate>, PathBuf) {
    let gate = Arc::new(Gate::default());
    let path = sock(tag);
    let cfg = ServeConfig {
        socket: path.clone(),
        queue_capacity: queue,
        workers,
        tables: TableServerConfig {
            dir: None,
            capacity: 0,
        },
    };
    let handle = Daemon::start(cfg, MockExec { gate: gate.clone() }).unwrap();
    (handle, gate, path)
}

#[test]
fn submit_runs_and_streams_lifecycle() {
    let (handle, gate, path) = start("basic", 8, 2);
    gate.open();
    let results = client::submit_all(
        &path,
        &[("job-a".to_string(), spec("k", "ok", false, false))],
    )
    .unwrap();
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert!(r.ok, "job succeeds: {r:?}");
    assert_eq!(r.name, "job-a");
    assert!(r.job.is_some());
    assert!(r.sacct.contains("job-a"), "sacct row rides the event");
    assert!(client::ping(&path).unwrap());
    handle.stop();
    handle.join();
}

#[test]
fn queue_overflow_rejects_cleanly_without_wedging() {
    // One worker, capacity 2: hold the first job running, fill the queue,
    // and the next submission must bounce with `queue_full`.
    let (handle, gate, path) = start("overflow", 2, 1);
    let mut w = UnixStream::connect(&path).unwrap();
    let mut r = BufReader::new(w.try_clone().unwrap());
    let send = |w: &mut UnixStream, name: &str, gated: bool| {
        let req = Request::Submit {
            spec: spec("k", "ok", false, gated),
            name: Some(name.to_string()),
        };
        let line = serde_json::to_string(&req).unwrap();
        writeln!(w, "{line}").unwrap();
    };
    let read = |r: &mut BufReader<UnixStream>| -> Event {
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        serde_json::from_str(line.trim()).unwrap()
    };

    send(&mut w, "j1", true);
    assert!(matches!(read(&mut r), Event::Queued { .. }));
    // Wait until the single worker has actually picked j1 up, so the queue
    // is empty and the fill below is deterministic.
    assert!(matches!(read(&mut r), Event::Running { .. }));
    send(&mut w, "j2", false);
    assert!(matches!(read(&mut r), Event::Queued { position: 1, .. }));
    send(&mut w, "j3", false);
    assert!(matches!(read(&mut r), Event::Queued { position: 2, .. }));
    // Queue now at capacity; backpressure must answer, not block or drop.
    send(&mut w, "j4", false);
    match read(&mut r) {
        Event::Rejected { reason, name } => {
            assert_eq!(reason, "queue_full");
            assert_eq!(name.as_deref(), Some("j4"));
        }
        other => panic!("expected queue_full rejection, got {other:?}"),
    }

    // Release the held job; everything accepted still completes.
    gate.open();
    let mut finished = 0;
    while finished < 3 {
        if let Event::Finished { ok, .. } = read(&mut r) {
            assert!(ok);
            finished += 1;
        }
    }
    // The daemon is not wedged: a fresh submission completes normally.
    let results =
        client::submit_all(&path, &[("j5".to_string(), spec("k", "ok", false, false))]).unwrap();
    assert!(results[0].ok);
    handle.stop();
    handle.join();
}

#[test]
fn panicking_job_fails_alone_daemon_survives() {
    let (handle, gate, path) = start("panic", 8, 2);
    gate.open();
    let results = client::submit_all(
        &path,
        &[
            ("boom".to_string(), spec("k", "panic", false, false)),
            ("calm".to_string(), spec("k", "ok", false, false)),
        ],
    )
    .unwrap();
    let boom = &results[0];
    assert!(!boom.ok);
    assert!(
        boom.error.as_deref().unwrap_or("").contains("chaos kill"),
        "panic message surfaces: {boom:?}"
    );
    assert!(results[1].ok, "sibling job unaffected");
    // Still serving after the kill.
    assert!(client::ping(&path).unwrap());
    let results = client::submit_all(
        &path,
        &[("after".to_string(), spec("k", "ok", false, false))],
    )
    .unwrap();
    assert!(results[0].ok);
    let stats = client::stats(&path).unwrap();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 2);
    handle.stop();
    handle.join();
}

#[test]
fn panicking_explorer_releases_single_flight_waiters() {
    let (handle, gate, path) = start("panic-explore", 8, 2);
    gate.open();
    // First job explores the key and dies mid-exploration; the second must
    // re-race, explore itself, and succeed — not hang on the dead flight.
    let results = client::submit_all(
        &path,
        &[
            ("boom".to_string(), spec("kx", "panic", true, false)),
            ("calm".to_string(), spec("kx", "ok", true, false)),
        ],
    )
    .unwrap();
    assert!(!results[0].ok);
    assert!(results[1].ok);
    assert_eq!(
        results[1].exploration_launches, 5,
        "nothing was published, so the survivor explores"
    );
    handle.stop();
    handle.join();
}

#[test]
fn client_disconnect_mid_stream_leaves_daemon_serving() {
    let (handle, gate, path) = start("disconnect", 8, 1);
    {
        let mut w = UnixStream::connect(&path).unwrap();
        let mut r = BufReader::new(w.try_clone().unwrap());
        let req = Request::Submit {
            spec: spec("k", "ok", false, true),
            name: Some("orphan".to_string()),
        };
        writeln!(w, "{}", serde_json::to_string(&req).unwrap()).unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("Queued"));
        // Drop the connection while the job is queued/running.
    }
    gate.open();
    // The orphaned job still completes and the daemon still serves.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = client::stats(&path).unwrap();
        if stats.jobs_completed >= 1 {
            assert!(stats.sacct.contains("orphan"), "orphan reached the ledger");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned job never completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let results = client::submit_all(
        &path,
        &[("next".to_string(), spec("k", "ok", false, false))],
    )
    .unwrap();
    assert!(results[0].ok);
    handle.stop();
    handle.join();
}

#[test]
fn k_submissions_one_key_single_flight_warm_start() {
    let (handle, gate, path) = start("singleflight", 8, 4);
    gate.open();
    let specs: Vec<(String, String)> = (0..4)
        .map(|i| (format!("same-{i}"), spec("shared", "ok", true, false)))
        .collect();
    let results = client::submit_all(&path, &specs).unwrap();
    assert!(results.iter().all(|r| r.ok), "{results:?}");
    let explored: Vec<_> = results
        .iter()
        .filter(|r| r.exploration_launches > 0)
        .collect();
    let warm: Vec<_> = results.iter().filter(|r| r.warm_start).collect();
    assert_eq!(explored.len(), 1, "exactly one of K explores: {results:?}");
    assert_eq!(warm.len(), 3, "the other K-1 warm-start: {results:?}");
    assert!(
        warm.iter().all(|r| r.exploration_launches == 0),
        "warm starts spend zero exploration launches"
    );
    assert!(
        warm.iter().all(|r| r.table_version == Some(1)),
        "waiters see the explorer's published version: {results:?}"
    );
    let stats = handle.stats();
    assert_eq!(stats.tables.explorations, 1);
    assert_eq!(stats.tables.publishes, 1);
    assert_eq!(stats.tables.warm_starts, 3);
    handle.stop();
    handle.join();
}

#[test]
fn invalid_spec_rejected_before_queueing() {
    let (handle, gate, path) = start("invalid", 8, 1);
    gate.open();
    let results = client::submit_all(
        &path,
        &[
            ("bad-json".to_string(), "{not a spec".to_string()),
            ("bad-mode".to_string(), spec("k", "explode", false, false)),
            ("good".to_string(), spec("k", "ok", false, false)),
        ],
    )
    .unwrap();
    assert!(results[0]
        .rejected
        .as_deref()
        .unwrap_or("")
        .starts_with("invalid_spec:"));
    assert!(results[1]
        .rejected
        .as_deref()
        .unwrap_or("")
        .contains("unknown mode"));
    assert!(results[2].ok, "valid spec unaffected by rejected siblings");
    handle.stop();
    handle.join();
}

/// Connect with a read timeout, so a daemon that never answers fails the
/// test instead of hanging it.
fn connect(path: &PathBuf) -> UnixStream {
    let s = UnixStream::connect(path).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

/// The next event on `r`, or `None` at EOF, on a reset connection or after
/// the read timeout.
fn next_event(r: &mut BufReader<UnixStream>) -> Option<Event> {
    read_frame(r).ok().flatten()
}

#[test]
fn over_long_frame_is_refused_and_a_fresh_connection_pings() {
    let (handle, _gate, path) = start("longframe", 8, 1);
    let mut w = connect(&path);
    let mut r = BufReader::new(w.try_clone().unwrap());
    // The daemon stops reading one byte past its cap and closes the
    // connection, so the rest of this write fails.
    let _ = w.write_all(&vec![b' '; 2 * MAX_FRAME_BYTES]);
    match next_event(&mut r) {
        Some(Event::Rejected { reason, name }) => {
            assert_eq!(
                reason,
                format!("bad_request: frame longer than {MAX_FRAME_BYTES} bytes")
            );
            assert_eq!(name, None);
        }
        other => panic!("expected the over-long frame refused, got {other:?}"),
    }
    assert!(next_event(&mut r).is_none(), "the connection is closed");
    assert!(client::ping(&path).unwrap(), "a fresh connection is served");
    handle.stop();
    handle.join();
}

#[test]
fn connection_past_the_cap_is_refused_until_one_closes() {
    let (handle, _gate, path) = start("conncap", 8, 1);
    // The accept loop counts connections in arrival order, so with the
    // cap's worth held open the next one is the first past it.
    let mut idle: Vec<UnixStream> = (0..MAX_CONNECTIONS)
        .map(|_| UnixStream::connect(&path).unwrap())
        .collect();
    let extra = connect(&path);
    match next_event(&mut BufReader::new(extra)) {
        Some(Event::Rejected { reason, .. }) => {
            assert_eq!(reason, format!("busy: {MAX_CONNECTIONS} connections open"));
        }
        other => panic!("expected the connection past the cap refused, got {other:?}"),
    }
    // A closed connection gives its slot back once its thread sees EOF.
    idle.pop();
    let served = (0..500).any(|_| {
        let pong = matches!(client::ping(&path), Ok(true));
        if !pong {
            std::thread::sleep(Duration::from_millis(10));
        }
        pong
    });
    assert!(served, "a connection after one closed is served");
    drop(idle);
    handle.stop();
    handle.join();
}

#[test]
fn shutdown_request_drains_and_exits() {
    let (handle, gate, path) = start("shutdown", 8, 2);
    gate.open();
    let results = client::submit_all(
        &path,
        &[("last".to_string(), spec("k", "ok", false, false))],
    )
    .unwrap();
    assert!(results[0].ok);
    assert!(client::ping(&path).unwrap());
    client::shutdown(&path).unwrap();
    // join() returning proves the accept loop and workers exited.
    handle.join();
    assert!(!path.exists(), "socket file removed on shutdown");
    let _ = PROTOCOL_VERSION;
}
