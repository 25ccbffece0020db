//! The experiment daemon: accept loop, bounded queue, worker pool.
//!
//! The daemon is generic over an [`Executor`] — the thing that understands
//! spec files and runs experiments — so the serving machinery (sockets,
//! queueing, table leases, accounting, crash containment) carries no
//! dependency on the experiment runner. `freqscale-serve` plugs the real
//! runner in; the tests plug in mocks that block, fail or panic on cue.
//!
//! ## Lifecycle
//!
//! `Submit` frames are validated on the connection thread (cheap spec
//! parse), acknowledged `Queued` or `Rejected`, and enqueued. Workers pop
//! jobs FIFO, take a table lease when the job warm-starts, emit `Running`,
//! run the executor under `catch_unwind`, and emit exactly one `Finished`.
//! A panicking job — the chaos "kill" — resolves to `Finished { ok: false }`
//! and the worker survives to take the next job; the job's table lease (if
//! an exploration was in flight) is released by the guard's drop, so
//! waiters re-race instead of hanging.
//!
//! ## Accounting
//!
//! Each finished job contributes a Slurm-style accounting row (queue wait,
//! elapsed, whole-job `ConsumedEnergy`, node count) to an in-daemon ledger,
//! served in `Stats` as `sacct` pipe text; the per-job row rides in its
//! `Finished` event.
//!
//! ## What one client can hold
//!
//! A connection's request frames are read through a [`MAX_FRAME_BYTES`]
//! cap: a longer frame is answered `Rejected { reason: "bad_request: frame
//! longer than … bytes" }` and the connection is closed. At most
//! [`MAX_CONNECTIONS`] connections are served at once; the next one gets
//! one `Rejected { reason: "busy: … connections open" }` frame and is
//! closed. So no client can make the daemon grow a buffer or a thread
//! without bound.
//!
//! ## Client disconnects
//!
//! Event writes go through a per-connection handle that downgrades write
//! failures to "client gone": the job keeps running, its table publish
//! still happens, and the daemon keeps serving — a disconnect can never
//! wedge a worker.

use std::io::{self, BufRead, BufReader, Read};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use online::WarmState;
use slurm_sim::{SacctRow, SACCT_HEADER};

use crate::protocol::{write_frame, Event, Request, ServerStats, PROTOCOL_VERSION};
use crate::queue::BoundedQueue;
use crate::tables::{Lease, TableServer, TableServerConfig};

/// Longest request frame a connection may send, its newline not counted:
/// about 400 times the largest checked-in spec.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Connections served at once; the accept loop refuses the next one.
pub const MAX_CONNECTIONS: usize = 64;

/// What an executor learns from validating a spec, before any work runs.
#[derive(Debug, Clone)]
pub struct JobMeta {
    /// Default display name (e.g. `workload-policy`).
    pub name: String,
    /// GPU spec name — the first half of the table key.
    pub gpu: String,
    /// Workload/store key — the second half of the table key.
    pub workload: String,
    /// Whether this job participates in table serving (online policies).
    pub uses_tables: bool,
    /// Nodes the job will occupy, for the accounting row.
    pub nodes: usize,
}

/// What a finished job reports back.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// What the job's tuner learned, for publication: the pinned table and
    /// (predictive jobs) the fitted coefficients that let later leases
    /// warm-start probe-free. An empty table aborts an in-flight
    /// exploration instead of publishing.
    pub learned: WarmState,
    /// Exploration launches spent (0 on a full warm start).
    pub exploration_launches: u64,
    /// Whole-job wall time, seconds.
    pub elapsed_s: f64,
    /// Whole-job energy (sacct `ConsumedEnergy` view), joules.
    pub energy_j: f64,
    /// Energy attributable to the setup phase, joules.
    pub setup_energy_j: f64,
    /// Energy-delay product over the loop.
    pub edp: f64,
    /// Fault-recovery summary, when the job ran under a fault profile.
    pub recovery: Option<String>,
    /// Full experiment report JSON, if produced.
    pub report: Option<String>,
}

/// The daemon's view of an experiment runner.
pub trait Executor: Send + Sync + 'static {
    /// Cheap pre-queue validation: parse the spec, refuse garbage early,
    /// and derive the job's identity. Runs on the connection thread.
    fn validate(&self, spec_json: &str) -> Result<JobMeta, String>;

    /// Run the experiment. `warm` is the served warm-start state, when the
    /// job's key was already resolved by the table server. Runs on a worker
    /// thread; may panic (the daemon contains it).
    fn execute(&self, spec_json: &str, warm: Option<&WarmState>) -> Result<JobOutcome, String>;
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on (created; stale files replaced).
    pub socket: PathBuf,
    /// Bounded queue capacity; pushes past it are rejected `queue_full`.
    pub queue_capacity: usize,
    /// Worker threads; `0` sizes from the `par` layer's default. Each owns
    /// `1/workers` of that count for its jobs' data-parallel sweeps.
    pub workers: usize,
    /// Table-server configuration (persistence dir + LRU capacity).
    pub tables: TableServerConfig,
}

impl ServeConfig {
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            queue_capacity: 16,
            workers: 0,
            tables: TableServerConfig::default(),
        }
    }
}

/// Per-connection event writer; write failures mark the client gone.
#[derive(Clone)]
struct ClientHandle(Arc<Mutex<Option<UnixStream>>>);

impl ClientHandle {
    fn new(stream: UnixStream) -> Self {
        ClientHandle(Arc::new(Mutex::new(Some(stream))))
    }

    /// Send one event; on failure the connection is dropped and later sends
    /// become no-ops. Never propagates the error — a disconnected client
    /// must not affect the job or the daemon.
    fn send(&self, ev: &Event) {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stream) = slot.as_mut() {
            if write_frame(stream, ev).is_err() {
                *slot = None;
            }
        }
    }

    /// Run `f` with the writer locked — the submit path uses this to make
    /// enqueue + `Queued` ack atomic with respect to worker events.
    fn locked<R>(&self, f: impl FnOnce(&mut Option<UnixStream>) -> R) -> R {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut slot)
    }
}

struct Job {
    id: u64,
    name: String,
    spec: String,
    meta: JobMeta,
    client: ClientHandle,
    submitted: Instant,
}

struct Shared {
    exec: Box<dyn Executor>,
    queue: BoundedQueue<Job>,
    tables: TableServer,
    socket: PathBuf,
    stop: AtomicBool,
    /// Open connections, each held by one [`ConnectionSlot`].
    connections: AtomicUsize,
    next_id: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    ledger: Mutex<Vec<SacctRow>>,
}

impl Shared {
    fn server_stats(&self) -> ServerStats {
        ServerStats {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            queue_depth: self.queue.len(),
            tables: self.tables.stats(),
            sacct: self.sacct_text(),
        }
    }

    fn sacct_text(&self) -> String {
        let rows = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::from(SACCT_HEADER);
        for row in rows.iter() {
            out.push_str(&row.text());
        }
        out
    }

    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.close();
        // Poke the accept loop out of its blocking accept.
        let _ = UnixStream::connect(&self.socket);
    }
}

/// Namespace for [`Daemon::start`].
pub struct Daemon;

impl Daemon {
    /// Bind the socket, spawn the worker pool and the accept loop, and
    /// return a handle. Replaces a stale socket file at the path.
    pub fn start<E: Executor>(cfg: ServeConfig, exec: E) -> io::Result<DaemonHandle> {
        if cfg.socket.exists() {
            std::fs::remove_file(&cfg.socket)?;
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        let tables = TableServer::new(cfg.tables.clone())
            .map_err(|e| io::Error::other(format!("table server: {e}")))?;
        let shared = Arc::new(Shared {
            exec: Box::new(exec),
            queue: BoundedQueue::new(cfg.queue_capacity.max(1)),
            tables,
            socket: cfg.socket.clone(),
            stop: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            ledger: Mutex::new(Vec::new()),
        });
        let worker_count = if cfg.workers == 0 {
            par::max_threads()
        } else {
            cfg.workers
        };
        let workers: Vec<JoinHandle<()>> = (0..worker_count)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn accept loop")
        };
        Ok(DaemonHandle {
            shared,
            accept,
            workers,
        })
    }
}

/// Running daemon: stop it, join it, inspect it.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// Stop accepting, close the queue (already-queued jobs still drain).
    pub fn stop(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the accept loop and all workers, and remove the socket file.
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.shared.socket);
    }

    pub fn socket(&self) -> &Path {
        &self.shared.socket
    }

    /// The shared table server (tests inspect stats through this).
    pub fn tables(&self) -> TableServer {
        self.shared.tables.clone()
    }

    pub fn stats(&self) -> ServerStats {
        self.shared.server_stats()
    }
}

fn accept_loop(listener: UnixListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(mut s) => {
                let Some(slot) = ConnectionSlot::open(shared) else {
                    let _ = write_frame(
                        &mut s,
                        &Event::Rejected {
                            reason: format!("busy: {MAX_CONNECTIONS} connections open"),
                            name: None,
                        },
                    );
                    continue;
                };
                // Connection threads are detached: they end at client EOF,
                // and jobs hold their own writer handle, so a connection
                // thread never outlives anything that matters. The slot is
                // given back when the thread ends, or here if it never
                // starts.
                let _ = std::thread::Builder::new()
                    .name("serve-client".into())
                    .spawn(move || handle_client(&slot.0, s));
            }
            Err(_) => continue,
        }
    }
}

/// One of the [`MAX_CONNECTIONS`] open-connection slots, given back on drop.
struct ConnectionSlot(Arc<Shared>);

impl ConnectionSlot {
    fn open(shared: &Arc<Shared>) -> Option<Self> {
        let open = shared.connections.fetch_add(1, Ordering::Relaxed);
        let slot = ConnectionSlot(shared.clone());
        (open < MAX_CONNECTIONS).then_some(slot)
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_client(shared: &Arc<Shared>, stream: UnixStream) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let client = ClientHandle::new(stream);
    let mut frame = Vec::new();
    loop {
        frame.clear();
        // One byte past the cap tells an over-long frame from one that
        // ends exactly at it.
        let cap = MAX_FRAME_BYTES as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut frame) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if frame.len() > MAX_FRAME_BYTES && frame.last() != Some(&b'\n') {
            client.send(&Event::Rejected {
                reason: format!("bad_request: frame longer than {MAX_FRAME_BYTES} bytes"),
                name: None,
            });
            let _ = reader.get_ref().shutdown(Shutdown::Read);
            break;
        }
        let Ok(line) = std::str::from_utf8(&frame) else {
            break;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let req: Request = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => {
                client.send(&Event::Rejected {
                    reason: format!("bad_request: {e}"),
                    name: None,
                });
                continue;
            }
        };
        match req {
            Request::Submit { spec, name } => submit(shared, &client, spec, name),
            Request::Ping => client.send(&Event::Pong {
                version: PROTOCOL_VERSION,
            }),
            Request::Stats => client.send(&Event::Stats {
                stats: shared.server_stats(),
            }),
            Request::Shutdown => {
                client.send(&Event::ShuttingDown);
                shared.begin_shutdown();
                break;
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

fn submit(shared: &Arc<Shared>, client: &ClientHandle, spec: String, name: Option<String>) {
    let meta = match shared.exec.validate(&spec) {
        Ok(m) => m,
        Err(e) => {
            shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("serve.jobs.rejected", 1);
            client.send(&Event::Rejected {
                reason: format!("invalid_spec: {e}"),
                name,
            });
            return;
        }
    };
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let display_name = name.unwrap_or_else(|| meta.name.clone());
    let job = Job {
        id,
        name: display_name.clone(),
        spec,
        meta,
        client: client.clone(),
        submitted: Instant::now(),
    };
    // Enqueue and acknowledge under the connection's writer lock, so a
    // worker's `Running` event cannot be written before our `Queued` ack
    // (the ordering contract in the protocol docs).
    client.locked(|slot| {
        let ack = match shared.queue.try_push(job) {
            Ok(position) => {
                shared.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("serve.jobs.submitted", 1);
                Event::Queued {
                    job: id,
                    name: display_name.clone(),
                    position,
                }
            }
            Err(_) => {
                shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("serve.jobs.rejected", 1);
                Event::Rejected {
                    reason: "queue_full".to_string(),
                    name: Some(display_name.clone()),
                }
            }
        };
        if let Some(stream) = slot.as_mut() {
            if write_frame(stream, &ack).is_err() {
                *slot = None;
            }
        }
    });
}

fn worker_loop(shared: &Arc<Shared>) {
    telemetry::set_track("serve-worker");
    // A fixed share of the machine per worker, busy neighbours or not: what a
    // job gets (threads, and the memory they touch) does not depend on load.
    let _share = par::job_workers(1);
    while let Some(job) = shared.queue.pop() {
        run_job(shared, job);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_job(shared: &Arc<Shared>, job: Job) {
    let queue_wait_s = job.submitted.elapsed().as_secs_f64();
    job.client.send(&Event::Running {
        job: job.id,
        queue_wait_s,
    });
    telemetry::instant("serve", "job_start", None, vec![("job", job.id.into())]);

    // Resolve warm-start state through the table server. For a cold key
    // this worker may block here while another job explores the same key —
    // that is the single-flight contract.
    let lease = job
        .meta
        .uses_tables
        .then(|| shared.tables.lease(&job.meta.gpu, &job.meta.workload));
    let (warm, leased_version, guard) = match lease {
        Some(Lease::Warm { warm, version }) => (Some(warm), Some(version), None),
        Some(Lease::Explore(g)) => (None, None, Some(g)),
        None => (None, None, None),
    };
    let warm_start = warm.is_some();

    // Contain panics to the job: the chaos "kill a running job" vector.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        shared.exec.execute(&job.spec, warm.as_ref())
    }));

    let finished = match outcome {
        Ok(Ok(out)) => {
            let table_version = match guard {
                Some(g) if !out.learned.table.is_empty() => Some(g.publish(out.learned)),
                Some(g) => {
                    // Online job that learned nothing — release the flight.
                    drop(g);
                    None
                }
                None => leased_version,
            };
            let row = SacctRow {
                job_id: job.id,
                job_name: job.name.clone(),
                elapsed_s: out.elapsed_s,
                consumed_energy_j: Some(out.energy_j),
                nodes: job.meta.nodes,
            };
            let sacct = row.text();
            shared
                .ledger
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(row);
            shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("serve.jobs.completed", 1);
            Event::Finished {
                job: job.id,
                ok: true,
                error: None,
                warm_start,
                table_version,
                exploration_launches: out.exploration_launches,
                elapsed_s: out.elapsed_s,
                energy_j: out.energy_j,
                setup_energy_j: out.setup_energy_j,
                edp: out.edp,
                queue_wait_s,
                recovery: out.recovery,
                sacct,
                report: out.report,
            }
        }
        // In both failure arms an unconsumed `guard` drops at the end of
        // this function, aborting the flight so waiters re-race rather than
        // hang on a dead explorer.
        Ok(Err(e)) => failed_event(shared, &job, warm_start, queue_wait_s, e),
        Err(payload) => {
            let msg = format!("job panicked: {}", panic_message(payload));
            failed_event(shared, &job, warm_start, queue_wait_s, msg)
        }
    };
    job.client.send(&finished);
    telemetry::instant("serve", "job_end", None, vec![("job", job.id.into())]);
}

fn failed_event(
    shared: &Arc<Shared>,
    job: &Job,
    warm_start: bool,
    queue_wait_s: f64,
    error: String,
) -> Event {
    shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
    telemetry::counter_add("serve.jobs.failed", 1);
    Event::Finished {
        job: job.id,
        ok: false,
        error: Some(error),
        warm_start,
        table_version: None,
        exploration_launches: 0,
        elapsed_s: 0.0,
        energy_j: 0.0,
        setup_energy_j: 0.0,
        edp: 0.0,
        queue_wait_s,
        recovery: None,
        sacct: String::new(),
        report: None,
    }
}
