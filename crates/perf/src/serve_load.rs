//! Load generator for the experiment daemon: one connection written
//! against `serve::protocol`, a closed loop with a fixed number of jobs
//! outstanding, and client-side stamps per job. Framing is done here (not
//! through `serve::client`) so frame bytes can be counted and the next
//! submit can go out the moment a `Finished` arrives.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use freqscale::ExperimentExecutor;
use serve::protocol::{Event, Request, ServerStats};
use serve::tables::TableServerConfig;
use serve::{Daemon, ServeConfig};

/// Client-side view of one submitted job. Stamps are ns since `epoch`.
#[derive(Debug, Clone, Default)]
pub struct JobStamps {
    pub name: String,
    pub submit_ns: u64,
    pub ack_ns: u64,
    pub running_ns: u64,
    pub finished_ns: u64,
    pub ok: bool,
    pub rejected: bool,
    pub warm_start: bool,
    pub exploration_launches: u64,
    /// Request + ack + running + finished frames, newline included.
    pub frame_bytes: u64,
    pub report: Option<String>,
}

impl JobStamps {
    /// Submit sent → `Finished` received: what the submitting user waits.
    pub fn latency_s(&self) -> f64 {
        (self.finished_ns - self.submit_ns) as f64 / 1e9
    }
}

/// One connection with byte-counting frame I/O.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: String,
}

impl Conn {
    fn open(socket: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Send one request; returns the frame's size on the wire.
    fn send(&mut self, req: &Request) -> io::Result<u64> {
        let mut frame = serde_json::to_string(req).map_err(io::Error::other)?;
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()?;
        Ok(frame.len() as u64)
    }

    /// Next event and its size on the wire.
    fn recv(&mut self) -> io::Result<(Event, u64)> {
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the stream",
                ));
            }
            if self.line.trim().is_empty() {
                continue;
            }
            let ev = serde_json::from_str(self.line.trim())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            return Ok((ev, self.line.len() as u64));
        }
    }

    /// One `Ping` → `Pong` round trip, seconds.
    fn ping(&mut self) -> io::Result<f64> {
        let t = Instant::now();
        self.send(&Request::Ping)?;
        match self.recv()?.0 {
            Event::Pong { .. } => Ok(t.elapsed().as_secs_f64()),
            other => Err(io::Error::other(format!("expected Pong, got {other:?}"))),
        }
    }
}

/// Keep `outstanding` jobs in flight until all of `jobs` are finished or
/// rejected; results in submission order.
fn closed_loop(
    conn: &mut Conn,
    jobs: &[(String, String)],
    outstanding: usize,
    epoch: Instant,
) -> io::Result<Vec<JobStamps>> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut stamps: Vec<JobStamps> = Vec::with_capacity(jobs.len());
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut next_ack = 0usize;
    let mut done = 0usize;

    let submit = |conn: &mut Conn, stamps: &mut Vec<JobStamps>| -> io::Result<()> {
        let (name, spec) = &jobs[stamps.len()];
        let submit_ns = now();
        let bytes = conn.send(&Request::Submit {
            spec: spec.clone(),
            name: Some(name.clone()),
        })?;
        stamps.push(JobStamps {
            name: name.clone(),
            submit_ns,
            frame_bytes: bytes,
            ..JobStamps::default()
        });
        Ok(())
    };
    for _ in 0..outstanding.min(jobs.len()) {
        submit(conn, &mut stamps)?;
    }
    while done < jobs.len() {
        let (ev, bytes) = conn.recv()?;
        let t = now();
        let mut completed = false;
        match ev {
            // Acks arrive in submission order (the protocol's contract).
            Event::Queued { job, .. } => {
                stamps[next_ack].ack_ns = t;
                stamps[next_ack].frame_bytes += bytes;
                by_id.insert(job, next_ack);
                next_ack += 1;
            }
            Event::Rejected { .. } => {
                let s = &mut stamps[next_ack];
                (s.ack_ns, s.finished_ns, s.rejected) = (t, t, true);
                s.frame_bytes += bytes;
                next_ack += 1;
                completed = true;
            }
            Event::Running { job, .. } => {
                if let Some(&i) = by_id.get(&job) {
                    stamps[i].running_ns = t;
                    stamps[i].frame_bytes += bytes;
                }
            }
            Event::Finished {
                job,
                ok,
                warm_start,
                exploration_launches,
                report,
                ..
            } => {
                if let Some(&i) = by_id.get(&job) {
                    let s = &mut stamps[i];
                    s.finished_ns = t;
                    s.ok = ok;
                    s.warm_start = warm_start;
                    s.exploration_launches = exploration_launches;
                    s.report = report;
                    s.frame_bytes += bytes;
                    completed = true;
                }
            }
            Event::Pong { .. } | Event::Stats { .. } | Event::ShuttingDown => {}
        }
        if completed {
            done += 1;
            if stamps.len() < jobs.len() {
                submit(conn, &mut stamps)?;
            }
        }
    }
    Ok(stamps)
}

/// Everything one daemon lifetime produced.
pub struct ServeRun {
    /// `Daemon::start` → first `Pong`: what a user pays before submitting.
    pub setup_s: f64,
    pub jobs: Vec<JobStamps>,
    pub stats: ServerStats,
    /// Median `Ping` round trip over the idle daemon, seconds.
    pub ping_s: f64,
}

fn config(scratch: &Path, workers: usize) -> ServeConfig {
    ServeConfig {
        socket: scratch.join("d.sock"),
        queue_capacity: 16,
        workers,
        tables: TableServerConfig {
            dir: Some(scratch.join("tables")),
            capacity: 0,
        },
    }
}

/// Start a daemon, drive `jobs` through it in a closed loop with `workers`
/// outstanding, collect its stats, and shut it down. `pings` extra round
/// trips are timed on the idle daemon before the first submit.
pub fn run(
    scratch: &Path,
    jobs: &[(String, String)],
    workers: usize,
    pings: usize,
    epoch: Instant,
) -> io::Result<ServeRun> {
    let t = Instant::now();
    let handle = Daemon::start(config(scratch, workers), ExperimentExecutor)?;
    let driven: io::Result<(f64, f64, Vec<JobStamps>)> = (|| {
        let mut conn = Conn::open(handle.socket())?;
        conn.ping()?;
        let setup_s = t.elapsed().as_secs_f64();
        let mut rtts = Vec::with_capacity(pings.max(1));
        for _ in 0..pings.max(1) {
            rtts.push(conn.ping()?);
        }
        let stamps = closed_loop(&mut conn, jobs, workers, epoch)?;
        Ok((setup_s, crate::metrics::median(&rtts), stamps))
    })();
    let stats = handle.stats();
    handle.stop();
    handle.join();
    let (setup_s, ping_s, jobs) = driven?;
    Ok(ServeRun {
        setup_s,
        jobs,
        stats,
        ping_s,
    })
}
