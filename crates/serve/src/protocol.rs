//! Wire protocol: line-delimited JSON over a Unix-domain socket.
//!
//! Every frame is one JSON value on one line, terminated by `\n`.
//! Experiment specs — themselves multi-line JSON documents — travel as an
//! embedded JSON *string* inside [`Request::Submit`]; string escaping keeps
//! the frame on a single line, and the daemon hands the spec text to its
//! executor verbatim, so the protocol layer never needs to understand
//! experiment schemas.
//!
//! ## Ordering contract
//!
//! Per connection, the daemon answers each `Submit` with exactly one
//! `Queued` or `Rejected` event, *in submission order* (the submit path
//! holds the connection's writer lock across enqueue + acknowledgement, so
//! a fast worker's `Running` event cannot overtake the `Queued` ack).
//! `Running`/`Finished` events carry the job id and may interleave
//! arbitrarily with later acknowledgements; clients demultiplex by id.

use std::io::{self, BufRead, Write};

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::tables::TableServerStats;

/// Bumped when a frame's shape changes incompatibly. Returned by `Pong`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Client → daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit one experiment. `spec` is the full spec-file JSON as a string;
    /// `name` is an optional display name (defaults to one derived from the
    /// spec by the executor).
    Submit {
        spec: String,
        #[serde(default)]
        name: Option<String>,
    },
    /// Liveness probe; answered with `Pong`.
    Ping,
    /// Snapshot of queue/table-server/accounting state; answered with
    /// `Stats`.
    Stats,
    /// Stop accepting work, drain the queue, exit. Answered with
    /// `ShuttingDown` before the daemon begins the drain.
    Shutdown,
}

/// Daemon → client. One line per event; `job` ids correlate streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// The submission was accepted and enqueued. `position` is the queue
    /// depth right after the push (1 = next to run).
    Queued {
        job: u64,
        name: String,
        position: usize,
    },
    /// The submission was not enqueued. `reason` is `queue_full` for
    /// backpressure, `invalid_spec: …` for a spec the executor refused,
    /// `bad_request: …` for an unparsable frame or an over-long one (which
    /// also closes the connection), or `busy: …` for a connection past the
    /// daemon's limit, which is then closed.
    Rejected {
        reason: String,
        #[serde(default)]
        name: Option<String>,
    },
    /// A worker picked the job up. `queue_wait_s` is the wall-clock time it
    /// spent queued — the Slurm "queue wait" analogue for a served job.
    Running { job: u64, queue_wait_s: f64 },
    /// Terminal state, exactly once per queued job — also for jobs that
    /// panicked or failed (then `ok: false` with `error` set and the
    /// measurement fields zeroed).
    Finished {
        job: u64,
        ok: bool,
        #[serde(default)]
        error: Option<String>,
        /// Whether the job started from a served warm table.
        warm_start: bool,
        /// Version of the table it warm-started from, or the version it
        /// published after exploring.
        #[serde(default)]
        table_version: Option<u64>,
        /// Kernel launches the online tuner spent exploring (0 on a full
        /// warm start — the pin the e2e tests assert on).
        exploration_launches: u64,
        elapsed_s: f64,
        /// Whole-job energy, sacct's `ConsumedEnergy` view.
        energy_j: f64,
        /// Energy attributable to the setup phase (whole-job minus loop).
        setup_energy_j: f64,
        edp: f64,
        queue_wait_s: f64,
        /// Fault-recovery summary when the job ran under a fault profile.
        #[serde(default)]
        recovery: Option<String>,
        /// This job's accounting row in `sacct` pipe-text layout.
        sacct: String,
        /// Full experiment report JSON, when the job produced one.
        #[serde(default)]
        report: Option<String>,
    },
    /// Answer to `Ping`.
    Pong { version: u32 },
    /// Answer to `Stats`.
    Stats { stats: ServerStats },
    /// Answer to `Shutdown`, sent before the drain begins.
    ShuttingDown,
}

/// Daemon-wide counters, served by `Request::Stats`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    pub jobs_submitted: u64,
    pub jobs_rejected: u64,
    pub jobs_completed: u64,
    pub jobs_failed: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    pub tables: TableServerStats,
    /// Accounting ledger for every finished job, `sacct` pipe-text layout.
    pub sacct: String,
}

/// Serialize `msg` as one line and flush it.
pub fn write_frame<T: Serialize, W: Write>(w: &mut W, msg: &T) -> io::Result<()> {
    let line = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Read the next non-empty line and parse it. `Ok(None)` on clean EOF.
pub fn read_frame<T: DeserializeOwned, R: BufRead>(r: &mut R) -> io::Result<Option<T>> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if line.trim().is_empty() {
            continue;
        }
        return serde_json::from_str(line.trim())
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_one_line_each() {
        let reqs = vec![
            Request::Submit {
                spec: "{\n  \"steps\": 3\n}".to_string(),
                name: Some("job-a".to_string()),
            },
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_frame(&mut buf, r).unwrap();
        }
        // A spec containing newlines must still serialize to one line.
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.lines().count(), reqs.len());

        let mut rd = io::BufReader::new(&buf[..]);
        for want in &reqs {
            let got: Request = read_frame(&mut rd).unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert!(read_frame::<Request, _>(&mut rd).unwrap().is_none(), "EOF");
    }

    #[test]
    fn events_round_trip() {
        let evs = vec![
            Event::Queued {
                job: 7,
                name: "t".into(),
                position: 2,
            },
            Event::Rejected {
                reason: "queue_full".into(),
                name: Some("t".into()),
            },
            Event::Running {
                job: 7,
                queue_wait_s: 0.25,
            },
            Event::Finished {
                job: 7,
                ok: true,
                error: None,
                warm_start: true,
                table_version: Some(3),
                exploration_launches: 0,
                elapsed_s: 12.5,
                energy_j: 4200.0,
                setup_energy_j: 800.0,
                edp: 31337.0,
                queue_wait_s: 0.25,
                recovery: None,
                sacct: "7|t|12.50s|4200J|1".into(),
                report: None,
            },
            Event::Pong {
                version: PROTOCOL_VERSION,
            },
            Event::ShuttingDown,
        ];
        let mut buf = Vec::new();
        for e in &evs {
            write_frame(&mut buf, e).unwrap();
        }
        let mut rd = io::BufReader::new(&buf[..]);
        for want in &evs {
            let got: Event = read_frame(&mut rd).unwrap().unwrap();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn unparsable_frame_is_invalid_data_not_eof() {
        let buf = b"this is not json\n".to_vec();
        let mut rd = io::BufReader::new(&buf[..]);
        let err = read_frame::<Request, _>(&mut rd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
