//! Per-rank execution context: clock, collectives, point-to-point messaging.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use archsim::{SimDuration, SimInstant};

use crate::cost::CommCost;
use crate::shared::{AllgatherSlot, Envelope};

/// Reduction operators for `allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Min,
    Max,
    Sum,
}

/// Communication counters a rank accumulates over its lifetime — the data a
/// profiler would attribute to MPI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Collective operations entered (barrier/allreduce/allgather/bcast).
    pub collectives: u64,
    /// Bytes contributed to collectives.
    pub collective_bytes: u64,
    /// Point-to-point messages sent.
    pub sends: u64,
    /// Bytes sent point-to-point.
    pub send_bytes: u64,
    /// Point-to-point messages received.
    pub recvs: u64,
    /// Bytes received point-to-point.
    pub recv_bytes: u64,
}

/// Handle a rank's code runs against — the `MPI_Comm` of this runtime.
///
/// Every collective synchronizes *virtual clocks* as well as data: all
/// participants leave with `max(entry clocks) + model cost`, which is exactly
/// how a bulk-synchronous simulation timeline behaves.
pub struct RankCtx {
    rank: usize,
    size: usize,
    clock: SimInstant,
    slot: Arc<AllgatherSlot>,
    senders: Vec<Sender<Envelope>>,
    receivers: Vec<Receiver<Envelope>>,
    cost: CommCost,
    stats: CommStats,
    faults: faults::DeviceFaults,
    /// Straggler stalls injected since the last collective; a collective's
    /// clock synchronization absorbs them.
    stalls_pending: u64,
}

impl RankCtx {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        slot: Arc<AllgatherSlot>,
        senders: Vec<Sender<Envelope>>,
        receivers: Vec<Receiver<Envelope>>,
        cost: CommCost,
    ) -> Self {
        RankCtx {
            rank,
            size,
            clock: SimInstant::ZERO,
            slot,
            senders,
            receivers,
            cost,
            stats: CommStats::default(),
            faults: faults::DeviceFaults::default(),
            stalls_pending: 0,
        }
    }

    /// Install this rank's fault handle (inert by default). Local compute
    /// (`advance`) then becomes subject to injected straggler stalls.
    pub fn install_faults(&mut self, handle: faults::DeviceFaults) {
        self.faults = handle;
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The communication cost model in effect.
    pub fn cost(&self) -> CommCost {
        self.cost
    }

    /// This rank's virtual clock.
    pub fn now(&self) -> SimInstant {
        self.clock
    }

    /// Advance the local clock by `d` (local computation). An injected
    /// straggler stall inflates this one advance; the lost time is absorbed
    /// by the clock synchronization of the next collective.
    pub fn advance(&mut self, d: SimDuration) {
        let mut d = d;
        if !d.is_zero() && self.faults.straggler_stall() {
            self.faults.note_injected(faults::Channel::Straggler);
            self.stalls_pending += 1;
            let extra_ns = (d.as_nanos() as f64 * (self.faults.straggler_factor() - 1.0)) as u64;
            d += SimDuration::from_nanos(extra_ns);
        }
        self.clock += d;
    }

    /// Jump the local clock forward to `t` (no-op if already past).
    pub fn advance_to(&mut self, t: SimInstant) {
        self.clock = self.clock.max(t);
    }

    /// Communication counters accumulated so far.
    pub fn comm_stats(&self) -> CommStats {
        self.stats
    }

    /// Gather every rank's bytes; returns contributions in rank order.
    /// Synchronizes clocks to `max + collective cost`.
    pub fn allgather_bytes(&mut self, data: Vec<u8>) -> Vec<Vec<u8>> {
        self.stats.collectives += 1;
        self.stats.collective_bytes += data.len() as u64;
        let entry = self.clock;
        let max_bytes = data.len();
        let bytes_in = data.len();
        let gathered = self
            .slot
            .allgather(self.rank, (self.clock.as_nanos(), data));
        let mut max_clock = self.clock;
        let mut max_len = max_bytes;
        for (ns, payload) in &gathered {
            max_clock = max_clock.max(SimInstant::from_nanos(*ns));
            max_len = max_len.max(payload.len());
        }
        self.clock = max_clock + self.cost.collective(self.size, max_len);
        // The bulk-synchronous sync point is the straggler recovery: every
        // rank leaves at max(entry clocks), so a stalled rank's lost time is
        // bounded by one collective interval.
        if self.stalls_pending > 0 {
            self.faults
                .note_recovered_n(faults::Channel::Straggler, self.stalls_pending);
            self.stalls_pending = 0;
        }
        if telemetry::active() {
            telemetry::span_complete(
                "comm",
                "allgather",
                entry.as_nanos(),
                self.clock.as_nanos(),
                vec![("bytes", bytes_in.into()), ("world", self.size.into())],
            );
        }
        gathered.into_iter().map(|(_, payload)| payload).collect()
    }

    /// Barrier: synchronize clocks, move no data.
    pub fn barrier(&mut self) {
        let _ = self.allgather_bytes(Vec::new());
    }

    /// Allreduce over `f64` with the given operator.
    pub fn allreduce_f64(&mut self, value: f64, op: Op) -> f64 {
        let parts = self.allgather_bytes(value.to_le_bytes().to_vec());
        let vals = parts
            .iter()
            .map(|b| f64::from_le_bytes(b.as_slice().try_into().expect("8-byte f64 payload")));
        match op {
            Op::Min => vals.fold(f64::INFINITY, f64::min),
            Op::Max => vals.fold(f64::NEG_INFINITY, f64::max),
            Op::Sum => vals.sum(),
        }
    }

    /// Allreduce over `u64`.
    pub fn allreduce_u64(&mut self, value: u64, op: Op) -> u64 {
        let parts = self.allgather_bytes(value.to_le_bytes().to_vec());
        let vals = parts
            .iter()
            .map(|b| u64::from_le_bytes(b.as_slice().try_into().expect("8-byte u64 payload")));
        match op {
            Op::Min => vals.min().expect("non-empty world"),
            Op::Max => vals.max().expect("non-empty world"),
            Op::Sum => vals.sum(),
        }
    }

    /// Gather every rank's `f64` slice (variable length) in rank order.
    pub fn allgather_f64s(&mut self, values: &[f64]) -> Vec<Vec<f64>> {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.allgather_bytes(bytes)
            .into_iter()
            .map(|b| {
                b.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunks")))
                    .collect()
            })
            .collect()
    }

    /// Broadcast `data` from `root` to everyone.
    pub fn broadcast_bytes(&mut self, root: usize, data: Vec<u8>) -> Vec<u8> {
        let payload = if self.rank == root { data } else { Vec::new() };
        let mut gathered = self.allgather_bytes(payload);
        gathered.swap_remove(root)
    }

    /// Non-blocking point-to-point send of `data` to `dst`.
    pub fn send(&mut self, dst: usize, data: Vec<u8>) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        assert_ne!(dst, self.rank, "self-sends are not modeled");
        self.stats.sends += 1;
        self.stats.send_bytes += data.len() as u64;
        if telemetry::active() {
            telemetry::instant(
                "comm",
                "send",
                Some(self.clock.as_nanos()),
                vec![("dst", dst.into()), ("bytes", data.len().into())],
            );
        }
        self.senders[dst]
            .send((self.clock.as_nanos(), data))
            .expect("receiver thread alive for the world's lifetime");
    }

    /// Blocking receive of the next message from `src`. Advances the clock to
    /// the message's arrival time under the cost model.
    pub fn recv(&mut self, src: usize) -> Vec<u8> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let entry = self.clock;
        let (sent_ns, data) = self.receivers[src]
            .recv()
            .expect("sender thread alive for the world's lifetime");
        let arrival = SimInstant::from_nanos(sent_ns) + self.cost.p2p(data.len());
        self.clock = self.clock.max(arrival);
        self.stats.recvs += 1;
        self.stats.recv_bytes += data.len() as u64;
        if telemetry::active() {
            telemetry::span_complete(
                "comm",
                "recv",
                entry.as_nanos(),
                self.clock.as_nanos(),
                vec![("src", src.into()), ("bytes", data.len().into())],
            );
        }
        data
    }

    /// Symmetric neighbor exchange (the halo-exchange pattern): send one
    /// message to each peer in `outgoing`, then receive exactly one message
    /// from each of the same peers. Returns `(src, data)` pairs in peer order.
    pub fn exchange(&mut self, outgoing: Vec<(usize, Vec<u8>)>) -> Vec<(usize, Vec<u8>)> {
        let peers: Vec<usize> = outgoing.iter().map(|(dst, _)| *dst).collect();
        for (dst, data) in outgoing {
            self.send(dst, data);
        }
        peers.into_iter().map(|src| (src, self.recv(src))).collect()
    }
}

impl Drop for RankCtx {
    fn drop(&mut self) {
        // A stall after the last collective is absorbed by the end of the
        // rank's run itself; close the accounting so `all_recovered` holds.
        if self.stalls_pending > 0 {
            self.faults
                .note_recovered_n(faults::Channel::Straggler, self.stalls_pending);
            self.stalls_pending = 0;
        }
    }
}
