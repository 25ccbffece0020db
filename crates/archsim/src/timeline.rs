//! Piecewise-constant power and frequency timelines.
//!
//! Every simulated device records its power draw as a sequence of contiguous
//! segments `[start, end) -> watts`. Energy over any window is the exact
//! integral of that step function; out-of-band samplers (`pm-counters`) and
//! in-band tools (`pmt`) both read these records, the former at 10 Hz, the
//! latter at a configurable rate — which is precisely what creates the
//! PMT-vs-Slurm discrepancies studied in §IV-A of the paper.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimInstant};
use crate::units::{Joules, MegaHertz, Watts};

/// One contiguous span of constant power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSegment {
    pub start: SimInstant,
    pub end: SimInstant,
    pub power: Watts,
}

impl PowerSegment {
    /// Length of the segment.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Energy of the whole segment.
    pub fn energy(&self) -> Joules {
        self.power.energy_over(self.duration())
    }
}

/// Append-only record of a device's power draw over virtual time.
///
/// Invariants (checked in debug builds and by property tests):
/// * segments are sorted, contiguous and non-overlapping;
/// * `end >= start` for every segment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PowerTimeline {
    segments: Vec<PowerSegment>,
}

impl PowerTimeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the device drew `power` from the current end of the
    /// timeline until `until`. Zero-length pushes are ignored. Panics (debug)
    /// if `until` precedes the current end — devices only move forward.
    pub fn push_until(&mut self, until: SimInstant, power: Watts) {
        let start = self.end_instant();
        debug_assert!(until >= start, "timeline must advance monotonically");
        if until <= start {
            return;
        }
        // Merge with the previous segment when power is unchanged, keeping the
        // record compact for long idle stretches.
        if let Some(last) = self.segments.last_mut() {
            if (last.power.0 - power.0).abs() < 1e-12 {
                last.end = until;
                return;
            }
        }
        self.segments.push(PowerSegment {
            start,
            end: until,
            power,
        });
    }

    /// The instant up to which this timeline has been recorded.
    pub fn end_instant(&self) -> SimInstant {
        self.segments.last().map_or(SimInstant::ZERO, |s| s.end)
    }

    /// Number of stored segments (post-merge).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Instantaneous power at `t`. Instants beyond the recorded end (or on an
    /// empty timeline) read as zero; `t` exactly at a boundary reads the
    /// segment that *starts* there.
    pub fn power_at(&self, t: SimInstant) -> Watts {
        match self.segments.binary_search_by(|s| {
            if t < s.start {
                std::cmp::Ordering::Greater
            } else if t >= s.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => self.segments[i].power,
            Err(_) => Watts::ZERO,
        }
    }

    /// Power of the most recent segment — what a live sensor query ("power
    /// right now") returns on a device that has advanced to its end instant.
    pub fn last_power(&self) -> Watts {
        self.segments.last().map_or(Watts::ZERO, |s| s.power)
    }

    /// Exact energy integral over `[a, b)`. Windows extending beyond the
    /// recorded end contribute zero there.
    pub fn energy_between(&self, a: SimInstant, b: SimInstant) -> Joules {
        if b <= a || self.segments.is_empty() {
            return Joules::ZERO;
        }
        // Find the first segment that may overlap [a, b).
        let first = self.segments.partition_point(|s| s.end <= a);
        let mut total = Joules::ZERO;
        for s in &self.segments[first..] {
            if s.start >= b {
                break;
            }
            let lo = s.start.max(a);
            let hi = s.end.min(b);
            total += s.power.energy_over(hi - lo);
        }
        total
    }

    /// Total recorded energy.
    pub fn total_energy(&self) -> Joules {
        self.segments.iter().map(PowerSegment::energy).sum()
    }

    /// Average power over `[a, b)`.
    pub fn average_power(&self, a: SimInstant, b: SimInstant) -> Watts {
        self.energy_between(a, b).average_power(b - a)
    }

    /// Sample the timeline at a fixed `period`, starting at `from`, up to and
    /// including the first sample at-or-after `to`. This is how an out-of-band
    /// collector (10 Hz on Cray blades) or a polling tool sees the device.
    pub fn sample(
        &self,
        from: SimInstant,
        to: SimInstant,
        period: SimDuration,
    ) -> Vec<(SimInstant, Watts)> {
        assert!(!period.is_zero(), "sampling period must be positive");
        let mut out = Vec::new();
        let mut t = from;
        loop {
            out.push((t, self.power_at(t)));
            if t >= to {
                break;
            }
            t += period;
        }
        out
    }

    /// Average power per `period`-long bucket over `[from, to)` — what a
    /// collector that differences an energy counter (Cray pm_counters, NVML
    /// total-energy) reports. Unlike [`PowerTimeline::sample`], microsecond
    /// transients (clock-transition energy folded into a short segment) are
    /// smeared over the bucket instead of aliasing into full-height spikes.
    /// Each entry is `(bucket start, average power over the bucket)`.
    pub fn sample_average(
        &self,
        from: SimInstant,
        to: SimInstant,
        period: SimDuration,
    ) -> Vec<(SimInstant, Watts)> {
        assert!(!period.is_zero(), "sampling period must be positive");
        let mut out = Vec::new();
        let mut t = from;
        while t < to {
            let bucket_end = (t + period).min(to);
            out.push((t, self.average_power(t, bucket_end)));
            t = bucket_end;
        }
        out
    }

    /// Estimate energy over `[a, b)` from discrete samples at `period`, using
    /// left-rectangle integration — the strategy real polling-based tools use.
    /// The difference to [`PowerTimeline::energy_between`] is the sampling
    /// error the paper validates against Slurm in §IV-A.
    pub fn sampled_energy(&self, a: SimInstant, b: SimInstant, period: SimDuration) -> Joules {
        assert!(!period.is_zero(), "sampling period must be positive");
        if b <= a {
            return Joules::ZERO;
        }
        let mut total = Joules::ZERO;
        let mut t = a;
        while t < b {
            let step_end = (t + period).min(b);
            total += self.power_at(t).energy_over(step_end - t);
            t = step_end;
        }
        total
    }
}

/// Append-only record of the clock frequency a device was running at.
///
/// Used to produce Fig. 9 (the DVFS frequency trace) and to audit what the
/// governor actually did.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FreqTimeline {
    points: Vec<(SimInstant, MegaHertz)>,
}

impl FreqTimeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the clock changed to `f` at instant `t`. Consecutive
    /// identical frequencies are merged.
    pub fn record(&mut self, t: SimInstant, f: MegaHertz) {
        if let Some(&(last_t, last_f)) = self.points.last() {
            debug_assert!(t >= last_t, "frequency trace must advance monotonically");
            if last_f == f {
                return;
            }
        }
        self.points.push((t, f));
    }

    /// Frequency in effect at `t` (the last change at or before `t`).
    pub fn freq_at(&self, t: SimInstant) -> Option<MegaHertz> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }

    /// All recorded change points.
    pub fn points(&self) -> &[(SimInstant, MegaHertz)] {
        &self.points
    }

    /// Sample the trace at a fixed period over `[from, to]`, as a monitoring
    /// daemon polling `nvmlDeviceGetClockInfo` would.
    pub fn sample(
        &self,
        from: SimInstant,
        to: SimInstant,
        period: SimDuration,
    ) -> Vec<(SimInstant, MegaHertz)> {
        assert!(!period.is_zero(), "sampling period must be positive");
        let mut out = Vec::new();
        let mut t = from;
        loop {
            if let Some(f) = self.freq_at(t) {
                out.push((t, f));
            }
            if t >= to {
                break;
            }
            t += period;
        }
        out
    }

    /// Time-weighted average frequency over `[a, b)`.
    pub fn average_freq(&self, a: SimInstant, b: SimInstant) -> Option<MegaHertz> {
        if b <= a || self.points.is_empty() {
            return None;
        }
        let mut weighted = 0.0f64;
        let span = (b - a).as_secs_f64();
        let mut cursor = a;
        let start_idx = self
            .points
            .partition_point(|&(pt, _)| pt <= a)
            .saturating_sub(1);
        let mut cur = self.freq_at(a)?;
        for &(pt, f) in &self.points[start_idx..] {
            if pt >= b {
                break;
            }
            if pt > cursor {
                weighted += cur.0 as f64 * (pt - cursor).as_secs_f64();
                cursor = pt;
            }
            cur = f;
        }
        weighted += cur.0 as f64 * (b - cursor).as_secs_f64();
        Some(MegaHertz((weighted / span).round() as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimInstant {
        SimInstant::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn push_and_integrate_exact() {
        let mut tl = PowerTimeline::new();
        tl.push_until(t(10), Watts(100.0)); // 10ms @ 100W = 1 J
        tl.push_until(t(30), Watts(50.0)); // 20ms @ 50W  = 1 J
        assert_eq!(tl.total_energy(), Joules(2.0));
        assert_eq!(tl.energy_between(t(0), t(30)), Joules(2.0));
        // Partial windows cut segments exactly.
        assert_eq!(tl.energy_between(t(5), t(15)), Joules(0.5 + 0.25));
    }

    #[test]
    fn averaged_sampling_smears_short_transients() {
        let mut tl = PowerTimeline::new();
        tl.push_until(t(5), Watts(100.0));
        // A 0.1 ms transition spike at 2400 W carries only 0.24 J …
        tl.push_until(SimInstant::from_nanos(5_100_000), Watts(2400.0));
        tl.push_until(t(10), Watts(100.0));
        // … so a point sampler that lands on it sees the full spike,
        let spiked = tl.power_at(SimInstant::from_nanos(5_050_000));
        assert_eq!(spiked, Watts(2400.0));
        // while the energy-counter view smears it across the bucket.
        let avg = tl.sample_average(t(0), t(10), SimDuration::from_millis(10));
        assert_eq!(avg.len(), 1);
        assert!(
            (avg[0].1 .0 - 123.0).abs() < 1e-9,
            "100 W base + 0.23 J extra over 10 ms: {}",
            avg[0].1
        );
        // Buckets honor the window end: a 4 ms tail bucket averages alone.
        let parts = tl.sample_average(t(0), t(10), SimDuration::from_millis(6));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[1].0, t(6));
    }

    #[test]
    fn sample_average_of_empty_timeline_is_zero_power() {
        let tl = PowerTimeline::new();
        let avg = tl.sample_average(t(0), t(20), SimDuration::from_millis(10));
        assert_eq!(avg.len(), 2, "buckets still cover the window");
        assert!(avg.iter().all(|&(_, w)| w == Watts(0.0)));
        // An empty window produces no buckets at all.
        assert!(tl
            .sample_average(t(5), t(5), SimDuration::from_millis(10))
            .is_empty());
    }

    #[test]
    fn sample_average_single_sample_covers_whole_window() {
        let mut tl = PowerTimeline::new();
        tl.push_until(t(10), Watts(100.0));
        let avg = tl.sample_average(t(0), t(10), SimDuration::from_millis(10));
        assert_eq!(avg, vec![(t(0), Watts(100.0))]);
        // A period longer than the window clamps to the window end rather
        // than averaging past it.
        let avg = tl.sample_average(t(0), t(10), SimDuration::from_millis(25));
        assert_eq!(avg, vec![(t(0), Watts(100.0))]);
    }

    #[test]
    fn sample_average_bucket_boundary_exactly_on_a_sample() {
        let mut tl = PowerTimeline::new();
        tl.push_until(t(10), Watts(100.0));
        tl.push_until(t(20), Watts(50.0));
        // Bucket edges land exactly on the segment boundary: each bucket
        // must see only its own segment, with no bleed either way.
        let avg = tl.sample_average(t(0), t(20), SimDuration::from_millis(10));
        assert_eq!(avg, vec![(t(0), Watts(100.0)), (t(10), Watts(50.0))]);
    }

    #[test]
    fn equal_power_segments_merge() {
        let mut tl = PowerTimeline::new();
        tl.push_until(t(10), Watts(100.0));
        tl.push_until(t(20), Watts(100.0));
        assert_eq!(tl.len(), 1);
        assert_eq!(tl.end_instant(), t(20));
    }

    #[test]
    fn power_at_boundaries() {
        let mut tl = PowerTimeline::new();
        tl.push_until(t(10), Watts(100.0));
        tl.push_until(t(20), Watts(50.0));
        assert_eq!(tl.power_at(t(0)), Watts(100.0));
        assert_eq!(
            tl.power_at(t(10)),
            Watts(50.0),
            "boundary reads next segment"
        );
        assert_eq!(tl.power_at(t(20)), Watts::ZERO, "past the end reads zero");
    }

    #[test]
    fn energy_beyond_recorded_end_is_zero() {
        let mut tl = PowerTimeline::new();
        tl.push_until(t(10), Watts(100.0));
        assert_eq!(tl.energy_between(t(0), t(100)), Joules(1.0));
        assert_eq!(tl.energy_between(t(50), t(100)), Joules::ZERO);
    }

    #[test]
    fn sampled_energy_underestimates_spike() {
        // A short spike between samples is missed by coarse polling.
        let mut tl = PowerTimeline::new();
        tl.push_until(t(120), Watts(100.0));
        tl.push_until(t(121), Watts(400.0)); // 1ms spike between sample points
        tl.push_until(t(200), Watts(100.0));
        let exact = tl.energy_between(t(0), t(200));
        let coarse = tl.sampled_energy(t(0), t(200), SimDuration::from_millis(50));
        assert!(coarse < exact);
        let fine = tl.sampled_energy(t(0), t(200), SimDuration::from_nanos(100_000));
        assert!((fine.0 - exact.0).abs() / exact.0 < 1e-2);
    }

    #[test]
    fn zero_length_pushes_are_ignored() {
        let mut tl = PowerTimeline::new();
        tl.push_until(t(0), Watts(5.0));
        assert!(tl.is_empty());
    }

    #[test]
    fn sample_includes_endpoint() {
        let mut tl = PowerTimeline::new();
        tl.push_until(t(100), Watts(10.0));
        let samples = tl.sample(t(0), t(100), SimDuration::from_millis(50));
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[2].0, t(100));
    }

    #[test]
    fn freq_trace_records_and_queries() {
        let mut tr = FreqTimeline::new();
        tr.record(t(0), MegaHertz(1410));
        tr.record(t(10), MegaHertz(1005));
        tr.record(t(10), MegaHertz(1005)); // duplicate merged
        assert_eq!(tr.points().len(), 2);
        assert_eq!(tr.freq_at(t(5)), Some(MegaHertz(1410)));
        assert_eq!(tr.freq_at(t(10)), Some(MegaHertz(1005)));
        assert_eq!(tr.freq_at(SimInstant::ZERO), Some(MegaHertz(1410)));
    }

    #[test]
    fn freq_before_first_point_is_none() {
        let mut tr = FreqTimeline::new();
        tr.record(t(10), MegaHertz(900));
        assert_eq!(tr.freq_at(t(5)), None);
    }

    #[test]
    fn average_freq_time_weighted() {
        let mut tr = FreqTimeline::new();
        tr.record(t(0), MegaHertz(1000));
        tr.record(t(10), MegaHertz(2000));
        // 10ms @ 1000 + 10ms @ 2000 -> 1500 average
        assert_eq!(tr.average_freq(t(0), t(20)), Some(MegaHertz(1500)));
        // Window entirely inside the second segment.
        assert_eq!(tr.average_freq(t(12), t(18)), Some(MegaHertz(2000)));
    }
}
