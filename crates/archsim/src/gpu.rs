//! The simulated GPU device: executes kernel regions, advances virtual time,
//! and records power/frequency timelines under a [`ClockPolicy`].

use serde::{Deserialize, Serialize};

use crate::error::ArchError;
use crate::governor::{ClockPolicy, DvfsParams};
use crate::kernel::{ExecModel, KernelWorkload, NaiveInverseModel, RooflineModel};
use crate::spec::GpuSpec;
use crate::time::{SimDuration, SimInstant};
use crate::timeline::{FreqTimeline, PowerTimeline};
use crate::units::{Joules, MegaHertz, Watts};

/// Execution-model selector (kept as an enum so devices stay `Clone` and
/// serializable; the ablation bench swaps `Roofline` for `Naive`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExecModelKind {
    Roofline(RooflineModel),
    Naive(NaiveInverseModel),
}

impl Default for ExecModelKind {
    fn default() -> Self {
        ExecModelKind::Roofline(RooflineModel::default())
    }
}

impl ExecModel for ExecModelKind {
    fn breakdown(
        &self,
        w: &KernelWorkload,
        f: MegaHertz,
        gpu: &GpuSpec,
    ) -> crate::kernel::ExecBreakdown {
        match self {
            ExecModelKind::Roofline(m) => m.breakdown(w, f, gpu),
            ExecModelKind::Naive(m) => m.breakdown(w, f, gpu),
        }
    }
}

/// Result of executing one instrumented kernel region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionExec {
    /// Function name (copied from the workload).
    pub name: String,
    pub start: SimInstant,
    pub end: SimInstant,
    /// GPU energy over `[start, end)` — the exact timeline integral.
    pub energy: Joules,
    /// Time-weighted average clock during the region.
    pub avg_freq: MegaHertz,
    /// Device launches issued.
    pub launches: u32,
}

impl RegionExec {
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Activity factors assumed while only launch/driver overhead is running.
const OVERHEAD_COMPUTE_ACTIVITY: f64 = 0.08;
const OVERHEAD_MEMORY_ACTIVITY: f64 = 0.08;
/// Virtual time after a launch before utilization feedback steers the
/// governor away from the blind launch boost.
const FEEDBACK_DELAY: SimDuration = SimDuration::from_micros(50);
/// Regions issuing more launches than this are treated as a continuous
/// launch stream (the `DomainDecompAndSync` pattern of §IV-E).
const STREAM_LAUNCH_THRESHOLD: u32 = 4;
/// Discretization steps for one DVFS region / idle gap.
const DVFS_STEPS: u32 = 64;
const IDLE_STEPS: u32 = 32;

/// A simulated GPU (one NVML device / one GCD).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuDevice {
    id: usize,
    spec: GpuSpec,
    model: ExecModelKind,
    policy: ClockPolicy,
    /// Whether user-level clock control is permitted (production systems in
    /// the paper lock this down; miniHPC does not).
    user_clock_control: bool,
    now: SimInstant,
    cur_freq: MegaHertz,
    /// Unquantized governor clock; `cur_freq` is this snapped to the ladder.
    analog_freq: f64,
    power_tl: PowerTimeline,
    freq_tl: FreqTimeline,
    busy: Vec<(SimInstant, SimInstant)>,
    transitions: u64,
    total_launches: u64,
    /// Transition energy not yet folded into an emitted power segment.
    pending_transition_j: f64,
    /// Current memory clock (defaults to the spec's maximum; the paper
    /// never lowers it — see the `ablation_memclock` bench for why).
    cur_mem_clock: MegaHertz,
    /// Junction temperature at `now`, °C.
    temp_c: f64,
    /// Enforced board power limit (`nvmlDeviceSetPowerManagementLimit`).
    power_limit: Watts,
    /// True while the last emitted segment was clock-capped by the power
    /// limit / by thermal slowdown (NVML clocks-event reasons).
    sw_power_capped: bool,
    hw_thermal_slowdown: bool,
    /// Count of segments that ran clock-capped.
    throttled_segments: u64,
    /// Fault handle for this device (inert unless an injector is installed;
    /// not part of the device's persistent state).
    #[serde(skip, default)]
    faults: faults::DeviceFaults,
    /// An injected transient thermal throttle is active for the current
    /// region.
    #[serde(skip, default)]
    forced_throttle: bool,
    /// The injected throttle actually capped the clock at least once.
    #[serde(skip, default)]
    forced_throttle_hit: bool,
}

impl GpuDevice {
    /// A device starting idle at the clock floor under the default DVFS
    /// governor.
    pub fn new(id: usize, spec: GpuSpec) -> Self {
        let cur = spec.clock_table.min();
        let ambient_c = spec.thermal.ambient_c;
        let tdp = spec.tdp();
        let mem_clock = spec.mem_clock;
        let mut freq_tl = FreqTimeline::new();
        freq_tl.record(SimInstant::ZERO, cur);
        GpuDevice {
            id,
            spec,
            model: ExecModelKind::default(),
            policy: ClockPolicy::default_dvfs(),
            user_clock_control: true,
            now: SimInstant::ZERO,
            cur_freq: cur,
            analog_freq: cur.0 as f64,
            power_tl: PowerTimeline::new(),
            freq_tl,
            busy: Vec::new(),
            transitions: 0,
            total_launches: 0,
            pending_transition_j: 0.0,
            cur_mem_clock: mem_clock,
            temp_c: ambient_c,
            power_limit: tdp,
            sw_power_capped: false,
            hw_thermal_slowdown: false,
            throttled_segments: 0,
            faults: faults::DeviceFaults::default(),
            forced_throttle: false,
            forced_throttle_hit: false,
        }
    }

    /// Install this device's fault handle (from
    /// `faults::FaultInjector::device`). The default handle is inert, so
    /// devices without one behave exactly as before.
    pub fn set_fault_handle(&mut self, handle: faults::DeviceFaults) {
        self.faults = handle;
    }

    /// This device's fault handle (inert unless one was installed).
    pub fn fault_handle(&self) -> &faults::DeviceFaults {
        &self.faults
    }

    pub fn id(&self) -> usize {
        self.id
    }

    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    pub fn now(&self) -> SimInstant {
        self.now
    }

    pub fn current_freq(&self) -> MegaHertz {
        self.cur_freq
    }

    pub fn policy(&self) -> ClockPolicy {
        self.policy
    }

    pub fn set_exec_model(&mut self, model: ExecModelKind) {
        self.model = model;
    }

    /// Number of clock transitions performed so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Total device kernel launches issued so far.
    pub fn total_launches(&self) -> u64 {
        self.total_launches
    }

    /// Current junction temperature, °C (`nvmlDeviceGetTemperature`).
    pub fn temperature_c(&self) -> f64 {
        self.temp_c
    }

    /// Current enforced board power limit.
    pub fn power_limit(&self) -> Watts {
        self.power_limit
    }

    /// Set the board power limit (`nvmlDeviceSetPowerManagementLimit`).
    /// Valid range: idle power ..= TDP.
    pub fn set_power_limit(&mut self, limit: Watts) -> Result<(), ArchError> {
        if !self.user_clock_control {
            return Err(ArchError::NoPermission("SetPowerManagementLimit"));
        }
        if limit.0 < self.spec.idle_power.0 || limit.0 > self.spec.tdp().0 {
            return Err(ArchError::InvalidSpec(format!(
                "power limit {limit} outside {}..={}",
                self.spec.idle_power,
                self.spec.tdp()
            )));
        }
        self.power_limit = limit;
        Ok(())
    }

    /// `(software power cap active, thermal slowdown active)` for the most
    /// recent segment.
    pub fn cap_state(&self) -> (bool, bool) {
        (self.sw_power_capped, self.hw_thermal_slowdown)
    }

    /// Segments that ran with a capped clock.
    pub fn throttled_segments(&self) -> u64 {
        self.throttled_segments
    }

    /// Current memory clock.
    pub fn current_mem_clock(&self) -> MegaHertz {
        self.cur_mem_clock
    }

    /// Set the memory clock to one of the supported P-states (the memory
    /// half of `nvmlDeviceSetApplicationsClocks`).
    ///
    /// Rides the same fault channels as the graphics half: the transition
    /// can be transiently rejected (`ClockSet`) or silently land one P-state
    /// lower (`ClockClamp`, detectable only by readback). Re-requesting the
    /// clock the device already holds is a no-op and draws no faults, so
    /// core-only tuners keep their exact fault schedules.
    pub fn set_memory_clock(&mut self, mem_mhz: MegaHertz) -> Result<(), ArchError> {
        if !self.user_clock_control {
            return Err(ArchError::NoPermission("SetApplicationsClocks(mem)"));
        }
        let Some(idx) = self.spec.mem_clock_table.iter().position(|&f| f == mem_mhz) else {
            return Err(ArchError::UnsupportedClock {
                requested: mem_mhz,
                min: *self
                    .spec
                    .mem_clock_table
                    .last()
                    .expect("non-empty mem table"),
                max: self.spec.mem_clock,
            });
        };
        if mem_mhz == self.cur_mem_clock {
            return Ok(());
        }
        if self.faults.clock_set_rejects() {
            self.faults.note_injected(faults::Channel::ClockSet);
            return Err(ArchError::Transient("SetApplicationsClocks(mem)"));
        }
        // Silent clamping: the table is descending, so losing rungs means
        // moving toward its tail (lower P-states).
        let mut mem_mhz = mem_mhz;
        let clamp_rungs = self.faults.clock_clamp_rungs();
        if clamp_rungs > 0 {
            let clamped_idx = (idx + clamp_rungs as usize).min(self.spec.mem_clock_table.len() - 1);
            let clamped = self.spec.mem_clock_table[clamped_idx];
            if clamped < mem_mhz {
                self.faults.note_injected(faults::Channel::ClockClamp);
                mem_mhz = clamped;
            }
        }
        self.cur_mem_clock = mem_mhz;
        telemetry::instant(
            "gpu",
            "set_memory_clock",
            Some(self.now.as_nanos()),
            vec![("mhz", mem_mhz.0.into())],
        );
        Ok(())
    }

    /// The spec adjusted for the current memory clock (what the execution
    /// and power models actually see).
    fn effective_spec(&self) -> GpuSpec {
        if self.cur_mem_clock == self.spec.mem_clock {
            self.spec.clone()
        } else {
            self.spec.with_memory_clock(self.cur_mem_clock)
        }
    }

    pub fn power_timeline(&self) -> &PowerTimeline {
        &self.power_tl
    }

    pub fn freq_timeline(&self) -> &FreqTimeline {
        &self.freq_tl
    }

    /// Deny user-level clock changes, as the paper's production systems do.
    pub fn lock_clock_control(&mut self) {
        self.user_clock_control = false;
    }

    /// Re-allow user-level clock changes (miniHPC-style).
    pub fn unlock_clock_control(&mut self) {
        self.user_clock_control = true;
    }

    pub fn clock_control_allowed(&self) -> bool {
        self.user_clock_control
    }

    /// Pin the compute clock (`nvmlDeviceSetApplicationsClocks`). The clock
    /// snaps immediately; the boost guard-band is dropped.
    pub fn set_application_clocks(&mut self, f: MegaHertz) -> Result<(), ArchError> {
        if !self.user_clock_control {
            return Err(ArchError::NoPermission("SetApplicationsClocks"));
        }
        if !self.spec.clock_table.supports(f) {
            return Err(ArchError::UnsupportedClock {
                requested: f,
                min: self.spec.clock_table.min(),
                max: self.spec.clock_table.max(),
            });
        }
        if self.faults.clock_set_rejects() {
            self.faults.note_injected(faults::Channel::ClockSet);
            return Err(ArchError::Transient("SetApplicationsClocks"));
        }
        // Silent clamping: the call "succeeds" but the device pins a few
        // ladder rungs lower (power/thermal-limit behaviour documented by
        // Calore et al.). Detectable only by reading the clock back.
        let mut f = f;
        let clamp_rungs = self.faults.clock_clamp_rungs();
        if clamp_rungs > 0 {
            let floor = self.spec.clock_table.min();
            let step = self.spec.clock_table.step();
            let clamped = self.spec.clock_table.nearest(MegaHertz(
                f.0.saturating_sub(clamp_rungs * step).max(floor.0),
            ));
            if clamped < f {
                self.faults.note_injected(faults::Channel::ClockClamp);
                f = clamped;
            }
        }
        self.policy = ClockPolicy::ApplicationClocks(f);
        self.analog_freq = f.0 as f64;
        self.change_freq(f);
        telemetry::instant(
            "gpu",
            "set_application_clocks",
            Some(self.now.as_nanos()),
            vec![("mhz", f.0.into())],
        );
        Ok(())
    }

    /// Return clock ownership to the DVFS governor
    /// (`nvmlDeviceResetApplicationsClocks`).
    pub fn reset_application_clocks(&mut self) -> Result<(), ArchError> {
        if !self.user_clock_control {
            return Err(ArchError::NoPermission("ResetApplicationsClocks"));
        }
        self.policy = ClockPolicy::default_dvfs();
        telemetry::instant(
            "gpu",
            "reset_application_clocks",
            Some(self.now.as_nanos()),
            Vec::new(),
        );
        Ok(())
    }

    /// Replace the governor parameters (ablation hook).
    pub fn set_dvfs_params(&mut self, params: DvfsParams) {
        self.policy = ClockPolicy::Dvfs(params);
    }

    fn change_freq(&mut self, f: MegaHertz) {
        if f != self.cur_freq {
            self.transitions += 1;
            self.pending_transition_j += self.spec.transition_cost.0;
            self.cur_freq = f;
            telemetry::counter_add("gpu.freq_transitions", 1);
        }
        self.freq_tl.record(self.now, f);
    }

    /// Record a power segment from `self.now` until `until`, folding any
    /// pending clock-transition energy into it.
    fn emit(&mut self, until: SimInstant, mut power: Watts) {
        let dur = until - self.now;
        if dur.is_zero() {
            return;
        }
        // Temperature-dependent leakage rides on top of the model power.
        let leak_factor = self.spec.thermal.leakage_factor(self.temp_c);
        power += Watts(self.spec.idle_power.0 * (leak_factor - 1.0));
        if self.pending_transition_j > 0.0 {
            power += Watts(self.pending_transition_j / dur.as_secs_f64());
            self.pending_transition_j = 0.0;
        }
        self.power_tl.push_until(until, power);
        // Advance the junction temperature through this segment.
        self.temp_c = self.spec.thermal.step(self.temp_c, power, dur);
        self.now = until;
    }

    /// Execute one instrumented kernel region, advancing the device clock.
    pub fn run_region(&mut self, w: &KernelWorkload) -> RegionExec {
        // An injected transient thermal throttle caps this one region; it
        // lifts at region end (the device restores the requested clock), so
        // injection and recovery are both accounted here.
        if self.faults.thermal_throttle() {
            self.forced_throttle = true;
        }
        let start = self.now;
        match self.policy {
            ClockPolicy::ApplicationClocks(f) => self.run_pinned(w, f),
            ClockPolicy::Dvfs(p) => self.run_dvfs(w, p),
        }
        if self.forced_throttle {
            if self.forced_throttle_hit {
                self.faults.note_injected(faults::Channel::Thermal);
                self.faults.note_recovered(faults::Channel::Thermal);
            }
            self.forced_throttle = false;
            self.forced_throttle_hit = false;
        }
        let end = self.now;
        self.busy.push((start, end));
        self.total_launches += u64::from(w.launches);
        let exec = RegionExec {
            name: w.name.clone(),
            start,
            end,
            energy: self.power_tl.energy_between(start, end),
            avg_freq: self
                .freq_tl
                .average_freq(start, end)
                .unwrap_or(self.cur_freq),
            launches: w.launches,
        };
        if telemetry::active() {
            telemetry::span_complete(
                "gpu",
                "kernel",
                start.as_nanos(),
                end.as_nanos(),
                vec![
                    ("func", exec.name.clone().into()),
                    ("freq_mhz", exec.avg_freq.0.into()),
                    ("energy_j", exec.energy.0.into()),
                    ("launches", exec.launches.into()),
                ],
            );
        }
        exec
    }

    /// Compute-activity factor scaled by occupancy: an under-filled device
    /// keeps most SMs idle, so its dynamic power share drops.
    fn effective_compute_activity(&self, w: &KernelWorkload) -> f64 {
        let occ = self.spec.occupancy(w.parallelism);
        w.compute_activity * (0.4 + 0.6 * occ)
    }

    /// Apply the power-limit and thermal-slowdown control loops to a
    /// desired clock: walk down the ladder until the projected busy power
    /// (including temperature-dependent leakage) fits under the limit, and
    /// cap at ~80 % of max while the junction is past the slowdown
    /// threshold. Updates the clocks-event reason flags.
    fn apply_caps(&mut self, desired: MegaHertz, a_c: f64, a_m: f64, boosted: bool) -> MegaHertz {
        let mut f = desired;
        self.sw_power_capped = false;
        self.hw_thermal_slowdown = false;
        if self.forced_throttle || self.spec.thermal.throttling(self.temp_c) {
            let cap = self.spec.clock_table.nearest(MegaHertz(
                (self.spec.clock_table.max().0 as f64 * 0.8) as u32,
            ));
            if cap < f {
                f = cap;
                self.hw_thermal_slowdown = true;
                if self.forced_throttle {
                    self.forced_throttle_hit = true;
                }
            }
        }
        let leak =
            Watts(self.spec.idle_power.0 * (self.spec.thermal.leakage_factor(self.temp_c) - 1.0));
        let step = self.spec.clock_table.step();
        while f > self.spec.clock_table.min() {
            let p = self.spec.busy_power(f, a_c, a_m, boosted) + leak;
            if p.0 <= self.power_limit.0 {
                break;
            }
            self.sw_power_capped = true;
            f = MegaHertz(f.0 - step);
        }
        if self.sw_power_capped || self.hw_thermal_slowdown {
            self.throttled_segments += 1;
        }
        f
    }

    fn run_pinned(&mut self, w: &KernelWorkload, f: MegaHertz) {
        let spec = self.effective_spec();
        let f = self.apply_caps(
            f,
            self.effective_compute_activity(w),
            w.memory_activity,
            false,
        );
        self.change_freq(f);
        let bd = self.model.breakdown(w, f, &spec);
        let overhead_end = self.now + bd.overhead;
        let p_overhead = spec.busy_power(
            f,
            OVERHEAD_COMPUTE_ACTIVITY,
            OVERHEAD_MEMORY_ACTIVITY,
            false,
        );
        self.emit(overhead_end, p_overhead);
        let busy_end = self.now + bd.compute + bd.memory;
        let p_busy = spec.busy_power(
            f,
            self.effective_compute_activity(w),
            w.memory_activity,
            false,
        );
        self.emit(busy_end, p_busy);
    }

    fn run_dvfs(&mut self, w: &KernelWorkload, p: DvfsParams) {
        let spec = self.effective_spec();
        let fmax = spec.clock_table.max();
        let bd_ref = self.model.breakdown(w, fmax, &spec);
        let busy_ref_s = (bd_ref.compute + bd_ref.memory).as_secs_f64();
        let beta = if busy_ref_s > 0.0 {
            bd_ref.compute.as_secs_f64() / busy_ref_s
        } else {
            0.0
        };
        let mut remaining_overhead_s = bd_ref.overhead.as_secs_f64();
        let mut remaining_busy_ref_s = busy_ref_s;

        let stream = w.launches > STREAM_LAUNCH_THRESHOLD;
        let settle = p.settle_target(w, &spec);
        let launch_boost = p.launch_boost_target(&spec);
        // A continuous launch stream keeps re-triggering partial boosts: the
        // governor hovers between the settle target and the launch boost.
        let stream_target = if stream {
            let raw = settle.0 as f64 + 0.3 * (launch_boost.0.saturating_sub(settle.0)) as f64;
            self.spec.clock_table.nearest(MegaHertz(raw.round() as u32))
        } else {
            settle
        };
        if stream {
            // Partial ramps on every launch dissipate transition energy even
            // when the quantized clock barely moves.
            self.pending_transition_j += self.spec.transition_cost.0 * 0.25 * f64::from(w.launches);
        }

        // Estimate the region length at the current clock to size the steps.
        let est_s = remaining_overhead_s
            + remaining_busy_ref_s
                * (beta * fmax.ratio(self.cur_freq.max(p.idle_floor)) + (1.0 - beta));
        let dt_s = (est_s / f64::from(DVFS_STEPS)).max(2e-6);
        let region_start = self.now;

        while remaining_overhead_s > 1e-12 || remaining_busy_ref_s > 1e-12 {
            let in_feedback_window = (self.now - region_start) < FEEDBACK_DELAY;
            let target = if stream {
                stream_target
            } else if remaining_overhead_s > 1e-12 || in_feedback_window {
                launch_boost.max(settle)
            } else {
                settle
            };
            self.analog_freq = p.step_analog(self.analog_freq, target, dt_s * 1e6);
            let next = self
                .spec
                .clock_table
                .nearest(MegaHertz(self.analog_freq.round() as u32));
            let next = self.apply_caps(
                next,
                self.effective_compute_activity(w),
                w.memory_activity,
                true,
            );
            self.change_freq(next);
            let f = self.cur_freq;

            let (step_s, power) = if remaining_overhead_s > 1e-12 {
                let step = remaining_overhead_s.min(dt_s);
                remaining_overhead_s -= step;
                (
                    step,
                    spec.busy_power(f, OVERHEAD_COMPUTE_ACTIVITY, OVERHEAD_MEMORY_ACTIVITY, true),
                )
            } else {
                // Busy progress: one wall-second completes
                // `1 / (beta*fmax/f + (1-beta))` reference-seconds of work.
                let slowdown = beta * fmax.ratio(f) + (1.0 - beta);
                let wall_for_rest = remaining_busy_ref_s * slowdown;
                let step = wall_for_rest.min(dt_s);
                remaining_busy_ref_s -= step / slowdown;
                (
                    step,
                    spec.busy_power(
                        f,
                        self.effective_compute_activity(w),
                        w.memory_activity,
                        true,
                    ),
                )
            };
            let until = self.now + SimDuration::from_secs_f64(step_s);
            self.emit(until, power);
        }
    }

    /// Advance the device through an idle gap (host work, MPI communication)
    /// until instant `t`. Under DVFS the clock decays toward the idle floor —
    /// the end-of-time-step dips of Fig. 9.
    pub fn idle_until(&mut self, t: SimInstant) {
        if t <= self.now {
            return;
        }
        match self.policy {
            ClockPolicy::ApplicationClocks(f) => {
                let p = self.spec.idle_power_at(f, false);
                self.emit(t, p);
            }
            ClockPolicy::Dvfs(params) => {
                let gap = t - self.now;
                let dt = (gap / u64::from(IDLE_STEPS)).max(SimDuration::from_micros(20));
                while self.now < t {
                    let until = (self.now + dt).min(t);
                    let step_us = (until - self.now).as_secs_f64() * 1e6;
                    self.analog_freq =
                        params.step_analog(self.analog_freq, params.idle_floor, step_us);
                    let next = self
                        .spec
                        .clock_table
                        .nearest(MegaHertz(self.analog_freq.round() as u32));
                    self.change_freq(next);
                    let p = self.spec.idle_power_at(self.cur_freq, true);
                    self.emit(until, p);
                    if self.analog_freq <= params.idle_floor.0 as f64 {
                        // Settled: emit the remainder as one segment.
                        let p = self.spec.idle_power_at(self.cur_freq, true);
                        self.emit(t, p);
                        break;
                    }
                }
            }
        }
    }

    /// Advance idle by a duration.
    pub fn advance_idle(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.idle_until(t);
    }

    /// Exact device energy over `[a, b)`.
    pub fn energy_between(&self, a: SimInstant, b: SimInstant) -> Joules {
        self.power_tl.energy_between(a, b)
    }

    /// Total recorded device energy.
    pub fn total_energy(&self) -> Joules {
        self.power_tl.total_energy()
    }

    /// Coarse, nvidia-smi-style utilization over `[a, b)`: the fraction of
    /// wall time with *any* kernel resident, launch overhead included. This
    /// deliberately overestimates real occupancy, as reported in the paper's
    /// reference \[25\].
    pub fn utilization_coarse(&self, a: SimInstant, b: SimInstant) -> f64 {
        let span = (b - a).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let mut busy = 0.0;
        for &(s, e) in &self.busy {
            if e <= a {
                continue;
            }
            if s >= b {
                break;
            }
            busy += (e.min(b) - s.max(a)).as_secs_f64();
        }
        (busy / span).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> GpuDevice {
        GpuDevice::new(0, GpuSpec::a100_sxm4_80gb())
    }

    fn heavy() -> KernelWorkload {
        KernelWorkload::new("MomentumEnergy", 200e9, 20e9).with_activity(0.95, 0.55)
    }

    fn light_stream() -> KernelWorkload {
        KernelWorkload::new("DomainDecompAndSync", 0.5e9, 2e9)
            .with_launches(300)
            .with_activity(0.15, 0.35)
    }

    #[test]
    fn pinned_execution_advances_clock_and_records_energy() {
        let mut d = device();
        d.set_application_clocks(MegaHertz(1410)).unwrap();
        let r = d.run_region(&heavy());
        assert!(r.duration() > SimDuration::ZERO);
        assert!(r.energy.0 > 0.0);
        assert_eq!(r.avg_freq, MegaHertz(1410));
        assert_eq!(d.now(), r.end);
        // Energy must equal average power * time within TDP bounds.
        let avg_w = r.energy.average_power(r.duration());
        assert!(avg_w.0 <= d.spec().tdp().0);
        assert!(avg_w.0 > d.spec().idle_power.0);
    }

    #[test]
    fn lower_pinned_clock_is_slower_but_cheaper() {
        let mut hi = device();
        hi.set_application_clocks(MegaHertz(1410)).unwrap();
        let r_hi = hi.run_region(&heavy());
        let mut lo = device();
        lo.set_application_clocks(MegaHertz(1005)).unwrap();
        let r_lo = lo.run_region(&heavy());
        assert!(r_lo.duration() > r_hi.duration());
        assert!(r_lo.energy < r_hi.energy, "energy should drop at 1005 MHz");
    }

    #[test]
    fn unsupported_clock_rejected() {
        let mut d = device();
        let err = d.set_application_clocks(MegaHertz(1000)).unwrap_err();
        assert!(matches!(err, ArchError::UnsupportedClock { .. }));
    }

    #[test]
    fn locked_device_denies_user_clock_control() {
        let mut d = device();
        d.lock_clock_control();
        assert!(matches!(
            d.set_application_clocks(MegaHertz(1410)),
            Err(ArchError::NoPermission(_))
        ));
        assert!(matches!(
            d.reset_application_clocks(),
            Err(ArchError::NoPermission(_))
        ));
        d.unlock_clock_control();
        assert!(d.set_application_clocks(MegaHertz(1410)).is_ok());
    }

    #[test]
    fn dvfs_boosts_on_launch_and_decays_when_idle() {
        let mut d = device();
        // Warm up: run a heavy kernel; the governor should climb high.
        let r = d.run_region(&heavy());
        assert!(
            r.avg_freq > MegaHertz(1200),
            "governor should boost a heavy kernel, got {}",
            r.avg_freq
        );
        let peak = d.current_freq();
        assert!(peak >= MegaHertz(1350));
        // Long idle: decay toward the floor.
        d.advance_idle(SimDuration::from_secs(20));
        assert_eq!(d.current_freq(), MegaHertz(690));
    }

    #[test]
    fn dvfs_stream_region_holds_elevated_plateau() {
        let mut d = device();
        d.run_region(&heavy()); // boost first
        let r = d.run_region(&light_stream());
        // The paper observes ~1200 MHz during DomainDecompAndSync: elevated
        // well above the idle floor, well below max.
        assert!(r.avg_freq > MegaHertz(1100), "got {}", r.avg_freq);
        assert!(r.avg_freq < MegaHertz(1390), "got {}", r.avg_freq);
    }

    #[test]
    fn dvfs_energy_exceeds_pinned_baseline_for_same_work() {
        // §IV-D: DVFS has ~baseline time but higher energy than pinned max
        // clocks, due to the boost guard-band and transition losses.
        let steps = 5usize;
        let mut pinned = device();
        pinned.set_application_clocks(MegaHertz(1410)).unwrap();
        let mut dvfs = device();
        for _ in 0..steps {
            for d in [&mut pinned, &mut dvfs] {
                d.run_region(&light_stream());
                d.run_region(&heavy());
                d.advance_idle(SimDuration::from_millis(3));
            }
        }
        let e_pinned = pinned.total_energy();
        let e_dvfs = dvfs.total_energy();
        let t_pinned = pinned.now().as_secs_f64();
        let t_dvfs = dvfs.now().as_secs_f64();
        assert!(
            e_dvfs > e_pinned,
            "DVFS {e_dvfs:?} should exceed pinned {e_pinned:?}"
        );
        let dt = (t_dvfs - t_pinned).abs() / t_pinned;
        assert!(dt < 0.05, "times should be similar, diff {dt}");
    }

    #[test]
    fn transition_energy_is_conserved_in_timeline() {
        let mut d = device();
        d.set_application_clocks(MegaHertz(1410)).unwrap();
        d.run_region(&heavy());
        d.set_application_clocks(MegaHertz(1005)).unwrap();
        d.run_region(&heavy());
        assert!(d.transitions() >= 2);
        // All pending transition energy must be folded into segments.
        assert_eq!(d.pending_transition_j, 0.0);
    }

    #[test]
    fn utilization_coarse_counts_overhead_as_busy() {
        let mut d = device();
        d.set_application_clocks(MegaHertz(1410)).unwrap();
        let r = d.run_region(&light_stream());
        let u = d.utilization_coarse(r.start, r.end);
        assert!(u > 0.99, "whole region counts as busy: {u}");
        d.advance_idle(SimDuration::from_millis(10));
        let u2 = d.utilization_coarse(r.start, d.now());
        assert!(u2 < 1.0);
    }

    #[test]
    fn idle_until_is_noop_for_past_instants() {
        let mut d = device();
        d.advance_idle(SimDuration::from_millis(5));
        let now = d.now();
        d.idle_until(SimInstant::ZERO);
        assert_eq!(d.now(), now);
    }

    #[test]
    fn sustained_load_heats_the_junction() {
        let mut d = device();
        d.set_application_clocks(MegaHertz(1410)).unwrap();
        let t0 = d.temperature_c();
        // ~tens of seconds of virtual load.
        for _ in 0..200 {
            d.run_region(&heavy());
        }
        let t1 = d.temperature_c();
        assert!(t1 > t0 + 10.0, "junction should heat: {t0} -> {t1}");
        assert!(t1 < d.spec().thermal.slowdown_c + 10.0, "bounded: {t1}");
        // Long idle cools back toward the idle-at-held-clock steady state
        // (clocks stay pinned, so the package sits a few degrees above
        // ambient, not at it).
        d.advance_idle(SimDuration::from_secs(120));
        let idle_ss = d
            .spec()
            .thermal
            .steady_state_c(d.spec().idle_power_at(MegaHertz(1410), false));
        assert!(
            (d.temperature_c() - idle_ss).abs() < 2.0,
            "cooled to {} (idle steady state {idle_ss})",
            d.temperature_c()
        );
    }

    #[test]
    fn power_limit_caps_the_clock() {
        let mut d = device();
        d.set_power_limit(Watts(220.0)).unwrap();
        d.set_application_clocks(MegaHertz(1410)).unwrap();
        let r = d.run_region(&heavy());
        assert!(
            r.avg_freq < MegaHertz(1410),
            "clock must drop under the cap: {}",
            r.avg_freq
        );
        let (sw, _) = d.cap_state();
        assert!(sw, "SW power cap reason must be raised");
        assert!(d.throttled_segments() > 0);
        // Average power respects the limit (leakage + transition smearing
        // allow small excursions).
        let avg = r.energy.average_power(r.duration());
        assert!(avg.0 <= 220.0 * 1.08, "avg {avg} vs cap 220 W");
    }

    #[test]
    fn power_limit_validation_and_permissions() {
        let mut d = device();
        assert!(d.set_power_limit(Watts(10.0)).is_err(), "below idle power");
        assert!(d.set_power_limit(Watts(9999.0)).is_err(), "above TDP");
        assert!(d.set_power_limit(Watts(300.0)).is_ok());
        assert_eq!(d.power_limit(), Watts(300.0));
        d.lock_clock_control();
        assert!(matches!(
            d.set_power_limit(Watts(250.0)),
            Err(ArchError::NoPermission(_))
        ));
    }

    #[test]
    fn thermal_slowdown_engages_past_threshold() {
        let mut d = device();
        d.set_application_clocks(MegaHertz(1410)).unwrap();
        // Run until the junction crosses the slowdown threshold. The SXM
        // envelope at full tilt reaches ~74C steady state, so force a hotter
        // environment by running a very long sustained burst with the
        // threshold lowered via a custom spec.
        let mut spec = GpuSpec::a100_sxm4_80gb();
        spec.thermal.slowdown_c = 50.0;
        let mut d = GpuDevice::new(0, spec);
        d.set_application_clocks(MegaHertz(1410)).unwrap();
        for _ in 0..800 {
            d.run_region(&heavy());
        }
        let (_, thermal) = d.cap_state();
        assert!(
            thermal,
            "thermal slowdown must engage at {}",
            d.temperature_c()
        );
        assert!(
            d.current_freq() <= MegaHertz(1130),
            "clock capped: {}",
            d.current_freq()
        );
    }

    #[test]
    fn leakage_makes_hot_runs_cost_more() {
        // Same work, same clock: a pre-heated device burns more energy.
        let mut cold = device();
        cold.set_application_clocks(MegaHertz(1410)).unwrap();
        let e_cold = cold.run_region(&heavy()).energy;

        let mut hot = device();
        hot.set_application_clocks(MegaHertz(1410)).unwrap();
        for _ in 0..800 {
            hot.run_region(&heavy());
        }
        let e_hot = hot.run_region(&heavy()).energy;
        assert!(
            e_hot.0 > e_cold.0 * 1.01,
            "leakage should show: cold {e_cold}, hot {e_hot}"
        );
    }

    #[test]
    fn memory_downclock_slows_memory_bound_kernels() {
        let mem_bound = KernelWorkload::new("XMass", 5e9, 100e9).with_activity(0.3, 0.9);
        let mut full = device();
        full.set_application_clocks(MegaHertz(1410)).unwrap();
        let r_full = full.run_region(&mem_bound);
        let mut slow = device();
        slow.set_application_clocks(MegaHertz(1410)).unwrap();
        slow.set_memory_clock(MegaHertz(810)).unwrap();
        assert_eq!(slow.current_mem_clock(), MegaHertz(810));
        let r_slow = slow.run_region(&mem_bound);
        let slowdown = r_slow.duration().as_secs_f64() / r_full.duration().as_secs_f64();
        // Bandwidth scales with the memory clock: ~1593/810 for a
        // bandwidth-dominated kernel.
        assert!(slowdown > 1.5, "memory-bound slowdown {slowdown}");
        // And the energy saving is nowhere near proportional — the paper's
        // reason to leave memory frequency alone.
        let e_ratio = r_slow.energy.0 / r_full.energy.0;
        assert!(
            e_ratio > 0.95,
            "energy barely drops (often rises): {e_ratio}"
        );
    }

    #[test]
    fn memory_clock_validation() {
        let mut d = device();
        assert!(matches!(
            d.set_memory_clock(MegaHertz(1000)),
            Err(ArchError::UnsupportedClock { .. })
        ));
        assert!(d.set_memory_clock(MegaHertz(1215)).is_ok());
        d.lock_clock_control();
        assert!(matches!(
            d.set_memory_clock(MegaHertz(1593)),
            Err(ArchError::NoPermission(_))
        ));
    }

    #[test]
    fn region_exec_reports_average_frequency() {
        let mut d = device();
        d.set_application_clocks(MegaHertz(1110)).unwrap();
        let r = d.run_region(&heavy());
        assert_eq!(r.avg_freq, MegaHertz(1110));
    }

    #[cfg(feature = "faults")]
    #[test]
    fn memory_clock_set_rides_the_clock_set_channel() {
        let inj = faults::FaultInjector::new(faults::FaultProfile {
            seed: 42,
            clock_set_reject: 1.0,
            ..faults::FaultProfile::default()
        });
        let mut d = device();
        d.set_fault_handle(inj.device(0));
        // Re-requesting the clock the device already holds draws no fault —
        // core-only tuners keep their exact schedules.
        assert!(d.set_memory_clock(MegaHertz(1593)).is_ok());
        assert_eq!(inj.stats().clock_set_injected, 0);
        // A real transition is transiently rejected, leaving the clock as-is.
        assert!(matches!(
            d.set_memory_clock(MegaHertz(1215)),
            Err(ArchError::Transient(_))
        ));
        assert_eq!(inj.stats().clock_set_injected, 1);
        assert_eq!(d.current_mem_clock(), MegaHertz(1593));
    }

    #[cfg(feature = "faults")]
    #[test]
    fn memory_clock_clamp_lands_a_pstate_lower_and_reads_back() {
        let inj = faults::FaultInjector::new(faults::FaultProfile {
            seed: 7,
            clock_clamp: 1.0,
            clock_clamp_rungs: 1,
            ..faults::FaultProfile::default()
        });
        let mut d = device();
        d.set_fault_handle(inj.device(0));
        // The call "succeeds" but the device holds the next lower P-state —
        // detectable only by reading the clock back.
        assert!(d.set_memory_clock(MegaHertz(1215)).is_ok());
        assert_eq!(d.current_mem_clock(), MegaHertz(810));
        assert_eq!(inj.stats().clock_clamp_injected, 1);
        // At the bottom of the table there is nothing lower to clamp to.
        let mut d2 = device();
        d2.set_fault_handle(inj.device(1));
        assert!(d2.set_memory_clock(MegaHertz(810)).is_ok());
        assert_eq!(d2.current_mem_clock(), MegaHertz(810));
    }
}
