//! The instrumentation layer: SPH-EXA hooks → energy measurement + dynamic
//! GPU frequency control.
//!
//! `EnergyInstrument` implements [`sph::StepObserver`]. Around every
//! instrumented function it
//!
//! 1. applies the frequency policy **before** the function (the paper's
//!    `getNvmlDevice` + `nvmlDeviceSetApplicationsClocks` snippet, §III-D);
//! 2. reads a PMT state, lets the physics run, advances the simulated GPU
//!    through the host gap and the paper-scale kernel workload, reads PMT
//!    again **after**;
//! 3. accumulates per-function time, energy and average clock (§III-B).
//!
//! Frequency-control denials (production systems lock
//! `SetApplicationsClocks`) are recorded, not fatal — the measurement story
//! still works there, which is exactly the paper's situation on LUMI-G and
//! CSCS-A100.

use std::collections::BTreeMap;
use std::sync::Arc;

use archsim::{ArchError, EnergyDelay, GpuDevice, MegaHertz, SimDuration, SimInstant, Watts};
use nvml_shim::{Nvml, NvmlDevice, NvmlError};
use online::{PredictiveTuner, RecordOutcome, WarmState};
use parking_lot::Mutex;
use pmt::{backends::NvmlSensor, joules, Pmt, State};
use ranks::RankCtx;
use sph::{FuncId, StepObserver};

use crate::policy::FreqPolicy;
use crate::report::{FunctionReport, RankReport};

/// Sampling period used when exporting the Fig. 9 clock trace.
const TRACE_PERIOD: SimDuration = SimDuration::from_millis(10);

/// Retries of a transiently failed `SetApplicationsClocks` before giving up
/// on the request (each retry backs the rank clock off exponentially).
const MAX_CLOCK_SET_RETRIES: u32 = 4;
/// Base backoff before the first clock-set retry; doubles per attempt. Real
/// NVML round-trips are tens of microseconds, so even the full ladder
/// (~50·(2⁵−1) µs) is invisible next to a millisecond-scale kernel.
const CLOCK_RETRY_BACKOFF: SimDuration = SimDuration::from_micros(50);
/// Consecutive clock requests that exhausted their retries before the
/// instrument stops pinning and falls back to default application clocks.
const CLOCK_FALLBACK_AFTER: u32 = 3;

/// Fraction of a power-cap budget held back as regulation headroom
/// (see [`EnergyInstrument::with_power_cap`]).
const CAP_RIPPLE_GUARD: f64 = 0.02;

/// Per-rank instrumentation: one GPU, one PMT sensor, one policy.
pub struct EnergyInstrument {
    rank: usize,
    gpu: Arc<Mutex<GpuDevice>>,
    nvml_dev: NvmlDevice,
    /// Memory clock the next `try_set_clocks` requests: the device's
    /// P-state at attach time, unless the tuner drives the memory clock.
    mem_target_mhz: u32,
    policy: FreqPolicy,
    pmt: Pmt,
    functions: BTreeMap<FuncId, FunctionAccum>,
    /// The policy's in-run tuner ([`FreqPolicy::tuner`]); `None` for the
    /// policies that learn nothing.
    tuner: Option<PredictiveTuner>,
    pending: Option<Pending>,
    loop_start: Option<SimInstant>,
    clock_control_denied: bool,
    policy_applied_once: bool,
    collect_trace: bool,
    /// Fault handle of the rank's device (inert when no profile is active);
    /// the resilience paths below report their recoveries through it.
    faults: faults::DeviceFaults,
    /// Clock requests that exhausted their retries back-to-back; reaching
    /// [`CLOCK_FALLBACK_AFTER`] trips the default-clocks fallback.
    clock_failures: u32,
    /// True once the fallback tripped: the instrument stops pinning clocks
    /// for the rest of the run and lets the device govern itself.
    clock_fallback: bool,
}

#[derive(Default)]
struct FunctionAccum {
    calls: u64,
    time_s: f64,
    gpu_j: f64,
    /// Energy-weighted clock accumulator (MHz·J).
    freq_weight: f64,
}

struct Pending {
    func: FuncId,
    state: State,
    rank_clock: SimInstant,
}

impl EnergyInstrument {
    /// Attach to `rank`'s GPU. `nvml` must be the rank's node-local library
    /// handle; the device is resolved with the paper's rank→device binding.
    pub fn new(nvml: &Nvml, rank: usize, policy: FreqPolicy) -> Result<Self, NvmlError> {
        let dev = nvml_shim::get_nvml_device(nvml, rank)?;
        let gpu = dev.raw();
        let mem_clock_mhz = dev.clock_info(nvml_shim::ClockType::Mem)?;
        // Inherit the device's fault handle (installed by the runner when the
        // spec carries a profile; inert otherwise) and give the PMT sensor
        // the same handle so its sample stream is perturbed consistently.
        let fault_handle = gpu.lock().fault_handle().clone();
        let pmt = Pmt::new(Box::new(NvmlSensor::new(&dev))).with_faults(fault_handle.clone());
        let tuner = policy
            .tuner(gpu.lock().spec())
            .expect("tuner config is validated where the spec is loaded");
        Ok(EnergyInstrument {
            rank,
            gpu,
            nvml_dev: dev,
            mem_target_mhz: mem_clock_mhz,
            policy,
            pmt,
            functions: BTreeMap::new(),
            tuner,
            pending: None,
            loop_start: None,
            clock_control_denied: false,
            policy_applied_once: false,
            collect_trace: false,
            faults: fault_handle,
            clock_failures: 0,
            clock_fallback: false,
        })
    }

    /// Also export the sampled clock trace in the final report (Fig. 9).
    pub fn with_freq_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    pub fn policy(&self) -> &FreqPolicy {
        &self.policy
    }

    /// Warm-start the tuner from what an earlier run learned: every listed
    /// kernel is pinned up front (from its stored model where there is one)
    /// and explores nothing. No-op for policies without a tuner.
    pub fn with_warm(mut self, warm: &WarmState) -> Self {
        if let Some(tuner) = &mut self.tuner {
            tuner.warm_start(warm);
        }
        self
    }

    /// Enforce a per-rank watt budget: the device power limit is set just
    /// below `budget` (the hard guarantee — the device walks its clock down
    /// whenever busy power would exceed it) and, when the policy tunes,
    /// the search window is capped at `ceiling` so exploration never
    /// proposes a rung the limit would immediately throttle. A denied
    /// `SetPowerManagementLimit` is recorded like a denied clock change.
    ///
    /// The setpoint sits `CAP_RIPPLE_GUARD` below the budget because the
    /// clock-walkdown loop regulates *projected busy* power: leakage drift
    /// as the junction heats and clock-transition energy both land on top
    /// of the regulated level, and the guard keeps that ripple inside the
    /// budget the caller promised to the facility.
    pub fn with_power_cap(mut self, budget: Watts, ceiling: MegaHertz) -> Self {
        let setpoint = Watts(budget.0 * (1.0 - CAP_RIPPLE_GUARD));
        match self.gpu.lock().set_power_limit(setpoint) {
            Ok(()) => {}
            Err(ArchError::NoPermission(_)) => self.clock_control_denied = true,
            Err(e) => panic!("rank {}: power cap rejected: {e}", self.rank),
        }
        if let Some(tuner) = &mut self.tuner {
            tuner.set_ceiling(ceiling);
        }
        self
    }

    /// What the run's tuner has committed so far — pinned clocks and the
    /// fitted models behind them. Empty for policies without a tuner.
    pub fn learned(&self) -> WarmState {
        self.tuner
            .as_ref()
            .map_or_else(WarmState::default, PredictiveTuner::learned)
    }

    /// Apply a clock request, tolerating `NO_PERMISSION` like the paper's
    /// production systems require and riding out transient driver errors.
    ///
    /// Resilience ladder:
    /// 1. `NVML_ERROR_UNKNOWN` → retry with exponential backoff (the backoff
    ///    advances the rank's simulated clock, so retries cost time like the
    ///    real call would). A success after `n` failures recovers all `n`.
    /// 2. Retries exhausted [`CLOCK_FALLBACK_AFTER`] requests in a row →
    ///    reset to default application clocks and stop pinning: a run with a
    ///    wedged clock API keeps measuring at the device's own governor.
    /// 3. On success, read the applications clock back: a mismatch means the
    ///    driver clamped the request silently; the clamp is recorded as
    ///    recovered because measurements attribute to the *actual* clock
    ///    (the GPU timeline, not the request, feeds every energy integral).
    fn try_set_clocks(&mut self, ctx: &mut RankCtx, mhz: u32) {
        if self.clock_fallback {
            return;
        }
        let mut failed = 0u32;
        loop {
            match self
                .nvml_dev
                .set_applications_clocks(self.mem_target_mhz, mhz)
            {
                Ok(()) => {
                    if failed > 0 {
                        self.faults
                            .note_recovered_n(faults::Channel::ClockSet, u64::from(failed));
                    }
                    self.clock_failures = 0;
                    if let Ok(actual) = self.nvml_dev.applications_clock(nvml_shim::ClockType::Sm) {
                        if actual != mhz {
                            self.faults.note_recovered(faults::Channel::ClockClamp);
                        }
                    }
                    // Re-requesting the P-state the device already holds
                    // draws no fault, so this only fires when a tuner moved
                    // the memory clock and the driver clamped it.
                    if let Ok(actual) = self.nvml_dev.applications_clock(nvml_shim::ClockType::Mem)
                    {
                        if actual != self.mem_target_mhz {
                            self.faults.note_recovered(faults::Channel::ClockClamp);
                        }
                    }
                    return;
                }
                Err(NvmlError::NoPermission(_)) => {
                    self.clock_control_denied = true;
                    return;
                }
                Err(NvmlError::Unknown(_)) if failed < MAX_CLOCK_SET_RETRIES => {
                    failed += 1;
                    ctx.advance(CLOCK_RETRY_BACKOFF * (1u64 << failed));
                }
                Err(NvmlError::Unknown(_)) => {
                    failed += 1;
                    self.clock_failures += 1;
                    // Abandoning the request is itself the recovery: the run
                    // keeps measuring at the previous clock and the next
                    // region re-pins (or the fallback below takes over).
                    self.faults
                        .note_recovered_n(faults::Channel::ClockSet, u64::from(failed));
                    if self.clock_failures >= CLOCK_FALLBACK_AFTER {
                        self.clock_fallback = true;
                        // The reset path carries no injection, so the run
                        // reliably lands on default application clocks.
                        match self.nvml_dev.reset_applications_clocks() {
                            Ok(()) => {}
                            Err(NvmlError::NoPermission(_)) => self.clock_control_denied = true,
                            Err(e) => {
                                panic!("rank {}: clock fallback failed: {e}", self.rank)
                            }
                        }
                    }
                    return;
                }
                Err(e) => panic!("rank {}: unexpected NVML failure: {e}", self.rank),
            }
        }
    }

    /// Poison one exploration measurement if the glitch channel fires.
    /// Injection targets tuner *feedback* only — the accounting ledgers and
    /// telemetry keep the true timeline integrals — and the tuner's
    /// measurement-validity guard is the recovery layer: a poisoned sample
    /// must come back rejected or quarantined, never accepted into a fit.
    fn glitch_measurement(
        faults: &faults::DeviceFaults,
        energy_j: f64,
        time_s: f64,
    ) -> (f64, f64, bool) {
        if faults.measurement_glitch() {
            faults.note_injected(faults::Channel::MeasurementGlitch);
            (f64::NAN, f64::NAN, true)
        } else {
            (energy_j, time_s, false)
        }
    }

    fn try_reset_clocks(&mut self) {
        match self.nvml_dev.reset_applications_clocks() {
            Ok(()) => {}
            Err(NvmlError::NoPermission(_)) => self.clock_control_denied = true,
            Err(e) => panic!("rank {}: unexpected NVML failure: {e}", self.rank),
        }
    }

    /// Build the final per-rank report. Call after the last step; `ctx` is
    /// only used for the final loop timestamp.
    pub fn finish(mut self, ctx: &RankCtx) -> RankReport {
        // Close out the device timeline at the rank's final clock so loop
        // totals cover the whole window.
        let end = ctx.now();
        self.gpu.lock().idle_until(end);
        // The closing read bypasses sample-fault injection: it settles any
        // stale reads still pending so the loop totals are exact.
        self.pmt.read_exact();
        let loop_start = self.loop_start.unwrap_or(end);
        let loop_time_s = (end - loop_start).as_secs_f64();
        let gpu_loop_j = self.pmt.joules_between(loop_start, end).0;

        let mut functions = BTreeMap::new();
        for (func, acc) in &self.functions {
            functions.insert(
                func.name().to_string(),
                FunctionReport {
                    calls: acc.calls,
                    time_s: acc.time_s,
                    gpu_j: acc.gpu_j,
                    // CPU attribution is filled post-hoc by the runner once
                    // the node's host timeline is complete.
                    cpu_j: 0.0,
                    avg_freq_mhz: if acc.gpu_j > 0.0 {
                        acc.freq_weight / acc.gpu_j
                    } else {
                        0.0
                    },
                },
            );
        }

        let (freq_trace, power_trace) = if self.collect_trace {
            let gpu = self.gpu.lock();
            let freq = gpu
                .freq_timeline()
                .sample(loop_start, end, TRACE_PERIOD)
                .into_iter()
                .map(|(t, f)| (t.as_secs_f64(), f.0))
                .collect();
            // Power is reported as per-bucket averages (an energy-counter
            // difference, like pm_counters) so sub-millisecond transition
            // transients don't alias into full-height spikes.
            let power = gpu
                .power_timeline()
                .sample_average(loop_start, end, TRACE_PERIOD)
                .into_iter()
                .map(|(t, w)| (t.as_secs_f64(), w.0))
                .collect();
            (freq, power)
        } else {
            (Vec::new(), Vec::new())
        };

        let by_name = |table: online::LearnedTable| -> BTreeMap<String, u32> {
            table
                .into_iter()
                .map(|(f, mhz)| (f.name().to_string(), mhz.0))
                .collect()
        };
        let (learned_table, mem_table, models, exploration_launches, search_fallbacks) =
            match &self.tuner {
                Some(t) => (
                    by_name(t.table()),
                    by_name(t.mem_table()),
                    t.models()
                        .iter()
                        .map(|(f, m)| (f.name().to_string(), m.clone()))
                        .collect(),
                    t.exploration_launches(),
                    t.search_fallbacks(),
                ),
                None => Default::default(),
            };

        RankReport {
            rank: self.rank,
            functions,
            loop_time_s,
            gpu_loop_j,
            clock_control_denied: self.clock_control_denied,
            freq_trace,
            power_trace,
            learned_table,
            exploration_launches,
            mem_table,
            models,
            search_fallbacks,
        }
    }
}

impl StepObserver for EnergyInstrument {
    fn before(&mut self, func: FuncId, ctx: &mut RankCtx) {
        if self.loop_start.is_none() {
            // PMT starts measuring at the time-stepping loop (§IV-A) — not
            // at job submission, which is Slurm's window.
            self.loop_start = Some(ctx.now());
            self.gpu.lock().idle_until(ctx.now());
        }
        // Apply the frequency policy *before* the function runs.
        if let Some(tuner) = &mut self.tuner {
            let (core, mem) = tuner.propose(func);
            if tuner.drives_memory_clock() {
                self.mem_target_mhz = mem.0;
            }
            self.try_set_clocks(ctx, core.0);
        } else if matches!(self.policy, FreqPolicy::ManDyn(_)) || !self.policy_applied_once {
            // ManDyn re-pins per function; the other fixed policies apply
            // once, on the first instrumented call.
            let want = self.policy.frequency_for(func, self.gpu.lock().spec());
            match want {
                Some(mhz) => self.try_set_clocks(ctx, mhz.0),
                None => self.try_reset_clocks(),
            }
            self.policy_applied_once = true;
        }
        let state = self.pmt.read();
        self.pending = Some(Pending {
            func,
            state,
            rank_clock: ctx.now(),
        });
    }

    fn after(
        &mut self,
        func: FuncId,
        workload: &archsim::KernelWorkload,
        host_pre: SimDuration,
        ctx: &mut RankCtx,
    ) {
        let pending = self
            .pending
            .take()
            .unwrap_or_else(|| panic!("after({func}) without before"));
        assert_eq!(pending.func, func, "mismatched before/after pair");

        // Host/communication gap: the GPU idles while the rank clock moves.
        ctx.advance(host_pre);
        let exec = {
            let mut gpu = self.gpu.lock();
            gpu.idle_until(ctx.now());
            // The AMD (HIP) port of the heavy kernels is less optimized —
            // the Fig. 5 LUMI-G observation.
            let derate = func.arch_flops_derate(&gpu.spec().name);
            if derate != 1.0 {
                let mut w = workload.clone();
                w.flops *= derate;
                gpu.run_region(&w)
            } else {
                gpu.run_region(workload)
            }
        };
        ctx.advance_to(exec.end);

        let state = self.pmt.read();
        let call_time = (ctx.now() - pending.rank_clock).as_secs_f64();
        let mut call_j = joules(&pending.state, &state).0;
        if call_j <= 0.0 && exec.energy.0 > 0.0 {
            // Both PMT reads of this call came back stale (dropped samples):
            // fall back to the region's exact timeline integral rather than
            // booking zero energy for work that demonstrably ran.
            call_j = exec.energy.0;
        }
        let acc = self.functions.entry(func).or_default();
        acc.calls += 1;
        acc.time_s += call_time;
        acc.gpu_j += call_j;
        acc.freq_weight += f64::from(exec.avg_freq.0) * call_j;

        if telemetry::active() {
            telemetry::counter_add("instrument.calls", 1);
            telemetry::histogram_record("call_energy_j", call_j);
            telemetry::histogram_record("call_time_s", call_time);
        }

        if let Some(tuner) = self.tuner.as_mut() {
            // Region-only time/energy — the same quantity the offline
            // KernelTuner harness scores, so learned tables are directly
            // comparable to `tune_table`'s — fed back at the clocks the
            // region *actually* ran at: the core clock from the execution's
            // energy-weighted average, the memory clock from the device
            // readback (a clamped request must anchor the model at the real
            // P-state).
            let region_t = exec.duration().as_secs_f64();
            let mem_mhz = self
                .nvml_dev
                .clock_info(nvml_shim::ClockType::Mem)
                .unwrap_or(self.mem_target_mhz);
            let (e_j, t_s, glitched) = if tuner.is_pinned(func) {
                (exec.energy.0, region_t, false)
            } else {
                Self::glitch_measurement(&self.faults, exec.energy.0, region_t)
            };
            let outcome = tuner.record(func, exec.avg_freq, MegaHertz(mem_mhz), e_j, t_s);
            if glitched && outcome != RecordOutcome::Accepted {
                // The validity guard caught the garbled sample — that
                // rejection *is* the recovery for this channel.
                self.faults
                    .note_recovered(faults::Channel::MeasurementGlitch);
            }
            if telemetry::active() {
                // Each in-run measurement *is* a tuner evaluation — the
                // counterpart of an offline sweep point.
                telemetry::span_complete(
                    "tuner",
                    "eval",
                    exec.start.as_nanos(),
                    exec.end.as_nanos(),
                    vec![
                        ("func", func.name().into()),
                        ("freq_mhz", exec.avg_freq.0.into()),
                        ("mem_mhz", mem_mhz.into()),
                        ("energy_j", exec.energy.0.into()),
                        ("edp", EnergyDelay::of(exec.energy.0, region_t).0.into()),
                        ("pinned", tuner.is_pinned(func).into()),
                    ],
                );
                if let Some(edp) = tuner.windowed_edp(func) {
                    telemetry::gauge_set(&format!("online.windowed_edp.{}", func.name()), edp);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::{GpuSpec, MegaHertz};
    use ranks::CommCost;
    use sph::{subsonic_turbulence, Kernel, SimConfig, Simulation};

    fn nvml_one() -> Nvml {
        let gpu = Arc::new(Mutex::new(GpuDevice::new(0, GpuSpec::a100_pcie_40gb())));
        Nvml::init(vec![gpu])
    }

    fn run_policy(policy: FreqPolicy, steps: usize) -> RankReport {
        ranks::run(1, CommCost::default(), move |ctx| {
            let nvml = nvml_one();
            let ic = subsonic_turbulence(6, 0.3, 3);
            let cfg = SimConfig {
                kernel: Kernel::CubicSpline,
                target_particles_per_rank: 450.0f64.powi(3),
                target_neighbors: 30,
                bucket_size: 32,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(ic, cfg);
            let mut inst = EnergyInstrument::new(&nvml, ctx.rank(), policy.clone())
                .unwrap()
                .with_freq_trace();
            for _ in 0..steps {
                sim.step(ctx, &mut inst);
            }
            inst.finish(ctx)
        })
        .remove(0)
    }

    #[test]
    fn per_function_accounting_covers_the_loop() {
        let report = run_policy(FreqPolicy::Baseline, 3);
        assert_eq!(report.rank, 0);
        assert!(!report.clock_control_denied);
        // All 11 turbulence functions recorded, 3 calls each.
        assert_eq!(report.functions.len(), 11);
        for (name, f) in &report.functions {
            assert_eq!(f.calls, 3, "{name}");
            assert!(f.time_s > 0.0, "{name}");
            assert!(f.gpu_j > 0.0, "{name}");
        }
        // Function sums must account for (almost) the whole loop.
        assert!(report.functions_time_s() <= report.loop_time_s + 1e-9);
        assert!(report.functions_time_s() > 0.95 * report.loop_time_s);
        assert!(report.functions_gpu_j() <= report.gpu_loop_j + 1e-6);
        assert!(report.functions_gpu_j() > 0.95 * report.gpu_loop_j);
    }

    #[test]
    fn momentum_energy_dominates_gpu_energy() {
        let report = run_policy(FreqPolicy::Baseline, 2);
        let shares = report.gpu_energy_shares();
        let me = shares["MomentumEnergy"];
        for (name, share) in &shares {
            assert!(
                *share <= me + 1e-12,
                "{name} ({share}) exceeds MomentumEnergy ({me})"
            );
        }
    }

    #[test]
    fn baseline_pins_max_clock_for_every_function() {
        let report = run_policy(FreqPolicy::Baseline, 2);
        for (name, f) in &report.functions {
            assert!(
                (f.avg_freq_mhz - 1410.0).abs() < 1.0,
                "{name} ran at {} MHz under baseline",
                f.avg_freq_mhz
            );
        }
    }

    #[test]
    fn static_policy_runs_everything_at_requested_clock() {
        let report = run_policy(FreqPolicy::Static(MegaHertz(1005)), 2);
        for (name, f) in &report.functions {
            assert!(
                (f.avg_freq_mhz - 1005.0).abs() < 1.0,
                "{name} ran at {} MHz under static-1005",
                f.avg_freq_mhz
            );
        }
    }

    #[test]
    fn mandyn_runs_functions_at_their_table_clocks() {
        let mut table = crate::policy::FreqTable::new();
        table.insert(FuncId::MomentumEnergy, MegaHertz(1410));
        table.insert(FuncId::XMass, MegaHertz(1005));
        let report = run_policy(FreqPolicy::ManDyn(table), 2);
        let me = report.function(FuncId::MomentumEnergy).unwrap();
        let xm = report.function(FuncId::XMass).unwrap();
        assert!(
            (me.avg_freq_mhz - 1410.0).abs() < 1.0,
            "MomentumEnergy at {}",
            me.avg_freq_mhz
        );
        assert!(
            (xm.avg_freq_mhz - 1005.0).abs() < 1.0,
            "XMass at {}",
            xm.avg_freq_mhz
        );
        // Unlisted functions fall back to max.
        let eos = report.function(FuncId::EquationOfState).unwrap();
        assert!((eos.avg_freq_mhz - 1410.0).abs() < 1.0);
    }

    #[test]
    fn dvfs_policy_lets_clock_vary_per_function() {
        let report = run_policy(FreqPolicy::Dvfs, 2);
        let me = report
            .function(FuncId::MomentumEnergy)
            .unwrap()
            .avg_freq_mhz;
        let dd = report
            .function(FuncId::DomainDecompAndSync)
            .unwrap()
            .avg_freq_mhz;
        assert!(
            me > dd,
            "governor should boost MomentumEnergy ({me}) above DomainDecomp ({dd})"
        );
        assert!(!report.freq_trace.is_empty(), "trace requested");
    }

    #[test]
    fn predictive_policy_pins_kernels_and_reports_models() {
        let policy = FreqPolicy::ManDynPredictive(online::PredictiveConfig::default());
        let report = run_policy(policy, 16);
        // Probing (4 rungs × 2 samples) plus verification fits inside the
        // 16-step window, so kernels are pinned with fitted coefficients.
        assert!(!report.learned_table.is_empty(), "kernels must pin");
        assert!(!report.models.is_empty(), "fitted models must be reported");
        assert!(report.exploration_launches > 0, "cold start probes");
        // Fig. 2 split: memory-bound XMass pins low.
        if let Some(xm) = report.learned_table.get("XMass") {
            assert!(*xm <= 1110, "XMass pinned at {xm}");
        }
        // Every model-pinned kernel reports a memory P-state (the default,
        // since the memory axis is closed here).
        for (name, mem) in &report.mem_table {
            assert_eq!(*mem, 1593, "{name} memory clock");
        }
    }

    #[test]
    fn predictive_spends_far_fewer_launches_than_the_search() {
        let online = run_policy(FreqPolicy::ManDynOnline(Default::default()), 20);
        let predictive = run_policy(
            FreqPolicy::ManDynPredictive(online::PredictiveConfig::default()),
            20,
        );
        assert!(
            online.exploration_launches > 0 && predictive.exploration_launches > 0,
            "both cold starts explore"
        );
        assert!(
            predictive.exploration_launches * 2 <= online.exploration_launches,
            "predictive ({}) must explore far less than the search ({})",
            predictive.exploration_launches,
            online.exploration_launches
        );
        // And it still lands in the efficient neighbourhood.
        let base = run_policy(FreqPolicy::Baseline, 20);
        let e = predictive.gpu_loop_j / base.gpu_loop_j;
        let t = predictive.loop_time_s / base.loop_time_s;
        assert!(t * e < 1.0, "predictive must improve EDP: {}", t * e);
    }

    #[test]
    fn locked_device_reports_denied_control_but_still_measures() {
        let report = ranks::run(1, CommCost::default(), |ctx| {
            let mut dev = GpuDevice::new(0, GpuSpec::a100_sxm4_80gb());
            dev.set_application_clocks(MegaHertz(1410)).unwrap();
            dev.lock_clock_control();
            let nvml = Nvml::init(vec![Arc::new(Mutex::new(dev))]);
            let ic = subsonic_turbulence(6, 0.3, 3);
            let mut sim = Simulation::new(
                ic,
                SimConfig {
                    target_particles_per_rank: 1e6,
                    target_neighbors: 30,
                    ..Default::default()
                },
            );
            let mut inst =
                EnergyInstrument::new(&nvml, ctx.rank(), FreqPolicy::Static(MegaHertz(1005)))
                    .unwrap();
            sim.step(ctx, &mut inst);
            inst.finish(ctx)
        })
        .remove(0);
        assert!(report.clock_control_denied);
        assert!(report.gpu_loop_j > 0.0, "measurement still works");
    }
}
