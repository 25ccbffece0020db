//! Clock policies: pinned application clocks vs. the autonomous DVFS governor.
//!
//! The governor reproduces the behaviour the paper measures in §IV-E (Fig. 9):
//! every kernel launch boosts the clock before any utilization feedback
//! exists, compute-heavy kernels settle near the top of the ladder, the many
//! lightweight launches of `DomainDecompAndSync` hold an unnecessarily high
//! plateau, and communication gaps let the clock decay below 1000 MHz.

use serde::{Deserialize, Serialize};

use crate::kernel::KernelWorkload;
use crate::spec::GpuSpec;
use crate::units::MegaHertz;

/// How the device's compute clock is controlled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClockPolicy {
    /// `nvmlDeviceSetApplicationsClocks`-style pin: the clock snaps to the
    /// requested value and stays there. No boost guard-band is applied.
    ApplicationClocks(MegaHertz),
    /// The hardware/driver DVFS governor owns the clock.
    Dvfs(DvfsParams),
}

impl ClockPolicy {
    /// Default-of-the-machine policy: DVFS with standard parameters.
    pub fn default_dvfs() -> Self {
        ClockPolicy::Dvfs(DvfsParams::default())
    }
}

/// Tunable constants of the simulated DVFS governor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvfsParams {
    /// Clock ramp rate while boosting, MHz per microsecond.
    pub ramp_up_mhz_per_us: f64,
    /// Clock decay rate while idle, MHz per microsecond (much slower:
    /// governors are reluctant to drop clocks between launches).
    pub ramp_down_mhz_per_us: f64,
    /// Clock the governor decays toward when the device stays idle.
    pub idle_floor: MegaHertz,
    /// Base clock of the utilization-feedback target range: a kernel with
    /// zero compute activity targets this, full activity targets `max`.
    pub target_base: MegaHertz,
    /// Gain applied to compute activity when choosing the settle target;
    /// >1 means moderately intense kernels already target the top step.
    pub activity_gain: f64,
    /// Initial launch-boost target as a fraction of the max clock — applied
    /// on every launch *before* utilization feedback exists (the §IV-E
    /// "kernel does not yet have any information" effect).
    pub launch_boost_fraction: f64,
}

impl Default for DvfsParams {
    fn default() -> Self {
        DvfsParams {
            ramp_up_mhz_per_us: 1.5,
            ramp_down_mhz_per_us: 0.05,
            idle_floor: MegaHertz(690),
            target_base: MegaHertz(1110),
            activity_gain: 1.05,
            launch_boost_fraction: 0.93,
        }
    }
}

impl DvfsParams {
    /// The clock the governor settles at for a kernel region once utilization
    /// feedback is available, before snapping to the device's ladder.
    pub fn settle_target(&self, w: &KernelWorkload, gpu: &GpuSpec) -> MegaHertz {
        let fmax = gpu.clock_table.max();
        let base = self.target_base.min(fmax);
        let x = (self.activity_gain * w.compute_activity).clamp(0.0, 1.0);
        let raw = base.0 as f64 + (fmax.0 - base.0) as f64 * x;
        gpu.clock_table.nearest(MegaHertz(raw.round() as u32))
    }

    /// The clock targeted immediately on a kernel launch (no feedback yet).
    pub fn launch_boost_target(&self, gpu: &GpuSpec) -> MegaHertz {
        let fmax = gpu.clock_table.max();
        let raw = fmax.0 as f64 * self.launch_boost_fraction.clamp(0.0, 1.0);
        gpu.clock_table
            .nearest(MegaHertz(raw.round() as u32))
            .max(self.idle_floor)
    }

    /// Advance an *analog* (unquantized) clock one step of `dt_us` toward
    /// `target`, rate-limited. The caller quantizes to the device ladder for
    /// reporting; keeping the analog value prevents slow ramps from being
    /// trapped by the 15/25 MHz step size.
    pub fn step_analog(&self, current_mhz: f64, target: MegaHertz, dt_us: f64) -> f64 {
        let tgt = target.0 as f64;
        if tgt > current_mhz {
            (current_mhz + self.ramp_up_mhz_per_us * dt_us).min(tgt)
        } else {
            (current_mhz - self.ramp_down_mhz_per_us * dt_us).max(tgt)
        }
    }

    /// Quantized convenience wrapper over [`DvfsParams::step_analog`].
    pub fn step_toward(
        &self,
        current: MegaHertz,
        target: MegaHertz,
        dt_us: f64,
        gpu: &GpuSpec,
    ) -> MegaHertz {
        let next = self.step_analog(current.0 as f64, target, dt_us);
        gpu.clock_table.nearest(MegaHertz(next.round() as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuSpec {
        GpuSpec::a100_sxm4_80gb()
    }

    fn kernel(activity: f64) -> KernelWorkload {
        KernelWorkload::new("k", 1e9, 1e9).with_activity(activity, 0.5)
    }

    #[test]
    fn compute_heavy_kernel_targets_max_clock() {
        let p = DvfsParams::default();
        assert_eq!(p.settle_target(&kernel(0.97), &gpu()), MegaHertz(1410));
    }

    #[test]
    fn moderate_kernel_targets_midrange() {
        let p = DvfsParams::default();
        let t = p.settle_target(&kernel(0.65), &gpu());
        assert!(t >= MegaHertz(1280) && t <= MegaHertz(1350), "got {t}");
    }

    #[test]
    fn lightweight_kernel_targets_low_but_above_base() {
        let p = DvfsParams::default();
        let t = p.settle_target(&kernel(0.15), &gpu());
        assert!(t >= MegaHertz(1110) && t <= MegaHertz(1230), "got {t}");
    }

    #[test]
    fn launch_boost_is_high_regardless_of_kernel() {
        let p = DvfsParams::default();
        let b = p.launch_boost_target(&gpu());
        assert!(b >= MegaHertz(1290), "launch boost should be near max: {b}");
    }

    #[test]
    fn targets_land_on_supported_steps() {
        let p = DvfsParams::default();
        let g = gpu();
        for a in [0.0, 0.1, 0.33, 0.5, 0.77, 1.0] {
            assert!(g.clock_table.supports(p.settle_target(&kernel(a), &g)));
        }
        assert!(g.clock_table.supports(p.launch_boost_target(&g)));
    }

    #[test]
    fn ramp_is_rate_limited_and_asymmetric() {
        let p = DvfsParams::default();
        let g = gpu();
        // Boosting 100us from 1005 -> at most 1005 + 150 MHz.
        let up = p.step_toward(MegaHertz(1005), MegaHertz(1410), 100.0, &g);
        assert_eq!(up, MegaHertz(1155));
        // Decaying 100us from 1410 -> only ~5 MHz (snaps to nearest step).
        let down = p.step_toward(MegaHertz(1410), MegaHertz(690), 100.0, &g);
        assert!(down >= MegaHertz(1395), "decay should be slow, got {down}");
        // Decay eventually reaches the floor.
        let settled = p.step_toward(MegaHertz(700), MegaHertz(690), 10_000.0, &g);
        assert_eq!(settled, MegaHertz(690));
    }

    #[test]
    fn step_never_overshoots_target() {
        let p = DvfsParams::default();
        let g = gpu();
        let up = p.step_toward(MegaHertz(1400), MegaHertz(1410), 1e6, &g);
        assert_eq!(up, MegaHertz(1410));
    }

    /// Properties, 256 generated cases each.
    mod props {
        use super::*;

        #[test]
        fn prop_settle_target_monotone_in_activity() {
            rng::cases(256, |g| {
                let (a, b) = (g.f64(0.0..1.0), g.f64(0.0..1.0));
                // More compute-intense kernels never settle *lower*.
                let p = DvfsParams::default();
                let gpu = gpu();
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let t_lo = p.settle_target(&kernel(lo), &gpu);
                let t_hi = p.settle_target(&kernel(hi), &gpu);
                assert!(t_lo <= t_hi, "{lo}->{t_lo} vs {hi}->{t_hi}");
            });
        }

        #[test]
        fn prop_analog_step_bounded_and_directed() {
            rng::cases(256, |g| {
                let cur = g.f64(210.0..1410.0);
                let tgt = g.u32(210..=1410);
                let dt_us = g.f64(0.0..100_000.0);
                let p = DvfsParams::default();
                let next = p.step_analog(cur, MegaHertz(tgt), dt_us);
                let tgt_f = f64::from(tgt);
                // Moves toward the target without overshooting it.
                if tgt_f >= cur {
                    assert!(next >= cur && next <= tgt_f + 1e-9);
                    assert!(next - cur <= p.ramp_up_mhz_per_us * dt_us + 1e-9);
                } else {
                    assert!(next <= cur && next >= tgt_f - 1e-9);
                    assert!(cur - next <= p.ramp_down_mhz_per_us * dt_us + 1e-9);
                }
            });
        }

        #[test]
        fn prop_targets_always_on_device_ladder() {
            rng::cases(256, |g| {
                let a = g.f64(0.0..1.0);
                let p = DvfsParams::default();
                let gpu = gpu();
                assert!(gpu.clock_table.supports(p.settle_target(&kernel(a), &gpu)));
                assert!(gpu.clock_table.supports(p.launch_boost_target(&gpu)));
            });
        }
    }
}
