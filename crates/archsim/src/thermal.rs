//! First-order (RC) thermal model with temperature-dependent leakage.
//!
//! Real DVFS interacts with two more control loops the paper's §II touches
//! on: the software power cap and thermal slowdown. The junction temperature
//! follows a single-pole RC response toward `ambient + R_th * P`; leakage
//! power grows with temperature, and crossing the slowdown threshold caps
//! the clock — surfaced through the NVML shim as
//! `HW_THERMAL_SLOWDOWN` / `SW_POWER_CAP` clocks-event reasons.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;
use crate::units::Watts;

/// Thermal envelope of a GPU package.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalSpec {
    /// Inlet/ambient temperature, °C.
    pub ambient_c: f64,
    /// Junction-to-ambient thermal resistance, °C per watt.
    pub r_th_c_per_w: f64,
    /// RC time constant of the package + heatsink.
    pub tau: SimDuration,
    /// Junction temperature at which the driver starts pulling clocks.
    pub slowdown_c: f64,
    /// Leakage growth per °C above the reference point, as a fraction of
    /// idle power (silicon leakage roughly doubles every ~30 °C; a linear
    /// fit is adequate over the operating range).
    pub leakage_per_c: f64,
    /// Reference temperature for the leakage fit.
    pub leakage_ref_c: f64,
}

impl ThermalSpec {
    /// Air/liquid-cooled SXM-class package.
    pub fn sxm() -> Self {
        ThermalSpec {
            ambient_c: 30.0,
            r_th_c_per_w: 0.11,
            tau: SimDuration::from_secs(9),
            slowdown_c: 88.0,
            leakage_per_c: 0.006,
            leakage_ref_c: 40.0,
        }
    }

    /// PCIE card (weaker cooling: higher resistance, slower time constant).
    pub fn pcie() -> Self {
        ThermalSpec {
            ambient_c: 32.0,
            r_th_c_per_w: 0.18,
            tau: SimDuration::from_secs(12),
            slowdown_c: 85.0,
            leakage_per_c: 0.006,
            leakage_ref_c: 40.0,
        }
    }

    /// OAM module (MI250X-class, liquid cooled).
    pub fn oam() -> Self {
        ThermalSpec {
            ambient_c: 28.0,
            r_th_c_per_w: 0.10,
            tau: SimDuration::from_secs(8),
            slowdown_c: 90.0,
            leakage_per_c: 0.006,
            leakage_ref_c: 40.0,
        }
    }

    /// Steady-state junction temperature at constant power `p`.
    pub fn steady_state_c(&self, p: Watts) -> f64 {
        self.ambient_c + self.r_th_c_per_w * p.0
    }

    /// Advance the junction temperature from `t_c` over `dt` at constant
    /// power `p` (exact single-pole step response).
    pub fn step(&self, t_c: f64, p: Watts, dt: SimDuration) -> f64 {
        let target = self.steady_state_c(p);
        let x = dt.as_secs_f64() / self.tau.as_secs_f64().max(1e-9);
        target + (t_c - target) * (-x).exp()
    }

    /// Multiplicative leakage factor on idle/static power at temperature
    /// `t_c` (never below 1).
    pub fn leakage_factor(&self, t_c: f64) -> f64 {
        (1.0 + self.leakage_per_c * (t_c - self.leakage_ref_c)).max(1.0)
    }

    /// True if the junction is at or past the slowdown threshold.
    pub fn throttling(&self, t_c: f64) -> bool {
        t_c >= self.slowdown_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_ambient_plus_ir_drop() {
        let th = ThermalSpec::sxm();
        assert_eq!(th.steady_state_c(Watts(0.0)), 30.0);
        let t = th.steady_state_c(Watts(400.0));
        assert!((t - 74.0).abs() < 1e-9);
    }

    #[test]
    fn step_response_converges_monotonically() {
        let th = ThermalSpec::sxm();
        let mut t = th.ambient_c;
        let mut last = t;
        for _ in 0..100 {
            t = th.step(t, Watts(300.0), SimDuration::from_secs(1));
            assert!(t >= last, "heating must be monotone");
            last = t;
        }
        let ss = th.steady_state_c(Watts(300.0));
        assert!((t - ss).abs() < 0.1, "converged to {t}, expected {ss}");
        // Cooling back down.
        for _ in 0..100 {
            t = th.step(t, Watts(0.0), SimDuration::from_secs(1));
        }
        assert!((t - th.ambient_c).abs() < 0.1);
    }

    #[test]
    fn one_tau_covers_63_percent() {
        let th = ThermalSpec::sxm();
        let t = th.step(th.ambient_c, Watts(400.0), th.tau);
        let rise = (t - th.ambient_c) / (th.steady_state_c(Watts(400.0)) - th.ambient_c);
        assert!((rise - 0.632).abs() < 0.01, "rise {rise}");
    }

    #[test]
    fn leakage_grows_with_temperature_and_never_shrinks() {
        let th = ThermalSpec::sxm();
        assert_eq!(th.leakage_factor(20.0), 1.0, "clamped below reference");
        let hot = th.leakage_factor(80.0);
        assert!((hot - 1.24).abs() < 1e-9);
        assert!(th.leakage_factor(60.0) < hot);
    }

    #[test]
    fn throttle_threshold() {
        let th = ThermalSpec::pcie();
        assert!(!th.throttling(84.9));
        assert!(th.throttling(85.0));
    }

    #[test]
    fn big_step_equals_two_half_steps() {
        // Exact exponential integration: splitting the interval is lossless.
        let th = ThermalSpec::sxm();
        let p = Watts(250.0);
        let whole = th.step(45.0, p, SimDuration::from_secs(4));
        let half = th.step(
            th.step(45.0, p, SimDuration::from_secs(2)),
            p,
            SimDuration::from_secs(2),
        );
        assert!((whole - half).abs() < 1e-9);
    }

    /// Properties, 256 generated cases each.
    mod props {
        use super::*;

        #[test]
        fn prop_temperature_bounded_by_endpoints() {
            rng::cases(256, |g| {
                let t0 = g.f64(20.0..100.0);
                let p = g.f64(0.0..600.0);
                let dt_ms = g.u64(1..100_000);
                // The RC response never overshoots: the new temperature lies
                // between the start and the steady state.
                let th = ThermalSpec::sxm();
                let ss = th.steady_state_c(Watts(p));
                let t1 = th.step(t0, Watts(p), SimDuration::from_millis(dt_ms));
                let lo = t0.min(ss) - 1e-9;
                let hi = t0.max(ss) + 1e-9;
                assert!(t1 >= lo && t1 <= hi, "{t0} -> {t1} (ss {ss})");
            });
        }

        #[test]
        fn prop_leakage_monotone_in_temperature() {
            rng::cases(256, |g| {
                let (a, b) = (g.f64(-20.0..120.0), g.f64(-20.0..120.0));
                let th = ThermalSpec::pcie();
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                assert!(th.leakage_factor(lo) <= th.leakage_factor(hi));
                assert!(th.leakage_factor(lo) >= 1.0);
            });
        }

        #[test]
        fn prop_hotter_start_stays_hotter() {
            rng::cases(256, |g| {
                let t_a = g.f64(20.0..90.0);
                let delta = g.f64(0.1..30.0);
                let p = g.f64(0.0..500.0);
                let dt_ms = g.u64(1..60_000);
                // Single-pole response preserves ordering of initial states.
                let th = ThermalSpec::oam();
                let cold = th.step(t_a, Watts(p), SimDuration::from_millis(dt_ms));
                let hot = th.step(t_a + delta, Watts(p), SimDuration::from_millis(dt_ms));
                assert!(hot > cold);
            });
        }
    }
}
