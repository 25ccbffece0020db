//! Physical unit newtypes used throughout the simulator.
//!
//! Frequencies are integer megahertz (matching NVML's `unsigned int` MHz
//! clocks); power, energy and voltage are `f64` wrappers with just enough
//! arithmetic to keep dimensional mistakes out of the power model.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimDuration;

/// A clock frequency in megahertz.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MegaHertz(pub u32);

impl MegaHertz {
    /// Ratio of `self` to `other` as `f64` (used for frequency scaling laws).
    pub fn ratio(self, other: MegaHertz) -> f64 {
        self.0 as f64 / other.0 as f64
    }
}

impl fmt::Display for MegaHertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz", self.0)
    }
}

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Watts(pub f64);

impl Watts {
    pub const ZERO: Watts = Watts(0.0);

    /// Power in milliwatts, as NVML reports it.
    pub fn as_milliwatts(self) -> u64 {
        (self.0 * 1e3).round().max(0.0) as u64
    }

    /// Energy accumulated by holding this power level for `d`.
    pub fn energy_over(self, d: SimDuration) -> Joules {
        Joules(self.0 * d.as_secs_f64())
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Joules(pub f64);

impl Joules {
    pub const ZERO: Joules = Joules(0.0);

    /// Average power if this energy was spent over `d`. Returns zero power for
    /// a zero-length window.
    pub fn average_power(self, d: SimDuration) -> Watts {
        let s = d.as_secs_f64();
        if s <= 0.0 {
            Watts::ZERO
        } else {
            Watts(self.0 / s)
        }
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Div<Joules> for Joules {
    type Output = f64;
    fn div(self, rhs: Joules) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} J", self.0)
    }
}

/// Electrical potential in volts (the `V` of DVFS).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Volts(pub f64);

impl Volts {
    /// `(self / other)^2` — the quadratic voltage term of dynamic power.
    pub fn squared_ratio(self, other: Volts) -> f64 {
        let r = self.0 / other.0;
        r * r
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.0)
    }
}

/// Energy-delay product: `energy [J] * time [s]`. Lower is better; the paper
/// uses it as the combined efficiency metric throughout §IV.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct EnergyDelay(pub f64);

impl EnergyDelay {
    /// Compute EDP from energy and elapsed time.
    pub fn new(energy: Joules, time: SimDuration) -> Self {
        EnergyDelay::of(energy.0, time.as_secs_f64())
    }

    /// Compute EDP from raw joules and seconds. The single shared EDP
    /// formulation: every scoring path (offline tuner, online tuner, report
    /// analytics) goes through here so the objective cannot drift.
    pub fn of(energy_j: f64, time_s: f64) -> Self {
        EnergyDelay(energy_j * time_s)
    }

    /// Ratio to a baseline EDP (normalization used in Figs. 6–8).
    pub fn normalized_to(self, baseline: EnergyDelay) -> f64 {
        self.0 / baseline.0
    }
}

impl fmt::Display for EnergyDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} J*s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_energy_over_duration() {
        let e = Watts(250.0).energy_over(SimDuration::from_secs(4));
        assert_eq!(e, Joules(1000.0));
    }

    #[test]
    fn joules_average_power_zero_window() {
        assert_eq!(Joules(10.0).average_power(SimDuration::ZERO), Watts::ZERO);
        assert_eq!(
            Joules(10.0).average_power(SimDuration::from_secs(5)),
            Watts(2.0)
        );
    }

    #[test]
    fn nvml_style_milliwatts() {
        assert_eq!(Watts(123.456).as_milliwatts(), 123_456);
        assert_eq!(Watts(-1.0).as_milliwatts(), 0, "never negative");
    }

    #[test]
    fn edp_combines_energy_and_delay() {
        let edp = EnergyDelay::new(Joules(100.0), SimDuration::from_secs(2));
        assert_eq!(edp.0, 200.0);
        let base = EnergyDelay::new(Joules(100.0), SimDuration::from_secs(4));
        assert!((edp.normalized_to(base) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edp_zero_duration_is_zero_not_nan() {
        // A zero-duration measurement must compare as "best possible", not
        // poison downstream min-comparisons with NaN.
        let edp = EnergyDelay::of(123.0, 0.0);
        assert_eq!(edp.0, 0.0);
        assert!(edp.0.is_finite());
        assert_eq!(EnergyDelay::new(Joules(123.0), SimDuration::ZERO).0, 0.0);
        // And zero energy behaves the same way.
        assert_eq!(EnergyDelay::of(0.0, 5.0).0, 0.0);
    }

    #[test]
    fn volts_squared_ratio() {
        let r = Volts(0.9).squared_ratio(Volts(1.0));
        assert!((r - 0.81).abs() < 1e-12);
    }

    #[test]
    fn megahertz_ratio() {
        assert!((MegaHertz(1410).ratio(MegaHertz(705)) - 2.0).abs() < 1e-12);
    }
}
