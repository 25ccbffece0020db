//! `AVSwitches`: time-dependent artificial-viscosity switches
//! (Morris & Monaghan style, as used in SPH-EXA).
//!
//! Alpha grows where the flow compresses (shock indicator `-div v`) and
//! decays on a crossing-time scale elsewhere, keeping the scheme dissipative
//! only where it must be.

use crate::particles::Particles;

/// Floor of the viscosity switch.
pub const ALPHA_MIN: f64 = 0.05;
/// Ceiling of the viscosity switch.
pub const ALPHA_MAX: f64 = 1.0;
/// Decay time in units of the local crossing time `h / c`.
pub const DECAY_CROSSINGS: f64 = 5.0;

/// Advance the switches by `dt` using the current `divv` indicator.
pub fn av_switches(parts: &mut Particles, dt: f64) {
    for i in 0..parts.n_local {
        let c = parts.c[i].max(1e-12);
        let h = parts.h[i];
        // Source: active only in compression.
        let s = (-parts.divv[i]).max(0.0);
        // Target value saturates as compression dominates the sound crossing.
        let target = ALPHA_MAX * s / (s + c / h);
        let tau = DECAY_CROSSINGS * h / c;
        let decayed = parts.alpha[i] + (ALPHA_MIN - parts.alpha[i]) * (dt / tau).min(1.0);
        parts.alpha[i] = decayed.max(target).clamp(ALPHA_MIN, ALPHA_MAX);
    }
}

/// Monaghan artificial-viscosity term `Pi_ij` for one interacting pair.
/// Zero for receding pairs. `mu` is `h v.r / (r^2 + eps h^2)`.
///
/// Select form — the term is evaluated either way and the sign of `v.r`
/// picks it or zero — so the momentum sweep's whole-row pass, which inlines
/// this per lane, stays branch-free; about half of a row's pairs recede, so
/// as a branch it mispredicts on every other one.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn viscosity_pi(alpha_ij: f64, h_ij: f64, c_ij: f64, rho_ij: f64, vdotr: f64, r2: f64) -> f64 {
    const BETA_FACTOR: f64 = 2.0;
    const EPS: f64 = 0.01;
    let mu = h_ij * vdotr / (r2 + EPS * h_ij * h_ij);
    let pi = (-alpha_ij * c_ij * mu + BETA_FACTOR * alpha_ij * mu * mu) / rho_ij;
    if vdotr >= 0.0 {
        0.0
    } else {
        pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_particle(divv: f64, alpha: f64) -> Particles {
        let mut p = Particles::new();
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.c[0] = 1.0;
        p.divv[0] = divv;
        p.alpha[0] = alpha;
        p
    }

    #[test]
    fn compression_raises_alpha() {
        let mut p = one_particle(-50.0, ALPHA_MIN);
        av_switches(&mut p, 1e-3);
        assert!(
            p.alpha[0] > 0.5,
            "strong compression should boost alpha: {}",
            p.alpha[0]
        );
        assert!(p.alpha[0] <= ALPHA_MAX);
    }

    #[test]
    fn expansion_lets_alpha_decay_to_floor() {
        let mut p = one_particle(10.0, 0.8);
        for _ in 0..200 {
            av_switches(&mut p, 0.05);
        }
        assert!(
            (p.alpha[0] - ALPHA_MIN).abs() < 1e-6,
            "alpha {}",
            p.alpha[0]
        );
    }

    #[test]
    fn alpha_never_leaves_bounds() {
        for divv in [-1e6, -1.0, 0.0, 1.0, 1e6] {
            let mut p = one_particle(divv, 0.3);
            for _ in 0..50 {
                av_switches(&mut p, 0.01);
                assert!(p.alpha[0] >= ALPHA_MIN - 1e-12);
                assert!(p.alpha[0] <= ALPHA_MAX + 1e-12);
            }
        }
    }

    #[test]
    fn viscosity_only_for_approaching_pairs() {
        // Receding: vdotr > 0 -> no viscosity.
        assert_eq!(viscosity_pi(1.0, 0.1, 1.0, 1.0, 0.5, 0.01), 0.0);
        // Approaching: positive dissipation.
        let pi = viscosity_pi(1.0, 0.1, 1.0, 1.0, -0.5, 0.01);
        assert!(pi > 0.0, "Pi {pi} must be dissipative");
    }

    #[test]
    fn viscosity_scales_with_alpha() {
        let lo = viscosity_pi(0.1, 0.1, 1.0, 1.0, -0.5, 0.01);
        let hi = viscosity_pi(1.0, 0.1, 1.0, 1.0, -0.5, 0.01);
        assert!(hi > lo * 5.0);
    }
}
