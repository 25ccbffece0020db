//! Initial conditions for the paper's two workloads: Subsonic Turbulence and
//! Evrard Collapse (Table I).

use rng::Rng;

use cornerstone::Box3;

use crate::eos::Eos;
use crate::particles::Particles;

/// A fully-specified initial model.
pub struct InitialConditions {
    pub parts: Particles,
    pub bbox: Box3,
    pub eos: Eos,
    /// Whether the workload includes self-gravity (Evrard yes, turbulence no
    /// — the functional difference the paper picks the pair for).
    pub gravity: bool,
    pub name: &'static str,
}

/// Smallest lattice side each generator accepts — what its `assert!`
/// checks. Spec validation reads these, so an undersized workload is
/// refused before any rank thread starts instead of panicking inside one.
pub const TURBULENCE_MIN_SIDE: usize = 2;
pub const EVRARD_MIN_SIDE: usize = 2;
pub const SEDOV_MIN_SIDE: usize = 4;
pub const KELVIN_HELMHOLTZ_MIN_SIDE: usize = 4;
pub const ROTATING_DISK_MIN_SIDE: usize = 8;
pub const SOD_MIN_SIDE: usize = 4;

/// Subsonic turbulence: a jittered lattice in a periodic unit box with a
/// solenoidal large-scale velocity field at the given Mach number
/// (isothermal sound speed 1).
pub fn subsonic_turbulence(n_side: usize, mach: f64, seed: u64) -> InitialConditions {
    assert!(n_side >= TURBULENCE_MIN_SIDE);
    let bbox = Box3::unit_periodic();
    let mut rng = Rng::seed_from_u64(seed);
    let n3 = n_side.pow(3);
    let spacing = 1.0 / n_side as f64;
    let m = 1.0 / n3 as f64;
    let h = 1.3 * spacing;

    // A handful of random solenoidal Fourier modes: v = sum_k a_k x k_hat
    // cos(2 pi k.x + phi). Curl of each mode is divergence-free by
    // construction (a perpendicular to k).
    const MODES: usize = 6;
    let mut modes = Vec::with_capacity(MODES);
    for _ in 0..MODES {
        let k: [f64; 3] = [
            rng.i32(1..=2) as f64,
            rng.i32(1..=2) as f64,
            rng.i32(1..=2) as f64,
        ];
        // Random direction, then project out the k-component -> solenoidal.
        let a: [f64; 3] = [rng.unit() - 0.5, rng.unit() - 0.5, rng.unit() - 0.5];
        let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
        let adotk = (a[0] * k[0] + a[1] * k[1] + a[2] * k[2]) / k2;
        let a = [
            a[0] - adotk * k[0],
            a[1] - adotk * k[1],
            a[2] - adotk * k[2],
        ];
        let phase: f64 = rng.unit() * std::f64::consts::TAU;
        modes.push((k, a, phase));
    }

    let mut parts = Particles::new();
    let mut velocities = Vec::with_capacity(n3);
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let jitter = |rng: &mut Rng| (rng.unit() - 0.5) * 0.2 * spacing;
                let x = (ix as f64 + 0.5) * spacing + jitter(&mut rng);
                let y = (iy as f64 + 0.5) * spacing + jitter(&mut rng);
                let z = (iz as f64 + 0.5) * spacing + jitter(&mut rng);
                let (x, y, z) = bbox.wrap(x, y, z);
                let mut v = [0.0f64; 3];
                for (k, a, phase) in &modes {
                    let arg = std::f64::consts::TAU * (k[0] * x + k[1] * y + k[2] * z) + phase;
                    let c = arg.cos();
                    v[0] += a[0] * c;
                    v[1] += a[1] * c;
                    v[2] += a[2] * c;
                }
                velocities.push(v);
                parts.push(x, y, z, 0.0, 0.0, 0.0, m, h, 1.0);
            }
        }
    }
    // Normalize to the requested rms Mach number (sound speed = 1).
    let rms = (velocities
        .iter()
        .map(|v| v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        .sum::<f64>()
        / n3 as f64)
        .sqrt();
    let scale = if rms > 0.0 { mach / rms } else { 0.0 };
    for (i, v) in velocities.iter().enumerate() {
        parts.vx[i] = v[0] * scale;
        parts.vy[i] = v[1] * scale;
        parts.vz[i] = v[2] * scale;
    }

    InitialConditions {
        parts,
        bbox,
        eos: Eos::Isothermal { sound_speed: 1.0 },
        gravity: false,
        name: "SubsonicTurbulence",
    }
}

/// Evrard collapse: a cold gas sphere (M = R = G = 1) with density profile
/// `rho(r) = M / (2 pi R^2 r)` and specific internal energy `u = 0.05`,
/// collapsing under self-gravity.
pub fn evrard(n_side: usize) -> InitialConditions {
    assert!(n_side >= EVRARD_MIN_SIDE);
    // Open box comfortably larger than the sphere.
    let bbox = Box3::cube(-2.0, 2.0, false);
    let spacing = 2.0 / n_side as f64;
    let mut raw = Vec::new();
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let x = -1.0 + (ix as f64 + 0.5) * spacing;
                let y = -1.0 + (iy as f64 + 0.5) * spacing;
                let z = -1.0 + (iz as f64 + 0.5) * spacing;
                let r = (x * x + y * y + z * z).sqrt();
                if r <= 1.0 && r > 0.0 {
                    raw.push((x, y, z, r));
                }
            }
        }
    }
    let n = raw.len();
    let m = 1.0 / n as f64;
    let mut parts = Particles::new();
    for (x, y, z, r) in raw {
        // Radial stretch s -> s^(3/2) maps uniform density to rho ~ 1/r.
        let rs = r.powf(1.5);
        let f = rs / r;
        // Local smoothing from the target profile rho = 1/(2 pi r).
        let rho = 1.0 / (2.0 * std::f64::consts::PI * rs.max(0.05));
        let h = 1.2 * (m / rho).cbrt();
        parts.push(x * f, y * f, z * f, 0.0, 0.0, 0.0, m, h, 0.05);
    }
    InitialConditions {
        parts,
        bbox,
        eos: Eos::ideal_monatomic(),
        gravity: true,
        name: "EvrardCollapse",
    }
}

/// Sedov-Taylor blast wave: a uniform, cold, periodic medium with energy
/// `e0` injected into the central smoothing volume. The classic strong-shock
/// validation problem SPH-EXA ships alongside the Table I workloads; the
/// shock radius follows the self-similar law `r_s(t) ~ (e0 t^2 / rho)^(1/5)`.
pub fn sedov(n_side: usize, e0: f64) -> InitialConditions {
    assert!(n_side >= SEDOV_MIN_SIDE);
    assert!(e0 > 0.0);
    let bbox = Box3::unit_periodic();
    let spacing = 1.0 / n_side as f64;
    let n3 = n_side.pow(3);
    let m = 1.0 / n3 as f64; // unit background density
    let h = 1.3 * spacing;
    let mut parts = Particles::new();
    // Background at a tiny internal energy (cold).
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                parts.push(
                    (ix as f64 + 0.5) * spacing,
                    (iy as f64 + 0.5) * spacing,
                    (iz as f64 + 0.5) * spacing,
                    0.0,
                    0.0,
                    0.0,
                    m,
                    h,
                    1e-6,
                );
            }
        }
    }
    // Deposit e0 into the particles inside the central kernel volume,
    // weighted by the kernel (the standard smoothed point-explosion setup).
    let kernel = crate::kernels::Kernel::CubicSpline;
    let center = 0.5;
    let r_dep = kernel.support(h);
    let mut wsum = 0.0;
    let weights: Vec<f64> = (0..parts.len())
        .map(|i| {
            let d2 = bbox.dist2(parts.x[i], parts.y[i], parts.z[i], center, center, center);
            if d2 < r_dep * r_dep {
                let w = kernel.w(d2.sqrt(), h);
                wsum += w * parts.m[i];
                w
            } else {
                0.0
            }
        })
        .collect();
    assert!(wsum > 0.0, "deposition volume must contain particles");
    for (i, w) in weights.iter().enumerate() {
        if *w > 0.0 {
            parts.u[i] += e0 * w / wsum;
        }
    }
    InitialConditions {
        parts,
        bbox,
        eos: Eos::ideal_monatomic(),
        gravity: false,
        name: "SedovBlast",
    }
}

/// Kelvin–Helmholtz shear layer: a dense band (`rho = 2`) moving `+x`
/// through a light medium (`rho = 1`) moving `-x` in a periodic unit box, in
/// pressure equilibrium, with a seeded sinusoidal transverse perturbation at
/// both interfaces. The classic mixing-layer instability problem; shear
/// feeds the perturbation, so transverse kinetic energy grows from the seed.
pub fn kelvin_helmholtz(n_side: usize, seed: u64) -> InitialConditions {
    assert!(n_side >= KELVIN_HELMHOLTZ_MIN_SIDE);
    let bbox = Box3::unit_periodic();
    let mut rng = Rng::seed_from_u64(seed);
    let spacing = 1.0 / n_side as f64;
    let n3 = n_side.pow(3);
    // Unit background density; band particles carry double mass on the same
    // lattice, giving rho = 2 inside |y - 0.5| < 0.25.
    let m0 = 1.0 / n3 as f64;
    let h = 1.3 * spacing;
    // Pressure equilibrium across the band: P0 = (gamma - 1) rho u.
    let p0 = 2.5;
    let gamma = 5.0 / 3.0;
    // Transverse seed: two interface-localized sine modes.
    let amp = 0.1;
    let sigma = 0.05;
    let shear = 0.5;

    let mut parts = Particles::new();
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let jitter = |rng: &mut Rng| (rng.unit() - 0.5) * 0.1 * spacing;
                let x = (ix as f64 + 0.5) * spacing + jitter(&mut rng);
                let y = (iy as f64 + 0.5) * spacing + jitter(&mut rng);
                let z = (iz as f64 + 0.5) * spacing + jitter(&mut rng);
                let (x, y, z) = bbox.wrap(x, y, z);
                let in_band = (y - 0.5).abs() < 0.25;
                let (m, vx) = if in_band {
                    (2.0 * m0, shear)
                } else {
                    (m0, -shear)
                };
                let rho = if in_band { 2.0 } else { 1.0 };
                let u = p0 / ((gamma - 1.0) * rho);
                let vy = amp
                    * (std::f64::consts::TAU * 2.0 * x).sin()
                    * ((-(y - 0.25).powi(2) / (2.0 * sigma * sigma)).exp()
                        + (-(y - 0.75).powi(2) / (2.0 * sigma * sigma)).exp());
                parts.push(x, y, z, vx, vy, 0.0, m, h, u);
            }
        }
    }
    InitialConditions {
        parts,
        bbox,
        eos: Eos::ideal_monatomic(),
        gravity: false,
        name: "KelvinHelmholtz",
    }
}

/// Rotating self-gravitating disk: a thin cold cylinder (M = R = G = 1) of
/// uniform surface density on near-circular orbits against its own enclosed
/// mass. Rotation support keeps it from collapsing; self-gravity keeps it
/// from flying apart — angular momentum and the radial mass profile are the
/// conserved observables.
pub fn rotating_disk(n_side: usize) -> InitialConditions {
    assert!(n_side >= ROTATING_DISK_MIN_SIDE);
    let bbox = Box3::cube(-2.0, 2.0, false);
    let spacing = 2.0 / n_side as f64;
    // Keep one or two lattice planes of thickness around the midplane.
    let half_thickness = (0.12f64).max(0.6 * spacing);
    let mut raw = Vec::new();
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let x = -1.0 + (ix as f64 + 0.5) * spacing;
                let y = -1.0 + (iy as f64 + 0.5) * spacing;
                let z = -1.0 + (iz as f64 + 0.5) * spacing;
                let r = (x * x + y * y).sqrt();
                if r <= 1.0 && r > 0.0 && z.abs() <= half_thickness {
                    raw.push((x, y, z, r));
                }
            }
        }
    }
    let n = raw.len();
    let m = 1.0 / n as f64;
    let mut parts = Particles::new();
    for (x, y, z, r) in raw {
        // Uniform surface density: M(<r) = r^2. Circular speed against the
        // enclosed mass, softened at the centre so inner orbits stay bound.
        let soft = 0.15;
        let v_c = (r * r / (r * r + soft * soft).sqrt()).sqrt();
        let (vx, vy) = (-v_c * y / r, v_c * x / r);
        let h = 1.4 * spacing;
        parts.push(x, y, z, vx, vy, 0.0, m, h, 0.05);
    }
    InitialConditions {
        parts,
        bbox,
        eos: Eos::ideal_monatomic(),
        gravity: true,
        name: "RotatingDisk",
    }
}

/// Sod shock tube in a periodic unit box (the wind-tunnel workload): a hot
/// dense left state (`rho = 1`, `P = 1`) against a cold rarefied right state
/// (`rho = 0.25`, `P = 0.1`) at rest. The interface at `x = 0.5` launches a
/// rightward shock plus contact and a leftward rarefaction; the wrapped
/// interface at `x = 0/1` mirrors it.
pub fn sod(n_side: usize) -> InitialConditions {
    assert!(n_side >= SOD_MIN_SIDE);
    let bbox = Box3::unit_periodic();
    let spacing = 1.0 / n_side as f64;
    let n3 = n_side.pow(3);
    let m0 = 1.0 / n3 as f64;
    let h = 1.3 * spacing;
    let gamma = 5.0 / 3.0;
    let mut parts = Particles::new();
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let x = (ix as f64 + 0.5) * spacing;
                let y = (iy as f64 + 0.5) * spacing;
                let z = (iz as f64 + 0.5) * spacing;
                // Equal spacing, unequal mass: density ratio 4 from mass.
                let left = x < 0.5;
                let (rho, p) = if left { (1.0, 1.0) } else { (0.25, 0.1) };
                let u = p / ((gamma - 1.0) * rho);
                parts.push(x, y, z, 0.0, 0.0, 0.0, m0 * rho, h, u);
            }
        }
    }
    InitialConditions {
        parts,
        bbox,
        eos: Eos::ideal_monatomic(),
        gravity: false,
        name: "SodShockTube",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the random stream: every position and velocity bit of each
    /// seeded IC. A changed draw — another generator, another order of
    /// calls, another `rng` — fails here on any build.
    #[test]
    fn seeded_ics_are_pinned_to_the_stream() {
        let digest = |ic: InitialConditions| {
            let p = &ic.parts;
            let bytes: Vec<u8> = [&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz]
                .into_iter()
                .flatten()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            crate::snapshot::fnv1a(&bytes)
        };
        assert_eq!(
            digest(subsonic_turbulence(4, 0.3, 1)),
            0x536c_a256_0d98_8068
        );
        assert_eq!(digest(kelvin_helmholtz(4, 1)), 0xfd13_5705_a5ea_b5ff);
        assert_eq!(
            digest(crate::nbody::plummer(64, 1.0, 1)),
            0x098c_4b93_1a74_6d7f
        );
    }

    #[test]
    fn turbulence_ic_has_requested_mach_number() {
        let ic = subsonic_turbulence(10, 0.3, 7);
        let n = ic.parts.len() as f64;
        let rms = (ic
            .parts
            .vx
            .iter()
            .zip(&ic.parts.vy)
            .zip(&ic.parts.vz)
            .map(|((vx, vy), vz)| vx * vx + vy * vy + vz * vz)
            .sum::<f64>()
            / n)
            .sqrt();
        assert!((rms - 0.3).abs() < 1e-9, "rms Mach {rms}");
        assert!(!ic.gravity);
        assert_eq!(ic.parts.len(), 1000);
    }

    #[test]
    fn turbulence_velocity_field_is_roughly_solenoidal() {
        // Net momentum of a solenoidal field on a symmetric lattice ~ 0
        // relative to the velocity scale.
        let ic = subsonic_turbulence(12, 0.5, 3);
        let n = ic.parts.len() as f64;
        let px: f64 = ic.parts.vx.iter().sum::<f64>() / n;
        let py: f64 = ic.parts.vy.iter().sum::<f64>() / n;
        let pz: f64 = ic.parts.vz.iter().sum::<f64>() / n;
        let bulk = (px * px + py * py + pz * pz).sqrt();
        assert!(bulk < 0.25, "bulk drift {bulk} too large vs Mach 0.5");
    }

    #[test]
    fn turbulence_particles_inside_periodic_box() {
        let ic = subsonic_turbulence(8, 0.2, 1);
        for i in 0..ic.parts.len() {
            assert!(ic.parts.x[i] >= 0.0 && ic.parts.x[i] < 1.0 + 1e-12);
            assert!(ic.parts.y[i] >= 0.0 && ic.parts.y[i] < 1.0 + 1e-12);
            assert!(ic.parts.z[i] >= 0.0 && ic.parts.z[i] < 1.0 + 1e-12);
        }
    }

    #[test]
    fn evrard_ic_total_mass_and_radius() {
        let ic = evrard(14);
        assert!(ic.gravity);
        assert!((ic.parts.total_mass() - 1.0).abs() < 1e-9);
        for i in 0..ic.parts.len() {
            let r = (ic.parts.x[i].powi(2) + ic.parts.y[i].powi(2) + ic.parts.z[i].powi(2)).sqrt();
            assert!(r <= 1.0 + 1e-9, "particle outside the sphere: r = {r}");
            assert_eq!(ic.parts.u[i], 0.05, "cold gas");
        }
    }

    #[test]
    fn evrard_density_profile_is_centrally_concentrated() {
        let ic = evrard(16);
        // Count particles inside r<0.25 vs a shell of equal volume further
        // out; the 1/r profile concentrates mass at the centre relative to
        // uniform: M(<r) = r^2, so M(<0.25) ~ 6% of the mass in ~1.6% of the
        // volume.
        let inner = (0..ic.parts.len())
            .filter(|&i| {
                ic.parts.x[i].powi(2) + ic.parts.y[i].powi(2) + ic.parts.z[i].powi(2) < 0.25 * 0.25
            })
            .count() as f64;
        let frac = inner / ic.parts.len() as f64;
        assert!(
            frac > 0.03,
            "central mass fraction {frac} too small for 1/r"
        );
        assert!(frac < 0.15, "central mass fraction {frac} too large");
    }

    #[test]
    fn sedov_ic_deposits_the_requested_energy() {
        let e0 = 1.0;
        let ic = sedov(12, e0);
        let total_internal: f64 = (0..ic.parts.len())
            .map(|i| ic.parts.m[i] * ic.parts.u[i])
            .sum();
        // Background contributes ~1e-6; the deposit dominates.
        assert!(
            (total_internal - e0).abs() / e0 < 1e-3,
            "E = {total_internal}"
        );
        // Energy is centrally concentrated.
        let central = (0..ic.parts.len())
            .filter(|&i| {
                ic.parts.x[i] > 0.3
                    && ic.parts.x[i] < 0.7
                    && ic.parts.y[i] > 0.3
                    && ic.parts.y[i] < 0.7
                    && ic.parts.z[i] > 0.3
                    && ic.parts.z[i] < 0.7
            })
            .map(|i| ic.parts.m[i] * ic.parts.u[i])
            .sum::<f64>();
        assert!(central / total_internal > 0.99);
        assert!(!ic.gravity);
    }

    #[test]
    fn evrard_smoothing_grows_outward() {
        let ic = evrard(14);
        let r_of = |i: usize| {
            (ic.parts.x[i].powi(2) + ic.parts.y[i].powi(2) + ic.parts.z[i].powi(2)).sqrt()
        };
        // Compare mean h of inner and outer thirds.
        let mut inner = Vec::new();
        let mut outer = Vec::new();
        for i in 0..ic.parts.len() {
            if r_of(i) < 0.33 {
                inner.push(ic.parts.h[i]);
            } else if r_of(i) > 0.66 {
                outer.push(ic.parts.h[i]);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&outer) > mean(&inner),
            "outer h {} should exceed inner h {}",
            mean(&outer),
            mean(&inner)
        );
    }

    #[test]
    fn kelvin_helmholtz_is_in_pressure_equilibrium_with_counterflow() {
        let ic = kelvin_helmholtz(10, 42);
        assert!(!ic.gravity);
        assert_eq!(ic.parts.len(), 1000);
        let gamma = 5.0 / 3.0;
        let mut band_px = 0.0;
        let mut out_px = 0.0;
        for i in 0..ic.parts.len() {
            let in_band = (ic.parts.y[i] - 0.5).abs() < 0.25;
            let rho = if in_band { 2.0 } else { 1.0 };
            let p = (gamma - 1.0) * rho * ic.parts.u[i];
            assert!((p - 2.5).abs() < 1e-9, "pressure {p} off equilibrium");
            if in_band {
                band_px += ic.parts.m[i] * ic.parts.vx[i];
            } else {
                out_px += ic.parts.m[i] * ic.parts.vx[i];
            }
        }
        assert!(band_px > 0.0, "band must stream +x");
        assert!(out_px < 0.0, "ambient must stream -x");
        // The transverse seed is small relative to the shear.
        let vy_rms =
            (ic.parts.vy.iter().map(|v| v * v).sum::<f64>() / ic.parts.len() as f64).sqrt();
        assert!(vy_rms > 0.0 && vy_rms < 0.1, "seed rms {vy_rms}");
    }

    #[test]
    fn rotating_disk_is_thin_and_rotation_supported() {
        let ic = rotating_disk(12);
        assert!(ic.gravity);
        assert!((ic.parts.total_mass() - 1.0).abs() < 1e-9);
        let mut lz = 0.0;
        for i in 0..ic.parts.len() {
            let (x, y, z) = (ic.parts.x[i], ic.parts.y[i], ic.parts.z[i]);
            assert!((x * x + y * y).sqrt() <= 1.0 + 1e-9);
            assert!(z.abs() <= 0.2, "disk should be thin, |z| = {}", z.abs());
            lz += ic.parts.m[i] * (x * ic.parts.vy[i] - y * ic.parts.vx[i]);
        }
        // Uniform-surface-density disk on circular orbits has Lz of order
        // integral r v_c dM ~ 0.5; sign fixed by the +z rotation sense.
        assert!(lz > 0.2, "disk angular momentum {lz} too small");
    }

    #[test]
    fn sod_ic_has_the_textbook_density_and_pressure_ratios() {
        let ic = sod(10);
        assert!(!ic.gravity);
        let gamma = 5.0 / 3.0;
        let (mut m_left, mut m_right) = (0.0, 0.0);
        for i in 0..ic.parts.len() {
            assert_eq!(ic.parts.vx[i], 0.0, "both states start at rest");
            let left = ic.parts.x[i] < 0.5;
            let rho = if left { 1.0 } else { 0.25 };
            let p = (gamma - 1.0) * rho * ic.parts.u[i];
            let want = if left { 1.0 } else { 0.1 };
            assert!((p - want).abs() < 1e-9, "pressure {p}, want {want}");
            if left {
                m_left += ic.parts.m[i];
            } else {
                m_right += ic.parts.m[i];
            }
        }
        // Same particle count per side, 4x the mass on the left.
        assert!((m_left / m_right - 4.0).abs() < 1e-9);
    }
}
