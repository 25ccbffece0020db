//! Physics validation across crates: the simulation substrate must be real
//! physics, not a timing skeleton — these tests check it against known
//! solutions and invariants at laptop scale.

use gpu_freq_scaling::ranks::{run, CommCost};
use gpu_freq_scaling::sph::{
    evrard, kelvin_helmholtz, plummer, rotating_disk, sedov, sod, subsonic_turbulence, Kernel,
    NBody, NullObserver, SimConfig, Simulation,
};

fn cfg(neighbors: usize) -> SimConfig {
    SimConfig {
        kernel: Kernel::CubicSpline,
        target_particles_per_rank: 1e6,
        target_neighbors: neighbors,
        bucket_size: 32,
        ..SimConfig::default()
    }
}

/// Energy-weighted radius of the hot material — tracks the Sedov front.
fn hot_radius(parts: &gpu_freq_scaling::sph::Particles) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..parts.n_local {
        let r =
            ((parts.x[i] - 0.5).powi(2) + (parts.y[i] - 0.5).powi(2) + (parts.z[i] - 0.5).powi(2))
                .sqrt();
        let e = parts.m[i] * parts.u[i];
        num += e * r;
        den += e;
    }
    num / den
}

#[test]
fn sedov_front_grows_sublinearly_like_the_self_similar_solution() {
    // r_s(t) ~ t^(2/5): the growth must decelerate — each doubling of time
    // grows the radius by clearly less than 2x. At 12^3 resolution we check
    // the qualitative exponent band rather than the 0.4 literal.
    let samples = run(1, CommCost::default(), |ctx| {
        let ic = sedov(12, 1.0);
        let mut sim = Simulation::new(ic, cfg(40));
        let mut out = Vec::new();
        for _ in 0..12 {
            sim.step(ctx, &mut NullObserver);
            out.push((sim.time(), hot_radius(&sim.parts)));
        }
        out
    })
    .remove(0);
    let (t0, r0) = samples[2];
    let (t1, r1) = *samples.last().expect("steps ran");
    assert!(t1 > t0 * 1.5, "enough dynamic range: {t0} .. {t1}");
    assert!(r1 > r0, "front must expand: {r0} -> {r1}");
    let exponent = (r1 / r0).ln() / (t1 / t0).ln();
    assert!(
        (0.05..0.9).contains(&exponent),
        "growth exponent {exponent} outside the decelerating-blast band"
    );
}

#[test]
fn evrard_collapse_converts_potential_to_kinetic_then_heats() {
    let stats = run(1, CommCost::default(), |ctx| {
        let ic = evrard(12);
        let mut sim = Simulation::new(ic, cfg(40));
        let mut out = Vec::new();
        for _ in 0..12 {
            out.push(sim.step(ctx, &mut NullObserver));
        }
        out
    })
    .remove(0);
    let first = stats.first().expect("steps").budget;
    let last = stats.last().expect("steps").budget;
    // Infall: well deepens, kinetic rises, gas compresses and heats.
    assert!(last.potential < first.potential);
    assert!(
        last.kinetic > first.kinetic * 2.0,
        "{} -> {}",
        first.kinetic,
        last.kinetic
    );
    assert!(last.internal > first.internal);
    // Total energy conserved to a few percent over the run.
    let drift = (last.total() - first.total()).abs() / first.total().abs();
    assert!(drift < 0.08, "energy drift {drift}");
}

#[test]
fn turbulence_is_statistically_isotropic() {
    // The IC sums `MODES = 6` random solenoidal Fourier modes, so a single
    // draw is not isotropic: over seeds 70..=85 the largest axis share of
    // the kinetic energy ranges 0.36–0.71. What holds is the ensemble — no
    // axis is preferred on average — and the solver: it adds no preferred
    // axis, so six steps barely move any seed's shares (at most 0.026).
    let shares = |p: &gpu_freq_scaling::sph::Particles| {
        let mut e = [0.0f64; 3];
        for i in 0..p.n_local {
            e[0] += p.m[i] * p.vx[i] * p.vx[i];
            e[1] += p.m[i] * p.vy[i] * p.vy[i];
            e[2] += p.m[i] * p.vz[i] * p.vz[i];
        }
        let total = e[0] + e[1] + e[2];
        e.map(|axis| axis / total)
    };
    const SEEDS: std::ops::RangeInclusive<u64> = 70..=85;
    let mut mean = [0.0f64; 3];
    for seed in SEEDS {
        let (before, after) = run(1, CommCost::default(), |ctx| {
            let mut sim = Simulation::new(subsonic_turbulence(10, 0.4, seed), cfg(40));
            let before = shares(&sim.parts);
            for _ in 0..6 {
                sim.step(ctx, &mut NullObserver);
            }
            (before, shares(&sim.parts))
        })
        .remove(0);
        for axis in 0..3 {
            let moved = (after[axis] - before[axis]).abs();
            assert!(
                moved <= 0.05,
                "seed {seed}: axis {axis} share moved {moved} in six steps: {before:?} -> {after:?}"
            );
            mean[axis] += after[axis] / SEEDS.count() as f64;
        }
    }
    for (axis, share) in ["x", "y", "z"].iter().zip(mean) {
        assert!(
            (0.28..0.39).contains(&share),
            "axis {axis} holds {share} of kinetic energy on average — anisotropic: {mean:?}"
        );
    }
}

#[test]
fn kelvin_helmholtz_amplifies_the_seed_while_conserving_x_momentum() {
    // The shear layer feeds the seeded transverse mode: the y-kinetic energy
    // must grow from its tiny seed value, while the net x-momentum (nonzero:
    // the dense band outweighs the ambient counterflow) is conserved — the
    // instability redistributes momentum, it does not create any.
    let (ey0, ey1, px0, px1) = run(1, CommCost::default(), |ctx| {
        let ic = kelvin_helmholtz(12, 42);
        let mut sim = Simulation::new(ic, cfg(40));
        let measure = |p: &gpu_freq_scaling::sph::Particles| {
            let mut ey = 0.0;
            let mut px = 0.0;
            for i in 0..p.n_local {
                ey += 0.5 * p.m[i] * p.vy[i] * p.vy[i];
                px += p.m[i] * p.vx[i];
            }
            (ey, px)
        };
        let (ey0, px0) = measure(&sim.parts);
        for _ in 0..10 {
            sim.step(ctx, &mut NullObserver);
        }
        let (ey1, px1) = measure(&sim.parts);
        (ey0, ey1, px0, px1)
    })
    .remove(0);
    assert!(ey0 > 0.0, "the IC must carry a transverse seed");
    assert!(
        ey1 > ey0 * 1.2,
        "transverse kinetic energy must grow off the seed: {ey0} -> {ey1}"
    );
    assert!(px0.abs() > 1e-3, "band/ambient mass contrast gives net px");
    let drift = (px1 - px0).abs() / px0.abs();
    assert!(drift < 0.05, "x-momentum drift {drift}: {px0} -> {px1}");
}

#[test]
fn rotating_disk_conserves_angular_momentum_and_stays_a_disk() {
    // Rotation support: L_z is conserved by the axisymmetric gravity +
    // pressure forces, the mass-weighted cylindrical radius stays put (no
    // collapse, no fly-apart), and the energy budget closes.
    let out = run(1, CommCost::default(), |ctx| {
        let ic = rotating_disk(12);
        let mut sim = Simulation::new(ic, cfg(40));
        let measure = |p: &gpu_freq_scaling::sph::Particles| {
            let mut lz = 0.0;
            let mut mr = 0.0;
            let mut m = 0.0;
            for i in 0..p.n_local {
                lz += p.m[i] * (p.x[i] * p.vy[i] - p.y[i] * p.vx[i]);
                mr += p.m[i] * (p.x[i] * p.x[i] + p.y[i] * p.y[i]).sqrt();
                m += p.m[i];
            }
            (lz, mr / m)
        };
        let (lz0, r0) = measure(&sim.parts);
        let mut budgets = Vec::new();
        for _ in 0..10 {
            budgets.push(sim.step(ctx, &mut NullObserver).budget);
        }
        let (lz1, r1) = measure(&sim.parts);
        (lz0, lz1, r0, r1, budgets)
    })
    .remove(0);
    let (lz0, lz1, r0, r1, budgets) = out;
    assert!(lz0 > 0.1, "the disk must rotate: Lz = {lz0}");
    let lz_drift = (lz1 - lz0).abs() / lz0;
    assert!(lz_drift < 0.05, "Lz drift {lz_drift}: {lz0} -> {lz1}");
    let r_drift = (r1 - r0).abs() / r0;
    assert!(r_drift < 0.25, "mean radius moved {r_drift}: {r0} -> {r1}");
    let first = budgets.first().expect("steps");
    let last = budgets.last().expect("steps");
    let e_drift = (last.total() - first.total()).abs() / first.total().abs();
    assert!(e_drift < 0.1, "energy drift {e_drift}");
}

#[test]
fn sod_tube_launches_flow_from_rest_and_conserves_mass_and_energy() {
    // The pressure discontinuity starts everything at rest; the expansion
    // converts internal into kinetic energy symmetrically (the periodic box
    // has mirror interfaces, so net momentum stays zero) and conserves mass
    // and total energy.
    let out = run(1, CommCost::default(), |ctx| {
        let ic = sod(12);
        let mut sim = Simulation::new(ic, cfg(40));
        let mass0: f64 = sim.parts.m[..sim.parts.n_local].iter().sum();
        let ke_ic: f64 = (0..sim.parts.n_local)
            .map(|i| {
                let p = &sim.parts;
                0.5 * p.m[i] * (p.vx[i] * p.vx[i] + p.vy[i] * p.vy[i] + p.vz[i] * p.vz[i])
            })
            .sum();
        let mut budgets = Vec::new();
        for _ in 0..10 {
            budgets.push(sim.step(ctx, &mut NullObserver).budget);
        }
        let mass1: f64 = sim.parts.m[..sim.parts.n_local].iter().sum();
        let mut px = 0.0;
        for i in 0..sim.parts.n_local {
            px += sim.parts.m[i] * sim.parts.vx[i];
        }
        (mass0, mass1, ke_ic, px, budgets)
    })
    .remove(0);
    let (mass0, mass1, ke_ic, px, budgets) = out;
    assert!((mass1 - mass0).abs() / mass0 < 1e-12, "mass drift");
    let first = budgets.first().expect("steps");
    let last = budgets.last().expect("steps");
    assert!(ke_ic < 1e-12, "the tube starts at rest: KE = {ke_ic}");
    assert!(
        last.kinetic > 1e-4 && last.kinetic > first.kinetic,
        "the discontinuity must keep accelerating flow: {} -> {}",
        first.kinetic,
        last.kinetic
    );
    assert!(
        last.internal < first.internal,
        "expansion must cool the gas"
    );
    assert!(px.abs() < 1e-6, "mirror interfaces: net momentum {px}");
    let e_drift = (last.total() - first.total()).abs() / first.total().abs();
    assert!(e_drift < 0.05, "energy drift {e_drift}");
}

#[test]
fn plummer_sphere_stays_in_equilibrium() {
    // A Plummer model sampled from its own distribution function is a
    // steady state: over several dynamical steps the virial ratio stays
    // near 1 and the core does not collapse or explode.
    let out = run(1, CommCost::default(), |ctx| {
        let mut nb = NBody::new(plummer(700, 1.0, 3), 1e8);
        let mut ratios = Vec::new();
        for _ in 0..8 {
            let s = nb.step(ctx, &mut NullObserver);
            ratios.push(2.0 * s.budget.kinetic / s.budget.potential.abs());
        }
        ratios
    })
    .remove(0);
    for (i, r) in out.iter().enumerate() {
        assert!((0.5..1.5).contains(r), "virial ratio {r} at step {i}");
    }
    // No secular trend over this short window.
    let drift = (out.last().expect("steps") - out.first().expect("steps")).abs();
    assert!(drift < 0.3, "virial drift {drift}");
}

#[test]
fn kernel_choice_does_not_change_the_physics_class() {
    // Cubic spline, Wendland C6 and sinc^5 must agree on bulk observables
    // (densities within a few percent on the same configuration).
    let densities: Vec<f64> = [Kernel::CubicSpline, Kernel::WendlandC6, Kernel::Sinc5]
        .into_iter()
        .map(|kernel| {
            run(1, CommCost::default(), move |ctx| {
                let ic = subsonic_turbulence(8, 0.3, 5);
                let mut sim = Simulation::new(ic, SimConfig { kernel, ..cfg(40) });
                sim.step(ctx, &mut NullObserver);
                let p = &sim.parts;
                p.rho[..p.n_local].iter().sum::<f64>() / p.n_local as f64
            })
            .remove(0)
        })
        .collect();
    for (i, d) in densities.iter().enumerate() {
        assert!(
            (d - 1.0).abs() < 0.08,
            "kernel {i}: mean density {d} far from the uniform value"
        );
    }
    let spread = densities.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - densities.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.1, "kernels disagree: {densities:?}");
}
