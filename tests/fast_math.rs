//! Conservation gates for the `fast-math` feature.
//!
//! `fast-math` relaxes bit-identity of the blocked sweeps (lane-partial
//! reductions, polynomial sinc for `Sinc5`) but must not relax the physics:
//! mass, momentum and energy over a multi-step Evrard collapse stay within
//! the same tolerances the exact path holds. These tests only exist in
//! `--features fast-math` builds; the default build pins bit-identity
//! instead (see `parallel_determinism.rs`).

#![cfg(feature = "fast-math")]

use gpu_freq_scaling::ranks::{run, CommCost};
use gpu_freq_scaling::sph::{evrard, Kernel, NullObserver, SimConfig, Simulation, StepStats};

fn collapse(kernel: Kernel, steps: usize) -> (Vec<StepStats>, f64, f64) {
    run(1, CommCost::default(), move |ctx| {
        let cfg = SimConfig {
            kernel,
            target_particles_per_rank: 1e6,
            target_neighbors: 40,
            bucket_size: 32,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(evrard(10), cfg);
        let mass0: f64 = sim.parts.m[..sim.parts.n_local].iter().sum();
        let stats: Vec<StepStats> = (0..steps)
            .map(|_| sim.step(ctx, &mut NullObserver))
            .collect();
        let mass1: f64 = sim.parts.m[..sim.parts.n_local].iter().sum();
        (stats, mass0, mass1)
    })
    .remove(0)
}

#[test]
fn fast_math_conserves_mass_energy_momentum_over_evrard() {
    for kernel in [Kernel::Sinc5, Kernel::CubicSpline] {
        let (stats, mass0, mass1) = collapse(kernel, 10);
        assert!(
            ((mass1 - mass0) / mass0).abs() < 1e-12,
            "{kernel:?}: mass drifted {mass0} -> {mass1}"
        );
        let first = stats.first().expect("steps").budget;
        let last = stats.last().expect("steps").budget;
        // Energy drift within the same band physics_validation.rs grants
        // the exact path over a comparable run.
        let drift = (last.total() - first.total()).abs() / first.total().abs();
        assert!(drift < 0.08, "{kernel:?}: energy drift {drift}");
        // The gas starts at rest: net momentum must stay tiny relative to
        // the momentum scale the infall builds up.
        let scale = (2.0 * last.kinetic * mass1).sqrt().max(1e-30);
        for (axis, p) in [("px", last.px), ("py", last.py), ("pz", last.pz)] {
            assert!(
                p.abs() < 1e-6 * scale,
                "{kernel:?}: {axis} = {p} vs scale {scale}"
            );
        }
        // And the run must still be a collapse, not noise: the well deepens
        // and the gas picks up kinetic energy.
        assert!(last.potential < first.potential, "{kernel:?}: no infall");
        assert!(last.kinetic > first.kinetic, "{kernel:?}: no acceleration");
    }
}
