//! Microbenchmarks for the SPH physics kernels at laptop scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cornerstone::{CellList, NeighborList};
use ranks::CommCost;
use sph::{
    density::density_gradh, iad::iad_divv_curlv, momentum::momentum_energy, subsonic_turbulence,
    Eos, Kernel, NullObserver, SimConfig, Simulation,
};

fn prepared() -> (sph::Particles, NeighborList) {
    let ic = subsonic_turbulence(12, 0.3, 9);
    let mut parts = ic.parts;
    let kernel = Kernel::CubicSpline;
    // The step's list, through the functions `Simulation::step` builds it
    // with (the IC's smoothing lengths are uniform).
    let cell = sph::interaction_radius(kernel, parts.h[0]);
    let grid = CellList::build(&parts.x, &parts.y, &parts.z, &ic.bbox, cell);
    let mut radii = Vec::new();
    sph::list_radii_into(kernel, &parts.h, &mut radii);
    let mut nl = NeighborList::new();
    nl.build_adaptive_into(&grid, &parts.x, &parts.y, &parts.z, parts.len(), &radii);
    density_gradh(&mut parts, &nl, kernel);
    Eos::ideal_monatomic().apply(&mut parts);
    (parts, nl)
}

fn bench_kernels(c: &mut Criterion) {
    let kernel = Kernel::CubicSpline;
    let (parts, nl) = prepared();
    let mut g = c.benchmark_group("sph_kernels_1728p");
    g.sample_size(20);
    g.bench_function("density_gradh", |b| {
        b.iter_batched(
            || parts.clone(),
            |mut p| {
                density_gradh(&mut p, &nl, kernel);
                black_box(p.rho[0])
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("iad_divv_curlv", |b| {
        b.iter_batched(
            || parts.clone(),
            |mut p| {
                iad_divv_curlv(&mut p, &nl, kernel, None);
                black_box(p.divv[0])
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("momentum_energy", |b| {
        b.iter_batched(
            || parts.clone(),
            |mut p| {
                momentum_energy(&mut p, &nl, kernel);
                black_box(p.ax[0])
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_full_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("sph_step");
    g.sample_size(10);
    g.bench_function("single_rank_10cubed", |b| {
        b.iter(|| {
            let out = ranks::run(1, CommCost::default(), |ctx| {
                let ic = subsonic_turbulence(10, 0.3, 4);
                let mut sim = Simulation::new(
                    ic,
                    SimConfig {
                        target_neighbors: 40,
                        ..Default::default()
                    },
                );
                sim.step(ctx, &mut NullObserver)
            });
            black_box(out)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernels, bench_full_step);
criterion_main!(benches);
