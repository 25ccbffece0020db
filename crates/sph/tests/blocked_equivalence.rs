//! Blocked-vs-scalar sweep equivalence.
//!
//! Every sweep dispatches to the cache-blocked CSR row path when handed a
//! [`NeighborList`] and to the per-pair callback path when handed anything
//! else — including [`ScalarReplay`], which replays the *same* list through
//! the callback interface. Comparing the two isolates exactly the blocked
//! engine (lane buffers, fused row kernels, vectorized compaction,
//! momentum's select-then-batch survivor pass) with the traversal held
//! fixed. The list is built with the h-aware adaptive pair rule over
//! per-particle radii `1.4 · support(h_i)`, exactly as `Simulation::step`
//! builds it.
//!
//! The traversal itself is pinned against a third input: the same sweeps
//! walking the cell grid directly, the reference the list replays.
//! `Simulation::step` always builds the list, so this is where the grid
//! walk stays exercised; it must match the scalar replay bit for bit under
//! every feature set (both are per-pair callback paths over one visit
//! order).
//!
//! Under default features the paths must agree bit-for-bit. Under
//! `fast-math` the lane reductions reassociate and `Sinc5` uses polynomial
//! sinc, so fields are compared to tolerance instead — and the IAD tensor
//! fields are exempted in the random property test: near-singular moment
//! matrices can flip `invert_sym3` between its inverse and fallback
//! branches on an epsilon perturbation, which is a discontinuity of the
//! scheme, not a defect of the blocked engine (divv/curlv stay compared on
//! well-conditioned configurations in the unit tests).

use cornerstone::{Box3, CellList, NeighborList, ScalarReplay};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use sph::density::{density_gradh, neighbor_counts};
use sph::iad::iad_divv_curlv;
use sph::momentum::momentum_energy;
use sph::{Eos, Kernel, Particles};

const KERNELS: [Kernel; 3] = [Kernel::CubicSpline, Kernel::WendlandC6, Kernel::Sinc5];

/// A random cloud with varied masses and smoothing lengths plus random
/// velocities, so every sweep term (AV included) participates.
fn cloud(n: usize, seed: u64, periodic: bool) -> (Particles, Box3) {
    let bbox = Box3::cube(0.0, 1.0, periodic);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parts = Particles::new();
    // Spacing targets a realistic neighbor count for the cloud size.
    let spacing = 1.0 / (n as f64).cbrt().max(1.0);
    for _ in 0..n {
        let h = (0.8 + 0.4 * rng.random::<f64>()) * 1.3 * spacing.min(0.35);
        parts.push(
            rng.random::<f64>(),
            rng.random::<f64>(),
            rng.random::<f64>(),
            rng.random::<f64>() - 0.5,
            rng.random::<f64>() - 0.5,
            rng.random::<f64>() - 0.5,
            (0.5 + rng.random::<f64>()) / n as f64,
            h,
            0.5 + rng.random::<f64>(),
        );
    }
    (parts, bbox)
}

fn h_max(parts: &Particles) -> f64 {
    parts.h.iter().cloned().fold(0.0, f64::max)
}

/// Run the full sweep sequence (counts, density+EOS, IAD, momentum) over
/// one neighbor source.
fn run_sweeps<N: cornerstone::NeighborSearch + Sync>(
    parts: &mut Particles,
    nb: &N,
    bbox: &Box3,
    kernel: Kernel,
) -> Vec<usize> {
    let counts = neighbor_counts(parts, nb, bbox, kernel);
    density_gradh(parts, nb, bbox, kernel);
    Eos::ideal_monatomic().apply(parts);
    iad_divv_curlv(parts, nb, bbox, kernel);
    momentum_energy(parts, nb, bbox, kernel);
    counts
}

/// Execute blocked and scalar paths over the same prebuilt list; return
/// (blocked, scalar) particle states and their neighbor counts. The grid
/// walk runs as the reference for both and is checked here.
fn run_both(
    parts: &Particles,
    bbox: &Box3,
    kernel: Kernel,
) -> ((Particles, Vec<usize>), (Particles, Vec<usize>)) {
    let radius = kernel.support(h_max(parts)) * 1.4;
    let grid = CellList::build(&parts.x, &parts.y, &parts.z, bbox, radius);
    let radii: Vec<f64> = parts.h.iter().map(|&h| kernel.support(h) * 1.4).collect();
    let mut nl = NeighborList::new();
    nl.build_adaptive_into(&grid, &parts.x, &parts.y, &parts.z, parts.len(), &radii);
    let mut blocked = parts.clone();
    let cb = run_sweeps(&mut blocked, &nl, bbox, kernel);
    let mut scalar = parts.clone();
    let cs = run_sweeps(&mut scalar, &ScalarReplay(&nl), bbox, kernel);
    let mut walked = parts.clone();
    let cw = run_sweeps(&mut walked, &grid, bbox, kernel);
    assert_eq!(cw, cs, "{kernel:?}: grid-walk neighbor counts");
    for (name, a, b) in swept_fields(&walked, &scalar) {
        let same = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(
            same,
            "{kernel:?}: {name} differs between grid walk and list replay"
        );
    }
    ((blocked, cb), (scalar, cs))
}

/// Every field the sweeps write, paired across two particle states.
fn swept_fields<'a>(
    a: &'a Particles,
    b: &'a Particles,
) -> [(&'static str, &'a Vec<f64>, &'a Vec<f64>); 14] {
    [
        ("rho", &a.rho, &b.rho),
        ("gradh", &a.gradh, &b.gradh),
        ("divv", &a.divv, &b.divv),
        ("curlv", &a.curlv, &b.curlv),
        ("ax", &a.ax, &b.ax),
        ("ay", &a.ay, &b.ay),
        ("az", &a.az, &b.az),
        ("du", &a.du, &b.du),
        ("c11", &a.c11, &b.c11),
        ("c12", &a.c12, &b.c12),
        ("c13", &a.c13, &b.c13),
        ("c22", &a.c22, &b.c22),
        ("c23", &a.c23, &b.c23),
        ("c33", &a.c33, &b.c33),
    ]
}

/// Default features: bitwise. fast-math: relative tolerance.
#[cfg(not(feature = "fast-math"))]
fn assert_field_eq(name: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{name}[{k}]: {x:e} != {y:e} (bitwise)"));
        }
    }
    Ok(())
}

#[cfg(feature = "fast-math")]
fn assert_field_eq(name: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        if (x - y).abs() > 1e-5 * scale {
            return Err(format!("{name}[{k}]: {x:e} vs {y:e} (scale {scale:e})"));
        }
    }
    Ok(())
}

fn compare(blocked: &Particles, scalar: &Particles, with_iad: bool) {
    for (name, a, b) in swept_fields(blocked, scalar) {
        if !with_iad && (name.starts_with('c') || name == "divv" || name == "curlv") {
            continue;
        }
        if let Err(e) = assert_field_eq(name, a, b) {
            panic!("{e}");
        }
    }
}

#[test]
fn blocked_sweeps_match_scalar_on_random_clouds() {
    for kernel in KERNELS {
        for periodic in [true, false] {
            let (parts, bbox) = cloud(250, 42, periodic);
            let ((blocked, cb), (scalar, cs)) = run_both(&parts, &bbox, kernel);
            assert_eq!(cb, cs, "{kernel:?} periodic={periodic}: neighbor counts");
            compare(&blocked, &scalar, true);
        }
    }
}

#[test]
fn blocked_sweeps_match_scalar_on_a_dense_lattice() {
    // Well-conditioned IAD tensors: the tensor fields are comparable even
    // under fast-math tolerances.
    let bbox = Box3::unit_periodic();
    let mut parts = Particles::new();
    let n_side = 6;
    let spacing = 1.0 / n_side as f64;
    let mut rng = StdRng::seed_from_u64(7);
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let mut j = || (rng.random::<f64>() - 0.5) * 0.2 * spacing;
                parts.push(
                    (ix as f64 + 0.5) * spacing + j(),
                    (iy as f64 + 0.5) * spacing + j(),
                    (iz as f64 + 0.5) * spacing + j(),
                    j(),
                    j(),
                    j(),
                    1.0 / 216.0,
                    1.3 * spacing,
                    1.0,
                );
            }
        }
    }
    for kernel in KERNELS {
        let ((blocked, cb), (scalar, cs)) = run_both(&parts, &bbox, kernel);
        assert_eq!(cb, cs, "{kernel:?}: neighbor counts");
        compare(&blocked, &scalar, true);
    }
}

#[test]
fn tiny_clusters_exercise_every_remainder_lane_length() {
    // Neighbor counts 0..=5 per row: every length-mod-4 class of the 4-lane
    // remainder handling, including rows shorter than one chunk.
    for n in 1usize..=6 {
        for periodic in [true, false] {
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let mut parts = Particles::new();
            for k in 0..n {
                parts.push(
                    0.5 + 0.004 * k as f64,
                    0.5,
                    0.5,
                    0.1 * k as f64,
                    -0.05 * k as f64,
                    0.02,
                    1.0,
                    0.02,
                    1.0,
                );
            }
            for kernel in KERNELS {
                let ((blocked, cb), (scalar, cs)) = run_both(&parts, &bbox, kernel);
                assert_eq!(cb, cs, "n={n} {kernel:?}: neighbor counts");
                assert!(cb.iter().all(|&c| c == n - 1), "cluster is fully connected");
                compare(&blocked, &scalar, true);
            }
        }
    }
}

#[test]
fn isolated_particle_has_an_empty_neighbor_row() {
    // Row = self only: the blocked path must produce the pure
    // self-contribution density and zero forces, like the scalar path.
    let bbox = Box3::cube(0.0, 1.0, false);
    let mut parts = Particles::new();
    parts.push(0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 2.0, 0.05, 1.0);
    let kernel = Kernel::Sinc5;
    let ((blocked, cb), (scalar, _)) = run_both(&parts, &bbox, kernel);
    assert_eq!(cb, vec![0]);
    compare(&blocked, &scalar, true);
    assert_eq!(blocked.ax[0], 0.0);
    assert!(blocked.rho[0] > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_blocked_matches_scalar(
        seed in 0u64..10_000,
        n in 1usize..40,
        periodic in proptest::bool::ANY,
        kidx in 0usize..3,
    ) {
        let kernel = KERNELS[kidx];
        let (parts, bbox) = cloud(n, seed, periodic);
        let ((blocked, cb), (scalar, cs)) = run_both(&parts, &bbox, kernel);
        prop_assert_eq!(cb, cs);
        // IAD fields only under exact math: random tiny clouds can sit on
        // the invert_sym3 singularity threshold, where fast-math's epsilon
        // perturbation flips branches (see module docs).
        compare(&blocked, &scalar, cfg!(not(feature = "fast-math")));
    }
}
