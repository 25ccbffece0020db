//! Production-vs-reference sweep equivalence, bit for bit.
//!
//! The production sweeps (`sph::density`, `sph::iad`, `sph::momentum`) read
//! the step's [`NeighborList`] rows directly: packed per-neighbour records
//! gathered into lane columns, the pair geometry recomputed a row at a
//! time, fused row kernels, the skip conditions as a mask over whole-row
//! term passes. `sph::reference` holds the same four sweeps as per-pair
//! callbacks over any `NeighborSearch`. Every case here runs three things over one
//! particle state and requires every swept field to agree in every bit:
//!
//! * `reference` over the cell grid — the direct 27-cell walk, the
//!   traversal the list was recorded from;
//! * `reference` over the list — the per-pair replay of its rows, which
//!   holds the traversal fixed and so isolates exactly the production row
//!   engine;
//! * the production sweeps over the same list.
//!
//! The list is built with the h-aware adaptive pair rule over the radii of
//! `sph::list_radii_into`, on a grid `sph::interaction_radius` wide — the
//! two functions `Simulation::step` builds its own list through.
//! `Simulation::step` never walks the grid or replays pairs, so this is
//! where both reference traversals stay exercised. (Test names keep the
//! engine's working vocabulary: "blocked" is the production row engine,
//! "scalar" the per-pair reference.)

use cornerstone::{Box3, CellList, NeighborList, NeighborSearch};
use rng::Rng;
use sph::{reference, Eos, Kernel, Particles};

const KERNELS: [Kernel; 3] = [Kernel::CubicSpline, Kernel::WendlandC6, Kernel::Sinc5];

/// A random cloud with varied masses and smoothing lengths plus random
/// velocities, so every sweep term (AV included) participates.
fn cloud(n: usize, seed: u64, periodic: bool) -> (Particles, Box3) {
    let bbox = Box3::cube(0.0, 1.0, periodic);
    let mut rng = Rng::seed_from_u64(seed);
    let mut parts = Particles::new();
    // Spacing targets a realistic neighbor count for the cloud size.
    let spacing = 1.0 / (n as f64).cbrt().max(1.0);
    for _ in 0..n {
        let h = (0.8 + 0.4 * rng.unit()) * 1.3 * spacing.min(0.35);
        parts.push(
            rng.unit(),
            rng.unit(),
            rng.unit(),
            rng.unit() - 0.5,
            rng.unit() - 0.5,
            rng.unit() - 0.5,
            (0.5 + rng.unit()) / n as f64,
            h,
            0.5 + rng.unit(),
        );
    }
    (parts, bbox)
}

fn h_max(parts: &Particles) -> f64 {
    parts.h.iter().cloned().fold(0.0, f64::max)
}

/// The step's list over `parts`, plus the grid it was recorded from.
fn grid_and_list(parts: &Particles, bbox: &Box3, kernel: Kernel) -> (CellList, NeighborList) {
    let cell = sph::interaction_radius(kernel, h_max(parts));
    let grid = CellList::build(&parts.x, &parts.y, &parts.z, bbox, cell);
    let mut radii = Vec::new();
    sph::list_radii_into(kernel, &parts.h, &mut radii);
    let mut nl = NeighborList::new();
    nl.build_adaptive_into(&grid, &parts.x, &parts.y, &parts.z, parts.len(), &radii);
    (grid, nl)
}

/// The reference sweep sequence (counts, density+EOS, IAD, momentum) over
/// one traversal.
fn run_reference<N: NeighborSearch + Sync>(
    parts: &Particles,
    nb: &N,
    bbox: &Box3,
    kernel: Kernel,
) -> (Particles, Vec<usize>) {
    let mut p = parts.clone();
    let counts = reference::neighbor_counts(&p, nb, bbox, kernel);
    reference::density_gradh(&mut p, nb, bbox, kernel);
    Eos::ideal_monatomic().apply(&mut p);
    reference::iad_divv_curlv(&mut p, nb, bbox, kernel);
    reference::momentum_energy(&mut p, nb, bbox, kernel);
    (p, counts)
}

/// The same sequence through the production sweeps.
fn run_production(parts: &Particles, nl: &NeighborList, kernel: Kernel) -> (Particles, Vec<usize>) {
    let mut p = parts.clone();
    let counts = sph::density::neighbor_counts(&p, nl, kernel);
    sph::density::density_gradh(&mut p, nl, kernel);
    Eos::ideal_monatomic().apply(&mut p);
    sph::iad::iad_divv_curlv(&mut p, nl, kernel, None);
    sph::momentum::momentum_energy(&mut p, nl, kernel);
    (p, counts)
}

/// Run all three over the same state, check they agree bit for bit, and
/// return the production result.
fn run_both(parts: &Particles, bbox: &Box3, kernel: Kernel) -> (Particles, Vec<usize>) {
    let (grid, nl) = grid_and_list(parts, bbox, kernel);
    let (walked, cw) = run_reference(parts, &grid, bbox, kernel);
    let (replayed, cr) = run_reference(parts, &nl, bbox, kernel);
    let (production, cp) = run_production(parts, &nl, kernel);
    assert_eq!(cw, cr, "{kernel:?}: counts, grid walk vs list replay");
    assert_eq!(cp, cr, "{kernel:?}: counts, production vs list replay");
    assert_same_bits(
        &walked,
        &replayed,
        &format!("{kernel:?}: grid walk vs list replay"),
    );
    assert_same_bits(
        &production,
        &replayed,
        &format!("{kernel:?}: production vs list replay"),
    );
    (production, cp)
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

fn assert_same_bits(a: &Particles, b: &Particles, what: &str) {
    for (name, x, y) in swept_fields(a, b) {
        for (k, (u, v)) in x.iter().zip(y).enumerate() {
            assert!(
                u.to_bits() == v.to_bits(),
                "{what}: {name}[{k}]: {u:e} != {v:e} (bitwise)"
            );
        }
    }
}

#[test]
fn blocked_sweeps_match_scalar_on_random_clouds() {
    for kernel in KERNELS {
        for periodic in [true, false] {
            let (parts, bbox) = cloud(250, 42, periodic);
            run_both(&parts, &bbox, kernel);
        }
    }
}

/// A jittered 6³ lattice with small random velocities: well-conditioned IAD
/// tensors everywhere.
fn dense_lattice() -> (Particles, Box3) {
    let bbox = Box3::unit_periodic();
    let mut parts = Particles::new();
    let n_side = 6;
    let spacing = 1.0 / n_side as f64;
    let mut rng = Rng::seed_from_u64(7);
    for ix in 0..n_side {
        for iy in 0..n_side {
            for iz in 0..n_side {
                let mut j = || (rng.unit() - 0.5) * 0.2 * spacing;
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
    (parts, bbox)
}

#[test]
fn blocked_sweeps_match_scalar_on_a_dense_lattice() {
    let (parts, bbox) = dense_lattice();
    for kernel in KERNELS {
        run_both(&parts, &bbox, kernel);
    }
}

#[test]
fn iad_row_subsets_compose_to_the_full_sweep() {
    // The halo-overlap schedule runs IAD as two disjoint row subsets with a
    // halo drain in between. 216 rows span two 128-row list chunks; the
    // splits below cover an empty subset on either side, a cut inside the
    // first chunk, one exactly on the chunk boundary, and an interleaved
    // pair run second-subset-first.
    let (mut parts, bbox) = dense_lattice();
    let kernel = Kernel::CubicSpline;
    let (_, nl) = grid_and_list(&parts, &bbox, kernel);
    sph::density::density_gradh(&mut parts, &nl, kernel);
    let n = parts.n_local;
    let mut full = parts.clone();
    sph::iad::iad_divv_curlv(&mut full, &nl, kernel, None);

    let all: Vec<usize> = (0..n).collect();
    let (even, odd): (Vec<usize>, Vec<usize>) = all.iter().partition(|&&i| i % 2 == 0);
    let splits: [(&[usize], &[usize]); 5] = [
        (&[], &all),
        (&all, &[]),
        (&all[..50], &all[50..]),
        (&all[..128], &all[128..]),
        (&odd, &even),
    ];
    for (first, second) in splits {
        let mut split = parts.clone();
        sph::iad::iad_divv_curlv(&mut split, &nl, kernel, Some(first));
        sph::iad::iad_divv_curlv(&mut split, &nl, kernel, Some(second));
        let what = format!("rows split {} + {}", first.len(), second.len());
        assert_same_bits(&split, &full, &what);
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
                let (_, counts) = run_both(&parts, &bbox, kernel);
                assert!(
                    counts.iter().all(|&c| c == n - 1),
                    "n={n} {kernel:?}: cluster is fully connected"
                );
            }
        }
    }
}

#[test]
fn isolated_particle_has_an_empty_neighbor_row() {
    // Row = self only: the pure self-contribution density and zero forces,
    // from production and reference alike.
    let bbox = Box3::cube(0.0, 1.0, false);
    let mut parts = Particles::new();
    parts.push(0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 2.0, 0.05, 1.0);
    let (swept, counts) = run_both(&parts, &bbox, Kernel::Sinc5);
    assert_eq!(counts, vec![0]);
    assert_eq!(swept.ax[0], 0.0);
    assert!(swept.rho[0] > 0.0);
}

/// Positive finite `x` moved by `ulps` representable steps.
fn step_ulps(x: f64, ulps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

#[test]
fn pairs_on_the_support_boundary_are_stored_iff_a_sweep_can_consume_them() {
    // The list stores (i, j) iff d² <= fl(s·s), s the larger of the two
    // supports. The count, density and IAD consume a pair when
    // d² <= fl(s_i·s_i), momentum when fl(sqrt(d²)) < s_i or < s_j — never
    // more than the list holds. Two particles, the second placed so d² is
    // exactly fl(s·s), exactly the next float up, and a few ulps of `s` to
    // either side: the pair must be stored up to the boundary and not past
    // it, and the three sweep paths must agree in every bit on all of them.
    for kernel in KERNELS {
        // The boundary is particle 0's own support; then its neighbour's
        // (row 0 holds the pair only through `radii[1]`); then a neighbour
        // support past the 1.4·s_0 that momentum searches from row 0.
        for (h0, h1) in [(0.05, 0.04), (0.04, 0.05), (0.02, 0.05)] {
            let s = kernel.support(f64::max(h0, h1));
            let s2 = s * s;
            let ulp = step_ulps(s2, 1) - s2;
            assert_eq!(s2 + ulp.sqrt() * ulp.sqrt(), step_ulps(s2, 1));
            let mut offsets = vec![(s, 0.0), (s, ulp.sqrt())];
            offsets.extend((-3..=3).map(|k| (step_ulps(s, k), 0.0)));
            for periodic in [false, true] {
                let bbox = Box3::cube(-1.0, 1.0, periodic);
                for &(dx, dy) in &offsets {
                    let mut parts = Particles::new();
                    parts.push(0.0, 0.0, 0.0, 0.3, -0.2, 0.1, 1.0, h0, 1.0);
                    parts.push(dx, dy, 0.0, -0.1, 0.4, 0.2, 1.5, h1, 0.7);
                    // Particle 0 sits at the origin, so the displacement is
                    // (dx, dy, 0) exactly and the scan sums d² this way.
                    let stored = dx * dx + dy * dy <= s2;
                    let (_, nl) = grid_and_list(&parts, &bbox, kernel);
                    let what = format!("{kernel:?} h=({h0}, {h1}) offset ({dx:e}, {dy:e})");
                    assert_eq!(nl.row(0).contains(&1), stored, "row 0, {what}");
                    assert_eq!(nl.row(1).contains(&0), stored, "row 1, {what}");
                    run_both(&parts, &bbox, kernel);
                }
            }
        }
    }
}

#[test]
fn graded_cloud_stores_pairs_beyond_momentums_own_search() {
    // Two thirds of the cloud at half the smoothing length: a small particle
    // i next to a large j has s_j > 1.4·s_i, so row i stores pairs (within
    // s_j) that momentum's 1.4·s_i search never reaches — it skips them, as
    // the reference does, while row j consumes the same pair.
    for periodic in [true, false] {
        let (mut parts, bbox) = cloud(400, 11, periodic);
        for (k, h) in parts.h.iter_mut().enumerate() {
            if k % 3 != 0 {
                *h *= 0.5;
            }
        }
        for kernel in KERNELS {
            let (_, nl) = grid_and_list(&parts, &bbox, kernel);
            let (x, y, z) = (&parts.x, &parts.y, &parts.z);
            let beyond = (0..parts.len()).any(|i| {
                let cut = 1.4 * kernel.support(parts.h[i]);
                nl.row(i).iter().any(|&j| {
                    let j = j as usize;
                    bbox.dist2(x[i], y[i], z[i], x[j], y[j], z[j]) > cut * cut
                })
            });
            assert!(beyond, "{kernel:?}: no stored pair past 1.4·s_i");
            run_both(&parts, &bbox, kernel);
        }
    }
}

#[test]
fn masked_lanes_leave_every_fold_untouched() {
    // One row engine pass evaluates every stored candidate and masks the
    // ones the reference skips; this cloud lines up every kind of masked
    // lane, and every kind of running sum one can arrive at. A tight
    // cluster inside one grid cell of an open box, so every row visits its
    // candidates in index order:
    //
    // * 0 (leftmost) and 1 (rightmost) rush inwards at 1e160: their
    //   viscosity terms overflow, with opposite directions, so in every
    //   row between them the force sums are ±inf after candidate 0 and NaN
    //   (inf - inf) after candidate 1, the energy sum +inf — and must stay
    //   so through the masked lanes that follow; row 1 meets its own masked
    //   self pair on an infinite sum;
    // * 2 and 3 are coincident (d2 == 0 with j != i), and every row holds
    //   its own self pair;
    // * 4 has a tenth of the others' smoothing length: its rows store the
    //   others only through *their* supports, beyond its own support (IAD
    //   masks them) and beyond its 1.4·s_i momentum search;
    // * 7 and 8 are halos (past n_local) that never get a density: rho = 0,
    //   the first-step bootstrap volume and the zero pressure term.
    let bbox = Box3::cube(0.0, 1.0, false);
    let mut parts = Particles::new();
    let at = |k: usize| 0.5 + 0.003 * k as f64;
    let mut push = |x: f64, vx: f64, h: f64| {
        parts.push(x, 0.5, 0.5, vx, 0.01, -0.02, 1.0, h, 1.0);
    };
    push(at(0), 1e160, 0.02);
    push(at(9), -1e160, 0.02);
    push(at(2), 0.1, 0.02);
    push(at(2), -0.1, 0.02);
    push(at(4), 0.2, 0.002);
    push(at(5), -0.2, 0.02);
    push(at(6), 0.3, 0.02);
    push(at(7), -0.3, 0.02);
    push(at(8), 0.05, 0.02);
    parts.n_local = 7;
    for kernel in KERNELS {
        let (grid, nl) = grid_and_list(&parts, &bbox, kernel);
        let (x, y, z) = (&parts.x, &parts.y, &parts.z);
        let d2 = |i: usize, j: u32| {
            let j = j as usize;
            bbox.dist2(x[i], y[i], z[i], x[j], y[j], z[j])
        };
        let s4 = kernel.support(parts.h[4]);
        let (cx, _, _) = grid.dims();
        let cell = |x: f64| (x * cx as f64) as usize;
        assert_eq!(
            cell(at(0)),
            cell(at(9)),
            "one cell: rows are in index order"
        );
        for i in [0, 1, 2, 3, 5, 6] {
            assert_eq!(nl.row(i), [0, 1, 2, 3, 4, 5, 6, 7, 8], "row {i}");
        }
        assert_eq!(d2(2, 3), 0.0, "coincident pair");
        assert!(
            nl.row(4).iter().any(|&j| d2(4, j) > 1.96 * s4 * s4),
            "row 4 stores pairs beyond its own 1.4·s_i search"
        );
        let (swept, _) = run_both(&parts, &bbox, kernel);
        assert_eq!(&swept.rho[7..], [0.0, 0.0], "halos keep rho = 0");
        for i in [0, 1] {
            assert!(swept.ax[i].is_infinite(), "{kernel:?}: ax[{i}]");
        }
        for i in [2, 3, 5, 6] {
            assert!(
                swept.ax[i].is_nan(),
                "{kernel:?}: ax[{i}] = {}",
                swept.ax[i]
            );
            assert_eq!(swept.du[i], f64::INFINITY, "{kernel:?}: du[{i}]");
        }
        assert!(swept.ax[4].is_finite(), "row 4's search reaches neither");
    }
}

// Properties: 16 generated cases each, failing case index printed.
#[test]
fn prop_blocked_matches_scalar() {
    rng::cases(16, |g| {
        let seed = g.u64(0..10_000);
        let n = g.usize(1..40);
        let periodic = g.bool();
        let kidx = g.usize(0..3);
        let (parts, bbox) = cloud(n, seed, periodic);
        run_both(&parts, &bbox, KERNELS[kidx]);
    });
}
