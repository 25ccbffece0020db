//! Density summation with grad-h correction (`Density` /
//! `NormalizationGradh` in the SPH-EXA function set), plus the `XMass`
//! generalized volume elements.

use cornerstone::NeighborList;

use crate::kernels::{Kernel, RowKernel};
use crate::lanes;
use crate::particles::Particles;

/// `XMass`: estimate generalized volume elements from the previous
/// iteration's densities. First iteration (rho = 0) falls back to the mass
/// itself, matching a uniform-volume bootstrap.
pub fn xmass(parts: &mut Particles) {
    for i in 0..parts.len() {
        parts.xmass[i] = if parts.rho[i] > 0.0 {
            parts.m[i] / parts.rho[i]
        } else {
            parts.m[i]
        };
    }
}

/// `Density` + `NormalizationGradh`: SPH density summation
/// `rho_i = sum_j m_j W(r_ij, h_i)` (self-contribution included) and the
/// grad-h correction factor `Omega_i = 1 + (h_i / 3 rho_i) sum_j m_j dW/dh`.
///
/// Densities are computed for owned particles only; halos carry the values
/// their owner computed (exchanged by `DomainDecompAndSync`).
///
/// Parallelized by gather over the step's shared list: each row reads any
/// neighbor but accumulates only its own sums, in the row's stored visit
/// order — so results are bit-identical at any thread count, and to
/// [`crate::reference::density_gradh`] over the grid or the list.
pub fn density_gradh(parts: &mut Particles, nl: &NeighborList, kernel: Kernel) {
    let p = &*parts;
    // What a pair reads from its `j` side: `[x, y, z, m]`, 32 bytes.
    let record = |j: usize| [p.x[j], p.y[j], p.z[j], p.m[j]];
    let sums: Vec<(f64, f64)> = lanes::with_records(p.len(), record, |recs| {
        par::par_map(p.n_local, |i| density_row(p, nl, recs, i, kernel))
    });
    store_density(parts, sums);
}

/// Write one density sweep's per-row `(rho, sum m dW/dh)` into `rho` and
/// the grad-h factor.
pub(crate) fn store_density(parts: &mut Particles, sums: Vec<(f64, f64)>) {
    for (i, (rho_i, dh_i)) in sums.into_iter().enumerate() {
        parts.rho[i] = rho_i;
        // Omega = 1 + h/(3 rho) * sum m dW/dh; guard against degenerate rho.
        parts.gradh[i] = if rho_i > 0.0 {
            (1.0 + parts.h[i] / (3.0 * rho_i) * dh_i).max(0.1)
        } else {
            1.0
        };
    }
}

/// One density row: mask-free. The row (recorded at the step's per-pair
/// superset radius) is consumed whole — gather the candidates' records,
/// recompute the distances, then the fused `(W, dW/dh)` over every
/// candidate with the hoisted-`h` branch-free [`RowKernel`], then the
/// `m_j`-scaled accumulation in visit order. No data-dependent branches
/// anywhere in the row, and no mask either: the kernel's own `q < 2` select
/// is one.
///
/// Bit-identical to the reference callback even though that only folds the
/// candidates within `support(h_i)`:
///
/// * a dropped candidate has `d2 > (2h)²`, so its correctly-rounded
///   `r = sqrt(d2) >= 2h` and `q = r/h >= 2.0` — the kernel's strict
///   `q < 2` selects produce exactly `w = +0.0` and `dw = +0.0`, hence
///   `dwdh = -(3·0 + r·0)/h = -0.0`; its terms are `m_j · (±0.0) = ±0.0`;
/// * a running fold that starts at `+0.0` can never hold `-0.0` (`-0.0`
///   only arises from `-0.0 + -0.0`, and round-to-nearest cancellation
///   yields `+0.0`), and adding `±0.0` to a non-`-0.0` accumulator never
///   changes its bits — so interleaving the zero terms leaves every
///   genuine partial sum, and the final bits, identical.
fn density_row(
    p: &Particles,
    nl: &NeighborList,
    recs: &[f64],
    i: usize,
    kernel: Kernel,
) -> (f64, f64) {
    let rk = RowKernel::new(kernel, p.h[i]);
    lanes::with_scratch(|s| {
        let lanes::RowScratch {
            cols,
            d2,
            r,
            w,
            w2: dwdh,
            ..
        } = s;
        let jj = nl.row(i);
        lanes::gather::<4>(recs, jj, cols);
        lanes::geometry(nl.min_image(), [p.x[i], p.y[i], p.z[i]], cols, d2, r);
        rk.w_and_dw_dh_into(r, w, dwdh);
        let n = jj.len();
        let (m, w, dwdh) = (&cols[3][..n], &w[..n], &dwdh[..n]);
        let (mut rho, mut dh) = (0.0, 0.0);
        for k in 0..n {
            rho += m[k] * w[k];
            dh += m[k] * dwdh[k];
        }
        (rho, dh)
    })
}

/// Neighbors within the kernel support of each owned particle
/// (`FindNeighbors`), the particle itself excluded. The list scan already
/// counted them — a row built at `support(h_i)` holds its own-radius count
/// (`NeighborList::within_own_radius`) — so this reads one integer per row;
/// the list must have been built at those radii, as the step's is
/// ([`crate::list_radii_into`]).
pub fn neighbor_counts(parts: &Particles, nl: &NeighborList, kernel: Kernel) -> Vec<usize> {
    // A list built at other radii counted something else; the superset
    // radius is the part of that a list can still tell.
    debug_assert_eq!(
        nl.radius(),
        kernel.support(parts.h.iter().fold(0.0f64, |m, &h| m.max(h))),
        "the list was not built at support(h)"
    );
    // The row always contains exactly one self-candidate (the grid stores
    // each particle once) and it is always within the radius (d2 = 0), so
    // "neighbors excluding self" is the count - 1.
    (0..parts.n_local)
        .map(|i| nl.within_own_radius(i) - 1)
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cornerstone::{Box3, CellList};

    /// A list over every particle at one fixed radius — what the sweep unit
    /// tests of this crate hand the production sweeps.
    pub(crate) fn list(parts: &Particles, bbox: &Box3, radius: f64) -> NeighborList {
        let grid = CellList::build(&parts.x, &parts.y, &parts.z, bbox, radius);
        NeighborList::build(&grid, &parts.x, &parts.y, &parts.z, parts.len(), radius)
    }

    /// A uniform lattice of particles in a periodic unit box.
    fn lattice(n_side: usize) -> (Particles, Box3) {
        let bbox = Box3::unit_periodic();
        let mut parts = Particles::new();
        let n3 = (n_side * n_side * n_side) as f64;
        let spacing = 1.0 / n_side as f64;
        let m = 1.0 / n3; // total mass 1 -> mean density 1
        let h = 1.3 * spacing;
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
                        1.0,
                    );
                }
            }
        }
        (parts, bbox)
    }

    #[test]
    fn uniform_lattice_recovers_unit_density() {
        for kernel in [Kernel::CubicSpline, Kernel::WendlandC6] {
            let (mut parts, bbox) = lattice(8);
            let nl = list(&parts, &bbox, kernel.support(parts.h[0]));
            density_gradh(&mut parts, &nl, kernel);
            for &r in &parts.rho {
                assert!((r - 1.0).abs() < 0.05, "{kernel:?}: density {r} far from 1");
            }
        }
    }

    #[test]
    fn gradh_near_unity_on_uniform_field() {
        let (mut parts, bbox) = lattice(8);
        let kernel = Kernel::CubicSpline;
        let nl = list(&parts, &bbox, kernel.support(parts.h[0]));
        density_gradh(&mut parts, &nl, kernel);
        for &o in &parts.gradh {
            // On a uniform field dh contributions nearly cancel against the
            // scaling identity; Omega stays close to 1.
            assert!((o - 1.0).abs() < 0.15, "Omega {o} far from 1");
        }
    }

    #[test]
    fn neighbor_counts_reasonable_for_h_choice() {
        let (parts, bbox) = lattice(8);
        let kernel = Kernel::CubicSpline;
        let nl = list(&parts, &bbox, kernel.support(parts.h[0]));
        let counts = neighbor_counts(&parts, &nl, kernel);
        // Support 2h = 2.6 spacings -> ~60-80 neighbors on a cubic lattice.
        for &c in &counts {
            assert!((40..120).contains(&c), "neighbor count {c} unexpected");
        }
    }

    #[test]
    fn xmass_uses_previous_density() {
        let (mut parts, _bbox) = lattice(4);
        xmass(&mut parts);
        assert_eq!(parts.xmass, parts.m, "bootstrap falls back to mass");
        parts.rho.iter_mut().for_each(|r| *r = 2.0);
        xmass(&mut parts);
        for i in 0..parts.len() {
            assert!((parts.xmass[i] - parts.m[i] / 2.0).abs() < 1e-15);
        }
    }

    #[test]
    fn isolated_particle_density_is_self_contribution() {
        let bbox = Box3::cube(0.0, 1.0, false);
        let mut parts = Particles::new();
        parts.push(0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 2.0, 0.05, 1.0);
        let kernel = Kernel::CubicSpline;
        let nl = list(&parts, &bbox, 0.1);
        density_gradh(&mut parts, &nl, kernel);
        let expect = 2.0 * kernel.w(0.0, 0.05);
        assert!((parts.rho[0] - expect).abs() < 1e-12);
    }
}
