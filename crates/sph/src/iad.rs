//! `IADVelocityDivCurl`: Integral Approach to Derivatives tensor plus
//! velocity divergence and curl.
//!
//! The IAD scheme (García-Senz et al.) replaces kernel-gradient derivatives
//! with a linearly-exact integral formulation: each particle carries the
//! inverse `C = tau^{-1}` of the local moment matrix
//! `tau_ab = sum_j V_j (r_j - r_i)_a (r_j - r_i)_b W_ij`.

use cornerstone::NeighborList;

use crate::kernels::{Kernel, RowKernel};
use crate::lanes;
use crate::particles::Particles;

/// Invert a symmetric 3x3 matrix given as `[xx, xy, xz, yy, yz, zz]`.
/// Falls back to a scaled identity when the matrix is near-singular
/// (degenerate particle configurations: isolated particles, collinear sets).
pub fn invert_sym3(t: [f64; 6]) -> [f64; 6] {
    let [xx, xy, xz, yy, yz, zz] = t;
    let det = xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz) + xz * (xy * yz - yy * xz);
    let scale = xx.abs().max(yy.abs()).max(zz.abs());
    if !det.is_finite() || det.abs() <= 1e-12 * scale.powi(3).max(1e-300) {
        // Regularized fallback: pseudo-inverse of the diagonal.
        let inv = |d: f64| {
            if d.is_finite() && d.abs() > 1e-300 {
                1.0 / d
            } else {
                0.0
            }
        };
        return [inv(xx), 0.0, 0.0, inv(yy), 0.0, inv(zz)];
    }
    let idet = 1.0 / det;
    [
        (yy * zz - yz * yz) * idet,
        (xz * yz - xy * zz) * idet,
        (xy * yz - xz * yy) * idet,
        (xx * zz - xz * xz) * idet,
        (xy * xz - xx * yz) * idet,
        (xx * yy - xy * xy) * idet,
    ]
}

/// Compute IAD tensors, velocity divergence and curl magnitude for owned
/// particles — every owned row, or just `rows` when the halo-overlap
/// schedule sweeps interior and boundary rows separately.
///
/// Parallelized by gather over the step's shared list: each row reads
/// neighbor state but writes only its own tensor/divergence/curl slot, in
/// the row's stored visit order — bit-identical at any thread count, and to
/// [`crate::reference::iad_divv_curlv`] over the grid or the list. The
/// sweep's outputs (`c11..c33`, `divv`, `curlv`) are never inputs to other
/// rows of the same sweep — it reads `rho`/`m`/velocities, written by
/// earlier phases — so disjoint row subsets, run in any order, compose
/// bit-identically with the full sweep.
pub fn iad_divv_curlv(
    parts: &mut Particles,
    nl: &NeighborList,
    kernel: Kernel,
    rows: Option<&[usize]>,
) {
    let p = &*parts;
    let n = rows.map_or(p.n_local, <[usize]>::len);
    let per_row: Vec<([f64; 6], f64, [f64; 3])> =
        par::par_map(n, |k| iad_row(p, nl, rows.map_or(k, |r| r[k]), kernel));
    store_iad(parts, rows, per_row);
}

/// Write one IAD sweep's per-row `(C, div v, curl v)` results: entry `k`
/// belongs to row `rows[k]`, or to row `k` without a subset.
pub(crate) fn store_iad(
    parts: &mut Particles,
    rows: Option<&[usize]>,
    per_row: Vec<([f64; 6], f64, [f64; 3])>,
) {
    for (k, (t, divv, [cx, cy, cz])) in per_row.into_iter().enumerate() {
        let i = rows.map_or(k, |r| r[k]);
        parts.c11[i] = t[0];
        parts.c12[i] = t[1];
        parts.c13[i] = t[2];
        parts.c22[i] = t[3];
        parts.c23[i] = t[4];
        parts.c33[i] = t[5];
        parts.divv[i] = divv;
        parts.curlv[i] = (cx * cx + cy * cy + cz * cz).sqrt();
    }
}

/// One IAD row. One fused pair filter serves both passes (the reference
/// re-walks the neighbor source twice at the same radius, visiting the same
/// pairs in the same order, and skips `j == i || d2 == 0` in each — exactly
/// the set [`cornerstone::NeighborList::filter_pairs_into`] drops), and the
/// per-pair kernel value `W` (batched through the hoisted-`h`
/// [`RowKernel`]) and bootstrap volume `V_j` are computed once and reused —
/// the reference recomputes both in its second sweep with identical inputs,
/// so reuse changes nothing bitwise and halves the kernel evaluations.
///
/// The stored CSR delta is exactly the `r_j - r_i` direction the reference
/// gets from `Box3::delta`, and every accumulation below keeps the
/// reference's expressions as a running `+=` fold in visit order, so the
/// results are bit-identical.
fn iad_row(
    p: &Particles,
    nl: &NeighborList,
    i: usize,
    kernel: Kernel,
) -> ([f64; 6], f64, [f64; 3]) {
    let hi = p.h[i];
    let radius = kernel.support(hi);
    let rkn = RowKernel::new(kernel, hi);
    let (vxi, vyi, vzi) = (p.vx[i], p.vy[i], p.vz[i]);
    lanes::with_scratch(|s| {
        let lanes::RowScratch {
            row, r, w, vj, aux, ..
        } = s;
        nl.filter_pairs_into(i, radius, row);
        let m = row.len();
        lanes::sqrt_into(&row.d2, r);
        rkn.w_into(r, w);
        vj.clear();
        vj.resize(m, 0.0);
        for (v, &j32) in vj.iter_mut().zip(&row.j) {
            let j = j32 as usize;
            // Bootstrap volume for particles whose density is not yet
            // known (first-step halos): fall back to the mass itself, the
            // same rule XMass uses.
            *v = if p.rho[j] > 0.0 {
                p.m[j] / p.rho[j]
            } else {
                p.m[j]
            };
        }

        // Pass 1: moment tensor.
        let mut tau = [0.0f64; 6];
        for k in 0..m {
            let (dx, dy, dz, wv, v) = (row.dx[k], row.dy[k], row.dz[k], w[k], vj[k]);
            tau[0] += v * dx * dx * wv;
            tau[1] += v * dx * dy * wv;
            tau[2] += v * dx * dz * wv;
            tau[3] += v * dy * dy * wv;
            tau[4] += v * dy * dz * wv;
            tau[5] += v * dz * dz * wv;
        }
        let c = invert_sym3(tau);

        // Pass 2: C·d products as a contiguous lane pass, then the velocity
        // gradient with the reference's expressions and order.
        let [cdx, cdy, cdz, ..] = aux;
        cdx.clear();
        cdx.resize(m, 0.0);
        cdy.clear();
        cdy.resize(m, 0.0);
        cdz.clear();
        cdz.resize(m, 0.0);
        for k in 0..m {
            let (dx, dy, dz) = (row.dx[k], row.dy[k], row.dz[k]);
            cdx[k] = c[0] * dx + c[1] * dy + c[2] * dz;
            cdy[k] = c[1] * dx + c[3] * dy + c[4] * dz;
            cdz[k] = c[2] * dx + c[4] * dy + c[5] * dz;
        }
        let mut grad = [[0.0f64; 3]; 3]; // grad[a][b] = dv_a/dx_b
        for k in 0..m {
            let j = row.j[k] as usize;
            let (v, wv) = (vj[k], w[k]);
            let dvx = p.vx[j] - vxi;
            let dvy = p.vy[j] - vyi;
            let dvz = p.vz[j] - vzi;
            for (a, dva) in [dvx, dvy, dvz].into_iter().enumerate() {
                grad[a][0] += v * dva * cdx[k] * wv;
                grad[a][1] += v * dva * cdy[k] * wv;
                grad[a][2] += v * dva * cdz[k] * wv;
            }
        }
        let divv = grad[0][0] + grad[1][1] + grad[2][2];
        let curl = [
            grad[2][1] - grad[1][2],
            grad[0][2] - grad[2][0],
            grad[1][0] - grad[0][1],
        ];
        (c, divv, curl)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornerstone::Box3;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn glass(n_side: usize, seed: u64) -> (Particles, Box3) {
        let bbox = Box3::unit_periodic();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut parts = Particles::new();
        let spacing = 1.0 / n_side as f64;
        let m = 1.0 / (n_side * n_side * n_side) as f64;
        for ix in 0..n_side {
            for iy in 0..n_side {
                for iz in 0..n_side {
                    let mut jitter = || (rng.random::<f64>() - 0.5) * 0.2 * spacing;
                    parts.push(
                        (ix as f64 + 0.5) * spacing + jitter(),
                        (iy as f64 + 0.5) * spacing + jitter(),
                        (iz as f64 + 0.5) * spacing + jitter(),
                        0.0,
                        0.0,
                        0.0,
                        m,
                        1.3 * spacing,
                        1.0,
                    );
                }
            }
        }
        (parts, bbox)
    }

    fn prepare(parts: &mut Particles, bbox: &Box3, kernel: Kernel) -> NeighborList {
        let nl = crate::density::tests::list(parts, bbox, kernel.support(parts.h[0]));
        crate::density::density_gradh(parts, &nl, kernel);
        nl
    }

    #[test]
    fn invert_sym3_roundtrip() {
        let t = [4.0, 1.0, 0.5, 3.0, 0.2, 5.0];
        let inv = invert_sym3(t);
        // Multiply T * T^-1 and check identity (symmetric packing).
        #[allow(clippy::needless_range_loop)]
        let mul = |a: [f64; 6], b: [f64; 6]| -> [[f64; 3]; 3] {
            let am = [[a[0], a[1], a[2]], [a[1], a[3], a[4]], [a[2], a[4], a[5]]];
            let bm = [[b[0], b[1], b[2]], [b[1], b[3], b[4]], [b[2], b[4], b[5]]];
            let mut out = [[0.0; 3]; 3];
            for r in 0..3 {
                for c in 0..3 {
                    out[r][c] = (0..3).map(|k| am[r][k] * bm[k][c]).sum();
                }
            }
            out
        };
        let id = mul(t, inv);
        for (r, row) in id.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-12, "at ({r},{c}): {v}");
            }
        }
    }

    #[test]
    fn invert_sym3_singular_falls_back() {
        let inv = invert_sym3([0.0; 6]);
        assert_eq!(inv, [0.0; 6]);
        let inv = invert_sym3([2.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(inv[0], 0.5);
    }

    #[test]
    fn linear_velocity_field_recovers_exact_divergence() {
        // v = (x, 2y, 3z) -> div v = 6, curl v = 0. IAD is linearly exact in
        // the interior; tolerate small periodic-wrap edge effects.
        let kernel = Kernel::CubicSpline;
        let (mut parts, bbox) = glass(10, 5);
        for i in 0..parts.len() {
            parts.vx[i] = parts.x[i];
            parts.vy[i] = 2.0 * parts.y[i];
            parts.vz[i] = 3.0 * parts.z[i];
        }
        let nl = prepare(&mut parts, &bbox, kernel);
        iad_divv_curlv(&mut parts, &nl, kernel, None);
        // Check interior particles (away from the periodic wrap where the
        // linear field is discontinuous).
        let mut checked = 0;
        for i in 0..parts.n_local {
            let interior = parts.x[i] > 0.25
                && parts.x[i] < 0.75
                && parts.y[i] > 0.25
                && parts.y[i] < 0.75
                && parts.z[i] > 0.25
                && parts.z[i] < 0.75;
            if !interior {
                continue;
            }
            checked += 1;
            assert!(
                (parts.divv[i] - 6.0).abs() < 0.35,
                "divv {} at interior particle {i}",
                parts.divv[i]
            );
            assert!(
                parts.curlv[i] < 0.35,
                "curl {} should vanish",
                parts.curlv[i]
            );
        }
        assert!(
            checked > 50,
            "too few interior particles checked: {checked}"
        );
    }

    #[test]
    fn rigid_rotation_recovers_curl_not_div() {
        // v = omega x r with omega = (0,0,1): div = 0, |curl| = 2.
        let kernel = Kernel::CubicSpline;
        let (mut parts, bbox) = glass(10, 6);
        for i in 0..parts.len() {
            let (dx, dy) = (parts.x[i] - 0.5, parts.y[i] - 0.5);
            parts.vx[i] = -dy;
            parts.vy[i] = dx;
            parts.vz[i] = 0.0;
        }
        let nl = prepare(&mut parts, &bbox, kernel);
        iad_divv_curlv(&mut parts, &nl, kernel, None);
        let mut checked = 0;
        for i in 0..parts.n_local {
            let r2 = (parts.x[i] - 0.5).powi(2) + (parts.y[i] - 0.5).powi(2);
            let interior = r2 < 0.04 && parts.z[i] > 0.25 && parts.z[i] < 0.75;
            if !interior {
                continue;
            }
            checked += 1;
            assert!(
                parts.divv[i].abs() < 0.3,
                "div {} should vanish",
                parts.divv[i]
            );
            assert!(
                (parts.curlv[i] - 2.0).abs() < 0.4,
                "curl {}",
                parts.curlv[i]
            );
        }
        assert!(
            checked > 20,
            "too few interior particles checked: {checked}"
        );
    }

    #[test]
    fn iad_tensor_is_finite_everywhere() {
        let kernel = Kernel::WendlandC6;
        let (mut parts, bbox) = glass(8, 7);
        let nl = prepare(&mut parts, &bbox, kernel);
        iad_divv_curlv(&mut parts, &nl, kernel, None);
        for i in 0..parts.n_local {
            for v in [
                parts.c11[i],
                parts.c12[i],
                parts.c13[i],
                parts.c22[i],
                parts.c23[i],
                parts.c33[i],
            ] {
                assert!(v.is_finite(), "non-finite tensor entry at {i}");
            }
        }
    }
}
