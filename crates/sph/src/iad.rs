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
    // What a pair reads from its `j` side: `[x, y, z, V | vx, vy, vz, ·]`,
    // 64 bytes, the volume by the reference's per-pair expression — one
    // division per particle instead of one per pair and pass.
    let record = |j: usize| {
        // Bootstrap volume for particles whose density is not yet known
        // (first-step halos): fall back to the mass itself, the same rule
        // XMass uses.
        let v = if p.rho[j] > 0.0 {
            p.m[j] / p.rho[j]
        } else {
            p.m[j]
        };
        [p.x[j], p.y[j], p.z[j], v, p.vx[j], p.vy[j], p.vz[j], 0.0]
    };
    let per_row: Vec<([f64; 6], f64, [f64; 3])> = lanes::with_records(p.len(), record, |recs| {
        par::par_map(n, |k| {
            iad_row(p, nl, recs, rows.map_or(k, |r| r[k]), kernel)
        })
    });
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

/// One IAD row. The geometry and the per-pair kernel value `W` (batched
/// through the hoisted-`h` [`RowKernel`]) serve both passes — the reference
/// re-walks the neighbor source twice at the same radius, visiting the same
/// pairs in the same order and recomputing both with identical inputs, so
/// reuse changes nothing bitwise and halves the kernel evaluations — and
/// the set it processes (`d2 <= support(h_i)²`, minus `j == i || d2 == 0`,
/// i.e. the self pair and coincident particles) is the mask `0 < d2 <= r²`
/// of the two term passes.
///
/// The recomputed displacement is exactly the `r_j - r_i` the reference
/// gets from `Box3::delta`, every term is the reference's expression, a
/// masked lane holds the `+=` fold's identity `-0.0`, and every fold below
/// is a running `+=` in row order, so the results are bit-identical (see
/// [`crate::lanes`]).
fn iad_row(
    p: &Particles,
    nl: &NeighborList,
    recs: &[f64],
    i: usize,
    kernel: Kernel,
) -> ([f64; 6], f64, [f64; 3]) {
    let hi = p.h[i];
    let radius = kernel.support(hi);
    let rkn = RowKernel::new(kernel, hi);
    lanes::with_scratch(|s| {
        let lanes::RowScratch {
            cols,
            d2,
            r,
            w,
            terms,
            ..
        } = s;
        let jj = nl.row(i);
        lanes::gather::<8>(recs, jj, cols);
        lanes::geometry(nl.min_image(), [p.x[i], p.y[i], p.z[i]], cols, d2, r);
        rkn.w_into(r, w);
        for t in terms.iter_mut() {
            t.resize(d2.len(), 0.0);
        }
        let m = jj.len();
        let [dx, dy, dz, v, vx, vy, vz, ..] = cols;
        let [t0, t1, t2, t3, t4, t5, t6, t7, t8] = terms;
        let r2 = radius * radius;

        // Pass 1: moment tensor.
        tau_terms(r2, d2, dx, dy, dz, v, w, t0, t1, t2, t3, t4, t5);
        let tau = fold(m, [t0, t1, t2, t3, t4, t5]);
        let c = invert_sym3(tau);

        // Pass 2: the velocity gradient through C·d.
        let vi = [p.vx[i], p.vy[i], p.vz[i]];
        grad_terms(
            r2, &c, vi, d2, dx, dy, dz, v, w, vx, vy, vz, t0, t1, t2, t3, t4, t5, t6, t7, t8,
        );
        let grad = fold(m, [t0, t1, t2, t3, t4, t5, t6, t7, t8]); // grad[3a + b] = dv_a/dx_b
        let divv = grad[0] + grad[4] + grad[8];
        let curl = [grad[7] - grad[5], grad[2] - grad[6], grad[3] - grad[1]];
        (c, divv, curl)
    })
}

/// `N` term columns of `m` lanes, each folded as a running `+=` from `0.0`
/// in row order. One loop over the row advances all `N` sums, so their
/// dependent-add chains overlap instead of running one after another.
// Indexed on purpose: in this form the `N` sums stay in registers and the
// `[..m]` checks hoist out of the loop; the zipped form re-checks every
// column on every lane.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn fold<const N: usize>(m: usize, terms: [&[f64]; N]) -> [f64; N] {
    let mut acc = [0.0f64; N];
    for k in 0..m {
        for a in 0..N {
            acc[a] += terms[a][..m][k];
        }
    }
    acc
}

lanes::row_pass! {
    /// `(xx, xy, xz, yy, yz, zz)[k] = V_j (r_j - r_i)_a (r_j - r_i)_b W_ij`, the
    /// six terms of the symmetric moment tensor, or `-0.0` where `0 < d2 <=
    /// r2` does not hold — one branch-free elementwise pass over the row's
    /// columns (all sized to the row).
    fn tau_terms(
        r2: f64,
        d2: &[f64],
        dx: &[f64],
        dy: &[f64],
        dz: &[f64],
        v: &[f64],
        w: &[f64],
        xx: &mut [f64],
        xy: &mut [f64],
        xz: &mut [f64],
        yy: &mut [f64],
        yz: &mut [f64],
        zz: &mut [f64],
    ) {
        let m = d2.len();
        let (dx, dy, dz, v, w) = (&dx[..m], &dy[..m], &dz[..m], &v[..m], &w[..m]);
        let (xx, xy, xz) = (&mut xx[..m], &mut xy[..m], &mut xz[..m]);
        let (yy, yz, zz) = (&mut yy[..m], &mut yz[..m], &mut zz[..m]);
        for k in 0..m {
            let keep = (d2[k] > 0.0) & (d2[k] <= r2);
            let or_identity = |t: f64| if keep { t } else { -0.0 };
            let (dx, dy, dz, v, w) = (dx[k], dy[k], dz[k], v[k], w[k]);
            xx[k] = or_identity(v * dx * dx * w);
            xy[k] = or_identity(v * dx * dy * w);
            xz[k] = or_identity(v * dx * dz * w);
            yy[k] = or_identity(v * dy * dy * w);
            yz[k] = or_identity(v * dy * dz * w);
            zz[k] = or_identity(v * dz * dz * w);
        }
    }
}

lanes::row_pass! {
    /// `g[3a + b][k] = V_j (v_j - v_i)_a (C (r_j - r_i))_b W_ij` — the IAD
    /// linear operator's nine velocity-gradient terms — or `-0.0` where
    /// `0 < d2 <= r2` does not hold; the companion of `tau_terms`, same form.
    fn grad_terms(
        r2: f64,
        c: &[f64; 6],
        vi: [f64; 3],
        d2: &[f64],
        dx: &[f64],
        dy: &[f64],
        dz: &[f64],
        v: &[f64],
        w: &[f64],
        vx: &[f64],
        vy: &[f64],
        vz: &[f64],
        g0: &mut [f64],
        g1: &mut [f64],
        g2: &mut [f64],
        g3: &mut [f64],
        g4: &mut [f64],
        g5: &mut [f64],
        g6: &mut [f64],
        g7: &mut [f64],
        g8: &mut [f64],
    ) {
        let m = d2.len();
        let (dx, dy, dz, v, w) = (&dx[..m], &dy[..m], &dz[..m], &v[..m], &w[..m]);
        let (vx, vy, vz) = (&vx[..m], &vy[..m], &vz[..m]);
        let (g0, g1, g2) = (&mut g0[..m], &mut g1[..m], &mut g2[..m]);
        let (g3, g4, g5) = (&mut g3[..m], &mut g4[..m], &mut g5[..m]);
        let (g6, g7, g8) = (&mut g6[..m], &mut g7[..m], &mut g8[..m]);
        for k in 0..m {
            let keep = (d2[k] > 0.0) & (d2[k] <= r2);
            let or_identity = |t: f64| if keep { t } else { -0.0 };
            let (dx, dy, dz, v, w) = (dx[k], dy[k], dz[k], v[k], w[k]);
            // C * d (symmetric storage: xx xy xz yy yz zz)
            let cdx = c[0] * dx + c[1] * dy + c[2] * dz;
            let cdy = c[1] * dx + c[3] * dy + c[4] * dz;
            let cdz = c[2] * dx + c[4] * dy + c[5] * dz;
            let dvx = vx[k] - vi[0];
            let dvy = vy[k] - vi[1];
            let dvz = vz[k] - vi[2];
            g0[k] = or_identity(v * dvx * cdx * w);
            g1[k] = or_identity(v * dvx * cdy * w);
            g2[k] = or_identity(v * dvx * cdz * w);
            g3[k] = or_identity(v * dvy * cdx * w);
            g4[k] = or_identity(v * dvy * cdy * w);
            g5[k] = or_identity(v * dvy * cdz * w);
            g6[k] = or_identity(v * dvz * cdx * w);
            g7[k] = or_identity(v * dvz * cdy * w);
            g8[k] = or_identity(v * dvz * cdz * w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornerstone::Box3;
    use rng::Rng;

    fn glass(n_side: usize, seed: u64) -> (Particles, Box3) {
        let bbox = Box3::unit_periodic();
        let mut rng = Rng::seed_from_u64(seed);
        let mut parts = Particles::new();
        let spacing = 1.0 / n_side as f64;
        let m = 1.0 / (n_side * n_side * n_side) as f64;
        for ix in 0..n_side {
            for iy in 0..n_side {
                for iz in 0..n_side {
                    let mut jitter = || (rng.unit() - 0.5) * 0.2 * spacing;
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
