//! `IADVelocityDivCurl`: Integral Approach to Derivatives tensor plus
//! velocity divergence and curl.
//!
//! The IAD scheme (García-Senz et al.) replaces kernel-gradient derivatives
//! with a linearly-exact integral formulation: each particle carries the
//! inverse `C = tau^{-1}` of the local moment matrix
//! `tau_ab = sum_j V_j (r_j - r_i)_a (r_j - r_i)_b W_ij`.

use cornerstone::{Box3, NeighborList, NeighborSearch};

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
/// particles.
///
/// Parallelized by gather: each index reads neighbor state but writes only
/// its own tensor/divergence/curl slot, with the two neighbor sweeps kept
/// in cell-list order — bit-identical to the serial loop, and identical
/// between the direct-grid and precomputed-list neighbor sources.
pub fn iad_divv_curlv<N: NeighborSearch + Sync>(
    parts: &mut Particles,
    nb: &N,
    bbox: &Box3,
    kernel: Kernel,
) {
    let p = &*parts;
    let n = p.n_local;
    if let Some(nl) = nb.as_list() {
        let per_particle: Vec<([f64; 6], f64, [f64; 3])> =
            par::par_map(n, |i| iad_row_blocked(p, nl, i, kernel));
        write_iad(parts, per_particle);
        return;
    }
    let per_particle: Vec<([f64; 6], f64, [f64; 3])> = par::par_map(n, |i| {
        let (x, y, z) = (&p.x, &p.y, &p.z);
        let hi = p.h[i];
        let radius = kernel.support(hi);
        let mut tau = [0.0f64; 6];
        nb.for_neighbors_of(i, radius, x, y, z, bbox, |j, d2| {
            if j == i || d2 == 0.0 {
                return;
            }
            // Bootstrap volume for particles whose density is not yet
            // known (first-step halos): fall back to the mass itself, the
            // same rule XMass uses.
            let vj = if p.rho[j] > 0.0 {
                p.m[j] / p.rho[j]
            } else {
                p.m[j]
            };
            let (dx, dy, dz) = bbox.delta(x[j], y[j], z[j], x[i], y[i], z[i]);
            let w = kernel.w(d2.sqrt(), hi);
            tau[0] += vj * dx * dx * w;
            tau[1] += vj * dx * dy * w;
            tau[2] += vj * dx * dz * w;
            tau[3] += vj * dy * dy * w;
            tau[4] += vj * dy * dz * w;
            tau[5] += vj * dz * dz * w;
        });
        let c = invert_sym3(tau);

        // Divergence and curl via the IAD linear operator:
        // dv_a/dx_b ~= sum_j V_j (v_j - v_i)_a (C (r_j - r_i))_b W_ij
        let mut grad = [[0.0f64; 3]; 3]; // grad[a][b] = dv_a/dx_b
        nb.for_neighbors_of(i, radius, x, y, z, bbox, |j, d2| {
            if j == i || d2 == 0.0 {
                return;
            }
            // Same bootstrap-volume rule as the tensor sweep above.
            let vj = if p.rho[j] > 0.0 {
                p.m[j] / p.rho[j]
            } else {
                p.m[j]
            };
            let (dx, dy, dz) = bbox.delta(x[j], y[j], z[j], x[i], y[i], z[i]);
            let w = kernel.w(d2.sqrt(), hi);
            // C * d (symmetric storage: xx xy xz yy yz zz)
            let cdx = c[0] * dx + c[1] * dy + c[2] * dz;
            let cdy = c[1] * dx + c[3] * dy + c[4] * dz;
            let cdz = c[2] * dx + c[4] * dy + c[5] * dz;
            let dvx = p.vx[j] - p.vx[i];
            let dvy = p.vy[j] - p.vy[i];
            let dvz = p.vz[j] - p.vz[i];
            for (a, dva) in [dvx, dvy, dvz].into_iter().enumerate() {
                grad[a][0] += vj * dva * cdx * w;
                grad[a][1] += vj * dva * cdy * w;
                grad[a][2] += vj * dva * cdz * w;
            }
        });
        let divv = grad[0][0] + grad[1][1] + grad[2][2];
        let curl = [
            grad[2][1] - grad[1][2],
            grad[0][2] - grad[2][0],
            grad[1][0] - grad[0][1],
        ];
        (c, divv, curl)
    });
    write_iad(parts, per_particle);
}

/// IAD tensors + divergence/curl over an explicit row subset of the shared
/// CSR list (interior/boundary split).
///
/// Per-row math is identical to [`iad_divv_curlv`]'s list path, and the
/// sweep's outputs (`c11..c33`, `divv`, `curlv`) are never inputs to other
/// rows of the same sweep — it reads `rho`/`m`/velocities, written by
/// earlier phases — so two disjoint subsets compose bit-identically with
/// the full sweep.
pub fn iad_divv_curlv_rows(
    parts: &mut Particles,
    nl: &NeighborList,
    kernel: Kernel,
    rows: &[usize],
) {
    let p = &*parts;
    let per_row: Vec<([f64; 6], f64, [f64; 3])> =
        par::par_map(rows.len(), |k| iad_row_blocked(p, nl, rows[k], kernel));
    for (k, (t, divv, [cx, cy, cz])) in per_row.into_iter().enumerate() {
        let i = rows[k];
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

fn write_iad(parts: &mut Particles, per_particle: Vec<([f64; 6], f64, [f64; 3])>) {
    for (i, (t, divv, [cx, cy, cz])) in per_particle.into_iter().enumerate() {
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

/// Blocked IAD row. One fused pair filter serves both passes (the scalar
/// path re-walks the neighbor source twice at the same radius, visiting
/// the same pairs in the same order, and skips `j == i || d2 == 0` in
/// each — exactly the set [`cornerstone::NeighborList::filter_pairs_into`]
/// drops), and the per-pair kernel value `W` (batched through the
/// hoisted-`h` [`RowKernel`]) and bootstrap volume `V_j` are computed once
/// and reused — the scalar path recomputes both in its second sweep with
/// identical inputs, so reuse changes nothing bitwise and halves the
/// kernel evaluations.
///
/// The stored CSR delta is exactly the `r_j - r_i` direction the scalar
/// pass feeds `Box3::delta`, and every accumulation below keeps the scalar
/// expressions in visit order through [`lanes::Acc`], so default-feature
/// results are bit-identical. Under `fast-math` the `Sinc5` kernel
/// evaluation and the accumulator association are relaxed.
fn iad_row_blocked(
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
        let mut tau_acc = [lanes::Acc::default(); 6];
        for k in 0..m {
            let (dx, dy, dz, wv, v) = (row.dx[k], row.dy[k], row.dz[k], w[k], vj[k]);
            tau_acc[0].add(k, v * dx * dx * wv);
            tau_acc[1].add(k, v * dx * dy * wv);
            tau_acc[2].add(k, v * dx * dz * wv);
            tau_acc[3].add(k, v * dy * dy * wv);
            tau_acc[4].add(k, v * dy * dz * wv);
            tau_acc[5].add(k, v * dz * dz * wv);
        }
        let mut tau = [0.0f64; 6];
        for (t, a) in tau.iter_mut().zip(tau_acc) {
            *t = a.value();
        }
        let c = invert_sym3(tau);

        // Pass 2: C·d products as a contiguous lane pass, then the velocity
        // gradient with the scalar expressions and order.
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
        let mut grad_acc = [[lanes::Acc::default(); 3]; 3];
        for k in 0..m {
            let j = row.j[k] as usize;
            let (v, wv) = (vj[k], w[k]);
            let dvx = p.vx[j] - vxi;
            let dvy = p.vy[j] - vyi;
            let dvz = p.vz[j] - vzi;
            for (a, dva) in [dvx, dvy, dvz].into_iter().enumerate() {
                grad_acc[a][0].add(k, v * dva * cdx[k] * wv);
                grad_acc[a][1].add(k, v * dva * cdy[k] * wv);
                grad_acc[a][2].add(k, v * dva * cdz[k] * wv);
            }
        }
        let grad: [[f64; 3]; 3] =
            grad_acc.map(|row_acc| [row_acc[0].value(), row_acc[1].value(), row_acc[2].value()]);
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
    use cornerstone::CellList;
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

    fn prepare(parts: &mut Particles, bbox: &Box3, kernel: Kernel) -> CellList {
        let grid = CellList::build(
            &parts.x,
            &parts.y,
            &parts.z,
            bbox,
            kernel.support(parts.h[0]),
        );
        crate::density::density_gradh(parts, &grid, bbox, kernel);
        grid
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
        let grid = prepare(&mut parts, &bbox, kernel);
        iad_divv_curlv(&mut parts, &grid, &bbox, kernel);
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
        let grid = prepare(&mut parts, &bbox, kernel);
        iad_divv_curlv(&mut parts, &grid, &bbox, kernel);
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
        let grid = prepare(&mut parts, &bbox, kernel);
        iad_divv_curlv(&mut parts, &grid, &bbox, kernel);
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
