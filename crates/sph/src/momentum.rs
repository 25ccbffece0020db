//! `MomentumEnergy`: the grad-h SPH momentum and energy equations with
//! artificial viscosity — the most compute-intensive kernel in the paper's
//! per-function breakdown (Figs. 5 and 8).

use cornerstone::NeighborList;

use crate::av::viscosity_pi;
use crate::kernels::{self, Kernel, RowKernel};
use crate::lanes;
use crate::particles::Particles;

/// Compute accelerations `(ax, ay, az)` and energy rates `du` for owned
/// particles:
///
/// ```text
/// a_i  = -sum_j m_j [ P_i/(Om_i rho_i^2) gradW(h_i)
///                   + P_j/(Om_j rho_j^2) gradW(h_j)
///                   + Pi_ij gradW_avg ]
/// du_i =  P_i/(Om_i rho_i^2) sum_j m_j v_ij . gradW(h_i)
///       + 1/2 sum_j m_j Pi_ij v_ij . gradW_avg
/// ```
///
/// Parallelized by gather over the step's shared list: each row
/// accumulates only its own force and energy rate, in the row's stored
/// visit order — bit-identical at any thread count, and to
/// [`crate::reference::momentum_energy`] over the grid or the list.
pub fn momentum_energy(parts: &mut Particles, nl: &NeighborList, kernel: Kernel) {
    let p = &*parts;
    let rates: Vec<(f64, f64, f64, f64)> =
        par::par_map(p.n_local, |i| momentum_row(p, nl, i, kernel));
    store_rates(parts, rates);
}

/// Write one momentum sweep's per-row `(ax, ay, az, du)`.
pub(crate) fn store_rates(parts: &mut Particles, rates: Vec<(f64, f64, f64, f64)>) {
    for (i, (axi, ayi, azi, dui)) in rates.into_iter().enumerate() {
        parts.ax[i] = axi;
        parts.ay[i] = ayi;
        parts.az[i] = azi;
        parts.du[i] = dui;
    }
}

/// One momentum row: select-then-batch. Distances are batched over the
/// whole CSR row; a branch-free selection pass then compacts the positions
/// of the pairs the reference callback actually processes — its radius
/// filter (`d2 > (1.4 s_i)²`), self/coincident skip (`d2 == 0`, exactly the
/// reference's `j == i || d2 == 0` set), and pairwise support check,
/// evaluated as mask arithmetic with a write-then-advance store so the loop
/// carries no data-dependent branches. The two gradient prefactors
/// `dW/dr / r` (one at `h_i` via the hoisted [`RowKernel`], one at the
/// gathered `h_j`) are then batched over just the compacted survivors, and
/// the accumulation loop walks the survivor list with no skips left to
/// take. The step's list stores exactly the pairs within
/// `max(s_i, s_j)` (`crate::sim::list_radii_into`), so a row's survivors are
/// the whole row minus the self-pair, pairs whose distance rounds to the
/// support itself, and — on an h-graded cloud — pairs a much larger
/// neighbour reaches from beyond this row's own `1.4 s_i` search, which
/// the reference never sees either.
///
/// Bit-identical to the reference: the survivor set and order equal its
/// processed set and order (`keep` is the literal negation of its skips),
/// the batched evaluators are elementwise (same input value → same bits
/// regardless of lane position), and visited pairs see the reference's
/// exact expressions (deltas read negated from the stored `r_j - r_i` into
/// the `r_i - r_j` direction `Box3::delta(i, j)` builds — IEEE negation is
/// exact and `d2` is unchanged since squares erase the sign), accumulated
/// as a running `+=`/`-=` fold in visit order. Per-`i` invariants (`hi`,
/// `rho_i`, `pi_term`, `support(hi)`, velocities, `alpha`, `c`) are
/// hoisted.
fn momentum_row(
    p: &Particles,
    nl: &NeighborList,
    i: usize,
    kernel: Kernel,
) -> (f64, f64, f64, f64) {
    let hi = p.h[i];
    let rho_i = p.rho[i].max(1e-300);
    let pi_term = p.p[i] / (p.gradh[i] * rho_i * rho_i);
    let si = kernel.support(hi);
    // Search must cover the larger support of interacting pairs; h is
    // smooth so 1.4x covers neighbor h differences.
    let radius = si * 1.4;
    let r2 = radius * radius;
    let rkn = RowKernel::new(kernel, hi);
    let (vxi, vyi, vzi) = (p.vx[i], p.vy[i], p.vz[i]);
    let (alpha_i, c_i) = (p.alpha[i], p.c[i]);
    let (jj, dxs, dys, dzs) = nl.row_deltas(i);
    let m = jj.len();
    lanes::with_scratch(|s| {
        let lanes::RowScratch {
            r,
            w: dwi_b,
            vj: dwj_b,
            aux,
            idx,
            ..
        } = s;
        let [hj_b, d2_b, rc, hjc] = aux;
        lanes::dist2_dist_into(dxs, dys, dzs, d2_b, r);
        hj_b.clear();
        hj_b.resize(m, 0.0);
        for k in 0..m {
            hj_b[k] = p.h[jj[k] as usize];
        }
        // Branch-free survivor selection (see the doc comment): `keep` is
        // the exact negation of the reference's skip conditions.
        idx.clear();
        idx.resize(m, 0);
        let mut nsel = 0usize;
        for k in 0..m {
            let d2k = d2_b[k];
            let rk = r[k];
            let keep = (d2k != 0.0) & (d2k <= r2) & ((rk < si) | (rk < kernel.support(hj_b[k])));
            idx[nsel] = k as u32;
            nsel += keep as usize;
        }
        idx.truncate(nsel);
        // Dense gather of the survivors' `r` and `h_j` so the gradient
        // batches touch only interacting pairs. Survivors have `d2 != 0`,
        // so the varh pass never divides by a zero distance here.
        rc.clear();
        rc.resize(nsel, 0.0);
        hjc.clear();
        hjc.resize(nsel, 0.0);
        for (c, &k32) in idx.iter().enumerate() {
            rc[c] = r[k32 as usize];
            hjc[c] = hj_b[k32 as usize];
        }
        rkn.dw_dr_over_r_into(rc, dwi_b);
        kernels::dw_dr_over_r_varh_into(kernel, rc, hjc, dwj_b);

        let (mut ax, mut ay, mut az, mut du) = (0.0, 0.0, 0.0, 0.0);
        for (c, &k32) in idx.iter().enumerate() {
            let k = k32 as usize;
            let d2k = d2_b[k];
            let j = jj[k] as usize;
            let hj = hjc[c];
            let (dx, dy, dz) = (-dxs[k], -dys[k], -dzs[k]);
            let dwi = dwi_b[c];
            let dwj = dwj_b[c];
            let dw_avg = 0.5 * (dwi + dwj);

            // First-step halos arrive before their owner computed a density;
            // they carry no pressure yet and must not divide by rho^2 = 0
            // (which underflows to 0/0 = NaN).
            let rho_j = p.rho[j];
            let pj_term = if rho_j > 0.0 {
                p.p[j] / (p.gradh[j] * rho_j * rho_j)
            } else {
                0.0
            };
            let rho_j = rho_j.max(1e-300);

            let dvx = vxi - p.vx[j];
            let dvy = vyi - p.vy[j];
            let dvz = vzi - p.vz[j];
            let vdotr = dvx * dx + dvy * dy + dvz * dz;

            let alpha_ij = 0.5 * (alpha_i + p.alpha[j]);
            let h_ij = 0.5 * (hi + hj);
            let c_ij = 0.5 * (c_i + p.c[j]);
            let rho_ij = 0.5 * (rho_i + rho_j);
            let visc = viscosity_pi(alpha_ij, h_ij, c_ij, rho_ij, vdotr, d2k);

            let mj = p.m[j];
            let grad_scale = pi_term * dwi + pj_term * dwj + visc * dw_avg;
            ax -= mj * grad_scale * dx;
            ay -= mj * grad_scale * dy;
            az -= mj * grad_scale * dz;
            du += mj * (pi_term * dwi + 0.5 * visc * dw_avg) * vdotr;
        }
        (ax, ay, az, du)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::density_gradh;
    use crate::density::tests::list;
    use crate::eos::Eos;
    use cornerstone::Box3;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn uniform_gas(n_side: usize, jitter: f64, seed: u64) -> (Particles, Box3) {
        let bbox = Box3::unit_periodic();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut parts = Particles::new();
        let spacing = 1.0 / n_side as f64;
        let m = 1.0 / (n_side * n_side * n_side) as f64;
        for ix in 0..n_side {
            for iy in 0..n_side {
                for iz in 0..n_side {
                    let mut j = || (rng.random::<f64>() - 0.5) * jitter * spacing;
                    let (jx, jy, jz) = (j(), j(), j());
                    parts.push(
                        (ix as f64 + 0.5) * spacing + jx,
                        (iy as f64 + 0.5) * spacing + jy,
                        (iz as f64 + 0.5) * spacing + jz,
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

    fn prep(parts: &mut Particles, bbox: &Box3, kernel: Kernel) -> NeighborList {
        let nl = list(parts, bbox, kernel.support(parts.h[0]) * 1.4);
        density_gradh(parts, &nl, kernel);
        Eos::ideal_monatomic().apply(parts);
        nl
    }

    #[test]
    fn uniform_lattice_has_negligible_forces() {
        let kernel = Kernel::CubicSpline;
        let (mut parts, bbox) = uniform_gas(8, 0.0, 1);
        let nl = prep(&mut parts, &bbox, kernel);
        momentum_energy(&mut parts, &nl, kernel);
        // Perfect symmetry -> pressure gradients cancel.
        let amax = parts
            .ax
            .iter()
            .chain(&parts.ay)
            .chain(&parts.az)
            .fold(0.0f64, |m, &a| m.max(a.abs()));
        // Pressure scale: P/rho/spacing ~ 0.67/0.125 = 5.3; forces must be
        // orders of magnitude below that.
        assert!(amax < 0.15, "residual force {amax} too large");
    }

    #[test]
    fn momentum_is_conserved_pairwise() {
        // Total momentum rate must vanish for a closed (periodic) system.
        let kernel = Kernel::CubicSpline;
        let (mut parts, bbox) = uniform_gas(7, 0.4, 2);
        // Give particles random velocities so AV participates.
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..parts.len() {
            parts.vx[i] = rng.random::<f64>() - 0.5;
            parts.vy[i] = rng.random::<f64>() - 0.5;
            parts.vz[i] = rng.random::<f64>() - 0.5;
        }
        let nl = prep(&mut parts, &bbox, kernel);
        momentum_energy(&mut parts, &nl, kernel);
        let (mut px, mut py, mut pz) = (0.0, 0.0, 0.0);
        let mut scale = 0.0f64;
        for i in 0..parts.n_local {
            px += parts.m[i] * parts.ax[i];
            py += parts.m[i] * parts.ay[i];
            pz += parts.m[i] * parts.az[i];
            scale += parts.m[i] * (parts.ax[i].abs() + parts.ay[i].abs() + parts.az[i].abs());
        }
        let tol = (scale * 1e-10).max(1e-12);
        assert!(px.abs() < tol, "px {px} vs scale {scale}");
        assert!(py.abs() < tol, "py {py}");
        assert!(pz.abs() < tol, "pz {pz}");
    }

    #[test]
    fn compression_heats_the_gas() {
        // A radially-converging velocity field must produce du > 0 overall
        // (pdV work + viscous dissipation).
        let kernel = Kernel::CubicSpline;
        let (mut parts, bbox) = uniform_gas(8, 0.2, 4);
        for i in 0..parts.len() {
            parts.vx[i] = -(parts.x[i] - 0.5);
            parts.vy[i] = -(parts.y[i] - 0.5);
            parts.vz[i] = -(parts.z[i] - 0.5);
            parts.alpha[i] = 0.5;
        }
        let nl = prep(&mut parts, &bbox, kernel);
        momentum_energy(&mut parts, &nl, kernel);
        let total_du: f64 = (0..parts.n_local).map(|i| parts.m[i] * parts.du[i]).sum();
        assert!(total_du > 0.0, "compression must heat: {total_du}");
    }

    #[test]
    fn expansion_cools_the_gas() {
        let kernel = Kernel::CubicSpline;
        let (mut parts, bbox) = uniform_gas(8, 0.2, 5);
        for i in 0..parts.len() {
            parts.vx[i] = parts.x[i] - 0.5;
            parts.vy[i] = parts.y[i] - 0.5;
            parts.vz[i] = parts.z[i] - 0.5;
        }
        let nl = prep(&mut parts, &bbox, kernel);
        momentum_energy(&mut parts, &nl, kernel);
        // Restrict to the interior: at the periodic wrap the "expansion"
        // field collides with its own image and heats viscously.
        let interior = |i: usize| {
            [parts.x[i], parts.y[i], parts.z[i]]
                .iter()
                .all(|&c| (0.25..0.75).contains(&c))
        };
        let total_du: f64 = (0..parts.n_local)
            .filter(|&i| interior(i))
            .map(|i| parts.m[i] * parts.du[i])
            .sum();
        assert!(total_du < 0.0, "expansion must cool: {total_du}");
    }

    #[test]
    fn overdense_region_pushes_outward() {
        // Two particles close together in a cold background: they repel.
        let kernel = Kernel::CubicSpline;
        let bbox = Box3::cube(0.0, 1.0, false);
        let mut parts = Particles::new();
        parts.push(0.48, 0.5, 0.5, 0.0, 0.0, 0.0, 1.0, 0.05, 1.0);
        parts.push(0.52, 0.5, 0.5, 0.0, 0.0, 0.0, 1.0, 0.05, 1.0);
        let nl = list(&parts, &bbox, 0.15);
        density_gradh(&mut parts, &nl, kernel);
        Eos::ideal_monatomic().apply(&mut parts);
        momentum_energy(&mut parts, &nl, kernel);
        assert!(
            parts.ax[0] < 0.0,
            "left particle pushed left: {}",
            parts.ax[0]
        );
        assert!(
            parts.ax[1] > 0.0,
            "right particle pushed right: {}",
            parts.ax[1]
        );
        assert!(
            (parts.ax[0] + parts.ax[1]).abs() < 1e-10,
            "equal and opposite"
        );
    }
}
