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
    // What a pair reads from its `j` side, 14 doubles in a 128-byte record:
    // `[x, y, z, h | m, vx, vy, vz | alpha, c, rho, P/(Om rho²) | sigma(h),
    // 1/h, ·, ·]`. The last four values are the per-particle parts of the
    // pair terms, each by the reference's per-pair expression: three
    // divisions per pair become three per particle.
    let record = |j: usize| {
        // First-step halos arrive before their owner computed a density;
        // they carry no pressure yet and must not divide by rho^2 = 0
        // (which underflows to 0/0 = NaN).
        let rho_j = p.rho[j];
        let pj_term = if rho_j > 0.0 {
            p.p[j] / (p.gradh[j] * rho_j * rho_j)
        } else {
            0.0
        };
        let (sigma, dq) = kernels::kernel_norm(kernel, p.h[j]);
        [
            p.x[j],
            p.y[j],
            p.z[j],
            p.h[j],
            p.m[j],
            p.vx[j],
            p.vy[j],
            p.vz[j],
            p.alpha[j],
            p.c[j],
            rho_j.max(1e-300),
            pj_term,
            sigma,
            dq,
            0.0,
            0.0,
        ]
    };
    let rates: Vec<(f64, f64, f64, f64)> = lanes::with_records(p.len(), record, |recs| {
        par::par_map(p.n_local, |i| momentum_row(p, nl, recs, i, kernel))
    });
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

/// One momentum row: whole-row passes, the skips as a mask. The candidates'
/// records are gathered and the geometry recomputed for the whole row; the
/// two gradient prefactors `dW/dr / r` (one at `h_i` via the hoisted
/// [`RowKernel`], one at the gathered `h_j` with its gathered
/// normalisation) are batched over the whole row; one branch-free
/// elementwise pass (`pair_terms`) then evaluates the four per-pair terms
/// of every candidate and replaces those of the pairs the reference
/// callback skips — its radius filter (`d2 > (1.4 s_i)²`), self/coincident
/// skip (`d2 == 0`, exactly its `j == i || d2 == 0` set), and pairwise
/// support check — by the fold's identity. The step's list stores exactly
/// the pairs within `max(s_i, s_j)` (`crate::sim::list_radii_into`), so a
/// row's masked lanes are the self-pair, pairs whose distance rounds to the
/// support itself, and — on an h-graded cloud — pairs a much larger
/// neighbour reaches from beyond this row's own `1.4 s_i` search, which
/// the reference never sees either: nearly every lane's arithmetic is
/// consumed.
///
/// Bit-identical to the reference: `keep` is the literal negation of its
/// skips, the batched evaluators and the term pass are elementwise (same
/// input value → same bits regardless of lane position) and see the
/// reference's exact expressions (displacements negated from the
/// recomputed `r_j - r_i` into the `r_i - r_j` direction `Box3::delta(i,
/// j)` builds — IEEE negation is exact and `d2` is unchanged since squares
/// erase the sign), a masked lane holds the identity of its fold (`+0.0`
/// under `-=`, `-0.0` under `+=`; see [`crate::lanes`]) whatever NaN or
/// infinity its arithmetic produced (the self pair divides by `r = 0`),
/// and the folds are running `-=`/`+=` in row order.
fn momentum_row(
    p: &Particles,
    nl: &NeighborList,
    recs: &[f64],
    i: usize,
    kernel: Kernel,
) -> (f64, f64, f64, f64) {
    let hi = p.h[i];
    let rho_i = p.rho[i].max(1e-300);
    let si = kernel.support(hi);
    // Search must cover the larger support of interacting pairs; h is
    // smooth so 1.4x covers neighbor h differences.
    let radius = si * 1.4;
    let own = RowSide {
        kernel,
        h: hi,
        support: si,
        search_r2: radius * radius,
        rho: rho_i,
        p_term: p.p[i] / (p.gradh[i] * rho_i * rho_i),
        v: [p.vx[i], p.vy[i], p.vz[i]],
        alpha: p.alpha[i],
        c: p.c[i],
    };
    let rkn = RowKernel::new(kernel, hi);
    lanes::with_scratch(|s| {
        let lanes::RowScratch {
            cols,
            d2,
            r,
            w: dwi,
            w2: dwj,
            terms,
        } = s;
        let jj = nl.row(i);
        lanes::gather::<16>(recs, jj, cols);
        lanes::geometry(nl.min_image(), [p.x[i], p.y[i], p.z[i]], cols, d2, r);
        let [dx, dy, dz, h, mass, vx, vy, vz, alpha, c, rho, p_term, sigma, dq, ..] = cols;
        rkn.dw_dr_over_r_into(r, dwi);
        kernels::dw_dr_over_r_varh_into(kernel, r, h, sigma, dq, dwj);
        for t in &mut terms[..4] {
            t.resize(d2.len(), 0.0);
        }
        let [tx, ty, tz, tu, ..] = terms;
        pair_terms(
            &own, d2, r, dx, dy, dz, h, mass, vx, vy, vz, alpha, c, rho, p_term, dwi, dwj, tx, ty,
            tz, tu,
        );
        let m = jj.len();
        let (tx, ty, tz, tu) = (&tx[..m], &ty[..m], &tz[..m], &tu[..m]);
        let (mut ax, mut ay, mut az, mut du) = (0.0, 0.0, 0.0, 0.0);
        for k in 0..m {
            ax -= tx[k];
            ay -= ty[k];
            az -= tz[k];
            du += tu[k];
        }
        (ax, ay, az, du)
    })
}

/// The `i` side of a momentum row: everything the pair terms read that does
/// not vary along the row, hoisted.
struct RowSide {
    kernel: Kernel,
    h: f64,
    /// `support(h)` and the squared `1.4 · support(h)` search radius.
    support: f64,
    search_r2: f64,
    /// `rho.max(1e-300)` and `P / (Omega rho²)` on it.
    rho: f64,
    p_term: f64,
    v: [f64; 3],
    alpha: f64,
    c: f64,
}

lanes::row_pass! {
    /// `(tx, ty, tz)[k] = m_j · grad_scale · (r_i - r_j)` and `tu[k]` the
    /// energy term of candidate `k` — the reference's per-pair expressions —
    /// or the identity of their folds (`+0.0` for the three `-=`, `-0.0` for
    /// the `+=`) where the reference skips the pair. One branch-free
    /// elementwise pass over the row's columns (all sized to the row; `dx/dy/
    /// dz` hold `r_j - r_i`).
    fn pair_terms(
        own: &RowSide,
        d2: &[f64],
        r: &[f64],
        dx: &[f64],
        dy: &[f64],
        dz: &[f64],
        h: &[f64],
        mass: &[f64],
        vx: &[f64],
        vy: &[f64],
        vz: &[f64],
        alpha: &[f64],
        c: &[f64],
        rho: &[f64],
        p_term: &[f64],
        dwi: &[f64],
        dwj: &[f64],
        tx: &mut [f64],
        ty: &mut [f64],
        tz: &mut [f64],
        tu: &mut [f64],
    ) {
        let m = d2.len();
        let (r, dx, dy, dz, h) = (&r[..m], &dx[..m], &dy[..m], &dz[..m], &h[..m]);
        let (mass, vx, vy, vz) = (&mass[..m], &vx[..m], &vy[..m], &vz[..m]);
        let (alpha, c, rho, p_term) = (&alpha[..m], &c[..m], &rho[..m], &p_term[..m]);
        let (dwi, dwj) = (&dwi[..m], &dwj[..m]);
        let (tx, ty, tz, tu) = (&mut tx[..m], &mut ty[..m], &mut tz[..m], &mut tu[..m]);
        for k in 0..m {
            let (d2, r, hj) = (d2[k], r[k], h[k]);
            // Pair interacts if within either particle's support.
            let keep = (d2 != 0.0)
                & (d2 <= own.search_r2)
                & ((r < own.support) | (r < own.kernel.support(hj)));
            let (dx, dy, dz) = (-dx[k], -dy[k], -dz[k]);
            let (dwi, dwj) = (dwi[k], dwj[k]);
            let dw_avg = 0.5 * (dwi + dwj);
            let (pj_term, rho_j) = (p_term[k], rho[k]);

            let dvx = own.v[0] - vx[k];
            let dvy = own.v[1] - vy[k];
            let dvz = own.v[2] - vz[k];
            let vdotr = dvx * dx + dvy * dy + dvz * dz;

            let alpha_ij = 0.5 * (own.alpha + alpha[k]);
            let h_ij = 0.5 * (own.h + hj);
            let c_ij = 0.5 * (own.c + c[k]);
            let rho_ij = 0.5 * (own.rho + rho_j);
            let visc = viscosity_pi(alpha_ij, h_ij, c_ij, rho_ij, vdotr, d2);

            let mj = mass[k];
            let grad_scale = own.p_term * dwi + pj_term * dwj + visc * dw_avg;
            tx[k] = if keep { mj * grad_scale * dx } else { 0.0 };
            ty[k] = if keep { mj * grad_scale * dy } else { 0.0 };
            tz[k] = if keep { mj * grad_scale * dz } else { 0.0 };
            let energy = mj * (own.p_term * dwi + 0.5 * visc * dw_avg) * vdotr;
            tu[k] = if keep { energy } else { -0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::density_gradh;
    use crate::density::tests::list;
    use crate::eos::Eos;
    use cornerstone::Box3;
    use rng::Rng;

    fn uniform_gas(n_side: usize, jitter: f64, seed: u64) -> (Particles, Box3) {
        let bbox = Box3::unit_periodic();
        let mut rng = Rng::seed_from_u64(seed);
        let mut parts = Particles::new();
        let spacing = 1.0 / n_side as f64;
        let m = 1.0 / (n_side * n_side * n_side) as f64;
        for ix in 0..n_side {
            for iy in 0..n_side {
                for iz in 0..n_side {
                    let mut j = || (rng.unit() - 0.5) * jitter * spacing;
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
        let mut rng = Rng::seed_from_u64(3);
        for i in 0..parts.len() {
            parts.vx[i] = rng.unit() - 0.5;
            parts.vy[i] = rng.unit() - 0.5;
            parts.vz[i] = rng.unit() - 0.5;
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
