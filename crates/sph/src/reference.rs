//! Reference sweeps: the four neighbor sweeps written as one per-pair
//! callback over any [`NeighborSearch`] — the direct [`CellList`] grid walk
//! or the per-pair replay of a [`NeighborList`]'s rows.
//!
//! Nothing in `Simulation::step` calls these. They are the oracle the
//! production sweeps ([`crate::density`], [`crate::iad`],
//! [`crate::momentum`]) are pinned against, bit for bit, by
//! `tests/blocked_equivalence.rs`, and the baseline `bench_neighbors` times
//! them against. Each body is the textbook form of its sweep: one scalar
//! kernel call per visited pair, one running `+=` fold per output, in the
//! traversal's visit order — the expressions and the order the production
//! row passes reproduce.
//!
//! [`CellList`]: cornerstone::CellList
//! [`NeighborList`]: cornerstone::NeighborList

use cornerstone::{Box3, NeighborSearch};

use crate::av::viscosity_pi;
use crate::density::store_density;
use crate::iad::{invert_sym3, store_iad};
use crate::kernels::Kernel;
use crate::momentum::store_rates;
use crate::particles::Particles;

/// Neighbors within the kernel support of each owned particle, self
/// excluded — the reference for [`crate::density::neighbor_counts`].
pub fn neighbor_counts<N: NeighborSearch + Sync>(
    parts: &Particles,
    nb: &N,
    bbox: &Box3,
    kernel: Kernel,
) -> Vec<usize> {
    let (x, y, z) = (&parts.x, &parts.y, &parts.z);
    par::par_map(parts.n_local, |i| {
        let mut n = 0usize;
        nb.for_neighbors_of(i, kernel.support(parts.h[i]), x, y, z, bbox, |j, _| {
            if j != i {
                n += 1;
            }
        });
        n
    })
}

/// Density summation + grad-h factor — the reference for
/// [`crate::density::density_gradh`].
pub fn density_gradh<N: NeighborSearch + Sync>(
    parts: &mut Particles,
    nb: &N,
    bbox: &Box3,
    kernel: Kernel,
) {
    let p = &*parts;
    let sums: Vec<(f64, f64)> = par::par_map(p.n_local, |i| {
        let hi = p.h[i];
        let radius = kernel.support(hi);
        let mut rho_i = 0.0;
        let mut dh_i = 0.0;
        nb.for_neighbors_of(i, radius, &p.x, &p.y, &p.z, bbox, |j, d2| {
            let (w, dw_dh) = kernel.w_and_dw_dh(d2.sqrt(), hi);
            rho_i += p.m[j] * w;
            dh_i += p.m[j] * dw_dh;
        });
        (rho_i, dh_i)
    });
    store_density(parts, sums);
}

/// IAD tensors, velocity divergence and curl — the reference for
/// [`crate::iad::iad_divv_curlv`] over every owned row. Walks the neighbor
/// source twice at the same radius (moment tensor, then the velocity
/// gradient through its inverse).
pub fn iad_divv_curlv<N: NeighborSearch + Sync>(
    parts: &mut Particles,
    nb: &N,
    bbox: &Box3,
    kernel: Kernel,
) {
    let p = &*parts;
    let per_particle: Vec<([f64; 6], f64, [f64; 3])> = par::par_map(p.n_local, |i| {
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
    store_iad(parts, None, per_particle);
}

/// Momentum and energy rates — the reference for
/// [`crate::momentum::momentum_energy`].
pub fn momentum_energy<N: NeighborSearch + Sync>(
    parts: &mut Particles,
    nb: &N,
    bbox: &Box3,
    kernel: Kernel,
) {
    let p = &*parts;
    let rates: Vec<(f64, f64, f64, f64)> = par::par_map(p.n_local, |i| {
        let (x, y, z) = (&p.x, &p.y, &p.z);
        let hi = p.h[i];
        let rho_i = p.rho[i].max(1e-300);
        let pi_term = p.p[i] / (p.gradh[i] * rho_i * rho_i);
        // Search must cover the larger support of interacting pairs; h is
        // smooth so 1.4x covers neighbor h differences.
        let radius = kernel.support(hi) * 1.4;
        let (mut axi, mut ayi, mut azi, mut dui) = (0.0, 0.0, 0.0, 0.0);

        nb.for_neighbors_of(i, radius, x, y, z, bbox, |j, d2| {
            if j == i || d2 == 0.0 {
                return;
            }
            let r = d2.sqrt();
            let hj = p.h[j];
            // Pair interacts if within either particle's support.
            if r >= kernel.support(hi) && r >= kernel.support(hj) {
                return;
            }
            let (dx, dy, dz) = bbox.delta(x[i], y[i], z[i], x[j], y[j], z[j]);
            let dwi = kernel.dw_dr(r, hi) / r;
            let dwj = kernel.dw_dr(r, hj) / r;
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

            let dvx = p.vx[i] - p.vx[j];
            let dvy = p.vy[i] - p.vy[j];
            let dvz = p.vz[i] - p.vz[j];
            let vdotr = dvx * dx + dvy * dy + dvz * dz;

            let alpha_ij = 0.5 * (p.alpha[i] + p.alpha[j]);
            let h_ij = 0.5 * (hi + hj);
            let c_ij = 0.5 * (p.c[i] + p.c[j]);
            let rho_ij = 0.5 * (rho_i + rho_j);
            let visc = viscosity_pi(alpha_ij, h_ij, c_ij, rho_ij, vdotr, d2);

            let mj = p.m[j];
            let grad_scale = pi_term * dwi + pj_term * dwj + visc * dw_avg;
            axi -= mj * grad_scale * dx;
            ayi -= mj * grad_scale * dy;
            azi -= mj * grad_scale * dz;
            dui += mj * (pi_term * dwi + 0.5 * visc * dw_avg) * vdotr;
        });

        (axi, ayi, azi, dui)
    });
    store_rates(parts, rates);
}
