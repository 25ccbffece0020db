//! A second mini-app: a collisionless N-body (gravity-only) code.
//!
//! The paper's future-work list (§V) proposes applying the instrumentation
//! and dynamic-frequency method "to other simulation codes that use GPU
//! acceleration". This module is that other code: a Barnes-Hut N-body
//! integrator that reuses the same [`StepObserver`] hooks, so the energy
//! instrumentation and every frequency policy attach to it unchanged.

use cornerstone::{Assignment, Box3, Octree};
use ranks::{Op, RankCtx};
use rng::Rng;

use crate::conservation::EnergyBudget;
use crate::funcs::{FuncId, WorkloadProfile};
use crate::gravity::self_gravity;
use crate::ic::InitialConditions;
use crate::particles::Particles;
use crate::sim::{Instrumented, StepObserver, StepStats};

/// Plummer-sphere initial conditions (standard collisionless test model):
/// density `rho ~ (1 + r²/a²)^(-5/2)`, isotropic velocities drawn from the
/// local distribution function (Aarseth-Hénon-Wielen sampling). Total mass
/// 1, scale radius `a`, G = 1.
pub fn plummer(n: usize, a: f64, seed: u64) -> InitialConditions {
    assert!(n >= 2);
    assert!(a > 0.0);
    let mut rng = Rng::seed_from_u64(seed);
    let mut parts = Particles::new();
    let m = 1.0 / n as f64;
    // The box exists only for SFC keys; make it generously large and open.
    let bbox = Box3::cube(-20.0 * a, 20.0 * a, false);
    for _ in 0..n {
        // Radius from the inverse cumulative mass profile (truncated so no
        // particle starts outside the key box).
        let r = loop {
            let u: f64 = rng.f64(1e-8..1.0);
            let r = a / (u.powf(-2.0 / 3.0) - 1.0).sqrt();
            if r < 15.0 * a {
                break r;
            }
        };
        let (x, y, z) = isotropic(&mut rng, r);
        // Velocity magnitude by rejection from q² (1-q²)^(7/2), scaled by the
        // local escape velocity v_e = sqrt(2) (1 + r²/a²)^(-1/4).
        let q = loop {
            let q: f64 = rng.unit();
            let g: f64 = rng.f64(0.0..0.1);
            if g < q * q * (1.0 - q * q).powf(3.5) {
                break q;
            }
        };
        let ve = std::f64::consts::SQRT_2 * (1.0 + (r / a).powi(2)).powf(-0.25);
        let (vx, vy, vz) = isotropic(&mut rng, q * ve);
        // h is unused by the gravity-only code; keep a sane value for the
        // shared particle container.
        parts.push(x, y, z, vx, vy, vz, m, 0.1 * a, 1e-10);
    }
    InitialConditions {
        parts,
        bbox,
        eos: crate::eos::Eos::ideal_monatomic(),
        gravity: true,
        name: "Plummer",
    }
}

fn isotropic(rng: &mut Rng, magnitude: f64) -> (f64, f64, f64) {
    let z: f64 = rng.f64(-1.0..1.0);
    let phi: f64 = rng.f64(0.0..std::f64::consts::TAU);
    let s = (1.0 - z * z).sqrt();
    (
        magnitude * s * phi.cos(),
        magnitude * s * phi.sin(),
        magnitude * z,
    )
}

/// The instrumented functions the N-body loop calls, in order.
pub const NBODY_FUNCS: [FuncId; 5] = [
    FuncId::DomainDecompAndSync,
    FuncId::Gravity,
    FuncId::Timestep,
    FuncId::UpdateQuantities,
    FuncId::EnergyConservation,
];

/// One rank's share of the N-body simulation.
pub struct NBody {
    pub parts: Particles,
    pub bbox: Box3,
    /// Barnes-Hut opening angle.
    pub theta: f64,
    /// Plummer softening length.
    pub eps: f64,
    /// Paper-scale particles per GPU for the workload model.
    pub target_particles_per_rank: f64,
    dt: f64,
    time: f64,
    step_index: u64,
    potential: f64,
}

impl NBody {
    pub fn new(ic: InitialConditions, target_particles_per_rank: f64) -> Self {
        NBody {
            parts: ic.parts,
            bbox: ic.bbox,
            theta: 0.6,
            eps: 0.02,
            target_particles_per_rank,
            dt: 0.0,
            time: 0.0,
            step_index: 0,
            potential: 0.0,
        }
    }

    /// Split a global model among ranks by SFC order.
    pub fn distribute(ic: InitialConditions, target: f64, rank: usize, size: usize) -> Self {
        let mut keys: Vec<(u64, usize)> = (0..ic.parts.len())
            .map(|i| {
                (
                    cornerstone::key_of(ic.parts.x[i], ic.parts.y[i], ic.parts.z[i], &ic.bbox),
                    i,
                )
            })
            .collect();
        keys.sort_unstable();
        let n = keys.len();
        let indices: Vec<usize> = keys[n * rank / size..n * (rank + 1) / size]
            .iter()
            .map(|&(_, i)| i)
            .collect();
        let mut nb = NBody::new(
            InitialConditions {
                parts: ic.parts.extract(&indices),
                bbox: ic.bbox,
                eos: ic.eos,
                gravity: true,
                name: ic.name,
            },
            target,
        );
        nb.step_index = 0;
        nb
    }

    pub fn time(&self) -> f64 {
        self.time
    }

    /// One leapfrog-style step through the instrumented function sequence.
    pub fn step(&mut self, ctx: &mut RankCtx, obs: &mut dyn StepObserver) -> StepStats {
        let mut funcs = Instrumented {
            obs,
            profile: WorkloadProfile::Reference,
            target: self.target_particles_per_rank,
            step: self.step_index,
        };

        // SFC sort + migration (no halos — gravity is globally coupled and
        // handled by the gathered tree).
        funcs.run(FuncId::DomainDecompAndSync, ctx, |ctx| {
            self.domain_sync(ctx)
        });

        funcs.run(FuncId::Gravity, ctx, |ctx| self.apply_gravity(ctx));

        let dt = funcs.run(FuncId::Timestep, ctx, |ctx| {
            let mut dt_local = f64::INFINITY;
            for i in 0..self.parts.n_local {
                let a2 =
                    self.parts.ax[i].powi(2) + self.parts.ay[i].powi(2) + self.parts.az[i].powi(2);
                if a2 > 0.0 {
                    dt_local = dt_local.min(0.2 * (self.eps / a2.sqrt().max(1e-12)).sqrt());
                }
            }
            if !dt_local.is_finite() {
                dt_local = 1e-3;
            }
            if self.dt > 0.0 {
                dt_local = dt_local.min(self.dt * 1.2);
            }
            let dt = ctx.allreduce_f64(dt_local, Op::Min);
            self.dt = dt;
            self.time += dt;
            dt
        });

        funcs.run(FuncId::UpdateQuantities, ctx, |_| {
            for i in 0..self.parts.n_local {
                self.parts.vx[i] += self.parts.ax[i] * dt;
                self.parts.vy[i] += self.parts.ay[i] * dt;
                self.parts.vz[i] += self.parts.az[i] * dt;
                self.parts.x[i] += self.parts.vx[i] * dt;
                self.parts.y[i] += self.parts.vy[i] * dt;
                self.parts.z[i] += self.parts.vz[i] * dt;
            }
        });

        let budget = funcs.run(FuncId::EnergyConservation, ctx, |ctx| {
            let local = crate::conservation::local_budget(&self.parts, self.potential);
            let gathered = ctx.allgather_f64s(&local.to_slice());
            gathered
                .iter()
                .map(|v| EnergyBudget::from_slice(v))
                .fold(EnergyBudget::default(), |acc, b| acc.merged(&b))
        });

        self.step_index += 1;
        StepStats {
            step: self.step_index,
            dt,
            time: self.time,
            budget,
            n_local: self.parts.n_local,
            n_halo: 0,
            migrated: 0,
            repartitioned: false,
            skew: 1.0,
        }
    }

    fn domain_sync(&mut self, ctx: &mut RankCtx) {
        // Sort by key locally.
        let mut keyed: Vec<(u64, usize)> = (0..self.parts.n_local)
            .map(|i| {
                (
                    cornerstone::key_of(
                        self.parts.x[i],
                        self.parts.y[i],
                        self.parts.z[i],
                        &self.bbox,
                    ),
                    i,
                )
            })
            .collect();
        keyed.sort_unstable();
        let perm: Vec<usize> = keyed.iter().map(|&(_, i)| i).collect();
        self.parts.permute_owned(&perm);
        if ctx.size() == 1 {
            return;
        }
        let keys: Vec<u64> = keyed.into_iter().map(|(k, _)| k).collect();
        let key_bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        let gathered = ctx.allgather_bytes(key_bytes);
        let mut global: Vec<u64> = gathered
            .iter()
            .flat_map(|b| {
                b.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("u64")))
            })
            .collect();
        global.sort_unstable();
        let assignment = Assignment::from_octree(&Octree::build(&global, 64), ctx.size());

        let me = ctx.rank();
        let mut outgoing_idx: Vec<Vec<usize>> = vec![Vec::new(); ctx.size()];
        let mut keep = vec![true; self.parts.n_local];
        for (i, &k) in keys.iter().enumerate() {
            let owner = assignment.rank_of_key(k);
            if owner != me {
                outgoing_idx[owner].push(i);
                keep[i] = false;
            }
        }
        let outgoing: Vec<(usize, Vec<u8>)> = (0..ctx.size())
            .filter(|&p| p != me)
            .map(|p| {
                let packed = self.parts.pack_halo(&outgoing_idx[p]);
                (p, packed.iter().flat_map(|f| f.to_le_bytes()).collect())
            })
            .collect();
        let incoming = ctx.exchange(outgoing);
        self.parts.retain_owned(&keep);
        for (_, data) in incoming {
            let vals: Vec<f64> = data
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("f64")))
                .collect();
            self.parts.unpack_halo(&vals);
        }
        self.parts.n_local = self.parts.len();
    }

    fn apply_gravity(&mut self, ctx: &mut RankCtx) {
        let walks = self_gravity(ctx, &self.parts, self.theta, self.eps);
        // The potential fold stays serial in index order so the sum is
        // thread-count invariant.
        let mut potential = 0.0;
        for (i, (a, phi)) in walks.into_iter().enumerate() {
            self.parts.ax[i] = a[0];
            self.parts.ay[i] = a[1];
            self.parts.az[i] = a[2];
            potential += 0.5 * self.parts.m[i] * phi;
        }
        self.potential = potential;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NullObserver;
    use ranks::CommCost;

    #[test]
    fn plummer_model_is_bound_and_near_virial() {
        let ic = plummer(600, 1.0, 4);
        assert_eq!(ic.parts.len(), 600);
        assert!((ic.parts.total_mass() - 1.0).abs() < 1e-9);
        // Run one step to get the potential; check 2T/|W| ~ 1 (virial).
        let stats = ranks::run(1, CommCost::default(), |ctx| {
            let ic = plummer(600, 1.0, 4);
            let mut nb = NBody::new(ic, 1e8);
            nb.step(ctx, &mut NullObserver)
        })
        .remove(0);
        assert!(stats.budget.potential < 0.0, "bound system");
        let virial = 2.0 * stats.budget.kinetic / stats.budget.potential.abs();
        assert!(
            (0.6..1.4).contains(&virial),
            "virial ratio {virial} far from equilibrium"
        );
        // Total energy is negative for a bound system.
        assert!(stats.budget.kinetic + stats.budget.potential < 0.0);
    }

    #[test]
    fn energy_and_momentum_conserved_over_steps() {
        let out = ranks::run(1, CommCost::default(), |ctx| {
            let ic = plummer(400, 1.0, 9);
            let mut nb = NBody::new(ic, 1e8);
            let mut stats = Vec::new();
            for _ in 0..10 {
                stats.push(nb.step(ctx, &mut NullObserver));
            }
            stats
        })
        .remove(0);
        let first = out.first().expect("steps ran").budget;
        let last = out.last().expect("steps ran").budget;
        let e0 = first.kinetic + first.potential;
        let e1 = last.kinetic + last.potential;
        let drift = (e1 - e0).abs() / e0.abs();
        assert!(drift < 0.05, "energy drift {drift}");
        assert!(
            last.px.abs() < 0.05 && last.py.abs() < 0.05 && last.pz.abs() < 0.05,
            "momentum drift: ({}, {}, {})",
            last.px,
            last.py,
            last.pz
        );
    }

    #[test]
    fn multirank_matches_single_rank_totals() {
        let single = ranks::run(1, CommCost::default(), |ctx| {
            let mut nb = NBody::new(plummer(512, 1.0, 7), 1e8);
            let mut s = None;
            for _ in 0..3 {
                s = Some(nb.step(ctx, &mut NullObserver));
            }
            s.expect("steps ran")
        })[0];
        let multi = ranks::run(4, CommCost::default(), |ctx| {
            let mut nb = NBody::distribute(plummer(512, 1.0, 7), 1e8, ctx.rank(), ctx.size());
            let mut s = None;
            for _ in 0..3 {
                s = Some(nb.step(ctx, &mut NullObserver));
            }
            s.expect("steps ran")
        })[0];
        let total: f64 = multi.budget.kinetic;
        assert!(
            (total - single.budget.kinetic).abs() / single.budget.kinetic < 1e-6,
            "kinetic: {total} vs {}",
            single.budget.kinetic
        );
        assert!(
            (multi.budget.potential - single.budget.potential).abs()
                / single.budget.potential.abs()
                < 1e-6
        );
        assert_eq!(multi.dt, single.dt);
    }

    #[test]
    fn observer_sees_the_nbody_function_subset() {
        struct Rec(Vec<FuncId>);
        impl StepObserver for Rec {
            fn before(&mut self, f: FuncId, _ctx: &mut RankCtx) {
                self.0.push(f);
            }
            fn after(
                &mut self,
                _f: FuncId,
                _w: &archsim::KernelWorkload,
                _h: archsim::SimDuration,
                _ctx: &mut RankCtx,
            ) {
            }
        }
        let funcs = ranks::run(1, CommCost::default(), |ctx| {
            let mut nb = NBody::new(plummer(100, 1.0, 1), 1e8);
            let mut rec = Rec(Vec::new());
            nb.step(ctx, &mut rec);
            rec.0
        })
        .remove(0);
        assert_eq!(funcs, NBODY_FUNCS.to_vec());
    }
}
