//! The time-stepping propagator with instrumentation hooks.
//!
//! `Simulation::step` runs the full SPH-EXA function sequence
//! (`DomainDecompAndSync` → … → `EnergyConservation`), calling a
//! [`StepObserver`] around every function. The observer is where the paper's
//! contribution lives: energy measurement (`PMT` regions) and dynamic GPU
//! frequency selection (`ManDyn`) both attach there, exactly like SPH-EXA's
//! low-overhead profiling hooks (§III-B).

use archsim::{KernelWorkload, SimDuration};
use cornerstone::{
    halo_candidates, load_skew, Aabb, Assignment, Box3, CellList, NeighborList, Octree,
};
use ranks::{Op, RankCtx};
use serde::{Deserialize, Serialize};

use crate::av::av_switches;
use crate::conservation::{local_budget, EnergyBudget};
use crate::density::{density_gradh, neighbor_counts, xmass};
use crate::eos::Eos;
use crate::funcs::{FuncId, WorkloadProfile};
use crate::gravity::self_gravity;
use crate::iad::iad_divv_curlv;
use crate::ic::InitialConditions;
use crate::kernels::Kernel;
use crate::momentum::momentum_energy;
use crate::particles::Particles;
use crate::timestep::local_timestep;
use crate::update::{update_quantities, update_smoothing_lengths};

/// Hooks wrapped around every instrumented function.
pub trait StepObserver {
    /// Called immediately before the function's physics; ManDyn performs its
    /// `nvmlDeviceSetApplicationsClocks` call here (§III-D).
    fn before(&mut self, func: FuncId, ctx: &mut RankCtx);

    /// Called after the physics with the paper-scale GPU workload descriptor
    /// and the host-side gap preceding the kernels. Implementations advance
    /// device and rank virtual time and record energy.
    fn after(
        &mut self,
        func: FuncId,
        workload: &KernelWorkload,
        host_pre: SimDuration,
        ctx: &mut RankCtx,
    );
}

/// The protocol wrapped around every instrumented function, in one place:
/// open the function's telemetry span (stamped with the step and the rank's
/// virtual clock at entry; inert and allocation-free outside a recording
/// session), `before`, the physics, `after` with the function's paper-scale
/// workload and host gap, then stamp the exit clock — after the observer
/// advanced virtual time — and record the span. Both step loops
/// ([`Simulation::step`], `NBody::step`) run every function through
/// [`Instrumented::run`].
pub(crate) struct Instrumented<'a> {
    pub obs: &'a mut dyn StepObserver,
    /// Scenario kernel mix applied to each function's workload.
    pub profile: WorkloadProfile,
    /// Paper-scale particles per rank the workload model assumes.
    pub target: f64,
    pub step: u64,
}

impl Instrumented<'_> {
    pub fn run<R>(
        &mut self,
        func: FuncId,
        ctx: &mut RankCtx,
        body: impl FnOnce(&mut RankCtx) -> R,
    ) -> R {
        let mut sp = telemetry::span_start("sph", func.name());
        if sp.is_active() {
            sp.field("step", self.step);
            sp.sim_start(ctx.now().as_nanos());
        }
        self.obs.before(func, ctx);
        let out = body(ctx);
        self.obs.after(
            func,
            &self.profile.workload(func, self.target),
            func.host_overhead(ctx.size()),
            ctx,
        );
        sp.sim_end(ctx.now().as_nanos());
        out
    }
}

/// Observer that does nothing (pure-physics runs and tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl StepObserver for NullObserver {
    fn before(&mut self, _func: FuncId, _ctx: &mut RankCtx) {}
    fn after(&mut self, _f: FuncId, _w: &KernelWorkload, _h: SimDuration, _ctx: &mut RankCtx) {}
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    pub kernel: Kernel,
    /// Particles per rank assumed by the *paper-scale* workload model
    /// (150 M for turbulence, 80 M for Evrard, 450³ on miniHPC).
    pub target_particles_per_rank: f64,
    /// Target neighbor count for the smoothing-length iteration at the
    /// laptop (physics) scale.
    pub target_neighbors: usize,
    /// Octree leaf bucket size.
    pub bucket_size: usize,
    /// Load-skew threshold (max/mean owned-particle count) above which
    /// `DomainDecompAndSync` recomputes the SFC splits from a fresh global
    /// octree. Below it the retained splits are reused: only the one-word
    /// census and the (usually tiny) migration run, skipping the full
    /// global key gather + octree rebuild that used to happen every step.
    #[serde(default = "default_repart_skew_threshold")]
    pub repart_skew_threshold: f64,
    /// Overlap deferred halo-field communication with interior compute:
    /// `DomainDecompAndSync` sends halo kinematics immediately but leaves
    /// the derived-field payload in flight; density and the interior IAD
    /// rows run first, and the deferred payload is drained only before the
    /// boundary rows. Results are bit-identical with it on or off.
    #[serde(default = "default_halo_overlap")]
    pub halo_overlap: bool,
}

fn default_repart_skew_threshold() -> f64 {
    1.15
}

fn default_halo_overlap() -> bool {
    true
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            kernel: Kernel::CubicSpline,
            target_particles_per_rank: 150e6,
            target_neighbors: 60,
            bucket_size: 64,
            repart_skew_threshold: default_repart_skew_threshold(),
            halo_overlap: default_halo_overlap(),
        }
    }
}

/// Result of one time-step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepStats {
    pub step: u64,
    pub dt: f64,
    pub time: f64,
    /// Globally-reduced conserved quantities.
    pub budget: EnergyBudget,
    pub n_local: usize,
    pub n_halo: usize,
    /// Particles that changed owner this step, summed over all ranks.
    #[serde(default)]
    pub migrated: u64,
    /// Whether this step recomputed the SFC splits (vs reusing them).
    #[serde(default)]
    pub repartitioned: bool,
    /// Owned-count load skew (max/mean) seen by this step's census.
    #[serde(default)]
    pub skew: f64,
}

/// The step's maximum interaction radius for a largest smoothing length
/// `h_max`: the cell size of the neighbour grid and the halo import radius.
/// The 1.4 is headroom over the kernel support — momentum's own pair search
/// reaches `1.4 · support(h_i)` — and, being the cell size, it fixes the
/// grid's visit order and the halo set, and with them every sweep's bits.
pub fn interaction_radius(kernel: Kernel, h_max: f64) -> f64 {
    kernel.support(h_max) * 1.4
}

/// Fill `radii` with the per-particle radii the step's neighbour list is
/// built at (`NeighborList::build_adaptive_into`): the kernel support of
/// each particle's own `h`. Pair `(i, j)` is then stored iff it lies within
/// `max(support(h_i), support(h_j))` — every pair a sweep consumes and no
/// other: the count, density and IAD cut at `support(h_i)`, and momentum
/// keeps a pair only when `r < support(h_i)` or `r < support(h_j)`. (The
/// sweeps compare `d² <= fl(s·s)` or `fl(sqrt(d²)) < s`; the second implies
/// the first because `sqrt` is correctly rounded and monotone, so the rows
/// are a superset down to the last bit.)
///
/// The one definition of the list rule: [`Simulation::step`], the
/// `blocked_equivalence` oracle and the neighbour benches all call it.
pub fn list_radii_into(kernel: Kernel, h: &[f64], radii: &mut Vec<f64>) {
    radii.clear();
    radii.extend(h.iter().map(|&h| kernel.support(h)));
}

/// One rank's share of the simulation.
pub struct Simulation {
    pub cfg: SimConfig,
    pub parts: Particles,
    pub bbox: Box3,
    pub eos: Eos,
    pub gravity: bool,
    pub name: &'static str,
    /// Scenario kernel mix applied to every reported GPU workload, derived
    /// from the IC name (identity for the Table I workloads).
    pub profile: WorkloadProfile,
    /// Step-shared CSR neighbor candidates, rebuilt in place every step
    /// (`build_adaptive_into` keeps the allocations across steps).
    nlist: NeighborList,
    /// Per-particle list radii (`support(h)`, see [`list_radii_into`]) for
    /// the h-aware list build, refilled every step; kept here to reuse the
    /// allocation.
    nlist_radii: Vec<f64>,
    nn: Vec<usize>,
    dt: f64,
    time: f64,
    step_index: u64,
    potential: f64,
    /// Largest smoothing length over owned + halo particles, computed once
    /// per step by `DomainDecompAndSync` and reused by `build_grid` (the
    /// full-array fold used to be repeated every grid build).
    h_max_all: f64,
    /// SFC splits retained across steps. `None` until the first step (or
    /// after a rank-count change) forces a full rebuild.
    assignment: Option<Assignment>,
    /// One-shot flag: the next `DomainDecompAndSync` rebuilds the splits
    /// regardless of skew (checkpoint restore without saved splits, tests).
    force_repart: bool,
    /// Deferred stage-B halo receives for the overlap schedule:
    /// `(peer, halo range start, halo count)` in receive order.
    pending_fields: Vec<(usize, usize, usize)>,
    /// Owned rows whose CSR neighbor rows contain no halo index — safe to
    /// sweep before the deferred halo fields arrive.
    interior_rows: Vec<usize>,
    /// Owned rows with at least one halo neighbor; swept after the drain.
    boundary_rows: Vec<usize>,
    last_migrated: u64,
    last_repartitioned: bool,
    last_skew: f64,
}

impl Simulation {
    fn assemble(
        parts: Particles,
        bbox: Box3,
        eos: Eos,
        gravity: bool,
        name: &'static str,
        cfg: SimConfig,
    ) -> Self {
        Simulation {
            cfg,
            parts,
            bbox,
            eos,
            gravity,
            name,
            profile: WorkloadProfile::for_scenario(name),
            nlist: NeighborList::new(),
            nlist_radii: Vec::new(),
            nn: Vec::new(),
            dt: 0.0,
            time: 0.0,
            step_index: 0,
            potential: 0.0,
            h_max_all: 1e-6,
            assignment: None,
            force_repart: false,
            pending_fields: Vec::new(),
            interior_rows: Vec::new(),
            boundary_rows: Vec::new(),
            last_migrated: 0,
            last_repartitioned: false,
            last_skew: 1.0,
        }
    }

    /// Single-rank simulation over a full initial model.
    pub fn new(ic: InitialConditions, cfg: SimConfig) -> Self {
        Self::assemble(ic.parts, ic.bbox, ic.eos, ic.gravity, ic.name, cfg)
    }

    /// Split a global initial model among ranks by SFC order — the initial
    /// decomposition every rank computes identically.
    pub fn distribute(ic: InitialConditions, cfg: SimConfig, rank: usize, size: usize) -> Self {
        Self::distribute_ref(&ic, cfg, rank, size)
    }

    /// Like [`Simulation::distribute`], but borrows the initial model — the
    /// scaling benches build one 10⁶-particle model and carve every rank's
    /// share from it without cloning the whole IC per rank.
    pub fn distribute_ref(
        ic: &InitialConditions,
        cfg: SimConfig,
        rank: usize,
        size: usize,
    ) -> Self {
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
        let lo = n * rank / size;
        let hi = n * (rank + 1) / size;
        let indices: Vec<usize> = keys[lo..hi].iter().map(|&(_, i)| i).collect();
        let parts = ic.parts.extract(&indices);
        Self::assemble(parts, ic.bbox, ic.eos, ic.gravity, ic.name, cfg)
    }

    pub fn time(&self) -> f64 {
        self.time
    }

    pub fn dt(&self) -> f64 {
        self.dt
    }

    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// Force a full SFC repartition at the next `DomainDecompAndSync`,
    /// regardless of the measured load skew.
    pub fn force_repartition(&mut self) {
        self.force_repart = true;
    }

    /// The SFC splits currently in force, if a partition has been computed.
    pub fn assignment_splits(&self) -> Option<&[u64]> {
        self.assignment.as_ref().map(|a| a.splits())
    }

    /// Adopt previously-saved SFC splits (checkpoint restore: resuming with
    /// the interrupted run's partition makes migration and halo traffic —
    /// and therefore the trajectory — replay bit-identically).
    pub fn set_assignment_splits(&mut self, splits: Vec<u64>) {
        self.assignment = Some(Assignment::from_splits(splits));
    }

    /// Serialize this rank's owned carried state as a versioned snapshot
    /// (see [`crate::snapshot`]). Halo copies are not persisted.
    pub fn capture_snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode_particles(&self.parts)
    }

    /// Replace particle state and integrator clocks from a decoded
    /// snapshot. The next step re-derives everything else (neighbor lists,
    /// halos, rates) exactly as an uninterrupted run would.
    pub fn restore_snapshot(&mut self, parts: Particles, step: u64, time_bits: u64, dt_bits: u64) {
        self.parts = parts;
        self.step_index = step;
        self.time = f64::from_bits(time_bits);
        self.dt = f64::from_bits(dt_bits);
        self.nn.clear();
        self.pending_fields.clear();
        self.h_max_all = 1e-6;
    }

    /// Order-sensitive digest of the carried state (pack-blob bits plus the
    /// integrator clocks). Equal digests on every rank of two runs mean the
    /// runs continue bit-identically.
    pub fn state_digest(&self) -> u64 {
        let mut bytes = crate::snapshot::encode_particles(&self.parts);
        bytes.extend_from_slice(&self.step_index.to_le_bytes());
        bytes.extend_from_slice(&self.time.to_bits().to_le_bytes());
        bytes.extend_from_slice(&self.dt.to_bits().to_le_bytes());
        crate::snapshot::fnv1a(&bytes)
    }

    /// The functions this workload actually calls (Evrard includes Gravity).
    pub fn active_funcs(&self) -> Vec<FuncId> {
        FuncId::ALL
            .into_iter()
            .filter(|f| *f != FuncId::Gravity || self.gravity)
            .collect()
    }

    /// Run one full time-step.
    pub fn step(&mut self, ctx: &mut RankCtx, obs: &mut dyn StepObserver) -> StepStats {
        let kernel = self.cfg.kernel;
        let mut funcs = Instrumented {
            obs,
            profile: self.profile,
            target: self.cfg.target_particles_per_rank,
            step: self.step_index,
        };

        let mut step_sp = telemetry::span_start("sph", "step");
        if step_sp.is_active() {
            step_sp.field("step", self.step_index);
            step_sp.field("n_local", self.parts.n_local);
            step_sp.sim_start(ctx.now().as_nanos());
        }

        funcs.run(FuncId::DomainDecompAndSync, ctx, |ctx| {
            self.domain_decomp_and_sync(ctx)
        });

        funcs.run(FuncId::FindNeighbors, ctx, |_| {
            let grid = self.build_grid();
            // One h-aware traversal: pair (i, j) is stored when within either
            // particle's kernel support — exactly the pairs some sweep below
            // consumes, so every row is complete for its sweeps' own radii
            // and carries no padding (the grid's cells stay `interaction_radius`
            // wide: they fix the visit order, hence the bits).
            let t0 = telemetry::active().then(std::time::Instant::now);
            list_radii_into(kernel, &self.parts.h, &mut self.nlist_radii);
            self.nlist.build_adaptive_into(
                &grid,
                &self.parts.x,
                &self.parts.y,
                &self.parts.z,
                self.parts.n_local,
                &self.nlist_radii,
            );
            // The scan counted each row's own-radius neighbours on the way.
            self.nn = neighbor_counts(&self.parts, &self.nlist, kernel);
            if let Some(t0) = t0 {
                let (bytes, pairs) = (self.nlist.csr_bytes(), self.nlist.pair_count());
                telemetry::gauge_set("neighbors/avg", self.nlist.avg_neighbors());
                telemetry::gauge_set("neighbors/max", self.nlist.max_neighbors() as f64);
                telemetry::gauge_set("neighbors/csr_bytes", bytes as f64);
                telemetry::gauge_set("neighbors/build_ms", t0.elapsed().as_secs_f64() * 1e3);
                // `neighbors/avg` is what a row stores; `nn_avg` is the count
                // `update_smoothing_lengths` steers `h` by, to be read against
                // `target_neighbors`.
                let nn_avg = self.nn.iter().sum::<usize>() as f64 / self.nn.len().max(1) as f64;
                telemetry::gauge_set("neighbors/nn_avg", nn_avg);
                let per_pair = bytes as f64 / pairs.max(1) as f64;
                telemetry::gauge_set("neighbors/bytes_per_pair", per_pair);
            }
            // Overlap schedule: split owned rows by whether their CSR row
            // references any halo index (halos sit past n_local). Interior
            // rows never read deferred halo fields, so they can sweep before
            // the stage-B payload is drained. The per-row flag reads every
            // stored index, so it is computed by all workers; the pushes stay
            // serial and in index order.
            self.interior_rows.clear();
            self.boundary_rows.clear();
            if !self.pending_fields.is_empty() {
                let n_local = self.parts.n_local;
                let nlist = &self.nlist;
                let has_halo = par::par_map(n_local, |i| {
                    nlist.row(i).iter().any(|&j| j as usize >= n_local)
                });
                for (i, boundary) in has_halo.into_iter().enumerate() {
                    if boundary {
                        self.boundary_rows.push(i);
                    } else {
                        self.interior_rows.push(i);
                    }
                }
            }
        });

        funcs.run(FuncId::XMass, ctx, |_| xmass(&mut self.parts));

        // Density + grad-h.
        funcs.run(FuncId::NormalizationGradh, ctx, |_| {
            density_gradh(&mut self.parts, &self.nlist, kernel)
        });

        funcs.run(FuncId::EquationOfState, ctx, |_| {
            if self.pending_fields.is_empty() {
                self.eos.apply(&mut self.parts);
            } else {
                // Halo rho/u are still in flight; their p/c are computed with
                // the same per-particle math when the deferred payload lands.
                let (eos, n_local) = (self.eos, self.parts.n_local);
                eos.apply_range(&mut self.parts, 0, n_local);
            }
        });

        funcs.run(FuncId::IADVelocityDivCurl, ctx, |ctx| {
            if self.pending_fields.is_empty() {
                iad_divv_curlv(&mut self.parts, &self.nlist, kernel, None);
            } else {
                // Overlap: interior rows read only owned neighbors, so they
                // sweep while the stage-B halo payload is still in flight; the
                // drain fills halo fields, then the boundary rows run. Rows
                // scatter only to themselves and the two subsets are disjoint,
                // so the split is bit-identical to the full sweep.
                let interior = Some(self.interior_rows.as_slice());
                iad_divv_curlv(&mut self.parts, &self.nlist, kernel, interior);
                self.drain_halo_fields(ctx);
                let boundary = Some(self.boundary_rows.as_slice());
                iad_divv_curlv(&mut self.parts, &self.nlist, kernel, boundary);
            }
        });

        funcs.run(FuncId::AVSwitches, ctx, |_| {
            av_switches(&mut self.parts, self.dt)
        });

        funcs.run(FuncId::MomentumEnergy, ctx, |_| {
            momentum_energy(&mut self.parts, &self.nlist, kernel)
        });

        // Numerical-health check (debug builds): no instrumented function may
        // leave non-finite state behind.
        #[cfg(debug_assertions)]
        {
            let nan = |v: &[f64]| v.iter().filter(|x| !x.is_finite()).count();
            let p = &self.parts;
            for (field, count) in [
                ("rho", nan(&p.rho)),
                ("gradh", nan(&p.gradh)),
                ("p", nan(&p.p)),
                ("divv", nan(&p.divv)),
                ("alpha", nan(&p.alpha)),
                ("ax", nan(&p.ax)),
                ("du", nan(&p.du)),
            ] {
                debug_assert_eq!(
                    count,
                    0,
                    "rank {} step {}: {count} non-finite {field} values",
                    ctx.rank(),
                    self.step_index
                );
            }
        }

        // Evrard only.
        if self.gravity {
            funcs.run(FuncId::Gravity, ctx, |ctx| self.apply_gravity(ctx));
        } else {
            self.potential = 0.0;
        }

        // Global min reduction.
        let dt = funcs.run(FuncId::Timestep, ctx, |ctx| {
            let dt_local = local_timestep(&self.parts, self.dt);
            let dt = ctx.allreduce_f64(dt_local, Op::Min);
            self.dt = dt;
            self.time += dt;
            dt
        });

        funcs.run(FuncId::UpdateQuantities, ctx, |_| {
            update_quantities(&mut self.parts, dt, &self.bbox);
            update_smoothing_lengths(&mut self.parts, &self.nn, self.cfg.target_neighbors);
        });

        let budget = funcs.run(FuncId::EnergyConservation, ctx, |ctx| {
            let local = local_budget(&self.parts, self.potential);
            let gathered = ctx.allgather_f64s(&local.to_slice());
            gathered
                .iter()
                .map(|v| EnergyBudget::from_slice(v))
                .fold(EnergyBudget::default(), |acc, b| acc.merged(&b))
        });

        step_sp.sim_end(ctx.now().as_nanos());
        drop(step_sp);

        self.step_index += 1;
        StepStats {
            step: self.step_index,
            dt,
            time: self.time,
            budget,
            n_local: self.parts.n_local,
            n_halo: self.parts.len() - self.parts.n_local,
            migrated: self.last_migrated,
            repartitioned: self.last_repartitioned,
            skew: self.last_skew,
        }
    }

    fn build_grid(&self) -> CellList {
        // `h_max_all` is maintained by `domain_decomp_and_sync`, which runs
        // at the start of every step before the grid is (re)built.
        CellList::build(
            &self.parts.x,
            &self.parts.y,
            &self.parts.z,
            &self.bbox,
            interaction_radius(self.cfg.kernel, self.h_max_all),
        )
    }

    /// Sort owned particles by SFC key; returns the sorted keys.
    fn sort_owned(&mut self) -> Vec<u64> {
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
        keyed.into_iter().map(|(k, _)| k).collect()
    }

    /// Whether this step defers the halo derived-field payload (stage B)
    /// past the interior sweeps.
    fn overlap_active(&self, size: usize) -> bool {
        self.cfg.halo_overlap && size > 1
    }

    /// Drain the deferred stage-B halo payload: receive each peer's derived
    /// fields in the stage-A peer order, scatter them into the halo tail,
    /// then derive halo pressure/sound speed — the same per-particle EOS
    /// math the classic path applies to packed halo state. Runs exactly
    /// once per step when the overlap schedule deferred anything, so the
    /// per-pair FIFO stays aligned with the next step's migration exchange.
    fn drain_halo_fields(&mut self, ctx: &mut RankCtx) {
        let pending = std::mem::take(&mut self.pending_fields);
        for (peer, start, _count) in pending {
            let data = bytes_to_f64s(&ctx.recv(peer));
            self.parts.fill_halo_fields(start, &data);
        }
        let eos = self.eos;
        let (n_local, len) = (self.parts.n_local, self.parts.len());
        eos.apply_range(&mut self.parts, n_local, len);
    }

    /// The full `DomainDecompAndSync` phase: SFC sort, incremental
    /// repartitioning, particle migration, halo discovery and exchange.
    fn domain_decomp_and_sync(&mut self, ctx: &mut RankCtx) {
        self.parts.truncate_halos();
        let keys = self.sort_owned();

        // ---- Incremental repartitioning ------------------------------
        // Cheap census every step: one f64 per rank. Every rank computes
        // the same skew from the same census, so the rebuild decision is
        // collective without an extra agreement round. The O(N_global) key
        // gather + octree rebuild below only runs when the partition has
        // actually degraded (or on first use / forced refresh).
        let counts: Vec<usize> = ctx
            .allgather_f64s(&[self.parts.n_local as f64])
            .iter()
            .map(|v| v[0] as usize)
            .collect();
        let skew = load_skew(&counts);
        let stale = match &self.assignment {
            None => true,
            Some(a) => a.parts() != ctx.size(),
        };
        let repartition = stale || self.force_repart || skew > self.cfg.repart_skew_threshold;
        self.force_repart = false;
        self.last_skew = skew;
        self.last_repartitioned = repartition;
        if repartition {
            // Global octree from everyone's keys (laptop scale: the global
            // key set fits comfortably; production codes merge distributed
            // trees).
            let key_bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
            let gathered = ctx.allgather_bytes(key_bytes);
            let mut global_keys: Vec<u64> = gathered
                .iter()
                .flat_map(|b| {
                    b.chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte keys")))
                })
                .collect();
            global_keys.sort_unstable();
            let tree = Octree::build(&global_keys, self.cfg.bucket_size);
            self.assignment = Some(Assignment::from_octree(&tree, ctx.size()));
        }
        let assignment = self.assignment.clone().expect("splits exist after census");

        // Migrate misplaced particles to their owners. This runs every step
        // against the retained splits — ownership is always correct; only
        // the *balance* of the partition ages between rebuilds.
        let mut migrated_local = 0u64;
        if ctx.size() > 1 {
            let me = ctx.rank();
            let mut outgoing_idx: Vec<Vec<usize>> = vec![Vec::new(); ctx.size()];
            for (i, &k) in keys.iter().enumerate() {
                let owner = assignment.rank_of_key(k);
                if owner != me {
                    outgoing_idx[owner].push(i);
                }
            }
            let mut keep = vec![true; self.parts.n_local];
            for peer_list in &outgoing_idx {
                migrated_local += peer_list.len() as u64;
                for &i in peer_list {
                    keep[i] = false;
                }
            }
            let outgoing: Vec<(usize, Vec<u8>)> = (0..ctx.size())
                .filter(|&p| p != me)
                .map(|p| (p, f64s_to_bytes(&self.parts.pack_halo(&outgoing_idx[p]))))
                .collect();
            let incoming = ctx.exchange(outgoing);
            self.parts.retain_owned(&keep);
            // Received particles become owned: unpack as halos, then claim.
            for (_, data) in incoming {
                self.parts.unpack_halo(&bytes_to_f64s(&data));
            }
            self.parts.n_local = self.parts.len();
            self.sort_owned();
            self.last_migrated = ctx.allreduce_u64(migrated_local, Op::Sum);
        } else {
            self.last_migrated = 0;
        }

        // Halo discovery: everyone needs each peer's bounding box and the
        // global interaction radius.
        let h_local = self.parts.h[..self.parts.n_local]
            .iter()
            .cloned()
            .fold(1e-6, f64::max);
        let h_max = ctx.allreduce_f64(h_local, Op::Max);
        let radius = interaction_radius(self.cfg.kernel, h_max);
        let my_box = Aabb::of_points(
            &self.parts.x[..self.parts.n_local],
            &self.parts.y[..self.parts.n_local],
            &self.parts.z[..self.parts.n_local],
        );
        let boxes = ctx.allgather_f64s(&[
            my_box.xmin,
            my_box.xmax,
            my_box.ymin,
            my_box.ymax,
            my_box.zmin,
            my_box.zmax,
        ]);

        self.pending_fields.clear();
        if ctx.size() > 1 {
            let me = ctx.rank();
            let peers: Vec<usize> = (0..ctx.size()).filter(|&p| p != me).collect();
            let cands: Vec<Vec<usize>> = peers
                .iter()
                .map(|&p| {
                    let b = &boxes[p];
                    let peer_box = Aabb {
                        xmin: b[0],
                        xmax: b[1],
                        ymin: b[2],
                        ymax: b[3],
                        zmin: b[4],
                        zmax: b[5],
                    };
                    halo_candidates(
                        &self.parts.x[..self.parts.n_local],
                        &self.parts.y[..self.parts.n_local],
                        &self.parts.z[..self.parts.n_local],
                        &peer_box,
                        radius,
                        &self.bbox,
                    )
                })
                .collect();
            if self.overlap_active(ctx.size()) {
                // Two-stage exchange: stage A (positions, h, m — everything
                // the grid/CSR build and density need) is received now, in
                // the same ascending-peer order the classic exchange uses,
                // so halo indices — and every CSR row — are identical.
                // Stage B (velocities, rho, u, alpha — first read by the
                // boundary IAD rows) stays in flight until the drain.
                for (k, &p) in peers.iter().enumerate() {
                    ctx.send(p, f64s_to_bytes(&self.parts.pack_halo_positions(&cands[k])));
                    ctx.send(p, f64s_to_bytes(&self.parts.pack_halo_fields(&cands[k])));
                }
                for &p in &peers {
                    let data = bytes_to_f64s(&ctx.recv(p));
                    let start = self.parts.len();
                    self.parts.unpack_halo_positions(&data);
                    self.pending_fields
                        .push((p, start, self.parts.len() - start));
                }
            } else {
                let outgoing: Vec<(usize, Vec<u8>)> = peers
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| (p, f64s_to_bytes(&self.parts.pack_halo(&cands[k]))))
                    .collect();
                let incoming = ctx.exchange(outgoing);
                for (_, data) in incoming {
                    self.parts.unpack_halo(&bytes_to_f64s(&data));
                }
            }
        }

        // Cache the owned+halo h maximum for this step's grid builds:
        // extending the owned fold over the freshly-unpacked halo tail gives
        // exactly the value the old per-build full-array fold produced.
        self.h_max_all = self.parts.h[self.parts.n_local..]
            .iter()
            .cloned()
            .fold(h_local, f64::max);
    }

    /// Global Barnes-Hut gravity ([`self_gravity`]): add the accelerations and
    /// record this rank's share of the potential energy.
    fn apply_gravity(&mut self, ctx: &mut RankCtx) {
        let n_local = self.parts.n_local;
        let h_mean = self.parts.h[..n_local].iter().sum::<f64>() / n_local.max(1) as f64;
        let walks = self_gravity(ctx, &self.parts, 0.6, 0.2 * h_mean);
        // The potential fold stays serial in index order so the sum is
        // thread-count invariant.
        let mut potential = 0.0;
        for (i, (a, phi)) in walks.into_iter().enumerate() {
            self.parts.ax[i] += a[0];
            self.parts.ay[i] += a[1];
            self.parts.az[i] += a[2];
            potential += 0.5 * self.parts.m[i] * phi;
        }
        self.potential = potential;
    }
}

fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|f| f.to_le_bytes()).collect()
}

fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunks")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic::{evrard, subsonic_turbulence};
    use ranks::CommCost;

    fn small_cfg(target_neighbors: usize) -> SimConfig {
        SimConfig {
            kernel: Kernel::CubicSpline,
            target_particles_per_rank: 1e6,
            target_neighbors,
            bucket_size: 32,
            ..SimConfig::default()
        }
    }

    #[test]
    fn turbulence_single_rank_runs_and_conserves_momentum() {
        let stats = ranks::run(1, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(8, 0.3, 11);
            let mut sim = Simulation::new(ic, small_cfg(40));
            let mut obs = NullObserver;
            let mut out = Vec::new();
            for _ in 0..3 {
                out.push(sim.step(ctx, &mut obs));
            }
            out
        });
        let steps = &stats[0];
        assert_eq!(steps.len(), 3);
        for s in steps {
            assert!(s.dt > 0.0 && s.dt.is_finite());
            assert_eq!(s.n_local, 512);
            // Solenoidal field on a periodic box: momentum stays ~0 relative
            // to the velocity scale (n * mach * m ~ 0.3 * 1 = 0.3 scale).
            assert!(s.budget.px.abs() < 0.05, "px {}", s.budget.px);
            assert!(s.budget.kinetic > 0.0);
        }
        // Time advances monotonically.
        assert!(steps[2].time > steps[1].time && steps[1].time > steps[0].time);
    }

    #[test]
    fn evrard_collapse_deepens_potential_and_conserves_energy() {
        let stats = ranks::run(1, CommCost::default(), |ctx| {
            let ic = evrard(10);
            let mut sim = Simulation::new(ic, small_cfg(40));
            let mut obs = NullObserver;
            let mut out = Vec::new();
            for _ in 0..5 {
                out.push(sim.step(ctx, &mut obs));
            }
            out
        });
        let steps = &stats[0];
        let first = steps[0].budget;
        let last = steps[4].budget;
        assert!(first.potential < 0.0, "bound system");
        assert!(
            last.potential <= first.potential + 1e-6,
            "collapse must deepen the well: {} -> {}",
            first.potential,
            last.potential
        );
        assert!(last.kinetic > first.kinetic, "infall gains kinetic energy");
        // Total energy drift stays small over a few steps.
        let drift = (last.total() - first.total()).abs() / first.total().abs();
        assert!(drift < 0.05, "energy drift {drift}");
    }

    #[test]
    fn turbulence_decays_under_viscosity() {
        // Undriven subsonic turbulence decays: kinetic energy must fall over
        // many steps (artificial viscosity + pressure work), while total
        // momentum stays conserved and density stays near the mean.
        let out = ranks::run(1, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(8, 0.5, 21);
            let mut sim = Simulation::new(ic, small_cfg(40));
            let mut kinetic = Vec::new();
            let mut last = None;
            for _ in 0..15 {
                let s = sim.step(ctx, &mut NullObserver);
                kinetic.push(s.budget.kinetic);
                last = Some(s);
            }
            let rho_rms = {
                let p = &sim.parts;
                (0..p.n_local)
                    .map(|i| (p.rho[i] - 1.0).powi(2))
                    .sum::<f64>()
                    / p.n_local as f64
            }
            .sqrt();
            (kinetic, last.expect("steps ran"), rho_rms)
        })
        .remove(0);
        let (kinetic, last, rho_rms) = out;
        let first = kinetic.first().expect("steps");
        let final_ke = kinetic.last().expect("steps");
        assert!(
            *final_ke < first * 0.98,
            "kinetic energy must decay: {first} -> {final_ke}"
        );
        assert!(
            last.budget.px.abs() < 0.05,
            "momentum conserved: {}",
            last.budget.px
        );
        assert!(
            rho_rms < 0.2,
            "subsonic: density stays near the mean (rms {rho_rms})"
        );
    }

    #[test]
    fn pressure_jump_drives_flow_toward_low_pressure() {
        // A 3D shock-tube analogue: hot left half, cold right half of a
        // periodic box. The interface at x = 0.5 must push gas rightward
        // (and the wrapped interface at x = 0/1 leftward).
        let out = ranks::run(1, CommCost::default(), |ctx| {
            let mut ic = crate::ic::subsonic_turbulence(10, 0.0, 1);
            ic.eos = crate::eos::Eos::ideal_monatomic();
            for i in 0..ic.parts.len() {
                ic.parts.vx[i] = 0.0;
                ic.parts.vy[i] = 0.0;
                ic.parts.vz[i] = 0.0;
                ic.parts.u[i] = if ic.parts.x[i] < 0.5 { 2.5 } else { 0.25 };
            }
            let mut sim = Simulation::new(ic, small_cfg(40));
            for _ in 0..4 {
                sim.step(ctx, &mut NullObserver);
            }
            let p = &sim.parts;
            let band_mean_vx = |lo: f64, hi: f64| {
                let sel: Vec<usize> = (0..p.n_local)
                    .filter(|&i| p.x[i] >= lo && p.x[i] < hi)
                    .collect();
                sel.iter().map(|&i| p.vx[i]).sum::<f64>() / sel.len().max(1) as f64
            };
            (band_mean_vx(0.5, 0.62), band_mean_vx(0.0, 0.1))
        })
        .remove(0);
        let (right_of_interface, near_wrap) = out;
        assert!(
            right_of_interface > 0.01,
            "gas right of the hot/cold interface must accelerate rightward: {right_of_interface}"
        );
        assert!(
            near_wrap < -0.01,
            "gas right of the wrapped interface (x~0) must accelerate leftward: {near_wrap}"
        );
    }

    #[test]
    fn sedov_blast_expands_outward() {
        let out = ranks::run(1, CommCost::default(), |ctx| {
            let ic = crate::ic::sedov(10, 1.0);
            let mut sim = Simulation::new(ic, small_cfg(40));
            let mut radii = Vec::new();
            for _ in 0..6 {
                sim.step(ctx, &mut NullObserver);
                // Energy-weighted mean radius of hot material tracks the
                // shock front.
                let p = &sim.parts;
                let mut num = 0.0;
                let mut den = 0.0;
                for i in 0..p.n_local {
                    let r =
                        ((p.x[i] - 0.5).powi(2) + (p.y[i] - 0.5).powi(2) + (p.z[i] - 0.5).powi(2))
                            .sqrt();
                    let e = p.m[i] * p.u[i];
                    num += e * r;
                    den += e;
                }
                radii.push(num / den);
            }
            // Outward bulk motion: mass-weighted radial velocity positive.
            let p = &sim.parts;
            let vr_sum: f64 = (0..p.n_local)
                .map(|i| {
                    let (dx, dy, dz) = (p.x[i] - 0.5, p.y[i] - 0.5, p.z[i] - 0.5);
                    let r = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-12);
                    p.m[i] * (p.vx[i] * dx + p.vy[i] * dy + p.vz[i] * dz) / r
                })
                .sum();
            (radii, vr_sum)
        })
        .remove(0);
        let (radii, vr_sum) = out;
        assert!(
            radii.last().expect("steps ran") > radii.first().expect("steps ran"),
            "hot region must expand: {radii:?}"
        );
        assert!(vr_sum > 0.0, "net outward motion expected, got {vr_sum}");
    }

    #[test]
    fn multirank_turbulence_matches_particle_count_and_syncs_budget() {
        let out = ranks::run(4, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(8, 0.3, 11);
            let mut sim = Simulation::distribute(ic, small_cfg(40), ctx.rank(), ctx.size());
            let mut obs = NullObserver;
            let mut stats = None;
            for _ in 0..2 {
                stats = Some(sim.step(ctx, &mut obs));
            }
            stats.unwrap()
        });
        // Global particle count preserved across migration.
        let total: usize = out.iter().map(|s| s.n_local).sum();
        assert_eq!(total, 512);
        // Every rank sees the same reduced budget and dt.
        for s in &out[1..] {
            assert_eq!(s.dt, out[0].dt);
            assert!((s.budget.kinetic - out[0].budget.kinetic).abs() < 1e-9);
            assert!((s.budget.internal - out[0].budget.internal).abs() < 1e-9);
        }
        // Ranks at the domain interior must have halos.
        assert!(
            out.iter().any(|s| s.n_halo > 0),
            "halo exchange produced nothing"
        );
    }

    #[test]
    fn multirank_run_approximates_single_rank_physics() {
        let single = ranks::run(1, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(8, 0.3, 5);
            let mut sim = Simulation::new(ic, small_cfg(40));
            let mut s = None;
            for _ in 0..3 {
                s = Some(sim.step(ctx, &mut NullObserver));
            }
            s.unwrap()
        })[0];
        let multi = ranks::run(4, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(8, 0.3, 5);
            let mut sim = Simulation::distribute(ic, small_cfg(40), ctx.rank(), ctx.size());
            let mut s = None;
            for _ in 0..3 {
                s = Some(sim.step(ctx, &mut NullObserver));
            }
            s.unwrap()
        })[0];
        // Same global physics within decomposition tolerance (first-step
        // halos bootstrap their density, so small-n runs diverge slightly).
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
        assert!(
            rel(multi.budget.kinetic, single.budget.kinetic) < 0.05,
            "kinetic: multi {} vs single {}",
            multi.budget.kinetic,
            single.budget.kinetic
        );
        assert!(rel(multi.budget.internal, single.budget.internal) < 0.05);
        assert!(
            rel(multi.dt, single.dt) < 0.05,
            "dt: {} vs {}",
            multi.dt,
            single.dt
        );
    }

    /// Full per-rank state fingerprint: digest of every carried field plus
    /// the integrator clocks.
    fn run_digest(ranks: usize, steps: usize, cfg: SimConfig) -> Vec<u64> {
        ranks::run(ranks, CommCost::default(), move |ctx| {
            let ic = subsonic_turbulence(8, 0.3, 11);
            let mut sim = if ctx.size() == 1 {
                Simulation::new(ic, cfg)
            } else {
                Simulation::distribute(ic, cfg, ctx.rank(), ctx.size())
            };
            for _ in 0..steps {
                sim.step(ctx, &mut NullObserver);
            }
            sim.state_digest()
        })
    }

    #[test]
    fn halo_overlap_is_bitwise_identical_to_classic_exchange() {
        let classic = run_digest(
            4,
            3,
            SimConfig {
                halo_overlap: false,
                ..small_cfg(40)
            },
        );
        let overlapped = run_digest(
            4,
            3,
            SimConfig {
                halo_overlap: true,
                ..small_cfg(40)
            },
        );
        assert_eq!(
            classic, overlapped,
            "deferred stage-B halo exchange must not change any bit"
        );
    }

    #[test]
    fn snapshot_restore_continues_bit_identically_single_rank() {
        let full = run_digest(1, 6, small_cfg(40));
        let resumed = ranks::run(1, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(8, 0.3, 11);
            let mut first = Simulation::new(ic, small_cfg(40));
            for _ in 0..3 {
                first.step(ctx, &mut NullObserver);
            }
            let blob = first.capture_snapshot();
            let (step, time, dt) = (first.step_index(), first.time(), first.dt());
            drop(first);

            // A "fresh process": new Simulation from the same IC, state
            // replaced wholesale from the snapshot.
            let ic = subsonic_turbulence(8, 0.3, 11);
            let mut sim = Simulation::new(ic, small_cfg(40));
            let parts = crate::snapshot::decode_particles(&blob).expect("own snapshot");
            sim.restore_snapshot(parts, step, time.to_bits(), dt.to_bits());
            for _ in 0..3 {
                sim.step(ctx, &mut NullObserver);
            }
            sim.state_digest()
        });
        assert_eq!(full, resumed, "kill/restore must be invisible to physics");
    }

    #[test]
    fn snapshot_restore_continues_bit_identically_multirank() {
        let full = run_digest(4, 6, small_cfg(40));
        let resumed = ranks::run(4, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(8, 0.3, 11);
            let mut first = Simulation::distribute(ic, small_cfg(40), ctx.rank(), ctx.size());
            for _ in 0..3 {
                first.step(ctx, &mut NullObserver);
            }
            let blob = first.capture_snapshot();
            let splits = first
                .assignment_splits()
                .expect("partition exists after stepping")
                .to_vec();
            let (step, time, dt) = (first.step_index(), first.time(), first.dt());
            drop(first);

            let ic = subsonic_turbulence(8, 0.3, 11);
            let mut sim = Simulation::distribute(ic, small_cfg(40), ctx.rank(), ctx.size());
            let parts = crate::snapshot::decode_particles(&blob).expect("own snapshot");
            sim.restore_snapshot(parts, step, time.to_bits(), dt.to_bits());
            sim.set_assignment_splits(splits);
            for _ in 0..3 {
                sim.step(ctx, &mut NullObserver);
            }
            sim.state_digest()
        });
        assert_eq!(
            full, resumed,
            "multirank kill/restore must replay migration and halos exactly"
        );
    }

    #[test]
    fn repartitioning_is_incremental_under_balanced_load() {
        let stats = ranks::run(4, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(8, 0.3, 11);
            let mut sim = Simulation::distribute(ic, small_cfg(40), ctx.rank(), ctx.size());
            let mut out = Vec::new();
            for _ in 0..4 {
                out.push(sim.step(ctx, &mut NullObserver));
            }
            // A forced refresh must rebuild on the next step.
            sim.force_repartition();
            out.push(sim.step(ctx, &mut NullObserver));
            out
        })
        .remove(0);
        assert!(
            stats[0].repartitioned,
            "first step must build the partition"
        );
        for s in &stats[1..4] {
            assert!(
                !s.repartitioned,
                "balanced subsonic box must reuse splits (skew {})",
                s.skew
            );
            assert!(
                s.skew >= 1.0 && s.skew <= 1.15,
                "skew {} out of band",
                s.skew
            );
        }
        assert!(stats[4].repartitioned, "force_repartition must rebuild");
        // Migration still runs every step and the moved fraction stays far
        // below a full redistribution.
        for s in &stats {
            assert!(
                (s.migrated as f64) < 0.2 * 512.0,
                "step {} moved {} of 512 particles",
                s.step,
                s.migrated
            );
        }
    }

    #[test]
    fn skew_one_threshold_repartitions_every_step() {
        let stats = ranks::run(2, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(8, 0.3, 11);
            let cfg = SimConfig {
                repart_skew_threshold: 0.99,
                ..small_cfg(40)
            };
            let mut sim = Simulation::distribute(ic, cfg, ctx.rank(), ctx.size());
            (0..3)
                .map(|_| sim.step(ctx, &mut NullObserver))
                .collect::<Vec<_>>()
        })
        .remove(0);
        // Skew is always >= 1.0, so a sub-1 threshold rebuilds every step —
        // the knob CI's scaling smoke test uses to exercise repartitioning.
        for s in &stats {
            assert!(
                s.repartitioned,
                "sub-1 threshold must force rebuilds (skew {})",
                s.skew
            );
        }
    }

    #[test]
    fn observer_sees_every_function_in_order() {
        struct Recorder(Vec<FuncId>, Vec<FuncId>);
        impl StepObserver for Recorder {
            fn before(&mut self, f: FuncId, _ctx: &mut RankCtx) {
                self.0.push(f);
            }
            fn after(
                &mut self,
                f: FuncId,
                w: &KernelWorkload,
                _h: SimDuration,
                _ctx: &mut RankCtx,
            ) {
                assert_eq!(w.name, f.name());
                self.1.push(f);
            }
        }
        let funcs = ranks::run(1, CommCost::default(), |ctx| {
            let ic = subsonic_turbulence(6, 0.3, 2);
            let mut sim = Simulation::new(ic, small_cfg(30));
            let mut rec = Recorder(Vec::new(), Vec::new());
            sim.step(ctx, &mut rec);
            assert_eq!(rec.0, rec.1, "before/after must pair up");
            rec.0
        });
        let expected: Vec<FuncId> = FuncId::ALL
            .into_iter()
            .filter(|f| *f != FuncId::Gravity)
            .collect();
        assert_eq!(funcs[0], expected);

        // Evrard includes Gravity.
        let funcs = ranks::run(1, CommCost::default(), |ctx| {
            let ic = evrard(8);
            let mut sim = Simulation::new(ic, small_cfg(30));
            let mut rec = Recorder(Vec::new(), Vec::new());
            sim.step(ctx, &mut rec);
            rec.0
        });
        assert!(funcs[0].contains(&FuncId::Gravity));
        assert_eq!(funcs[0].len(), 12);
    }

    #[test]
    fn active_funcs_reflects_gravity() {
        let turb = Simulation::new(subsonic_turbulence(4, 0.1, 0), small_cfg(30));
        assert!(!turb.active_funcs().contains(&FuncId::Gravity));
        let evr = Simulation::new(evrard(6), small_cfg(30));
        assert!(evr.active_funcs().contains(&FuncId::Gravity));
    }
}
