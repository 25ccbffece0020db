//! Structure-of-arrays particle storage.
//!
//! Matches SPH-EXA's field layout: positions, velocities, smoothing lengths,
//! densities, pressures, internal energy, grad-h terms, IAD tensor
//! components, velocity divergence/curl and artificial-viscosity switches.
//! The SoA layout is what the real code uploads to the GPU wholesale at
//! simulation start (§III-A).

use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

/// All per-particle fields. Locally-owned particles occupy `0..n_local`;
/// halo copies received from peers live in `n_local..len()`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Particles {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub vx: Vec<f64>,
    pub vy: Vec<f64>,
    pub vz: Vec<f64>,
    /// Particle mass.
    pub m: Vec<f64>,
    /// Smoothing length.
    pub h: Vec<f64>,
    /// Density.
    pub rho: Vec<f64>,
    /// Pressure.
    pub p: Vec<f64>,
    /// Sound speed.
    pub c: Vec<f64>,
    /// Specific internal energy.
    pub u: Vec<f64>,
    /// du/dt accumulated by MomentumEnergy.
    pub du: Vec<f64>,
    /// Accelerations.
    pub ax: Vec<f64>,
    pub ay: Vec<f64>,
    pub az: Vec<f64>,
    /// Grad-h correction factor (Omega).
    pub gradh: Vec<f64>,
    /// Generalized volume element estimate (the `XMass` field).
    pub xmass: Vec<f64>,
    /// Velocity divergence.
    pub divv: Vec<f64>,
    /// Magnitude of velocity curl.
    pub curlv: Vec<f64>,
    /// Artificial-viscosity switch (alpha).
    pub alpha: Vec<f64>,
    /// IAD tensor components (symmetric 3x3: c11, c12, c13, c22, c23, c33).
    pub c11: Vec<f64>,
    pub c12: Vec<f64>,
    pub c13: Vec<f64>,
    pub c22: Vec<f64>,
    pub c23: Vec<f64>,
    pub c33: Vec<f64>,
    /// Count of locally-owned (non-halo) particles.
    pub n_local: usize,
}

impl Particles {
    /// Number of fields a full particle carries (used for paper-scale
    /// communication volume estimates).
    pub const FIELD_COUNT: usize = 27;

    /// Every per-particle column, for passes that treat all fields alike.
    fn fields_mut(&mut self) -> [&mut Vec<f64>; Self::FIELD_COUNT] {
        [
            &mut self.x,
            &mut self.y,
            &mut self.z,
            &mut self.vx,
            &mut self.vy,
            &mut self.vz,
            &mut self.m,
            &mut self.h,
            &mut self.rho,
            &mut self.p,
            &mut self.c,
            &mut self.u,
            &mut self.du,
            &mut self.ax,
            &mut self.ay,
            &mut self.az,
            &mut self.gradh,
            &mut self.xmass,
            &mut self.divv,
            &mut self.curlv,
            &mut self.alpha,
            &mut self.c11,
            &mut self.c12,
            &mut self.c13,
            &mut self.c22,
            &mut self.c23,
            &mut self.c33,
        ]
    }

    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty set whose columns each hold `n` particles without growing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut p = Self::default();
        for v in p.fields_mut() {
            v.reserve_exact(n);
        }
        p
    }

    /// Total stored particles (local + halo).
    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Add one locally-owned particle with kinematic state; derived fields
    /// start at sane defaults. Panics if halos are already attached.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        x: f64,
        y: f64,
        z: f64,
        vx: f64,
        vy: f64,
        vz: f64,
        m: f64,
        h: f64,
        u: f64,
    ) {
        assert_eq!(
            self.len(),
            self.n_local,
            "cannot push owned particles after halos"
        );
        self.x.push(x);
        self.y.push(y);
        self.z.push(z);
        self.vx.push(vx);
        self.vy.push(vy);
        self.vz.push(vz);
        self.m.push(m);
        self.h.push(h);
        self.u.push(u);
        self.rho.push(0.0);
        self.p.push(0.0);
        self.c.push(0.0);
        self.du.push(0.0);
        self.ax.push(0.0);
        self.ay.push(0.0);
        self.az.push(0.0);
        self.gradh.push(1.0);
        self.xmass.push(m);
        self.divv.push(0.0);
        self.curlv.push(0.0);
        self.alpha.push(crate::av::ALPHA_MIN);
        self.c11.push(0.0);
        self.c12.push(0.0);
        self.c13.push(0.0);
        self.c22.push(0.0);
        self.c23.push(0.0);
        self.c33.push(0.0);
        self.n_local += 1;
    }

    /// Drop halo copies, keeping only owned particles.
    pub fn truncate_halos(&mut self) {
        let n = self.n_local;
        for v in self.fields_mut() {
            v.truncate(n);
        }
    }

    /// Append halo particles received from a peer (kinematic + derived
    /// fields all copied — receivers treat halos as read-only).
    pub fn append_halos(&mut self, other: &Particles, indices: &[usize]) {
        for &i in indices {
            self.x.push(other.x[i]);
            self.y.push(other.y[i]);
            self.z.push(other.z[i]);
            self.vx.push(other.vx[i]);
            self.vy.push(other.vy[i]);
            self.vz.push(other.vz[i]);
            self.m.push(other.m[i]);
            self.h.push(other.h[i]);
            self.rho.push(other.rho[i]);
            self.p.push(other.p[i]);
            self.c.push(other.c[i]);
            self.u.push(other.u[i]);
            self.du.push(0.0);
            self.ax.push(0.0);
            self.ay.push(0.0);
            self.az.push(0.0);
            self.gradh.push(other.gradh[i]);
            self.xmass.push(other.xmass[i]);
            self.divv.push(other.divv[i]);
            self.curlv.push(other.curlv[i]);
            self.alpha.push(other.alpha[i]);
            self.c11.push(other.c11[i]);
            self.c12.push(other.c12[i]);
            self.c13.push(other.c13[i]);
            self.c22.push(other.c22[i]);
            self.c23.push(other.c23[i]);
            self.c33.push(other.c33[i]);
        }
    }

    /// Number of f64 fields in a packed halo/migration record.
    pub const PACK_FIELDS: usize = 13;

    /// The packed record of particle `i`: `x y z vx vy vz m h rho p c u
    /// alpha`. Halo and migration buffers, FSNP snapshots and the state
    /// digest all read this one field order; `push_packed` is its inverse.
    #[inline]
    pub(crate) fn packed(&self, i: usize) -> [f64; Self::PACK_FIELDS] {
        [
            self.x[i],
            self.y[i],
            self.z[i],
            self.vx[i],
            self.vy[i],
            self.vz[i],
            self.m[i],
            self.h[i],
            self.rho[i],
            self.p[i],
            self.c[i],
            self.u[i],
            self.alpha[i],
        ]
    }

    /// Serialize the halo-relevant state of `indices` into a flat f64 buffer
    /// (for the rank runtime's byte channels). Also used for domain
    /// migration, so the viscosity switch `alpha` travels along.
    pub fn pack_halo(&self, indices: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(indices.len() * Self::PACK_FIELDS);
        for &i in indices {
            out.extend_from_slice(&self.packed(i));
        }
        out
    }

    /// Append one particle from a record built by `packed`. Fields the
    /// record does not carry start at [`Particles::push`]'s defaults:
    /// `xmass` is `m`, `gradh` is 1 and the rest are 0.
    #[inline]
    pub(crate) fn push_packed(&mut self, record: [f64; Self::PACK_FIELDS]) {
        let [x, y, z, vx, vy, vz, m, h, rho, p, c, u, alpha] = record;
        self.x.push(x);
        self.y.push(y);
        self.z.push(z);
        self.vx.push(vx);
        self.vy.push(vy);
        self.vz.push(vz);
        self.m.push(m);
        self.h.push(h);
        self.rho.push(rho);
        self.p.push(p);
        self.c.push(c);
        self.u.push(u);
        self.du.push(0.0);
        self.ax.push(0.0);
        self.ay.push(0.0);
        self.az.push(0.0);
        self.gradh.push(1.0);
        self.xmass.push(m);
        self.divv.push(0.0);
        self.curlv.push(0.0);
        self.alpha.push(alpha);
        self.c11.push(0.0);
        self.c12.push(0.0);
        self.c13.push(0.0);
        self.c22.push(0.0);
        self.c23.push(0.0);
        self.c33.push(0.0);
    }

    /// Append halos from a buffer produced by [`Particles::pack_halo`].
    pub fn unpack_halo(&mut self, data: &[f64]) {
        assert_eq!(
            data.len() % Self::PACK_FIELDS,
            0,
            "halo buffer must be {} f64 per particle",
            Self::PACK_FIELDS
        );
        for chunk in data.chunks_exact(Self::PACK_FIELDS) {
            self.push_packed(chunk.try_into().expect("PACK_FIELDS-long chunks"));
        }
    }

    /// Number of f64 fields in a stage-A (position) halo record: `x, y, z,
    /// h, m` — exactly what grid/CSR construction and the density sweep
    /// read of a neighbor.
    pub const POS_PACK_FIELDS: usize = 5;

    /// Number of f64 fields in a stage-B (deferred) halo record: `vx, vy,
    /// vz, rho, u, alpha`. Together with stage A this covers every
    /// halo-read field that is not recomputed locally (`xmass` from
    /// `m/rho`, `p`/`c` from the EOS); 5 + 6 = 11 f64 per halo, less than
    /// the 13-field combined pack.
    pub const FIELD_PACK_FIELDS: usize = 6;

    /// Stage A of the split halo exchange: pack only what the neighbor
    /// search and the density sweep need (`x, y, z, h, m`).
    pub fn pack_halo_positions(&self, indices: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(indices.len() * Self::POS_PACK_FIELDS);
        for &i in indices {
            out.extend_from_slice(&[self.x[i], self.y[i], self.z[i], self.h[i], self.m[i]]);
        }
        out
    }

    /// Append stage-A halos. Deferred fields start at the same defaults
    /// [`Particles::unpack_halo`] uses (and are never read before
    /// [`Particles::fill_halo_fields`] overwrites them — the density sweep
    /// only touches `m` of a neighbor).
    pub fn unpack_halo_positions(&mut self, data: &[f64]) {
        assert_eq!(
            data.len() % Self::POS_PACK_FIELDS,
            0,
            "position-halo buffer must be {} f64 per particle",
            Self::POS_PACK_FIELDS
        );
        for chunk in data.chunks_exact(Self::POS_PACK_FIELDS) {
            self.x.push(chunk[0]);
            self.y.push(chunk[1]);
            self.z.push(chunk[2]);
            self.vx.push(0.0);
            self.vy.push(0.0);
            self.vz.push(0.0);
            self.m.push(chunk[4]);
            self.h.push(chunk[3]);
            self.rho.push(0.0);
            self.p.push(0.0);
            self.c.push(0.0);
            self.u.push(0.0);
            self.du.push(0.0);
            self.ax.push(0.0);
            self.ay.push(0.0);
            self.az.push(0.0);
            self.gradh.push(1.0);
            self.xmass.push(chunk[4]);
            self.divv.push(0.0);
            self.curlv.push(0.0);
            self.alpha.push(crate::av::ALPHA_MIN);
            self.c11.push(0.0);
            self.c12.push(0.0);
            self.c13.push(0.0);
            self.c22.push(0.0);
            self.c23.push(0.0);
            self.c33.push(0.0);
        }
    }

    /// Stage B of the split halo exchange: the remaining halo-read fields.
    pub fn pack_halo_fields(&self, indices: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(indices.len() * Self::FIELD_PACK_FIELDS);
        for &i in indices {
            out.extend_from_slice(&[
                self.vx[i],
                self.vy[i],
                self.vz[i],
                self.rho[i],
                self.u[i],
                self.alpha[i],
            ]);
        }
        out
    }

    /// Complete stage-A halos starting at index `start` with their deferred
    /// fields, recomputing `xmass` with the same bootstrap rule
    /// [`crate::density::xmass`] applies (`m/rho`, or `m` while `rho` is
    /// still zero) so the result is bit-identical to the unsplit exchange.
    pub fn fill_halo_fields(&mut self, start: usize, data: &[f64]) {
        assert_eq!(
            data.len() % Self::FIELD_PACK_FIELDS,
            0,
            "field-halo buffer must be {} f64 per particle",
            Self::FIELD_PACK_FIELDS
        );
        assert!(
            start >= self.n_local && start + data.len() / Self::FIELD_PACK_FIELDS <= self.len(),
            "field fill must target the halo region"
        );
        for (k, chunk) in data.chunks_exact(Self::FIELD_PACK_FIELDS).enumerate() {
            let i = start + k;
            self.vx[i] = chunk[0];
            self.vy[i] = chunk[1];
            self.vz[i] = chunk[2];
            self.rho[i] = chunk[3];
            self.u[i] = chunk[4];
            self.alpha[i] = chunk[5];
            self.xmass[i] = if chunk[3] > 0.0 {
                self.m[i] / chunk[3]
            } else {
                self.m[i]
            };
        }
    }

    /// Keep only owned particles selected by `keep` (used when re-assigning
    /// domains); halo region must already be truncated.
    pub fn retain_owned(&mut self, keep: &[bool]) {
        assert_eq!(self.len(), self.n_local, "truncate halos first");
        assert_eq!(keep.len(), self.n_local);
        for v in self.fields_mut() {
            let mut it = keep.iter();
            v.retain(|_| *it.next().expect("keep mask length"));
        }
        self.n_local = self.x.len();
    }

    /// Reorder owned particles by `perm` (the SFC sort); halo region must be
    /// empty. `perm[k]` is the old index that moves to position `k`.
    ///
    /// Each field is gathered whole by one worker — pure data movement, the
    /// same at any worker count — once the set is large enough for `par`'s
    /// blocked passes to split (`par::splits`). A field is gathered into a
    /// spare column, the spare takes its place, and the old column is the
    /// next field's spare: one column per worker is allocated per sort (here,
    /// on the calling thread, so the particle data never moves into a
    /// worker's malloc arena) instead of one per field.
    pub fn permute_owned(&mut self, perm: &[usize]) {
        assert_eq!(self.len(), self.n_local, "truncate halos first");
        assert_eq!(perm.len(), self.n_local);
        let n = perm.len();
        let workers = if par::splits(n) {
            par::max_threads()
        } else {
            1
        };
        let spares = Mutex::new(Vec::from_iter((0..workers).map(|_| Vec::with_capacity(n))));
        let take = || spares.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let gather = |_: usize, v: &mut &mut Vec<f64>| {
            // The worker count is only read, so a spare can run out if it
            // changes meanwhile: then the worker brings its own.
            let mut new = take().unwrap_or_else(|| Vec::with_capacity(n));
            new.clear();
            new.extend(perm.iter().map(|&i| v[i]));
            std::mem::swap(&mut new, *v);
            spares
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(new);
        };
        let mut fields = self.fields_mut();
        if workers > 1 {
            par::par_for_each_mut(&mut fields, gather);
        } else {
            fields.iter_mut().for_each(|v| gather(0, v));
        }
    }

    /// Extract owned particles at `indices` into a new set (domain migration).
    pub fn extract(&self, indices: &[usize]) -> Particles {
        let mut out = Particles::new();
        for &i in indices {
            out.push(
                self.x[i], self.y[i], self.z[i], self.vx[i], self.vy[i], self.vz[i], self.m[i],
                self.h[i], self.u[i],
            );
            let k = out.n_local - 1;
            out.rho[k] = self.rho[i];
            out.p[k] = self.p[i];
            out.c[k] = self.c[i];
            out.gradh[k] = self.gradh[i];
            out.xmass[k] = self.xmass[i];
            out.alpha[k] = self.alpha[i];
        }
        out
    }

    /// Merge another set's owned particles into this one's owned region.
    pub fn absorb(&mut self, other: Particles) {
        assert_eq!(self.len(), self.n_local, "truncate halos first");
        self.x.extend(other.x);
        self.y.extend(other.y);
        self.z.extend(other.z);
        self.vx.extend(other.vx);
        self.vy.extend(other.vy);
        self.vz.extend(other.vz);
        self.m.extend(other.m);
        self.h.extend(other.h);
        self.rho.extend(other.rho);
        self.p.extend(other.p);
        self.c.extend(other.c);
        self.u.extend(other.u);
        self.du.extend(other.du);
        self.ax.extend(other.ax);
        self.ay.extend(other.ay);
        self.az.extend(other.az);
        self.gradh.extend(other.gradh);
        self.xmass.extend(other.xmass);
        self.divv.extend(other.divv);
        self.curlv.extend(other.curlv);
        self.alpha.extend(other.alpha);
        self.c11.extend(other.c11);
        self.c12.extend(other.c12);
        self.c13.extend(other.c13);
        self.c22.extend(other.c22);
        self.c23.extend(other.c23);
        self.c33.extend(other.c33);
        self.n_local = self.x.len();
    }

    /// Total mass of owned particles.
    pub fn total_mass(&self) -> f64 {
        self.m[..self.n_local].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> Particles {
        let mut p = Particles::new();
        p.push(0.1, 0.2, 0.3, 1.0, 0.0, 0.0, 2.0, 0.05, 1.5);
        p.push(0.4, 0.5, 0.6, 0.0, 1.0, 0.0, 3.0, 0.06, 1.6);
        p.push(0.7, 0.8, 0.9, 0.0, 0.0, 1.0, 4.0, 0.07, 1.7);
        p
    }

    #[test]
    fn push_initializes_all_fields_consistently() {
        let p = three();
        assert_eq!(p.len(), 3);
        assert_eq!(p.n_local, 3);
        assert_eq!(p.gradh, vec![1.0; 3]);
        assert_eq!(p.xmass, p.m);
        assert_eq!(p.total_mass(), 9.0);
    }

    #[test]
    fn halo_pack_unpack_roundtrip() {
        let src = three();
        let buf = src.pack_halo(&[0, 2]);
        assert_eq!(buf.len(), 26);
        let mut dst = three();
        dst.unpack_halo(&buf);
        assert_eq!(dst.len(), 5);
        assert_eq!(dst.n_local, 3, "halos are not owned");
        assert_eq!(dst.x[3], 0.1);
        assert_eq!(dst.m[4], 4.0);
        dst.truncate_halos();
        assert_eq!(dst.len(), 3);
    }

    #[test]
    fn split_halo_pack_matches_combined_pack() {
        // Stage A + stage B (+ the local xmass/EOS recomputation the sim
        // performs) must reconstruct exactly what the 13-field pack carries.
        let mut src = three();
        src.rho[0] = 2.0;
        src.rho[2] = 4.0;
        src.alpha[2] = 0.7;

        let mut combined = three();
        combined.unpack_halo(&src.pack_halo(&[0, 2]));

        let mut split = three();
        let start = split.len();
        split.unpack_halo_positions(&src.pack_halo_positions(&[0, 2]));
        assert_eq!(split.len(), 5);
        // Pre-arrival: placeholders, positions/h/m real.
        assert_eq!(split.x[3], 0.1);
        assert_eq!(split.h[4], 0.07);
        assert_eq!(split.rho[3], 0.0);
        split.fill_halo_fields(start, &src.pack_halo_fields(&[0, 2]));

        for i in start..split.len() {
            for (name, a, b) in [
                ("x", split.x[i], combined.x[i]),
                ("y", split.y[i], combined.y[i]),
                ("z", split.z[i], combined.z[i]),
                ("vx", split.vx[i], combined.vx[i]),
                ("vy", split.vy[i], combined.vy[i]),
                ("vz", split.vz[i], combined.vz[i]),
                ("m", split.m[i], combined.m[i]),
                ("h", split.h[i], combined.h[i]),
                ("rho", split.rho[i], combined.rho[i]),
                ("u", split.u[i], combined.u[i]),
                ("alpha", split.alpha[i], combined.alpha[i]),
                ("gradh", split.gradh[i], combined.gradh[i]),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}[{i}]");
            }
            // The split path recomputes xmass from the shipped rho — the
            // value the XMass phase derives for combined-pack halos.
            let expect = if split.rho[i] > 0.0 {
                split.m[i] / split.rho[i]
            } else {
                split.m[i]
            };
            assert_eq!(split.xmass[i].to_bits(), expect.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "halo region")]
    fn fill_halo_fields_rejects_owned_region() {
        let mut p = three();
        let src = three();
        p.unpack_halo_positions(&src.pack_halo_positions(&[0]));
        p.fill_halo_fields(0, &src.pack_halo_fields(&[0]));
    }

    #[test]
    fn append_halos_copies_derived_fields() {
        let mut src = three();
        src.rho[1] = 7.0;
        src.alpha[1] = 0.9;
        let mut dst = three();
        dst.append_halos(&src, &[1]);
        assert_eq!(dst.len(), 4);
        assert_eq!(dst.rho[3], 7.0);
        assert_eq!(dst.alpha[3], 0.9);
    }

    #[test]
    fn permute_reorders_every_field() {
        let mut p = three();
        p.permute_owned(&[2, 0, 1]);
        assert_eq!(p.x, vec![0.7, 0.1, 0.4]);
        assert_eq!(p.m, vec![4.0, 2.0, 3.0]);
        assert_eq!(p.vz, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn permute_in_place_is_the_gather_at_any_size_and_worker_count() {
        // Shuffles of a few particles and of enough for the fields to be
        // rotated by several workers, plus a near-identity one (adjacent
        // swaps, as from one step's sort to the next): every field must
        // equal `old[perm[k]]`.
        let mut g = rng::Rng::seed_from_u64(3);
        for (n, swaps) in [
            (7, None),
            (2 * par::BLOCK + 9, None),
            (2 * par::BLOCK, Some(500)),
        ] {
            let mut perm: Vec<usize> = (0..n).collect();
            match swaps {
                None => {
                    for k in (1..n).rev() {
                        perm.swap(k, g.usize(0..k + 1));
                    }
                }
                Some(m) => {
                    for _ in 0..m {
                        let k = g.usize(0..n - 1);
                        perm.swap(k, k + 1);
                    }
                }
            }
            let mut p = Particles::new();
            for i in 0..n {
                let f = i as f64;
                p.push(f, f + 0.5, -f, 1.0, 2.0, 3.0, f * 2.0, 0.1, f * 3.0);
            }
            let want: Vec<f64> = perm.iter().map(|&i| p.u[i]).collect();
            for workers in [1, 4] {
                par::set_max_threads(workers);
                let mut q = p.clone();
                q.permute_owned(&perm);
                par::set_max_threads(0);
                assert_eq!(q.u, want, "{n} particles, {workers} workers");
                assert!(q.x.iter().zip(&perm).all(|(&x, &i)| x == i as f64));
                assert!(q.m.iter().zip(&perm).all(|(&m, &i)| m == i as f64 * 2.0));
            }
        }
    }

    #[test]
    fn retain_and_extract_and_absorb() {
        let mut p = three();
        let moved = p.extract(&[1]);
        p.retain_owned(&[true, false, true]);
        assert_eq!(p.n_local, 2);
        assert_eq!(p.x, vec![0.1, 0.7]);
        assert_eq!(moved.n_local, 1);
        assert_eq!(moved.m, vec![3.0]);
        let mut q = p.clone();
        q.absorb(moved);
        assert_eq!(q.n_local, 3);
        assert_eq!(q.total_mass(), 9.0);
    }

    #[test]
    #[should_panic(expected = "halos")]
    fn push_after_halos_panics() {
        let mut p = three();
        let src = three();
        p.append_halos(&src, &[0]);
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
    }
}
