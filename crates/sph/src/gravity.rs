//! Barnes-Hut gravity (the `Gravity` function of the Evrard collapse
//! workload; the turbulence workload does not call it — the functional
//! difference the paper selects its two workloads for).
//!
//! ## The tree is one array
//!
//! [`BhTree`] holds its octree as one `Vec<Node>` in depth-first pre-order.
//! A node is 48 bytes: an internal node carries its centre of mass, mass and
//! squared cube edge `s2`; a leaf carries its one particle as centre and
//! mass, its source index in `pidx`, and `s2 < 0` as the leaf mark. Empty
//! octants have no node. `skip` is the index of the first node outside the
//! node's subtree, so a walk needs no stack and no child pointers: "do not
//! open" is `i = skip`, "open" is `i += 1`, and the walk is over when `i`
//! runs off the array.
//!
//! The build is one recursive pass over a `u32` index array: per node a
//! *stable* 8-way counting partition into a scratch array of the same
//! length (the two swap roles one level down, so nothing is copied back and
//! no node allocates). Stability keeps every node's particles in ascending
//! source order, so mass and centre of mass are left-to-right sums over the
//! same sequence whatever the shape of the tree above them.
//!
//! ## Four targets per walk, one per lane
//!
//! [`BhTree::accel_at`] — one target, one scalar loop over the array — is
//! the definition of the result. Production walks ([`self_gravity`]) take
//! four consecutive targets together, one per AVX2 lane (owned particles are
//! SFC-sorted, so neighbours in index are neighbours in space and open
//! mostly the same nodes). Per node the group evaluates one vector
//! acceptance test, `accept = active & (s2 < θ²·d²)` (leaf: `active & (pidx
//! != skip)`); if any lane accepts, the interaction is evaluated on all four
//! lanes and *blended* into the accepting ones only. `open = active &
//! !accept` (nothing, at a leaf): if no lane opens the group takes `skip`;
//! otherwise it descends with `active = open`, and when that drops lanes it
//! first saves `(skip, active)`, restored when `i` reaches the saved `skip`.
//! Each save strictly shrinks the active set, so at most `LANES - 1` are
//! ever live.
//!
//! Why every lane gets the bits of its own scalar walk: a lane is active at
//! a node exactly when its scalar walk visits that node (by induction down
//! the tree — it is active below a node iff it was active at it and did not
//! accept), its accept bit is the scalar test on the same operands, nodes
//! are visited in array order in both walks, and a blended update is the
//! scalar statement: the same IEEE operations on the same values with the
//! same association (`((dx² + dy²) + dz²) + ε²`, `G·m / (d²·d)`, `G·m / d`,
//! `acc + f·d`, `phi − q`; no FMA, no reciprocal). Lanes never exchange
//! data, so grouping — and with it the worker count — cannot show in the
//! result. The portable body is four scalar walks; the AVX2 body is
//! hand-written like the other `cornerstone::simd` dispatches, and the tests
//! drive both on the same inputs and compare bits.
//!
//! ## What the walk is bound by, and two dead ends
//!
//! Numbers from the 33 552-particle Evrard IC in SFC order (45 345 nodes),
//! one thread of the 2.1 GHz reference host. A scalar walk makes about 530
//! node visits for 450 accepted interactions per target, and each visit is
//! a dependent chain — load the node, test it, choose the next index — of
//! about 11 ns; the arithmetic (one `sqrt`, two divisions) hides behind it.
//! That is why flattening alone buys nothing (boxed recursive walk 140–146
//! ms for all targets, flat scalar walk 150–153 ms), and why two designs
//! that leave the chain alone were measured on the prototype and dropped:
//!
//! * A scalar walk that only *collects* each target's accepted nodes and
//!   evaluates them afterwards in AVX2 batches is slower than the recursive
//!   tree it was meant to replace (220 → 270 ms on a busier host; traversal
//!   alone ~200 ms).
//! * Eight targets per group (two vectors) buy nothing over four (74–88 vs
//!   77–90 ms).
//!
//! Sharing the chain among four targets is what pays: a group makes 680
//! visits and 622 vector evaluations (73 % of their lanes used) where its
//! four scalar walks make 2 100 and 1 800, and all targets take 69–75 ms.
//! That is the throughput of the divider — `vsqrtpd` plus two `vdivpd` per
//! evaluation is ~28 cycles, 5.2 M evaluations ≈ 69 ms — so what is left is
//! lane use, not traversal. Selecting the leaf test per lane instead of
//! branching on the node kind was worth the last 6 % (76 → 71 ms). The
//! build went from 6.6–8.8 ms to 2.8–3.6 ms.

use cornerstone::Aabb;
use ranks::RankCtx;

use crate::particles::Particles;

/// Gravitational constant in simulation units (Evrard uses G = 1).
pub const G: f64 = 1.0;

/// Targets walked together, one per AVX2 lane.
const LANES: usize = 4;

/// `pidx` of an internal node and the "exclude nothing" value of a walk:
/// never a source index ([`BhTree::build`] asserts the count stays below).
const NO_PARTICLE: u32 = u32::MAX;

/// One tree node; see the module doc for the layout and the traversal.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Centre of mass (leaf: the particle's position).
    cx: f64,
    cy: f64,
    cz: f64,
    /// Aggregated mass (leaf: the particle's mass).
    m: f64,
    /// Squared edge of the node's cube; negative marks a leaf.
    s2: f64,
    /// Index of the first node outside this node's subtree.
    skip: u32,
    /// Leaf: index into the source arrays. Internal: [`NO_PARTICLE`].
    pidx: u32,
}

/// Barnes-Hut tree with configurable opening angle and Plummer softening.
#[derive(Debug)]
pub struct BhTree {
    /// Depth-first pre-order; empty for an empty source set.
    nodes: Vec<Node>,
    theta2: f64,
    eps2: f64,
}

/// Acceleration and potential at one target.
type Field = ([f64; 3], f64);

impl BhTree {
    /// Build over a global particle set. `theta` is the opening angle
    /// (0 = exact Newton sum), `eps` the Plummer softening length.
    pub fn build(x: &[f64], y: &[f64], z: &[f64], m: &[f64], theta: f64, eps: f64) -> Self {
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), z.len());
        assert_eq!(x.len(), m.len());
        assert!(
            x.len() < NO_PARTICLE as usize,
            "{} sources do not fit the tree's u32 particle indices",
            x.len()
        );
        let (center, half) = root_cube(x, y, z);
        let mut order: Vec<u32> = (0..x.len() as u32).collect();
        let mut scratch = vec![0u32; x.len()];
        let mut builder = Builder {
            x,
            y,
            z,
            m,
            nodes: Vec::with_capacity(x.len() + x.len() / 2),
        };
        builder.subtree(&mut order, &mut scratch, center, half, 0);
        BhTree {
            nodes: builder.nodes,
            theta2: theta * theta,
            eps2: eps * eps,
        }
    }

    /// Acceleration and potential at a field point. `skip` excludes one
    /// source index (self-interaction).
    pub fn accel_at(&self, px: f64, py: f64, pz: f64, skip: Option<usize>) -> ([f64; 3], f64) {
        let skip = skip
            .and_then(|s| u32::try_from(s).ok())
            .unwrap_or(NO_PARTICLE);
        self.walk_one(px, py, pz, skip)
    }

    /// The scalar walk: the definition every other walk must reproduce.
    fn walk_one(&self, px: f64, py: f64, pz: f64, skip: u32) -> Field {
        let mut acc = [0.0f64; 3];
        let mut phi = 0.0f64;
        let mut i = 0usize;
        while let Some(nd) = self.nodes.get(i) {
            let dx = nd.cx - px;
            let dy = nd.cy - py;
            let dz = nd.cz - pz;
            let d2 = dx * dx + dy * dy + dz * dz;
            let leaf = nd.s2 < 0.0;
            let accept = if leaf {
                nd.pidx != skip
            } else {
                nd.s2 < self.theta2 * d2
            };
            if accept {
                let d2 = d2 + self.eps2;
                let d = d2.sqrt();
                let f = G * nd.m / (d2 * d);
                acc[0] += f * dx;
                acc[1] += f * dy;
                acc[2] += f * dz;
                phi -= G * nd.m / d;
            }
            i = if accept || leaf {
                nd.skip as usize
            } else {
                i + 1
            };
        }
        (acc, phi)
    }

    /// Walk every target `(x[i], y[i], z[i])`, which is source `offset + i`
    /// of this tree and excluded from its own sum. Targets go through
    /// [`Self::walk_group`] four consecutive ones at a time; the last group
    /// repeats the last target in its spare lanes and drops them.
    fn accel_owned(&self, x: &[f64], y: &[f64], z: &[f64], offset: usize) -> Vec<Field> {
        let n = x.len();
        assert!(y.len() == n && z.len() == n);
        assert!(
            offset + n <= NO_PARTICLE as usize,
            "targets {offset}..{} are not u32 source indices",
            offset + n
        );
        let groups = par::par_map(n.div_ceil(LANES), |g| {
            let target = |l: usize| (g * LANES + l).min(n - 1);
            self.walk_group(
                std::array::from_fn(|l| x[target(l)]),
                std::array::from_fn(|l| y[target(l)]),
                std::array::from_fn(|l| z[target(l)]),
                std::array::from_fn(|l| (offset + target(l)) as u32),
            )
        });
        let mut out = groups.into_flattened();
        out.truncate(n);
        out
    }

    /// [`Self::walk_one`] for four targets at once: lane `l` is the target
    /// `(px[l], py[l], pz[l])` excluding source `skip[l]`. Dispatched to a
    /// hand-written AVX2 body when available (`cornerstone::simd`).
    fn walk_group(
        &self,
        px: [f64; LANES],
        py: [f64; LANES],
        pz: [f64; LANES],
        skip: [u32; LANES],
    ) -> [Field; LANES] {
        #[cfg(target_arch = "x86_64")]
        if cornerstone::simd::avx2() {
            // SAFETY: AVX2 support was just checked; the body has no other
            // precondition.
            return unsafe { self.walk_group_avx2(px, py, pz, skip) };
        }
        self.walk_group_portable(px, py, pz, skip)
    }

    fn walk_group_portable(
        &self,
        px: [f64; LANES],
        py: [f64; LANES],
        pz: [f64; LANES],
        skip: [u32; LANES],
    ) -> [Field; LANES] {
        std::array::from_fn(|l| self.walk_one(px[l], py[l], pz[l], skip[l]))
    }

    /// One pass over the node array for all four lanes (module doc, "Four
    /// targets per walk"). Every lane accumulates the values of its own
    /// [`Self::walk_one`], in the same order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn walk_group_avx2(
        &self,
        px: [f64; LANES],
        py: [f64; LANES],
        pz: [f64; LANES],
        skip: [u32; LANES],
    ) -> [Field; LANES] {
        use std::arch::x86_64::*;
        // SAFETY: each load and store below moves four f64 = 32 bytes
        // through a pointer to a whole `[f64; LANES]`; unaligned forms.
        let (px, py, pz) = unsafe {
            (
                _mm256_loadu_pd(px.as_ptr()),
                _mm256_loadu_pd(py.as_ptr()),
                _mm256_loadu_pd(pz.as_ptr()),
            )
        };
        let skip = _mm256_set_epi64x(
            skip[3] as i64,
            skip[2] as i64,
            skip[1] as i64,
            skip[0] as i64,
        );
        let theta2 = _mm256_set1_pd(self.theta2);
        let eps2 = _mm256_set1_pd(self.eps2);
        let mut ax = _mm256_setzero_pd();
        let mut ay = ax;
        let mut az = ax;
        let mut phi = ax;
        // Lane masks are all-ones / all-zeros per 64-bit lane.
        let mut active = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        // Saved `(skip, active)` of the nodes below which lanes dropped out.
        let mut saved = [(0u32, active); LANES - 1];
        let mut live = 0usize;
        let mut i = 0usize;
        loop {
            // Leaving a subtree that was entered with fewer lanes: restore
            // them. Nested subtrees can end at the same index.
            while live > 0 && saved[live - 1].0 as usize == i {
                live -= 1;
                active = saved[live].1;
            }
            let Some(nd) = self.nodes.get(i) else { break };
            let dx = _mm256_sub_pd(_mm256_set1_pd(nd.cx), px);
            let dy = _mm256_sub_pd(_mm256_set1_pd(nd.cy), py);
            let dz = _mm256_sub_pd(_mm256_set1_pd(nd.cz), pz);
            let d2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            );
            // The scalar `if leaf { pidx != skip } else { s2 < θ²·d² }` as a
            // per-lane select (all lanes of `leaf` agree): no branch on the
            // node kind, which the predictor cannot learn.
            let s2 = _mm256_set1_pd(nd.s2);
            let leaf = _mm256_cmp_pd::<_CMP_LT_OQ>(s2, _mm256_setzero_pd());
            let own = _mm256_cmpeq_epi64(_mm256_set1_epi64x(nd.pidx as i64), skip);
            let other = _mm256_andnot_pd(_mm256_castsi256_pd(own), leaf);
            let mac = _mm256_cmp_pd::<_CMP_LT_OQ>(s2, _mm256_mul_pd(theta2, d2));
            let accept = _mm256_and_pd(active, _mm256_blendv_pd(mac, other, leaf));
            let accepted = _mm256_movemask_pd(accept);
            if accepted != 0 {
                let d2 = _mm256_add_pd(d2, eps2);
                let d = _mm256_sqrt_pd(d2);
                let gm = _mm256_set1_pd(G * nd.m);
                let f = _mm256_div_pd(gm, _mm256_mul_pd(d2, d));
                let q = _mm256_div_pd(gm, d);
                ax = _mm256_blendv_pd(ax, _mm256_add_pd(ax, _mm256_mul_pd(f, dx)), accept);
                ay = _mm256_blendv_pd(ay, _mm256_add_pd(ay, _mm256_mul_pd(f, dy)), accept);
                az = _mm256_blendv_pd(az, _mm256_add_pd(az, _mm256_mul_pd(f, dz)), accept);
                phi = _mm256_blendv_pd(phi, _mm256_sub_pd(phi, q), accept);
            }
            // A leaf has nothing below it: no lane opens it.
            let open = _mm256_andnot_pd(leaf, _mm256_andnot_pd(accept, active));
            if _mm256_movemask_pd(open) == 0 {
                i = nd.skip as usize;
                continue;
            }
            if accepted != 0 {
                saved[live] = (nd.skip, active);
                live += 1;
                active = open;
            }
            i += 1;
        }
        let mut out = [[0.0f64; LANES]; 4];
        // SAFETY: see the loads above.
        unsafe {
            _mm256_storeu_pd(out[0].as_mut_ptr(), ax);
            _mm256_storeu_pd(out[1].as_mut_ptr(), ay);
            _mm256_storeu_pd(out[2].as_mut_ptr(), az);
            _mm256_storeu_pd(out[3].as_mut_ptr(), phi);
        }
        std::array::from_fn(|l| ([out[0][l], out[1][l], out[2][l]], out[3][l]))
    }
}

/// Centre and half edge of the root cube: the bounding cube of the sources
/// with a little slack, or the unit cube when there are none.
fn root_cube(x: &[f64], y: &[f64], z: &[f64]) -> ([f64; 3], f64) {
    let bb = Aabb::of_points(x, y, z);
    if bb.is_empty() {
        return ([0.0; 3], 1.0);
    }
    let half = ((bb.xmax - bb.xmin)
        .max(bb.ymax - bb.ymin)
        .max(bb.zmax - bb.zmin)
        / 2.0)
        .max(1e-9)
        * 1.001;
    let center = [
        (bb.xmin + bb.xmax) / 2.0,
        (bb.ymin + bb.ymax) / 2.0,
        (bb.zmin + bb.zmax) / 2.0,
    ];
    (center, half)
}

/// A node index as a `skip` link.
fn link(index: usize) -> u32 {
    u32::try_from(index).expect("node count fits the u32 skip links")
}

/// Appends one subtree at a time to `nodes`, reading the borrowed sources.
struct Builder<'a> {
    x: &'a [f64],
    y: &'a [f64],
    z: &'a [f64],
    m: &'a [f64],
    nodes: Vec<Node>,
}

impl Builder<'_> {
    /// Append the subtree over the particles `idx` (ascending source order)
    /// in the cube `center ± half`. `scratch` is as long as `idx`; both are
    /// overwritten.
    fn subtree(
        &mut self,
        idx: &mut [u32],
        scratch: &mut [u32],
        center: [f64; 3],
        half: f64,
        depth: u32,
    ) {
        match idx.len() {
            0 => {}
            1 => self.leaf(idx[0]),
            _ => {
                let me = self.nodes.len();
                let (m, [cx, cy, cz]) = self.aggregate(idx);
                let size = half * 2.0;
                self.nodes.push(Node {
                    cx,
                    cy,
                    cz,
                    m,
                    s2: size * size,
                    skip: 0,
                    pidx: NO_PARTICLE,
                });
                if depth > 48 {
                    // Depth guard: coincident points cannot be separated;
                    // the aggregate stands for them, over one leaf.
                    self.leaf(idx[0]);
                } else {
                    self.children(idx, scratch, center, half, depth);
                }
                self.nodes[me].skip = link(self.nodes.len());
            }
        }
    }

    /// Partition `idx` by octant into `scratch` — stable, so each child's
    /// particles stay in ascending source order — and append the eight
    /// subtrees with the two arrays' roles swapped.
    fn children(
        &mut self,
        idx: &mut [u32],
        scratch: &mut [u32],
        center: [f64; 3],
        half: f64,
        depth: u32,
    ) {
        let (x, y, z) = (self.x, self.y, self.z);
        let octant = |i: u32| {
            let i = i as usize;
            usize::from(x[i] >= center[0])
                | usize::from(y[i] >= center[1]) << 1
                | usize::from(z[i] >= center[2]) << 2
        };
        let mut start = [0usize; 9];
        for &i in idx.iter() {
            start[octant(i) + 1] += 1;
        }
        for oct in 0..8 {
            start[oct + 1] += start[oct];
        }
        let mut cursor = start;
        for &i in idx.iter() {
            let oct = octant(i);
            scratch[cursor[oct]] = i;
            cursor[oct] += 1;
        }
        let quarter = half / 2.0;
        for oct in 0..8 {
            let (lo, hi) = (start[oct], start[oct + 1]);
            let cx = center[0] + if oct & 1 != 0 { quarter } else { -quarter };
            let cy = center[1] + if oct & 2 != 0 { quarter } else { -quarter };
            let cz = center[2] + if oct & 4 != 0 { quarter } else { -quarter };
            self.subtree(
                &mut scratch[lo..hi],
                &mut idx[lo..hi],
                [cx, cy, cz],
                quarter,
                depth + 1,
            );
        }
    }

    fn leaf(&mut self, i: u32) {
        let skip = link(self.nodes.len() + 1);
        let p = i as usize;
        self.nodes.push(Node {
            cx: self.x[p],
            cy: self.y[p],
            cz: self.z[p],
            m: self.m[p],
            s2: -1.0,
            skip,
            pidx: i,
        });
    }

    /// Mass and centre of mass of the particles `idx`, summed left to right.
    fn aggregate(&self, idx: &[u32]) -> (f64, [f64; 3]) {
        let (x, y, z, m) = (self.x, self.y, self.z, self.m);
        let mass: f64 = idx.iter().map(|&i| m[i as usize]).sum();
        let mut c = [0.0f64; 3];
        for &i in idx {
            let i = i as usize;
            c[0] += m[i] * x[i];
            c[1] += m[i] * y[i];
            c[2] += m[i] * z[i];
        }
        if mass > 0.0 {
            c[0] /= mass;
            c[1] /= mass;
            c[2] /= mass;
        }
        (mass, c)
    }
}

/// Self-gravity of the particles the ranks own, on this rank's share: every
/// rank contributes its owned `x, y, z, m` to one allgather, builds the same
/// global tree (with its own `eps`), and walks its own particles through it,
/// each excluded from its own sum. Returns acceleration and potential per
/// owned particle, in index order. Collective: every rank must call it, a
/// rank that owns nothing included (it gets an empty result).
///
/// The walks run on the `par` workers over groups of four targets; nothing
/// is reduced across targets here, so the result is the same at any worker
/// count, and callers fold the potential serially in index order.
pub fn self_gravity(
    ctx: &mut RankCtx,
    parts: &Particles,
    theta: f64,
    eps: f64,
) -> Vec<([f64; 3], f64)> {
    let n = parts.n_local;
    let mut payload = Vec::with_capacity(n * 4);
    for i in 0..n {
        payload.extend_from_slice(&[parts.x[i], parts.y[i], parts.z[i], parts.m[i]]);
    }
    let gathered = ctx.allgather_f64s(&payload);
    let total: usize = gathered.iter().map(|buf| buf.len() / 4).sum();
    let mut gx = Vec::with_capacity(total);
    let mut gy = Vec::with_capacity(total);
    let mut gz = Vec::with_capacity(total);
    let mut gm = Vec::with_capacity(total);
    let mut my_offset = 0usize;
    for (r, buf) in gathered.iter().enumerate() {
        if r == ctx.rank() {
            my_offset = gx.len();
        }
        for c in buf.chunks_exact(4) {
            gx.push(c[0]);
            gy.push(c[1]);
            gz.push(c[2]);
            gm.push(c[3]);
        }
    }
    let t0 = telemetry::active().then(std::time::Instant::now);
    let tree = BhTree::build(&gx, &gy, &gz, &gm, theta, eps);
    let t1 = t0.map(|_| std::time::Instant::now());
    let walks = tree.accel_owned(&parts.x[..n], &parts.y[..n], &parts.z[..n], my_offset);
    if let (Some(t0), Some(t1)) = (t0, t1) {
        telemetry::gauge_set("gravity/nodes", tree.nodes.len() as f64);
        telemetry::gauge_set("gravity/build_ms", (t1 - t0).as_secs_f64() * 1e3);
        telemetry::gauge_set("gravity/walk_ms", t1.elapsed().as_secs_f64() * 1e3);
    }
    walks
}

/// Direct O(n²) reference sum (tests and small systems).
pub fn direct_accel(
    x: &[f64],
    y: &[f64],
    z: &[f64],
    m: &[f64],
    i: usize,
    eps: f64,
) -> ([f64; 3], f64) {
    let mut acc = [0.0f64; 3];
    let mut phi = 0.0;
    let eps2 = eps * eps;
    for j in 0..x.len() {
        if j == i {
            continue;
        }
        let dx = x[j] - x[i];
        let dy = y[j] - y[i];
        let dz = z[j] - z[i];
        let d2 = dx * dx + dy * dy + dz * dz + eps2;
        let d = d2.sqrt();
        let f = G * m[j] / (d2 * d);
        acc[0] += f * dx;
        acc[1] += f * dy;
        acc[2] += f * dz;
        phi -= G * m[j] / d;
    }
    (acc, phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::Rng;

    fn sphere_cloud(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        while x.len() < n {
            let (a, b, c) = (
                rng.unit() * 2.0 - 1.0,
                rng.unit() * 2.0 - 1.0,
                rng.unit() * 2.0 - 1.0,
            );
            if a * a + b * b + c * c <= 1.0 {
                x.push(a);
                y.push(b);
                z.push(c);
            }
        }
        let m = vec![1.0 / n as f64; n];
        (x, y, z, m)
    }

    #[test]
    fn two_body_matches_newton() {
        let x = vec![-0.5, 0.5];
        let y = vec![0.0, 0.0];
        let z = vec![0.0, 0.0];
        let m = vec![2.0, 3.0];
        let tree = BhTree::build(&x, &y, &z, &m, 0.5, 0.0);
        let (a0, phi0) = tree.accel_at(x[0], y[0], z[0], Some(0));
        // F = G m2 / d^2 = 3.0 toward +x.
        assert!((a0[0] - 3.0).abs() < 1e-12, "ax {}", a0[0]);
        assert!(a0[1].abs() < 1e-12 && a0[2].abs() < 1e-12);
        assert!((phi0 + 3.0).abs() < 1e-12, "phi {phi0}");
        let (a1, _) = tree.accel_at(x[1], y[1], z[1], Some(1));
        assert!((a1[0] + 2.0).abs() < 1e-12, "reaction force");
    }

    #[test]
    fn theta_zero_matches_direct_sum_exactly() {
        let (x, y, z, m) = sphere_cloud(150, 1);
        let tree = BhTree::build(&x, &y, &z, &m, 0.0, 0.01);
        for i in (0..150).step_by(29) {
            let (at, pt) = tree.accel_at(x[i], y[i], z[i], Some(i));
            let (ad, pd) = direct_accel(&x, &y, &z, &m, i, 0.01);
            for k in 0..3 {
                assert!(
                    (at[k] - ad[k]).abs() < 1e-10,
                    "component {k}: {} vs {}",
                    at[k],
                    ad[k]
                );
            }
            assert!((pt - pd).abs() < 1e-10);
        }
    }

    #[test]
    fn moderate_theta_approximates_direct_sum() {
        let (x, y, z, m) = sphere_cloud(400, 2);
        let tree = BhTree::build(&x, &y, &z, &m, 0.6, 0.01);
        let mut max_rel = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut count = 0usize;
        for i in (0..400).step_by(31) {
            let (at, _) = tree.accel_at(x[i], y[i], z[i], Some(i));
            let (ad, _) = direct_accel(&x, &y, &z, &m, i, 0.01);
            let mag = (ad[0].powi(2) + ad[1].powi(2) + ad[2].powi(2))
                .sqrt()
                .max(1e-12);
            let err = ((at[0] - ad[0]).powi(2) + (at[1] - ad[1]).powi(2) + (at[2] - ad[2]).powi(2))
                .sqrt()
                / mag;
            max_rel = max_rel.max(err);
            sum_sq += err * err;
            count += 1;
        }
        let rms = (sum_sq / count as f64).sqrt();
        assert!(rms < 0.04, "BH rms error {rms} too large for theta=0.6");
        assert!(max_rel < 0.15, "BH worst-case error {max_rel} too large");
    }

    #[test]
    fn far_field_looks_like_point_mass() {
        let (x, y, z, m) = sphere_cloud(200, 3);
        let tree = BhTree::build(&x, &y, &z, &m, 0.7, 0.0);
        // Total mass 1 at ~origin; field at distance 10 ~ 1/100.
        let (a, phi) = tree.accel_at(10.0, 0.0, 0.0, None);
        assert!((a[0] + 0.01).abs() < 5e-4, "ax {}", a[0]);
        assert!((phi + 0.1).abs() < 5e-3, "phi {phi}");
    }

    #[test]
    fn coincident_points_do_not_recurse_forever() {
        let x = vec![0.25; 10];
        let y = vec![0.25; 10];
        let z = vec![0.25; 10];
        let m = vec![0.1; 10];
        let tree = BhTree::build(&x, &y, &z, &m, 0.5, 0.05);
        let (a, _) = tree.accel_at(0.5, 0.5, 0.5, None);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_tree_exerts_no_force() {
        let tree = BhTree::build(&[], &[], &[], &[], 0.5, 0.0);
        let (a, phi) = tree.accel_at(1.0, 2.0, 3.0, None);
        assert_eq!(a, [0.0; 3]);
        assert_eq!(phi, 0.0);
    }

    // ---- The retired recursive tree, kept as the oracle of the flat one ----

    /// A node of [`RecursiveTree`].
    #[derive(Debug)]
    enum RecNode {
        Empty,
        Leaf(usize),
        Internal {
            children: Box<[RecNode; 8]>,
            mass: f64,
            com: [f64; 3],
            size: f64,
        },
    }

    /// The boxed, one-vector-per-bucket Barnes-Hut tree `BhTree` replaced,
    /// verbatim apart from the names and the dropped parallel fan-out (which
    /// built the same tree): the flat build and walk must agree with it bit
    /// for bit.
    struct RecursiveTree<'a> {
        root: RecNode,
        theta2: f64,
        eps2: f64,
        src: [&'a [f64]; 4],
    }

    impl<'a> RecursiveTree<'a> {
        fn build(
            x: &'a [f64],
            y: &'a [f64],
            z: &'a [f64],
            m: &'a [f64],
            theta: f64,
            eps: f64,
        ) -> Self {
            let (center, half) = root_cube(x, y, z);
            let src = [x, y, z, m];
            let root = Self::node(&src, (0..x.len()).collect(), center, half, 0);
            RecursiveTree {
                root,
                theta2: theta * theta,
                eps2: eps * eps,
                src,
            }
        }

        fn node(
            src: &[&[f64]; 4],
            indices: Vec<usize>,
            center: [f64; 3],
            half: f64,
            depth: u32,
        ) -> RecNode {
            let [x, y, z, m] = *src;
            match indices.len() {
                0 => RecNode::Empty,
                1 => RecNode::Leaf(indices[0]),
                _ => {
                    let mass: f64 = indices.iter().map(|&i| m[i]).sum();
                    let mut com = [0.0f64; 3];
                    for &i in &indices {
                        com[0] += m[i] * x[i];
                        com[1] += m[i] * y[i];
                        com[2] += m[i] * z[i];
                    }
                    if mass > 0.0 {
                        com[0] /= mass;
                        com[1] /= mass;
                        com[2] /= mass;
                    }
                    let mut children: [RecNode; 8] = std::array::from_fn(|_| RecNode::Empty);
                    if depth > 48 {
                        children[7] = RecNode::Leaf(indices[0]);
                    } else {
                        let mut buckets: [Vec<usize>; 8] = Default::default();
                        for &i in &indices {
                            let mut oct = 0usize;
                            if x[i] >= center[0] {
                                oct |= 1;
                            }
                            if y[i] >= center[1] {
                                oct |= 2;
                            }
                            if z[i] >= center[2] {
                                oct |= 4;
                            }
                            buckets[oct].push(i);
                        }
                        let quarter = half / 2.0;
                        for (oct, bucket) in buckets.into_iter().enumerate() {
                            let cx = center[0] + if oct & 1 != 0 { quarter } else { -quarter };
                            let cy = center[1] + if oct & 2 != 0 { quarter } else { -quarter };
                            let cz = center[2] + if oct & 4 != 0 { quarter } else { -quarter };
                            children[oct] =
                                Self::node(src, bucket, [cx, cy, cz], quarter, depth + 1);
                        }
                    }
                    RecNode::Internal {
                        children: Box::new(children),
                        mass,
                        com,
                        size: half * 2.0,
                    }
                }
            }
        }

        fn accel_at(&self, px: f64, py: f64, pz: f64, skip: Option<usize>) -> Field {
            let mut acc = [0.0f64; 3];
            let mut phi = 0.0f64;
            self.walk(&self.root, [px, py, pz], skip, &mut acc, &mut phi);
            (acc, phi)
        }

        fn walk(
            &self,
            node: &RecNode,
            p: [f64; 3],
            skip: Option<usize>,
            acc: &mut [f64; 3],
            phi: &mut f64,
        ) {
            let [x, y, z, m] = self.src;
            match node {
                RecNode::Empty => {}
                RecNode::Leaf(i) => {
                    if skip == Some(*i) {
                        return;
                    }
                    self.point_contribution([x[*i], y[*i], z[*i]], m[*i], p, acc, phi);
                }
                RecNode::Internal {
                    children,
                    mass,
                    com,
                    size,
                } => {
                    let dx = com[0] - p[0];
                    let dy = com[1] - p[1];
                    let dz = com[2] - p[2];
                    let d2 = dx * dx + dy * dy + dz * dz;
                    if size * size < self.theta2 * d2 {
                        self.point_contribution(*com, *mass, p, acc, phi);
                    } else {
                        for c in children.iter() {
                            self.walk(c, p, skip, acc, phi);
                        }
                    }
                }
            }
        }

        fn point_contribution(
            &self,
            s: [f64; 3],
            sm: f64,
            p: [f64; 3],
            acc: &mut [f64; 3],
            phi: &mut f64,
        ) {
            let dx = s[0] - p[0];
            let dy = s[1] - p[1];
            let dz = s[2] - p[2];
            let d2 = dx * dx + dy * dy + dz * dz + self.eps2;
            let d = d2.sqrt();
            let f = G * sm / (d2 * d);
            acc[0] += f * dx;
            acc[1] += f * dy;
            acc[2] += f * dz;
            *phi -= G * sm / d;
        }

        /// Nodes in pre-order as `(mass, com, size², leaf index)` bit
        /// patterns — the flat array's content, derived independently.
        fn preorder(&self) -> Vec<[u64; 6]> {
            fn rec(tree: &RecursiveTree, node: &RecNode, out: &mut Vec<[u64; 6]>) {
                let [x, y, z, m] = tree.src;
                match node {
                    RecNode::Empty => {}
                    RecNode::Leaf(i) => out.push([
                        m[*i].to_bits(),
                        x[*i].to_bits(),
                        y[*i].to_bits(),
                        z[*i].to_bits(),
                        (-1.0f64).to_bits(),
                        *i as u64,
                    ]),
                    RecNode::Internal {
                        children,
                        mass,
                        com,
                        size,
                    } => {
                        out.push([
                            mass.to_bits(),
                            com[0].to_bits(),
                            com[1].to_bits(),
                            com[2].to_bits(),
                            (size * size).to_bits(),
                            NO_PARTICLE as u64,
                        ]);
                        for c in children.iter() {
                            rec(tree, c, out);
                        }
                    }
                }
            }
            let mut out = Vec::new();
            rec(self, &self.root, &mut out);
            out
        }
    }

    fn bits((a, phi): Field) -> [u64; 4] {
        [
            a[0].to_bits(),
            a[1].to_bits(),
            a[2].to_bits(),
            phi.to_bits(),
        ]
    }

    type Cloud = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

    fn cloud_of(parts: &Particles) -> Cloud {
        (
            parts.x.clone(),
            parts.y.clone(),
            parts.z.clone(),
            parts.m.clone(),
        )
    }

    /// Uneven masses and a dense clump, so octants fill very unevenly.
    fn lumpy_cloud(n: usize, seed: u64) -> Cloud {
        let mut rng = Rng::seed_from_u64(seed);
        let mut c: Cloud = Default::default();
        for i in 0..n {
            let s = if i % 3 == 0 { 0.05 } else { 1.0 };
            c.0.push(0.3 + s * (rng.unit() - 0.5));
            c.1.push(-0.2 + s * (rng.unit() - 0.5));
            c.2.push(0.1 + s * (rng.unit() - 0.5));
            c.3.push(0.5 + rng.unit());
        }
        c
    }

    /// The clouds the oracle comparisons run over: the three gravity ICs,
    /// random clouds, tiny counts, and ten coincident points (depth guard).
    fn oracle_clouds() -> Vec<(&'static str, Cloud)> {
        let mut out = vec![
            ("evrard", cloud_of(&crate::ic::evrard(9).parts)),
            (
                "plummer",
                cloud_of(&crate::nbody::plummer(300, 1.0, 5).parts),
            ),
            ("disk", cloud_of(&crate::ic::rotating_disk(12).parts)),
            ("sphere", sphere_cloud(257, 11)),
            ("lumpy", lumpy_cloud(403, 12)),
            (
                "coincident",
                (
                    vec![0.25; 10],
                    vec![0.25; 10],
                    vec![0.25; 10],
                    vec![0.1; 10],
                ),
            ),
        ];
        for n in [0, 1, 2, 3, 5] {
            out.push(("tiny", lumpy_cloud(n, 20 + n as u64)));
        }
        out
    }

    #[test]
    fn flat_tree_is_the_recursive_tree_node_for_node() {
        assert_eq!(std::mem::size_of::<Node>(), 48);
        for (name, (x, y, z, m)) in oracle_clouds() {
            let flat = BhTree::build(&x, &y, &z, &m, 0.6, 0.01);
            let rec = RecursiveTree::build(&x, &y, &z, &m, 0.6, 0.01);
            let got: Vec<[u64; 6]> = flat
                .nodes
                .iter()
                .map(|nd| {
                    [
                        nd.m.to_bits(),
                        nd.cx.to_bits(),
                        nd.cy.to_bits(),
                        nd.cz.to_bits(),
                        nd.s2.to_bits(),
                        nd.pidx as u64,
                    ]
                })
                .collect();
            assert_eq!(got, rec.preorder(), "{name}, n = {}", x.len());
            // `skip` closes each subtree: leaves step by one, every link
            // points forward and stays inside the enclosing subtree.
            for (i, nd) in flat.nodes.iter().enumerate() {
                let skip = nd.skip as usize;
                assert!(skip > i && skip <= flat.nodes.len(), "{name}: node {i}");
                if nd.s2 < 0.0 {
                    assert_eq!(skip, i + 1, "{name}: leaf {i}");
                }
                for inner in &flat.nodes[i + 1..skip] {
                    assert!(inner.skip as usize <= skip, "{name}: subtree of {i}");
                }
            }
        }
    }

    #[test]
    fn flat_walk_matches_the_recursive_walk_bit_for_bit() {
        let field_points = [[10.0, 0.0, 0.0], [0.3, -0.2, 0.1], [-3.0, 4.0, 0.5]];
        for (name, (x, y, z, m)) in oracle_clouds() {
            for theta in [0.0, 0.6, 1.0] {
                for eps in [0.0, 0.03] {
                    let flat = BhTree::build(&x, &y, &z, &m, theta, eps);
                    let rec = RecursiveTree::build(&x, &y, &z, &m, theta, eps);
                    for i in 0..x.len() {
                        assert_eq!(
                            bits(flat.accel_at(x[i], y[i], z[i], Some(i))),
                            bits(rec.accel_at(x[i], y[i], z[i], Some(i))),
                            "{name}: target {i}, theta {theta}, eps {eps}"
                        );
                    }
                    for [px, py, pz] in field_points {
                        assert_eq!(
                            bits(flat.accel_at(px, py, pz, None)),
                            bits(rec.accel_at(px, py, pz, None)),
                            "{name}: field point, theta {theta}, eps {eps}"
                        );
                    }
                }
            }
        }
    }

    // ---- The group walk against the scalar walk ----

    /// What one group's walk must go through, worked out from the scalar
    /// acceptance test and the tree alone (no code shared with the vector
    /// body): which accept masks occur, how deep saved lane sets nest, and
    /// whether two of them end on the same node index.
    #[derive(Default)]
    struct GroupShape {
        accept_masks: [bool; 16],
        max_nesting: usize,
        pop_into_pop: bool,
    }

    impl GroupShape {
        /// Visit node `i` with the lanes in `active`; returns its `skip`.
        /// `saved` holds the `skip` of every enclosing node below which
        /// lanes dropped out.
        fn visit(
            &mut self,
            tree: &BhTree,
            i: usize,
            active: usize,
            targets: &[([f64; 3], u32); LANES],
            saved: &mut Vec<u32>,
        ) -> usize {
            let nd = &tree.nodes[i];
            let leaf = nd.s2 < 0.0;
            let mut accept = 0usize;
            for (l, ([px, py, pz], skip)) in targets.iter().enumerate() {
                let (dx, dy, dz) = (nd.cx - px, nd.cy - py, nd.cz - pz);
                let ok = if leaf {
                    nd.pidx != *skip
                } else {
                    nd.s2 < tree.theta2 * (dx * dx + dy * dy + dz * dz)
                };
                if ok && active & (1 << l) != 0 {
                    accept |= 1 << l;
                }
            }
            self.accept_masks[accept] = true;
            let open = active & !accept;
            if leaf || open == 0 {
                return nd.skip as usize;
            }
            let narrowed = open != active;
            if narrowed {
                self.pop_into_pop |= saved.last() == Some(&nd.skip);
                saved.push(nd.skip);
                self.max_nesting = self.max_nesting.max(saved.len());
            }
            let mut j = i + 1;
            while j < nd.skip as usize {
                j = self.visit(tree, j, open, targets, saved);
            }
            if narrowed {
                saved.pop();
            }
            nd.skip as usize
        }
    }

    /// Both bodies of the group walk on consecutive targets of `cloud`
    /// (`targets` of them, starting at source `offset`), against
    /// `accel_at`, with `shape` collecting what the groups went through.
    fn check_groups(
        (x, y, z, m): &Cloud,
        offset: usize,
        targets: usize,
        theta: f64,
        eps: f64,
        shape: &mut GroupShape,
    ) {
        let tree = BhTree::build(x, y, z, m, theta, eps);
        let (tx, ty, tz) = (
            &x[offset..offset + targets],
            &y[offset..offset + targets],
            &z[offset..offset + targets],
        );
        let want: Vec<[u64; 4]> = (0..targets)
            .map(|i| bits(tree.accel_at(tx[i], ty[i], tz[i], Some(offset + i))))
            .collect();
        // The production entry point: dispatch, tail padding, truncation.
        let got = tree.accel_owned(tx, ty, tz, offset);
        assert_eq!(got.len(), targets);
        assert_eq!(
            got.into_iter().map(bits).collect::<Vec<_>>(),
            want,
            "accel_owned: n = {}, offset {offset}, {targets} targets",
            x.len()
        );
        // Both bodies driven directly, group by group.
        for g in 0..targets.div_ceil(LANES) {
            let t = |l: usize| (g * LANES + l).min(targets - 1);
            let px: [f64; LANES] = std::array::from_fn(|l| tx[t(l)]);
            let py: [f64; LANES] = std::array::from_fn(|l| ty[t(l)]);
            let pz: [f64; LANES] = std::array::from_fn(|l| tz[t(l)]);
            let skip: [u32; LANES] = std::array::from_fn(|l| (offset + t(l)) as u32);
            let expect: [[u64; 4]; LANES] = std::array::from_fn(|l| want[t(l)]);
            assert_eq!(
                tree.walk_group_portable(px, py, pz, skip).map(bits),
                expect,
                "portable body, group {g}"
            );
            #[cfg(target_arch = "x86_64")]
            if cornerstone::simd::avx2() {
                // SAFETY: AVX2 support was just checked.
                let fast = unsafe { tree.walk_group_avx2(px, py, pz, skip) };
                assert_eq!(fast.map(bits), expect, "AVX2 body, group {g}");
            }
            let lanes: [([f64; 3], u32); LANES] =
                std::array::from_fn(|l| ([px[l], py[l], pz[l]], skip[l]));
            let mut i = 0;
            while i < tree.nodes.len() {
                i = shape.visit(&tree, i, (1 << LANES) - 1, &lanes, &mut Vec::new());
            }
        }
    }

    #[test]
    fn group_walk_matches_accel_at_bitwise_in_both_bodies() {
        let mut shape = GroupShape::default();
        // Every tail length, fewer targets than lanes, a non-zero rank
        // offset, and the rest of the sources outside the walked range.
        for n in [1, 2, 3, 4, 5, 6, 7, 8, 61, 62, 63, 64] {
            let cloud = lumpy_cloud(n, 40 + n as u64);
            check_groups(&cloud, 0, n, 0.6, 0.02, &mut shape);
        }
        let cloud = lumpy_cloud(200, 7);
        for (offset, targets) in [(0, 200), (57, 143), (57, 86), (198, 2), (100, 0)] {
            check_groups(&cloud, offset, targets, 0.6, 0.0, &mut shape);
        }
        for (_, cloud) in oracle_clouds() {
            let n = cloud.0.len();
            for theta in [0.0, 0.6, 1.0] {
                check_groups(&cloud, 0, n, theta, 0.01, &mut shape);
            }
        }
        // A source excluded by a lane that sits outside the group's targets
        // (and one that is no source at all) next to one inside it.
        let (x, y, z, m) = &cloud;
        let tree = BhTree::build(x, y, z, m, 0.6, 0.01);
        let px = [x[8], x[9], 0.9, x[11]];
        let py = [y[8], y[9], -0.4, y[11]];
        let pz = [z[8], z[9], 0.3, z[11]];
        let skip = [8, 150, NO_PARTICLE, 10];
        let want: [[u64; 4]; LANES] =
            std::array::from_fn(|l| bits(tree.walk_one(px[l], py[l], pz[l], skip[l])));
        assert_eq!(tree.walk_group_portable(px, py, pz, skip).map(bits), want);
        assert_eq!(tree.walk_group(px, py, pz, skip).map(bits), want);

        // Lanes share nothing: a target that is not a number poisons its
        // own lane (in both bodies) and leaves the other three alone.
        let px = [x[8], f64::NAN, 0.9, x[11]];
        let got = tree.walk_group(px, py, pz, skip);
        let slow = tree.walk_group_portable(px, py, pz, skip);
        for l in [0, 2, 3] {
            assert_eq!(bits(got[l]), want[l]);
            assert_eq!(bits(slow[l]), want[l]);
        }
        assert!(got[1].1.is_nan() && slow[1].1.is_nan());

        assert!(
            shape.accept_masks[1..].iter().all(|&seen| seen),
            "all 15 non-empty accept masks exercised: {:?}",
            shape.accept_masks
        );
        assert_eq!(
            shape.max_nesting,
            LANES - 1,
            "lanes dropped out one at a time down one branch"
        );
        assert!(
            shape.pop_into_pop,
            "two saved lane sets restored at the same node index"
        );
    }

    #[test]
    fn self_gravity_of_an_empty_rank_is_empty() {
        use ranks::CommCost;
        // Rank 1 owns nothing: it still joins the allgather, and gets an
        // empty result; rank 0 gets the single-rank answer. Then nobody
        // owns anything: the tree is empty too.
        let ic = crate::ic::evrard(6);
        let n = ic.parts.len();
        let out = ranks::run(2, CommCost::default(), |ctx| {
            let mut parts = crate::ic::evrard(6).parts;
            if ctx.rank() == 1 {
                parts = Particles::new();
            }
            let walks = self_gravity(ctx, &parts, 0.6, 0.05);
            let none = self_gravity(ctx, &Particles::new(), 0.6, 0.05);
            (walks, none)
        });
        assert_eq!(out[0].0.len(), n);
        assert!(out[1].0.is_empty());
        assert!(out[0].1.is_empty() && out[1].1.is_empty());
        let p = &ic.parts;
        let tree = BhTree::build(&p.x, &p.y, &p.z, &p.m, 0.6, 0.05);
        for i in 0..n {
            assert_eq!(
                bits(out[0].0[i]),
                bits(tree.accel_at(p.x[i], p.y[i], p.z[i], Some(i)))
            );
        }
    }
}
