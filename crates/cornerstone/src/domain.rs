//! SFC domain decomposition and halo candidate discovery.
//!
//! Each rank owns a contiguous key range of the global SFC (derived from the
//! octree's balanced partition). Halos are discovered geometrically: a rank
//! sends every local particle lying within the interaction radius of a peer's
//! bounding box — the exchange pattern `DomainDecompAndSync` performs each
//! time-step.

use serde::{Deserialize, Serialize};

use crate::box3::Box3;
use crate::key::KEY_END;
use crate::octree::Octree;

/// The global SFC partition: rank `r` owns keys in `[splits[r], splits[r+1])`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    splits: Vec<u64>,
}

impl Assignment {
    /// Partition the key space into `parts` domains balanced by the octree's
    /// leaf counts.
    pub fn from_octree(tree: &Octree, parts: usize) -> Self {
        Assignment {
            splits: tree.partition(parts),
        }
    }

    /// Build directly from split keys (first must be 0, last `KEY_END`).
    pub fn from_splits(splits: Vec<u64>) -> Self {
        Self::try_from_splits(splits).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Assignment::from_splits`] for splits read from outside the run (a
    /// checkpoint manifest): the same rule, a breach returned as an error.
    pub fn try_from_splits(splits: Vec<u64>) -> Result<Self, String> {
        if splits.len() < 2 {
            return Err("splits must name at least one domain".to_string());
        }
        if splits[0] != 0 || splits[splits.len() - 1] != KEY_END {
            return Err(format!("splits must run from 0 to KEY_END {KEY_END}"));
        }
        if !splits.windows(2).all(|w| w[0] <= w[1]) {
            return Err("splits must be sorted".to_string());
        }
        Ok(Assignment { splits })
    }

    /// Number of domains.
    pub fn parts(&self) -> usize {
        self.splits.len() - 1
    }

    /// Key range owned by `rank`.
    pub fn range(&self, rank: usize) -> (u64, u64) {
        (self.splits[rank], self.splits[rank + 1])
    }

    /// Which rank owns `key`.
    pub fn rank_of_key(&self, key: u64) -> usize {
        debug_assert!(key < KEY_END);
        (self.splits.partition_point(|&s| s <= key) - 1).min(self.parts() - 1)
    }

    /// All split keys.
    pub fn splits(&self) -> &[u64] {
        &self.splits
    }
}

/// Load skew of a per-rank particle census: `max / mean` of the counts.
///
/// This is the repartition trigger the incremental decomposition uses: a
/// perfectly balanced assignment scores 1.0, and a rank carrying twice its
/// share scores ≥ 2.0. An empty census (or all-empty ranks) scores 1.0 —
/// nothing to balance, so nothing to trigger.
pub fn load_skew(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / counts.len() as f64;
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

/// Axis-aligned bounding box of a rank's particles, exchanged during halo
/// discovery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    pub xmin: f64,
    pub xmax: f64,
    pub ymin: f64,
    pub ymax: f64,
    pub zmin: f64,
    pub zmax: f64,
}

impl Aabb {
    /// Empty box (inverted bounds); grows with [`Aabb::include`].
    pub fn empty() -> Self {
        Aabb {
            xmin: f64::INFINITY,
            xmax: f64::NEG_INFINITY,
            ymin: f64::INFINITY,
            ymax: f64::NEG_INFINITY,
            zmin: f64::INFINITY,
            zmax: f64::NEG_INFINITY,
        }
    }

    /// Bounding box of a point set (empty box for no points), boxed on all
    /// workers in fixed blocks (`par::par_fold`): min and max are exact, so
    /// this is the serial fold's box at any worker count.
    pub fn of_points(x: &[f64], y: &[f64], z: &[f64]) -> Self {
        let boxed = |r: std::ops::Range<usize>| {
            let mut b = Aabb::empty();
            for i in r {
                b.include(x[i], y[i], z[i]);
            }
            b
        };
        par::par_fold(x.len(), boxed, |a, b| Aabb {
            xmin: a.xmin.min(b.xmin),
            xmax: a.xmax.max(b.xmax),
            ymin: a.ymin.min(b.ymin),
            ymax: a.ymax.max(b.ymax),
            zmin: a.zmin.min(b.zmin),
            zmax: a.zmax.max(b.zmax),
        })
    }

    /// Grow to contain a point.
    pub fn include(&mut self, x: f64, y: f64, z: f64) {
        self.xmin = self.xmin.min(x);
        self.xmax = self.xmax.max(x);
        self.ymin = self.ymin.min(y);
        self.ymax = self.ymax.max(y);
        self.zmin = self.zmin.min(z);
        self.zmax = self.zmax.max(z);
    }

    /// True if no point was ever included.
    pub fn is_empty(&self) -> bool {
        self.xmin > self.xmax
    }

    /// Squared distance from a point to this box (0 inside), with periodic
    /// minimum-image handling along each axis when `bbox` is periodic.
    pub fn dist2_to_point(&self, px: f64, py: f64, pz: f64, bbox: &Box3) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let axis = |p: f64, lo: f64, hi: f64, len: f64| -> f64 {
            if p >= lo && p <= hi {
                return 0.0;
            }
            let mut d = if p < lo { lo - p } else { p - hi };
            if bbox.periodic {
                // The image of the point one box-length away may be closer.
                let d_wrap_lo = (p + len - hi).abs().min((p + len - lo).abs());
                let d_wrap_hi = (p - len - lo).abs().min((p - len - hi).abs());
                let inside_wrap =
                    (p + len >= lo && p + len <= hi) || (p - len >= lo && p - len <= hi);
                if inside_wrap {
                    return 0.0;
                }
                d = d.min(d_wrap_lo).min(d_wrap_hi);
            }
            d
        };
        let dx = axis(px, self.xmin, self.xmax, bbox.lx());
        let dy = axis(py, self.ymin, self.ymax, bbox.ly());
        let dz = axis(pz, self.zmin, self.zmax, bbox.lz());
        dx * dx + dy * dy + dz * dz
    }
}

/// Indices of local particles that must be sent to a peer whose particles
/// live in `peer_box`: everything within `radius` of that box.
pub fn halo_candidates(
    x: &[f64],
    y: &[f64],
    z: &[f64],
    peer_box: &Aabb,
    radius: f64,
    bbox: &Box3,
) -> Vec<usize> {
    let r2 = radius * radius;
    (0..x.len())
        .filter(|&i| peer_box.dist2_to_point(x[i], y[i], z[i], bbox) <= r2)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::key_of;
    use rng::Rng;

    fn sorted_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        let bbox = Box3::unit_periodic();
        let mut keys: Vec<u64> = (0..n)
            .map(|_| key_of(rng.unit(), rng.unit(), rng.unit(), &bbox))
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn assignment_covers_key_space_and_routes_keys() {
        let keys = sorted_keys(5000, 9);
        let tree = Octree::build(&keys, 64);
        let a = Assignment::from_octree(&tree, 8);
        assert_eq!(a.parts(), 8);
        assert_eq!(a.range(0).0, 0);
        assert_eq!(a.range(7).1, KEY_END);
        for &k in keys.iter().step_by(101) {
            let r = a.rank_of_key(k);
            let (s, e) = a.range(r);
            assert!(s <= k && k < e);
        }
    }

    #[test]
    fn from_splits_validates() {
        let a = Assignment::from_splits(vec![0, KEY_END / 2, KEY_END]);
        assert_eq!(a.parts(), 2);
        assert_eq!(a.rank_of_key(0), 0);
        assert_eq!(a.rank_of_key(KEY_END - 1), 1);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn from_splits_rejects_unsorted() {
        let _ = Assignment::from_splits(vec![0, KEY_END, KEY_END / 2, KEY_END]);
    }

    #[test]
    fn aabb_of_points_and_distance() {
        let b = Aabb::of_points(&[0.2, 0.4], &[0.2, 0.4], &[0.2, 0.4]);
        let bbox = Box3::cube(0.0, 1.0, false);
        assert_eq!(b.dist2_to_point(0.3, 0.3, 0.3, &bbox), 0.0);
        let d2 = b.dist2_to_point(0.5, 0.3, 0.3, &bbox);
        assert!((d2 - 0.01).abs() < 1e-12);
        assert!(Aabb::empty().is_empty());
        assert_eq!(
            Aabb::empty().dist2_to_point(0.0, 0.0, 0.0, &bbox),
            f64::INFINITY
        );
    }

    #[test]
    fn blocked_box_is_the_serial_fold_at_any_worker_count() {
        // Three blocks and a partial one, extremes planted in different
        // blocks.
        let n = 3 * par::BLOCK + 17;
        let f = |k: usize, s: usize| ((k * s) % 1009) as f64 / 1009.0 - 0.25;
        let axis = |s: usize| (0..n).map(|k| f(k, s)).collect::<Vec<f64>>();
        let (mut x, y, z) = (axis(7), axis(13), axis(31));
        x[par::BLOCK + 5] = -3.0;
        x[n - 1] = 4.0;
        let mut serial = Aabb::empty();
        for i in 0..n {
            serial.include(x[i], y[i], z[i]);
        }
        for workers in [1, 4] {
            par::set_max_threads(workers);
            let b = Aabb::of_points(&x, &y, &z);
            par::set_max_threads(0);
            assert_eq!(b, serial, "{workers} workers");
        }
        assert_eq!((serial.xmin, serial.xmax), (-3.0, 4.0));
    }

    #[test]
    fn periodic_distance_sees_wrapped_box() {
        // Box hugging the high edge; point near the low edge is close through
        // the periodic boundary.
        let b = Aabb::of_points(&[0.95, 0.99], &[0.5, 0.5], &[0.5, 0.5]);
        let per = Box3::unit_periodic();
        let open = Box3::cube(0.0, 1.0, false);
        let d2p = b.dist2_to_point(0.02, 0.5, 0.5, &per);
        let d2o = b.dist2_to_point(0.02, 0.5, 0.5, &open);
        assert!(d2p < 0.002, "wrapped distance should be ~0.03^2: {d2p}");
        assert!(d2o > 0.8, "open distance is large: {d2o}");
    }

    #[test]
    fn key_exactly_on_a_split_boundary_routes_right() {
        // A key equal to `splits[r]` is the *first* key of rank r's
        // half-open range `[splits[r], splits[r+1])` — it must never land
        // on rank r-1.
        let a = Assignment::from_splits(vec![0, 100, 200, KEY_END]);
        assert_eq!(a.rank_of_key(99), 0);
        assert_eq!(a.rank_of_key(100), 1);
        assert_eq!(a.rank_of_key(101), 1);
        assert_eq!(a.rank_of_key(199), 1);
        assert_eq!(a.rank_of_key(200), 2);
        assert_eq!(a.rank_of_key(0), 0);
        assert_eq!(a.rank_of_key(KEY_END - 1), 2);
    }

    #[test]
    fn empty_domains_are_skipped_by_key_routing() {
        // Consecutive equal splits describe ranks that own zero keys. A key
        // on the collapsed boundary must go to the *last* rank of the tie —
        // the only one whose half-open range actually contains it.
        let a = Assignment::from_splits(vec![0, 50, 50, 50, KEY_END]);
        assert_eq!(a.parts(), 4);
        assert_eq!(a.rank_of_key(49), 0);
        // Ranks 1 and 2 own [50, 50) = ∅; key 50 belongs to rank 3's
        // [50, KEY_END).
        let r = a.rank_of_key(50);
        let (s, e) = a.range(r);
        assert!(s <= 50 && 50 < e, "routed to an empty range [{s}, {e})");
        assert_eq!(r, 3);
        // Empty ranges really are empty.
        assert_eq!(a.range(1), (50, 50));
        assert_eq!(a.range(2), (50, 50));
    }

    #[test]
    fn trailing_empty_domains_clamp_to_a_real_owner() {
        // All keys collapsed into rank 0; the trailing ranks share
        // [KEY_END, KEY_END) = ∅. Every key must route to rank 0 — the
        // `.min(parts - 1)` clamp must not hand keys to an empty tail rank.
        let a = Assignment::from_splits(vec![0, KEY_END, KEY_END, KEY_END]);
        assert_eq!(a.parts(), 3);
        for k in [0, 1, KEY_END / 2, KEY_END - 1] {
            assert_eq!(a.rank_of_key(k), 0, "key {k}");
        }
    }

    #[test]
    fn load_skew_measures_imbalance() {
        assert_eq!(load_skew(&[]), 1.0);
        assert_eq!(load_skew(&[0, 0, 0]), 1.0);
        assert_eq!(load_skew(&[100]), 1.0);
        assert_eq!(load_skew(&[100, 100, 100, 100]), 1.0);
        // One rank at 2x its share.
        let s = load_skew(&[200, 100, 100, 0]);
        assert!((s - 2.0).abs() < 1e-12, "skew {s}");
        // Mild imbalance stays under a 1.15 trigger.
        assert!(load_skew(&[105, 100, 95, 100]) < 1.15);
    }

    #[test]
    fn degenerate_point_box_still_measures_distance() {
        // A peer box collapsed to a single point (one-particle domain).
        let b = Aabb::of_points(&[0.5], &[0.5], &[0.5]);
        assert!(!b.is_empty());
        let bbox = Box3::cube(0.0, 1.0, false);
        assert_eq!(b.dist2_to_point(0.5, 0.5, 0.5, &bbox), 0.0);
        let d2 = b.dist2_to_point(0.6, 0.5, 0.5, &bbox);
        assert!((d2 - 0.01).abs() < 1e-12);
    }

    #[test]
    fn halo_candidates_empty_peer_box_selects_nothing() {
        // An empty peer domain (rank with zero particles) must produce zero
        // halo candidates — infinite distance, not a panic or a full send.
        let bbox = Box3::unit_periodic();
        let x = vec![0.1, 0.5, 0.9];
        let y = vec![0.5; 3];
        let z = vec![0.5; 3];
        let got = halo_candidates(&x, &y, &z, &Aabb::empty(), 10.0, &bbox);
        assert!(got.is_empty(), "empty box produced candidates: {got:?}");
    }

    #[test]
    fn halo_candidates_degenerate_sender_set() {
        // No local particles at all: nothing to offer any peer.
        let bbox = Box3::unit_periodic();
        let peer = Aabb::of_points(&[0.4, 0.6], &[0.4, 0.6], &[0.4, 0.6]);
        let got = halo_candidates(&[], &[], &[], &peer, 0.2, &bbox);
        assert!(got.is_empty());
    }

    #[test]
    fn halo_candidates_selects_boundary_particles() {
        let bbox = Box3::cube(0.0, 1.0, false);
        let x = vec![0.10, 0.48, 0.90];
        let y = vec![0.5, 0.5, 0.5];
        let z = vec![0.5, 0.5, 0.5];
        // Peer owns the right half.
        let peer = Aabb::of_points(&[0.55, 0.95], &[0.0, 1.0], &[0.0, 1.0]);
        let got = halo_candidates(&x, &y, &z, &peer, 0.1, &bbox);
        assert_eq!(got, vec![1, 2]);
    }

    // Properties: 32 generated cases each, failing case index printed.
    #[test]
    fn prop_rank_of_key_consistent_with_ranges() {
        rng::cases(32, |g| {
            let seed = g.u64(0..300);
            let parts = g.usize(1..16);
            let keys = sorted_keys(1000, seed);
            let tree = Octree::build(&keys, 32);
            let a = Assignment::from_octree(&tree, parts);
            for &k in keys.iter().step_by(53) {
                let r = a.rank_of_key(k);
                let (s, e) = a.range(r);
                assert!(s <= k && k < e);
            }
        });
    }

    #[test]
    fn prop_split_boundary_keys_route_into_their_own_range() {
        rng::cases(32, |g| {
            let seed = g.u64(0..200);
            let parts = g.usize(2..12);
            // Every interior split key is the first key of some rank's
            // half-open range; `rank_of_key` must return a rank whose range
            // contains it — even when neighboring ranges are empty.
            let keys = sorted_keys(500, seed);
            let tree = Octree::build(&keys, 32);
            let a = Assignment::from_octree(&tree, parts);
            for &s in &a.splits()[..a.parts()] {
                if s >= KEY_END {
                    continue;
                }
                let r = a.rank_of_key(s);
                let (lo, hi) = a.range(r);
                assert!(lo <= s && s < hi, "split {s} -> rank {r} [{lo},{hi})");
            }
        });
    }

    #[test]
    fn prop_empty_domains_never_own_keys() {
        rng::cases(32, |g| {
            let mut cuts: Vec<u64> = (0..5).map(|_| g.u64(0..KEY_END)).collect();
            let n_cuts = g.usize(1..=5);
            let probe = g.u64(0..KEY_END);
            // Arbitrary split vectors (duplicates allowed -> empty domains):
            // routing always returns a non-empty range containing the key.
            cuts.truncate(n_cuts);
            cuts.sort_unstable();
            let mut splits = vec![0u64];
            splits.extend(cuts);
            splits.push(KEY_END);
            let a = Assignment::from_splits(splits);
            let r = a.rank_of_key(probe);
            let (lo, hi) = a.range(r);
            assert!(lo < hi, "key {probe} routed to empty rank {r}");
            assert!(lo <= probe && probe < hi);
        });
    }

    #[test]
    fn prop_halo_candidates_superset_of_true_neighbors() {
        rng::cases(32, |g| {
            let seed = g.u64(0..200);
            let r = g.f64(0.02..0.2);
            // Any particle actually within r of a peer particle must be a
            // halo candidate for that peer's box.
            let mut rng = Rng::seed_from_u64(seed);
            let bbox = Box3::cube(0.0, 1.0, false);
            let mine: Vec<(f64, f64, f64)> = (0..40)
                .map(|_| (rng.unit(), rng.unit(), rng.unit()))
                .collect();
            let theirs: Vec<(f64, f64, f64)> = (0..40)
                .map(|_| (rng.unit(), rng.unit(), rng.unit()))
                .collect();
            let (mx, my, mz): (Vec<f64>, Vec<f64>, Vec<f64>) = (
                mine.iter().map(|p| p.0).collect(),
                mine.iter().map(|p| p.1).collect(),
                mine.iter().map(|p| p.2).collect(),
            );
            let (tx, ty, tz): (Vec<f64>, Vec<f64>, Vec<f64>) = (
                theirs.iter().map(|p| p.0).collect(),
                theirs.iter().map(|p| p.1).collect(),
                theirs.iter().map(|p| p.2).collect(),
            );
            let peer_box = Aabb::of_points(&tx, &ty, &tz);
            let cands = halo_candidates(&mx, &my, &mz, &peer_box, r, &bbox);
            for i in 0..mx.len() {
                let near = (0..tx.len())
                    .any(|j| bbox.dist2(mx[i], my[i], mz[i], tx[j], ty[j], tz[j]) <= r * r);
                if near {
                    assert!(
                        cands.contains(&i),
                        "particle {i} near peer but not a candidate"
                    );
                }
            }
        });
    }
}
