//! Cornerstone-style octree: a flat, sorted array of SFC leaf boundaries.
//!
//! A node is a key range `[leaves[i], leaves[i+1])` that is exactly one
//! octant at some refinement level. The tree is built by subdividing any
//! octant holding more than `bucket_size` particles — the same balanced-leaf
//! construction the real Cornerstone library uses on the GPU.

use serde::{Deserialize, Serialize};

use crate::key::{KEY_END, MAX_LEVEL};

/// Below this key count a parallel top-level build costs more in thread
/// spawns than the subdivision saves.
const PAR_BUILD_THRESHOLD: usize = 4096;

/// Balanced octree over sorted particle keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Octree {
    /// Leaf boundaries: `leaves[0] == 0`, `leaves.last() == KEY_END`,
    /// strictly increasing; `[leaves[i], leaves[i+1])` is octant-aligned.
    leaves: Vec<u64>,
    /// Particles per leaf (same length as `leaves.len() - 1`).
    counts: Vec<usize>,
    bucket_size: usize,
}

impl Octree {
    /// Build from **sorted** particle keys. Panics (debug) on unsorted input.
    pub fn build(sorted_keys: &[u64], bucket_size: usize) -> Self {
        assert!(bucket_size > 0, "bucket size must be positive");
        debug_assert!(
            sorted_keys.windows(2).all(|w| w[0] <= w[1]),
            "keys must be sorted"
        );
        let mut leaves = Vec::new();
        let mut counts = Vec::new();
        leaves.push(0);
        // `sorted_keys.len() > bucket_size` is exactly the condition under
        // which the serial recursion would subdivide the root; the eight
        // top-level octants are then independent subtrees whose leaf runs
        // concatenate in octant order, identical to the serial output.
        if sorted_keys.len() > bucket_size && sorted_keys.len() >= PAR_BUILD_THRESHOLD {
            let child_span = KEY_END / 8;
            let octants: Vec<(Vec<u64>, Vec<usize>)> = par::par_map(8, |c| {
                let cs = c as u64 * child_span;
                let mut l = Vec::new();
                let mut n = Vec::new();
                subdivide(
                    sorted_keys,
                    cs,
                    cs + child_span,
                    1,
                    bucket_size,
                    &mut l,
                    &mut n,
                );
                (l, n)
            });
            for (l, n) in octants {
                leaves.extend(l);
                counts.extend(n);
            }
        } else {
            subdivide(
                sorted_keys,
                0,
                KEY_END,
                0,
                bucket_size,
                &mut leaves,
                &mut counts,
            );
        }
        Octree {
            leaves,
            counts,
            bucket_size,
        }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// Particle counts per leaf.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total particles covered.
    pub fn total_count(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Key range of leaf `i`.
    pub fn leaf_range(&self, i: usize) -> (u64, u64) {
        (self.leaves[i], self.leaves[i + 1])
    }

    /// Refinement level of leaf `i` (0 = root).
    pub fn leaf_level(&self, i: usize) -> u32 {
        let span = self.leaves[i + 1] - self.leaves[i];
        // span = 8^(MAX_LEVEL - level)
        MAX_LEVEL - (span.trailing_zeros() / 3)
    }

    /// Index of the leaf containing `key`.
    pub fn leaf_of_key(&self, key: u64) -> usize {
        debug_assert!(key < KEY_END);
        self.leaves.partition_point(|&b| b <= key) - 1
    }

    /// Check all structural invariants (used by property tests and after
    /// exchanges). Returns a human-readable violation if any.
    pub fn validate(&self, n_particles: usize) -> Result<(), String> {
        if self.leaves.first() != Some(&0) || self.leaves.last() != Some(&KEY_END) {
            return Err("leaf boundaries must span the whole key space".into());
        }
        if self.leaves.len() != self.counts.len() + 1 {
            return Err("boundary/count length mismatch".into());
        }
        for w in self.leaves.windows(2) {
            let span = w[1] - w[0];
            if span == 0 {
                return Err("empty leaf range".into());
            }
            if span.count_ones() != 1 || span.trailing_zeros() % 3 != 0 {
                return Err(format!("leaf span {span} is not a whole octant"));
            }
            if w[0] % span != 0 {
                return Err(format!("leaf start {} misaligned for span {span}", w[0]));
            }
        }
        if self.total_count() != n_particles {
            return Err(format!(
                "counts sum {} != particle count {n_particles}",
                self.total_count()
            ));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c > self.bucket_size && self.leaf_level(i) < MAX_LEVEL {
                return Err(format!("leaf {i} overfull ({c}) but not at max level"));
            }
        }
        Ok(())
    }

    /// Split the key space into `parts` contiguous rank domains with
    /// near-equal particle counts (the global SFC partition of Cornerstone's
    /// domain decomposition). Returns `parts + 1` split keys.
    pub fn partition(&self, parts: usize) -> Vec<u64> {
        assert!(parts > 0);
        let total = self.total_count();
        let mut splits = Vec::with_capacity(parts + 1);
        splits.push(0);
        let mut acc = 0usize;
        let mut next_target = 1;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            // Close domains whenever the running count passes the ideal
            // boundary; ties resolve to the earlier leaf edge.
            while next_target < parts
                && acc * parts >= next_target * total
                && splits.len() <= next_target
            {
                splits.push(self.leaves[i + 1]);
                next_target += 1;
            }
        }
        while splits.len() < parts {
            splits.push(KEY_END);
        }
        splits.push(KEY_END);
        splits
    }
}

fn subdivide(
    keys: &[u64],
    start: u64,
    end: u64,
    level: u32,
    bucket: usize,
    leaves: &mut Vec<u64>,
    counts: &mut Vec<usize>,
) {
    let lo = keys.partition_point(|&k| k < start);
    let hi = keys.partition_point(|&k| k < end);
    let count = hi - lo;
    if count <= bucket || level == MAX_LEVEL {
        leaves.push(end);
        counts.push(count);
        return;
    }
    let child_span = (end - start) / 8;
    for c in 0..8u64 {
        let cs = start + c * child_span;
        subdivide(
            &keys[lo..hi],
            cs,
            cs + child_span,
            level + 1,
            bucket,
            leaves,
            counts,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::box3::Box3;
    use crate::key::key_of;
    use rng::Rng;

    fn random_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        let bbox = Box3::unit_periodic();
        let mut keys: Vec<u64> = (0..n)
            .map(|_| key_of(rng.unit(), rng.unit(), rng.unit(), &bbox))
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn empty_input_gives_root_leaf() {
        let t = Octree::build(&[], 64);
        assert_eq!(t.len(), 1);
        assert_eq!(t.leaf_range(0), (0, KEY_END));
        assert_eq!(t.total_count(), 0);
        t.validate(0).unwrap();
    }

    #[test]
    fn uniform_cloud_respects_bucket_size() {
        let keys = random_keys(4096, 42);
        let t = Octree::build(&keys, 64);
        t.validate(keys.len()).unwrap();
        assert!(t.len() >= 4096 / 64, "too few leaves: {}", t.len());
        assert!(t.counts().iter().all(|&c| c <= 64));
    }

    #[test]
    fn clustered_cloud_refines_locally() {
        let bbox = Box3::unit_periodic();
        let mut rng = Rng::seed_from_u64(7);
        // 2000 particles crammed into a corner, 100 spread out.
        let mut keys: Vec<u64> = Vec::with_capacity(2100);
        for _ in 0..2000 {
            keys.push(key_of(
                rng.unit() * 0.01,
                rng.unit() * 0.01,
                rng.unit() * 0.01,
                &bbox,
            ));
        }
        for _ in 0..100 {
            keys.push(key_of(rng.unit(), rng.unit(), rng.unit(), &bbox));
        }
        keys.sort_unstable();
        let t = Octree::build(&keys, 32);
        t.validate(keys.len()).unwrap();
        let deepest = (0..t.len()).map(|i| t.leaf_level(i)).max();
        assert!(deepest > Some(5), "cluster must force deep refinement");
    }

    #[test]
    fn leaf_of_key_finds_containing_leaf() {
        let keys = random_keys(1000, 3);
        let t = Octree::build(&keys, 32);
        for &k in keys.iter().step_by(37) {
            let i = t.leaf_of_key(k);
            let (s, e) = t.leaf_range(i);
            assert!(s <= k && k < e);
        }
        assert_eq!(t.leaf_of_key(0), 0);
        assert_eq!(t.leaf_of_key(KEY_END - 1), t.len() - 1);
    }

    #[test]
    fn partition_balances_counts() {
        let keys = random_keys(10_000, 11);
        let t = Octree::build(&keys, 64);
        for parts in [1usize, 2, 3, 8, 32] {
            let splits = t.partition(parts);
            assert_eq!(splits.len(), parts + 1);
            assert_eq!(splits[0], 0);
            assert_eq!(*splits.last().unwrap(), KEY_END);
            assert!(splits.windows(2).all(|w| w[0] <= w[1]));
            let per: Vec<usize> = splits
                .windows(2)
                .map(|w| keys.iter().filter(|&&k| k >= w[0] && k < w[1]).count())
                .collect();
            assert_eq!(per.iter().sum::<usize>(), keys.len());
            let ideal = keys.len() / parts;
            for &c in &per {
                // Leaf granularity bounds the imbalance.
                assert!(
                    c <= ideal + 64 + ideal / 4,
                    "parts={parts}: domain of {c} vs ideal {ideal}"
                );
            }
        }
    }

    // Properties: 32 generated cases each, failing case index printed.
    #[test]
    fn prop_tree_invariants() {
        rng::cases(32, |g| {
            let seed = g.u64(0..500);
            let n = g.usize(0..3000);
            let bucket = g.usize(1..200);
            let keys = random_keys(n, seed);
            let t = Octree::build(&keys, bucket);
            assert!(t.validate(n).is_ok());
        });
    }

    #[test]
    fn prop_every_key_lands_in_counted_leaf() {
        rng::cases(32, |g| {
            let seed = g.u64(0..200);
            let keys = random_keys(500, seed);
            let t = Octree::build(&keys, 16);
            // Histogram by leaf index must equal stored counts.
            let mut hist = vec![0usize; t.len()];
            for &k in &keys {
                hist[t.leaf_of_key(k)] += 1;
            }
            assert_eq!(hist, t.counts().to_vec());
        });
    }
}
