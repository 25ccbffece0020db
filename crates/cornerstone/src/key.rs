//! 63-bit Morton (Z-order) space-filling-curve keys.
//!
//! Cornerstone (Keller et al., PASC'23 — the paper's ref. \[26\]) sorts
//! particles along an SFC and derives the octree and the domain decomposition
//! from contiguous key ranges. 21 bits per dimension gives 2^63 addressable
//! octants — identical to the real library's 64-bit key layout.

use crate::box3::Box3;

/// Bits per dimension.
pub const DIM_BITS: u32 = 21;
/// Maximum refinement level of the octree implied by the key size.
pub const MAX_LEVEL: u32 = DIM_BITS;
/// Number of grid cells per dimension at the deepest level.
pub const GRID: u64 = 1 << DIM_BITS;
/// Exclusive upper bound of the key space.
pub const KEY_END: u64 = 1 << (3 * DIM_BITS);

/// Spread the low 21 bits of `v` so consecutive bits land 3 apart.
#[inline]
fn spread3(v: u64) -> u64 {
    // Standard magic-number bit spreading for 21-bit inputs.
    let mut x = v & 0x1f_ffff;
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`spread3`].
#[inline]
fn compact3(v: u64) -> u64 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x
}

/// Morton key from integer grid coordinates (each `< GRID`).
#[inline]
pub fn encode(ix: u64, iy: u64, iz: u64) -> u64 {
    debug_assert!(ix < GRID && iy < GRID && iz < GRID);
    (spread3(ix) << 2) | (spread3(iy) << 1) | spread3(iz)
}

/// Grid coordinates from a Morton key.
#[inline]
pub fn decode(key: u64) -> (u64, u64, u64) {
    (compact3(key >> 2), compact3(key >> 1), compact3(key))
}

/// Key of a position inside `bbox`.
pub fn key_of(x: f64, y: f64, z: f64, bbox: &Box3) -> u64 {
    let (nx, ny, nz) = bbox.normalize(x, y, z);
    let ix = ((nx * GRID as f64) as u64).min(GRID - 1);
    let iy = ((ny * GRID as f64) as u64).min(GRID - 1);
    let iz = ((nz * GRID as f64) as u64).min(GRID - 1);
    encode(ix, iy, iz)
}

/// The key range `[start, end)` covered by the octree node containing `key`
/// at refinement `level` (level 0 = root).
pub fn node_range(key: u64, level: u32) -> (u64, u64) {
    assert!(level <= MAX_LEVEL, "level {level} beyond max {MAX_LEVEL}");
    let shift = 3 * (MAX_LEVEL - level);
    let start = (key >> shift) << shift;
    (start, start + (1u64 << shift))
}

/// Side length (in box-normalized units) of a node at `level`.
pub fn node_size(level: u32) -> f64 {
    1.0 / (1u64 << level) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_corners() {
        for &(x, y, z) in &[
            (0, 0, 0),
            (GRID - 1, 0, 0),
            (0, GRID - 1, GRID - 1),
            (GRID - 1, GRID - 1, GRID - 1),
        ] {
            assert_eq!(decode(encode(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn keys_order_by_octant_first() {
        // The x bit is most significant: crossing the x midplane dominates.
        let lo = key_of(0.4, 0.9, 0.9, &Box3::unit_periodic());
        let hi = key_of(0.6, 0.1, 0.1, &Box3::unit_periodic());
        assert!(hi > lo);
    }

    #[test]
    fn node_range_nests() {
        let k = encode(123456, 654321, 222222);
        let (s1, e1) = node_range(k, 5);
        let (s2, e2) = node_range(k, 8);
        assert!(s1 <= s2 && e2 <= e1, "deeper node must nest inside");
        assert_eq!(e1 - s1, 1u64 << (3 * (MAX_LEVEL - 5)));
        let (s0, e0) = node_range(k, 0);
        assert_eq!((s0, e0), (0, KEY_END));
    }

    #[test]
    fn node_size_halves_per_level() {
        assert_eq!(node_size(0), 1.0);
        assert_eq!(node_size(1), 0.5);
        assert_eq!(node_size(10), 1.0 / 1024.0);
    }

    // Properties: 256 generated cases each, failing case index printed.
    #[test]
    fn prop_roundtrip() {
        rng::cases(256, |g| {
            let (ix, iy, iz) = (g.u64(0..GRID), g.u64(0..GRID), g.u64(0..GRID));
            assert_eq!(decode(encode(ix, iy, iz)), (ix, iy, iz));
        });
    }

    #[test]
    fn prop_keys_in_range() {
        rng::cases(256, |g| {
            let (x, y, z) = (g.f64(-2.0..2.0), g.f64(-2.0..2.0), g.f64(-2.0..2.0));
            let k = key_of(x, y, z, &Box3::unit_periodic());
            assert!(k < KEY_END);
        });
    }

    #[test]
    fn prop_monotone_along_x() {
        rng::cases(256, |g| {
            let (ix, iy, iz) = (g.u64(0..GRID - 1), g.u64(0..GRID), g.u64(0..GRID));
            // Moving +1 in x from an even cell increases the key.
            if ix % 2 != 0 {
                return;
            }
            assert!(encode(ix + 1, iy, iz) > encode(ix, iy, iz));
        });
    }

    #[test]
    fn prop_node_range_contains_key() {
        rng::cases(256, |g| {
            let k = g.u64(0..KEY_END);
            let level = g.u32(0..=MAX_LEVEL);
            let (s, e) = node_range(k, level);
            assert!(s <= k && k < e);
        });
    }
}
