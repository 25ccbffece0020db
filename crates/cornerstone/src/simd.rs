//! Runtime CPU-feature dispatch and the AVX2 left-pack step.
//!
//! The crate is built for the baseline `x86-64` target (SSE2). The hot
//! candidate scan, the pair-geometry pass, the sweeps' record gathers and
//! row passes and `sph`'s Barnes-Hut group walk (four targets per pass over
//! the node array) each exist twice: a portable body, and a
//! `#[target_feature(enable = "avx2")]` function — written with
//! `core::arch::x86_64` intrinsics where the data movement needs spelling
//! (the scan's left-pack, the gathers' 4×4 transposes, the group walk), and
//! a clone of the portable body under wider codegen where it does not (LLVM's
//! cost model keeps the baseline bodies on 128-bit ops). [`avx2()`] picks one
//! at runtime (the `is_x86_feature_detected!` result is cached by `std`, so
//! the check is an atomic load).
//!
//! The two bodies are separate code, so their agreement is an argument plus
//! a test, not a tautology. The argument: every intrinsic used is the same
//! correctly-rounded IEEE-754 double operation the portable body performs,
//! on the same values with the same association — lanes are evaluated
//! independently, and rustc never licenses FMA contraction or
//! reassociation, with or without `target_feature`. The tests drive both
//! bodies on the same inputs and compare bits (`celllist`'s scan and
//! geometry tests, `sph`'s gather and masked-row tests, its
//! production-vs-reference suite and its group-walk test in `gravity`).
//!
//! ## Left-pack
//!
//! The scan ([`crate::CellList`]'s neighbor-list build) keeps the lanes of
//! a 4-wide chunk that pass a compare, in lane order. `pack_store_u32` does
//! that without a per-lane branch: a 16-entry table indexed by the
//! compare's movemask holds the permute control that moves the passing
//! lanes to the front, the permuted vector is stored whole at the output
//! cursor, and the caller advances the cursor by `popcnt(mask)`. The lanes
//! behind the passing ones are scratch written into spare capacity and
//! overwritten by the next store.

/// `true` when the running CPU supports AVX2 and POPCNT (every AVX2 part
/// does; the pack step's cursor advance wants the instruction, so both are
/// checked).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
}

/// Non-x86 targets: no AVX2 body exists; always take the portable one.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn avx2() -> bool {
    false
}

/// Left-pack permute controls per 4-bit lane mask: `PACK[m]` holds the
/// `vpermilps` selectors that move the four 32-bit lanes whose bit is set in
/// `m` to the front, in lane order. Slots past `popcnt(m)` select lane 0 —
/// their output is scratch.
#[cfg(target_arch = "x86_64")]
static PACK: [[u32; 4]; 16] = {
    let mut ps = [[0u32; 4]; 16];
    let mut m = 0;
    while m < 16 {
        let mut slot = 0;
        let mut lane = 0;
        while lane < 4 {
            if m & (1 << lane) != 0 {
                ps[m][slot] = lane as u32;
                slot += 1;
            }
            lane += 1;
        }
        m += 1;
    }
    ps
};

/// Write the `u32` lanes of `lanes` whose bit is set in `mask` (bit `l` =
/// lane `l`), in lane order, to `v`'s buffer starting at slot `len`. All
/// four slots `len..len + 4` are written; only the first `popcnt(mask)` are
/// meaningful. `v.len()` is not changed — the caller advances its cursor
/// and calls `set_len` once the run is done.
///
/// # Safety
///
/// The CPU must support AVX2, `mask < 16`, and `len + 4 <= v.capacity()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn pack_store_u32(
    v: &mut Vec<u32>,
    len: usize,
    lanes: std::arch::x86_64::__m128i,
    mask: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(mask < 16 && len + 4 <= v.capacity());
    // SAFETY: `PACK[mask]` is 4 u32 = one unaligned 128-bit load; the
    // 4-lane store covers slots `len..len + 4`, inside the allocation by
    // the caller's `len + 4 <= capacity` (its `grow(run + 4)`).
    let ctrl = _mm_loadu_si128(PACK[mask].as_ptr().cast());
    let packed = _mm_permutevar_ps(_mm_castsi128_ps(lanes), ctrl);
    _mm_storeu_si128(v.as_mut_ptr().add(len).cast(), _mm_castps_si128(packed));
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    #[test]
    fn pack_keeps_the_masked_lanes_in_lane_order_for_all_16_masks() {
        if !avx2() {
            return;
        }
        use std::arch::x86_64::*;
        let u = [7u32, 8, 9, u32::MAX];
        for mask in 0usize..16 {
            let keep: Vec<usize> = (0..4).filter(|l| mask & (1 << l) != 0).collect();
            let mut vu: Vec<u32> = vec![1, 2];
            vu.reserve(4);
            // SAFETY: AVX2 checked above; mask < 16; reserve(4) covers the
            // store at len = 2; set_len exposes only slots the store
            // initialised (popcnt <= 4).
            unsafe {
                pack_store_u32(&mut vu, 2, _mm_loadu_si128(u.as_ptr().cast()), mask);
                vu.set_len(2 + keep.len());
            }
            let want_u: Vec<u32> = [1, 2]
                .into_iter()
                .chain(keep.iter().map(|&l| u[l]))
                .collect();
            assert_eq!(vu, want_u, "u32 lanes, mask {mask:#06b}");
        }
    }
}
