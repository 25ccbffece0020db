//! Per-thread row scratch and distance passes for the neighbor sweeps.
//!
//! Each sweep processes one CSR row at a time: the row's candidates are
//! read straight from the list ([`cornerstone::NeighborList::row_deltas`];
//! density and momentum) or compacted to the interacting pairs first
//! ([`cornerstone::NeighborList::filter_pairs_into`]; IAD), per-pair
//! quantities (distances, kernel values, gradient prefactors) are evaluated
//! as branch-free passes over those buffers (see `kernels::RowKernel`), and
//! the final pass folds the force/density terms into plain `f64` sums. A
//! row's working set (a few hundred candidates × a handful of f64 channels)
//! fits comfortably in L1, so every pass streams.
//!
//! ## Bit-identity of the accumulation
//!
//! The reference sweeps (`crate::reference`) fold terms left-to-right
//! starting from `0.0` (`acc += t_k` / `acc -= t_k` inside the neighbor
//! callback, in visit order). The accumulation pass of each row visits the
//! same pairs in the same order and feeds the same term bits into the same
//! running fold, and every batched pass before it is elementwise — so a row
//! reproduces the reference bit for bit. `tests/blocked_equivalence.rs`
//! pins that.

use cornerstone::FilteredRow;
use std::cell::RefCell;

/// Manual vector width: 4 × f64 (one AVX2 register / two NEON registers).
pub(crate) const LANES: usize = 4;

/// Reusable per-thread scratch for one CSR row. Named buffers for the
/// always-present channels plus a generic `aux` pool the sweeps repurpose
/// (documented at each use site).
#[derive(Default)]
pub(crate) struct RowScratch {
    /// Pair-filtered row straight from the CSR list.
    pub row: FilteredRow,
    /// Pair distances `sqrt(d2)`.
    pub r: Vec<f64>,
    /// Kernel values (or gradient prefactors) per pair.
    pub w: Vec<f64>,
    /// Neighbor volume (or other per-neighbor gathered scalar).
    pub vj: Vec<f64>,
    /// General per-pair channels (`dW/dh`, `C·d` products, gathered `h_j`…).
    pub aux: [Vec<f64>; 4],
    /// Surviving row positions from a branch-free selection pass
    /// (momentum's interacting-pair compaction).
    pub idx: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<RowScratch> = RefCell::new(RowScratch::default());
}

/// Run `f` with this thread's row scratch. Buffers keep their capacity
/// across rows and sweeps; callers must clear/overwrite what they use.
#[inline]
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut RowScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// `out[k] = sqrt(src[k])`, evaluated in [`LANES`]-wide chunks (remainder
/// in index order). `sqrt` is correctly rounded, so chunking cannot change
/// bits — this exists purely to keep the hot loop branch-free and
/// auto-vectorizable. Dispatched through an AVX2 clone when available
/// (`cornerstone::simd`).
pub(crate) fn sqrt_into(src: &[f64], out: &mut Vec<f64>) {
    #[cfg(target_arch = "x86_64")]
    if cornerstone::simd::avx2() {
        // SAFETY: AVX2 support was just checked; the clone has no other
        // precondition (portable body under different codegen).
        return unsafe { sqrt_into_avx2(src, out) };
    }
    sqrt_into_impl(src, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sqrt_into_avx2(src: &[f64], out: &mut Vec<f64>) {
    sqrt_into_impl(src, out)
}

/// `out[k] = sqrt(dx[k]² + dy[k]² + dz[k]²)` straight from stored row
/// deltas — the list replay's `d2` expression (same summation order,
/// same bits) followed by the correctly-rounded `sqrt`, fused into one
/// branch-free pass. Dispatched through an AVX2 clone when available
/// (`cornerstone::simd`).
pub(crate) fn dist_into(dx: &[f64], dy: &[f64], dz: &[f64], out: &mut Vec<f64>) {
    #[cfg(target_arch = "x86_64")]
    if cornerstone::simd::avx2() {
        // SAFETY: AVX2 support was just checked; the clone has no other
        // precondition (portable body under different codegen).
        return unsafe { dist_into_avx2(dx, dy, dz, out) };
    }
    dist_into_impl(dx, dy, dz, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dist_into_avx2(dx: &[f64], dy: &[f64], dz: &[f64], out: &mut Vec<f64>) {
    dist_into_impl(dx, dy, dz, out)
}

#[inline(always)]
fn dist_into_impl(dx: &[f64], dy: &[f64], dz: &[f64], out: &mut Vec<f64>) {
    let n = dx.len();
    debug_assert_eq!(dy.len(), n);
    debug_assert_eq!(dz.len(), n);
    out.clear();
    out.resize(n, 0.0);
    for k in 0..n {
        out[k] = (dx[k] * dx[k] + dy[k] * dy[k] + dz[k] * dz[k]).sqrt();
    }
}

/// [`dist_into`], but keeping the squared distances too: `d2[k]` is the
/// list replay's `dx² + dy² + dz²` (same bits) and `r[k] = sqrt(d2[k])`.
/// Dispatched through an AVX2 clone when available (`cornerstone::simd`).
pub(crate) fn dist2_dist_into(
    dx: &[f64],
    dy: &[f64],
    dz: &[f64],
    d2_out: &mut Vec<f64>,
    r_out: &mut Vec<f64>,
) {
    #[cfg(target_arch = "x86_64")]
    if cornerstone::simd::avx2() {
        // SAFETY: AVX2 support was just checked; the clone has no other
        // precondition (portable body under different codegen).
        return unsafe { dist2_dist_into_avx2(dx, dy, dz, d2_out, r_out) };
    }
    dist2_dist_into_impl(dx, dy, dz, d2_out, r_out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dist2_dist_into_avx2(
    dx: &[f64],
    dy: &[f64],
    dz: &[f64],
    d2_out: &mut Vec<f64>,
    r_out: &mut Vec<f64>,
) {
    dist2_dist_into_impl(dx, dy, dz, d2_out, r_out)
}

#[inline(always)]
fn dist2_dist_into_impl(
    dx: &[f64],
    dy: &[f64],
    dz: &[f64],
    d2_out: &mut Vec<f64>,
    r_out: &mut Vec<f64>,
) {
    let n = dx.len();
    debug_assert_eq!(dy.len(), n);
    debug_assert_eq!(dz.len(), n);
    d2_out.clear();
    d2_out.resize(n, 0.0);
    r_out.clear();
    r_out.resize(n, 0.0);
    for k in 0..n {
        let q = dx[k] * dx[k] + dy[k] * dy[k] + dz[k] * dz[k];
        d2_out[k] = q;
        r_out[k] = q.sqrt();
    }
}

#[inline(always)]
fn sqrt_into_impl(src: &[f64], out: &mut Vec<f64>) {
    let n = src.len();
    out.clear();
    out.resize(n, 0.0);
    let mut k = 0;
    while k + LANES <= n {
        for l in 0..LANES {
            out[k + l] = src[k + l].sqrt();
        }
        k += LANES;
    }
    while k < n {
        out[k] = src[k].sqrt();
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqrt_into_matches_scalar_sqrt_bitwise() {
        for n in 0..9usize {
            let src: Vec<f64> = (0..n).map(|k| 0.017 * (k * k + 1) as f64).collect();
            let mut out = Vec::new();
            sqrt_into(&src, &mut out);
            assert_eq!(out.len(), n);
            for k in 0..n {
                assert_eq!(out[k].to_bits(), src[k].sqrt().to_bits());
            }
        }
    }

    #[test]
    fn scratch_reuses_buffers_across_calls() {
        with_scratch(|s| {
            s.r.clear();
            s.r.extend_from_slice(&[1.0, 2.0]);
        });
        with_scratch(|s| {
            // Same thread -> same scratch; previous contents still there
            // until overwritten (callers must clear).
            assert!(s.r.capacity() >= 2);
        });
    }
}
