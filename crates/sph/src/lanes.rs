//! Cache-blocked sweep scratch: per-thread lane buffers and the ordered /
//! lane-partial accumulator backing the blocked CSR row path of the five
//! SPH sweeps.
//!
//! Each sweep processes one CSR row at a time: the row's candidates are
//! read straight from the list ([`cornerstone::NeighborList::row_deltas`];
//! density and momentum) or compacted to the interacting pairs first
//! ([`cornerstone::NeighborList::filter_pairs_into`]; IAD), per-pair
//! quantities (distances, kernel values, gradient prefactors) are evaluated
//! as branch-free passes over those buffers (see `kernels::RowKernel`), and
//! the final pass accumulates force/density terms through [`Acc`]. A row's
//! working set (a few hundred candidates × a handful of f64 channels) fits
//! comfortably in L1, so every pass streams.
//!
//! ## Bit-identity of the default accumulation
//!
//! The scalar path folds terms left-to-right starting from `0.0`
//! (`acc += t_k` / `acc -= t_k` inside the neighbor callback, in visit
//! order). The blocked accumulation pass visits the same pairs in the same
//! order and feeds the same term bits into [`Acc`], whose default
//! implementation is exactly that running fold — so the blocked path
//! reproduces the scalar result bit-for-bit. Under the `fast-math` feature
//! [`Acc`] switches to four independent lane partials combined pairwise —
//! still deterministic and thread-count independent (a pure function of
//! the row's term sequence), but a different association, hence the
//! feature gate.

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
/// deltas — the scalar replay's `d2` expression (same summation order,
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
/// scalar replay's `dx² + dy² + dz²` (same bits) and `r[k] = sqrt(d2[k])`.
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

/// Row accumulator: `add`/`sub` a term for pair index `k`, read the total
/// with [`Acc::value`]. The default build is the scalar callback's running
/// fold (`acc += t` in visit order — `k` is ignored), bit-identical by
/// construction.
#[cfg(not(feature = "fast-math"))]
#[derive(Clone, Copy, Default)]
pub(crate) struct Acc(f64);

#[cfg(not(feature = "fast-math"))]
impl Acc {
    #[inline(always)]
    pub fn add(&mut self, _k: usize, t: f64) {
        self.0 += t;
    }
    #[inline(always)]
    pub fn sub(&mut self, _k: usize, t: f64) {
        self.0 -= t;
    }
    #[inline(always)]
    pub fn value(self) -> f64 {
        self.0
    }
}

/// `fast-math` accumulator: four independent lane partials indexed by the
/// pair index (`k mod 4`), combined `(l0 + l1) + (l2 + l3)`. Breaking the
/// serial dependence of the running fold lets the accumulation pass keep
/// four FMAs in flight; the result is still a pure (deterministic,
/// thread-count invariant) function of the row's term sequence, but a
/// different association than the scalar fold.
#[cfg(feature = "fast-math")]
#[derive(Clone, Copy, Default)]
pub(crate) struct Acc([f64; LANES]);

#[cfg(feature = "fast-math")]
impl Acc {
    #[inline(always)]
    pub fn add(&mut self, k: usize, t: f64) {
        self.0[k & (LANES - 1)] += t;
    }
    #[inline(always)]
    pub fn sub(&mut self, k: usize, t: f64) {
        self.0[k & (LANES - 1)] -= t;
    }
    #[inline(always)]
    pub fn value(self) -> f64 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
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
    fn accumulator_matches_the_scalar_fold() {
        // Terms chosen to be association-sensitive (wildly varying scale).
        let terms: Vec<f64> = (0..23)
            .map(|k| (-1.0f64).powi(k) * 10f64.powi(k % 17 - 8) * (k + 1) as f64)
            .collect();
        let mut add = 0.0;
        let mut sub = 0.0;
        for &t in &terms {
            add += t;
            sub -= t;
        }
        let mut acc_add = Acc::default();
        let mut acc_sub = Acc::default();
        for (k, &t) in terms.iter().enumerate() {
            acc_add.add(k, t);
            acc_sub.sub(k, t);
        }
        #[cfg(not(feature = "fast-math"))]
        {
            assert_eq!(acc_add.value().to_bits(), add.to_bits());
            assert_eq!(acc_sub.value().to_bits(), sub.to_bits());
        }
        #[cfg(feature = "fast-math")]
        {
            let tol = 1e-12 * terms.iter().map(|t| t.abs()).sum::<f64>();
            assert!((acc_add.value() - add).abs() <= tol);
            assert!((acc_sub.value() - sub).abs() <= tol);
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
