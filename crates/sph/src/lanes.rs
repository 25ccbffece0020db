//! Per-sweep neighbour records, per-thread row scratch and the record
//! gather of the neighbor sweeps.
//!
//! The step's list stores indices only (`cornerstone::NeighborList`), so a
//! sweep reads everything else about a pair from the two particles. What it
//! reads from the `j` side it first packs, once per sweep, into one small
//! record per stored particle (owned and halo alike; [`with_records`]) —
//! positions plus the handful of fields that sweep's pair terms touch, with
//! the per-particle parts of those terms (a volume, a pressure term, a
//! kernel normalisation) already evaluated, each by the expression the
//! per-pair reference uses, so hoisting changes no bit and a division per
//! pair becomes one per particle. A neighbour then costs one or two
//! cache lines instead of up to ten scattered SoA loads.
//!
//! A row is processed as whole-row passes over contiguous lane columns
//! ([`RowScratch`]): [`gather`] transposes the row's records into columns,
//! the list's `MinImage` turns the position columns into the pair geometry,
//! the batch kernel evaluators (`kernels::RowKernel`) run over the distance
//! column, one elementwise pass computes every per-pair term with the
//! reference's skip conditions applied as a *mask*, and a scalar loop folds
//! each term column in row order. A row's working set (a few dozen
//! candidates × two dozen f64 columns) sits in L1, so every pass streams.
//!
//! ## Bit-identity of the accumulation
//!
//! The reference sweeps (`crate::reference`) fold terms left-to-right
//! starting from `0.0` (`acc += t_k` / `acc -= t_k` inside the neighbor
//! callback, in visit order), skipping some candidates. The fold of each
//! row visits the whole row in the same order and feeds the same term bits
//! into the same running sum for every pair the reference processes; for a
//! pair it skips, the term column holds the fold's identity — `-0.0` for a
//! `+=` fold, `+0.0` for a `-=` fold: `x + (-0.0)` and `x - (+0.0)` are `x`
//! for every `x`, signed zeros, infinities and NaN included (the one sum
//! that could differ, `+0.0 + -0.0`, rounds to `+0.0`) — so a masked lane
//! leaves every partial sum, and the final bits, untouched. Every pass
//! before the fold is elementwise. `tests/blocked_equivalence.rs` pins the
//! result against the reference.
//!
//! Two alternatives were measured and dropped. Keeping the displacements in
//! the list (28 B a pair) and compacting sixteen dense channels for a
//! vectorised momentum term pass was slower than the scalar loop it
//! replaced (111 → 120–124 ms, one thread, 97k rows): that loop's ~55
//! cycles a pair were nine SoA gathers, three divisions and a 50/50 branch,
//! not the batch evaluators (~8), and compaction stores cost more than they
//! save — hence records and masks. Grid cells of `1.0 ×` instead of `1.4 ×
//! support(h_max)` scan 35 % fewer candidates but build only 12 % faster
//! (more, shorter runs) and change the visit order, hence every bit.

use std::cell::RefCell;

/// Defines a whole-row elementwise pass: `fn $name(args)` runs `$body` —
/// compiled twice, as written and as the nested clone `$name::avx2` under
/// `#[target_feature(enable = "avx2")]`, picked at run time
/// (`cornerstone::simd`); the crate's portable-body-plus-clone idiom,
/// spelled once because these passes take two dozen columns.
///
/// Every column is its own `&[f64]`/`&mut [f64]` *parameter* on purpose:
/// reference parameters are what tells the optimiser the columns do not
/// overlap. Handed the same columns as fields of one scratch struct it must
/// assume they might, guards the vector loop with a pairwise overlap check
/// per column pair, and sends rows shorter than ~60 candidates — nearly all
/// of them — down a scalar, branching copy of the loop instead.
macro_rules! row_pass {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        fn $name($($arg: $ty),*) {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn body($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if cornerstone::simd::avx2() {
                // SAFETY: AVX2 support was just checked; the clone has no
                // other precondition (the same body under wider codegen).
                return unsafe { avx2($($arg),*) };
            }
            body($($arg),*)
        }
    };
}
pub(crate) use row_pass;

/// Vector width the row passes are laid out for: 4 × f64, one AVX2 register.
pub(crate) const LANES: usize = 4;

/// Columns a gather can fill: the widest record (momentum) is 16 doubles.
pub(crate) const MAX_RECORD: usize = 16;

/// Reusable per-thread scratch for one CSR row: lane columns, one slot per
/// candidate, in row order, plus the spare lanes [`gather`] pads a row's
/// last group with.
#[derive(Default)]
pub(crate) struct RowScratch {
    /// The row's records, transposed: `cols[c][k]` is double `c` of
    /// candidate `k`'s record (the sweeps name the columns where they
    /// destructure this). The geometry pass overwrites the three position
    /// columns with the displacement `r_j - r_i`.
    pub cols: [Vec<f64>; MAX_RECORD],
    /// Squared pair distances and their roots.
    pub d2: Vec<f64>,
    pub r: Vec<f64>,
    /// Kernel values or gradient prefactors per pair (`w2`: the second one a
    /// sweep needs — `dW/dh`, or the neighbour-side gradient).
    pub w: Vec<f64>,
    pub w2: Vec<f64>,
    /// Per-pair term columns, one per folded output.
    pub terms: [Vec<f64>; 9],
}

thread_local! {
    static SCRATCH: RefCell<RowScratch> = RefCell::new(RowScratch::default());
    static RECORDS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's row scratch. Buffers keep their capacity
/// across rows and sweeps; callers must size/overwrite what they use.
#[inline]
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut RowScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Records filled per parallel work item.
const FILL_BLOCK: usize = 1024;

/// Fill one `S`-double record per stored particle (`fill(j)` for `j` in
/// `0..n`, by all workers) and run `sweep` over the packed array, record
/// `j` at `[j * S..][..S]`. The array lives in a buffer of the calling
/// thread that is reused from sweep to sweep and step to step — it never
/// holds more than the widest record per stored particle — and starts on a
/// cache-line boundary, so a 32- or 64-byte record never straddles two
/// lines and a 128-byte one covers exactly two.
pub(crate) fn with_records<const S: usize, R>(
    n: usize,
    fill: impl Fn(usize) -> [f64; S] + Sync,
    sweep: impl FnOnce(&[f64]) -> R,
) -> R {
    RECORDS.with(|buf| {
        let mut buf = buf.borrow_mut();
        // Seven spare doubles: room to skip to the next 64-byte boundary.
        if buf.len() < n * S + 7 {
            buf.resize(n * S + 7, 0.0);
        }
        let skip = buf.as_ptr().align_offset(64).min(7);
        let recs = &mut buf[skip..skip + n * S];
        let mut blocks: Vec<&mut [f64]> = recs.chunks_mut(FILL_BLOCK * S).collect();
        par::par_for_each_mut(&mut blocks, |b, block| {
            for (k, rec) in block.chunks_exact_mut(S).enumerate() {
                rec.copy_from_slice(&fill(b * FILL_BLOCK + k));
            }
        });
        sweep(recs)
    })
}

/// Transpose the records of row `jj` into lane columns: `cols[c][k] =
/// recs[jj[k] * S + c]` for `c < S`. Each column is sized to the row rounded
/// up to a whole number of [`LANES`]-wide groups, the spare lanes holding
/// copies of the row's last candidate: every elementwise pass downstream
/// then runs whole vectors only (their remainder loops, a scalar iteration
/// per leftover lane, never execute), and the folds, which stop at the
/// row's own length, never read a spare lane. Pure data movement — no value
/// is computed — so the two bodies agree trivially; a test compares them
/// anyway. Dispatched to an AVX2 body when available (`cornerstone::simd`).
pub(crate) fn gather<const S: usize>(recs: &[f64], jj: &[u32], cols: &mut [Vec<f64>; MAX_RECORD]) {
    const { assert!(S.is_multiple_of(LANES) && S <= MAX_RECORD) };
    for col in &mut cols[..S] {
        // Sets the length only: every slot is overwritten below.
        col.resize(jj.len().next_multiple_of(LANES), 0.0);
    }
    // Checked once per row, not per lane: the largest index names a whole
    // record, so every index does.
    let max = jj.iter().copied().max().map_or(0, |j| j as usize + 1);
    assert!(max * S <= recs.len(), "neighbor index past the records");
    #[cfg(target_arch = "x86_64")]
    if cornerstone::simd::avx2() {
        // SAFETY: AVX2 support was just checked; every column `< S` has
        // `jj.len()` rounded up to a multiple of 4 slots and every `j` in
        // `jj` has `(j + 1) * S <= recs.len()` (both established above).
        return unsafe { gather_avx2::<S>(recs, jj, cols) };
    }
    gather_portable::<S>(recs, jj, cols)
}

/// The row's last, partial group of candidates, filled up with copies of
/// its last one (`None` when the row is a whole number of groups).
fn padded_tail(jj: &[u32]) -> Option<[u32; LANES]> {
    let rest = jj.chunks_exact(LANES).remainder();
    let mut group = [*rest.last()?; LANES];
    for (slot, &j) in group.iter_mut().zip(rest) {
        *slot = j;
    }
    Some(group)
}

/// One record at a time.
fn gather_portable<const S: usize>(recs: &[f64], jj: &[u32], cols: &mut [Vec<f64>; MAX_RECORD]) {
    let whole = jj.len() - jj.len() % LANES;
    let tail = padded_tail(jj);
    for (k, &j) in jj[..whole].iter().chain(tail.iter().flatten()).enumerate() {
        let rec = &recs[j as usize * S..][..S];
        for (col, &v) in cols.iter_mut().zip(rec) {
            col[k] = v;
        }
    }
}

/// Four candidates at a time: per quad of the record, the four candidates'
/// low and high halves are loaded straight into the two halves of four
/// registers (`vinsertf128` from memory costs no shuffle), two unpack pairs
/// finish the 4×4 transpose, and each column takes one 32-byte store.
///
/// # Safety
///
/// The CPU must support AVX2; `cols[c].len() >=
/// jj.len().next_multiple_of(4)` for `c < S`; and `(j + 1) * S <=
/// recs.len()` for every `j` in `jj`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_avx2<const S: usize>(recs: &[f64], jj: &[u32], cols: &mut [Vec<f64>; MAX_RECORD]) {
    use std::arch::x86_64::*;
    let base = recs.as_ptr();
    let out = std::array::from_fn::<_, MAX_RECORD, _>(|c| cols[c].as_mut_ptr());
    let tail = padded_tail(jj);
    let groups = jj.chunks_exact(LANES).chain(tail.iter().map(|g| &g[..]));
    for (q, j4) in groups.enumerate() {
        let k = LANES * q;
        let rec = [0, 1, 2, 3].map(|l| base.add(j4[l] as usize * S));
        for c in (0..S).step_by(4) {
            // `[a.lo, a.hi | b.lo, b.hi]` of the 16-byte halves at `a`, `b`.
            let halves = |a: *const f64, b: *const f64| {
                _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(_mm_loadu_pd(a)), _mm_loadu_pd(b))
            };
            // SAFETY: each `j` names a whole record (caller; the padded
            // tail repeats indices of `jj`), and `c + 4 <= S`, so the eight
            // 16-byte loads stay inside `recs`; `k + 4 <=
            // jj.len().next_multiple_of(4) <= cols[..].len()`, so the four
            // stores stay inside their columns.
            let t0 = halves(rec[0].add(c), rec[2].add(c));
            let t1 = halves(rec[1].add(c), rec[3].add(c));
            let t2 = halves(rec[0].add(c + 2), rec[2].add(c + 2));
            let t3 = halves(rec[1].add(c + 2), rec[3].add(c + 2));
            _mm256_storeu_pd(out[c].add(k), _mm256_unpacklo_pd(t0, t1));
            _mm256_storeu_pd(out[c + 1].add(k), _mm256_unpackhi_pd(t0, t1));
            _mm256_storeu_pd(out[c + 2].add(k), _mm256_unpacklo_pd(t2, t3));
            _mm256_storeu_pd(out[c + 3].add(k), _mm256_unpackhi_pd(t2, t3));
        }
    }
}

/// The pair geometry of a gathered row relative to `p`, through the list's
/// `MinImage`. Every record starts with its particle's position: columns
/// 0..3 become the displacement `r_j - r_i`, `d2`/`r` the squared distance
/// and its root — bit for bit what the list scan computed when it admitted
/// the pair.
pub(crate) fn geometry(
    wrap: cornerstone::MinImage,
    p: [f64; 3],
    cols: &mut [Vec<f64>; MAX_RECORD],
    d2: &mut Vec<f64>,
    r: &mut Vec<f64>,
) {
    let [x, y, z, ..] = cols;
    d2.resize(x.len(), 0.0);
    r.resize(x.len(), 0.0);
    wrap.geometry_in_place(p, x, y, z, d2, r);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records<const S: usize>(n: usize) -> Vec<f64> {
        (0..n * S).map(|v| 0.5 + v as f64).collect()
    }

    fn gathers_agree<const S: usize>() {
        // 40 stored particles, the last 10 a "halo tail"; rows of every
        // length 0..=9 whose indices jump around and end on the last record.
        let recs = records::<S>(40);
        for len in 0..=9usize {
            let mut jj: Vec<u32> = (0..len).map(|k| ((k * 17 + 5) % 40) as u32).collect();
            if let Some(last) = jj.last_mut() {
                *last = 39;
            }
            let mut fast: [Vec<f64>; MAX_RECORD] = Default::default();
            // Stale longer columns: the gather must size them to the row.
            fast[0] = vec![-1.0; 12];
            gather::<S>(&recs, &jj, &mut fast);
            let mut slow: [Vec<f64>; MAX_RECORD] = Default::default();
            for col in &mut slow[..S] {
                col.resize(len.next_multiple_of(LANES), 0.0);
            }
            gather_portable::<S>(&recs, &jj, &mut slow);
            // The row, then its last candidate again up to a whole group.
            let padded = jj
                .iter()
                .chain(std::iter::repeat(&39))
                .take(len.next_multiple_of(LANES));
            for c in 0..S {
                let want: Vec<u64> = padded
                    .clone()
                    .map(|&j| recs[j as usize * S + c].to_bits())
                    .collect();
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast[c]), want, "S={S} len={len} column {c}");
                assert_eq!(bits(&slow[c]), want, "portable, S={S} len={len} column {c}");
            }
        }
    }

    #[test]
    fn transposed_and_portable_gathers_agree_for_every_tail_length() {
        gathers_agree::<4>();
        gathers_agree::<8>();
        gathers_agree::<16>();
    }

    #[test]
    #[should_panic(expected = "neighbor index past the records")]
    fn gather_refuses_an_index_without_a_record() {
        let recs = records::<4>(5);
        gather::<4>(&recs, &[0, 5], &mut Default::default());
    }

    #[test]
    fn records_are_filled_in_index_order_and_line_aligned() {
        for n in [0, 1, FILL_BLOCK, 2 * FILL_BLOCK + 3] {
            with_records(
                n,
                |j| [j as f64; 8],
                |recs| {
                    assert_eq!(recs.len(), n * 8);
                    assert_eq!(recs.as_ptr() as usize % 64, 0);
                    assert!(recs
                        .chunks_exact(8)
                        .enumerate()
                        .all(|(j, r)| r == [j as f64; 8]));
                },
            );
        }
    }

    #[test]
    fn a_masked_lane_is_the_identity_of_its_fold_for_every_running_sum() {
        // What a masked lane relies on (module docs): `-0.0` under `+=` and
        // `+0.0` under `-=` leave *any* running sum's bits alone — both
        // zeros, subnormals, infinities, NaN of either sign. (A fold from
        // `+0.0` cannot actually hold `-0.0`; the identity holds anyway.)
        let sums = [
            0.0,
            -0.0,
            1.5,
            -2.5e-310,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in sums {
            // black_box: the additions must happen at run time, on the FPU.
            let (mut plus, mut minus) = (std::hint::black_box(x), std::hint::black_box(x));
            plus += std::hint::black_box(-0.0);
            minus -= std::hint::black_box(0.0);
            assert_eq!(plus.to_bits(), x.to_bits(), "{x:e} + -0.0");
            assert_eq!(minus.to_bits(), x.to_bits(), "{x:e} - +0.0");
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
            // until overwritten (callers must size what they use).
            assert!(s.r.capacity() >= 2);
        });
    }
}
