//! Shared per-step CSR neighbor list with stored minimum-image deltas.
//!
//! The SPH step performs five neighbor sweeps (`FindNeighbors`, density,
//! two IAD passes, momentum) over the *same* candidates; walking the
//! [`CellList`]'s 27-cell stencil per particle in each of them would do the
//! search five times. [`NeighborList`] runs that walk once and stores, per
//! candidate, the neighbor index *and* the wrapped displacement
//! `r_j - r_i`; every sweep then reads the precomputed row with a per-sweep
//! radius filter and never touches scattered positions or [`Box3`] again.
//! The per-pair [`NeighborSearch`] replay of the same rows exists for the
//! reference sweeps and the tests (see the trait docs). Rows are recorded either at one fixed superset radius
//! ([`NeighborList::build_into`]) or — the simulation's default — with the
//! h-aware per-pair rule of [`NeighborList::build_adaptive_into`], which
//! keeps rows of small-`h` particles from hauling in candidates out to the
//! global maximum radius.
//!
//! The build is single-pass and in place: candidate positions are gathered
//! once into cell-sorted coordinate copies (contiguous scans instead of
//! `order` indirections), rows are cut into fixed chunks of 128
//! (`ROWS_PER_CHUNK`), and each chunk's worker scans its rows' stencils
//! straight into that chunk's own columns (`CellList::scan_into`). Those
//! per-chunk columns *are* the list — there is no flat array to splice them
//! into, so no serial pass and no second copy. One worker runs the same loop
//! over the same chunks, so the stored bits do not depend on the worker
//! count.
//!
//! ## Positions-unchanged contract
//!
//! Stored deltas are only valid while the positions the list was built over
//! are unchanged. The simulation satisfies this by construction: positions
//! move in `update_quantities`, after every sweep of the step, and the list
//! is rebuilt at the start of the next step.
//!
//! ## Bit-identity argument
//!
//! [`CellList::for_neighbors`] visits the same cell sequence regardless of
//! the query radius (always the ±1 stencil) and only the `d2 <= r²` filter
//! changes — so the candidates visited at radius `r <= R` are exactly the
//! subsequence of the radius-`R` visit sequence passing the filter. A CSR
//! row recorded at `R` in visit order, replayed with the per-sweep filter,
//! therefore yields the identical `(j, d2)` callback sequence. The replayed
//! `d2` is recomputed from the stored delta as `dx² + dy² + dz²` — the same
//! value [`Box3::dist2`] produces, to the bit: the stored delta is the exact
//! IEEE negation of `dist2`'s internal `r_i - r_j` (see
//! `CellList::scan_into`), squares erase the sign, and the
//! summation order matches. This requires the grid's cells to be at least
//! `R` wide — the same precondition the direct path already has — which
//! [`NeighborList::build`] cannot check (the grid does not expose its cell
//! size) but the simulation guarantees by building the grid at the list
//! radius.
//!
//! The adaptive build preserves the argument row by row: row `i` stores the
//! visit-order subsequence passing `d2 <= max(radii[i], radii[j])²`. That
//! gives a row two guarantees, and a caller may lean on either:
//!
//! * it contains every candidate within `radii[i]` — so replaying it at any
//!   query radius `r <= radii[i]` yields the same `(j, d2)` sequence the
//!   grid walk produces at `r`;
//! * it contains every candidate `j` within `radii[j]` — so a sweep that
//!   searches wider than `radii[i]` but keeps a pair only when it lies
//!   inside one of the two particles' own radii (the momentum sweep) finds
//!   every pair it keeps, in grid order.
//!
//! Candidates the rule drops lie beyond *both* particles' radii; a sweep of
//! either kind never consumes them, so dropping them cannot reorder or
//! change any fold. The simulation builds its list at `radii[p] =
//! support(h_p)`, the tightest radii for which both hold for all its sweeps
//! (`sph::list_radii_into` has the argument down to the rounding of the
//! comparisons). The grid-cell precondition becomes `max(radii)`; a coarser
//! grid changes the visit order, not the stored set.
//!
//! ## Memory cost model
//!
//! `28·pairs + 4·(n + chunks) + 24·stored` bytes (`+ 8·stored + 8·cells`
//! for the adaptive build's squared radii and their per-cell maxima): a
//! `u32` index plus three `f64` delta components per candidate pair, one
//! `u32` chunk-local row start per row and one more per chunk, and one
//! cell-sorted coordinate copy per stored particle. There is no transient
//! build scratch — the columns are filled where they stay — so the only
//! overhead on top of the model is column growth slack: capacity above
//! length, bounded near 25 % (columns grow by a quarter, not by doubling)
//! and kept across steps so the steady state allocates nothing. At the
//! simulation's radii a row holds the particle's neighbours and little
//! else (~40 candidates for a 40-neighbour target on a uniform cloud), so
//! this is ~1.4 KiB/particle — a deliberate trade: the five sweeps re-read
//! each pair's geometry 6× per step (IAD twice), and streaming 28 B beats
//! re-gathering three scattered positions plus a minimum-image computation
//! each time.

use crate::box3::Box3;
use crate::celllist::CellList;

/// Per-pair callback interface over neighbor-candidate enumeration, with
/// exactly two implementations: the direct grid walk ([`CellList`]) and the
/// stored-delta replay of the CSR list ([`NeighborList`]). The simulation's
/// sweeps do not go through it — they read the list's rows directly
/// ([`NeighborList::row_deltas`], [`NeighborList::filter_pairs_into`],
/// [`NeighborList::count_within`]); this is the traversal `sph::reference`
/// and the tests here compare those rows against.
///
/// Implementations MUST visit candidates in the canonical cell-list order
/// (cell stencil order, insertion order within a cell) and call
/// `f(j, dist2)` for every stored particle within `r` of particle `i` —
/// including `i` itself. The reference sweeps rely on that order for
/// bit-identical f64 accumulation across implementations.
pub trait NeighborSearch {
    /// Visit every particle within `r` (inclusive) of stored particle `i`,
    /// in the canonical order, calling `f(index, dist2)`.
    // Mirrors `CellList::for_neighbors`' coordinate-slice signature so both
    // implementations stay drop-in; bundling the slices would cost every hot
    // call site a struct build.
    #[allow(clippy::too_many_arguments)]
    fn for_neighbors_of<F: FnMut(usize, f64)>(
        &self,
        i: usize,
        r: f64,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        bbox: &Box3,
        f: F,
    );
}

impl NeighborSearch for CellList {
    fn for_neighbors_of<F: FnMut(usize, f64)>(
        &self,
        i: usize,
        r: f64,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        _bbox: &Box3,
        f: F,
    ) {
        self.for_neighbors(x[i], y[i], z[i], r, x, y, z, f);
    }
}

/// Rows per chunk: the unit of parallel build work and of storage. Row
/// contents are chunk-size independent (a row's candidates are the same
/// wherever the row lives), so this only tunes load balance against
/// per-chunk overhead.
const ROWS_PER_CHUNK: usize = 128;

/// Cell-sorted coordinate copies: slot `k` holds the position of the
/// particle in the grid's CSR slot `k`, so candidate scans are contiguous.
/// The adaptive build additionally keeps each candidate's squared search
/// radius in the same slot order (`r2`) and the largest of them per grid
/// cell (`cell_r2`, what lets the scan skip cells out of reach); both are
/// empty for fixed-radius builds.
#[derive(Debug, Clone, Default)]
pub(crate) struct SortedCoords {
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) z: Vec<f64>,
    pub(crate) r2: Vec<f64>,
    pub(crate) cell_r2: Vec<f64>,
}

impl SortedCoords {
    pub(crate) fn fill(&mut self, grid: &CellList, x: &[f64], y: &[f64], z: &[f64]) {
        let order = grid.order();
        let n = order.len();
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.r2.clear();
        self.cell_r2.clear();
        self.x.resize(n, 0.0);
        self.y.resize(n, 0.0);
        self.z.resize(n, 0.0);
        for (k, &j) in order.iter().enumerate() {
            let j = j as usize;
            self.x[k] = x[j];
            self.y[k] = y[j];
            self.z[k] = z[j];
        }
    }

    /// Gather squared per-particle radii into cell-sorted slots, and their
    /// maximum per cell (adaptive builds only).
    pub(crate) fn fill_radii(&mut self, grid: &CellList, radii: &[f64]) {
        self.r2.clear();
        self.r2.extend(grid.order().iter().map(|&j| {
            let r = radii[j as usize];
            r * r
        }));
        self.cell_r2.clear();
        self.cell_r2.extend(grid.cell_start().windows(2).map(|c| {
            self.r2[c[0] as usize..c[1] as usize]
                .iter()
                .fold(0.0f64, |m, &r2| m.max(r2))
        }));
    }

    fn bytes(&self) -> usize {
        (self.x.capacity()
            + self.y.capacity()
            + self.z.capacity()
            + self.r2.capacity()
            + self.cell_r2.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// Up to [`ROWS_PER_CHUNK`] consecutive rows, stored where they were built:
/// four parallel candidate columns in visit order plus chunk-local CSR row
/// starts (local row `r` spans `starts[r]..starts[r + 1]`; `u32` because a
/// chunk holds at most `128 × stored` candidates). The four columns always
/// have equal length.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowChunk {
    starts: Vec<u32>,
    /// Candidate particle indices (self included).
    pub(crate) j: Vec<u32>,
    /// Wrapped displacement `r_j - r_i` per candidate, recorded at build
    /// time (valid while positions are unchanged — see module docs).
    pub(crate) dx: Vec<f64>,
    pub(crate) dy: Vec<f64>,
    pub(crate) dz: Vec<f64>,
}

impl RowChunk {
    /// Drop all rows, keeping capacity; the first row starts at slot 0.
    fn reset(&mut self) {
        self.starts.clear();
        self.starts.push(0);
        self.j.clear();
        self.dx.clear();
        self.dy.clear();
        self.dz.clear();
    }

    /// Append one candidate to the four columns.
    #[inline]
    pub(crate) fn push(&mut self, j: u32, dx: f64, dy: f64, dz: f64) {
        self.j.push(j);
        self.dx.push(dx);
        self.dy.push(dy);
        self.dz.push(dz);
    }

    /// Make room for `additional` more candidates in every column. Growth
    /// is by a quarter of the length rather than `Vec`'s doubling: the
    /// columns are the bulk of the step's resident memory and are kept
    /// across steps, so slack is bounded at ~25 % instead of ~100 %.
    #[inline]
    pub(crate) fn reserve(&mut self, additional: usize) {
        #[inline]
        fn grow<T>(v: &mut Vec<T>, additional: usize) {
            if v.capacity() - v.len() < additional {
                v.reserve_exact(additional.max(v.len() / 4));
            }
        }
        grow(&mut self.j, additional);
        grow(&mut self.dx, additional);
        grow(&mut self.dy, additional);
        grow(&mut self.dz, additional);
    }

    /// Set the length of all four columns.
    ///
    /// # Safety
    ///
    /// As [`Vec::set_len`], for each column: `len <= capacity` and slots
    /// `..len` initialised.
    #[inline]
    pub(crate) unsafe fn set_len(&mut self, len: usize) {
        self.j.set_len(len);
        self.dx.set_len(len);
        self.dy.set_len(len);
        self.dz.set_len(len);
    }

    /// Close the current row: its candidates end where the columns end now.
    fn end_row(&mut self) {
        let end = u32::try_from(self.j.len()).expect("a chunk's candidates fit u32");
        self.starts.push(end);
    }

    fn bytes(&self) -> usize {
        (self.starts.capacity() + self.j.capacity()) * std::mem::size_of::<u32>()
            + (self.dx.capacity() + self.dy.capacity() + self.dz.capacity())
                * std::mem::size_of::<f64>()
    }
}

/// One row's interacting pairs ([`NeighborList::filter_pairs_into`]),
/// compacted into contiguous lane buffers: parallel arrays of neighbor
/// index, wrapped displacement `r_j - r_i`, and squared distance, in visit
/// order. A blocked sweep fills one of these per row (thread-local, reused)
/// and runs its pair math as passes over the buffers.
#[derive(Debug, Clone, Default)]
pub struct FilteredRow {
    /// Passing candidate indices, visit order.
    pub j: Vec<u32>,
    /// Wrapped displacement components `r_j - r_i`.
    pub dx: Vec<f64>,
    pub dy: Vec<f64>,
    pub dz: Vec<f64>,
    /// `dx² + dy² + dz²` — the same bits the scalar replay hands callbacks.
    pub d2: Vec<f64>,
}

impl FilteredRow {
    /// Number of passing candidates.
    pub fn len(&self) -> usize {
        self.j.len()
    }

    pub fn is_empty(&self) -> bool {
        self.j.is_empty()
    }

    /// Drop all candidates, keeping capacity.
    pub fn clear(&mut self) {
        self.j.clear();
        self.dx.clear();
        self.dy.clear();
        self.dz.clear();
        self.d2.clear();
    }

    #[inline]
    fn push(&mut self, j: u32, dx: f64, dy: f64, dz: f64, d2: f64) {
        self.j.push(j);
        self.dx.push(dx);
        self.dy.push(dy);
        self.dz.push(dz);
        self.d2.push(d2);
    }
}

/// CSR neighbor candidates for the first `n_query` stored particles,
/// recorded with their minimum-image deltas at a fixed superset radius or
/// under the h-aware per-pair rule (see the module docs).
///
/// Rows live in 128-row chunks (`ROWS_PER_CHUNK`), each owning its columns; the
/// chunks are reused across steps via [`NeighborList::build_into`], so a
/// rebuild only reallocates when a chunk's pair count grows past capacity.
#[derive(Debug, Clone, Default)]
pub struct NeighborList {
    /// Row `i` is local row `i % ROWS_PER_CHUNK` of chunk
    /// `i / ROWS_PER_CHUNK`; exactly `n_rows.div_ceil(ROWS_PER_CHUNK)`
    /// chunks are held.
    chunks: Vec<RowChunk>,
    n_rows: usize,
    /// The superset radius rows were recorded at — `max(radii)` for
    /// adaptive builds, where it bounds any *global*-radius query; row `i`
    /// individually answers queries up to its own `radii[i]`.
    radius: f64,
    /// Cell-sorted build input, reused across steps.
    sorted: SortedCoords,
}

impl NeighborList {
    /// An empty list (no rows); fill it with [`NeighborList::build_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a fresh list: rows for particles `0..n_query` holding every
    /// candidate within `radius` with its wrapped delta, in grid visit
    /// order. The grid must have been built over `x/y/z` with cells at
    /// least `radius` wide.
    pub fn build(
        grid: &CellList,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        n_query: usize,
        radius: f64,
    ) -> Self {
        let mut nl = NeighborList::new();
        nl.build_into(grid, x, y, z, n_query, radius);
        nl
    }

    /// Rebuild in place, reusing the chunk allocations of a previous step.
    ///
    /// Single traversal per row over cell-sorted coordinate copies, each
    /// chunk of rows filled by one worker (`par_for_each_mut`) directly
    /// into the columns it is read from afterwards. The emitted `(j, d2)`
    /// sequence per row is bit-identical to the direct grid walk (see
    /// `CellList::scan_into`) at any worker count.
    pub fn build_into(
        &mut self,
        grid: &CellList,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        n_query: usize,
        radius: f64,
    ) {
        self.build_common(grid, x, y, z, n_query, radius, None);
    }

    /// h-aware rebuild: pair `(i, j)` is stored iff
    /// `d2 <= max(radii[i], radii[j])²`, with `radii[p]` the per-particle
    /// search radius (one entry per stored particle, queries and candidates
    /// alike). Row `i` is then complete for any query radius up to
    /// `radii[i]`, and holds every `j` that has `i` within `radii[j]` (the
    /// module docs say which sweeps need which) — while rows of
    /// small-radius particles no longer haul in every candidate out to the
    /// *global* maximum radius.
    /// On strongly h-graded workloads (Evrard collapse) this shrinks rows
    /// severalfold; with uniform radii the stored rows are bit-identical
    /// to [`NeighborList::build_into`] at that radius.
    ///
    /// The grid's cells must be at least `max(radii)` wide (the same
    /// precondition as the fixed-radius build at that maximum). An empty
    /// particle set yields an empty list.
    pub fn build_adaptive_into(
        &mut self,
        grid: &CellList,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        n_query: usize,
        radii: &[f64],
    ) {
        assert_eq!(
            radii.len(),
            x.len(),
            "one search radius per stored particle"
        );
        let rmax = radii.iter().fold(0.0f64, |m, &r| m.max(r));
        self.build_common(grid, x, y, z, n_query, rmax, Some(radii));
    }

    #[allow(clippy::too_many_arguments)]
    fn build_common(
        &mut self,
        grid: &CellList,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        n_query: usize,
        radius: f64,
        radii: Option<&[f64]>,
    ) {
        // A rank that owns and imports nothing is legal: no particles, no
        // radius to speak of, no rows.
        assert!(
            x.is_empty() || radius > 0.0,
            "neighbor radius must be positive"
        );
        assert!(n_query <= x.len(), "query range exceeds stored particles");
        assert_eq!(
            grid.len(),
            x.len(),
            "grid and coordinate arrays disagree on particle count"
        );
        self.radius = radius;
        self.n_rows = n_query;
        self.sorted.fill(grid, x, y, z);
        if let Some(rr) = radii {
            self.sorted.fill_radii(grid, rr);
        }
        self.chunks
            .resize_with(n_query.div_ceil(ROWS_PER_CHUNK), RowChunk::default);
        let sorted = &self.sorted;
        par::par_for_each_mut(&mut self.chunks, |ci, ch| {
            ch.reset();
            let lo = ci * ROWS_PER_CHUNK;
            for i in lo..(lo + ROWS_PER_CHUNK).min(n_query) {
                let r = radii.map_or(radius, |rr| rr[i]);
                grid.scan_into([x[i], y[i], z[i]], r, sorted, ch);
                ch.end_row();
            }
        });
    }

    /// The superset radius rows were recorded at (`max(radii)` for
    /// adaptive builds).
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of rows (query particles).
    pub fn len(&self) -> usize {
        self.n_rows
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Candidate indices of row `i`, in visit order (includes `i` itself).
    pub fn row(&self, i: usize) -> &[u32] {
        self.row_deltas(i).0
    }

    /// Row `i`'s raw candidates with their stored deltas, unfiltered:
    /// `(j, dx, dy, dz)` parallel slices in visit order (self included).
    /// Sweeps that can tolerate out-of-radius candidates (because the
    /// kernel evaluates to exact zero beyond support, or because they apply
    /// the radius cut themselves) iterate this directly and skip the
    /// compaction pass entirely.
    ///
    /// This is the one place a global row index is resolved to its chunk
    /// and local row; every other accessor goes through it.
    #[inline]
    pub fn row_deltas(&self, i: usize) -> (&[u32], &[f64], &[f64], &[f64]) {
        let ch = &self.chunks[i / ROWS_PER_CHUNK];
        let r = i % ROWS_PER_CHUNK;
        let (s, e) = (ch.starts[r] as usize, ch.starts[r + 1] as usize);
        (&ch.j[s..e], &ch.dx[s..e], &ch.dy[s..e], &ch.dz[s..e])
    }

    /// Compact row `i`'s candidates with `0 < d2 <= r²` into `out`, in
    /// visit order — index, stored delta and recomputed `d2` per passing
    /// candidate, exactly the scalar replay's passing sequence minus the
    /// zero-distance candidates, bit for bit. `d2 == 0` happens exactly for
    /// the self-pair and coincident particles — the set every
    /// pair-interaction sweep skips (`j == i || d2 == 0`), so fusing the
    /// skip into the filter saves those sweeps a second compaction pass.
    /// Dispatched to an AVX2 body when available ([`crate::simd`]).
    pub fn filter_pairs_into(&self, i: usize, r: f64, out: &mut FilteredRow) {
        debug_assert!(
            r <= self.radius,
            "query radius {r} exceeds the recorded superset radius {}",
            self.radius
        );
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            // SAFETY: AVX2 and POPCNT support was just checked; the body
            // has no other precondition.
            return unsafe { self.filter_pairs_into_avx2(i, r, out) };
        }
        self.filter_pairs_into_portable(i, r, out)
    }

    /// Hand-vectorized compaction: `d2` for four candidates per
    /// `vmulpd`/`vaddpd` — the same `(a·a + b·b) + c·c` association as the
    /// portable body, hence the same bits — then the pair condition
    /// `0 < d2 <= r²` as two ordered compares and-ed into one mask, and the
    /// passing lanes of all five columns left-packed at the output cursor
    /// ([`crate::simd::pack_store_pd`]; the scan of the list build uses the
    /// same step).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn filter_pairs_into_avx2(&self, i: usize, r: f64, out: &mut FilteredRow) {
        use crate::simd::{pack_store_pd, pack_store_u32};
        use std::arch::x86_64::*;
        out.clear();
        let (jj, xs, ys, zs) = self.row_deltas(i);
        let n = jj.len();
        out.j.reserve(n + 4);
        out.dx.reserve(n + 4);
        out.dy.reserve(n + 4);
        out.dz.reserve(n + 4);
        out.d2.reserve(n + 4);
        let r2 = r * r;
        let vr2 = _mm256_set1_pd(r2);
        let vzero = _mm256_setzero_pd();
        let mut len = 0;
        let mut k = 0;
        while k + 4 <= n {
            // SAFETY: `k + 4 <= n`, the length of all four row slices, so
            // each 4-lane load is in bounds.
            let x = _mm256_loadu_pd(xs.as_ptr().add(k));
            let y = _mm256_loadu_pd(ys.as_ptr().add(k));
            let z = _mm256_loadu_pd(zs.as_ptr().add(k));
            let vj = _mm_loadu_si128(jj.as_ptr().add(k).cast());
            let q = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y)),
                _mm256_mul_pd(z, z),
            );
            let pass = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(q, vzero),
                _mm256_cmp_pd::<_CMP_LE_OQ>(q, vr2),
            );
            let mask = _mm256_movemask_pd(pass) as usize;
            // SAFETY: the columns were cleared and `reserve(n + 4)`-ed
            // above, and `len <= k <= n - 4` here — so `len + 4 <=
            // capacity` for all five stores (each debug-asserts it). `mask`
            // is a 4-bit movemask.
            pack_store_u32(&mut out.j, len, vj, mask);
            pack_store_pd(&mut out.dx, len, x, mask);
            pack_store_pd(&mut out.dy, len, y, mask);
            pack_store_pd(&mut out.dz, len, z, mask);
            pack_store_pd(&mut out.d2, len, q, mask);
            len += mask.count_ones() as usize;
            k += 4;
        }
        // SAFETY: slots `..len` of every column were initialised by the
        // pack stores (each advanced `len` by exactly its count of
        // meaningful lanes), and `len <= n <= capacity`.
        out.j.set_len(len);
        out.dx.set_len(len);
        out.dy.set_len(len);
        out.dz.set_len(len);
        out.d2.set_len(len);
        for k in k..n {
            let (a, b, c) = (xs[k], ys[k], zs[k]);
            let q = a * a + b * b + c * c;
            if q > 0.0 && q <= r2 {
                out.push(jj[k], a, b, c, q);
            }
        }
    }

    fn filter_pairs_into_portable(&self, i: usize, r: f64, out: &mut FilteredRow) {
        out.clear();
        let (jj, xs, ys, zs) = self.row_deltas(i);
        let r2 = r * r;
        for k in 0..jj.len() {
            let (a, b, c) = (xs[k], ys[k], zs[k]);
            let q = a * a + b * b + c * c;
            if q > 0.0 && q <= r2 {
                out.push(jj[k], a, b, c, q);
            }
        }
    }

    /// Count row `i`'s candidates within `r` (inclusive), self-pair
    /// included. Counting is order-insensitive, so the four lane counters
    /// need no ordered combine.
    /// Dispatched to an AVX2 body when available ([`crate::simd`]).
    pub fn count_within(&self, i: usize, r: f64) -> usize {
        debug_assert!(
            r <= self.radius,
            "query radius {r} exceeds the recorded superset radius {}",
            self.radius
        );
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            // SAFETY: AVX2 support was just checked; the body has no other
            // precondition.
            return unsafe { self.count_within_avx2(i, r) };
        }
        self.count_within_portable(i, r)
    }

    /// Hand-vectorized count: the pass mask (all-ones = -1 per passing
    /// lane, reinterpreted as i64) is subtracted from a vector counter, so
    /// each passing lane increments its own tally with no extract in the
    /// loop. Counting is order-insensitive, so summing the four lane
    /// counters at the end is exact.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn count_within_avx2(&self, i: usize, r: f64) -> usize {
        use std::arch::x86_64::*;
        let (_, xs, ys, zs) = self.row_deltas(i);
        let n = xs.len();
        let r2 = r * r;
        let vr2 = _mm256_set1_pd(r2);
        let mut vcount = _mm256_setzero_si256();
        let mut k = 0;
        while k + 4 <= n {
            // SAFETY: `k + 4 <= n`, the length of all three delta slices.
            let x = _mm256_loadu_pd(xs.as_ptr().add(k));
            let y = _mm256_loadu_pd(ys.as_ptr().add(k));
            let z = _mm256_loadu_pd(zs.as_ptr().add(k));
            let q = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y)),
                _mm256_mul_pd(z, z),
            );
            let pass = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LE_OQ>(q, vr2));
            vcount = _mm256_sub_epi64(vcount, pass);
            k += 4;
        }
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, vcount);
        let mut total = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as usize;
        for k in k..n {
            let (a, b, c) = (xs[k], ys[k], zs[k]);
            total += ((a * a + b * b + c * c) <= r2) as usize;
        }
        total
    }

    fn count_within_portable(&self, i: usize, r: f64) -> usize {
        let (_, xs, ys, zs) = self.row_deltas(i);
        let r2 = r * r;
        (0..xs.len())
            .filter(|&k| xs[k] * xs[k] + ys[k] * ys[k] + zs[k] * zs[k] <= r2)
            .count()
    }

    /// Total stored candidate pairs (self-pairs included).
    pub fn pair_count(&self) -> usize {
        self.chunks.iter().map(|ch| ch.j.len()).sum()
    }

    /// Mean candidates per row, excluding the self-pair.
    pub fn avg_neighbors(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (self.pair_count() as f64 / self.len() as f64 - 1.0).max(0.0)
    }

    /// Largest row, excluding the self-pair.
    pub fn max_neighbors(&self) -> usize {
        self.chunks
            .iter()
            .flat_map(|ch| ch.starts.windows(2))
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
            .saturating_sub(1)
    }

    /// Resident bytes of the list: every chunk's columns and row starts,
    /// the chunk headers, and the cell-sorted build input (capacity, not
    /// just length — this is what the buffer reuse actually holds onto
    /// across steps). There is no other copy and no build scratch.
    pub fn csr_bytes(&self) -> usize {
        self.chunks.iter().map(RowChunk::bytes).sum::<usize>()
            + self.chunks.capacity() * std::mem::size_of::<RowChunk>()
            + self.sorted.bytes()
    }
}

impl NeighborSearch for NeighborList {
    /// Scalar replay from the stored deltas: `d2` is `dx² + dy² + dz²` of
    /// the recorded displacement — bit-identical to [`Box3::dist2`] on the
    /// build-time positions (see the module docs). The coordinate and box
    /// arguments are unused; they exist so the grid walk stays drop-in.
    ///
    /// `r` may exceed the radius row `i` was recorded at: the replay then
    /// yields the *stored* candidates within `r` — of an adaptive row, the
    /// pairs within `max(radii[i], radii[j])` — which is what a caller that
    /// applies its own pairwise cut (the reference momentum sweep searches
    /// `1.4 · radii[i]` and keeps pairs inside either support) needs.
    fn for_neighbors_of<F: FnMut(usize, f64)>(
        &self,
        i: usize,
        r: f64,
        _x: &[f64],
        _y: &[f64],
        _z: &[f64],
        _bbox: &Box3,
        mut f: F,
    ) {
        let r2 = r * r;
        let (jj, xs, ys, zs) = self.row_deltas(i);
        for k in 0..jj.len() {
            let (a, b, c) = (xs[k], ys[k], zs[k]);
            let d2 = a * a + b * b + c * c;
            if d2 <= r2 {
                f(jj[k] as usize, d2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celllist::brute_force_neighbors;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn cloud(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = || (0..n).map(|_| rng.random::<f64>()).collect::<Vec<_>>();
        let x = f();
        let y = f();
        let z = f();
        (x, y, z)
    }

    /// Sorted neighbor indices of `i` within `r`, via the trait (self
    /// excluded, matching `brute_force_neighbors`).
    fn neighbors_via<N: NeighborSearch>(
        nb: &N,
        i: usize,
        r: f64,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        bbox: &Box3,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        nb.for_neighbors_of(i, r, x, y, z, bbox, |j, _| {
            if j != i {
                out.push(j);
            }
        });
        out.sort_unstable();
        out
    }

    /// Every row's candidates and delta bits — what "the same list" means.
    fn list_bits(nl: &NeighborList) -> Vec<(Vec<u32>, Vec<[u64; 3]>)> {
        (0..nl.len())
            .map(|i| {
                let (j, dx, dy, dz) = nl.row_deltas(i);
                let d = (0..j.len())
                    .map(|k| [dx[k].to_bits(), dy[k].to_bits(), dz[k].to_bits()])
                    .collect();
                (j.to_vec(), d)
            })
            .collect()
    }

    /// Row `i`'s `(j, delta bits, d2 bits)` sequence with `0 < d2 <= r²`,
    /// from the scalar `for_neighbors_of` replay and the stored row — what
    /// `filter_pairs_into` must emit.
    fn scalar_pairs(nl: &NeighborList, i: usize, r: f64) -> Vec<(u32, [u64; 3], u64)> {
        let (jj, dx, dy, dz) = nl.row_deltas(i);
        let mut passing = Vec::new();
        nl.for_neighbors_of(i, r, &[], &[], &[], &Box3::unit_periodic(), |j, d2| {
            if d2 > 0.0 {
                passing.push((j as u32, d2.to_bits()));
            }
        });
        // The replay hands out no deltas; take them from the stored row (a
        // candidate index appears once per row).
        passing
            .into_iter()
            .map(|(j, d2)| {
                let k = jj
                    .iter()
                    .position(|&c| c == j)
                    .expect("replayed j is stored");
                (j, [dx[k].to_bits(), dy[k].to_bits(), dz[k].to_bits()], d2)
            })
            .collect()
    }

    fn filtered_bits(row: &FilteredRow) -> Vec<(u32, [u64; 3], u64)> {
        (0..row.len())
            .map(|k| {
                let d = [
                    row.dx[k].to_bits(),
                    row.dy[k].to_bits(),
                    row.dz[k].to_bits(),
                ];
                (row.j[k], d, row.d2[k].to_bits())
            })
            .collect()
    }

    /// What a build must store, from first principles and with no stencil
    /// pruning: [`CellList::for_neighbors`] at an unbounded radius visits
    /// every candidate of all 27 stencil cells in canonical order; the pair
    /// rule (or the fixed radius) filters them, and [`Box3::delta`] gives
    /// the displacement the scan stores, bit for bit
    /// (`scan_replays_for_neighbors_bitwise` in the cell-list tests).
    #[allow(clippy::too_many_arguments)]
    fn full_stencil_bits(
        grid: &CellList,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        bbox: &Box3,
        n_query: usize,
        radius: f64,
        radii: Option<&[f64]>,
    ) -> Vec<(Vec<u32>, Vec<[u64; 3]>)> {
        (0..n_query)
            .map(|i| {
                let ri = radii.map_or(radius, |rr| rr[i]);
                let (mut jj, mut dd) = (Vec::new(), Vec::new());
                grid.for_neighbors(x[i], y[i], z[i], f64::INFINITY, x, y, z, |j, d2| {
                    let lim = radii.map_or(ri * ri, |rr| (ri * ri).max(rr[j] * rr[j]));
                    if d2 <= lim {
                        let (dx, dy, dz) = bbox.delta(x[j], y[j], z[j], x[i], y[i], z[i]);
                        jj.push(j as u32);
                        dd.push([dx.to_bits(), dy.to_bits(), dz.to_bits()]);
                    }
                });
                (jj, dd)
            })
            .collect()
    }

    /// One pruning case: a 1 × 2 × 3 box off the origin, so one cell size
    /// gives `cells`, `2·cells + 1` and `3·cells + 1` cells on the three
    /// axes; positions up to a quarter extent outside it (clamped into edge
    /// cells when open, wrapped when periodic); radii graded over a 10×
    /// spread up to the cell size; rows for the first `n_query` particles.
    /// The list built at 1 and at 4 workers must hold exactly the
    /// full-stencil rows.
    fn pruned_build_matches_full_stencil(
        seed: u64,
        n: usize,
        cells: usize,
        periodic: bool,
        adaptive: bool,
        n_query: usize,
    ) {
        let bbox = Box3 {
            xmin: -0.5,
            xmax: 0.5,
            ymin: 2.0,
            ymax: 4.0,
            zmin: -3.0,
            zmax: 0.0,
            periodic,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut axis = |lo: f64, l: f64| -> Vec<f64> {
            (0..n)
                .map(|_| lo + l * (1.5 * rng.random::<f64>() - 0.25))
                .collect()
        };
        let x = axis(bbox.xmin, bbox.lx());
        let y = axis(bbox.ymin, bbox.ly());
        let z = axis(bbox.zmin, bbox.lz());
        let cell = 1.0 / (cells as f64 + 0.5);
        let grid = CellList::build(&x, &y, &z, &bbox, cell);
        assert_eq!(grid.dims(), (cells, 2 * cells + 1, 3 * cells + 1));
        let radii: Vec<f64> = (0..n)
            .map(|_| cell * (0.1 + 0.9 * rng.random::<f64>()))
            .collect();
        let radius = 0.7 * cell;
        let rr = adaptive.then_some(radii.as_slice());
        let want = full_stencil_bits(&grid, &x, &y, &z, &bbox, n_query, radius, rr);
        for workers in [1, 4] {
            par::set_max_threads(workers);
            let mut nl = NeighborList::new();
            match rr {
                Some(rr) => nl.build_adaptive_into(&grid, &x, &y, &z, n_query, rr),
                None => nl.build_into(&grid, &x, &y, &z, n_query, radius),
            }
            par::set_max_threads(0);
            assert_eq!(
                list_bits(&nl),
                want,
                "{workers} workers, {cells} cells, periodic={periodic}, adaptive={adaptive}"
            );
        }
    }

    #[test]
    fn pruned_scan_stores_the_full_stencil_rows_on_every_grid_shape() {
        // 1, 2 and 3 cells on the short axis are the shapes where a periodic
        // stencil aliases (pruning must switch itself off per axis); 4 is
        // the general case. Every one, periodic and open, fixed and adaptive.
        for cells in 1..=4 {
            for periodic in [true, false] {
                for adaptive in [true, false] {
                    pruned_build_matches_full_stencil(77, 300, cells, periodic, adaptive, 300);
                    pruned_build_matches_full_stencil(78, 300, cells, periodic, adaptive, 170);
                }
            }
        }
    }

    #[test]
    fn rows_replay_the_exact_grid_visit_sequence() {
        // The contract everything rests on: filtered row iteration produces
        // the same (j, d2) sequence — same order, same bits — as the direct
        // grid walk at the sweep radius.
        let (x, y, z) = cloud(400, 11);
        let bbox = Box3::unit_periodic();
        let big = 0.15;
        let grid = CellList::build(&x, &y, &z, &bbox, big);
        let nl = NeighborList::build(&grid, &x, &y, &z, 400, big);
        for i in (0..400).step_by(7) {
            for r in [big, 0.1, 0.04] {
                let mut direct = Vec::new();
                grid.for_neighbors(x[i], y[i], z[i], r, &x, &y, &z, |j, d2| {
                    direct.push((j, d2.to_bits()));
                });
                let mut replay = Vec::new();
                nl.for_neighbors_of(i, r, &x, &y, &z, &bbox, |j, d2| {
                    replay.push((j, d2.to_bits()));
                });
                assert_eq!(direct, replay, "particle {i} at radius {r}");
            }
        }
    }

    #[test]
    fn stored_deltas_match_box_delta_bitwise() {
        for periodic in [true, false] {
            let (x, y, z) = cloud(300, 21);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let r = 0.18;
            let grid = CellList::build(&x, &y, &z, &bbox, r);
            let nl = NeighborList::build(&grid, &x, &y, &z, 300, r);
            for i in (0..300).step_by(13) {
                let (jj, dx, dy, dz) = nl.row_deltas(i);
                for k in 0..jj.len() {
                    let j = jj[k] as usize;
                    let (ex, ey, ez) = bbox.delta(x[j], y[j], z[j], x[i], y[i], z[i]);
                    assert_eq!(dx[k].to_bits(), ex.to_bits(), "dx of ({i},{j})");
                    assert_eq!(dy[k].to_bits(), ey.to_bits(), "dy of ({i},{j})");
                    assert_eq!(dz[k].to_bits(), ez.to_bits(), "dz of ({i},{j})");
                    let d2 = dx[k] * dx[k] + dy[k] * dy[k] + dz[k] * dz[k];
                    let expect = bbox.dist2(x[i], y[i], z[i], x[j], y[j], z[j]);
                    assert_eq!(d2.to_bits(), expect.to_bits(), "d2 of ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn builds_are_bitwise_identical_at_any_worker_count() {
        // One build path, so this cannot compare two functions; it pins the
        // property instead: which worker fills which chunk must not show in
        // any row. (The worker override is process-wide and results never
        // depend on it, so tests running alongside are unaffected.)
        for (n, periodic) in [(700, true), (700, false), (300, true)] {
            let (x, y, z) = cloud(n, 31);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let r = 0.11;
            // Non-uniform per-particle radii for the adaptive variant, all
            // bounded by the grid cell size `r`.
            let radii: Vec<f64> = (0..n).map(|i| 0.06 + 0.05 * (i % 7) as f64 / 6.0).collect();
            let grid = CellList::build(&x, &y, &z, &bbox, r);
            for rr in [None, Some(radii.as_slice())] {
                let build = |workers: usize| {
                    par::set_max_threads(workers);
                    let mut nl = NeighborList::new();
                    match rr {
                        Some(rr) => nl.build_adaptive_into(&grid, &x, &y, &z, n, rr),
                        None => nl.build_into(&grid, &x, &y, &z, n, r),
                    }
                    par::set_max_threads(0);
                    nl
                };
                let (one, four) = (build(1), build(4));
                assert_eq!(one.len(), n);
                assert_eq!(one.pair_count(), four.pair_count());
                assert_eq!(list_bits(&one), list_bits(&four));
            }
        }
    }

    #[test]
    fn rows_on_both_sides_of_a_chunk_boundary_replay_the_grid() {
        // Row 127 closes a chunk and row 128 opens the next; a list that
        // ends exactly at, just before and just after the boundary (and one
        // spanning three chunks) must resolve every row to the right chunk
        // and local start.
        let n = 300;
        let (x, y, z) = cloud(n, 37);
        let bbox = Box3::unit_periodic();
        let r = 0.12;
        let radii: Vec<f64> = (0..n).map(|i| 0.07 + 0.05 * (i % 5) as f64 / 4.0).collect();
        let grid = CellList::build(&x, &y, &z, &bbox, r);
        for n_query in [127, 128, 129, 257] {
            let fixed = NeighborList::build(&grid, &x, &y, &z, n_query, r);
            let mut adaptive = NeighborList::new();
            adaptive.build_adaptive_into(&grid, &x, &y, &z, n_query, &radii);
            assert_eq!(fixed.len(), n_query);
            assert_eq!(fixed.chunks.len(), n_query.div_ceil(ROWS_PER_CHUNK));
            let by_rows: usize = (0..n_query).map(|i| fixed.row(i).len()).sum();
            assert_eq!(fixed.pair_count(), by_rows);
            for i in 0..n_query {
                for (nl, q) in [(&fixed, r), (&adaptive, radii[i])] {
                    let mut direct = Vec::new();
                    grid.for_neighbors(x[i], y[i], z[i], q, &x, &y, &z, |j, d2| {
                        direct.push((j, d2.to_bits()));
                    });
                    let mut replay = Vec::new();
                    nl.for_neighbors_of(i, q, &x, &y, &z, &bbox, |j, d2| {
                        replay.push((j, d2.to_bits()));
                    });
                    assert_eq!(direct, replay, "row {i} of {n_query}");
                }
            }
        }
    }

    #[test]
    fn default_is_a_valid_empty_list() {
        let nl = NeighborList::default();
        assert_eq!(nl.len(), 0);
        assert!(nl.is_empty());
        assert_eq!(nl.pair_count(), 0);
        assert_eq!(nl.avg_neighbors(), 0.0);
        assert_eq!(nl.max_neighbors(), 0);
    }

    #[test]
    fn empty_inputs_build_empty_lists() {
        let bbox = Box3::unit_periodic();
        // No stored particles at all: max(radii) folds to 0.
        let grid = CellList::build(&[], &[], &[], &bbox, 0.1);
        let mut nl = NeighborList::new();
        nl.build_adaptive_into(&grid, &[], &[], &[], 0, &[]);
        assert_eq!((nl.len(), nl.pair_count()), (0, 0));
        nl.build_into(&grid, &[], &[], &[], 0, 0.1);
        assert_eq!((nl.len(), nl.pair_count()), (0, 0));
        // Stored particles but no query rows, over a list that held rows.
        let (x, y, z) = cloud(50, 7);
        let grid = CellList::build(&x, &y, &z, &bbox, 0.2);
        nl.build_adaptive_into(&grid, &x, &y, &z, 50, &[0.2; 50]);
        assert_eq!(nl.len(), 50);
        nl.build_adaptive_into(&grid, &x, &y, &z, 0, &[0.2; 50]);
        assert_eq!((nl.len(), nl.pair_count()), (0, 0));
        assert_eq!(nl.avg_neighbors(), 0.0);
    }

    #[test]
    fn adaptive_build_with_uniform_radii_matches_fixed_radius_build() {
        // With every per-particle radius equal, the pair rule degenerates to
        // the fixed-radius filter — the stored rows must be bitwise the
        // same (max-then-square equals square-then-max for equal operands).
        for periodic in [true, false] {
            let (x, y, z) = cloud(500, 41);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let r = 0.13;
            let grid = CellList::build(&x, &y, &z, &bbox, r);
            let plain = NeighborList::build(&grid, &x, &y, &z, 500, r);
            let mut adaptive = NeighborList::new();
            adaptive.build_adaptive_into(&grid, &x, &y, &z, 500, &vec![r; 500]);
            assert_eq!(list_bits(&plain), list_bits(&adaptive));
            assert_eq!(plain.radius(), adaptive.radius());
        }
    }

    #[test]
    fn adaptive_build_stores_exactly_the_pair_rule_set() {
        // Against first principles: row i holds j iff
        // d2 <= max(radii[i], radii[j])², nothing more, nothing less.
        for periodic in [true, false] {
            let (x, y, z) = cloud(350, 43);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let n = 350;
            let radii: Vec<f64> = (0..n).map(|i| 0.05 + 0.09 * (i % 5) as f64 / 4.0).collect();
            let rmax = radii.iter().fold(0.0f64, |m, &r| m.max(r));
            let grid = CellList::build(&x, &y, &z, &bbox, rmax);
            let mut nl = NeighborList::new();
            nl.build_adaptive_into(&grid, &x, &y, &z, n, &radii);
            for i in 0..n {
                let mut stored: Vec<usize> = nl.row(i).iter().map(|&j| j as usize).collect();
                stored.sort_unstable();
                let mut expect: Vec<usize> = (0..n)
                    .filter(|&j| {
                        let d2 = bbox.dist2(x[i], y[i], z[i], x[j], y[j], z[j]);
                        let lim = radii[i].max(radii[j]);
                        d2 <= lim * lim
                    })
                    .collect();
                expect.sort_unstable();
                assert_eq!(stored, expect, "row {i}");
            }
        }
    }

    #[test]
    fn adaptive_rows_replay_the_grid_sequence_within_row_radius() {
        // The per-row completeness contract: replaying row i at any query
        // radius up to radii[i] reproduces the direct grid walk's (j, d2)
        // sequence — same order, same bits — exactly as the fixed-radius
        // list does at its superset radius.
        let (x, y, z) = cloud(400, 47);
        let bbox = Box3::unit_periodic();
        let n = 400;
        let radii: Vec<f64> = (0..n).map(|i| 0.06 + 0.08 * (i % 7) as f64 / 6.0).collect();
        let rmax = radii.iter().fold(0.0f64, |m, &r| m.max(r));
        let grid = CellList::build(&x, &y, &z, &bbox, rmax);
        let mut nl = NeighborList::new();
        nl.build_adaptive_into(&grid, &x, &y, &z, n, &radii);
        for i in (0..n).step_by(7) {
            for r in [radii[i], 0.6 * radii[i], 0.25 * radii[i]] {
                let mut direct = Vec::new();
                grid.for_neighbors(x[i], y[i], z[i], r, &x, &y, &z, |j, d2| {
                    direct.push((j, d2.to_bits()));
                });
                let mut replay = Vec::new();
                nl.for_neighbors_of(i, r, &x, &y, &z, &bbox, |j, d2| {
                    replay.push((j, d2.to_bits()));
                });
                assert_eq!(direct, replay, "particle {i} at radius {r}");
            }
        }
    }

    #[test]
    fn pair_filter_matches_the_scalar_replay_minus_zero_distance() {
        // filter_pairs_into must emit exactly the scalar replay's passing
        // sequence without the zero-distance candidates (self included) —
        // indices, stored deltas and d2 bits — at every radius, covering
        // all 4-lane remainder classes (row lengths vary mod 4). Both
        // bodies are driven, not just the one dispatch picks.
        let (x, y, z) = cloud(400, 11);
        let bbox = Box3::unit_periodic();
        let big = 0.15;
        let grid = CellList::build(&x, &y, &z, &bbox, big);
        let nl = NeighborList::build(&grid, &x, &y, &z, 400, big);
        let mut row = FilteredRow::default();
        let mut seen_rem = [false; 4];
        for i in 0..400 {
            seen_rem[nl.row(i).len() % 4] = true;
            for r in [big, 0.1, 0.04, 0.002] {
                let want = scalar_pairs(&nl, i, r);
                assert!(want.iter().all(|&(j, _, _)| j as usize != i));
                nl.filter_pairs_into(i, r, &mut row);
                assert_eq!(filtered_bits(&row), want, "row {i} at radius {r}");
                nl.filter_pairs_into_portable(i, r, &mut row);
                assert_eq!(filtered_bits(&row), want, "portable, row {i} at {r}");
                #[cfg(target_arch = "x86_64")]
                if crate::simd::avx2() {
                    // SAFETY: AVX2 and POPCNT support was just checked.
                    unsafe { nl.filter_pairs_into_avx2(i, r, &mut row) };
                    assert_eq!(filtered_bits(&row), want, "avx2, row {i} at {r}");
                }
                let mut within = 0;
                nl.for_neighbors_of(i, r, &x, &y, &z, &bbox, |_, _| within += 1);
                assert_eq!(nl.count_within(i, r), within, "count of row {i} at {r}");
                assert_eq!(nl.count_within_portable(i, r), within);
            }
        }
        assert_eq!(seen_rem, [true; 4], "all remainder classes exercised");
    }

    #[test]
    fn tiny_rows_cover_every_remainder_length() {
        // Rows of length 1..=6 (a clustered line of particles): the
        // remainder-lane path handles every length-mod-4 class including
        // whole rows shorter than one chunk.
        let bbox = Box3::cube(0.0, 1.0, false);
        for n in 1usize..=6 {
            let x: Vec<f64> = (0..n).map(|k| 0.5 + 0.001 * k as f64).collect();
            let y = vec![0.5; n];
            let z = vec![0.5; n];
            let r = 0.1;
            let grid = CellList::build(&x, &y, &z, &bbox, r);
            let nl = NeighborList::build(&grid, &x, &y, &z, n, r);
            let mut row = FilteredRow::default();
            for i in 0..n {
                nl.filter_pairs_into(i, r, &mut row);
                assert_eq!(row.len(), n - 1, "row {i} of the {n}-cluster");
                assert_eq!(filtered_bits(&row), scalar_pairs(&nl, i, r));
                assert_eq!(nl.count_within(i, r), n);
                // A sub-support filter that drops the far tail.
                let small = 0.0015;
                nl.filter_pairs_into(i, small, &mut row);
                assert_eq!(filtered_bits(&row), scalar_pairs(&nl, i, small));
                assert_eq!(nl.count_within(i, small), row.len() + 1);
            }
        }
    }

    #[test]
    fn build_into_reuses_buffers_and_stays_correct() {
        let bbox = Box3::unit_periodic();
        let (x, y, z) = cloud(500, 3);
        let grid = CellList::build(&x, &y, &z, &bbox, 0.2);
        let mut nl = NeighborList::build(&grid, &x, &y, &z, 500, 0.2);
        let cap_before = nl.csr_bytes();

        // Rebuild over a smaller cloud with a smaller radius: capacity must
        // not shrink (reuse), rows must be fresh.
        let (x2, y2, z2) = cloud(200, 4);
        let grid2 = CellList::build(&x2, &y2, &z2, &bbox, 0.1);
        nl.build_into(&grid2, &x2, &y2, &z2, 200, 0.1);
        assert_eq!(nl.len(), 200);
        assert!(nl.csr_bytes() >= cap_before || nl.csr_bytes() > 0);
        for i in (0..200).step_by(11) {
            assert_eq!(
                neighbors_via(&nl, i, 0.1, &x2, &y2, &z2, &bbox),
                brute_force_neighbors(i, 0.1, &x2, &y2, &z2, &bbox)
            );
        }
    }

    #[test]
    fn partial_query_range_covers_only_the_prefix() {
        // The simulation only queries owned particles; halos are stored in
        // the grid (as candidates) but get no row of their own.
        let bbox = Box3::cube(0.0, 1.0, false);
        let (x, y, z) = cloud(120, 9);
        let grid = CellList::build(&x, &y, &z, &bbox, 0.12);
        let nl = NeighborList::build(&grid, &x, &y, &z, 80, 0.12);
        assert_eq!(nl.len(), 80);
        for i in (0..80).step_by(13) {
            assert_eq!(
                neighbors_via(&nl, i, 0.12, &x, &y, &z, &bbox),
                brute_force_neighbors(i, 0.12, &x, &y, &z, &bbox),
                "halo candidates must still appear in owned rows"
            );
        }
    }

    #[test]
    fn stats_report_the_csr_shape() {
        let bbox = Box3::unit_periodic();
        let (x, y, z) = cloud(300, 5);
        let grid = CellList::build(&x, &y, &z, &bbox, 0.2);
        let nl = NeighborList::build(&grid, &x, &y, &z, 300, 0.2);
        assert_eq!(nl.len(), 300);
        assert!(nl.pair_count() >= 300, "every row holds at least itself");
        let avg = nl.avg_neighbors();
        let max = nl.max_neighbors();
        assert!(avg > 0.0 && (avg as usize) <= max);
        // Recompute max from the rows directly.
        let by_rows = (0..300).map(|i| nl.row(i).len() - 1).max().unwrap();
        assert_eq!(max, by_rows);
        // 28 bytes per pair (u32 index + 3 f64 deltas) at minimum.
        assert!(nl.csr_bytes() >= nl.pair_count() * 28);
        // Empty list edge case.
        let empty = NeighborList::new();
        assert!(empty.is_empty());
        assert_eq!(empty.avg_neighbors(), 0.0);
        assert_eq!(empty.max_neighbors(), 0);
        assert_eq!(empty.pair_count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_neighborlist_equals_brute_force(
            seed in 0u64..1000,
            n in 1usize..150,
            r in 0.02f64..0.5,
            periodic in proptest::bool::ANY,
        ) {
            let (x, y, z) = cloud(n, seed);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let grid = CellList::build(&x, &y, &z, &bbox, r);
            let nl = NeighborList::build(&grid, &x, &y, &z, n, r);
            let i = (seed as usize) % n;
            prop_assert_eq!(
                neighbors_via(&nl, i, r, &x, &y, &z, &bbox),
                brute_force_neighbors(i, r, &x, &y, &z, &bbox)
            );
        }

        #[test]
        fn prop_pruned_scan_equals_full_stencil_scan(
            seed in 0u64..10_000,
            n in 1usize..160,
            cells in 1usize..=5,
            periodic in proptest::bool::ANY,
            adaptive in proptest::bool::ANY,
            query_share in 0.0f64..=1.0,
        ) {
            let n_query = ((n as f64 * query_share) as usize).min(n);
            pruned_build_matches_full_stencil(seed, n, cells, periodic, adaptive, n_query);
        }

        #[test]
        fn prop_filtered_rows_match_grid_at_smaller_radius(
            seed in 0u64..1000,
            n in 1usize..120,
            shrink in 0.2f64..1.0,
            periodic in proptest::bool::ANY,
        ) {
            // Querying a NeighborList recorded at R with any r <= R must
            // agree with brute force at r (the superset-plus-filter claim),
            // and the blocked compaction must match the scalar replay on
            // rows of every length (n down to 1 covers all remainders).
            let big = 0.3;
            let (x, y, z) = cloud(n, seed);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let grid = CellList::build(&x, &y, &z, &bbox, big);
            let nl = NeighborList::build(&grid, &x, &y, &z, n, big);
            let r = big * shrink;
            let i = (seed as usize) % n;
            prop_assert_eq!(
                neighbors_via(&nl, i, r, &x, &y, &z, &bbox),
                brute_force_neighbors(i, r, &x, &y, &z, &bbox)
            );
            let mut row = FilteredRow::default();
            nl.filter_pairs_into(i, r, &mut row);
            prop_assert_eq!(filtered_bits(&row), scalar_pairs(&nl, i, r));
            let mut within = 0;
            nl.for_neighbors_of(i, r, &x, &y, &z, &bbox, |_, _| within += 1);
            prop_assert_eq!(nl.count_within(i, r), within);
        }
    }
}
