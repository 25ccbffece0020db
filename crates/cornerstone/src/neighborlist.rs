//! Shared per-step CSR neighbor list: rows of candidate indices.
//!
//! The SPH step performs five neighbor sweeps (`FindNeighbors`, density,
//! two IAD passes, momentum) over the *same* candidates; walking the
//! [`CellList`]'s 27-cell stencil per particle in each of them would do the
//! search five times. [`NeighborList`] runs that walk once and stores, per
//! row, the indices of the candidates that passed — 4 bytes a pair, nothing
//! else. A row is the answer to "which particles", in grid visit order; the
//! pair geometry (displacement, distance) is recomputed by whoever consumes
//! the row, from the positions and the list's [`MinImage`]
//! ([`NeighborList::min_image`]) — the same expressions the scan decided
//! membership with, so a recomputed `d2` is the `d2` the scan tested, to
//! the bit. The per-pair [`NeighborSearch`] replay of the same rows exists
//! for the reference sweeps and the tests (see the trait docs). Rows are
//! recorded either at one fixed superset radius
//! ([`NeighborList::build_into`]) or — the simulation's default — with the
//! h-aware per-pair rule of [`NeighborList::build_adaptive_into`], which
//! keeps rows of small-`h` particles from hauling in candidates out to the
//! global maximum radius.
//!
//! The build is single-pass and in place: candidate positions are gathered
//! once into cell-sorted coordinate copies (contiguous scans instead of
//! `order` indirections), rows are cut into fixed chunks of 128
//! (`ROWS_PER_CHUNK`), and each chunk's worker scans its rows' stencils
//! straight into that chunk's own index column (`CellList::scan_into`).
//! Those per-chunk columns *are* the list — there is no flat array to splice
//! them into, so no serial pass and no second copy. One worker runs the same
//! loop over the same chunks, so the stored bits do not depend on the worker
//! count. While a row's distances are in registers the scan also counts the
//! candidates within the row's *own* radius
//! ([`NeighborList::within_own_radius`]): the neighbour count the step
//! adapts `h` to costs no traversal of its own.
//!
//! ## Positions-unchanged contract
//!
//! A row names the candidates that passed the pair rule at the positions
//! the list was built over; a consumer that recomputes geometry from moved
//! positions would fold pairs the rule never admitted (and miss ones it
//! would). Rows are therefore only valid while those positions are
//! unchanged, and the contract now binds the sweeps' own deltas too: they
//! must be computed from the build-time positions with
//! [`NeighborList::min_image`]. The simulation satisfies this by
//! construction: positions move in `update_quantities`, after every sweep of
//! the step, and the list is rebuilt at the start of the next step.
//!
//! ## Bit-identity argument
//!
//! [`CellList::for_neighbors`] visits the same cell sequence regardless of
//! the query radius (always the ±1 stencil) and only the `d2 <= r²` filter
//! changes — so the candidates visited at radius `r <= R` are exactly the
//! subsequence of the radius-`R` visit sequence passing the filter. A CSR
//! row recorded at `R` in visit order, replayed with the per-sweep filter,
//! therefore yields the identical `(j, d2)` callback sequence, `d2` being
//! recomputed from the two positions by [`Box3::dist2`] (the replay here;
//! the very call the grid walk makes) or by [`MinImage::delta`] (the
//! sweeps; the same operations in select form, see its docs). This requires
//! the grid's cells to be at least `R` wide on every axis where the ±1
//! stencil does not already cover every cell — a finer grid would silently
//! drop the pairs beyond the stencil — which every build asserts against
//! [`CellList::cell_edges`].
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
//! `4·pairs + 8·rows + 24·stored` bytes (`+ 8·stored + 8·cells` for the
//! adaptive build's squared radii and their per-cell maxima): a `u32` index
//! per candidate pair, a `u32` chunk-local row start and a `u32` own-radius
//! count per row (one more start per chunk), and one cell-sorted coordinate
//! copy per stored particle. There is no transient build scratch — the
//! columns are filled where they stay — so the only overhead on top of the
//! model is column growth slack: capacity above length, bounded near 25 %
//! (columns grow by a quarter, not by doubling) and kept across steps so the
//! steady state allocates nothing. At the simulation's radii a row holds the
//! particle's neighbours and little else (~40 candidates for a 40-neighbour
//! target on a uniform cloud), so this is ~0.2 KiB/particle. The list used
//! to carry three `f64` delta components beside every index (28 B a pair,
//! 1.4 KiB/particle, 250 of a 97k-particle step's 291 MB peak RSS) on the
//! argument that streaming them beats re-gathering positions; measured
//! against one packed per-neighbour record per sweep (`sph::lanes`) rather
//! than three scattered SoA loads and a branchy wrap, it does not: every
//! sweep got faster reading 4 B a pair and recomputing.

use crate::box3::Box3;
use crate::celllist::{CellList, MinImage};

/// Per-pair callback interface over neighbor-candidate enumeration, with
/// exactly two implementations: the direct grid walk ([`CellList`]) and the
/// replay of the CSR list's rows ([`NeighborList`]). The simulation's
/// sweeps do not go through it — they read the list's rows directly
/// ([`NeighborList::row`]) and recompute the geometry a whole row at a time;
/// this is the traversal `sph::reference` and the tests here compare those
/// rows against.
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

/// Make room for `additional` more candidates in an index column. Growth is
/// by a quarter of the length rather than `Vec`'s doubling: the columns are
/// the bulk of the list's resident memory and are kept across steps, so
/// slack is bounded at ~25 % instead of ~100 %.
#[inline]
pub(crate) fn grow(v: &mut Vec<u32>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(additional.max(v.len() / 4));
    }
}

/// Up to [`ROWS_PER_CHUNK`] consecutive rows, stored where they were built:
/// one candidate-index column in visit order plus chunk-local CSR row starts
/// (local row `r` spans `starts[r]..starts[r + 1]`; `u32` because a chunk
/// holds at most `128 × stored` candidates) and each row's own-radius count.
#[derive(Debug, Clone, Default)]
struct RowChunk {
    starts: Vec<u32>,
    /// Candidate particle indices (self included).
    j: Vec<u32>,
    /// Per local row: how many of its candidates lie within the row's own
    /// search radius (self included).
    own: Vec<u32>,
}

impl RowChunk {
    /// Drop all rows, keeping capacity; the first row starts at slot 0.
    fn reset(&mut self) {
        self.starts.clear();
        self.starts.push(0);
        self.j.clear();
        self.own.clear();
    }

    /// Close the current row: its candidates end where the column ends now,
    /// `own` of them within the row's own radius.
    fn end_row(&mut self, own: usize) {
        let end = u32::try_from(self.j.len()).expect("a chunk's candidates fit u32");
        self.starts.push(end);
        self.own.push(own as u32);
    }

    fn bytes(&self) -> usize {
        (self.starts.capacity() + self.j.capacity() + self.own.capacity())
            * std::mem::size_of::<u32>()
    }
}

/// CSR neighbor candidates for the first `n_query` stored particles:
/// indices only, recorded at a fixed superset radius or under the h-aware
/// per-pair rule (see the module docs).
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
    /// The displacement rule of the box the rows were recorded in.
    wrap: MinImage,
    /// Cell-sorted build input, reused across steps.
    sorted: SortedCoords,
}

impl NeighborList {
    /// An empty list (no rows); fill it with [`NeighborList::build_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a fresh list: rows for particles `0..n_query` holding every
    /// candidate within `radius`, in grid visit order. The grid must have
    /// been built over `x/y/z` with cells at least `radius` wide (checked).
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
    /// into the column it is read from afterwards. The emitted `(j, d2)`
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
    /// precondition as the fixed-radius build at that maximum, and checked
    /// the same way). An empty particle set yields an empty list.
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
        // The ±1 stencil reaches one cell edge: on an axis it does not
        // already cover end to end (more than two cells), a cell narrower
        // than the radius would drop pairs without a trace. The tolerance
        // is for the rounding of `extent / floor(extent / cell_size)`.
        let (dims, edges) = (grid.dims(), grid.cell_edges());
        for (cells, edge) in [dims.0, dims.1, dims.2].into_iter().zip(edges) {
            assert!(
                cells <= 2 || edge >= radius * (1.0 - 1e-12),
                "neighbor radius {radius} exceeds the grid's cell edge {edge}: \
                 the ±1 stencil would miss pairs"
            );
        }
        self.radius = radius;
        self.n_rows = n_query;
        self.wrap = MinImage::new(grid.bbox());
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
                let own = grid.scan_into([x[i], y[i], z[i]], r, sorted, &mut ch.j);
                ch.end_row(own);
            }
        });
    }

    /// The superset radius rows were recorded at (`max(radii)` for
    /// adaptive builds).
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The displacement rule rows were recorded under: what a consumer
    /// recomputes a stored pair's geometry with (see the module docs).
    pub fn min_image(&self) -> MinImage {
        self.wrap
    }

    /// Number of rows (query particles).
    pub fn len(&self) -> usize {
        self.n_rows
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Candidate indices of row `i`, in visit order (includes `i` itself).
    ///
    /// With [`NeighborList::within_own_radius`], one of the two places a
    /// global row index is resolved to its chunk and local row.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        let ch = &self.chunks[i / ROWS_PER_CHUNK];
        let r = i % ROWS_PER_CHUNK;
        &ch.j[ch.starts[r] as usize..ch.starts[r + 1] as usize]
    }

    /// How many of row `i`'s candidates lie within the radius the row was
    /// built for — `radii[i]` of an adaptive build, the one radius of a
    /// fixed build (then the whole row) — self included, counted by the
    /// scan with the `d2 <= r²` test a replay at that radius applies.
    #[inline]
    pub fn within_own_radius(&self, i: usize) -> usize {
        self.chunks[i / ROWS_PER_CHUNK].own[i % ROWS_PER_CHUNK] as usize
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

    /// Resident bytes of the list: every chunk's columns, the chunk
    /// headers, and the cell-sorted build input (capacity, not just length
    /// — this is what the buffer reuse actually holds onto across steps).
    /// There is no other copy and no build scratch.
    pub fn csr_bytes(&self) -> usize {
        self.chunks.iter().map(RowChunk::bytes).sum::<usize>()
            + self.chunks.capacity() * std::mem::size_of::<RowChunk>()
            + self.sorted.bytes()
    }
}

impl NeighborSearch for NeighborList {
    /// Scalar replay of row `i`: each stored candidate's `d2` through
    /// [`Box3::dist2`] on the coordinates handed in — the call the grid walk
    /// makes on the same two positions, so the same bits — filtered at `r`.
    /// The coordinates must be the ones the list was built over.
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
        x: &[f64],
        y: &[f64],
        z: &[f64],
        bbox: &Box3,
        mut f: F,
    ) {
        let r2 = r * r;
        for &j in self.row(i) {
            let j = j as usize;
            let d2 = bbox.dist2(x[i], y[i], z[i], x[j], y[j], z[j]);
            if d2 <= r2 {
                f(j, d2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celllist::brute_force_neighbors;
    use rng::Rng;

    fn cloud(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut f = || (0..n).map(|_| rng.unit()).collect::<Vec<_>>();
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

    /// Every row's candidates and own-radius count — what "the same list"
    /// means.
    fn list_bits(nl: &NeighborList) -> Vec<(Vec<u32>, usize)> {
        (0..nl.len())
            .map(|i| (nl.row(i).to_vec(), nl.within_own_radius(i)))
            .collect()
    }

    /// What a build must store, from first principles and with no stencil
    /// pruning: [`CellList::for_neighbors`] at an unbounded radius visits
    /// every candidate of all 27 stencil cells in canonical order; the pair
    /// rule (or the fixed radius) filters them, and the candidates within
    /// the row's own radius are counted on the way.
    fn full_stencil_bits(
        grid: &CellList,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        n_query: usize,
        radius: f64,
        radii: Option<&[f64]>,
    ) -> Vec<(Vec<u32>, usize)> {
        (0..n_query)
            .map(|i| {
                let ri = radii.map_or(radius, |rr| rr[i]);
                let (mut jj, mut own) = (Vec::new(), 0);
                grid.for_neighbors(x[i], y[i], z[i], f64::INFINITY, x, y, z, |j, d2| {
                    let lim = radii.map_or(ri * ri, |rr| (ri * ri).max(rr[j] * rr[j]));
                    if d2 <= lim {
                        jj.push(j as u32);
                        own += (d2 <= ri * ri) as usize;
                    }
                });
                (jj, own)
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
        let mut rng = Rng::seed_from_u64(seed);
        let mut axis = |lo: f64, l: f64| -> Vec<f64> {
            (0..n).map(|_| lo + l * (1.5 * rng.unit() - 0.25)).collect()
        };
        let x = axis(bbox.xmin, bbox.lx());
        let y = axis(bbox.ymin, bbox.ly());
        let z = axis(bbox.zmin, bbox.lz());
        let cell = 1.0 / (cells as f64 + 0.5);
        let grid = CellList::build(&x, &y, &z, &bbox, cell);
        assert_eq!(grid.dims(), (cells, 2 * cells + 1, 3 * cells + 1));
        let radii: Vec<f64> = (0..n).map(|_| cell * (0.1 + 0.9 * rng.unit())).collect();
        let radius = 0.7 * cell;
        let rr = adaptive.then_some(radii.as_slice());
        let want = full_stencil_bits(&grid, &x, &y, &z, n_query, radius, rr);
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
    fn within_own_radius_is_the_brute_force_count_at_the_rows_radius() {
        // Fixed and adaptive builds, periodic and open boxes, rows for a
        // prefix of the stored particles only: the count the scan took on
        // the way equals an O(n) count at radii[i] (self included), and a
        // fixed-radius build counts exactly what it stores.
        for periodic in [true, false] {
            let n = 350;
            let (x, y, z) = cloud(n, 21);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let radii: Vec<f64> = (0..n).map(|i| 0.05 + 0.09 * (i % 5) as f64 / 4.0).collect();
            let rmax = 0.14;
            let grid = CellList::build(&x, &y, &z, &bbox, rmax);
            for n_query in [n, 200] {
                let fixed = NeighborList::build(&grid, &x, &y, &z, n_query, rmax);
                let mut adaptive = NeighborList::new();
                adaptive.build_adaptive_into(&grid, &x, &y, &z, n_query, &radii);
                for (i, &ri) in radii.iter().enumerate().take(n_query) {
                    let brute = |r| brute_force_neighbors(i, r, &x, &y, &z, &bbox).len() + 1;
                    assert_eq!(fixed.within_own_radius(i), brute(rmax), "fixed row {i}");
                    assert_eq!(fixed.within_own_radius(i), fixed.row(i).len());
                    assert_eq!(adaptive.within_own_radius(i), brute(ri), "adaptive row {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "neighbor radius 0.2 exceeds the grid's cell edge 0.1")]
    fn a_grid_finer_than_the_radius_is_refused() {
        // Ten cells of 0.1 per axis: at radius 0.2 the ±1 stencil would
        // silently miss every pair between 0.1 and 0.2 apart.
        let (x, y, z) = cloud(100, 5);
        let grid = CellList::build(&x, &y, &z, &Box3::unit_periodic(), 0.1);
        assert_eq!(grid.cell_edges(), [0.1; 3]);
        NeighborList::build(&grid, &x, &y, &z, 100, 0.2);
    }

    #[test]
    fn a_radius_wider_than_the_box_passes_on_axes_the_stencil_covers() {
        // One or two cells per axis: the ±1 stencil visits every cell, so
        // any radius is complete however narrow the cell.
        for (cell, r) in [(0.45, 0.6), (0.7, 1.5)] {
            let (x, y, z) = cloud(60, 6);
            let bbox = Box3::unit_periodic();
            let grid = CellList::build(&x, &y, &z, &bbox, cell);
            let nl = NeighborList::build(&grid, &x, &y, &z, 60, r);
            for i in (0..60).step_by(7) {
                assert_eq!(
                    neighbors_via(&nl, i, r, &x, &y, &z, &bbox),
                    brute_force_neighbors(i, r, &x, &y, &z, &bbox)
                );
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
        // 4 bytes per pair (the u32 index) at minimum, and nowhere near the
        // 12 a single f64 column beside it would make.
        assert!(nl.csr_bytes() >= nl.pair_count() * 4);
        assert!(nl.csr_bytes() < nl.pair_count() * 8);
        // Empty list edge case.
        let empty = NeighborList::new();
        assert!(empty.is_empty());
        assert_eq!(empty.avg_neighbors(), 0.0);
        assert_eq!(empty.max_neighbors(), 0);
        assert_eq!(empty.pair_count(), 0);
    }

    // Properties: 24 generated cases each, failing case index printed.
    #[test]
    fn prop_neighborlist_equals_brute_force() {
        rng::cases(24, |g| {
            let seed = g.u64(0..1000);
            let n = g.usize(1..150);
            let r = g.f64(0.02..0.5);
            let periodic = g.bool();
            let (x, y, z) = cloud(n, seed);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let grid = CellList::build(&x, &y, &z, &bbox, r);
            let nl = NeighborList::build(&grid, &x, &y, &z, n, r);
            let i = (seed as usize) % n;
            assert_eq!(
                neighbors_via(&nl, i, r, &x, &y, &z, &bbox),
                brute_force_neighbors(i, r, &x, &y, &z, &bbox)
            );
        });
    }

    #[test]
    fn prop_pruned_scan_equals_full_stencil_scan() {
        rng::cases(24, |g| {
            let seed = g.u64(0..10_000);
            let n = g.usize(1..160);
            let cells = g.usize(1..=5);
            let periodic = g.bool();
            let adaptive = g.bool();
            let query_share = g.f64(0.0..1.0);
            let n_query = ((n as f64 * query_share) as usize).min(n);
            pruned_build_matches_full_stencil(seed, n, cells, periodic, adaptive, n_query);
        });
    }

    #[test]
    fn prop_rows_replayed_at_a_smaller_radius_match_brute_force() {
        rng::cases(24, |g| {
            let seed = g.u64(0..1000);
            let n = g.usize(1..120);
            let shrink = g.f64(0.2..1.0);
            let periodic = g.bool();
            // Querying a NeighborList recorded at R with any r <= R must
            // agree with brute force at r (the superset-plus-filter claim).
            let big = 0.3;
            let (x, y, z) = cloud(n, seed);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let grid = CellList::build(&x, &y, &z, &bbox, big);
            let nl = NeighborList::build(&grid, &x, &y, &z, n, big);
            let r = big * shrink;
            let i = (seed as usize) % n;
            assert_eq!(
                neighbors_via(&nl, i, r, &x, &y, &z, &bbox),
                brute_force_neighbors(i, r, &x, &y, &z, &bbox)
            );
        });
    }
}
