//! Uniform-grid neighbor search (cell lists) with periodic support.
//!
//! SPH needs all neighbors within the interaction radius `r = 2h`. A cell
//! list with cell edge `>= r` finds them by scanning the 27 surrounding
//! cells. Correctness is property-tested against the brute-force reference
//! ([`brute_force_neighbors`]).

use serde::{Deserialize, Serialize};

use crate::box3::Box3;
use crate::neighborlist::SortedCoords;

/// The minimum-image displacement in select form — the *one* definition of
/// the pair-geometry expressions. The list scan decides membership with it
/// and the sweeps recompute every pair's displacement with it
/// ([`crate::NeighborList::min_image`]), so what a sweep folds is, bit for
/// bit, what the scan tested.
///
/// It performs the same operations as [`Box3::delta`]'s branches (`d - 0.0
/// == d` and `d - (-l) == d + l` exactly), so [`MinImage::delta`] of `a`
/// relative to `b` equals `Box3::delta(a, b)`, and its `d2` equals
/// [`Box3::dist2`] in either argument order (IEEE negation is exact and
/// squares erase the sign).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinImage {
    periodic: bool,
    /// Box edge lengths and their halves, per axis.
    l: [f64; 3],
    h: [f64; 3],
}

impl MinImage {
    pub fn new(bbox: &Box3) -> Self {
        let l = [bbox.lx(), bbox.ly(), bbox.lz()];
        MinImage {
            periodic: bbox.periodic,
            l,
            h: l.map(|l| 0.5 * l),
        }
    }

    /// `(dx, dy, dz, d2)` of candidate `(x, y, z)` relative to `(px, py, pz)`.
    #[inline(always)]
    pub fn delta(&self, x: f64, y: f64, z: f64, px: f64, py: f64, pz: f64) -> (f64, f64, f64, f64) {
        let wrap = |d: f64, l: f64, h: f64| {
            d - if d > h {
                l
            } else if d < -h {
                -l
            } else {
                0.0
            }
        };
        let (mut dx, mut dy, mut dz) = (x - px, y - py, z - pz);
        if self.periodic {
            dx = wrap(dx, self.l[0], self.h[0]);
            dy = wrap(dy, self.l[1], self.h[1]);
            dz = wrap(dz, self.l[2], self.h[2]);
        }
        (dx, dy, dz, dx * dx + dy * dy + dz * dz)
    }

    /// [`MinImage::delta`] over a row: the candidate positions in `x/y/z`
    /// are overwritten with their displacements relative to `p`, and
    /// `d2[k]`/`r[k]` receive the squared distance and its (correctly
    /// rounded) root. Elementwise, so every lane carries the bits of the
    /// scalar call whatever its position. Dispatched through an AVX2 clone
    /// when available ([`crate::simd`]).
    pub fn geometry_in_place(
        &self,
        p: [f64; 3],
        x: &mut [f64],
        y: &mut [f64],
        z: &mut [f64],
        d2: &mut [f64],
        r: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            // SAFETY: AVX2 support was just checked; the clone has no other
            // precondition (portable body under different codegen).
            return unsafe { self.geometry_in_place_avx2(p, x, y, z, d2, r) };
        }
        self.geometry_in_place_impl(p, x, y, z, d2, r)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn geometry_in_place_avx2(
        &self,
        p: [f64; 3],
        x: &mut [f64],
        y: &mut [f64],
        z: &mut [f64],
        d2: &mut [f64],
        r: &mut [f64],
    ) {
        self.geometry_in_place_impl(p, x, y, z, d2, r)
    }

    #[inline(always)]
    fn geometry_in_place_impl(
        &self,
        [px, py, pz]: [f64; 3],
        x: &mut [f64],
        y: &mut [f64],
        z: &mut [f64],
        d2: &mut [f64],
        r: &mut [f64],
    ) {
        let n = x.len();
        let (y, z, d2, r) = (&mut y[..n], &mut z[..n], &mut d2[..n], &mut r[..n]);
        for k in 0..n {
            let (dx, dy, dz, q) = self.delta(x[k], y[k], z[k], px, py, pz);
            x[k] = dx;
            y[k] = dy;
            z[k] = dz;
            d2[k] = q;
            r[k] = q.sqrt();
        }
    }
}

/// Slack, in cell widths, taken off every stencil gap before it serves as
/// a lower bound on a distance (see [`CellList::scan_into`]). Cell
/// membership is decided by rounded arithmetic (`normalize`, the scale by
/// the cell count, the truncation), so a candidate can sit a few ulp of the
/// box extent on the near side of the face its cell nominally starts at:
/// at most ~1e-15 · cells-per-axis cell widths, and an axis holds fewer than
/// 2³² cells. A ten-thousandth of a cell covers that with orders to spare
/// and costs the pruning nothing measurable.
const GAP_SLACK: f64 = 1e-4;

/// CSR-layout uniform grid over particle positions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellList {
    bbox: Box3,
    nx: usize,
    ny: usize,
    nz: usize,
    /// Cell edge per axis, as the stencil pruning of the list scan uses it —
    /// `0.0` on a periodic axis with fewer than 3 cells, where the wrapped
    /// `-1`/`+1` offsets alias one cell and the gap to "the" neighbouring
    /// cell bounds nothing: a zero edge makes every gap on that axis zero.
    cell_w: [f64; 3],
    /// CSR offsets per cell (length `nx*ny*nz + 1`).
    cell_start: Vec<u32>,
    /// Particle indices grouped by cell.
    order: Vec<u32>,
}

impl CellList {
    /// Build over positions with cells at least `cell_size` wide. The number
    /// of cells per axis is clamped to at least 1.
    pub fn build(x: &[f64], y: &[f64], z: &[f64], bbox: &Box3, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), z.len());
        let nx = ((bbox.lx() / cell_size).floor() as usize).max(1);
        let ny = ((bbox.ly() / cell_size).floor() as usize).max(1);
        let nz = ((bbox.lz() / cell_size).floor() as usize).max(1);
        let ncells = nx * ny * nz;
        assert!(
            ncells <= u32::MAX as usize && x.len() <= u32::MAX as usize,
            "cell/particle indices must fit u32"
        );

        // Cell assignment is the expensive per-particle part (normalize +
        // float-to-index); compute it in parallel once (as u32 to halve the
        // scratch footprint), then run the histogram / prefix-sum / fill
        // passes serially so `order` keeps the exact serial-insertion layout.
        let cells: Vec<u32> = par::par_map(x.len(), |i| {
            let (ux, uy, uz) = bbox.normalize(x[i], y[i], z[i]);
            let cx = ((ux * nx as f64) as usize).min(nx - 1);
            let cy = ((uy * ny as f64) as usize).min(ny - 1);
            let cz = ((uz * nz as f64) as usize).min(nz - 1);
            ((cx * ny + cy) * nz + cz) as u32
        });
        // Single prefix-sum pass, no scratch clone: histogram shifted by one
        // slot, prefix-sum in place (cell_start[c] = first slot of cell c),
        // then fill using cell_start[c] itself as the insertion cursor. The
        // fill leaves each entry holding the *end* of its cell — one
        // right-shift restores the CSR start offsets.
        let mut cell_start = vec![0u32; ncells + 1];
        for &c in &cells {
            cell_start[c as usize + 1] += 1;
        }
        for c in 1..=ncells {
            cell_start[c] += cell_start[c - 1];
        }
        let mut order = vec![0u32; x.len()];
        for (i, &c) in cells.iter().enumerate() {
            let cursor = &mut cell_start[c as usize];
            order[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        cell_start.copy_within(0..ncells, 1);
        cell_start[0] = 0;
        let edge = |l: f64, n: usize| {
            if bbox.periodic && n < 3 {
                0.0
            } else {
                l / n as f64
            }
        };
        CellList {
            bbox: *bbox,
            nx,
            ny,
            nz,
            cell_w: [
                edge(bbox.lx(), nx),
                edge(bbox.ly(), ny),
                edge(bbox.lz(), nz),
            ],
            cell_start,
            order,
        }
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// The box the grid was built over.
    pub fn bbox(&self) -> &Box3 {
        &self.bbox
    }

    /// Cell edge length per axis (box extent over cell count).
    pub fn cell_edges(&self) -> [f64; 3] {
        let b = &self.bbox;
        [
            b.lx() / self.nx as f64,
            b.ly() / self.ny as f64,
            b.lz() / self.nz as f64,
        ]
    }

    /// Particles stored.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Distinct wrapped indices of `{c-1, c, c+1}` along an axis of `n`
    /// cells, each with the offset it was first reached by, as a fixed
    /// stencil (`array, count`) — neighbor queries run per particle per
    /// sweep, so this must not heap-allocate.
    fn axis_candidates(&self, c: isize, n: usize) -> ([(usize, isize); 3], usize) {
        let mut out = [(0usize, 0isize); 3];
        let mut len = 0;
        for d in -1isize..=1 {
            let raw = c + d;
            let idx = if self.bbox.periodic {
                // `c` is a cell index, so `raw` is in `-1..=n`: one step
                // back into range is the whole wrap (an integer division
                // here, nine per query, showed in the list build).
                (if raw < 0 {
                    raw + n as isize
                } else if raw >= n as isize {
                    raw - n as isize
                } else {
                    raw
                }) as usize
            } else if raw < 0 || raw >= n as isize {
                continue;
            } else {
                raw as usize
            };
            // O(3) dedup: tiny periodic grids (n <= 2) alias wrapped offsets.
            if !out[..len].iter().any(|&(seen, _)| seen == idx) {
                out[len] = (idx, d);
                len += 1;
            }
        }
        (out, len)
    }

    /// Visit every particle within distance `r` of `(px, py, pz)` (inclusive),
    /// calling `f(index, dist2)`. The query point itself is visited if it is
    /// one of the stored particles — callers filter self-interaction.
    #[allow(clippy::too_many_arguments)]
    pub fn for_neighbors<F: FnMut(usize, f64)>(
        &self,
        px: f64,
        py: f64,
        pz: f64,
        r: f64,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        mut f: F,
    ) {
        let (ux, uy, uz) = self.bbox.normalize(px, py, pz);
        let cx = ((ux * self.nx as f64) as isize).min(self.nx as isize - 1);
        let cy = ((uy * self.ny as f64) as isize).min(self.ny as isize - 1);
        let cz = ((uz * self.nz as f64) as isize).min(self.nz as isize - 1);
        let r2 = r * r;
        let (xs, xn) = self.axis_candidates(cx, self.nx);
        let (ys, yn) = self.axis_candidates(cy, self.ny);
        let (zs, zn) = self.axis_candidates(cz, self.nz);
        for &(ix, _) in &xs[..xn] {
            for &(iy, _) in &ys[..yn] {
                for &(iz, _) in &zs[..zn] {
                    let c = (ix * self.ny + iy) * self.nz + iz;
                    let (s, e) = (self.cell_start[c] as usize, self.cell_start[c + 1] as usize);
                    for &j in &self.order[s..e] {
                        let j = j as usize;
                        let d2 = self.bbox.dist2(px, py, pz, x[j], y[j], z[j]);
                        if d2 <= r2 {
                            f(j, d2);
                        }
                    }
                }
            }
        }
    }

    /// Cell-sorted particle indices: `order()[k]` is the particle stored in
    /// CSR slot `k`. The neighbor-list build gathers coordinate copies into
    /// this layout so candidate scans read memory contiguously.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// CSR slot offsets per cell: cell `c` holds slots
    /// `cell_start()[c]..cell_start()[c + 1]` of [`order`](CellList::order).
    pub(crate) fn cell_start(&self) -> &[u32] {
        &self.cell_start
    }

    /// Slot ranges `(start, end)` into [`order`](CellList::order) covering
    /// the stencil cells around `p` that can hold a candidate the scan would
    /// store, in exactly the order [`for_neighbors`](CellList::for_neighbors)
    /// visits them (cells whose slots abut are returned as one range), as a
    /// fixed array plus count (no heap, like `axis_candidates`).
    ///
    /// A cell is left out when the query cannot reach it: `r2` is the
    /// query's own squared radius and `cell_r2[c]`, when given, the largest
    /// squared radius of cell `c`'s candidates, so no candidate of the cell
    /// passes beyond `reach = max(r2, cell_r2[c])` — and every one of them
    /// is at least as far from `p` as the cell's near faces are. Along an
    /// axis that distance is the gap from `p` to the face of its own cell
    /// on that side (zero for the cell's own layer), in the coordinate the
    /// cells were assigned by: the wrapped one on periodic boxes — with 3 or
    /// more cells per axis the way round the other side is never shorter —
    /// and the true, unclamped one on open boxes, where a query outside the
    /// box sits in an edge cell but is farther from the next layer than the
    /// cell is wide. Each gap gives up [`GAP_SLACK`] first; the squared gaps
    /// add up to the bound, and the cell is skipped when it exceeds the
    /// reach.
    fn stencil_runs(
        &self,
        [px, py, pz]: [f64; 3],
        r2: f64,
        cell_r2: &[f64],
    ) -> ([(usize, usize); 27], usize) {
        let b = &self.bbox;
        let (ux, uy, uz) = b.normalize(px, py, pz);
        let (fnx, fny, fnz) = (self.nx as f64, self.ny as f64, self.nz as f64);
        let cx = ((ux * fnx) as isize).min(self.nx as isize - 1);
        let cy = ((uy * fny) as isize).min(self.ny as isize - 1);
        let cz = ((uz * fnz) as isize).min(self.nz as isize - 1);
        let (sx, xn) = self.axis_candidates(cx, self.nx);
        let (sy, yn) = self.axis_candidates(cy, self.ny);
        let (sz, zn) = self.axis_candidates(cz, self.nz);
        // Where `p` sits along each axis, in cell widths from the box's low
        // face (an open box's `cell_w` is never zeroed).
        let (tx, ty, tz) = if b.periodic {
            (ux * fnx, uy * fny, uz * fnz)
        } else {
            (
                (px - b.xmin) / self.cell_w[0],
                (py - b.ymin) / self.cell_w[1],
                (pz - b.zmin) / self.cell_w[2],
            )
        };
        let gaps2 = |stencil: &[(usize, isize)], frac: f64, w: f64| {
            let mut out = [0.0f64; 3];
            for (g2, &(_, d)) in out.iter_mut().zip(stencil) {
                let gap = match d {
                    -1 => frac,
                    1 => 1.0 - frac,
                    _ => continue,
                };
                let g = (gap - GAP_SLACK).max(0.0) * w;
                *g2 = g * g;
            }
            out
        };
        let gx = gaps2(&sx[..xn], tx - cx as f64, self.cell_w[0]);
        let gy = gaps2(&sy[..yn], ty - cy as f64, self.cell_w[1]);
        let gz = gaps2(&sz[..zn], tz - cz as f64, self.cell_w[2]);
        let mut runs = [(0usize, 0usize); 27];
        let mut n = 0;
        for (&(ix, _), &gx2) in sx[..xn].iter().zip(&gx) {
            for (&(iy, _), &gy2) in sy[..yn].iter().zip(&gy) {
                for (&(iz, _), &gz2) in sz[..zn].iter().zip(&gz) {
                    let c = (ix * self.ny + iy) * self.nz + iz;
                    let reach = cell_r2.get(c).map_or(r2, |&m| r2.max(m));
                    if gx2 + gy2 + gz2 > reach {
                        continue;
                    }
                    let (s, e) = (self.cell_start[c] as usize, self.cell_start[c + 1] as usize);
                    // Cells adjacent in z are adjacent in `order`: extend
                    // the previous run instead of opening a new one (same
                    // slots, same sequence, fewer remainder lanes).
                    if n > 0 && runs[n - 1].1 == s {
                        runs[n - 1].1 = e;
                    } else {
                        runs[n] = (s, e);
                        n += 1;
                    }
                }
            }
        }
        (runs, n)
    }

    /// The [`for_neighbors`](CellList::for_neighbors) walk around `p`,
    /// reading candidate positions from the *cell-sorted* copies in `src`
    /// and appending the index of every passing candidate straight to
    /// `out`'s index column. Nothing is emitted through a callback and
    /// nothing is copied afterwards: `out` is the neighbor list's own
    /// storage. The pair geometry is not stored — a sweep recomputes it from
    /// the positions with the same [`MinImage`] the test below uses.
    ///
    /// A candidate in slot `k` passes if `d2 <= r²`, or — when `src` carries
    /// per-candidate squared radii (`src.r2` non-empty, the h-aware build) —
    /// if `d2 <= max(r², src.r2[k])`: a pair is stored when it is within
    /// *either* particle's reach, which keeps every row complete for
    /// queries up to the row's own radius while dropping the far candidates
    /// a globally-maximal radius would haul in. The adaptive rule widens
    /// the pass set, never reorders it. Returns how many of the appended
    /// candidates lie within the query's own `r²` (all of them for a
    /// fixed-radius scan) — the count `FindNeighbors` reports, taken while
    /// the distances are in registers.
    ///
    /// The appended `j` sequence, with `d2` recomputed by [`MinImage::delta`]
    /// or [`Box3::dist2`], is bit-identical to the `(j, d2)` sequence
    /// `for_neighbors` produces for the same query: the cell visit order is
    /// the same, and the two distance forms agree (see [`MinImage`]).
    ///
    /// Stencil cells the query cannot reach are not scanned at all
    /// (`stencil_runs`: the distance from `p` to the cell's near faces, less
    /// [`GAP_SLACK`], against `max(r², largest candidate radius² in the
    /// cell)`). A skipped cell holds no passing candidate, and the cells
    /// that remain are walked in the same order, so the appended column
    /// is byte-identical to a scan of all 27. At the simulation's radii
    /// (`support(h)`, cells `1.4 · support(h_max)` wide) about 11 of the 27
    /// cells survive on a uniform cloud and 13 % of the ~320 candidates
    /// scanned per row pass (5 % of ~780 unpruned); on h-graded clouds most
    /// rows sit in cells many radii wide and keep fewer still. The scan
    /// still dominates the build; it is dispatched to a hand-written AVX2
    /// body when available ([`crate::simd`]).
    pub(crate) fn scan_into(
        &self,
        p: [f64; 3],
        r: f64,
        src: &SortedCoords,
        out: &mut Vec<u32>,
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2() {
            // SAFETY: AVX2 and POPCNT support was just checked; the body has
            // no other precondition.
            return unsafe {
                if src.r2.is_empty() {
                    self.scan_into_avx2::<false>(p, r, src, out)
                } else {
                    self.scan_into_avx2::<true>(p, r, src, out)
                }
            };
        }
        self.scan_into_portable(p, r, src, out)
    }

    /// Portable scan: one candidate at a time, pushed when it passes.
    fn scan_into_portable(
        &self,
        [px, py, pz]: [f64; 3],
        r: f64,
        src: &SortedCoords,
        out: &mut Vec<u32>,
    ) -> usize {
        let adaptive = !src.r2.is_empty();
        let r2 = r * r;
        let wrap = MinImage::new(&self.bbox);
        let (runs, n) = self.stencil_runs([px, py, pz], r2, &src.cell_r2);
        let mut own = 0;
        for &(s, e) in &runs[..n] {
            for k in s..e {
                let d2 = wrap.delta(src.x[k], src.y[k], src.z[k], px, py, pz).3;
                let lim = if adaptive { r2.max(src.r2[k]) } else { r2 };
                if d2 <= lim {
                    out.push(self.order[k]);
                    own += (d2 <= r2) as usize;
                }
            }
        }
        own
    }

    /// Hand-vectorized AVX2 scan. Every intrinsic is the same
    /// correctly-rounded IEEE-754 double operation the portable body
    /// performs, on the same values in the same order: `vsubpd`/`vmulpd`/
    /// `vaddpd` per lane; the wrap as mask-and-or (`lx` where `dx > hx`,
    /// `-lx` where `dx < -hx`, else `+0.0` — the scalar form also subtracts
    /// `0.0` in its else arm, and the two compare masks are mutually
    /// exclusive, so the merged subtrahend is identical); ordered compares
    /// matching `>`/`<`/`<=`; `vmaxpd` for the adaptive limit (identical to
    /// `f64::max` on the positive finite radii involved).
    ///
    /// Emission has no per-lane branch: per 4-lane chunk the passing lanes'
    /// indices are left-packed ([`crate::simd::pack_store_u32`]) and stored
    /// at the output cursor `len`, which then advances by `popcnt(mask)` —
    /// at the build's ~13 % pass rate a per-lane `if` mispredicts more often
    /// than a permute costs. The one branch left skips a chunk in which no
    /// lane passes; it predicts well because failing chunks come in long
    /// runs (the far corner of a reached cell fails whole), and on h-graded
    /// clouds, where cells hold thousands of candidates per passing one, it
    /// halves the build. A lane within the query's own radius always passes,
    /// so the own-radius count (one more compare and `popcnt`) lives in the
    /// passing arm only. One `grow(run + 4)` per cell run covers every
    /// store of the run; the up-to-3 remainder candidates are pushed by the
    /// scalar expressions.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn scan_into_avx2<const ADAPTIVE: bool>(
        &self,
        [px, py, pz]: [f64; 3],
        r: f64,
        src: &SortedCoords,
        out: &mut Vec<u32>,
    ) -> usize {
        use crate::simd::pack_store_u32;
        use std::arch::x86_64::*;
        let r2 = r * r;
        let wrap = MinImage::new(&self.bbox);
        let vpx = _mm256_set1_pd(px);
        let vpy = _mm256_set1_pd(py);
        let vpz = _mm256_set1_pd(pz);
        let vr2 = _mm256_set1_pd(r2);
        let [vlx, vly, vlz] = wrap.l.map(|l| _mm256_set1_pd(l));
        let [vnlx, vnly, vnlz] = wrap.l.map(|l| _mm256_set1_pd(-l));
        let [vhx, vhy, vhz] = wrap.h.map(|h| _mm256_set1_pd(h));
        let [vnhx, vnhy, vnhz] = wrap.h.map(|h| _mm256_set1_pd(-h));
        // d -= (l where d > h) | (-l where d < -h) | (+0.0 else); the masks
        // are disjoint, so or-merging the masked constants is exactly the
        // scalar if/else-if/else subtrahend.
        #[inline(always)]
        unsafe fn wrap4(
            d: __m256d,
            vh: __m256d,
            vnh: __m256d,
            vl: __m256d,
            vnl: __m256d,
        ) -> __m256d {
            let hi = _mm256_cmp_pd::<_CMP_GT_OQ>(d, vh);
            let lo = _mm256_cmp_pd::<_CMP_LT_OQ>(d, vnh);
            let adj = _mm256_or_pd(_mm256_and_pd(hi, vl), _mm256_and_pd(lo, vnl));
            _mm256_sub_pd(d, adj)
        }
        let (runs, n) = self.stencil_runs([px, py, pz], r2, &src.cell_r2);
        let mut own = 0;
        for &(s, e) in &runs[..n] {
            // Checked once per run; every vector load below stays inside
            // these sub-slices.
            let (xr, yr, zr, jr) = (&src.x[s..e], &src.y[s..e], &src.z[s..e], &self.order[s..e]);
            let rr = if ADAPTIVE { &src.r2[s..e] } else { &[][..] };
            let run = e - s;
            crate::neighborlist::grow(out, run + 4);
            let mut len = out.len();
            let mut t = 0;
            while t + 4 <= run {
                // SAFETY: `t + 4 <= run`, the length of `xr`/`yr`/`zr`/`jr`
                // (and of `rr` when ADAPTIVE), so each 4-lane load is in
                // bounds.
                let mut dx = _mm256_sub_pd(_mm256_loadu_pd(xr.as_ptr().add(t)), vpx);
                let mut dy = _mm256_sub_pd(_mm256_loadu_pd(yr.as_ptr().add(t)), vpy);
                let mut dz = _mm256_sub_pd(_mm256_loadu_pd(zr.as_ptr().add(t)), vpz);
                if wrap.periodic {
                    dx = wrap4(dx, vhx, vnhx, vlx, vnlx);
                    dy = wrap4(dy, vhy, vnhy, vly, vnly);
                    dz = wrap4(dz, vhz, vnhz, vlz, vnlz);
                }
                let d2 = _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                    _mm256_mul_pd(dz, dz),
                );
                let vlim = if ADAPTIVE {
                    _mm256_max_pd(vr2, _mm256_loadu_pd(rr.as_ptr().add(t)))
                } else {
                    vr2
                };
                let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d2, vlim)) as usize;
                if mask == 0 {
                    t += 4;
                    continue;
                }
                let within = if ADAPTIVE {
                    _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d2, vr2)) as usize
                } else {
                    mask
                };
                own += within.count_ones() as usize;
                // SAFETY: the load is in bounds as above. The `grow(run + 4)`
                // left `run + 4` spare slots behind the run's starting
                // length, and `len` has advanced by at most `t` since — so
                // `len + 4 <= capacity` for the store (which debug-asserts
                // it). `mask` is a 4-bit movemask.
                let vj = _mm_loadu_si128(jr.as_ptr().add(t).cast());
                pack_store_u32(out, len, vj, mask);
                len += mask.count_ones() as usize;
                t += 4;
            }
            // SAFETY: slots up to `len` were initialised by the pack stores
            // (each advanced `len` by exactly its count of meaningful
            // lanes), and `len <= capacity` by the `grow` above.
            out.set_len(len);
            for k in t..run {
                let d2 = wrap.delta(xr[k], yr[k], zr[k], px, py, pz).3;
                let lim = if ADAPTIVE { r2.max(rr[k]) } else { r2 };
                if d2 <= lim {
                    out.push(jr[k]);
                    own += (d2 <= r2) as usize;
                }
            }
        }
        own
    }

    /// Collect neighbor indices of particle `i` within `r`, excluding `i`.
    pub fn neighbors_of(&self, i: usize, r: f64, x: &[f64], y: &[f64], z: &[f64]) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_neighbors(x[i], y[i], z[i], r, x, y, z, |j, _| {
            if j != i {
                out.push(j);
            }
        });
        out.sort_unstable();
        out
    }
}

/// O(n²) reference neighbor search, used to validate the cell list.
pub fn brute_force_neighbors(
    i: usize,
    r: f64,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    bbox: &Box3,
) -> Vec<usize> {
    let r2 = r * r;
    (0..x.len())
        .filter(|&j| j != i && bbox.dist2(x[i], y[i], z[i], x[j], y[j], z[j]) <= r2)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::Rng;

    fn cloud(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut f = || (0..n).map(|_| rng.unit()).collect::<Vec<_>>();
        let x = f();
        let y = f();
        let z = f();
        (x, y, z)
    }

    #[test]
    fn matches_brute_force_periodic() {
        let (x, y, z) = cloud(300, 1);
        let bbox = Box3::unit_periodic();
        let r = 0.12;
        let cl = CellList::build(&x, &y, &z, &bbox, r);
        for i in (0..300).step_by(17) {
            assert_eq!(
                cl.neighbors_of(i, r, &x, &y, &z),
                brute_force_neighbors(i, r, &x, &y, &z, &bbox),
                "mismatch at particle {i}"
            );
        }
    }

    #[test]
    fn matches_brute_force_open_box() {
        let (x, y, z) = cloud(300, 2);
        let bbox = Box3::cube(0.0, 1.0, false);
        let r = 0.09;
        let cl = CellList::build(&x, &y, &z, &bbox, r);
        for i in (0..300).step_by(13) {
            assert_eq!(
                cl.neighbors_of(i, r, &x, &y, &z),
                brute_force_neighbors(i, r, &x, &y, &z, &bbox)
            );
        }
    }

    #[test]
    fn tiny_grid_does_not_duplicate_periodic_images() {
        // Radius so large the grid collapses to 2 cells per axis: wrapped
        // offsets would visit the same cell twice without deduplication.
        let (x, y, z) = cloud(50, 3);
        let bbox = Box3::unit_periodic();
        let r = 0.45;
        let cl = CellList::build(&x, &y, &z, &bbox, r);
        assert!(cl.dims().0 <= 2);
        for i in 0..50 {
            let mut found = cl.neighbors_of(i, r, &x, &y, &z);
            let len = found.len();
            found.dedup();
            assert_eq!(found.len(), len, "duplicate neighbors for {i}");
            assert_eq!(found, brute_force_neighbors(i, r, &x, &y, &z, &bbox));
        }
    }

    fn sorted(
        cl: &CellList,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        radii: Option<&[f64]>,
    ) -> SortedCoords {
        let mut src = SortedCoords::default();
        src.fill(cl, x, y, z);
        if let Some(rr) = radii {
            src.fill_radii(cl, rr);
        }
        src
    }

    #[test]
    fn scan_replays_for_neighbors_bitwise() {
        // The neighbor-list build rests on this: the sorted-coordinate scan
        // must append the same j sequence as for_neighbors, the d2 a
        // consumer recomputes through MinImage must be for_neighbors' d2 to
        // the bit, and the own-radius count of a fixed-radius scan is the
        // row length.
        for periodic in [true, false] {
            let (x, y, z) = cloud(250, 8);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let r = 0.14;
            let cl = CellList::build(&x, &y, &z, &bbox, r);
            let src = sorted(&cl, &x, &y, &z, None);
            let wrap = MinImage::new(&bbox);
            for i in (0..250).step_by(9) {
                let mut direct = Vec::new();
                cl.for_neighbors(x[i], y[i], z[i], r, &x, &y, &z, |j, d2| {
                    direct.push((j, d2.to_bits()));
                });
                let mut out = Vec::new();
                let own = cl.scan_into([x[i], y[i], z[i]], r, &src, &mut out);
                assert_eq!(own, out.len(), "particle {i}, periodic={periodic}");
                let replay: Vec<(usize, u64)> = out
                    .iter()
                    .map(|&j| {
                        let j = j as usize;
                        let d2 = wrap.delta(x[j], y[j], z[j], x[i], y[i], z[i]).3;
                        (j, d2.to_bits())
                    })
                    .collect();
                assert_eq!(direct, replay, "particle {i}, periodic={periodic}");
            }
        }
    }

    #[test]
    fn min_image_and_its_batch_body_match_box3_bitwise() {
        // MinImage is the one definition of the pair geometry: delta(a
        // relative to b) must be Box3::delta(a, b) and its d2 Box3::dist2 in
        // either argument order, to the bit — on pairs that wrap on some
        // axis and pairs that do not (a 0.45 reach in a unit box gives
        // both), in boxes with unequal edges off the origin — and the batch
        // body, dispatched and portable, must equal the scalar call in every
        // lane for every tail length 0..=9.
        let boxes = [
            Box3::unit_periodic(),
            Box3::cube(0.0, 1.0, false),
            Box3 {
                xmin: -0.5,
                xmax: 0.5,
                ymin: 2.0,
                ymax: 4.0,
                zmin: -3.0,
                zmax: 0.0,
                periodic: true,
            },
        ];
        for bbox in boxes {
            let wrap = MinImage::new(&bbox);
            let mut rng = Rng::seed_from_u64(91);
            let mut point = || {
                [
                    bbox.xmin + bbox.lx() * rng.unit(),
                    bbox.ymin + bbox.ly() * rng.unit(),
                    bbox.zmin + bbox.lz() * rng.unit(),
                ]
            };
            let (mut wrapped, mut unwrapped) = (0, 0);
            for len in 0..=9usize {
                for _ in 0..20 {
                    let p = point();
                    let cand: Vec<[f64; 3]> = (0..len).map(|_| point()).collect();
                    let mut cols: [Vec<f64>; 3] =
                        std::array::from_fn(|a| cand.iter().map(|c| c[a]).collect());
                    let mut portable = cols.clone();
                    let (mut d2, mut r) = (vec![0.0; len], vec![0.0; len]);
                    let (mut d2p, mut rp) = (vec![0.0; len], vec![0.0; len]);
                    let [cx, cy, cz] = &mut cols;
                    wrap.geometry_in_place(p, cx, cy, cz, &mut d2, &mut r);
                    let [px, py, pz] = &mut portable;
                    wrap.geometry_in_place_impl(p, px, py, pz, &mut d2p, &mut rp);
                    for (k, c) in cand.iter().enumerate() {
                        let (ex, ey, ez) = bbox.delta(c[0], c[1], c[2], p[0], p[1], p[2]);
                        let e2 = bbox.dist2(p[0], p[1], p[2], c[0], c[1], c[2]);
                        let flipped = bbox.dist2(c[0], c[1], c[2], p[0], p[1], p[2]);
                        assert_eq!(e2.to_bits(), flipped.to_bits());
                        if (ex, ey, ez) == (c[0] - p[0], c[1] - p[1], c[2] - p[2]) {
                            unwrapped += 1;
                        } else {
                            wrapped += 1;
                        }
                        let want = [ex, ey, ez, e2, e2.sqrt()].map(f64::to_bits);
                        let (sx, sy, sz, s2) = wrap.delta(c[0], c[1], c[2], p[0], p[1], p[2]);
                        assert_eq!([sx, sy, sz, s2].map(f64::to_bits), want[..4], "scalar");
                        let batch = [cols[0][k], cols[1][k], cols[2][k], d2[k], r[k]];
                        assert_eq!(batch.map(f64::to_bits), want, "batch lane {k} of {len}");
                        let port = [
                            portable[0][k],
                            portable[1][k],
                            portable[2][k],
                            d2p[k],
                            rp[k],
                        ];
                        assert_eq!(port.map(f64::to_bits), want, "portable lane {k} of {len}");
                    }
                }
            }
            assert!(unwrapped > 0, "no pair left unwrapped");
            assert_eq!(wrapped > 0, bbox.periodic, "wrapped pairs iff periodic");
        }
    }

    #[test]
    fn stencil_leaves_out_the_cells_a_query_cannot_reach() {
        // 5 cells of 0.2 per axis, 3 points per cell. From the centre of a
        // cell a reach under 0.1 stays inside it, a reach between 0.1 and
        // 0.1·√2 adds the 6 face cells, and a cell-wide reach keeps all 27;
        // a larger candidate radius in one cell brings that cell back.
        for periodic in [true, false] {
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let mut x = Vec::new();
            let mut y = Vec::new();
            let mut z = Vec::new();
            for c in 0..125 {
                for k in 0..3 {
                    x.push(((c / 25) as f64 + 0.3 + 0.2 * k as f64) * 0.2);
                    y.push(((c / 5 % 5) as f64 + 0.5) * 0.2);
                    z.push(((c % 5) as f64 + 0.5) * 0.2);
                }
            }
            let cl = CellList::build(&x, &y, &z, &bbox, 0.2);
            assert_eq!(cl.dims(), (5, 5, 5));
            let scanned = |r: f64, cell_r2: &[f64]| {
                let (runs, n) = cl.stencil_runs([0.5, 0.5, 0.5], r * r, cell_r2);
                runs[..n].iter().map(|&(s, e)| e - s).sum::<usize>()
            };
            assert_eq!(scanned(0.09, &[]), 3, "own cell only");
            assert_eq!(scanned(0.12, &[]), 7 * 3, "own cell and its 6 faces");
            assert_eq!(scanned(0.2, &[]), 27 * 3, "the whole stencil");
            // The corner cell (3, 3, 3) is 0.1·√3 away; only its own
            // candidates' radius can bring it in.
            let mut cell_r2 = vec![0.0; 125];
            cell_r2[(3 * 5 + 3) * 5 + 3] = 0.18 * 0.18;
            assert_eq!(scanned(0.09, &cell_r2), 2 * 3, "own cell and one corner");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_and_portable_scans_agree_on_every_mask_and_run_length() {
        // Drive both bodies on the same inputs and compare bits. Sparse
        // clouds give cell runs of every length 0..=9 (no full chunk, one
        // chunk with 0..=3 remainder lanes, two chunks with a remainder);
        // a radius near the cell size gives a pass rate around one half, so
        // every one of the 16 four-lane pass masks occurs. Both are checked
        // from first principles, not assumed.
        if !crate::simd::avx2() {
            return;
        }
        let mut seen_mask = [false; 16];
        let mut seen_run = [false; 10];
        for (seed, n, periodic) in [
            (5, 90, true),
            (6, 160, false),
            (7, 260, true),
            (8, 40, false),
        ] {
            let (x, y, z) = cloud(n, seed);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let cell = 0.3;
            let cl = CellList::build(&x, &y, &z, &bbox, cell);
            let radii: Vec<f64> = (0..n).map(|i| 0.12 + 0.16 * (i % 6) as f64 / 5.0).collect();
            let wrap = MinImage::new(&bbox);
            for rr in [None, Some(radii.as_slice())] {
                let src = sorted(&cl, &x, &y, &z, rr);
                // Appended to across queries, so stores land at every
                // cursor alignment and behind earlier rows.
                let mut fast = Vec::new();
                let mut slow = Vec::new();
                for i in 0..n {
                    let p = [x[i], y[i], z[i]];
                    let r = rr.map_or(0.21, |rr| rr[i]);
                    let (runs, nr) = cl.stencil_runs(p, r * r, &src.cell_r2);
                    for &(s, e) in &runs[..nr] {
                        if e - s <= 9 {
                            seen_run[e - s] = true;
                        }
                        for c in (s..e).step_by(4).filter(|c| c + 4 <= e) {
                            let mut mask = 0;
                            for l in 0..4 {
                                let k = c + l;
                                let d2 =
                                    wrap.delta(src.x[k], src.y[k], src.z[k], p[0], p[1], p[2]).3;
                                let lim = if rr.is_some() {
                                    (r * r).max(src.r2[k])
                                } else {
                                    r * r
                                };
                                mask |= ((d2 <= lim) as usize) << l;
                            }
                            seen_mask[mask] = true;
                        }
                    }
                    // SAFETY: AVX2 and POPCNT support was checked above.
                    let own_fast = unsafe {
                        match rr {
                            Some(_) => cl.scan_into_avx2::<true>(p, r, &src, &mut fast),
                            None => cl.scan_into_avx2::<false>(p, r, &src, &mut fast),
                        }
                    };
                    let own_slow = cl.scan_into_portable(p, r, &src, &mut slow);
                    assert_eq!(fast.len(), slow.len(), "query {i}, seed {seed}");
                    // The own-radius count against first principles: every
                    // particle within r of the query, self included.
                    let brute = brute_force_neighbors(i, r, &x, &y, &z, &bbox).len() + 1;
                    assert_eq!(own_fast, brute, "avx2 count, query {i}, seed {seed}");
                    assert_eq!(own_slow, brute, "portable count, query {i}, seed {seed}");
                }
                assert_eq!(fast, slow, "seed {seed}");
            }
        }
        assert_eq!(seen_mask, [true; 16], "every 4-lane pass mask exercised");
        assert_eq!(seen_run, [true; 10], "cell runs of length 0..=9 exercised");
    }

    #[test]
    fn empty_and_single_particle() {
        let bbox = Box3::unit_periodic();
        let cl = CellList::build(&[], &[], &[], &bbox, 0.1);
        assert!(cl.is_empty());
        let (x, y, z) = (vec![0.5], vec![0.5], vec![0.5]);
        let cl = CellList::build(&x, &y, &z, &bbox, 0.1);
        assert_eq!(cl.neighbors_of(0, 0.1, &x, &y, &z), Vec::<usize>::new());
    }

    // Properties: 24 generated cases each, failing case index printed.
    #[test]
    fn prop_celllist_equals_brute_force() {
        rng::cases(24, |g| {
            let seed = g.u64(0..1000);
            let n = g.usize(1..150);
            let r = g.f64(0.02..0.5);
            let periodic = g.bool();
            let (x, y, z) = cloud(n, seed);
            let bbox = Box3::cube(0.0, 1.0, periodic);
            let cl = CellList::build(&x, &y, &z, &bbox, r);
            let i = (seed as usize) % n;
            assert_eq!(
                cl.neighbors_of(i, r, &x, &y, &z),
                brute_force_neighbors(i, r, &x, &y, &z, &bbox)
            );
        });
    }
}
