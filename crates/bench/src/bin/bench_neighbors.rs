//! Neighbor-sweep measurement: the production sweeps over the shared
//! per-step CSR `NeighborList` (the cache-blocked 4-lane row engine; the
//! `list_seconds` column) against `sph::reference`, the per-pair callback
//! sweeps the tests compare them to — over the cell grid, which re-walks
//! the stencil per sweep (the pre-list baseline; `grid_seconds`), and over
//! the same list's per-pair replay (`scalar_list_seconds`, the row
//! engine's win alone with the traversal held fixed) — written as the
//! `BENCH_neighbors.json` artifact checked into the repo root.
//!
//! Times each of the step's neighbor-bound sweeps (`neighbor_counts`,
//! `density_gradh`, `iad_divv_curlv`, `momentum_energy`) on all three,
//! plus the composite five-traversal step with the list build amortized in,
//! median of 7 reps, on Evrard and subsonic-turbulence particle clouds — two
//! cache-resident ones and a 46³ turbulence cloud (the `turb_100k` size of
//! `crates/perf`), where the list is ~40 MB at the initial smoothing
//! lengths and the per-neighbour records no longer fit a core's cache (its
//! slow grid-walk columns take 3 reps).
//! Regenerate with:
//!
//! ```sh
//! cargo run --release -p bench --bin bench_neighbors
//! # CI check (build + one rep, no file rewrite):
//! cargo run --release -p bench --bin bench_neighbors -- --check
//! ```
//!
//! Either way the run exits non-zero on two exact counts, which repeat on
//! any host and so cannot flake: a cloud whose list holds more than
//! [`MAX_BYTES_PER_PAIR`] resident bytes per stored pair (it fails the day a
//! second copy of the list — a splice target, build scratch — or a column
//! of stored pair geometry comes back),
//! and a cloud whose list stores more than `2 · Σ_i (nn_i + 1)` pairs (see
//! [`max_pairs`]: it fails the day the list radii regain headroom over the
//! kernel support).

use std::time::Instant;

use bench::{banner, print_table, Cli};
use cornerstone::{Box3, CellList, NeighborList, NeighborSearch};
use serde::Serialize;
use sph::{
    density::{density_gradh, neighbor_counts},
    evrard,
    iad::iad_divv_curlv,
    momentum::momentum_energy,
    reference, subsonic_turbulence, Eos, Kernel, Particles,
};

const REPS: usize = 7;
/// Reps for the grid-walk columns of the 46³ cloud (seconds per sweep).
const BIG_GRID_REPS: usize = 3;

/// Residency bound on `csr_bytes / pair_count`. A pair costs its `u32`
/// index, 4 B; column growth slack (up to a quarter), the per-row words and
/// the cell-sorted coordinate copies bring the three clouds to 5.1–5.4 B. A
/// second copy of the indices, or a single `f64` column back beside them
/// (12 B a pair before slack), lands well past 8.
const MAX_BYTES_PER_PAIR: f64 = 8.0;

/// Tightness bound on a list's `pair_count`, from the per-row neighbour
/// counts `nn` (self excluded) the sweeps consume: with every particle a
/// query, the list rule stores each unordered pair within
/// `max(support(h_i), support(h_j))` twice, and that pair is counted in
/// `nn_i` or `nn_j` at least once; each self-pair is stored once. So
/// `pair_count <= 2 · Σ_i (nn_i + 1)` exactly — and list radii of
/// `1.4 · support(h)` break it at 1.4³ = 2.7× on a uniform cloud.
fn max_pairs(nn: &[usize]) -> usize {
    2 * nn.iter().map(|&c| c + 1).sum::<usize>()
}

#[derive(Serialize)]
struct SweepTiming {
    sweep: String,
    /// `sph::reference` over the cell grid.
    grid_seconds: f64,
    /// The production sweep: the cache-blocked 4-lane row engine.
    list_seconds: f64,
    /// `sph::reference` over the same list's per-pair replay, for
    /// attribution.
    scalar_list_seconds: f64,
    /// Grid median over production median (> 1 = list wins).
    speedup: f64,
    /// List-replay median over production median — the blocking win alone,
    /// traversal held fixed.
    blocked_vs_scalar: f64,
}

#[derive(Serialize)]
struct WorkloadReport {
    workload: String,
    particles: usize,
    avg_neighbors: f64,
    max_neighbors: usize,
    /// Stored candidate pairs, self-pairs included.
    pair_count: usize,
    /// Resident bytes of the list (capacity, sorted copies included).
    csr_bytes: usize,
    /// Median seconds to rebuild the shared list in place.
    build_seconds: f64,
    sweeps: Vec<SweepTiming>,
    /// All five traversals back to back; the list column includes the
    /// per-step build, so this is the honest end-to-end comparison.
    full_step: SweepTiming,
}

#[derive(Serialize)]
struct Report {
    host_threads: usize,
    reps: usize,
    results: Vec<WorkloadReport>,
}

/// Median wall time of `work` over `reps` samples.
fn median_secs(reps: usize, mut work: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The four reference sweeps run back to back against one traversal — the
/// step's five neighbor traversals (IAD walks its source twice).
fn five_reference_sweeps<N: NeighborSearch + Sync>(
    parts: &mut Particles,
    nb: &N,
    bbox: &Box3,
    kernel: Kernel,
) {
    let _ = reference::neighbor_counts(parts, nb, bbox, kernel);
    reference::density_gradh(parts, nb, bbox, kernel);
    reference::iad_divv_curlv(parts, nb, bbox, kernel);
    reference::momentum_energy(parts, nb, bbox, kernel);
}

/// The same four through the production sweeps.
fn five_sweeps(parts: &mut Particles, nl: &NeighborList, kernel: Kernel) {
    let _ = neighbor_counts(parts, nl, kernel);
    density_gradh(parts, nl, kernel);
    iad_divv_curlv(parts, nl, kernel, None);
    momentum_energy(parts, nl, kernel);
}

/// `grid_reps` is the sample count for the columns that re-walk the grid
/// per sweep (the slow pre-list baseline); everything else takes `reps`.
/// Returns the report and the cloud's [`max_pairs`] bound.
fn measure(
    workload: &str,
    mut parts: Particles,
    bbox: Box3,
    reps: usize,
    grid_reps: usize,
) -> (WorkloadReport, usize) {
    let kernel = Kernel::CubicSpline;
    let n = parts.x.len();
    let h_max = parts.h.iter().cloned().fold(1e-6, f64::max);
    // The grid cell size and the per-particle list radii, through the two
    // functions `Simulation::step` builds its own list with.
    let cell = sph::interaction_radius(kernel, h_max);
    let grid = CellList::build(&parts.x, &parts.y, &parts.z, &bbox, cell);
    let mut radii = Vec::new();
    sph::list_radii_into(kernel, &parts.h, &mut radii);
    let mut nlist = NeighborList::new();
    nlist.build_adaptive_into(&grid, &parts.x, &parts.y, &parts.z, n, &radii);
    let build_seconds = median_secs(reps, || {
        nlist.build_adaptive_into(&grid, &parts.x, &parts.y, &parts.z, n, &radii);
    });
    let pair_bound = max_pairs(&neighbor_counts(&parts, &nlist, kernel));
    density_gradh(&mut parts, &nlist, kernel);
    Eos::ideal_monatomic().apply(&mut parts);

    let mut sweeps = Vec::new();
    let mut timed = |sweep: &str, grid_s: f64, list_s: f64, scalar_s: f64| {
        let t = SweepTiming {
            sweep: sweep.to_string(),
            grid_seconds: grid_s,
            list_seconds: list_s,
            scalar_list_seconds: scalar_s,
            speedup: grid_s / list_s,
            blocked_vs_scalar: scalar_s / list_s,
        };
        sweeps.push(t);
    };
    {
        let p = &mut parts;
        let g = median_secs(grid_reps, || {
            let _ = reference::neighbor_counts(p, &grid, &bbox, kernel);
        });
        let l = median_secs(reps, || {
            let _ = neighbor_counts(p, &nlist, kernel);
        });
        let s = median_secs(reps, || {
            let _ = reference::neighbor_counts(p, &nlist, &bbox, kernel);
        });
        timed("neighbor_counts", g, l, s);
    }
    {
        let g = median_secs(grid_reps, || {
            reference::density_gradh(&mut parts, &grid, &bbox, kernel)
        });
        let l = median_secs(reps, || density_gradh(&mut parts, &nlist, kernel));
        let s = median_secs(reps, || {
            reference::density_gradh(&mut parts, &nlist, &bbox, kernel)
        });
        timed("density_gradh", g, l, s);
    }
    {
        let g = median_secs(grid_reps, || {
            reference::iad_divv_curlv(&mut parts, &grid, &bbox, kernel)
        });
        let l = median_secs(reps, || iad_divv_curlv(&mut parts, &nlist, kernel, None));
        let s = median_secs(reps, || {
            reference::iad_divv_curlv(&mut parts, &nlist, &bbox, kernel)
        });
        timed("iad_divv_curlv", g, l, s);
    }
    {
        let g = median_secs(grid_reps, || {
            reference::momentum_energy(&mut parts, &grid, &bbox, kernel)
        });
        let l = median_secs(reps, || momentum_energy(&mut parts, &nlist, kernel));
        let s = median_secs(reps, || {
            reference::momentum_energy(&mut parts, &nlist, &bbox, kernel)
        });
        timed("momentum_energy", g, l, s);
    }

    let full_grid = median_secs(grid_reps, || {
        five_reference_sweeps(&mut parts, &grid, &bbox, kernel)
    });
    let full_list = median_secs(reps, || {
        nlist.build_adaptive_into(&grid, &parts.x, &parts.y, &parts.z, n, &radii);
        five_sweeps(&mut parts, &nlist, kernel);
    });
    let full_scalar = median_secs(reps, || {
        nlist.build_adaptive_into(&grid, &parts.x, &parts.y, &parts.z, n, &radii);
        five_reference_sweeps(&mut parts, &nlist, &bbox, kernel);
    });

    let report = WorkloadReport {
        workload: workload.to_string(),
        particles: n,
        avg_neighbors: nlist.avg_neighbors(),
        max_neighbors: nlist.max_neighbors(),
        pair_count: nlist.pair_count(),
        csr_bytes: nlist.csr_bytes(),
        build_seconds,
        sweeps,
        full_step: SweepTiming {
            sweep: "five_sweep_step".to_string(),
            grid_seconds: full_grid,
            list_seconds: full_list,
            scalar_list_seconds: full_scalar,
            speedup: full_grid / full_list,
            blocked_vs_scalar: full_scalar / full_list,
        },
    };
    (report, pair_bound)
}

fn main() {
    let cli = Cli::parse();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_path = cli
        .json
        .clone()
        .unwrap_or_else(|| "BENCH_neighbors.json".to_string());
    if !cli.check {
        if let Err(msg) = bench::refuse_single_core_overwrite(
            host_threads,
            std::path::Path::new(&out_path).exists(),
            cli.force,
        ) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
    let reps = if cli.check { 1 } else { REPS };
    banner(
        "NEIGHBOR SEARCH (BENCH_neighbors.json)",
        "Production list sweeps vs sph::reference over the grid and the list replay; median-of-reps speedups.",
    );

    let ev = evrard(18);
    let tb = subsonic_turbulence(20, 0.3, 9);
    let big = subsonic_turbulence(46, 0.3, 9);
    let (results, pair_bounds): (Vec<WorkloadReport>, Vec<usize>) = [
        measure("evrard_cloud", ev.parts, ev.bbox, reps, reps),
        measure("turbulence_cloud", tb.parts, tb.bbox, reps, reps),
        measure(
            "turbulence_100k",
            big.parts,
            big.bbox,
            reps,
            reps.min(BIG_GRID_REPS),
        ),
    ]
    .into_iter()
    .unzip();

    for r in &results {
        println!(
            "\n{} — {} particles, avg {:.1} / max {} candidates per row, {} pairs, CSR {:.1} KiB ({:.1} B/pair), build {:.2} ms",
            r.workload,
            r.particles,
            r.avg_neighbors,
            r.max_neighbors,
            r.pair_count,
            r.csr_bytes as f64 / 1024.0,
            r.csr_bytes as f64 / r.pair_count as f64,
            r.build_seconds * 1e3,
        );
        let rows: Vec<Vec<String>> = r
            .sweeps
            .iter()
            .chain(std::iter::once(&r.full_step))
            .map(|s| {
                vec![
                    s.sweep.clone(),
                    format!("{:.3}", s.grid_seconds * 1e3),
                    format!("{:.3}", s.scalar_list_seconds * 1e3),
                    format!("{:.3}", s.list_seconds * 1e3),
                    format!("{:.2}x", s.speedup),
                    format!("{:.2}x", s.blocked_vs_scalar),
                ]
            })
            .collect();
        print_table(
            &[
                "sweep",
                "grid ms",
                "scalar ms",
                "blocked ms",
                "vs grid",
                "vs scalar",
            ],
            &rows,
        );
    }

    let mut failed = false;
    for (r, &bound) in results.iter().zip(&pair_bounds) {
        if r.csr_bytes as f64 > MAX_BYTES_PER_PAIR * r.pair_count as f64 {
            eprintln!(
                "error: {} holds {} bytes for {} pairs ({:.1} B/pair > {MAX_BYTES_PER_PAIR})",
                r.workload,
                r.csr_bytes,
                r.pair_count,
                r.csr_bytes as f64 / r.pair_count as f64,
            );
            failed = true;
        }
        if r.pair_count > bound {
            eprintln!(
                "error: {} stores {} pairs, more than the 2 · Σ(nn + 1) = {bound} its sweeps can consume",
                r.workload, r.pair_count,
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    if cli.check {
        eprintln!(
            "--check: one rep complete, residency and tightness bounds held, not rewriting {out_path}"
        );
        return;
    }
    let report = Report {
        host_threads,
        reps,
        results,
    };
    let body = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out_path, body).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
