//! # bench — the paper's exhibits and the `BENCH_*.json` generators
//!
//! Every table, figure, ablation and extension is one entry of the
//! [`EXHIBITS`] registry (`crates/bench/src/exhibits/<id>.rs`), run by the
//! single `exhibit` binary:
//!
//! ```sh
//! cargo run --release -p bench --bin exhibit -- --list
//! cargo run --release -p bench --bin exhibit -- fig7 --json fig7.json
//! cargo run --release -p bench --bin exhibit -- all   # results/<id>.json
//! ```
//!
//! An exhibit prints its rows/series as text and returns the underlying data
//! as a JSON document; parsing flags, the banner and writing `--json` belong
//! to the driver. The four `bench_*` binaries own the checked-in
//! `BENCH_*.json` artifacts and share this crate's [`Cli`].

pub mod exhibits;
pub use exhibits::{Args, Exhibit, EXHIBITS};

use freqscale::{ExperimentSpec, FreqPolicy, WorkloadKind};
use ranks::CommCost;

/// Laptop-scale lattice size used by the figure regenerators: large enough
/// for healthy neighbor statistics on every rank, small enough to keep every
/// figure under a minute.
pub const PHYSICS_N_SIDE: usize = 10;
/// Physics steps per experiment (the paper runs 100; 8 keeps shapes stable
/// at a fraction of the cost — pass `--steps N` to any binary to override).
pub const DEFAULT_STEPS: usize = 8;

/// The paper's §IV-C/D problem size: 450³ particles per GPU.
pub fn paper_450cubed() -> f64 {
    450.0f64.powi(3)
}

/// Standard miniHPC single-GPU turbulence spec (Figs. 2, 6–9).
pub fn minihpc_spec(policy: FreqPolicy, steps: usize, target: f64) -> ExperimentSpec {
    ExperimentSpec {
        workload: WorkloadKind::Turbulence {
            n_side: PHYSICS_N_SIDE,
            mach: 0.3,
            seed: 42,
        },
        target_particles_per_rank: target,
        ..ExperimentSpec::minihpc_turbulence(policy, steps)
    }
}

/// Production-system spec for the validation/breakdown figures (Figs. 3–5)
/// and every multi-rank exhibit: the miniHPC defaults on another system.
pub fn production_spec(
    system: archsim::SystemSpec,
    ranks: usize,
    workload: WorkloadKind,
    steps: usize,
    target: f64,
) -> ExperimentSpec {
    ExperimentSpec {
        system,
        ranks,
        workload,
        target_particles_per_rank: target,
        ..ExperimentSpec::minihpc_turbulence(FreqPolicy::Baseline, steps)
    }
}

/// A lattice side that gives every rank a workable particle count.
pub fn n_side_for_ranks(ranks: usize) -> usize {
    // >= ~120 particles per rank.
    let total_needed = (ranks * 120) as f64;
    (total_needed.cbrt().ceil() as usize).max(PHYSICS_N_SIDE)
}

/// The flags every binary of this crate understands.
const FLAGS: &str = "[--steps N] [--json PATH] [--force] [--check]";

/// Tiny CLI: `--steps N`, `--json PATH`, `--force` and `--check` are
/// understood by every binary. `--check` is the CI smoke mode: run a single
/// rep and never (re)write a checked-in artifact.
#[derive(Debug)]
pub struct Cli {
    pub steps: usize,
    pub json: Option<String>,
    pub force: bool,
    pub check: bool,
}

impl Cli {
    /// The process's own flags with the global [`DEFAULT_STEPS`]; a flag
    /// that does not parse prints the reason and the usage line, exit 2.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse_from(&args, DEFAULT_STEPS).unwrap_or_else(|msg| usage_exit(&msg, FLAGS))
    }

    /// Parse `args` (the flags only, no program name). `--steps` is
    /// optional: absent, `steps` is the caller's `default_steps`; given, it
    /// is honoured whatever its value.
    pub fn parse_from(args: &[String], default_steps: usize) -> Result<Cli, String> {
        let mut steps = None;
        let mut json = None;
        let mut force = false;
        let mut check = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--steps" => {
                    let v = it.next().ok_or("--steps needs a number")?;
                    steps = Some(
                        v.parse()
                            .map_err(|_| format!("--steps needs a number, got {v:?}"))?,
                    );
                }
                "--json" => json = Some(it.next().ok_or("--json needs a path")?.clone()),
                "--force" => force = true,
                "--check" => check = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Cli {
            steps: steps.unwrap_or(default_steps),
            json,
            force,
            check,
        })
    }

    /// Write `data` as pretty JSON when `--json` was given.
    pub fn maybe_write_json<T: serde::Serialize>(&self, data: &T) {
        self.maybe_write_json_text(&to_json(data));
    }

    /// Write an already rendered JSON document when `--json` was given.
    pub fn maybe_write_json_text(&self, body: &str) {
        if let Some(path) = &self.json {
            std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}

/// Print `msg` and the usage line for `flags` to stderr, then exit 2.
pub fn usage_exit(msg: &str, flags: &str) -> ! {
    let exe = std::env::args().next().unwrap_or_default();
    eprintln!("error: {msg}\nusage: {exe} {flags}");
    std::process::exit(2);
}

/// Pretty JSON, the form every `--json` file of this crate has.
pub fn to_json<T: serde::Serialize>(data: &T) -> String {
    serde_json::to_string_pretty(data).expect("serializable")
}

/// Guard for checked-in scaling artifacts: multi-worker timings measured on
/// a single-core host are oversubscription noise, so an existing report is
/// only replaced when the caller insists with `--force`. Returns the refusal
/// message to print.
pub fn refuse_single_core_overwrite(
    host_threads: usize,
    report_exists: bool,
    force: bool,
) -> Result<(), String> {
    if host_threads <= 1 && report_exists && !force {
        Err(format!(
            "refusing to overwrite an existing scaling report from a \
             {host_threads}-core host (multi-worker timings would be \
             oversubscription noise); pass --force to override"
        ))
    } else {
        Ok(())
    }
}

/// CPU time (user + system) consumed by the *calling thread*, in seconds,
/// from `/proc/thread-self/stat`. Unlike wall clock, per-thread CPU time is
/// insensitive to oversubscription, so weak-scaling flatness measured with
/// it is meaningful even when all rank threads share one core. Returns 0.0
/// where procfs is unavailable.
pub fn thread_cpu_time_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0.0;
    };
    // Skip past the parenthesised comm field (it may contain spaces).
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // stat fields are 1-based with comm = 2; after ')' the state (field 3)
    // is index 0, so utime (14) and stime (15) are indices 11 and 12.
    let utime: f64 = fields.get(11).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.get(12).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    // USER_HZ is 100 on every mainstream Linux.
    (utime + stime) / 100.0
}

/// One rank-count row of a host-side weak-scaling measurement.
#[derive(Debug, serde::Serialize)]
pub struct HostScalingRow {
    pub ranks: usize,
    /// Total particles across all ranks (≈ `ranks × per_rank`).
    pub particles: usize,
    /// Slowest rank's CPU seconds per steady step (step 0 — initial
    /// partition, first neighbor build — excluded).
    pub cpu_s_per_rank_step: f64,
    /// `cpu_s_per_rank_step` normalized to the first row: weak scaling
    /// holds when this stays near 1.
    pub cpu_norm: f64,
    /// Steps that recomputed the SFC partition (including step 0).
    pub repartitions: u64,
    /// Particles that changed owner *after* the initial partition.
    pub migrated_after_first: u64,
}

/// Run the real host-side SPH step loop (no instrumentation) at a fixed
/// per-rank particle count for each entry of `rank_counts`, and report
/// per-rank CPU time per steady step. `repart_skew_threshold: None` keeps
/// the incremental default; `Some(x)` overrides it (a sub-1 threshold
/// forces a full repartition every step).
pub fn host_weak_scaling(
    rank_counts: &[usize],
    per_rank: usize,
    steps: usize,
    repart_skew_threshold: Option<f64>,
) -> Vec<HostScalingRow> {
    assert!(steps >= 2, "need at least one steady step after step 0");
    let mut rows: Vec<HostScalingRow> = Vec::new();
    for &ranks in rank_counts {
        let n_side = ((ranks * per_rank) as f64).cbrt().round().max(4.0) as usize;
        let ic = sph::subsonic_turbulence(n_side, 0.3, 11);
        let particles = ic.parts.x.len();
        let cfg = sph::SimConfig {
            target_neighbors: 40,
            repart_skew_threshold: repart_skew_threshold
                .unwrap_or_else(|| sph::SimConfig::default().repart_skew_threshold),
            ..sph::SimConfig::default()
        };
        let outs = ranks::run(ranks, CommCost::default(), |ctx| {
            let mut sim = sph::Simulation::distribute_ref(&ic, cfg, ctx.rank(), ctx.size());
            let first = sim.step(ctx, &mut sph::NullObserver);
            let mut reparts = u64::from(first.repartitioned);
            let mut migrated = 0u64;
            let t0 = thread_cpu_time_s();
            for _ in 1..steps {
                let s = sim.step(ctx, &mut sph::NullObserver);
                reparts += u64::from(s.repartitioned);
                migrated += s.migrated;
            }
            (thread_cpu_time_s() - t0, reparts, migrated)
        });
        let cpu = outs
            .iter()
            .map(|(t, _, _)| t / (steps - 1) as f64)
            .fold(0.0, f64::max);
        // Repartition decisions are collective and migration counts are
        // allreduced, so rank 0 speaks for the job.
        let (_, repartitions, migrated_after_first) = outs[0];
        let base = rows
            .first()
            .map_or(cpu, |r: &HostScalingRow| r.cpu_s_per_rank_step);
        rows.push(HostScalingRow {
            ranks,
            particles,
            cpu_s_per_rank_step: cpu,
            cpu_norm: if base > 0.0 { cpu / base } else { 1.0 },
            repartitions,
            migrated_after_first,
        });
    }
    rows
}

/// Print a header band for a figure/table.
pub fn banner(title: &str, caption: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{caption}");
    println!("{}", "=".repeat(78));
}

/// Render a normalized series as a unicode sparkline (lowest value = deepest
/// dip). Used by the figure binaries to echo the paper's plot shapes in the
/// terminal.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() || !lo.is_finite() || !hi.is_finite() {
        return String::new();
    }
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| {
            let x = ((v - lo) / span * 7.0).round() as usize;
            BARS[x.min(7)]
        })
        .collect()
}

/// Render a right-aligned numeric table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// [`print_table`] with one row per item of `data`.
pub fn print_rows<T>(headers: &[&str], data: &[T], row: impl Fn(&T) -> Vec<String>) {
    print_table(headers, &data.iter().map(row).collect::<Vec<_>>());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_guard_blocks_only_unforced_overwrites() {
        // Single core + existing report + no --force: refuse.
        assert!(refuse_single_core_overwrite(1, true, false).is_err());
        // --force overrides.
        assert!(refuse_single_core_overwrite(1, true, true).is_ok());
        // Fresh report or a real multi-core host: always fine.
        assert!(refuse_single_core_overwrite(1, false, false).is_ok());
        assert!(refuse_single_core_overwrite(8, true, false).is_ok());
        let msg = refuse_single_core_overwrite(1, true, false).unwrap_err();
        assert!(msg.contains("--force"), "message must name the override");
    }

    fn flags(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn steps_default_is_the_callers_and_an_explicit_value_always_wins() {
        assert_eq!(Cli::parse_from(&[], 10).unwrap().steps, 10);
        // Fig. 9's case: asking for the *global* default must not be
        // mistaken for "not given" and replaced by the entry's own.
        let cli = Cli::parse_from(&flags(&["--steps", "8", "--check"]), 10).unwrap();
        assert_eq!(cli.steps, DEFAULT_STEPS);
        assert!(cli.check && !cli.force && cli.json.is_none());
        let cli = Cli::parse_from(&flags(&["--json", "out.json", "--force"]), 8).unwrap();
        assert_eq!(cli.json.as_deref(), Some("out.json"));
        assert!(cli.force && !cli.check);
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        let err = |args: &[&str]| Cli::parse_from(&flags(args), 8).unwrap_err();
        assert!(err(&["--jobs"]).contains("unknown argument \"--jobs\""));
        assert!(err(&["--steps"]).contains("--steps needs a number"));
        assert!(err(&["--check", "--json"]).contains("--json needs a path"));
        assert!(err(&["--steps", "x"]).contains("got \"x\""));
    }

    #[test]
    fn n_side_scales_with_ranks() {
        assert_eq!(n_side_for_ranks(1), PHYSICS_N_SIDE);
        let n96 = n_side_for_ranks(96);
        assert!(n96.pow(3) >= 96 * 120);
    }

    #[test]
    fn sparkline_maps_extremes_to_extreme_bars() {
        let s = sparkline(&[1.0, 0.5, 0.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], '\u{2588}');
        assert_eq!(chars[2], '\u{2581}');
        assert!(sparkline(&[]).is_empty());
        // Flat series renders but does not panic on zero span.
        assert_eq!(sparkline(&[2.0, 2.0]).chars().count(), 2);
    }

    #[test]
    fn thread_cpu_time_advances_under_load() {
        let t0 = thread_cpu_time_s();
        // Burn enough CPU to tick the 10 ms USER_HZ counter at least once.
        let mut acc = 0u64;
        while thread_cpu_time_s() - t0 < 0.03 {
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
        }
        assert!(thread_cpu_time_s() >= t0 + 0.03, "CPU time is monotonic");
    }

    #[test]
    fn host_weak_scaling_reports_sane_rows() {
        let rows = host_weak_scaling(&[1, 2], 1_000, 2, None);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].ranks, 1);
        assert!(rows[0].particles >= 900, "~per_rank particles at 1 rank");
        assert!(rows[1].particles >= 1_800, "weak scaling doubles the total");
        assert!(
            (rows[0].cpu_norm - 1.0).abs() < 1e-12,
            "first row is the base"
        );
        assert!(
            rows.iter().all(|r| r.repartitions >= 1),
            "step 0 partitions"
        );
        // Balanced turbulence at default threshold: no re-partitions after
        // the first, and migration stays a small fraction of the total.
        assert!(
            rows[1].migrated_after_first < rows[1].particles as u64 / 5,
            "incremental repartitioning moves <20%: {} of {}",
            rows[1].migrated_after_first,
            rows[1].particles
        );
    }

    #[test]
    fn specs_use_requested_targets() {
        let s = minihpc_spec(FreqPolicy::Baseline, 5, paper_450cubed());
        assert_eq!(s.steps, 5);
        assert_eq!(s.target_particles_per_rank, paper_450cubed());
        let p = production_spec(
            archsim::cscs_a100(),
            8,
            WorkloadKind::Turbulence {
                n_side: 12,
                mach: 0.3,
                seed: 1,
            },
            3,
            150e6,
        );
        assert_eq!(p.ranks, 8);
        assert_eq!(p.target_particles_per_rank, 150e6);
    }
}
