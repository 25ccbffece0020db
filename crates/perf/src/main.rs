//! `perf run | compare | smoke` — see the crate README.

use std::path::Path;
use std::process::ExitCode;

use perf::probes::Effort;
use perf::results::{self, ResultFile};
use perf::run::{run_workload, Mode, Outcome, RunConfig};
use perf::workloads::{Sizing, Workload, RUN_SECONDS};
use perf::{compare, host};

const USAGE: &str = "usage:
  perf run --seed <u64> [--workload <name>] [--trace 0|1|both] [--seconds 20]
      Without --trace: every selected workload runs in a fresh child process
      (`--trace both`: untraced, then traced); results land in <target>/perf/.
      --trace 0 | 1: the PR driver's form. This process runs the one workload
      and prints the driver's JSON line last (0: end-to-end, 1: per-layer),
      with every declared metric, also those off the workload's path.
      --seconds: the driver passes BENCHMARK.json's run_seconds; the sizes
      are frozen for that value and no other is accepted.
  perf compare <A.json> <B.json>
      Apply each end-to-end metric's bound; exit 1 on any regression, 2 when
      the sets are not comparable (workloads, seed, sizes or dependencies).
  perf smoke [--seed <u64>]
      The same code at toy scale, all four workloads in this process.
workloads: turb_100k, evrard_2rank, matrix_48, serve_closed";

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    trace: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => out.seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                if value.parse() != Ok(RUN_SECONDS) {
                    return Err(format!(
                        "--seconds {value}: the sizes are frozen for {RUN_SECONDS}"
                    ));
                }
            }
            "--trace" => out.trace = Some(value.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(out)
}

fn print_outcome(result: &ResultFile) {
    for m in result.end_to_end.iter().chain(&result.per_layer) {
        println!("{}", m.line());
    }
    println!("ops_attempted {} count clock=virtual", result.ops_attempted);
    println!("ops_failed {} count clock=virtual", result.ops_failed);
    for c in &result.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {} {verdict}: {}", c.name, c.detail);
    }
    for p in &result.predictions {
        let verdict = if p.confirmed { "confirmed" } else { "refuted" };
        println!("prediction {} {verdict}: {}", p.name, p.detail);
    }
}

fn write_outcome(outcome: &Outcome, stem: &str) -> std::io::Result<()> {
    let dir = host::out_dir();
    outcome.result.write(&dir.join(format!("{stem}.json")))?;
    if let Some(spans) = &outcome.spans {
        std::fs::write(dir.join(format!("{stem}.trace.json")), spans.chrome_trace())?;
    }
    Ok(())
}

/// One workload in this process; the driver's JSON line goes last.
fn run_here(workload: Workload, seed: u64, mode: Mode) -> ExitCode {
    let outcome = run_workload(&RunConfig {
        workload,
        seed,
        sizing: Sizing::FULL,
        effort: Effort::FULL,
        mode,
    });
    let result = &outcome.result;
    print_outcome(result);
    if let Err(e) = write_outcome(&outcome, workload.name()) {
        eprintln!("error: writing results: {e}");
        return ExitCode::FAILURE;
    }
    let metrics = match mode {
        Mode::Untraced => result.end_to_end.clone(),
        Mode::Traced => result.per_layer.clone(),
        Mode::Both => [result.end_to_end.clone(), result.per_layer.clone()].concat(),
    };
    println!("{}", results::driver_line(result, &metrics));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every selected workload in a fresh child, so peak RSS, CPU time and
/// set-up are per workload; then one merged result set.
fn run_children(selected: &[Workload], seed: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: locating own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    let mut set = Vec::new();
    for w in selected {
        println!("== {} ==", w.name());
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", w.name(), "--trace", "both"])
            .args(["--seed", &seed.to_string()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: {} child: {s}", w.name());
                all_ok = false;
            }
            Err(e) => {
                eprintln!("error: spawning {} child: {e}", w.name());
                all_ok = false;
            }
        }
        let path = host::out_dir().join(format!("{}.json", w.name()));
        match results::read_set(&path) {
            Ok(mut r) => set.append(&mut r),
            Err(e) => {
                eprintln!("error: {e}");
                all_ok = false;
            }
        }
    }
    let path = host::out_dir().join("results.json");
    let body = serde_json::to_string_pretty(&set).expect("result set serialises");
    if let Err(e) = std::fs::write(&path, body + "\n") {
        eprintln!("error: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("== result set: {} ==", path.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(seed) = args.seed else {
        eprintln!("error: --seed is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let mode = match args.trace.as_deref() {
        None => None,
        Some("0") => Some(Mode::Untraced),
        Some("1") => Some(Mode::Traced),
        Some("both") => Some(Mode::Both),
        Some(other) => {
            eprintln!("error: --trace {other}: expected 0, 1 or both\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (mode, args.workload) {
        (Some(mode), Some(w)) => run_here(w, seed, mode),
        (Some(_), None) => {
            eprintln!("error: --trace needs --workload\n{USAGE}");
            ExitCode::from(2)
        }
        (None, Some(w)) => run_children(&[w], seed),
        (None, None) => run_children(&Workload::ALL, seed),
    }
}

fn cmd_smoke(args: &[String]) -> ExitCode {
    let seed = match parse_args(args) {
        Ok(a) => a.seed.unwrap_or(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        println!("== {} (smoke) ==", workload.name());
        let outcome = run_workload(&RunConfig {
            workload,
            seed,
            sizing: Sizing::smoke(),
            effort: Effort::SMOKE,
            mode: Mode::Both,
        });
        print_outcome(&outcome.result);
        ok &= outcome.result.correct();
        if let Err(e) = write_outcome(&outcome, &format!("smoke-{}", workload.name())) {
            eprintln!("error: writing results: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("error: compare takes two result files\n{USAGE}");
        return ExitCode::from(2);
    };
    let sets =
        results::read_set(Path::new(a)).and_then(|a| Ok((a, results::read_set(Path::new(b))?)));
    match sets {
        Ok((a, b)) => match compare::compare(&a, &b) {
            Ok(c) => {
                print!("{}", compare::render(&c));
                if c.regressed() {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("error: not comparable: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "smoke" => cmd_smoke(rest),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
