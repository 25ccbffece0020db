//! `freqscale-run` — run experiments described by JSON spec files.
//!
//! Makes the whole pipeline config-driven: describe the system, workload,
//! policy and scale in a spec file, get the full measurement report back.
//! Several spec files run concurrently (`--jobs N` bounds how many at a
//! time; a batch in which any spec names a `table_store` runs one group at
//! a time, in spec order), and specs with the same physics step it once
//! (`freqscale::run_experiments`); the merged report is a JSON array in spec
//! order.
//!
//! A spec is refused before any work by the library's checks alone:
//! `ExperimentSpec::validate` (every path a spec names included) and
//! `freqscale::shared_checkpoint_dir`. The `--print-*template` flags print
//! the checked-in `specs/minihpc_{baseline,online,predictive}.json`.
//!
//! ```sh
//! cargo run --release -p freqscale --bin freqscale-run -- --print-template > spec.json
//! # edit spec.json ...
//! cargo run --release -p freqscale --bin freqscale-run -- spec.json report.json
//! cargo run --release -p freqscale --bin freqscale-run -- --jobs 4 a.json b.json c.json --out all.json
//! cargo run --release -p freqscale --bin freqscale-report -- report.json
//! ```

use freqscale::{run_experiments, shared_checkpoint_dir, ExperimentSpec};

fn usage() -> ! {
    eprintln!(
        "usage: freqscale-run [--jobs N] [--out merged.json] [--trace-out trace.json]\n\
         \x20                 [--metrics-out metrics.txt] [--timeline-csv timeline.csv]\n\
         \x20                 [--fault-profile default|profile.json] [--print-model]\n\
         \x20                 [--checkpoint-dir DIR] [--checkpoint-every N] [--restore DIR]\n\
         \x20                 <spec.json>... | -\n\
         \x20      freqscale-run <spec.json> [report.json]\n\
         \x20      freqscale-run --print-template | --print-online-template\n\
         \x20                    | --print-predictive-template | --print-fault-template\n\
         \n\
         \x20 --trace-out      Chrome-trace/Perfetto JSON of the run (open at\n\
         \x20                  https://ui.perfetto.dev)\n\
         \x20 --metrics-out    Prometheus-style text dump of counters/histograms\n\
         \x20 --timeline-csv   CSV merging span boundaries with GPU power samples\n\
         \x20 --fault-profile  chaos run: inject the given fault profile into\n\
         \x20                  every spec (`default` = the standard chaos mix)\n\
         \x20 --checkpoint-dir write periodic checkpoints under DIR (see\n\
         \x20                  --checkpoint-every; default every 5 steps);\n\
         \x20                  takes exactly one spec\n\
         \x20 --restore        resume from the newest committed checkpoint\n\
         \x20                  under DIR; the particles continue\n\
         \x20                  bit-identically, and the tuner too unless the\n\
         \x20                  run died in its physics stage (then the tuner\n\
         \x20                  starts over)\n\
         \x20 --print-model    dump the fitted per-kernel model coefficients\n\
         \x20                  (predictive policy) as JSON to stdout; the\n\
         \x20                  report then only goes to --out\n\
         \x20 -                read newline-separated spec paths from stdin\n\
         \x20                  (pipe from freqscale-matrix)"
    );
    std::process::exit(2);
}

fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = 0usize; // 0 -> the par layer's default worker count
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut timeline_csv: Option<String> = None;
    let mut fault_profile: Option<faults::FaultProfile> = None;
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut checkpoint_every: usize = 0;
    let mut restore_from: Option<std::path::PathBuf> = None;
    let mut print_model = false;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--print-fault-template" => {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&faults::FaultProfile::chaos())
                        .expect("profile serializes")
                );
                return;
            }
            "--fault-profile" => {
                let v = it.next().unwrap_or_else(|| usage());
                let profile = if v == "default" {
                    faults::FaultProfile::chaos()
                } else {
                    let body = std::fs::read_to_string(&v)
                        .unwrap_or_else(|e| fail(format!("reading fault profile {v}: {e}")));
                    serde_json::from_str(&body)
                        .unwrap_or_else(|e| fail(format!("parsing fault profile {v}: {e}")))
                };
                if let Err(e) = profile.validate() {
                    fail(format!("invalid fault profile {v}: {e}"));
                }
                fault_profile = Some(profile);
            }
            // The checked-in starter specs: each asks for a power trace, and
            // the two tuners' specs name a table store so repeat runs warm-start.
            "--print-template" => {
                print!(
                    "{}",
                    include_str!("../../../../specs/minihpc_baseline.json")
                );
                return;
            }
            "--print-online-template" => {
                print!("{}", include_str!("../../../../specs/minihpc_online.json"));
                return;
            }
            "--print-predictive-template" => {
                print!(
                    "{}",
                    include_str!("../../../../specs/minihpc_predictive.json")
                );
                return;
            }
            "--print-model" => print_model = true,
            "--jobs" | "-j" => {
                let v = it.next().unwrap_or_else(|| usage());
                jobs = v
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--jobs {v}: {e}")));
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| usage()),
                ));
            }
            "--checkpoint-every" => {
                let v = it.next().unwrap_or_else(|| usage());
                checkpoint_every = v
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--checkpoint-every {v}: {e}")));
            }
            "--restore" => {
                restore_from = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| usage()),
                ));
            }
            "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
            "--trace-out" => trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics-out" => metrics_out = Some(it.next().unwrap_or_else(|| usage())),
            "--timeline-csv" => timeline_csv = Some(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => positional.push(arg),
        }
    }

    // A positional `-` expands to spec paths read from stdin, one per line
    // — the shape `freqscale-matrix | freqscale-run --jobs 4 -` produces.
    let mut used_stdin = false;
    if positional.iter().any(|p| p == "-") {
        used_stdin = true;
        let mut body = String::new();
        use std::io::Read as _;
        std::io::stdin()
            .read_to_string(&mut body)
            .unwrap_or_else(|e| fail(format!("reading spec list from stdin: {e}")));
        let from_stdin: Vec<String> = body
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect();
        if from_stdin.is_empty() {
            fail("stdin (`-`) supplied no spec paths".to_string());
        }
        positional = positional
            .into_iter()
            .filter(|p| p != "-")
            .chain(from_stdin)
            .collect();
    }

    // Legacy form: exactly two positionals with no --out means
    // `<spec.json> <report.json>` — but not when the list came from stdin.
    if out.is_none() && !used_stdin && positional.len() == 2 {
        out = positional.pop();
    }
    if positional.is_empty() {
        usage();
    }
    // Every spec would write the same step directories and manifests into
    // the one directory, concurrently under --jobs.
    if checkpoint_dir.is_some() && positional.len() > 1 {
        fail(format!(
            "--checkpoint-dir takes exactly one spec (got {})",
            positional.len()
        ));
    }

    let specs: Vec<ExperimentSpec> = positional
        .iter()
        .map(|path| {
            let body = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("reading spec {path}: {e}")));
            let mut spec: ExperimentSpec = serde_json::from_str(&body)
                .unwrap_or_else(|e| fail(format!("parsing spec {path}: {e}")));
            // Resolve a symbolic `"scenario"` name into its registry
            // workload before anything else — an unknown name must not get
            // as far as the cluster.
            spec.resolve_scenario()
                .unwrap_or_else(|e| fail(format!("spec {path}: {e}")));
            if let Some(profile) = &fault_profile {
                spec.faults = Some(profile.clone());
            }
            if let Some(dir) = &checkpoint_dir {
                spec.checkpoint_dir = Some(dir.clone());
            }
            if checkpoint_every > 0 {
                spec.checkpoint_every = checkpoint_every;
            }
            if let Some(dir) = &restore_from {
                spec.restore_from = Some(dir.clone());
            }
            // Anything that parses but cannot run (no ranks, an undersized
            // workload, an off-table memory clock, a refused tuner config,
            // an unwritable directory, a restore point it cannot resume) is
            // a spec error here, not a panic inside a rank thread.
            spec.validate()
                .unwrap_or_else(|e| fail(format!("spec {path}: {e}")));
            spec
        })
        .collect();
    // `run_experiments` would panic on these; refuse them cleanly.
    if let Some((a, b)) = shared_checkpoint_dir(&specs) {
        let dir = specs[b].checkpoint_dir.as_ref().expect("a shared dir");
        let (a, b, dir) = (&positional[a], &positional[b], dir.display());
        fail(format!("specs {a} and {b} both checkpoint to {dir}"));
    }
    for spec in &specs {
        eprintln!(
            "running {} / {} / {} on {} ranks, {} steps...",
            spec.system.name,
            spec.workload.name(),
            spec.policy.label(),
            spec.ranks,
            spec.steps
        );
    }

    let tracing = trace_out.is_some() || metrics_out.is_some() || timeline_csv.is_some();
    if tracing {
        telemetry::start();
        telemetry::set_track("driver");
    }

    let results = run_experiments(&specs, jobs);

    if tracing {
        let data = telemetry::stop();
        eprintln!("{}", data.overhead_summary());
        if let Some(path) = &trace_out {
            std::fs::write(path, telemetry::chrome_trace(&data))
                .unwrap_or_else(|e| fail(format!("writing trace {path}: {e}")));
            eprintln!("wrote {path} (open at https://ui.perfetto.dev)");
        }
        if let Some(path) = &metrics_out {
            std::fs::write(path, telemetry::metrics_text(&data))
                .unwrap_or_else(|e| fail(format!("writing metrics {path}: {e}")));
            eprintln!("wrote {path}");
        }
        if let Some(path) = &timeline_csv {
            // Merge with the first traced rank's power samples (specs with
            // collect_trace populate them); spans still export without power.
            let power: Vec<(f64, f64)> = results
                .iter()
                .flat_map(|r| r.per_rank.iter())
                .find(|r| !r.power_trace.is_empty())
                .map(|r| r.power_trace.clone())
                .unwrap_or_default();
            std::fs::write(path, telemetry::csv_timeline(&data, &power))
                .unwrap_or_else(|e| fail(format!("writing timeline {path}: {e}")));
            eprintln!("wrote {path}");
        }
    }

    // One spec keeps the original single-object report shape; several
    // merge into a JSON array in spec order. `to_json` emits complete
    // objects, so the merge is textual — no round-trip needed.
    let json = if results.len() == 1 {
        results[0].to_json()
    } else {
        let mut merged = String::from("[\n");
        for (k, result) in results.iter().enumerate() {
            if k > 0 {
                merged.push_str(",\n");
            }
            merged.push_str(&result.to_json());
        }
        merged.push_str("\n]");
        merged
    };
    for result in &results {
        eprintln!(
            "{} / {}: t = {:.3}s, GPU = {:.1} J, Slurm = {:.1} J",
            result.workload,
            result.policy,
            result.time_to_solution_s,
            result.pmt_gpu_j,
            result.slurm_consumed_j
        );
        if result.fault_stats.injected() > 0 {
            eprintln!("  faults: {}", result.fault_stats.summary());
            if result.fault_stats.all_recovered() {
                eprintln!("  faults: every injected fault was recovered");
            } else {
                eprintln!(
                    "  faults: {} injected fault(s) NOT recovered",
                    result.fault_stats.injected() - result.fault_stats.recovered()
                );
            }
        }
    }
    if print_model {
        // One object per spec, keyed "<workload>/<policy>", each holding
        // rank 0's fitted per-kernel coefficients (empty for non-predictive
        // policies or kernels that fell back to the search).
        let models: std::collections::BTreeMap<String, _> = results
            .iter()
            .map(|r| {
                (
                    format!("{}/{}", r.workload, r.policy),
                    &r.per_rank[0].models,
                )
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&models).expect("models serialize")
        );
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
            eprintln!("wrote {path}");
        }
        // --print-model owns stdout; without --out the report is dropped.
        None if print_model => {}
        None => println!("{json}"),
    }
}
