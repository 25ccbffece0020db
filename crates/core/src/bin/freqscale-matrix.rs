//! `freqscale-matrix` — expand the scenario × device × policy cube into
//! spec files `freqscale-run` (and `freqscale-submit`) can consume.
//!
//! Each cell is a single-node run of one zoo scenario on one zoo device
//! under one policy; the generator writes `<out-dir>/<scenario>--<device
//! slug>--<policy>.json` and prints the paths to stdout, one per line, so
//! the whole matrix pipes straight into the runner:
//!
//! ```sh
//! freqscale-matrix --out-dir matrix-specs | freqscale-run --jobs 4 - --out matrix-report.json
//! freqscale-matrix --list                       # cell names only, no files
//! freqscale-matrix --devices devices/l4.json    # a template file instead of a builtin
//! ```

use archsim::DeviceTemplate;
use freqscale::scenario::{slug, system_for_device, SCENARIOS};
use freqscale::{ExperimentSpec, FreqPolicy};
use online::{OnlineTunerConfig, PredictiveConfig};

/// Policies the matrix knows by name. The default pair is the two
/// self-tuning policies — the ones whose learned tables the sweep compares
/// across devices.
const POLICIES: [&str; 4] = ["online", "predictive", "baseline", "dvfs"];
const DEFAULT_POLICIES: [&str; 2] = ["online", "predictive"];

fn usage() -> ! {
    eprintln!(
        "usage: freqscale-matrix [--out-dir DIR] [--scenarios a,b,..] [--devices d,..]\n\
         \x20                    [--policies p,..] [--steps N] [--table-store DIR] [--list]\n\
         \n\
         \x20 --out-dir     where spec files go (default: matrix-specs)\n\
         \x20 --scenarios   comma-separated registry names (default: all {n_sc})\n\
         \x20 --devices     builtin template names or paths to template JSON\n\
         \x20                (default: all {n_dev} builtins)\n\
         \x20 --policies    any of {policies} (default: online,predictive)\n\
         \x20 --steps       steps per cell (default: 80 — above the online\n\
         \x20                tuner's 64-launch exploration budget, so every\n\
         \x20                kernel pins even on the longest device ladder)\n\
         \x20 --table-store per-cell learned-table directory (default: none)\n\
         \x20 --list        print `scenario/device/policy` cell names; write nothing",
        n_sc = SCENARIOS.len(),
        n_dev = archsim::BUILTIN_DEVICES.len(),
        policies = POLICIES.join(","),
    );
    std::process::exit(2);
}

fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn split_csv(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// A device argument is a template file when it looks like a path;
/// otherwise it names a builtin.
fn load_device(arg: &str) -> DeviceTemplate {
    if arg.contains('/') || arg.ends_with(".json") {
        DeviceTemplate::load(std::path::Path::new(arg)).unwrap_or_else(|e| fail(e.to_string()))
    } else {
        DeviceTemplate::builtin(arg).unwrap_or_else(|| {
            fail(format!(
                "unknown device {arg:?} (builtins: {}; or pass a template JSON path)",
                archsim::BUILTIN_DEVICES.join(", ")
            ))
        })
    }
}

fn policy_for(name: &str) -> FreqPolicy {
    match name {
        "online" => FreqPolicy::ManDynOnline(OnlineTunerConfig::default()),
        "predictive" => FreqPolicy::ManDynPredictive(PredictiveConfig::default()),
        "baseline" => FreqPolicy::Baseline,
        "dvfs" => FreqPolicy::Dvfs,
        _ => fail(format!(
            "unknown policy {name:?} (valid policies: {})",
            POLICIES.join(", ")
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from("matrix-specs");
    let mut scenarios: Vec<String> = SCENARIOS.iter().map(|s| s.to_string()).collect();
    let mut devices: Vec<String> = archsim::BUILTIN_DEVICES
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut policies: Vec<String> = DEFAULT_POLICIES.iter().map(|s| s.to_string()).collect();
    // Above OnlineTunerConfig's default 64-launch exploration budget: on the
    // longest ladders (H100/L4) the search does not converge naturally in a
    // short run, and an unpinned kernel publishes no learned-table entry.
    let mut steps = 80usize;
    let mut table_store: Option<String> = None;
    let mut list_only = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out-dir" => out_dir = it.next().unwrap_or_else(|| usage()),
            "--scenarios" => scenarios = split_csv(&it.next().unwrap_or_else(|| usage())),
            "--devices" => devices = split_csv(&it.next().unwrap_or_else(|| usage())),
            "--policies" => policies = split_csv(&it.next().unwrap_or_else(|| usage())),
            "--steps" => {
                let v = it.next().unwrap_or_else(|| usage());
                steps = v
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--steps {v}: {e}")));
            }
            "--table-store" => table_store = Some(it.next().unwrap_or_else(|| usage())),
            "--list" => list_only = true,
            "--help" | "-h" => usage(),
            other => fail(format!("unexpected argument {other:?} (see --help)")),
        }
    }
    if scenarios.is_empty() || devices.is_empty() || policies.is_empty() {
        fail("the matrix has an empty axis".to_string());
    }
    for s in &scenarios {
        if !SCENARIOS.contains(&s.as_str()) {
            fail(format!(
                "unknown scenario {s:?} (valid scenarios: {})",
                SCENARIOS.join(", ")
            ));
        }
    }
    let templates: Vec<DeviceTemplate> = devices.iter().map(|d| load_device(d)).collect();

    if !list_only {
        std::fs::create_dir_all(&out_dir)
            .unwrap_or_else(|e| fail(format!("creating {out_dir}: {e}")));
    }
    for template in &templates {
        let system = system_for_device(template).unwrap_or_else(|e| fail(e));
        let device_slug = slug(&template.name);
        for scenario in &scenarios {
            for policy in &policies {
                if list_only {
                    println!("{scenario}/{device_slug}/{policy}");
                    continue;
                }
                let mut spec = ExperimentSpec::minihpc_turbulence(policy_for(policy), steps);
                spec.system = system.clone();
                spec.scenario = Some(scenario.clone());
                spec.resolve_scenario()
                    .unwrap_or_else(|e| fail(format!("cell {scenario}/{device_slug}: {e}")));
                spec.table_store = table_store.as_ref().map(std::path::PathBuf::from);
                spec.validate().unwrap_or_else(|e| {
                    fail(format!("cell {scenario}/{device_slug}/{policy}: {e}"))
                });
                let path = format!("{out_dir}/{scenario}--{device_slug}--{policy}.json");
                let body = serde_json::to_string_pretty(&spec).expect("matrix spec serializes");
                std::fs::write(&path, body)
                    .unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
                println!("{path}");
            }
        }
    }
}
