//! The names, units, directions and bounds in `/BENCHMARK.json` are the
//! ones the code prints — the PR driver reads the file, the binary prints
//! from the tables in `perf::metrics`, and nothing else keeps them in step.

use perf::metrics::{Better, END_TO_END, PER_LAYER};
use perf::workloads::{Workload, RUN_SECONDS};
use serde::Deserialize;

#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct WorkloadDecl {
    name: String,
    why: String,
}

#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct EndToEndDecl {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct PerLayerDecl {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<WorkloadDecl>,
    end_to_end: Vec<EndToEndDecl>,
    per_layer: Vec<PerLayerDecl>,
}

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json has exactly the contract's keys")
}

fn label(better: Better) -> &'static str {
    match better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn names_are_well_formed_unique_and_within_limits() {
    assert!(END_TO_END.len() <= 16);
    assert!(PER_LAYER.len() <= 128);
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for name in &all {
        assert!(well_formed(name), "{name:?} does not match [A-Za-z0-9_.-]+");
    }
    let before = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), before, "a name is used twice");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
            "unit {unit:?}"
        );
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let b = benchmark();
    assert_eq!(b.paths, ["crates/perf"]);
    assert_eq!(b.run_seconds, RUN_SECONDS);
    assert!(b.command.len() <= 32 && b.command.iter().all(|a| a.len() <= 200));
    assert_eq!(b.command, ["bash", "crates/perf/bench.sh"]);

    let declared: Vec<(&str, &str)> = b
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w.why.as_str()))
        .collect();
    let coded: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
    assert_eq!(declared, coded);
    for (_, why) in declared {
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    assert_eq!(b.end_to_end.len(), END_TO_END.len());
    for (decl, def) in b.end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(decl.name, def.name);
        assert_eq!(decl.unit, def.unit, "{}", def.name);
        assert_eq!(decl.better, label(def.better), "{}", def.name);
        assert_eq!(decl.bound, def.rel_bound, "{}", def.name);
        assert!(decl.bound > 0.0 && decl.bound <= 0.25, "{}", def.name);
    }
    let setup = b
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is mandatory");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    assert!(
        b.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );

    assert_eq!(b.per_layer.len(), PER_LAYER.len());
    for (decl, def) in b.per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(decl.name, def.name);
        assert_eq!(decl.unit, def.unit, "{}", def.name);
        assert_eq!(decl.better, label(def.better), "{}", def.name);
    }
}

#[test]
fn readme_glossary_covers_every_name() {
    let readme = include_str!("../README.md");
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(Workload::ALL.iter().map(|w| w.name()))
    {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md glossary is missing `{name}`"
        );
    }
}
