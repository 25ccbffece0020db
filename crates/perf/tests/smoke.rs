//! `perf smoke`: the real code paths at toy scale. Every workload must emit
//! each metric declared on its path exactly once and no other, pass its
//! checks, and leave `BENCHMARK.json` alone; in the PR driver's modes it
//! must emit every declared metric.

use std::collections::BTreeMap;

use perf::metrics::{On, END_TO_END, PER_LAYER};
use perf::probes::Effort;
use perf::results::driver_line;
use perf::run::{run_workload, Mode, RunConfig};
use perf::workloads::{Sizing, Workload};

/// The PR driver's result line: exactly these keys.
#[derive(serde::Deserialize)]
#[serde(deny_unknown_fields)]
struct DriverLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, DriverMetric>,
}

#[derive(serde::Deserialize)]
#[serde(deny_unknown_fields)]
struct DriverMetric {
    value: f64,
    unit: String,
}

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

fn smoke(workload: Workload, mode: Mode) -> perf::run::Outcome {
    run_workload(&RunConfig {
        workload,
        seed: 7,
        sizing: Sizing::smoke(),
        effort: Effort::SMOKE,
        mode,
    })
}

fn assert_exactly_once<'a>(
    declared: impl Iterator<Item = &'a str>,
    emitted: &[perf::metrics::Measured],
    what: &str,
) {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for m in emitted {
        *counts.entry(m.name.as_str()).or_default() += 1;
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    for name in declared {
        assert_eq!(
            counts.remove(name),
            Some(1),
            "{what}: `{name}` not emitted exactly once"
        );
    }
    assert!(counts.is_empty(), "{what}: undeclared names {counts:?}");
}

/// The telemetry recorder is process-global and one probe opens a session,
/// so the four workloads take turns.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn check_workload(workload: Workload) {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = std::fs::read(BENCHMARK_JSON).expect("BENCHMARK.json");
    let outcome = smoke(workload, Mode::Both);
    let r = &outcome.result;
    assert!(
        r.correct(),
        "{}: {} of {} ops failed; checks: {:?}",
        r.workload,
        r.ops_failed,
        r.ops_attempted,
        r.checks
    );
    let on_path = |on: On| on.includes(workload);
    assert_exactly_once(
        END_TO_END.iter().filter(|m| on_path(m.on)).map(|m| m.name),
        &r.end_to_end,
        workload.name(),
    );
    assert_exactly_once(
        PER_LAYER.iter().filter(|m| on_path(m.on)).map(|m| m.name),
        &r.per_layer,
        workload.name(),
    );
    for m in &r.end_to_end {
        assert!(
            m.value > 0.0,
            "{}: end-to-end {} is {}",
            r.workload,
            m.name,
            m.value
        );
    }
    // Provenance every result file carries.
    assert_eq!(r.seed, 7);
    assert_eq!(r.sizing, Sizing::smoke());
    assert!(r.host_threads >= 1 && !r.git_rev.is_empty());
    assert_eq!(r.degraded, r.host_threads < 2);
    assert!(r
        .end_to_end
        .iter()
        .all(|m| m.name == "cpu_s" || m.name == "peak_rss_mb" || m.degraded == r.degraded));

    // The span tree closes: every child lies inside its parent and shares
    // its run id.
    let spans = &outcome.spans.as_ref().expect("traced run").spans;
    assert!(!spans.is_empty());
    for s in spans {
        if let Some(p) = s.parent {
            let p = &spans[p as usize];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{s:?} in {p:?}"
            );
            assert_eq!(p.run, s.run);
        }
    }

    assert_eq!(
        std::fs::read(BENCHMARK_JSON).expect("BENCHMARK.json"),
        before,
        "smoke must never write BENCHMARK.json"
    );
}

#[test]
fn turb_100k_smoke() {
    check_workload(Workload::Turb100k);
}

#[test]
fn evrard_2rank_smoke() {
    check_workload(Workload::Evrard2Rank);
}

#[test]
fn matrix_48_smoke() {
    check_workload(Workload::Matrix48);
}

#[test]
fn serve_closed_smoke() {
    check_workload(Workload::ServeClosed);
}

/// `--trace 0` and `--trace 1` as the PR driver runs them: every declared
/// metric, also those off the workload's path, in a one-line JSON object
/// with exactly the contract's four keys.
#[test]
fn driver_modes_emit_every_declared_metric() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let untraced = smoke(Workload::Turb100k, Mode::Untraced).result;
    assert!(untraced.per_layer.is_empty());
    assert_exactly_once(
        END_TO_END.iter().map(|m| m.name),
        &untraced.end_to_end,
        "--trace 0",
    );
    assert!(untraced.end_to_end.iter().all(|m| m.value > 0.0));
    let traced = smoke(Workload::Turb100k, Mode::Traced).result;
    assert!(traced.end_to_end.is_empty());
    assert_exactly_once(
        PER_LAYER.iter().map(|m| m.name),
        &traced.per_layer,
        "--trace 1",
    );

    for (r, metrics) in [
        (&untraced, &untraced.end_to_end),
        (&traced, &traced.per_layer),
    ] {
        assert!(r.correct(), "checks: {:?}", r.checks);
        let line = driver_line(r, metrics);
        assert!(!line.contains('\n'));
        let parsed: DriverLine = serde_json::from_str(&line).expect("exactly the four keys");
        assert_eq!(parsed.correct, r.correct());
        assert!(parsed.attempted >= 1 && parsed.failed == 0);
        assert_eq!(parsed.metrics.len(), metrics.len());
        for m in metrics {
            let printed = &parsed.metrics[&m.name];
            assert_eq!(printed.value.to_bits(), m.value.to_bits(), "{}", m.name);
            assert_eq!(printed.unit, m.unit);
        }
    }
}
