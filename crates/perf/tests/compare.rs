//! `perf compare` on hand-made result sets.

use perf::compare::{Comparison, Verdict};
use perf::metrics::{Clock, Measured, END_TO_END};
use perf::results::ResultFile;
use perf::workloads::Sizing;

fn measured(name: &str, value: f64, clock: Clock) -> Measured {
    Measured {
        name: name.to_string(),
        value,
        unit: "x".to_string(),
        clock,
        degraded: false,
    }
}

/// A result with the given end-to-end values; everything else defaulted.
fn result(workload: &str, e2e: &[(&str, f64)]) -> ResultFile {
    ResultFile {
        workload: workload.to_string(),
        git_rev: "test".to_string(),
        seed: 1,
        deps: "registry".to_string(),
        host_threads: 2,
        load_avg_1m: 0.0,
        sizing: Sizing::smoke(),
        degraded: false,
        ops_attempted: 100,
        ops_failed: 0,
        checks: Vec::new(),
        predictions: Vec::new(),
        end_to_end: e2e
            .iter()
            .map(|(n, v)| measured(n, *v, Clock::Host))
            .collect(),
        per_layer: Vec::new(),
    }
}

/// Comparable sets (every test but the last one's are).
fn compare(a: &[ResultFile], b: &[ResultFile]) -> Comparison {
    perf::compare::compare(a, b).expect("comparable sets")
}

fn verdict(c: &Comparison, workload: &str, metric: &str) -> Verdict {
    c.rows
        .iter()
        .find(|r| r.workload == workload && r.metric == metric)
        .unwrap_or_else(|| panic!("no row {workload}/{metric}"))
        .verdict
}

fn bound(metric: &str) -> f64 {
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .expect("declared metric")
        .rel_bound
}

#[test]
fn within_bound_is_ok_and_beyond_is_regressed() {
    let a = [result("turb_100k", &[("wall_s", 10.0), ("ops_per_s", 2.0)])];
    let (bw, bo) = (bound("wall_s"), bound("ops_per_s"));
    // Worse by nine tenths of the bound, in each metric's own direction: ok.
    let b = [result(
        "turb_100k",
        &[
            ("wall_s", 10.0 * (1.0 + 0.9 * bw)),
            ("ops_per_s", 2.0 * (1.0 - 0.9 * bo)),
        ],
    )];
    let c = compare(&a, &b);
    assert_eq!(verdict(&c, "turb_100k", "wall_s"), Verdict::Ok);
    assert_eq!(verdict(&c, "turb_100k", "ops_per_s"), Verdict::Ok);
    assert!(!c.regressed());

    // Worse by eleven tenths: regressed. ops_per_s is higher-better, so a
    // drop regresses and a rise never does.
    let b = [result(
        "turb_100k",
        &[
            ("wall_s", 10.0 * (1.0 + 1.1 * bw)),
            ("ops_per_s", 2.0 * (1.0 - 1.1 * bo)),
        ],
    )];
    let c = compare(&a, &b);
    assert_eq!(verdict(&c, "turb_100k", "wall_s"), Verdict::Regressed);
    assert_eq!(verdict(&c, "turb_100k", "ops_per_s"), Verdict::Regressed);
    assert!(c.regressed());
    let b = [result("turb_100k", &[("wall_s", 5.0), ("ops_per_s", 3.0)])];
    assert!(!compare(&a, &b).regressed());
}

#[test]
fn setup_has_an_absolute_floor() {
    // 1.6 ms → 30 ms is 19× worse in relative terms, but under the 0.05 s
    // floor: daemon start-up jitter, not a regression.
    let a = [result("serve_closed", &[("setup_s", 0.0016)])];
    let b = [result("serve_closed", &[("setup_s", 0.030)])];
    let c = compare(&a, &b);
    assert_eq!(verdict(&c, "serve_closed", "setup_s"), Verdict::Ok);
    let row = c.rows.iter().find(|r| r.metric == "setup_s").unwrap();
    assert_eq!(row.allowed, 0.05);
    // Past the floor and the relative bound, it is one.
    let b = [result("serve_closed", &[("setup_s", 0.060)])];
    assert_eq!(
        verdict(&compare(&a, &b), "serve_closed", "setup_s"),
        Verdict::Regressed
    );
    // Where set-up takes seconds, the relative bound governs.
    let rel = bound("setup_s");
    let a = [result("turb_100k", &[("setup_s", 2.0)])];
    let b = [result("turb_100k", &[("setup_s", 2.0 * (1.0 + 0.9 * rel))])];
    assert_eq!(
        verdict(&compare(&a, &b), "turb_100k", "setup_s"),
        Verdict::Ok
    );
    let b = [result("turb_100k", &[("setup_s", 2.0 * (1.0 + 1.1 * rel))])];
    assert_eq!(
        verdict(&compare(&a, &b), "turb_100k", "setup_s"),
        Verdict::Regressed
    );
}

#[test]
fn one_sided_degraded_or_noisy_is_unresolved() {
    let a = [result("matrix_48", &[("wall_s", 10.0)])];
    // A metric off the workload's path on both sides has no row; one that
    // only one side printed cannot be judged.
    let b = [result(
        "matrix_48",
        &[("wall_s", 10.0), ("peak_rss_mb", 40.0)],
    )];
    let c = compare(&a, &b);
    assert!(c.rows.iter().all(|r| r.metric != "job_p90_s"));
    assert_eq!(verdict(&c, "matrix_48", "peak_rss_mb"), Verdict::Unresolved);
    assert!(!c.regressed(), "unresolved alone does not fail the gate");

    // Wall clock from a 1-core host says nothing either way.
    let mut b = result("matrix_48", &[("wall_s", 30.0)]);
    b.end_to_end[0].degraded = true;
    assert_eq!(
        verdict(&compare(&a, &[b]), "matrix_48", "wall_s"),
        Verdict::Unresolved
    );

    // Several runs per side: medians decide, unless a side's own spread is
    // wider than the bound…
    let runs = |vals: &[f64]| -> Vec<ResultFile> {
        vals.iter()
            .map(|v| result("matrix_48", &[("wall_s", *v)]))
            .collect()
    };
    let steady = runs(&[10.0, 10.1, 9.9, 10.0, 10.05]);
    let worse = 10.0 * (1.0 + 1.2 * bound("wall_s"));
    let c = compare(
        &steady,
        &runs(&[worse, worse + 0.1, worse - 0.1, worse, worse + 0.05]),
    );
    assert_eq!(verdict(&c, "matrix_48", "wall_s"), Verdict::Regressed);
    let noisy = runs(&[6.0, 12.5, 7.0, 15.0, 11.5]);
    let c = compare(&steady, &noisy);
    assert_eq!(verdict(&c, "matrix_48", "wall_s"), Verdict::Unresolved);
    // …and even then a side that wins every single pairing is resolved.
    let c = compare(&noisy, &runs(&[4.0, 4.1, 3.9, 4.0, 4.05]));
    assert_eq!(verdict(&c, "matrix_48", "wall_s"), Verdict::Ok);
}

#[test]
fn failure_rate_and_exact_metrics() {
    let a = result("serve_closed", &[("wall_s", 10.0)]);
    let mut b = a.clone();
    b.ops_failed = 1;
    let c = compare(std::slice::from_ref(&a), &[b]);
    assert_eq!(c.failure_rate_rose, ["serve_closed"]);
    assert!(c.regressed());

    // Exact (virtual-clock) per-layer metrics must match bit for bit; a
    // difference is listed, a host-clock difference is not.
    let mut a = a;
    a.per_layer = vec![
        measured("core.launches", 4760.0, Clock::Virtual),
        measured("sph.step_ms_p50", 3.9, Clock::Host),
    ];
    let mut b = a.clone();
    b.per_layer[0].value = 4761.0;
    b.per_layer[1].value = 4.4;
    let c = compare(&[a], &[b]);
    assert_eq!(c.exact_changed, ["serve_closed core.launches 4760 4761"]);
    assert!(!c.regressed(), "listed as changed, not failed");
}

#[test]
fn result_sets_read_as_object_or_array() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare-sets");
    std::fs::create_dir_all(&dir).unwrap();
    let one = result("turb_100k", &[("wall_s", 10.0)]);
    one.write(&dir.join("one.json")).unwrap();
    let set = vec![one.clone(), result("matrix_48", &[("wall_s", 12.0)])];
    std::fs::write(
        dir.join("set.json"),
        serde_json::to_string_pretty(&set).unwrap(),
    )
    .unwrap();
    assert_eq!(
        perf::results::read_set(&dir.join("one.json")).unwrap(),
        [one]
    );
    assert_eq!(perf::results::read_set(&dir.join("set.json")).unwrap(), set);
    assert!(perf::results::read_set(&dir.join("absent.json")).is_err());
    std::fs::write(dir.join("bad.json"), "{\"workload\": 3}").unwrap();
    assert!(perf::results::read_set(&dir.join("bad.json")).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sets_that_ran_different_inputs_or_builds_are_refused() {
    let a = [
        result("turb_100k", &[("wall_s", 10.0)]),
        result("matrix_48", &[("wall_s", 10.0)]),
    ];
    assert!(perf::compare::compare(&a, &a).is_ok());
    // A workload absent on one side.
    assert!(perf::compare::compare(&a, &a[..1]).is_err());
    assert!(perf::compare::compare(&a, &[]).is_err());
    let changed = |f: fn(&mut ResultFile)| {
        let mut b = a.clone();
        f(&mut b[1]);
        perf::compare::compare(&a, &b)
    };
    assert!(changed(|r| r.seed = 2).is_err());
    assert!(changed(|r| r.sizing.cells = 12).is_err());
    assert!(changed(|r| r.deps = "stubs".to_string()).is_err());
    assert!(changed(|r| r.git_rev = "other".to_string()).is_ok());
}

/// Digests, `pmt_gpu_j` and every metric travel through JSON (result files,
/// served reports), so whichever codec is linked — crates.io's or the
/// stand-in under `stubs/` — must hand an `f64` back bit for bit.
#[test]
fn floats_survive_json_bit_for_bit() {
    let mut rng = perf::workloads::SplitMix(11);
    let mut values = vec![
        0.1,
        1.0 / 3.0,
        -0.0,
        5e-324,
        1e-310,
        f64::MIN_POSITIVE,
        f64::MAX,
        123_456_789.123_456_79,
    ];
    values.extend(
        std::iter::repeat_with(|| f64::from_bits(rng.next_u64()))
            .filter(|v| v.is_finite())
            .take(2000),
    );
    let text = serde_json::to_string(&values).unwrap();
    let back: Vec<f64> = serde_json::from_str(&text).unwrap();
    assert_eq!(back.len(), values.len());
    for (a, b) in values.iter().zip(&back) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a:e} came back as {b:e}");
    }
}
