//! End-to-end schema validation of `freqscale-run --trace-out`: a full
//! Evrard run under the online policy must emit well-formed Chrome-trace
//! JSON with matched B/E pairs and spans for SPH functions, GPU kernels,
//! tuner evaluations, online decisions and comm ops — plus the Prometheus
//! metrics dump and the merged power/span CSV timeline.
//!
//! The spec-error paths (unreadable / invalid spec files) are covered here
//! too, since they share the spawned-binary harness.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

use freqscale::{ExperimentSpec, FreqPolicy, WorkloadKind};
use online::OnlineTunerConfig;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_freqscale-run")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("freqscale-trace-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Minimal JSON well-formedness checker (objects/arrays/strings/numbers/
/// literals). Returns the rest of the input after one value, or panics with
/// a position; independent of any JSON library so the check is identical
/// whatever serde implementation the workspace builds against.
fn skip_ws(s: &[u8], mut i: usize) -> usize {
    while i < s.len() && matches!(s[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn parse_value(s: &[u8], i: usize) -> usize {
    let i = skip_ws(s, i);
    assert!(i < s.len(), "unexpected end of JSON at byte {i}");
    match s[i] {
        b'{' => {
            let mut i = skip_ws(s, i + 1);
            if s[i] == b'}' {
                return i + 1;
            }
            loop {
                i = parse_string(s, skip_ws(s, i));
                i = skip_ws(s, i);
                assert_eq!(s[i], b':', "expected ':' at byte {i}");
                i = parse_value(s, i + 1);
                i = skip_ws(s, i);
                match s[i] {
                    b',' => i += 1,
                    b'}' => return i + 1,
                    c => panic!("expected ',' or '}}' at byte {i}, got {}", c as char),
                }
            }
        }
        b'[' => {
            let mut i = skip_ws(s, i + 1);
            if s[i] == b']' {
                return i + 1;
            }
            loop {
                i = parse_value(s, i);
                i = skip_ws(s, i);
                match s[i] {
                    b',' => i += 1,
                    b']' => return i + 1,
                    c => panic!("expected ',' or ']' at byte {i}, got {}", c as char),
                }
            }
        }
        b'"' => parse_string(s, i),
        b't' => expect_lit(s, i, b"true"),
        b'f' => expect_lit(s, i, b"false"),
        b'n' => expect_lit(s, i, b"null"),
        _ => parse_number(s, i),
    }
}

fn parse_string(s: &[u8], i: usize) -> usize {
    assert_eq!(s[i], b'"', "expected string at byte {i}");
    let mut i = i + 1;
    while i < s.len() {
        match s[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    panic!("unterminated string");
}

fn expect_lit(s: &[u8], i: usize, lit: &[u8]) -> usize {
    assert_eq!(&s[i..i + lit.len()], lit, "bad literal at byte {i}");
    i + lit.len()
}

fn parse_number(s: &[u8], i: usize) -> usize {
    let start = i;
    let mut i = i;
    while i < s.len() && matches!(s[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        i += 1;
    }
    assert!(i > start, "expected a JSON value at byte {start}");
    i
}

fn assert_well_formed_json(text: &str) {
    let bytes = text.as_bytes();
    let end = parse_value(bytes, 0);
    assert_eq!(skip_ws(bytes, end), bytes.len(), "trailing garbage");
}

/// Pull `"key":"val"` or `"key":123` out of one event line (the exporter
/// writes one event object per line, which this test relies on).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(if let Some(stripped) = rest.strip_prefix('"') {
        &stripped[..stripped.find('"')?]
    } else {
        &rest[..rest.find([',', '}'])?]
    })
}

fn evrard_online_spec() -> ExperimentSpec {
    // 40 steps so the online tuner's coarse phase (~8 probes x 2 samples per
    // function) completes and emits `online`/`decide` instants.
    let mut spec = ExperimentSpec::minihpc_turbulence(
        FreqPolicy::ManDynOnline(OnlineTunerConfig::default()),
        40,
    );
    spec.ranks = 2;
    spec.workload = WorkloadKind::Evrard { n_side: 6 };
    spec.collect_trace = true;
    spec
}

#[test]
fn evrard_online_run_emits_valid_chrome_trace() {
    let dir = scratch("evrard");
    let spec_path = dir.join("spec.json");
    let trace_path = dir.join("trace.json");
    let metrics_path = dir.join("metrics.txt");
    let csv_path = dir.join("timeline.csv");
    let report_path = dir.join("report.json");
    std::fs::write(
        &spec_path,
        serde_json::to_string(&evrard_online_spec()).expect("spec serializes"),
    )
    .expect("write spec");

    let out = Command::new(bin())
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .arg("--timeline-csv")
        .arg(&csv_path)
        .arg("--out")
        .arg(&report_path)
        .arg(&spec_path)
        .output()
        .expect("spawn freqscale-run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run failed:\n{stderr}");

    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    assert_well_formed_json(&trace);
    assert!(
        trace.starts_with("{\"traceEvents\":["),
        "envelope: {}",
        &trace[..40]
    );

    // Structural checks over the one-event-per-line body.
    let mut depth: HashMap<(String, String), i64> = HashMap::new();
    let mut spans = 0u64;
    let mut cats: HashMap<String, u64> = HashMap::new();
    for line in trace
        .lines()
        .filter(|l| l.trim_start().starts_with('{') && l.contains("\"ph\":"))
    {
        let ph = field(line, "ph").expect("event has ph");
        if ph == "M" {
            continue;
        }
        let key = (
            field(line, "pid").expect("event has pid").to_string(),
            field(line, "tid").expect("event has tid").to_string(),
        );
        let cat = field(line, "cat").expect("event has cat").to_string();
        match ph {
            "B" => {
                spans += 1;
                *cats.entry(cat).or_insert(0) += 1;
                *depth.entry(key).or_insert(0) += 1;
            }
            "E" => {
                let d = depth.entry(key.clone()).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "E without B on track {key:?}");
            }
            "i" => {
                *cats.entry(cat).or_insert(0) += 1;
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(
        depth.values().all(|d| *d == 0),
        "unmatched B/E pairs: {depth:?}"
    );

    if telemetry::ENABLED {
        assert!(spans > 0, "enabled build must record spans");
        for want in ["sph", "gpu", "tuner", "online", "comm"] {
            assert!(
                cats.get(want).copied().unwrap_or(0) > 0,
                "no '{want}' events recorded; got {cats:?}"
            );
        }
        // SPH kernel spans carry the function names; both ranks get tracks.
        assert!(
            trace.contains("\"name\":\"MomentumEnergy\""),
            "SPH function spans"
        );
        assert!(
            trace.contains("\"name\":\"kernel\",\"cat\":\"gpu\""),
            "GPU kernel spans"
        );
        assert!(trace.contains("\"name\":\"rank-0\""), "rank 0 track");
        assert!(trace.contains("\"name\":\"rank-1\""), "rank 1 track");
        assert!(
            stderr.contains("recorder self-cost"),
            "overhead summary on stderr: {stderr}"
        );

        let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
        assert!(metrics.contains("# TYPE freqscale_instrument_calls counter"));
        assert!(metrics.contains("freqscale_call_energy_j_count"));
        assert!(metrics.contains("freqscale_telemetry_overhead_ns"));
        // The shared CSR neighbor-list build publishes its shape each step
        // (with the neighbour count `h` adapts to, and what a stored pair
        // costs), and so does the Barnes-Hut tree (this run is an Evrard
        // collapse).
        for g in [
            "freqscale_neighbors_avg",
            "freqscale_neighbors_max",
            "freqscale_neighbors_csr_bytes",
            "freqscale_neighbors_build_ms",
            "freqscale_neighbors_nn_avg",
            "freqscale_neighbors_bytes_per_pair",
            "freqscale_gravity_nodes",
            "freqscale_gravity_build_ms",
            "freqscale_gravity_walk_ms",
        ] {
            assert!(
                metrics.contains(&format!("# TYPE {g} gauge")),
                "missing step gauge {g} in metrics:\n{metrics}"
            );
        }

        let csv = std::fs::read_to_string(&csv_path).expect("csv written");
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("t_s,kind,track,cat,name,value"));
        assert!(
            csv.lines().any(|l| l.contains(",power,")),
            "power rows merged"
        );
        assert!(csv.lines().any(|l| l.contains(",span_begin,")), "span rows");
        // Rows are time-sorted.
        let ts: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap().parse().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "CSV not time-sorted");
    } else {
        // Telemetry compiled out: outputs exist and are valid, but empty.
        assert_eq!(spans, 0, "disabled build must record nothing");
        assert!(stderr.contains("without the `telemetry` feature"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_spec_file_exits_nonzero_with_path() {
    let out = Command::new(bin())
        .arg("/nonexistent/definitely-missing-spec.json")
        .output()
        .expect("spawn freqscale-run");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "clean error exit, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: reading spec /nonexistent/definitely-missing-spec.json"),
        "stderr names the spec and cause: {stderr}"
    );
}

#[test]
fn invalid_spec_file_exits_nonzero_with_path() {
    let dir = scratch("badspec");
    let spec_path = dir.join("broken.json");
    std::fs::write(&spec_path, "{ this is not json").expect("write bad spec");
    let out = Command::new(bin())
        .arg(&spec_path)
        .output()
        .expect("spawn freqscale-run");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "clean error exit, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: parsing spec") && stderr.contains("broken.json"),
        "stderr names the spec and cause: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
