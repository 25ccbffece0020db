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
    // `max_explore_launches: 0` parses; the tuner's own refusal is the
    // spec error, not an `.expect` inside a rank thread.
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(
        freqscale::FreqPolicy::ManDynOnline(online::OnlineTunerConfig {
            max_explore_launches: 0,
        }),
        1,
    );
    let path = write_spec("bad-tuner", &spec);
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "max_explore_launches must be >= 1");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn retired_or_misspelled_tuner_key_is_a_parse_error() {
    // The search's other knobs are constants now: a spec that still sets
    // one, or misspells the one key left, is refused by name instead of
    // running with the default.
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(
        freqscale::FreqPolicy::ManDynOnline(Default::default()),
        1,
    );
    for key in ["coarse_step", "max_explore_launch"] {
        let body = serde_json::to_string(&spec)
            .unwrap()
            .replace(r#""max_explore_launches":64"#, &format!(r#""{key}":6"#));
        assert!(body.contains(key), "replacement must hit: {body}");
        let path = std::env::temp_dir().join(format!(
            "freqscale-tuner-key-{key}-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, body).unwrap();
        let out = run(&[path.to_str().unwrap()]);
        assert_clean_failure(&out, "parsing spec");
        assert_clean_failure(&out, &format!("unknown field `{key}`"));
        assert_clean_failure(&out, "max_explore_launches");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn uncreatable_table_store_and_report_dir_are_spec_errors() {
    // Both directories sit under a regular file. The table store used to
    // panic at the start of the run, the report directory only after the
    // whole run (exit 101 each).
    let file = std::env::temp_dir().join(format!("freqscale-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, b"").unwrap();
    let under = file.join("sub");
    for field in ["table_store", "report_dir"] {
        let mut spec = freqscale::ExperimentSpec::minihpc_turbulence(
            freqscale::FreqPolicy::ManDynOnline(Default::default()),
            1,
        );
        match field {
            "table_store" => spec.table_store = Some(under.clone()),
            _ => spec.report_dir = Some(under.clone()),
        }
        let path = write_spec(&format!("bad-{field}"), &spec);
        let out = run(&[path.to_str().unwrap()]);
        assert_clean_failure(&out, &format!("{field} {}: ", under.display()));
        assert!(
            !stderr(&out).contains("running "),
            "refused before the run starts:\n{}",
            stderr(&out)
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&file);
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
fn zero_steps_is_a_spec_error() {
    // `"steps": 0` used to run and write an empty report (t = 0 s, GPU 0 J)
    // that still charged the setup's energy to Slurm.
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 0);
    let path = write_spec("zero-steps", &spec);
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "steps must be at least 1");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn off_ladder_default_clock_on_a_locked_node_is_a_spec_error() {
    // A locked node pins its default clock when its devices are built,
    // after the physics stage: 1411 MHz used to abort there (exit 101).
    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    spec.system.node.user_clock_control = false;
    spec.system.node.default_gpu_freq = archsim::MegaHertz(1411);
    let path = write_spec("default-off-ladder", &spec);
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "default_gpu_freq 1411 MHz is not on the");
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
fn off_ladder_slurm_gpu_freq_is_a_spec_error() {
    // 1001 MHz falls between two A100 rungs; it used to trip the runner's
    // privileged clock set (exit 101).
    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    spec.slurm_gpu_freq = Some(archsim::MegaHertz(1001));
    let path = write_spec("gpu-freq-off-ladder", &spec);
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "slurm_gpu_freq 1001 MHz is not on the");
    assert_clean_failure(&out, "(210 MHz..=1410 MHz in 15 MHz steps)");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unsplittable_power_cap_is_a_spec_error() {
    // A budget below what the ladder floor draws used to trip the runner's
    // power-cap allocation (exit 101).
    for watts in [0.0, -1.0] {
        let mut spec =
            freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
        spec.power_cap_w = Some(watts);
        let path = write_spec("power-cap-unsplittable", &spec);
        let out = run(&[path.to_str().unwrap()]);
        assert_clean_failure(&out, &format!("power_cap_w: power budget {watts:.1} W"));
        assert_clean_failure(&out, "infeasible: floor demand is");
        let _ = std::fs::remove_file(&path);
    }
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
fn retired_kernel_name_is_a_parse_error() {
    // `CubicSpline` is the one smoothing kernel: a spec naming one of the
    // retired kernels is refused at load instead of running. The name is
    // spelled in two halves so a tree-wide search for it stays empty.
    let retired = ["Sin", "c5"].concat();
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1);
    let body = serde_json::to_string(&spec).unwrap().replace(
        r#""kernel":"CubicSpline""#,
        &format!(r#""kernel":"{retired}""#),
    );
    assert!(body.contains(&retired), "replacement must hit: {body}");
    let path = write_spec("retired-kernel", &spec);
    std::fs::write(&path, body).unwrap();
    let out = run(&[path.to_str().unwrap()]);
    assert_clean_failure(&out, "parsing spec");
    assert_clean_failure(&out, &format!("unknown variant `{retired}`"));
    // serde names the accepted variant; the offline serde stand-in
    // (`crates/perf/stubs`) names the enum instead.
    let err = stderr(&out);
    assert!(
        err.contains("`CubicSpline`") || err.contains("enum Kernel"),
        "the diagnostic must say what `kernel` accepts:\n{err}"
    );
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
fn checkpoint_dir_with_several_specs_fails_cleanly() {
    // Two specs would overwrite each other's checkpoints in the one
    // directory; the run is refused before anything is written.
    let spec = freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 2);
    let a = write_spec("ckpt-two-a", &spec);
    let b = write_spec(
        "ckpt-two-b",
        &freqscale::ExperimentSpec {
            target_neighbors: 32,
            ..spec
        },
    );
    let ckpt = std::env::temp_dir().join(format!("freqscale-ckpt-two-{}", std::process::id()));
    let report = ckpt.with_extension("json");
    let out = run(&[
        "--jobs",
        "2",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert_clean_failure(&out, "--checkpoint-dir takes exactly one spec (got 2)");
    assert!(!ckpt.exists() && !report.exists(), "nothing may be written");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn two_specs_naming_one_checkpoint_dir_fail_cleanly() {
    // Under --jobs the two physics stages would write the same blobs at
    // once; the batch is refused before either steps.
    let ckpt = std::env::temp_dir().join(format!("freqscale-ckpt-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let spec = freqscale::ExperimentSpec {
        checkpoint_dir: Some(ckpt.clone()),
        checkpoint_every: 1,
        ..freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 1)
    };
    let a = write_spec("ckpt-shared-a", &spec);
    let b = write_spec(
        "ckpt-shared-b",
        &freqscale::ExperimentSpec { steps: 2, ..spec },
    );
    let report = ckpt.with_extension("json");
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let out = run(&["--jobs", "2", "--out", report.to_str().unwrap(), a, b]);
    assert_clean_failure(
        &out,
        &format!("specs {a} and {b} both checkpoint to {}", ckpt.display()),
    );
    assert!(!report.exists(), "nothing may run");
    assert!(
        std::fs::read_dir(&ckpt).unwrap().next().is_none(),
        "no checkpoint may be written"
    );
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
    let _ = std::fs::remove_dir_all(&ckpt);
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
fn restore_from_a_manifest_with_malformed_splits_is_refused() {
    // Every rank adopts the manifest's splits, and `Assignment::from_splits`
    // asserts their rule inside a rank thread: discovery refuses them first.
    let tmp = std::env::temp_dir().join(format!("freqscale-ckpt-splits-{}", std::process::id()));
    let ckpt = tmp.join("checkpoints");
    std::fs::create_dir_all(&tmp).unwrap();
    let mut spec =
        freqscale::ExperimentSpec::minihpc_turbulence(freqscale::FreqPolicy::Baseline, 2);
    spec.ranks = 2;
    let path = write_spec("ckpt-splits", &spec);
    let path = path.to_str().unwrap();
    let out = run(&[
        path,
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr(&out));

    let step = freqscale::latest_checkpoint(&ckpt).expect("a committed checkpoint");
    let mut manifest = freqscale::load_manifest(&step).unwrap();
    let end = cornerstone::KEY_END;
    assert_eq!(manifest.splits.as_ref().map(Vec::len), Some(3));
    manifest.splits = Some(vec![0, end, end / 2]);
    let body = serde_json::to_string_pretty(&manifest).unwrap();
    std::fs::write(step.join("manifest.json"), body).unwrap();
    let out = run(&[path, "--restore", ckpt.to_str().unwrap()]);
    assert_clean_failure(&out, "splits must run from 0 to KEY_END");

    let _ = std::fs::remove_file(path);
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

#[test]
fn unrunnable_embedded_system_is_a_spec_error() {
    // One-field edits of a checked-in spec that parse but used to divide by
    // zero in the node model or fail the first clock set (exit 101), and a
    // paper-scale target that ran to a meaningless report.
    let spec: freqscale::ExperimentSpec = serde_json::from_str(
        &std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/minihpc_baseline.json"
        ))
        .unwrap(),
    )
    .unwrap();
    let body = serde_json::to_string(&spec).unwrap();
    let cases = [
        (
            "gpu_devices must be at least 1",
            r#""gpu_devices":2,"#,
            r#""gpu_devices":0,"#,
        ),
        (
            "gcds_per_card must be at least 1",
            r#""gcds_per_card":1,"#,
            r#""gcds_per_card":0,"#,
        ),
        (
            "clock_table: clock step must be positive",
            r#""step":15}"#,
            r#""step":0}"#,
        ),
        (
            "clock_table: clock table max",
            r#""min":210,"max""#,
            r#""min":1500,"max""#,
        ),
        ("mem_clock_table must list", "[1593,1215,810]", "[]"),
        ("target_particles_per_rank must be", "91125000.0", "-1.0"),
    ];
    for (i, (needle, from, to)) in cases.into_iter().enumerate() {
        assert_eq!(
            body.matches(from).count(),
            1,
            "{from:?} must hit once: {body}"
        );
        let path =
            std::env::temp_dir().join(format!("freqscale-system-{i}-{}.json", std::process::id()));
        std::fs::write(&path, body.replace(from, to)).unwrap();
        let out = run(&[path.to_str().unwrap()]);
        assert_clean_failure(&out, needle);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn report_cli_fails_cleanly_on_input_it_cannot_use() {
    let report = |args: &[&str]| {
        let exe = env!("CARGO_BIN_EXE_freqscale-report");
        Command::new(exe).args(args).output().expect("spawn")
    };
    let bad = std::env::temp_dir().join(format!("freqscale-report-{}.json", std::process::id()));
    std::fs::write(&bad, "{").unwrap();
    let bad = bad.to_str().unwrap();
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/minihpc_baseline.json"
    );
    let missing = "/nonexistent/report.json";
    for (args, needle) in [
        (vec![missing], format!("reading {missing}")),
        (vec![bad], format!("parsing {bad}")),
        (vec![spec], format!("parsing {spec}")),
        (vec!["--compare", spec, missing], format!("parsing {spec}")),
        (vec!["--compare", bad, spec], format!("parsing {bad}")),
    ] {
        assert_clean_failure(&report(&args), &needle);
    }
    for help in ["--help", "-h"] {
        let out = report(&[help]);
        assert_eq!(out.status.code(), Some(2), "{help}");
        assert!(stderr(&out).contains("usage:"), "{help}");
    }
    let _ = std::fs::remove_file(bad);
}
