//! Acceptance tests for the online ManDyn subsystem (`crates/online`):
//! in-run convergence against the offline KernelTuner table, warm-starting
//! from the table store, energy parity with offline ManDyn, and power-cap
//! enforcement in the measured trace.

use gpu_freq_scaling::archsim::{GpuSpec, MegaHertz};
use gpu_freq_scaling::freqscale::{
    compare_tables, max_deviation_mhz, run_experiment, tables_within_bin, tune_table,
    ExperimentSpec, FreqPolicy, FreqTable, WorkloadKind,
};
use gpu_freq_scaling::online::OnlineTunerConfig;
use gpu_freq_scaling::tuner::Objective;

/// One 15 MHz ladder bin — the paper's clock granularity (§III-C).
const BIN_MHZ: u32 = 15;

fn online_spec(steps: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::minihpc_turbulence(
        FreqPolicy::ManDynOnline(OnlineTunerConfig::default()),
        steps,
    );
    spec.workload = WorkloadKind::Turbulence {
        n_side: 6,
        mach: 0.3,
        seed: 9,
    };
    spec.target_neighbors = 30;
    spec
}

fn offline_table() -> FreqTable {
    // The §III-C reference: 450³ particles, best EDP, 1005–1410 MHz sweep,
    // no gravity (turbulence kernel set).
    tune_table(
        &GpuSpec::a100_pcie_40gb(),
        450.0f64.powi(3),
        MegaHertz(1005),
        MegaHertz(1410),
        Objective::Edp,
        false,
    )
    .0
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("online-tuning-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn online_table_converges_to_the_offline_table_within_one_bin() {
    let reference = offline_table();
    let r = run_experiment(&online_spec(70));
    let learned = r.per_rank[0].warm_state().table;
    assert_eq!(
        learned.len(),
        reference.len(),
        "every turbulence kernel must pin: {learned:?}"
    );
    let devs = compare_tables(&learned, &reference, MegaHertz(1410));
    assert!(
        tables_within_bin(&devs, BIN_MHZ),
        "online table must agree with the offline sweep within one bin; \
         max deviation {} MHz: {devs:?}",
        max_deviation_mhz(&devs)
    );
}

#[test]
fn warm_started_run_spends_no_exploration_launches() {
    let dir = tmpdir("warm");
    let mut cold = online_spec(70);
    cold.table_store = Some(dir.clone());
    let first = run_experiment(&cold);
    let learned = first.per_rank[0].warm_state().table;
    assert!(!learned.is_empty(), "cold run must learn a table");
    assert!(
        first.per_rank[0].exploration_launches > 0,
        "cold run must explore"
    );

    // Second run, same (GPU, workload): warm-start pins everything up front.
    let mut warm = online_spec(4);
    warm.table_store = Some(dir.clone());
    let second = run_experiment(&warm);
    assert_eq!(
        second.per_rank[0].exploration_launches, 0,
        "warm-started run must spend zero launches exploring"
    );
    assert_eq!(
        second.per_rank[0].warm_state().table,
        learned,
        "warm-started run runs the stored table"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn online_energy_saving_is_within_1p5_points_of_offline_mandyn() {
    let steps = 70;
    let mut base_spec = online_spec(steps);
    base_spec.policy = FreqPolicy::Baseline;
    let base = run_experiment(&base_spec);

    let mut mandyn_spec = online_spec(steps);
    mandyn_spec.policy = FreqPolicy::ManDyn(offline_table());
    let mandyn = run_experiment(&mandyn_spec);

    let online = run_experiment(&online_spec(steps));

    let saving =
        |r: &gpu_freq_scaling::freqscale::ExperimentResult| 1.0 - r.pmt_gpu_j / base.pmt_gpu_j;
    let offline_saving = saving(&mandyn);
    let online_saving = saving(&online);
    assert!(
        offline_saving > 0.02,
        "offline ManDyn must save GPU energy: {offline_saving}"
    );
    assert!(
        (online_saving - offline_saving).abs() <= 0.015,
        "online saving {online_saving:.4} must sit within 1.5pp of offline {offline_saving:.4}"
    );
}

#[test]
fn power_capped_run_never_exceeds_the_budget_in_the_trace() {
    let gpu = GpuSpec::a100_pcie_40gb();
    let budget_w = 0.72 * gpu.tdp().0;

    let mut spec = online_spec(12);
    spec.collect_trace = true;
    spec.power_cap_w = Some(budget_w);
    let capped = run_experiment(&spec);
    let trace = &capped.per_rank[0].power_trace;
    assert!(!trace.is_empty(), "collect_trace must record power samples");
    let peak = trace.iter().map(|(_, w)| *w).fold(0.0, f64::max);
    assert!(
        peak <= budget_w + 1e-6,
        "trace peak {peak:.1} W must stay under the {budget_w:.1} W budget"
    );

    // And the cap actually binds: uncapped, the same run draws more.
    let mut free = online_spec(12);
    free.collect_trace = true;
    let uncapped = run_experiment(&free);
    let free_peak = uncapped.per_rank[0]
        .power_trace
        .iter()
        .map(|(_, w)| *w)
        .fold(0.0, f64::max);
    assert!(
        free_peak > budget_w,
        "budget must be binding for the test to mean anything: \
         uncapped peak {free_peak:.1} W vs budget {budget_w:.1} W"
    );
}

#[test]
fn power_cap_composes_with_offline_mandyn() {
    let gpu = GpuSpec::a100_pcie_40gb();
    let budget_w = 0.75 * gpu.tdp().0;
    let mut spec = online_spec(8);
    spec.policy = FreqPolicy::ManDyn(offline_table());
    spec.collect_trace = true;
    spec.power_cap_w = Some(budget_w);
    let r = run_experiment(&spec);
    let peak = r.per_rank[0]
        .power_trace
        .iter()
        .map(|(_, w)| *w)
        .fold(0.0, f64::max);
    assert!(peak > 0.0, "trace recorded");
    assert!(
        peak <= budget_w + 1e-6,
        "ManDyn under a cap: peak {peak:.1} W vs budget {budget_w:.1} W"
    );
}
