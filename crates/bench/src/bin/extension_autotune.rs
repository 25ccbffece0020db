//! Extension — online per-kernel frequency tuning.
//!
//! The paper's ManDyn needs an offline KernelTuner pass (§III-C) before the
//! production run. `ManDynOnline` folds that pass into the run itself: a
//! coarse-then-refine search over the whole ladder with convergence
//! pinning. This bench shows the convergence: warm-up costs a little, the
//! steady state matches offline ManDyn.

use archsim::GpuSpec;
use bench::{banner, minihpc_spec, paper_450cubed, print_table, Cli};
use freqscale::{policy::paper_mandyn_table, run_experiment, FreqPolicy};
use online::OnlineTunerConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    policy: String,
    steps: usize,
    time_norm: f64,
    energy_norm: f64,
    edp_norm: f64,
}

fn main() {
    let cli = Cli::parse();
    banner(
        "EXTENSION: online auto-tuning",
        "ManDynOnline (no offline pass) vs offline-tuned ManDyn vs baseline, by run length.",
    );
    let gpu = GpuSpec::a100_pcie_40gb();
    let mandyn_table = paper_mandyn_table(&gpu);
    let n = paper_450cubed();

    let mut data = Vec::new();
    // Short runs amortize the warm-up poorly; long runs converge to ManDyn.
    for steps in [6usize, 12, 24, 48] {
        if cli.steps != bench::DEFAULT_STEPS && steps > cli.steps * 6 {
            continue; // allow --steps to cap the sweep cost
        }
        let base = run_experiment(&minihpc_spec(FreqPolicy::Baseline, steps, n));
        for policy in [
            FreqPolicy::ManDyn(mandyn_table.clone()),
            FreqPolicy::ManDynOnline(OnlineTunerConfig::default()),
        ] {
            let r = run_experiment(&minihpc_spec(policy, steps, n));
            let (t, e, edp) = r.normalized_to(&base);
            data.push(Row {
                policy: r.policy.clone(),
                steps,
                time_norm: t,
                energy_norm: e,
                edp_norm: edp,
            });
        }
    }

    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|r| {
            vec![
                r.steps.to_string(),
                r.policy.clone(),
                format!("{:.4}", r.time_norm),
                format!("{:.4}", r.energy_norm),
                format!("{:.4}", r.edp_norm),
            ]
        })
        .collect();
    print_table(&["Steps", "Policy", "Time", "GPU energy", "EDP"], &rows);

    if let (Some(m), Some(o)) = (
        data.iter().rev().find(|r| r.policy == "mandyn"),
        data.iter().rev().find(|r| r.policy == "mandyn-online"),
    ) {
        println!(
            "\nAt {} steps: ManDynOnline EDP {:.4} vs offline ManDyn {:.4}",
            o.steps, o.edp_norm, m.edp_norm
        );
        println!("— the warm-up cost amortizes away, removing the paper's offline KernelTuner");
        println!("prerequisite; each kernel is pinned once its estimate has converged.");
    }
    cli.maybe_write_json(&data);
}
