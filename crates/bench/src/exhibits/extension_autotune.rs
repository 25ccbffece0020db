//! Extension — online per-kernel frequency tuning.
//!
//! The paper's ManDyn needs an offline KernelTuner pass (§III-C) before the
//! production run. `ManDynOnline` folds that pass into the run itself: a
//! coarse-then-refine search over the whole ladder with convergence
//! pinning. This bench shows the convergence: warm-up costs a little, the
//! steady state matches offline ManDyn.

use super::{Args, Exhibit};
use crate::{minihpc_spec, paper_450cubed, print_rows, to_json, DEFAULT_STEPS};
use archsim::GpuSpec;
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

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "extension_autotune",
    title: "EXTENSION: online auto-tuning",
    caption: "ManDynOnline (no offline pass) vs offline-tuned ManDyn vs baseline, by run length.",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let gpu = GpuSpec::a100_pcie_40gb();
    let mandyn_table = paper_mandyn_table(&gpu);
    let n = paper_450cubed();

    let mut data = Vec::new();
    // Short runs amortize the warm-up poorly; long runs converge to ManDyn.
    for steps in [6usize, 12, 24, 48] {
        if steps > args.steps * 6 {
            continue; // a small --steps caps the sweep cost (the default 8 keeps all four)
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

    print_rows(
        &["Steps", "Policy", "Time", "GPU energy", "EDP"],
        &data,
        |r| {
            vec![
                r.steps.to_string(),
                r.policy.clone(),
                format!("{:.4}", r.time_norm),
                format!("{:.4}", r.energy_norm),
                format!("{:.4}", r.edp_norm),
            ]
        },
    );

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
    to_json(&data)
}
