//! Fig. 5 — breakdown of energy consumption by SPH-EXA function, per device,
//! for the same four cases as Fig. 4.

use super::{paper_cases, Args, Exhibit};
use crate::{print_table, to_json, DEFAULT_STEPS};
use freqscale::run_experiment;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct CaseData {
    case: String,
    /// Function -> share of GPU energy (percent).
    gpu_shares_pct: BTreeMap<String, f64>,
    /// Function -> share of measured CPU energy (percent) — the CPU panel of
    /// Fig. 5: proportional to duration because the host idles at constant
    /// power while the GPU computes.
    cpu_shares_pct: BTreeMap<String, f64>,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "fig5",
    title: "FIG. 5",
    caption:
        "Per-function energy shares over the loop (GPU energy and CPU-proportional time), 32 ranks.",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let mut data = Vec::new();
    for (name, spec) in paper_cases(args.steps) {
        let r = run_experiment(&spec);
        let agg = r.functions_all_ranks();
        let gpu_total: f64 = agg.values().map(|f| f.gpu_j).sum();
        let cpu_total: f64 = agg.values().map(|f| f.cpu_j).sum();
        let gpu_shares_pct: BTreeMap<String, f64> = agg
            .iter()
            .map(|(k, f)| (k.clone(), 100.0 * f.gpu_j / gpu_total))
            .collect();
        let cpu_shares_pct: BTreeMap<String, f64> = agg
            .iter()
            .map(|(k, f)| (k.clone(), 100.0 * f.cpu_j / cpu_total))
            .collect();
        data.push(CaseData {
            case: name.to_string(),
            gpu_shares_pct,
            cpu_shares_pct,
        });
    }

    // One table per case: function, GPU-energy share, time (CPU) share.
    for case in &data {
        println!("\n--- {} ---", case.case);
        let mut functions: Vec<&String> = case.gpu_shares_pct.keys().collect();
        functions.sort_by(|a, b| {
            case.gpu_shares_pct[*b]
                .partial_cmp(&case.gpu_shares_pct[*a])
                .expect("finite shares")
        });
        let rows: Vec<Vec<String>> = functions
            .iter()
            .map(|f| {
                vec![
                    (*f).clone(),
                    format!("{:.1}%", case.gpu_shares_pct[*f]),
                    format!("{:.1}%", case.cpu_shares_pct[*f]),
                ]
            })
            .collect();
        print_table(&["Function", "GPU energy", "CPU energy"], &rows);
    }

    // The paper's cross-system comparison for MomentumEnergy.
    let me = "MomentumEnergy";
    let lumi = data
        .iter()
        .find(|c| c.case == "LUMI-Turb")
        .expect("case present");
    let cscs = data
        .iter()
        .find(|c| c.case == "CSCS-A100-Turb")
        .expect("case present");
    println!(
        "\nShape check: MomentumEnergy = {:.1}% of GPU energy on CSCS-A100-Turb vs {:.1}% on LUMI-Turb",
        cscs.gpu_shares_pct[me], lumi.gpu_shares_pct[me]
    );
    println!(
        "(paper: 25.29% vs 45.80% — the kernel is relatively more expensive on the AMD GCDs)."
    );
    to_json(&data)
}
