//! Fig. 4 — breakdown of energy consumption by device, Subsonic Turbulence
//! (150 M/GPU) and Evrard Collapse (80 M/GPU) on LUMI-G and CSCS-A100,
//! 32 MPI ranks each.

use super::{paper_cases, Args, Exhibit};
use crate::{print_rows, to_json, DEFAULT_STEPS};
use freqscale::run_experiment;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    case: String,
    gpu_pct: f64,
    cpu_pct: f64,
    mem_pct: Option<f64>,
    other_pct: f64,
    total_j: f64,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "fig4",
    title: "FIG. 4",
    caption: "Device-level energy shares over the time-stepping loop, 32 ranks. \
         CSCS-A100 folds memory into Other (no separate blade counter).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let mut data = Vec::new();
    for (name, spec) in paper_cases(args.steps) {
        let totals = run_experiment(&spec).device_totals();
        // Only LUMI-G's blades count memory energy on its own.
        let (gpu, cpu, mem, other) = if spec.system.name == "LUMI-G" {
            let (g, c, m, o) = totals.shares();
            (g, c, Some(m), o)
        } else {
            let (g, c, o) = totals.shares_mem_in_other();
            (g, c, None, o)
        };
        data.push(Row {
            case: name.to_string(),
            gpu_pct: gpu * 100.0,
            cpu_pct: cpu * 100.0,
            mem_pct: mem.map(|m| m * 100.0),
            other_pct: other * 100.0,
            total_j: totals.total_j(),
        });
    }

    print_rows(
        &["Case", "GPU", "CPU", "Memory", "Other", "Total [J]"],
        &data,
        |r| {
            vec![
                r.case.clone(),
                format!("{:.1}%", r.gpu_pct),
                format!("{:.1}%", r.cpu_pct),
                r.mem_pct
                    .map_or("(in Other)".into(), |m| format!("{:.1}%", m)),
                format!("{:.1}%", r.other_pct),
                format!("{:.0}", r.total_j),
            ]
        },
    );

    println!("\nShape check (paper): GPU share ~74.3% on LUMI-G, ~76.4% on CSCS-A100;");
    println!("Other is the second-largest consumer; totals 24.4/15.2/12.5/10.7 MJ at full scale.");
    to_json(&data)
}
