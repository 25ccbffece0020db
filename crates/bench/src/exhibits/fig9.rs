//! Fig. 9 — device frequencies set by DVFS on a single A100 during Subsonic
//! Turbulence execution (450³ particles) for 10 time-steps.

use super::{Args, Exhibit};
use crate::{minihpc_spec, paper_450cubed, print_table, to_json};
use freqscale::{run_experiment, FreqPolicy};
use serde::Serialize;

#[derive(Serialize)]
struct TraceData {
    /// `(seconds, MHz)` samples at 10 ms.
    trace: Vec<(f64, u32)>,
    /// Per-function average clock under the governor.
    per_function_mhz: Vec<(String, f64)>,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "fig9",
    title: "FIG. 9",
    caption: "DVFS-chosen device clock during 10 time-steps (450^3, 1 x A100), sampled at 10 ms.",
    // Fig. 9 is defined as a 10-step trace.
    default_steps: 10,
    run,
};

fn run(args: &Args) -> String {
    let mut spec = minihpc_spec(FreqPolicy::Dvfs, args.steps, paper_450cubed());
    spec.collect_trace = true;
    let r = run_experiment(&spec);
    let rank = &r.per_rank[0];

    // Print the series, decimated to keep the console readable.
    let trace = &rank.freq_trace;
    let stride = (trace.len() / 120).max(1);
    println!("\n  t [s]    clock [MHz]");
    for (t, f) in trace.iter().step_by(stride) {
        let bar_len = ((f64::from(*f) - 600.0) / 10.0).max(0.0) as usize;
        println!("{t:8.3}  {f:>5}  {}", "#".repeat(bar_len.min(85)));
    }

    let agg = r.functions_all_ranks();
    let mut rows: Vec<Vec<String>> = agg
        .iter()
        .map(|(name, f)| vec![name.clone(), format!("{:.0} MHz", f.avg_freq_mhz)])
        .collect();
    rows.sort_by(|a, b| b[1].cmp(&a[1]));
    println!("\nAverage governor clock per function:");
    print_table(&["Function", "Avg clock"], &rows);

    let max_seen = trace.iter().map(|(_, f)| *f).max().unwrap_or(0);
    let min_seen = trace.iter().map(|(_, f)| *f).min().unwrap_or(0);
    let me = agg["MomentumEnergy"].avg_freq_mhz;
    let dd = agg["DomainDecompAndSync"].avg_freq_mhz;
    println!("\nShape check (paper §IV-E):");
    println!("  peak clock {max_seen} MHz (paper: climbs to 1410 for MomentumEnergy),");
    println!("  MomentumEnergy avg {me:.0} MHz vs DomainDecompAndSync avg {dd:.0} MHz (paper: ~1200 there),");
    println!(
        "  end-of-step communication dips to {min_seen} MHz (paper: below 1000 in some cases)."
    );

    let data = TraceData {
        trace: trace.clone(),
        per_function_mhz: agg
            .iter()
            .map(|(k, f)| (k.clone(), f.avg_freq_mhz))
            .collect(),
    };
    to_json(&data)
}
