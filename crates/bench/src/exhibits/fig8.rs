//! Fig. 8 — effect of static frequency down-scaling on (a) execution time,
//! (b) energy and (c) EDP of each SPH-EXA function, Subsonic Turbulence at
//! 450³ on one A100, normalized to 1410 MHz.

use super::{Args, Exhibit};
use crate::{minihpc_spec, paper_450cubed, print_table, to_json, DEFAULT_STEPS};
use archsim::MegaHertz;
use freqscale::{run_experiment, ExperimentResult, FreqPolicy};
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct FuncSeries {
    function: String,
    /// frequency -> (time_norm, energy_norm, edp_norm)
    by_freq: BTreeMap<u32, (f64, f64, f64)>,
}

fn per_function(r: &ExperimentResult) -> BTreeMap<String, (f64, f64)> {
    r.functions_all_ranks()
        .into_iter()
        .map(|(name, f)| (name, (f.time_s, f.gpu_j)))
        .collect()
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "fig8",
    title: "FIG. 8 (a, b, c)",
    caption: "Per-function normalized time / energy / EDP at static frequencies (450^3, 1 x A100).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let n = paper_450cubed();
    let freqs = [1320u32, 1230, 1110, 1005];

    let base = run_experiment(&minihpc_spec(FreqPolicy::Baseline, args.steps, n));
    let base_funcs = per_function(&base);

    let mut series: BTreeMap<String, FuncSeries> = base_funcs
        .keys()
        .map(|name| {
            (
                name.clone(),
                FuncSeries {
                    function: name.clone(),
                    by_freq: BTreeMap::new(),
                },
            )
        })
        .collect();

    for f in freqs {
        let r = run_experiment(&minihpc_spec(
            FreqPolicy::Static(MegaHertz(f)),
            args.steps,
            n,
        ));
        for (name, (t, e)) in per_function(&r) {
            let (bt, be) = base_funcs[&name];
            let entry = series.get_mut(&name).expect("same function set");
            entry
                .by_freq
                .insert(f, (t / bt, e / be, (t * e) / (bt * be)));
        }
    }

    for (panel, idx, label) in [
        ("(a) execution time", 0usize, "time"),
        ("(b) energy", 1, "energy"),
        ("(c) EDP", 2, "EDP"),
    ] {
        println!("\n--- Fig. 8{panel}: normalized {label} ---");
        let mut rows = Vec::new();
        for s in series.values() {
            let mut row = vec![s.function.clone()];
            for f in freqs {
                let v = s.by_freq[&f];
                let val = [v.0, v.1, v.2][idx];
                row.push(format!("{:.3}", val));
            }
            rows.push(row);
        }
        let headers: Vec<String> = std::iter::once("Function".to_string())
            .chain(freqs.iter().map(|f| format!("{f} MHz")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        print_table(&header_refs, &rows);
    }

    let me = &series["MomentumEnergy"].by_freq[&1005];
    let xm = &series["XMass"].by_freq[&1005];
    println!("\nShape check at 1005 MHz (paper):");
    println!(
        "  MomentumEnergy: time x{:.3} (paper >1.20), energy x{:.3} (paper ~0.87), EDP x{:.3} (limited benefit)",
        me.0, me.1, me.2
    );
    println!(
        "  XMass:          time x{:.3} (nearly flat), energy x{:.3}, EDP x{:.3} (paper: >=10% reduction)",
        xm.0, xm.1, xm.2
    );
    let data: Vec<&FuncSeries> = series.values().collect();
    to_json(&data)
}
