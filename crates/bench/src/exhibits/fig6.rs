//! Fig. 6 — effect of statically down-scaling the GPU frequency on the EDP
//! of the Subsonic Turbulence simulation at different per-GPU particle
//! counts, single A100 (miniHPC), normalized to the 1410 MHz baseline.

use super::{Args, Exhibit};
use crate::{minihpc_spec, print_table, sparkline, to_json, DEFAULT_STEPS};
use archsim::MegaHertz;
use freqscale::{run_experiment, FreqPolicy};
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    particles_label: String,
    particles: f64,
    /// `(mhz, normalized_edp)` pairs.
    edp_vs_freq: Vec<(u32, f64)>,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "fig6",
    title: "FIG. 6",
    caption:
        "Normalized EDP vs static GPU frequency for 450^3 .. 200^3 particles per GPU (1 x A100).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let freqs = [1410u32, 1350, 1305, 1245, 1200, 1155, 1110, 1050, 1005];
    let sizes = [
        ("450^3", 450u32),
        ("350^3", 350),
        ("250^3", 250),
        ("200^3", 200),
    ];

    let mut data = Vec::new();
    for (label, side) in sizes {
        let n = f64::from(side).powi(3);
        let base = run_experiment(&minihpc_spec(FreqPolicy::Baseline, args.steps, n));
        let mut series = Vec::new();
        for f in freqs {
            let r = run_experiment(&minihpc_spec(
                FreqPolicy::Static(MegaHertz(f)),
                args.steps,
                n,
            ));
            let (_t, _e, edp) = r.normalized_to(&base);
            series.push((f, edp));
        }
        data.push(Series {
            particles_label: label.to_string(),
            particles: n,
            edp_vs_freq: series,
        });
    }

    let mut rows = Vec::new();
    for (i, &f) in freqs.iter().enumerate() {
        let mut row = vec![format!("{f} MHz")];
        for s in &data {
            row.push(format!("{:.4}", s.edp_vs_freq[i].1));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("Frequency")
        .chain(data.iter().map(|s| s.particles_label.as_str()))
        .collect();
    print_table(&headers, &rows);

    println!("\nEDP vs decreasing frequency (left = 1410 MHz):");
    for srs in &data {
        let vals: Vec<f64> = srs.edp_vs_freq.iter().map(|(_, e)| *e).collect();
        println!("  {:>6}  {}", srs.particles_label, sparkline(&vals));
    }

    // The paper's observation: the smallest (under-utilized) problem gains
    // the most from down-scaling.
    let best_of = |s: &Series| {
        s.edp_vs_freq
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite EDP"))
            .copied()
            .expect("non-empty series")
    };
    let (f_big, e_big) = best_of(&data[0]);
    let (f_small, e_small) = best_of(&data[3]);
    println!(
        "\nShape check: 450^3 best = {:.3} at {f_big} MHz; 200^3 best = {:.3} at {f_small} MHz —",
        e_big, e_small
    );
    println!("the under-utilized problem drops significantly further (paper: best near 1110 MHz).");
    to_json(&data)
}
