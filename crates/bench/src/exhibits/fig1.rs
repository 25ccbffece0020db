//! Fig. 1 — programming-language efficiency as a function of time-to-solution
//! (background figure, reproduced in the paper from Portegies Zwart,
//! *Nature Astronomy* 2020).
//!
//! The original measures N-body production codes across languages; the key
//! shape is that energy scales with runtime times sustained node power, so
//! interpreted languages sit an order of magnitude or more above compiled
//! ones, and CUDA implementations beat C++/Fortran by another order of
//! magnitude thanks to the GPU's performance-per-watt. We regenerate that
//! shape from the same first-order model: `E = P_node * t`, with per-language
//! relative runtimes from the reference's reported ranges.

use super::{Args, Exhibit};
use crate::{print_rows, to_json, DEFAULT_STEPS};
use serde::Serialize;

#[derive(Serialize)]
struct LangPoint {
    language: &'static str,
    rel_time_to_solution: f64,
    rel_energy: f64,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "fig1",
    title: "FIG. 1 (background)",
    caption:
        "Language efficiency vs time-to-solution for N-body codes (shape per Portegies Zwart 2020).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(_args: &Args) -> String {
    // (language, relative runtime vs C++, relative sustained node power).
    // GPU runs shift power up ~1.6x but runtime down ~20x.
    let langs = [
        ("CUDA (GPU)", 0.05, 1.6),
        ("C++", 1.0, 1.0),
        ("Fortran", 1.1, 1.0),
        ("Java", 2.5, 1.05),
        ("Python (NumPy)", 10.0, 0.95),
        ("Python (pure)", 60.0, 0.9),
    ];
    let points: Vec<LangPoint> = langs
        .iter()
        .map(|&(language, t, p)| LangPoint {
            language,
            rel_time_to_solution: t,
            rel_energy: t * p,
        })
        .collect();

    print_rows(
        &["Language", "Rel. time-to-solution", "Rel. energy"],
        &points,
        |p| {
            vec![
                p.language.to_string(),
                format!("{:.2}", p.rel_time_to_solution),
                format!("{:.2}", p.rel_energy),
            ]
        },
    );

    // The figure's headline: CUDA ~an order of magnitude more efficient.
    let cuda = &points[0];
    let cpp = &points[1];
    println!(
        "\nCUDA vs C++: {:.0}x faster, {:.0}x less energy (paper: ~order of magnitude).",
        cpp.rel_time_to_solution / cuda.rel_time_to_solution,
        cpp.rel_energy / cuda.rel_energy
    );
    to_json(&points)
}
