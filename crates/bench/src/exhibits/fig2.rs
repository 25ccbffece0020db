//! Fig. 2 — GPU frequencies per function optimized for the best EDP outcome
//! (Subsonic Turbulence, 450³ particles, KernelTuner sweep 1005–1410 MHz).

use super::{Args, Exhibit};
use crate::{paper_450cubed, print_table, to_json, DEFAULT_STEPS};
use archsim::{GpuSpec, MegaHertz};
use freqscale::policy::tune_table;
use serde::Serialize;
use tuner::Objective;

#[derive(Serialize)]
struct Row {
    function: String,
    best_mhz: u32,
    edp_vs_1410: f64,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "fig2",
    title: "FIG. 2",
    caption: "Per-function best-EDP GPU compute frequency (KernelTuner-style sweep, 1005-1410 MHz, 450^3 particles).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(_args: &Args) -> String {
    let gpu = GpuSpec::a100_pcie_40gb();
    let (table, detail) = tune_table(
        &gpu,
        paper_450cubed(),
        MegaHertz(1005),
        MegaHertz(1410),
        Objective::Edp,
        false, // turbulence: no gravity
    );

    let mut rows = Vec::new();
    let mut data = Vec::new();
    for (func, result) in &detail {
        let best = result.best_config();
        let at_max = result
            .configs
            .iter()
            .find(|c| c.params.frequency() == Some(MegaHertz(1410)))
            .expect("1410 in sweep");
        let rel = best.edp / at_max.edp;
        rows.push(vec![
            func.name().to_string(),
            table[func].to_string(),
            format!("{:.3}", rel),
        ]);
        data.push(Row {
            function: func.name().to_string(),
            best_mhz: table[func].0,
            edp_vs_1410: rel,
        });
    }
    print_table(&["Function", "Best frequency", "EDP vs 1410 MHz"], &rows);

    println!(
        "\nShape check: compute-bound kernels (MomentumEnergy {}, IADVelocityDivCurl {}) tune high;",
        table[&sph::FuncId::MomentumEnergy], table[&sph::FuncId::IADVelocityDivCurl]
    );
    println!(
        "bandwidth-bound kernels (XMass {}, NormalizationGradh {}) tune to the sweep floor — Fig. 2's pattern.",
        table[&sph::FuncId::XMass], table[&sph::FuncId::NormalizationGradh]
    );
    to_json(&data)
}
