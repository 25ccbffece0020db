//! Fig. 3 — validation of PMT-measured energy against Slurm-reported energy,
//! Subsonic Turbulence at 150 M particles per GPU, 8–48 GPU cards
//! (CSCS-A100) and 16–96 GCDs (LUMI-G), normalized to the largest run.

use super::{rank_sweep, Args, Exhibit};
use crate::{n_side_for_ranks, print_rows, production_spec, to_json, DEFAULT_STEPS};
use freqscale::{run_experiment, WorkloadKind};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    system: String,
    gpus: usize,
    pmt_j: f64,
    slurm_j: f64,
    pmt_norm: f64,
    slurm_norm: f64,
}

fn sweep(system: archsim::SystemSpec, counts: &[usize], steps: usize) -> Vec<Row> {
    let mut raw = Vec::new();
    for &ranks in counts {
        let spec = production_spec(
            system.clone(),
            ranks,
            WorkloadKind::Turbulence {
                n_side: n_side_for_ranks(ranks),
                mach: 0.3,
                seed: 7,
            },
            steps,
            150e6,
        );
        let r = run_experiment(&spec);
        raw.push((ranks, r.pmt_total_j, r.slurm_consumed_j));
    }
    let (_, pmt_ref, slurm_ref) = *raw.last().expect("non-empty sweep");
    raw.into_iter()
        .map(|(gpus, pmt_j, slurm_j)| Row {
            system: system.name.clone(),
            gpus,
            pmt_j,
            slurm_j,
            pmt_norm: pmt_j / pmt_ref,
            slurm_norm: slurm_j / slurm_ref,
        })
        .collect()
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "fig3",
    title: "FIG. 3",
    caption: "PMT vs Slurm energy, normalized to 48 GPUs (CSCS-A100) / 96 GCDs (LUMI-G). \
         PMT excludes setup + auxiliary; Slurm accounts the whole job.",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let mut all = Vec::new();
    for (system, counts) in [
        (archsim::cscs_a100(), &[8, 16, 24, 32, 40, 48][..]),
        (archsim::lumi_g(), &[16, 32, 48, 64, 96]),
    ] {
        all.extend(sweep(system, rank_sweep(counts, args.check), args.steps));
    }

    print_rows(
        &[
            "System",
            "GPUs",
            "PMT [J]",
            "Slurm [J]",
            "PMT norm",
            "Slurm norm",
            "Slurm-PMT gap",
        ],
        &all,
        |r| {
            vec![
                r.system.clone(),
                r.gpus.to_string(),
                format!("{:.0}", r.pmt_j),
                format!("{:.0}", r.slurm_j),
                format!("{:.3}", r.pmt_norm),
                format!("{:.3}", r.slurm_norm),
                format!("{:.1}%", (1.0 - r.pmt_j / r.slurm_j) * 100.0),
            ]
        },
    );
    println!(
        "\nShape check: normalized PMT and Slurm curves track each other per system; the absolute"
    );
    println!(
        "gap is the job-setup + auxiliary energy PMT's loop-scoped window does not see (§IV-A)."
    );
    to_json(&all)
}
