//! Table I's particle sweeps, realized as a weak-scaling run: the paper's
//! Subsonic Turbulence entries go from 0.6 to 14.7 billion particles at a
//! fixed 150 M particles per GPU — i.e. 4 to 98 GPUs doing the same per-GPU
//! work. Weak scaling holds when time-to-solution stays flat (up to the
//! log-P collective term) and energy grows linearly with GPUs.

use super::{print_host_scaling, rank_sweep, Args, Exhibit};
use crate::{n_side_for_ranks, print_rows, production_spec, to_json, DEFAULT_STEPS};
use freqscale::{run_experiment, WorkloadKind};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    total_particles_billion: f64,
    gpus: usize,
    time_s: f64,
    time_norm: f64,
    energy_per_gpu_j: f64,
    slurm_j: f64,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "weak_scaling",
    title: "WEAK SCALING (Table I parameters)",
    caption: "Subsonic Turbulence at 150 M particles/GPU on CSCS-A100, 4-96 GPUs (paper: 0.6-14.7 B total).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    // The paper's -n list maps to these GPU counts at 150 M/GPU.
    let gpu_counts = rank_sweep(&[4, 8, 16, 32, 64, 96], args.check);
    let mut data: Vec<Row> = Vec::new();
    for &gpus in gpu_counts {
        let spec = production_spec(
            archsim::cscs_a100(),
            gpus,
            WorkloadKind::Turbulence {
                n_side: n_side_for_ranks(gpus),
                mach: 0.3,
                seed: 7,
            },
            args.steps,
            150e6,
        );
        let r = run_experiment(&spec);
        let base_time = data
            .first()
            .map_or(r.time_to_solution_s, |f: &Row| f.time_s);
        data.push(Row {
            total_particles_billion: gpus as f64 * 150e6 / 1e9,
            gpus,
            time_s: r.time_to_solution_s,
            time_norm: r.time_to_solution_s / base_time,
            energy_per_gpu_j: r.pmt_gpu_j / gpus as f64,
            slurm_j: r.slurm_consumed_j,
        });
    }

    print_rows(
        &[
            "Particles",
            "GPUs",
            "Time [s]",
            "Time (norm)",
            "GPU J / GPU",
            "Slurm [J]",
        ],
        &data,
        |r| {
            vec![
                format!("{:.1} B", r.total_particles_billion),
                r.gpus.to_string(),
                format!("{:.3}", r.time_s),
                format!("{:.4}", r.time_norm),
                format!("{:.1}", r.energy_per_gpu_j),
                format!("{:.0}", r.slurm_j),
            ]
        },
    );

    let worst = data
        .iter()
        .map(|r| r.time_norm)
        .fold(f64::NEG_INFINITY, f64::max);
    let e_first = data.first().expect("rows").energy_per_gpu_j;
    let e_last = data.last().expect("rows").energy_per_gpu_j;
    println!(
        "\nWeak-scaling check: worst time inflation x{:.3} (log-P collectives only);",
        worst
    );
    println!(
        "per-GPU energy stays flat ({:.1} J -> {:.1} J), so total energy scales with the machine —",
        e_first, e_last
    );
    println!("the regime in which the paper's per-GPU percentage savings translate directly");
    println!("to megajoules at the 14.7 B-particle scale of Table I.");

    print_host_scaling("weak scaling", args.check);

    to_json(&data)
}
