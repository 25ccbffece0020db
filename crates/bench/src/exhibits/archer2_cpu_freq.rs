//! Background experiment (§II-B): the ARCHER2 centre lowered default *CPU*
//! frequencies "to reduce power consumption with limited performance loss
//! for a variety of applications". For a GPU-resident code like SPH-EXA the
//! trade is even better: the host mostly idles, so `--cpu-freq` cuts node
//! energy at essentially zero time cost.

use super::{Args, Exhibit};
use crate::{print_rows, production_spec, to_json, DEFAULT_STEPS, PHYSICS_N_SIDE};
use freqscale::{run_experiment, WorkloadKind};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    cpu_freq_ghz: f64,
    time_norm: f64,
    cpu_energy_norm: f64,
    node_energy_norm: f64,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "archer2_cpu_freq",
    title: "BACKGROUND: ARCHER2-style CPU frequency reduction",
    caption:
        "Slurm --cpu-freq sweep on a CSCS-A100 node running GPU-resident turbulence (4 ranks).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let mk = |khz: Option<u64>| {
        let mut spec = production_spec(
            archsim::cscs_a100(),
            4,
            WorkloadKind::Turbulence {
                n_side: PHYSICS_N_SIDE,
                mach: 0.3,
                seed: 7,
            },
            args.steps,
            150e6,
        );
        spec.slurm_cpu_freq_khz = khz;
        run_experiment(&spec)
    };
    let base = mk(None); // part maximum (3.675 GHz on the EPYC 7713)

    let mut data = vec![Row {
        cpu_freq_ghz: 3.675,
        time_norm: 1.0,
        cpu_energy_norm: 1.0,
        node_energy_norm: 1.0,
    }];
    for khz in [2_600_000u64, 2_250_000, 2_000_000, 1_500_000] {
        let r = mk(Some(khz));
        let cpu_base: f64 = base.per_node.iter().map(|n| n.cpu_j).sum();
        let cpu_this: f64 = r.per_node.iter().map(|n| n.cpu_j).sum();
        data.push(Row {
            cpu_freq_ghz: khz as f64 / 1e6,
            time_norm: r.time_to_solution_s / base.time_to_solution_s,
            cpu_energy_norm: cpu_this / cpu_base,
            node_energy_norm: r.node_loop_j / base.node_loop_j,
        });
    }

    print_rows(
        &["CPU frequency", "Time", "CPU energy", "Node energy"],
        &data,
        |r| {
            vec![
                format!("{:.2} GHz", r.cpu_freq_ghz),
                format!("{:.4}", r.time_norm),
                format!("{:.4}", r.cpu_energy_norm),
                format!("{:.4}", r.node_energy_norm),
            ]
        },
    );

    let two = data
        .iter()
        .find(|r| (r.cpu_freq_ghz - 2.0).abs() < 1e-9)
        .expect("2.0 GHz row");
    println!(
        "\nAt ARCHER2's 2.0 GHz-class setting: time x{:.4}, CPU energy x{:.3}, node energy x{:.3} —",
        two.time_norm, two.cpu_energy_norm, two.node_energy_norm
    );
    println!("\"limited performance loss\" is exact here: the loop is GPU-bound, so the CPU");
    println!("down-clock is pure node-energy saving (the §II-B background, quantified).");
    to_json(&data)
}
