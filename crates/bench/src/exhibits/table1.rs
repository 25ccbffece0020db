//! Table I — simulation and computing system parameters.

use super::{Args, Exhibit};
use crate::{print_rows, print_table, to_json, DEFAULT_STEPS};

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "table1",
    title: "TABLE I",
    caption: "Simulation and computing system parameters (paper Table I).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(_args: &Args) -> String {
    println!("\nSimulations:");
    let sim_rows = vec![
        vec![
            "Subsonic Turbulence".to_string(),
            "-n 0.6|1.2|2.4|4.9|7.4|9.2|14.7e9 -s 100".to_string(),
            "150 M particles/GPU, 100 time-steps".to_string(),
        ],
        vec![
            "Evrard Collapse".to_string(),
            "-n 0.6|1.2|2.4|3.2|4.8|7.7e9 -s 100".to_string(),
            "80 M particles/GPU, 100 time-steps".to_string(),
        ],
    ];
    print_table(&["Simulation", "Parameters", "Info"], &sim_rows);

    println!("\nSystems:");
    let systems = archsim::all_systems();
    print_rows(
        &[
            "System",
            "CPU + memory",
            "GPUs",
            "GPU frequencies",
            "Clock control",
        ],
        &systems,
        |sys| {
            let node = &sys.node;
            vec![
                sys.name.clone(),
                format!(
                    "{}x {} ({} cores) + {} GiB",
                    node.sockets, node.cpu.name, node.cpu.cores, node.mem.capacity_gib
                ),
                format!(
                    "{}x {} ({} visible devices)",
                    node.cards(),
                    node.gpu.name,
                    node.gpu_devices
                ),
                format!(
                    "compute {} / memory {}",
                    node.default_gpu_freq, node.gpu_mem_freq
                ),
                if node.user_clock_control {
                    "user".into()
                } else {
                    "locked".into()
                },
            ]
        },
    );

    to_json(&systems)
}
