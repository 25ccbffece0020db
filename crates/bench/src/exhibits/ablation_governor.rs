//! Ablation — launch-boost governor vs utilization-only governor.
//!
//! §IV-E blames DVFS's energy anomaly on blind launch boosts: "each kernel
//! launch boosts the GPU frequency since the kernel does not yet have any
//! information on how much utilization is achieved". This ablation runs the
//! same kernel sequence under (a) the default boost-on-launch governor and
//! (b) a governor that targets only the utilization-feedback clock, and
//! under (c) pinned baseline clocks, showing where the extra energy goes.

use super::{drive_kernel_sequence, Args, Exhibit};
use crate::{print_rows, to_json, DEFAULT_STEPS};
use archsim::{DvfsParams, GpuDevice, GpuSpec, MegaHertz};
use serde::Serialize;
use sph::FuncId;

#[derive(Serialize)]
struct Row {
    governor: String,
    time_s: f64,
    energy_j: f64,
    avg_light_kernel_mhz: f64,
    transitions: u64,
}

fn simulate(label: &str, setup: impl FnOnce(&mut GpuDevice), steps: usize) -> Row {
    let mut dev = GpuDevice::new(0, GpuSpec::a100_pcie_40gb());
    setup(&mut dev);
    let mut light_freq_weight = 0.0;
    let mut light_time = 0.0;
    drive_kernel_sequence(&mut dev, steps, |func, exec| {
        if func == FuncId::DomainDecompAndSync {
            let d = exec.duration().as_secs_f64();
            light_freq_weight += f64::from(exec.avg_freq.0) * d;
            light_time += d;
        }
    });
    Row {
        governor: label.to_string(),
        time_s: dev.now().as_secs_f64(),
        energy_j: dev.total_energy().0,
        avg_light_kernel_mhz: light_freq_weight / light_time,
        transitions: dev.transitions(),
    }
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "ablation_governor",
    title: "ABLATION: DVFS governor launch boost",
    caption:
        "Boost-on-launch vs utilization-only governor vs pinned baseline, same kernel sequence.",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let steps = args.steps.max(3);

    let boost = simulate(
        "dvfs boost-on-launch (default)",
        |d| d.set_dvfs_params(DvfsParams::default()),
        steps,
    );
    let util_only = simulate(
        "dvfs utilization-only",
        |d| {
            d.set_dvfs_params(DvfsParams {
                // No blind boost: launches target the feedback clock only.
                launch_boost_fraction: 0.0,
                ..DvfsParams::default()
            })
        },
        steps,
    );
    let pinned = simulate(
        "pinned 1410 MHz",
        |d| {
            d.set_application_clocks(MegaHertz(1410))
                .expect("supported")
        },
        steps,
    );

    let data = vec![boost, util_only, pinned];
    print_rows(
        &[
            "Governor",
            "Time [s]",
            "Energy [J]",
            "DomainDecomp avg MHz",
            "Clock transitions",
        ],
        &data,
        |r| {
            vec![
                r.governor.clone(),
                format!("{:.3}", r.time_s),
                format!("{:.1}", r.energy_j),
                format!("{:.0}", r.avg_light_kernel_mhz),
                r.transitions.to_string(),
            ]
        },
    );

    println!(
        "\nLaunch boost holds the lightweight-kernel stream at {:.0} MHz (paper: ~1200) where",
        data[0].avg_light_kernel_mhz
    );
    println!(
        "utilization feedback alone would settle near {:.0} MHz — costing {:.1} J extra over",
        data[1].avg_light_kernel_mhz,
        data[0].energy_j - data[1].energy_j
    );
    println!(
        "{} steps. This is the §IV-E mechanism behind DVFS losing to pinned clocks on energy.",
        steps
    );
    to_json(&data)
}
