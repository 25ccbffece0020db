//! Zoo exhibit — per-kernel EDP-optimal frequency ("sweet spot") across the
//! device zoo, per scenario.
//!
//! The paper tunes one workload on one device (A100, Fig. 2). The zoo
//! generalizes both axes: every scenario carries its own compute-vs-memory
//! kernel mix ([`sph::WorkloadProfile`]) and every device template its own
//! envelope, so the tuned table — and the normalized sweet spot — must
//! differ per device for the same scenario. This exhibit reproduces the
//! paper's A100-vs-MI250X contrast and panics if the contrast is
//! vacuous (identical sweet spots on ≥2 device classes would mean the zoo
//! axes are not actually exercising the model).
//!
//! ```sh
//! cargo run --release -p bench --bin exhibit -- sweetspot --json zoo-sweetspots.json
//! cargo run --release -p bench --bin exhibit -- sweetspot --check   # 1 scenario, 2 devices
//! ```

use super::{Args, Exhibit};
use crate::{paper_450cubed, print_rows, to_json, DEFAULT_STEPS};
use archsim::{DeviceTemplate, GpuSpec, MegaHertz, BUILTIN_DEVICES};
use serde::Serialize;
use sph::{FuncId, WorkloadProfile};
use tuner::{tune_kernel, Objective, ParamSpace, TuneOptions};

#[derive(Serialize)]
struct Cell {
    device: String,
    scenario: String,
    sweep_mhz: (u32, u32),
    /// Per-kernel best-EDP frequency, in `FuncId::ALL` order.
    per_kernel_mhz: Vec<(String, u32)>,
    /// Mean of `best / max` across kernels: the device's normalized sweet
    /// spot for this scenario (1.0 = everything tunes to the ceiling).
    mean_normalized: f64,
}

#[derive(Serialize)]
struct Contrast {
    scenario: String,
    device_a: String,
    device_b: String,
    mean_normalized_a: f64,
    mean_normalized_b: f64,
    /// Kernels whose *normalized* sweet spot differs between the devices.
    kernels_differing: usize,
}

#[derive(Serialize)]
struct SweetSpots {
    problem_size: f64,
    cells: Vec<Cell>,
    /// Pairwise same-scenario contrasts against the first device.
    contrasts: Vec<Contrast>,
}

/// The paper sweeps ~71-100 % of the max clock (1005-1410 on the A100);
/// apply the same fraction to any ladder, snapped onto it.
fn sweep_floor(gpu: &GpuSpec) -> MegaHertz {
    let max = gpu.clock_table.max().0;
    let step = gpu.clock_table.step();
    let target = (0.71 * max as f64) as u32;
    let lo = max - (max - target) / step * step;
    MegaHertz(lo.max(gpu.clock_table.min().0))
}

fn tune_cell(
    gpu: &GpuSpec,
    scenario: &str,
    n: f64,
    iterations: u32,
    include_gravity: bool,
) -> Cell {
    let lo = sweep_floor(gpu);
    let hi = gpu.clock_table.max();
    let mut space = ParamSpace::new();
    space.add_frequency_range(lo, hi, gpu.clock_table.step());
    let ic_name = freqscale::workload_for(scenario)
        .expect("registry scenario")
        .name();
    let profile = WorkloadProfile::for_scenario(ic_name);
    let mut per_kernel = Vec::new();
    let mut norm_sum = 0.0;
    for func in FuncId::ALL {
        if func == FuncId::Gravity && !include_gravity {
            continue;
        }
        let result = tune_kernel(
            func.name(),
            |_params, n| profile.workload(func, n),
            n,
            &space,
            gpu,
            TuneOptions {
                objective: Objective::Edp,
                iterations,
            },
        );
        let best = result.best_frequency().expect("frequency axis present");
        norm_sum += best.0 as f64 / hi.0 as f64;
        per_kernel.push((func.name().to_string(), best.0));
    }
    Cell {
        device: gpu.name.clone(),
        scenario: scenario.to_string(),
        sweep_mhz: (lo.0, hi.0),
        mean_normalized: norm_sum / per_kernel.len() as f64,
        per_kernel_mhz: per_kernel,
    }
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "sweetspot",
    title: "ZOO EXHIBIT: sweet spot vs device",
    caption: "Per-kernel best-EDP frequency for every scenario x device cell; the A100-vs-MI250X contrast generalized.",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let iterations = if args.check { 1 } else { 2 };
    let devices: Vec<&str> = if args.check {
        vec!["a100-sxm4-80gb", "mi250x-gcd"]
    } else {
        BUILTIN_DEVICES.to_vec()
    };
    let scenarios: Vec<&str> = if args.check {
        vec!["sod"]
    } else {
        freqscale::SCENARIOS.to_vec()
    };
    let n = paper_450cubed();

    let mut cells = Vec::new();
    for device in &devices {
        let gpu = DeviceTemplate::builtin(device)
            .expect("builtin device")
            .to_spec()
            .expect("builtin template validates");
        for scenario in &scenarios {
            // Gravity only tunes where the scenario integrates it.
            let include_gravity = freqscale::workload_for(scenario)
                .expect("registry scenario")
                .build()
                .gravity;
            cells.push(tune_cell(&gpu, scenario, n, iterations, include_gravity));
        }
    }

    print_rows(
        &[
            "Scenario",
            "Device",
            "Sweep [MHz]",
            "Mean sweet spot (norm.)",
        ],
        &cells,
        |c| {
            vec![
                c.scenario.clone(),
                c.device.clone(),
                format!("{}-{}", c.sweep_mhz.0, c.sweep_mhz.1),
                format!("{:.3}", c.mean_normalized),
            ]
        },
    );

    // Same-scenario contrast of every device against the first (the
    // A100-class reference): the normalized per-kernel tables must differ.
    let mut contrasts = Vec::new();
    for (s, scenario) in scenarios.iter().enumerate() {
        // `cells` is device-major.
        let of = |device_idx: usize| &cells[device_idx * scenarios.len() + s];
        let a = of(0);
        for k in 1..devices.len() {
            let b = of(k);
            let differing = a
                .per_kernel_mhz
                .iter()
                .zip(&b.per_kernel_mhz)
                .filter(|((_, fa), (_, fb))| {
                    (*fa as f64 / a.sweep_mhz.1 as f64 - *fb as f64 / b.sweep_mhz.1 as f64).abs()
                        > 1e-9
                })
                .count();
            contrasts.push(Contrast {
                scenario: scenario.to_string(),
                device_a: a.device.clone(),
                device_b: b.device.clone(),
                mean_normalized_a: a.mean_normalized,
                mean_normalized_b: b.mean_normalized,
                kernels_differing: differing,
            });
        }
    }
    println!();
    for c in &contrasts {
        println!(
            "{}: {} tunes to {:.3} of max vs {} at {:.3} ({} kernel(s) differ)",
            c.scenario,
            c.device_a,
            c.mean_normalized_a,
            c.device_b,
            c.mean_normalized_b,
            c.kernels_differing
        );
    }
    // The acceptance bar: at least two device classes disagree on the
    // EDP-optimal frequency for the same scenario.
    let distinct = contrasts.iter().any(|c| {
        c.kernels_differing > 0 || (c.mean_normalized_a - c.mean_normalized_b).abs() > 1e-9
    });
    assert!(
        distinct,
        "every device class produced the identical normalized sweet spot"
    );

    to_json(&SweetSpots {
        problem_size: n,
        cells,
        contrasts,
    })
}
