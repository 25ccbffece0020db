//! Ablation — energy-measurement error vs sensor sampling period.
//!
//! PMT-style tools estimate energy by polling power counters. The paper's
//! Fig. 3 validation works because both PMT and Slurm sample fast relative
//! to the power dynamics; this ablation sweeps the sampling period on a real
//! kernel sequence and shows where polling starts to miss the spikes.

use super::{drive_kernel_sequence, Args, Exhibit};
use crate::{print_rows, to_json, DEFAULT_STEPS};
use archsim::{GpuDevice, GpuSpec, SimDuration, SimInstant};
use pmt::{backends::NvmlSensor, Pmt};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    period_ms: f64,
    sampled_j: f64,
    exact_j: f64,
    error_pct: f64,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "ablation_sampling",
    title: "ABLATION: sensor sampling period",
    caption: "Loop energy estimated by polling at various periods vs the exact integral.",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    // Run a few DVFS time-steps so the power trace has realistic structure
    // (boost ramps, idle dips, launch-overhead plateaus).
    let gpu = Arc::new(parking_lot::Mutex::new(GpuDevice::new(
        0,
        GpuSpec::a100_pcie_40gb(),
    )));
    drive_kernel_sequence(&mut gpu.lock(), args.steps.max(3), |_, _| {});
    let end = gpu.lock().now();
    let pmt = Pmt::new(Box::new(NvmlSensor::from_raw(0, Arc::clone(&gpu))));
    let exact = pmt.joules_between(SimInstant::ZERO, end).0;

    let mut data = Vec::new();
    for period_ms in [0.1f64, 1.0, 10.0, 100.0, 500.0, 2000.0] {
        let period = SimDuration::from_secs_f64(period_ms * 1e-3);
        let sampled = pmt.sampled_joules_between(SimInstant::ZERO, end, period).0;
        data.push(Row {
            period_ms,
            sampled_j: sampled,
            exact_j: exact,
            error_pct: (sampled - exact) / exact * 100.0,
        });
    }

    print_rows(
        &["Period [ms]", "Sampled [J]", "Exact [J]", "Error"],
        &data,
        |r| {
            vec![
                format!("{:.1}", r.period_ms),
                format!("{:.1}", r.sampled_j),
                format!("{:.1}", r.exact_j),
                format!("{:+.2}%", r.error_pct),
            ]
        },
    );

    println!("\nAt the 100 ms (10 Hz) period of Cray pm_counters the error stays small for");
    println!("SPH-EXA-like kernels (hundreds of ms each); multi-second polling starts to alias.");
    to_json(&data)
}
