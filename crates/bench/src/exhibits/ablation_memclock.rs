//! Ablation — why the paper never touches the *memory* frequency.
//!
//! §III-D: the NVML call "enables setting both the GPU compute frequency and
//! memory frequency, though we keep the memory frequency as is for all
//! cases." This ablation quantifies the choice: HBM down-clocking cuts
//! bandwidth one-for-one, so the bandwidth-bound kernels that tolerate core
//! down-scaling are exactly the ones a memory down-clock destroys.

use super::{Args, Exhibit};
use crate::{paper_450cubed, print_rows, to_json, DEFAULT_STEPS};
use archsim::{GpuDevice, GpuSpec, MegaHertz};
use serde::Serialize;
use sph::FuncId;

#[derive(Serialize)]
struct Row {
    function: String,
    kind: &'static str,
    time_ratio: f64,
    energy_ratio: f64,
    edp_ratio: f64,
}

fn measure(func: FuncId, mem_mhz: u32, n: f64) -> (f64, f64) {
    let mut dev = GpuDevice::new(0, GpuSpec::a100_pcie_40gb());
    dev.set_application_clocks(MegaHertz(1410))
        .expect("ladder clock");
    dev.set_memory_clock(MegaHertz(mem_mhz))
        .expect("supported mem P-state");
    let exec = dev.run_region(&func.workload(n));
    (exec.duration().as_secs_f64(), exec.energy.0)
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "ablation_memclock",
    title: "ABLATION: memory-clock down-scaling",
    caption:
        "Per-kernel cost of dropping the HBM clock 1593 -> 810 MHz at a fixed 1410 MHz core clock.",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(_args: &Args) -> String {
    let n = paper_450cubed();
    let cases = [
        (FuncId::MomentumEnergy, "compute-bound"),
        (FuncId::IADVelocityDivCurl, "compute-bound"),
        (FuncId::NormalizationGradh, "bandwidth-bound"),
        (FuncId::XMass, "bandwidth-bound"),
        (FuncId::UpdateQuantities, "bandwidth-bound"),
    ];
    let mut data = Vec::new();
    for (func, kind) in cases {
        let (t_hi, e_hi) = measure(func, 1593, n);
        let (t_lo, e_lo) = measure(func, 810, n);
        data.push(Row {
            function: func.name().to_string(),
            kind,
            time_ratio: t_lo / t_hi,
            energy_ratio: e_lo / e_hi,
            edp_ratio: (t_lo * e_lo) / (t_hi * e_hi),
        });
    }

    print_rows(
        &["Function", "Kind", "Time @810", "Energy @810", "EDP @810"],
        &data,
        |r| {
            vec![
                r.function.clone(),
                r.kind.to_string(),
                format!("{:.3}", r.time_ratio),
                format!("{:.3}", r.energy_ratio),
                format!("{:.3}", r.edp_ratio),
            ]
        },
    );

    println!("\nA memory down-clock is a pure loss: time stretches with 1/bandwidth while power");
    println!("barely drops (HBM I/O is a small share), so energy *rises* and EDP doubles or");
    println!("triples — worst exactly where core down-scaling is safest (bandwidth-bound");
    println!("kernels). That asymmetry is why §III-D pins only the compute frequency.");
    to_json(&data)
}
