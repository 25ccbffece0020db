//! Ablation — roofline execution model vs naive `1/f` scaling.
//!
//! DESIGN.md calls out the roofline model (`t(f) = t_mem + t_comp·f_max/f`)
//! as the load-bearing modeling choice: only the compute share responds to
//! the core clock. This ablation shows what the naive model (everything
//! scales with `f`) would predict instead — it erases the compute-bound vs
//! memory-bound distinction that Figs. 2 and 8 (and the whole ManDyn idea)
//! rest on.

use super::{Args, Exhibit};
use crate::{paper_450cubed, print_rows, to_json, DEFAULT_STEPS};
use archsim::{ExecModelKind, GpuDevice, GpuSpec, MegaHertz, NaiveInverseModel, RooflineModel};
use serde::Serialize;
use sph::FuncId;

#[derive(Serialize)]
struct Row {
    function: String,
    roofline_slowdown: f64,
    naive_slowdown: f64,
    roofline_energy: f64,
    naive_energy: f64,
}

fn measure(model: ExecModelKind, func: FuncId, n: f64, f: MegaHertz) -> (f64, f64) {
    let mut dev = GpuDevice::new(0, GpuSpec::a100_pcie_40gb());
    dev.set_exec_model(model);
    dev.set_application_clocks(f).expect("supported clock");
    let exec = dev.run_region(&func.workload(n));
    (exec.duration().as_secs_f64(), exec.energy.0)
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "ablation_exec_model",
    title: "ABLATION: execution model",
    caption:
        "Per-kernel slowdown and energy at 1005 vs 1410 MHz under roofline vs naive 1/f scaling.",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(_args: &Args) -> String {
    let n = paper_450cubed();
    let roof = ExecModelKind::Roofline(RooflineModel::default());
    let naive = ExecModelKind::Naive(NaiveInverseModel);

    let mut data = Vec::new();
    for func in FuncId::ALL {
        let (rt_hi, re_hi) = measure(roof, func, n, MegaHertz(1410));
        let (rt_lo, re_lo) = measure(roof, func, n, MegaHertz(1005));
        let (nt_hi, ne_hi) = measure(naive, func, n, MegaHertz(1410));
        let (nt_lo, ne_lo) = measure(naive, func, n, MegaHertz(1005));
        data.push(Row {
            function: func.name().to_string(),
            roofline_slowdown: rt_lo / rt_hi,
            naive_slowdown: nt_lo / nt_hi,
            roofline_energy: re_lo / re_hi,
            naive_energy: ne_lo / ne_hi,
        });
    }

    print_rows(
        &[
            "Function",
            "t@1005 roofline",
            "t@1005 naive",
            "E@1005 roofline",
            "E@1005 naive",
        ],
        &data,
        |r| {
            vec![
                r.function.clone(),
                format!("{:.3}", r.roofline_slowdown),
                format!("{:.3}", r.naive_slowdown),
                format!("{:.3}", r.roofline_energy),
                format!("{:.3}", r.naive_energy),
            ]
        },
    );

    let spread = |rows: &[Row], f: fn(&Row) -> f64| {
        let vals: Vec<f64> = rows.iter().map(f).collect();
        vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - vals.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    println!(
        "\nSlowdown spread across kernels: roofline {:.3} vs naive {:.3} —",
        spread(&data, |r| r.roofline_slowdown),
        spread(&data, |r| r.naive_slowdown)
    );
    println!("the naive model predicts (almost) identical slowdown everywhere, so per-kernel");
    println!("frequency selection (Fig. 2) would find nothing to exploit.");
    to_json(&data)
}
