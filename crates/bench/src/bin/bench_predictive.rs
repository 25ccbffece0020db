//! Predictive-tuner launch accounting, written as the
//! `BENCH_predictive.json` artifact checked into the repo root.
//!
//! For every instrumented kernel at the paper's 450³ tuning scale, runs the
//! exhaustive (core, memory)-clock sweep as ground truth and the
//! probe-fit-jump predictive sweep beside it, recording launches to
//! convergence, the launch savings, and the final EDP each path lands on.
//! This is the number the tentpole promises: the analytic model cuts
//! per-kernel exploration from the full product space to a handful of
//! probes plus one verification launch. Regenerate with:
//!
//! ```sh
//! cargo run --release -p bench --bin bench_predictive
//! # or to another path:
//! cargo run --release -p bench --bin bench_predictive -- --json BENCH_predictive.json
//! ```

use archsim::{GpuSpec, MegaHertz};
use bench::{banner, paper_450cubed, print_table, Cli};
use serde::Serialize;
use sph::FuncId;
use tuner::{exhaustive_core_mem_sweep, predictive_core_mem_sweep, Objective, TuneOptions};

/// Probe rungs the predictive sweep samples, matching the acceptance test.
const PROBE_RUNGS: usize = 4;
const ITERATIONS: u32 = 2;

#[derive(Serialize)]
struct Row {
    kernel: String,
    /// Exhaustive (core, mem) product-space size — its launch count.
    exhaustive_launches: usize,
    /// Probes plus the verification launch the predictive path spent.
    predictive_launches: usize,
    /// `exhaustive_launches / predictive_launches`.
    launch_savings: f64,
    /// True EDP optimum from the exhaustive sweep, J·s.
    exhaustive_best_edp: f64,
    /// Measured EDP at the model's predicted (core, mem) point, J·s.
    predictive_edp: f64,
    /// `predictive_edp / exhaustive_best_edp` — 1.0 is a perfect jump.
    edp_ratio: f64,
    /// Predicted vs true clocks, for eyeballing near-misses.
    predicted_core_mhz: u32,
    predicted_mem_mhz: u32,
    true_core_mhz: u32,
    true_mem_mhz: u32,
    /// Time-model fit quality at the probes.
    r2_time: f64,
}

#[derive(Serialize)]
struct Report {
    gpu: String,
    problem_size: f64,
    probe_rungs: usize,
    iterations: u32,
    rows: Vec<Row>,
    /// Mean launch savings across kernels.
    mean_launch_savings: f64,
    /// Worst EDP excess over the true optimum across kernels.
    worst_edp_ratio: f64,
}

fn main() {
    let cli = Cli::parse();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_path = cli
        .json
        .clone()
        .unwrap_or_else(|| "BENCH_predictive.json".to_string());
    if !cli.check {
        if let Err(msg) = bench::refuse_single_core_overwrite(
            host_threads,
            std::path::Path::new(&out_path).exists(),
            cli.force,
        ) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
    let iterations = if cli.check { 1 } else { ITERATIONS };
    banner(
        "PREDICTIVE TUNING (BENCH_predictive.json)",
        "Launches to convergence and final EDP: probe-fit-jump vs the exhaustive (core, mem) sweep.",
    );

    let gpu = GpuSpec::a100_sxm4_80gb();
    let n = paper_450cubed();
    let lo = MegaHertz(1005);
    let mut rows = Vec::new();
    for func in FuncId::ALL {
        let truth = exhaustive_core_mem_sweep(
            func.name(),
            |_p, n| func.workload(n),
            n,
            &gpu,
            lo,
            TuneOptions {
                objective: Objective::Edp,
                iterations,
            },
        );
        let pred = predictive_core_mem_sweep(
            func.name(),
            |_p, n| func.workload(n),
            n,
            &gpu,
            lo,
            PROBE_RUNGS,
            iterations,
        )
        .expect("instrumented kernels fit the analytic model");

        let best = truth.best_config();
        let true_core = best.params.frequency().expect("core axis swept").0;
        let true_mem = best
            .params
            .memory_frequency()
            .map_or(gpu.mem_clock.0, |m| m.0);
        rows.push(Row {
            kernel: func.name().to_string(),
            exhaustive_launches: truth.configs.len(),
            predictive_launches: pred.measurements,
            launch_savings: truth.configs.len() as f64 / pred.measurements as f64,
            exhaustive_best_edp: best.edp,
            predictive_edp: pred.verified.edp,
            edp_ratio: pred.verified.edp / best.edp,
            predicted_core_mhz: pred.predicted.f_core_mhz,
            predicted_mem_mhz: pred.predicted.f_mem_mhz,
            true_core_mhz: true_core,
            true_mem_mhz: true_mem,
            r2_time: pred.model.diag.r2_time,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                format!("{}", r.exhaustive_launches),
                format!("{}", r.predictive_launches),
                format!("{:.1}x", r.launch_savings),
                format!("{} @ {}", r.predicted_core_mhz, r.predicted_mem_mhz),
                format!("{} @ {}", r.true_core_mhz, r.true_mem_mhz),
                format!("{:.4}", r.edp_ratio),
            ]
        })
        .collect();
    print_table(
        &[
            "Kernel",
            "Sweep",
            "Pred.",
            "Savings",
            "Predicted MHz",
            "True MHz",
            "EDP ratio",
        ],
        &table,
    );

    let mean_launch_savings =
        rows.iter().map(|r| r.launch_savings).sum::<f64>() / rows.len() as f64;
    let worst_edp_ratio = rows.iter().map(|r| r.edp_ratio).fold(f64::MIN, f64::max);
    println!(
        "\nMean launch savings {mean_launch_savings:.1}x; worst EDP excess {:.2}% over the \
         exhaustive optimum.",
        (worst_edp_ratio - 1.0) * 100.0
    );

    if cli.check {
        eprintln!("--check: smoke rep complete, not rewriting {out_path}");
        return;
    }
    let report = Report {
        gpu: gpu.name.clone(),
        problem_size: n,
        probe_rungs: PROBE_RUNGS,
        iterations,
        rows,
        mean_launch_savings,
        worst_edp_ratio,
    };
    let body = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out_path, body).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
