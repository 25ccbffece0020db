//! Acceptance criteria for the predictive (model-fitting) tuner: judged
//! against the exhaustive (core, memory)-clock sweep as ground truth, the
//! probe-fit-jump path must land within one ladder bin of the true EDP
//! optimum on at least 90% of the instrumented kernels while spending at
//! least 5x fewer kernel launches.
//!
//! The tolerated miss is the roofline kink: a kernel whose compute and
//! memory times cross inside the sweep window (MomentumEnergy at paper
//! scale) has a nearly flat EDP curve that a single-regime fit can land a
//! few rungs off — which is exactly what the online policy's verification
//! launch and search fallback exist to catch.

use archsim::{GpuSpec, MegaHertz};
use sph::FuncId;
use tuner::{exhaustive_core_mem_sweep, predictive_core_mem_sweep, Objective, TuneOptions};

#[test]
fn predictive_sweep_matches_exhaustive_edp_optimum_with_5x_fewer_launches() {
    let gpu = GpuSpec::a100_sxm4_80gb();
    let n = 450.0f64.powi(3); // the paper's §III-C tuning scale
    let lo = MegaHertz(1005);
    let step = gpu.clock_table.step();
    let mem_index = |mhz: u32| {
        gpu.mem_clock_table
            .iter()
            .position(|p| p.0 == mhz)
            .unwrap_or_else(|| panic!("{mhz} MHz is not a P-state"))
    };

    let mut within_one_bin = 0usize;
    for func in FuncId::ALL {
        let truth = exhaustive_core_mem_sweep(
            func.name(),
            |_p, n| func.workload(n),
            n,
            &gpu,
            lo,
            TuneOptions {
                objective: Objective::Edp,
                iterations: 2,
            },
        );
        let pred =
            predictive_core_mem_sweep(func.name(), |_p, n| func.workload(n), n, &gpu, lo, 4, 2)
                .expect("instrumented kernels fit the analytic model");

        // Launch budget: probes + verification vs the full product space.
        assert!(
            pred.measurements * 5 <= truth.configs.len(),
            "{}: {} measurements vs {} exhaustive configs",
            func.name(),
            pred.measurements,
            truth.configs.len()
        );

        let best = truth.best_config();
        let t_core = best.params.frequency().expect("core axis swept").0;
        let t_mem = best
            .params
            .memory_frequency()
            .map_or(gpu.mem_clock.0, |m| m.0);
        let core_ok = pred.predicted.f_core_mhz.abs_diff(t_core) <= step;
        let mem_ok = mem_index(pred.predicted.f_mem_mhz).abs_diff(mem_index(t_mem)) <= 1;
        if core_ok && mem_ok {
            within_one_bin += 1;
        }
    }

    let total = FuncId::ALL.len();
    assert!(
        within_one_bin * 10 >= total * 9,
        "only {within_one_bin}/{total} kernels within one bin of the exhaustive optimum"
    );
}
