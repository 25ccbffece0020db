//! Projection — ManDyn at production scale.
//!
//! The paper demonstrates ManDyn on one A100 (the only system allowing user
//! clock control) and argues the savings carry to "large-scale scientific
//! simulations running mainly on GPUs". This exhibit runs the projection:
//! a CSCS-A100-class cluster whose centre *permits* user clock control
//! (or, equivalently, applies the tuned table itself), 8–64 ranks, ManDyn vs
//! baseline — per-GPU percentages hold, so the absolute saving scales with
//! the machine.

use super::{print_host_scaling, rank_sweep, Args, Exhibit};
use crate::{
    n_side_for_ranks, paper_450cubed, print_rows, production_spec, to_json, DEFAULT_STEPS,
};
use archsim::{GpuSpec, SystemSpec};
use freqscale::{
    policy::paper_mandyn_table, run_experiment, ExperimentSpec, FreqPolicy, WorkloadKind,
};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    ranks: usize,
    time_norm: f64,
    energy_norm: f64,
    gpu_j_saved: f64,
    node_j_saved: f64,
}

/// CSCS-A100 hardware with centre policy flipped to allow clock control.
fn unlocked_cscs() -> SystemSpec {
    let mut sys = archsim::cscs_a100();
    sys.name = "CSCS-A100 (unlocked)".into();
    sys.node.user_clock_control = true;
    sys
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "projection_scale",
    title: "PROJECTION: ManDyn at scale",
    caption: "Per-GPU ManDyn savings projected onto a multi-node A100 partition (centre permits clock control).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let table = paper_mandyn_table(&GpuSpec::a100_sxm4_80gb());

    let mut data = Vec::new();
    for &ranks in rank_sweep(&[8, 16, 32, 64], args.check) {
        let mk = |policy: FreqPolicy| ExperimentSpec {
            policy,
            ..production_spec(
                unlocked_cscs(),
                ranks,
                WorkloadKind::Turbulence {
                    n_side: n_side_for_ranks(ranks),
                    mach: 0.3,
                    seed: 7,
                },
                args.steps,
                paper_450cubed(),
            )
        };
        let base = run_experiment(&mk(FreqPolicy::Baseline));
        let mandyn = run_experiment(&mk(FreqPolicy::ManDyn(table.clone())));
        assert!(
            mandyn.per_rank.iter().all(|r| !r.clock_control_denied),
            "unlocked centre must allow the instrumentation's clock calls"
        );
        let (t, e, _) = mandyn.normalized_to(&base);
        data.push(Row {
            ranks,
            time_norm: t,
            energy_norm: e,
            gpu_j_saved: base.pmt_gpu_j - mandyn.pmt_gpu_j,
            node_j_saved: base.node_loop_j - mandyn.node_loop_j,
        });
    }

    print_rows(
        &[
            "GPUs",
            "ManDyn time",
            "ManDyn GPU energy",
            "GPU J saved",
            "Node J saved",
        ],
        &data,
        |r| {
            vec![
                r.ranks.to_string(),
                format!("{:.4}", r.time_norm),
                format!("{:.4}", r.energy_norm),
                format!("{:.1}", r.gpu_j_saved),
                format!("{:.1}", r.node_j_saved),
            ]
        },
    );

    let first = data.first().expect("rows");
    let last = data.last().expect("rows");
    println!(
        "\nPer-GPU percentages stay flat from {} to {} GPUs ({:.2}% vs {:.2}% energy saving),",
        first.ranks,
        last.ranks,
        (1.0 - first.energy_norm) * 100.0,
        (1.0 - last.energy_norm) * 100.0
    );
    println!(
        "so the absolute saving scales ~linearly: {:.0} J -> {:.0} J over this sweep. At the",
        first.gpu_j_saved, last.gpu_j_saved
    );
    println!("paper's 14.7 B-particle runs this is the 'more sustainable large-scale simulations'");
    println!("claim of §I, made concrete.");

    // The projection argument leans on per-GPU work staying constant.
    print_host_scaling("per-rank cost", args.check);

    to_json(&data)
}
