//! Fig. 7 — time-to-solution, energy and EDP of static frequencies, the DVFS
//! governor, and ManDyn (dynamic per-function frequencies), Subsonic
//! Turbulence at 450³ on one A100, normalized to the 1410 MHz baseline.

use super::{Args, Exhibit};
use crate::{minihpc_spec, paper_450cubed, print_rows, to_json, DEFAULT_STEPS};
use archsim::{GpuSpec, MegaHertz};
use freqscale::{
    best_edp, pareto_front, policy::paper_mandyn_table, run_experiment, FreqPolicy, PolicyPoint,
};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    policy: String,
    time_norm: f64,
    energy_norm: f64,
    edp_norm: f64,
}

pub(super) const EXHIBIT: Exhibit = Exhibit {
    id: "fig7",
    title: "FIG. 7",
    caption: "Normalized time / GPU energy / EDP: static 1005-1410 MHz vs DVFS vs ManDyn (450^3, 1 x A100).",
    default_steps: DEFAULT_STEPS,
    run,
};

fn run(args: &Args) -> String {
    let n = paper_450cubed();
    let base = run_experiment(&minihpc_spec(FreqPolicy::Baseline, args.steps, n));

    let table = paper_mandyn_table(&GpuSpec::a100_pcie_40gb());
    let mut policies: Vec<FreqPolicy> = [1350u32, 1305, 1245, 1200, 1155, 1110, 1050, 1005]
        .into_iter()
        .map(|f| FreqPolicy::Static(MegaHertz(f)))
        .collect();
    policies.push(FreqPolicy::Dvfs);
    policies.push(FreqPolicy::ManDyn(table));

    let mut data = vec![Row {
        policy: "baseline-1410".into(),
        time_norm: 1.0,
        energy_norm: 1.0,
        edp_norm: 1.0,
    }];
    let mut points = vec![PolicyPoint::from_result(&base)];
    for policy in policies {
        let r = run_experiment(&minihpc_spec(policy, args.steps, n));
        let (t, e, edp) = r.normalized_to(&base);
        points.push(PolicyPoint::from_result(&r));
        data.push(Row {
            policy: r.policy.clone(),
            time_norm: t,
            energy_norm: e,
            edp_norm: edp,
        });
    }

    print_rows(&["Policy", "Time", "GPU energy", "EDP"], &data, |r| {
        vec![
            r.policy.clone(),
            format!("{:.4}", r.time_norm),
            format!("{:.4}", r.energy_norm),
            format!("{:.4}", r.edp_norm),
        ]
    });

    // §IV-D frames this as a Pareto question: report the front.
    let front = pareto_front(&points);
    let front_labels: Vec<&str> = front.iter().map(|&i| points[i].label.as_str()).collect();
    println!("\nPareto-optimal (time, energy) policies: {front_labels:?}");
    if let Some(best) = best_edp(&points) {
        println!("lowest EDP: {}", points[best].label);
    }

    let mandyn = data.last().expect("mandyn last");
    let dvfs = data
        .iter()
        .find(|r| r.policy == "dvfs")
        .expect("dvfs present");
    let s1005 = data
        .iter()
        .find(|r| r.policy == "static-1005")
        .expect("static-1005 present");
    println!("\nShape check (paper §IV-D):");
    println!(
        "  ManDyn: +{:.2}% time (paper +2.95%), {:.2}% energy saving (paper up to 7.82%), EDP {:.3}",
        (mandyn.time_norm - 1.0) * 100.0,
        (1.0 - mandyn.energy_norm) * 100.0,
        mandyn.edp_norm
    );
    println!(
        "  DVFS: ~baseline time ({:.3}) but *higher* energy ({:.3}) — the §IV-D anomaly",
        dvfs.time_norm, dvfs.energy_norm
    );
    println!(
        "  ManDyn is {:.1}% faster than static-1005 ({:.3} vs {:.3}) with better EDP ({:.3} vs {:.3})",
        (1.0 - mandyn.time_norm / s1005.time_norm) * 100.0,
        mandyn.time_norm,
        s1005.time_norm,
        mandyn.edp_norm,
        s1005.edp_norm
    );
    to_json(&data)
}
