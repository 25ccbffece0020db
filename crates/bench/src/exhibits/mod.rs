//! The exhibit registry: every table, figure, ablation and extension of the
//! reproduction as one [`Exhibit`] entry, in the order `exhibit all` runs
//! them. Each `<id>.rs` holds the body of one exhibit — it prints its rows
//! and returns its data as a JSON document — and the `exhibit` binary owns
//! flag parsing, the banner and the `--json` file.

use crate::{host_weak_scaling, n_side_for_ranks, paper_450cubed, print_rows, production_spec};
use archsim::{GpuDevice, RegionExec, SimDuration};
use freqscale::{ExperimentSpec, WorkloadKind};
use sph::FuncId;

mod ablation_exec_model;
mod ablation_governor;
mod ablation_memclock;
mod ablation_sampling;
mod archer2_cpu_freq;
mod extension_autotune;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod futurework_arch_sweep;
mod projection_scale;
mod sweetspot;
mod table1;
mod weak_scaling;

/// What an exhibit body sees of the command line.
pub struct Args {
    /// Physics steps per experiment, already resolved against the entry's
    /// `default_steps`.
    pub steps: usize,
    /// Smoke mode: shrink the sweeps that only repeat a shape.
    pub check: bool,
}

/// One registry entry.
pub struct Exhibit {
    /// What `exhibit <id>` selects and `results/<id>.json` is named after.
    pub id: &'static str,
    /// Banner headline.
    pub title: &'static str,
    /// Banner caption.
    pub caption: &'static str,
    /// Steps when `--steps` is not given.
    pub default_steps: usize,
    /// Print the exhibit and return its data as pretty JSON.
    pub run: fn(&Args) -> String,
}

pub static EXHIBITS: &[Exhibit] = &[
    table1::EXHIBIT,
    fig1::EXHIBIT,
    fig2::EXHIBIT,
    fig3::EXHIBIT,
    fig4::EXHIBIT,
    fig5::EXHIBIT,
    fig6::EXHIBIT,
    fig7::EXHIBIT,
    fig8::EXHIBIT,
    fig9::EXHIBIT,
    ablation_exec_model::EXHIBIT,
    ablation_sampling::EXHIBIT,
    ablation_governor::EXHIBIT,
    ablation_memclock::EXHIBIT,
    archer2_cpu_freq::EXHIBIT,
    futurework_arch_sweep::EXHIBIT,
    extension_autotune::EXHIBIT,
    weak_scaling::EXHIBIT,
    projection_scale::EXHIBIT,
    sweetspot::EXHIBIT,
];

/// What `exhibit --list` prints: one `id  title — caption` line per entry,
/// in registry order.
pub fn list() -> String {
    EXHIBITS
        .iter()
        .map(|e| format!("{:<22} {} — {}\n", e.id, e.title, e.caption))
        .collect()
}

/// The four system × simulation cases of Figs. 4 and 5 (§IV-B): Subsonic
/// Turbulence at 150 M particles/GPU and Evrard Collapse at 80 M, on LUMI-G
/// and CSCS-A100, 32 ranks each.
fn paper_cases(steps: usize) -> [(&'static str, ExperimentSpec); 4] {
    let ranks = 32;
    let n_side = n_side_for_ranks(ranks);
    let turb = WorkloadKind::Turbulence {
        n_side,
        mach: 0.3,
        seed: 7,
    };
    let evrard = WorkloadKind::Evrard { n_side };
    let case = |system, workload, target| production_spec(system, ranks, workload, steps, target);
    [
        ("LUMI-Turb", case(archsim::lumi_g(), turb, 150e6)),
        ("LUMI-Evr", case(archsim::lumi_g(), evrard, 80e6)),
        ("CSCS-A100-Turb", case(archsim::cscs_a100(), turb, 150e6)),
        ("CSCS-A100-Evr", case(archsim::cscs_a100(), evrard, 80e6)),
    ]
}

/// `steps` time-steps of the 450³ turbulence kernel sequence (every function
/// but gravity, each behind its host overhead, 2 ms of idle between steps)
/// on one device — the stream the governor and sampling ablations measure.
fn drive_kernel_sequence(
    dev: &mut GpuDevice,
    steps: usize,
    mut each: impl FnMut(FuncId, &RegionExec),
) {
    let n = paper_450cubed();
    for _ in 0..steps {
        for func in FuncId::ALL {
            if func == FuncId::Gravity {
                continue;
            }
            dev.advance_idle(func.host_overhead(1));
            each(func, &dev.run_region(&func.workload(n)));
        }
        dev.advance_idle(SimDuration::from_millis(2));
    }
}

/// A rank-count sweep, cut to its two smallest counts under `--check`: the
/// normalization and the table still run, the 96-rank jobs do not.
fn rank_sweep(counts: &[usize], check: bool) -> &[usize] {
    if check {
        &counts[..2]
    } else {
        counts
    }
}

/// The host-side section of the two scaling exhibits: the real SPH loop (not
/// the execution model) at a fixed particles/rank on 1, 2 and 4 ranks —
/// per-rank CPU time per steady step stays flat when weak scaling holds.
/// `bench_scaling` covers the 10⁶-particle row and the checked-in artifact.
fn print_host_scaling(what: &str, check: bool) {
    let (per_rank, steps) = if check { (2_000, 2) } else { (25_000, 3) };
    let host = host_weak_scaling(&[1, 2, 4], per_rank, steps, None);
    println!("\nHost-side SPH {what} ({per_rank} particles/rank, CPU s per steady step):");
    print_rows(&["ranks", "particles", "cpu s/step", "norm"], &host, |r| {
        vec![
            r.ranks.to_string(),
            r.particles.to_string(),
            format!("{:.3}", r.cpu_s_per_rank_step),
            format!("{:.3}", r.cpu_norm),
        ]
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_list_prints_exactly_the_registry() {
        let mut ids: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
        let listing = list();
        let listed: Vec<&str> = listing
            .lines()
            .map(|l| l.split_whitespace().next().expect("id column"))
            .collect();
        assert_eq!(listed, ids, "one line per entry, in registry order");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXHIBITS.len(), "duplicate exhibit id");
        // Fig. 9 is the paper's 10-step trace; nothing else has its own default.
        for e in EXHIBITS {
            let want = if e.id == "fig9" {
                10
            } else {
                crate::DEFAULT_STEPS
            };
            assert_eq!(e.default_steps, want, "{}", e.id);
        }
    }

    /// Every exhibit runs end to end and yields a JSON document whose
    /// numbers are all finite (a non-finite float serializes as `null`).
    /// Fig. 4's two CSCS-A100 rows carry the only legitimate nulls: that
    /// system has no separate memory counter.
    #[test]
    fn every_exhibit_runs_and_returns_finite_json() {
        for e in EXHIBITS {
            let body = (e.run)(&Args {
                steps: 2,
                check: true,
            });
            serde_json::from_str::<serde_json::Value>(&body)
                .unwrap_or_else(|err| panic!("{}: not JSON: {err}", e.id));
            let nulls = body.matches("null").count();
            let expected = if e.id == "fig4" { 2 } else { 0 };
            assert_eq!(nulls, expected, "{}: non-finite number in {body}", e.id);
        }
    }
}
