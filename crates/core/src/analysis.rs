//! Energy/performance trade-off analytics: Pareto fronts, EDP series, and
//! online-vs-offline frequency-table convergence.
//!
//! §IV-D frames the policy comparison as "identifying Pareto-optimal
//! solutions that provide acceptable performance and lower energy
//! consumption" — this module computes exactly that over measured policy
//! points. The table-comparison half answers the online-extension question:
//! did the in-run search land on the same per-kernel clocks the offline
//! KernelTuner sweep found?

use archsim::{EnergyDelay, MegaHertz};
use serde::{Deserialize, Serialize};
use sph::FuncId;

use crate::policy::FreqTable;
use crate::report::ExperimentResult;

/// One measured (time, energy) point on the trade-off plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyPoint {
    pub label: String,
    pub time_s: f64,
    pub energy_j: f64,
}

impl PolicyPoint {
    /// Build from an experiment's loop time and GPU energy.
    pub fn from_result(r: &ExperimentResult) -> Self {
        PolicyPoint {
            label: r.policy.clone(),
            time_s: r.time_to_solution_s,
            energy_j: r.pmt_gpu_j,
        }
    }

    /// Energy-delay product of this point.
    pub fn edp(&self) -> f64 {
        EnergyDelay::of(self.energy_j, self.time_s).0
    }

    /// True if `other` is at least as good on both axes and strictly better
    /// on one (standard Pareto dominance, minimizing both).
    pub fn dominated_by(&self, other: &PolicyPoint) -> bool {
        other.time_s <= self.time_s
            && other.energy_j <= self.energy_j
            && (other.time_s < self.time_s || other.energy_j < self.energy_j)
    }
}

/// Indices of the non-dominated points, ordered by increasing time. Points
/// duplicating an earlier point exactly are kept (they are not *strictly*
/// worse).
pub fn pareto_front(points: &[PolicyPoint]) -> Vec<usize> {
    let mut front: Vec<usize> = (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && points[i].dominated_by(p))
        })
        .collect();
    front.sort_by(|&a, &b| {
        points[a]
            .time_s
            .partial_cmp(&points[b].time_s)
            .expect("finite times")
    });
    front
}

/// The point with the lowest EDP.
pub fn best_edp(points: &[PolicyPoint]) -> Option<usize> {
    (0..points.len()).min_by(|&a, &b| {
        points[a]
            .edp()
            .partial_cmp(&points[b].edp())
            .expect("finite EDP")
    })
}

/// Hypervolume-style scalar for a front (area dominated up to a reference
/// point) — a compact way to compare whole policy sets. Points beyond the
/// reference contribute nothing.
pub fn dominated_area(points: &[PolicyPoint], ref_time_s: f64, ref_energy_j: f64) -> f64 {
    let front = pareto_front(points);
    let mut area = 0.0;
    let mut prev_energy = ref_energy_j;
    for &i in &front {
        let p = &points[i];
        if p.time_s >= ref_time_s || p.energy_j >= prev_energy {
            continue;
        }
        area += (ref_time_s - p.time_s) * (prev_energy - p.energy_j);
        prev_energy = p.energy_j;
    }
    area
}

/// One kernel's entry in a learned-vs-reference table comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableDeviation {
    pub func: FuncId,
    /// The clock the online run converged to (or its Baseline fallback).
    pub learned_mhz: u32,
    /// The offline-tuned reference clock.
    pub reference_mhz: u32,
}

impl TableDeviation {
    /// Absolute clock disagreement for this kernel.
    pub fn deviation_mhz(&self) -> u32 {
        self.learned_mhz.abs_diff(self.reference_mhz)
    }
}

/// Compare `learned` against `reference` over the reference's kernels.
/// Kernels missing from `learned` are scored at `fallback` — the clock an
/// online policy actually runs unpinned kernels at (the ladder maximum).
pub fn compare_tables(
    learned: &FreqTable,
    reference: &FreqTable,
    fallback: MegaHertz,
) -> Vec<TableDeviation> {
    reference
        .iter()
        .map(|(func, ref_f)| TableDeviation {
            func: *func,
            learned_mhz: learned.get(func).copied().unwrap_or(fallback).0,
            reference_mhz: ref_f.0,
        })
        .collect()
}

/// Largest per-kernel clock disagreement in a comparison.
pub fn max_deviation_mhz(deviations: &[TableDeviation]) -> u32 {
    deviations
        .iter()
        .map(TableDeviation::deviation_mhz)
        .max()
        .unwrap_or(0)
}

/// True when every kernel agrees within `bin_mhz` — one ladder step
/// (15 MHz on the A100) is the paper-relevant test of convergence.
pub fn tables_within_bin(deviations: &[TableDeviation], bin_mhz: u32) -> bool {
    max_deviation_mhz(deviations) <= bin_mhz
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(label: &str, t: f64, e: f64) -> PolicyPoint {
        PolicyPoint {
            label: label.into(),
            time_s: t,
            energy_j: e,
        }
    }

    #[test]
    fn dominance_rules() {
        let a = p("a", 1.0, 1.0);
        let faster = p("f", 0.9, 1.0);
        let cheaper = p("c", 1.0, 0.9);
        let worse = p("w", 1.1, 1.1);
        let equal = p("e", 1.0, 1.0);
        assert!(a.dominated_by(&faster));
        assert!(a.dominated_by(&cheaper));
        assert!(!a.dominated_by(&worse));
        assert!(!a.dominated_by(&equal), "ties do not dominate");
        assert!(worse.dominated_by(&a));
    }

    #[test]
    fn front_of_policy_shaped_points() {
        // baseline: fast & hungry; static-low: slow & frugal; mandyn: near
        // baseline time, much lower energy; dvfs: dominated (slower AND
        // hungrier than baseline).
        let points = vec![
            p("baseline", 1.00, 1.00),
            p("static-1005", 1.12, 0.86),
            p("mandyn", 1.03, 0.91),
            p("dvfs", 1.02, 1.02),
        ];
        let front = pareto_front(&points);
        let labels: Vec<&str> = front.iter().map(|&i| points[i].label.as_str()).collect();
        assert_eq!(labels, vec!["baseline", "mandyn", "static-1005"]);
        assert!(!labels.contains(&"dvfs"), "DVFS must be dominated");
        // ManDyn wins EDP.
        assert_eq!(best_edp(&points), Some(2));
    }

    #[test]
    fn front_is_time_sorted_and_monotone_in_energy() {
        let points = vec![
            p("a", 3.0, 1.0),
            p("b", 1.0, 3.0),
            p("c", 2.0, 2.0),
            p("d", 2.5, 2.5), // dominated by c
        ];
        let front = pareto_front(&points);
        let ts: Vec<f64> = front.iter().map(|&i| points[i].time_s).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        let es: Vec<f64> = front.iter().map(|&i| points[i].energy_j).collect();
        assert!(
            es.windows(2).all(|w| w[0] >= w[1]),
            "energy decreases along the front"
        );
        assert_eq!(front.len(), 3);
    }

    #[test]
    fn dominated_area_prefers_better_fronts() {
        let good = vec![p("g1", 0.8, 0.8), p("g2", 0.9, 0.7)];
        let bad = vec![p("b1", 0.95, 0.95)];
        let a_good = dominated_area(&good, 1.0, 1.0);
        let a_bad = dominated_area(&bad, 1.0, 1.0);
        assert!(a_good > a_bad);
        // Points beyond the reference contribute nothing.
        let none = dominated_area(&[p("x", 1.5, 1.5)], 1.0, 1.0);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn empty_input() {
        assert!(pareto_front(&[]).is_empty());
        assert_eq!(best_edp(&[]), None);
        assert_eq!(dominated_area(&[], 1.0, 1.0), 0.0);
    }

    #[test]
    fn table_comparison_scores_missing_kernels_at_fallback() {
        let mut reference = FreqTable::new();
        reference.insert(FuncId::XMass, MegaHertz(1050));
        reference.insert(FuncId::MomentumEnergy, MegaHertz(1410));
        reference.insert(FuncId::Gravity, MegaHertz(1320));
        let mut learned = FreqTable::new();
        learned.insert(FuncId::XMass, MegaHertz(1065)); // one bin off
        learned.insert(FuncId::MomentumEnergy, MegaHertz(1410)); // exact
                                                                 // Gravity never pinned -> runs at the 1410 fallback, 90 MHz off.

        let devs = compare_tables(&learned, &reference, MegaHertz(1410));
        assert_eq!(devs.len(), 3);
        assert_eq!(max_deviation_mhz(&devs), 90);
        assert!(!tables_within_bin(&devs, 15));

        learned.insert(FuncId::Gravity, MegaHertz(1320));
        let devs = compare_tables(&learned, &reference, MegaHertz(1410));
        assert_eq!(max_deviation_mhz(&devs), 15);
        assert!(tables_within_bin(&devs, 15));
        assert!(!tables_within_bin(&devs, 14));
    }
}
