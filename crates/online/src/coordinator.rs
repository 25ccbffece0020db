//! Node/cluster power-cap composition.
//!
//! `PowerCapCoordinator` takes one watt budget for a whole job and splits it
//! across ranks. Each rank's demand is its (learned or configured) per-kernel
//! frequency table; the coordinator's model predicts every kernel's peak
//! draw from the device power model and greedily walks the most expensive
//! kernels down the clock ladder — always picking the `(rank, kernel)` step
//! with the smallest marginal EDP cost — until the summed worst-case draw
//! fits the budget. The per-rank budget that falls out is then *enforced* on
//! the device (`GpuDevice::set_power_limit`), so the trace guarantee does
//! not rest on the model being right: the model only decides where the
//! clamping hurts least.

use archsim::{EnergyDelay, GpuSpec, MegaHertz, Watts};
use sph::FuncId;

use crate::controller::LearnedTable;
use crate::error::OnlineError;

/// Headroom kept above the modelled busy power: covers thermal leakage and
/// the clock-transition energy the device spreads over the segment *after*
/// enforcing its power limit.
pub const DEFAULT_MARGIN: f64 = 0.05;

/// Per-rank outcome of a power-cap allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RankAllocation {
    /// Device power limit to enforce on this rank's GPU.
    pub budget: Watts,
    /// The rank's kernel table after greedy clamping (equal to the demand
    /// when the budget was never binding).
    pub table: LearnedTable,
}

/// Splits a job-wide watt budget across ranks by clamping kernel clocks.
#[derive(Debug, Clone)]
pub struct PowerCapCoordinator {
    spec: GpuSpec,
    budget: Watts,
}

impl PowerCapCoordinator {
    /// Coordinator for GPUs of `spec` sharing `budget` watts in total.
    pub fn new(spec: GpuSpec, budget: Watts) -> Self {
        PowerCapCoordinator { spec, budget }
    }

    /// The job-wide budget.
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Modelled draw of `func` running flat-out at clock `f`. Uses the raw
    /// activity factors (no occupancy de-rate), so it upper-bounds the
    /// busy power the device will actually see.
    pub fn kernel_power(&self, func: FuncId, f: MegaHertz) -> Watts {
        let w = func.workload(1.0);
        self.spec
            .busy_power(f, w.compute_activity, w.memory_activity, false)
    }

    /// Worst-case draw of a rank running `table`: its hungriest kernel.
    pub fn table_peak(&self, table: &LearnedTable) -> Watts {
        Watts(
            table
                .iter()
                .map(|(k, f)| self.kernel_power(*k, *f).0)
                .fold(self.spec.idle_power.0, f64::max),
        )
    }

    /// Roofline estimate of `func`'s per-particle EDP at clock `f` — the
    /// marginal-cost metric the greedy clamp minimises. Kernel time is
    /// compute time (clock-scaled) plus memory time; energy is modelled
    /// power times that span; EDP goes through the shared formulation.
    fn edp_density(&self, func: FuncId, f: MegaHertz) -> f64 {
        let w = func.workload(1.0);
        let fmax = self.spec.clock_table.max();
        let t = w.flops / (self.spec.peak_flops * f.ratio(fmax).min(1.0))
            + w.bytes / self.spec.mem_bandwidth;
        EnergyDelay::of(self.kernel_power(func, f).0 * t, t).0
    }

    /// Highest ladder clock a rank with `rank_budget` watts can run any of
    /// `table`'s kernels at without the modelled worst case (with headroom)
    /// exceeding the budget. An empty table means "all kernels". Used to
    /// cap an online tuner's search window so exploration never proposes a
    /// rung the device limit would immediately throttle.
    pub fn freq_ceiling(&self, rank_budget: Watts, table: &LearnedTable) -> MegaHertz {
        let clocks = &self.spec.clock_table;
        let headroom = 1.0 + DEFAULT_MARGIN;
        let funcs: Vec<FuncId> = if table.is_empty() {
            FuncId::ALL.to_vec()
        } else {
            table.keys().copied().collect()
        };
        let mut f = clocks.max();
        loop {
            let peak = funcs
                .iter()
                .map(|k| self.kernel_power(*k, f).0)
                .fold(self.spec.idle_power.0, f64::max)
                * headroom;
            if peak <= rank_budget.0 || f <= clocks.min() {
                return f;
            }
            f = MegaHertz(f.0 - clocks.step());
        }
    }

    /// Split the budget across `demands` (one table per rank; an empty
    /// table means "baseline: everything at the maximum clock").
    ///
    /// Returns one [`RankAllocation`] per rank, with
    /// `sum(budgets) <= budget` and every table clock at or below its
    /// demand. Errs with [`OnlineError::InfeasibleBudget`] when even the
    /// ladder floor is too hungry.
    pub fn allocate(&self, demands: &[LearnedTable]) -> Result<Vec<RankAllocation>, OnlineError> {
        if demands.is_empty() {
            return Ok(Vec::new());
        }
        let clocks = &self.spec.clock_table;
        let floor = clocks.min();
        let step = clocks.step();
        let headroom = 1.0 + DEFAULT_MARGIN;

        let mut tables: Vec<LearnedTable> = demands
            .iter()
            .map(|d| {
                if d.is_empty() {
                    FuncId::ALL.iter().map(|f| (*f, clocks.max())).collect()
                } else {
                    d.iter().map(|(k, f)| (*k, clocks.nearest(*f))).collect()
                }
            })
            .collect();

        loop {
            let peaks: Vec<f64> = tables
                .iter()
                .map(|t| self.table_peak(t).0 * headroom)
                .collect();
            let total: f64 = peaks.iter().sum();
            if total <= self.budget.0 {
                let slack = (self.budget.0 - total) / tables.len() as f64;
                return Ok(tables
                    .into_iter()
                    .zip(peaks)
                    .map(|(table, peak)| RankAllocation {
                        budget: Watts((peak + slack).min(self.spec.tdp().0)),
                        table,
                    })
                    .collect());
            }

            // Cheapest next clamp: each rank's peak kernel, one rung down.
            let mut best: Option<(usize, FuncId, MegaHertz, f64)> = None;
            for (r, t) in tables.iter().enumerate() {
                let Some((func, f)) = t.iter().map(|(k, f)| (*k, *f)).max_by(|a, b| {
                    let pa = self.kernel_power(a.0, a.1).0;
                    let pb = self.kernel_power(b.0, b.1).0;
                    pa.partial_cmp(&pb).expect("finite power")
                }) else {
                    continue;
                };
                if f <= floor {
                    continue; // this rank's peak cannot go lower
                }
                let down = MegaHertz(f.0 - step);
                let cost = self.edp_density(func, down) - self.edp_density(func, f);
                if best.as_ref().is_none_or(|b| cost < b.3) {
                    best = Some((r, func, down, cost));
                }
            }
            match best {
                Some((r, func, down, _)) => {
                    tables[r].insert(func, down);
                }
                None => {
                    let floor_w: f64 = tables
                        .iter()
                        .map(|t| {
                            t.keys()
                                .map(|k| self.kernel_power(*k, floor).0)
                                .fold(self.spec.idle_power.0, f64::max)
                                * headroom
                        })
                        .sum();
                    return Err(OnlineError::InfeasibleBudget {
                        budget_w: self.budget.0,
                        floor_w,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::GpuSpec;
    use std::collections::BTreeMap;

    fn full_demand(gpu: &GpuSpec) -> LearnedTable {
        FuncId::ALL
            .iter()
            .map(|f| (*f, gpu.clock_table.max()))
            .collect()
    }

    #[test]
    fn generous_budget_leaves_demands_untouched() {
        let gpu = GpuSpec::a100_pcie_40gb();
        let demand = full_demand(&gpu);
        let coord = PowerCapCoordinator::new(gpu.clone(), Watts(2.0 * gpu.tdp().0));
        let allocs = coord.allocate(&[demand.clone(), demand.clone()]).unwrap();
        assert_eq!(allocs.len(), 2);
        for a in &allocs {
            assert_eq!(a.table, demand, "no clamping needed");
            assert!(a.budget.0 <= gpu.tdp().0 + 1e-9);
        }
        let total: f64 = allocs.iter().map(|a| a.budget.0).sum();
        assert!(total <= 2.0 * gpu.tdp().0 + 1e-9);
    }

    #[test]
    fn tight_budget_clamps_hungriest_kernels_first() {
        let gpu = GpuSpec::a100_pcie_40gb();
        let demand = full_demand(&gpu);
        let coord = PowerCapCoordinator::new(gpu.clone(), Watts(0.85 * gpu.tdp().0));
        let allocs = coord.allocate(std::slice::from_ref(&demand)).unwrap();
        let a = &allocs[0];
        assert!(a.budget.0 <= 0.85 * gpu.tdp().0 + 1e-9);
        // The modelled worst case fits the enforced limit.
        assert!(coord.table_peak(&a.table).0 * (1.0 + DEFAULT_MARGIN) <= a.budget.0 + 1e-9);
        // Every clock at or below demand; at least one was clamped.
        let mut clamped = 0;
        for (k, f) in &a.table {
            assert!(*f <= demand[k]);
            if *f < demand[k] {
                clamped += 1;
            }
        }
        assert!(clamped > 0, "budget below TDP must clamp something");
        // Cold kernels keep their clocks: only peak kernels get stepped, so
        // the memory-bound XMass should be untouched while compute-heavy
        // kernels absorb the cap.
        assert_eq!(a.table[&FuncId::XMass], demand[&FuncId::XMass]);
        assert!(a.table[&FuncId::MomentumEnergy] < demand[&FuncId::MomentumEnergy]);
    }

    #[test]
    fn infeasible_budget_is_an_error() {
        let gpu = GpuSpec::a100_pcie_40gb();
        let coord = PowerCapCoordinator::new(gpu.clone(), Watts(gpu.idle_power.0 * 0.5));
        match coord.allocate(&[full_demand(&gpu)]) {
            Err(OnlineError::InfeasibleBudget { budget_w, floor_w }) => {
                assert!(floor_w > budget_w);
            }
            other => panic!("expected InfeasibleBudget, got {other:?}"),
        }
    }

    #[test]
    fn empty_demand_means_baseline() {
        let gpu = GpuSpec::a100_pcie_40gb();
        let coord = PowerCapCoordinator::new(gpu.clone(), Watts(2.0 * gpu.tdp().0));
        let allocs = coord.allocate(&[BTreeMap::new()]).unwrap();
        assert_eq!(allocs[0].table, full_demand(&gpu));
    }

    #[test]
    fn single_rank_gets_the_whole_budget_capped_at_tdp() {
        let gpu = GpuSpec::a100_pcie_40gb();
        let demand = full_demand(&gpu);
        // Comfortable but sub-TDP budget: the one rank owns all of it.
        let budget = Watts(0.95 * gpu.tdp().0);
        let coord = PowerCapCoordinator::new(gpu.clone(), budget);
        let allocs = coord.allocate(std::slice::from_ref(&demand)).unwrap();
        assert_eq!(allocs.len(), 1);
        let a = &allocs[0];
        assert!(a.budget.0 <= budget.0 + 1e-9, "never over the job budget");
        assert!(
            coord.table_peak(&a.table).0 * (1.0 + DEFAULT_MARGIN) <= a.budget.0 + 1e-9,
            "modelled worst case fits the enforced limit"
        );
        // And with budget above TDP, the device limit caps the grant.
        let rich = PowerCapCoordinator::new(gpu.clone(), Watts(3.0 * gpu.tdp().0));
        let a = &rich.allocate(std::slice::from_ref(&demand)).unwrap()[0];
        assert_eq!(a.table, demand, "no clamping under an over-TDP budget");
        assert!(
            a.budget.0 <= gpu.tdp().0 + 1e-9,
            "per-rank budget saturates at TDP, surplus watts are dead"
        );
    }

    #[test]
    fn budget_below_summed_idle_power_is_infeasible_for_every_rank_count() {
        let gpu = GpuSpec::a100_pcie_40gb();
        for ranks in [1usize, 4] {
            // Idle power alone exceeds the split budget: no amount of
            // clamping reaches feasibility, because the floor of every
            // rank's draw is its idle power.
            let budget = Watts(0.9 * gpu.idle_power.0 * ranks as f64);
            let coord = PowerCapCoordinator::new(gpu.clone(), budget);
            let demands = vec![full_demand(&gpu); ranks];
            match coord.allocate(&demands) {
                Err(OnlineError::InfeasibleBudget { budget_w, floor_w }) => {
                    assert!(floor_w > budget_w, "{ranks} ranks: floor above budget");
                    assert!(
                        floor_w >= gpu.idle_power.0 * ranks as f64,
                        "reported floor accounts for every rank's idle draw"
                    );
                }
                other => panic!("{ranks} ranks: expected InfeasibleBudget, got {other:?}"),
            }
        }
    }

    #[test]
    fn budget_above_summed_tdp_never_grants_more_than_tdp_per_rank() {
        let gpu = GpuSpec::a100_pcie_40gb();
        let ranks = 4usize;
        let coord = PowerCapCoordinator::new(gpu.clone(), Watts(2.5 * gpu.tdp().0 * ranks as f64));
        let demands = vec![full_demand(&gpu); ranks];
        let allocs = coord.allocate(&demands).unwrap();
        assert_eq!(allocs.len(), ranks);
        for a in &allocs {
            assert_eq!(a.table, full_demand(&gpu), "no clamping");
            assert!(
                a.budget.0 <= gpu.tdp().0 + 1e-9,
                "TDP is the hard per-GPU cap"
            );
        }
    }

    #[test]
    fn starved_ceiling_clamps_to_ladder_floor_and_confines_both_tuners() {
        let gpu = GpuSpec::a100_pcie_40gb();
        let coord = PowerCapCoordinator::new(gpu.clone(), Watts(gpu.tdp().0));
        // A rank budget below what even the ladder floor draws: the ceiling
        // saturates at the lowest rung rather than walking off the ladder.
        let floor = gpu.clock_table.min();
        let starved = Watts(gpu.idle_power.0 * 0.5);
        let ceiling = coord.freq_ceiling(starved, &full_demand(&gpu));
        assert_eq!(ceiling, floor, "ceiling never leaves the device ladder");

        // The online search accepts that ceiling: its window collapses to
        // the configured floor rung (min_freq), and every proposal stays
        // inside it.
        let cfg = crate::OnlineTunerConfig::default();
        let mut tuner = crate::OnlineTuner::new(&gpu, cfg.clone()).unwrap();
        tuner.set_ceiling(ceiling);
        assert_eq!(
            tuner.ladder(),
            &[cfg.min_freq],
            "ceiling below the window floor leaves exactly the floor rung"
        );
        assert_eq!(tuner.propose(FuncId::XMass), cfg.min_freq);

        // Same contract for the predictive tuner: probe plan and proposals
        // are confined to the single surviving rung.
        let mut pred =
            crate::PredictiveTuner::new(&gpu, crate::PredictiveConfig::default()).unwrap();
        pred.set_ceiling(ceiling);
        let (core, _mem) = pred.propose(FuncId::XMass);
        assert_eq!(core, cfg.min_freq);
    }
}
