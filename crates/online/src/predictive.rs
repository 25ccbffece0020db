//! Predictive per-kernel tuning: probe a handful of rungs, fit the analytic
//! model, jump straight to the predicted EDP optimum.
//!
//! Where [`crate::OnlineTuner`] *searches* the ladder (dozens
//! of exploration launches per kernel), this controller samples
//! `probe_rungs` core clocks — plus one memory P-state when the memory axis
//! is enabled — fits the roofline/CV²f model of the `model` crate by least
//! squares, and pins the kernel at the model's (core, mem) EDP optimum after
//! a single verification measurement. The fallback ladder is explicit:
//!
//! 1. fit rejected (low R², large residual) → coarse-to-refine search;
//! 2. probes quarantined by the measurement-validity guard → search;
//! 3. verification sample off the model → search;
//! 4. pinned samples drift from the model → refit from fresh probes.
//!
//! Fitted models are exposed for persistence, so a warm-started run can skip
//! even the probe phase and jump directly to each kernel's predicted
//! optimum.
//!
//! With an empty probe plan ([`PredictiveTuner::search_only`]) every kernel
//! starts where that ladder ends, in the search: the tuner *is* the
//! [`crate::OnlineTuner`], call for call. That is how the instrument drives
//! both learning policies through one object.

use std::collections::BTreeMap;

use archsim::{GpuSpec, MegaHertz};
use model::{KernelModel, Sample, VoltageParams};
use serde::{Deserialize, Serialize};
use sph::FuncId;

use crate::config::{OnlineTunerConfig, PredictiveConfig};
use crate::controller::{LearnedTable, OnlineTuner, RecordOutcome};
use crate::error::OnlineError;

/// Per-kernel fitted models, keyed like the learned frequency table.
pub type ModelTable = BTreeMap<FuncId, KernelModel>;

/// Everything a run learned that a later run can start from: the pinned
/// per-kernel clocks and, for kernels the model path pinned, the fitted
/// coefficients. This one value is what the table store persists, the table
/// server leases and publishes, checkpoints carry and the instrument warm
/// starts from. `FuncId` serializes as the kernel name, so the JSON stays
/// greppable; `models` is omitted when empty so search-only entries keep
/// their old shape.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmState {
    #[serde(default)]
    pub table: LearnedTable,
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub models: ModelTable,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Measuring probe point `at` of the plan.
    Probe { at: usize },
    /// Measuring the predicted optimum to confirm the model.
    Verify,
    /// Operating at the predicted optimum, watching for drift.
    Pinned,
    /// The model path gave up; the inner search tuner owns this kernel.
    Search,
}

#[derive(Debug)]
struct KernelState {
    phase: Phase,
    /// Accumulated (energy, time, core, mem) of the point being measured.
    acc: Vec<(f64, f64, MegaHertz, MegaHertz)>,
    /// Completed probe means, one per plan point.
    samples: Vec<Sample>,
    /// The model's predicted (core, mem) optimum, once fitted.
    predicted: Option<(MegaHertz, MegaHertz)>,
    /// Launches taken while not pinned (probing + verification).
    explore_launches: u64,
    consecutive_invalid: u32,
    drifted: u32,
    refits: u32,
}

impl KernelState {
    fn fresh(phase: Phase) -> Self {
        KernelState {
            phase,
            acc: Vec::new(),
            samples: Vec::new(),
            predicted: None,
            explore_launches: 0,
            consecutive_invalid: 0,
            drifted: 0,
            refits: 0,
        }
    }

    /// Collapse the accumulated launches into one mean sample at the clocks
    /// the launches actually ran at.
    fn mean_sample(&self) -> Sample {
        let n = self.acc.len().max(1) as f64;
        let (e, t): (f64, f64) = self
            .acc
            .iter()
            .fold((0.0, 0.0), |(e, t), &(ei, ti, _, _)| (e + ei, t + ti));
        let &(_, _, core, mem) = self.acc.last().expect("mean of nothing");
        Sample {
            f_core_mhz: f64::from(core.0),
            f_mem_mhz: f64::from(mem.0),
            time_s: t / n,
            energy_j: e / n,
        }
    }
}

/// Model-driven (core, memory) clock tuner with a search fallback.
pub struct PredictiveTuner {
    cfg: PredictiveConfig,
    /// Core-clock search window, ascending (same window the search uses).
    ladder: Vec<MegaHertz>,
    /// Memory P-states, descending; just the default when the memory axis
    /// is closed.
    mem_ladder: Vec<MegaHertz>,
    mem_default: MegaHertz,
    voltage: VoltageParams,
    /// Probe plan shared by every kernel: (core, mem) points to measure.
    plan: Vec<(MegaHertz, MegaHertz)>,
    kernels: BTreeMap<FuncId, KernelState>,
    models: ModelTable,
    /// The coarse-to-refine machine kernels fall back to.
    search: OnlineTuner,
    search_fallbacks: u64,
}

impl PredictiveTuner {
    /// Build a predictive tuner over `spec`'s (core, memory) ladders.
    pub fn new(spec: &GpuSpec, cfg: PredictiveConfig) -> Result<Self, OnlineError> {
        cfg.validate()?;
        Self::build(spec, cfg)
    }

    /// The plain coarse-to-refine search behind the same interface: no
    /// probe plan, so every kernel is born in the search phase and this
    /// tuner proposes, records and pins exactly like a bare [`OnlineTuner`]
    /// built from `cfg`. It fits no models, counts no fallbacks and leaves
    /// the memory clock alone.
    pub fn search_only(spec: &GpuSpec, cfg: OnlineTunerConfig) -> Result<Self, OnlineError> {
        Self::build(
            spec,
            PredictiveConfig {
                search: cfg,
                probe_rungs: 0,
                ..PredictiveConfig::default()
            },
        )
    }

    fn build(spec: &GpuSpec, cfg: PredictiveConfig) -> Result<Self, OnlineError> {
        let search = OnlineTuner::new(spec, cfg.search.clone())?;
        let ladder = search.ladder().to_vec();
        let mem_default = spec.mem_clock;
        let mem_ladder = if cfg.tune_memory && spec.mem_clock_table.len() > 1 {
            spec.mem_clock_table.clone()
        } else {
            vec![mem_default]
        };
        let voltage = VoltageParams {
            v_min: spec.voltage.v_min.0,
            v_max: spec.voltage.v_max.0,
            f_min_mhz: f64::from(spec.voltage.f_min.0),
            f_max_mhz: f64::from(spec.voltage.f_max.0),
        };
        let mut tuner = PredictiveTuner {
            cfg,
            ladder,
            mem_ladder,
            mem_default,
            voltage,
            plan: Vec::new(),
            kernels: BTreeMap::new(),
            models: BTreeMap::new(),
            search,
            search_fallbacks: 0,
        };
        tuner.plan = tuner.probe_plan();
        Ok(tuner)
    }

    /// Core probes spread evenly over the window, top and bottom included,
    /// measured top-down (the safe clocks first); then one memory probe at
    /// the lowest P-state to open the second axis. Empty for a search-only
    /// tuner (`probe_rungs == 0`, memory axis closed).
    fn probe_plan(&self) -> Vec<(MegaHertz, MegaHertz)> {
        let n = self.ladder.len();
        let k = (self.cfg.probe_rungs as usize).min(n);
        let mut plan: Vec<(MegaHertz, MegaHertz)> = (0..k)
            .map(|j| {
                let idx = if k == 1 {
                    n - 1
                } else {
                    (n - 1) * (k - 1 - j) / (k - 1)
                };
                (self.ladder[idx], self.mem_default)
            })
            .collect();
        plan.dedup();
        if self.mem_ladder.len() > 1 {
            let lowest = *self.mem_ladder.last().expect("non-empty mem ladder");
            plan.push((*self.ladder.last().expect("non-empty ladder"), lowest));
        }
        plan
    }

    /// The phase a kernel starts in: probing, or straight into the search
    /// when there is nothing to probe.
    fn birth_phase(&self) -> Phase {
        if self.plan.is_empty() {
            Phase::Search
        } else {
            Phase::Probe { at: 0 }
        }
    }

    /// Whether proposals carry a memory clock the caller should apply.
    /// False for a search-only tuner: it tunes the core clock only and the
    /// memory P-state stays wherever the job put it.
    pub fn drives_memory_clock(&self) -> bool {
        !self.plan.is_empty()
    }

    /// Lower the core-clock ceiling (power-cap composition). Must run
    /// before any measurements; warm-started kernels are re-clamped (search)
    /// or re-predicted (model) over the shrunk window.
    pub fn set_ceiling(&mut self, ceiling: MegaHertz) {
        assert!(
            self.exploration_launches() == 0,
            "set_ceiling must run before tuning starts"
        );
        self.search.set_ceiling(ceiling);
        self.ladder = self.search.ladder().to_vec();
        self.plan = self.probe_plan();
        let models = std::mem::take(&mut self.models);
        self.kernels.retain(|_, st| st.phase == Phase::Search);
        self.pin_from_models(&models);
    }

    /// Warm-start from what an earlier run learned. Kernels with a stored
    /// model jump straight to its predicted optimum — no probe phase, no
    /// verification launches; the rest of `warm.table` pins through the
    /// inner search, so nothing listed explores. A search-only tuner has no
    /// model path and uses the table alone.
    pub fn warm_start(&mut self, warm: &WarmState) {
        if self.drives_memory_clock() {
            self.pin_from_models(&warm.models);
        }
        let rest: LearnedTable = warm
            .table
            .iter()
            .filter(|(f, _)| !self.kernels.contains_key(f))
            .map(|(f, m)| (*f, *m))
            .collect();
        self.search.warm_start(&rest);
        for func in rest.keys() {
            self.kernels
                .insert(*func, KernelState::fresh(Phase::Search));
        }
    }

    fn pin_from_models(&mut self, models: &ModelTable) {
        let core: Vec<u32> = self.ladder.iter().map(|f| f.0).collect();
        let mem: Vec<u32> = self.mem_ladder.iter().map(|f| f.0).collect();
        for (func, m) in models {
            if let Some(p) = m.predict_optimum(&core, &mem) {
                let mut st = KernelState::fresh(Phase::Pinned);
                st.predicted = Some((MegaHertz(p.f_core_mhz), MegaHertz(p.f_mem_mhz)));
                self.kernels.insert(*func, st);
                self.models.insert(*func, m.clone());
            }
        }
    }

    /// The warm state a later run can start from: pinned clocks plus the
    /// fitted models behind them.
    pub fn learned(&self) -> WarmState {
        WarmState {
            table: self.table(),
            models: self.models.clone(),
        }
    }

    /// The (core, memory) clocks the next launch of `func` should run at.
    pub fn propose(&mut self, func: FuncId) -> (MegaHertz, MegaHertz) {
        let born = self.birth_phase();
        let st = self
            .kernels
            .entry(func)
            .or_insert_with(|| KernelState::fresh(born));
        match st.phase {
            Phase::Probe { at } => self.plan[at.min(self.plan.len() - 1)],
            Phase::Verify | Phase::Pinned => {
                st.predicted.expect("predicted point set before verify")
            }
            Phase::Search => (self.search.propose(func), self.mem_default),
        }
    }

    /// Feed back one measured launch at the clocks it actually ran at.
    pub fn record(
        &mut self,
        func: FuncId,
        core: MegaHertz,
        mem: MegaHertz,
        energy_j: f64,
        time_s: f64,
    ) -> RecordOutcome {
        let min_samples = self.cfg.search.min_samples as usize;
        let quarantine_after = self.cfg.search.quarantine_after;
        let born = self.birth_phase();
        let st = self
            .kernels
            .entry(func)
            .or_insert_with(|| KernelState::fresh(born));
        if st.phase == Phase::Search {
            return self.search.record(func, core, energy_j, time_s);
        }
        if st.phase != Phase::Pinned {
            st.explore_launches += 1;
        }
        let invalid =
            !energy_j.is_finite() || !time_s.is_finite() || energy_j <= 0.0 || time_s <= 0.0;
        // A finite sample can still be garbage: a straggler stall or a
        // transient thermal clamp inflates EDP far beyond anything the
        // roofline surface produces across the probe window. Judge it
        // against the kernel's accepted probe evidence, the same one-sided
        // guard the search applies per rung. Pinned kernels are excluded —
        // drift there is the model's job to notice, not the guard's.
        let outlier = !invalid && !matches!(st.phase, Phase::Pinned) && {
            let edp = |e: f64, t: f64| archsim::EnergyDelay::of(e, t).0;
            let (sum, n) = st
                .acc
                .iter()
                .map(|&(e, t, _, _)| edp(e, t))
                .chain(st.samples.iter().map(|s| edp(s.energy_j, s.time_s)))
                .fold((0.0, 0u32), |(sum, n), v| (sum + v, n + 1));
            n > 0 && edp(energy_j, time_s) > self.cfg.search.outlier_factor * (sum / f64::from(n))
        };
        if invalid || outlier {
            st.consecutive_invalid += 1;
            if st.consecutive_invalid >= quarantine_after {
                // Faulty measurements cannot anchor a fit: quarantine the
                // probe and hand the kernel to the search, which carries
                // its own (deeper) resilience ladder.
                Self::fall_back(
                    &mut self.search,
                    &mut self.search_fallbacks,
                    func,
                    st,
                    "probe_quarantined",
                );
                return RecordOutcome::Quarantined;
            }
            return RecordOutcome::RejectedInvalid;
        }
        st.consecutive_invalid = 0;
        match st.phase {
            Phase::Probe { at } => {
                st.acc.push((energy_j, time_s, core, mem));
                if st.acc.len() >= min_samples {
                    st.samples.push(st.mean_sample());
                    st.acc.clear();
                    if at + 1 < self.plan.len() {
                        st.phase = Phase::Probe { at: at + 1 };
                    } else {
                        Self::fit_and_predict(
                            &self.cfg,
                            &self.ladder,
                            &self.mem_ladder,
                            self.voltage,
                            &mut self.models,
                            &mut self.search,
                            &mut self.search_fallbacks,
                            func,
                            st,
                        );
                    }
                }
                RecordOutcome::Accepted
            }
            Phase::Verify => {
                st.acc.push((energy_j, time_s, core, mem));
                if st.acc.len() >= min_samples {
                    let sample = st.mean_sample();
                    st.acc.clear();
                    let model = self.models.get(&func).expect("model fitted before verify");
                    if model.drifted(&sample, self.cfg.drift_tolerance) {
                        // The jump target does not measure like the model
                        // said it would — don't trust the rest of the
                        // surface either.
                        Self::fall_back(
                            &mut self.search,
                            &mut self.search_fallbacks,
                            func,
                            st,
                            "verify_failed",
                        );
                    } else {
                        st.phase = Phase::Pinned;
                        let (c, m) = st.predicted.expect("predicted set");
                        telemetry::instant(
                            "model",
                            "pin",
                            None,
                            vec![
                                ("func", func.name().into()),
                                ("core_mhz", c.0.into()),
                                ("mem_mhz", m.0.into()),
                                ("launches", st.explore_launches.into()),
                            ],
                        );
                    }
                }
                RecordOutcome::Accepted
            }
            Phase::Pinned => {
                let sample = Sample {
                    f_core_mhz: f64::from(core.0),
                    f_mem_mhz: f64::from(mem.0),
                    time_s,
                    energy_j,
                };
                let model = self.models.get(&func).expect("model fitted before pin");
                if model.drifted(&sample, self.cfg.drift_tolerance) {
                    st.drifted += 1;
                    if st.drifted >= self.cfg.drift_after {
                        // Refit-on-drift: thermal state or workload shape
                        // moved; measure fresh probes and fit again.
                        st.drifted = 0;
                        st.refits += 1;
                        st.samples.clear();
                        st.acc.clear();
                        st.predicted = None;
                        st.phase = Phase::Probe { at: 0 };
                        self.models.remove(&func);
                        telemetry::instant(
                            "model",
                            "refit",
                            None,
                            vec![("func", func.name().into()), ("refits", st.refits.into())],
                        );
                    }
                } else {
                    st.drifted = 0;
                }
                RecordOutcome::Accepted
            }
            Phase::Search => unreachable!("handled above"),
        }
    }

    /// Fit the model from the completed probe samples and either jump to
    /// the predicted optimum (entering verification) or fall back.
    #[allow(clippy::too_many_arguments)]
    fn fit_and_predict(
        cfg: &PredictiveConfig,
        ladder: &[MegaHertz],
        mem_ladder: &[MegaHertz],
        voltage: VoltageParams,
        models: &mut ModelTable,
        search: &mut OnlineTuner,
        search_fallbacks: &mut u64,
        func: FuncId,
        st: &mut KernelState,
    ) {
        let f_core_ref = f64::from(ladder.last().expect("non-empty ladder").0);
        let f_mem_ref = f64::from(mem_ladder.first().expect("non-empty mem ladder").0);
        let fitted = KernelModel::fit(&st.samples, f_core_ref, f_mem_ref, voltage);
        let model = match fitted {
            Ok(m) => m,
            Err(_) => {
                Self::fall_back(search, search_fallbacks, func, st, "fit_failed");
                return;
            }
        };
        telemetry::instant(
            "model",
            "fit",
            None,
            vec![
                ("func", func.name().into()),
                ("r2_time", model.diag.r2_time.into()),
                ("r2_power", model.diag.r2_power.into()),
                ("samples", (model.diag.samples as u64).into()),
            ],
        );
        if !model.diag.healthy(cfg.min_r2, cfg.max_fit_residual) {
            Self::fall_back(search, search_fallbacks, func, st, "fit_unhealthy");
            return;
        }
        let core: Vec<u32> = ladder.iter().map(|f| f.0).collect();
        let mem: Vec<u32> = mem_ladder.iter().map(|f| f.0).collect();
        let Some(p) = model.predict_optimum(&core, &mem) else {
            Self::fall_back(search, search_fallbacks, func, st, "empty_ladder");
            return;
        };
        telemetry::instant(
            "model",
            "predict",
            None,
            vec![
                ("func", func.name().into()),
                ("core_mhz", p.f_core_mhz.into()),
                ("mem_mhz", p.f_mem_mhz.into()),
                ("edp", p.edp.into()),
            ],
        );
        st.predicted = Some((MegaHertz(p.f_core_mhz), MegaHertz(p.f_mem_mhz)));
        st.phase = Phase::Verify;
        models.insert(func, model);
    }

    /// Hand a kernel to the inner search machine.
    fn fall_back(
        search: &mut OnlineTuner,
        search_fallbacks: &mut u64,
        func: FuncId,
        st: &mut KernelState,
        why: &'static str,
    ) {
        st.phase = Phase::Search;
        st.acc.clear();
        *search_fallbacks += 1;
        telemetry::counter_add("model.search_fallbacks", 1);
        telemetry::instant(
            "model",
            "fallback",
            None,
            vec![("func", func.name().into()), ("why", why.into())],
        );
        // Seed the search with the valid probe means so they aren't wasted.
        for s in &st.samples {
            search.record(
                func,
                MegaHertz(s.f_core_mhz.round() as u32),
                s.energy_j,
                s.time_s,
            );
        }
        let _ = search.propose(func);
    }

    /// True once `func` is pinned (by the model or by the search).
    pub fn is_pinned(&self, func: FuncId) -> bool {
        match self.kernels.get(&func) {
            Some(st) if st.phase == Phase::Pinned => true,
            Some(st) if st.phase == Phase::Search => self.search.is_pinned(func),
            _ => false,
        }
    }

    /// The search's windowed-EDP estimate at `func`'s current best rung;
    /// `None` while the model path owns the kernel.
    pub fn windowed_edp(&self, func: FuncId) -> Option<f64> {
        self.search.windowed_edp(func)
    }

    /// Learned core-clock table: pinned kernels only.
    pub fn table(&self) -> LearnedTable {
        let mut t = LearnedTable::new();
        for (func, st) in &self.kernels {
            match st.phase {
                Phase::Pinned => {
                    let (core, _) = st.predicted.expect("pinned has a point");
                    t.insert(*func, core);
                }
                Phase::Search => {
                    if let Some(f) = self.search.table().get(func) {
                        t.insert(*func, *f);
                    }
                }
                _ => {}
            }
        }
        t
    }

    /// Learned memory-clock table: pinned kernels only; search-owned
    /// kernels run at the default P-state. Empty for a search-only tuner,
    /// which never sets the memory clock.
    pub fn mem_table(&self) -> LearnedTable {
        let mut t = LearnedTable::new();
        if !self.drives_memory_clock() {
            return t;
        }
        for (func, st) in &self.kernels {
            match st.phase {
                Phase::Pinned => {
                    let (_, mem) = st.predicted.expect("pinned has a point");
                    t.insert(*func, mem);
                }
                Phase::Search if self.search.is_pinned(*func) => {
                    t.insert(*func, self.mem_default);
                }
                _ => {}
            }
        }
        t
    }

    /// Fitted models, for persistence and `--print-model`.
    pub fn models(&self) -> &ModelTable {
        &self.models
    }

    /// Launches spent while not pinned, across kernels (probe + verify +
    /// any launches the search fallback spent).
    pub fn exploration_launches(&self) -> u64 {
        self.kernels
            .values()
            .map(|s| s.explore_launches)
            .sum::<u64>()
            + self.search.exploration_launches()
    }

    /// How many kernels abandoned the model path for the search.
    pub fn search_fallbacks(&self) -> u64 {
        self.search_fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::GpuSpec;

    fn a100() -> GpuSpec {
        GpuSpec::a100_sxm4_80gb()
    }

    /// Synthetic measurement faithful to the analytic shape: additive
    /// roofline time plus CV²f power, with per-kernel compute share.
    fn measure(
        spec: &GpuSpec,
        t_comp: f64,
        t_mem: f64,
        core: MegaHertz,
        mem: MegaHertz,
    ) -> (f64, f64) {
        let fc = f64::from(core.0) / f64::from(spec.clock_table.max().0);
        let fm = f64::from(mem.0) / f64::from(spec.mem_clock.0);
        let t = t_mem / fm + t_comp / fc;
        let p = 80.0 + 150.0 * spec.voltage.dynamic_power_scale(core) + 40.0 * fm.powf(1.3);
        (p * t, t)
    }

    fn drive(
        tuner: &mut PredictiveTuner,
        spec: &GpuSpec,
        func: FuncId,
        t_comp: f64,
        t_mem: f64,
    ) -> u64 {
        for _ in 0..200 {
            if tuner.is_pinned(func) {
                break;
            }
            let (core, mem) = tuner.propose(func);
            let (e, t) = measure(spec, t_comp, t_mem, core, mem);
            tuner.record(func, core, mem, e, t);
        }
        tuner.exploration_launches()
    }

    #[test]
    fn jumps_to_the_optimum_in_a_handful_of_launches() {
        let spec = a100();
        let mut tuner = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        // Memory-bound kernel: optimum near the window floor.
        let launches = drive(&mut tuner, &spec, FuncId::XMass, 0.004, 0.060);
        assert!(tuner.is_pinned(FuncId::XMass));
        let pinned = tuner.table()[&FuncId::XMass];
        assert!(pinned <= MegaHertz(1065), "pinned at {pinned}");
        // 4 probes + 1 verification, min_samples = 2 → 10 launches, far
        // below the search's typical dozens.
        assert!(launches <= 12, "spent {launches} launches");
        assert_eq!(tuner.search_fallbacks(), 0);
        assert!(tuner.models().contains_key(&FuncId::XMass));
    }

    #[test]
    fn compute_bound_kernel_pins_high() {
        let spec = a100();
        let mut tuner = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        drive(&mut tuner, &spec, FuncId::MomentumEnergy, 0.080, 0.004);
        let pinned = tuner.table()[&FuncId::MomentumEnergy];
        assert!(pinned >= MegaHertz(1290), "pinned at {pinned}");
    }

    #[test]
    fn memory_axis_downclocks_memory_for_compute_bound_kernels() {
        let spec = a100();
        let cfg = PredictiveConfig {
            tune_memory: true,
            ..PredictiveConfig::default()
        };
        let mut tuner = PredictiveTuner::new(&spec, cfg).unwrap();
        drive(&mut tuner, &spec, FuncId::Gravity, 0.080, 0.001);
        assert!(tuner.is_pinned(FuncId::Gravity));
        let mem = tuner.mem_table()[&FuncId::Gravity];
        assert!(mem < spec.mem_clock, "mem pinned at {mem}");
        // And a memory-bound kernel keeps the top P-state.
        drive(&mut tuner, &spec, FuncId::XMass, 0.002, 0.080);
        assert_eq!(tuner.mem_table()[&FuncId::XMass], spec.mem_clock);
    }

    #[test]
    fn quarantined_probes_fall_back_to_the_search() {
        let spec = a100();
        let mut tuner = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        let func = FuncId::FindNeighbors;
        // Feed glitched measurements until the guard quarantines the probe.
        for _ in 0..tuner.cfg.search.quarantine_after {
            let (core, mem) = tuner.propose(func);
            let out = tuner.record(func, core, mem, f64::NAN, 0.1);
            assert!(matches!(
                out,
                RecordOutcome::RejectedInvalid | RecordOutcome::Quarantined
            ));
        }
        assert_eq!(tuner.search_fallbacks(), 1);
        // The search now owns the kernel and converges on good samples.
        for _ in 0..200 {
            if tuner.is_pinned(func) {
                break;
            }
            let (core, mem) = tuner.propose(func);
            let (e, t) = measure(&spec, 0.03, 0.03, core, mem);
            tuner.record(func, core, mem, e, t);
        }
        assert!(tuner.is_pinned(func));
    }

    #[test]
    fn probe_outliers_are_rejected_not_fitted() {
        let spec = a100();
        let mut tuner = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        let func = FuncId::XMass;
        // One clean sample anchors the kernel's probe evidence.
        let (core, mem) = tuner.propose(func);
        let (e, t) = measure(&spec, 0.002, 0.030, core, mem);
        assert_eq!(tuner.record(func, core, mem, e, t), RecordOutcome::Accepted);
        // A finite but absurd measurement (straggler-class inflation) must
        // be rejected by the probe guard, not averaged into the rung.
        let (core, mem) = tuner.propose(func);
        let out = tuner.record(func, core, mem, e * 50.0, t * 50.0);
        assert_eq!(out, RecordOutcome::RejectedInvalid);
        assert_eq!(tuner.search_fallbacks(), 0, "one outlier is not a fallback");
        // Clean samples resume as if the outlier never happened, and the
        // kernel still pins through the model path.
        drive(&mut tuner, &spec, func, 0.002, 0.030);
        assert!(tuner.is_pinned(func));
        assert_eq!(tuner.search_fallbacks(), 0);
    }

    #[test]
    fn unfittable_kernel_falls_back_to_the_search() {
        let spec = a100();
        let mut tuner = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        let func = FuncId::Timestep;
        // Zig-zag response no roofline can express: time alternates with the
        // probe rung (deterministic per clock, so averaging keeps the shape).
        for _ in 0..200 {
            if tuner.is_pinned(func) || tuner.search_fallbacks() > 0 {
                break;
            }
            let (core, mem) = tuner.propose(func);
            let t = if (core.0 / 15) % 2 == 0 { 0.5 } else { 0.05 };
            tuner.record(func, core, mem, 100.0 * t, t);
        }
        assert_eq!(tuner.search_fallbacks(), 1, "bad fit must fall back");
    }

    #[test]
    fn drift_triggers_a_refit() {
        let spec = a100();
        let mut tuner = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        let func = FuncId::AVSwitches;
        drive(&mut tuner, &spec, func, 0.040, 0.020);
        assert!(tuner.is_pinned(func));
        // The kernel's shape changes: pinned samples now read 2× slower.
        for _ in 0..tuner.cfg.drift_after {
            let (core, mem) = tuner.propose(func);
            let (e, t) = measure(&spec, 0.100, 0.040, core, mem);
            tuner.record(func, core, mem, e, t);
        }
        assert!(!tuner.is_pinned(func), "drift must reopen the search");
        assert!(!tuner.models().contains_key(&func));
        // It re-probes and re-pins on the new shape.
        drive(&mut tuner, &spec, func, 0.100, 0.040);
        assert!(tuner.is_pinned(func));
        assert!(tuner.models().contains_key(&func));
    }

    #[test]
    fn warm_start_from_models_skips_probing() {
        let spec = a100();
        let mut cold = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        drive(&mut cold, &spec, FuncId::XMass, 0.004, 0.060);
        let cold_table = cold.table();

        let mut warm = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        warm.warm_start(&cold.learned());
        assert!(warm.is_pinned(FuncId::XMass));
        assert_eq!(warm.exploration_launches(), 0);
        assert_eq!(warm.table(), cold_table);
    }

    /// The instrument drives `ManDynOnline` through a search-only tuner, so
    /// it must be the bare search call for call: cold, warm-started, under a
    /// ceiling, and with glitched and outlier samples in the stream.
    #[test]
    fn search_only_tuner_is_the_bare_search_call_for_call() {
        let spec = a100();
        let cfg = OnlineTunerConfig::default();
        let kernels = [
            (FuncId::XMass, 0.004, 0.060),
            (FuncId::MomentumEnergy, 0.080, 0.004),
            (FuncId::FindNeighbors, 0.030, 0.030),
        ];
        // A warm state as a predictive run would have stored it: the model
        // it carries must not reach the search-only tuner.
        let stored = {
            let mut cold = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
            drive(&mut cold, &spec, FuncId::XMass, 0.004, 0.060);
            cold.learned()
        };
        assert!(!stored.table.is_empty() && !stored.models.is_empty());

        let mut verdicts = Vec::new();
        for (warm, ceiling) in [
            (false, None),
            (true, None),
            (false, Some(MegaHertz(1200))),
            (true, Some(MegaHertz(1200))),
        ] {
            let case = format!("warm={warm} ceiling={ceiling:?}");
            let mut bare = OnlineTuner::new(&spec, cfg.clone()).unwrap();
            let mut wrapped = PredictiveTuner::search_only(&spec, cfg.clone()).unwrap();
            assert!(!wrapped.drives_memory_clock());
            if warm {
                bare.warm_start(&stored.table);
                wrapped.warm_start(&stored);
            }
            if let Some(c) = ceiling {
                bare.set_ceiling(c);
                wrapped.set_ceiling(c);
            }
            for step in 0..150u32 {
                for &(func, t_comp, t_mem) in &kernels {
                    let core = bare.propose(func);
                    assert_eq!(wrapped.propose(func).0, core, "{case} step {step} {func}");
                    let (e, t) = measure(&spec, t_comp, t_mem, core, spec.mem_clock);
                    let (e, t) = match step % 11 {
                        3 => (f64::NAN, t),
                        // Three in a row reaches the quarantine threshold.
                        5..=7 if func == FuncId::FindNeighbors => (e * 50.0, t * 50.0),
                        _ => (e, t),
                    };
                    let verdict = bare.record(func, core, e, t);
                    assert_eq!(
                        wrapped.record(func, core, spec.mem_clock, e, t),
                        verdict,
                        "{case} step {step} {func}"
                    );
                    if !verdicts.contains(&verdict) {
                        verdicts.push(verdict);
                    }
                    assert_eq!(wrapped.is_pinned(func), bare.is_pinned(func), "{case}");
                }
                assert_eq!(wrapped.table(), bare.table(), "{case} step {step}");
                assert_eq!(
                    wrapped.exploration_launches(),
                    bare.exploration_launches(),
                    "{case} step {step}"
                );
            }
            assert!(bare.all_pinned(), "{case}: the sequence must reach pins");
            assert_eq!(wrapped.search_fallbacks(), 0, "{case}");
            assert!(wrapped.mem_table().is_empty(), "{case}");
            assert_eq!(
                wrapped.learned(),
                WarmState {
                    table: bare.table(),
                    models: ModelTable::new()
                },
                "{case}"
            );
        }
        for v in [
            RecordOutcome::Accepted,
            RecordOutcome::RejectedInvalid,
            RecordOutcome::RejectedOutlier,
            RecordOutcome::Quarantined,
        ] {
            assert!(verdicts.contains(&v), "the sequence never produced {v:?}");
        }
    }

    #[test]
    fn ceiling_after_a_model_warm_start_predicts_again_under_it() {
        let spec = a100();
        let mut cold = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        drive(&mut cold, &spec, FuncId::MomentumEnergy, 0.080, 0.004);
        assert!(cold.table()[&FuncId::MomentumEnergy] > MegaHertz(1200));

        // The runner warm-starts first and applies the power cap second.
        let mut warm = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        warm.warm_start(&cold.learned());
        warm.set_ceiling(MegaHertz(1200));
        assert!(warm.is_pinned(FuncId::MomentumEnergy));
        assert!(warm.table()[&FuncId::MomentumEnergy] <= MegaHertz(1200));
        assert_eq!(warm.exploration_launches(), 0);
    }

    #[test]
    fn ceiling_caps_the_prediction() {
        let spec = a100();
        let mut tuner = PredictiveTuner::new(&spec, PredictiveConfig::default()).unwrap();
        tuner.set_ceiling(MegaHertz(1200));
        drive(&mut tuner, &spec, FuncId::MomentumEnergy, 0.080, 0.004);
        let pinned = tuner.table()[&FuncId::MomentumEnergy];
        assert!(pinned <= MegaHertz(1200), "pinned at {pinned}");
    }
}
