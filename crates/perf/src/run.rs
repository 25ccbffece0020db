//! One workload, start to finish: the untraced run that yields the
//! end-to-end metrics, the traced run that yields the per-layer ones, and
//! the correctness checks around both.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use freqscale::{ExperimentResult, ExperimentSpec, FreqPolicy};
use sph::FuncId;

use crate::host::{self, Scratch, Stopwatch};
use crate::metrics::{median, percentile, tail, Measured, MetricSet, On};
use crate::probes::{self, Effort};
use crate::replica::{run_traced, Fingerprint, TracedRun};
use crate::results::{Check, Prediction, ResultFile};
use crate::serve_load::{self, JobStamps, ServeRun};
use crate::trace::SpanStore;
use crate::workloads::{self, Sizing, Workload};

/// Relative total-energy change (first → last step) the traced run may
/// show. The two resolved workloads measure 0.2 % (turbulence, 25 steps)
/// and 0.4 % (Evrard, 40 steps). The registry's CI-sized ICs are 512–1000
/// particles: their under-resolved shocks (Sedov, Sod) gain 20–25 % over
/// 70–80 steps, so cells and jobs get a bound that only a blown-up
/// integrator — off by orders of magnitude, not percent — exceeds.
fn energy_drift_bound(workload: Workload) -> f64 {
    match workload {
        Workload::Turb100k | Workload::Evrard2Rank => 0.05,
        Workload::Matrix48 | Workload::ServeClosed => 0.5,
    }
}

/// Jobs in the service-floor probe that fills `serve.*` on a batch workload
/// for the PR driver (see [`Mode::every_metric`]).
const SERVICE_PROBE_JOBS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: end-to-end metrics only.
    Untraced,
    /// `--trace 1`: an untraced reference, then the traced run.
    Traced,
    /// One untraced run feeding both sets (the `perf run` children).
    Both,
}

impl Mode {
    /// `--trace 0` and `--trace 1` are the PR driver's modes, and its
    /// contract wants every declared metric from every workload. There —
    /// and only there — metrics off a workload's path are filled in: a
    /// batch call counts as one job, and the off-path layers are probed at
    /// their floor (a checkpoint of the final state, a tuner sweep, six
    /// recorded cells, eight toy jobs through a daemon). `perf run`'s own
    /// result files, and so `perf compare`, carry on-path metrics only.
    pub fn every_metric(self) -> bool {
        self != Mode::Both
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub sizing: Sizing,
    pub effort: Effort,
    pub mode: Mode,
}

pub struct Outcome {
    pub result: ResultFile,
    /// Span tree of the traced run, when there was one.
    pub spans: Option<SpanStore>,
}

struct Ctx<'a> {
    cfg: &'a RunConfig,
    scratch: Scratch,
    jobs: usize,
    checks: Vec<Check>,
    predictions: Vec<Prediction>,
    ops_attempted: u64,
    ops_failed: u64,
}

impl Ctx<'_> {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.ops_attempted += 1;
        self.ops_failed += u64::from(!ok);
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    fn predict(&mut self, name: &str, confirmed: bool, detail: String) {
        self.predictions.push(Prediction {
            name: name.to_string(),
            confirmed,
            detail,
        });
    }

    fn ops(&mut self, attempted: u64, failed: u64) {
        self.ops_attempted += attempted;
        self.ops_failed += failed;
    }

    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.path().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

/// What the untraced run hands the traced one to compare against.
enum Reference {
    Batch(Vec<ExperimentResult>),
    Serve(ServeRun),
}

struct Untraced {
    wall_s: f64,
    cpu_s: f64,
    /// `VmHWM` right after the measured call.
    peak_rss_mb: f64,
    setup_samples: Vec<f64>,
    ops: u64,
    /// Per-job latencies. A batch workload has no jobs; for the PR driver
    /// (see [`Mode::every_metric`]) the call itself counts as one.
    latencies: Vec<f64>,
    reference: Reference,
}

// ---- batch workloads (turb_100k, evrard_2rank, matrix_48) ---------------------

/// Everything a user does before the runner is called: the offline ManDyn
/// table for Evrard, cube expansion + spec round-trip for the matrix.
/// `steps` overrides the step count (`Some(1)` is the set-up measurement).
fn build_specs(cfg: &RunConfig, steps: Option<usize>, ckdir: &Path) -> Vec<ExperimentSpec> {
    let (seed, sizing) = (cfg.seed, &cfg.sizing);
    match cfg.workload {
        Workload::Turb100k => vec![workloads::turb_spec(
            seed,
            sizing,
            steps.unwrap_or(sizing.turb_steps),
        )],
        Workload::Evrard2Rank => vec![workloads::evrard_spec(
            FreqPolicy::ManDyn(workloads::evrard_table()),
            sizing,
            steps.unwrap_or(sizing.evrard_steps),
            ckdir,
        )],
        Workload::Matrix48 => workloads::matrix_specs(seed, sizing),
        Workload::ServeClosed => unreachable!("serve_closed is not a batch workload"),
    }
}

fn execute(specs: &[ExperimentSpec], jobs: usize) -> Vec<ExperimentResult> {
    match specs {
        [one] => vec![freqscale::run_experiment(one)],
        many => freqscale::run_experiments(many, jobs),
    }
}

/// Every function a cell ran has a pinned clock in its learned table.
fn publishes_table(r: &ExperimentResult) -> bool {
    let rank = &r.per_rank[0];
    !rank.learned_table.is_empty() && rank.learned_table.len() == rank.functions.len()
}

/// One set-up as a user pays it: a one-step run of the same call for the
/// step workloads, the cube expansion alone for the matrix. Returns the
/// wall seconds and, for a step workload, the one-step result.
fn one_setup(ctx: &Ctx) -> (f64, Option<ExperimentResult>) {
    let ckdir = ctx.fresh_dir("ck");
    let t = Instant::now();
    let result = if ctx.cfg.workload == Workload::Matrix48 {
        black_box(build_specs(ctx.cfg, None, &ckdir));
        None
    } else {
        Some(execute(&build_specs(ctx.cfg, Some(1), &ckdir), ctx.jobs).remove(0))
    };
    (t.elapsed().as_secs_f64(), result)
}

/// The untraced run. `timed` (`--trace 0`): the measured call is the first
/// thing the fresh process does — a user's invocation is a cold process
/// too, and its peak RSS is then one call's, not a pile-up of repeats —
/// and the set-up repeats follow. Untimed (`--trace 1`): the call is only
/// the traced run's reference, so one set-up run goes first and neither of
/// the two runs being compared is the process's first.
fn untraced_batch(ctx: &mut Ctx, timed: bool) -> Untraced {
    let cfg = ctx.cfg;
    let mut setup_result = None;
    if !timed {
        setup_result = one_setup(ctx).1;
    }

    let ckdir = ctx.fresh_dir("ck");
    let sw = Stopwatch::start();
    let specs = build_specs(cfg, None, &ckdir);
    let results = execute(&specs, ctx.jobs);
    let (wall_s, cpu_s) = sw.stop();
    let peak_rss_mb = host::peak_rss_mb();

    let mut setup_samples = Vec::new();
    if timed {
        let repeats = match cfg.workload {
            Workload::Matrix48 => cfg.sizing.quick_setup_repeats,
            _ => cfg.sizing.setup_repeats,
        };
        let mut prints = Vec::new();
        for _ in 0..repeats {
            let (seconds, result) = one_setup(ctx);
            setup_samples.push(seconds);
            prints.extend(result.as_ref().map(Fingerprint::of));
            setup_result = result;
        }
        if prints.len() > 1 {
            ctx.check(
                "same_seed_runs_agree",
                prints.windows(2).all(|w| w[0] == w[1]),
                format!(
                    "{} one-step runs, digest {:#x}",
                    prints.len(),
                    prints[0].state_digest
                ),
            );
        }
    }

    let ops = match cfg.workload {
        Workload::Matrix48 => {
            let unpublished = if cfg.sizing.tuners_converge() {
                results.iter().filter(|r| !publishes_table(r)).count() as u64
            } else {
                0
            };
            ctx.ops(results.len() as u64, unpublished);
            if timed {
                let again = freqscale::run_experiment(&specs[0]);
                ctx.check(
                    "same_seed_runs_agree",
                    Fingerprint::of(&again) == Fingerprint::of(&results[0]),
                    format!("cell 0 re-run, digest {:#x}", again.state_digest),
                );
            }
            results.len() as u64
        }
        _ => {
            let steady = specs[0].steps as u64 - 1;
            ctx.ops(steady, 0);
            steady
        }
    };
    if let (Workload::Evrard2Rank, Some(mandyn)) = (cfg.workload, &setup_result) {
        let baseline = freqscale::run_experiment(&workloads::evrard_spec(
            FreqPolicy::Baseline,
            &cfg.sizing,
            1,
            &ctx.fresh_dir("ck-baseline"),
        ));
        ctx.check(
            "mandyn_gpu_edp_le_baseline",
            mandyn.gpu_edp() <= baseline.gpu_edp(),
            format!(
                "one step, virtual clock: ManDyn {:.6e} vs Baseline {:.6e} J·s",
                mandyn.gpu_edp(),
                baseline.gpu_edp()
            ),
        );
    }
    Untraced {
        wall_s,
        cpu_s,
        peak_rss_mb,
        setup_samples,
        ops,
        latencies: vec![wall_s],
        reference: Reference::Batch(results),
    }
}

// ---- serve_closed -------------------------------------------------------------

fn check_serve_run(ctx: &mut Ctx, run: &ServeRun, label: &str) {
    let sizing = ctx.cfg.sizing;
    let bad = run.jobs.iter().filter(|j| !j.ok || j.rejected).count() as u64;
    ctx.ops(run.jobs.len() as u64, bad);
    ctx.check(
        &format!("{label}_all_jobs_ok"),
        bad == 0 && run.stats.jobs_rejected == 0 && run.stats.jobs_failed == 0,
        format!(
            "{} jobs, {bad} not ok, daemon counted {} rejected / {} failed",
            run.jobs.len(),
            run.stats.jobs_rejected,
            run.stats.jobs_failed
        ),
    );
    if sizing.tuners_converge() {
        let keys = workloads::serve_distinct_keys(&sizing) as u64;
        ctx.check(
            &format!("{label}_one_exploration_per_key"),
            run.stats.tables.explorations == keys,
            format!(
                "{} lease explorations for {keys} keys",
                run.stats.tables.explorations
            ),
        );
    }
    // Warm jobs of one key run the same spec from the same served table:
    // their carried state must match bit for bit.
    let mut by_key: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    for j in run.jobs.iter().filter(|j| j.ok && j.warm_start) {
        let key = j.name.rsplit_once('-').map_or(j.name.as_str(), |(k, _)| k);
        let digest = j
            .report
            .as_deref()
            .and_then(|r| ExperimentResult::from_json(r).ok())
            .map_or(0, |r| r.state_digest);
        by_key.entry(key).or_default().push(digest);
    }
    let agree = by_key
        .values()
        .all(|d| d.windows(2).all(|w| w[0] == w[1] && w[0] != 0));
    ctx.check(
        &format!("{label}_same_seed_runs_agree"),
        agree,
        format!("warm jobs compared within {} keys", by_key.len()),
    );
}

fn untraced_serve(ctx: &mut Ctx, timed: bool, epoch: Instant) -> Untraced {
    let cfg = ctx.cfg;
    let dir = ctx.fresh_dir("serve-untraced");
    let sw = Stopwatch::start();
    let jobs = workloads::serve_jobs(cfg.seed, &cfg.sizing);
    let run = serve_load::run(&dir, &jobs, ctx.jobs, 1, epoch).expect("closed loop completes");
    let (wall_s, cpu_s) = sw.stop();
    let peak_rss_mb = host::peak_rss_mb();
    check_serve_run(ctx, &run, "untraced");

    let mut setup_samples = vec![run.setup_s];
    if timed {
        for i in 0..cfg.sizing.quick_setup_repeats {
            let dir = ctx.fresh_dir(&format!("setup-{i}"));
            // A daemon lifetime with no jobs: start, first `Pong`, shutdown.
            let idle = serve_load::run(&dir, &[], ctx.jobs, 0, epoch).expect("daemon set-up");
            setup_samples.push(idle.setup_s);
        }
    }
    Untraced {
        wall_s,
        cpu_s,
        peak_rss_mb,
        setup_samples,
        ops: run.jobs.len() as u64,
        latencies: run.jobs.iter().map(JobStamps::latency_s).collect(),
        reference: Reference::Serve(run),
    }
}

// ---- end-to-end ---------------------------------------------------------------

fn end_to_end(cfg: &RunConfig, u: &Untraced) -> Vec<Measured> {
    let mut m = MetricSet::new(cfg.workload, cfg.mode.every_metric());
    let setup_s = median(&u.setup_samples);
    m.end_to_end("wall_s", u.wall_s);
    m.end_to_end("setup_s", setup_s);
    m.end_to_end("cpu_s", u.cpu_s);
    m.end_to_end("peak_rss_mb", u.peak_rss_mb);
    m.end_to_end("ops_per_s", u.ops as f64 / (u.wall_s - setup_s));
    // Nearest-rank like the tail, so p90 can never read below p50.
    m.end_to_end("job_p50_s", percentile(&u.latencies, 50.0));
    m.end_to_end("job_p90_s", tail(&u.latencies, 90.0).1);
    if host::host_threads() < 2 {
        m.mark_wall_clock_degraded();
    }
    m.into_values()
}

// ---- per-layer ----------------------------------------------------------------

/// `(run, step)`-pooled samples over steady steps (the first step of a run
/// pays first-touch and cold tuners, so it is skipped when there is more
/// than one), each the max over ranks — ranks run in lock step, the slowest
/// one sets the step.
fn steady_samples(
    runs: &[TracedRun],
    f: impl Fn(&crate::trace::StepStamps) -> Option<u64>,
) -> Vec<f64> {
    let mut out = Vec::new();
    for run in runs {
        let n = run.ranks[0].steps.len();
        for s in usize::from(n > 1)..n {
            let v = run.ranks.iter().filter_map(|r| f(&r.steps[s])).max();
            out.extend(v.map(|ns| ns as f64));
        }
    }
    out
}

/// Steady-step phase times of `func`, over the steps where it ran.
fn phase_samples(runs: &[TracedRun], func: FuncId) -> Vec<f64> {
    steady_samples(runs, |s| {
        s.calls
            .iter()
            .any(|c| c.func == func)
            .then(|| s.phase_ns(func))
    })
}

/// Gravity's slot in the step: the phase where it ran; where it did not,
/// the measured gap between MomentumEnergy's exit and Timestep's entry —
/// so "gravity costs nothing here" is a measurement, not an assumption.
fn gravity_ms(runs: &[TracedRun]) -> (f64, bool) {
    let ran = phase_samples(runs, FuncId::Gravity);
    if !ran.is_empty() {
        return (median(&ran) / 1e6, true);
    }
    let slot = steady_samples(runs, |s| {
        let exit = s.calls.iter().find(|c| c.func == FuncId::MomentumEnergy)?;
        let entry = s.calls.iter().find(|c| c.func == FuncId::Timestep)?;
        Some(entry.before_in - exit.after_out)
    });
    (median(&slot) / 1e6, false)
}

fn sph_and_core_from_stamps(ctx: &mut Ctx, m: &mut MetricSet, runs: &[TracedRun]) {
    let step = steady_samples(runs, |s| Some(s.wall_ns()));
    let step_p50 = median(&step) / 1e6;
    m.layer("sph.step_ms_p50", step_p50);
    m.layer("sph.step_ms_max", percentile(&step, 100.0) / 1e6);

    let (mut children, mut wall, mut instrument) = (0.0, 0.0, 0.0);
    let (mut before, mut after) = (Vec::new(), Vec::new());
    for run in runs {
        for rank in &run.ranks {
            for s in rank.steps.iter().skip(usize::from(rank.steps.len() > 1)) {
                children += s.children_ns() as f64;
                wall += s.wall_ns() as f64;
                for c in &s.calls {
                    instrument += c.instrument_ns() as f64;
                    before.push((c.before_out - c.before_in) as f64);
                    after.push((c.after_out - c.after_in) as f64);
                }
            }
        }
    }
    let closure = children / wall;
    m.layer("sph.phase_closure", closure);
    // Steps of a few ms (smoke scale) are dominated by per-step bookkeeping
    // outside the hooks; the closure bound is for real step sizes.
    if ctx.cfg.sizing.tuners_converge() {
        ctx.check(
            "phase_closure",
            closure >= 0.97,
            format!(
                "Σ phase+instrument spans = {:.4} of the step spans",
                closure
            ),
        );
    }

    for (name, func) in [
        ("sph.domain_sync_ms", FuncId::DomainDecompAndSync),
        ("sph.timestep_ms", FuncId::Timestep),
        ("sph.conservation_ms", FuncId::EnergyConservation),
        ("sph.find_neighbors_ms", FuncId::FindNeighbors),
        ("sph.density_ms", FuncId::NormalizationGradh),
        ("sph.iad_ms", FuncId::IADVelocityDivCurl),
        ("sph.momentum_ms", FuncId::MomentumEnergy),
        ("sph.xmass_ms", FuncId::XMass),
        ("sph.eos_ms", FuncId::EquationOfState),
        ("sph.av_ms", FuncId::AVSwitches),
        ("sph.update_ms", FuncId::UpdateQuantities),
    ] {
        m.layer(name, median(&phase_samples(runs, func)) / 1e6);
    }
    let (gravity, gravity_ran) = gravity_ms(runs);
    m.layer("sph.gravity_ms", gravity);
    m.layer(
        "sph.repartitions",
        runs.iter().map(|r| r.result.repartitions).sum::<u64>() as f64,
    );
    m.layer(
        "sph.migrated_particles",
        runs.iter()
            .map(|r| r.result.migrated_particles)
            .sum::<u64>() as f64,
    );
    let max_rank = |f: fn(&crate::replica::RankTrace) -> u64| -> Vec<f64> {
        runs.iter()
            .map(|r| r.ranks.iter().map(f).max().unwrap_or(0) as f64)
            .collect()
    };
    m.layer(
        "sph.ic_build_ms",
        median(&max_rank(|r| r.ic_build_ns)) / 1e6,
    );
    let drift = runs
        .iter()
        .map(|r| {
            let t = &r.ranks[0];
            ((t.energy_last - t.energy_first) / t.energy_first).abs()
        })
        .fold(0.0, f64::max);
    m.layer("sph.energy_drift", drift);
    let bound = energy_drift_bound(ctx.cfg.workload);
    ctx.check(
        "energy_drift",
        drift < bound,
        format!("max relative total-energy change {drift:.3e} (bound {bound})"),
    );

    m.layer("core.instrument_before_us", median(&before) / 1e3);
    m.layer("core.instrument_after_us", median(&after) / 1e3);
    let share = instrument / wall;
    m.layer("core.instrument_share", share);
    // A launch here is one instrumented function call (one `after` hook),
    // first steps included; the device-level kernel launches behind it are
    // the simulator's business.
    let calls: usize = runs
        .iter()
        .flat_map(|r| &r.ranks)
        .flat_map(|r| &r.steps)
        .map(|s| s.calls.len())
        .sum();
    m.layer("core.launches", calls as f64);
    m.layer("core.finish_ms", median(&max_rank(|r| r.finish_ns)) / 1e6);
    let per_run =
        |f: fn(&TracedRun) -> u64| -> Vec<f64> { runs.iter().map(|r| f(r) as f64).collect() };
    m.layer(
        "pmcounters.attach_ms",
        median(&per_run(|r| r.attach_ns)) / 1e6,
    );
    m.layer(
        "slurm.record_sacct_ms",
        median(&per_run(|r| r.slurm_ns)) / 1e6,
    );

    let first = &runs[0];
    let steps = first.ranks[0].steps.len().max(1) as f64;
    let comm = first.ranks[0].comm;
    m.layer(
        "ranks.collectives_per_step",
        comm.collectives as f64 / steps,
    );
    m.layer("ranks.p2p_bytes_per_step", comm.send_bytes as f64 / steps);
    m.layer(
        "ranks.collective_bytes_per_step",
        comm.collective_bytes as f64 / steps,
    );

    ctx.predict(
        "instrument_share_under_2pct",
        share < 0.02,
        format!("core.instrument_share = {share:.5}"),
    );
    if ctx.cfg.workload == Workload::Turb100k {
        let sweeps: f64 = ["find_neighbors", "density", "iad", "momentum"]
            .iter()
            .map(|p| m.get(&format!("sph.{p}_ms")).expect("set above"))
            .sum();
        ctx.predict(
            "sweeps_and_neighbors_ge_85pct_of_step",
            sweeps / step_p50 >= 0.85,
            format!("{sweeps:.1} of {step_p50:.1} ms = {:.3}", sweeps / step_p50),
        );
        ctx.predict(
            "gravity_is_zero",
            !gravity_ran && gravity / step_p50 < 1e-4,
            format!(
                "Gravity called: {gravity_ran}; its empty slot takes {gravity:.3e} of {step_p50:.1} ms"
            ),
        );
    }
}

fn serve_metrics(m: &mut MetricSet, run: &ServeRun) {
    let ms = |f: fn(&JobStamps) -> u64| -> Vec<f64> {
        run.jobs.iter().map(|j| f(j) as f64 / 1e6).collect()
    };
    let queue_wait = ms(|j| j.running_ns.saturating_sub(j.ack_ns));
    // Nearest-rank p50, like the tails: p90 can never read below it.
    m.layer(
        "serve.ack_ms_p50",
        percentile(&ms(|j| j.ack_ns - j.submit_ns), 50.0),
    );
    m.layer("serve.queue_wait_ms_p50", percentile(&queue_wait, 50.0));
    m.layer("serve.queue_wait_ms_p90", tail(&queue_wait, 90.0).1);
    m.layer(
        "serve.run_s_p50",
        percentile(&ms(|j| j.finished_ns.saturating_sub(j.running_ns)), 50.0) / 1e3,
    );
    m.layer("serve.ping_us", run.ping_s * 1e6);
    let bytes: u64 = run.jobs.iter().map(|j| j.frame_bytes).sum();
    m.layer(
        "serve.frame_bytes_per_job",
        bytes as f64 / run.jobs.len().max(1) as f64,
    );
    let t = &run.stats.tables;
    m.layer("serve.lease_explorations", t.explorations as f64);
    m.layer("serve.lease_warm_starts", t.warm_starts as f64);
    m.layer("serve.lease_waits", t.waits as f64);
    m.layer("serve.rejected", run.stats.jobs_rejected as f64);
}

fn serve_spans(store: &mut SpanStore, run: &ServeRun, run_id: u32) {
    for (i, j) in run.jobs.iter().enumerate() {
        let tid = i as u32;
        let job = store.push(
            None,
            run_id,
            tid,
            "job",
            j.name.as_str(),
            j.submit_ns,
            j.finished_ns,
        );
        let p = Some(job);
        store.push(p, run_id, tid, "serve", "ack", j.submit_ns, j.ack_ns);
        if j.running_ns >= j.ack_ns {
            store.push(p, run_id, tid, "serve", "queued", j.ack_ns, j.running_ns);
            store.push(p, run_id, tid, "serve", "run", j.running_ns, j.finished_ns);
        }
    }
}

/// The traced run of any workload, given the untraced reference.
fn per_layer(ctx: &mut Ctx, u: &Untraced, epoch: Instant) -> (Vec<Measured>, SpanStore) {
    let cfg = ctx.cfg;
    let effort = cfg.effort;
    let mut m = MetricSet::new(cfg.workload, cfg.mode.every_metric());
    let mut store = SpanStore::default();

    // ---- the traced run itself ------------------------------------------------
    let ckdir = ctx.fresh_dir("ck");
    let t = Instant::now();
    type Traced = (Vec<ExperimentSpec>, Vec<TracedRun>, Option<ServeRun>);
    let (specs, runs, service): Traced = match &u.reference {
        Reference::Batch(reference) => {
            let specs = build_specs(cfg, None, &ckdir);
            let runs: Vec<TracedRun> = match specs.as_slice() {
                [one] => vec![run_traced(one, epoch)],
                many => par::par_map_threads(ctx.jobs, many.len(), |i| run_traced(&many[i], epoch)),
            };
            let wall_t = t.elapsed().as_secs_f64();
            m.layer("trace_overhead_frac", (wall_t - u.wall_s) / u.wall_s);
            let same = runs
                .iter()
                .zip(reference)
                .filter(|(t, r)| Fingerprint::of(&t.result) == Fingerprint::of(r))
                .count();
            ctx.check(
                "traced_replica_matches_run_experiment",
                same == runs.len(),
                format!(
                    "{same}/{} runs agree on state_digest, pmt_gpu_j bits and learned tables",
                    runs.len()
                ),
            );
            let service = m.wants(On::Serve).then(|| {
                let probe = Sizing {
                    jobs: SERVICE_PROBE_JOBS,
                    job_steps: 3,
                    ..cfg.sizing
                };
                serve_load::run(
                    &ctx.fresh_dir("serve-probe"),
                    &workloads::serve_jobs(cfg.seed, &probe),
                    ctx.jobs,
                    effort.reps * 40,
                    epoch,
                )
                .expect("service probe completes")
            });
            (specs, runs, service)
        }
        Reference::Serve(reference) => {
            let jobs = workloads::serve_jobs(cfg.seed, &cfg.sizing);
            let service = serve_load::run(
                &ctx.fresh_dir("serve-traced"),
                &jobs,
                ctx.jobs,
                effort.reps * 40,
                epoch,
            )
            .expect("closed loop completes");
            let wall_t = t.elapsed().as_secs_f64();
            m.layer("trace_overhead_frac", (wall_t - u.wall_s) / u.wall_s);
            check_serve_run(ctx, &service, "traced");
            // The daemon runs jobs out of reach of an observer, so the
            // physics/instrument layers come from replaying each
            // distinct job spec (a cold explorer) through the replica.
            let mut seen = std::collections::BTreeSet::new();
            let specs: Vec<ExperimentSpec> = jobs
                .iter()
                .filter(|(_, body)| seen.insert(body.as_str()))
                .map(|(_, body)| serde_json::from_str(body).expect("own spec parses"))
                .collect();
            let runs: Vec<TracedRun> = specs.iter().map(|s| run_traced(s, epoch)).collect();
            // A cold explorer's report must be what the replica computes.
            let cold: Vec<ExperimentResult> = reference
                .jobs
                .iter()
                .filter(|j| j.ok && !j.warm_start)
                .filter_map(|j| ExperimentResult::from_json(j.report.as_deref()?).ok())
                .collect();
            let matched = runs
                .iter()
                .filter(|t| {
                    cold.iter()
                        .any(|r| Fingerprint::of(r) == Fingerprint::of(&t.result))
                })
                .count();
            ctx.check(
                "traced_replica_matches_run_experiment",
                matched == runs.len(),
                format!(
                    "{matched}/{} distinct job specs reproduce a served explorer's report",
                    runs.len()
                ),
            );
            (specs, runs, Some(service))
        }
    };

    // ---- spans ------------------------------------------------------------------
    for (i, run) in runs.iter().enumerate() {
        for rank in &run.ranks {
            let label = format!("{} rank {}", run.result.workload, rank.rank);
            let (pid, tid) = (i as u32, rank.rank as u32);
            let run_span = store.push_rank(pid, tid, &label, &rank.steps);
            for &(start, end) in &rank.checkpoints {
                store.push(Some(run_span), pid, tid, "io", "checkpoint", start, end);
                // A checkpoint after the last step still belongs to the run.
                let run = &mut store.spans[run_span as usize];
                run.end_ns = run.end_ns.max(end);
            }
        }
    }
    if let Some(service) = &service {
        serve_spans(&mut store, service, runs.len() as u32);
        serve_metrics(&mut m, service);
    }

    // ---- metrics from stamps ------------------------------------------------------
    sph_and_core_from_stamps(ctx, &mut m, &runs);
    m.layer("par.cpu_per_wall", u.cpu_s / u.wall_s);

    // ---- direct-call probes on the first run's data -------------------------------
    let (spec, first) = (&specs[0], &runs[0]);
    let gpu = &spec.system.node.gpu;
    probes::cornerstone(&mut m, &first.final_state, effort);
    probes::par_spawn(&mut m, effort);
    probes::ranks_allreduce(&mut m, spec.ranks);
    probes::core_spec_and_report(&mut m, spec, &first.result, effort);
    probes::simulator_stack(&mut m, gpu, &first.launch_seq, effort);
    probes::online_store(&mut m, ctx.scratch.path(), effort);
    probes::inert_paths(&mut m, effort);
    if m.wants(On::Evrard) {
        probes::sph_snapshot(&mut m, &first.final_state, effort);
        let dir = ctx.fresh_dir("ck-probe");
        probes::core_checkpoint(&mut m, spec, &first.final_state, &dir, effort);
        probes::tuner(&mut m, gpu, spec.target_particles_per_rank, effort);
    }
    if m.wants(On::Matrix) {
        let recorder_cells = Sizing {
            cells: 6,
            ..cfg.sizing
        };
        probes::telemetry_recorder(&mut m, &workloads::matrix_specs(cfg.seed, &recorder_cells));
    }

    let list_share = m.get("cornerstone.nlist_build_ms").expect("set above")
        / m.get("sph.step_ms_p50").expect("set above");
    if cfg.workload == Workload::Turb100k {
        ctx.predict(
            "list_build_is_25_to_35pct_of_step",
            (0.25..=0.35).contains(&list_share),
            format!("cornerstone.nlist_build_ms / sph.step_ms_p50 = {list_share:.3}"),
        );
    }
    let overhead = m.get("trace_overhead_frac").expect("set above");
    // A traced run that reads faster than the untraced one says the two
    // calls differ by more than the observer costs: noise, not a pass.
    ctx.predict(
        "trace_overhead_le_3pct",
        overhead.abs() <= 0.03,
        format!(
            "trace_overhead_frac = {overhead:.4}{}",
            if overhead < -0.03 {
                " (negative beyond the budget: run-to-run noise, unresolved)"
            } else {
                ""
            }
        ),
    );

    if host::host_threads() < 2 {
        m.mark_wall_clock_degraded();
    }
    (m.into_values(), store)
}

// ---- entry point ----------------------------------------------------------------

/// Run one workload in this process.
pub fn run_workload(cfg: &RunConfig) -> Outcome {
    let load_avg_1m = host::load_avg_1m();
    let epoch = Instant::now();
    let mut ctx = Ctx {
        cfg,
        scratch: Scratch::new(cfg.workload.name()),
        jobs: host::host_threads(),
        checks: Vec::new(),
        predictions: Vec::new(),
        ops_attempted: 0,
        ops_failed: 0,
    };
    let timed = cfg.mode != Mode::Traced;
    let untraced = match cfg.workload {
        Workload::ServeClosed => untraced_serve(&mut ctx, timed, epoch),
        _ => untraced_batch(&mut ctx, timed),
    };
    let end_to_end = if timed {
        end_to_end(cfg, &untraced)
    } else {
        Vec::new()
    };
    let (per_layer, spans) = if cfg.mode == Mode::Untraced {
        (Vec::new(), None)
    } else {
        let (values, store) = per_layer(&mut ctx, &untraced, epoch);
        (values, Some(store))
    };
    let result = ResultFile {
        workload: cfg.workload.name().to_string(),
        git_rev: host::git_rev(),
        seed: cfg.seed,
        deps: host::deps(),
        host_threads: host::host_threads(),
        load_avg_1m,
        sizing: cfg.sizing,
        degraded: host::host_threads() < 2,
        ops_attempted: ctx.ops_attempted,
        ops_failed: ctx.ops_failed,
        checks: ctx.checks,
        predictions: ctx.predictions,
        end_to_end,
        per_layer,
    };
    Outcome { result, spans }
}
