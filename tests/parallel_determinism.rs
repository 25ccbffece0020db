//! Determinism guard for the `parallel` feature: thread count must not
//! change a single bit of physics output or a single tuned frequency.
//!
//! Every parallel loop in the workspace uses the gather pattern (map into
//! per-index slots, fold serially), so 1-thread and N-thread runs are
//! required to be *bit-identical* — not merely close. These tests pin that
//! contract end to end: a gravity workload step on one rank and on two, and
//! a full tuner sweep.

use std::sync::Mutex;

use freqscale::tune_table;
use ranks::CommCost;
use sph::{evrard, Kernel, NullObserver, Particles, SimConfig, Simulation, StepStats};
use tuner::Objective;

/// Serializes tests that toggle the process-wide thread-count override.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

/// Bit-exact snapshot of every owned-particle field.
fn snapshot(parts: &Particles) -> Vec<u64> {
    let n = parts.n_local;
    let fields: [&[f64]; 26] = [
        &parts.x,
        &parts.y,
        &parts.z,
        &parts.vx,
        &parts.vy,
        &parts.vz,
        &parts.m,
        &parts.h,
        &parts.rho,
        &parts.p,
        &parts.c,
        &parts.u,
        &parts.du,
        &parts.ax,
        &parts.ay,
        &parts.az,
        &parts.gradh,
        &parts.xmass,
        &parts.divv,
        &parts.curlv,
        &parts.alpha,
        &parts.c11,
        &parts.c12,
        &parts.c13,
        &parts.c22,
        &parts.c23,
    ];
    let mut out = Vec::with_capacity(27 * n);
    for f in fields {
        out.extend(f[..n].iter().map(|v| v.to_bits()));
    }
    out.extend(parts.c33[..n].iter().map(|v| v.to_bits()));
    out
}

/// Evrard steps (gravity exercises the Barnes-Hut build + walk on top of the
/// SPH loops) at the given worker count. Returns every rank's state bits and
/// its last step's stats.
fn evrard_steps_at(
    threads: usize,
    ranks: usize,
    n_side: usize,
    steps: usize,
) -> Vec<(Vec<u64>, StepStats)> {
    par::set_max_threads(threads);
    let out = ranks::run(ranks, CommCost::default(), |ctx| {
        let cfg = SimConfig {
            kernel: Kernel::CubicSpline,
            target_particles_per_rank: 1e6,
            target_neighbors: 40,
            bucket_size: 32,
            ..SimConfig::default()
        };
        let mut sim = Simulation::distribute(evrard(n_side), cfg, ctx.rank(), ctx.size());
        let mut stats = None;
        for _ in 0..steps {
            stats = Some(sim.step(ctx, &mut NullObserver));
        }
        (snapshot(&sim.parts), stats.expect("at least one step"))
    });
    par::set_max_threads(0);
    out
}

/// Every rank's state, time step and energy budget agree to the last bit.
fn assert_same_bits(at_1t: &[(Vec<u64>, StepStats)], at_4t: &[(Vec<u64>, StepStats)]) {
    assert_eq!(at_1t.len(), at_4t.len());
    for (rank, ((state_1t, stats_1t), (state_4t, stats_4t))) in at_1t.iter().zip(at_4t).enumerate()
    {
        assert!(!state_1t.is_empty(), "rank {rank} owns particles");
        assert_eq!(
            state_1t, state_4t,
            "rank {rank}: particle state must be bit-identical at 1 vs 4 threads"
        );
        assert_eq!(stats_1t.dt.to_bits(), stats_4t.dt.to_bits());
        assert_eq!(
            stats_1t.budget.potential.to_bits(),
            stats_4t.budget.potential.to_bits(),
            "rank {rank}: gravity potential fold must be thread-count invariant"
        );
        assert_eq!(
            stats_1t.budget.kinetic.to_bits(),
            stats_4t.budget.kinetic.to_bits()
        );
    }
}

/// A full per-function frequency sweep at the given worker count. Frequencies
/// and the raw EDP measurements are both captured.
fn sweep_at(threads: usize) -> Vec<(String, u32, Vec<u64>)> {
    par::set_max_threads(threads);
    let gpu = archsim::GpuSpec::a100_pcie_40gb();
    let (table, detail) = tune_table(
        &gpu,
        1e6,
        archsim::MegaHertz(1005),
        archsim::MegaHertz(1410),
        Objective::Edp,
        true,
    );
    par::set_max_threads(0);
    detail
        .into_iter()
        .map(|(func, result)| {
            let pinned = table[&func];
            assert_eq!(result.best_frequency(), Some(pinned), "table/detail agree");
            let edp_bits = result.configs.iter().map(|c| c.edp.to_bits()).collect();
            (func.name().to_string(), pinned.0, edp_bits)
        })
        .collect()
}

#[test]
fn evrard_step_is_bit_identical_across_thread_counts() {
    let _guard = THREAD_OVERRIDE.lock().unwrap();
    assert_same_bits(&evrard_steps_at(1, 1, 8, 1), &evrard_steps_at(4, 1, 8, 1));
}

/// Two ranks: each walks its own share of the targets through the
/// allgathered tree, rank 1 from a non-zero source offset, and with 1 790
/// particles (2 mod 4) some rank ends in a partial group of four.
#[test]
fn evrard_2rank_steps_are_bit_identical_across_thread_counts() {
    let _guard = THREAD_OVERRIDE.lock().unwrap();
    let at_1t = evrard_steps_at(1, 2, 15, 2);
    assert_eq!(at_1t.len(), 2);
    assert!(
        at_1t.iter().any(|(_, stats)| stats.n_local % 4 != 0),
        "some rank walks a partial tail group"
    );
    assert_same_bits(&at_1t, &evrard_steps_at(4, 2, 15, 2));
}

#[test]
fn tuner_sweep_produces_identical_sweet_spot_tables() {
    let _guard = THREAD_OVERRIDE.lock().unwrap();
    let serial = sweep_at(1);
    let parallel = sweep_at(4);
    assert_eq!(serial.len(), 12, "all instrumented functions swept");
    assert_eq!(
        serial, parallel,
        "sweep order, sweet spots and raw EDP bits must match"
    );
}
