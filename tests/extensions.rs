//! Integration tests for the beyond-the-paper features: thermal/power-cap
//! loops, memory-clock control, online auto-tuning, Pareto analysis, and
//! communication accounting — all exercised through the public APIs.

use std::sync::Arc;

use gpu_freq_scaling::archsim::{GpuDevice, GpuSpec, KernelWorkload, MegaHertz, SimDuration};
use gpu_freq_scaling::freqscale::{
    pareto_front, run_experiment, ExperimentSpec, FreqPolicy, PolicyPoint, WorkloadKind,
};
use gpu_freq_scaling::nvml_shim::{clocks_event_reasons, Nvml, TemperatureSensor};
use gpu_freq_scaling::ranks::{run, CommCost, Op};
use parking_lot::Mutex;

fn quick_spec(policy: FreqPolicy) -> ExperimentSpec {
    let mut spec = ExperimentSpec::minihpc_turbulence(policy, 3);
    spec.workload = WorkloadKind::Turbulence {
        n_side: 7,
        mach: 0.3,
        seed: 2,
    };
    spec.target_neighbors = 30;
    spec
}

#[test]
fn power_cap_pipeline_through_nvml() {
    let gpu = Arc::new(Mutex::new(GpuDevice::new(0, GpuSpec::a100_pcie_40gb())));
    let nvml = Nvml::init(vec![Arc::clone(&gpu)]);
    let dev = nvml.device_by_index(0).expect("device");
    dev.set_applications_clocks(1593, 1410).expect("pin");
    dev.set_power_management_limit(180_000).expect("cap 180 W");
    let n = 450.0f64.powi(3);
    let w = KernelWorkload::new("hot", 4800.0 * n, 810.0 * n)
        .with_activity(0.95, 0.75)
        .with_parallelism(n);
    let exec = gpu.lock().run_region(&w);
    assert!(
        exec.avg_freq < MegaHertz(1410),
        "cap must pull clocks: {}",
        exec.avg_freq
    );
    let avg_w = exec.energy.0 / exec.duration().as_secs_f64();
    assert!(avg_w < 195.0, "average power must respect the cap: {avg_w}");
    let reasons = dev.current_clocks_event_reasons().expect("reasons");
    assert!(reasons & clocks_event_reasons::SW_POWER_CAP != 0);
}

#[test]
fn junction_heats_during_an_experiment_and_reads_via_nvml() {
    let gpu = Arc::new(Mutex::new(GpuDevice::new(0, GpuSpec::a100_pcie_40gb())));
    let nvml = Nvml::init(vec![Arc::clone(&gpu)]);
    let dev = nvml.device_by_index(0).expect("device");
    let t0 = dev.temperature(TemperatureSensor::Gpu).expect("temp");
    dev.set_applications_clocks(1593, 1410).expect("pin");
    let n = 450.0f64.powi(3);
    let w = KernelWorkload::new("k", 4800.0 * n, 810.0 * n)
        .with_activity(0.9, 0.6)
        .with_parallelism(n);
    for _ in 0..100 {
        gpu.lock().run_region(&w);
    }
    let t1 = dev.temperature(TemperatureSensor::Gpu).expect("temp");
    assert!(
        t1 > t0 + 5,
        "sustained load must heat the junction: {t0} -> {t1}"
    );
    // Idle cools back down.
    gpu.lock().advance_idle(SimDuration::from_secs(200));
    let t2 = dev.temperature(TemperatureSensor::Gpu).expect("temp");
    assert!(t2 < t1, "idle must cool: {t1} -> {t2}");
}

#[test]
fn memory_clock_control_through_nvml() {
    let gpu = Arc::new(Mutex::new(GpuDevice::new(0, GpuSpec::a100_sxm4_80gb())));
    let nvml = Nvml::init(vec![Arc::clone(&gpu)]);
    let dev = nvml.device_by_index(0).expect("device");
    assert_eq!(
        dev.supported_memory_clocks().expect("list"),
        vec![1593, 1215, 810]
    );
    // Set a lower memory P-state along with the compute clock.
    dev.set_applications_clocks(810, 1410)
        .expect("supported pair");
    assert_eq!(
        dev.clock_info(gpu_freq_scaling::nvml_shim::ClockType::Mem)
            .expect("mem"),
        810
    );
    // Unsupported memory clock rejected.
    assert!(dev.set_applications_clocks(1000, 1410).is_err());
    // A memory-bound kernel runs slower at the low P-state.
    let w = KernelWorkload::new("XMass", 1e9, 50e9).with_activity(0.3, 0.9);
    let slow = gpu.lock().run_region(&w).duration();
    dev.set_applications_clocks(1593, 1410).expect("restore");
    let fast = gpu.lock().run_region(&w).duration();
    assert!(
        slow > fast.mul_f64(1.5),
        "810 MHz HBM must hurt: {slow} vs {fast}"
    );
}

#[test]
fn pareto_front_over_real_policies() {
    let base = run_experiment(&quick_spec(FreqPolicy::Baseline));
    let dvfs = run_experiment(&quick_spec(FreqPolicy::Dvfs));
    let low = run_experiment(&quick_spec(FreqPolicy::Static(MegaHertz(1005))));
    let points = vec![
        PolicyPoint::from_result(&base),
        PolicyPoint::from_result(&dvfs),
        PolicyPoint::from_result(&low),
    ];
    let front = pareto_front(&points);
    let labels: Vec<&str> = front.iter().map(|&i| points[i].label.as_str()).collect();
    assert!(
        labels.contains(&"baseline"),
        "fastest point is on the front"
    );
    assert!(
        labels.contains(&"static-1005"),
        "cheapest point is on the front"
    );
    assert!(
        !labels.contains(&"dvfs"),
        "DVFS (slower AND hungrier) is dominated"
    );
}

#[test]
fn comm_stats_accumulate_during_a_simulation() {
    let stats = run(4, CommCost::default(), |ctx| {
        let ic = gpu_freq_scaling::sph::subsonic_turbulence(8, 0.3, 5);
        let mut sim = gpu_freq_scaling::sph::Simulation::distribute(
            ic,
            gpu_freq_scaling::sph::SimConfig {
                target_neighbors: 30,
                ..Default::default()
            },
            ctx.rank(),
            ctx.size(),
        );
        sim.step(ctx, &mut gpu_freq_scaling::sph::NullObserver);
        sim.step(ctx, &mut gpu_freq_scaling::sph::NullObserver);
        ctx.comm_stats()
    });
    for s in &stats {
        assert!(
            s.collectives >= 8,
            "keys/boxes/dt/budget collectives: {s:?}"
        );
        assert!(s.sends >= 6, "migration + halo messages per step: {s:?}");
        assert_eq!(s.sends, s.recvs, "exchange pattern is symmetric");
        assert!(s.collective_bytes > 0 && s.send_bytes > 0);
    }
    // Sanity: an allreduce still works after a full sim (runtime healthy).
    let ok = run(2, CommCost::free(), |ctx| ctx.allreduce_f64(1.0, Op::Sum));
    assert_eq!(ok, vec![2.0, 2.0]);
}
