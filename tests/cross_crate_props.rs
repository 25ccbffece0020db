//! Property-based tests over the public cross-crate APIs: energy accounting
//! invariants that must hold for *any* workload, frequency, and topology.

use std::sync::Arc;

use gpu_freq_scaling::archsim::{
    ClockPolicy, GpuDevice, GpuSpec, KernelWorkload, MegaHertz, SimDuration, SimInstant,
};
use gpu_freq_scaling::nvml_shim::Nvml;
use gpu_freq_scaling::pmt::{backends::NvmlSensor, joules, Pmt};
use parking_lot::Mutex;
use rng::Rng;

fn arb_workload(g: &mut Rng) -> KernelWorkload {
    let flops = g.f64(1e6..1e13);
    let bytes = g.f64(1e6..1e12);
    let launches = g.u32(1..400);
    let (compute_activity, memory_activity) = (g.f64(0.0..1.0), g.f64(0.0..1.0));
    let parallelism = g.f64(0.0..2e8);
    KernelWorkload::new("prop", flops, bytes)
        .with_launches(launches)
        .with_activity(compute_activity, memory_activity)
        .with_parallelism(parallelism)
}

fn arb_clock(g: &mut Rng) -> MegaHertz {
    // A100 ladder: 210..=1410 step 15.
    MegaHertz(210 + g.u32(0..=80) * 15)
}

// Properties: 48 generated cases each, failing case index printed.
#[test]
fn energy_is_power_integral_for_any_workload() {
    rng::cases(48, |g| {
        let w = arb_workload(g);
        let f = arb_clock(g);
        let mut dev = GpuDevice::new(0, GpuSpec::a100_sxm4_80gb());
        dev.set_application_clocks(f).expect("ladder clock");
        let exec = dev.run_region(&w);
        // Device-reported region energy equals the timeline integral.
        let direct = dev.energy_between(exec.start, exec.end);
        assert!((exec.energy.0 - direct.0).abs() < 1e-9);
        // Power never exceeds TDP + transition smearing slack.
        let avg_w = exec.energy.average_power(exec.duration()).0;
        assert!(avg_w <= dev.spec().tdp().0 * 1.05, "avg power {avg_w}");
        assert!(avg_w >= dev.spec().idle_power.0 * 0.99, "avg power {avg_w}");
    });
}

#[test]
fn lower_clock_is_never_faster() {
    rng::cases(48, |g| {
        let w = arb_workload(g);
        let a = arb_clock(g);
        let b = arb_clock(g);
        if a >= b {
            return;
        }
        let run_at = |f: MegaHertz| {
            let mut dev = GpuDevice::new(0, GpuSpec::a100_sxm4_80gb());
            dev.set_application_clocks(f).expect("ladder clock");
            dev.run_region(&w).duration()
        };
        assert!(
            run_at(a) >= run_at(b),
            "monotonicity violated for {a} vs {b}"
        );
    });
}

#[test]
fn pmt_regions_tile_the_timeline() {
    rng::cases(48, |g| {
        let w = arb_workload(g);
        let f = arb_clock(g);
        let n = g.usize(1..6);
        let gpu = Arc::new(Mutex::new(GpuDevice::new(0, GpuSpec::a100_sxm4_80gb())));
        gpu.lock().set_application_clocks(f).expect("ladder clock");
        let mut pmt = Pmt::new(Box::new(NvmlSensor::from_raw(0, Arc::clone(&gpu))));
        let start = pmt.read();
        let mut region_sum = 0.0;
        for _ in 0..n {
            let s = pmt.read();
            gpu.lock().run_region(&w);
            gpu.lock().advance_idle(SimDuration::from_micros(100));
            let e = pmt.read();
            region_sum += joules(&s, &e).0;
        }
        let end = pmt.read();
        let total = joules(&start, &end).0;
        assert!(
            (region_sum - total).abs() < 1e-6 * total.max(1.0),
            "regions {region_sum} vs total {total}"
        );
    });
}

#[test]
fn dvfs_clock_stays_inside_the_ladder() {
    rng::cases(48, |g| {
        let w = arb_workload(g);
        let n = g.usize(1..5);
        let mut dev = GpuDevice::new(0, GpuSpec::a100_sxm4_80gb());
        assert!(matches!(dev.policy(), ClockPolicy::Dvfs(_)));
        for _ in 0..n {
            dev.run_region(&w);
            dev.advance_idle(SimDuration::from_millis(1));
            let f = dev.current_freq();
            assert!(dev.spec().clock_table.supports(f), "off-ladder clock {f}");
        }
        // Frequency trace is time-monotone.
        let pts = dev.freq_timeline().points();
        assert!(pts.windows(2).all(|p| p[0].0 <= p[1].0));
    });
}

#[test]
fn nvml_counters_agree_with_device_state() {
    rng::cases(48, |g| {
        let w = arb_workload(g);
        let f = arb_clock(g);
        let gpu = Arc::new(Mutex::new(GpuDevice::new(0, GpuSpec::a100_sxm4_80gb())));
        let nvml = Nvml::init(vec![Arc::clone(&gpu)]);
        let dev = nvml.device_by_index(0).expect("one device");
        dev.set_applications_clocks(1593, f.0)
            .expect("ladder clock");
        gpu.lock().run_region(&w);
        let mj = dev.total_energy_consumption().expect("counter");
        let direct = gpu.lock().total_energy().0;
        assert!(((mj as f64) / 1e3 - direct).abs() < 0.01 * direct.max(1.0) + 0.01);
        assert_eq!(
            dev.clock_info(gpu_freq_scaling::nvml_shim::ClockType::Graphics)
                .expect("clock"),
            f.0
        );
    });
}

#[test]
fn timeline_energy_is_additive_over_any_split() {
    rng::cases(48, |g| {
        let w = arb_workload(g);
        let f = arb_clock(g);
        let split = g.f64(0.0..1.0);
        let mut dev = GpuDevice::new(0, GpuSpec::a100_sxm4_80gb());
        dev.set_application_clocks(f).expect("ladder clock");
        dev.run_region(&w);
        let end = dev.now();
        let mid = SimInstant::from_nanos((end.as_nanos() as f64 * split) as u64);
        let total = dev.energy_between(SimInstant::ZERO, end);
        let parts = dev.energy_between(SimInstant::ZERO, mid) + dev.energy_between(mid, end);
        assert!((total.0 - parts.0).abs() < 1e-9 * total.0.max(1.0));
    });
}
