//! # nvml-shim — NVML-shaped control plane over simulated GPUs
//!
//! The paper's contribution is instrumentation that calls
//! `nvmlDeviceSetApplicationsClocks` before each computational kernel
//! (§III-D). This crate reproduces the relevant slice of the NVML surface —
//! device handles, power/energy/clock/utilization queries, applications-clock
//! control, clocks-event reasons — over [`archsim`] devices. LUMI-G's AMD
//! GCDs are driven through the same handles: the devices are vendor-neutral.
//!
//! ```
//! use archsim::{GpuDevice, GpuSpec};
//! use nvml_shim::{Nvml, ClockType};
//! use parking_lot::Mutex;
//! use std::sync::Arc;
//!
//! let gpu = Arc::new(Mutex::new(GpuDevice::new(0, GpuSpec::a100_pcie_40gb())));
//! let nvml = Nvml::init(vec![gpu]);
//! let dev = nvml.device_by_index(0).unwrap();
//! // Pin 1005 MHz compute / 1593 MHz memory, exactly as the paper does:
//! dev.set_applications_clocks(1593, 1005).unwrap();
//! assert_eq!(dev.clock_info(ClockType::Graphics).unwrap(), 1005);
//! ```

pub mod device;
pub mod error;

use std::sync::Arc;

use parking_lot::Mutex;

use archsim::GpuDevice;

pub use device::{clocks_event_reasons, ClockType, NvmlDevice, TemperatureSensor, Utilization};
pub use error::NvmlError;

/// The NVML library handle (`nvmlInit_v2` equivalent). Owns the node's device
/// registry for the lifetime of the session.
pub struct Nvml {
    devices: Vec<Arc<Mutex<GpuDevice>>>,
}

impl Nvml {
    /// Initialize against a node's visible GPU devices.
    pub fn init(devices: Vec<Arc<Mutex<GpuDevice>>>) -> Self {
        Nvml { devices }
    }

    /// Initialize against every GPU of an [`archsim::Node`].
    pub fn init_for_node(node: &archsim::Node) -> Self {
        Nvml::init(node.gpus().to_vec())
    }

    /// `nvmlDeviceGetCount_v2`.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// `nvmlDeviceGetHandleByIndex_v2`.
    pub fn device_by_index(&self, index: usize) -> Result<NvmlDevice, NvmlError> {
        self.devices
            .get(index)
            .map(|d| NvmlDevice::new(index, Arc::clone(d)))
            .ok_or(NvmlError::NotFound {
                index,
                count: self.devices.len(),
            })
    }

    /// All device handles.
    pub fn devices(&self) -> Vec<NvmlDevice> {
        (0..self.device_count())
            .map(|i| self.device_by_index(i).expect("index in range"))
            .collect()
    }
}

/// The paper's `getNvmlDevice` helper: "since each MPI rank is bound to only
/// one GPU, getNvmlDevice returns the corresponding device ID" (§III-D).
pub fn get_nvml_device(nvml: &Nvml, rank: usize) -> Result<NvmlDevice, NvmlError> {
    nvml.device_by_index(rank % nvml.device_count().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::{GpuSpec, KernelWorkload, MegaHertz, SimDuration};

    fn nvml_with(n: usize) -> Nvml {
        let devs = (0..n)
            .map(|i| Arc::new(Mutex::new(GpuDevice::new(i, GpuSpec::a100_sxm4_80gb()))))
            .collect();
        Nvml::init(devs)
    }

    #[test]
    fn device_enumeration() {
        let nvml = nvml_with(4);
        assert_eq!(nvml.device_count(), 4);
        assert!(nvml.device_by_index(3).is_ok());
        assert!(matches!(
            nvml.device_by_index(4),
            Err(NvmlError::NotFound { index: 4, count: 4 })
        ));
        assert_eq!(nvml.devices().len(), 4);
    }

    #[test]
    fn rank_to_device_binding() {
        let nvml = nvml_with(4);
        assert_eq!(get_nvml_device(&nvml, 0).unwrap().index(), 0);
        assert_eq!(get_nvml_device(&nvml, 3).unwrap().index(), 3);
        // Ranks on later nodes wrap around the node-local registry.
        assert_eq!(get_nvml_device(&nvml, 5).unwrap().index(), 1);
    }

    #[test]
    fn set_applications_clocks_validates_both_clocks() {
        let nvml = nvml_with(1);
        let dev = nvml.device_by_index(0).unwrap();
        // Wrong memory clock.
        assert!(matches!(
            dev.set_applications_clocks(1600, 1410),
            Err(NvmlError::InvalidArgument(_))
        ));
        // Unsupported graphics clock.
        assert!(matches!(
            dev.set_applications_clocks(1593, 1001),
            Err(NvmlError::InvalidArgument(_))
        ));
        // Valid pair.
        dev.set_applications_clocks(1593, 1005).unwrap();
        assert_eq!(dev.applications_clock(ClockType::Graphics).unwrap(), 1005);
        assert_eq!(dev.clock_info(ClockType::Mem).unwrap(), 1593);
    }

    #[test]
    fn applications_clock_absent_under_dvfs() {
        let nvml = nvml_with(1);
        let dev = nvml.device_by_index(0).unwrap();
        assert!(matches!(
            dev.applications_clock(ClockType::Graphics),
            Err(NvmlError::NotSupported(_))
        ));
        dev.set_applications_clocks(1593, 1410).unwrap();
        dev.reset_applications_clocks().unwrap();
        assert!(dev.applications_clock(ClockType::Graphics).is_err());
    }

    #[test]
    fn supported_graphics_clocks_descending() {
        let nvml = nvml_with(1);
        let dev = nvml.device_by_index(0).unwrap();
        let clocks = dev.supported_graphics_clocks(1593).unwrap();
        assert_eq!(clocks.first(), Some(&1410));
        assert_eq!(clocks.last(), Some(&210));
        assert!(clocks.windows(2).all(|w| w[0] > w[1]));
        // Any supported P-state enumerates the same graphics ladder.
        assert_eq!(dev.supported_graphics_clocks(810).unwrap(), clocks);
        assert!(dev.supported_graphics_clocks(1600).is_err());
    }

    #[test]
    fn memory_clock_sets_and_reads_back() {
        let nvml = nvml_with(1);
        let dev = nvml.device_by_index(0).unwrap();
        assert_eq!(dev.applications_clock(ClockType::Mem).unwrap(), 1593);
        dev.set_applications_clocks(1215, 1410).unwrap();
        // Both the current clock and the pinned applications clock reflect
        // the requested P-state — this readback is how co-tuners detect a
        // silently clamped memory transition.
        assert_eq!(dev.clock_info(ClockType::Mem).unwrap(), 1215);
        assert_eq!(dev.applications_clock(ClockType::Mem).unwrap(), 1215);
        assert_eq!(
            dev.supported_memory_clocks().unwrap(),
            vec![1593, 1215, 810]
        );
    }

    #[test]
    fn power_and_energy_counters_advance_with_work() {
        let nvml = nvml_with(1);
        let dev = nvml.device_by_index(0).unwrap();
        assert_eq!(dev.total_energy_consumption().unwrap(), 0);
        dev.raw()
            .lock()
            .run_region(&KernelWorkload::new("k", 1e12, 1e11).with_activity(0.9, 0.6));
        let mw = dev.power_usage().unwrap();
        assert!(mw > 55_000, "busy power above idle: {mw} mW");
        assert!(dev.total_energy_consumption().unwrap() > 0);
    }

    #[test]
    fn utilization_is_coarse_overestimate() {
        let nvml = nvml_with(1);
        let dev = nvml.device_by_index(0).unwrap();
        // A launch-overhead-dominated stream still reads as fully busy.
        dev.raw().lock().run_region(
            &KernelWorkload::new("light", 1e6, 1e6)
                .with_launches(500)
                .with_activity(0.1, 0.1),
        );
        let u = dev.utilization_rates().unwrap();
        assert!(u.gpu >= 99, "coarse utilization counts overhead: {}", u.gpu);
        // After a long idle the window empties out.
        dev.raw().lock().advance_idle(SimDuration::from_secs(1));
        let u2 = dev.utilization_rates().unwrap();
        assert_eq!(u2.gpu, 0);
    }

    #[test]
    fn clocks_event_reasons_reflect_policy() {
        let nvml = nvml_with(1);
        let dev = nvml.device_by_index(0).unwrap();
        dev.set_applications_clocks(1593, 1200).unwrap();
        assert_eq!(
            dev.current_clocks_event_reasons().unwrap(),
            clocks_event_reasons::APPLICATIONS_CLOCKS_SETTING
        );
        dev.reset_applications_clocks().unwrap();
        dev.raw().lock().advance_idle(SimDuration::from_secs(30));
        assert_eq!(
            dev.current_clocks_event_reasons().unwrap(),
            clocks_event_reasons::GPU_IDLE
        );
    }

    #[test]
    fn locked_production_device_yields_no_permission() {
        let devs = vec![Arc::new(Mutex::new({
            let mut g = GpuDevice::new(0, GpuSpec::a100_sxm4_80gb());
            g.set_application_clocks(MegaHertz(1410)).unwrap();
            g.lock_clock_control();
            g
        }))];
        let nvml = Nvml::init(devs);
        let dev = nvml.device_by_index(0).unwrap();
        assert!(matches!(
            dev.set_applications_clocks(1593, 1005),
            Err(NvmlError::NoPermission(_))
        ));
    }

    #[test]
    fn temperature_and_power_limit_surface() {
        let nvml = nvml_with(1);
        let dev = nvml.device_by_index(0).unwrap();
        // Cold device reads ambient.
        let t0 = dev.temperature(TemperatureSensor::Gpu).unwrap();
        assert!((28..=35).contains(&t0), "ambient-ish start: {t0}");
        // Default limit is the TDP; constraints bracket it.
        let (lo, hi) = dev.power_management_limit_constraints().unwrap();
        assert_eq!(dev.power_management_limit().unwrap(), hi);
        assert!(lo < hi);
        // Lower the cap, run hot work, observe the SW_POWER_CAP reason.
        dev.set_power_management_limit(220_000).unwrap();
        assert_eq!(dev.power_management_limit().unwrap(), 220_000);
        dev.set_applications_clocks(1593, 1410).unwrap();
        dev.raw()
            .lock()
            .run_region(&KernelWorkload::new("hot", 1e13, 1e12).with_activity(0.95, 0.9));
        let reasons = dev.current_clocks_event_reasons().unwrap();
        assert!(
            reasons & clocks_event_reasons::SW_POWER_CAP != 0,
            "reasons {reasons:#x}"
        );
        // The junction warmed up.
        let t1 = dev.temperature(TemperatureSensor::Gpu).unwrap();
        assert!(t1 > t0, "heated: {t0} -> {t1}");
        // Out-of-range limits are rejected.
        assert!(dev.set_power_management_limit(1_000).is_err());
        assert!(dev.set_power_management_limit(999_000_000).is_err());
    }

    #[test]
    fn identity_queries_are_stable_and_distinct() {
        let nvml = nvml_with(2);
        let a = nvml.device_by_index(0).unwrap();
        let b = nvml.device_by_index(1).unwrap();
        assert_eq!(a.uuid(), nvml.device_by_index(0).unwrap().uuid(), "stable");
        assert_ne!(a.uuid(), b.uuid(), "distinct per index");
        assert!(a.uuid().starts_with("GPU-"));
    }

    #[test]
    fn nvml_for_node_sees_all_node_gpus() {
        let node = archsim::Node::new(archsim::cscs_a100().node);
        let nvml = Nvml::init_for_node(&node);
        assert_eq!(nvml.device_count(), 4);
    }
}
