//! rocm-smi-flavoured façade over the same simulated devices.
//!
//! PMT's AMD backend uses `rocm_smi_lib`; LUMI-G's MI250X GCDs are driven
//! through this interface. Units intentionally differ from NVML (microwatts,
//! not milliwatts) to keep backends honest about conversions.

use std::sync::Arc;

use parking_lot::Mutex;

use archsim::{GpuDevice, MegaHertz};

use crate::error::NvmlError;

/// rocm-smi status codes (subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsmiError {
    InvalidArgs(String),
    PermissionDenied(&'static str),
    NotFound { index: usize, count: usize },
}

impl std::fmt::Display for RsmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsmiError::InvalidArgs(m) => write!(f, "RSMI_STATUS_INVALID_ARGS: {m}"),
            RsmiError::PermissionDenied(m) => write!(f, "RSMI_STATUS_PERMISSION: {m}"),
            RsmiError::NotFound { index, count } => {
                write!(f, "RSMI_STATUS_NOT_FOUND: device {index} of {count}")
            }
        }
    }
}

impl std::error::Error for RsmiError {}

impl From<NvmlError> for RsmiError {
    fn from(e: NvmlError) -> Self {
        match e {
            NvmlError::NoPermission(m) => RsmiError::PermissionDenied(m),
            NvmlError::NotFound { index, count } => RsmiError::NotFound { index, count },
            other => RsmiError::InvalidArgs(other.to_string()),
        }
    }
}

/// A rocm-smi session over a node's GCDs (`rsmi_init` equivalent).
pub struct RocmSmi {
    devices: Vec<Arc<Mutex<GpuDevice>>>,
}

impl RocmSmi {
    pub fn init(devices: Vec<Arc<Mutex<GpuDevice>>>) -> Self {
        RocmSmi { devices }
    }

    fn dev(&self, dv_ind: usize) -> Result<&Arc<Mutex<GpuDevice>>, RsmiError> {
        self.devices.get(dv_ind).ok_or(RsmiError::NotFound {
            index: dv_ind,
            count: self.devices.len(),
        })
    }

    /// `rsmi_dev_power_ave_get` — average socket power in **microwatts**.
    pub fn dev_power_ave_get(&self, dv_ind: usize) -> Result<u64, RsmiError> {
        let d = self.dev(dv_ind)?.lock();
        let w = d.power_timeline().last_power().0;
        Ok((w * 1e6).round().max(0.0) as u64)
    }

    /// `rsmi_dev_energy_count_get` — accumulated energy counter in
    /// **microjoules**.
    pub fn dev_energy_count_get(&self, dv_ind: usize) -> Result<u64, RsmiError> {
        let d = self.dev(dv_ind)?.lock();
        Ok((d.total_energy().0 * 1e6).round().max(0.0) as u64)
    }

    /// `rsmi_dev_gpu_clk_freq_get(RSMI_CLK_TYPE_SYS)` — current system clock
    /// in hertz.
    pub fn dev_gpu_clk_freq_get(&self, dv_ind: usize) -> Result<u64, RsmiError> {
        let d = self.dev(dv_ind)?.lock();
        Ok(d.current_freq().as_hz() as u64)
    }

    /// `rsmi_dev_gpu_clk_freq_set` via a target frequency in MHz (rocm-smi
    /// exposes performance levels; we accept the level's frequency directly).
    pub fn dev_gpu_clk_freq_set(&self, dv_ind: usize, mhz: u32) -> Result<(), RsmiError> {
        let mut d = self.dev(dv_ind)?.lock();
        d.set_application_clocks(MegaHertz(mhz))
            .map_err(|e| RsmiError::from(NvmlError::from(e)))
    }

    /// `rsmi_dev_perf_level_set(AUTO)` — return the clock to the governor.
    pub fn dev_perf_level_auto(&self, dv_ind: usize) -> Result<(), RsmiError> {
        let mut d = self.dev(dv_ind)?.lock();
        d.reset_application_clocks()
            .map_err(|e| RsmiError::from(NvmlError::from(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::{GpuSpec, KernelWorkload};

    fn session() -> RocmSmi {
        let devs = (0..2)
            .map(|i| Arc::new(Mutex::new(GpuDevice::new(i, GpuSpec::mi250x_gcd()))))
            .collect();
        RocmSmi::init(devs)
    }

    #[test]
    fn power_is_reported_in_microwatts() {
        let s = session();
        let dev = Arc::clone(s.dev(0).unwrap());
        dev.lock()
            .run_region(&KernelWorkload::new("k", 1e12, 1e11).with_activity(0.9, 0.6));
        let uw = s.dev_power_ave_get(0).unwrap();
        // MI250X GCD draws between idle (45 W) and TDP (250 W).
        assert!(uw > 45_000_000, "got {uw} uW");
        assert!(uw < 250_000_000, "got {uw} uW");
    }

    #[test]
    fn energy_counter_accumulates_microjoules() {
        let s = session();
        assert_eq!(s.dev_energy_count_get(0).unwrap(), 0);
        let dev = Arc::clone(s.dev(0).unwrap());
        dev.lock().run_region(&KernelWorkload::new("k", 1e12, 1e11));
        assert!(s.dev_energy_count_get(0).unwrap() > 0);
    }

    #[test]
    fn clk_set_on_supported_step_mhz() {
        let s = session();
        assert!(s.dev_gpu_clk_freq_set(0, 1500).is_ok());
        assert_eq!(s.dev_gpu_clk_freq_get(0).unwrap(), 1_500_000_000);
        assert!(s.dev_gpu_clk_freq_set(0, 1501).is_err());
    }

    #[test]
    fn out_of_range_device_not_found() {
        let s = session();
        assert!(matches!(
            s.dev_power_ave_get(7),
            Err(RsmiError::NotFound { index: 7, count: 2 })
        ));
    }

    #[test]
    fn perf_level_auto_restores_dvfs() {
        let s = session();
        s.dev_gpu_clk_freq_set(1, 1700).unwrap();
        s.dev_perf_level_auto(1).unwrap();
        let dev = s.dev(1).unwrap().lock();
        assert!(matches!(dev.policy(), archsim::ClockPolicy::Dvfs(_)));
    }
}
