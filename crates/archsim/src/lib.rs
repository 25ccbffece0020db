//! # archsim — CPU+GPU node architecture simulator
//!
//! The hardware substrate for the SC 2024 reproduction *"Increasing Energy
//! Efficiency of Astrophysics Simulations Through GPU Frequency Scaling"*.
//! Everything above this crate (NVML shim, PMT, pm_counters, Slurm
//! accounting, the SPH framework) treats these devices as if they were real
//! silicon: kernels take time that depends on the compute clock, power
//! depends on voltage · frequency · activity, and an autonomous DVFS governor
//! boosts clocks on every kernel launch.
//!
//! ## Model summary
//!
//! * **Execution** — roofline: `t(f) = t_mem + t_comp · f_max/f` plus
//!   frequency-independent launch overhead ([`kernel::RooflineModel`]).
//! * **Power** — `P = P_idle + P_sm · a_c · (V(f)/V_max)² · f/f_max +
//!   P_mem · a_m` ([`spec::GpuSpec::busy_power`]).
//! * **Governor** — boost-on-launch before utilization feedback, slow decay
//!   on idle, per-transition energy cost and an autoboost voltage guard-band
//!   ([`governor::DvfsParams`]) — reproducing the paper's §IV-E trace and the
//!   "DVFS costs more energy than pinned clocks" result.
//! * **Time** — virtual nanoseconds; runs are deterministic and paper-scale
//!   workloads complete in host-milliseconds ([`time`]).

pub mod cpu;
pub mod error;
pub mod freq;
pub mod governor;
pub mod gpu;
pub mod kernel;
pub mod node;
pub mod spec;
pub mod systems;
pub mod template;
pub mod thermal;
pub mod time;
pub mod timeline;
pub mod units;

pub use cpu::{CpuDevice, MemoryDevice};
pub use error::ArchError;
pub use freq::{ClockTable, VoltageCurve};
pub use governor::{ClockPolicy, DvfsParams};
pub use gpu::{ExecModelKind, GpuDevice, RegionExec};
pub use kernel::{ExecBreakdown, ExecModel, KernelWorkload, NaiveInverseModel, RooflineModel};
pub use node::{Node, NodeSpec};
pub use spec::{CpuSpec, GpuSpec, MemSpec};
pub use systems::{all_systems, cscs_a100, lumi_g, mini_hpc, Cluster, SystemSpec};
pub use template::{Cooling, DeviceTemplate, BUILTIN_DEVICES};
pub use thermal::ThermalSpec;
pub use time::{SimDuration, SimInstant};
pub use timeline::{FreqTimeline, PowerSegment, PowerTimeline};
pub use units::{EnergyDelay, Joules, MegaHertz, Volts, Watts};
