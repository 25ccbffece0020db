//! # sph — an SPH-EXA-like smoothed particle hydrodynamics framework
//!
//! A CPU reimplementation of the simulation framework the paper instruments
//! (Cavelan et al., *A smoothed particle hydrodynamics mini-app for
//! exascale*, PASC'20 — ref. \[3\]): grad-h SPH with IAD derivatives,
//! time-dependent artificial-viscosity switches, Barnes-Hut self-gravity,
//! SFC domain decomposition with halo exchange, and the two Table I
//! workloads (Subsonic Turbulence, Evrard Collapse).
//!
//! Physics runs at laptop scale; every instrumented function also carries a
//! paper-scale GPU workload model ([`FuncId::workload`]) that the
//! architecture simulator turns into virtual time and energy. The
//! [`StepObserver`] hooks around each function are the integration point for
//! the paper's contribution (energy measurement + dynamic frequency
//! scaling).

pub mod av;
pub mod conservation;
pub mod density;
pub mod eos;
pub mod funcs;
pub mod gravity;
pub mod iad;
pub mod ic;
pub mod kernels;
pub(crate) mod lanes;
pub mod momentum;
pub mod nbody;
pub mod particles;
pub mod reference;
pub mod sim;
pub mod snapshot;
pub mod timestep;
pub mod update;

pub use conservation::EnergyBudget;
pub use eos::Eos;
pub use funcs::{FuncId, WorkloadProfile};
pub use ic::{
    evrard, kelvin_helmholtz, rotating_disk, sedov, sod, subsonic_turbulence, InitialConditions,
};
pub use kernels::Kernel;
pub use nbody::{plummer, NBody, NBODY_FUNCS};
pub use particles::Particles;
pub use sim::{
    interaction_radius, list_radii_into, NullObserver, SimConfig, Simulation, StepObserver,
    StepStats,
};
pub use snapshot::{decode_particles, encode_particles, fnv1a, SNAPSHOT_VERSION};
