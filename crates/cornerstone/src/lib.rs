//! # cornerstone — octree construction for scalable particle simulations
//!
//! A CPU reimplementation of the data structures SPH-EXA builds on
//! (Keller et al., *Cornerstone: Octree construction algorithms for scalable
//! particle simulations*, PASC'23 — the paper's ref. \[26\]):
//!
//! * [`key`] — 63-bit Morton SFC keys (21 bits/dimension);
//! * [`octree`] — balanced leaf-array octree built from sorted keys;
//! * [`celllist`] — neighbor search, property-tested against brute force;
//! * [`neighborlist`] — shared per-step CSR neighbor candidates;
//! * [`domain`] — SFC partition across ranks and halo-candidate discovery;
//! * [`box3`] — the global (optionally periodic) simulation volume.

pub mod box3;
pub mod celllist;
pub mod domain;
pub mod key;
pub mod neighborlist;
pub mod octree;
pub mod simd;

pub use box3::Box3;
pub use celllist::{brute_force_neighbors, CellList, MinImage};
pub use domain::{halo_candidates, load_skew, Aabb, Assignment};
pub use key::{decode, encode, key_of, node_range, node_size, KEY_END, MAX_LEVEL};
pub use neighborlist::{NeighborList, NeighborSearch};
pub use octree::Octree;
