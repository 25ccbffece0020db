//! # perf — the host-time benchmark
//!
//! Four workloads, seven end-to-end metrics with regression bounds, and a
//! per-layer breakdown named by crate. Everything is measured from outside
//! the program: wall and CPU time around public entry points, a
//! benchmark-owned observer around the step hooks, and timed direct calls
//! into each crate. See `README.md` for the glossary and `/BENCHMARK.json`
//! for the contract the PR driver checks.
//!
//! *Virtual* time and energy are the paper's results and appear here only
//! as correctness checks; every timing is *host* time and says so.

pub mod compare;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod replica;
pub mod results;
pub mod run;
pub mod serve_load;
pub mod trace;
pub mod workloads;
