//! Discrete-event multiprocessor simulation substrate for the PDPA
//! reproduction.
//!
//! This crate contains the building blocks that everything else stands on:
//!
//! - [`SimTime`] / [`SimDuration`] — the simulated clock (seconds, `f64`).
//! - [`SimRng`] — a small deterministic SplitMix64-based random number
//!   generator, so every experiment is reproducible from a seed.
//! - [`EventQueue`] — a stable binary-heap priority queue of timestamped
//!   events with keyed lazy invalidation. It holds only what is pending
//!   (iteration predictions, faults, ticks); the engine streams arrivals
//!   from the workload's submit-sorted job list and merges them in with
//!   [`EventQueue::pop_before`], so the heap stays as small as the
//!   running set.
//! - [`Machine`] — a CC-NUMA machine model (SGI Origin 2000-like: two CPUs
//!   per node) with affinity-preserving cpuset assignment and migration
//!   accounting.
//! - [`CostModel`] — the price of processor reallocations ("reallocations
//!   are not free", paper §5.1).
//!
//! The workload execution engine itself lives in the `pdpa-engine` crate;
//! this crate deliberately knows nothing about applications or policies.

#![deny(missing_docs)]

pub mod cost;
pub mod event;
pub mod ids;
pub mod machine;
pub mod rng;
pub mod time;

pub use cost::CostModel;
pub use event::{EventQueue, QueueStats};
pub use ids::{CpuId, JobId};
pub use machine::{CpuSet, Machine, MachineStats};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
