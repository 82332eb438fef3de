//! The workload execution engine.
//!
//! This crate plays the role of the machine plus the enforcement half of the
//! NANOS Resource Manager: it executes a workload of malleable iterative
//! applications on the simulated CC-NUMA machine under a
//! [`pdpa_policies::SchedulingPolicy`], coordinating
//!
//! - the **queuing system** (`pdpa-qs`): arrivals enter the FCFS queue; the
//!   policy decides *when* the head job may start (§4.3);
//! - the **applications** (`pdpa-apps`): progress advances at
//!   `S(p)/T₁` iterations per second under the current allocation, with
//!   reallocation penalties charged as progress debt;
//! - the **SelfAnalyzer** (`pdpa-perf`): each completed iteration is timed
//!   (with measurement noise) and the resulting speedup estimate is
//!   reported to the policy;
//! - the **tracer** (`pdpa-trace`): a chained `pdpa_trace::TraceObserver`
//!   folds the published per-CPU occupancy into the Fig. 5 views and
//!   Table 2 statistics; `EngineConfig::collect_trace` runs the quantum
//!   clock they need, which changes time-shared runs' RNG draws.
//!
//! There is one event loop. Like the NANOS resource manager, it
//! re-decides an allocation the moment a job reports an iteration:
//! [`Engine`] runs a whole workload in one call, and [`EngineSession`]
//! steps the same loop incrementally for the resident daemon, with
//! submissions injected mid-run.
//!
//! Space-sharing policies get dedicated cpusets from the machine model;
//! the IRIX-like baseline instead declares
//! [`pdpa_policies::SharingModel::TimeShared`] and runs under the
//! per-quantum time-sharing model in [`timeshare`].
//!
//! # Example
//!
//! ```
//! use pdpa_core::Pdpa;
//! use pdpa_engine::{Engine, EngineConfig};
//! use pdpa_qs::Workload;
//!
//! let jobs = Workload::W3.build(0.6, 42);
//! let result = Engine::new(EngineConfig::default())
//!     .run(jobs, Box::new(Pdpa::paper_default()));
//! assert!(result.completed_all);
//! ```

pub mod config;
pub mod engine;
pub mod instrument;
pub mod result;
pub mod session;
pub mod store;
pub mod timeshare;

pub use config::EngineConfig;
pub use engine::{CancelOutcome, Engine};
pub use instrument::Instrumentation;
pub use result::RunResult;
pub use session::EngineSession;
pub use store::JobStore;
