//! # pdpa-suite — Performance-Driven Processor Allocation
//!
//! A full reproduction of *Performance-Driven Processor Allocation*
//! (Corbalan, Martorell & Labarta — OSDI 2000 / IEEE TPDS 2005): the PDPA
//! coordinated scheduling policy, the NANOS execution environment it lives
//! in, the baseline policies it was evaluated against, and the experiment
//! harness that regenerates every table and figure of the paper's
//! evaluation.
//!
//! This crate is a facade: it re-exports the workspace's public API under
//! one roof and hosts the runnable examples and cross-crate integration
//! tests. The pieces are:
//!
//! - [`core`] (`pdpa-core`) — **the paper's contribution**: the PDPA state
//!   machine and coordinated multiprogramming-level policy;
//! - [`sim`] (`pdpa-sim`) — discrete-event substrate and CC-NUMA machine
//!   model;
//! - [`apps`] (`pdpa-apps`) — malleable iterative application models with
//!   the four calibrated paper applications;
//! - [`perf`] (`pdpa-perf`) — the SelfAnalyzer runtime measurement layer;
//! - [`policies`] (`pdpa-policies`) — the scheduling-policy interface plus
//!   Equipartition, Equal_efficiency, and the IRIX time-sharing model;
//! - [`qs`] (`pdpa-qs`) — queuing system, SWF traces, workload generator;
//! - [`engine`] (`pdpa-engine`) — the workload execution engine;
//! - [`faults`] (`pdpa-faults`) — deterministic fault-injection plans
//!   (CPU failures, job crashes, retry policies) for chaos runs;
//! - [`trace`] (`pdpa-trace`) — Paraver-style tracing and Table-2 stats;
//! - [`obs`] (`pdpa-obs`) — structured observability: the decision-event
//!   bus, the metrics registry, the binary/text observer stream codecs, and
//!   the Chrome-trace/CSV/JSON exporters;
//! - [`prof`] (`pdpa-prof`) — engine self-profiling: hierarchical
//!   wall-clock spans on one coordinator lane, hot-path reports, heartbeat
//!   snapshots, and the zero-progress watchdog;
//! - [`watch`] (`pdpa-watch`) — live run observability: the `LiveTap`
//!   shared-state mirror, the line-delimited status/metrics query protocol
//!   and TCP server behind `pdpa replay --serve` / `pdpa watch`, and the
//!   Prometheus text exporter for the metrics registry;
//! - [`analyze`] (`pdpa-analyze`) — trace analytics over recorded event
//!   streams: per-job timelines, PDPA time-in-state, migration accounting,
//!   CPU/MPL series, and run diffs;
//! - [`metrics`] (`pdpa-metrics`) — response/execution aggregation;
//! - [`nthlib`] (`pdpa-nthlib`) — a malleable runtime on real threads;
//! - [`hybrid`] (`pdpa-hybrid`) — MPI+OpenMP hybrid applications (§6
//!   future work, built out);
//! - [`cluster`] (`pdpa-cluster`) — clusters of SMPs with cooperating
//!   per-node schedulers (§6 future work, built out).
//!
//! # Quickstart
//!
//! ```
//! use pdpa_suite::prelude::*;
//!
//! // Generate the paper's workload 3 at 60 % load and run it under PDPA.
//! let jobs = Workload::W3.build(0.6, 42);
//! let result = Engine::new(EngineConfig::default())
//!     .run(jobs, Box::new(Pdpa::paper_default()));
//!
//! assert!(result.completed_all);
//! println!(
//!     "bt.A mean response: {:.0} s, peak multiprogramming level: {}",
//!     result.summary.class_averages(AppClass::BtA).unwrap().avg_response_secs,
//!     result.max_ml,
//! );
//! ```

pub use pdpa_analyze as analyze;
pub use pdpa_apps as apps;
pub use pdpa_cluster as cluster;
pub use pdpa_core as core;
pub use pdpa_engine as engine;
pub use pdpa_faults as faults;
pub use pdpa_hybrid as hybrid;
pub use pdpa_metrics as metrics;
pub use pdpa_nthlib as nthlib;
pub use pdpa_obs as obs;
pub use pdpa_perf as perf;
pub use pdpa_policies as policies;
pub use pdpa_prof as prof;
pub use pdpa_qs as qs;
pub use pdpa_sim as sim;
pub use pdpa_trace as trace;
pub use pdpa_watch as watch;

/// The names most programs need, importable in one line.
pub mod prelude {
    pub use pdpa_apps::{paper_app, AppClass, ApplicationSpec, SpeedupModel};
    pub use pdpa_core::{Pdpa, PdpaParams};
    pub use pdpa_engine::{Engine, EngineConfig, RunResult};
    pub use pdpa_faults::{FaultPlan, RetryPolicy};
    pub use pdpa_metrics::Summary;
    pub use pdpa_perf::{PerfSample, SelfAnalyzer, SelfAnalyzerConfig};
    pub use pdpa_policies::{
        EqualEfficiency, Equipartition, GangScheduler, HeSrpt, IrixLike, LearnedAlloc, OptSplit,
        RigidFirstFit, SchedulingPolicy, SharingModel,
    };
    pub use pdpa_qs::{JobSpec, QueueSystem, Workload};
    pub use pdpa_sim::{CostModel, JobId, Machine, SimDuration, SimTime};
    pub use pdpa_trace::{BurstStats, Trace, TraceObserver};
}
