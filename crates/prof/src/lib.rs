//! Runtime introspection for the PDPA replay engine.
//!
//! PDPA's thesis is allocation driven by *measured* performance; this crate
//! turns the same discipline on the simulator itself. Three pillars:
//!
//! - [`span`] — a hierarchical wall-clock span profiler. The engine records
//!   nested spans (replay → policy decision → queue-op batches) into one
//!   coordinator [`Lane`]. A disabled lane costs a single branch per span,
//!   so the profiler-off path stays inside the same ≤2% overhead contract
//!   that `NullObserver` is pinned to.
//! - [`report`] — turns the collected lane into a [`Profile`]: its spans
//!   (which `pdpa_obs::chrome::span_trace` renders as one `coordinator`
//!   timeline lane) and a plain-text hot-path report aggregating time per
//!   span kind.
//! - [`health`] — live run health: periodic [`Heartbeat`] snapshots
//!   (sim-clock, events/sec, queue depth, memory high-water) and a
//!   zero-progress [`Watchdog`] that promotes the old
//!   `PDPA_DEBUG_PROGRESS` env hack into a first-class detector which aborts
//!   a stuck run with a structured diagnostic instead of hanging.
//! - [`sink`] — typed delivery for those signals: [`HeartbeatSink`] (stderr,
//!   test-capture, or the `pdpa-watch` live tap) and [`ProgressSink`], the
//!   amortized snapshot feed behind `pdpa replay --serve`.
//!
//! The crate sits below `pdpa-engine` in the dependency graph and has no
//! dependencies of its own: it knows nothing about jobs, policies, or
//! observers — only about wall-clock time and counters.

#![deny(missing_docs)]

pub mod health;
pub mod report;
pub mod sink;
pub mod span;

pub use health::{
    memory_high_water_kib, HealthSnapshot, Heartbeat, HeartbeatConfig, Watchdog, WatchdogConfig,
};
pub use report::Profile;
pub use sink::{CaptureHeartbeat, HeartbeatSink, ProgressSink, StderrHeartbeat, TeeHeartbeat};
pub use span::{Lane, SpanKind, SpanRec, SpanStart};
