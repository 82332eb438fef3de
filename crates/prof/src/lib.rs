//! Runtime introspection for the PDPA replay engine.
//!
//! PDPA's thesis is allocation driven by *measured* performance; this crate
//! turns the same discipline on the simulator itself. Three pillars:
//!
//! - [`span`] and [`report`] — the engine's self-profile. Each timed layer
//!   of the engine goes through one `pdpa_obs::metrics::SampledTimer`,
//!   which counts every call and times one in `SAMPLE_EVERY`; the
//!   `replay` span is timed once per run. The engine fills a [`Profile`]
//!   from those timers: per [`SpanKind`], the exact calls, the samples,
//!   their summed time and the sampled spans (which
//!   `pdpa_obs::chrome::span_trace` renders as one `coordinator` timeline
//!   lane), plus a plain-text hot-path report that extrapolates each
//!   kind's total from its mean sample.
//! - [`health`] — live run health: periodic [`Heartbeat`] snapshots
//!   (sim-clock, events/sec, queue depth, memory high-water) and a
//!   zero-progress [`Watchdog`] that promotes the old
//!   `PDPA_DEBUG_PROGRESS` env hack into a first-class detector which aborts
//!   a stuck run with a structured diagnostic instead of hanging.
//! - [`sink`] — [`ProgressSink`], the live path for those signals behind
//!   `pdpa replay --serve`: amortized snapshots, heartbeat lines (which
//!   the engine also writes to stderr) and a tripped watchdog.
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
pub use report::{KindProfile, Profile};
pub use sink::ProgressSink;
pub use span::SpanKind;
