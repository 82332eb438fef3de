//! Structured observability for the PDPA reproduction.
//!
//! The engine emits only final `RunResult` aggregates; this crate adds
//! the layer that lets the harness (and a human) *watch the scheduler
//! act* — the paper's evaluation is built on exactly that kind of
//! visibility (Fig. 5 execution views, Fig. 8 multiprogramming-level
//! history, Table 2 migration statistics, and the per-application PDPA
//! state transitions of §4.2).
//!
//! Three pieces:
//!
//! - the **decision-event bus** ([`Observer`], [`ObsEvent`]): the engine
//!   publishes typed events — job arrival/start/finish, per-iteration
//!   measurements, policy decisions with the PDPA state transition behind
//!   them, multiprogramming-level changes, reallocation costs, per-CPU
//!   occupancy. [`NullObserver`] keeps the disabled path free (the engine
//!   caches `is_enabled()` into a bool and skips event construction);
//!   [`RecordingObserver`] captures a deterministic `(sim_time, seq)`
//!   ordered stream.
//! - the **metrics registry** ([`metrics`]): process-wide monotonic
//!   counters and lock-free log₂-bucket streaming histograms (p50/p90/p99)
//!   with no external dependencies, fed by the engine's hot paths.
//! - the **exporters** ([`chrome`], [`export`]): Chrome `trace_event`
//!   JSON viewable in Perfetto / `chrome://tracing`, a Fig.-8-style
//!   MPL/allocation time-series CSV, and a metrics JSON document.
//! - the **stream codecs** ([`binary`]): recorded event streams serialize
//!   to stable text lines ([`TimedEvent::to_line`]) or to the compact
//!   length-prefixed `PDPAOBS1` binary frame format, with magic-byte
//!   auto-detection on read ([`parse_stream`]).
//!
//! `RunResult` above refers to `pdpa_engine::RunResult`; this crate sits
//! below the engine (it depends only on `pdpa-sim`) so every layer —
//! engine, trace, parallel harness, CLI — can publish and subscribe
//! without dependency cycles.

pub mod binary;
pub mod chrome;
pub mod collector;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod scope;

pub use binary::{
    is_binary, parse_stream, read_stream, stream_events, write_stream, write_text_stream,
    StreamEvents, StreamWriter,
};
pub use chrome::{chrome_trace, span_trace};
pub use collector::ExperimentFailure;
pub use event::{DecisionTrigger, ObsEvent, StateName, TimedEvent};
pub use export::{metrics_json, mpl_series, mpl_series_csv, MplPoint};
pub use metrics::{Counter, Histogram, MetricsSnapshot, Registry, RunCounters};
pub use observer::{
    FilterObserver, KindCounter, KindFilter, NullObserver, Observer, RecordingObserver, TeeObserver,
};
