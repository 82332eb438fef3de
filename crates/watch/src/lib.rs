//! Live run observability: watch a PDPA replay while it runs.
//!
//! Every observability layer before this one (the decision-event bus, the
//! metrics registry, the profiler) is post-hoc: record, finish, analyze.
//! This crate adds the *live* half — the substrate `pdpa replay --serve`
//! and `pdpa watch` are built on, and the seed of the `pdpad` daemon's
//! query surface (ROADMAP item 1):
//!
//! - [`tap`] — the [`LiveTap`], a lock-light shared-state mirror the
//!   engine feeds without perturbing determinism or the ≤2% overhead
//!   bound: atomic progress counters and the latest heartbeat/watchdog
//!   state (both via `pdpa_prof::ProgressSink`), and
//!   a bounded ring of recent observer events with honest drop accounting
//!   (the tap is an `Observer` through `&LiveTap`, teed beside the real
//!   recorder).
//! - [`proto`] — the typed, correlation-ID'd, line-delimited JSON
//!   request/response protocol: the v1 query vocabulary (`status`,
//!   `progress`, `health`, `metrics`, `tail N`) plus the v2 control
//!   vocabulary `pdpad` serves (`hello`, `submit`, `cancel`, `drain`,
//!   `snapshot`, `shutdown`, `jobs`, `job`). Both directions round-trip
//!   through the parsers in this crate (pinned by proptest), so the
//!   client and the daemon share one schema.
//! - [`server`] — a thread-per-connection TCP [`StatusServer`] over
//!   std::net answering protocol queries from the tap and the global
//!   metrics registry. Control requests go through a pluggable
//!   [`ControlHandler`]; the default [`ReadOnlyControl`] identifies
//!   itself and rejects mutation, `pdpad` installs the real one.
//! - [`prom`] — [`prometheus_text`], the Prometheus text-exposition
//!   renderer for the `pdpa-obs` registry (counters and log₂ histograms
//!   as cumulative buckets).
//!
//! The crate sits between `pdpa-prof`/`pdpa-obs` and `pdpa-engine`: the
//! engine only knows the sink traits from `pdpa-prof`, the CLI wires a
//! concrete [`LiveTap`] into them.

#![deny(missing_docs)]

pub mod prom;
pub mod proto;
pub mod server;
pub mod tap;

pub use prom::prometheus_text;
pub use proto::{
    AckBody, HealthBody, HelloBody, JobRow, ProgressBody, RejectBody, Request, RequestKind,
    Response, ResponseBody, RunState, StatusBody, TailBody, PROTO_VERSION,
};
pub use server::{ControlHandler, ReadOnlyControl, StatusServer};
pub use tap::{LiveTap, RunMeta, DEFAULT_RING_CAPACITY};
