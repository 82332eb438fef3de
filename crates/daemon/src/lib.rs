//! `pdpad`: the resident PDPA scheduler daemon (ROADMAP item 1).
//!
//! Every engine before this crate runs a *closed* workload: jobs are known
//! up front, the run ends when they drain. `pdpad` turns the same
//! deterministic simulation core into an *open* service — a long-running
//! process that owns a live [`EngineSession`](pdpa_engine::EngineSession),
//! admits jobs as they arrive
//! over TCP, and can be killed and restarted mid-workload without losing
//! (or perturbing) a single decision event. Four layers:
//!
//! - [`core`] — the [`DaemonCore`]: the heart that applies, one at a
//!   time, the control operations (`submit`, `cancel`, `drain`, `snapshot`,
//!   `shutdown`) to the session, enforces the admission bound
//!   (`queue_full` backpressure), journals every accepted mutation, and
//!   writes/restores snapshots.
//! - [`journal`] — the [`Op`] journal and the `pdpa-snapshot/v1` file
//!   format. A snapshot is *not* a serialized heap: it is the engine
//!   config, the ordered journal of effective-instant ops, the time
//!   barrier, and an integrity block of counters a restore must
//!   reproduce exactly. Replaying the journal against a fresh session
//!   reconstructs the full state — RNG streams included, because all
//!   per-job noise derives positionally from `(seed, job, attempt)`.
//! - [`registry`] — the per-job run registry behind the `jobs`/`job`
//!   queries: class, request, lifecycle state, submit/finish instants.
//! - [`serve`] — the TCP front: a [`Daemon`] puts the core behind one
//!   lock shared by the `pdpa_watch::StatusServer` connection threads.
//!   Query traffic (`status`, `progress`, `health`, `metrics`, `tail`) is
//!   answered from the [`LiveTap`](pdpa_watch::LiveTap) without touching
//!   the core; a control op runs on its connection thread under the lock
//!   and gets explicit `busy` backpressure when too many ops already wait
//!   for the core.
//!
//! The wire protocol is `pdpa_watch::proto` v2; `DAEMON.md` at the repo
//! root documents every frame, error code, and the snapshot format.

#![deny(missing_docs)]

pub mod core;
pub mod journal;
pub mod observer;
pub mod registry;
pub mod serve;

pub use crate::core::{DaemonConfig, DaemonCore};
pub use journal::{Op, Snapshot, SnapshotCheck, SnapshotConfig, SNAPSHOT_FORMAT};
pub use registry::RunRegistry;
pub use serve::{bind_daemon, Daemon};
