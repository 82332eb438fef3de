//! Trace analytics over recorded decision-event streams.
//!
//! The observability layer (`pdpa-obs`) records what the scheduler *did*;
//! this crate answers what the record *means*. It consumes the
//! `(sim_time, seq)`-ordered [`TimedEvent`](pdpa_obs::TimedEvent) streams
//! a [`RecordingObserver`](pdpa_obs::RecordingObserver) captures and
//! derives the quantities the paper's evaluation is built from:
//!
//! - **per-job timelines** ([`timeline`]) — queue wait (measured from the
//!   `dequeue` hand-off event, so it stays correct under faults and
//!   retries), run spans, response/execution/slowdown;
//! - **PDPA time-in-state** ([`states`]) — how long each application sat
//!   in `NO_REF`/`INC`/`DEC`/`STABLE`, reconstructed from `decision`
//!   transitions and `state` moves (§4.2's narration, quantified);
//! - **allocation stability** ([`stability`]) — migration and placement
//!   accounting recomputed from the raw `cpu` occupancy stream, matching
//!   the engine's own Table-2 counters for both the space-shared and the
//!   time-shared (IRIX) execution models;
//! - **capacity series** ([`series`]) — time-weighted busy/idle CPU
//!   seconds, fragmentation (idle capacity while jobs wait), and
//!   multiprogramming-level statistics (the Fig.-8 dynamics, summarized);
//! - **run diffs** ([`diff`]) — the first divergent event between two
//!   recorded runs plus per-metric deltas, for policy comparisons and
//!   regression hunts across commits.
//!
//! Everything funnels through one fold, [`Analyzer`], which computes all
//! of the above in a single pass; [`RunAnalysis::from_events`] runs it
//! over a recorded stream. The JSON document ([`analysis_json`]) carries
//! the `pdpa-analyze/v1` schema.

pub mod analysis;
pub mod diff;
mod fold;
pub mod series;
pub mod stability;
pub mod states;
pub mod timeline;

pub use analysis::{analysis_json, Analyzer, DecisionStats, RunAnalysis, ANALYSIS_SCHEMA};
pub use diff::{Divergence, RunDiff};
pub use series::{CpuSeries, MplStats};
pub use stability::MigrationStats;
pub use states::StateBreakdown;
pub use timeline::{JobTimeline, SlowdownDist, TimelineStats};
