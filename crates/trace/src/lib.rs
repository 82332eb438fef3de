//! Paraver-like execution tracing.
//!
//! The paper monitors workload executions with the `scpus` tracing tool and
//! visualizes them with Paraver: "each line represents the activity of a CPU
//! and each color represents a different application" (§5.1.1, Fig. 5), and
//! derives "the total number of process migrations, the duration of the
//! bursts executed by each cpu, and the number of bursts executed per cpu"
//! (Table 2).
//!
//! This crate is the equivalent instrumentation for the simulator:
//!
//! - [`TraceObserver`] folds the engine's event stream into which job
//!   occupies each CPU over time;
//! - [`BurstStats`] computes the Table-2 statistics from a finished trace;
//! - [`render_ascii`] draws the Fig.-5 execution view as text;
//! - [`to_csv`] exports records for external plotting;
//! - [`to_paraver`] writes a Paraver `.prv` document for the real tool;
//! - [`from_paraver`] reads one back, diagnosing malformed input by line.

pub mod paraver;
pub mod record;
pub mod render;
pub mod stats;

pub use paraver::{from_paraver, to_paraver, ParaverError};
pub use record::{ActivityRecord, Trace, TraceObserver};
pub use render::{render_ascii, to_csv, RenderOptions};
pub use stats::BurstStats;
