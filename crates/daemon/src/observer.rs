//! The daemon's owned observer: one event, three destinations.
//!
//! The batch CLI composes borrowing observers (a `TeeObserver` of the
//! live tap and a `RecordingObserver`), which works because a batch run's
//! observer chain outlives exactly one `Engine::run` call. A session owns
//! its observer for the life of the daemon, so `pdpad` uses one owned
//! observer that fans each published event out to:
//!
//! 1. the [`LiveTap`] (status/progress/tail queries),
//! 2. the [`RunRegistry`] (per-job lifecycle for `jobs`/`job`),
//! 3. an optional decision-stream file, written by the text
//!    [`StreamWriter`] in the exact line grammar a batch replay records.
//!
//! The core reaches the observer through its session, under the core's
//! one lock, so none of the three needs a lock of its own.
//!
//! The stream writer carries the snapshot/restore seq contract: it
//! numbers every event, and a restored daemon's writer starts at the
//! snapshot's `events_published` mark, suppressing *writing* (never
//! counting) the events below it. Journal replay regenerates the
//! pre-snapshot events — identical, but already durable in the previous
//! process's stream file — so the continuation file starts at exactly the
//! first unwritten seq, and concatenating the two files reproduces the
//! uninterrupted stream byte for byte. `tests/snapshot_restore.rs` pins
//! that.

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use pdpa_obs::{ObsEvent, Observer, StreamWriter};
use pdpa_sim::SimTime;
use pdpa_watch::LiveTap;

use crate::registry::RunRegistry;

/// The owned observer installed into the daemon's `EngineSession`.
pub struct DaemonObserver {
    pub(crate) tap: Arc<LiveTap>,
    pub(crate) registry: RunRegistry,
    pub(crate) stream: Option<StreamWriter<BufWriter<File>>>,
}

impl std::fmt::Debug for DaemonObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonObserver")
            .field("seq", &self.tap.events_published())
            .field("jobs", &self.registry.len())
            .field("stream", &self.stream.is_some())
            .finish()
    }
}

impl DaemonObserver {
    /// An observer feeding `tap` and an empty registry, writing the
    /// stream to `stream`, if any.
    pub fn new(tap: Arc<LiveTap>, stream: Option<StreamWriter<BufWriter<File>>>) -> Self {
        DaemonObserver {
            tap,
            registry: RunRegistry::default(),
            stream,
        }
    }
}

impl Observer for DaemonObserver {
    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        (&*self.tap).on_event(at, event);
        self.registry.apply(at, event);
        if let Some(stream) = &mut self.stream {
            stream.on_event(at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_sim::JobId;
    use pdpa_watch::RunMeta;

    #[test]
    fn observer_counts_feeds_tap_and_registry() {
        let tap = LiveTap::new(RunMeta::default());
        let mut obs = DaemonObserver::new(Arc::clone(&tap), None);
        obs.registry.admit(0, "swim", 16, 0.0);
        obs.on_event(
            SimTime::from_secs(0.0),
            &ObsEvent::JobSubmitted { job: JobId(0) },
        );
        obs.on_event(
            SimTime::from_secs(1.0),
            &ObsEvent::JobStarted {
                job: JobId(0),
                request: 16,
            },
        );
        assert_eq!(tap.events_published(), 2);
        assert_eq!(tap.status_body().jobs_submitted, 1);
        assert_eq!(obs.registry.row(0).unwrap().state, "running");
    }
}
