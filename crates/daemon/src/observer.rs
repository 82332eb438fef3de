//! The daemon's owned observer: one event, three destinations.
//!
//! The batch CLI composes borrowing observers (`TapObserver` wrapping a
//! `RecordingObserver`), which works because a batch run's observer chain
//! outlives exactly one `Engine::run` call. A session owns its observer
//! for the life of the daemon, so `pdpad` uses one owned observer that
//! fans each published event out to:
//!
//! 1. the [`LiveTap`] (status/progress/tail queries),
//! 2. the [`RunRegistry`] (per-job lifecycle for `jobs`/`job`),
//! 3. an optional decision-stream file, in the exact
//!    `pdpa_obs::TimedEvent` line grammar a batch replay records.
//!
//! The stream writer carries the snapshot/restore seq contract: every
//! event is numbered by the tap's publication counter, and a restored
//! daemon suppresses *writing* (never counting) events below the
//! snapshot's `events_published` mark. Journal replay regenerates the
//! pre-snapshot events — identical, but already durable in the previous
//! process's stream file — so the continuation file starts at exactly the
//! first unwritten seq, and concatenating the two files reproduces the
//! uninterrupted stream byte for byte. `tests/snapshot_restore.rs` pins
//! that.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::sync::{Arc, Mutex};

use pdpa_obs::{ObsEvent, Observer, TimedEvent};
use pdpa_sim::SimTime;
use pdpa_watch::LiveTap;

use crate::registry::RunRegistry;

/// Shared handle to the decision-stream file, so the core can flush it at
/// snapshot/shutdown barriers while the observer owns the writes.
pub type StreamHandle = Arc<Mutex<StreamFile>>;

pub(crate) const STREAM_POISONED: &str = "a thread panicked while writing the stream file";

/// The buffered decision-stream file. It keeps the first write or flush
/// error, as `pdpa_obs::StreamWriter` does: after one, the file is short,
/// and no later write may pretend otherwise.
#[derive(Debug)]
pub struct StreamFile {
    out: BufWriter<File>,
    error: Option<io::Error>,
}

impl StreamFile {
    /// A buffered stream over `file`.
    pub fn new(file: File) -> Self {
        StreamFile {
            out: BufWriter::new(file),
            error: None,
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_none() {
            self.error = writeln!(self.out, "{line}").err();
        }
    }

    /// Flushes the buffer and returns the first write or flush error, if
    /// any.
    pub fn flush(&mut self) -> Option<&io::Error> {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
        self.error.as_ref()
    }
}

/// The owned observer installed into the daemon's `EngineSession`.
pub struct DaemonObserver {
    tap: Arc<LiveTap>,
    registry: Arc<RunRegistry>,
    first_kept: u64,
    stream: Option<StreamHandle>,
}

impl std::fmt::Debug for DaemonObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonObserver")
            .field("seq", &self.tap.events_published())
            .field("first_kept", &self.first_kept)
            .field("stream", &self.stream.is_some())
            .finish()
    }
}

impl DaemonObserver {
    /// An observer feeding `tap` and `registry`, writing the stream to
    /// `stream` (if any) from seq `first_kept` onward. The tap numbers
    /// the events, and the core reads its count for snapshots.
    pub fn new(
        tap: Arc<LiveTap>,
        registry: Arc<RunRegistry>,
        first_kept: u64,
        stream: Option<StreamHandle>,
    ) -> Self {
        DaemonObserver {
            tap,
            registry,
            first_kept,
            stream,
        }
    }
}

impl Observer for DaemonObserver {
    fn is_enabled(&self) -> bool {
        true
    }

    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        let seq = self.tap.observe(at, event);
        self.registry.apply(at, event);
        if seq >= self.first_kept {
            if let Some(stream) = &self.stream {
                let line = TimedEvent {
                    at,
                    seq,
                    event: event.clone(),
                }
                .to_line();
                stream.lock().expect(STREAM_POISONED).write_line(&line);
            }
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
        let registry = RunRegistry::new();
        registry.admit(0, "swim", 16, 0.0);
        let mut obs = DaemonObserver::new(Arc::clone(&tap), Arc::clone(&registry), 0, None);
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
        assert_eq!(registry.row(0).unwrap().state, "running");
    }
}
