//! The [`LiveTap`]: a lock-light shared-state mirror of a running engine.
//!
//! The tap is the bridge between the deterministic, single-owner world of
//! the engine and the concurrent world of status-server threads. It never
//! feeds anything *back* into the run — readers see a mirror, the engine
//! sees a sink — so attaching it cannot perturb determinism; the
//! bit-identical decision-stream test in `tests/live_watch.rs` pins that.
//!
//! Three feeds, all cheap on the engine side:
//!
//! - **progress**: the engine pushes a [`HealthSnapshot`] on its amortized
//!   instrumentation cadence (every 64k events) through the
//!   [`ProgressSink`] impl; the tap stores the fields in atomics.
//! - **heartbeat/watchdog**: the same impl keeps the latest heartbeat
//!   line the engine wrote to stderr; a tripped watchdog marks the run
//!   aborted.
//! - **events**: the tap is an [`Observer`] through a shared reference,
//!   so a caller tees the stream into it (`pdpa_obs::TeeObserver`) and
//!   it keeps a bounded ring with honest drop accounting — under lock
//!   contention the tap *drops* (and counts) rather than ever blocking
//!   the engine.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pdpa_obs::{ObsEvent, Observer, TimedEvent};
use pdpa_prof::{memory_high_water_kib, HealthSnapshot, ProgressSink};
use pdpa_sim::SimTime;

use crate::proto::{HealthBody, ProgressBody, RunState, StatusBody, TailBody, PROTO_VERSION};

/// Immutable identity of the watched run, set once at tap creation.
#[derive(Clone, Debug, Default)]
pub struct RunMeta {
    /// The policy's display name.
    pub policy: String,
    /// The trace (or workload) being replayed.
    pub trace: String,
    /// Jobs in the workload.
    pub jobs_total: u64,
}

const STATE_RUNNING: u8 = 0;
const STATE_DONE: u8 = 1;
const STATE_ABORTED: u8 = 2;

/// Default bound on the recent-event ring.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// The shared-state mirror served by [`StatusServer`](crate::StatusServer).
#[derive(Debug)]
pub struct LiveTap {
    meta: RunMeta,
    started: Instant,
    state: AtomicU8,
    // Live job total: seeded from meta, grown by online admission when a
    // daemon owns the tap (batch replays never touch it).
    jobs_total: AtomicU64,

    // Progress mirror, written by ProgressSink::progress.
    sim_clock_bits: AtomicU64,
    events_popped: AtomicU64,
    queue_len: AtomicU64,
    running: AtomicU64,
    waiting: AtomicU64,

    // Health mirror.
    heartbeat_line: Mutex<Option<String>>,
    watchdog: Mutex<Option<String>>,

    // Event feed, written through the `Observer` impl.
    events_published: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_finished: AtomicU64,
    jobs_failed: AtomicU64,
    ring: Mutex<VecDeque<TimedEvent>>,
    ring_cap: usize,
    ring_dropped: AtomicU64,
}

impl LiveTap {
    /// A tap for the given run, with the default ring capacity.
    pub fn new(meta: RunMeta) -> Arc<Self> {
        Self::with_ring_capacity(meta, DEFAULT_RING_CAPACITY)
    }

    /// A tap keeping at most `capacity` recent events.
    pub fn with_ring_capacity(meta: RunMeta, capacity: usize) -> Arc<Self> {
        let jobs_total = AtomicU64::new(meta.jobs_total);
        Arc::new(LiveTap {
            meta,
            started: Instant::now(),
            state: AtomicU8::new(STATE_RUNNING),
            jobs_total,
            sim_clock_bits: AtomicU64::new(0),
            events_popped: AtomicU64::new(0),
            queue_len: AtomicU64::new(0),
            running: AtomicU64::new(0),
            waiting: AtomicU64::new(0),
            heartbeat_line: Mutex::new(None),
            watchdog: Mutex::new(None),
            events_published: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_finished: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            ring_cap: capacity.max(1),
            ring_dropped: AtomicU64::new(0),
        })
    }

    /// Marks the run finished (all outputs computed).
    pub fn mark_done(&self) {
        // Never downgrade an abort: watchdog_fired may have run first.
        let _ = self.state.compare_exchange(
            STATE_RUNNING,
            STATE_DONE,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Marks the run aborted with the watchdog's diagnostic.
    pub fn mark_aborted(&self, diagnostic: &str) {
        *self.watchdog.lock().unwrap() = Some(diagnostic.to_string());
        self.state.store(STATE_ABORTED, Ordering::Relaxed);
    }

    /// Where the run is in its lifecycle.
    pub fn state(&self) -> RunState {
        match self.state.load(Ordering::Relaxed) {
            STATE_DONE => RunState::Done,
            STATE_ABORTED => RunState::Aborted,
            _ => RunState::Running,
        }
    }

    /// Wall-clock seconds since the tap was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Updates the live job total (online admission grew the workload).
    pub fn set_jobs_total(&self, total: u64) {
        self.jobs_total.store(total, Ordering::Relaxed);
    }

    /// The current job total: the workload size at tap creation, plus any
    /// jobs admitted online since.
    pub fn jobs_total(&self) -> u64 {
        self.jobs_total.load(Ordering::Relaxed)
    }

    /// The watched run's policy display name.
    pub fn policy(&self) -> &str {
        &self.meta.policy
    }

    /// Observer events published through the tap so far.
    pub fn events_published(&self) -> u64 {
        self.events_published.load(Ordering::Relaxed)
    }

    /// The `status` view.
    pub fn status_body(&self) -> StatusBody {
        StatusBody {
            proto: PROTO_VERSION,
            state: self.state(),
            policy: self.meta.policy.clone(),
            trace: self.meta.trace.clone(),
            jobs_total: self.jobs_total(),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_finished: self.jobs_finished.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            events_published: self.events_published(),
            elapsed_secs: self.elapsed_secs(),
            watchdog: self.watchdog.lock().unwrap().clone(),
        }
    }

    /// The `progress` view.
    pub fn progress_body(&self) -> ProgressBody {
        let elapsed = self.elapsed_secs();
        let events_popped = self.events_popped.load(Ordering::Relaxed);
        let finished = self.jobs_finished.load(Ordering::Relaxed);
        let total = self.jobs_total();
        // Naive proportional ETA over finished jobs; honest enough for a
        // progress line, absent only before the first completion.
        let eta_secs = (finished > 0 && total > finished)
            .then(|| elapsed * (total - finished) as f64 / finished as f64);
        ProgressBody {
            sim_clock_secs: f64::from_bits(self.sim_clock_bits.load(Ordering::Relaxed)),
            events_popped,
            events_per_sec: if elapsed > 0.0 {
                events_popped as f64 / elapsed
            } else {
                0.0
            },
            queue_len: self.queue_len.load(Ordering::Relaxed),
            running: self.running.load(Ordering::Relaxed),
            waiting: self.waiting.load(Ordering::Relaxed),
            jobs_finished: finished,
            jobs_total: total,
            eta_secs,
            elapsed_secs: elapsed,
        }
    }

    /// The `health` view.
    pub fn health_body(&self) -> HealthBody {
        HealthBody {
            heartbeat: self.heartbeat_line.lock().unwrap().clone(),
            watchdog: self.watchdog.lock().unwrap().clone(),
            memory_hwm_kib: memory_high_water_kib(),
        }
    }

    /// The `tail n` view: up to `n` most recent ring events, oldest first.
    pub fn tail_body(&self, n: usize) -> TailBody {
        let ring = self.ring.lock().unwrap();
        let skip = ring.len().saturating_sub(n);
        TailBody {
            events: ring.iter().skip(skip).map(TimedEvent::to_line).collect(),
            dropped: self.ring_dropped.load(Ordering::Relaxed),
        }
    }
}

impl ProgressSink for LiveTap {
    fn progress(&self, snapshot: &HealthSnapshot) {
        self.sim_clock_bits
            .store(snapshot.sim_clock_secs.to_bits(), Ordering::Relaxed);
        self.events_popped
            .store(snapshot.events_popped, Ordering::Relaxed);
        self.queue_len
            .store(snapshot.queue_len as u64, Ordering::Relaxed);
        self.running
            .store(snapshot.running as u64, Ordering::Relaxed);
        self.waiting
            .store(snapshot.waiting as u64, Ordering::Relaxed);
    }

    fn heartbeat(&self, line: &str) {
        *self.heartbeat_line.lock().unwrap() = Some(line.to_string());
    }

    fn watchdog_fired(&self, diagnostic: &str) {
        self.mark_aborted(diagnostic);
    }
}

/// Feeds each event into the mirror. Non-blocking: if a server thread
/// holds the ring, the event is counted as dropped instead of making the
/// engine wait. Readers see a mirror and the publisher sees a sink, which
/// is why a `--serve` run records the byte-identical stream of a plain
/// run.
impl Observer for &LiveTap {
    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        // fetch_add returns the prior count — a 0-based publication seq.
        let seq = self.events_published.fetch_add(1, Ordering::Relaxed);
        match event {
            ObsEvent::JobSubmitted { .. } => {
                self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::JobFinished { .. } => {
                self.jobs_finished.fetch_add(1, Ordering::Relaxed);
            }
            ObsEvent::JobFailed { .. } => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        match self.ring.try_lock() {
            Ok(mut ring) => {
                if ring.len() == self.ring_cap {
                    ring.pop_front();
                    self.ring_dropped.fetch_add(1, Ordering::Relaxed);
                }
                ring.push_back(TimedEvent {
                    at,
                    seq,
                    event: event.clone(),
                });
            }
            Err(_) => {
                self.ring_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_obs::{RecordingObserver, TeeObserver};
    use pdpa_sim::JobId;

    fn meta() -> RunMeta {
        RunMeta {
            policy: "PDPA".into(),
            trace: "w2".into(),
            jobs_total: 4,
        }
    }

    #[test]
    fn tap_counts_jobs_and_mirrors_progress() {
        let tap = LiveTap::new(meta());
        let mut feed = &*tap;
        feed.on_event(
            SimTime::from_secs(1.0),
            &ObsEvent::JobSubmitted { job: JobId(0) },
        );
        feed.on_event(
            SimTime::from_secs(2.0),
            &ObsEvent::JobFinished { job: JobId(0) },
        );
        tap.progress(&HealthSnapshot {
            sim_clock_secs: 2.5,
            events_popped: 42,
            queue_len: 3,
            running: 1,
            waiting: 2,
        });

        let status = tap.status_body();
        assert_eq!(status.jobs_submitted, 1);
        assert_eq!(status.jobs_finished, 1);
        assert_eq!(status.events_published, 2);
        assert_eq!(status.state, RunState::Running);

        let progress = tap.progress_body();
        assert_eq!(progress.sim_clock_secs, 2.5);
        assert_eq!(progress.events_popped, 42);
        assert_eq!(progress.queue_len, 3);
        assert!(progress.eta_secs.is_some(), "one job finished of four");
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let tap = LiveTap::with_ring_capacity(meta(), 2);
        let mut feed = &*tap;
        for i in 0..5u32 {
            feed.on_event(
                SimTime::from_secs(f64::from(i)),
                &ObsEvent::JobSubmitted { job: JobId(i) },
            );
        }
        let tail = tap.tail_body(10);
        assert_eq!(tail.events.len(), 2, "ring keeps the newest two");
        assert_eq!(tail.dropped, 3, "evictions are counted");
        assert!(tail.events[0].contains("job=3"), "got: {:?}", tail.events);
        assert!(tail.events[1].contains("job=4"), "got: {:?}", tail.events);
        // tail 1 returns only the newest.
        assert_eq!(tap.tail_body(1).events.len(), 1);
    }

    #[test]
    fn jobs_total_grows_with_online_admission() {
        let tap = LiveTap::new(meta());
        assert_eq!(tap.status_body().jobs_total, 4);
        assert_eq!(tap.status_body().proto, PROTO_VERSION);
        tap.set_jobs_total(9);
        assert_eq!(tap.status_body().jobs_total, 9);
        assert_eq!(tap.progress_body().jobs_total, 9);
    }

    #[test]
    fn abort_wins_over_done() {
        let tap = LiveTap::new(meta());
        tap.watchdog_fired("watchdog: stuck");
        tap.mark_done();
        assert_eq!(tap.state(), RunState::Aborted);
        assert!(tap.status_body().watchdog.is_some());
    }

    #[test]
    fn heartbeat_stores_latest_line() {
        let tap = LiveTap::new(meta());
        assert!(tap.health_body().heartbeat.is_none());
        tap.heartbeat("heartbeat t+5s: clock=1.0s");
        tap.heartbeat("heartbeat t+10s: clock=2.0s");
        assert_eq!(
            tap.health_body().heartbeat.as_deref(),
            Some("heartbeat t+10s: clock=2.0s")
        );
    }

    #[test]
    fn a_tee_into_the_tap_forwards_everything() {
        let tap = LiveTap::with_ring_capacity(meta(), 1);
        let mut rec = RecordingObserver::new();
        {
            let mut feed = &*tap;
            let mut obs = TeeObserver(&mut feed, &mut rec);
            assert!(obs.is_enabled());
            for i in 0..3u32 {
                obs.on_event(
                    SimTime::from_secs(f64::from(i)),
                    &ObsEvent::JobSubmitted { job: JobId(i) },
                );
            }
        }
        assert_eq!(rec.events().len(), 3, "recorder sees the full stream");
        assert_eq!(tap.tail_body(10).events.len(), 1, "tap ring is bounded");
    }
}
