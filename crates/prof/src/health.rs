//! Live run health: periodic heartbeat snapshots and a zero-progress
//! watchdog.
//!
//! Both replace the old `PDPA_DEBUG_PROGRESS` env hack, which printed a
//! progress line every million events and left the operator to notice a
//! stuck clock by eye. The heartbeat formats the same signals (sim-clock,
//! events/sec, queue depth) on a wall-clock cadence; the
//! watchdog counts consecutive processing steps during which the simulated
//! clock fails to advance and trips once that count crosses a threshold, so
//! a livelock (like the sub-ULP `time_to_iteration_end` bug PR 6 fixed)
//! aborts with a diagnostic instead of hanging the run.

use std::time::{Duration, Instant};

/// Heartbeat cadence. Intervals are wall-clock, not sim-clock: a healthy
/// run and a stuck run emit at the same rate, which is the point.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// Minimum wall-clock gap between emitted snapshots.
    pub every: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            every: Duration::from_secs(5),
        }
    }
}

/// A point-in-time view of the run that the engine hands to
/// [`Heartbeat::tick`]. Cheap to build; only built when a beat is due.
#[derive(Clone, Debug, Default)]
pub struct HealthSnapshot {
    /// Simulated clock, seconds.
    pub sim_clock_secs: f64,
    /// Cumulative events popped from the event queue.
    pub events_popped: u64,
    /// Current event-queue backlog.
    pub queue_len: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs waiting in the scheduler queue.
    pub waiting: usize,
}

/// Emits a formatted health line at most once per configured interval.
#[derive(Debug)]
pub struct Heartbeat {
    cfg: HeartbeatConfig,
    started: Instant,
    last_emit: Instant,
    last_events: u64,
    beats: u64,
}

impl Heartbeat {
    /// A heartbeat that first fires one interval from now.
    pub fn new(cfg: HeartbeatConfig) -> Self {
        let now = Instant::now();
        Heartbeat {
            cfg,
            started: now,
            last_emit: now,
            last_events: 0,
            beats: 0,
        }
    }

    /// Cheap due-check; call on an amortized cadence (the engine checks
    /// every 64k events, not every event).
    pub fn due(&self) -> bool {
        self.last_emit.elapsed() >= self.cfg.every
    }

    /// Number of lines emitted so far.
    pub fn beats(&self) -> u64 {
        self.beats
    }

    /// If an interval has elapsed, formats one health line and resets the
    /// timer; otherwise returns `None`.
    pub fn tick(&mut self, snap: &HealthSnapshot) -> Option<String> {
        if !self.due() {
            return None;
        }
        let gap = self.last_emit.elapsed().as_secs_f64().max(1e-9);
        let rate = (snap.events_popped.saturating_sub(self.last_events)) as f64 / gap;
        self.last_emit = Instant::now();
        self.last_events = snap.events_popped;
        self.beats += 1;
        let mut line = format!(
            "heartbeat t+{:.0}s: clock={:.1}s events={} ({:.0}/s) qlen={} running={} waiting={}",
            self.started.elapsed().as_secs_f64(),
            snap.sim_clock_secs,
            snap.events_popped,
            rate,
            snap.queue_len,
            snap.running,
            snap.waiting,
        );
        if let Some(kib) = memory_high_water_kib() {
            line.push_str(&format!(" hwm={}KiB", kib));
        }
        Some(line)
    }
}

/// Zero-progress threshold, counted in popped events.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Consecutive steps without sim-clock progress before tripping.
    pub max_stalled: u64,
}

impl WatchdogConfig {
    /// Default for the per-event loop. Same-instant event bursts
    /// (batched arrivals, simultaneous completions) are legitimate, so the
    /// threshold is far above any honest burst while still tripping a true
    /// livelock within seconds of wall-clock time.
    pub fn classic() -> Self {
        WatchdogConfig {
            max_stalled: 5_000_000,
        }
    }
}

/// Tracks sim-clock progress and trips after too many stalled steps.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    last_clock: f64,
    stalled: u64,
}

impl Watchdog {
    /// A watchdog with the given threshold, starting before time zero so
    /// the first observed step always counts as progress.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            last_clock: f64::NEG_INFINITY,
            stalled: 0,
        }
    }

    /// Records one processing step at sim-clock `clock_secs`. Returns
    /// `true` when the stall count has crossed the threshold — the caller
    /// should abort the run with [`Watchdog::diagnostic`].
    #[inline]
    pub fn observe(&mut self, clock_secs: f64) -> bool {
        if clock_secs > self.last_clock {
            self.last_clock = clock_secs;
            self.stalled = 0;
            false
        } else {
            self.stalled += 1;
            self.stalled >= self.cfg.max_stalled
        }
    }

    /// Consecutive stalled steps so far.
    pub fn stalled(&self) -> u64 {
        self.stalled
    }

    /// Structured one-line diagnostic for an aborted run; `detail` carries
    /// engine-specific state (queue depths, running/waiting counts).
    pub fn diagnostic(&self, detail: &str) -> String {
        format!(
            "watchdog: no sim-clock progress for {} consecutive steps (clock stuck at {:.6}s); {}",
            self.stalled, self.last_clock, detail
        )
    }
}

/// Peak resident set size (`VmHWM`) of this process in KiB, read from
/// `/proc/self/status`. Returns `None` off Linux or if the field is
/// missing.
pub fn memory_high_water_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_trips_after_threshold_stalls() {
        let mut wd = Watchdog::new(WatchdogConfig { max_stalled: 3 });
        assert!(!wd.observe(1.0));
        assert!(!wd.observe(1.0));
        assert!(!wd.observe(1.0));
        assert!(wd.observe(1.0), "third stall at the same clock must trip");
        let diag = wd.diagnostic("qlen=5");
        assert!(diag.contains("no sim-clock progress"));
        assert!(diag.contains("qlen=5"));
    }

    #[test]
    fn watchdog_resets_on_progress() {
        let mut wd = Watchdog::new(WatchdogConfig { max_stalled: 2 });
        assert!(!wd.observe(1.0));
        assert!(!wd.observe(1.0));
        assert!(!wd.observe(2.0), "progress resets the stall count");
        assert_eq!(wd.stalled(), 0);
        assert!(!wd.observe(2.0));
        assert!(wd.observe(2.0));
    }

    #[test]
    fn heartbeat_respects_interval() {
        let mut hb = Heartbeat::new(HeartbeatConfig {
            every: Duration::from_secs(3600),
        });
        let snap = HealthSnapshot {
            sim_clock_secs: 10.0,
            events_popped: 100,
            ..Default::default()
        };
        assert!(hb.tick(&snap).is_none(), "first interval has not elapsed");
        assert_eq!(hb.beats(), 0);
    }

    #[test]
    fn heartbeat_formats_the_snapshot() {
        let mut hb = Heartbeat::new(HeartbeatConfig {
            every: Duration::ZERO,
        });
        let line = hb
            .tick(&HealthSnapshot {
                sim_clock_secs: 42.0,
                events_popped: 1000,
                queue_len: 7,
                running: 3,
                waiting: 2,
            })
            .expect("zero interval is always due");
        assert!(line.contains("clock=42.0s"));
        assert!(line.contains("qlen=7"));
        assert!(line.contains("running=3 waiting=2"));
        assert_eq!(hb.beats(), 1);
    }
}
