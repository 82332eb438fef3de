//! Typed delivery paths for live health signals.
//!
//! Health lines have exactly one typed path — a [`HeartbeatSink`] — with
//! three standard implementations: stderr (the old behaviour), an in-memory
//! capture for tests, and (in `pdpa-watch`, which sits above this crate) the
//! live-tap mirror behind `pdpa replay --serve`.
//!
//! [`ProgressSink`] is the second half of the live path: a lock-light
//! receiver for periodic [`HealthSnapshot`] updates that the engine feeds on
//! an amortized cadence (every 64k events), not per event, so the disabled
//! path stays inside the ≤2% overhead contract.

use std::sync::{Arc, Mutex};

use crate::health::HealthSnapshot;

/// Receives formatted heartbeat lines together with the snapshot that
/// produced them. Implementations must be cheap and non-blocking: the
/// engine calls [`HeartbeatSink::emit`] from the hot loop (amortized, but
/// still on the critical path).
pub trait HeartbeatSink: Send + Sync {
    /// Delivers one formatted heartbeat line and its source snapshot.
    fn emit(&self, line: &str, snapshot: &HealthSnapshot);
}

/// The classic behaviour: heartbeat lines go to stderr.
#[derive(Clone, Copy, Debug, Default)]
pub struct StderrHeartbeat;

impl HeartbeatSink for StderrHeartbeat {
    fn emit(&self, line: &str, _snapshot: &HealthSnapshot) {
        eprintln!("{line}");
    }
}

/// Test-capture sink: stores every emitted line in memory instead of
/// printing, so engine tests can assert on heartbeat content without
/// scraping stderr.
#[derive(Debug, Default)]
pub struct CaptureHeartbeat {
    lines: Mutex<Vec<String>>,
}

impl CaptureHeartbeat {
    /// An empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every line emitted so far, in order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }
}

impl HeartbeatSink for CaptureHeartbeat {
    fn emit(&self, line: &str, _snapshot: &HealthSnapshot) {
        self.lines.lock().unwrap().push(line.to_string());
    }
}

/// Fans one heartbeat out to several sinks, in order. `pdpad` uses this
/// to keep the operator console (stderr) and the live tap fed from one
/// engine-side emit; each leg inherits the cheap/non-blocking contract of
/// [`HeartbeatSink`], so the tee adds nothing but the iteration.
pub struct TeeHeartbeat {
    sinks: Vec<Arc<dyn HeartbeatSink>>,
}

impl std::fmt::Debug for TeeHeartbeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeHeartbeat")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TeeHeartbeat {
    /// A tee over the given sinks; emits are delivered in vec order.
    pub fn new(sinks: Vec<Arc<dyn HeartbeatSink>>) -> Self {
        TeeHeartbeat { sinks }
    }
}

impl HeartbeatSink for TeeHeartbeat {
    fn emit(&self, line: &str, snapshot: &HealthSnapshot) {
        for sink in &self.sinks {
            sink.emit(line, snapshot);
        }
    }
}

/// Receives periodic run-progress snapshots. The engine calls
/// [`ProgressSink::progress`] on an amortized cadence whether or not a
/// heartbeat is due, so a live status server can stay fresh without forcing
/// heartbeat lines on.
pub trait ProgressSink: Send + Sync {
    /// Delivers one point-in-time snapshot of the run.
    fn progress(&self, snapshot: &HealthSnapshot);

    /// Signals that the zero-progress watchdog tripped with the given
    /// diagnostic. Default: ignored.
    fn watchdog_fired(&self, _diagnostic: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_sink_stores_lines_in_order() {
        let sink = CaptureHeartbeat::new();
        let snap = HealthSnapshot::default();
        sink.emit("first", &snap);
        sink.emit("second", &snap);
        assert_eq!(sink.lines(), vec!["first", "second"]);
    }

    #[test]
    fn tee_delivers_to_every_leg_in_order() {
        let a = Arc::new(CaptureHeartbeat::new());
        let b = Arc::new(CaptureHeartbeat::new());
        let tee = TeeHeartbeat::new(vec![
            Arc::clone(&a) as Arc<dyn HeartbeatSink>,
            Arc::clone(&b) as Arc<dyn HeartbeatSink>,
        ]);
        tee.emit("one", &HealthSnapshot::default());
        tee.emit("two", &HealthSnapshot::default());
        assert_eq!(a.lines(), vec!["one", "two"]);
        assert_eq!(b.lines(), vec!["one", "two"]);
    }

    #[test]
    fn stderr_sink_is_constructible() {
        // Smoke: the unit struct exists and satisfies the trait object
        // shape the engine stores.
        let sink: Box<dyn HeartbeatSink> = Box::new(StderrHeartbeat);
        sink.emit("heartbeat t+0s: clock=0.0s", &HealthSnapshot::default());
    }
}
