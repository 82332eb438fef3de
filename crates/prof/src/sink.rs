//! The live delivery path for health signals.
//!
//! The engine writes every heartbeat line to stderr itself. A
//! [`ProgressSink`] is the one other destination: a lock-light receiver
//! (in `pdpa-watch`, which sits above this crate, the live tap behind
//! `pdpa replay --serve`) for periodic [`HealthSnapshot`] updates, the
//! heartbeat lines, and a tripped watchdog. The engine feeds it on an
//! amortized cadence (every 64k events), not per event, so the disabled
//! path stays inside the ≤2% overhead contract.

use crate::health::HealthSnapshot;

/// Receives periodic run-progress snapshots, plus the heartbeat lines and
/// the watchdog diagnostic. Implementations must be cheap and
/// non-blocking: the engine calls them from its loop (amortized, but
/// still on the critical path).
pub trait ProgressSink: Send + Sync {
    /// Delivers one point-in-time snapshot of the run. The engine calls
    /// this on its amortized cadence whether or not a heartbeat is due, so
    /// a live status server stays fresh without forcing heartbeat lines
    /// on.
    fn progress(&self, snapshot: &HealthSnapshot);

    /// Delivers one formatted heartbeat line, which the engine has also
    /// written to stderr. Default: ignored.
    fn heartbeat(&self, _line: &str) {}

    /// Signals that the zero-progress watchdog tripped with the given
    /// diagnostic. Default: ignored.
    fn watchdog_fired(&self, _diagnostic: &str) {}
}
