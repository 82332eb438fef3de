//! Optional runtime instrumentation for engine runs.
//!
//! [`Instrumentation`] bundles the health/introspection knobs from
//! `pdpa-prof` — the self-profile, the zero-progress watchdog, periodic
//! heartbeat lines, and the live tap behind `pdpa replay --serve` —
//! behind one parameter so the engine needs a single entry point,
//! [`Engine::run_instrumented`](crate::Engine::run_instrumented). The
//! default is everything off, which is what
//! [`Engine::run_observed`](crate::Engine::run_observed) and friends
//! pass: those paths stay inside the same ≤2% overhead bound as
//! `NullObserver`. An unprofiled run reads the clock only for its
//! sampled `decision_ns` timer, and absent monitors cost one branch per
//! touch point.
//!
//! Heartbeat lines take one path: the engine writes each to stderr and,
//! when a tap is attached, hands it to [`ProgressSink::heartbeat`].

use std::fmt;
use std::sync::Arc;

use pdpa_prof::{HeartbeatConfig, ProgressSink, WatchdogConfig};

/// What to measure and guard during one run. All off by default.
#[derive(Clone, Default)]
pub struct Instrumentation {
    /// Profile the engine's timed layers from their sampled timers; the
    /// result lands in `RunResult::profile`.
    pub profile: bool,
    /// Abort the run with a structured diagnostic (in
    /// `RunResult::watchdog`) when the simulated clock stops advancing
    /// for this many consecutive steps.
    pub watchdog: Option<WatchdogConfig>,
    /// Write periodic heartbeat lines to stderr (and to the tap, if one
    /// is attached).
    pub heartbeat: Option<HeartbeatConfig>,
    /// A live-progress mirror (e.g. `pdpa_watch::LiveTap`), fed a
    /// `HealthSnapshot` on the amortized instrumentation cadence whether
    /// or not a heartbeat is due, every heartbeat line, and the watchdog
    /// diagnostic when it trips.
    pub tap: Option<Arc<dyn ProgressSink>>,
}

impl fmt::Debug for Instrumentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instrumentation")
            .field("profile", &self.profile)
            .field("watchdog", &self.watchdog)
            .field("heartbeat", &self.heartbeat)
            .field("tap", &self.tap.is_some())
            .finish()
    }
}

impl Instrumentation {
    /// Everything off — the zero-cost default.
    pub fn none() -> Self {
        Self::default()
    }

    /// Enables the self-profile.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Enables the zero-progress watchdog with the given threshold.
    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Enables heartbeat lines at the given cadence.
    pub fn with_heartbeat(mut self, cfg: HeartbeatConfig) -> Self {
        self.heartbeat = Some(cfg);
        self
    }

    /// Attaches a live-progress mirror.
    pub fn with_tap(mut self, tap: Arc<dyn ProgressSink>) -> Self {
        self.tap = Some(tap);
        self
    }
}
