//! Optional runtime instrumentation for engine runs.
//!
//! [`Instrumentation`] bundles the health/introspection knobs from
//! `pdpa-prof` — span profiling, the zero-progress watchdog, periodic
//! heartbeat snapshots, and the live-observability sinks behind
//! `pdpa replay --serve` — behind one parameter so the engine needs a
//! single entry point, [`Engine::run_instrumented`](crate::Engine::run_instrumented). The default is everything
//! off, which is what [`Engine::run_observed`](crate::Engine::run_observed)
//! and friends pass: those paths stay inside the same ≤2% overhead bound
//! as `NullObserver`, because disabled lanes and absent monitors cost one
//! branch per touch point.

use std::fmt;
use std::sync::Arc;

use pdpa_prof::{HeartbeatConfig, HeartbeatSink, ProgressSink, WatchdogConfig};

/// What to measure and guard during one run. All off by default.
#[derive(Clone, Default)]
pub struct Instrumentation {
    /// Record hierarchical wall-clock spans; the result lands in
    /// `RunResult::profile`.
    pub profile: bool,
    /// Abort the run with a structured diagnostic (in
    /// `RunResult::watchdog`) when the simulated clock stops advancing
    /// for this many consecutive steps.
    pub watchdog: Option<WatchdogConfig>,
    /// Emit periodic health snapshots during the run.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Where heartbeat lines go. `None` with a heartbeat configured means
    /// stderr (the classic behaviour).
    pub heartbeat_sink: Option<Arc<dyn HeartbeatSink>>,
    /// A live-progress mirror (e.g. `pdpa_watch::LiveTap`), fed a
    /// `HealthSnapshot` on the amortized instrumentation cadence whether
    /// or not a heartbeat is due, and notified when the watchdog trips.
    pub tap: Option<Arc<dyn ProgressSink>>,
}

impl fmt::Debug for Instrumentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instrumentation")
            .field("profile", &self.profile)
            .field("watchdog", &self.watchdog)
            .field("heartbeat", &self.heartbeat)
            .field("heartbeat_sink", &self.heartbeat_sink.is_some())
            .field("tap", &self.tap.is_some())
            .finish()
    }
}

impl Instrumentation {
    /// Everything off — the zero-cost default.
    pub fn none() -> Self {
        Self::default()
    }

    /// Enables span profiling.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Enables the zero-progress watchdog with the given threshold.
    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Enables heartbeat snapshots at the given cadence.
    pub fn with_heartbeat(mut self, cfg: HeartbeatConfig) -> Self {
        self.heartbeat = Some(cfg);
        self
    }

    /// Routes heartbeat lines to `sink` instead of stderr.
    pub fn with_heartbeat_sink(mut self, sink: Arc<dyn HeartbeatSink>) -> Self {
        self.heartbeat_sink = Some(sink);
        self
    }

    /// Attaches a live-progress mirror.
    pub fn with_tap(mut self, tap: Arc<dyn ProgressSink>) -> Self {
        self.tap = Some(tap);
        self
    }
}
