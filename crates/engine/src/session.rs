//! Incremental engine sessions: the admission API behind `pdpad`.
//!
//! [`Engine::run`](crate::Engine::run) executes a fixed workload to
//! completion in one call. A resident daemon needs the opposite shape —
//! an engine that *stays alive*, admits jobs as they arrive over the
//! wire, and advances simulated time in slices paced against the wall
//! clock. [`EngineSession`] is that shape: it owns the full simulation
//! state, observer included, and exposes three primitives:
//!
//! - [`submit`](EngineSession::submit) — admit a job at instant `at`;
//! - [`cancel`](EngineSession::cancel) — remove a queued or running job;
//! - [`run_until`](EngineSession::run_until) — process every event due
//!   at or before a barrier.
//!
//! # Determinism contract
//!
//! Every op carries a monotone instant, and the session processes all
//! events at or before that instant *before* applying the op. Event-queue
//! sequence numbers (the FIFO tie-breaker) are then a pure function of
//! the op sequence — and so is the arrival order: a submission joins the
//! queue system, whose submit-sorted jobs the engine streams as arrivals,
//! and on a tie the arrival comes before any pending event. Re-applying a
//! journal of `(at, op)` pairs to a fresh session — followed by
//! `run_until(barrier)` — reconstructs the exact simulation state,
//! decision stream included. That is the whole snapshot/restore story of
//! the daemon: a snapshot is the op journal plus the barrier, not a
//! serialized heap. Intermediate `run_until` barriers need no journaling:
//! state depends only on which events have been processed, and that set
//! is determined by the furthest barrier.
//!
//! Sessions refuse fault plans and the quantum clock (`collect_trace`,
//! which also changes time-shared RNG draws): both schedule events at
//! construction, meaningless for an empty, open-ended workload. A chained
//! `pdpa_trace::TraceObserver` still folds the CPU trace from the stream.

use pdpa_apps::ApplicationSpec;
use pdpa_obs::Observer;
use pdpa_policies::SchedulingPolicy;
use pdpa_prof::HealthSnapshot;
use pdpa_sim::{JobId, QueueStats, SimTime};

use crate::config::EngineConfig;
use crate::engine::Sim;
use crate::result::RunResult;

pub use crate::engine::CancelOutcome;

/// A long-lived, incrementally driven engine run.
///
/// See the [module docs](self) for the determinism contract. A session
/// is `Send`: its policy and observer are, so a daemon can drive it from
/// whichever thread holds it. `O` is the observer it owns; a caller that
/// names its concrete observer type reaches it through
/// [`observer`](EngineSession::observer) and
/// [`observer_mut`](EngineSession::observer_mut) between ops.
pub struct EngineSession<O: Observer + Send + ?Sized = dyn Observer + Send> {
    sim: Sim<Box<O>>,
    policy: Box<dyn SchedulingPolicy + Send>,
    policy_name: String,
    /// The furthest instant the session has been driven to — op instants
    /// and `run_until` barriers are clamped up to it, so session time
    /// never flows backwards.
    cursor: SimTime,
}

impl<O: Observer + Send + ?Sized> std::fmt::Debug for EngineSession<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSession")
            .field("policy", &self.policy_name)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

impl<O: Observer + Send + ?Sized> EngineSession<O> {
    /// Opens a session: an empty workload under `policy`, publishing all
    /// decision events to `observer`.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations, fault plans, and the quantum clock.
    pub fn new(
        config: EngineConfig,
        policy: Box<dyn SchedulingPolicy + Send>,
        observer: Box<O>,
    ) -> Result<Self, String> {
        config.validate()?;
        if !config.faults.is_empty() || config.faults.retry.is_some() {
            return Err("an engine session cannot run a fault plan".to_string());
        }
        if config.collect_trace {
            return Err("a session cannot run the quantum clock (collect_trace)".to_string());
        }
        let sharing = policy.sharing();
        let policy_name = policy.name().to_string();
        let sim = Sim::new(&config, Vec::new(), sharing, observer);
        Ok(EngineSession {
            sim,
            policy,
            policy_name,
            cursor: SimTime::ZERO,
        })
    }

    /// Submits `app` at instant `at` and returns `(effective_at, id)`.
    /// The instant is clamped up to the session cursor so submissions are
    /// always nondecreasing; the caller journals the *effective* instant,
    /// which makes replay a fixed point.
    pub fn submit(&mut self, at: SimTime, app: ApplicationSpec) -> (SimTime, JobId) {
        let at = self.advance_cursor(at);
        let job = self.sim.submit_at(at, app, self.policy.as_mut());
        (at, job)
    }

    /// Cancels `job` at instant `at` (clamped like [`submit`]); returns
    /// what the cancellation found, plus the effective instant.
    ///
    /// [`submit`]: EngineSession::submit
    pub fn cancel(&mut self, at: SimTime, job: JobId) -> (SimTime, CancelOutcome) {
        let at = self.advance_cursor(at);
        let outcome = self.sim.cancel_at(at, job, self.policy.as_mut());
        (at, outcome)
    }

    /// Processes every event due at or before `t` (no-op when `t` is
    /// behind the cursor); returns the number of events handled.
    pub fn run_until(&mut self, t: SimTime) -> u64 {
        let t = self.advance_cursor(t);
        self.sim.run_due(t, self.policy.as_mut())
    }

    /// Runs the session to quiescence: every event up to the configured
    /// `max_sim_secs` horizon. Returns the number of events handled.
    pub fn drain(&mut self) -> u64 {
        self.run_until(SimTime::from_secs(self.sim.config().max_sim_secs))
    }

    fn advance_cursor(&mut self, at: SimTime) -> SimTime {
        if at > self.cursor {
            self.cursor = at;
        }
        self.cursor
    }

    /// The furthest instant the session has been driven to — the barrier
    /// a snapshot must record.
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// The simulation clock (the instant of the last processed event).
    pub fn clock(&self) -> SimTime {
        self.sim.clock()
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        self.sim.config()
    }

    /// The observer the session publishes to.
    pub fn observer(&self) -> &O {
        self.sim.observer()
    }

    /// The observer, mutably: state it folds from the stream can be
    /// amended between ops.
    pub fn observer_mut(&mut self) -> &mut O {
        self.sim.observer_mut()
    }

    /// The scheduling policy's display name.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Event-queue traffic counters — part of a snapshot's integrity
    /// check: a restored session must reproduce them exactly.
    pub fn queue_stats(&self) -> QueueStats {
        self.sim.queue_stats()
    }

    /// Jobs submitted over the session's lifetime.
    pub fn total_jobs(&self) -> usize {
        self.sim.qs().total_jobs()
    }

    /// Jobs waiting in the admission queue.
    pub fn waiting_count(&self) -> usize {
        self.sim.qs().waiting_count()
    }

    /// Jobs currently running.
    pub fn running_count(&self) -> usize {
        self.sim.running_count()
    }

    /// Jobs completed.
    pub fn completed_count(&self) -> usize {
        self.sim.qs().completed_count()
    }

    /// Jobs failed terminally (cancellations included).
    pub fn failed_count(&self) -> usize {
        self.sim.qs().failed_count()
    }

    /// True when every submitted job has completed or failed.
    pub fn all_done(&self) -> bool {
        self.sim.qs().all_done()
    }

    /// A health snapshot in the same shape the batch engine feeds to
    /// heartbeats and live taps.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.sim.health_snapshot()
    }

    /// Closes the session and returns the run result over everything
    /// processed so far.
    pub fn finish(self) -> RunResult {
        self.sim.into_result(&self.policy_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a};
    use pdpa_core::Pdpa;
    use pdpa_obs::RecordingObserver;
    use pdpa_policies::Equipartition;
    use pdpa_qs::JobSpec;
    use pdpa_sim::CostModel;

    fn quiet_config() -> EngineConfig {
        EngineConfig {
            noise_sigma: 0.0,
            cost: CostModel::free(),
            ..EngineConfig::default()
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn session_rejects_faults_and_traces() {
        let mut cfg = quiet_config();
        cfg.faults.job_faults.push(pdpa_faults::JobFault {
            at: t(1.0),
            job: JobId(0),
        });
        assert!(EngineSession::new(
            cfg,
            Box::new(Equipartition::default()),
            Box::new(RecordingObserver::new()),
        )
        .is_err());
        let cfg = quiet_config().with_trace();
        assert!(EngineSession::new(
            cfg,
            Box::new(Equipartition::default()),
            Box::new(RecordingObserver::new()),
        )
        .is_err());
    }

    #[test]
    fn incremental_session_matches_batch_run() {
        // The tentpole invariant, at unit scale: a session fed the same
        // jobs at the same instants as a batch workload produces the
        // same outcome summary.
        let jobs = vec![
            JobSpec::new(t(0.0), bt_a()),
            JobSpec::new(t(50.0), apsi()),
            JobSpec::new(t(120.0), bt_a()),
        ];
        let batch =
            crate::Engine::new(quiet_config()).run(jobs.clone(), Box::new(Pdpa::paper_default()));

        let mut session = EngineSession::new(
            quiet_config(),
            Box::new(Pdpa::paper_default()),
            Box::new(RecordingObserver::new()),
        )
        .expect("valid session");
        for job in &jobs {
            session.submit(job.submit, job.app.clone());
        }
        session.drain();
        assert!(session.all_done());
        let live = session.finish();
        assert_eq!(
            live.summary.overall_avg_response_secs(),
            batch.summary.overall_avg_response_secs()
        );
        assert_eq!(live.decisions_applied, batch.decisions_applied);
    }

    #[test]
    fn submits_interleaved_with_run_until_are_order_stable() {
        // Driving the clock between submissions must not change the
        // outcome relative to submitting everything up front: the
        // determinism contract behind journal replay.
        let build = |interleave: bool| {
            let mut session = EngineSession::new(
                quiet_config(),
                Box::new(Pdpa::paper_default()),
                Box::new(RecordingObserver::new()),
            )
            .expect("valid session");
            session.submit(t(0.0), bt_a());
            if interleave {
                session.run_until(t(10.0));
                session.run_until(t(40.0));
            }
            session.submit(t(50.0), apsi());
            if interleave {
                session.run_until(t(60.0));
            }
            session.submit(t(120.0), bt_a());
            session.drain();
            session.finish()
        };
        let a = build(false);
        let b = build(true);
        assert_eq!(
            a.summary.overall_avg_response_secs(),
            b.summary.overall_avg_response_secs()
        );
        assert_eq!(a.decisions_applied, b.decisions_applied);
        assert_eq!(a.events_popped, b.events_popped);
    }

    #[test]
    fn cancel_covers_queued_running_and_unknown() {
        let mut session = EngineSession::new(
            quiet_config(),
            // ML 1: one job runs, the rest queue.
            Box::new(Equipartition::new(1)),
            Box::new(RecordingObserver::new()),
        )
        .expect("valid session");
        let (_, running) = session.submit(t(0.0), bt_a());
        let (_, queued) = session.submit(t(0.0), bt_a());
        session.run_until(t(1.0));
        assert_eq!(session.running_count(), 1);
        assert_eq!(session.waiting_count(), 1);

        let (_, outcome) = session.cancel(t(2.0), queued);
        assert_eq!(outcome, CancelOutcome::Queued);
        let (_, outcome) = session.cancel(t(3.0), running);
        assert_eq!(outcome, CancelOutcome::Running);
        let (_, outcome) = session.cancel(t(4.0), running);
        assert_eq!(outcome, CancelOutcome::NotFound, "already cancelled");
        let (_, outcome) = session.cancel(t(4.0), JobId(99));
        assert_eq!(outcome, CancelOutcome::NotFound, "never submitted");

        assert_eq!(session.failed_count(), 2);
        assert!(session.all_done());
        let result = session.finish();
        assert_eq!(
            result.jobs_failed, 2,
            "both cancellations are terminal failures"
        );
    }

    #[test]
    fn the_owned_observer_is_reachable_between_ops() {
        let mut session = EngineSession::new(
            quiet_config(),
            Box::new(Equipartition::default()),
            Box::new(RecordingObserver::new()),
        )
        .expect("valid session");
        session.submit(t(0.0), apsi());
        assert!(
            session.observer().events().is_empty(),
            "a submit publishes nothing before its arrival runs"
        );
        session.run_until(t(0.0));
        let kinds: Vec<&str> = session
            .observer()
            .events()
            .iter()
            .map(|e| e.event.kind())
            .collect();
        assert_eq!(kinds[..2], ["submit", "dequeue"]);
        assert!(kinds.contains(&"start"), "{kinds:?}");
        *session.observer_mut() = RecordingObserver::new();
        session.drain();
        let rest = session.observer().events();
        assert!(
            rest.iter().any(|e| e.event.kind() == "finish") && rest[0].seq == 0,
            "the replaced observer receives the rest of the run"
        );
        // A caller that boxes a trait object gets the default parameter.
        let observer: Box<dyn Observer + Send> = Box::new(RecordingObserver::new());
        let boxed: EngineSession =
            EngineSession::new(quiet_config(), Box::new(Equipartition::default()), observer)
                .expect("valid session");
        assert!(boxed.observer().is_enabled());
    }

    #[test]
    fn cursor_is_monotone_and_clamps_backdated_ops() {
        let mut session = EngineSession::new(
            quiet_config(),
            Box::new(Equipartition::default()),
            Box::new(RecordingObserver::new()),
        )
        .expect("valid session");
        session.run_until(t(100.0));
        assert_eq!(session.cursor(), t(100.0));
        let (at, _) = session.submit(t(5.0), apsi());
        assert_eq!(at, t(100.0), "backdated submit lands at the cursor");
        session.run_until(t(50.0));
        assert_eq!(session.cursor(), t(100.0), "barriers never move back");
    }
}
