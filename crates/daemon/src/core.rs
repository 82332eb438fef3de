//! [`DaemonCore`]: the state machine behind `pdpad`.
//!
//! The core owns the [`EngineSession`], and through it the session's
//! [`DaemonObserver`] (the live tap, the run registry and the stream
//! writer); it is the only place mutations happen. A submit or cancel
//! takes one path, `DaemonCore::apply`, whether it arrives live or is
//! replayed from a snapshot's journal. The TCP layer in [`crate::serve`]
//! keeps the core behind one lock and applies one control op at a time on the connection thread holding it,
//! so every admission decision, journal append, and snapshot happens at a
//! quiescent point between ops. That is what makes the persistence story
//! honest: a snapshot taken "mid-run" is always taken between two ops,
//! and the decision-stream file is flushed at the same boundary, so
//! killing the process immediately after leaves exactly the state the
//! snapshot describes.
//!
//! Admission control is deterministic and simulation-level: a submission
//! is rejected with `queue_full` when the engine's *waiting* count has
//! reached the configured bound. Rejected submissions are not journaled —
//! they never touched the simulation. (The TCP layer adds a second,
//! wall-clock-level `busy` rejection when too many ops already wait for
//! the core; that one is about the daemon process, not the simulated
//! machine.)

use std::io::BufWriter;
use std::sync::Arc;

use pdpa_apps::{paper_app, AppClass, ApplicationSpec};
use pdpa_core::roster;
use pdpa_engine::{CancelOutcome, EngineConfig, EngineSession};
use pdpa_obs::StreamWriter;
use pdpa_prof::ProgressSink as _;
use pdpa_sim::{JobId, SimTime};
use pdpa_watch::{
    AckBody, HelloBody, LiveTap, RejectBody, RequestKind, ResponseBody, RunMeta, PROTO_VERSION,
};

use crate::journal::{Op, Snapshot, SnapshotCheck, SnapshotConfig, SNAPSHOT_FORMAT};
use crate::observer::DaemonObserver;
use crate::registry::RunRegistry;

/// Everything a daemon needs to open (or restore) its session.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Policy slug or alias (see [`pdpa_core::roster`]).
    pub policy: String,
    /// Machine size.
    pub cpus: usize,
    /// Daemon seed; the engine seed derives from it exactly like the CLI.
    pub seed: u64,
    /// Queue backfilling.
    pub backfill: bool,
    /// Simulation horizon override, sim seconds.
    pub max_sim_secs: Option<f64>,
    /// Admission bound: submissions are rejected with `queue_full` while
    /// this many jobs are waiting.
    pub max_queue: usize,
    /// Sim seconds advanced per wall second between ops; `0` disables
    /// pacing (time advances only through ops and `drain`).
    pub time_scale: f64,
    /// Suggested client retry delay on `queue_full`, wall seconds.
    pub retry_after_secs: f64,
    /// Decision-stream file (same line grammar as `replay --obs-out`).
    pub stream_path: Option<String>,
    /// Default snapshot target for `snapshot`/`shutdown` requests that
    /// name no path.
    pub snapshot_path: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            policy: "pdpa".to_string(),
            cpus: 32,
            seed: 42,
            backfill: false,
            max_sim_secs: None,
            max_queue: 64,
            time_scale: 1.0,
            retry_after_secs: 0.5,
            stream_path: None,
            snapshot_path: None,
        }
    }
}

/// The daemon's state machine; see the [module docs](self).
pub struct DaemonCore {
    session: EngineSession<DaemonObserver>,
    config: DaemonConfig,
    journal: Vec<Op>,
    draining: bool,
}

/// A submit or cancel as `DaemonCore::apply` carried it out.
struct Applied {
    /// The effective (cursor-clamped) instant.
    at: SimTime,
    /// The job admitted or cancelled.
    job: u64,
    /// The ack's note: where a cancel found its job.
    info: Option<&'static str>,
}

// The serve layer moves the core behind a lock shared by connection
// threads, so a field that is not `Send` must fail the build here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DaemonCore>();
};

impl std::fmt::Debug for DaemonCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonCore")
            .field("policy", &self.config.policy)
            .field("journal_ops", &self.journal.len())
            .field("draining", &self.draining)
            .finish_non_exhaustive()
    }
}

/// The `hello` frame, read from the tap alone so that the serve layer can
/// answer it without the core's lock.
pub(crate) fn hello(tap: &LiveTap) -> ResponseBody {
    ResponseBody::Hello(HelloBody {
        proto: PROTO_VERSION,
        server: "pdpad".to_string(),
        policy: tap.policy().to_string(),
        state: tap.state(),
    })
}

pub(crate) fn reject(reason: &str, retry_after_secs: Option<f64>) -> ResponseBody {
    ResponseBody::Reject(RejectBody {
        reason: reason.to_string(),
        retry_after_secs,
    })
}

fn ack(job: Option<u64>, at_secs: Option<f64>, info: Option<String>) -> ResponseBody {
    ResponseBody::Ack(AckBody { job, at_secs, info })
}

/// Builds the concrete [`ApplicationSpec`] for a submission: a clone of
/// the paper application, which shares its speedup curve. Class names
/// follow `AppClass::parse`; `work_secs` rescales the iteration count so
/// total sequential work approximates the requested span; `request`
/// overrides the paper request.
fn materialize(
    class: &str,
    request: Option<u64>,
    work_secs: Option<f64>,
) -> Result<ApplicationSpec, String> {
    let class =
        AppClass::parse(class).ok_or_else(|| format!("unknown application class '{class}'"))?;
    let mut app = paper_app(class);
    if let Some(work) = work_secs {
        if !work.is_finite() || work <= 0.0 {
            return Err(format!("work_secs must be positive and finite, got {work}"));
        }
        let iter_secs = app.seq_iter_time.as_secs();
        app.iterations = ((work / iter_secs).round() as u32).max(1);
    }
    if let Some(request) = request {
        if request == 0 || request > u32::MAX as u64 {
            return Err(format!("request must be in 1..=2^32, got {request}"));
        }
        app = app.with_request(request as usize);
    }
    Ok(app)
}

impl DaemonCore {
    /// Opens a fresh daemon over an empty workload.
    ///
    /// # Errors
    ///
    /// Unknown policy slug, invalid engine config, or an unwritable
    /// stream path.
    pub fn new(config: DaemonConfig) -> Result<DaemonCore, String> {
        Self::build(config, Vec::new(), false, 0, None)
    }

    /// Restores a daemon from the snapshot file at `path`. The engine
    /// identity (policy, cpus, seed, backfill, horizon) comes from the
    /// snapshot; runtime knobs (admission bound, pacing, stream and
    /// snapshot paths) come from `runtime`.
    ///
    /// The journal is replayed against a fresh session with stream
    /// writing suppressed below the snapshot's published-event count, then
    /// the integrity block is verified: any counter mismatch fails the
    /// restore rather than serving a diverged run.
    ///
    /// # Errors
    ///
    /// Unreadable/malformed snapshot, unknown policy, or an integrity
    /// check failure.
    pub fn restore(path: &str, runtime: DaemonConfig) -> Result<DaemonCore, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let snap = Snapshot::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let config = DaemonConfig {
            policy: snap.config.policy.clone(),
            cpus: snap.config.cpus,
            seed: snap.config.seed,
            backfill: snap.config.backfill,
            max_sim_secs: Some(snap.config.max_sim_secs),
            ..runtime
        };
        let core = Self::build(
            config,
            snap.ops.clone(),
            snap.draining,
            snap.check.events_published,
            Some(snap.barrier_secs),
        )?;
        core.verify_check(path, &snap.check)?;
        Ok(core)
    }

    fn build(
        config: DaemonConfig,
        ops: Vec<Op>,
        draining: bool,
        first_kept_seq: u64,
        barrier_secs: Option<f64>,
    ) -> Result<DaemonCore, String> {
        let policy = roster::lookup(&config.policy)?.build();
        let mut engine_config = EngineConfig::default()
            .with_seed(config.seed ^ 0xA5A5)
            .with_cpus(config.cpus);
        if config.backfill {
            engine_config = engine_config.with_backfill();
        }
        if let Some(horizon) = config.max_sim_secs {
            engine_config.max_sim_secs = horizon;
        }
        let tap = LiveTap::new(RunMeta {
            policy: policy.name().to_string(),
            trace: "live".to_string(),
            jobs_total: 0,
        });
        let stream = match &config.stream_path {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create stream file {path}: {e}"))?;
                Some(StreamWriter::text(BufWriter::new(file)).starting_at(first_kept_seq))
            }
            None => None,
        };
        let observer = DaemonObserver::new(tap, stream);
        let session = EngineSession::new(engine_config, policy, Box::new(observer))?;
        let mut core = DaemonCore {
            session,
            config,
            journal: Vec::new(),
            draining,
        };
        for op in ops {
            let (Op::Submit { at_secs, .. } | Op::Cancel { at_secs, .. }) = op;
            let applied = core.apply(op).map_err(|e| format!("journal replay: {e}"))?;
            if applied.at.as_secs() != at_secs {
                return Err(format!(
                    "journal replay: an op journaled at {at_secs}s landed at {}s — \
                     the journal is not a fixed point",
                    applied.at.as_secs()
                ));
            }
        }
        if let Some(barrier) = barrier_secs {
            core.session.run_until(SimTime::from_secs(barrier));
        }
        core.publish_progress();
        Ok(core)
    }

    /// The one path of a submit or cancel, live or replayed from the
    /// journal: applies `op` to the session at its instant, keeps the
    /// registry in step, and journals the op at its effective instant. A
    /// submit's row is admitted before its arrival runs, so the registry
    /// sees every lifecycle event of the job. An op that fails is not
    /// journaled.
    fn apply(&mut self, mut op: Op) -> Result<Applied, String> {
        let applied = match &mut op {
            Op::Submit {
                at_secs,
                class,
                request,
                work_secs,
            } => {
                let app = materialize(class, *request, *work_secs)?;
                let effective_request = app.request;
                let (at, job) = self.session.submit(SimTime::from_secs(*at_secs), app);
                let job = u64::from(job.0);
                self.session.observer_mut().registry.admit(
                    job,
                    class,
                    effective_request,
                    at.as_secs(),
                );
                // Process the arrival now, so the waiting and running
                // counts (and the next admission decision) reflect this
                // job. Barriers need no journaling — only the op's
                // effective instant does.
                self.session.run_until(at);
                self.tap_ref()
                    .set_jobs_total(self.session.total_jobs() as u64);
                *at_secs = at.as_secs();
                Applied {
                    at,
                    job,
                    info: None,
                }
            }
            Op::Cancel { at_secs, job } => {
                let unknown = || format!("cancel of unknown job {job}");
                let id = u32::try_from(*job).map_err(|_| unknown())?;
                let (at, outcome) = self.session.cancel(SimTime::from_secs(*at_secs), JobId(id));
                let info = match outcome {
                    CancelOutcome::Queued => "cancelled while queued",
                    CancelOutcome::Running => "cancelled while running",
                    CancelOutcome::NotFound => return Err(unknown()),
                };
                self.session
                    .observer_mut()
                    .registry
                    .mark_cancelled(*job, at.as_secs());
                *at_secs = at.as_secs();
                Applied {
                    at,
                    job: *job,
                    info: Some(info),
                }
            }
        };
        self.journal.push(op);
        Ok(applied)
    }

    fn verify_check(&self, path: &str, expect: &SnapshotCheck) -> Result<(), String> {
        let got = self.check();
        if got != *expect {
            return Err(format!(
                "{path}: snapshot integrity check failed — the replayed session does not \
                 match the snapshotted one.\n  expected: {expect:?}\n  rebuilt:  {got:?}"
            ));
        }
        Ok(())
    }

    fn check(&self) -> SnapshotCheck {
        let stats = self.session.queue_stats();
        SnapshotCheck {
            events_published: self.tap_ref().events_published(),
            pushed: stats.pushed,
            popped: stats.popped,
            stale_drops: stats.stale_drops,
            jobs_submitted: self.session.total_jobs() as u64,
            jobs_finished: self.session.completed_count() as u64,
            jobs_failed: self.session.failed_count() as u64,
            clock_secs: self.session.clock().as_secs(),
        }
    }

    /// The live tap to serve queries from.
    pub fn tap(&self) -> Arc<LiveTap> {
        Arc::clone(&self.session.observer().tap)
    }

    /// The journal accumulated so far (tests and diagnostics).
    pub fn journal(&self) -> &[Op] {
        &self.journal
    }

    /// The underlying session (read-only views).
    pub fn session(&self) -> &EngineSession<DaemonObserver> {
        &self.session
    }

    /// True once `drain` stopped admission.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Applies one control request at wall-clock offset `wall_secs` and
    /// returns the response body. Query kinds never reach here (the
    /// status server answers them from the tap); they are rejected as
    /// `bad_request` defensively.
    pub fn handle(&mut self, kind: &RequestKind, wall_secs: f64) -> ResponseBody {
        match kind {
            RequestKind::Hello => hello(self.tap_ref()),
            RequestKind::Submit {
                class,
                request,
                work_secs,
            } => self.handle_submit(class, *request, *work_secs, wall_secs),
            RequestKind::Cancel { job } => self.handle_cancel(*job, wall_secs),
            RequestKind::Drain => self.handle_drain(),
            RequestKind::Snapshot { path } => self.handle_snapshot(path.as_deref()),
            RequestKind::Shutdown { snapshot } => self.handle_shutdown(snapshot.as_deref()),
            RequestKind::Jobs { n } => ResponseBody::Jobs(self.registry().rows(*n)),
            RequestKind::Job { job } => match self.registry().row(*job) {
                Some(row) => ResponseBody::Job(row),
                None => reject("unknown_job", None),
            },
            _ => reject("bad_request", None),
        }
    }

    fn now_sim(&self, wall_secs: f64) -> SimTime {
        // The session clamps up to its cursor, so with pacing off (scale
        // 0) ops simply land "now" in sim time.
        SimTime::from_secs((wall_secs * self.config.time_scale).max(0.0))
    }

    fn handle_submit(
        &mut self,
        class: &str,
        request: Option<u64>,
        work_secs: Option<f64>,
        wall_secs: f64,
    ) -> ResponseBody {
        if self.draining {
            return reject("draining", None);
        }
        if self.session.waiting_count() >= self.config.max_queue {
            return reject("queue_full", Some(self.config.retry_after_secs));
        }
        let op = Op::Submit {
            at_secs: self.now_sim(wall_secs).as_secs(),
            class: class.to_string(),
            request,
            work_secs,
        };
        match self.apply(op) {
            Ok(applied) => self.acknowledge(&applied),
            Err(_) => reject("bad_request", None),
        }
    }

    fn handle_cancel(&mut self, job: u64, wall_secs: f64) -> ResponseBody {
        let op = Op::Cancel {
            at_secs: self.now_sim(wall_secs).as_secs(),
            job,
        };
        match self.apply(op) {
            Ok(applied) => self.acknowledge(&applied),
            Err(_) => reject("unknown_job", None),
        }
    }

    fn acknowledge(&self, applied: &Applied) -> ResponseBody {
        self.publish_progress();
        ack(
            Some(applied.job),
            Some(applied.at.as_secs()),
            applied.info.map(str::to_string),
        )
    }

    fn handle_drain(&mut self) -> ResponseBody {
        self.draining = true;
        let events = self.session.drain();
        self.flush_stream();
        self.publish_progress();
        let info = format!(
            "drained: {events} events, {} done, {} failed, clock {:.1}s",
            self.session.completed_count(),
            self.session.failed_count(),
            self.session.clock().as_secs()
        );
        ack(None, Some(self.session.clock().as_secs()), Some(info))
    }

    fn handle_snapshot(&mut self, path: Option<&str>) -> ResponseBody {
        let path = match path.or(self.config.snapshot_path.as_deref()) {
            Some(path) => path.to_string(),
            None => return reject("bad_request", None),
        };
        match self.snapshot_to(&path) {
            Ok(()) => ack(None, Some(self.session.clock().as_secs()), Some(path)),
            Err(_) => reject("io_error", None),
        }
    }

    fn handle_shutdown(&mut self, snapshot: Option<&str>) -> ResponseBody {
        if let Some(path) = snapshot {
            let path = path.to_string();
            if self.snapshot_to(&path).is_err() {
                // Refuse to die if the operator asked for a parting
                // snapshot and it cannot be written.
                return reject("io_error", None);
            }
        }
        // The daemon stops either way, but the operator learns from the
        // ack, not only from the exit status, that the stream lost events.
        let info = match self.flush_stream() {
            None => "shutting down".to_string(),
            Some(e) => format!("shutting down; the decision stream is short: {e}"),
        };
        ack(None, Some(self.session.clock().as_secs()), Some(info))
    }

    /// Writes a `pdpa-snapshot/v1` document to `path`, flushing the
    /// decision stream first so file and snapshot agree on the cut point.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, and refuses while the stream file is
    /// short of a write or flush that failed: the two stream files would
    /// no longer concatenate to the uninterrupted stream.
    pub fn snapshot_to(&mut self, path: &str) -> Result<(), String> {
        if let Some(e) = self.flush_stream() {
            return Err(format!("cannot write the decision stream: {e}"));
        }
        let snap = Snapshot {
            proto: PROTO_VERSION,
            config: SnapshotConfig {
                policy: self.config.policy.clone(),
                cpus: self.config.cpus,
                seed: self.config.seed,
                backfill: self.config.backfill,
                max_sim_secs: self.session.config().max_sim_secs,
            },
            draining: self.draining,
            barrier_secs: self.session.cursor().as_secs(),
            ops: self.journal.clone(),
            check: self.check(),
        };
        std::fs::write(path, snap.to_json())
            .map_err(|e| format!("cannot write {SNAPSHOT_FORMAT} file {path}: {e}"))
    }

    /// Advances simulated time against the wall clock (`time_scale` sim
    /// seconds per wall second) and refreshes the tap's progress mirror.
    pub fn pace(&mut self, wall_secs: f64) {
        if self.config.time_scale > 0.0 {
            let target = self.now_sim(wall_secs);
            if target > self.session.clock() {
                self.session.run_until(target);
            }
        }
        self.publish_progress();
    }

    /// Drives simulated time to `sim_secs` directly (deterministic
    /// drivers and tests; the serve loop uses [`pace`](DaemonCore::pace)
    /// instead). Barriers never need journaling.
    pub fn advance_to(&mut self, sim_secs: f64) {
        self.session.run_until(SimTime::from_secs(sim_secs));
        self.publish_progress();
    }

    /// Flushes the decision-stream file, if one is attached, and returns
    /// the first write or flush error it kept, if any. After one the file
    /// is short: every later snapshot is refused, and a `shutdown` says
    /// so.
    pub fn flush_stream(&mut self) -> Option<String> {
        let stream = self.session.observer_mut().stream.as_mut()?;
        stream.flush().map(ToString::to_string)
    }

    fn tap_ref(&self) -> &LiveTap {
        &self.session.observer().tap
    }

    fn registry(&self) -> &RunRegistry {
        &self.session.observer().registry
    }

    fn publish_progress(&self) {
        self.tap_ref().progress(&self.session.health_snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> DaemonConfig {
        DaemonConfig {
            time_scale: 0.0,
            ..DaemonConfig::default()
        }
    }

    fn submit(class: &str, request: Option<u64>) -> RequestKind {
        RequestKind::Submit {
            class: class.to_string(),
            request,
            work_secs: None,
        }
    }

    #[test]
    fn materialize_honors_overrides() {
        let base = materialize("swim", None, None).expect("paper app");
        let tuned = materialize("swim", Some(4), None).expect("request override");
        assert_eq!(tuned.request, 4);
        let short =
            materialize("swim", None, Some(base.seq_iter_time.as_secs())).expect("work override");
        assert_eq!(short.iterations, 1);
        assert!(materialize("no-such-app", None, None).is_err());
        assert!(materialize("swim", Some(0), None).is_err());
        assert!(materialize("swim", None, Some(-1.0)).is_err());
    }

    #[test]
    fn submit_runs_jobs_to_completion() {
        let mut core = DaemonCore::new(quiet()).expect("core");
        let body = core.handle(&submit("swim", None), 0.0);
        let ResponseBody::Ack(ack) = body else {
            panic!("expected ack, got {body:?}");
        };
        assert_eq!(ack.job, Some(0));
        let body = core.handle(&RequestKind::Drain, 0.0);
        assert!(matches!(body, ResponseBody::Ack(_)));
        assert!(core.session().all_done());
        assert_eq!(core.registry().row(0).unwrap().state, "done");
        assert_eq!(core.tap().status_body().jobs_finished, 1);
    }

    #[test]
    fn hello_identifies_the_daemon() {
        let mut core = DaemonCore::new(quiet()).expect("core");
        let ResponseBody::Hello(hello) = core.handle(&RequestKind::Hello, 0.0) else {
            panic!("expected hello");
        };
        assert_eq!(hello.server, "pdpad");
        assert_eq!(hello.proto, PROTO_VERSION);
    }

    #[test]
    fn draining_daemon_rejects_new_work() {
        let mut core = DaemonCore::new(quiet()).expect("core");
        core.handle(&submit("apsi", None), 0.0);
        core.handle(&RequestKind::Drain, 0.0);
        let body = core.handle(&submit("apsi", None), 0.0);
        let ResponseBody::Reject(reject) = body else {
            panic!("expected reject, got {body:?}");
        };
        assert_eq!(reject.reason, "draining");
    }

    #[test]
    fn cancel_of_unknown_job_is_rejected() {
        let mut core = DaemonCore::new(quiet()).expect("core");
        let body = core.handle(&RequestKind::Cancel { job: 7 }, 0.0);
        let ResponseBody::Reject(reject) = body else {
            panic!("expected reject, got {body:?}");
        };
        assert_eq!(reject.reason, "unknown_job");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_stream_that_cannot_be_written_refuses_the_snapshot() {
        let snapshot =
            std::env::temp_dir().join(format!("pdpa-full-{}.snapshot", std::process::id()));
        let snapshot = snapshot.to_string_lossy().into_owned();
        let mut core = DaemonCore::new(DaemonConfig {
            stream_path: Some("/dev/full".to_string()),
            ..quiet()
        })
        .expect("/dev/full opens for writing");
        assert!(matches!(
            core.handle(&submit("swim", None), 0.0),
            ResponseBody::Ack(_)
        ));
        for kind in [
            RequestKind::Snapshot {
                path: Some(snapshot.clone()),
            },
            RequestKind::Shutdown {
                snapshot: Some(snapshot.clone()),
            },
        ] {
            let body = core.handle(&kind, 0.0);
            let ResponseBody::Reject(reject) = body else {
                panic!("expected a refusal of {kind:?}, got {body:?}");
            };
            assert_eq!(reject.reason, "io_error");
        }
        assert!(
            !std::path::Path::new(&snapshot).exists(),
            "no snapshot is written over a short stream"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_short_stream_is_named_in_the_shutdown_ack() {
        let mut core = DaemonCore::new(DaemonConfig {
            stream_path: Some("/dev/full".to_string()),
            ..quiet()
        })
        .expect("/dev/full opens for writing");
        assert!(matches!(
            core.handle(&submit("swim", None), 0.0),
            ResponseBody::Ack(_)
        ));
        let body = core.handle(&RequestKind::Shutdown { snapshot: None }, 0.0);
        let ResponseBody::Ack(ack) = body else {
            panic!("a shutdown without a snapshot is acked, got {body:?}");
        };
        let info = ack.info.expect("the ack says why");
        assert!(
            info.starts_with("shutting down; the decision stream is short: ")
                && info.contains("No space left on device"),
            "{info}"
        );
        // A stream that wrote everything is not reported.
        let mut core = DaemonCore::new(quiet()).expect("core");
        let body = core.handle(&RequestKind::Shutdown { snapshot: None }, 0.0);
        let ResponseBody::Ack(ack) = body else {
            panic!("expected an ack, got {body:?}");
        };
        assert_eq!(ack.info.as_deref(), Some("shutting down"));
    }

    #[test]
    fn unknown_policy_fails_construction() {
        let err = DaemonCore::new(DaemonConfig {
            policy: "mystery".to_string(),
            ..quiet()
        })
        .expect_err("unknown policy");
        assert!(err.contains("mystery"), "got: {err}");
    }
}
