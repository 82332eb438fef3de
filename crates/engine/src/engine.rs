//! The event loop: executes a workload under a scheduling policy.

use std::collections::HashMap;
use std::sync::Arc;

use pdpa_apps::{AppClass, NoiseModel};
use pdpa_metrics::{JobOutcome, Summary};
use pdpa_obs::metrics::{Histogram, Registry, RunCounters, Span};
use pdpa_obs::{DecisionTrigger, NullObserver, ObsEvent, Observer};
use pdpa_perf::SelfAnalyzer;
use pdpa_policies::{Decisions, JobView, PolicyCtx, SchedulingPolicy, SharingModel};
use pdpa_prof::{
    HealthSnapshot, Heartbeat, Lane, LaneProfile, Profile, SpanKind, StderrHeartbeat, Watchdog,
};
use pdpa_qs::{JobSpec, QueueSystem};
use pdpa_sim::{CpuId, EventQueue, JobId, Machine, QueueStats, SimRng, SimTime};
use pdpa_trace::TraceObserver;

use crate::config::EngineConfig;
use crate::instrument::Instrumentation;
use crate::result::RunResult;
use crate::store::{job_noise_rng, JobStore};
use crate::timeshare::{effective_procs, throughput_factor, QuantumPlacement};

/// The observer slot of a [`Sim`]: a run borrows the caller's observer
/// for the duration of `run_instrumented`, while a long-lived
/// [`EngineSession`](crate::session::EngineSession) owns its sink outright
/// so the simulation state can outlive any one call stack.
pub(crate) enum ObsSink<'a> {
    /// The classic batch path: the observer outlives the run.
    Borrowed(&'a mut dyn Observer),
    /// The session path: the simulation owns its sink (`Sim<'static>`).
    Owned(Box<dyn Observer>),
}

impl ObsSink<'_> {
    fn is_enabled(&self) -> bool {
        match self {
            ObsSink::Borrowed(o) => o.is_enabled(),
            ObsSink::Owned(o) => o.is_enabled(),
        }
    }

    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        match self {
            ObsSink::Borrowed(o) => o.on_event(at, event),
            ObsSink::Owned(o) => o.on_event(at, event),
        }
    }
}

impl std::fmt::Debug for ObsSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsSink::Borrowed(_) => f.write_str("ObsSink::Borrowed(..)"),
            ObsSink::Owned(_) => f.write_str("ObsSink::Owned(..)"),
        }
    }
}

/// What a cancellation request (`Sim::cancel_at`, surfaced through
/// [`crate::EngineSession::cancel`]) found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still waiting in the queue; it was removed and failed
    /// terminally without ever starting.
    Queued,
    /// The job was running; it was killed (no retry) and its processors
    /// released.
    Running,
    /// The job is unknown, already finished, or already failed — nothing
    /// to cancel.
    NotFound,
}

/// Engine events.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A job's submission instant passed: it joins the queue. Never in the
    /// event heap — arrivals stream from the queue system's submit-sorted
    /// jobs (see `Sim::pop_next`).
    Arrival(JobId),
    /// A job's current iteration is predicted to end. Scheduled under the
    /// job's queue key, so rescheduling or removing the job lazily
    /// invalidates the pending prediction inside the event queue.
    IterEnd { job: JobId },
    /// Time-shared placement quantum (only scheduled for time-shared runs
    /// with trace collection).
    Tick,
    /// A CPU fails per the fault plan.
    CpuFail(CpuId),
    /// A failed CPU comes back per the fault plan.
    CpuRecover(CpuId),
    /// A job crashes per the fault plan (a no-op unless it is running).
    JobKill(JobId),
    /// A crashed job's backoff elapsed: it rejoins the queue.
    JobRetry(JobId),
}

/// Executes workloads under a [`SchedulingPolicy`].
#[derive(Clone, Debug)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: EngineConfig) -> Self {
        config.validate().expect("invalid engine configuration");
        Engine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs `jobs` to completion under `policy` and returns the measured
    /// result. Deterministic for a given configuration seed.
    pub fn run(&self, jobs: Vec<JobSpec>, policy: Box<dyn SchedulingPolicy>) -> RunResult {
        self.run_observed(jobs, policy, &mut NullObserver)
    }

    /// Like [`run`](Engine::run), but publishes every decision event to
    /// `observer`. With a disabled observer (`is_enabled()` false) the
    /// extra cost is one dead branch per publish site — events are not even
    /// constructed.
    pub fn run_observed(
        &self,
        jobs: Vec<JobSpec>,
        policy: Box<dyn SchedulingPolicy>,
        observer: &mut dyn Observer,
    ) -> RunResult {
        self.run_instrumented(jobs, policy, observer, Instrumentation::none())
    }

    /// Like [`run_observed`](Engine::run_observed), with optional runtime
    /// instrumentation: span profiling (`RunResult::profile`), a
    /// zero-progress watchdog that aborts a livelocked run with a
    /// diagnostic (`RunResult::watchdog`), and periodic heartbeat lines on
    /// stderr. With [`Instrumentation::none`] every touch point is a dead
    /// branch — the event stream is bit-identical either way.
    pub fn run_instrumented(
        &self,
        jobs: Vec<JobSpec>,
        mut policy: Box<dyn SchedulingPolicy>,
        observer: &mut dyn Observer,
        instr: Instrumentation,
    ) -> RunResult {
        let lane = if instr.profile {
            Lane::enabled(std::time::Instant::now())
        } else {
            Lane::disabled()
        };
        let mut watchdog = instr.watchdog.map(Watchdog::new);
        let mut heartbeat = instr.heartbeat.map(Heartbeat::new);
        // Heartbeat lines take exactly one typed path; stderr is just the
        // default sink.
        let heartbeat_sink = instr
            .heartbeat_sink
            .clone()
            .unwrap_or_else(|| Arc::new(StderrHeartbeat));
        let tap = instr.tap.clone();
        let mut watchdog_diag = None;
        let mut sim = Sim::new(
            &self.config,
            jobs,
            policy.sharing(),
            ObsSink::Borrowed(observer),
            lane,
        );
        sim.schedule_plan();
        let replay = sim.lane.begin(SpanKind::Replay);
        let mut steps: u64 = 0;
        // Stale iteration events (their job rescheduled, completed, or
        // crashed) are invalidated by key and discarded inside the queue,
        // so handlers only ever see live events.
        while let Some((t, ev)) = sim.pop_next() {
            if t.as_secs() > self.config.max_sim_secs {
                break;
            }
            sim.clock = t;
            steps += 1;
            if let Some(wd) = watchdog.as_mut() {
                if wd.observe(t.as_secs()) {
                    let stats = sim.queue_stats();
                    let diag = wd.diagnostic(&format!(
                        "classic engine: running={}, waiting={}, qlen={}, stale_drops={}",
                        sim.store.len(),
                        sim.qs.waiting_count(),
                        stats.len,
                        stats.stale_drops,
                    ));
                    if let Some(tap) = tap.as_deref() {
                        tap.watchdog_fired(&diag);
                    }
                    watchdog_diag = Some(diag);
                    break;
                }
            }
            // Amortized: snapshot building, the heartbeat due-check, and
            // the live-tap refresh all run every 64k events.
            if steps & 0xFFFF == 0 && (heartbeat.is_some() || tap.is_some()) {
                let hb_due = heartbeat.as_ref().is_some_and(Heartbeat::due);
                if hb_due || tap.is_some() {
                    let stats = sim.queue_stats();
                    let snap = HealthSnapshot {
                        sim_clock_secs: t.as_secs(),
                        events_popped: stats.popped,
                        queue_len: stats.len,
                        running: sim.store.len(),
                        waiting: sim.qs.waiting_count(),
                        shard_events: Vec::new(),
                    };
                    if let Some(tap) = tap.as_deref() {
                        tap.progress(&snap);
                    }
                    if hb_due {
                        if let Some(line) = heartbeat.as_mut().and_then(|hb| hb.tick(&snap)) {
                            heartbeat_sink.emit(&line, &snap);
                        }
                    }
                }
            }
            sim.dispatch(ev, policy.as_mut());
        }
        sim.lane.add_events(steps);
        sim.lane.end(replay);
        if let Some(tap) = tap.as_deref() {
            // Final refresh so the mirror's counters reflect the whole run.
            let stats = sim.queue_stats();
            tap.progress(&HealthSnapshot {
                sim_clock_secs: sim.clock.as_secs(),
                events_popped: stats.popped,
                queue_len: stats.len,
                running: sim.store.len(),
                waiting: sim.qs.waiting_count(),
                shard_events: Vec::new(),
            });
        }
        let profile = if instr.profile {
            Some(Profile::from_lanes(vec![LaneProfile {
                name: "coordinator".to_string(),
                spans: sim.lane.spans().to_vec(),
                events: sim.lane.events(),
            }]))
        } else {
            None
        };
        let mut result = sim.into_result(policy.name());
        result.watchdog = watchdog_diag;
        result.profile = profile;
        result
    }
}

/// All mutable state of one run.
///
/// `Sim<'a>` borrows its observer on the classic batch path; with an
/// [`ObsSink::Owned`] sink it is `Sim<'static>` — a fully self-owned
/// simulation that a long-running [`EngineSession`](crate::session)
/// drives incrementally.
pub(crate) struct Sim<'a> {
    config: EngineConfig,
    sharing: SharingModel,
    qs: QueueSystem,
    machine: Machine,
    /// Pending engine events: iteration predictions, faults, retries and
    /// ticks — never arrivals, so the heap stays as small as the running
    /// set.
    events: EventQueue<Ev>,
    /// The arrival cursor: jobs `0..arrived` of the queue system (ids are
    /// submission order) have arrived; the next arrival is job `arrived`
    /// at its submit instant.
    arrived: usize,
    rng: SimRng,
    noise: NoiseModel,
    clock: SimTime,
    /// Running jobs in struct-of-arrays layout (hot fields dense, arrival
    /// order preserved for policy context ordering).
    store: JobStore,
    /// Reused buffer for policy-call snapshots — refilled by
    /// `refresh_views` instead of allocating a fresh `Vec` per policy call.
    views_scratch: Vec<JobView>,
    /// The store version `views_scratch` was filled at (`None` before the
    /// first fill).
    views_version: Option<u64>,
    outcomes: Vec<JobOutcome>,
    /// `(class, average allocation)` of completed jobs.
    completed_allocs: Vec<(AppClass, f64)>,
    /// Average allocation per completed job.
    completed_alloc_by_job: HashMap<JobId, f64>,
    /// Total CPU-seconds held by completed jobs.
    cpu_seconds_used: f64,
    /// The one subscription point for CPU-occupancy tracing: placement
    /// mutations publish [`ObsEvent::CpuAssigned`] and this bridge rebuilds
    /// the per-CPU burst trace from the stream.
    trace_obs: TraceObserver,
    /// `config.collect_trace`, cached where the publish sites branch on it.
    trace_on: bool,
    /// The external event sink, when one is attached.
    obs: ObsSink<'a>,
    /// `obs.is_enabled()`, cached at run start: publish sites skip event
    /// construction entirely when false.
    obs_on: bool,
    /// Reused buffer for decision batches — `apply_decisions` refills it
    /// instead of allocating a fresh `Vec` per policy activation.
    changes_scratch: Vec<(JobId, usize)>,
    /// Allocation changes applied (no-op resizes excluded).
    decisions_applied: u64,
    /// Speedup-memo stats harvested from completed jobs.
    memo_hits: u64,
    memo_misses: u64,
    /// Wall-time histogram for policy activations (`decision_ns`).
    decision_hist: Arc<Histogram>,
    /// Span buffer for self-profiling; a disabled lane (the default) costs
    /// one branch per touch point.
    lane: Lane,
    placement: QuantumPlacement,
    ml_series: Vec<(f64, usize)>,
    max_ml: usize,
    /// Current row of the gang matrix (gang mode only).
    gang_slot: usize,
    /// Previous occupant of every CPU as published on the decision-event
    /// bus (gang mode only) — the state needed to count occupant churn.
    gang_prev: Vec<Option<JobId>>,
    /// Gang-mode occupant hand-offs: a CPU passing directly from one job
    /// to another at a slot rotation. Mirrors the analyzer's replayed
    /// hand-off rule, so engine and replay agree on every policy.
    quantum_rotations: u64,
    /// Retries consumed so far by each crashed job.
    retries: HashMap<JobId, u32>,
    /// CPU failures injected (events that actually took a CPU down).
    cpu_failures: u64,
    /// Job retries scheduled.
    job_retries: u64,
    /// Jobs that failed terminally.
    jobs_failed: u64,
}

impl<'a> Sim<'a> {
    pub(crate) fn new(
        config: &EngineConfig,
        jobs: Vec<JobSpec>,
        sharing: SharingModel,
        obs: ObsSink<'a>,
        lane: Lane,
    ) -> Self {
        let trace_obs = if config.collect_trace {
            TraceObserver::new(config.cpus)
        } else {
            TraceObserver::disabled(config.cpus)
        };
        let obs_on = obs.is_enabled();
        Sim {
            config: config.clone(),
            sharing,
            qs: QueueSystem::new(jobs),
            machine: Machine::new(config.cpus),
            events: EventQueue::new(),
            arrived: 0,
            rng: SimRng::new(config.seed),
            noise: if config.noise_sigma == 0.0 {
                NoiseModel::none()
            } else {
                NoiseModel::new(config.noise_sigma)
            },
            clock: SimTime::ZERO,
            store: JobStore::new(),
            views_scratch: Vec::new(),
            views_version: None,
            outcomes: Vec::new(),
            completed_allocs: Vec::new(),
            completed_alloc_by_job: HashMap::new(),
            cpu_seconds_used: 0.0,
            trace_on: config.collect_trace,
            trace_obs,
            obs,
            obs_on,
            changes_scratch: Vec::new(),
            decisions_applied: 0,
            memo_hits: 0,
            memo_misses: 0,
            decision_hist: Registry::global().histogram("decision_ns"),
            lane,
            placement: QuantumPlacement::new(config.cpus),
            ml_series: vec![(0.0, 0)],
            max_ml: 0,
            gang_slot: 0,
            gang_prev: vec![None; config.cpus],
            quantum_rotations: 0,
            retries: HashMap::new(),
            cpu_failures: 0,
            job_retries: 0,
            jobs_failed: 0,
        }
    }

    /// True when allocations are thread/gang counts rather than dedicated
    /// cpusets (the machine model is bypassed and every membership change
    /// shifts every job's rate).
    fn is_time_shared(&self) -> bool {
        matches!(
            self.sharing,
            SharingModel::TimeShared(_) | SharingModel::Gang(_)
        )
    }

    /// The trace/placement quantum of the current sharing model, if any.
    fn quantum(&self) -> Option<pdpa_sim::SimDuration> {
        match self.sharing {
            SharingModel::SpaceShared => None,
            SharingModel::TimeShared(p) => Some(p.quantum),
            SharingModel::Gang(p) => Some(p.quantum),
        }
    }

    /// Schedules what the configuration fixes up front: the quantum clock
    /// and the fault plan. Arrivals are not scheduled; they stream from
    /// the queue system through `pop_next`.
    fn schedule_plan(&mut self) {
        // Kick off the time-shared/gang quantum clock when tracing.
        if self.config.collect_trace {
            if let Some(q) = self.quantum() {
                self.events.push(SimTime::ZERO + q, Ev::Tick);
            }
        }
        // The fault plan is data: every failure, recovery, and crash is
        // scheduled up front, which is what makes chaos runs reproducible.
        for f in &self.config.faults.cpu_faults {
            self.events.push(f.at, Ev::CpuFail(f.cpu));
            if let Some(r) = f.recover_at {
                self.events.push(r, Ev::CpuRecover(f.cpu));
            }
        }
        for f in &self.config.faults.job_faults {
            self.events.push(f.at, Ev::JobKill(f.job));
        }
    }

    // --- The event stream ---

    /// The submit instant of the next job still to arrive.
    fn next_arrival_at(&self) -> Option<SimTime> {
        (self.arrived < self.qs.total_jobs())
            .then(|| self.qs.spec(JobId(self.arrived as u32)).submit)
    }

    /// Removes and returns the earlier of the heap's next live event and
    /// the next arrival, due at `at`; the arrival wins a tie — the order
    /// the engine had when every arrival was pushed into the heap first,
    /// with the lowest sequence numbers.
    fn pop_before_arrival(&mut self, at: SimTime) -> (SimTime, Ev) {
        if let Some(event) = self.events.pop_before(at) {
            return event;
        }
        let job = JobId(self.arrived as u32);
        self.arrived += 1;
        (at, Ev::Arrival(job))
    }

    /// Removes and returns the next event.
    fn pop_next(&mut self) -> Option<(SimTime, Ev)> {
        match self.next_arrival_at() {
            Some(at) => Some(self.pop_before_arrival(at)),
            None => self.events.pop(),
        }
    }

    /// Removes and returns the next event at or before `barrier`.
    fn pop_due(&mut self, barrier: SimTime) -> Option<(SimTime, Ev)> {
        match self.next_arrival_at() {
            Some(at) if at <= barrier => Some(self.pop_before_arrival(at)),
            // No arrival is due, so only the heap can have an event by the
            // barrier. (An arrival is pending past the barrier only when it
            // was submitted beyond the `max_sim_secs` horizon, where nothing
            // is dispatched.)
            _ => self.events.pop_due(barrier),
        }
    }

    /// Traffic counters of the whole event stream: the heap's plus the
    /// arrivals, each submission counted as pushed when it enters the
    /// queue system and as popped when it arrives — the figures the
    /// engine reported when arrivals went through the heap.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        let heap = self.events.stats();
        let submitted = self.qs.total_jobs();
        QueueStats {
            pushed: heap.pushed + submitted as u64,
            popped: heap.popped + self.arrived as u64,
            stale_drops: heap.stale_drops,
            len: heap.len + (submitted - self.arrived),
        }
    }

    /// Refills the reusable snapshot of the running jobs for a policy call,
    /// unless nothing a view shows has changed since the last refill.
    /// Read the result via `self.views_scratch`.
    fn refresh_views(&mut self) {
        if self.views_version != Some(self.store.version()) {
            self.store.fill_views(&mut self.views_scratch);
            self.views_version = Some(self.store.version());
        }
    }

    /// Operational processors right now (total minus injected failures) —
    /// the capacity every policy decision is framed in.
    fn alive_cpus(&self) -> usize {
        if self.is_time_shared() {
            self.placement.alive_cpus()
        } else {
            self.machine.alive_cpus()
        }
    }

    fn free_cpus(&self) -> usize {
        if self.is_time_shared() {
            let total = self.store.total_allocated();
            self.alive_cpus().saturating_sub(total)
        } else {
            self.machine.free_cpus()
        }
    }

    /// The queue head's processor request (what admission is asked about).
    fn next_request(&self) -> Option<usize> {
        self.qs.head().map(|id| self.qs.spec(id).app.request)
    }

    fn record_ml(&mut self) {
        let ml = self.store.len();
        self.max_ml = self.max_ml.max(ml);
        self.ml_series.push((self.clock.as_secs(), ml));
        if self.obs_on {
            // The O(n) allocation sum runs only with a live observer.
            let total_alloc = self.store.total_allocated();
            self.publish(ObsEvent::MplChanged {
                running: ml,
                total_alloc,
            });
        }
    }

    // --- Event publication ---

    /// Publishes to the trace bridge and the external observer. Call sites
    /// guard with `obs_on` (or `trace_on` for CPU events) so disabled runs
    /// never construct events.
    #[inline]
    fn publish(&mut self, ev: ObsEvent) {
        if self.trace_on {
            self.trace_obs.on_event(self.clock, &ev);
        }
        if self.obs_on {
            self.obs.on_event(self.clock, &ev);
        }
    }

    /// Publishes a CPU-occupancy change (the high-volume event class); one
    /// branch and out when neither sink is live.
    #[inline]
    fn publish_cpu(&mut self, cpu: CpuId, job: Option<JobId>) {
        if let SharingModel::Gang(_) = self.sharing {
            // Gang rotation bypasses both the machine model and the quantum
            // placement's migration counter, so occupant churn is counted
            // here, at the single point every occupancy change flows
            // through — with exactly the analyzer's replay rule: a direct
            // occupied → occupied hand-off is one rotation switch.
            let prev = &mut self.gang_prev[cpu.index()];
            if let (Some(old), Some(new)) = (*prev, job) {
                if old != new {
                    self.quantum_rotations += 1;
                }
            }
            *prev = job;
        }
        if self.trace_on || self.obs_on {
            self.publish(ObsEvent::CpuAssigned { cpu, job });
        }
    }

    // --- Rates ---

    /// Recomputes a job's progress rate from its current effective
    /// processors. The job must already be advanced to `self.clock`.
    fn recompute_rate(&mut self, job: JobId) {
        let (eff, factor) = match self.sharing {
            SharingModel::SpaceShared => (self.store.effective_procs(job) as f64, 1.0),
            SharingModel::TimeShared(p) => {
                // Threads compete for operational processors only.
                let cpus = self.placement.alive_cpus();
                let total = self.store.total_effective_procs();
                let eff = effective_procs(self.store.effective_procs(job), total, cpus);
                let factor = throughput_factor(total, cpus, p.base_overhead, p.overcommit_overhead);
                (eff, factor)
            }
            SharingModel::Gang(p) => {
                // Full coscheduled width for a 1/n duty cycle, minus the
                // whole-machine switch overhead. A degraded machine caps
                // the width at the surviving processors.
                let n = self.store.len().max(1) as f64;
                let cpus = self.placement.alive_cpus();
                let eff = self.store.effective_procs(job).min(cpus) as f64;
                (eff, (1.0 - p.switch_overhead) / n)
            }
        };
        // The speedup curve goes through the job's memo; the current
        // iteration's sequential time honours working-set changes (§3.1).
        self.store.set_rate_from(job, eff, factor);
    }

    /// Invalidates the job's pending iteration event and schedules a fresh
    /// one at the current rate.
    ///
    /// If the job is already complete (its final boundary was crossed by an
    /// `advance_to` inside a decision application rather than by its own
    /// iteration event), an immediate event is scheduled so the completion
    /// path still runs.
    fn reschedule(&mut self, job: JobId) {
        let prof = self.lane.begin(SpanKind::QueueOps);
        let key = u64::from(job.0);
        self.events.invalidate_key(key);
        if self.store.is_complete(job) {
            self.events.push_keyed(self.clock, key, Ev::IterEnd { job });
        } else if let Some(dt) = self.store.time_to_iteration_end(job) {
            // `dt` is positive but can be sub-ULP at a large clock, making
            // `clock + dt` round back onto `clock` — the event would then
            // advance nothing and reschedule itself forever. The next
            // representable instant still covers the true boundary.
            let mut at = self.clock + dt;
            if at == self.clock {
                at = self.clock.next_up();
            }
            self.events.push_keyed(at, key, Ev::IterEnd { job });
        }
        self.lane.end(prof);
    }

    /// Recomputes every running job's rate (time-shared: any membership or
    /// thread-count change shifts every share).
    fn recompute_all_rates(&mut self) {
        // Indexed loop instead of cloning the order: nothing below touches
        // the membership, only per-job rates and the event queue.
        for i in 0..self.store.len() {
            let id = self.store.id_at(i);
            self.store.advance_to(id, self.clock);
            self.recompute_rate(id);
            self.reschedule(id);
        }
    }

    // --- Decisions ---

    /// Applies a policy's allocation decisions. Shrinks run before grows so
    /// released processors are available for reassignment within the same
    /// decision batch.
    fn apply_decisions(&mut self, decisions: Decisions, trigger: DecisionTrigger) {
        if decisions.is_empty() {
            return;
        }
        let Decisions {
            allocations,
            mut transitions,
        } = decisions;
        let mut changes = std::mem::take(&mut self.changes_scratch);
        changes.clear();
        changes.extend(
            allocations
                .into_iter()
                .filter(|(job, _)| self.store.contains(*job))
                .map(|(job, target)| {
                    // Cap at the request; a zero target is honored (a job
                    // can be stalled by capacity loss and re-granted later)
                    // rather than rounded up, which would overcommit a full
                    // machine.
                    let req = self.store.request(job);
                    (job, target.min(req))
                }),
        );
        // Shrinks first.
        changes.sort_by_key(|&(job, target)| {
            let cur = self.store.allocated(job);
            target > cur
        });
        let mut any_change = false;
        for &(job, target) in &changes {
            let from_alloc = self.store.allocated(job);
            if self.apply_one(job, target) {
                any_change = true;
                self.decisions_applied += 1;
                if self.obs_on {
                    let to_alloc = self.store.allocated(job);
                    // Pair the decision with the state move that caused it.
                    let transition = transitions
                        .iter()
                        .position(|n| n.job == job)
                        .map(|i| transitions.remove(i))
                        .map(|n| (n.from, n.to));
                    self.publish(ObsEvent::Decision {
                        trigger,
                        job,
                        from_alloc,
                        to_alloc,
                        transition,
                    });
                }
            }
        }
        if self.obs_on {
            // State moves that kept the allocation still matter (e.g.
            // INC → STABLE at the held width).
            for n in transitions {
                self.publish(ObsEvent::StateChanged {
                    job: n.job,
                    from: n.from,
                    to: n.to,
                });
            }
        }
        self.changes_scratch = changes;
        if any_change && self.is_time_shared() {
            self.recompute_all_rates();
        }
    }

    /// Applies one job's new target allocation. Returns true if anything
    /// changed.
    fn apply_one(&mut self, job: JobId, target: usize) -> bool {
        match self.sharing {
            SharingModel::SpaceShared => {
                let current = self.machine.allocation(job);
                if current == target {
                    return false;
                }
                // Advance progress at the old rate before the change.
                let now = self.clock;
                self.store.advance_to(job, now);
                let outcome = self.machine.resize(job, target);
                if outcome.is_noop() {
                    return false;
                }
                for cpu in &outcome.gained {
                    self.publish_cpu(*cpu, Some(job));
                }
                for cpu in &outcome.lost {
                    self.publish_cpu(*cpu, None);
                }
                let penalty = self
                    .config
                    .cost
                    .charge(outcome.gained.len(), outcome.lost.len());
                let new_alloc = self.machine.allocation(job);
                // Initial placement is free; reallocations of a running job
                // cost cache and page-migration time.
                if current > 0 {
                    self.store.charge(job, penalty);
                }
                let eff_before = self.store.effective_procs(job);
                self.store.set_allocated(job, new_alloc);
                if current > 0 && self.store.effective_procs(job) != eff_before {
                    // The in-flight iteration now mixes two allocations; its
                    // timing must not reach the policy. (Initial placement
                    // starts the first iteration fresh — nothing in flight.)
                    self.store.set_iter_polluted(job, true);
                }
                if current > 0 && self.obs_on {
                    self.publish(ObsEvent::ReallocCost {
                        job,
                        penalty_secs: penalty.as_secs(),
                        gained: outcome.gained.len(),
                        lost: outcome.lost.len(),
                    });
                }
                self.recompute_rate(job);
                self.reschedule(job);
                true
            }
            SharingModel::TimeShared(_) | SharingModel::Gang(_) => {
                if self.store.allocated(job) == target {
                    return false;
                }
                let now = self.clock;
                self.store.advance_to(job, now);
                let was_running = self.store.allocated(job) > 0;
                self.store.set_allocated(job, target);
                if was_running {
                    self.store.set_iter_polluted(job, true);
                }
                // Rates for everyone are refreshed by the caller.
                true
            }
        }
    }

    // --- Event handlers ---

    /// Routes one popped event to its handler.
    fn dispatch(&mut self, ev: Ev, policy: &mut dyn SchedulingPolicy) {
        match ev {
            Ev::Arrival(job) => self.on_arrival(job, policy),
            Ev::IterEnd { job } => self.on_iter_end(job, policy),
            Ev::Tick => self.on_tick(),
            Ev::CpuFail(cpu) => self.on_cpu_fail(cpu, policy),
            Ev::CpuRecover(cpu) => self.on_cpu_recover(cpu, policy),
            Ev::JobKill(job) => self.on_job_kill(job, policy),
            Ev::JobRetry(job) => self.on_job_retry(job, policy),
        }
    }

    // --- Incremental session support ---
    //
    // A long-lived `EngineSession` drives the same state machine as the
    // batch loop above, but in slices: ops (submit, cancel) carry an
    // instant `at`, and every op first processes all events at or before
    // `at` *before* mutating anything. Event-queue sequence numbers —
    // and therefore pop order on ties — are then a pure function of the
    // op sequence, which is what makes journal replay (snapshot/restore)
    // reproduce a live run exactly.

    /// Processes every event due at or before `barrier` (clamped to
    /// `max_sim_secs`); returns the number of events handled.
    pub(crate) fn run_due(&mut self, barrier: SimTime, policy: &mut dyn SchedulingPolicy) -> u64 {
        let max = SimTime::from_secs(self.config.max_sim_secs);
        let barrier = if barrier > max { max } else { barrier };
        let mut steps = 0;
        while let Some((t, ev)) = self.pop_due(barrier) {
            self.clock = t;
            steps += 1;
            self.dispatch(ev, policy);
        }
        self.lane.add_events(steps);
        steps
    }

    /// Admits a job submitted online: appends it to the queue system, whose
    /// submit-sorted jobs the arrival cursor streams, so it arrives at `at`.
    /// The caller must have processed all events up to `at` first (see
    /// [`run_due`](Self::run_due)) and keep submission instants
    /// nondecreasing.
    pub(crate) fn submit_at(
        &mut self,
        at: SimTime,
        app: pdpa_apps::ApplicationSpec,
        policy: &mut dyn SchedulingPolicy,
    ) -> JobId {
        self.run_due(at, policy);
        self.qs.push_job(JobSpec::new(at, app))
    }

    /// Cancels a job at instant `at`: a still-queued job is removed and
    /// failed terminally; a running job is killed with retries forbidden.
    pub(crate) fn cancel_at(
        &mut self,
        at: SimTime,
        job: JobId,
        policy: &mut dyn SchedulingPolicy,
    ) -> CancelOutcome {
        self.run_due(at, policy);
        let max = SimTime::from_secs(self.config.max_sim_secs);
        let at = if at > max { max } else { at };
        if self.clock < at {
            self.clock = at;
        }
        if job.index() >= self.qs.total_jobs() {
            return CancelOutcome::NotFound;
        }
        if self.qs.remove_waiting(job) {
            self.jobs_failed += 1;
            if self.obs_on {
                self.publish(ObsEvent::JobFailed { job, attempts: 0 });
            }
            self.qs.fail_terminal(job);
            // Removing the queue head can unblock the job behind it.
            self.try_admit(policy);
            CancelOutcome::Queued
        } else if self.store.contains(job) {
            self.kill_job(job, policy, false);
            CancelOutcome::Running
        } else {
            CancelOutcome::NotFound
        }
    }

    pub(crate) fn clock(&self) -> SimTime {
        self.clock
    }

    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub(crate) fn qs(&self) -> &QueueSystem {
        &self.qs
    }

    pub(crate) fn running_count(&self) -> usize {
        self.store.len()
    }

    fn on_arrival(&mut self, job: JobId, policy: &mut dyn SchedulingPolicy) {
        self.qs.arrive(job);
        if self.obs_on {
            self.publish(ObsEvent::JobSubmitted { job });
        }
        self.try_admit(policy);
    }

    /// Picks the job to admit: the FCFS head, or — with backfilling — the
    /// first waiting job the policy accepts.
    fn pick_admissible(&self, policy: &dyn SchedulingPolicy, views: &[JobView]) -> Option<JobId> {
        let scan = if self.config.backfill {
            self.qs.waiting_count()
        } else {
            1
        };
        self.qs.waiting().take(scan).find(|&job| {
            policy.may_start_new_job(&PolicyCtx {
                now: self.clock,
                total_cpus: self.alive_cpus(),
                free_cpus: self.free_cpus(),
                jobs: views,
                queued_jobs: self.qs.waiting_count(),
                next_request: Some(self.qs.spec(job).app.request),
            })
        })
    }

    fn try_admit(&mut self, policy: &mut dyn SchedulingPolicy) {
        loop {
            self.refresh_views();
            let Some(job) = self.pick_admissible(policy, &self.views_scratch) else {
                return;
            };
            assert!(self.qs.start_specific(job), "picked job is waiting");
            if self.obs_on {
                // The queue → start hand-off: queue-wait time is the span
                // from submit (or a retry's backoff expiry) to this event.
                self.publish(ObsEvent::JobDequeued { job });
            }
            let spec = self.qs.spec(job).app.clone();
            let request = spec.request;
            let analyzer = SelfAnalyzer::new(self.config.analyzer);
            // The per-job noise stream is derived, not drawn from the shared
            // rng, so admission order does not perturb other jobs' noise.
            // (The classic engine perturbs from the shared stream; the
            // private stream drives the sharded engine.)
            let attempt = self.retries.get(&job).copied().unwrap_or(0);
            let rng = job_noise_rng(self.config.seed, job, attempt);
            self.store.start(job, spec, analyzer, self.clock, rng);
            if self.obs_on {
                self.publish(ObsEvent::JobStarted { job, request });
            }
            self.record_ml();
            self.refresh_views();
            let ctx = PolicyCtx {
                now: self.clock,
                total_cpus: self.alive_cpus(),
                free_cpus: self.free_cpus(),
                jobs: &self.views_scratch,
                queued_jobs: self.qs.waiting_count(),
                next_request: self.next_request(),
            };
            let prof = self.lane.begin(SpanKind::PolicyDecision);
            let decisions = {
                let _span = Span::start(Arc::clone(&self.decision_hist));
                policy.on_job_arrival(&ctx, job)
            };
            self.lane.end(prof);
            self.apply_decisions(decisions, DecisionTrigger::Arrival);
            if self.is_time_shared() {
                self.recompute_all_rates();
            }
        }
    }

    fn on_iter_end(&mut self, job: JobId, policy: &mut dyn SchedulingPolicy) {
        // Stale events (completed job, bumped generation) never reach here:
        // the queue discards invalidated keys inside `pop`.
        let crossed = self.store.advance_to(job, self.clock);
        let mut sample = None;
        // `(procs, measured_secs)` of a clean iteration, kept for the
        // observer.
        let mut iter_meta: Option<(usize, f64)> = None;
        if crossed > 0 {
            if self.store.iter_polluted(job) {
                // The finished iteration straddled an allocation change; its
                // wall time mixes two rates. Restart the measurement window
                // and report nothing — the next full iteration is clean.
                self.store.set_iter_polluted(job, false);
                self.store.set_iter_started_at(job, self.clock);
            } else {
                // Measure the finished iteration (wall time since the
                // iteration started, with timing noise) and feed the
                // SelfAnalyzer.
                let truth = self.clock.since(self.store.iter_started_at(job));
                let per_iter = truth / crossed as f64;
                self.store.set_iter_started_at(job, self.clock);
                let procs_used = self.store.effective_procs(job);
                let measured = self.noise.perturb(per_iter, &mut self.rng);
                sample = self.store.record_iteration(job, procs_used, measured);
                if self.obs_on {
                    iter_meta = Some((procs_used, measured.as_secs()));
                }
            }
            // Crossing into a new working-set phase invalidates the
            // baseline; compiler-inserted instrumentation resets the
            // analyzer (§3.1). The reset comes *after* recording the
            // iteration that just finished — it belongs to the old phase.
            if self.config.reset_analyzer_on_phase_change {
                if let Some(pc) = self.store.phase_change(job) {
                    let done = self.store.iterations_done(job);
                    if done >= pc.at_iteration && done - crossed < pc.at_iteration {
                        self.store.reset_analyzer(job);
                        sample = None;
                    }
                }
            }
        }

        let complete = self.store.is_complete(job);
        if let Some((procs, iter_secs)) = iter_meta {
            // Published after `j`'s borrow ends, before any JobFinished.
            self.publish(ObsEvent::IterationMeasured {
                job,
                procs,
                iter_secs,
                speedup: sample.as_ref().map_or(0.0, |s| s.speedup),
                efficiency: sample.as_ref().map_or(0.0, |s| s.efficiency),
                estimated: sample.is_some(),
            });
        }
        if complete {
            self.complete_job(job, policy);
            return;
        }
        if crossed == 0 {
            // Numerical corner: the boundary was not quite reached. Refresh
            // the schedule and move on.
            self.reschedule(job);
            return;
        }

        if let Some(s) = sample {
            self.refresh_views();
            let ctx = PolicyCtx {
                now: self.clock,
                total_cpus: self.alive_cpus(),
                free_cpus: self.free_cpus(),
                jobs: &self.views_scratch,
                queued_jobs: self.qs.waiting_count(),
                next_request: self.next_request(),
            };
            let prof = self.lane.begin(SpanKind::PolicyDecision);
            let decisions = {
                let _span = Span::start(Arc::clone(&self.decision_hist));
                policy.on_performance_report(&ctx, job, s)
            };
            self.lane.end(prof);
            self.apply_decisions(decisions, DecisionTrigger::Report);
            // A report can settle the system and unblock admission (PDPA's
            // coordination path).
            self.try_admit(policy);
        }
        if self.store.contains(job) {
            // The analyzer phase may have flipped (baseline → measuring), so
            // refresh the rate either way.
            self.recompute_rate(job);
            self.reschedule(job);
        }
    }

    fn complete_job(&mut self, job: JobId, policy: &mut dyn SchedulingPolicy) {
        let class = self.store.class(job);
        let avg_alloc = self.store.average_allocation(job, self.clock);
        let started_at = self.store.started_at(job);
        self.completed_allocs.push((class, avg_alloc));
        self.completed_alloc_by_job.insert(job, avg_alloc);
        self.cpu_seconds_used += avg_alloc * self.clock.since(started_at).as_secs();
        self.outcomes.push(JobOutcome {
            job,
            class,
            submit: self.qs.spec(job).submit,
            start: started_at,
            end: self.clock,
        });

        if self.obs_on {
            self.publish(ObsEvent::JobFinished { job });
        }

        // Release processors.
        match self.sharing {
            SharingModel::SpaceShared => {
                let released = self.machine.release(job);
                for cpu in released {
                    self.publish_cpu(cpu, None);
                }
            }
            SharingModel::TimeShared(_) | SharingModel::Gang(_) => {
                for cpu in self.placement.evict(job) {
                    self.publish_cpu(cpu, None);
                }
            }
        }
        // Removing the job harvests its speedup-memo stats.
        let memo = self.store.remove(job);
        self.memo_hits += memo.hits;
        self.memo_misses += memo.misses;
        // The pending iteration prediction (if any) dies with the job.
        self.events.invalidate_key(u64::from(job.0));
        self.qs.complete(job);
        self.record_ml();

        self.refresh_views();
        let ctx = PolicyCtx {
            now: self.clock,
            total_cpus: self.alive_cpus(),
            free_cpus: self.free_cpus(),
            jobs: &self.views_scratch,
            queued_jobs: self.qs.waiting_count(),
            next_request: self.next_request(),
        };
        let prof = self.lane.begin(SpanKind::PolicyDecision);
        let decisions = {
            let _span = Span::start(Arc::clone(&self.decision_hist));
            policy.on_job_completion(&ctx, job)
        };
        self.lane.end(prof);
        self.apply_decisions(decisions, DecisionTrigger::Completion);
        if self.is_time_shared() {
            self.recompute_all_rates();
        }
        self.try_admit(policy);
    }

    fn on_tick(&mut self) {
        match self.sharing {
            SharingModel::SpaceShared => return,
            SharingModel::TimeShared(p) => {
                let store = &self.store;
                let jobs: Vec<(JobId, usize)> = store
                    .ids_in_order()
                    .map(|id| (id, store.allocated(id)))
                    .collect();
                let changes = self.placement.advance(&jobs, p.affinity, &mut self.rng);
                for (cpu, occupant) in changes {
                    self.publish_cpu(cpu, occupant);
                }
            }
            SharingModel::Gang(_) => {
                // Rotate the matrix: the next gang owns the machine for this
                // slot; everything beyond its width idles. Dead processors
                // never host a gang member.
                if !self.store.is_empty() {
                    self.gang_slot = (self.gang_slot + 1) % self.store.len();
                    let job = self.store.id_at(self.gang_slot);
                    let width = self.store.allocated(job).min(self.placement.alive_cpus());
                    let mut granted = 0;
                    for c in 0..self.config.cpus {
                        let cpu = CpuId(c as u16);
                        let occupant = if self.placement.is_alive(cpu) && granted < width {
                            granted += 1;
                            Some(job)
                        } else {
                            None
                        };
                        self.publish_cpu(cpu, occupant);
                    }
                }
            }
        }
        // Keep ticking while work remains.
        if !self.qs.all_done() {
            let q = self.quantum().expect("ticks only under a quantum model");
            self.events.push(self.clock + q, Ev::Tick);
        }
    }

    // --- Fault handlers ---

    /// Publishes the new capacity level and re-drives the policy after a
    /// CPU failure or recovery. `changed` lists the jobs whose allocations
    /// the failure cut.
    fn drive_capacity_change(&mut self, changed: &[JobId], policy: &mut dyn SchedulingPolicy) {
        if self.obs_on {
            self.publish(ObsEvent::DegradedCapacity {
                alive: self.alive_cpus(),
                total: self.config.cpus,
            });
        }
        self.refresh_views();
        let ctx = PolicyCtx {
            now: self.clock,
            total_cpus: self.alive_cpus(),
            free_cpus: self.free_cpus(),
            jobs: &self.views_scratch,
            queued_jobs: self.qs.waiting_count(),
            next_request: self.next_request(),
        };
        let prof = self.lane.begin(SpanKind::PolicyDecision);
        let decisions = {
            let _span = Span::start(Arc::clone(&self.decision_hist));
            policy.on_capacity_change(&ctx, changed)
        };
        self.lane.end(prof);
        self.apply_decisions(decisions, DecisionTrigger::Fault);
        if self.is_time_shared() {
            self.recompute_all_rates();
        }
    }

    fn on_cpu_fail(&mut self, cpu: CpuId, policy: &mut dyn SchedulingPolicy) {
        let was_alive = if self.is_time_shared() {
            self.placement.is_alive(cpu)
        } else {
            self.machine.is_alive(cpu)
        };
        if !was_alive {
            // Overlapping plan elements: the CPU is already down.
            return;
        }
        self.cpu_failures += 1;
        if self.obs_on {
            self.publish(ObsEvent::CpuFailed { cpu });
        }
        let mut changed = Vec::new();
        match self.sharing {
            SharingModel::SpaceShared => {
                let victim = self.machine.fail_cpu(cpu);
                if let Some(job) = victim {
                    self.publish_cpu(cpu, None);
                    let now = self.clock;
                    let new_alloc = self.machine.allocation(job);
                    // Bank progress at the old rate before the revocation.
                    self.store.advance_to(job, now);
                    let eff_before = self.store.effective_procs(job);
                    self.store.set_allocated(job, new_alloc);
                    if self.store.effective_procs(job) != eff_before {
                        self.store.set_iter_polluted(job, true);
                    }
                    changed.push(job);
                    self.recompute_rate(job);
                    self.reschedule(job);
                }
            }
            SharingModel::TimeShared(_) | SharingModel::Gang(_) => {
                if self.placement.set_alive(cpu, false).is_some() {
                    self.publish_cpu(cpu, None);
                }
                // Thread counts are unchanged but every share shrank.
                self.recompute_all_rates();
            }
        }
        self.drive_capacity_change(&changed, policy);
    }

    fn on_cpu_recover(&mut self, cpu: CpuId, policy: &mut dyn SchedulingPolicy) {
        let was_dead = if self.is_time_shared() {
            let dead = !self.placement.is_alive(cpu);
            if dead {
                self.placement.set_alive(cpu, true);
                self.recompute_all_rates();
            }
            dead
        } else {
            self.machine.recover_cpu(cpu)
        };
        if !was_dead {
            return;
        }
        if self.obs_on {
            self.publish(ObsEvent::CpuRecovered { cpu });
        }
        self.drive_capacity_change(&[], policy);
        // Restored supply may unblock admission.
        self.try_admit(policy);
    }

    fn on_job_kill(&mut self, job: JobId, policy: &mut dyn SchedulingPolicy) {
        if !self.store.contains(job) {
            // You cannot crash what is not there (queued, done, or between
            // retries). The fault is dropped.
            return;
        }
        self.kill_job(job, policy, true);
    }

    /// Tears down a running job: releases its processors, removes it from
    /// the store, and either schedules a retry (fault-plan crashes, when
    /// the budget allows) or fails it terminally. `allow_retry` is false
    /// for explicit cancellation — a cancelled job never comes back.
    fn kill_job(&mut self, job: JobId, policy: &mut dyn SchedulingPolicy, allow_retry: bool) {
        let attempt = self.retries.get(&job).copied().unwrap_or(0) + 1;
        // Free the crashed job's resources — like a completion, but with no
        // outcome record: a retried job restarts from scratch.
        self.store.advance_to(job, self.clock);
        match self.sharing {
            SharingModel::SpaceShared => {
                let released = self.machine.release(job);
                for cpu in released {
                    self.publish_cpu(cpu, None);
                }
            }
            SharingModel::TimeShared(_) | SharingModel::Gang(_) => {
                for cpu in self.placement.evict(job) {
                    self.publish_cpu(cpu, None);
                }
            }
        }
        let memo = self.store.remove(job);
        self.memo_hits += memo.hits;
        self.memo_misses += memo.misses;
        // Invalidate the crashed incarnation's pending iteration event by
        // key: a retried job reuses its id, and generations never reset, so
        // the old prediction can never be mistaken for the new one.
        self.events.invalidate_key(u64::from(job.0));
        self.record_ml();

        let retry = self.config.faults.retry;
        if allow_retry && retry.is_some_and(|r| attempt <= r.max_retries) {
            let backoff = retry.expect("checked").backoff_for(attempt);
            self.retries.insert(job, attempt);
            self.job_retries += 1;
            if self.obs_on {
                self.publish(ObsEvent::JobRetried {
                    job,
                    attempt,
                    backoff_secs: backoff.as_secs(),
                });
            }
            self.events.push(self.clock + backoff, Ev::JobRetry(job));
        } else {
            self.jobs_failed += 1;
            if self.obs_on {
                self.publish(ObsEvent::JobFailed {
                    job,
                    attempts: attempt,
                });
            }
            self.qs.fail_terminal(job);
        }

        // The job departed: let the policy redistribute, then refill the
        // multiprogramming slot it vacated.
        self.refresh_views();
        let ctx = PolicyCtx {
            now: self.clock,
            total_cpus: self.alive_cpus(),
            free_cpus: self.free_cpus(),
            jobs: &self.views_scratch,
            queued_jobs: self.qs.waiting_count(),
            next_request: self.next_request(),
        };
        let prof = self.lane.begin(SpanKind::PolicyDecision);
        let decisions = {
            let _span = Span::start(Arc::clone(&self.decision_hist));
            policy.on_job_completion(&ctx, job)
        };
        self.lane.end(prof);
        self.apply_decisions(decisions, DecisionTrigger::Fault);
        if self.is_time_shared() {
            self.recompute_all_rates();
        }
        self.try_admit(policy);
    }

    fn on_job_retry(&mut self, job: JobId, policy: &mut dyn SchedulingPolicy) {
        self.qs.requeue(job);
        self.try_admit(policy);
    }

    pub(crate) fn into_result(mut self, policy_name: &str) -> RunResult {
        let completed_all = self.qs.all_done();
        // Memo stats of jobs still running at the simulation bound.
        let leftover = self.store.remaining_memo_stats();
        self.memo_hits += leftover.hits;
        self.memo_misses += leftover.misses;
        // Average allocation per class.
        let mut sums: HashMap<AppClass, (f64, usize)> = HashMap::new();
        for (class, avg) in &self.completed_allocs {
            let e = sums.entry(*class).or_insert((0.0, 0));
            e.0 += avg;
            e.1 += 1;
        }
        let avg_alloc_by_class = sums
            .into_iter()
            .map(|(c, (sum, n))| (c, sum / n as f64))
            .collect();
        let end = self.clock;
        let stats = self.queue_stats();
        let events_pushed = stats.pushed;
        let events_popped = stats.popped;
        let events_stale_dropped = stats.stale_drops;
        pdpa_obs::metrics::record_engine_run(&RunCounters {
            events_pushed,
            events_popped,
            events_stale_dropped,
            decisions: self.decisions_applied,
            memo_hits: self.memo_hits,
            memo_misses: self.memo_misses,
        });
        RunResult {
            policy: policy_name.to_string(),
            summary: Summary::new(self.outcomes),
            trace: if self.config.collect_trace {
                Some(self.trace_obs.into_trace(end))
            } else {
                None
            },
            machine_stats: self.machine.stats(),
            timeshare_migrations: self.placement.migrations,
            quantum_rotations: self.quantum_rotations,
            ml_series: self.ml_series,
            max_ml: self.max_ml,
            avg_alloc_by_class,
            avg_alloc_by_job: self.completed_alloc_by_job,
            completed_all,
            end_secs: end.as_secs(),
            cpu_seconds_used: self.cpu_seconds_used,
            total_cpus: self.config.cpus,
            events_pushed,
            events_popped,
            events_stale_dropped,
            decisions_applied: self.decisions_applied,
            memo_hits: self.memo_hits,
            memo_misses: self.memo_misses,
            cpu_failures: self.cpu_failures,
            job_retries: self.job_retries,
            jobs_failed: self.jobs_failed,
            watchdog: None,
            shard_events_popped: Vec::new(),
            profile: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a, hydro2d};
    use pdpa_core::Pdpa;
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
    fn single_job_completes_in_ideal_time_under_equip() {
        // One bt.A alone on the machine under Equipartition: it gets its
        // full request immediately and runs at the ideal rate, except for
        // the baseline iterations, which run at 2 processors.
        let jobs = vec![JobSpec::new(t(0.0), bt_a())];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        let s = r.summary.class_averages(AppClass::BtA).unwrap();
        let spec = bt_a();
        // Ideal: all but the baseline iterations at S(30), the baseline
        // iterations at S(2).
        let baseline = 2.0;
        let ideal = spec.iter_time(30).unwrap().as_secs() * (spec.iterations as f64 - baseline)
            + spec.iter_time(2).unwrap().as_secs() * baseline;
        let got = s.avg_execution_secs;
        assert!(
            (got - ideal).abs() / ideal < 0.01,
            "got {got}, ideal {ideal}"
        );
    }

    #[test]
    fn two_jobs_split_under_equipartition() {
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())];
        let mut cfg = quiet_config();
        cfg.cpus = 40; // force contention: 2 × 30 > 40
        let r = Engine::new(cfg).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        let avg = r.avg_alloc_by_class[&AppClass::BtA];
        assert!(
            (avg - 20.0).abs() < 1.5,
            "each job should average ≈ 20 processors, got {avg}"
        );
    }

    #[test]
    fn pdpa_shrinks_hydro2d_to_its_knee() {
        let jobs = vec![JobSpec::new(t(0.0), hydro2d())];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        let avg = r.avg_alloc_by_class[&AppClass::Hydro2d];
        // Starts at 30 (NO_REF), walks down to ≈ 10 and stays: the average
        // must land well below 30 and near the knee.
        assert!(avg < 20.0, "hydro2d average allocation {avg}");
    }

    #[test]
    fn pdpa_keeps_apsi_at_two() {
        let jobs = vec![JobSpec::new(t(0.0), apsi())];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        let avg = r.avg_alloc_by_class[&AppClass::Apsi];
        assert!((avg - 2.0).abs() < 0.2, "apsi stays at its request: {avg}");
    }

    #[test]
    fn response_time_includes_queue_wait() {
        // Five bt jobs, ML 1: strictly sequential.
        let jobs: Vec<JobSpec> = (0..3).map(|_| JobSpec::new(t(0.0), bt_a())).collect();
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Equipartition::new(1)));
        assert!(r.completed_all);
        let s = r.summary.class_averages(AppClass::BtA).unwrap();
        assert!(
            s.avg_response_secs > s.avg_execution_secs + 10.0,
            "queued jobs wait: response {} vs exec {}",
            s.avg_response_secs,
            s.avg_execution_secs
        );
        assert_eq!(r.max_ml, 1);
    }

    #[test]
    fn determinism() {
        let make = || {
            vec![
                JobSpec::new(t(0.0), bt_a()),
                JobSpec::new(t(5.0), hydro2d()),
                JobSpec::new(t(9.0), apsi()),
            ]
        };
        let cfg = EngineConfig {
            seed: 1234,
            ..EngineConfig::default()
        };
        let a = Engine::new(cfg.clone()).run(make(), Box::new(Pdpa::paper_default()));
        let b = Engine::new(cfg).run(make(), Box::new(Pdpa::paper_default()));
        assert_eq!(a.end_secs, b.end_secs);
        assert_eq!(a.max_ml, b.max_ml);
        let ra: Vec<f64> = a
            .summary
            .outcomes()
            .iter()
            .map(|o| o.response_time().as_secs())
            .collect();
        let rb: Vec<f64> = b
            .summary
            .outcomes()
            .iter()
            .map(|o| o.response_time().as_secs())
            .collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn trace_collection_records_bursts() {
        let jobs = vec![JobSpec::new(t(0.0), apsi())];
        let cfg = quiet_config().with_trace();
        let r = Engine::new(cfg).run(jobs, Box::new(Equipartition::default()));
        let trace = r.trace.expect("trace enabled");
        assert!(!trace.records.is_empty());
        // apsi requests 2 processors: exactly 2 CPUs saw work.
        let busy_cpus: std::collections::HashSet<u16> =
            trace.records.iter().map(|rec| rec.cpu.0).collect();
        assert_eq!(busy_cpus.len(), 2);
    }

    #[test]
    fn machine_invariants_hold_throughout() {
        // A mixed workload under PDPA with reallocation churn; afterwards
        // the machine must be fully free.
        let jobs = vec![
            JobSpec::new(t(0.0), bt_a()),
            JobSpec::new(t(1.0), hydro2d()),
            JobSpec::new(t(2.0), apsi()),
            JobSpec::new(t(3.0), hydro2d()),
        ];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        assert_eq!(r.summary.jobs(), 4);
    }

    #[test]
    fn recording_observer_sees_the_job_lifecycle() {
        use pdpa_obs::RecordingObserver;
        let jobs = vec![JobSpec::new(t(0.0), hydro2d())];
        let mut rec = RecordingObserver::new();
        let r = Engine::new(quiet_config()).run_observed(
            jobs,
            Box::new(Pdpa::paper_default()),
            &mut rec,
        );
        assert!(r.completed_all);
        let events = rec.take_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        // The lifecycle backbone, in order.
        let submit = kinds.iter().position(|&k| k == "submit").unwrap();
        let start = kinds.iter().position(|&k| k == "start").unwrap();
        let finish = kinds.iter().position(|&k| k == "finish").unwrap();
        assert!(submit < start && start < finish);
        // PDPA shrinks hydro2d: decisions with transitions are on the bus.
        assert!(events.iter().any(|e| matches!(
            e.event,
            ObsEvent::Decision {
                transition: Some(_),
                ..
            }
        )));
        assert!(kinds.contains(&"iter"));
        assert!(kinds.contains(&"mpl"));
        // Sequence numbers are strictly increasing (per-run monotonic).
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        // Engine counters made it into the result.
        assert!(r.decisions_applied > 0);
        assert!(r.memo_misses > 0);
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        use pdpa_obs::RecordingObserver;
        let make = || {
            vec![
                JobSpec::new(t(0.0), bt_a()),
                JobSpec::new(t(2.0), hydro2d()),
            ]
        };
        let a = Engine::new(quiet_config()).run(make(), Box::new(Pdpa::paper_default()));
        let mut rec = RecordingObserver::new();
        let b = Engine::new(quiet_config()).run_observed(
            make(),
            Box::new(Pdpa::paper_default()),
            &mut rec,
        );
        assert_eq!(a.end_secs, b.end_secs);
        assert_eq!(a.decisions_applied, b.decisions_applied);
        assert_eq!(a.events_popped, b.events_popped);
        assert_eq!(a.events_stale_dropped, b.events_stale_dropped);
        assert!(!rec.events().is_empty());
    }

    #[test]
    fn ml_series_tracks_admissions() {
        let jobs = vec![JobSpec::new(t(0.0), apsi()), JobSpec::new(t(0.0), apsi())];
        let r = Engine::new(quiet_config()).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        assert_eq!(r.peak_ml(), 2);
        // The series starts at 0 and returns to 0.
        assert_eq!(r.ml_series.first().unwrap().1, 0);
        assert_eq!(r.ml_series.last().unwrap().1, 0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a, hydro2d};
    use pdpa_core::Pdpa;
    use pdpa_faults::{FaultPlan, RetryPolicy};
    use pdpa_policies::Equipartition;
    use pdpa_qs::JobSpec;
    use pdpa_sim::CostModel;

    fn quiet() -> EngineConfig {
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
    fn permanent_cpu_failure_shrinks_the_run() {
        // bt.A holds all 30 of its processors; losing 10 of the machine's 60
        // mid-run must not panic, and the run still drains.
        let mut plan = FaultPlan::none();
        for c in 0..10 {
            plan = plan.fail_cpu_at(CpuId(c), 50.0);
        }
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())];
        let mut cfg = quiet().with_faults(plan);
        cfg.cpus = 40; // 2 × 30 > 40: contention plus capacity loss
        let r = Engine::new(cfg).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        assert_eq!(r.cpu_failures, 10);
    }

    #[test]
    fn failure_revokes_the_owners_cpu_and_policy_rebalances() {
        // One bt.A on a small machine: every CPU is owned, so the failure
        // dislodges the job. Equipartition's capacity hook re-deals over the
        // survivors and the job finishes on 7 processors.
        let plan = FaultPlan::none().fail_cpu_at(CpuId(3), 100.0);
        let jobs = vec![JobSpec::new(t(0.0), bt_a())];
        let cfg = quiet().with_cpus(8).with_faults(plan);
        let r = Engine::new(cfg).run(jobs, Box::new(Equipartition::default()));
        assert!(r.completed_all);
        assert_eq!(r.cpu_failures, 1);
    }

    #[test]
    fn recovery_restores_capacity() {
        let plan = FaultPlan::none().fail_cpu_between(CpuId(0), 50.0, 200.0);
        let jobs = vec![JobSpec::new(t(0.0), hydro2d())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        assert_eq!(r.cpu_failures, 1);
    }

    #[test]
    fn job_crash_without_retry_is_terminal() {
        let plan = FaultPlan::none().fail_job_at(JobId(0), 100.0);
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), apsi())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Pdpa::paper_default()));
        // The workload drains: the crashed job counts as done (failed).
        assert!(r.completed_all);
        assert_eq!(r.jobs_failed, 1);
        assert_eq!(r.job_retries, 0);
        assert_eq!(r.summary.jobs(), 1, "only the survivor has an outcome");
    }

    #[test]
    fn job_crash_with_retry_restarts_and_completes() {
        let plan = FaultPlan::none()
            .fail_job_at(JobId(0), 100.0)
            .with_retry(RetryPolicy::default());
        let jobs = vec![JobSpec::new(t(0.0), apsi())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all);
        assert_eq!(r.job_retries, 1);
        assert_eq!(r.jobs_failed, 0);
        assert_eq!(r.summary.jobs(), 1, "the retried job completed");
        // The restart threw away 100 s of progress plus 30 s of backoff.
        assert!(r.end_secs > 130.0, "end at {:.0}s", r.end_secs);
    }

    #[test]
    fn repeated_crashes_exhaust_retries() {
        // Crash job 0 on every attempt: first run at 100 s, the two retries
        // at later instants (backoff 30 s then 60 s — crash right after each
        // restart). After max_retries = 2, the third crash is terminal.
        let plan = FaultPlan::none()
            .fail_job_at(JobId(0), 100.0)
            .fail_job_at(JobId(0), 140.0)
            .fail_job_at(JobId(0), 210.0)
            .with_retry(RetryPolicy::default());
        let jobs = vec![JobSpec::new(t(0.0), bt_a())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Pdpa::paper_default()));
        assert!(r.completed_all, "terminal failure still drains the run");
        assert_eq!(r.job_retries, 2);
        assert_eq!(r.jobs_failed, 1);
        assert_eq!(r.summary.jobs(), 0);
    }

    #[test]
    fn crashing_a_queued_job_is_a_noop() {
        // Job 1 waits behind an ML-1 policy when the fault fires: nothing to
        // kill, the fault is dropped, and the job later runs to completion.
        let plan = FaultPlan::none().fail_job_at(JobId(1), 10.0);
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())];
        let r = Engine::new(quiet().with_faults(plan)).run(jobs, Box::new(Equipartition::new(1)));
        assert!(r.completed_all);
        assert_eq!(r.jobs_failed, 0);
        assert_eq!(r.summary.jobs(), 2);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use pdpa_obs::RecordingObserver;
        let make = || {
            vec![
                JobSpec::new(t(0.0), bt_a()),
                JobSpec::new(t(5.0), hydro2d()),
                JobSpec::new(t(9.0), apsi()),
            ]
        };
        let plan = FaultPlan::none()
            .fail_cpu_between(CpuId(2), 60.0, 300.0)
            .fail_cpu_at(CpuId(40), 120.0)
            .fail_job_at(JobId(0), 70.0) // bt.A: long-running, still alive
            .with_retry(RetryPolicy::default());
        let cfg = quiet().with_faults(plan);
        let mut rec_a = RecordingObserver::new();
        let a = Engine::new(cfg.clone()).run_observed(
            make(),
            Box::new(Pdpa::paper_default()),
            &mut rec_a,
        );
        let mut rec_b = RecordingObserver::new();
        let b = Engine::new(cfg).run_observed(make(), Box::new(Pdpa::paper_default()), &mut rec_b);
        assert_eq!(a.end_secs, b.end_secs);
        assert_eq!(a.cpu_failures, b.cpu_failures);
        let lines_a: Vec<String> = rec_a.take_events().iter().map(|e| e.to_line()).collect();
        let lines_b: Vec<String> = rec_b.take_events().iter().map(|e| e.to_line()).collect();
        assert_eq!(lines_a, lines_b, "identical seeds, identical streams");
        let kinds: std::collections::HashSet<&str> = Vec::leak(lines_a)
            .iter()
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        assert!(kinds.contains("cpu_failed"));
        assert!(kinds.contains("cpu_recovered"));
        assert!(kinds.contains("degraded"));
        assert!(kinds.contains("retry"));
    }

    #[test]
    fn time_shared_capacity_loss_slows_but_completes() {
        use pdpa_policies::IrixLike;
        let mut plan = FaultPlan::none();
        for c in 0..20 {
            plan = plan.fail_cpu_at(CpuId(c), 100.0);
        }
        let jobs = vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())];
        let degraded = Engine::new(quiet().with_faults(plan))
            .run(jobs.clone(), Box::new(IrixLike::paper_default()));
        let healthy = Engine::new(quiet()).run(
            vec![JobSpec::new(t(0.0), bt_a()), JobSpec::new(t(0.0), bt_a())],
            Box::new(IrixLike::paper_default()),
        );
        assert!(degraded.completed_all);
        assert!(
            degraded.end_secs > healthy.end_secs,
            "40 CPUs for 60 threads is slower than 60: {:.0} vs {:.0}",
            degraded.end_secs,
            healthy.end_secs
        );
    }

    #[test]
    fn gang_capacity_loss_slows_but_completes() {
        use pdpa_policies::GangScheduler;
        let mut plan = FaultPlan::none();
        for c in 0..30 {
            plan = plan.fail_cpu_at(CpuId(c), 50.0);
        }
        let jobs = vec![JobSpec::new(t(0.0), bt_a())];
        let r = Engine::new(quiet().with_faults(plan))
            .run(jobs, Box::new(GangScheduler::paper_comparable()));
        assert!(r.completed_all);
        assert_eq!(r.cpu_failures, 30);
    }

    #[test]
    fn every_policy_survives_a_chaos_plan() {
        use pdpa_policies::{GangScheduler, IrixLike, RigidFirstFit};
        let plan = || {
            FaultPlan::none()
                .fail_cpu_at(CpuId(0), 40.0)
                .fail_cpu_between(CpuId(10), 80.0, 400.0)
                .fail_job_at(JobId(0), 120.0)
                .with_retry(RetryPolicy::default())
        };
        let jobs = || {
            vec![
                JobSpec::new(t(0.0), bt_a()),
                JobSpec::new(t(3.0), hydro2d()),
                JobSpec::new(t(6.0), apsi()),
            ]
        };
        let policies: Vec<Box<dyn SchedulingPolicy>> = vec![
            Box::new(Pdpa::paper_default()),
            Box::new(Equipartition::default()),
            Box::new(pdpa_policies::EqualEfficiency::paper_default()),
            Box::new(IrixLike::paper_default()),
            Box::new(GangScheduler::paper_comparable()),
            Box::new(RigidFirstFit::new(8)),
        ];
        for policy in policies {
            let name = policy.name();
            let cfg = quiet().with_faults(plan());
            let r = Engine::new(cfg).run(jobs(), policy);
            assert!(r.completed_all, "{name} drains under chaos");
            assert_eq!(r.cpu_failures, 2, "{name}");
        }
    }
}

#[cfg(test)]
mod phase_change_tests {
    use super::*;
    use pdpa_apps::{AppClass, ApplicationSpec, PiecewiseLinear};
    use pdpa_core::Pdpa;
    use pdpa_sim::{CostModel, SimDuration};
    use std::sync::Arc;

    /// An application with a clean efficiency knee at 12 processors whose
    /// iterations become 2.5× heavier halfway through the run.
    fn phased_app() -> ApplicationSpec {
        let curve =
            PiecewiseLinear::new(vec![(4, 3.8), (8, 7.2), (12, 9.5), (16, 10.5), (30, 11.0)]);
        ApplicationSpec::new(
            AppClass::Hydro2d,
            60,
            SimDuration::from_secs(4.0),
            30,
            Arc::new(curve),
            0.0,
        )
        .with_phase_change(30, 2.5)
    }

    fn run(reset: bool) -> crate::result::RunResult {
        let config = EngineConfig {
            noise_sigma: 0.0,
            cost: CostModel::free(),
            reset_analyzer_on_phase_change: reset,
            ..EngineConfig::default()
        };
        let jobs = vec![pdpa_qs::JobSpec::new(SimTime::ZERO, phased_app())];
        Engine::new(config).run(jobs, Box::new(Pdpa::paper_default()))
    }

    #[test]
    fn analyzer_reset_preserves_the_allocation_across_a_phase_change() {
        // With the reset, the analyzer re-baselines in the heavy phase and
        // keeps estimating correctly: the allocation stays near the knee.
        let with_reset = run(true);
        assert!(with_reset.completed_all);
        let alloc = with_reset.avg_alloc_by_class[&AppClass::Hydro2d];
        assert!(
            alloc > 8.0,
            "allocation should stay near the 12-processor knee, got {alloc:.1}"
        );
    }

    #[test]
    fn stale_baseline_misleads_pdpa_without_the_reset() {
        // Without the reset, the heavy phase looks like a 2.5× slowdown to
        // the stale baseline: estimated speedups collapse and PDPA shrinks
        // the application far below its true knee — the §3.1 failure mode.
        let without = run(false);
        assert!(without.completed_all);
        let with_reset = run(true);
        let a_without = without.avg_alloc_by_class[&AppClass::Hydro2d];
        let a_with = with_reset.avg_alloc_by_class[&AppClass::Hydro2d];
        assert!(
            a_without < a_with,
            "stale baseline should cost processors: {a_without:.1} vs {a_with:.1}"
        );
        // And the misallocation costs real time.
        assert!(without.end_secs > with_reset.end_secs);
    }
}

#[cfg(test)]
mod gang_tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a};
    use pdpa_policies::GangScheduler;
    use pdpa_qs::JobSpec;
    use pdpa_sim::CostModel;

    fn quiet() -> EngineConfig {
        EngineConfig {
            noise_sigma: 0.0,
            cost: CostModel::free(),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn lone_gang_runs_at_nearly_full_speed() {
        let jobs = vec![JobSpec::new(SimTime::ZERO, bt_a())];
        let r = Engine::new(quiet()).run(jobs, Box::new(GangScheduler::paper_comparable()));
        assert!(r.completed_all);
        let spec = bt_a();
        let ideal = spec.iter_time(30).unwrap().as_secs() * (spec.iterations as f64 - 2.0)
            + spec.iter_time(2).unwrap().as_secs() * 2.0;
        let got = r.summary.outcomes()[0].execution_time().as_secs();
        // One gang: only the 5 % switch overhead on top of the ideal.
        let expected = ideal / 0.95;
        assert!(
            (got - expected).abs() / expected < 0.01,
            "got {got:.1}s, expected {expected:.1}s"
        );
    }

    #[test]
    fn two_gangs_halve_the_duty_cycle() {
        let jobs = vec![
            JobSpec::new(SimTime::ZERO, apsi()),
            JobSpec::new(SimTime::ZERO, apsi()),
        ];
        let r = Engine::new(quiet()).run(jobs, Box::new(GangScheduler::paper_comparable()));
        assert!(r.completed_all);
        // Each job runs half the time: execution roughly doubles vs a lone
        // run (apsi at its 2-processor width).
        let spec = apsi();
        let lone = spec.iter_time(2).unwrap().as_secs() * spec.iterations as f64;
        for o in r.summary.outcomes() {
            let got = o.execution_time().as_secs();
            let expected = lone * 2.0 / 0.95;
            assert!(
                (got - expected).abs() / expected < 0.1,
                "got {got:.1}s, expected ≈{expected:.1}s"
            );
        }
    }

    #[test]
    fn gang_trace_shows_whole_machine_rotation() {
        let jobs = vec![
            JobSpec::new(SimTime::ZERO, bt_a()),
            JobSpec::new(SimTime::ZERO, bt_a()),
        ];
        let config = quiet().with_trace();
        let r = Engine::new(config).run(jobs, Box::new(GangScheduler::paper_comparable()));
        assert!(r.completed_all);
        let trace = r.trace.expect("traced");
        // Rotation at the 2 s quantum: bursts are short and plentiful, and
        // both jobs appear on cpu0 over time.
        let jobs_on_cpu0: std::collections::HashSet<u32> = trace
            .records
            .iter()
            .filter(|rec| rec.cpu.0 == 0)
            .map(|rec| rec.job.0)
            .collect();
        assert_eq!(jobs_on_cpu0.len(), 2, "both gangs rotate through cpu0");
        let avg_burst: f64 = trace.records.iter().map(|r| r.duration_secs()).sum::<f64>()
            / trace.records.len() as f64;
        assert!(
            avg_burst < 10.0,
            "gang bursts are quantum-scale, got {avg_burst:.1}s"
        );
    }
}

#[cfg(test)]
mod backfill_tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a};
    use pdpa_policies::RigidFirstFit;
    use pdpa_qs::JobSpec;
    use pdpa_sim::CostModel;

    fn quiet() -> EngineConfig {
        // A 40-CPU machine: one 30-processor bt leaves 10 free, so the
        // second bt cannot start and blocks the queue.
        let mut c = EngineConfig::default().with_cpus(40);
        c.noise_sigma = 0.0;
        c.cost = CostModel::free();
        c
    }

    /// One 30-processor bt runs; a second bt (30) waits; a 2-processor apsi
    /// sits behind it. Strict FCFS strands 10 processors until the first bt
    /// finishes; backfilling slips the apsi through immediately.
    fn blocked_queue() -> Vec<JobSpec> {
        vec![
            JobSpec::new(SimTime::ZERO, bt_a()),
            JobSpec::new(SimTime::from_secs(1.0), bt_a()),
            JobSpec::new(SimTime::from_secs(2.0), apsi()),
        ]
    }

    #[test]
    fn strict_fcfs_blocks_the_small_job() {
        let r = Engine::new(quiet()).run(blocked_queue(), Box::new(RigidFirstFit::new(8)));
        assert!(r.completed_all);
        let apsi_outcome = r
            .summary
            .outcomes()
            .iter()
            .find(|o| o.class == AppClass::Apsi)
            .unwrap();
        // apsi waits behind the second bt, which waits for the first.
        assert!(
            apsi_outcome.wait_time().as_secs() > 50.0,
            "apsi waited only {:.1}s",
            apsi_outcome.wait_time().as_secs()
        );
    }

    #[test]
    fn backfilling_slips_the_small_job_through() {
        let config = quiet().with_backfill();
        let r = Engine::new(config).run(blocked_queue(), Box::new(RigidFirstFit::new(8)));
        assert!(r.completed_all);
        let apsi_outcome = r
            .summary
            .outcomes()
            .iter()
            .find(|o| o.class == AppClass::Apsi)
            .unwrap();
        assert!(
            apsi_outcome.wait_time().as_secs() < 5.0,
            "apsi backfilled, waited {:.1}s",
            apsi_outcome.wait_time().as_secs()
        );
        // The bypassed bt is not starved: it still completes.
        let bts = r
            .summary
            .outcomes()
            .iter()
            .filter(|o| o.class == AppClass::BtA)
            .count();
        assert_eq!(bts, 2);
    }

    #[test]
    fn backfill_is_a_noop_for_malleable_policies() {
        // Dynamic space sharing starts the head on whatever is free, so the
        // scan never reaches past it; results match strict FCFS.
        use pdpa_core::Pdpa;
        let a = Engine::new(quiet()).run(blocked_queue(), Box::new(Pdpa::paper_default()));
        let b = Engine::new(quiet().with_backfill())
            .run(blocked_queue(), Box::new(Pdpa::paper_default()));
        assert_eq!(a.end_secs, b.end_secs);
    }
}

#[cfg(test)]
mod tie_tests {
    //! The arrival tie rule: an arrival beats every pending event at its
    //! instant, on the batch loop (`pop_next`) and on the session's
    //! barrier stepping (`run_due` → `pop_due`) alike.
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a};
    use pdpa_faults::FaultPlan;
    use pdpa_obs::{RecordingObserver, TimedEvent};
    use pdpa_policies::{Equipartition, GangScheduler};
    use pdpa_qs::JobSpec;
    use pdpa_sim::CostModel;

    /// The tie instant: a multiple of the gang quantum, so a tick lands
    /// on it exactly.
    const TIE: f64 = 10.0;

    fn quiet() -> EngineConfig {
        EngineConfig {
            noise_sigma: 0.0,
            cost: CostModel::free(),
            ..EngineConfig::default()
        }
    }

    /// A bt.A running from 0 and an apsi arriving at the tie instant.
    fn jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::new(SimTime::ZERO, bt_a()),
            JobSpec::new(SimTime::from_secs(TIE), apsi()),
        ]
    }

    /// The decision streams of the batch loop and of `run_due` slices, one
    /// of which ends exactly on the tie instant.
    fn both_paths(
        config: &EngineConfig,
        policy: impl Fn() -> Box<dyn SchedulingPolicy>,
    ) -> [Vec<TimedEvent>; 2] {
        let mut batch = RecordingObserver::new();
        Engine::new(config.clone()).run_observed(jobs(), policy(), &mut batch);
        let mut stepped = RecordingObserver::new();
        let mut policy = policy();
        let mut sim = Sim::new(
            config,
            jobs(),
            policy.sharing(),
            ObsSink::Borrowed(&mut stepped),
            Lane::disabled(),
        );
        sim.schedule_plan();
        for barrier in [TIE / 2.0, TIE, config.max_sim_secs] {
            sim.run_due(SimTime::from_secs(barrier), policy.as_mut());
        }
        drop(sim);
        [batch.take_events(), stepped.take_events()]
    }

    /// Asserts that the first event at the tie instant is the arrival and
    /// that `rival` is published there too, after it.
    fn assert_arrival_first(
        config: EngineConfig,
        policy: fn() -> Box<dyn SchedulingPolicy>,
        rival: fn(&ObsEvent) -> bool,
    ) {
        let [batch, stepped] = both_paths(&config, policy);
        let lines = |evs: &[TimedEvent]| evs.iter().map(TimedEvent::to_line).collect::<Vec<_>>();
        assert_eq!(
            lines(&batch),
            lines(&stepped),
            "both paths publish one stream"
        );
        let at_tie: Vec<&ObsEvent> = batch
            .iter()
            .filter(|e| e.at == SimTime::from_secs(TIE))
            .map(|e| &e.event)
            .collect();
        assert!(
            matches!(
                at_tie.first(),
                Some(ObsEvent::JobSubmitted { job: JobId(1) })
            ),
            "the arrival must come first at its instant: {at_tie:?}"
        );
        assert!(
            at_tie.iter().any(|e| rival(e)),
            "the rival fired at the tie"
        );
    }

    #[test]
    fn arrival_beats_a_cpu_failure_at_its_instant() {
        assert_arrival_first(
            quiet().with_faults(FaultPlan::none().fail_cpu_at(CpuId(0), TIE)),
            || Box::new(Equipartition::default()),
            |e| matches!(e, ObsEvent::CpuFailed { .. }),
        );
    }

    #[test]
    fn arrival_beats_a_job_kill_at_its_instant() {
        assert_arrival_first(
            quiet().with_faults(FaultPlan::none().fail_job_at(JobId(0), TIE)),
            || Box::new(Equipartition::default()),
            |e| matches!(e, ObsEvent::JobFailed { job: JobId(0), .. }),
        );
    }

    #[test]
    fn arrival_beats_a_time_shared_tick_at_its_instant() {
        // Gang rotation publishes every CPU's occupant on each tick.
        assert_arrival_first(
            quiet().with_trace(),
            || Box::new(GangScheduler::paper_comparable()),
            |e| matches!(e, ObsEvent::CpuAssigned { .. }),
        );
    }

    #[test]
    fn a_session_submission_arrives_before_a_later_op_at_its_instant() {
        // The arrival waits in the cursor until the next op's barrier;
        // a cancel at the same instant must find it already arrived.
        let mut rec = RecordingObserver::new();
        let mut policy: Box<dyn SchedulingPolicy> = Box::new(Equipartition::new(1));
        let mut sim = Sim::new(
            &quiet(),
            Vec::new(),
            policy.sharing(),
            ObsSink::Borrowed(&mut rec),
            Lane::disabled(),
        );
        let tie = SimTime::from_secs(TIE);
        let running = sim.submit_at(SimTime::ZERO, bt_a(), policy.as_mut());
        let queued = sim.submit_at(tie, apsi(), policy.as_mut());
        assert_eq!(
            sim.queue_stats().len,
            2,
            "one prediction, one arrival pending"
        );
        assert_eq!(
            sim.cancel_at(tie, queued, policy.as_mut()),
            CancelOutcome::Queued
        );
        sim.cancel_at(tie, running, policy.as_mut());
        drop(sim);
        let at_tie: Vec<ObsEvent> = rec
            .take_events()
            .into_iter()
            .filter(|e| e.at == tie)
            .map(|e| e.event)
            .collect();
        assert!(
            matches!(at_tie.first(), Some(ObsEvent::JobSubmitted { job }) if *job == queued),
            "{at_tie:?}"
        );
    }
}
