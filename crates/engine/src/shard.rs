//! Epoch-parallel sharded execution of space-shared runs.
//!
//! The classic engine ([`crate::engine`]) interleaves every event through
//! one queue and activates the policy the instant each iteration ends.
//! That is faithful to the paper's NANOS resource manager but strictly
//! sequential: every event depends on the one before it.
//!
//! The sharded engine trades *immediacy* for *parallelism* while keeping
//! the result **independent of the shard count**. Jobs are partitioned
//! over `N` shards by id; each shard owns its jobs' SoA [`JobStore`] and
//! iteration-end queue. Simulation advances in rounds to a barrier time
//!
//! ```text
//! B = min( next global event,  max(clock + epoch, next iteration end) )
//! ```
//!
//! Within a round every shard advances its own jobs to `B` in parallel —
//! valid under space sharing because a job's progress rate depends only
//! on its own allocation, which policies can change only at barriers.
//! Measurements and completions are buffered as *items*, merged at the
//! barrier in deterministic `(time, job)` order, and replayed in two
//! passes: pass A publishes measurements/completions at their true
//! times; pass B (at `B`) feeds samples to the policy, applies decisions,
//! and admits jobs. Global events — arrivals, faults, retries — are
//! handled exactly at their timestamps because `B` never jumps past one.
//!
//! Two semantic deltas from the classic engine, both shard-count
//! invariant:
//!
//! - policy activations are batched at barriers instead of firing
//!   mid-epoch (decisions land at most one epoch late);
//! - timing noise is drawn from a per-job stream derived from
//!   `(seed, job, attempt)` ([`job_noise_rng`]) instead of one shared
//!   stream, so a job's noise cannot depend on which shard — or which
//!   other jobs — it ran beside.
//!
//! The machine model stays with the coordinator: placement must not
//! depend on the shard count, so processors are never range-partitioned
//! across shards.

use std::collections::HashMap;
use std::sync::Arc;

use pdpa_apps::{AppClass, NoiseModel};
use pdpa_metrics::{JobOutcome, Summary};
use pdpa_obs::metrics::{Histogram, Registry, RunCounters, Span};
use pdpa_obs::{DecisionTrigger, NullObserver, ObsEvent, Observer};
use pdpa_perf::{PerfSample, SelfAnalyzer};
use pdpa_policies::{Decisions, JobView, PolicyCtx, SchedulingPolicy, SharingModel};
use pdpa_prof::{
    HealthSnapshot, Heartbeat, HeartbeatSink, Lane, Profiler, ProgressSink, SpanKind,
    StderrHeartbeat, Watchdog,
};
use pdpa_qs::JobSpec;
use pdpa_qs::QueueSystem;
use pdpa_sim::{CpuId, EventQueue, JobId, Machine, SimDuration, SimTime};
use pdpa_trace::TraceObserver;

use crate::config::EngineConfig;
use crate::instrument::Instrumentation;
use crate::result::RunResult;
use crate::store::{job_noise_rng, JobStore};
use crate::Engine;

/// Default barrier epoch in simulated seconds.
pub const DEFAULT_EPOCH_SECS: f64 = 10.0;

/// Coordinator-owned (global) events. These are exact: the barrier never
/// jumps past one.
#[derive(Clone, Copy, Debug)]
enum GEv {
    Arrival(JobId),
    CpuFail(CpuId),
    CpuRecover(CpuId),
    JobKill(JobId),
    JobRetry(JobId),
}

/// What happened to one job inside a round, buffered for the barrier.
#[derive(Clone, Copy, Debug)]
struct Item {
    at: SimTime,
    job: JobId,
    kind: ItemKind,
}

#[derive(Clone, Copy, Debug)]
enum ItemKind {
    /// A clean iteration was measured (sample present once the
    /// SelfAnalyzer has an estimate).
    Iter {
        procs: usize,
        measured_secs: f64,
        sample: Option<PerfSample>,
    },
    /// The job crossed its final iteration boundary.
    Complete,
}

/// One shard: a disjoint subset of the running jobs and their pending
/// iteration-end predictions.
struct Shard {
    store: JobStore,
    /// Iteration-end predictions, keyed by job id (lazy invalidation).
    queue: EventQueue<JobId>,
    /// Items produced by the current round, in emission order.
    items: Vec<Item>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            store: JobStore::new(),
            queue: EventQueue::new(),
            items: Vec::new(),
        }
    }

    /// Recomputes a job's rate. Space sharing only: the rate is a pure
    /// function of the job's own state, which is what makes the shard
    /// advance embarrassingly parallel.
    fn recompute_rate(&mut self, job: JobId) {
        let eff = self.store.effective_procs(job) as f64;
        self.store.set_rate_from(job, eff, 1.0);
    }

    /// Invalidates the job's pending prediction and schedules a fresh one
    /// from `now` at the current rate.
    fn reschedule(&mut self, job: JobId, now: SimTime) {
        let key = u64::from(job.0);
        self.queue.invalidate_key(key);
        if self.store.is_complete(job) {
            self.queue.push_keyed(now, key, job);
        } else if let Some(dt) = self.store.time_to_iteration_end(job) {
            // Same sub-ULP guard as the classic engine's `reschedule`: a
            // remainder below the clock's float resolution would pin the
            // prediction to `now` and livelock the advance loop.
            let mut at = now + dt;
            if at == now {
                at = now.next_up();
            }
            self.queue.push_keyed(at, key, job);
        }
    }

    /// Advances all owned jobs to the barrier `b`, buffering measurement
    /// and completion items. Runs without any shared state; `lane` is this
    /// shard's private span buffer (disabled lanes record nothing).
    fn advance_round(
        &mut self,
        b: SimTime,
        config: &EngineConfig,
        noise: &NoiseModel,
        lane: &mut Lane,
    ) {
        let prof = lane.begin(SpanKind::ShardAdvance);
        let popped_before = self.queue.total_popped();
        // `peek_time` may surface a stale (invalidated) head; pop
        // discards stales, so re-check the popped entry's time and
        // push it back if the live head lies beyond the barrier.
        while let Some(t) = self.queue.peek_time() {
            if t > b {
                break;
            }
            let Some((at, job)) = self.queue.pop() else {
                break;
            };
            if at > b {
                self.queue.push_keyed(at, u64::from(job.0), job);
                break;
            }
            self.iter_end(at, job, config, noise);
        }
        lane.add_events(self.queue.total_popped() - popped_before);
        lane.end(prof);
    }

    /// The shard-local half of the classic engine's `on_iter_end`:
    /// advance, measure (per-job noise stream), feed the SelfAnalyzer,
    /// buffer the outcome. Policy reactions wait for the barrier.
    fn iter_end(&mut self, at: SimTime, job: JobId, config: &EngineConfig, noise: &NoiseModel) {
        let crossed = self.store.advance_to(job, at);
        let mut sample = None;
        let mut meta: Option<(usize, f64)> = None;
        if crossed > 0 {
            if self.store.iter_polluted(job) {
                // Mixed-allocation iteration: restart the window, report
                // nothing.
                self.store.set_iter_polluted(job, false);
                self.store.set_iter_started_at(job, at);
            } else {
                let truth = at.since(self.store.iter_started_at(job));
                let per_iter = truth / crossed as f64;
                self.store.set_iter_started_at(job, at);
                let procs = self.store.effective_procs(job);
                let measured = noise.perturb(per_iter, self.store.rng_mut(job));
                sample = self.store.record_iteration(job, procs, measured);
                meta = Some((procs, measured.as_secs()));
            }
            // Working-set phase change: reset after recording (§3.1).
            if config.reset_analyzer_on_phase_change {
                if let Some(pc) = self.store.phase_change(job) {
                    let done = self.store.iterations_done(job);
                    if done >= pc.at_iteration && done - crossed < pc.at_iteration {
                        self.store.reset_analyzer(job);
                        sample = None;
                    }
                }
            }
        }
        if let Some((procs, measured_secs)) = meta {
            self.items.push(Item {
                at,
                job,
                kind: ItemKind::Iter {
                    procs,
                    measured_secs,
                    sample,
                },
            });
        }
        if self.store.is_complete(job) {
            self.items.push(Item {
                at,
                job,
                kind: ItemKind::Complete,
            });
            self.queue.invalidate_key(u64::from(job.0));
        } else {
            if crossed > 0 {
                // The analyzer phase may have flipped (baseline →
                // measuring), shifting the effective processors.
                self.recompute_rate(job);
            }
            self.reschedule(job, at);
        }
    }
}

impl Engine {
    /// Runs `jobs` under `policy` on `shards` epoch-synchronized shards.
    /// The result is identical for every `shards >= 1` (deterministic
    /// cross-shard merge); larger shard counts only add parallelism.
    ///
    /// # Panics
    ///
    /// Panics unless the policy declares
    /// [`SharingModel::SpaceShared`] — shard-parallel advance relies on
    /// per-job progress rates, which time-shared models do not have.
    pub fn run_sharded(
        &self,
        jobs: Vec<JobSpec>,
        policy: Box<dyn SchedulingPolicy>,
        shards: usize,
    ) -> RunResult {
        self.run_sharded_observed(jobs, policy, shards, DEFAULT_EPOCH_SECS, &mut NullObserver)
    }

    /// [`run_sharded`](Engine::run_sharded) with an explicit barrier
    /// epoch (simulated seconds) and an observer for the event stream.
    pub fn run_sharded_observed(
        &self,
        jobs: Vec<JobSpec>,
        policy: Box<dyn SchedulingPolicy>,
        shards: usize,
        epoch_secs: f64,
        observer: &mut dyn Observer,
    ) -> RunResult {
        self.run_sharded_instrumented(
            jobs,
            policy,
            shards,
            epoch_secs,
            observer,
            Instrumentation::none(),
        )
    }

    /// [`run_sharded_observed`](Engine::run_sharded_observed) with
    /// optional runtime instrumentation — span profiling with one lane
    /// per shard (`RunResult::profile`), a zero-progress watchdog counted
    /// in barrier rounds (`RunResult::watchdog`), and heartbeat lines on
    /// stderr. With [`Instrumentation::none`] every touch point is a dead
    /// branch — the decision-event stream is bit-identical either way.
    pub fn run_sharded_instrumented(
        &self,
        jobs: Vec<JobSpec>,
        mut policy: Box<dyn SchedulingPolicy>,
        shards: usize,
        epoch_secs: f64,
        observer: &mut dyn Observer,
        instr: Instrumentation,
    ) -> RunResult {
        assert!(
            matches!(policy.sharing(), SharingModel::SpaceShared),
            "sharded execution supports space-sharing policies only"
        );
        assert!(
            epoch_secs > 0.0 && epoch_secs.is_finite(),
            "epoch must be positive"
        );
        let mut sim = ShardedSim::new(
            self.config(),
            jobs,
            shards.max(1),
            epoch_secs,
            observer,
            instr,
        );
        sim.schedule_globals();
        sim.drive(policy.as_mut());
        sim.into_result(policy.name())
    }
}

/// All mutable state of one sharded run.
struct ShardedSim<'a> {
    config: &'a EngineConfig,
    qs: QueueSystem,
    machine: Machine,
    globals: EventQueue<GEv>,
    shards: Vec<Shard>,
    noise: NoiseModel,
    clock: SimTime,
    epoch: SimDuration,
    /// Running jobs in global admission order (policy context ordering —
    /// each shard only knows its own arrival order).
    admit_order: Vec<JobId>,
    views_scratch: Vec<JobView>,
    outcomes: Vec<JobOutcome>,
    completed_allocs: Vec<(AppClass, f64)>,
    completed_alloc_by_job: HashMap<JobId, f64>,
    cpu_seconds_used: f64,
    trace_obs: TraceObserver,
    trace_on: bool,
    obs: &'a mut dyn Observer,
    obs_on: bool,
    changes_scratch: Vec<(JobId, usize)>,
    decisions_applied: u64,
    memo_hits: u64,
    memo_misses: u64,
    decision_hist: Arc<Histogram>,
    ml_series: Vec<(f64, usize)>,
    max_ml: usize,
    retries: HashMap<JobId, u32>,
    cpu_failures: u64,
    job_retries: u64,
    jobs_failed: u64,
    /// Span buffers: lane 0 is the coordinator, lanes `1..=N` the shards.
    /// Disabled lanes (the default) record nothing.
    prof: Profiler,
    watchdog: Option<Watchdog>,
    heartbeat: Option<Heartbeat>,
    heartbeat_sink: Arc<dyn HeartbeatSink>,
    tap: Option<Arc<dyn ProgressSink>>,
    /// Set when the watchdog aborted the barrier loop.
    watchdog_diag: Option<String>,
}

impl<'a> ShardedSim<'a> {
    fn new(
        config: &'a EngineConfig,
        jobs: Vec<JobSpec>,
        shards: usize,
        epoch_secs: f64,
        obs: &'a mut dyn Observer,
        instr: Instrumentation,
    ) -> Self {
        let trace_obs = if config.collect_trace {
            TraceObserver::new(config.cpus)
        } else {
            TraceObserver::disabled(config.cpus)
        };
        let obs_on = obs.is_enabled();
        ShardedSim {
            config,
            qs: QueueSystem::new(jobs),
            machine: Machine::new(config.cpus),
            globals: EventQueue::new(),
            shards: (0..shards).map(|_| Shard::new()).collect(),
            noise: if config.noise_sigma == 0.0 {
                NoiseModel::none()
            } else {
                NoiseModel::new(config.noise_sigma)
            },
            clock: SimTime::ZERO,
            epoch: SimDuration::from_secs(epoch_secs),
            admit_order: Vec::new(),
            views_scratch: Vec::new(),
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
            ml_series: vec![(0.0, 0)],
            max_ml: 0,
            retries: HashMap::new(),
            cpu_failures: 0,
            job_retries: 0,
            jobs_failed: 0,
            prof: if instr.profile {
                Profiler::enabled(shards + 1)
            } else {
                Profiler::disabled(shards + 1)
            },
            watchdog: instr.watchdog.map(Watchdog::new),
            heartbeat: instr.heartbeat.map(Heartbeat::new),
            heartbeat_sink: instr
                .heartbeat_sink
                .unwrap_or_else(|| Arc::new(StderrHeartbeat)),
            tap: instr.tap,
            watchdog_diag: None,
        }
    }

    fn shard_index(&self, job: JobId) -> usize {
        job.0 as usize % self.shards.len()
    }

    fn shard_of(&self, job: JobId) -> &Shard {
        &self.shards[self.shard_index(job)]
    }

    fn shard_of_mut(&mut self, job: JobId) -> &mut Shard {
        let i = self.shard_index(job);
        &mut self.shards[i]
    }

    fn contains(&self, job: JobId) -> bool {
        self.shard_of(job).store.contains(job)
    }

    fn schedule_globals(&mut self) {
        let subs: Vec<(SimTime, GEv)> = self
            .qs
            .submissions()
            .map(|(id, spec)| (spec.submit, GEv::Arrival(id)))
            .collect();
        self.globals.push_batch(subs);
        for f in &self.config.faults.cpu_faults {
            self.globals.push(f.at, GEv::CpuFail(f.cpu));
            if let Some(r) = f.recover_at {
                self.globals.push(r, GEv::CpuRecover(f.cpu));
            }
        }
        for f in &self.config.faults.job_faults {
            self.globals.push(f.at, GEv::JobKill(f.job));
        }
    }

    // --- Event publication (same contract as the classic engine) ---

    #[inline]
    fn publish(&mut self, ev: ObsEvent) {
        if self.trace_on {
            self.trace_obs.on_event(self.clock, &ev);
        }
        if self.obs_on {
            self.obs.on_event(self.clock, &ev);
        }
    }

    #[inline]
    fn publish_cpu(&mut self, cpu: CpuId, job: Option<JobId>) {
        if self.trace_on || self.obs_on {
            self.publish(ObsEvent::CpuAssigned { cpu, job });
        }
    }

    fn refresh_views(&mut self) {
        self.views_scratch.clear();
        for i in 0..self.admit_order.len() {
            let job = self.admit_order[i];
            let view = self.shard_of(job).store.view_of(job);
            self.views_scratch.push(view);
        }
    }

    fn record_ml(&mut self) {
        let ml: usize = self.shards.iter().map(|s| s.store.len()).sum();
        self.max_ml = self.max_ml.max(ml);
        self.ml_series.push((self.clock.as_secs(), ml));
        if self.obs_on {
            let total_alloc = self.shards.iter().map(|s| s.store.total_allocated()).sum();
            self.publish(ObsEvent::MplChanged {
                running: ml,
                total_alloc,
            });
        }
    }

    fn ctx<'v>(&self, views: &'v [JobView]) -> PolicyCtx<'v> {
        PolicyCtx {
            now: self.clock,
            total_cpus: self.machine.alive_cpus(),
            free_cpus: self.machine.free_cpus(),
            jobs: views,
            queued_jobs: self.qs.waiting_count(),
            next_request: self.qs.head().map(|id| self.qs.spec(id).app.request),
        }
    }

    // --- The barrier loop ---

    fn drive(&mut self, policy: &mut dyn SchedulingPolicy) {
        let replay = self.prof.lane(0).begin(SpanKind::Replay);
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            let barrier_prof = self.prof.lane(0).begin(SpanKind::BarrierCompute);
            let next_global = self.globals.peek_time();
            // Minimum over all shard queue heads. A stale head only
            // shrinks the round — every entry it hides is popped (and
            // discarded) inside `advance_round`, so progress holds.
            let next_iter = self.shards.iter().filter_map(|s| s.queue.peek_time()).min();
            let inner = next_iter.map(|t| t.max(self.clock + self.epoch));
            let b = match (next_global, inner) {
                (Some(g), Some(i)) => g.min(i),
                (Some(g), None) => g,
                (None, Some(i)) => i,
                // No globals, no predictions: nothing can ever happen
                // again (any running jobs are permanently stalled).
                (None, None) => {
                    self.prof.lane(0).end(barrier_prof);
                    break;
                }
            };
            self.prof.lane(0).end(barrier_prof);
            if b.as_secs() > self.config.max_sim_secs {
                break;
            }
            // Steps are barrier rounds here: a barrier pinned to one
            // instant for thousands of rounds means the advance loop is
            // livelocked (e.g. a failed `next_up` guard).
            if let Some(wd) = self.watchdog.as_mut() {
                if wd.observe(b.as_secs()) {
                    let qlen: usize = self.shards.iter().map(|s| s.queue.len()).sum();
                    let running: usize = self.shards.iter().map(|s| s.store.len()).sum();
                    let diag = wd.diagnostic(&format!(
                        "sharded engine: shards={}, running={}, waiting={}, qlen={}",
                        self.shards.len(),
                        running,
                        self.qs.waiting_count(),
                        qlen,
                    ));
                    if let Some(tap) = self.tap.as_deref() {
                        tap.watchdog_fired(&diag);
                    }
                    self.watchdog_diag = Some(diag);
                    break;
                }
            }
            // Build one snapshot feeding both the heartbeat line and the
            // live tap. The tap refresh is amortized over barrier rounds
            // so `--serve` stays inside the ≤2% overhead bound.
            if self.heartbeat.is_some() || self.tap.is_some() {
                let hb_due = self.heartbeat.as_ref().is_some_and(Heartbeat::due);
                let tap_due = self.tap.is_some() && rounds & 0xFF == 0;
                if hb_due || tap_due {
                    let snap = self.health_snapshot();
                    if let Some(tap) = self.tap.as_deref() {
                        tap.progress(&snap);
                    }
                    if hb_due {
                        if let Some(line) = self.heartbeat.as_mut().and_then(|hb| hb.tick(&snap)) {
                            self.heartbeat_sink.emit(&line, &snap);
                        }
                    }
                }
            }
            let round_prof = self.prof.lane(0).begin(SpanKind::Round);
            self.round(b, policy);
            self.prof.lane(0).end(round_prof);
        }
        self.prof.lane(0).end(replay);
        if let Some(tap) = self.tap.clone() {
            // Final refresh so the mirror's counters reflect the whole run.
            tap.progress(&self.health_snapshot());
        }
    }

    /// The current health picture: clock, event totals, queue depth, and
    /// per-shard popped counts (for imbalance diagnostics).
    fn health_snapshot(&self) -> HealthSnapshot {
        let shard_events: Vec<u64> = self.shards.iter().map(|s| s.queue.total_popped()).collect();
        let events_popped = self.globals.total_popped() + shard_events.iter().sum::<u64>();
        HealthSnapshot {
            sim_clock_secs: self.clock.as_secs(),
            events_popped,
            queue_len: self.globals.len()
                + self.shards.iter().map(|s| s.queue.len()).sum::<usize>(),
            running: self.shards.iter().map(|s| s.store.len()).sum(),
            waiting: self.qs.waiting_count(),
            shard_events,
        }
    }

    /// One epoch round: parallel shard advance to `b`, then the
    /// deterministic barrier merge.
    fn round(&mut self, b: SimTime, policy: &mut dyn SchedulingPolicy) {
        // Parallel phase: each shard owns disjoint state; the coordinator
        // (machine, queue system, policy) is untouched. Lane `i + 1` of
        // the profiler travels into shard `i`'s worker thread.
        {
            let config = self.config;
            let noise = &self.noise;
            let lanes = &mut self.prof.lanes_mut()[1..];
            if self.shards.len() == 1 {
                self.shards[0].advance_round(b, config, noise, &mut lanes[0]);
            } else {
                std::thread::scope(|scope| {
                    for (shard, lane) in self.shards.iter_mut().zip(lanes.iter_mut()) {
                        scope.spawn(move || shard.advance_round(b, config, noise, lane));
                    }
                });
            }
        }

        // Merge: stable sort by (time, job). Items of one job come from
        // exactly one shard in emission order, so the merged order is a
        // pure function of the item set — independent of the partition.
        let merge_prof = self.prof.lane(0).begin(SpanKind::Merge);
        let mut items: Vec<Item> = Vec::new();
        for shard in &mut self.shards {
            items.append(&mut shard.items);
        }
        items.sort_by_key(|it| (it.at, it.job.0));
        self.prof.lane(0).end(merge_prof);
        let publish_prof = self.prof.lane(0).begin(SpanKind::Publish);

        // Pass A: publish measurements and record completions at their
        // true times (the observer stream stays monotonic: item times are
        // <= b, and pass B stamps everything at b).
        for it in &items {
            self.clock = it.at;
            match it.kind {
                ItemKind::Iter {
                    procs,
                    measured_secs,
                    sample,
                } => {
                    if self.obs_on {
                        self.publish(ObsEvent::IterationMeasured {
                            job: it.job,
                            procs,
                            iter_secs: measured_secs,
                            speedup: sample.as_ref().map_or(0.0, |s| s.speedup),
                            efficiency: sample.as_ref().map_or(0.0, |s| s.efficiency),
                            estimated: sample.is_some(),
                        });
                    }
                }
                ItemKind::Complete => self.finish_job(it.job),
            }
        }

        // Globals land exactly at b (the barrier never jumps past one).
        self.clock = b;
        while self.globals.peek_time() == Some(b) {
            let (_, ev) = self.globals.pop().expect("peeked");
            match ev {
                GEv::Arrival(job) => {
                    self.qs.arrive(job);
                    if self.obs_on {
                        self.publish(ObsEvent::JobSubmitted { job });
                    }
                    self.try_admit(policy);
                }
                GEv::CpuFail(cpu) => self.on_cpu_fail(cpu, policy),
                GEv::CpuRecover(cpu) => self.on_cpu_recover(cpu, policy),
                GEv::JobKill(job) => self.on_job_kill(job, policy),
                GEv::JobRetry(job) => {
                    self.qs.requeue(job);
                    self.try_admit(policy);
                }
            }
        }

        // Pass B: policy reactions, in the same merged order, all at b.
        for it in &items {
            match it.kind {
                ItemKind::Iter {
                    sample: Some(s), ..
                } => {
                    // Skip jobs that completed in pass A or were killed
                    // at the barrier — the view no longer contains them.
                    if !self.contains(it.job) {
                        continue;
                    }
                    self.refresh_views();
                    let views = std::mem::take(&mut self.views_scratch);
                    let prof = self.prof.lane(0).begin(SpanKind::PolicyDecision);
                    let decisions = {
                        let _span = Span::start(Arc::clone(&self.decision_hist));
                        policy.on_performance_report(&self.ctx(&views), it.job, s)
                    };
                    self.prof.lane(0).end(prof);
                    self.views_scratch = views;
                    self.apply_decisions(decisions, DecisionTrigger::Report, policy);
                    self.try_admit(policy);
                }
                ItemKind::Iter { .. } => {}
                ItemKind::Complete => {
                    self.refresh_views();
                    let views = std::mem::take(&mut self.views_scratch);
                    let prof = self.prof.lane(0).begin(SpanKind::PolicyDecision);
                    let decisions = {
                        let _span = Span::start(Arc::clone(&self.decision_hist));
                        policy.on_job_completion(&self.ctx(&views), it.job)
                    };
                    self.prof.lane(0).end(prof);
                    self.views_scratch = views;
                    self.apply_decisions(decisions, DecisionTrigger::Completion, policy);
                    self.try_admit(policy);
                }
            }
        }
        self.prof.lane(0).end(publish_prof);
    }

    /// Records a completion at the current clock (pass A: the item's true
    /// time). The policy hears about it in pass B.
    fn finish_job(&mut self, job: JobId) {
        let shard = self.shard_of(job);
        let class = shard.store.class(job);
        let avg_alloc = shard.store.average_allocation(job, self.clock);
        let started_at = shard.store.started_at(job);
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
        let released = self.machine.release(job);
        for cpu in released {
            self.publish_cpu(cpu, None);
        }
        let memo = self.shard_of_mut(job).store.remove(job);
        self.memo_hits += memo.hits;
        self.memo_misses += memo.misses;
        self.admit_order.retain(|&id| id != job);
        self.qs.complete(job);
        self.record_ml();
    }

    // --- Admission and decisions (barrier-time) ---

    fn pick_admissible(&self, policy: &dyn SchedulingPolicy, views: &[JobView]) -> Option<JobId> {
        let candidates: Vec<JobId> = if self.config.backfill {
            self.qs.waiting().collect()
        } else {
            self.qs.head().into_iter().collect()
        };
        for job in candidates {
            let mut ctx = self.ctx(views);
            ctx.next_request = Some(self.qs.spec(job).app.request);
            if policy.may_start_new_job(&ctx) {
                return Some(job);
            }
        }
        None
    }

    fn try_admit(&mut self, policy: &mut dyn SchedulingPolicy) {
        loop {
            self.refresh_views();
            let views = std::mem::take(&mut self.views_scratch);
            let picked = self.pick_admissible(policy, &views);
            self.views_scratch = views;
            let Some(job) = picked else {
                return;
            };
            assert!(self.qs.start_specific(job), "picked job is waiting");
            if self.obs_on {
                self.publish(ObsEvent::JobDequeued { job });
            }
            let spec = self.qs.spec(job).app.clone();
            let request = spec.request;
            let analyzer = SelfAnalyzer::new(self.config.analyzer);
            let attempt = self.retries.get(&job).copied().unwrap_or(0);
            let rng = job_noise_rng(self.config.seed, job, attempt);
            let now = self.clock;
            let seed_shard = self.shard_index(job);
            self.shards[seed_shard]
                .store
                .start(job, spec, analyzer, now, rng);
            self.admit_order.push(job);
            if self.obs_on {
                self.publish(ObsEvent::JobStarted { job, request });
            }
            self.record_ml();
            self.refresh_views();
            let views = std::mem::take(&mut self.views_scratch);
            let prof = self.prof.lane(0).begin(SpanKind::PolicyDecision);
            let decisions = {
                let _span = Span::start(Arc::clone(&self.decision_hist));
                policy.on_job_arrival(&self.ctx(&views), job)
            };
            self.prof.lane(0).end(prof);
            self.views_scratch = views;
            self.apply_decisions(decisions, DecisionTrigger::Arrival, policy);
        }
    }

    fn apply_decisions(
        &mut self,
        decisions: Decisions,
        trigger: DecisionTrigger,
        policy: &mut dyn SchedulingPolicy,
    ) {
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
                .filter(|(job, _)| self.contains(*job))
                .map(|(job, target)| {
                    let req = self.shard_of(job).store.request(job);
                    (job, target.min(req))
                }),
        );
        // Shrinks first, as in the classic engine.
        changes.sort_by_key(|&(job, target)| {
            let cur = self.shard_of(job).store.allocated(job);
            target > cur
        });
        for &(job, target) in &changes {
            let from_alloc = self.shard_of(job).store.allocated(job);
            if self.apply_one(job, target) {
                self.decisions_applied += 1;
                if self.obs_on {
                    let to_alloc = self.shard_of(job).store.allocated(job);
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
            for n in transitions {
                self.publish(ObsEvent::StateChanged {
                    job: n.job,
                    from: n.from,
                    to: n.to,
                });
            }
        }
        self.changes_scratch = changes;
        let _ = policy;
    }

    /// Applies one resize at the barrier. If advancing the job to the
    /// barrier crossed its final boundary, an immediate prediction is
    /// scheduled so the next round completes it at the barrier time.
    fn apply_one(&mut self, job: JobId, target: usize) -> bool {
        let current = self.machine.allocation(job);
        if current == target {
            return false;
        }
        let now = self.clock;
        self.shard_of_mut(job).store.advance_to(job, now);
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
        let gained = outcome.gained.len();
        let lost = outcome.lost.len();
        let shard = self.shard_of_mut(job);
        if current > 0 {
            shard.store.charge(job, penalty);
        }
        let eff_before = shard.store.effective_procs(job);
        shard.store.set_allocated(job, new_alloc);
        if current > 0 && shard.store.effective_procs(job) != eff_before {
            shard.store.set_iter_polluted(job, true);
        }
        shard.recompute_rate(job);
        shard.reschedule(job, now);
        if current > 0 && self.obs_on {
            self.publish(ObsEvent::ReallocCost {
                job,
                penalty_secs: penalty.as_secs(),
                gained,
                lost,
            });
        }
        true
    }

    // --- Fault handling (barrier-time globals) ---

    fn drive_capacity_change(&mut self, changed: &[JobId], policy: &mut dyn SchedulingPolicy) {
        if self.obs_on {
            self.publish(ObsEvent::DegradedCapacity {
                alive: self.machine.alive_cpus(),
                total: self.config.cpus,
            });
        }
        self.refresh_views();
        let views = std::mem::take(&mut self.views_scratch);
        let prof = self.prof.lane(0).begin(SpanKind::PolicyDecision);
        let decisions = {
            let _span = Span::start(Arc::clone(&self.decision_hist));
            policy.on_capacity_change(&self.ctx(&views), changed)
        };
        self.prof.lane(0).end(prof);
        self.views_scratch = views;
        self.apply_decisions(decisions, DecisionTrigger::Fault, policy);
    }

    fn on_cpu_fail(&mut self, cpu: CpuId, policy: &mut dyn SchedulingPolicy) {
        if !self.machine.is_alive(cpu) {
            return;
        }
        self.cpu_failures += 1;
        if self.obs_on {
            self.publish(ObsEvent::CpuFailed { cpu });
        }
        let mut changed = Vec::new();
        let victim = self.machine.fail_cpu(cpu);
        if let Some(job) = victim {
            self.publish_cpu(cpu, None);
            let now = self.clock;
            let new_alloc = self.machine.allocation(job);
            let shard = self.shard_of_mut(job);
            shard.store.advance_to(job, now);
            let eff_before = shard.store.effective_procs(job);
            shard.store.set_allocated(job, new_alloc);
            if shard.store.effective_procs(job) != eff_before {
                shard.store.set_iter_polluted(job, true);
            }
            shard.recompute_rate(job);
            shard.reschedule(job, now);
            changed.push(job);
        }
        self.drive_capacity_change(&changed, policy);
    }

    fn on_cpu_recover(&mut self, cpu: CpuId, policy: &mut dyn SchedulingPolicy) {
        if !self.machine.recover_cpu(cpu) {
            return;
        }
        if self.obs_on {
            self.publish(ObsEvent::CpuRecovered { cpu });
        }
        self.drive_capacity_change(&[], policy);
        self.try_admit(policy);
    }

    fn on_job_kill(&mut self, job: JobId, policy: &mut dyn SchedulingPolicy) {
        if !self.contains(job) {
            return;
        }
        let attempt = self.retries.get(&job).copied().unwrap_or(0) + 1;
        let now = self.clock;
        {
            let shard = self.shard_of_mut(job);
            shard.store.advance_to(job, now);
            shard.queue.invalidate_key(u64::from(job.0));
        }
        let released = self.machine.release(job);
        for cpu in released {
            self.publish_cpu(cpu, None);
        }
        let memo = self.shard_of_mut(job).store.remove(job);
        self.memo_hits += memo.hits;
        self.memo_misses += memo.misses;
        self.admit_order.retain(|&id| id != job);
        self.record_ml();

        let retry = self.config.faults.retry;
        if retry.is_some_and(|r| attempt <= r.max_retries) {
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
            self.globals.push(self.clock + backoff, GEv::JobRetry(job));
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

        self.refresh_views();
        let views = std::mem::take(&mut self.views_scratch);
        let prof = self.prof.lane(0).begin(SpanKind::PolicyDecision);
        let decisions = {
            let _span = Span::start(Arc::clone(&self.decision_hist));
            policy.on_job_completion(&self.ctx(&views), job)
        };
        self.prof.lane(0).end(prof);
        self.views_scratch = views;
        self.apply_decisions(decisions, DecisionTrigger::Fault, policy);
        self.try_admit(policy);
    }

    fn into_result(mut self, policy_name: &str) -> RunResult {
        let completed_all = self.qs.all_done();
        for shard in &self.shards {
            let leftover = shard.store.remaining_memo_stats();
            self.memo_hits += leftover.hits;
            self.memo_misses += leftover.misses;
        }
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
        let events_pushed = self.globals.total_pushed()
            + self
                .shards
                .iter()
                .map(|s| s.queue.total_pushed())
                .sum::<u64>();
        let events_popped = self.globals.total_popped()
            + self
                .shards
                .iter()
                .map(|s| s.queue.total_popped())
                .sum::<u64>();
        let events_stale_dropped = self.globals.stale_drops()
            + self
                .shards
                .iter()
                .map(|s| s.queue.stale_drops())
                .sum::<u64>();
        let shard_events_popped: Vec<u64> =
            self.shards.iter().map(|s| s.queue.total_popped()).collect();
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
            timeshare_migrations: 0,
            quantum_rotations: 0,
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
            watchdog: self.watchdog_diag.take(),
            shard_events_popped,
            profile: self.prof.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_core::Pdpa;
    use pdpa_policies::{EqualEfficiency, Equipartition};
    use pdpa_qs::Workload;

    const POLICY_NAMES: [&str; 3] = ["pdpa", "equip", "equal-eff"];

    fn fresh_policy(name: &str) -> Box<dyn SchedulingPolicy> {
        match name {
            "pdpa" => Box::new(Pdpa::paper_default()),
            "equip" => Box::new(Equipartition::new(4)),
            _ => Box::new(EqualEfficiency::paper_default()),
        }
    }

    fn digest(r: &RunResult) -> (usize, String, u64, u64) {
        let mut ends: Vec<String> = r
            .summary
            .outcomes()
            .iter()
            .map(|o| {
                format!(
                    "{}:{:.9}:{:.9}",
                    o.job.0,
                    o.start.as_secs(),
                    o.end.as_secs()
                )
            })
            .collect();
        ends.sort();
        (
            r.summary.outcomes().len(),
            ends.join(","),
            r.decisions_applied,
            r.jobs_failed,
        )
    }

    #[test]
    fn sharded_runs_complete() {
        let jobs = Workload::W3.build(0.5, 11);
        let engine = Engine::new(EngineConfig::default());
        let r = engine.run_sharded(jobs, Box::new(Pdpa::paper_default()), 2);
        assert!(r.completed_all);
        assert!(!r.summary.outcomes().is_empty());
    }

    #[test]
    fn shard_count_is_invisible() {
        // The tentpole invariant: identical results for every shard
        // count, across policies.
        let engine = Engine::new(EngineConfig::default());
        for name in POLICY_NAMES {
            let base = engine.run_sharded(Workload::W3.build(0.6, 7), fresh_policy(name), 1);
            for shards in [2usize, 3, 4, 8] {
                let r = engine.run_sharded(Workload::W3.build(0.6, 7), fresh_policy(name), shards);
                assert_eq!(
                    digest(&base),
                    digest(&r),
                    "{name} diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn shard_count_is_invisible_under_faults() {
        use pdpa_faults::{FaultPlan, RetryPolicy};
        let mut config = EngineConfig::default();
        let horizon = 9_000.0;
        let mut plan = FaultPlan::none()
            .mtbf(3_000.0, horizon, config.cpus, 99)
            .with_retry(RetryPolicy::default());
        for job in [2u32, 5, 9] {
            plan = plan.fail_job_at(JobId(job), 400.0 * f64::from(job));
        }
        config.faults = plan;
        let engine = Engine::new(config);
        for name in POLICY_NAMES {
            let base = engine.run_sharded(Workload::W3.build(0.6, 13), fresh_policy(name), 1);
            for shards in [2usize, 4] {
                let r = engine.run_sharded(Workload::W3.build(0.6, 13), fresh_policy(name), shards);
                assert_eq!(
                    digest(&base),
                    digest(&r),
                    "{name} diverged at {shards} shards under faults"
                );
            }
        }
    }

    #[test]
    fn epoch_length_changes_batching_not_sanity() {
        let engine = Engine::new(EngineConfig::default());
        for epoch in [1.0, 10.0, 120.0] {
            let r = engine.run_sharded_observed(
                Workload::W3.build(0.5, 3),
                Box::new(Equipartition::new(4)),
                4,
                epoch,
                &mut NullObserver,
            );
            assert!(r.completed_all, "epoch {epoch} failed to complete");
        }
    }

    #[test]
    #[should_panic(expected = "space-sharing")]
    fn time_shared_policies_are_rejected() {
        let engine = Engine::new(EngineConfig::default());
        let _ = engine.run_sharded(
            Workload::W3.build(0.3, 1),
            Box::new(pdpa_policies::IrixLike::paper_default()),
            2,
        );
    }
}
