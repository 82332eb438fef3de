//! Outside-in instrumentation: spans recorded around calls into the
//! program, and timing decorators for the two seams the engine takes as
//! trait objects (`SchedulingPolicy` and `Observer`).
//!
//! Spans stay in memory and are written out once, when the run ends.
//! Per-call work (millions of policy and observer calls in a replay) is
//! aggregated into tallies instead of spans, so the trace stays small.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use pdpa_obs::{ObsEvent, Observer};
use pdpa_perf::PerfSample;
use pdpa_policies::{Decisions, PolicyCtx, SchedulingPolicy, SharingModel};
use pdpa_sim::{JobId, SimTime};

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`qs.parse`, `engine.run`, `daemon.handle`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (pass, op) the span belongs to.
    pub request: u64,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated `name start_ns end_ns parent request`, one span a
    /// line (`-` for no parent).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\trequest\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// The cheapest mean cost of one `Instant::now()` over a few batches,
/// nanoseconds: about what each decorated call adds outside the interval
/// it charges.
pub fn clock_cost_ns() -> f64 {
    const READS: u32 = 200_000;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Call counts and busy time of a [`TimedPolicy`].
#[derive(Debug, Default)]
pub struct PolicyTally {
    /// `on_job_arrival` calls.
    pub arrival: Cell<u64>,
    /// `on_job_completion` calls.
    pub completion: Cell<u64>,
    /// `on_performance_report` calls.
    pub report: Cell<u64>,
    /// `on_capacity_change` calls.
    pub capacity: Cell<u64>,
    /// `may_start_new_job` calls.
    pub admit: Cell<u64>,
    /// Decision calls that changed something.
    pub nonempty: Cell<u64>,
    /// Nanoseconds spent inside the policy.
    pub busy_ns: Cell<u64>,
}

impl PolicyTally {
    /// Calls that return decisions (every hook but admission).
    pub fn decision_calls(&self) -> u64 {
        self.arrival.get() + self.completion.get() + self.report.get() + self.capacity.get()
    }

    /// Every call into the policy.
    pub fn calls(&self) -> u64 {
        self.decision_calls() + self.admit.get()
    }

    fn charge(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.busy_ns.set(self.busy_ns.get() + ns);
    }

    fn decided(&self, counter: &Cell<u64>, start: Instant, decisions: &Decisions) {
        self.charge(start);
        counter.set(counter.get() + 1);
        if !decisions.is_empty() {
            self.nonempty.set(self.nonempty.get() + 1);
        }
    }
}

/// A `SchedulingPolicy` decorator that times and counts every call and
/// forwards each trait method unchanged, so a traced run makes exactly
/// the decisions of an untraced one.
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    tally: Rc<PolicyTally>,
}

impl TimedPolicy {
    /// Wraps `inner`; the tally stays readable after the engine consumes
    /// the box.
    pub fn wrap(inner: Box<dyn SchedulingPolicy>) -> (Box<dyn SchedulingPolicy>, Rc<PolicyTally>) {
        let tally = Rc::new(PolicyTally::default());
        let policy = TimedPolicy {
            inner,
            tally: Rc::clone(&tally),
        };
        (Box::new(policy), tally)
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sharing(&self) -> SharingModel {
        self.inner.sharing()
    }

    fn on_job_arrival(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        let start = Instant::now();
        let d = self.inner.on_job_arrival(ctx, job);
        self.tally.decided(&self.tally.arrival, start, &d);
        d
    }

    fn on_job_completion(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        let start = Instant::now();
        let d = self.inner.on_job_completion(ctx, job);
        self.tally.decided(&self.tally.completion, start, &d);
        d
    }

    fn on_performance_report(
        &mut self,
        ctx: &PolicyCtx,
        job: JobId,
        sample: PerfSample,
    ) -> Decisions {
        let start = Instant::now();
        let d = self.inner.on_performance_report(ctx, job, sample);
        self.tally.decided(&self.tally.report, start, &d);
        d
    }

    fn on_capacity_change(&mut self, ctx: &PolicyCtx, changed: &[JobId]) -> Decisions {
        let start = Instant::now();
        let d = self.inner.on_capacity_change(ctx, changed);
        self.tally.decided(&self.tally.capacity, start, &d);
        d
    }

    fn may_start_new_job(&self, ctx: &PolicyCtx) -> bool {
        let start = Instant::now();
        let yes = self.inner.may_start_new_job(ctx);
        self.tally.charge(start);
        self.tally.admit.set(self.tally.admit.get() + 1);
        yes
    }
}

/// An `Observer` decorator that times and counts every published event.
pub struct TimedObserver<'a> {
    inner: &'a mut dyn Observer,
    /// Events forwarded.
    pub events: u64,
    /// Nanoseconds spent inside the wrapped observer.
    pub busy_ns: u64,
}

impl<'a> TimedObserver<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Observer) -> Self {
        TimedObserver {
            inner,
            events: 0,
            busy_ns: 0,
        }
    }
}

impl Observer for TimedObserver<'_> {
    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }

    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        let start = Instant::now();
        self.inner.on_event(at, event);
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_core::Pdpa;
    use pdpa_engine::{Engine, EngineConfig, RunResult};
    use pdpa_faults::FaultPlan;
    use pdpa_obs::{NullObserver, RecordingObserver, TimedEvent};
    use pdpa_policies::{Equipartition, GangScheduler, HeSrpt, IrixLike};
    use pdpa_qs::Workload;
    use pdpa_sim::CpuId;

    fn policies() -> Vec<fn() -> Box<dyn SchedulingPolicy>> {
        vec![
            || Box::new(Pdpa::paper_default()),
            || Box::new(Equipartition::default()),
            || Box::new(IrixLike::paper_default()),
            || Box::new(GangScheduler::paper_comparable()),
            || Box::new(HeSrpt::default()),
        ]
    }

    fn run(policy: Box<dyn SchedulingPolicy>, timed: bool) -> (RunResult, Vec<TimedEvent>) {
        // A CPU failure and recovery exercise `on_capacity_change`; trace
        // collection drives the time-shared and gang quantum clocks.
        let faults = FaultPlan::none().fail_cpu_between(CpuId(3), 40.0, 120.0);
        let config = EngineConfig::default()
            .with_seed(11)
            .with_trace()
            .with_faults(faults);
        let jobs = Workload::W4.build(0.8, 5);
        let mut recorder = RecordingObserver::new();
        let result = if timed {
            let (policy, _) = TimedPolicy::wrap(policy);
            let mut observer = TimedObserver::new(&mut recorder);
            Engine::new(config).run_observed(jobs, policy, &mut observer)
        } else {
            Engine::new(config).run_observed(jobs, policy, &mut recorder)
        };
        (result, recorder.take_events())
    }

    #[test]
    fn decorators_keep_runs_bit_identical() {
        for make in policies() {
            let (plain, plain_events) = run(make(), false);
            let (timed, timed_events) = run(make(), true);
            assert!(plain.completed_all, "{} did not drain", plain.policy);
            assert_eq!(timed.policy, plain.policy, "name is forwarded");
            assert_eq!(
                timed_events, plain_events,
                "{}: streams differ",
                plain.policy
            );
            assert_eq!(timed.end_secs, plain.end_secs);
            assert_eq!(timed.total_migrations(), plain.total_migrations());
            assert_eq!(timed.quantum_rotations, plain.quantum_rotations);
            assert_eq!(timed.events_popped, plain.events_popped);
        }
    }

    #[test]
    fn policy_decorator_forwards_and_counts_every_hook() {
        for make in policies() {
            let inner = make();
            let (sharing, name) = (inner.sharing(), inner.name());
            let (wrapped, _) = TimedPolicy::wrap(inner);
            assert_eq!(wrapped.sharing(), sharing, "{name}: sharing is forwarded");
            assert_eq!(wrapped.name(), name);
        }
        let (policy, tally) = TimedPolicy::wrap(Box::new(Pdpa::paper_default()));
        let faults = FaultPlan::none().fail_cpu_at(CpuId(0), 30.0);
        let config = EngineConfig::default().with_faults(faults);
        let result = Engine::new(config).run(Workload::W1.build(0.6, 2), policy);
        assert!(result.completed_all);
        for (hook, n) in [
            ("arrival", tally.arrival.get()),
            ("completion", tally.completion.get()),
            ("report", tally.report.get()),
            ("capacity", tally.capacity.get()),
            ("admit", tally.admit.get()),
        ] {
            assert!(n > 0, "{hook} hook never counted");
        }
        assert!(tally.nonempty.get() <= tally.decision_calls());
        assert!(tally.busy_ns.get() > 0);
    }

    #[test]
    fn observer_decorator_forwards_enablement_and_counts() {
        let mut null = NullObserver;
        assert!(!TimedObserver::new(&mut null).is_enabled());
        let mut recorder = RecordingObserver::new();
        let mut timed = TimedObserver::new(&mut recorder);
        assert!(timed.is_enabled());
        timed.on_event(SimTime::ZERO, &ObsEvent::JobSubmitted { job: JobId(4) });
        assert_eq!(timed.events, 1);
        assert_eq!(recorder.events().len(), 1);
    }

    #[test]
    fn tracer_writes_one_line_per_span() {
        let mut tracer = Tracer::default();
        let t0 = Instant::now();
        let root = tracer.record("pass", t0, Instant::now(), None, 7);
        tracer.record("qs.parse", t0, Instant::now(), Some(root), 7);
        let tsv = tracer.to_tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.lines().nth(1).unwrap().starts_with("pass\t"));
        assert!(tsv.lines().nth(2).unwrap().ends_with("\t0\t7"));
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }
}
