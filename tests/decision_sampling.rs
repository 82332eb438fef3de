//! The `decision_ns` histogram samples policy activations: one in
//! `SAMPLE_EVERY`, starting with the first, so a run of `n` activations
//! adds exactly `ceil(n / SAMPLE_EVERY)` samples. A profiled run reads the
//! same timer, so its `policy_decision` profile holds exactly those
//! samples too, and the histogram gains no more than in a plain run.
//!
//! This file holds a single test so that it is its own test binary: no
//! other engine run in the process touches the global registry while the
//! count is read.

use std::cell::Cell;
use std::rc::Rc;

use pdpa_suite::engine::{Instrumentation, RunResult};
use pdpa_suite::obs::metrics::SAMPLE_EVERY;
use pdpa_suite::obs::{NullObserver, Registry};
use pdpa_suite::policies::{Decisions, PolicyCtx};
use pdpa_suite::prelude::*;
use pdpa_suite::prof::SpanKind;

/// Forwards every call to `inner` and counts the activations, the calls
/// the engine times into `decision_ns`.
struct CountingPolicy {
    inner: Pdpa,
    activations: Rc<Cell<u64>>,
}

impl CountingPolicy {
    fn activated(&self) {
        self.activations.set(self.activations.get() + 1);
    }
}

impl SchedulingPolicy for CountingPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sharing(&self) -> SharingModel {
        self.inner.sharing()
    }

    fn on_job_arrival(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        self.activated();
        self.inner.on_job_arrival(ctx, job)
    }

    fn on_job_completion(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        self.activated();
        self.inner.on_job_completion(ctx, job)
    }

    fn on_performance_report(
        &mut self,
        ctx: &PolicyCtx,
        job: JobId,
        sample: PerfSample,
    ) -> Decisions {
        self.activated();
        self.inner.on_performance_report(ctx, job, sample)
    }

    fn on_capacity_change(&mut self, ctx: &PolicyCtx, changed: &[JobId]) -> Decisions {
        self.activated();
        self.inner.on_capacity_change(ctx, changed)
    }

    fn may_start_new_job(&self, ctx: &PolicyCtx) -> bool {
        self.inner.may_start_new_job(ctx)
    }
}

/// Runs the workload, profiled or not, and returns the activations the
/// policy saw, the samples `decision_ns` gained, and the result.
fn run(instr: Instrumentation) -> (u64, u64, RunResult) {
    let hist = Registry::global().histogram("decision_ns");
    let before = hist.count();
    let activations = Rc::new(Cell::new(0));
    let policy = CountingPolicy {
        inner: Pdpa::paper_default(),
        activations: Rc::clone(&activations),
    };
    let result = Engine::new(EngineConfig::default().with_seed(3)).run_instrumented(
        Workload::W2.build(1.0, 3),
        Box::new(policy),
        &mut NullObserver,
        instr,
    );
    assert!(result.completed_all);
    (activations.get(), hist.count() - before, result)
}

#[test]
fn decision_ns_samples_one_activation_in_sample_every() {
    let (calls, gained, plain) = run(Instrumentation::none());
    assert!(
        calls > 2 * SAMPLE_EVERY,
        "the run must span several sampling periods, got {calls} activations"
    );
    assert_eq!(gained, calls.div_ceil(SAMPLE_EVERY));
    assert!(plain.profile.is_none());

    // The profiler reads the same timer: one sampling decision per call.
    let (profiled_calls, gained, profiled) = run(Instrumentation::none().with_profile());
    assert_eq!(profiled_calls, calls);
    assert_eq!(gained, calls.div_ceil(SAMPLE_EVERY));
    let profile = profiled.profile.expect("profiling was enabled");
    let decisions = profile.kind(SpanKind::PolicyDecision);
    assert_eq!(decisions.calls, calls);
    assert_eq!(decisions.samples, calls.div_ceil(SAMPLE_EVERY));
    assert_eq!(decisions.spans.len() as u64, decisions.samples);
}
