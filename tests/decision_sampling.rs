//! The `decision_ns` histogram samples policy activations: one in
//! `SAMPLE_EVERY`, starting with the first, so a run of `n` activations
//! adds exactly `ceil(n / SAMPLE_EVERY)` samples.
//!
//! This file holds a single test so that it is its own test binary: no
//! other engine run in the process touches the global registry while the
//! count is read.

use std::cell::Cell;
use std::rc::Rc;

use pdpa_suite::obs::metrics::SAMPLE_EVERY;
use pdpa_suite::obs::Registry;
use pdpa_suite::policies::{Decisions, PolicyCtx};
use pdpa_suite::prelude::*;

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

#[test]
fn decision_ns_samples_one_activation_in_sample_every() {
    let hist = Registry::global().histogram("decision_ns");
    let before = hist.count();

    let activations = Rc::new(Cell::new(0));
    let policy = CountingPolicy {
        inner: Pdpa::paper_default(),
        activations: Rc::clone(&activations),
    };
    let result = Engine::new(EngineConfig::default().with_seed(3))
        .run(Workload::W2.build(1.0, 3), Box::new(policy));
    assert!(result.completed_all);

    let calls = activations.get();
    assert!(
        calls > 2 * SAMPLE_EVERY,
        "the run must span several sampling periods, got {calls} activations"
    );
    assert_eq!(hist.count() - before, calls.div_ceil(SAMPLE_EVERY));
}
