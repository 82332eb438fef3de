//! The PDPA scheduling policy.
//!
//! [`Pdpa`] ties the state machine ([`crate::state`]) and the
//! multiprogramming-level policy ([`crate::mlevel`]) into an implementation
//! of [`SchedulingPolicy`] that the execution engine can drive.

use pdpa_perf::{PerfHistory, PerfSample};
use pdpa_policies::{Decisions, PolicyCtx, SchedulingPolicy};
use pdpa_sim::{JobId, JobMap, SimDuration};

use crate::mlevel::{ml_allows_start, MlSnapshot};
use crate::params::PdpaParams;
use crate::state::{evaluate, AppState, EvalCtx};

/// Exponentially smoothed measurements at one allocation.
///
/// PDPA's robustness to measurement noise — the property the paper contrasts
/// with Equal_efficiency's thrashing — comes from not acting on single noisy
/// samples: successive reports at the same allocation are blended before the
/// state machine sees them, and the initial (`NO_REF`) classification waits
/// for a second confirming sample.
#[derive(Clone, Copy, Debug)]
struct Smoothed {
    procs: usize,
    efficiency: f64,
    speedup: f64,
    iter_secs: f64,
    samples: u32,
}

impl Smoothed {
    const ALPHA: f64 = 0.5;

    fn from_sample(sample: &PerfSample) -> Self {
        Smoothed {
            procs: sample.procs,
            efficiency: sample.efficiency,
            speedup: sample.speedup,
            iter_secs: sample.iter_time.as_secs(),
            samples: 1,
        }
    }

    fn blend(&mut self, sample: &PerfSample) {
        let a = Self::ALPHA;
        self.efficiency = (1.0 - a) * self.efficiency + a * sample.efficiency;
        self.speedup = (1.0 - a) * self.speedup + a * sample.speedup;
        self.iter_secs = (1.0 - a) * self.iter_secs + a * sample.iter_time.as_secs();
        self.samples += 1;
    }

    fn as_sample(&self, iteration: u32) -> PerfSample {
        PerfSample {
            procs: self.procs,
            speedup: self.speedup,
            efficiency: self.efficiency,
            iter_time: SimDuration::from_secs(self.iter_secs),
            iteration,
        }
    }
}

/// Per-job bookkeeping.
#[derive(Clone, Debug)]
struct JobRecord {
    state: AppState,
    history: PerfHistory,
    stable_exits: u32,
    /// Efficiency remembered when the job settled into `STABLE` (cleared on
    /// leaving the state or on a runtime parameter change).
    stable_ref_eff: Option<f64>,
    /// Smoothed measurements at the job's current allocation.
    smooth: Option<Smoothed>,
}

impl JobRecord {
    fn new() -> Self {
        JobRecord {
            state: AppState::NoRef,
            history: PerfHistory::default(),
            stable_exits: 0,
            stable_ref_eff: None,
            smooth: None,
        }
    }
}

/// The Performance-Driven Processor Allocation policy.
#[derive(Clone, Debug)]
pub struct Pdpa {
    params: PdpaParams,
    jobs: JobMap<JobRecord>,
}

impl Pdpa {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`PdpaParams::validate`].
    pub fn new(params: PdpaParams) -> Self {
        params.validate().expect("invalid PDPA parameters");
        Pdpa {
            params,
            jobs: JobMap::default(),
        }
    }

    /// The paper's evaluation configuration (`target_eff` 0.7, `high_eff`
    /// 0.9, step 4, default multiprogramming level 4).
    pub fn paper_default() -> Self {
        Self::new(PdpaParams::default())
    }

    /// The parameters in use.
    pub fn params(&self) -> &PdpaParams {
        &self.params
    }

    /// Replaces the parameters at runtime (§4.2: "these parameters can be
    /// modified at runtime"). Applications re-evaluate against the new
    /// values at their next performance report; `STABLE` jobs may move to
    /// `INC` or `DEC` accordingly.
    ///
    /// # Panics
    ///
    /// Panics if the new parameters fail validation.
    pub fn set_params(&mut self, params: PdpaParams) {
        params.validate().expect("invalid PDPA parameters");
        self.params = params;
        // A parameter change re-opens every frozen STABLE state and resets
        // the settled-performance references.
        for rec in self.jobs.values_mut() {
            rec.stable_exits = 0;
            rec.stable_ref_eff = None;
        }
    }

    /// The PDPA state of a running job, if known.
    pub fn job_state(&self, job: JobId) -> Option<AppState> {
        self.jobs.get(&job).map(|r| r.state)
    }

    /// True when every running job's allocation is settled (the admission
    /// rule's scan): each job is `STABLE`, `DEC`, or already holds its full
    /// request.
    fn all_settled(&self, ctx: &PolicyCtx) -> bool {
        ctx.jobs.iter().all(|view| {
            view.allocated >= view.request
                || self
                    .jobs
                    .get(&view.id)
                    .is_some_and(|r| r.state.is_settled())
        })
    }
}

impl SchedulingPolicy for Pdpa {
    fn name(&self) -> &'static str {
        "PDPA"
    }

    fn on_job_arrival(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        self.jobs.insert(job, JobRecord::new());
        let Some(view) = ctx.job(job) else {
            return Decisions::none();
        };
        // §4.2.1: "PDPA initially allocates the minimum between the number
        // of processors requested and the number of free processors". With
        // zero free processors the job gets nothing and waits: allocating a
        // floor of one would overcommit a full machine.
        let initial = view.request.min(ctx.free_cpus);
        if initial == 0 {
            return Decisions::none();
        }
        Decisions::one(job, initial)
    }

    fn on_job_completion(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        self.jobs.remove(&job);
        // Freed processors flow to INC jobs at their next report and to the
        // queuing system through `may_start_new_job`; PDPA does not force a
        // global reallocation here (allocations change only on state
        // transitions, §4.2). The exception is stalled jobs — admitted when
        // the machine was full (or cut to zero by a CPU failure), they
        // produce no reports and would otherwise wait forever.
        let mut free = ctx.free_cpus;
        let mut d = Decisions::none();
        for view in ctx.jobs.iter().filter(|v| v.allocated == 0) {
            if free == 0 {
                break;
            }
            let grant = view.request.min(free);
            d.set(view.id, grant);
            free -= grant;
        }
        d
    }

    fn on_performance_report(
        &mut self,
        ctx: &PolicyCtx,
        job: JobId,
        sample: PerfSample,
    ) -> Decisions {
        let Some(view) = ctx.job(job) else {
            return Decisions::none();
        };
        let Some(rec) = self.jobs.get_mut(&job) else {
            return Decisions::none();
        };
        // A report for an allocation the job no longer holds is stale — the
        // iteration started before the last reallocation. Deciding on it
        // would double-apply a transition.
        if sample.procs != view.allocated {
            return Decisions::none();
        }
        // Blend into the smoothed measurement at this allocation (reset on
        // allocation change).
        let smoothed = match rec.smooth.as_mut() {
            Some(s) if s.procs == sample.procs => {
                s.blend(&sample);
                *s
            }
            _ => {
                let s = Smoothed::from_sample(&sample);
                rec.smooth = Some(s);
                s
            }
        };
        // The one-shot NO_REF classification decides the job's whole search
        // direction; wait for a confirming second sample before taking it.
        if rec.state == AppState::NoRef && smoothed.samples < 2 {
            return Decisions::none();
        }
        let sample = smoothed.as_sample(sample.iteration);
        rec.history
            .record(sample.procs, sample.speedup, sample.iter_time);
        let eval_ctx = EvalCtx {
            request: view.request,
            free_cpus: ctx.free_cpus,
            stable_exits: rec.stable_exits,
            stable_ref_eff: rec.stable_ref_eff,
        };
        // §4.1: the target efficiency may be set dynamically from the load
        // of the system (queue pressure); the evaluation uses the effective
        // value.
        let mut params = self.params;
        params.target_eff = self.params.target_mode.effective_target(
            self.params.target_eff,
            ctx.queued_jobs,
            ctx.running(),
        );
        let t = evaluate(rec.state, &sample, &rec.history, &params, eval_ctx);
        if rec.state == AppState::Stable && t.next != AppState::Stable {
            rec.stable_exits += 1;
        }
        // Maintain the settled-performance reference: the first report that
        // confirms STABLE at the held allocation pins it; leaving STABLE
        // clears it.
        if t.next == AppState::Stable {
            if t.target_alloc == view.allocated && rec.stable_ref_eff.is_none() {
                rec.stable_ref_eff = Some(sample.efficiency);
            }
        } else {
            rec.stable_ref_eff = None;
        }
        let prev_state = rec.state;
        rec.state = t.next;
        let mut d = Decisions::none();
        if t.next != prev_state {
            d.note_transition(job, prev_state.name(), t.next.name());
        }
        if t.target_alloc != view.allocated {
            d.set(job, t.target_alloc);
        }
        d
    }

    fn may_start_new_job(&self, ctx: &PolicyCtx) -> bool {
        let snap = MlSnapshot {
            running: ctx.running(),
            free_cpus: ctx.free_cpus,
        };
        ml_allows_start(&self.params, &snap, || self.all_settled(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_policies::JobView;
    use pdpa_sim::{SimDuration, SimTime};

    fn view(id: u32, request: usize, allocated: usize) -> JobView {
        JobView {
            id: JobId(id),
            request,
            allocated,
            last_sample: None,
            remaining_secs: 100.0,
        }
    }

    fn ctx<'a>(jobs: &'a [JobView], free: usize) -> PolicyCtx<'a> {
        PolicyCtx {
            now: SimTime::ZERO,
            total_cpus: 60,
            free_cpus: free,
            jobs,
            queued_jobs: 0,
            next_request: None,
        }
    }

    fn sample(procs: usize, speedup: f64) -> PerfSample {
        PerfSample {
            procs,
            speedup,
            efficiency: speedup / procs as f64,
            iter_time: SimDuration::from_secs(10.0 / speedup),
            iteration: 0,
        }
    }

    #[test]
    fn arrival_allocates_min_of_request_and_free() {
        let mut p = Pdpa::paper_default();
        let jobs = vec![view(0, 30, 0)];
        let d = p.on_job_arrival(&ctx(&jobs, 60), JobId(0));
        assert_eq!(d.allocations, vec![(JobId(0), 30)]);
        assert_eq!(p.job_state(JobId(0)), Some(AppState::NoRef));

        let jobs2 = vec![view(0, 30, 30), view(1, 30, 0)];
        let d = p.on_job_arrival(&ctx(&jobs2, 12), JobId(1));
        assert_eq!(d.allocations, vec![(JobId(1), 12)]);
    }

    #[test]
    fn arrival_with_no_free_cpus_defers_instead_of_overcommitting() {
        // Regression: the old `.max(1)` floor handed out a processor that
        // did not exist whenever the machine was full.
        let mut p = Pdpa::paper_default();
        let jobs = vec![view(0, 30, 30), view(1, 30, 30), view(2, 8, 0)];
        let d = p.on_job_arrival(&ctx(&jobs, 0), JobId(2));
        assert!(d.allocations.is_empty(), "nothing free, nothing granted");
        // The job is tracked and picked up as soon as a completion frees
        // processors.
        assert_eq!(p.job_state(JobId(2)), Some(AppState::NoRef));
        let after = vec![view(1, 30, 30), view(2, 8, 0)];
        let d = p.on_job_completion(&ctx(&after, 30), JobId(0));
        assert_eq!(d.allocations, vec![(JobId(2), 8)]);
    }

    #[test]
    fn search_walks_down_to_the_efficiency_knee() {
        // A hydro2d-like run: the job starts at 30 with terrible efficiency
        // and must walk down by `step` per report until efficiency ≥ 0.7.
        let mut p = Pdpa::paper_default();
        let mut alloc = 30usize;
        let jobs = vec![view(0, 30, alloc)];
        p.on_job_arrival(&ctx(&jobs, 30), JobId(0));
        // The NO_REF classification waits for a confirming second sample.
        let first = p.on_performance_report(&ctx(&jobs, 30), JobId(0), sample(30, 10.0));
        assert!(first.is_empty(), "one sample is not enough to classify");
        // True speedups from the hydro2d shape.
        let truth = |procs: usize| -> f64 {
            match procs {
                30 => 10.0,
                26 => 9.9,
                22 => 9.7,
                18 => 9.3,
                14 => 8.5,
                10 => 7.1,
                _ => panic!("unexpected allocation {procs}"),
            }
        };
        for _ in 0..10 {
            let jobs = vec![view(0, 30, alloc)];
            let d = p.on_performance_report(&ctx(&jobs, 30), JobId(0), sample(alloc, truth(alloc)));
            match d.allocations.first() {
                Some(&(_, next)) => alloc = next,
                None => break,
            }
        }
        assert_eq!(alloc, 10, "settles at the 0.7-efficiency knee");
        assert_eq!(p.job_state(JobId(0)), Some(AppState::Stable));
    }

    #[test]
    fn search_grows_while_scalable() {
        // A bt-like run starting small: grows by step while conditions hold.
        let mut p = Pdpa::paper_default();
        let jobs = vec![view(0, 30, 8)];
        p.on_job_arrival(&ctx(&jobs, 8), JobId(0));
        assert!(p
            .on_performance_report(&ctx(&jobs, 20), JobId(0), sample(8, 7.8))
            .is_empty());
        let d = p.on_performance_report(&ctx(&jobs, 20), JobId(0), sample(8, 7.8));
        assert_eq!(d.allocations, vec![(JobId(0), 12)]);
        assert_eq!(p.job_state(JobId(0)), Some(AppState::Inc));
        let jobs = vec![view(0, 30, 12)];
        let d = p.on_performance_report(&ctx(&jobs, 16), JobId(0), sample(12, 11.6));
        assert_eq!(d.allocations, vec![(JobId(0), 16)]);
    }

    #[test]
    fn stale_reports_are_ignored() {
        let mut p = Pdpa::paper_default();
        let jobs = vec![view(0, 30, 12)];
        p.on_job_arrival(&ctx(&jobs, 20), JobId(0));
        // The job holds 12 processors but the report is for an 8-processor
        // iteration that finished before the reallocation.
        let d = p.on_performance_report(&ctx(&jobs, 20), JobId(0), sample(8, 7.8));
        assert!(d.is_empty());
        assert_eq!(p.job_state(JobId(0)), Some(AppState::NoRef));
    }

    #[test]
    fn completion_forgets_the_job() {
        let mut p = Pdpa::paper_default();
        let jobs = vec![view(0, 30, 30)];
        p.on_job_arrival(&ctx(&jobs, 30), JobId(0));
        p.on_job_completion(&ctx(&[], 60), JobId(0));
        assert_eq!(p.job_state(JobId(0)), None);
    }

    #[test]
    fn admission_below_base_ml_is_free() {
        let p = Pdpa::paper_default();
        let jobs = vec![view(0, 30, 30)];
        assert!(p.may_start_new_job(&ctx(&jobs, 30)));
    }

    #[test]
    fn admission_above_base_ml_waits_for_stability() {
        let mut p = Pdpa::paper_default();
        let jobs: Vec<JobView> = (0..4).map(|i| view(i, 30, 10)).collect();
        for i in 0..4 {
            p.on_job_arrival(&ctx(&jobs, 20), JobId(i));
        }
        // All four NO_REF: not settled, no admission.
        assert!(!p.may_start_new_job(&ctx(&jobs, 20)));
        // Drive every job to STABLE (efficiency 0.8 at its allocation);
        // the classification takes two confirming samples.
        for i in 0..4 {
            p.on_performance_report(&ctx(&jobs, 20), JobId(i), sample(10, 8.0));
            p.on_performance_report(&ctx(&jobs, 20), JobId(i), sample(10, 8.0));
        }
        assert!(p.may_start_new_job(&ctx(&jobs, 20)));
    }

    #[test]
    fn admission_with_bad_performers() {
        let mut p = Pdpa::paper_default();
        let jobs: Vec<JobView> = (0..4).map(|i| view(i, 30, 10)).collect();
        for i in 0..4 {
            p.on_job_arrival(&ctx(&jobs, 20), JobId(i));
        }
        // One job reports terrible efficiency → DEC; the others stay NO_REF,
        // so the system is not settled and nobody is admitted yet.
        p.on_performance_report(&ctx(&jobs, 20), JobId(0), sample(10, 2.0));
        p.on_performance_report(&ctx(&jobs, 20), JobId(0), sample(10, 2.0));
        assert_eq!(p.job_state(JobId(0)), Some(AppState::Dec));
        assert!(
            !p.may_start_new_job(&ctx(&jobs, 20)),
            "NO_REF searchers still block admission"
        );
        // Once the rest settle (acceptable efficiency), the DEC job does not
        // block: it only releases processors.
        for i in 1..4 {
            p.on_performance_report(&ctx(&jobs, 20), JobId(i), sample(10, 8.0));
            p.on_performance_report(&ctx(&jobs, 20), JobId(i), sample(10, 8.0));
        }
        assert!(p.may_start_new_job(&ctx(&jobs, 20)));
    }

    #[test]
    fn admission_requires_free_processors() {
        let p = Pdpa::paper_default();
        let jobs = vec![view(0, 30, 30), view(1, 30, 30)];
        assert!(!p.may_start_new_job(&ctx(&jobs, 0)));
    }

    #[test]
    fn at_request_jobs_count_as_settled() {
        let mut p = Pdpa::paper_default();
        let jobs: Vec<JobView> = (0..4).map(|i| view(i, 10, 10)).collect();
        for i in 0..4 {
            p.on_job_arrival(&ctx(&jobs, 20), JobId(i));
        }
        // Still NO_REF, but every job already holds its full request: the
        // allocation cannot move upward, so the system is settled.
        assert!(p.may_start_new_job(&ctx(&jobs, 20)));
    }

    #[test]
    fn runtime_parameter_change_reopens_frozen_jobs() {
        let mut p = Pdpa::paper_default();
        let jobs = vec![view(0, 30, 10)];
        p.on_job_arrival(&ctx(&jobs, 20), JobId(0));
        p.on_performance_report(&ctx(&jobs, 20), JobId(0), sample(10, 8.0));
        p.on_performance_report(&ctx(&jobs, 20), JobId(0), sample(10, 8.0));
        assert_eq!(p.job_state(JobId(0)), Some(AppState::Stable));
        // Raise the bar: 0.8 efficiency is no longer acceptable.
        let stricter = PdpaParams::default()
            .with_target_eff(0.85)
            .with_high_eff(0.95);
        p.set_params(stricter);
        let d = p.on_performance_report(&ctx(&jobs, 20), JobId(0), sample(10, 8.0));
        assert_eq!(p.job_state(JobId(0)), Some(AppState::Dec));
        assert_eq!(d.allocations, vec![(JobId(0), 6)]);
    }

    #[test]
    fn paper_name() {
        assert_eq!(Pdpa::paper_default().name(), "PDPA");
    }

    #[test]
    fn adaptive_target_shrinks_only_under_queue_pressure() {
        use crate::params::TargetMode;
        let params = PdpaParams::default().with_target_mode(TargetMode::LoadAdaptive {
            min: 0.5,
            max: 0.85,
        });
        // An application at measured efficiency 0.6: acceptable when the
        // queue is empty (target 0.5), bad once jobs queue up (target 0.85).
        let mut relaxed = Pdpa::new(params);
        let jobs = vec![view(0, 30, 10)];
        relaxed.on_job_arrival(&ctx(&jobs, 20), JobId(0));
        relaxed.on_performance_report(&ctx(&jobs, 20), JobId(0), sample(10, 6.0));
        relaxed.on_performance_report(&ctx(&jobs, 20), JobId(0), sample(10, 6.0));
        assert_eq!(relaxed.job_state(JobId(0)), Some(AppState::Stable));

        let mut pressured = Pdpa::new(params);
        let congested = PolicyCtx {
            queued_jobs: 8,
            ..ctx(&jobs, 20)
        };
        pressured.on_job_arrival(&congested, JobId(0));
        pressured.on_performance_report(&congested, JobId(0), sample(10, 6.0));
        let d = pressured.on_performance_report(&congested, JobId(0), sample(10, 6.0));
        assert_eq!(pressured.job_state(JobId(0)), Some(AppState::Dec));
        assert_eq!(d.allocations, vec![(JobId(0), 6)]);
    }
}
