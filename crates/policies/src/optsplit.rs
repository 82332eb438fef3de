//! OptSplit — size-aware water-filling over concave speedup curves, in the
//! spirit of Berg et al.'s optimality results for allocating processors
//! across jobs with sublinear speedup (Berg, Vesilo & Harchol-Balter,
//! "heSRPT", arXiv:2011.09676, §2; see PAPERS.md).
//!
//! Where [`HeSrpt`](crate::HeSrpt) evaluates the closed form (exact under a
//! power-law speedup), OptSplit reaches the same favor-the-small-jobs
//! optimum *numerically*: processors are handed out one at a time to the
//! job with the highest marginal value, where value is the job's
//! extrapolated marginal speedup (the concave-curve water level, fitted
//! from measured samples exactly as Equal_efficiency fits them) divided by
//! its remaining size. Scaling by remaining work is what turns plain
//! efficiency water-filling into a slowdown optimizer: a marginal processor
//! buys more *completion* per second on a nearly-finished job than on one
//! that has hours left, so the greedy fill drains small jobs first while
//! still refusing processors that a saturated speedup curve would waste.

use pdpa_perf::{EfficiencyEstimator, PerfSample};
use pdpa_sim::{JobId, JobMap};

use crate::alloc_math::marginal_fill;
use crate::policy::{Decisions, PolicyCtx, SchedulingPolicy};

/// The OptSplit space-sharing policy.
///
/// # Examples
///
/// ```
/// use pdpa_policies::{OptSplit, SchedulingPolicy};
///
/// let policy = OptSplit::default();
/// assert_eq!(policy.name(), "OptSplit");
/// ```
#[derive(Clone, Debug)]
pub struct OptSplit {
    /// Fixed multiprogramming level (matched to the paper baselines' 4).
    multiprogramming_level: usize,
    /// Per-job Amdahl-fit extrapolators (the Equal_efficiency machinery).
    estimators: JobMap<EfficiencyEstimator>,
}

impl OptSplit {
    /// Creates the policy with the given fixed multiprogramming level.
    ///
    /// # Panics
    ///
    /// Panics if `multiprogramming_level` is zero.
    pub fn new(multiprogramming_level: usize) -> Self {
        assert!(multiprogramming_level > 0, "ML must be at least 1");
        OptSplit {
            multiprogramming_level,
            estimators: JobMap::default(),
        }
    }

    /// The configured multiprogramming level.
    pub fn multiprogramming_level(&self) -> usize {
        self.multiprogramming_level
    }

    /// Recomputes the whole allocation: greedy water-filling on marginal
    /// speedup per remaining-work second.
    fn reallocate(&self, ctx: &PolicyCtx) -> Decisions {
        let requests: Vec<usize> = ctx.jobs.iter().map(|j| j.request).collect();
        // The +1 keeps the weight finite for jobs on their last iteration
        // (remaining → 0) while preserving the small-jobs-first ordering.
        let urgency: Vec<f64> = ctx
            .jobs
            .iter()
            .map(|j| 1.0 / (j.remaining_secs + 1.0))
            .collect();
        let ids: Vec<JobId> = ctx.jobs.iter().map(|j| j.id).collect();
        let shares = marginal_fill(ctx.total_cpus, &requests, 1, |i, alloc| {
            let marginal = match self.estimators.get(&ids[i]) {
                Some(est) if est.has_estimate() => est
                    .marginal_gain(alloc)
                    .expect("estimator with estimate answers"),
                // No knowledge yet: assume linear scaling, as
                // Equal_efficiency does — the job must be given processors
                // to measure anything at all.
                _ => 1.0,
            };
            marginal * urgency[i]
        });
        ids.into_iter().zip(shares).collect()
    }
}

impl Default for OptSplit {
    /// Multiprogramming level 4 (the paper baselines' setting).
    fn default() -> Self {
        OptSplit::new(4)
    }
}

impl SchedulingPolicy for OptSplit {
    fn name(&self) -> &'static str {
        "OptSplit"
    }

    fn on_job_arrival(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        self.estimators.insert(job, EfficiencyEstimator::new());
        self.reallocate(ctx)
    }

    fn on_job_completion(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        self.estimators.remove(&job);
        self.reallocate(ctx)
    }

    fn on_performance_report(
        &mut self,
        ctx: &PolicyCtx,
        job: JobId,
        sample: PerfSample,
    ) -> Decisions {
        self.estimators
            .entry(job)
            .or_default()
            .observe(sample.procs, sample.speedup);
        self.reallocate(ctx)
    }

    fn on_capacity_change(&mut self, ctx: &PolicyCtx, _changed: &[JobId]) -> Decisions {
        self.reallocate(ctx)
    }

    fn may_start_new_job(&self, ctx: &PolicyCtx) -> bool {
        ctx.running() < self.multiprogramming_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::JobView;
    use pdpa_sim::{SimDuration, SimTime};

    fn view(id: u32, request: usize, remaining_secs: f64) -> JobView {
        JobView {
            id: JobId(id),
            request,
            allocated: 0,
            last_sample: None,
            remaining_secs,
        }
    }

    fn ctx<'a>(jobs: &'a [JobView], total: usize) -> PolicyCtx<'a> {
        PolicyCtx {
            now: SimTime::ZERO,
            total_cpus: total,
            free_cpus: total,
            jobs,
            queued_jobs: 0,
            next_request: None,
        }
    }

    fn alloc_of(d: &Decisions, id: u32) -> usize {
        d.allocations
            .iter()
            .find(|&&(j, _)| j == JobId(id))
            .map(|&(_, a)| a)
            .expect("job decided")
    }

    fn sample(procs: usize, speedup: f64) -> PerfSample {
        PerfSample {
            procs,
            speedup,
            efficiency: speedup / procs as f64,
            iter_time: SimDuration::from_secs(1.0),
            iteration: 3,
        }
    }

    #[test]
    fn small_remaining_work_wins_with_identical_curves() {
        let jobs = vec![view(0, 60, 1000.0), view(1, 60, 50.0)];
        let mut p = OptSplit::default();
        p.on_performance_report(&ctx(&jobs, 60), JobId(0), sample(10, 8.0));
        let d = p.on_performance_report(&ctx(&jobs, 60), JobId(1), sample(10, 8.0));
        assert!(
            alloc_of(&d, 1) > alloc_of(&d, 0),
            "nearly-done job outbids: {:?}",
            d.allocations
        );
        assert_eq!(alloc_of(&d, 0) + alloc_of(&d, 1), 60);
    }

    #[test]
    fn saturated_curves_leave_processors_idle() {
        // A job measured at no speedup gain: past its floor it never wins
        // another processor, even with supply left over.
        let jobs = vec![view(0, 60, 100.0)];
        let mut p = OptSplit::default();
        let d = p.on_performance_report(&ctx(&jobs, 60), JobId(0), sample(10, 1.0));
        assert!(
            alloc_of(&d, 0) <= 2,
            "serial job stays small: {:?}",
            d.allocations
        );
    }

    #[test]
    fn unmeasured_jobs_start_optimistically() {
        let jobs = vec![view(0, 20, 100.0), view(1, 20, 100.0)];
        let mut p = OptSplit::default();
        let d = p.on_job_arrival(&ctx(&jobs, 60), JobId(1));
        assert_eq!(alloc_of(&d, 0), 20);
        assert_eq!(alloc_of(&d, 1), 20);
    }

    #[test]
    fn completion_forgets_the_estimator() {
        let jobs = vec![view(0, 30, 100.0)];
        let mut p = OptSplit::default();
        p.on_performance_report(&ctx(&jobs, 60), JobId(0), sample(10, 2.0));
        assert!(p.estimators.contains_key(&JobId(0)));
        p.on_job_completion(&ctx(&[], 60), JobId(0));
        assert!(p.estimators.is_empty());
    }

    #[test]
    fn multiprogramming_level_is_fixed() {
        let p = OptSplit::default();
        let jobs: Vec<JobView> = (0..4).map(|i| view(i, 30, 100.0)).collect();
        assert!(!p.may_start_new_job(&ctx(&jobs, 60)));
        assert!(p.may_start_new_job(&ctx(&jobs[..2], 60)));
    }
}
