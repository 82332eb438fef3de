//! Equal_efficiency (Nguyen, Zahorjan & Vaswani, JSSPP 1996).
//!
//! "Equal_efficiency allocates more processors to those applications that
//! have the best efficiency using extrapolated values" (§3.3). Each job's
//! measured speedups feed an Amdahl-fit extrapolator; processors are then
//! handed out one at a time to the job with the best extrapolated marginal
//! gain, which equalizes marginal efficiency across jobs.
//!
//! The paper identifies two weaknesses we reproduce deliberately:
//!
//! 1. the fit chases the latest (noisy) measurement, so allocations swing —
//!    "small variations in the efficiency generate high variances in the
//!    processor allocation, resulting in a high number of processor
//!    reallocations" (§5.1);
//! 2. the extrapolation formula can give very different allocations to
//!    instances of the *same* application (the 2-to-28-processor swim spread
//!    the paper measured), because each instance's fit depends on its own
//!    noise realization.

use pdpa_perf::{EfficiencyEstimator, PerfSample};
use pdpa_sim::{JobId, JobMap};

use crate::alloc_math::marginal_fill;
use crate::policy::{Decisions, PolicyCtx, SchedulingPolicy};

/// The Equal_efficiency space-sharing policy.
#[derive(Clone, Debug, Default)]
pub struct EqualEfficiency {
    /// Fixed multiprogramming level (the paper uses 4).
    multiprogramming_level: usize,
    /// Per-job Amdahl-fit extrapolators.
    estimators: JobMap<EfficiencyEstimator>,
}

impl EqualEfficiency {
    /// Creates the policy with the given fixed multiprogramming level.
    ///
    /// # Panics
    ///
    /// Panics if `multiprogramming_level` is zero.
    pub fn new(multiprogramming_level: usize) -> Self {
        assert!(multiprogramming_level > 0, "ML must be at least 1");
        EqualEfficiency {
            multiprogramming_level,
            estimators: JobMap::default(),
        }
    }

    /// The paper's configuration: multiprogramming level 4.
    pub fn paper_default() -> Self {
        Self::new(4)
    }

    /// Recomputes the whole allocation by marginal-gain water-filling.
    ///
    /// Jobs without an estimate yet are treated as perfectly scalable
    /// (optimistic start — they must be given processors to measure
    /// anything at all).
    fn reallocate(&self, ctx: &PolicyCtx) -> Decisions {
        let requests: Vec<usize> = ctx.jobs.iter().map(|j| j.request).collect();
        let ids: Vec<JobId> = ctx.jobs.iter().map(|j| j.id).collect();
        let shares = marginal_fill(ctx.total_cpus, &requests, 1, |i, alloc| {
            match self.estimators.get(&ids[i]) {
                Some(est) if est.has_estimate() => est
                    .marginal_gain(alloc)
                    .expect("estimator with estimate answers"),
                // No knowledge: assume linear scaling.
                _ => 1.0,
            }
        });
        ids.into_iter().zip(shares).collect()
    }
}

impl SchedulingPolicy for EqualEfficiency {
    fn name(&self) -> &'static str {
        "Equal_efficiency"
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
        // Every report re-triggers a global reallocation — the source of the
        // policy's instability under measurement noise.
        self.reallocate(ctx)
    }

    fn on_capacity_change(&mut self, ctx: &PolicyCtx, _changed: &[JobId]) -> Decisions {
        // Refill marginal gains over the surviving capacity.
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

    fn view(id: u32, request: usize, allocated: usize) -> JobView {
        JobView {
            id: JobId(id),
            request,
            allocated,
            last_sample: None,
            remaining_secs: 100.0,
        }
    }

    fn ctx<'a>(jobs: &'a [JobView], total: usize, free: usize) -> PolicyCtx<'a> {
        PolicyCtx {
            now: SimTime::ZERO,
            total_cpus: total,
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
            iter_time: SimDuration::from_secs(1.0),
            iteration: 3,
        }
    }

    #[test]
    fn unknown_jobs_split_optimistically() {
        let jobs = vec![view(0, 30, 0), view(1, 30, 0)];
        let mut p = EqualEfficiency::paper_default();
        let d = p.on_job_arrival(&ctx(&jobs, 60, 60), JobId(1));
        // Both unknown → both assumed linear → both reach their request.
        assert_eq!(d.allocations, vec![(JobId(0), 30), (JobId(1), 30)]);
    }

    #[test]
    fn scalable_job_beats_unscalable_job() {
        // Demand (2 × 15) exceeds supply (20), so the fill must choose.
        let jobs = vec![view(0, 15, 10), view(1, 15, 10)];
        let mut p = EqualEfficiency::new(4);
        p.on_job_arrival(&ctx(&jobs, 20, 0), JobId(0));
        p.on_job_arrival(&ctx(&jobs, 20, 0), JobId(1));
        // Job 0 scales perfectly, job 1 barely at all.
        p.on_performance_report(&ctx(&jobs, 20, 0), JobId(0), sample(10, 9.8));
        let d = p.on_performance_report(&ctx(&jobs, 20, 0), JobId(1), sample(10, 1.5));
        let a0 = d
            .allocations
            .iter()
            .find(|&&(j, _)| j == JobId(0))
            .unwrap()
            .1;
        let a1 = d
            .allocations
            .iter()
            .find(|&&(j, _)| j == JobId(1))
            .unwrap()
            .1;
        assert!(a0 >= a1 * 2, "scalable job dominates: {a0} vs {a1}");
    }

    #[test]
    fn noisy_measurements_move_allocations() {
        // The instability the paper criticizes: two reports differing only
        // by noise produce different global allocations. Contention is
        // required (demand 2 × 15 over 20 processors).
        let jobs = vec![view(0, 15, 10), view(1, 15, 10)];
        let mut p = EqualEfficiency::new(4);
        p.on_job_arrival(&ctx(&jobs, 20, 0), JobId(0));
        p.on_job_arrival(&ctx(&jobs, 20, 0), JobId(1));
        p.on_performance_report(&ctx(&jobs, 20, 0), JobId(1), sample(10, 6.0));
        let d1 = p.on_performance_report(&ctx(&jobs, 20, 0), JobId(0), sample(10, 6.0 * 0.90));
        let d2 = p.on_performance_report(&ctx(&jobs, 20, 0), JobId(0), sample(10, 6.0 * 1.10));
        assert_ne!(d1, d2, "noise swings the allocation");
    }

    #[test]
    fn completion_forgets_the_job() {
        let jobs_before = vec![view(0, 30, 30), view(1, 30, 30)];
        let mut p = EqualEfficiency::paper_default();
        p.on_job_arrival(&ctx(&jobs_before, 60, 0), JobId(0));
        p.on_job_arrival(&ctx(&jobs_before, 60, 0), JobId(1));
        let jobs_after = vec![view(1, 30, 30)];
        let d = p.on_job_completion(&ctx(&jobs_after, 60, 30), JobId(0));
        assert_eq!(d.allocations, vec![(JobId(1), 30)]);
        assert!(!p.estimators.contains_key(&JobId(0)));
    }

    #[test]
    fn fixed_multiprogramming_level() {
        let p = EqualEfficiency::new(2);
        let jobs = vec![view(0, 30, 30), view(1, 30, 30)];
        assert!(!p.may_start_new_job(&ctx(&jobs, 60, 0)));
        let one = vec![view(0, 30, 30)];
        assert!(p.may_start_new_job(&ctx(&one, 60, 30)));
    }

    #[test]
    fn ragged_alive_sets_are_dealt_exactly() {
        // Satellite invariant: after a capacity change the marginal-gain
        // refill over any awkward alive-CPU count sums to exactly the alive
        // supply while the fitted curves still show positive gain — no
        // share lost to rounding, no dead processor dealt — and every
        // share respects its request.
        for alive in 41..=60 {
            for njobs in [3usize, 4] {
                let jobs: Vec<JobView> = (0..njobs).map(|i| view(i as u32, 30, 15)).collect();
                let mut p = EqualEfficiency::paper_default();
                for j in 0..njobs {
                    let id = JobId(j as u32);
                    p.on_job_arrival(&ctx(&jobs, 60, 0), id);
                    // A healthy sublinear curve: marginal gain stays
                    // positive everywhere, so the fill is work-conserving.
                    p.on_performance_report(&ctx(&jobs, 60, 0), id, sample(10, 8.0));
                }
                let d = p.on_capacity_change(&ctx(&jobs, alive, 0), &[JobId(0)]);
                let total: usize = d.allocations.iter().map(|&(_, a)| a).sum();
                assert_eq!(
                    total, alive,
                    "{njobs} jobs over {alive} alive CPUs: dealt {total}"
                );
                for &(job, share) in &d.allocations {
                    assert!(share <= 30, "{job:?} got {share} > request");
                }
            }
        }
    }

    #[test]
    fn every_report_reallocates() {
        let jobs = vec![view(0, 30, 30)];
        let mut p = EqualEfficiency::paper_default();
        p.on_job_arrival(&ctx(&jobs, 60, 30), JobId(0));
        let d = p.on_performance_report(&ctx(&jobs, 60, 30), JobId(0), sample(30, 20.0));
        assert!(!d.is_empty(), "reports always trigger reallocation");
    }
}
