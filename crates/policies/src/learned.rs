//! LearnedAlloc — online learning of per-job allocations from measured
//! iteration speedups (after Chasparis, Janjic, Rossbory & Hammond,
//! "Learning-based Dynamic Pinning of Parallelized Applications in
//! Many-Core Systems", arXiv:1803.00355; see PAPERS.md).
//!
//! Each running job carries a continuous allocation *target* updated by a
//! gradient step on every performance report: the measured marginal speedup
//! between the job's two most recent samples (finite difference over their
//! allocation gap) pushes the target up when an extra processor still buys
//! meaningful speedup and down when it does not. A deterministic ±1
//! exploration perturbation — a pure function of the policy seed, the job
//! and its report count, drawn from a `SimRng` seeded by mixing the three,
//! so it takes no draw from the engine's one run stream — keeps the
//! finite-difference window open by occasionally forcing the allocation off
//! its fixed point, exactly the reinforcement-style exploration of the
//! pinning paper and a generalization of PDPA's own ±`step` search loop.
//!
//! Between reports the policy behaves like Equipartition: arrivals and
//! completions deal equal shares (the learned targets restart from fair
//! shares), so the learning refines a fair baseline instead of trusting
//! cold-start guesses.

use pdpa_perf::PerfSample;
use pdpa_sim::{JobId, JobMap, SimRng};

use crate::alloc_math::equal_shares;
use crate::policy::{Decisions, PolicyCtx, SchedulingPolicy};

/// Marginal speedup per processor above which the target grows.
const GROW_SLOPE: f64 = 0.5;
/// Marginal speedup per processor below which the target shrinks.
const SHRINK_SLOPE: f64 = 0.2;
/// Efficiency bounds used before two distinct-allocation samples exist.
const GROW_EFFICIENCY: f64 = 0.7;
/// See [`GROW_EFFICIENCY`].
const SHRINK_EFFICIENCY: f64 = 0.4;
/// Gradient step, processors per report.
const STEP: f64 = 2.0;

/// Per-job learning state.
#[derive(Clone, Debug)]
struct LearnState {
    /// Continuous allocation target the gradient walks.
    target: f64,
    /// The previous report, for the finite-difference gradient.
    prev: Option<PerfSample>,
    /// Reports seen — the exploration stream's sequence number.
    reports: u64,
}

/// The LearnedAlloc online-gradient space-sharing policy.
///
/// # Examples
///
/// ```
/// use pdpa_policies::{LearnedAlloc, SchedulingPolicy};
///
/// let policy = LearnedAlloc::default();
/// assert_eq!(policy.name(), "LearnedAlloc");
/// ```
#[derive(Clone, Debug)]
pub struct LearnedAlloc {
    /// Fixed multiprogramming level (matched to the paper baselines' 4).
    multiprogramming_level: usize,
    /// Seed of the exploration streams (mixable per job and report).
    seed: u64,
    /// Per-job learning state.
    states: JobMap<LearnState>,
}

impl LearnedAlloc {
    /// Creates the policy with the given multiprogramming level and
    /// exploration seed.
    ///
    /// # Panics
    ///
    /// Panics if `multiprogramming_level` is zero.
    pub fn new(multiprogramming_level: usize, seed: u64) -> Self {
        assert!(multiprogramming_level > 0, "ML must be at least 1");
        LearnedAlloc {
            multiprogramming_level,
            seed,
            states: JobMap::default(),
        }
    }

    /// The configured multiprogramming level.
    pub fn multiprogramming_level(&self) -> usize {
        self.multiprogramming_level
    }

    /// The deterministic exploration perturbation for one report: −1, 0 or
    /// +1 processors. Pure in `(seed, job, reports)`: no draw is taken
    /// from a shared stream, so the perturbation does not depend on how
    /// other jobs' reports interleave with this one's.
    fn exploration(&self, job: JobId, reports: u64) -> f64 {
        let mix = 0x9E37_79B9_7F4A_7C15u64
            .wrapping_mul(u64::from(job.0) + 1)
            .wrapping_add(reports.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut rng = SimRng::new(self.seed ^ mix);
        rng.below(3) as f64 - 1.0
    }

    /// Deals equal shares and restarts every job's target from its share.
    fn repartition(&mut self, ctx: &PolicyCtx) -> Decisions {
        let requests: Vec<usize> = ctx.jobs.iter().map(|j| j.request).collect();
        let shares = equal_shares(ctx.total_cpus, &requests, 1);
        for (j, &s) in ctx.jobs.iter().zip(&shares) {
            if let Some(state) = self.states.get_mut(&j.id) {
                state.target = s as f64;
            }
        }
        ctx.jobs
            .iter()
            .zip(shares)
            .map(|(j, s)| (j.id, s))
            .collect()
    }
}

impl Default for LearnedAlloc {
    /// Multiprogramming level 4 (the paper baselines' setting), seed 0.
    fn default() -> Self {
        LearnedAlloc::new(4, 0)
    }
}

impl SchedulingPolicy for LearnedAlloc {
    fn name(&self) -> &'static str {
        "LearnedAlloc"
    }

    fn on_job_arrival(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        self.states.insert(
            job,
            LearnState {
                target: 0.0, // overwritten by the repartition below
                prev: None,
                reports: 0,
            },
        );
        self.repartition(ctx)
    }

    fn on_job_completion(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions {
        self.states.remove(&job);
        self.repartition(ctx)
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
        let request = view.request;
        let total = ctx.total_cpus;
        let (target, reports) = {
            let state = self.states.entry(job).or_insert(LearnState {
                target: view.allocated as f64,
                prev: None,
                reports: 0,
            });
            state.reports += 1;
            // Gradient: finite-difference marginal speedup when the last
            // two samples sit at different allocations, efficiency bounds
            // otherwise (two samples at the same width say nothing about
            // the slope).
            let slope = match state.prev {
                Some(p) if p.procs != sample.procs => {
                    Some((sample.speedup - p.speedup) / (sample.procs as f64 - p.procs as f64))
                }
                _ => None,
            };
            let eff = if sample.procs > 0 {
                sample.speedup / sample.procs as f64
            } else {
                0.0
            };
            let grow = match slope {
                Some(s) => s >= GROW_SLOPE,
                None => eff >= GROW_EFFICIENCY,
            };
            let shrink = match slope {
                Some(s) => s < SHRINK_SLOPE,
                None => eff < SHRINK_EFFICIENCY,
            };
            if grow {
                state.target += STEP;
            } else if shrink {
                state.target -= STEP;
            }
            state.target = state.target.clamp(1.0, request.min(total) as f64);
            state.prev = Some(sample);
            (state.target, state.reports)
        };
        let perturbed = target + self.exploration(job, reports);
        let next = perturbed.round().clamp(1.0, request.min(total) as f64) as usize;
        Decisions::one(job, next)
    }

    fn on_capacity_change(&mut self, ctx: &PolicyCtx, _changed: &[JobId]) -> Decisions {
        // Capacity moved under the learned targets: restart from fair
        // shares of what is alive and learn again from there.
        self.repartition(ctx)
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
    fn arrivals_deal_equal_shares() {
        let jobs = vec![view(0, 30, 0), view(1, 30, 0)];
        let mut p = LearnedAlloc::default();
        p.on_job_arrival(&ctx(&jobs[..1], 60, 60), JobId(0));
        let d = p.on_job_arrival(&ctx(&jobs, 60, 30), JobId(1));
        assert_eq!(d.allocations, vec![(JobId(0), 30), (JobId(1), 30)]);
    }

    #[test]
    fn efficient_jobs_grow_and_inefficient_jobs_shrink() {
        // Both runs share the seed, so the exploration jitter on the first
        // report is identical; only the gradient direction differs. The
        // arrival sets the target to the equal share (40 here).
        let jobs = vec![view(0, 40, 10)];
        let mut p = LearnedAlloc::default();
        p.on_job_arrival(&ctx(&jobs, 60, 60), JobId(0));
        let d = p.on_performance_report(&ctx(&jobs, 60, 20), JobId(0), sample(10, 9.5));
        let efficient = d.allocations[0].1;
        let mut q = LearnedAlloc::default();
        q.on_job_arrival(&ctx(&jobs, 60, 60), JobId(0));
        let d = q.on_performance_report(&ctx(&jobs, 60, 20), JobId(0), sample(10, 2.0));
        let inefficient = d.allocations[0].1;
        assert!(
            efficient > inefficient,
            "gradient separates: efficient {efficient} vs inefficient {inefficient}"
        );
        assert!(
            (p.states[&JobId(0)].target - 40.0).abs() < 1e-9,
            "grow clamps at request"
        );
        assert!(
            (q.states[&JobId(0)].target - 38.0).abs() < 1e-9,
            "shrink steps down"
        );
    }

    #[test]
    fn finite_difference_gradient_overrides_efficiency() {
        // Two samples, 10 → 14 processors buying speedup 8 → 8.4: the
        // measured slope (0.1) is far below SHRINK_SLOPE, so the job
        // shrinks even though raw efficiency at 10 procs looked decent.
        let jobs = vec![view(0, 40, 14)];
        let mut p = LearnedAlloc::default();
        p.on_job_arrival(&ctx(&jobs, 60, 60), JobId(0));
        p.on_performance_report(&ctx(&jobs, 60, 20), JobId(0), sample(10, 8.0));
        let d = p.on_performance_report(&ctx(&jobs, 60, 20), JobId(0), sample(14, 8.4));
        let target = p.states[&JobId(0)].target;
        assert!(
            target < 40.0 - STEP + 1e-9,
            "slope shrinks the target: {target}"
        );
        assert!(!d.allocations.is_empty());
    }

    #[test]
    fn exploration_is_deterministic_and_bounded() {
        let p = LearnedAlloc::new(4, 42);
        let q = LearnedAlloc::new(4, 42);
        for job in 0..5u32 {
            for reports in 0..50u64 {
                let e = p.exploration(JobId(job), reports);
                assert_eq!(e, q.exploration(JobId(job), reports), "pure function");
                assert!((-1.0..=1.0).contains(&e));
            }
        }
        // A different seed explores differently somewhere.
        let r = LearnedAlloc::new(4, 43);
        let diverges = (0..50u64).any(|n| p.exploration(JobId(0), n) != r.exploration(JobId(0), n));
        assert!(diverges, "seed changes the exploration stream");
    }

    #[test]
    fn decisions_stay_within_request_and_machine() {
        let jobs = vec![view(0, 8, 8)];
        let mut p = LearnedAlloc::default();
        p.on_job_arrival(&ctx(&jobs, 60, 60), JobId(0));
        for i in 0..20 {
            let d = p.on_performance_report(
                &ctx(&jobs, 60, 52),
                JobId(0),
                sample(8, 7.9 - 0.01 * i as f64),
            );
            let (_, a) = d.allocations[0];
            assert!((1..=8).contains(&a), "allocation {a} within [1, request]");
        }
    }

    #[test]
    fn unknown_job_report_is_ignored() {
        let mut p = LearnedAlloc::default();
        let d = p.on_performance_report(&ctx(&[], 60, 60), JobId(9), sample(4, 3.0));
        assert!(d.is_empty());
    }

    #[test]
    fn multiprogramming_level_is_fixed() {
        let p = LearnedAlloc::default();
        let jobs: Vec<JobView> = (0..4).map(|i| view(i, 30, 15)).collect();
        assert!(!p.may_start_new_job(&ctx(&jobs, 60, 0)));
        assert!(p.may_start_new_job(&ctx(&jobs[..3], 60, 15)));
    }
}
