//! The scheduling-policy interface.
//!
//! The NANOS Resource Manager "implements the processor scheduling policy,
//! which 1) decides how many processors to allocate to each application and
//! 2) enforces the processor scheduling policy decisions" (§3.3). In this
//! reproduction the engine plays the enforcement role and policies implement
//! [`SchedulingPolicy`]: they are activated "each time a new application
//! arrives to the system, when an application finishes, or when an
//! application informs about its performance" (§4.1) and answer with target
//! allocations.
//!
//! Coordination with the queuing system happens through
//! [`SchedulingPolicy::may_start_new_job`]: the queuing system selects
//! *which* job starts, the processor scheduling policy decides *when*
//! (§4.3).

use pdpa_perf::PerfSample;
use pdpa_sim::{JobId, SimDuration, SimTime};

/// How a policy's allocations map onto physical processors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SharingModel {
    /// Space sharing: each allocation is a dedicated cpuset, the machine is
    /// divided in partitions "and applications run in these partitions as in
    /// a dedicated machine" (§4.1).
    SpaceShared,
    /// Time sharing: allocations are kernel-thread counts that the operating
    /// system multiplexes over the processors each quantum (the IRIX model).
    TimeShared(TimeSharingParams),
    /// Gang scheduling (Ousterhout's matrix): each running job gets the
    /// whole machine — up to its allocation — for a full time slot, in
    /// round-robin rotation. All threads of a job run simultaneously
    /// (perfect coscheduling), but each job only runs `1/n` of the time.
    Gang(GangParams),
}

/// Parameters of the gang-scheduled execution model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GangParams {
    /// Length of one gang slot.
    pub quantum: SimDuration,
    /// Fractional throughput loss per rotation (synchronized context switch
    /// of the whole machine, cold caches at slot start).
    pub switch_overhead: f64,
}

impl Default for GangParams {
    fn default() -> Self {
        GangParams {
            // Gang quanta are long (whole-machine switches are expensive);
            // 2 s is in the range classically used on large machines.
            quantum: SimDuration::from_secs(2.0),
            switch_overhead: 0.05,
        }
    }
}

/// Parameters of the time-shared execution model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeSharingParams {
    /// Scheduling quantum.
    pub quantum: SimDuration,
    /// Probability that a thread stays on its processor across a quantum
    /// boundary (the IRIX placement policy "is based on maintaining the
    /// processor affinity as much as possible", §5.1.1 — but it fails often
    /// enough to generate the migration counts of Table 2).
    pub affinity: f64,
    /// Fractional throughput loss paid *always* under time sharing: the
    /// paper's §5.1.1 observes that the IRIX placement "sometimes causes
    /// that two kernel threads belonging to the same or different
    /// applications can be allocated to the same processor, degrading the
    /// application performance and generating many process migrations" —
    /// locality is lost continuously, not only when overcommitted.
    pub base_overhead: f64,
    /// Additional fractional throughput loss while the machine is
    /// overcommitted (time-slicing, cache pollution, inopportune preemption
    /// of threads holding locks).
    pub overcommit_overhead: f64,
}

impl Default for TimeSharingParams {
    fn default() -> Self {
        TimeSharingParams {
            quantum: SimDuration::from_millis(250.0),
            affinity: 0.2,
            base_overhead: 0.15,
            overcommit_overhead: 0.30,
        }
    }
}

/// A running job as seen by a policy.
#[derive(Clone, Debug)]
pub struct JobView {
    /// The job's identity.
    pub id: JobId,
    /// Processors the job requested at submission.
    pub request: usize,
    /// Processors (or threads, under time sharing) currently assigned.
    pub allocated: usize,
    /// The job's most recent performance estimate, if it has reported.
    pub last_sample: Option<PerfSample>,
    /// Estimated *sequential* work remaining, seconds: outstanding
    /// iterations times the current per-iteration sequential time. This is
    /// the remaining-size signal size-based policies (heSRPT, OptSplit)
    /// rank on; it is allocation-independent, so reallocating a job does
    /// not change its rank.
    pub remaining_secs: f64,
}

/// The system snapshot a policy decides from.
#[derive(Clone, Debug)]
pub struct PolicyCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Processors in the machine.
    pub total_cpus: usize,
    /// Processors not assigned to any job (space sharing).
    pub free_cpus: usize,
    /// Every running job, in arrival order.
    pub jobs: &'a [JobView],
    /// Jobs waiting in the queuing system.
    pub queued_jobs: usize,
    /// Processor request of the FCFS queue head, if any — what
    /// [`SchedulingPolicy::may_start_new_job`] is being asked about. Rigid
    /// policies need it to implement "wait until the full request is free".
    pub next_request: Option<usize>,
}

impl PolicyCtx<'_> {
    /// Looks up a running job by id.
    #[inline]
    pub fn job(&self, id: JobId) -> Option<&JobView> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Number of running jobs.
    pub fn running(&self) -> usize {
        self.jobs.len()
    }
}

/// A state-machine move a stateful policy made while deciding, reported
/// for observability (the PDPA transitions of §4.2). State names are
/// `&'static str` so carrying them costs nothing and keeps this crate
/// free of an observability dependency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransitionNote {
    /// The job whose per-application state machine moved.
    pub job: JobId,
    /// State left.
    pub from: &'static str,
    /// State entered.
    pub to: &'static str,
}

/// A policy's answer: target allocations to apply.
///
/// Only the mentioned jobs change; the engine skips no-op resizes, so
/// returning a job's current allocation is harmless.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Decisions {
    /// `(job, target processors)` pairs.
    pub allocations: Vec<(JobId, usize)>,
    /// State-machine moves behind the allocations (possibly more moves
    /// than allocations: a transition can keep the allocation).
    pub transitions: Vec<TransitionNote>,
}

impl Decisions {
    /// No changes.
    pub fn none() -> Self {
        Decisions::default()
    }

    /// A single-job change.
    pub fn one(job: JobId, procs: usize) -> Self {
        Decisions {
            allocations: vec![(job, procs)],
            transitions: Vec::new(),
        }
    }

    /// Adds a change.
    pub fn set(&mut self, job: JobId, procs: usize) {
        self.allocations.push((job, procs));
    }

    /// Records a state-machine move.
    pub fn note_transition(&mut self, job: JobId, from: &'static str, to: &'static str) {
        self.transitions.push(TransitionNote { job, from, to });
    }

    /// True when nothing changes — no allocations *and* no transitions.
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty() && self.transitions.is_empty()
    }
}

impl FromIterator<(JobId, usize)> for Decisions {
    fn from_iter<T: IntoIterator<Item = (JobId, usize)>>(iter: T) -> Self {
        Decisions {
            allocations: iter.into_iter().collect(),
            transitions: Vec::new(),
        }
    }
}

/// A processor scheduling policy.
///
/// Implementations decide processor allocations and, through
/// [`may_start_new_job`], the multiprogramming level. The engine activates a
/// policy at job arrival, job completion, and each performance report.
///
/// [`may_start_new_job`]: SchedulingPolicy::may_start_new_job
pub trait SchedulingPolicy {
    /// The policy's display name (used in reports and experiment tables).
    fn name(&self) -> &'static str;

    /// How this policy's allocations map onto processors.
    fn sharing(&self) -> SharingModel {
        SharingModel::SpaceShared
    }

    /// A new job has been started by the queuing system. The job is already
    /// present in `ctx.jobs` with `allocated = 0`; the returned decisions
    /// give it (and possibly others) their allocations.
    fn on_job_arrival(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions;

    /// A job has completed; its processors are already free in `ctx`.
    fn on_job_completion(&mut self, ctx: &PolicyCtx, job: JobId) -> Decisions;

    /// A job's SelfAnalyzer has produced a new performance estimate.
    fn on_performance_report(
        &mut self,
        ctx: &PolicyCtx,
        job: JobId,
        sample: PerfSample,
    ) -> Decisions;

    /// The machine's capacity changed under the policy: CPUs failed (their
    /// allocations already revoked, reflected in `ctx`) or recovered.
    /// `changed` lists the running jobs whose allocations were cut by the
    /// failure, in arrival order.
    ///
    /// The default re-grants stalled jobs — jobs revoked down to zero
    /// processors produce no further performance reports, so a policy that
    /// only reacts to reports would strand them forever. Each stalled job
    /// gets as much of its request as the remaining free supply covers.
    /// Rebalancing policies should override this with their own
    /// redistribution.
    fn on_capacity_change(&mut self, ctx: &PolicyCtx, changed: &[JobId]) -> Decisions {
        let _ = changed;
        let mut free = ctx.free_cpus;
        let mut decisions = Decisions::none();
        for view in ctx.jobs.iter().filter(|v| v.allocated == 0) {
            if free == 0 {
                break;
            }
            let grant = view.request.min(free);
            decisions.set(view.id, grant);
            free -= grant;
        }
        decisions
    }

    /// Multiprogramming-level decision: may the queuing system start another
    /// job right now?
    fn may_start_new_job(&self, ctx: &PolicyCtx) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_builders() {
        let mut d = Decisions::none();
        assert!(d.is_empty());
        d.set(JobId(1), 8);
        assert_eq!(d.allocations, vec![(JobId(1), 8)]);
        let one = Decisions::one(JobId(2), 4);
        assert_eq!(one.allocations, vec![(JobId(2), 4)]);
        let collected: Decisions = [(JobId(3), 2)].into_iter().collect();
        assert_eq!(collected.allocations, vec![(JobId(3), 2)]);
    }

    #[test]
    fn transitions_count_as_nonempty() {
        let mut d = Decisions::none();
        d.note_transition(JobId(0), "NO_REF", "STABLE");
        assert!(!d.is_empty());
        assert!(d.allocations.is_empty());
        assert_eq!(
            d.transitions,
            vec![TransitionNote {
                job: JobId(0),
                from: "NO_REF",
                to: "STABLE",
            }]
        );
    }

    #[test]
    fn ctx_lookup() {
        let jobs = vec![
            JobView {
                id: JobId(0),
                request: 30,
                allocated: 15,
                last_sample: None,
                remaining_secs: 600.0,
            },
            JobView {
                id: JobId(1),
                request: 2,
                allocated: 2,
                last_sample: None,
                remaining_secs: 40.0,
            },
        ];
        let ctx = PolicyCtx {
            now: SimTime::ZERO,
            total_cpus: 60,
            free_cpus: 43,
            jobs: &jobs,
            queued_jobs: 3,
            next_request: Some(30),
        };
        assert_eq!(ctx.running(), 2);
        assert_eq!(ctx.job(JobId(1)).unwrap().request, 2);
        assert!(ctx.job(JobId(9)).is_none());
    }

    #[test]
    fn default_time_sharing_params_are_sane() {
        let p = TimeSharingParams::default();
        assert!(p.quantum.as_millis() > 0.0);
        assert!((0.0..=1.0).contains(&p.affinity));
        assert!((0.0..1.0).contains(&p.base_overhead));
        assert!((0.0..1.0).contains(&p.overcommit_overhead));
        // Combined worst case must leave positive throughput.
        assert!((1.0 - p.base_overhead) * (1.0 - p.overcommit_overhead) > 0.0);
    }
}
