//! The FCFS job queue with policy-delegated admission.
//!
//! The queuing system owns *which* job starts next (FCFS over arrival
//! order); the processor scheduling policy owns *when* it may start (§4.3).
//! [`QueueSystem`] therefore exposes the waiting queue and leaves the
//! admission check to the engine, which consults
//! `SchedulingPolicy::may_start_new_job` before popping.

use std::collections::VecDeque;

use pdpa_sim::{JobId, SimTime};

use crate::job::JobSpec;

/// The NANOS QS: all submissions of a workload, the waiting queue, and
/// completion bookkeeping.
#[derive(Clone, Debug)]
pub struct QueueSystem {
    /// Every job of the workload, indexed by `JobId`; ids are assigned in
    /// submission order.
    jobs: Vec<JobSpec>,
    /// Arrived jobs not yet started, FCFS.
    waiting: VecDeque<JobId>,
    started: usize,
    completed: usize,
    failed: usize,
}

impl QueueSystem {
    /// Builds the queue system from a workload. Jobs are sorted by
    /// submission time and assigned dense [`JobId`]s in that order.
    pub fn new(mut jobs: Vec<JobSpec>) -> Self {
        jobs.sort_by_key(|a| a.submit);
        QueueSystem {
            jobs,
            waiting: VecDeque::new(),
            started: 0,
            completed: 0,
            failed: 0,
        }
    }

    /// Appends a job submitted *after* construction (online admission by
    /// a resident daemon) and returns its dense id. The caller must keep
    /// submission instants nondecreasing across `push_job` calls —
    /// streaming submissions arrive in wall order — so id order stays
    /// submission order, the invariant [`new`](Self::new) establishes by
    /// sorting.
    pub fn push_job(&mut self, spec: JobSpec) -> JobId {
        debug_assert!(
            self.jobs
                .last()
                .is_none_or(|last| last.submit <= spec.submit),
            "online submissions must be nondecreasing in time"
        );
        let id = JobId(self.jobs.len() as u32);
        self.jobs.push(spec);
        id
    }

    /// Removes a still-waiting job from the FCFS queue (cancellation
    /// before start). Returns false if the job is not waiting — already
    /// started, finished, or never arrived.
    pub fn remove_waiting(&mut self, job: JobId) -> bool {
        match self.waiting.iter().position(|&j| j == job) {
            Some(pos) => {
                self.waiting.remove(pos);
                true
            }
            None => false,
        }
    }

    /// All submissions in id order (the engine schedules one arrival event
    /// per entry).
    pub fn submissions(&self) -> impl Iterator<Item = (JobId, &JobSpec)> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (JobId(i as u32), j))
    }

    /// The specification of a job.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn spec(&self, job: JobId) -> &JobSpec {
        &self.jobs[job.index()]
    }

    /// Total jobs in the workload.
    pub fn total_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// A job has arrived (its submission instant passed): it joins the FCFS
    /// queue.
    #[inline]
    pub fn arrive(&mut self, job: JobId) {
        debug_assert!(!self.waiting.contains(&job), "double arrival of {job}");
        self.waiting.push_back(job);
    }

    /// The job that would start next, without removing it.
    pub fn head(&self) -> Option<JobId> {
        self.waiting.front().copied()
    }

    /// Starts the head job (the engine calls this only after the policy
    /// granted admission).
    pub fn start_next(&mut self) -> Option<JobId> {
        let job = self.waiting.pop_front()?;
        self.started += 1;
        Some(job)
    }

    /// The waiting jobs in FCFS order (for backfilling scans).
    #[inline]
    pub fn waiting(&self) -> impl Iterator<Item = JobId> + '_ {
        self.waiting.iter().copied()
    }

    /// Starts a specific waiting job out of order (backfilling). Returns
    /// false if the job is not waiting.
    #[inline]
    pub fn start_specific(&mut self, job: JobId) -> bool {
        match self.waiting.iter().position(|&j| j == job) {
            Some(pos) => {
                self.waiting.remove(pos);
                self.started += 1;
                true
            }
            None => false,
        }
    }

    /// Records a completion.
    pub fn complete(&mut self, _job: JobId) {
        self.completed += 1;
    }

    /// Records a terminal failure: the job crashed and exhausted its
    /// retries (or had none). It will never complete, so the workload
    /// drains without it.
    pub fn fail_terminal(&mut self, _job: JobId) {
        self.failed += 1;
    }

    /// Re-queues a crashed job for a retry. Unlike [`arrive`], the job has
    /// been through the queue before; it rejoins at the back and competes
    /// FCFS with whatever is waiting.
    ///
    /// [`arrive`]: QueueSystem::arrive
    pub fn requeue(&mut self, job: JobId) {
        debug_assert!(!self.waiting.contains(&job), "double requeue of {job}");
        self.waiting.push_back(job);
    }

    /// Jobs waiting to start.
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Jobs started so far.
    pub fn started_count(&self) -> usize {
        self.started
    }

    /// Jobs completed so far.
    pub fn completed_count(&self) -> usize {
        self.completed
    }

    /// Jobs that failed terminally.
    pub fn failed_count(&self) -> usize {
        self.failed
    }

    /// True once every job of the workload has either completed or failed
    /// terminally — nothing is left to run.
    pub fn all_done(&self) -> bool {
        self.completed + self.failed == self.jobs.len()
    }

    /// The submission instant of the last job (useful for progress bounds).
    pub fn last_submission(&self) -> Option<SimTime> {
        self.jobs.last().map(|j| j.submit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_apps::paper::{apsi, bt_a};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn make_qs() -> QueueSystem {
        QueueSystem::new(vec![
            JobSpec::new(t(5.0), bt_a()),
            JobSpec::new(t(1.0), apsi()),
            JobSpec::new(t(3.0), bt_a()),
        ])
    }

    #[test]
    fn ids_follow_submission_order() {
        let qs = make_qs();
        let order: Vec<f64> = qs.submissions().map(|(_, j)| j.submit.as_secs()).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
        assert_eq!(qs.spec(JobId(0)).app.class, pdpa_apps::AppClass::Apsi);
        assert_eq!(qs.total_jobs(), 3);
        assert_eq!(qs.last_submission(), Some(t(5.0)));
    }

    #[test]
    fn fcfs_start_order() {
        let mut qs = make_qs();
        qs.arrive(JobId(0));
        qs.arrive(JobId(1));
        assert_eq!(qs.head(), Some(JobId(0)));
        assert_eq!(qs.start_next(), Some(JobId(0)));
        assert_eq!(qs.start_next(), Some(JobId(1)));
        assert_eq!(qs.start_next(), None);
        assert_eq!(qs.started_count(), 2);
    }

    #[test]
    fn completion_bookkeeping() {
        let mut qs = make_qs();
        for i in 0..3 {
            qs.arrive(JobId(i));
            qs.start_next();
            qs.complete(JobId(i));
        }
        assert!(qs.all_done());
        assert_eq!(qs.waiting_count(), 0);
    }

    #[test]
    fn backfill_starts_out_of_order() {
        let mut qs = make_qs();
        qs.arrive(JobId(0));
        qs.arrive(JobId(1));
        qs.arrive(JobId(2));
        let order: Vec<JobId> = qs.waiting().collect();
        assert_eq!(order, vec![JobId(0), JobId(1), JobId(2)]);
        assert!(qs.start_specific(JobId(1)));
        assert!(!qs.start_specific(JobId(1)), "already started");
        assert_eq!(qs.head(), Some(JobId(0)), "head unchanged");
        assert_eq!(qs.waiting_count(), 2);
    }

    #[test]
    fn terminal_failures_drain_the_workload() {
        let mut qs = make_qs();
        for i in 0..3 {
            qs.arrive(JobId(i));
            qs.start_next();
        }
        qs.complete(JobId(0));
        qs.complete(JobId(1));
        assert!(!qs.all_done());
        qs.fail_terminal(JobId(2));
        assert!(qs.all_done(), "a terminal failure counts as drained");
        assert_eq!(qs.failed_count(), 1);
        assert_eq!(qs.completed_count(), 2);
    }

    #[test]
    fn requeue_rejoins_fcfs_at_the_back() {
        let mut qs = make_qs();
        qs.arrive(JobId(0));
        qs.start_next();
        qs.arrive(JobId(1));
        qs.requeue(JobId(0)); // crashed, retrying
        let order: Vec<JobId> = qs.waiting().collect();
        assert_eq!(order, vec![JobId(1), JobId(0)]);
        assert_eq!(qs.start_next(), Some(JobId(1)));
        assert_eq!(qs.start_next(), Some(JobId(0)));
    }

    #[test]
    fn push_job_appends_with_dense_ids() {
        let mut qs = QueueSystem::new(Vec::new());
        let a = qs.push_job(JobSpec::new(t(1.0), apsi()));
        let b = qs.push_job(JobSpec::new(t(2.0), bt_a()));
        assert_eq!((a, b), (JobId(0), JobId(1)));
        assert_eq!(qs.total_jobs(), 2);
        assert_eq!(qs.spec(b).submit, t(2.0));
        assert_eq!(qs.last_submission(), Some(t(2.0)));
    }

    #[test]
    fn remove_waiting_cancels_queued_jobs_only() {
        let mut qs = make_qs();
        qs.arrive(JobId(0));
        qs.arrive(JobId(1));
        qs.start_next();
        assert!(!qs.remove_waiting(JobId(0)), "already started");
        assert!(qs.remove_waiting(JobId(1)));
        assert!(!qs.remove_waiting(JobId(1)), "already removed");
        assert_eq!(qs.waiting_count(), 0);
        assert!(!qs.remove_waiting(JobId(2)), "never arrived");
    }

    #[test]
    fn waiting_count_tracks_queue() {
        let mut qs = make_qs();
        assert_eq!(qs.waiting_count(), 0);
        qs.arrive(JobId(0));
        qs.arrive(JobId(1));
        assert_eq!(qs.waiting_count(), 2);
        qs.start_next();
        assert_eq!(qs.waiting_count(), 1);
    }
}
