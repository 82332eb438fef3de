//! The run registry: per-job lifecycle state behind the `jobs`/`job`
//! queries.
//!
//! The engine's own job store knows everything, but it lives inside the
//! simulation. The registry is the daemon's view of it: admission inserts
//! a record, the daemon's observer moves it through the lifecycle as
//! decision events are published, and the `jobs`/`job` queries read
//! [`JobRow`]s out of it. The observer owns it, so it lives under the
//! core's one lock with the session. States:
//!
//! ```text
//! queued ── start ──► running ── finish ──► done
//!    │                   │
//!    │ cancel            │ cancel / fault exhaustion
//!    ▼                   ▼
//! cancelled           failed → cancelled (when the daemon cancelled it)
//! ```
//!
//! Cancellation is a daemon-level concept (the engine publishes a
//! terminal `JobFailed` either way), so [`RunRegistry::mark_cancelled`]
//! runs *after* the engine's events and overrides `failed`.
//!
//! Job ids are dense (the session numbers jobs 0, 1, 2, … as it admits
//! them), and the core admits each job's row right after the session
//! numbers it, before its arrival runs. So the rows live in a vector
//! indexed by id: admitting a job is a push, and each lifecycle event is
//! one bounds-checked index.

use pdpa_obs::ObsEvent;
use pdpa_sim::SimTime;
use pdpa_watch::JobRow;

#[derive(Clone, Debug)]
struct JobRecord {
    class: String,
    request: usize,
    state: &'static str,
    submit_secs: f64,
    finish_secs: Option<f64>,
}

/// Per-job lifecycle mirror; row `i` holds job `i`.
#[derive(Debug, Default)]
pub struct RunRegistry {
    jobs: Vec<JobRecord>,
}

impl RunRegistry {
    /// Records an admitted job in state `queued`.
    ///
    /// # Panics
    ///
    /// Panics unless `job` is the next id: the session numbers jobs
    /// densely, and every one is admitted.
    pub fn admit(&mut self, job: u64, class: &str, request: usize, submit_secs: f64) {
        assert_eq!(job, self.jobs.len() as u64, "jobs are admitted in id order");
        self.jobs.push(JobRecord {
            class: class.to_string(),
            request,
            state: "queued",
            submit_secs,
            finish_secs: None,
        });
    }

    fn record(&mut self, job: u64) -> Option<&mut JobRecord> {
        self.jobs.get_mut(usize::try_from(job).ok()?)
    }

    /// Marks a job cancelled at `at_secs`. Called after the engine's own
    /// terminal events, so it wins over `failed`.
    pub fn mark_cancelled(&mut self, job: u64, at_secs: f64) {
        if let Some(rec) = self.record(job) {
            rec.state = "cancelled";
            rec.finish_secs.get_or_insert(at_secs);
        }
    }

    /// Advances lifecycle state from one published observer event.
    pub fn apply(&mut self, at: SimTime, event: &ObsEvent) {
        let (job, state, finished) = match event {
            ObsEvent::JobStarted { job, .. } => (job.0, "running", false),
            ObsEvent::JobFinished { job } => (job.0, "done", true),
            ObsEvent::JobFailed { job, .. } => (job.0, "failed", true),
            _ => return,
        };
        if let Some(rec) = self.record(u64::from(job)) {
            // A retried job can re-enter `running` after a crash, but no
            // event un-cancels: the daemon's verdict is terminal.
            if rec.state == "cancelled" {
                return;
            }
            rec.state = state;
            if finished {
                rec.finish_secs = Some(at.as_secs());
            }
        }
    }

    /// The row for one job, if it was ever admitted.
    pub fn row(&self, job: u64) -> Option<JobRow> {
        let rec = self.jobs.get(usize::try_from(job).ok()?)?;
        Some(to_row(job, rec))
    }

    /// Up to `n` most recently admitted jobs, ascending by id.
    pub fn rows(&self, n: usize) -> Vec<JobRow> {
        let first = self.jobs.len().saturating_sub(n);
        (first..self.jobs.len())
            .map(|id| to_row(id as u64, &self.jobs[id]))
            .collect()
    }

    /// Jobs ever admitted.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

fn to_row(job: u64, rec: &JobRecord) -> JobRow {
    JobRow {
        job,
        class: rec.class.clone(),
        request: rec.request as u64,
        state: rec.state.to_string(),
        submit_secs: rec.submit_secs,
        finish_secs: rec.finish_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_sim::JobId;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn lifecycle_moves_through_states() {
        let mut reg = RunRegistry::default();
        reg.admit(0, "swim", 16, 0.0);
        assert_eq!(reg.row(0).unwrap().state, "queued");
        reg.apply(
            t(1.0),
            &ObsEvent::JobStarted {
                job: JobId(0),
                request: 16,
            },
        );
        assert_eq!(reg.row(0).unwrap().state, "running");
        reg.apply(t(9.0), &ObsEvent::JobFinished { job: JobId(0) });
        let row = reg.row(0).unwrap();
        assert_eq!(row.state, "done");
        assert_eq!(row.finish_secs, Some(9.0));
    }

    #[test]
    fn cancelled_wins_over_failed() {
        let mut reg = RunRegistry::default();
        for id in 0..4 {
            reg.admit(id, "apsi", 8, 2.0);
        }
        reg.apply(
            t(4.0),
            &ObsEvent::JobFailed {
                job: JobId(3),
                attempts: 0,
            },
        );
        reg.mark_cancelled(3, 4.0);
        assert_eq!(reg.row(3).unwrap().state, "cancelled");
        // Late events never resurrect it.
        reg.apply(
            t(5.0),
            &ObsEvent::JobStarted {
                job: JobId(3),
                request: 8,
            },
        );
        assert_eq!(reg.row(3).unwrap().state, "cancelled");
    }

    #[test]
    fn rows_returns_the_newest_n_in_id_order() {
        let mut reg = RunRegistry::default();
        for id in 0..5 {
            reg.admit(id, "swim", 4, id as f64);
        }
        let rows = reg.rows(2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].job, 3);
        assert_eq!(rows[1].job, 4);
        assert!(reg.row(99).is_none());
        assert_eq!(reg.len(), 5);
    }
}
