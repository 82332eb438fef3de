//! The machinery shared by the one-pass analysis: the job index every
//! per-job fold keys its state by, and the loop behind each module's
//! standalone function.
//!
//! Each analysis module keeps its logic in one fold (a `push` per event
//! and a `finish` at the end of the stream).
//! [`Analyzer`](crate::Analyzer) runs all of them side by side over one
//! walk of the stream; the modules' own functions ([`job_timelines`],
//! [`time_in_state`], …) run their fold alone through [`run`]. Either
//! way the same code sees the same events in the same order, so the two
//! paths agree to the bit.
//!
//! [`job_timelines`]: crate::timeline::job_timelines
//! [`time_in_state`]: crate::states::time_in_state

use pdpa_obs::{ObsEvent, TimedEvent};
use pdpa_sim::JobId;
use std::collections::BTreeMap;

/// Marks an id with no slot in [`JobIndex`]'s dense table.
const VACANT: u32 = u32::MAX;

/// How far past twice the jobs seen so far an id may lie and still
/// extend the dense table. Ids further out go to the sparse map, so one
/// stray huge id cannot make the table allocate in proportion to it.
const DENSE_SLACK: usize = 4096;

/// `JobId → slot`. Every job a stream mentions gets the next dense slot
/// number, and every per-job fold indexes its own vectors by that number,
/// so one lookup per event serves all of them. Job ids are dense
/// submission ranks in every stream the engine writes, which makes a
/// vector the map; ids far past the jobs seen so far fall back to a tree.
#[derive(Debug, Default)]
pub(crate) struct JobIndex {
    /// Slot by `JobId`, `VACANT` when unseen.
    dense: Vec<u32>,
    /// Slots of the ids too far out for `dense`.
    sparse: BTreeMap<JobId, u32>,
    /// `JobId` by slot.
    ids: Vec<JobId>,
}

impl JobIndex {
    /// The job's slot, assigning the next one on first sight.
    fn slot(&mut self, job: JobId) -> usize {
        let id = job.0 as usize;
        match self.dense.get(id) {
            Some(&s) if s != VACANT => return s as usize,
            _ => {}
        }
        if let Some(&s) = self.sparse.get(&job) {
            return s as usize;
        }
        let s = self.ids.len();
        self.ids.push(job);
        if id >= self.dense.len() && id < 2 * self.ids.len() + DENSE_SLACK {
            self.dense.resize(id + 1, VACANT);
        }
        match self.dense.get_mut(id) {
            Some(cell) => *cell = s as u32,
            None => {
                self.sparse.insert(job, s as u32);
            }
        }
        s
    }

    /// The slot of the job `event` is about, for the kinds some per-job
    /// fold reads: lifecycle events, state moves, and CPU grants (the new
    /// occupant).
    pub(crate) fn slot_of(&mut self, event: &ObsEvent) -> Option<usize> {
        match event {
            ObsEvent::JobSubmitted { job }
            | ObsEvent::JobDequeued { job }
            | ObsEvent::JobStarted { job, .. }
            | ObsEvent::JobFinished { job }
            | ObsEvent::JobRetried { job, .. }
            | ObsEvent::JobFailed { job, .. }
            | ObsEvent::StateChanged { job, .. }
            | ObsEvent::Decision {
                job,
                transition: Some(_),
                ..
            }
            | ObsEvent::CpuAssigned { job: Some(job), .. } => Some(self.slot(*job)),
            _ => None,
        }
    }

    /// Every `(job, slot)`, in ascending `JobId` order.
    pub(crate) fn by_id(&self) -> Vec<(JobId, usize)> {
        let mut order: Vec<(JobId, usize)> = self
            .dense
            .iter()
            .filter(|&&s| s != VACANT)
            .chain(self.sparse.values())
            .map(|&s| (self.ids[s as usize], s as usize))
            .collect();
        if !self.sparse.is_empty() {
            order.sort_unstable_by_key(|&(id, _)| id);
        }
        order
    }
}

/// One analysis as a fold over a stream.
pub(crate) trait Fold {
    /// What the fold produces.
    type Output;

    /// Folds one event; `slot` is [`JobIndex::slot_of`] the event.
    fn push(&mut self, te: &TimedEvent, slot: Option<usize>);

    /// Closes the fold. `end` is the last event's instant (0 for an empty
    /// stream).
    fn finish(self, jobs: &JobIndex, end: f64) -> Self::Output;
}

/// Runs one fold alone over a whole stream.
pub(crate) fn run<F: Fold>(events: &[TimedEvent], mut fold: F) -> F::Output {
    let mut jobs = JobIndex::default();
    for te in events {
        let slot = jobs.slot_of(&te.event);
        fold.push(te, slot);
    }
    fold.finish(&jobs, events.last().map_or(0.0, |te| te.at.as_secs()))
}

/// `v[slot]`, growing `v` with defaults to reach it.
pub(crate) fn slot_mut<T: Default>(v: &mut Vec<T>, slot: usize) -> &mut T {
    if slot >= v.len() {
        v.resize_with(slot + 1, T::default);
    }
    &mut v[slot]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_sparse_ids_share_one_slot_space_in_id_order() {
        let mut index = JobIndex::default();
        let far = JobId(u32::MAX - 1);
        assert_eq!(index.slot(JobId(2)), 0);
        assert_eq!(index.slot(far), 1);
        assert_eq!(index.slot(JobId(0)), 2);
        assert_eq!(index.slot(JobId(2)), 0, "a known id keeps its slot");
        assert_eq!(index.slot(far), 1);
        assert!(index.dense.len() < 10, "the far id stays out of the table");
        assert_eq!(index.by_id(), vec![(JobId(0), 2), (JobId(2), 0), (far, 1)]);
    }
}
