//! Struct-of-arrays storage for the running-job set, and the policy
//! snapshot it keeps in place.
//!
//! The engine's hot loops — handing every policy activation a `JobView`
//! per running job, summing allocations, recomputing every rate after a
//! capacity change — scan all running jobs but touch only a few small
//! fields each. [`JobStore`] keeps each hot field (remaining work,
//! progress rate, iteration deadline bookkeeping) in its own dense vector,
//! indexed by the job's *position* in arrival order, which is both the
//! policy-context ordering and the cache-friendly scan order; a map
//! translates [`JobId`]s to positions. Cold state (the application spec,
//! the SelfAnalyzer, the speedup memo) lives in a parallel vector of
//! [`JobCold`] records that only the per-iteration paths touch.
//!
//! The store owns the policy snapshot: [`views`](JobStore::views) is one
//! [`JobView`] per running job, in the same order, and every mutator
//! writes the view field it changes as it changes it — the allocation,
//! the last estimate, and the remaining work after progress or the
//! per-iteration time moves. A policy call reads the slice as it stands,
//! with no refresh pass; [`fill_views`](JobStore::fill_views) rebuilds the
//! snapshot from the lanes and is the tests' oracle for it.
//!
//! A start appends to every vector and a removal shifts the later
//! positions down, so the store holds only the running jobs and long
//! replays run in O(peak ML) memory regardless of trace length.

use pdpa_apps::{ApplicationSpec, PhaseChange, Progress, SpeedupMemo};
use pdpa_perf::{PerfSample, SelfAnalyzer};
use pdpa_policies::JobView;
use pdpa_sim::{JobId, SimDuration, SimTime};

/// Sentinel in the position map for "not running".
const VACANT: u32 = u32::MAX;

/// Cold per-job state: touched once per iteration end, never in the
/// dense scans.
#[derive(Clone, Debug)]
pub struct JobCold {
    /// The application being executed.
    pub spec: ApplicationSpec,
    /// The job's SelfAnalyzer instance.
    pub analyzer: SelfAnalyzer,
    /// When the job started executing.
    pub started_at: SimTime,
    /// Memoized integer points of `spec.speedup`.
    pub speedup_memo: SpeedupMemo,
}

/// Memo statistics harvested when a job leaves the store.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoStats {
    /// Speedup-memo cache hits.
    pub hits: u64,
    /// Speedup-memo cache misses.
    pub misses: u64,
}

/// The running-job set in struct-of-arrays layout, every vector indexed by
/// arrival-order position.
#[derive(Clone, Debug, Default)]
pub struct JobStore {
    /// `JobId → position` (job ids are dense submission ranks, so a vector
    /// beats a hash map); `VACANT` marks a job that is not running.
    pos_of: Vec<u32>,
    /// The policy snapshot: id, request, allocation, last estimate and
    /// remaining work of each running job, kept current by the mutators.
    views: Vec<JobView>,

    // --- Hot fields, one dense vector each ---
    /// Progress rate in iterations per second (0 while stalled).
    rate: Vec<f64>,
    /// Remaining work: progress through the iterative region.
    progress: Vec<Progress>,
    /// Last instant progress was advanced to.
    advanced_to: Vec<SimTime>,
    /// Integral of allocated processors over time.
    cpu_seconds: Vec<f64>,
    /// When the current iteration began (the measurement window start).
    iter_started_at: Vec<SimTime>,
    /// True when the in-flight iteration mixes two allocations.
    iter_polluted: Vec<bool>,
    /// Sequential seconds of the job's *current* iteration, overhead
    /// included — a hot mirror of `spec.seq_iter_time_at(done)` refreshed
    /// on every rate change, so the remaining-work estimate never touches
    /// cold state.
    seq_iter_secs: Vec<f64>,

    /// Cold remainder.
    cold: Vec<JobCold>,
}

/// Estimated sequential seconds remaining: outstanding iterations (partial
/// current one included) times the current per-iteration sequential time.
#[inline]
fn remaining_secs(progress: &Progress, seq_iter_secs: f64) -> f64 {
    let whole = progress
        .iterations_total()
        .saturating_sub(progress.iterations_done()) as f64;
    let remaining_iters = (whole - progress.current_fraction()).max(0.0);
    remaining_iters * seq_iter_secs
}

impl JobStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        JobStore::default()
    }

    /// Number of running jobs.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when no jobs are running.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// True when `job` is running.
    pub fn contains(&self, job: JobId) -> bool {
        self.pos_of
            .get(job.0 as usize)
            .is_some_and(|&p| p != VACANT)
    }

    #[inline]
    fn pos(&self, job: JobId) -> usize {
        let p = self.pos_of[job.0 as usize];
        debug_assert!(p != VACANT, "job {} is not running", job.0);
        p as usize
    }

    /// The job at arrival-order position `i`.
    pub fn id_at(&self, i: usize) -> JobId {
        self.views[i].id
    }

    /// Running job ids in arrival order.
    pub fn ids_in_order(&self) -> impl Iterator<Item = JobId> + '_ {
        self.views.iter().map(|v| v.id)
    }

    /// The policy snapshot of the running jobs, in arrival order. Always
    /// current: it equals what [`fill_views`](Self::fill_views) builds.
    #[inline]
    pub fn views(&self) -> &[JobView] {
        &self.views
    }

    /// Admits a job at the end of the arrival order, with its runtime
    /// state initialized exactly as a fresh start at `now`; returns its
    /// position.
    pub fn start(
        &mut self,
        job: JobId,
        spec: ApplicationSpec,
        analyzer: SelfAnalyzer,
        now: SimTime,
    ) -> usize {
        let id_idx = job.0 as usize;
        if self.pos_of.len() <= id_idx {
            self.pos_of.resize(id_idx + 1, VACANT);
        }
        assert_eq!(self.pos_of[id_idx], VACANT, "job {} already running", job.0);
        let p = self.views.len();
        let progress = Progress::new(spec.iterations);
        let seq_iter_secs = spec.seq_iter_time_at(0).as_secs() * (1.0 + spec.measurement_overhead);
        self.views.push(JobView {
            id: job,
            request: spec.request,
            allocated: 0,
            last_sample: None,
            remaining_secs: remaining_secs(&progress, seq_iter_secs),
        });
        self.rate.push(0.0);
        self.progress.push(progress);
        self.advanced_to.push(now);
        self.cpu_seconds.push(0.0);
        self.iter_started_at.push(now);
        self.iter_polluted.push(false);
        self.seq_iter_secs.push(seq_iter_secs);
        self.cold.push(JobCold {
            spec,
            analyzer,
            started_at: now,
            speedup_memo: SpeedupMemo::new(),
        });
        self.pos_of[id_idx] = p as u32;
        p
    }

    /// Removes a job (completion, crash), shifting the later positions
    /// down, and returns the harvested speedup-memo statistics.
    pub fn remove(&mut self, job: JobId) -> MemoStats {
        let p = self.pos_of[job.0 as usize];
        assert!(p != VACANT, "job {} is not running", job.0);
        self.pos_of[job.0 as usize] = VACANT;
        let p = p as usize;
        self.views.remove(p);
        for view in &self.views[p..] {
            self.pos_of[view.id.0 as usize] -= 1;
        }
        self.rate.remove(p);
        self.progress.remove(p);
        self.advanced_to.remove(p);
        self.cpu_seconds.remove(p);
        self.iter_started_at.remove(p);
        self.iter_polluted.remove(p);
        self.seq_iter_secs.remove(p);
        let cold = self.cold.remove(p);
        let (hits, misses) = cold.speedup_memo.stats();
        MemoStats { hits, misses }
    }

    /// Sum of speedup-memo stats over the jobs still running (harvested
    /// at the simulation bound).
    pub fn remaining_memo_stats(&self) -> MemoStats {
        let mut out = MemoStats::default();
        for cold in &self.cold {
            let (h, m) = cold.speedup_memo.stats();
            out.hits += h;
            out.misses += m;
        }
        out
    }

    // --- Dense scans ---

    /// Rebuilds the policy snapshot into `out`, in arrival order, with the
    /// request taken from the spec and the remaining work recomputed from
    /// the lanes — what [`views`](Self::views) must always equal. The
    /// allocation and the last estimate are stored only in the views and
    /// are copied.
    pub fn fill_views(&self, out: &mut Vec<JobView>) {
        out.clear();
        out.extend(self.views.iter().enumerate().map(|(p, view)| JobView {
            request: self.cold[p].spec.request,
            remaining_secs: remaining_secs(&self.progress[p], self.seq_iter_secs[p]),
            ..*view
        }));
    }

    /// The policy-view snapshot of one job.
    pub fn view_of(&self, job: JobId) -> JobView {
        self.views[self.pos(job)].clone()
    }

    /// Sum of current allocations over all running jobs.
    pub fn total_allocated(&self) -> usize {
        self.views.iter().map(|v| v.allocated).sum()
    }

    /// Sum of effective processors over all running jobs (time-shared
    /// rate model).
    pub fn total_effective_procs(&self) -> usize {
        (0..self.len()).map(|p| self.effective_procs_at(p)).sum()
    }

    // --- Per-job accessors ---

    /// Current allocation.
    pub fn allocated(&self, job: JobId) -> usize {
        self.views[self.pos(job)].allocated
    }

    /// Sets the allocation (the caller handles machine/placement state).
    pub fn set_allocated(&mut self, job: JobId, alloc: usize) {
        let p = self.pos(job);
        self.views[p].allocated = alloc;
    }

    /// Requested processors.
    pub fn request(&self, job: JobId) -> usize {
        self.views[self.pos(job)].request
    }

    /// Current progress rate (iterations per second).
    pub fn rate(&self, job: JobId) -> f64 {
        self.rate[self.pos(job)]
    }

    /// The job's application class (cold read).
    pub fn class(&self, job: JobId) -> pdpa_apps::AppClass {
        self.cold_ref(job).spec.class
    }

    /// The job's phase-change marker, if any.
    pub fn phase_change(&self, job: JobId) -> Option<PhaseChange> {
        self.cold_ref(job).spec.phase_change
    }

    /// When the job started executing.
    pub fn started_at(&self, job: JobId) -> SimTime {
        self.cold_ref(job).started_at
    }

    /// Iterations fully completed so far.
    pub fn iterations_done(&self, job: JobId) -> u32 {
        self.progress[self.pos(job)].iterations_done()
    }

    /// True when the job has crossed its final iteration boundary.
    pub fn is_complete(&self, job: JobId) -> bool {
        self.progress[self.pos(job)].is_complete()
    }

    /// Measurement-window start of the in-flight iteration.
    pub fn iter_started_at(&self, job: JobId) -> SimTime {
        self.iter_started_at[self.pos(job)]
    }

    /// Restarts the measurement window at `now`.
    pub fn set_iter_started_at(&mut self, job: JobId, now: SimTime) {
        let p = self.pos(job);
        self.iter_started_at[p] = now;
    }

    /// True when the in-flight iteration mixes two allocations.
    pub fn iter_polluted(&self, job: JobId) -> bool {
        self.iter_polluted[self.pos(job)]
    }

    /// Marks/clears the mixed-allocation flag.
    pub fn set_iter_polluted(&mut self, job: JobId, polluted: bool) {
        let p = self.pos(job);
        self.iter_polluted[p] = polluted;
    }

    fn cold_ref(&self, job: JobId) -> &JobCold {
        &self.cold[self.pos(job)]
    }

    // --- Runtime arithmetic (the former `RunningJob` methods) ---

    /// Advances progress (and the allocation integral) to `now` at the
    /// current rate. Returns the number of iteration boundaries crossed.
    pub fn advance_to(&mut self, job: JobId, now: SimTime) -> u32 {
        let p = self.pos(job);
        if now <= self.advanced_to[p] {
            return 0;
        }
        let dt = now.since(self.advanced_to[p]);
        let view = &mut self.views[p];
        self.cpu_seconds[p] += view.allocated as f64 * dt.as_secs();
        self.advanced_to[p] = now;
        let crossed = self.progress[p].advance(dt, self.rate[p]);
        view.remaining_secs = remaining_secs(&self.progress[p], self.seq_iter_secs[p]);
        crossed
    }

    /// The processors the application actually uses right now (the
    /// SelfAnalyzer restrains to the baseline processors during the
    /// baseline phase, §3.1).
    pub fn effective_procs(&self, job: JobId) -> usize {
        self.effective_procs_at(self.pos(job))
    }

    fn effective_procs_at(&self, p: usize) -> usize {
        self.cold[p]
            .analyzer
            .effective_procs(self.views[p].allocated)
    }

    /// Charges a reallocation penalty as progress debt. Debt does not move
    /// the remaining work until progress is advanced, so the view stays.
    pub fn charge(&mut self, job: JobId, penalty: SimDuration) {
        let p = self.pos(job);
        self.progress[p].add_debt(penalty);
    }

    /// Time until the current iteration ends at the current rate.
    pub fn time_to_iteration_end(&self, job: JobId) -> Option<SimDuration> {
        let p = self.pos(job);
        self.progress[p].time_to_iteration_end(self.rate[p])
    }

    /// Average processors held over the job's lifetime so far.
    pub fn average_allocation(&self, job: JobId, now: SimTime) -> f64 {
        let p = self.pos(job);
        let allocated = self.views[p].allocated as f64;
        let lifetime = now.since(self.cold[p].started_at).as_secs();
        if lifetime <= 0.0 {
            return allocated;
        }
        // Include the un-integrated tail at the current allocation.
        let tail = now.since(self.advanced_to[p]).as_secs();
        (self.cpu_seconds[p] + allocated * tail) / lifetime
    }

    /// Feeds a measured iteration to the job's SelfAnalyzer, updating
    /// the view's last estimate when one comes back.
    pub fn record_iteration(
        &mut self,
        job: JobId,
        procs: usize,
        measured: SimDuration,
    ) -> Option<PerfSample> {
        let p = self.pos(job);
        let sample = self.cold[p].analyzer.record_iteration(procs, measured);
        if sample.is_some() {
            self.views[p].last_sample = sample;
        }
        sample
    }

    /// Resets the job's SelfAnalyzer (working-set phase change, §3.1)
    /// and clears its last estimate.
    pub fn reset_analyzer(&mut self, job: JobId) {
        let p = self.pos(job);
        self.cold[p].analyzer.reset();
        self.views[p].last_sample = None;
    }

    /// Recomputes the job's progress rate from `eff` effective
    /// processors and a sharing-model throughput `factor` (1.0 under
    /// space sharing). The speedup curve is evaluated through the job's
    /// memo; the current iteration's sequential time honours working-set
    /// phase changes.
    pub fn set_rate_from(&mut self, job: JobId, eff: f64, factor: f64) {
        let p = self.pos(job);
        let cold = &mut self.cold[p];
        let speedup = cold
            .speedup_memo
            .fractional(cold.spec.speedup.as_ref(), eff);
        let iter_secs = cold
            .spec
            .seq_iter_time_at(self.progress[p].iterations_done())
            .as_secs()
            * (1.0 + cold.spec.measurement_overhead);
        // Keep the hot mirror current: working-set phase changes move the
        // per-iteration time, and every such move passes through here.
        if self.seq_iter_secs[p] != iter_secs {
            self.seq_iter_secs[p] = iter_secs;
            self.views[p].remaining_secs = remaining_secs(&self.progress[p], iter_secs);
        }
        self.rate[p] = if speedup > 0.0 {
            speedup * factor / iter_secs
        } else {
            0.0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_apps::paper::apsi;
    use pdpa_perf::SelfAnalyzerConfig;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn store_with_job() -> (JobStore, JobId) {
        let mut store = JobStore::new();
        let job = JobId(0);
        store.start(
            job,
            apsi(),
            SelfAnalyzer::new(SelfAnalyzerConfig::default()),
            t(10.0),
        );
        (store, job)
    }

    #[test]
    fn starts_stalled() {
        let (store, job) = store_with_job();
        assert_eq!(store.allocated(job), 0);
        assert_eq!(store.rate(job), 0.0);
        assert!(store.time_to_iteration_end(job).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn advance_integrates_cpu_seconds() {
        let (mut store, job) = store_with_job();
        store.set_allocated(job, 4);
        store.set_rate_from(job, 4.0, 1.0);
        // Pin the rate for arithmetic clarity.
        let s = store.pos(job);
        store.rate[s] = 0.5;
        assert_eq!(store.advance_to(job, t(12.0)), 1);
        assert_eq!(store.cpu_seconds[s], 8.0);
        assert_eq!(store.iterations_done(job), 1);
        // Idempotent at the same instant.
        assert_eq!(store.advance_to(job, t(12.0)), 0);
        assert_eq!(store.cpu_seconds[s], 8.0);
    }

    #[test]
    fn baseline_restrains_effective_procs() {
        let (mut store, job) = store_with_job();
        store.set_allocated(job, 30);
        assert_eq!(store.effective_procs(job), 2);
    }

    #[test]
    fn average_allocation_counts_tail() {
        let (mut store, job) = store_with_job();
        store.set_allocated(job, 6);
        assert!((store.average_allocation(job, t(20.0)) - 6.0).abs() < 1e-12);
        store.advance_to(job, t(20.0));
        store.set_allocated(job, 2);
        assert!((store.average_allocation(job, t(30.0)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn charge_adds_debt() {
        let (mut store, job) = store_with_job();
        store.set_allocated(job, 2);
        let s = store.pos(job);
        store.rate[s] = 1.0;
        store.charge(job, SimDuration::from_secs(3.0));
        let eta = store.time_to_iteration_end(job).unwrap();
        assert!((eta.as_secs() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn removal_shifts_positions_and_order_tracks_arrivals() {
        let mut store = JobStore::new();
        for i in 0..3u32 {
            store.start(JobId(i), apsi(), SelfAnalyzer::default(), t(0.0));
        }
        assert_eq!(store.ids_in_order().collect::<Vec<_>>().len(), 3);
        store.remove(JobId(1));
        assert_eq!(
            store.ids_in_order().map(|j| j.0).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(store.pos(JobId(2)), 1, "the later job moved down");
        // Arrival order puts the newcomer last.
        assert_eq!(
            store.start(JobId(7), apsi(), SelfAnalyzer::default(), t(5.0)),
            2
        );
        assert_eq!(
            store.ids_in_order().map(|j| j.0).collect::<Vec<_>>(),
            vec![0, 2, 7]
        );
        assert!(store.contains(JobId(7)));
        assert!(!store.contains(JobId(1)));
        // Views snapshot in the same order.
        let mut views = Vec::new();
        store.fill_views(&mut views);
        assert_eq!(views.iter().map(|v| v.id.0).collect::<Vec<_>>(), [0, 2, 7]);
    }

    #[test]
    fn views_estimate_remaining_sequential_work() {
        let (mut store, job) = store_with_job();
        let spec = apsi();
        let per_iter = spec.seq_iter_time_at(0).as_secs() * (1.0 + spec.measurement_overhead);
        let total = spec.iterations as f64;
        let v0 = store.view_of(job);
        assert!(
            (v0.remaining_secs - total * per_iter).abs() < 1e-9,
            "fresh job owes all iterations: {} vs {}",
            v0.remaining_secs,
            total * per_iter
        );
        // Run one iteration's worth of progress: the estimate shrinks by
        // exactly one per-iteration quantum.
        store.set_allocated(job, 2);
        store.set_rate_from(job, 2.0, 1.0);
        let eta = store.time_to_iteration_end(job).unwrap();
        store.advance_to(job, t(10.0 + eta.as_secs()));
        let v1 = store.view_of(job);
        assert!(
            (v1.remaining_secs - (total - 1.0) * per_iter).abs() < 1e-6,
            "one iteration done: {} vs {}",
            v1.remaining_secs,
            (total - 1.0) * per_iter
        );
        assert!(v1.remaining_secs < v0.remaining_secs);
        // Both view paths agree.
        let mut views = Vec::new();
        store.fill_views(&mut views);
        assert_eq!(views[0].remaining_secs, v1.remaining_secs);
    }

    /// The rendered views of `store`, checked against a fresh fill.
    fn snapshot(store: &JobStore) -> String {
        let mut fresh = Vec::new();
        store.fill_views(&mut fresh);
        let views = format!("{:?}", store.views());
        assert_eq!(
            views,
            format!("{fresh:?}"),
            "views drifted from a fresh fill"
        );
        views
    }

    /// Asserts that the views moved since `before`; returns the new
    /// rendering.
    fn assert_moved(before: &str, store: &JobStore, what: &str) -> String {
        let after = snapshot(store);
        assert_ne!(after, before, "{what} should change the views");
        after
    }

    #[test]
    fn every_view_affecting_mutator_writes_the_view() {
        // Policies read the store's views as they stand, so every mutator
        // that changes what `fill_views` produces must write the view.
        let mut store = JobStore::new();
        let job = JobId(0);
        let mut last = snapshot(&store);
        store.start(
            job,
            apsi().with_phase_change(1, 2.0),
            SelfAnalyzer::default(),
            t(0.0),
        );
        last = assert_moved(&last, &store, "start");
        store.set_allocated(job, 2);
        last = assert_moved(&last, &store, "set_allocated");
        store.set_rate_from(job, 2.0, 1.0);
        assert_eq!(snapshot(&store), last, "same iteration time, same view");
        let eta = store.time_to_iteration_end(job).unwrap();
        store.advance_to(job, t(eta.as_secs()));
        last = assert_moved(&last, &store, "advance_to");
        // Past the phase change the iteration time doubles.
        store.set_rate_from(job, 2.0, 1.0);
        last = assert_moved(&last, &store, "set_rate_from");
        // Mutators outside the view leave it alone.
        store.set_iter_polluted(job, true);
        store.set_iter_started_at(job, t(1.0));
        store.charge(job, SimDuration::from_secs(1.0));
        assert_eq!(snapshot(&store), last);
        let mut reported = false;
        for _ in 0..10 {
            let sample = store.record_iteration(job, 2, SimDuration::from_secs(5.0));
            if sample.is_some() {
                last = assert_moved(&last, &store, "record_iteration with a sample");
                reported = true;
                break;
            }
            assert_eq!(snapshot(&store), last, "no sample, same view");
        }
        assert!(reported, "the analyzer never produced a sample");
        store.reset_analyzer(job);
        last = assert_moved(&last, &store, "reset_analyzer");
        store.start(JobId(1), apsi(), SelfAnalyzer::default(), t(2.0));
        last = assert_moved(&last, &store, "a second start");
        store.remove(job);
        assert_moved(&last, &store, "remove");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pdpa_apps::paper::{apsi, hydro2d};
    use proptest::prelude::*;

    /// One random store mutation, addressed to job `job`.
    #[derive(Clone, Debug)]
    enum Op {
        Start {
            job: u32,
            phased: bool,
        },
        Advance {
            job: u32,
            dt: f64,
        },
        Resize {
            job: u32,
            alloc: usize,
        },
        /// The engine's rate update: at the current allocation, after an
        /// advance that may have crossed a working-set phase change.
        Rate {
            job: u32,
        },
        Sample {
            job: u32,
            secs: f64,
        },
        Reset {
            job: u32,
        },
        Remove {
            job: u32,
        },
        Recycle,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..6, proptest::bool::ANY).prop_map(|(job, phased)| Op::Start { job, phased }),
            (0u32..6, 0.0f64..400.0).prop_map(|(job, dt)| Op::Advance { job, dt }),
            (0u32..6, 0usize..12).prop_map(|(job, alloc)| Op::Resize { job, alloc }),
            (0u32..6).prop_map(|job| Op::Rate { job }),
            (0u32..6, 1.0f64..50.0).prop_map(|(job, secs)| Op::Sample { job, secs }),
            (0u32..6).prop_map(|job| Op::Reset { job }),
            (0u32..6).prop_map(|job| Op::Remove { job }),
            // The newest running job leaves and a never-seen one starts,
            // taking over its arrival-order position.
            Just(Op::Recycle),
        ]
    }

    /// What the views must say of one job, tracked outside the store:
    /// `(id, request, allocation, last estimate)`.
    type Expected = (JobId, usize, usize, Option<PerfSample>);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every op of any sequence of starts, advances, resizes,
        /// rate updates across phase changes, samples, resets, removals
        /// and recycled positions, the store's views equal a fresh
        /// `fill_views`, and their ids, requests, allocations and
        /// estimates equal a model kept by the test.
        #[test]
        fn views_equal_a_fresh_fill_after_every_op(
            ops in proptest::collection::vec(arb_op(), 1..80),
        ) {
            let mut store = JobStore::new();
            let mut model: Vec<Expected> = Vec::new();
            let mut next_job = 6;
            let mut now = 0.0;
            for op in ops {
                let at = |job: u32, model: &[Expected]| {
                    model.iter().position(|e| e.0 == JobId(job))
                };
                match op {
                    Op::Start { job, phased } => {
                        if at(job, &model).is_none() {
                            let spec = if phased {
                                hydro2d().with_phase_change(2, 1.5)
                            } else {
                                apsi()
                            };
                            model.push((JobId(job), spec.request, 0, None));
                            let when = SimTime::from_secs(now);
                            store.start(JobId(job), spec, SelfAnalyzer::default(), when);
                        }
                    }
                    Op::Advance { job, dt } => {
                        now += dt;
                        if at(job, &model).is_some() {
                            store.advance_to(JobId(job), SimTime::from_secs(now));
                        }
                    }
                    Op::Resize { job, alloc } => {
                        if let Some(i) = at(job, &model) {
                            store.set_allocated(JobId(job), alloc);
                            model[i].2 = alloc;
                        }
                    }
                    Op::Rate { job } => {
                        if let Some(i) = at(job, &model) {
                            store.set_rate_from(JobId(job), model[i].2 as f64, 1.0);
                        }
                    }
                    Op::Sample { job, secs } => {
                        if let Some(i) = at(job, &model) {
                            let measured = SimDuration::from_secs(secs);
                            if let Some(s) = store.record_iteration(JobId(job), model[i].2, measured) {
                                model[i].3 = Some(s);
                            }
                        }
                    }
                    Op::Reset { job } => {
                        if let Some(i) = at(job, &model) {
                            store.reset_analyzer(JobId(job));
                            model[i].3 = None;
                        }
                    }
                    Op::Remove { job } => {
                        if let Some(i) = at(job, &model) {
                            store.remove(JobId(job));
                            model.remove(i);
                        }
                    }
                    Op::Recycle => {
                        if let Some(&(newest, ..)) = model.last() {
                            store.remove(newest);
                            model.pop();
                            let when = SimTime::from_secs(now);
                            let p = store.start(JobId(next_job), apsi(), SelfAnalyzer::default(), when);
                            prop_assert_eq!(p, model.len());
                            model.push((JobId(next_job), apsi().request, 0, None));
                            next_job += 1;
                        }
                    }
                }
                let mut fresh = Vec::new();
                store.fill_views(&mut fresh);
                prop_assert_eq!(format!("{:?}", store.views()), format!("{fresh:?}"));
                let seen: Vec<Expected> = store
                    .views()
                    .iter()
                    .map(|v| (v.id, v.request, v.allocated, v.last_sample))
                    .collect();
                prop_assert_eq!(&seen, &model);
                for (i, e) in model.iter().enumerate() {
                    prop_assert_eq!(store.pos(e.0), i);
                }
            }
        }
    }
}
