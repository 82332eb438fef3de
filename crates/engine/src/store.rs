//! Struct-of-arrays storage for the running-job set.
//!
//! The engine's hot loops — snapshotting `JobView`s for every policy
//! activation, summing allocations, recomputing every rate after a
//! capacity change — scan all running jobs but touch only a few small
//! fields each. The old `HashMap<JobId, RunningJob>` paid a pointer
//! chase and a ~200-byte cache line per job for every one of those
//! scans. [`JobStore`] instead keeps each hot field (remaining work,
//! allocation, progress rate, iteration deadline bookkeeping) in its own
//! dense vector, indexed by a *slot* assigned at admission; a slot map
//! translates [`JobId`]s, and `order` lists live slots in arrival order,
//! which is both the policy-context ordering and the cache-friendly scan
//! order. Cold state (the application spec, the SelfAnalyzer, the
//! speedup memo, the per-job noise stream) lives in a parallel vector of
//! [`JobCold`] records that only the per-iteration paths touch.
//!
//! Slots are recycled through a free list, so long replays with a
//! bounded multiprogramming level run in O(peak ML) memory regardless of
//! trace length.

use pdpa_apps::{ApplicationSpec, PhaseChange, Progress, SpeedupMemo};
use pdpa_perf::{PerfSample, SelfAnalyzer};
use pdpa_policies::JobView;
use pdpa_sim::{JobId, SimDuration, SimRng, SimTime};

/// Sentinel in the slot map for "not running".
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
    /// The job's private timing-noise stream (used by the sharded
    /// engine; the classic engine draws from its global stream).
    pub rng: SimRng,
}

/// Memo statistics harvested when a job leaves the store.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoStats {
    /// Speedup-memo cache hits.
    pub hits: u64,
    /// Speedup-memo cache misses.
    pub misses: u64,
}

/// The running-job set in struct-of-arrays layout.
#[derive(Clone, Debug, Default)]
pub struct JobStore {
    /// Bumped by every mutation that can change what [`fill_views`]
    /// produces, so a caller holding a filled snapshot can tell whether it
    /// is still current.
    ///
    /// [`fill_views`]: JobStore::fill_views
    version: u64,
    /// `JobId → slot` (job ids are dense submission ranks, so a vector
    /// beats a hash map); `VACANT` marks a job that is not running.
    slot_of: Vec<u32>,
    /// Live slots in arrival order — the scan and policy-view order.
    order: Vec<u32>,
    /// Recycled slots.
    free: Vec<u32>,

    // --- Hot fields, one dense vector each, indexed by slot ---
    /// Job id occupying each slot.
    ids: Vec<JobId>,
    /// Current allocation (processors or threads).
    allocated: Vec<usize>,
    /// Requested processors (`spec.request`, mirrored hot for views).
    request: Vec<usize>,
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
    /// The job's most recent performance estimate.
    last_sample: Vec<Option<PerfSample>>,
    /// Sequential seconds of the job's *current* iteration, overhead
    /// included — a hot mirror of `spec.seq_iter_time_at(done)` refreshed
    /// on every rate change so view snapshots never touch cold state.
    seq_iter_secs: Vec<f64>,

    /// Cold remainder, indexed by slot (`None` for free slots).
    cold: Vec<Option<JobCold>>,
}

/// Derives a job's private timing-noise stream from the run seed, the
/// job id, and the retry attempt. Pure — no draw is consumed from any
/// shared stream, so the derivation is identical at every shard count.
pub fn job_noise_rng(seed: u64, job: JobId, attempt: u32) -> SimRng {
    let mix = 0x9E37_79B9_7F4A_7C15u64
        .wrapping_mul(u64::from(job.0) + 1)
        .wrapping_add(u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03));
    SimRng::new(seed ^ mix)
}

impl JobStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        JobStore::default()
    }

    /// The view version: equal versions guarantee equal
    /// [`fill_views`](Self::fill_views) output.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of running jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no jobs are running.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// True when `job` is running.
    pub fn contains(&self, job: JobId) -> bool {
        self.slot_of
            .get(job.0 as usize)
            .is_some_and(|&s| s != VACANT)
    }

    #[inline]
    fn slot(&self, job: JobId) -> usize {
        let s = self.slot_of[job.0 as usize];
        debug_assert!(s != VACANT, "job {} is not running", job.0);
        s as usize
    }

    /// The job occupying arrival-order position `i`.
    pub fn id_at(&self, i: usize) -> JobId {
        self.ids[self.order[i] as usize]
    }

    /// Running job ids in arrival order.
    pub fn ids_in_order(&self) -> impl Iterator<Item = JobId> + '_ {
        self.order.iter().map(|&s| self.ids[s as usize])
    }

    /// Admits a job: assigns a slot (recycling freed ones) and
    /// initializes its runtime state exactly as a fresh start at `now`.
    pub fn start(
        &mut self,
        job: JobId,
        spec: ApplicationSpec,
        analyzer: SelfAnalyzer,
        now: SimTime,
        rng: SimRng,
    ) -> usize {
        let id_idx = job.0 as usize;
        if self.slot_of.len() <= id_idx {
            self.slot_of.resize(id_idx + 1, VACANT);
        }
        assert_eq!(
            self.slot_of[id_idx], VACANT,
            "job {} already running",
            job.0
        );
        let iterations = spec.iterations;
        let request = spec.request;
        let first_iter_secs =
            spec.seq_iter_time_at(0).as_secs() * (1.0 + spec.measurement_overhead);
        let cold = JobCold {
            spec,
            analyzer,
            started_at: now,
            speedup_memo: SpeedupMemo::new(),
            rng,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                self.ids[i] = job;
                self.allocated[i] = 0;
                self.request[i] = request;
                self.rate[i] = 0.0;
                self.progress[i] = Progress::new(iterations);
                self.advanced_to[i] = now;
                self.cpu_seconds[i] = 0.0;
                self.iter_started_at[i] = now;
                self.iter_polluted[i] = false;
                self.last_sample[i] = None;
                self.seq_iter_secs[i] = first_iter_secs;
                self.cold[i] = Some(cold);
                s
            }
            None => {
                let s = self.ids.len() as u32;
                self.ids.push(job);
                self.allocated.push(0);
                self.request.push(request);
                self.rate.push(0.0);
                self.progress.push(Progress::new(iterations));
                self.advanced_to.push(now);
                self.cpu_seconds.push(0.0);
                self.iter_started_at.push(now);
                self.iter_polluted.push(false);
                self.last_sample.push(None);
                self.seq_iter_secs.push(first_iter_secs);
                self.cold.push(Some(cold));
                s
            }
        };
        self.slot_of[id_idx] = slot;
        self.order.push(slot);
        self.version += 1;
        slot as usize
    }

    /// Removes a job (completion, crash), freeing its slot and returning
    /// the harvested speedup-memo statistics.
    pub fn remove(&mut self, job: JobId) -> MemoStats {
        let slot = self.slot_of[job.0 as usize];
        assert!(slot != VACANT, "job {} is not running", job.0);
        self.slot_of[job.0 as usize] = VACANT;
        self.order.retain(|&s| s != slot);
        self.version += 1;
        let cold = self.cold[slot as usize].take().expect("occupied slot");
        self.free.push(slot);
        let (hits, misses) = cold.speedup_memo.stats();
        MemoStats { hits, misses }
    }

    /// Sum of speedup-memo stats over the jobs still running (harvested
    /// at the simulation bound).
    pub fn remaining_memo_stats(&self) -> MemoStats {
        let mut out = MemoStats::default();
        for &s in &self.order {
            let (h, m) = self.cold[s as usize]
                .as_ref()
                .expect("occupied")
                .speedup_memo
                .stats();
            out.hits += h;
            out.misses += m;
        }
        out
    }

    // --- Dense scans ---

    /// Estimated sequential seconds remaining for the slot: outstanding
    /// iterations (partial current one included) times the current
    /// per-iteration sequential time. Hot lanes only.
    fn remaining_secs_slot(&self, i: usize) -> f64 {
        let p = &self.progress[i];
        let whole = p.iterations_total().saturating_sub(p.iterations_done()) as f64;
        let remaining_iters = (whole - p.current_fraction()).max(0.0);
        remaining_iters * self.seq_iter_secs[i]
    }

    /// Refills `out` with the policy-view snapshot, in arrival order.
    pub fn fill_views(&self, out: &mut Vec<JobView>) {
        out.clear();
        out.extend(self.order.iter().map(|&s| {
            let i = s as usize;
            JobView {
                id: self.ids[i],
                request: self.request[i],
                allocated: self.allocated[i],
                last_sample: self.last_sample[i],
                remaining_secs: self.remaining_secs_slot(i),
            }
        }));
    }

    /// The policy-view snapshot of one job.
    pub fn view_of(&self, job: JobId) -> JobView {
        let i = self.slot(job);
        JobView {
            id: self.ids[i],
            request: self.request[i],
            allocated: self.allocated[i],
            last_sample: self.last_sample[i],
            remaining_secs: self.remaining_secs_slot(i),
        }
    }

    /// Sum of current allocations over all running jobs.
    pub fn total_allocated(&self) -> usize {
        self.order.iter().map(|&s| self.allocated[s as usize]).sum()
    }

    /// Sum of effective processors over all running jobs (time-shared
    /// rate model).
    pub fn total_effective_procs(&self) -> usize {
        self.order
            .iter()
            .map(|&s| self.effective_procs_slot(s as usize))
            .sum()
    }

    // --- Per-job accessors ---

    /// Current allocation.
    pub fn allocated(&self, job: JobId) -> usize {
        self.allocated[self.slot(job)]
    }

    /// Sets the allocation (the caller handles machine/placement state).
    pub fn set_allocated(&mut self, job: JobId, alloc: usize) {
        let s = self.slot(job);
        self.allocated[s] = alloc;
        self.version += 1;
    }

    /// Requested processors.
    pub fn request(&self, job: JobId) -> usize {
        self.request[self.slot(job)]
    }

    /// Current progress rate (iterations per second).
    pub fn rate(&self, job: JobId) -> f64 {
        self.rate[self.slot(job)]
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
        self.progress[self.slot(job)].iterations_done()
    }

    /// True when the job has crossed its final iteration boundary.
    pub fn is_complete(&self, job: JobId) -> bool {
        self.progress[self.slot(job)].is_complete()
    }

    /// Measurement-window start of the in-flight iteration.
    pub fn iter_started_at(&self, job: JobId) -> SimTime {
        self.iter_started_at[self.slot(job)]
    }

    /// Restarts the measurement window at `now`.
    pub fn set_iter_started_at(&mut self, job: JobId, now: SimTime) {
        let s = self.slot(job);
        self.iter_started_at[s] = now;
    }

    /// True when the in-flight iteration mixes two allocations.
    pub fn iter_polluted(&self, job: JobId) -> bool {
        self.iter_polluted[self.slot(job)]
    }

    /// Marks/clears the mixed-allocation flag.
    pub fn set_iter_polluted(&mut self, job: JobId, polluted: bool) {
        let s = self.slot(job);
        self.iter_polluted[s] = polluted;
    }

    fn cold_ref(&self, job: JobId) -> &JobCold {
        self.cold[self.slot(job)].as_ref().expect("occupied slot")
    }

    /// Mutable access to the job's private noise stream.
    pub fn rng_mut(&mut self, job: JobId) -> &mut SimRng {
        let s = self.slot(job);
        &mut self.cold[s].as_mut().expect("occupied slot").rng
    }

    // --- Runtime arithmetic (the former `RunningJob` methods) ---

    /// Advances progress (and the allocation integral) to `now` at the
    /// current rate. Returns the number of iteration boundaries crossed.
    pub fn advance_to(&mut self, job: JobId, now: SimTime) -> u32 {
        let s = self.slot(job);
        if now <= self.advanced_to[s] {
            return 0;
        }
        let dt = now.since(self.advanced_to[s]);
        self.cpu_seconds[s] += self.allocated[s] as f64 * dt.as_secs();
        self.advanced_to[s] = now;
        self.version += 1;
        self.progress[s].advance(dt, self.rate[s])
    }

    /// The processors the application actually uses right now (the
    /// SelfAnalyzer restrains to the baseline processors during the
    /// baseline phase, §3.1).
    pub fn effective_procs(&self, job: JobId) -> usize {
        self.effective_procs_slot(self.slot(job))
    }

    fn effective_procs_slot(&self, s: usize) -> usize {
        self.cold[s]
            .as_ref()
            .expect("occupied slot")
            .analyzer
            .effective_procs(self.allocated[s])
    }

    /// Charges a reallocation penalty as progress debt. Debt is not part
    /// of a view, so the version stays.
    pub fn charge(&mut self, job: JobId, penalty: SimDuration) {
        let s = self.slot(job);
        self.progress[s].add_debt(penalty);
    }

    /// Time until the current iteration ends at the current rate.
    pub fn time_to_iteration_end(&self, job: JobId) -> Option<SimDuration> {
        let s = self.slot(job);
        self.progress[s].time_to_iteration_end(self.rate[s])
    }

    /// Average processors held over the job's lifetime so far.
    pub fn average_allocation(&self, job: JobId, now: SimTime) -> f64 {
        let s = self.slot(job);
        let lifetime = now
            .since(self.cold[s].as_ref().expect("occupied").started_at)
            .as_secs();
        if lifetime <= 0.0 {
            return self.allocated[s] as f64;
        }
        // Include the un-integrated tail at the current allocation.
        let tail = now.since(self.advanced_to[s]).as_secs();
        (self.cpu_seconds[s] + self.allocated[s] as f64 * tail) / lifetime
    }

    /// Feeds a measured iteration to the job's SelfAnalyzer, updating
    /// `last_sample` when an estimate comes back.
    pub fn record_iteration(
        &mut self,
        job: JobId,
        procs: usize,
        measured: SimDuration,
    ) -> Option<PerfSample> {
        let s = self.slot(job);
        let sample = self.cold[s]
            .as_mut()
            .expect("occupied slot")
            .analyzer
            .record_iteration(procs, measured);
        if let Some(sample) = sample {
            self.last_sample[s] = Some(sample);
            self.version += 1;
        }
        sample
    }

    /// Resets the job's SelfAnalyzer (working-set phase change, §3.1)
    /// and clears its last estimate.
    pub fn reset_analyzer(&mut self, job: JobId) {
        let s = self.slot(job);
        self.cold[s]
            .as_mut()
            .expect("occupied slot")
            .analyzer
            .reset();
        self.last_sample[s] = None;
        self.version += 1;
    }

    /// Recomputes the job's progress rate from `eff` effective
    /// processors and a sharing-model throughput `factor` (1.0 under
    /// space sharing). The speedup curve is evaluated through the job's
    /// memo; the current iteration's sequential time honours working-set
    /// phase changes.
    pub fn set_rate_from(&mut self, job: JobId, eff: f64, factor: f64) {
        let s = self.slot(job);
        let cold = self.cold[s].as_mut().expect("occupied slot");
        let speedup = cold
            .speedup_memo
            .fractional(cold.spec.speedup.as_ref(), eff);
        let iter_secs = cold
            .spec
            .seq_iter_time_at(self.progress[s].iterations_done())
            .as_secs()
            * (1.0 + cold.spec.measurement_overhead);
        // Keep the hot mirror current: working-set phase changes move the
        // per-iteration time, and every such move passes through here.
        if self.seq_iter_secs[s] != iter_secs {
            self.seq_iter_secs[s] = iter_secs;
            self.version += 1;
        }
        self.rate[s] = if speedup > 0.0 {
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
            job_noise_rng(1, job, 0),
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
        let s = store.slot(job);
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
        let s = store.slot(job);
        store.rate[s] = 1.0;
        store.charge(job, SimDuration::from_secs(3.0));
        let eta = store.time_to_iteration_end(job).unwrap();
        assert!((eta.as_secs() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn slots_recycle_and_order_tracks_arrivals() {
        let mut store = JobStore::new();
        for i in 0..3u32 {
            store.start(
                JobId(i),
                apsi(),
                SelfAnalyzer::default(),
                t(0.0),
                job_noise_rng(1, JobId(i), 0),
            );
        }
        assert_eq!(store.ids_in_order().collect::<Vec<_>>().len(), 3);
        store.remove(JobId(1));
        assert_eq!(
            store.ids_in_order().map(|j| j.0).collect::<Vec<_>>(),
            vec![0, 2]
        );
        // The freed slot is reused; arrival order puts the newcomer last.
        store.start(
            JobId(7),
            apsi(),
            SelfAnalyzer::default(),
            t(5.0),
            job_noise_rng(1, JobId(7), 0),
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

    /// The version and the rendered views of `store`.
    fn snapshot(store: &JobStore) -> (u64, String) {
        let mut views = Vec::new();
        store.fill_views(&mut views);
        (store.version(), format!("{views:?}"))
    }

    /// Asserts that the views moved since `before` and the version with
    /// them; returns the new snapshot.
    fn assert_moved(before: &(u64, String), store: &JobStore, what: &str) -> (u64, String) {
        let after = snapshot(store);
        assert_ne!(after.1, before.1, "{what} should change the views");
        assert_ne!(
            after.0, before.0,
            "{what} changed the views, not the version"
        );
        after
    }

    #[test]
    fn every_view_affecting_mutator_bumps_the_version() {
        // The engine skips a view refill while the version stands still,
        // so every mutator that changes what `fill_views` produces must
        // bump it.
        let mut store = JobStore::new();
        let job = JobId(0);
        let mut last = snapshot(&store);
        store.start(
            job,
            apsi().with_phase_change(1, 2.0),
            SelfAnalyzer::default(),
            t(0.0),
            job_noise_rng(1, job, 0),
        );
        last = assert_moved(&last, &store, "start");
        store.set_allocated(job, 2);
        last = assert_moved(&last, &store, "set_allocated");
        store.set_rate_from(job, 2.0, 1.0);
        assert_eq!(snapshot(&store).1, last.1, "same iteration time, same view");
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
        assert_eq!(snapshot(&store).1, last.1);
        let mut reported = false;
        for _ in 0..10 {
            let sample = store.record_iteration(job, 2, SimDuration::from_secs(5.0));
            if sample.is_some() {
                last = assert_moved(&last, &store, "record_iteration with a sample");
                reported = true;
                break;
            }
            assert_eq!(snapshot(&store).1, last.1, "no sample, same view");
        }
        assert!(reported, "the analyzer never produced a sample");
        store.reset_analyzer(job);
        last = assert_moved(&last, &store, "reset_analyzer");
        store.start(
            JobId(1),
            apsi(),
            SelfAnalyzer::default(),
            t(2.0),
            job_noise_rng(1, JobId(1), 0),
        );
        last = assert_moved(&last, &store, "a second start");
        store.remove(job);
        assert_moved(&last, &store, "remove");
    }

    #[test]
    fn noise_rng_is_pure_and_decorrelated() {
        let mut a = job_noise_rng(42, JobId(3), 0);
        let mut b = job_noise_rng(42, JobId(3), 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = job_noise_rng(42, JobId(4), 0);
        let mut d = job_noise_rng(42, JobId(3), 1);
        let base = job_noise_rng(42, JobId(3), 0).next_u64();
        assert_ne!(base, c.next_u64());
        assert_ne!(base, d.next_u64());
    }
}
