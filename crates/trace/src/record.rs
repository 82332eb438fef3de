//! Per-CPU activity records.

use pdpa_obs::{ObsEvent, Observer};
use pdpa_sim::{CpuId, JobId, SimTime};

/// One burst: a maximal interval during which a CPU continuously executed
/// the same job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActivityRecord {
    /// The CPU.
    pub cpu: CpuId,
    /// The job it executed.
    pub job: JobId,
    /// Burst start.
    pub start: SimTime,
    /// Burst end.
    pub end: SimTime,
}

impl ActivityRecord {
    /// Burst length in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end.since(self.start).as_secs()
    }
}

/// A finished trace: every burst of every CPU, plus machine metadata.
#[derive(Clone, Debug)]
pub struct Trace {
    /// All bursts, in completion order.
    pub records: Vec<ActivityRecord>,
    /// Number of CPUs in the machine.
    pub n_cpus: usize,
    /// The instant tracing stopped.
    pub end: SimTime,
}

impl Trace {
    /// Bursts of one CPU, in time order.
    pub fn bursts_of(&self, cpu: CpuId) -> impl Iterator<Item = &ActivityRecord> {
        self.records.iter().filter(move |r| r.cpu == cpu)
    }

    /// Total busy CPU-seconds in the trace.
    pub fn busy_cpu_seconds(&self) -> f64 {
        self.records.iter().map(ActivityRecord::duration_secs).sum()
    }

    /// Machine utilization over `[0, end]`: busy CPU-time over capacity.
    pub fn utilization(&self) -> f64 {
        let capacity = self.end.as_secs() * self.n_cpus as f64;
        if capacity == 0.0 {
            0.0
        } else {
            self.busy_cpu_seconds() / capacity
        }
    }
}

/// Folds a run's CPU occupancy into its per-CPU activity trace.
///
/// A caller that wants the Fig. 5 / Table 2 trace chains a `TraceObserver`
/// as the run's observer and calls [`into_trace`] at the run's end
/// instant. Every [`ObsEvent::CpuAssigned`] becomes one [`assign`], which
/// merges time into maximal same-job bursts (an `assign` to the job
/// already running is a no-op); other events are ignored.
///
/// [`assign`]: TraceObserver::assign
/// [`into_trace`]: TraceObserver::into_trace
#[derive(Clone, Debug)]
pub struct TraceObserver {
    /// Open burst per CPU: `(job, start)`.
    open: Vec<Option<(JobId, SimTime)>>,
    records: Vec<ActivityRecord>,
}

impl TraceObserver {
    /// Creates an observer for an `n_cpus` machine.
    pub fn new(n_cpus: usize) -> Self {
        TraceObserver {
            open: vec![None; n_cpus],
            records: Vec::new(),
        }
    }

    /// Sets the occupant of `cpu` at instant `now` (`None` = idle). Closes
    /// the previous burst if the occupant changed.
    pub fn assign(&mut self, cpu: CpuId, job: Option<JobId>, now: SimTime) {
        let slot = &mut self.open[cpu.index()];
        match (*slot, job) {
            (Some((cur, _)), Some(new)) if cur == new => {} // unchanged
            (Some((cur, start)), _) => {
                if now > start {
                    self.records.push(ActivityRecord {
                        cpu,
                        job: cur,
                        start,
                        end: now,
                    });
                }
                *slot = job.map(|j| (j, now));
            }
            (None, Some(new)) => *slot = Some((new, now)),
            (None, None) => {}
        }
    }

    /// Closes every open burst at `now` and returns the finished trace.
    pub fn into_trace(mut self, now: SimTime) -> Trace {
        let n_cpus = self.open.len();
        for (i, slot) in self.open.iter_mut().enumerate() {
            if let Some((job, start)) = slot.take() {
                if now > start {
                    self.records.push(ActivityRecord {
                        cpu: CpuId(i as u16),
                        job,
                        start,
                        end: now,
                    });
                }
            }
        }
        Trace {
            records: self.records,
            n_cpus,
            end: now,
        }
    }
}

impl Observer for TraceObserver {
    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        if let ObsEvent::CpuAssigned { cpu, job } = *event {
            self.assign(cpu, job, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn merges_same_job_assignments() {
        let mut c = TraceObserver::new(2);
        c.assign(CpuId(0), Some(JobId(1)), t(0.0));
        c.assign(CpuId(0), Some(JobId(1)), t(5.0)); // no-op
        let trace = c.into_trace(t(10.0));
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.records[0].duration_secs(), 10.0);
    }

    #[test]
    fn job_change_closes_burst() {
        let mut c = TraceObserver::new(1);
        c.assign(CpuId(0), Some(JobId(1)), t(0.0));
        c.assign(CpuId(0), Some(JobId(2)), t(4.0));
        let trace = c.into_trace(t(10.0));
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.records[0].job, JobId(1));
        assert_eq!(trace.records[0].duration_secs(), 4.0);
        assert_eq!(trace.records[1].job, JobId(2));
        assert_eq!(trace.records[1].duration_secs(), 6.0);
    }

    #[test]
    fn idle_gaps_are_not_recorded() {
        let mut c = TraceObserver::new(1);
        c.assign(CpuId(0), Some(JobId(1)), t(0.0));
        c.assign(CpuId(0), None, t(3.0));
        c.assign(CpuId(0), Some(JobId(1)), t(7.0));
        let trace = c.into_trace(t(10.0));
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.busy_cpu_seconds(), 6.0);
    }

    #[test]
    fn zero_length_bursts_are_dropped() {
        let mut c = TraceObserver::new(1);
        c.assign(CpuId(0), Some(JobId(1)), t(5.0));
        c.assign(CpuId(0), Some(JobId(2)), t(5.0));
        let trace = c.into_trace(t(5.0));
        assert!(trace.records.is_empty());
    }

    #[test]
    fn utilization() {
        let mut c = TraceObserver::new(2);
        c.assign(CpuId(0), Some(JobId(1)), t(0.0));
        // CPU 1 stays idle.
        let trace = c.into_trace(t(10.0));
        assert!((trace.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bus_events_reproduce_direct_assign_calls() {
        // The same occupancy story told twice: as direct assign calls and
        // as CpuAssigned events on the bus.
        let story: &[(f64, u16, Option<u32>)] = &[
            (0.0, 0, Some(1)),
            (0.0, 1, Some(1)),
            (4.0, 1, Some(2)),
            (6.0, 0, None),
            (7.0, 0, Some(2)),
        ];
        let mut direct = TraceObserver::new(2);
        let mut obs = TraceObserver::new(2);
        for &(at, cpu, job) in story {
            direct.assign(CpuId(cpu), job.map(JobId), t(at));
            obs.on_event(
                t(at),
                &ObsEvent::CpuAssigned {
                    cpu: CpuId(cpu),
                    job: job.map(JobId),
                },
            );
        }
        let a = direct.into_trace(t(10.0));
        let b = obs.into_trace(t(10.0));
        assert_eq!(a.records, b.records);
        assert_eq!(a.n_cpus, b.n_cpus);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn non_cpu_events_are_ignored() {
        let mut obs = TraceObserver::new(1);
        obs.on_event(t(1.0), &ObsEvent::JobSubmitted { job: JobId(0) });
        obs.on_event(
            t(2.0),
            &ObsEvent::MplChanged {
                running: 1,
                total_alloc: 4,
            },
        );
        assert!(obs.into_trace(t(3.0)).records.is_empty());
    }

    #[test]
    fn bursts_of_filters_by_cpu() {
        let mut c = TraceObserver::new(2);
        c.assign(CpuId(0), Some(JobId(1)), t(0.0));
        c.assign(CpuId(1), Some(JobId(2)), t(0.0));
        let trace = c.into_trace(t(4.0));
        assert_eq!(trace.bursts_of(CpuId(0)).count(), 1);
        assert_eq!(trace.bursts_of(CpuId(1)).next().unwrap().job, JobId(2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under any assignment sequence with non-decreasing timestamps,
        /// the finished trace has (a) no overlapping bursts on any CPU,
        /// (b) only positive-length bursts, and (c) busy time equal to the
        /// sum of occupied intervals.
        #[test]
        fn collector_invariants(
            steps in proptest::collection::vec(
                (0u16..4, proptest::option::of(0u32..5), 0.0f64..3.0),
                0..60,
            )
        ) {
            let mut collector = TraceObserver::new(4);
            let mut now = 0.0f64;
            for (cpu, job, dt) in steps {
                now += dt;
                collector.assign(
                    CpuId(cpu),
                    job.map(JobId),
                    SimTime::from_secs(now),
                );
            }
            let trace = collector.into_trace(SimTime::from_secs(now + 1.0));
            for cpu in 0..4u16 {
                let mut bursts: Vec<&ActivityRecord> =
                    trace.bursts_of(CpuId(cpu)).collect();
                bursts.sort_by_key(|a| a.start);
                for r in &bursts {
                    prop_assert!(r.end > r.start, "zero/negative burst");
                }
                for pair in bursts.windows(2) {
                    prop_assert!(
                        pair[0].end <= pair[1].start,
                        "overlapping bursts on cpu{cpu}"
                    );
                }
            }
            let busy = trace.busy_cpu_seconds();
            prop_assert!(busy >= 0.0);
            prop_assert!(busy <= trace.end.as_secs() * 4.0 + 1e-9);
        }
    }
}
