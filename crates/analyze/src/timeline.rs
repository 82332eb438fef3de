//! Per-job timelines: queue wait, run spans, response and slowdown.
//!
//! Queue wait is measured from the stream's explicit queue → start
//! hand-off (`dequeue` events), not inferred from `submit`/`start` gaps:
//! a crashed job re-enters the queue after its retry backoff, and only the
//! hand-off event tells how long the *queue* (rather than the backoff)
//! held it.

use crate::fold::{self, slot_mut, Fold, JobIndex};
use pdpa_obs::{ObsEvent, TimedEvent};
use pdpa_sim::JobId;
use std::collections::BTreeMap;

/// The reconstructed lifecycle of one job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobTimeline {
    /// Submission instant, seconds.
    pub submitted: Option<f64>,
    /// Processors requested at submission (from the first `start`).
    pub request: Option<usize>,
    /// Every start instant (more than one when the job retried).
    pub starts: Vec<f64>,
    /// Completion instant, when the job finished.
    pub finished: Option<f64>,
    /// Terminal-failure instant, when the job exhausted its retries.
    pub failed: Option<f64>,
    /// Retries scheduled after crashes.
    pub retries: u32,
    /// Total seconds spent waiting in the queue (every visit; retry
    /// backoff is excluded — the queue clock restarts when it expires).
    pub queue_wait_secs: f64,
    /// Total seconds spent running (sum of start → finish/crash spans).
    pub run_secs: f64,
}

impl JobTimeline {
    /// Submission → completion, seconds.
    pub fn response_secs(&self) -> Option<f64> {
        Some(self.finished? - self.submitted?)
    }

    /// First start → completion, seconds.
    pub fn execution_secs(&self) -> Option<f64> {
        Some(self.finished? - *self.starts.first()?)
    }

    /// Response over execution (≥ 1; the paper's slowdown measure).
    pub fn slowdown(&self) -> Option<f64> {
        let exec = self.execution_secs()?;
        if exec > 0.0 {
            Some(self.response_secs()? / exec)
        } else {
            None
        }
    }
}

/// Aggregates over every job of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineStats {
    /// Jobs observed (submitted or started).
    pub jobs: usize,
    /// Jobs that completed.
    pub finished: usize,
    /// Jobs that failed terminally.
    pub failed: usize,
    /// Total retries across all jobs.
    pub retries: u64,
    /// Mean queue wait over all jobs, seconds.
    pub avg_queue_wait_secs: f64,
    /// Mean response time over completed jobs, seconds.
    pub avg_response_secs: f64,
    /// Mean slowdown over completed jobs.
    pub avg_slowdown: f64,
    /// Distribution of per-job slowdowns over completed jobs, when any
    /// completed. The headline number for trace replays: means hide the
    /// tail jobs an allocation policy starves.
    pub slowdown_dist: Option<SlowdownDist>,
}

/// Quantiles of the per-job slowdown distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SlowdownDist {
    /// Median slowdown.
    pub p50: f64,
    /// 90th-percentile slowdown.
    pub p90: f64,
    /// 99th-percentile slowdown.
    pub p99: f64,
    /// Worst per-job slowdown.
    pub max: f64,
}

impl SlowdownDist {
    /// Computes the quantiles from an unordered sample; `None` when empty.
    /// Quantiles use the nearest-rank method over the sorted sample, so
    /// every reported value is an actually observed slowdown.
    pub fn from_samples(samples: &[f64]) -> Option<SlowdownDist> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("slowdowns are finite"));
        // Nearest rank in exact integer arithmetic: rank = ⌈percent·n/100⌉,
        // clamped into [1, n]. The float form `(q * n).ceil()` overshoots
        // whenever the product rounds just above an integer (0.9 × 70 =
        // 63.000000000000016 → rank 64 instead of 63), silently reporting
        // a deeper tail value than asked for.
        let rank = |percent: usize| {
            let idx = (percent * sorted.len())
                .div_ceil(100)
                .clamp(1, sorted.len());
            sorted[idx - 1]
        };
        Some(SlowdownDist {
            p50: rank(50),
            p90: rank(90),
            p99: rank(99),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

/// Replays a stream into per-job timelines.
pub fn job_timelines(events: &[TimedEvent]) -> BTreeMap<JobId, JobTimeline> {
    fold::run(events, TimelineFold::default())
}

/// One job's timeline plus its open intervals.
#[derive(Debug, Default)]
struct JobClock {
    timeline: JobTimeline,
    /// The job has a timeline: it was submitted, started, retried,
    /// finished or failed (a job only ever seen in decisions or CPU
    /// grants has none).
    seen: bool,
    /// When the current queue wait began.
    wait_from: Option<f64>,
    /// When the current run span began.
    running_since: Option<f64>,
}

impl JobClock {
    fn timeline(&mut self) -> &mut JobTimeline {
        self.seen = true;
        &mut self.timeline
    }

    /// Ends the open run span, if any, at `now`.
    fn stop_running(&mut self, now: f64) {
        if let Some(since) = self.running_since.take() {
            self.timeline.run_secs += now - since;
        }
    }
}

/// The fold behind [`job_timelines`].
#[derive(Debug, Default)]
pub(crate) struct TimelineFold {
    clocks: Vec<JobClock>,
}

impl Fold for TimelineFold {
    type Output = BTreeMap<JobId, JobTimeline>;

    fn push(&mut self, now: f64, event: &ObsEvent, slot: Option<usize>) {
        let Some(slot) = slot else { return };
        let c = slot_mut(&mut self.clocks, slot);
        match event {
            ObsEvent::JobSubmitted { .. } => {
                c.timeline().submitted = Some(now);
                c.wait_from = Some(now);
            }
            ObsEvent::JobDequeued { .. } => {
                if let Some(since) = c.wait_from.take() {
                    c.timeline().queue_wait_secs += (now - since).max(0.0);
                }
            }
            ObsEvent::JobStarted { request, .. } => {
                let t = c.timeline();
                t.request.get_or_insert(*request);
                t.starts.push(now);
                c.running_since = Some(now);
            }
            ObsEvent::JobFinished { .. } => {
                c.timeline().finished = Some(now);
                c.stop_running(now);
            }
            ObsEvent::JobRetried { backoff_secs, .. } => {
                c.timeline().retries += 1;
                c.stop_running(now);
                // The job rejoins the queue once the backoff expires; queue
                // wait restarts there, not at the crash.
                c.wait_from = Some(now + backoff_secs);
            }
            ObsEvent::JobFailed { .. } => {
                c.timeline().failed = Some(now);
                c.stop_running(now);
                c.wait_from = None;
            }
            _ => {}
        }
    }

    fn finish(mut self, jobs: &JobIndex, _end: f64) -> Self::Output {
        jobs.by_id()
            .into_iter()
            .filter_map(|(job, slot)| {
                let c = self.clocks.get_mut(slot).filter(|c| c.seen)?;
                Some((job, std::mem::take(&mut c.timeline)))
            })
            .collect()
    }
}

/// Summarizes timelines into run-level statistics.
pub fn summarize(jobs: &BTreeMap<JobId, JobTimeline>) -> TimelineStats {
    let mut s = TimelineStats {
        jobs: jobs.len(),
        ..TimelineStats::default()
    };
    let mut wait_sum = 0.0;
    let mut response_sum = 0.0;
    let mut slowdowns = Vec::new();
    for t in jobs.values() {
        wait_sum += t.queue_wait_secs;
        s.retries += u64::from(t.retries);
        if t.finished.is_some() {
            s.finished += 1;
        }
        if t.failed.is_some() {
            s.failed += 1;
        }
        if let Some(r) = t.response_secs() {
            response_sum += r;
        }
        if let Some(sd) = t.slowdown() {
            slowdowns.push(sd);
        }
    }
    if s.jobs > 0 {
        s.avg_queue_wait_secs = wait_sum / s.jobs as f64;
    }
    if s.finished > 0 {
        s.avg_response_secs = response_sum / s.finished as f64;
    }
    if !slowdowns.is_empty() {
        s.avg_slowdown = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
    }
    s.slowdown_dist = SlowdownDist::from_samples(&slowdowns);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_sim::SimTime;

    fn te(at: f64, seq: u64, event: ObsEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        }
    }

    #[test]
    fn queue_wait_comes_from_dequeue_events() {
        let j = JobId(0);
        let stream = vec![
            te(10.0, 0, ObsEvent::JobSubmitted { job: j }),
            te(14.0, 1, ObsEvent::JobDequeued { job: j }),
            te(14.0, 2, ObsEvent::JobStarted { job: j, request: 8 }),
            te(50.0, 3, ObsEvent::JobFinished { job: j }),
        ];
        let jobs = job_timelines(&stream);
        let t = &jobs[&j];
        assert_eq!(t.queue_wait_secs, 4.0);
        assert_eq!(t.run_secs, 36.0);
        assert_eq!(t.response_secs(), Some(40.0));
        assert_eq!(t.execution_secs(), Some(36.0));
        assert!((t.slowdown().unwrap() - 40.0 / 36.0).abs() < 1e-12);
    }

    #[test]
    fn retry_backoff_is_not_queue_wait() {
        let j = JobId(1);
        let stream = vec![
            te(0.0, 0, ObsEvent::JobSubmitted { job: j }),
            te(0.0, 1, ObsEvent::JobDequeued { job: j }),
            te(0.0, 2, ObsEvent::JobStarted { job: j, request: 4 }),
            // Crash at t=20 with a 30 s backoff: eligible again at t=50,
            // re-dequeued at t=58 → 8 s of genuine queue wait.
            te(
                20.0,
                3,
                ObsEvent::JobRetried {
                    job: j,
                    attempt: 1,
                    backoff_secs: 30.0,
                },
            ),
            te(58.0, 4, ObsEvent::JobDequeued { job: j }),
            te(58.0, 5, ObsEvent::JobStarted { job: j, request: 4 }),
            te(100.0, 6, ObsEvent::JobFinished { job: j }),
        ];
        let jobs = job_timelines(&stream);
        let t = &jobs[&j];
        assert_eq!(t.retries, 1);
        assert_eq!(t.queue_wait_secs, 8.0);
        assert_eq!(t.run_secs, 20.0 + 42.0);
        assert_eq!(t.starts.len(), 2);
        let stats = summarize(&jobs);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.finished, 1);
    }

    #[test]
    fn terminal_failure_closes_the_run_span() {
        let j = JobId(2);
        let stream = vec![
            te(0.0, 0, ObsEvent::JobSubmitted { job: j }),
            te(1.0, 1, ObsEvent::JobDequeued { job: j }),
            te(1.0, 2, ObsEvent::JobStarted { job: j, request: 2 }),
            te(
                9.0,
                3,
                ObsEvent::JobFailed {
                    job: j,
                    attempts: 3,
                },
            ),
        ];
        let jobs = job_timelines(&stream);
        let t = &jobs[&j];
        assert_eq!(t.failed, Some(9.0));
        assert_eq!(t.run_secs, 8.0);
        assert_eq!(t.response_secs(), None);
        let stats = summarize(&jobs);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.finished, 0);
        assert_eq!(stats.slowdown_dist, None, "no completed jobs");
    }

    #[test]
    fn slowdown_quantiles_use_nearest_rank() {
        // 100 samples: 1.0, 2.0, …, 100.0.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = SlowdownDist::from_samples(&samples).unwrap();
        assert_eq!(d.p50, 50.0);
        assert_eq!(d.p90, 90.0);
        assert_eq!(d.p99, 99.0);
        assert_eq!(d.max, 100.0);
        // A single sample is every quantile at once.
        let one = SlowdownDist::from_samples(&[3.5]).unwrap();
        assert_eq!((one.p50, one.p90, one.p99, one.max), (3.5, 3.5, 3.5, 3.5));
        assert_eq!(SlowdownDist::from_samples(&[]), None);
    }

    #[test]
    fn quantile_rank_is_exact_at_awkward_sample_counts() {
        // Regression: with 70 samples, 0.9 × 70 = 63.000000000000016 in
        // floating point, so the old `(q * n).ceil()` rank picked the 64th
        // order statistic instead of the 63rd.
        let samples: Vec<f64> = (1..=70).map(f64::from).collect();
        let d = SlowdownDist::from_samples(&samples).unwrap();
        assert_eq!(d.p50, 35.0);
        assert_eq!(d.p90, 63.0);
        assert_eq!(d.p99, 70.0, "p99 of n < 100 is the max");
        assert_eq!(d.max, 70.0);
        // Small n: every quantile must stay inside the sample.
        for n in 1..=25usize {
            let samples: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let d = SlowdownDist::from_samples(&samples).unwrap();
            assert_eq!(d.p99, n as f64, "p99 at n={n} is the max");
            assert_eq!(d.max, n as f64);
        }
    }

    mod quantile_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Nearest-rank quantiles are ordered, and every reported value
            /// is a member of the sample (the defining property of the
            /// method).
            #[test]
            fn quantiles_are_ordered_sample_members(
                samples in proptest::collection::vec(1.0f64..1000.0, 1..300),
            ) {
                let d = SlowdownDist::from_samples(&samples).unwrap();
                prop_assert!(d.p50 <= d.p90);
                prop_assert!(d.p90 <= d.p99);
                prop_assert!(d.p99 <= d.max);
                for q in [d.p50, d.p90, d.p99, d.max] {
                    prop_assert!(
                        samples.contains(&q),
                        "quantile {} is not a sample member", q
                    );
                }
                if samples.len() < 100 {
                    let max = samples.iter().cloned().fold(f64::MIN, f64::max);
                    prop_assert_eq!(d.p99, max, "p99 of n < 100 is the max");
                }
            }
        }
    }

    #[test]
    fn summarize_reports_the_slowdown_distribution() {
        let mut stream = Vec::new();
        // Five jobs, all 10 s of execution, with waits 0,10,20,30,40 s →
        // slowdowns 1,2,3,4,5.
        for i in 0..5u32 {
            let j = JobId(i);
            let wait = f64::from(i) * 10.0;
            stream.push(te(0.0, u64::from(i) * 4, ObsEvent::JobSubmitted { job: j }));
            stream.push(te(
                wait,
                u64::from(i) * 4 + 1,
                ObsEvent::JobDequeued { job: j },
            ));
            stream.push(te(
                wait,
                u64::from(i) * 4 + 2,
                ObsEvent::JobStarted { job: j, request: 1 },
            ));
            stream.push(te(
                wait + 10.0,
                u64::from(i) * 4 + 3,
                ObsEvent::JobFinished { job: j },
            ));
        }
        let stats = summarize(&job_timelines(&stream));
        let d = stats.slowdown_dist.expect("five completed jobs");
        assert_eq!(d.p50, 3.0);
        assert_eq!(d.max, 5.0);
        assert!((stats.avg_slowdown - 3.0).abs() < 1e-12);
    }
}
