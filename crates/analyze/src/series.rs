//! Time-weighted capacity and multiprogramming-level series.
//!
//! Two views of the same machine: [`cpu_series`] integrates the per-CPU
//! occupancy stream into busy/idle/fragmentation cpu-seconds, and
//! [`mpl_stats`] summarizes the engine's own `mpl` samples (the Fig.-8
//! dynamics) into time-weighted means and peaks. Fragmentation is the
//! paper's complaint about rigid allocation made measurable: idle
//! capacity accumulated *while at least one job was waiting* in the
//! queue.

use crate::fold::{self, Fold, JobIndex};
use pdpa_obs::{ObsEvent, TimedEvent};

/// Integrated CPU-occupancy series over one recorded run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CpuSeries {
    /// Machine size: `DegradedCapacity`'s total when published, otherwise
    /// the highest CPU index seen plus one.
    pub cpus: usize,
    /// Occupied cpu-seconds integrated over the run.
    pub busy_cpu_secs: f64,
    /// Alive-but-idle cpu-seconds integrated over the run.
    pub idle_cpu_secs: f64,
    /// Idle cpu-seconds accumulated while ≥ 1 job was queued — capacity
    /// the scheduler could not hand to demonstrably waiting work.
    pub frag_cpu_secs: f64,
    /// Most CPUs simultaneously occupied.
    pub peak_busy: usize,
}

impl CpuSeries {
    /// Busy share of alive capacity, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_cpu_secs + self.idle_cpu_secs;
        if total > 0.0 {
            self.busy_cpu_secs / total
        } else {
            0.0
        }
    }
}

/// Multiprogramming-level statistics from the `mpl` sample stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MplStats {
    /// `mpl` samples observed.
    pub samples: usize,
    /// Time-weighted mean of concurrently running jobs.
    pub mean_running: f64,
    /// Time-weighted mean of total allocated processors.
    pub mean_allocated: f64,
    /// Peak concurrently running jobs.
    pub max_running: usize,
    /// Peak total allocated processors.
    pub max_allocated: usize,
}

/// Integrates the `cpu` occupancy stream (with `submit`/`dequeue`/`retry`
/// queue pressure and `cpu_failed`/`cpu_recovered` capacity changes) into
/// a [`CpuSeries`].
pub fn cpu_series(events: &[TimedEvent]) -> CpuSeries {
    fold::run(events, CpuFold::new(machine_size(events)))
}

/// The machine size a stream describes: the largest `DegradedCapacity`
/// total when the engine published one, otherwise the highest CPU index
/// seen plus one (0 for a stream without CPUs).
pub fn machine_size(events: &[TimedEvent]) -> usize {
    let mut scan = SizeScan::default();
    for te in events {
        scan.push(&te.event);
    }
    scan.size()
}

/// The inputs of [`machine_size`], read one event at a time.
#[derive(Clone, Copy, Debug, Default)]
struct SizeScan {
    /// The largest `DegradedCapacity` total so far (0 before the first).
    total: usize,
    /// The highest CPU index so far.
    max_cpu: Option<usize>,
}

impl SizeScan {
    #[inline]
    fn push(&mut self, event: &ObsEvent) {
        match event {
            ObsEvent::DegradedCapacity { total, .. } => self.total = self.total.max(*total),
            ObsEvent::CpuAssigned { cpu, .. }
            | ObsEvent::CpuFailed { cpu }
            | ObsEvent::CpuRecovered { cpu } => {
                self.max_cpu = Some(self.max_cpu.unwrap_or(0).max(cpu.index()));
            }
            _ => {}
        }
    }

    /// [`machine_size`] of the events pushed so far.
    fn size(&self) -> usize {
        if self.total > 0 {
            self.total
        } else {
            self.max_cpu.map_or(0, |m| m + 1)
        }
    }
}

/// What the CPU fold reads of one event: 4 bytes instead of the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CpuOp {
    /// A CPU's occupant was published (changed or re-announced).
    Assign { cpu: u16, occupied: bool },
    /// A CPU failed.
    Fail,
    /// A failed CPU came back.
    Recover,
    /// A job joined the queue (submission or retry).
    Enqueue,
    /// A job left the queue.
    Dequeue,
    /// Any other event: it only advances the clock.
    Tick,
}

impl CpuOp {
    #[inline]
    fn of(event: &ObsEvent) -> Self {
        match event {
            ObsEvent::CpuAssigned { cpu, job } => CpuOp::Assign {
                cpu: cpu.0,
                occupied: job.is_some(),
            },
            ObsEvent::CpuFailed { .. } => CpuOp::Fail,
            ObsEvent::CpuRecovered { .. } => CpuOp::Recover,
            ObsEvent::JobSubmitted { .. } | ObsEvent::JobRetried { .. } => CpuOp::Enqueue,
            ObsEvent::JobDequeued { .. } => CpuOp::Dequeue,
            _ => CpuOp::Tick,
        }
    }
}

/// The fold behind [`cpu_series`], for a machine of known size.
#[derive(Debug)]
pub(crate) struct CpuFold {
    series: CpuSeries,
    /// Whether each CPU is occupied.
    occupied: Vec<bool>,
    busy: usize,
    dead: usize,
    waiting: i64,
    /// The previous event's instant (`None` before the first).
    last: Option<f64>,
}

impl CpuFold {
    /// A fold over a `cpus`-CPU machine; with 0 CPUs it integrates
    /// nothing.
    pub(crate) fn new(cpus: usize) -> Self {
        CpuFold {
            series: CpuSeries {
                cpus,
                ..CpuSeries::default()
            },
            occupied: vec![false; cpus],
            busy: 0,
            dead: 0,
            waiting: 0,
            last: None,
        }
    }

    /// Integrates up to `now`, then applies `op`.
    #[inline]
    fn apply(&mut self, now: f64, op: CpuOp) {
        let series = &mut self.series;
        if series.cpus == 0 {
            return;
        }
        let dt = (now - self.last.unwrap_or(now)).max(0.0);
        self.last = Some(now);
        let idle = series
            .cpus
            .saturating_sub(self.dead)
            .saturating_sub(self.busy);
        series.busy_cpu_secs += self.busy as f64 * dt;
        series.idle_cpu_secs += idle as f64 * dt;
        if self.waiting > 0 {
            series.frag_cpu_secs += idle as f64 * dt;
        }
        match op {
            CpuOp::Assign {
                cpu,
                occupied: now_occupied,
            } => {
                if let Some(occupied) = self.occupied.get_mut(usize::from(cpu)) {
                    match (*occupied, now_occupied) {
                        (false, true) => self.busy += 1,
                        (true, false) => self.busy -= 1,
                        _ => {}
                    }
                    *occupied = now_occupied;
                    series.peak_busy = series.peak_busy.max(self.busy);
                }
            }
            CpuOp::Fail => self.dead += 1,
            CpuOp::Recover => self.dead = self.dead.saturating_sub(1),
            CpuOp::Enqueue => self.waiting += 1,
            CpuOp::Dequeue => self.waiting -= 1,
            CpuOp::Tick => {}
        }
    }
}

impl Fold for CpuFold {
    type Output = CpuSeries;

    fn push(&mut self, at: f64, event: &ObsEvent, _slot: Option<usize>) {
        self.apply(at, CpuOp::of(event));
    }

    fn finish(self, _jobs: &JobIndex, _end: f64) -> CpuSeries {
        self.series
    }
}

/// The CPU fold of an [`Analyzer`](crate::Analyzer): of a known size, or
/// sized from the stream as it is published.
///
/// A live fold cannot look ahead for [`machine_size`], so it holds each
/// event's [`CpuOp`] and instant until the size is settled, then replays
/// them in order and folds live from there. Every floating-point sum is
/// therefore taken in the order [`cpu_series`] takes it, and the result is
/// bit-identical. The size settles, for a run whose configured size is the
/// bound `cpus`, when
///
/// - a `degraded` event reports a total of `cpus`, or
/// - CPU `cpus − 1` is assigned before any `degraded` event;
///
/// a stream that never settles (no bound, a light load that leaves the top
/// CPU unassigned, a kind filter that drops every `cpu` event) is replayed
/// at the end under [`machine_size`]'s rule. The engine's streams meet the
/// bound's two conditions: CPU ids lie below the configured size and every
/// `degraded` total equals it. [`finish`](Fold::finish) panics when the
/// whole stream describes another size than the one it settled at.
#[derive(Debug)]
pub(crate) struct LiveCpuFold {
    /// The fold; a 0-CPU stand-in, which folds nothing, until the size is
    /// known.
    fold: CpuFold,
    /// `None` when the size was given.
    sizer: Option<Sizer>,
}

/// A live fold's sizing state.
#[derive(Debug)]
struct Sizer {
    /// The configured machine size, when known.
    bound: Option<usize>,
    /// Whether the size is settled and the fold live.
    settled: bool,
    scan: SizeScan,
    /// `(instant, op)` of every event until the size settles, less the
    /// clock-only events at the instant of the one before, which change
    /// nothing (a zero interval adds zero).
    pending: Vec<(f64, CpuOp)>,
}

impl Sizer {
    /// The machine size, once the events so far determine it.
    fn size(&self) -> Option<usize> {
        let bound = self.bound?;
        let top_assigned = self.scan.total == 0 && self.scan.max_cpu == bound.checked_sub(1);
        (bound > 0 && (self.scan.total == bound || top_assigned)).then_some(bound)
    }

    /// Holds one event's input; returns the machine size once the events
    /// so far settle it.
    #[inline(never)]
    fn hold(&mut self, at: f64, op: CpuOp) -> Option<usize> {
        let repeat = op == CpuOp::Tick && self.pending.last().is_some_and(|p| p.0 == at);
        if !repeat {
            self.pending.push((at, op));
        }
        let cpus = self.size()?;
        self.settled = true;
        Some(cpus)
    }

    /// A fold of `cpus` CPUs over the held events; frees them.
    fn replay(&mut self, cpus: usize) -> CpuFold {
        let mut fold = CpuFold::new(cpus);
        for &(at, op) in &self.pending {
            fold.apply(at, op);
        }
        self.pending = Vec::new();
        fold
    }
}

impl LiveCpuFold {
    /// A fold over a machine of exactly `cpus` CPUs.
    pub(crate) fn known(cpus: usize) -> Self {
        LiveCpuFold {
            fold: CpuFold::new(cpus),
            sizer: None,
        }
    }

    /// A fold sized from the stream; `bound` is the run's configured
    /// machine size, when known.
    pub(crate) fn live(bound: Option<usize>) -> Self {
        LiveCpuFold {
            fold: CpuFold::new(0),
            sizer: Some(Sizer {
                bound,
                settled: false,
                scan: SizeScan::default(),
                pending: Vec::new(),
            }),
        }
    }
}

impl Fold for LiveCpuFold {
    type Output = CpuSeries;

    #[inline]
    fn push(&mut self, at: f64, event: &ObsEvent, _slot: Option<usize>) {
        if let Some(sizer) = &mut self.sizer {
            sizer.scan.push(event);
            if !sizer.settled {
                if let Some(cpus) = sizer.hold(at, CpuOp::of(event)) {
                    self.fold = sizer.replay(cpus);
                }
                return;
            }
        }
        self.fold.apply(at, CpuOp::of(event));
    }

    fn finish(self, jobs: &JobIndex, end: f64) -> CpuSeries {
        let fold = match self.sizer {
            None => self.fold,
            Some(mut sizer) if !sizer.settled => sizer.replay(sizer.scan.size()),
            Some(sizer) => {
                let size = sizer.scan.size();
                assert_eq!(
                    self.fold.series.cpus, size,
                    "the live CPU fold settled at {} CPUs, but the stream describes {size}",
                    self.fold.series.cpus
                );
                self.fold
            }
        };
        fold.finish(jobs, end)
    }
}

/// Summarizes the `mpl` sample stream into [`MplStats`]. Each sample's
/// values are weighted by how long they held (until the next sample, or
/// the end of the stream for the last one).
pub fn mpl_stats(events: &[TimedEvent]) -> MplStats {
    fold::run(events, MplFold::default())
}

/// The fold behind [`mpl_stats`].
#[derive(Debug, Default)]
pub(crate) struct MplFold {
    stats: MplStats,
    /// The sample in force: (since, running, allocated).
    open: Option<(f64, usize, usize)>,
    weighted_running: f64,
    weighted_alloc: f64,
    span: f64,
}

impl MplFold {
    /// Weights the open sample by how long it held, up to `now`.
    fn close(&mut self, now: f64) {
        if let Some((since, r, a)) = self.open {
            let dt = (now - since).max(0.0);
            self.weighted_running += r as f64 * dt;
            self.weighted_alloc += a as f64 * dt;
            self.span += dt;
        }
    }
}

impl Fold for MplFold {
    type Output = MplStats;

    fn push(&mut self, now: f64, event: &ObsEvent, _slot: Option<usize>) {
        if let ObsEvent::MplChanged {
            running,
            total_alloc,
        } = event
        {
            self.close(now);
            let stats = &mut self.stats;
            stats.samples += 1;
            stats.max_running = stats.max_running.max(*running);
            stats.max_allocated = stats.max_allocated.max(*total_alloc);
            self.open = Some((now, *running, *total_alloc));
        }
    }

    fn finish(mut self, _jobs: &JobIndex, end: f64) -> MplStats {
        self.close(end);
        let mut stats = self.stats;
        if self.span > 0.0 {
            stats.mean_running = self.weighted_running / self.span;
            stats.mean_allocated = self.weighted_alloc / self.span;
        } else if let Some((_, r, a)) = self.open {
            // All samples at one instant: fall back to the last values.
            stats.mean_running = r as f64;
            stats.mean_allocated = a as f64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_sim::{CpuId, JobId, SimTime};

    fn te(at: f64, seq: u64, event: ObsEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        }
    }

    fn assign(at: f64, seq: u64, cpu: u16, job: Option<u32>) -> TimedEvent {
        te(
            at,
            seq,
            ObsEvent::CpuAssigned {
                cpu: CpuId(cpu),
                job: job.map(JobId),
            },
        )
    }

    #[test]
    fn busy_idle_and_fragmentation_integrate() {
        let stream = vec![
            // 2-CPU machine (highest index 1). Job 0 takes CPU 0 at t=0.
            te(0.0, 0, ObsEvent::JobSubmitted { job: JobId(0) }),
            te(0.0, 1, ObsEvent::JobDequeued { job: JobId(0) }),
            assign(0.0, 2, 0, Some(0)),
            assign(0.0, 3, 1, None),
            // Job 1 arrives at t=10 and waits 5 s while CPU 1 sits idle.
            te(10.0, 4, ObsEvent::JobSubmitted { job: JobId(1) }),
            te(15.0, 5, ObsEvent::JobDequeued { job: JobId(1) }),
            assign(15.0, 6, 1, Some(1)),
            // Both release at t=20.
            assign(20.0, 7, 0, None),
            assign(20.0, 8, 1, None),
        ];
        let s = cpu_series(&stream);
        assert_eq!(s.cpus, 2);
        // CPU 0 busy 0..20, CPU 1 busy 15..20.
        assert!((s.busy_cpu_secs - 25.0).abs() < 1e-9);
        assert!((s.idle_cpu_secs - 15.0).abs() < 1e-9);
        // Fragmentation: CPU 1 idle while job 1 waited, t=10..15.
        assert!((s.frag_cpu_secs - 5.0).abs() < 1e-9);
        assert_eq!(s.peak_busy, 2);
        assert!((s.utilization() - 25.0 / 40.0).abs() < 1e-9);
    }

    #[test]
    fn mpl_means_are_time_weighted() {
        let stream = vec![
            te(
                0.0,
                0,
                ObsEvent::MplChanged {
                    running: 1,
                    total_alloc: 8,
                },
            ),
            te(
                10.0,
                1,
                ObsEvent::MplChanged {
                    running: 3,
                    total_alloc: 32,
                },
            ),
            // Stream ends at t=30: the second sample holds for 20 s.
            te(30.0, 2, ObsEvent::JobFinished { job: JobId(0) }),
        ];
        let m = mpl_stats(&stream);
        assert_eq!(m.samples, 2);
        assert_eq!(m.max_running, 3);
        assert_eq!(m.max_allocated, 32);
        assert!((m.mean_running - (1.0 * 10.0 + 3.0 * 20.0) / 30.0).abs() < 1e-9);
        assert!((m.mean_allocated - (8.0 * 10.0 + 32.0 * 20.0) / 30.0).abs() < 1e-9);
    }
}
