//! One-stop aggregation: every derived metric of a recorded run, plus
//! hand-built JSON export (`pdpa-analyze/v1`).
//!
//! The JSON is assembled by hand for the same reason `pdpa-obs` writes
//! its exports by hand: the repo carries no serialization dependency, and
//! the document is small and flat enough that a builder would cost more
//! than it saves.

use crate::fold::{Fold, JobIndex};
use crate::series::{machine_size, CpuSeries, LiveCpuFold, MplFold, MplStats};
use crate::stability::{MigrationFold, MigrationStats};
use crate::states::{StateBreakdown, StateFold};
use crate::timeline::{summarize, JobTimeline, TimelineFold, TimelineStats};
use pdpa_obs::json::{push_f64, push_str_escaped};
use pdpa_obs::{DecisionTrigger, ObsEvent, Observer, TimedEvent};
use pdpa_sim::{JobId, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag carried by every analysis document.
pub const ANALYSIS_SCHEMA: &str = "pdpa-analyze/v1";

/// Decision-rate accounting: how often the policy acted and what the
/// reallocations it ordered cost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecisionStats {
    /// Decisions published, all triggers.
    pub total: u64,
    /// Decisions per trigger label (`arrival`/`report`/`completion`/`fault`).
    pub by_trigger: BTreeMap<&'static str, u64>,
    /// Reallocation-cost charges observed.
    pub realloc_events: u64,
    /// Total repartitioning penalty charged, seconds.
    pub realloc_penalty_secs: f64,
}

/// Every derived metric of one recorded run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunAnalysis {
    /// Events in the stream.
    pub events: usize,
    /// First-to-last event span, seconds of simulated time.
    pub span_secs: f64,
    /// Per-job lifecycle reconstructions.
    pub jobs: BTreeMap<JobId, JobTimeline>,
    /// Run-level timeline aggregates.
    pub timeline: TimelineStats,
    /// PDPA time-in-state breakdown.
    pub states: StateBreakdown,
    /// Migration/placement accounting (Table-2 cross-check).
    pub migrations: MigrationStats,
    /// Integrated CPU busy/idle/fragmentation series.
    pub cpus: CpuSeries,
    /// Multiprogramming-level statistics.
    pub mpl: MplStats,
    /// Decision-rate accounting.
    pub decisions: DecisionStats,
}

/// Every analysis of [`RunAnalysis`] as one fold: push the events of a
/// run in stream order, then [`finish`](Analyzer::finish).
///
/// An analyzer is also an [`Observer`]: put one built by
/// [`live`](Analyzer::live) in a run's observer chain and the run is
/// analyzed as it publishes, with no recorded stream. Each event costs one
/// job lookup, shared by the per-job folds (timelines, time in state, CPU
/// holdings), and no event is kept or cloned; only a live analyzer's CPU
/// fold holds 16 bytes an event until the stream settles the machine size
/// (see [`live`](Analyzer::live)). The result is bit-identical to each
/// module's standalone function over the same stream, and a live
/// analyzer's to [`RunAnalysis::from_events`] over the recorded stream,
/// because all of them run the same component folds in the same order.
#[derive(Debug)]
pub struct Analyzer {
    jobs: JobIndex,
    timelines: TimelineFold,
    states: StateFold,
    migrations: MigrationFold,
    cpus: LiveCpuFold,
    mpl: MplFold,
    events: usize,
    first: Option<f64>,
    last: f64,
    /// Decisions per trigger, by [`DecisionTrigger`] declaration order.
    by_trigger: [u64; 4],
    realloc_events: u64,
    realloc_penalty_secs: f64,
}

/// Every trigger, in declaration order (the `by_trigger` index).
const TRIGGERS: [DecisionTrigger; 4] = [
    DecisionTrigger::Arrival,
    DecisionTrigger::Report,
    DecisionTrigger::Completion,
    DecisionTrigger::Fault,
];

impl Analyzer {
    /// An analyzer for a machine of exactly `cpus` CPUs; [`machine_size`]
    /// takes it from a recorded stream. With 0 CPUs the CPU series stays
    /// empty.
    pub fn new(cpus: usize) -> Self {
        Self::with_cpu_fold(LiveCpuFold::known(cpus))
    }

    /// An analyzer that reads the machine size from the stream as it is
    /// published, so that [`finish`](Analyzer::finish) equals
    /// [`RunAnalysis::from_events`] over the same stream recorded. `cpus`
    /// is the run's configured machine size (`None` when unknown, as for a
    /// stream read from a file).
    ///
    /// `from_events` sizes the CPU series by a pre-scan ([`machine_size`]),
    /// which a live fold cannot make. So the CPU fold holds each event's
    /// instant and CPU effect until the size is settled: by a `degraded`
    /// event whose total is `cpus`, or by an assignment of CPU `cpus − 1`
    /// before any `degraded` event. It then replays what it held and folds
    /// live. A stream that never settles (no `cpus`, a light load that
    /// never assigns the top CPU, a filter without `cpu` events) is
    /// replayed at [`finish`](Analyzer::finish) under the pre-scan's rule.
    ///
    /// # Panics
    ///
    /// [`finish`](Analyzer::finish) panics when the whole stream describes
    /// another size ([`machine_size`]) than the one it settled at. An
    /// engine stream cannot: its CPU ids lie below `cpus` and every
    /// `degraded` total equals it.
    pub fn live(cpus: Option<usize>) -> Self {
        Self::with_cpu_fold(LiveCpuFold::live(cpus))
    }

    fn with_cpu_fold(cpus: LiveCpuFold) -> Self {
        Analyzer {
            jobs: JobIndex::default(),
            timelines: TimelineFold::default(),
            states: StateFold::default(),
            migrations: MigrationFold::default(),
            cpus,
            mpl: MplFold::default(),
            events: 0,
            first: None,
            last: 0.0,
            by_trigger: [0; 4],
            realloc_events: 0,
            realloc_penalty_secs: 0.0,
        }
    }

    /// Folds in the next event of the stream.
    #[inline]
    pub fn push(&mut self, te: &TimedEvent) {
        self.fold(te.at.as_secs(), &te.event);
    }

    /// Folds in `event`, published at `now` seconds.
    #[inline(always)]
    fn fold(&mut self, now: f64, event: &ObsEvent) {
        self.first.get_or_insert(now);
        self.last = now;
        self.events += 1;
        match event {
            ObsEvent::Decision { trigger, .. } => self.by_trigger[*trigger as usize] += 1,
            ObsEvent::ReallocCost { penalty_secs, .. } => {
                self.realloc_events += 1;
                self.realloc_penalty_secs += penalty_secs;
            }
            _ => {}
        }
        let slot = self.jobs.slot_of(event);
        self.timelines.push(now, event, slot);
        self.states.push(now, event, slot);
        self.migrations.push(now, event, slot);
        self.cpus.push(now, event, slot);
        self.mpl.push(now, event, slot);
    }

    /// Closes every fold at the last event pushed.
    pub fn finish(self) -> RunAnalysis {
        let end = self.last;
        let jobs = self.timelines.finish(&self.jobs, end);
        let mut by_trigger = BTreeMap::new();
        for (trigger, &n) in TRIGGERS.iter().zip(&self.by_trigger) {
            if n > 0 {
                by_trigger.insert(trigger.label(), n);
            }
        }
        RunAnalysis {
            events: self.events,
            span_secs: (self.last - self.first.unwrap_or(0.0)).max(0.0),
            timeline: summarize(&jobs),
            states: self.states.finish(&self.jobs, end),
            migrations: self.migrations.finish(&self.jobs, end),
            cpus: self.cpus.finish(&self.jobs, end),
            mpl: self.mpl.finish(&self.jobs, end),
            decisions: DecisionStats {
                total: self.by_trigger.iter().sum(),
                by_trigger,
                realloc_events: self.realloc_events,
                realloc_penalty_secs: self.realloc_penalty_secs,
            },
            jobs,
        }
    }
}

/// Folds each event as the run publishes it; events must arrive in
/// stream order, which the engine's publication order is.
impl Observer for Analyzer {
    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        self.fold(at.as_secs(), event);
    }
}

impl RunAnalysis {
    /// Replays a recorded stream into the full metric set: the machine
    /// size from a pre-scan, then one [`Analyzer`] pass. A run analyzed
    /// live by [`Analyzer::live`] gets the same result without the
    /// recording.
    pub fn from_events(events: &[TimedEvent]) -> Self {
        let mut analyzer = Analyzer::new(machine_size(events));
        for te in events {
            analyzer.push(te);
        }
        analyzer.finish()
    }

    /// The analysis as one JSON object (no schema wrapper; see
    /// [`analysis_json`] for the full document).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_num(&mut out, "events", self.events as f64);
        push_num(&mut out, "span_secs", self.span_secs);
        push_num(&mut out, "jobs", self.timeline.jobs as f64);
        push_num(&mut out, "finished", self.timeline.finished as f64);
        push_num(&mut out, "failed", self.timeline.failed as f64);
        push_num(&mut out, "retries", self.timeline.retries as f64);
        push_num(
            &mut out,
            "avg_queue_wait_secs",
            self.timeline.avg_queue_wait_secs,
        );
        push_num(
            &mut out,
            "avg_response_secs",
            self.timeline.avg_response_secs,
        );
        push_num(&mut out, "avg_slowdown", self.timeline.avg_slowdown);
        if let Some(d) = self.timeline.slowdown_dist {
            out.push_str("\"slowdown_dist\":{");
            push_num(&mut out, "p50", d.p50);
            push_num(&mut out, "p90", d.p90);
            push_num(&mut out, "p99", d.p99);
            out.push_str("\"max\":");
            push_f64(&mut out, d.max);
            out.push_str("},");
        }
        out.push_str("\"time_in_state_secs\":{");
        let mut first = true;
        for (state, secs) in &self.states.secs {
            if !first {
                out.push(',');
            }
            first = false;
            push_str_escaped(&mut out, state);
            out.push(':');
            push_f64(&mut out, *secs);
        }
        out.push_str("},");
        push_num(
            &mut out,
            "state_transitions",
            self.states.transitions as f64,
        );
        push_num(&mut out, "migrations", self.migrations.migrations() as f64);
        push_num(
            &mut out,
            "initial_placements",
            self.migrations.initial_placements as f64,
        );
        push_num(&mut out, "cpus", self.cpus.cpus as f64);
        push_num(&mut out, "busy_cpu_secs", self.cpus.busy_cpu_secs);
        push_num(&mut out, "idle_cpu_secs", self.cpus.idle_cpu_secs);
        push_num(&mut out, "frag_cpu_secs", self.cpus.frag_cpu_secs);
        push_num(&mut out, "utilization", self.cpus.utilization());
        push_num(&mut out, "peak_busy", self.cpus.peak_busy as f64);
        push_num(&mut out, "mpl_mean_running", self.mpl.mean_running);
        push_num(&mut out, "mpl_mean_allocated", self.mpl.mean_allocated);
        push_num(&mut out, "mpl_max_running", self.mpl.max_running as f64);
        push_num(&mut out, "decisions", self.decisions.total as f64);
        out.push_str("\"decisions_by_trigger\":{");
        let mut first = true;
        for (trigger, n) in &self.decisions.by_trigger {
            if !first {
                out.push(',');
            }
            first = false;
            push_str_escaped(&mut out, trigger);
            let _ = write!(out, ":{n}");
        }
        out.push_str("},");
        push_num(
            &mut out,
            "realloc_events",
            self.decisions.realloc_events as f64,
        );
        out.push_str("\"realloc_penalty_secs\":");
        push_f64(&mut out, self.decisions.realloc_penalty_secs);
        out.push('}');
        out
    }

    /// Human-readable multi-line rendering for terminal output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events {}  span {:.1}s  jobs {} ({} finished, {} failed, {} retries)",
            self.events,
            self.span_secs,
            self.timeline.jobs,
            self.timeline.finished,
            self.timeline.failed,
            self.timeline.retries
        );
        let _ = writeln!(
            out,
            "queue wait avg {:.2}s  response avg {:.1}s  slowdown avg {:.3}",
            self.timeline.avg_queue_wait_secs,
            self.timeline.avg_response_secs,
            self.timeline.avg_slowdown
        );
        if let Some(d) = self.timeline.slowdown_dist {
            let _ = writeln!(
                out,
                "slowdown dist p50 {:.3}  p90 {:.3}  p99 {:.3}  max {:.3}",
                d.p50, d.p90, d.p99, d.max
            );
        }
        if !self.states.secs.is_empty() {
            let _ = write!(out, "time in state:");
            for (state, secs) in &self.states.secs {
                let _ = write!(out, "  {state} {secs:.1}s");
            }
            let _ = writeln!(out, "  ({} transitions)", self.states.transitions);
        }
        let _ = writeln!(
            out,
            "migrations {}  placements {}  releases {}",
            self.migrations.migrations(),
            self.migrations.initial_placements,
            self.migrations.releases
        );
        let _ = writeln!(
            out,
            "cpus {}  busy {:.1}  idle {:.1}  frag {:.1} cpu-s  util {:.1}%  peak {}",
            self.cpus.cpus,
            self.cpus.busy_cpu_secs,
            self.cpus.idle_cpu_secs,
            self.cpus.frag_cpu_secs,
            self.cpus.utilization() * 100.0,
            self.cpus.peak_busy
        );
        let _ = writeln!(
            out,
            "mpl mean {:.2} running / {:.1} allocated  max {} / {}",
            self.mpl.mean_running,
            self.mpl.mean_allocated,
            self.mpl.max_running,
            self.mpl.max_allocated
        );
        let _ = write!(
            out,
            "decisions {}  realloc charges {} ({:.2}s penalty)",
            self.decisions.total,
            self.decisions.realloc_events,
            self.decisions.realloc_penalty_secs
        );
        for (trigger, n) in &self.decisions.by_trigger {
            let _ = write!(out, "  {trigger}={n}");
        }
        out.push('\n');
        out
    }
}

/// The full `pdpa-analyze/v1` document over one or more named runs.
pub fn analysis_json(runs: &[(String, RunAnalysis)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"schema\":\"{ANALYSIS_SCHEMA}\",\"runs\":{{");
    for (i, (key, analysis)) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_escaped(&mut out, key);
        out.push(':');
        out.push_str(&analysis.to_json());
    }
    out.push_str("}}");
    out
}

fn push_num(out: &mut String, key: &str, v: f64) {
    let _ = write!(out, "\"{key}\":");
    push_f64(out, v);
    out.push(',');
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_obs::DecisionTrigger;
    use pdpa_sim::{CpuId, SimTime};

    fn te(at: f64, seq: u64, event: ObsEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        }
    }

    fn small_run() -> Vec<TimedEvent> {
        let j = JobId(0);
        vec![
            te(0.0, 0, ObsEvent::JobSubmitted { job: j }),
            te(1.0, 1, ObsEvent::JobDequeued { job: j }),
            te(1.0, 2, ObsEvent::JobStarted { job: j, request: 2 }),
            te(
                1.0,
                3,
                ObsEvent::CpuAssigned {
                    cpu: CpuId(0),
                    job: Some(j),
                },
            ),
            te(
                1.0,
                4,
                ObsEvent::CpuAssigned {
                    cpu: CpuId(1),
                    job: Some(j),
                },
            ),
            te(
                1.0,
                5,
                ObsEvent::Decision {
                    trigger: DecisionTrigger::Arrival,
                    job: j,
                    from_alloc: 0,
                    to_alloc: 2,
                    transition: None,
                },
            ),
            te(
                5.0,
                6,
                ObsEvent::MplChanged {
                    running: 1,
                    total_alloc: 2,
                },
            ),
            te(
                10.0,
                7,
                ObsEvent::CpuAssigned {
                    cpu: CpuId(0),
                    job: None,
                },
            ),
            te(
                10.0,
                8,
                ObsEvent::CpuAssigned {
                    cpu: CpuId(1),
                    job: None,
                },
            ),
            te(10.0, 9, ObsEvent::JobFinished { job: j }),
        ]
    }

    #[test]
    fn aggregates_cover_every_module() {
        let a = RunAnalysis::from_events(&small_run());
        assert_eq!(a.events, 10);
        assert_eq!(a.span_secs, 10.0);
        assert_eq!(a.timeline.finished, 1);
        assert_eq!(a.migrations.migrations(), 0);
        assert_eq!(a.migrations.initial_placements, 2);
        assert_eq!(a.cpus.cpus, 2);
        assert_eq!(a.decisions.total, 1);
        assert_eq!(a.decisions.by_trigger.get("arrival"), Some(&1));
    }

    #[test]
    fn json_document_is_well_formed() {
        let a = RunAnalysis::from_events(&small_run());
        let doc = analysis_json(&[("w1-PDPA".to_string(), a)]);
        assert!(doc.starts_with("{\"schema\":\"pdpa-analyze/v1\""));
        assert!(doc.contains("\"w1-PDPA\":{"));
        assert!(doc.contains("\"migrations\":0"));
        assert!(doc.ends_with("}}"));
        // Balanced braces (cheap well-formedness check without a parser).
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn render_text_mentions_the_headline_numbers() {
        let a = RunAnalysis::from_events(&small_run());
        let text = a.render_text();
        assert!(text.contains("jobs 1 (1 finished"));
        assert!(text.contains("migrations 0"));
    }
}
