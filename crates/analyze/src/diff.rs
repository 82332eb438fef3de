//! Run diffing: where two recorded runs first disagree, and by how much.
//!
//! Two complementary answers. The **first divergent event** is the
//! microscope: streams are compared in their serialized `to_line` form
//! (the canonical total order), so two runs of the same seeded
//! configuration must match line-for-line and any nondeterminism or
//! behavior change pins itself to an exact `(sim_time, seq, kind)`. The
//! **metric deltas** are the telescope: the full [`RunAnalysis`] of both
//! sides, rendered as signed differences, says whether the divergence
//! *mattered* — more migrations, longer queues, worse fragmentation.

use crate::analysis::{Analyzer, RunAnalysis};
use pdpa_obs::TimedEvent;
use std::fmt::Write as _;

/// The first point where two streams disagree.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Position in the stream (0-based event index).
    pub index: usize,
    /// Simulated time of the divergent event (from whichever side has
    /// one; side A wins when both do).
    pub at: f64,
    /// Sequence number at the divergence.
    pub seq: u64,
    /// Event kind at the divergence.
    pub kind: &'static str,
    /// Side A's serialized event, if its stream reaches this index.
    pub line_a: Option<String>,
    /// Side B's serialized event, if its stream reaches this index.
    pub line_b: Option<String>,
}

/// A full comparison of two recorded runs.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDiff {
    /// First disagreement, `None` when the streams are identical.
    pub divergence: Option<Divergence>,
    /// Side A's derived metrics.
    pub a: RunAnalysis,
    /// Side B's derived metrics.
    pub b: RunAnalysis,
}

impl RunDiff {
    /// Compares two streams event-for-event and analyzes both sides.
    pub fn compare(a: &[TimedEvent], b: &[TimedEvent]) -> Self {
        let mut diff = StreamDiff::default();
        for i in 0..a.len().max(b.len()) {
            diff.push(a.get(i), b.get(i));
        }
        diff.finish()
    }

    /// True when the streams are event-for-event identical.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }

    /// Renders the diff for terminal output.
    pub fn render(&self, label_a: &str, label_b: &str) -> String {
        let mut out = String::new();
        match &self.divergence {
            None => {
                let _ = writeln!(
                    out,
                    "streams identical: {} events, no divergence between {label_a} and {label_b}",
                    self.a.events
                );
            }
            Some(d) => {
                let _ = writeln!(
                    out,
                    "first divergence at event #{} (t={} seq={} kind={}):",
                    d.index, d.at, d.seq, d.kind
                );
                let _ = writeln!(
                    out,
                    "  {label_a}: {}",
                    d.line_a.as_deref().unwrap_or("<stream ended>")
                );
                let _ = writeln!(
                    out,
                    "  {label_b}: {}",
                    d.line_b.as_deref().unwrap_or("<stream ended>")
                );
            }
        }
        let _ = writeln!(out, "metric deltas ({label_b} − {label_a}):");
        for (name, va, vb) in self.metric_rows() {
            let delta = vb - va;
            if delta == 0.0 {
                continue;
            }
            let _ = writeln!(out, "  {name:<24} {va:>12.3} → {vb:>12.3}  ({delta:+.3})");
        }
        out
    }

    /// `(name, side_a, side_b)` rows for every compared metric, including
    /// the union of observed PDPA states.
    pub fn metric_rows(&self) -> Vec<(String, f64, f64)> {
        let (a, b) = (&self.a, &self.b);
        let mut rows = vec![
            ("events".to_string(), a.events as f64, b.events as f64),
            ("span_secs".to_string(), a.span_secs, b.span_secs),
            (
                "migrations".to_string(),
                a.migrations.migrations() as f64,
                b.migrations.migrations() as f64,
            ),
            (
                "initial_placements".to_string(),
                a.migrations.initial_placements as f64,
                b.migrations.initial_placements as f64,
            ),
            (
                "decisions".to_string(),
                a.decisions.total as f64,
                b.decisions.total as f64,
            ),
            (
                "realloc_penalty_secs".to_string(),
                a.decisions.realloc_penalty_secs,
                b.decisions.realloc_penalty_secs,
            ),
            (
                "avg_queue_wait_secs".to_string(),
                a.timeline.avg_queue_wait_secs,
                b.timeline.avg_queue_wait_secs,
            ),
            (
                "avg_response_secs".to_string(),
                a.timeline.avg_response_secs,
                b.timeline.avg_response_secs,
            ),
            (
                "avg_slowdown".to_string(),
                a.timeline.avg_slowdown,
                b.timeline.avg_slowdown,
            ),
            (
                "idle_cpu_secs".to_string(),
                a.cpus.idle_cpu_secs,
                b.cpus.idle_cpu_secs,
            ),
            (
                "frag_cpu_secs".to_string(),
                a.cpus.frag_cpu_secs,
                b.cpus.frag_cpu_secs,
            ),
            (
                "mpl_mean_running".to_string(),
                a.mpl.mean_running,
                b.mpl.mean_running,
            ),
            (
                "mpl_max_running".to_string(),
                a.mpl.max_running as f64,
                b.mpl.max_running as f64,
            ),
        ];
        let mut states: Vec<&'static str> = a
            .states
            .secs
            .keys()
            .chain(b.states.secs.keys())
            .copied()
            .collect();
        states.sort_unstable();
        states.dedup();
        for state in states {
            rows.push((
                format!("state_{state}_secs"),
                a.states.in_state(state),
                b.states.in_state(state),
            ));
        }
        rows
    }
}

/// [`RunDiff::compare`] one pair of events at a time, for two streams
/// decoded as they are read: push the `i`-th event of each side (`None`
/// past a side's end), then [`finish`](StreamDiff::finish). Events are
/// compared until the first divergence and analyzed to the end.
#[derive(Debug)]
pub struct StreamDiff {
    index: usize,
    divergence: Option<Divergence>,
    a: Analyzer,
    b: Analyzer,
}

impl Default for StreamDiff {
    fn default() -> Self {
        StreamDiff {
            index: 0,
            divergence: None,
            a: Analyzer::live(None),
            b: Analyzer::live(None),
        }
    }
}

impl StreamDiff {
    /// Folds in the next event of each side.
    pub fn push(&mut self, a: Option<&TimedEvent>, b: Option<&TimedEvent>) {
        if self.divergence.is_none() {
            let same = match (a, b) {
                (Some(x), Some(y)) => x.to_line() == y.to_line(),
                _ => false,
            };
            if !same {
                if let Some(lead) = a.or(b) {
                    self.divergence = Some(Divergence {
                        index: self.index,
                        at: lead.at.as_secs(),
                        seq: lead.seq,
                        kind: lead.event.kind(),
                        line_a: a.map(TimedEvent::to_line),
                        line_b: b.map(TimedEvent::to_line),
                    });
                }
            }
        }
        if let Some(x) = a {
            self.a.push(x);
        }
        if let Some(y) = b {
            self.b.push(y);
        }
        self.index += 1;
    }

    /// The diff of the events pushed.
    pub fn finish(self) -> RunDiff {
        RunDiff {
            divergence: self.divergence,
            a: self.a.finish(),
            b: self.b.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_obs::ObsEvent;
    use pdpa_sim::{JobId, SimTime};

    fn te(at: f64, seq: u64, event: ObsEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        }
    }

    fn base() -> Vec<TimedEvent> {
        vec![
            te(0.0, 0, ObsEvent::JobSubmitted { job: JobId(0) }),
            te(1.0, 1, ObsEvent::JobDequeued { job: JobId(0) }),
            te(
                1.0,
                2,
                ObsEvent::JobStarted {
                    job: JobId(0),
                    request: 4,
                },
            ),
            te(9.0, 3, ObsEvent::JobFinished { job: JobId(0) }),
        ]
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        let d = RunDiff::compare(&base(), &base());
        assert!(d.identical());
        assert!(d.render("a", "b").contains("streams identical"));
    }

    #[test]
    fn first_divergence_is_pinpointed() {
        let a = base();
        let mut b = base();
        b[2] = te(
            1.0,
            2,
            ObsEvent::JobStarted {
                job: JobId(0),
                request: 8,
            },
        );
        let d = RunDiff::compare(&a, &b);
        let div = d.divergence.expect("diverges");
        assert_eq!(div.index, 2);
        assert_eq!(div.kind, "start");
        assert_eq!(div.seq, 2);
        assert!(div.line_a.unwrap().contains("request=4"));
        assert!(div.line_b.unwrap().contains("request=8"));
    }

    #[test]
    fn a_longer_stream_diverges_at_the_tail() {
        let a = base();
        let mut b = base();
        b.push(te(10.0, 4, ObsEvent::JobSubmitted { job: JobId(1) }));
        let d = RunDiff::compare(&a, &b);
        let div = d.divergence.as_ref().expect("diverges");
        assert_eq!(div.index, 4);
        assert!(div.line_a.is_none());
        assert!(div.line_b.is_some());
        assert!(d.render("a", "b").contains("<stream ended>"));
    }
}
