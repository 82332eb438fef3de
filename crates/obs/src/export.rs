//! Text exporters: the metrics JSON document and the Fig.-8-style
//! MPL/allocation time-series CSV.

use crate::collector::ExperimentFailure;
use crate::event::{ObsEvent, TimedEvent};
use crate::json::{push_f64, push_str_escaped};
use crate::metrics::{CounterSnapshot, MetricsSnapshot};
use pdpa_sim::SimTime;
use std::fmt::Write;

/// Schema tag written into [`metrics_json`] documents.
pub const METRICS_SCHEMA: &str = "pdpa-obs-metrics/v1";

fn push_counters(out: &mut String, c: &CounterSnapshot, indent: &str) {
    let _ = write!(
        out,
        "{{\n{indent}  \"runs\": {},\n{indent}  \"events_pushed\": {},\n\
         {indent}  \"events_popped\": {},\n{indent}  \"events_stale_dropped\": {},\n\
         {indent}  \"decisions\": {},\n{indent}  \"memo_hits\": {},\n\
         {indent}  \"memo_misses\": {},\n{indent}  \"memo_hit_rate\": ",
        c.runs,
        c.events_pushed,
        c.events_popped,
        c.events_stale_dropped,
        c.decisions,
        c.memo_hits,
        c.memo_misses,
    );
    push_f64(out, c.memo_hit_rate());
    let _ = write!(out, "\n{indent}}}");
}

/// Renders a metrics snapshot (plus any recorded experiment failures) as a
/// standalone JSON document (`--metrics-out`).
pub fn metrics_json(snapshot: &MetricsSnapshot, failures: &[ExperimentFailure]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
    out.push_str("  \"engine\": ");
    push_counters(&mut out, &snapshot.engine, "  ");
    out.push_str(",\n");
    out.push_str("  \"scopes\": {");
    for (i, (name, c)) in snapshot.scopes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_str_escaped(&mut out, name);
        out.push_str(": ");
        push_counters(&mut out, c, "    ");
    }
    if snapshot.scopes.is_empty() {
        out.push_str("},\n");
    } else {
        out.push_str("\n  },\n");
    }
    out.push_str("  \"histograms\": {");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_str_escaped(&mut out, name);
        let _ = write!(out, ": {{\n      \"count\": {},\n      \"mean\": ", h.count);
        push_f64(&mut out, h.mean);
        let _ = write!(
            out,
            ",\n      \"p50\": {},\n      \"p90\": {},\n      \"p99\": {},\n      \
             \"max\": {}\n    }}",
            h.p50, h.p90, h.p99, h.max
        );
    }
    if snapshot.histograms.is_empty() {
        out.push_str("},\n");
    } else {
        out.push_str("\n  },\n");
    }
    out.push_str("  \"failures\": [");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"name\": ");
        push_str_escaped(&mut out, &f.name);
        out.push_str(", \"message\": ");
        push_str_escaped(&mut out, &f.message);
        out.push('}');
    }
    if failures.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

/// One point of a run's multiprogramming-level history: from `at` on,
/// `running` jobs hold `allocated` processors.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MplPoint {
    pub at: SimTime,
    pub running: usize,
    pub allocated: usize,
}

/// Folds a recorded stream into the Fig. 8 series: the empty machine at
/// time zero, then one point per [`ObsEvent::MplChanged`].
pub fn mpl_series(events: &[TimedEvent]) -> Vec<MplPoint> {
    let mut series = vec![MplPoint::default()];
    for te in events {
        if let ObsEvent::MplChanged {
            running,
            total_alloc: allocated,
        } = te.event
        {
            series.push(MplPoint {
                at: te.at,
                running,
                allocated,
            });
        }
    }
    series
}

/// Renders the MPL/allocation history of recorded runs as CSV — the data
/// behind a Fig.-8-style plot. One row per [`mpl_series`] point after the
/// time-zero start (one per [`ObsEvent::MplChanged`]):
/// `run,sim_secs,running,allocated`.
pub fn mpl_series_csv(runs: &[(String, Vec<TimedEvent>)]) -> String {
    let mut out = String::from("run,sim_secs,running,allocated\n");
    for (key, events) in runs {
        for p in &mpl_series(events)[1..] {
            let (at, running, allocated) = (p.at.as_secs(), p.running, p.allocated);
            let _ = writeln!(out, "{key},{at},{running},{allocated}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
    use pdpa_sim::JobId;

    fn snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.engine.runs = 3;
        s.engine.events_popped = 42;
        s.engine.decisions = 7;
        s.scopes = vec![("fig5".to_string(), s.engine)];
        s.histograms = vec![(
            "decision_ns".to_string(),
            HistogramSnapshot {
                count: 10,
                mean: 1500.0,
                p50: 1536,
                p90: 3072,
                p99: 3072,
                max: 3100,
            },
        )];
        s
    }

    #[test]
    fn metrics_json_has_schema_and_counters() {
        let json = metrics_json(
            &snapshot(),
            &[ExperimentFailure {
                name: "bad".to_string(),
                message: "it \"broke\"".to_string(),
            }],
        );
        assert!(json.contains("\"schema\": \"pdpa-obs-metrics/v1\""));
        assert!(json.contains("\"events_popped\": 42"));
        assert!(json.contains("\"fig5\""));
        assert!(json.contains("\"decision_ns\""));
        assert!(json.contains("it \\\"broke\\\""));
    }

    #[test]
    fn metrics_json_empty_sections() {
        let json = metrics_json(&MetricsSnapshot::default(), &[]);
        assert!(json.contains("\"scopes\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(json.contains("\"failures\": []"));
    }

    #[test]
    fn mpl_csv_rows() {
        let runs = vec![(
            "fig8/PDPA".to_string(),
            vec![
                TimedEvent {
                    at: SimTime::from_secs(0.0),
                    seq: 0,
                    event: ObsEvent::MplChanged {
                        running: 1,
                        total_alloc: 32,
                    },
                },
                TimedEvent {
                    at: SimTime::from_secs(5.5),
                    seq: 1,
                    event: ObsEvent::JobFinished { job: JobId(0) },
                },
                TimedEvent {
                    at: SimTime::from_secs(5.5),
                    seq: 2,
                    event: ObsEvent::MplChanged {
                        running: 0,
                        total_alloc: 0,
                    },
                },
            ],
        )];
        let csv = mpl_series_csv(&runs);
        assert_eq!(
            csv,
            "run,sim_secs,running,allocated\nfig8/PDPA,0,1,32\nfig8/PDPA,5.5,0,0\n"
        );
        let levels: Vec<(f64, usize, usize)> = mpl_series(&runs[0].1)
            .iter()
            .map(|p| (p.at.as_secs(), p.running, p.allocated))
            .collect();
        assert_eq!(levels, [(0.0, 0, 0), (0.0, 1, 32), (5.5, 0, 0)]);
    }
}
