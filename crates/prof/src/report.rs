//! Finished-profile exports: Chrome `trace_event` JSON and a text
//! hot-path report.
//!
//! The Chrome export mirrors the idiom of `pdpa-obs`'s decision-stream
//! exporter: a single JSON object `{"traceEvents":[...]}` that Perfetto and
//! `chrome://tracing` load directly. Profiler spans are emitted as complete
//! (`"ph":"X"`) events — each carries its own duration, so no begin/end
//! pairing is needed — on one thread lane, named `coordinator` via a
//! thread_name metadata record.

use crate::span::{SpanKind, SpanRec};

/// A finished profile: the spans and event count of the coordinator lane.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Every closed span, in close order.
    pub spans: Vec<SpanRec>,
    /// Events processed by the lane (see `Lane::add_events`).
    pub events: u64,
}

impl Profile {
    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total wall-clock nanoseconds attributed to `kind`.
    pub fn total_ns(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Chrome `trace_event` JSON with the spans on one `coordinator` lane.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"pdpa replay profile\"}}",
        );
        out.push_str(
            ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"coordinator\"}}",
        );
        for s in &self.spans {
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"prof\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":0}}",
                s.kind.label(),
                us(s.start_ns),
                us(s.dur_ns),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Plain-text hot-path report: per-kind count / total / share / mean,
    /// plus the memory high-water mark.
    pub fn hot_path_report(&self) -> String {
        let replay_ns = self.total_ns(SpanKind::Replay).max(1);
        let mut out = String::from("hot-path report (wall-clock)\n");
        out.push_str(&format!(
            "{:<16} {:>10} {:>12} {:>7} {:>12}\n",
            "span", "count", "total ms", "%", "mean us"
        ));
        for kind in SpanKind::ALL {
            let (count, total) = self
                .spans
                .iter()
                .filter(|s| s.kind == kind)
                .fold((0usize, 0u64), |(n, ns), s| (n + 1, ns + s.dur_ns));
            if count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<16} {:>10} {:>12.3} {:>6.1}% {:>12.2}\n",
                kind.label(),
                count,
                total as f64 / 1e6,
                100.0 * total as f64 / replay_ns as f64,
                total as f64 / 1e3 / count as f64,
            ));
        }
        if let Some(kib) = crate::health::memory_high_water_kib() {
            out.push_str(&format!("memory high-water: {} KiB\n", kib));
        }
        out
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile {
            spans: vec![
                SpanRec {
                    kind: SpanKind::PolicyDecision,
                    start_ns: 100,
                    dur_ns: 4_000,
                },
                SpanRec {
                    kind: SpanKind::Replay,
                    start_ns: 0,
                    dur_ns: 10_000,
                },
            ],
            events: 30,
        }
    }

    #[test]
    fn chrome_json_has_the_coordinator_lane() {
        let json = sample().chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"coordinator\""));
        assert_eq!(json.matches("\"thread_name\"").count(), 1);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"policy_decision\""));
    }

    #[test]
    fn hot_path_report_aggregates_kinds() {
        let rep = sample().hot_path_report();
        assert!(rep.contains("replay"));
        // 4 us of a 10 us replay.
        assert!(rep.contains("policy_decision"));
        assert!(rep.contains("40.0%"));
        assert!(
            !rep.contains("queue_ops"),
            "kinds with no spans are skipped"
        );
    }
}
