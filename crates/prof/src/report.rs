//! Finished profiles and their text hot-path report.
//!
//! The Chrome `trace_event` export of a profile is written by
//! `pdpa_obs::chrome::span_trace`, the workspace's one trace writer, from
//! each span's `(kind.label(), start_ns, dur_ns)`; this crate keeps no
//! dependencies.

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
