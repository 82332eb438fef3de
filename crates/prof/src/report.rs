//! Finished profiles and their text hot-path report.
//!
//! A [`Profile`] holds one [`KindProfile`] per [`SpanKind`]: the exact
//! number of calls, how many of them were timed, their summed time, and
//! the timed calls as spans. The Chrome `trace_event` export of those
//! spans is written by `pdpa_obs::chrome::span_trace`, the workspace's
//! one trace writer, from [`Profile::spans`]; this crate keeps no
//! dependencies.

use crate::span::SpanKind;

/// What one span kind recorded over a run.
#[derive(Clone, Debug, Default)]
pub struct KindProfile {
    /// Every call, timed or not.
    pub calls: u64,
    /// The calls that were timed.
    pub samples: u64,
    /// Wall-clock nanoseconds summed over the timed calls.
    pub sampled_ns: u64,
    /// `(start_ns, dur_ns)` of each timed call, the start measured from
    /// the profiler epoch.
    pub spans: Vec<(u64, u64)>,
}

impl KindProfile {
    /// Estimated wall-clock nanoseconds over all calls: the mean timed
    /// call × `calls`. Exact when every call was timed.
    pub fn total_ns(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sampled_ns as f64 / self.samples as f64 * self.calls as f64
    }
}

/// A finished profile: one [`KindProfile`] per [`SpanKind`].
#[derive(Clone, Debug)]
pub struct Profile {
    /// One call in this many of a sampled kind is timed.
    sample_every: u64,
    kinds: [KindProfile; SpanKind::ALL.len()],
}

impl Profile {
    /// An empty profile whose sampled kinds time one call in
    /// `sample_every`.
    pub fn new(sample_every: u64) -> Self {
        Profile {
            sample_every,
            kinds: Default::default(),
        }
    }

    /// What `kind` recorded.
    pub fn kind(&self, kind: SpanKind) -> &KindProfile {
        &self.kinds[kind as usize]
    }

    /// Sets what `kind` recorded.
    pub fn set(&mut self, kind: SpanKind, recorded: KindProfile) {
        self.kinds[kind as usize] = recorded;
    }

    /// Every timed call as `(label, start_ns, dur_ns)`, kind by kind —
    /// the input of `pdpa_obs::chrome::span_trace`.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        SpanKind::ALL.into_iter().flat_map(move |kind| {
            self.kind(kind)
                .spans
                .iter()
                .map(move |&(start, dur)| (kind.label(), start, dur))
        })
    }

    /// Plain-text hot-path report: per-kind calls / samples / total /
    /// share / mean, plus the memory high-water mark. A sampled kind's
    /// total is its mean timed call × its calls.
    pub fn hot_path_report(&self) -> String {
        let replay_ns = self.kind(SpanKind::Replay).total_ns().max(1.0);
        let mut out = String::from("hot-path report (wall-clock)\n");
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>12} {:>7} {:>12}\n",
            "span", "count", "samples", "total ms", "%", "mean us"
        ));
        for kind in SpanKind::ALL {
            let k = self.kind(kind);
            if k.samples == 0 {
                continue;
            }
            // The once-per-run replay span is timed, not sampled.
            let samples = if kind == SpanKind::Replay {
                "-".to_string()
            } else {
                k.samples.to_string()
            };
            let total = k.total_ns();
            out.push_str(&format!(
                "{:<16} {:>10} {:>10} {:>12.3} {:>6.1}% {:>12.2}\n",
                kind.label(),
                k.calls,
                samples,
                total / 1e6,
                100.0 * total / replay_ns,
                k.sampled_ns as f64 / 1e3 / k.samples as f64,
            ));
        }
        out.push_str(&format!(
            "sampled spans time one call in {}; their total ms is mean x count\n",
            self.sample_every
        ));
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
        let mut profile = Profile::new(64);
        profile.set(
            SpanKind::Replay,
            KindProfile {
                calls: 1,
                samples: 1,
                sampled_ns: 1_000_000,
                spans: vec![(0, 1_000_000)],
            },
        );
        // 130 calls, 3 timed at 1 us each: an estimated 130 us.
        profile.set(
            SpanKind::PolicyDecision,
            KindProfile {
                calls: 130,
                samples: 3,
                sampled_ns: 3_000,
                spans: vec![(100, 1_000), (5_000, 1_000), (9_000, 1_000)],
            },
        );
        profile
    }

    #[test]
    fn hot_path_report_extrapolates_sampled_kinds() {
        let rep = sample().hot_path_report();
        let row = |label: &str| {
            rep.lines()
                .find(|l| l.starts_with(&format!("{label} ")))
                .map(|l| l.split_whitespace().collect::<Vec<_>>())
        };
        assert_eq!(
            row("replay").unwrap(),
            ["replay", "1", "-", "1.000", "100.0%", "1000.00"]
        );
        // 130 us of a 1 ms replay.
        assert_eq!(
            row("policy_decision").unwrap(),
            ["policy_decision", "130", "3", "0.130", "13.0%", "1.00"]
        );
        assert!(
            row("queue_ops").is_none(),
            "kinds with no calls are skipped"
        );
        assert!(rep.contains("one call in 64"));
    }

    #[test]
    fn spans_list_every_timed_call_by_kind() {
        let profile = sample();
        let spans: Vec<_> = profile.spans().collect();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0], ("replay", 0, 1_000_000));
        assert_eq!(spans[1], ("policy_decision", 100, 1_000));
    }
}
