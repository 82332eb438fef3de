//! The perf-regression gate: compare the newest bench-trajectory entries
//! against their predecessors and fail loudly on slowdowns.
//!
//! The gate reads the append-only `trajectory` array of a
//! `BENCH_pdpa.json` document (or two documents: `--baseline` and
//! `--current`), pairs the latest entry of each mode with the previous
//! entry of the *same mode*, and flags a regression when wall-clock grew
//! or event throughput shrank beyond the noise threshold. Two guards keep
//! the gate honest on shared CI machines:
//!
//! - the **relative** threshold (default 10 %) absorbs run-to-run jitter;
//! - an **absolute floor** (0.25 s wall / 5 % of baseline throughput)
//!   keeps microscopic experiments — where 10 % is a few milliseconds —
//!   from tripping the gate on scheduler noise.

use crate::trajectory::{BenchReport, TrajectoryEntry};
use std::fmt::Write as _;

/// Wall-clock slack below which a relative regression is ignored, seconds.
pub const MIN_WALL_SLACK_SECS: f64 = 0.25;

/// One mode's baseline-vs-current comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct ModeComparison {
    /// `parallel` or `sequential`.
    pub mode: String,
    /// The older entry (the bar to clear).
    pub baseline: TrajectoryEntry,
    /// The newer entry (the run under test).
    pub current: TrajectoryEntry,
    /// Wall-clock ratio `current / baseline` (> 1 is slower).
    pub wall_ratio: f64,
    /// Throughput ratio `current / baseline` (< 1 is slower).
    pub throughput_ratio: f64,
    /// True when this mode regressed beyond the thresholds.
    pub regressed: bool,
}

/// The whole gate outcome.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateReport {
    /// Per-mode comparisons: `parallel` and `sequential` first (when
    /// present), then any other modes — `replay-*` etc. — in order of
    /// first appearance in the current trajectory.
    pub comparisons: Vec<ModeComparison>,
    /// Modes present in the trajectory but without a predecessor to
    /// compare against.
    pub uncompared: Vec<String>,
}

impl GateReport {
    /// True when any compared mode regressed.
    pub fn regressed(&self) -> bool {
        self.comparisons.iter().any(|c| c.regressed)
    }

    /// Renders the gate outcome for terminal output.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        for c in &self.comparisons {
            let verdict = if c.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "{:<10} {}: wall {:.3}s → {:.3}s ({:+.1}%)  events/s {:.0} → {:.0} ({:+.1}%)  [{} vs {}]",
                c.mode,
                verdict,
                c.baseline.wall_secs,
                c.current.wall_secs,
                (c.wall_ratio - 1.0) * 100.0,
                c.baseline.events_per_sec,
                c.current.events_per_sec,
                (c.throughput_ratio - 1.0) * 100.0,
                c.current.git_rev,
                c.baseline.git_rev,
            );
        }
        for mode in &self.uncompared {
            let _ = writeln!(
                out,
                "{mode:<10} skipped: fewer than two trajectory entries, nothing to compare"
            );
        }
        if self.comparisons.is_empty() && self.uncompared.is_empty() {
            out.push_str("empty trajectory: nothing to compare\n");
        }
        let _ = write!(
            out,
            "gate: {} (threshold {:.0}%)",
            if self.regressed() { "FAIL" } else { "PASS" },
            threshold * 100.0
        );
        out
    }
}

/// Every mode present in the trajectory, harness modes first so gate
/// output stays stable, then the rest (`replay-*` and future modes) in
/// order of first appearance.
fn modes_of(report: &BenchReport) -> Vec<String> {
    let mut modes: Vec<String> = ["parallel", "sequential"]
        .iter()
        .filter(|m| report.trajectory.iter().any(|e| &e.mode == *m))
        .map(|m| (*m).to_string())
        .collect();
    for e in &report.trajectory {
        if !modes.contains(&e.mode) {
            modes.push(e.mode.clone());
        }
    }
    modes
}

/// Compares the latest entry of each mode in `current` against the latest
/// earlier entry of the same mode in `baseline`. When both documents are
/// the same file, that pairs each mode's newest run with its previous one.
/// Modes are discovered from the trajectory itself, so every producer that
/// appends entries — the harness's `parallel`/`sequential` runs and the
/// CLI's `replay-<policy>` runs alike — is gated.
pub fn compare_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold: f64,
) -> GateReport {
    let same_doc = std::ptr::eq(baseline, current) || baseline.trajectory == current.trajectory;
    let mut report = GateReport::default();
    for mode in modes_of(current) {
        let mode = mode.as_str();
        let newest = current.trajectory.iter().rev().find(|e| e.mode == mode);
        let Some(newest) = newest else { continue };
        let bar = if same_doc {
            // Same file: the predecessor is the previous same-mode entry.
            baseline
                .trajectory
                .iter()
                .rev()
                .filter(|e| e.mode == mode)
                .nth(1)
        } else {
            baseline.trajectory.iter().rev().find(|e| e.mode == mode)
        };
        match bar {
            None => report.uncompared.push(mode.to_string()),
            Some(bar) => report
                .comparisons
                .push(compare_entries(mode, bar, newest, threshold)),
        }
    }
    report
}

fn compare_entries(
    mode: &str,
    baseline: &TrajectoryEntry,
    current: &TrajectoryEntry,
    threshold: f64,
) -> ModeComparison {
    let wall_ratio = if baseline.wall_secs > 0.0 {
        current.wall_secs / baseline.wall_secs
    } else {
        1.0
    };
    let throughput_ratio = if baseline.events_per_sec > 0.0 {
        current.events_per_sec / baseline.events_per_sec
    } else {
        1.0
    };
    let wall_regressed = wall_ratio > 1.0 + threshold
        && current.wall_secs - baseline.wall_secs > MIN_WALL_SLACK_SECS;
    // Throughput is events over wall time of the same runs, so its noise
    // floor scales with the baseline rather than being absolute.
    let throughput_regressed = baseline.events_per_sec > 0.0
        && throughput_ratio < 1.0 - threshold
        && baseline.events_per_sec - current.events_per_sec > 0.05 * baseline.events_per_sec;
    ModeComparison {
        mode: mode.to_string(),
        baseline: baseline.clone(),
        current: current.clone(),
        wall_ratio,
        throughput_ratio,
        regressed: wall_regressed || throughput_regressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(mode: &str, rev: &str, wall: f64, eps: f64) -> TrajectoryEntry {
        TrajectoryEntry {
            git_rev: rev.into(),
            mode: mode.into(),
            threads: if mode == "parallel" { 4 } else { 1 },
            wall_secs: wall,
            events_per_sec: eps,
        }
    }

    fn doc(entries: Vec<TrajectoryEntry>) -> BenchReport {
        BenchReport {
            parallel: None,
            sequential: None,
            trajectory: entries,
        }
    }

    #[test]
    fn doubling_wall_clock_fails_the_gate() {
        // The acceptance fixture: a synthetic 2× wall-clock regression.
        let d = doc(vec![
            entry("parallel", "old", 2.0, 10_000.0),
            entry("parallel", "new", 4.0, 5_000.0),
        ]);
        let gate = compare_reports(&d, &d, 0.10);
        assert!(gate.regressed());
        let c = &gate.comparisons[0];
        assert!(c.regressed);
        assert!((c.wall_ratio - 2.0).abs() < 1e-12);
        assert!(gate.render(0.10).contains("FAIL"));
    }

    #[test]
    fn jitter_under_the_threshold_passes() {
        let d = doc(vec![
            entry("parallel", "old", 2.0, 10_000.0),
            entry("parallel", "new", 2.1, 9_600.0),
        ]);
        let gate = compare_reports(&d, &d, 0.10);
        assert!(!gate.regressed());
        assert!(gate.render(0.10).contains("PASS"));
    }

    #[test]
    fn tiny_experiments_need_absolute_slack_to_fail() {
        // 2× slower but only 40 ms absolute: under the 0.25 s floor, and
        // throughput within its own floor — noise, not a regression.
        let d = doc(vec![
            entry("parallel", "old", 0.04, 10_000.0),
            entry("parallel", "new", 0.08, 9_800.0),
        ]);
        let gate = compare_reports(&d, &d, 0.10);
        assert!(!gate.regressed());
    }

    #[test]
    fn throughput_collapse_fails_even_with_flat_wall_clock() {
        // Same wall time, half the events drained: the harness silently
        // lost coverage — gate on it.
        let d = doc(vec![
            entry("sequential", "old", 10.0, 50_000.0),
            entry("sequential", "new", 10.0, 24_000.0),
        ]);
        let gate = compare_reports(&d, &d, 0.10);
        assert!(gate.regressed());
    }

    #[test]
    fn modes_compare_independently_and_singletons_are_skipped() {
        let d = doc(vec![
            entry("sequential", "old", 10.0, 50_000.0),
            entry("parallel", "only", 2.0, 10_000.0),
            entry("sequential", "new", 30.0, 16_000.0),
        ]);
        let gate = compare_reports(&d, &d, 0.10);
        assert_eq!(gate.comparisons.len(), 1);
        assert_eq!(gate.comparisons[0].mode, "sequential");
        assert!(gate.regressed());
        assert_eq!(gate.uncompared, vec!["parallel".to_string()]);
    }

    #[test]
    fn separate_baseline_compares_latest_to_latest() {
        let old = doc(vec![entry("parallel", "main", 2.0, 10_000.0)]);
        let new = doc(vec![entry("parallel", "branch", 4.0, 5_000.0)]);
        let gate = compare_reports(&old, &new, 0.10);
        assert!(gate.regressed());
        // And a fast branch passes.
        let fast = doc(vec![entry("parallel", "branch", 1.5, 13_000.0)]);
        assert!(!compare_reports(&old, &fast, 0.10).regressed());
    }

    #[test]
    fn replay_modes_are_discovered_and_gated() {
        // A replay mode the gate was never taught about by name: it must
        // still be paired and can still fail the gate.
        let d = doc(vec![
            entry("parallel", "old", 2.0, 10_000.0),
            entry("replay-pdpa", "old", 3.0, 900_000.0),
            entry("parallel", "new", 2.0, 10_100.0),
            entry("replay-pdpa", "new", 8.0, 330_000.0),
            entry("replay-equip", "only", 3.1, 880_000.0),
        ]);
        let gate = compare_reports(&d, &d, 0.10);
        let modes: Vec<&str> = gate.comparisons.iter().map(|c| c.mode.as_str()).collect();
        // Harness modes render first, discovered modes after.
        assert_eq!(modes, vec!["parallel", "replay-pdpa"]);
        assert!(gate.regressed(), "the replay slowdown trips the gate");
        assert!(!gate.comparisons[0].regressed);
        assert!(gate.comparisons[1].regressed);
        assert_eq!(gate.uncompared, vec!["replay-equip".to_string()]);
    }

    #[test]
    fn empty_trajectory_passes_with_a_note() {
        let d = doc(Vec::new());
        let gate = compare_reports(&d, &d, 0.10);
        assert!(!gate.regressed());
        assert!(gate.render(0.10).contains("empty trajectory"));
    }
}
