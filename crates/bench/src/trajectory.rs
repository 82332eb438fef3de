//! The machine-readable bench trajectory written to `BENCH_pdpa.json`.
//!
//! Each `--json` run records wall time per experiment, the event-queue
//! throughput derived from the engine's pushed/popped counters, the number
//! of cells run, and the thread count. Parallel and sequential runs land
//! under separate mode keys in the same file, so a single document carries
//! both the baseline and the parallel number (and their ratio) for later
//! PRs to regress against.
//!
//! The mode blocks are *latest-wins*: each invocation overwrites its own
//! mode. History lives in the `trajectory` array instead — every `--json`
//! invocation **appends** one entry `(git_rev, mode, threads, wall_secs,
//! events_per_sec)`, so the file accumulates a real performance trajectory
//! across commits for `bench-compare` to gate on.

use crate::json::{parse, Value};
use crate::stats::Snapshot;

/// Schema tag written at the top of the document. `v3` adds the
/// append-only `trajectory` array; `v2` added the optional per-mode
/// `metrics` block (the observability registry snapshot).
pub const SCHEMA: &str = "pdpa-bench/v3";

/// Previous schemas, still accepted on read so existing trajectories merge
/// instead of being discarded (their modes just lack the newer blocks).
pub const SCHEMA_V2: &str = "pdpa-bench/v2";
/// See [`SCHEMA_V2`].
pub const SCHEMA_V1: &str = "pdpa-bench/v1";

/// One appended line of bench history: which commit ran, in which mode,
/// and how fast.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryEntry {
    /// Abbreviated git revision of the working tree (`unknown` outside a
    /// repository).
    pub git_rev: String,
    /// `parallel` or `sequential`.
    pub mode: String,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock seconds of the invocation.
    pub wall_secs: f64,
    /// Simulation events drained per wall-clock second.
    pub events_per_sec: f64,
}

impl TrajectoryEntry {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("git_rev".into(), Value::Str(self.git_rev.clone())),
            ("mode".into(), Value::Str(self.mode.clone())),
            ("threads".into(), Value::Num(self.threads as f64)),
            ("wall_secs".into(), Value::Num(self.wall_secs)),
            ("events_per_sec".into(), Value::Num(self.events_per_sec)),
        ])
    }

    fn from_value(v: &Value) -> Option<TrajectoryEntry> {
        Some(TrajectoryEntry {
            git_rev: v.get("git_rev")?.as_str()?.to_string(),
            mode: v.get("mode")?.as_str()?.to_string(),
            threads: v.get("threads")?.as_u64()? as usize,
            wall_secs: v.get("wall_secs")?.as_f64()?,
            events_per_sec: v.get("events_per_sec")?.as_f64()?,
        })
    }
}

/// Wall time of one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentTiming {
    /// Registry name (`fig3`, `table1`, …).
    pub name: String,
    /// Wall-clock seconds for this experiment.
    pub wall_secs: f64,
    /// False when the experiment panicked.
    pub ok: bool,
}

/// Measurements of one harness invocation (one mode).
#[derive(Clone, Debug, PartialEq)]
pub struct ModeReport {
    /// Worker threads used (1 for the sequential path).
    pub threads: usize,
    /// End-to-end wall-clock seconds of the invocation.
    pub wall_secs: f64,
    /// Harness counter deltas over the invocation.
    pub counters: Snapshot,
    /// The observability metrics snapshot of the invocation (the same
    /// document `--metrics-out` writes), when one was captured.
    pub metrics: Option<Value>,
    /// Per-experiment wall times, in registry order.
    pub experiments: Vec<ExperimentTiming>,
}

impl ModeReport {
    /// Simulation events drained per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.counters.events_popped as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("threads".into(), Value::Num(self.threads as f64)),
            ("wall_secs".into(), Value::Num(self.wall_secs)),
            (
                "events_pushed".into(),
                Value::Num(self.counters.events_pushed as f64),
            ),
            (
                "events_popped".into(),
                Value::Num(self.counters.events_popped as f64),
            ),
            ("events_per_sec".into(), Value::Num(self.events_per_sec())),
            (
                "engine_runs".into(),
                Value::Num(self.counters.engine_runs as f64),
            ),
            (
                "cells_run".into(),
                Value::Num(self.counters.cells_run as f64),
            ),
            (
                "experiments".into(),
                Value::Arr(
                    self.experiments
                        .iter()
                        .map(|e| {
                            Value::Obj(vec![
                                ("name".into(), Value::Str(e.name.clone())),
                                ("wall_secs".into(), Value::Num(e.wall_secs)),
                                ("ok".into(), Value::Bool(e.ok)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(metrics) = &self.metrics {
            pairs.push(("metrics".into(), metrics.clone()));
        }
        Value::Obj(pairs)
    }

    fn from_value(v: &Value) -> Option<ModeReport> {
        Some(ModeReport {
            threads: v.get("threads")?.as_u64()? as usize,
            wall_secs: v.get("wall_secs")?.as_f64()?,
            counters: Snapshot {
                events_pushed: v.get("events_pushed")?.as_u64()?,
                events_popped: v.get("events_popped")?.as_u64()?,
                engine_runs: v.get("engine_runs")?.as_u64()?,
                cells_run: v.get("cells_run")?.as_u64()?,
            },
            metrics: v.get("metrics").cloned(),
            experiments: v
                .get("experiments")?
                .as_arr()?
                .iter()
                .map(|e| {
                    Some(ExperimentTiming {
                        name: e.get("name")?.as_str()?.to_string(),
                        wall_secs: e.get("wall_secs")?.as_f64()?,
                        ok: e.get("ok")?.as_bool()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// The whole `BENCH_pdpa.json` document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// The parallel harness run, when recorded.
    pub parallel: Option<ModeReport>,
    /// The sequential baseline run, when recorded.
    pub sequential: Option<ModeReport>,
    /// Append-only history, one entry per `--json` invocation.
    pub trajectory: Vec<TrajectoryEntry>,
}

impl BenchReport {
    /// Parallel-over-sequential wall-time ratio, when both modes are
    /// recorded.
    pub fn speedup(&self) -> Option<f64> {
        match (&self.sequential, &self.parallel) {
            (Some(seq), Some(par)) if par.wall_secs > 0.0 => Some(seq.wall_secs / par.wall_secs),
            _ => None,
        }
    }

    /// Serializes the report to the `BENCH_pdpa.json` document text.
    pub fn to_json(&self) -> String {
        let mut modes = Vec::new();
        if let Some(par) = &self.parallel {
            modes.push(("parallel".to_string(), par.to_value()));
        }
        if let Some(seq) = &self.sequential {
            modes.push(("sequential".to_string(), seq.to_value()));
        }
        let mut doc = vec![
            ("schema".to_string(), Value::Str(SCHEMA.into())),
            ("modes".to_string(), Value::Obj(modes)),
            (
                "trajectory".to_string(),
                Value::Arr(
                    self.trajectory
                        .iter()
                        .map(TrajectoryEntry::to_value)
                        .collect(),
                ),
            ),
        ];
        if let Some(speedup) = self.speedup() {
            doc.push((
                "speedup_parallel_over_sequential".to_string(),
                Value::Num(speedup),
            ));
        }
        Value::Obj(doc).to_pretty()
    }

    /// Parses a previously-written document. Unknown schemas and malformed
    /// documents yield `None` (the caller starts a fresh report).
    pub fn from_json(text: &str) -> Option<BenchReport> {
        let doc = parse(text).ok()?;
        let schema = doc.get("schema")?.as_str()?;
        if schema != SCHEMA && schema != SCHEMA_V2 && schema != SCHEMA_V1 {
            return None;
        }
        let modes = doc.get("modes")?;
        Some(BenchReport {
            parallel: modes.get("parallel").and_then(ModeReport::from_value),
            sequential: modes.get("sequential").and_then(ModeReport::from_value),
            trajectory: doc
                .get("trajectory")
                .and_then(Value::as_arr)
                .map(|entries| {
                    entries
                        .iter()
                        .filter_map(TrajectoryEntry::from_value)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Folds this run's mode report into a document on disk — overwriting
    /// this mode's block, preserving the other mode's, and **appending**
    /// one trajectory entry — and returns the merged text.
    pub fn merge_into(
        existing: Option<&str>,
        sequential_mode: bool,
        report: ModeReport,
        git_rev: &str,
    ) -> String {
        let mut doc = existing
            .and_then(BenchReport::from_json)
            .unwrap_or_default();
        let mode = if sequential_mode {
            "sequential"
        } else {
            "parallel"
        };
        doc.trajectory.push(TrajectoryEntry {
            git_rev: git_rev.to_string(),
            mode: mode.to_string(),
            threads: report.threads,
            wall_secs: report.wall_secs,
            events_per_sec: report.events_per_sec(),
        });
        if sequential_mode {
            doc.sequential = Some(report);
        } else {
            doc.parallel = Some(report);
        }
        doc.to_json()
    }

    /// Appends one trajectory entry for an arbitrary mode (the harness's
    /// two fixed modes use [`merge_into`](Self::merge_into)) to a document
    /// on disk and returns the merged text. This is how trace replays
    /// (`pdpa replay --json`, mode `replay-<policy>`) enter the same
    /// history the regression gate reads; the `parallel`/`sequential` mode
    /// blocks are preserved untouched.
    pub fn append_entry(existing: Option<&str>, entry: TrajectoryEntry) -> String {
        let mut doc = existing
            .and_then(BenchReport::from_json)
            .unwrap_or_default();
        doc.trajectory.push(entry);
        doc.to_json()
    }
}

/// Abbreviated git revision of the working tree, or `unknown` outside a
/// repository — the provenance stamp on every trajectory entry.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mode(threads: usize, wall: f64) -> ModeReport {
        ModeReport {
            threads,
            wall_secs: wall,
            counters: Snapshot {
                events_pushed: 1000,
                events_popped: 950,
                engine_runs: 36,
                cells_run: 12,
            },
            metrics: None,
            experiments: vec![
                ExperimentTiming {
                    name: "fig3".into(),
                    wall_secs: 0.25,
                    ok: true,
                },
                ExperimentTiming {
                    name: "table1".into(),
                    wall_secs: 0.5,
                    ok: false,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            parallel: Some(sample_mode(4, 3.5)),
            sequential: Some(sample_mode(1, 14.0)),
            trajectory: vec![TrajectoryEntry {
                git_rev: "abc1234".into(),
                mode: "parallel".into(),
                threads: 4,
                wall_secs: 3.5,
                events_per_sec: 271.4,
            }],
        };
        let text = report.to_json();
        let back = BenchReport::from_json(&text).expect("parse back");
        assert_eq!(back, report);
        assert!((back.speedup().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_preserves_the_other_mode() {
        let first = BenchReport::merge_into(None, true, sample_mode(1, 14.0), "rev1");
        assert!(BenchReport::from_json(&first).unwrap().parallel.is_none());
        let second = BenchReport::merge_into(Some(&first), false, sample_mode(4, 3.5), "rev1");
        let doc = BenchReport::from_json(&second).unwrap();
        assert_eq!(doc.sequential.as_ref().unwrap().wall_secs, 14.0);
        assert_eq!(doc.parallel.as_ref().unwrap().wall_secs, 3.5);
        assert!(second.contains("speedup_parallel_over_sequential"));
    }

    #[test]
    fn every_merge_appends_a_trajectory_entry() {
        // Re-running the same mode overwrites the mode block but GROWS the
        // trajectory — history is never lost to a rerun.
        let first = BenchReport::merge_into(None, false, sample_mode(4, 3.5), "rev1");
        let second = BenchReport::merge_into(Some(&first), false, sample_mode(4, 3.2), "rev2");
        let third = BenchReport::merge_into(Some(&second), true, sample_mode(1, 14.0), "rev2");
        let doc = BenchReport::from_json(&third).unwrap();
        assert_eq!(doc.trajectory.len(), 3);
        assert_eq!(doc.trajectory[0].git_rev, "rev1");
        assert_eq!(doc.trajectory[1].wall_secs, 3.2);
        assert_eq!(doc.trajectory[2].mode, "sequential");
        // The mode block holds only the latest parallel run.
        assert_eq!(doc.parallel.as_ref().unwrap().wall_secs, 3.2);
        // events_per_sec is derived from the run's own counters.
        let expected = 950.0 / 3.2;
        assert!((doc.trajectory[1].events_per_sec - expected).abs() < 1e-9);
    }

    #[test]
    fn metrics_block_round_trips() {
        let mut mode = sample_mode(4, 3.5);
        mode.metrics = Some(Value::Obj(vec![
            ("schema".into(), Value::Str("pdpa-obs-metrics/v1".into())),
            (
                "engine".into(),
                Value::Obj(vec![("runs".into(), Value::Num(36.0))]),
            ),
        ]));
        let report = BenchReport {
            parallel: Some(mode.clone()),
            sequential: None,
            trajectory: Vec::new(),
        };
        let text = report.to_json();
        assert!(text.contains("pdpa-bench/v3"));
        assert!(text.contains("pdpa-obs-metrics/v1"));
        let back = BenchReport::from_json(&text).expect("parse back");
        assert_eq!(back.parallel.unwrap().metrics, mode.metrics);
    }

    #[test]
    fn older_schemas_still_parse() {
        // v1/v2 documents (no trajectory array) merge rather than being
        // discarded; the upgrade rewrites them as v3.
        let report = BenchReport {
            sequential: Some(sample_mode(1, 14.0)),
            parallel: None,
            trajectory: Vec::new(),
        };
        for old in ["pdpa-bench/v1", "pdpa-bench/v2"] {
            let old_text = report.to_json().replace("pdpa-bench/v3", old);
            let doc = BenchReport::from_json(&old_text).expect("old schema accepted");
            assert_eq!(doc.sequential.as_ref().unwrap().wall_secs, 14.0);
            assert_eq!(doc.sequential.as_ref().unwrap().metrics, None);
            // Merging into the old document keeps its mode and upgrades the
            // schema tag.
            let merged = BenchReport::merge_into(Some(&old_text), false, sample_mode(4, 3.5), "r");
            let doc = BenchReport::from_json(&merged).unwrap();
            assert!(doc.sequential.is_some() && doc.parallel.is_some());
            assert_eq!(doc.trajectory.len(), 1);
            assert!(merged.contains("pdpa-bench/v3"));
        }
    }

    #[test]
    fn malformed_documents_start_fresh() {
        assert!(BenchReport::from_json("{]").is_none());
        assert!(BenchReport::from_json("{\"schema\": \"other\"}").is_none());
        let text = BenchReport::merge_into(Some("not json"), false, sample_mode(4, 1.0), "r");
        assert!(BenchReport::from_json(&text).unwrap().parallel.is_some());
    }

    #[test]
    fn events_per_sec_derives_from_counters() {
        let m = sample_mode(4, 2.0);
        assert!((m.events_per_sec() - 475.0).abs() < 1e-12);
    }
}
