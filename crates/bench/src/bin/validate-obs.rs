//! Validates the observability exports emitted by the harness flags —
//! the CI gate behind `--trace-out` / `--metrics-out`.
//!
//! ```text
//! validate-obs --trace trace.json --metrics metrics.json \
//!              [--analyze analysis.json]
//! ```
//!
//! Checks (any failure exits nonzero with a message):
//!
//! - the Chrome trace parses as JSON, has a non-empty `traceEvents` array,
//!   and every duration-begin (`B`) event is closed by an end (`E`) on the
//!   same `(pid, tid)` lane;
//! - the metrics document parses, carries the `pdpa-obs-metrics/v1`
//!   schema, and shows nonzero engine runs, drained events, and decisions;
//! - with `--analyze`, the analysis document carries the `pdpa-analyze/v1`
//!   schema and every run shows events, jobs, and decisions.

use std::collections::HashMap;
use std::process::ExitCode;

use pdpa_obs::json::Json;

fn fail(message: &str) -> ExitCode {
    eprintln!("validate-obs: FAILED: {message}");
    ExitCode::FAILURE
}

/// Reads and parses the JSON document at `path`, then runs `check` on it.
fn check_file<T>(path: &str, check: fn(&Json) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    check(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
}

fn check_trace(doc: &Json) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace has no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    // Every B must be matched by an E on its (pid, tid) lane; the exporter
    // closes leftovers synthetically, so an imbalance is a writer bug.
    let mut open: HashMap<(u64, u64), i64> = HashMap::new();
    for ev in events {
        let phase = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event without ph")?;
        let lane = (
            ev.get("pid").and_then(Json::as_u64).unwrap_or(0),
            ev.get("tid").and_then(Json::as_u64).unwrap_or(0),
        );
        match phase {
            "B" => *open.entry(lane).or_insert(0) += 1,
            "E" => {
                let depth = open.entry(lane).or_insert(0);
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!("E without B on pid={} tid={}", lane.0, lane.1));
                }
            }
            _ => {}
        }
    }
    if let Some((lane, depth)) = open.iter().find(|(_, &d)| d != 0) {
        return Err(format!(
            "unclosed span on pid={} tid={} (depth {depth})",
            lane.0, lane.1
        ));
    }
    Ok(events.len())
}

fn check_metrics(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("metrics document has no schema")?;
    if schema != "pdpa-obs-metrics/v1" {
        return Err(format!("unexpected metrics schema {schema:?}"));
    }
    let engine = doc.get("engine").ok_or("metrics has no engine block")?;
    for key in ["runs", "events_popped", "decisions"] {
        let n = engine
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("engine.{key} missing"))?;
        if n == 0 {
            return Err(format!("engine.{key} is zero — nothing was observed"));
        }
    }
    let failures = doc
        .get("failures")
        .and_then(Json::as_arr)
        .ok_or("metrics has no failures array")?;
    if !failures.is_empty() {
        return Err(format!("{} experiment failure(s) recorded", failures.len()));
    }
    Ok(())
}

fn check_analysis(doc: &Json) -> Result<usize, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("analysis document has no schema")?;
    if schema != "pdpa-analyze/v1" {
        return Err(format!("unexpected analysis schema {schema:?}"));
    }
    let runs = doc.get("runs").ok_or("analysis document has no runs")?;
    let Json::Obj(pairs) = runs else {
        return Err("runs is not an object".into());
    };
    if pairs.is_empty() {
        return Err("runs is empty — nothing was recorded".into());
    }
    for (key, run) in pairs {
        for field in ["events", "jobs", "decisions"] {
            let n = run
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("run {key:?} missing {field}"))?;
            if n <= 0.0 {
                return Err(format!("run {key:?} has zero {field}"));
            }
        }
    }
    Ok(pairs.len())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut trace, mut metrics, mut analyze) = (None, None, None);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--trace" => &mut trace,
            "--metrics" => &mut metrics,
            "--analyze" => &mut analyze,
            other => return fail(&format!("unknown argument `{other}`")),
        };
        match args.next() {
            Some(path) => *slot = Some(path),
            None => return fail(&format!("{arg} requires a file path")),
        }
    }
    if trace.is_none() && metrics.is_none() && analyze.is_none() {
        return fail("nothing to validate (pass --trace, --metrics, or --analyze)");
    }

    if let Some(path) = trace {
        match check_file(&path, check_trace) {
            Ok(n) => println!("validate-obs: {path}: OK ({n} trace events, spans paired)"),
            Err(e) => return fail(&e),
        }
    }
    if let Some(path) = metrics {
        match check_file(&path, check_metrics) {
            Ok(()) => println!("validate-obs: {path}: OK (schema, nonzero counters)"),
            Err(e) => return fail(&e),
        }
    }
    if let Some(path) = analyze {
        match check_file(&path, check_analysis) {
            Ok(n) => println!("validate-obs: {path}: OK ({n} analyzed run(s), nonzero metrics)"),
            Err(e) => return fail(&e),
        }
    }
    ExitCode::SUCCESS
}
