//! Validates the self-profiling exports of `pdpa replay --profile-out` —
//! the CI gate behind the span profiler and the binary observer stream.
//!
//! ```text
//! validate-prof --profile prof.json [--report report.txt] [--stream run.bin]
//! ```
//!
//! Checks (any failure exits nonzero with a message):
//!
//! - the profile parses as Chrome `trace_event` JSON, every event is a
//!   complete (`X`) span or a metadata (`M`) record, every `X` span has a
//!   name and a duration on a declared lane, and the only thread lane is
//!   `coordinator`;
//! - with `--report`, the text hot-path report is non-empty and carries
//!   the table header plus the top-level `replay` span row;
//! - with both, the profile holds one `X` span per timed call: the
//!   `replay` span plus one per sample the report counts, so the span
//!   count is 1 + the sum of the report's `samples` column;
//! - with `--stream`, the file starts with the `PDPAOBS1` magic and every
//!   frame decodes back to a `TimedEvent` (non-empty).

use std::collections::BTreeSet;
use std::process::ExitCode;

use pdpa_obs::json::Json;

fn fail(message: &str) -> ExitCode {
    eprintln!("validate-prof: FAILED: {message}");
    ExitCode::FAILURE
}

/// Reads and parses the JSON document at `path`, then runs `check` on it.
fn check_file<T>(path: &str, check: fn(&Json) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    check(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
}

/// Validates the profiler's Chrome trace and returns its span count.
fn check_profile(doc: &Json) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("profile has no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut lanes: BTreeSet<String> = BTreeSet::new();
    let mut lane_tids: BTreeSet<u64> = BTreeSet::new();
    let mut spans = 0usize;
    let mut span_tids: BTreeSet<u64> = BTreeSet::new();
    for ev in events {
        let phase = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event without ph")?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event without name")?;
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        match phase {
            "M" => {
                if name == "thread_name" {
                    let lane = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .ok_or("thread_name record without args.name")?;
                    lanes.insert(lane.to_string());
                    lane_tids.insert(tid);
                }
            }
            "X" => {
                if ev.get("ts").and_then(Json::as_f64).is_none()
                    || ev.get("dur").and_then(Json::as_f64).is_none()
                {
                    return Err(format!("X span {name:?} lacks ts/dur"));
                }
                spans += 1;
                span_tids.insert(tid);
            }
            other => return Err(format!("unexpected phase {other:?} (want X or M)")),
        }
    }
    if spans == 0 {
        return Err("no X spans — the profiler recorded nothing".into());
    }
    if let Some(tid) = span_tids.difference(&lane_tids).next() {
        return Err(format!("span on tid {tid} has no thread_name lane"));
    }
    if lanes.len() != 1 || !lanes.contains("coordinator") {
        return Err(format!("lanes {lanes:?} are not exactly [\"coordinator\"]"));
    }
    Ok(spans)
}

/// Validates the hot-path report and returns the sum of its `samples`
/// column (the `replay` row, timed once and not sampled, shows `-`).
fn check_report(path: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !text.contains("hot-path report") {
        return Err(format!("{path}: no hot-path report header"));
    }
    let mut lines = text.lines().skip_while(|l| !l.contains("total ms"));
    let header = lines
        .next()
        .ok_or_else(|| format!("{path}: no span table header"))?;
    if header.split_whitespace().nth(2) != Some("samples") {
        return Err(format!("{path}: no samples column in {header:?}"));
    }
    // Table rows: span, count, samples, total ms, %, mean us.
    let rows: Vec<Vec<&str>> = lines
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .take_while(|cells| cells.len() == 6 && cells[4].ends_with('%'))
        .collect();
    if !rows.iter().any(|cells| cells[0] == "replay") {
        return Err(format!("{path}: no top-level replay span row"));
    }
    rows.iter()
        .filter(|cells| cells[2] != "-")
        .map(|cells| {
            cells[2]
                .parse::<u64>()
                .map_err(|_| format!("{path}: bad samples cell in row {cells:?}"))
        })
        .sum()
}

fn check_stream(path: &str) -> Result<usize, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !pdpa_obs::is_binary(&bytes) {
        return Err(format!("{path}: missing PDPAOBS1 magic"));
    }
    let events = pdpa_obs::read_stream(&bytes).map_err(|e| format!("{path}: {e}"))?;
    if events.is_empty() {
        return Err(format!("{path}: stream decodes to zero events"));
    }
    Ok(events.len())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut profile, mut report, mut stream) = (None, None, None);
    while let Some(arg) = args.next() {
        let Some(value) = args.next() else {
            return fail(&format!("{arg} requires a value"));
        };
        match arg.as_str() {
            "--profile" => profile = Some(value),
            "--report" => report = Some(value),
            "--stream" => stream = Some(value),
            other => return fail(&format!("unknown argument `{other}`")),
        }
    }
    if profile.is_none() && report.is_none() && stream.is_none() {
        return fail("nothing to validate (pass --profile, --report, or --stream)");
    }

    let mut spans = None;
    if let Some(path) = &profile {
        match check_file(path, check_profile) {
            Ok(n) => {
                println!("validate-prof: {path}: OK ({n} spans on the coordinator lane)");
                spans = Some(n);
            }
            Err(e) => return fail(&e),
        }
    }
    if let Some(path) = &report {
        match check_report(path) {
            Ok(samples) => {
                println!("validate-prof: {path}: OK (hot-path report, {samples} samples)");
                if let Some(n) = spans.filter(|&n| n as u64 != 1 + samples) {
                    return fail(&format!(
                        "{n} X spans, but the report counts 1 replay span + {samples} samples"
                    ));
                }
            }
            Err(e) => return fail(&e),
        }
    }
    if let Some(path) = stream {
        match check_stream(&path) {
            Ok(n) => println!("validate-prof: {path}: OK ({n} binary frames decoded)"),
            Err(e) => return fail(&e),
        }
    }
    ExitCode::SUCCESS
}
