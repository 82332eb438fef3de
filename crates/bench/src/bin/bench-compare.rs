//! The CI perf-regression gate over the bench trajectory.
//!
//! ```text
//! bench-compare --baseline BENCH_pdpa.json [--current other.json] \
//!               [--threshold 10%]
//! ```
//!
//! With only `--baseline`, the latest trajectory entry of each mode is
//! compared against the previous entry of the same mode in the same file
//! (the append-only history `expt-*` binaries grow on every `--json`
//! run). With `--current`, the newest entries of the two files are
//! compared — baseline from the main branch, current from the candidate.
//!
//! Exit status: 0 when the gate passes, 1 on a perf regression, 2 on
//! usage or I/O errors.

use pdpa_bench::regression::compare_reports;
use pdpa_bench::trajectory::BenchReport;
use std::process::ExitCode;

const USAGE: &str = "usage: bench-compare --baseline <file> [--current <file>] \
                     [--threshold <pct>]";

fn main() -> ExitCode {
    let mut baseline_path = None;
    let mut current_path = None;
    let mut threshold = 0.10;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next(),
            "--current" => current_path = args.next(),
            "--threshold" => {
                let Some(raw) = args.next() else {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                };
                match parse_threshold(&raw) {
                    Some(t) => threshold = t,
                    None => {
                        eprintln!("bench-compare: bad threshold {raw:?} (want e.g. 10% or 0.1)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bench-compare: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(baseline_path) = baseline_path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let baseline = match load(&baseline_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench-compare: {e}");
            return ExitCode::from(2);
        }
    };
    let current = match &current_path {
        None => baseline.clone(),
        Some(path) => match load(path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("bench-compare: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let gate = compare_reports(&baseline, &current, threshold);
    println!("{}", gate.render(threshold));
    if gate.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    BenchReport::from_json(&text)
        .ok_or_else(|| format!("{path:?} is not a pdpa-bench trajectory document"))
}

/// Accepts `10%`, `10`, or `0.1` — all meaning ten percent.
fn parse_threshold(raw: &str) -> Option<f64> {
    let trimmed = raw.strip_suffix('%').unwrap_or(raw);
    let v: f64 = trimmed.parse().ok()?;
    if !(v.is_finite() && v >= 0.0) {
        return None;
    }
    Some(if raw.ends_with('%') || v >= 1.0 {
        v / 100.0
    } else {
        v
    })
}
