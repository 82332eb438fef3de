//! The command-line harness behind every `expt-*` binary.
//!
//! `expt-all` used to fan out one subprocess per experiment; each child
//! rebuilt its workloads, and a panic anywhere took the whole run down with
//! a raw backtrace. The harness replaces that with the in-process
//! [`crate::experiments`] registry: experiments run concurrently on worker
//! threads, panics are caught per experiment, and outputs print in
//! deterministic paper order regardless of completion order.
//!
//! Flags (shared by `expt-all` and the single-experiment binaries):
//!
//! - `--only <name>` — run a single experiment from `expt-all`;
//! - `--trace-out <file>` — record every engine run's decision-event
//!   stream and export it as Chrome `trace_event` JSON (open in Perfetto);
//! - `--metrics-out <file>` — write the metrics-registry snapshot
//!   (counters, scopes, histograms, failures) as JSON;
//! - `--mpl-csv <file>` — export the recorded runs' multiprogramming-level
//!   history as CSV (the Fig.-8 series, one row per change);
//! - `--analyze-out <file>` — run `pdpa-analyze` over every recorded
//!   stream and write the `pdpa-analyze/v1` document (timelines,
//!   time-in-state, migrations, CPU/MPL series) as JSON.
//!
//! `PDPA_THREADS=1` runs everything on one thread, the experiments' inner
//! sweeps included (see `pdpa_parallel::num_threads`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use crate::experiments::{self, Experiment};
use pdpa_obs::metrics::Registry;
use pdpa_obs::{chrome_trace, collector, metrics_json, mpl_series_csv, scope};

/// Width of the separator rule between experiments (matches the old
/// subprocess-based `expt-all`).
const SEPARATOR_WIDTH: usize = 78;

/// Parsed command-line flags.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Options {
    /// Restrict `expt-all` to one named experiment.
    pub only: Option<String>,
    /// Export the recorded event streams as Chrome trace JSON.
    pub trace_out: Option<String>,
    /// Export the metrics-registry snapshot as JSON.
    pub metrics_out: Option<String>,
    /// Export the recorded runs' MPL history as CSV.
    pub mpl_csv: Option<String>,
    /// Export the recorded runs' derived analytics as JSON.
    pub analyze_out: Option<String>,
}

impl Options {
    /// Whether engine runs should record their decision-event streams.
    fn observing(&self) -> bool {
        self.trace_out.is_some() || self.mpl_csv.is_some() || self.analyze_out.is_some()
    }
}

/// Parses flags from an argument iterator (without the program name).
pub fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut args = args;
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => match args.next() {
                Some(name) => opts.only = Some(name),
                None => return Err("--only requires an experiment name".into()),
            },
            "--trace-out" => match args.next() {
                Some(path) => opts.trace_out = Some(path),
                None => return Err("--trace-out requires a file path".into()),
            },
            "--metrics-out" => match args.next() {
                Some(path) => opts.metrics_out = Some(path),
                None => return Err("--metrics-out requires a file path".into()),
            },
            "--mpl-csv" => match args.next() {
                Some(path) => opts.mpl_csv = Some(path),
                None => return Err("--mpl-csv requires a file path".into()),
            },
            "--analyze-out" => match args.next() {
                Some(path) => opts.analyze_out = Some(path),
                None => return Err("--analyze-out requires a file path".into()),
            },
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --only <name>, --trace-out <file>, \
                     --metrics-out <file>, --mpl-csv <file>, or --analyze-out <file>)"
                ))
            }
        }
    }
    Ok(opts)
}

/// Entry point for `expt-all`: every registered experiment, or the
/// `--only` subset.
pub fn main_all() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => return usage_error(&message),
    };
    let list = match &opts.only {
        None => experiments::registry(),
        Some(name) => match experiments::find(name) {
            Some(e) => vec![e],
            None => {
                let known: Vec<&str> = experiments::registry().iter().map(|e| e.name).collect();
                return usage_error(&format!(
                    "unknown experiment `{name}`; available: {}",
                    known.join(", ")
                ));
            }
        },
    };
    run(&list, &opts)
}

/// Entry point for the single-experiment binaries (`expt-fig5`, …).
pub fn main_single(name: &str) -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) if opts.only.is_some() => {
            return usage_error("--only is only meaningful for expt-all")
        }
        Ok(opts) => opts,
        Err(message) => return usage_error(&message),
    };
    let e = experiments::find(name).unwrap_or_else(|| panic!("unregistered experiment {name}"));
    run(&[e], &opts)
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

/// Runs one experiment, returning its rendered output or the panic
/// message.
fn run_guarded(e: &Experiment) -> Result<String, String> {
    // Engine runs below are attributed to this experiment in the metrics
    // registry (and in recorded event-stream keys).
    let _scope = scope::enter(e.name);
    catch_unwind(AssertUnwindSafe(e.run)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string());
        // Preserve the panic as a structured event so the failure shows up
        // in the metrics export, not just on stderr.
        collector::record_failure(e.name, message.clone());
        message
    })
}

/// Writes an export file, reporting the path on stderr like the CLI does.
fn write_export(path: &str, what: &str, contents: &str) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    eprintln!("[{path}] {what} written");
    Ok(())
}

/// Runs `list` concurrently, prints the outputs in registry order, writes
/// the requested exports, and reports failures with a nonzero exit
/// instead of a panic.
fn run(list: &[Experiment], opts: &Options) -> ExitCode {
    if opts.observing() {
        collector::set_recording(true);
    }

    let outcomes = pdpa_parallel::par_map(list, pdpa_parallel::num_threads(), run_guarded);

    let mut failures: Vec<&str> = Vec::new();
    for (e, outcome) in list.iter().zip(&outcomes) {
        if list.len() > 1 {
            println!("{}", "=".repeat(SEPARATOR_WIDTH));
        }
        match outcome {
            Ok(text) => print!("{text}"),
            Err(message) => {
                eprintln!("{}: FAILED: {message}", e.name);
                failures.push(e.name);
            }
        }
    }

    // Drain the recorded streams once; every export below reads from this
    // (deterministically ordered) drain.
    let recorded_runs = if opts.observing() {
        collector::set_recording(false);
        collector::take_runs()
    } else {
        Vec::new()
    };

    if let Some(path) = &opts.trace_out {
        if let Err(code) = write_export(path, "Chrome trace", &chrome_trace(&recorded_runs)) {
            return code;
        }
    }
    if let Some(path) = &opts.mpl_csv {
        if let Err(code) = write_export(path, "MPL series CSV", &mpl_series_csv(&recorded_runs)) {
            return code;
        }
    }
    if let Some(path) = &opts.metrics_out {
        let doc = metrics_json(&Registry::global().snapshot(), &collector::take_failures());
        if let Err(code) = write_export(path, "metrics JSON", &doc) {
            return code;
        }
    }
    if let Some(path) = &opts.analyze_out {
        let analyses: Vec<(String, pdpa_analyze::RunAnalysis)> = recorded_runs
            .iter()
            .map(|(key, events)| (key.clone(), pdpa_analyze::RunAnalysis::from_events(events)))
            .collect();
        let doc = pdpa_analyze::analysis_json(&analyses);
        if let Err(code) = write_export(path, "run analysis JSON", &doc) {
            return code;
        }
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} experiment(s) failed: {}",
            failures.len(),
            list.len(),
            failures.join(", ")
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Options, String> {
        parse_args(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        assert_eq!(parse(&[]).unwrap(), Options::default());
        let opts = parse(&["--only", "fig5"]).unwrap();
        assert_eq!(opts.only.as_deref(), Some("fig5"));
    }

    #[test]
    fn parses_observability_flags() {
        let opts = parse(&[
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.json",
            "--mpl-csv",
            "mpl.csv",
            "--analyze-out",
            "analysis.json",
        ])
        .unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(opts.metrics_out.as_deref(), Some("metrics.json"));
        assert_eq!(opts.mpl_csv.as_deref(), Some("mpl.csv"));
        assert_eq!(opts.analyze_out.as_deref(), Some("analysis.json"));
        assert!(opts.observing());
        assert!(!Options::default().observing());
        // --analyze-out alone must turn recording on, or the analysis
        // would silently be empty.
        let alone = parse(&["--analyze-out", "analysis.json"]).unwrap();
        assert!(alone.observing());
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--only"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--metrics-out"]).is_err());
        assert!(parse(&["--mpl-csv"]).is_err());
        assert!(parse(&["--analyze-out"]).is_err());
    }

    #[test]
    fn rejects_the_retired_trajectory_flags() {
        // Retired flags are unknown arguments, not silently ignored.
        for flag in ["--json", "--sequential"] {
            let err = parse(&[flag]).unwrap_err();
            assert!(
                err.contains("unknown argument") && err.contains(flag),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn guarded_runs_catch_panics() {
        let boom = Experiment {
            name: "boom",
            title: "always panics",
            run: || panic!("exploded as designed"),
        };
        assert_eq!(
            run_guarded(&boom).unwrap_err(),
            "exploded as designed".to_string()
        );
    }
}
