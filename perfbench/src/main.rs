//! The repository benchmark: end-to-end and per-layer metrics of the PDPA
//! reproduction on four workloads, every layer timed from outside.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay-steady --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of a traced run and
//! writes its spans under `perfbench/out/`. Human-readable lines come
//! first; the last line of standard output is one JSON object. See
//! `perfbench/README.md` for the workloads and metrics.

mod daemon;
mod layers;
mod replay;
mod stats;
mod sweep;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 4] = ["setup_s", "latency_ms", "throughput_per_s", "peak_rss_mb"];

/// Per-layer metrics and their units, reported by every workload with
/// `--trace 1`; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 64] = [
    ("qs.parse_s", "s"),
    ("qs.shape_s", "s"),
    ("qs.rss_delta_mb", "MB"),
    ("engine.self_s", "s"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.stale_ratio", "ratio"),
    ("engine.memo_hit_ratio", "ratio"),
    ("engine.rss_delta_mb", "MB"),
    ("policy.calls", "count"),
    ("policy.arrival_calls", "count"),
    ("policy.completion_calls", "count"),
    ("policy.report_calls", "count"),
    ("policy.admit_calls", "count"),
    ("policy.busy_s", "s"),
    ("policy.ns_per_call", "ns"),
    ("policy.nonempty_ratio", "ratio"),
    ("obs.events", "count"),
    ("obs.publish_busy_s", "s"),
    ("obs.encode_s", "s"),
    ("obs.decode_s", "s"),
    ("obs.stream_bytes", "B"),
    ("obs.bytes_per_job", "B"),
    ("analyze.s", "s"),
    ("analyze.ns_per_event", "ns"),
    ("expt.fig3_s", "s"),
    ("expt.table1_s", "s"),
    ("expt.fig4_s", "s"),
    ("expt.fig5_s", "s"),
    ("expt.table2_s", "s"),
    ("expt.fig6_s", "s"),
    ("expt.fig7_s", "s"),
    ("expt.fig8_s", "s"),
    ("expt.fig9_s", "s"),
    ("expt.table3_s", "s"),
    ("expt.fig10_s", "s"),
    ("expt.table4_s", "s"),
    ("expt.ablation_s", "s"),
    ("expt.hybrid_s", "s"),
    ("expt.cluster_s", "s"),
    ("expt.fragmentation_s", "s"),
    ("expt.sensitivity_s", "s"),
    ("expt.sharing_s", "s"),
    ("expt.chaos_s", "s"),
    ("expt.scale_s", "s"),
    ("expt.tournament_s", "s"),
    ("expt.engine_runs", "count"),
    ("expt.events", "count"),
    ("parallel.cpu_per_wall", "ratio"),
    ("daemon.max_rate_per_s", "1/s"),
    ("daemon.ack_p99_ms", "ms"),
    ("daemon.handle_submit_p50_us", "us"),
    ("daemon.handle_submit_p99_us", "us"),
    ("daemon.pace_busy_s", "s"),
    ("daemon.pace_calls", "count"),
    ("daemon.session_events", "count"),
    ("daemon.reject_busy", "count"),
    ("daemon.reject_queue_full", "count"),
    ("watch.status_rtt_p50_us", "us"),
    ("watch.status_p99_ms", "ms"),
    ("gen.lateness_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.timer_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Where runs write spans and scratch inputs, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

/// What one workload run measured.
#[derive(Debug)]
pub struct Report {
    fingerprint: String,
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    /// An empty report for a workload described by `fingerprint`.
    pub fn new(fingerprint: String) -> Report {
        Report {
            fingerprint,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds operations counted elsewhere, with their failure messages.
    pub fn absorb(&mut self, attempted: u64, failed: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.failures.extend_from_slice(failures);
    }

    /// Counts one failed operation when `failures` is non-empty.
    pub fn fail_all(&mut self, failures: &[String]) {
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend_from_slice(failures);
        }
    }
}

/// Writes a traced run's spans to `perfbench/out/`.
pub fn write_spans(
    out: &Path,
    workload: &str,
    seed: u64,
    tracer: &layers::Tracer,
) -> Result<(), String> {
    let path = out.join(format!("spans-{workload}-{seed}.tsv"));
    std::fs::write(&path, tracer.to_tsv())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(25.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, out: &Path) -> Result<Report, String> {
    match args.workload.as_str() {
        "replay-steady" => replay::STEADY.run(args.seed, args.seconds, args.trace, out),
        "replay-backlog" => replay::BACKLOG.run(args.seed, args.seconds, args.trace, out),
        "expt-sweep" => sweep::run(args.seconds, args.trace),
        "daemon-submit" => daemon::run(args.seed, args.seconds, args.trace, out),
        other => Err(format!(
            "unknown workload {other} (replay-steady, replay-backlog, expt-sweep, daemon-submit)"
        )),
    }
}

/// The human-readable lines and the closing JSON object; `nproc` is
/// read before the run, which may pin its thread.
fn render(args: &Args, nproc: usize, report: &Report) -> Result<String, String> {
    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|n| (*n, "")).collect()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed {} trace {} | nproc {} | rev {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc,
        stats::git_rev()
    );
    let _ = writeln!(out, "fingerprint: {}", report.fingerprint);
    for note in &report.notes {
        let _ = writeln!(out, "{note}");
    }
    let mut json = String::new();
    for (name, unit) in &expected {
        let found = report.metrics.iter().find(|(n, _, _)| n == name);
        let (value, unit) = match found {
            Some((_, v, u)) => (*v, *u),
            None if args.trace => (0.0, *unit),
            None => return Err(format!("{} reported no {name}", args.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        let _ = writeln!(out, "{name:<30} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    if let Some((name, _, _)) = report
        .metrics
        .iter()
        .find(|(n, _, _)| !expected.iter().any(|(e, _)| e == n))
    {
        return Err(format!("{name} is not a declared metric"));
    }
    let _ = writeln!(
        out,
        "fail_ratio {} ({} of {} operations failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for failure in &report.failures {
        let _ = writeln!(out, "FAIL: {failure}");
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed
    );
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let nproc = stats::nproc();
    match run(&args, out).and_then(|report| render(&args, nproc, &report)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
