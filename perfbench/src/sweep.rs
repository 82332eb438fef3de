//! `expt-sweep`: one pass calls every experiment of
//! `pdpa_bench::experiments::registry()` in registry order from this
//! thread, with the experiments' own sweep workers capped at `nproc`
//! through `PDPA_THREADS`. Hundreds of tiny engine runs: per-run set-up
//! and the parallel harness dominate, not event backlog.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pdpa_bench::experiments::{registry, Experiment};
use pdpa_obs::{scope, Registry};

use crate::layers::Tracer;
use crate::stats::{
    allowed_cpus, cpu_secs, median, nproc, peak_rss_mb, pin_in_turn, pin_to, Dist,
};
use crate::Report;

/// Warm-up passes of the set-up.
const WARM_UPS: usize = 3;

/// One experiment call: its output, or the panic message.
fn call(e: &Experiment) -> Result<String, String> {
    // Attribute the engine runs to the experiment, as `expt-all` does.
    let _scope = scope::enter(e.name);
    catch_unwind(AssertUnwindSafe(e.run)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string())
    })
}

/// Timings and counters of one pass.
struct Pass {
    wall_s: f64,
    call_s: Vec<f64>,
    cpu_s: f64,
    runs: u64,
    pushed: u64,
    popped: u64,
    stale: u64,
    memo_hits: u64,
    memo_misses: u64,
}

fn pass(
    list: &[Experiment],
    reference: &[Result<String, String>],
    report: &mut Report,
    mut tracer: Option<(&mut Tracer, u64)>,
) -> Pass {
    let before = Registry::global().snapshot().engine;
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let mut call_s = Vec::with_capacity(list.len());
    let mut spans = Vec::new();
    for (e, expected) in list.iter().zip(reference) {
        let start = Instant::now();
        let output = call(e);
        let end = Instant::now();
        call_s.push(end.duration_since(start).as_secs_f64());
        spans.push((e.name, start, end));
        report.attempted += 1;
        let failure = match (&output, expected) {
            (Err(message), _) => Some(format!("{} panicked: {message}", e.name)),
            (Ok(got), Ok(first)) if got != first => {
                Some(format!("{} output differs from the first pass", e.name))
            }
            _ => None,
        };
        if let Some(failure) = failure {
            report.fail_all(&[failure]);
        }
    }
    let end = Instant::now();
    let cpu_s = cpu_secs() - cpu0;
    let after = Registry::global().snapshot().engine;
    if let Some((tracer, request)) = tracer.as_mut() {
        let root = tracer.record("expt.pass", t0, end, None, *request);
        for (name, a, b) in spans {
            tracer.record(name, a, b, Some(root), *request);
        }
    }
    Pass {
        wall_s: end.duration_since(t0).as_secs_f64(),
        call_s,
        cpu_s,
        runs: after.runs - before.runs,
        pushed: after.events_pushed - before.events_pushed,
        popped: after.events_popped - before.events_popped,
        stale: after.events_stale_dropped - before.events_stale_dropped,
        memo_hits: after.memo_hits - before.memo_hits,
        memo_misses: after.memo_misses - before.memo_misses,
    }
}

/// Runs sweep passes for about `seconds`.
pub fn run(seconds: f64, trace: bool) -> Result<Report, String> {
    let threads = nproc();
    // The registry's sweeps size their worker pools from these variables
    // on every call; this thread is the only one running yet.
    std::env::remove_var("RAYON_NUM_THREADS");
    std::env::set_var("PDPA_THREADS", threads.to_string());
    let list = registry();
    let mut report = Report::new(format!(
        "{} experiments, PDPA_THREADS={threads}, no generated inputs",
        list.len()
    ));

    // Set-up: warm-up passes, pinned to the processors in turn like the
    // untraced passes. The first one's outputs are the reference every
    // later pass must repeat byte for byte; the set-up time is the median
    // over them, since one pass is at the mercy of the host's phase.
    let cpus = allowed_cpus();
    let mut setups = Vec::with_capacity(WARM_UPS);
    let mut reference: Vec<Result<String, String>> = Vec::new();
    for k in 0..WARM_UPS {
        pin_in_turn(&cpus, k);
        if k == 0 {
            let t = Instant::now();
            reference = list.iter().map(call).collect();
            setups.push(t.elapsed().as_secs_f64());
            for (e, out) in list.iter().zip(&reference) {
                report.attempted += 1;
                if let Err(message) = out {
                    report.fail_all(&[format!("{} panicked: {message}", e.name)]);
                }
            }
        } else {
            setups.push(pass(&list, &reference, &mut report, None).wall_s);
        }
    }
    let setup_s = median(&setups);
    if trace {
        // Traced passes use every processor; see below.
        pin_to(&cpus);
    }

    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::default();
    loop {
        // Untraced passes run on one processor each, in turn, with the
        // workers they start: a pass spread over every processor runs at
        // the pace of whichever is in a slow phase. Traced passes keep
        // every processor, so that `parallel.cpu_per_wall` measures the
        // harness's use of them.
        if !trace {
            pin_in_turn(&cpus, plain.len());
        }
        let p = if trace && !plain.is_empty() {
            let request = traced.len() as u64;
            traced.push(pass(
                &list,
                &reference,
                &mut report,
                Some((&mut tracer, request)),
            ));
            traced.last()
        } else {
            plain.push(pass(&list, &reference, &mut report, None));
            plain.last()
        };
        let last = p.expect("a pass was just pushed").wall_s;
        if started.elapsed().as_secs_f64() + last > seconds && (!trace || !traced.is_empty()) {
            break;
        }
    }

    let walls = |ps: &[Pass]| ps.iter().map(|p| p.wall_s).collect::<Vec<f64>>();
    if !trace {
        let calls: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.call_s.iter().copied())
            .collect();
        let dist = Dist::of(&calls, 99.0);
        report.note(format!(
            "experiment call latency {}",
            dist.describe(1e3, "ms")
        ));
        report.note(format!(
            "{} passes; {} engine runs and {} events a pass; pass latency {}",
            plain.len(),
            plain[0].runs,
            plain[0].popped,
            Dist::of(&walls(&plain), 99.0).describe(1e3, "ms")
        ));
        // The host's speed drifts in phases, within a pass too. Summing
        // each experiment's fastest call over the run's passes gives the
        // pass the least disturbed by it.
        let fastest_s: f64 = (0..list.len())
            .map(|i| {
                plain
                    .iter()
                    .map(|p| p.call_s[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        report.metric("setup_s", setup_s, "s");
        report.metric("latency_ms", fastest_s * 1e3, "ms");
        report.metric(
            "throughput_per_s",
            plain[0].popped as f64 / fastest_s,
            "1/s",
        );
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(report);
    }

    crate::write_spans(
        std::path::Path::new(crate::OUT_DIR),
        "expt-sweep",
        0,
        &tracer,
    )?;
    let wall = median(&walls(&traced));
    for (i, e) in list.iter().enumerate() {
        let samples: Vec<f64> = traced.iter().map(|p| p.call_s[i]).collect();
        report.metric(&format!("expt.{}_s", e.name), median(&samples), "s");
    }
    let mid = traced
        .iter()
        .min_by(|a, b| (a.wall_s - wall).abs().total_cmp(&(b.wall_s - wall).abs()))
        .expect("at least one traced pass");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.metric("expt.engine_runs", mid.runs as f64, "count");
    report.metric("expt.events", mid.popped as f64, "count");
    report.metric("engine.events", mid.popped as f64, "count");
    report.metric(
        "engine.stale_ratio",
        ratio(mid.stale as f64, mid.pushed as f64),
        "ratio",
    );
    report.metric(
        "engine.memo_hit_ratio",
        ratio(
            mid.memo_hits as f64,
            (mid.memo_hits + mid.memo_misses) as f64,
        ),
        "ratio",
    );
    report.metric(
        "parallel.cpu_per_wall",
        ratio(mid.cpu_s, mid.wall_s * threads as f64),
        "ratio",
    );
    report.metric(
        "trace.overhead_ratio",
        ratio(wall, median(&walls(&plain))) - 1.0,
        "ratio",
    );
    report.metric(
        "trace.coverage",
        ratio(mid.call_s.iter().sum(), mid.wall_s),
        "ratio",
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_a_declared_metric() {
        for e in registry() {
            let name = format!("expt.{}_s", e.name);
            assert!(
                crate::PER_LAYER.iter().any(|(n, _)| *n == name),
                "{name} missing from PER_LAYER"
            );
        }
        let declared = crate::PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("expt.") && n.ends_with("_s"))
            .count();
        assert_eq!(declared, registry().len());
    }
}
