//! Command implementations.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pdpa_analyze::{analysis_json, Analyzer, RunDiff, StreamDiff};
use pdpa_apps::{paper_app, AppClass};
use pdpa_bench::experiments::tournament::{run_tournament, TournamentConfig};
use pdpa_core::roster::{self, Entry};
use pdpa_engine::{Engine, EngineConfig, Instrumentation, RunResult};
use pdpa_faults::FaultPlan;
use pdpa_obs::metrics::Registry;
use pdpa_obs::{
    chrome_trace, metrics_json, mpl_series_csv, scope, span_trace, stream_events, FilterObserver,
    KindCounter, KindFilter, NullObserver, ObsEvent, Observer, RecordingObserver, StreamWriter,
    TeeObserver,
};
use pdpa_prof::{HeartbeatConfig, WatchdogConfig};
use pdpa_qs::{shape, swf};
use pdpa_sim::SimTime;
use pdpa_trace::{render_ascii, to_paraver, RenderOptions, TraceObserver};
use pdpa_watch::{
    LiveTap, Request, RequestKind, Response, ResponseBody, RunMeta, RunState, StatusServer,
};

use crate::args::{
    Command, CtlAction, CtlOptions, DaemonOptions, ObsFormat, Options, ReplayOptions,
    SubmitOptions, TournamentOptions, WatchOptions,
};
use crate::USAGE;

/// Executes a parsed command and returns its output.
///
/// # Errors
///
/// Returns a diagnostic if a run fails to drain or a file cannot be written.
pub fn dispatch(command: Command) -> Result<String, String> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Curves => Ok(curves()),
        Command::Run(opts) => run_one(&opts),
        Command::Compare(opts) => compare(&opts),
        Command::Analyze(opts) => analyze(&opts),
        Command::Diff(opts) => diff(&opts),
        Command::Replay(opts) => replay(&opts),
        Command::Tournament(opts) => tournament(&opts),
        Command::Watch(opts) => watch(&opts),
        Command::Daemon(opts) => daemon(&opts),
        Command::Submit(opts) => submit(&opts),
        Command::Ctl(opts) => ctl(&opts),
    }
}

fn engine_config(opts: &Options) -> Result<EngineConfig, String> {
    let mut config = EngineConfig::default()
        .with_seed(opts.seed ^ 0xA5A5)
        .with_cpus(opts.cpus);
    if opts.backfill {
        config = config.with_backfill();
    }
    if opts.trace {
        config = config.with_trace();
    }
    if let Some(plan) = &opts.faults {
        let plan = FaultPlan::parse(plan, opts.cpus).map_err(|e| format!("--faults: {e}"))?;
        config = config.with_faults(plan);
    }
    Ok(config)
}

fn execute_with(
    opts: &Options,
    policy: &Entry,
    observer: &mut dyn Observer,
) -> Result<RunResult, String> {
    let jobs = opts
        .workload
        .build_with_tuning(opts.load, opts.seed, !opts.untuned);
    let result = Engine::new(engine_config(opts)?).run_observed(jobs, policy.build(), observer);
    if !result.completed_all {
        return Err(format!(
            "{} did not drain the workload within the simulation bound",
            policy.label
        ));
    }
    Ok(result)
}

/// One-line-per-class metrics of a finished run.
fn class_table(result: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>13} {:>13} {:>10} {:>10}",
        "class", "jobs", "response (s)", "execution (s)", "slowdown", "avg procs"
    );
    for class in AppClass::ALL {
        if let Some(avgs) = result.summary.class_averages(class) {
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>13.1} {:>13.1} {:>10.2} {:>10.1}",
                class.name(),
                avgs.count,
                avgs.avg_response_secs,
                avgs.avg_execution_secs,
                result.summary.avg_slowdown(class).unwrap_or(f64::NAN),
                result
                    .avg_alloc_by_class
                    .get(&class)
                    .copied()
                    .unwrap_or(0.0),
            );
        }
    }
    out
}

fn run_one(opts: &Options) -> Result<String, String> {
    let policy = opts.policy.expect("parser enforces --policy for run");
    // The stream is folded as the engine publishes it: the analysis and
    // the kind counts live, the events recorded only for the Chrome trace
    // and the MPL CSV. The CPU trace under --trace (and the flags that
    // imply it).
    let mut tracer = opts.trace.then(|| TraceObserver::new(opts.cpus));
    let mut analyzer = opts
        .analyze_out
        .as_ref()
        .map(|_| Analyzer::live(Some(opts.cpus)));
    let mut kinds = KindCounter::default();
    let mut recorder =
        (opts.trace_out.is_some() || opts.mpl_csv.is_some()).then(RecordingObserver::new);
    let result = {
        let mut observer: &mut dyn Observer = match &mut tracer {
            Some(tracer) => tracer,
            None => &mut NullObserver,
        };
        let mut analyzer_tee;
        if let Some(analyzer) = &mut analyzer {
            analyzer_tee = TeeObserver(analyzer, observer);
            observer = &mut analyzer_tee;
        }
        let mut kinds_tee;
        if opts.obs {
            kinds_tee = TeeObserver(&mut kinds, observer);
            observer = &mut kinds_tee;
        }
        let mut recorder_tee;
        if let Some(recorder) = &mut recorder {
            recorder_tee = TeeObserver(recorder, observer);
            observer = &mut recorder_tee;
        }
        // Attribute this run's registry counters to a CLI scope so the
        // metrics export distinguishes it from harness experiments.
        let _scope = opts
            .observing()
            .then(|| scope::enter(&format!("cli-{}", opts.workload)));
        execute_with(opts, policy, observer)?
    };
    let trace = tracer.map(|t| t.into_trace(SimTime::from_secs(result.end_secs)));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} (load {:.0} %, seed {}, {} CPUs{}{})",
        result.policy,
        opts.workload,
        opts.load * 100.0,
        opts.seed,
        opts.cpus,
        if opts.untuned { ", untuned" } else { "" },
        if opts.backfill { ", backfill" } else { "" },
    );
    let _ = writeln!(
        out,
        "makespan {:.1} s | mean response {:.1} s | p95 response {:.1} s | peak ML {} | utilization {:.0} % | migrations {}",
        result.summary.makespan_secs(),
        result.summary.overall_avg_response_secs(),
        result.summary.response_quantile_secs(0.95).unwrap_or(0.0),
        result.max_ml,
        result.utilization() * 100.0,
        result.total_migrations(),
    );
    if result.cpu_failures + result.job_retries + result.jobs_failed > 0 {
        let _ = writeln!(
            out,
            "faults: {} cpu failures | {} job retries | {} terminal job failures",
            result.cpu_failures, result.job_retries, result.jobs_failed,
        );
    }
    out.push('\n');
    out.push_str(&class_table(&result));

    if opts.ascii {
        let trace = trace.as_ref().expect("--ascii implies --trace");
        out.push('\n');
        out.push_str(&render_ascii(
            trace,
            &RenderOptions {
                width: 100,
                cpu_stride: (opts.cpus / 20).max(1),
            },
        ));
    }
    if let Some(path) = &opts.prv_out {
        let trace = trace.as_ref().expect("--prv-out implies --trace");
        std::fs::write(path, to_paraver(trace)).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "\nParaver trace written to {path}");
    }
    if let Some(path) = &opts.swf_log {
        let jobs = opts
            .workload
            .build_with_tuning(opts.load, opts.seed, !opts.untuned);
        // Outcomes in submission order (JobIds are dense submission ranks).
        let mut outcomes = vec![(0.0, 0.0, 0.0); jobs.len()];
        for o in result.summary.outcomes() {
            let procs = result.avg_alloc_by_job.get(&o.job).copied().unwrap_or(0.0);
            outcomes[o.job.index()] =
                (o.wait_time().as_secs(), o.execution_time().as_secs(), procs);
        }
        let mut sorted = jobs;
        sorted.sort_by_key(|a| a.submit);
        std::fs::write(path, swf::write_swf_log(&sorted, &outcomes))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "\nSWF log written to {path}");
    }
    if opts.obs {
        out.push_str(&event_kind_summary(&kinds));
    }
    let key = format!("{}-{}", opts.workload, result.policy);
    if let Some(recorder) = recorder {
        let runs = vec![(key.clone(), recorder.take_events())];
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, chrome_trace(&runs))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            let _ = writeln!(out, "\nChrome trace written to {path}");
        }
        if let Some(path) = &opts.mpl_csv {
            std::fs::write(path, mpl_series_csv(&runs))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            let _ = writeln!(out, "\nMPL series CSV written to {path}");
        }
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, metrics_json(&Registry::global().snapshot(), &[]))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "\nMetrics JSON written to {path}");
    }
    if let (Some(path), Some(analyzer)) = (&opts.analyze_out, analyzer) {
        std::fs::write(path, analysis_json(&[(key, analyzer.finish())]))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "\nRun analysis JSON written to {path}");
    }
    Ok(out)
}

/// `pdpa analyze`: run one configuration recorded and print every derived
/// metric (plus the JSON document under `--analyze-out`).
fn analyze(opts: &Options) -> Result<String, String> {
    // `--from-stream`: analyze a recorded decision-event stream (text or
    // PDPAOBS1 binary, auto-detected by magic bytes) without re-running
    // the engine.
    if let Some(path) = &opts.from_stream {
        let bytes = read_file(path)?;
        let mut analyzer = Analyzer::live(None);
        for te in stream_events(&bytes).map_err(|e| format!("{path}: {e}"))? {
            analyzer.push(&te.map_err(|e| format!("{path}: {e}"))?);
        }
        let analysis = analyzer.finish();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "analysis of recorded stream {path} ({} events)\n",
            analysis.events
        );
        out.push_str(&analysis.render_text());
        if let Some(out_path) = &opts.analyze_out {
            std::fs::write(out_path, analysis_json(&[(path.clone(), analysis)]))
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            let _ = writeln!(out, "\nRun analysis JSON written to {out_path}");
        }
        return Ok(out);
    }
    let policy = opts.policy.expect("parser enforces --policy for analyze");
    let mut analyzer = Analyzer::live(Some(opts.cpus));
    let result = {
        let _scope = scope::enter(&format!("cli-{}", opts.workload));
        execute_with(opts, policy, &mut analyzer)?
    };
    let analysis = analyzer.finish();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "analysis of {} on {} (load {:.0} %, seed {}, {} CPUs)\n",
        result.policy,
        opts.workload,
        opts.load * 100.0,
        opts.seed,
        opts.cpus,
    );
    out.push_str(&analysis.render_text());
    // Cross-check the replayed migration count against the engine's own
    // counters: Table-2 migrations plus gang-rotation occupant churn (the
    // rotation reclaims the same footprint each slot, so Table 2 bills it
    // as zero, but the stream — and therefore the replay — sees every
    // hand-off). A mismatch means the event stream lost information.
    let engine_count = result.total_migrations() + result.quantum_rotations;
    let replayed = analysis.migrations.migrations();
    if replayed != engine_count {
        let _ = writeln!(
            out,
            "WARNING: replayed migrations ({replayed}) != engine count ({engine_count})"
        );
    }
    if let Some(path) = &opts.analyze_out {
        let key = format!("{}-{}", opts.workload, result.policy);
        std::fs::write(path, analysis_json(&[(key, analysis)]))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "\nRun analysis JSON written to {path}");
    }
    Ok(out)
}

/// `pdpa diff`: record two runs (policy/seed vs `--policy-b`/`--seed-b`,
/// defaulting to the same configuration) and report the first divergent
/// event plus per-metric deltas.
fn diff(opts: &Options) -> Result<String, String> {
    // `--from-stream A --from-stream-b B`: diff two recorded streams from
    // disk; each side may be text or PDPAOBS1 binary independently, so
    // this also cross-checks the two codecs against each other.
    if let (Some(path_a), Some(path_b)) = (&opts.from_stream, &opts.from_stream_b) {
        let run_diff = diff_stream_files(path_a, path_b)?;
        let mut out = String::new();
        let _ = writeln!(out, "diff of recorded streams {path_a} vs {path_b}\n");
        out.push_str(&run_diff.render(path_a, path_b));
        if !run_diff.identical() {
            return Err(out);
        }
        return Ok(out);
    }
    let policy_a = opts.policy.expect("parser enforces --policy for diff");
    let policy_b = opts.policy_b.unwrap_or(policy_a);
    let opts_b = Options {
        seed: opts.seed_b.unwrap_or(opts.seed),
        ..opts.clone()
    };

    let mut rec_a = RecordingObserver::new();
    let mut rec_b = RecordingObserver::new();
    let (result_a, result_b) = {
        let _scope = scope::enter(&format!("cli-{}", opts.workload));
        (
            execute_with(opts, policy_a, &mut rec_a)?,
            execute_with(&opts_b, policy_b, &mut rec_b)?,
        )
    };
    let events_a = rec_a.take_events();
    let events_b = rec_b.take_events();
    let label_a = format!("{}/seed{}", result_a.policy, opts.seed);
    let label_b = format!("{}/seed{}", result_b.policy, opts_b.seed);

    let run_diff = RunDiff::compare(&events_a, &events_b);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "diff of {label_a} vs {label_b} on {} (load {:.0} %, {} CPUs)\n",
        opts.workload,
        opts.load * 100.0,
        opts.cpus,
    );
    out.push_str(&run_diff.render(&label_a, &label_b));
    Ok(out)
}

fn read_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Diffs two decision-event stream files, each in either encoding
/// (auto-detected by the `PDPAOBS1` magic bytes), decoding both in step.
/// A diagnostic about the first file wins over one about the second, as
/// when each was read whole in turn.
fn diff_stream_files(path_a: &str, path_b: &str) -> Result<RunDiff, String> {
    let bytes_a = read_file(path_a)?;
    let mut a = stream_events(&bytes_a).map_err(|e| format!("{path_a}: {e}"))?;
    let first_a_error = |a: pdpa_obs::StreamEvents<'_>, err_b: String| {
        a.filter_map(Result::err)
            .next()
            .map_or(err_b, |e| format!("{path_a}: {e}"))
    };
    let bytes_b = match read_file(path_b) {
        Ok(bytes) => bytes,
        Err(e) => return Err(first_a_error(a, e)),
    };
    let mut b = match stream_events(&bytes_b) {
        Ok(b) => b,
        Err(e) => return Err(first_a_error(a, format!("{path_b}: {e}"))),
    };
    let mut diff = StreamDiff::default();
    loop {
        let ea = a.next().transpose().map_err(|e| format!("{path_a}: {e}"))?;
        let eb = match b.next().transpose() {
            Ok(eb) => eb,
            Err(e) => return Err(first_a_error(a, format!("{path_b}: {e}"))),
        };
        if ea.is_none() && eb.is_none() {
            return Ok(diff.finish());
        }
        diff.push(ea.as_ref(), eb.as_ref());
    }
}

/// Per-kind counts of a decision-event stream (`--obs` output).
fn event_kind_summary(kinds: &KindCounter) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\ndecision-event stream: {} events", kinds.total());
    // Every kind but `failed`, which only the harness publishes.
    for (kind, n) in kinds.counts().take(ObsEvent::KINDS.len() - 1) {
        if n > 0 {
            let _ = writeln!(out, "  {kind:<8} {n}");
        }
    }
    out
}

/// `pdpa replay`: stream an SWF trace file through the shaping transforms
/// and the engine, and report makespan, utilization, and the per-job
/// slowdown distribution.
fn replay(opts: &ReplayOptions) -> Result<String, String> {
    let file = std::fs::File::open(&opts.trace_path)
        .map_err(|e| format!("cannot open {}: {e}", opts.trace_path))?;
    let trace = swf::read_swf(std::io::BufReader::new(file))
        .map_err(|e| format!("{}: {e}", opts.trace_path))?;
    let raw_jobs = trace.records.len();
    let from_cpus = trace.machine_size().unwrap_or(opts.cpus);

    let mut records = trace.records;
    if let Some((a, b)) = opts.window {
        records = shape::slice_window(&records, a, b);
    }
    records = shape::remap_machine(&records, from_cpus, opts.cpus);
    if let Some(load) = opts.load {
        records = shape::rescale_load(&records, load, opts.cpus);
    }
    if records.is_empty() {
        return Err(format!(
            "{}: no jobs to replay ({raw_jobs} in the trace, 0 after shaping)",
            opts.trace_path
        ));
    }
    let demand = shape::demand(&records, opts.cpus);
    let span = records
        .iter()
        .map(|r| r.submit_secs)
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), t| {
            (lo.min(t), hi.max(t))
        });
    let span_secs = (span.1 - span.0).max(0.0);
    let jobs = shape::jobs_from_records(&records);
    let n_jobs = jobs.len();

    let mut config = EngineConfig::default()
        .with_seed(opts.seed ^ 0xA5A5)
        .with_cpus(opts.cpus);
    // Long traces need headroom past the default simulation bound: give the
    // slowest policies many times the submission span to drain.
    config.max_sim_secs = config.max_sim_secs.max(span_secs * 20.0 + 10_000.0);
    if let Some(plan) = &opts.faults {
        let plan = FaultPlan::parse(plan, opts.cpus).map_err(|e| format!("--faults: {e}"))?;
        config = config.with_faults(plan);
    }

    let mut instr = Instrumentation::none();
    if opts.profile_out.is_some() {
        instr = instr.with_profile();
    }
    if opts.watchdog {
        instr = instr.with_watchdog(WatchdogConfig::classic());
    }
    if let Some(every) = opts.heartbeat {
        instr = instr.with_heartbeat(HeartbeatConfig { every });
    }

    // `--serve ADDR`: bind the status server before the run starts so a
    // watcher can connect from the first event, and print the actual
    // address (ephemeral `:0` ports resolve at bind time).
    let serve = match &opts.serve {
        Some(addr) => {
            let tap = LiveTap::new(RunMeta {
                policy: opts.policy.build().name().to_string(),
                trace: opts.trace_path.clone(),
                jobs_total: n_jobs as u64,
            });
            let server = StatusServer::bind(addr.as_str(), Arc::clone(&tap))
                .map_err(|e| format!("--serve {addr}: {e}"))?;
            eprintln!("serve: listening on {}", server.local_addr());
            instr = instr.with_tap(Arc::clone(&tap) as _);
            Some((tap, server))
        }
        None => None,
    };

    // The run is analyzed as it publishes. The stream is recorded only for
    // the Chrome trace; `--obs-out` writes each event as it is published.
    let mut analyzer = Analyzer::live(Some(opts.cpus));
    let mut kinds = KindCounter::default();
    let mut recorder = opts.trace_out.as_ref().map(|_| RecordingObserver::new());
    let mut writer = match &opts.obs_out {
        Some(path) => Some(stream_writer(path, opts.obs_format)?),
        None => None,
    };
    let result = {
        let _scope = scope::enter("cli-replay");
        let engine = Engine::new(config);
        // Observer chain, innermost out: analyzer, the kind counter, the
        // recorder and the stream writer <- tap tee <- kind filter. The
        // filter wraps the outside so the analysis, the written stream and
        // the tap's tail agree on what was kept.
        let mut observer: &mut dyn Observer = &mut analyzer;
        let mut kinds_tee;
        if opts.obs {
            kinds_tee = TeeObserver(&mut kinds, observer);
            observer = &mut kinds_tee;
        }
        let mut recorder_tee;
        if let Some(recorder) = &mut recorder {
            recorder_tee = TeeObserver(recorder, observer);
            observer = &mut recorder_tee;
        }
        let mut writer_tee;
        if let Some(writer) = &mut writer {
            writer_tee = TeeObserver(writer, observer);
            observer = &mut writer_tee;
        }
        let (mut tap_feed, mut tap_tee);
        if let Some((tap, _)) = &serve {
            tap_feed = &**tap;
            tap_tee = TeeObserver(&mut tap_feed, observer);
            observer = &mut tap_tee;
        }
        let mut filtered;
        if let Some(spec) = &opts.obs_filter {
            let filter = KindFilter::parse(spec).expect("validated at parse time");
            filtered = FilterObserver::new(observer, filter);
            observer = &mut filtered;
        }
        engine.run_instrumented(jobs, opts.policy.build(), observer, instr)
    };
    // Publish the terminal state, give polling watchers a window to see
    // it, then tear the server down — on the abort path too, so a
    // `pdpa watch --follow` observes the failure instead of a dead socket.
    let served_connections = serve.map(|(tap, server)| {
        match &result.watchdog {
            Some(diag) => tap.mark_aborted(diag),
            None => tap.mark_done(),
        }
        server.wait_for_final_query(Duration::from_secs(10));
        let connections = server.connections();
        server.shutdown();
        connections
    });
    if let Some(diag) = &result.watchdog {
        return Err(format!("{}: {diag}", opts.trace_path));
    }
    if !result.completed_all {
        return Err(format!(
            "{} did not drain the trace within the simulation bound",
            opts.policy.label
        ));
    }
    let analysis = analyzer.finish();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "replay of {} under {} ({} jobs over {:.0} s, demand {:.2}, {} CPUs, seed {})",
        opts.trace_path, result.policy, n_jobs, span_secs, demand, opts.cpus, opts.seed,
    );
    let mut transforms = Vec::new();
    if let Some((a, b)) = opts.window {
        transforms.push(format!("window {a:.0}:{b:.0}"));
    }
    if from_cpus != opts.cpus {
        transforms.push(format!("machine {from_cpus} -> {}", opts.cpus));
    }
    if let Some(load) = opts.load {
        transforms.push(format!("load -> {load:.2}"));
    }
    if !transforms.is_empty() {
        let _ = writeln!(out, "transforms: {}", transforms.join(" | "));
    }
    let _ = writeln!(
        out,
        "makespan {:.1} s | utilization {:.1} % | peak ML {} | migrations {} | {} events drained",
        result.summary.makespan_secs(),
        result.utilization() * 100.0,
        result.max_ml,
        result.total_migrations(),
        result.events_popped,
    );
    let dist = analysis.timeline.slowdown_dist.unwrap_or_default();
    let _ = writeln!(
        out,
        "slowdown avg {:.3} | p50 {:.3} | p90 {:.3} | p99 {:.3} | max {:.1}",
        analysis.timeline.avg_slowdown, dist.p50, dist.p90, dist.p99, dist.max,
    );
    out.push('\n');
    out.push_str(&class_table(&result));
    if opts.obs {
        out.push_str(&event_kind_summary(&kinds));
    }
    if let Some(n) = served_connections {
        let _ = writeln!(out, "\nstatus server answered {n} connection(s)");
    }

    let key = format!("replay-{}", opts.policy.slug);
    if let (Some(path), Some(recorder)) = (&opts.trace_out, recorder) {
        let runs = vec![(key.clone(), recorder.take_events())];
        std::fs::write(path, chrome_trace(&runs))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "\nChrome trace written to {path}");
    }
    if let Some(path) = &opts.analyze_out {
        std::fs::write(path, analysis_json(&[(key, analysis)]))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "\nRun analysis JSON written to {path}");
    }
    if let (Some(path), Some(writer)) = (&opts.obs_out, writer) {
        let events = writer.events();
        writer
            .finish()
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let fmt = match opts.obs_format {
            ObsFormat::Binary => "binary",
            ObsFormat::Text => "text",
        };
        let _ = writeln!(
            out,
            "\ndecision-event stream ({fmt}, {events} events) written to {path}"
        );
    }
    if let Some(path) = &opts.profile_out {
        let profile = result
            .profile
            .as_ref()
            .expect("--profile-out enables the profiler");
        std::fs::write(
            path,
            span_trace("pdpa replay profile", "coordinator", profile.spans()),
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "\nprofile trace written to {path}\n");
        out.push_str(&profile.hot_path_report());
    }
    Ok(out)
}

/// A `--obs-out` writer over a new file at `path`.
fn stream_writer(
    path: &str,
    format: ObsFormat,
) -> Result<StreamWriter<std::io::BufWriter<std::fs::File>>, String> {
    let cannot = |e: std::io::Error| format!("cannot write {path}: {e}");
    let file = std::io::BufWriter::new(std::fs::File::create(path).map_err(cannot)?);
    match format {
        ObsFormat::Binary => StreamWriter::binary(file).map_err(cannot),
        ObsFormat::Text => Ok(StreamWriter::text(file)),
    }
}

/// Sends `requests` down one connection to a `--serve` replay and returns
/// the responses in order.
fn query_live(addr: &str, requests: &[Request]) -> Result<Vec<Response>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut writer = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(requests.len());
    for request in requests {
        writer
            .write_all(format!("{}\n", request.to_line()).as_bytes())
            .map_err(|e| format!("{addr}: send failed: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("{addr}: read failed: {e}"))?;
        if line.is_empty() {
            return Err(format!("{addr}: server closed the connection"));
        }
        let response = Response::parse_line(line.trim_end())
            .map_err(|e| format!("{addr}: bad response: {e}"))?;
        if response.id != request.id {
            return Err(format!(
                "{addr}: response id {} for request id {}",
                response.id, request.id
            ));
        }
        responses.push(response);
    }
    Ok(responses)
}

/// One watch poll rendered for humans.
fn render_watch(responses: &[Response]) -> String {
    let mut out = String::new();
    for response in responses {
        match &response.body {
            ResponseBody::Status(s) => {
                let _ = writeln!(
                    out,
                    "run: {} on {} [{}]",
                    s.policy,
                    s.trace,
                    s.state.label(),
                );
                let _ = writeln!(
                    out,
                    "jobs: {}/{} finished ({} failed), {} submitted, {} events published",
                    s.jobs_finished,
                    s.jobs_total,
                    s.jobs_failed,
                    s.jobs_submitted,
                    s.events_published,
                );
                if let Some(diag) = &s.watchdog {
                    let _ = writeln!(out, "watchdog: {diag}");
                }
            }
            ResponseBody::Progress(p) => {
                let _ = writeln!(
                    out,
                    "progress: sim clock {:.1} s | {} events drained ({:.0}/s) | qlen {} | running {} | waiting {}",
                    p.sim_clock_secs, p.events_popped, p.events_per_sec, p.queue_len,
                    p.running, p.waiting,
                );
                match p.eta_secs {
                    Some(eta) => {
                        let _ = writeln!(out, "eta: ~{eta:.0} s (elapsed {:.1} s)", p.elapsed_secs);
                    }
                    None => {
                        let _ = writeln!(out, "eta: n/a (elapsed {:.1} s)", p.elapsed_secs);
                    }
                }
            }
            ResponseBody::Health(h) => {
                if let Some(line) = &h.heartbeat {
                    let _ = writeln!(out, "health: {line}");
                }
                if let Some(kib) = h.memory_hwm_kib {
                    let _ = writeln!(out, "health: memory high-water {kib} KiB");
                }
                if let Some(diag) = &h.watchdog {
                    let _ = writeln!(out, "health: watchdog fired: {diag}");
                }
            }
            ResponseBody::Tail(t) => {
                let _ = writeln!(
                    out,
                    "tail: {} recent event(s), {} dropped from the ring",
                    t.events.len(),
                    t.dropped
                );
                for event in &t.events {
                    let _ = writeln!(out, "  {event}");
                }
            }
            ResponseBody::Metrics { body, .. } => out.push_str(body),
            ResponseBody::Hello(h) => {
                let _ = writeln!(
                    out,
                    "server: {} proto v{} running {} [{}]",
                    h.server,
                    h.proto,
                    h.policy,
                    h.state.label(),
                );
            }
            ResponseBody::Ack(a) => {
                let _ = write!(out, "ack");
                if let Some(job) = a.job {
                    let _ = write!(out, ": job {job}");
                }
                if let Some(at) = a.at_secs {
                    let _ = write!(out, " at t={at:.2}s");
                }
                if let Some(info) = &a.info {
                    let _ = write!(out, " ({info})");
                }
                out.push('\n');
            }
            ResponseBody::Reject(r) => {
                let _ = write!(out, "rejected: {}", r.reason);
                if let Some(after) = r.retry_after_secs {
                    let _ = write!(out, " (retry after {after:.1}s)");
                }
                out.push('\n');
            }
            ResponseBody::Jobs(rows) => {
                let _ = writeln!(out, "jobs: {} record(s)", rows.len());
                for row in rows {
                    out.push_str(&render_job_row(row));
                }
            }
            ResponseBody::Job(row) => out.push_str(&render_job_row(row)),
            ResponseBody::Error { message } => {
                let _ = writeln!(out, "error: {message}");
            }
        }
    }
    out
}

/// One registry record rendered for humans.
fn render_job_row(row: &pdpa_watch::JobRow) -> String {
    let finish = row
        .finish_secs
        .map_or("-".to_string(), |t| format!("{t:.1}"));
    format!(
        "  job {:>4} {:<8} p={:<3} {:<9} submit={:.1} finish={finish}\n",
        row.job, row.class, row.request, row.state, row.submit_secs,
    )
}

/// How many consecutive failed polls a `--follow` watch tolerates before
/// giving up on the server entirely.
const FOLLOW_MAX_FAILURES: u32 = 8;

/// `pdpa watch`: query a live `--serve` replay. One shot by default;
/// `--follow` polls until the run reaches a terminal state and exits
/// nonzero if that state is aborted. In follow mode a lost connection —
/// the server restarting, say a daemon bouncing through snapshot/restore
/// — is retried with bounded exponential backoff (0.2 s doubling to a
/// 5 s cap) instead of killing the watch; only
/// [`FOLLOW_MAX_FAILURES`] consecutive failures end it.
fn watch(opts: &WatchOptions) -> Result<String, String> {
    let mut failures: u32 = 0;
    loop {
        let mut requests = vec![
            Request {
                id: 1,
                kind: RequestKind::Status,
            },
            Request {
                id: 2,
                kind: RequestKind::Progress,
            },
            Request {
                id: 3,
                kind: RequestKind::Health,
            },
        ];
        if let Some(n) = opts.tail {
            requests.push(Request {
                id: 4,
                kind: RequestKind::Tail { n },
            });
        }
        let responses = match query_live(&opts.addr, &requests) {
            Ok(responses) => {
                failures = 0;
                responses
            }
            Err(err) if opts.follow => {
                failures += 1;
                if failures >= FOLLOW_MAX_FAILURES {
                    return Err(format!(
                        "{err} ({failures} consecutive failures; giving up)"
                    ));
                }
                let backoff = (0.2 * f64::from(1u32 << (failures - 1).min(10))).min(5.0);
                eprintln!("watch: {err}; retrying in {backoff:.1}s");
                std::thread::sleep(Duration::from_secs_f64(backoff));
                continue;
            }
            Err(err) => return Err(err),
        };
        let rendered = if opts.json {
            let mut lines = String::new();
            for response in &responses {
                let _ = writeln!(lines, "{}", response.to_line());
            }
            lines
        } else {
            render_watch(&responses)
        };
        let state = responses.iter().find_map(|r| match &r.body {
            ResponseBody::Status(s) => Some((s.state, s.watchdog.clone())),
            _ => None,
        });
        let Some((state, watchdog)) = state else {
            return Err(format!("{}: no status in response", opts.addr));
        };
        if state == RunState::Aborted {
            return Err(format!(
                "{rendered}\nrun aborted: {}",
                watchdog.as_deref().unwrap_or("(no watchdog diagnostic)")
            ));
        }
        if !opts.follow || state == RunState::Done {
            return Ok(rendered);
        }
        // Follow mode: show each poll as it happens; the final poll is
        // returned (and printed) by the caller.
        print!("{rendered}");
        if !opts.json {
            println!("--");
        }
        let _ = std::io::stdout().flush();
        std::thread::sleep(opts.interval);
    }
}

/// `pdpa daemon`: bind `pdpad` and serve until a `shutdown` request (or
/// fatal bind error). The bound address goes to *stderr* immediately so
/// scripts can scrape it while the serve loop still owns stdout's final
/// summary.
fn daemon(opts: &DaemonOptions) -> Result<String, String> {
    let config = pdpa_daemon::DaemonConfig {
        policy: opts.policy.slug.to_string(),
        cpus: opts.cpus,
        seed: opts.seed,
        backfill: opts.backfill,
        max_sim_secs: opts.max_sim_secs,
        max_queue: opts.max_queue,
        time_scale: opts.time_scale,
        stream_path: opts.stream.clone(),
        snapshot_path: opts.snapshot.clone(),
        ..pdpa_daemon::DaemonConfig::default()
    };
    let daemon = pdpa_daemon::bind_daemon(config, opts.restore.as_deref(), &opts.addr)?;
    eprintln!("pdpad: listening on {}", daemon.local_addr());
    daemon.run()
}

/// `pdpa submit`: push one or more jobs into a running daemon and report
/// each admission decision. Exits nonzero if any submission is rejected,
/// so shell loops can react to backpressure.
fn submit(opts: &SubmitOptions) -> Result<String, String> {
    let requests: Vec<Request> = (0..opts.count)
        .map(|i| Request {
            id: i as u64 + 1,
            kind: RequestKind::Submit {
                class: opts.class.clone(),
                request: opts.request,
                work_secs: opts.work_secs,
            },
        })
        .collect();
    let responses = query_live(&opts.addr, &requests)?;
    let mut out = String::new();
    let mut rejected = 0usize;
    for response in &responses {
        if opts.json {
            let _ = writeln!(out, "{}", response.to_line());
        } else {
            out.push_str(&render_watch(std::slice::from_ref(response)));
        }
        if matches!(response.body, ResponseBody::Reject(_)) {
            rejected += 1;
        }
    }
    if rejected > 0 {
        return Err(format!(
            "{out}{rejected} of {} submission(s) rejected",
            opts.count
        ));
    }
    Ok(out)
}

/// `pdpa ctl`: one control request against a running daemon.
fn ctl(opts: &CtlOptions) -> Result<String, String> {
    let kind = match &opts.action {
        CtlAction::Hello => RequestKind::Hello,
        CtlAction::Drain => RequestKind::Drain,
        CtlAction::Snapshot(path) => RequestKind::Snapshot { path: path.clone() },
        CtlAction::Shutdown(snapshot) => RequestKind::Shutdown {
            snapshot: snapshot.clone(),
        },
        CtlAction::Cancel(job) => RequestKind::Cancel { job: *job },
        CtlAction::Jobs(n) => RequestKind::Jobs { n: *n },
        CtlAction::Job(job) => RequestKind::Job { job: *job },
    };
    let responses = query_live(&opts.addr, &[Request { id: 1, kind }])?;
    let rendered = if opts.json {
        let mut lines = String::new();
        for response in &responses {
            let _ = writeln!(lines, "{}", response.to_line());
        }
        lines
    } else {
        render_watch(&responses)
    };
    if let Some(Response {
        body: ResponseBody::Reject(reject),
        ..
    }) = responses.first()
    {
        return Err(format!("{rendered}request rejected: {}", reject.reason));
    }
    Ok(rendered)
}

/// `pdpa tournament`: race the whole policy zoo over an SWF-replay leg
/// and the fixed chaos plan, ranked by per-job slowdown quantiles. The
/// replay leg uses a given trace file (remapped to `--cpus`, optionally
/// rescaled by `--load`) or a generated shaped trace; `--out` writes the
/// `pdpa-tournament/v1` JSON report.
fn tournament(opts: &TournamentOptions) -> Result<String, String> {
    let mut config = TournamentConfig {
        cpus: opts.cpus,
        seed: opts.seed,
        ..TournamentConfig::default()
    };
    if let Some(load) = opts.load {
        config.load = load;
    }
    if let Some(secs) = opts.duration {
        config.duration_secs = secs;
    }
    if let Some(path) = &opts.trace_path {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let trace =
            swf::read_swf(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
        let from = trace.machine_size().unwrap_or(opts.cpus);
        let mut records = shape::remap_machine(&trace.records, from, opts.cpus);
        if let Some(load) = opts.load {
            records = shape::rescale_load(&records, load, opts.cpus);
        }
        if records.is_empty() {
            return Err(format!("{path}: no jobs to race"));
        }
        config.trace = Some(pdpa_qs::SwfTrace {
            max_procs: Some(opts.cpus),
            max_nodes: trace.max_nodes,
            records,
        });
    }

    let started = std::time::Instant::now();
    let result = {
        let _scope = scope::enter("cli-tournament");
        run_tournament(&config)
    };
    let wall_secs = started.elapsed().as_secs_f64();

    let mut out = result.render_text();
    let _ = writeln!(
        out,
        "tournament wall clock: {wall_secs:.3} s over {} engine runs",
        result.swf.len() + result.chaos.len(),
    );
    if let Some(path) = &opts.out {
        std::fs::write(path, result.render_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "\ntournament report written to {path}");
    }
    Ok(out)
}

fn compare(opts: &Options) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} at load {:.0} % (seed {}, {} CPUs{})\n",
        opts.workload,
        opts.load * 100.0,
        opts.seed,
        opts.cpus,
        if opts.untuned { ", untuned" } else { "" },
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>15} {:>14} {:>8} {:>12}",
        "policy", "makespan", "mean response", "p95 response", "maxML", "utilization"
    );
    for slug in ["irix", "equip", "equal-eff", "rigid", "gang", "pdpa"] {
        let result = execute_with(opts, roster::get(slug), &mut NullObserver)?;
        let _ = writeln!(
            out,
            "{:<14} {:>9.0}s {:>14.0}s {:>13.0}s {:>8} {:>11.0}%",
            result.policy,
            result.summary.makespan_secs(),
            result.summary.overall_avg_response_secs(),
            result.summary.response_quantile_secs(0.95).unwrap_or(0.0),
            result.max_ml,
            result.utilization() * 100.0,
        );
    }
    Ok(out)
}

fn curves() -> String {
    let mut out = String::from("calibrated speedup curves (Fig. 3)\n\n");
    let points = [1usize, 2, 4, 8, 12, 16, 20, 24, 30, 40, 60];
    let _ = write!(out, "{:<10}", "procs");
    for p in points {
        let _ = write!(out, "{p:>7}");
    }
    out.push('\n');
    for class in AppClass::ALL {
        let app = paper_app(class);
        let _ = write!(out, "{:<10}", class.name());
        for p in points {
            let _ = write!(out, "{:>7.1}", app.speedup.speedup(p));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run_cli(s: &str) -> Result<String, String> {
        dispatch(parse(&argv(s)).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cli("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("--workload"));
    }

    #[test]
    fn usage_lists_every_roster_slug() {
        let list = USAGE.split_once("--policy <").unwrap().1;
        let mut listed: Vec<&str> = list.split_once('>').unwrap().0.split('|').collect();
        let mut slugs: Vec<&str> = roster::ROSTER.iter().map(|e| e.slug).collect();
        listed.sort_unstable();
        slugs.sort_unstable();
        assert_eq!(listed, slugs);
    }

    #[test]
    fn curves_lists_all_classes() {
        let out = run_cli("curves").unwrap();
        for name in ["swim", "bt.A", "hydro2d", "apsi"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn run_produces_metrics() {
        let out = run_cli("run --workload w3 --policy pdpa --load 0.6").unwrap();
        assert!(out.contains("PDPA on w3"));
        assert!(out.contains("makespan"));
        assert!(out.contains("bt.A"));
        assert!(out.contains("apsi"));
    }

    #[test]
    fn compare_lists_every_policy() {
        let out = run_cli("compare --workload w3 --load 0.6").unwrap();
        for name in [
            "IRIX",
            "Equipartition",
            "Equal_efficiency",
            "RigidFirstFit",
            "Gang",
            "PDPA",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn ascii_view_renders() {
        let out = run_cli("run --workload w3 --policy equip --load 0.6 --ascii").unwrap();
        assert!(out.contains("cpu0"), "no execution view in:\n{out}");
    }

    #[test]
    fn file_outputs_are_written() {
        let dir = std::env::temp_dir().join("pdpa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let prv = dir.join("t.prv");
        let log = dir.join("t.swf");
        let cmd = format!(
            "run --workload w3 --policy pdpa --load 0.6 --prv-out {} --swf-log {}",
            prv.display(),
            log.display()
        );
        run_cli(&cmd).unwrap();
        let prv_text = std::fs::read_to_string(&prv).unwrap();
        assert!(prv_text.starts_with("#Paraver"));
        let log_text = std::fs::read_to_string(&log).unwrap();
        assert!(pdpa_qs::swf::parse_swf(&log_text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observability_outputs_are_written() {
        let dir = std::env::temp_dir().join("pdpa-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.json");
        let metrics = dir.join("m.json");
        let csv = dir.join("mpl.csv");
        let cmd = format!(
            "run --workload w3 --policy pdpa --load 0.6 --obs --trace-out {} \
             --metrics-out {} --mpl-csv {}",
            trace.display(),
            metrics.display(),
            csv.display()
        );
        let out = run_cli(&cmd).unwrap();
        assert!(
            out.contains("decision-event stream:"),
            "no summary in:\n{out}"
        );
        assert!(out.contains("decision"), "no decision count in:\n{out}");
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("\"traceEvents\""));
        let metrics_text = std::fs::read_to_string(&metrics).unwrap();
        assert!(metrics_text.contains("pdpa-obs-metrics/v1"));
        assert!(metrics_text.contains("cli-w3"));
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert!(csv_text.starts_with("run,sim_secs,running,allocated"));
        assert!(
            csv_text.lines().count() > 1,
            "MPL CSV has no rows:\n{csv_text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_runs_and_reports() {
        let out = run_cli(
            "run --workload w3 --policy pdpa --load 0.6 --faults cpu3@120:recover@400;cpu7@150",
        )
        .unwrap();
        assert!(
            out.contains("faults: 2 cpu failures"),
            "no fault line in:\n{out}"
        );
        let err =
            run_cli("run --workload w3 --policy pdpa --cpus 8 --faults cpu80@10").unwrap_err();
        assert!(err.contains("--faults"), "unhelpful error: {err}");
    }

    #[test]
    fn small_machine_run_works() {
        let out = run_cli("run --workload w3 --policy pdpa --load 0.3 --cpus 8").unwrap();
        assert!(out.contains("8 CPUs"));
    }

    #[test]
    fn analyze_reports_derived_metrics() {
        let out = run_cli("analyze --workload w3 --policy pdpa --load 0.6").unwrap();
        assert!(out.contains("analysis of PDPA on w3"), "header in:\n{out}");
        assert!(out.contains("time in state:"), "no states in:\n{out}");
        assert!(out.contains("migrations"), "no migrations in:\n{out}");
        assert!(out.contains("mpl mean"), "no MPL stats in:\n{out}");
        // The replayed migration count must agree with the engine's.
        assert!(!out.contains("WARNING"), "consistency warning in:\n{out}");
    }

    #[test]
    fn analyze_writes_the_json_document() {
        let dir = std::env::temp_dir().join("pdpa-cli-analyze-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.json");
        let cmd = format!(
            "analyze --workload w3 --policy equip --load 0.6 --analyze-out {}",
            path.display()
        );
        run_cli(&cmd).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"schema\":\"pdpa-analyze/v1\""));
        assert!(text.contains("w3-Equipartition"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes a small generated workload as an SWF file and returns its
    /// path inside a fresh temp directory.
    fn write_test_trace(dir_name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = pdpa_qs::Workload::W3.build_with_tuning(0.6, 42, true);
        let path = dir.join("trace.swf");
        std::fs::write(&path, swf::write_swf(&jobs)).unwrap();
        (dir, path)
    }

    #[test]
    fn replay_runs_an_swf_file_end_to_end() {
        let (dir, path) = write_test_trace("pdpa-cli-replay-test");
        let out = run_cli(&format!("replay {} --policy pdpa", path.display())).unwrap();
        assert!(out.contains("replay of"), "no header in:\n{out}");
        assert!(out.contains("under PDPA"), "no policy in:\n{out}");
        assert!(out.contains("makespan"), "no metrics in:\n{out}");
        assert!(out.contains("slowdown avg"), "no slowdown dist in:\n{out}");
        assert!(out.contains("p99"), "no quantiles in:\n{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_applies_the_shaping_transforms() {
        let (dir, path) = write_test_trace("pdpa-cli-replay-shape-test");
        let out = run_cli(&format!(
            "replay {} --policy equip --window 0:200 --cpus 32 --load 0.5 --obs",
            path.display()
        ))
        .unwrap();
        assert!(
            out.contains("transforms: window 0:200 | machine 60 -> 32 | load -> 0.50"),
            "transform line wrong in:\n{out}"
        );
        assert!(out.contains("32 CPUs"), "cpus not applied in:\n{out}");
        assert!(
            out.contains("decision-event stream:"),
            "no --obs summary in:\n{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_is_deterministic_and_writes_exports() {
        let (dir, path) = write_test_trace("pdpa-cli-replay-export-test");
        let analyze = dir.join("a.json");
        let trace = dir.join("t.json");
        let cmd = format!(
            "replay {} --policy pdpa --analyze-out {} --trace-out {}",
            path.display(),
            analyze.display(),
            trace.display()
        );
        let a = run_cli(&cmd).unwrap();
        let b = run_cli(&cmd).unwrap();
        assert_eq!(a, b, "replay must be deterministic");
        let text = std::fs::read_to_string(&analyze).unwrap();
        assert!(text.starts_with("{\"schema\":\"pdpa-analyze/v1\""));
        assert!(text.contains("replay-pdpa"));
        assert!(text.contains("slowdown_dist"));
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("\"traceEvents\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_reports_missing_or_empty_traces() {
        let err = run_cli("replay /nonexistent/x.swf --policy pdpa").unwrap_err();
        assert!(err.contains("cannot open"), "unhelpful error: {err}");
        let (dir, path) = write_test_trace("pdpa-cli-replay-empty-test");
        // A window past the last submission leaves nothing to replay.
        let err = run_cli(&format!(
            "replay {} --policy pdpa --window 900000:900001",
            path.display()
        ))
        .unwrap_err();
        assert!(err.contains("no jobs to replay"), "unhelpful error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_profile_out_writes_chrome_lanes_and_hot_path_report() {
        let (dir, path) = write_test_trace("pdpa-cli-replay-profile-test");
        let profile = dir.join("prof.json");
        let out = run_cli(&format!(
            "replay {} --policy pdpa --profile-out {}",
            path.display(),
            profile.display()
        ))
        .unwrap();
        assert!(out.contains("profile trace written to"), "in:\n{out}");
        assert!(out.contains("hot-path report"), "no report in:\n{out}");
        assert!(out.contains("policy_decision"), "no span rows in:\n{out}");
        let json = std::fs::read_to_string(&profile).unwrap();
        assert!(json.contains("\"traceEvents\""));
        // One lane: the coordinator.
        assert!(
            json.contains("\"coordinator\""),
            "no coordinator lane in trace"
        );
        assert_eq!(json.matches("\"thread_name\"").count(), 1, "in:\n{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_obs_out_streams_feed_analyze_and_cross_format_diff() {
        let (dir, path) = write_test_trace("pdpa-cli-replay-stream-test");
        let text = dir.join("run.txt");
        let bin = dir.join("run.bin");
        // Same replay twice, once per encoding.
        for (file, fmt) in [(&text, "text"), (&bin, "binary")] {
            let out = run_cli(&format!(
                "replay {} --policy pdpa --obs-out {} --obs-format {fmt}",
                path.display(),
                file.display()
            ))
            .unwrap();
            assert!(
                out.contains(&format!("decision-event stream ({fmt}")),
                "no stream line in:\n{out}"
            );
        }
        assert!(pdpa_obs::is_binary(&std::fs::read(&bin).unwrap()));
        assert!(!pdpa_obs::is_binary(&std::fs::read(&text).unwrap()));
        // Both encodings decode to the same events: the cross-format diff
        // reports zero divergence...
        let out = run_cli(&format!(
            "diff --from-stream {} --from-stream-b {}",
            text.display(),
            bin.display()
        ))
        .unwrap();
        assert!(out.contains("streams identical"), "diverged:\n{out}");
        // ...and analyze accepts either encoding directly.
        for file in [&text, &bin] {
            let out = run_cli(&format!("analyze --from-stream {}", file.display())).unwrap();
            assert!(out.contains("analysis of recorded stream"), "in:\n{out}");
            assert!(out.contains("migrations"), "no analytics in:\n{out}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_serve_with_no_clients_does_not_linger() {
        let (dir, path) = write_test_trace("pdpa-cli-replay-serve-test");
        let started = std::time::Instant::now();
        let out = run_cli(&format!(
            "replay {} --policy pdpa --serve 127.0.0.1:0",
            path.display()
        ))
        .unwrap();
        assert!(
            out.contains("status server answered 0 connection(s)"),
            "no server line in:\n{out}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "an unwatched --serve replay must not wait for watchers"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_obs_filter_prunes_the_recorded_stream() {
        let (dir, path) = write_test_trace("pdpa-cli-replay-filter-test");
        let stream = dir.join("run.txt");
        let out = run_cli(&format!(
            "replay {} --policy pdpa --obs --obs-filter submit,finish --obs-out {}",
            path.display(),
            stream.display()
        ))
        .unwrap();
        assert!(out.contains("submit"), "kept kind missing in:\n{out}");
        let text = std::fs::read_to_string(&stream).unwrap();
        for line in text.lines() {
            let kept = line.contains(" submit ") || line.contains(" finish ");
            assert!(kept, "filtered stream leaked a foreign kind: {line}");
        }
        // The same replay unfiltered records far more kinds.
        let unfiltered =
            run_cli(&format!("replay {} --policy pdpa --obs", path.display())).unwrap();
        assert!(
            unfiltered.contains("iter") && unfiltered.contains("decision"),
            "baseline lost kinds:\n{unfiltered}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_from_stream_names_the_bad_frame_and_byte_offset() {
        let (dir, path) = write_test_trace("pdpa-cli-analyze-truncated-test");
        let stream = dir.join("run.bin");
        run_cli(&format!(
            "replay {} --policy pdpa --obs-out {} --obs-format binary",
            path.display(),
            stream.display()
        ))
        .unwrap();
        // Cut the stream mid-frame: drop the last 3 bytes.
        let mut bytes = std::fs::read(&stream).unwrap();
        let cut = bytes.len() - 3;
        bytes.truncate(cut);
        std::fs::write(&stream, &bytes).unwrap();
        let err = run_cli(&format!("analyze --from-stream {}", stream.display())).unwrap_err();
        assert!(
            err.contains("frame ") && err.contains(" at byte "),
            "no frame/byte diagnostics in: {err}"
        );
        assert!(err.contains("truncated"), "no truncation cause in: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_queries_a_live_server() {
        let tap = LiveTap::new(RunMeta {
            policy: "PDPA".into(),
            trace: "t.swf".into(),
            jobs_total: 4,
        });
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let addr = server.local_addr();
        tap.mark_done();

        let human = run_cli(&format!("watch {addr}")).unwrap();
        assert!(human.contains("run: PDPA on t.swf [done]"), "in:\n{human}");
        assert!(human.contains("progress:"), "no progress in:\n{human}");

        let json = run_cli(&format!("watch {addr} --json --tail 5")).unwrap();
        assert!(
            json.lines().count() == 4,
            "expected 4 NDJSON lines:\n{json}"
        );
        assert!(json.contains("\"state\":\"done\""), "in:\n{json}");

        server.shutdown();
        let err = run_cli(&format!("watch {addr}")).unwrap_err();
        assert!(err.contains("cannot connect"), "unhelpful error: {err}");
    }

    #[test]
    fn watch_follow_survives_a_server_restart() {
        // Reserve a port, then leave it dark: the follow watch must keep
        // retrying (bounded backoff) instead of exiting, and succeed once
        // a server finally appears there.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);

        let watch_addr = addr.clone();
        let watcher = std::thread::spawn(move || {
            run_cli(&format!("watch {watch_addr} --follow --interval 0.05"))
        });

        // Let the watch fail at least once against the dark port.
        std::thread::sleep(Duration::from_millis(300));
        let tap = LiveTap::new(RunMeta {
            policy: "PDPA".into(),
            trace: "t.swf".into(),
            jobs_total: 1,
        });
        let mut server = None;
        for _ in 0..20 {
            match StatusServer::bind(addr.as_str(), Arc::clone(&tap)) {
                Ok(bound) => {
                    server = Some(bound);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        let server = server.expect("rebind the reserved port");
        tap.mark_done();

        let out = watcher
            .join()
            .expect("watch thread")
            .expect("follow recovers after the restart");
        assert!(out.contains("[done]"), "no terminal status in:\n{out}");
        server.shutdown();
    }

    #[test]
    fn watch_without_follow_fails_fast_on_a_dead_server() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);
        let err = run_cli(&format!("watch {addr}")).unwrap_err();
        assert!(err.contains("cannot connect"), "unhelpful error: {err}");
    }

    #[test]
    fn daemon_submit_and_ctl_round_trip_through_the_cli() {
        // The daemon's serve loop runs on this thread; the CLI client
        // verbs drive it from a spawned thread.
        let daemon = pdpa_daemon::bind_daemon(
            pdpa_daemon::DaemonConfig {
                time_scale: 0.0,
                ..pdpa_daemon::DaemonConfig::default()
            },
            None,
            "127.0.0.1:0",
        )
        .expect("bind pdpad");
        let addr = daemon.local_addr();

        let client = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let out = run_cli(&format!(
                    "submit {addr} --class bt.A --request 8 --work-secs 500 --count 2"
                ))
                .expect("submissions admitted");
                assert!(out.contains("ack: job 0"), "in:\n{out}");
                assert!(out.contains("ack: job 1"), "in:\n{out}");

                let out = run_cli(&format!("ctl {addr} hello")).expect("hello");
                assert!(out.contains("server: pdpad proto v"), "in:\n{out}");

                // The stock watch client works against a daemon.
                let out = run_cli(&format!("watch {addr} --tail 5")).expect("watch");
                assert!(out.contains("2 submitted"), "in:\n{out}");

                let out = run_cli(&format!("ctl {addr} drain")).expect("drain");
                assert!(out.contains("ack"), "in:\n{out}");
                let out = run_cli(&format!("ctl {addr} jobs")).expect("jobs");
                assert!(out.contains("jobs: 2 record(s)"), "in:\n{out}");
                assert!(out.contains("done"), "in:\n{out}");

                // A draining daemon rejects new work, and the CLI says why.
                let err = run_cli(&format!("submit {addr} --class swim")).unwrap_err();
                assert!(err.contains("rejected"), "in: {err}");
                assert!(err.contains("draining"), "in: {err}");
            });
            // Always shut the daemon down so the serve loop below returns,
            // even when an assertion above panicked.
            let _ = run_cli(&format!("ctl {addr} shutdown"));
            outcome
        });

        let summary = daemon.run().expect("serve loop");
        assert!(summary.contains("pdpad: shut down"), "got: {summary}");
        if let Err(panic) = client.join().expect("client thread") {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn watch_exits_nonzero_when_the_run_aborted() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        tap.mark_aborted("watchdog: no sim-time progress over 10000 rounds");
        let err = run_cli(&format!("watch {}", server.local_addr())).unwrap_err();
        assert!(err.contains("run aborted"), "in: {err}");
        assert!(err.contains("watchdog"), "no diagnostic in: {err}");
        server.shutdown();
    }

    #[test]
    fn literature_policies_run_and_replay() {
        let out = run_cli("run --workload w3 --policy hesrpt --load 0.6").unwrap();
        assert!(out.contains("heSRPT on w3"), "no header in:\n{out}");
        let (dir, path) = write_test_trace("pdpa-cli-lit-replay-test");
        for policy in ["optsplit", "learned"] {
            let out = run_cli(&format!("replay {} --policy {policy}", path.display())).unwrap();
            assert!(out.contains("makespan"), "{policy} replay in:\n{out}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tournament_ranks_the_zoo_on_both_legs() {
        let dir = std::env::temp_dir().join("pdpa-cli-tournament-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("report.json");
        let out = run_cli(&format!(
            "tournament --duration 300 --out {}",
            report.display()
        ))
        .unwrap();
        for label in [
            "PDPA",
            "Equip",
            "Equal_eff",
            "Rigid",
            "Gang",
            "heSRPT",
            "OptSplit",
            "Learned",
        ] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
        assert!(out.contains("ranking(swf):"), "no swf ranking in:\n{out}");
        assert!(
            out.contains("ranking(chaos):"),
            "no chaos ranking in:\n{out}"
        );
        assert!(out.contains("tournament wall clock"), "no wall in:\n{out}");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"schema\": \"pdpa-tournament/v1\""));
        assert!(json.contains("\"slug\": \"hesrpt\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tournament_accepts_a_trace_file() {
        let (dir, path) = write_test_trace("pdpa-cli-tournament-trace-test");
        let out = run_cli(&format!("tournament {}", path.display())).unwrap();
        assert!(out.contains("ranking(swf):"), "no ranking in:\n{out}");
        let err = run_cli("tournament /nonexistent/x.swf").unwrap_err();
        assert!(err.contains("cannot open"), "unhelpful error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_of_the_same_config_reports_zero_divergence() {
        let out = run_cli("diff --workload w3 --policy pdpa --load 0.6").unwrap();
        assert!(
            out.contains("streams identical"),
            "same seeded config diverged:\n{out}"
        );
    }

    #[test]
    fn diff_of_two_policies_reports_the_first_divergence() {
        let out = run_cli("diff --workload w3 --policy pdpa --policy-b equip --load 0.6").unwrap();
        assert!(
            out.contains("first divergence at event #"),
            "no divergence reported:\n{out}"
        );
        assert!(out.contains("metric deltas"), "no deltas in:\n{out}");
    }
}
