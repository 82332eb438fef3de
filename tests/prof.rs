//! Integration tests for the `pdpa-prof` instrumentation layer wired
//! through the engine: span profiles, the zero-progress watchdog, and the
//! contract that instrumentation never perturbs the decision stream.

use pdpa_suite::core::Pdpa;
use pdpa_suite::engine::{Engine, EngineConfig, Instrumentation};
use pdpa_suite::obs::{
    read_stream, span_trace, write_stream, write_text_stream, RecordingObserver,
};
use pdpa_suite::prof::{SpanKind, WatchdogConfig};
use pdpa_suite::qs::{JobSpec, Workload};
use pdpa_suite::sim::SimTime;

fn engine() -> Engine {
    Engine::new(EngineConfig::default().with_seed(42))
}

#[test]
fn classic_profile_records_the_coordinator_hierarchy() {
    let jobs = Workload::W3.build(0.6, 42);
    let result = engine().run_instrumented(
        jobs,
        Box::new(Pdpa::paper_default()),
        &mut pdpa_suite::obs::NullObserver,
        Instrumentation::none().with_profile(),
    );
    assert!(result.completed_all);
    assert!(result.events_popped > 0);
    let profile = result.profile.expect("profiling was enabled");
    let replay = profile.kind(SpanKind::Replay);
    assert_eq!((replay.calls, replay.spans.len()), (1, 1));
    // The Chrome export names the one lane.
    let json = span_trace("pdpa replay profile", "coordinator", profile.spans());
    assert!(json.contains("\"coordinator\""));
    assert_eq!(json.matches("\"thread_name\"").count(), 1);
    for kind in SpanKind::ALL {
        let k = profile.kind(kind);
        assert!(k.total_ns() > 0.0, "no {kind:?} time recorded");
        // Every timed call is exported, and only those.
        assert_eq!(k.spans.len() as u64, k.samples, "{kind:?}");
    }
}

#[test]
fn watchdog_aborts_synthetic_zero_progress_with_a_diagnostic() {
    // Fifty simultaneous submissions: the classic engine pops fifty
    // arrival events without the simulated clock moving, which is exactly
    // the signature of a stuck run. A tiny threshold makes the watchdog
    // trip inside that burst instead of after the production 5M steps.
    let jobs: Vec<JobSpec> = (0..50)
        .map(|_| JobSpec::new(SimTime::ZERO, pdpa_suite::apps::paper::bt_a()))
        .collect();
    let result = engine().run_instrumented(
        jobs,
        Box::new(Pdpa::paper_default()),
        &mut pdpa_suite::obs::NullObserver,
        Instrumentation::none().with_watchdog(WatchdogConfig { max_stalled: 10 }),
    );
    let diag = result.watchdog.expect("watchdog must trip");
    assert!(
        diag.contains("no sim-clock progress"),
        "unstructured diagnostic: {diag}"
    );
    assert!(
        diag.contains("classic engine"),
        "diagnostic lacks engine context: {diag}"
    );
    assert!(
        !result.completed_all,
        "an aborted run must not claim completion"
    );
}

#[test]
fn watchdog_stays_silent_on_healthy_runs() {
    // The production threshold on a real workload: the watchdog must
    // never fire on a run that is actually progressing.
    let result = engine().run_instrumented(
        Workload::W3.build(0.6, 42),
        Box::new(Pdpa::paper_default()),
        &mut pdpa_suite::obs::NullObserver,
        Instrumentation::none().with_watchdog(WatchdogConfig::classic()),
    );
    assert!(result.completed_all && result.watchdog.is_none());
}

#[test]
fn profiling_leaves_the_decision_stream_bit_identical() {
    // The acceptance pin: a profiled run and a binary-serialized stream
    // must both be indistinguishable from the plain text-format run.
    let jobs = Workload::W3.build(0.6, 42);
    let mut plain_rec = RecordingObserver::new();
    let plain = engine().run_instrumented(
        jobs.clone(),
        Box::new(Pdpa::paper_default()),
        &mut plain_rec,
        Instrumentation::none(),
    );
    let mut profiled_rec = RecordingObserver::new();
    let profiled = engine().run_instrumented(
        jobs,
        Box::new(Pdpa::paper_default()),
        &mut profiled_rec,
        Instrumentation::none()
            .with_profile()
            .with_watchdog(WatchdogConfig::classic()),
    );
    assert!(plain.completed_all && profiled.completed_all);
    assert!(plain.profile.is_none() && profiled.profile.is_some());
    let plain_events = plain_rec.take_events();
    let profiled_events = profiled_rec.take_events();
    // Bit-identical text serializations, not just equal event counts.
    assert_eq!(
        write_text_stream(&plain_events),
        write_text_stream(&profiled_events),
        "profiling perturbed the decision stream"
    );
    // And the binary codec reproduces that same stream byte-exactly.
    let decoded = read_stream(&write_stream(&plain_events)).expect("binary round trip");
    assert_eq!(
        write_text_stream(&decoded),
        write_text_stream(&plain_events),
        "binary framing perturbed the decision stream"
    );
    // The engine's own counters agree too.
    assert_eq!(plain.events_popped, profiled.events_popped);
    assert_eq!(plain.decisions_applied, profiled.decisions_applied);
}
