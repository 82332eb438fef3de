//! Golden-output pin for the Fig.-5 trace pipeline.
//!
//! The per-CPU activity trace is built by a `TraceObserver` chained as the
//! run's one observer, folding the engine's `CpuAssigned` decision events.
//! These fixtures were generated when the engine still called a trace
//! collector directly, so the test proves the fold is a pure refactor:
//! `render_ascii` and `to_paraver` stay byte-identical.

use pdpa_suite::apps::paper::{apsi, bt_a};
use pdpa_suite::core::Pdpa;
use pdpa_suite::engine::{Engine, EngineConfig};
use pdpa_suite::obs::{Observer, RecordingObserver, TeeObserver};
use pdpa_suite::policies::{Equipartition, GangScheduler, IrixLike, SchedulingPolicy};
use pdpa_suite::qs::{JobSpec, Workload};
use pdpa_suite::sim::{CostModel, SimTime};
use pdpa_suite::trace::{render_ascii, to_paraver, RenderOptions, TraceObserver};

const GOLDEN_ASCII: &str = include_str!("golden/golden_ascii.txt");
const GOLDEN_PRV: &str = include_str!("golden/golden.prv");

#[test]
fn trace_through_the_observer_bridge_matches_the_golden_fixtures() {
    let jobs = vec![
        JobSpec::new(SimTime::ZERO, apsi()),
        JobSpec::new(SimTime::from_secs(3.0), bt_a()),
    ];
    let config = EngineConfig {
        noise_sigma: 0.0,
        cost: CostModel::free(),
        cpus: 32,
        ..EngineConfig::default()
    }
    .with_trace()
    .with_seed(7);
    let mut tracer = TraceObserver::new(config.cpus);
    let r = Engine::new(config).run_observed(jobs, Box::new(Equipartition::default()), &mut tracer);
    let trace = tracer.into_trace(SimTime::from_secs(r.end_secs));

    let ascii = render_ascii(
        &trace,
        &RenderOptions {
            width: 80,
            cpu_stride: 4,
        },
    );
    assert_eq!(ascii, GOLDEN_ASCII, "ASCII execution view drifted");

    let prv = to_paraver(&trace);
    assert_eq!(prv, GOLDEN_PRV, "Paraver trace drifted");
}

/// One traced run of workload 1 at full load with the quantum clock on,
/// publishing to `observer`.
fn traced_w1(policy: &str, observer: &mut dyn Observer) -> f64 {
    let policy: Box<dyn SchedulingPolicy> = match policy {
        "IRIX" => Box::new(IrixLike::paper_default()),
        "Gang" => Box::new(GangScheduler::paper_comparable()),
        _ => Box::new(Pdpa::paper_default()),
    };
    let config = EngineConfig::default().with_trace().with_seed(42);
    let r = Engine::new(config).run_observed(Workload::W1.build(1.0, 42), policy, observer);
    assert!(r.completed_all);
    r.end_secs
}

/// Teeing a recorder next to the trace observer changes neither: the trace
/// equals the one the observer builds alone, and the recorder holds the
/// stream a run with no trace chained records.
#[test]
fn a_teed_recorder_changes_neither_the_trace_nor_the_stream() {
    for policy in ["IRIX", "Gang", "PDPA"] {
        let mut alone = TraceObserver::new(60);
        let end = traced_w1(policy, &mut alone);
        let alone = alone.into_trace(SimTime::from_secs(end));

        let (mut tracer, mut rec) = (TraceObserver::new(60), RecordingObserver::new());
        let end = traced_w1(policy, &mut TeeObserver(&mut tracer, &mut rec));
        let teed = tracer.into_trace(SimTime::from_secs(end));
        assert!(!alone.records.is_empty(), "{policy}: empty trace");
        assert_eq!(alone.records, teed.records, "{policy}: trace differs");
        assert_eq!((alone.n_cpus, alone.end), (teed.n_cpus, teed.end));

        let mut plain = RecordingObserver::new();
        traced_w1(policy, &mut plain);
        assert_eq!(
            rec.take_events(),
            plain.take_events(),
            "{policy}: the tee changed the recorded stream"
        );
    }
}
