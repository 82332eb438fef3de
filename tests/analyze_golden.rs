//! Golden pin for the `pdpa-analyze/v1` document.
//!
//! The fixture was captured from the six-pass analyzer, before the
//! analysis became one fold, on seeded chaos runs: CPU failures and
//! recoveries, job crashes with bounded retry and a terminal failure, one
//! time-shared (IRIX) run whose CPUs change hands directly, and one PDPA
//! run for the state machine. Byte equality proves the fold reproduces
//! every float in the same order, and the standalone module functions
//! must agree with the one-pass [`Analyzer`] field by field.

use pdpa_analyze::series::{cpu_series, mpl_stats};
use pdpa_analyze::stability::migration_stats;
use pdpa_analyze::states::time_in_state;
use pdpa_analyze::timeline::job_timelines;
use pdpa_analyze::{analysis_json, RunAnalysis};
use pdpa_suite::obs::{RecordingObserver, TimedEvent};
use pdpa_suite::prelude::*;
use pdpa_suite::sim::CpuId;

const GOLDEN: &str = include_str!("golden/analysis_chaos.json");

/// Every fault type, with a retry budget of one so the second crash of
/// job 1 is terminal.
fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .fail_cpu_between(CpuId(2), 60.0, 300.0)
        .fail_cpu_at(CpuId(40), 120.0)
        .fail_job_at(JobId(0), 70.0)
        .fail_job_at(JobId(1), 40.0)
        .fail_job_at(JobId(1), 100.0)
        .with_retry(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        })
}

fn chaos_run(policy: Box<dyn SchedulingPolicy>) -> Vec<TimedEvent> {
    let jobs = Workload::W3.build(1.0, 7);
    // `with_trace` runs the quantum clock of time-shared runs (it changes
    // their RNG draws); no CPU trace is kept.
    let config = EngineConfig::default()
        .with_seed(7)
        .with_trace()
        .with_faults(chaos_plan());
    let mut rec = RecordingObserver::new();
    let r = Engine::new(config).run_observed(jobs, policy, &mut rec);
    assert!(r.completed_all, "{} did not drain", r.policy);
    rec.take_events()
}

fn chaos_runs() -> Vec<(String, Vec<TimedEvent>)> {
    vec![
        (
            "w3-irix-chaos".to_string(),
            chaos_run(Box::new(IrixLike::paper_default())),
        ),
        (
            "w3-pdpa-chaos".to_string(),
            chaos_run(Box::new(Pdpa::paper_default())),
        ),
    ]
}

#[test]
fn chaos_analysis_matches_the_golden_document() {
    let runs = chaos_runs();
    let kinds: std::collections::HashSet<&str> = runs
        .iter()
        .flat_map(|(_, events)| events.iter().map(|te| te.event.kind()))
        .collect();
    for kind in [
        "cpu_failed",
        "cpu_recovered",
        "retry",
        "job_failed",
        "state",
        "decision",
    ] {
        assert!(kinds.contains(kind), "no {kind} event in the chaos runs");
    }
    let analyses: Vec<(String, RunAnalysis)> = runs
        .iter()
        .map(|(key, events)| (key.clone(), RunAnalysis::from_events(events)))
        .collect();
    let doc = analysis_json(&analyses) + "\n";
    assert!(doc == GOLDEN, "analysis drifted from the golden:\n{doc}");
}

#[test]
fn module_functions_agree_with_the_one_pass_analysis() {
    for (key, events) in chaos_runs() {
        let a = RunAnalysis::from_events(&events);
        assert_eq!(job_timelines(&events), a.jobs, "{key}: timelines");
        assert_eq!(time_in_state(&events), a.states, "{key}: states");
        assert_eq!(migration_stats(&events), a.migrations, "{key}: migrations");
        assert_eq!(cpu_series(&events), a.cpus, "{key}: cpu series");
        assert_eq!(mpl_stats(&events), a.mpl, "{key}: mpl");
    }
}
