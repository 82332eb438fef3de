//! Cross-crate invariants of the execution engine, checked on full runs.

use pdpa_suite::obs::{mpl_series, RecordingObserver};
use pdpa_suite::prelude::*;

fn policies() -> Vec<Box<dyn SchedulingPolicy>> {
    vec![
        Box::new(IrixLike::paper_default()),
        Box::new(Equipartition::default()),
        Box::new(EqualEfficiency::paper_default()),
        Box::new(Pdpa::paper_default()),
    ]
}

/// Every job's timestamps decompose consistently: submit ≤ start ≤ end and
/// response = wait + execution.
#[test]
fn outcome_timestamps_are_consistent() {
    for policy in policies() {
        let jobs = Workload::W4.build(0.8, 7);
        let result = Engine::new(EngineConfig::default()).run(jobs, policy);
        assert!(result.completed_all);
        for o in result.summary.outcomes() {
            assert!(o.submit <= o.start, "{:?} started before submission", o.job);
            assert!(o.start <= o.end, "{:?} ended before starting", o.job);
            let decomposed = o.wait_time().as_secs() + o.execution_time().as_secs();
            assert!(
                (o.response_time().as_secs() - decomposed).abs() < 1e-9,
                "{:?}: response must equal wait + execution",
                o.job
            );
        }
    }
}

/// Execution time can never beat the application's ideal time at its full
/// request (no free lunch), and response times are bounded by the makespan.
#[test]
fn execution_times_respect_physical_bounds() {
    for policy in policies() {
        let name = policy.name().to_owned();
        let jobs = Workload::W2.build(1.0, 11);
        let specs: Vec<(AppClass, f64)> = jobs
            .iter()
            .map(|j| (j.app.class, j.app.ideal_exec_time(j.app.request).as_secs()))
            .collect();
        let result = Engine::new(EngineConfig::default()).run(jobs, policy);
        assert!(result.completed_all);
        let makespan = result.summary.makespan_secs();
        for o in result.summary.outcomes() {
            let ideal = specs
                .iter()
                .filter(|(c, _)| *c == o.class)
                .map(|&(_, t)| t)
                .fold(f64::INFINITY, f64::min);
            // 2 % measurement-noise slack on top of the ideal bound.
            assert!(
                o.execution_time().as_secs() > ideal * 0.9,
                "{name}/{:?}: exec {:.1}s beats the ideal {ideal:.1}s",
                o.job,
                o.execution_time().as_secs()
            );
            assert!(o.end.as_secs() <= makespan + 1e-9);
        }
    }
}

/// The number of outcomes equals the number of submitted jobs — nothing is
/// lost or duplicated, under any policy.
#[test]
fn every_job_completes_exactly_once() {
    for policy in policies() {
        let jobs = Workload::W3.build(1.0, 3);
        let n = jobs.len();
        let result = Engine::new(EngineConfig::default()).run(jobs, policy);
        assert!(result.completed_all);
        assert_eq!(result.summary.jobs(), n);
        let mut ids: Vec<u32> = result.summary.outcomes().iter().map(|o| o.job.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate completions");
    }
}

/// The multiprogramming-level series folded from the recorded stream is
/// consistent: starts at 0, ends at 0, time goes forward, and the engine's
/// recorded max matches the series.
#[test]
fn ml_series_is_well_formed() {
    for policy in policies() {
        let jobs = Workload::W4.build(1.0, 5);
        let mut rec = RecordingObserver::new();
        let result = Engine::new(EngineConfig::default()).run_observed(jobs, policy, &mut rec);
        let series = mpl_series(rec.events());
        assert_eq!(series.first().map(|p| p.running), Some(0));
        assert_eq!(series.last().map(|p| p.running), Some(0));
        for pair in series.windows(2) {
            assert!(pair[0].at <= pair[1].at, "time goes forward");
        }
        let peak = series.iter().map(|p| p.running).max().unwrap();
        assert_eq!(peak, result.max_ml);
    }
}

/// With zero noise and zero reallocation cost, a lone application finishes
/// in exactly its ideal time (baseline phase accounted) — the engine's
/// arithmetic is exact, not approximate.
#[test]
fn lone_job_ideal_time_is_exact() {
    let config = EngineConfig {
        noise_sigma: 0.0,
        cost: CostModel::free(),
        ..EngineConfig::default()
    };
    let app = paper_app(AppClass::Hydro2d);
    let ideal = app.iter_time(30).unwrap().as_secs() * (app.iterations as f64 - 2.0)
        + app.iter_time(2).unwrap().as_secs() * 2.0;
    let jobs = vec![JobSpec::new(SimTime::ZERO, app)];
    let result = Engine::new(config).run(jobs, Box::new(Equipartition::default()));
    let got = result.summary.outcomes()[0].execution_time().as_secs();
    assert!((got - ideal).abs() < 1e-6, "got {got}, ideal {ideal}");
}

/// Seed-for-seed determinism across the whole stack, for every policy.
#[test]
fn runs_are_deterministic() {
    for make in [0usize, 1, 2, 3] {
        let build = |_: usize| -> Box<dyn SchedulingPolicy> {
            match make {
                0 => Box::new(IrixLike::paper_default()),
                1 => Box::new(Equipartition::default()),
                2 => Box::new(EqualEfficiency::paper_default()),
                _ => Box::new(Pdpa::paper_default()),
            }
        };
        let run = |policy: Box<dyn SchedulingPolicy>| {
            let jobs = Workload::W4.build(1.0, 99);
            Engine::new(EngineConfig::default().with_seed(4242)).run(jobs, policy)
        };
        let a = run(build(0));
        let b = run(build(0));
        assert_eq!(a.end_secs, b.end_secs, "policy {make} not deterministic");
        assert_eq!(a.max_ml, b.max_ml);
        let ra: Vec<f64> = a
            .summary
            .outcomes()
            .iter()
            .map(|o| o.response_time().as_secs())
            .collect();
        let rb: Vec<f64> = b
            .summary
            .outcomes()
            .iter()
            .map(|o| o.response_time().as_secs())
            .collect();
        assert_eq!(ra, rb);
    }
}
