//! Extension experiment — large-scale SWF trace replay.
//!
//! The paper's workloads submit a few dozen jobs over 300 seconds; this
//! experiment drives the full trace pipeline at two orders of magnitude
//! more jobs: generate a long Poisson workload, round-trip it through the
//! Standard Workload Format text (streaming reader, header directives),
//! shape it (window slice, machine remap, load rescale), and replay it
//! under PDPA, Equipartition, and Equal_efficiency. Reported per policy:
//! makespan, utilization, and the per-job slowdown distribution computed
//! by `pdpa-analyze` from the replayed decision-event stream.
//!
//! The point is twofold: the allocation-policy comparison survives at
//! scale (Berg et al. evaluate allocation policies on exactly such
//! trace-driven streams), and the simulator's hot path — keyed
//! event-queue invalidation, batched arrival insertion — is exercised on
//! thousands of concurrent jobs, which is what `pdpa replay --json` gates
//! in CI.

use std::fmt::Write as _;

use crate::PolicyKind;
use pdpa_analyze::RunAnalysis;
use pdpa_engine::{Engine, EngineConfig};
use pdpa_obs::RecordingObserver;
use pdpa_qs::shape;
use pdpa_qs::swf;
use pdpa_qs::{GeneratorConfig, Workload};

/// Submission window, seconds — 20× the paper's 300 s, ≈1400 jobs at
/// full load.
const DURATION_SECS: f64 = 6000.0;
/// Target demand as a fraction of machine capacity.
const LOAD: f64 = 1.0;
/// Machine size, processors.
const CPUS: usize = 60;
/// One seed: the experiment is about scale, not seed-averaging.
const SEED: u64 = 42;

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Pdpa,
    PolicyKind::Equipartition,
    PolicyKind::EqualEfficiency,
];

struct Row {
    label: &'static str,
    makespan: f64,
    utilization: f64,
    avg_slowdown: f64,
    dist: Option<pdpa_analyze::SlowdownDist>,
}

/// Generates the workload and pushes it through the whole SWF pipeline:
/// text round-trip, streaming parse, and every shaping transform.
fn shaped_trace() -> pdpa_qs::SwfTrace {
    let config = GeneratorConfig {
        composition: Workload::W4.composition(),
        load: LOAD,
        cpus: CPUS,
        duration_secs: DURATION_SECS,
        tuned: true,
    };
    config.validate().expect("static config");
    let jobs = pdpa_qs::generate(&config, SEED);
    let text = swf::write_swf(&jobs);
    let trace = swf::parse_swf_trace(&text).expect("own writer output parses");
    let from = trace.machine_size().unwrap_or(CPUS);
    let records = shape::slice_window(&trace.records, 0.0, DURATION_SECS);
    let records = shape::remap_machine(&records, from, CPUS);
    let records = shape::rescale_load(&records, LOAD, CPUS);
    pdpa_qs::SwfTrace {
        max_procs: Some(CPUS),
        max_nodes: trace.max_nodes,
        records,
    }
}

fn replay(trace: &pdpa_qs::SwfTrace, policy: PolicyKind) -> Row {
    let jobs = shape::jobs_from_records(&trace.records);
    let config = EngineConfig::default()
        .with_cpus(CPUS)
        .with_seed(SEED ^ 0xA5A5);
    let key = format!("scale-{}-seed{SEED}", policy.label());
    let mut rec = RecordingObserver::new();
    let result = Engine::new(config).run_observed(jobs, policy.build(), &mut rec);
    let events = rec.take_events();
    assert!(result.completed_all, "{} wedged at scale", policy.label());
    crate::stats::record_run(&result);
    if pdpa_obs::collector::is_recording() {
        let scope = pdpa_obs::scope::current().unwrap_or_default();
        pdpa_obs::collector::record_run(format!("{scope}/{key}"), events.clone());
    }
    let analysis = RunAnalysis::from_events(&events);
    Row {
        label: policy.label(),
        makespan: result.summary.makespan_secs(),
        utilization: result.utilization(),
        avg_slowdown: analysis.timeline.avg_slowdown,
        dist: analysis.timeline.slowdown_dist,
    }
}

/// Renders the experiment.
pub fn run() -> String {
    let trace = shaped_trace();
    let rows = pdpa_parallel::par_map(&POLICIES, pdpa_parallel::num_threads(), |&policy| {
        replay(&trace, policy)
    });

    let mut out = String::new();
    let _ = writeln!(out, "# Scale (extension): large SWF trace replay\n");
    let (first, last) = trace.submit_span().unwrap_or((0.0, 0.0));
    let _ = writeln!(
        out,
        "w4 mix at {LOAD:.1} load on {CPUS} CPUs; {} jobs submitted over {:.0}s\n\
         (generated, SWF round-trip, window/remap/rescale transforms; classic sequential engine)\n",
        trace.records.len(),
        last - first,
    );
    let _ = writeln!(
        out,
        "{:<10} {:>11} {:>7} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "policy", "makespan", "util", "slow_avg", "p50", "p90", "p99", "max"
    );
    for r in &rows {
        let d = r.dist.unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<10} {:>10.1}s {:>6.1}% {:>9.3} {:>8.3} {:>8.3} {:>8.3} {:>8.1}",
            r.label,
            r.makespan,
            r.utilization * 100.0,
            r.avg_slowdown,
            d.p50,
            d.p90,
            d.p99,
            d.max,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shaped_trace_is_large_and_deterministic() {
        let a = shaped_trace();
        assert!(
            a.records.len() > 1000,
            "want a three-orders-of-magnitude trace, got {} jobs",
            a.records.len()
        );
        let b = shaped_trace();
        assert_eq!(a.records, b.records, "pipeline is deterministic");
        // The rescale hit its target demand.
        let demand = shape::demand(&a.records, CPUS);
        assert!((demand - LOAD).abs() < 1e-6, "demand {demand} != {LOAD}");
    }
}
