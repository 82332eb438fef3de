//! Extension experiment — the three sharing disciplines side by side.
//!
//! The scheduling literature the paper builds on contrasts three ways to
//! multiplex a multiprocessor: **space sharing** (dedicated partitions —
//! Equipartition, PDPA), **gang scheduling** (whole-machine round-robin
//! slots, perfectly coscheduled), and **uncoordinated time sharing** (the
//! IRIX model). This experiment puts all three on the paper's workloads at
//! 100 % load, with per-policy mean response, makespan, and the Table-2
//! burst structure.
//!
//! Each (workload, policy) cell — one traced run plus the seed sweep — is
//! an independent parallel task; tables render in the fixed label order.

use std::fmt::Write as _;

use crate::{PolicyKind, SEEDS};
use pdpa_engine::{Engine, EngineConfig};
use pdpa_policies::{GangScheduler, SchedulingPolicy};
use pdpa_qs::Workload;
use pdpa_sim::SimTime;
use pdpa_trace::{BurstStats, TraceObserver};

const LABELS: [&str; 4] = ["Equip", "PDPA", "Gang", "IRIX"];

fn build(label: &str) -> Box<dyn SchedulingPolicy> {
    match label {
        "Gang" => Box::new(GangScheduler::paper_comparable()),
        "IRIX" => PolicyKind::Irix.build(),
        "Equip" => PolicyKind::Equipartition.build(),
        _ => PolicyKind::Pdpa.build(),
    }
}

struct Row {
    makespan: f64,
    resp: f64,
    stats: BurstStats,
}

fn run_cell(wl: Workload, label: &str) -> Row {
    // Burst structure from one traced run (seed 42).
    let traced = {
        let jobs = wl.build(1.0, 42);
        let config = EngineConfig::default().with_trace().with_seed(42);
        let mut tracer = TraceObserver::new(config.cpus);
        let r = Engine::new(config).run_observed(jobs, build(label), &mut tracer);
        let trace = tracer.into_trace(SimTime::from_secs(r.end_secs));
        BurstStats::from_trace(&trace, r.total_migrations())
    };
    let mut makespan = 0.0;
    let mut resp = 0.0;
    for &seed in &SEEDS {
        let jobs = wl.build(1.0, seed);
        let r =
            Engine::new(EngineConfig::default().with_seed(seed ^ 0xA5A5)).run(jobs, build(label));
        assert!(r.completed_all, "{wl}/{label} wedged");
        makespan += r.summary.makespan_secs();
        resp += r.summary.overall_avg_response_secs();
    }
    let n = SEEDS.len() as f64;
    Row {
        makespan: makespan / n,
        resp: resp / n,
        stats: traced,
    }
}

/// Renders the experiment.
pub fn run() -> String {
    let workloads = [Workload::W1, Workload::W4];
    let tasks: Vec<(Workload, &str)> = workloads
        .iter()
        .flat_map(|&wl| LABELS.iter().map(move |&label| (wl, label)))
        .collect();
    let rows = pdpa_parallel::par_map(&tasks, pdpa_parallel::num_threads(), |&(wl, label)| {
        run_cell(wl, label)
    });
    let mut rows = rows.into_iter();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Sharing disciplines (extension): space vs gang vs time sharing\n"
    );
    for wl in workloads {
        let _ = writeln!(out, "## {wl} at 100 % load\n");
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>15} {:>12} {:>17}",
            "policy", "makespan", "mean response", "migrations", "avg burst (ms)"
        );
        for label in LABELS {
            let row = rows.next().expect("one row per task");
            let _ = writeln!(
                out,
                "{:<8} {:>9.0}s {:>14.0}s {:>12} {:>17.0}",
                label,
                row.makespan,
                row.resp,
                row.stats.migrations,
                row.stats.avg_burst_secs * 1e3
            );
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "Gang coschedules perfectly but pays the 1/n duty cycle: fine for the\n\
         all-scalable w1, poor for w4 where apsi wastes whole-machine slots.\n\
         Uncoordinated time sharing pays migrations and affinity loss instead."
    );
    out
}
