//! Extension experiment — graceful degradation under injected faults.
//!
//! The paper assumes a fixed 64-CPU Origin; real machines lose and regain
//! processors. This experiment replays workload 3 under every scheduling
//! policy twice per seed — once healthy, once under a fixed chaos plan
//! (two CPU failures, one of which recovers, plus a job crash with the
//! default bounded-retry policy) — and reports how gracefully each policy
//! absorbs the capacity loss.
//!
//! The plan is pure data sampled up front (see `pdpa_faults`), so a given
//! seed produces byte-identical output no matter the thread count.

use std::fmt::Write as _;

use crate::{run_engine_observed, PolicyKind, SEEDS};
use pdpa_engine::{EngineConfig, RunResult};
use pdpa_faults::{FaultPlan, RetryPolicy};
use pdpa_obs::NullObserver;
use pdpa_policies::{GangScheduler, RigidFirstFit, SchedulingPolicy};
use pdpa_qs::Workload;
use pdpa_sim::{CpuId, JobId};

const LABELS: [&str; 6] = ["IRIX", "Equip", "Equal_eff", "Rigid", "Gang", "PDPA"];

fn build(label: &str) -> Box<dyn SchedulingPolicy> {
    match label {
        "Gang" => Box::new(GangScheduler::paper_comparable()),
        "Rigid" => Box::new(RigidFirstFit::paper_default()),
        "IRIX" => PolicyKind::Irix.build(),
        "Equip" => PolicyKind::Equipartition.build(),
        "Equal_eff" => PolicyKind::EqualEfficiency.build(),
        _ => PolicyKind::Pdpa.build(),
    }
}

/// The fixed chaos plan: cpu2 dies at t=120 s and returns at t=900 s,
/// cpu40 dies at t=300 s for good, and the first submitted job crashes at
/// t=70 s under the default retry policy (2 retries, 30 s backoff, ×2).
pub fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .fail_cpu_between(CpuId(2), 120.0, 900.0)
        .fail_cpu_at(CpuId(40), 300.0)
        .fail_job_at(JobId(0), 70.0)
        .with_retry(RetryPolicy::default())
}

struct Row {
    healthy_makespan: f64,
    chaos_makespan: f64,
    cpu_failures: u64,
    job_retries: u64,
    jobs_failed: u64,
}

fn one_run(label: &str, seed: u64, faults: Option<FaultPlan>) -> RunResult {
    let wl = Workload::W3;
    let jobs = wl.build(1.0, seed);
    let mode = if faults.is_some() { "chaos" } else { "healthy" };
    let mut config = EngineConfig::default().with_seed(seed ^ 0xA5A5);
    if let Some(plan) = faults {
        config = config.with_faults(plan);
    }
    let key = format!("{}-{label}-{mode}-seed{seed}", wl.name());
    let r = run_engine_observed(&key, config, jobs, build(label), &mut NullObserver);
    assert!(r.completed_all, "{label} wedged under {mode}");
    r
}

fn run_policy(label: &str) -> Row {
    let mut row = Row {
        healthy_makespan: 0.0,
        chaos_makespan: 0.0,
        cpu_failures: 0,
        job_retries: 0,
        jobs_failed: 0,
    };
    for &seed in &SEEDS {
        let healthy = one_run(label, seed, None);
        let chaos = one_run(label, seed, Some(chaos_plan()));
        row.healthy_makespan += healthy.summary.makespan_secs();
        row.chaos_makespan += chaos.summary.makespan_secs();
        row.cpu_failures += chaos.cpu_failures;
        row.job_retries += chaos.job_retries;
        row.jobs_failed += chaos.jobs_failed;
    }
    let n = SEEDS.len() as f64;
    row.healthy_makespan /= n;
    row.chaos_makespan /= n;
    row
}

/// Renders the experiment.
pub fn run() -> String {
    let rows = pdpa_parallel::par_map(&LABELS, pdpa_parallel::num_threads(), |&label| {
        run_policy(label)
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Chaos (extension): graceful degradation under injected faults\n"
    );
    let _ = writeln!(
        out,
        "w3 at 100 % load; plan: cpu2 down 120-900 s, cpu40 down at 300 s,\n\
         job0 crashes at 70 s (2 retries, 30 s backoff, x2); {} seeds\n",
        SEEDS.len()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>16} {:>14} {:>10} {:>9} {:>8} {:>7}",
        "policy", "healthy mkspan", "chaos mkspan", "slowdown", "cpufails", "retries", "failed"
    );
    for (label, row) in LABELS.iter().zip(&rows) {
        let slowdown = if row.healthy_makespan > 0.0 {
            (row.chaos_makespan / row.healthy_makespan - 1.0) * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<10} {:>15.0}s {:>13.0}s {:>9.1}% {:>9} {:>8} {:>7}",
            label,
            row.healthy_makespan,
            row.chaos_makespan,
            slowdown,
            row.cpu_failures,
            row.job_retries,
            row.jobs_failed,
        );
    }
    let _ = writeln!(
        out,
        "\nEvery policy drains the workload with capacity loss and a crashing\n\
         job; adaptive space sharing re-spreads the surviving processors,\n\
         while rigid partitions and gang slots simply run degraded."
    );
    out
}
