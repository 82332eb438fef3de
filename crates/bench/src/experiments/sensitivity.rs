//! Extension experiment — sensitivity to measurement noise and
//! reallocation cost.
//!
//! The paper's robustness argument, quantified: "Equal_efficiency … is too
//! sensitive to small changes in the efficiency measurements" while PDPA's
//! target-efficiency band and stable states absorb noise. Sweeps:
//!
//! 1. measurement noise σ ∈ {0, 2 %, 5 %, 10 %} on workload 1 (the
//!    all-scalable mix where Equal_efficiency's thrash is most visible);
//! 2. reallocation cost × {0, 1, 4} — reallocation-hungry policies pay
//!    proportionally.
//!
//! Every (sweep point, policy) cell is an independent task fanned out over
//! worker threads; rows render from the regrouped results in sweep order.

use std::fmt::Write as _;

use crate::{PolicyKind, SEEDS};
use pdpa_engine::{Engine, EngineConfig};
use pdpa_qs::Workload;
use pdpa_sim::{CostModel, SimDuration};

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Equipartition,
    PolicyKind::EqualEfficiency,
    PolicyKind::Pdpa,
];
const SIGMAS: [f64; 4] = [0.0, 0.02, 0.05, 0.10];
const COST_FACTORS: [f64; 3] = [0.0, 1.0, 4.0];

fn mean_response(policy: PolicyKind, config_of: impl Fn(u64) -> EngineConfig) -> (f64, u64) {
    let mut resp = 0.0;
    let mut reallocs = 0u64;
    for &seed in &SEEDS {
        let jobs = Workload::W1.build(1.0, seed);
        let r = Engine::new(config_of(seed)).run(jobs, policy.build());
        assert!(r.completed_all);
        resp += r.summary.overall_avg_response_secs();
        reallocs += r.machine_stats.reallocations;
    }
    (resp / SEEDS.len() as f64, reallocs / SEEDS.len() as u64)
}

fn noise_config(sigma: f64, seed: u64) -> EngineConfig {
    let mut c = EngineConfig::default().with_seed(seed ^ 0xA5A5);
    c.noise_sigma = sigma;
    c
}

fn cost_config(factor: f64, seed: u64) -> EngineConfig {
    let mut c = EngineConfig::default().with_seed(seed ^ 0xA5A5);
    let base = CostModel::origin2000();
    c.cost = CostModel {
        realloc_fixed: SimDuration::from_secs(base.realloc_fixed.as_secs() * factor),
        per_gained_cpu: SimDuration::from_secs(base.per_gained_cpu.as_secs() * factor),
        per_lost_cpu: SimDuration::from_secs(base.per_lost_cpu.as_secs() * factor),
    };
    c
}

/// Renders the experiment.
pub fn run() -> String {
    // Fan out both sweeps as one task list: noise points first, then cost
    // points, each (point, policy) computing its seed-averaged response.
    let noise_tasks: Vec<(f64, PolicyKind)> = SIGMAS
        .iter()
        .flat_map(|&s| POLICIES.iter().map(move |&p| (s, p)))
        .collect();
    let cost_tasks: Vec<(f64, PolicyKind)> = COST_FACTORS
        .iter()
        .flat_map(|&f| POLICIES.iter().map(move |&p| (f, p)))
        .collect();
    let threads = pdpa_parallel::num_threads();
    let noise_results = pdpa_parallel::par_map(&noise_tasks, threads, |&(sigma, policy)| {
        mean_response(policy, |seed| noise_config(sigma, seed))
    });
    let cost_results = pdpa_parallel::par_map(&cost_tasks, threads, |&(factor, policy)| {
        mean_response(policy, |seed| cost_config(factor, seed))
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Sensitivity sweeps (extension) — workload 1, load = 100 %\n"
    );

    let _ = writeln!(
        out,
        "## measurement noise (mean response (s) / reallocations)\n"
    );
    let _ = write!(out, "{:<12}", "sigma");
    for policy in POLICIES {
        let _ = write!(out, "{:>22}", policy.label());
    }
    out.push('\n');
    for (si, sigma) in SIGMAS.iter().enumerate() {
        let _ = write!(out, "{:<12}", format!("{:.0}%", sigma * 100.0));
        for pi in 0..POLICIES.len() {
            let (resp, reallocs) = noise_results[si * POLICIES.len() + pi];
            let _ = write!(out, "{:>15.0}s/{:<6}", resp, reallocs);
        }
        out.push('\n');
    }

    let _ = writeln!(out, "\n## reallocation cost (mean response (s))\n");
    let _ = write!(out, "{:<12}", "cost");
    for policy in POLICIES {
        let _ = write!(out, "{:>15}", policy.label());
    }
    out.push('\n');
    for (fi, factor) in COST_FACTORS.iter().enumerate() {
        let _ = write!(out, "{:<12}", format!("x{factor}"));
        for pi in 0..POLICIES.len() {
            let (resp, _) = cost_results[fi * POLICIES.len() + pi];
            let _ = write!(out, "{:>14.0}s", resp);
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "\nReading: Equal_efficiency's response degrades with noise (each noisy\n\
         report re-fits its extrapolation and reallocates the whole machine)\n\
         and with reallocation cost; PDPA's smoothing and stable states keep\n\
         it within a band of Equipartition at every setting."
    );
    out
}
