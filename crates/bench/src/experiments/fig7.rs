//! Fig. 7 — workload 2 under multiprogramming levels 2, 3, and 4.
//!
//! The paper's conclusion: "PDPA is more robust than Equipartition to the
//! multiprogramming level decided by the system administrator: PDPA
//! dynamically detects the optimal value for any moment", so its results
//! barely move with the configured level, while Equipartition's response
//! times blow up at ML = 2 (jobs get their full requests but the queue
//! stalls).
//!
//! The (policy, ml, load) grid is computed once — 18 cells, 54 engine
//! runs — fanned out over worker threads, then rendered per metric and
//! class from the precomputed cells.

use std::fmt::Write as _;

use crate::{average, Cell, Metric, PolicyKind, PAPER_LOADS, SEEDS};
use pdpa_engine::{Engine, EngineConfig, RunResult};
use pdpa_qs::Workload;

const POLICIES: [PolicyKind; 2] = [PolicyKind::Equipartition, PolicyKind::Pdpa];
const MLS: [usize; 3] = [2, 3, 4];

fn run_one(workload: Workload, policy: PolicyKind, ml: usize, load: f64, seed: u64) -> RunResult {
    let jobs = workload.build(load, seed);
    let config = EngineConfig::default().with_seed(seed ^ 0xA5A5);
    Engine::new(config).run(jobs, policy.build_with_ml(ml))
}

/// Renders the experiment.
pub fn run() -> String {
    let workload = Workload::W2;

    // One flat task list over the whole grid, seeds innermost.
    let tasks: Vec<(PolicyKind, usize, f64, u64)> = POLICIES
        .iter()
        .flat_map(|&policy| {
            MLS.iter().flat_map(move |&ml| {
                PAPER_LOADS
                    .iter()
                    .flat_map(move |&load| SEEDS.iter().map(move |&seed| (policy, ml, load, seed)))
            })
        })
        .collect();
    let runs = pdpa_parallel::par_map(
        &tasks,
        pdpa_parallel::num_threads(),
        |&(policy, ml, load, seed)| run_one(workload, policy, ml, load, seed),
    );
    // Regroup into cells, indexed [policy][ml][load] in task order.
    let mut runs = runs.into_iter();
    let cells: Vec<Cell> = (0..POLICIES.len() * MLS.len() * PAPER_LOADS.len())
        .map(|_| {
            let cell_runs: Vec<RunResult> = (&mut runs).take(SEEDS.len()).collect();
            average(&cell_runs, workload)
        })
        .collect();
    let cell = |p: usize, m: usize, l: usize| &cells[(p * MLS.len() + m) * PAPER_LOADS.len() + l];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 7 — workload 2, multiprogramming levels 2/3/4\n"
    );
    for metric in [Metric::Response, Metric::Execution] {
        let _ = writeln!(out, "## average {} time (s)\n", metric.name());
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>10} {:>10}",
            "policy/ml @ load", "60%", "80%", "100%"
        );
        for (p, policy) in POLICIES.iter().enumerate() {
            for (m, ml) in MLS.iter().enumerate() {
                for class in workload.classes() {
                    let cols: Vec<String> = (0..PAPER_LOADS.len())
                        .map(|l| format!("{:>10.1}", metric.pick(cell(p, m, l), class)))
                        .collect();
                    let _ = writeln!(
                        out,
                        "{:<18} {}",
                        format!("{} ml={} {}", policy.label(), ml, class.name()),
                        cols.join(" ")
                    );
                }
            }
        }
        out.push('\n');
    }
    out
}
