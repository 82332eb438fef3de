//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§5).
//!
//! Each `expt-*` binary reproduces one paper artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `expt-fig3` | Fig. 3 — speedup curves of the four applications |
//! | `expt-table1` | Table 1 — workload compositions |
//! | `expt-fig4` | Fig. 4 — workload 1 response/execution times |
//! | `expt-fig5` | Fig. 5 — execution views (IRIX vs PDPA) |
//! | `expt-table2` | Table 2 — migrations and burst statistics |
//! | `expt-fig6` | Fig. 6 — workload 2 response/execution times |
//! | `expt-fig7` | Fig. 7 — workload 2 under multiprogramming levels 2/3/4 |
//! | `expt-fig8` | Fig. 8 — PDPA's dynamic multiprogramming level |
//! | `expt-fig9` | Fig. 9 — workload 3 response/execution times |
//! | `expt-table3` | Table 3 — workload 3 with an untuned apsi request |
//! | `expt-fig10` | Fig. 10 — workload 4 response/execution times |
//! | `expt-table4` | Table 4 — workload 4 untuned |
//! | `expt-ablation` | (extension) PDPA design-choice ablations |
//! | `expt-tournament` | (extension) policy-zoo slowdown tournament |
//! | `expt-all` | everything above, in order |
//!
//! Numbers are averaged over several seeds; absolute values depend on the
//! calibrated simulator, but the *shapes* — which policy wins, by what
//! factor, where the crossovers sit — are the reproduction targets recorded
//! in `EXPERIMENTS.md`.

use std::collections::HashMap;

use pdpa_apps::AppClass;
use pdpa_core::{Pdpa, PdpaParams};
use pdpa_engine::{Engine, EngineConfig, RunResult};
use pdpa_obs::{NullObserver, Observer, RecordingObserver, TeeObserver};
use pdpa_policies::{EqualEfficiency, Equipartition, IrixLike, SchedulingPolicy};
use pdpa_qs::Workload;

pub mod experiments;
pub mod harness;

/// The paper's load points: 60 %, 80 %, 100 % of machine capacity.
pub const PAPER_LOADS: [f64; 3] = [0.6, 0.8, 1.0];

/// Seeds averaged by every experiment (arbitrary but fixed).
pub const SEEDS: [u64; 3] = [42, 1337, 20_000];

/// The four evaluated scheduling policies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PolicyKind {
    /// The native IRIX time-sharing model.
    Irix,
    /// Equipartition with the paper's fixed multiprogramming level of 4.
    Equipartition,
    /// Equal_efficiency with the paper's fixed multiprogramming level of 4.
    EqualEfficiency,
    /// PDPA with the paper's parameters.
    Pdpa,
}

impl PolicyKind {
    /// The policies in the paper's presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Irix,
        PolicyKind::Equipartition,
        PolicyKind::EqualEfficiency,
        PolicyKind::Pdpa,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Irix => "IRIX",
            PolicyKind::Equipartition => "Equip",
            PolicyKind::EqualEfficiency => "Equal_eff",
            PolicyKind::Pdpa => "PDPA",
        }
    }

    /// Instantiates the policy with the paper's configuration.
    pub fn build(self) -> Box<dyn SchedulingPolicy> {
        match self {
            PolicyKind::Irix => Box::new(IrixLike::paper_default()),
            PolicyKind::Equipartition => Box::new(Equipartition::default()),
            PolicyKind::EqualEfficiency => Box::new(EqualEfficiency::paper_default()),
            PolicyKind::Pdpa => Box::new(Pdpa::paper_default()),
        }
    }

    /// Instantiates the policy with an overridden multiprogramming level
    /// (used by the Fig. 7 sweep). For PDPA the override sets the *default*
    /// level; the coordinated policy may still exceed it.
    pub fn build_with_ml(self, ml: usize) -> Box<dyn SchedulingPolicy> {
        match self {
            PolicyKind::Irix => Box::new(IrixLike::new(
                ml,
                pdpa_policies::TimeSharingParams::default(),
            )),
            PolicyKind::Equipartition => Box::new(Equipartition::new(ml)),
            PolicyKind::EqualEfficiency => Box::new(EqualEfficiency::new(ml)),
            PolicyKind::Pdpa => Box::new(Pdpa::new(PdpaParams::default().with_base_ml(ml))),
        }
    }
}

/// Seed-averaged measurements of one `(policy, load)` cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cell {
    /// Mean response time per application class, seconds.
    pub response: HashMap<AppClass, f64>,
    /// Mean execution time per application class, seconds.
    pub execution: HashMap<AppClass, f64>,
    /// Mean processors held per application class.
    pub avg_alloc: HashMap<AppClass, f64>,
    /// Mean workload makespan, seconds.
    pub makespan: f64,
    /// Mean of the per-run maximum multiprogramming level.
    pub max_ml: f64,
    /// Mean machine utilization (CPU-seconds held / capacity over the
    /// makespan).
    pub utilization: f64,
    /// All seed runs completed every job.
    pub completed_all: bool,
}

/// Runs one engine execution publishing to `sink` (a `TraceObserver`, a
/// recorder or a [`NullObserver`]) and — when the process-wide
/// [`pdpa_obs::collector`] is recording (`--trace-out` and friends) —
/// captures the decision-event stream under `<scope>/<run_key>`.
///
/// The key is derived from the run's parameters, never from scheduling
/// order, so the drained streams are identical between sequential and
/// parallel harness executions.
pub fn run_engine_observed(
    run_key: &str,
    config: EngineConfig,
    jobs: Vec<pdpa_qs::JobSpec>,
    policy: Box<dyn SchedulingPolicy>,
    sink: &mut dyn Observer,
) -> RunResult {
    let engine = Engine::new(config);
    if pdpa_obs::collector::is_recording() {
        let mut rec = RecordingObserver::new();
        let r = engine.run_observed(jobs, policy, &mut TeeObserver(&mut rec, sink));
        let scope = pdpa_obs::scope::current().unwrap_or_default();
        pdpa_obs::collector::record_run(format!("{scope}/{run_key}"), rec.take_events());
        r
    } else {
        engine.run_observed(jobs, policy, sink)
    }
}

/// Runs one engine execution of `(workload, policy, load)` at `seed`.
///
/// This is the unit of work the parallel sweeps fan out.
pub fn run_single(
    workload: Workload,
    tuned: bool,
    policy: PolicyKind,
    load: f64,
    seed: u64,
) -> RunResult {
    let jobs = workload.build_with_tuning(load, seed, tuned);
    let config = EngineConfig::default().with_seed(seed ^ 0xA5A5);
    let key = format!(
        "{}-{}-{}-load{load}-seed{seed}",
        workload.name(),
        if tuned { "tuned" } else { "untuned" },
        policy.label(),
    );
    run_engine_observed(&key, config, jobs, policy.build(), &mut NullObserver)
}

/// Runs one `(workload, policy, load)` cell averaged over `seeds`, with
/// the seed runs spread across worker threads. Results are identical to
/// [`run_cell_seq`] regardless of thread count (seed runs are independent
/// and averaged in seed order).
pub fn run_cell(
    workload: Workload,
    tuned: bool,
    policy: PolicyKind,
    load: f64,
    seeds: &[u64],
) -> Cell {
    let runs = pdpa_parallel::par_map(seeds, pdpa_parallel::num_threads(), |&seed| {
        run_single(workload, tuned, policy, load, seed)
    });
    average(&runs, workload)
}

/// Sequential reference implementation of [`run_cell`] (one thread, same
/// output bytes — the determinism test pins the two together).
pub fn run_cell_seq(
    workload: Workload,
    tuned: bool,
    policy: PolicyKind,
    load: f64,
    seeds: &[u64],
) -> Cell {
    let runs: Vec<RunResult> = seeds
        .iter()
        .map(|&seed| run_single(workload, tuned, policy, load, seed))
        .collect();
    average(&runs, workload)
}

/// Averages a set of runs into a [`Cell`].
pub fn average(runs: &[RunResult], workload: Workload) -> Cell {
    let mut cell = Cell {
        completed_all: runs.iter().all(|r| r.completed_all),
        ..Cell::default()
    };
    let n = runs.len() as f64;
    for class in workload.classes() {
        let mut resp = 0.0;
        let mut exec = 0.0;
        let mut alloc = 0.0;
        let mut count = 0usize;
        for run in runs {
            if let Some(avgs) = run.summary.class_averages(class) {
                resp += avgs.avg_response_secs;
                exec += avgs.avg_execution_secs;
                alloc += run.avg_alloc_by_class.get(&class).copied().unwrap_or(0.0);
                count += 1;
            }
        }
        if count > 0 {
            cell.response.insert(class, resp / count as f64);
            cell.execution.insert(class, exec / count as f64);
            cell.avg_alloc.insert(class, alloc / count as f64);
        }
    }
    cell.makespan = runs.iter().map(|r| r.summary.makespan_secs()).sum::<f64>() / n;
    cell.max_ml = runs.iter().map(|r| r.max_ml as f64).sum::<f64>() / n;
    cell.utilization = runs.iter().map(RunResult::utilization).sum::<f64>() / n;
    cell
}

/// The full grid of one figure: `grid[policy][load index]`.
pub type Grid = Vec<(PolicyKind, Vec<Cell>)>;

/// Runs a whole response/execution figure (Fig. 4/6/9/10 shape): every
/// policy at every paper load.
///
/// The 4 policies × 3 loads × [`SEEDS`] engine runs are flattened into one
/// task list and spread over worker threads (one level of parallelism, no
/// nested pools), then regrouped into cells in the original policy/load/
/// seed order — so the grid is byte-identical to [`run_figure_seq`].
pub fn run_figure(workload: Workload, tuned: bool) -> Grid {
    let tasks: Vec<(PolicyKind, f64, u64)> = PolicyKind::ALL
        .iter()
        .flat_map(|&policy| {
            PAPER_LOADS
                .iter()
                .flat_map(move |&load| SEEDS.iter().map(move |&seed| (policy, load, seed)))
        })
        .collect();
    let runs = pdpa_parallel::par_map(
        &tasks,
        pdpa_parallel::num_threads(),
        |&(policy, load, seed)| run_single(workload, tuned, policy, load, seed),
    );
    // Regroup: tasks were laid out policy-major, load-minor, seeds innermost.
    let mut runs = runs.into_iter();
    PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let cells = PAPER_LOADS
                .iter()
                .map(|_| {
                    let cell_runs: Vec<RunResult> = (&mut runs).take(SEEDS.len()).collect();
                    average(&cell_runs, workload)
                })
                .collect();
            (policy, cells)
        })
        .collect()
}

/// Sequential reference implementation of [`run_figure`]: nested loops,
/// one engine run at a time, same output bytes.
pub fn run_figure_seq(workload: Workload, tuned: bool) -> Grid {
    PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let cells = PAPER_LOADS
                .iter()
                .map(|&load| run_cell_seq(workload, tuned, policy, load, &SEEDS))
                .collect();
            (policy, cells)
        })
        .collect()
}

/// Prints one metric of a figure as a table: rows = policies, columns =
/// loads, one block per application class.
pub fn print_figure(title: &str, workload: Workload, grid: &Grid, metric: Metric) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    for class in workload.classes() {
        out.push_str(&format!(
            "\n{} — average {} time (s) by system load\n",
            class.name(),
            metric.name()
        ));
        let mut table = pdpa_metrics::TableBuilder::new(&["load 60%", "load 80%", "load 100%"]);
        for (policy, cells) in grid {
            let row: Vec<f64> = cells.iter().map(|c| metric.pick(c, class)).collect();
            table.row_secs(policy.label(), &row);
        }
        out.push_str(&table.build());
    }
    out
}

/// Which quantity a printed table shows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Response time: submission to completion.
    Response,
    /// Execution time: start to completion.
    Execution,
    /// Average processors held.
    AvgAlloc,
}

impl Metric {
    /// Human name of the metric.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Response => "response",
            Metric::Execution => "execution",
            Metric::AvgAlloc => "allocation",
        }
    }

    /// Extracts the metric from a cell.
    pub fn pick(self, cell: &Cell, class: AppClass) -> f64 {
        let map = match self {
            Metric::Response => &cell.response,
            Metric::Execution => &cell.execution,
            Metric::AvgAlloc => &cell.avg_alloc,
        };
        map.get(&class).copied().unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kinds_build() {
        for kind in PolicyKind::ALL {
            let p = kind.build();
            assert!(!p.name().is_empty());
            let p = kind.build_with_ml(2);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PolicyKind::Irix.label(), "IRIX");
        assert_eq!(PolicyKind::Pdpa.label(), "PDPA");
    }

    #[test]
    fn run_cell_produces_complete_results() {
        let cell = run_cell(Workload::W3, true, PolicyKind::Pdpa, 0.6, &[42]);
        assert!(cell.completed_all);
        assert!(cell.response.contains_key(&AppClass::BtA));
        assert!(cell.response.contains_key(&AppClass::Apsi));
        assert!(cell.makespan > 0.0);
    }

    #[test]
    fn print_figure_contains_all_policies() {
        let grid = vec![
            (PolicyKind::Pdpa, vec![Cell::default(); 3]),
            (PolicyKind::Equipartition, vec![Cell::default(); 3]),
        ];
        let text = print_figure("t", Workload::W1, &grid, Metric::Response);
        assert!(text.contains("PDPA"));
        assert!(text.contains("Equip"));
        assert!(text.contains("swim"));
        assert!(text.contains("bt.A"));
    }
}
