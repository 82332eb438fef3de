//! PDPA ablations (extension beyond the paper's evaluation).
//!
//! Three design choices DESIGN.md calls out, each removed in isolation on
//! workload 4 at 100 % load:
//!
//! 1. **No coordination** (`coordinate_ml = false`) — PDPA's allocation
//!    search with a fixed multiprogramming level of 4: quantifies how much
//!    of PDPA's win is the dynamic level versus the efficiency search.
//! 2. **No relative-speedup test** (`use_relative_speedup = false`) — the
//!    INC state keeps growing superlinear applications as long as raw
//!    efficiency stays high (§4.2.2 exists to stop exactly this).
//! 3. **Target-efficiency sweep** — `target_eff` ∈ {0.5, 0.7, 0.9}: the
//!    knob trading individual execution time against system throughput.
//! 4. **Load-adaptive target** — §4.1's alternative of setting the target
//!    efficiency dynamically from the load of the system.
//!
//! All variant × seed runs go through one flat parallel map; rows render
//! in variant order from the regrouped cells.

use std::fmt::Write as _;

use crate::{average, SEEDS};
use pdpa_apps::AppClass;
use pdpa_core::{Pdpa, PdpaParams, TargetMode};
use pdpa_engine::{Engine, EngineConfig, RunResult};
use pdpa_qs::Workload;

fn variants() -> Vec<(String, PdpaParams)> {
    let mut list: Vec<(String, PdpaParams)> = Vec::new();
    list.push(("PDPA (paper)".into(), PdpaParams::default()));

    let no_coord = PdpaParams {
        coordinate_ml: false,
        ..PdpaParams::default()
    };
    list.push(("no ML coordination".into(), no_coord));

    let no_rel = PdpaParams {
        use_relative_speedup: false,
        ..PdpaParams::default()
    };
    list.push(("no relative-speedup test".into(), no_rel));

    for target in [0.5, 0.9] {
        list.push((
            format!("target_eff = {target}"),
            PdpaParams::default().with_target_eff(target),
        ));
    }
    for step in [2usize, 8] {
        list.push((
            format!("step = {step}"),
            PdpaParams::default().with_step(step),
        ));
    }

    // §4.1's alternative: the target efficiency set dynamically from load.
    list.push((
        "adaptive target 0.5..0.85".into(),
        PdpaParams::default().with_target_mode(TargetMode::LoadAdaptive {
            min: 0.5,
            max: 0.85,
        }),
    ));
    list
}

/// Renders the experiment.
pub fn run() -> String {
    let workload = Workload::W4;
    let variants = variants();

    // Flatten (variant, seed) and fan out.
    let tasks: Vec<(usize, u64)> = (0..variants.len())
        .flat_map(|v| SEEDS.iter().map(move |&seed| (v, seed)))
        .collect();
    let runs = pdpa_parallel::par_map(&tasks, pdpa_parallel::num_threads(), |&(v, seed)| {
        let jobs = workload.build(1.0, seed);
        let config = EngineConfig::default().with_seed(seed ^ 0xA5A5);
        Engine::new(config).run(jobs, Box::new(Pdpa::new(variants[v].1)))
    });
    let mut runs = runs.into_iter();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# PDPA ablations — workload 4, load = 100 % (response/execution per class)\n"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>11} {:>11} {:>11} {:>11}",
        "", "swim", "bt.A", "hydro2d", "apsi"
    );
    for (label, _) in &variants {
        let cell_runs: Vec<RunResult> = (&mut runs).take(SEEDS.len()).collect();
        let cell = average(&cell_runs, workload);
        let _ = write!(out, "{label:<28}");
        for class in AppClass::ALL {
            let _ = write!(
                out,
                " {:>5.0}/{:<5.0}",
                cell.response[&class], cell.execution[&class]
            );
        }
        let _ = writeln!(
            out,
            " makespan {:>5.0}s  maxML {:>3.0}",
            cell.makespan, cell.max_ml
        );
    }
    out
}
