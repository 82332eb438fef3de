//! Extension experiment — rigid first-fit versus dynamic space sharing
//! (the §4.3 motivation, quantified).
//!
//! Rigid systems "can only be executed with the number of processors
//! requested", so a 60-CPU machine running one 30-processor job strands 30
//! processors whenever the next queued job also wants 30 and a 2-processor
//! apsi sits behind it. Dynamic space sharing starts jobs on whatever is
//! free. The table compares makespan and mean response on the paper's
//! workloads at 100 % load.
//!
//! All (workload, variant) cells run as one flat parallel map; the table
//! renders from the regrouped results in workload-major order.

use std::fmt::Write as _;

use crate::SEEDS;
use pdpa_core::roster;
use pdpa_engine::{Engine, EngineConfig};
use pdpa_qs::Workload;

/// Table rows: label, roster slug, and whether the queue is backfilled.
const VARIANTS: [(&str, &str, bool); 4] = [
    ("Rigid", "rigid", false),
    ("Rigid+backfill", "rigid", true),
    ("Equip", "equip", false),
    ("PDPA", "pdpa", false),
];

fn run_variant(wl: Workload, (which, slug, backfill): (&str, &str, bool)) -> (f64, f64, usize) {
    let mut makespan = 0.0;
    let mut resp = 0.0;
    let mut ml = 0usize;
    for &seed in &SEEDS {
        let jobs = wl.build(1.0, seed);
        let mut config = EngineConfig::default().with_seed(seed ^ 0xA5A5);
        if backfill {
            config = config.with_backfill();
        }
        let r = Engine::new(config).run(jobs, roster::get(slug).build());
        assert!(r.completed_all, "{wl}/{which} wedged");
        makespan += r.summary.makespan_secs();
        resp += r.summary.overall_avg_response_secs();
        ml = ml.max(r.max_ml);
    }
    let n = SEEDS.len() as f64;
    (makespan / n, resp / n, ml)
}

/// Renders the experiment.
pub fn run() -> String {
    let tasks: Vec<(Workload, (&str, &str, bool))> = Workload::ALL
        .iter()
        .flat_map(|&wl| VARIANTS.iter().map(move |&variant| (wl, variant)))
        .collect();
    let results = pdpa_parallel::par_map(&tasks, pdpa_parallel::num_threads(), |&(wl, variant)| {
        run_variant(wl, variant)
    });
    let mut results = results.into_iter();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Rigid first-fit vs dynamic space sharing (extension — §4.3)\n"
    );
    let _ = writeln!(
        out,
        "{:<6} {:<16} {:>10} {:>16} {:>8}",
        "wl", "policy", "makespan", "mean response", "maxML"
    );
    for wl in Workload::ALL {
        for (which, _, _) in VARIANTS {
            let (makespan, resp, ml) = results.next().expect("one result per task");
            let _ = writeln!(
                out,
                "{:<6} {:<16} {:>9.0}s {:>15.0}s {:>8}",
                wl.name(),
                which,
                makespan,
                resp,
                ml
            );
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "Backfilling (scanning the queue for any job that fits) recovers part of\n\
         the rigid policy's fragmentation loss; dynamic space sharing and PDPA's\n\
         coordination recover the rest."
    );
    out
}
