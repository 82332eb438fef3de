//! Table 2 — IRIX versus PDPA and Equipartition: migrations and bursts.
//!
//! Workload 1 at 100 % load. The paper reports (on the Origin 2000):
//!
//! | | migrations | avg burst per cpu | bursts per cpu |
//! |---|---|---|---|
//! | IRIX | 159,865 | 243 ms | 2882 |
//! | PDPA | 66 | 10,782 ms | 41 |
//! | Equip | 325 | 11,375 ms | 43 |
//!
//! The reproduction target is the *structure*: IRIX migrates thousands of
//! times with quantum-length bursts; the space-sharing policies migrate tens
//! to hundreds of times with bursts three orders of magnitude longer.

use std::fmt::Write as _;

use crate::PolicyKind;
use pdpa_engine::{Engine, EngineConfig};
use pdpa_qs::Workload;
use pdpa_sim::SimTime;
use pdpa_trace::{BurstStats, TraceObserver};

/// Renders the experiment.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table 2 — migrations and burst statistics (w1, load = 100 %)\n"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>18} {:>16}",
        "", "migrations", "avg burst (ms)", "avg bursts/cpu"
    );
    for policy in [
        PolicyKind::Irix,
        PolicyKind::Pdpa,
        PolicyKind::Equipartition,
    ] {
        let jobs = Workload::W1.build(1.0, 42);
        let config = EngineConfig::default().with_trace().with_seed(42);
        let mut tracer = TraceObserver::new(config.cpus);
        let result = Engine::new(config).run_observed(jobs, policy.build(), &mut tracer);
        let trace = tracer.into_trace(SimTime::from_secs(result.end_secs));
        let bursts = BurstStats::from_trace(&trace, result.total_migrations());
        let _ = writeln!(out, "{}", bursts.table_row(policy.label()));
    }
    let _ = writeln!(out, "\npaper (Origin 2000):");
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>18} {:>16}",
        "IRIX", 159_865, 243, 2882
    );
    let _ = writeln!(out, "{:<8} {:>12} {:>18} {:>16}", "PDPA", 66, 10_782, 41);
    let _ = writeln!(out, "{:<8} {:>12} {:>18} {:>16}", "Equip.", 325, 11_375, 43);
    out
}
