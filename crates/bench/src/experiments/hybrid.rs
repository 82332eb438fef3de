//! Extension experiment — MPI+OpenMP hybrid applications (§6 future work).
//!
//! An 8-rank MPI application with a 2:1 load imbalance runs under PDPA in
//! three configurations:
//!
//! - **rigid**: plain MPI, one processor per rank, no malleability — the
//!   baseline the paper wants to escape;
//! - **hybrid/even**: OpenMP inside each rank, processors split evenly;
//! - **hybrid/balanced**: §6's first approach — per-rank processor control
//!   following the load.
//!
//! The table shows the effective speedup curves and the end-to-end makespan
//! of a two-job workload on the 60-CPU machine.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::PolicyKind;
use pdpa_apps::{Amdahl, AppClass, ApplicationSpec, SpeedupModel};
use pdpa_engine::{Engine, EngineConfig};
use pdpa_hybrid::{HybridSpec, HybridSpeedup, RankStrategy};
use pdpa_qs::JobSpec;
use pdpa_sim::{SimDuration, SimTime};

fn spec() -> HybridSpec {
    let mut loads = vec![SimDuration::from_secs(2.0)];
    loads.extend(std::iter::repeat_n(SimDuration::from_secs(1.0), 7));
    HybridSpec::new(
        loads,
        Arc::new(Amdahl::new(0.02)),
        SimDuration::from_millis(20.0),
    )
}

fn app(strategy: RankStrategy) -> ApplicationSpec {
    let s = spec();
    let t1 = s.total_seq() + SimDuration::from_millis(20.0);
    ApplicationSpec::new(
        AppClass::BtA,
        40,
        t1,
        24,
        Arc::new(HybridSpeedup::new(s, strategy)),
        0.01,
    )
}

/// Renders the experiment.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Hybrid MPI+OpenMP (extension — paper §6)\n");

    // Effective speedup curves.
    let even = HybridSpeedup::new(spec(), RankStrategy::Even);
    let balanced = HybridSpeedup::new(spec(), RankStrategy::Balanced);
    let _ = writeln!(
        out,
        "effective speedup of the 8-rank imbalanced application:"
    );
    let _ = write!(out, "{:<12}", "procs");
    let points = [1usize, 4, 8, 10, 12, 16, 20, 24];
    for p in points {
        let _ = write!(out, "{p:>7}");
    }
    out.push('\n');
    let _ = write!(out, "{:<12}", "even");
    for p in points {
        let _ = write!(out, "{:>7.2}", even.speedup(p));
    }
    out.push('\n');
    let _ = write!(out, "{:<12}", "balanced");
    for p in points {
        let _ = write!(out, "{:>7.2}", balanced.speedup(p));
    }
    let _ = writeln!(
        out,
        "\n(procs < 8 is the folding region: ranks share processors, yielding at receives)\n"
    );

    // End-to-end under PDPA: two hybrid jobs.
    let _ = writeln!(out, "two-job workload under PDPA (60 CPUs):");
    for (label, strategy) in [
        ("even", RankStrategy::Even),
        ("balanced", RankStrategy::Balanced),
    ] {
        let jobs = vec![
            JobSpec::new(SimTime::ZERO, app(strategy)),
            JobSpec::new(SimTime::from_secs(10.0), app(strategy)),
        ];
        let result = Engine::new(EngineConfig::default()).run(jobs, PolicyKind::Pdpa.build());
        let _ = writeln!(
            out,
            "  {label:<10} makespan {:>6.1}s  avg alloc {:>5.1}  completed: {}",
            result.summary.makespan_secs(),
            result.avg_alloc_by_class[&AppClass::BtA],
            result.completed_all
        );
    }

    // The rigid baseline: one processor per rank, exactly 8 processors,
    // iteration time = heavy rank at one processor.
    let s = spec();
    let rigid_iter = pdpa_hybrid::iteration_time(&s, 8, RankStrategy::Even);
    let _ = writeln!(
        out,
        "\nrigid MPI baseline (8 procs, 1 per rank): {:.2}s per iteration → {:.1}s total",
        rigid_iter.as_secs(),
        rigid_iter.as_secs() * 40.0
    );
    let b24 = pdpa_hybrid::iteration_time(&s, 24, RankStrategy::Balanced);
    let _ = writeln!(
        out,
        "hybrid balanced at 24 procs: {:.2}s per iteration → {:.1}s total",
        b24.as_secs(),
        b24.as_secs() * 40.0
    );
    out
}
