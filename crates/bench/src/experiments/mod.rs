//! The in-process experiment registry.
//!
//! Every paper artifact lives here as a function returning its rendered
//! `String` (no direct stdout writes), so `expt-all` can run experiments
//! concurrently on worker threads and still print them in deterministic
//! paper order — outputs are joined in registry order regardless of which
//! experiment finishes first. The thin `expt-*` binaries call into this
//! registry through [`crate::harness`].

use crate::{print_figure, run_figure, Metric};
use pdpa_qs::Workload;
use std::fmt::Write as _;

pub mod ablation;
pub mod chaos;
pub mod cluster;
pub mod fig3;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fragmentation;
pub mod hybrid;
pub mod scale;
pub mod sensitivity;
pub mod sharing;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod tournament;

/// One registered experiment.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Short name used by `--only` and the metrics scopes (`fig3`, …).
    pub name: &'static str,
    /// One-line description shown in usage output.
    pub title: &'static str,
    /// Renders the experiment's full output.
    pub run: fn() -> String,
}

/// The experiments in the paper's presentation order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig3",
            title: "Fig. 3 — speedup curves of the four applications",
            run: fig3::run,
        },
        Experiment {
            name: "table1",
            title: "Table 1 — workload compositions",
            run: table1::run,
        },
        Experiment {
            name: "fig4",
            title: "Fig. 4 — workload 1 response/execution times",
            run: || figure(Workload::W1, "Fig. 4 — workload 1"),
        },
        Experiment {
            name: "fig5",
            title: "Fig. 5 — execution views (IRIX vs PDPA)",
            run: fig5::run,
        },
        Experiment {
            name: "table2",
            title: "Table 2 — migrations and burst statistics",
            run: table2::run,
        },
        Experiment {
            name: "fig6",
            title: "Fig. 6 — workload 2 response/execution times",
            run: || figure(Workload::W2, "Fig. 6 — workload 2"),
        },
        Experiment {
            name: "fig7",
            title: "Fig. 7 — workload 2 under multiprogramming levels 2/3/4",
            run: fig7::run,
        },
        Experiment {
            name: "fig8",
            title: "Fig. 8 — PDPA's dynamic multiprogramming level",
            run: fig8::run,
        },
        Experiment {
            name: "fig9",
            title: "Fig. 9 — workload 3 response/execution times",
            run: || figure(Workload::W3, "Fig. 9 — workload 3"),
        },
        Experiment {
            name: "table3",
            title: "Table 3 — workload 3 with an untuned apsi request",
            run: table3::run,
        },
        Experiment {
            name: "fig10",
            title: "Fig. 10 — workload 4 response/execution times",
            run: || figure(Workload::W4, "Fig. 10 — workload 4"),
        },
        Experiment {
            name: "table4",
            title: "Table 4 — workload 4 untuned",
            run: table4::run,
        },
        Experiment {
            name: "ablation",
            title: "PDPA design-choice ablations (extension)",
            run: ablation::run,
        },
        Experiment {
            name: "hybrid",
            title: "MPI+OpenMP hybrid applications (extension, §6)",
            run: hybrid::run,
        },
        Experiment {
            name: "cluster",
            title: "Clusters of SMPs with cooperating schedulers (extension, §6)",
            run: cluster::run,
        },
        Experiment {
            name: "fragmentation",
            title: "Rigid first-fit vs dynamic space sharing (extension, §4.3)",
            run: fragmentation::run,
        },
        Experiment {
            name: "sensitivity",
            title: "Sensitivity to noise and reallocation cost (extension)",
            run: sensitivity::run,
        },
        Experiment {
            name: "sharing",
            title: "Space vs gang vs time sharing (extension)",
            run: sharing::run,
        },
        Experiment {
            name: "chaos",
            title: "Graceful degradation under injected faults (extension)",
            run: chaos::run,
        },
        Experiment {
            name: "scale",
            title: "Large-scale SWF trace replay (extension)",
            run: scale::run,
        },
        Experiment {
            name: "tournament",
            title: "Policy-zoo slowdown tournament (extension)",
            run: tournament::run,
        },
    ]
}

/// Finds an experiment by name.
pub fn find(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

/// The shared Fig. 4/6/9/10 shape: response, execution, and allocation
/// tables plus the per-policy multiprogramming-level line.
pub(crate) fn figure(workload: Workload, title_prefix: &str) -> String {
    let grid = run_figure(workload, true);
    render_figure(&grid, workload, title_prefix)
}

/// Renders an already-computed figure grid (shared with the determinism
/// test, which compares parallel and sequential grids byte for byte).
pub fn render_figure(grid: &crate::Grid, workload: Workload, title_prefix: &str) -> String {
    let mut out = String::new();
    out.push_str(&print_figure(
        &format!("{title_prefix} response times"),
        workload,
        grid,
        Metric::Response,
    ));
    out.push_str(&print_figure(
        &format!("{title_prefix} execution times"),
        workload,
        grid,
        Metric::Execution,
    ));
    out.push_str(&print_figure(
        &format!("{title_prefix} average allocations (analysis)"),
        workload,
        grid,
        Metric::AvgAlloc,
    ));
    for (policy, cells) in grid {
        let mls: Vec<String> = cells.iter().map(|c| format!("{:.0}", c.max_ml)).collect();
        let _ = writeln!(
            out,
            "max multiprogramming level {:<10} {}",
            policy.label(),
            mls.join(" / ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_in_paper_order_with_unique_names() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names[0], "fig3");
        assert_eq!(names[2], "fig4");
        assert_eq!(names.last(), Some(&"tournament"));
        assert_eq!(names.len(), 21);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names must be unique");
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("fig5").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn cheap_experiments_render() {
        // The two closed-form experiments run in microseconds; smoke them.
        let out = fig3::run();
        assert!(out.contains("Fig. 3"));
        assert!(out.contains("swim"));
        let out = table1::run();
        assert!(out.contains("Table 1"));
    }
}
