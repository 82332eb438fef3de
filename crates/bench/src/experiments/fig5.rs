//! Fig. 5 — execution views for workload 1 under IRIX and PDPA.
//!
//! Renders the Paraver-style per-CPU activity view of a workload-1 run at
//! 100 % load: "each line represents the activity of a CPU and each color
//! represents a different application". The paper's visual point — IRIX
//! looks chaotic, PDPA shows long solid blocks — survives ASCII rendering.

use std::fmt::Write as _;

use crate::{run_engine_observed, PolicyKind};
use pdpa_engine::EngineConfig;
use pdpa_qs::Workload;
use pdpa_sim::SimTime;
use pdpa_trace::{render_ascii, RenderOptions, TraceObserver};

/// Renders the experiment.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 5 — execution views, workload 1, load = 100 %\n"
    );
    for policy in [PolicyKind::Irix, PolicyKind::Pdpa] {
        let jobs = Workload::W1.build(1.0, 42);
        let config = EngineConfig::default().with_trace().with_seed(42);
        let key = format!("w1-{}-load1-seed42", policy.label());
        let mut tracer = TraceObserver::new(config.cpus);
        let result = run_engine_observed(&key, config, jobs, policy.build(), &mut tracer);
        let migrations = result.total_migrations();
        let trace = tracer.into_trace(SimTime::from_secs(result.end_secs));
        let _ = writeln!(
            out,
            "## {} (migrations: {}, utilization: {:.0} %)\n",
            policy.label(),
            migrations,
            trace.utilization() * 100.0
        );
        let options = RenderOptions {
            width: 100,
            cpu_stride: 3, // every third CPU keeps the view readable
        };
        let _ = writeln!(out, "{}", render_ascii(&trace, &options));
    }
    out
}
