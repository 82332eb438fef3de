//! Fig. 8 — the multiprogramming level decided by PDPA over time.
//!
//! Workload 2 at 100 % load: the paper's figure shows PDPA adapting the
//! level continuously to the running applications' characteristics, peaking
//! around six concurrent jobs. Renders the series and an ASCII plot.

use std::fmt::Write as _;

use crate::{run_engine_observed, PolicyKind};
use pdpa_engine::EngineConfig;
use pdpa_obs::{mpl_series, MplPoint, RecordingObserver};
use pdpa_qs::Workload;

/// Renders the experiment.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 8 — PDPA's dynamic multiprogramming level (w2, load = 100 %)\n"
    );
    let jobs = Workload::W2.build(1.0, 42);
    let mut rec = RecordingObserver::new();
    let result = run_engine_observed(
        "w2-PDPA-load1-seed42",
        EngineConfig::default().with_seed(42),
        jobs,
        PolicyKind::Pdpa.build(),
        &mut rec,
    );
    let series = mpl_series(rec.events());

    let _ = writeln!(
        out,
        "max ml = {}, makespan = {:.0} s, {} level changes\n",
        result.max_ml,
        result.end_secs,
        series.len()
    );

    // Sampled series (the raw series has one entry per admission/completion).
    let _ = writeln!(out, "time(s)  ml");
    let horizon = result.end_secs;
    let samples = 30usize;
    for i in 0..=samples {
        let t = horizon * i as f64 / samples as f64;
        let ml = ml_at(&series, t);
        let _ = writeln!(out, "{t:>7.0}  {ml}");
    }

    // ASCII plot.
    let width = 100usize;
    let height = result.max_ml.max(1);
    let _ = writeln!(out, "\nml");
    for level in (1..=height).rev() {
        let mut line = String::with_capacity(width);
        for x in 0..width {
            let t = horizon * x as f64 / width as f64;
            line.push(if ml_at(&series, t) >= level { '#' } else { ' ' });
        }
        let _ = writeln!(out, "{level:>3} |{line}");
    }
    let _ = writeln!(out, "    +{}", "-".repeat(width));
    let _ = writeln!(out, "     0{:>width$.0}s", horizon, width = width - 1);
    out
}

/// The multiprogramming level in force at instant `t`.
fn ml_at(series: &[MplPoint], t: f64) -> usize {
    series
        .iter()
        .take_while(|p| p.at.as_secs() <= t)
        .last()
        .map_or(0, |p| p.running)
}
