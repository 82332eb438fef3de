//! Iterative parallel regions on the crew.
//!
//! An [`IterativeRegion`] is the runtime shape the SelfAnalyzer exploits: a
//! sequential outer loop whose body runs in parallel. Each iteration runs on
//! however many workers the resource manager currently grants, is timed with
//! a real clock, and the resulting estimate is fed back — closing the exact
//! loop of Fig. 1 (NthLib ↔ SelfAnalyzer ↔ NANOS RM) on real threads.

use std::sync::Arc;
use std::time::Duration;

use pdpa_perf::{PerfSample, SelfAnalyzer};
use pdpa_sim::{JobId, SimDuration};

use crate::crew::Crew;
use crate::kernels::Task;
use crate::rm::LocalRm;

/// What one iteration did.
#[derive(Clone, Copy, Debug)]
pub struct IterationOutcome {
    /// Iteration index (0-based).
    pub index: u32,
    /// Workers the iteration ran on.
    pub workers: usize,
    /// Measured wall-clock time.
    pub wall: Duration,
    /// The SelfAnalyzer's estimate, once past the baseline phase.
    pub estimate: Option<PerfSample>,
}

/// An iterative parallel region bound to a crew and a resource manager.
pub struct IterativeRegion {
    analyzer: SelfAnalyzer,
    job: JobId,
}

impl IterativeRegion {
    /// Registers the region with the resource manager as an application
    /// requesting `request` workers.
    pub fn register(rm: &mut LocalRm, request: usize, analyzer: SelfAnalyzer) -> Self {
        let job = rm.register(request);
        IterativeRegion { analyzer, job }
    }

    /// The region's job id at the resource manager.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Runs `iterations` iterations of `task` on `crew`, reporting to `rm`
    /// after each one. Returns the per-iteration outcomes.
    pub fn run(
        &mut self,
        crew: &Crew,
        rm: &mut LocalRm,
        task: Arc<dyn Task>,
        iterations: u32,
    ) -> Vec<IterationOutcome> {
        let mut outcomes = Vec::with_capacity(iterations as usize);
        for index in 0..iterations {
            let granted = rm.allocation(self.job).clamp(1, crew.max_workers());
            let workers = self.analyzer.effective_procs(granted).max(1);
            let wall = crew.run(task.clone(), workers);
            let estimate = self
                .analyzer
                .record_iteration(workers, SimDuration::from_secs(wall.as_secs_f64()));
            if let Some(sample) = estimate {
                rm.report(self.job, sample);
            }
            outcomes.push(IterationOutcome {
                index,
                workers,
                wall,
                estimate,
            });
        }
        rm.complete(self.job);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CurveKernel;
    use pdpa_core::Pdpa;
    use pdpa_perf::SelfAnalyzerConfig;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The tests below time real worker threads; run concurrently on a
    /// small machine they slow each other's iterations and skew the
    /// measured curves, so they take this lock and run one at a time.
    static REAL_THREADS: Mutex<()> = Mutex::new(());

    fn one_at_a_time() -> MutexGuard<'static, ()> {
        // The lock guards no data, so a test that panicked holding it
        // leaves nothing half-updated for the next one.
        REAL_THREADS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A saturating curve with its 0.7-efficiency knee near 4 workers.
    fn kneed_curve(n: usize) -> f64 {
        match n {
            0 => 0.0,
            1 => 1.0,
            2 => 1.9,
            3 => 2.7,
            4 => 3.1,
            5 => 3.3,
            6 => 3.4,
            _ => 3.5,
        }
    }

    #[test]
    fn pdpa_converges_to_the_knee_on_real_threads() {
        let _serial = one_at_a_time();
        let crew = Crew::new(8);
        let mut rm = LocalRm::new(Box::new(Pdpa::paper_default()), 8);
        let analyzer = SelfAnalyzer::new(SelfAnalyzerConfig::default());
        let mut region = IterativeRegion::register(&mut rm, 8, analyzer);
        let task = Arc::new(CurveKernel::new(Duration::from_millis(150), kneed_curve));
        let outcomes = region.run(&crew, &mut rm, task, 14);

        assert_eq!(outcomes.len(), 14);
        // Baseline iterations run restrained.
        assert_eq!(outcomes[0].workers, 2);
        assert!(outcomes[0].estimate.is_none());
        // The search must walk down from 8 (efficiency ≈ 0.43) toward the
        // knee; the final allocation sits well below the request.
        let last = outcomes.last().unwrap();
        assert!(
            (2..=6).contains(&last.workers),
            "settled at {} workers",
            last.workers
        );
    }

    #[test]
    fn estimates_track_the_emulated_curve() {
        let _serial = one_at_a_time();
        let crew = Crew::new(4);
        let mut rm = LocalRm::new(Box::new(Pdpa::paper_default()), 4);
        let analyzer = SelfAnalyzer::new(SelfAnalyzerConfig::default());
        let mut region = IterativeRegion::register(&mut rm, 4, analyzer);
        // Perfectly linear curve: estimates should hover near efficiency 1.
        let task = Arc::new(CurveKernel::new(Duration::from_millis(120), |n| n as f64));
        let outcomes = region.run(&crew, &mut rm, task, 8);
        let estimates: Vec<PerfSample> = outcomes.iter().filter_map(|o| o.estimate).collect();
        assert!(!estimates.is_empty());
        // Individual sleeps can overshoot badly on a loaded single-core CI
        // box, so bound the *median* estimate tightly and each sample only
        // loosely.
        let mut effs: Vec<f64> = estimates.iter().map(|e| e.efficiency).collect();
        effs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = effs[effs.len() / 2];
        assert!(
            median > 0.55,
            "median efficiency {median:.2} for a linear kernel"
        );
        for e in &estimates {
            assert!(
                e.efficiency > 0.25,
                "wild misestimate: eff {} at {} procs",
                e.efficiency,
                e.procs
            );
        }
    }
}
