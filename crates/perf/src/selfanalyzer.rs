//! The SelfAnalyzer: runtime speedup estimation from iteration timings.

use pdpa_sim::SimDuration;

/// Configuration of a [`SelfAnalyzer`].
#[derive(Clone, Copy, Debug)]
pub struct SelfAnalyzerConfig {
    /// Number of initial iterations executed at the baseline allocation to
    /// obtain the reference time.
    pub baseline_iters: u32,
    /// Processors used during the baseline measurement ("a small number of
    /// processors", §3.1).
    pub baseline_procs: usize,
    /// Amdahl factor: the assumed efficiency of the baseline allocation
    /// itself, used to normalize the estimated speedup to a one-processor
    /// reference. With `baseline_procs = 2` and `AF = 0.975` the analyzer
    /// assumes the baseline ran at speedup `2 × 0.975 = 1.95` — calibrated
    /// to the near-linear two-processor scaling of well-parallelized codes.
    pub amdahl_factor: f64,
}

impl Default for SelfAnalyzerConfig {
    fn default() -> Self {
        SelfAnalyzerConfig {
            baseline_iters: 2,
            baseline_procs: 2,
            amdahl_factor: 0.975,
        }
    }
}

impl SelfAnalyzerConfig {
    /// The speedup the analyzer assumes the baseline allocation achieved.
    pub fn assumed_baseline_speedup(&self) -> f64 {
        if self.baseline_procs <= 1 {
            1.0
        } else {
            self.baseline_procs as f64 * self.amdahl_factor
        }
    }
}

/// One performance estimate, produced after a post-baseline iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfSample {
    /// Processors the iteration ran with.
    pub procs: usize,
    /// Estimated speedup over one processor.
    pub speedup: f64,
    /// Estimated efficiency (`speedup / procs`).
    pub efficiency: f64,
    /// Measured wall-clock time of the iteration.
    pub iter_time: SimDuration,
    /// Index of the iteration (0-based, counting every iteration including
    /// the baseline ones).
    pub iteration: u32,
}

/// Per-application runtime speedup estimator.
///
/// Feed it every completed iteration via [`record_iteration`]; during the
/// baseline phase it returns `None` (no estimate yet), afterwards it returns
/// a [`PerfSample`] per iteration.
///
/// [`record_iteration`]: SelfAnalyzer::record_iteration
///
/// # Examples
///
/// ```
/// use pdpa_perf::{SelfAnalyzer, SelfAnalyzerConfig};
/// use pdpa_sim::SimDuration;
///
/// let mut analyzer = SelfAnalyzer::new(SelfAnalyzerConfig::default());
/// // Two baseline iterations on 2 processors establish the reference.
/// analyzer.record_iteration(2, SimDuration::from_secs(10.0));
/// analyzer.record_iteration(2, SimDuration::from_secs(10.0));
/// // An iteration 4x faster on 12 processors:
/// let sample = analyzer
///     .record_iteration(12, SimDuration::from_secs(2.5))
///     .expect("past the baseline phase");
/// assert!((sample.speedup - 7.8).abs() < 1e-9); // 4 × (2 × 0.975)
/// ```
#[derive(Clone, Debug)]
pub struct SelfAnalyzer {
    config: SelfAnalyzerConfig,
    /// Baseline iteration times collected so far.
    baseline_times: Vec<SimDuration>,
    /// Reference time (average baseline iteration), once known.
    time_with_baseline: Option<SimDuration>,
    iterations_seen: u32,
}

impl SelfAnalyzer {
    /// Creates an analyzer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no baseline iterations, no
    /// baseline processors, or a non-positive Amdahl factor).
    pub fn new(config: SelfAnalyzerConfig) -> Self {
        assert!(
            config.baseline_iters > 0,
            "need at least one baseline iteration"
        );
        assert!(config.baseline_procs > 0, "baseline needs processors");
        assert!(config.amdahl_factor > 0.0, "Amdahl factor must be positive");
        SelfAnalyzer {
            config,
            baseline_times: Vec::new(),
            time_with_baseline: None,
            iterations_seen: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SelfAnalyzerConfig {
        &self.config
    }

    /// True while the analyzer is still collecting baseline iterations.
    pub fn in_baseline_phase(&self) -> bool {
        self.time_with_baseline.is_none()
    }

    /// Iterations recorded so far (baseline included).
    pub fn iterations_seen(&self) -> u32 {
        self.iterations_seen
    }

    /// The reference time, once the baseline phase has completed.
    pub fn time_with_baseline(&self) -> Option<SimDuration> {
        self.time_with_baseline
    }

    /// How many processors the application should actually use when the
    /// scheduler has allocated `allocated`: during the baseline phase the
    /// runtime restrains itself to the baseline processors.
    #[inline]
    pub fn effective_procs(&self, allocated: usize) -> usize {
        if self.in_baseline_phase() {
            allocated.min(self.config.baseline_procs)
        } else {
            allocated
        }
    }

    /// Records a completed iteration that ran on `procs` processors in
    /// `iter_time` wall-clock seconds.
    ///
    /// Returns a performance estimate once the baseline is established.
    /// Baseline iterations that ran on *more* processors than the baseline
    /// (possible if the scheduler raised the allocation before the runtime
    /// could restrain it) are still accepted: the reference is whatever the
    /// first iterations measured, and the Amdahl factor absorbs the error —
    /// exactly the approximation the real SelfAnalyzer makes.
    pub fn record_iteration(&mut self, procs: usize, iter_time: SimDuration) -> Option<PerfSample> {
        self.iterations_seen += 1;
        match self.time_with_baseline {
            None => {
                self.baseline_times.push(iter_time);
                if self.baseline_times.len() as u32 >= self.config.baseline_iters {
                    let total: SimDuration = self.baseline_times.iter().copied().sum();
                    self.time_with_baseline = Some(total / self.baseline_times.len() as f64);
                }
                None
            }
            Some(t_base) => {
                if procs == 0 || iter_time.is_zero() {
                    return None;
                }
                let ratio = t_base.as_secs() / iter_time.as_secs();
                let speedup = ratio * self.config.assumed_baseline_speedup();
                Some(PerfSample {
                    procs,
                    speedup,
                    efficiency: speedup / procs as f64,
                    iter_time,
                    iteration: self.iterations_seen - 1,
                })
            }
        }
    }

    /// Discards the baseline and starts over.
    ///
    /// The paper suggests resetting the analyzer when an application's
    /// working set changes between iterations (§3.1).
    pub fn reset(&mut self) {
        self.baseline_times.clear();
        self.time_with_baseline = None;
    }
}

impl Default for SelfAnalyzer {
    fn default() -> Self {
        Self::new(SelfAnalyzerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn baseline_phase_returns_no_samples() {
        let mut sa = SelfAnalyzer::default();
        assert!(sa.in_baseline_phase());
        assert!(sa.record_iteration(2, secs(10.0)).is_none());
        assert!(sa.in_baseline_phase());
        assert!(sa.record_iteration(2, secs(10.0)).is_none());
        assert!(!sa.in_baseline_phase());
        assert_eq!(sa.time_with_baseline(), Some(secs(10.0)));
    }

    #[test]
    fn baseline_averages_iterations() {
        let mut sa = SelfAnalyzer::new(SelfAnalyzerConfig {
            baseline_iters: 3,
            ..Default::default()
        });
        sa.record_iteration(2, secs(9.0));
        sa.record_iteration(2, secs(10.0));
        sa.record_iteration(2, secs(11.0));
        assert_eq!(sa.time_with_baseline(), Some(secs(10.0)));
    }

    #[test]
    fn speedup_estimate_is_normalized_by_amdahl_factor() {
        let mut sa = SelfAnalyzer::default(); // baseline: 2 procs, AF 0.975
        sa.record_iteration(2, secs(10.0));
        sa.record_iteration(2, secs(10.0));
        // An iteration twice as fast as the baseline on 8 processors:
        // estimated speedup = 2 × (2 × 0.975) = 3.9, efficiency 0.4875.
        let s = sa.record_iteration(8, secs(5.0)).unwrap();
        assert!((s.speedup - 3.9).abs() < 1e-12, "{}", s.speedup);
        assert!((s.efficiency - 0.4875).abs() < 1e-12);
        assert_eq!(s.procs, 8);
    }

    #[test]
    fn single_processor_baseline_needs_no_normalization() {
        let cfg = SelfAnalyzerConfig {
            baseline_iters: 1,
            baseline_procs: 1,
            amdahl_factor: 0.975,
        };
        assert_eq!(cfg.assumed_baseline_speedup(), 1.0);
        let mut sa = SelfAnalyzer::new(cfg);
        sa.record_iteration(1, secs(12.0));
        let s = sa.record_iteration(4, secs(3.0)).unwrap();
        assert!((s.speedup - 4.0).abs() < 1e-12);
    }

    #[test]
    fn effective_procs_restrains_during_baseline() {
        let mut sa = SelfAnalyzer::default();
        assert_eq!(sa.effective_procs(30), 2);
        assert_eq!(sa.effective_procs(1), 1);
        sa.record_iteration(2, secs(1.0));
        sa.record_iteration(2, secs(1.0));
        assert_eq!(sa.effective_procs(30), 30);
    }

    #[test]
    fn degenerate_measurements_produce_no_sample() {
        let mut sa = SelfAnalyzer::default();
        sa.record_iteration(2, secs(1.0));
        sa.record_iteration(2, secs(1.0));
        assert!(sa.record_iteration(0, secs(1.0)).is_none());
        assert!(sa.record_iteration(4, SimDuration::ZERO).is_none());
    }

    #[test]
    fn reset_restarts_the_baseline() {
        let mut sa = SelfAnalyzer::default();
        sa.record_iteration(2, secs(1.0));
        sa.record_iteration(2, secs(1.0));
        assert!(!sa.in_baseline_phase());
        sa.reset();
        assert!(sa.in_baseline_phase());
        assert!(sa.record_iteration(2, secs(2.0)).is_none());
    }

    #[test]
    fn iteration_indices_count_from_zero_including_baseline() {
        let mut sa = SelfAnalyzer::default();
        sa.record_iteration(2, secs(1.0));
        sa.record_iteration(2, secs(1.0));
        let s = sa.record_iteration(4, secs(0.5)).unwrap();
        assert_eq!(s.iteration, 2);
        assert_eq!(sa.iterations_seen(), 3);
    }
}
