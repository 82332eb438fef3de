//! Malleable iterative application specification and progress accounting.
//!
//! The paper's applications are *iterative parallel regions*: a sequential
//! outer loop whose body is a set of parallel loops. Iterations behave alike,
//! which is what lets the SelfAnalyzer predict future iterations from past
//! ones (§3.1). [`ApplicationSpec`] captures the static shape; [`Progress`]
//! tracks how far a running instance has gotten under a (possibly changing)
//! processor allocation.

use std::fmt;
use std::sync::Arc;

use pdpa_sim::SimDuration;

use crate::class::AppClass;
use crate::speedup::SpeedupModel;

/// A change in an application's per-iteration work partway through the run
/// — the "iterative parallel region with a variable working set" the paper
/// warns about (§3.1): measurements from before the change no longer
/// predict iterations after it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseChange {
    /// First iteration (0-based) of the new phase.
    pub at_iteration: u32,
    /// Multiplier on the sequential iteration time from that point on.
    pub factor: f64,
}

/// The static description of a malleable iterative application.
#[derive(Clone)]
pub struct ApplicationSpec {
    /// Which paper benchmark this models.
    pub class: AppClass,
    /// Number of iterations of the outer sequential loop.
    pub iterations: u32,
    /// Sequential execution time of one iteration (on one processor,
    /// without instrumentation).
    pub seq_iter_time: SimDuration,
    /// Processors the application requests at submission.
    pub request: usize,
    /// True speedup curve — policies never see this; they see measured
    /// iteration times.
    pub speedup: Arc<dyn SpeedupModel>,
    /// Fractional per-iteration instrumentation overhead (the SelfAnalyzer
    /// measurement cost; hydro2d pays noticeably more than the others).
    pub measurement_overhead: f64,
    /// Optional working-set change partway through the run (§3.1).
    pub phase_change: Option<PhaseChange>,
}

impl ApplicationSpec {
    /// Creates a specification.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` or `request` is zero, or if the overhead is
    /// negative.
    pub fn new(
        class: AppClass,
        iterations: u32,
        seq_iter_time: SimDuration,
        request: usize,
        speedup: Arc<dyn SpeedupModel>,
        measurement_overhead: f64,
    ) -> Self {
        assert!(iterations > 0, "application needs at least one iteration");
        assert!(request > 0, "request must be at least one processor");
        assert!(measurement_overhead >= 0.0, "overhead must be non-negative");
        ApplicationSpec {
            class,
            iterations,
            seq_iter_time,
            request,
            speedup,
            measurement_overhead,
            phase_change: None,
        }
    }

    /// Adds a working-set change: from `at_iteration` on, each iteration's
    /// sequential time is multiplied by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if the factor is not positive or the boundary is outside the
    /// run.
    pub fn with_phase_change(mut self, at_iteration: u32, factor: f64) -> Self {
        assert!(factor > 0.0, "phase factor must be positive");
        assert!(
            at_iteration > 0 && at_iteration < self.iterations,
            "phase boundary must fall inside the run"
        );
        self.phase_change = Some(PhaseChange {
            at_iteration,
            factor,
        });
        self
    }

    /// Sequential time of iteration `iter` (0-based), accounting for a
    /// phase change.
    #[inline]
    pub fn seq_iter_time_at(&self, iter: u32) -> SimDuration {
        match self.phase_change {
            Some(pc) if iter >= pc.at_iteration => self.seq_iter_time * pc.factor,
            _ => self.seq_iter_time,
        }
    }

    /// Replaces the processor request (used by the untuned experiments).
    pub fn with_request(mut self, request: usize) -> Self {
        assert!(request > 0, "request must be at least one processor");
        self.request = request;
        self
    }

    /// Total sequential work, in seconds.
    pub fn total_seq_time(&self) -> SimDuration {
        match self.phase_change {
            Some(pc) => {
                self.seq_iter_time * pc.at_iteration as f64
                    + self.seq_iter_time * pc.factor * (self.iterations - pc.at_iteration) as f64
            }
            None => self.seq_iter_time * self.iterations as f64,
        }
    }

    /// Wall-clock time of one iteration on `p` dedicated processors,
    /// including instrumentation overhead. `None` when `p = 0`.
    /// (First-phase time; see [`iter_time_at`] for phased applications.)
    ///
    /// [`iter_time_at`]: ApplicationSpec::iter_time_at
    pub fn iter_time(&self, p: usize) -> Option<SimDuration> {
        self.iter_time_at(0, p)
    }

    /// Wall-clock time of iteration `iter` on `p` dedicated processors.
    pub fn iter_time_at(&self, iter: u32, p: usize) -> Option<SimDuration> {
        let s = self.speedup.speedup(p);
        if s <= 0.0 {
            return None;
        }
        Some(self.seq_iter_time_at(iter) * ((1.0 + self.measurement_overhead) / s))
    }

    /// Progress rate with `p` processors, in iterations per second
    /// (0 when `p = 0`). First-phase rate; see [`rate_at`].
    ///
    /// [`rate_at`]: ApplicationSpec::rate_at
    pub fn rate(&self, p: usize) -> f64 {
        self.rate_at(0, p)
    }

    /// Progress rate during iteration `iter` with `p` processors.
    pub fn rate_at(&self, iter: u32, p: usize) -> f64 {
        match self.iter_time_at(iter, p) {
            Some(t) => 1.0 / t.as_secs(),
            None => 0.0,
        }
    }

    /// Ideal end-to-end execution time on `p` dedicated processors with no
    /// reallocations.
    pub fn ideal_exec_time(&self, p: usize) -> SimDuration {
        self.iter_time(p)
            .map(|t| t * self.iterations as f64)
            .unwrap_or(SimDuration::from_secs(f64::MAX / 2.0))
    }
}

impl fmt::Debug for ApplicationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ApplicationSpec")
            .field("class", &self.class)
            .field("iterations", &self.iterations)
            .field("seq_iter_time", &self.seq_iter_time)
            .field("request", &self.request)
            .field("measurement_overhead", &self.measurement_overhead)
            .finish_non_exhaustive()
    }
}

/// Progress of one running application instance.
///
/// Progress is measured in iterations; the fraction of the current iteration
/// advances at the application's current rate. Reallocation penalties are
/// modelled as *debt*: time that must elapse before the application makes
/// progress again.
#[derive(Clone, Debug)]
pub struct Progress {
    total: u32,
    done: u32,
    /// Fraction of the current iteration completed, in `[0, 1)`.
    frac: f64,
    /// Outstanding reallocation penalty.
    debt: SimDuration,
}

impl Progress {
    /// Starts tracking an application with `total` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn new(total: u32) -> Self {
        assert!(total > 0, "application needs at least one iteration");
        Progress {
            total,
            done: 0,
            frac: 0.0,
            debt: SimDuration::ZERO,
        }
    }

    /// Iterations fully completed so far.
    pub fn iterations_done(&self) -> u32 {
        self.done
    }

    /// Total iterations in the application.
    pub fn iterations_total(&self) -> u32 {
        self.total
    }

    /// Fraction of the current iteration completed.
    pub fn current_fraction(&self) -> f64 {
        self.frac
    }

    /// True once every iteration has completed.
    pub fn is_complete(&self) -> bool {
        self.done >= self.total
    }

    /// Outstanding reallocation debt.
    pub fn debt(&self) -> SimDuration {
        self.debt
    }

    /// Adds reallocation penalty time that must elapse before further
    /// progress.
    #[inline]
    pub fn add_debt(&mut self, penalty: SimDuration) {
        self.debt += penalty;
    }

    /// Time until the current iteration completes at `rate` iterations per
    /// second, including outstanding debt. `None` if the application cannot
    /// progress (`rate` is 0) or is already complete.
    #[inline]
    pub fn time_to_iteration_end(&self, rate: f64) -> Option<SimDuration> {
        if self.is_complete() || rate <= 0.0 {
            return None;
        }
        let remaining = (1.0 - self.frac) / rate;
        Some(self.debt + SimDuration::from_secs(remaining))
    }

    /// Advances progress by `dt` at `rate` iterations per second.
    ///
    /// Returns the number of iteration boundaries crossed. Debt is consumed
    /// before any progress is made.
    #[inline]
    pub fn advance(&mut self, dt: SimDuration, rate: f64) -> u32 {
        if self.is_complete() {
            return 0;
        }
        let mut remaining = dt;
        // Burn debt first.
        if !self.debt.is_zero() {
            if remaining <= self.debt {
                self.debt -= remaining;
                return 0;
            }
            remaining -= self.debt;
            self.debt = SimDuration::ZERO;
        }
        if rate <= 0.0 {
            return 0;
        }
        let mut crossed = 0;
        let mut progress = self.frac + remaining.as_secs() * rate;
        // Numerical tolerance: an event scheduled exactly at an iteration
        // boundary must cross it despite floating-point rounding.
        const EPS: f64 = 1e-9;
        while progress >= 1.0 - EPS && !self.is_complete() {
            progress -= 1.0;
            self.done += 1;
            crossed += 1;
        }
        self.frac = if self.is_complete() {
            0.0
        } else {
            progress.max(0.0)
        };
        crossed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::Amdahl;

    fn spec() -> ApplicationSpec {
        ApplicationSpec::new(
            AppClass::BtA,
            10,
            SimDuration::from_secs(8.0),
            16,
            Arc::new(Amdahl::new(0.0)),
            0.0,
        )
    }

    #[test]
    fn iter_time_scales_with_processors() {
        let s = spec();
        assert_eq!(s.iter_time(1).unwrap().as_secs(), 8.0);
        assert_eq!(s.iter_time(4).unwrap().as_secs(), 2.0);
        assert!(s.iter_time(0).is_none());
    }

    #[test]
    fn overhead_inflates_iteration_time() {
        let mut s = spec();
        s.measurement_overhead = 0.05;
        assert!((s.iter_time(1).unwrap().as_secs() - 8.4).abs() < 1e-12);
    }

    #[test]
    fn ideal_exec_time_is_iterations_times_iter_time() {
        let s = spec();
        assert_eq!(s.ideal_exec_time(4).as_secs(), 20.0);
        assert_eq!(s.total_seq_time().as_secs(), 80.0);
    }

    #[test]
    fn with_request_overrides() {
        let s = spec().with_request(30);
        assert_eq!(s.request, 30);
    }

    #[test]
    fn phase_change_scales_later_iterations() {
        let s = spec().with_phase_change(4, 2.0);
        assert_eq!(s.seq_iter_time_at(0).as_secs(), 8.0);
        assert_eq!(s.seq_iter_time_at(3).as_secs(), 8.0);
        assert_eq!(s.seq_iter_time_at(4).as_secs(), 16.0);
        assert_eq!(s.seq_iter_time_at(9).as_secs(), 16.0);
        // Total: 4 × 8 + 6 × 16 = 128 s.
        assert_eq!(s.total_seq_time().as_secs(), 128.0);
        // Rates follow.
        assert_eq!(s.rate_at(0, 4), 1.0 / 2.0);
        assert_eq!(s.rate_at(5, 4), 1.0 / 4.0);
    }

    #[test]
    #[should_panic(expected = "phase boundary")]
    fn phase_change_outside_run_is_rejected() {
        let _ = spec().with_phase_change(10, 2.0);
    }

    #[test]
    fn progress_advances_and_completes() {
        let mut p = Progress::new(3);
        // Rate: 1 iteration per 2 seconds.
        assert_eq!(p.advance(SimDuration::from_secs(2.0), 0.5), 1);
        assert_eq!(p.iterations_done(), 1);
        assert_eq!(p.advance(SimDuration::from_secs(5.0), 0.5), 2);
        assert!(p.is_complete());
        // Further advancing is a no-op.
        assert_eq!(p.advance(SimDuration::from_secs(10.0), 0.5), 0);
    }

    #[test]
    fn partial_progress_accumulates() {
        let mut p = Progress::new(2);
        assert_eq!(p.advance(SimDuration::from_secs(1.0), 0.5), 0);
        assert!((p.current_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(p.advance(SimDuration::from_secs(1.0), 0.5), 1);
        assert!(p.current_fraction().abs() < 1e-9);
    }

    #[test]
    fn debt_delays_progress() {
        let mut p = Progress::new(1);
        p.add_debt(SimDuration::from_secs(3.0));
        // The first two seconds only pay debt.
        assert_eq!(p.advance(SimDuration::from_secs(2.0), 1.0), 0);
        assert_eq!(p.debt().as_secs(), 1.0);
        assert_eq!(p.current_fraction(), 0.0);
        // One more second of debt, then half an iteration of progress.
        assert_eq!(p.advance(SimDuration::from_secs(1.5), 1.0), 0);
        assert!(p.debt().is_zero());
        assert!((p.current_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_to_iteration_end_includes_debt() {
        let mut p = Progress::new(2);
        p.advance(SimDuration::from_secs(0.5), 1.0);
        p.add_debt(SimDuration::from_secs(2.0));
        let t = p.time_to_iteration_end(1.0).unwrap();
        assert!((t.as_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn time_to_iteration_end_none_when_stalled_or_done() {
        let mut p = Progress::new(1);
        assert!(p.time_to_iteration_end(0.0).is_none());
        p.advance(SimDuration::from_secs(1.0), 1.0);
        assert!(p.is_complete());
        assert!(p.time_to_iteration_end(1.0).is_none());
    }

    #[test]
    fn boundary_event_crosses_despite_rounding() {
        let mut p = Progress::new(1);
        let rate = 1.0 / 3.0;
        let dt = p.time_to_iteration_end(rate).unwrap();
        assert_eq!(p.advance(dt, rate), 1);
        assert!(p.is_complete());
    }

    #[test]
    fn rate_change_mid_iteration() {
        let mut p = Progress::new(1);
        p.advance(SimDuration::from_secs(1.0), 0.25); // quarter done
                                                      // Four times the processors: remaining 0.75 at rate 1.0.
        let t = p.time_to_iteration_end(1.0).unwrap();
        assert!((t.as_secs() - 0.75).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Progress conservation: chopping a fixed amount of work into any
        /// sequence of advance() calls completes the same number of
        /// iterations as one big call (within float tolerance at the
        /// boundaries).
        #[test]
        fn progress_is_invariant_to_chopping(
            chunks in proptest::collection::vec(0.01f64..5.0, 1..40),
            rate in 0.05f64..4.0,
        ) {
            let total_time: f64 = chunks.iter().sum();
            let mut chopped = Progress::new(1000);
            for &dt in &chunks {
                chopped.advance(SimDuration::from_secs(dt), rate);
            }
            let mut single = Progress::new(1000);
            single.advance(SimDuration::from_secs(total_time), rate);
            let diff = (chopped.iterations_done() as i64
                - single.iterations_done() as i64).abs();
            prop_assert!(diff <= 1, "chopped {} vs single {}",
                chopped.iterations_done(), single.iterations_done());
        }

        /// Debt delays progress by exactly its own duration.
        #[test]
        fn debt_shifts_completion_by_its_duration(
            debt in 0.0f64..10.0,
            rate in 0.1f64..4.0,
        ) {
            let mut clean = Progress::new(5);
            let mut indebted = Progress::new(5);
            indebted.add_debt(SimDuration::from_secs(debt));
            let t_clean = clean.time_to_iteration_end(rate).unwrap().as_secs();
            let t_debt = indebted.time_to_iteration_end(rate).unwrap().as_secs();
            prop_assert!((t_debt - t_clean - debt).abs() < 1e-9);
            // Both complete after their predicted times.
            clean.advance(SimDuration::from_secs(t_clean), rate);
            indebted.advance(SimDuration::from_secs(t_debt), rate);
            prop_assert_eq!(clean.iterations_done(), 1);
            prop_assert_eq!(indebted.iterations_done(), 1);
        }

        /// time_to_iteration_end() is exact: advancing by exactly that span
        /// crosses exactly one boundary.
        #[test]
        fn predicted_boundary_is_exact(
            frac_steps in proptest::collection::vec(0.01f64..0.2, 0..5),
            rate in 0.1f64..4.0,
        ) {
            let mut p = Progress::new(10);
            for &dt in &frac_steps {
                // Stay strictly inside the first iteration.
                if (p.current_fraction() + dt * rate) < 0.95 {
                    p.advance(SimDuration::from_secs(dt), rate);
                }
            }
            let eta = p.time_to_iteration_end(rate).unwrap();
            let crossed = p.advance(eta, rate);
            prop_assert_eq!(crossed, 1);
        }
    }
}
