//! Speedup models.
//!
//! A speedup model maps a processor count to the factor by which the
//! application runs faster than on one processor. All models satisfy the
//! basic contract `S(0) = 0`, `S(1) = 1`, and `S(p) > 0` for `p ≥ 1`; they
//! are *not* required to be monotone (real applications can slow down past
//! their sweet spot, and apsi in the paper barely moves).

/// A map from processor count to speedup over the sequential execution.
pub trait SpeedupModel: Send + Sync {
    /// Speedup with `p` processors. Must return 0 for `p = 0` and 1 for
    /// `p = 1`.
    fn speedup(&self, p: usize) -> f64;

    /// Efficiency with `p` processors: `S(p)/p` (0 when `p = 0`).
    fn efficiency(&self, p: usize) -> f64 {
        if p == 0 {
            0.0
        } else {
            self.speedup(p) / p as f64
        }
    }

    /// The execution-time ratio `T(p_from)/T(p_to) = S(p_to)/S(p_from)`.
    ///
    /// This is the paper's *RelativeSpeedup* quantity (§4.2.2) computed from
    /// ground truth; the policies compute it from measurements instead.
    fn relative_speedup(&self, p_from: usize, p_to: usize) -> f64 {
        let from = self.speedup(p_from);
        if from == 0.0 {
            return 0.0;
        }
        self.speedup(p_to) / from
    }

    /// The smallest processor count in `1..=max_p` whose efficiency is still
    /// at least `target`, scanning downward from `max_p`; i.e. the largest
    /// allocation an efficiency-targeted policy would settle on.
    fn max_procs_at_efficiency(&self, target: f64, max_p: usize) -> usize {
        (1..=max_p)
            .rev()
            .find(|&p| self.efficiency(p) >= target)
            .unwrap_or(1)
    }

    /// The last processor count at which the curve is *defined* by data
    /// rather than extrapolation, if the model has one. Interpolators clamp
    /// fractional processor counts to this bound instead of reading past
    /// the curve's end. Closed-form models (`None`) are defined everywhere.
    fn max_defined_procs(&self) -> Option<usize> {
        None
    }
}

/// Amdahl's law: `S(p) = 1 / (serial + (1 - serial)/p)`.
#[derive(Clone, Copy, Debug)]
pub struct Amdahl {
    /// Serial fraction of the execution, in `[0, 1]`.
    pub serial_fraction: f64,
}

impl Amdahl {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `serial_fraction` is in `[0, 1]`.
    pub fn new(serial_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&serial_fraction),
            "serial fraction must be in [0, 1]"
        );
        Amdahl { serial_fraction }
    }
}

impl SpeedupModel for Amdahl {
    fn speedup(&self, p: usize) -> f64 {
        if p == 0 {
            return 0.0;
        }
        1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / p as f64)
    }
}

/// Gustafson's law: `S(p) = p - serial * (p - 1)` (scaled speedup).
#[derive(Clone, Copy, Debug)]
pub struct Gustafson {
    /// Serial fraction of the scaled execution, in `[0, 1]`.
    pub serial_fraction: f64,
}

impl Gustafson {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `serial_fraction` is in `[0, 1]`.
    pub fn new(serial_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&serial_fraction),
            "serial fraction must be in [0, 1]"
        );
        Gustafson { serial_fraction }
    }
}

impl SpeedupModel for Gustafson {
    fn speedup(&self, p: usize) -> f64 {
        if p == 0 {
            return 0.0;
        }
        p as f64 - self.serial_fraction * (p as f64 - 1.0)
    }
}

/// Downey's parallel speedup model (Downey, "A model for speedup of
/// parallel programs", 1997): a program is characterized by its *average
/// parallelism* `A` and its *variance of parallelism* `sigma`. For the
/// low-variance case (`sigma ≤ 1`) the speedup is piecewise:
///
/// ```text
/// S(n) = A·n / (A + sigma/2·(n − 1))          for 1 ≤ n ≤ A
/// S(n) = A·n / (sigma·(A − 1/2) + n·(1 − sigma/2))   for A ≤ n ≤ 2A − 1
/// S(n) = A                                     for n ≥ 2A − 1
/// ```
///
/// With `sigma = 0` this is ideal speedup capped at `A`; growing `sigma`
/// rounds the knee. The related-work schedulers (Sevcik, Chiang et al.)
/// characterize applications exactly this way, which is why the model is
/// provided alongside the measured-curve machinery.
#[derive(Clone, Copy, Debug)]
pub struct Downey {
    /// Average parallelism (asymptotic speedup), > 1.
    pub avg_parallelism: f64,
    /// Variance of parallelism, in `[0, 1]` for this implementation.
    pub sigma: f64,
}

impl Downey {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `avg_parallelism > 1` and `sigma` is in `[0, 1]`.
    pub fn new(avg_parallelism: f64, sigma: f64) -> Self {
        assert!(avg_parallelism > 1.0, "average parallelism must exceed 1");
        assert!(
            (0.0..=1.0).contains(&sigma),
            "this implementation covers the low-variance case sigma in [0, 1]"
        );
        Downey {
            avg_parallelism,
            sigma,
        }
    }
}

impl SpeedupModel for Downey {
    fn speedup(&self, p: usize) -> f64 {
        if p == 0 {
            return 0.0;
        }
        let n = p as f64;
        let a = self.avg_parallelism;
        let s = self.sigma;
        if n <= a {
            (a * n) / (a + s / 2.0 * (n - 1.0))
        } else if n <= 2.0 * a - 1.0 {
            (a * n) / (s * (a - 0.5) + n * (1.0 - s / 2.0))
        } else {
            a
        }
    }
}

/// A speedup curve defined by linear interpolation between control points.
///
/// This is how the four paper applications are modelled: control points are
/// read off the shapes of Fig. 3. Outside the last control point the curve
/// is flat (allocating more processors neither helps nor hurts).
#[derive(Clone, Debug)]
pub struct PiecewiseLinear {
    /// `(processors, speedup)` control points, strictly increasing in `p`.
    points: Vec<(usize, f64)>,
}

impl PiecewiseLinear {
    /// Builds the curve from control points.
    ///
    /// The point `(1, 1.0)` is inserted automatically if missing.
    ///
    /// # Panics
    ///
    /// Panics if points are not strictly increasing in `p`, if any speedup
    /// is non-positive, or if no points are given.
    pub fn new(mut points: Vec<(usize, f64)>) -> Self {
        assert!(!points.is_empty(), "need at least one control point");
        if points.first().map(|&(p, _)| p) != Some(1) {
            points.insert(0, (1, 1.0));
        }
        for w in points.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "control points must be strictly increasing in p"
            );
        }
        assert!(
            points.iter().all(|&(_, s)| s > 0.0),
            "speedups must be positive"
        );
        PiecewiseLinear { points }
    }

    /// The control points, including the implicit `(1, 1.0)`.
    pub fn points(&self) -> &[(usize, f64)] {
        &self.points
    }
}

impl SpeedupModel for PiecewiseLinear {
    fn speedup(&self, p: usize) -> f64 {
        if p == 0 {
            return 0.0;
        }
        let pts = &self.points;
        if p <= pts[0].0 {
            // Below the first control point: interpolate from (0, 0).
            return pts[0].1 * p as f64 / pts[0].0 as f64;
        }
        for w in pts.windows(2) {
            let (p0, s0) = w[0];
            let (p1, s1) = w[1];
            if p <= p1 {
                let t = (p - p0) as f64 / (p1 - p0) as f64;
                return s0 + t * (s1 - s0);
            }
        }
        // Beyond the last point the curve is flat.
        pts.last().expect("non-empty").1
    }

    fn max_defined_procs(&self) -> Option<usize> {
        Some(self.points.last().expect("non-empty").0)
    }
}

/// A superlinear curve modelling cache effects: once the working set fits in
/// the aggregate cache of `p` processors, per-processor work speeds up by a
/// cache bonus, producing efficiency above 1 in a processor range — the
/// behaviour the paper describes for swim.
#[derive(Clone, Debug)]
pub struct Superlinear {
    /// Processor count at which the working set starts fitting in cache.
    pub fit_start: usize,
    /// Processor count by which the whole working set is cache resident.
    pub fit_end: usize,
    /// Speedup multiplier once fully cache resident (> 1).
    pub cache_bonus: f64,
    /// Underlying Amdahl serial fraction.
    pub serial_fraction: f64,
}

impl Superlinear {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `fit_start >= fit_end` or `cache_bonus <= 1`.
    pub fn new(fit_start: usize, fit_end: usize, cache_bonus: f64, serial_fraction: f64) -> Self {
        assert!(fit_start < fit_end, "cache fit range is empty");
        assert!(cache_bonus > 1.0, "cache bonus must exceed 1");
        Superlinear {
            fit_start,
            fit_end,
            cache_bonus,
            serial_fraction,
        }
    }

    fn bonus(&self, p: usize) -> f64 {
        if p <= self.fit_start {
            1.0
        } else if p >= self.fit_end {
            self.cache_bonus
        } else {
            let t = (p - self.fit_start) as f64 / (self.fit_end - self.fit_start) as f64;
            1.0 + t * (self.cache_bonus - 1.0)
        }
    }
}

impl SpeedupModel for Superlinear {
    fn speedup(&self, p: usize) -> f64 {
        if p == 0 {
            return 0.0;
        }
        if p == 1 {
            return 1.0;
        }
        let amdahl = Amdahl::new(self.serial_fraction).speedup(p);
        amdahl * self.bonus(p)
    }
}

/// A lazily-filled lookup table over a [`SpeedupModel`]'s integer points.
///
/// The engine evaluates a job's speedup curve on every rate recomputation —
/// thousands of times per job under time sharing, always at the same few
/// integer processor counts (allocations take values `1..=cpus`). Models
/// like [`Downey`] and [`Superlinear`] do real floating-point work per
/// call, so each job carries one of these and pays for every distinct
/// point once.
///
/// `NaN` marks an unfilled slot; no model may return `NaN` for a valid
/// processor count (all built-in models return finite values).
#[derive(Clone, Debug, Default)]
pub struct SpeedupMemo {
    cache: Vec<f64>,
    hits: u64,
    misses: u64,
}

impl SpeedupMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        SpeedupMemo::default()
    }

    /// `model.speedup(p)`, computed at most once per `p`.
    pub fn speedup(&mut self, model: &dyn SpeedupModel, p: usize) -> f64 {
        if p >= self.cache.len() {
            self.cache.resize(p + 1, f64::NAN);
        }
        if self.cache[p].is_nan() {
            self.cache[p] = model.speedup(p);
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        self.cache[p]
    }

    /// Lifetime `(hits, misses)` of the memo — the hit rate is the whole
    /// point of the cache, so it is exported as an engine metric.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Speedup at a fractional processor count, by linear interpolation
    /// between the memoized integer points (the same interpolation as
    /// `pdpa_engine::timeshare::fractional_speedup`). Fractional counts
    /// past the model's last defined point are clamped to it rather than
    /// interpolated into extrapolated territory.
    #[inline]
    pub fn fractional(&mut self, model: &dyn SpeedupModel, procs: f64) -> f64 {
        if procs <= 0.0 {
            return 0.0;
        }
        let procs = match model.max_defined_procs() {
            Some(max) => procs.min(max as f64),
            None => procs,
        };
        let lo = procs.floor() as usize;
        let hi = procs.ceil() as usize;
        if lo == hi {
            return self.speedup(model, lo);
        }
        let t = procs - lo as f64;
        self.speedup(model, lo) * (1.0 - t) + self.speedup(model, hi) * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_contract(m: &dyn SpeedupModel) {
        assert_eq!(m.speedup(0), 0.0);
        assert!((m.speedup(1) - 1.0).abs() < 1e-12, "S(1) must be 1");
        for p in 1..=64 {
            assert!(m.speedup(p) > 0.0, "S({p}) must be positive");
        }
    }

    #[test]
    fn amdahl_contract_and_limit() {
        let m = Amdahl::new(0.05);
        check_contract(&m);
        // The asymptote is 1/serial.
        assert!(m.speedup(10_000) < 20.0);
        assert!(m.speedup(10_000) > 19.0);
    }

    #[test]
    fn amdahl_zero_serial_is_linear() {
        let m = Amdahl::new(0.0);
        for p in 1..=32 {
            assert!((m.speedup(p) - p as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn downey_contract_and_shape() {
        let m = Downey::new(16.0, 0.5);
        check_contract(&m);
        // Saturates at the average parallelism.
        assert!((m.speedup(64) - 16.0).abs() < 1e-12);
        // Zero variance is ideal speedup capped at A.
        let ideal = Downey::new(8.0, 0.0);
        for p in 1..=8 {
            assert!((ideal.speedup(p) - p as f64).abs() < 1e-9);
        }
        assert!((ideal.speedup(30) - 8.0).abs() < 1e-12);
        // Higher variance bends the curve down everywhere below saturation.
        let soft = Downey::new(16.0, 1.0);
        let hard = Downey::new(16.0, 0.1);
        for p in 2..=16 {
            assert!(soft.speedup(p) < hard.speedup(p));
        }
    }

    #[test]
    fn downey_is_monotone() {
        for &sigma in &[0.0, 0.3, 0.7, 1.0] {
            let m = Downey::new(12.0, sigma);
            for p in 1..64 {
                assert!(
                    m.speedup(p + 1) >= m.speedup(p) - 1e-9,
                    "sigma {sigma}: S({}) < S({p})",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn gustafson_contract() {
        let m = Gustafson::new(0.1);
        check_contract(&m);
        assert!((m.speedup(10) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn piecewise_interpolates() {
        let m = PiecewiseLinear::new(vec![(4, 4.0), (8, 6.0)]);
        check_contract(&m);
        assert!((m.speedup(6) - 5.0).abs() < 1e-12);
        // Flat beyond the last point.
        assert_eq!(m.speedup(100), 6.0);
        // Below the first explicit point, through (1, 1).
        assert!((m.speedup(2) - 2.0).abs() < 1e-12, "{}", m.speedup(2));
    }

    #[test]
    fn piecewise_inserts_unit_point() {
        let m = PiecewiseLinear::new(vec![(4, 4.0)]);
        assert_eq!(m.points()[0], (1, 1.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn piecewise_rejects_unordered_points() {
        let _ = PiecewiseLinear::new(vec![(8, 4.0), (4, 2.0)]);
    }

    #[test]
    fn superlinear_exceeds_unit_efficiency_in_fit_range() {
        let m = Superlinear::new(8, 16, 1.6, 0.01);
        check_contract(&m);
        assert!(
            m.efficiency(16) > 1.0,
            "efficiency at 16 procs: {}",
            m.efficiency(16)
        );
        assert!(m.efficiency(2) <= 1.0);
    }

    #[test]
    fn efficiency_definition() {
        let m = Amdahl::new(0.0);
        assert_eq!(m.efficiency(0), 0.0);
        assert!((m.efficiency(8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_speedup_matches_time_ratio() {
        let m = Amdahl::new(0.1);
        let rs = m.relative_speedup(4, 8);
        assert!((rs - m.speedup(8) / m.speedup(4)).abs() < 1e-12);
        assert_eq!(m.relative_speedup(0, 8), 0.0);
    }

    #[test]
    fn max_procs_at_efficiency_finds_knee() {
        // Linear speedup: every allocation is 100 % efficient.
        let linear = Amdahl::new(0.0);
        assert_eq!(linear.max_procs_at_efficiency(0.9, 32), 32);
        // A saturating curve: the knee is somewhere in the middle.
        let m = PiecewiseLinear::new(vec![(10, 9.0), (20, 10.0)]);
        let knee = m.max_procs_at_efficiency(0.7, 32);
        assert!(m.efficiency(knee) >= 0.7);
        assert!(knee < 20, "knee {knee} should precede saturation");
        // Impossible target degrades to one processor.
        assert_eq!(m.max_procs_at_efficiency(2.0, 32), 1);
    }

    #[test]
    fn memo_matches_direct_evaluation() {
        let m = Downey::new(12.0, 0.5);
        let mut memo = SpeedupMemo::new();
        for p in 0..=64 {
            assert_eq!(memo.speedup(&m, p), m.speedup(p), "p={p}");
            // Second lookup hits the cache and must agree.
            assert_eq!(memo.speedup(&m, p), m.speedup(p), "p={p} (cached)");
        }
    }

    #[test]
    fn memo_counts_hits_and_misses() {
        let m = Amdahl::new(0.1);
        let mut memo = SpeedupMemo::new();
        memo.speedup(&m, 4);
        memo.speedup(&m, 4);
        memo.speedup(&m, 8);
        assert_eq!(memo.stats(), (1, 2));
    }

    #[test]
    fn memo_fractional_interpolates() {
        let m = Amdahl::new(0.0); // S(p) = p
        let mut memo = SpeedupMemo::new();
        assert_eq!(memo.fractional(&m, 0.0), 0.0);
        assert_eq!(memo.fractional(&m, 4.0), 4.0);
        assert!((memo.fractional(&m, 4.5) - 4.5).abs() < 1e-12);
        assert!((memo.fractional(&m, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_defined_procs_only_for_measured_curves() {
        assert_eq!(Amdahl::new(0.1).max_defined_procs(), None);
        assert_eq!(Downey::new(8.0, 0.5).max_defined_procs(), None);
        let m = PiecewiseLinear::new(vec![(4, 4.0), (8, 6.0)]);
        assert_eq!(m.max_defined_procs(), Some(8));
    }

    #[test]
    fn memo_fractional_clamps_at_the_curve_end() {
        // Regression: fractional counts just past the last control point
        // used to interpolate toward extrapolated values instead of holding
        // the curve's final measured speedup.
        let m = PiecewiseLinear::new(vec![(4, 4.0), (8, 6.0)]);
        let mut memo = SpeedupMemo::new();
        assert_eq!(memo.fractional(&m, 8.0), 6.0);
        assert_eq!(memo.fractional(&m, 8.3), 6.0, "clamped to S(8)");
        assert_eq!(memo.fractional(&m, 100.0), 6.0);
        // Inside the defined range the interpolation is untouched.
        assert!((memo.fractional(&m, 6.0) - 5.0).abs() < 1e-12);
    }
}
