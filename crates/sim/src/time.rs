//! Simulated time.
//!
//! Time in the simulator is a non-negative number of seconds stored as an
//! `f64`. The paper reports response and execution times in seconds, and the
//! workloads span a few hundred to a few thousand simulated seconds, so an
//! `f64` keeps sub-microsecond resolution over the whole range.
//!
//! [`SimTime`] is an *instant* and [`SimDuration`] is a *span*; the types are
//! kept distinct so that instants cannot be accidentally added together.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in seconds since the simulation start.
///
/// `SimTime` is totally ordered; constructing one from a NaN value panics so
/// that ordering is always well defined.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds.
///
/// Durations may be zero but never negative or NaN.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant at `seconds` past the simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is NaN or negative.
    #[inline]
    pub fn from_secs(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        SimTime(seconds)
    }

    /// Seconds since the simulation start.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "time went backwards: {} -> {}",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The smallest representable instant strictly after `self`.
    ///
    /// Event scheduling uses this to guarantee forward progress at large
    /// clock values: once the clock exceeds ~2²¹ seconds, a sub-ULP
    /// remainder makes `t + dt` round back onto `t`, and an event
    /// scheduled there would re-run with zero progress forever.
    pub fn next_up(self) -> SimTime {
        // Finite and non-negative by construction, so incrementing the
        // bit pattern is exactly the next float toward +∞.
        SimTime(f64::from_bits(self.0.to_bits() + 1))
    }

    /// The instant's bit pattern. Finite non-negative `f64`s sort like
    /// their bits, except `-0.0`, whose only set bit is the sign.
    #[inline]
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// The instant whose bit pattern is `bits`, as given by
    /// [`to_bits`](Self::to_bits).
    #[inline]
    pub(crate) fn from_bits(bits: u64) -> SimTime {
        SimTime(f64::from_bits(bits))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a span of `seconds`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is NaN, infinite, or negative.
    #[inline]
    pub fn from_secs(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimDuration must be finite and non-negative, got {seconds}"
        );
        SimDuration(seconds)
    }

    /// Creates a span of `millis` milliseconds.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1_000.0)
    }

    /// Length of the span in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Length of the span in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1_000.0
    }

    /// True if the span has zero length.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are asserted finite at construction, so this never fails.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}

impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN")
    }
}

impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;

    /// Ratio between two spans (dimensionless).
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_the_origin() {
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(2.5);
        assert_eq!(t.as_secs(), 12.5);
    }

    #[test]
    fn since_measures_span() {
        let a = SimTime::from_secs(3.0);
        let b = SimTime::from_secs(7.5);
        assert_eq!(b.since(a).as_secs(), 4.5);
        assert_eq!((b - a).as_secs(), 4.5);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_on_negative_span() {
        let a = SimTime::from_secs(3.0);
        let b = SimTime::from_secs(7.5);
        let _ = a.since(b);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_is_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_is_rejected() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(2.0),
            SimTime::from_secs(0.5),
            SimTime::from_secs(1.0),
        ];
        v.sort();
        let secs: Vec<f64> = v.into_iter().map(SimTime::as_secs).collect();
        assert_eq!(secs, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(1500.0);
        assert_eq!(d.as_secs(), 1.5);
        assert_eq!(d.as_millis(), 1500.0);
        assert_eq!((d * 2.0).as_secs(), 3.0);
        assert_eq!((d / 3.0).as_secs(), 0.5);
        assert_eq!(d / SimDuration::from_secs(0.5), 3.0);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn next_up_strictly_advances() {
        // At ~2²¹ seconds the ULP is ~4.7e-10 s: adding a smaller span
        // rounds back onto the same instant, but next_up never does.
        let t = SimTime::from_secs(2_097_157.0);
        assert_eq!(t + SimDuration::from_secs(1e-10), t);
        assert!(t.next_up() > t);
        assert!(SimTime::ZERO.next_up() > SimTime::ZERO);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
