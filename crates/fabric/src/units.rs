//! Latency units.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A latency (or duration) in microseconds.
///
/// The paper quotes all physical parameters in µs (Table 1) and all benchmark
/// latencies in seconds; this newtype keeps the unit visible in signatures
/// (C-NEWTYPE) while staying a plain `f64` underneath.
///
/// # Examples
///
/// ```
/// use leqa_fabric::Micros;
///
/// let gate = Micros::new(4930.0);
/// let routing = Micros::new(200.0);
/// assert_eq!((gate + routing).as_f64(), 5130.0);
/// assert!((gate.as_secs() - 0.00493).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Micros(f64);

impl Micros {
    /// Zero duration.
    pub const ZERO: Micros = Micros(0.0);

    /// Creates a duration from a microsecond count.
    #[inline]
    pub const fn new(us: f64) -> Self {
        Micros(us)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        Micros(secs * 1e6)
    }

    /// The raw microsecond count.
    #[inline]
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// This duration expressed in seconds (the unit of Table 2).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 / 1e6
    }

    /// Whether the value is a finite, non-negative duration.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Micros) -> Micros {
        Micros(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Micros) -> Micros {
        Micros(self.0.min(other.0))
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

impl Add for Micros {
    type Output = Micros;
    #[inline]
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    #[inline]
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl SubAssign for Micros {
    #[inline]
    fn sub_assign(&mut self, rhs: Micros) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Micros {
    type Output = Micros;
    #[inline]
    fn mul(self, rhs: f64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl Mul<Micros> for f64 {
    type Output = Micros;
    #[inline]
    fn mul(self, rhs: Micros) -> Micros {
        Micros(self * rhs.0)
    }
}

impl Div<f64> for Micros {
    type Output = Micros;
    #[inline]
    fn div(self, rhs: f64) -> Micros {
        Micros(self.0 / rhs)
    }
}

impl Div<Micros> for Micros {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Micros) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        Micros(iter.map(|m| m.0).sum())
    }
}

impl From<f64> for Micros {
    #[inline]
    fn from(us: f64) -> Self {
        Micros(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Micros::new(100.0);
        let b = Micros::new(50.0);
        assert_eq!((a + b).as_f64(), 150.0);
        assert_eq!((a - b).as_f64(), 50.0);
        assert_eq!((a * 2.0).as_f64(), 200.0);
        assert_eq!((2.0 * a).as_f64(), 200.0);
        assert_eq!((a / 2.0).as_f64(), 50.0);
        assert_eq!(a / b, 2.0);
    }

    #[test]
    fn seconds_conversion() {
        let d = Micros::from_secs(1.617);
        assert!((d.as_f64() - 1.617e6).abs() < 1e-6);
        assert!((d.as_secs() - 1.617).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_extrema() {
        let a = Micros::new(3.0);
        let b = Micros::new(7.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Micros = (1..=4).map(|i| Micros::new(i as f64)).sum();
        assert_eq!(total.as_f64(), 10.0);
    }

    #[test]
    fn validity() {
        assert!(Micros::new(0.0).is_valid());
        assert!(!Micros::new(-1.0).is_valid());
        assert!(!Micros::new(f64::NAN).is_valid());
        assert!(!Micros::new(f64::INFINITY).is_valid());
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Micros::new(12.5).to_string(), "12.5µs");
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut m = Micros::new(10.0);
        m += Micros::new(5.0);
        assert_eq!(m.as_f64(), 15.0);
        m -= Micros::new(3.0);
        assert_eq!(m.as_f64(), 12.0);
    }
}
