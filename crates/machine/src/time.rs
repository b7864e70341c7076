//! Simulated wall-clock time.
//!
//! Time exists only inside the machine simulator: the tracing front end
//! works in virtual instruction counts, which the platform's MIPS rate
//! converts to seconds here.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or span of) simulated time, in seconds.
///
/// Wraps `f64` with a total order (`total_cmp`); construction asserts
/// finiteness so the event queue can never be poisoned by NaNs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Time(f64);

impl Time {
    pub const ZERO: Time = Time(0.0);

    /// Construct from seconds. Panics on non-finite input.
    #[inline]
    pub fn secs(s: f64) -> Time {
        assert!(s.is_finite(), "non-finite Time: {s}");
        Time(s)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn micros(us: f64) -> Time {
        Time::secs(us * 1e-6)
    }

    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time::secs(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time::secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: f64) -> Time {
        Time::secs(self.0 * rhs)
    }
}

impl Div<Time> for Time {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Time) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Time::secs(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.6}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = Time::secs(1.0);
        let b = Time::secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn arithmetic() {
        let t = Time::secs(1.5) + Time::micros(500_000.0);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
        assert!((Time::secs(3.0) - Time::secs(1.0)).as_secs() - 2.0 < 1e-12);
        assert!(((Time::secs(4.0) / Time::secs(2.0)) - 2.0).abs() < 1e-12);
        let s: Time = [Time::secs(1.0), Time::secs(2.0)].into_iter().sum();
        assert!((s.as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        let _ = Time::secs(f64::NAN);
    }

    #[test]
    fn display_scales() {
        assert!(Time::secs(2.0).to_string().ends_with('s'));
        assert!(Time::secs(2e-3).to_string().ends_with("ms"));
        assert!(Time::micros(5.0).to_string().ends_with("us"));
    }
}
