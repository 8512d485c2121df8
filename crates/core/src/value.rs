//! Opinion values exchanged by the agreement algorithms.
//!
//! The consensus algorithms of the paper operate on real-number opinions (Section VII
//! notes that real inputs are needed later for ordering arbitrary events). Rust's
//! floating-point types are neither `Eq` nor `Hash`, so the library provides [`Real`],
//! a fixed-point decimal with total ordering, alongside the [`Opinion`] trait bound
//! that every algorithm is generic over — binary consensus simply instantiates the
//! algorithms with `bool` or `u64`.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Types usable as consensus opinions.
///
/// The algorithms need equality (to count votes for a value), a total order (so the
/// coordinator selection and tie-breaks are deterministic), hashing (vote tallies),
/// `Debug` for diagnostics, and `Send + Sync` because the engines step nodes (and
/// read their payloads) on worker threads. Any type meeting the bounds works; the
/// blanket implementation makes the trait purely a shorthand.
pub trait Opinion: Clone + Eq + Ord + std::hash::Hash + fmt::Debug + Send + Sync {}

impl<T: Clone + Eq + Ord + std::hash::Hash + fmt::Debug + Send + Sync> Opinion for T {}

/// Number of decimal digits kept by [`Real`].
pub const REAL_DECIMALS: u32 = 6;
const SCALE: i64 = 10i64.pow(REAL_DECIMALS);

/// A fixed-point real number with six decimal digits of precision.
///
/// `Real` is `Eq`, `Ord` and `Hash`, so it can be used directly as a consensus
/// opinion, while converting losslessly enough from the `f64` values used by the
/// approximate-agreement workloads.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Real(i64);

impl Real {
    /// Zero.
    pub const ZERO: Real = Real(0);

    /// Creates a `Real` from a raw fixed-point representation (units of `10^-6`).
    pub const fn from_raw(raw: i64) -> Self {
        Real(raw)
    }

    /// The raw fixed-point representation (units of `10^-6`).
    pub const fn raw(self) -> i64 {
        self.0
    }

    /// Creates a `Real` from an integer.
    pub const fn from_int(value: i64) -> Self {
        Real(value * SCALE)
    }

    /// Creates a `Real` from an `f64`, rounding to the nearest representable value.
    pub fn from_f64(value: f64) -> Self {
        Real((value * SCALE as f64).round() as i64)
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Midpoint of two values, rounding towards negative infinity on ties.
    pub fn midpoint(self, other: Real) -> Real {
        Real((self.0 + other.0).div_euclid(2))
    }

    /// Absolute difference.
    pub fn abs_diff(self, other: Real) -> Real {
        Real((self.0 - other.0).abs())
    }
}

impl fmt::Debug for Real {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl fmt::Display for Real {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl From<i64> for Real {
    fn from(value: i64) -> Self {
        Real::from_int(value)
    }
}

impl From<f64> for Real {
    fn from(value: f64) -> Self {
        Real::from_f64(value)
    }
}

impl std::ops::Add for Real {
    type Output = Real;
    fn add(self, rhs: Real) -> Real {
        Real(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Real {
    type Output = Real;
    fn sub(self, rhs: Real) -> Real {
        Real(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Real::from_int(5).to_f64(), 5.0);
        assert_eq!(Real::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(Real::from(3i64), Real::from_int(3));
        assert_eq!(Real::from(0.25f64), Real::from_f64(0.25));
        assert_eq!(Real::from_raw(1_000_000), Real::from_int(1));
        assert_eq!(Real::from_int(7).raw(), 7_000_000);
    }

    #[test]
    fn ordering_and_equality_are_total() {
        let a = Real::from_f64(1.1);
        let b = Real::from_f64(1.2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(
            Real::from_f64(0.1) + Real::from_f64(0.2),
            Real::from_f64(0.3)
        );
    }

    #[test]
    fn midpoint_halves_the_interval() {
        let lo = Real::from_int(2);
        let hi = Real::from_int(4);
        assert_eq!(lo.midpoint(hi), Real::from_int(3));
        assert_eq!(hi.midpoint(lo), Real::from_int(3));
        // Negative values round towards negative infinity, keeping the result inside
        // the closed interval.
        let a = Real::from_raw(-3);
        let b = Real::from_raw(0);
        let mid = a.midpoint(b);
        assert!(mid >= a && mid <= b);
    }

    #[test]
    fn arithmetic_behaves_like_fixed_point() {
        assert_eq!(Real::from_int(3) - Real::from_int(5), Real::from_int(-2));
        assert_eq!(
            Real::from_int(3).abs_diff(Real::from_int(5)),
            Real::from_int(2)
        );
        assert_eq!(Real::ZERO, Real::from_int(0));
    }

    #[test]
    fn display_matches_f64() {
        assert_eq!(format!("{}", Real::from_f64(1.5)), "1.5");
        assert_eq!(format!("{:?}", Real::from_int(2)), "2");
    }
}
