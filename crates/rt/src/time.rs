//! Virtual time primitives.
//!
//! The runtime is a discrete-event simulation: all timestamps are virtual
//! nanoseconds ([`VTime`]) and all durations are virtual nanosecond spans
//! ([`VDur`]). Virtual time only advances at well-defined points (callback
//! execution cost, blocking in the poll phase, explicit [`busy`] work), which
//! is what makes every run bit-for-bit reproducible from its seeds.
//!
//! [`busy`]: crate::Ctx::busy

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in virtual time, in nanoseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VDur(pub u64);

impl VTime {
    /// The zero point: the instant the event loop starts running.
    pub const ZERO: VTime = VTime(0);

    /// Returns the number of whole virtual nanoseconds since the start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the number of whole virtual milliseconds since the start.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// Saturates to zero if `earlier` is later than `self`.
    pub fn since(self, earlier: VTime) -> VDur {
        VDur(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of the two instants.
    pub fn max(self, other: VTime) -> VTime {
        VTime(self.0.max(other.0))
    }

    /// Returns the earlier of the two instants.
    pub fn min(self, other: VTime) -> VTime {
        VTime(self.0.min(other.0))
    }
}

impl VDur {
    /// The zero-length span.
    pub const ZERO: VDur = VDur(0);

    /// Creates a span from virtual nanoseconds.
    pub const fn nanos(n: u64) -> VDur {
        VDur(n)
    }

    /// Creates a span from virtual microseconds.
    pub const fn micros(us: u64) -> VDur {
        VDur(us * 1_000)
    }

    /// Creates a span from virtual milliseconds.
    pub const fn millis(ms: u64) -> VDur {
        VDur(ms * 1_000_000)
    }

    /// Creates a span from virtual seconds.
    pub const fn secs(s: u64) -> VDur {
        VDur(s * 1_000_000_000)
    }

    /// Returns the number of whole virtual nanoseconds in the span.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the number of whole virtual milliseconds in the span.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the span scaled by a floating-point factor, saturating at zero.
    pub fn mul_f64(self, factor: f64) -> VDur {
        let scaled = (self.0 as f64 * factor).max(0.0);
        VDur(scaled as u64)
    }

    /// Returns whether this is the zero-length span.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<VDur> for VTime {
    type Output = VTime;
    fn add(self, rhs: VDur) -> VTime {
        VTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<VDur> for VTime {
    fn add_assign(&mut self, rhs: VDur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<VTime> for VTime {
    type Output = VDur;
    fn sub(self, rhs: VTime) -> VDur {
        VDur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for VDur {
    type Output = VDur;
    fn add(self, rhs: VDur) -> VDur {
        VDur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for VDur {
    fn add_assign(&mut self, rhs: VDur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for VDur {
    type Output = VDur;
    fn sub(self, rhs: VDur) -> VDur {
        VDur(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for VDur {
    type Output = VDur;
    fn mul(self, rhs: u64) -> VDur {
        VDur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for VDur {
    type Output = VDur;
    fn div(self, rhs: u64) -> VDur {
        VDur(self.0 / rhs)
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0 / 1_000)
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e6)
    }
}

impl fmt::Debug for VDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0 / 1_000)
    }
}

impl fmt::Display for VDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtime_add_dur() {
        let t = VTime::ZERO + VDur::millis(3);
        assert_eq!(t.as_nanos(), 3_000_000);
        assert_eq!(t.as_millis(), 3);
    }

    #[test]
    fn vtime_sub_saturates() {
        let a = VTime(5);
        let b = VTime(9);
        assert_eq!(a - b, VDur::ZERO);
        assert_eq!(b - a, VDur(4));
    }

    #[test]
    fn since_matches_sub() {
        let a = VTime(1_000);
        let b = VTime(4_000);
        assert_eq!(b.since(a), b - a);
        assert_eq!(a.since(b), VDur::ZERO);
    }

    #[test]
    fn dur_constructors_agree() {
        assert_eq!(VDur::secs(1), VDur::millis(1_000));
        assert_eq!(VDur::millis(1), VDur::micros(1_000));
        assert_eq!(VDur::micros(1), VDur::nanos(1_000));
    }

    #[test]
    fn dur_mul_f64_scales() {
        assert_eq!(VDur::millis(10).mul_f64(1.5), VDur::millis(15));
        assert_eq!(VDur::millis(10).mul_f64(0.0), VDur::ZERO);
        // Negative factors saturate at zero rather than wrapping.
        assert_eq!(VDur::millis(10).mul_f64(-2.0), VDur::ZERO);
    }

    #[test]
    fn dur_arith() {
        assert_eq!(VDur(3) + VDur(4), VDur(7));
        assert_eq!(VDur(4) - VDur(3), VDur(1));
        assert_eq!(VDur(3) - VDur(4), VDur::ZERO);
        assert_eq!(VDur(3) * 4, VDur(12));
        assert_eq!(VDur(12) / 4, VDur(3));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(VTime(1) < VTime(2));
        assert!(VDur::millis(1) < VDur::millis(2));
        assert_eq!(VTime(7).max(VTime(3)), VTime(7));
        assert_eq!(VTime(7).min(VTime(3)), VTime(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", VTime(1_500_000)), "1.500ms");
        assert_eq!(format!("{}", VDur::micros(250)), "0.250ms");
        assert_eq!(format!("{:?}", VTime(2_000)), "t+2us");
        assert_eq!(format!("{:?}", VDur(3_000)), "3us");
    }
}
