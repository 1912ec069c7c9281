//! Simulation time: a nanosecond-resolution virtual clock.
//!
//! All GPUnion substrates (network, GPUs, containers, scheduler) share a single
//! virtual clock driven by the event queue in [`crate::sim`]. Time is stored as
//! nanoseconds in a `u64`, which covers ~584 years of simulated time — far more
//! than the six-week campus deployment the paper evaluates.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (lossy for very large times).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Returns [`SimDuration::ZERO`] if
    /// `earlier` is in the future (saturating, never panics).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of a duration.
    pub fn checked_sub(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_sub(d.0).map(SimTime)
    }

    /// Saturating addition (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

/// The earlier of two optional instants, `None` meaning "never": what
/// every "when is this component next due" reader combines its parts
/// with. Two compares, which `[a, b].into_iter().flatten().min()` does
/// not compile to on the pump's path.
#[inline]
pub fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000_000)
    }

    /// Construct from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400 * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative and non-finite inputs clamp
    /// to zero; values beyond the representable range clamp to [`SimDuration::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
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
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div for SimDuration {
    /// Ratio of two durations.
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.as_secs_f64() / rhs.as_secs_f64()
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.0 / 1_000_000;
        let ms = total_ms % 1_000;
        let s = (total_ms / 1_000) % 60;
        let m = (total_ms / 60_000) % 60;
        let h = total_ms / 3_600_000;
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1e6)
        } else if self.0 < 60 * 1_000_000_000 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else if self.0 < 3_600 * 1_000_000_000 {
            write!(f, "{:.1}min", self.as_secs_f64() / 60.0)
        } else {
            write!(f, "{:.2}h", self.as_secs_f64() / 3_600.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!((t + d).as_secs_f64(), 13.0);
        assert_eq!((t - d).as_secs_f64(), 7.0);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), SimDuration::ZERO, "saturates, not panics");
    }

    #[test]
    fn duration_from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
        assert_eq!(SimDuration::from_secs_f64(1e300), SimDuration::MAX);
    }

    #[test]
    fn earliest_treats_none_as_never() {
        let (a, b) = (Some(SimTime::from_secs(1)), Some(SimTime::from_secs(2)));
        assert_eq!(earliest(a, b), a);
        assert_eq!(earliest(b, a), a);
        assert_eq!(earliest(None, b), b);
        assert_eq!(earliest(a, None), a);
        assert_eq!(earliest(None, None), None);
    }

    #[test]
    fn duration_ratio() {
        let a = SimDuration::from_secs(30);
        let b = SimDuration::from_secs(60);
        assert!((a / b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3_661).to_string(), "01:01:01.000");
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.0us");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250.0ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.00s");
        assert_eq!(SimDuration::from_mins(90).to_string(), "1.50h");
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert_eq!(SimTime::ZERO.checked_sub(SimDuration::from_nanos(1)), None);
    }
}
