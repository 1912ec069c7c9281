//! Link bandwidth as a strongly-typed quantity.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// Link capacity in bits per second.
///
/// Campus deployments in the paper use 1 Gb/s access links and a 10 Gb/s
/// backbone; constructors are provided for the common units.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero capacity (a down link).
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// From raw bits per second.
    pub fn bps(bits_per_sec: f64) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec >= 0.0,
            "bandwidth must be finite and non-negative"
        );
        Bandwidth(bits_per_sec)
    }

    /// From megabits per second.
    pub fn mbps(v: f64) -> Self {
        Bandwidth::bps(v * 1e6)
    }

    /// From gigabits per second.
    pub fn gbps(v: f64) -> Self {
        Bandwidth::bps(v * 1e9)
    }

    /// Raw bits per second.
    #[cfg(test)]
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Bytes per second (bits / 8).
    pub fn bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// Seconds to transmit `bytes` at this rate. Infinite for zero capacity.
    pub fn transfer_secs(self, bytes: u64) -> f64 {
        if self.0 <= 0.0 {
            f64::INFINITY
        } else {
            bytes as f64 / self.bytes_per_sec()
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth((self.0 * rhs).max(0.0))
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Div for Bandwidth {
    type Output = f64;
    fn div(self, rhs: Bandwidth) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} Gb/s", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.1} Mb/s", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.1} kb/s", self.0 / 1e3)
        } else {
            write!(f, "{:.0} b/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(Bandwidth::gbps(1.0).as_bps(), 1e9);
        assert_eq!(Bandwidth::mbps(100.0).as_bps(), 1e8);
        assert_eq!(Bandwidth::gbps(1.0).bytes_per_sec(), 1.25e8);
    }

    #[test]
    fn transfer_time() {
        // 1 GiB over 1 Gb/s ≈ 8.59 s
        let t = Bandwidth::gbps(1.0).transfer_secs(1 << 30);
        assert!((t - 8.589934592).abs() < 1e-6, "{t}");
        assert!(Bandwidth::ZERO.transfer_secs(1).is_infinite());
    }

    #[test]
    fn subtraction_saturates() {
        let a = Bandwidth::mbps(10.0);
        let b = Bandwidth::mbps(30.0);
        assert_eq!(a - b, Bandwidth::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(Bandwidth::gbps(10.0).to_string(), "10.00 Gb/s");
        assert_eq!(Bandwidth::mbps(2.5).to_string(), "2.5 Mb/s");
        assert_eq!(Bandwidth::bps(500.0).to_string(), "500 b/s");
    }

    #[test]
    #[should_panic]
    fn negative_bandwidth_rejected() {
        Bandwidth::bps(-1.0);
    }
}
