//! Statistics collectors used throughout the simulation.
//!
//! Two collectors cover the paper's reporting needs:
//!
//! - [`TimeWeighted`] — utilization-style metrics where the *duration* a value
//!   was held matters (GPU utilization averaged over six weeks is the
//!   integral of instantaneous utilization over time, not a sample mean).
//! - [`Online`] — running mean / sum / extrema for sampled quantities
//!   (migration downtime, scheduling latency).

use crate::time::SimTime;

/// Time-weighted average of a piecewise-constant signal.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the collector
/// integrates value × duration between changes.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    total_time: f64,
    min: f64,
    max: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// New collector; the signal is undefined until the first `set`.
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            weighted_sum: 0.0,
            total_time: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            started: false,
        }
    }

    /// Record that the signal takes value `v` from time `now` onward.
    pub fn set(&mut self, now: SimTime, v: f64) {
        if self.started {
            let dt = now.since(self.last_time).as_secs_f64();
            self.weighted_sum += self.last_value * dt;
            self.total_time += dt;
        }
        self.started = true;
        self.last_time = now;
        self.last_value = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Close the integration window at `now` without changing the value.
    pub fn finish(&mut self, now: SimTime) {
        let v = self.last_value;
        self.set(now, v);
    }

    /// Time-weighted mean over the observed window, or `None` before any
    /// interval has elapsed.
    pub fn mean(&self) -> Option<f64> {
        if self.total_time > 0.0 {
            Some(self.weighted_sum / self.total_time)
        } else {
            None
        }
    }

    /// Smallest value ever set.
    pub fn min(&self) -> Option<f64> {
        self.started.then_some(self.min)
    }

    /// Largest value ever set.
    pub fn max(&self) -> Option<f64> {
        self.started.then_some(self.max)
    }

    /// The most recently set value.
    pub fn current(&self) -> Option<f64> {
        self.started.then_some(self.last_value)
    }
}

/// Online (Welford-style incremental) mean / sum / extrema for sampled
/// values.
#[derive(Debug, Clone)]
pub struct Online {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for Online {
    fn default() -> Self {
        Self::new()
    }
}

impl Online {
    /// New empty collector.
    pub fn new() -> Self {
        Online {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.mean += (x - self.mean) / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (None when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_integrates_correctly() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_secs(0), 0.0);
        tw.set(SimTime::from_secs(10), 1.0); // 0.0 held for 10s
        tw.set(SimTime::from_secs(30), 0.5); // 1.0 held for 20s
        tw.finish(SimTime::from_secs(40)); // 0.5 held for 10s

        // mean = (0*10 + 1*20 + 0.5*10) / 40 = 25/40
        assert!((tw.mean().unwrap() - 0.625).abs() < 1e-12);
        assert_eq!(tw.min(), Some(0.0));
        assert_eq!(tw.max(), Some(1.0));
    }

    #[test]
    fn time_weighted_empty() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.mean(), None);
        assert_eq!(tw.current(), None);
    }

    #[test]
    fn online_welford_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut o = Online::new();
        for &x in &xs {
            o.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((o.mean().unwrap() - mean).abs() < 1e-12);
        assert_eq!(o.sum(), xs.iter().sum::<f64>());
        assert_eq!(o.count(), xs.len() as u64);
        assert_eq!(o.min(), Some(1.0));
        assert_eq!(o.max(), Some(9.0));
    }

    /// A default-built collector is an empty one: its extrema start at
    /// ±∞, so the first sample sets both (a derived `Default` started
    /// them at 0.0 and reported `min() == Some(0.0)` after positive
    /// samples).
    #[test]
    fn online_default_equals_new() {
        let mut o = Online::default();
        assert_eq!(
            (o.count(), o.mean(), o.min(), o.max()),
            (0, None, None, None)
        );
        o.record(5.0);
        o.record(7.0);
        assert_eq!(o.min(), Some(5.0));
        assert_eq!(o.max(), Some(7.0));
        let mut neg = Online::default();
        neg.record(-2.0);
        assert_eq!(neg.max(), Some(-2.0));
    }
}
