//! Provider churn models: when owners reclaim, pause, or lose their nodes.
//!
//! §4's interruption experiments distinguish three provider behaviours —
//! *scheduled departure* (graceful shutdown with a checkpoint window),
//! *emergency departure* (immediate disconnect), and *temporary
//! unavailability* — at "0.5 to 3.2 events per day per node". This module
//! generates those event streams deterministically.

use gpunion_des::{exponential, log_normal, RngPool, SimDuration, SimTime};
use rand::Rng;

/// The three interruption classes from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptionKind {
    /// Provider initiates graceful shutdown; workloads get a grace window.
    ScheduledDeparture,
    /// Immediate disconnection — no warning, no checkpoint window.
    EmergencyDeparture,
    /// Short outage; the provider returns (reboot, urgent local use).
    TemporaryUnavailability,
}

impl InterruptionKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            InterruptionKind::ScheduledDeparture => "scheduled",
            InterruptionKind::EmergencyDeparture => "emergency",
            InterruptionKind::TemporaryUnavailability => "temporary",
        }
    }
}

/// One provider interruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptionEvent {
    /// When it happens.
    pub at: SimTime,
    /// Which volunteer node (index into the experiment's node list).
    pub node_index: usize,
    /// Class.
    pub kind: InterruptionKind,
    /// When the provider returns.
    pub returns_at: SimTime,
}

/// Churn generator parameters.
#[derive(Debug, Clone)]
pub struct ChurnModel {
    /// Interruption events per day per node (the paper sweeps 0.5–3.2).
    pub events_per_day: f64,
    /// Mix of (scheduled, emergency, temporary); need not sum to 1.
    pub mix: (f64, f64, f64),
    /// Median outage for temporary unavailability, minutes.
    pub temp_outage_median_mins: f64,
    /// Median absence after a departure (scheduled or emergency), hours.
    pub departure_absence_median_hours: f64,
}

impl Default for ChurnModel {
    fn default() -> Self {
        ChurnModel {
            events_per_day: 1.5,
            // Campus reality: most exits are announced; hard failures rare.
            mix: (0.5, 0.2, 0.3),
            temp_outage_median_mins: 25.0,
            departure_absence_median_hours: 9.0,
        }
    }
}

impl ChurnModel {
    /// Generate the interruption stream for `n_nodes` volunteers over
    /// `horizon`. Events are sorted by time. Overlapping events on one node
    /// are thinned: a new interruption cannot start before the previous
    /// return (a node that's gone can't leave again).
    pub fn generate(
        &self,
        n_nodes: usize,
        horizon: SimDuration,
        pool: &RngPool,
    ) -> Vec<InterruptionEvent> {
        let mut events = Vec::new();
        let horizon_days = horizon.as_secs_f64() / 86_400.0;
        for node in 0..n_nodes {
            let mut rng = pool.stream_n("churn-node", node as u64);
            let mut t_days = 0.0f64;
            let mut busy_until = SimTime::ZERO;
            loop {
                t_days += exponential(&mut rng, self.events_per_day);
                if t_days >= horizon_days {
                    break;
                }
                let at = SimTime::from_nanos((t_days * 86_400.0 * 1e9) as u64);
                if at < busy_until {
                    continue; // still away from the previous event
                }
                let kind = self.pick_kind(&mut rng);
                let away = match kind {
                    InterruptionKind::TemporaryUnavailability => {
                        let mins = log_normal(&mut rng, self.temp_outage_median_mins, 0.6)
                            .clamp(3.0, 240.0);
                        SimDuration::from_secs_f64(mins * 60.0)
                    }
                    _ => {
                        let hours = log_normal(&mut rng, self.departure_absence_median_hours, 0.5)
                            .clamp(1.0, 72.0);
                        SimDuration::from_secs_f64(hours * 3600.0)
                    }
                };
                let returns_at = at + away;
                busy_until = returns_at;
                events.push(InterruptionEvent {
                    at,
                    node_index: node,
                    kind,
                    returns_at,
                });
            }
        }
        events.sort_by_key(|e| e.at);
        events
    }

    fn pick_kind(&self, rng: &mut impl Rng) -> InterruptionKind {
        let (s, e, t) = self.mix;
        let total = s + e + t;
        let x = rng.gen_range(0.0..total);
        if x < s {
            InterruptionKind::ScheduledDeparture
        } else if x < s + e {
            InterruptionKind::EmergencyDeparture
        } else {
            InterruptionKind::TemporaryUnavailability
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_deterministic() {
        let m = ChurnModel::default();
        let a = m.generate(2, SimDuration::from_days(7), &RngPool::new(9));
        let b = m.generate(2, SimDuration::from_days(7), &RngPool::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn rate_close_to_configured() {
        let m = ChurnModel {
            events_per_day: 2.0,
            ..Default::default()
        };
        let events = m.generate(10, SimDuration::from_days(30), &RngPool::new(1));
        // Thinning (no overlap) removes some events; expect within [0.4, 1.0]
        // of the nominal rate.
        let nominal = 2.0 * 10.0 * 30.0;
        let ratio = events.len() as f64 / nominal;
        assert!(ratio > 0.4 && ratio < 1.05, "ratio {ratio}");
    }

    #[test]
    fn no_overlapping_events_per_node() {
        let m = ChurnModel {
            events_per_day: 3.2,
            ..Default::default()
        };
        let events = m.generate(2, SimDuration::from_days(7), &RngPool::new(4));
        for node in 0..2 {
            let mine: Vec<_> = events.iter().filter(|e| e.node_index == node).collect();
            for w in mine.windows(2) {
                assert!(
                    w[1].at >= w[0].returns_at,
                    "node {node}: event at {} before return {}",
                    w[1].at,
                    w[0].returns_at
                );
            }
        }
    }

    #[test]
    fn all_kinds_present_and_mixed() {
        let m = ChurnModel {
            events_per_day: 3.0,
            ..Default::default()
        };
        let events = m.generate(8, SimDuration::from_days(30), &RngPool::new(2));
        let count = |k: InterruptionKind| events.iter().filter(|e| e.kind == k).count();
        let s = count(InterruptionKind::ScheduledDeparture);
        let e = count(InterruptionKind::EmergencyDeparture);
        let t = count(InterruptionKind::TemporaryUnavailability);
        assert!(s > 0 && e > 0 && t > 0);
        assert!(s > e, "scheduled more common than emergency per the mix");
    }

    #[test]
    fn temporary_outages_shorter_than_departures() {
        let m = ChurnModel::default();
        let events = m.generate(4, SimDuration::from_days(30), &RngPool::new(3));
        let mean_away = |k: InterruptionKind| {
            let v: Vec<f64> = events
                .iter()
                .filter(|e| e.kind == k)
                .map(|e| e.returns_at.since(e.at).as_secs_f64())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let temp = mean_away(InterruptionKind::TemporaryUnavailability);
        let sched = mean_away(InterruptionKind::ScheduledDeparture);
        assert!(
            temp < sched / 4.0,
            "temporary {temp}s vs scheduled {sched}s"
        );
    }

    #[test]
    fn zero_nodes_empty() {
        let m = ChurnModel::default();
        assert!(m
            .generate(0, SimDuration::from_days(7), &RngPool::new(1))
            .is_empty());
    }
}
