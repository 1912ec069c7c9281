//! Database contention model — the validation oracle.
//!
//! §5.2: "the central coordinator handles up to 50 nodes with sub-second
//! scheduling latency. However, beyond 200 nodes, heartbeat monitoring and
//! database contention could become bottlenecks." The database is a single
//! shared resource; heartbeat writes and scheduling transactions queue on
//! it. An M/M/1 waiting-time model captures the knee: latency is flat while
//! utilization is low and explodes as the write rate approaches the service
//! rate.
//!
//! This formula used to *be* the latency the coordinator paid. Since the
//! DbActor split (DESIGN.md §3b) latency is **emergent** from the actor's
//! real write queue ([`crate::actor`]); nothing on a behavioural path calls
//! [`ContentionModel::transaction_latency`] anymore. It survives as the
//! oracle the actor is regression-tested against: under Poisson traffic the
//! emergent sojourn time must track this curve below the knee and blow up
//! past it (`actor::tests::emergent_latency_*`).

use gpunion_des::SimDuration;

/// Contention model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// Mean service time of one write transaction (row update + fsync).
    pub service_time: SimDuration,
    /// Latency cap once saturated (requests time out rather than queueing
    /// forever).
    pub saturation_cap: SimDuration,
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel {
            // 12 ms per write: row update + WAL fsync on commodity SSD.
            service_time: SimDuration::from_millis(12),
            saturation_cap: SimDuration::from_secs(30),
        }
    }
}

impl ContentionModel {
    /// Expected sojourn time (wait + service) of one transaction when
    /// writes arrive at `write_rate_hz`. M/M/1: `T = s / (1 − ρ)`.
    /// At ρ ≥ 1 the cap applies.
    pub fn transaction_latency(&self, write_rate_hz: f64) -> SimDuration {
        let s = self.service_time.as_secs_f64();
        let rho = write_rate_hz * s;
        if rho >= 0.999 {
            return self.saturation_cap;
        }
        let t = s / (1.0 - rho);
        SimDuration::from_secs_f64(t).min(self.saturation_cap)
    }

    /// Utilization of the database at a write rate.
    pub fn utilization(&self, write_rate_hz: f64) -> f64 {
        write_rate_hz * self.service_time.as_secs_f64()
    }

    /// The write rate produced by `n_nodes` heartbeating every
    /// `heartbeat_period` (each heartbeat is one status write) plus
    /// `extra_hz` of scheduling/monitoring traffic.
    pub fn heartbeat_write_rate(
        n_nodes: usize,
        heartbeat_period: SimDuration,
        extra_hz: f64,
    ) -> f64 {
        n_nodes as f64 / heartbeat_period.as_secs_f64() + extra_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_flat_at_low_load() {
        let m = ContentionModel::default();
        let idle = m.transaction_latency(0.0);
        let light = m.transaction_latency(5.0); // ρ = 0.06
        assert_eq!(idle, m.service_time);
        assert!(light < m.service_time * 2);
    }

    #[test]
    fn latency_explodes_near_saturation() {
        let m = ContentionModel::default();
        // ρ = 0.96 ⇒ 25× service time.
        let hot = m.transaction_latency(80.0);
        assert!(hot > m.service_time * 20, "{hot}");
        // Beyond saturation: capped.
        assert_eq!(m.transaction_latency(200.0), m.saturation_cap);
    }

    #[test]
    fn paper_scalability_shape() {
        // 50 nodes @ 5 s heartbeats + 2 Hz scheduler traffic: sub-second.
        let m = ContentionModel::default();
        let rate50 = ContentionModel::heartbeat_write_rate(50, SimDuration::from_secs(5), 2.0);
        assert!(m.transaction_latency(rate50).as_secs_f64() < 0.05);
        // 200 nodes: utilization over 50 %, latency rising.
        let rate200 = ContentionModel::heartbeat_write_rate(200, SimDuration::from_secs(5), 8.0);
        assert!(m.utilization(rate200) > 0.5);
        // 400 nodes: saturated or near-saturated.
        let rate400 = ContentionModel::heartbeat_write_rate(400, SimDuration::from_secs(5), 16.0);
        assert!(m.utilization(rate400) > 1.0);
        assert_eq!(m.transaction_latency(rate400), m.saturation_cap);
    }

    #[test]
    fn latency_monotone_in_rate() {
        let m = ContentionModel::default();
        let mut last = SimDuration::ZERO;
        for hz in [0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 83.0] {
            let t = m.transaction_latency(hz);
            assert!(t >= last, "{hz} Hz: {t} < {last}");
            last = t;
        }
    }
}
