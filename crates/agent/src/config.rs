//! Agent configuration and machine identity.
//!
//! §3.4: "New nodes join the platform through automatic registration scripts
//! that generate unique machine identifiers, establish network connectivity,
//! and obtain authentication credentials."

use gpunion_des::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Static configuration of one provider agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Hostname for reports.
    pub hostname: String,
    /// Self-generated unique machine identifier.
    pub machine_id: String,
    /// Heartbeat period (overridden by the coordinator's RegisterAck).
    pub heartbeat_period: SimDuration,
    /// Grace window offered to workloads on graceful departure.
    pub departure_grace: SimDuration,
    /// Agent software version.
    pub version: u32,
    /// REST control-panel rate limit: bucket burst capacity. `0` disables
    /// limiting (the default — existing harnesses hammer `/status` freely).
    pub rest_burst: u64,
    /// REST control-panel rate limit: sustained requests per second.
    pub rest_rate_per_sec: u64,
}

impl AgentConfig {
    /// Standard config with a generated machine id.
    pub fn new(hostname: impl Into<String>, rng: &mut impl Rng) -> Self {
        let hostname = hostname.into();
        let machine_id = generate_machine_id(&hostname, rng);
        AgentConfig {
            hostname,
            machine_id,
            heartbeat_period: SimDuration::from_secs(5),
            departure_grace: SimDuration::from_secs(120),
            version: 1_000_000, // 1.0.0
            rest_burst: 0,
            rest_rate_per_sec: 0,
        }
    }
}

/// Generate a unique machine identifier: hostname + 64-bit random suffix,
/// mirroring the registration script in the paper.
pub fn generate_machine_id(hostname: &str, rng: &mut impl Rng) -> String {
    format!("{hostname}-{:016x}", rng.gen::<u64>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn machine_ids_unique() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = generate_machine_id("ws-1", &mut rng);
        let b = generate_machine_id("ws-1", &mut rng);
        assert_ne!(a, b);
        assert!(a.starts_with("ws-1-"));
    }

    #[test]
    fn defaults_match_paper() {
        let mut rng = SmallRng::seed_from_u64(2);
        let c = AgentConfig::new("rack-4090", &mut rng);
        assert_eq!(c.heartbeat_period, SimDuration::from_secs(5));
        assert_eq!(c.departure_grace, SimDuration::from_secs(120));
    }
}
