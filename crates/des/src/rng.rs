//! Deterministic random-number streams.
//!
//! Every stochastic component in the simulation (trace generator, fault
//! injector, provider behaviour models…) draws from its own named stream
//! derived from a single master seed. Adding a new consumer therefore never
//! perturbs the draws seen by existing ones — a property the reproduction
//! relies on when comparing GPUnion against baselines on *identical*
//! workload traces.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// splitmix64 — the standard seed-spreading finalizer (Steele et al.).
/// Used to derive independent stream seeds from (master, name-hash).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a stream name, for seed derivation only (not security).
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A factory for independent, reproducible RNG streams.
#[derive(Debug, Clone)]
pub struct RngPool {
    master: u64,
}

impl RngPool {
    /// Create a pool from a master seed.
    pub fn new(master_seed: u64) -> Self {
        RngPool {
            master: master_seed,
        }
    }

    /// Derive the RNG stream for `name`. The same (seed, name) pair always
    /// yields an identical stream.
    pub fn stream(&self, name: &str) -> SmallRng {
        let seed = splitmix64(self.master ^ splitmix64(fnv1a(name)));
        SmallRng::seed_from_u64(seed)
    }

    /// Derive a stream from a name and numeric discriminator (e.g. per-node).
    pub fn stream_n(&self, name: &str, n: u64) -> SmallRng {
        let seed = splitmix64(self.master ^ splitmix64(fnv1a(name).wrapping_add(splitmix64(n))));
        SmallRng::seed_from_u64(seed)
    }
}

/// Draw from an exponential distribution with the given rate (events per
/// unit). Used for Poisson arrival processes (job arrivals, provider
/// interruptions). Returns the inter-arrival gap.
pub fn exponential(rng: &mut impl Rng, rate_per_unit: f64) -> f64 {
    assert!(rate_per_unit > 0.0, "rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate_per_unit
}

/// Draw from a log-normal distribution parameterised by the *median* and a
/// multiplicative spread sigma (in log-space). Session durations and job
/// sizes in campus traces are heavy-tailed; log-normal is the conventional
/// fit.
pub fn log_normal(rng: &mut impl Rng, median: f64, sigma: f64) -> f64 {
    // Box-Muller transform.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// Bernoulli draw.
pub fn chance(rng: &mut impl Rng, p: f64) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let pool = RngPool::new(42);
        let a: Vec<u32> = pool
            .stream("x")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = pool
            .stream("x")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_differ() {
        let pool = RngPool::new(42);
        let a: Vec<u32> = pool
            .stream("x")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = pool
            .stream("y")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u32> = RngPool::new(1)
            .stream("x")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = RngPool::new(2)
            .stream("x")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn numeric_discriminators_are_independent() {
        let pool = RngPool::new(7);
        let a: Vec<u32> = pool
            .stream_n("node", 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = pool
            .stream_n("node", 1)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = RngPool::new(9).stream("exp");
        let rate = 4.0;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn log_normal_median_close() {
        let mut rng = RngPool::new(9).stream("ln");
        let mut v: Vec<f64> = (0..10_001)
            .map(|_| log_normal(&mut rng, 30.0, 0.8))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 30.0).abs() / 30.0 < 0.1, "median {median}");
    }

    #[test]
    fn chance_edges() {
        let mut rng = RngPool::new(1).stream("c");
        assert!(!chance(&mut rng, 0.0));
        assert!(!chance(&mut rng, -1.0));
        assert!(chance(&mut rng, 1.0));
        assert!(chance(&mut rng, 2.0));
    }
}
