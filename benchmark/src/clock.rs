//! Host time, compensated for the host's clock speed.
//!
//! The sandbox this benchmark runs in is a small VM whose effective clock
//! wanders by ±15 % for tens of seconds at a time (measured: the same
//! deterministic run took 3.2 s to 4.5 s, while CPU time equalled wall
//! time, so the guest was not descheduled — it just ran slower). No
//! statistic over one run's repetitions removes noise that outlives the
//! run. A fixed dependent-arithmetic probe slows down by the same factor
//! as the simulator (the ratio of the two held within ±3 % while both moved
//! ±15 %), so every timed interval is divided by the probe's slowdown
//! measured around it: host seconds in this benchmark are seconds at the
//! probe's nominal speed. `host.clock_ratio` and
//! `host.raw_sim_s_per_wall_s` report what the compensation did.

use std::time::Instant;

/// Steps of the dependent xorshift chain in one probe chunk.
const CHUNK_STEPS: u32 = 20_000;
/// Chunks per probe; the fastest is kept, so an interrupt costs nothing.
const CHUNKS: u32 = 3;
/// What one chunk takes on the recording box (2-core Xeon @ 2.1 GHz VM) at
/// its usual speed. Only fixes the scale: compensated and raw seconds
/// agree when the host runs at this speed.
pub const NOMINAL_CHUNK_NS: f64 = 36_000.0;

/// Wall nanoseconds of the fastest of [`CHUNKS`] probe chunks right now.
pub fn probe_ns() -> f64 {
    let mut best = f64::INFINITY;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..CHUNKS {
        let t = Instant::now();
        // Each step needs the previous one's result and no memory: its
        // duration is a fixed cycle count, whatever the optimiser does.
        for _ in 0..CHUNK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(x);
    best
}

/// Times consecutive intervals, each scaled by the probe's speed around it.
pub struct Stopwatch {
    last_probe_ns: f64,
    /// Sum of raw interval lengths, seconds.
    pub raw_s: f64,
    /// Sum of compensated interval lengths, seconds.
    pub compensated_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            last_probe_ns: probe_ns(),
            raw_s: 0.0,
            compensated_s: 0.0,
        }
    }

    /// Run `f` as one timed interval. Returns `f`'s result and the
    /// interval's (raw, compensated) seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        (out, raw, self.book(raw))
    }

    /// Book `raw_s` seconds the caller timed itself since the last probe
    /// (many short calls between two probes). Returns them compensated.
    pub fn book(&mut self, raw_s: f64) -> f64 {
        let after = probe_ns();
        let slowdown = (self.last_probe_ns + after) / 2.0 / NOMINAL_CHUNK_NS;
        self.last_probe_ns = after;
        let compensated = raw_s / slowdown;
        self.raw_s += raw_s;
        self.compensated_s += compensated;
        compensated
    }

    /// Host speed over everything timed so far, as a share of nominal.
    pub fn clock_ratio(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.compensated_s / self.raw_s
        } else {
            1.0
        }
    }
}
