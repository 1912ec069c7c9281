//! Regenerates the §4 "Training Impact" analysis: jobs with 2–4
//! interruptions show 3–7 % longer total training time; memory-intensive
//! models are more sensitive.
//!
//! Usage: `training_impact [days] [seed]`

use gpunion_core::run_fig3;
use gpunion_des::SimDuration;
use gpunion_workload::{CheckpointCostModel, ModelClass};

fn main() {
    let mut args = std::env::args().skip(1);
    let days: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    eprintln!("running training-impact analysis ({days} days, seed {seed})…");

    // Analytic overhead model cross-checked against the simulation: each
    // interruption costs lost work (≤ checkpoint interval, uniformly ~half),
    // detection (≤ 3 heartbeats), restore fetch + deserialize, and restart.
    let ckpt = SimDuration::from_mins(10);
    let cost = CheckpointCostModel::default();
    println!("== Training impact: analytic per-interruption cost ==");
    println!(
        "{:<20} {:>11} {:>12} {:>16}",
        "model", "state", "capture(s)", "per-interrupt(s)"
    );
    for m in ModelClass::ALL {
        let p = m.profile();
        let capture = cost.capture_time(p.state_bytes);
        let restore = cost.restore_time(p.state_bytes);
        let lost = ckpt.as_secs_f64() / 2.0;
        let per_interrupt = lost + 15.0 + restore.as_secs_f64() + 60.0;
        println!(
            "{:<20} {:>9.1}GB {:>12.1} {:>16.0}",
            p.name,
            p.state_bytes as f64 / (1u64 << 30) as f64,
            capture.as_secs_f64(),
            per_interrupt
        );
    }

    // Simulated: overhead by interruption class, from the Fig. 3 scenario.
    // The paper's +3–7% counts work the interruption itself destroys (lost
    // iterations, restore, restart) — downtime includes queueing for a free
    // slot on the ~90%-occupied fig3 fleet, so it is reported separately.
    let r = run_fig3(days, 2.0, seed);
    println!();
    println!("== Simulated (Fig. 3 workload, 2 events/day/node) ==");
    println!("jobs completed: {}/{}", r.jobs_completed, r.jobs_total);
    // Restore cost averaged over the fig3 job mix (equal parts of the
    // four model classes), plus container restart.
    let mix = [
        ModelClass::CnnSmall,
        ModelClass::CnnLarge,
        ModelClass::TransformerSmall,
        ModelClass::TransformerLarge,
    ];
    let restore_restart = mix
        .iter()
        .map(|m| cost.restore_time(m.profile().state_bytes).as_secs_f64())
        .sum::<f64>()
        / mix.len() as f64
        + 60.0;
    for (name, c) in [
        ("scheduled", &r.scheduled),
        ("emergency", &r.emergency),
        ("temporary", &r.temporary),
    ] {
        if c.displacements == 0 {
            continue;
        }
        // Destroyed work relative to a 10-hour job.
        let job_secs = 10.0 * 3600.0;
        let oh = (c.mean_lost_secs + restore_restart) / job_secs * 100.0;
        println!(
            "{name}: lost work {:.0}s + restore/restart ⇒ ~{:.1}% of a 10h job per \
             interruption (mean requeue-to-restart wait {:.0}s at ~90% occupancy)",
            c.mean_lost_secs, oh, c.mean_downtime_secs
        );
    }
    println!("paper: 2–4 interruptions ⇒ +3–7% total training time");
}
