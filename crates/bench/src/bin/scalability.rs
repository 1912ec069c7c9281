//! Regenerates the §5.2 scalability discussion: the coordinator handles
//! ~50 nodes with sub-second scheduling latency; beyond ~200 nodes the
//! heartbeat write rate saturates the database and latency explodes.
//!
//! Since the DbActor split (DESIGN.md §3b) the reported write latency is
//! **measured** — the mean sojourn of heartbeat status writes through the
//! database actor's bounded queue — with the M/M/1 formula printed next
//! to it as the validation oracle it now is. The `100-job pass` column is
//! the emergent end-to-end latency of draining a 100-job backlog, where
//! each decision's dequeue transaction waits behind every earlier write.
//!
//! Usage: `scalability [seed]`

use gpunion_bench::{contention_knee_run, loaded_coordinator, scale_pass_rows};
use gpunion_des::SimTime;
use gpunion_scheduler::CoordAction;

fn main() {
    let seed = std::env::args()
        .skip(1)
        .find_map(|s| s.parse().ok())
        .unwrap_or(7u64);
    println!("== Scalability: emergent DB write latency vs node count ==");
    println!(
        "{:<8} {:>9} {:>13} {:>13} {:>11} {:>7} {:>18}",
        "nodes",
        "db util",
        "measured tx",
        "M/M/1 oracle",
        "peak depth",
        "shed",
        "100-job pass (ms)"
    );
    for n in [10usize, 25, 50, 100, 150, 200, 250, 300, 400] {
        let row = contention_knee_run(n, seed);
        // Emergent end-to-end latency of one 100-job scheduling pass,
        // driven the only way the actor allows: its turn at t = 3700 s.
        let mut coord = loaded_coordinator(n, 100);
        let actions = coord.advance(SimTime::from_secs(3700));
        let last_delay = actions
            .iter()
            .filter_map(|a| match a {
                CoordAction::Send { delay, .. } => Some(delay.as_secs_f64()),
                _ => None,
            })
            .fold(0.0, f64::max);
        println!(
            "{:<8} {:>8.0}% {:>10.1} ms {:>10.1} ms {:>11} {:>7} {:>18.1}",
            row.nodes,
            row.utilization * 100.0,
            row.measured_latency_ms,
            row.model_latency_ms,
            row.peak_queue_depth,
            row.shed_writes,
            last_delay * 1000.0
        );
    }
    println!();
    println!("paper: sub-second at ≤50 nodes; heartbeat + DB contention beyond ~200.");

    // Beyond the paper's sweep: wall-clock cost of one 20-job scheduling
    // turn on 10⁴–10⁵-node fleets. The pending mix is trace-derived,
    // regenerated per fleet size into one warm buffer (`generate_into`).
    println!();
    println!("== 20-job scheduling-turn cost at scale ==");
    println!("{:<9} {:>7} {:>14}", "nodes", "jobs", "turn (µs)");
    for row in scale_pass_rows(&[10_000, 50_000, 100_000], 20, 5) {
        println!(
            "{:<9} {:>7} {:>14.1}",
            row.nodes,
            row.jobs,
            row.pass_ns as f64 / 1e3
        );
    }
}
