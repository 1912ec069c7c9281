//! The coordinator's database is the replay of its log, on a real run.
//!
//! A 2-day Fig. 3 scenario (four workstations, two of them churning
//! volunteers, the training mix cycled over the horizon) registers nodes,
//! flips their liveness, submits, places, requeues and finishes jobs. After
//! it, `SystemDb::replay` of the coordinator's log must rebuild the live
//! database: every node, job and allocation row and the pending order.
//!
//! The one allowed difference is each node's `last_seen`. Heartbeat status
//! writes are not logged, so a replayed row keeps the `last_seen` its last
//! registration wrote.

use gpunion_core::{fig3_scenario, Scenario};
use gpunion_db::{NodeRecord, SystemDb};
use gpunion_des::{SimDuration, SimTime};
use gpunion_protocol::{JobId, NodeUid};

/// `run_fig3(2, 1.5, seed)`'s campus, jobs and interruptions, run to the
/// horizon.
fn fig3_two_days(seed: u64) -> Scenario {
    let (mut scenario, _) = fig3_scenario(2, 1.5, seed);
    scenario.run_until(SimTime::ZERO + SimDuration::from_days(2));
    scenario
}

fn replay_rebuilds_the_database(seed: u64) {
    let scenario = fig3_two_days(seed);
    let stats = &scenario.world.stats;
    assert!(
        stats.jobs_completed > 0 && !stats.displacements.is_empty(),
        "seed {seed}: the run finishes and requeues jobs"
    );
    let live = scenario.world.coordinator.db();
    let replayed = SystemDb::replay(live.log()).expect("the log decodes");
    assert_eq!(
        replayed.log(),
        live.log(),
        "seed {seed}: every record re-applies, so the replay re-logs it"
    );

    // Uids are table positions issued from a counter: walk them until
    // every live row has been compared.
    assert_eq!(replayed.node_count(), live.node_count());
    let (mut uid, mut compared) = (0, 0);
    while compared < live.node_count() {
        let (row, replayed_row) = (live.node(NodeUid(uid)), replayed.node(NodeUid(uid)));
        if let Some(row) = row {
            let replayed_row = replayed_row.expect("the replay has every node row");
            // The allowed difference: `last_seen` is refreshed only by
            // unlogged heartbeat status writes.
            let same_but_last_seen = NodeRecord {
                last_seen: row.last_seen,
                ..replayed_row.clone()
            };
            assert_eq!(&same_but_last_seen, row, "seed {seed}: node {uid}");
            compared += 1;
        } else {
            assert!(replayed_row.is_none(), "seed {seed}: node {uid}");
        }
        uid += 1;
    }

    let jobs: Vec<JobId> = stats.job_log.keys().copied().collect();
    assert_eq!(jobs.len(), 18);
    for &job in &jobs {
        assert_eq!(replayed.job(job), live.job(job), "seed {seed}: {job:?}");
        assert_eq!(
            replayed.allocation(job),
            live.allocation(job),
            "seed {seed}: {job:?}'s allocation"
        );
    }
    assert_eq!(
        replayed.pending_in_order().collect::<Vec<_>>(),
        live.pending_in_order().collect::<Vec<_>>(),
        "seed {seed}: pending order"
    );
}

#[test]
fn a_fig3_run_replays_from_its_log_at_seed_42() {
    replay_rebuilds_the_database(42);
}

#[test]
fn a_fig3_run_replays_from_its_log_at_seed_7() {
    replay_rebuilds_the_database(7);
}
