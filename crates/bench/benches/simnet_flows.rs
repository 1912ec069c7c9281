//! Criterion micro-bench of the event-driven flow table: what a *settle*
//! costs as concurrent flows grow (integrate every flow over the epoch,
//! account it, re-run max-min, refresh the earliest completion — once per
//! change of the flow set), and what a poll with nothing due costs (once
//! per pump iteration; must not depend on the flow count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpunion_des::{SimDuration, SimTime};
use gpunion_simnet::{star_campus, Bandwidth, Network, NodeId, TrafficClass};
use std::hint::black_box;

/// A 12-host campus with `flows` checkpoint uploads in flight since t = 0.
fn campus_with_flows(flows: usize) -> (Network<u32>, Vec<NodeId>, NodeId) {
    let (topo, hosts, coord, _) = star_campus(
        12,
        Bandwidth::gbps(1.0),
        Bandwidth::gbps(10.0),
        SimDuration::from_micros(50),
    );
    let mut net: Network<u32> = Network::new(topo, Bandwidth::gbps(16.0), 1);
    for i in 0..flows {
        net.start_flow(
            SimTime::ZERO,
            hosts[i % hosts.len()],
            coord,
            1 << 30,
            TrafficClass::Checkpoint,
            i as u32,
        )
        .unwrap();
    }
    (net, hosts, coord)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_settle");
    for flows in [4usize, 16, 64, 256] {
        g.bench_with_input(BenchmarkId::new("flows", flows), &flows, |b, &flows| {
            b.iter_batched(
                || campus_with_flows(flows),
                |(mut net, hosts, coord)| {
                    // One more flow a millisecond on: a full settle.
                    net.start_flow(
                        SimTime::from_millis(1),
                        hosts[0],
                        coord,
                        1 << 20,
                        TrafficClass::Migration,
                        999,
                    )
                    .unwrap()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();

    // 1 000 polls an iteration, so one timer read does not swamp them:
    // ns/iter ÷ 1 000 is the cost of a `poll` + `next_event_at`.
    const POLLS: u64 = 1_000;
    let mut g = c.benchmark_group("flow_idle_poll_x1000");
    g.throughput(Throughput::Elements(POLLS));
    let (mut net, ..) = campus_with_flows(256);
    let mut now = SimTime::from_millis(1);
    g.bench_function("flows/256", |b| {
        b.iter(|| {
            for _ in 0..POLLS {
                // A nanosecond on: no 1 GiB flow ends this soon.
                now += SimDuration::from_nanos(1);
                black_box(net.poll(now));
                black_box(net.next_event_at());
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
