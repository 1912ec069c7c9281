//! Live mode: the same protocol over real TCP sockets on localhost.
//!
//! Runs a coordinator thread and three agent threads exchanging real
//! framed envelopes — registration with token issuance and authenticated
//! one-way heartbeats — demonstrating that the control plane is an actual
//! network protocol, not a simulation artifact.
//!
//!     cargo run --release --example live_cluster

use gpunion_protocol::{
    AuthToken, Control, Envelope, FramedTransport, GpuInfo, Message, NodeUid, TokenRegistry,
    TransportError,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    println!("coordinator listening on {addr}");

    let served = Arc::new(AtomicU64::new(0));
    let served_c = served.clone();

    // Coordinator: accept 3 agents, register them, then count their
    // authenticated heartbeats until each connection closes. A beat is
    // one-way: nothing answers it.
    let coordinator = std::thread::spawn(move || {
        let mut tokens = TokenRegistry::new();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut handles = Vec::new();
        for uid in 0..3u64 {
            let (sock, peer) = listener.accept().expect("accept");
            let node = NodeUid(uid);
            let token = tokens.issue(node, &mut rng);
            let served = served_c.clone();
            handles.push(std::thread::spawn(move || {
                let mut t = FramedTransport::new(sock);
                let env = t.recv().expect("register");
                let Message::Control(Control::Register { hostname, gpus, .. }) = env.msg else {
                    panic!("expected Register, got {:?}", env.msg);
                };
                println!(
                    "[coord] {hostname} ({} GPU) registered from {peer}",
                    gpus.len()
                );
                t.send(&Envelope::new(
                    AuthToken::UNAUTHENTICATED,
                    Message::Control(Control::RegisterAck {
                        node,
                        token,
                        heartbeat_period_ms: 200,
                    }),
                ))
                .unwrap();
                let mut beats = 0u64;
                loop {
                    let env = match t.recv() {
                        Ok(env) => env,
                        Err(TransportError::ConnectionClosed) => break,
                        Err(e) => panic!("heartbeat stream: {e}"),
                    };
                    assert_eq!(env.sender, node, "sender principal");
                    assert_eq!(env.token, token, "bearer token");
                    let Message::Control(Control::Heartbeat { seq, .. }) = env.msg else {
                        panic!("expected Heartbeat, got {:?}", env.msg);
                    };
                    beats += 1;
                    assert_eq!(seq, beats, "beats arrive in order");
                }
                assert_eq!(beats, 5, "every beat arrived before EOF");
                println!("[coord] {hostname}: {beats} heartbeats, then EOF");
                served.fetch_add(beats, Ordering::Relaxed);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    // Three agents: register, heartbeat five times, close the socket.
    let mut agents = Vec::new();
    for i in 0..3 {
        agents.push(std::thread::spawn(move || {
            let sock = TcpStream::connect(addr).expect("connect");
            let mut t = FramedTransport::new(sock);
            t.send(&Envelope::new(
                AuthToken::UNAUTHENTICATED,
                Message::Control(Control::Register {
                    machine_id: format!("live-{i}-deadbeef"),
                    hostname: format!("live-{i}"),
                    gpus: vec![GpuInfo {
                        model_name: "NVIDIA GeForce RTX 3090".into(),
                        vram_bytes: 24 << 30,
                        cc_major: 8,
                        cc_minor: 6,
                        fp32_tflops: 35.6,
                    }],
                    agent_version: 1,
                }),
            ))
            .unwrap();
            let env = t.recv().expect("ack");
            let Message::Control(Control::RegisterAck { node, token, .. }) = env.msg else {
                panic!("expected RegisterAck");
            };
            println!("[agent live-{i}] registered as {node:?}");
            for seq in 1..=5u64 {
                t.send(&Envelope::from_node(
                    node,
                    token,
                    Message::Control(Control::Heartbeat {
                        node,
                        seq,
                        accepting: true,
                        gpu_stats: vec![],
                        workloads: vec![],
                    }),
                ))
                .unwrap();
            }
            drop(t);
            println!("[agent live-{i}] done");
        }));
    }
    for a in agents {
        a.join().unwrap();
    }
    coordinator.join().unwrap();
    println!(
        "coordinator processed {} authenticated heartbeats over real TCP",
        served.load(Ordering::Relaxed)
    );
}
