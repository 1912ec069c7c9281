//! # gpunion-protocol — the GPUnion control-plane wire protocol
//!
//! The stable boundary between coordinator and provider agents:
//!
//! * [`message`] — the message set (registration with machine ids and
//!   bearer tokens, telemetry heartbeats, dispatch/kill/checkpoint orders,
//!   departure notices) and its hand-rolled binary codec.
//! * [`wire`] — checked low-level encode/decode primitives: every length is
//!   validated before allocation, so hostile frames cannot OOM the
//!   coordinator.
//! * [`framing`] — incremental `[len][payload]` framing for byte streams.
//! * [`http`] — the strict HTTP/1.1 subset behind the agent's local REST
//!   API (status, kill-switch, pause, departure).
//! * [`auth`] — token issuance + constant-time validation.
//! * [`transport`] — blocking framed TCP for live mode; the same envelopes
//!   run over real sockets and over the simulated campus LAN.

#![forbid(unsafe_code)]

pub mod auth;
pub mod framing;
pub mod http;
pub mod message;
pub mod transport;
pub mod wire;

pub use auth::TokenRegistry;
pub use framing::{encode_frame, BufferPool, FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use http::{HttpError, HttpRequest, HttpResponse, Method};
pub use message::{
    AuthToken, Control, DepartureMode, DispatchSpec, Envelope, ExecMode, GpuInfo, GpuStat, JobId,
    KillReason, Message, NodeUid, UserId, Work, WorkloadState, WorkloadStatus, PROTOCOL_VERSION,
};
pub use transport::{FramedTransport, TransportError};
pub use wire::{CountingSink, WireError, WireReader, WireSink, WireWriter};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_workload_state() -> impl Strategy<Value = WorkloadState> {
        prop_oneof![
            Just(WorkloadState::Provisioning),
            Just(WorkloadState::Running),
            Just(WorkloadState::Checkpointing),
            Just(WorkloadState::Completed),
            Just(WorkloadState::Failed),
            Just(WorkloadState::Killed),
        ]
    }

    fn arb_status() -> impl Strategy<Value = WorkloadStatus> {
        (
            any::<u64>(),
            arb_workload_state(),
            0.0f64..1.0,
            any::<u64>(),
        )
            .prop_map(|(j, state, progress, seq)| WorkloadStatus {
                job: JobId(j),
                state,
                progress,
                checkpoint_seq: seq,
            })
    }

    fn arb_gpu_stat() -> impl Strategy<Value = GpuStat> {
        (
            any::<u64>(),
            any::<u64>(),
            0.0f64..1.0,
            20.0f64..100.0,
            0.0f64..500.0,
        )
            .prop_map(|(used, total, util, temp, power)| GpuStat {
                memory_used: used,
                memory_total: total,
                utilization: util,
                temperature_c: temp,
                power_w: power,
            })
    }

    fn arb_exec_mode() -> impl Strategy<Value = ExecMode> {
        prop_oneof![
            proptest::collection::vec("[a-z0-9=. -]{1,16}", 0..5)
                .prop_map(|entrypoint| ExecMode::Batch { entrypoint }),
            (1024u16..40_000).prop_map(|port| ExecMode::Interactive { port }),
        ]
    }

    fn arb_dispatch_spec() -> impl Strategy<Value = DispatchSpec> {
        (
            (
                any::<u64>(),
                "[a-z0-9/-]{1,24}",
                "[a-z0-9.-]{1,12}",
                any::<[u8; 32]>(),
                1u8..9,
                any::<u64>(),
                proptest::option::of((0u8..10, 0u8..10)),
            ),
            (
                arb_exec_mode(),
                any::<u32>(),
                proptest::collection::vec(any::<u64>(), 0..5),
                any::<u64>(),
                proptest::option::of(any::<u64>()),
                any::<u8>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |(
                    (job, image_repo, image_tag, image_digest, gpus, gpu_mem_bytes, min_cc),
                    (
                        mode,
                        checkpoint_interval_secs,
                        storage_nodes,
                        state_bytes_hint,
                        restore_from_seq,
                        priority,
                        user,
                    ),
                )| DispatchSpec {
                    job: JobId(job),
                    image_repo,
                    image_tag,
                    image_digest,
                    gpus,
                    gpu_mem_bytes,
                    min_cc,
                    mode,
                    checkpoint_interval_secs,
                    storage_nodes: storage_nodes.into_iter().map(NodeUid).collect(),
                    state_bytes_hint,
                    restore_from_seq,
                    priority,
                    user: UserId(user),
                },
            )
    }

    /// Every [`Control`] variant.
    fn arb_control() -> impl Strategy<Value = Control> {
        prop_oneof![
            (
                "[a-z0-9-]{1,20}",
                "[a-z0-9.-]{1,20}",
                proptest::collection::vec(
                    (
                        "[A-Za-z0-9 ]{1,30}",
                        1u64..1 << 40,
                        0u8..10,
                        0u8..10,
                        1.0f64..100.0
                    )
                        .prop_map(|(name, vram, maj, min, tf)| GpuInfo {
                            model_name: name,
                            vram_bytes: vram,
                            cc_major: maj,
                            cc_minor: min,
                            fp32_tflops: tf,
                        }),
                    0..8
                ),
                any::<u32>()
            )
                .prop_map(|(machine_id, hostname, gpus, agent_version)| {
                    Control::Register {
                        machine_id,
                        hostname,
                        gpus,
                        agent_version,
                    }
                }),
            (any::<u64>(), any::<[u8; 16]>(), any::<u32>()).prop_map(|(n, t, p)| {
                Control::RegisterAck {
                    node: NodeUid(n),
                    token: AuthToken(t),
                    heartbeat_period_ms: p,
                }
            }),
            (
                any::<u64>(),
                any::<u64>(),
                any::<bool>(),
                proptest::collection::vec(arb_gpu_stat(), 0..9),
                proptest::collection::vec(arb_status(), 0..6)
            )
                .prop_map(|(n, seq, accepting, gpu_stats, workloads)| {
                    Control::Heartbeat {
                        node: NodeUid(n),
                        seq,
                        accepting,
                        gpu_stats,
                        workloads,
                    }
                }),
            (any::<u64>(), any::<u64>()).prop_map(|(n, seq)| Control::HeartbeatAck {
                node: NodeUid(n),
                seq,
            }),
            (
                any::<u64>(),
                prop_oneof![
                    (0u32..100_000).prop_map(|g| DepartureMode::Graceful { grace_secs: g }),
                    Just(DepartureMode::Emergency)
                ]
            )
                .prop_map(|(n, mode)| Control::DepartureNotice {
                    node: NodeUid(n),
                    mode
                }),
            (any::<u64>(), any::<bool>()).prop_map(|(n, paused)| Control::PauseScheduling {
                node: NodeUid(n),
                paused,
            }),
            (any::<u16>(), "[ -~]{0,80}")
                .prop_map(|(code, detail)| Control::Error { code, detail }),
        ]
    }

    /// Every [`Work`] variant.
    fn arb_work() -> impl Strategy<Value = Work> {
        prop_oneof![
            arb_dispatch_spec().prop_map(|spec| Work::Dispatch { spec }),
            (any::<u64>(), any::<bool>(), "[ -~]{0,60}").prop_map(|(j, accepted, reason)| {
                Work::DispatchReply {
                    job: JobId(j),
                    accepted,
                    reason,
                }
            }),
            (
                any::<u64>(),
                prop_oneof![
                    Just(KillReason::ProviderKillSwitch),
                    Just(KillReason::UserCancel),
                    Just(KillReason::SchedulerPreempt),
                ]
            )
                .prop_map(|(j, reason)| Work::Kill {
                    job: JobId(j),
                    reason
                }),
            any::<u64>().prop_map(|j| Work::CheckpointRequest { job: JobId(j) }),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                proptest::collection::vec(any::<u64>(), 0..5)
            )
                .prop_map(|(j, seq, bytes, nodes)| Work::CheckpointDone {
                    job: JobId(j),
                    seq,
                    transfer_bytes: bytes,
                    stored_on: nodes.into_iter().map(NodeUid).collect(),
                }),
            (arb_status(), proptest::option::of(any::<i32>()))
                .prop_map(|(status, exit_code)| { Work::WorkloadUpdate { status, exit_code } }),
        ]
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            arb_control().prop_map(Message::Control),
            arb_work().prop_map(Message::Work),
        ]
    }

    proptest! {
        /// Every message round-trips bit-exactly through the codec (decode
        /// consumes every byte — `from_bytes` ends with `expect_end`).
        #[test]
        fn prop_envelope_roundtrip(msg in arb_message(), token in any::<[u8; 16]>()) {
            let env = Envelope::new(AuthToken(token), msg);
            let bytes = env.to_bytes();
            let back = Envelope::from_bytes(&bytes).unwrap();
            prop_assert_eq!(env, back);
        }

        /// The allocation-free counting walk agrees with the real encoder
        /// on every variant: `counting(e) == to_bytes(e).len()`.
        #[test]
        fn prop_counting_sink_matches_encode(msg in arb_message(), token in any::<[u8; 16]>()) {
            let env = Envelope::new(AuthToken(token), msg);
            let bytes = env.to_bytes();
            prop_assert_eq!(env.encoded_len(), bytes.len());
            prop_assert_eq!(env.wire_size() as usize, bytes.len());
        }

        /// The pooled framed encode emits exactly `[len LE][to_bytes]`, and
        /// the incremental frame decoder hands the payload back intact.
        #[test]
        fn prop_framed_encode_equivalent(msg in arb_message(), token in any::<[u8; 16]>()) {
            let env = Envelope::new(AuthToken(token), msg);
            let mut buf = bytes::BytesMut::new();
            env.encode_framed_into(&mut buf).unwrap();
            let bytes = env.to_bytes();
            prop_assert_eq!(&buf[..4], (bytes.len() as u32).to_le_bytes().as_slice());
            prop_assert_eq!(&buf[4..], bytes.as_ref());
            let mut d = FrameDecoder::new();
            d.extend(&buf);
            let payload = d.next_frame().unwrap().unwrap();
            prop_assert_eq!(Envelope::from_bytes(&payload).unwrap(), env);
        }

        /// Arbitrary garbage never panics the decoder — it errors.
        #[test]
        fn prop_decoder_total(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = Envelope::from_bytes(&garbage);
        }

        /// Flipping any single byte of an encoded envelope either still
        /// decodes (fields tolerate it) or errors — never panics.
        #[test]
        fn prop_bitflip_safe(msg in arb_message(), flip in any::<proptest::sample::Index>()) {
            let env = Envelope::new(AuthToken([1; 16]), msg);
            let mut bytes = env.to_bytes().to_vec();
            let i = flip.index(bytes.len());
            bytes[i] ^= 0x40;
            let _ = Envelope::from_bytes(&bytes);
        }
    }
}
