//! Shard actors: each directory shard's state lives behind its own
//! intent lane, applied either inline (the degenerate zero-thread actor)
//! or by a pool of worker threads.
//!
//! ## Shape
//!
//! Every mutation of a shard — register, heartbeat, reserve, release,
//! liveness, interruption — is a typed [`ShardIntent`] sent down the
//! owning shard's lane by the coordinator (the single producer). With
//! `worker_threads = 0` the intent is applied synchronously on the
//! caller's thread: the exact pre-actor code path, so single-shard
//! goldens stay byte-stable. With `worker_threads = W ≥ 1`, shard `i` is
//! pinned to worker `i % W` of a [`WorkerPool`] (the machinery shared
//! with the platform's parallel agent pump); each worker drains its
//! inbox FIFO, so every shard sees its intents in send order no matter
//! how threads are scheduled.
//!
//! ## The join point
//!
//! Reads never race mutations: before the directory looks at any shard
//! it waits at the shard's [`JoinPoint`](gpunion_des::JoinPoint) until
//! the lane has applied everything sent (`applied == sent`). Because the
//! producer is single-threaded and every read path joins first, the
//! state observed at a join point is a pure function of the intent
//! streams — bit-identical at any worker count. The scatter–gather read
//! views then *borrow* the quiesced shard state directly, which is what
//! lets the k-way-merged iterators (and their bit-identical merge-order
//! proof) survive the actorization unchanged.
//!
//! ## Safety
//!
//! Shard state sits in an [`UnsafeCell`] shared with the workers. The
//! aliasing discipline is the classic single-owner handoff:
//!
//! * a worker touches `cells[i]` only while applying an intent for lane
//!   `i`, and publishes completion with a release store ([`JoinPoint::
//!   mark`]);
//! * the producer dereferences `cells[i]` only after
//!   [`JoinPoint::wait`]-ing for its own sent count (acquire), at which
//!   point the lane is idle and stays idle until the *same* thread sends
//!   again — which it cannot do while a `&Shard` borrow is live, because
//!   sending requires `&mut ShardRuntime`.
//!
//! `debug_assert!`s on the counters check the protocol at every
//! dereference.

use super::shard::Shard;
use gpunion_des::{JoinPoint, SimTime, WorkerPool};
use gpunion_protocol::{GpuStat, JobId, NodeUid};
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::Arc;

use super::entry::{NodeEntry, NodeLiveness};

/// A typed shard mutation, routed to the owning shard's lane. Variants
/// mirror [`Shard`]'s mutation methods one-to-one.
pub(crate) enum ShardIntent {
    /// Insert (or replace) a node entry. Boxed: entries are large and
    /// the inbox shouldn't be.
    Insert(Box<NodeEntry>),
    /// Apply a heartbeat's telemetry.
    ApplyHeartbeat {
        uid: NodeUid,
        now: SimTime,
        seq: u64,
        accepting: bool,
        stats: Vec<GpuStat>,
    },
    /// Reserve capacity for an in-flight offer. Replies `Reserved`.
    Reserve {
        uid: NodeUid,
        job: JobId,
        gpus: u8,
        mem: u64,
        min_cc: Option<(u8, u8)>,
    },
    /// Release a job's reservation. Replies `Released`.
    Release { uid: NodeUid, job: JobId },
    /// Transition liveness. Replies `Liveness` (the previous value).
    SetLiveness {
        uid: NodeUid,
        liveness: NodeLiveness,
    },
    /// Record a provider interruption.
    RecordInterruption { uid: NodeUid, now: SimTime },
}

/// The reply a lane leaves in its slot after applying an intent. Only
/// `Reserve`, `Release` and `SetLiveness` carry information; the rest
/// overwrite the slot with `None` (the slot always reflects the *latest*
/// applied intent, and the producer only reads it right after quiescing
/// on an intent it knows replies).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum ShardReply {
    #[default]
    None,
    /// All slots covered / the node moved up a free-VRAM bucket.
    Reserved {
        complete: bool,
        grew: bool,
    },
    /// The node moved up a free-VRAM bucket.
    Released {
        grew: bool,
    },
    Liveness(Option<NodeLiveness>),
}

/// One shard's lane: the guarded state, its join point, and the reply
/// slot. Shared with the worker that owns the lane.
pub(crate) struct ShardCell {
    state: UnsafeCell<Shard>,
    join: JoinPoint,
    reply: UnsafeCell<ShardReply>,
}

// SAFETY: aliasing is excluded by the sent/applied protocol documented
// in the module header — the worker writes only mid-application, the
// producer reads only at quiescence, and `JoinPoint`'s release/acquire
// pair orders the handoff.
unsafe impl Sync for ShardCell {}

impl ShardCell {
    fn new() -> Self {
        ShardCell {
            state: UnsafeCell::new(Shard::default()),
            join: JoinPoint::new(),
            reply: UnsafeCell::new(ShardReply::None),
        }
    }

    /// Apply one intent to the guarded shard and stash its reply.
    ///
    /// # Safety
    /// Caller must be the lane's current owner: either the worker thread
    /// the lane is pinned to (mid-drain), or the producer in inline mode.
    unsafe fn apply(&self, intent: ShardIntent) {
        let shard = &mut *self.state.get();
        let reply = match intent {
            ShardIntent::Insert(entry) => {
                shard.insert(*entry);
                ShardReply::None
            }
            ShardIntent::ApplyHeartbeat {
                uid,
                now,
                seq,
                accepting,
                stats,
            } => {
                shard.apply_heartbeat(uid, now, seq, accepting, &stats);
                ShardReply::None
            }
            ShardIntent::Reserve {
                uid,
                job,
                gpus,
                mem,
                min_cc,
            } => {
                let (complete, grew) = shard.reserve(uid, job, gpus, mem, min_cc);
                ShardReply::Reserved { complete, grew }
            }
            ShardIntent::Release { uid, job } => ShardReply::Released {
                grew: shard.release(uid, job),
            },
            ShardIntent::SetLiveness { uid, liveness } => {
                ShardReply::Liveness(shard.set_liveness(uid, liveness))
            }
            ShardIntent::RecordInterruption { uid, now } => {
                shard.record_interruption(uid, now);
                ShardReply::None
            }
        };
        // Written before `mark`, so the release store publishes it.
        *self.reply.get() = reply;
    }
}

/// The shard lanes plus the worker pool (empty = inline mode). The
/// threads themselves live in a [`WorkerPool`]; each worker's body keeps
/// the per-lane applied counts (only it applies intents for its lanes)
/// and marks the lane's join point after every application.
pub(crate) struct ShardRuntime {
    cells: Arc<Vec<ShardCell>>,
    /// Producer-side cumulative sent count per lane.
    sent: Vec<u64>,
    pool: WorkerPool<(usize, ShardIntent)>,
    /// The order lanes are joined (and gathered) in. Identity in
    /// production; tests permute it (seeded) to prove merged reads are
    /// independent of reply arrival order.
    drain: Vec<usize>,
}

impl ShardRuntime {
    /// `shards` lanes served by up to `workers` threads (0 = inline).
    pub(crate) fn new(shards: usize, workers: usize) -> Self {
        let shards = shards.max(1);
        let cells: Arc<Vec<ShardCell>> = Arc::new((0..shards).map(|_| ShardCell::new()).collect());
        let pool = WorkerPool::new(workers.min(shards), "dir-shard-worker", |_| {
            let cells = Arc::clone(&cells);
            let mut applied = vec![0u64; cells.len()];
            move |(i, intent): (usize, ShardIntent)| {
                // SAFETY: this worker owns lane `i` (pinning is static)
                // and the producer does not read before quiescence.
                unsafe { cells[i].apply(intent) };
                applied[i] += 1;
                cells[i].join.mark(applied[i]);
            }
        });
        ShardRuntime {
            sent: vec![0; shards],
            drain: (0..shards).collect(),
            cells,
            pool,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Worker threads serving the lanes (0 = inline).
    pub(crate) fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }

    pub(crate) fn is_inline(&self) -> bool {
        self.pool.is_empty()
    }

    /// The lane join/gather order (a permutation of `0..len`).
    pub(crate) fn drain_order(&self) -> &[usize] {
        &self.drain
    }

    /// Test scaffolding: join (and gather) lanes in `order` instead of
    /// lane order, simulating adversarial reply arrival. Must be a
    /// permutation of `0..len`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn set_drain_schedule(&mut self, order: Vec<usize>) {
        let mut check = order.clone();
        check.sort_unstable();
        assert!(
            check.into_iter().eq(0..self.cells.len()),
            "drain schedule must permute 0..{}",
            self.cells.len()
        );
        self.drain = order;
    }

    /// Send an intent down lane `i` (fire-and-forget). Inline mode
    /// applies it on the spot — the degenerate actor.
    pub(crate) fn send(&mut self, i: usize, intent: ShardIntent) {
        self.sent[i] += 1;
        match self.pool.is_empty() {
            true => {
                // SAFETY: no workers exist; this thread owns every lane.
                unsafe { self.cells[i].apply(intent) };
                self.cells[i].join.mark(self.sent[i]);
            }
            false => self.pool.send(i % self.pool.worker_count(), (i, intent)),
        }
    }

    /// Inline-mode escape hatch: run `f` directly on lane `i`'s shard,
    /// counted as one applied intent. Lets borrowing callers (heartbeat
    /// stats) skip the owned-intent copy when no workers exist.
    pub(crate) fn apply_inline<R>(&mut self, i: usize, f: impl FnOnce(&mut Shard) -> R) -> R {
        assert!(self.pool.is_empty(), "apply_inline with live workers");
        self.sent[i] += 1;
        // SAFETY: no workers exist; this thread owns every lane.
        let r = f(unsafe { &mut *self.cells[i].state.get() });
        self.cells[i].join.mark(self.sent[i]);
        r
    }

    /// Send an intent that replies, quiesce the lane, and return the
    /// reply.
    pub(crate) fn send_with_reply(&mut self, i: usize, intent: ShardIntent) -> ShardReply {
        self.send(i, intent);
        self.join_lane(i);
        // SAFETY: lane `i` is quiescent (just joined) and stays so while
        // we hold `&mut self`.
        unsafe { *self.cells[i].reply.get() }
    }

    /// Wait until lane `i` has applied everything sent to it.
    pub(crate) fn join_lane(&self, i: usize) {
        self.cells[i].join.wait(self.sent[i]);
    }

    /// The join point: quiesce every lane (in drain-schedule order, which
    /// cannot affect the state observed — property-tested).
    pub(crate) fn join_all(&self) {
        for &i in &self.drain {
            self.join_lane(i);
        }
    }

    /// Borrow lane `i`'s shard state. Caller must have joined the lane
    /// (checked in debug builds); the borrow keeps the runtime immutable,
    /// which keeps the lane idle.
    pub(crate) fn shard(&self, i: usize) -> &Shard {
        debug_assert!(
            self.cells[i].join.is_quiescent(self.sent[i]),
            "shard {i} read before its join point"
        );
        // SAFETY: lane is quiescent and no intent can be sent while the
        // returned borrow (tied to `&self`) is live.
        unsafe { &*self.cells[i].state.get() }
    }

    /// Borrow every shard, lane order, after a full join.
    pub(crate) fn joined_shards(&self) -> impl Iterator<Item = &Shard> + Clone {
        self.join_all();
        (0..self.cells.len()).map(|i| self.shard(i))
    }
}

impl fmt::Debug for ShardRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("shards", &self.cells.len())
            .field("workers", &self.pool.worker_count())
            .field("sent", &self.sent)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpunion_des::drain_order;
    use gpunion_gpu::GpuModel;
    use gpunion_protocol::GpuInfo;

    fn entry(uid: u64) -> Box<NodeEntry> {
        let gpus: Vec<GpuInfo> = vec![GpuModel::Rtx3090.into()];
        Box::new(NodeEntry::new(
            NodeUid(uid),
            format!("m-{uid}"),
            format!("h-{uid}"),
            gpus,
            SimTime::from_secs(1),
        ))
    }

    fn blast(rt: &mut ShardRuntime, lanes: usize) {
        for uid in 0..64u64 {
            rt.send((uid as usize) % lanes, ShardIntent::Insert(entry(uid)));
        }
        for uid in 0..64u64 {
            let i = (uid as usize) % lanes;
            rt.send(
                i,
                ShardIntent::Reserve {
                    uid: NodeUid(uid),
                    job: JobId(uid),
                    gpus: 1,
                    mem: 8 << 30,
                    min_cc: None,
                },
            );
            if uid % 3 == 0 {
                rt.send(
                    i,
                    ShardIntent::Release {
                        uid: NodeUid(uid),
                        job: JobId(uid),
                    },
                );
            }
        }
    }

    fn snapshot(rt: &ShardRuntime) -> Vec<(usize, Vec<NodeUid>, usize)> {
        rt.join_all();
        (0..rt.len())
            .map(|i| {
                let s = rt.shard(i);
                (i, s.nodes.keys().copied().collect(), s.index.schedulable())
            })
            .collect()
    }

    /// Threaded lanes converge to the same state as the inline
    /// degenerate actor, and the state read at the join point does not
    /// depend on the (seeded, permuted) order lanes are joined in.
    #[test]
    fn threaded_lanes_match_inline_under_permuted_joins() {
        const LANES: usize = 7;
        let mut inline = ShardRuntime::new(LANES, 0);
        blast(&mut inline, LANES);
        let want = snapshot(&inline);
        for workers in [1usize, 2, 4] {
            let mut rt = ShardRuntime::new(LANES, workers);
            blast(&mut rt, LANES);
            for seed in [0u64, 7, 99] {
                rt.set_drain_schedule(drain_order(seed, LANES));
                assert_eq!(snapshot(&rt), want, "{workers} workers, drain seed {seed}");
            }
        }
    }

    /// A replying intent round-trips through a worker thread.
    #[test]
    fn reserve_reply_crosses_the_join_point() {
        let mut rt = ShardRuntime::new(2, 1);
        rt.send(0, ShardIntent::Insert(entry(0)));
        let r = rt.send_with_reply(
            0,
            ShardIntent::Reserve {
                uid: NodeUid(0),
                job: JobId(1),
                gpus: 1,
                mem: 8 << 30,
                min_cc: None,
            },
        );
        assert!(
            matches!(r, ShardReply::Reserved { complete: true, .. }),
            "{r:?}"
        );
        // Oversubscribe: the same slot can't be double-reserved.
        let r = rt.send_with_reply(
            0,
            ShardIntent::Reserve {
                uid: NodeUid(0),
                job: JobId(2),
                gpus: 1,
                mem: 20 << 30,
                min_cc: None,
            },
        );
        assert!(
            matches!(
                r,
                ShardReply::Reserved {
                    complete: false,
                    ..
                }
            ),
            "{r:?}"
        );
    }
}
