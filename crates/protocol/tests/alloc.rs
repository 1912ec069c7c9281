//! Allocation discipline of the warm codec hot path.
//!
//! `Envelope::wire_size()` runs once per simulated message (both Platform
//! delivery paths), so it must be a pure arithmetic walk: ZERO heap traffic.
//! The live-mode transport send path encodes into a pooled buffer that is
//! reclaimed on frame completion, so a warm sender also allocates nothing
//! per message. Both are pinned here with a counting global allocator (same
//! idiom as `des/tests/alloc.rs` and `scheduler/tests/alloc.rs`), with one
//! twist: the counter is **per thread** (const-initialized TLS, so reading
//! it never recurses into the allocator). The libtest harness's main thread
//! lazily initializes channel state while it blocks waiting for a test, and
//! a process-global counter intermittently catches that bookkeeping inside
//! a measured window; a thread-local counter pins exactly the property we
//! claim — the hot path itself, on the thread running it, never allocates.

use gpunion_protocol::{
    AuthToken, BufferPool, Control, Envelope, FramedTransport, GpuStat, JobId, KillReason, Message,
    NodeUid, Work, WorkloadState, WorkloadStatus,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};

struct CountingAlloc;

thread_local! {
    static LOCAL_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations charged to the calling thread so far.
fn allocations() -> usize {
    LOCAL_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocations during TLS teardown are not a panic.
        let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The dominant control-plane message: a telemetry heartbeat.
fn heartbeat(gpus: usize, workloads: usize) -> Envelope {
    Envelope::from_node(
        NodeUid(3),
        AuthToken([7; 16]),
        Message::Control(Control::Heartbeat {
            node: NodeUid(3),
            seq: 12345,
            accepting: true,
            gpu_stats: vec![
                GpuStat {
                    memory_used: 10 << 30,
                    memory_total: 24 << 30,
                    utilization: 0.93,
                    temperature_c: 71.0,
                    power_w: 330.0,
                };
                gpus
            ],
            workloads: vec![
                WorkloadStatus {
                    job: JobId(9),
                    state: WorkloadState::Running,
                    progress: 0.41,
                    checkpoint_seq: 3,
                };
                workloads
            ],
        }),
    )
}

#[test]
fn wire_size_is_allocation_free() {
    let envs = [
        heartbeat(8, 4),
        Envelope::new(
            AuthToken::UNAUTHENTICATED,
            Message::Work(Work::Kill {
                job: JobId(4),
                reason: KillReason::UserCancel,
            }),
        ),
        Envelope::new(
            AuthToken([1; 16]),
            Message::Control(Control::Error {
                code: 401,
                detail: "bad token".into(),
            }),
        ),
    ];
    // Expected sizes via the allocating encoder, outside the window.
    let expected: Vec<usize> = envs.iter().map(|e| e.to_bytes().len()).collect();

    let before = allocations();
    let mut total = 0usize;
    for _ in 0..1_000 {
        for e in &envs {
            total += e.wire_size() as usize;
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "wire_size allocated {} times over 3000 calls",
        after - before
    );
    assert_eq!(total, expected.iter().sum::<usize>() * 1_000);
}

/// Write sink that swallows frames (the measured window must not be
/// polluted by a growing capture buffer).
struct NullStream {
    written: usize,
}

impl Read for NullStream {
    fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
        Ok(0)
    }
}

impl Write for NullStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.written += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn warm_pooled_send_path_does_not_allocate() {
    let env = heartbeat(8, 4);
    let frame_len = 4 + env.to_bytes().len();
    let mut t = FramedTransport::new(NullStream { written: 0 });

    // Warm up: the first send sizes the pooled buffer.
    for _ in 0..8 {
        t.send(&env).unwrap();
    }

    let before = allocations();
    for _ in 0..1_000 {
        t.send(&env).unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm pooled send allocated {} times over 1000 frames",
        after - before
    );
    assert_eq!(t.get_ref().written, frame_len * 1_008);
}

#[test]
fn warm_pooled_frame_encode_does_not_allocate() {
    let env = heartbeat(8, 4);
    let mut pool = BufferPool::new();

    // Warm up: one acquire→encode→release cycle sizes the pooled buffer.
    let mut buf = pool.acquire();
    env.encode_framed_into(&mut buf).unwrap();
    pool.release(buf);

    let before = allocations();
    for _ in 0..1_000 {
        let mut buf = pool.acquire();
        env.encode_framed_into(&mut buf).unwrap();
        pool.release(buf);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm pooled frame encode allocated {} times over 1000 frames",
        after - before
    );
    assert_eq!(pool.pooled(), 1);
}
