//! Allocation-count regression pin for the RSR hot path.
//!
//! The zero-copy data path makes a steady-state local-queue round trip
//! (send → poll → dispatch) allocation-free: frames are pooled, decode
//! borrows, and the progress pass reuses a thread-local outcome. This test
//! pins that property with a counting global allocator, so any change that
//! reintroduces a per-RSR allocation fails loudly instead of quietly
//! regressing latency.
//!
//! The second test pins the same thing for the real-socket path: a TCP
//! RSR costs a fixed, small number of allocator calls on the receive side
//! (the per-batch copy small frames are cut from; nothing at all for a
//! 1 MiB frame, whose storage is recycled) and none on the send side. The
//! third pins it for a burst that the sender stages: still nothing per
//! message on the sending thread — the staging buffer is allocated once
//! per connection and never grows — and the receiver's batches get
//! bigger, not more numerous.
//!
//! The last pins what building a message costs before any of that: a
//! `Buffer` filled and frozen, and a pooled frame buffer's whole cycle.
//!
//! The counter is process-wide, so the tests in this file take `SERIAL`
//! for their whole body: a sibling allocating concurrently would break
//! the budget.

use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::Fabric;
use nexus_rt::descriptor::MethodId;
use nexus_rt::pool;
use nexus_transports::{register_defaults, register_queue_modules};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocator calls made by the current thread (no destructor, so the
    /// allocator can touch it at any time).
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Held by each test for its whole body (see the module doc).
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

fn count_call() {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    THREAD_CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method delegates to `System` with unchanged arguments, so
// the GlobalAlloc contract is upheld; the counter updates have no effect
// on the memory returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: same layout, delegated to the system allocator.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer and layout, delegated to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: same arguments, delegated to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Iterations measured after warm-up.
const ITERS: u64 = 1_000;
/// Total allocator calls allowed across all measured iterations. The
/// steady-state path performs zero; the slack absorbs incidental lazy
/// initialization (thread-local storage, histogram buckets) that the
/// warm-up might not have touched, while still failing if even one
/// allocation per RSR sneaks back in (which would cost ≥ `ITERS` calls).
const BUDGET: u64 = 100;

#[test]
fn local_queue_round_trip_stays_within_the_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::new();
    register_queue_modules(&fabric);
    let ctx = fabric.create_context().unwrap();
    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    ctx.register_handler("pin", move |_| {
        r.fetch_add(1, Ordering::Relaxed);
    });
    let sp = ctx.startpoint_to(ctx.create_endpoint()).unwrap();
    sp.set_method(MethodId::LOCAL);

    let payload = Bytes::from(vec![0x5a_u8; 64]);
    let pump = |n: u64| {
        for _ in 0..n {
            ctx.rsr(&sp, "pin", Buffer::from_bytes(payload.clone()))
                .unwrap();
            while ctx.progress().unwrap() == 0 {}
        }
    };

    pump(200); // warm: queues, pools, rings, thread-locals
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    pump(ITERS);
    let spent = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(
        spent <= BUDGET,
        "RSR hot path allocated {spent} times over {ITERS} round trips \
         (budget {BUDGET}); a per-RSR allocation crept back in"
    );
    fabric.shutdown();
}

/// Steady-state allocator calls per TCP message, send and receive sides
/// together, over a real loopback socket with the receiving context
/// driven by its own thread (the benchmark's `wire_stream_*` shape).
fn tcp_allocs_per_message(len: usize, warm: u64, iters: u64) -> f64 {
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    b.register_handler("pin", move |args| {
        assert_eq!(args.buffer.as_slice().first(), Some(&0x5a));
        r.fetch_add(1, Ordering::Release);
    });
    let sp = b.startpoint_to(b.create_endpoint()).unwrap();
    sp.set_method(MethodId::TCP);
    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let (b, stop) = (Arc::clone(&b), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                b.progress().unwrap();
            }
        })
    };

    let payload = Bytes::from(vec![0x5a_u8; len]);
    let mut sent = 0;
    let mut pump = |n: u64| {
        for _ in 0..n {
            a.rsr(&sp, "pin", Buffer::from_bytes(payload.clone()))
                .unwrap();
            sent += 1;
            while received.load(Ordering::Acquire) < sent {
                std::hint::spin_loop();
            }
        }
    };
    pump(warm); // connect, accept, arm, pools, the large frame's storage
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    pump(iters);
    let spent = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    stop.store(true, Ordering::Relaxed);
    driver.join().unwrap();
    assert_eq!(
        a.trace().snapshot_method(MethodId::TCP).sends,
        warm + iters,
        "the messages really went over TCP"
    );
    fabric.shutdown();
    spent as f64 / iters as f64
}

#[test]
fn tcp_round_trip_stays_within_the_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 64 B, one message per read: the batch copy it is cut from (storage
    // + refcount block = 2 calls), which is what the decode copy cost
    // before the window; nothing on the send side.
    let small = tcp_allocs_per_message(64, 200, 1_000);
    assert!(
        small <= 2.1,
        "a 64 B TCP message costs {small} allocator calls (was 2.0)"
    );
    // 1 MiB: no frame body on the send side, and the receive storage is
    // the previous frame's. The parent paid 4 here: body and decode copy,
    // two calls each.
    let large = tcp_allocs_per_message(1 << 20, 20, 100);
    assert!(
        large <= 0.5,
        "a 1 MiB TCP message costs {large} allocator calls (should be 0)"
    );
}

/// 256 × 64 B RSRs back to back from a context that does not run in
/// between, then one pass of it (the benchmark's `wire_stream_small`
/// shape), the receiving context driven by its own thread. Returns the
/// steady-state allocator calls per message: both sides together, and the
/// sending thread alone.
fn tcp_burst_allocs_per_message(warm: u64, bursts: u64) -> (f64, f64) {
    const BURST: u64 = 256;
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    b.register_handler("pin", move |args| {
        assert_eq!(args.buffer.as_slice().first(), Some(&0x5a));
        r.fetch_add(1, Ordering::Release);
    });
    let sp = b.startpoint_to(b.create_endpoint()).unwrap();
    sp.set_method(MethodId::TCP);
    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let (b, stop) = (Arc::clone(&b), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                b.progress().unwrap();
            }
        })
    };
    let payload = Bytes::from(vec![0x5a_u8; 64]);
    let mut sent = 0;
    let mut pump = |n: u64| {
        for _ in 0..n {
            for _ in 0..BURST {
                a.rsr(&sp, "pin", Buffer::from_bytes(payload.clone()))
                    .unwrap();
            }
            a.progress().unwrap();
            sent += BURST;
            while received.load(Ordering::Acquire) < sent {
                std::hint::spin_loop();
            }
        }
    };
    pump(warm); // connect, accept, arm, the staging buffer, the backstop
    let (before, mine) = (
        ALLOC_CALLS.load(Ordering::Relaxed),
        THREAD_CALLS.with(Cell::get),
    );
    pump(bursts);
    let spent = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    let spent_here = THREAD_CALLS.with(Cell::get) - mine;
    stop.store(true, Ordering::Relaxed);
    driver.join().unwrap();
    fabric.shutdown();
    let messages = (bursts * BURST) as f64;
    (spent as f64 / messages, spent_here as f64 / messages)
}

#[test]
fn tcp_burst_stays_within_the_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (both, sender) = tcp_burst_allocs_per_message(20, 100);
    // The per-message budget of the one-at-a-time case above.
    assert!(
        both <= 2.1,
        "a staged 64 B TCP message costs {both} allocator calls"
    );
    // Staging copies into a buffer the connection allocated at its first
    // stage; a reallocation of it, or anything else per message, would
    // show here (the slack is lazy initialisation, as for `BUDGET`).
    assert!(
        sender * 256.0 * 100.0 <= BUDGET as f64,
        "the sending thread allocates {sender} times per staged message"
    );
}

/// `BytesMut` keeps its bytes in a plain `Vec` and gets its refcount block
/// at `freeze` — a new one for a new buffer, the one it came back with for
/// a pooled buffer — so building a `Buffer` costs what it did when the
/// block came with the storage, and the pool's cycle still costs nothing.
#[test]
fn building_a_buffer_costs_storage_and_one_refcount_block() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let calls = || THREAD_CALLS.with(Cell::get);
    let before = calls();
    let mut buf = Buffer::with_capacity(16);
    buf.put_u32(1);
    buf.put_u32(2);
    buf.put_f32(3.0);
    buf.put_i32(-4);
    let bytes = std::hint::black_box(buf.into_bytes());
    assert_eq!(calls() - before, 2, "storage + refcount block");
    assert_eq!(bytes.len(), 16);

    let cycle = |n: u32| {
        for i in 0..n {
            let mut m = pool::take(64);
            m.extend_from_slice(&[i as u8; 48]);
            pool::reclaim(std::hint::black_box(m.freeze()));
        }
    };
    cycle(8); // warm: the thread's pool and its first buffer
    let before = calls();
    cycle(1_000);
    assert_eq!(
        calls() - before,
        0,
        "a pooled take → freeze → reclaim allocated"
    );
}
