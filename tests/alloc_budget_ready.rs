//! Allocation-count regression pin for the readiness-driven poll path.
//!
//! The doorbell tier must stay allocation-free in steady state even when
//! the engine is tracking thousands of armed sources: a ring is an atomic
//! swap plus a lock-free queue push, and a drain pops the token, clears
//! the flag, and polls the one source that has traffic. This test arms a
//! large population of idle sources next to one hot local link and pins
//! the round-trip allocation budget — if servicing a ready wakeup (or
//! merely *having* idle armed sources) starts allocating per-RSR, this
//! fails loudly.
//!
//! This file must stay a single-test binary: the counter is process-wide,
//! and a sibling test allocating concurrently would break the budget.

use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::Fabric;
use nexus_rt::descriptor::MethodId;
use nexus_rt::module::test_support::TestModule;
use nexus_transports::register_queue_modules;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method delegates to `System` with unchanged arguments, so
// the GlobalAlloc contract is upheld; the counter update has no effect on
// the memory returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, delegated to the system allocator.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer and layout, delegated to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same arguments, delegated to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Silent readiness-armed sources registered next to the hot link.
const IDLE_SOURCES: usize = 256;
/// Iterations measured after warm-up.
const ITERS: u64 = 1_000;
/// Total allocator calls allowed across all measured iterations — same
/// slack as the base `alloc_budget` pin; see its doc comment.
const BUDGET: u64 = 100;

#[test]
fn ready_path_stays_allocation_free_with_many_idle_armed_sources() {
    let fabric = Fabric::new();
    register_queue_modules(&fabric);
    for i in 0..IDLE_SOURCES {
        fabric.registry().register(Arc::new(
            TestModule::new(MethodId(0x100 + i as u16), "idle-ready", 1_000, false)
                .with_readiness(),
        ));
    }
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
        "ready path allocated {spent} times over {ITERS} round trips with \
         {IDLE_SOURCES} idle armed sources (budget {BUDGET})"
    );
    // The deliveries really took the doorbell path, not the polled tier.
    let local = ctx.trace().snapshot_method(MethodId::LOCAL);
    assert!(
        local.ready_wakeups >= ITERS,
        "local link should deliver via doorbell wakeups, saw {}",
        local.ready_wakeups
    );
    fabric.shutdown();
}
