//! Steady-state allocation budget for the stripe send + reassembly loop.
//!
//! The striped bulk path is built to be allocation-free once warm: chunk
//! tails are zero-copy slices of the once-encoded frame body, chunk
//! payloads splice through the thread-local buffer pool, assembler slots
//! recycle through a freelist, and completed bodies hand their storage
//! back via `pool::reclaim`. This test pins that property with a counting
//! global allocator: after a short warmup, a full send → chunk → ingest →
//! reassemble → dispatch-sized cycle performs **zero** heap allocations.

use bytes::Bytes;
use nexus_rt::context::ContextId;
use nexus_rt::descriptor::MethodId;
use nexus_rt::endpoint::EndpointId;
use nexus_rt::error::Result;
use nexus_rt::module::{send_parts_fallback, CommObject, Staged};
use nexus_rt::pool;
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::stripe::{StripeAssembler, StripeRail, StripedObject};
use nexus_rt::trace::Trace;
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method delegates to `System`; the counter update has no
// effect on the memory returned or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A rail that delivers chunk payloads into a shared in-memory "wire":
/// a pre-reserved `VecDeque` so the enqueue itself never allocates.
struct WireRail {
    wire: Arc<Mutex<VecDeque<Bytes>>>,
}

impl CommObject for WireRail {
    fn method(&self) -> MethodId {
        MethodId::LOCAL
    }

    fn transfer(
        &self,
        rsr: &Rsr,
        _frame: &WireFrame,
        head: &[u8],
        _stage: Option<&Trace>,
    ) -> Result<Staged> {
        if !head.is_empty() {
            return send_parts_fallback(self, rsr, head);
        }
        self.wire.lock().push_back(rsr.payload.clone());
        Ok(Staged::Written)
    }
}

#[test]
fn striped_transfer_cycle_is_allocation_free_once_warm() {
    const BODY: usize = 64 * 1024;
    const WARMUP: usize = 16;
    const MEASURED: usize = 64;

    let wire: Arc<Mutex<VecDeque<Bytes>>> = Arc::new(Mutex::new(VecDeque::with_capacity(64)));
    let rails = vec![
        StripeRail::new(Arc::new(WireRail {
            wire: Arc::clone(&wire),
        })),
        StripeRail::new(Arc::new(WireRail {
            wire: Arc::clone(&wire),
        })),
    ];
    let striped = StripedObject::new(rails).with_cutoff(4096);
    let asm = StripeAssembler::new();

    let payload = Bytes::from((0..BODY).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let rsr = Rsr::new(ContextId(1), EndpointId(1), "bulk", payload);

    let cycle = |count_completions: &mut usize| {
        let frame = WireFrame::new();
        striped.transfer(&rsr, &frame, &[], None).unwrap();
        // Drain the wire: every chunk through the assembler, completed
        // bodies verified and their storage returned to the pool.
        loop {
            let chunk = wire.lock().pop_front();
            let Some(chunk) = chunk else { break };
            if let Some(done) = asm.ingest(chunk).unwrap() {
                let body = asm.assemble_body(done).unwrap();
                assert_eq!(body.len(), rsr.body_len());
                pool::reclaim(body);
                *count_completions += 1;
            }
        }
        frame.reclaim();
    };

    let mut completions = 0usize;
    for _ in 0..WARMUP {
        cycle(&mut completions);
    }
    assert_eq!(completions, WARMUP, "every warmup transfer completed");

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        cycle(&mut completions);
    }
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(completions, WARMUP + MEASURED);
    assert_eq!(
        allocs, 0,
        "steady-state stripe cycle allocated {allocs} times over {MEASURED} transfers"
    );
}
