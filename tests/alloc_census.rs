//! The allocation census: what one message costs the allocator, path by
//! path, measured while the path runs.
//!
//! The zero-copy data path makes a steady-state message cost no
//! allocator call: frames are pooled, decode borrows, the progress pass
//! reuses its outcome, and the socket paths gather from where the caller
//! keeps the bytes. This binary holds one counting global allocator and
//! one table, [`CENSUS`], with a row per path. Each test drives its path
//! through the public API to steady state, counts the allocator calls of
//! a measured stretch and checks calls per message against its row.
//!
//! Most budgets are 0. A path that still allocates per message carries
//! today's count as its budget, with the ROADMAP item that takes it to
//! 0; `wrap` and `transform` carry their copy, which is their contract.
//! A row's slack is what lazy initialisation the warm-up did not reach
//! may add. It is always under one call per message, so one more
//! allocation per message fails the row.
//!
//! The counter is process-wide, so every test takes `SERIAL` for its
//! whole body: a sibling allocating concurrently would break the count.

use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{Context, ContextId, Fabric};
use nexus_rt::descriptor::MethodId;
use nexus_rt::endpoint::EndpointId;
use nexus_rt::error::Result;
use nexus_rt::module::test_support::TestModule;
use nexus_rt::module::{send_parts_fallback, CommObject, Staged};
use nexus_rt::pool;
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::startpoint::Startpoint;
use nexus_rt::stripe::{StripeAssembler, StripeRail, StripedObject};
use nexus_rt::trace::Trace;
use nexus_transports::reactor::Reactor;
use nexus_transports::{
    register_defaults, register_queue_modules, Chain, Checksum, PayloadTransform, ShmemModule,
    WrapModule, XorCipher,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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
// on the memory returned. (`alloc_zeroed` keeps its default, which calls
// `alloc` and is counted there.)
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

/// One path's committed cost.
struct Row {
    /// The path, named by the functions it drives.
    path: &'static str,
    /// Allocator calls per message.
    budget: f64,
    /// Calls per message lazy initialisation may add (always < 1).
    slack: f64,
}

const fn row(path: &'static str, budget: f64, slack: f64) -> Row {
    Row {
        path,
        budget,
        slack,
    }
}

/// The census. A message is one RSR the application sent, except where
/// the row says otherwise.
const CENSUS: &[Row] = &[
    // Send and receive in one context over the local queue: `rsr`,
    // `send_with_failover`, `progress` → `poll_once` → `drain_ready`,
    // `dispatch`, the handler.
    row("rsr + poll_once, local queue", 0.0, 0.1),
    // The same with 256 silent readiness-armed sources beside it.
    row("drain_ready, 256 idle armed sources", 0.0, 0.1),
    // Delivery on a shard worker (`start_workers`): `shard_worker_loop`,
    // `service_token`, `deliver`.
    row("shard_worker_loop", 0.0, 0.1),
    // A message is one reactor wake-up: `reactor_loop` finds the fired fd
    // and runs its callback; the test thread re-arms it.
    row("reactor_loop", 0.0, 0.1),
    // A message is one 64 KiB transfer striped over two rails:
    // `striped_send`, `send_chunks`, `stripe_drain`, `assemble_body`.
    row("striped_send + stripe_drain", 0.0, 0.0),
    // `rsr_bulk` at cutoff 0 between two contexts over shmem: the announce,
    // the `#bulk-get`, `bulk_pull_service` answering with the region, and
    // the delivery.
    row("rsr_bulk + bulk_pull_service", 0.0, 0.1),
    // TCP, one message at a time: the sending thread alone
    // (`send_gathered`'s write-through) ...
    row("tcp writer", 0.0, 0.1),
    // ... and both sides, so what the writer row leaves is the reader's
    // (its thread and the reactor's). At 64 B, the per-read batch copy
    // small frames are cut from: storage and its refcount block. ROADMAP
    // item 7 (step 3) takes it to 0.
    row("tcp reader + writer, 64 B", 2.0, 0.1),
    // A 1 MiB frame is read into recycled storage.
    row("tcp reader + writer, 1 MiB", 0.0, 0.5),
    // 256 × 64 B sent back to back, then one pass of the sender: the
    // sending thread stages into the connection's fixed buffer ...
    row("tcp writer, staged burst", 0.0, 0.0039),
    // ... and the receiver's batches get bigger, not more numerous: the
    // same per-read copy, which lands near 0.03 per message here.
    row("tcp reader + writer, staged burst", 2.0, 0.1),
    // RUDP's sending thread: the DATA packet built in a fresh `Vec`, and
    // the copy of it kept for retransmission. ROADMAP item 7 (step 2)
    // sends through the shared lead at 0.
    row("rudp send", 2.0, 0.1),
    // UDP, both sides: the copying `Rsr::decode` of each datagram, storage
    // and its refcount block (the send borrows the pooled body). ROADMAP
    // item 7 (steps 2 and 4) decodes views instead.
    row("udp round trip", 2.0, 0.1),
    // A wrapped method rewrites the payload on both sides; the copies are
    // its contract (XOR over shmem: the encoded and decoded `Vec`s and a
    // refcount block each).
    row("wrap", 4.0, 0.1),
    // A message is one encode and decode through a two-stage chain
    // (XOR, checksum): a `Vec` per stage per direction plus each
    // direction's working copy, by contract.
    row("transform", 6.0, 0.0),
    // A message is one `Buffer` filled and frozen: storage and its
    // refcount block.
    row("Buffer build", 2.0, 0.0),
    // A message is one pooled take → fill → freeze → reclaim.
    row("pool cycle", 0.0, 0.0),
];

/// Asserts that `calls` allocator calls over `messages` messages are
/// within the census row for `path`.
fn check(path: &str, calls: u64, messages: u64) {
    let row = CENSUS
        .iter()
        .find(|r| r.path == path)
        .unwrap_or_else(|| panic!("no census row `{path}`"));
    let per = calls as f64 / messages as f64;
    eprintln!(
        "census: {path}: {per:.3} calls per message (budget {})",
        row.budget
    );
    assert!(
        per <= row.budget + row.slack,
        "{path}: {per:.3} allocator calls per message over {messages} messages \
         (budget {}, slack {})",
        row.budget,
        row.slack
    );
}

/// Allocator calls so far: the process's and this thread's.
fn calls() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        THREAD_CALLS.with(Cell::get),
    )
}

/// Calls since `start`: the process's and this thread's.
fn since(start: (u64, u64)) -> (u64, u64) {
    let now = calls();
    (now.0 - start.0, now.1 - start.1)
}

/// Registers the `pin` handler on `ctx`: it checks the first payload
/// byte and counts deliveries.
fn counted(ctx: &Context) -> Arc<AtomicU64> {
    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    ctx.register_handler("pin", move |args| {
        assert_eq!(args.buffer.as_slice().first(), Some(&0x5a));
        r.fetch_add(1, Ordering::Release);
    });
    received
}

fn wait_for(received: &AtomicU64, n: u64) {
    while received.load(Ordering::Acquire) < n {
        std::hint::spin_loop();
    }
}

/// Round trips measured after warm-up, for the in-process rows.
const ITERS: u64 = 1_000;

/// One context sends `ITERS` RSRs to itself over the local queue, one at
/// a time, running `progress` until each is delivered, with `idle` silent
/// readiness-armed sources beside the local link. Returns the thread's
/// allocator calls and the link's doorbell wakeups.
fn local_queue_calls(idle: usize) -> (u64, u64) {
    let fabric = Fabric::new();
    register_queue_modules(&fabric);
    for i in 0..idle {
        fabric.registry().register(Arc::new(
            TestModule::new(MethodId(0x100 + i as u16), "idle-ready", 1_000, false)
                .with_readiness(),
        ));
    }
    let ctx = fabric.create_context().unwrap();
    counted(&ctx);
    let sp = ctx.startpoint_to(ctx.create_endpoint()).unwrap();
    sp.set_method(MethodId::LOCAL);
    let payload = Bytes::from(vec![0x5a_u8; 64]);
    let round_trips = |n: u64| {
        for _ in 0..n {
            ctx.rsr(&sp, "pin", Buffer::from_bytes(payload.clone()))
                .unwrap();
            while ctx.progress().unwrap() == 0 {}
        }
    };

    round_trips(200); // queues, pools, rings, thread-locals
    let start = calls();
    round_trips(ITERS);
    let spent = since(start).1;
    let wakeups = ctx.trace().snapshot_method(MethodId::LOCAL).ready_wakeups;
    fabric.shutdown();
    (spent, wakeups)
}

#[test]
fn local_queue_round_trip_stays_within_the_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (spent, _) = local_queue_calls(0);
    check("rsr + poll_once, local queue", spent, ITERS);
}

#[test]
fn ready_path_stays_allocation_free_with_many_idle_armed_sources() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (spent, wakeups) = local_queue_calls(256);
    check("drain_ready, 256 idle armed sources", spent, ITERS);
    // The deliveries really took the doorbell path, not the polled tier.
    assert!(
        wakeups >= ITERS,
        "local link should deliver via doorbell wakeups, saw {wakeups}"
    );
}

#[test]
fn shard_workers_deliver_without_allocating() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::new();
    register_queue_modules(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let received = counted(&b);
    let sp = b.startpoint_to(b.create_endpoint()).unwrap();
    sp.set_method(MethodId::SHMEM);
    assert!(b.start_workers(2) > 0, "the receiver's sources are armed");
    let payload = Bytes::from(vec![0x5a_u8; 64]);
    let mut sent = 0;
    let mut pump = |n: u64| {
        for _ in 0..n {
            a.rsr(&sp, "pin", Buffer::from_bytes(payload.clone()))
                .unwrap();
            sent += 1;
            wait_for(&received, sent);
        }
    };

    pump(200);
    let start = calls();
    pump(ITERS);
    check("shard_worker_loop", since(start).0, ITERS);
    b.stop_workers();
    fabric.shutdown();
}

#[test]
fn reactor_wakeups_stay_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let reactor = Reactor::global().expect("an epoll reactor");
    let rx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    rx.set_nonblocking(true).unwrap();
    let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    tx.connect(rx.local_addr().unwrap()).unwrap();
    let fired = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&fired);
    let fd = rx.as_raw_fd();
    let id = reactor
        .watch(
            &[fd],
            Arc::new(move || {
                f.fetch_add(1, Ordering::Release);
            }),
        )
        .expect("watch the socket");
    let mut wakeups = 0;
    let mut buf = [0u8; 8];
    let mut pump = |n: u64| {
        for _ in 0..n {
            tx.send(&[0x5a]).unwrap();
            wakeups += 1;
            wait_for(&fired, wakeups);
            assert_eq!(rx.recv(&mut buf).unwrap(), 1);
            // One-shot: the fd stays disarmed until re-armed here.
            assert!(reactor.resume(id, &[fd]));
        }
    };

    pump(200);
    let start = calls();
    pump(ITERS);
    check("reactor_loop", since(start).0, ITERS);
    reactor.deregister(id, &[fd]);
}

/// A rail that delivers chunk payloads into a shared in-memory "wire":
/// a pre-reserved `VecDeque` so the enqueue itself never allocates.
struct WireRail {
    wire: Arc<parking_lot::Mutex<VecDeque<Bytes>>>,
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let wire = Arc::new(parking_lot::Mutex::new(VecDeque::with_capacity(64)));
    let rail = || {
        StripeRail::new(Arc::new(WireRail {
            wire: Arc::clone(&wire),
        }))
    };
    let striped = StripedObject::new(vec![rail(), rail()]).with_cutoff(4096);
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
    let start = calls();
    for _ in 0..MEASURED {
        cycle(&mut completions);
    }
    let spent = since(start).1;
    assert_eq!(completions, WARMUP + MEASURED);
    check("striped_send + stripe_drain", spent, MEASURED as u64);
}

#[test]
fn bulk_pull_stays_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::new();
    register_queue_modules(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let received = counted(&b);
    let sp = b.startpoint_to(b.create_endpoint()).unwrap();
    sp.set_method(MethodId::SHMEM);
    a.set_rendezvous(&sp, 0);
    let payload = Bytes::from(vec![0x5a_u8; 4096]);
    let mut sent = 0;
    let mut pump = |n: u64| {
        for _ in 0..n {
            a.rsr_bulk(&sp, "pin", Buffer::from_bytes(payload.clone()))
                .unwrap();
            sent += 1;
            // b takes the announce and asks; a serves the pull; b delivers.
            while received.load(Ordering::Acquire) < sent {
                b.progress().unwrap();
                a.progress().unwrap();
            }
        }
        assert_eq!(a.bulk_regions(), 0, "regions drained");
        assert_eq!(b.bulk_pulls_pending(), 0, "pulls drained");
    };

    pump(200);
    let start = calls();
    pump(ITERS);
    check("rsr_bulk + bulk_pull_service", since(start).1, ITERS);
    fabric.shutdown();
}

/// Two contexts over `method`: `a` sends from the calling thread, `b` is
/// driven by a thread of its own and counts `pin` deliveries.
struct WirePair {
    fabric: Fabric,
    a: Arc<Context>,
    sp: Startpoint,
    received: Arc<AtomicU64>,
    sent: u64,
    stop: Arc<AtomicBool>,
    driver: JoinHandle<()>,
}

impl WirePair {
    fn new(method: MethodId) -> WirePair {
        let fabric = Fabric::new();
        register_defaults(&fabric);
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();
        let received = counted(&b);
        let sp = b.startpoint_to(b.create_endpoint()).unwrap();
        sp.set_method(method);
        let stop = Arc::new(AtomicBool::new(false));
        let driver = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    b.progress().unwrap();
                }
            })
        };
        WirePair {
            fabric,
            a,
            sp,
            received,
            sent: 0,
            stop,
            driver,
        }
    }

    /// Sends `n` messages of `payload`, each after the previous one was
    /// delivered.
    fn send_each(&mut self, payload: &Bytes, n: u64) {
        for _ in 0..n {
            self.a
                .rsr(&self.sp, "pin", Buffer::from_bytes(payload.clone()))
                .unwrap();
            self.sent += 1;
            wait_for(&self.received, self.sent);
        }
    }

    /// Sends `bursts` bursts of `burst` messages back to back from a
    /// context that does not run in between, then runs it once (the
    /// benchmark's `wire_stream_small` shape) and waits for the burst.
    fn send_bursts(&mut self, payload: &Bytes, bursts: u64, burst: u64) {
        for _ in 0..bursts {
            for _ in 0..burst {
                self.a
                    .rsr(&self.sp, "pin", Buffer::from_bytes(payload.clone()))
                    .unwrap();
            }
            self.a.progress().unwrap();
            self.sent += burst;
            wait_for(&self.received, self.sent);
        }
    }

    /// Stops the receiver's thread and the fabric; returns the sender.
    fn finish(self) -> Arc<Context> {
        self.stop.store(true, Ordering::Relaxed);
        self.driver.join().unwrap();
        self.fabric.shutdown();
        self.a
    }
}

/// Steady-state allocator calls over a TCP loopback socket, `iters`
/// messages of `len` bytes after `warm`: (the sending thread's, the
/// process's).
fn tcp_calls(len: usize, warm: u64, iters: u64) -> (u64, u64) {
    let mut pair = WirePair::new(MethodId::TCP);
    let payload = Bytes::from(vec![0x5a_u8; len]);
    pair.send_each(&payload, warm); // connect, accept, arm, pools, the large frame's storage
    let start = calls();
    pair.send_each(&payload, iters);
    let (all, sender) = since(start);
    let a = pair.finish();
    assert_eq!(
        a.trace().snapshot_method(MethodId::TCP).sends,
        warm + iters,
        "the messages really went over TCP"
    );
    (sender, all)
}

#[test]
fn tcp_round_trip_stays_within_the_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (writer, both) = tcp_calls(64, 200, 1_000);
    check("tcp writer", writer, 1_000);
    check("tcp reader + writer, 64 B", both, 1_000);
    let (writer, both) = tcp_calls(1 << 20, 20, 100);
    check("tcp writer", writer, 100);
    check("tcp reader + writer, 1 MiB", both, 100);
}

#[test]
fn tcp_burst_stays_within_the_allocation_budget() {
    const BURST: u64 = 256;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut pair = WirePair::new(MethodId::TCP);
    let payload = Bytes::from(vec![0x5a_u8; 64]);
    pair.send_bursts(&payload, 20, BURST); // the staging buffer, the backstop
    let start = calls();
    pair.send_bursts(&payload, 100, BURST);
    let (all, sender) = since(start);
    pair.finish();
    check("tcp writer, staged burst", sender, 100 * BURST);
    check("tcp reader + writer, staged burst", all, 100 * BURST);
}

#[test]
fn rudp_send_allocates_its_frame() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut pair = WirePair::new(MethodId::RUDP);
    let payload = Bytes::from(vec![0x5a_u8; 64]);
    pair.send_each(&payload, 200);
    let start = calls();
    pair.send_each(&payload, ITERS);
    let (_, sender) = since(start);
    pair.finish();
    check("rudp send", sender, ITERS);
}

#[test]
fn udp_round_trip_copies_on_decode() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut pair = WirePair::new(MethodId::UDP);
    let payload = Bytes::from(vec![0x5a_u8; 64]);
    pair.send_each(&payload, 200);
    let start = calls();
    pair.send_each(&payload, ITERS);
    let (all, _) = since(start);
    pair.finish();
    check("udp round trip", all, ITERS);
}

#[test]
fn wrap_copies_the_payload_once_each_way() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::new();
    let xor = MethodId(0x200);
    fabric.registry().register(Arc::new(WrapModule::new(
        xor,
        "xor-shmem",
        5,
        Arc::new(ShmemModule::new()),
        Arc::new(XorCipher::new(0x5eed)),
    )));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let received = counted(&b);
    let sp = b.startpoint_to(b.create_endpoint()).unwrap();
    sp.set_method(xor);
    let payload = Bytes::from(vec![0x5a_u8; 64]);
    let mut sent = 0;
    let mut pump = |n: u64| {
        for _ in 0..n {
            a.rsr(&sp, "pin", Buffer::from_bytes(payload.clone()))
                .unwrap();
            sent += 1;
            while received.load(Ordering::Acquire) < sent {
                b.progress().unwrap();
            }
        }
    };

    pump(200);
    let start = calls();
    pump(ITERS);
    check("wrap", since(start).1, ITERS);
    assert_eq!(a.trace().snapshot_method(xor).sends, 200 + ITERS);
    fabric.shutdown();
}

#[test]
fn transform_chain_copies_per_stage() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let chain = Chain::new(vec![Box::new(XorCipher::new(0x5eed)), Box::new(Checksum)]);
    let payload = vec![0x5a_u8; 64];
    let round = |n: u64| {
        for _ in 0..n {
            let wire = chain.encode(&payload);
            assert_eq!(chain.decode(&wire).unwrap(), payload);
        }
    };
    round(8);
    let start = calls();
    round(ITERS);
    check("transform", since(start).1, ITERS);
}

/// `BytesMut` keeps its bytes in a plain `Vec` and gets its refcount block
/// at `freeze` — a new one for a new buffer, the one it came back with for
/// a pooled buffer — so building a `Buffer` costs what it did when the
/// block came with the storage, and the pool's cycle still costs nothing.
#[test]
fn building_a_buffer_costs_storage_and_one_refcount_block() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let start = calls();
    let mut buf = Buffer::with_capacity(16);
    buf.put_u32(1);
    buf.put_u32(2);
    buf.put_f32(3.0);
    buf.put_i32(-4);
    let bytes = std::hint::black_box(buf.into_bytes());
    let spent = since(start).1;
    assert_eq!(spent, 2, "storage + refcount block");
    check("Buffer build", spent, 1);
    assert_eq!(bytes.len(), 16);

    let cycle = |n: u32| {
        for i in 0..n {
            let mut m = pool::take(64);
            m.extend_from_slice(&[i as u8; 48]);
            pool::reclaim(std::hint::black_box(m.freeze()));
        }
    };
    cycle(8); // warm: the thread's pool and its first buffer
    let start = calls();
    cycle(1_000);
    check("pool cycle", since(start).1, 1_000);
}
