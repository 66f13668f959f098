//! Property-based tests of the bulk-region registry lifetime, plus the
//! end-to-end zero-copy guarantee of the mapped pull path.
//!
//! The [`BulkRegistry`] owns every exposed region's lifetime: a region
//! must disappear exactly once — after its expected pulls complete, when
//! its owner cancels it, or when its deadline expires — and never sooner
//! while a pull is in flight, never later once nothing references it.
//! The properties below drive arbitrary interleavings of pulls, guard
//! drops, cancellations, and sweeps (single-threaded sequences and
//! genuinely concurrent pullers) and assert the registry always drains
//! back to empty without panicking, double-freeing, or leaking.

use bytes::Bytes;
use nexus::rt::buffer::Buffer;
use nexus::rt::bulk::{BulkRegistry, PullGuard};
use nexus::rt::context::{ContextInfo, Fabric};
use nexus::rt::descriptor::{CommDescriptor, MethodId};
use nexus::rt::error::Result as NexusResult;
use nexus::rt::module::{CommModule, CommObject, CommReceiver};
use nexus::rt::rsr::body_encode_count;
use nexus::transports::queue::{QueueDescriptor, QueueMedium, QueueObject, QueueReceiver};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Registry lifetime properties
// ---------------------------------------------------------------------------

/// How a generated region's deadline is set at registration.
#[derive(Debug, Clone, Copy)]
enum DeadlineKind {
    /// No deadline: lives until released or fully pulled.
    None,
    /// Already expired when the first operation runs.
    Past,
    /// Far enough out that the test never reaches it.
    Future,
}

/// One step of a generated registry schedule. Indices are taken modulo
/// the relevant live set, so every generated sequence is executable.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Start serving one pull of region `i % regions`.
    BeginPull(usize),
    /// Drop an outstanding guard (retiring its pull).
    DropGuard(usize),
    /// Owner cancellation — deliberately generated more than once per
    /// region so idempotent double-release is exercised.
    Release(usize),
    /// Release every expired region, as the deadline sweeper would.
    Sweep,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Pulls and drops dominate; releases and sweeps are rarer spice.
    prop_oneof![
        (0usize..8).prop_map(Op::BeginPull),
        (0usize..8).prop_map(Op::BeginPull),
        (0usize..8).prop_map(Op::DropGuard),
        (0usize..8).prop_map(Op::DropGuard),
        (0usize..8).prop_map(Op::Release),
        Just(Op::Sweep),
    ]
}

fn deadline_strategy() -> impl Strategy<Value = DeadlineKind> {
    prop_oneof![
        Just(DeadlineKind::None),
        Just(DeadlineKind::Past),
        Just(DeadlineKind::Future),
    ]
}

proptest! {
    /// Any single-threaded interleaving of pulls, guard drops,
    /// cancellations, and sweeps leaves the registry empty once every
    /// guard is dropped and every region released — and every guard ever
    /// granted saw exactly the bytes its region was registered with.
    #[test]
    fn registry_drains_under_arbitrary_schedules(
        regions in proptest::collection::vec((1u32..4, deadline_strategy()), 1..5),
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let reg = BulkRegistry::new();
        let base = Instant::now();
        let mut ids = Vec::new();
        for (i, &(pulls, kind)) in regions.iter().enumerate() {
            // Distinct fill byte per region so a guard serving the wrong
            // region's bytes is caught.
            let data = Bytes::from(vec![i as u8 + 1; 32 + i]);
            let deadline = match kind {
                DeadlineKind::None => None,
                DeadlineKind::Past => Some(base - Duration::from_millis(1)),
                DeadlineKind::Future => Some(base + Duration::from_secs(3600)),
            };
            ids.push((reg.register(data.clone(), pulls, deadline), data, kind));
        }
        prop_assert_eq!(reg.len(), ids.len());

        let mut guards: Vec<PullGuard> = Vec::new();
        for op in ops {
            match op {
                Op::BeginPull(i) => {
                    let (id, data, kind) = &ids[i % ids.len()];
                    if let Some(g) = reg.begin_pull(*id) {
                        // An expired region must deny, never serve.
                        prop_assert!(!matches!(kind, DeadlineKind::Past));
                        prop_assert_eq!(&g.data()[..], &data[..]);
                        prop_assert_eq!(g.region(), *id);
                        guards.push(g);
                    }
                }
                Op::DropGuard(i) => {
                    if !guards.is_empty() {
                        let k = i % guards.len();
                        guards.swap_remove(k);
                    }
                }
                Op::Release(i) => {
                    let (id, _, _) = &ids[i % ids.len()];
                    // May be true or false (idempotent); must not panic
                    // even with pulls of this region still in flight.
                    let _ = reg.release(*id);
                }
                Op::Sweep => {
                    for id in reg.sweep(Instant::now()) {
                        // Only regions that had a deadline can expire.
                        let had_deadline = ids
                            .iter()
                            .any(|(r, _, k)| *r == id && !matches!(k, DeadlineKind::None));
                        prop_assert!(had_deadline);
                    }
                }
            }
        }

        // In-flight guards still hold valid views of their regions even
        // if the region was cancelled or expired behind them.
        for g in &guards {
            prop_assert!(!g.data().is_empty());
        }
        drop(guards);
        for (id, _, _) in &ids {
            let _ = reg.release(*id);
        }
        prop_assert_eq!(reg.len(), 0, "registry must drain to empty");
        for (id, _, _) in &ids {
            prop_assert!(reg.begin_pull(*id).is_none(), "released id must stay dead");
        }
    }

    /// Concurrent pullers racing each other (and optionally a
    /// mid-stream owner cancellation) never over-grant, never panic,
    /// and always leave the registry empty.
    #[test]
    fn concurrent_pulls_and_cancel_never_leak(
        expected in 1u32..10,
        pullers in 1usize..4,
        cancel in any::<bool>(),
    ) {
        let reg = Arc::new(BulkRegistry::new());
        let data = Bytes::from(vec![0xAB; 256]);
        let id = reg.register(data.clone(), expected, None);
        let granted = Arc::new(AtomicU32::new(0));
        std::thread::scope(|s| {
            for _ in 0..pullers {
                let reg = Arc::clone(&reg);
                let granted = Arc::clone(&granted);
                let want = data.clone();
                s.spawn(move || {
                    while let Some(g) = reg.begin_pull(id) {
                        assert_eq!(&g.data()[..], &want[..]);
                        granted.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                        drop(g);
                    }
                });
            }
            if cancel {
                // Owner cancellation racing the pullers: whatever pulls
                // already started complete on their own data views.
                std::thread::yield_now();
                let _ = reg.release(id);
            }
        });
        let served = granted.load(Ordering::Relaxed);
        prop_assert!(served <= expected, "granted {served} of {expected} pulls");
        if !cancel {
            prop_assert_eq!(served, expected, "uncancelled pulls all serve");
        }
        let _ = reg.release(id);
        prop_assert_eq!(reg.len(), 0, "registry must drain to empty");
        prop_assert!(reg.begin_pull(id).is_none());
    }

    /// Deadline expiry under concurrent pulls: pulls that started before
    /// expiry finish on their own views; pulls after expiry are denied;
    /// the sweep releases everything that remains. No interleaving hangs
    /// or leaks.
    #[test]
    fn deadline_expiry_races_in_flight_pulls(pullers in 1usize..4) {
        let reg = Arc::new(BulkRegistry::new());
        let deadline = Instant::now() + Duration::from_millis(2);
        let id = reg.register(Bytes::from_static(b"ticking"), u32::MAX, Some(deadline));
        std::thread::scope(|s| {
            for _ in 0..pullers {
                let reg = Arc::clone(&reg);
                // Until a pull is denied: the deadline has passed.
                s.spawn(move || {
                    while let Some(g) = reg.begin_pull(id) {
                        assert_eq!(&g.data()[..], b"ticking");
                        drop(g);
                    }
                });
            }
        });
        prop_assert!(Instant::now() >= deadline, "pullers only stop on expiry");
        let swept = reg.sweep(Instant::now());
        prop_assert!(swept.len() <= 1, "at most the one region expires");
        prop_assert_eq!(reg.len(), 0, "expired region must be gone");
    }
}

// ---------------------------------------------------------------------------
// End-to-end zero-copy mapped pull
// ---------------------------------------------------------------------------

/// A region-mapping rail: `connect` hands back the raw in-process queue
/// object (`supports_region_map() == true`), the shmem stand-in the
/// mapped pull path keys off.
struct MappingRail {
    medium: Arc<QueueMedium>,
}

impl CommModule for MappingRail {
    fn method(&self) -> MethodId {
        MethodId(0x510)
    }

    fn name(&self) -> &'static str {
        "test-mapping-rail"
    }

    fn cost_rank(&self) -> u32 {
        10
    }

    fn open(&self, ctx: &ContextInfo) -> NexusResult<(CommDescriptor, Box<dyn CommReceiver>)> {
        let desc = QueueDescriptor::encode(self.method(), ctx);
        let rx = QueueReceiver::new(Arc::clone(&self.medium), ctx.id);
        Ok((desc, Box::new(rx)))
    }

    fn applicable(&self, _local: &ContextInfo, desc: &CommDescriptor) -> bool {
        desc.method == self.method()
    }

    fn connect(
        &self,
        _local: &ContextInfo,
        desc: &CommDescriptor,
    ) -> NexusResult<Arc<dyn CommObject>> {
        let d = QueueDescriptor::decode(desc)?;
        QueueObject::connect(self.method(), &self.medium, d.context)
            .map(|o| o as Arc<dyn CommObject>)
    }

    fn poll_cost_ns(&self) -> u64 {
        100
    }
}

/// A rendezvous pull over a region-mapping method is zero-copy end to
/// end: the handler at the receiver observes the *same storage* the
/// sender registered (pointer identity, not just equal bytes), and the
/// whole announce → get → deliver protocol never encodes a frame body
/// (`body_encode_count` is how the runtime counts per-byte wire work).
///
/// `body_encode_count` is process-global; this is the only test in this
/// binary that sends RSRs, so no serialization lock is needed.
#[test]
fn mapped_pull_is_zero_copy_end_to_end() {
    let fabric = Fabric::new();
    fabric.registry().register(Arc::new(MappingRail {
        medium: Arc::new(QueueMedium::new()),
    }));
    let tx = fabric.create_context().expect("create sender");
    let rx = fabric.create_context().expect("create receiver");

    // (pointer, length, first/last byte) observed inside the handler.
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let sink = Arc::clone(&seen);
    rx.register_handler("sink", move |args| {
        let s = args.buffer.as_slice();
        *sink.lock() = Some((s.as_ptr() as usize, s.len(), s[0], s[s.len() - 1]));
    });
    let sp = rx.startpoint_to(rx.create_endpoint()).expect("bind");
    tx.set_rendezvous(&sp, 0); // every payload takes the rendezvous path

    let payload: Vec<u8> = (0..4 << 20).map(|i| (i % 251) as u8).collect();
    let data = Bytes::from(payload);
    let region_ptr = data.as_ptr() as usize;

    let encodes_before = body_encode_count();
    tx.rsr_bulk(&sp, "sink", Buffer::from_bytes(data.clone()))
        .expect("rsr_bulk");
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.lock().is_none() {
        assert!(Instant::now() < deadline, "pull never completed");
        rx.progress().expect("rx progress");
        tx.progress().expect("tx progress");
    }

    let (ptr, len, first, last) = seen.lock().take().expect("delivered");
    assert_eq!(len, data.len(), "full region delivered");
    assert_eq!((first, last), (data[0], data[len - 1]));
    assert_eq!(
        ptr, region_ptr,
        "receiver must borrow the registered storage in place"
    );
    assert_eq!(
        body_encode_count() - encodes_before,
        0,
        "mapped pull protocol must never encode a frame body"
    );
    assert_eq!(tx.bulk_regions(), 0, "region auto-released after its pull");
    assert_eq!(rx.bulk_pulls_pending(), 0, "no pull bookkeeping left");
    fabric.shutdown();
}
