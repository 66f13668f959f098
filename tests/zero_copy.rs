//! Integration tests for the encode-once / zero-copy RSR frame contract.
//!
//! The send path hands every transport the same [`WireFrame`]; the frame's
//! body (handler + payload, the part identical for every destination) must
//! be encoded **at most once** per `Context::rsr` call, no matter how many
//! links the startpoint multicasts over or how many failover retries a
//! flaky method forces.

use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{ContextId, ContextInfo, Fabric};
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::fault_support::FlakyModule;
use nexus_rt::module::{send_parts_fallback, CommModule, CommObject, CommReceiver, Staged};
use nexus_rt::rsr::{body_encode_count, Rsr, WireFrame};
use nexus_rt::trace::Trace;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `body_encode_count` is process-global, so tests that assert deltas on
/// it must not interleave.
static ENCODE_COUNTER_SERIAL: Mutex<()> = Mutex::new(());

/// A queue transport that round-trips real wire bytes: send encodes the
/// frame (header + shared body) into one contiguous message, receive
/// decodes it. This is the cheapest module that exercises the encode path
/// the way tcp/udp do, without sockets.
struct WireSimModule {
    id: MethodId,
    rank: u32,
    medium: Arc<Mutex<HashMap<ContextId, Arc<crossbeam::queue::SegQueue<Bytes>>>>>,
}

impl WireSimModule {
    fn new(id: MethodId, rank: u32) -> Self {
        WireSimModule {
            id,
            rank,
            medium: Arc::new(Mutex::new(HashMap::new())),
        }
    }
}

struct WireSimReceiver {
    queue: Arc<crossbeam::queue::SegQueue<Bytes>>,
}

impl CommReceiver for WireSimReceiver {
    fn poll(&mut self) -> Result<Option<Rsr>> {
        match self.queue.pop() {
            // Borrow-based decode straight off the wire bytes.
            Some(wire) => Ok(Some(Rsr::decode_shared(wire)?)),
            None => Ok(None),
        }
    }
}

struct WireSimObject {
    id: MethodId,
    queue: Arc<crossbeam::queue::SegQueue<Bytes>>,
}

impl CommObject for WireSimObject {
    fn method(&self) -> MethodId {
        self.id
    }
    fn transfer(
        &self,
        rsr: &Rsr,
        frame: &WireFrame,
        head: &[u8],
        _stage: Option<&Trace>,
    ) -> Result<Staged> {
        if !head.is_empty() {
            return send_parts_fallback(self, rsr, head);
        }
        // Exactly what the socket transports do: per-destination header
        // plus the shared (encoded-at-most-once) body.
        let body = frame.body(rsr);
        let header = WireFrame::prefixed_header(rsr, body.len());
        let mut wire = Vec::with_capacity(header.len() + body.len());
        wire.extend_from_slice(&header);
        wire.extend_from_slice(body);
        // The length prefix is a transport framing detail; the decoder
        // takes the frame starting at the RSR header.
        let end = wire.len();
        self.queue.push(Bytes::from(wire).slice(4..end));
        Ok(Staged::Written)
    }
}

impl CommModule for WireSimModule {
    fn method(&self) -> MethodId {
        self.id
    }
    fn name(&self) -> &'static str {
        "wiresim"
    }
    fn cost_rank(&self) -> u32 {
        self.rank
    }
    fn open(&self, ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)> {
        let queue = Arc::new(crossbeam::queue::SegQueue::new());
        self.medium.lock().insert(ctx.id, Arc::clone(&queue));
        let mut b = Buffer::new();
        b.put_u32(ctx.id.0);
        Ok((
            CommDescriptor::new(self.id, b.into_bytes().to_vec()),
            Box::new(WireSimReceiver { queue }),
        ))
    }
    fn applicable(&self, _local: &ContextInfo, desc: &CommDescriptor) -> bool {
        desc.method == self.id
    }
    fn connect(&self, _local: &ContextInfo, desc: &CommDescriptor) -> Result<Arc<dyn CommObject>> {
        let mut b = Buffer::new();
        b.put_raw(&desc.data);
        let ctx = ContextId(b.get_u32()?);
        let queue = self
            .medium
            .lock()
            .get(&ctx)
            .cloned()
            .ok_or(NexusError::UnknownContext(ctx))?;
        Ok(Arc::new(WireSimObject { id: self.id, queue }))
    }
    fn poll_cost_ns(&self) -> u64 {
        100
    }
}

#[test]
fn multicast_over_eight_links_encodes_the_body_exactly_once() {
    let _serial = ENCODE_COUNTER_SERIAL.lock();
    let fabric = Fabric::new();
    fabric
        .registry()
        .register(Arc::new(WireSimModule::new(MethodId::TCP, 10)));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();

    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    b.register_handler("fanout", move |args| {
        let got = args.buffer.get_bytes(5).unwrap();
        assert_eq!(&got[..], b"hello");
        r.fetch_add(1, Ordering::Relaxed);
    });

    let mut sp = b.startpoint_to(b.create_endpoint()).unwrap();
    for _ in 1..8 {
        sp.merge(&b.startpoint_to(b.create_endpoint()).unwrap());
    }
    assert_eq!(sp.links().len(), 8);

    let before = body_encode_count();
    a.rsr(
        &sp,
        "fanout",
        Buffer::from_bytes(Bytes::from_static(b"hello")),
    )
    .unwrap();
    assert_eq!(
        body_encode_count() - before,
        1,
        "one rsr() over 8 links must encode the shared body exactly once"
    );

    while received.load(Ordering::Relaxed) < 8 {
        b.progress().unwrap();
    }
    fabric.shutdown();
}

/// TCP never asks for the shared body at all: its vectored write gathers
/// the payload from the message's own storage, so building the body would
/// be a copy of the payload with nine bytes in front. (The wire-sim
/// transport above stands for the methods that do still encode: once.)
#[test]
fn tcp_rsr_does_not_encode_a_frame_body() {
    let _serial = ENCODE_COUNTER_SERIAL.lock();
    let fabric = Fabric::new();
    nexus_transports::register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    b.register_handler("gathered", move |args| {
        assert_eq!(args.buffer.len(), 1 << 20);
        assert!(args.buffer.as_slice().iter().all(|&x| x == 0x5a));
        r.fetch_add(1, Ordering::Relaxed);
    });
    let sp = b.startpoint_to(b.create_endpoint()).unwrap();
    sp.set_method(MethodId::TCP);
    let payload = Bytes::from(vec![0x5a_u8; 1 << 20]);

    let before = body_encode_count();
    std::thread::scope(|sc| {
        sc.spawn(|| {
            a.rsr(&sp, "gathered", Buffer::from_bytes(payload.clone()))
                .unwrap()
        });
        while received.load(Ordering::Relaxed) < 1 {
            b.progress().unwrap();
        }
    });
    assert_eq!(
        body_encode_count() - before,
        0,
        "a TCP send must gather the payload, not encode a body around it"
    );
    assert_eq!(a.trace().snapshot_method(MethodId::TCP).sends, 1);
    fabric.shutdown();
}

#[test]
fn failover_retries_reuse_the_already_encoded_frame() {
    let _serial = ENCODE_COUNTER_SERIAL.lock();
    let fabric = Fabric::new();
    // Preferred method: flaky, and broken from the start. Its send path
    // touches the shared frame body (like a real wire transport) before
    // failing, which triggers the one and only encode.
    let flaky = Arc::new(FlakyModule::new(MethodId::TCP, "flaky", 10));
    flaky.set_broken(true);
    let failed_sends = Arc::clone(&flaky.failed_sends);
    fabric.registry().register(flaky);
    // Fallback: the wire-sim transport, which also reads the frame body —
    // from the cache populated by the failed attempt.
    fabric
        .registry()
        .register(Arc::new(WireSimModule::new(MethodId::UDP, 20)));

    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    b.register_handler("retry", move |args| {
        assert_eq!(&args.buffer.get_bytes(2).unwrap()[..], b"ok");
        r.fetch_add(1, Ordering::Relaxed);
    });
    let sp = b.startpoint_to(b.create_endpoint()).unwrap();

    let before = body_encode_count();
    a.rsr(&sp, "retry", Buffer::from_bytes(Bytes::from_static(b"ok")))
        .unwrap();
    assert_eq!(
        failed_sends.load(Ordering::Relaxed),
        1,
        "the broken preferred method must have been attempted"
    );
    assert_eq!(
        body_encode_count() - before,
        1,
        "the failover retry must reuse the frame encoded by the first attempt"
    );

    while received.load(Ordering::Relaxed) < 1 {
        b.progress().unwrap();
    }
    fabric.shutdown();
}
