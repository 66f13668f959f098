//! End-to-end striping over real, method-heterogeneous transports: one
//! logical RSR split across an in-process shmem queue and a loopback TCP
//! socket at once, plus rail-death scenarios — a dying rail's chunks
//! reroute to survivors inside the stripe, and when every rail dies the
//! error surfaces through the context's normal failover machinery.

use nexus_rt::buffer::Buffer;
use nexus_rt::context::{ContextInfo, Fabric};
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{CommModule, CommObject, CommReceiver, Staged};
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::trace::{Trace, TraceEventKind};
use nexus_transports::queue::{QueueDescriptor, QueueMedium, QueueObject, QueueReceiver};
use nexus_transports::{ShmemModule, TcpModule};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn patterned(len: usize) -> Buffer {
    let mut b = Buffer::new();
    for i in 0..len {
        b.put_raw(&[(i % 251) as u8]);
    }
    b
}

fn check_pattern(buf: &[u8]) -> bool {
    buf.iter().enumerate().all(|(i, &x)| x == (i % 251) as u8)
}

/// A queue-backed module whose sender objects can be killed at runtime:
/// while the switch is on, every send fails with `ConnectionClosed`,
/// exactly like a transport whose peer vanished mid-transfer.
struct FragileModule {
    method: MethodId,
    name: &'static str,
    rank: u32,
    medium: Arc<QueueMedium>,
    killed: Arc<AtomicBool>,
}

impl FragileModule {
    fn new(method: MethodId, name: &'static str, rank: u32) -> (Self, Arc<AtomicBool>) {
        let killed = Arc::new(AtomicBool::new(false));
        (
            FragileModule {
                method,
                name,
                rank,
                medium: Arc::new(QueueMedium::new()),
                killed: Arc::clone(&killed),
            },
            killed,
        )
    }
}

impl CommModule for FragileModule {
    fn method(&self) -> MethodId {
        self.method
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn cost_rank(&self) -> u32 {
        self.rank
    }

    fn open(&self, ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)> {
        let desc = QueueDescriptor::encode(self.method, ctx);
        let rx = QueueReceiver::new(Arc::clone(&self.medium), ctx.id);
        Ok((desc, Box::new(rx)))
    }

    fn applicable(&self, _local: &ContextInfo, desc: &CommDescriptor) -> bool {
        desc.method == self.method
    }

    fn connect(&self, _local: &ContextInfo, desc: &CommDescriptor) -> Result<Arc<dyn CommObject>> {
        let d = QueueDescriptor::decode(desc)?;
        let inner = QueueObject::connect(self.method, &self.medium, d.context)?;
        Ok(Arc::new(FragileObject {
            inner,
            killed: Arc::clone(&self.killed),
        }))
    }

    fn poll_cost_ns(&self) -> u64 {
        100
    }
}

struct FragileObject {
    inner: Arc<dyn CommObject>,
    killed: Arc<AtomicBool>,
}

impl CommObject for FragileObject {
    fn method(&self) -> MethodId {
        self.inner.method()
    }

    fn transfer(
        &self,
        rsr: &Rsr,
        frame: &WireFrame,
        head: &[u8],
        _stage: Option<&Trace>,
    ) -> Result<Staged> {
        if self.killed.load(Ordering::Relaxed) {
            return Err(NexusError::ConnectionClosed);
        }
        self.inner.transfer(rsr, frame, head, None)
    }
}

/// Receiver context with a handler that verifies the 256 KiB pattern.
fn bulk_receiver(ctx: &nexus_rt::context::Context, len: usize) -> Arc<AtomicU32> {
    let ok = Arc::new(AtomicU32::new(0));
    let k = Arc::clone(&ok);
    ctx.register_handler("bulk", move |args| {
        let n = args.buffer.remaining();
        let got = args.buffer.get_raw(n).unwrap();
        assert_eq!(got.len(), len);
        assert!(check_pattern(&got), "reassembled body corrupted");
        k.fetch_add(1, Ordering::Relaxed);
    });
    ok
}

/// The headline e2e: a 256 KiB RSR between two contexts with both shmem
/// and TCP applicable is carried by *both* methods at once — the
/// receiver's per-method counters each see chunk traffic — and the
/// reassembled body is byte-exact.
#[test]
fn stripe_rides_shmem_and_tcp_simultaneously() {
    const LEN: usize = 256 * 1024;
    let fabric = Fabric::new();
    fabric.registry().register(Arc::new(ShmemModule::new()));
    fabric.registry().register(Arc::new(TcpModule::new()));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let ok = bulk_receiver(&b, LEN);
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();

    assert_eq!(a.set_striped(&sp, 4096).unwrap(), 1);
    a.rsr(&sp, "bulk", patterned(LEN)).unwrap();
    assert_eq!(sp.current_methods()[0].1, Some(MethodId::STRIPE));
    assert!(b.progress_until(|| ok.load(Ordering::Relaxed) == 1, Duration::from_secs(10)));

    // Method heterogeneity: chunks of the one transfer arrived over both
    // substrates, not just the fastest one.
    assert!(b.trace().snapshot_method(MethodId::SHMEM).recvs >= 1);
    assert!(b.trace().snapshot_method(MethodId::TCP).recvs >= 1);
    assert_eq!(a.trace().snapshot_method(MethodId::STRIPE).sends, 1);
    fabric.shutdown();
}

/// A rail dying mid-stream: the fragile rail's chunk send fails inside
/// `striped_send` after the TCP rail is already carrying its share of
/// the same transfer; the chunk reroutes to the surviving rail and the
/// message still reassembles. No context-level failover fires — the
/// stripe absorbs the death internally.
#[test]
fn rail_death_reroutes_chunks_to_the_surviving_rail() {
    const LEN: usize = 128 * 1024;
    let fabric = Fabric::new();
    let (frag, kill) = FragileModule::new(MethodId::SHMEM, "frag", 5);
    fabric.registry().register(Arc::new(frag));
    fabric.registry().register(Arc::new(TcpModule::new()));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let ok = bulk_receiver(&b, LEN);
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();

    assert_eq!(a.set_striped(&sp, 4096).unwrap(), 1);
    a.rsr(&sp, "bulk", patterned(LEN)).unwrap();
    assert!(b.progress_until(|| ok.load(Ordering::Relaxed) == 1, Duration::from_secs(10)));

    kill.store(true, Ordering::Relaxed);
    a.rsr(&sp, "bulk", patterned(LEN)).unwrap();
    assert!(b.progress_until(|| ok.load(Ordering::Relaxed) == 2, Duration::from_secs(10)));

    // Still striped, and the death never reached the failover machinery.
    assert_eq!(sp.current_methods()[0].1, Some(MethodId::STRIPE));
    assert_eq!(a.trace().snapshot_method(MethodId::STRIPE).failovers, 0);
    assert!(!a
        .trace()
        .events()
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::Failover { .. })));
    fabric.shutdown();
}

/// Every rail dead: `striped_send` runs out of rails and the error feeds
/// the context's failover path — a `Failover` event from STRIPE is
/// recorded, the send surfaces an error once nothing is left, and after
/// the transports recover the link re-selects a plain method and flows.
#[test]
fn all_rails_dead_feeds_the_context_failover_path() {
    const LEN: usize = 64 * 1024;
    let fabric = Fabric::new();
    let (frag_a, kill_a) = FragileModule::new(MethodId::SHMEM, "frag-shmem", 5);
    let (frag_b, kill_b) = FragileModule::new(MethodId::MPL, "frag-mpl", 10);
    fabric.registry().register(Arc::new(frag_a));
    fabric.registry().register(Arc::new(frag_b));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let ok = bulk_receiver(&b, LEN);
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();

    assert_eq!(a.set_striped(&sp, 4096).unwrap(), 1);
    a.rsr(&sp, "bulk", patterned(LEN)).unwrap();
    assert!(b.progress_until(|| ok.load(Ordering::Relaxed) == 1, Duration::from_secs(10)));

    kill_a.store(true, Ordering::Relaxed);
    kill_b.store(true, Ordering::Relaxed);
    // The stripe fails, then each plain method is tried and fails too.
    assert!(a.rsr(&sp, "bulk", patterned(LEN)).is_err());
    assert!(a.trace().events().iter().any(|e| matches!(
        e.kind,
        TraceEventKind::Failover {
            from: MethodId::STRIPE,
            ..
        }
    )));
    assert!(a.trace().snapshot_method(MethodId::STRIPE).failovers >= 1);

    // Transports recover: the evicted connections are re-established and
    // the link lands on a plain method (the stripe install is gone).
    kill_a.store(false, Ordering::Relaxed);
    kill_b.store(false, Ordering::Relaxed);
    a.rsr(&sp, "bulk", patterned(LEN)).unwrap();
    assert_eq!(sp.current_methods()[0].1, Some(MethodId::SHMEM));
    assert!(b.progress_until(|| ok.load(Ordering::Relaxed) == 2, Duration::from_secs(10)));
    fabric.shutdown();
}
