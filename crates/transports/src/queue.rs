//! Shared machinery for the in-process queue transports.
//!
//! The `local`, `shmem`, and `mpl` modules all move RSRs through
//! lock-free per-context queues; they differ only in their applicability
//! rules, descriptors, and cost characteristics. [`QueueMedium`] is the
//! shared "wire": a map from context id to its inbound queue.

use crossbeam::queue::SegQueue;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{ContextId, ContextInfo};
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{send_parts_fallback, CommObject, CommReceiver, Staged};
use nexus_rt::poll::ReadySignal;
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::trace::Trace;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One context's inbound mailbox: the message queue plus the doorbell the
/// poll engine installs when it arms the source. The bell is *replaceable*
/// (not write-once): when a context hands its armed sources to a
/// [`nexus_rt::shard::WorkerPool`] and later takes them back, each
/// transition re-arms the source with a fresh signal routing to the new
/// owner's ready list (the context engine's, or the pool's one list).
pub struct QueueInbox {
    queue: SegQueue<Rsr>,
    bell: RwLock<Option<ReadySignal>>,
}

/// Ring capacity reserved per inbox at registration: two engine drain
/// batches (`READY_BATCH` = 32) of backlog absorbed without a deque
/// growth. Bursts deeper than this still land (the queue is unbounded);
/// they just pay the usual amortized doublings, which the bench alloc
/// gates budget for. ~5 KiB per context — cheap enough to pay up front
/// so the common pipelined burst never allocates mid-measurement.
const INBOX_RESERVE: usize = 64;

impl QueueInbox {
    fn new() -> Self {
        let queue = SegQueue::new();
        queue.reserve(INBOX_RESERVE);
        QueueInbox {
            queue,
            bell: RwLock::new(None),
        }
    }

    /// Enqueues one RSR and rings the doorbell (if armed). The push is
    /// completed *before* the ring — the ordering the engine's
    /// no-missed-wakeup protocol relies on.
    fn push(&self, rsr: Rsr) {
        self.queue.push(rsr);
        if let Some(bell) = self.bell.read().as_ref() {
            bell.ring();
        }
    }
}

impl Default for QueueInbox {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared medium: one inbound mailbox per registered context.
#[derive(Default)]
pub struct QueueMedium {
    queues: Mutex<HashMap<ContextId, Arc<QueueInbox>>>,
}

impl QueueMedium {
    /// Creates an empty medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a context and returns its inbound mailbox.
    pub fn register(&self, ctx: ContextId) -> Arc<QueueInbox> {
        let q = Arc::new(QueueInbox::new());
        self.queues.lock().insert(ctx, Arc::clone(&q));
        q
    }

    /// Removes a context's mailbox (shutdown).
    pub fn unregister(&self, ctx: ContextId) {
        self.queues.lock().remove(&ctx);
    }

    /// Looks up a context's mailbox.
    pub fn queue_for(&self, ctx: ContextId) -> Option<Arc<QueueInbox>> {
        self.queues.lock().get(&ctx).cloned()
    }
}

/// Placement facts a queue descriptor carries on the wire: enough for any
/// applicability rule the queue transports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDescriptor {
    /// Target context.
    pub context: ContextId,
    /// Target node.
    pub node: u32,
    /// Target partition ("session id" in MPL terms).
    pub partition: u32,
}

impl QueueDescriptor {
    /// Builds the wire descriptor for `method` from context placement.
    pub fn encode(method: MethodId, info: &ContextInfo) -> CommDescriptor {
        let mut b = Buffer::new();
        b.put_u32(info.id.0);
        b.put_u32(info.node.0);
        b.put_u32(info.partition.0);
        CommDescriptor::new(method, b.into_bytes().to_vec())
    }

    /// Parses a queue descriptor's payload.
    pub fn decode(desc: &CommDescriptor) -> Result<QueueDescriptor> {
        let mut b = Buffer::new();
        b.put_raw(&desc.data);
        Ok(QueueDescriptor {
            context: ContextId(b.get_u32()?),
            node: b.get_u32()?,
            partition: b.get_u32()?,
        })
    }
}

/// Receive side: pops from the context's queue.
pub struct QueueReceiver {
    medium: Arc<QueueMedium>,
    ctx: ContextId,
    queue: Arc<QueueInbox>,
}

impl QueueReceiver {
    /// Registers `ctx` in the medium and returns its receiver.
    pub fn new(medium: Arc<QueueMedium>, ctx: ContextId) -> Self {
        let queue = medium.register(ctx);
        QueueReceiver { medium, ctx, queue }
    }
}

impl CommReceiver for QueueReceiver {
    fn poll(&mut self) -> Result<Option<Rsr>> {
        Ok(self.queue.queue.pop())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Rsr>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(m) = self.queue.queue.pop() {
                return Ok(Some(m));
            }
            if std::time::Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::yield_now();
        }
    }

    fn set_ready_signal(&mut self, signal: ReadySignal) -> bool {
        *self.queue.bell.write() = Some(signal);
        true
    }

    fn close(&mut self) {
        self.medium.unregister(self.ctx);
    }
}

/// Sender side: pushes into the target context's queue.
pub struct QueueObject {
    method: MethodId,
    queue: Arc<QueueInbox>,
}

impl QueueObject {
    /// Connects to `target` within `medium`.
    pub fn connect(
        method: MethodId,
        medium: &QueueMedium,
        target: ContextId,
    ) -> Result<Arc<dyn CommObject>> {
        let queue = medium
            .queue_for(target)
            .ok_or(NexusError::UnknownContext(target))?;
        Ok(Arc::new(QueueObject { method, queue }))
    }
}

impl CommObject for QueueObject {
    fn method(&self) -> MethodId {
        self.method
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
        // In-process move: no wire bytes, so the shared frame is unused
        // (and thus never encoded when every link is queue-based). The
        // clone is refcount bumps only — interned handler, shared payload.
        // `push` rings the receiver's doorbell after the enqueue.
        self.queue.push(rsr.clone());
        Ok(Staged::Written)
    }

    fn supports_region_map(&self) -> bool {
        // The receiver pops the very `Bytes` storage the sender pushed:
        // a pulled bulk region can be borrowed in place, no copies.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nexus_rt::context::{NodeId, PartitionId};
    use nexus_rt::endpoint::EndpointId;

    fn info(id: u32, node: u32, part: u32) -> ContextInfo {
        ContextInfo {
            id: ContextId(id),
            node: NodeId(node),
            partition: PartitionId(part),
        }
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = QueueDescriptor::encode(MethodId::MPL, &info(3, 4, 5));
        assert_eq!(d.method, MethodId::MPL);
        let q = QueueDescriptor::decode(&d).unwrap();
        assert_eq!(q.context, ContextId(3));
        assert_eq!(q.node, 4);
        assert_eq!(q.partition, 5);
    }

    #[test]
    fn medium_send_receive() {
        let medium = Arc::new(QueueMedium::new());
        let mut rx = QueueReceiver::new(Arc::clone(&medium), ContextId(1));
        let obj = QueueObject::connect(MethodId::SHMEM, &medium, ContextId(1)).unwrap();
        assert!(rx.poll().unwrap().is_none());
        obj.send(
            &Rsr::new(ContextId(1), EndpointId(9), "h", Bytes::new()),
            &WireFrame::new(),
        )
        .unwrap();
        let m = rx.poll().unwrap().unwrap();
        assert_eq!(m.endpoint, EndpointId(9));
    }

    #[test]
    fn connect_to_unknown_context_fails() {
        let medium = QueueMedium::new();
        assert!(QueueObject::connect(MethodId::SHMEM, &medium, ContextId(9)).is_err());
    }

    #[test]
    fn close_unregisters() {
        let medium = Arc::new(QueueMedium::new());
        let mut rx = QueueReceiver::new(Arc::clone(&medium), ContextId(1));
        rx.close();
        assert!(medium.queue_for(ContextId(1)).is_none());
    }

    #[test]
    fn rearming_replaces_the_doorbell() {
        // Pool adoption re-arms a live source with a new signal; the old
        // bell must fall silent and the new one must ring. A write-once
        // bell would silently keep routing wakeups to the retired owner.
        let medium = Arc::new(QueueMedium::new());
        let mut rx = QueueReceiver::new(Arc::clone(&medium), ContextId(1));
        let first: Arc<SegQueue<usize>> = Arc::new(SegQueue::new());
        let second: Arc<SegQueue<usize>> = Arc::new(SegQueue::new());
        assert!(rx.set_ready_signal(ReadySignal::new(7, Arc::clone(&first))));
        assert!(rx.set_ready_signal(ReadySignal::new(9, Arc::clone(&second))));
        let obj = QueueObject::connect(MethodId::SHMEM, &medium, ContextId(1)).unwrap();
        obj.send(
            &Rsr::new(ContextId(1), EndpointId(1), "x", Bytes::new()),
            &WireFrame::new(),
        )
        .unwrap();
        assert!(first.pop().is_none(), "retired bell must not ring");
        assert_eq!(second.pop(), Some(9));
    }

    #[test]
    fn recv_timeout_returns_when_message_arrives() {
        let medium = Arc::new(QueueMedium::new());
        let mut rx = QueueReceiver::new(Arc::clone(&medium), ContextId(1));
        let obj = QueueObject::connect(MethodId::SHMEM, &medium, ContextId(1)).unwrap();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            obj.send(
                &Rsr::new(ContextId(1), EndpointId(1), "x", Bytes::new()),
                &WireFrame::new(),
            )
            .unwrap();
        });
        let m = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(m.is_some());
        h.join().unwrap();
    }
}
