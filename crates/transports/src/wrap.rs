//! Wrapping modules: a communication method built by composing a payload
//! transform with an existing transport.
//!
//! A [`WrapModule`] registers under its *own* method id, so selection
//! treats "compressed-TCP" or "encrypted-TCP" as a first-class method a
//! startpoint can be pinned to or a descriptor table can advertise —
//! exactly how the paper frames compression and site-boundary encryption
//! as *method choices* (§2, §2.1), and an instance of the x-kernel/Horus
//! protocol-composition idea its related-work section discusses.
//!
//! The wire format notes the transformed payload inside an RSR whose
//! header (dest/endpoint/handler) stays in the clear, mirroring the
//! paper's observation that control information and data can be protected
//! differently.

use crate::transform::PayloadTransform;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::ContextInfo;
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{send_parts_fallback, CommModule, CommObject, CommReceiver, Staged};
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::trace::Trace;
use std::sync::Arc;
use std::time::Duration;

/// A method = `transform` ∘ `inner` transport.
pub struct WrapModule {
    method: MethodId,
    name: &'static str,
    rank: u32,
    inner: Arc<dyn CommModule>,
    transform: Arc<dyn PayloadTransform>,
}

impl WrapModule {
    /// Creates a wrapping module. `method` must not collide with a
    /// registered method; use the custom id range
    /// ([`MethodId::FIRST_CUSTOM`] and up). `rank` orders it in default
    /// descriptor tables (e.g. rank a compressed-TCP *after* plain TCP so
    /// it is only chosen when explicitly preferred).
    pub fn new(
        method: MethodId,
        name: &'static str,
        rank: u32,
        inner: Arc<dyn CommModule>,
        transform: Arc<dyn PayloadTransform>,
    ) -> Self {
        WrapModule {
            method,
            name,
            rank,
            inner,
            transform,
        }
    }

    fn wrap_descriptor(&self, inner_desc: &CommDescriptor) -> CommDescriptor {
        let mut b = Buffer::with_capacity(2 + inner_desc.data.len());
        b.put_u16(inner_desc.method.0);
        b.put_raw(&inner_desc.data);
        CommDescriptor::new(self.method, b.into_bytes().to_vec())
    }

    fn unwrap_descriptor(&self, desc: &CommDescriptor) -> Result<CommDescriptor> {
        if desc.method != self.method {
            return Err(NexusError::Decode("descriptor is not for this wrapper"));
        }
        let mut b = Buffer::new();
        b.put_raw(&desc.data);
        let inner_method = MethodId(b.get_u16()?);
        let data = b.get_raw(b.remaining())?;
        Ok(CommDescriptor::new(inner_method, data))
    }
}

struct WrapReceiver {
    inner: Box<dyn CommReceiver>,
    transform: Arc<dyn PayloadTransform>,
}

impl WrapReceiver {
    fn unwrap_msg(&self, msg: Rsr) -> Result<Rsr> {
        let payload = self.transform.decode(&msg.payload)?;
        Ok(Rsr {
            payload: payload.into(),
            ..msg
        })
    }
}

impl CommReceiver for WrapReceiver {
    fn poll(&mut self) -> Result<Option<Rsr>> {
        match self.inner.poll()? {
            Some(msg) => Ok(Some(self.unwrap_msg(msg)?)),
            None => Ok(None),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Rsr>> {
        match self.inner.recv_timeout(timeout)? {
            Some(msg) => Ok(Some(self.unwrap_msg(msg)?)),
            None => Ok(None),
        }
    }

    fn set_ready_signal(&mut self, signal: nexus_rt::poll::ReadySignal) -> bool {
        // The transform applies on `poll`, so readiness is exactly the
        // inner transport's: its ring means "a frame is retrievable here".
        self.inner.set_ready_signal(signal)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

struct WrapObject {
    method: MethodId,
    inner: Arc<dyn CommObject>,
    transform: Arc<dyn PayloadTransform>,
}

impl CommObject for WrapObject {
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
        // The transform rewrites the payload, so the outer message's
        // shared frame cannot be reused: the wrapped RSR gets a frame of
        // its own (encoded once, reclaimed after the inner send).
        let wrapped = Rsr {
            payload: self.transform.encode(&rsr.payload).into(),
            ..rsr.clone()
        };
        let inner_frame = WireFrame::new();
        let sent = self.inner.transfer(&wrapped, &inner_frame, &[], None);
        inner_frame.reclaim();
        sent
    }

    fn set_param(&self, key: &str, value: &str) -> Result<()> {
        self.inner.set_param(key, value)
    }

    fn close(&self) {
        self.inner.close();
    }
}

impl CommModule for WrapModule {
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
        let (inner_desc, inner_rx) = self.inner.open(ctx)?;
        Ok((
            self.wrap_descriptor(&inner_desc),
            Box::new(WrapReceiver {
                inner: inner_rx,
                transform: Arc::clone(&self.transform),
            }),
        ))
    }

    fn applicable(&self, local: &ContextInfo, desc: &CommDescriptor) -> bool {
        self.unwrap_descriptor(desc)
            .map(|inner| self.inner.applicable(local, &inner))
            .unwrap_or(false)
    }

    fn connect(&self, local: &ContextInfo, desc: &CommDescriptor) -> Result<Arc<dyn CommObject>> {
        let inner_desc = self.unwrap_descriptor(desc)?;
        Ok(Arc::new(WrapObject {
            method: self.method,
            inner: self.inner.connect(local, &inner_desc)?,
            transform: Arc::clone(&self.transform),
        }))
    }

    fn poll_cost_ns(&self) -> u64 {
        self.inner.poll_cost_ns()
    }

    fn supports_blocking(&self) -> bool {
        self.inner.supports_blocking()
    }

    fn supports_readiness(&self) -> bool {
        self.inner.supports_readiness()
    }

    fn set_param(&self, key: &str, value: &str) -> Result<()> {
        self.inner.set_param(key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{Chain, Checksum, Rle, XorCipher};
    use crate::ShmemModule;
    use nexus_rt::context::{ContextId, NodeId, PartitionId};
    use nexus_rt::endpoint::EndpointId;

    fn info(id: u32) -> ContextInfo {
        ContextInfo {
            id: ContextId(id),
            node: NodeId(0),
            partition: PartitionId(0),
        }
    }

    const SECURE: MethodId = MethodId(0x100);

    fn secure_shmem() -> WrapModule {
        WrapModule::new(
            SECURE,
            "secure-shmem",
            6,
            Arc::new(ShmemModule::new()),
            Arc::new(Chain::new(vec![
                Box::new(Rle),
                Box::new(XorCipher::new(77)),
                Box::new(Checksum),
            ])),
        )
    }

    #[test]
    fn wrapped_transport_roundtrips() {
        let m = secure_shmem();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        assert_eq!(desc.method, SECURE);
        assert!(m.applicable(&info(2), &desc));
        let obj = m.connect(&info(2), &desc).unwrap();
        let payload = vec![5u8; 4096];
        obj.send(
            &Rsr::new(ContextId(1), EndpointId(3), "h", payload.clone().into()),
            &WireFrame::new(),
        )
        .unwrap();
        let got = rx.poll().unwrap().unwrap();
        assert_eq!(&got.payload[..], &payload[..], "transform is transparent");
        assert_eq!(got.handler, "h");
    }

    #[test]
    fn payload_is_actually_transformed_on_the_wire() {
        // Wrap a shmem whose queue we can also read directly: send via the
        // wrapper, then inspect what a *plain* receiver of the same inner
        // module would see. We do this by wrapping and sending, then
        // decoding the inner frame by hand.
        let inner = Arc::new(ShmemModule::new());
        let m = WrapModule::new(
            SECURE,
            "cipher-shmem",
            6,
            Arc::clone(&inner) as _,
            Arc::new(XorCipher::new(9)),
        );
        // Open the *inner* receiver directly so we see raw wire payloads.
        use nexus_rt::module::CommModule as _;
        let (inner_desc, mut raw_rx) = inner.open(&info(1)).unwrap();
        let wrapped_desc = {
            // Build the wrapper descriptor for the same context by hand.
            let mut b = Buffer::with_capacity(2 + inner_desc.data.len());
            b.put_u16(inner_desc.method.0);
            b.put_raw(&inner_desc.data);
            CommDescriptor::new(SECURE, b.into_bytes().to_vec())
        };
        let obj = m.connect(&info(2), &wrapped_desc).unwrap();
        let secret = b"confidential coupling fields".to_vec();
        obj.send(
            &Rsr::new(ContextId(1), EndpointId(1), "h", secret.clone().into()),
            &WireFrame::new(),
        )
        .unwrap();
        let on_wire = raw_rx.poll().unwrap().unwrap();
        assert_ne!(
            &on_wire.payload[..],
            &secret[..],
            "plaintext must not cross the wire"
        );
        assert_eq!(on_wire.handler, "h", "headers stay in the clear");
    }

    #[test]
    fn corruption_is_detected_at_the_receiver() {
        // Checksum-wrapped transport + a corrupting man-in-the-middle:
        // feed the receiver a frame whose payload was tampered with.
        let inner = Arc::new(ShmemModule::new());
        let m = WrapModule::new(
            SECURE,
            "checksum-shmem",
            6,
            Arc::clone(&inner) as _,
            Arc::new(Checksum),
        );
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        // A direct inner connection lets us inject a tampered frame.
        use nexus_rt::module::CommModule as _;
        let inner_desc = m.unwrap_descriptor(&desc).unwrap();
        let tamper = inner.connect(&info(2), &inner_desc).unwrap();
        let mut bad = Checksum.encode(b"data");
        bad[0] ^= 1;
        tamper
            .send(
                &Rsr::new(ContextId(1), EndpointId(1), "h", bad.into()),
                &WireFrame::new(),
            )
            .unwrap();
        assert!(matches!(rx.poll(), Err(NexusError::Decode(_))));
    }

    #[test]
    fn end_to_end_through_the_runtime_with_manual_selection() {
        use nexus_rt::context::Fabric;
        use std::sync::atomic::{AtomicU32, Ordering};
        let fabric = Fabric::new();
        crate::register_queue_modules(&fabric);
        fabric.registry().register(Arc::new(secure_shmem()));
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();
        let got = Arc::new(AtomicU32::new(0));
        {
            let g = Arc::clone(&got);
            b.register_handler("x", move |args| {
                assert_eq!(args.buffer.get_str().unwrap(), "over the secure method");
                g.fetch_add(1, Ordering::Relaxed);
            });
        }
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        // Without a pin the fast plain methods win; pin to the wrapper.
        sp.set_method(SECURE);
        let mut buf = Buffer::new();
        buf.put_str("over the secure method");
        a.rsr(&sp, "x", buf).unwrap();
        assert!(b.progress_until(
            || got.load(Ordering::Relaxed) == 1,
            std::time::Duration::from_secs(2)
        ));
        assert_eq!(b.trace().snapshot_method(SECURE).recvs, 1);
        fabric.shutdown();
    }
}
