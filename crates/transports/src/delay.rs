//! WAN emulation: a wrapping module that adds receive-side latency (and
//! optional deterministic jitter) to any transport.
//!
//! The paper's testbed emulated a metropolitan-area ATM link with two SP2
//! partitions ("this two-partition configuration has similar performance
//! characteristics to two SP2 systems connected by a tuned OC3"). This
//! module is the live-runtime version of that trick: wrap loopback TCP in
//! a [`DelayModule`] with 2 ms latency and you have the paper's wide-area
//! path on one machine, usable in examples and tests.

use crate::util::XorShift;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::ContextInfo;
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{CommModule, CommObject, CommReceiver, Staged};
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::trace::Trace;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A method = `inner` transport + emulated one-way latency.
pub struct DelayModule {
    method: MethodId,
    name: &'static str,
    rank: u32,
    inner: Arc<dyn CommModule>,
    latency_us: Arc<AtomicU64>,
    jitter_us: Arc<AtomicU64>,
    /// Injected busy-wait per probe, emulating an expensive readiness scan
    /// (the paper's 100 µs `select`) on hardware where the real probe is
    /// cheap. Lets live experiments reproduce the poll-cost differential.
    probe_cost_ns: Arc<AtomicU64>,
    rng: Arc<XorShift>,
}

impl DelayModule {
    /// Wraps `inner` with `latency` one-way delay, registering under
    /// `method` (use the custom id range).
    pub fn new(
        method: MethodId,
        name: &'static str,
        rank: u32,
        inner: Arc<dyn CommModule>,
        latency: Duration,
    ) -> Self {
        DelayModule {
            method,
            name,
            rank,
            inner,
            latency_us: Arc::new(AtomicU64::new(latency.as_micros() as u64)),
            jitter_us: Arc::new(AtomicU64::new(0)),
            probe_cost_ns: Arc::new(AtomicU64::new(0)),
            rng: Arc::new(XorShift::new(7)),
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
            return Err(NexusError::Decode(
                "descriptor is not for this delay method",
            ));
        }
        let mut b = Buffer::new();
        b.put_raw(&desc.data);
        let inner_method = MethodId(b.get_u16()?);
        let data = b.get_raw(b.remaining())?;
        Ok(CommDescriptor::new(inner_method, data))
    }
}

struct DelayReceiver {
    inner: Box<dyn CommReceiver>,
    latency_us: Arc<AtomicU64>,
    jitter_us: Arc<AtomicU64>,
    probe_cost_ns: Arc<AtomicU64>,
    rng: Arc<XorShift>,
    held: VecDeque<(Instant, Rsr)>,
}

impl DelayReceiver {
    fn pump(&mut self) -> Result<()> {
        while let Some(msg) = self.inner.poll()? {
            let base = self.latency_us.load(Ordering::Relaxed);
            let jitter = self.jitter_us.load(Ordering::Relaxed);
            let extra = if jitter > 0 {
                (self.rng.next_f64() * jitter as f64) as u64
            } else {
                0
            };
            let release = Instant::now() + Duration::from_micros(base + extra);
            self.held.push_back((release, msg));
        }
        Ok(())
    }
}

impl CommReceiver for DelayReceiver {
    // Deliberately no `set_ready_signal` forward: a doorbell rung at
    // enqueue time would trigger one visit *before* the emulated latency
    // elapses — the visit finds nothing, the source parks, and the held
    // message would never be delivered. Time-release semantics need the
    // polled tier.
    fn poll(&mut self) -> Result<Option<Rsr>> {
        let cost = self.probe_cost_ns.load(Ordering::Relaxed);
        if cost > 0 {
            let t = Instant::now();
            while (t.elapsed().as_nanos() as u64) < cost {
                std::hint::spin_loop();
            }
        }
        self.pump()?;
        // Holding queue is release-ordered only when jitter is zero; scan
        // for any released message to keep jittered delivery prompt.
        let now = Instant::now();
        if let Some(pos) = self.held.iter().position(|(t, _)| *t <= now) {
            return Ok(self.held.remove(pos).map(|(_, m)| m));
        }
        Ok(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Rsr>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(m) = self.poll()? {
                return Ok(Some(m));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

struct DelayObject {
    method: MethodId,
    inner: Arc<dyn CommObject>,
}

impl CommObject for DelayObject {
    fn method(&self) -> MethodId {
        self.method
    }
    fn transfer(
        &self,
        rsr: &Rsr,
        frame: &WireFrame,
        head: &[u8],
        _stage: Option<&Trace>,
    ) -> Result<Staged> {
        // Delay is receive-side: pass the send straight through, never
        // staging (the delay is the receiver's, and it flushes nothing).
        self.inner.transfer(rsr, frame, head, None)
    }
    fn set_param(&self, key: &str, value: &str) -> Result<()> {
        self.inner.set_param(key, value)
    }
    fn close(&self) {
        self.inner.close();
    }
}

impl CommModule for DelayModule {
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
            Box::new(DelayReceiver {
                inner: inner_rx,
                latency_us: Arc::clone(&self.latency_us),
                jitter_us: Arc::clone(&self.jitter_us),
                probe_cost_ns: Arc::clone(&self.probe_cost_ns),
                rng: Arc::clone(&self.rng),
                held: VecDeque::new(),
            }),
        ))
    }
    fn applicable(&self, local: &ContextInfo, desc: &CommDescriptor) -> bool {
        self.unwrap_descriptor(desc)
            .map(|d| self.inner.applicable(local, &d))
            .unwrap_or(false)
    }
    fn connect(&self, local: &ContextInfo, desc: &CommDescriptor) -> Result<Arc<dyn CommObject>> {
        let inner_desc = self.unwrap_descriptor(desc)?;
        Ok(Arc::new(DelayObject {
            method: self.method,
            inner: self.inner.connect(local, &inner_desc)?,
        }))
    }
    fn poll_cost_ns(&self) -> u64 {
        self.inner.poll_cost_ns()
    }
    fn supports_blocking(&self) -> bool {
        self.inner.supports_blocking()
    }
    fn set_param(&self, key: &str, value: &str) -> Result<()> {
        match key {
            "latency_us" => {
                let v: u64 = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not an integer: {value:?}"),
                })?;
                self.latency_us.store(v, Ordering::Relaxed);
                Ok(())
            }
            "jitter_us" => {
                let v: u64 = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not an integer: {value:?}"),
                })?;
                self.jitter_us.store(v, Ordering::Relaxed);
                Ok(())
            }
            "probe_cost_ns" => {
                let v: u64 = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not an integer: {value:?}"),
                })?;
                self.probe_cost_ns.store(v, Ordering::Relaxed);
                Ok(())
            }
            "seed" => {
                let v: u64 = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not an integer: {value:?}"),
                })?;
                self.rng.reseed(v);
                Ok(())
            }
            _ => self.inner.set_param(key, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    const WAN: MethodId = MethodId(0x110);

    fn wan(latency_ms: u64) -> DelayModule {
        DelayModule::new(
            WAN,
            "wan-shmem",
            35,
            Arc::new(ShmemModule::new()),
            Duration::from_millis(latency_ms),
        )
    }

    fn msg() -> Rsr {
        Rsr::new(ContextId(1), EndpointId(1), "h", bytes::Bytes::new())
    }

    #[test]
    fn delivery_is_delayed_by_the_configured_latency() {
        let m = wan(20);
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let t0 = Instant::now();
        obj.send(&msg(), &WireFrame::new()).unwrap();
        // Immediately: held, not delivered.
        assert!(rx.poll().unwrap().is_none());
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(got.is_some());
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(20),
            "released after the latency: {elapsed:?}"
        );
    }

    #[test]
    fn order_is_preserved_without_jitter() {
        let m = wan(5);
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        for i in 0..10u32 {
            let mut r = msg();
            r.handler = format!("h{i}").as_str().into();
            obj.send(&r, &WireFrame::new()).unwrap();
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 10 && Instant::now() < deadline {
            if let Some(x) = rx.poll().unwrap() {
                got.push(x.handler);
            }
        }
        let expect: Vec<String> = (0..10).map(|i| format!("h{i}")).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn params_adjust_latency_and_reject_garbage() {
        let m = wan(50);
        m.set_param("latency_us", "1000").unwrap();
        m.set_param("jitter_us", "500").unwrap();
        m.set_param("seed", "3").unwrap();
        assert!(m.set_param("latency_us", "x").is_err());
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let t0 = Instant::now();
        obj.send(&msg(), &WireFrame::new()).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "new latency applies"
        );
    }

    #[test]
    fn injected_probe_cost_is_observable() {
        let m = wan(0);
        m.set_param("probe_cost_ns", "200000").unwrap();
        let (_desc, mut rx) = m.open(&info(1)).unwrap();
        let t = Instant::now();
        for _ in 0..10 {
            let _ = rx.poll().unwrap();
        }
        assert!(
            t.elapsed() >= Duration::from_millis(2),
            "10 polls at 200 µs each: {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn end_to_end_wan_emulation_in_the_runtime() {
        use nexus_rt::context::Fabric;
        use std::sync::atomic::AtomicU32;
        let fabric = Fabric::new();
        fabric.registry().register(Arc::new(wan(10)));
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();
        let hit_at = Arc::new(parking_lot::Mutex::new(None));
        let count = Arc::new(AtomicU32::new(0));
        {
            let h = Arc::clone(&hit_at);
            let c = Arc::clone(&count);
            b.register_handler("x", move |_| {
                *h.lock() = Some(Instant::now());
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        let t0 = Instant::now();
        a.rsr(&sp, "x", Buffer::new()).unwrap();
        assert!(b.progress_until(
            || count.load(Ordering::Relaxed) == 1,
            Duration::from_secs(5)
        ));
        let dt = hit_at.lock().unwrap() - t0;
        assert!(
            dt >= Duration::from_millis(10),
            "WAN latency observed: {dt:?}"
        );
        fabric.shutdown();
    }
}
