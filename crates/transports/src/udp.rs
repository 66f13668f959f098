//! The `udp` module: unreliable datagrams.
//!
//! Some data — shared-state updates, video frames, instrument samples —
//! tolerates loss but not latency, which is why the paper lists UDP among
//! the methods an application may want *in addition to* reliable delivery
//! (§2). This module sends each RSR as a single datagram over a real UDP
//! socket. Delivery is not guaranteed and large RSRs are rejected
//! (datagram transports do not fragment application frames).
//!
//! Because loopback UDP essentially never drops packets, the module offers
//! deterministic *fault injection*: the `loss` parameter drops that
//! fraction of sends (before the socket write), driven by a seeded RNG, so
//! tests and examples can exercise loss handling reproducibly.

use crate::util::XorShift;
use nexus_rt::context::ContextInfo;
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{send_parts_fallback, CommModule, CommObject, CommReceiver, Staged};
use nexus_rt::pool;
use nexus_rt::rsr::{Rsr, WireFrame, HEADER_LEN};
use nexus_rt::trace::Trace;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest RSR frame accepted (fits comfortably in one datagram).
pub const MAX_DATAGRAM: usize = 60_000;

/// Unreliable datagram module with deterministic loss injection.
pub struct UdpModule {
    /// Loss probability in [0,1], stored as f64 bits. Shared with every
    /// connected object, so `set_param("loss", ...)` affects existing
    /// connections live.
    loss_bits: Arc<AtomicU64>,
    rng: Arc<XorShift>,
    /// Sends dropped by injection (observability for tests/benches).
    injected_drops: Arc<AtomicU64>,
}

impl Default for UdpModule {
    fn default() -> Self {
        Self::new()
    }
}

impl UdpModule {
    /// Creates the module with no loss injection.
    pub fn new() -> Self {
        UdpModule {
            loss_bits: Arc::new(AtomicU64::new(0f64.to_bits())),
            rng: Arc::new(XorShift::new(1)),
            injected_drops: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of sends suppressed by loss injection so far.
    pub fn injected_drops(&self) -> u64 {
        self.injected_drops.load(Ordering::Relaxed)
    }
}

/// Datagrams one scan takes off the socket at most — what the poll
/// engine delivers per doorbell visit, so a burst is read in one go
/// without a flood growing the queue unboundedly.
const SCAN_BATCH: usize = 32;

pub(crate) struct UdpReceiver {
    socket: UdpSocket,
    buf: Vec<u8>,
    pending: VecDeque<Rsr>,
}

impl UdpReceiver {
    pub(crate) fn new(socket: UdpSocket) -> UdpReceiver {
        UdpReceiver {
            socket,
            buf: vec![0; 65_536],
            pending: VecDeque::with_capacity(SCAN_BATCH),
        }
    }

    /// Queues up to [`SCAN_BATCH`] datagrams; returns whether any arrived.
    fn scan(&mut self) -> Result<bool> {
        let mut received = false;
        while self.pending.len() < SCAN_BATCH {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, _)) => {
                    received = true;
                    self.pending.push_back(Rsr::decode(&self.buf[..n])?);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(received)
    }
}

impl crate::reactor::FdSource for UdpReceiver {
    fn scan(&mut self, _fired: bool) -> Result<bool> {
        UdpReceiver::scan(self)
    }

    fn pop(&mut self) -> Option<Rsr> {
        self.pending.pop_front()
    }

    fn fill_fds(&self, out: &mut Vec<std::os::fd::RawFd>) {
        use std::os::fd::AsRawFd;
        out.push(self.socket.as_raw_fd());
    }
}

impl CommReceiver for UdpReceiver {
    fn poll(&mut self) -> Result<Option<Rsr>> {
        if let Some(m) = self.pending.pop_front() {
            return Ok(Some(m));
        }
        self.scan()?;
        Ok(self.pending.pop_front())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Rsr>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(m) = self.poll()? {
                return Ok(Some(m));
            }
            if std::time::Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

struct UdpObject {
    socket: UdpSocket,
    loss_bits: Arc<AtomicU64>,
    rng: Arc<XorShift>,
    injected_drops: Arc<AtomicU64>,
}

impl CommObject for UdpObject {
    fn method(&self) -> MethodId {
        MethodId::UDP
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
        let wire = rsr.wire_len();
        if wire > MAX_DATAGRAM {
            return Err(NexusError::BadParam {
                key: "payload".to_owned(),
                reason: format!(
                    "RSR frame of {wire} bytes exceeds UDP datagram limit {MAX_DATAGRAM}"
                ),
            });
        }
        let loss = f64::from_bits(self.loss_bits.load(Ordering::Relaxed));
        if loss > 0.0 && self.rng.next_f64() < loss {
            // Injected loss: the datagram silently vanishes, exactly like a
            // congested router would make it. The shared body is still
            // materialized (a real send would need it), keeping the
            // encode-once accounting independent of loss injection.
            let _ = frame.body(rsr);
            self.injected_drops.fetch_add(1, Ordering::Relaxed);
            return Ok(Staged::Written);
        }
        // Datagrams need one contiguous buffer; assemble header + shared
        // body in pooled scratch so steady-state sends do not allocate.
        let body = frame.body(rsr);
        let mut dgram = pool::take(HEADER_LEN + body.len());
        dgram.extend_from_slice(&rsr.header());
        dgram.extend_from_slice(body);
        let sent = self.socket.send(&dgram);
        pool::give(dgram);
        sent?;
        Ok(Staged::Written)
    }
}

impl CommModule for UdpModule {
    fn method(&self) -> MethodId {
        MethodId::UDP
    }

    fn name(&self) -> &'static str {
        "udp"
    }

    fn cost_rank(&self) -> u32 {
        40
    }

    fn open(&self, _ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        let addr = socket.local_addr()?;
        let inner = UdpReceiver::new(socket);
        Ok((
            CommDescriptor::new(MethodId::UDP, addr.to_string().into_bytes()),
            Box::new(crate::reactor::ReactorReceiver::new(inner)),
        ))
    }

    fn applicable(&self, _local: &ContextInfo, desc: &CommDescriptor) -> bool {
        desc.method == MethodId::UDP && crate::util::parse_socket_addr(&desc.data).is_ok()
    }

    fn connect(&self, _local: &ContextInfo, desc: &CommDescriptor) -> Result<Arc<dyn CommObject>> {
        let addr: SocketAddr = crate::util::parse_socket_addr(&desc.data)?;
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(addr)?;
        Ok(Arc::new(UdpObject {
            socket,
            loss_bits: Arc::clone(&self.loss_bits),
            rng: Arc::clone(&self.rng),
            injected_drops: Arc::clone(&self.injected_drops),
        }))
    }

    fn poll_cost_ns(&self) -> u64 {
        20_000
    }

    fn supports_blocking(&self) -> bool {
        true
    }

    fn supports_readiness(&self) -> bool {
        // Via the shared reactor (`ReactorReceiver`); if the kernel
        // refuses an epoll instance, arming fails and the source stays
        // in the polled tier.
        true
    }

    fn set_param(&self, key: &str, value: &str) -> Result<()> {
        match key {
            "loss" => {
                let v: f64 = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not a float: {value:?}"),
                })?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(NexusError::BadParam {
                        key: key.to_owned(),
                        reason: "loss must be in [0,1]".to_owned(),
                    });
                }
                self.loss_bits.store(v.to_bits(), Ordering::Relaxed);
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
            _ => Err(NexusError::BadParam {
                key: key.to_owned(),
                reason: "udp supports loss and seed".to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nexus_rt::context::{ContextId, NodeId, PartitionId};
    use nexus_rt::endpoint::EndpointId;

    fn info(id: u32) -> ContextInfo {
        ContextInfo {
            id: ContextId(id),
            node: NodeId(id),
            partition: PartitionId(id),
        }
    }

    fn msg(h: &str) -> Rsr {
        Rsr::new(ContextId(1), EndpointId(1), h, Bytes::new())
    }

    #[test]
    fn roundtrip_over_loopback() {
        let m = UdpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        obj.send(&msg("dgram"), &WireFrame::new()).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got.handler, "dgram");
    }

    #[test]
    fn oversized_datagram_rejected() {
        let m = UdpModule::new();
        let (desc, _rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let big = Rsr::new(
            ContextId(1),
            EndpointId(1),
            "big",
            Bytes::from(vec![0u8; MAX_DATAGRAM + 1]),
        );
        assert!(obj.send(&big, &WireFrame::new()).is_err());
    }

    #[test]
    fn loss_injection_drops_deterministically() {
        let m = UdpModule::new();
        m.set_param("seed", "99").unwrap();
        m.set_param("loss", "0.5").unwrap();
        let (desc, _rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        for _ in 0..200 {
            obj.send(&msg("x"), &WireFrame::new()).unwrap();
        }
        let drops = m.injected_drops();
        assert!(
            (60..140).contains(&(drops as i64)),
            "≈half of 200 sends should drop, got {drops}"
        );
    }

    #[test]
    fn loss_param_validation() {
        let m = UdpModule::new();
        assert!(m.set_param("loss", "1.5").is_err());
        assert!(m.set_param("loss", "x").is_err());
        assert!(m.set_param("loss", "0.25").is_ok());
        assert!(m.set_param("seed", "y").is_err());
        assert!(m.set_param("other", "1").is_err());
    }
}
