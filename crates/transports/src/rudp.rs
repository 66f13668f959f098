//! The `rudp` module: reliable, ordered delivery layered over UDP.
//!
//! The paper's related-work discussion (x-kernel, Horus) points at building
//! richer protocols by composing simpler elements; `rudp` is that idea
//! inside this module set — a go-back-none, selective-ack reliability layer
//! on top of real UDP sockets:
//!
//! * every DATA packet carries a connection id and sequence number;
//! * the receiver acks every DATA it sees and releases messages in order,
//!   holding out-of-order arrivals in a reorder buffer;
//! * the sender keeps unacked packets and retransmits them with
//!   exponentially backed-off timeouts starting at `rto_ms`, driven by a
//!   per-connection pump thread; a packet retransmitted more than
//!   `max_retries` times marks the connection dead and every later `send`
//!   fails with [`NexusError::ConnectionClosed`], which feeds the
//!   runtime's failover / re-selection path instead of looping forever;
//! * deterministic loss injection (`loss`, `seed` parameters) applies to
//!   DATA transmissions, so reliability is actually exercised on loopback.
//!
//! Reliability invariants (each one regression-tested below):
//!
//! * a DATA packet is acked only after its RSR frame decodes — a corrupt
//!   frame is dropped *unacked* so the sender retransmits it;
//! * acks are matched on `(conn, seq)`, so a stale ack from another or an
//!   old connection can never clear the wrong unacked packet;
//! * retransmission is bounded: backoff doubles per attempt and the
//!   `max_retries` cap turns a black-holed peer into a dead connection.

use crate::util::XorShift;
use nexus_rt::context::ContextInfo;
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{CommModule, CommObject, CommReceiver, Staged};
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::trace::Trace;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TYPE_DATA: u8 = 0;
const TYPE_ACK: u8 = 1;

/// Maximum DATA payload per packet (one RSR frame; no fragmentation).
pub const MAX_FRAME: usize = 59_000;

/// The window, in sequence numbers: `send` waits until its seq is below
/// the oldest unacked seq + `WINDOW`, and the receiver drops, unacked, any
/// seq at or past its next expected + `WINDOW`, so it buffers at most
/// `WINDOW` frames per connection.
const WINDOW: u64 = 512;

/// Cap on the exponential backoff shift so the RTO cannot overflow
/// (effective ceiling: `rto_ms << 8` = 256x the base RTO).
const RTO_BACKOFF_SHIFT_CAP: u32 = 8;

fn encode_packet(ptype: u8, conn: u64, seq: u64, frame: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(17 + frame.len());
    v.push(ptype);
    v.extend_from_slice(&conn.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(frame);
    v
}

/// Builds a DATA packet around an RSR's stack header + shared body
/// without an intermediate contiguous frame. The returned `Vec` is
/// retained in the unacked queue until the peer acks it, so it owns its
/// storage rather than borrowing pooled scratch.
fn encode_data_packet(conn: u64, seq: u64, head: &[u8], body: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(17 + head.len() + body.len());
    v.push(TYPE_DATA);
    v.extend_from_slice(&conn.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(head);
    v.extend_from_slice(body);
    v
}

/// Like [`encode_data_packet`], but the RSR body is assembled from its
/// sections (`hlen handler plen head tail`) straight into the retained
/// packet — the stripe fast path never builds a combined payload.
fn encode_data_packet_parts(
    conn: u64,
    seq: u64,
    header: &[u8],
    handler: &[u8],
    head: &[u8],
    tail: &[u8],
) -> Vec<u8> {
    let plen = head.len() + tail.len();
    let mut v = Vec::with_capacity(17 + header.len() + 2 + handler.len() + 4 + plen);
    v.push(TYPE_DATA);
    v.extend_from_slice(&conn.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(header);
    v.extend_from_slice(&(handler.len() as u16).to_le_bytes());
    v.extend_from_slice(handler);
    v.extend_from_slice(&(plen as u32).to_le_bytes());
    v.extend_from_slice(head);
    v.extend_from_slice(tail);
    v
}

fn decode_header(pkt: &[u8]) -> Option<(u8, u64, u64, &[u8])> {
    if pkt.len() < 17 {
        return None;
    }
    let ptype = pkt[0];
    let conn = u64::from_le_bytes(pkt[1..9].try_into().ok()?);
    let seq = u64::from_le_bytes(pkt[9..17].try_into().ok()?);
    Some((ptype, conn, seq, &pkt[17..]))
}

/// Reliable-UDP module.
pub struct RudpModule {
    loss_bits: Arc<AtomicU64>,
    rng: Arc<XorShift>,
    rto_ms: Arc<AtomicU64>,
    max_retries: Arc<AtomicU64>,
    next_conn: AtomicU64,
    /// DATA transmissions suppressed by injection.
    injected_drops: Arc<AtomicU64>,
    /// Retransmissions performed (observability).
    retransmits: Arc<AtomicU64>,
    /// DATA packets dropped because their RSR frame failed to decode.
    corrupt_drops: Arc<AtomicU64>,
    /// Acks ignored because their connection id did not match.
    stale_acks: Arc<AtomicU64>,
    /// Connections declared dead after exhausting `max_retries`.
    dead_connections: Arc<AtomicU64>,
}

impl Default for RudpModule {
    fn default() -> Self {
        Self::new()
    }
}

impl RudpModule {
    /// Creates the module (no loss, 20 ms base RTO, 10 retransmits max).
    pub fn new() -> Self {
        RudpModule {
            loss_bits: Arc::new(AtomicU64::new(0f64.to_bits())),
            rng: Arc::new(XorShift::new(1)),
            rto_ms: Arc::new(AtomicU64::new(20)),
            max_retries: Arc::new(AtomicU64::new(10)),
            next_conn: AtomicU64::new(1),
            injected_drops: Arc::new(AtomicU64::new(0)),
            retransmits: Arc::new(AtomicU64::new(0)),
            corrupt_drops: Arc::new(AtomicU64::new(0)),
            stale_acks: Arc::new(AtomicU64::new(0)),
            dead_connections: Arc::new(AtomicU64::new(0)),
        }
    }

    /// DATA transmissions suppressed by loss injection so far.
    pub fn injected_drops(&self) -> u64 {
        self.injected_drops.load(Ordering::Relaxed)
    }

    /// Retransmissions performed so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }

    /// DATA packets dropped (unacked) because their frame was corrupt.
    pub fn corrupt_drops(&self) -> u64 {
        self.corrupt_drops.load(Ordering::Relaxed)
    }

    /// Acks ignored because they named a different connection.
    pub fn stale_acks(&self) -> u64 {
        self.stale_acks.load(Ordering::Relaxed)
    }

    /// Connections declared dead after exhausting `max_retries`.
    pub fn dead_connections(&self) -> u64 {
        self.dead_connections.load(Ordering::Relaxed)
    }
}

/// Per-source reorder state at the receiver.
#[derive(Default)]
struct ConnRecvState {
    next_expected: u64,
    reorder: BTreeMap<u64, Rsr>,
}

pub(crate) struct RudpReceiver {
    socket: UdpSocket,
    buf: Vec<u8>,
    conns: HashMap<u64, ConnRecvState>,
    ready: VecDeque<Rsr>,
    corrupt_drops: Arc<AtomicU64>,
}

impl RudpReceiver {
    pub(crate) fn new(socket: UdpSocket, corrupt_drops: Arc<AtomicU64>) -> RudpReceiver {
        RudpReceiver {
            socket,
            buf: vec![0; 65_536],
            conns: HashMap::new(),
            ready: VecDeque::new(),
            corrupt_drops,
        }
    }

    /// Reads the socket empty, acking and reordering as it goes; returns
    /// whether any datagram arrived.
    fn drain_socket(&mut self) -> Result<bool> {
        let mut received = false;
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, src)) => {
                    received = true;
                    let Some((ptype, conn, seq, frame)) = decode_header(&self.buf[..n]) else {
                        continue; // runt packet: drop
                    };
                    if ptype != TYPE_DATA {
                        continue; // receivers only consume DATA
                    }
                    let st = self.conns.entry(conn).or_default();
                    if seq >= st.next_expected.saturating_add(WINDOW) {
                        continue; // out of window: unacked, retransmitted later
                    }
                    if seq < st.next_expected || st.reorder.contains_key(&seq) {
                        // Duplicate of a frame already validated: re-ack it
                        // (the original ack may have raced the retransmit).
                        let ack = encode_packet(TYPE_ACK, conn, seq, &[]);
                        let _ = self.socket.send_to(&ack, src);
                        continue;
                    }
                    // Decode BEFORE acking: an ack promises delivery, so a
                    // frame that does not decode must go unacked (the
                    // sender retransmits it) and must not abort the drain —
                    // later packets in the socket are still good.
                    let msg = match Rsr::decode(frame) {
                        Ok(m) => m,
                        Err(_) => {
                            self.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    let ack = encode_packet(TYPE_ACK, conn, seq, &[]);
                    let _ = self.socket.send_to(&ack, src);
                    st.reorder.insert(seq, msg);
                    while let Some(m) = st.reorder.remove(&st.next_expected) {
                        st.next_expected += 1;
                        self.ready.push_back(m);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(received),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl crate::reactor::FdSource for RudpReceiver {
    fn scan(&mut self, _fired: bool) -> Result<bool> {
        self.drain_socket()
    }

    fn pop(&mut self) -> Option<Rsr> {
        self.ready.pop_front()
    }

    fn fill_fds(&self, out: &mut Vec<std::os::fd::RawFd>) {
        use std::os::fd::AsRawFd;
        out.push(self.socket.as_raw_fd());
    }
}

impl CommReceiver for RudpReceiver {
    fn poll(&mut self) -> Result<Option<Rsr>> {
        if let Some(m) = self.ready.pop_front() {
            return Ok(Some(m));
        }
        self.drain_socket()?;
        Ok(self.ready.pop_front())
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
}

struct Unacked {
    packet: Vec<u8>,
    last_sent: Instant,
    /// Retransmissions of this packet so far (drives backoff and the
    /// dead-connection cap).
    attempts: u32,
}

struct SenderShared {
    socket: UdpSocket,
    /// The connection id this sender opened; acks for any other id are
    /// stale and must be ignored.
    conn: u64,
    unacked: Mutex<BTreeMap<(u64, u64), Unacked>>,
    loss_bits: Arc<AtomicU64>,
    rng: Arc<XorShift>,
    rto_ms: Arc<AtomicU64>,
    max_retries: Arc<AtomicU64>,
    injected_drops: Arc<AtomicU64>,
    retransmits: Arc<AtomicU64>,
    stale_acks: Arc<AtomicU64>,
    dead_connections: Arc<AtomicU64>,
    /// Set once a packet exhausts `max_retries`; the connection is dead
    /// and every later `send` fails with `ConnectionClosed`.
    dead: AtomicBool,
    stop: AtomicBool,
}

impl SenderShared {
    /// Transmits a packet, applying loss injection to DATA.
    fn transmit(&self, packet: &[u8]) {
        let loss = f64::from_bits(self.loss_bits.load(Ordering::Relaxed));
        if loss > 0.0 && self.rng.next_f64() < loss {
            self.injected_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let _ = self.socket.send(packet);
    }

    /// Processes incoming ACKs and retransmits overdue packets with
    /// exponential backoff; exhausting the retransmit cap marks the
    /// connection dead instead of retrying forever.
    fn pump_once(&self) {
        let mut buf = [0u8; 64];
        loop {
            match self.socket.recv(&mut buf) {
                Ok(n) => {
                    if let Some((TYPE_ACK, conn, seq, _)) = decode_header(&buf[..n]) {
                        if conn == self.conn {
                            self.unacked.lock().remove(&(conn, seq));
                        } else {
                            // A stale ack (old/other connection) must not
                            // clear this connection's unacked packets.
                            self.stale_acks.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let base_rto = self.rto_ms.load(Ordering::Relaxed).max(1);
        let max_retries = self.max_retries.load(Ordering::Relaxed);
        let now = Instant::now();
        let mut to_retransmit = Vec::new();
        let mut died = false;
        {
            let mut g = self.unacked.lock();
            for u in g.values_mut() {
                let shift = u.attempts.min(RTO_BACKOFF_SHIFT_CAP);
                let rto = Duration::from_millis(base_rto << shift);
                if now.duration_since(u.last_sent) < rto {
                    continue;
                }
                if u64::from(u.attempts) >= max_retries {
                    died = true;
                    break;
                }
                u.attempts += 1;
                u.last_sent = now;
                to_retransmit.push(u.packet.clone());
            }
            if died {
                // The peer is unreachable: drop the queue so nothing keeps
                // retransmitting, and let `send` surface ConnectionClosed.
                g.clear();
                self.dead.store(true, Ordering::Relaxed);
                self.dead_connections.fetch_add(1, Ordering::Relaxed);
            }
        }
        for p in to_retransmit {
            self.retransmits.fetch_add(1, Ordering::Relaxed);
            self.transmit(&p);
        }
    }
}

/// What drives a sender's `pump_once` (ack drain + retransmit backoff):
/// normally a periodic registration on the shared reactor (readiness on
/// the socket fires it immediately when acks arrive; the 2 ms tick
/// drives retransmission), with a dedicated thread as the fallback where
/// the reactor is unavailable.
enum PumpDriver {
    Reactor(crate::reactor::RegistrationId),
    Thread(std::thread::JoinHandle<()>),
}

/// How often the pump runs when no acks are arriving.
const PUMP_PERIOD: Duration = Duration::from_millis(2);

fn start_pump(shared: &Arc<SenderShared>) -> Result<PumpDriver> {
    if let Some(reactor) = crate::reactor::Reactor::global() {
        use std::os::fd::AsRawFd;
        let pump = Arc::clone(shared);
        let id = reactor.watch_periodic(
            shared.socket.as_raw_fd(),
            PUMP_PERIOD,
            Arc::new(move || {
                // `deregister` tolerates one in-flight callback; the stop
                // flag makes that callback a no-op on a closing sender.
                if !pump.stop.load(Ordering::Relaxed) {
                    pump.pump_once();
                }
            }),
        );
        return Ok(PumpDriver::Reactor(id));
    }
    let pump_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("nexus-rudp-pump".to_owned())
        .spawn(move || {
            while !pump_shared.stop.load(Ordering::Relaxed) {
                pump_shared.pump_once();
                std::thread::sleep(PUMP_PERIOD);
            }
        })
        .map_err(NexusError::Io)?;
    Ok(PumpDriver::Thread(handle))
}

struct RudpObject {
    shared: Arc<SenderShared>,
    next_seq: AtomicU64,
    pump: Mutex<Option<PumpDriver>>,
}

impl RudpObject {
    /// Shared send admission: frame-size cap, dead-connection check, and
    /// window backpressure (the pump thread drains acks).
    fn admit(&self, wire: usize) -> Result<()> {
        if wire > MAX_FRAME {
            return Err(NexusError::BadParam {
                key: "payload".to_owned(),
                reason: format!("RSR frame of {wire} bytes exceeds rudp limit {MAX_FRAME}"),
            });
        }
        if self.shared.dead.load(Ordering::Relaxed) {
            return Err(NexusError::ConnectionClosed);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        // Concurrent senders may overshoot; the receiver drops that unacked.
        let open = || match self.shared.unacked.lock().keys().next() {
            Some(&(_, oldest)) => self.next_seq.load(Ordering::Relaxed) < oldest + WINDOW,
            None => true,
        };
        while !open() {
            if self.shared.dead.load(Ordering::Relaxed) || Instant::now() >= deadline {
                return Err(NexusError::ConnectionClosed);
            }
            // lint:allow(poll-blocking) bounded window backpressure on the send half only: acks drain on the pump thread, so the wait cannot deadlock the poll loop, and the 10 s deadline turns a dead peer into ConnectionClosed. striped_send reaches this like any plain send does.
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Files a freshly encoded DATA packet in the unacked queue and puts
    /// it on the wire.
    fn commit(&self, seq: u64, packet: Vec<u8>) {
        self.shared.unacked.lock().insert(
            (self.shared.conn, seq),
            Unacked {
                packet: packet.clone(),
                last_sent: Instant::now(),
                attempts: 0,
            },
        );
        self.shared.transmit(&packet);
    }
}

impl CommObject for RudpObject {
    fn method(&self) -> MethodId {
        MethodId::RUDP
    }

    fn transfer(
        &self,
        rsr: &Rsr,
        frame: &WireFrame,
        head: &[u8],
        _stage: Option<&Trace>,
    ) -> Result<Staged> {
        self.admit(rsr.wire_len() + head.len())?;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let (conn, header) = (self.shared.conn, rsr.header());
        let packet = if head.is_empty() {
            encode_data_packet(conn, seq, &header, frame.body(rsr))
        } else {
            let handler = rsr.handler.as_bytes();
            encode_data_packet_parts(conn, seq, &header, handler, head, &rsr.payload)
        };
        self.commit(seq, packet);
        Ok(Staged::Written)
    }

    fn close(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Take the driver out and release `pump` before joining: an if-let
        // on the locked take() would hold the guard across the join, and
        // the pump thread must never find this lock wedged while exiting.
        let driver = self.pump.lock().take();
        match driver {
            Some(PumpDriver::Reactor(id)) => {
                if let Some(reactor) = crate::reactor::Reactor::global() {
                    use std::os::fd::AsRawFd;
                    reactor.deregister(id, &[self.shared.socket.as_raw_fd()]);
                }
            }
            Some(PumpDriver::Thread(h)) => {
                let _ = h.join();
            }
            None => {}
        }
    }
}

impl Drop for RudpObject {
    fn drop(&mut self) {
        self.close();
    }
}

impl CommModule for RudpModule {
    fn method(&self) -> MethodId {
        MethodId::RUDP
    }

    fn name(&self) -> &'static str {
        "rudp"
    }

    fn cost_rank(&self) -> u32 {
        50
    }

    fn open(&self, _ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        let addr = socket.local_addr()?;
        let inner = RudpReceiver::new(socket, Arc::clone(&self.corrupt_drops));
        Ok((
            CommDescriptor::new(MethodId::RUDP, addr.to_string().into_bytes()),
            Box::new(crate::reactor::ReactorReceiver::new(inner)),
        ))
    }

    fn applicable(&self, _local: &ContextInfo, desc: &CommDescriptor) -> bool {
        desc.method == MethodId::RUDP && crate::util::parse_socket_addr(&desc.data).is_ok()
    }

    fn connect(&self, _local: &ContextInfo, desc: &CommDescriptor) -> Result<Arc<dyn CommObject>> {
        // The address exchange travels through untrusted descriptor
        // bytes: parsing must surface `Decode`, never panic.
        let addr: SocketAddr = crate::util::parse_socket_addr(&desc.data)?;
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(addr)?;
        socket.set_nonblocking(true)?;
        let shared = Arc::new(SenderShared {
            socket,
            conn: self.next_conn.fetch_add(1, Ordering::Relaxed),
            unacked: Mutex::new(BTreeMap::new()),
            loss_bits: Arc::clone(&self.loss_bits),
            rng: Arc::clone(&self.rng),
            rto_ms: Arc::clone(&self.rto_ms),
            max_retries: Arc::clone(&self.max_retries),
            injected_drops: Arc::clone(&self.injected_drops),
            retransmits: Arc::clone(&self.retransmits),
            stale_acks: Arc::clone(&self.stale_acks),
            dead_connections: Arc::clone(&self.dead_connections),
            dead: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let pump = start_pump(&shared)?;
        Ok(Arc::new(RudpObject {
            shared,
            next_seq: AtomicU64::new(0),
            pump: Mutex::new(Some(pump)),
        }))
    }

    fn poll_cost_ns(&self) -> u64 {
        25_000
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
            "rto_ms" => {
                let v: u64 = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not an integer: {value:?}"),
                })?;
                self.rto_ms.store(v.max(1), Ordering::Relaxed);
                Ok(())
            }
            "max_retries" => {
                let v: u64 = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not an integer: {value:?}"),
                })?;
                self.max_retries.store(v.max(1), Ordering::Relaxed);
                Ok(())
            }
            _ => Err(NexusError::BadParam {
                key: key.to_owned(),
                reason: "rudp supports loss, seed, rto_ms, max_retries".to_owned(),
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

    fn msg(i: u32) -> Rsr {
        let mut payload = Vec::new();
        payload.extend_from_slice(&i.to_le_bytes());
        Rsr::new(ContextId(1), EndpointId(1), "seq", Bytes::from(payload))
    }

    fn collect(rx: &mut dyn CommReceiver, n: usize, secs: u64) -> Vec<Rsr> {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(secs);
        while got.len() < n && Instant::now() < deadline {
            match rx.poll().unwrap() {
                Some(m) => got.push(m),
                None => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        got
    }

    #[test]
    fn does_not_map_regions_so_bulk_pulls_stream() {
        let m = RudpModule::new();
        let (desc, _rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        assert!(!obj.supports_region_map());
    }

    #[test]
    fn lossless_in_order_delivery() {
        let m = RudpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        for i in 0..100u32 {
            obj.send(&msg(i), &WireFrame::new()).unwrap();
        }
        let got = collect(rx.as_mut(), 100, 10);
        assert_eq!(got.len(), 100);
        for (i, g) in got.iter().enumerate() {
            let v = u32::from_le_bytes(g.payload[..4].try_into().unwrap());
            assert_eq!(v, i as u32, "ordered delivery");
        }
    }

    #[test]
    fn delivery_survives_heavy_loss() {
        let m = RudpModule::new();
        m.set_param("seed", "7").unwrap();
        m.set_param("loss", "0.3").unwrap();
        m.set_param("rto_ms", "5").unwrap();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        for i in 0..200u32 {
            obj.send(&msg(i), &WireFrame::new()).unwrap();
        }
        let got = collect(rx.as_mut(), 200, 30);
        assert_eq!(got.len(), 200, "all messages delivered despite 30% loss");
        for (i, g) in got.iter().enumerate() {
            let v = u32::from_le_bytes(g.payload[..4].try_into().unwrap());
            assert_eq!(v, i as u32, "ordered despite retransmission");
        }
        assert!(m.injected_drops() > 0, "loss was actually injected");
        assert!(m.retransmits() > 0, "retransmission actually happened");
    }

    #[test]
    fn two_senders_do_not_interfere() {
        let m = RudpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let o1 = m.connect(&info(2), &desc).unwrap();
        let o2 = m.connect(&info(3), &desc).unwrap();
        for i in 0..50u32 {
            o1.send(&msg(i), &WireFrame::new()).unwrap();
            o2.send(&msg(1000 + i), &WireFrame::new()).unwrap();
        }
        let got = collect(rx.as_mut(), 100, 10);
        assert_eq!(got.len(), 100);
        let (a, b): (Vec<u32>, Vec<u32>) = got
            .iter()
            .map(|g| u32::from_le_bytes(g.payload[..4].try_into().unwrap()))
            .partition(|&v| v < 1000);
        assert_eq!(a, (0..50).collect::<Vec<_>>());
        assert_eq!(b, (1000..1050).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_frame_rejected() {
        let m = RudpModule::new();
        let (desc, _rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let big = Rsr::new(
            ContextId(1),
            EndpointId(1),
            "big",
            Bytes::from(vec![0u8; MAX_FRAME + 1]),
        );
        assert!(obj.send(&big, &WireFrame::new()).is_err());
    }

    /// Regression: the address exchange used to `unwrap` on the
    /// descriptor bytes, so a malformed or truncated peer descriptor —
    /// which arrives over the wire, outside our control — panicked the
    /// whole process. It must be a `Decode` error (and the descriptor
    /// must simply be inapplicable to selection).
    #[test]
    fn corrupted_descriptor_is_a_decode_error_not_a_panic() {
        let m = RudpModule::new();
        for bad in [
            &b"\xFF\xFE\x80garbage"[..], // invalid UTF-8
            b"127.0.0.1",                // port truncated away
            b"",                         // empty
            b"127.0.0.1:notaport",       // corrupt port digits
        ] {
            let desc = CommDescriptor::new(MethodId::RUDP, bad.to_vec());
            assert!(!m.applicable(&info(1), &desc), "{bad:?} must not select");
            match m.connect(&info(1), &desc) {
                Ok(_) => panic!("corrupt descriptor {bad:?} must fail, not connect"),
                Err(e) => assert!(matches!(e, NexusError::Decode(_)), "got {e:?}"),
            }
        }
    }

    #[test]
    fn param_validation() {
        let m = RudpModule::new();
        assert!(m.set_param("loss", "0.1").is_ok());
        assert!(m.set_param("loss", "2").is_err());
        assert!(m.set_param("rto_ms", "10").is_ok());
        assert!(m.set_param("rto_ms", "x").is_err());
        assert!(m.set_param("seed", "3").is_ok());
        assert!(m.set_param("max_retries", "4").is_ok());
        assert!(m.set_param("max_retries", "x").is_err());
        assert!(m.set_param("nope", "1").is_err());
    }

    /// Regression: a corrupt DATA frame must be dropped *unacked* (so the
    /// sender retransmits it) and must not abort the socket drain — later
    /// packets still get delivered. The old code acked first and then
    /// propagated the decode error, losing the message forever.
    #[test]
    fn corrupt_frame_is_not_acked_and_drain_continues() {
        let m = RudpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let recv_addr: SocketAddr = std::str::from_utf8(&desc.data).unwrap().parse().unwrap();

        // A raw "sender" injecting a DATA packet whose frame is garbage.
        let raw = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let corrupt = encode_packet(TYPE_DATA, 99, 0, &[0xFF; 8]);
        raw.send_to(&corrupt, recv_addr).unwrap();

        // A genuine message behind it in the same socket queue.
        let obj = m.connect(&info(2), &desc).unwrap();
        obj.send(&msg(7), &WireFrame::new()).unwrap();

        let got = collect(rx.as_mut(), 1, 10);
        assert_eq!(
            got.len(),
            1,
            "valid message delivered past the corrupt frame"
        );
        let v = u32::from_le_bytes(got[0].payload[..4].try_into().unwrap());
        assert_eq!(v, 7);
        assert_eq!(
            m.corrupt_drops(),
            1,
            "corrupt frame was counted and dropped"
        );

        // The corrupt frame must never have been acked.
        raw.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 64];
        assert!(
            raw.recv_from(&mut buf).is_err(),
            "receiver acked a frame it could not decode"
        );
    }

    /// Regression: the receiver acked and buffered any DATA ahead of its
    /// next expected seq, however far: one datagram at `u64::MAX` held its
    /// frame for ever. Out-of-window frames are now dropped unacked.
    #[test]
    fn out_of_window_data_is_neither_acked_nor_buffered() {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        socket.set_nonblocking(true).unwrap();
        let addr = socket.local_addr().unwrap();
        let mut rx = RudpReceiver::new(socket, Arc::default());
        let raw = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        raw.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        // Seq 0 is delivered, so the window is [1, 1 + WINDOW): seq 2 waits
        // for seq 1 inside it, the two past its end are refused.
        for seq in [0, WINDOW + 1, u64::MAX, 2, 1] {
            let packet = encode_packet(TYPE_DATA, 5, seq, &msg(seq as u32).encode());
            raw.send_to(&packet, addr).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while rx.ready.len() < 3 && Instant::now() < deadline {
            rx.drain_socket().unwrap();
        }
        let got: Vec<u8> = rx.ready.iter().map(|m| m.payload[0]).collect();
        assert_eq!(got, [0, 1, 2], "in-window traffic delivers in order");
        assert!(
            rx.conns[&5].reorder.is_empty(),
            "out-of-window frame buffered"
        );
        let mut acked = Vec::new();
        let mut buf = [0u8; 64];
        while let Ok(n) = raw.recv(&mut buf) {
            acked.push(decode_header(&buf[..n]).unwrap().2);
        }
        assert_eq!(acked, [0, 2, 1], "out-of-window frame acked");
    }

    /// Regression: an ack naming another connection id must not clear this
    /// connection's unacked packet. The old code matched acks on `seq`
    /// alone, so a stale ack silently cancelled retransmission.
    #[test]
    fn stale_ack_for_other_connection_is_ignored() {
        let m = RudpModule::new();
        m.set_param("rto_ms", "5").unwrap();
        let peer = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let desc = CommDescriptor::new(
            MethodId::RUDP,
            peer.local_addr().unwrap().to_string().into_bytes(),
        );
        let obj = m.connect(&info(2), &desc).unwrap();
        obj.send(&msg(1), &WireFrame::new()).unwrap();

        // Capture the DATA packet and ack it with the WRONG conn id.
        let mut buf = [0u8; 65_536];
        let (n, src) = peer.recv_from(&mut buf).unwrap();
        let (ptype, conn, seq, _) = decode_header(&buf[..n]).unwrap();
        assert_eq!(ptype, TYPE_DATA);
        peer.send_to(&encode_packet(TYPE_ACK, conn + 1, seq, &[]), src)
            .unwrap();

        // The packet must stay unacked: retransmissions keep coming.
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.retransmits() < 2 {
            assert!(
                Instant::now() < deadline,
                "stale ack cancelled retransmission of the unacked packet"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(m.stale_acks() >= 1, "stale ack was detected and counted");

        // A correctly-addressed ack stops the retransmissions.
        peer.send_to(&encode_packet(TYPE_ACK, conn, seq, &[]), src)
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let before = m.retransmits();
            std::thread::sleep(Duration::from_millis(60));
            if m.retransmits() == before {
                break;
            }
            assert!(Instant::now() < deadline, "retransmissions never stopped");
        }
    }

    /// Regression: a black-holed peer must produce a dead connection
    /// (bounded retransmits, `ConnectionClosed` from `send`), not an
    /// infinite fixed-RTO retransmit loop.
    #[test]
    fn black_holed_peer_marks_connection_dead() {
        let m = RudpModule::new();
        m.set_param("rto_ms", "1").unwrap();
        m.set_param("max_retries", "4").unwrap();

        // A bound socket that is never read and never acks.
        let hole = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let desc = CommDescriptor::new(
            MethodId::RUDP,
            hole.local_addr().unwrap().to_string().into_bytes(),
        );
        let obj = m.connect(&info(2), &desc).unwrap();
        obj.send(&msg(0), &WireFrame::new()).unwrap();

        // Backoff runs 1,2,4,8 ms and then the cap kills the connection.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match obj.send(&msg(1), &WireFrame::new()) {
                Err(NexusError::ConnectionClosed) => break,
                Err(e) => panic!("unexpected error: {e:?}"),
                Ok(()) => {
                    assert!(
                        Instant::now() < deadline,
                        "connection never died despite a black-holed peer"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        assert!(m.dead_connections() >= 1);

        // Retransmission actually stopped (no infinite loop).
        let before = m.retransmits();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            m.retransmits(),
            before,
            "dead connection kept retransmitting"
        );
    }
}
