//! The `tcp` module: stream sockets over the loopback interface.
//!
//! This is a genuine socket transport: every context that enables TCP binds
//! a nonblocking listener on `127.0.0.1` and advertises its address in its
//! communication descriptor. A scan — accept what is queued, read every
//! accepted connection once — is the moral equivalent of the `select`
//! loop whose >100 µs cost motivates `skip_poll` in §3.3, so the receiver
//! avoids it: armed into the readiness tier it is scanned only after the
//! kernel reported an arrival and for as long as scans keep finding bytes
//! (see [`crate::reactor`]); only an unarmed receiver scans on each poll.
//! Frames are length-prefixed RSR encodings.
//!
//! Parameters (per §2.1's requirement that methods expose their low-level
//! knobs): `nodelay` (`true`/`false`, applied to every new connection),
//! `connect_timeout_ms`, and the socket-buffer sizes `sndbuf`/`rcvbuf`
//! (bytes; 0 keeps the kernel default) — default buffers throttle striped
//! bulk transfers long before the link saturates.

use bytes::Bytes;
use nexus_rt::context::ContextInfo;
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{send_parts_fallback, CommModule, CommObject, CommReceiver};
use nexus_rt::rsr::{Rsr, WireFrame, HEADER_LEN, PREFIX_LEN};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// TCP communication module.
pub struct TcpModule {
    nodelay: AtomicBool,
    connect_timeout_ms: AtomicU64,
    /// Socket buffer sizes applied to new connections; 0 = kernel default.
    sndbuf: AtomicU64,
    rcvbuf: AtomicU64,
}

impl Default for TcpModule {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpModule {
    /// Creates the module with `nodelay = true` (latency-oriented default),
    /// a 2 s connect timeout, and kernel-default socket buffers.
    pub fn new() -> Self {
        TcpModule {
            nodelay: AtomicBool::new(true),
            connect_timeout_ms: AtomicU64::new(2_000),
            sndbuf: AtomicU64::new(0),
            rcvbuf: AtomicU64::new(0),
        }
    }
}

/// Which socket buffer a `sndbuf`/`rcvbuf` parameter adjusts.
#[derive(Clone, Copy)]
enum SockBuf {
    Send,
    Recv,
}

/// Sets `SO_SNDBUF`/`SO_RCVBUF` on a connected stream. The workspace
/// builds without libc, so this speaks setsockopt(2) directly — the same
/// raw-FFI idiom as the reactor's epoll binding.
#[cfg(unix)]
fn set_socket_buffer(stream: &TcpStream, which: SockBuf, bytes: usize) -> Result<()> {
    use std::os::unix::io::AsRawFd;
    #[cfg(target_os = "linux")]
    const SOL_SOCKET: i32 = 1;
    #[cfg(target_os = "linux")]
    const SO_OPT: [i32; 2] = [7, 8]; // [SO_SNDBUF, SO_RCVBUF]
    #[cfg(not(target_os = "linux"))]
    const SOL_SOCKET: i32 = 0xffff;
    #[cfg(not(target_os = "linux"))]
    const SO_OPT: [i32; 2] = [0x1001, 0x1002];
    extern "C" {
        fn setsockopt(
            fd: std::os::unix::io::RawFd,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    let value: i32 = bytes.try_into().map_err(|_| NexusError::BadParam {
        key: "sockbuf".to_owned(),
        reason: format!("{bytes} exceeds the socket-buffer range"),
    })?;
    let name = SO_OPT[matches!(which, SockBuf::Recv) as usize];
    // SAFETY: the fd comes from a live `TcpStream` borrowed for the whole
    // call, and the value pointer/length describe one properly aligned
    // `i32` on this stack frame; setsockopt only reads through the
    // pointer and retains nothing past the call.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            name,
            &value as *const i32 as *const std::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc != 0 {
        return Err(std::io::Error::last_os_error().into());
    }
    Ok(())
}

#[cfg(not(unix))]
fn set_socket_buffer(_stream: &TcpStream, _which: SockBuf, _bytes: usize) -> Result<()> {
    Err(NexusError::BadParam {
        key: "sockbuf".to_owned(),
        reason: "socket-buffer sizing requires a unix platform".to_owned(),
    })
}

/// Parses a `sndbuf`/`rcvbuf` value: a positive byte count.
fn parse_bufsize(key: &str, value: &str) -> Result<usize> {
    match value.parse::<usize>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(NexusError::BadParam {
            key: key.to_owned(),
            reason: format!("not a positive byte count: {value:?}"),
        }),
    }
}

/// Per-connection read state.
struct ConnState {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ConnState {
    /// Reads whatever is available without blocking; returns false when the
    /// peer has closed the connection.
    fn fill(&mut self) -> Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Extracts complete frames from the read buffer.
    fn extract(&mut self, out: &mut VecDeque<Rsr>) -> Result<()> {
        loop {
            if self.buf.len() < 4 {
                return Ok(());
            }
            let len =
                u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if len > MAX_FRAME {
                return Err(NexusError::Decode("TCP frame exceeds maximum size"));
            }
            if self.buf.len() < 4 + len {
                return Ok(());
            }
            let frame = &self.buf[4..4 + len];
            out.push_back(Rsr::decode(frame)?);
            self.buf.drain(..4 + len);
        }
    }
}

/// Upper bound on a single frame (1 GiB would be absurd; 256 MiB allows the
/// largest realistic scientific payloads while catching corrupt lengths).
const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Receive side: listener + accepted connections.
pub struct TcpReceiver {
    listener: TcpListener,
    conns: Vec<ConnState>,
    pending: VecDeque<Rsr>,
}

impl TcpReceiver {
    pub(crate) fn new(listener: TcpListener) -> TcpReceiver {
        TcpReceiver {
            listener,
            conns: Vec::new(),
            pending: VecDeque::new(),
        }
    }

    /// Accepts queued connections and reads every connection once,
    /// queueing complete frames. Returns whether anything came off a
    /// socket: a connection, or bytes (of a whole frame or not).
    fn scan(&mut self) -> Result<bool> {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    stream.set_nonblocking(true)?;
                    self.conns.push(ConnState {
                        stream,
                        // lint:allow(hot-path-alloc) per-connection accept-time state, not per message
                        buf: Vec::new(),
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e.into()),
            }
        }
        // Read from every connection; evict dead ones. A connection is
        // dead on EOF, on a hard read error, *or* on a framing/decode
        // error (the stream offset is unrecoverable once a frame is
        // corrupt). Errors used to propagate with the connection still in
        // the list, so one dead peer poisoned every later scan and the
        // list — and the fd table — grew monotonically under churn. Now
        // the dead connection is dropped, the remaining connections still
        // get scanned, and the first error is reported once.
        let mut first_err: Option<NexusError> = None;
        let mut i = 0;
        while i < self.conns.len() {
            let dead;
            let buffered = self.conns[i].buf.len();
            match self.conns[i].fill() {
                Ok(alive) => {
                    progress |= self.conns[i].buf.len() != buffered;
                    // Extract even when the peer has closed: complete
                    // frames received before the EOF are still deliverable.
                    match self.conns[i].extract(&mut self.pending) {
                        Ok(()) => dead = !alive,
                        Err(e) => {
                            dead = true;
                            first_err.get_or_insert(e);
                        }
                    }
                }
                Err(e) => {
                    dead = true;
                    first_err.get_or_insert(e);
                }
            }
            if dead {
                self.conns.swap_remove(i);
            } else {
                i += 1;
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(progress),
        }
    }

    /// Live accepted connections (observability for eviction tests).
    #[cfg(test)]
    pub(crate) fn conn_count(&self) -> usize {
        self.conns.len()
    }
}

#[cfg(have_epoll)]
impl crate::reactor::FdSource for TcpReceiver {
    fn scan(&mut self) -> Result<bool> {
        TcpReceiver::scan(self)
    }

    fn pop(&mut self) -> Option<Rsr> {
        self.pending.pop_front()
    }

    fn fill_fds(&self, out: &mut Vec<std::os::fd::RawFd>) {
        use std::os::fd::AsRawFd;
        out.push(self.listener.as_raw_fd());
        for c in &self.conns {
            out.push(c.stream.as_raw_fd());
        }
    }
}

impl CommReceiver for TcpReceiver {
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

/// Sender side: one connected stream, writes serialized under a lock.
pub struct TcpObject {
    stream: Mutex<TcpStream>,
}

/// Writes `head` then `body` as one gathered stream, restarting the
/// vectored write after partial writes and `EINTR`.
fn write_all_vectored(s: &mut TcpStream, head: &[u8], body: &[u8]) -> Result<()> {
    let mut head_off = 0;
    let mut body_off = 0;
    while head_off < head.len() || body_off < body.len() {
        let iov = [
            IoSlice::new(&head[head_off..]),
            IoSlice::new(&body[body_off..]),
        ];
        match s.write_vectored(&iov) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(mut n) => {
                let in_head = n.min(head.len() - head_off);
                head_off += in_head;
                n -= in_head;
                body_off += n;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

impl CommObject for TcpObject {
    fn method(&self) -> MethodId {
        MethodId::TCP
    }

    fn send(&self, rsr: &Rsr, frame: &WireFrame) -> Result<()> {
        // One vectored write per RSR: the 18-byte length prefix + header
        // live on the stack and the shared body is the message's
        // encode-once storage — no per-send serialization or copy, and no
        // second syscall for the body.
        let body = frame.body(rsr);
        let head = WireFrame::prefixed_header(rsr, body.len());
        let mut s = self.stream.lock();
        write_all_vectored(&mut s, &head, body)
    }

    fn send_parts(&self, rsr: &Rsr, head: &[u8], tail: &Bytes) -> Result<()> {
        // Stripe-chunk fast path: the frame prefix, header, body sections
        // (hlen handler plen), and the small chunk head all fit one stack
        // buffer, so the chunk goes out as prefix-buffer + zero-copy tail
        // in a single vectored write — no combined payload is ever built.
        const STACK: usize = 128;
        let hlen = rsr.handler.len();
        let lead = PREFIX_LEN + HEADER_LEN + 2 + hlen + 4 + head.len();
        if lead > STACK {
            return send_parts_fallback(self, rsr, head, tail);
        }
        let plen = head.len() + tail.len();
        let body_len = 2 + hlen + 4 + plen;
        let mut buf = [0u8; STACK];
        buf[..PREFIX_LEN + HEADER_LEN].copy_from_slice(&WireFrame::prefixed_header(rsr, body_len));
        let mut o = PREFIX_LEN + HEADER_LEN;
        buf[o..o + 2].copy_from_slice(&(hlen as u16).to_le_bytes());
        o += 2;
        buf[o..o + hlen].copy_from_slice(rsr.handler.as_bytes());
        o += hlen;
        buf[o..o + 4].copy_from_slice(&(plen as u32).to_le_bytes());
        o += 4;
        buf[o..o + head.len()].copy_from_slice(head);
        o += head.len();
        let mut s = self.stream.lock();
        write_all_vectored(&mut s, &buf[..o], tail)
    }

    fn set_param(&self, key: &str, value: &str) -> Result<()> {
        match key {
            "nodelay" => {
                let v: bool = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not a bool: {value:?}"),
                })?;
                self.stream.lock().set_nodelay(v)?;
                Ok(())
            }
            "sndbuf" => set_socket_buffer(
                &self.stream.lock(),
                SockBuf::Send,
                parse_bufsize(key, value)?,
            ),
            "rcvbuf" => set_socket_buffer(
                &self.stream.lock(),
                SockBuf::Recv,
                parse_bufsize(key, value)?,
            ),
            _ => Err(NexusError::BadParam {
                key: key.to_owned(),
                reason: "tcp connections support nodelay, sndbuf, rcvbuf".to_owned(),
            }),
        }
    }

    fn close(&self) {
        let _ = self.stream.lock().shutdown(std::net::Shutdown::Both);
    }
}

impl CommModule for TcpModule {
    fn method(&self) -> MethodId {
        MethodId::TCP
    }

    fn name(&self) -> &'static str {
        "tcp"
    }

    fn cost_rank(&self) -> u32 {
        30
    }

    fn open(&self, _ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let desc = CommDescriptor::new(MethodId::TCP, addr.to_string().into_bytes());
        let inner = TcpReceiver::new(listener);
        // Readiness comes from the shared reactor thread (one per
        // process, O(workers) not O(sockets)); the receiver stays a
        // pass-through until the poll engine arms it.
        #[cfg(have_epoll)]
        let rx: Box<dyn CommReceiver> = Box::new(crate::reactor::ReactorReceiver::new(inner));
        // Without epoll, fall back to the per-fd pump thread.
        #[cfg(not(have_epoll))]
        let rx: Box<dyn CommReceiver> = Box::new(crate::ready::ReadyPumpReceiver::new(
            MethodId::TCP,
            Box::new(inner),
        ));
        Ok((desc, rx))
    }

    fn applicable(&self, _local: &ContextInfo, desc: &CommDescriptor) -> bool {
        // IP is the universal substrate: applicable whenever the descriptor
        // parses.
        desc.method == MethodId::TCP && crate::util::parse_socket_addr(&desc.data).is_ok()
    }

    fn connect(&self, _local: &ContextInfo, desc: &CommDescriptor) -> Result<Arc<dyn CommObject>> {
        let addr: SocketAddr = crate::util::parse_socket_addr(&desc.data)?;
        let timeout = Duration::from_millis(self.connect_timeout_ms.load(Ordering::Relaxed));
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(self.nodelay.load(Ordering::Relaxed))?;
        let sndbuf = self.sndbuf.load(Ordering::Relaxed);
        if sndbuf > 0 {
            set_socket_buffer(&stream, SockBuf::Send, sndbuf as usize)?;
        }
        let rcvbuf = self.rcvbuf.load(Ordering::Relaxed);
        if rcvbuf > 0 {
            set_socket_buffer(&stream, SockBuf::Recv, rcvbuf as usize)?;
        }
        Ok(Arc::new(TcpObject {
            stream: Mutex::new(stream),
        }))
    }

    fn poll_cost_ns(&self) -> u64 {
        // The paper's measured select() cost on the SP2.
        100_000
    }

    fn supports_blocking(&self) -> bool {
        true
    }

    fn supports_readiness(&self) -> bool {
        // Via the shared reactor (`ReactorReceiver`), or the pump thread
        // of a `ReadyPumpReceiver` shell where epoll is unavailable.
        true
    }

    fn set_param(&self, key: &str, value: &str) -> Result<()> {
        match key {
            "nodelay" => {
                let v: bool = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not a bool: {value:?}"),
                })?;
                self.nodelay.store(v, Ordering::Relaxed);
                Ok(())
            }
            "connect_timeout_ms" => {
                let v: u64 = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not an integer: {value:?}"),
                })?;
                self.connect_timeout_ms.store(v, Ordering::Relaxed);
                Ok(())
            }
            "sndbuf" => {
                self.sndbuf
                    .store(parse_bufsize(key, value)? as u64, Ordering::Relaxed);
                Ok(())
            }
            "rcvbuf" => {
                self.rcvbuf
                    .store(parse_bufsize(key, value)? as u64, Ordering::Relaxed);
                Ok(())
            }
            _ => Err(NexusError::BadParam {
                key: key.to_owned(),
                reason: "tcp supports nodelay, connect_timeout_ms, sndbuf, rcvbuf".to_owned(),
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

    fn msg(h: &str, payload: &[u8]) -> Rsr {
        Rsr::new(
            ContextId(1),
            EndpointId(2),
            h,
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn roundtrip_over_real_sockets() {
        let m = TcpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        assert!(m.applicable(&info(2), &desc));
        let obj = m.connect(&info(2), &desc).unwrap();
        obj.send(&msg("hello", b"abc"), &WireFrame::new()).unwrap();
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("message over loopback");
        assert_eq!(got.handler, "hello");
        assert_eq!(&got.payload[..], b"abc");
    }

    #[test]
    fn does_not_map_regions_so_bulk_pulls_stream() {
        // A wire transport serializes: the bulk pull engine must chunk,
        // not hand over an in-process Bytes view.
        let m = TcpModule::new();
        let (desc, _rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        assert!(!obj.supports_region_map());
    }

    #[test]
    fn many_messages_keep_frame_boundaries() {
        let m = TcpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        for i in 0..50u32 {
            obj.send(&msg(&format!("h{i}"), &i.to_le_bytes()), &WireFrame::new())
                .unwrap();
        }
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 50 && std::time::Instant::now() < deadline {
            if let Some(x) = rx.poll().unwrap() {
                got.push(x);
            }
        }
        assert_eq!(got.len(), 50);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g.handler, format!("h{i}"), "in-order delivery");
        }
    }

    #[test]
    fn multiple_senders_one_receiver() {
        let m = TcpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let o1 = m.connect(&info(2), &desc).unwrap();
        let o2 = m.connect(&info(3), &desc).unwrap();
        o1.send(&msg("a", b""), &WireFrame::new()).unwrap();
        o2.send(&msg("b", b""), &WireFrame::new()).unwrap();
        let mut names = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while names.len() < 2 && std::time::Instant::now() < deadline {
            if let Some(x) = rx.poll().unwrap() {
                names.push(x.handler);
            }
        }
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn large_payload_roundtrip() {
        let m = TcpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let big = vec![0x5Au8; 1 << 20];
        obj.send(&msg("big", &big), &WireFrame::new()).unwrap();
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("1 MiB frame");
        assert_eq!(got.payload.len(), big.len());
        assert!(got.payload.iter().all(|&b| b == 0x5A));
    }

    /// Regression (dead-connection leak): a peer that connects, sends,
    /// and disconnects used to stay in the scan list forever — under
    /// connect/disconnect churn the receiver leaked one fd and one scan
    /// slot per departed peer. Eviction must bring the list back down.
    #[test]
    fn disconnect_churn_does_not_leak_connections() {
        let mut rx = TcpReceiver::new(TcpListener::bind(("127.0.0.1", 0)).unwrap());
        rx.listener.set_nonblocking(true).unwrap();
        let addr = rx.listener.local_addr().unwrap();
        for round in 0..10 {
            let s = TcpStream::connect(addr).unwrap();
            let mut frame = Vec::new();
            let body = {
                let m = msg("churn", b"x");
                let f = WireFrame::new();
                let b = f.body(&m).to_vec();
                frame.extend_from_slice(&WireFrame::prefixed_header(&m, b.len()));
                b
            };
            frame.extend_from_slice(&body);
            (&s).write_all(&frame).unwrap();
            drop(s); // disconnect immediately after sending
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                match rx.poll().unwrap() {
                    Some(m) => {
                        assert_eq!(m.handler, "churn");
                        break;
                    }
                    None => assert!(
                        std::time::Instant::now() < deadline,
                        "round {round}: churned message never arrived"
                    ),
                }
            }
        }
        // Every peer has disconnected; scans must have evicted them all.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rx.conn_count() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "dead connections leaked: {} still in scan list",
                rx.conn_count()
            );
            let _ = rx.poll().unwrap();
        }
    }

    /// Regression (poisoned scan): a connection whose stream yields a
    /// corrupt frame used to propagate the decode error on *every* scan
    /// while staying in the list — one bad peer wedged the receiver for
    /// good. The bad connection must be evicted (error surfaced once) and
    /// traffic from healthy connections must keep flowing.
    #[test]
    fn corrupt_frame_evicts_connection_and_scan_recovers() {
        let mut rx = TcpReceiver::new(TcpListener::bind(("127.0.0.1", 0)).unwrap());
        rx.listener.set_nonblocking(true).unwrap();
        let addr = rx.listener.local_addr().unwrap();

        // A malicious/broken peer: length prefix far beyond MAX_FRAME.
        let bad = TcpStream::connect(addr).unwrap();
        (&bad).write_all(&u32::MAX.to_le_bytes()).unwrap();

        // One poisoned scan surfaces the decode error...
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match rx.poll() {
                Err(_) => break,
                Ok(_) => assert!(
                    std::time::Instant::now() < deadline,
                    "corrupt frame never surfaced an error"
                ),
            }
        }
        // ...and evicts the connection: later polls are clean again.
        assert_eq!(rx.conn_count(), 0, "poisoned connection was not evicted");
        assert!(rx.poll().is_ok(), "receiver stayed wedged after eviction");

        // A healthy peer still gets through.
        let good = m_send(addr, "after");
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("healthy traffic after eviction");
        assert_eq!(got.handler, "after");
        drop(good);
        drop(bad);
    }

    /// Sends one framed RSR over a fresh connection, returning the open
    /// stream so the peer stays connected.
    fn m_send(addr: SocketAddr, handler: &str) -> TcpStream {
        let s = TcpStream::connect(addr).unwrap();
        let m = msg(handler, b"");
        let f = WireFrame::new();
        let body = f.body(&m).to_vec();
        let mut frame = Vec::new();
        frame.extend_from_slice(&WireFrame::prefixed_header(&m, body.len()));
        frame.extend_from_slice(&body);
        (&s).write_all(&frame).unwrap();
        s
    }

    #[test]
    fn connect_to_dead_address_fails() {
        let m = TcpModule::new();
        m.set_param("connect_timeout_ms", "100").unwrap();
        // Port 1 on loopback is almost certainly closed.
        let desc = CommDescriptor::new(MethodId::TCP, b"127.0.0.1:1".to_vec());
        assert!(m.connect(&info(1), &desc).is_err());
    }

    #[test]
    fn bad_descriptor_not_applicable() {
        let m = TcpModule::new();
        let desc = CommDescriptor::new(MethodId::TCP, b"not-an-addr".to_vec());
        assert!(!m.applicable(&info(1), &desc));
    }

    #[test]
    fn module_params_validate() {
        let m = TcpModule::new();
        assert!(m.set_param("nodelay", "false").is_ok());
        assert!(m.set_param("nodelay", "maybe").is_err());
        assert!(m.set_param("connect_timeout_ms", "500").is_ok());
        assert!(m.set_param("sndbuf", "262144").is_ok());
        assert!(m.set_param("rcvbuf", "262144").is_ok());
        assert!(m.set_param("sndbuf", "lots").is_err());
        assert!(m.set_param("sndbuf", "0").is_err());
        assert!(m.set_param("rcvbuf", "-1").is_err());
        assert!(m.set_param("bogus", "1").is_err());
    }

    #[test]
    fn module_bufsizes_apply_at_connect() {
        let m = TcpModule::new();
        m.set_param("sndbuf", "65536").unwrap();
        m.set_param("rcvbuf", "65536").unwrap();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        // The sized connection still carries traffic.
        obj.send(&msg("sized", b"ok"), &WireFrame::new()).unwrap();
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("message over resized socket");
        assert_eq!(got.handler, "sized");
    }

    #[test]
    fn object_params_validate() {
        let m = TcpModule::new();
        let (desc, _rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        assert!(obj.set_param("nodelay", "true").is_ok());
        assert!(obj.set_param("sndbuf", "131072").is_ok());
        assert!(obj.set_param("rcvbuf", "131072").is_ok());
        assert!(obj.set_param("sndbuf", "junk").is_err());
        assert!(obj.set_param("rcvbuf", "0").is_err());
        assert!(obj.set_param("sockbuf", "1024").is_err());
    }

    /// `send_parts(head, tail)` must hit the wire byte-identical to a
    /// plain send of the concatenated payload: the receiver cannot tell
    /// the gathered fast path from the fallback.
    #[test]
    fn send_parts_matches_plain_send_on_the_wire() {
        let m = TcpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let head = [7u8; 20];
        let tail = Bytes::from(vec![9u8; 4096]);
        let chunk = Rsr::new(ContextId(1), EndpointId(2), "#stripe", Bytes::new());
        obj.send_parts(&chunk, &head, &tail).unwrap();
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("gathered chunk arrives");
        assert_eq!(got.handler, "#stripe");
        assert_eq!(got.payload.len(), head.len() + tail.len());
        assert_eq!(&got.payload[..head.len()], &head[..]);
        assert_eq!(&got.payload[head.len()..], &tail[..]);
        // Oversized handler names take the fallback path, same wire shape.
        let long = "h".repeat(120);
        let chunk = Rsr::new(ContextId(1), EndpointId(2), &long, Bytes::new());
        obj.send_parts(&chunk, &head, &tail).unwrap();
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("fallback chunk arrives");
        assert_eq!(got.handler, long);
        assert_eq!(got.payload.len(), head.len() + tail.len());
    }
}
