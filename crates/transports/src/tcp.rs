//! The `tcp` module: stream sockets over the loopback interface.
//!
//! This is a genuine socket transport: every context that enables TCP binds
//! a nonblocking listener on `127.0.0.1` and advertises its address in its
//! communication descriptor. A scan — accept what is queued, read every
//! accepted connection once — is the moral equivalent of the `select`
//! loop whose >100 µs cost motivates `skip_poll` in §3.3, so the receiver
//! avoids it: armed into the readiness tier it is scanned only after the
//! kernel reported an arrival and for as long as scans keep finding bytes,
//! accepts only in a scan the kernel's report preceded, and stops reading
//! a connection at the first read that did not fill its window — one
//! `read` per delivering scan (see [`crate::reactor`]); only an unarmed
//! receiver accepts and scans on each poll.
//! Frames are length-prefixed RSR encodings.
//!
//! # Who touches a payload byte
//!
//! The method adds no user-space pass over a bulk payload in either
//! direction; what remains is the kernel's own copy on each side.
//!
//! *Send.* `send` and `send_parts` are one vectored write: the lead
//! (`prefix | header | hlen | handler | plen | head`) is assembled on the
//! stack and the payload is gathered by the kernel from the caller's
//! [`Bytes`]. The encode-once shared body ([`WireFrame::body`]) is never
//! built here — it would be a copy of the payload with nine bytes in front.
//!
//! *Receive.* Each connection owns one 16 KiB read window, and the length
//! prefix of the frame at its front picks the route. A frame that fits the
//! window is cut out of it: every complete frame a read leaves there goes
//! out as a [`Rsr::decode_shared`] view of **one** copy of the whole run —
//! the single receive-side copy that remains, per batch and sized to it
//! (the window itself is never handed out, so a pending 64-byte message
//! does not pin 16 KiB). A longer frame gets storage of its own, is read
//! from the socket straight into it in reads of at most a window that stop
//! at the frame's last byte, and is delivered as a view of that storage;
//! only the first fragment, which arrived in the window behind the prefix,
//! is moved. The storage comes back through [`Bytes::try_into_mut`] for
//! the next large frame once every view of it has dropped. A prefix is a
//! claim, not data: it is checked against `MAX_FRAME` before anything is
//! sized from it, and storage is committed as bytes arrive (at most
//! `LARGE_AHEAD` past them), never from the claim alone.
//!
//! Parameters (per §2.1's requirement that methods expose their low-level
//! knobs): `nodelay` (`true`/`false`, applied to every new connection),
//! `connect_timeout_ms`, and the socket-buffer sizes `sndbuf`/`rcvbuf`
//! (bytes; 0 keeps the kernel default) — default buffers throttle striped
//! bulk transfers long before the link saturates.

use bytes::{Bytes, BytesMut};
use nexus_rt::context::ContextInfo;
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{CommModule, CommObject, CommReceiver};
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

/// Upper bound on a single frame (1 GiB would be absurd; 256 MiB allows the
/// largest realistic scientific payloads while catching corrupt lengths).
const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Size of a connection's read window, which is also the most one `read`
/// asks the kernel for: PR 13 measured that granularity as what lets a
/// bulk sender and the receiver overlap.
const WINDOW: usize = 16 * 1024;

/// The longest frame that (with its prefix) fits the window and is cut out
/// of it; a longer one gets storage of its own. The frame's length prefix
/// decides between the two routes, nothing else does.
const MAX_WINDOWED: usize = WINDOW - PREFIX_LEN;

/// How far ahead of the bytes that have arrived a large frame's storage
/// may be sized. A length prefix is a claim, not data: storage follows
/// arrival, so a peer commits receiver memory only by sending bytes.
const LARGE_AHEAD: usize = 1 << 20;

/// The frame length announced at the front of `bytes`, once all four
/// prefix bytes are there.
fn frame_len(bytes: &[u8]) -> Option<usize> {
    let prefix = bytes.first_chunk::<PREFIX_LEN>()?;
    Some(u32::from_le_bytes(*prefix) as usize)
}

/// A frame longer than the window, received straight into the storage it
/// is delivered in.
struct LargeFrame {
    /// Frame length announced by the prefix (≤ `MAX_FRAME`).
    len: usize,
    /// Bytes of the frame received so far; `< len` while it is pending.
    filled: usize,
    /// The storage. `buf.len()` is what is committed so far: at least
    /// `filled`, and exactly `len` by the time the last byte arrives.
    buf: BytesMut,
}

impl LargeFrame {
    /// Storage to commit for a `len`-byte frame of which `filled` bytes
    /// have arrived: `LARGE_AHEAD` past them or double, whichever is more,
    /// and never past the frame — so a 1 MiB frame is sized once, exactly,
    /// and a far-off end is approached geometrically.
    fn storage_for(len: usize, filled: usize) -> usize {
        len.min(filled + filled.max(LARGE_AHEAD))
    }
}

/// Per-connection read state.
struct ConnState {
    stream: TcpStream,
    /// The read window: `window[..tail]` is received and not yet cut into
    /// frames. Never handed out — frames leave as views of a copy, so a
    /// pending small message pins its batch, not 16 KiB.
    window: Box<[u8]>,
    tail: usize,
    /// The large frame being received, if the stream is inside one.
    large: Option<LargeFrame>,
    /// Whole view of the storage the last large frame was delivered in;
    /// taken back for the next one if every other view has dropped.
    spare: Option<Bytes>,
    /// `read` calls made on the stream.
    #[cfg(test)]
    reads: u32,
}

impl ConnState {
    fn new(stream: TcpStream) -> ConnState {
        ConnState {
            stream,
            window: vec![0u8; WINDOW].into_boxed_slice(),
            tail: 0,
            large: None,
            spare: None,
            #[cfg(test)]
            reads: 0,
        }
    }

    /// Reads what is available without blocking, queueing every frame
    /// that completes; returns false when the peer has closed the
    /// connection. Sets `progress` if any bytes arrived. Bytes go from the
    /// kernel into the window or, inside a large frame, into that frame's
    /// own storage in reads that stop at its last byte. A read that leaves
    /// room in the window took all there was and ends the visit without
    /// asking for `EAGAIN`: whoever visits decides from `progress` whether
    /// to come back, and the kernel re-reports what is still unread when
    /// the fd is re-armed. A completed large frame ends the visit too: it
    /// is delivered, and its storage can come back, before the next one is
    /// sized.
    fn read_frames(&mut self, out: &mut VecDeque<Rsr>, progress: &mut bool) -> Result<bool> {
        loop {
            #[cfg(test)]
            {
                self.reads += 1;
            }
            let read = match &mut self.large {
                Some(f) => {
                    if f.filled == f.buf.len() {
                        f.buf.resize(LargeFrame::storage_for(f.len, f.filled), 0);
                    }
                    let end = f.buf.len().min(f.filled + WINDOW);
                    self.stream.read(&mut f.buf[f.filled..end])
                }
                None => self.stream.read(&mut self.window[self.tail..]),
            };
            let n = match read {
                Ok(0) => return Ok(false),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            *progress = true;
            let Some(f) = &mut self.large else {
                let short = n < self.window.len() - self.tail;
                self.tail += n;
                self.cut_frames(out)?;
                if short {
                    return Ok(true);
                }
                continue;
            };
            f.filled += n;
            if let Some(done) = self.large.take_if(|f| f.filled == f.len) {
                let frame = done.buf.freeze();
                self.spare = Some(frame.clone());
                out.push_back(Rsr::decode_shared(frame)?);
                return Ok(true);
            }
        }
    }

    /// Cuts every complete frame out of the window — one copy of the whole
    /// run, each frame a view of it — then starts a large frame if one
    /// begins where the run ends, and moves what is left (part of one
    /// frame at most) to the front: one compaction per read.
    fn cut_frames(&mut self, out: &mut VecDeque<Rsr>) -> Result<()> {
        let received = &self.window[..self.tail];
        let mut cut = 0;
        let mut next = frame_len(received);
        while let Some(len) = next {
            if len > MAX_WINDOWED || received.len() - cut - PREFIX_LEN < len {
                break;
            }
            cut += PREFIX_LEN + len;
            next = frame_len(&received[cut..]);
        }
        if cut > 0 {
            let batch = Bytes::copy_from_slice(&received[..cut]);
            let mut at = 0;
            while let Some(len) = frame_len(&batch[at..]) {
                let body = at + PREFIX_LEN;
                at = body + len;
                out.push_back(Rsr::decode_shared(batch.slice(body..at))?);
            }
        }
        let mut rest = cut..self.tail;
        match next {
            // Checked behind the complete frames, which are delivered
            // first, and before anything is sized from the claim.
            Some(len) if len > MAX_FRAME => {
                return Err(NexusError::Decode("TCP frame exceeds maximum size"));
            }
            Some(len) if len > MAX_WINDOWED => {
                let got = &received[cut + PREFIX_LEN..];
                let mut buf = self
                    .spare
                    .take()
                    .and_then(|b| b.try_into_mut().ok())
                    .unwrap_or_default();
                buf.resize(LargeFrame::storage_for(len, got.len()), 0);
                buf[..got.len()].copy_from_slice(got);
                self.large = Some(LargeFrame {
                    len,
                    filled: got.len(),
                    buf,
                });
                rest = 0..0;
            }
            _ => {}
        }
        self.tail = rest.len();
        if rest.start > 0 {
            self.window.copy_within(rest, 0);
        }
        Ok(())
    }

    /// Bytes of receive storage this connection holds.
    #[cfg(test)]
    fn committed(&self) -> usize {
        self.window.len()
            + self.large.as_ref().map_or(0, |f| f.buf.capacity())
            + self.spare.as_ref().map_or(0, Bytes::len)
    }
}

/// Receive side: listener + accepted connections.
pub struct TcpReceiver {
    listener: TcpListener,
    conns: Vec<ConnState>,
    pending: VecDeque<Rsr>,
    /// `accept` calls made on the listener.
    #[cfg(test)]
    accepts: u32,
}

impl TcpReceiver {
    pub(crate) fn new(listener: TcpListener) -> TcpReceiver {
        TcpReceiver {
            listener,
            conns: Vec::new(),
            pending: VecDeque::new(),
            #[cfg(test)]
            accepts: 0,
        }
    }

    /// Accepts every connection queued on the listener; returns whether
    /// there was one.
    fn accept_queued(&mut self) -> Result<bool> {
        let mut accepted = false;
        loop {
            #[cfg(test)]
            {
                self.accepts += 1;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    stream.set_nonblocking(true)?;
                    self.conns.push(ConnState::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(accepted),
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Accepts queued connections if `listener_fired` — an armed
    /// receiver's listener announces a new peer through the reactor, so
    /// asking it on every scan only buys `EAGAIN` — and reads every
    /// connection once, queueing complete frames. Returns whether anything
    /// came off a socket: a connection, or bytes (of a whole frame or not).
    fn scan(&mut self, listener_fired: bool) -> Result<bool> {
        let mut progress = listener_fired && self.accept_queued()?;
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
            // Frames completed before an EOF or an error are queued by then
            // and stay deliverable.
            let dead = match self.conns[i].read_frames(&mut self.pending, &mut progress) {
                Ok(alive) => !alive,
                Err(e) => {
                    first_err.get_or_insert(e);
                    true
                }
            };
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

    /// The address peers dial.
    #[cfg(test)]
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Bytes received on the first connection and not yet cut into frames.
    #[cfg(test)]
    pub(crate) fn buffered(&self) -> usize {
        self.conns.first().map_or(0, |c| c.tail)
    }

    /// `(read, accept)` calls made so far by this receiver and its live
    /// connections.
    #[cfg(test)]
    pub(crate) fn syscalls(&self) -> (u32, u32) {
        (self.conns.iter().map(|c| c.reads).sum(), self.accepts)
    }

    /// Bytes of receive storage committed across all connections.
    #[cfg(test)]
    fn committed_storage(&self) -> usize {
        self.conns.iter().map(ConnState::committed).sum()
    }
}

#[cfg(have_epoll)]
impl crate::reactor::FdSource for TcpReceiver {
    fn scan(&mut self, fired: bool) -> Result<bool> {
        TcpReceiver::scan(self, fired)
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

    fn fill_listen_fds(&self, out: &mut Vec<std::os::fd::RawFd>) {
        use std::os::fd::AsRawFd;
        out.push(self.listener.as_raw_fd());
    }
}

impl CommReceiver for TcpReceiver {
    fn poll(&mut self) -> Result<Option<Rsr>> {
        if let Some(m) = self.pending.pop_front() {
            return Ok(Some(m));
        }
        // Unarmed, nobody announces a new peer: ask the listener each time.
        self.scan(true)?;
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

/// Writes `bufs` back to back as one gathered stream, restarting the
/// vectored write after partial writes and `EINTR`.
fn write_all_vectored(s: &mut TcpStream, mut bufs: &mut [IoSlice<'_>]) -> Result<()> {
    // Drops empty slices (an empty payload must not read as `WriteZero`).
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match s.write_vectored(bufs) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

impl TcpObject {
    /// The one writer behind `send` and `send_parts`: frames `rsr` with
    /// the payload `head ++ tail` and writes it in a single vectored
    /// write. Everything in front of `tail` — `prefix | header | hlen |
    /// handler | plen | head`, the lead — is assembled on the stack;
    /// `tail` is gathered by the kernel from where the caller keeps it, so
    /// no body is ever built around it and the payload is never copied here.
    fn send_gathered(&self, rsr: &Rsr, head: &[u8], tail: &[u8]) -> Result<()> {
        const STACK: usize = 128;
        let handler = rsr.handler.as_bytes();
        let plen = head.len() + tail.len();
        let body_len = 2 + handler.len() + 4 + plen;
        if handler.len() > usize::from(u16::MAX) || HEADER_LEN + body_len > MAX_FRAME {
            // The length fields below could not carry it, and the receiver
            // drops a connection whose prefix claims more than `MAX_FRAME`.
            let why = "RSR exceeds the TCP frame limit";
            return Err(std::io::Error::new(ErrorKind::InvalidInput, why).into());
        }
        let fixed = WireFrame::prefixed_header(rsr, body_len);
        let hlen = (handler.len() as u16).to_le_bytes();
        let plen = (plen as u32).to_le_bytes();
        let lead = [&fixed[..], &hlen, handler, &plen, head];
        if lead.iter().map(|part| part.len()).sum::<usize>() <= STACK {
            let mut buf = [0u8; STACK];
            let mut o = 0;
            for part in lead {
                buf[o..o + part.len()].copy_from_slice(part);
                o += part.len();
            }
            let mut iov = [IoSlice::new(&buf[..o]), IoSlice::new(tail)];
            write_all_vectored(&mut self.stream.lock(), &mut iov)
        } else {
            // A lead past the stack buffer (handler names are u16-length):
            // gather its parts where they lie rather than copy anything.
            let [fixed, hlen, handler, plen, head] = lead.map(IoSlice::new);
            let mut iov = [fixed, hlen, handler, plen, head, IoSlice::new(tail)];
            write_all_vectored(&mut self.stream.lock(), &mut iov)
        }
    }
}

impl CommObject for TcpObject {
    fn method(&self) -> MethodId {
        MethodId::TCP
    }

    fn send(&self, rsr: &Rsr, _frame: &WireFrame) -> Result<()> {
        // One vectored write per RSR, the payload gathered from the
        // message's own storage. The shared encode-once body is not
        // touched: building it would copy the payload only to put
        // `hlen | handler | plen` in front, and the lead carries those.
        self.send_gathered(rsr, &[], &rsr.payload)
    }

    fn send_parts(&self, rsr: &Rsr, head: &[u8], tail: &Bytes) -> Result<()> {
        // Stripe chunks: the small chunk head rides in the lead, the tail
        // is a slice of the original body — no combined payload is built.
        self.send_gathered(rsr, head, tail)
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

/// The reference wire image of `m`: length prefix, header, and the
/// encode-once body — built the way the method no longer does, so the
/// gathered writer is checked against an independent encoder.
#[cfg(test)]
pub(crate) fn framed(m: &Rsr) -> Vec<u8> {
    let f = WireFrame::new();
    let body = f.body(m);
    let mut frame = WireFrame::prefixed_header(m, body.len()).to_vec();
    frame.extend_from_slice(body);
    frame
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

    /// A bare receiver (no reactor shell) and the address peers dial.
    fn bare_receiver() -> (TcpReceiver, SocketAddr) {
        let rx = TcpReceiver::new(TcpListener::bind(("127.0.0.1", 0)).unwrap());
        rx.listener.set_nonblocking(true).unwrap();
        let addr = rx.local_addr();
        (rx, addr)
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
        let (mut rx, addr) = bare_receiver();
        for round in 0..10 {
            let s = TcpStream::connect(addr).unwrap();
            (&s).write_all(&framed(&msg("churn", b"x"))).unwrap();
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
        let (mut rx, addr) = bare_receiver();

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
        (&s).write_all(&framed(&msg(handler, b""))).unwrap();
        s
    }

    /// The reactor announces a new peer, so a scan that was not told of
    /// an announcement leaves the listener alone — and a connection it has
    /// not accepted unread.
    #[test]
    fn only_an_announced_scan_asks_the_listener() {
        let (mut rx, addr) = bare_receiver();
        let _peer = m_send(addr, "hello");
        for _ in 0..3 {
            assert!(!rx.scan(false).unwrap());
        }
        assert_eq!((rx.conn_count(), rx.syscalls()), (0, (0, 0)));
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.expect("accepted by an announced scan").handler, "hello");
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

    /// `send` and `send_parts(head, tail)` must hit the wire byte-identical
    /// to the reference encoding of the (concatenated) payload, whether the
    /// lead fits the writer's stack buffer or not: a raw socket reads what
    /// the one gathered writer wrote.
    #[test]
    fn send_parts_matches_plain_send_on_the_wire() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let desc = CommDescriptor::new(
            MethodId::TCP,
            listener.local_addr().unwrap().to_string().into_bytes(),
        );
        let obj = TcpModule::new().connect(&info(2), &desc).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut written = |expect: &[u8]| {
            let mut got = vec![0u8; expect.len()];
            peer.read_exact(&mut got).unwrap();
            got
        };
        let head = [7u8; 20];
        let tail = Bytes::from(vec![9u8; 4096]);
        let whole = Bytes::from([&head[..], &tail[..]].concat());
        // Handler names around and past the 128-byte lead buffer: 120
        // bytes overflow it with the chunk head and fit without, 300
        // overflow it either way (and used to recurse between `send_parts`
        // and its fallback once `send` shared the writer).
        for hlen in [7, 120, 300] {
            let h = "h".repeat(hlen);
            let plain = Rsr::new(ContextId(1), EndpointId(2), &h, whole.clone());
            let reference = framed(&plain);
            obj.send(&plain, &WireFrame::new()).unwrap();
            assert!(
                written(&reference) == reference,
                "send, {hlen}-byte handler"
            );
            let chunk = Rsr::new(ContextId(1), EndpointId(2), &h, Bytes::new());
            obj.send_parts(&chunk, &head, &tail).unwrap();
            assert!(
                written(&reference) == reference,
                "send_parts, {hlen}-byte handler"
            );
        }
        // Empty pieces are skipped, not written as zero-length slices.
        let empty = Rsr::new(ContextId(1), EndpointId(2), "", Bytes::new());
        let reference = framed(&empty);
        obj.send(&empty, &WireFrame::new()).unwrap();
        obj.send_parts(&empty, &[], &Bytes::new()).unwrap();
        assert_eq!(written(&reference), reference);
        assert_eq!(written(&reference), reference);
    }

    /// A frame the receiver would reject (or whose length fields could not
    /// carry it) is refused before a byte of it is written.
    #[test]
    fn oversized_rsr_is_refused_and_the_connection_stays_usable() {
        let m = TcpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let too_big = Rsr::new(
            ContextId(1),
            EndpointId(2),
            "big",
            Bytes::from(vec![0u8; MAX_FRAME]),
        );
        assert!(obj.send(&too_big, &WireFrame::new()).is_err());
        assert!(obj
            .send_parts(&msg("big", b""), &[1], &too_big.payload)
            .is_err());
        let long = "h".repeat(usize::from(u16::MAX) + 1);
        assert!(obj.send(&msg(&long, b""), &WireFrame::new()).is_err());
        // Nothing of them reached the stream: the next frame decodes.
        obj.send(&msg("after", b"ok"), &WireFrame::new()).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got.handler, "after");
    }

    /// What the gathered writer produces decodes on the real receive path,
    /// long lead included.
    #[test]
    fn long_handler_roundtrips_through_both_send_entry_points() {
        let m = TcpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let long = "h".repeat(300);
        let head = [7u8; 20];
        let tail = Bytes::from(vec![9u8; 4096]);
        let chunk = Rsr::new(ContextId(1), EndpointId(2), &long, Bytes::new());
        obj.send_parts(&chunk, &head, &tail).unwrap();
        obj.send(&msg(&long, b"plain"), &WireFrame::new()).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got.handler, long);
        assert_eq!(&got.payload[..head.len()], &head[..]);
        assert_eq!(&got.payload[head.len()..], &tail[..]);
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got.handler, long);
        assert_eq!(&got.payload[..], b"plain");
    }

    // -- framing matrix: a raw socket as the peer, so writes split anywhere --

    /// An RSR whose frame (header + body, what the prefix announces) is
    /// exactly `frame_len` bytes, with contents that depend on `tag`.
    fn sized(frame_len: usize, tag: u8) -> Rsr {
        let overhead = msg("m", b"").wire_len();
        let payload: Vec<u8> = (0..frame_len - overhead)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag))
            .collect();
        let m = msg("m", &payload);
        assert_eq!(m.wire_len(), frame_len);
        m
    }

    /// The mixed sequence: small, the three lengths around the window
    /// boundary, two large ones, then small again.
    fn mixed_sequence() -> Vec<Rsr> {
        [
            37,
            85,
            MAX_WINDOWED - 1,
            MAX_WINDOWED,
            MAX_WINDOWED + 1,
            100 * 1024,
            1 << 20,
            37,
            85,
        ]
        .iter()
        .enumerate()
        .map(|(i, &len)| sized(len, i as u8))
        .collect()
    }

    /// Scans until a scan finds nothing more to read, collecting what was
    /// delivered.
    fn drain(rx: &mut TcpReceiver, got: &mut Vec<Rsr>) {
        while rx.scan(true).unwrap() {}
        got.extend(rx.pending.drain(..));
    }

    /// Writes `pieces` to the peer socket one `write` each, letting the
    /// receiver read what a write delivered before the next one, then
    /// keeps scanning until `done` holds (loopback delivery is prompt but
    /// not synchronous with `write` returning).
    fn feed(
        rx: &mut TcpReceiver,
        peer: &TcpStream,
        pieces: &[&[u8]],
        done: impl Fn(&TcpReceiver, &[Rsr]) -> bool,
    ) -> Vec<Rsr> {
        let mut got = Vec::new();
        for piece in pieces {
            if piece.len() <= WINDOW {
                (&*peer).write_all(piece).unwrap();
            } else {
                // More than the socket buffers hold: the write needs the
                // receiver reading beside it.
                std::thread::scope(|sc| {
                    let w = sc.spawn(|| (&*peer).write_all(piece).unwrap());
                    while !w.is_finished() {
                        drain(rx, &mut got);
                    }
                });
            }
            drain(rx, &mut got);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done(rx, &got) {
            assert!(std::time::Instant::now() < deadline, "stream not consumed");
            drain(rx, &mut got);
        }
        got
    }

    /// Bytes of the large frame connection 0 is inside of, if it is.
    fn large_filled(rx: &TcpReceiver) -> Option<usize> {
        Some(rx.conns.first()?.large.as_ref()?.filled)
    }

    /// Splits `stream` at the (sorted) offsets `cuts`.
    fn split_at<'a>(stream: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut pieces = Vec::new();
        let mut from = 0;
        for &cut in cuts.iter().chain([&stream.len()]) {
            pieces.push(&stream[from..cut]);
            from = cut;
        }
        pieces
    }

    fn assert_same(got: &[Rsr], want: &[Rsr], how: &str) {
        assert_eq!(got.len(), want.len(), "{how}: frame count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.handler, w.handler, "{how}: frame {i} handler");
            assert_eq!((g.dest, g.endpoint, g.ttl), (w.dest, w.endpoint, w.ttl));
            assert!(g.payload == w.payload, "{how}: frame {i} payload");
        }
    }

    #[test]
    fn framing_matrix_delivers_the_same_frames_however_the_stream_is_split() {
        let want = mixed_sequence();
        let frames: Vec<Vec<u8>> = want.iter().map(framed).collect();
        let stream = frames.concat();
        // Offset of each frame's prefix in the stream.
        let starts: Vec<usize> = frames
            .iter()
            .scan(0, |at, f| {
                let start = *at;
                *at += f.len();
                Some(start)
            })
            .collect();
        let (mut rx, addr) = bare_receiver();
        let peer = TcpStream::connect(addr).unwrap();
        peer.set_nodelay(true).unwrap();
        let mut run = |how: &str, cuts: &[usize]| {
            let pieces = split_at(&stream, cuts);
            let got = feed(&mut rx, &peer, &pieces, |_, got| got.len() >= want.len());
            assert_same(&got, &want, how);
        };

        // (a) The whole sequence in one write.
        run("one write", &[]);

        // (b) One byte at a time — except the interior of the 1 MiB
        // frame, which goes in odd-sized writes so the test stays fast;
        // its first and last 64 bytes are single bytes like the rest.
        let mib = starts[6]..starts[7];
        let cuts: Vec<usize> = (1..stream.len())
            .filter(|&at| {
                let interior = at > mib.start + 64 && at < mib.end - 64;
                !interior || (at - mib.start) % 4099 == 0
            })
            .collect();
        run("byte by byte", &cuts);

        // (c) Every frame's prefix split after its 1st, 2nd, 3rd byte.
        for k in 1..PREFIX_LEN {
            let cuts: Vec<usize> = starts.iter().map(|s| s + k).collect();
            run(&format!("prefix split at {k}"), &cuts);
        }

        // (d) A large frame's last byte and the next small frame in the
        // same write (for both large frames).
        run(
            "last byte rides with the next frame",
            &[starts[6] - 1, starts[7] - 1],
        );

        // The connection survived all of it.
        assert_eq!(rx.conn_count(), 1);
    }

    #[test]
    fn peer_closing_mid_large_frame_delivers_nothing_and_is_evicted() {
        let (mut rx, addr) = bare_receiver();
        let frame = framed(&sized(1 << 20, 0));
        let peer = TcpStream::connect(addr).unwrap();
        let sent = 300 * 1024;
        let got = feed(&mut rx, &peer, &[&frame[..sent]], |rx, _| {
            large_filled(rx) == Some(sent - PREFIX_LEN)
        });
        assert!(got.is_empty());
        assert_eq!(rx.conn_count(), 1, "inside the frame, still connected");
        drop(peer);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rx.conn_count() > 0 {
            assert!(std::time::Instant::now() < deadline, "never evicted");
            assert!(rx.poll().unwrap().is_none(), "half a frame was delivered");
        }
        assert!(rx.pending.is_empty());
    }

    /// A corrupt prefix *behind* complete frames: those frames are still
    /// delivered, the error is reported once, the connection dropped.
    #[test]
    fn corrupt_prefix_behind_complete_frames_delivers_them_first() {
        let (mut rx, addr) = bare_receiver();
        // Small enough that one read sees the frames and the bad prefix
        // together: the framer must deliver the former before it rejects.
        let want = [sized(37, 1), sized(85, 2), sized(300, 3)];
        let mut stream: Vec<u8> = want.iter().flat_map(framed).collect();
        stream.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        stream.extend_from_slice(b"never a frame");
        let peer = TcpStream::connect(addr).unwrap();
        (&peer).write_all(&stream).unwrap();
        let (mut got, mut errors) = (Vec::new(), 0);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while errors == 0 || got.len() < want.len() {
            assert!(std::time::Instant::now() < deadline, "{errors} errors");
            match rx.poll() {
                Ok(Some(m)) => got.push(m),
                Ok(None) => {}
                Err(_) => errors += 1,
            }
        }
        assert_same(&got, &want, "ahead of the corrupt prefix");
        assert_eq!(rx.conn_count(), 0, "corrupt connection was not dropped");
        for _ in 0..10 {
            assert!(matches!(rx.poll(), Ok(None)), "error surfaced twice");
        }
        assert_eq!(errors, 1);
        drop(peer);
    }

    /// A length prefix alone commits no memory: 200 MiB claimed, 1 KiB
    /// sent, and the receiver holds about `LARGE_AHEAD`, not the claim.
    #[test]
    fn stalled_peer_with_a_huge_prefix_commits_little_storage() {
        let (mut rx, addr) = bare_receiver();
        let baseline = rx.committed_storage();
        let peer = TcpStream::connect(addr).unwrap();
        let mut lie = (200u32 << 20).to_le_bytes().to_vec();
        lie.extend_from_slice(&[0xAB; 1024]);
        let got = feed(&mut rx, &peer, &[&lie], |rx, _| {
            large_filled(rx) == Some(1024)
        });
        assert!(got.is_empty());
        assert_eq!(rx.conn_count(), 1, "a plausible prefix is not an error");
        let held = rx.committed_storage() - baseline;
        assert!(
            held <= (2 << 20) + WINDOW,
            "a 4-byte claim committed {held} bytes"
        );
        // The peer gives up: evicted, nothing delivered, storage released.
        drop(peer);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rx.conn_count() > 0 {
            assert!(std::time::Instant::now() < deadline, "never evicted");
            assert!(rx.poll().unwrap().is_none());
        }
        assert_eq!(rx.committed_storage(), baseline);
    }

    /// Storage follows arrival: exact once the end is near, geometric (and
    /// never past the frame) before that.
    #[test]
    fn large_frame_storage_grows_with_arrival() {
        let mib = 1 << 20;
        // The benchmark's shape: a 1 MiB frame is sized once, exactly.
        assert_eq!(LargeFrame::storage_for(mib + 29, WINDOW - 4), mib + 29);
        // A far-off end: one `LARGE_AHEAD` past what arrived, then doubling.
        let len = 200 * mib;
        let mut held = LargeFrame::storage_for(len, 1024);
        assert_eq!(held, 1024 + LARGE_AHEAD);
        let mut steps = 1;
        while held < len {
            let grown = LargeFrame::storage_for(len, held);
            assert!(grown > held && grown <= len && grown <= 2 * held + LARGE_AHEAD);
            held = grown;
            steps += 1;
        }
        assert!(steps <= 10, "{steps} reallocations for one frame");
    }

    /// The copies are really gone: a large payload is delivered in the
    /// storage the socket was read into, and that storage is what the next
    /// large frame is read into once the payload has been dropped.
    #[test]
    fn large_frame_storage_is_delivered_uncopied_and_recycled() {
        let m = TcpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let mut roundtrip = |tag: u8| {
            let sent = sized((1 << 20) + 21, tag);
            std::thread::scope(|sc| {
                sc.spawn(|| obj.send(&sent, &WireFrame::new()).unwrap());
                let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
                let got = got.expect("1 MiB frame");
                assert_eq!(got.payload.len(), 1 << 20);
                assert!(got.payload == sent.payload, "payload {tag} verifies");
                got.payload
            })
        };
        let first = roundtrip(1);
        let first_at = first.as_ptr();
        drop(first);
        // Dropped before the second arrived: same storage, so nothing was
        // copied out of it on delivery.
        let second = roundtrip(2);
        assert_eq!(second.as_ptr(), first_at, "storage was not recycled");
        // Still held when the third arrives: distinct storage, both intact.
        let third = roundtrip(3);
        assert_ne!(third.as_ptr(), second.as_ptr());
        assert!(second == sized((1 << 20) + 21, 2).payload);
        assert!(third == sized((1 << 20) + 21, 3).payload);
    }
}
