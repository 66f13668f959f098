//! The `tcp` module: stream sockets over the loopback interface.
//!
//! This is a genuine socket transport: every context that enables TCP binds
//! a nonblocking listener on `127.0.0.1` and advertises its address in its
//! communication descriptor. A scan — accept what is queued, read every
//! connection once — is the moral equivalent of the `select`
//! loop whose >100 µs cost motivates `skip_poll` in §3.3, so the receiver
//! avoids it: armed into the readiness tier it is scanned only after the
//! kernel reported an arrival and for as long as scans keep finding bytes,
//! accepts only in a scan the kernel's report preceded, and stops reading
//! a connection at the first read that did not fill its window — one
//! `read` per delivering scan (see [`crate::reactor`]); only an unarmed
//! receiver accepts and scans on each poll.
//! Frames are length-prefixed RSR encodings.
//!
//! # Connections
//!
//! One connection joins two contexts and carries both directions, so a
//! reply rides its request's socket and the kernel's ACK rides the reply: a
//! one-way pair made each small read send a pure ACK from inside `recvmsg`,
//! ≈ 2.4–3.4 µs a read against ≈ 0.55–0.68 µs (EXPERIMENTS.md "One
//! connection per context pair"). A dialler whose context has a receiver
//! here sends a *hello* first — `prefix | 'H' | its listen address` — and
//! hands the socket's read side to that receiver as an accept is announced:
//! queued, then `fired` and a ring (`reactor::Announcer`; model check
//! `handoff`). The acceptor reads the hello as the connection's first frame
//! and files a writer on the socket under (own listener, peer listener) in
//! the module's table, and `connect` returns it. A dialler without a
//! receiver sends no hello and its connection stays one-way; a hello
//! anywhere else — or a first frame that claims to be one and is not —
//! fails its connection like any corrupt frame. Two contexts that dial each
//! other before either hello is read get two connections, both delivering.
//! The connection is one unit: an EOF or error on either end evicts it
//! there and fails its writer, whose next send fails over, and closing a
//! writer shuts the socket. Writes block as before; reads are
//! `recv(MSG_DONTWAIT)`, because `O_NONBLOCK` belongs to the socket's one
//! file description.
//!
//! # Who touches a payload byte
//!
//! The method adds no user-space pass over a bulk payload in either
//! direction; what remains is the kernel's own copy on each side.
//!
//! *Send.* A send is one vectored write: the lead (`prefix | header | hlen
//! | handler | plen | head`, a stripe chunk's head included) is assembled
//! on the stack and the payload is gathered by the kernel from the caller's
//! [`Bytes`]. The encode-once shared body ([`WireFrame::body`]) is never
//! built here — it would be a copy of the payload with nine bytes in front.
//! The one exception is a staged frame (below), whose lead and payload are
//! copied once into the staging buffer so a burst leaves in one write.
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
//! # Send: staging, and who flushes
//!
//! Each `writev` on a socket the peer is reading on another CPU costs
//! about twice what it costs on an unread one, so a burst of small RSRs
//! paid that once per message. A connection can therefore *stage*: append
//! the frame to a staging buffer of one receive window (`STAGE`, allocated
//! at the first stage, never grown) instead of writing it, when all three
//! parts of the stage rule hold:
//!
//! * (a) the sending context permits it: no dispatch round of it has begun
//!   since the link's last send (`Context::send_with_failover`), so
//!   request/reply never stages;
//! * (b) the send began sooner after the previous one on the connection
//!   ended than the connection's last write took — the sender outruns
//!   the wire; an open-loop sender slower than one write writes through;
//! * (c) the frame fits what is left of the staging buffer.
//!
//! Every send is timed here for rule (b), and every write refreshes the
//! cost it compares against. The one writer puts whatever is staged in
//! front of every write — a send, a flush — so frames stay in issue order
//! per connection. Staged bytes are written by the first of:
//!
//! * a frame that no longer fits: it leaves with them, in one `writev`;
//! * any write on the connection;
//! * the owner's flush: the context that got the `NeedsOwner` answer
//!   flushes at the start of its next progress pass, after its dispatch
//!   loop, and after each worker token service. The owner claim
//!   (`listed`) is released under the writer lock *before* the write, so
//!   a frame staged after that write takes a new claim (the `stage-flush`
//!   model check refutes releasing it after);
//! * `close` (and with it context shutdown);
//! * the backstop on the reactor thread: every `BACKSTOP` while some
//!   connection holds staged bytes, it writes frames that have waited a
//!   full tick, only if it gets the writer lock with `try_lock`, and
//!   without blocking — so a staged frame reaches the wire within two
//!   ticks even if no thread enters its context again.
//!
//! A write error is the connection's failure: the sender's failover path
//! for a send, the owner's (counted as a failover of the connection) for a
//! flush, after which the connection refuses every send rather than stage
//! onto a dead stream. Writes that carried staged frames count on the
//! owner's TCP record (`flushes`, `flushed_frames`), which the staging
//! permission names. A staged frame's `Ok` meant "accepted by the
//! connection", as for bytes in a kernel send buffer.
//!
//! Parameters (per §2.1's requirement that methods expose their low-level
//! knobs): `nodelay` (`true`/`false`, applied to every new connection, at
//! either end), `connect_timeout_ms`, and the socket-buffer sizes (bytes;
//! unset keeps the kernel default) — default buffers throttle striped bulk
//! transfers long before the link saturates. Both apply to the listener a
//! context opens, before any peer connects, so accepted sockets inherit
//! them and the window scale is negotiated from `rcvbuf` at the SYN.
//! `sndbuf` also sizes each dialled socket and is settable per connection;
//! `rcvbuf` is a module parameter only, so a dialled socket reads the
//! replies with the kernel's default receive buffer.

use crate::reactor::{Announcer, Reactor, RegistrationId};
use bytes::{Bytes, BytesMut};
use nexus_rt::context::{ContextId, ContextInfo};
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{CommModule, CommObject, CommReceiver, Staged};
use nexus_rt::rsr::{Rsr, WireFrame, HEADER_LEN, PREFIX_LEN};
use nexus_rt::trace::{MethodTrace, Trace};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::ffi::c_void;
use std::io::{ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// TCP communication module.
pub struct TcpModule {
    connect_timeout_ms: AtomicU64,
    /// Socket buffer sizes for new listeners and dialled sockets; 0 =
    /// kernel default.
    sndbuf: AtomicU64,
    rcvbuf: AtomicU64,
    shared: Arc<Shared>,
}

/// What the module's receivers and dials share (module doc, §
/// Connections).
#[derive(Default)]
pub(crate) struct Shared {
    nodelay: AtomicBool,
    /// Each open context's listener and where its receiver takes the read
    /// sides of the sockets it dials; `None` for an id two live receivers
    /// claim (one module in two fabrics), whose dials then stay one-way.
    locals: Mutex<HashMap<ContextId, Option<Local>>>,
    /// Writers of two-way connections, by (own listener, peer listener).
    writers: Mutex<HashMap<(SocketAddr, SocketAddr), Weak<TcpObject>>>,
}

/// A context's receiver, as the context's dials see it.
struct Local {
    addr: SocketAddr,
    handed: Weak<Mutex<Vec<ConnState>>>,
    announce: Announcer,
}

impl Shared {
    /// The live, unfailed writer filed under `key`.
    fn writer(&self, key: (SocketAddr, SocketAddr)) -> Option<Arc<TcpObject>> {
        let w = self.writers.lock().get(&key)?.upgrade()?;
        (!w.failed.load(Ordering::Relaxed)).then_some(w)
    }

    /// Files `writer` under `key` unless a live one is there: of two
    /// simultaneous dials, the first filed stays, and both deliver.
    fn file(&self, key: (SocketAddr, SocketAddr), writer: &Arc<TcpObject>) {
        let mut writers = self.writers.lock();
        let slot = writers.entry(key).or_default();
        if slot.strong_count() == 0 {
            *slot = Arc::downgrade(writer);
        }
    }
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
            connect_timeout_ms: AtomicU64::new(2_000),
            sndbuf: AtomicU64::new(0),
            rcvbuf: AtomicU64::new(0),
            shared: Arc::new(Shared {
                nodelay: AtomicBool::new(true),
                ..Shared::default()
            }),
        }
    }
}

/// Which socket buffer a `sndbuf`/`rcvbuf` parameter adjusts.
#[derive(Clone, Copy)]
enum SockBuf {
    Send,
    Recv,
}

// The socket calls this module makes itself. The workspace builds without
// libc, so it speaks to them directly — the same raw-FFI idiom as the
// reactor's epoll binding.
extern "C" {
    fn setsockopt(fd: RawFd, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
    #[link_name = "send"]
    fn sys_send(fd: RawFd, buf: *const c_void, len: usize, flags: i32) -> isize;
    #[link_name = "recv"]
    fn sys_recv(fd: RawFd, buf: *mut c_void, len: usize, flags: i32) -> isize;
}

const MSG_DONTWAIT: i32 = 0x40;

/// Sets `SO_SNDBUF`/`SO_RCVBUF` on a socket.
fn set_socket_buffer(socket: &impl AsRawFd, which: SockBuf, bytes: usize) -> Result<()> {
    const SOL_SOCKET: i32 = 1;
    const SO_OPT: [i32; 2] = [7, 8]; // [SO_SNDBUF, SO_RCVBUF]
    let value: i32 = bytes.try_into().map_err(|_| NexusError::BadParam {
        key: "sockbuf".to_owned(),
        reason: format!("{bytes} exceeds the socket-buffer range"),
    })?;
    let name = SO_OPT[matches!(which, SockBuf::Recv) as usize];
    // SAFETY: the fd comes from a live socket borrowed for the whole
    // call, and the value pointer/length describe one properly aligned
    // `i32` on this stack frame; setsockopt only reads through the
    // pointer and retains nothing past the call.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            name,
            &value as *const i32 as *const c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc != 0 {
        return Err(std::io::Error::last_os_error().into());
    }
    Ok(())
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

/// Most bytes a connection stages: one receive window, so a combined
/// write is what one of the peer's reads takes. Measured on
/// `wire_stream_small` (256 × 64 B per op, 2-vCPU host): the burst leaves
/// in ≈ 3 writes that the receiver takes in ≈ 11 reads instead of 256
/// writes and ≈ 137 reads, and the sender's `ctx.send.self_us` fell
/// 3.62 → 0.34 µs (EXPERIMENTS.md "Writer-side combining").
const STAGE: usize = WINDOW;

/// The backstop's tick, and the least a staged frame has waited when it
/// writes it: staged frames reach the wire within two ticks. Measured
/// beside the variant that wrote on every tick under a blocking lock:
/// the reactor thread taking the writer every 1 ms on a 2-vCPU host
/// (lock-holder preemption) put `wire_stream_small`'s p99 at 1.6–3.1 ms
/// and its worst 100 ms segments at half rate; writing only frames a
/// full tick old, and only if `try_lock` wins, keeps its p99 at
/// ≈ 0.3 ms (EXPERIMENTS.md "Writer-side combining").
const BACKSTOP: Duration = Duration::from_millis(1);

/// The frame length announced at the front of `bytes`, once all four
/// prefix bytes are there.
fn frame_len(bytes: &[u8]) -> Option<usize> {
    let prefix = bytes.first_chunk::<PREFIX_LEN>()?;
    Some(u32::from_le_bytes(*prefix) as usize)
}

/// First body byte of a hello, where an RSR frame has its magic.
const HELLO: u8 = b'H';

/// Longest hello body: the tag and a listen address as text.
const HELLO_MAX: usize = 64;

/// The frame a dialler that has a receiver sends first: `prefix | HELLO |
/// listen address`.
fn hello(listener: SocketAddr) -> Vec<u8> {
    let addr = listener.to_string();
    let mut frame = ((1 + addr.len()) as u32).to_le_bytes().to_vec();
    frame.push(HELLO);
    frame.extend_from_slice(addr.as_bytes());
    frame
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
    stream: Arc<TcpStream>,
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
    /// Accepted, and its first frame not yet judged: it may be a hello.
    greet: bool,
    /// The peer's listener, from its hello or the dial.
    peer: Option<SocketAddr>,
    /// The writer on this socket: the dialler's, or one made for a hello.
    writer: Option<Arc<TcpObject>>,
    /// `read` calls made on the stream.
    #[cfg(test)]
    reads: u32,
}

impl ConnState {
    fn new(stream: Arc<TcpStream>, greet: bool) -> ConnState {
        ConnState {
            stream,
            window: vec![0u8; WINDOW].into_boxed_slice(),
            tail: 0,
            large: None,
            spare: None,
            greet,
            peer: None,
            writer: None,
            #[cfg(test)]
            reads: 0,
        }
    }

    /// Judges an accepted connection's first frame once enough of it is
    /// here: a frame of at most `HELLO_MAX` bytes with the hello tag is a
    /// hello — its address kept, its bytes taken off the window — and
    /// anything else an RSR. Returns whether the frame is judged.
    fn take_hello(&mut self) -> Result<bool> {
        let got = &self.window[..self.tail];
        let Some(len) = frame_len(got) else {
            return Ok(false);
        };
        let rsr = len == 0 || len > HELLO_MAX || got.get(PREFIX_LEN).is_some_and(|&t| t != HELLO);
        if !rsr {
            let Some(addr) = got.get(PREFIX_LEN + 1..PREFIX_LEN + len) else {
                return Ok(false);
            };
            self.peer = Some(crate::util::parse_socket_addr(addr)?);
            self.window.copy_within(PREFIX_LEN + len..self.tail, 0);
            self.tail -= PREFIX_LEN + len;
        }
        self.greet = false;
        Ok(true)
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
                    recv_nowait(&self.stream, &mut f.buf[f.filled..end])
                }
                None => recv_nowait(&self.stream, &mut self.window[self.tail..]),
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
                if !self.greet || self.take_hello()? {
                    self.cut_frames(out)?;
                }
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
}

/// Receive side: listener, accepted connections and the read sides of
/// the ones its context dialled.
pub struct TcpReceiver {
    listener: TcpListener,
    /// The listener's address: this receiver's half of its table keys.
    own: SocketAddr,
    conns: Vec<ConnState>,
    pending: VecDeque<Rsr>,
    /// Dialled sockets handed over, joining `conns` at an announced scan.
    handed: Arc<Mutex<Vec<ConnState>>>,
    shared: Arc<Shared>,
    /// `accept` calls made on the listener.
    #[cfg(test)]
    accepts: u32,
}

impl TcpReceiver {
    pub(crate) fn new(listener: TcpListener, shared: Arc<Shared>) -> Result<TcpReceiver> {
        Ok(TcpReceiver {
            own: listener.local_addr()?,
            listener,
            conns: Vec::new(),
            pending: VecDeque::new(),
            handed: Arc::default(),
            shared,
            #[cfg(test)]
            accepts: 0,
        })
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
                    self.conns.push(ConnState::new(Arc::new(stream), true));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(accepted),
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Accepts queued connections and takes handed ones if
    /// `listener_fired` — an armed receiver's listener announces a new
    /// peer through the reactor, and a dialler its socket through the
    /// doorbell, so asking on every scan only buys `EAGAIN` — and reads
    /// every connection once, queueing complete frames. Returns whether
    /// anything came: a connection, or bytes (of a whole frame or not).
    fn scan(&mut self, listener_fired: bool) -> Result<bool> {
        let mut progress = listener_fired && self.accept_queued()?;
        if listener_fired {
            let mut handed = self.handed.lock();
            progress |= !handed.is_empty();
            self.conns.append(&mut handed);
        }
        // Read from every connection and evict the dead: a connection is
        // dead on EOF, on a read error, or on a framing/decode error (its
        // stream offset is lost). The others are still read, and the first
        // error is reported once.
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
                self.evict(i);
            } else {
                self.file_writer(i);
                i += 1;
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(progress),
        }
    }

    /// Makes and files the writer of connection `i` once its hello named
    /// the peer: the context's next `connect` to that peer returns it.
    fn file_writer(&mut self, i: usize) {
        let c = &mut self.conns[i];
        let (Some(peer), None) = (c.peer, &c.writer) else {
            return;
        };
        let _ = c
            .stream
            .set_nodelay(self.shared.nodelay.load(Ordering::Relaxed));
        let writer = TcpObject::new(Arc::clone(&c.stream));
        self.shared.file((self.own, peer), &writer);
        c.writer = Some(writer);
    }

    /// Drops connection `i` as one unit: its writer refuses the next send,
    /// which the sender fails over and closes, and leaves the table.
    fn evict(&mut self, i: usize) {
        if let Some(w) = self.conns.swap_remove(i).writer {
            w.failed.store(true, Ordering::Relaxed);
            let w = Arc::downgrade(&w);
            let mut writers = self.shared.writers.lock();
            writers.retain(|_, f| f.strong_count() > 0 && !f.ptr_eq(&w));
        }
    }
}

/// A closed receiver's context takes no more read sides, and its writers
/// are no longer offered; each lives on with whoever holds it.
impl Drop for TcpReceiver {
    fn drop(&mut self) {
        let own = self.own;
        self.shared
            .locals
            .lock()
            .retain(|_, l| l.as_ref().is_none_or(|l| l.addr != own));
        self.shared.writers.lock().retain(|(at, _), _| *at != own);
    }
}

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

/// Sender side: one connected stream behind one writer, which stages the
/// small frames a fast sender issues and puts them in front of its next
/// write (module doc, § Send).
pub struct TcpObject {
    /// The writer: socket and staging buffer under one lock.
    stream: Mutex<Outbox>,
    /// Backstop tick count when the oldest staged frame was staged; 0
    /// while the backstop has nothing to watch here. Read by the backstop
    /// without the writer lock.
    staged_at: AtomicU64,
    /// Whether the backstop holds this connection (it has staged before).
    enlisted: AtomicBool,
    /// This connection, as the backstop holds it.
    me: Weak<TcpObject>,
    /// A flush failed (the owner failed the connection over), the writer
    /// was closed, or its receiver evicted the socket: every later send is
    /// refused rather than staged onto a dead stream, and `connect` no
    /// longer offers it.
    failed: AtomicBool,
}

/// What the writer lock guards.
struct Outbox {
    socket: Arc<TcpStream>,
    /// Staged frames back to back: room for `STAGE` bytes is allocated at
    /// the first stage, and the buffer never grows past it.
    staged: Vec<u8>,
    /// Frames in `staged` (one the backstop has partly written included).
    frames: u32,
    /// An owner holds the connection: a context got `NeedsOwner` and has
    /// not flushed it since. Released by that flush, under this lock,
    /// before its write.
    listed: bool,
    /// When the last send ended and what the last write took: stage rule
    /// (b) compares the gap before a send with that cost.
    last_end: Instant,
    write_cost: Duration,
    /// The owning context's TCP record, which counts the writes that
    /// carried staged frames; named by the first staging permission.
    counts: Option<Arc<MethodTrace>>,
    #[cfg(test)]
    census: tests::Census,
    /// Sleep before each blocking write (a test-injected slow write).
    #[cfg(test)]
    stall: Duration,
    /// The backstop leaves this connection alone, so a test knows which
    /// writer wrote.
    #[cfg(test)]
    backstop_off: bool,
}

/// Writes `bufs` back to back as one gathered stream, restarting the
/// vectored write after partial writes and `EINTR`.
fn write_all_vectored(mut s: &TcpStream, mut bufs: &mut [IoSlice<'_>]) -> Result<()> {
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

/// Appends one frame — its lead parts, then the payload — to the staging
/// buffer, which is allocated here at the first stage and never grows: the
/// caller checked that the frame fits what is left of `STAGE`.
fn stage_frame(out: &mut Outbox, lead: [&[u8]; 5], tail: &[u8]) {
    if out.staged.capacity() == 0 {
        out.staged.reserve_exact(STAGE);
    }
    for part in lead {
        out.staged.extend_from_slice(part);
    }
    out.staged.extend_from_slice(tail);
    out.frames += 1;
    #[cfg(test)]
    {
        out.census.staged += 1;
    }
}

/// One `recv(2)` that never blocks: the socket's file description also
/// serves a blocking writer, so the reader cannot set `O_NONBLOCK` on it.
fn recv_nowait(socket: &TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
    let (fd, at, len) = (socket.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len());
    // SAFETY: the fd comes from a live `TcpStream` borrowed for the whole
    // call, and `at`/`len` describe the exclusively borrowed slice, which
    // the kernel only writes during the call.
    let n = unsafe { sys_recv(fd, at, len, MSG_DONTWAIT) };
    usize::try_from(n).map_err(|_| std::io::Error::last_os_error())
}

/// One `send(2)` that never blocks (`MSG_DONTWAIT`): how much of `bytes`
/// the kernel took. The backstop writes this way, so a peer that stopped
/// reading cannot stall the reactor thread.
fn send_nowait(socket: &TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
    const MSG_NOSIGNAL: i32 = 0x4000;
    loop {
        // SAFETY: the fd comes from a live `TcpStream` borrowed for the
        // whole call, and the pointer/length describe the borrowed slice,
        // which the kernel only reads during the call.
        let n = unsafe {
            sys_send(
                socket.as_raw_fd(),
                bytes.as_ptr().cast(),
                bytes.len(),
                MSG_DONTWAIT | MSG_NOSIGNAL,
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Whether connections in this process can stage: only where the backstop
/// runs, so that no staged frame depends on its context being entered
/// again.
fn can_stage() -> bool {
    Backstop::get().is_some()
}

/// The backstop's tick count, which dates a connection's oldest frame.
fn backstop_now() -> u64 {
    Backstop::get().map_or(1, |b| b.ticks.load(Ordering::Relaxed))
}

impl TcpObject {
    fn new(socket: Arc<TcpStream>) -> Arc<TcpObject> {
        Arc::new_cyclic(|me| TcpObject {
            stream: Mutex::new(Outbox {
                socket,
                staged: Vec::new(),
                frames: 0,
                listed: false,
                last_end: Instant::now(),
                write_cost: Duration::ZERO,
                counts: None,
                #[cfg(test)]
                census: tests::Census::default(),
                #[cfg(test)]
                stall: Duration::ZERO,
                #[cfg(test)]
                backstop_off: false,
            }),
            staged_at: AtomicU64::new(0),
            enlisted: AtomicBool::new(false),
            me: me.clone(),
            failed: AtomicBool::new(false),
        })
    }

    /// The one writer behind `transfer`: frames `rsr` with the payload
    /// `head ++ rsr.payload` and either stages it (the stage rule holds:
    /// module doc, § Send) or writes it in a single vectored write behind
    /// whatever is staged. Everything in front of the payload — `prefix |
    /// header | hlen | handler | plen | head`, the lead — is assembled on
    /// the stack; the payload is gathered by the kernel from where the
    /// caller keeps it, so a written frame's payload is never copied here.
    /// Also returns whether the staging buffer went from empty to not: the
    /// caller then arms the backstop, with the writer lock released.
    fn send_gathered(
        &self,
        rsr: &Rsr,
        head: &[u8],
        stage: Option<&Trace>,
    ) -> Result<(Staged, bool)> {
        const STACK: usize = 128;
        let tail = &rsr.payload[..];
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
        let lead_len: usize = lead.iter().map(|part| part.len()).sum();
        if self.failed.load(Ordering::Relaxed) {
            return Err(NexusError::ConnectionClosed);
        }
        let start = Instant::now();
        let mut out = self.stream.lock();
        #[cfg(test)]
        {
            out.census.sends += 1;
        }
        // Rule (a) is the permission; (b) the sender outruns the wire;
        // (c) the frame fits.
        let outruns = start.saturating_duration_since(out.last_end) < out.write_cost;
        let fits = lead_len + tail.len() <= STAGE - out.staged.len();
        if let Some(trace) = stage.filter(|_| outruns && fits && can_stage()) {
            out.counts
                .get_or_insert_with(|| trace.method(MethodId::TCP));
            out.last_end = Instant::now();
            let first = out.staged.is_empty();
            stage_frame(&mut out, lead, tail);
            if first {
                // SeqCst: read by the backstop's stop re-check (`tick`).
                self.staged_at.store(backstop_now(), Ordering::SeqCst);
            }
            let staged = if std::mem::replace(&mut out.listed, true) {
                Staged::Staged
            } else {
                Staged::NeedsOwner
            };
            return Ok((staged, first));
        }
        #[cfg(test)]
        {
            std::thread::sleep(out.stall);
        }
        let Outbox { socket, staged, .. } = &mut *out;
        let written = if lead_len <= STACK {
            let mut buf = [0u8; STACK];
            let mut o = 0;
            for part in lead {
                buf[o..o + part.len()].copy_from_slice(part);
                o += part.len();
            }
            let mut iov = [
                IoSlice::new(staged),
                IoSlice::new(&buf[..o]),
                IoSlice::new(tail),
            ];
            write_all_vectored(socket, &mut iov)
        } else {
            // A lead past the stack buffer (handler names are u16-length):
            // gather its parts where they lie rather than copy anything.
            let [fixed, hlen, handler, plen, head] = lead.map(IoSlice::new);
            let mut iov = [
                IoSlice::new(staged),
                fixed,
                hlen,
                handler,
                plen,
                head,
                IoSlice::new(tail),
            ];
            write_all_vectored(socket, &mut iov)
        };
        out.last_end = Instant::now();
        out.write_cost = out.last_end.saturating_duration_since(start);
        self.settle(&mut out, written)?;
        Ok((Staged::Written, false))
    }

    /// After a write that carried everything staged (and whatever rode
    /// behind it): counts the staged frames it carried, and empties the
    /// buffer whether the write succeeded or not — after a write error the
    /// stream is unusable, and so are its staged bytes.
    fn settle(&self, out: &mut Outbox, written: Result<()>) -> Result<()> {
        #[cfg(test)]
        {
            out.census.writes += 1;
        }
        if out.frames > 0 {
            if let (Ok(()), Some(t)) = (&written, &out.counts) {
                t.flushes.fetch_add(1, Ordering::Relaxed);
                t.flushed_frames
                    .fetch_add(u64::from(out.frames), Ordering::Relaxed);
            }
            out.staged.clear();
            out.frames = 0;
            self.staged_at.store(0, Ordering::SeqCst);
        }
        written
    }

    /// Writes what is staged, blocking as a write-through send would, and
    /// times the write: every flush refreshes the stage rule's write cost.
    fn write_staged(&self, out: &mut Outbox) -> Result<()> {
        if out.staged.is_empty() {
            return Ok(());
        }
        let began = Instant::now();
        #[cfg(test)]
        {
            std::thread::sleep(out.stall);
        }
        let Outbox { socket, staged, .. } = &mut *out;
        let written = write_all_vectored(socket, &mut [IoSlice::new(staged)]);
        out.write_cost = began.elapsed();
        self.settle(out, written)
    }

    /// The backstop's visit: writes what is staged, without blocking, if
    /// the oldest frame has waited a full tick (`now` is at least two past
    /// its tick count) and the writer is free. Returns whether frames
    /// remain for a later tick.
    fn backstop_visit(&self, now: u64) -> bool {
        let at = self.staged_at.load(Ordering::SeqCst);
        if at == 0 {
            return false;
        }
        if now < at + 2 {
            return true;
        }
        let Some(mut out) = self.stream.try_lock() else {
            return true;
        };
        #[cfg(test)]
        if out.backstop_off {
            return true;
        }
        let began = Instant::now();
        match send_nowait(&out.socket, &out.staged) {
            Ok(n) if n == out.staged.len() => {
                out.write_cost = began.elapsed();
                #[cfg(test)]
                {
                    out.census.backstop += 1;
                }
                let _ = self.settle(&mut out, Ok(()));
                false
            }
            // Part of it: the rest leaves at the next tick or write.
            Ok(n) => {
                let left = out.staged.len() - n;
                out.staged.copy_within(n.., 0);
                out.staged.truncate(left);
                true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => true,
            // The stream is broken. The next write on it — the owner's
            // flush, a send, `close` — reports that; the backstop stops
            // watching.
            Err(_) => {
                self.staged_at.store(0, Ordering::SeqCst);
                false
            }
        }
    }
}

/// A connection dropped without `close` still hands the kernel what it
/// staged, as far as the socket takes it without blocking.
impl Drop for TcpObject {
    fn drop(&mut self) {
        let out = self.stream.get_mut();
        if !out.staged.is_empty() {
            let _ = send_nowait(&out.socket, &out.staged);
        }
    }
}

impl CommObject for TcpObject {
    fn method(&self) -> MethodId {
        MethodId::TCP
    }

    fn transfer(
        &self,
        rsr: &Rsr,
        _frame: &WireFrame,
        head: &[u8],
        stage: Option<&Trace>,
    ) -> Result<Staged> {
        let (staged, first) = self.send_gathered(rsr, head, stage)?;
        if let Some(backstop) = Backstop::get().filter(|_| first) {
            backstop.arm(self);
        }
        Ok(staged)
    }

    fn flush(&self) -> Result<()> {
        let mut out = self.stream.lock();
        // Released before the write and under the writer lock: a frame
        // staged once this flush has written it takes a claim of its own.
        out.listed = false;
        let flushed = self.write_staged(&mut out);
        if flushed.is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
        flushed
    }

    fn set_param(&self, key: &str, value: &str) -> Result<()> {
        match key {
            "nodelay" => {
                let v: bool = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not a bool: {value:?}"),
                })?;
                self.stream.lock().socket.set_nodelay(v)?;
                Ok(())
            }
            "sndbuf" => set_socket_buffer(
                &self.stream.lock().socket,
                SockBuf::Send,
                parse_bufsize(key, value)?,
            ),
            _ => Err(NexusError::BadParam {
                key: key.to_owned(),
                reason: "tcp connections support nodelay, sndbuf; rcvbuf is a module parameter, \
                         applied to listeners before any peer connects"
                    .to_owned(),
            }),
        }
    }

    fn close(&self) {
        let mut out = self.stream.lock();
        let _ = self.write_staged(&mut out);
        self.failed.store(true, Ordering::Relaxed);
        let _ = out.socket.shutdown(std::net::Shutdown::Both);
    }
}

/// The backstop (module doc, § Send): while some connection holds staged
/// bytes, a timer on the existing reactor thread visits every connection
/// that has staged and writes the frames that have waited a full tick.
struct Backstop {
    reactor: &'static Arc<Reactor>,
    /// The timer callback, built once.
    tick: Arc<dyn Fn() + Send + Sync>,
    /// Connections that have staged; a dropped one is forgotten at the
    /// next tick.
    conns: Mutex<Vec<Weak<TcpObject>>>,
    /// Ticks so far, from 1: a frame staged at count `t` has waited a full
    /// tick by tick `t + 2`.
    ticks: AtomicU64,
    /// Whether the timer runs, or is about to.
    ticking: AtomicBool,
    /// The running timer; held by whoever starts or stops it.
    timer: Mutex<Option<RegistrationId>>,
}

impl Backstop {
    /// The process's backstop; `None` without a reactor, and then nothing
    /// stages.
    fn get() -> Option<&'static Backstop> {
        static BACKSTOP: OnceLock<Option<Backstop>> = OnceLock::new();
        BACKSTOP
            .get_or_init(|| {
                Reactor::global().map(|reactor| Backstop {
                    reactor,
                    tick: Arc::new(|| {
                        if let Some(backstop) = Backstop::get() {
                            backstop.tick();
                        }
                    }),
                    conns: Mutex::new(Vec::new()),
                    ticks: AtomicU64::new(1),
                    ticking: AtomicBool::new(false),
                    timer: Mutex::new(None),
                })
            })
            .as_ref()
    }

    /// `conn`'s staging buffer went from empty to not: make sure the
    /// backstop holds it and is ticking.
    fn arm(&self, conn: &TcpObject) {
        if !conn.enlisted.swap(true, Ordering::Relaxed) {
            self.conns.lock().push(conn.me.clone());
        }
        // SeqCst, after the stager's SeqCst `staged_at` store: see `tick`.
        if !self.ticking.swap(true, Ordering::SeqCst) {
            let mut timer = self.timer.lock();
            *timer = Some(self.reactor.every(BACKSTOP, Arc::clone(&self.tick)));
        }
    }

    /// One tick: visit every connection, and stop the timer once none
    /// holds staged bytes.
    fn tick(&self) {
        let now = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if self.visit(now) {
            return;
        }
        let mut timer = self.timer.lock();
        // Stop — unless a connection staged since the visit. This store,
        // the re-check and the stager's `staged_at` store and `ticking`
        // swap are all SeqCst: either the re-check sees the new frame and
        // the tick keeps its timer (or leaves the start to the stager,
        // whose swap came first), or the stager's swap follows this store,
        // reads `false` and starts a timer of its own.
        self.ticking.store(false, Ordering::SeqCst);
        if self.watching() && !self.ticking.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(id) = timer.take() {
            self.reactor.deregister(id, &[]);
        }
    }

    /// Visits every connection that has staged; returns whether any still
    /// holds frames for a later tick.
    fn visit(&self, now: u64) -> bool {
        let mut pending = false;
        self.conns.lock().retain(|conn| match conn.upgrade() {
            Some(conn) => {
                pending |= conn.backstop_visit(now);
                true
            }
            None => false,
        });
        pending
    }

    /// Whether any connection holds staged frames the backstop watches.
    fn watching(&self) -> bool {
        self.conns.lock().iter().any(|conn| {
            conn.upgrade()
                .is_some_and(|conn| conn.staged_at.load(Ordering::SeqCst) != 0)
        })
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

    fn open(&self, ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)> {
        let (desc, rx) = self.open_tcp(ctx)?;
        Ok((desc, Box::new(rx)))
    }

    fn applicable(&self, _local: &ContextInfo, desc: &CommDescriptor) -> bool {
        // IP is the universal substrate: applicable whenever the descriptor
        // parses.
        desc.method == MethodId::TCP && crate::util::parse_socket_addr(&desc.data).is_ok()
    }

    fn connect(&self, local: &ContextInfo, desc: &CommDescriptor) -> Result<Arc<dyn CommObject>> {
        Ok(self.dial(local, desc)?)
    }
    fn poll_cost_ns(&self) -> u64 {
        // The paper's measured select() cost on the SP2.
        100_000
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
            "nodelay" => {
                let v: bool = value.parse().map_err(|_| NexusError::BadParam {
                    key: key.to_owned(),
                    reason: format!("not a bool: {value:?}"),
                })?;
                self.shared.nodelay.store(v, Ordering::Relaxed);
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

impl TcpModule {
    /// `open`, keeping the receiver's type.
    pub(crate) fn open_tcp(
        &self,
        ctx: &ContextInfo,
    ) -> Result<(CommDescriptor, crate::reactor::ReactorReceiver<TcpReceiver>)> {
        let inner = self.listen()?;
        let (addr, handed) = (inner.own, Arc::downgrade(&inner.handed));
        let desc = CommDescriptor::new(MethodId::TCP, addr.to_string().into_bytes());
        // Readiness comes from the shared reactor thread (one per
        // process, O(workers) not O(sockets)); the receiver stays a
        // pass-through until the poll engine arms it.
        let rx = crate::reactor::ReactorReceiver::new(inner);
        let local = Local {
            addr,
            handed,
            announce: rx.announcer(),
        };
        // An id another live receiver holds (one module in two fabrics)
        // names neither: a closed receiver takes its entry with it.
        let mut locals = self.shared.locals.lock();
        locals
            .entry(ctx.id)
            .and_modify(|l| *l = None)
            .or_insert(Some(local));
        Ok((desc, rx))
    }

    /// A bare receiver on a fresh loopback listener, sized by `sndbuf` and
    /// `rcvbuf` before its address is published.
    fn listen(&self) -> Result<TcpReceiver> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        for (which, size) in [(SockBuf::Send, &self.sndbuf), (SockBuf::Recv, &self.rcvbuf)] {
            match size.load(Ordering::Relaxed) {
                0 => {}
                bytes => set_socket_buffer(&listener, which, bytes as usize)?,
            }
        }
        TcpReceiver::new(listener, Arc::clone(&self.shared))
    }

    /// `connect`, keeping the connection's type: the writer filed for
    /// (`local`'s listener, `desc`) if there is one, else a new socket.
    /// If `local` has a receiver here, the socket greets the peer with a
    /// hello and its read side goes to that receiver (module doc, §
    /// Connections).
    pub(crate) fn dial(
        &self,
        local: &ContextInfo,
        desc: &CommDescriptor,
    ) -> Result<Arc<TcpObject>> {
        let peer: SocketAddr = crate::util::parse_socket_addr(&desc.data)?;
        let me = self.shared.locals.lock().get(&local.id).and_then(|l| {
            let l = l.as_ref()?;
            Some((l.addr, l.handed.upgrade()?, l.announce.clone()))
        });
        if let Some(writer) = me.as_ref().and_then(|m| self.shared.writer((m.0, peer))) {
            return Ok(writer);
        }
        let timeout = Duration::from_millis(self.connect_timeout_ms.load(Ordering::Relaxed));
        let stream = Arc::new(TcpStream::connect_timeout(&peer, timeout)?);
        stream.set_nodelay(self.shared.nodelay.load(Ordering::Relaxed))?;
        let sndbuf = self.sndbuf.load(Ordering::Relaxed);
        if sndbuf > 0 {
            set_socket_buffer(&*stream, SockBuf::Send, sndbuf as usize)?;
        }
        let writer = TcpObject::new(Arc::clone(&stream));
        let Some((own, handed, announce)) = me else {
            return Ok(writer);
        };
        (&*stream).write_all(&hello(own))?;
        self.shared.file((own, peer), &writer);
        let mut conn = ConnState::new(stream, false);
        (conn.peer, conn.writer) = (Some(peer), Some(Arc::clone(&writer)));
        handed.lock().push(conn);
        announce.announce();
        Ok(writer)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::Bytes;
    use nexus_rt::context::{ContextId, NodeId, PartitionId};
    use nexus_rt::endpoint::EndpointId;
    use std::io::Read;

    /// Frames and writes one connection's writer has seen.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Census {
        /// Frames handed to the writer.
        pub(crate) sends: u32,
        /// Of those, frames staged.
        pub(crate) staged: u32,
        /// Writes that reached the socket, whoever made them.
        pub(crate) writes: u32,
        /// Of those, the backstop's.
        pub(crate) backstop: u32,
    }

    /// Test access to the receiver.
    impl TcpReceiver {
        /// Live accepted connections (observability for eviction tests).
        pub(crate) fn conn_count(&self) -> usize {
            self.conns.len()
        }

        /// The address peers dial.
        pub(crate) fn local_addr(&self) -> SocketAddr {
            self.listener.local_addr().expect("bound listener")
        }

        /// Bytes received on the first connection and not yet cut into frames.
        pub(crate) fn buffered(&self) -> usize {
            self.conns.first().map_or(0, |c| c.tail)
        }

        /// `(read, accept)` calls made so far by this receiver and its live
        /// connections.
        pub(crate) fn syscalls(&self) -> (u32, u32) {
            (self.conns.iter().map(|c| c.reads).sum(), self.accepts)
        }

        /// Bytes of receive storage committed across all connections.
        fn committed_storage(&self) -> usize {
            self.conns.iter().map(ConnState::committed).sum()
        }
    }

    impl ConnState {
        /// Bytes of receive storage this connection holds.
        fn committed(&self) -> usize {
            self.window.len()
                + self.large.as_ref().map_or(0, |f| f.buf.capacity())
                + self.spare.as_ref().map_or(0, Bytes::len)
        }
    }

    /// The reference wire image of `m`: length prefix, header, and the
    /// encode-once body — built the way the method no longer does, so the
    /// gathered writer is checked against an independent encoder.
    pub(crate) fn framed(m: &Rsr) -> Vec<u8> {
        let f = WireFrame::new();
        let body = f.body(m);
        let mut frame = WireFrame::prefixed_header(m, body.len()).to_vec();
        frame.extend_from_slice(body);
        frame
    }

    /// Test access to the writer.
    impl TcpObject {
        pub(crate) fn census(&self) -> Census {
            self.stream.lock().census
        }

        /// Makes every blocking write sleep `stall` first (zero: no stall).
        pub(crate) fn set_stall(&self, stall: Duration) {
            self.stream.lock().stall = stall;
        }

        /// Keeps the backstop off this connection (or lets it back on).
        pub(crate) fn set_backstop_off(&self, off: bool) {
            self.stream.lock().backstop_off = off;
        }

        /// Address and capacity of the staging buffer.
        pub(crate) fn staging(&self) -> (usize, usize) {
            let out = self.stream.lock();
            (out.staged.as_ptr() as usize, out.staged.capacity())
        }

        /// Shuts the socket's sending half, so the next write fails.
        pub(crate) fn break_stream(&self) {
            let _ = self
                .stream
                .lock()
                .socket
                .shutdown(std::net::Shutdown::Write);
        }
    }

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
        let rx = TcpModule::new().listen().unwrap();
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
        // The sized sockets still carry traffic.
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
        assert!(obj.set_param("sndbuf", "junk").is_err());
        assert!(obj.set_param("sockbuf", "1024").is_err());
        // The connection only writes: its receive buffer is the listener's.
        match obj.set_param("rcvbuf", "131072") {
            Err(NexusError::BadParam { reason, .. }) => {
                assert!(reason.contains("module parameter"), "{reason}")
            }
            other => panic!("rcvbuf on a connection: {other:?}"),
        }
    }

    /// `SO_RCVBUF` of a socket, as the kernel reports it.
    #[cfg(target_os = "linux")]
    fn rcvbuf_of(socket: &TcpStream) -> i32 {
        use std::os::unix::io::AsRawFd;
        extern "C" {
            fn getsockopt(
                fd: std::os::unix::io::RawFd,
                level: i32,
                name: i32,
                value: *mut std::ffi::c_void,
                len: *mut u32,
            ) -> i32;
        }
        let (mut value, mut len) = (0i32, std::mem::size_of::<i32>() as u32);
        // SAFETY: the fd belongs to a live stream borrowed for the call, and
        // value/len describe one aligned `i32` on this stack frame.
        let rc = unsafe {
            getsockopt(
                socket.as_raw_fd(),
                1, // SOL_SOCKET
                8, // SO_RCVBUF
                &mut value as *mut i32 as *mut std::ffi::c_void,
                &mut len,
            )
        };
        assert_eq!(rc, 0, "{}", std::io::Error::last_os_error());
        value
    }

    /// The module's `rcvbuf` sizes the socket that reads: a connection
    /// accepted by a sized listener has a larger receive buffer than one
    /// accepted by a listener left at the kernel default.
    #[cfg(target_os = "linux")]
    #[test]
    fn rcvbuf_sizes_the_accepted_socket() {
        let accepted_rcvbuf = |m: TcpModule| {
            let mut rx = m.listen().unwrap();
            let _peer = TcpStream::connect(rx.local_addr()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while rx.conn_count() == 0 {
                assert!(rx.poll().unwrap().is_none());
                assert!(Instant::now() < deadline, "connection not accepted");
            }
            rcvbuf_of(&rx.conns[0].stream)
        };
        let sized = TcpModule::new();
        sized.set_param("rcvbuf", "1048576").unwrap();
        let (sized, default) = (accepted_rcvbuf(sized), accepted_rcvbuf(TcpModule::new()));
        assert!(sized > default, "sized {sized} B vs default {default} B");
    }

    /// A plain `send` and a headed `transfer(head, payload)` must hit the
    /// wire byte-identical to the reference encoding of the (concatenated)
    /// payload, whether the lead fits the writer's stack buffer or not: a
    /// raw socket reads what the one gathered writer wrote.
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
        // overflow it either way.
        for hlen in [7, 120, 300] {
            let h = "h".repeat(hlen);
            let plain = Rsr::new(ContextId(1), EndpointId(2), &h, whole.clone());
            let reference = framed(&plain);
            obj.send(&plain, &WireFrame::new()).unwrap();
            assert!(
                written(&reference) == reference,
                "send, {hlen}-byte handler"
            );
            let chunk = Rsr::new(ContextId(1), EndpointId(2), &h, tail.clone());
            obj.transfer(&chunk, &WireFrame::new(), &head, None)
                .unwrap();
            assert!(
                written(&reference) == reference,
                "headed transfer, {hlen}-byte handler"
            );
        }
        // Empty pieces are skipped, not written as zero-length slices.
        let empty = Rsr::new(ContextId(1), EndpointId(2), "", Bytes::new());
        let reference = framed(&empty);
        obj.send(&empty, &WireFrame::new()).unwrap();
        obj.transfer(&empty, &WireFrame::new(), &[], None).unwrap();
        assert_eq!(written(&reference), reference);
        assert_eq!(written(&reference), reference);
    }

    /// What the gathered writer produces decodes on the real receive path,
    /// long lead included, for a headed and a plain send alike.
    #[test]
    fn long_handler_roundtrips_through_both_send_entry_points() {
        let m = TcpModule::new();
        let (desc, mut rx) = m.open(&info(1)).unwrap();
        let obj = m.connect(&info(2), &desc).unwrap();
        let long = "h".repeat(300);
        let head = [7u8; 20];
        let tail = Bytes::from(vec![9u8; 4096]);
        let chunk = Rsr::new(ContextId(1), EndpointId(2), &long, tail.clone());
        obj.transfer(&chunk, &WireFrame::new(), &head, None)
            .unwrap();
        obj.send(&msg(&long, b"plain"), &WireFrame::new()).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got.handler, long);
        assert_eq!(&got.payload[..head.len()], &head[..]);
        assert_eq!(&got.payload[head.len()..], &tail[..]);
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got.handler, long);
        assert_eq!(&got.payload[..], b"plain");
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
            .transfer(&too_big, &WireFrame::new(), &[1], None)
            .is_err());
        let long = "h".repeat(usize::from(u16::MAX) + 1);
        assert!(obj.send(&msg(&long, b""), &WireFrame::new()).is_err());
        // Nothing of them reached the stream: the next frame decodes.
        obj.send(&msg("after", b"ok"), &WireFrame::new()).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got.handler, "after");
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

    // -- two-way connections ------------------------------------------------

    /// A writer as the context holds it.
    fn send_to(obj: &Arc<dyn CommObject>, h: &str) -> Result<()> {
        obj.send(&msg(h, b"x"), &WireFrame::new())
    }

    /// Polls `rx` until a message arrives.
    fn next(rx: &mut impl CommReceiver) -> Rsr {
        rx.recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("delivered in time")
    }

    /// Polls `rx` (errors included) until `done` holds of its receiver.
    fn poll_until(
        rx: &mut crate::reactor::ReactorReceiver<TcpReceiver>,
        done: impl Fn(&mut TcpReceiver) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(rx.inner_mut()) {
            assert!(Instant::now() < deadline, "state never reached");
            let _ = rx.poll();
        }
    }

    /// The reply rides the request's socket: each context's receiver reads
    /// one connection, the two ends of one socket, and the acceptor's
    /// `connect` returns the writer its hello filed.
    #[test]
    fn request_and_reply_share_one_socket() {
        let m = TcpModule::new();
        let (desc_a, mut rx_a) = m.open_tcp(&info(1)).unwrap();
        let (desc_b, mut rx_b) = m.open_tcp(&info(2)).unwrap();
        let to_b = m.connect(&info(1), &desc_b).unwrap();
        send_to(&to_b, "req").unwrap();
        assert_eq!(next(&mut rx_b).handler, "req", "the hello is not delivered");
        let to_a = m.connect(&info(2), &desc_a).unwrap();
        assert!(Arc::ptr_eq(&to_a, &m.connect(&info(2), &desc_a).unwrap()));
        send_to(&to_a, "rep").unwrap();
        assert_eq!(next(&mut rx_a).handler, "rep");
        let (a, b) = (rx_a.inner_mut(), rx_b.inner_mut());
        assert_eq!((a.conn_count(), b.conn_count()), (1, 1));
        let a_end = a.conns[0].stream.local_addr().unwrap();
        assert_eq!(a_end, b.conns[0].stream.peer_addr().unwrap());
        assert_eq!(m.shared.writers.lock().len(), 2);
    }

    /// Closing one end's writer takes the whole connection down: each
    /// receiver evicts its end, the other writer refuses its next send,
    /// and the table forgets both.
    #[test]
    fn a_connection_is_closed_as_one_unit() {
        let m = TcpModule::new();
        let (desc_a, mut rx_a) = m.open_tcp(&info(1)).unwrap();
        let (desc_b, mut rx_b) = m.open_tcp(&info(2)).unwrap();
        let to_b = m.connect(&info(1), &desc_b).unwrap();
        send_to(&to_b, "req").unwrap();
        next(&mut rx_b);
        let to_a = m.connect(&info(2), &desc_a).unwrap();
        poll_until(&mut rx_a, |a| a.conn_count() == 1);
        to_b.close();
        poll_until(&mut rx_b, |b| b.conn_count() == 0);
        assert!(
            send_to(&to_a, "late").is_err(),
            "the writer of an evicted end"
        );
        poll_until(&mut rx_a, |a| a.conn_count() == 0);
        assert!(m.shared.writers.lock().is_empty());
        // The next connect dials afresh, and the new connection works.
        let again = m.connect(&info(2), &desc_a).unwrap();
        assert!(!Arc::ptr_eq(&again, &to_a));
        send_to(&again, "fresh").unwrap();
        assert_eq!(next(&mut rx_a).handler, "fresh");
    }

    /// The peer context shuts down while this side holds its writer: the
    /// next send fails or fails over within a deadline, and the module's
    /// table keeps no entry for the dead connection.
    #[test]
    fn a_peer_context_shutting_down_fails_the_held_writer_and_clears_the_table() {
        use nexus_rt::buffer::Buffer;
        let fabric = nexus_rt::context::Fabric::new();
        let tcp = Arc::new(TcpModule::new());
        fabric
            .registry()
            .register(Arc::clone(&tcp) as Arc<dyn CommModule>);
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();
        let to_a = Arc::new(a.startpoint_to(a.create_endpoint()).unwrap());
        let to_b = b.startpoint_to(b.create_endpoint()).unwrap();
        b.register_handler("ping", move |args| {
            args.context.rsr(&to_a, "pong", Buffer::new()).unwrap();
        });
        let pongs = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let p = Arc::clone(&pongs);
        a.register_handler("pong", move |_| {
            p.fetch_add(1, Ordering::Relaxed);
        });
        a.rsr(&to_b, "ping", Buffer::new()).unwrap();
        assert!(a.progress_until(
            || {
                let _ = b.progress();
                pongs.load(Ordering::Relaxed) == 1
            },
            Duration::from_secs(10)
        ));
        assert_eq!(tcp.shared.writers.lock().len(), 2, "one writer per end");
        b.shutdown();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(
                Instant::now() < deadline,
                "sends to a dead peer kept succeeding"
            );
            let _ = a.progress();
            let failovers = a.trace().snapshot_method(MethodId::TCP).failovers;
            if a.rsr(&to_b, "ping", Buffer::new()).is_err() || failovers > 0 {
                break;
            }
        }
        while !tcp.shared.writers.lock().is_empty() {
            assert!(Instant::now() < deadline, "the table kept a dead writer");
            let _ = a.progress();
        }
        fabric.shutdown();
    }

    /// A closed receiver takes its context's entries with it: its dials go
    /// one-way again (no hello), and nothing is offered under its address.
    #[test]
    fn a_closed_receiver_leaves_nothing_in_the_table() {
        let m = TcpModule::new();
        let (_, rx_a) = m.open_tcp(&info(1)).unwrap();
        let (desc_b, mut rx_b) = m.open_tcp(&info(2)).unwrap();
        send_to(&m.connect(&info(1), &desc_b).unwrap(), "req").unwrap();
        next(&mut rx_b);
        drop(rx_a);
        let writers = m.shared.writers.lock().len();
        assert_eq!(writers, 1, "only b's filed writer is left");
        assert!(m.shared.locals.lock().get(&ContextId(1)).is_none());
        drop(rx_b);
        assert!(m.shared.writers.lock().is_empty());
        assert!(m.shared.locals.lock().is_empty());
    }

    /// Hello decoding is total over arbitrary bytes: no panic, and a first
    /// frame is judged only once it is whole.
    #[test]
    fn the_first_frame_is_judged_without_panicking_on_any_bytes() {
        let (_rx, addr) = bare_receiver();
        let mut conn = ConnState::new(Arc::new(TcpStream::connect(addr).unwrap()), true);
        let mut judge = |bytes: &[u8]| {
            conn.window[..bytes.len()].copy_from_slice(bytes);
            (conn.tail, conn.greet, conn.peer) = (bytes.len(), true, None);
            conn.take_hello()
                .map(|judged| (judged, conn.peer, conn.tail))
        };
        let listener: SocketAddr = "127.0.0.1:4242".parse().unwrap();
        let good = hello(listener);
        for end in 0..good.len() {
            assert_eq!(judge(&good[..end]).unwrap(), (false, None, end));
        }
        assert_eq!(judge(&good).unwrap(), (true, Some(listener), 0));
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = (x % 80) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|i| (x >> (i % 8 * 8)) as u8).collect();
            if x & 1 == 0 && len > PREFIX_LEN {
                bytes[PREFIX_LEN] = HELLO;
                bytes[..PREFIX_LEN].copy_from_slice(&((x >> 8) as u32 % 70).to_le_bytes());
            }
            if let Ok((true, Some(_), tail)) = judge(&bytes) {
                assert!(tail < len);
            }
        }
    }

    /// A bad first frame — a mutated hello or arbitrary bytes — and a
    /// well-formed hello anywhere but first each evict only their own
    /// connection with `Err`, commit no storage sized from a claim, and a
    /// healthy connection keeps delivering throughout.
    #[test]
    fn a_bad_first_frame_evicts_only_its_connection() {
        let (mut rx, addr) = bare_receiver();
        let good = TcpStream::connect(addr).unwrap();
        (&good).write_all(&framed(&msg("good", b""))).unwrap();
        assert_eq!(next(&mut rx).handler, "good");
        let baseline = rx.committed_storage();
        let hello = hello("127.0.0.1:4242".parse().unwrap());
        let frame = |body: &[u8]| {
            let mut f = (body.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(body);
            f
        };
        let mut cases: Vec<(String, Vec<u8>)> = vec![
            ("empty address".into(), frame(&[HELLO])),
            ("no port".into(), frame(b"H127.0.0.1")),
            ("not UTF-8".into(), frame(&[HELLO, 0xFF, 0xFE, b':', b'1'])),
            ("port out of range".into(), frame(b"H127.0.0.1:70000")),
            ("tag, over-long".into(), frame(&[HELLO; HELLO_MAX + 1])),
            (
                "tag under a 1 GiB claim".into(),
                [&(1u32 << 30).to_le_bytes()[..], b"H127.0.0.1:1"].concat(),
            ),
            (
                "hello behind an RSR".into(),
                [framed(&msg("first", b"")), hello.clone()].concat(),
            ),
            ("two hellos".into(), [hello.clone(), hello.clone()].concat()),
        ];
        for at in PREFIX_LEN + 1..hello.len() {
            let mut bad = hello.clone();
            bad[at] = b'/';
            cases.push((format!("address byte {at} mutated"), bad));
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..32 {
            let body: Vec<u8> = (0..1 + i * 7)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            cases.push((format!("arbitrary body {i}"), frame(&body)));
        }
        for (how, bytes) in &cases {
            let bad = TcpStream::connect(addr).unwrap();
            (&bad).write_all(bytes).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut delivered = Vec::new();
            let mut refused = false;
            // Frames ahead of the bad one stay deliverable after the error.
            while !refused || !rx.pending.is_empty() {
                assert!(Instant::now() < deadline, "{how}: never refused");
                match rx.poll() {
                    Err(_) => refused = true,
                    Ok(Some(m)) => delivered.push(m.handler),
                    Ok(None) => {}
                }
            }
            assert!(
                delivered.iter().all(|h| h == "first"),
                "{how}: {delivered:?}"
            );
            assert_eq!(rx.conn_count(), 1, "{how}: only the bad connection goes");
            assert!(rx.committed_storage() <= baseline, "{how}");
            (&good).write_all(&framed(&msg("good", b""))).unwrap();
            assert_eq!(next(&mut rx).handler, "good", "{how}");
        }
    }

    /// A hello arriving on a socket this side dialled is a protocol error
    /// of that connection: its end is evicted and its writer refuses.
    #[test]
    fn a_hello_on_a_dialled_socket_evicts_it() {
        let m = TcpModule::new();
        let (desc_a, mut rx_a) = m.open_tcp(&info(1)).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let peer_desc = CommDescriptor::new(
            MethodId::TCP,
            listener.local_addr().unwrap().to_string().into_bytes(),
        );
        let to_peer = m.connect(&info(1), &peer_desc).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let own = crate::util::parse_socket_addr(&desc_a.data).unwrap();
        let mut got = vec![0u8; hello(own).len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, hello(own), "the dialler names its listener first");
        peer.write_all(&hello(own)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while rx_a.poll().is_ok() {
            assert!(Instant::now() < deadline, "the hello was not refused");
        }
        assert_eq!(rx_a.inner_mut().conn_count(), 0);
        assert!(send_to(&to_peer, "after").is_err());
    }

    // -- staging: the writer's census behind real contexts ------------------
    //
    // Where the stage rule must be made to hold regardless of scheduling,
    // a test stalls every blocking write by tens of milliseconds: a sender
    // then outruns its last write unless it is descheduled for longer than
    // that. Deadlines are "before T", never "A before B".

    use nexus_rt::buffer::Buffer;
    use nexus_rt::context::{Context, ContextOpts, Fabric, ForwardVia};
    use nexus_rt::trace::TraceEventKind;
    use std::sync::atomic::AtomicU32;

    const PATIENCE: Duration = Duration::from_secs(10);
    const STALL: Duration = Duration::from_millis(20);

    /// The TCP module, keeping every connection it makes so that a test
    /// can read the writer behind a context.
    #[derive(Default)]
    struct Kept {
        tcp: TcpModule,
        conns: Mutex<Vec<Arc<TcpObject>>>,
    }

    impl Kept {
        fn conn(&self, i: usize) -> Arc<TcpObject> {
            Arc::clone(&self.conns.lock()[i])
        }
    }

    impl CommModule for Kept {
        fn method(&self) -> MethodId {
            MethodId::TCP
        }
        fn name(&self) -> &'static str {
            "tcp"
        }
        fn cost_rank(&self) -> u32 {
            self.tcp.cost_rank()
        }
        fn open(&self, ctx: &ContextInfo) -> Result<(CommDescriptor, Box<dyn CommReceiver>)> {
            self.tcp.open(ctx)
        }
        fn applicable(&self, local: &ContextInfo, desc: &CommDescriptor) -> bool {
            self.tcp.applicable(local, desc)
        }
        fn connect(
            &self,
            local: &ContextInfo,
            desc: &CommDescriptor,
        ) -> Result<Arc<dyn CommObject>> {
            let conn = self.tcp.dial(local, desc)?;
            self.conns.lock().push(Arc::clone(&conn));
            Ok(conn)
        }
        fn poll_cost_ns(&self) -> u64 {
            self.tcp.poll_cost_ns()
        }
        fn supports_blocking(&self) -> bool {
            true
        }
        fn supports_readiness(&self) -> bool {
            true
        }
    }

    /// A fabric whose TCP module keeps its connections, plus `extra`.
    fn kept_fabric(extra: Option<Arc<dyn CommModule>>) -> (Fabric, Arc<Kept>) {
        let fabric = Fabric::new();
        let kept = Arc::new(Kept::default());
        fabric
            .registry()
            .register(Arc::clone(&kept) as Arc<dyn CommModule>);
        if let Some(m) = extra {
            fabric.registry().register(m);
        }
        (fabric, kept)
    }

    /// Registers handler `name` on `ctx`, recording each message's number
    /// in arrival order.
    fn recorder(ctx: &Context, name: &str) -> Arc<Mutex<Vec<u32>>> {
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        ctx.register_handler(name, move |args| {
            let b = args.buffer;
            g.lock().push(b.get_u32().unwrap());
        });
        got
    }

    /// A `len`-byte payload that starts with `i`.
    fn numbered(i: u32, len: usize) -> Buffer {
        let mut b = Buffer::new();
        b.put_u32(i);
        b.put_raw(&vec![0x5a; len - 4]);
        b
    }

    fn drive(ctx: &Context, done: impl FnMut() -> bool) {
        assert!(ctx.progress_until(done, PATIENCE), "not delivered in time");
    }

    /// Contexts `a` and `b` over TCP, `b` recording `seq`, and `a`'s
    /// connection to `b`.
    struct Pair {
        fabric: Fabric,
        a: Arc<Context>,
        b: Arc<Context>,
        to_b: nexus_rt::startpoint::Startpoint,
        got: Arc<Mutex<Vec<u32>>>,
        conn: Arc<TcpObject>,
    }

    /// A [`Pair`] with message 0 delivered: the connection exists and has
    /// written once.
    fn connected_pair(extra: Option<Arc<dyn CommModule>>) -> Pair {
        let (fabric, kept) = kept_fabric(extra);
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();
        let got = recorder(&b, "seq");
        let to_b = b.startpoint_to(b.create_endpoint()).unwrap();
        a.rsr(&to_b, "seq", numbered(0, 64)).unwrap();
        drive(&b, || got.lock().len() == 1);
        assert_eq!(to_b.current_methods()[0].1, Some(MethodId::TCP));
        // A dispatch round of `a`: its next send writes through by rule
        // (a), however long the set-up write took on a loaded host.
        a.progress().unwrap();
        let conn = kept.conn(0);
        Pair {
            fabric,
            a,
            b,
            to_b,
            got,
            conn,
        }
    }

    /// Request/reply never stages: each send follows a dispatch round of
    /// its context, so each is its own write — even after one slow write,
    /// which a rule judging by timing alone would latch on (every request
    /// after it begins sooner than that write took).
    #[test]
    fn request_reply_stages_nothing() {
        const ROUNDS: u32 = 1_000;
        let (fabric, kept) = kept_fabric(None);
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();
        let to_a = Arc::new(a.startpoint_to(a.create_endpoint()).unwrap());
        let to_b = b.startpoint_to(b.create_endpoint()).unwrap();
        b.register_handler("ping", move |args| {
            args.context.rsr(&to_a, "pong", Buffer::new()).unwrap();
        });
        let pongs = Arc::new(AtomicU32::new(0));
        let p = Arc::clone(&pongs);
        a.register_handler("pong", move |_| {
            p.fetch_add(1, Ordering::Relaxed);
        });
        for i in 1..=ROUNDS {
            let slow = (i == ROUNDS / 2).then(|| kept.conn(0));
            if let Some(conn) = &slow {
                conn.set_stall(STALL);
            }
            a.rsr(&to_b, "ping", Buffer::new()).unwrap();
            if let Some(conn) = slow {
                conn.set_stall(Duration::ZERO);
            }
            let deadline = Instant::now() + PATIENCE;
            while pongs.load(Ordering::Relaxed) < i {
                b.progress().unwrap();
                a.progress().unwrap();
                assert!(Instant::now() < deadline, "round trip {i} stalled");
            }
        }
        let conns = kept.conns.lock().clone();
        assert_eq!(conns.len(), 2, "one writer each way, both on one socket");
        for conn in conns {
            let census = conn.census();
            assert_eq!(census.sends, ROUNDS, "{census:?}");
            assert_eq!(census.staged, 0, "{census:?}");
            assert_eq!(census.writes, census.sends, "{census:?}");
        }
        for ctx in [&a, &b] {
            let snap = ctx.trace().snapshot_method(MethodId::TCP);
            assert_eq!((snap.flushes, snap.flushed_frames), (0, 0));
        }
        fabric.shutdown();
    }

    /// 256 × 64 B from a context that does not run in between, then one
    /// progress pass: complete, in order, in at most three writes — the
    /// burst's first, the one a full buffer forces, the pass's flush. The
    /// backstop is kept off, so every write is the sender's own, and the
    /// staging buffer is allocated once and never moves.
    #[test]
    fn a_burst_and_one_pass_leave_in_at_most_three_writes() {
        const BURST: u32 = 256;
        let Pair {
            fabric,
            a,
            b,
            to_b,
            got,
            conn,
        } = connected_pair(None);
        got.lock().clear();
        conn.set_stall(STALL);
        conn.set_backstop_off(true);
        let mut staging = None;
        for burst in 0..2 {
            let before = conn.census();
            for i in 0..BURST {
                a.rsr(&to_b, "seq", numbered(burst * BURST + i, 64))
                    .unwrap();
            }
            a.progress().unwrap();
            let census = conn.census();
            let writes = census.writes - before.writes;
            assert!(writes <= 3, "{BURST} frames took {writes} writes");
            assert!(census.staged - before.staged >= BURST - 3, "{census:?}");
            drive(&b, || got.lock().len() == ((burst + 1) * BURST) as usize);
            let want: Vec<u32> = (0..(burst + 1) * BURST).collect();
            assert!(*got.lock() == want, "out of issue order");
            let now = conn.staging();
            assert!(now.1 >= STAGE && now.1 < 2 * STAGE, "{now:?}");
            assert_eq!(*staging.get_or_insert(now), now, "the staging buffer moved");
        }
        let snap = a.trace().snapshot_method(MethodId::TCP);
        assert!(snap.flushes >= 2, "{snap:?}");
        assert!(snap.flushed_frames >= 2 * u64::from(BURST - 3), "{snap:?}");
        fabric.shutdown();
    }

    /// Sends `m` with a staging permission, rule (b) made to hold: as far
    /// as the connection knows, its last write never ended.
    fn stage_on(obj: &TcpObject, m: &Rsr, trace: &Trace) -> Staged {
        obj.stream.lock().write_cost = Duration::MAX;
        obj.transfer(m, &WireFrame::new(), &[], Some(trace))
            .unwrap()
    }

    /// Whatever writes next carries the staged frames in front of its own:
    /// a stripe chunk (a headed send) and a plain send both arrive after
    /// everything staged before them.
    #[test]
    fn staged_frames_go_out_ahead_of_the_next_write() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let desc = CommDescriptor::new(
            MethodId::TCP,
            listener.local_addr().unwrap().to_string().into_bytes(),
        );
        let obj = TcpModule::new().dial(&info(2), &desc).unwrap();
        obj.set_backstop_off(true);
        let (mut peer, _) = listener.accept().unwrap();
        let trace = Trace::new();
        let stage = |h: &str| stage_on(&obj, &msg(h, b"staged"), &trace);
        assert_eq!(stage("s1"), Staged::NeedsOwner);
        assert_eq!(stage("s2"), Staged::Staged);
        let head = [7u8; 20];
        let tail = Bytes::from(vec![9u8; 100]);
        let write = |m: &Rsr, head: &[u8]| obj.transfer(m, &WireFrame::new(), head, None);
        write(&msg("chunk", &tail), &head).unwrap();
        // Nobody flushed, so the claim is still held.
        assert_eq!(stage("s3"), Staged::Staged);
        write(&msg("plain", b"p"), &[]).unwrap();
        let chunk = msg("chunk", &[&head[..], &tail[..]].concat());
        let want = [
            framed(&msg("s1", b"staged")),
            framed(&msg("s2", b"staged")),
            framed(&chunk),
            framed(&msg("s3", b"staged")),
            framed(&msg("plain", b"p")),
        ]
        .concat();
        let mut got = vec![0u8; want.len()];
        peer.read_exact(&mut got).unwrap();
        assert!(got == want, "frames out of issue order");
        let census = obj.census();
        assert_eq!((census.sends, census.staged, census.writes), (5, 3, 2));
    }

    /// A forwarding node: frames one of its handlers staged go out ahead
    /// of a message it forwards later in the same dispatch round — the
    /// forward is a write on the same connection.
    #[test]
    fn a_forward_writes_behind_frames_staged_in_the_same_round() {
        let udp: Arc<dyn CommModule> = Arc::new(crate::udp::UdpModule::new());
        let (fabric, kept) = kept_fabric(Some(udp));
        let f = fabric.create_context().unwrap();
        let d = fabric
            .create_context_with(ContextOpts {
                methods: Some(vec![MethodId::TCP]),
                forward_via: Some(ForwardVia {
                    method: MethodId::UDP,
                    forwarder: f.id(),
                }),
                ..Default::default()
            })
            .unwrap();
        let s = fabric
            .create_context_with(ContextOpts {
                methods: Some(vec![MethodId::UDP]),
                ..Default::default()
            })
            .unwrap();
        let got = recorder(&d, "seq");
        let d_ep = d.create_endpoint();
        let f_to_d = Arc::new(d.startpoint_to(d_ep).unwrap());
        let s_to_d = d.startpoint_to(d_ep).unwrap();
        s_to_d.set_method(MethodId::UDP);
        let s_to_f = f.startpoint_to(f.create_endpoint()).unwrap();
        s_to_f.set_method(MethodId::UDP);
        {
            let f_to_d = Arc::clone(&f_to_d);
            f.register_handler("burst", move |args| {
                for i in 1..=3 {
                    args.context.rsr(&f_to_d, "seq", numbered(i, 8)).unwrap();
                }
            });
        }
        f.rsr(&f_to_d, "seq", numbered(0, 8)).unwrap();
        drive(&d, || got.lock().len() == 1);
        let conn = kept.conn(0);
        conn.set_stall(STALL);
        conn.set_backstop_off(true);
        // Both datagrams are in F's socket before F runs, so one round
        // dispatches them, in order.
        s.rsr(&s_to_f, "burst", Buffer::new()).unwrap();
        s.rsr(&s_to_d, "seq", numbered(4, 8)).unwrap();
        let before = conn.census();
        drive(&f, || conn.census().sends - before.sends == 4);
        let census = conn.census();
        assert_eq!(census.staged - before.staged, 2, "{census:?}");
        assert_eq!(census.writes - before.writes, 2, "{census:?}");
        drive(&d, || got.lock().len() == 5);
        assert_eq!(*got.lock(), vec![0, 1, 2, 3, 4]);
        assert_eq!(
            f.trace().snapshot_method(MethodId::UDP).forwards,
            1,
            "the last message was forwarded"
        );
        fabric.shutdown();
    }

    /// A context that bursts and never runs again: the backstop writes
    /// what it staged.
    #[test]
    fn the_backstop_writes_what_a_context_that_never_runs_again_staged() {
        let Pair {
            fabric,
            a,
            b,
            to_b,
            got,
            conn,
        } = connected_pair(None);
        conn.set_stall(STALL);
        for i in 1..=10 {
            a.rsr(&to_b, "seq", numbered(i, 64)).unwrap();
        }
        assert!(conn.census().staged >= 1, "{:?}", conn.census());
        drive(&b, || got.lock().len() == 11);
        assert_eq!(*got.lock(), (0..=10).collect::<Vec<u32>>());
        assert!(conn.census().backstop >= 1, "{:?}", conn.census());
        assert!(a.trace().snapshot_method(MethodId::TCP).flushes >= 1);
        fabric.shutdown();
    }

    /// `close`, and the shutdown of the context that staged, write what is
    /// staged before the socket goes.
    #[test]
    fn close_and_shutdown_write_what_is_staged() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let desc = CommDescriptor::new(
            MethodId::TCP,
            listener.local_addr().unwrap().to_string().into_bytes(),
        );
        let obj = TcpModule::new().dial(&info(2), &desc).unwrap();
        obj.set_backstop_off(true);
        let (mut peer, _) = listener.accept().unwrap();
        let frames: Vec<Rsr> = (0..3).map(|i| msg(&format!("c{i}"), b"x")).collect();
        let trace = Trace::new();
        for m in &frames {
            stage_on(&obj, m, &trace);
        }
        assert_eq!(obj.census().writes, 0);
        obj.close();
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert!(got == frames.iter().flat_map(framed).collect::<Vec<u8>>());

        let Pair {
            fabric,
            a,
            b,
            to_b,
            got,
            conn,
        } = connected_pair(None);
        conn.set_stall(STALL);
        conn.set_backstop_off(true);
        for i in 1..=5 {
            a.rsr(&to_b, "seq", numbered(i, 64)).unwrap();
        }
        assert_eq!(conn.census().staged, 4, "{:?}", conn.census());
        a.shutdown();
        drive(&b, || got.lock().len() == 6);
        assert_eq!(*got.lock(), (0..=5).collect::<Vec<u32>>());
        assert_eq!(conn.census().backstop, 0);
        fabric.shutdown();
    }

    /// An open-loop sender whose period is longer than a write never
    /// stages. After one slow write it may stage the next send, and is
    /// back to writing through by the send after that.
    #[test]
    fn an_open_loop_sender_writes_through_and_recovers_from_a_slow_write() {
        const PERIOD: Duration = Duration::from_millis(20);
        let Pair {
            fabric,
            a,
            b,
            to_b,
            got,
            conn,
        } = connected_pair(None);
        let mut i = 0;
        let mut send = || {
            let due = Instant::now() + PERIOD;
            while Instant::now() < due {
                let _ = b.progress();
            }
            i += 1;
            a.rsr(&to_b, "seq", numbered(i, 64)).unwrap();
        };
        for _ in 0..10 {
            send();
        }
        assert_eq!(conn.census().staged, 0, "{:?}", conn.census());
        conn.set_stall(3 * PERIOD);
        send();
        conn.set_stall(Duration::ZERO);
        send();
        let staged = conn.census().staged;
        assert!(staged <= 1, "{:?}", conn.census());
        if staged == 1 {
            // The backstop writes it before T, and that write is what the
            // next send is judged against.
            let deadline = Instant::now() + PATIENCE;
            while conn.census().backstop == 0 {
                assert!(Instant::now() < deadline, "{:?}", conn.census());
                let _ = b.progress();
            }
        }
        for _ in 0..5 {
            send();
        }
        assert_eq!(conn.census().staged, staged, "{:?}", conn.census());
        drive(&b, || got.lock().len() == 18);
        assert_eq!(*got.lock(), (0..18).collect::<Vec<u32>>());
        fabric.shutdown();
    }

    /// A flush that fails is a failover of the connection: counted once,
    /// recorded, evicted, reported by the pass that flushed — and the next
    /// RSR re-selects.
    #[test]
    fn a_failed_flush_is_a_failover_of_the_connection() {
        let udp: Arc<dyn CommModule> = Arc::new(crate::udp::UdpModule::new());
        let Pair {
            fabric,
            a,
            b,
            to_b,
            got,
            conn,
        } = connected_pair(Some(udp));
        conn.set_stall(STALL);
        conn.set_backstop_off(true);
        for i in 1..=4 {
            a.rsr(&to_b, "seq", numbered(i, 64)).unwrap();
        }
        assert_eq!(conn.census().staged, 3, "{:?}", conn.census());
        let cached = a.cached_connections();
        conn.break_stream();
        assert!(a.progress().is_err(), "the pass that flushed reports it");
        assert_eq!(a.trace().snapshot_method(MethodId::TCP).failovers, 1);
        assert!(a.trace().events().iter().any(|e| matches!(
            e.kind,
            TraceEventKind::Failover { target, from: MethodId::TCP } if target == b.id()
        )));
        assert_eq!(a.cached_connections(), cached - 1, "evicted");
        a.rsr(&to_b, "seq", numbered(5, 64)).unwrap();
        assert_eq!(to_b.current_methods()[0].1, Some(MethodId::UDP));
        assert_eq!(
            a.trace().snapshot_method(MethodId::TCP).failovers,
            1,
            "counted once"
        );
        drive(&b, || got.lock().contains(&5));
        fabric.shutdown();
    }
}
