//! Remote service requests and their wire representation.
//!
//! The RSR is the single communication operation supported by a
//! communication link (§2.2): it carries a handler (procedure) name and a
//! data buffer to the address space holding the endpoint, where the named
//! handler is invoked with the endpoint and the buffer as arguments.
//!
//! [`Rsr`] is the in-flight representation every communication module sends
//! and receives. Modules that need framing (TCP) length-prefix the encoded
//! bytes themselves; datagram and queue transports carry the encoding as a
//! unit.
//!
//! # Zero-copy layout
//!
//! The wire frame is `header ++ body`:
//!
//! ```text
//! header (14 B, per destination):  magic u8 | ttl u8 | dest u32 | endpoint u64
//! body   (shared):                 hlen u16 | handler | plen u32 | payload
//! ```
//!
//! Only the header depends on the destination (and the hop count), so a
//! multicast or a failover retry never re-serializes the body: the sender
//! builds one [`WireFrame`] per `rsr()` call, transports clone its
//! refcounted body and assemble the 14-byte header on the stack per send.
//! On receive, [`Rsr::decode_shared`] borrows from the arrived frame — the
//! handler name is interned and the payload is a [`Bytes`] view — so the
//! received bytes are touched exactly once (the arrival copy itself).

use crate::context::ContextId;
use crate::endpoint::EndpointId;
use crate::error::{NexusError, Result};
use crate::pool;
use bytes::{Buf, Bytes};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Default time-to-live for an RSR. Forwarding nodes decrement this; it
/// exists purely to turn accidental forwarding cycles into clean errors.
pub const DEFAULT_TTL: u8 = 8;

/// Wire magic byte guarding against cross-protocol confusion on sockets.
const MAGIC: u8 = 0xA5;

/// Bytes of the per-destination frame header (`magic ttl dest endpoint`).
pub const HEADER_LEN: usize = 1 + 1 + 4 + 8;

/// Bytes of the little-endian length prefix framed transports prepend.
pub const PREFIX_LEN: usize = 4;

// ---------------------------------------------------------------------------
// Handler-name interning
// ---------------------------------------------------------------------------

/// Most applications register a handful of handlers and then issue
/// millions of RSRs to them; beyond this many distinct names the table
/// stops growing (lookups still succeed, new names are simply not
/// retained) so a name-fuzzing peer cannot balloon sender memory.
const INTERN_CAP: usize = 4096;

fn intern_table() -> &'static Mutex<HashSet<Arc<str>>> {
    static TABLE: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// An interned handler name: a refcounted string that is allocated the
/// first time a name is seen and shared by every subsequent [`Rsr`] that
/// uses it — cloning an `Rsr` or decoding a frame with a known handler
/// allocates nothing.
#[derive(Clone, Eq)]
pub struct HandlerName(Arc<str>);

/// Entries each per-thread memo keeps: enough for a request/reply exchange
/// plus an 8-way multicast that one thread drives. A thread cycling through
/// more targets than this misses every time (the locked lookup plus a slot
/// refill), as in `rsrpath`'s 4096-link rows.
const MEMO_SLOTS: usize = 8;

/// A per-thread memo of the last [`MEMO_SLOTS`] values stored, reused
/// round-robin: a thread sends and receives RSRs for a handful of
/// handlers, so a hit is a few compares instead of a lock + hash. Name
/// interning and [`crate::handler::resolve`] each keep one.
pub(crate) struct SlotRing<T>([Option<T>; MEMO_SLOTS], usize);

impl<T> SlotRing<T> {
    pub const fn new() -> Self {
        SlotRing([const { None }; MEMO_SLOTS], 0)
    }

    pub fn find(&self, mut hit: impl FnMut(&T) -> bool) -> Option<&T> {
        self.0.iter().flatten().find(|t| hit(t))
    }

    /// Stores `v` over the oldest entry.
    pub fn put(&mut self, v: T) {
        self.0[self.1] = Some(v);
        self.1 = (self.1 + 1) % MEMO_SLOTS;
    }
}

thread_local! {
    /// The names this thread interned last.
    static MEMO: std::cell::RefCell<SlotRing<HandlerName>> =
        const { std::cell::RefCell::new(SlotRing::new()) };
    /// Global-table lookups this thread made.
    #[cfg(test)]
    static GLOBAL_LOOKUPS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

impl HandlerName {
    /// Interns `name`: returns the shared instance, allocating only the
    /// first time this name is seen (or when the intern table is full).
    pub fn intern(name: &str) -> HandlerName {
        MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if let Some(h) = memo.find(|h| h.as_str() == name) {
                return h.clone();
            }
            let h = Self::intern_global(name);
            memo.put(h.clone());
            h
        })
    }

    fn intern_global(name: &str) -> HandlerName {
        #[cfg(test)]
        GLOBAL_LOOKUPS.with(|n| n.set(n.get() + 1));
        let mut table = intern_table().lock();
        if let Some(existing) = table.get(name) {
            return HandlerName(Arc::clone(existing));
        }
        let arc: Arc<str> = Arc::from(name);
        if table.len() < INTERN_CAP {
            table.insert(Arc::clone(&arc));
        }
        HandlerName(arc)
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for HandlerName {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for HandlerName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for HandlerName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq for HandlerName {
    fn eq(&self, other: &HandlerName) -> bool {
        // Interned names compare by pointer in the common case.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl std::hash::Hash for HandlerName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Consistent with `Borrow<str>`: hash the string contents.
        self.0.hash(state);
    }
}

impl PartialOrd for HandlerName {
    fn partial_cmp(&self, other: &HandlerName) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HandlerName {
    fn cmp(&self, other: &HandlerName) -> std::cmp::Ordering {
        // Order by contents, consistent with `PartialEq`.
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for HandlerName {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for HandlerName {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for HandlerName {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<HandlerName> for &str {
    fn eq(&self, other: &HandlerName) -> bool {
        *self == &*other.0
    }
}

impl fmt::Display for HandlerName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for HandlerName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<&str> for HandlerName {
    fn from(s: &str) -> Self {
        HandlerName::intern(s)
    }
}

// ---------------------------------------------------------------------------
// RSR
// ---------------------------------------------------------------------------

/// Number of frame-body serializations performed by this process. The
/// encode-once discipline is load-bearing for multicast and failover, so
/// it is observable: tests snapshot this around an `rsr()` call.
static BODY_ENCODES: AtomicU64 = AtomicU64::new(0);

/// Total frame-body serializations so far (see [`WireFrame`]). Monotonic;
/// meaningful only as a delta around a quiescent operation.
pub fn body_encode_count() -> u64 {
    BODY_ENCODES.load(Ordering::Relaxed)
}

/// A remote service request in flight.
#[derive(Debug, Clone)]
pub struct Rsr {
    /// The context holding the destination endpoint.
    pub dest: ContextId,
    /// The destination endpoint within that context.
    pub endpoint: EndpointId,
    /// Name of the handler to invoke at the destination (interned:
    /// cloning is a refcount bump).
    pub handler: HandlerName,
    /// Remaining forwarding hops.
    pub ttl: u8,
    /// The sender's data buffer, already serialized. A received RSR's
    /// payload is a view of the arrived frame, not a copy.
    pub payload: Bytes,
}

impl Rsr {
    /// Creates an RSR with the default TTL.
    pub fn new(dest: ContextId, endpoint: EndpointId, handler: &str, payload: Bytes) -> Self {
        Rsr {
            dest,
            endpoint,
            handler: HandlerName::intern(handler),
            ttl: DEFAULT_TTL,
            payload,
        }
    }

    /// Size of the encoded frame in bytes.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.body_len()
    }

    /// Size of the shared frame body (handler + payload sections).
    pub fn body_len(&self) -> usize {
        2 + self.handler.len() + 4 + self.payload.len()
    }

    /// The per-destination frame header, assembled on the stack.
    pub fn header(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0] = MAGIC;
        h[1] = self.ttl;
        h[2..6].copy_from_slice(&self.dest.0.to_le_bytes());
        h[6..14].copy_from_slice(&self.endpoint.0.to_le_bytes());
        h
    }

    /// Encodes the RSR into a standalone contiguous frame. Transports on
    /// the send hot path use [`WireFrame`] instead, which serializes the
    /// body once per message rather than once per send.
    pub fn encode(&self) -> Bytes {
        let frame = WireFrame::new();
        let mut buf = pool::take(self.wire_len());
        buf.extend_from_slice(&self.header());
        buf.extend_from_slice(frame.body(self));
        frame.reclaim();
        buf.freeze()
    }

    /// Decodes a contiguous frame previously produced by [`Rsr::encode`]
    /// (equivalently: header + body as a transport reassembled them).
    ///
    /// Copies the frame once into shared storage and then borrows from it
    /// (see [`Rsr::decode_shared`]). Transports that already hold the
    /// frame as [`Bytes`] should call `decode_shared` directly and skip
    /// the copy.
    pub fn decode(frame: &[u8]) -> Result<Rsr> {
        Self::decode_shared(Bytes::copy_from_slice(frame))
    }

    /// Decodes a frame held in shared storage without copying it: the
    /// returned RSR's payload is a [`Bytes`] view of `frame` and the
    /// handler name is interned. The frame must contain exactly one RSR.
    pub fn decode_shared(frame: Bytes) -> Result<Rsr> {
        let mut s: &[u8] = &frame;
        if s.remaining() < HEADER_LEN {
            return Err(NexusError::BufferUnderflow {
                needed: HEADER_LEN,
                remaining: s.remaining(),
            });
        }
        if s.get_u8() != MAGIC {
            return Err(NexusError::Decode("bad RSR magic"));
        }
        let ttl = s.get_u8();
        let dest = ContextId(s.get_u32_le());
        let endpoint = EndpointId(s.get_u64_le());
        let need = |s: &&[u8], n: usize| -> Result<()> {
            if s.remaining() < n {
                Err(NexusError::BufferUnderflow {
                    needed: n,
                    remaining: s.remaining(),
                })
            } else {
                Ok(())
            }
        };
        need(&s, 2)?;
        let hlen = s.get_u16_le() as usize;
        need(&s, hlen)?;
        let handler = std::str::from_utf8(&s[..hlen])
            .map_err(|_| NexusError::Decode("handler name is not UTF-8"))?;
        let handler = HandlerName::intern(handler);
        s.advance(hlen);
        need(&s, 4)?;
        let plen = s.get_u32_le() as usize;
        need(&s, plen)?;
        if s.remaining() != plen {
            return Err(NexusError::Decode("trailing bytes after RSR frame"));
        }
        let payload_start = frame.len() - plen;
        let payload = frame.slice(payload_start..frame.len());
        Ok(Rsr {
            dest,
            endpoint,
            handler,
            ttl,
            payload,
        })
    }

    /// Decodes a frame *body* (`hlen handler plen payload`, no header)
    /// held in shared storage, taking the addressing fields from the
    /// caller. The stripe assembler uses this: a reassembled transfer is
    /// exactly one frame body, and the addressing was already carried by
    /// the chunk RSRs that delivered it.
    pub fn decode_body(dest: ContextId, endpoint: EndpointId, ttl: u8, body: Bytes) -> Result<Rsr> {
        let mut s: &[u8] = &body;
        let need = |s: &&[u8], n: usize| -> Result<()> {
            if s.remaining() < n {
                Err(NexusError::BufferUnderflow {
                    needed: n,
                    remaining: s.remaining(),
                })
            } else {
                Ok(())
            }
        };
        need(&s, 2)?;
        let hlen = s.get_u16_le() as usize;
        need(&s, hlen)?;
        let handler = std::str::from_utf8(&s[..hlen])
            .map_err(|_| NexusError::Decode("handler name is not UTF-8"))?;
        let handler = HandlerName::intern(handler);
        s.advance(hlen);
        need(&s, 4)?;
        let plen = s.get_u32_le() as usize;
        need(&s, plen)?;
        if s.remaining() != plen {
            return Err(NexusError::Decode("trailing bytes after RSR body"));
        }
        let payload = body.slice(body.len() - plen..body.len());
        Ok(Rsr {
            dest,
            endpoint,
            handler,
            ttl,
            payload,
        })
    }
}

// ---------------------------------------------------------------------------
// WireFrame
// ---------------------------------------------------------------------------

/// The encode-once wire representation of one RSR's shared frame body.
///
/// `Context::rsr` creates one `WireFrame` per call and hands it (with the
/// `Rsr`) to every transport send — across all multicast links and every
/// failover retry. The body (`hlen handler plen payload`) is serialized
/// lazily on first use by a transport that needs wire bytes, then shared
/// by refcount; queue transports that move the `Rsr` in process never
/// trigger the encode at all. The per-destination header is *not* part of
/// the body — senders assemble its 14 bytes on the stack per send (see
/// [`Rsr::header`]), which is what lets one body serve many destinations.
#[derive(Debug, Default)]
pub struct WireFrame {
    body: OnceLock<Bytes>,
}

impl WireFrame {
    /// Creates an empty frame; the body is encoded on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded shared body for `rsr`, serializing it on first call.
    /// The body depends only on `rsr.handler` and `rsr.payload`; callers
    /// reuse one frame across sends that vary `dest`/`endpoint`/`ttl`.
    pub fn body(&self, rsr: &Rsr) -> &Bytes {
        self.body.get_or_init(|| {
            BODY_ENCODES.fetch_add(1, Ordering::Relaxed);
            let mut buf = pool::take(rsr.body_len());
            buf.extend_from_slice(&(rsr.handler.len() as u16).to_le_bytes());
            buf.extend_from_slice(rsr.handler.as_bytes());
            buf.extend_from_slice(&(rsr.payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&rsr.payload);
            buf.freeze()
        })
    }

    /// The length prefix + header a framed transport sends before the
    /// body, assembled on the stack: `total_len u32 | header 14 B` where
    /// `total_len = HEADER_LEN + body.len()`.
    pub fn prefixed_header(rsr: &Rsr, body_len: usize) -> [u8; PREFIX_LEN + HEADER_LEN] {
        let mut out = [0u8; PREFIX_LEN + HEADER_LEN];
        let total = (HEADER_LEN + body_len) as u32;
        out[..PREFIX_LEN].copy_from_slice(&total.to_le_bytes());
        out[PREFIX_LEN..].copy_from_slice(&rsr.header());
        out
    }

    /// Returns the frame's body storage to the thread-local pool if it
    /// was encoded and no send still holds a reference (e.g. everything
    /// went over queue or synchronous socket transports). Callers invoke
    /// this when the frame goes out of scope; it is purely an allocation
    /// optimization and always safe to skip.
    pub fn reclaim(self) {
        if let Some(body) = self.body.into_inner() {
            pool::reclaim(body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Rsr {
        Rsr::new(
            ContextId(7),
            EndpointId(42),
            "on_temperature",
            Bytes::from_static(b"\x01\x02\x03"),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = sample();
        let frame = r.encode();
        assert_eq!(frame.len(), r.wire_len());
        let d = Rsr::decode(&frame).unwrap();
        assert_eq!(d.dest, r.dest);
        assert_eq!(d.endpoint, r.endpoint);
        assert_eq!(d.handler, r.handler);
        assert_eq!(d.ttl, DEFAULT_TTL);
        assert_eq!(d.payload, r.payload);
    }

    #[test]
    fn empty_payload_and_handler_roundtrip() {
        let r = Rsr::new(ContextId(0), EndpointId(0), "", Bytes::new());
        let d = Rsr::decode(&r.encode()).unwrap();
        assert_eq!(d.handler, "");
        assert!(d.payload.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = sample().encode().to_vec();
        frame[0] = 0x00;
        assert!(Rsr::decode(&frame).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = sample().encode();
        for cut in 1..frame.len() {
            assert!(
                Rsr::decode(&frame[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut frame = sample().encode().to_vec();
        frame.push(0);
        assert!(Rsr::decode(&frame).is_err());
    }

    #[test]
    fn decode_shared_payload_is_a_view_of_the_frame() {
        let r = Rsr::new(ContextId(1), EndpointId(2), "h", Bytes::from(vec![9u8; 64]));
        let frame = r.encode();
        let frame_ptr = frame.as_ref().as_ptr() as usize;
        let frame_end = frame_ptr + frame.len();
        let d = Rsr::decode_shared(frame).unwrap();
        let p = d.payload.as_ref().as_ptr() as usize;
        assert!(
            p >= frame_ptr && p + d.payload.len() <= frame_end,
            "payload must alias the frame storage, not a copy"
        );
        assert_eq!(d.payload, vec![9u8; 64]);
    }

    #[test]
    fn wireframe_encodes_body_once_across_destinations() {
        let mut r = sample();
        let frame = WireFrame::new();
        let before = body_encode_count();
        let b1 = frame.body(&r).clone();
        // Different destination, different ttl: same shared body.
        r.dest = ContextId(99);
        r.ttl -= 1;
        let b2 = frame.body(&r).clone();
        assert_eq!(body_encode_count() - before, 1);
        assert_eq!(b1, b2);
        // Header + body reassembles to exactly the legacy encoding.
        let mut full = r.header().to_vec();
        full.extend_from_slice(&b2);
        assert_eq!(&full[..], &r.encode()[..]);
    }

    #[test]
    fn prefixed_header_carries_total_frame_length() {
        let r = sample();
        let frame = WireFrame::new();
        let body = frame.body(&r);
        let ph = WireFrame::prefixed_header(&r, body.len());
        let total = u32::from_le_bytes(ph[..4].try_into().unwrap()) as usize;
        assert_eq!(total, r.wire_len());
        assert_eq!(&ph[PREFIX_LEN..], &r.header());
        // The framed stream (prefix stripped) decodes.
        let mut stream = ph[PREFIX_LEN..].to_vec();
        stream.extend_from_slice(body);
        assert_eq!(stream.len(), total);
        let d = Rsr::decode(&stream).unwrap();
        assert_eq!(d.handler, r.handler);
    }

    #[test]
    fn handler_names_intern_to_shared_storage() {
        let a = HandlerName::intern("halo_exchange");
        let b = HandlerName::intern("halo_exchange");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(a, "halo_exchange");
        assert_eq!(a, String::from("halo_exchange"));
        assert_eq!("halo_exchange", a);
        assert_eq!(format!("{a}"), "halo_exchange");
        assert_eq!(format!("{a:?}"), "\"halo_exchange\"");
    }

    /// A request/reply exchange driven by one thread interns two names
    /// alternately; after each has been seen once, the memo answers.
    #[test]
    fn alternating_names_hit_the_memo() {
        std::thread::spawn(|| {
            for i in 0..1000 {
                let name = if i % 2 == 0 { "req" } else { "rep" };
                assert_eq!(HandlerName::intern(name), name);
            }
            let lookups = GLOBAL_LOOKUPS.with(|n| n.get());
            assert!(lookups <= 2, "{lookups} global-table lookups");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn rsr_clone_is_allocation_shaped_like_refcounts() {
        // Structural check (the counting-allocator integration test pins
        // the actual numbers): a clone shares handler and payload storage.
        let r = sample();
        let c = r.clone();
        assert!(Arc::ptr_eq(&r.handler.0, &c.handler.0));
        assert_eq!(r.payload, c.payload);
    }
}
