//! Multi-link striped bulk transfer.
//!
//! The paper's selection machinery picks *one* method per link; this module
//! goes wider. A [`StripedObject`] is a composite [`CommObject`] wrapping K
//! underlying connections ("rails", possibly method-heterogeneous — e.g.
//! shmem + TCP) that splits one encode-once frame body into K chunks and
//! sends them over the rails concurrently-in-flight; a [`StripeAssembler`]
//! on the receive side reassembles the chunks — tolerating out-of-order,
//! duplicated (RUDP retransmit), and interleaved transfers — and delivers
//! exactly one [`Rsr`] upward. This is the CommBench "rail" pattern: when
//! per-link bandwidth is the bottleneck, K rails give ~K× the throughput of
//! the single fastest link.
//!
//! # Chunk framing
//!
//! A chunk is an ordinary RSR addressed to the reserved handler
//! [`STRIPE_HANDLER`] whose payload is a 20-byte [`StripeMeta`] header
//! followed by a zero-copy [`Bytes::slice`] of the original frame body:
//!
//! ```text
//! transfer_id u64 | index u16 | total u16 | body_len u32 | offset u32 | data
//! ```
//!
//! Because chunks ride the normal RSR path, every transport — and every
//! recovery mechanism (failover, forwarding) — works for them unchanged.
//! The data sections must tile `body_len` exactly; a chunk claiming an
//! empty body is refused.
//!
//! # Weighted striping
//!
//! Chunk sizes follow the measured per-rail bandwidth (frame bytes over
//! send-cost EWMA, both already collected in [`crate::trace`]): fast rails
//! get proportionally bigger chunks ([`weighted_shares`]). Shares smaller
//! than a minimum chunk size are folded into the fastest rail — striping
//! tiny pieces costs more in per-chunk overhead than it wins — and bodies
//! at or below the small-payload cutoff bypass striping entirely, so the
//! 16 B latency path is untouched.
//!
//! # Allocation discipline
//!
//! The send side allocates nothing in steady state: chunk headers live on
//! the stack, chunk data are refcounted views of the encode-once body, and
//! the chunk RSR reuses an interned handler and the shared empty payload.
//! The assembler holds each arriving chunk payload whole (so its pooled
//! storage can be reclaimed), appends the data sections in index order
//! into a pooled buffer at completion, and recycles its per-transfer slot
//! vectors through a free list.
//!
//! # The context's stripe engine
//!
//! [`Context::set_striped`] installs a [`StripedObject`] on a link; the
//! receiving context files each `#stripe` chunk with its assembler (a
//! context extension) and re-dispatches the reassembled RSR. Transfers
//! idle past [`Context::set_transfer_deadline`] are evicted by the
//! progress loop's sweep, each as a
//! [`TraceEventKind::StripeIdleEvict`] event.

use crate::context::{Context, ContextId};
use crate::descriptor::{DescriptorTable, MethodId};
use crate::error::{NexusError, Result};
use crate::module::{send_parts_fallback, CommObject, Staged};
use crate::pool;
use crate::rsr::{HandlerName, Rsr, WireFrame};
use crate::selection;
use crate::startpoint::Startpoint;
use crate::trace::{LinkMethodTrace, Trace, TraceEventKind};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Reserved handler name carrying stripe chunks. Handlers beginning with
/// `'#'` are intercepted by `Context::dispatch` before endpoint lookup and
/// cannot be registered by applications.
pub const STRIPE_HANDLER: &str = "#stripe";

/// Encoded size of [`StripeMeta`].
pub const META_LEN: usize = 8 + 2 + 2 + 4 + 4;

/// Maximum chunks per transfer (the assembler's receipt bitmap is a u64).
pub const MAX_CHUNKS: usize = 64;

/// Maximum rails a [`StripedObject`] will stripe across.
pub const MAX_RAILS: usize = 16;

/// Default small-payload cutoff: bodies at or below this many bytes are
/// sent whole over the fastest rail, leaving the latency path untouched.
pub const DEFAULT_CUTOFF: usize = 4096;

/// Default minimum chunk size: a share smaller than this is folded into
/// the fastest rail rather than paying per-chunk overhead.
pub const DEFAULT_MIN_CHUNK: usize = 1024;

/// Largest data section a single chunk carries. A rail's share is split
/// into segments no bigger than this so the per-chunk combine buffer
/// (`META_LEN + segment`) stays inside the buffer pool's reuse cap —
/// sending a multi-MiB share as one chunk would allocate (and fault in)
/// fresh pages on every transfer. Bodies too large for `MAX_CHUNKS`
/// segments of this size use proportionally larger segments instead.
pub const MAX_CHUNK_PAYLOAD: usize = 512 * 1024;

/// Incomplete transfers the assembler retains before evicting the oldest.
/// Bounds memory against senders that die mid-transfer (the failover e2e
/// exercises exactly that) or hostile half-streams.
pub const MAX_CONCURRENT_TRANSFERS: usize = 64;

fn interned(cell: &'static OnceLock<HandlerName>, name: &str) -> HandlerName {
    cell.get_or_init(|| HandlerName::intern(name)).clone()
}

/// The interned [`STRIPE_HANDLER`] (cached: cloning is a refcount bump).
pub fn stripe_handler() -> HandlerName {
    static H: OnceLock<HandlerName> = OnceLock::new();
    interned(&H, STRIPE_HANDLER)
}

// ---------------------------------------------------------------------------
// Chunk metadata
// ---------------------------------------------------------------------------

/// The per-chunk header prepended to each chunk's data section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeMeta {
    /// Identifies the transfer this chunk belongs to. Unique per sending
    /// process.
    pub transfer_id: u64,
    /// This chunk's position, `0..total`.
    pub index: u16,
    /// Total chunks in the transfer (≤ [`MAX_CHUNKS`]).
    pub total: u16,
    /// Reassembled body length in bytes (never 0).
    pub body_len: u32,
    /// Byte offset of this chunk's data within the body.
    pub offset: u32,
}

impl StripeMeta {
    /// Serializes the header onto the stack.
    pub fn to_bytes(self) -> [u8; META_LEN] {
        let mut b = [0u8; META_LEN];
        b[0..8].copy_from_slice(&self.transfer_id.to_le_bytes());
        b[8..10].copy_from_slice(&self.index.to_le_bytes());
        b[10..12].copy_from_slice(&self.total.to_le_bytes());
        b[12..16].copy_from_slice(&self.body_len.to_le_bytes());
        b[16..20].copy_from_slice(&self.offset.to_le_bytes());
        b
    }

    /// Parses the header from the front of a chunk payload.
    pub fn parse(payload: &[u8]) -> Result<StripeMeta> {
        if payload.len() < META_LEN {
            return Err(NexusError::Decode("stripe chunk shorter than its header"));
        }
        Ok(StripeMeta {
            transfer_id: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
            index: u16::from_le_bytes(payload[8..10].try_into().unwrap()),
            total: u16::from_le_bytes(payload[10..12].try_into().unwrap()),
            body_len: u32::from_le_bytes(payload[12..16].try_into().unwrap()),
            offset: u32::from_le_bytes(payload[16..20].try_into().unwrap()),
        })
    }
}

// ---------------------------------------------------------------------------
// Weighted share assignment
// ---------------------------------------------------------------------------

/// Splits `total` bytes across rails in proportion to `rates` (bytes/ns;
/// non-finite or non-positive entries mean "unmeasured" and receive the
/// mean measured rate, or an equal share when nothing is measured yet).
/// Shares smaller than `min_chunk` are folded into the fastest rail.
/// Writes one share per rate into `shares` and returns the number of
/// nonzero shares. The shares always sum to exactly `total`.
///
/// Pure so the simnet bandwidth model can mirror the runtime's split
/// bit-for-bit.
pub fn weighted_shares(
    total: usize,
    rates: &[f64],
    min_chunk: usize,
    shares: &mut [usize],
) -> usize {
    let n = rates.len();
    assert!(n <= shares.len(), "shares buffer shorter than rates");
    if n == 0 {
        return 0;
    }
    let measured = |r: f64| r.is_finite() && r > 0.0;
    let (msum, mcount) = rates
        .iter()
        .filter(|r| measured(**r))
        .fold((0.0, 0usize), |(s, c), r| (s + r, c + 1));
    let fallback = if mcount == 0 {
        1.0
    } else {
        msum / mcount as f64
    };
    let weight = |r: f64| if measured(r) { r } else { fallback };
    let wsum: f64 = rates.iter().map(|&r| weight(r)).sum();
    let mut best = 0usize;
    for i in 0..n {
        if weight(rates[i]) > weight(rates[best]) {
            best = i;
        }
    }
    let mut assigned = 0usize;
    for i in 0..n {
        shares[i] = ((total as f64) * weight(rates[i]) / wsum) as usize;
        assigned += shares[i];
    }
    // Flooring leaves a remainder; the fastest rail absorbs it.
    shares[best] += total - assigned;
    // Fold sub-minimum shares into the fastest rail: striping tiny pieces
    // costs more per-chunk overhead than the parallelism wins back.
    for i in 0..n {
        if i != best && shares[i] > 0 && shares[i] < min_chunk {
            shares[best] += shares[i];
            shares[i] = 0;
        }
    }
    shares[..n].iter().filter(|&&s| s > 0).count()
}

// ---------------------------------------------------------------------------
// StripedObject (send side)
// ---------------------------------------------------------------------------

/// One underlying connection a [`StripedObject`] stripes over.
pub struct StripeRail {
    /// The connection carrying this rail's chunks.
    pub obj: Arc<dyn CommObject>,
    /// Measured per-link/method send statistics driving this rail's share
    /// of each transfer; `None` means unmeasured.
    pub ltrace: Option<Arc<LinkMethodTrace>>,
    /// Explicit bandwidth weight override (bytes/ns). Takes precedence
    /// over `ltrace`; benches and tests use it for deterministic splits.
    pub weight: Option<f64>,
}

impl StripeRail {
    /// A rail with no measurements: shares are assigned evenly until the
    /// trace warms up.
    pub fn new(obj: Arc<dyn CommObject>) -> Self {
        StripeRail {
            obj,
            ltrace: None,
            weight: None,
        }
    }

    pub(crate) fn rate(&self) -> f64 {
        if let Some(w) = self.weight {
            return w;
        }
        match &self.ltrace {
            Some(t) => match (t.send_bytes.mean(), t.send_cost_ns.value()) {
                (Some(bytes), Some(ns)) if ns > 0.0 => bytes / ns,
                _ => f64::NAN,
            },
            None => f64::NAN,
        }
    }
}

/// Process-unique transfer ids: pid in the high bits (distinguishing
/// senders across processes sharing a receiver) over a process counter.
fn next_transfer_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    ((std::process::id() as u64) << 40) ^ NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A composite [`CommObject`] that splits each sufficiently large frame
/// body across its rails. Small bodies (≤ cutoff) pass through whole on
/// the first (fastest) rail with the standard wire format, so enabling
/// striping never perturbs the latency path.
pub struct StripedObject {
    rails: Vec<StripeRail>,
    cutoff: AtomicUsize,
    min_chunk: AtomicUsize,
}

impl StripedObject {
    /// Builds a striped sender over `rails`, ordered fastest-first (the
    /// first rail carries passthrough sends). Only the first
    /// [`MAX_RAILS`] rails participate in striping.
    ///
    /// # Panics
    /// If `rails` is empty.
    pub fn new(rails: Vec<StripeRail>) -> Self {
        assert!(!rails.is_empty(), "a StripedObject needs at least one rail");
        StripedObject {
            rails,
            cutoff: AtomicUsize::new(DEFAULT_CUTOFF),
            min_chunk: AtomicUsize::new(DEFAULT_MIN_CHUNK),
        }
    }

    /// Sets the small-payload cutoff (bytes of frame body at or below
    /// which striping is bypassed).
    pub fn with_cutoff(self, cutoff: usize) -> Self {
        self.cutoff.store(cutoff, Ordering::Relaxed);
        self
    }

    /// Sets the minimum per-rail chunk size.
    pub fn with_min_chunk(self, min_chunk: usize) -> Self {
        self.min_chunk.store(min_chunk.max(1), Ordering::Relaxed);
        self
    }

    /// Number of rails.
    pub fn rail_count(&self) -> usize {
        self.rails.len()
    }
}

impl CommObject for StripedObject {
    fn method(&self) -> MethodId {
        MethodId::STRIPE
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
        striped_send(self, rsr, frame).map(|()| Staged::Written)
    }

    fn set_param(&self, key: &str, value: &str) -> Result<()> {
        let parsed = value.parse::<usize>().map_err(|_| NexusError::BadParam {
            key: key.to_owned(),
            reason: format!("expected a byte count, got {value:?}"),
        });
        match key {
            "cutoff" => {
                self.cutoff.store(parsed?, Ordering::Relaxed);
                Ok(())
            }
            "min_chunk" => {
                self.min_chunk.store(parsed?.max(1), Ordering::Relaxed);
                Ok(())
            }
            _ => Err(NexusError::BadParam {
                key: key.to_owned(),
                reason: "stripe parameters are cutoff, min_chunk".to_owned(),
            }),
        }
    }

    // close() deliberately does nothing: rails are shared with the plain
    // per-method connection cache, and each rail's own failover path is
    // responsible for invalidating it.
}

/// The stripe send path (a registered `hot-path-alloc` lint root).
///
/// Splits the encode-once frame body into weighted chunks, each sent as its
/// data slice headed by its `StripeMeta` ([`CommObject::transfer`]).
/// A rail that fails mid-transfer is excluded and its chunks retry over
/// the surviving rails (the assembler does not care which rail delivered
/// a chunk); only when every rail has failed does the error propagate,
/// feeding the context-level re-selection/failover path.
fn striped_send(obj: &StripedObject, rsr: &Rsr, frame: &WireFrame) -> Result<()> {
    let n = obj.rails.len().min(MAX_RAILS);
    if n < 2 || rsr.body_len() <= obj.cutoff.load(Ordering::Relaxed) {
        return obj.rails[0].obj.send(rsr, frame);
    }
    let body = frame.body(rsr).clone();
    let body_len = body.len();
    let mut rates = [f64::NAN; MAX_RAILS];
    for (i, rail) in obj.rails.iter().take(n).enumerate() {
        rates[i] = rail.rate();
    }
    let mut shares = [0usize; MAX_RAILS];
    let chunks = weighted_shares(
        body_len,
        &rates[..n],
        obj.min_chunk.load(Ordering::Relaxed),
        &mut shares[..n],
    );
    if chunks <= 1 {
        // Everything folded onto one rail: skip chunk framing entirely.
        let i = shares[..n].iter().position(|&s| s > 0).unwrap_or(0);
        return obj.rails[i].obj.send(rsr, frame);
    }
    // Shares are further split into pool-friendly segments. The floor
    // keeps the total within the assembler's MAX_CHUNKS receipt bitmap:
    // sum(ceil(share/cap)) <= body/cap + rails <= MAX_CHUNKS whenever
    // cap >= body/(MAX_CHUNKS - rails).
    let seg_cap = MAX_CHUNK_PAYLOAD.max(body_len.div_ceil(MAX_CHUNKS - n));
    let transfer_id = next_transfer_id();
    let chunk = Rsr {
        dest: rsr.dest,
        endpoint: rsr.endpoint,
        handler: stripe_handler(),
        ttl: rsr.ttl,
        payload: Bytes::new(),
    };
    send_chunks(
        &obj.rails[..n],
        chunk,
        transfer_id,
        &body,
        &shares[..n],
        seg_cap,
    )
}

/// Sends `body` as chunks of `chunk` — each its data slice as payload,
/// headed by its `StripeMeta` — over `rails`:
/// rail `i` carries `shares[i]` bytes, split into segments of at most
/// `seg_cap` data bytes each. A rail that fails mid-stream is excluded
/// and its remaining chunks retry on the survivors; only when every rail
/// has failed does the error propagate. Shared by [`striped_send`] and
/// the bulk pull engine, which streams a pulled region down the wire
/// with its own reserved handler and a caller-chosen transfer id.
pub(crate) fn send_chunks(
    rails: &[StripeRail],
    mut chunk: Rsr,
    transfer_id: u64,
    body: &Bytes,
    shares: &[usize],
    seg_cap: usize,
) -> Result<()> {
    let n = rails.len().min(MAX_RAILS);
    let body_len = body.len();
    let total: usize = shares[..n]
        .iter()
        .filter(|&&s| s > 0)
        .map(|&s| s.div_ceil(seg_cap))
        .sum();
    debug_assert!(total <= MAX_CHUNKS);
    let mut failed = [false; MAX_RAILS];
    let mut offset = 0usize;
    let mut index = 0u16;
    let mut last_err = None;
    for (i, &share) in shares[..n].iter().enumerate() {
        let mut remaining = share;
        while remaining > 0 {
            let len = remaining.min(seg_cap);
            let meta = StripeMeta {
                transfer_id,
                index,
                total: total as u16,
                body_len: body_len as u32,
                offset: offset as u32,
            }
            .to_bytes();
            chunk.payload = body.slice(offset..offset + len);
            let mut sent = false;
            for probe in 0..n {
                let r = (i + probe) % n;
                if failed[r] {
                    continue;
                }
                match rails[r]
                    .obj
                    .transfer(&chunk, &WireFrame::new(), &meta, None)
                {
                    Ok(_) => {
                        sent = true;
                        break;
                    }
                    Err(e) => {
                        failed[r] = true;
                        last_err = Some(e);
                    }
                }
            }
            if !sent {
                return Err(last_err.expect("no rail failure recorded"));
            }
            offset += len;
            index += 1;
            remaining -= len;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// StripeAssembler (receive side)
// ---------------------------------------------------------------------------

struct Transfer {
    total: u16,
    body_len: u32,
    /// Receipt bitmap: bit `i` set once chunk `i` arrived (first wins).
    received: u64,
    /// Data bytes accumulated so far.
    filled: u32,
    /// Whole chunk payloads, index-keyed. Held whole (not sliced) so the
    /// pooled storage can be reclaimed after reassembly.
    slots: Vec<Option<Bytes>>,
    /// When the most recent chunk arrived; [`StripeAssembler::sweep_idle`]
    /// evicts transfers whose sender has gone quiet past a timeout.
    last_arrival: Instant,
}

#[derive(Default)]
struct AssemblerState {
    transfers: HashMap<u64, Transfer>,
    /// Transfer ids in arrival order (may contain ids already completed;
    /// eviction skips those).
    arrival: VecDeque<u64>,
    /// Recycled slot vectors, so steady-state ingest allocates nothing.
    free_slots: Vec<Vec<Option<Bytes>>>,
}

/// A fully received transfer, ready to be turned into a contiguous body
/// ([`StripeAssembler::assemble_body`]).
pub struct CompleteTransfer {
    /// The transfer id the chunks carried.
    pub transfer_id: u64,
    body_len: u32,
    slots: Vec<Option<Bytes>>,
}

/// Reassembles chunk payloads into complete transfers.
///
/// Tolerates out-of-order arrival, duplicated chunks (RUDP retransmits —
/// first copy wins, duplicates are recycled), and any interleaving of
/// concurrent transfers. Retains at most [`MAX_CONCURRENT_TRANSFERS`]
/// incomplete transfers, evicting the oldest — which is also how the
/// half-delivered remains of a mid-transfer link death are eventually
/// collected.
#[derive(Default)]
pub struct StripeAssembler {
    inner: Mutex<AssemblerState>,
}

impl StripeAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one chunk payload (`StripeMeta ++ data`). Returns the
    /// completed transfer when this chunk was the last one missing.
    pub fn ingest(&self, payload: Bytes) -> Result<Option<CompleteTransfer>> {
        stripe_drain(&mut self.inner.lock(), payload)
    }

    /// Incomplete transfers currently buffered.
    pub fn pending(&self) -> usize {
        self.inner.lock().transfers.len()
    }

    /// Concatenates a transfer's data sections, in index order, into one
    /// pooled contiguous body. Validates that the chunk offsets tile
    /// `body_len` exactly (no gaps, no overlap) and recycles the chunk
    /// payload storage and the slot vector.
    pub fn assemble_body(&self, mut t: CompleteTransfer) -> Result<Bytes> {
        let run = |t: &mut CompleteTransfer| -> Result<Bytes> {
            let mut buf = pool::take(t.body_len as usize);
            let mut expect = 0u32;
            for slot in t.slots.iter_mut() {
                let payload = slot.take().ok_or(NexusError::Decode("missing chunk"))?;
                let meta = StripeMeta::parse(&payload)?;
                if meta.offset != expect {
                    pool::give(buf);
                    return Err(NexusError::Decode("stripe chunks leave a gap or overlap"));
                }
                buf.extend_from_slice(&payload[META_LEN..]);
                expect += (payload.len() - META_LEN) as u32;
                pool::reclaim(payload);
            }
            if expect != t.body_len {
                pool::give(buf);
                return Err(NexusError::Decode("stripe body length mismatch"));
            }
            Ok(buf.freeze())
        };
        let out = run(&mut t);
        self.give_slots(t.slots);
        out
    }

    fn give_slots(&self, mut slots: Vec<Option<Bytes>>) {
        slots.clear();
        let mut state = self.inner.lock();
        if state.free_slots.len() < 8 {
            state.free_slots.push(slots);
        }
    }

    /// Evicts incomplete transfers whose most recent chunk arrived more
    /// than `max_idle` ago — the remains of a sender (or rail) that died
    /// mid-stream — recycling their slot storage. Returns the evicted
    /// transfer ids so the caller can surface trace events. Intended to be
    /// called from a periodic progress sweep, not the ingest path.
    pub fn sweep_idle(&self, max_idle: Duration) -> Vec<u64> {
        let now = Instant::now();
        let mut state = self.inner.lock();
        let stale: Vec<u64> = state
            .transfers
            .iter()
            .filter(|(_, t)| now.duration_since(t.last_arrival) >= max_idle)
            .map(|(&id, _)| id)
            .collect();
        for id in &stale {
            if let Some(t) = state.transfers.remove(id) {
                recycle(&mut state, t.slots);
            }
        }
        stale
    }
}

/// The assembler ingest path (a registered `hot-path-alloc` and
/// `poll-blocking` lint root): validates one chunk against its transfer,
/// files it, and extracts the transfer once every chunk has arrived.
fn stripe_drain(state: &mut AssemblerState, payload: Bytes) -> Result<Option<CompleteTransfer>> {
    let meta = StripeMeta::parse(&payload)?;
    if meta.total == 0 || meta.total as usize > MAX_CHUNKS {
        return Err(NexusError::Decode("stripe chunk count out of range"));
    }
    if meta.index >= meta.total {
        return Err(NexusError::Decode("stripe chunk index out of range"));
    }
    if meta.body_len == 0 {
        return Err(NexusError::Decode("stripe chunk claims an empty body"));
    }
    let data_len = u32::try_from(payload.len() - META_LEN)
        .map_err(|_| NexusError::Decode("stripe chunk exceeds body length"))?;
    match meta.offset.checked_add(data_len) {
        Some(end) if end <= meta.body_len => {}
        _ => return Err(NexusError::Decode("stripe chunk exceeds body length")),
    }
    // Lazily drop arrival-order entries for transfers that already
    // completed (or were evicted), so the deque stays bounded by the
    // pending set instead of growing one entry per transfer forever.
    while let Some(front) = state.arrival.front() {
        if state.transfers.contains_key(front) {
            break;
        }
        state.arrival.pop_front();
    }
    if !state.transfers.contains_key(&meta.transfer_id) {
        // New transfer: evict the oldest incomplete one if at capacity.
        while state.transfers.len() >= MAX_CONCURRENT_TRANSFERS {
            let Some(old) = state.arrival.pop_front() else {
                break;
            };
            if let Some(t) = state.transfers.remove(&old) {
                recycle(state, t.slots);
            }
        }
        let mut slots = state.free_slots.pop().unwrap_or_default();
        slots.resize(meta.total as usize, None);
        state.arrival.push_back(meta.transfer_id);
        state.transfers.insert(
            meta.transfer_id,
            Transfer {
                total: meta.total,
                body_len: meta.body_len,
                received: 0,
                filled: 0,
                slots,
                last_arrival: Instant::now(),
            },
        );
    }
    let t = state
        .transfers
        .get_mut(&meta.transfer_id)
        .expect("transfer just ensured");
    if t.total != meta.total || t.body_len != meta.body_len {
        return Err(NexusError::Decode("stripe chunk metadata mismatch"));
    }
    let bit = 1u64 << meta.index;
    if t.received & bit != 0 {
        // Duplicate (e.g. an RUDP retransmit raced its ack): first wins.
        pool::reclaim(payload);
        return Ok(None);
    }
    if u64::from(t.filled) + u64::from(data_len) > u64::from(t.body_len) {
        let t = state.transfers.remove(&meta.transfer_id).expect("present");
        recycle(state, t.slots);
        return Err(NexusError::Decode("stripe transfer overflows its body"));
    }
    t.received |= bit;
    t.filled += data_len;
    t.slots[meta.index as usize] = Some(payload);
    t.last_arrival = Instant::now();
    let complete = meta.total as u32 == t.received.count_ones();
    if !complete {
        return Ok(None);
    }
    let t = state.transfers.remove(&meta.transfer_id).expect("present");
    if t.filled != t.body_len {
        // Every chunk arrived but the data falls short of the claimed
        // body: refused here, so no body is ever sized from the claim.
        recycle(state, t.slots);
        return Err(NexusError::Decode("stripe chunks fall short of their body"));
    }
    Ok(Some(CompleteTransfer {
        transfer_id: meta.transfer_id,
        body_len: t.body_len,
        slots: t.slots,
    }))
}

/// Returns an evicted/failed transfer's resources: payload storage to the
/// buffer pool, the slot vector to the free list.
fn recycle(state: &mut AssemblerState, mut slots: Vec<Option<Bytes>>) {
    for slot in slots.iter_mut() {
        if let Some(payload) = slot.take() {
            pool::reclaim(payload);
        }
    }
    slots.clear();
    if state.free_slots.len() < 8 {
        state.free_slots.push(slots);
    }
}

// ---------------------------------------------------------------------------
// The context's stripe engine
// ---------------------------------------------------------------------------

/// Per-context stripe state, attached lazily via [`Context::extension`]:
/// the assembler for `#stripe` chunks.
#[derive(Default)]
pub(crate) struct StripeState {
    pub(crate) stripes: StripeAssembler,
}

impl StripeState {
    /// The stripe half of the deadline sweep: evicts transfers whose
    /// sender (or rail) went quiet for `deadline`, each as a
    /// `StripeIdleEvict` event.
    pub(crate) fn sweep(&self, trace: &Trace, deadline: Duration) {
        for transfer_id in self.stripes.sweep_idle(deadline) {
            trace.record_event(TraceEventKind::StripeIdleEvict { transfer_id });
        }
    }
}

impl Context {
    /// Installs a [`StripedObject`] on each of `sp`'s links that has at
    /// least two applicable methods: subsequent `rsr` calls on those links
    /// transparently stripe bodies larger than `cutoff` bytes across every
    /// applicable method at once (weighted by measured bandwidth), while
    /// smaller messages pass through whole on the fastest method. Links
    /// with fewer than two applicable methods are left untouched. Returns
    /// the number of links striped.
    ///
    /// The stripe selection is installed unpinned, so transport failures
    /// still trigger the normal failover path (the stripe object retries
    /// chunks over surviving rails internally first), and a later
    /// [`Startpoint::set_method`]/policy change simply replaces it.
    pub fn set_striped(&self, sp: &Startpoint, cutoff: usize) -> Result<usize> {
        let reg = self.registry()?;
        let mut striped = 0usize;
        for link in sp.links() {
            let table = link.table();
            let methods = selection::applicable_methods(&self.info(), &table, &reg);
            if methods.len() < 2 {
                continue;
            }
            let rails = self.rails_to(link.target.context, methods, &table)?;
            let obj = Arc::new(StripedObject::new(rails).with_cutoff(cutoff));
            self.install_selection(link, MethodId::STRIPE, obj);
            striped += 1;
        }
        Ok(striped)
    }

    /// One measured rail per method in `methods` (at most [`MAX_RAILS`],
    /// fastest first), each over the cached connection to `target`.
    pub(crate) fn rails_to(
        &self,
        target: ContextId,
        methods: Vec<MethodId>,
        table: &DescriptorTable,
    ) -> Result<Vec<StripeRail>> {
        let mut rails = Vec::with_capacity(methods.len().min(MAX_RAILS));
        for m in methods.into_iter().take(MAX_RAILS) {
            rails.push(StripeRail {
                obj: self.connect_cached(target, m, table)?,
                ltrace: Some(self.trace().link(target, m)),
                weight: None,
            });
        }
        Ok(rails)
    }

    /// Consumes one `#stripe` chunk: files it with the assembler and, when
    /// it completes a transfer, re-dispatches the reassembled message.
    pub(crate) fn stripe_ingest(&self, arrival: MethodId, msg: Rsr) -> Result<()> {
        let st = self.extension(StripeState::default);
        let Some(done) = st.stripes.ingest(msg.payload)? else {
            return Ok(());
        };
        let body = st.stripes.assemble_body(done)?;
        let inner = Rsr::decode_body(msg.dest, msg.endpoint, msg.ttl, body.clone())?;
        if inner.handler.as_bytes().first() == Some(&b'#') {
            // A reassembled body must carry an application handler;
            // permitting nesting would allow unbounded recursion.
            return Err(NexusError::Decode("stripe body nests a reserved handler"));
        }
        let out = self.dispatch(arrival, inner);
        // The handler has run and the payload view is dropped: the
        // reassembled body storage goes back to the pool.
        pool::reclaim(body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextId;
    use crate::endpoint::EndpointId;

    // -- weighted_shares ----------------------------------------------------

    fn shares_of(total: usize, rates: &[f64], min_chunk: usize) -> (Vec<usize>, usize) {
        let mut shares = vec![0usize; rates.len()];
        let n = weighted_shares(total, rates, min_chunk, &mut shares);
        (shares, n)
    }

    #[test]
    fn shares_split_evenly_when_unmeasured() {
        let (s, n) = shares_of(4096, &[f64::NAN, f64::NAN, f64::NAN, f64::NAN], 64);
        assert_eq!(n, 4);
        assert_eq!(s.iter().sum::<usize>(), 4096);
        assert_eq!(s, vec![1024, 1024, 1024, 1024]);
    }

    #[test]
    fn shares_follow_rates() {
        let (s, n) = shares_of(4000, &[3.0, 1.0], 64);
        assert_eq!(n, 2);
        assert_eq!(s.iter().sum::<usize>(), 4000);
        assert_eq!(s, vec![3000, 1000]);
    }

    #[test]
    fn unmeasured_rail_gets_mean_measured_rate() {
        let (s, _) = shares_of(3000, &[2.0, f64::NAN, 4.0], 64);
        // NaN rail weighted at mean(2,4)=3 → weights 2:3:4.
        assert_eq!(s.iter().sum::<usize>(), 3000);
        assert!(s[2] > s[1] && s[1] > s[0], "{s:?}");
    }

    #[test]
    fn tiny_shares_fold_into_fastest_rail() {
        let (s, n) = shares_of(1500, &[1.0, 1.0], 1024);
        assert_eq!(n, 1);
        assert_eq!(s.iter().sum::<usize>(), 1500);
        // 750/750 both below min_chunk: everything lands on one rail.
        assert!(s.contains(&1500), "{s:?}");
    }

    #[test]
    fn remainder_goes_to_fastest() {
        let (s, _) = shares_of(1001, &[1.0, 1.0, 1.0], 1);
        assert_eq!(s.iter().sum::<usize>(), 1001);
        assert_eq!(*s.iter().max().unwrap(), 335);
    }

    #[test]
    fn shares_always_sum_to_total() {
        for total in [0usize, 1, 7, 1023, 65537] {
            for rates in [
                vec![1.0],
                vec![0.5, 2.5],
                vec![f64::NAN, 1.0, 0.0, 9.0],
                vec![f64::INFINITY, 1.0],
            ] {
                let (s, _) = shares_of(total, &rates, 128);
                assert_eq!(s.iter().sum::<usize>(), total, "{total} over {rates:?}");
            }
        }
    }

    // -- meta ---------------------------------------------------------------

    #[test]
    fn meta_roundtrip() {
        let m = StripeMeta {
            transfer_id: 0xDEAD_BEEF_0BAD_F00D,
            index: 3,
            total: 7,
            body_len: 1 << 20,
            offset: 12345,
        };
        assert_eq!(StripeMeta::parse(&m.to_bytes()).unwrap(), m);
        assert!(StripeMeta::parse(&m.to_bytes()[..META_LEN - 1]).is_err());
    }

    // -- assembler ----------------------------------------------------------

    fn chunk(meta: StripeMeta, data: &[u8]) -> Bytes {
        let mut v = meta.to_bytes().to_vec();
        v.extend_from_slice(data);
        Bytes::from(v)
    }

    fn stripe_chunks(id: u64, body: &[u8], cuts: &[usize]) -> Vec<Bytes> {
        let mut out = Vec::new();
        let mut off = 0usize;
        for (i, &len) in cuts.iter().enumerate() {
            out.push(chunk(
                StripeMeta {
                    transfer_id: id,
                    index: i as u16,
                    total: cuts.len() as u16,
                    body_len: body.len() as u32,
                    offset: off as u32,
                },
                &body[off..off + len],
            ));
            off += len;
        }
        assert_eq!(off, body.len());
        out
    }

    #[test]
    fn in_order_reassembly() {
        let asm = StripeAssembler::new();
        let body: Vec<u8> = (0..200u8).collect();
        let chunks = stripe_chunks(1, &body, &[50, 100, 50]);
        assert!(asm.ingest(chunks[0].clone()).unwrap().is_none());
        assert!(asm.ingest(chunks[1].clone()).unwrap().is_none());
        let done = asm.ingest(chunks[2].clone()).unwrap().unwrap();
        assert_eq!(done.transfer_id, 1);
        assert_eq!(&asm.assemble_body(done).unwrap()[..], &body[..]);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn out_of_order_reassembly() {
        let asm = StripeAssembler::new();
        let body: Vec<u8> = (0..=255u8).cycle().take(999).collect();
        let chunks = stripe_chunks(2, &body, &[333, 333, 333]);
        assert!(asm.ingest(chunks[2].clone()).unwrap().is_none());
        assert!(asm.ingest(chunks[0].clone()).unwrap().is_none());
        let done = asm.ingest(chunks[1].clone()).unwrap().unwrap();
        assert_eq!(&asm.assemble_body(done).unwrap()[..], &body[..]);
    }

    #[test]
    fn duplicates_are_dropped_first_wins() {
        let asm = StripeAssembler::new();
        let body = vec![7u8; 100];
        let chunks = stripe_chunks(3, &body, &[60, 40]);
        assert!(asm.ingest(chunks[0].clone()).unwrap().is_none());
        // Retransmit of chunk 0: ignored, transfer still incomplete.
        assert!(asm.ingest(chunks[0].clone()).unwrap().is_none());
        let done = asm.ingest(chunks[1].clone()).unwrap().unwrap();
        assert_eq!(&asm.assemble_body(done).unwrap()[..], &body[..]);
    }

    #[test]
    fn interleaved_transfers_reassemble_independently() {
        let asm = StripeAssembler::new();
        let a: Vec<u8> = vec![1u8; 300];
        let b: Vec<u8> = vec![2u8; 500];
        let ca = stripe_chunks(10, &a, &[100, 200]);
        let cb = stripe_chunks(11, &b, &[250, 250]);
        assert!(asm.ingest(ca[0].clone()).unwrap().is_none());
        assert!(asm.ingest(cb[1].clone()).unwrap().is_none());
        assert!(asm.ingest(cb[0].clone()).unwrap().is_some());
        let done_a = asm.ingest(ca[1].clone()).unwrap().unwrap();
        assert_eq!(&asm.assemble_body(done_a).unwrap()[..], &a[..]);
    }

    #[test]
    fn malformed_chunks_rejected() {
        let asm = StripeAssembler::new();
        let meta = |total, index, body_len, offset| StripeMeta {
            transfer_id: 9,
            index,
            total,
            body_len,
            offset,
        };
        // Zero / oversized chunk count.
        assert!(asm.ingest(chunk(meta(0, 0, 10, 0), b"x")).is_err());
        assert!(asm.ingest(chunk(meta(65, 0, 10, 0), b"x")).is_err());
        // Index out of range.
        assert!(asm.ingest(chunk(meta(2, 2, 10, 0), b"x")).is_err());
        // Data past the declared body.
        assert!(asm.ingest(chunk(meta(2, 0, 4, 2), b"xyz")).is_err());
        // Metadata mismatch against the existing transfer.
        assert!(asm
            .ingest(chunk(meta(3, 0, 30, 0), b"0123456789"))
            .unwrap()
            .is_none());
        assert!(asm
            .ingest(chunk(meta(3, 1, 99, 10), b"0123456789"))
            .is_err());
    }

    #[test]
    fn gap_detected_at_assembly() {
        let asm = StripeAssembler::new();
        // Two chunks both claiming offset 0 of a 20-byte body.
        let c0 = chunk(
            StripeMeta {
                transfer_id: 4,
                index: 0,
                total: 2,
                body_len: 20,
                offset: 0,
            },
            &[0u8; 10],
        );
        let c1 = chunk(
            StripeMeta {
                transfer_id: 4,
                index: 1,
                total: 2,
                body_len: 20,
                offset: 0,
            },
            &[1u8; 10],
        );
        asm.ingest(c0).unwrap();
        let done = asm.ingest(c1).unwrap().unwrap();
        assert!(asm.assemble_body(done).is_err());
    }

    #[test]
    fn oldest_incomplete_transfer_evicted_at_capacity() {
        let asm = StripeAssembler::new();
        for id in 0..MAX_CONCURRENT_TRANSFERS as u64 + 1 {
            let c = chunk(
                StripeMeta {
                    transfer_id: id,
                    index: 0,
                    total: 2,
                    body_len: 8,
                    offset: 0,
                },
                &[0u8; 4],
            );
            asm.ingest(c).unwrap();
        }
        assert_eq!(asm.pending(), MAX_CONCURRENT_TRANSFERS);
        // Transfer 0 was evicted: completing it now treats its second
        // chunk as a fresh (incomplete) transfer.
        let c = chunk(
            StripeMeta {
                transfer_id: 0,
                index: 1,
                total: 2,
                body_len: 8,
                offset: 4,
            },
            &[0u8; 4],
        );
        assert!(asm.ingest(c).unwrap().is_none());
    }

    #[test]
    fn idle_transfer_swept_after_sender_death() {
        let asm = StripeAssembler::new();
        let body: Vec<u8> = (0..200u8).collect();
        let chunks = stripe_chunks(21, &body, &[50, 100, 50]);
        // The sender dies after two of three chunks.
        asm.ingest(chunks[0].clone()).unwrap();
        asm.ingest(chunks[1].clone()).unwrap();
        assert_eq!(asm.pending(), 1);
        // A generous timeout leaves the live-looking transfer alone.
        assert!(asm.sweep_idle(Duration::from_secs(3600)).is_empty());
        assert_eq!(asm.pending(), 1);
        // A zero timeout treats it as idle: slots reclaimed, id reported.
        assert_eq!(asm.sweep_idle(Duration::ZERO), vec![21]);
        assert_eq!(asm.pending(), 0);
        // The late final chunk now starts a fresh (incomplete) transfer
        // instead of resurrecting freed slots.
        assert!(asm.ingest(chunks[2].clone()).unwrap().is_none());
    }

    #[test]
    fn sweep_spares_complete_and_fresh_transfers() {
        let asm = StripeAssembler::new();
        let body = vec![5u8; 64];
        let done = stripe_chunks(30, &body, &[64]);
        let t = asm.ingest(done[0].clone()).unwrap().unwrap();
        assert_eq!(&asm.assemble_body(t).unwrap()[..], &body[..]);
        // Completed transfers are gone already; nothing for the sweep.
        assert!(asm.sweep_idle(Duration::ZERO).is_empty());
    }

    // -- StripedObject ------------------------------------------------------

    /// A rail that captures combined chunk payloads, optionally failing.
    struct CaptureRail {
        sent: Mutex<Vec<(String, Bytes)>>,
        broken: std::sync::atomic::AtomicBool,
    }

    impl CaptureRail {
        fn new() -> Arc<Self> {
            Arc::new(CaptureRail {
                sent: Mutex::new(Vec::new()),
                broken: std::sync::atomic::AtomicBool::new(false),
            })
        }
    }

    impl CommObject for CaptureRail {
        fn method(&self) -> MethodId {
            MethodId::FIRST_CUSTOM
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
            if self.broken.load(Ordering::Relaxed) {
                return Err(NexusError::ConnectionClosed);
            }
            self.sent
                .lock()
                .push((rsr.handler.as_str().to_owned(), rsr.payload.clone()));
            Ok(Staged::Written)
        }
    }

    fn rails(objs: &[Arc<CaptureRail>]) -> Vec<StripeRail> {
        objs.iter()
            .map(|o| StripeRail::new(o.clone() as Arc<dyn CommObject>))
            .collect()
    }

    fn bulk_rsr(len: usize) -> Rsr {
        Rsr::new(
            ContextId(1),
            EndpointId(2),
            "bulk",
            Bytes::from((0..len).map(|i| i as u8).collect::<Vec<u8>>()),
        )
    }

    #[test]
    fn small_bodies_bypass_striping() {
        let r = [CaptureRail::new(), CaptureRail::new()];
        let striped = StripedObject::new(rails(&r));
        let rsr = bulk_rsr(64);
        let frame = WireFrame::new();
        striped_send(&striped, &rsr, &frame).unwrap();
        let sent = r[0].sent.lock();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, "bulk", "cutoff bypass must keep the wire format");
        assert!(r[1].sent.lock().is_empty());
    }

    #[test]
    fn large_bodies_stripe_and_reassemble() {
        let r = [CaptureRail::new(), CaptureRail::new()];
        let striped = StripedObject::new(rails(&r)).with_min_chunk(512);
        let rsr = bulk_rsr(64 * 1024);
        let frame = WireFrame::new();
        striped_send(&striped, &rsr, &frame).unwrap();
        let asm = StripeAssembler::new();
        let mut done = None;
        for rail in &r {
            for (handler, payload) in rail.sent.lock().iter() {
                assert_eq!(handler, STRIPE_HANDLER);
                if let Some(t) = asm.ingest(payload.clone()).unwrap() {
                    done = Some(t);
                }
            }
        }
        let body = asm
            .assemble_body(done.expect("transfer completes"))
            .unwrap();
        assert_eq!(&body[..], &frame.body(&rsr)[..]);
        // Both rails carried data.
        assert!(!r[0].sent.lock().is_empty() && !r[1].sent.lock().is_empty());
    }

    #[test]
    fn failed_rail_chunks_retry_on_survivors() {
        let r = [CaptureRail::new(), CaptureRail::new()];
        r[1].broken.store(true, Ordering::Relaxed);
        let striped = StripedObject::new(rails(&r)).with_min_chunk(512);
        let rsr = bulk_rsr(64 * 1024);
        let frame = WireFrame::new();
        striped_send(&striped, &rsr, &frame).unwrap();
        // Every chunk landed on rail 0; the transfer still reassembles.
        let asm = StripeAssembler::new();
        let mut done = None;
        for (_, payload) in r[0].sent.lock().iter() {
            if let Some(t) = asm.ingest(payload.clone()).unwrap() {
                done = Some(t);
            }
        }
        let body = asm
            .assemble_body(done.expect("completes over one rail"))
            .unwrap();
        assert_eq!(&body[..], &frame.body(&rsr)[..]);
    }

    #[test]
    fn all_rails_dead_propagates_error() {
        let r = [CaptureRail::new(), CaptureRail::new()];
        r[0].broken.store(true, Ordering::Relaxed);
        r[1].broken.store(true, Ordering::Relaxed);
        let striped = StripedObject::new(rails(&r)).with_min_chunk(512);
        let rsr = bulk_rsr(64 * 1024);
        let frame = WireFrame::new();
        assert!(striped_send(&striped, &rsr, &frame).is_err());
    }

    #[test]
    fn multi_mib_shares_split_into_pool_friendly_segments() {
        let r = [CaptureRail::new(), CaptureRail::new()];
        let striped = StripedObject::new(rails(&r));
        let rsr = bulk_rsr(4 * 1024 * 1024);
        let frame = WireFrame::new();
        striped_send(&striped, &rsr, &frame).unwrap();
        let asm = StripeAssembler::new();
        let mut done = None;
        let mut chunks = 0usize;
        for rail in &r {
            for (_, payload) in rail.sent.lock().iter() {
                chunks += 1;
                assert!(
                    payload.len() <= META_LEN + MAX_CHUNK_PAYLOAD,
                    "chunk combine of {} bytes outgrows the pool cap",
                    payload.len()
                );
                if let Some(t) = asm.ingest(payload.clone()).unwrap() {
                    done = Some(t);
                }
            }
        }
        assert!(
            chunks >= 8,
            "4 MiB over 2 rails must split into >= 8 segments, got {chunks}"
        );
        let body = asm
            .assemble_body(done.expect("transfer completes"))
            .unwrap();
        assert_eq!(&body[..], &frame.body(&rsr)[..]);
    }

    #[test]
    fn oversized_bodies_grow_segments_to_fit_the_chunk_bitmap() {
        let r = [CaptureRail::new(), CaptureRail::new()];
        let striped = StripedObject::new(rails(&r));
        // 40 MiB would need 80 segments at MAX_CHUNK_PAYLOAD; the cap
        // must grow so the total stays within the u64 receipt bitmap.
        let rsr = bulk_rsr(40 * 1024 * 1024);
        let frame = WireFrame::new();
        striped_send(&striped, &rsr, &frame).unwrap();
        let asm = StripeAssembler::new();
        let mut done = None;
        let mut chunks = 0usize;
        for rail in &r {
            for (_, payload) in rail.sent.lock().iter() {
                chunks += 1;
                if let Some(t) = asm.ingest(payload.clone()).unwrap() {
                    done = Some(t);
                }
            }
        }
        assert!(chunks <= MAX_CHUNKS, "{chunks} chunks overflow the bitmap");
        let body = asm
            .assemble_body(done.expect("transfer completes"))
            .unwrap();
        assert_eq!(&body[..], &frame.body(&rsr)[..]);
    }

    #[test]
    fn weight_overrides_skew_the_split() {
        let r = [CaptureRail::new(), CaptureRail::new()];
        let mut rls = rails(&r);
        rls[0].weight = Some(3.0);
        rls[1].weight = Some(1.0);
        let striped = StripedObject::new(rls).with_min_chunk(512);
        let rsr = bulk_rsr(64 * 1024);
        let frame = WireFrame::new();
        striped_send(&striped, &rsr, &frame).unwrap();
        let bytes_on = |rail: &CaptureRail| {
            rail.sent
                .lock()
                .iter()
                .map(|(_, p)| p.len() - META_LEN)
                .sum::<usize>()
        };
        let (b0, b1) = (bytes_on(&r[0]), bytes_on(&r[1]));
        assert!(
            b0 > 2 * b1,
            "3:1 weights should skew the split: {b0} vs {b1}"
        );
    }

    #[test]
    fn stripe_set_param_validates() {
        let striped = StripedObject::new(rails(&[CaptureRail::new()]));
        striped.set_param("cutoff", "128").unwrap();
        striped.set_param("min_chunk", "256").unwrap();
        assert!(striped.set_param("cutoff", "junk").is_err());
        assert!(striped.set_param("bogus", "1").is_err());
    }

    #[test]
    fn send_parts_fallback_matches_concatenation() {
        let rail = CaptureRail::new();
        let tail = Bytes::from(vec![9u8; 32]);
        let rsr = Rsr::new(ContextId(1), EndpointId(2), "#stripe", tail.clone());
        send_parts_fallback(&*rail, &rsr, b"HEAD").unwrap();
        let sent = rail.sent.lock();
        assert_eq!(sent.len(), 1);
        assert_eq!(&sent[0].1[..4], b"HEAD");
        assert_eq!(&sent[0].1[4..], &tail[..]);
    }
}
