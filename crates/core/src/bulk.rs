//! Mercury-style eager/rendezvous bulk-data protocol, and the context's
//! bulk engine.
//!
//! Every RSR below a link's rendezvous cutoff ships its payload inline —
//! the untouched eager path. Above the cutoff, [`Context::rsr_bulk`]
//! registers the payload in a [`BulkRegistry`] and sends a small eager
//! RSR carrying a [`BulkHandle`] instead of the body; the receiver pulls
//! the region on demand with a `#bulk-get` request serviced by the pull
//! engine (`Context::bulk_pull_service`):
//!
//! * over an in-process queue method (local, shmem, MPL — anything whose
//!   [`crate::module::CommObject::supports_region_map`] is true), the
//!   origin answers with the registered [`Bytes`] region itself: the
//!   receiver borrows the sender's storage in place, zero copies
//!   end-to-end;
//! * over a wire method (TCP, RUDP), the origin streams the region as
//!   pipelined [`crate::stripe::MAX_CHUNK_PAYLOAD`]-sized chunks reusing
//!   the stripe chunk framing and assembler bitmap — across *all* rails
//!   of a striped link, so a pulled region rides the same aggregated
//!   bandwidth a striped inline body would.
//!
//! Regions have refcounted lifetime (a region auto-releases once every
//! expected pull has completed), support cancellation
//! ([`Context::bulk_cancel`]), and expire with the context's transfer
//! deadline ([`Context::set_transfer_deadline`]); expiry on either side
//! is surfaced as a trace event ([`TraceEventKind::BulkTimeout`]) by the
//! progress loop's sweep rather than a hang.
//!
//! Everything the engine keeps per context — exposed regions, pending
//! pulls, the chunk assembler, cached pull routes — is one `BulkState`
//! extension, created on first use.
//!
//! # Wire formats
//!
//! All four reserved handlers are intercepted by `Context::dispatch`
//! before endpoint lookup (like stripe chunks), so the RSR `endpoint`
//! field is free to carry protocol state:
//!
//! ```text
//! #bulk      dest=receiver  endpoint=target endpoint   payload = BulkHandle ++ handler name
//! #bulk-get  dest=origin    endpoint=region id         payload = receiver ContextId (u32)
//! #bulk-dat  dest=receiver  endpoint=region id         payload = the region (zero-copy view)
//! #bulk-chk  dest=receiver  endpoint=region id         payload = StripeMeta ++ data slice
//! ```
//!
//! An empty `#bulk-dat` (or any length mismatch) is a denial: the pull
//! was cancelled, expired, or unknown at the origin.

use crate::buffer::Buffer;
use crate::context::{Context, ContextId};
use crate::descriptor::MethodId;
use crate::endpoint::EndpointId;
use crate::error::{NexusError, Result};
use crate::module::CommObject;
use crate::pool;
use crate::rsr::{HandlerName, Rsr, WireFrame, DEFAULT_TTL};
use crate::selection;
use crate::startpoint::Startpoint;
use crate::stripe::{self, StripeAssembler, StripeRail};
use crate::trace::{Trace, TraceEventKind};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Reserved handler: the eager announce carrying a [`BulkHandle`].
pub const BULK_HANDLER: &str = "#bulk";

/// Reserved handler: a receiver's pull request for a region.
pub const BULK_GET_HANDLER: &str = "#bulk-get";

/// Reserved handler: a whole-region pull response (in-process map path).
pub const BULK_DAT_HANDLER: &str = "#bulk-dat";

/// Reserved handler: one chunk of a streamed pull response (wire path).
pub const BULK_CHK_HANDLER: &str = "#bulk-chk";

/// Encoded size of a [`BulkHandle`] (well under the 32 B budget).
pub const HANDLE_LEN: usize = 8 + 8 + 4 + 4;

fn interned(cell: &'static OnceLock<HandlerName>, name: &str) -> HandlerName {
    cell.get_or_init(|| HandlerName::intern(name)).clone()
}

/// The interned [`BULK_HANDLER`] (cached: cloning is a refcount bump).
pub fn bulk_handler() -> HandlerName {
    static H: OnceLock<HandlerName> = OnceLock::new();
    interned(&H, BULK_HANDLER)
}

/// The interned [`BULK_GET_HANDLER`].
pub fn bulk_get_handler() -> HandlerName {
    static H: OnceLock<HandlerName> = OnceLock::new();
    interned(&H, BULK_GET_HANDLER)
}

/// The interned [`BULK_DAT_HANDLER`].
pub fn bulk_dat_handler() -> HandlerName {
    static H: OnceLock<HandlerName> = OnceLock::new();
    interned(&H, BULK_DAT_HANDLER)
}

/// The interned [`BULK_CHK_HANDLER`].
pub fn bulk_chk_handler() -> HandlerName {
    static H: OnceLock<HandlerName> = OnceLock::new();
    interned(&H, BULK_CHK_HANDLER)
}

// ---------------------------------------------------------------------------
// BulkHandle
// ---------------------------------------------------------------------------

/// The on-the-wire stand-in for a payload that crossed the rendezvous
/// cutoff: everything a receiver needs to pull the region from its
/// origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkHandle {
    /// Registry id of the region at the origin.
    pub region: u64,
    /// Region length in bytes.
    pub len: u64,
    /// The context exposing the region (where `#bulk-get` goes).
    pub origin: ContextId,
    /// Advisory method hints (reserved; the origin decides map-vs-stream
    /// from its own connection to the receiver, so 0 today).
    pub hints: u32,
}

impl BulkHandle {
    /// Serializes the handle onto the stack.
    pub fn to_bytes(self) -> [u8; HANDLE_LEN] {
        let mut b = [0u8; HANDLE_LEN];
        b[0..8].copy_from_slice(&self.region.to_le_bytes());
        b[8..16].copy_from_slice(&self.len.to_le_bytes());
        b[16..20].copy_from_slice(&self.origin.0.to_le_bytes());
        b[20..24].copy_from_slice(&self.hints.to_le_bytes());
        b
    }

    /// Parses a handle from the front of an announce payload.
    pub fn parse(payload: &[u8]) -> Result<BulkHandle> {
        if payload.len() < HANDLE_LEN {
            return Err(NexusError::Decode("bulk announce shorter than its handle"));
        }
        Ok(BulkHandle {
            region: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
            len: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
            origin: ContextId(u32::from_le_bytes(payload[16..20].try_into().unwrap())),
            hints: u32::from_le_bytes(payload[20..24].try_into().unwrap()),
        })
    }
}

/// Splits an announce payload into its handle and the inner handler name.
/// Rejects empty and reserved (`'#'`-prefixed) handler names — permitting
/// the latter would let a reassembled pull re-enter the runtime dispatch.
pub fn parse_announce(payload: &[u8]) -> Result<(BulkHandle, &str)> {
    let handle = BulkHandle::parse(payload)?;
    let name = std::str::from_utf8(&payload[HANDLE_LEN..])
        .map_err(|_| NexusError::Decode("bulk announce handler is not UTF-8"))?;
    if name.is_empty() {
        return Err(NexusError::Decode("bulk announce has no handler name"));
    }
    if name.as_bytes()[0] == b'#' {
        return Err(NexusError::Decode("bulk announce nests a reserved handler"));
    }
    Ok((handle, name))
}

/// Process-unique region ids: pid in the high bits over a process
/// counter, like stripe transfer ids but in an independent namespace (a
/// region id doubles as the `#bulk-chk` transfer id on a *dedicated*
/// assembler, so the two spaces never meet).
fn next_region_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    ((std::process::id() as u64) << 40) ^ NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// BulkRegistry
// ---------------------------------------------------------------------------

/// One exposed region awaiting pulls.
struct Region {
    data: Bytes,
    /// Pulls this region still owes before it auto-releases.
    remaining: u32,
    /// Pulls currently being served (a [`PullGuard`] is alive).
    active: u32,
    /// Expiry; `None` means the region lives until released.
    deadline: Option<Instant>,
}

#[derive(Default)]
struct RegistryState {
    regions: HashMap<u64, Region>,
}

/// Registered [`Bytes`] regions exposed for pull, with refcounted
/// lifetime: a region is released when every expected pull has completed,
/// when its owner cancels it, or when its deadline expires — whichever
/// comes first. In-flight [`PullGuard`]s hold their own view of the
/// storage, so release is always safe mid-pull.
#[derive(Default)]
pub struct BulkRegistry {
    inner: Arc<Mutex<RegistryState>>,
}

impl BulkRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exposes `data` for `expected_pulls` pulls, optionally until
    /// `deadline`. Returns the region id to embed in a [`BulkHandle`].
    pub fn register(&self, data: Bytes, expected_pulls: u32, deadline: Option<Instant>) -> u64 {
        let region = next_region_id();
        self.inner.lock().regions.insert(
            region,
            Region {
                data,
                remaining: expected_pulls.max(1),
                active: 0,
                deadline,
            },
        );
        region
    }

    /// Begins serving one pull of `region`: returns a guard holding the
    /// region data, or `None` when the region is unknown, already fully
    /// pulled, cancelled, or past its deadline (an expired region is
    /// released on the spot — the sweep needn't have run first).
    pub fn begin_pull(&self, region: u64) -> Option<PullGuard> {
        let mut state = self.inner.lock();
        let r = state.regions.get_mut(&region)?;
        if r.deadline.is_some_and(|d| Instant::now() >= d) {
            state.regions.remove(&region);
            return None;
        }
        if r.remaining == 0 {
            return None;
        }
        r.remaining -= 1;
        r.active += 1;
        let data = r.data.clone();
        Some(PullGuard {
            inner: Arc::clone(&self.inner),
            region,
            data,
        })
    }

    /// Releases `region` immediately (owner cancellation or early free).
    /// Idempotent: returns whether the region was still registered.
    /// In-flight pulls keep their own data view and complete normally.
    pub fn release(&self, region: u64) -> bool {
        self.inner.lock().regions.remove(&region).is_some()
    }

    /// Releases every region whose deadline has passed, returning their
    /// ids so the caller can surface trace events.
    pub fn sweep(&self, now: Instant) -> Vec<u64> {
        let mut state = self.inner.lock();
        let expired: Vec<u64> = state
            .regions
            .iter()
            .filter(|(_, r)| r.deadline.is_some_and(|d| now >= d))
            .map(|(&id, _)| id)
            .collect();
        for id in &expired {
            state.regions.remove(id);
        }
        expired
    }

    /// Regions currently registered.
    pub fn len(&self) -> usize {
        self.inner.lock().regions.len()
    }

    /// True when no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Keeps one pull of a region alive: holds a zero-copy view of the data
/// and, on drop, retires the pull — releasing the region once it owes no
/// further pulls and none are in flight.
pub struct PullGuard {
    inner: Arc<Mutex<RegistryState>>,
    region: u64,
    data: Bytes,
}

impl PullGuard {
    /// The region data (a refcounted view of the registered storage).
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// The region id this guard is serving.
    pub fn region(&self) -> u64 {
        self.region
    }
}

impl Drop for PullGuard {
    fn drop(&mut self) {
        let mut state = self.inner.lock();
        // The region may already be gone (cancelled or expired mid-pull);
        // the guard's own data view kept the transfer safe regardless.
        if let Some(r) = state.regions.get_mut(&self.region) {
            r.active -= 1;
            if r.remaining == 0 && r.active == 0 {
                state.regions.remove(&self.region);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The context's bulk engine
// ---------------------------------------------------------------------------

/// One cached pull route to a peer context.
struct BulkRoute {
    /// The fastest applicable communication object.
    best: Arc<dyn CommObject>,
    /// Whether `best` maps regions in-process (whole-region zero-copy
    /// responses); when false, responses stream as chunks over `rails`.
    map: bool,
    /// One rail per applicable method, fastest first (empty when `map`).
    rails: Vec<StripeRail>,
}

/// A pull this context has requested but not yet completed: everything
/// needed to re-dispatch the region under the application handler the
/// announce named, plus the deadline after which the sweep gives up.
struct PendingPull {
    handler: HandlerName,
    endpoint: EndpointId,
    ttl: u8,
    len: u64,
    deadline: Instant,
}

/// Per-context bulk state, attached lazily via [`Context::extension`]:
/// the exposed-region registry, pulls awaiting responses, a dedicated
/// assembler for `#bulk-chk` chunks (region ids and stripe transfer ids
/// are independent namespaces — separate assemblers mean they can never
/// collide), and cached pull routes.
#[derive(Default)]
pub(crate) struct BulkState {
    registry: BulkRegistry,
    pulls: Mutex<HashMap<u64, PendingPull>>,
    chunks: StripeAssembler,
    routes: Mutex<HashMap<ContextId, Arc<BulkRoute>>>,
}

impl BulkState {
    /// The bulk half of the deadline sweep: releases regions and drops
    /// pending pulls past their deadline, and evicts chunk transfers idle
    /// for `deadline`, each as a `BulkTimeout` event.
    pub(crate) fn sweep(&self, trace: &Trace, deadline: Duration) {
        let now = Instant::now();
        let mut expired = self.registry.sweep(now);
        // Collected under the lock, recorded after releasing it (the trace
        // takes its own lock).
        self.pulls.lock().retain(|&region, p| {
            let live = now < p.deadline;
            if !live {
                expired.push(region);
            }
            live
        });
        expired.extend(self.chunks.sweep_idle(deadline));
        for region in expired {
            trace.record_event(TraceEventKind::BulkTimeout { region });
        }
    }
}

impl Context {
    /// Issues a remote service request with the Mercury-style
    /// eager/rendezvous split: links whose
    /// [`crate::startpoint::Link::rendezvous_cutoff`] the payload does not
    /// exceed get the ordinary inline RSR (byte-identical to
    /// [`Context::rsr`]), while links it does exceed get a small `#bulk`
    /// announce carrying a [`BulkHandle`] — the payload is registered in
    /// this context's [`BulkRegistry`] and the receiver pulls it on demand
    /// (in-place borrow over in-process methods, pipelined chunks over
    /// wire methods). With no cutoffs configured
    /// ([`Context::set_rendezvous`]) every link is eager and this is
    /// exactly `rsr`.
    pub fn rsr_bulk(&self, sp: &Startpoint, handler: &str, payload: Buffer) -> Result<()> {
        self.check_request(sp, handler)?;
        let bytes = payload.into_bytes();
        let len = bytes.len();
        let links = sp.links();
        let pulls = links.iter().filter(|l| len > l.rendezvous_cutoff()).count();
        if pulls == 0 {
            return self.rsr(sp, handler, Buffer::from_bytes(bytes));
        }
        // Register once for however many links will pull, and build one
        // announce shared by all of them (dest fields vary per link).
        let bs = self.bulk_state();
        let region = bs.registry.register(
            bytes.clone(),
            pulls as u32,
            Some(Instant::now() + self.transfer_deadline()),
        );
        self.trace().record_event(TraceEventKind::BulkExpose {
            region,
            bytes: len as u64,
        });
        let handle = BulkHandle {
            region,
            len: len as u64,
            origin: self.id(),
            hints: 0,
        };
        let mut abuf = pool::take(HANDLE_LEN + handler.len());
        abuf.extend_from_slice(&handle.to_bytes());
        abuf.extend_from_slice(handler.as_bytes());
        let mut announce = Rsr {
            dest: ContextId(0),
            endpoint: EndpointId(0),
            handler: bulk_handler(),
            ttl: DEFAULT_TTL,
            payload: abuf.freeze(),
        };
        let aframe = WireFrame::new();
        let mut msg = Rsr::new(ContextId(0), EndpointId(0), handler, bytes);
        let frame = WireFrame::new();
        let mut out = Ok(());
        for link in links {
            let (m, f) = if len > link.rendezvous_cutoff() {
                (&mut announce, &aframe)
            } else {
                (&mut msg, &frame)
            };
            m.dest = link.target.context;
            m.endpoint = link.target.endpoint;
            out = self.send_with_failover(link, m, f);
            if out.is_err() {
                break;
            }
        }
        frame.reclaim();
        aframe.reclaim();
        pool::reclaim(announce.payload);
        out
    }

    /// Sets the eager/rendezvous cutoff on every link of `sp`: payloads
    /// strictly larger than `cutoff` bytes are sent by
    /// [`Context::rsr_bulk`] as a pull handle instead of an inline body.
    /// `usize::MAX` restores the all-eager default.
    pub fn set_rendezvous(&self, sp: &Startpoint, cutoff: usize) {
        for link in sp.links() {
            link.rendezvous_cutoff.store(cutoff, Ordering::Relaxed);
        }
    }

    /// Cancels an exposed bulk region before its pulls complete. Pending
    /// pulls at other contexts are denied on request (or expire on their
    /// own deadline). Returns whether the region was still registered.
    pub fn bulk_cancel(&self, region: u64) -> bool {
        let released = self.bulk_state().registry.release(region);
        if released {
            self.trace()
                .record_event(TraceEventKind::BulkAbort { region });
        }
        released
    }

    /// Enquiry: regions this context currently exposes for pull.
    pub fn bulk_regions(&self) -> usize {
        self.bulk_state().registry.len()
    }

    /// Enquiry: pulls this context has requested but not yet completed.
    pub fn bulk_pulls_pending(&self) -> usize {
        self.bulk_state().pulls.lock().len()
    }

    /// Per-context bulk plumbing, created lazily on first use.
    fn bulk_state(&self) -> Arc<BulkState> {
        self.extension(BulkState::default)
    }

    /// Consumes one `#bulk` announce: files a pending pull and requests
    /// the region from its origin.
    pub(crate) fn bulk_announce(&self, msg: Rsr) -> Result<()> {
        let bs = self.bulk_state();
        let (handle, name) = parse_announce(&msg.payload)?;
        // Intern before reclaiming the payload `name` borrows; alloc-free
        // when the handler name repeats.
        let pending = PendingPull {
            handler: HandlerName::intern(name),
            endpoint: msg.endpoint,
            ttl: msg.ttl,
            len: handle.len,
            deadline: Instant::now() + self.transfer_deadline(),
        };
        bs.pulls.lock().insert(handle.region, pending);
        pool::reclaim(msg.payload);
        // A 4-byte request carrying this context's id, so the origin
        // knows which connection to serve over.
        let mut rbuf = pool::take(4);
        rbuf.extend_from_slice(&self.id().0.to_le_bytes());
        let req = Rsr {
            dest: handle.origin,
            endpoint: EndpointId(handle.region),
            handler: bulk_get_handler(),
            ttl: DEFAULT_TTL,
            payload: rbuf.freeze(),
        };
        let out = self.bulk_send_direct(&bs, handle.origin, &req);
        pool::reclaim(req.payload);
        out
    }

    /// Consumes one `#bulk-dat`: a whole-region response (or a denial).
    pub(crate) fn bulk_data(&self, arrival: MethodId, msg: Rsr) -> Result<()> {
        let bs = self.bulk_state();
        self.complete_pull(&bs, arrival, msg.dest, msg.endpoint.0, msg.payload)
    }

    /// Consumes one `#bulk-chk` chunk; the last one completes the pull
    /// with the reassembled region.
    pub(crate) fn bulk_chunk(&self, arrival: MethodId, msg: Rsr) -> Result<()> {
        let bs = self.bulk_state();
        let Some(done) = bs.chunks.ingest(msg.payload)? else {
            return Ok(());
        };
        let region = done.transfer_id;
        let body = bs.chunks.assemble_body(done)?;
        let out = self.complete_pull(&bs, arrival, msg.dest, region, body.clone());
        pool::reclaim(body);
        out
    }

    /// Completes the pending pull of `region` with `body`: re-dispatches it
    /// under the application handler the announce named, or records the
    /// abort when its length says the origin denied the pull. A response
    /// to a pull the sweep already timed out is dropped.
    fn complete_pull(
        &self,
        bs: &BulkState,
        arrival: MethodId,
        dest: ContextId,
        region: u64,
        body: Bytes,
    ) -> Result<()> {
        let Some(p) = bs.pulls.lock().remove(&region) else {
            return Ok(());
        };
        if body.len() as u64 != p.len {
            self.trace()
                .record_event(TraceEventKind::BulkAbort { region });
            return Ok(());
        }
        self.trace().record_event(TraceEventKind::BulkDone {
            region,
            bytes: p.len,
        });
        let rsr = Rsr {
            dest,
            endpoint: p.endpoint,
            handler: p.handler,
            ttl: p.ttl,
            payload: body,
        };
        self.dispatch(arrival, rsr)
    }

    /// The pull engine: services one `#bulk-get` request. Over a
    /// region-mapping method the response is the registered region
    /// itself (a zero-copy borrow of the origin's storage); over wire
    /// methods the region streams as pipelined chunks across every
    /// applicable rail, reusing the stripe chunk framing. A region that
    /// is unknown, cancelled, or expired is answered with an empty
    /// denial so the receiver aborts instead of waiting out its
    /// deadline.
    pub(crate) fn bulk_pull_service(&self, msg: Rsr) -> Result<()> {
        let bs = self.bulk_state();
        let region = msg.endpoint.0;
        if msg.payload.len() < 4 {
            return Err(NexusError::Decode("bulk pull request missing receiver id"));
        }
        let receiver = ContextId(u32::from_le_bytes(
            msg.payload[..4].try_into().expect("length checked"),
        ));
        pool::reclaim(msg.payload);
        let route = self.bulk_route(&bs, receiver)?;
        let Some(guard) = bs.registry.begin_pull(region) else {
            self.trace()
                .record_event(TraceEventKind::BulkAbort { region });
            let deny = Rsr {
                dest: receiver,
                endpoint: EndpointId(region),
                handler: bulk_dat_handler(),
                ttl: DEFAULT_TTL,
                payload: Bytes::new(),
            };
            return self.bulk_send_direct(&bs, receiver, &deny);
        };
        let data = guard.data().clone();
        if route.map {
            self.trace().record_event(TraceEventKind::BulkServe {
                region,
                chunked: false,
            });
            let resp = Rsr {
                dest: receiver,
                endpoint: EndpointId(region),
                handler: bulk_dat_handler(),
                ttl: DEFAULT_TTL,
                payload: data,
            };
            return self.bulk_send_direct(&bs, receiver, &resp);
        }
        self.trace().record_event(TraceEventKind::BulkServe {
            region,
            chunked: true,
        });
        let n = route.rails.len();
        let mut rates = [f64::NAN; stripe::MAX_RAILS];
        for (i, rail) in route.rails.iter().enumerate() {
            rates[i] = rail.rate();
        }
        let mut shares = [0usize; stripe::MAX_RAILS];
        stripe::weighted_shares(
            data.len(),
            &rates[..n],
            stripe::DEFAULT_MIN_CHUNK,
            &mut shares[..n],
        );
        // Same floor as striped_send: keeps the chunk count within the
        // assembler's receipt bitmap.
        let seg_cap = stripe::MAX_CHUNK_PAYLOAD.max(data.len().div_ceil(stripe::MAX_CHUNKS - n));
        let chunk = Rsr {
            dest: receiver,
            endpoint: EndpointId(region),
            handler: bulk_chk_handler(),
            ttl: DEFAULT_TTL,
            payload: Bytes::new(),
        };
        let sent = stripe::send_chunks(
            &route.rails[..n],
            chunk,
            region,
            &data,
            &shares[..n],
            seg_cap,
        );
        if sent.is_err() {
            // Every rail failed: drop the cached route so the next pull
            // reconnects from scratch.
            bs.routes.lock().remove(&receiver);
        }
        sent
    }

    /// Returns the (possibly cached) pull route to `target`: the fastest
    /// applicable communication object, whether it maps regions
    /// in-process, and — when it does not — one rail per applicable
    /// method for streaming chunks.
    fn bulk_route(&self, bs: &BulkState, target: ContextId) -> Result<Arc<BulkRoute>> {
        if let Some(r) = bs.routes.lock().get(&target) {
            return Ok(Arc::clone(r));
        }
        let table = self.lookup_descriptor_table(target)?;
        let reg = self.registry()?;
        let methods = selection::applicable_methods(&self.info(), &table, &reg);
        let Some(&first) = methods.first() else {
            return Err(NexusError::NoApplicableMethod { target });
        };
        let best = self.connect_cached(target, first, &table)?;
        let map = best.supports_region_map();
        let rails = if map {
            Vec::new()
        } else {
            self.rails_to(target, methods, &table)?
        };
        let route = Arc::new(BulkRoute { best, map, rails });
        bs.routes.lock().insert(target, Arc::clone(&route));
        Ok(route)
    }

    /// Sends one protocol RSR over the cached best route to `target`,
    /// evicting the route on error so the next exchange reconnects.
    fn bulk_send_direct(&self, bs: &BulkState, target: ContextId, msg: &Rsr) -> Result<()> {
        let route = self.bulk_route(bs, target)?;
        let frame = WireFrame::new();
        let sent = route.best.send(msg, &frame);
        frame.reclaim();
        if sent.is_err() {
            bs.routes.lock().remove(&target);
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn handle_roundtrip() {
        let h = BulkHandle {
            region: 0xFEED_F00D_0000_0042,
            len: 4 << 20,
            origin: ContextId(7),
            hints: 0,
        };
        assert_eq!(BulkHandle::parse(&h.to_bytes()).unwrap(), h);
        assert!(BulkHandle::parse(&h.to_bytes()[..HANDLE_LEN - 1]).is_err());
        const { assert!(HANDLE_LEN <= 32, "handle must fit the 32 B wire budget") };
    }

    #[test]
    fn announce_roundtrip_and_validation() {
        let h = BulkHandle {
            region: 9,
            len: 100,
            origin: ContextId(1),
            hints: 0,
        };
        let mut v = h.to_bytes().to_vec();
        v.extend_from_slice(b"work");
        let (parsed, name) = parse_announce(&v).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(name, "work");
        // No handler name.
        assert!(parse_announce(&h.to_bytes()).is_err());
        // Reserved handler nesting.
        let mut bad = h.to_bytes().to_vec();
        bad.extend_from_slice(b"#stripe");
        assert!(parse_announce(&bad).is_err());
        // Non-UTF-8 handler name.
        let mut bin = h.to_bytes().to_vec();
        bin.extend_from_slice(&[0xFF, 0xFE]);
        assert!(parse_announce(&bin).is_err());
    }

    #[test]
    fn region_auto_releases_after_expected_pulls() {
        let reg = BulkRegistry::new();
        let body = Bytes::from(vec![3u8; 64]);
        let id = reg.register(body.clone(), 2, None);
        assert_eq!(reg.len(), 1);
        let g1 = reg.begin_pull(id).unwrap();
        assert_eq!(&g1.data()[..], &body[..]);
        drop(g1);
        assert_eq!(reg.len(), 1, "one pull still owed");
        let g2 = reg.begin_pull(id).unwrap();
        drop(g2);
        assert_eq!(reg.len(), 0, "all expected pulls served");
        assert!(reg.begin_pull(id).is_none());
    }

    #[test]
    fn concurrent_pulls_hold_the_region_until_both_finish() {
        let reg = BulkRegistry::new();
        let id = reg.register(Bytes::from_static(b"shared"), 2, None);
        let g1 = reg.begin_pull(id).unwrap();
        let g2 = reg.begin_pull(id).unwrap();
        assert!(reg.begin_pull(id).is_none(), "no pulls left to grant");
        drop(g1);
        assert_eq!(reg.len(), 1, "a pull is still in flight");
        drop(g2);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn cancel_mid_pull_is_safe_and_double_release_is_idempotent() {
        let reg = BulkRegistry::new();
        let id = reg.register(Bytes::from_static(b"doomed"), 4, None);
        let g = reg.begin_pull(id).unwrap();
        assert!(reg.release(id));
        assert!(!reg.release(id), "second release is a no-op");
        assert_eq!(reg.len(), 0);
        // The in-flight guard still owns its data and drops cleanly.
        assert_eq!(&g.data()[..], b"doomed");
        drop(g);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn deadline_expiry_denies_and_sweeps() {
        let reg = BulkRegistry::new();
        let past = Instant::now() - Duration::from_millis(1);
        let a = reg.register(Bytes::from_static(b"a"), 1, Some(past));
        let b = reg.register(Bytes::from_static(b"b"), 1, Some(past));
        let live = reg.register(Bytes::from_static(b"c"), 1, None);
        // Lazy expiry at pull time.
        assert!(reg.begin_pull(a).is_none());
        // Sweep releases the rest of the expired set, sparing live regions.
        let mut swept = reg.sweep(Instant::now());
        swept.sort_unstable();
        assert_eq!(swept, vec![b]);
        assert_eq!(reg.len(), 1);
        assert!(reg.begin_pull(live).is_some());
    }
}
