//! The per-method record: enquiry counters and low-overhead observability.
//!
//! The paper's enquiry functions (§2.1) let programmers *evaluate the
//! effectiveness of method selection* and tune manual selections. This
//! module is the one instrument the send and receive paths record into
//! and the one place those enquiries read:
//!
//! * [`LogHistogram`] — lock-free, log-bucketed (power-of-two buckets,
//!   HDR-style) histograms of sampled send latency and of every message's
//!   size, kept per `(link, method)` so p50/p99 can be compared across
//!   methods.
//! * [`Ewma`] — an atomically updated exponentially weighted moving
//!   average. The runtime maintains one per method for the *measured* cost
//!   of a probe in the unified polling function, giving a live counterpart
//!   to the §3.3 probe-cost constants (mpc_status ≈ 15 µs, `select()`
//!   > 100 µs), and one per `(link, method)` for transport send cost.
//! * [`MethodTrace`] / [`LinkMethodTrace`] — what one method's receive
//!   source and one link's selection record into, through a handle each
//!   caches, and [`MethodSnapshot`] — the plain-integer enquiry view of a
//!   method ([`Trace::snapshot_method`]). Message and byte totals are not
//!   stored twice: they are the `count()`/`sum()` of the size histograms.
//! * [`Trace`] — the per-context registry of the above plus a
//!   fixed-capacity event ring ([`TraceEvent`]) of what is rare: method
//!   selections and switches, failovers, skip_poll changes, poll errors,
//!   and bulk, stripe and gather outcomes, with a plain-text exporter
//!   ([`Trace::render`]). Traffic never enters the ring — it is counted
//!   by the size histograms and counters — so no amount of it evicts an
//!   event.
//!
//! Recording on the message path touches only atomics (histograms, EWMAs,
//! counters); only the rare events above take the ring's short mutex.
//!
//! # Memory model
//!
//! Every atomic in this module is updated and read with `Relaxed`
//! ordering, uniformly. That is sufficient — and anything stronger would
//! buy nothing — because:
//!
//! * every value is a *monotone accumulator* (event counts, bucket
//!   counts, sums, sample counts, sequence numbers) read for reporting;
//!   no thread reads one to decide whether *other, non-atomic* memory is
//!   safe to touch, so there is no acquire/release publication edge to
//!   establish;
//! * each counter is individually exact (`fetch_add` is atomic at every
//!   ordering), so totals are never lost, only observed slightly late —
//!   except a link's sampling tick, which only picks the sends to time;
//! * snapshots taken while senders are active are *per-counter* exact but
//!   only *cross-counter* approximate (e.g. `sends` may already include a
//!   send whose `send_bytes` increment is still in flight, or a bucket may
//!   be incremented before the matching `total`). Enquiry readers tolerate
//!   that; tests that need exact cross-counter totals join the worker
//!   threads first, and the join itself provides the happens-before edge
//!   that makes every prior `Relaxed` write visible.
//!
//! The `xtask lint` atomic-pairing rule machine-checks the uniformity (a
//! lone Release store or Acquire load here would be a smell), and per-field
//! monotonicity is exactly what the `xtask model` checks
//! (histogram-monotone, ring-seq-order, ewma-first-sample) pin down. The
//! event ring's cross-field invariant — seq order matching insertion
//! order — is protected by its mutex, not by atomic ordering.

use crate::context::ContextId;
use crate::descriptor::MethodId;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of histogram buckets: one for zero, one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free histogram with power-of-two bucket boundaries.
///
/// Bucket 0 holds exactly the value 0; bucket `i` (1 ≤ i ≤ 64) holds
/// values in `[2^(i-1), 2^i - 1]`. Quantiles are reported as the upper
/// bound of the bucket containing the requested rank, so they never
/// under-report — the right bias for latency monitoring.
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values (wrapping; used for the mean).
    total: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            total: AtomicU64::new(0),
        }
    }

    /// The bucket index a value lands in.
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive `[low, high]` range of values in bucket `index`.
    pub fn bucket_range(index: usize) -> (u64, u64) {
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean of recorded values, if any.
    pub fn mean(&self) -> Option<f64> {
        match self.count() {
            0 => None,
            n => Some(self.sum() as f64 / n as f64),
        }
    }

    /// Adds `other`'s counts into `self` (e.g. aggregating across links).
    pub fn merge(&self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.total
            .fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), reported as the
    /// upper bound of its bucket. `None` if the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_range(i).1);
            }
        }
        unreachable!("rank is bounded by the total count");
    }

    /// Median (upper bucket bound).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile (upper bucket bound).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// A plain-integer summary of the distribution.
    pub fn summary(&self) -> Option<HistogramSummary> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        Some(HistogramSummary {
            count,
            p50: self.quantile(0.50).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
            mean: self.sum() as f64 / count as f64,
        })
    }
}

impl fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

/// Snapshot of a [`LogHistogram`]'s shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Values recorded.
    pub count: u64,
    /// Median, as the upper bound of its bucket.
    pub p50: u64,
    /// 99th percentile, as the upper bound of its bucket.
    pub p99: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
}

/// Default smoothing factor for runtime-maintained EWMAs.
pub const DEFAULT_EWMA_ALPHA: f64 = 0.1;

/// An exponentially weighted moving average updated with atomics only.
///
/// The current value is stored as `f64` bits in an `AtomicU64` and updated
/// with a CAS loop. An unused quiet-NaN bit pattern marks "no samples
/// yet", so the first sample initializes the average inside the same CAS
/// loop as every other update — a separate samples==0 fast path would
/// race: two first samples could both see zero, and one would fold into
/// an average that was never initialized (found by `xtask model`, check
/// ewma-first-sample).
pub struct Ewma {
    bits: AtomicU64,
    samples: AtomicU64,
    alpha: f64,
}

/// Sentinel bit pattern for "uninitialized": a quiet NaN that `record`
/// can never store (NaN samples are rejected, and no finite fold yields
/// this exact payload).
const EWMA_UNINIT: u64 = 0x7FF8_DEAD_BEEF_0000;

impl Default for Ewma {
    fn default() -> Self {
        Self::new(DEFAULT_EWMA_ALPHA)
    }
}

impl Ewma {
    /// Creates an empty EWMA with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma {
            bits: AtomicU64::new(EWMA_UNINIT),
            samples: AtomicU64::new(0),
            alpha,
        }
    }

    /// Folds one sample into the average. NaN samples are ignored — they
    /// would poison the average and could forge the uninitialized
    /// sentinel.
    pub fn record(&self, sample: f64) {
        if sample.is_nan() {
            return;
        }
        self.samples.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let new = if cur == EWMA_UNINIT {
                sample
            } else {
                self.alpha * sample + (1.0 - self.alpha) * f64::from_bits(cur)
            }
            .to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current average, or `None` before the first sample.
    ///
    /// Emptiness is judged from the value word itself, not the samples
    /// counter: a counter-based check could observe the increment of an
    /// in-flight `record` and return the uninitialized bit pattern.
    pub fn value(&self) -> Option<f64> {
        match self.bits.load(Ordering::Relaxed) {
            EWMA_UNINIT => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Number of samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Ewma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ewma")
            .field("value", &self.value())
            .field("samples", &self.samples())
            .finish()
    }
}

/// What happened, for one entry of the event ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A send failed and the link is abandoning the method.
    Failover {
        /// The link's destination context.
        target: ContextId,
        /// The method that failed.
        from: MethodId,
    },
    /// A link (re)selected its communication method. `from: None` marks
    /// the initial selection.
    MethodSwitch {
        /// The link's destination context.
        target: ContextId,
        /// Previously selected method, if any.
        from: Option<MethodId>,
        /// Newly selected method.
        to: MethodId,
    },
    /// A method's skip_poll value changed (manual set or adaptive
    /// controller).
    SkipPollChange {
        /// The affected method.
        method: MethodId,
        /// Previous skip value (0 when previously unset).
        from: u64,
        /// New skip value.
        to: u64,
    },
    /// A receive source returned a transport error.
    PollError {
        /// The affected method.
        method: MethodId,
        /// Consecutive errors at the time of recording.
        consecutive: u64,
    },
    /// A payload crossed the rendezvous cutoff and went out as a bulk
    /// handle instead of an inline body.
    BulkExpose {
        /// Registry id of the exposed region.
        region: u64,
        /// Region length in bytes.
        bytes: u64,
    },
    /// A `#bulk-get` pull request was serviced from the registry.
    BulkServe {
        /// Registry id of the pulled region.
        region: u64,
        /// True when the region was streamed as chunks; false for the
        /// in-process zero-copy handoff.
        chunked: bool,
    },
    /// A pulled region finished arriving and its RSR was dispatched.
    BulkDone {
        /// Registry id of the pulled region.
        region: u64,
        /// Region length in bytes.
        bytes: u64,
    },
    /// A bulk region or pending pull hit its deadline and was dropped.
    BulkTimeout {
        /// Registry id of the abandoned region.
        region: u64,
    },
    /// A bulk region was cancelled by its owner before all pulls finished.
    BulkAbort {
        /// Registry id of the cancelled region.
        region: u64,
    },
    /// A partially assembled striped transfer idled past the context's
    /// transfer deadline (sender died mid-stream) and its slots were
    /// reclaimed.
    StripeIdleEvict {
        /// Transfer id of the evicted assembly.
        transfer_id: u64,
    },
}

/// One entry of the event ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (counts all events ever recorded, including
    /// ones the ring has since dropped).
    pub seq: u64,
    /// Time since the trace was created.
    pub at: Duration,
    /// What happened.
    pub kind: TraceEventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[#{} +{:.6}s] ", self.seq, self.at.as_secs_f64())?;
        match self.kind {
            TraceEventKind::Failover { target, from } => {
                write!(f, "failover on link to {target}: abandoning {from}")
            }
            TraceEventKind::MethodSwitch { target, from, to } => match from {
                Some(m) => write!(f, "link to {target} switched {m} -> {to}"),
                None => write!(f, "link to {target} selected {to}"),
            },
            TraceEventKind::SkipPollChange { method, from, to } => {
                write!(f, "skip_poll({method}) {from} -> {to}")
            }
            TraceEventKind::PollError {
                method,
                consecutive,
            } => write!(f, "poll error on {method} ({consecutive} consecutive)"),
            TraceEventKind::BulkExpose { region, bytes } => {
                write!(f, "bulk expose region {region}, {bytes} B")
            }
            TraceEventKind::BulkServe { region, chunked } => {
                let how = if chunked { "chunked" } else { "mapped" };
                write!(f, "bulk serve region {region} ({how})")
            }
            TraceEventKind::BulkDone { region, bytes } => {
                write!(f, "bulk pull of region {region} complete, {bytes} B")
            }
            TraceEventKind::BulkTimeout { region } => {
                write!(f, "bulk region {region} timed out")
            }
            TraceEventKind::BulkAbort { region } => {
                write!(f, "bulk region {region} cancelled")
            }
            TraceEventKind::StripeIdleEvict { transfer_id } => {
                write!(f, "idle stripe transfer {transfer_id:#x} evicted")
            }
        }
    }
}

/// Default event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Fixed-capacity ring of recent [`TraceEvent`]s; old entries are dropped.
struct EventRing {
    capacity: usize,
    next_seq: AtomicU64,
    slots: Mutex<VecDeque<TraceEvent>>,
}

impl EventRing {
    fn new(capacity: usize) -> Self {
        EventRing {
            capacity: capacity.max(1),
            next_seq: AtomicU64::new(0),
            slots: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, at: Duration, kind: TraceEventKind) {
        let mut slots = self.slots.lock();
        // The seq must be drawn while holding the lock: claiming it first
        // lets a later claimant insert before an earlier one, breaking the
        // ring's seq order (found by `xtask model`, check ring-seq-order).
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if slots.len() == self.capacity {
            slots.pop_front();
        }
        slots.push_back(TraceEvent { seq, at, kind });
    }
}

/// One probe per receive source, and one send per `(link, method)` record
/// that nothing else asks to time, out of this many is wall-clock timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Per-`(link, method)` send-path measurements. `send_bytes` counts every
/// send; the cost fields summarise the timed ones: every send from a context
/// with re-selection on, else 1 in [`SAMPLE_EVERY`].
#[derive(Debug, Default)]
pub struct LinkMethodTrace {
    /// Time spent in the transport's `send`, in nanoseconds.
    pub send_latency_ns: LogHistogram,
    /// Encoded frame sizes sent, in bytes.
    pub send_bytes: LogHistogram,
    /// EWMA of send cost in nanoseconds.
    pub send_cost_ns: Ewma,
    /// Sends offered to [`LinkMethodTrace::sample`].
    tick: AtomicU64,
}

impl LinkMethodTrace {
    /// Whether to time this send: the record's first or a [`SAMPLE_EVERY`]-th.
    /// A load and a store: a tick lost to a racing sender only moves the sample.
    pub(crate) fn sample(&self) -> bool {
        let tick = self.tick.load(Ordering::Relaxed);
        self.tick.store(tick.wrapping_add(1), Ordering::Relaxed);
        tick.is_multiple_of(SAMPLE_EVERY)
    }
}

/// One method's record within one context: what its receive source
/// measures, plus the per-method event counts no histogram can derive.
/// The source (poll engine, shard worker, blocking thread) caches the
/// handle, so recording is lock-free.
#[derive(Debug, Default)]
pub struct MethodTrace {
    /// EWMA of the measured cost of one probe of this method's receiver in
    /// the unified polling function, in nanoseconds (the live counterpart
    /// of the paper's §3.3 probe-cost constants).
    pub poll_cost_ns: Ewma,
    /// Encoded frame sizes received, in bytes.
    pub recv_bytes: LogHistogram,
    /// Poll operations issued against this method's receiver.
    pub polls: AtomicU64,
    /// Poll operations that found no message.
    pub empty_polls: AtomicU64,
    /// Messages that arrived by this method and were forwarded onward
    /// (forwarding-node role).
    pub forwards: AtomicU64,
    /// Send failures that triggered failover away from this method.
    pub failovers: AtomicU64,
    /// Transport errors returned by this method's receive source.
    pub poll_errors: AtomicU64,
    /// Readiness-tier doorbell visits serviced for this method.
    pub ready_wakeups: AtomicU64,
    /// Writes on this method's connections that carried staged frames
    /// (counted once per write, never per message).
    pub flushes: AtomicU64,
    /// Staged frames those writes carried.
    pub flushed_frames: AtomicU64,
}

/// The enquiry view of one method within one context (plain integers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodSnapshot {
    /// RSRs sent via this method, over every link.
    pub sends: u64,
    /// Payload + header bytes sent.
    pub send_bytes: u64,
    /// RSRs received via this method.
    pub recvs: u64,
    /// Payload + header bytes received.
    pub recv_bytes: u64,
    /// Poll operations issued against this method's receiver.
    pub polls: u64,
    /// Poll operations that found no message.
    pub empty_polls: u64,
    /// Messages forwarded onward.
    pub forwards: u64,
    /// Send failures that triggered failover away from this method.
    pub failovers: u64,
    /// Transport errors returned by this method's receive source.
    pub poll_errors: u64,
    /// Readiness-tier doorbell visits serviced for this method.
    pub ready_wakeups: u64,
    /// Writes that carried staged frames; `flushed_frames / flushes` is
    /// frames per combined write.
    pub flushes: u64,
    /// Staged frames those writes carried.
    pub flushed_frames: u64,
}

/// The observability registry for one context.
pub struct Trace {
    started: Instant,
    links: RwLock<HashMap<(ContextId, MethodId), Arc<LinkMethodTrace>>>,
    methods: RwLock<HashMap<MethodId, Arc<MethodTrace>>>,
    ring: EventRing,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// Creates a trace with the default event-ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates a trace whose event ring keeps the last `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            started: Instant::now(),
            links: RwLock::new(HashMap::new()),
            methods: RwLock::new(HashMap::new()),
            ring: EventRing::new(capacity),
        }
    }

    /// Time since the trace was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Send-path measurements for `(target, method)`, created on first use.
    /// Callers on the hot path cache the returned handle; recording through
    /// it is lock-free.
    pub fn link(&self, target: ContextId, method: MethodId) -> Arc<LinkMethodTrace> {
        if let Some(t) = self.links.read().get(&(target, method)) {
            return Arc::clone(t);
        }
        let mut g = self.links.write();
        Arc::clone(g.entry((target, method)).or_default())
    }

    /// Send-path measurements for `(target, method)`, if any were taken.
    pub fn get_link(&self, target: ContextId, method: MethodId) -> Option<Arc<LinkMethodTrace>> {
        self.links.read().get(&(target, method)).cloned()
    }

    /// All `(link, method)` entries, sorted by key.
    pub fn link_entries(&self) -> Vec<((ContextId, MethodId), Arc<LinkMethodTrace>)> {
        let mut v: Vec<_> = self
            .links
            .read()
            .iter()
            .map(|(k, t)| (*k, Arc::clone(t)))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Receive-path measurements for `method`, created on first use.
    pub fn method(&self, method: MethodId) -> Arc<MethodTrace> {
        if let Some(t) = self.methods.read().get(&method) {
            return Arc::clone(t);
        }
        let mut g = self.methods.write();
        Arc::clone(g.entry(method).or_default())
    }

    /// Receive-path measurements for `method`, if any were taken.
    pub fn get_method(&self, method: MethodId) -> Option<Arc<MethodTrace>> {
        self.methods.read().get(&method).cloned()
    }

    /// All per-method entries, sorted by method.
    pub fn method_entries(&self) -> Vec<(MethodId, Arc<MethodTrace>)> {
        let mut v: Vec<_> = self
            .methods
            .read()
            .iter()
            .map(|(k, t)| (*k, Arc::clone(t)))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Enquiry: the counters for `method` (zeroes if never used). Sends
    /// are summed over every link that used the method.
    pub fn snapshot_method(&self, method: MethodId) -> MethodSnapshot {
        let mut snap = MethodSnapshot::default();
        for ((_, m), link) in self.links.read().iter() {
            if *m == method {
                snap.sends += link.send_bytes.count();
                snap.send_bytes += link.send_bytes.sum();
            }
        }
        if let Some(t) = self.methods.read().get(&method) {
            snap.recvs = t.recv_bytes.count();
            snap.recv_bytes = t.recv_bytes.sum();
            snap.polls = t.polls.load(Ordering::Relaxed);
            snap.empty_polls = t.empty_polls.load(Ordering::Relaxed);
            snap.forwards = t.forwards.load(Ordering::Relaxed);
            snap.failovers = t.failovers.load(Ordering::Relaxed);
            snap.poll_errors = t.poll_errors.load(Ordering::Relaxed);
            snap.ready_wakeups = t.ready_wakeups.load(Ordering::Relaxed);
            snap.flushes = t.flushes.load(Ordering::Relaxed);
            snap.flushed_frames = t.flushed_frames.load(Ordering::Relaxed);
        }
        snap
    }

    /// Enquiry: counters for every method this context has selected,
    /// opened a receive source for, or recorded an event against.
    pub fn snapshot(&self) -> HashMap<MethodId, MethodSnapshot> {
        let mut methods: HashSet<MethodId> = self.methods.read().keys().copied().collect();
        methods.extend(self.links.read().keys().map(|(_, m)| *m));
        methods
            .into_iter()
            .map(|m| (m, self.snapshot_method(m)))
            .collect()
    }

    /// Appends an event to the ring, stamped with the current uptime.
    pub fn record_event(&self, kind: TraceEventKind) {
        self.ring.push(self.started.elapsed(), kind);
    }

    /// The events currently held by the ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.slots.lock().iter().copied().collect()
    }

    /// Total events ever recorded (including ones the ring has dropped).
    pub fn events_recorded(&self) -> u64 {
        self.ring.next_seq.load(Ordering::Relaxed)
    }

    /// The event ring's capacity.
    pub fn event_capacity(&self) -> usize {
        self.ring.capacity
    }

    /// Renders the whole trace as plain text: per-link send counts, timed-send
    /// latency and size distributions, per-method poll-cost EWMAs, and recent events.
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== nexus trace (uptime {:.3}s) ===",
            self.uptime().as_secs_f64()
        );

        let links = self.link_entries();
        let _ = writeln!(out, "send path, per (link, method):");
        if links.is_empty() {
            let _ = writeln!(out, "  (no sends recorded)");
        } else {
            let _ = writeln!(out, "  link     method      sends    timed     p50-ns     p99-ns    mean-ns    ewma-ns  p50-bytes");
            for ((target, method), t) in links {
                let lat = t.send_latency_ns.summary();
                let _ = writeln!(
                    out,
                    "  {:<8} {:<8} {:>8} {:>8} {:>10} {:>10} {:>10.0} {:>10.0} {:>10}",
                    format!("ctx {}", target.0),
                    method.to_string(),
                    t.send_bytes.count(),
                    lat.map_or(0, |s| s.count),
                    lat.map_or(0, |s| s.p50),
                    lat.map_or(0, |s| s.p99),
                    lat.map_or(0.0, |s| s.mean),
                    t.send_cost_ns.value().unwrap_or(0.0),
                    t.send_bytes.p50().unwrap_or(0),
                );
            }
        }

        let methods = self.method_entries();
        let _ = writeln!(
            out,
            "receive path and combined writes, per method (flushes: writes that carried staged frames):"
        );
        if methods.is_empty() {
            let _ = writeln!(out, "  (no probes recorded)");
        } else {
            let _ = writeln!(
                out,
                "  {:<8} {:>14} {:>14} {:>8} {:>10} {:>8} {:>12}",
                "method",
                "poll-ewma-ns",
                "poll-samples",
                "recvs",
                "p50-bytes",
                "flushes",
                "frames/flush"
            );
            for (method, t) in methods {
                let flushes = t.flushes.load(Ordering::Relaxed);
                let frames = t.flushed_frames.load(Ordering::Relaxed);
                let _ = writeln!(
                    out,
                    "  {:<8} {:>14.0} {:>14} {:>8} {:>10} {:>8} {:>12.1}",
                    method.to_string(),
                    t.poll_cost_ns.value().unwrap_or(0.0),
                    t.poll_cost_ns.samples(),
                    t.recv_bytes.count(),
                    t.recv_bytes.p50().unwrap_or(0),
                    flushes,
                    frames as f64 / flushes.max(1) as f64,
                );
            }
        }

        let events = self.events();
        let _ = writeln!(
            out,
            "events (holding {} of {} recorded, capacity {}):",
            events.len(),
            self.events_recorded(),
            self.event_capacity()
        );
        for e in events {
            let _ = writeln!(out, "  {e}");
        }
        out
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("links", &self.links.read().len())
            .field("methods", &self.methods.read().len())
            .field("events_recorded", &self.events_recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(1023), 10);
        assert_eq!(LogHistogram::bucket_index(1024), 11);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = LogHistogram::bucket_range(i);
            assert!(lo <= hi);
            assert_eq!(LogHistogram::bucket_index(lo), i);
            assert_eq!(LogHistogram::bucket_index(hi), i);
        }
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = LogHistogram::new();
        assert_eq!(h.p50(), None);
        // 98 cheap values in [4,7], 2 expensive in [1024,2047].
        for _ in 0..98 {
            h.record(5);
        }
        h.record(1500);
        h.record(1600);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), Some(7));
        assert_eq!(h.p99(), Some(2047), "rank 99 of 100 is an expensive value");
        assert_eq!(h.quantile(0.98), Some(7), "rank 98 is still cheap");
        assert_eq!(h.quantile(1.0), Some(2047));
        let mean = h.mean().unwrap();
        assert!(mean > 5.0 && mean < 100.0, "mean {mean}");
    }

    #[test]
    fn merge_adds_counts() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(10);
        b.record(10);
        b.record(100_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 100_020);
        assert_eq!(b.count(), 2, "source histogram untouched");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(LogHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.record(t * 1000 + i % 7);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn ewma_tracks_level_shifts() {
        let e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.record(100.0);
        assert_eq!(e.value(), Some(100.0), "first sample initializes");
        e.record(200.0);
        assert_eq!(e.value(), Some(150.0));
        for _ in 0..50 {
            e.record(1000.0);
        }
        let v = e.value().unwrap();
        assert!(v > 990.0, "converges to the new level, got {v}");
        assert_eq!(e.samples(), 52);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn event_ring_caps_and_sequences() {
        let t = Trace::with_capacity(3);
        for i in 0..5u64 {
            t.record_event(TraceEventKind::SkipPollChange {
                method: MethodId::TCP,
                from: i,
                to: i + 1,
            });
        }
        let events = t.events();
        assert_eq!(events.len(), 3, "ring holds only the last 3");
        assert_eq!(t.events_recorded(), 5);
        assert_eq!(events[0].seq, 2, "oldest surviving event");
        assert_eq!(events[2].seq, 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn trace_handles_are_shared() {
        let t = Trace::new();
        let a = t.link(ContextId(2), MethodId::TCP);
        a.send_latency_ns.record(500);
        let b = t.link(ContextId(2), MethodId::TCP);
        assert_eq!(b.send_latency_ns.count(), 1, "same underlying histogram");
        assert!(t.get_link(ContextId(9), MethodId::TCP).is_none());
        let m = t.method(MethodId::MPL);
        m.poll_cost_ns.record(42.0);
        assert_eq!(
            t.get_method(MethodId::MPL).unwrap().poll_cost_ns.samples(),
            1
        );
    }

    #[test]
    fn method_snapshot_derives_sends_across_links_and_recvs_without_sends() {
        let t = Trace::new();
        // Two links to different contexts over TCP, one over MPL.
        for (target, method, sizes) in [
            (ContextId(2), MethodId::TCP, &[100u64, 50][..]),
            (ContextId(3), MethodId::TCP, &[7][..]),
            (ContextId(2), MethodId::MPL, &[1][..]),
        ] {
            let link = t.link(target, method);
            for &b in sizes {
                link.send_bytes.record(b);
            }
        }
        // UDP only ever receives here.
        let udp = t.method(MethodId::UDP);
        udp.recv_bytes.record(64);
        udp.recv_bytes.record(36);
        udp.polls.fetch_add(3, Ordering::Relaxed);
        udp.empty_polls.fetch_add(1, Ordering::Relaxed);

        let tcp = t.snapshot_method(MethodId::TCP);
        assert_eq!((tcp.sends, tcp.send_bytes), (3, 157), "summed over links");
        assert_eq!((tcp.recvs, tcp.polls), (0, 0), "no receive source");
        let udp = t.snapshot_method(MethodId::UDP);
        assert_eq!((udp.sends, udp.send_bytes), (0, 0));
        assert_eq!((udp.recvs, udp.recv_bytes), (2, 100));
        assert_eq!((udp.polls, udp.empty_polls), (3, 1));
        let all = t.snapshot();
        assert_eq!(all.len(), 3, "send-only and receive-only methods both");
        assert_eq!(all[&MethodId::MPL].send_bytes, 1);
        assert_eq!(all[&MethodId::TCP], tcp);
        assert_eq!(all[&MethodId::UDP], udp);
    }

    #[test]
    fn unused_method_snapshots_to_zero() {
        let t = Trace::new();
        assert_eq!(t.snapshot_method(MethodId::UDP), MethodSnapshot::default());
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let t = Arc::new(Trace::new());
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    // Two threads per link, so both the per-link histogram
                    // and the cross-link sum are contended.
                    let link = t.link(ContextId(i % 2), MethodId::MPL);
                    let method = t.method(MethodId::MPL);
                    for _ in 0..1000 {
                        link.send_bytes.record(3);
                        method.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot_method(MethodId::MPL);
        assert_eq!((snap.sends, snap.send_bytes), (4000, 12_000));
        assert_eq!(snap.failovers, 4000);
    }

    #[test]
    fn render_mentions_all_sections() {
        let t = Trace::new();
        t.link(ContextId(2), MethodId::TCP)
            .send_latency_ns
            .record(800);
        t.link(ContextId(2), MethodId::TCP).send_bytes.record(64);
        t.method(MethodId::TCP).poll_cost_ns.record(15_000.0);
        t.record_event(TraceEventKind::PollError {
            method: MethodId::TCP,
            consecutive: 1,
        });
        let text = t.render();
        assert!(text.contains("nexus trace"));
        assert!(text.contains("send path"));
        assert!(text.contains("receive path"));
        assert!(text.contains("events"));
        assert!(text.contains("tcp"));
        assert!(text.contains("poll error on tcp (1 consecutive)"));
    }

    #[test]
    fn event_display_is_informative() {
        let e = TraceEvent {
            seq: 7,
            at: Duration::from_micros(1500),
            kind: TraceEventKind::MethodSwitch {
                target: ContextId(3),
                from: Some(MethodId::MPL),
                to: MethodId::TCP,
            },
        };
        let s = e.to_string();
        assert!(s.contains("#7"), "{s}");
        assert!(s.contains("mpl -> tcp"), "{s}");
        let first = TraceEvent {
            seq: 0,
            at: Duration::ZERO,
            kind: TraceEventKind::MethodSwitch {
                target: ContextId(3),
                from: None,
                to: MethodId::TCP,
            },
        };
        assert!(first.to_string().contains("selected tcp"));
    }
}
