//! Unified polling across communication methods.
//!
//! Incoming RSRs must be detected across *all* methods a context has
//! enabled (§3.3). The straightforward design — iterate every method's
//! receiver on each poll — makes an infrequently used, expensive method
//! (TCP `select`, >100 µs) tax a frequently used, cheap one (MPL probe,
//! ~15 µs), and makes every pass cost O(sources) even when nothing is
//! arriving. The engine therefore runs two tiers:
//!
//! * **Readiness tier** — a transport that can tell when data arrives
//!   (in-process queues ring on enqueue; fd transports ring from a pump
//!   thread) is *armed* with a [`ReadySignal`] doorbell and leaves the
//!   rotation entirely. A pass then visits only rung sources, so idle
//!   sources cost nothing (see [`ReadySignal`] for the no-missed-wakeup
//!   protocol).
//! * **Polled tier** — genuinely unpollable methods (the MPL probe, the
//!   delay queue) stay in the rotation under the paper's **`skip_poll`**
//!   parameter: a method with `skip_poll = k` is checked only every
//!   `k`-th invocation of the unified polling function, adaptively tuned
//!   by [`AdaptiveSkipPoll`]. A second remedy, for systems that allow a
//!   thread to block awaiting communication, is a dedicated blocking
//!   thread per method ([`BlockingPoller`]).

use crate::descriptor::MethodId;
use crate::error::NexusError;
use crate::module::CommReceiver;
use crate::rsr::Rsr;
use crate::trace::{MethodTrace, Trace, TraceEventKind, SAMPLE_EVERY};
// Re-exported so external drivers of the doorbell protocol (transports,
// the xtask model checker) can build a ready list without depending on
// crossbeam directly.
pub use crossbeam::queue::SegQueue;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Parameters of the adaptive skip_poll controller (the paper's "future
/// work": *adaptive adjustment of skip_poll values*).
///
/// The controller is two-layered:
///
/// * A **reactive** layer — multiplicative-decrease / multiplicative-
///   increase on evidence: finding a message halves the skip (the method
///   is active — look often), while `grow_after` consecutive empty probes
///   double it (the method is quiet — stop paying for it), clamped to
///   `[min, max]`. This layer reacts within one probe to bursts starting
///   or traffic evaporating.
/// * A **cost-driven** layer — every `update_every` probes the controller
///   recomputes the skip from the *measured* probe-cost EWMAs
///   (`core::trace`) and the per-probe hit-rate EWMA, steering toward the
///   per-pass-objective minimum (see [`adaptive_target_skip`]) instead of
///   a hand-tuned constant. While the hit rate shows live traffic, this
///   layer owns the skip and the reactive layer stands down, so a steady
///   load cannot oscillate between halving and doubling; when traffic
///   stops, ownership falls back to the reactive layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSkipPoll {
    /// Lower bound on the skip value (1 = may poll every pass).
    pub min: u64,
    /// Upper bound on the skip value.
    pub max: u64,
    /// Consecutive empty probes before the skip doubles.
    pub grow_after: u64,
    /// Weight `w` of detection latency against probe cost in the
    /// cost-driven layer's objective: larger values favor smaller skips
    /// (lower latency at higher polling cost).
    pub latency_weight: f64,
    /// Probes between cost-driven recomputations (0 disables the
    /// cost-driven layer, leaving the reactive layer alone).
    pub update_every: u64,
    /// Dead band of the cost-driven layer: the computed target must
    /// differ from the current skip by more than this fraction before the
    /// skip moves. Prevents oscillation under steady load.
    pub hysteresis: f64,
}

impl Default for AdaptiveSkipPoll {
    fn default() -> Self {
        AdaptiveSkipPoll {
            min: 1,
            max: 4096,
            grow_after: 8,
            latency_weight: 1.0,
            update_every: 32,
            hysteresis: 0.5,
        }
    }
}

/// Smoothing factor of the per-probe hit-rate EWMA.
const HIT_EWMA_ALPHA: f64 = 1.0 / 16.0;
/// Below this per-probe hit rate the cost-driven layer considers the
/// method idle and hands control back to the reactive layer.
const COST_MODE_HIT_FLOOR: f64 = 0.01;
/// Floor on the estimated cost of one pass of the polling loop, so the
/// controller law stays finite before any probe has been timed.
const PASS_COST_FLOOR_NS: f64 = 100.0;
/// Upper bound on messages drained from one armed source per ready visit.
/// On hitting the bound the engine re-rings the source's own doorbell, so
/// the remainder is picked up next pass instead of starving other sources.
const READY_BATCH: u64 = 32;

/// Destination for rung doorbell tokens.
///
/// [`ReadySignal`] is generic over where a consumed `false → true` edge
/// queues its token: the single-threaded engine uses a plain MPSC list
/// ([`SegQueue`]); the worker pool (`crate::shard`) pushes onto its own
/// list and additionally wakes a parked worker, a wake the engine's
/// doorbells do not pay for. The push must be internally synchronized —
/// it runs on the producer's thread, concurrently with consumers
/// draining.
pub trait ReadySink: Send + Sync {
    /// Queues a rung source's token for a consumer to service.
    fn push_ready(&self, token: usize);
}

impl ReadySink for SegQueue<usize> {
    fn push_ready(&self, token: usize) {
        self.push(token);
    }
}

/// A doorbell for one receive source: producers ring it after enqueuing a
/// message, and the poll engine then visits only rung sources instead of
/// scanning the whole rotation.
///
/// The no-missed-wakeup protocol is a flag + MPSC ready-list pair:
///
/// * **ring** (producer): `ready.swap(true, Release)`; only the observer
///   of the `false → true` transition pushes the source's token onto the
///   shared ready-list, so a burst of sends queues the token once.
/// * **visit** (consumer): pop a token, `ready.swap(false, Acquire)`,
///   *then* poll the receiver to empty.
///
/// If the producer's Release-swap is ordered before the consumer's
/// Acquire-swap in the flag's modification order, the producer's enqueue
/// happens-before the consumer's drain and the message is retrieved this
/// visit. Otherwise the producer observed `false`, which means it pushed
/// the token back onto the (internally synchronized) ready-list and the
/// source is revisited. Either way no enqueue is lost — the invariant the
/// xtask `doorbell` model check pins.
#[derive(Clone)]
pub struct ReadySignal {
    inner: Arc<SignalShared>,
}

struct SignalShared {
    /// Whether the source is currently marked ready (token queued).
    ready: AtomicBool,
    /// The source's slot in the engine's token table.
    token: usize,
    /// Where a consumed ring queues the token (the engine's shared
    /// ready-list, or a worker pool's).
    sink: Arc<dyn ReadySink>,
}

impl ReadySignal {
    /// Creates a signal that queues `token` onto `list` when rung.
    pub fn new(token: usize, list: Arc<SegQueue<usize>>) -> Self {
        Self::with_sink(token, list)
    }

    /// Creates a signal that queues `token` into an arbitrary
    /// [`ReadySink`] when rung — the worker pool's entry point.
    pub fn with_sink(token: usize, sink: Arc<impl ReadySink + 'static>) -> Self {
        ReadySignal {
            inner: Arc::new(SignalShared {
                ready: AtomicBool::new(false),
                token,
                sink,
            }),
        }
    }

    /// Marks the source ready. The producer calls this *after* the message
    /// is enqueued on the transport; the Release-swap publishes that
    /// enqueue to the consumer's Acquire-swap in [`ReadySignal::clear`].
    pub fn ring(&self) {
        if !self.inner.ready.swap(true, Ordering::Release) {
            self.inner.sink.push_ready(self.inner.token);
        }
    }

    /// Clears the flag before the consumer polls, so rings racing the
    /// drain re-queue the token rather than vanish. Public because it is
    /// the consumer half of the doorbell protocol: external drivers (and
    /// the xtask model checker) that pop tokens from the shared list must
    /// clear *before* polling the source, exactly as the engine does.
    pub fn clear(&self) {
        self.inner.ready.swap(false, Ordering::Acquire);
    }
}

/// The cost-driven controller law: the skip value minimizing the per-pass
/// objective
///
/// ```text
/// J(k) = probe_cost / k  +  latency_weight · msgs_per_pass · (k/2) · pass_cost
/// ```
///
/// — amortized probing cost plus the expected detection-latency penalty
/// (a message waits on average `k/2` passes for the next probe). Setting
/// `dJ/dk = 0` gives
///
/// ```text
/// k* = sqrt(2 · probe_cost / (latency_weight · msgs_per_pass · pass_cost))
/// ```
///
/// which is the joint operating point of the paper's Fig. 6 trade-off:
/// monotone *increasing* in the measured probe cost (expensive methods
/// are polled less) and monotone *decreasing* in traffic rate and latency
/// weight. The result is rounded and clamped to `[min, max]`.
///
/// Inputs that make the law degenerate (no cost measured yet, zero
/// traffic, or a non-positive pass cost) return `max`: with nothing to
/// detect, backing off as far as allowed is the cost-optimal choice.
pub fn adaptive_target_skip(
    cfg: &AdaptiveSkipPoll,
    probe_cost_ns: f64,
    msgs_per_pass: f64,
    pass_cost_ns: f64,
) -> u64 {
    let lo = cfg.min.max(1);
    let hi = cfg.max.max(lo);
    let w = cfg.latency_weight;
    // `x > 0.0` is false for NaN too, so one positive check rejects every
    // degenerate input (zero, negative, NaN).
    let usable = [probe_cost_ns, msgs_per_pass, pass_cost_ns, w]
        .iter()
        .all(|&x| x > 0.0);
    if !usable {
        return hi;
    }
    let k = (2.0 * probe_cost_ns / (w * msgs_per_pass * pass_cost_ns)).sqrt();
    // `as` saturates on overflow/NaN, and the clamp bounds the result.
    (k.round() as u64).clamp(lo, hi)
}

/// One method's receive source within the poll rotation.
struct PollSource {
    method: MethodId,
    receiver: Box<dyn CommReceiver>,
    /// Poll this source every `skip`-th call (1 = every call).
    skip: u64,
    /// Calls since the last actual poll of this source.
    since_last: u64,
    /// Adaptive controller, if enabled for this source.
    adaptive: Option<AdaptiveSkipPoll>,
    /// Consecutive empty probes (drives adaptive growth).
    empty_streak: u64,
    /// Per-probe hit-rate EWMA (messages found per probe).
    hit_ewma: f64,
    /// Probes since the cost-driven layer last recomputed.
    probes_since_update: u64,
    /// Whether the cost-driven layer currently owns the skip value (live
    /// traffic with a measured probe cost). While set, the reactive
    /// halve/double layer stands down.
    cost_mode: bool,
    /// The method's record in the engine's [`Trace`], cached so each probe
    /// records into plain atomics — no lock is taken per poll event.
    rec: Arc<MethodTrace>,
    /// Probes performed on this source; every
    /// [`SAMPLE_EVERY`]-th one (starting with the first) is timed.
    probe_tick: u64,
    /// Stable identity of this source in the engine's token table (never
    /// reused, so stale ready-list entries are detectable after removal).
    token: usize,
    /// Whether the source is served by the readiness tier (out of the
    /// skip_poll rotation; visited only when its doorbell rings).
    armed: bool,
    /// The doorbell handed to the transport, kept for self-re-rings when a
    /// drain is cut short (batch limit, transport error).
    signal: Option<ReadySignal>,
}

impl PollSource {
    /// The cost-driven layer's periodic recomputation: decide whether the
    /// layer owns the skip (measured cost + live traffic) and, if so, move
    /// the skip to the objective minimum when it falls outside the
    /// hysteresis dead band.
    fn recompute_cost_skip(&mut self, cfg: &AdaptiveSkipPoll, pass_cost_ns: f64) {
        // The controller is literally driven by `core::trace`'s measurement.
        let Some(cost) = self.rec.poll_cost_ns.value() else {
            self.cost_mode = false;
            return;
        };
        if self.hit_ewma < COST_MODE_HIT_FLOOR {
            // Traffic evaporated: the reactive layer's growth rule takes
            // the skip back toward max on its own cadence.
            self.cost_mode = false;
            return;
        }
        self.cost_mode = true;
        // Hits arrive per probe; a probe happens every `skip` passes, so
        // the per-pass message rate is the per-probe rate divided by skip.
        let msgs_per_pass = self.hit_ewma / self.skip.max(1) as f64;
        let target = adaptive_target_skip(cfg, cost, msgs_per_pass, pass_cost_ns);
        let cur = self.skip.max(1) as f64;
        if (target as f64 - cur).abs() > cfg.hysteresis * cur {
            self.skip = target;
            self.empty_streak = 0;
        }
    }
}

/// The receive step every route shares — polled tier, readiness tier,
/// shard worker, blocking thread: account what one receive attempt
/// returned on the method's record and hand a retrieved message to `sink`.
/// Returns whether a message was handed over.
fn account(
    rec: &MethodTrace,
    received: crate::error::Result<Option<Rsr>>,
    sink: impl FnOnce(Rsr),
) -> crate::error::Result<bool> {
    match received {
        Ok(Some(msg)) => {
            rec.recv_bytes.record(msg.wire_len() as u64);
            sink(msg);
            Ok(true)
        }
        Ok(None) => Ok(false),
        Err(e) => {
            rec.poll_errors.fetch_add(1, Ordering::Relaxed);
            Err(e)
        }
    }
}

/// One probe of a receive source in a poll pass: poll (wall-clock timed
/// into the method's poll-cost EWMA when `timed`), count the probe, then
/// [`account`] for what it found.
fn probe(
    receiver: &mut dyn CommReceiver,
    rec: &MethodTrace,
    timed: bool,
    sink: impl FnOnce(Rsr),
) -> crate::error::Result<bool> {
    let start = timed.then(Instant::now);
    let polled = receiver.poll();
    if let Some(t) = start {
        rec.poll_cost_ns.record(t.elapsed().as_nanos() as f64);
    }
    rec.polls.fetch_add(1, Ordering::Relaxed);
    if !matches!(polled, Ok(Some(_))) {
        rec.empty_polls.fetch_add(1, Ordering::Relaxed);
    }
    account(rec, polled, sink)
}

/// One doorbell visit to an armed source, by whichever thread popped its
/// token (the engine's ready drain or a shard worker): probe it to empty,
/// bounded by [`READY_BATCH`], handing each message to `sink`. Returns the
/// number drained and the transport error that cut the visit short, if any.
///
/// The flag is cleared with an Acquire-swap *before* polling, so a ring
/// racing the drain re-queues the token instead of vanishing — the
/// no-missed-wakeup protocol documented on [`ReadySignal`]. Probes here
/// are untimed: the poll-cost EWMA steers the skip_poll rotation, which
/// armed sources have left.
pub(crate) fn ready_visit(
    receiver: &mut dyn CommReceiver,
    signal: &ReadySignal,
    rec: &MethodTrace,
    mut sink: impl FnMut(Rsr),
) -> (u64, Option<NexusError>) {
    signal.clear();
    let mut drained = 0u64;
    let mut error = None;
    loop {
        if drained >= READY_BATCH {
            // Leave the remainder for the next visit without losing the
            // wakeup: ring our own doorbell, so one hot source cannot
            // starve the others.
            signal.ring();
            break;
        }
        match probe(receiver, rec, false, &mut sink) {
            Ok(true) => drained += 1,
            Ok(false) => break,
            Err(e) => {
                // Messages may still be queued behind a transient error;
                // re-ring so the source is revisited instead of parked on
                // a cleared flag.
                signal.ring();
                error = Some(e);
                break;
            }
        }
    }
    rec.ready_wakeups.fetch_add(1, Ordering::Relaxed);
    (drained, error)
}

/// The unified poll engine for one context.
///
/// Not thread-safe by itself; the owning context serializes access.
#[derive(Default)]
pub struct PollEngine {
    /// Where sources record. A context hands in its own
    /// ([`PollEngine::with_trace`]); a standalone engine keeps a private one.
    trace: Arc<Trace>,
    sources: Vec<PollSource>,
    /// MPSC list of tokens whose doorbells rang since the last drain.
    ready_list: Arc<SegQueue<usize>>,
    /// Token → current index in `sources` (`None` once removed). Tokens
    /// are never reused, so a stale token popped from the ready-list after
    /// its source was removed resolves to `None` and is skipped.
    token_slots: Vec<Option<usize>>,
    /// Indices of the sources still in the skip_poll rotation (unarmed),
    /// so a pass costs O(rung + polled) instead of O(sources).
    polled: Vec<usize>,
    /// Total invocations of [`PollEngine::poll_once`].
    calls: u64,
}

/// A skip_poll adjustment made by the adaptive controller during a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipChange {
    /// The adjusted method.
    pub method: MethodId,
    /// Skip value before the pass.
    pub from: u64,
    /// Skip value after the pass.
    pub to: u64,
}

/// Result of one pass of the unified polling function.
///
/// A pass always completes: messages retrieved before a failing source are
/// in `messages` *and* the failure is in `errors` — one erroring transport
/// never causes delivered traffic to be dropped.
#[derive(Debug, Default)]
pub struct PollOutcome {
    /// Messages retrieved this pass, tagged with the method that carried
    /// them.
    pub messages: Vec<(MethodId, Rsr)>,
    /// Transport errors encountered this pass, per method. Erroring
    /// sources stay in the rotation; persistent failures repeat here.
    pub errors: Vec<(MethodId, NexusError)>,
    /// Adaptive skip_poll adjustments made during this pass.
    pub skip_changes: Vec<SkipChange>,
    /// Doorbell visits serviced this pass: `(method, messages drained)`
    /// per armed source whose ring was consumed.
    pub ready_wakeups: Vec<(MethodId, u64)>,
}

impl PollOutcome {
    /// Empties every field, keeping the vectors' storage for reuse.
    pub fn clear(&mut self) {
        self.messages.clear();
        self.errors.clear();
        self.skip_changes.clear();
        self.ready_wakeups.clear();
    }
}

impl PollEngine {
    /// Creates an engine with no sources, recording into a private trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine whose sources record into `trace` — the owning
    /// context's, so enquiries see every probe and receive.
    pub fn with_trace(trace: Arc<Trace>) -> Self {
        PollEngine {
            trace,
            ..Self::default()
        }
    }

    /// Adds a receive source for `method` (at skip_poll = 1, in the polled
    /// tier until [`PollEngine::arm_ready`] moves it to the readiness
    /// tier).
    pub fn add_source(&mut self, method: MethodId, receiver: Box<dyn CommReceiver>) {
        let token = self.token_slots.len();
        self.token_slots.push(Some(self.sources.len()));
        self.polled.push(self.sources.len());
        self.sources.push(PollSource {
            method,
            receiver,
            skip: 1,
            since_last: 0,
            adaptive: None,
            empty_streak: 0,
            hit_ewma: 0.0,
            probes_since_update: 0,
            cost_mode: false,
            rec: self.trace.method(method),
            probe_tick: 0,
            token,
            armed: false,
            signal: None,
        });
    }

    /// Rebuilds the polled-tier index list after a topology change
    /// (arming, removal). Never called from the per-pass hot path.
    fn rebuild_polled(&mut self) {
        self.polled.clear();
        self.polled.extend(
            self.sources
                .iter()
                .enumerate()
                .filter_map(|(i, s)| (!s.armed).then_some(i)),
        );
    }

    /// Moves `method`'s source to the readiness tier: hands the receiver a
    /// [`ReadySignal`] doorbell and, if the transport accepts it, removes
    /// the source from the skip_poll rotation. The doorbell is rung once
    /// immediately ("priming"), covering messages enqueued between `open`
    /// and arming. Returns whether the source is now armed.
    pub fn arm_ready(&mut self, method: MethodId) -> bool {
        let Some(idx) = self.sources.iter().position(|s| s.method == method) else {
            return false;
        };
        let total_sources = self.sources.len();
        let s = &mut self.sources[idx];
        if s.armed {
            return true;
        }
        let signal = ReadySignal::new(s.token, Arc::clone(&self.ready_list));
        if !s.receiver.set_ready_signal(signal.clone()) {
            return false;
        }
        s.armed = true;
        // Keep the shared ready-list sized for every source this engine
        // could queue at once (the latch caps each at one entry), so no
        // doorbell ring ever grows it mid-measurement.
        self.ready_list.reserve(total_sources);
        // Prime: anything already queued predates the doorbell and would
        // otherwise wait for the next send to ring.
        signal.ring();
        s.signal = Some(signal);
        self.rebuild_polled();
        true
    }

    /// Whether `method`'s source is served by the readiness tier.
    pub fn is_armed(&self, method: MethodId) -> bool {
        self.sources.iter().any(|s| s.method == method && s.armed)
    }

    /// Removes and returns the receiver for `method` (used when moving a
    /// method to a blocking poller thread).
    pub fn remove_source(&mut self, method: MethodId) -> Option<Box<dyn CommReceiver>> {
        let idx = self.sources.iter().position(|s| s.method == method)?;
        let removed = self.sources.remove(idx);
        self.token_slots[removed.token] = None;
        // Indices after the removal point shifted down by one.
        for (i, s) in self.sources.iter().enumerate().skip(idx) {
            self.token_slots[s.token] = Some(i);
        }
        self.rebuild_polled();
        Some(removed.receiver)
    }

    /// Removes and returns every armed source (readiness tier), leaving
    /// the polled tier intact. The caller — a worker pool taking over a
    /// context's doorbell traffic — re-arms each receiver with its own
    /// signal; any receiver that refuses the new signal should
    /// be handed back via [`PollEngine::add_source`] + re-arming.
    pub fn take_armed(&mut self) -> Vec<(MethodId, Box<dyn CommReceiver>)> {
        let methods: Vec<MethodId> = self
            .sources
            .iter()
            .filter(|s| s.armed)
            .map(|s| s.method)
            .collect();
        methods
            .into_iter()
            .filter_map(|m| self.remove_source(m).map(|r| (m, r)))
            .collect()
    }

    /// Sets the skip_poll value for `method`. A value of `k` means the
    /// method is checked on every `k`-th call of the polling function;
    /// `1` restores per-call checking. Values of 0 are treated as 1.
    /// Disables adaptive control for the method. Returns whether the
    /// method had a source.
    pub fn set_skip_poll(&mut self, method: MethodId, k: u64) -> bool {
        match self.sources.iter_mut().find(|s| s.method == method) {
            Some(s) => {
                s.skip = k.max(1);
                s.since_last = 0;
                s.adaptive = None;
                s.empty_streak = 0;
                s.probes_since_update = 0;
                s.cost_mode = false;
                true
            }
            None => false,
        }
    }

    /// Enables adaptive skip_poll control for `method` (starting from its
    /// current skip value, clamped into the configured range). Returns
    /// whether the method had a source.
    pub fn set_adaptive(&mut self, method: MethodId, cfg: AdaptiveSkipPoll) -> bool {
        match self.sources.iter_mut().find(|s| s.method == method) {
            Some(s) => {
                s.skip = s.skip.clamp(cfg.min.max(1), cfg.max.max(1));
                s.adaptive = Some(cfg);
                s.empty_streak = 0;
                s.probes_since_update = 0;
                s.cost_mode = false;
                true
            }
            None => false,
        }
    }

    /// Current skip_poll value for `method`.
    pub fn skip_poll(&self, method: MethodId) -> Option<u64> {
        self.sources
            .iter()
            .find(|s| s.method == method)
            .map(|s| s.skip)
    }

    /// The methods with receive sources, in rotation order.
    pub fn methods(&self) -> Vec<MethodId> {
        self.sources.iter().map(|s| s.method).collect()
    }

    /// Runs one pass of the unified polling function: each source whose
    /// skip counter has elapsed is probed once, and each probe is timed.
    /// Transport errors from one source do not prevent probing the others
    /// and never discard messages already retrieved this pass — errors are
    /// reported in [`PollOutcome::errors`] alongside the messages.
    pub fn poll_once(&mut self) -> PollOutcome {
        let mut out = PollOutcome::default();
        self.poll_once_into(&mut out);
        out
    }

    /// Like [`PollEngine::poll_once`], but *appends* this pass's results
    /// to a caller-owned outcome. Hot loops keep one [`PollOutcome`] and
    /// reuse its vectors across passes, so a steady-state pass allocates
    /// nothing; the caller clears the outcome between passes (see
    /// [`PollOutcome::clear`]).
    pub fn poll_once_into(&mut self, out: &mut PollOutcome) {
        self.calls += 1;
        self.drain_ready(out);
        // Estimated cost of one pass of the fallback rotation: every
        // polled-tier source's measured probe cost amortized over its skip.
        // Computed once per pass (from last pass's values) for the
        // cost-driven controller layer; skipped entirely when no source
        // uses that layer.
        let pass_cost_ns = if self.polled.iter().any(|&i| {
            self.sources[i]
                .adaptive
                .is_some_and(|cfg| cfg.update_every > 0)
        }) {
            self.polled
                .iter()
                .map(|&i| {
                    let s = &self.sources[i];
                    s.rec.poll_cost_ns.value().unwrap_or(0.0) / s.skip.max(1) as f64
                })
                .sum::<f64>()
                .max(PASS_COST_FLOOR_NS)
        } else {
            0.0
        };
        for pi in 0..self.polled.len() {
            let s = &mut self.sources[self.polled[pi]];
            s.since_last += 1;
            if s.since_last < s.skip {
                continue;
            }
            s.since_last = 0;
            let skip_before = s.skip;
            // Timing every probe would double the cost of the cheap
            // in-process probes (two clock reads dwarf a queue check), so
            // only every `SAMPLE_EVERY`-th probe per source is
            // timed — the first one always, so the EWMA is seeded
            // immediately. Empty-probe cost is stable, so the sampled
            // EWMA converges to the same value at a fraction of the
            // overhead.
            let timed = s.probe_tick.is_multiple_of(SAMPLE_EVERY);
            s.probe_tick += 1;
            let method = s.method;
            let probed = probe(&mut *s.receiver, &s.rec, timed, |msg| {
                out.messages.push((method, msg))
            });
            let found = matches!(probed, Ok(true));
            if let Some(cfg) = s.adaptive {
                // Only the adaptive controller consumes the hit-rate EWMA;
                // skip the float update for plain sources.
                s.hit_ewma += HIT_EWMA_ALPHA * (f64::from(u8::from(found)) - s.hit_ewma);
                if found {
                    s.empty_streak = 0;
                    if !s.cost_mode {
                        // Activity: look more often. (With the cost-driven
                        // layer in charge, reactive halving would fight the
                        // computed operating point and oscillate under
                        // steady load.)
                        s.skip = (s.skip / 2).max(cfg.min.max(1));
                    }
                } else {
                    // An error is as empty-handed as `Ok(None)`: without
                    // feeding the grow path, an adaptive source whose
                    // transport has died would be probed at its minimum
                    // skip forever.
                    s.empty_streak += 1;
                    if !s.cost_mode && s.empty_streak >= cfg.grow_after {
                        // Sustained silence: back off.
                        s.empty_streak = 0;
                        s.skip = (s.skip * 2).clamp(cfg.min.max(1), cfg.max.max(1));
                    }
                }
            }
            if let Err(e) = probed {
                out.errors.push((method, e));
            }
            if let Some(cfg) = s.adaptive {
                if cfg.update_every > 0 {
                    s.probes_since_update += 1;
                    if s.probes_since_update >= cfg.update_every {
                        s.probes_since_update = 0;
                        s.recompute_cost_skip(&cfg, pass_cost_ns);
                    }
                }
            }
            if s.skip != skip_before {
                out.skip_changes.push(SkipChange {
                    method: s.method,
                    from: skip_before,
                    to: s.skip,
                });
            }
        }
    }

    /// Visits every armed source whose doorbell rang since the last pass
    /// (one [`ready_visit`] each). Cost is O(rung sources), independent of
    /// how many idle sources are armed.
    fn drain_ready(&mut self, out: &mut PollOutcome) {
        // Only service tokens that were already queued when the pass
        // began: tokens re-rung mid-drain (batch limit, erroring source,
        // racing producers) land in the *next* pass. This both bounds the
        // pass and keeps one hot source from monopolizing it.
        let max_visits = self.ready_list.len();
        for _ in 0..max_visits {
            let Some(token) = self.ready_list.pop() else {
                break;
            };
            // Stale tokens (source removed after ringing) resolve to None.
            let Some(idx) = self.token_slots.get(token).copied().flatten() else {
                continue;
            };
            let s = &mut self.sources[idx];
            let Some(signal) = &s.signal else {
                continue;
            };
            let method = s.method;
            let (drained, err) = ready_visit(&mut *s.receiver, signal, &s.rec, |msg| {
                out.messages.push((method, msg))
            });
            if let Some(e) = err {
                out.errors.push((method, e));
            }
            out.ready_wakeups.push((method, drained));
        }
    }

    /// Total calls to [`PollEngine::poll_once`] so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Removes every source from the rotation and returns the receivers
    /// for the caller to close. Closing runs transport code that can block
    /// (a socket receiver takes the reactor's lock to deregister), so a
    /// caller that keeps the engine behind a lock must close the returned
    /// receivers *after* releasing it — see `Context::shutdown`.
    pub fn drain_sources(&mut self) -> Vec<Box<dyn CommReceiver>> {
        let receivers = self.sources.drain(..).map(|s| s.receiver).collect();
        self.token_slots.clear();
        self.polled.clear();
        while self.ready_list.pop().is_some() {}
        receivers
    }

    /// Closes all receivers. Only for engines not shared behind a lock —
    /// this closes the receivers inline (see [`PollEngine::drain_sources`]).
    pub fn close_all(&mut self) {
        for mut r in self.drain_sources() {
            r.close();
        }
    }
}

/// A dedicated blocking receive thread for one method.
///
/// On systems where a method supports blocking receives, a specialized
/// polling function can run in its own thread of control and block, so the
/// method never appears in the poll rotation at all. Retrieved messages are
/// parked in a lock-free queue that the context drains during `progress`.
pub struct BlockingPoller {
    method: MethodId,
    queue: Arc<SegQueue<Rsr>>,
    stop: Arc<AtomicBool>,
    /// Transport errors seen by the thread (total, not consecutive).
    errors: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

/// First backoff after a blocking-poller transport error.
const BLOCKING_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Ceiling on the blocking poller's error backoff.
const BLOCKING_BACKOFF_CAP: Duration = Duration::from_millis(256);

impl BlockingPoller {
    /// Spawns a thread that blocks on `receiver` (with `timeout` as the
    /// shutdown-check granularity) and enqueues everything it receives,
    /// recording into `trace`: receives and transport errors on the
    /// method's record, errors also as [`TraceEventKind::PollError`]
    /// events (at each power-of-two consecutive count, to bound ring
    /// traffic). Consecutive errors back off exponentially from 1 ms,
    /// capped at 256 ms, so a persistently failing transport does not spin
    /// the thread; a successful receive resets the backoff. Fails with
    /// [`NexusError::Io`] if the OS refuses the thread.
    pub fn spawn(
        method: MethodId,
        mut receiver: Box<dyn CommReceiver>,
        timeout: Duration,
        trace: Arc<Trace>,
    ) -> crate::error::Result<Self> {
        let queue = Arc::new(SegQueue::new());
        let stop = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(AtomicU64::new(0));
        let q = Arc::clone(&queue);
        let st = Arc::clone(&stop);
        let errs = Arc::clone(&errors);
        // Resolve the per-method handle once; the thread then records
        // receives through plain atomics.
        let rec = trace.method(method);
        let handle = std::thread::Builder::new()
            .name(format!("nexus-blocking-poll-{method}"))
            .spawn(move || {
                let mut consecutive: u64 = 0;
                while !st.load(Ordering::Relaxed) {
                    // A blocking wait is not a probe of the rotation, so
                    // `polls` stays untouched; everything else is the
                    // shared accounting.
                    let received = receiver.recv_timeout(timeout);
                    if account(&rec, received, |msg| q.push(msg)).is_ok() {
                        consecutive = 0;
                        continue;
                    }
                    consecutive += 1;
                    errs.fetch_add(1, Ordering::Relaxed);
                    if consecutive.is_power_of_two() {
                        trace.record_event(TraceEventKind::PollError {
                            method,
                            consecutive,
                        });
                    }
                    let exp = consecutive.saturating_sub(1).min(8) as u32;
                    let backoff = BLOCKING_BACKOFF_BASE
                        .saturating_mul(1u32 << exp)
                        .min(BLOCKING_BACKOFF_CAP);
                    std::thread::sleep(backoff);
                }
                receiver.close();
            })
            .map_err(NexusError::Io)?;
        Ok(BlockingPoller {
            method,
            queue,
            stop,
            errors,
            handle: Some(handle),
        })
    }

    /// Total transport errors the thread has seen.
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The method this poller serves.
    pub fn method(&self) -> MethodId {
        self.method
    }

    /// Takes one message received by the blocking thread, if any.
    pub fn try_pop(&self) -> Option<Rsr> {
        self.queue.pop()
    }

    /// Signals the thread to stop and waits for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for BlockingPoller {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextId;
    use crate::endpoint::EndpointId;
    use crate::error::Result;
    use bytes::Bytes;
    use parking_lot::Mutex;

    /// A scripted receiver: pops from a shared vec on each poll.
    struct Scripted {
        inbox: Arc<Mutex<Vec<Rsr>>>,
        polls: Arc<Mutex<u64>>,
    }

    impl CommReceiver for Scripted {
        fn poll(&mut self) -> Result<Option<Rsr>> {
            *self.polls.lock() += 1;
            Ok(self.inbox.lock().pop())
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Rsr>> {
            let deadline = std::time::Instant::now() + timeout;
            loop {
                if let Some(m) = self.inbox.lock().pop() {
                    *self.polls.lock() += 1;
                    return Ok(Some(m));
                }
                if std::time::Instant::now() >= deadline {
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    type Inbox = Arc<Mutex<Vec<Rsr>>>;
    type PollCount = Arc<Mutex<u64>>;

    fn scripted() -> (Scripted, Inbox, PollCount) {
        let inbox = Arc::new(Mutex::new(Vec::new()));
        let polls = Arc::new(Mutex::new(0));
        (
            Scripted {
                inbox: Arc::clone(&inbox),
                polls: Arc::clone(&polls),
            },
            inbox,
            polls,
        )
    }

    fn msg(h: &str) -> Rsr {
        Rsr::new(ContextId(0), EndpointId(0), h, Bytes::new())
    }

    #[test]
    fn poll_rotates_all_sources_by_default() {
        let mut eng = PollEngine::new();
        let (r1, in1, _) = scripted();
        let (r2, in2, _) = scripted();
        eng.add_source(MethodId::MPL, Box::new(r1));
        eng.add_source(MethodId::TCP, Box::new(r2));
        in1.lock().push(msg("a"));
        in2.lock().push(msg("b"));
        let out = eng.poll_once();
        assert_eq!(out.messages.len(), 2);
        for s in &eng.sources {
            assert_eq!(s.rec.polls.load(Ordering::Relaxed), 1, "{}", s.method);
        }
    }

    #[test]
    fn skip_poll_reduces_probe_frequency() {
        let mut eng = PollEngine::new();
        let (r1, _, p1) = scripted();
        let (r2, _, p2) = scripted();
        eng.add_source(MethodId::MPL, Box::new(r1));
        eng.add_source(MethodId::TCP, Box::new(r2));
        assert!(eng.set_skip_poll(MethodId::TCP, 5));
        for _ in 0..20 {
            eng.poll_once();
        }
        assert_eq!(*p1.lock(), 20, "cheap method polled every time");
        assert_eq!(*p2.lock(), 4, "expensive method polled every 5th time");
    }

    #[test]
    fn skip_poll_one_means_every_call_and_zero_is_clamped() {
        let mut eng = PollEngine::new();
        let (r1, _, p1) = scripted();
        eng.add_source(MethodId::TCP, Box::new(r1));
        eng.set_skip_poll(MethodId::TCP, 0);
        assert_eq!(eng.skip_poll(MethodId::TCP), Some(1));
        for _ in 0..3 {
            eng.poll_once();
        }
        assert_eq!(*p1.lock(), 3);
        assert!(!eng.set_skip_poll(MethodId::UDP, 2));
    }

    #[test]
    fn messages_still_arrive_with_skip_poll_just_later() {
        let mut eng = PollEngine::new();
        let (r, inbox, _) = scripted();
        eng.add_source(MethodId::TCP, Box::new(r));
        eng.set_skip_poll(MethodId::TCP, 3);
        inbox.lock().push(msg("late"));
        let mut got_at = None;
        for i in 1..=6 {
            let out = eng.poll_once();
            if !out.messages.is_empty() {
                got_at = Some(i);
                break;
            }
        }
        assert_eq!(got_at, Some(3));
    }

    #[test]
    fn remove_source_stops_polling_it() {
        let mut eng = PollEngine::new();
        let (r1, _, p1) = scripted();
        eng.add_source(MethodId::TCP, Box::new(r1));
        let taken = eng.remove_source(MethodId::TCP);
        assert!(taken.is_some());
        eng.poll_once();
        assert_eq!(*p1.lock(), 0);
        assert!(eng.remove_source(MethodId::TCP).is_none());
    }

    #[test]
    fn adaptive_skip_grows_while_silent() {
        let mut eng = PollEngine::new();
        let (r, _, _) = scripted();
        eng.add_source(MethodId::TCP, Box::new(r));
        eng.set_adaptive(
            MethodId::TCP,
            AdaptiveSkipPoll {
                min: 1,
                max: 64,
                grow_after: 4,
                ..Default::default()
            },
        );
        assert_eq!(eng.skip_poll(MethodId::TCP), Some(1));
        // 4 empty probes -> skip 2; 4 more -> 4; ... capped at 64.
        for _ in 0..1000 {
            eng.poll_once();
        }
        assert_eq!(eng.skip_poll(MethodId::TCP), Some(64), "capped at max");
    }

    #[test]
    fn adaptive_skip_falls_on_traffic() {
        let mut eng = PollEngine::new();
        let (r, inbox, _) = scripted();
        eng.add_source(MethodId::TCP, Box::new(r));
        eng.set_skip_poll(MethodId::TCP, 32);
        eng.set_adaptive(
            MethodId::TCP,
            AdaptiveSkipPoll {
                min: 1,
                max: 64,
                grow_after: 1_000_000,
                ..Default::default()
            },
        );
        assert_eq!(eng.skip_poll(MethodId::TCP), Some(32));
        // Each delivered message halves the skip: 32 -> 16 -> 8 -> 4.
        for expect in [16u64, 8, 4] {
            inbox.lock().push(msg("m"));
            loop {
                let out = eng.poll_once();
                if !out.messages.is_empty() {
                    break;
                }
            }
            assert_eq!(eng.skip_poll(MethodId::TCP), Some(expect));
        }
    }

    #[test]
    fn adaptive_respects_min_bound_and_manual_reset() {
        let mut eng = PollEngine::new();
        let (r, inbox, _) = scripted();
        eng.add_source(MethodId::TCP, Box::new(r));
        eng.set_adaptive(
            MethodId::TCP,
            AdaptiveSkipPoll {
                min: 4,
                max: 64,
                grow_after: 2,
                ..Default::default()
            },
        );
        assert_eq!(eng.skip_poll(MethodId::TCP), Some(4), "clamped up to min");
        inbox.lock().push(msg("m"));
        loop {
            if !eng.poll_once().messages.is_empty() {
                break;
            }
        }
        assert_eq!(eng.skip_poll(MethodId::TCP), Some(4), "min bound holds");
        // Manual set_skip_poll disables adaptation.
        eng.set_skip_poll(MethodId::TCP, 7);
        for _ in 0..100 {
            eng.poll_once();
        }
        assert_eq!(
            eng.skip_poll(MethodId::TCP),
            Some(7),
            "no drift after manual set"
        );
    }

    #[test]
    fn blocking_poller_delivers_and_stops() {
        let (r, inbox, _) = scripted();
        let poller = BlockingPoller::spawn(
            MethodId::TCP,
            Box::new(r),
            Duration::from_millis(5),
            Arc::default(),
        )
        .expect("spawn poller");
        inbox.lock().push(msg("x"));
        let mut got = None;
        for _ in 0..200 {
            if let Some(m) = poller.try_pop() {
                got = Some(m);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got.expect("message should arrive").handler, "x");
        poller.stop();
    }

    #[test]
    fn poll_outcome_records_empty_probes() {
        let mut eng = PollEngine::new();
        let (r, _, _) = scripted();
        eng.add_source(MethodId::MPL, Box::new(r));
        let out = eng.poll_once();
        let snap = eng.trace.snapshot_method(MethodId::MPL);
        assert_eq!((snap.polls, snap.empty_polls), (1, 1));
        assert!(out.messages.is_empty());
        assert!(out.errors.is_empty());
    }

    /// A receiver whose every poll fails with a transport error.
    struct Failing;

    impl CommReceiver for Failing {
        fn poll(&mut self) -> Result<Option<Rsr>> {
            Err(NexusError::ConnectionClosed)
        }
        fn recv_timeout(&mut self, _timeout: Duration) -> Result<Option<Rsr>> {
            Err(NexusError::ConnectionClosed)
        }
    }

    #[test]
    fn erroring_source_does_not_drop_retrieved_messages() {
        // Regression: an error from one source used to turn the whole pass
        // into Err, discarding messages other sources had already handed
        // over. The erroring source comes first so its failure happens
        // before the delivering source is probed.
        let mut eng = PollEngine::new();
        let (good, inbox, _) = scripted();
        eng.add_source(MethodId::TCP, Box::new(Failing));
        eng.add_source(MethodId::MPL, Box::new(good));
        inbox.lock().push(msg("survivor"));
        let out = eng.poll_once();
        assert_eq!(out.messages.len(), 1, "delivered message must survive");
        assert_eq!(out.messages[0].1.handler, "survivor");
        assert_eq!(out.errors.len(), 1, "and the error must be reported");
        assert_eq!(out.errors[0].0, MethodId::TCP);
        assert!(matches!(out.errors[0].1, NexusError::ConnectionClosed));
        // The erroring source stays in the rotation and keeps reporting.
        let again = eng.poll_once();
        assert_eq!(again.errors.len(), 1);
    }

    #[test]
    fn engine_records_polls_errors_and_sampled_costs_into_its_trace() {
        let trace = Arc::new(Trace::new());
        let mut eng = PollEngine::with_trace(Arc::clone(&trace));
        let (good, inbox, _) = scripted();
        eng.add_source(MethodId::MPL, Box::new(good));
        eng.add_source(MethodId::TCP, Box::new(Failing));
        inbox.lock().push(msg("m"));
        for _ in 0..3 {
            eng.poll_once();
        }
        let mpl = trace.snapshot_method(MethodId::MPL);
        assert_eq!(mpl.polls, 3);
        assert_eq!(mpl.empty_polls, 2, "one probe found the message");
        assert_eq!(mpl.recvs, 1);
        let tcp = trace.snapshot_method(MethodId::TCP);
        assert_eq!(tcp.polls, 3);
        assert_eq!(tcp.poll_errors, 3);
        let ewma = trace.get_method(MethodId::MPL).unwrap();
        // The first probe of a source is always a timed sample; of the
        // three probes only it falls on the sampling grid. A mutex-guarded
        // vec pop stays well under a second.
        assert_eq!(ewma.poll_cost_ns.samples(), 1);
        assert!(ewma.poll_cost_ns.value().unwrap() < 1e9);
    }

    #[test]
    fn adaptive_changes_are_reported_as_skip_changes() {
        let mut eng = PollEngine::new();
        let (r, _, _) = scripted();
        eng.add_source(MethodId::TCP, Box::new(r));
        eng.set_adaptive(
            MethodId::TCP,
            AdaptiveSkipPoll {
                min: 1,
                max: 8,
                grow_after: 2,
                ..Default::default()
            },
        );
        let mut changes = Vec::new();
        for _ in 0..6 {
            changes.extend(eng.poll_once().skip_changes);
        }
        assert_eq!(
            changes,
            vec![
                SkipChange {
                    method: MethodId::TCP,
                    from: 1,
                    to: 2
                },
                SkipChange {
                    method: MethodId::TCP,
                    from: 2,
                    to: 4
                },
            ]
        );
    }

    #[test]
    fn cost_layer_owns_skip_under_steady_load_without_oscillation() {
        let mut eng = PollEngine::new();
        let (r, inbox, _) = scripted();
        eng.add_source(MethodId::TCP, Box::new(r));
        eng.set_adaptive(
            MethodId::TCP,
            AdaptiveSkipPoll {
                min: 1,
                max: 64,
                grow_after: 4,
                update_every: 16,
                ..Default::default()
            },
        );
        // Steady saturating load: every probe finds a message. The
        // reactive layer alone would pin the skip at min while the streak
        // never grows — but after `update_every` probes the cost layer
        // takes over and must then hold the skip still (dead band), not
        // bounce it between halve and double.
        let mut changes_after_warmup = Vec::new();
        for i in 0..400 {
            inbox.lock().push(msg("steady"));
            let out = eng.poll_once();
            if i >= 64 {
                changes_after_warmup.extend(out.skip_changes);
            }
        }
        assert!(
            changes_after_warmup.is_empty(),
            "skip oscillated under steady load: {changes_after_warmup:?}"
        );
        // With every probe hitting, k* = sqrt(2·c / (1/k · c/k)) ≈ k·√2
        // per single-source pass cost — the law keeps the skip at the low
        // end rather than backing off a live method.
        assert!(eng.skip_poll(MethodId::TCP).unwrap() <= 2);
    }

    /// A doorbell-capable receiver: lock-free inbox plus a write-once
    /// bell, mirroring how real transports install the signal.
    struct BellInbox {
        queue: SegQueue<Rsr>,
        bell: std::sync::OnceLock<ReadySignal>,
    }

    impl BellInbox {
        fn send(&self, m: Rsr) {
            self.queue.push(m);
            if let Some(b) = self.bell.get() {
                b.ring();
            }
        }
    }

    struct Belled {
        inbox: Arc<BellInbox>,
        polls: PollCount,
    }

    impl CommReceiver for Belled {
        fn poll(&mut self) -> Result<Option<Rsr>> {
            *self.polls.lock() += 1;
            Ok(self.inbox.queue.pop())
        }
        fn set_ready_signal(&mut self, signal: ReadySignal) -> bool {
            self.inbox.bell.set(signal).is_ok()
        }
    }

    fn belled() -> (Belled, Arc<BellInbox>, PollCount) {
        let inbox = Arc::new(BellInbox {
            queue: SegQueue::new(),
            bell: std::sync::OnceLock::new(),
        });
        let polls = Arc::new(Mutex::new(0));
        (
            Belled {
                inbox: Arc::clone(&inbox),
                polls: Arc::clone(&polls),
            },
            inbox,
            polls,
        )
    }

    #[test]
    fn armed_source_is_drained_via_the_ready_path() {
        let mut eng = PollEngine::new();
        let (r, inbox, _) = belled();
        eng.add_source(MethodId::TCP, Box::new(r));
        assert!(!eng.is_armed(MethodId::TCP));
        assert!(eng.arm_ready(MethodId::TCP));
        assert!(eng.is_armed(MethodId::TCP));
        // Drain the priming ring so the next pass starts parked.
        eng.poll_once();
        inbox.send(msg("rung"));
        let out = eng.poll_once();
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].1.handler, "rung");
        assert_eq!(out.ready_wakeups, vec![(MethodId::TCP, 1)]);
    }

    #[test]
    fn idle_armed_source_is_never_probed() {
        let mut eng = PollEngine::new();
        let (r, _, polls) = belled();
        eng.add_source(MethodId::TCP, Box::new(r));
        assert!(eng.arm_ready(MethodId::TCP));
        eng.poll_once(); // service the priming ring
        let after_prime = *polls.lock();
        for _ in 0..50 {
            eng.poll_once();
        }
        assert_eq!(
            *polls.lock(),
            after_prime,
            "an idle armed source must cost zero probes per pass"
        );
    }

    #[test]
    fn arming_is_rejected_by_non_supporting_receivers() {
        let mut eng = PollEngine::new();
        let (r, inbox, _) = scripted();
        eng.add_source(MethodId::TCP, Box::new(r));
        assert!(!eng.arm_ready(MethodId::TCP), "scripted has no doorbell");
        assert!(!eng.is_armed(MethodId::TCP));
        assert!(!eng.arm_ready(MethodId::UDP), "unknown method");
        // The source stays in the polled rotation and still delivers.
        inbox.lock().push(msg("polled"));
        assert_eq!(eng.poll_once().messages.len(), 1);
    }

    #[test]
    fn messages_sent_before_arming_are_recovered_by_the_priming_ring() {
        // A transport can enqueue between open() and arm_ready(); the bell
        // was not installed yet, so nobody rang. The priming ring makes
        // the first pass after arming visit the source anyway.
        let mut eng = PollEngine::new();
        let (r, inbox, _) = belled();
        inbox.queue.push(msg("early"));
        eng.add_source(MethodId::TCP, Box::new(r));
        assert!(eng.arm_ready(MethodId::TCP));
        let out = eng.poll_once();
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].1.handler, "early");
    }

    #[test]
    fn ready_visit_is_bounded_by_batch_and_rerings_itself() {
        let mut eng = PollEngine::new();
        let (r, inbox, _) = belled();
        eng.add_source(MethodId::TCP, Box::new(r));
        assert!(eng.arm_ready(MethodId::TCP));
        for i in 0..40 {
            inbox.send(msg(if i % 2 == 0 { "a" } else { "b" }));
        }
        // One visit drains at most READY_BATCH, then re-rings its own
        // bell so the remainder lands in the next pass instead of
        // starving every other source.
        let first = eng.poll_once();
        assert_eq!(first.messages.len(), READY_BATCH as usize);
        let second = eng.poll_once();
        assert_eq!(second.messages.len(), 40 - READY_BATCH as usize);
        assert!(eng.poll_once().messages.is_empty());
    }

    #[test]
    fn stale_tokens_from_removed_sources_are_skipped() {
        let mut eng = PollEngine::new();
        let (r1, inbox1, _) = belled();
        let (r2, inbox2, _) = belled();
        eng.add_source(MethodId::TCP, Box::new(r1));
        eng.add_source(MethodId::UDP, Box::new(r2));
        assert!(eng.arm_ready(MethodId::TCP));
        assert!(eng.arm_ready(MethodId::UDP));
        // TCP's priming token (and a real ring) are still queued when the
        // source goes away; the engine must drop them on the floor.
        inbox1.send(msg("orphan"));
        assert!(eng.remove_source(MethodId::TCP).is_some());
        inbox2.send(msg("survivor"));
        let out = eng.poll_once();
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].0, MethodId::UDP);
    }

    #[test]
    fn erroring_adaptive_source_backs_off_to_max() {
        // Regression: an `Err` probe fed neither the empty streak nor the
        // hit EWMA, so a dead transport under adaptive control was probed
        // at minimum skip forever.
        let mut eng = PollEngine::new();
        eng.add_source(MethodId::TCP, Box::new(Failing));
        eng.set_adaptive(
            MethodId::TCP,
            AdaptiveSkipPoll {
                min: 1,
                max: 8,
                grow_after: 2,
                ..Default::default()
            },
        );
        for _ in 0..100 {
            eng.poll_once();
        }
        assert_eq!(
            eng.skip_poll(MethodId::TCP),
            Some(8),
            "persistent errors must drive the skip to cfg.max"
        );
    }

    #[test]
    fn ready_error_is_reported_and_visit_rerings() {
        // An armed source whose transport dies: the error surfaces once
        // per pass (re-ring keeps it visible) without wedging the engine.
        struct BelledFailing;
        impl CommReceiver for BelledFailing {
            fn poll(&mut self) -> Result<Option<Rsr>> {
                Err(NexusError::ConnectionClosed)
            }
            fn set_ready_signal(&mut self, _signal: ReadySignal) -> bool {
                true
            }
        }
        let mut eng = PollEngine::new();
        eng.add_source(MethodId::TCP, Box::new(BelledFailing));
        assert!(eng.arm_ready(MethodId::TCP));
        for _ in 0..3 {
            let out = eng.poll_once();
            assert_eq!(out.errors.len(), 1);
            assert!(matches!(out.errors[0].1, NexusError::ConnectionClosed));
        }
    }

    #[test]
    fn blocking_poller_counts_errors_and_backs_off() {
        let trace = Arc::new(Trace::new());
        let poller = BlockingPoller::spawn(
            MethodId::TCP,
            Box::new(Failing),
            Duration::from_millis(1),
            Arc::clone(&trace),
        )
        .expect("spawn poller");
        std::thread::sleep(Duration::from_millis(60));
        let seen = poller.error_count();
        assert!(seen >= 2, "errors keep being counted, saw {seen}");
        // Exponential backoff: 60 ms admits at most 1+2+4+8+16+32 ms of
        // sleeping ≈ 6 errors; a 1 ms flat sleep would admit ~60.
        assert!(seen <= 10, "backoff must slow the error loop, saw {seen}");
        assert_eq!(trace.snapshot_method(MethodId::TCP).poll_errors, seen);
        let events = trace.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::PollError { method, .. } if method == MethodId::TCP)),
            "poll errors surface in the event ring"
        );
        poller.stop();
    }

    #[test]
    fn stale_token_from_a_removed_source_is_skipped_mid_drain() {
        let mut eng = PollEngine::new();
        let (r0, inbox0, _) = belled();
        let (r1, inbox1, _) = belled();
        eng.add_source(MethodId::TCP, Box::new(r0));
        eng.add_source(MethodId::UDP, Box::new(r1));
        assert!(eng.arm_ready(MethodId::TCP));
        assert!(eng.arm_ready(MethodId::UDP));
        eng.poll_once(); // service the priming rings
                         // Both sources ring, then the first is removed while its token is
                         // still sitting on the ready list.
        inbox0.send(msg("stale"));
        inbox1.send(msg("live"));
        let removed = eng.remove_source(MethodId::TCP);
        assert!(removed.is_some());
        let out = eng.poll_once();
        assert!(out.errors.is_empty());
        assert_eq!(out.messages.len(), 1, "only the live source delivers");
        assert_eq!(out.messages[0].0, MethodId::UDP);
        assert_eq!(out.messages[0].1.handler, "live");
        // The stale token is consumed, not re-queued: the next pass does
        // no ready work at all.
        let out = eng.poll_once();
        assert!(out.messages.is_empty());
        assert!(out.ready_wakeups.is_empty());
    }

    #[test]
    fn ring_storm_from_eight_producers_queues_the_token_exactly_once() {
        const PRODUCERS: usize = 8;
        const RINGS_EACH: usize = 1000;
        let list = Arc::new(SegQueue::new());
        let signal = ReadySignal::new(7, Arc::clone(&list));
        std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                let signal = &signal;
                s.spawn(move || {
                    for _ in 0..RINGS_EACH {
                        signal.ring();
                    }
                });
            }
        });
        // Only the observer of the false->true transition pushes, so the
        // whole storm queues exactly one entry.
        assert_eq!(list.pop(), Some(7));
        assert_eq!(list.pop(), None, "storm queued the token more than once");
        // After the consumer clears, the next ring re-queues exactly once.
        signal.clear();
        signal.ring();
        signal.ring();
        assert_eq!(list.pop(), Some(7));
        assert_eq!(list.pop(), None);
    }
}
