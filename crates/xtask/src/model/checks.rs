//! The invariant checks the model checker drives.
//!
//! Each check hammers one of the lock-free structures from `nexus-rt` —
//! the trace layer's ring/EWMA/histogram, and the poll engine's doorbell
//! protocol — and asserts an invariant that must hold under *every*
//! schedule. Randomized checks take a seed that fully determines each
//! thread's op program, so a failing seed replays the same programs.

use super::dpor;
use super::rng::XorShift64;
use super::socket::{self, Program, Start};
use nexus_rt::context::ContextId;
use nexus_rt::descriptor::MethodId;
use nexus_rt::endpoint::EndpointId;
use nexus_rt::error::Result as NexusResult;
use nexus_rt::module::CommReceiver;
use nexus_rt::poll::{PollEngine, ReadySignal, SegQueue};
use nexus_rt::rsr::Rsr;
use nexus_rt::trace::{Ewma, LogHistogram, Trace, TraceEventKind};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};

/// How a check explores schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sleep-set exploration of every inequivalent op interleaving
    /// (see [`super::dpor`]); runs once, deterministically.
    Systematic,
    /// Real threads with seeded op programs; runs once per schedule.
    Randomized,
}

/// Inputs to one check execution.
pub struct CheckCtx {
    /// Schedule seed (randomized checks).
    pub seed: u64,
    /// Worker thread count (randomized checks).
    pub threads: usize,
    /// Replay exactly this interleaving instead of exploring
    /// (systematic checks).
    pub schedule: Option<Vec<usize>>,
}

/// One registered check.
pub struct Check {
    /// Stable name used by `--check` and failure reports.
    pub name: &'static str,
    /// One-line description for `--list-checks`.
    pub description: &'static str,
    /// Exploration strategy.
    pub kind: Kind,
    /// Runs one execution, returning the number of schedules it covered;
    /// `Err` describes the violated invariant (systematic checks embed
    /// the violating schedule as a `[schedule NNN]` marker).
    pub run: fn(&CheckCtx) -> Result<u64, String>,
}

/// All checks, in run order.
pub const CHECKS: &[Check] = &[
    Check {
        name: "ring-exhaustive",
        description: "event-ring eviction invariants under every 3-thread op interleaving",
        kind: Kind::Systematic,
        run: ring_exhaustive,
    },
    Check {
        name: "ring-seq-order",
        description: "event-ring seq numbers stay ordered and dense under contention",
        kind: Kind::Randomized,
        run: ring_seq_order,
    },
    Check {
        name: "ewma-first-sample",
        description: "EWMA of one constant is exactly that constant (init race)",
        kind: Kind::Randomized,
        run: ewma_first_sample,
    },
    Check {
        name: "ewma-bounds",
        description: "EWMA stays within the recorded sample range",
        kind: Kind::Randomized,
        run: ewma_bounds,
    },
    Check {
        name: "histogram-exact",
        description: "histogram count/sum/extremes match the recorded program exactly",
        kind: Kind::Randomized,
        run: histogram_exact,
    },
    Check {
        name: "histogram-monotone",
        description: "histogram count() is non-decreasing for a concurrent reader",
        kind: Kind::Randomized,
        run: histogram_monotone,
    },
    Check {
        name: "doorbell",
        description: "readiness doorbell loses no wakeups: every enqueue is drained",
        kind: Kind::Randomized,
        run: doorbell,
    },
    Check {
        name: "doorbell-dpor",
        description: "doorbell protocol on real ReadySignals under every op interleaving",
        kind: Kind::Systematic,
        run: doorbell_dpor,
    },
    Check {
        name: "rearm-dpor",
        description: "reactor::SourceState hot/resting/cold hand-off: no re-arm misses an arrival \
             or a peer",
        kind: Kind::Systematic,
        run: |cx| socket::check(cx.schedule.as_deref(), Program::Rearm, &[Start::Cold]),
    },
    Check {
        name: "handoff",
        description: "reactor::SourceState: a dialled socket handed to a hot, resting or cold \
             TCP receiver is taken once, read, and armed",
        kind: Kind::Systematic,
        run: |cx| {
            let starts = [Start::Cold, Start::Hot, Start::Resting];
            socket::check(cx.schedule.as_deref(), Program::Handoff, &starts)
        },
    },
    Check {
        name: "stage-flush",
        description:
            "TCP write staging: a quiescent staged frame is always claimed and listed for a flush",
        kind: Kind::Systematic,
        run: stage_flush,
    },
];

/// Drives a systematic spec: full exploration by default, single-schedule
/// replay of `schedule` (`--schedule`) when given.
pub(super) fn systematic<S>(
    schedule: Option<&[usize]>,
    footprints: &[Vec<u64>],
    init: &dyn Fn() -> S,
    step: &dyn Fn(&mut S, usize, usize),
    check: &dyn Fn(&mut S) -> Result<(), String>,
) -> Result<u64, String> {
    match schedule {
        Some(s) => dpor::replay(footprints, init, step, check, s).map(|()| 1),
        None => dpor::explore(footprints, init, step, check)
            .map(|stats| stats.schedules)
            .map_err(|v| v.to_string()),
    }
}

/// Looks up a check by name.
pub fn find_check(name: &str) -> Option<&'static Check> {
    CHECKS.iter().find(|c| c.name == name)
}

/// Seeded spin between ops. Deliberately never yields: on a single-core
/// host a cooperative yield switches threads at the op *boundary*, which
/// is outside every race window — the involuntary timeslice preemptions
/// that land mid-operation are what expose races, and those need the
/// threads to stay CPU-bound.
fn pause(rng: &mut XorShift64) {
    for _ in 0..rng.next_below(24) {
        std::hint::spin_loop();
    }
}

fn push_marker(trace: &Trace, thread: u64, op: u64) {
    trace.record_event(TraceEventKind::SkipPollChange {
        method: MethodId::TCP,
        from: thread,
        to: op,
    });
}

/// Shared post-conditions for a ring that received `total` pushes.
fn check_ring(trace: &Trace, capacity: usize, total: u64) -> Result<(), String> {
    if trace.events_recorded() != total {
        return Err(format!(
            "events_recorded = {}, expected {total}",
            trace.events_recorded()
        ));
    }
    let events = trace.events();
    let want_len = capacity.min(total as usize);
    if events.len() != want_len {
        return Err(format!(
            "ring holds {} events, expected {want_len} (capacity {capacity}, total {total})",
            events.len()
        ));
    }
    for w in events.windows(2) {
        if w[0].seq >= w[1].seq {
            return Err(format!(
                "ring order broken: seq {} precedes seq {} (lost update or \
                 out-of-order insert)",
                w[0].seq, w[1].seq
            ));
        }
    }
    // Eviction must drop the *oldest* events: the survivors are exactly
    // the top `want_len` sequence numbers.
    if let Some(first) = events.first() {
        let want_first = total - want_len as u64;
        if first.seq != want_first {
            return Err(format!(
                "oldest surviving seq is {}, expected {want_first}: eviction \
                 dropped the wrong events",
                first.seq
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// ring checks
// ---------------------------------------------------------------------------

/// Systematic sweep of the real ring: three scripted threads push four
/// markers each, under *every* merge order (sequential execution — this
/// validates the eviction/seq logic itself; the randomized tier covers
/// the data races). Ring pushes do not commute (each claims the next
/// seq), so every op shares one footprint and nothing is pruned.
fn ring_exhaustive(cx: &CheckCtx) -> Result<u64, String> {
    const THREADS: usize = 3;
    const OPS: usize = 4;
    const CAPACITY: usize = 3;
    let footprints = vec![vec![1u64; OPS]; THREADS];
    struct RingRun {
        trace: Trace,
        done: [u64; THREADS],
    }
    let init = || RingRun {
        trace: Trace::with_capacity(CAPACITY),
        done: [0; THREADS],
    };
    let step = |st: &mut RingRun, t: usize, _op: usize| {
        push_marker(&st.trace, t as u64, st.done[t]);
        st.done[t] += 1;
    };
    let check = |st: &mut RingRun| check_ring(&st.trace, CAPACITY, (THREADS * OPS) as u64);
    systematic(cx.schedule.as_deref(), &footprints, &init, &step, &check)
}

/// Real-thread hammer: every thread pushes a seeded number of events with
/// seeded pauses; afterwards the ring must be ordered and dense.
fn ring_seq_order(cx: &CheckCtx) -> Result<u64, String> {
    let mut rng = XorShift64::new(cx.seed);
    let capacity = 4 + rng.next_below(60) as usize;
    // Short programs win: schedules/second is what finds races here, and
    // the spawn/exit churn around each schedule is itself a rich source of
    // involuntary preemption points.
    let per_thread: Vec<u64> = (0..cx.threads).map(|_| 8 + rng.next_below(25)).collect();
    let total: u64 = per_thread.iter().sum();
    let trace = Trace::with_capacity(capacity);
    let barrier = Barrier::new(cx.threads);
    std::thread::scope(|s| {
        for (t, &ops) in per_thread.iter().enumerate() {
            let trace = &trace;
            let barrier = &barrier;
            let mut trng = XorShift64::new(cx.seed.wrapping_add(1 + t as u64));
            s.spawn(move || {
                barrier.wait();
                for op in 0..ops {
                    push_marker(trace, t as u64, op);
                    pause(&mut trng);
                }
            });
        }
    });
    check_ring(&trace, capacity, total).map(|()| 1)
}

// ---------------------------------------------------------------------------
// EWMA checks
// ---------------------------------------------------------------------------

/// Every thread records the same constant; the average of a constant is
/// that constant, bit-exactly, no matter how the first-sample
/// initialization interleaves.
fn ewma_first_sample(cx: &CheckCtx) -> Result<u64, String> {
    const LEVEL: f64 = 250.0;
    let mut rng = XorShift64::new(cx.seed);
    let per_thread: Vec<u64> = (0..cx.threads).map(|_| 1 + rng.next_below(8)).collect();
    let total: u64 = per_thread.iter().sum();
    let ewma = Ewma::new(0.25);
    let barrier = Barrier::new(cx.threads);
    std::thread::scope(|s| {
        for &ops in &per_thread {
            let ewma = &ewma;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ops {
                    ewma.record(LEVEL);
                }
            });
        }
    });
    if ewma.samples() != total {
        return Err(format!("samples = {}, expected {total}", ewma.samples()));
    }
    match ewma.value() {
        Some(v) if v == LEVEL => Ok(1),
        Some(v) => Err(format!(
            "EWMA of a constant {LEVEL} is {v}: a sample folded against an \
             uninitialized average"
        )),
        None => Err(format!("EWMA reports no value after {total} samples")),
    }
}

/// Seeded samples in `[LO, HI]`; a weighted average can never leave the
/// sample range.
fn ewma_bounds(cx: &CheckCtx) -> Result<u64, String> {
    const LO: f64 = 100.0;
    const HI: f64 = 1000.0;
    let mut rng = XorShift64::new(cx.seed);
    let per_thread: Vec<u64> = (0..cx.threads).map(|_| 4 + rng.next_below(16)).collect();
    let total: u64 = per_thread.iter().sum();
    let ewma = Ewma::new(0.1);
    let barrier = Barrier::new(cx.threads);
    std::thread::scope(|s| {
        for (t, &ops) in per_thread.iter().enumerate() {
            let ewma = &ewma;
            let barrier = &barrier;
            let mut trng = XorShift64::new(cx.seed.wrapping_add(101 + t as u64));
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ops {
                    let sample = LO + trng.next_below((HI - LO) as u64 + 1) as f64;
                    ewma.record(sample);
                    pause(&mut trng);
                }
            });
        }
    });
    if ewma.samples() != total {
        return Err(format!("samples = {}, expected {total}", ewma.samples()));
    }
    match ewma.value() {
        Some(v) if (LO..=HI).contains(&v) => Ok(1),
        Some(v) => Err(format!(
            "EWMA {v} escaped the sample range [{LO}, {HI}]: an update folded \
             against a torn or uninitialized average"
        )),
        None => Err(format!("EWMA reports no value after {total} samples")),
    }
}

// ---------------------------------------------------------------------------
// histogram checks
// ---------------------------------------------------------------------------

/// Seeded values; afterwards count, sum, and both distribution extremes
/// must match the programs exactly — the histogram loses nothing.
fn histogram_exact(cx: &CheckCtx) -> Result<u64, String> {
    let mut rng = XorShift64::new(cx.seed);
    // Programs are derived up front so the expectation is computable
    // without touching the shared structure.
    let programs: Vec<Vec<u64>> = (0..cx.threads)
        .map(|t| {
            let mut trng = XorShift64::new(cx.seed.wrapping_add(201 + t as u64));
            let ops = 8 + rng.next_below(24) as usize;
            (0..ops).map(|_| trng.next_below(1 << 20)).collect()
        })
        .collect();
    let total: u64 = programs.iter().map(|p| p.len() as u64).sum();
    let sum: u64 = programs
        .iter()
        .flatten()
        .fold(0u64, |acc, v| acc.wrapping_add(*v));
    let max = programs.iter().flatten().copied().max().unwrap_or(0);
    let min = programs.iter().flatten().copied().min().unwrap_or(0);
    let hist = LogHistogram::new();
    let barrier = Barrier::new(cx.threads);
    std::thread::scope(|s| {
        for program in &programs {
            let hist = &hist;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for &v in program {
                    hist.record(v);
                }
            });
        }
    });
    if hist.count() != total {
        return Err(format!(
            "count = {}, expected {total}: recorded values were lost",
            hist.count()
        ));
    }
    if hist.sum() != sum {
        return Err(format!("sum = {}, expected {sum}", hist.sum()));
    }
    let want_top = LogHistogram::bucket_range(LogHistogram::bucket_index(max)).1;
    if hist.quantile(1.0) != Some(want_top) {
        return Err(format!(
            "q(1.0) = {:?}, expected {want_top} (max recorded {max})",
            hist.quantile(1.0)
        ));
    }
    let want_bottom = LogHistogram::bucket_range(LogHistogram::bucket_index(min)).1;
    if hist.quantile(0.0) != Some(want_bottom) {
        return Err(format!(
            "q(0.0) = {:?}, expected {want_bottom} (min recorded {min})",
            hist.quantile(0.0)
        ));
    }
    Ok(1)
}

/// A reader polling `count()` while writers hammer the histogram must
/// never observe the count go backwards (each bucket is monotone).
fn histogram_monotone(cx: &CheckCtx) -> Result<u64, String> {
    let mut rng = XorShift64::new(cx.seed);
    let per_thread: Vec<u64> = (0..cx.threads).map(|_| 64 + rng.next_below(64)).collect();
    let total: u64 = per_thread.iter().sum();
    let hist = LogHistogram::new();
    let barrier = Barrier::new(cx.threads + 1);
    let regressed = AtomicU64::new(u64::MAX); // sentinel: no regression seen
    std::thread::scope(|s| {
        for (t, &ops) in per_thread.iter().enumerate() {
            let hist = &hist;
            let barrier = &barrier;
            let mut trng = XorShift64::new(cx.seed.wrapping_add(301 + t as u64));
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ops {
                    hist.record(trng.next_below(1 << 12));
                }
            });
        }
        barrier.wait();
        let mut last = 0u64;
        loop {
            let now = hist.count();
            if now < last {
                regressed.store(now, Ordering::Relaxed);
                break;
            }
            last = now;
            if now == total {
                break;
            }
            std::hint::spin_loop();
        }
    });
    let r = regressed.load(Ordering::Relaxed);
    if r != u64::MAX {
        return Err(format!("count() went backwards to {r}"));
    }
    if hist.count() != total {
        return Err(format!("final count = {}, expected {total}", hist.count()));
    }
    Ok(1)
}

// ---------------------------------------------------------------------------
// doorbell check
// ---------------------------------------------------------------------------

/// A doorbell-capable inbox shared by producer threads and the
/// engine-owned receiver, mirroring how the queue transports install the
/// [`ReadySignal`]: enqueue first, ring after.
struct DoorInbox {
    queue: Mutex<VecDeque<Rsr>>,
    bell: OnceLock<ReadySignal>,
}

impl DoorInbox {
    fn send(&self, m: Rsr) {
        self.queue.lock().expect("inbox lock poisoned").push_back(m);
        if let Some(b) = self.bell.get() {
            b.ring();
        }
    }
}

struct DoorReceiver(Arc<DoorInbox>);

impl CommReceiver for DoorReceiver {
    fn poll(&mut self) -> NexusResult<Option<Rsr>> {
        Ok(self
            .0
            .queue
            .lock()
            .expect("inbox lock poisoned")
            .pop_front())
    }
    fn set_ready_signal(&mut self, signal: ReadySignal) -> bool {
        self.0.bell.set(signal).is_ok()
    }
}

/// Hammers the poll engine's no-missed-wakeup protocol with real threads:
/// seeded producers enqueue-and-ring into a seeded number of armed
/// sources while the main thread drains concurrently, racing each
/// producer's Release-swap of the ready flag against the drain's
/// Acquire-swap clear. After the producers join, the engine is polled
/// until a pass comes back empty; at that point every sent message must
/// have been retrieved. A protocol hole (flag cleared after the drain,
/// a relaxed swap, a lost token) strands messages behind an un-rung
/// doorbell, which this check reports as a deficit.
fn doorbell(cx: &CheckCtx) -> Result<u64, String> {
    let mut rng = XorShift64::new(cx.seed);
    let n_sources = 2 + rng.next_below(6) as usize;
    let per_thread: Vec<u64> = (0..cx.threads).map(|_| 16 + rng.next_below(48)).collect();
    let total: u64 = per_thread.iter().sum();

    let mut engine = PollEngine::new();
    let inboxes: Vec<Arc<DoorInbox>> = (0..n_sources)
        .map(|_| {
            Arc::new(DoorInbox {
                queue: Mutex::new(VecDeque::new()),
                bell: OnceLock::new(),
            })
        })
        .collect();
    for (i, inbox) in inboxes.iter().enumerate() {
        let method = MethodId(0x100 + i as u16);
        engine.add_source(method, Box::new(DoorReceiver(Arc::clone(inbox))));
        if !engine.arm_ready(method) {
            return Err(format!("source {i} refused the doorbell"));
        }
    }

    let barrier = Barrier::new(cx.threads + 1);
    let live_producers = AtomicUsize::new(cx.threads);
    let mut received = 0u64;
    std::thread::scope(|s| {
        for (t, &ops) in per_thread.iter().enumerate() {
            let inboxes = &inboxes;
            let barrier = &barrier;
            let live = &live_producers;
            let mut trng = XorShift64::new(cx.seed.wrapping_add(401 + t as u64));
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ops {
                    let which = trng.next_below(inboxes.len() as u64) as usize;
                    inboxes[which].send(Rsr::new(
                        ContextId(0),
                        EndpointId(0),
                        "doorbell",
                        Default::default(),
                    ));
                    pause(&mut trng);
                }
                live.fetch_sub(1, Ordering::Release);
            });
        }
        barrier.wait();
        // Concurrent phase: drain while producers ring, so clears race
        // live rings mid-burst rather than only after quiescence.
        while live_producers.load(Ordering::Acquire) > 0 {
            received += engine.poll_once().messages.len() as u64;
        }
    });
    // Quiescent phase: no producer is left, so every remaining message
    // already had its ring. Poll until a pass retrieves nothing (batched
    // drains re-ring themselves, so a non-empty backlog keeps passes
    // non-empty); anything still undelivered then is a lost wakeup.
    loop {
        let got = engine.poll_once().messages.len() as u64;
        if got == 0 {
            break;
        }
        received += got;
    }
    if received != total {
        let stranded: usize = inboxes
            .iter()
            .map(|i| i.queue.lock().expect("inbox lock poisoned").len())
            .sum();
        return Err(format!(
            "missed wakeup: retrieved {received} of {total} sent \
             ({stranded} stranded behind un-rung doorbells)"
        ));
    }
    Ok(1)
}

// ---------------------------------------------------------------------------
// systematic doorbell
// ---------------------------------------------------------------------------

/// One modeled source for the systematic doorbell check: a real
/// [`ReadySignal`] guarding an inbox, sharing the engine-shaped ready
/// list. Execution is sequential, so the inbox can be a `RefCell`.
struct DporSource {
    bell: ReadySignal,
    inbox: RefCell<VecDeque<u64>>,
}

struct DporDoorState {
    list: Arc<SegQueue<usize>>,
    sources: Vec<DporSource>,
    sent: Cell<u64>,
    received: Cell<u64>,
}

impl DporDoorState {
    fn new(n_sources: usize) -> Self {
        let list = Arc::new(SegQueue::new());
        let sources = (0..n_sources)
            .map(|token| DporSource {
                bell: ReadySignal::new(token, Arc::clone(&list)),
                inbox: RefCell::new(VecDeque::new()),
            })
            .collect();
        DporDoorState {
            list,
            sources,
            sent: Cell::new(0),
            received: Cell::new(0),
        }
    }

    /// Producer half: enqueue first, ring after.
    fn send(&self, src: usize, v: u64) {
        self.sources[src].inbox.borrow_mut().push_back(v);
        self.sent.set(self.sent.get() + 1);
        self.sources[src].bell.ring();
    }

    /// Consumer half: pop a token, clear its flag, then drain the inbox —
    /// the visit order [`PollEngine`]'s readiness tier uses.
    fn visit(&self) {
        if let Some(token) = self.list.pop() {
            self.sources[token].bell.clear();
            let drained = self.sources[token].inbox.borrow_mut().drain(..).count();
            self.received.set(self.received.get() + drained as u64);
        }
    }
}

/// The doorbell no-missed-wakeup protocol on real [`ReadySignal`]s,
/// under every interleaving of two producers and a visiting consumer.
/// Every op touches the shared ready list, so all conflict and the sweep
/// is a full enumeration; the `doorbell` randomized check keeps covering
/// the memory-ordering side with real threads.
fn doorbell_dpor(cx: &CheckCtx) -> Result<u64, String> {
    // Producer 0: two sends to source 0. Producer 1: one send to source
    // 1. Consumer: three visits.
    let footprints = vec![vec![1u64; 2], vec![1u64; 1], vec![1u64; 3]];
    let init = || DporDoorState::new(2);
    let step = |st: &mut DporDoorState, t: usize, op: usize| match t {
        0 => st.send(0, op as u64),
        1 => st.send(1, 100),
        _ => st.visit(),
    };
    let check = |st: &mut DporDoorState| -> Result<(), String> {
        // Quiescent drain: producers are done, so every undelivered
        // message must be reachable through a queued token.
        loop {
            let before = st.received.get();
            st.visit();
            if st.received.get() == before && st.list.is_empty() {
                break;
            }
        }
        if st.received == st.sent {
            Ok(())
        } else {
            let stranded: usize = st.sources.iter().map(|s| s.inbox.borrow().len()).sum();
            Err(format!(
                "missed wakeup: retrieved {} of {} sent ({stranded} stranded \
                 behind un-rung doorbells)",
                st.received.get(),
                st.sent.get()
            ))
        }
    };
    systematic(cx.schedule.as_deref(), &footprints, &init, &step, &check)
}

/// TCP write staging (`transports::tcp`, `Context::flush_listed`) as the
/// micro-op program in [`super::programs`]: a stager appends under the
/// writer lock and lists the connection after it when it took the owner
/// claim, a dispatch round pops an entry and flushes (releasing the claim
/// under the writer lock, before its write), and the backstop writes what
/// was already staged at its previous tick. At quiescence every staged
/// frame must be claimed and listed.
fn stage_flush(cx: &CheckCtx) -> Result<u64, String> {
    match &cx.schedule {
        Some(s) => super::programs::replay_stage_flush(false, s).map(|()| 1),
        None => super::programs::explore_stage_flush(false)
            .map(|stats| stats.schedules)
            .map_err(|v| v.to_string()),
    }
}
