//! The sharded multi-worker poll engine.
//!
//! A single progress thread services doorbells one at a time: fast per
//! pass (O(ready)), but every drained message and every handler still
//! runs on one core. This module is the other half of the scale story —
//! a [`WorkerPool`] of N threads that divides a context's readiness
//! tier across N [`ReadyShards`] shards:
//!
//! * every adopted source gets a pool-owned token; its doorbell queues
//!   the token on the token's home shard (a stride-mixing hash of the
//!   token — see `home_of`) and wakes a parked worker;
//! * worker `i` drains shard `i` (`pop_local`) as its fast path and
//!   steals from other shards (`pop_any`) when its own is empty, so a
//!   retired or slow worker can never strand traffic;
//! * a retiring worker hands its whole shard to a sibling with
//!   [`ReadyShards::handoff`] before exiting — the protocol whose
//!   lost-token window the xtask `shard-handoff` model check pins.
//!
//! Handler dispatch happens *on the worker thread* (the context's
//! dispatch path is `&self`), so both drain and handler work scale with
//! cores. The polled tier (mpl, delay) and blocking pollers are not
//! adopted: they stay with the context's own `progress` passes.
//!
//! ## Shutdown / lock ordering
//!
//! The pool follows the PR 6 discipline: no lock is held across a join
//! or a receiver `close()`. `shutdown` flips the stop flag, wakes and
//! joins the workers (holding nothing), services what the retiring
//! workers handed off, and only then closes receivers.

use crate::context::Context;
use crate::descriptor::MethodId;
use crate::module::CommReceiver;
use crate::poll::{ready_visit, ReadyShards, ReadySignal, ReadySink};
use crate::rsr::Rsr;
use crate::trace::MethodTrace;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on a worker's park between wakeup checks. The waker's
/// notify is edge-style (no lock on the producer's hot path), so a
/// wakeup racing a worker mid-park-entry can be missed; the timeout
/// bounds that miss to one park period instead of forever.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Per-shard service counters, recorded lock-free by whichever worker
/// services the shard's tokens.
#[derive(Default)]
struct ShardCounters {
    /// Doorbell services performed for tokens homed on this shard.
    wakeups: AtomicU64,
    /// Messages drained from this shard's sources.
    messages: AtomicU64,
    /// Services of this shard's tokens performed by a non-home worker
    /// (pop_any steals and post-handoff takeovers).
    steals: AtomicU64,
    /// Handoffs that moved this shard's backlog to a sibling.
    handoffs: AtomicU64,
}

/// Point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Doorbell services for tokens homed on this shard.
    pub wakeups: u64,
    /// Messages drained from this shard's sources.
    pub messages: u64,
    /// Services performed by a non-home worker.
    pub steals: u64,
    /// Handoffs that moved this shard's backlog elsewhere.
    pub handoffs: u64,
}

/// Parked-worker wakeup: a sequence counter the sink bumps per push and
/// a condvar workers park on when every shard they can see is empty.
///
/// The producer side is deliberately lock-free: `notify` bumps the
/// sequence and signals the condvar only when someone is actually
/// parked. A worker entering the park between the producer's sequence
/// bump and its parked-count read can miss the signal; [`PARK_TIMEOUT`]
/// bounds that race to one period, which is the explicit trade for
/// keeping the send path free of a mutex.
#[derive(Default)]
struct Waker {
    lock: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
    seq: AtomicU64,
    parked: AtomicUsize,
}

impl Waker {
    fn notify(&self) {
        // Release pairs with the Acquire loads in `park`: a worker that
        // observes the bumped sequence also observes the pushed token.
        self.seq.fetch_add(1, Ordering::Release);
        if self.parked.load(Ordering::Acquire) > 0 {
            // One push is one token: waking a single worker is enough
            // (it drains its shard and steals), and avoids a thundering
            // herd when every ring would otherwise wake the whole pool.
            // Each concurrent push issues its own notify, so k pushes
            // still wake up to k workers.
            self.cv.notify_one();
        }
    }

    /// Parks until notified, `timeout`, or the sequence moving past
    /// `seen` (a push that happened after the caller's last drain).
    fn park(&self, seen: u64, timeout: Duration) {
        self.parked.fetch_add(1, Ordering::Release);
        let guard = match self.lock.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if self.seq.load(Ordering::Acquire) == seen {
            // The () guard carries no data, so a poisoned result (a
            // panicking handler on another worker) is still a valid park.
            // Guards unlock by scope here — a `drop(..)` call would link
            // this fn to every `Drop` impl in the lint's name graph.
            let _woken = match self.cv.wait_timeout(guard, timeout) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        self.parked.fetch_sub(1, Ordering::Release);
    }
}

/// Home shard of a pool token: a Fibonacci multiplicative mix rather
/// than raw `token % shards`. Adoption installs each context's sources
/// as a contiguous run of tokens, so with S sources per context the hot
/// token sequence is strided (method m of every context ≡ m mod S) and
/// a raw modulo aliases with it — in the worst case every active source
/// lands on ONE shard and the pool degenerates to a single worker. The
/// mix spreads any strided sequence near-uniformly.
fn home_of(token: usize, shards: usize) -> usize {
    let mixed = (token as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (mixed as usize) % shards.max(1)
}

/// The sink handed to adopted sources' doorbells: route the token to its
/// home shard, then wake a parked worker.
struct PoolSink {
    shards: Arc<ReadyShards>,
    waker: Arc<Waker>,
}

impl ReadySink for PoolSink {
    fn push_ready(&self, token: usize) {
        let home = home_of(token, self.shards.shards());
        self.shards.push_to(home, token);
        self.waker.notify();
    }
}

/// One adopted source. The owning context is held weakly so a dropped
/// context cannot be kept alive (or kept from dropping) by its own
/// worker pool.
struct ShardSource {
    method: MethodId,
    ctx: Weak<Context>,
    receiver: Box<dyn CommReceiver>,
    signal: ReadySignal,
    /// The method's record in the owning context's trace.
    rec: Arc<MethodTrace>,
}

struct PoolShared {
    shards: Arc<ReadyShards>,
    sink: Arc<PoolSink>,
    /// Token-indexed source slots. Slots are only pushed, never removed,
    /// so a token is a stable identity for the pool's lifetime; the
    /// per-slot mutex is what lets any worker service any token (steals,
    /// post-handoff takeovers) without a global engine lock.
    slots: RwLock<Vec<Arc<Mutex<ShardSource>>>>,
    counters: Box<[ShardCounters]>,
    waker: Arc<Waker>,
    stop: AtomicBool,
}

impl PoolShared {
    fn shard_of(&self, token: usize) -> usize {
        home_of(token, self.shards.shards())
    }
}

/// N worker threads draining a sharded readiness tier — see the module
/// docs for the worker model.
///
/// One pool can adopt the armed sources of *many* contexts (the
/// many-link bench runs thousands of single-link contexts over one
/// pool), or exactly one (the [`Context::start_workers`] convenience).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `workers` threads (at least one), parked until
    /// sources are adopted.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shards = Arc::new(ReadyShards::new(workers));
        let waker = Arc::new(Waker::default());
        let shared = Arc::new(PoolShared {
            sink: Arc::new(PoolSink {
                shards: Arc::clone(&shards),
                waker: Arc::clone(&waker),
            }),
            shards,
            slots: RwLock::new(Vec::new()),
            counters: (0..workers).map(|_| ShardCounters::default()).collect(),
            waker,
            stop: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nexus-shard-worker-{i}"))
                    .spawn(move || shard_worker_loop(&shared, i))
                    .expect("spawn shard worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads / shards.
    pub fn workers(&self) -> usize {
        self.shared.shards.shards()
    }

    /// Moves `ctx`'s armed (readiness-tier) sources into the pool and
    /// re-arms each with a sharded doorbell. Returns how many sources
    /// were adopted; a receiver that refuses re-arming stays with the
    /// context's own engine. Polled-tier sources and blocking pollers
    /// are untouched.
    pub fn adopt(&self, ctx: &Arc<Context>) -> usize {
        let mut adopted = 0;
        for (method, receiver) in ctx.release_armed_sources() {
            match self.install_source(ctx, method, receiver) {
                Ok(signal) => {
                    // Prime: messages enqueued before adoption rang the
                    // *old* engine doorbell (or latched it), so nothing
                    // queues the new token for them. Clear-then-ring
                    // guarantees one service that drains any
                    // pre-adoption backlog.
                    signal.clear();
                    signal.ring();
                    adopted += 1;
                }
                // A receiver that refuses re-arming stays with the
                // context's own engine.
                Err(receiver) => ctx.restore_source(method, receiver),
            }
        }
        adopted
    }

    /// Installs one source as a token-addressed slot, or hands the
    /// receiver back if it refuses a doorbell. The write lock spans
    /// signal install → slot push: a producer ring in that window queues
    /// the token, and the worker that pops it blocks on `slots.read()`
    /// until the slot exists — no token can ever resolve to a missing
    /// slot.
    fn install_source(
        &self,
        ctx: &Arc<Context>,
        method: MethodId,
        mut receiver: Box<dyn CommReceiver>,
    ) -> std::result::Result<ReadySignal, Box<dyn CommReceiver>> {
        let mut slots = self.shared.slots.write();
        let token = slots.len();
        let signal = ReadySignal::with_sink(token, Arc::clone(&self.shared.sink));
        if !receiver.set_ready_signal(signal.clone()) {
            return Err(receiver);
        }
        slots.push(Arc::new(Mutex::new(ShardSource {
            method,
            ctx: Arc::downgrade(ctx),
            receiver,
            signal: signal.clone(),
            rec: ctx.trace().method(method),
        })));
        // Grow every shard ring to the installed-token count now, off the
        // hot path: the doorbell latch caps queue depth at one entry per
        // token, so after this no producer ring can force a reallocation
        // (the allocs/RSR residue the BENCH_rsr workers rows used to
        // carry was exactly these deque doublings under backlog).
        self.shared.shards.reserve(slots.len());
        Ok(signal)
    }

    /// Snapshot of every shard's service counters.
    pub fn shard_stats(&self) -> Vec<ShardSnapshot> {
        self.shared
            .counters
            .iter()
            .map(|c| ShardSnapshot {
                wakeups: c.wakeups.load(Ordering::Relaxed),
                messages: c.messages.load(Ordering::Relaxed),
                steals: c.steals.load(Ordering::Relaxed),
                handoffs: c.handoffs.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Rebalance: moves shard `from`'s queued tokens onto shard `to`
    /// (the same primitive a retiring worker uses). Tokens pushed
    /// concurrently stay behind, where the steal scan finds them.
    pub fn rebalance(&self, from: usize, to: usize) -> usize {
        let moved = self.shared.shards.handoff(from, to);
        if moved > 0 {
            self.shared.counters[from % self.workers()]
                .handoffs
                .fetch_add(1, Ordering::Relaxed);
        }
        moved
    }

    /// Stops the workers and returns every adopted source (receivers
    /// still open) so a caller can re-install them elsewhere. Pending
    /// doorbells are serviced inline before the sources are released —
    /// nothing a producer enqueued before the stop is stranded.
    pub fn into_sources(mut self) -> Vec<(MethodId, Weak<Context>, Box<dyn CommReceiver>)> {
        self.stop_and_join();
        self.drain_pending();
        let slots = std::mem::take(&mut *self.shared.slots.write());
        slots
            .into_iter()
            .map(|slot| {
                // Workers are joined and the pool is exiting: each slot
                // arc is ours alone now, but `try_unwrap` on an Arc of a
                // Mutex still needs a fallback path; re-locking is it.
                match Arc::try_unwrap(slot) {
                    Ok(m) => {
                        let s = m.into_inner();
                        (s.method, s.ctx, s.receiver)
                    }
                    Err(arc) => {
                        let mut s = arc.lock();
                        let method = s.method;
                        let ctx = s.ctx.clone();
                        let receiver = std::mem::replace(&mut s.receiver, Box::new(ClosedReceiver));
                        (method, ctx, receiver)
                    }
                }
            })
            .collect()
    }

    /// Stops the workers, services any still-pending doorbells, and
    /// closes every adopted receiver.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn stop_and_join(&mut self) {
        // Release pairs with the workers' Acquire loads of `stop`.
        self.shared.stop.store(true, Ordering::Release);
        self.shared.waker.notify();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Services every token still queued after the workers retired
    /// (their exit handoffs funneled the backlog to shard 0).
    fn drain_pending(&self) {
        while let Some(token) = self.shared.shards.pop_any(0) {
            service_token(&self.shared, 0, token);
        }
    }

    fn shutdown_in_place(&mut self) {
        self.stop_and_join();
        self.drain_pending();
        // Close after every lock is released: receiver close() can block
        // (reactor deregistration, pump joins) — same rule as
        // `Context::shutdown`.
        let slots = std::mem::take(&mut *self.shared.slots.write());
        for slot in slots {
            match Arc::try_unwrap(slot) {
                Ok(m) => m.into_inner().receiver.close(),
                Err(arc) => {
                    // Swap the receiver out under the slot lock, then close
                    // it with the guard dropped — close() can block.
                    let mut receiver: Box<dyn CommReceiver> = {
                        let mut slot = arc.lock();
                        std::mem::replace(&mut slot.receiver, Box::new(ClosedReceiver))
                    };
                    receiver.close();
                }
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Placeholder receiver left behind when a source is moved out of a
/// still-shared slot (cannot happen after a clean join; defensive).
struct ClosedReceiver;

impl CommReceiver for ClosedReceiver {
    fn poll(&mut self) -> crate::error::Result<Option<Rsr>> {
        Ok(None)
    }
}

/// One worker's life: drain the home shard, steal when idle, park when
/// there is nothing anywhere, and hand the shard's backlog to a sibling
/// on the way out.
fn shard_worker_loop(shared: &Arc<PoolShared>, shard: usize) {
    loop {
        // Acquire pairs with `stop_and_join`'s Release store.
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let seen = shared.waker.seq.load(Ordering::Acquire);
        let mut serviced = false;
        while let Some(token) = shared.shards.pop_local(shard) {
            service_token(shared, shard, token);
            serviced = true;
        }
        // Steal one token per idle pass: enough to drain a retired or
        // backlogged sibling over successive passes without turning every
        // worker into a scanner of all shards on every iteration.
        if let Some(token) = shared.shards.pop_any(shard) {
            service_token(shared, shard, token);
            serviced = true;
        }
        if !serviced {
            shared.waker.park(seen, PARK_TIMEOUT);
        }
    }
    // Retirement: whatever is still queued on this shard moves to the
    // next worker down. During a full shutdown every worker funnels
    // toward shard 0, whose backlog the pool services inline after the
    // joins; during a single retirement the surviving sibling drains it.
    let n = shared.shards.shards();
    if n > 1 && shard != 0 {
        let moved = shared.shards.handoff(shard, (shard + n - 1) % n);
        if moved > 0 {
            shared.counters[shard]
                .handoffs
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Services one rung token: the engine's own [`ready_visit`] (clear, then
/// drain under the batch bound, re-ring when cut short), with inline
/// handler dispatch on this worker thread as the per-message sink. The
/// service is one dispatch round of the owning context: what its handlers
/// staged is flushed once the slot is released.
fn service_token(shared: &Arc<PoolShared>, shard: usize, token: usize) {
    let slot = {
        let slots = shared.slots.read();
        match slots.get(token) {
            Some(s) => Arc::clone(s),
            None => return,
        }
    };
    let ctx = {
        let mut guard = slot.lock();
        let src = &mut *guard;
        let home = shared.shard_of(token);
        let counters = &shared.counters[home];
        counters.wakeups.fetch_add(1, Ordering::Relaxed);
        if home != shard {
            counters.steals.fetch_add(1, Ordering::Relaxed);
        }
        let Some(ctx) = src.ctx.upgrade() else {
            // The owning context is gone: skip the service *without*
            // clearing the flag. The latched flag stops future pushes, so
            // the orphaned source goes quiet until the pool closes it.
            return;
        };
        ctx.begin_round();
        let method = src.method;
        // Dispatch on this worker thread — the whole point of the pool.
        // The handler runs under the slot lock, which only ever
        // serializes services of this one source.
        let (drained, err) = ready_visit(&mut *src.receiver, &src.signal, &src.rec, |msg| {
            let _ = ctx.deliver(method, msg);
        });
        if err.is_some() {
            ctx.note_poll_error(method);
        }
        counters.messages.fetch_add(drained, Ordering::Relaxed);
        ctx
    };
    // No pass returns this error: the failover it caused is recorded as
    // a `Failover` event.
    let _ = ctx.flush_listed();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fabric;
    use crate::descriptor::MethodId;
    use crate::module::test_support::TestModule;
    use std::sync::atomic::AtomicU32;

    fn fabric() -> Fabric {
        let f = Fabric::new();
        f.registry().register(Arc::new(
            TestModule::new(MethodId::SHMEM, "shmem", 1, false).with_readiness(),
        ));
        f
    }

    /// Regression: adoption assigns contiguous token runs per context, so
    /// with S sources per context the hot sources form a strided token
    /// sequence (method m of every context ≡ m mod S). The old raw
    /// `token % shards` home collapsed e.g. stride 2 onto one shard of a
    /// 2-worker pool — every active source on one worker, zero on the
    /// rest. The mixing hash must give every shard a reasonable share of
    /// any strided run.
    #[test]
    fn home_shard_mix_spreads_strided_token_runs() {
        for &shards in &[2_usize, 3, 4, 8] {
            for &stride in &[2_usize, 3, 4, 8] {
                let tokens = 256_usize;
                let mut per = vec![0_usize; shards];
                for i in 0..tokens {
                    per[home_of(1 + i * stride, shards)] += 1;
                }
                let fair = tokens / shards;
                for (s, &n) in per.iter().enumerate() {
                    assert!(
                        n >= fair / 4,
                        "shards={shards} stride={stride}: shard {s} got {n} of {tokens} \
                         (fair share {fair}) — stride aliasing is back"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_services_doorbells_without_progress_calls() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("hi", move |_args| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();

        let pool = WorkerPool::new(2);
        assert_eq!(pool.adopt(&b), 1);
        for _ in 0..100 {
            a.rsr(&sp, "hi", crate::buffer::Buffer::new()).unwrap();
        }
        // No b.progress() call anywhere: the workers must deliver.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while hits.load(Ordering::Relaxed) < 100 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers never delivered: {}",
                hits.load(Ordering::Relaxed)
            );
            std::thread::yield_now();
        }
        let stats = pool.shard_stats();
        let total: u64 = stats.iter().map(|s| s.messages).sum();
        assert_eq!(total, 100, "per-shard counters account for every message");
        pool.shutdown();
    }

    #[test]
    fn pool_shutdown_services_pending_doorbells_before_closing() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("hi", move |_args| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        let pool = WorkerPool::new(4);
        pool.adopt(&b);
        for _ in 0..50 {
            a.rsr(&sp, "hi", crate::buffer::Buffer::new()).unwrap();
        }
        // Shutdown immediately: the drain-before-close path must deliver
        // whatever the workers had not gotten to yet.
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn polled_only_context_has_nothing_to_adopt() {
        let f = Fabric::new();
        f.registry()
            .register(Arc::new(TestModule::new(MethodId::MPL, "mpl", 1, false)));
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("hi", move |_args| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        let pool = WorkerPool::new(2);
        // No readiness support → nothing armed → nothing adopted; the
        // polled tier still works through progress().
        assert_eq!(pool.adopt(&b), 0);
        a.rsr(&sp, "hi", crate::buffer::Buffer::new()).unwrap();
        b.progress().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        pool.shutdown();
    }

    #[test]
    fn stop_workers_restores_single_threaded_progress() {
        let f = fabric();
        let a = f.create_context().unwrap();
        let b = f.create_context().unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        b.register_handler("hi", move |_args| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();

        assert_eq!(b.start_workers(2), 1);
        a.rsr(&sp, "hi", crate::buffer::Buffer::new()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while hits.load(Ordering::Relaxed) < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never delivered"
            );
            std::thread::yield_now();
        }
        // Hand the source back: delivery must again require progress().
        b.stop_workers();
        a.rsr(&sp, "hi", crate::buffer::Buffer::new()).unwrap();
        b.progress().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
