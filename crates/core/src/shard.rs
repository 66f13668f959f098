//! The worker pool: N threads that service the readiness tiers of one or
//! many contexts.
//!
//! A single progress thread services doorbells one at a time, so every
//! drained message and every handler runs on one core. A [`WorkerPool`]
//! moves that service onto N threads that share **one** ready list:
//!
//! * every adopted source gets a pool-owned token; its doorbell pushes
//!   the token onto the pool's list and wakes a parked worker;
//! * each worker pops a token, services it (drain under the batch bound,
//!   dispatch on the worker), and parks when the list is empty.
//!
//! Any worker may service any token, so there is no home assignment, no
//! steal scan and no retirement hand-off: a worker that stops leaves its
//! siblings' list untouched, and the pool services whatever is still
//! queued after the joins. Handler dispatch happens *on the worker
//! thread* (the context's dispatch path is `&self`), so the pool pays
//! off when handlers do real work: on the gated fair row (4 096 links,
//! a 2 µs handler) two workers take about 0.6 of the inline drain's
//! time on two CPUs. The polled tier (mpl, delay) and blocking pollers
//! are not adopted: they stay with the context's own `progress` passes.
//!
//! ## Shutdown / lock ordering
//!
//! No lock is held across a join or a receiver `close()`. `shutdown`
//! flips the stop flag, wakes and joins the workers (holding nothing),
//! services what is still queued, and only then closes receivers.

use crate::context::Context;
use crate::descriptor::MethodId;
use crate::module::CommReceiver;
use crate::poll::{ready_visit, ReadySignal, ReadySink, SegQueue};
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

/// Parked-worker wakeup: a sequence counter the sink bumps per push and
/// a condvar workers park on when the ready list is empty.
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
            // One push is one token: waking a single worker is enough,
            // and avoids a thundering herd when every ring would
            // otherwise wake the whole pool. Each concurrent push issues
            // its own notify, so k pushes still wake up to k workers.
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

/// The sink handed to adopted sources' doorbells: queue the token on the
/// pool's one ready list, then wake a parked worker.
#[derive(Default)]
struct PoolSink {
    list: SegQueue<usize>,
    waker: Waker,
}

impl ReadySink for PoolSink {
    fn push_ready(&self, token: usize) {
        self.list.push(token);
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
    sink: Arc<PoolSink>,
    /// Token-indexed source slots. Slots are only pushed, never removed,
    /// so a token is a stable identity for the pool's lifetime; the
    /// per-slot mutex is what lets any worker service any token without
    /// a global engine lock.
    slots: RwLock<Vec<Arc<Mutex<ShardSource>>>>,
    stop: AtomicBool,
}

/// N worker threads draining one shared ready list — see the module docs
/// for the worker model.
///
/// One pool can adopt the armed sources of *many* contexts (the
/// many-link bench runs 64 receiver contexts over one pool), or exactly
/// one (the [`Context::start_workers`] convenience).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `workers` threads (at least one), parked until
    /// sources are adopted.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            sink: Arc::new(PoolSink::default()),
            slots: RwLock::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nexus-shard-worker-{i}"))
                    .spawn(move || shard_worker_loop(&shared))
                    .expect("spawn shard worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Moves `ctx`'s armed (readiness-tier) sources into the pool and
    /// re-arms each with the pool's doorbell. Returns how many sources
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
        // Grow the ready list to the installed-token count now, off the
        // hot path: the doorbell latch caps queue depth at one entry per
        // token, so after this no producer ring can force a reallocation.
        self.shared.sink.list.reserve(slots.len());
        Ok(signal)
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
        self.shared.sink.waker.notify();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Services every token still queued after the workers retired.
    fn drain_pending(&self) {
        while let Some(token) = self.shared.sink.list.pop() {
            service_token(&self.shared, token);
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

/// One worker's life: pop a token and service it, park while the list
/// is empty, and exit once the pool stops. Whatever is still queued then
/// is serviced by the pool after the joins.
fn shard_worker_loop(shared: &PoolShared) {
    // Acquire pairs with `stop_and_join`'s Release store.
    while !shared.stop.load(Ordering::Acquire) {
        let seen = shared.sink.waker.seq.load(Ordering::Acquire);
        match shared.sink.list.pop() {
            Some(token) => service_token(shared, token),
            None => shared.sink.waker.park(seen, PARK_TIMEOUT),
        }
    }
}

/// Services one rung token: the engine's own [`ready_visit`] (clear, then
/// drain under the batch bound, re-ring when cut short), with inline
/// handler dispatch on this worker thread as the per-message sink. The
/// service is one dispatch round of the owning context: what its handlers
/// staged is flushed once the slot is released.
fn service_token(shared: &PoolShared, token: usize) {
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
        let (_, err) = ready_visit(&mut *src.receiver, &src.signal, &src.rec, |msg| {
            let _ = ctx.deliver(method, msg);
        });
        if err.is_some() {
            ctx.note_poll_error(method);
        }
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

    /// Registers a handler on each of `n` fresh contexts that counts every
    /// delivery of message id `args.buffer.get_u64()` in `seen`, and
    /// returns the contexts with one startpoint each. The handler naps
    /// 20 µs, so the workers fall behind the producers and a backlog is
    /// queued when a test stops the pool.
    fn counting_receivers(
        f: &Fabric,
        n: usize,
        seen: &Arc<Vec<AtomicU32>>,
    ) -> Vec<(Arc<Context>, crate::startpoint::Startpoint)> {
        (0..n)
            .map(|_| {
                let ctx = f.create_context().unwrap();
                let s = Arc::clone(seen);
                ctx.register_handler("m", move |args| {
                    let id = args.buffer.get_u64().unwrap() as usize;
                    s[id].fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(20));
                });
                let sp = ctx.startpoint_to(ctx.create_endpoint()).unwrap();
                (ctx, sp)
            })
            .collect()
    }

    /// Sends message ids `ids` from a fresh context, each to receiver
    /// `id % rxs.len()`.
    fn send_ids(
        f: &Fabric,
        rxs: &[(Arc<Context>, crate::startpoint::Startpoint)],
        ids: std::ops::Range<usize>,
    ) {
        let tx = f.create_context().unwrap();
        for id in ids {
            let mut buf = crate::buffer::Buffer::new();
            buf.put_u64(id as u64);
            tx.rsr(&rxs[id % rxs.len()].1, "m", buf).unwrap();
        }
    }

    fn assert_each_once(seen: &[AtomicU32], what: &str) {
        for (id, n) in seen.iter().enumerate() {
            let n = n.load(Ordering::Relaxed);
            assert_eq!(n, 1, "{what}: message {id} delivered {n} times");
        }
    }

    /// Producers on four threads send to 64 contexts adopted by one pool
    /// of 2 and of 4 workers, and the pool shuts down as soon as the last
    /// send returns: what the workers have not reached yet is serviced by
    /// the pool's final drain. Every message arrives exactly once — no
    /// token lost between workers, none serviced twice.
    #[test]
    fn pool_delivers_every_message_exactly_once_from_many_producers() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 1_000;
        for workers in [2, 4] {
            let f = fabric();
            let seen: Arc<Vec<AtomicU32>> = Arc::new(
                (0..PRODUCERS * PER_PRODUCER)
                    .map(|_| AtomicU32::new(0))
                    .collect(),
            );
            let rxs = counting_receivers(&f, 64, &seen);
            let pool = WorkerPool::new(workers);
            for (ctx, _) in &rxs {
                assert_eq!(pool.adopt(ctx), 1);
            }
            std::thread::scope(|s| {
                for p in 0..PRODUCERS {
                    let (f, rxs) = (&f, &rxs);
                    s.spawn(move || send_ids(f, rxs, p * PER_PRODUCER..(p + 1) * PER_PRODUCER));
                }
            });
            pool.shutdown();
            assert_each_once(&seen, &format!("workers={workers}"));
            f.shutdown();
        }
    }

    /// `stop_workers` while producers are still sending: whatever the
    /// pool had queued, and whatever rang its doorbell during the hand-back,
    /// is delivered by the context's own `progress` afterwards, once.
    #[test]
    fn stop_workers_mid_stream_strands_nothing() {
        const PRODUCERS: usize = 2;
        const PER_PRODUCER: usize = 2_000;
        let f = fabric();
        let seen: Arc<Vec<AtomicU32>> = Arc::new(
            (0..PRODUCERS * PER_PRODUCER)
                .map(|_| AtomicU32::new(0))
                .collect(),
        );
        let rxs = counting_receivers(&f, 1, &seen);
        let b = &rxs[0].0;
        assert_eq!(b.start_workers(2), 1);
        let total = || {
            seen.iter()
                .map(|n| n.load(Ordering::Relaxed) as usize)
                .sum::<usize>()
        };
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (f, rxs) = (&f, &rxs);
                s.spawn(move || send_ids(f, rxs, p * PER_PRODUCER..(p + 1) * PER_PRODUCER));
            }
            // Stop once the pool has delivered some of the stream.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while total() < PER_PRODUCER / 4 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            b.stop_workers();
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while total() < PRODUCERS * PER_PRODUCER {
            assert!(
                std::time::Instant::now() < deadline,
                "stranded: {} of {} delivered",
                total(),
                PRODUCERS * PER_PRODUCER
            );
            b.progress().unwrap();
        }
        b.progress().unwrap();
        assert_each_once(&seen, "stop_workers mid-stream");
        f.shutdown();
    }
}
