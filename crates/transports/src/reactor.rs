//! The socket reactor: ONE thread turning kernel readiness into doorbell
//! rings, and the receive-side protocol that keeps it off the data path.
//!
//! Socket transports have no send-side hook to ring the poll engine's
//! doorbell — the kernel owns the wake-up — and a pump thread per
//! receiver would be O(sockets) threads. Instead every socket of the
//! process is registered with one epoll instance, watched by a single
//! `nexus-reactor` thread that never reads payload and never runs
//! handlers.
//!
//! ## Who arms, who re-arms
//!
//! Registrations live in the kernel. A receive source
//! ([`ReactorReceiver`]) adds its fds **one-shot** (`EPOLLIN |
//! EPOLLONESHOT`, level-triggered, event data = registration id) from
//! the thread that arms it. When an fd turns readable the kernel disarms
//! it and the reactor thread looks the id up, sets the source's `fired`
//! flag and rings its doorbell — all it ever does for a source. From
//! then on the *draining* thread, whoever services the doorbell, owns
//! the sockets:
//!
//! * a visit reads the sockets **once**; if that produced anything the
//!   source is **hot**: it does not re-arm, it rings its own doorbell,
//!   and the next pass reads the connections in place while their fds
//!   stay disarmed (senders wake nobody, the reactor thread sleeps). A
//!   delivering hot visit is one `read`;
//! * the first visit of a hot source that comes back empty-handed puts
//!   it to **rest**: it still keeps itself on the ready list, but for
//!   `REST` (10 µs, one cold round) its visits make no syscall at all;
//! * the first visit after the rest reads once more: bytes make the
//!   source hot again, nothing re-arms every fd with `EPOLL_CTL_MOD`
//!   (`ADD` for fds the kernel has not seen — freshly accepted
//!   connections) and the source is **cold**: it costs no probes until
//!   the kernel reports the next arrival.
//!
//! What a hot source does not read — TCP's listener — must stay armed in
//! the kernel, and its one-shot entry is spent by the event that
//! announces a peer. So [`FdSource::scan`] is told whether the reactor
//! fired since the last scan (only then does TCP `accept`), and a scan
//! that was told so and leaves the source hot re-arms the listening fds
//! ([`FdSource::fill_listen_fds`]) right away: a new peer announces
//! itself however long the hot period lasts. A socket TCP dials joins its
//! own context's receiver the same way, announced by the dialling thread
//! (`Announcer`: `fired`, then the ring) because no kernel event will;
//! so a re-arm leaves `fired` alone (check `handoff`).
//!
//! No wake-up can be missed: a one-shot, level-triggered `MOD`
//! re-evaluates readiness, so bytes that raced in between the last read
//! and the re-arm fire the event at once (`cargo run -p xtask -- model`,
//! check `rearm-dpor`, enumerates that window, the rest and the listener).
//! There is no userspace mirror of the interest set to go stale: the
//! kernel drops a closed fd's entry itself, and a new owner of the same
//! fd *number* adds it.
//!
//! A **periodic** registration (the `rudp` sender pump) is the one other
//! shape: level-triggered without one-shot, its callback drains the
//! socket itself and also fires every `period`. Adding one is the only
//! operation that interrupts a blocked reactor (to shorten its timeout),
//! which is all the wake datagram is for.
//!
//! The crate builds only for Linux, where epoll exists. If the kernel
//! refuses an epoll instance at runtime, [`Reactor::global`] is `None`,
//! `set_ready_signal` reports `false` and the source stays in the polled
//! tier.

use nexus_rt::error::Result;
use nexus_rt::module::CommReceiver;
use nexus_rt::poll::ReadySignal;
use nexus_rt::rsr::Rsr;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// -- epoll FFI ---------------------------------------------------------------

/// Mirrors `struct epoll_event`. The kernel ABI packs it on x86-64
/// (12 bytes) and aligns it naturally everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    /// The owning registration's id (or [`WAKE`]).
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLONESHOT: u32 = 1 << 30;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const ENOENT: i32 = 2;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

// -- the reactor -------------------------------------------------------------

/// Handle to a reactor registration. Ids are never reused, so an event
/// still in flight for a removed registration resolves to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistrationId(u64);

type Callback = Arc<dyn Fn() + Send + Sync>;

/// Event data of the wake socket (never a registration id).
const WAKE: u64 = u64::MAX;

/// Longest the reactor blocks with no tick scheduled; bounds how late a
/// new periodic registration first ticks if its wake datagram is lost.
const IDLE_TIMEOUT_MS: i32 = 100;

struct Timer {
    id: u64,
    period: Duration,
    next: Instant,
}

#[derive(Default)]
struct Table {
    next_id: u64,
    callbacks: HashMap<u64, Callback>,
    /// Periodic registrations' ticks.
    timers: Vec<Timer>,
}

impl Table {
    fn insert(&mut self, cb: Callback) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.callbacks.insert(id, cb);
        id
    }
}

/// The process-global socket reactor. See the module docs.
pub struct Reactor {
    epoll: OwnedFd,
    table: Mutex<Table>,
    /// Self-wake socket: connected to itself at `wake_addr`, one byte
    /// sent there = `epoll_wait` returns. (`send_to`, because the bare
    /// `send` name is a trait-dispatch point the repo lint over-links.)
    wake: UdpSocket,
    wake_addr: SocketAddr,
}

static GLOBAL: OnceLock<Option<Arc<Reactor>>> = OnceLock::new();

impl Reactor {
    /// The global reactor, starting its thread on first use. `None` if
    /// the epoll instance, the wake socket or the thread could not be
    /// created — callers fall back to the polled tier (receivers) or a
    /// pump thread (rudp senders).
    pub fn global() -> Option<&'static Arc<Reactor>> {
        GLOBAL.get_or_init(Reactor::start).as_ref()
    }

    fn start() -> Option<Arc<Reactor>> {
        let wake = UdpSocket::bind(("127.0.0.1", 0)).ok()?;
        let wake_addr = wake.local_addr().ok()?;
        wake.connect(wake_addr).ok()?;
        wake.set_nonblocking(true).ok()?;
        // SAFETY: plain syscall, no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return None;
        }
        let reactor = Arc::new(Reactor {
            // SAFETY: `epfd` is a freshly created descriptor nothing else
            // owns; `OwnedFd` closes it if start-up fails below.
            epoll: unsafe { OwnedFd::from_raw_fd(epfd) },
            table: Mutex::new(Table::default()),
            wake,
            wake_addr,
        });
        reactor
            .ctl(EPOLL_CTL_ADD, reactor.wake.as_raw_fd(), EPOLLIN, WAKE)
            .ok()?;
        let r = Arc::clone(&reactor);
        std::thread::Builder::new()
            .name("nexus-reactor".to_owned())
            .spawn(move || reactor_loop(&r))
            .ok()?;
        Some(reactor)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `epoll` is the live instance this struct owns, `ev` is
        // a valid exclusively-borrowed event struct, and the kernel only
        // reads it (DEL ignores it entirely).
        if unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut ev) } == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }

    /// Registers a receive source: `cb` runs on the reactor thread once
    /// per fd that turns readable, after which that fd stays disarmed
    /// until [`Reactor::resume`]. `None` (nothing registered) if the
    /// kernel refuses any of the fds.
    pub fn watch(&self, fds: &[RawFd], cb: Callback) -> Option<RegistrationId> {
        let id = RegistrationId(self.table.lock().insert(cb));
        if self.resume(id, fds) {
            Some(id)
        } else {
            self.deregister(id, fds);
            None
        }
    }

    /// Arms `fds` one-shot for `id`, from the calling thread: `MOD` for
    /// fds the kernel already holds (armed or not), `ADD` for the rest.
    /// Level-triggered, so an fd that is readable *now* fires at once.
    /// Returns whether every fd is armed.
    pub fn resume(&self, id: RegistrationId, fds: &[RawFd]) -> bool {
        const ONE_SHOT: u32 = EPOLLIN | EPOLLONESHOT;
        let mut armed = true;
        for &fd in fds {
            armed &= match self.ctl(EPOLL_CTL_MOD, fd, ONE_SHOT, id.0) {
                Err(e) if e.raw_os_error() == Some(ENOENT) => {
                    self.ctl(EPOLL_CTL_ADD, fd, ONE_SHOT, id.0).is_ok()
                }
                r => r.is_ok(),
            };
        }
        armed
    }

    /// Registers a periodic source: `cb` runs whenever `fd` is readable
    /// (it must drain the socket itself) and every `period`.
    pub fn watch_periodic(&self, fd: RawFd, period: Duration, cb: Callback) -> RegistrationId {
        let id = self.every(period, cb);
        // If the kernel refuses the fd the ticks alone still drive the
        // callback, one period late at worst.
        let _ = self.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, id.0);
        id
    }

    /// Registers a timer: `cb` runs every `period` until the registration
    /// is removed (TCP's staging backstop starts one while some connection
    /// holds staged bytes, and removes it from its own tick).
    pub fn every(&self, period: Duration, cb: Callback) -> RegistrationId {
        let id = {
            let mut t = self.table.lock();
            let id = t.insert(cb);
            t.timers.push(Timer {
                id,
                period,
                next: Instant::now() + period,
            });
            id
        };
        // The reactor may be blocked with a longer timeout than the new
        // tick. A full (or failed) wake socket is fine: the reactor
        // recomputes its timeout at least every IDLE_TIMEOUT_MS anyway.
        let _ = self.wake.send_to(&[1], self.wake_addr);
        RegistrationId(id)
    }

    /// Removes a registration and its fds. The callback will not fire
    /// after this returns, except for at most one invocation already in
    /// flight on the reactor thread — callbacks must stay safe against
    /// that (doorbell rings and stop-flag-guarded pumps are).
    pub fn deregister(&self, id: RegistrationId, fds: &[RawFd]) {
        {
            let mut t = self.table.lock();
            t.callbacks.remove(&id.0);
            t.timers.retain(|timer| timer.id != id.0);
        }
        for &fd in fds {
            // ENOENT (never added, or dropped with a closed file) is fine.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }
    }
}

/// The reactor thread: block in `epoll_wait` → look up what fired → run
/// the callbacks. The table lock is held across neither.
fn reactor_loop(reactor: &Reactor) {
    let mut events = [EpollEvent { events: 0, data: 0 }; 64];
    // Reused across rounds: a steady-state round allocates nothing.
    let mut due: Vec<Callback> = Vec::with_capacity(64);
    loop {
        let now = Instant::now();
        let timeout_ms = reactor
            .table
            .lock()
            .timers
            .iter()
            .map(|t| t.next.saturating_duration_since(now).as_millis() as i32)
            .fold(IDLE_TIMEOUT_MS, |acc, ms| acc.min(ms.max(1)));
        // SAFETY: `events` is a live, exclusively-borrowed buffer;
        // `maxevents` is its exact length, and the kernel writes at most
        // that many entries.
        let n = unsafe {
            epoll_wait(
                reactor.epoll.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        // Timeout, EINTR or a transient failure is an empty round.
        let fired = &events[..n.max(0) as usize];
        let now = Instant::now();
        {
            let mut table = reactor.table.lock();
            let Table {
                callbacks, timers, ..
            } = &mut *table;
            let ticked = timers.iter_mut().filter(|t| now >= t.next).map(|t| {
                t.next = now + t.period;
                t.id
            });
            for id in fired.iter().map(|ev| ev.data).chain(ticked) {
                if let Some(cb) = callbacks.get(&id) {
                    due.push(Arc::clone(cb));
                }
            }
        }
        if fired.iter().any(|ev| ev.data == WAKE) {
            let mut b = [0u8; 16];
            while reactor.wake.recv(&mut b).is_ok() {}
        }
        for cb in due.drain(..) {
            cb();
        }
    }
}

// -- the receiver adapter ----------------------------------------------------

/// A receiver whose readiness the reactor can watch through raw fds. Its
/// `poll` is "queued message, else scan and look again"; the adapter
/// needs the two halves apart.
pub trait FdSource: CommReceiver {
    /// Reads every socket once without blocking and queues what decodes.
    /// `fired` says the reactor reported one of the fds since the last
    /// scan: only then can an fd the source does not read on every scan
    /// (TCP's listener) have anything. Returns whether anything came off
    /// a socket (bytes, a connection), a whole message or not.
    fn scan(&mut self, fired: bool) -> Result<bool>;

    /// The next message queued by an earlier scan.
    fn pop(&mut self) -> Option<Rsr>;

    /// Appends every fd whose readability means "this receiver may have
    /// a message": listener plus accepted connections for TCP, the one
    /// socket for UDP-based transports. Called at each re-arm.
    fn fill_fds(&self, out: &mut Vec<RawFd>);

    /// Appends the fds among those that a scan asks only when told
    /// `fired` (TCP's listener). A source that stays hot re-arms them
    /// after each such scan, because its later scans will not ask.
    fn fill_listen_fds(&self, _out: &mut Vec<RawFd>) {}
}

/// What the reactor callback and the draining thread share.
#[derive(Default)]
struct Bell {
    /// The doorbell the callback rings. Replaceable (the poll engine
    /// installs one at arm time, a shard worker pool another at adoption)
    /// while the reactor keeps one stable callback.
    signal: RwLock<Option<ReadySignal>>,
    /// Set by the callback before it rings, consumed by the next visit:
    /// a cold source visited for any other reason (the engine priming a
    /// fresh doorbell) has nothing to read, and a hot one has nothing to
    /// accept.
    fired: AtomicBool,
    /// Callback invocations (what the steady state must not need).
    #[cfg(test)]
    callbacks: std::sync::atomic::AtomicU32,
}

impl Bell {
    fn ring(&self) {
        if let Some(s) = self.signal.read().as_ref() {
            s.ring();
        }
    }
}

/// What the reactor does for a [`ReactorReceiver`]'s readable fd, from any
/// thread: TCP announces the read side of a socket it dialled this way.
#[derive(Clone)]
pub(crate) struct Announcer(Arc<Bell>);

impl Announcer {
    /// Sets `fired`, then rings the doorbell (none is installed until the
    /// receiver is armed; an unarmed one scans on every poll anyway).
    pub(crate) fn announce(&self) {
        self.0.fired.store(true, Ordering::Release);
        self.0.ring();
    }
}

/// How long a hot source rests after its first empty read before the
/// read that decides between hot and cold. Bounded by one cold round
/// (arrival → reactor → doorbell → visit, `mix.bg_delivery_p50_us`
/// ≈ 16 µs on the 2-vCPU host this was measured on): an arrival during
/// the rest is then delivered no later than the cold path would have
/// delivered it. A request/reply exchange never gets here (its visits
/// all find bytes); a streaming receiver does at every lull, and then
/// touches the socket twice per rest instead of twice per message —
/// which its *sender* pays for, since each `read` made on another CPU
/// makes the sender's `writev` dearer. Swept on `wire_stream_small`
/// `op_p50_us` (parent 1 110 µs): no rest 1 488, 5 µs 899, 10 µs 799,
/// 15 µs 752 (EXPERIMENTS.md "One read per hot pass"); 10 µs keeps a
/// third of a cold round in hand for hosts whose cold round is shorter
/// than this one's. Not a parameter.
const REST: Duration = Duration::from_micros(10);

/// Where a source stands between the kernel and the draining thread.
#[derive(Clone, Copy, PartialEq)]
enum Heat {
    /// Every fd is armed in the kernel; a visit reads only if `fired`.
    Cold,
    /// The fds that produced bytes are disarmed and read in place: the
    /// source keeps itself on the ready list and every visit reads.
    Hot,
    /// A hot source whose last read found nothing: still on the ready
    /// list, but visits make no syscall before `until` (or `fired`).
    Resting { until: Instant },
}

/// Wraps an [`FdSource`] receiver so the global reactor provides its
/// readiness: no pump thread, no syscall on the engine's poll path while
/// the source is cold or resting, one read per delivering visit while it
/// is hot.
pub struct ReactorReceiver<R: FdSource> {
    inner: R,
    bell: Arc<Bell>,
    reg: Option<RegistrationId>,
    heat: Heat,
    /// The current visit already read the sockets; once its queue is
    /// delivered the visit is over.
    scanned: bool,
    /// Reused fd scratch for re-arms (no per-drain allocation).
    fds: Vec<RawFd>,
}

impl<R: FdSource> ReactorReceiver<R> {
    /// Wraps `inner`. The reactor registration is created at arming
    /// time; until then the wrapper is a transparent pass-through.
    pub fn new(inner: R) -> Self {
        ReactorReceiver {
            inner,
            bell: Arc::default(),
            reg: None,
            heat: Heat::Cold,
            scanned: false,
            fds: Vec::new(),
        }
    }

    /// Hands every fd back to the kernel: the source is cold. Data that
    /// raced in after the read fires at once — the re-arm is
    /// level-triggered.
    fn rearm(&mut self, id: RegistrationId) {
        let Some(reactor) = Reactor::global() else {
            return;
        };
        // `fired` stays: set since this visit took it, it may announce a
        // dialled socket, which no MOD re-raises (model check `handoff`).
        self.fds.clear();
        self.inner.fill_fds(&mut self.fds);
        self.heat = if reactor.resume(id, &self.fds) {
            Heat::Cold
        } else {
            // The kernel refused an fd: keep reading in place instead.
            self.bell.ring();
            Heat::Hot
        };
    }

    /// After a scan the reactor announced has left the source hot: the
    /// announcement may have been a listening fd's, whose one-shot entry
    /// is then spent, and hot scans will not look at it again. Hands those
    /// fds back now; a peer that queued up since the scan fires at once.
    fn rearm_listeners(&mut self, id: RegistrationId) {
        self.fds.clear();
        self.inner.fill_listen_fds(&mut self.fds);
        if let Some(reactor) = Reactor::global() {
            // Refused: the re-arm that ends the hot period asks again.
            reactor.resume(id, &self.fds);
        }
    }

    /// The handle that announces to this receiver from another thread.
    pub(crate) fn announcer(&self) -> Announcer {
        Announcer(Arc::clone(&self.bell))
    }

    fn disarm(&mut self) {
        if let (Some(id), Some(reactor)) = (self.reg.take(), Reactor::global()) {
            self.fds.clear();
            self.inner.fill_fds(&mut self.fds);
            reactor.deregister(id, &self.fds);
        }
    }
}

impl<R: FdSource> CommReceiver for ReactorReceiver<R> {
    /// One doorbell visit is the run of calls up to the first `None` or
    /// error; it reads the sockets at most once.
    fn poll(&mut self) -> Result<Option<Rsr>> {
        let Some(id) = self.reg else {
            return self.inner.poll();
        };
        loop {
            if let Some(m) = self.inner.pop() {
                return Ok(Some(m));
            }
            if std::mem::take(&mut self.scanned) {
                // Everything this visit read is delivered (possibly
                // nothing: part of a frame). It did read, so stay hot: no
                // re-arm, the next pass reads the sockets directly.
                self.bell.ring();
                return Ok(None);
            }
            let fired = self.bell.fired.swap(false, Ordering::Acquire);
            match self.heat {
                Heat::Cold if !fired => return Ok(None),
                Heat::Resting { until } if !fired && Instant::now() < until => {
                    self.bell.ring();
                    return Ok(None);
                }
                _ => {}
            }
            match self.inner.scan(fired) {
                Ok(true) => {
                    (self.heat, self.scanned) = (Heat::Hot, true);
                    if fired {
                        self.rearm_listeners(id);
                    }
                }
                Ok(false) if self.heat == Heat::Hot && !fired => {
                    self.heat = Heat::Resting {
                        until: Instant::now() + REST,
                    };
                    self.bell.ring();
                    return Ok(None);
                }
                Ok(false) => {
                    self.rearm(id);
                    return Ok(None);
                }
                // Errors do not retire the source: the engine re-rings on
                // error, and the kernel must keep watching for whatever
                // the next visit finds (or the same error, surfaced again).
                Err(e) => {
                    self.rearm(id);
                    return Err(e);
                }
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Rsr>> {
        self.inner.recv_timeout(timeout)
    }

    fn set_ready_signal(&mut self, signal: ReadySignal) -> bool {
        let Some(reactor) = Reactor::global() else {
            // No reactor: unarmed, the source stays in the polled rotation.
            return false;
        };
        // Under a replacement doorbell (worker-pool adoption) nothing
        // else changes: the new owner primes it, and that visit finds
        // the source hot, resting, fired, or armed in the kernel.
        *self.bell.signal.write() = Some(signal);
        if self.reg.is_none() {
            self.fds.clear();
            self.inner.fill_fds(&mut self.fds);
            let bell = self.announcer();
            self.reg = reactor.watch(
                &self.fds,
                Arc::new(move || {
                    #[cfg(test)]
                    bell.0.callbacks.fetch_add(1, Ordering::Relaxed);
                    bell.announce();
                }),
            );
        }
        self.reg.is_some()
    }

    fn close(&mut self) {
        self.disarm();
        self.inner.close();
    }
}

impl<R: FdSource> Drop for ReactorReceiver<R> {
    fn drop(&mut self) {
        self.disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rudp::{RudpModule, RudpReceiver};
    use crate::tcp::{TcpModule, TcpReceiver};
    use crate::udp::{UdpModule, UdpReceiver};
    use crate::util::parse_socket_addr;
    use nexus_rt::context::{ContextId, ContextInfo, NodeId, PartitionId};
    use nexus_rt::descriptor::{CommDescriptor, MethodId};
    use nexus_rt::endpoint::EndpointId;
    use nexus_rt::error::NexusError;
    use nexus_rt::module::{CommModule, CommObject};
    use nexus_rt::poll::{PollEngine, SegQueue};
    use nexus_rt::rsr::WireFrame;
    use std::collections::VecDeque;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU32;

    const PATIENCE: Duration = Duration::from_secs(10);

    fn msg(h: &str) -> Rsr {
        Rsr::new(ContextId(0), EndpointId(0), h, bytes::Bytes::new())
    }

    fn info() -> ContextInfo {
        ContextInfo {
            id: ContextId(1),
            node: NodeId(1),
            partition: PartitionId(1),
        }
    }

    fn udp_socket() -> (UdpSocket, SocketAddr) {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        socket.set_nonblocking(true).unwrap();
        let addr = socket.local_addr().unwrap();
        (socket, addr)
    }

    fn connect(module: &dyn CommModule, addr: SocketAddr) -> Arc<dyn CommObject> {
        let desc = CommDescriptor::new(module.method(), addr.to_string().into_bytes());
        module.connect(&info(), &desc).unwrap()
    }

    impl<R: FdSource> ReactorReceiver<R> {
        pub(crate) fn inner_mut(&mut self) -> &mut R {
            &mut self.inner
        }
    }

    /// A receiver armed with a hand-held doorbell and visited the way the
    /// engine's ready drain visits it: pop the token, clear the flag,
    /// poll up to the first `None`. Nothing else ever polls it, so every
    /// delivery went through the doorbell.
    struct Armed<R: FdSource> {
        rx: ReactorReceiver<R>,
        list: Arc<SegQueue<usize>>,
        signal: ReadySignal,
    }

    impl<R: FdSource> Armed<R> {
        fn new(inner: R) -> Self {
            Armed::wrap(ReactorReceiver::new(inner))
        }

        fn wrap(mut rx: ReactorReceiver<R>) -> Self {
            let list = Arc::new(SegQueue::new());
            let signal = ReadySignal::new(0, Arc::clone(&list));
            assert!(rx.set_ready_signal(signal.clone()), "reactor starts");
            Armed { rx, list, signal }
        }

        /// One visit, if the doorbell has rung.
        fn visit(&mut self) -> Option<Vec<Rsr>> {
            self.list.pop()?;
            self.signal.clear();
            let mut got = Vec::new();
            while let Some(m) = self.rx.poll().unwrap() {
                got.push(m);
            }
            Some(got)
        }

        /// Visits until `n` messages have been delivered.
        fn collect(&mut self, n: usize) -> Vec<Rsr> {
            let deadline = Instant::now() + PATIENCE;
            let mut got = Vec::new();
            while got.len() < n {
                assert!(Instant::now() < deadline, "{} of {n} delivered", got.len());
                match self.visit() {
                    Some(batch) => got.extend(batch),
                    None => std::thread::yield_now(),
                }
            }
            got
        }

        /// Visits until `done` holds of the source; returns what the
        /// visits delivered. A hot or resting source keeps its own
        /// doorbell rung, so only a cold one has to wait for a ring.
        fn drive_until(&mut self, done: impl Fn(&ReactorReceiver<R>) -> bool) -> Vec<Rsr> {
            let deadline = Instant::now() + PATIENCE;
            let mut got = Vec::new();
            while !done(&self.rx) {
                assert!(Instant::now() < deadline, "state never reached");
                match self.visit() {
                    Some(batch) => got.extend(batch),
                    None => std::thread::yield_now(),
                }
            }
            got
        }

        /// Visits until the source has re-armed.
        fn cool(&mut self) -> Vec<Rsr> {
            self.drive_until(|rx| rx.heat == Heat::Cold)
        }

        /// Visits until an empty-handed visit has put the source to rest.
        fn rest(&mut self) -> Vec<Rsr> {
            self.drive_until(|rx| matches!(rx.heat, Heat::Resting { .. }))
        }

        fn callbacks(&self) -> u32 {
            self.rx.bell.callbacks.load(Ordering::Relaxed)
        }
    }

    /// An armed TCP receiver and a sender connected to it.
    fn tcp_pair() -> (Armed<TcpReceiver>, Arc<dyn CommObject>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let armed = Armed::new(TcpReceiver::new(listener, Default::default()).unwrap());
        (armed, connect(&TcpModule::new(), addr))
    }

    fn send(obj: &Arc<dyn CommObject>, h: &str) {
        obj.send(&msg(h), &WireFrame::new()).unwrap();
    }

    /// A socket the context dials is handed to its own armed receiver while
    /// that source is hot, resting or cold (the `handoff` model check, on
    /// the real code): what the peer writes back on it is delivered once,
    /// and after the source cools the socket's fd is armed — the peer's
    /// next frame arrives through the reactor.
    #[test]
    fn a_socket_handed_to_a_hot_resting_or_cold_source_is_read_and_armed() {
        for state in ["hot", "resting", "cold"] {
            let m = TcpModule::new();
            let (desc, rx) = m.open_tcp(&info()).unwrap();
            let mut armed = Armed::wrap(rx);
            let other = connect(&TcpModule::new(), parse_socket_addr(&desc.data).unwrap());
            send(&other, "warm");
            assert_eq!(armed.collect(1)[0].handler, "warm");
            match state {
                "hot" => assert!(armed.rx.heat == Heat::Hot),
                "resting" => drop(armed.rest()),
                _ => drop(armed.cool()),
            }
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let peer_desc = CommDescriptor::new(
                MethodId::TCP,
                listener.local_addr().unwrap().to_string().into_bytes(),
            );
            let _writer = m.dial(&info(), &peer_desc).unwrap();
            let (mut peer, _) = listener.accept().unwrap();
            peer.write_all(&crate::tcp::tests::framed(&msg("back")))
                .unwrap();
            let got = armed.collect(1);
            assert_eq!(got[0].handler, "back", "{state}");
            armed.cool();
            assert_eq!(armed.rx.inner_mut().conn_count(), 2, "{state}");
            peer.write_all(&crate::tcp::tests::framed(&msg("armed")))
                .unwrap();
            assert_eq!(armed.collect(1)[0].handler, "armed", "{state}");
        }
    }

    #[test]
    fn reactor_rings_the_engine_doorbell_on_readiness() {
        let (socket, addr) = udp_socket();
        let mut eng = PollEngine::new();
        eng.add_source(
            MethodId::UDP,
            Box::new(ReactorReceiver::new(UdpReceiver::new(socket))),
        );
        assert!(eng.arm_ready(MethodId::UDP));
        send(&connect(&UdpModule::new(), addr), "via-reactor");

        let deadline = Instant::now() + PATIENCE;
        let mut got = None;
        while got.is_none() && Instant::now() < deadline {
            let out = eng.poll_once();
            got = out.messages.first().map(|(_, m)| m.handler.clone());
            std::thread::yield_now();
        }
        assert_eq!(got.as_deref(), Some("via-reactor"));
        eng.close_all();
    }

    /// A counting callback on a raw registration.
    fn counter() -> (Arc<AtomicU32>, Callback) {
        let fires = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&fires);
        (
            fires,
            Arc::new(move || {
                f.fetch_add(1, Ordering::Relaxed);
            }),
        )
    }

    fn await_fires(fires: &AtomicU32, want: u32) {
        let deadline = Instant::now() + PATIENCE;
        while fires.load(Ordering::Relaxed) < want {
            assert!(Instant::now() < deadline, "registration never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The kernel half of the no-missed-wake-up argument: a fired fd
    /// stays silent however readable it is, and re-arming it while it is
    /// readable fires at once.
    #[test]
    fn one_shot_fd_fires_once_then_again_on_resume_while_readable() {
        let (socket, addr) = udp_socket();
        let fds = [socket.as_raw_fd()];
        let (fires, callback) = counter();
        let reactor = Reactor::global().expect("reactor starts");
        let id = reactor.watch(&fds, callback).expect("fd is watchable");
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.send_to(&[9], addr).unwrap();
        await_fires(&fires, 1);
        // Still unread, and a second datagram arrives: disarmed is disarmed.
        tx.send_to(&[9], addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(fires.load(Ordering::Relaxed), 1);
        assert!(reactor.resume(id, &fds));
        await_fires(&fires, 2);
        reactor.deregister(id, &fds);
    }

    #[test]
    fn periodic_registration_ticks_without_traffic() {
        let (socket, _) = udp_socket();
        let (fires, callback) = counter();
        let reactor = Reactor::global().expect("reactor starts");
        let id = reactor.watch_periodic(socket.as_raw_fd(), Duration::from_millis(2), callback);
        await_fires(&fires, 5);
        reactor.deregister(id, &[socket.as_raw_fd()]);
    }

    #[test]
    fn deregistered_fd_stops_firing() {
        let (socket, addr) = udp_socket();
        let fds = [socket.as_raw_fd()];
        let (fires, callback) = counter();
        let reactor = Reactor::global().expect("reactor starts");
        let id = reactor.watch(&fds, callback).expect("fd is watchable");
        reactor.deregister(id, &fds);
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.send_to(&[9], addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(fires.load(Ordering::Relaxed), 0);
    }

    /// Steady state: a source that keeps finding bytes is read in place.
    /// Frame i+1 is on the wire before the visit that follows frame i's
    /// delivery, so no visit comes back empty and nothing re-arms.
    #[test]
    fn hot_tcp_receiver_costs_no_reactor_round_per_frame() {
        let (mut armed, obj) = tcp_pair();
        send(&obj, "f");
        armed.collect(1);
        let before = armed.callbacks();
        for _ in 0..64 {
            send(&obj, "f");
            assert_eq!(armed.collect(1).len(), 1);
        }
        let rounds = armed.callbacks() - before;
        assert!(rounds <= 1, "{rounds} reactor callbacks for 64 frames");
    }

    /// The sender releases message i+1 the moment message i is delivered
    /// — while the receiver is making the empty-handed visit that re-arms
    /// — so its writes land before, inside and after the window between
    /// the empty read and the `MOD`. A lost wake-up stalls the exchange.
    #[test]
    fn no_wakeup_is_lost_across_the_rearm_window() {
        const N: u32 = 10_000;
        let (mut armed, obj) = tcp_pair();
        let seen = Arc::new(AtomicU32::new(0));
        let sender = {
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                for i in 0..N {
                    while seen.load(Ordering::Acquire) < i {
                        std::hint::spin_loop();
                    }
                    send(&obj, "race");
                }
            })
        };
        let deadline = Instant::now() + 12 * PATIENCE;
        while seen.load(Ordering::Relaxed) < N {
            assert!(
                Instant::now() < deadline,
                "stalled after {} of {N}: a wake-up was lost",
                seen.load(Ordering::Relaxed)
            );
            if let Some(got) = armed.visit() {
                seen.fetch_add(got.len() as u32, Ordering::Release);
            }
        }
        sender.join().unwrap();
        assert!(armed.callbacks() > 0, "the source never went cold");
    }

    #[test]
    fn connection_accepted_after_arming_is_watched() {
        let (mut armed, obj) = tcp_pair();
        // Only the listener was armed; its event brings the connection in.
        send(&obj, "first");
        assert_eq!(armed.collect(1)[0].handler, "first");
        armed.cool();
        assert!(armed.list.is_empty());
        // Cold: only the connection's own fd can announce this one.
        send(&obj, "second");
        assert_eq!(armed.collect(1)[0].handler, "second");
    }

    #[test]
    fn peer_close_while_cold_evicts_the_connection() {
        let (mut armed, obj) = tcp_pair();
        send(&obj, "only");
        armed.collect(1);
        armed.cool();
        assert_eq!(armed.rx.inner.conn_count(), 1);
        drop(obj);
        armed.drive_until(|rx| rx.inner.conn_count() == 0);
        assert!(
            armed.rx.heat == Heat::Cold,
            "an EOF is not bytes: the visit re-armed"
        );
    }

    /// The listener's entry is spent by the event that announces a peer,
    /// and hot scans do not ask the listener: a peer that connects during
    /// a hot period — the one its predecessor's event started included —
    /// must still be announced, accepted and read.
    #[test]
    fn peers_connecting_while_another_connection_is_hot_are_accepted() {
        let (mut armed, first) = tcp_pair();
        let addr = armed.rx.inner.local_addr();
        send(&first, "keep-hot");
        armed.collect(1);
        let mut peers = Vec::new();
        for late in ["second", "third"] {
            let peer = connect(&TcpModule::new(), addr);
            send(&peer, late);
            peers.push(peer);
            let deadline = Instant::now() + PATIENCE;
            let mut seen = false;
            while !seen {
                assert!(Instant::now() < deadline, "{late} peer never delivered");
                // Bytes for the first connection precede every visit: the
                // source has no occasion to go cold and re-arm everything.
                send(&first, "keep-hot");
                let got = armed.visit().expect("hot or resting: doorbell rung");
                seen = got.iter().any(|m| m.handler == late);
                assert!(armed.rx.heat != Heat::Cold, "the hot period ended");
            }
        }
        assert_eq!(armed.rx.inner.conn_count(), 3);
    }

    /// Per-visit syscalls of the hot path, counted at the socket calls: a
    /// delivering hot visit is one `read` (no `accept`, no `EAGAIN`), and
    /// a resting visit does not touch a socket at all.
    #[test]
    fn hot_visit_is_one_read_and_resting_visit_is_no_syscall() {
        let (mut armed, obj) = tcp_pair();
        send(&obj, "f");
        armed.collect(1);
        let mut hot_deliveries = 0;
        for _ in 0..64 {
            send(&obj, "f");
            let mut delivered = 0;
            while delivered == 0 {
                let hot = armed.rx.heat == Heat::Hot;
                let (reads, accepts) = armed.rx.inner.syscalls();
                delivered = armed.visit().expect("doorbell rung").len();
                if hot && delivered > 0 {
                    let now = armed.rx.inner.syscalls();
                    assert_eq!(now, (reads + 1, accepts), "(reads, accepts)");
                    hot_deliveries += 1;
                }
            }
            assert_eq!(delivered, 1);
        }
        // Loopback delivers inside `send`; a visit that beat the bytes
        // anyway started a rest and is not a hot delivery.
        assert!(hot_deliveries >= 32, "{hot_deliveries} of 64 were hot");

        armed.rest();
        // Held open, so that what is observed is a resting visit however
        // slowly this thread runs.
        armed.rx.heat = Heat::Resting {
            until: Instant::now() + PATIENCE,
        };
        let before = (armed.rx.inner.syscalls(), armed.callbacks());
        for _ in 0..100 {
            assert_eq!(armed.visit().expect("resting: doorbell rung").len(), 0);
        }
        assert_eq!((armed.rx.inner.syscalls(), armed.callbacks()), before);
    }

    /// A frame whose halves arrive in two writes with visits in between is
    /// delivered once: across the short read that ends the first visit
    /// (the source stays hot and comes back), and across a rest.
    #[test]
    fn split_frame_is_delivered_once_across_a_short_read_and_a_rest() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_nodelay(true).unwrap();
        let mut armed = Armed::new(TcpReceiver::new(listener, Default::default()).unwrap());
        let write = |bytes: &[u8]| (&peer).write_all(bytes).unwrap();
        let frame = crate::tcp::tests::framed(&msg("split"));
        let (head, tail) = frame.split_at(frame.len() / 2);

        // Across a rest: the half is read (hot, nothing to deliver), the
        // next read finds nothing (resting), the other half lands during
        // the rest and is found by the read that ends it.
        write(head);
        assert!(armed.rest().is_empty(), "half a frame was delivered");
        write(tail);
        assert_eq!(armed.collect(1)[0].handler, "split");

        // Across the short-read stop alone: the source is hot, each half
        // is one visit's one read.
        write(head);
        let got = armed.drive_until(|rx| rx.inner.buffered() == head.len());
        assert!(got.is_empty(), "half a frame was delivered");
        write(tail);
        assert_eq!(armed.collect(1)[0].handler, "split");
        assert!(armed.cool().is_empty(), "a frame was delivered twice");
    }

    #[test]
    fn peer_close_while_resting_evicts_the_connection_and_ends_cold() {
        let (mut armed, obj) = tcp_pair();
        send(&obj, "only");
        armed.collect(1);
        armed.rest();
        assert_eq!(armed.rx.inner.conn_count(), 1);
        drop(obj);
        // Resting visits do not read: the EOF is found by the read that
        // ends the rest, or announced by the re-armed fd after it.
        armed.drive_until(|rx| rx.inner.conn_count() == 0);
        assert!(armed.cool().is_empty());
    }

    /// A burst that is queued before the first visit costs one reactor
    /// round, not one per datagram.
    #[test]
    fn datagram_bursts_are_delivered_in_one_reactor_round() {
        let (socket, addr) = udp_socket();
        let mut udp = Armed::new(UdpReceiver::new(socket));
        let obj = connect(&UdpModule::new(), addr);
        for _ in 0..32 {
            send(&obj, "burst");
        }
        assert_eq!(udp.collect(32).len(), 32);
        assert_eq!(udp.callbacks(), 1);

        let (socket, addr) = udp_socket();
        let mut rudp = Armed::new(RudpReceiver::new(socket, Arc::default()));
        let obj = connect(&RudpModule::new(), addr);
        for _ in 0..32 {
            send(&obj, "burst");
        }
        assert_eq!(rudp.collect(32).len(), 32);
        assert_eq!(rudp.callbacks(), 1);
    }

    /// A scripted source over one UDP socket, so the adapter is tested
    /// alone: `poll` answers only from `direct`; a scan reads every queued
    /// datagram and queues one message per datagram named by its bytes,
    /// or, while `fail_scans` lasts, reads them and fails.
    struct Scripted {
        socket: UdpSocket,
        direct: Vec<Rsr>,
        queued: VecDeque<Rsr>,
        fail_scans: u32,
        scans: u32,
    }

    impl Scripted {
        fn new(socket: UdpSocket) -> Self {
            Scripted {
                socket,
                direct: Vec::new(),
                queued: VecDeque::new(),
                fail_scans: 0,
                scans: 0,
            }
        }
    }

    impl CommReceiver for Scripted {
        fn poll(&mut self) -> Result<Option<Rsr>> {
            Ok(self.direct.pop())
        }
    }

    impl FdSource for Scripted {
        fn scan(&mut self, _fired: bool) -> Result<bool> {
            self.scans += 1;
            let mut read = Vec::new();
            let mut b = [0u8; 64];
            while let Ok(n) = self.socket.recv(&mut b) {
                read.push(msg(std::str::from_utf8(&b[..n]).unwrap()));
            }
            if self.fail_scans > 0 {
                self.fail_scans -= 1;
                return Err(NexusError::ConnectionClosed);
            }
            let any = !read.is_empty();
            self.queued.extend(read);
            Ok(any)
        }

        fn pop(&mut self) -> Option<Rsr> {
            self.queued.pop_front()
        }

        fn fill_fds(&self, out: &mut Vec<RawFd>) {
            out.push(self.socket.as_raw_fd());
        }
    }

    /// Until the engine arms it, the adapter is the inner receiver: `poll`
    /// is the inner `poll`, and no scan runs however readable the socket.
    #[test]
    fn unarmed_receiver_is_the_inner_receiver() {
        let (socket, addr) = udp_socket();
        let mut inner = Scripted::new(socket);
        inner.direct.push(msg("direct"));
        let mut rx = ReactorReceiver::new(inner);
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.send_to(b"unread", addr).unwrap();
        assert_eq!(rx.poll().unwrap().unwrap().handler, "direct");
        assert!(rx.poll().unwrap().is_none());
        assert_eq!(rx.inner.scans, 0);
        assert!(rx.reg.is_none());
    }

    /// A failing scan reaches the caller of `poll` once. The source stays
    /// registered and re-armed: the next datagram rings the doorbell
    /// through the kernel and is delivered.
    #[test]
    fn scan_error_surfaces_once_and_the_source_stays_armed() {
        let (socket, addr) = udp_socket();
        let mut inner = Scripted::new(socket);
        inner.fail_scans = 1;
        let mut armed = Armed::new(inner);
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.send_to(b"lost", addr).unwrap();

        let deadline = Instant::now() + PATIENCE;
        while armed.list.pop().is_none() {
            assert!(Instant::now() < deadline, "the reactor never rang");
            std::thread::yield_now();
        }
        armed.signal.clear();
        assert!(matches!(armed.rx.poll(), Err(NexusError::ConnectionClosed)));
        assert!(armed.rx.reg.is_some(), "the error retired the source");
        assert!(armed.rx.heat == Heat::Cold, "the error did not re-arm");

        // Visits unwrap every poll: a second error fails the test.
        tx.send_to(b"next", addr).unwrap();
        let got = armed.drive_until(|rx| rx.inner.scans == 2);
        let names: Vec<_> = got.iter().map(|m| m.handler.as_str()).collect();
        assert_eq!(names, ["next"]);
        assert!(armed.cool().is_empty());
    }
}
