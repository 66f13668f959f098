//! The socket receive protocol as it ships: the explorer drives
//! `nexus_transports::reactor::SourceState`, the machine
//! `ReactorReceiver::poll` runs, against model fds.
//!
//! A model fd is one-shot: an arrival raises the source's event iff the
//! fd is armed, which disarms it. The reactor thread turns an event into
//! the real `SourceState::announce` (`fired`, then a ring of a real
//! [`ReadySignal`]). The drainer visits as the engine's ready drain does
//! (pop the token, clear the flag), then performs the machine's actions,
//! one step each: a scan, a listener re-arm, a full re-arm. A ring or the
//! end of a visit closes the step that decided it (a ring commutes with
//! every other thread's op). The clock is a second later at each reading,
//! so a rest is over at the next visit.
//!
//! * **rearm** — a cold source with one connection and a listener: one
//!   arrival, two peers (each counts as a message), two reactor
//!   dispatches, the drainer.
//! * **handoff** — a TCP dialler offers the read side of its socket to its
//!   own context's receiver, then announces (`transports::tcp`, §
//!   Connections); only an announced scan takes it, and the kernel has no
//!   entry for it until the re-arm after that. The reply lands in any
//!   gap; one dispatch. From a cold, a hot and a resting source.
//!
//! At quiescence the connection is kept busy for a few visits while the
//! source is hot, since a hot period can last for ever: every peer must
//! be accepted meanwhile. Then everything runs dry: every arrival read,
//! the offered socket taken once, every fd the source owns armed.

use nexus_rt::poll::{ReadySignal, SegQueue};
use nexus_transports::reactor::{Action, SourceState};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Drainer steps per schedule: enough for an announced visit, the empty
/// read that starts a rest and the one that ends it in a re-arm.
const DRAINER_STEPS: usize = 8;

/// What `EPOLL_CTL_MOD` does with an fd that is readable already.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Re-evaluates readiness and raises the event at once (Linux).
    Level,
    /// Waits for a new arrival: the kernel the design rules out.
    EdgeOnly,
}

/// Which program runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    Rearm,
    Handoff,
}

/// Where the source stands when the program starts.
#[derive(Clone, Copy, Debug)]
pub enum Start {
    Cold,
    Hot,
    Resting,
}

#[derive(Default)]
struct Fd {
    /// Unread bytes (connection, handed socket) or unaccepted peers.
    pending: u64,
    armed: bool,
}

impl Fd {
    fn arrive(&mut self, sent: &mut u64, event: &mut bool) {
        *sent += 1;
        self.pending += 1;
        self.raise_if_armed(event);
    }

    fn raise_if_armed(&mut self, event: &mut bool) {
        if self.armed {
            self.armed = false;
            *event = true;
        }
    }

    /// `EPOLL_CTL_MOD` (or `ADD`) one-shot.
    fn rearm(&mut self, event: &mut bool, kernel: Kernel) {
        self.armed = true;
        if kernel == Kernel::Level && self.pending > 0 {
            self.raise_if_armed(event);
        }
    }
}

struct World {
    kernel: Kernel,
    source: SourceState,
    list: Arc<SegQueue<usize>>,
    signal: ReadySignal,
    clock: Instant,
    /// The current visit's next action; `None` between visits.
    next: Option<Action>,
    /// What the last scan queued and the drainer has not delivered.
    queued: u64,
    conn: Fd,
    listener: Fd,
    handed: Fd,
    /// The dialler offered its socket / a scan took it out of the queue.
    dialled: bool,
    offered: bool,
    taken: u32,
    /// An event of the source awaits the reactor thread (every fd of a
    /// source carries the same registration).
    event: bool,
    sent: u64,
    received: u64,
}

/// The model clock: a second later at every reading.
fn tick(clock: &mut Instant) -> Instant {
    *clock += Duration::from_secs(1);
    *clock
}

impl World {
    /// A source at `start`, brought there by traffic through the machine.
    fn new(kernel: Kernel, start: Start) -> World {
        let list = Arc::new(SegQueue::new());
        let signal = ReadySignal::new(0, Arc::clone(&list));
        let source = SourceState::default();
        source.set_signal(signal.clone());
        let armed = || Fd {
            armed: true,
            ..Fd::default()
        };
        let mut w = World {
            kernel,
            source,
            list,
            signal,
            clock: Instant::now(),
            next: None,
            queued: 0,
            conn: armed(),
            listener: armed(),
            handed: Fd::default(),
            dialled: false,
            offered: false,
            taken: 0,
            event: false,
            sent: 0,
            received: 0,
        };
        if !matches!(start, Start::Cold) {
            // An announced scan that finds bytes leaves the source hot;
            // its next read finds nothing, and the source rests.
            w.arrive();
            w.dispatch();
            w.visit();
            if matches!(start, Start::Resting) {
                w.visit();
            }
        }
        w
    }

    fn arrive(&mut self) {
        self.conn.arrive(&mut self.sent, &mut self.event);
    }

    /// Reactor thread: a queued event becomes what its callback does.
    fn dispatch(&mut self) {
        if std::mem::take(&mut self.event) {
            self.source.announce();
        }
    }

    /// The model `FdSource::scan`: reads the connection and, once taken,
    /// the handed socket; told `fired`, it also accepts every peer and
    /// takes the offered socket.
    fn scan(&mut self, fired: bool) -> bool {
        let took = fired && std::mem::take(&mut self.offered);
        self.taken += u32::from(took);
        let mut n = std::mem::take(&mut self.conn.pending);
        if fired {
            n += std::mem::take(&mut self.listener.pending);
        }
        if self.taken > 0 {
            n += std::mem::take(&mut self.handed.pending);
        }
        self.queued += n;
        n > 0 || took
    }

    /// One drainer step: start a visit, or perform its next action.
    fn drain(&mut self) {
        match self.next.take() {
            None => {
                if self.list.pop().is_none() {
                    return;
                }
                self.signal.clear();
            }
            Some(Action::Scan { fired }) => {
                let found = self.scan(fired);
                self.source.scanned(found, || tick(&mut self.clock));
            }
            Some(Action::RearmListeners) => self.listener.rearm(&mut self.event, self.kernel),
            Some(Action::Rearm) => {
                self.conn.rearm(&mut self.event, self.kernel);
                self.listener.rearm(&mut self.event, self.kernel);
                if self.taken > 0 {
                    self.handed.rearm(&mut self.event, self.kernel);
                }
                // The model kernel takes every fd: the visit is over.
                self.source.rearmed(true);
                return;
            }
            Some(other) => unreachable!("{other:?} is performed where it is decided"),
        }
        self.received += std::mem::take(&mut self.queued);
        match self.source.next(|| tick(&mut self.clock)) {
            Action::Ring => self.source.ring(),
            Action::Done => {}
            action => self.next = Some(action),
        }
    }

    /// Finishes the visit in progress, or runs the one a token starts.
    fn visit(&mut self) {
        self.drain();
        while self.next.is_some() {
            self.drain();
        }
    }

    fn settle(&mut self) -> Result<(), String> {
        self.visit();
        // A hot connection kept busy for three visits.
        for _ in 0..3 {
            if !self.conn.armed {
                self.arrive();
            }
            self.dispatch();
            self.visit();
        }
        if self.listener.pending > 0 {
            return Err(format!(
                "{} peer(s) never accepted while the connection stayed hot",
                self.listener.pending
            ));
        }
        // Run dry: a hot source is quiet after two visits.
        for _ in 0..16 {
            self.dispatch();
            self.visit();
        }
        let armed = self.conn.armed && self.listener.armed && (self.handed.armed || !self.dialled);
        if self.received == self.sent && self.taken == u32::from(self.dialled) && armed {
            Ok(())
        } else {
            let armed = (self.conn.armed, self.listener.armed, self.handed.armed);
            Err(format!(
                "missed wakeup: read {} of {} arrivals, offered socket taken {} times, \
                 (connection, listener, handed socket) armed: {armed:?}",
                self.received, self.sent, self.taken
            ))
        }
    }
}

fn footprints(program: Program) -> Vec<Vec<u64>> {
    // Rearm: the arrival; two peers; two dispatches. Handoff: the dialler
    // (offer, announce); the reply; one dispatch. Then the drainer.
    let ops = match program {
        Program::Rearm => [1, 2, 2, DRAINER_STEPS],
        Program::Handoff => [2, 1, 1, DRAINER_STEPS],
    };
    // Every op conflicts with every other: none may be pruned away.
    ops.iter().map(|&n| vec![1; n]).collect()
}

fn step(program: Program) -> impl Fn(&mut World, usize, usize) {
    move |w, t, op| match (program, t, op) {
        (Program::Rearm, 0, _) => w.arrive(),
        (Program::Rearm, 1, _) => w.listener.arrive(&mut w.sent, &mut w.event),
        (Program::Handoff, 0, 0) => (w.dialled, w.offered) = (true, true),
        (Program::Handoff, 0, _) => w.source.announce(),
        (Program::Handoff, 1, _) => w.handed.arrive(&mut w.sent, &mut w.event),
        (_, 2, _) => w.dispatch(),
        _ => w.drain(),
    }
}

/// `run` from each of `starts` under the kernel Linux has: the schedules
/// checked, or the first violation, tagged with its start.
pub(super) fn check(
    schedule: Option<&[usize]>,
    program: Program,
    starts: &[Start],
) -> Result<u64, String> {
    starts.iter().try_fold(0, |n, &start| {
        let got = run(program, Kernel::Level, start, schedule);
        Ok(n + got.map_err(|e| format!("from {start:?}: {e}"))?)
    })
}

/// Explores every interleaving of `program` from `start`, or replays
/// `schedule` alone; returns the schedules checked.
pub fn run(
    program: Program,
    kernel: Kernel,
    start: Start,
    schedule: Option<&[usize]>,
) -> Result<u64, String> {
    super::checks::systematic(
        schedule,
        &footprints(program),
        &|| World::new(kernel, start),
        &step(program),
        &World::settle,
    )
}
