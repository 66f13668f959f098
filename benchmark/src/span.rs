//! Outside-in spans: recorded only here, around each call the benchmark
//! makes into the library and around each handler body the library calls
//! back. One `Instant` clock, one process.
//!
//! Each thread owns a [`Recorder`]. Closing a span feeds its *self time*
//! (duration minus the child spans inside it) into a per-name histogram;
//! full records are kept for one op in [`SAMPLE_EVERY`] and joined across
//! threads by op id after the run.

use crate::hist::Histogram;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Full span records are kept for ops whose counter is a multiple of this.
pub const SAMPLE_EVERY: u64 = 64;
/// Most full records one thread keeps; later sampled ops are dropped.
const MAX_RECORDS: usize = 1 << 17;

/// Span names. The strings are what the trace file and README use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Name {
    /// Filling the payload `Buffer` (benchmark code + `core::buffer`).
    Build,
    /// `Context::rsr` on the initiating context.
    Send,
    /// A `Context::progress` pass that dispatched nothing.
    IdlePass,
    /// A `Context::progress` pass that dispatched at least one message.
    Deliver,
    /// Body of the request/reply handlers (benchmark code).
    Handler,
    /// `Context::rsr` nested inside a handler.
    ReplySend,
    /// Body of the background-traffic handler (`multimethod_mix`).
    BgHandler,
}

pub const NAMES: [&str; 7] = [
    "buf.build",
    "ctx.send",
    "ctx.idle_pass",
    "ctx.deliver",
    "ctx.handler",
    "ctx.reply_send",
    "mix.bg_handler",
];

/// Which context a span ran on.
pub const CTX_A: u8 = 0;
pub const CTX_B: u8 = 1;

/// One fully recorded span. `id`/`parent` are unique across threads (the
/// thread number sits in the top bits); `parent` 0 means a root.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub id: u32,
    pub parent: u32,
    pub name: Name,
    pub ctx: u8,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Messages dispatched, for passes.
    pub msgs: u32,
}

struct Open {
    id: u32,
    name: Name,
    ctx: u8,
    op: u64,
    start: Instant,
    child_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    /// Subtracted from an op id to get its counter (see `payload`).
    salt: u64,
    id_base: u32,
    next_id: u32,
    stack: Vec<Open>,
    /// Self time per [`Name`].
    pub self_ns: Vec<Histogram>,
    /// Messages dispatched over all delivering passes.
    pub delivered_msgs: u64,
    /// Due time to handler entry of background messages (main thread).
    pub bg_delivery: Histogram,
    pub records: Vec<Record>,
    pub records_dropped: u64,
}

impl Recorder {
    pub fn new(epoch: Instant, salt: u64, thread: u8) -> Self {
        Recorder {
            epoch,
            salt,
            id_base: (thread as u32) << 28,
            next_id: 0,
            stack: Vec::with_capacity(8),
            self_ns: NAMES.iter().map(|_| Histogram::new()).collect(),
            delivered_msgs: 0,
            bg_delivery: Histogram::new(),
            records: Vec::with_capacity(MAX_RECORDS),
            records_dropped: 0,
        }
    }

    pub fn open(&mut self, name: Name, ctx: u8, op: u64, start: Instant) {
        self.next_id += 1;
        self.stack.push(Open {
            id: self.id_base | self.next_id,
            name,
            ctx,
            op,
            start,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self, end: Instant) {
        self.close_with(end, None);
    }

    /// Closes the innermost open span, a handler body that learned its op
    /// id only by reading the message.
    pub fn close_as_op(&mut self, op: u64, end: Instant) {
        if let Some(span) = self.stack.last_mut() {
            span.op = op;
        }
        self.close(end);
    }

    /// Closes the innermost open span, which is a `progress` pass: it is
    /// named by what the pass turned out to do.
    pub fn close_pass(&mut self, end: Instant, msgs: usize) {
        self.close_with(end, Some(msgs as u32));
    }

    fn close_with(&mut self, end: Instant, pass_msgs: Option<u32>) {
        let mut span = self.stack.pop().expect("close without an open span");
        if let Some(msgs) = pass_msgs {
            span.name = if msgs == 0 {
                Name::IdlePass
            } else {
                Name::Deliver
            };
            self.delivered_msgs += msgs as u64;
        }
        let dur = end.saturating_duration_since(span.start).as_nanos() as u64;
        self.self_ns[span.name as usize].record(dur.saturating_sub(span.child_ns));
        let mut parent_id = 0;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent_id = parent.id;
            // A pass on the peer thread learns its op from the first
            // message it dispatches.
            if parent.op == 0 {
                parent.op = span.op;
            }
        }
        if span.op != 0 && span.op.wrapping_sub(self.salt).is_multiple_of(SAMPLE_EVERY) {
            if self.records.len() < MAX_RECORDS {
                self.records.push(Record {
                    id: span.id,
                    parent: parent_id,
                    name: span.name,
                    ctx: span.ctx,
                    op: span.op,
                    start_ns: self.since_epoch(span.start),
                    end_ns: self.since_epoch(end),
                    msgs: pass_msgs.unwrap_or(0),
                });
            } else {
                self.records_dropped += 1;
            }
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Σ self time over every span closed so far, in ns. On a thread whose
    /// spans tile its timeline this equals the wall time covered.
    pub fn self_total_ns(&self) -> u64 {
        self.self_ns.iter().map(Histogram::sum).sum()
    }
}

/// Whether handlers record spans. Relaxed: the flag guards only the
/// thread-local recorder, which is installed before the flag is raised
/// and removed after it is lowered, on the thread that uses it.
static TRACING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Gives this thread its recorder.
pub fn install(recorder: Recorder) {
    RECORDER.with(|r| *r.borrow_mut() = Some(recorder));
}

/// Takes this thread's recorder back.
pub fn uninstall() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Runs `f` on this thread's recorder; a no-op on a thread without one.
/// Never held across a call into the library, so handlers can nest.
#[inline]
pub fn with<R: Default>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f).unwrap_or_default())
}

/// Opens a handler-body span on this thread if tracing is on; the handler
/// does not know its op id until it has read the message. Returns the
/// entry instant, to be handed to [`exit`].
#[inline]
pub fn enter(name: Name, ctx: u8) -> Option<Instant> {
    let entry = tracing().then(Instant::now)?;
    with(|r| r.open(name, ctx, 0, entry));
    Some(entry)
}

/// Closes the span [`enter`] opened, now that the handler knows its op.
#[inline]
pub fn exit(entered: Option<Instant>, op: u64) {
    if entered.is_some() {
        with(|r| r.close_as_op(op, Instant::now()));
    }
}

/// `ctx.wake_wait` samples, in ns, from the sampled records of all
/// threads: for every handler span, the time from the return of the `rsr`
/// that sent its message to the start of the `progress` pass that
/// dispatched it. The sender's span and the receiver's pass may sit in
/// different threads' buffers; the op id joins them. With several sends
/// per op (a stream window) the op's first send and first handler pair up.
pub fn wake_waits(records: &[Record]) -> Vec<u64> {
    use std::collections::BTreeMap;
    let by_id: BTreeMap<u32, &Record> = records.iter().map(|r| (r.id, r)).collect();
    // (op, receiving ctx) → earliest dispatching pass start.
    let mut first_pass: BTreeMap<(u64, u8), u64> = BTreeMap::new();
    for h in records.iter().filter(|r| r.name == Name::Handler) {
        let Some(pass) = by_id.get(&h.parent) else {
            continue;
        };
        let e = first_pass.entry((h.op, h.ctx)).or_insert(u64::MAX);
        *e = (*e).min(pass.start_ns);
    }
    // (op, receiving ctx) → earliest return of the matching send.
    let mut first_send: BTreeMap<(u64, u8), u64> = BTreeMap::new();
    for s in records {
        let to = match s.name {
            Name::Send => CTX_B,
            Name::ReplySend => CTX_A,
            _ => continue,
        };
        let e = first_send.entry((s.op, to)).or_insert(u64::MAX);
        *e = (*e).min(s.end_ns);
    }
    first_pass
        .iter()
        .filter_map(|(key, &pass_start)| {
            // The pass may have started while the send was still
            // returning on the other thread: that is a wait of zero.
            first_send
                .get(key)
                .map(|&sent| pass_start.saturating_sub(sent))
        })
        .collect()
}

/// Writes the sampled records as JSON: a name table and one array per
/// span, `[id, parent, name, ctx, op, start_ns, end_ns, msgs]`.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    records: &[Record],
    dropped: u64,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"sample_every\":{SAMPLE_EVERY},\"dropped\":{dropped},\"names\":["
    )?;
    for (i, n) in NAMES.iter().enumerate() {
        write!(w, "{}\"{n}\"", if i == 0 { "" } else { "," })?;
    }
    write!(
        w,
        "],\"columns\":[\"id\",\"parent\",\"name\",\"ctx\",\"op\",\"start_ns\",\"end_ns\",\"msgs\"],\"spans\":["
    )?;
    for (i, r) in records.iter().enumerate() {
        write!(
            w,
            "{}\n[{},{},{},{},{},{},{},{}]",
            if i == 0 { "" } else { "," },
            r.id,
            r.parent,
            r.name as u8,
            r.ctx,
            r.op,
            r.start_ns,
            r.end_ns,
            r.msgs
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ns: u64) -> Instant {
        epoch + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let t0 = Instant::now();
        let mut r = Recorder::new(t0, 0, 0);
        // pass [0,1000] ⊃ handler [100,400] ⊃ reply [150,250];
        //               ⊃ handler [500,900] (a sibling)
        r.open(Name::IdlePass, CTX_B, 64, at(t0, 0));
        r.open(Name::Handler, CTX_B, 64, at(t0, 100));
        r.open(Name::ReplySend, CTX_B, 64, at(t0, 150));
        r.close(at(t0, 250));
        r.close(at(t0, 400));
        r.open(Name::Handler, CTX_B, 64, at(t0, 500));
        r.close(at(t0, 900));
        r.close_pass(at(t0, 1000), 2);

        assert_eq!(r.self_ns[Name::ReplySend as usize].sum(), 100);
        assert_eq!(r.self_ns[Name::Handler as usize].sum(), 200 + 400);
        assert_eq!(r.self_ns[Name::Handler as usize].count(), 2);
        // The pass turned out to deliver: 1000 − (300 + 400).
        assert_eq!(r.self_ns[Name::Deliver as usize].sum(), 300);
        assert_eq!(r.self_ns[Name::IdlePass as usize].count(), 0);
        assert_eq!(r.delivered_msgs, 2);
        // Self times tile the root span exactly.
        assert_eq!(r.self_total_ns(), 1000);

        // Op 64 is sampled (salt 0): four records, parents linked.
        assert_eq!(r.records.len(), 4);
        let pass = r.records.last().unwrap();
        assert_eq!((pass.name, pass.parent, pass.msgs), (Name::Deliver, 0, 2));
        assert!(
            r.records[..3]
                .iter()
                .filter(|s| s.parent == pass.id)
                .count()
                == 2
        );
        assert_eq!(
            r.records[0].parent, r.records[1].id,
            "reply is inside the first handler"
        );
    }

    #[test]
    fn unsampled_ops_keep_histograms_but_no_records() {
        let t0 = Instant::now();
        let mut r = Recorder::new(t0, 1 << 40, 0);
        r.open(Name::Send, CTX_A, (1 << 40) + 65, at(t0, 0));
        r.close(at(t0, 10));
        assert_eq!(r.self_ns[Name::Send as usize].count(), 1);
        assert!(r.records.is_empty());
        r.open(Name::Send, CTX_A, (1 << 40) + 128, at(t0, 20));
        r.close(at(t0, 30));
        assert_eq!(r.records.len(), 1);
    }

    #[test]
    fn wake_wait_joins_two_threads_by_op_id() {
        let t0 = Instant::now();
        // Main thread (0): sends op 64 at [0,40], later dispatches the
        // reply in a pass starting at 900.
        let mut main = Recorder::new(t0, 0, 0);
        main.open(Name::Send, CTX_A, 64, at(t0, 0));
        main.close(at(t0, 40));
        main.open(Name::Send, CTX_A, 64, at(t0, 40)); // second message of the window
        main.close(at(t0, 70));
        main.open(Name::IdlePass, CTX_A, 64, at(t0, 900));
        main.open(Name::Handler, CTX_A, 64, at(t0, 950));
        main.close(at(t0, 960));
        main.close_pass(at(t0, 1000), 1);
        // Peer thread (1): a pass with no op of its own starts at 300,
        // dispatches op 64's message, replies by 600.
        let mut peer = Recorder::new(t0, 0, 1);
        peer.open(Name::IdlePass, CTX_B, 0, at(t0, 300));
        peer.open(Name::Handler, CTX_B, 64, at(t0, 350));
        peer.open(Name::ReplySend, CTX_B, 64, at(t0, 400));
        peer.close(at(t0, 600));
        peer.close(at(t0, 650));
        peer.close_pass(at(t0, 700), 1);
        // The pass inherited op 64 from its handler, so it was sampled.
        assert_eq!(peer.records.last().unwrap().op, 64);
        assert_ne!(main.records[0].id >> 28, peer.records[0].id >> 28);

        let mut all = main.records.clone();
        all.extend(peer.records.iter().cloned());
        let mut waits = wake_waits(&all);
        waits.sort_unstable();
        // Request leg: first send returned at 40, peer pass started at 300.
        // Reply leg: reply returned at 600, main pass started at 900.
        assert_eq!(waits, vec![260, 300]);
    }

    #[test]
    fn a_pass_that_started_before_the_send_returned_waited_zero() {
        let t0 = Instant::now();
        let mut main = Recorder::new(t0, 0, 0);
        main.open(Name::Send, CTX_A, 64, at(t0, 100));
        main.close(at(t0, 200));
        let mut peer = Recorder::new(t0, 0, 1);
        peer.open(Name::IdlePass, CTX_B, 0, at(t0, 150));
        peer.open(Name::Handler, CTX_B, 64, at(t0, 180));
        peer.close(at(t0, 190));
        peer.close_pass(at(t0, 195), 1);
        let mut all = main.records.clone();
        all.extend(peer.records.iter().cloned());
        assert_eq!(wake_waits(&all), vec![0]);
    }
}
