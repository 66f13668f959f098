//! The four workloads and the loops that drive them.
//!
//! All four are the same closed loop — send a window of requests, wait
//! for the reply to the last — over a [`Shape`]: message size, window
//! length, which link the requests ride, and who drives the receiver.

use crate::hist::{Histogram, SEGMENT_NS};
use crate::payload::{op_salt, Payload};
use crate::span::{self, Name, Recorder, CTX_A, CTX_B};
use crate::topo::{Shape, Shared, Topo, BG_LEN, BG_PERIOD, OP_TIMEOUT};
use nexus_rt::context::Context;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Who runs on the peer thread.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// Nobody: the main thread drives both contexts.
    None,
    /// A loop of `b.progress()`.
    DriveB,
    /// The open-loop background sender C.
    Generator,
}

pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    pub peer: Peer,
    /// Ops before the measured interval (count-based warm-up).
    pub warmup_ops: u64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "wire_pingpong",
        shape: Shape {
            msg_len: 16,
            window: 1,
            mix: false,
        },
        peer: Peer::None,
        warmup_ops: 2_000,
    },
    Spec {
        name: "wire_stream_small",
        shape: Shape {
            msg_len: 64,
            window: 256,
            mix: false,
        },
        peer: Peer::DriveB,
        warmup_ops: 100,
    },
    Spec {
        name: "wire_stream_large",
        shape: Shape {
            msg_len: 1 << 20,
            window: 4,
            mix: false,
        },
        peer: Peer::DriveB,
        warmup_ops: 50,
    },
    Spec {
        name: "multimethod_mix",
        shape: Shape {
            msg_len: 16,
            window: 1,
            mix: true,
        },
        peer: Peer::Generator,
        warmup_ops: 50_000,
    },
];

impl Spec {
    pub fn bytes_per_op(&self) -> u64 {
        self.shape.msg_len as u64 * self.shape.window as u64
    }
}

/// One measured interval on the main thread.
pub struct Interval {
    pub wall: Duration,
    pub op_ns: Histogram,
    /// Ops completed in each 100 ms segment; an op that straddles a
    /// segment boundary is shared out by the time it spent on each side,
    /// so a segment's count is not quantised to whole ops.
    pub seg_ops: Vec<f64>,
    /// Ops completed and verified inside the interval.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Interval {
    /// Credits one op that ran over `[from_ns, to_ns)` of the interval.
    fn credit(&mut self, from_ns: u64, to_ns: u64) {
        let (first, last) = (
            (from_ns / SEGMENT_NS) as usize,
            (to_ns / SEGMENT_NS) as usize,
        );
        if first == last {
            self.seg_ops[first] += 1.0;
            return;
        }
        let per_ns = 1.0 / (to_ns - from_ns) as f64;
        for seg in first..=last {
            let lo = from_ns.max(seg as u64 * SEGMENT_NS);
            let hi = to_ns.min((seg as u64 + 1) * SEGMENT_NS);
            self.seg_ops[seg] += (hi - lo) as f64 * per_ns;
        }
    }
}

/// What the background sender saw (`multimethod_mix`).
pub struct GenStats {
    pub sent: u64,
    pub errors: u64,
    /// How late each send started against its due time.
    pub late_ns: Histogram,
}

/// Calls into the library from the loops, wrapped in spans when `T`.
/// Spans on one thread abut: each starts at the instant the previous one
/// ended, so a thread's timeline is tiled and Σ self time can be checked
/// against wall time.
struct Driver<const T: bool> {
    cursor: Instant,
    errors: u64,
}

impl<const T: bool> Driver<T> {
    fn new() -> Self {
        Driver {
            cursor: Instant::now(),
            errors: 0,
        }
    }

    #[inline]
    fn span<R>(&mut self, name: Name, op: u64, f: impl FnOnce() -> R) -> R {
        if !T {
            return f();
        }
        span::with(|r| r.open(name, CTX_A, op, self.cursor));
        let out = f();
        self.cursor = Instant::now();
        span::with(|r| r.close(self.cursor));
        out
    }

    /// One `progress` pass; returns messages dispatched.
    #[inline]
    fn pass(&mut self, ctx: &Context, which: u8, op: u64) -> usize {
        if T {
            span::with(|r| r.open(Name::IdlePass, which, op, self.cursor));
        }
        let n = ctx.progress().unwrap_or_else(|_| {
            self.errors += 1;
            0
        });
        if T {
            self.cursor = Instant::now();
            span::with(|r| r.close_pass(self.cursor, n));
        }
        n
    }

    /// The instant the op that just completed ended.
    #[inline]
    fn op_end(&mut self) -> Instant {
        if !T {
            self.cursor = Instant::now();
        }
        self.cursor
    }
}

/// One op: a window of requests, then wait for the verified reply.
#[inline]
fn one_op<const T: bool>(
    d: &mut Driver<T>,
    topo: &Topo,
    spec: &Spec,
    request: &Payload,
    op: u64,
) -> bool {
    let shared: &Shared = &topo.shared;
    let bad_before = shared.bad.load(Ordering::Relaxed);
    let errors_before = d.errors;
    for i in 0..spec.shape.window {
        let buf = d.span(Name::Build, op, || request.build(op, i));
        if d.span(Name::Send, op, || topo.a.rsr(&topo.a_to_b, "req", buf))
            .is_err()
        {
            return false;
        }
    }
    let drive_b = spec.peer != Peer::DriveB;
    let mut spins = 0u32;
    let mut deadline = None;
    while shared.done_op.load(Ordering::Relaxed) != op {
        if drive_b {
            d.pass(&topo.b, CTX_B, op);
        }
        d.pass(&topo.a, CTX_A, op);
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(256) {
            let now = Instant::now();
            if now >= *deadline.get_or_insert(now + OP_TIMEOUT) {
                return false;
            }
        }
    }
    shared.done_sum.load(Ordering::Relaxed) == request.window_sum(op, spec.shape.window)
        && shared.bad.load(Ordering::Relaxed) == bad_before
        && d.errors == errors_before
}

/// Runs ops back to back for `dur`; the op that is in flight when the
/// interval ends is finished but not counted.
pub fn measure<const T: bool>(
    topo: &Topo,
    spec: &Spec,
    request: &Payload,
    next_op: &mut u64,
    dur: Duration,
) -> Interval {
    let dur_ns = dur.as_nanos() as u64;
    let mut out = Interval {
        wall: dur,
        op_ns: Histogram::new(),
        seg_ops: vec![0.0; dur_ns.div_ceil(SEGMENT_NS) as usize],
        ops: 0,
        attempted: 0,
        failed: 0,
    };
    let mut d = Driver::<T>::new();
    let start = d.cursor;
    let mut prev_ns = 0;
    loop {
        *next_op += 1;
        let ok = one_op(&mut d, topo, spec, request, *next_op);
        let end_ns = (d.op_end() - start).as_nanos() as u64;
        if end_ns >= dur_ns {
            if !ok {
                out.attempted += 1;
                out.failed += 1;
            }
            return out;
        }
        out.attempted += 1;
        if ok {
            out.ops += 1;
            out.credit(prev_ns, end_ns);
            out.op_ns.record(end_ns - prev_ns);
        } else {
            out.failed += 1;
        }
        prev_ns = end_ns;
    }
}

/// Count-based warm-up; the first op is verified byte for byte.
pub fn warm_up(topo: &Topo, spec: &Spec, request: &Payload, next_op: &mut u64) -> (u64, u64) {
    let mut d = Driver::<false>::new();
    let mut failed = 0;
    for k in 0..spec.warmup_ops {
        topo.shared.full_verify.store(k == 0, Ordering::Relaxed);
        *next_op += 1;
        if !one_op(&mut d, topo, spec, request, *next_op) {
            failed += 1;
        }
    }
    topo.shared.full_verify.store(false, Ordering::Relaxed);
    (spec.warmup_ops, failed)
}

// -- the peer thread ---------------------------------------------------------

pub const PHASE_UNTRACED: u8 = 0;
pub const PHASE_TRACED: u8 = 1;
pub const PHASE_STOP: u8 = 2;

/// What the main thread tells the peer thread to do.
pub type Phase = Arc<AtomicU8>;

fn drive_b_while<const T: bool>(b: &Context, phase: &AtomicU8, mine: u8) -> u64 {
    let mut d = Driver::<T>::new();
    while phase.load(Ordering::Relaxed) == mine {
        if d.pass(b, CTX_B, 0) == 0 {
            // Like the library's own progress thread: an empty pass gives
            // the core away, which on a 2-core host is what lets the
            // reactor thread run.
            std::thread::yield_now();
            d.cursor = Instant::now();
        }
    }
    d.errors
}

/// Peer thread body for the stream workloads: drives B until told to
/// stop. Returns poll errors seen and the recorder it was given (a run
/// that will trace gives it one).
pub fn drive_b(
    b: Arc<Context>,
    phase: Phase,
    recorder: Option<Recorder>,
) -> (u64, Option<Recorder>) {
    if let Some(r) = recorder {
        span::install(r);
    }
    let mut errors = 0;
    loop {
        match phase.load(Ordering::Relaxed) {
            PHASE_UNTRACED => errors += drive_b_while::<false>(&b, &phase, PHASE_UNTRACED),
            PHASE_TRACED => errors += drive_b_while::<true>(&b, &phase, PHASE_TRACED),
            _ => break,
        }
    }
    (errors, span::uninstall())
}

/// Peer thread body for `multimethod_mix`: C sends A one message per
/// [`BG_PERIOD`] on a fixed schedule, open loop, until told to stop. A
/// late generator sends back to back until it has caught up.
pub fn generate(topo: Arc<Topo>, bg: Arc<Payload>, seed: u64, phase: Phase) -> GenStats {
    let salt = op_salt(seed);
    let mut stats = GenStats {
        sent: 0,
        errors: 0,
        late_ns: Histogram::new(),
    };
    // Message 0 was the set-up message; the schedule starts at 1.
    let epoch = Instant::now();
    topo.shared
        .bg_epoch
        .set(epoch)
        .expect("one generator per topology");
    let mut seq = 1u64;
    while phase.load(Ordering::Relaxed) != PHASE_STOP {
        let due = epoch + BG_PERIOD * seq as u32;
        let mut now = Instant::now();
        while now < due {
            std::hint::spin_loop();
            now = Instant::now();
        }
        stats.late_ns.record((now - due).as_nanos() as u64);
        if topo.send_bg(&bg, salt, seq).is_err() {
            stats.errors += 1;
        }
        stats.sent += 1;
        seq += 1;
    }
    stats
}

/// After the generator has stopped: dispatch what is still in flight.
/// Returns background messages that never arrived.
pub fn drain_background(topo: &Topo, sent: u64) -> u64 {
    // +1: the set-up message.
    let want = sent + 1;
    let deadline = Instant::now() + OP_TIMEOUT;
    let delivered = || topo.shared.bg_delivered.load(Ordering::Relaxed);
    while delivered() < want && Instant::now() < deadline {
        let _ = topo.a.progress();
    }
    want.saturating_sub(delivered())
}

pub fn payloads(seed: u64, spec: &Spec) -> (Arc<Payload>, Arc<Payload>) {
    (
        Arc::new(Payload::new(seed, spec.shape.msg_len)),
        Arc::new(Payload::new(seed, BG_LEN)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_across_a_segment_boundary_is_shared_by_time() {
        let mut iv = Interval {
            wall: Duration::from_millis(300),
            op_ns: Histogram::new(),
            seg_ops: vec![0.0; 3],
            ops: 0,
            attempted: 0,
            failed: 0,
        };
        iv.credit(0, 50_000_000); // inside segment 0
        iv.credit(50_000_000, 150_000_000); // half in 0, half in 1
        iv.credit(150_000_000, 290_000_000); // 50 ms in 1, 90 ms in 2
        let want = [1.5, 0.5 + 50.0 / 140.0, 90.0 / 140.0];
        for (got, want) in iv.seg_ops.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{:?}", iv.seg_ops);
        }
        assert!((iv.seg_ops.iter().sum::<f64>() - 3.0).abs() < 1e-12);
    }
}
