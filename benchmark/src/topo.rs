//! Topologies, handlers and the cold set-up cycle.
//!
//! Two fabrics with disjoint context-id ranges in one process, placed the
//! way `examples/two_process.rs` places its two processes; every fabric
//! gets `register_defaults` (all six modules), startpoints cross between
//! fabrics as packed bytes, and selection is automatic. Which method each
//! link must end up on is asserted, never set.

use crate::payload::{Payload, BG_FLAG, REPLY_LEN};
use crate::span::{self, Name, CTX_A, CTX_B};
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{Context, Fabric, NodeId, PartitionId};
use nexus_rt::descriptor::MethodId;
use nexus_rt::error::Result;
use nexus_rt::startpoint::Startpoint;
use nexus_transports::register_defaults;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// An op that has not completed after this long is a counted failure.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);
/// Background period of `multimethod_mix`: 10 000 msg/s.
pub const BG_PERIOD: Duration = Duration::from_micros(100);
pub const BG_LEN: usize = 1024;

/// The shape of a workload: what is sent, and which link it rides.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Payload bytes per request message.
    pub msg_len: usize,
    /// Request messages per op; the last one is answered.
    pub window: u32,
    /// Request link: `false` = A and B in different partitions (TCP),
    /// `true` = same partition, different nodes (MPL) plus a TCP sender C.
    pub mix: bool,
}

/// State the handlers share with the loops. One process, so plain atomics.
#[derive(Default)]
pub struct Shared {
    /// Op id and checksum of the last reply A dispatched.
    pub done_op: AtomicU64,
    pub done_sum: AtomicU64,
    /// Messages that failed verification, or handler-side send errors.
    pub bad: AtomicU64,
    /// Compare every byte of every message (the pre-measurement window).
    pub full_verify: AtomicBool,
    pub bg_delivered: AtomicU64,
    /// When background message 0 was due.
    pub bg_epoch: OnceLock<Instant>,
}

/// B's running window.
#[derive(Default)]
struct Window {
    op: AtomicU64,
    count: AtomicU32,
    sum: AtomicU64,
}

pub struct Topo {
    fabrics: Vec<Fabric>,
    pub a: Arc<Context>,
    pub b: Arc<Context>,
    pub c: Option<Arc<Context>>,
    pub a_to_b: Startpoint,
    /// Held by B's handler; kept here to read back what it selected.
    b_to_a: Arc<Startpoint>,
    pub c_to_a: Option<Startpoint>,
    pub shared: Arc<Shared>,
    shape: Shape,
}

/// Exports a startpoint to `ctx`'s new endpoint the way one process hands
/// it to another: packed bytes out, `unpack_standalone` in.
fn export(ctx: &Context) -> Result<Startpoint> {
    let sp = ctx.startpoint_to(ctx.create_endpoint())?;
    let mut wire = Buffer::new();
    sp.pack(&mut wire);
    Startpoint::unpack_standalone(&mut wire)
}

/// A fabric with all six default modules registered.
pub fn fabric(id_base: u32) -> Fabric {
    let f = Fabric::with_id_base(id_base);
    register_defaults(&f);
    f
}

impl Topo {
    pub fn build(shape: Shape, request: &Arc<Payload>, bg: &Arc<Payload>) -> Result<Topo> {
        let f0 = fabric(0);
        let f1 = fabric(1000);
        let a = f0.create_context_at(NodeId(0), PartitionId(1))?;
        let (b, c) = if shape.mix {
            let b = f0.create_context_at(NodeId(1), PartitionId(1))?;
            let c = f1.create_context_at(NodeId(1000), PartitionId(2))?;
            (b, Some(c))
        } else {
            (f1.create_context_at(NodeId(1000), PartitionId(2))?, None)
        };
        let shared = Arc::new(Shared::default());
        let a_to_b = export(&b)?;
        let b_to_a = Arc::new(export(&a)?);
        let c_to_a = if c.is_some() { Some(export(&a)?) } else { None };

        // B: verify each request, fold it into the window's checksum, and
        // answer the window's last message with `op | checksum`.
        {
            let (shared, payload, reply_to) = (
                Arc::clone(&shared),
                Arc::clone(request),
                Arc::clone(&b_to_a),
            );
            let win = Window::default();
            let last = shape.window - 1;
            b.register_handler("req", move |args| {
                let entered = span::enter(Name::Handler, CTX_B);
                let full = shared.full_verify.load(Ordering::Relaxed);
                let mut span_op = 0;
                match payload.verify(args.buffer.as_slice(), full) {
                    None => {
                        shared.bad.fetch_add(1, Ordering::Relaxed);
                    }
                    Some((op, index, part)) => {
                        span_op = op;
                        if win.op.swap(op, Ordering::Relaxed) != op {
                            win.count.store(0, Ordering::Relaxed);
                            win.sum.store(0, Ordering::Relaxed);
                        }
                        let seen = win.count.fetch_add(1, Ordering::Relaxed);
                        let sum = win.sum.load(Ordering::Relaxed).wrapping_add(part);
                        win.sum.store(sum, Ordering::Relaxed);
                        if index != seen {
                            shared.bad.fetch_add(1, Ordering::Relaxed);
                        }
                        if index == last {
                            let mut reply = Buffer::with_capacity(REPLY_LEN);
                            reply.put_u64(op);
                            reply.put_u64(sum);
                            if entered.is_some() {
                                span::with(|r| r.open(Name::ReplySend, CTX_B, op, Instant::now()));
                            }
                            let sent = args.context.rsr(&reply_to, "rep", reply);
                            if entered.is_some() {
                                span::with(|r| r.close(Instant::now()));
                            }
                            if sent.is_err() {
                                shared.bad.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                span::exit(entered, span_op);
            });
        }
        // B: the set-up handshake, one small message whatever the
        // workload's window — the calling thread drives both sides of a
        // set-up cycle, so nothing larger than a socket buffer may be in
        // flight.
        {
            let (shared, reply_to) = (Arc::clone(&shared), Arc::clone(&b_to_a));
            b.register_handler("hello", move |args| {
                let b = args.buffer;
                match (b.len(), b.get_u64(), b.get_u64()) {
                    (REPLY_LEN, Ok(op), Ok(check)) if check == !op => {
                        let mut reply = Buffer::with_capacity(REPLY_LEN);
                        reply.put_u64(op);
                        reply.put_u64(check);
                        if args.context.rsr(&reply_to, "rep", reply).is_err() {
                            shared.bad.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    _ => {
                        shared.bad.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // A: a reply completes the op.
        {
            let shared = Arc::clone(&shared);
            a.register_handler("rep", move |args| {
                let entered = span::enter(Name::Handler, CTX_A);
                let b = args.buffer;
                let (op, sum) = match (b.len(), b.get_u64(), b.get_u64()) {
                    (REPLY_LEN, Ok(op), Ok(sum)) => (op, sum),
                    _ => {
                        shared.bad.fetch_add(1, Ordering::Relaxed);
                        (0, 0)
                    }
                };
                shared.done_sum.store(sum, Ordering::Relaxed);
                shared.done_op.store(op, Ordering::Relaxed);
                span::exit(entered, op);
            });
        }
        // A: background messages are verified and counted; when traced,
        // timed from when each was due.
        if shape.mix {
            let (shared, payload) = (Arc::clone(&shared), Arc::clone(bg));
            a.register_handler("bg", move |args| {
                let entry = span::enter(Name::BgHandler, CTX_A);
                let mut span_op = 0;
                match payload.verify(args.buffer.as_slice(), false) {
                    Some((op, _, _)) if op & BG_FLAG != 0 => {
                        span_op = op;
                        if let (Some(entry), Some(epoch)) = (entry, shared.bg_epoch.get()) {
                            let seq = (op & (BG_FLAG - 1)) as u32;
                            let due = *epoch + BG_PERIOD * seq;
                            let late = entry.saturating_duration_since(due).as_nanos() as u64;
                            span::with(|r| r.bg_delivery.record(late));
                        }
                    }
                    _ => {
                        shared.bad.fetch_add(1, Ordering::Relaxed);
                    }
                }
                shared.bg_delivered.fetch_add(1, Ordering::Relaxed);
                span::exit(entry, span_op);
            });
        }
        Ok(Topo {
            fabrics: vec![f0, f1],
            a,
            b,
            c,
            a_to_b,
            b_to_a,
            c_to_a,
            shared,
            shape,
        })
    }

    /// Sends background message `seq` from C to A.
    pub fn send_bg(&self, bg: &Payload, salt: u64, seq: u64) -> Result<()> {
        let c = self.c.as_ref().expect("mix topology has C");
        let sp = self.c_to_a.as_ref().expect("mix topology has C→A");
        c.rsr(sp, "bg", bg.build(salt | BG_FLAG | seq, 0))
    }

    /// The first RSR each way — selection, connect, accept — up to the
    /// first verified reply, everything driven by the calling thread.
    pub fn first_round_trip(&self, bg: &Payload, op: u64) -> Result<bool> {
        let mut hello = Buffer::with_capacity(REPLY_LEN);
        hello.put_u64(op);
        hello.put_u64(!op);
        self.a.rsr(&self.a_to_b, "hello", hello)?;
        if self.shape.mix {
            self.send_bg(bg, op & !(BG_FLAG | (BG_FLAG - 1)), 0)?;
        }
        let deadline = Instant::now() + OP_TIMEOUT;
        let want_bg = self.shape.mix as u64;
        while self.shared.done_op.load(Ordering::Relaxed) != op
            || self.shared.bg_delivered.load(Ordering::Relaxed) < want_bg
        {
            self.b.progress()?;
            self.a.progress()?;
            if Instant::now() >= deadline {
                return Ok(false);
            }
        }
        Ok(self.shared.done_sum.load(Ordering::Relaxed) == !op
            && self.shared.bad.load(Ordering::Relaxed) == 0)
    }

    /// What automatic selection chose, per link: request, reply, and the
    /// background link if there is one. Call after `first_round_trip`.
    pub fn selected(&self) -> Vec<(&'static str, Option<MethodId>, MethodId)> {
        let fast = if self.shape.mix {
            MethodId::MPL
        } else {
            MethodId::TCP
        };
        let mut links = vec![
            ("A→B", self.a_to_b.current_methods()[0].1, fast),
            ("B→A", self.b_to_a.current_methods()[0].1, fast),
        ];
        if let Some(sp) = &self.c_to_a {
            links.push(("C→A", sp.current_methods()[0].1, MethodId::TCP));
        }
        links
    }

    pub fn shutdown(self) {
        for f in &self.fabrics {
            f.shutdown();
        }
    }
}

/// One cold set-up cycle: build, first verified round trip, shut down.
/// Returns its duration, or `None` if the round trip failed.
pub fn setup_cycle(
    shape: Shape,
    request: &Arc<Payload>,
    bg: &Arc<Payload>,
    op: u64,
) -> Option<Duration> {
    let t0 = Instant::now();
    let topo = Topo::build(shape, request, bg).ok()?;
    let ok = topo.first_round_trip(bg, op).unwrap_or(false);
    let selected_ok = topo
        .selected()
        .iter()
        .all(|(_, got, want)| *got == Some(*want));
    topo.shutdown();
    (ok && selected_ok).then(|| t0.elapsed())
}
