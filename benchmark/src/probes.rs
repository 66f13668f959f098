//! Layer probes: timed calls into each module's public functions, at the
//! workload's payload size, on fabrics of their own after the workload
//! has shut down. They put a number on single layers that the spans see
//! only in sum; none of them is an end-to-end metric.
//!
//! Socket probes cap the payload at [`SOCKET_PROBE_MAX`]: a blocking TCP
//! send of more than the socket buffers hold needs a concurrent receiver,
//! and a probe is one thread calling one function. The per-byte cost of a
//! 1 MiB send is what `ctx.send.self_us` on `wire_stream_large` measures.

use crate::payload::Payload;
use crate::topo::fabric;
use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{Context, ContextId, ContextInfo, Fabric, NodeId, PartitionId};
use nexus_rt::descriptor::MethodId;
use nexus_rt::endpoint::EndpointId;
use nexus_rt::error::{NexusError, Result};
use nexus_rt::module::{CommModule, CommReceiver};
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::startpoint::Startpoint;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const SOCKET_PROBE_MAX: usize = 16 * 1024;
const ROUNDS: usize = 65;

pub type Metric = (&'static str, f64, &'static str);

/// Mean of the middle half of [`ROUNDS`] rounds, each the mean time of
/// `batch` calls, in ns: as robust as their median, without its habit of
/// landing on the same whole nanosecond run after run. `before` runs
/// untimed ahead of each round.
fn time_ns(batch: usize, mut before: impl FnMut(), mut call: impl FnMut()) -> f64 {
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        before();
        let t = Instant::now();
        for _ in 0..batch {
            call();
        }
        rounds.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    middle_mean(&mut rounds)
}

fn middle_mean(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    let middle = &values[values.len() / 4..values.len() - values.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn info(id: u32, node: u32, partition: u32) -> ContextInfo {
    ContextInfo {
        id: ContextId(id),
        node: NodeId(node),
        partition: PartitionId(partition),
    }
}

fn module(f: &Fabric, method: MethodId) -> Result<Arc<dyn CommModule>> {
    f.registry()
        .get(method)
        .ok_or(NexusError::UnknownMethod(method))
}

/// Polls until a message arrives; the probes only call this when one is
/// on its way.
fn poll_one(rx: &mut dyn CommReceiver) -> Result<Rsr> {
    let deadline = Instant::now() + crate::topo::OP_TIMEOUT;
    loop {
        if let Some(m) = rx.poll()? {
            return Ok(m);
        }
        if Instant::now() >= deadline {
            return Err(NexusError::Timeout {
                what: "probe message".to_owned(),
            });
        }
    }
}

/// `send`, `poll` (hit) and `poll` (miss) through one module's function
/// table. `hit_batch` is how many messages are queued before the timed
/// polls: 1 for a socket, where only the first poll after a send reads
/// the kernel buffer.
fn function_table(
    m: &dyn CommModule,
    rx_info: ContextInfo,
    tx_info: ContextInfo,
    msg: &Rsr,
    hit_batch: usize,
    names: [&'static str; 3],
    out: &mut Vec<Metric>,
) -> Result<()> {
    let (desc, rx) = m.open(&rx_info)?;
    let rx = RefCell::new(rx);
    let obj = m.connect(&tx_info, &desc)?;
    // Encode once, as `Context::rsr` does for all links of a message: the
    // probe then times the method's own send and nothing before it.
    let frame = WireFrame::new();
    frame.body(msg);
    let failed = RefCell::new(None);
    let note = |r: Result<()>| {
        if let Err(e) = r {
            failed.borrow_mut().get_or_insert(e);
        }
    };
    let send = || note(obj.send(msg, &frame));
    let receive = || note(poll_one(rx.borrow_mut().as_mut()).map(drop));
    // First message: accept, first read, first growth of the buffers.
    send();
    receive();

    // Never more than 16 KiB in flight: nobody reads while sends are timed.
    let send_batch = (SOCKET_PROBE_MAX / msg.wire_len()).clamp(1, 8);
    let in_flight = Cell::new(0);
    let drain = || (0..in_flight.replace(0)).for_each(|_| receive());
    let send_ns = time_ns(send_batch, drain, || {
        send();
        in_flight.set(in_flight.get() + 1);
    });
    drain();
    let hit_ns = time_ns(
        hit_batch,
        || (0..hit_batch).for_each(|_| send()),
        || {
            // Bound first: the arms below borrow `rx` again.
            let polled = rx.borrow_mut().poll();
            match polled {
                Ok(Some(m)) => drop(black_box(m)),
                // Loopback delivers inside the send syscall almost always;
                // when it has not yet, wait rather than fail the probe.
                Ok(None) => receive(),
                Err(e) => note(Err(e)),
            }
        },
    );
    let miss_ns = time_ns(
        64,
        || {},
        || match rx.borrow_mut().poll() {
            Ok(None) => {}
            Ok(Some(_)) => note(Err(NexusError::Decode("poll miss found a message"))),
            Err(e) => note(Err(e)),
        },
    );
    obj.close();
    rx.borrow_mut().close();
    out.push((names[0], send_ns, "ns"));
    out.push((names[1], hit_ns, "ns"));
    out.push((names[2], miss_ns, "ns"));
    failed.into_inner().map_or(Ok(()), Err)
}

pub fn run(request: &Payload) -> Result<Vec<Metric>> {
    let mut out: Vec<Metric> = Vec::new();
    let payload: Bytes = request.build(1, 0).into_bytes();
    let msg = Rsr::new(ContextId(2001), EndpointId(1), "req", payload.clone());

    // -- core::rsr ---------------------------------------------------------
    out.push((
        "rsr.encode_ns",
        time_ns(
            16,
            || {},
            || {
                let frame = WireFrame::new();
                black_box(frame.body(black_box(&msg)));
                frame.reclaim();
            },
        ),
        "ns",
    ));
    let wire = msg.encode();
    out.push((
        "rsr.decode_ns",
        time_ns(
            16,
            || {},
            || {
                black_box(Rsr::decode_shared(black_box(wire.clone())).map(drop).ok());
            },
        ),
        "ns",
    ));

    // -- core::startpoint, core::selection -----------------------------------
    let f0 = fabric(2000);
    let f1 = fabric(3000);
    let target = f0.create_context_at(NodeId(2000), PartitionId(3))?;
    target.register_handler("sink", |_| {});
    let sp = target.startpoint_to(target.create_endpoint())?;
    let mut packed = Buffer::new();
    sp.pack(&mut packed);
    let packed: Bytes = packed.into_bytes();
    out.push(("startpoint.packed_bytes", packed.len() as f64, "B"));
    out.push((
        "startpoint.pack_ns",
        time_ns(
            16,
            || {},
            || {
                let mut b = Buffer::new();
                sp.pack(&mut b);
                black_box(b);
            },
        ),
        "ns",
    ));
    let unpack = || Startpoint::unpack_standalone(&mut Buffer::from_bytes(packed.clone()));
    out.push((
        "startpoint.unpack_ns",
        time_ns(16, || {}, || drop(black_box(unpack()))),
        "ns",
    ));
    let remote = f1.create_context_at(NodeId(3000), PartitionId(4))?;
    let imported = unpack()?;
    out.push((
        "selection.applicable_ns",
        time_ns(
            16,
            || {},
            || drop(black_box(remote.applicable_methods(&imported))),
        ),
        "ns",
    ));
    // First `rsr` on a freshly unpacked startpoint from a context that has
    // no connection yet: selection + connect. One context per sample.
    let small = Payload::new(0, crate::payload::HEADER);
    let mut first = Vec::new();
    for i in 0..32u32 {
        let fresh = f1.create_context_at(NodeId(3001 + i), PartitionId(4))?;
        let sp = unpack()?;
        let buf = small.build(1, 0);
        let t = Instant::now();
        fresh.rsr(&sp, "sink", buf)?;
        first.push(t.elapsed().as_nanos() as f64 / 1e3);
        if sp.current_methods()[0].1 != Some(MethodId::TCP) {
            return Err(NexusError::Decode("probe link did not select tcp"));
        }
    }
    out.push(("selection.first_rsr_us", middle_mean(&mut first), "us"));
    while target.progress()? > 0 {}

    // -- transports::tcp, transports::mpl through the function table ---------
    let tcp = module(&f0, MethodId::TCP)?;
    let mut opens = Vec::new();
    let mut connects = Vec::new();
    for i in 0..32u32 {
        let t = Instant::now();
        let (desc, mut rx) = tcp.open(&info(2900 + i, 2900, 9))?;
        opens.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        let obj = tcp.connect(&info(3900, 3900, 10), &desc)?;
        connects.push(t.elapsed().as_nanos() as f64 / 1e3);
        obj.close();
        rx.close();
    }
    out.push(("tcp.open_us", middle_mean(&mut opens), "us"));
    out.push(("tcp.connect_us", middle_mean(&mut connects), "us"));

    let capped = Payload::new(1, request.len().min(SOCKET_PROBE_MAX));
    let socket_msg = Rsr::new(
        ContextId(2950),
        EndpointId(1),
        "req",
        capped.build(1, 0).into_bytes(),
    );
    function_table(
        tcp.as_ref(),
        info(2950, 2950, 9),
        info(3950, 3950, 10),
        &socket_msg,
        1,
        ["tcp.send_ns", "tcp.poll_hit_ns", "tcp.poll_miss_ns"],
        &mut out,
    )?;
    let mpl = module(&f0, MethodId::MPL)?;
    function_table(
        mpl.as_ref(),
        info(2960, 2960, 9),
        info(2961, 2961, 9),
        &Rsr::new(ContextId(2960), EndpointId(1), "req", payload),
        64,
        ["mpl.send_ns", "mpl.poll_hit_ns", "mpl.poll_miss_ns"],
        &mut out,
    )?;

    // -- the floor: a self round trip over `local` ---------------------------
    out.push(("context.local_rtt_ns", local_rtt(&target, request)?, "ns"));
    f0.shutdown();
    f1.shutdown();
    Ok(out)
}

/// `ctx` sends itself a request whose handler sends a reply back to
/// `ctx`: two RSRs over the `local` method, one thread.
fn local_rtt(ctx: &Arc<Context>, request: &Payload) -> Result<f64> {
    let me = Arc::new(ctx.startpoint_to(ctx.create_endpoint())?);
    let done = Arc::new(AtomicU64::new(0));
    {
        let me = Arc::clone(&me);
        ctx.register_handler("probe.req", move |args| {
            let mut reply = Buffer::new();
            reply.put_u64(args.buffer.get_u64().unwrap_or(0));
            let _ = args.context.rsr(&me, "probe.rep", reply);
        });
        let done = Arc::clone(&done);
        ctx.register_handler("probe.rep", move |args| {
            done.store(args.buffer.get_u64().unwrap_or(0), Ordering::Relaxed);
        });
    }
    let mut op = 0u64;
    let mut failed = None;
    let rtt = time_ns(
        64,
        || {},
        || {
            op += 1;
            if let Err(e) = ctx.rsr(&me, "probe.req", request.build(op, 0)) {
                failed.get_or_insert(e);
            }
            let mut passes = 0;
            while done.load(Ordering::Relaxed) != op && passes < 1_000_000 {
                let _ = ctx.progress();
                passes += 1;
            }
        },
    );
    if me.current_methods()[0].1 != Some(MethodId::LOCAL) {
        return Err(NexusError::Decode("self link did not select local"));
    }
    if done.load(Ordering::Relaxed) != op {
        return Err(NexusError::Timeout {
            what: "local round trip".to_owned(),
        });
    }
    failed.map_or(Ok(rtt), Err)
}
