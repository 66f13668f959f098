//! End-to-end tests of the trace/enquiry layer: measured poll costs must
//! reproduce the paper's §3.3 differential (probing a socket-backed
//! method costs far more than probing an in-process queue), and the
//! per-(link, method) latency histograms must be visible through the
//! enquiry API after real RSR traffic.
//!
//! With the readiness tier, the differential is measured on the fallback
//! (polled) tier via delay-wrapped transports; doorbell-driven methods
//! are instead asserted to show *wakeup* counters and near-zero probes.

use nexus::rt::buffer::Buffer;
use nexus::rt::context::{Context, Fabric};
use nexus::rt::descriptor::MethodId;
use nexus::rt::rsr::Rsr;
use nexus::rt::selection::ReselectConfig;
use nexus::rt::startpoint::Startpoint;
use nexus::rt::trace::{TraceEventKind, SAMPLE_EVERY};
use nexus::transports::{register_defaults, DelayModule, MplModule, ShmemModule, TcpModule};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Drives `msgs` RSRs over each of shmem and TCP between two contexts,
/// then `quiet` empty progress passes, and returns the two contexts.
fn drive(
    msgs: u32,
    quiet: u32,
) -> (
    std::sync::Arc<nexus::rt::context::Context>,
    std::sync::Arc<nexus::rt::context::Context>,
    Fabric,
) {
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let got = Arc::new(AtomicU64::new(0));
    {
        let g = Arc::clone(&got);
        b.register_handler("m", move |_| {
            g.fetch_add(1, Ordering::Relaxed);
        });
    }
    for method in [MethodId::SHMEM, MethodId::TCP] {
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        sp.set_method(method);
        for _ in 0..msgs {
            let mut buf = Buffer::new();
            buf.put_u32(7);
            a.rsr(&sp, "m", buf).unwrap();
            let _ = b.progress();
        }
    }
    // Both methods are reliable: drain everything that is still in flight.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while got.load(Ordering::Relaxed) < 2 * msgs as u64 {
        b.progress().unwrap();
        assert!(std::time::Instant::now() < deadline, "messages must drain");
    }
    for _ in 0..quiet {
        let _ = b.progress();
    }
    (a, b, fabric)
}

#[test]
fn ready_tier_traffic_is_counted_as_wakeups_not_probes() {
    let (_a, b, fabric) = drive(50, 2_000);

    // shmem and tcp ride the readiness tier: arrivals surface as doorbell
    // wakeups, doorbell visits are untimed (no poll-cost samples), and
    // 2 000 idle passes cost at most a handful of visits — not one probe
    // per pass per source.
    for method in [MethodId::SHMEM, MethodId::TCP] {
        let snap = b.trace().snapshot_method(method);
        assert!(snap.ready_wakeups > 0, "{method}: no doorbell wakeups");
        assert_eq!(snap.recvs, 50, "{method}: all messages delivered");
        assert!(
            snap.polls < 500,
            "{method}: armed source was probed {} times across 2 050 \
             passes — visits must scale with traffic, not passes",
            snap.polls
        );
        let est = b.method_cost_estimate(method);
        assert_eq!(
            est.poll_samples, 0,
            "{method}: doorbell visits must not feed the poll-cost EWMA"
        );
    }
    fabric.shutdown();
}

#[test]
fn tcp_measured_poll_cost_exceeds_shmem_poll_cost_on_the_polled_tier() {
    // The §3.3 differential is observable where probing still happens: the
    // fallback (polled) tier. A zero-latency DelayModule opts out of
    // readiness (time-release semantics need polling), so wrapping each
    // transport in one keeps it in the rotation and its probe cost — queue
    // pop vs. nonblocking socket scan — feeds the measured EWMA.
    const POLLED_SHMEM: MethodId = MethodId(0x120);
    const POLLED_TCP: MethodId = MethodId(0x121);
    let fabric = Fabric::new();
    fabric.registry().register(Arc::new(DelayModule::new(
        POLLED_SHMEM,
        "polled-shmem",
        20,
        Arc::new(ShmemModule::new()),
        Duration::ZERO,
    )));
    fabric.registry().register(Arc::new(DelayModule::new(
        POLLED_TCP,
        "polled-tcp",
        40,
        Arc::new(TcpModule::new()),
        Duration::ZERO,
    )));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let got = Arc::new(AtomicU64::new(0));
    {
        let g = Arc::clone(&got);
        b.register_handler("m", move |_| {
            g.fetch_add(1, Ordering::Relaxed);
        });
    }
    for method in [POLLED_SHMEM, POLLED_TCP] {
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        sp.set_method(method);
        for _ in 0..50 {
            let mut buf = Buffer::new();
            buf.put_u32(7);
            a.rsr(&sp, "m", buf).unwrap();
            let _ = b.progress();
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while got.load(Ordering::Relaxed) < 100 {
        b.progress().unwrap();
        assert!(std::time::Instant::now() < deadline, "messages must drain");
    }
    for _ in 0..2_000 {
        let _ = b.progress();
    }

    let shmem = b.method_cost_estimate(POLLED_SHMEM);
    let tcp = b.method_cost_estimate(POLLED_TCP);
    assert!(
        shmem.poll_samples > 0,
        "shmem-backed source was never probed"
    );
    assert!(tcp.poll_samples > 0, "tcp-backed source was never probed");
    let shmem_ns = shmem.poll_cost_ns.unwrap();
    let tcp_ns = tcp.poll_cost_ns.unwrap();
    assert!(
        tcp_ns > shmem_ns,
        "the §3.3 differential must be visible in measured EWMAs: \
         tcp {tcp_ns:.0} ns vs shmem {shmem_ns:.0} ns"
    );
    fabric.shutdown();
}

#[test]
fn enquiry_exposes_per_link_latency_and_events_after_traffic() {
    let (a, b, fabric) = drive(30, 100);

    // Sender-side: per-(link, method) send latency histograms. Every send
    // is counted; each link times sends 1 and 17 of the 30.
    for (method, timed) in [(MethodId::SHMEM, 2), (MethodId::TCP, 2)] {
        assert_eq!(a.trace().snapshot_method(method).sends, 30, "{method}");
        let lat = a
            .link_latency(b.id(), method)
            .unwrap_or_else(|| panic!("no latency summary for {method}"));
        assert_eq!(lat.count, timed, "{method}");
        assert!(lat.p50 >= 1 && lat.p50 <= lat.p99, "{method}: {lat:?}");
        let est = a.method_cost_estimate(method);
        assert_eq!(est.send_samples, timed, "{method}");
        assert!(est.send_cost_ns.unwrap() > 0.0);
    }

    // Receiver-side: the per-method counters saw every delivery, and the
    // renderer mentions both traffic-bearing methods.
    for method in [MethodId::SHMEM, MethodId::TCP] {
        assert_eq!(b.trace().snapshot_method(method).recvs, 30, "{method}");
    }
    let sender_report = a.trace().render();
    for needle in ["send path", "shmem", "tcp"] {
        assert!(
            sender_report.contains(needle),
            "render missing {needle:?}:\n{sender_report}"
        );
    }
    fabric.shutdown();
}

/// Two contexts with MPL and TCP registered, and a startpoint from the
/// first to an endpoint of the second pinned to each method.
fn mpl_and_tcp_links() -> (Fabric, Arc<Context>, Arc<Context>, Startpoint, Startpoint) {
    let fabric = Fabric::new();
    fabric.registry().register(Arc::new(MplModule::new()));
    fabric.registry().register(Arc::new(TcpModule::new()));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    b.register_handler("m", |_| {});
    let pinned = |method| {
        let sp = b.startpoint_to(b.create_endpoint()).unwrap();
        sp.set_method(method);
        sp
    };
    let (mpl, tcp) = (pinned(MethodId::MPL), pinned(MethodId::TCP));
    (fabric, a, b, mpl, tcp)
}

/// A send is timed only where a reading has a consumer. With re-selection
/// off, the `(link, method)` record times its first send and every
/// `SAMPLE_EVERY`-th one, on every method: tcp's stage rule times the
/// connection's writes itself. A context with re-selection configured
/// times every send. Every send is counted either way.
#[test]
fn send_timing_is_sampled_unless_a_reader_needs_every_send() {
    const N: u64 = 37;
    let (fabric, a, b, mpl, tcp) = mpl_and_tcp_links();
    let timed = |m| a.link_latency(b.id(), m).map_or(0, |l| l.count);
    let sends = |m| a.trace().snapshot_method(m).sends;

    a.rsr(&mpl, "m", Buffer::new()).unwrap();
    assert_eq!(timed(MethodId::MPL), 1, "the first send is timed");
    assert!(a.method_cost_estimate(MethodId::MPL).send_cost_ns.is_some());
    for _ in 1..N {
        a.rsr(&mpl, "m", Buffer::new()).unwrap();
        let _ = b.progress();
    }
    assert_eq!(sends(MethodId::MPL), N);
    assert_eq!(timed(MethodId::MPL), N.div_ceil(SAMPLE_EVERY));

    for _ in 0..N {
        a.rsr(&tcp, "m", Buffer::new()).unwrap();
        let _ = b.progress();
    }
    assert_eq!(sends(MethodId::TCP), N);
    assert_eq!(
        timed(MethodId::TCP),
        N.div_ceil(SAMPLE_EVERY),
        "a method that stages times its own writes, not the sampled sends"
    );

    // Re-selection counts timed sends, so from here on every send is timed
    // (the pin keeps the link on MPL).
    let before = timed(MethodId::MPL);
    a.set_reselection(Some(ReselectConfig::default()));
    for _ in 0..N {
        a.rsr(&mpl, "m", Buffer::new()).unwrap();
        let _ = b.progress();
    }
    assert_eq!(sends(MethodId::MPL), 2 * N);
    assert_eq!(timed(MethodId::MPL), before + N);
    fabric.shutdown();
}

/// `render` reports every send under `sends` and the sampled ones under
/// `timed`: 30 MPL sends time the first and the 17th.
#[test]
fn render_separates_sends_from_timed_sends() {
    let (fabric, a, b, mpl, _tcp) = mpl_and_tcp_links();
    for _ in 0..30 {
        a.rsr(&mpl, "m", Buffer::new()).unwrap();
        let _ = b.progress();
    }
    let report = a.trace().render();
    let lines: Vec<Vec<&str>> = report
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let header = lines.iter().find(|l| l.first() == Some(&"link")).unwrap();
    let row = lines
        .iter()
        .find(|l| l.get(2) == Some(&"mpl") && l[0] == "ctx")
        .unwrap_or_else(|| panic!("no mpl send row:\n{report}"));
    // The link column, `ctx N`, is two words in a row and one in the header.
    let column = |name| row[header.iter().position(|h| *h == name).unwrap() + 1];
    assert_eq!((column("sends"), column("timed")), ("30", "2"), "{report}");
    fabric.shutdown();
}

/// Traffic is counted, not logged: however many messages two contexts
/// exchange, the event ring keeps each one's initial method selection, and
/// no event is recorded after the first round trip.
#[test]
fn control_events_survive_traffic() {
    const ROUND_TRIPS: u64 = 2_000;
    let fabric = Fabric::new();
    fabric.registry().register(Arc::new(MplModule::new()));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let to_a = Arc::new(a.startpoint_to(a.create_endpoint()).unwrap());
    let to_b = b.startpoint_to(b.create_endpoint()).unwrap();
    b.register_handler("ping", move |args| {
        args.context.rsr(&to_a, "pong", Buffer::new()).unwrap();
    });
    let pongs = Arc::new(AtomicU64::new(0));
    {
        let p = Arc::clone(&pongs);
        a.register_handler("pong", move |_| {
            p.fetch_add(1, Ordering::Relaxed);
        });
    }
    let recorded = || a.trace().events_recorded() + b.trace().events_recorded();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut after_first = 0;
    for i in 1..=ROUND_TRIPS {
        a.rsr(&to_b, "ping", Buffer::new()).unwrap();
        while pongs.load(Ordering::Relaxed) < i {
            b.progress().unwrap();
            a.progress().unwrap();
            assert!(std::time::Instant::now() < deadline, "ping-pong stalled");
        }
        if i == 1 {
            after_first = recorded();
        }
    }
    assert_eq!(recorded(), after_first, "traffic recorded events");
    for (ctx, peer) in [(&a, &b), (&b, &a)] {
        assert!(
            ctx.trace().events().iter().any(|e| matches!(
                e.kind,
                TraceEventKind::MethodSwitch { target, from: None, to: MethodId::MPL }
                    if target == peer.id()
            )),
            "initial selection evicted:\n{}",
            ctx.trace().render()
        );
        assert_eq!(
            ctx.trace().snapshot_method(MethodId::MPL).sends,
            ROUND_TRIPS
        );
    }
    fabric.shutdown();
}

/// The enquiry answers "how many frames per write" for each method: a
/// request/reply exchange combines nothing (every send follows a dispatch
/// round of its context, so it writes through), and a burst from a sender
/// that does not run in between leaves in a few combined writes, counted
/// once per write — not per message.
#[test]
fn combined_writes_are_counted_per_write_not_per_message() {
    const ROUND_TRIPS: u64 = 200;
    const BURST: u64 = 256;
    let fabric = Fabric::new();
    fabric.registry().register(Arc::new(TcpModule::new()));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let to_a = Arc::new(a.startpoint_to(a.create_endpoint()).unwrap());
    let to_b = b.startpoint_to(b.create_endpoint()).unwrap();
    b.register_handler("ping", move |args| {
        args.context.rsr(&to_a, "pong", Buffer::new()).unwrap();
    });
    let pongs = Arc::new(AtomicU64::new(0));
    let bursts = Arc::new(AtomicU64::new(0));
    {
        let p = Arc::clone(&pongs);
        a.register_handler("pong", move |_| {
            p.fetch_add(1, Ordering::Relaxed);
        });
        let m = Arc::clone(&bursts);
        b.register_handler("m", move |_| {
            m.fetch_add(1, Ordering::Relaxed);
        });
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    for i in 1..=ROUND_TRIPS {
        a.rsr(&to_b, "ping", Buffer::new()).unwrap();
        while pongs.load(Ordering::Relaxed) < i {
            b.progress().unwrap();
            a.progress().unwrap();
            assert!(std::time::Instant::now() < deadline, "ping-pong stalled");
        }
    }
    for ctx in [&a, &b] {
        let snap = ctx.trace().snapshot_method(MethodId::TCP);
        assert_eq!((snap.flushes, snap.flushed_frames), (0, 0), "{snap:?}");
    }

    // Back to back, each send begins long before the last write took:
    // everything after the burst's first send stages until the buffer is
    // full or the pass flushes it.
    for _ in 0..BURST {
        let mut buf = Buffer::new();
        buf.put_raw(&[7u8; 64]);
        a.rsr(&to_b, "m", buf).unwrap();
    }
    a.progress().unwrap();
    while bursts.load(Ordering::Relaxed) < BURST {
        b.progress().unwrap();
        assert!(std::time::Instant::now() < deadline, "burst not delivered");
    }
    let snap = a.trace().snapshot_method(MethodId::TCP);
    assert!(snap.flushes >= 1, "no combined write: {snap:?}");
    assert!(
        snap.flushed_frames > snap.flushes && snap.flushed_frames < BURST,
        "frames per combined write: {snap:?}"
    );
    let report = a.trace().render();
    assert!(report.contains("flushes") && report.contains("frames/flush"));
    fabric.shutdown();
}

/// The four ways a message can reach a context's handlers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    /// Skip_poll rotation (a zero-latency `DelayModule` opts out of
    /// readiness).
    Polled,
    /// Doorbell visit from the context's own progress pass.
    Ready,
    /// Doorbell visit from a shard worker thread.
    Worker,
    /// Dedicated blocking receive thread.
    Blocking,
}

#[test]
fn every_receive_route_accounts_a_message_identically() {
    const POLLED_SHMEM: MethodId = MethodId(0x122);
    // More than one ready batch (32), so the doorbell routes also cross
    // the batch-limit re-ring.
    const N: u64 = 40;
    for route in [Route::Polled, Route::Ready, Route::Worker, Route::Blocking] {
        let fabric = Fabric::new();
        let method = if route == Route::Polled {
            fabric.registry().register(Arc::new(DelayModule::new(
                POLLED_SHMEM,
                "polled-shmem",
                20,
                Arc::new(ShmemModule::new()),
                Duration::ZERO,
            )));
            POLLED_SHMEM
        } else {
            fabric.registry().register(Arc::new(ShmemModule::new()));
            MethodId::SHMEM
        };
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();
        match route {
            Route::Worker => assert_eq!(b.start_workers(1), 1, "{route:?}"),
            Route::Blocking => b.start_blocking_poller(method).unwrap(),
            Route::Polled | Route::Ready => {}
        }
        let got = Arc::new(AtomicU64::new(0));
        {
            let g = Arc::clone(&got);
            b.register_handler("m", move |_| {
                g.fetch_add(1, Ordering::Relaxed);
            });
        }
        let ep = b.create_endpoint();
        let sp = b.startpoint_to(ep).unwrap();
        let mut payload = Buffer::new();
        payload.put_raw(&[7u8; 24]);
        let wire = Rsr::new(b.id(), ep, "m", payload.clone().into_bytes()).wire_len() as u64;
        for _ in 0..N {
            a.rsr(&sp, "m", payload.clone()).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while got.load(Ordering::Relaxed) < N {
            b.progress().unwrap();
            std::thread::yield_now();
            assert!(std::time::Instant::now() < deadline, "{route:?}: drain");
        }

        let sent = a.trace().snapshot_method(method);
        assert_eq!((sent.sends, sent.send_bytes), (N, N * wire), "{route:?}");
        let snap = b.trace().snapshot_method(method);
        assert_eq!((snap.recvs, snap.recv_bytes), (N, N * wire), "{route:?}");
        assert_eq!(snap.poll_errors, 0, "{route:?}");
        if route == Route::Blocking {
            // A blocking wait is not a probe of the rotation.
            assert_eq!(snap.polls, 0, "{route:?}");
        } else {
            assert!(snap.polls >= N, "{route:?}: {} polls", snap.polls);
            assert_eq!(snap.polls - snap.empty_polls, N, "{route:?}: hits");
        }
        if matches!(route, Route::Ready | Route::Worker) {
            assert!(snap.ready_wakeups >= 2, "{route:?}: batch limit re-rings");
        } else {
            assert_eq!(snap.ready_wakeups, 0, "{route:?}");
        }
        fabric.shutdown();
    }
}
