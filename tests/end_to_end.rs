//! Cross-crate integration tests: the full runtime + transports stack
//! exercised the way a metacomputing application would use it.

use nexus::rt::prelude::*;
use nexus::transports::{register_defaults, register_queue_modules};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn drive_until(ctxs: &[&Arc<Context>], pred: impl Fn() -> bool, secs: u64) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    loop {
        if pred() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        for c in ctxs {
            let _ = c.progress();
        }
        std::thread::yield_now();
    }
}

#[test]
fn mixed_methods_one_application() {
    // One app, four contexts, three methods in simultaneous use:
    // same-node (shmem), same-partition/other-node (mpl), other
    // partition (tcp).
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let hub = fabric
        .create_context_with(ContextOpts {
            node: NodeId(0),
            partition: PartitionId(1),
            ..Default::default()
        })
        .unwrap();
    let same_node = fabric
        .create_context_with(ContextOpts {
            node: NodeId(0),
            partition: PartitionId(1),
            ..Default::default()
        })
        .unwrap();
    let same_part = fabric
        .create_context_with(ContextOpts {
            node: NodeId(1),
            partition: PartitionId(1),
            ..Default::default()
        })
        .unwrap();
    let remote = fabric
        .create_context_with(ContextOpts {
            node: NodeId(9),
            partition: PartitionId(2),
            ..Default::default()
        })
        .unwrap();

    let count = Arc::new(AtomicU32::new(0));
    let mut sps = Vec::new();
    for ctx in [&same_node, &same_part, &remote] {
        let c = Arc::clone(&count);
        ctx.register_handler("tick", move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        let ep = ctx.create_endpoint();
        sps.push(ctx.startpoint_to(ep).unwrap());
    }
    for sp in &sps {
        hub.rsr(sp, "tick", Buffer::new()).unwrap();
    }
    assert!(drive_until(
        &[&same_node, &same_part, &remote],
        || count.load(Ordering::Relaxed) == 3,
        10
    ));
    let methods: Vec<_> = sps
        .iter()
        .map(|sp| sp.current_methods()[0].1.unwrap())
        .collect();
    assert_eq!(
        methods,
        vec![MethodId::SHMEM, MethodId::MPL, MethodId::TCP],
        "automatic selection must pick per-destination methods"
    );
    fabric.shutdown();
}

#[test]
fn live_method_switch_mid_stream() {
    // The paper: the method associated with a startpoint can be changed
    // dynamically. Send over the automatic choice, switch to TCP, keep
    // sending; all messages arrive, the stats show both methods were used.
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let got = Arc::new(AtomicU32::new(0));
    {
        let g = Arc::clone(&got);
        b.register_handler("n", move |args| {
            let _ = args.buffer.get_u32().unwrap();
            g.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();
    for i in 0..10u32 {
        if i == 5 {
            sp.set_method(MethodId::TCP);
        }
        let mut buf = Buffer::new();
        buf.put_u32(i);
        a.rsr(&sp, "n", buf).unwrap();
    }
    assert!(drive_until(&[&b], || got.load(Ordering::Relaxed) == 10, 10));
    let shmem = b.trace().snapshot_method(MethodId::SHMEM);
    let tcp = b.trace().snapshot_method(MethodId::TCP);
    assert_eq!(shmem.recvs, 5, "first half over the fast path");
    assert_eq!(tcp.recvs, 5, "second half over TCP after the live switch");
    fabric.shutdown();
}

#[test]
fn skip_poll_still_delivers_and_counts_fewer_polls() {
    // With the readiness tier, the default module set keeps only `mpl` in
    // the polled rotation (its emulated mpc_status probe is the sole
    // arrival signal); manual skip_poll still governs that tier, while an
    // armed method like TCP is probed only when frames actually arrive.
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    b.set_skip_poll(MethodId::MPL, 50);
    let got = Arc::new(AtomicU32::new(0));
    {
        let g = Arc::clone(&got);
        b.register_handler("x", move |_| {
            g.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();
    sp.set_method(MethodId::TCP);
    a.rsr(&sp, "x", Buffer::new()).unwrap();
    assert!(drive_until(&[&b], || got.load(Ordering::Relaxed) == 1, 10));
    // The delivering visit left TCP hot (read in place, fds disarmed);
    // empty visits then rest, re-arm, and the source is idle. How many
    // passes that takes is the transport's business: drive stretches of
    // 500 until one shows no TCP probe.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mpl_before = b.trace().snapshot_method(MethodId::MPL).polls;
        let tcp_before = b.trace().snapshot_method(MethodId::TCP).polls;
        for _ in 0..500 {
            let _ = b.progress();
        }
        let mpl_polls = b.trace().snapshot_method(MethodId::MPL).polls - mpl_before;
        let tcp_polls = b.trace().snapshot_method(MethodId::TCP).polls - tcp_before;
        assert!(
            mpl_polls <= 500 / 50 + 2,
            "skip_poll=50 must throttle the polled tier: {mpl_polls} probes in 500 passes"
        );
        if tcp_polls == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "an idle armed source must not be probed at all: {tcp_polls} probes in 500 passes"
        );
    }
    fabric.shutdown();
}

#[test]
fn multicast_over_heterogeneous_links() {
    // One startpoint bound to endpoints in three differently-placed
    // contexts: a single RSR fans out over three different methods.
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let src = fabric
        .create_context_with(ContextOpts {
            node: NodeId(0),
            partition: PartitionId(1),
            ..Default::default()
        })
        .unwrap();
    let placements = [(0u32, 1u32), (1, 1), (9, 2)];
    let count = Arc::new(AtomicU32::new(0));
    let mut sp = Startpoint::unbound();
    let mut ctxs = Vec::new();
    for (node, part) in placements {
        let ctx = fabric
            .create_context_with(ContextOpts {
                node: NodeId(node),
                partition: PartitionId(part),
                ..Default::default()
            })
            .unwrap();
        let c = Arc::clone(&count);
        ctx.register_handler("fan", move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        let ep = ctx.create_endpoint();
        sp.merge(&ctx.startpoint_to(ep).unwrap());
        ctxs.push(ctx);
    }
    src.rsr(&sp, "fan", Buffer::new()).unwrap();
    let refs: Vec<&Arc<Context>> = ctxs.iter().collect();
    assert!(drive_until(
        &refs,
        || count.load(Ordering::Relaxed) == 3,
        10
    ));
    let used: Vec<_> = sp
        .current_methods()
        .into_iter()
        .map(|(_, m)| m.unwrap())
        .collect();
    assert_eq!(used, vec![MethodId::SHMEM, MethodId::MPL, MethodId::TCP]);
    fabric.shutdown();
}

#[test]
fn dynamic_module_loading_via_registry_hook() {
    // A fabric built without UDP; a loader hook supplies the module the
    // first time something asks for it (the paper's dynamic-load path).
    let fabric = Fabric::new();
    register_queue_modules(&fabric);
    fabric.registry().add_loader(Box::new(|m| {
        (m == MethodId::UDP).then(|| Arc::new(nexus::transports::UdpModule::new()) as _)
    }));
    assert!(fabric.registry().get(MethodId::UDP).is_none());
    let resolved = fabric.registry().resolve(MethodId::UDP);
    assert!(resolved.is_some(), "loader supplies the module on demand");
    assert!(fabric.registry().get(MethodId::UDP).is_some());
}

#[test]
fn reliable_udp_under_loss_end_to_end() {
    // rudp as the only cross-context method, with injected loss: every
    // RSR still arrives, in order.
    let fabric = Fabric::new();
    let rudp = Arc::new(nexus::transports::RudpModule::new());
    rudp.set_param("seed", "11").unwrap();
    rudp.set_param("loss", "0.25").unwrap();
    rudp.set_param("rto_ms", "5").unwrap();
    fabric.registry().register(Arc::clone(&rudp) as _);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let next = Arc::new(AtomicU64::new(0));
    {
        let n = Arc::clone(&next);
        b.register_handler("seq", move |args| {
            let i = args.buffer.get_u64().unwrap();
            assert_eq!(i, n.load(Ordering::Relaxed), "in-order delivery");
            n.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();
    for i in 0..100u64 {
        let mut buf = Buffer::new();
        buf.put_u64(i);
        a.rsr(&sp, "seq", buf).unwrap();
    }
    assert!(drive_until(
        &[&b],
        || next.load(Ordering::Relaxed) == 100,
        30
    ));
    assert!(rudp.injected_drops() > 0, "loss must actually be exercised");
    fabric.shutdown();
}

#[test]
fn resource_database_configures_a_fabric() {
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let cfg = RtConfig::parse(
        "modules mpl tcp\n\
         skip_poll tcp 25\n",
    )
    .unwrap();
    cfg.apply_registry(fabric.registry()).unwrap();
    // mpl is now highest priority; the enabled-method list is restricted.
    assert_eq!(
        fabric.registry().default_order()[..2],
        [MethodId::MPL, MethodId::TCP]
    );
    let methods = cfg.enabled_methods(fabric.registry()).unwrap().unwrap();
    let ctx = fabric
        .create_context_with(ContextOpts {
            methods: Some(methods),
            ..Default::default()
        })
        .unwrap();
    cfg.apply_context(&ctx).unwrap();
    assert_eq!(
        ctx.descriptor_table().methods(),
        vec![MethodId::MPL, MethodId::TCP]
    );
    assert_eq!(ctx.skip_poll(MethodId::TCP), Some(25));
    fabric.shutdown();
}

#[test]
fn qos_policy_diverts_bulk_traffic() {
    // A QoS-aware policy that reports the fast path as saturated sends the
    // next connection over TCP instead — the "available bandwidth, not raw
    // bandwidth" extension sketched in §3.2.
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    b.register_handler("blob", |_| {});
    let est: nexus::rt::selection::BandwidthEstimator = Arc::new(|m| {
        if m == MethodId::TCP {
            1e9
        } else {
            0.0 // everything else "saturated"
        }
    });
    a.set_policy(Arc::new(QosAware::new(1e6, est)));
    assert_eq!(a.policy_name(), "qos-aware");
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();
    a.rsr(&sp, "blob", Buffer::new()).unwrap();
    assert_eq!(sp.current_methods()[0].1, Some(MethodId::TCP));
    fabric.shutdown();
}

#[test]
fn blocking_poller_delivers_without_poll_rotation() {
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    b.start_blocking_poller(MethodId::TCP).unwrap();
    let got = Arc::new(AtomicU32::new(0));
    {
        let g = Arc::clone(&got);
        b.register_handler("x", move |_| {
            g.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();
    sp.set_method(MethodId::TCP);
    a.rsr(&sp, "x", Buffer::new()).unwrap();
    assert!(drive_until(&[&b], || got.load(Ordering::Relaxed) == 1, 10));
    // The poll rotation never touched TCP; the blocking thread did.
    assert_eq!(b.trace().snapshot_method(MethodId::TCP).polls, 0);
    fabric.shutdown();
}
