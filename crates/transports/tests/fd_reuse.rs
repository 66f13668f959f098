//! Regression test: a receiver opened on recycled fd numbers is watched.
//!
//! The reactor used to mirror the kernel's interest set in userspace,
//! keyed by fd number. A whole open → connect → first message → close
//! cycle can complete between two rounds of the reactor thread, so a new
//! socket could inherit a closed socket's fd number while the mirror
//! still said "registered" — and was then never watched: its first
//! message sat in the socket for good. Registrations now live in the
//! kernel only, which drops a closed fd's entry itself.
//!
//! Every receiver here is armed and nothing else polls it, so a message
//! arrives through the doorbell or not at all.
//!
//! The tests count this process's fds, so they take turns.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{ContextId, ContextInfo, Fabric, NodeId, PartitionId};
use nexus_rt::descriptor::MethodId;
use nexus_rt::endpoint::EndpointId;
use nexus_rt::module::CommModule;
use nexus_rt::poll::PollEngine;
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_transports::TcpModule;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static TURNS: Mutex<()> = Mutex::new(());

fn info(id: u32) -> ContextInfo {
    ContextInfo {
        id: ContextId(id),
        node: NodeId(id),
        partition: PartitionId(id),
    }
}

/// Open, arm, connect, deliver one message within `patience`, close.
/// Every socket the cycle opened is closed on return. With `cold`, the
/// visit the engine primes a fresh doorbell with is spent before the
/// sender connects, so only the reactor can announce the message.
fn cycle(module: &TcpModule, cold: bool, patience: Duration) -> bool {
    let (desc, rx) = module.open(&info(1)).unwrap();
    let mut eng = PollEngine::new();
    eng.add_source(MethodId::TCP, rx);
    assert!(eng.arm_ready(MethodId::TCP), "tcp arms into the ready tier");
    if cold {
        assert!(eng.poll_once().messages.is_empty());
    }
    let obj = module.connect(&info(2), &desc).unwrap();
    let first = Rsr::new(ContextId(1), EndpointId(1), "first", Bytes::new());
    obj.send(&first, &WireFrame::new()).unwrap();
    let deadline = Instant::now() + patience;
    let mut delivered = false;
    while !delivered && Instant::now() < deadline {
        delivered = !eng.poll_once().messages.is_empty();
    }
    obj.close();
    eng.close_all();
    delivered
}

#[test]
fn a_receiver_on_recycled_fd_numbers_is_woken_by_its_first_message() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    let module = TcpModule::new();
    for i in 0..300 {
        assert!(
            cycle(&module, false, Duration::from_secs(10)),
            "cycle {i}: first message never arrived"
        );
    }
    assert!(
        cycle(&module, true, Duration::from_secs(1)),
        "a fresh receiver on recycled fds was not woken within 1 s"
    );
}

/// Open fds of this process, and its threads named `nexus-…`.
fn census() -> (usize, usize) {
    let fds = std::fs::read_dir("/proc/self/fd").unwrap().count();
    let threads = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with("nexus-"))
        })
        .count();
    (fds, threads)
}

/// The peer context shuts down while this side holds its writer on their
/// one two-way connection: the next send fails or fails over within a
/// deadline, and once both are gone every fd and thread they used is.
#[test]
fn a_peer_shutting_down_fails_the_held_writer_and_leaks_nothing() {
    let _turn = TURNS.lock().unwrap_or_else(|e| e.into_inner());
    // The process-wide reactor (an epoll fd, a wake socket, one thread)
    // outlives every context; start it before the baseline.
    // A fresh thread carries its parent's name until it renames itself.
    assert!(nexus_transports::reactor::Reactor::global().is_some());
    let deadline = Instant::now() + Duration::from_secs(5);
    while census().1 == 0 {
        assert!(Instant::now() < deadline, "no reactor thread");
        std::thread::yield_now();
    }
    let baseline = census();
    {
        let fabric = Fabric::new();
        fabric.registry().register(Arc::new(TcpModule::new()));
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();
        let to_a = Arc::new(a.startpoint_to(a.create_endpoint()).unwrap());
        let to_b = b.startpoint_to(b.create_endpoint()).unwrap();
        b.register_handler("ping", move |args| {
            args.context.rsr(&to_a, "pong", Buffer::new()).unwrap();
        });
        let pongs = Arc::new(AtomicU32::new(0));
        let p = Arc::clone(&pongs);
        a.register_handler("pong", move |_| {
            p.fetch_add(1, Ordering::Relaxed);
        });
        a.rsr(&to_b, "ping", Buffer::new()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pongs.load(Ordering::Relaxed) == 0 {
            b.progress().unwrap();
            a.progress().unwrap();
            assert!(Instant::now() < deadline, "no reply");
        }
        b.shutdown();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(
                Instant::now() < deadline,
                "sends to a dead peer kept succeeding"
            );
            let _ = a.progress();
            let failovers = a.trace().snapshot_method(MethodId::TCP).failovers;
            if a.rsr(&to_b, "ping", Buffer::new()).is_err() || failovers > 0 {
                break;
            }
        }
        fabric.shutdown();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while census() != baseline {
        assert!(
            Instant::now() < deadline,
            "(fds, threads) {:?}, baseline {baseline:?}",
            census()
        );
        std::thread::yield_now();
    }
}
