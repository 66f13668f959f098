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
#![cfg(target_os = "linux")]

use bytes::Bytes;
use nexus_rt::context::{ContextId, ContextInfo, NodeId, PartitionId};
use nexus_rt::descriptor::MethodId;
use nexus_rt::endpoint::EndpointId;
use nexus_rt::module::CommModule;
use nexus_rt::poll::PollEngine;
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_transports::TcpModule;
use std::time::{Duration, Instant};

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
