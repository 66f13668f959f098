//! Two-way TCP connections between contexts, counted from outside: the
//! kernel's socket table (`/proc/net/tcp`) says how many connections
//! exist, the contexts' handlers say what was delivered.
//!
//! A connection accepted by a context's listener has that listener's port
//! as its local port, so counting established sockets by local port
//! counts connections, one per pair of ends.
#![cfg(target_os = "linux")]

use nexus_rt::buffer::Buffer;
use nexus_rt::context::{Context, Fabric};
use nexus_rt::descriptor::MethodId;
use nexus_transports::TcpModule;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PATIENCE: Duration = Duration::from_secs(10);

fn tcp_fabric() -> Fabric {
    let fabric = Fabric::new();
    fabric.registry().register(Arc::new(TcpModule::new()));
    fabric
}

/// The port of `ctx`'s TCP listener.
fn listen_port(ctx: &Context) -> u16 {
    let desc = ctx.descriptor_table().get(MethodId::TCP).expect("tcp open");
    let addr: std::net::SocketAddr = std::str::from_utf8(&desc.data).unwrap().parse().unwrap();
    addr.port()
}

/// Established IPv4 connections whose accepted end is at one of `ports`.
fn connections_accepted_at(ports: &[u16]) -> usize {
    let table = std::fs::read_to_string("/proc/net/tcp").expect("/proc/net/tcp");
    table
        .lines()
        .skip(1)
        .filter(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let local_port = fields[1].rsplit(':').next().unwrap();
            let port = u16::from_str_radix(local_port, 16).unwrap();
            fields[3] == "01" && ports.contains(&port)
        })
        .count()
}

/// Registers `seq` on `ctx`, recording each message's number.
fn recorder(ctx: &Context) -> Arc<Mutex<Vec<u32>>> {
    let got = Arc::new(Mutex::new(Vec::new()));
    let g = Arc::clone(&got);
    ctx.register_handler("seq", move |args| {
        g.lock().push(args.buffer.get_u32().unwrap());
    });
    got
}

fn numbered(i: u32) -> Buffer {
    let mut b = Buffer::new();
    b.put_u32(i);
    b
}

/// Ten request/reply rounds between two contexts leave exactly one TCP
/// connection between them: the reply rides the request's socket.
#[test]
fn request_and_reply_between_two_contexts_use_one_connection() {
    let fabric = tcp_fabric();
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
    for i in 1..=10 {
        a.rsr(&to_b, "ping", Buffer::new()).unwrap();
        let deadline = Instant::now() + PATIENCE;
        while pongs.load(Ordering::Relaxed) < i {
            b.progress().unwrap();
            a.progress().unwrap();
            assert!(Instant::now() < deadline, "round trip {i} stalled");
        }
    }
    let ports = [listen_port(&a), listen_port(&b)];
    assert_eq!(connections_accepted_at(&ports), 1);
    fabric.shutdown();
}

/// Both contexts dial before either hello is read: two connections, each
/// delivering its direction's messages once and in order.
#[test]
fn a_simultaneous_dial_loses_and_duplicates_nothing() {
    const N: u32 = 200;
    let fabric = tcp_fabric();
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();
    let (got_a, got_b) = (recorder(&a), recorder(&b));
    let to_a = a.startpoint_to(a.create_endpoint()).unwrap();
    let to_b = b.startpoint_to(b.create_endpoint()).unwrap();
    // Neither receiver runs between the two dials.
    a.rsr(&to_b, "seq", numbered(0)).unwrap();
    b.rsr(&to_a, "seq", numbered(0)).unwrap();
    for i in 1..N {
        a.rsr(&to_b, "seq", numbered(i)).unwrap();
        b.rsr(&to_a, "seq", numbered(i)).unwrap();
        if i % 16 == 0 {
            a.progress().unwrap();
            b.progress().unwrap();
        }
    }
    let deadline = Instant::now() + PATIENCE;
    while got_a.lock().len() < N as usize || got_b.lock().len() < N as usize {
        assert!(Instant::now() < deadline, "not delivered in time");
        a.progress().unwrap();
        b.progress().unwrap();
    }
    let want: Vec<u32> = (0..N).collect();
    assert_eq!(*got_a.lock(), want);
    assert_eq!(*got_b.lock(), want);
    let ports = [listen_port(&a), listen_port(&b)];
    assert_eq!(connections_accepted_at(&ports), 2, "one per dial");
    fabric.shutdown();
}
