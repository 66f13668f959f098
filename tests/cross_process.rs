//! Cross-process integration: two OS processes, one logical system, RSRs
//! over a real socket. The test re-executes its own binary (filtered to
//! the child entry point) as the second process.

use nexus::rt::prelude::*;
use nexus::transports::register_defaults;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Child entry point: a no-op unless launched by the parent test with
/// `NEXUS_TEST_CHILD=1`.
#[test]
fn child_echoes_one_request() {
    if std::env::var("NEXUS_TEST_CHILD").is_err() {
        return;
    }
    let fabric = Fabric::with_id_base(50_000);
    register_defaults(&fabric);
    let me = fabric
        .create_context_at(NodeId(50_000), PartitionId(9))
        .unwrap();
    let hex = std::env::var("NEXUS_TEST_SP").unwrap();
    let mut buf = Buffer::new();
    buf.put_raw(&from_hex(&hex));
    let target = Startpoint::unpack_standalone(&mut buf).unwrap();

    let got = Arc::new(AtomicU32::new(0));
    {
        let g = Arc::clone(&got);
        me.register_handler("pong", move |args| {
            g.store(args.buffer.get_u32().unwrap(), Ordering::Relaxed);
        });
    }
    let ep = me.create_endpoint();
    let reply = me.startpoint_to(ep).unwrap();
    let mut req = Buffer::new();
    reply.pack(&mut req);
    req.put_u32(21);
    me.rsr(&target, "ping", req).unwrap();
    assert_eq!(target.current_methods()[0].1, Some(MethodId::TCP));
    assert!(me.progress_until(
        || got.load(Ordering::Relaxed) == 42,
        Duration::from_secs(20)
    ));
    fabric.shutdown();
}

#[test]
fn rsr_crosses_a_process_boundary_over_tcp() {
    let fabric = Fabric::with_id_base(0);
    register_defaults(&fabric);
    let ctx = fabric.create_context_at(NodeId(0), PartitionId(1)).unwrap();
    let served = Arc::new(AtomicU32::new(0));
    {
        let s = Arc::clone(&served);
        ctx.register_handler("ping", move |args| {
            let reply = Startpoint::unpack_standalone(args.buffer).unwrap();
            let x = args.buffer.get_u32().unwrap();
            let mut out = Buffer::new();
            out.put_u32(x * 2);
            args.context.rsr(&reply, "pong", out).unwrap();
            s.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep = ctx.create_endpoint();
    let sp = ctx.startpoint_to(ep).unwrap();
    let mut packed = Buffer::new();
    sp.pack(&mut packed);

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["child_echoes_one_request", "--exact", "--nocapture"])
        .env("NEXUS_TEST_CHILD", "1")
        .env("NEXUS_TEST_SP", to_hex(packed.as_slice()))
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();

    assert!(ctx.progress_until(
        || served.load(Ordering::Relaxed) == 1,
        Duration::from_secs(30)
    ));
    // Keep serving until the child has verified its reply and exited.
    let _guard = ctx.spawn_progress_thread();
    let status = child.wait().unwrap();
    assert!(status.success(), "child test must pass");
    assert_eq!(ctx.trace().snapshot_method(MethodId::TCP).recvs, 1);
    fabric.shutdown();
}
