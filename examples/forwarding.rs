//! The forwarding-node design of §3.3.
//!
//! Worker contexts inside a partition do not poll TCP at all; their
//! descriptor tables advertise the *forwarder's* TCP address instead. An
//! external context's RSRs land on the forwarder, which re-sends them over
//! the fast partition-scoped method. The workers' poll loops stay cheap —
//! the design's point — at the cost of an extra hop, which is why the
//! tuned-skip_poll configuration beats it in Table 1.
//!
//! Run with: `cargo run --example forwarding`

use nexus_rt::prelude::*;
use nexus_transports::register_defaults;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<()> {
    let fabric = Fabric::new();
    register_defaults(&fabric);

    // The forwarder enables everything, including TCP.
    let forwarder = fabric.create_context_with(ContextOpts {
        node: NodeId(0),
        partition: PartitionId(1),
        ..Default::default()
    })?;
    // Workers enable only the fast in-partition methods; TCP traffic for
    // them routes via the forwarder.
    let mut workers = Vec::new();
    for node in 1..=4u32 {
        workers.push(fabric.create_context_with(ContextOpts {
            node: NodeId(node),
            partition: PartitionId(1),
            methods: Some(vec![MethodId::SHMEM, MethodId::MPL]),
            forward_via: Some(ForwardVia {
                method: MethodId::TCP,
                forwarder: forwarder.id(),
            }),
        })?);
    }
    // The external context (another "site"): TCP only.
    let external = fabric.create_context_with(ContextOpts {
        node: NodeId(99),
        partition: PartitionId(2),
        methods: Some(vec![MethodId::TCP]),
        ..Default::default()
    })?;

    let hits = Arc::new(AtomicU32::new(0));
    let mut sps = Vec::new();
    for w in &workers {
        let hits = Arc::clone(&hits);
        let id = w.id();
        w.register_handler("work", move |args| {
            let item = args.buffer.get_u32().unwrap();
            println!("[worker {id}] received work item {item} (over MPL, via the forwarder)");
            hits.fetch_add(1, Ordering::Relaxed);
        });
        let ep = w.create_endpoint();
        sps.push(w.startpoint_to(ep)?);
    }
    println!(
        "worker descriptor tables advertise TCP via the forwarder: {:?}",
        workers[0].descriptor_table().methods()
    );

    // The external site sends one item to each worker. The only method it
    // shares with them is TCP — whose receive side lives on the forwarder.
    for (i, sp) in sps.iter().enumerate() {
        let mut buf = Buffer::new();
        buf.put_u32(i as u32);
        external.rsr(sp, "work", buf)?;
    }

    let all_done = forwarder.progress_until(
        || {
            for w in &workers {
                let _ = w.progress();
            }
            hits.load(Ordering::Relaxed) == workers.len() as u32
        },
        Duration::from_secs(10),
    );
    assert!(all_done, "all work items must arrive through the forwarder");

    let fwd_stats = forwarder.trace().snapshot_method(MethodId::TCP);
    println!(
        "forwarder relayed {} message(s) that arrived over TCP",
        fwd_stats.forwards
    );
    for w in &workers {
        let s = w.trace().snapshot_method(MethodId::TCP);
        assert_eq!(s.polls, 0, "workers never poll TCP — that is the point");
    }
    println!("workers performed zero TCP polls");
    fabric.shutdown();
    Ok(())
}
