//! Site-boundary security (§2): "control information might be encrypted
//! outside a site, but not within, while data is not encrypted in either
//! case" — security as a per-link method choice.
//!
//! Two "sites" (partitions). Control traffic between sites goes over a
//! cipher+checksum-wrapped TCP method; control traffic *within* a site
//! uses the plain fast path; bulk data is plain everywhere. No application
//! logic changes per destination — the descriptor tables and one policy
//! tweak do all the work.
//!
//! Run with: `cargo run --example site_security`

use nexus_rt::prelude::*;
use nexus_transports::{register_defaults, Chain, Checksum, TcpModule, WrapModule, XorCipher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The wrapped method's id (custom range).
const SECURE_TCP: MethodId = MethodId(0x100);

fn main() -> Result<()> {
    let fabric = Fabric::new();
    register_defaults(&fabric);
    // A "secure TCP": cipher + integrity check over a private TCP module.
    // Ranked after mpl but before plain tcp, so automatic selection uses
    // it exactly when the fast intra-site methods do not apply — i.e. for
    // cross-site traffic.
    fabric.registry().register(Arc::new(WrapModule::new(
        SECURE_TCP,
        "secure-tcp",
        20,
        Arc::new(TcpModule::new()),
        Arc::new(Chain::new(vec![
            Box::new(XorCipher::new(0xC0FFEE)),
            Box::new(Checksum),
        ])),
    )));
    // Site A: two contexts; Site B: one context.
    let a1 = fabric.create_context_at(NodeId(0), PartitionId(1))?;
    let a2 = fabric.create_context_at(NodeId(0), PartitionId(1))?;
    let b1 = fabric.create_context_at(NodeId(10), PartitionId(2))?;

    let seen = Arc::new(AtomicU32::new(0));
    for ctx in [&a2, &b1] {
        let s = Arc::clone(&seen);
        let id = ctx.id();
        ctx.register_handler("control", move |args| {
            let cmd = args.buffer.get_str().unwrap();
            println!("[ctx {id}] control: {cmd:?}");
            s.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep_a2 = a2.create_endpoint();
    let sp_intra = a2.startpoint_to(ep_a2)?; // within site A
    let ep_b1 = b1.create_endpoint();
    let sp_inter = b1.startpoint_to(ep_b1)?; // crosses the site boundary

    println!(
        "b1 advertises (fastest first): {:?}",
        b1.descriptor_table().methods()
    );

    let mut msg1 = Buffer::new();
    msg1.put_str("rebalance load");
    a1.rsr(&sp_intra, "control", msg1)?;

    let mut msg2 = Buffer::new();
    msg2.put_str("open data channel");
    a1.rsr(&sp_inter, "control", msg2)?;

    let _g2 = a2.spawn_progress_thread();
    let _g3 = b1.spawn_progress_thread();
    let ok = a1.progress_until(
        || seen.load(Ordering::Relaxed) == 2,
        Duration::from_secs(10),
    );
    assert!(ok);

    let intra = sp_intra.current_methods()[0].1.unwrap();
    let inter = sp_inter.current_methods()[0].1.unwrap();
    println!("within site A : {intra} (no crypto inside the site)");
    println!("across sites  : {inter} (cipher + integrity at the boundary)");
    assert_eq!(intra, MethodId::SHMEM);
    assert_eq!(inter, SECURE_TCP);
    assert_eq!(b1.trace().snapshot_method(SECURE_TCP).recvs, 1);
    fabric.shutdown();
    Ok(())
}
