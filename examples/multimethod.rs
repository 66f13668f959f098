//! Multimethod selection: the Figure 3 scenario of the paper.
//!
//! Three "nodes": node 0 is a workstation connected only by the universal
//! method (TCP — the paper's Ethernet); nodes 1 and 2 sit in one SP2
//! partition and are additionally connected by MPL. A startpoint to an
//! endpoint on node 2 is used from node 0 (TCP is the only applicable
//! method), then *migrates* to node 1, where automatic selection discovers
//! that MPL is applicable and switches — no application bookkeeping. Then
//! we steer the choice manually and read everything back through the
//! enquiry functions, including a resource-database configuration.
//!
//! Run with: `cargo run --example multimethod`

use nexus_rt::prelude::*;
use nexus_transports::register_defaults;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<()> {
    let fabric = Fabric::new();
    register_defaults(&fabric);

    // The resource database can reorder/restrict methods and set
    // parameters — here we just set a TCP knob and keep the default order.
    let cfg = RtConfig::parse(
        "# multimethod demo\n\
         param tcp.connect_timeout_ms 3000\n",
    )?;
    cfg.apply_registry(fabric.registry())?;

    // Placement: node 0 alone (partition 0); nodes 1,2 share partition 7.
    let n0 = fabric.create_context_with(ContextOpts {
        node: NodeId(0),
        partition: PartitionId(0),
        ..Default::default()
    })?;
    let n1 = fabric.create_context_with(ContextOpts {
        node: NodeId(1),
        partition: PartitionId(7),
        ..Default::default()
    })?;
    let n2 = fabric.create_context_with(ContextOpts {
        node: NodeId(2),
        partition: PartitionId(7),
        ..Default::default()
    })?;

    let hits = Arc::new(AtomicU32::new(0));
    {
        let hits = Arc::clone(&hits);
        n2.register_handler("poke", move |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep = n2.create_endpoint();
    let sp = n2.startpoint_to(ep)?;
    println!(
        "descriptor table attached to the startpoint: {:?}",
        sp.links()[0].table().methods()
    );

    let wait_hit =
        |n: u32| n2.progress_until(|| hits.load(Ordering::Relaxed) >= n, Duration::from_secs(5));

    // --- use from node 0: only TCP applies -------------------------------
    println!(
        "[node 0] applicable methods: {:?}",
        n0.applicable_methods(&sp)?
    );
    n0.rsr(&sp, "poke", Buffer::new())?;
    assert!(wait_hit(1));
    println!(
        "[node 0] automatic selection chose: {}",
        sp.current_methods()[0].1.unwrap()
    );

    // --- migrate the startpoint to node 1 (same partition as node 2) -----
    // Copying/serializing a startpoint mirrors its links; the receiving
    // context re-runs selection against its own placement.
    let mut carrier = Buffer::new();
    sp.pack(&mut carrier);
    let migrated = Startpoint::unpack(&mut carrier, &n1)?;
    println!(
        "[node 1] applicable methods after migration: {:?}",
        n1.applicable_methods(&migrated)?
    );
    n1.rsr(&migrated, "poke", Buffer::new())?;
    assert!(wait_hit(2));
    println!(
        "[node 1] automatic selection chose: {} (MPL is applicable here)",
        migrated.current_methods()[0].1.unwrap()
    );

    // --- manual selection: pin, then edit the table ----------------------
    migrated.set_method(MethodId::TCP);
    n1.rsr(&migrated, "poke", Buffer::new())?;
    assert!(wait_hit(3));
    println!(
        "[node 1] after manual pin: {}",
        migrated.current_methods()[0].1.unwrap()
    );
    migrated.clear_method();
    // Deleting the MPL descriptor also disables the method for this link.
    migrated.edit_table(migrated.targets()[0], |t| {
        t.remove(MethodId::MPL);
    });
    n1.rsr(&migrated, "poke", Buffer::new())?;
    assert!(wait_hit(4));
    println!(
        "[node 1] after deleting the MPL descriptor: {}",
        migrated.current_methods()[0].1.unwrap()
    );

    // --- enquiry: per-method traffic counters -----------------------------
    for (method, snap) in n2.trace().snapshot() {
        if snap.recvs > 0 {
            println!(
                "[node 2] received {} RSR(s) over {} ({} bytes)",
                snap.recvs, method, snap.recv_bytes
            );
        }
    }

    // --- enquiry: measured costs from the trace layer ---------------------
    // Sampled probes (1 in 16 per source) and the timed transport sends
    // (every tcp send, 1 in 16 per link elsewhere) feed the EWMAs and the
    // per-(link, method) latency histograms; the trace report below lists
    // every send under `sends` and the timed ones under `timed`. These are
    // what a QoS policy (or a curious programmer, §2.1) reads instead of
    // a-priori constants.
    for method in [MethodId::MPL, MethodId::TCP] {
        let est = n2.method_cost_estimate(method);
        if let Some(ns) = est.poll_cost_ns {
            println!(
                "[node 2] measured {} poll cost: {:.0} ns over {} probes",
                method, ns, est.poll_samples
            );
        }
    }
    println!("\n[node 1] trace report:\n{}", n1.trace().render());
    fabric.shutdown();
    Ok(())
}
