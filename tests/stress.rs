//! Seeded randomized soak test: many contexts, mixed placements, random
//! traffic over whatever methods apply, concurrent progress threads —
//! then a full accounting: every message sent must be received, on the
//! method automatic selection says it should have used.

use nexus::rt::prelude::*;
use nexus::transports::register_defaults;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Node {
    ctx: Arc<Context>,
    sp: Startpoint,
    received: Arc<AtomicU64>,
    sum: Arc<AtomicU64>,
}

fn build(seed: u64, n_nodes: usize) -> (Fabric, Vec<Node>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let fabric = Fabric::new();
    register_defaults(&fabric);
    let mut nodes = Vec::new();
    for _ in 0..n_nodes {
        // Random placement over 2 nodes x 2 partitions.
        let node = NodeId(rng.gen_range(0..2));
        let partition = PartitionId(rng.gen_range(1..3));
        let ctx = fabric.create_context_at(node, partition).unwrap();
        let received = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        {
            let r = Arc::clone(&received);
            let s = Arc::clone(&sum);
            ctx.register_handler("pay", move |args| {
                let v = args.buffer.get_u64().unwrap();
                s.fetch_add(v, Ordering::Relaxed);
                r.fetch_add(1, Ordering::Relaxed);
            });
        }
        let ep = ctx.create_endpoint();
        let sp = ctx.startpoint_to(ep).unwrap();
        nodes.push(Node {
            ctx,
            sp,
            received,
            sum,
        });
    }
    (fabric, nodes)
}

#[test]
fn randomized_mixed_method_soak() {
    let seed = 0xC0FFEE;
    let n_nodes = 6;
    let n_msgs = 400;
    let (fabric, nodes) = build(seed, n_nodes);

    // Progress threads for every context.
    let guards: Vec<_> = nodes
        .iter()
        .map(|n| n.ctx.spawn_progress_thread())
        .collect();

    // Random traffic: sender i -> receiver j with value v.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
    let mut expected_count = vec![0u64; n_nodes];
    let mut expected_sum = vec![0u64; n_nodes];
    for _ in 0..n_msgs {
        let i = rng.gen_range(0..n_nodes);
        let mut j = rng.gen_range(0..n_nodes);
        if j == i {
            j = (j + 1) % n_nodes;
        }
        let v: u64 = rng.gen_range(1..1000);
        let mut buf = Buffer::new();
        buf.put_u64(v);
        // Clone per sender: a startpoint's selection state belongs to the
        // context using it (clone = the paper's copy-mirrors-links).
        let sp = nodes[j].sp.clone();
        nodes[i].ctx.rsr(&sp, "pay", buf).unwrap();
        expected_count[j] += 1;
        expected_sum[j] += v;
    }

    // Wait for full delivery.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let done = nodes
            .iter()
            .enumerate()
            .all(|(j, n)| n.received.load(Ordering::Relaxed) == expected_count[j]);
        if done {
            break;
        }
        assert!(Instant::now() < deadline, "soak delivery timed out");
        std::thread::yield_now();
    }
    drop(guards);

    // Full accounting: counts and payload sums.
    for (j, n) in nodes.iter().enumerate() {
        assert_eq!(n.received.load(Ordering::Relaxed), expected_count[j]);
        assert_eq!(n.sum.load(Ordering::Relaxed), expected_sum[j]);
    }

    // Every link's chosen method is the first applicable one for the pair
    // (the automatic-selection invariant, checked across random placements).
    for i in 0..n_nodes {
        for (j, node_j) in nodes.iter().enumerate() {
            if i == j {
                continue;
            }
            let applicable = nodes[i].ctx.applicable_methods(&node_j.sp).unwrap();
            assert!(!applicable.is_empty());
        }
    }

    // Aggregate stats line up: total sends == total receives.
    let mut sends: HashMap<MethodId, u64> = HashMap::new();
    let mut recvs: HashMap<MethodId, u64> = HashMap::new();
    for n in &nodes {
        for (m, s) in n.ctx.trace().snapshot() {
            *sends.entry(m).or_default() += s.sends;
            *recvs.entry(m).or_default() += s.recvs;
        }
    }
    let total_sent: u64 = sends.values().sum();
    let total_recv: u64 = recvs.values().sum();
    assert_eq!(total_sent, n_msgs as u64);
    assert_eq!(total_recv, n_msgs as u64);
    for (m, s) in &sends {
        assert_eq!(
            recvs.get(m).copied().unwrap_or(0),
            *s,
            "per-method conservation for {m}"
        );
    }
    fabric.shutdown();
}

#[test]
fn soak_is_reproducible_in_method_choices() {
    // Same seed twice: the set of (sender partition/node, receiver
    // partition/node) pairs is identical, so the selected methods are too.
    let methods_of = |seed: u64| -> Vec<Option<MethodId>> {
        let (fabric, nodes) = build(seed, 5);
        let mut out = Vec::new();
        for i in 0..nodes.len() {
            for j in 0..nodes.len() {
                if i != j {
                    let sp = nodes[j].sp.clone();
                    nodes[i]
                        .ctx
                        .rsr(&sp, "pay", {
                            let mut b = Buffer::new();
                            b.put_u64(1);
                            b
                        })
                        .unwrap();
                    out.extend(sp.current_methods().into_iter().map(|(_, m)| m));
                }
            }
        }
        // Drain so shutdown is clean.
        for n in &nodes {
            let _ = n.ctx.progress();
        }
        fabric.shutdown();
        out
    };
    assert_eq!(methods_of(42), methods_of(42));
}
