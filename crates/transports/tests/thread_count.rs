//! Thread-budget regression test: the process must run O(workers)
//! service threads, not O(sockets).
//!
//! Before the shared reactor, every socket receiver carried its own
//! `nexus-ready-pump-*` thread and every RUDP connection its own
//! `nexus-rudp-pump` thread, so a context mesh with S sockets cost S
//! threads. Now all socket readiness and retransmit ticks multiplex onto
//! ONE `nexus-reactor` thread, and dispatch parallelism comes only from
//! the worker pool the application explicitly sizes.
//!
//! Linux-only: thread names are read from `/proc/self/task/*/comm`.
#![cfg(target_os = "linux")]

use nexus_rt::buffer::Buffer;
use nexus_rt::context::Fabric;
use nexus_rt::descriptor::MethodId;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Thread names of every task in this process. `comm` truncates names to
/// 15 bytes, so callers match on truncated prefixes.
fn thread_names() -> Vec<String> {
    let mut names = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return names;
    };
    for task in tasks.flatten() {
        if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
            names.push(comm.trim().to_owned());
        }
    }
    names
}

fn count_prefix(names: &[String], prefix: &str) -> usize {
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

/// Waits for the census to show exactly `want` threads named `prefix`.
/// A freshly spawned thread briefly carries its parent's `comm` until it
/// renames itself, so a single snapshot right after spawn (or stop) can
/// under- or over-count under load.
fn await_prefix_count(prefix: &str, want: usize) -> Vec<String> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let names = thread_names();
        if count_prefix(&names, prefix) == want || std::time::Instant::now() >= deadline {
            return names;
        }
        std::thread::yield_now();
    }
}

#[test]
fn service_threads_scale_with_workers_not_sockets() {
    let fabric = Fabric::new();
    nexus_transports::register_defaults(&fabric);

    // A mesh of contexts, each opening tcp + udp + rudp receive sockets,
    // with live RUDP traffic (sender pumps) across the mesh. With per-fd
    // pumps this would cost tens of threads; the budget must stay flat.
    const CONTEXTS: usize = 8;
    let mut ctxs = Vec::new();
    let mut counters = Vec::new();
    for _ in 0..CONTEXTS {
        let c = fabric.create_context().unwrap();
        let got = Arc::new(AtomicU32::new(0));
        let g = Arc::clone(&got);
        c.register_handler("x", move |_| {
            g.fetch_add(1, Ordering::Relaxed);
        });
        ctxs.push(c);
        counters.push(got);
    }
    let mut startpoints = Vec::new();
    for i in 0..CONTEXTS {
        let peer = &ctxs[(i + 1) % CONTEXTS];
        let ep = peer.create_endpoint();
        let sp = peer.startpoint_to(ep).unwrap();
        let target = sp.targets()[0];
        assert!(sp.edit_table(target, |t| {
            t.prioritize(MethodId::RUDP);
        }));
        startpoints.push(sp);
    }
    let mut payload = Buffer::new();
    payload.put_str("ring");
    for (i, sp) in startpoints.iter().enumerate() {
        ctxs[i].rsr(sp, "x", payload.clone()).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::RUDP));
    }
    for i in 0..CONTEXTS {
        let receiver = &ctxs[(i + 1) % CONTEXTS];
        let got = &counters[(i + 1) % CONTEXTS];
        assert!(
            receiver.progress_until(|| got.load(Ordering::Relaxed) >= 1, Duration::from_secs(10)),
            "context {i} never delivered over rudp"
        );
    }

    // The budget: one reactor, zero per-socket pumps, zero per-connection
    // retransmit threads — with 8 contexts × 3 socket receivers plus 8
    // live RUDP connections in flight.
    let names = thread_names();
    assert_eq!(
        count_prefix(&names, "nexus-ready-pum"),
        0,
        "per-socket pump threads leaked: {names:?}"
    );
    assert_eq!(
        count_prefix(&names, "nexus-rudp-pump"),
        0,
        "per-connection rudp pump threads leaked: {names:?}"
    );
    let names = await_prefix_count("nexus-reactor", 1);
    assert_eq!(
        count_prefix(&names, "nexus-reactor"),
        1,
        "expected exactly one shared reactor thread: {names:?}"
    );

    // Dispatch parallelism is an explicit knob: starting a 4-worker pool
    // adds exactly 4 shard workers, independent of socket count.
    let adopted = ctxs[0].start_workers(4);
    assert!(adopted > 0, "worker pool adopted no armed sources");
    let names = await_prefix_count("nexus-shard-wor", 4);
    assert_eq!(
        count_prefix(&names, "nexus-shard-wor"),
        4,
        "worker pool must spawn exactly the requested workers: {names:?}"
    );
    ctxs[0].stop_workers();
    let names = await_prefix_count("nexus-shard-wor", 0);
    assert_eq!(
        count_prefix(&names, "nexus-shard-wor"),
        0,
        "shard workers must exit on stop_workers: {names:?}"
    );

    fabric.shutdown();
}
