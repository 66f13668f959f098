//! Integration tests for cost-driven live link re-selection: a link whose
//! measured costs invert migrates to the cheaper method in place, and a
//! dead RUDP connection feeds the failover path instead of hard-erroring.

use nexus_rt::buffer::Buffer;
use nexus_rt::context::Fabric;
use nexus_rt::descriptor::MethodId;
use nexus_rt::module::CommModule;
use nexus_rt::selection::ReselectConfig;
use nexus_rt::trace::TraceEventKind;
use nexus_transports::{PayloadTransform, RudpModule, ShmemModule, TcpModule, WrapModule};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn payload(text: &str) -> Buffer {
    let mut b = Buffer::new();
    b.put_str(text);
    b
}

/// A link seeded onto real TCP migrates to shmem once both methods carry
/// measured costs and the loopback socket proves more expensive than the
/// in-process queue — asserted through the `MethodSwitch` trace event.
#[test]
fn link_migrates_tcp_to_shmem_when_measured_costs_invert() {
    let fabric = Fabric::new();
    fabric.registry().register(Arc::new(ShmemModule::new()));
    fabric.registry().register(Arc::new(TcpModule::new()));
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();

    let got = Arc::new(AtomicU32::new(0));
    {
        let g = Arc::clone(&got);
        b.register_handler("x", move |_| {
            g.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep = b.create_endpoint();
    // One startpoint keeps the default fastest-first table (shmem ahead of
    // tcp) to prime shmem's measured send cost; the other has tcp promoted
    // so automatic selection starts on the slower method.
    let sp_fast = b.startpoint_to(ep).unwrap();
    let sp = b.startpoint_to(ep).unwrap();
    let target = sp.targets()[0];
    assert!(sp.edit_table(target, |t| {
        t.prioritize(MethodId::TCP);
    }));

    a.set_reselection(Some(ReselectConfig {
        margin: 1.1,
        consecutive: 2,
        min_samples: 4,
        check_every: 4,
    }));

    for _ in 0..8 {
        a.rsr(&sp_fast, "x", payload("prime shmem")).unwrap();
    }
    let mut sent = 8u32;
    let mut migrated = false;
    for _ in 0..200 {
        a.rsr(&sp, "x", payload("over the slow link")).unwrap();
        sent += 1;
        if sp.current_methods()[0].1 == Some(MethodId::SHMEM) {
            migrated = true;
            break;
        }
    }
    assert!(
        migrated,
        "link never migrated off tcp: {:?}",
        sp.current_methods()
    );
    let switched = a.trace().events().iter().any(|e| {
        matches!(
            e.kind,
            TraceEventKind::MethodSwitch {
                from: Some(MethodId::TCP),
                to: MethodId::SHMEM,
                ..
            }
        )
    });
    assert!(switched, "no MethodSwitch tcp -> shmem event recorded");

    // Traffic keeps flowing after the in-place migration.
    a.rsr(&sp, "x", payload("after migration")).unwrap();
    sent += 1;
    assert!(b.progress_until(
        || got.load(Ordering::Relaxed) == sent,
        Duration::from_secs(5)
    ));
    fabric.shutdown();
}

/// RUDP connection death (black-holed peer exhausting the retransmit cap)
/// surfaces as `ConnectionClosed`, which the send path converts into a
/// failover migration onto TCP instead of a hard error.
#[test]
fn rudp_connection_death_triggers_failover_to_tcp() {
    let fabric = Fabric::new();
    let rudp = Arc::new(RudpModule::new());
    rudp.set_param("rto_ms", "1").unwrap();
    rudp.set_param("max_retries", "3").unwrap();
    fabric.registry().register(Arc::new(TcpModule::new()));
    fabric.registry().register(Arc::clone(&rudp) as _);
    let a = fabric.create_context().unwrap();
    let b = fabric.create_context().unwrap();

    let got = Arc::new(AtomicU32::new(0));
    {
        let g = Arc::clone(&got);
        b.register_handler("x", move |_| {
            g.fetch_add(1, Ordering::Relaxed);
        });
    }
    let ep = b.create_endpoint();
    let sp = b.startpoint_to(ep).unwrap();
    let target = sp.targets()[0];
    assert!(sp.edit_table(target, |t| {
        t.prioritize(MethodId::RUDP);
    }));

    // Healthy RUDP first: one message delivered over the real socket.
    a.rsr(&sp, "x", payload("healthy")).unwrap();
    assert_eq!(sp.current_methods()[0].1, Some(MethodId::RUDP));
    assert!(b.progress_until(|| got.load(Ordering::Relaxed) == 1, Duration::from_secs(5)));
    assert_eq!(b.trace().snapshot_method(MethodId::RUDP).recvs, 1);

    // Black-hole the transport: every DATA transmission is suppressed, so
    // the pump exhausts the retransmit cap and marks the connection dead.
    rudp.set_param("loss", "1").unwrap();
    let mut failed_over = false;
    for _ in 0..500 {
        std::thread::sleep(Duration::from_millis(2));
        a.rsr(&sp, "x", payload("into the void")).unwrap();
        if sp.current_methods()[0].1 == Some(MethodId::TCP) {
            failed_over = true;
            break;
        }
    }
    assert!(failed_over, "dead rudp connection never failed over to tcp");
    let events = a.trace().events();
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::Failover {
                from: MethodId::RUDP,
                ..
            }
        )),
        "no Failover event recorded for the dead rudp connection"
    );
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::MethodSwitch {
                to: MethodId::TCP,
                ..
            }
        )),
        "no MethodSwitch onto tcp recorded"
    );
    assert!(a.trace().snapshot_method(MethodId::RUDP).failovers >= 1);

    // The migrated link still delivers.
    let before = got.load(Ordering::Relaxed);
    a.rsr(&sp, "x", payload("over tcp now")).unwrap();
    assert!(b.progress_until(
        || got.load(Ordering::Relaxed) > before,
        Duration::from_secs(5)
    ));
    fabric.shutdown();
}

/// An identity payload transform that sleeps in `encode`. Wrapped around
/// tcp it makes a method whose every send costs at least a millisecond, so
/// its cost inversion against shmem holds however the threads are
/// scheduled, and a sender is almost always inside a send when the link
/// switches.
struct Sleepy;

impl PayloadTransform for Sleepy {
    fn name(&self) -> &'static str {
        "sleepy"
    }

    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        std::thread::sleep(Duration::from_millis(1));
        payload.to_vec()
    }

    fn decode(&self, payload: &[u8]) -> nexus_rt::error::Result<Vec<u8>> {
        Ok(payload.to_vec())
    }
}

/// Migration under concurrent senders: two threads send on one startpoint
/// while re-selection moves its link from a slow tcp method to shmem. A
/// send that overlaps the switch completes on the old object, which stays
/// cached and healthy, so whatever the interleaving every payload arrives
/// exactly once, the link switches once, and nothing fails over.
#[test]
fn migration_under_concurrent_senders_delivers_each_message_once() {
    const SLOW_TCP: MethodId = MethodId(0x130);
    const THREADS: usize = 2;
    const PER_THREAD: usize = 200;
    for round in 0..20 {
        let fabric = Fabric::new();
        fabric.registry().register(Arc::new(ShmemModule::new()));
        fabric.registry().register(Arc::new(WrapModule::new(
            SLOW_TCP,
            "slow-tcp",
            40,
            Arc::new(TcpModule::new()),
            Arc::new(Sleepy),
        )));
        let a = fabric.create_context().unwrap();
        let b = fabric.create_context().unwrap();

        let seen: Arc<Vec<AtomicU32>> = Arc::new(
            (0..THREADS * PER_THREAD)
                .map(|_| AtomicU32::new(0))
                .collect(),
        );
        {
            let seen = Arc::clone(&seen);
            b.register_handler("x", move |args| {
                let i = args.buffer.get_u32().unwrap() as usize;
                seen[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        b.register_handler("prime", |_| {});
        let ep = b.create_endpoint();
        let sp_fast = b.startpoint_to(ep).unwrap();
        let sp = b.startpoint_to(ep).unwrap();
        assert!(sp.edit_table(sp.targets()[0], |t| {
            t.prioritize(SLOW_TCP);
        }));
        a.set_reselection(Some(ReselectConfig {
            margin: 1.1,
            consecutive: 2,
            min_samples: 4,
            check_every: 4,
        }));
        for _ in 0..8 {
            a.rsr(&sp_fast, "prime", payload("prime shmem")).unwrap();
        }
        a.rsr(&sp, "prime", payload("select slow tcp")).unwrap();
        assert_eq!(sp.current_methods()[0].1, Some(SLOW_TCP));

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (a, sp) = (&a, &sp);
                s.spawn(move || {
                    for k in 0..PER_THREAD {
                        let mut buf = Buffer::new();
                        buf.put_u32((t * PER_THREAD + k) as u32);
                        a.rsr(sp, "x", buf).unwrap();
                    }
                });
            }
        });
        let total = (THREADS * PER_THREAD) as u32;
        let delivered = || seen.iter().map(|n| n.load(Ordering::Relaxed)).sum::<u32>();
        assert!(
            b.progress_until(|| delivered() >= total, Duration::from_secs(10)),
            "round {round}: {} of {total} delivered",
            delivered()
        );
        // Give a duplicate the chance to arrive before the count.
        for _ in 0..200 {
            b.progress().unwrap();
        }
        assert!(
            seen.iter().all(|n| n.load(Ordering::Relaxed) == 1),
            "round {round}: a payload arrived other than once"
        );
        assert_eq!(sp.current_methods()[0].1, Some(MethodId::SHMEM));
        let events = a.trace().events();
        let switches = events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::MethodSwitch { from: Some(_), .. }))
            .count();
        assert_eq!(switches, 1, "round {round}: {events:?}");
        assert!(
            !events
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::Failover { .. })),
            "round {round}: {events:?}"
        );
        for m in [SLOW_TCP, MethodId::SHMEM] {
            assert_eq!(a.trace().snapshot_method(m).failovers, 0, "round {round}");
        }
        fabric.shutdown();
    }
}
