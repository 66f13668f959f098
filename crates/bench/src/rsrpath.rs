//! The RSR data path's gate table (`gate rsr`, tracked in `BENCH_rsr.json`).
//!
//! The paper's evaluation (Table 1, Fig. 4) is about per-message
//! overhead, and §5 credits a lean buffer-management path. Each row times
//! one `Context::rsr` call through the full local-queue round trip —
//! encode, enqueue, unified poll, decode, dispatch — and divides it by
//! the layer below: a bare round trip through the queue transport's own
//! `send` and `poll`, with no `Context`, at the same payload. Rows sweep
//! payload size and multicast width, silent readiness-armed sources (the
//! poll engine's O(ready) claim), and a 4 096-link fan-out drained inline,
//! which divides by the same fan-out through the bare queue.
//! The fair row divides a shared `WorkerPool` draining that fan-out, with
//! a 2 µs handler, by the same fixture drained inline: the pool's claim
//! is that its workers run handlers side by side.

use crate::harness::{counted, payload, Case, Pump, Row, Table, Teardown};
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{ContextId, Fabric};
use nexus_rt::descriptor::MethodId;
use nexus_rt::endpoint::EndpointId;
use nexus_rt::module::test_support::TestModule;
use nexus_rt::module::{CommObject, CommReceiver};
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::shard::WorkerPool;
use nexus_transports::queue::{QueueMedium, QueueObject, QueueReceiver};
use nexus_transports::register_queue_modules;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NOTE: &str = "ratio = ns/op of the row over ns/op of a bare queue round trip (the queue \
transport's own send and poll, no Context) at the same payload: the median of per-batch ratios, \
row and reference batches alternating in one loop. allocs_per_op counts global-allocator calls \
per rsr call over the row batches; it is absolute and budgeted at baseline x 1.25 + 0.5. links x \
payload rows multicast from one context to its own endpoints on the local method; idle rows add \
that many silent readiness-armed sources, and the same run must hold idle=4096 within 2x idle=1 \
(O(ready)); the workers=0 row spreads 4096 links over 64 receiver contexts drained inline, over \
the same pipelined fan-out through the bare queue's send and poll. The \
fair row (handler=2us) is that fan-out with a handler spinning 2 us on the clock, drained by a \
shared WorkerPool of 2 threads, over the same fixture drained inline: below 1 means the pool runs \
handlers side by side; on one CPU it is not judged. Every row is gated at +25 %. What the ratio \
cannot see: a slowdown in the shared queue layer moves row and reference alike; BENCHMARK.json's \
multimethod_mix covers that layer. This file guards in-process invariants (zero allocations, \
O(ready), the Context layer's cost over the bare queue); every claim about speed belongs in \
BENCHMARK.json.";

/// Most the `idle = 4096` row's ratio may be, as a multiple of the
/// `idle = 1` row's: O(ready) means silent armed sources add nothing to a
/// pass.
const FLAT_LIMIT: f64 = 2.0;

/// The fair row: the many-link fan-out with a 2 µs handler, drained by a
/// pool of 2 threads, over the same fixture drained inline.
const FAIR_KEY: &str = "links=4096 payload=16 idle=0 workers=2 handler=2us";

/// How many receiver contexts the many-link rows spread their links
/// across. The queue modules register one shared inbox per context, so
/// contexts — not endpoints — are the unit of sharding: 64 sources give a
/// worker pool real parallelism to divide, where one context would
/// serialize every delivery through one slot.
const SWEEP_RX_CONTEXTS: usize = 64;

fn key(links: usize, payload: usize, idle: usize) -> String {
    format!("links={links} payload={payload} idle={idle} workers=0")
}

/// The table: links x payload, then the idle-source sweep (links 1,
/// payload 16), then the many-link fan-out drained inline (payload 16),
/// then the fair row.
pub(crate) fn table() -> Table {
    let mut rows: Vec<(usize, usize, usize)> = Vec::new();
    for links in [1, 8] {
        for payload in [16, 4096, 262_144] {
            rows.push((links, payload, 0));
        }
    }
    rows.extend([1, 64, 4096].map(|idle| (1, 16, idle)));
    rows.push((4096, 16, 0));
    let mut cases: Vec<Case> = rows
        .into_iter()
        .map(|(links, len, idle)| {
            let fan_out = links > SWEEP_RX_CONTEXTS;
            Case {
                key: key(links, len, idle),
                reference: if fan_out {
                    format!("bare-queue links={links} payload={len}")
                } else {
                    format!("bare-queue payload={len}")
                },
                parallel: false,
                build: Box::new(move || {
                    if fan_out {
                        (many_link(links, 0, Duration::ZERO), bare_fan_out(links))
                    } else {
                        (local(links, len, idle), bare_queue(len))
                    }
                }),
            }
        })
        .collect();
    cases.push(Case {
        key: FAIR_KEY.to_owned(),
        reference: "inline links=4096 handler=2us".to_owned(),
        parallel: true,
        build: Box::new(|| {
            let work = Duration::from_micros(2);
            (many_link(4096, 2, work), many_link(4096, 0, work))
        }),
    });
    Table {
        note: NOTE,
        cases,
        same_run: flatness,
    }
}

/// The poll engine's O(ready) flatness, judged within one run: the
/// 4096-idle-source row within [`FLAT_LIMIT`] x the 1-idle-source row. A
/// run without both rows is not judged.
pub(crate) fn flatness(rows: &[Row]) -> Result<String, String> {
    let ratio = |idle| {
        rows.iter()
            .find(|r| r.key == key(1, 16, idle))
            .and_then(|r| r.ratio)
    };
    let (Some(one), Some(many)) = (ratio(1), ratio(4096)) else {
        return Ok(String::new());
    };
    let line = format!(
        "idle=4096: ratio {many:.3} is {:.2}x the same run's idle=1 row ({one:.3}; limit {FLAT_LIMIT}x)",
        many / one
    );
    if many > FLAT_LIMIT * one {
        return Err(line);
    }
    Ok(line)
}

/// The reference: one RSR through the queue transport's own `send` and
/// `poll`, with no `Context` — the layer every row runs on.
fn bare_queue(len: usize) -> Pump {
    let medium = Arc::new(QueueMedium::new());
    let mut rx = QueueReceiver::new(Arc::clone(&medium), ContextId(1));
    let tx: Arc<dyn CommObject> =
        QueueObject::connect(MethodId::SHMEM, &medium, ContextId(1)).expect("connect queue");
    let rsr = Rsr::new(ContextId(1), EndpointId(1), "bench", payload(len));
    let frame = WireFrame::new();
    Box::new(move |n| {
        for _ in 0..n {
            tx.send(&rsr, &frame).expect("queue send");
            let got = rx.poll().expect("queue poll").expect("sent rsr is queued");
            std::hint::black_box(got);
        }
    })
}

/// The many-link row's reference: the same pipelined fan-out, `links`
/// 16-byte frames per op spread over [`SWEEP_RX_CONTEXTS`] receivers,
/// through the queue transport's own `send` and `poll`.
fn bare_fan_out(links: usize) -> Pump {
    let medium = Arc::new(QueueMedium::new());
    let ids = (1..=links.min(SWEEP_RX_CONTEXTS) as u32).map(ContextId);
    let mut rxs: Vec<_> = ids
        .clone()
        .map(|id| QueueReceiver::new(Arc::clone(&medium), id))
        .collect();
    let txs: Vec<Arc<dyn CommObject>> = ids
        .map(|id| QueueObject::connect(MethodId::SHMEM, &medium, id).expect("connect queue"))
        .collect();
    let rsr = Rsr::new(ContextId(0), EndpointId(1), "bench", payload(16));
    let frame = WireFrame::new();
    Box::new(move |n| {
        for _ in 0..n {
            for i in 0..links {
                txs[i % txs.len()].send(&rsr, &frame).expect("queue send");
            }
        }
        for rx in &mut rxs {
            while let Some(got) = rx.poll().expect("queue poll") {
                std::hint::black_box(got);
            }
        }
    })
}

/// One context multicasting to `links` of its own endpoints over the
/// `local` queue method, draining each call before the next so the queue
/// never grows. `idle` extra readiness-armed in-process sources are
/// registered but never sent to: their doorbells stay silent, so the
/// O(ready) engine must not spend time on them.
fn local(links: usize, len: usize, idle: usize) -> Pump {
    let fabric = Fabric::new();
    // Queue modules only: sockets would put µs of readiness-scan syscalls
    // in every poll pass and drown the data-path signal being measured.
    register_queue_modules(&fabric);
    for i in 0..idle {
        let module = TestModule::new(MethodId(0x100 + i as u16), "idle-ready", 1_000, false);
        fabric
            .registry()
            .register(Arc::new(module.with_readiness()));
    }
    let ctx = fabric.create_context().expect("create bench context");
    let received = counted(&ctx);
    let mut sp = ctx
        .startpoint_to(ctx.create_endpoint())
        .expect("bind startpoint");
    for _ in 1..links {
        sp.merge(
            &ctx.startpoint_to(ctx.create_endpoint())
                .expect("bind endpoint"),
        );
    }
    sp.set_method(MethodId::LOCAL);
    let data = payload(len);
    let teardown = Teardown(fabric, None);
    let mut expected = 0_u64;
    Box::new(move |n| {
        let _fabric = &teardown;
        for _ in 0..n {
            ctx.rsr(&sp, "bench", Buffer::from_bytes(data.clone()))
                .expect("rsr");
            expected += links as u64;
            while received.load(Ordering::Relaxed) < expected {
                ctx.progress().expect("progress");
            }
        }
    })
}

/// A sender multicasting to `links` endpoints spread over
/// [`SWEEP_RX_CONTEXTS`] receiver contexts, whose readiness-armed sources
/// are all adopted by ONE shared `WorkerPool` of `workers` threads
/// (`workers = 0` keeps deliveries inline: the caller round-robins
/// `progress()` over the receivers). Each delivery's handler spins for
/// `work`. One op is one `rsr` call plus delivery and dispatch of every
/// link's copy.
fn many_link(links: usize, workers: usize, work: Duration) -> Pump {
    let fabric = Fabric::new();
    register_queue_modules(&fabric);
    let tx = fabric.create_context().expect("create sender context");
    let received = Arc::new(AtomicU64::new(0));
    // Completion wake-up for a pool: the caller parks instead of spinning,
    // so it never competes with the workers for cores. `target` is the
    // delivery count the caller is currently waiting for.
    let target = Arc::new(AtomicU64::new(u64::MAX));
    let caller = std::thread::current();
    let rx_count = links.min(SWEEP_RX_CONTEXTS);
    let mut rxs = Vec::with_capacity(rx_count);
    let mut sp = None;
    for i in 0..rx_count {
        let ctx = fabric.create_context().expect("create receiver context");
        let (r, t, c) = (Arc::clone(&received), Arc::clone(&target), caller.clone());
        ctx.register_handler("bench", move |_| {
            let t0 = (!work.is_zero()).then(Instant::now);
            while t0.is_some_and(|t0| t0.elapsed() < work) {
                std::hint::spin_loop();
            }
            let n = r.fetch_add(1, Ordering::AcqRel) + 1;
            if n >= t.load(Ordering::Acquire) {
                c.unpark();
            }
        });
        // Receiver i owns links/rx_count endpoints (the remainder goes to
        // the early contexts), all merged into one multicast startpoint.
        // Startpoints are bound by the endpoint's owner; any context may
        // then send through them.
        for _ in 0..links / rx_count + usize::from(i < links % rx_count) {
            let s = ctx
                .startpoint_to(ctx.create_endpoint())
                .expect("bind sweep endpoint");
            match &mut sp {
                None => sp = Some(s),
                Some(acc) => acc.merge(&s),
            }
        }
        rxs.push(ctx);
    }
    let sp = sp.expect("at least one link");
    // Cross-context in-process traffic rides the shmem queue (`local` is
    // same-context only); pin it so selection noise can't shift rows.
    sp.set_method(MethodId::SHMEM);
    let pool = (workers > 0).then(|| {
        let pool = WorkerPool::new(workers);
        let adopted: usize = rxs.iter().map(|ctx| pool.adopt(ctx)).sum();
        assert!(
            adopted >= rx_count,
            "adopted {adopted} of {rx_count} sources"
        );
        pool
    });
    let data = payload(16);
    let teardown = Teardown(fabric, pool);
    let mut expected = 0_u64;
    Box::new(move |n| {
        // The batch is pipelined: every call is issued before the drain
        // wait, keeping the service side saturated. While it is in flight
        // the target is parked at MAX, so deliveries never wake the caller;
        // it drops to the real count once the caller waits.
        target.store(u64::MAX, Ordering::Release);
        for _ in 0..n {
            tx.rsr(&sp, "bench", Buffer::from_bytes(data.clone()))
                .expect("rsr");
            expected += links as u64;
        }
        if teardown.1.is_none() {
            while received.load(Ordering::Relaxed) < expected {
                for ctx in &rxs {
                    ctx.progress().expect("progress");
                }
            }
            return;
        }
        // Deliveries run on the pool; park until the fan-out drains (an
        // unpark that comes first makes the next park return at once).
        target.store(expected, Ordering::Release);
        while received.load(Ordering::Acquire) < expected {
            std::thread::park_timeout(Duration::from_millis(1));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::check;

    fn idle_row(idle: usize, ratio: f64) -> Row {
        Row::new(&key(1, 16, idle), Some(ratio), 0.0)
    }

    #[test]
    fn smoke_run_produces_full_matrix() {
        let t = table();
        assert_eq!(
            t.cases.len(),
            6 + 3 + 1 + 1,
            "2x3 matrix, 3 idle rows, the inline fan-out, the fair row"
        );
        // One op and one reference batch of every shape, the pool's included.
        for case in [&t.cases[0], &t.cases[8], &t.cases[9], &t.cases[10]] {
            let (mut row, mut reference) = (case.build)();
            row(2);
            reference(2);
        }
        assert_eq!(t.cases[8].key, "links=1 payload=16 idle=4096 workers=0");
        assert_eq!(t.cases[9].key, "links=4096 payload=16 idle=0 workers=0");
        assert_eq!(t.cases[10].key, FAIR_KEY);
        assert!(t.cases[..10]
            .iter()
            .all(|c| c.reference.starts_with("bare-queue")));
    }

    #[test]
    fn the_fair_row_is_not_judged_on_one_cpu() {
        let t = table();
        let one = crate::harness::runnable(&t.cases, 1);
        assert_eq!(one.len(), t.cases.len() - 1);
        assert!(one.iter().all(|c| c.key != FAIR_KEY));
        assert_eq!(crate::harness::runnable(&t.cases, 2).len(), t.cases.len());
    }

    #[test]
    fn json_roundtrip_through_parser() {
        crate::harness::assert_roundtrips(&table());
    }

    #[test]
    fn check_flags_ns_regression_only_beyond_tolerance() {
        // The fair row is gated like every other row, at +25 %.
        crate::harness::assert_gates(&table(), FAIR_KEY, &key(1, 16, 0));
        crate::harness::assert_gates(&table(), &key(4096, 16, 0), FAIR_KEY);
    }

    #[test]
    fn check_flags_alloc_regression_and_ignores_unknown_scenarios() {
        crate::harness::assert_gates(&table(), &key(1, 16, 0), &key(8, 16, 0));
    }

    #[test]
    fn check_fails_a_4096_idle_row_past_twice_the_same_runs_1_idle_row() {
        let base = [idle_row(1, 10.0), idle_row(4096, 20.0)];
        // Ratios within the baseline's tolerance: only the same-run
        // flatness can fail.
        let run = |many| check(&[idle_row(1, 6.0), idle_row(4096, many)], &base, flatness);
        assert!(run(12.0).failures.is_empty(), "2.0x is within");
        let fails = run(12.6).failures;
        assert_eq!(fails.len(), 1, "2.1x fails: {fails:?}");
        assert!(fails[0].contains("idle=4096"));
        assert_eq!(flatness(&base[..1]), Ok(String::new()), "not judged");
    }
}
