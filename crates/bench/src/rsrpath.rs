//! RSR data-path latency/allocation microbenchmark (`--bin rsrpath`).
//!
//! The paper's evaluation (Table 1, Fig. 4) is ultimately about
//! per-message overhead, and §5 credits a lean buffer-management path.
//! This harness measures exactly that: the full local-queue round trip of
//! one `Context::rsr` call — encode, enqueue, unified poll, decode,
//! dispatch — in nanoseconds and allocator calls per RSR, across payload
//! sizes and multicast widths. The `rsrpath` binary wires in a counting
//! global allocator and emits/validates `BENCH_rsr.json`, giving the repo
//! a tracked perf trajectory with a CI regression gate.

use crate::report::{self, Gate};
use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::Fabric;
use nexus_rt::descriptor::MethodId;
use nexus_transports::register_queue_modules;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Benchmark configuration: iteration counts and the scenario matrix.
#[derive(Debug, Clone)]
pub struct Config {
    /// Timed iterations per scenario (scaled down for large payloads).
    pub iters: u32,
    /// Untimed warm-up iterations per scenario.
    pub warmup: u32,
    /// Payload sizes in bytes.
    pub payloads: Vec<usize>,
    /// Multicast widths (links per startpoint).
    pub link_counts: Vec<usize>,
    /// Source-count sweep: extra scenarios at links=1, payload=16 with
    /// this many *idle* readiness-armed sources registered alongside the
    /// hot local link. The readiness tier's O(ready) claim is exactly
    /// that these rows stay flat as the count grows.
    pub idle_sweep: Vec<usize>,
    /// Many-link worker sweep: `(links, workers)` scenarios at payload 16.
    /// `workers = 0` is the inline baseline (deliveries drained by
    /// `progress()` on the calling thread); `workers > 0` hands every
    /// armed source to a `core::shard::WorkerPool` of that size and the
    /// caller only waits on the dispatch counter. The sharded engine's
    /// claim is that ns/RSR stays flat-or-better as workers grow at high
    /// link counts.
    pub worker_sweep: Vec<(usize, usize)>,
    /// Timed iterations for worker-sweep rows: each call fans out `links`
    /// deliveries, so these rows run far fewer iterations than the base
    /// matrix.
    pub worker_iters: u32,
}

impl Config {
    /// The full matrix the checked-in numbers use.
    pub fn full() -> Self {
        Config {
            iters: 30_000,
            warmup: 2_000,
            payloads: vec![16, 4096, 262_144],
            link_counts: vec![1, 8],
            idle_sweep: vec![1, 64, 4096],
            worker_sweep: vec![(4096, 0), (4096, 1), (4096, 2), (4096, 4)],
            worker_iters: 192,
        }
    }

    /// A fast CI-friendly run over the same matrix.
    pub fn smoke() -> Self {
        Config {
            iters: 2_000,
            warmup: 200,
            payloads: vec![16, 4096, 262_144],
            link_counts: vec![1, 8],
            idle_sweep: vec![1, 64, 4096],
            worker_sweep: vec![(4096, 0), (4096, 1), (4096, 2), (4096, 4)],
            worker_iters: 48,
        }
    }

    /// Iterations for one payload size: large payloads run fewer timed
    /// iterations so the 256 KiB rows don't dominate wall-clock.
    fn iters_for(&self, payload: usize) -> u32 {
        if payload >= 65_536 {
            (self.iters / 10).max(200)
        } else {
            self.iters
        }
    }
}

/// Batches per scenario; the reported ns/RSR is the fastest batch (see
/// `run_scenario`).
const MIN_OF_BATCHES: u32 = 8;

/// One measured scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Multicast width (links on the startpoint).
    pub links: usize,
    /// Payload size in bytes.
    pub payload: usize,
    /// Idle readiness-armed sources registered alongside the hot link
    /// (0 for the base matrix).
    pub idle_sources: usize,
    /// Shard workers draining the sources (0 = inline `progress()` on the
    /// calling thread, the base matrix).
    pub workers: usize,
    /// Nanoseconds per `Context::rsr` call, including delivery+dispatch of
    /// every link's copy on the local queue.
    pub ns_per_rsr: f64,
    /// Global-allocator calls (alloc/realloc/alloc_zeroed) per `rsr` call.
    pub allocs_per_rsr: f64,
}

impl Scenario {
    fn key(&self) -> (usize, usize, usize, usize) {
        (self.links, self.payload, self.idle_sources, self.workers)
    }
}

/// Runs one scenario: a single context multicasting to `links` of its own
/// endpoints over the `local` queue method, draining each call before the
/// next so the queue never grows. `idle_sources` extra readiness-armed
/// in-process sources are registered but never sent to — their doorbells
/// stay silent, so the O(ready) engine must not spend time on them.
/// `alloc_count` reads the process-wide allocation counter (the binary's
/// counting global allocator).
fn run_scenario(
    links: usize,
    payload: usize,
    idle_sources: usize,
    iters: u32,
    warmup: u32,
    alloc_count: &dyn Fn() -> u64,
) -> Scenario {
    let fabric = Fabric::new();
    // Queue modules only: sockets would put µs of readiness-scan syscalls
    // in every poll pass and drown the data-path signal being measured.
    register_queue_modules(&fabric);
    for i in 0..idle_sources {
        fabric.registry().register(Arc::new(
            nexus_rt::module::test_support::TestModule::new(
                MethodId(0x100 + i as u16),
                "idle-ready",
                1_000,
                false,
            )
            .with_readiness(),
        ));
    }
    let ctx = fabric.create_context().expect("create bench context");
    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    ctx.register_handler("bench", move |_| {
        r.fetch_add(1, Ordering::Relaxed);
    });
    let mut sp = ctx
        .startpoint_to(ctx.create_endpoint())
        .expect("bind startpoint");
    for _ in 1..links {
        sp.merge(
            &ctx.startpoint_to(ctx.create_endpoint())
                .expect("bind extra endpoint"),
        );
    }
    sp.set_method(MethodId::LOCAL);

    let data = Bytes::from(vec![0x5a_u8; payload]);
    let mut expected = 0_u64;
    let mut pump = |n: u32| {
        for _ in 0..n {
            ctx.rsr(&sp, "bench", Buffer::from_bytes(data.clone()))
                .expect("rsr");
            expected += links as u64;
            while received.load(Ordering::Relaxed) < expected {
                ctx.progress().expect("progress");
            }
        }
    };
    pump(warmup);
    // Latency is reported as the best of several batches: per-RSR cost is
    // deterministic, so the minimum estimates the true cost while the mean
    // would absorb scheduler preemptions and whatever else shares the
    // machine. Allocations *are* deterministic per call, so those are
    // averaged over every timed iteration.
    let batches = MIN_OF_BATCHES;
    let per_batch = (iters / batches).max(1);
    let allocs0 = alloc_count();
    let mut best_ns = f64::INFINITY;
    for _ in 0..batches {
        let t0 = Instant::now();
        pump(per_batch);
        let ns = t0.elapsed().as_nanos() as f64 / f64::from(per_batch);
        best_ns = best_ns.min(ns);
    }
    let allocs = alloc_count() - allocs0;
    fabric.shutdown();
    Scenario {
        links,
        payload,
        idle_sources,
        workers: 0,
        ns_per_rsr: best_ns,
        allocs_per_rsr: allocs as f64 / f64::from(batches * per_batch),
    }
}

/// How many receiver contexts the many-link worker sweep spreads its
/// links across. The queue modules register one shared inbox per context,
/// so contexts — not endpoints — are the unit of sharding: 64 sources
/// give a worker pool real parallelism to divide while a single context
/// would serialize every delivery through one slot.
const SWEEP_RX_CONTEXTS: usize = 64;

/// Runs one many-link worker-sweep scenario: a sender context multicasts
/// to `links` endpoints spread over [`SWEEP_RX_CONTEXTS`] receiver
/// contexts, all of whose readiness-armed sources are adopted by ONE
/// shared `WorkerPool` of `workers` threads (`workers = 0` keeps
/// deliveries inline: the caller round-robins `progress()` over the
/// receivers). The reported ns/RSR covers the full fan-out: one `rsr`
/// call plus delivery+dispatch of every link's copy.
fn run_many_link_scenario(
    links: usize,
    workers: usize,
    iters: u32,
    warmup: u32,
    alloc_count: &dyn Fn() -> u64,
) -> Scenario {
    use nexus_rt::shard::WorkerPool;

    let payload = 16_usize;
    let fabric = Fabric::new();
    register_queue_modules(&fabric);
    let tx = fabric.create_context().expect("create sender context");
    let received = Arc::new(AtomicU64::new(0));
    // Completion doorbell for the worker rows: the caller blocks here
    // instead of spinning, so it never competes with the workers for
    // cores (decisive on small machines). `target` is the delivery count
    // the caller is currently waiting for.
    let target = Arc::new(AtomicU64::new(u64::MAX));
    let done = Arc::new((std::sync::Mutex::new(()), std::sync::Condvar::new()));
    let rx_count = links.min(SWEEP_RX_CONTEXTS);
    let mut rxs = Vec::with_capacity(rx_count);
    let mut sp = None;
    for i in 0..rx_count {
        let ctx = fabric.create_context().expect("create receiver context");
        let r = Arc::clone(&received);
        let t = Arc::clone(&target);
        let d = Arc::clone(&done);
        ctx.register_handler("bench", move |_| {
            let n = r.fetch_add(1, Ordering::AcqRel) + 1;
            if n >= t.load(Ordering::Acquire) {
                let (lock, cv) = &*d;
                let _guard = lock.lock().unwrap_or_else(|p| p.into_inner());
                cv.notify_one();
            }
        });
        // Receiver i owns links/rx_count endpoints (the remainder goes to
        // the early contexts), all merged into one multicast startpoint.
        // Startpoints are bound by the endpoint's owner; any context may
        // then send through them.
        let eps = links / rx_count + usize::from(i < links % rx_count);
        for _ in 0..eps {
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

    let pool = if workers > 0 {
        let pool = WorkerPool::new(workers);
        let mut adopted = 0;
        for ctx in &rxs {
            adopted += pool.adopt(ctx);
        }
        assert!(
            adopted >= rx_count,
            "pool adopted {adopted} sources across {rx_count} receiver contexts"
        );
        Some(pool)
    } else {
        None
    };

    let data = Bytes::from(vec![0x5a_u8; payload]);
    let mut expected = 0_u64;
    let mut pump = |n: u32| {
        // The batch is pipelined: every call is issued before the drain
        // wait, keeping the service side saturated. An isolated rsr on an
        // idle pool would only measure park/unpark latency; a sharded
        // engine's job is sustained service rate under many-link load,
        // and ns/RSR here is that amortized cost.
        // While the batch is in flight the completion target is parked at
        // MAX so in-flight deliveries never take the notify lock; it is
        // lowered to the real count only once the caller starts waiting.
        target.store(u64::MAX, Ordering::Release);
        for _ in 0..n {
            tx.rsr(&sp, "bench", Buffer::from_bytes(data.clone()))
                .expect("rsr");
            expected += links as u64;
        }
        if workers > 0 {
            // Deliveries run on the shard workers; block until the
            // fan-out drains (timeout-bounded: a notify racing the
            // park costs one period — and a batch fully drained before
            // the store below never notifies at all, which the
            // pre-check of `received` before each wait absorbs).
            target.store(expected, Ordering::Release);
            let (lock, cv) = &*done;
            while received.load(Ordering::Acquire) < expected {
                let guard = lock.lock().unwrap_or_else(|p| p.into_inner());
                if received.load(Ordering::Acquire) >= expected {
                    break;
                }
                let _unused = cv
                    .wait_timeout(guard, std::time::Duration::from_millis(1))
                    .unwrap_or_else(|p| p.into_inner());
            }
        } else {
            while received.load(Ordering::Relaxed) < expected {
                for ctx in &rxs {
                    ctx.progress().expect("progress");
                }
            }
        }
    };
    pump(warmup);
    let batches = MIN_OF_BATCHES;
    let per_batch = (iters / batches).max(1);
    let allocs0 = alloc_count();
    let mut best_ns = f64::INFINITY;
    for _ in 0..batches {
        let t0 = Instant::now();
        pump(per_batch);
        let ns = t0.elapsed().as_nanos() as f64 / f64::from(per_batch);
        best_ns = best_ns.min(ns);
    }
    let allocs = alloc_count() - allocs0;
    if let Some(pool) = pool {
        if std::env::var_os("RSRPATH_SHARD_STATS").is_some() {
            eprintln!("workers={workers} shard_stats={:?}", pool.shard_stats());
        }
        pool.shutdown();
    }
    fabric.shutdown();
    Scenario {
        links,
        payload,
        idle_sources: 0,
        workers,
        ns_per_rsr: best_ns,
        allocs_per_rsr: allocs as f64 / f64::from(batches * per_batch),
    }
}

/// Runs the whole scenario matrix, then the idle-source sweep (links=1,
/// payload=16, growing counts of silent readiness-armed sources), then
/// the many-link worker sweep (payload 16, shard workers draining the
/// fan-out).
pub fn run(cfg: &Config, alloc_count: &dyn Fn() -> u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for &links in &cfg.link_counts {
        for &payload in &cfg.payloads {
            out.push(run_scenario(
                links,
                payload,
                0,
                cfg.iters_for(payload),
                cfg.warmup,
                alloc_count,
            ));
        }
    }
    for &idle in &cfg.idle_sweep {
        out.push(run_scenario(
            1,
            16,
            idle,
            cfg.iters_for(16),
            cfg.warmup,
            alloc_count,
        ));
    }
    for &(links, workers) in &cfg.worker_sweep {
        out.push(run_many_link_scenario(
            links,
            workers,
            cfg.worker_iters,
            (cfg.worker_iters / 4).max(8),
            alloc_count,
        ));
    }
    out
}

/// Formats the scenario table.
pub fn format(rows: &[Scenario]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|s| {
            vec![
                s.links.to_string(),
                s.payload.to_string(),
                s.idle_sources.to_string(),
                s.workers.to_string(),
                format!("{:.0}", s.ns_per_rsr),
                format!("{:.1}", s.allocs_per_rsr),
            ]
        })
        .collect();
    format!(
        "local-queue RSR round trip (send + poll + dispatch), per rsr() call\n{}",
        report::table(
            &[
                "links",
                "payload B",
                "idle srcs",
                "workers",
                "ns/RSR",
                "allocs/RSR"
            ],
            &body
        )
    )
}

/// Serializes scenarios as a JSON array (stable field order).
pub fn results_json(rows: &[Scenario]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|s| {
            format!(
                "    {{\"links\": {}, \"payload\": {}, \"idle_sources\": {}, \"workers\": {}, \"ns_per_rsr\": {:.1}, \"allocs_per_rsr\": {:.1}}}",
                s.links, s.payload, s.idle_sources, s.workers, s.ns_per_rsr, s.allocs_per_rsr
            )
        })
        .collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// The document the `rsrpath` binary writes: current results plus, when
/// a tracked baseline was given, the baseline's before/after history.
pub fn document_json(rows: &[Scenario]) -> String {
    format!(
        "{{\n  \"schema\": \"nexus-rsrpath-v1\",\n  \"results\": {}\n}}\n",
        results_json(rows)
    )
}

// ---------------------------------------------------------------------------
// Minimal JSON reader for the tracked baseline file
// ---------------------------------------------------------------------------

/// A parsed JSON value (the subset `BENCH_rsr.json` uses).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
    /// Array.
    Arr(Vec<Json>),
    /// String.
    Str(String),
    /// Number.
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document (objects, arrays, strings without exotic
/// escapes, numbers, booleans, null — the subset our tracked files use).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut m = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {}", *pos)),
                };
                expect(b, pos, b':')?;
                m.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut a = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(a));
            }
            loop {
                a.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(a));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let start = *pos;
            while *pos < b.len() && b[*pos] != b'"' {
                if b[*pos] == b'\\' {
                    return Err(format!("escapes unsupported at byte {}", *pos));
                }
                *pos += 1;
            }
            if *pos >= b.len() {
                return Err("unterminated string".to_owned());
            }
            let s = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| "invalid UTF-8 in string".to_owned())?
                .to_owned();
            *pos += 1;
            Ok(Json::Str(s))
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_owned())?;
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{s}' at byte {start}"))
        }
        None => Err("unexpected end of input".to_owned()),
    }
}

/// Extracts the scenario array under `key` from a tracked document.
pub fn scenarios_from(doc: &Json, key: &str) -> Option<Vec<Scenario>> {
    let arr = match doc.get(key)? {
        Json::Arr(a) => a,
        _ => return None,
    };
    let mut out = Vec::new();
    for item in arr {
        out.push(Scenario {
            links: item.get("links")?.num()? as usize,
            payload: item.get("payload")?.num()? as usize,
            // Absent in documents written before the idle-source sweep.
            idle_sources: item.get("idle_sources").and_then(Json::num).unwrap_or(0.0) as usize,
            // Absent in documents written before the worker sweep.
            workers: item.get("workers").and_then(Json::num).unwrap_or(0.0) as usize,
            ns_per_rsr: item.get("ns_per_rsr")?.num()?,
            allocs_per_rsr: item.get("allocs_per_rsr")?.num()?,
        });
    }
    Some(out)
}

/// Most the `idle_sources = 4096` row's ns/RSR may be, as a multiple of
/// the `idle_sources = 1` row's: O(ready) means silent armed sources add
/// nothing to a pass.
const FLAT_LIMIT: f64 = 2.0;

/// The poll engine's O(ready) flatness, judged within one run (so no
/// baseline drift can hide it): the 4096-idle-source row within
/// [`FLAT_LIMIT`] × the 1-idle-source row. A run without both rows is not
/// judged.
fn flatness(rows: &[Scenario]) -> Option<String> {
    let idle = |n| rows.iter().find(|r| r.links == 1 && r.idle_sources == n);
    let (one, many) = (idle(1)?, idle(4096)?);
    (many.ns_per_rsr > FLAT_LIMIT * one.ns_per_rsr).then(|| {
        format!(
            "idle=4096: ns/RSR {:.0} exceeds {FLAT_LIMIT}x the same run's idle=1 row ({:.0})",
            many.ns_per_rsr, one.ns_per_rsr
        )
    })
}

/// Compares `current` against a tracked baseline ("after" block of
/// `BENCH_rsr.json`). Returns one message per regression: ns/RSR more than
/// `ns_tolerance` (e.g. 0.25 = +25 %) above baseline, or allocs/RSR
/// meaningfully above the pinned budget — plus the same-run O(ready)
/// flatness check (idle=4096 within 2× idle=1). Scenarios absent from the baseline are ignored (new rows are not
/// regressions) and not counted as matched.
pub fn check(current: &[Scenario], baseline: &[Scenario], ns_tolerance: f64) -> Gate {
    let mut failures = Vec::new();
    let mut matched = 0;
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.key() == cur.key()) else {
            continue;
        };
        matched += 1;
        let ns_limit = base.ns_per_rsr * (1.0 + ns_tolerance);
        if cur.ns_per_rsr > ns_limit {
            failures.push(format!(
                "links={} payload={} idle={} workers={}: ns/RSR {:.0} exceeds baseline {:.0} by \
                 more than {:.0} % (limit {:.0})",
                cur.links,
                cur.payload,
                cur.idle_sources,
                cur.workers,
                cur.ns_per_rsr,
                base.ns_per_rsr,
                ns_tolerance * 100.0,
                ns_limit
            ));
        }
        // Allocation counts are near-deterministic; allow slack for the
        // handful of amortized container growths outside the steady state.
        let alloc_limit = base.allocs_per_rsr * 1.25 + 2.0;
        if cur.allocs_per_rsr > alloc_limit {
            failures.push(format!(
                "links={} payload={} idle={} workers={}: allocs/RSR {:.1} exceeds baseline {:.1} \
                 (limit {:.1})",
                cur.links,
                cur.payload,
                cur.idle_sources,
                cur.workers,
                cur.allocs_per_rsr,
                base.allocs_per_rsr,
                alloc_limit
            ));
        }
    }
    failures.extend(flatness(current));
    Gate { matched, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(links: usize, payload: usize, ns: f64, allocs: f64) -> Scenario {
        Scenario {
            links,
            payload,
            idle_sources: 0,
            workers: 0,
            ns_per_rsr: ns,
            allocs_per_rsr: allocs,
        }
    }

    #[test]
    fn smoke_run_produces_full_matrix() {
        let cfg = Config {
            iters: 50,
            warmup: 10,
            payloads: vec![16, 4096],
            link_counts: vec![1, 4],
            idle_sweep: vec![8],
            worker_sweep: vec![(16, 0), (16, 2)],
            worker_iters: 16,
        };
        let rows = run(&cfg, &|| 0);
        assert_eq!(
            rows.len(),
            7,
            "2x2 matrix + one idle-sweep row + two worker rows"
        );
        assert!(rows.iter().all(|r| r.ns_per_rsr > 0.0));
        let sweep = &rows[4];
        assert_eq!((sweep.links, sweep.payload, sweep.idle_sources), (1, 16, 8));
        let sharded = rows.last().unwrap();
        assert_eq!((sharded.links, sharded.workers), (16, 2));
        let t = format(&rows);
        assert!(t.contains("ns/RSR"));
        assert!(t.contains("idle srcs"));
        assert!(t.contains("workers"));
    }

    #[test]
    fn old_documents_without_idle_sources_parse_as_zero() {
        let doc = "{\"results\": [\n    {\"links\": 1, \"payload\": 16, \
                   \"ns_per_rsr\": 900.0, \"allocs_per_rsr\": 2.0}\n  ]}";
        let parsed = parse_json(doc).unwrap();
        let rows = scenarios_from(&parsed, "results").unwrap();
        assert_eq!(rows[0].idle_sources, 0);
        assert_eq!(rows[0].workers, 0);
    }

    #[test]
    fn json_roundtrip_through_parser() {
        let rows = vec![s(1, 16, 850.0, 12.0), s(8, 4096, 5200.5, 40.0)];
        let doc = document_json(&rows);
        let parsed = parse_json(&doc).unwrap();
        let back = scenarios_from(&parsed, "results").unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].links, 1);
        assert_eq!(back[1].payload, 4096);
        assert!((back[1].ns_per_rsr - 5200.5).abs() < 1e-9);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn check_flags_ns_regression_only_beyond_tolerance() {
        let base = vec![s(1, 16, 1000.0, 10.0)];
        assert!(check(&[s(1, 16, 1200.0, 10.0)], &base, 0.25)
            .failures
            .is_empty());
        let fails = check(&[s(1, 16, 1300.0, 10.0)], &base, 0.25).failures;
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("ns/RSR"));
    }

    #[test]
    fn check_flags_alloc_regression_and_ignores_unknown_scenarios() {
        let base = vec![s(1, 16, 1000.0, 4.0)];
        let fails = check(&[s(1, 16, 900.0, 30.0)], &base, 0.25).failures;
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("allocs/RSR"));
        let unknown = check(&[s(8, 16, 9e9, 9e9)], &base, 0.25);
        assert!(unknown.failures.is_empty());
        assert_eq!(unknown.matched, 0);
        assert!(unknown.verdict("BENCH_rsr.json", 0.25).is_err());
    }

    #[test]
    fn check_fails_a_4096_idle_row_past_twice_the_same_runs_1_idle_row() {
        let idle = |n, ns| Scenario {
            idle_sources: n,
            ..s(1, 16, ns, 0.0)
        };
        let base = [idle(1, 1000.0), idle(4096, 1000.0)];
        // A loose baseline tolerance: only the same-run ratio can fail.
        let run = |many| check(&[idle(1, 600.0), idle(4096, many)], &base, 10.0);
        assert!(run(1_200.0).failures.is_empty(), "2.0x is within");
        let fails = run(1_260.0).failures;
        assert_eq!(fails.len(), 1, "2.1x fails: {fails:?}");
        assert!(fails[0].contains("idle=4096"));
    }
}
