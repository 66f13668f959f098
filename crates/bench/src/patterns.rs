//! CommBench-style collective pattern suite (`--bin patterns`).
//!
//! The striped bulk path (core::stripe) claims that one logical transfer
//! can ride several method-heterogeneous links at once. This harness
//! measures the three canonical multi-link usage patterns over in-process
//! queue rails, sweeping rail/link count and payload size:
//!
//! * **rail** — one destination, `links` parallel rails (one queue method
//!   per rail), one `Context::rsr` per op carried by `set_striped` across
//!   every rail at once. The aggregate-bandwidth pattern.
//! * **fan** — `links` destinations, the payload split into one
//!   contiguous piece per link by [`Context::scatter`], each piece
//!   travelling whole over the single cheapest method. The distribution
//!   pattern.
//! * **striped-scatter** — fan's split combined with rail's striping:
//!   every scattered piece is itself striped across the rails of its
//!   link (pieces below the stripe cutoff pass through whole, so at
//!   small payloads this pattern deliberately degenerates to fan).
//!
//! Every pattern moves exactly `payload` bytes per op, so ns/op is
//! directly comparable across patterns at a given (links, payload) cell.
//! The `patterns` binary wires in a counting global allocator and
//! emits/validates `BENCH_stripe.json` with the same min-of-batches
//! estimator and CI gate as `rsrpath`.

use crate::report::{self, Gate};
use crate::rsrpath::Json;
use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{Context, ContextInfo, Fabric};
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::Result as NexusResult;
use nexus_rt::module::{CommModule, CommObject, CommReceiver, Staged};
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::trace::Trace;
use nexus_transports::queue::{QueueDescriptor, QueueMedium, QueueObject, QueueReceiver};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stripe cutoff installed by the rail/striped-scatter patterns: low
/// enough that every payload in the matrix stripes on the rail pattern,
/// while scattered pieces below it show the cutoff's whole-message
/// bypass exactly as production traffic would.
pub const CUTOFF: usize = 2048;

/// Batches per scenario; ns/op is the fastest batch (deterministic work,
/// so the minimum estimates true cost — see `rsrpath`).
const MIN_OF_BATCHES: u32 = 8;

/// Benchmark configuration: iteration counts and the scenario matrix.
#[derive(Debug, Clone)]
pub struct Config {
    /// Timed iterations per scenario at the smallest payload (scaled
    /// down as payloads grow).
    pub iters: u32,
    /// Untimed warm-up iterations per scenario.
    pub warmup: u32,
    /// Payload sizes in bytes (total bytes moved per op, all patterns).
    pub payloads: Vec<usize>,
    /// Rail/link counts swept for every pattern.
    pub link_counts: Vec<usize>,
}

impl Config {
    /// The full matrix the checked-in numbers use.
    pub fn full() -> Self {
        Config {
            iters: 2_000,
            warmup: 100,
            payloads: vec![4_096, 65_536, 262_144, 1_048_576, 4_194_304],
            link_counts: vec![1, 2, 4, 8],
        }
    }

    /// A fast CI-friendly run over a reduced payload sweep.
    pub fn smoke() -> Self {
        Config {
            iters: 320,
            warmup: 24,
            payloads: vec![4_096, 262_144, 4_194_304],
            link_counts: vec![1, 2, 4, 8],
        }
    }

    /// Iterations for one payload size: large payloads copy megabytes
    /// per op, so they run far fewer timed iterations.
    fn iters_for(&self, payload: usize) -> u32 {
        if payload >= 1 << 20 {
            (self.iters / 40).max(24)
        } else if payload >= 1 << 16 {
            (self.iters / 8).max(40)
        } else {
            self.iters
        }
    }
}

/// The three patterns, in sweep order.
pub const PATTERNS: [&str; 3] = ["rail", "fan", "striped-scatter"];

/// One measured scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Pattern name (one of [`PATTERNS`]).
    pub pattern: String,
    /// Rail count (rail pattern) or destination-link count (fan,
    /// striped-scatter — which also stripes each link over this many
    /// rails).
    pub links: usize,
    /// Total bytes moved per op.
    pub payload: usize,
    /// Nanoseconds per op (send + delivery + dispatch of every piece).
    pub ns_per_op: f64,
    /// Global-allocator calls per op.
    pub allocs_per_op: f64,
}

impl Scenario {
    fn key(&self) -> (&str, usize, usize) {
        (self.pattern.as_str(), self.links, self.payload)
    }

    /// Effective goodput in MiB/s implied by ns/op.
    pub fn mib_per_s(&self) -> f64 {
        if self.ns_per_op <= 0.0 {
            return 0.0;
        }
        (self.payload as f64 / (1 << 20) as f64) / (self.ns_per_op / 1e9)
    }
}

/// A queue-backed rail: identical to the shmem queue transport but with
/// its own method id and medium, so registering `n` of them gives a link
/// `n` genuinely distinct methods for the stripe planner to spread over.
struct RailModule {
    method: MethodId,
    rank: u32,
    medium: Arc<QueueMedium>,
}

impl RailModule {
    fn new(i: usize) -> Self {
        RailModule {
            method: MethodId(0x200 + i as u16),
            // Distinct ranks keep single-method selection deterministic
            // (the fan pattern always rides rail 0).
            rank: 10 + i as u32,
            medium: Arc::new(QueueMedium::new()),
        }
    }
}

impl CommModule for RailModule {
    fn method(&self) -> MethodId {
        self.method
    }

    fn name(&self) -> &'static str {
        "bench-rail"
    }

    fn cost_rank(&self) -> u32 {
        self.rank
    }

    fn open(&self, ctx: &ContextInfo) -> NexusResult<(CommDescriptor, Box<dyn CommReceiver>)> {
        let desc = QueueDescriptor::encode(self.method, ctx);
        let rx = QueueReceiver::new(Arc::clone(&self.medium), ctx.id);
        Ok((desc, Box::new(rx)))
    }

    fn applicable(&self, _local: &ContextInfo, desc: &CommDescriptor) -> bool {
        desc.method == self.method
    }

    fn connect(
        &self,
        _local: &ContextInfo,
        desc: &CommDescriptor,
    ) -> NexusResult<Arc<dyn CommObject>> {
        let d = QueueDescriptor::decode(desc)?;
        let inner = QueueObject::connect(self.method, &self.medium, d.context)?;
        Ok(Arc::new(CopyWire { inner }))
    }

    fn poll_cost_ns(&self) -> u64 {
        100
    }
}

/// Imposes exactly one copy per byte per hop on the otherwise zero-copy
/// in-process queue: a plain send splices the payload through a pooled
/// buffer, and a headed one (a stripe chunk) passes through to the
/// queue's own single-copy head++payload combine. Without this,
/// whole-message patterns move `Bytes` handles for free while striped
/// chunks pay real memcpy, and the rail-vs-fan comparison would be
/// meaningless at large payloads.
pub(crate) struct CopyWire {
    pub(crate) inner: Arc<dyn CommObject>,
}

impl CommObject for CopyWire {
    fn method(&self) -> MethodId {
        self.inner.method()
    }

    fn transfer(
        &self,
        rsr: &Rsr,
        frame: &WireFrame,
        head: &[u8],
        _stage: Option<&Trace>,
    ) -> NexusResult<Staged> {
        if !head.is_empty() {
            return self.inner.transfer(rsr, frame, head, None);
        }
        let mut buf = nexus_rt::pool::take(rsr.payload.len());
        buf.extend_from_slice(&rsr.payload);
        let copy = Rsr {
            dest: rsr.dest,
            endpoint: rsr.endpoint,
            handler: rsr.handler.clone(),
            payload: buf.freeze(),
            ttl: rsr.ttl,
        };
        self.inner.transfer(&copy, frame, &[], None)
    }
}

/// Per-scenario fixture: a sender, a receiver draining into a delivery
/// counter, and a startpoint shaped for the pattern.
struct Fixture {
    fabric: Fabric,
    tx: Arc<Context>,
    rx: Arc<Context>,
    sp: nexus_rt::startpoint::Startpoint,
    received: Arc<AtomicU64>,
    /// Deliveries one op produces (1 for rail, `links` for the scatters).
    per_op: u64,
}

impl Fixture {
    /// Builds the fixture: `rails` queue modules, `endpoints` receiver
    /// endpoints merged into one startpoint, optionally striped.
    fn new(rails: usize, endpoints: usize, striped: bool) -> Fixture {
        let fabric = Fabric::new();
        for i in 0..rails {
            fabric.registry().register(Arc::new(RailModule::new(i)));
        }
        let tx = fabric.create_context().expect("create sender");
        let rx = fabric.create_context().expect("create receiver");
        let received = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&received);
        rx.register_handler("bench", move |_| {
            r.fetch_add(1, Ordering::Relaxed);
        });
        let mut sp: Option<nexus_rt::startpoint::Startpoint> = None;
        for _ in 0..endpoints {
            let s = rx
                .startpoint_to(rx.create_endpoint())
                .expect("bind endpoint");
            match &mut sp {
                None => sp = Some(s),
                Some(acc) => acc.merge(&s),
            }
        }
        let sp = sp.expect("at least one endpoint");
        if striped {
            // With a single rail there is nothing to stripe over and
            // set_striped correctly declines; the link then rides the
            // one queue method whole, which is the honest 1-rail row.
            let n = tx.set_striped(&sp, CUTOFF).expect("install stripe");
            assert!(
                rails < 2 || n == endpoints,
                "striped {n} of {endpoints} links"
            );
        }
        Fixture {
            fabric,
            tx,
            rx,
            sp,
            received,
            per_op: endpoints as u64,
        }
    }

    fn drain_to(&self, expected: u64) {
        while self.received.load(Ordering::Relaxed) < expected {
            self.rx.progress().expect("progress");
        }
    }
}

/// Runs one (pattern, links, payload) scenario and reports min-of-batches
/// ns/op plus mean allocs/op. `alloc_count` reads the process-wide
/// allocation counter (the binary's counting global allocator).
fn run_scenario(
    pattern: &str,
    links: usize,
    payload: usize,
    iters: u32,
    warmup: u32,
    alloc_count: &dyn Fn() -> u64,
) -> Scenario {
    // rail: `links` rails into ONE endpoint, striped. fan: one rail,
    // `links` endpoints, plain scatter. striped-scatter: `links` rails
    // AND `links` endpoints, each piece striped over every rail.
    let fx = match pattern {
        "rail" => Fixture::new(links, 1, true),
        "fan" => Fixture::new(1, links, false),
        "striped-scatter" => Fixture::new(links, links, true),
        other => panic!("unknown pattern {other}"),
    };
    let data = Bytes::from((0..payload).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let mut expected = 0_u64;
    let mut pump = |n: u32| {
        for _ in 0..n {
            if pattern == "rail" {
                fx.tx
                    .rsr(&fx.sp, "bench", Buffer::from_bytes(data.clone()))
                    .expect("rsr");
            } else {
                fx.tx
                    .scatter(&fx.sp, "bench", Buffer::from_bytes(data.clone()))
                    .expect("scatter");
            }
            expected += fx.per_op;
            fx.drain_to(expected);
        }
    };
    pump(warmup);
    let per_batch = (iters / MIN_OF_BATCHES).max(1);
    let allocs0 = alloc_count();
    let mut best_ns = f64::INFINITY;
    for _ in 0..MIN_OF_BATCHES {
        let t0 = Instant::now();
        pump(per_batch);
        let ns = t0.elapsed().as_nanos() as f64 / f64::from(per_batch);
        best_ns = best_ns.min(ns);
    }
    let allocs = alloc_count() - allocs0;
    fx.fabric.shutdown();
    Scenario {
        pattern: pattern.to_owned(),
        links,
        payload,
        ns_per_op: best_ns,
        allocs_per_op: allocs as f64 / f64::from(MIN_OF_BATCHES * per_batch),
    }
}

/// Runs the whole pattern × links × payload matrix.
pub fn run(cfg: &Config, alloc_count: &dyn Fn() -> u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for pattern in PATTERNS {
        for &links in &cfg.link_counts {
            for &payload in &cfg.payloads {
                out.push(run_scenario(
                    pattern,
                    links,
                    payload,
                    cfg.iters_for(payload),
                    cfg.warmup,
                    alloc_count,
                ));
            }
        }
    }
    out
}

/// Formats the scenario table.
pub fn format(rows: &[Scenario]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|s| {
            vec![
                s.pattern.clone(),
                s.links.to_string(),
                s.payload.to_string(),
                format!("{:.0}", s.ns_per_op),
                format!("{:.0}", s.mib_per_s()),
                format!("{:.1}", s.allocs_per_op),
            ]
        })
        .collect();
    format!(
        "collective patterns over in-process queue rails (payload bytes moved per op)\n{}",
        report::table(
            &[
                "pattern",
                "links",
                "payload B",
                "ns/op",
                "MiB/s",
                "allocs/op"
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
                "    {{\"pattern\": \"{}\", \"links\": {}, \"payload\": {}, \"ns_per_op\": {:.1}, \"allocs_per_op\": {:.1}}}",
                s.pattern, s.links, s.payload, s.ns_per_op, s.allocs_per_op
            )
        })
        .collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// The document the `patterns` binary writes.
pub fn document_json(rows: &[Scenario]) -> String {
    format!(
        "{{\n  \"schema\": \"nexus-stripe-v1\",\n  \"results\": {}\n}}\n",
        results_json(rows)
    )
}

/// Extracts the scenario array under `key` from a tracked document
/// (parsed with [`crate::rsrpath::parse_json`]).
pub fn scenarios_from(doc: &Json, key: &str) -> Option<Vec<Scenario>> {
    let arr = match doc.get(key)? {
        Json::Arr(a) => a,
        _ => return None,
    };
    let mut out = Vec::new();
    for item in arr {
        let pattern = match item.get("pattern")? {
            Json::Str(s) => s.clone(),
            _ => return None,
        };
        out.push(Scenario {
            pattern,
            links: item.get("links")?.num()? as usize,
            payload: item.get("payload")?.num()? as usize,
            ns_per_op: item.get("ns_per_op")?.num()?,
            allocs_per_op: item.get("allocs_per_op")?.num()?,
        });
    }
    Some(out)
}

/// Compares `current` against the tracked baseline. Returns one message
/// per regression: ns/op more than `ns_tolerance` above baseline, or
/// allocs/op meaningfully above the pinned budget. Scenarios absent from
/// the baseline are ignored (new rows are not regressions) and not counted
/// as matched.
pub fn check(current: &[Scenario], baseline: &[Scenario], ns_tolerance: f64) -> Gate {
    let mut failures = Vec::new();
    let mut matched = 0;
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.key() == cur.key()) else {
            continue;
        };
        matched += 1;
        let ns_limit = base.ns_per_op * (1.0 + ns_tolerance);
        if cur.ns_per_op > ns_limit {
            failures.push(format!(
                "{} links={} payload={}: ns/op {:.0} exceeds baseline {:.0} by more than \
                 {:.0} % (limit {:.0})",
                cur.pattern,
                cur.links,
                cur.payload,
                cur.ns_per_op,
                base.ns_per_op,
                ns_tolerance * 100.0,
                ns_limit
            ));
        }
        let alloc_limit = base.allocs_per_op * 1.25 + 2.0;
        if cur.allocs_per_op > alloc_limit {
            failures.push(format!(
                "{} links={} payload={}: allocs/op {:.1} exceeds baseline {:.1} (limit {:.1})",
                cur.pattern,
                cur.links,
                cur.payload,
                cur.allocs_per_op,
                base.allocs_per_op,
                alloc_limit
            ));
        }
    }
    Gate { matched, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsrpath::parse_json;

    fn s(pattern: &str, links: usize, payload: usize, ns: f64, allocs: f64) -> Scenario {
        Scenario {
            pattern: pattern.to_owned(),
            links,
            payload,
            ns_per_op: ns,
            allocs_per_op: allocs,
        }
    }

    #[test]
    fn smoke_run_covers_every_pattern() {
        let cfg = Config {
            iters: 24,
            warmup: 4,
            payloads: vec![4_096, 65_536],
            link_counts: vec![1, 2],
        };
        let rows = run(&cfg, &|| 0);
        assert_eq!(rows.len(), 3 * 2 * 2);
        assert!(rows.iter().all(|r| r.ns_per_op > 0.0));
        for p in PATTERNS {
            assert!(rows.iter().any(|r| r.pattern == p));
        }
        let t = format(&rows);
        assert!(t.contains("striped-scatter"));
        assert!(t.contains("MiB/s"));
    }

    #[test]
    fn json_roundtrip_through_parser() {
        let rows = vec![
            s("rail", 4, 65_536, 20_000.0, 0.0),
            s("striped-scatter", 8, 4_194_304, 9.5e6, 12.0),
        ];
        let doc = document_json(&rows);
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(
            parsed.get("schema"),
            Some(&Json::Str("nexus-stripe-v1".to_owned()))
        );
        let back = scenarios_from(&parsed, "results").unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].pattern, "rail");
        assert_eq!(back[1].payload, 4_194_304);
        assert!((back[1].ns_per_op - 9.5e6).abs() < 1e-3);
    }

    #[test]
    fn check_gates_ns_and_allocs_per_pattern() {
        let base = vec![s("rail", 2, 4096, 10_000.0, 4.0)];
        assert!(check(&[s("rail", 2, 4096, 12_000.0, 4.0)], &base, 0.25)
            .failures
            .is_empty());
        let ns_fail = check(&[s("rail", 2, 4096, 13_000.0, 4.0)], &base, 0.25).failures;
        assert_eq!(ns_fail.len(), 1);
        assert!(ns_fail[0].contains("ns/op"));
        let alloc_fail = check(&[s("rail", 2, 4096, 9_000.0, 30.0)], &base, 0.25).failures;
        assert_eq!(alloc_fail.len(), 1);
        assert!(alloc_fail[0].contains("allocs/op"));
        // Different pattern at the same shape is a different scenario.
        let unknown = check(&[s("fan", 2, 4096, 9e9, 9e9)], &base, 0.25);
        assert!(unknown.failures.is_empty());
        assert_eq!(unknown.matched, 0);
    }
}
