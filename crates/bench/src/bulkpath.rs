//! Eager/rendezvous bulk-path benchmark (`--bin bulkpath`).
//!
//! The Mercury-style bulk protocol (core::bulk) claims that past a
//! per-link cutoff, shipping a small pull handle and letting the
//! receiver fetch the body beats copying it inline — and that over
//! region-mapping methods the fetch is zero-copy. This harness measures
//! the four paths that bracket those claims, sweeping payload size:
//!
//! * **inline** — `Context::rsr_bulk` with the all-eager default: the
//!   body rides the RSR over a copying wire. The baseline whose cost
//!   grows with every inlined byte.
//! * **pull-map** — `rsr_bulk` with cutoff 0 over a region-mapping rail
//!   (shmem-class): a `#bulk` announce, a `#bulk-get`, and an in-place
//!   borrow of the registered region. No per-byte copy anywhere, which
//!   the binary also asserts via the runtime's body-encode counter.
//! * **pull-wire** — the same rendezvous over copying rails (TCP-class):
//!   the region streams back as pipelined chunks striped across every
//!   rail by the pull engine.
//! * **stripe-raw** — plain `Context::rsr` over the same copying rails
//!   with `set_striped`: the raw striped-transfer floor that pull-wire's
//!   control overhead is gated against (within 25 % at 4 MiB).
//!
//! The measured **knees** — the smallest swept payloads where each pull
//! path beats inline — are recorded in the emitted JSON, with the CPUs the
//! run had. The mapped pull shows a genuine knee (its constant control
//! cost crosses inline's per-byte copy within a few tens of KiB), while
//! the wire pull typically does not: its chunk-and-reassemble copy is
//! never repaid by an in-process "wire" that costs nothing. The analytic
//! model in `nexus-simnet`'s `bulk` module pins the wire knee against the
//! paper's calibrated wire constants instead.

use crate::patterns::CopyWire;
use crate::report::{self, Gate};
use crate::rsrpath::Json;
use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{Context, ContextInfo, Fabric};
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::Result as NexusResult;
use nexus_rt::module::{CommModule, CommObject, CommReceiver};
use nexus_transports::queue::{QueueDescriptor, QueueMedium, QueueObject, QueueReceiver};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stripe cutoff installed for the `stripe-raw` baseline (same value the
/// `patterns` suite uses, so the floors are comparable).
pub const CUTOFF: usize = 2048;

/// Batches per scenario; ns/op is the fastest batch (deterministic work,
/// so the minimum estimates true cost — see `rsrpath`).
const MIN_OF_BATCHES: u32 = 8;

/// The four measured paths, in sweep order.
pub const SCENARIOS: [&str; 4] = ["inline", "pull-map", "pull-wire", "stripe-raw"];

/// Benchmark configuration: iteration counts and the scenario matrix.
#[derive(Debug, Clone)]
pub struct Config {
    /// Timed iterations per scenario at the smallest payload (scaled
    /// down as payloads grow).
    pub iters: u32,
    /// Untimed warm-up iterations per scenario.
    pub warmup: u32,
    /// Payload sizes in bytes.
    pub payloads: Vec<usize>,
    /// Rail counts swept for the wire scenarios (`pull-wire` and
    /// `stripe-raw`; `inline` and `pull-map` are single-link paths).
    pub link_counts: Vec<usize>,
}

impl Config {
    /// The full matrix the checked-in numbers use.
    pub fn full() -> Self {
        Config {
            iters: 2_000,
            warmup: 100,
            payloads: vec![1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304],
            link_counts: vec![1, 2, 4],
        }
    }

    /// A fast CI-friendly run over a reduced payload sweep.
    pub fn smoke() -> Self {
        Config {
            iters: 320,
            warmup: 24,
            payloads: vec![4_096, 262_144, 4_194_304],
            link_counts: vec![1, 4],
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

    /// Rail counts applicable to `scenario`.
    fn links_for(&self, scenario: &str) -> Vec<usize> {
        match scenario {
            "inline" | "pull-map" => vec![1],
            _ => self.link_counts.clone(),
        }
    }
}

/// One measured scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Path name (one of [`SCENARIOS`]).
    pub scenario: String,
    /// Rail count the wire scenarios spread over (1 for the single-link
    /// paths).
    pub links: usize,
    /// Payload bytes per op.
    pub payload: usize,
    /// Nanoseconds per op (send + pull protocol + dispatch).
    pub ns_per_op: f64,
    /// Global-allocator calls per op.
    pub allocs_per_op: f64,
}

impl Scenario {
    fn key(&self) -> (&str, usize, usize) {
        (self.scenario.as_str(), self.links, self.payload)
    }

    /// Cost per payload byte implied by ns/op.
    pub fn ns_per_byte(&self) -> f64 {
        if self.payload == 0 {
            return 0.0;
        }
        self.ns_per_op / self.payload as f64
    }
}

/// A queue-backed rail, either **mapping** (connect returns the raw
/// in-process queue object, `supports_region_map() == true`, so bulk
/// pulls borrow the region in place — the shmem stand-in) or **copying**
/// (wrapped in [`CopyWire`], one memcpy per byte per hop and no region
/// map — the wire stand-in).
struct RailModule {
    method: MethodId,
    rank: u32,
    medium: Arc<QueueMedium>,
    mapping: bool,
}

impl RailModule {
    fn new(i: usize, mapping: bool) -> Self {
        RailModule {
            method: MethodId(0x300 + i as u16),
            rank: 10 + i as u32,
            medium: Arc::new(QueueMedium::new()),
            mapping,
        }
    }
}

impl CommModule for RailModule {
    fn method(&self) -> MethodId {
        self.method
    }

    fn name(&self) -> &'static str {
        "bench-bulk-rail"
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
        if self.mapping {
            Ok(inner)
        } else {
            Ok(Arc::new(CopyWire { inner }))
        }
    }

    fn poll_cost_ns(&self) -> u64 {
        100
    }
}

/// Per-scenario fixture: a sender, a receiver draining into a delivery
/// counter, and both contexts pumped together (the pull protocol needs
/// progress on the origin to service `#bulk-get`).
struct Fixture {
    fabric: Fabric,
    tx: Arc<Context>,
    rx: Arc<Context>,
    sp: nexus_rt::startpoint::Startpoint,
    received: Arc<AtomicU64>,
}

impl Fixture {
    fn new(rails: usize, mapping: bool) -> Fixture {
        let fabric = Fabric::new();
        for i in 0..rails {
            fabric
                .registry()
                .register(Arc::new(RailModule::new(i, mapping)));
        }
        let tx = fabric.create_context().expect("create sender");
        let rx = fabric.create_context().expect("create receiver");
        let received = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&received);
        rx.register_handler("bench", move |_| {
            r.fetch_add(1, Ordering::Relaxed);
        });
        let sp = rx
            .startpoint_to(rx.create_endpoint())
            .expect("bind endpoint");
        Fixture {
            fabric,
            tx,
            rx,
            sp,
            received,
        }
    }

    fn drain_to(&self, expected: u64) {
        while self.received.load(Ordering::Relaxed) < expected {
            self.rx.progress().expect("rx progress");
            self.tx.progress().expect("tx progress");
        }
    }
}

/// Runs one (scenario, links, payload) cell and reports min-of-batches
/// ns/op plus mean allocs/op. `alloc_count` reads the process-wide
/// allocation counter (the binary's counting global allocator).
fn run_scenario(
    scenario: &str,
    links: usize,
    payload: usize,
    iters: u32,
    warmup: u32,
    alloc_count: &dyn Fn() -> u64,
) -> Scenario {
    let fx = match scenario {
        // All-eager default: rsr_bulk degenerates to the inline path.
        "inline" => Fixture::new(links, false),
        "pull-map" => {
            let f = Fixture::new(links, true);
            f.tx.set_rendezvous(&f.sp, 0);
            f
        }
        "pull-wire" => {
            let f = Fixture::new(links, false);
            f.tx.set_rendezvous(&f.sp, 0);
            f
        }
        "stripe-raw" => {
            let f = Fixture::new(links, false);
            if links >= 2 {
                f.tx.set_striped(&f.sp, CUTOFF).expect("install stripe");
            }
            f
        }
        other => panic!("unknown scenario {other}"),
    };
    let data = Bytes::from((0..payload).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let mut expected = 0_u64;
    let mut pump = |n: u32| {
        for _ in 0..n {
            if scenario == "stripe-raw" {
                fx.tx
                    .rsr(&fx.sp, "bench", Buffer::from_bytes(data.clone()))
                    .expect("rsr");
            } else {
                fx.tx
                    .rsr_bulk(&fx.sp, "bench", Buffer::from_bytes(data.clone()))
                    .expect("rsr_bulk");
            }
            expected += 1;
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
    assert_eq!(fx.tx.bulk_regions(), 0, "regions must drain");
    assert_eq!(fx.rx.bulk_pulls_pending(), 0, "pulls must drain");
    fx.fabric.shutdown();
    Scenario {
        scenario: scenario.to_owned(),
        links,
        payload,
        ns_per_op: best_ns,
        allocs_per_op: allocs as f64 / f64::from(MIN_OF_BATCHES * per_batch),
    }
}

/// Runs the whole scenario × links × payload matrix.
pub fn run(cfg: &Config, alloc_count: &dyn Fn() -> u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for scenario in SCENARIOS {
        for links in cfg.links_for(scenario) {
            for &payload in &cfg.payloads {
                out.push(run_scenario(
                    scenario,
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

/// The measured rendezvous knee for one pull scenario: the smallest
/// swept payload at which the 1-rail pull is no slower than the inline
/// send. `None` when the pull never catches up inside the sweep — the
/// usual outcome for `pull-wire`, whose chunk-and-reassemble copy is never
/// won back against an in-process "wire" that costs nothing (the analytic
/// model in nexus-simnet pins that knee against real wire constants
/// instead).
pub fn knee_bytes(rows: &[Scenario], pull: &str) -> Option<usize> {
    let mut knee: Option<usize> = None;
    for p in rows.iter().filter(|r| r.key().0 == pull && r.links == 1) {
        let Some(e) = rows.iter().find(|r| r.key() == ("inline", 1, p.payload)) else {
            continue;
        };
        if p.ns_per_op <= e.ns_per_op {
            knee = Some(knee.map_or(p.payload, |k: usize| k.min(p.payload)));
        }
    }
    knee
}

/// One knee line for `pull`, for the table footer and the JSON note.
fn knee_line(rows: &[Scenario], pull: &str) -> String {
    match knee_bytes(rows, pull) {
        Some(k) => format!("{pull} knee vs inline: {k} B"),
        None => format!("{pull} knee vs inline: beyond the swept payloads"),
    }
}

/// Formats the scenario table.
pub fn format(rows: &[Scenario]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|s| {
            vec![
                s.scenario.clone(),
                s.links.to_string(),
                s.payload.to_string(),
                format!("{:.0}", s.ns_per_op),
                format!("{:.3}", s.ns_per_byte()),
                format!("{:.1}", s.allocs_per_op),
            ]
        })
        .collect();
    let knee = format!(
        "measured rendezvous knees (1 rail): {}; {}",
        knee_line(rows, "pull-map"),
        knee_line(rows, "pull-wire")
    );
    format!(
        "eager/rendezvous bulk paths over in-process queue rails\n{}\n{knee}",
        report::table(
            &[
                "scenario",
                "rails",
                "payload B",
                "ns/op",
                "ns/byte",
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
                "    {{\"scenario\": \"{}\", \"links\": {}, \"payload\": {}, \"ns_per_op\": {:.1}, \"allocs_per_op\": {:.1}}}",
                s.scenario, s.links, s.payload, s.ns_per_op, s.allocs_per_op
            )
        })
        .collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// The document the `bulkpath` binary writes.
pub fn document_json(rows: &[Scenario]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let note = format!(
        "{}; {}; measured with {cpus} available CPU(s)",
        knee_line(rows, "pull-map"),
        knee_line(rows, "pull-wire")
    );
    format!(
        "{{\n  \"schema\": \"nexus-bulk-v1\",\n  \"note\": \"{note}\",\n  \"results\": {}\n}}\n",
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
        let scenario = match item.get("scenario")? {
            Json::Str(s) => s.clone(),
            _ => return None,
        };
        out.push(Scenario {
            scenario,
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
                cur.scenario,
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
                cur.scenario,
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

    fn s(scenario: &str, links: usize, payload: usize, ns: f64, allocs: f64) -> Scenario {
        Scenario {
            scenario: scenario.to_owned(),
            links,
            payload,
            ns_per_op: ns,
            allocs_per_op: allocs,
        }
    }

    #[test]
    fn smoke_run_covers_every_scenario() {
        let cfg = Config {
            iters: 24,
            warmup: 4,
            payloads: vec![4_096, 65_536],
            link_counts: vec![1, 2],
        };
        let rows = run(&cfg, &|| 0);
        // inline and pull-map run 1 rail only; the wire pair sweep both.
        assert_eq!(rows.len(), 2 * 2 + 2 * 2 * 2);
        assert!(rows.iter().all(|r| r.ns_per_op > 0.0));
        for sc in SCENARIOS {
            assert!(rows.iter().any(|r| r.scenario == sc));
        }
        let t = format(&rows);
        assert!(t.contains("pull-map"));
        assert!(t.contains("rendezvous knee"));
    }

    #[test]
    fn knee_is_the_smallest_winning_pull_payload() {
        let rows = vec![
            s("inline", 1, 4_096, 1_000.0, 0.0),
            s("inline", 1, 65_536, 20_000.0, 0.0),
            s("inline", 1, 262_144, 90_000.0, 0.0),
            s("pull-wire", 1, 4_096, 5_000.0, 0.0),
            s("pull-wire", 1, 65_536, 18_000.0, 0.0),
            s("pull-wire", 1, 262_144, 40_000.0, 0.0),
        ];
        assert_eq!(knee_bytes(&rows, "pull-wire"), Some(65_536));
        // A pull that never wins yields no knee.
        let never = vec![
            s("inline", 1, 4_096, 1_000.0, 0.0),
            s("pull-wire", 1, 4_096, 5_000.0, 0.0),
        ];
        assert_eq!(knee_bytes(&never, "pull-wire"), None);
        assert_eq!(knee_bytes(&never, "pull-map"), None);
    }

    #[test]
    fn json_roundtrip_through_parser() {
        let rows = vec![
            s("pull-map", 1, 4_194_304, 7_000.0, 0.0),
            s("pull-wire", 4, 4_194_304, 9.5e6, 12.0),
        ];
        let doc = document_json(&rows);
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(
            parsed.get("schema"),
            Some(&Json::Str("nexus-bulk-v1".to_owned()))
        );
        let back = scenarios_from(&parsed, "results").unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].scenario, "pull-map");
        assert_eq!(back[1].links, 4);
        assert!((back[1].ns_per_op - 9.5e6).abs() < 1e-3);
    }

    #[test]
    fn check_gates_ns_and_allocs_per_scenario() {
        let base = vec![s("pull-wire", 2, 4096, 10_000.0, 4.0)];
        assert!(
            check(&[s("pull-wire", 2, 4096, 12_000.0, 4.0)], &base, 0.25)
                .failures
                .is_empty()
        );
        let ns_fail = check(&[s("pull-wire", 2, 4096, 13_000.0, 4.0)], &base, 0.25).failures;
        assert_eq!(ns_fail.len(), 1);
        assert!(ns_fail[0].contains("ns/op"));
        let alloc_fail = check(&[s("pull-wire", 2, 4096, 9_000.0, 30.0)], &base, 0.25).failures;
        assert_eq!(alloc_fail.len(), 1);
        assert!(alloc_fail[0].contains("allocs/op"));
        // Different scenario at the same shape is a different cell.
        let unknown = check(&[s("inline", 2, 4096, 9e9, 9e9)], &base, 0.25);
        assert!(unknown.failures.is_empty());
        assert_eq!(unknown.matched, 0);
    }
}
