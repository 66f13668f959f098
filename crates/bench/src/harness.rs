//! The one program behind the three tracked regression gates: `cargo run
//! --release -p nexus-bench --bin gate -- rsr|stripe|bulk [--smoke]
//! [--json PATH] [--check PATH]` runs one file's table (`--smoke`: fewer
//! batch pairs), writes the rows as a tracked document, and gates them
//! against a tracked `BENCH_*.json`.
//!
//! Each tracked file has a scenario table ([`crate::rsrpath`],
//! [`crate::patterns`], [`crate::bulkpath`]): per row a key, the fixture
//! and op it times, and the reference it divides by. As in the paper's
//! Fig. 4, each row is judged against the layer below it measured the
//! same way and *beside* it: one loop alternates a batch of the row with
//! a batch of its reference (A B A B …), the reference batch sized to the
//! row batch's wall time, and the row's figure is the median of the
//! per-batch ratios. A host that slows down part-way slows both halves of
//! a pair alike, so the ratio keeps what the code costs. Allocator calls
//! per op are deterministic and stay absolute ([`CountingAlloc`]).

use crate::report::Gate;
use crate::{bulkpath, patterns, rsrpath};
use bytes::Bytes;
use nexus_rt::buffer::Buffer;
use nexus_rt::context::{Context, ContextInfo, Fabric};
use nexus_rt::descriptor::{CommDescriptor, MethodId};
use nexus_rt::error::Result as NexusResult;
use nexus_rt::module::{CommModule, CommObject, CommReceiver, Staged};
use nexus_rt::rsr::{Rsr, WireFrame};
use nexus_rt::shard::WorkerPool;
use nexus_rt::startpoint::Startpoint;
use nexus_rt::trace::Trace;
use nexus_transports::queue::{QueueDescriptor, QueueMedium, QueueObject, QueueReceiver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How far a row's ratio may rise above its baseline ratio before the
/// gate fails (0.25 = +25 %).
pub(crate) const TOLERANCE: f64 = 0.25;

/// Allocator calls per op a row may exceed its baseline by (after the
/// same relative tolerance): below one, so a single new allocation per op
/// fails the gate.
const ALLOC_SLACK: f64 = 0.5;

/// Batch pairs per row in a `--smoke` run and in a full run.
const SMOKE_PAIRS: usize = 15;
const FULL_PAIRS: usize = 60;

/// Row batches, after the timed pairs, over which allocs/op is counted.
const ALLOC_BATCHES: u32 = 4;

/// Wall time one row batch aims at, in ns.
const BATCH_NS: f64 = 2e6;

/// Stripe cutoff for every striped fixture: low enough that each payload
/// in the tables stripes over two or more rails, so the stripe and bulk
/// tables' floors are the same path.
const CUTOFF: usize = 2048;

/// Global-allocator calls observed so far (alloc + realloc + alloc_zeroed).
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator that counts allocation calls, so the gate can
/// report allocs/op without instrumenting the runtime. The `gate` binary
/// installs it; without it every count reads 0.
pub struct CountingAlloc;

// SAFETY: every method delegates to `System`, which satisfies the
// GlobalAlloc contract; the counter update has no effect on the memory
// returned or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwarded verbatim to `System.alloc` under the caller's
    // layout guarantees.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwarded verbatim to `System.dealloc`; `ptr` came from this
    // allocator, which always returns `System` pointers.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded verbatim to `System.realloc` under the caller's
    // layout guarantees.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwarded verbatim to `System.alloc_zeroed` under the
    // caller's layout guarantees.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

/// Runs `n` ops of one timed path and returns once every one completed.
pub(crate) type Pump = Box<dyn FnMut(u32)>;

/// One gated row: its key, its reference's label, and a constructor for the
/// row's and the reference's pumps (built only when the row runs).
pub(crate) struct Case {
    /// Row key, as written in the tracked file.
    pub key: String,
    /// What the row divides by.
    pub reference: String,
    /// The row times threads running side by side: on a host with one
    /// CPU it is not measured, and not judged.
    pub parallel: bool,
    /// Builds `(row, reference)`.
    pub build: Box<dyn Fn() -> (Pump, Pump)>,
}

/// A tracked file's scenario table.
pub(crate) struct Table {
    /// The tracked file's `note`: what each row divides by, what the ratio
    /// cannot see, and where speed claims belong.
    pub note: &'static str,
    /// The rows, in run order.
    pub cases: Vec<Case>,
    /// A check within one run: `Ok` with a line to print, or `Err` with
    /// the failure (which fails the gate).
    pub same_run: fn(&[Row]) -> Result<String, String>,
}

/// One measured (or tracked) row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    /// Row key.
    pub key: String,
    /// Median per-batch ratio to the reference; `None` when no reference
    /// batch ran.
    pub ratio: Option<f64>,
    /// Global-allocator calls per op of the row.
    pub allocs_per_op: f64,
}

impl Row {
    pub(crate) fn new(key: &str, ratio: Option<f64>, allocs_per_op: f64) -> Row {
        Row {
            key: key.to_owned(),
            ratio,
            allocs_per_op,
        }
    }
}

/// The median of `v`, or `None` when it is empty.
fn median(mut v: Vec<f64>) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (n > 0).then(|| (v[(n - 1) / 2] + v[n / 2]) / 2.0)
}

/// The gate's estimator: the median of the per-batch ratios over the
/// `(row ns/op, reference ns/op)` pairs whose reference ran.
pub(crate) fn estimate(pairs: &[(f64, f64)]) -> Option<f64> {
    median(
        pairs
            .iter()
            .filter(|&&(_, r)| r > 0.0 && r.is_finite())
            .map(|&(a, r)| a / r)
            .collect(),
    )
}

fn time_ns(pump: &mut Pump, n: u32) -> f64 {
    let t0 = Instant::now();
    pump(n);
    t0.elapsed().as_nanos() as f64
}

/// Ops in a batch of `pump` that lasts about `target` ns, from the
/// fastest per-op time seen while doubling the batch up to half the
/// target (so one preempted step cannot shrink it). The first op
/// (connects, lazy state) is not timed; the doubling warms the path.
fn ops_for(pump: &mut Pump, target: f64) -> u32 {
    pump(1);
    let (mut n, mut best) = (1_u32, f64::INFINITY);
    loop {
        best = best.min(time_ns(pump, n) / f64::from(n));
        if f64::from(n) * best >= target / 2.0 || n >= 1 << 24 {
            return ((target / best.max(1.0)).round() as u32).max(1);
        }
        n *= 2;
    }
}

/// Measures one case, `pairs` interleaved batch pairs, and prints its line.
fn measure(case: &Case, pairs: usize) -> Row {
    let (mut row, mut reference) = (case.build)();
    let n_row = ops_for(&mut row, BATCH_NS);
    let row_batch = time_ns(&mut row, n_row);
    let n_ref = ops_for(&mut reference, row_batch);
    let mut samples = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let t_row = time_ns(&mut row, n_row);
        let t_ref = time_ns(&mut reference, n_ref);
        samples.push((t_row / f64::from(n_row), t_ref / f64::from(n_ref)));
    }
    // Allocations are counted over row batches run back to back: the
    // reference shares the thread's buffer pool, and its batches in
    // between would change which takes find pooled storage.
    let a0 = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..ALLOC_BATCHES {
        row(n_row);
    }
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - a0;
    let allocs_per_op = allocs as f64 / f64::from(ALLOC_BATCHES * n_row);
    let out = Row::new(&case.key, estimate(&samples), allocs_per_op);
    let ns = |pick: fn(&(f64, f64)) -> f64| median(samples.iter().map(pick).collect());
    println!(
        "{:<52} {:<36} {:>11.0} {:>11.0} {:>10.4} {:>9.2}",
        case.key,
        case.reference,
        ns(|s| s.0).unwrap_or(0.0),
        ns(|s| s.1).unwrap_or(0.0),
        out.ratio.unwrap_or(f64::NAN),
        out.allocs_per_op
    );
    out
}

/// Why `cur` fails against its tracked row `base`: its ratio is more than
/// [`TOLERANCE`] above the baseline's, it has no ratio (its reference did
/// not run), or its allocs/op exceed the baseline's budget.
fn judge(cur: &Row, base: &Row) -> Vec<String> {
    let mut failures = Vec::new();
    match (cur.ratio, base.ratio) {
        (Some(r), Some(b)) if r > b * (1.0 + TOLERANCE) => failures.push(format!(
            "{}: ratio {r:.4} exceeds baseline {b:.4} by more than {:.0} % (limit {:.4})",
            cur.key,
            TOLERANCE * 100.0,
            b * (1.0 + TOLERANCE)
        )),
        (Some(_), Some(_)) => {}
        _ => failures.push(format!(
            "{}: no ratio to judge (its reference did not run)",
            cur.key
        )),
    }
    let alloc_limit = base.allocs_per_op * (1.0 + TOLERANCE) + ALLOC_SLACK;
    if cur.allocs_per_op > alloc_limit {
        failures.push(format!(
            "{}: allocs/op {:.2} exceeds baseline {:.2} (limit {alloc_limit:.2})",
            cur.key, cur.allocs_per_op, base.allocs_per_op
        ));
    }
    failures
}

/// Gates `current` against `baseline`: every row that has a tracked row
/// is [judged](judge), and the table's same-run check fails the gate too.
/// Rows absent from the baseline are neither judged nor counted as
/// matched.
pub(crate) fn check(
    current: &[Row],
    baseline: &[Row],
    same_run: fn(&[Row]) -> Result<String, String>,
) -> Gate {
    let mut gate = Gate::default();
    for cur in current {
        if let Some(base) = baseline.iter().find(|b| b.key == cur.key) {
            gate.matched += 1;
            gate.failures.extend(judge(cur, base));
        }
    }
    gate.failures.extend(same_run(current).err());
    gate
}

/// Serializes `rows` under `note` (which must hold no `"` or `\`), with
/// the CPUs the run had.
pub(crate) fn document(note: &str, rows: &[Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            let ratio = r.ratio.map_or("null".to_owned(), |x| format!("{x:.6}"));
            format!(
                "    {{\"row\": \"{}\", \"ratio\": {ratio}, \"allocs_per_op\": {:.2}}}",
                r.key, r.allocs_per_op
            )
        })
        .collect();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\n  \"schema\": \"nexus-gate-v1\",\n  \"cpus\": {cpus},\n  \"note\": \"{note}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        items.join(",\n")
    )
}

/// Reads back the rows [`document`] wrote: every `{"row": …, "ratio": …,
/// "allocs_per_op": …}` object after `"results"`. Fails on a row that
/// lacks a field or whose key is not a string or whose figures are not
/// numbers, so a damaged baseline never gates by accident (and one with
/// no rows matches nothing, which fails the gate).
pub(crate) fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let (_, results) = text.split_once("\"results\"").ok_or("no \"results\"")?;
    results
        .split('{')
        .skip(1)
        .map(|item| {
            let (obj, _) = item.split_once('}').ok_or("unterminated row")?;
            let field = |name: &str| {
                let (_, rest) = obj
                    .split_once(&format!("\"{name}\":"))
                    .ok_or(format!("a row without \"{name}\": {obj}"))?;
                Ok::<_, String>(rest.split(',').next().unwrap_or("").trim())
            };
            let num = |name: &str| {
                let v = field(name)?;
                v.parse::<f64>()
                    .map_err(|_| format!("\"{name}\" is not a number: {v}"))
            };
            let key = field("row")?;
            let key = (key.len() > 1 && key.starts_with('"') && key.ends_with('"'))
                .then(|| &key[1..key.len() - 1])
                .ok_or(format!("\"row\" is not a string: {key}"))?;
            Ok(Row::new(key, Some(num("ratio")?), num("allocs_per_op")?))
        })
        .collect()
}

/// The gate's command line.
struct Args {
    table: String,
    smoke: bool,
    json: Option<String>,
    check: Option<String>,
}

const USAGE: &str = "usage: gate rsr|stripe|bulk [--smoke] [--json PATH] [--check PATH]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut table, mut smoke, mut json, mut check) = (None, false, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut path = || it.next().cloned().ok_or(format!("{arg} needs a path"));
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => json = Some(path()?),
            "--check" => check = Some(path()?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name if table.is_none() => table = Some(name.to_owned()),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    let table = table.ok_or("no table named")?;
    Ok(Args {
        table,
        smoke,
        json,
        check,
    })
}

/// The cases a host with `cpus` CPUs measures. A parallel row on one CPU
/// has nothing to run side by side: it is skipped and printed as not
/// judged, so the check neither matches nor judges it.
pub(crate) fn runnable(cases: &[Case], cpus: usize) -> Vec<&Case> {
    let (run, skip): (Vec<&Case>, _) = cases.iter().partition(|c| !c.parallel || cpus > 1);
    for c in skip {
        println!("{:<52} not judged (1 CPU)", c.key);
    }
    run
}

/// Reads the tracked rows at `path`.
fn read_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_rows(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `gate` binary: returns the process exit code (0 pass, 1 a failed
/// gate, 2 a usage or I/O error).
pub fn main(args: &[String]) -> i32 {
    let parsed = parse_args(args).and_then(|a| {
        let t = match a.table.as_str() {
            "rsr" => rsrpath::table(),
            "stripe" => patterns::table(),
            "bulk" => bulkpath::table(),
            other => return Err(format!("unknown table {other}")),
        };
        let baseline = a.check.as_deref().map(read_rows).transpose()?;
        Ok((a, t, baseline))
    });
    let (args, table, baseline) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let pairs = if args.smoke { SMOKE_PAIRS } else { FULL_PAIRS };
    println!(
        "{:<52} {:<36} {:>11} {:>11} {:>10} {:>9}",
        "row", "reference", "row ns/op", "ref ns/op", "ratio", "allocs/op"
    );
    // The CPUs this process may run on, its affinity mask included.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cases = runnable(&table.cases, cpus);
    let mut rows: Vec<Row> = cases.iter().map(|c| measure(c, pairs)).collect();
    // A row that fails is measured once more, from a fresh fixture, and
    // judged by that measurement: a host stall that outlasts one row's
    // whole loop moves that row once, while a regression moves it again.
    for (row, case) in rows.iter_mut().zip(cases) {
        let base = baseline.iter().flatten().find(|b| b.key == row.key);
        if base.is_some_and(|b| !judge(row, b).is_empty()) {
            println!("{}: failed; measuring it once more", row.key);
            *row = measure(case, pairs);
        }
    }
    match (table.same_run)(&rows) {
        Ok(line) if line.is_empty() => {}
        Ok(line) | Err(line) => println!("{line}"),
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, document(table.note, &rows)) {
            eprintln!("writing {path}: {e}");
            return 2;
        }
        println!("wrote {path}");
    }
    let (Some(path), Some(baseline)) = (&args.check, &baseline) else {
        return 0;
    };
    match check(&rows, baseline, table.same_run).verdict(path, TOLERANCE) {
        Ok(ok) => {
            println!("{ok}");
            0
        }
        Err(lines) => {
            for line in &lines {
                eprintln!("{line}");
            }
            1
        }
    }
}

/// Shuts a fixture's fabric down (its worker pool first) when the pump
/// that owns it is dropped.
pub(crate) struct Teardown(pub(crate) Fabric, pub(crate) Option<WorkerPool>);

impl Drop for Teardown {
    fn drop(&mut self) {
        if let Some(pool) = self.1.take() {
            pool.shutdown();
        }
        self.0.shutdown();
    }
}

/// Registers the `bench` handler on `ctx`: it counts deliveries.
pub(crate) fn counted(ctx: &Context) -> Arc<AtomicU64> {
    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    ctx.register_handler("bench", move |_| {
        r.fetch_add(1, Ordering::Relaxed);
    });
    received
}

/// The payload every table sends: `len` bytes of a fixed pattern.
pub(crate) fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

/// A queue-backed rail: the in-process queue transport under its own
/// method id and medium, so `n` of them give a link `n` distinct methods
/// to stripe over. A **mapping** rail connects to the raw queue object
/// (`supports_region_map`, so bulk pulls borrow the region in place: the
/// shmem stand-in); a copying one wraps it in [`CopyWire`] (one copy per
/// byte per hop, no region map: the wire stand-in).
struct Rail {
    method: MethodId,
    rank: u32,
    medium: Arc<QueueMedium>,
    mapping: bool,
}

impl CommModule for Rail {
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

/// Imposes exactly one copy per byte per hop on the otherwise zero-copy
/// in-process queue: a plain send splices the payload through a pooled
/// buffer, and a headed one (a stripe chunk) passes through to the
/// queue's own single-copy head++payload combine. Without this,
/// whole-message paths move `Bytes` handles for free while striped
/// chunks pay real memcpy, and no row could be compared with another.
struct CopyWire {
    inner: Arc<dyn CommObject>,
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

/// What one op of a [`Fixture`] does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// `Context::rsr` to every endpoint of the startpoint.
    Rsr,
    /// `Context::scatter`: one piece per endpoint.
    Scatter,
    /// `Context::rsr_bulk`.
    Bulk,
}

/// A sender and a receiver over `rails` queue rails, the receiver's
/// endpoints merged into one startpoint.
pub(crate) struct Fixture {
    pub(crate) tx: Arc<Context>,
    pub(crate) rx: Arc<Context>,
    pub(crate) sp: Startpoint,
    received: Arc<AtomicU64>,
    _teardown: Teardown,
}

impl Fixture {
    /// `rails` rails (mapping or copying), `endpoints` receiver endpoints.
    pub(crate) fn new(rails: usize, endpoints: usize, mapping: bool) -> Fixture {
        let fabric = Fabric::new();
        for i in 0..rails {
            fabric.registry().register(Arc::new(Rail {
                method: MethodId(0x200 + i as u16),
                // Distinct ranks keep single-method selection deterministic
                // (an unstriped link always rides rail 0).
                rank: 10 + i as u32,
                medium: Arc::new(QueueMedium::new()),
                mapping,
            }));
        }
        let tx = fabric.create_context().expect("create sender");
        let rx = fabric.create_context().expect("create receiver");
        let received = counted(&rx);
        let mut sp = rx
            .startpoint_to(rx.create_endpoint())
            .expect("bind endpoint");
        for _ in 1..endpoints {
            sp.merge(
                &rx.startpoint_to(rx.create_endpoint())
                    .expect("bind endpoint"),
            );
        }
        Fixture {
            tx,
            rx,
            sp,
            received,
            _teardown: Teardown(fabric, None),
        }
    }

    /// [`Fixture::new`] over copying rails, every link striped at
    /// [`CUTOFF`]. With one rail `set_striped` declines and the link rides
    /// its one method whole.
    pub(crate) fn striped(rails: usize, endpoints: usize) -> Fixture {
        let fx = Fixture::new(rails, endpoints, false);
        let n = fx.tx.set_striped(&fx.sp, CUTOFF).expect("install stripe");
        assert!(
            rails < 2 || n == endpoints,
            "striped {n} of {endpoints} links"
        );
        fx
    }

    /// The pump: each op sends `len` bytes with `op` and drives both
    /// contexts until every endpoint's delivery arrived (the bulk pull
    /// needs the origin's progress to serve `#bulk-get`).
    pub(crate) fn pump(self, op: Op, len: usize) -> Pump {
        let data = payload(len);
        let per_op = self.sp.links().len() as u64;
        let mut expected = 0_u64;
        Box::new(move |n| {
            let fx = &self;
            for _ in 0..n {
                let body = Buffer::from_bytes(data.clone());
                match op {
                    Op::Rsr => fx.tx.rsr(&fx.sp, "bench", body),
                    Op::Scatter => fx.tx.scatter(&fx.sp, "bench", body),
                    Op::Bulk => fx.tx.rsr_bulk(&fx.sp, "bench", body),
                }
                .expect("send");
                expected += per_op;
                while fx.received.load(Ordering::Relaxed) < expected {
                    fx.rx.progress().expect("rx progress");
                    fx.tx.progress().expect("tx progress");
                }
            }
            if op == Op::Bulk {
                assert_eq!(fx.tx.bulk_regions(), 0, "regions must drain");
                assert_eq!(fx.rx.bulk_pulls_pending(), 0, "pulls must drain");
            }
        })
    }
}

/// Writes a row for every case of `table` through [`document`] and reads
/// them back: the note stays one JSON string and every key survives.
#[cfg(test)]
pub(crate) fn assert_roundtrips(table: &Table) {
    let rows: Vec<Row> = (table.cases.iter())
        .map(|c| Row::new(&c.key, Some(0.004_2), 2.5))
        .collect();
    let doc = document(table.note, &rows);
    assert!(doc.contains(&format!("\"note\": \"{}\"", table.note)));
    assert!(!table.note.contains(['"', '\\', '{']), "one JSON string");
    assert_eq!(parse_rows(&doc).unwrap(), rows);
}

/// The check's table, run on `table`'s row `key` under the table's
/// same-run check: the ratio gated at [`TOLERANCE`], allocs/op at
/// the baseline x 1.25 + [`ALLOC_SLACK`], and a row the baseline lacks
/// (`other`) neither judged nor matched, so a run that matched nothing
/// fails as a whole.
#[cfg(test)]
pub(crate) fn assert_gates(table: &Table, key: &str, other: &str) {
    // (current ratio, current allocs, baseline ratio, baseline allocs,
    // expected failure substrings)
    let ok: &[&str] = &[];
    let cases = [
        (1.24, 0.0, 1.0, 0.0, ok),
        (
            1.26,
            0.0,
            1.0,
            0.0,
            &["ratio 1.2600 exceeds baseline 1.0000 by more than 25 %"],
        ),
        (0.5, 0.4, 1.0, 0.0, ok),
        (0.5, 1.0, 1.0, 0.0, &["allocs/op 1.00"]),
        (2.0, 30.0, 1.0, 4.0, &["ratio", "allocs/op 30.00"]),
        (9.0, 20.5, 8.0, 16.0, ok),
    ];
    for (ratio, allocs, base_ratio, base_allocs, want) in cases {
        let cur = Row::new(key, Some(ratio), allocs);
        let base = Row::new(key, Some(base_ratio), base_allocs);
        let fails = check(&[cur], &[base], table.same_run).failures;
        assert_eq!(fails.len(), want.len(), "{ratio} {allocs}: {fails:?}");
        for (f, w) in fails.iter().zip(want) {
            assert!(f.contains(w), "{f} lacks {w}");
        }
    }
    let unknown = check(
        &[Row::new(other, Some(9e9), 9e9)],
        &[Row::new(key, Some(1.0), 0.0)],
        table.same_run,
    );
    assert!(unknown.failures.is_empty());
    assert_eq!(unknown.matched, 0);
    assert!(unknown.verdict("B.json", TOLERANCE).is_err());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_same_run(_: &[Row]) -> Result<String, String> {
        Ok(String::new())
    }

    fn failures(cur: Row, base: Row) -> Vec<String> {
        check(&[cur], &[base], no_same_run).failures
    }

    #[test]
    fn the_median_of_interleaved_ratios_sheds_a_host_slowdown() {
        // The row costs 1.3x its reference; halfway through, the host
        // slows both by 1.5x. Every pair still reads 1.3.
        let pairs: Vec<(f64, f64)> = (0..20)
            .map(|i| if i < 10 { 1.0 } else { 1.5 })
            .map(|slow| (1300.0 * slow, 1000.0 * slow))
            .collect();
        let r = estimate(&pairs).unwrap();
        assert!((r - 1.3).abs() < 1e-9, "{r}");
        // Absolute ns would read the mean 1 625 against 1 300: the
        // slowdown, not the code. The ratio reads the code: 1.3 against a
        // 1.0 baseline is a 30 % regression.
        let fails = failures(Row::new("a", Some(r), 0.0), Row::new("a", Some(1.0), 0.0));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("exceeds baseline 1.0000"), "{fails:?}");
        // A few preempted batches move a median by one rank, not by their
        // size.
        let mut noisy = pairs.clone();
        noisy[3].0 *= 10.0;
        noisy[17].1 *= 10.0;
        assert!((estimate(&noisy).unwrap() - 1.3).abs() < 1e-9);
    }

    #[test]
    fn a_row_whose_reference_did_not_run_fails() {
        for pairs in [vec![], vec![(1300.0, 0.0); 4], vec![(1300.0, f64::NAN); 4]] {
            assert_eq!(estimate(&pairs), None);
            let gate = check(
                &[Row::new("a", estimate(&pairs), 0.0)],
                &[Row::new("a", Some(1.0), 0.0)],
                no_same_run,
            );
            assert_eq!(gate.matched, 1);
            assert!(gate.failures[0].contains("reference did not run"));
            assert!(gate.verdict("B.json", TOLERANCE).is_err());
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        let row = "{\"row\": \"k\", \"ratio\": 1.5, \"allocs_per_op\": 0.00}";
        let doc = |item: &str| format!("{{\"note\": \"n\", \"results\": [{item}]}}");
        assert_eq!(
            parse_rows(&doc(row)).unwrap(),
            [Row::new("k", Some(1.5), 0.0)]
        );
        for bad in [
            doc("{\"row\": \"k\", \"allocs_per_op\": 0}"),
            doc("{\"row\": \"k\", \"ratio\": null, \"allocs_per_op\": 0}"),
            doc("{\"row\": k, \"ratio\": 1, \"allocs_per_op\": 0}"),
            doc("{\"row\": \"k\", \"ratio\": 1, \"allocs_per_op\": 0"),
            row.to_owned(),
            String::new(),
        ] {
            assert!(parse_rows(&bad).is_err(), "{bad}");
        }
        // What `document` writes for a row without a ratio is no baseline.
        let none = document("n", &[Row::new("k", None, 0.0)]);
        assert!(parse_rows(&none).is_err());
    }

    #[test]
    fn the_command_line_takes_a_table_and_three_flags() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("stripe --smoke --check B.json").unwrap();
        assert_eq!(
            (&*a.table, a.smoke, a.json, a.check),
            ("stripe", true, None, Some("B.json".into()))
        );
        for bad in [
            "",
            "--smoke",
            "rsr bulk",
            "rsr --check",
            "rsr --tolerance 30",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
        assert_eq!(main(&["nope".to_owned()]), 2);
    }
}
