//! The repo's benchmark: four workloads over the real wire path and the
//! multimethod fast path, each in a fresh process. See `README.md`.
//!
//! `nexus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints human-readable lines, then one JSON object as the last line of
//! standard output. `--trace 0` measures the end-to-end metrics with no
//! span recorded anywhere; `--trace 1` spends a third of the interval
//! untraced (the reference the tracing overhead is taken against) and two
//! thirds traced, then runs the layer probes.

mod alloc;
mod hist;
mod payload;
mod probes;
mod span;
mod topo;
mod workloads;

use hist::{median, quantile_of, segment_rate, segment_rates, Histogram};
use payload::{op_salt, Payload};
use span::{Name, Recorder};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use topo::{Topo, BG_PERIOD};
use workloads::{Interval, Peer, Spec, PHASE_STOP, PHASE_TRACED, PHASE_UNTRACED, SPECS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Cold set-up cycles per untraced run, and how many of the first are
/// discarded (page faults, lazy statics, the reactor thread's start).
const SETUP_CYCLES: usize = 200;
const SETUP_DISCARD: usize = 20;

type Metric = (&'static str, f64, &'static str);

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    report: Option<PathBuf>,
    out_dir: PathBuf,
}

fn usage() -> ! {
    let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: nexus-benchmark --workload <{}> --seed <n> --seconds <1..=60> --trace <0|1> \
         [--report <file>] [--out-dir <dir>]",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut report, mut out_dir) = (None, PathBuf::from("benchmark/out"));
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = SPECS.iter().find(|s| s.name == value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s| (1..=60).contains(s)),
            "--trace" => trace = ["0", "1"].iter().position(|v| *v == value).map(|i| i == 1),
            "--report" => report = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(spec), Some(seed), Some(seconds), Some(trace)) => Args {
            spec,
            seed,
            seconds,
            trace,
            report,
            out_dir,
        },
        _ => usage(),
    }
}

/// A run that cannot produce a valid measurement prints why and exits
/// non-zero without a result line.
fn invalid(why: &str) -> ! {
    eprintln!("invalid run: {why}");
    std::process::exit(1)
}

fn proc_status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

fn thread_count() -> f64 {
    std::fs::read_dir("/proc/self/task").map_or(0.0, |d| d.count() as f64)
}

enum PeerHandle {
    None,
    DriveB(std::thread::JoinHandle<(u64, Option<Recorder>)>),
    Generator(std::thread::JoinHandle<workloads::GenStats>),
}

/// Median duration, in seconds, of cold set-up cycles of the workload's
/// topology. Adds the cycles to the operation counts.
fn setup_time(
    spec: &Spec,
    request: &Arc<Payload>,
    bg: &Arc<Payload>,
    op: u64,
    counts: &mut Counts,
) -> f64 {
    let mut cycles = Vec::with_capacity(SETUP_CYCLES);
    for _ in 0..SETUP_CYCLES {
        counts.attempted += 1;
        match topo::setup_cycle(spec.shape, request, bg, op) {
            Some(d) => cycles.push(d.as_secs_f64()),
            None => counts.failed += 1,
        }
    }
    if cycles.len() <= SETUP_DISCARD {
        invalid("set-up cycles failed");
    }
    median(&mut cycles[SETUP_DISCARD..])
}

#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
}

/// What the traced interval produced.
struct Traced {
    interval: Interval,
    main: Recorder,
    peer: Option<Recorder>,
    allocs: u64,
}

/// The span-derived per-layer metrics, the per-op budget lines, and the
/// sampled records of all threads.
fn span_metrics(t: &Traced, metrics: &mut Vec<Metric>, lines: &mut String) -> Vec<span::Record> {
    let ops = t.interval.ops.max(1) as f64;
    let wall_ns = t.interval.wall.as_nanos() as f64;
    let threads = || std::iter::once(&t.main).chain(&t.peer);
    // Self time of one span name over both threads.
    let merged = |n: Name| {
        let mut h = Histogram::new();
        threads().for_each(|r| h.merge(&r.self_ns[n as usize]));
        h
    };
    let delivered_msgs: u64 = threads().map(|r| r.delivered_msgs).sum();
    let mut records = t.main.records.clone();
    records.extend(t.peer.iter().flat_map(|p| p.records.iter().cloned()));
    let mut waits = Histogram::new();
    span::wake_waits(&records)
        .into_iter()
        .for_each(|w| waits.record(w));

    let calls = |r: &Recorder, n: Name| r.self_ns[n as usize].count() as f64;
    let busy = |r: &Recorder, n: Name| r.self_ns[n as usize].sum() as f64 / wall_ns;
    // The side that dispatches the requests: the peer thread when it
    // drives B, otherwise the main thread.
    let deliver_side = t.peer.as_ref().unwrap_or(&t.main);
    metrics.extend([
        ("buf.build.self_us", merged(Name::Build).p50_us(), "us"),
        ("ctx.send.self_us", merged(Name::Send).p50_us(), "us"),
        (
            "ctx.send.calls_per_op",
            calls(&t.main, Name::Send) / ops,
            "count",
        ),
        ("ctx.wake_wait.us", waits.p50_us(), "us"),
        ("ctx.deliver.self_us", merged(Name::Deliver).p50_us(), "us"),
        (
            "ctx.deliver.msgs_per_pass",
            delivered_msgs as f64 / (merged(Name::Deliver).count() as f64).max(1.0),
            "count",
        ),
        ("ctx.handler.self_us", merged(Name::Handler).p50_us(), "us"),
        (
            "ctx.reply_send.self_us",
            merged(Name::ReplySend).p50_us(),
            "us",
        ),
        (
            "ctx.idle_pass.ns",
            merged(Name::IdlePass).quantile(0.5),
            "ns",
        ),
        (
            "ctx.idle_pass.per_op",
            calls(&t.main, Name::IdlePass) / ops,
            "count",
        ),
        ("ctx.send.busy_share", busy(&t.main, Name::Send), "ratio"),
        (
            "ctx.deliver.busy_share",
            busy(deliver_side, Name::Deliver),
            "ratio",
        ),
        (
            "trace.sum_ratio",
            t.main.self_total_ns() as f64 / wall_ns,
            "ratio",
        ),
        ("mem.allocs_per_op", t.allocs as f64 / ops, "count"),
        ("mix.bg_delivery_p50_us", t.main.bg_delivery.p50_us(), "us"),
    ]);

    // The per-op budget: mean self time per op of every span name on the
    // main thread. On a single-thread chain the column sums to the mean
    // op time.
    let _ = writeln!(
        lines,
        "budget (main thread, mean self us/op over {ops} traced ops):"
    );
    for (name, h) in span::NAMES.iter().zip(&t.main.self_ns) {
        if h.count() > 0 {
            let _ = writeln!(
                lines,
                "  {name:<16} {:>10.3}   ({:.2} spans/op, p50 {:.3} us)",
                h.sum() as f64 / 1e3 / ops,
                h.count() as f64 / ops,
                h.p50_us()
            );
        }
    }
    let _ = writeln!(
        lines,
        "  {:<16} {:>10.3}   (wall / ops)",
        "op",
        wall_ns / 1e3 / ops
    );
    let _ = writeln!(lines, "wake_wait samples: {}", waits.count());
    records
}

fn main() {
    alloc::pin_malloc_thresholds();
    let args = parse_args();
    let spec = args.spec;
    let salt = op_salt(args.seed);
    let (request, bg) = workloads::payloads(args.seed, spec);
    let epoch = Instant::now();
    let mut counts = Counts::default();

    // -- the measured topology ------------------------------------------------
    // Built before anything in this process has closed a socket. The
    // reactor's epoll mirror can keep a closed fd's entry when a new
    // registration reuses the fd number (see README, "Known library
    // issue"); a topology on never-used fd numbers cannot meet that.
    let topo = Topo::build(spec.shape, &request, &bg)
        .unwrap_or_else(|e| invalid(&format!("topology: {e}")));
    let mut next_op = salt + 1;
    match topo.first_round_trip(&bg, next_op) {
        Ok(true) => {}
        Ok(false) => invalid("first round trip timed out or failed verification"),
        Err(e) => invalid(&format!("first round trip: {e}")),
    }
    for (link, got, want) in topo.selected() {
        if got != Some(want) {
            invalid(&format!("link {link} selected {got:?}, expected {want:?}"));
        }
    }
    let topo = Arc::new(topo);

    // -- set-up time (end-to-end metric: untraced runs only) --------------------
    let setup_s = if args.trace {
        0.0
    } else {
        setup_time(spec, &request, &bg, next_op, &mut counts)
    };

    // -- peer thread, warm-up ------------------------------------------------------
    let phase = Arc::new(AtomicU8::new(PHASE_UNTRACED));
    let peer = match spec.peer {
        Peer::None => PeerHandle::None,
        Peer::DriveB => {
            let (b, phase, rec) = (
                Arc::clone(&topo.b),
                Arc::clone(&phase),
                args.trace.then(|| Recorder::new(epoch, salt, 1)),
            );
            PeerHandle::DriveB(std::thread::spawn(move || {
                workloads::drive_b(b, phase, rec)
            }))
        }
        Peer::Generator => {
            let (t, bg, phase, seed) = (
                Arc::clone(&topo),
                Arc::clone(&bg),
                Arc::clone(&phase),
                args.seed,
            );
            PeerHandle::Generator(std::thread::spawn(move || {
                workloads::generate(t, bg, seed, phase)
            }))
        }
    };
    let (n, f) = workloads::warm_up(&topo, spec, &request, &mut next_op);
    counts.attempted += n;
    counts.failed += f;

    // -- the measured interval(s) ----------------------------------------------
    let total = Duration::from_secs(args.seconds);
    let untraced_for = if args.trace { total / 3 } else { total };
    let untraced = workloads::measure::<false>(&topo, spec, &request, &mut next_op, untraced_for);
    let mut traced = None;
    if args.trace {
        span::install(Recorder::new(epoch, salt, 0));
        span::set_tracing(true);
        phase.store(PHASE_TRACED, Ordering::Relaxed);
        let allocs_before = alloc::allocations();
        alloc::set_counting(true);
        let interval =
            workloads::measure::<true>(&topo, spec, &request, &mut next_op, total - untraced_for);
        alloc::set_counting(false);
        let allocs = alloc::allocations() - allocs_before;
        span::set_tracing(false);
        let main = span::uninstall().expect("installed above");
        traced = Some(Traced {
            interval,
            main,
            peer: None,
            allocs,
        });
    }
    let threads = thread_count();

    // -- stop the peer, account for everything in flight ----------------------
    phase.store(PHASE_STOP, Ordering::Relaxed);
    let mut generator = None;
    match peer {
        PeerHandle::None => {}
        PeerHandle::DriveB(h) => {
            let (errors, rec) = h.join().unwrap_or_else(|_| invalid("peer thread panicked"));
            counts.failed += errors;
            if let Some(t) = &mut traced {
                t.peer = rec;
            }
        }
        PeerHandle::Generator(h) => {
            let stats = h
                .join()
                .unwrap_or_else(|_| invalid("generator thread panicked"));
            counts.attempted += stats.sent;
            counts.failed += stats.errors + workloads::drain_background(&topo, stats.sent);
            generator = Some(stats);
        }
    }
    for iv in std::iter::once(&untraced).chain(traced.as_ref().map(|t| &t.interval)) {
        counts.attempted += iv.attempted;
        counts.failed += iv.failed;
    }
    let correct = topo.shared.bad.load(Ordering::Relaxed) == 0;
    match Arc::try_unwrap(topo) {
        Ok(t) => t.shutdown(),
        Err(_) => invalid("topology still shared after the peer thread ended"),
    }

    // -- metrics ---------------------------------------------------------------
    let p50_us = untraced.op_ns.p50_us();
    let p99_us = untraced.op_ns.quantile(0.99) / 1e3;
    let rate = segment_rate(&untraced.seg_ops);
    let late_p99_us = generator
        .as_ref()
        .map_or(0.0, |g| g.late_ns.quantile(0.99) / 1e3);
    let generator_limited = late_p99_us > BG_PERIOD.as_secs_f64() * 1e6;
    let mut metrics: Vec<Metric> = Vec::new();
    let mut lines = String::new();
    let mut sum_ratio_ok = true;
    if let Some(t) = &traced {
        let records = span_metrics(t, &mut metrics, &mut lines);
        metrics.extend([
            (
                "trace.overhead_ratio",
                t.interval.op_ns.p50_us() / p50_us,
                "ratio",
            ),
            ("tail.op_p99_us", p99_us, "us"),
            ("threads.count", threads, "count"),
            ("mix.bg_late_p99_us", late_p99_us, "us"),
        ]);
        match probes::run(&request) {
            Ok(p) => metrics.extend(p),
            Err(e) => invalid(&format!("layer probes: {e}")),
        }
        let sum_ratio = t.main.self_total_ns() as f64 / t.interval.wall.as_nanos() as f64;
        // Only where one thread runs the whole blocking chain.
        sum_ratio_ok = spec.peer == Peer::DriveB || (0.95..=1.05).contains(&sum_ratio);
        if !sum_ratio_ok {
            let _ = writeln!(
                lines,
                "** trace.sum_ratio {sum_ratio:.4} outside 0.95..1.05 **"
            );
        }
        let dropped = t.main.records_dropped + t.peer.as_ref().map_or(0, |p| p.records_dropped);
        let path = args.out_dir.join(format!("trace-{}.json", spec.name));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| span::write_trace(&path, spec.name, &records, dropped));
        match written {
            Ok(()) => {
                let _ = writeln!(
                    lines,
                    "trace: {} spans -> {}",
                    records.len(),
                    path.display()
                );
            }
            Err(e) => invalid(&format!("writing {}: {e}", path.display())),
        }
    } else {
        metrics.extend([
            ("setup_s", setup_s, "s"),
            ("op_p50_us", p50_us, "us"),
            ("ops_per_s", rate, "1/s"),
            ("peak_rss_mb", proc_status_kb("VmHWM:") / 1024.0, "MB"),
        ]);
    }

    // -- output ------------------------------------------------------------------
    let Counts { attempted, failed } = counts;
    let msgs_per_s = rate * spec.shape.window as f64;
    let mb_per_s = rate * spec.bytes_per_op() as f64 / 1e6;
    println!(
        "{} seed {} trace {}: {} ops in {:.1} s untraced, p50 {p50_us:.3} us, p99 {p99_us:.3} us",
        spec.name,
        args.seed,
        args.trace as u8,
        untraced.ops,
        untraced.wall.as_secs_f64(),
    );
    let mut seg_rates = segment_rates(&untraced.seg_ops);
    println!(
        "ops/s over {} segments of 100 ms: p10 {:.0}, p50 {:.0}, p75 {rate:.0}, p90 {:.0}, mean {:.0}",
        seg_rates.len(),
        quantile_of(&mut seg_rates, 0.1),
        quantile_of(&mut seg_rates, 0.5),
        quantile_of(&mut seg_rates, 0.9),
        untraced.ops as f64 / untraced.wall.as_secs_f64(),
    );
    println!(
        "derived: {msgs_per_s:.0} msg/s, {mb_per_s:.3} MB/s payload ({} msgs, {} B per op)",
        spec.shape.window,
        spec.bytes_per_op(),
    );
    if let Some(g) = &generator {
        println!(
            "background: {} sent at {:.0} msg/s, lateness p50 {:.2} us p99 {late_p99_us:.2} us{}",
            g.sent,
            1.0 / BG_PERIOD.as_secs_f64(),
            g.late_ns.p50_us(),
            if generator_limited {
                "  ** GENERATOR-LIMITED **"
            } else {
                ""
            },
        );
    }
    print!("{lines}");
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    println!(
        "ops_attempted {attempted}  ops_failed {failed}  fail_share {:.6}  payloads verified: {correct}",
        failed as f64 / attempted.max(1) as f64
    );

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    if let Some(path) = &args.report {
        let report = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"ops\": {}, \"op_p99_us\": {p99_us}, \"msgs_per_s\": {msgs_per_s}, \
             \"payload_mb_per_s\": {mb_per_s}, \"sum_ratio_ok\": {sum_ratio_ok}, \
             \"generator_limited\": {generator_limited}, \"result\": {json}}}\n",
            spec.name, args.seed, args.seconds, args.trace as u8, untraced.ops,
        );
        if let Err(e) = std::fs::write(path, report) {
            invalid(&format!("writing {}: {e}", path.display()));
        }
    }
    println!("{json}");
}
