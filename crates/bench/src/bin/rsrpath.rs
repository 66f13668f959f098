//! RSR data-path microbenchmark: ns/RSR and allocs/RSR on the local-queue
//! round trip, with a tracked-baseline regression gate.
//!
//! ```text
//! cargo run --release -p nexus-bench --bin rsrpath              # full matrix
//! cargo run --release -p nexus-bench --bin rsrpath -- --smoke   # CI-sized run
//!     --json PATH      write current results as JSON
//!     --check PATH     compare against tracked BENCH_rsr.json ("after" block
//!                      or "results"), exit 1 on >25 % ns/RSR regression
//!     --tolerance PCT  override the regression tolerance (default 25)
//! ```

use nexus_bench::rsrpath::{self, Config};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global-allocator calls observed so far (alloc + realloc + alloc_zeroed).
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator that counts allocation calls, so the harness
/// can report allocs/RSR without instrumenting the runtime itself.
struct CountingAlloc;

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

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut json_out: Option<String> = None;
    let mut check_against: Option<String> = None;
    let mut tolerance = 0.25_f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--json" => {
                i += 1;
                json_out = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }));
            }
            "--check" => {
                i += 1;
                check_against = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--check needs a path");
                    std::process::exit(2);
                }));
            }
            "--tolerance" => {
                i += 1;
                let pct: f64 = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--tolerance needs a percentage");
                    std::process::exit(2);
                });
                tolerance = pct / 100.0;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let cfg = if smoke {
        Config::smoke()
    } else {
        Config::full()
    };
    let rows = rsrpath::run(&cfg, &|| ALLOC_CALLS.load(Ordering::Relaxed));
    println!("{}", rsrpath::format(&rows));

    if let Some(path) = json_out {
        let doc = rsrpath::document_json(&rows);
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, doc).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }

    if let Some(path) = check_against {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("reading {path}: {e}");
            std::process::exit(2);
        });
        let doc = rsrpath::parse_json(&text).unwrap_or_else(|e| {
            eprintln!("parsing {path}: {e}");
            std::process::exit(2);
        });
        let baseline = rsrpath::scenarios_from(&doc, "after")
            .or_else(|| rsrpath::scenarios_from(&doc, "results"))
            .unwrap_or_else(|| {
                eprintln!("{path}: no \"after\" or \"results\" scenario block");
                std::process::exit(2);
            });
        match rsrpath::check(&rows, &baseline, tolerance).verdict(&path, tolerance) {
            Ok(ok) => println!("{ok}"),
            Err(lines) => {
                for line in &lines {
                    eprintln!("{line}");
                }
                std::process::exit(1);
            }
        }
    }
}
