//! The tracked regression gates: `gate rsr|stripe|bulk [--smoke]
//! [--json PATH] [--check PATH]` (see `nexus_bench::harness`).

use nexus_bench::harness::{self, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(harness::main(&args));
}
