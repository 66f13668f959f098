#!/usr/bin/env bash
# The one command: builds the benchmark package, runs the four workloads
# one process at a time (untraced, then traced), prints every metric,
# writes benchmark/RESULTS.json, and exits non-zero if a validity check
# fails. `--repeat 2` runs two full sets and compares them against each
# end-to-end metric's bound. `--seed N` picks the payload seed.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec python3 benchmark/suite.py --bin "$target/release/nexus-benchmark" "$@"
