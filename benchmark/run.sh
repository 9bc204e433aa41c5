#!/usr/bin/env bash
# Build, run every workload (untraced + traced), then --selftest; prints
# the total wall time. Extra arguments (--seed N, --seconds S) go to both:
# about 12 min at the default 30 s a run, 5 min with --seconds 10.
set -euo pipefail
cd "$(dirname "$0")/.."
start=$(date +%s)
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/venn-benchmark"
"$bin" "$@"
"$bin" --selftest "$@"
echo "total wall time $(( $(date +%s) - start )) s"
