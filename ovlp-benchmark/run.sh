#!/usr/bin/env bash
# Build the shipped `ovlp` binary and this benchmark from source, then
# run the benchmark with the given arguments (see README.md), e.g.
#   bash ovlp-benchmark/run.sh --workload paper-sweep --seed 1 --seconds 27 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin ovlp
cargo build --release --offline --quiet --manifest-path ovlp-benchmark/Cargo.toml
# Run as a child rather than exec: the children's peak memory that the
# benchmark reads (getrusage) would otherwise include the build's.
"$CARGO_TARGET_DIR/release/ovlp-benchmark" "$@"
