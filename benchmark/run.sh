#!/usr/bin/env bash
# Build the benchmark from source, then run it. Every argument is passed on:
#
#   benchmark/run.sh                    every workload, tracing off
#   benchmark/run.sh --trace 1          the separate run with the per-layer numbers
#                                       (--traced is an alias)
#   benchmark/run.sh --quick            op counts / 20, one repetition, < 20 s
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh spread R1.json R2.json ...
#
# Exits non-zero when the build fails, an operation fails or the oracle
# rejects a result.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$bench_dir/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Build output goes to stderr: standard output is the benchmark's alone.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/ldbpp-benchmark" "$@"
