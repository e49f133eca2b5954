#!/usr/bin/env bash
# The full CI gate, run from anywhere inside the repo:
#   1. formatting (`cargo fmt --check`);
#   2. lints (`cargo clippy`, all targets, warnings are errors);
#   3. tier-1 tests: release build + `cargo test -q`, which runs every
#      crate's tests (the workspace's default-members are all of them);
#   4. crash-recovery sweep: the fault-injection harnesses in
#      crates/lsm/tests/crash.rs and crates/core/tests/crash_secondary.rs,
#      which crash a scripted workload at every I/O-operation index and
#      verify recovery for the LSM and all five index techniques. The
#      default budget is bounded (short workloads, capped sweep width);
#      set CRASH_SWEEP_FULL=1 for the exhaustive long-workload sweep. Then
#      the swept index oracle (`randomized_model_equivalence` in
#      crates/core/tests/indexes_test.rs: every technique against a
#      brute-force model on `(pk, seq)`, over seeds, K, shard counts and
#      fg/bg) at INDEX_SWEEP_FULL=1 — 16 seeds, where tier-1 runs 2.
#   5. analysis gates: the custom lint pass (`scripts/lint.sh`: no
#      unwrap/expect in non-test engine code, no raw std::sync locks
#      outside the shims, #[must_use] on public report APIs) and a
#      sanitizer-enabled test pass (`--features check`: instrumented locks
#      with lock-order-cycle/re-entrancy detection plus the vector-clock
#      checker on the lock-free read path — including the seeded-inversion
#      regression proving the detector fires), plus the deterministic
#      model checker (ldbpp-model): bounded schedule exploration of the
#      group-commit, scatter-gather, and shutdown-drain protocol models
#      with seeded-fault catch tests and the pinned-seed regression
#      corpus. The default budget is bounded (preemption-bounded DFS,
#      ~1.2k schedules per model); set MODEL_FULL=1 for the exhaustive
#      sweep;
#   6. contended-writer smoke: the group-commit suites — multi-writer
#      correctness/failure-contract tests (crates/lsm/tests/
#      group_commit_test.rs), the contended facade tests in
#      tests/concurrency.rs, and the fsync-bound write-scaling bench
#      assertion (4 writers must at least double 1 writer's throughput);
#   7. sharded smoke: re-run the contended facade suite and the tier-1
#      crash smoke with LDBPP_SHARDS=2 (every SecondaryDb in those
#      suites becomes a 2-shard hash-partitioned engine, DESIGN.md §15),
#      run the sharded concurrency tests under the lock-order sanitizer
#      (--features check), then seed a real 2-shard on-disk database via
#      examples/seed_db.rs and `ldbpp_tool check` it (per-shard + aggregate
#      report must be clean);
#   8. server smoke: start a release ldbpp_server (2 shards, ephemeral
#      port), drive a bounded networked YCSB mix through the wire
#      protocol (`repro --server ... net_ycsb`), shut down gracefully,
#      `ldbpp_tool check` the resulting database, and run the 8-client
#      e2e harness once under the concurrency sanitizer
#      (`--features check`, DESIGN.md §16);
#   9. chaos smoke: start a fresh release ldbpp_server and drive the
#      bounded chaos experiment against it (`repro --server ... chaos`):
#      a fault-injecting proxy (frame drops + delays, fixed seed) sits
#      between retrying idempotent clients and the server, every acked
#      write is verified by read-back, and the resulting database must
#      `ldbpp_tool check` clean (DESIGN.md §18);
#  10. repair smoke: build a real on-disk database, corrupt a table,
#      `ldbpp_tool repair` it (must exit non-zero and quarantine the
#      damaged file), verify with `ldbpp_tool check`, and reopen;
#  11. benchmark smoke: `benchmark/run.sh --quick` for each of the four
#      workloads of BENCHMARK.json (op counts / 20, one repetition);
#      fails when the oracle rejects a result (`correct: false`) or any
#      operation failed. No timing is gated here — the driver compares
#      full runs against the parent commit;
#  12. documentation (`scripts/check_docs.sh`: rustdoc with -D warnings,
#      markdown link check, no doc naming `cargo bench` or a missing
#      `--example`, and grep gates pinning DESIGN.md §14,
#      §15, §16, §18 + the README's group-commit, sharding, server,
#      and chaos coverage);
#  13. file size: fails when any file under crates/lsm/src is over 1 200
#      lines, so the engine stays split by responsibility (db.rs and its
#      commit/recovery/flush modules);
#  14. line count (`scripts/loc.sh`): non-test lines of crates/lsm/src and
#      crates/core/src, their total, and the total for all Rust outside
#      benchmark/ — informational, never fails, so the ROADMAP's
#      line-count criteria come from a command.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== lint gate (scripts/lint.sh) =="
./scripts/lint.sh

echo "== tier-1: release build =="
cargo build --release --quiet

echo "== tier-1: every crate's tests =="
cargo test -q

echo "== concurrency sanitizer: tier-1 + engine suites with --features check =="
cargo test -q -p leveldbpp --features check
cargo test -q -p parking_lot --features check
cargo test -q -p ldbpp-lsm --features check

echo "== model checker: schedule exploration (MODEL_FULL=${MODEL_FULL:-0}) =="
MODEL_FULL="${MODEL_FULL:-0}" cargo test -q -p ldbpp-model --features check

echo "== crash-recovery sweep (CRASH_SWEEP_FULL=${CRASH_SWEEP_FULL:-0}) =="
CRASH_SWEEP_FULL="${CRASH_SWEEP_FULL:-0}" cargo test -q -p ldbpp-lsm --test crash
CRASH_SWEEP_FULL="${CRASH_SWEEP_FULL:-0}" cargo test -q -p ldbpp-core --test crash_secondary

echo "== swept index oracle (INDEX_SWEEP_FULL=1) =="
INDEX_SWEEP_FULL=1 cargo test -q -p ldbpp-core --test indexes_test randomized_model_equivalence

echo "== contended-writer smoke: group commit under multi-writer load =="
cargo test -q -p ldbpp-lsm --test group_commit_test
cargo test -q -p leveldbpp --test concurrency contended_
cargo test -q -p ldbpp-bench --release write_scaling

echo "== sharded smoke: facade suites at LDBPP_SHARDS=2 =="
LDBPP_SHARDS=2 cargo test -q -p leveldbpp --test concurrency
LDBPP_SHARDS=2 cargo test -q -p leveldbpp --test crash_smoke
LDBPP_SHARDS=2 cargo test -q -p leveldbpp --features check --test concurrency

echo "== sharded smoke: seed a 2-shard db on disk and check it =="
sharded_dir="$(mktemp -d)"
server_dir="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$sharded_dir" "$server_dir"
}
trap cleanup EXIT
LDBPP_SHARDS=2 cargo run --release --quiet -p leveldbpp --example seed_db -- "$sharded_dir/db" 300
test -f "$sharded_dir/db/LAYOUT" || { echo "seed_db: no LAYOUT descriptor"; exit 1; }
./target/release/ldbpp_tool check "$sharded_dir/db"

echo "== server smoke: networked YCSB against a real ldbpp_server process =="
# Start a 2-shard server on an ephemeral port, parse the port off its
# stdout, drive a bounded networked YCSB mix through the wire protocol,
# shut down gracefully, then structurally check the resulting database.
./target/release/ldbpp_server "$server_dir/db" \
    --listen 127.0.0.1:0 --shards 2 --index UserID=lazy \
    > "$server_dir/stdout" &
server_pid=$!
server_addr=""
for _ in $(seq 1 100); do
    server_addr="$(sed -n 's/^listening on //p' "$server_dir/stdout")"
    [ -n "$server_addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "ldbpp_server died at startup"; cat "$server_dir/stdout"; exit 1; }
    sleep 0.1
done
[ -n "$server_addr" ] || { echo "ldbpp_server never announced its port"; exit 1; }
cargo run --release --quiet -p ldbpp-bench --bin repro -- \
    --smoke --out "$server_dir/results" \
    --server "$server_addr" --clients 4 net_ycsb
./target/release/ldbpp_server --shutdown "$server_addr"
wait "$server_pid"
server_pid=""
./target/release/ldbpp_tool check "$server_dir/db"
# One sanitizer-instrumented pass of the 8-client e2e harness.
cargo test -q -p leveldbpp --features check --test server_e2e

echo "== chaos smoke: faulted wire traffic against a real ldbpp_server process =="
# Same recipe as the server smoke, but the traffic goes through the
# chaos proxy (frame drops + delays at a fixed seed) and retrying
# idempotent clients; the experiment read-back-verifies every acked
# write, then the database must check clean.
chaos_seed=42
./target/release/ldbpp_server "$server_dir/chaosdb" \
    --listen 127.0.0.1:0 --shards 2 --index UserID=lazy \
    > "$server_dir/chaos_stdout" &
server_pid=$!
server_addr=""
for _ in $(seq 1 100); do
    server_addr="$(sed -n 's/^listening on //p' "$server_dir/chaos_stdout")"
    [ -n "$server_addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "ldbpp_server died at startup"; cat "$server_dir/chaos_stdout"; exit 1; }
    sleep 0.1
done
[ -n "$server_addr" ] || { echo "ldbpp_server never announced its port"; exit 1; }
cargo run --release --quiet -p ldbpp-bench --bin repro -- \
    --smoke --seed "$chaos_seed" --out "$server_dir/results" \
    --server "$server_addr" chaos \
    || { echo "chaos smoke failed (seed $chaos_seed)"; exit 1; }
./target/release/ldbpp_server --shutdown "$server_addr"
wait "$server_pid"
server_pid=""
./target/release/ldbpp_tool check "$server_dir/chaosdb"

echo "== repair smoke: corrupt -> repair -> check -> reopen =="
./scripts/repair_smoke.sh

echo "== benchmark smoke: every workload, quick, correct and without a failed operation =="
for workload in static_load static_query net_mixed durable_put; do
    summary="$(benchmark/run.sh --quick --workload "$workload" --out "$server_dir/bench" | tail -n 1)"
    case "$summary" in
        *'"correct":true,"failed":0,'*) ;;
        *) echo "benchmark smoke: $workload: $summary"; exit 1 ;;
    esac
done

./scripts/check_docs.sh

echo "== file size: no file under crates/lsm/src over 1 200 lines =="
oversized="$(find crates/lsm/src -name '*.rs' -print0 | xargs -0 wc -l | awk '$2 != "total" && $1 > 1200')"
if [ -n "$oversized" ]; then
    echo "over 1 200 lines:"
    echo "$oversized"
    exit 1
fi

echo "== non-test line count (informational) =="
./scripts/loc.sh

echo "CI OK"
