#!/usr/bin/env bash
# A/B benchmark of HEAD against a base revision, in alternating pairs.
#
#   scripts/ab.sh <base-rev> [--pairs N] [--workload W]
#
# Exports <base-rev> and HEAD (committed files only) with `git archive`
# into a scratch directory — $AB_DIR, or a fresh one under ${TMPDIR:-/tmp}
# — and builds each side's benchmark/ once, each with its own
# CARGO_TARGET_DIR. It then runs N pairs (default 10) of
# `--workload W --seed s --seconds 30 --trace 0` for W (default: every
# workload in BENCHMARK.json), seeds 101, 102, …; the base side runs first
# in odd pairs and the change first in even ones.
#
# Printed per workload, for every `end_to_end` metric of BENCHMARK.json:
# both medians, the median paired ratio (change / base), how many pairs
# favour the change by the metric's `better`, and the base side's
# interquartile range as a share of its median, marked `unresolved` when
# it exceeds the metric's bound. `write_amp` and `space_amp` read
# `identical` when every pair agrees exactly and `moved` otherwise. Each
# run's final JSON line is kept under $AB_DIR/runs/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh <base-rev> [--pairs N] [--workload W]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base_rev="$1"
shift
pairs=10
workloads=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) [ $# -ge 2 ] || usage; pairs="$2"; shift 2 ;;
        --workload) [ $# -ge 2 ] || usage; workloads="$2"; shift 2 ;;
        *) usage ;;
    esac
done
if [ -z "$workloads" ]; then
    workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi

dir="${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")}"
mkdir -p "$dir/runs"
echo "ab.sh: $base_rev (base) against HEAD (change) in $dir" >&2

for side in base change; do
    rev="$base_rev"
    [ "$side" = change ] && rev=HEAD
    git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "ab.sh: unknown revision $rev" >&2; exit 2; }
    rm -rf "${dir:?}/$side"
    mkdir -p "$dir/$side"
    git archive "$rev" | tar -x -C "$dir/$side"
    echo "ab.sh: building $side ($(git rev-parse --short "$rev"))" >&2
    CARGO_TARGET_DIR="$dir/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$dir/$side/benchmark/Cargo.toml" 1>&2
done

# run SIDE WORKLOAD SEED: one benchmark run; keeps its last line.
run() {
    local out="$dir/runs/$2-$3-$1.json"
    (cd "$dir/$1" && "$dir/target-$1/release/ldbpp-benchmark" --workload "$2" --seed "$3" \
        --seconds 30 --trace 0 --out "$dir/out-$1") | tail -n 1 >"$out" ||
        echo "ab.sh: $1 $2 seed $3 exited non-zero" >&2
}

for w in $workloads; do
    for ((p = 0; p < pairs; p++)); do
        seed=$((101 + p))
        echo "ab.sh: $w pair $((p + 1))/$pairs (seed $seed)" >&2
        if ((p % 2 == 0)); then
            run base "$w" "$seed"
            run change "$w" "$seed"
        else
            run change "$w" "$seed"
            run base "$w" "$seed"
        fi
    done
done

python3 - "$dir/runs" "$pairs" $workloads <<'EOF'
import json, statistics, sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
AMPS = ("write_amp", "space_amp")

def load(w, seed, side):
    try:
        return json.loads(open(f"{runs}/{w}-{seed}-{side}.json").read())
    except (OSError, ValueError):
        return None

def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

print(f"{'workload':<13} {'metric':<19} {'base':>10} {'change':>10} {'ratio':>7} {'favour':>7}  base IQR")
for w in workloads:
    docs = [(load(w, 101 + p, "base"), load(w, 101 + p, "change")) for p in range(pairs)]
    docs = [(b, c) for b, c in docs if b and c]
    failed = [sum(d[i]["failed"] for d in docs) for i in (0, 1)]
    for m in spec:
        name = m["name"]
        vals = [(b["metrics"].get(name, {}).get("value"), c["metrics"].get(name, {}).get("value"))
                for b, c in docs]
        vals = [(b, c) for b, c in vals if b is not None and c is not None]
        if not vals:
            continue
        base, change = [b for b, _ in vals], [c for _, c in vals]
        if name in AMPS:
            same = all(b == c for b, c in vals)
            verdict = "identical" if same else "moved"
            print(f"{w:<13} {name:<19} {statistics.median(base):>10.4g} "
                  f"{statistics.median(change):>10.4g} {verdict:>15}")
            continue
        ratios = [c / b for b, c in vals if b > 0]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        lower = m["better"] == "lower"
        wins = sum(1 for b, c in vals if (c < b if lower else c > b))
        med = statistics.median(base)
        spread = iqr(base) / med if med > 0 else 0.0
        flag = "  unresolved" if spread > m["bound"] else ""
        print(f"{w:<13} {name:<19} {med:>10.4g} {statistics.median(change):>10.4g} "
              f"{ratio:>7} {wins:>3}/{len(vals):<3}  {spread:6.1%}{flag}")
    print(f"{w:<13} {'failed ops':<19} {failed[0]:>10} {failed[1]:>10}   ({len(docs)} pairs)")
EOF
