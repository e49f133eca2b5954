#!/usr/bin/env bash
# Non-test line counts, run from anywhere inside the repo. A file's
# non-test lines are every line before its first `#[cfg(test)]` (the whole
# file when it has none), except that a `#[cfg(test)]` on a one-line item —
# an out-of-line `mod x;` or a `use …;` — drops only that item and counting
# goes on. A file that is itself a `#[cfg(test)] mod x;` module counts zero.
# Printed per crate for crates/lsm/src and crates/core/src, then their
# total, then the total for all Rust outside benchmark/ (crates/*/src,
# crates/*/benches, src, examples, shims/*/src). Informational — the
# ROADMAP's line-count criteria quote its output.
set -euo pipefail
cd "$(dirname "$0")/.."

# Files declared only under `#[cfg(test)] mod x;`: x.rs or x/mod.rs beside
# a mod.rs/lib.rs/main.rs, or under the declaring file's own directory.
test_only_files() {
    find "$@" -name '*.rs' -print0 | xargs -0 -r awk '
        FNR == 1 { pend = 0 }
        pend && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
            name = $0
            sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "", name)
            sub(/;.*/, "", name)
            dir = FILENAME
            sub(/\/[^\/]*$/, "", dir)
            if (FILENAME !~ /\/(mod|lib|main)\.rs$/) {
                stem = FILENAME
                sub(/\.rs$/, "", stem)
                dir = stem
            }
            print dir "/" name ".rs"
            print dir "/" name "/mod.rs"
        }
        { pend = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }'
}

count() {
    local skip
    skip="$(test_only_files "$@")"
    find "$@" -name '*.rs' | sort | while read -r f; do
        grep -qxF "$f" <<<"$skip" || printf '%s\0' "$f"
    done | xargs -0 -r awk '
        FNR == 1 { on = 1; pend = 0 }
        pend {
            pend = 0
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?(mod [A-Za-z0-9_]+|use .*);[[:space:]]*$/) next
            on = 0
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { pend = on; next }
        on { n++ }
        END { print n + 0 }'
}

total=0
for crate in lsm core; do
    lines="$(count "crates/$crate/src")"
    printf '%-24s %6d\n' "crates/$crate/src" "$lines"
    total=$((total + lines))
done
printf '%-24s %6d\n' total "$total"

mapfile -t roots < <(ls -d crates/*/src crates/*/benches src examples shims/*/src 2>/dev/null)
printf '%-24s %6d\n' "all outside benchmark/" "$(count "${roots[@]}")"
