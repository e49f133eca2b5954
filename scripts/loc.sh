#!/usr/bin/env bash
# Non-test line counts of the engine crates, run from anywhere inside the
# repo. A file's non-test lines are every line before its first
# `#[cfg(test)]` (the whole file when it has none); printed per crate for
# crates/lsm/src and crates/core/src, then their total. Informational —
# the ROADMAP's line-count criteria quote its output.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in lsm core; do
    lines="$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z \
        | xargs -0 awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')"
    printf '%-16s %6d\n' "crates/$crate/src" "$lines"
    total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"
