#!/usr/bin/env bash
# Repair smoke test: build a real on-disk database, corrupt a table file,
# run `ldbpp_tool repair`, verify the result with `ldbpp_tool check`, and
# reopen it through the normal read path. Exercises the operator-facing
# self-healing loop end to end (DESIGN.md §13) on DiskEnv rather than the
# in-memory test Env.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ldbpp-repair-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
DB="$WORK/db"

cargo build --release --quiet --bin ldbpp_tool
TOOL=target/release/ldbpp_tool

cargo run --release --quiet -p leveldbpp --example seed_db -- "$DB" 400 >/dev/null
[ -f "$DB/CURRENT" ] || { echo "repair smoke: failed to seed database"; exit 1; }

# Healthy database: repair is a clean no-op (exit 0) and check agrees.
"$TOOL" repair "$DB" >/dev/null
"$TOOL" check "$DB" >/dev/null

# Corrupt a data block in a live table.
TABLE="$(ls "$DB"/*.ldb | head -n1)"
printf '\xff' | dd of="$TABLE" bs=1 seek=32 count=1 conv=notrunc status=none

# The checker must now complain...
if "$TOOL" check "$DB" >/dev/null 2>&1; then
  echo "repair smoke: checker missed seeded corruption"; exit 1
fi
# ...repair must salvage, quarantine, and exit non-zero...
if "$TOOL" repair "$DB" >"$WORK/repair.out" 2>&1; then
  echo "repair smoke: repair of a damaged db reported clean"; exit 1
fi
grep -q "quarantined: lost/" "$WORK/repair.out"
[ -n "$(ls "$DB/lost")" ] || { echo "repair smoke: quarantine empty"; exit 1; }
# ...and the repaired database must check clean and serve reads.
"$TOOL" check "$DB" >/dev/null
"$TOOL" scan "$DB" "" 5 >/dev/null
"$TOOL" repair "$DB" >/dev/null   # second repair: nothing left to fix

echo "repair smoke OK"
