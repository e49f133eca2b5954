#!/usr/bin/env bash
# Documentation gate, run from anywhere inside the repo:
#   1. rustdoc for the whole workspace must build with zero warnings
#      (crates/lsm additionally enforces #![deny(missing_docs)] at build
#      time, so public API docs cannot regress silently);
#   2. every relative markdown link (and intra-file anchor) in the
#      top-level *.md files must resolve;
#   3. no tracked *.md file says `cargo bench` (there are no bench
#      targets: `repro` regenerates every figure, `benchmark/` gates wall
#      clock) or names an `--example` missing from examples/;
#   4. load-bearing sections must exist: DESIGN.md must keep §14
#      (write-path concurrency / group commit), §15 (sharding), §16
#      (the networked service layer), §17 (model checking), and §18
#      (the network failure model), and the README must keep describing
#      the group-commit write path, the sharded engine, the server
#      quickstart, the model checker, and running under chaos; DESIGN.md
#      §11 must keep the single-commit-log contract and its
#      "index ≡ primary" guarantee → test row —
#      docs that tests and comments point at may not silently disappear;
#   5. every `CheckCode` display name in crates/lsm/src/check.rs has a row
#      in DESIGN.md §12.3's catalogue table.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo doc --workspace (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== markdown link check =="
python3 - <<'PYEOF'
import os, re, sys

def slugify(heading):
    # GitHub's anchor algorithm: lowercase, drop everything but word
    # characters / spaces / hyphens, then spaces become hyphens.
    s = heading.strip().lower()
    s = re.sub(r"[^\w\- ]", "", s)
    return s.replace(" ", "-")

def anchors_of(path):
    out = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"#+\s+(.*)", line)
            if m:
                out.add(slugify(m.group(1)))
    return out

link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
errors = []
for md in sorted(f for f in os.listdir(".") if f.endswith(".md")):
    with open(md, encoding="utf-8") as f:
        text = f.read()
    # Ignore fenced code blocks: they hold sample code, not links.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for target in link_re.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external; unverifiable offline
        path, _, anchor = target.partition("#")
        path = path or md
        if not os.path.exists(path):
            errors.append(f"{md}: broken link -> {target} (no such file)")
        elif anchor and path.endswith(".md") and anchor not in anchors_of(path):
            errors.append(f"{md}: broken anchor -> {target}")

if errors:
    print("\n".join(errors))
    sys.exit(1)
print(f"all markdown links resolve")
PYEOF

echo "== harness commands named in docs exist =="
python3 - <<'PYEOF'
import os, re, subprocess, sys

try:
    docs = subprocess.run(["git", "ls-files", "*.md"], capture_output=True,
                          text=True, check=True).stdout.split()
except (OSError, subprocess.CalledProcessError):
    # Not a git checkout (an exported tree): every *.md but build output.
    docs = []
    for d, subdirs, files in os.walk("."):
        subdirs[:] = [s for s in subdirs if s not in ("target", ".bench_build", "out")]
        docs += [os.path.join(d, f)[2:] for f in files if f.endswith(".md")]
examples = {f[:-3] for f in os.listdir("examples") if f.endswith(".rs")}
errors = []
for md in docs:
    with open(md, encoding="utf-8") as f:
        lines = f.read().splitlines()
    # A change request names what it removes; it describes no current tree.
    if "## Acceptance criteria" in lines:
        continue
    for n, line in enumerate(lines, 1):
        if "cargo bench" in line:
            errors.append(f"{md}:{n}: says `cargo bench`, but there are no bench targets")
        for name in re.findall(r"--example[ =]+([A-Za-z0-9_]+)", line):
            if name not in examples:
                errors.append(f"{md}:{n}: names --example {name}, not in examples/")
if errors:
    print("\n".join(errors))
    sys.exit(1)
print(f"{len(docs)} markdown files name only existing harness commands")
PYEOF

echo "== required sections =="
grep -q "^## 14\. Write-path concurrency" DESIGN.md \
    || { echo "DESIGN.md: missing §14 'Write-path concurrency'"; exit 1; }
grep -Eq "group[ -]commit" README.md \
    || { echo "README.md: no longer documents the group-commit write path"; exit 1; }
grep -q "Tuning write concurrency" README.md \
    || { echo "README.md: missing the 'Tuning write concurrency' subsection"; exit 1; }
grep -q "One commit log per shard" DESIGN.md \
    || { echo "DESIGN.md: §11 no longer documents the shard's single commit log"; exit 1; }
grep -q "index ≡ primary at every crash point" DESIGN.md \
    || { echo "DESIGN.md: missing the 'index ≡ primary' guarantee → test row"; exit 1; }
grep -q "only\*\* commit log" README.md \
    || { echo "README.md: no longer says the primary's WAL is the shard's only commit log"; exit 1; }
grep -q "^## 15\. Shard-per-core" DESIGN.md \
    || { echo "DESIGN.md: missing §15 'Shard-per-core'"; exit 1; }
grep -q "Sharding: scaling past one engine" README.md \
    || { echo "README.md: missing the 'Sharding' subsection"; exit 1; }
grep -q "^## 16\. The networked service layer" DESIGN.md \
    || { echo "DESIGN.md: missing §16 'The networked service layer'"; exit 1; }
grep -q "Serving over the network" README.md \
    || { echo "README.md: missing the 'Serving over the network' subsection"; exit 1; }
grep -q "^## 17\. Model checking" DESIGN.md \
    || { echo "DESIGN.md: missing §17 'Model checking'"; exit 1; }
grep -q "Model checker" README.md \
    || { echo "README.md: no longer documents the model checker"; exit 1; }
grep -q "^## 18\. Network failure model" DESIGN.md \
    || { echo "DESIGN.md: missing §18 'Network failure model'"; exit 1; }
grep -q "Running under chaos" README.md \
    || { echo "README.md: missing the 'Running under chaos' subsection"; exit 1; }
echo "required sections present"

echo "== check codes catalogued =="
python3 - <<'PYEOF'
import re, sys

codes = re.findall(r'CheckCode::\w+ => "([a-z-]+)"', open("crates/lsm/src/check.rs").read())
design = open("DESIGN.md", encoding="utf-8").read()
section = re.search(r"^### 12\.3 .*?(?=^##)", design, flags=re.S | re.M)
rows = [l for l in section.group(0).splitlines() if l.startswith("|")] if section else []
catalogued = set(re.findall(r"`([a-z-]+)`", "\n".join(rows)))
missing = [c for c in codes if c not in catalogued]
if not codes or missing:
    print("DESIGN.md §12.3 catalogue misses check codes: " + ", ".join(missing or ["(none parsed)"]))
    sys.exit(1)
print(f"{len(codes)} check codes catalogued")
PYEOF

echo "docs OK"
