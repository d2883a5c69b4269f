#!/usr/bin/env bash
# Build sketchd, sketchproxy and the benchmark from source, then run the
# benchmark from the repository root. Every argument is passed through;
# see perfbench/main.ml or perfbench/README.md for them.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -f bin/sketchd.ml ] || [ ! -f bin/sketchproxy.ml ]; then
  echo "perfbench: run from a sketchlb source tree (no dune-project or bin/ here)" >&2
  exit 2
fi

# The serve-herd workload holds 5000 idle connections and its ping sweep
# 10000; each needs a descriptor here and one in sketchd.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
if [ "$(ulimit -n)" != unlimited ] && [ "$(ulimit -n)" -lt 10240 ]; then
  echo "perfbench: need at least 10240 open files (ulimit -n is $(ulimit -n))" >&2
  exit 2
fi

# Keep every build and run output inside the tree: no shared dune cache,
# and the compiler's temporary files under perfbench/.run.
export DUNE_CACHE=disabled
mkdir -p perfbench/.run/tmp
export TMPDIR="$PWD/perfbench/.run/tmp"
dune build --root . --display quiet bin/sketchd.exe bin/sketchproxy.exe perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
