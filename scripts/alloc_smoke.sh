#!/usr/bin/env bash
# Allocation regression gate for the hot experiment loops (PERFORMANCE.md §7).
#
# Regenerates BENCH_tables.json at --fast with jobs=1 (the GC counters
# are domain-local, so only jobs=1 measures the whole table) in
# _build/smoke/, not over the committed copy at the repo root, validates
# the schema with `jsoncheck --tables`, and fails if any gated
# experiment's body allocation exceeds its committed ceiling.
#
# Most ceilings are deliberately loose against the measured numbers
# (bcc ~1.6 MB, info-accounting ~126 MB, connectivity ~73 MB,
# round-frontier ~1.2 MB at --fast on the reference container) but far
# below the baselines before each optimisation (1528 / 578 / 419 /
# 28 MB) — they catch a lost optimisation, not runtime noise.
# coloring-contrast (3,900,984 bytes, ~3.7 MB) is tight: its 6 MiB
# ceiling sits below the 14,147,208 bytes it allocated while every
# Prng draw boxed its state words, and far below the 22.6 MB of the
# list-based Palette, so losing the allocation-free draws, the
# sorted-array lists or the copy-free players fails the gate. Since
# every reading follows a minor collection, alloc_bytes at jobs=1 is
# exact, not good to one minor heap, and a tight ceiling does not flap.
# upper-bounds (20,110,672 bytes, ~19.2 MB) is tight too: its 24 MiB
# ceiling sits below the 32,272,600 bytes it allocated while every
# graph freeze radix-sorted keys that arrived in order and the AGM
# referee parsed all Borůvka rounds before decoding the first, so
# losing either fails the gate.
# Raise a ceiling only with a PERFORMANCE.md update explaining the new
# cost.
#
# Run from the repo root after a build (`make alloc-smoke` does both).
set -euo pipefail

BENCH=${BENCH:-./_build/default/bench/main.exe}
JSONCHECK=${JSONCHECK:-./_build/default/bin/jsoncheck.exe}

fail() { echo "alloc-smoke: FAIL: $*" >&2; exit 1; }

# bench writes its BENCH_*.json into its working directory. It runs in
# _build/smoke/ (absolute binary paths), so the committed files at the
# repo root stay untouched; the checks read the files written there.
abs() { case "$1" in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
BENCH=$(abs "$BENCH")
out=$PWD/_build/smoke
mkdir -p "$out"
rm -f "$out/BENCH_tables.json"

(cd "$out" && "$BENCH" tables --fast -j 1 > /dev/null) || fail "bench tables run failed"
[ -s "$out/BENCH_tables.json" ] || fail "BENCH_tables.json missing or empty"
"$JSONCHECK" --tables "$out/BENCH_tables.json" || fail "BENCH_tables.json failed schema validation"

# id -> ceiling in bytes (committed; see header comment before raising).
gate() { # id ceiling_bytes
  local id="$1" ceiling="$2"
  # Each line is one flat JSON object; alloc_bytes is a bare integer.
  local line bytes
  line=$(grep -F "\"id\":\"$id\"" "$out/BENCH_tables.json") || fail "no line for id $id"
  bytes=$(printf '%s' "$line" | sed -n 's/.*"alloc_bytes":\([0-9]*\).*/\1/p')
  [ -n "$bytes" ] || fail "no alloc_bytes field on the $id line"
  if [ "$bytes" -gt "$ceiling" ]; then
    fail "$id allocated $bytes bytes at --fast (ceiling $ceiling)"
  fi
  echo "alloc-smoke: $id $bytes bytes <= $ceiling ok"
}

gate bcc              67108864    # 64 MB  (measured ~1.6 MB; baseline 1528 MB)
gate info-accounting  202375168   # 193 MB (measured ~126 MB; baseline 578 MB)
gate connectivity     146800640   # 140 MB (measured ~73 MB;  baseline 419 MB)
gate round-frontier   8388608     # 8 MB   (measured ~1.2 MB; baseline 28 MB)
gate coloring-contrast 6291456    # 6 MiB  (measured ~3.7 MB; boxed Prng 13.5 MB; list Palette 22.6 MB)
gate upper-bounds     25165824    # 24 MiB (measured ~19.2 MB; sorted freezes and all-rounds parse 30.8 MB)

echo "alloc-smoke: OK"
