#!/usr/bin/env bash
# End-to-end smoke of the sketchd service: start the daemon on a
# kernel-chosen port, fetch the catalogue, run the same experiment twice
# (second response must be byte-identical and served from the cache),
# check the stats counters say exactly that, then shut down cleanly and
# require the process to actually exit. The daemon's descriptor table
# must already be grown for its connection cap when it starts.
#
# Then the event engine at scale: `bench serve --connections 5000` holds
# five thousand idle connections on the epoll loop (ulimit raised first,
# clamped to the hard limit) while the latency mixes run, sheds the
# over-cap extras with 503 frames, and the resulting BENCH_serve.json
# (written to _build/smoke/, not over the committed copy) must parse.
#
# Run from the repo root after a build (`make serve-smoke` does both).
set -euo pipefail

SKETCHD=${SKETCHD:-./_build/default/bin/sketchd.exe}
SKETCHCTL=${SKETCHCTL:-./_build/default/bin/sketchctl.exe}
BENCH=${BENCH:-./_build/default/bench/main.exe}
JSONCHECK=${JSONCHECK:-./_build/default/bin/jsoncheck.exe}

tmp=$(mktemp -d)
daemon_pid=

cleanup() {
  if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill -9 "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

# bench writes its BENCH_*.json into its working directory. It runs in
# _build/smoke/ (absolute binary paths), so the committed files at the
# repo root stay untouched; the checks read the files written there.
abs() { case "$1" in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
BENCH=$(abs "$BENCH")
out=$PWD/_build/smoke
mkdir -p "$out"
rm -f "$out/BENCH_serve.json"

"$SKETCHD" --port-file "$tmp/port" -q >"$tmp/daemon.out" &
daemon_pid=$!

for _ in $(seq 1 100); do
  [ -s "$tmp/port" ] && break
  kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died on startup: $(cat "$tmp/daemon.out")"
  sleep 0.1
done
[ -s "$tmp/port" ] || fail "daemon never wrote its port file"
port=$(cat "$tmp/port")
echo "serve-smoke: daemon pid $daemon_pid on port $port"

# The daemon grows its descriptor table for --max-conns (8192) plus 64
# before it starts a thread, so accepting a herd never waits on the
# kernel growing the table; FDSize in /proc shows the table's slots.
want=8256
limit=$(ulimit -n)
if [ "$limit" != "unlimited" ] && [ "$limit" -lt "$want" ]; then want=$limit; fi
fdsize=$(awk '/^FDSize:/ { print $2 }' "/proc/$daemon_pid/status")
[ -n "$fdsize" ] || fail "no FDSize in /proc/$daemon_pid/status"
[ "$fdsize" -ge "$want" ] || fail "descriptor table not reserved at start: FDSize $fdsize < $want"

# Catalogue: must be ok and list the experiment we are about to run.
"$SKETCHCTL" list -p "$port" >"$tmp/list.json"
grep -q '"claim31"' "$tmp/list.json" || fail "catalogue does not list claim31"

# The determinism-and-cache pin: two identical runs, byte-identical
# payloads, the second one a cache hit.
"$SKETCHCTL" run claim31 --smoke --seed 1 -p "$port" >"$tmp/r1.json"
"$SKETCHCTL" run claim31 --smoke --seed 1 -p "$port" >"$tmp/r2.json"
diff "$tmp/r1.json" "$tmp/r2.json" >/dev/null || fail "cached response differs from computed one"
grep -q '"ok":true' "$tmp/r1.json" || fail "run reported an error: $(cat "$tmp/r1.json")"

"$SKETCHCTL" stats -p "$port" >"$tmp/stats.json"
grep -q '"hits":1' "$tmp/stats.json" || fail "expected exactly one cache hit: $(cat "$tmp/stats.json")"
grep -q '"misses":1' "$tmp/stats.json" || fail "expected exactly one cache miss"
grep -q '"version":' "$tmp/stats.json" || fail "stats does not report a version"
grep -q '"connections":{"open":' "$tmp/stats.json" || fail "stats does not report connections"

# The cache RPC: the run above left exactly one entry; list it, wipe it
# by prefix, and see the invalidation counted (not as an eviction).
"$SKETCHCTL" cache stats -p "$port" >"$tmp/cstats.json"
grep -q '"entries":1' "$tmp/cstats.json" || fail "cache stats should show one entry: $(cat "$tmp/cstats.json")"
"$SKETCHCTL" cache keys -p "$port" >"$tmp/ckeys.json"
grep -q '"matched":1' "$tmp/ckeys.json" || fail "cache keys should match the one entry: $(cat "$tmp/ckeys.json")"
"$SKETCHCTL" cache invalidate --prefix "" -p "$port" >"$tmp/cinv.json"
grep -q '"invalidated":1' "$tmp/cinv.json" || fail "invalidate should remove the one entry: $(cat "$tmp/cinv.json")"
"$SKETCHCTL" cache stats -p "$port" >"$tmp/cstats2.json"
grep -q '"entries":0' "$tmp/cstats2.json" || fail "cache should be empty after invalidate"
grep -q '"invalidations":1' "$tmp/cstats2.json" || fail "invalidation not counted"
grep -q '"evictions":0' "$tmp/cstats2.json" || fail "invalidation must not count as eviction"

# Graceful shutdown: the RPC is acked and the process exits by itself.
"$SKETCHCTL" shutdown -p "$port" >"$tmp/bye.json"
grep -q '"ok":true' "$tmp/bye.json" || fail "shutdown not acked"
for _ in $(seq 1 100); do
  kill -0 "$daemon_pid" 2>/dev/null || { daemon_pid=; break; }
  sleep 0.1
done
[ -z "$daemon_pid" ] || fail "daemon still running 10s after shutdown RPC"

# The event engine at scale: 5000 idle connections held for the whole
# bench (≈ 10k descriptors — client and in-process daemon share the
# process), the over-cap extras shed with 503 conn-limit frames, and a
# sampled herd still answering at the end. Raise the fd soft limit first,
# clamped to the hard limit; skip only if the hard limit cannot fit.
conns=5000
hard=$(ulimit -Hn)
want=12000
if [ "$hard" != "unlimited" ] && [ "$want" -gt "$hard" ]; then want=$hard; fi
ulimit -n "$want" 2>/dev/null || true
soft=$(ulimit -n)
if [ "$soft" != "unlimited" ] && [ "$soft" -lt 10500 ]; then
  conns=$(( (soft - 500) / 2 ))
  echo "serve-smoke: fd limit $soft too small for 5000 connections; scaling to $conns"
fi
# The bench must refuse a malformed or negative number with the usage
# line and exit 2 (0 is valid: no herd).
for bad in 5k -5; do
  rc=0; (cd "$out" && "$BENCH" serve --connections "$bad") >/dev/null 2>&1 || rc=$?
  [ "$rc" = 2 ] || fail "bench accepted --connections $bad (exit $rc, want 2)"
done
(cd "$out" && "$BENCH" serve --fast --connections "$conns") >"$tmp/bench_serve.out"
grep -q "target=$conns" "$tmp/bench_serve.out" || fail "connection herd did not run: $(cat "$tmp/bench_serve.out")"
grep -q 'shed=8 (saw 8/8 conn-limit frames)' "$tmp/bench_serve.out" \
  || fail "over-cap connects were not shed with 503 frames: $(cat "$tmp/bench_serve.out")"
[ -s "$out/BENCH_serve.json" ] || fail "bench serve wrote no BENCH_serve.json"
"$JSONCHECK" "$out/BENCH_serve.json" || fail "BENCH_serve.json is not valid JSON-lines"
grep -q '"mix":"connections"' "$out/BENCH_serve.json" || fail "BENCH_serve.json has no connections line"

echo "serve-smoke: OK (byte-identical cached replay, cache RPC, clean shutdown, ${conns}-connection herd)"
