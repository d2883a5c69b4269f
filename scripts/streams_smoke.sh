#!/usr/bin/env bash
# End-to-end smoke of the multi-pass protocol wing: both frontier
# experiments at smoke sizes through the JSON renderer, the streams
# bench (BENCH_streams.json, written to _build/smoke/ rather than over
# the committed copy, must parse and carry both families), and
# the new simulate protocols served through sketchd and sketchproxy
# with byte-identical cache-hit replay.
#
# Run from the repo root after a build (`make streams-smoke` does both).
set -euo pipefail

SKETCHLB=${SKETCHLB:-./_build/default/bin/sketchlb.exe}
SKETCHD=${SKETCHD:-./_build/default/bin/sketchd.exe}
SKETCHPROXY=${SKETCHPROXY:-./_build/default/bin/sketchproxy.exe}
SKETCHCTL=${SKETCHCTL:-./_build/default/bin/sketchctl.exe}
BENCH=${BENCH:-./_build/default/bench/main.exe}
JSONCHECK=${JSONCHECK:-./_build/default/bin/jsoncheck.exe}

tmp=$(mktemp -d)
daemon_pid=
proxy_pid=

cleanup() {
  for pid in "$proxy_pid" "$daemon_pid"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() { echo "streams-smoke: FAIL: $*" >&2; exit 1; }

# bench writes its BENCH_*.json into its working directory. It runs in
# _build/smoke/ (absolute binary paths), so the committed files at the
# repo root stay untouched; the checks read the files written there.
abs() { case "$1" in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
BENCH=$(abs "$BENCH")
out=$PWD/_build/smoke
mkdir -p "$out"

wait_port() { # file pid what
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    kill -0 "$2" 2>/dev/null || fail "$3 died on startup"
    sleep 0.1
  done
  fail "$3 never wrote its port file"
}

# 1. Both frontier experiments at smoke sizes, through the JSON-lines
#    renderer, validated by the bundled parser.
"$SKETCHLB" round-frontier -m 5 --rounds 1,2,4 --seed 53 --format json --out - \
  | "$JSONCHECK" || fail "round-frontier JSON did not validate"
"$SKETCHLB" stream-matching -n 24 --eps 50,25 --seed 59 --format json --out - \
  | "$JSONCHECK" || fail "stream-matching JSON did not validate"
echo "streams-smoke: experiments OK"

# 2. The streams bench: BENCH_streams.json must parse and carry a
#    per-round rounds family and a per-pass passes family.
rm -f "$out/BENCH_streams.json"
(cd "$out" && "$BENCH" streams --fast) >"$tmp/bench.out" || fail "bench streams failed: $(cat "$tmp/bench.out")"
[ -s "$out/BENCH_streams.json" ] || fail "bench streams wrote no BENCH_streams.json"
"$JSONCHECK" "$out/BENCH_streams.json" || fail "BENCH_streams.json is not valid JSON-lines"
grep -q '"bench":"rounds"' "$out/BENCH_streams.json" || fail "no rounds family in BENCH_streams.json"
grep -q '"bench":"passes"' "$out/BENCH_streams.json" || fail "no passes family in BENCH_streams.json"
grep -q '"round_max":\[' "$out/BENCH_streams.json" || fail "rounds family lacks per-round curves"
grep -q '"pass_memory_bits":\[' "$out/BENCH_streams.json" || fail "passes family lacks per-pass memory"
echo "streams-smoke: bench OK"

# 3. The multipass protocols through sketchd: run each once, replay it,
#    require byte-identical responses, then confirm the cache counted
#    one miss + one hit per protocol.
"$SKETCHD" --port-file "$tmp/port" -q >"$tmp/daemon.out" &
daemon_pid=$!
wait_port "$tmp/port" "$daemon_pid" "daemon"
port=$(cat "$tmp/port")
echo "streams-smoke: daemon pid $daemon_pid on port $port"

protocols="prefix-mis-r4 luby-mis-degree stream-matching"
count=0
for proto in $protocols; do
  "$SKETCHCTL" simulate "$proto" --graph gnp -n 32 --prob 0.2 --seed 9 -p "$port" >"$tmp/$proto.1.json"
  grep -q '"ok":true' "$tmp/$proto.1.json" || fail "$proto reported an error: $(cat "$tmp/$proto.1.json")"
  "$SKETCHCTL" simulate "$proto" --graph gnp -n 32 --prob 0.2 --seed 9 -p "$port" >"$tmp/$proto.2.json"
  diff "$tmp/$proto.1.json" "$tmp/$proto.2.json" >/dev/null \
    || fail "$proto cached replay not byte-identical"
  count=$((count + 1))
done
grep -q '"round_max":\[' "$tmp/prefix-mis-r4.1.json" || fail "prefix-mis-r4 lacks per-round curve"
grep -q '"pass_memory_bits":\[' "$tmp/stream-matching.1.json" \
  || fail "stream-matching lacks per-pass memory"
"$SKETCHCTL" stats -p "$port" >"$tmp/stats.json"
grep -q "\"hits\":$count" "$tmp/stats.json" || fail "expected $count cache hits: $(cat "$tmp/stats.json")"
grep -q "\"misses\":$count" "$tmp/stats.json" || fail "expected $count cache misses"

# 4. An unknown protocol is a 400 that lists the valid ids, including
#    the multipass wing.
set +e
"$SKETCHCTL" simulate no-such-protocol -n 8 -p "$port" >"$tmp/unknown.json" 2>&1
set -e
grep -q '"code":400' "$tmp/unknown.json" || fail "unknown protocol is not a 400: $(cat "$tmp/unknown.json")"
grep -q 'stream-matching' "$tmp/unknown.json" || fail "400 message does not list the valid protocols"

# 5. The same protocol through sketchproxy: routed to the backend, the
#    second call is a relayed cache hit, byte-identical.
"$SKETCHPROXY" --backend "127.0.0.1:$port" --port-file "$tmp/proxy.port" 2>"$tmp/proxy.log" >/dev/null &
proxy_pid=$!
wait_port "$tmp/proxy.port" "$proxy_pid" "proxy"
pport=$(cat "$tmp/proxy.port")
"$SKETCHCTL" simulate luby-mis-random --graph gnp -n 32 --prob 0.2 --seed 9 -p "$pport" >"$tmp/p1.json"
grep -q '"ok":true' "$tmp/p1.json" || fail "simulate through proxy failed: $(cat "$tmp/p1.json")"
"$SKETCHCTL" simulate luby-mis-random --graph gnp -n 32 --prob 0.2 --seed 9 -p "$pport" >"$tmp/p2.json"
diff "$tmp/p1.json" "$tmp/p2.json" >/dev/null || fail "proxied cached replay not byte-identical"

# 6. Drain: proxy first, then the backend.
"$SKETCHCTL" shutdown -p "$pport" >/dev/null
for _ in $(seq 1 100); do
  kill -0 "$proxy_pid" 2>/dev/null || { proxy_pid=; break; }
  sleep 0.1
done
[ -z "$proxy_pid" ] || fail "proxy still running 10s after shutdown RPC"
"$SKETCHCTL" shutdown -p "$port" >/dev/null
for _ in $(seq 1 100); do
  kill -0 "$daemon_pid" 2>/dev/null || { daemon_pid=; break; }
  sleep 0.1
done
[ -z "$daemon_pid" ] || fail "daemon still running 10s after shutdown RPC"

echo "streams-smoke: OK (experiments, bench, byte-identical replay through sketchd and sketchproxy)"
