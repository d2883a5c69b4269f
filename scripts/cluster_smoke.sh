#!/usr/bin/env bash
# End-to-end smoke of the sketchproxy routing tier: boot one proxy in
# front of two sketchd backends, simulate through the proxy (twice —
# the replay must be byte-identical), kill -9 the backend that served
# it, re-run and require the failover response to be byte-for-byte the
# same, check the `cluster` RPC reports the death, then drain everything
# cleanly. Finally `bench cluster` (1 proxy + 4 in-process backends)
# records the latency mixes in BENCH_cluster.json (written to
# _build/smoke/, not over the committed copy), which must parse and
# carry 1000 samples for each of the four mixes.
#
# Run from the repo root after a build (`make cluster-smoke` does both).
set -euo pipefail

SKETCHD=${SKETCHD:-./_build/default/bin/sketchd.exe}
SKETCHPROXY=${SKETCHPROXY:-./_build/default/bin/sketchproxy.exe}
SKETCHCTL=${SKETCHCTL:-./_build/default/bin/sketchctl.exe}
BENCH=${BENCH:-./_build/default/bench/main.exe}
JSONCHECK=${JSONCHECK:-./_build/default/bin/jsoncheck.exe}

tmp=$(mktemp -d)
b1_pid=
b2_pid=
proxy_pid=

cleanup() {
  for pid in "$proxy_pid" "$b1_pid" "$b2_pid"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() { echo "cluster-smoke: FAIL: $*" >&2; exit 1; }

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

# Backends log one line per request on stderr; the logs tell us which
# backend actually served the simulate, so we can kill the right one.
"$SKETCHD" --port-file "$tmp/b1.port" 2>"$tmp/b1.log" >/dev/null &
b1_pid=$!
"$SKETCHD" --port-file "$tmp/b2.port" 2>"$tmp/b2.log" >/dev/null &
b2_pid=$!
wait_port "$tmp/b1.port" "$b1_pid" "backend 1"
wait_port "$tmp/b2.port" "$b2_pid" "backend 2"
b1_port=$(cat "$tmp/b1.port")
b2_port=$(cat "$tmp/b2.port")

"$SKETCHPROXY" --backend "127.0.0.1:$b1_port" --backend "127.0.0.1:$b2_port" \
  --port-file "$tmp/proxy.port" 2>"$tmp/proxy.log" >/dev/null &
proxy_pid=$!
wait_port "$tmp/proxy.port" "$proxy_pid" "proxy"
pport=$(cat "$tmp/proxy.port")
echo "cluster-smoke: proxy pid $proxy_pid on port $pport (backends $b1_port, $b2_port)"

# 1. The proxy answers ping itself and says so.
"$SKETCHCTL" ping -p "$pport" >"$tmp/ping.json"
grep -q '"role":"proxy"' "$tmp/ping.json" || fail "ping through proxy lacks role=proxy"

# 2. Simulate through the proxy, twice: the replay is a backend cache hit
#    relayed by the proxy and must be byte-identical.
sim() { "$SKETCHCTL" simulate two-round-mm --graph gnp -n 48 --prob 0.2 --seed 3 -p "$pport"; }
sim >"$tmp/s1.json"
grep -q '"ok":true' "$tmp/s1.json" || fail "simulate reported an error: $(cat "$tmp/s1.json")"
sim >"$tmp/s2.json"
diff "$tmp/s1.json" "$tmp/s2.json" >/dev/null || fail "cached replay differs"

# 3. Kill -9 the backend that served it; consistent hashing means the
#    other one never saw a simulate.
if grep -q "op=simulate" "$tmp/b1.log"; then
  victim_pid=$b1_pid; victim=b1; survivor_port=$b2_port; b1_pid=
else
  grep -q "op=simulate" "$tmp/b2.log" || fail "neither backend logged the simulate"
  victim_pid=$b2_pid; victim=b2; survivor_port=$b1_port; b2_pid=
fi
kill -9 "$victim_pid"
echo "cluster-smoke: killed $victim (pid $victim_pid)"

# 4. Failover: the surviving backend recomputes the byte-identical
#    response — the determinism contract, end to end.
sim >"$tmp/s3.json"
diff "$tmp/s1.json" "$tmp/s3.json" >/dev/null || fail "failover response not byte-identical"

# 5. The cluster RPC reports the death.
"$SKETCHCTL" cluster -p "$pport" >"$tmp/cluster.json"
grep -q '"healthy":false' "$tmp/cluster.json" || fail "cluster RPC does not report the dead backend"
grep -q '"healthy":true' "$tmp/cluster.json" || fail "cluster RPC lost the surviving backend"

# 6. Aggregated stats still answer with one backend down.
"$SKETCHCTL" stats -p "$pport" >"$tmp/stats.json"
grep -q '"ok":true' "$tmp/stats.json" || fail "stats through proxy failed"
grep -q '"cluster":{"backends":2,"healthy":1}' "$tmp/stats.json" \
  || fail "aggregated stats disagree about cluster health: $(cat "$tmp/stats.json")"

# 7. Graceful drain: proxy first, then the surviving backend.
"$SKETCHCTL" shutdown -p "$pport" >"$tmp/bye.json"
grep -q '"ok":true' "$tmp/bye.json" || fail "proxy shutdown not acked"
for _ in $(seq 1 100); do
  kill -0 "$proxy_pid" 2>/dev/null || { proxy_pid=; break; }
  sleep 0.1
done
[ -z "$proxy_pid" ] || fail "proxy still running 10s after shutdown RPC"

"$SKETCHCTL" shutdown -p "$survivor_port" >/dev/null
survivor_pid=$b1_pid$b2_pid # whichever was not killed
for _ in $(seq 1 100); do
  kill -0 "$survivor_pid" 2>/dev/null || { survivor_pid=; break; }
  sleep 0.1
done
[ -z "$survivor_pid" ] || fail "surviving backend still running 10s after shutdown RPC"
b1_pid=
b2_pid=

# 8. Latency through the routing tier: every line of BENCH_cluster.json
#    is one mix of 1000 samples, and all four mixes are there.
rm -f "$out/BENCH_cluster.json"
(cd "$out" && "$BENCH" cluster --fast) >"$tmp/bench_cluster.out"
"$JSONCHECK" "$out/BENCH_cluster.json" || fail "BENCH_cluster.json is not valid JSON-lines"
if grep -v '"n":1000,' "$out/BENCH_cluster.json" | grep -q .; then
  fail "BENCH_cluster.json has a line without n=1000: $(cat "$out/BENCH_cluster.json")"
fi
for mix in ping run-uncached run-cached simulate-cached; do
  grep -q "\"mix\":\"$mix\"" "$out/BENCH_cluster.json" || fail "BENCH_cluster.json has no $mix line"
done

echo "cluster-smoke: OK (byte-identical failover, health reported, clean drain, latency bench)"
