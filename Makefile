.PHONY: all build test examples smoke smoke-json serve-smoke trace-smoke cluster-smoke streams-smoke alloc-smoke doc check bench bench-release clean

all: build

build:
	dune build @all

test: build
	dune runtest

# Runs every examples/*.exe end to end (~0.5 s in total, no files
# written). sketch_gallery is the only text output of the two-round and
# hypergraph multi-round stats outside the golden tables.
examples: build
	for e in _build/default/examples/*.exe; do echo "== $$e"; $$e || exit 1; done

# Tiny end-to-end run exercising the parallel trial engine (jobs > 1):
# must print the same table as --jobs 1, per the determinism contract.
smoke: build
	dune exec bin/sketchlb.exe -- claim31 -m 5 --samples 3 --seed 1 --jobs 2
	dune exec bin/sketchlb.exe -- claim31 -m 5 --samples 3 --seed 1 --jobs 1

# Every experiment at shrunk sizes through the JSON-lines renderer,
# validated by the bundled parser. Built binaries are invoked directly:
# two `dune exec` processes joined by a pipe deadlock on the build lock.
smoke-json: build
	./_build/default/bin/sketchlb.exe all --fast --jobs 1 --format json --out - \
	  | ./_build/default/bin/jsoncheck.exe

# End-to-end smoke of the sketchd service: random port, catalogue, a
# cached-vs-uncached run pair (byte-identical payloads + a cache hit in
# stats), the cache RPC, graceful shutdown, then a 5000-idle-connection
# herd on the poll engine. See scripts/serve_smoke.sh.
serve-smoke: build
	bash scripts/serve_smoke.sh

# Smoke of the tracing layer: --trace must leave table output
# byte-identical and produce a valid Chrome trace_event JSON file with the
# expected spans. See scripts/trace_smoke.sh.
trace-smoke: build
	bash scripts/trace_smoke.sh

# End-to-end smoke of the sketchproxy routing tier: 1 proxy + 2 backends,
# simulate through the proxy, kill -9 the serving backend, failover must
# be byte-identical and the cluster RPC must report the death; then
# `bench cluster` writes _build/smoke/BENCH_cluster.json (1000 samples
# per mix), as CI runs it. See scripts/cluster_smoke.sh.
cluster-smoke: build
	bash scripts/cluster_smoke.sh

# End-to-end smoke of the multi-pass wing: round-frontier and
# stream-matching at smoke sizes, `bench streams --fast` with a
# validated _build/smoke/BENCH_streams.json, and the multipass simulate protocols
# through sketchd + sketchproxy with byte-identical cached replay. See
# scripts/streams_smoke.sh.
streams-smoke: build
	bash scripts/streams_smoke.sh

# Allocation regression gate: write _build/smoke/BENCH_tables.json at
# --fast with jobs=1, validate its schema (GC columns included), and fail
# if a gated experiment's body allocation exceeds its committed ceiling.
# The smoke targets never touch the committed BENCH_*.json files; see
# PERFORMANCE.md §10 for the commands that regenerate those. See
# scripts/alloc_smoke.sh and PERFORMANCE.md.
alloc-smoke: build
	bash scripts/alloc_smoke.sh

# The odoc API site (every lib/ module with its interface docs), rendered
# to _build/default/_doc/_html. Needs odoc on the switch.
doc:
	dune build @doc

check: build test examples smoke smoke-json serve-smoke trace-smoke cluster-smoke streams-smoke alloc-smoke

# Regenerates every table and writes BENCH_tables.json (one JSON line per
# table: id, title, wall-clock, body-only alloc_bytes and GC collection
# counts, rows). See PERFORMANCE.md for how to read the GC columns.
bench: build
	dune exec bench/main.exe -- tables

# Same, under the release profile at shrunk sizes — what the CI
# bench-release job runs. jobs=1 so the domain-local GC counters cover
# the full table.
bench-release:
	dune build --profile release @all
	./_build/default/bench/main.exe tables --fast -j 1
	./_build/default/bin/jsoncheck.exe --tables BENCH_tables.json

clean:
	dune clean
