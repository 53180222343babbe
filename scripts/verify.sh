#!/usr/bin/env bash
# Offline verification gate: tier-1 build + the whole workspace's tests
# and the benchmark package's, the determinism / equivalence suites, the
# allocation budgets and the codec and JSON mutation fuzzes by name, the
# benchmark smoke (`create-benchmark all --quick`, every in-run check),
# bench smoke runs, the observability smoke check, the
# instrumentation-overhead gate, and the SIGKILL recovery smoke (which
# also asserts the data directory holds no JSONL copy). No network
# access required.
set -euo pipefail
cd "$(dirname "$0")/.."

export GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite (every workspace crate) =="
cargo test -q --workspace

echo "== benchmark package: unit tests (BENCHMARK.json in step with the code) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== determinism: parallel batch ingestion =="
cargo test -q --test parallel_determinism

echo "== equivalence: DAAT vs exhaustive query execution =="
cargo test -q --test query_equivalence

echo "== equivalence: scatter-gather across shard counts {1,2,4,7} =="
cargo test -q --test shard_equivalence

echo "== evented server: keep-alive, backpressure, drain under load =="
cargo test -q --test server_storm

echo "== allocation budgets: allocations per submit, index heap vs postings_bytes, snapshot drop, resident bytes, heap_bytes vs allocator =="
cargo test -q --test alloc_budget

echo "== codec mutation fuzz: hostile segment blobs are errors or round-trip, never abort =="
cargo test -q -p create-index --test codec_mutation

echo "== JSON mutation fuzz: hostile documents are errors or round-trip; stored text is canonical =="
cargo test -q -p create-docstore --test json_mutation

echo "== benchmark smoke: four workloads at 500 reports, every in-run check =="
# Exits non-zero when any check fails (non-2xx, unequal round digests,
# a gold cohort, a hit ratio, compaction counts, reopen after ingest).
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- all --quick

echo "== bench smoke: ingest throughput (200 docs) =="
out="$(mktemp)"
cargo run -q --release -p create-bench --bin bench_ingest -- 200 "$out"
python3 - "$out" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
zeros = [s["stage"] for s in r["pipeline_stages"] if s["count"] == 0]
for s in r["pipeline_stages"]:
    print(f"  stage {s['stage']}: {s['count']} observations")
if zeros:
    print(f"verify: FAIL — pipeline stage histograms with zero observations: {zeros}", file=sys.stderr)
    sys.exit(1)
EOF
rm -f "$out"


echo "== bench smoke: search throughput (200 docs) =="
out="$(mktemp)"
cargo run -q --release -p create-bench --bin bench_search -- 200 "$out"
rm -f "$out"

echo "== cohort gate: criteria queries, pushdown speedup, facet bitmaps (1000 docs) =="
# Two attempts: the naive-plan baseline swings on noisy CI hosts, so a
# single marginal run is retried once before failing.
out="$(mktemp)"
for attempt in 1 2; do
    cargo run -q --release -p create-bench --bin bench_cohort -- 1000 "$out"
    rc=0
    python3 - "$out" <<'EOF' || rc=$?
import json, sys
r = json.load(open(sys.argv[1]))
if not r["plans_bit_identical"]:
    print("verify: FAIL — Optimized and Naive cohort plans disagreed", file=sys.stderr)
    sys.exit(2)  # never retried: a correctness failure, not noise
if r["total_matched_across_workloads"] <= 0:
    print("verify: FAIL — cohort workloads matched no documents", file=sys.stderr)
    sys.exit(2)
runs = {row["workload"]: row for row in r["runs"]}
for w in ["filter", "temporal", "keyword_pushdown", "facets"]:
    if w not in runs:
        print(f"verify: FAIL — cohort workload {w} missing from the report", file=sys.stderr)
        sys.exit(2)
    print(f"  {w}: pushdown {runs[w]['optimized_qps']:.1f} q/s vs naive {runs[w]['naive_qps']:.1f} q/s "
          f"(speedup {runs[w]['speedup']:.2f}x)")
fb = r["facet_bitmaps"]
print(f"  facet bitmaps: {fb['values']} values, {fb['bytes_per_doc']:.1f} bytes/doc")
if fb["docs"] != r["n_docs"]:
    print("verify: FAIL — facet bitmaps do not cover every ingested document", file=sys.stderr)
    sys.exit(2)
# The pushdown gate: scoring only bitmap-eligible documents must beat
# rank-then-filter on the selective keyword workload.
sys.exit(0 if runs["keyword_pushdown"]["speedup"] >= 1.3 else 1)
EOF
    if [ "$rc" = 0 ]; then break; fi
    if [ "$rc" = 2 ] || [ "$attempt" = 2 ]; then
        echo "verify: FAIL — cohort keyword pushdown did not hold the 1.3x gate" >&2
        exit 1
    fi
    echo "  pushdown speedup below 1.3x on attempt $attempt; retrying once"
done
rm -f "$out"

echo "== cohort retrieval: gold P/R, plan equivalence, v2/v3 migration smoke =="
cargo test -q --test cohort_retrieval

echo "== bench smoke: concurrent search under streaming ingest (200 docs) =="
out="$(mktemp)"
cargo run -q --release -p create-bench --bin bench_concurrent -- 200 "$out"
python3 - "$out" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
during = r["searches_during_ingest"]
p99 = r["read_p99_seconds"]
ingest = r["max_batch_ingest_seconds"]
print(f"  {during} searches during ingest; read p99 {p99*1e3:.3f} ms vs batch ingest {ingest*1e3:.1f} ms")
if during <= 0:
    print("verify: FAIL — no searches completed while ingest was in flight", file=sys.stderr)
    sys.exit(1)
if p99 >= ingest / 2:
    print("verify: FAIL — read p99 not well below a single batch-ingest duration", file=sys.stderr)
    sys.exit(1)
if r["publish_latency"]["count"] < 1:
    print("verify: FAIL — snapshot publish histogram recorded no observations", file=sys.stderr)
    sys.exit(1)
# Shard-sweep gate: every sweep width present, and batch ingest with
# shards pinned to the core count must hold >=90% of the single-shard
# throughput (within scheduler noise; on multi-core hosts it should win
# outright).
sweep = {row["shards"]: row for row in r["shard_sweep"]}
if sorted(sweep) != [1, 2, 4, 8]:
    print(f"verify: FAIL — shard sweep missing counts: {sorted(sweep)}", file=sys.stderr)
    sys.exit(1)
cores = r["meta"]["cpus"]
native = min(sweep, key=lambda s: (abs(s - cores), s))
base, shard = sweep[1]["ingest_docs_per_sec"], sweep[native]["ingest_docs_per_sec"]
ratio = shard / base
print(f"  ingest @ 1 shard {base:.1f} docs/s vs @ {native} shards {shard:.1f} docs/s (ratio {ratio:.3f}, {cores} cores)")
if ratio < 0.90:
    print("verify: FAIL — sharded batch ingest fell below the single-shard baseline", file=sys.stderr)
    sys.exit(1)
# Connection-storm gate: at the default admission limits every request
# must complete (no errors, no 429/503 shed), the in-flight requests at
# shutdown must all drain, and keep-alive p99 must stay inside a bound
# loose enough for noisy CI hosts. The keep-alive-vs-close speedup is
# recorded but not gated — host noise swings the close baseline too much
# for a hard ratio threshold in CI.
cs = r["connection_storm"]
print(f"  storm: {cs['requests_total']} requests over {cs['connections']} conns "
      f"(depth {cs['pipeline_depth']}) — {cs['keepalive_qps']:.0f} req/s, "
      f"p99 {cs['keepalive_p99_seconds']*1e3:.1f} ms, "
      f"speedup vs close {cs['speedup_vs_close']:.1f}x")
if cs["request_errors"] != 0:
    print("verify: FAIL — connection storm finished with request errors", file=sys.stderr)
    sys.exit(1)
if cs["requests_shed"] != 0:
    print("verify: FAIL — default admission limits shed storm traffic", file=sys.stderr)
    sys.exit(1)
if cs["requests_ok"] != cs["requests_total"]:
    print("verify: FAIL — storm requests went missing", file=sys.stderr)
    sys.exit(1)
if cs["keepalive_p99_seconds"] >= 2.0:
    print("verify: FAIL — storm keep-alive p99 above 2s", file=sys.stderr)
    sys.exit(1)
drain = cs["drain_probe"]
if drain["errors"] != 0 or drain["completed"] != drain["clients"]:
    print("verify: FAIL — graceful drain dropped in-flight requests", file=sys.stderr)
    sys.exit(1)
EOF
rm -f "$out"

echo "== server smoke: keep-alive, pipelining, close, 400/413 (raw sockets) =="
cargo run -q --release -p create-bench --bin server_smoke

echo "== trace smoke: /trace/{id} span tree over live shard fan-out =="
trace="$(mktemp)"
cargo run -q --release -p create-bench --bin trace_smoke > "$trace"
for needle in \
    '"keyword_shard"' \
    '"graph_shard"' \
    '"parent":' \
    '"traceId":'
do
    grep -qF "$needle" "$trace" || {
        echo "verify: FAIL — trace_smoke span tree missing $needle" >&2
        exit 1
    }
done
rm -f "$trace"

echo "== snapshot isolation: concurrent readers, torn-read + cache checks =="
cargo test -q --test snapshot_stress

echo "== obs smoke: /metrics series from every instrumented layer =="
metrics="$(mktemp)"
cargo run -q --release -p create-bench --bin metrics_smoke > "$metrics"
for series in \
    'create_pipeline_stage_seconds_bucket{stage="section_split"' \
    'create_pipeline_stage_seconds_bucket{stage="ner"' \
    'create_pipeline_stage_seconds_bucket{stage="temporal_re"' \
    'create_pipeline_stage_seconds_bucket{stage="graph_build"' \
    'create_pipeline_stage_seconds_bucket{stage="index_write"' \
    'create_query_stage_seconds_bucket{stage="parse"' \
    'create_query_stage_seconds_bucket{stage="plan"' \
    'create_query_stage_seconds_bucket{stage="filter"' \
    'create_query_stage_seconds_bucket{stage="temporal"' \
    'create_query_stage_seconds_bucket{stage="facet_count"' \
    'create_query_stage_seconds_bucket{stage="merge"' \
    'create_plan_nodes_total' \
    'create_bitmap_intersections_total' \
    'create_daat_postings_advanced_total' \
    'create_query_cache_hits_total' \
    'create_graph_exec_nodes_visited_total' \
    'create_snapshot_publish_total' \
    'create_snapshot_publish_seconds_bucket' \
    'create_shard_generation{shard="0"' \
    'create_shard_publish_total{shard="0"' \
    'create_shard_cache_entries{shard="0"' \
    'create_open_bad_config_total' \
    'create_resident_bytes{component="postings"' \
    'create_resident_bytes{component="graph"' \
    'create_resident_bytes{component="docstore"' \
    'create_resident_bytes{component="facet"' \
    'create_pool_workers' \
    'create_pool_queue_depth' \
    'create_pool_jobs_executed_total'
do
    grep -qF "$series" "$metrics" || {
        echo "verify: FAIL — missing metrics series $series" >&2
        exit 1
    }
done
rm -f "$metrics"

echo "== obs overhead gate: instrumented vs --no-default-features (300 docs) =="
# The same bench binary, instrumentation compiled in vs out. The term and
# bool DAAT workloads are the hot paths the obs layer touches per-cursor;
# the stripped build also compiles out trace-context propagation, span
# recording, and exemplars, so this gate bounds the whole tracing stack
# at 5% alongside the metrics.
best_qps() { # $1=workload $2...=json reports; prints the best daat_qps
    python3 - "$@" <<'EOF'
import json, sys
workload, best = sys.argv[1], 0.0
for path in sys.argv[2:]:
    for run in json.load(open(path))["runs"]:
        if run["workload"] == workload:
            best = max(best, run["daat_qps"])
print(best)
EOF
}
# Best of 3 interleaved runs per variant: single runs swing well past
# 5% on noisy CI hosts, which would drown the threshold in flakes. The
# stripped build gets its own target dir so the two binaries coexist
# (sharing one dir would rebuild the world on every feature flip).
cargo build -q --release -p create-bench --bin bench_search
CARGO_TARGET_DIR=target/stripped \
    cargo build -q --release -p create-bench --no-default-features --bin bench_search
on_bin="target/release/bench_search"
off_bin="target/stripped/release/bench_search"
on1="$(mktemp)"; on2="$(mktemp)"; on3="$(mktemp)"
off1="$(mktemp)"; off2="$(mktemp)"; off3="$(mktemp)"
"$on_bin" 300 "$on1"; "$off_bin" 300 "$off1"
"$on_bin" 300 "$on2"; "$off_bin" 300 "$off2"
"$on_bin" 300 "$on3"; "$off_bin" 300 "$off3"
for workload in term bool; do
    qps_on="$(best_qps "$workload" "$on1" "$on2" "$on3")"
    qps_off="$(best_qps "$workload" "$off1" "$off2" "$off3")"
    python3 - "$workload" "$qps_on" "$qps_off" <<'EOF'
import sys
workload, qps_on, qps_off = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
ratio = qps_on / qps_off
print(f"  {workload}: instrumented {qps_on:.1f} q/s vs stripped {qps_off:.1f} q/s (best-of-3 ratio {ratio:.3f})")
if ratio < 0.95:
    print(f"verify: FAIL — obs overhead on {workload} exceeds 5%", file=sys.stderr)
    sys.exit(1)
EOF
done
rm -f "$on1" "$on2" "$on3" "$off1" "$off2" "$off3"

echo "== recovery smoke: ingest → SIGKILL → reopen → search =="
cargo build -q --release --example rest_api
rest_bin="target/release/examples/rest_api"
data="$(mktemp -d)"
port="$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()')"
base="http://127.0.0.1:$port"
rest_pid=""
cleanup_rest() {
    [ -n "$rest_pid" ] && kill -9 "$rest_pid" 2>/dev/null || true
    rm -rf "$data"
}
trap cleanup_rest EXIT
start_rest() { # boots the example against $data and waits for /health
    "$rest_bin" --data-dir "$data" --addr "127.0.0.1:$port" --serve >/dev/null 2>&1 &
    rest_pid=$!
    for _ in $(seq 1 240); do
        if curl -fsS -o /dev/null "$base/health" 2>/dev/null; then return 0; fi
        if ! kill -0 "$rest_pid" 2>/dev/null; then
            echo "verify: FAIL — rest_api exited during startup" >&2
            exit 1
        fi
        sleep 0.5
    done
    echo "verify: FAIL — rest_api did not become healthy" >&2
    exit 1
}
start_rest
# One submission sealed into a segment by /flush, one acknowledged but
# left in the WAL tail — SIGKILL must lose neither.
curl -fsS -o /dev/null -X POST "$base/submit" -d \
    '{"id": "user:smoke-flushed", "title": "Flushed case", "text": "Spontaneous pneumomediastinum was noted after vigorous coughing.", "year": 2022}'
curl -fsS -o /dev/null -X POST "$base/flush" -d ''
curl -fsS -o /dev/null -X POST "$base/submit" -d \
    '{"id": "user:smoke-walonly", "title": "WAL-tail case", "text": "Severe hypoglycemia followed an accidental insulin overdose.", "year": 2022}'
kill -9 "$rest_pid"
wait "$rest_pid" 2>/dev/null || true
start_rest
stats="$(curl -fsS "$base/stats")"
python3 - "$stats" <<'EOF'
import json, sys
stats = json.loads(sys.argv[1])
if stats["reports"] != 82:  # 80 seeded + 2 submitted
    print(f"verify: FAIL — reopened store has {stats['reports']} reports, expected 82", file=sys.stderr)
    sys.exit(1)
print(f"  reopened with {stats['reports']} reports")
EOF
# storage/ is the only on-disk copy: no JSONL docstore may reappear.
stray="$(find "$data" -name '*.jsonl')"
if [ -n "$stray" ]; then
    echo "verify: FAIL — data directory holds JSONL files after reopen: $stray" >&2
    exit 1
fi
for probe in \
    'pneumomediastinum+vigorous+coughing|user:smoke-flushed' \
    'hypoglycemia+insulin+overdose|user:smoke-walonly'
do
    query="${probe%%|*}"; want="${probe##*|}"
    hits="$(curl -fsS "$base/search?q=$query&k=3")"
    echo "$hits" | grep -qF "\"$want\"" || {
        echo "verify: FAIL — post-recovery search for $query missing $want" >&2
        exit 1
    }
    echo "  search $query → $want recovered"
done
metrics="$(curl -fsS "$base/metrics")"
for series in \
    'create_wal_appended_bytes_total' \
    'create_wal_append_seconds_bucket' \
    'create_segment_count' \
    'create_segment_bytes' \
    'create_segment_seal_seconds_bucket' \
    'create_compaction_runs_total' \
    'create_compaction_merged_docs_total' \
    'create_recovery_replayed_records_total'
do
    echo "$metrics" | grep -qF "$series" || {
        echo "verify: FAIL — missing storage metrics series $series" >&2
        exit 1
    }
done
# The WAL-tail submission must have been replayed on reopen.
echo "$metrics" | grep -E '^create_recovery_replayed_records_total [1-9]' >/dev/null || {
    echo "verify: FAIL — reopen replayed no WAL records" >&2
    exit 1
}
kill -9 "$rest_pid"
wait "$rest_pid" 2>/dev/null || true
rest_pid=""
cleanup_rest
trap - EXIT

echo "== verify: OK =="
