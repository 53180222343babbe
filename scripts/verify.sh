#!/usr/bin/env bash
# Offline verification gate: tier-1 build, clippy over every workspace
# target with warnings denied and a rustfmt check of every workspace
# crate (`benchmark/` is its own workspace and is neither linted nor
# format-checked), rustdoc over every workspace crate with warnings denied (an
# intra-doc link that no longer resolves fails it), the per-crate
# non-test line counts of `scripts/loc.sh` (printed, not gated), then
# every test binary once —
# the whole workspace's (`cargo test --workspace`: the root suites —
# parallel_determinism, query_equivalence, shard_equivalence,
# cohort_retrieval, crash_recovery, snapshot_stress, server_storm,
# alloc_budget, end_to_end, trace_propagation, ... — and every crate's
# unit and integration tests, the create-index codec, create-storage
# segment and create-docstore JSON mutation fuzzes among them) and the benchmark package's — then the
# benchmark smoke (`create-benchmark all --quick`, every in-run check;
# the two benchmark steps leave `benchmark/Cargo.lock` as they found it;
# each workload's `result_digest` is pinned, and its
# `disk_bytes_per_user_byte` bounded above),
# the server, trace and observability smoke checks, E4's ranking-ablation
# quality cells (`exp_ir_vs_solr`, ~15 s: the BM25 default and TF-IDF
# rows EXPERIMENTS.md quotes, exactly), E8's recall cells
# (`exp_ngram_analyzer`, ~6 s: full / prefix / infix recall of the
# standard and the paper's ngram(3,25) analyzer, exactly), the stripped
# (`--no-default-features`) build, and the SIGKILL recovery smoke (a
# sealed document, a `/submit` and a `/submit_batch` document in the WAL
# tail; also asserts the data directory holds no JSONL copy and that the
# WAL-tail document's `/reports/:id` and `/annotations` bodies come back
# byte-equal; then `/submit_batch` + `/flush` rounds until every shard has
# compacted, a second SIGKILL, and the same report count, `/search` body
# and sealed document's two bodies after reopen). No step gates on a timing: those are `benchmark/`'s. No
# network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== clippy: every workspace target, warnings denied =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "== rustfmt: every workspace crate formatted =="
cargo fmt --all --check

echo "== rustdoc: every intra-doc link resolves, private items included =="
RUSTDOCFLAGS="-D warnings -A rustdoc::private_intra_doc_links" \
    cargo doc -q --offline --no-deps --workspace --document-private-items

echo "== non-test line counts per crate (information only, not a gate) =="
scripts/loc.sh

echo "== tier-1: test suite (every workspace crate, each test binary once) =="
cargo test -q --workspace

# Building the benchmark rewrites its lockfile whenever the workspace's
# dependency graph has moved since the lockfile was written; only a
# change to the benchmark itself may change it, so the two benchmark
# steps put it back as they found it, on failure too.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
restore_bench_lock() {
    cp "$bench_lock" benchmark/Cargo.lock
    rm -f "$bench_lock"
}
trap restore_bench_lock EXIT

echo "== benchmark package: unit tests (BENCHMARK.json in step with the code) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark smoke: four workloads at 500 reports, every in-run check =="
# Exits non-zero when any check fails (non-2xx, unequal round digests,
# a gold cohort, a hit ratio, compaction counts, reopen after ingest).
# Each workload's `result_digest` at `--seed 1` (the default) is pinned:
# a moved digest is a ranking or extraction change, re-pinned here with
# its reason when the change is meant. `ingest_interleaved`'s was
# re-pinned (from 6dc110bb32f24cb8) when a stored payload lost its BRAT
# copy: its `/flush` bodies report `segment_bytes`, which fell, and its
# `/search` and `/submit_batch` bodies stayed byte-equal.
# Each workload's `disk_bytes_per_user_byte` is bounded above by the
# value it reads once a payload stores a report and its extraction only
# (it reads the same in every run), so stored bytes cannot creep back
# unnoticed.
quick="$(mktemp)"
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- all --quick | tee "$quick"
python3 - "$quick" <<'PY'
import json, sys
want = {
    "search_unique": "4850035d5432e973",
    "search_repeat": "0350d5838bae2b25",
    "cohort_mix": "f1e2e081a337a0db",
    "ingest_interleaved": "28fa50b7ca7bd58a",
}
disk_bound = {
    "search_unique": 4.6895,
    "search_repeat": 4.6895,
    "cohort_mix": 4.6895,
    "ingest_interleaved": 4.2995,
}
with open(sys.argv[1]) as out:
    runs = {run["workload"]: run for run in map(json.loads, filter(str.strip, out)) if "workload" in run}
got = {w: run.get("result_digest") for w, run in runs.items()}
bad = [f"{w}: {got.get(w)} (pinned {d})" for w, d in want.items() if got.get(w) != d]
if bad:
    sys.exit("verify: FAIL — all --quick result_digest moved: " + "; ".join(bad))
disk = {w: runs[w]["metrics"]["disk_bytes_per_user_byte"]["value"] for w in disk_bound}
over = [f"{w}: {disk[w]:.4f} (bound {b})" for w, b in disk_bound.items() if disk[w] > b]
if over:
    sys.exit("verify: FAIL — all --quick disk_bytes_per_user_byte over its bound: " + "; ".join(over))
PY
rm -f "$quick"
restore_bench_lock
trap - EXIT

echo "== server smoke: keep-alive, pipelining, close, 400/413 (raw sockets), one pool =="
smoke="$(mktemp)"
cargo run -q --release -p create-bench --bin server_smoke > "$smoke"
# Every CPU job of the process runs on one pool of one worker per core:
# a second pool beside it would raise the served worker gauge past nproc.
workers="$(sed -n 's/^create_pool_workers //p' "$smoke")"
[ "$workers" = "$(nproc)" ] || {
    echo "verify: FAIL — the smoke server runs '$workers' pool workers, nproc is $(nproc)" >&2
    exit 1
}
rm -f "$smoke"

echo "== trace smoke: /trace/{id} span tree over every shard, listed in /slowlog =="
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
# Line 1 is the batch request's /trace/{id}, line 2 the /slowlog the
# smoke fetched at threshold zero: the slowlog must list that trace.
trace_id="$(head -n 1 "$trace" | grep -oE '"traceId":"[0-9a-f]{16}"')"
sed -n 2p "$trace" | grep -qF "$trace_id" || {
    echo "verify: FAIL — /slowlog does not list the batch trace ($trace_id)" >&2
    exit 1
}
rm -f "$trace"

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
    'create_open_bad_config_total' \
    'create_resident_bytes{component="postings"' \
    'create_resident_bytes{component="graph"' \
    'create_resident_bytes{component="docstore"' \
    'create_resident_bytes{component="facet"' \
    'create_resident_bytes{component="tagger"' \
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

echo "== E4 quality: the ranking-ablation cells EXPERIMENTS.md quotes =="
# Seeded and deterministic, on any core count (`loaded_create` pins one
# shard): a moved cell is a retrieval change, not noise.
e4="$(mktemp)"
cargo run -q --release -p create-bench --bin exp_ir_vs_solr > "$e4"
for cell in \
    'BM25 (k1=1.2, b=0.75)  0.4421' \
    'TF-IDF                 0.3813'
do
    grep -qxF "$cell" "$e4" || {
        echo "verify: FAIL — exp_ir_vs_solr ablation row is not '$cell'" >&2
        exit 1
    }
done
rm -f "$e4"

echo "== E8 quality: the n-gram analyzer recall cells EXPERIMENTS.md quotes =="
# Full / prefix / infix recall of the standard analyzer and the paper's
# ngram(3,25) (`exp_ngram_analyzer`, ~6 s), seeded and deterministic; the
# index-size and timing columns are not gated.
e8="$(mktemp)"
cargo run -q --release -p create-bench --bin exp_ngram_analyzer > "$e8"
for row in \
    'standard (stemmed)|0.4867 0.0867 0.0133' \
    'ngram(3,25) [paper]|0.5000 0.4000 0.2800'
do
    name="${row%%|*}"; want="${row##*|}"
    got="$(awk -v name="$name" 'index($0, name " ") == 1 { print $(NF-3), $(NF-2), $(NF-1) }' "$e8")"
    [ "$got" = "$want" ] || {
        echo "verify: FAIL — exp_ngram_analyzer '$name' full / prefix / infix recall is '$got', not '$want'" >&2
        exit 1
    }
done
rm -f "$e8"

echo "== stripped build: the server and everything under it without the obs feature =="
cargo check -q --offline -p create-server --no-default-features

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
# One submission sealed into a segment by /flush, then one lone and one
# batched submission acknowledged but left in the WAL tail — SIGKILL must
# lose none, and both entries are replayed through the one write route.
curl -fsS -o /dev/null -X POST "$base/submit" -d \
    '{"id": "user:smoke-flushed", "title": "Flushed case", "text": "Spontaneous pneumomediastinum was noted after vigorous coughing.", "year": 2022}'
curl -fsS -o /dev/null -X POST "$base/flush" -d ''
curl -fsS -o /dev/null -X POST "$base/submit" -d \
    '{"id": "user:smoke-walonly", "title": "WAL-tail case", "text": "Severe hypoglycemia followed an accidental insulin overdose.", "year": 2022}'
curl -fsS -o /dev/null -X POST "$base/submit_batch" -d \
    '{"documents": [{"id": "user:smoke-walbatch", "title": "WAL-tail batch case", "text": "Acute rhabdomyolysis developed after a marathon run.", "year": 2022}]}'
# A document's stored bodies: GET /reports/:id and its /annotations.
stored_bodies() {
    curl -fsS "$base/reports/$1"
    echo
    curl -fsS "$base/reports/$1/annotations"
}
same_stored_bodies() { # $1 id, $2 bodies before, $3 what happened since
    [ "$(stored_bodies "$1")" = "$2" ] || {
        echo "verify: FAIL — $1's /reports bodies differ after $3" >&2
        exit 1
    }
    echo "  $1: /reports and /annotations bodies byte-equal after $3"
}
walonly_before="$(stored_bodies user:smoke-walonly)"
# The sealed document's bodies, read from its segment file.
flushed_before="$(stored_bodies user:smoke-flushed)"
kill -9 "$rest_pid"
wait "$rest_pid" 2>/dev/null || true
start_rest
stats="$(curl -fsS "$base/stats")"
python3 - "$stats" <<'EOF'
import json, sys
stats = json.loads(sys.argv[1])
if stats["reports"] != 83:  # 80 seeded + 3 submitted
    print(f"verify: FAIL — reopened store has {stats['reports']} reports, expected 83", file=sys.stderr)
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
    'hypoglycemia+insulin+overdose|user:smoke-walonly' \
    'rhabdomyolysis+marathon|user:smoke-walbatch'
do
    query="${probe%%|*}"; want="${probe##*|}"
    hits="$(curl -fsS "$base/search?q=$query&k=3")"
    grep -qF "\"$want\"" <<<"$hits" || {
        echo "verify: FAIL — post-recovery search for $query missing $want" >&2
        exit 1
    }
    echo "  search $query → $want recovered"
done
same_stored_bodies user:smoke-walonly "$walonly_before" "WAL replay"
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
    grep -qF "$series" <<<"$metrics" || {
        echo "verify: FAIL — missing storage metrics series $series" >&2
        exit 1
    }
done
# Both WAL-tail submissions must have been replayed on reopen.
echo "$metrics" | grep -E '^create_recovery_replayed_records_total 2$' >/dev/null || {
    echo "verify: FAIL — reopen did not replay exactly the two WAL-tail records" >&2
    exit 1
}
# Recovery through a compaction: /submit_batch + /flush rounds until
# every shard has compacted (create_compaction_runs_total reaches the
# shard count) — the live process then serves the sealed document's
# bodies from the compacted file — then SIGKILL and reopen: the
# compacted segments must serve the same report count, the same /search
# body and the same stored bodies.
stat_of() { curl -fsS "$base/stats" | python3 -c "import json,sys; print(json.load(sys.stdin)['$1'])"; }
shards="$(stat_of shards)"
compactions=0
for round in $(seq 1 12); do
    docs=""
    for n in 1 2 3 4 5 6; do
        docs="$docs{\"id\": \"user:compact-$round-$n\", \"title\": \"Compaction case $round.$n\", \"text\": \"Recurrent fever and cough after round $round of chemotherapy.\", \"year\": 2023},"
    done
    curl -fsS -o /dev/null -X POST "$base/submit_batch" -d "{\"documents\": [${docs%,}]}"
    curl -fsS -o /dev/null -X POST "$base/flush" -d ''
    compactions="$(curl -fsS "$base/metrics" | awk '$1 == "create_compaction_runs_total" {print $2}')"
    [ "${compactions:-0}" -ge "$shards" ] && break
done
if [ "${compactions:-0}" -lt "$shards" ]; then
    echo "verify: FAIL — $compactions compaction runs for $shards shards after 12 flushes" >&2
    exit 1
fi
same_stored_bodies user:smoke-flushed "$flushed_before" "$compactions compactions, live"
reports_before="$(stat_of reports)"
search_before="$(curl -fsS "$base/search?q=fever+and+cough&k=10")"
kill -9 "$rest_pid"
wait "$rest_pid" 2>/dev/null || true
start_rest
reports_after="$(stat_of reports)"
search_after="$(curl -fsS "$base/search?q=fever+and+cough&k=10")"
if [ "$reports_after" != "$reports_before" ] || [ "$search_after" != "$search_before" ]; then
    echo "verify: FAIL — after $compactions compactions and a SIGKILL: $reports_after reports (was $reports_before), /search body equal: $([ "$search_after" = "$search_before" ] && echo yes || echo no)" >&2
    exit 1
fi
echo "  $compactions compactions on $shards shards, reopened with $reports_after reports and the same /search body"
same_stored_bodies user:smoke-flushed "$flushed_before" "compaction and a SIGKILL"
kill -9 "$rest_pid"
wait "$rest_pid" 2>/dev/null || true
rest_pid=""
cleanup_rest
trap - EXIT

echo "== verify: OK =="
