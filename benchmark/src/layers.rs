//! The traced run: where the time of a request goes, layer by layer.
//!
//! One round's inputs are replayed serially through successively deeper
//! public entry points, one full pass per depth, so that every pass sees
//! the cache behaviour of the end-to-end run: over the real connection,
//! through `Router::dispatch`, through the `Create` call the handler makes,
//! and through the calls that one makes. Each call is a span recorded here,
//! around the call into the layer; nothing inside the program is touched.
//!
//! The two shallowest passes and every count belong to the workload under
//! trace. The deeper passes are run for all four request lists in every
//! traced run, because each per-layer time is defined on one list (a search
//! that misses, a search that hits, a cohort class, a submitted document).

use crate::fixture::{self, CohortClass, Fixture};
use crate::prom::Scrape;
use crate::run::{self, cache_counts, check_hit_ratio, metric_json, RunOptions, Stage};
use crate::spans::Trace;
use crate::spec::{self, Workload, K};
use crate::stats::median;
use crate::workload::{
    self, estimate, round_requests, Kind, Req, RoundResult, CYCLES_PER_FLUSH, DOCS_PER_SUBMIT,
};
use create_core::pipeline::ExtractedAnnotations;
use create_core::plan::{lower_cohort, lower_search, parse_cohort_criteria};
use create_core::search::keyword_search;
use create_core::{Create, MergePolicy, TextSubmission};
use create_corpus::CaseReport;
use create_docstore::json::{obj, parse_json};
use create_docstore::Value;
use create_obs::names as series;
use create_server::build_api;
use create_server::http::{try_parse, HttpLimits, Parse, Request};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const HTTP: &str = "server.http";
const PARSE_REQ: &str = "server.parse_req";
const DISPATCH: &str = "server.dispatch";
const PARSE_JSON: &str = "docstore.parse_json";
const SEARCH: &str = "core.search";
const COHORT: &str = "core.cohort";
const INGEST_BATCH: &str = "core.ingest_batch";
const FLUSH: &str = "core.flush";
const FLUSH_COMPACT: &str = "core.flush_compact";
const PARSE: &str = "core.parse";
const PLAN: &str = "core.plan";
const ES_ONLY: &str = "core.search_es_only";
const GRAPH_ONLY: &str = "core.search_graph_only";
const KEYWORD_SHARD0: &str = "index.keyword_shard0";
const COHORT_PLAN: &str = "core.cohort_plan";
const EXTRACT: &str = "core.extract";
const APPLY: &str = "core.apply";
const TAG: &str = "ner.tag";
const SPLIT: &str = "text.split";
const ANALYZE: &str = "text.analyze";
const WAL: &str = "storage.wal_append_sync";
const SEGMENT_READ: &str = "storage.segment_read";
const SEGMENT_WRITE: &str = "storage.segment_write";

/// List label of probes that read the fixture's files instead of replaying
/// a workload's requests.
const FIXTURE_LIST: &str = "fixture";

struct Tracer<'a> {
    fx: &'a Fixture,
    trace: Trace,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// The bytes `KeepAliveClient` puts on the wire for a request.
fn wire_bytes(req: &Req) -> Vec<u8> {
    match (&req.body, req.kind) {
        (None, Kind::Flush) | (Some(_), _) => {
            let body = req.body.as_deref().unwrap_or("");
            format!(
                "POST {} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                req.target,
                body.len()
            )
        }
        (None, _) => format!("GET {} HTTP/1.1\r\nHost: localhost\r\n\r\n", req.target),
    }
    .into_bytes()
}

fn submissions(docs: &[CaseReport]) -> Vec<TextSubmission> {
    docs.iter()
        .map(|r| TextSubmission {
            id: r.id.clone(),
            title: r.title.clone(),
            text: r.text.clone(),
            year: r.metadata.year,
        })
        .collect()
}

impl Tracer<'_> {
    /// Depth 0: the round over the real connection.
    fn http_pass(&mut self, stage: &mut Stage, list: &'static str, requests: &[Req]) {
        for (i, req) in requests.iter().enumerate() {
            let response = self.trace.span(list, HTTP, None, i, || {
                workload::send(&mut stage.client, req)
            });
            self.attempted += 1;
            let ok =
                matches!(&response, Ok(r) if (200..300).contains(&r.status) && !r.body.is_empty());
            if !ok {
                self.failed += 1;
            }
        }
    }

    /// Depth 1: the request bytes through `http::try_parse`, then the
    /// parsed request through `Router::dispatch` on this thread. The router
    /// is a second `build_api` over the same system, with its own rendered
    /// body cache.
    fn dispatch_pass(&mut self, system: &Arc<Create>, list: &'static str, requests: &[Req]) {
        let router = build_api(Arc::clone(system));
        let limits = HttpLimits::default();
        for (i, req) in requests.iter().enumerate() {
            let bytes = wire_bytes(req);
            // Parsing is part of the HTTP hop, so it is reported beside
            // `server.http_ms`, not subtracted from it: no parent.
            let parsed = self
                .trace
                .span(list, PARSE_REQ, None, i, || try_parse(&bytes, &limits));
            let Parse::Ready(parsed) = parsed else {
                self.errors
                    .push(format!("{list}: request {i} did not parse"));
                continue;
            };
            let request: Request = parsed.request;
            let response = self
                .trace
                .span(list, DISPATCH, Some(HTTP), i, || router.dispatch(&request));
            if !(200..300).contains(&response.status.code()) {
                self.errors.push(format!(
                    "{list}: dispatch of request {i} answered {}",
                    response.status.code()
                ));
            }
        }
    }

    /// Depth 2: for each request, the `Create` call its handler makes.
    fn core_pass(
        &mut self,
        system: &Create,
        list: &'static str,
        requests: &[Req],
        ingest: &[CaseReport],
    ) {
        for (i, req) in requests.iter().enumerate() {
            match req.kind {
                Kind::Search => {
                    let query = &self.fx.queries[req.input];
                    let hits = self.trace.span(list, SEARCH, Some(DISPATCH), i, || {
                        system.search_with_policy(query, K, MergePolicy::Neo4jFirst)
                    });
                    black_box(hits);
                }
                Kind::Cohort(_) => {
                    let body = req.body.as_deref().expect("cohort requests carry a body");
                    let json = self
                        .trace
                        .span(list, PARSE_JSON, Some(DISPATCH), i, || parse_json(body))
                        .expect("cohort criteria are JSON");
                    let result = self.trace.span(list, COHORT, Some(DISPATCH), i, || {
                        system.cohort_from_json(&json)
                    });
                    if let Err(e) = result {
                        self.errors
                            .push(format!("{list}: cohort {i} rejected: {e}"));
                    }
                }
                Kind::Submit => {
                    let body = req.body.as_deref().expect("submit requests carry a body");
                    black_box(
                        self.trace
                            .span(list, PARSE_JSON, Some(DISPATCH), i, || parse_json(body)),
                    )
                    .expect("submit bodies are JSON");
                    let docs =
                        submissions(&ingest[req.input * DOCS_PER_SUBMIT..][..DOCS_PER_SUBMIT]);
                    let result = self.trace.span(list, INGEST_BATCH, Some(DISPATCH), i, || {
                        system.ingest_text_batch(&docs, 0)
                    });
                    if let Err(e) = result {
                        self.errors.push(format!("{list}: submit {i} failed: {e}"));
                    }
                }
                Kind::Flush => {
                    let segments = |s: &Create| s.storage_stats().map_or(0, |st| st.segments);
                    let before = segments(system);
                    let started = Instant::now();
                    let result = system.flush();
                    let ended = Instant::now();
                    if let Err(e) = result {
                        self.errors.push(format!("{list}: flush {i} failed: {e}"));
                    }
                    // A flush that compacts leaves fewer segments than it found.
                    let name = if segments(system) < before {
                        FLUSH_COMPACT
                    } else {
                        FLUSH
                    };
                    self.trace
                        .record(list, name, Some(DISPATCH), i, started, ended);
                }
            }
        }
    }

    /// The calls below `search_with_policy`, over the unique list: every
    /// pass walks all 640 queries, so no cache on the way ever hits.
    fn probe_search_legs(&mut self, system: &Create, requests: &[Req]) {
        let list = Workload::SearchUnique.name();
        let queries = &self.fx.queries;
        // Evicts whatever an earlier list left in the caches.
        for q in queries {
            black_box(system.search_with_policy(q, K, MergePolicy::Neo4jFirst));
        }
        self.core_pass(system, list, requests, &[]);
        for (i, q) in queries.iter().enumerate() {
            black_box(
                self.trace
                    .span(list, PARSE, Some(SEARCH), i, || system.parse_query(q)),
            );
        }
        for (i, q) in queries.iter().enumerate() {
            let parsed = system.parse_query(q);
            let key = self.trace.span(list, PLAN, Some(SEARCH), i, || {
                lower_search(q, &parsed, K, MergePolicy::Neo4jFirst)
                    .optimize()
                    .canonical_key()
            });
            black_box(key);
        }
        for (name, policy) in [
            (ES_ONLY, MergePolicy::EsOnly),
            (GRAPH_ONLY, MergePolicy::GraphOnly),
        ] {
            for (i, q) in queries.iter().enumerate() {
                black_box(self.trace.span(list, name, Some(SEARCH), i, || {
                    system.search_with_policy(q, K, policy)
                }));
            }
        }
        let snapshot = system.snapshot();
        for (i, q) in queries.iter().enumerate() {
            black_box(self.trace.span(list, KEYWORD_SHARD0, Some(ES_ONLY), i, || {
                keyword_search(snapshot.index(), q, K)
            }));
        }
    }

    fn probe_cohort_plan(&mut self, system: &Create, requests: &[Req]) {
        let list = Workload::CohortMix.name();
        let ontology = system.ontology();
        for (i, req) in requests.iter().enumerate() {
            let json = parse_json(req.body.as_deref().expect("cohort body"))
                .expect("cohort criteria are JSON");
            let plan = self.trace.span(list, COHORT_PLAN, Some(COHORT), i, || {
                parse_cohort_criteria(&json, &ontology).map(|c| lower_cohort(&c).optimize())
            });
            black_box(plan).expect("cohort criteria are accepted");
        }
    }

    /// The write path below `/submit_batch`, each pass on its own copy of
    /// the fixture like a round of the end-to-end run. Returns the mean
    /// WAL bytes the engine wrote per submitted document.
    fn probe_ingest(&mut self, work: &Path, requests: &[Req], ingest: &[CaseReport]) -> f64 {
        let list = Workload::IngestInterleaved.name();
        let wal_bytes = || create_obs::counter(series::WAL_APPENDED_BYTES_TOTAL).get();
        let system = self.fx.open_copy(work);
        let before = wal_bytes();
        self.core_pass(&system, list, requests, ingest);
        let record_bytes = (wal_bytes() - before) as f64 / ingest.len() as f64;
        drop(system);

        // The same documents with their gold annotations: the apply half
        // (store, graph, index, WAL, publish) without the extraction.
        let system = self.fx.open_copy(work);
        for (i, req) in requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == Kind::Submit)
        {
            let docs = &ingest[req.input * DOCS_PER_SUBMIT..][..DOCS_PER_SUBMIT];
            let result = self.trace.span(list, APPLY, Some(INGEST_BATCH), i, || {
                system.ingest_gold_batch(docs, 0)
            });
            if let Err(e) = result {
                self.errors
                    .push(format!("{list}: gold apply {i} failed: {e}"));
            }
            if (req.input + 1) % CYCLES_PER_FLUSH == 0 {
                system.flush().expect("flush between apply batches");
            }
        }
        drop(system);
        self.probe_extraction(requests, ingest);
        self.probe_wal(work, record_bytes, ingest.len());
        record_bytes
    }

    /// Extraction and its parts, per submitted document, on this thread.
    fn probe_extraction(&mut self, requests: &[Req], ingest: &[CaseReport]) {
        let list = Workload::IngestInterleaved.name();
        let ontology = Arc::new(create_ontology::clinical_ontology());
        let tagger = fixture::train_tagger(&self.fx.reports, Arc::clone(&ontology));
        let analyzer = create_text::Analyzer::clinical_standard();
        for (i, req) in requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == Kind::Submit)
        {
            for doc in &ingest[req.input * DOCS_PER_SUBMIT..][..DOCS_PER_SUBMIT] {
                let text = doc.text.as_str();
                black_box(self.trace.span(list, EXTRACT, Some(INGEST_BATCH), i, || {
                    ExtractedAnnotations::from_text(text, &tagger, &ontology)
                }));
                let sentences = self.trace.span(list, SPLIT, Some(EXTRACT), i, || {
                    create_text::split_sentences(text)
                });
                black_box(self.trace.span(list, TAG, Some(EXTRACT), i, || {
                    sentences
                        .iter()
                        .map(|s| tagger.tag(s.slice(text)).len())
                        .sum::<usize>()
                }));
                black_box(
                    self.trace
                        .span(list, ANALYZE, Some(APPLY), i, || analyzer.analyze(text)),
                );
            }
        }
    }

    /// `Wal::append` + `sync` on a scratch log, one record of the engine's
    /// mean record size per document.
    fn probe_wal(&mut self, work: &Path, record_bytes: f64, records: usize) {
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work).expect("create the scratch directory");
        let (mut wal, _) =
            create_storage::Wal::open(work.join("probe.wal")).expect("open a scratch WAL");
        let payload = vec![0x5au8; record_bytes as usize];
        for i in 0..records {
            self.trace
                .span(FIXTURE_LIST, WAL, None, i, || {
                    wal.append(&payload).and_then(|_| wal.sync())
                })
                .expect("append to the scratch WAL");
        }
    }

    /// `read_segment` on the fixture's sealed files and `write_segment` of
    /// what was read, to a scratch file.
    fn probe_segments(&mut self, work: &Path) {
        const REPEATS: usize = 3;
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work).expect("create the scratch directory");
        let scratch = work.join("probe.seg");
        let mut files = Vec::new();
        for shard in 0..crate::spec::SHARDS {
            let shard_dir = self
                .fx
                .dir
                .join(create_storage::STORAGE_DIR)
                .join(format!("shard-{shard}"));
            let mut segs: Vec<_> = std::fs::read_dir(&shard_dir)
                .expect("list a shard's storage directory")
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "seg"))
                .collect();
            segs.sort();
            files.extend(segs);
        }
        for (i, file) in files.iter().enumerate() {
            for _ in 0..REPEATS {
                let data = self
                    .trace
                    .span(FIXTURE_LIST, SEGMENT_READ, None, i, || {
                        create_storage::segment::read_segment(file)
                    })
                    .expect("read a sealed segment");
                self.trace
                    .span(FIXTURE_LIST, SEGMENT_WRITE, None, i, || {
                        create_storage::segment::write_segment(&scratch, &data)
                    })
                    .expect("write a segment");
            }
        }
    }
}

fn med(trace: &Trace, list: &str, name: &str) -> f64 {
    let d = trace.durations_ms(list, name);
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Runs the traced run of one workload. Returns the report and whether
/// every check passed.
pub fn run(opts: &RunOptions, process_start: Instant) -> (Value, bool) {
    let workload = opts.workload;
    let list = workload.name();
    let dir = run::data_dir(workload);
    let work = dir.with_extension("work");
    let (fx, opened) = Fixture::build(&dir, opts.seed, opts.corpus_reports());
    let base = Arc::new(opened);
    let writes = workload.writes();
    let requests = round_requests(workload, &fx, opts.seed);
    let ingest = workload::ingest_reports(opts.seed);
    let ingest_bytes: u64 = ingest.iter().map(|r| r.text.len() as u64).sum();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Sizes of the flushed fixture, before anything writes to it.
    let segment_bytes = base.storage_stats().map_or(0, |s| s.segment_bytes);
    let storage_dir_bytes = fixture::dir_bytes(&fx.dir.join(create_storage::STORAGE_DIR));
    let jsonl_bytes = fixture::dir_bytes(&fx.dir) - storage_dir_bytes;
    metrics.insert(
        "docstore.jsonl_bytes_per_user_byte",
        jsonl_bytes as f64 / fx.user_bytes as f64,
    );
    metrics.insert(
        "storage.segment_bytes_per_user_byte",
        segment_bytes as f64 / fx.user_bytes as f64,
    );
    {
        let snapshot = base.snapshot();
        let index = snapshot.index();
        metrics.insert(
            "index.ram_postings_bytes_per_doc",
            index.postings_bytes() as f64 / index.num_docs() as f64,
        );
    }
    metrics.insert("core.open_ms", median(&fx.phases.opens_s) * 1e3);

    let mut t = Tracer {
        fx: &fx,
        trace: Trace::new(process_start),
        errors: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    // The workload under trace, outside in. A workload that writes gets a
    // fresh copy of the fixture for every pass, like a round of its
    // end-to-end run; the others share the opened fixture.
    let stage_for = |fx: &Fixture| -> Stage {
        let mut stage = if writes {
            Stage::start(fx.open_copy(&work))
        } else {
            Stage::start_shared(&base)
        };
        // The connection's first request is not a keep-alive reuse.
        stage.client.get("/health").expect("health check");
        stage
    };
    // The end-to-end timings, measured as the end-to-end run measures
    // them: warm-up, then the timed rounds, tracing off.
    let mut stage = stage_for(&fx);
    let warmup = run::warm_up(workload, &mut stage, &requests);
    t.attempted += warmup.tallies.iter().map(|(_, t)| t.attempted).sum::<u64>();
    t.failed += warmup.failed();
    let (stage, timed) = run::play_rounds(
        workload,
        &fx,
        &work,
        stage,
        &requests,
        workload.rounds(opts.seconds, opts.quick),
        &mut t.errors,
    );
    t.attempted += (requests.len() * timed.rounds.len()) as u64;
    t.failed += timed.rounds.iter().map(RoundResult::failed).sum::<u64>();
    let all_rounds: Vec<&RoundResult> = timed.rounds.iter().collect();
    let timings = estimate(workload, &requests, &all_rounds);
    let untraced_wall_s = median(&timed.rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut stage = if writes {
        drop(stage.stop());
        stage_for(&fx)
    } else {
        stage
    };
    let (hits_before, lookups_before) = cache_counts(&stage.system);
    let before = Scrape::parse(&create_obs::render_prometheus());
    let started = Instant::now();
    t.http_pass(&mut stage, list, &requests);
    let traced_wall_s = started.elapsed().as_secs_f64();
    let after = Scrape::parse(&create_obs::render_prometheus());
    let (hits_after, lookups_after) = cache_counts(&stage.system);
    if writes {
        drop(stage.stop());
        stage = stage_for(&fx);
    }
    t.dispatch_pass(&stage.system, list, &requests);
    drop(stage.stop());

    // Every list's deeper passes.
    let unique = round_requests(Workload::SearchUnique, &fx, opts.seed);
    t.probe_search_legs(&base, &unique);
    let repeat = round_requests(Workload::SearchRepeat, &fx, opts.seed);
    t.core_pass(&base, Workload::SearchRepeat.name(), &repeat, &[]);
    let cohort = round_requests(Workload::CohortMix, &fx, opts.seed);
    t.core_pass(&base, Workload::CohortMix.name(), &cohort, &[]);
    t.probe_cohort_plan(&base, &cohort);
    let ingest_requests = round_requests(Workload::IngestInterleaved, &fx, opts.seed);
    let record_bytes = t.probe_ingest(&work, &ingest_requests, &ingest);
    t.probe_segments(&work);
    drop(base);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&dir);

    let Tracer {
        trace,
        mut errors,
        attempted,
        failed,
        ..
    } = t;
    let n = requests.len() as f64;
    let reads = requests
        .iter()
        .filter(|r| matches!(r.kind, Kind::Search | Kind::Cohort(_)))
        .count() as f64;
    let submits = requests.iter().filter(|r| r.kind == Kind::Submit).count() as f64;
    let per = |delta: f64, of: f64| if of == 0.0 { 0.0 } else { delta / of };
    let delta = |name: &str| after.delta(&before, name);
    let hit_ratio = check_hit_ratio(
        workload,
        hits_after - hits_before,
        lookups_after - lookups_before,
        &mut errors,
    );

    let uq = Workload::SearchUnique.name();
    let cm = Workload::CohortMix.name();
    let ig = Workload::IngestInterleaved.name();
    metrics.insert("server.http_ms", median(&trace.self_times_ms(list, HTTP)));
    metrics.insert(
        "server.render_ms",
        median(&trace.self_times_ms(list, DISPATCH)),
    );
    metrics.insert("server.parse_req_ms", med(&trace, list, PARSE_REQ));
    metrics.insert(
        "server.keepalive_reuse_ratio",
        per(delta(series::HTTP_KEEPALIVE_REUSE_TOTAL), n),
    );
    metrics.insert("server.shed", delta(series::HTTP_SHED_TOTAL));
    metrics.insert("core.search_ms", med(&trace, uq, SEARCH));
    metrics.insert(
        "core.search_hit_ms",
        med(&trace, Workload::SearchRepeat.name(), SEARCH),
    );
    metrics.insert("core.parse_ms", med(&trace, uq, PARSE));
    metrics.insert("core.plan_ms", med(&trace, uq, PLAN));
    metrics.insert("core.search_es_only_ms", med(&trace, uq, ES_ONLY));
    metrics.insert("core.search_graph_only_ms", med(&trace, uq, GRAPH_ONLY));
    {
        // Each single-engine pass parses and plans again, so a leg is its
        // pass minus those; what is left of the merged search after parse,
        // plan and both legs is merge, cache bookkeeping and error.
        let col = |name| trace.durations_ms(uq, name);
        let (search, parse, plan, es, graph) = (
            col(SEARCH),
            col(PARSE),
            col(PLAN),
            col(ES_ONLY),
            col(GRAPH_ONLY),
        );
        let rest: Vec<f64> = (0..search.len())
            .map(|i| {
                let front = parse[i] + plan[i];
                search[i] - front - (es[i] - front).max(0.0) - (graph[i] - front).max(0.0)
            })
            .collect();
        metrics.insert("core.search_unattributed_ms", median(&rest));
    }
    metrics.insert("core.cache_hit_ratio", hit_ratio);
    for (name, class) in [
        ("core.cohort_filter_ms", CohortClass::Filter),
        ("core.cohort_keyword_ms", CohortClass::Keyword),
        ("core.cohort_temporal_ms", CohortClass::Temporal),
    ] {
        let of_class: Vec<f64> = trace
            .durations_ms(cm, COHORT)
            .into_iter()
            .zip(&cohort)
            .filter(|(_, r)| r.kind == Kind::Cohort(class))
            .map(|(d, _)| d)
            .collect();
        metrics.insert(name, median(&of_class));
    }
    metrics.insert("core.cohort_plan_ms", med(&trace, cm, COHORT_PLAN));
    metrics.insert("core.extract_ms", med(&trace, ig, EXTRACT));
    metrics.insert("core.apply_ms", med(&trace, ig, APPLY));
    metrics.insert("core.ingest_batch_ms", med(&trace, ig, INGEST_BATCH));
    metrics.insert(
        "core.publish_per_write",
        per(delta(series::SNAPSHOT_PUBLISH_TOTAL), submits),
    );
    metrics.insert("core.flush_ms", med(&trace, ig, FLUSH));
    metrics.insert("core.flush_compact_ms", med(&trace, ig, FLUSH_COMPACT));
    metrics.insert("index.keyword_shard0_ms", med(&trace, uq, KEYWORD_SHARD0));
    metrics.insert(
        "index.postings_per_query",
        per(delta(series::DAAT_POSTINGS_ADVANCED_TOTAL), reads),
    );
    metrics.insert(
        "index.pruned_per_query",
        per(delta(series::DAAT_CANDIDATES_PRUNED_TOTAL), reads),
    );
    metrics.insert(
        "index.bitmap_intersections_per_op",
        per(delta(series::BITMAP_INTERSECTIONS_TOTAL), n),
    );
    metrics.insert(
        "graphdb.nodes_visited_per_query",
        per(delta(series::GRAPH_EXEC_NODES_VISITED_TOTAL), reads),
    );
    metrics.insert(
        "graphdb.edges_traversed_per_query",
        per(delta(series::GRAPH_EXEC_EDGES_TRAVERSED_TOTAL), reads),
    );
    metrics.insert("ner.tag_ms", med(&trace, ig, TAG));
    metrics.insert("text.split_ms", med(&trace, ig, SPLIT));
    metrics.insert("text.analyze_ms", med(&trace, ig, ANALYZE));
    {
        let (extract, tag, split) = (
            trace.durations_ms(ig, EXTRACT),
            trace.durations_ms(ig, TAG),
            trace.durations_ms(ig, SPLIT),
        );
        let rest: Vec<f64> = (0..extract.len())
            .map(|i| (extract[i] - tag[i] - split[i]).max(0.0))
            .collect();
        metrics.insert("core.extract_rest_ms", median(&rest));
    }
    {
        let mut bodies = trace.durations_ms(cm, PARSE_JSON);
        bodies.extend(trace.durations_ms(ig, PARSE_JSON));
        metrics.insert("docstore.parse_json_ms", median(&bodies));
    }
    metrics.insert("storage.wal_append_sync_ms", med(&trace, FIXTURE_LIST, WAL));
    let written_bytes = if writes { ingest_bytes as f64 } else { 0.0 };
    metrics.insert(
        "storage.wal_bytes_per_user_byte",
        per(delta(series::WAL_APPENDED_BYTES_TOTAL), written_bytes),
    );
    metrics.insert(
        "storage.segment_read_ms",
        med(&trace, FIXTURE_LIST, SEGMENT_READ),
    );
    metrics.insert(
        "storage.segment_write_ms",
        med(&trace, FIXTURE_LIST, SEGMENT_WRITE),
    );
    metrics.insert(
        "storage.compaction_runs",
        delta(series::COMPACTION_RUNS_TOTAL),
    );
    metrics.insert(
        "storage.compaction_docs_per_doc",
        per(
            delta(series::COMPACTION_MERGED_DOCS_TOTAL),
            submits * DOCS_PER_SUBMIT as f64,
        ),
    );
    metrics.insert(
        "util.pool_jobs_per_op",
        per(delta(series::POOL_JOBS_EXECUTED_TOTAL), n),
    );
    metrics.insert(
        "trace.overhead_pct",
        (traced_wall_s / untraced_wall_s - 1.0) * 100.0,
    );

    std::fs::create_dir_all(run::out_dir()).expect("create benchmark/out");
    let span_file = run::out_dir().join(format!("spans-{list}.jsonl"));
    trace.write_jsonl(&span_file).expect("write the span file");

    if failed > 0 {
        errors.push(format!("{failed} of {attempted} requests failed"));
    }
    eprintln!(
        "{list}: traced run, {} spans in {}",
        trace.spans().len(),
        span_file.display()
    );
    let mut out = BTreeMap::new();
    for spec in &spec::TIMINGS {
        metrics.insert(spec.name, run::timing(spec.name, &fx, &timings));
    }
    for spec in spec::per_layer() {
        let value = *metrics
            .get(spec.name)
            .unwrap_or_else(|| panic!("{} was not measured", spec.name));
        eprintln!("  {:<38} {:>14.4} {}", spec.name, value, spec.unit);
        out.insert(spec.name.to_string(), metric_json(value, spec.unit));
    }
    for e in &errors {
        eprintln!("  CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    let report = obj([
        ("workload", list.into()),
        ("seed", (opts.seed as f64).into()),
        ("correct", correct.into()),
        ("attempted", (attempted as i64).into()),
        ("failed", (failed as i64).into()),
        ("metrics", Value::Object(out)),
        ("spans", trace.spans().len().into()),
        ("span_file", span_file.display().to_string().into()),
        ("wal_record_bytes", record_bytes.into()),
        ("host", run::host_json(fx.reports.len())),
        ("errors", Value::from(errors)),
    ]);
    (report, correct)
}
