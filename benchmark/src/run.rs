//! The end-to-end run: set up, one untimed warm-up round, timed rounds, then
//! the checks. One process per run, so `setup_s` and `peak_rss_mb` are the
//! run's own.

use crate::fixture::{self, cohort_queries, Fixture};
use crate::spec::{self, Workload, END_TO_END, TIMINGS};
use crate::stats::{summarize_rounds, Better};
use crate::workload::{
    self, estimate, round_requests, run_round, Estimate, Kind, Req, RoundResult, Tally,
};
use create_core::Create;
use create_docstore::json::{obj, parse_json};
use create_docstore::Value;
use create_server::server::ShutdownHandle;
use create_server::{build_api, KeepAliveClient, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure for; sets the number of timed rounds.
    pub seconds: u64,
    pub quick: bool,
}

impl RunOptions {
    pub fn corpus_reports(&self) -> usize {
        if self.quick {
            spec::QUICK_REPORTS
        } else {
            spec::CORPUS_REPORTS
        }
    }
}

/// `benchmark/out`, the only directory the benchmark writes to.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn data_dir(workload: Workload) -> PathBuf {
    out_dir().join(format!("data-{}-{}", workload.name(), std::process::id()))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and configuration facts every result is printed with.
pub fn host_json(corpus_reports: usize) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    obj([
        ("nproc", nproc.into()),
        ("shards", spec::SHARDS.into()),
        (
            "pool_threads",
            create_util::ThreadPool::global().threads().into(),
        ),
        ("corpus_reports", corpus_reports.into()),
        ("git_rev", git_rev().into()),
        ("obs_enabled", create_obs::enabled().into()),
    ])
}

pub fn metric_json(value: f64, unit: &str) -> Value {
    obj([("value", value.into()), ("unit", unit.into())])
}

/// Lookups and hits of the query cache, for `core.cache_hit_ratio`.
pub fn cache_counts(system: &Create) -> (u64, u64) {
    let s = system.cache_stats();
    (s.hits, s.hits + s.misses)
}

/// Checks the hit ratio a workload is built to produce; a run that misses
/// it measured something other than what its name says.
pub fn check_hit_ratio(
    workload: Workload,
    hits: u64,
    lookups: u64,
    errors: &mut Vec<String>,
) -> f64 {
    let ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    let ok = match workload {
        Workload::SearchRepeat => ratio >= 0.99,
        Workload::CohortMix => lookups == 0,
        Workload::SearchUnique | Workload::IngestInterleaved => hits == 0 && lookups > 0,
    };
    if !ok {
        errors.push(format!(
            "{}: query-cache hit ratio {ratio:.4} ({hits} of {lookups} lookups) is not the workload's",
            workload.name()
        ));
    }
    ratio
}

/// Every gold cohort's answer against the corpus's gold labels.
fn check_cohorts(fx: &Fixture, system: &Create, round: &RoundResult, errors: &mut Vec<String>) {
    let ontology = system.ontology();
    for (i, query) in cohort_queries().iter().enumerate() {
        let Some(spec) = &query.gold else { continue };
        let Some(Some(body)) = round.bodies.get(i) else {
            continue;
        };
        let expected = spec.expected_ids(&fx.reports, &ontology);
        let parsed = std::str::from_utf8(body)
            .ok()
            .and_then(|b| parse_json(b).ok());
        let Some(doc) = parsed else {
            errors.push(format!("cohort {}: response is not JSON", spec.name));
            continue;
        };
        let total = doc
            .get("totalMatched")
            .and_then(Value::as_f64)
            .unwrap_or(-1.0);
        if total != expected.len() as f64 {
            errors.push(format!(
                "cohort {}: totalMatched {total}, gold cohort has {}",
                spec.name,
                expected.len()
            ));
        }
        if expected.len() <= spec.k {
            let mut got: Vec<&str> = doc
                .get("hits")
                .and_then(Value::as_array)
                .map(|hits| {
                    hits.iter()
                        .filter_map(|h| h.get("reportId")?.as_str())
                        .collect()
                })
                .unwrap_or_default();
            got.sort_unstable();
            let mut want: Vec<&str> = expected.iter().map(String::as_str).collect();
            want.sort_unstable();
            if got != want {
                errors.push(format!(
                    "cohort {}: returned ids differ from the gold cohort",
                    spec.name
                ));
            }
        }
    }
}

fn add_tallies(total: &mut BTreeMap<&'static str, Tally>, round: &RoundResult) {
    for (path, t) in &round.tallies {
        let entry = total.entry(path).or_default();
        entry.attempted += t.attempted;
        entry.failed += t.failed;
    }
}

/// One of the metrics that are estimated from the rounds.
fn round_metric(name: &str, e: &Estimate) -> Option<f64> {
    Some(match name {
        "ops_per_s" => e.ops_per_s,
        "op_p50_ms" => e.op_p50_ms,
        "op_p90_ms" => e.op_p90_ms,
        "read_p50_ms" => e.read_p50_ms,
        "cpu_ms_per_op" => e.cpu_ms_per_op,
        _ => return None,
    })
}

/// One of the `TIMINGS`: `open_s` from the set-up, the rest from the rounds.
pub fn timing(name: &str, fx: &Fixture, e: &Estimate) -> f64 {
    match name {
        "open_s" => fx.open_s(),
        name => round_metric(name, e).expect("a round metric"),
    }
}

/// The real server over an instance, on its own thread, and the one
/// connection the load is sent on.
pub struct Stage {
    pub system: Arc<Create>,
    pub client: KeepAliveClient,
    shutdown: ShutdownHandle,
    server_thread: std::thread::JoinHandle<()>,
}

impl Stage {
    pub fn start(system: Create) -> Stage {
        Stage::start_shared(&Arc::new(system))
    }

    /// Serves an instance the caller keeps using after the stage stops.
    pub fn start_shared(system: &Arc<Create>) -> Stage {
        let server = Server::bind("127.0.0.1:0", build_api(Arc::clone(system)))
            .expect("bind the server to a loopback port");
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let server_thread = std::thread::spawn(move || server.serve());
        let client = KeepAliveClient::connect(addr).expect("connect to the server");
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("set the read timeout");
        Stage {
            system: Arc::clone(system),
            client,
            shutdown,
            server_thread,
        }
    }

    /// Closes the connection, stops the server, waits for its threads and
    /// hands back the instance; dropping it closes its files unless the
    /// caller shares it.
    pub fn stop(self) -> Arc<Create> {
        drop(self.client);
        self.shutdown.shutdown();
        self.server_thread.join().expect("server thread panicked");
        self.system
    }
}

/// The untimed warm-up: one round. A writing workload discards the copy it
/// warms up on, so what carries over is only the warmth of the process
/// (code, allocator, file cache), and the requests up to the round's first
/// flush provide that in a sixth of the time.
pub fn warm_up(workload: Workload, stage: &mut Stage, requests: &[Req]) -> RoundResult {
    let warmup_len = match requests.iter().position(|r| r.kind == Kind::Flush) {
        Some(first_flush) if workload.writes() => first_flush + 1,
        _ => requests.len(),
    };
    run_round(&mut stage.client, &requests[..warmup_len], false)
}

/// The timed rounds of a run and the query-cache traffic they caused.
pub struct Timed {
    pub rounds: Vec<RoundResult>,
    pub hits: u64,
    pub lookups: u64,
}

/// Plays `count` timed rounds and returns the stage the last one ran on.
/// A workload that writes plays each round on a fresh copy of the fixture:
/// left to accumulate, every round would run against a larger corpus than
/// the one before and no two rounds could be compared.
pub fn play_rounds(
    workload: Workload,
    fx: &Fixture,
    work: &Path,
    mut stage: Stage,
    requests: &[Req],
    count: usize,
    errors: &mut Vec<String>,
) -> (Stage, Timed) {
    let writes = workload.writes();
    let compactions = || create_obs::counter(create_obs::names::COMPACTION_RUNS_TOTAL).get();
    let mut timed = Timed {
        rounds: Vec::new(),
        hits: 0,
        lookups: 0,
    };
    for i in 0..count {
        // The cohort check reads the last round's answers.
        let keep_bodies = workload == Workload::CohortMix && i + 1 == count;
        if writes {
            drop(stage.stop());
            stage = Stage::start(fx.open_copy(work));
        }
        let (hits_before, lookups_before) = cache_counts(&stage.system);
        let compactions_before = compactions();
        let round = run_round(&mut stage.client, requests, keep_bodies);
        let (hits_after, lookups_after) = cache_counts(&stage.system);
        timed.hits += hits_after - hits_before;
        timed.lookups += lookups_after - lookups_before;
        if writes {
            // Two seal, seal, compact cycles per shard and round; anything
            // else means the round did other storage work than intended.
            let runs = compactions() - compactions_before;
            if runs != 2 * spec::SHARDS as u64 {
                errors.push(format!(
                    "round {}: {runs} compaction runs, expected {}",
                    i + 1,
                    2 * spec::SHARDS
                ));
            }
        }
        // Identical request lists on identical state must give identical bytes.
        if timed
            .rounds
            .first()
            .is_some_and(|first| first.digest.hex() != round.digest.hex())
        {
            errors.push(format!("round {} answered differently from round 1", i + 1));
        }
        timed.rounds.push(round);
    }
    (stage, timed)
}

/// Runs one workload end to end. Returns the full report and whether every
/// check passed.
pub fn run(opts: &RunOptions, process_start: Instant) -> (Value, bool) {
    let workload = opts.workload;
    let mut errors: Vec<String> = Vec::new();
    let dir = data_dir(workload);
    let work = dir.with_extension("work");
    let (fx, opened) = Fixture::build(&dir, opts.seed, opts.corpus_reports());
    // A workload that writes never touches the fixture itself, only copies.
    let writes = workload.writes();
    let mut stage = if writes {
        drop(opened);
        Stage::start(fx.open_copy(&work))
    } else {
        Stage::start(opened)
    };
    let requests = round_requests(workload, &fx, opts.seed);
    let submitted_bytes: u64 = if writes {
        workload::ingest_reports(opts.seed)
            .iter()
            .map(|r| r.text.len() as u64)
            .sum()
    } else {
        0
    };
    let mut tallies: BTreeMap<&'static str, Tally> = BTreeMap::new();

    let started = Instant::now();
    let warmup = warm_up(workload, &mut stage, &requests);
    let warmup_s = started.elapsed().as_secs_f64();
    add_tallies(&mut tallies, &warmup);
    let setup_s = process_start.elapsed().as_secs_f64();

    let timed_rounds = workload.rounds(opts.seconds, opts.quick);
    let (mut stage, timed) = play_rounds(
        workload,
        &fx,
        &work,
        stage,
        &requests,
        timed_rounds,
        &mut errors,
    );
    let Timed {
        rounds,
        hits,
        lookups,
    } = timed;
    for round in &rounds {
        add_tallies(&mut tallies, round);
    }
    let hit_ratio = check_hit_ratio(workload, hits, lookups, &mut errors);

    let digest = rounds[0].digest.hex();
    let last = rounds.last().expect("at least one timed round");
    if workload == Workload::CohortMix {
        check_cohorts(&fx, &stage.system, last, &mut errors);
    }
    let acknowledged_docs = last
        .tallies
        .iter()
        .find(|(path, _)| *path == "/submit_batch")
        .map_or(0, |(_, t)| {
            (t.attempted - t.failed) as usize * workload::DOCS_PER_SUBMIT
        });

    let final_flush = run_round(&mut stage.client, &[workload::Req::flush(0)], false);
    add_tallies(&mut tallies, &final_flush);
    let served_dir = if writes { &work } else { &dir };
    let disk_ratio =
        fixture::dir_bytes(served_dir) as f64 / (fx.user_bytes + submitted_bytes) as f64;
    // Read before the durability re-open below, which is a check and not
    // part of what the workload makes the program do.
    let peak_rss = peak_rss_mb();

    drop(stage.stop());
    if writes {
        // Durability: a fresh open of the directory holds every
        // acknowledged submission of the round played on it.
        let reopened = Create::open(&work, fixture::config()).expect("reopen after the run");
        let held = reopened.stats().reports;
        if held != fx.reports.len() + acknowledged_docs {
            errors.push(format!(
                "reopen holds {held} reports, expected {} + {acknowledged_docs} acknowledged",
                fx.reports.len()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&dir);

    let attempted: u64 = tallies.values().map(|t| t.attempted).sum();
    let failed: u64 = tallies.values().map(|t| t.failed).sum();
    if failed > 0 {
        errors.push(format!("{failed} of {attempted} requests failed"));
    }

    // What is reported comes from the fastest measurement of each request
    // over all rounds; each round's own statistics are printed beside it,
    // so that what the program itself varies by is not hidden.
    let all_rounds: Vec<&RoundResult> = rounds.iter().collect();
    let reported = estimate(workload, &requests, &all_rounds);
    let per_round: Vec<Estimate> = rounds
        .iter()
        .map(|r| estimate(workload, &requests, &[r]))
        .collect();
    let mut metrics = BTreeMap::new();
    for spec in &END_TO_END {
        let value = match spec.name {
            "setup_s" => setup_s,
            "peak_rss_mb" => peak_rss,
            "disk_bytes_per_user_byte" => disk_ratio,
            name => unreachable!("{name} is not measured"),
        };
        metrics.insert(spec.name.to_string(), metric_json(value, spec.unit));
    }
    let mut round_values = BTreeMap::new();
    let mut round_summaries = BTreeMap::new();
    for spec in &TIMINGS {
        let value = timing(spec.name, &fx, &reported);
        metrics.insert(spec.name.to_string(), metric_json(value, spec.unit));
        let values: Vec<f64> = per_round
            .iter()
            .filter_map(|e| round_metric(spec.name, e))
            .collect();
        if values.is_empty() {
            continue;
        }
        let summary = summarize_rounds(&values, spec.better);
        round_values.insert(spec.name.to_string(), Value::from(values));
        round_summaries.insert(
            spec.name.to_string(),
            obj([
                ("best_round", summary.best.into()),
                ("median_round", summary.median.into()),
                ("q1", summary.q1.into()),
                ("q3", summary.q3.into()),
            ]),
        );
    }
    round_values.insert(
        "wall_s".to_string(),
        Value::from(rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    );

    let requests_json: BTreeMap<String, Value> = tallies
        .iter()
        .map(|(path, t)| {
            let row = obj([
                ("attempted", (t.attempted as i64).into()),
                ("succeeded", ((t.attempted - t.failed) as i64).into()),
                ("failed", (t.failed as i64).into()),
            ]);
            (path.to_string(), row)
        })
        .collect();

    print_rounds(workload, &rounds, &per_round, &reported, &errors);
    let correct = errors.is_empty();
    let phases = &fx.phases;
    let report = obj([
        ("workload", workload.name().into()),
        ("seed", (opts.seed as f64).into()),
        ("correct", correct.into()),
        ("attempted", (attempted as i64).into()),
        ("failed", (failed as i64).into()),
        ("metrics", Value::Object(metrics)),
        ("timed_rounds", rounds.len().into()),
        ("rounds", Value::Object(round_values)),
        ("round_summary", Value::Object(round_summaries)),
        ("requests", Value::Object(requests_json)),
        ("result_digest", digest.into()),
        ("cache_hit_ratio", hit_ratio.into()),
        (
            "setup_phases",
            obj([
                ("generate_s", phases.generate_s.into()),
                ("build_flush_s", phases.build_flush_s.into()),
                ("opens_s", Value::from(phases.opens_s.clone())),
                ("tagger_s", phases.tagger_s.into()),
                ("warmup_round_s", warmup_s.into()),
            ]),
        ),
        ("host", host_json(fx.reports.len())),
        ("errors", Value::from(errors)),
    ]);
    (report, correct)
}

/// The per-round table on stderr, and under it what the run reports.
fn print_rounds(
    workload: Workload,
    rounds: &[RoundResult],
    per_round: &[Estimate],
    reported: &Estimate,
    errors: &[String],
) {
    eprintln!("{}: {} timed rounds", workload.name(), rounds.len());
    eprintln!("     round   wall_s  ops_per_s  op_p50_ms  op_p90_ms  read_p50_ms  cpu_ms_per_op");
    let row = |label: &str, wall: String, e: &Estimate| {
        eprintln!(
            "  {label:>8} {wall:>8} {:>10.1} {:>10.3} {:>10.3} {:>12.3} {:>14.4}",
            e.ops_per_s, e.op_p50_ms, e.op_p90_ms, e.read_p50_ms, e.cpu_ms_per_op
        );
    };
    for (i, (r, e)) in rounds.iter().zip(per_round).enumerate() {
        row(&(i + 1).to_string(), format!("{:.3}", r.wall_s), e);
    }
    row("reported", String::new(), reported);
    for (name, better) in [("ops_per_s", Better::Higher), ("op_p50_ms", Better::Lower)] {
        let values: Vec<f64> = per_round
            .iter()
            .filter_map(|e| round_metric(name, e))
            .collect();
        let s = summarize_rounds(&values, better);
        eprintln!(
            "  {name} by round: best {:.3}  median {:.3}  quartiles {:.3}..{:.3}",
            s.best, s.median, s.q1, s.q3
        );
    }
    for e in errors {
        eprintln!("  CHECK FAILED: {e}");
    }
}
