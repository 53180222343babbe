//! What a round of each workload sends, and the closed loop that sends it:
//! one client thread, one keep-alive connection, the next request only
//! after the previous response, no pipelining.

use crate::fixture::{self, cohort_queries, CohortClass, Fixture};
use crate::spec::Workload;
use crate::stats::{percentile, sorted};
use create_corpus::CaseReport;
use create_docstore::json::obj;
use create_docstore::Value;
use create_server::client::ClientResponse;
use create_server::KeepAliveClient;
use std::time::Instant;

/// Queries of the `search_repeat` working set; fits every cache.
pub const REPEAT_QUERIES: usize = 64;
/// Passes over the repeat set in one round.
const REPEAT_CYCLES: usize = 200;
/// Passes over the 22 cohort bodies in one round.
const COHORT_PASSES: usize = 10;
/// Write cycles in one `ingest_interleaved` round.
pub const INGEST_CYCLES: usize = 108;
/// Documents per `POST /submit_batch`.
pub const DOCS_PER_SUBMIT: usize = 2;
/// Searches after each submit.
const SEARCHES_PER_CYCLE: usize = 2;
/// A `POST /flush` follows every this-many cycles: six per round, and with
/// compaction firing at four segments per shard that is two full
/// seal, seal, compact cycles, so every round starts from one segment.
pub const CYCLES_PER_FLUSH: usize = 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Search,
    Cohort(CohortClass),
    Submit,
    Flush,
}

impl Kind {
    pub fn path(self) -> &'static str {
        match self {
            Kind::Search => "/search",
            Kind::Cohort(_) => "/cohort",
            Kind::Submit => "/submit_batch",
            Kind::Flush => "/flush",
        }
    }

    fn is_read(self) -> bool {
        matches!(self, Kind::Search | Kind::Cohort(_))
    }

    fn expected_status(self) -> u16 {
        if self == Kind::Submit {
            201
        } else {
            200
        }
    }
}

#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    /// Path with query string for a GET; route for a POST.
    pub target: String,
    /// `Some` makes it a POST.
    pub body: Option<String>,
    /// Position of the input in the round's distinct-input list, shared by
    /// the traced run's passes.
    pub input: usize,
}

impl Req {
    /// `POST /flush`, tagged with the write cycle it follows.
    pub fn flush(input: usize) -> Req {
        Req {
            kind: Kind::Flush,
            target: "/flush".to_string(),
            body: None,
            input,
        }
    }
}

fn search_req(fx: &Fixture, query: usize) -> Req {
    Req {
        kind: Kind::Search,
        target: fixture::search_path(&fx.queries[query]),
        body: None,
        input: query,
    }
}

/// The reports an `ingest_interleaved` round submits: new to the fixture,
/// and the same in every round, since each round has its own fixture copy.
pub fn ingest_reports(seed: u64) -> Vec<CaseReport> {
    let mut reports =
        fixture::generate_reports(fixture::sub_seed(seed, 3), INGEST_CYCLES * DOCS_PER_SUBMIT);
    for (i, r) in reports.iter_mut().enumerate() {
        r.id = format!("bench:{i}");
    }
    reports
}

pub fn submit_body(docs: &[CaseReport]) -> String {
    let documents: Vec<Value> = docs
        .iter()
        .map(|r| {
            obj([
                ("id", r.id.as_str().into()),
                ("title", r.title.as_str().into()),
                ("text", r.text.as_str().into()),
                ("year", (r.metadata.year as i64).into()),
            ])
        })
        .collect();
    obj([("documents", Value::Array(documents))]).to_json()
}

/// The request list of one round; every round of a run replays it.
pub fn round_requests(workload: Workload, fx: &Fixture, seed: u64) -> Vec<Req> {
    match workload {
        Workload::SearchUnique => (0..fx.queries.len()).map(|q| search_req(fx, q)).collect(),
        Workload::SearchRepeat => {
            let set: Vec<Req> = (0..REPEAT_QUERIES).map(|q| search_req(fx, q)).collect();
            (0..REPEAT_CYCLES)
                .flat_map(|_| set.iter().cloned())
                .collect()
        }
        Workload::CohortMix => {
            let set: Vec<Req> = cohort_queries()
                .into_iter()
                .enumerate()
                .map(|(input, c)| Req {
                    kind: Kind::Cohort(c.class),
                    target: "/cohort".to_string(),
                    body: Some(c.body),
                    input,
                })
                .collect();
            (0..COHORT_PASSES)
                .flat_map(|_| set.iter().cloned())
                .collect()
        }
        Workload::IngestInterleaved => {
            let reports = ingest_reports(seed);
            let mut out = Vec::new();
            for (cycle, docs) in reports.chunks(DOCS_PER_SUBMIT).enumerate() {
                out.push(Req {
                    kind: Kind::Submit,
                    target: "/submit_batch".to_string(),
                    body: Some(submit_body(docs)),
                    input: cycle,
                });
                for s in 0..SEARCHES_PER_CYCLE {
                    out.push(search_req(fx, cycle * SEARCHES_PER_CYCLE + s));
                }
                if (cycle + 1) % CYCLES_PER_FLUSH == 0 {
                    out.push(Req::flush(cycle));
                }
            }
            out
        }
    }
}

/// One request on the connection. `/flush` is a bodyless POST.
pub fn send(client: &mut KeepAliveClient, req: &Req) -> std::io::Result<ClientResponse> {
    match (&req.body, req.kind) {
        (Some(body), _) => client.post(&req.target, body),
        (None, Kind::Flush) => client.post(&req.target, ""),
        (None, _) => client.get(&req.target),
    }
}

/// Process CPU time in milliseconds: on-CPU nanoseconds of every thread,
/// from `/proc/self/task/*/schedstat`. (`/proc/self/stat` counts 10 ms
/// ticks, too coarse for a slice of a round.)
pub fn process_cpu_ms() -> f64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    let mut nanos = 0u64;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            nanos += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    nanos as f64 / 1e6
}

/// FNV-1a over response bodies, in request order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Body boundary, so moving a byte between bodies changes the digest.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Attempted and failed requests of one request type.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// A round is cut into this many slices for CPU accounting; reading the
/// CPU clock costs tens of microseconds, too much to do per request.
const CPU_SLICES: usize = 64;

/// What one round measured.
#[derive(Debug, Clone)]
pub struct RoundResult {
    pub wall_s: f64,
    /// Round-trip time (ms) of every request, in list order; infinite for
    /// a failed request.
    pub latency_ms: Vec<f64>,
    /// Process CPU (ms) spent during each slice of the list.
    pub slice_cpu_ms: Vec<f64>,
    pub digest: Digest,
    /// Per request path, in first-seen order.
    pub tallies: Vec<(&'static str, Tally)>,
    /// Bodies of the successful responses, by request position; kept only
    /// where a check needs them.
    pub bodies: Vec<Option<Vec<u8>>>,
}

impl RoundResult {
    pub fn failed(&self) -> u64 {
        self.tallies.iter().map(|(_, t)| t.failed).sum()
    }
}

/// Sends the round's requests in order and times each round trip. Responses
/// are kept whole and checked after the clocks stop.
pub fn run_round(client: &mut KeepAliveClient, requests: &[Req], keep_bodies: bool) -> RoundResult {
    let mut latency_ms = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    let mut slice_cpu_ms = Vec::with_capacity(CPU_SLICES);
    let started = Instant::now();
    for slice in requests.chunks(requests.len().div_ceil(CPU_SLICES)) {
        let cpu_before = process_cpu_ms();
        for req in slice {
            let sent = Instant::now();
            let response = send(client, req);
            latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            responses.push(response);
        }
        slice_cpu_ms.push(process_cpu_ms() - cpu_before);
    }
    let wall_s = started.elapsed().as_secs_f64();

    let mut result = RoundResult {
        wall_s,
        latency_ms,
        slice_cpu_ms,
        digest: Digest::new(),
        tallies: Vec::new(),
        bodies: Vec::new(),
    };
    for (i, (req, response)) in requests.iter().zip(responses).enumerate() {
        let path = req.kind.path();
        let slot = match result.tallies.iter().position(|(p, _)| *p == path) {
            Some(slot) => slot,
            None => {
                result.tallies.push((path, Tally::default()));
                result.tallies.len() - 1
            }
        };
        let tally = &mut result.tallies[slot].1;
        tally.attempted += 1;
        // A short read or a reset is an `Err`; any other status than the
        // route's success code is a failure too.
        match response {
            Ok(r) if r.status == req.kind.expected_status() && !r.body.is_empty() => {
                result.digest.update(&r.body);
                result.bodies.push(keep_bodies.then_some(r.body));
            }
            _ => {
                tally.failed += 1;
                result.latency_ms[i] = f64::INFINITY;
                result.bodies.push(None);
            }
        }
    }
    result
}

/// The end-to-end numbers of a set of rounds over one request list.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    pub ops_per_s: f64,
    pub op_p50_ms: f64,
    pub op_p90_ms: f64,
    pub read_p50_ms: f64,
    pub cpu_ms_per_op: f64,
}

/// Estimates from the quietest execution of each piece of the list.
///
/// Every round replays the same requests on the same state, so request
/// *i* is measured once per round, and a neighbour on the host can only
/// make a measurement slower. The fastest of the measurements of request
/// *i* is therefore the one least disturbed, and likewise the cheapest CPU
/// reading of each slice. Percentiles are taken over those per-request
/// minima, throughput is the list length over their sum (the loop is
/// closed, so a round's wall time is the sum of its round trips), and CPU
/// per request is the sum of the per-slice minima over the list length.
/// Given a single round this is that round's own statistics.
pub fn estimate(workload: Workload, requests: &[Req], rounds: &[&RoundResult]) -> Estimate {
    let fastest = |per_round: &dyn Fn(&RoundResult) -> &Vec<f64>| -> Vec<f64> {
        let len = per_round(rounds[0]).len();
        (0..len)
            .map(|i| {
                rounds
                    .iter()
                    .map(|r| per_round(r)[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let latency = fastest(&|r| &r.latency_ms);
    let cpu = fastest(&|r| &r.slice_cpu_ms);
    let of = |keep: &dyn Fn(&Req) -> bool| -> Vec<f64> {
        sorted(
            requests
                .iter()
                .zip(&latency)
                .filter(|(r, l)| keep(r) && l.is_finite())
                .map(|(_, l)| *l)
                .collect(),
        )
    };
    let primary = of(&|r| r.kind.path() == workload.primary_path());
    let reads = of(&|r| r.kind.is_read());
    let n = requests.len() as f64;
    Estimate {
        ops_per_s: n / (latency.iter().filter(|l| l.is_finite()).sum::<f64>() / 1e3),
        op_p50_ms: percentile(&primary, 0.5),
        op_p90_ms: percentile(&primary, 0.9),
        read_p50_ms: percentile(&reads, 0.5),
        cpu_ms_per_op: cpu.iter().sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_bytes_order_and_boundaries() {
        let digest = |bodies: &[&[u8]]| {
            let mut d = Digest::new();
            for b in bodies {
                d.update(b);
            }
            d.hex()
        };
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"ab", b"c"]));
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"c", b"ab"]));
    }

    fn round(latency_ms: Vec<f64>, slice_cpu_ms: Vec<f64>) -> RoundResult {
        RoundResult {
            wall_s: latency_ms.iter().sum::<f64>() / 1e3,
            latency_ms,
            slice_cpu_ms,
            digest: Digest::new(),
            tallies: Vec::new(),
            bodies: Vec::new(),
        }
    }

    #[test]
    fn estimate_takes_the_fastest_measurement_of_each_piece() {
        let search = |input| Req {
            kind: Kind::Search,
            target: String::new(),
            body: None,
            input,
        };
        let requests: Vec<Req> = (0..4).map(search).collect();
        // A neighbour slows the second half of round 1 and the first half
        // of round 2; neither round is quiet, every request once is.
        let a = round(vec![1.0, 2.0, 9.0, 12.0], vec![2.0, 8.0]);
        let b = round(vec![5.0, 6.0, 3.0, 4.0], vec![7.0, 3.0]);
        let e = estimate(Workload::SearchUnique, &requests, &[&a, &b]);
        assert_eq!(e.op_p50_ms, 2.0);
        assert_eq!(e.op_p90_ms, 4.0);
        assert_eq!(e.read_p50_ms, 2.0);
        assert!(
            (e.ops_per_s - 400.0).abs() < 1e-9,
            "4 requests in 10 ms, got {}",
            e.ops_per_s
        );
        assert!((e.cpu_ms_per_op - 1.25).abs() < 1e-12);
        // One round alone is its own statistics.
        let alone = estimate(Workload::SearchUnique, &requests, &[&a]);
        assert_eq!((alone.op_p50_ms, alone.op_p90_ms), (2.0, 12.0));
        assert!((alone.ops_per_s - 4.0 / 0.024).abs() < 1e-9);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ms();
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ms() - before >= 20.0);
    }
}
