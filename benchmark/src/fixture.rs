//! The fixture every workload runs against: a seeded synthetic corpus
//! loaded into a disk-backed, two-shard `Create`, flushed, reopened, given
//! a tagger and served by the real HTTP server in this process.

use crate::spec::{K, SHARDS};
use create_core::{Create, CreateConfig};
use create_corpus::{gold_cohorts, CaseReport, CohortSpec, CorpusConfig, Generator, QuerySet};
use create_ner::{CrfTagger, CrfTaggerConfig, LabelSet, NerDataset};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Distinct query texts: more than every cache on the `/search` path holds
/// (query LRU 256 per shard, `ParseCache` 512, `SearchBodyCache` 512), so a
/// cyclic pass over them never hits.
pub const QUERY_COUNT: usize = 640;
/// Queries are generated against this many reports, so that building their
/// relevance judgments (which the benchmark does not use) stays cheap.
const QUERY_SAMPLE_REPORTS: usize = 400;
/// Reports the tagger is trained on.
const TAGGER_REPORTS: usize = 60;
/// Times the flushed fixture is opened; `open_s` is the fastest.
const OPENS: usize = 5;

/// Seed of the corpus. The corpus is the dataset and is the same in every
/// run; `--seed` draws the traffic against it (the queries and the
/// submitted documents). Corpus-sized numbers such as `open_s`,
/// `peak_rss_mb` and `disk_bytes_per_user_byte` then do not move with the
/// seed, and what moves them is the program.
const CORPUS_SEED: u64 = 0xC0FFEE;

/// Derives an independent stream seed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    (seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1
}

pub fn config() -> CreateConfig {
    CreateConfig {
        shards: SHARDS,
        ..CreateConfig::default()
    }
}

pub fn generate_reports(seed: u64, num_reports: usize) -> Vec<CaseReport> {
    Generator::new(CorpusConfig {
        num_reports,
        seed,
        ..CorpusConfig::default()
    })
    .generate()
}

/// Wall time of each set-up phase, printed beside `setup_s`.
#[derive(Debug, Clone, Default)]
pub struct SetupPhases {
    pub generate_s: f64,
    pub build_flush_s: f64,
    pub opens_s: Vec<f64>,
    pub tagger_s: f64,
}

/// The flushed corpus on disk and the inputs generated beside it.
pub struct Fixture {
    pub dir: PathBuf,
    pub reports: Vec<CaseReport>,
    /// Report text bytes ingested into the fixture.
    pub user_bytes: u64,
    pub queries: Vec<String>,
    pub phases: SetupPhases,
}

impl Fixture {
    /// Builds the fixture under `dir` and returns it with the instance of
    /// its last open, tagger attached.
    pub fn build(dir: &Path, seed: u64, corpus_reports: usize) -> (Fixture, Create) {
        let mut phases = SetupPhases::default();
        let started = Instant::now();
        let reports = generate_reports(CORPUS_SEED, corpus_reports);
        let queries = distinct_queries(&reports, sub_seed(seed, 2));
        phases.generate_s = started.elapsed().as_secs_f64();
        let user_bytes = reports.iter().map(|r| r.text.len() as u64).sum();

        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the fixture directory");
        let started = Instant::now();
        // The loader runs as a child process: loading is parallel and leaves
        // the heap in one of several shapes, which made `peak_rss_mb` jump
        // between 358, 365 and 401 MiB from run to run. What is measured is
        // the process that opens and serves the data.
        let exe = std::env::current_exe().expect("path of this executable");
        let status = std::process::Command::new(exe)
            .arg(LOAD_COMMAND)
            .arg(dir)
            .arg(corpus_reports.to_string())
            .status()
            .expect("start the loader");
        assert!(status.success(), "the loader failed");
        phases.build_flush_s = started.elapsed().as_secs_f64();

        let mut system = None;
        for _ in 0..OPENS {
            drop(system.take());
            let started = Instant::now();
            let opened = Create::open(dir, config()).expect("reopen the flushed fixture");
            phases.opens_s.push(started.elapsed().as_secs_f64());
            assert_eq!(opened.stats().reports, reports.len(), "reopen lost reports");
            system = Some(opened);
        }
        let system = system.expect("at least one open");

        let started = Instant::now();
        attach_tagger(&system, &reports);
        phases.tagger_s = started.elapsed().as_secs_f64();

        (
            Fixture {
                dir: dir.to_path_buf(),
                reports,
                user_bytes,
                queries,
                phases,
            },
            system,
        )
    }

    /// Opens a private copy of the flushed fixture under `work`. A workload
    /// that writes plays every round on its own copy, so that all rounds
    /// start from the same state and stay comparable.
    pub fn open_copy(&self, work: &Path) -> Create {
        let _ = std::fs::remove_dir_all(work);
        copy_dir(&self.dir, work).expect("copy the fixture directory");
        let system = Create::open(work, config()).expect("open the fixture copy");
        attach_tagger(&system, &self.reports);
        system
    }

    pub fn open_s(&self) -> f64 {
        self.phases
            .opens_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Trains the tagger (seeded, so every call gives the same model) on the
/// first reports of the corpus and attaches it; `/submit_batch` needs one.
fn attach_tagger(system: &Create, reports: &[CaseReport]) {
    system.attach_tagger(train_tagger(reports, system.ontology()));
}

pub fn train_tagger(reports: &[CaseReport], ontology: Arc<create_ontology::Ontology>) -> CrfTagger {
    let sample = &reports[..TAGGER_REPORTS.min(reports.len())];
    let dataset = NerDataset::from_reports(sample, LabelSet::ner_targets());
    CrfTagger::train(&dataset, CrfTaggerConfig::default(), Some(ontology), None)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// [`QUERY_COUNT`] distinct query texts in equal shares of the four query
/// families, interleaved so that every prefix keeps the mix.
fn distinct_queries(reports: &[CaseReport], seed: u64) -> Vec<String> {
    let sample = &reports[..QUERY_SAMPLE_REPORTS.min(reports.len())];
    let per_family = QUERY_COUNT / 4;
    let mut by_family: Vec<Vec<String>> = vec![Vec::new(); 4];
    let mut seen = HashSet::new();
    // `QuerySet::generate` cycles the families in a fixed order; duplicates
    // are dropped here, so ask for more than needed until each share fills.
    for attempt in 0..8u64 {
        let set = QuerySet::generate(sample, sub_seed(seed, attempt), QUERY_COUNT * 2);
        for q in set.queries {
            let family = &mut by_family[q.family as usize];
            if family.len() < per_family && seen.insert(q.text.clone()) {
                family.push(q.text);
            }
        }
        if by_family.iter().all(|f| f.len() == per_family) {
            break;
        }
    }
    assert!(
        by_family.iter().all(|f| f.len() == per_family),
        "the query generator could not produce {per_family} distinct queries per family"
    );
    (0..QUERY_COUNT)
        .map(|i| by_family[i % 4][i / 4].clone())
        .collect()
}

pub fn search_path(query: &str) -> String {
    format!("/search?q={}&k={K}", url_encode(query))
}

/// Percent-encodes a query-string component (space as `+`).
fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Which part of the cohort executor a criteria document exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohortClass {
    /// Facet filters only: bitmap intersections.
    Filter,
    /// Filters plus keywords: `search_filtered` pushdown.
    Keyword,
    /// Temporal-interval constraints answered from the graph.
    Temporal,
}

pub struct CohortQuery {
    pub class: CohortClass,
    pub body: String,
    /// The gold spec, when the criteria have an exact expected cohort.
    pub gold: Option<CohortSpec>,
}

const TEMPORAL_SPECS: [&str; 4] = [
    "weight-loss-before-fatigue",
    "fever-with-malaise",
    "anorexia-within-2-months-of-weight-loss",
    "female-weight-loss-before-fatigue",
];

/// Selective filters with keywords, so the pushdown has something to push
/// (the `keyword_pushdown` set of `bench_cohort`).
const KEYWORD_CRITERIA: [&str; 4] = [
    r#"{"filters":[{"field":"category","values":["cancer"]}],"keywords":"weight loss and fatigue","k":10}"#,
    r#"{"filters":[{"field":"sex","values":["female"]},{"field":"category","values":["cardiovascular"]}],"keywords":"chest pain","k":10}"#,
    r#"{"filters":[{"field":"category","values":["infectious"]}],"keywords":"fever and malaise","k":10}"#,
    r#"{"filters":[{"field":"age_band","values":["60-69","70-79","80-89"]}],"keywords":"dyspnea","k":10}"#,
];

/// The 22 `/cohort` bodies of one pass: 14 filter-only gold specs, 4
/// keyword-pushdown criteria, 4 temporal gold specs.
pub fn cohort_queries() -> Vec<CohortQuery> {
    let gold = gold_cohorts();
    let mut out: Vec<CohortQuery> = gold
        .iter()
        .filter(|s| s.temporal.is_empty())
        .map(|s| CohortQuery {
            class: CohortClass::Filter,
            body: s.criteria_json(),
            gold: Some(s.clone()),
        })
        .collect();
    out.extend(KEYWORD_CRITERIA.iter().map(|c| CohortQuery {
        class: CohortClass::Keyword,
        body: c.to_string(),
        gold: None,
    }));
    for name in TEMPORAL_SPECS {
        let spec = gold
            .iter()
            .find(|s| s.name == name)
            .expect("temporal gold spec exists");
        out.push(CohortQuery {
            class: CohortClass::Temporal,
            body: spec.criteria_json(),
            gold: Some(spec.clone()),
        });
    }
    assert_eq!(
        out.len(),
        22,
        "the cohort mix is 14 filter + 4 keyword + 4 temporal"
    );
    out
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Sub-command under which this executable loads the corpus into a data
/// directory and exits; see [`Fixture::build`].
pub const LOAD_COMMAND: &str = "load-fixture";

/// The loader: generates the corpus, loads it into an empty `dir`, flushes.
pub fn load(dir: &Path, corpus_reports: usize) {
    let reports = generate_reports(CORPUS_SEED, corpus_reports);
    let system = Create::open(dir, config()).expect("open an empty data directory");
    let loaded = system
        .ingest_gold_batch(&reports, 0)
        .expect("load the corpus");
    assert_eq!(loaded, reports.len());
    system.flush().expect("flush the loaded corpus");
}
