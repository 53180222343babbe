//! The REST API end-to-end: boot the HTTP server over a loaded platform
//! and exercise every endpoint with a plain TCP client.
//!
//! ```bash
//! cargo run --release --example rest_api -- --log-level debug
//! # durable mode: WAL + segments under DIR/storage, crash-recoverable
//! cargo run --release --example rest_api -- --data-dir /tmp/create-data --addr 127.0.0.1:8745 --serve
//! ```

use create::core::{Create, CreateConfig};
use create::corpus::{CorpusConfig, Generator};
use create::server::server::{http_get, http_post};
use create::server::{build_api, Server};
use std::sync::Arc;

fn main() {
    // `--log-level error|warn|info|debug` tunes the obs event log.
    // `--data-dir DIR` opens a disk-backed (WAL + segment) platform at
    // DIR instead of an in-memory one — killing the process and
    // restarting recovers every acknowledged write.
    // `--addr HOST:PORT` pins the listen address (default: an
    // OS-assigned port). `--serve` keeps serving until killed instead
    // of running the scripted endpoint tour.
    let mut args = std::env::args().skip(1);
    let mut data_dir: Option<String> = None;
    let mut addr_arg = "127.0.0.1:0".to_string();
    let mut serve_forever = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--log-level" => {
                let value = args.next().unwrap_or_default();
                match create::obs::Level::parse(&value) {
                    Some(level) => create::obs::set_log_level(level),
                    None => {
                        eprintln!("unknown log level {value:?} (use error|warn|info|debug)");
                        std::process::exit(2);
                    }
                }
            }
            "--data-dir" => data_dir = Some(args.next().unwrap_or_default()),
            "--addr" => addr_arg = args.next().unwrap_or_default(),
            "--serve" => serve_forever = true,
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    // Load the platform with a tagger so POST /submit works.
    let reports = Generator::new(CorpusConfig {
        num_reports: 80,
        seed: 55,
        ..Default::default()
    })
    .generate();
    let system = match &data_dir {
        Some(dir) => match Create::open(dir, CreateConfig::default()) {
            Ok(system) => system,
            Err(e) => {
                eprintln!("failed to open {dir:?}: {e}");
                std::process::exit(1);
            }
        },
        None => Create::new(CreateConfig::default()),
    };
    let dataset =
        create::ner::NerDataset::from_reports(&reports, create::ner::LabelSet::ner_targets());
    let tagger = create::ner::CrfTagger::train(
        &dataset,
        create::ner::CrfTaggerConfig::default(),
        Some(system.ontology()),
        None,
    );
    system.attach_tagger(tagger);
    // A reopened data directory already holds the corpus — only seed it
    // on first boot so repeated restarts don't duplicate work.
    if system.stats().reports == 0 {
        for r in &reports {
            system.ingest_gold(r).expect("ingest");
        }
    }
    let first_id = reports[0].id.clone();

    let shared = Arc::new(system);
    let server = Server::bind(addr_arg.as_str(), build_api(Arc::clone(&shared))).expect("bind");
    // Graceful shutdown seals the WAL tails into segments (a no-op for
    // an in-memory instance; a disk-backed one restarts with nothing to
    // replay).
    let flusher = Arc::clone(&shared);
    server.on_shutdown(move || {
        if let Err(e) = flusher.flush() {
            eprintln!("flush on shutdown failed: {e}");
        }
    });
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.serve());
    println!("CREATe REST API listening on http://{addr}\n");

    if serve_forever {
        // Serve until killed — used by the crash-recovery smoke test,
        // which SIGKILLs this process and expects a clean reopen.
        server_thread.join().expect("server thread");
        return;
    }

    let show = |label: &str, result: std::io::Result<(u16, String)>| {
        let (status, body) = result.expect("request");
        let preview: String = body.chars().take(160).collect();
        println!("{label}\n  → {status}: {preview}…\n");
    };

    show("GET /health", http_get(addr, "/health"));
    show("GET /stats", http_get(addr, "/stats"));
    show(
        "GET /search?q=fever+and+cough",
        http_get(addr, "/search?q=fever+and+cough&k=3"),
    );
    show(
        "GET /search with es_only (Solr mode)",
        http_get(addr, "/search?q=fever+and+cough&k=3&policy=es_only"),
    );
    show(
        &format!("GET /reports/{first_id}"),
        http_get(addr, &format!("/reports/{first_id}")),
    );
    show(
        &format!("GET /reports/{first_id}/annotations (BRAT)"),
        http_get(addr, &format!("/reports/{first_id}/annotations")),
    );
    show(
        &format!("GET /reports/{first_id}/graph.svg"),
        http_get(addr, &format!("/reports/{first_id}/graph.svg")),
    );
    show(
        "POST /submit",
        http_post(
            addr,
            "/submit",
            r#"{"id": "user:rest1", "title": "Submitted case", "text": "A 50-year-old man presented with chest pain. An electrocardiogram revealed myocardial infarction. He was treated with aspirin.", "year": 2021}"#,
        ),
    );
    show(
        "GET /search?q=chest+pain (finds the submission)",
        http_get(addr, "/search?q=chest+pain+myocardial+infarction&k=3"),
    );
    show(
        "POST /flush (seal WAL tails into segments)",
        http_post(addr, "/flush", ""),
    );
    show(
        "GET /metrics (Prometheus exposition)",
        http_get(addr, "/metrics"),
    );
    show("GET /slowlog", http_get(addr, "/slowlog"));

    handle.shutdown();
    server_thread.join().expect("server thread");
    println!("server stopped cleanly");
}
