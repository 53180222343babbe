//! Runs that start other runs: `all` plays the four workloads in order, and
//! `aa` plays whole sets of runs back to back on the same build, to show
//! how far two measurements of identical code disagree.
//!
//! Every run is a child process of its own, because `setup_s` and
//! `peak_rss_mb` are per process.

use crate::spec::{Workload, END_TO_END, TIMINGS};
use crate::stats::{iqr_share, median};
use create_docstore::json::parse_json;
use create_docstore::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Starts `create-benchmark run` and returns the report on its last line.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    quick: bool,
    show_tables: bool,
) -> Option<Value> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut command = Command::new(exe);
    command
        .args([
            "run",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(if show_tables {
            Stdio::inherit()
        } else {
            Stdio::null()
        });
    if quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command.output().expect("start a benchmark run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout.lines().last().and_then(|l| parse_json(l).ok())?;
    (report.get("correct").and_then(Value::as_bool) == Some(true)).then_some(report)
}

/// The four workloads in order; their reports one per line, then all of
/// them in one object on the last line.
pub fn run_all(seed: u64, seconds: u64, quick: bool) -> bool {
    let mut all = BTreeMap::new();
    for workload in Workload::ALL {
        match child_run(workload, seed, seconds, quick, true) {
            Some(report) => {
                println!("{}", report.to_json());
                all.insert(workload.name().to_string(), report);
            }
            None => eprintln!(
                "{}: the run failed or reported incorrect results",
                workload.name()
            ),
        }
    }
    let ok = all.len() == Workload::ALL.len();
    println!("{}", Value::Object(all).to_json());
    ok
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` beside this
/// package's directory.
fn bounds() -> BTreeMap<String, f64> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = parse_json(&text).expect("BENCHMARK.json is JSON");
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("metric name");
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .expect("metric bound");
            (name.to_string(), bound)
        })
        .collect()
}

/// `sets` sets of `runs` runs per workload, run `j` of every set with seed
/// `seed + j`. Prints, per workload and metric (the bounded end-to-end
/// metrics, then the unbounded timings), each set's median and quartile
/// spread, the gap between the first and the last set's medians, and the
/// bound. Fails if the gap of a bounded metric is above half its bound.
pub fn run_aa(sets: usize, runs: usize, seed: u64, seconds: u64) -> bool {
    let bounds = bounds();
    // values[set][workload][metric] = one value per run
    let mut values: Vec<BTreeMap<&str, BTreeMap<&str, Vec<f64>>>> = vec![BTreeMap::new(); sets];
    let mut ok = true;
    for (set, set_values) in values.iter_mut().enumerate() {
        for j in 0..runs {
            for workload in Workload::ALL {
                let started = std::time::Instant::now();
                let report = child_run(workload, seed + j as u64, seconds, false, false);
                eprintln!(
                    "set {} run {} {}: {} in {:.1} s",
                    set + 1,
                    j + 1,
                    workload.name(),
                    if report.is_some() { "ok" } else { "FAILED" },
                    started.elapsed().as_secs_f64()
                );
                let Some(report) = report else {
                    ok = false;
                    continue;
                };
                let mut row = format!(
                    "run set={} seed={} {}",
                    set + 1,
                    seed + j as u64,
                    workload.name()
                );
                for spec in END_TO_END.iter().chain(&TIMINGS) {
                    let value = report
                        .get("metrics")
                        .and_then(|m| m.get(spec.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64)
                        .expect("every end-to-end metric and timing is reported");
                    row.push_str(&format!(" {}={value:.5}", spec.name));
                    set_values
                        .entry(workload.name())
                        .or_default()
                        .entry(spec.name)
                        .or_default()
                        .push(value);
                }
                println!("{row}");
            }
        }
    }
    println!(
        "{:<20} {:<26} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "gap %", "iqr A %", "iqr B %", "bound %"
    );
    let empty = Vec::new();
    for workload in Workload::ALL {
        for spec in END_TO_END.iter().chain(&TIMINGS) {
            let of = |set: usize| -> &Vec<f64> {
                values[set]
                    .get(workload.name())
                    .and_then(|m| m.get(spec.name))
                    .unwrap_or(&empty)
            };
            let (a, b) = (of(0), of(sets - 1));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (median(a), median(b));
            let gap = (mb - ma).abs() / ma.abs();
            let row = format!(
                "{:<20} {:<26} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>8.2}",
                workload.name(),
                spec.name,
                ma,
                mb,
                gap * 100.0,
                iqr_share(a) * 100.0,
                iqr_share(b) * 100.0,
            );
            // The timings have no bound; their rows show why.
            let Some(&bound) = bounds.get(spec.name) else {
                println!("{row} {:>7}", "none");
                continue;
            };
            let mut flags = String::new();
            if gap > bound / 2.0 {
                flags.push_str("  GAP ABOVE HALF THE BOUND");
                ok = false;
            }
            // `setup_s` is exempt from the spread rule, not from the gap rule.
            if spec.name != "setup_s" && iqr_share(a).max(iqr_share(b)) > bound / 3.0 {
                flags.push_str("  spread above a third of the bound");
            }
            println!("{row} {:>7.1}{flags}", bound * 100.0);
        }
    }
    println!(
        "{}",
        if ok {
            "A/A: every gap is within half its bound"
        } else {
            "A/A: FAILED"
        }
    );
    ok
}
