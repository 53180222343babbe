//! `create-benchmark`: the repository's one benchmark. See `README.md`.

mod aa;
mod fixture;
mod layers;
mod prom;
mod run;
mod spans;
mod spec;
mod stats;
mod workload;

use create_docstore::json::obj;
use create_docstore::Value;
use run::RunOptions;
use spec::Workload;
use std::time::Instant;

const USAGE: &str = "\
usage:
  create-benchmark run <workload> [--seed N] [--seconds S] [--quick]
  create-benchmark layers <workload> [--seed N] [--quick]
  create-benchmark all [--seed N] [--seconds S] [--quick]
  create-benchmark aa [--sets 2] [--runs 5] [--seed N] [--seconds S]
  create-benchmark --workload <workload> --seed N --seconds S --trace 0|1
workloads: search_unique search_repeat cohort_mix ingest_interleaved";

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2)
}

/// Flags after the sub-command; every flag but `--quick` takes a value.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    sets: usize,
    runs: usize,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        sets: 2,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        let number = |what: &str, text: String| -> u64 {
            text.parse()
                .unwrap_or_else(|_| fail(&format!("{what} must be a whole number, got {text:?}")))
        };
        match arg.as_str() {
            "--quick" => flags.quick = true,
            "--workload" => {
                let name = value("--workload");
                flags.workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| fail(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => flags.seed = number("--seed", value("--seed")),
            "--seconds" => flags.seconds = number("--seconds", value("--seconds")),
            "--trace" => flags.trace = number("--trace", value("--trace")) != 0,
            "--sets" => flags.sets = number("--sets", value("--sets")) as usize,
            "--runs" => flags.runs = number("--runs", value("--runs")) as usize,
            name if flags.workload.is_none() && !name.starts_with('-') => {
                flags.workload = Some(
                    Workload::parse(name)
                        .unwrap_or_else(|| fail(&format!("unknown workload {name:?}"))),
                );
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    flags
}

/// What the driver form prints: the contract's four keys, and of the
/// metrics the run measured only the list the driver asked for.
fn contract_line(report: &Value, traced: bool) -> Value {
    let field = |k: &str| report.get(k).cloned().unwrap_or(Value::Null);
    let listed: Vec<&spec::MetricSpec> = if traced {
        spec::per_layer().collect()
    } else {
        spec::END_TO_END.iter().collect()
    };
    let metrics = listed.into_iter().filter_map(|m| {
        let value = report.get("metrics")?.get(m.name)?.clone();
        Some((m.name.to_string(), value))
    });
    obj([
        ("correct", field("correct")),
        ("attempted", field("attempted")),
        ("failed", field("failed")),
        ("metrics", Value::Object(metrics.collect())),
    ])
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [command, dir, reports] = &args[..] {
        if command == fixture::LOAD_COMMAND {
            // Internal: the child process `Fixture::build` starts.
            let reports = reports.parse().unwrap_or_else(|_| fail("bad report count"));
            fixture::load(std::path::Path::new(dir), reports);
            return;
        }
    }
    let Some(first) = args.first() else {
        fail("missing sub-command")
    };
    let (command, rest) = match first.as_str() {
        "run" | "layers" | "all" | "aa" => (first.as_str(), &args[1..]),
        // The driver's form has no sub-command: `--trace` picks the run.
        _ => ("driver", &args[..]),
    };
    let flags = parse_flags(rest);
    let one = |traced: bool| -> (Value, bool) {
        let workload = flags.workload.unwrap_or_else(|| fail("missing workload"));
        let opts = RunOptions {
            workload,
            seed: flags.seed,
            seconds: flags.seconds,
            quick: flags.quick,
        };
        if traced {
            layers::run(&opts, process_start)
        } else {
            run::run(&opts, process_start)
        }
    };
    let ok = match command {
        "run" | "layers" => {
            let (report, ok) = one(command == "layers");
            println!("{}", report.to_json());
            ok
        }
        "driver" => {
            let (report, ok) = one(flags.trace);
            println!("{}", contract_line(&report, flags.trace).to_json());
            ok
        }
        "all" => aa::run_all(flags.seed, flags.seconds, flags.quick),
        "aa" => aa::run_aa(flags.sets, flags.runs, flags.seed, flags.seconds),
        _ => unreachable!("sub-command matched above"),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
