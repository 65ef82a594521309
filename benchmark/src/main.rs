//! `gea-e2e` — the repo benchmark: client-observed GQL latency and
//! throughput on four workloads, attributed layer by layer.
//!
//! One process runs one workload (so `peak_rss_mb` and warm state never
//! leak between workloads); `run.sh` builds and loops. See `README.md` in
//! this directory for the metric and workload tables.

mod agree;
mod fixture;
mod hist;
mod layers;
mod load;
mod names;
mod oracle;
mod plan;
mod probes;
mod report;
mod rng;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use run::Args;

const USAGE: &str = "\
usage: gea-e2e --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>] [--quick] [--out <dir>]
       gea-e2e --emit-benchmark-json
       gea-e2e agree <set-a.txt> <set-b.txt> [--json <file> --commit <hash> --date <date>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(names::workload(&name).ok_or_else(|| {
                    let known: Vec<&str> = names::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let n: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(n.max(1));
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => quick = true,
            "--out" => out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds: seconds.unwrap_or(if quick { 2 } else { names::RUN_SECONDS }),
        trace,
        quick,
        out_dir,
    })
}

/// Run one workload and report it. `Ok(true)` when every identity check
/// held.
fn bench(args: &Args) -> Result<bool, String> {
    let nproc = report::nproc();
    if args.workload.clients > nproc {
        return Err(format!(
            "{} drives {} client threads but this host has {} core(s); refusing to measure queueing in the load generator",
            args.workload.name, args.workload.clients, nproc
        ));
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let epoch = Instant::now();
    let (mut result, reference) = run::run(args, epoch)?;
    if args.trace {
        let read = result.read_p50_us;
        let (probed, spans) = probes::run(args, reference, &result.per_layer, read, epoch)?;
        result.per_layer.extend(probed);
        result.spans.extend(spans);
        let path = args
            .out_dir
            .join(format!("trace-{}.jsonl", args.workload.name));
        trace::write_jsonl(&path, &result.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        drop(reference);
    }
    report::emit(args, &result)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--emit-benchmark-json") => {
            print!("{}", names::benchmark_json(names::RUN_SECONDS));
            Ok(true)
        }
        Some("agree") => agree::main(&argv[1..]),
        _ => parse_args(&argv).and_then(|args| bench(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("gea-e2e: {why}");
            ExitCode::from(2)
        }
    }
}
