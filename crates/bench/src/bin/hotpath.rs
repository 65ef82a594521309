//! Tiered hot-path kernel bench: the `aggregate`/`populate`/`clean` perf
//! trajectories with bit-identity gates.
//!
//! ```text
//! hotpath [--kick-tires | --full] [--threads N] [--out-dir PATH]
//! ```
//!
//! `--kick-tires` (the default) runs the seconds-scale corpus once and
//! only enforces the identity gates — it writes nothing, so it is safe
//! for every CI run and cannot flake on a loaded host. `--full` runs the
//! thesis-scale corpus with interleaved repetitions and writes
//! `BENCH_aggregate.json`, `BENCH_populate.json` and `BENCH_clean.json`
//! into `--out-dir` (default: the working directory). Both tiers exit
//! non-zero if any kernel variant's output diverges from its oracle.

use gea_bench::hotpath::{
    run_aggregate, run_clean, run_populate, to_json, HotpathConfig, HotpathRow,
};

fn usage() -> ! {
    eprintln!("usage: hotpath [--kick-tires | --full] [--threads N] [--out-dir PATH]");
    std::process::exit(2);
}

fn report(op: &str, rows: &[HotpathRow]) -> bool {
    for r in rows {
        eprintln!(
            "hotpath: {op:>9}  {:>9}  {:8.1} ms  identical {}",
            r.variant, r.wall_ms, r.identical
        );
    }
    rows.iter().all(|r| r.identical)
}

fn main() {
    let mut cfg = HotpathConfig::kick_tires();
    let mut out_dir = String::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--kick-tires" => cfg = HotpathConfig::kick_tires(),
            "--full" => cfg = HotpathConfig::full(),
            "--threads" => match args.next().map(|v| v.parse()) {
                Some(Ok(n)) => cfg.threads = n,
                _ => usage(),
            },
            "--out-dir" => match args.next() {
                Some(p) => out_dir = p,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }

    eprintln!(
        "hotpath: {} tier, {} tags x {} libs, {} threads, {} reps (host parallelism {})",
        cfg.tier.name(),
        cfg.n_tags,
        cfg.n_libs,
        cfg.threads,
        cfg.repetitions,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let agg = run_aggregate(&cfg);
    let pop = run_populate(&cfg);
    let (raw_corpus, cln) = run_clean(&cfg);
    let ok = report("aggregate", &agg) & report("populate", &pop) & report("clean", &cln);

    if cfg.tier == gea_bench::hotpath::Tier::Full {
        let matrix_corpus = cfg.corpus_json();
        for (op, corpus, rows) in [
            ("aggregate", &matrix_corpus, &agg),
            ("populate", &matrix_corpus, &pop),
            ("clean", &raw_corpus, &cln),
        ] {
            let path = format!("{out_dir}/BENCH_{op}.json");
            if let Err(e) = std::fs::write(&path, to_json(op, &cfg, corpus, rows)) {
                eprintln!("hotpath: writing {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("hotpath: wrote {path}");
        }
    }

    if !ok {
        eprintln!("hotpath: IDENTITY FAILURE — a kernel variant diverged from its oracle");
        std::process::exit(1);
    }
}
