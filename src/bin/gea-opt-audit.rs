//! The nightly rule audit — `cargo run --release --bin gea-opt-audit`.
//!
//! Runs the full observational-equivalence audit of every shipped
//! `gea-opt` rule (three corpus seeds × all 13 thesis queries × the
//! shards {1,2,3,7} × threads {1,4} grid) plus the tombstone-rejection
//! pass, and exits non-zero on any divergence. `--kick-tires` drops to
//! the single-seed, query-subset tier `scripts/ci.sh` uses on every push;
//! `GEA_OPT_AUDIT=full` forces the full tier regardless of flags.
//!
//! Output is line-oriented for CI logs: one `DIVERGENCE …` /
//! `TOMBSTONE …` line per finding, a one-line summary otherwise.

fn usage() -> ! {
    eprintln!("usage: gea-opt-audit [--kick-tires]");
    std::process::exit(2);
}

fn main() {
    let mut full = true;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--kick-tires" => full = false,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if gea::audit::full_tier() {
        full = true;
    }
    let tier = if full { "full" } else { "kick-tires" };
    eprintln!("gea-opt-audit: running the {tier} tier");

    let report = gea::audit::audit_shipped(full);
    for d in &report.divergences {
        println!("DIVERGENCE {d}");
    }
    let silent = report.silent_rules();
    for r in &silent {
        println!("DIVERGENCE shipped rule {r} never fired in the audit pipeline");
    }
    let tombstones = gea::audit::audit_tombstones();
    for f in &tombstones {
        println!("TOMBSTONE {f}");
    }

    println!(
        "audit {tier}: {} grid configs, {} commands/pipeline, {} rewrites, rules fired: {:?}",
        report.configs, report.pipeline_len, report.rewrites, report.rules_fired
    );
    if !report.divergences.is_empty() || !silent.is_empty() || !tombstones.is_empty() {
        eprintln!(
            "gea-opt-audit: FAILED ({} divergences, {} silent rules, {} tombstone failures)",
            report.divergences.len(),
            silent.len(),
            tombstones.len()
        );
        std::process::exit(1);
    }
    println!("rule audit passed");
}
