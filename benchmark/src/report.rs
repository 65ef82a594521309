//! Output: one line per metric, `out/<workload>.json`, and the one-line
//! result the builder's driver reads.

use std::fmt::Write as _;

use crate::fixture::SERVER_THREADS;
use crate::names::{Src, END_TO_END, PER_LAYER};
use crate::run::{Args, RunResult, Values};

/// Cores this process may use: the ceiling on client threads, and part
/// of what every number depends on, so it is printed in every JSON.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// JSON numbers: every digit measured, and never `NaN`/`inf`.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(values: &[(&str, &str, f64, u64)], with_n: bool) -> String {
    let mut s = String::from("{");
    for (i, (name, unit, value, n)) in values.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"",
            num(*value)
        );
        if with_n {
            let _ = write!(s, ", \"n\": {n}");
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// Declared metrics in declaration order, with the values measured for
/// them. Errors when a declared metric is missing or an undeclared one
/// was produced: the names are the contract.
fn declared<'a>(
    what: &str,
    declared: impl Iterator<Item = (&'a str, &'a str)>,
    values: &Values,
) -> Result<Vec<(&'a str, &'a str, f64, u64)>, String> {
    let mut rows = Vec::new();
    for (name, unit) in declared {
        let v = values
            .get(name)
            .ok_or_else(|| format!("declared {what} metric {name} was not measured"))?;
        rows.push((name, unit, v.value, v.n));
    }
    if let Some(extra) = values.keys().find(|k| !rows.iter().any(|r| r.0 == *k)) {
        return Err(format!("measured {what} metric {extra} is not declared"));
    }
    Ok(rows)
}

/// Print and write everything. `Ok(true)` when the run was correct.
pub fn emit(args: &Args, result: &RunResult) -> Result<bool, String> {
    let w = args.workload;
    let end_to_end = declared(
        "end-to-end",
        END_TO_END
            .iter()
            .filter(|m| m.reported_on(w.name))
            .map(|m| (m.name, m.unit)),
        &result.end_to_end,
    )?;
    // An untraced run has no probe metrics; a traced run has them all.
    let per_layer = declared(
        "per-layer",
        PER_LAYER
            .iter()
            .filter(|l| args.trace || l.src != Src::Probe)
            .map(|l| (l.name, l.unit)),
        &result.per_layer,
    )?;

    // End-to-end numbers always come from the untraced run.
    let printed: Vec<_> = if args.trace {
        per_layer.clone()
    } else {
        end_to_end.iter().chain(&per_layer).cloned().collect()
    };
    for (name, unit, value, n) in &printed {
        println!("{} {name} {} {unit} n={n}", w.name, num(*value));
    }

    let correct = result.failed == 0 && result.violations.is_empty();
    if let Some(failure) = &result.first_failure {
        eprintln!(
            "gea-e2e: {} of {} requests failed; first: {failure}",
            result.failed, result.attempted
        );
    }
    for violation in &result.violations {
        eprintln!("gea-e2e: {violation}");
    }

    let mut doc = String::from("{\n");
    let _ = writeln!(doc, "  \"workload\": \"{}\",", w.name);
    let _ = writeln!(doc, "  \"seed\": {},", args.seed);
    let _ = writeln!(doc, "  \"trace\": {},", args.trace);
    let _ = writeln!(doc, "  \"quick\": {},", args.quick);
    let _ = writeln!(
        doc,
        "  \"host\": {{\"nproc\": {}, \"server_threads\": {SERVER_THREADS}, \"clients\": {}, \"backends\": {}, \"window_s\": {}, \"setup_reps\": {}, \"persist_rounds\": {}}},",
        nproc(),
        w.clients,
        w.backends,
        args.seconds,
        args.setup_reps(),
        args.persist_rounds()
    );
    let _ = writeln!(
        doc,
        "  \"plan\": {{\"k_pct\": {}, \"ops_per_iteration\": {}}},",
        result.k_pct, result.iteration_ops
    );
    let _ = writeln!(doc, "  \"correct\": {correct},");
    let _ = writeln!(doc, "  \"attempted\": {},", result.attempted);
    let _ = writeln!(doc, "  \"failed\": {},", result.failed);
    if !args.trace {
        let _ = writeln!(
            doc,
            "  \"end_to_end\": {},",
            metrics_json(&end_to_end, true)
        );
    }
    let _ = writeln!(doc, "  \"per_layer\": {}", metrics_json(&per_layer, true));
    doc.push_str("}\n");
    let file = if args.trace {
        format!("{}.trace.json", w.name)
    } else {
        format!("{}.json", w.name)
    };
    let path = args.out_dir.join(file);
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;

    // The driver's line: the metrics `BENCHMARK.json` declares for this
    // kind of run, and nothing else.
    let driver: Vec<_> = if args.trace {
        per_layer
    } else {
        end_to_end
            .into_iter()
            .filter(|row| {
                END_TO_END
                    .iter()
                    .any(|m| m.name == row.0 && m.driver_bound.is_some())
            })
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.attempted.max(1),
        result.failed,
        metrics_json(&driver, false)
    );
    Ok(correct)
}
