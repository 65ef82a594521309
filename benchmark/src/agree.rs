//! `gea-e2e agree`: do two sets of runs of the same build agree within
//! the benchmark's own bounds? Reads the metric lines `run.sh` prints
//! (`<workload> <metric> <value> <unit> n=<samples>`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::names::{END_TO_END, PER_LAYER, WORKLOADS};

#[derive(Debug, Clone, PartialEq)]
struct Reading {
    value: f64,
    unit: String,
    n: u64,
}

type Set = BTreeMap<(String, String), Reading>;

/// Metric lines of one set; anything else in the file (the driver's JSON
/// line, cargo chatter) is skipped.
fn parse_set(text: &str) -> Set {
    let mut set = Set::new();
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, unit, n] = tokens.as_slice() else {
            continue;
        };
        let (Ok(value), Some(Ok(n))) = (
            value.parse::<f64>(),
            n.strip_prefix("n=").map(str::parse::<u64>),
        ) else {
            continue;
        };
        if WORKLOADS.iter().any(|w| w.name == *workload) {
            let reading = Reading {
                value,
                unit: unit.to_string(),
                n,
            };
            set.insert((workload.to_string(), metric.to_string()), reading);
        }
    }
    set
}

/// `(b − a) / a`; 0 when both are 0, infinite when only `a` is.
fn relative(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

#[derive(Debug)]
struct Row {
    workload: &'static str,
    metric: &'static str,
    unit: &'static str,
    a: f64,
    b: f64,
    diff: f64,
    bound: f64,
}

impl Row {
    fn agrees(&self) -> bool {
        self.diff.abs() <= self.bound
    }
}

fn compare(a: &Set, b: &Set) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in END_TO_END.iter().filter(|m| m.reported_on(w.name)) {
            let key = (w.name.to_string(), m.name.to_string());
            let read = |set: &Set, which: &str| {
                set.get(&key)
                    .map(|r| r.value)
                    .ok_or_else(|| format!("set {which} has no `{} {}` line", w.name, m.name))
            };
            let (va, vb) = (read(a, "A")?, read(b, "B")?);
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                unit: m.unit,
                a: va,
                b: vb,
                diff: relative(va, vb),
                bound: m.bound,
            });
        }
    }
    Ok(rows)
}

fn baseline_json(rows: &[Row], a: &Set, b: &Set, nproc: usize, commit: &str, date: &str) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"benchmark\": \"gea-e2e\",");
    let _ = writeln!(s, "  \"commit\": \"{commit}\",");
    let _ = writeln!(s, "  \"date\": \"{date}\",");
    let _ = writeln!(s, "  \"nproc\": {nproc},");
    let _ = writeln!(s, "  \"sets\": 2,");
    let _ = writeln!(s, "  \"end_to_end\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"a\": {}, \"b\": {}, \"rel_diff\": {:.4}, \"bound\": {}, \"agrees\": {}}}{comma}",
            r.workload, r.metric, r.unit, r.a, r.b, r.diff, r.bound, r.agrees()
        );
    }
    let _ = writeln!(s, "  ],\n  \"per_layer\": [");
    let layers: Vec<String> = WORKLOADS
        .iter()
        .flat_map(|w| PER_LAYER.iter().map(move |l| (w.name, l)))
        .filter_map(|(w, l)| {
            let key = (w.to_string(), l.name.to_string());
            let ra = a.get(&key)?;
            let vb = b.get(&key).map_or(ra.value, |r| r.value);
            Some(format!(
                "    {{\"workload\": \"{w}\", \"metric\": \"{}\", \"unit\": \"{}\", \"a\": {}, \"b\": {vb}, \"n\": {}}}",
                l.name, ra.unit, ra.value, ra.n
            ))
        })
        .collect();
    s.push_str(&layers.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// `agree <set-a> <set-b> [--json <file> --commit <hash> --date <date>]`.
pub fn main(argv: &[String]) -> Result<bool, String> {
    let [path_a, path_b, rest @ ..] = argv else {
        return Err("agree needs two files of metric lines".to_string());
    };
    let load = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (a, b) = (parse_set(&load(path_a)?), parse_set(&load(path_b)?));
    let rows = compare(&a, &b)?;

    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "rel diff", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.diff * 100.0,
            r.bound * 100.0,
            if r.agrees() { "" } else { "DISAGREE" }
        );
    }

    let option = |flag: &str| {
        rest.iter()
            .position(|t| t == flag)
            .and_then(|at| rest.get(at + 1))
            .cloned()
    };
    if let Some(path) = option("--json") {
        let doc = baseline_json(
            &rows,
            &a,
            &b,
            crate::report::nproc(),
            &option("--commit").unwrap_or_default(),
            &option("--date").unwrap_or_default(),
        );
        std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(rows.iter().all(Row::agrees))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_set(scale: f64) -> String {
        let mut text = String::from("   Compiling gea-e2e v0.1.0\n");
        for w in &WORKLOADS {
            for m in END_TO_END.iter().filter(|m| m.reported_on(w.name)) {
                let value = if m.name == "err_rate" {
                    0.0
                } else {
                    10.0 * scale
                };
                text.push_str(&format!("{} {} {value} {} n=7\n", w.name, m.name, m.unit));
            }
            text.push_str(
                "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}\n",
            );
        }
        text
    }

    #[test]
    fn sets_within_the_bounds_agree_and_sets_beyond_them_do_not() {
        let a = parse_set(&full_set(1.0));
        assert_eq!(a[&("read_hot".to_string(), "ops_per_s".to_string())].n, 7);
        let close = compare(&a, &parse_set(&full_set(1.05))).unwrap();
        assert!(close.iter().all(Row::agrees));
        let far = compare(&a, &parse_set(&full_set(1.2))).unwrap();
        let bad: Vec<&str> = far
            .iter()
            .filter(|r| !r.agrees())
            .map(|r| r.metric)
            .collect();
        assert!(
            bad.contains(&"ops_per_s") && !bad.contains(&"setup_s"),
            "{bad:?}"
        );
        // err_rate's bound is "any increase".
        let mut broken = a.clone();
        broken
            .get_mut(&("mixed_rw".to_string(), "err_rate".to_string()))
            .unwrap()
            .value = 0.001;
        let rows = compare(&a, &broken).unwrap();
        assert!(rows.iter().any(|r| r.metric == "err_rate" && !r.agrees()));
    }

    #[test]
    fn a_missing_metric_is_an_error_not_an_agreement() {
        let a = parse_set(&full_set(1.0));
        let mut b = a.clone();
        b.remove(&("pipeline_thesis".to_string(), "save_p50_ms".to_string()));
        assert!(compare(&a, &b).unwrap_err().contains("save_p50_ms"));
    }
}
