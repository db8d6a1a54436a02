//! `nbl-benchmark compare A.jsonl B.jsonl`: two sets of runs side by side.
//!
//! A set is any text file holding the record lines `--workload all`
//! prints (`{"workload": ..., "seed": ..., "result": {...}}`); other lines
//! are ignored, so the plain stdout of several `all` runs is a set. For
//! each (workload, end-to-end metric) pair the table shows each set's
//! median and quartiles and B's change against A, and judges it against
//! the metric's bound in `BENCHMARK.json`: `unresolved` when either set's
//! own spread (interquartile range over median) exceeds the bound,
//! `regressed` when B is worse by more than the bound.

use crate::json::{self, Json};
use crate::stats;
use crate::workloads::Res;
use std::collections::BTreeMap;

/// An end-to-end metric's regression rule.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(path: &str) -> Res<Vec<Bound>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::arr)
        .ok_or(format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::str)
                    .ok_or("metric without a name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// `(workload, metric) -> values` from one set file.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn read_set(path: &str) -> Res<Set> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut set = Set::new();
    for line in text.lines().filter(|l| l.starts_with("{\"workload\"")) {
        let rec = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let (Some(workload), Some(metrics)) = (
            rec.get("workload").and_then(Json::str),
            rec.get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Json::obj),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::num) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{path}: no run records"));
    }
    Ok(set)
}

/// Runs the subcommand; `Ok(false)` when some pair regressed.
pub fn run(args: &[String]) -> Res<bool> {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare takes two set files".into());
    };
    let rules = bounds(&bounds_path)?;
    let (a, b) = (read_set(a_path)?, read_set(b_path)?);
    let mut workloads: Vec<&String> = a.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    println!(
        "{:<18} {:<16} {:>4} {:>12} {:>25} {:>12} {:>25} {:>9} {:>9} {:>7}  verdict",
        "workload",
        "metric",
        "n",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "B vs A",
        "spread",
        "bound"
    );
    let mut ok = true;
    let mut verdicts: BTreeMap<&str, usize> = BTreeMap::new();
    for w in workloads {
        for rule in &rules {
            let key = (w.clone(), rule.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let summary = |v: &[f64]| -> Option<(f64, f64, f64)> {
                let (q1, q3) = stats::quartiles(v)?;
                Some((stats::median(v)?, q1, q3))
            };
            let (Some((ma, a1, a3)), Some((mb, b1, b3))) = (summary(va), summary(vb)) else {
                println!("{w:<18} {:<16} too few runs", rule.name);
                continue;
            };
            let change = (mb - ma) / ma;
            let worse = if rule.lower_is_better {
                change
            } else {
                -change
            };
            let spread = stats::relative_spread(va)
                .unwrap_or(f64::INFINITY)
                .max(stats::relative_spread(vb).unwrap_or(f64::INFINITY));
            let verdict = if spread > rule.bound {
                "unresolved"
            } else if worse > rule.bound {
                ok = false;
                "REGRESSED"
            } else if -worse > rule.bound {
                "improved"
            } else {
                "within bound"
            };
            *verdicts.entry(verdict).or_default() += 1;
            println!(
                "{w:<18} {:<16} {:>4} {ma:>12.6} {:>25} {mb:>12.6} {:>25} {:>+8.2}% {:>8.2}% {:>6.1}%  {verdict}",
                rule.name,
                va.len().min(vb.len()),
                format!("{a1:.6}..{a3:.6}"),
                format!("{b1:.6}..{b3:.6}"),
                change * 100.0,
                spread * 100.0,
                rule.bound * 100.0,
            );
        }
    }
    let tally: Vec<String> = verdicts.iter().map(|(v, n)| format!("{n} {v}")).collect();
    println!("pairs: {}", tally.join(", "));
    Ok(ok)
}
