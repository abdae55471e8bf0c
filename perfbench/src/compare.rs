//! Reading result files back: the spread of one set of runs, and the
//! comparison of two sets against the bounds in `BENCHMARK.json`.
//!
//! ```text
//! perfbench spread <dir>
//! perfbench compare <base_dir> <new_dir>
//! ```
//!
//! Both read the untraced result files (`*-trace0.json`) in the given
//! directories. They refuse to mix runs whose host core count or worker
//! count differ: container bytes, and so `compression_ratio`, depend on
//! the worker count, and every timing depends on both.

use crate::json::Json;
use crate::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's declaration.
struct Bound {
    higher_is_better: bool,
    bound: f64,
}

/// Per workload, per metric, the values of every run in a directory.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn bounds(benchmark_json: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let spec = Json::parse(&text)?;
    let Some(list) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.arr()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::num)
                .ok_or("metric without bound")?;
            let better = m
                .get("better")
                .and_then(Json::str)
                .ok_or("metric without better")?;
            Ok((
                name.to_string(),
                Bound {
                    higher_is_better: better == "higher",
                    bound,
                },
            ))
        })
        .collect()
}

/// Loads every untraced result in `dir`, checking that all of them, and
/// those already in `identity`, ran with the same core and worker count.
fn load(dir: &Path, identity: &mut Option<(u64, u64)>) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with("-trace0.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let run = Json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let id = run.get("identity").ok_or(format!("{name}: no identity"))?;
        let field = |k: &str| id.get(k).and_then(Json::num).map(|v| v as u64);
        let this = (
            field("host_parallelism").ok_or(format!("{name}: no host_parallelism"))?,
            field("workers").ok_or(format!("{name}: no workers"))?,
        );
        match identity {
            Some(first) if *first != this => {
                return Err(format!(
                    "refusing to compare: {name} ran with host_parallelism {} and workers {}, \
                     other runs with {} and {}",
                    this.0, this.1, first.0, first.1
                ))
            }
            _ => *identity = Some(this),
        }
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or(format!("{name}: no workload"))?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or(format!("{name}: no metrics"))?;
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (metric, v) in metrics.members() {
            if let Some(value) = v.get("value").and_then(Json::num) {
                per_metric.entry(metric.clone()).or_default().push(value);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("no untraced results in {}", dir.display()));
    }
    Ok(runs)
}

/// Prints, per workload and metric, the median, quartiles and relative
/// spread of the runs in `dir`. Returns whether every spread but
/// `setup_s`'s is within its metric's bound.
pub fn spread(dir: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let runs = load(dir, &mut None)?;
    let mut all_within = true;
    for (workload, metrics) in &runs {
        for (metric, values) in metrics {
            let (Some(mid), Some([q1, _, q3]), Some(rel)) =
                (median(values), quartiles(values), relative_spread(values))
            else {
                println!(
                    "{workload:<18} {metric:<18} n={} (too few runs)",
                    values.len()
                );
                continue;
            };
            let bound = bounds.get(metric).map_or(f64::NAN, |b| b.bound);
            let verdict = if metric == "setup_s" {
                "not bounded"
            } else if rel <= bound / 3.0 {
                "steady"
            } else if rel <= bound {
                "within bound"
            } else {
                all_within = false;
                "TOO WIDE"
            };
            println!(
                "{workload:<18} {metric:<18} n={:<3} median {mid:<12.6} q1 {q1:<12.6} q3 {q3:<12.6} \
                 spread {rel:.4} bound {bound} {verdict}",
                values.len()
            );
        }
    }
    Ok(all_within)
}

/// Compares the runs in `new` with those in `base`, metric by metric.
/// Returns whether no metric got worse by more than its bound.
pub fn compare(base: &Path, new: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let mut identity = None;
    let base_runs = load(base, &mut identity)?;
    let new_runs = load(new, &mut identity)?;
    let mut clean = true;
    for (workload, metrics) in &new_runs {
        let Some(base_metrics) = base_runs.get(workload) else {
            println!("{workload}: no base runs");
            continue;
        };
        for (metric, values) in metrics {
            let (Some(b), Some(spec)) = (base_metrics.get(metric), bounds.get(metric)) else {
                continue;
            };
            let (Some(b_mid), Some(n_mid)) = (median(b), median(values)) else {
                continue;
            };
            // Positive `worse` means the new median is worse.
            let change = (n_mid - b_mid) / b_mid.abs();
            let worse = if spec.higher_is_better {
                -change
            } else {
                change
            };
            let noise = relative_spread(b).unwrap_or(f64::INFINITY);
            let verdict = if worse > spec.bound {
                clean = false;
                "REGRESSION"
            } else if noise > spec.bound {
                "unresolved (base spread exceeds bound)"
            } else if -worse > noise {
                "improved"
            } else {
                "no change"
            };
            println!(
                "{workload:<18} {metric:<18} base {b_mid:<12.6} new {n_mid:<12.6} \
                 change {:+.2}% (bound {:.0}%, base spread {:.2}%) {verdict}",
                change * 100.0,
                spec.bound * 100.0,
                noise * 100.0
            );
        }
    }
    Ok(clean)
}
