//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (or `all` of them in turn), checks its outputs,
//! prints every metric by name and unit, writes the full result with the
//! run's identity to `perfbench/results/`, and prints one JSON object as
//! the last line of standard output. With `--trace 0` that object holds
//! the end-to-end metrics; with `--trace 1` the per-layer metrics of a
//! separate traced run, whose span summary and tracing overhead go to
//! the result file. `perfbench/README.md` lists workloads and metrics.

mod codec;
mod compare;
mod compress;
mod json;
mod model;
mod probes;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use report::{json_metrics, json_num, json_str, select, Outcome};
use stats::percentile;
use std::path::{Path, PathBuf};

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "compress_lenet300",
    "codec_vgg16",
    "serve_warm",
    "serve_churn",
];

/// End-to-end metrics and their units; every workload reports each.
const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sat_rps", "req/s"),
    ("p50_ms", "ms"),
    ("slo_attainment", "fraction"),
    ("compression_ratio", "x"),
    ("encode_ms", "ms"),
    ("decode_ms", "ms"),
];

/// Per-fc per-layer metrics (prefixed `<stage>.<fc>.` as the name says).
const PER_FC: [(&str, &str, &str); 11] = [
    ("assess", "eval_ms", "ms"),
    ("assess", "trial_encode_ms", "ms"),
    ("encode", "lossy_ms", "ms"),
    ("encode", "index_ms", "ms"),
    ("encode", "bytes", "bytes"),
    ("decode", "ms", "ms"),
    ("index", "decode_ms", "ms"),
    ("lossy", "decode_ms", "ms"),
    ("reconstruct", "ms", "ms"),
    ("matmul", "b1_us", "us"),
    ("matmul", "b8_us", "us"),
];

/// Whole-model per-layer metrics.
const PER_MODEL: [(&str, &str); 22] = [
    ("assess.ms", "ms"),
    ("assess.points", "count"),
    ("optimize.ms", "ms"),
    ("encode.ms", "ms"),
    ("verify.ms", "ms"),
    ("seek.open_us", "us"),
    ("decode.lossless_ms", "ms"),
    ("decode.lossy_ms", "ms"),
    ("decode.reconstruct_ms", "ms"),
    ("forward.b1_ms", "ms"),
    ("forward.b8_ms", "ms"),
    ("cache.hit_rate", "fraction"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_us", "us"),
    ("batch.avg_width", "req"),
    ("batch.count", "count"),
    ("queue.high_water", "req"),
    ("gen.lag_p99_ms", "ms"),
    ("p90_ms", "ms"),
    ("p99_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

fn e2e_names() -> Vec<(String, &'static str)> {
    E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

fn layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for fc in probes::FC_LABELS {
        for &(stage, what, unit) in &PER_FC {
            names.push((format!("{stage}.{fc}.{what}"), unit));
        }
    }
    names.extend(PER_MODEL.iter().map(|&(n, u)| (n.to_string(), u)));
    names
}

/// The arguments of one run.
pub struct Run {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// A traced run: per-layer metrics and spans.
    pub trace: bool,
}

impl Run {
    /// An independent seed for one input of this run.
    pub fn seed_for(&self, stream: u64) -> u64 {
        schedule::Rng::new(self.seed, stream).next_u64()
    }
}

/// End-to-end and per-layer metrics shared by the closed-loop workloads
/// (compress, codec), where an operation starts as soon as the previous
/// one and its checks finished: `lat_ms` are the successful operations'
/// latencies, `attempted` the operations tried, `lags_ms` the delays
/// between an operation falling due and starting. Throughput counts
/// operation time only, not the checks between operations.
pub fn closed_loop_metrics(
    out: &mut Outcome,
    lat_ms: &[f64],
    attempted: u64,
    lags_ms: &[f64],
    slo_ms: f64,
) {
    let pct = |p| percentile(lat_ms, p).unwrap_or(f64::NAN);
    let busy_s = lat_ms.iter().sum::<f64>() / 1e3;
    out.e2e("sat_rps", lat_ms.len() as f64 / busy_s, "req/s");
    out.e2e("p50_ms", pct(0.5), "ms");
    let within = lat_ms.iter().filter(|&&l| l <= slo_ms).count();
    out.e2e(
        "slo_attainment",
        within as f64 / attempted.max(1) as f64,
        "fraction",
    );
    out.layer("p90_ms", pct(0.9), "ms");
    out.layer("p99_ms", pct(0.99), "ms");
    out.layer(
        "gen.lag_p99_ms",
        percentile(lags_ms, 0.99).unwrap_or(f64::NAN),
        "ms",
    );
    // No server: nothing is batched or queued.
    out.layer("batch.avg_width", 0.0, "req");
    out.layer("batch.count", 0.0, "count");
    out.layer("queue.high_water", 0.0, "req");
}

fn run_workload(name: &str, run: &Run) -> Outcome {
    match name {
        "compress_lenet300" => compress::run(run),
        "codec_vgg16" => codec::run(run),
        "serve_warm" => serve::run(&serve::WARM, run),
        "serve_churn" => serve::run(&serve::CHURN, run),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Host and build identity recorded with every result.
struct Identity {
    host_parallelism: usize,
    workers: usize,
    dsz_threads: String,
    commit: String,
}

impl Identity {
    fn current(root: &Path) -> Self {
        Self {
            host_parallelism: dsz_tensor::parallel::host_parallelism(),
            workers: dsz_tensor::parallel::worker_count(),
            dsz_threads: std::env::var("DSZ_THREADS").unwrap_or_default(),
            commit: commit(root).unwrap_or_else(|| "unknown".into()),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"host_parallelism\": {}, \"workers\": {}, \"dsz_threads\": {}, \"commit\": {}}}",
            self.host_parallelism,
            self.workers,
            json_str(&self.dsz_threads),
            json_str(&self.commit)
        )
    }
}

/// The checked-out commit, read from `.git` when the tree is a clone.
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Prints one workload's result and writes it to `perfbench/results/`;
/// returns the JSON object for the last line.
fn report(name: &str, run: &Run, out: &Outcome, identity: &Identity) -> String {
    let (metrics, names) = if run.trace {
        (&out.layers, layer_names())
    } else {
        (&out.e2e, e2e_names())
    };
    let chosen = select(metrics, &names);
    println!(
        "== {name} (seed {}, {} s, trace {})",
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    for m in &chosen {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &out.extra {
        println!(
            "{:<32} {:>16.6} {}  (recorded, not compared)",
            m.name, m.value, m.unit
        );
    }
    for (span, s) in &out.spans {
        println!(
            "span {:<27} count {:>7}  total {:>12.3} ms  self {:>12.3} ms",
            span, s.count, s.total_ms, s.self_ms
        );
    }
    for p in &out.problems {
        println!("FAILED CHECK: {p}");
    }
    println!(
        "identity: host_parallelism {} workers {} DSZ_THREADS {:?} commit {}",
        identity.host_parallelism, identity.workers, identity.dsz_threads, identity.commit
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        json_metrics(chosen.iter().copied())
    );

    let spans: Vec<String> = out
        .spans
        .iter()
        .map(|(n, s)| {
            format!(
                "{}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                json_str(n),
                s.count,
                json_num(s.total_ms),
                json_num(s.self_ms)
            )
        })
        .collect();
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    let file = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"identity\": {}, \
         \"result\": {result}, \"e2e\": {}, \"per_layer\": {}, \"extra\": {}, \"spans\": {{{}}}, \
         \"problems\": [{}]}}\n",
        json_str(name),
        run.seed,
        json_num(run.seconds),
        u8::from(run.trace),
        identity.json(),
        json_metrics(&out.e2e),
        json_metrics(&out.layers),
        json_metrics(&out.extra),
        spans.join(", "),
        problems.join(", ")
    );
    let dir = repo_root().join("perfbench").join("results");
    let path = dir.join(format!(
        "{name}-seed{}-trace{}.json",
        run.seed,
        u8::from(run.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, file)) {
        eprintln!("could not write {}: {e}", path.display());
    }
    result
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench spread <results-dir>\n       \
         perfbench compare <base-results-dir> <new-results-dir>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> (Vec<&'static str>, Run) {
    let mut workloads = None;
    let mut run = Run {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => {
                workloads = Some(match value.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    w => vec![*WORKLOADS
                        .iter()
                        .find(|&&k| k == w)
                        .unwrap_or_else(|| usage())],
                })
            }
            "--seed" => run.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    (workloads.unwrap_or_else(|| usage()), run)
}

/// `spread <dir>` and `compare <base> <new>`: exit 0 when within
/// bounds, 1 when not, 2 when the runs cannot be compared.
fn analyse(args: &[String]) -> ! {
    let spec = repo_root().join("BENCHMARK.json");
    let verdict = match args {
        [cmd, dir] if cmd == "spread" => compare::spread(Path::new(dir), &spec),
        [cmd, base, new] if cmd == "compare" => {
            compare::compare(Path::new(base), Path::new(new), &spec)
        }
        _ => usage(),
    };
    match verdict {
        Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .first()
        .is_some_and(|a| a == "spread" || a == "compare")
    {
        analyse(&args);
    }
    let (workloads, run) = parse_args(&args);
    let identity = Identity::current(&repo_root());
    let mut results = Vec::new();
    for name in &workloads {
        let out = run_workload(name, &run);
        let line = report(name, &run, &out, &identity);
        results.push((name, out, line));
    }
    if let [(_, _, line)] = results.as_slice() {
        println!("{line}");
        return;
    }
    // `all`: one object over every workload, metrics prefixed by name.
    let mut metrics = Vec::new();
    for (name, out, _) in &results {
        let chosen = if run.trace { &out.layers } else { &out.e2e };
        metrics.extend(chosen.iter().map(|m| report::Metric {
            name: format!("{name}.{}", m.name),
            ..m.clone()
        }));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        results.iter().all(|(_, o, _)| o.correct()),
        results.iter().map(|(_, o, _)| o.attempted).sum::<u64>(),
        results.iter().map(|(_, o, _)| o.failed).sum::<u64>(),
        json_metrics(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// with the same unit, and nothing else is.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let declared = spec.matches("\"unit\":").count();
        let ours: Vec<(String, &str)> = e2e_names().into_iter().chain(layer_names()).collect();
        assert_eq!(declared, ours.len());
        for (name, unit) in &ours {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }
}
