//! Wall-clock ingestion benchmark for the AsterixDB data-feed reproduction.
//!
//! ```sh
//! ingestbench --workload <bulk_file|cascade_paced|ingest_read> \
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the public stack in-process (see `README.md` beside this crate)
//! and prints, as its last stdout line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run first
//! repeats the untraced measurement so it can report the tracing overhead.
//! Work files go to `.bench_work/` under the current directory.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Ctx, Phase};

const WORKLOADS: [&str; 3] = ["bulk_file", "cascade_paced", "ingest_read"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, tracer: Arc<Tracer>, work_dir: &std::path::Path) -> Vec<Phase> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer,
        work_dir: work_dir.to_path_buf(),
    };
    match args.workload.as_str() {
        "bulk_file" => workloads::bulk_file(&ctx),
        "cascade_paced" => workloads::cascade_paced(&ctx),
        _ => workloads::ingest_read(&ctx),
    }
}

type Metric = (&'static str, f64, &'static str);

/// End-to-end metrics of one phase.
fn e2e(p: &Phase) -> Vec<Metric> {
    let q = |v: &[f64], q: f64| stats::percentile(v, q).unwrap_or(0.0);
    let values = |v: &[(Duration, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<_>>();
    // tails as the median of per-window p99s, each over >= 100 samples
    let tail = |v: &[(Duration, f64)]| {
        stats::windowed_percentile(v, workloads::TAIL_WINDOW, 0.99, 100).unwrap_or(0.0)
    };
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let query_ms: Vec<f64> = p.queries.iter().map(|&(ms, _)| ms).collect();
    vec![
        ("setup_s", p.setup.as_secs_f64(), "s"),
        (
            "ingest_rps",
            per(p.records as f64, p.active.as_secs_f64()),
            "1/s",
        ),
        (
            "cpu_us_per_record",
            per(p.cpu.as_secs_f64() * 1e6, p.records as f64),
            "us",
        ),
        ("visible_p50_ms", q(&values(&p.visible_ms), 0.5), "ms"),
        ("visible_p99_ms", tail(&p.visible_ms), "ms"),
        ("read_p50_us", q(&values(&p.read_us), 0.5), "us"),
        ("query_p50_ms", q(&query_ms, 0.5), "ms"),
        (
            "stored_bytes_per_record",
            per(p.stored_bytes as f64, p.stored_records as f64),
            "bytes",
        ),
    ]
}

/// Per-metric median across phases (bulk rounds); order kept.
fn median_metrics(per_phase: Vec<Vec<Metric>>) -> Vec<Metric> {
    let Some(first) = per_phase.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let vals: Vec<f64> = per_phase.iter().map(|m| m[i].1).collect();
            (name, stats::median(&vals).unwrap_or(0.0), unit)
        })
        .collect()
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push('}');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ingestbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir = PathBuf::from(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("ingestbench: create {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    let started = Instant::now();
    workloads::progress(&format!(
        "{} seed {} for {} s, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let steal0 = host::host_steal_ticks();
    let phases = run(&args, Arc::new(Tracer::new(false)), &work_dir);
    let untraced = median_metrics(phases.iter().map(e2e).collect());
    let mut attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = phases.iter().map(|p| p.failed).sum();
    let peak_rss = host::peak_rss_mb();

    let metrics: Vec<Metric> = if args.trace {
        let tracer = Arc::new(Tracer::new(true));
        let traced = run(&args, Arc::clone(&tracer), &work_dir);
        attempted += traced.iter().map(|p| p.attempted).sum::<u64>();
        failed += traced.iter().map(|p| p.failed).sum::<u64>();
        let mut m = median_metrics(traced.iter().map(layers::layer_metrics).collect());
        let cpu = |ms: &[Metric]| {
            ms.iter()
                .find(|m| m.0 == "cpu_us_per_record")
                .map_or(0.0, |m| m.1)
        };
        let traced_cpu = cpu(&median_metrics(traced.iter().map(e2e).collect()));
        let base = cpu(&untraced);
        let overhead = if base > 0.0 {
            (traced_cpu - base) / base * 100.0
        } else {
            0.0
        };
        m.push(("bench.tracing_overhead_pct", overhead, "%"));
        let spans = work_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&spans, tracer.to_jsonl()) {
            eprintln!("ingestbench: write {}: {e}", spans.display());
        }
        m
    } else {
        let mut m = untraced;
        m.push(("peak_rss_mb", peak_rss, "MiB"));
        m
    };

    let corpus = phases.first().map_or(0, |p| p.records);
    let preload = if args.workload == "ingest_read" {
        workloads::PRELOAD_RECORDS
    } else {
        0
    };
    let steal1 = host::host_steal_ticks();
    let steal_pct = 100.0 * steal1.0.saturating_sub(steal0.0) as f64
        / steal1.1.saturating_sub(steal0.1).max(1) as f64;
    let inputs = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"commit\": \"{}\", \
         \"corpus_records\": {}, \"preload_records\": {}, \"offered_rate_rps\": {}, \"rounds\": {}, \
         \"seconds_requested\": {}, \"seconds_run\": {:.3}, \"host_cpu_steal_pct\": {:.2}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        std::env::var("INGESTBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        corpus,
        preload,
        match args.workload.as_str() {
            "cascade_paced" => workloads::CASCADE_RATE,
            "ingest_read" => workloads::READ_INGEST_RATE,
            _ => 0.0,
        },
        phases.len(),
        args.seconds,
        started.elapsed().as_secs_f64(),
        steal_pct,
    );
    let correct = failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    let record = work_dir.join(format!(
        "result-{}-{}-{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(
        &record,
        format!("{{\"inputs\": {inputs}, \"result\": {result}}}\n"),
    );
    println!("inputs: {inputs}");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
