//! The repository benchmark's runner.
//!
//! ```text
//! perfbench --workload <sweep|oneshot|serve_read|serve_write> --seed N
//!           --seconds S --trace 0|1 [--served-bin PATH] [--work-dir DIR]
//!           [--tiny] [--corrupt]
//! ```
//!
//! Prints a human-readable report, then (last line of stdout) one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits 1 when an output check failed.

mod layers;
mod offline;
mod serve;
mod util;

use std::path::PathBuf;
use util::Report;

/// End-to-end metrics, reported by every workload with `--trace 0`. The
/// tail percentiles (`p95_us`, `p99_us`) are measured and printed too but
/// stay out of the result: on a shared host their run-to-run spread is
/// wider than any bound a regression gate can use.
pub const END_TO_END: [&str; 5] = ["setup_s", "eval_s", "ops_per_s", "p50_us", "peak_rss_mb"];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [&str; 28] = [
    "workloads.gen_s",
    "sim.run_s",
    "sim.events",
    "trace.resolve_s",
    "core.keystream_s",
    "core.keystream_builds",
    "core.family_s",
    "core.drive_s",
    "harness.sweep_s",
    "harness.busy_frac",
    "harness.rank_s",
    "wire.encode_ns",
    "wire.decode_ns",
    "server.dispatch_us",
    "net.loopback_us",
    "shard.predict_ns_per_probe",
    "shard.ingest_ns_per_op",
    "replication.append_ns_per_op",
    "audit.ns_per_record",
    "server.decode_ns_mean",
    "server.encode_ns_mean",
    "shard.query_service_ns_mean",
    "shard.batch_service_ns_mean",
    "shard.queries",
    "shard.updates",
    "audit.records",
    "audit.bytes_per_record",
    "bench.trace_overhead_frac",
];

pub const WORKLOADS: [&str; 4] = ["sweep", "oneshot", "serve_read", "serve_write"];

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `csp-served` binary the serving workloads spawn.
    pub served_bin: PathBuf,
    /// Where the traced run's spans are written (`--work-dir`).
    pub out: PathBuf,
    /// Scratch directory of this run, under `out` (removed at the end).
    pub work: PathBuf,
    /// Multiplies every workload scale (`--tiny` = 0.05, for the smoke
    /// test).
    pub scale_factor: f64,
    /// Corrupts one answer before the checks (the smoke test's proof
    /// that a wrong answer fails the run).
    pub corrupt: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         [--served-bin PATH] [--work-dir DIR] [--tiny] [--corrupt]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        served_bin: PathBuf::from("csp-served"),
        out: PathBuf::from(".bench_work"),
        work: PathBuf::new(),
        scale_factor: 1.0,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => o.workload = val(),
            "--seed" => {
                o.seed = val()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                o.seconds = val()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds needs a number"))
            }
            "--trace" => o.trace = val() == "1",
            "--served-bin" => o.served_bin = PathBuf::from(val()),
            "--work-dir" => o.out = PathBuf::from(val()),
            "--tiny" => o.scale_factor = 0.05,
            "--corrupt" => o.corrupt = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        usage(&format!("unknown workload '{}'", o.workload));
    }
    o.work = o
        .out
        .join(format!("{}-{}-{}", o.workload, o.seed, std::process::id()));
    o
}

fn provenance(o: &Opts) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \
         \"source_digest\": \"{}\", \"nproc\": {}, \"simd_backend\": \"{}\"}}",
        o.workload,
        o.seed,
        o.seconds,
        o.trace as u8,
        env("PERFBENCH_GIT_REV"),
        env("PERFBENCH_SOURCE_DIGEST"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        csp_core::simd::detect_backend().name()
    )
}

fn main() {
    let o = parse();
    if let Err(e) = std::fs::create_dir_all(&o.work) {
        eprintln!("error: cannot create {}: {e}", o.work.display());
        std::process::exit(1);
    }
    let mut report = Report::default();
    match o.workload.as_str() {
        "sweep" => offline::sweep(&o, &mut report),
        "oneshot" => offline::oneshot(&o, &mut report),
        "serve_read" => serve::serve_read(&o, &mut report),
        _ => serve::serve_write(&o, &mut report),
    }
    let _ = std::fs::remove_dir_all(&o.work);

    // Keep exactly the metric set of the mode, each once, in the
    // declared order; a missing one is a benchmark bug and fails the run.
    let wanted: &[&str] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let mut kept = Vec::new();
    for name in wanted {
        match report.metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => kept.push(m.clone()),
            Some(m) => {
                let v = m.value;
                report.check(false, || format!("metric {name} is {v}"));
            }
            None => report.check(false, || format!("metric {name} was not measured")),
        }
    }
    for m in &report.metrics {
        println!(
            "{:<30} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    report.metrics = kept;
    for n in &report.notes {
        println!("# {n}");
    }
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    println!(
        "{:<30} {:>16.6} {:<6} ({} of {} operations)",
        "failed_frac",
        report.failed_frac(),
        "frac",
        report.failed,
        report.attempted
    );
    println!("# provenance: {}", provenance(&o));
    println!("{}", report.json_line());
    if report.failed > 0 {
        std::process::exit(1);
    }
}
