//! Tiny-scale smoke test of the benchmark runner: every metric named in
//! `BENCHMARK.json` prints with its unit on every workload, and a
//! deliberately corrupted answer fails the run.
//!
//! Needs the `csp-served` binary beside the runner (`cargo build -p
//! csp-serve --bin csp-served` with the same profile); it is built here
//! when missing.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["sweep", "oneshot", "serve_read", "serve_write"];

fn runner() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_perfbench"))
}

/// The `csp-served` binary next to the runner, built on demand.
fn served_bin() -> PathBuf {
    let bin = runner().with_file_name("csp-served");
    if !bin.exists() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
        cmd.args([
            "build",
            "-p",
            "csp-serve",
            "--bin",
            "csp-served",
            "--manifest-path",
        ])
        .arg(&manifest);
        if runner().parent().and_then(Path::file_name) == Some("release".as_ref()) {
            cmd.arg("--release");
        }
        assert!(
            cmd.status().expect("cargo runs").success(),
            "building csp-served"
        );
    }
    bin
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.lines()
        .filter_map(|l| {
            let field = |k: &str| {
                let at = l.find(&format!("\"{k}\": \""))? + k.len() + 5;
                Some(l[at..at + l[at..].find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

struct Run {
    code: i32,
    stdout: String,
    last: String,
}

fn run(workload: &str, trace: bool, corrupt: bool) -> Run {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let mut cmd = Command::new(runner());
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.3",
        "--tiny",
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--served-bin")
    .arg(served_bin())
    .arg("--work-dir")
    .arg(&work);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().expect("runner starts");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout,
        last,
    }
}

fn assert_metrics(r: &Run, section: &str, workload: &str) {
    assert_eq!(r.code, 0, "{workload}: clean run failed:\n{}", r.stdout);
    assert!(
        r.last.starts_with("{\"correct\": true"),
        "{workload}: {}",
        r.last
    );
    for (name, unit) in declared(section) {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = r
            .last
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let rest = &r.last[at..];
        let value: f64 = rest[entry.len()..rest.find(',').expect("value ends")]
            .parse()
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} lacks unit {unit}"
        );
    }
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    for w in WORKLOADS {
        assert_metrics(&run(w, false, false), "end_to_end", w);
        assert_metrics(&run(w, true, false), "per_layer", w);
    }
}

#[test]
fn a_corrupted_answer_raises_failed_frac() {
    for w in WORKLOADS {
        let r = run(w, false, true);
        assert_eq!(
            r.code, 1,
            "{w}: a wrong answer must fail the run:\n{}",
            r.stdout
        );
        assert!(r.last.starts_with("{\"correct\": false"), "{w}: {}", r.last);
        let line = r
            .stdout
            .lines()
            .find(|l| l.starts_with("failed_frac"))
            .expect("failed_frac line");
        let frac: f64 = line
            .split_whitespace()
            .nth(1)
            .expect("value")
            .parse()
            .expect("number");
        assert!(frac > 0.0, "{w}: {line}");
    }
}
