//! The offline workloads: `sweep` (the paper's design-space search,
//! `experiments::top_tables`) and `oneshot` (`runner::evaluate_schemes`
//! on six schemes).

use crate::layers::{self, LayerInputs};
use crate::util::{latency_us, median, peak_rss_mb, secs, Report, Tracer};
use crate::Opts;
use csp_core::engine::{run_history_family_prepared, run_scheme_prepared};
use csp_core::{IndexSpec, PredictionFunction, PreparedTrace, Scheme, UpdateMode};
use csp_harness::experiments::top_tables;
use csp_harness::runner::{evaluate_scheme, evaluate_schemes, try_sweep_families, FamilyCell};
use csp_harness::space::DesignSpace;
use csp_harness::{SchemeStats, Suite};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Suite scale of the `sweep` workload.
pub const SWEEP_SCALE: f64 = 0.25;
/// Suite scale of the `oneshot` workload (the scale of the committed
/// `results/`).
pub const ONESHOT_SCALE: f64 = 1.0;
/// The schemes `oneshot` evaluates.
pub const ONESHOT_SCHEMES: [&str; 6] = [
    "last(pid+pc8)[direct]",
    "union(pid+pc8)2[forwarded]",
    "union(dir+add8)2[ordered]",
    "inter(pc8+add8)4[direct]",
    "pas(pid+pc6)1[forwarded]",
    "last(add16)[ordered]",
];
/// Family depth of the paper's search (and of every family census).
const MAX_DEPTH: usize = 4;

pub fn parse_schemes(list: &[&str]) -> Vec<Scheme> {
    list.iter()
        .map(|s| s.parse().unwrap_or_else(|e| panic!("bad scheme {s}: {e}")))
        .collect()
}

/// Generates the suite, then repeats `pass` on it until `seconds` have
/// elapsed (at least once), returning each pass's output and wall time.
/// `Suite::generate` is timed `setups` times in all, once up front and the
/// rest spread evenly between passes, so the `setup_s` median sees the
/// same stretch of machine time as the passes. Every regenerated suite
/// must equal the first (generation is deterministic in the seed).
fn measure<T>(
    o: &Opts,
    scale: f64,
    setups: usize,
    report: &mut Report,
    mut pass: impl FnMut(&Suite) -> T,
) -> (Suite, Vec<(T, f64)>) {
    let t = Instant::now();
    let suite = Suite::generate(scale, o.seed);
    let mut setup_s = vec![secs(t)];
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || secs(start) < o.seconds {
        let t = Instant::now();
        let out = pass(&suite);
        passes.push((out, secs(t)));
        let due = o.seconds * setup_s.len() as f64 / setups as f64;
        if setup_s.len() < setups && secs(start) >= due {
            let t = Instant::now();
            let again = Suite::generate(scale, o.seed);
            setup_s.push(secs(t));
            let same = suite
                .traces()
                .iter()
                .zip(again.traces())
                .all(|(a, b)| a.trace == b.trace);
            report.check(same, || "suite generation is not deterministic".into());
        }
    }
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    (suite, passes)
}

/// The end-to-end metrics shared by both offline workloads.
fn offline_metrics(report: &mut Report, times: &[f64], work: f64) {
    let eval = median(times);
    let ns: Vec<u64> = times.iter().map(|t| (t * 1e9) as u64).collect();
    let lat = latency_us(&ns);
    report.metric("eval_s", eval, "s", times.len());
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    report.notes.push(format!(
        "pass seconds: min {:.4} q1 {:.4} median {eval:.4} q3 {:.4} max {:.4}",
        sorted[0],
        sorted[sorted.len() / 4],
        sorted[sorted.len() * 3 / 4],
        sorted[sorted.len() - 1]
    ));
    report.metric("ops_per_s", work / eval, "1/s", times.len());
    report.metric("p50_us", lat.p50, "us", ns.len());
    report.metric("p95_us", lat.p95, "us", ns.len());
    report.metric("p99_us", lat.p99, "us", ns.len());
    report.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB", 1);
}

fn total_events(suite: &Suite) -> f64 {
    suite.traces().iter().map(|b| b.trace.len() as f64).sum()
}

// ---------------------------------------------------------------- sweep

/// One parsed row of a ranked table.
struct Row {
    scheme: String,
    cells: Vec<String>,
}

fn parse_rows(table: &str) -> Vec<Row> {
    // Header: title, column names, rule; then one row per scheme.
    table
        .lines()
        .skip(3)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let cols: Vec<String> = l.split_whitespace().map(str::to_string).collect();
            Row {
                scheme: cols.first().cloned().unwrap_or_default(),
                cells: cols.into_iter().skip(1).collect(),
            }
        })
        .collect()
}

/// Checks the four ranked tables: ten rows each, every listed scheme
/// re-evaluated one at a time with `runner::evaluate_scheme` prints the
/// same size and rates, rows are in rank order, and each table holds
/// only its own update mode.
fn check_tables(suite: &Suite, tables: [&str; 4], report: &mut Report) {
    let spec = [
        (UpdateMode::Direct, 3usize),
        (UpdateMode::Forwarded, 3),
        (UpdateMode::Direct, 4),
        (UpdateMode::Forwarded, 4),
    ];
    let mut cache: BTreeMap<String, SchemeStats> = BTreeMap::new();
    for (t, table) in tables.iter().enumerate() {
        let rows = parse_rows(table);
        report.check(rows.len() == 10, || {
            format!("table {} has {} rows", t + 8, rows.len())
        });
        let (update, key_col) = spec[t];
        let mut prev = f64::INFINITY;
        for row in &rows {
            let Ok(scheme) = row.scheme.parse::<Scheme>() else {
                report.check(false, || format!("unparsable scheme {}", row.scheme));
                continue;
            };
            let stats = cache
                .entry(row.scheme.clone())
                .or_insert_with(|| evaluate_scheme(suite, &scheme));
            let want = vec![
                stats.size_log2().to_string(),
                format!("{:.3}", stats.mean.prevalence),
                format!("{:.3}", stats.mean.pvp),
                format!("{:.3}", stats.mean.sensitivity),
            ];
            let key: f64 = row
                .cells
                .get(key_col - 1)
                .and_then(|c| c.parse().ok())
                .unwrap_or(-1.0);
            let ok = row.cells == want && scheme.update == update && key <= prev;
            prev = key;
            report.check(ok, || {
                format!(
                    "table {}: {} printed {:?}, re-evaluation gives {:?}",
                    t + 8,
                    row.scheme,
                    row.cells,
                    want
                )
            });
        }
    }
}

pub fn sweep(o: &Opts, report: &mut Report) {
    let scale = SWEEP_SCALE * o.scale_factor;
    let (suite, passes) = measure(o, scale, 9, report, top_tables);
    let times: Vec<f64> = passes.iter().map(|p| p.1).collect();
    let space = DesignSpace::paper();
    let cells = (space.index_specs().len() * space.updates.len()) as f64;
    offline_metrics(report, &times, total_events(&suite) * cells);

    // Output checks, outside the timed window.
    let first = &passes[0].0;
    let mut t8 = first.table8.clone();
    if o.corrupt {
        t8 = corrupt_first_rate(&t8);
    }
    for (i, (p, _)) in passes.iter().enumerate().skip(1) {
        let same = p.table8 == first.table8
            && p.table9 == first.table9
            && p.table10 == first.table10
            && p.table11 == first.table11;
        report.check(same, || format!("pass {i} ranked differently from pass 0"));
    }
    check_tables(
        &suite,
        [&t8, &first.table9, &first.table10, &first.table11],
        report,
    );

    if o.trace {
        let untraced = median(&times);
        let tracer = Tracer::new(o.seed);
        let root = tracer.open();
        // The harness's own sweep, timed whole: its wall time, and its
        // workers' busy share from the per-group histogram it keeps.
        let indexes = space.index_specs();
        let (cells, sweep_s, busy) = harness_sweep(&suite, &indexes, &space.updates);
        // The same search re-composed from its public layer calls, with a
        // span around each: the family sweep, then the ranking. (Ranking
        // is timed directly: top_tables minus the sweep is the difference
        // of two second-long wall times and drowns in their noise.)
        let t = Instant::now();
        traced_families(&tracer, root.0, &suite, &indexes, &space.updates);
        let rank_s = layers::rank_cells(&tracer, root.0, cells);
        let traced = secs(t);
        let sample = sample_schemes(&first.table8, &first.table9);
        let inputs = LayerInputs::offline(&suite, o, scale, sample, Vec::new());
        layers::offline_layers(&tracer, root.0, &inputs, report);
        tracer.close(root.0, 0, "run", root.1);
        layers::report_offline_spans(&tracer, report, sweep_s, busy, rank_s);
        layers::serve_census(&inputs, report, o, None);
        report.metric(
            "bench.trace_overhead_frac",
            traced / untraced - 1.0,
            "frac",
            1,
        );
        layers::write_spans(o, &tracer);
    }
}

/// Up to four distinct schemes from the top of tables 8 and 9, the drive
/// census of the traced sweep.
fn sample_schemes(t8: &str, t9: &str) -> Vec<Scheme> {
    let mut seen = HashSet::new();
    parse_rows(t8)
        .into_iter()
        .take(2)
        .chain(parse_rows(t9).into_iter().take(2))
        .filter_map(|r| r.scheme.parse::<Scheme>().ok())
        .filter(|s| seen.insert(s.to_string()))
        .collect()
}

/// Replaces the PVP of the first row with a wrong value (the smoke
/// test's deliberately corrupted answer).
fn corrupt_first_rate(table: &str) -> String {
    let mut lines: Vec<String> = table.lines().map(str::to_string).collect();
    if let Some(row) = lines.get_mut(3) {
        let cols: Vec<&str> = row.split_whitespace().collect();
        if cols.len() >= 5 {
            *row = row.replacen(cols[3], "9.999", 1);
        }
    }
    lines.join("\n")
}

/// Runs `runner::try_sweep_families` and returns its cells, its wall time
/// and its workers' busy share, from the summed per-group work the
/// harness records in its own histogram.
pub fn harness_sweep(
    suite: &Suite,
    indexes: &[IndexSpec],
    updates: &[UpdateMode],
) -> (Vec<FamilyCell>, f64, f64) {
    let groups = csp_obs::global().histogram(
        "csp_harness_eval_ns",
        "Evaluation wall time per work item, by kind.",
        &[("kind", "family_group")],
    );
    let before = groups.snapshot().sum;
    let t = Instant::now();
    let outcome = try_sweep_families(suite, indexes, updates, MAX_DEPTH);
    let wall = secs(t);
    let busy_s = groups.snapshot().sum.wrapping_sub(before) as f64 / 1e9;
    let workers = workers(indexes.len() * suite.traces().len()) as f64;
    let cells = outcome.into_complete().expect("family sweep lost cells");
    (cells, wall, busy_s / (workers * wall))
}

/// Worker count the harness uses for `tasks` items.
pub fn workers(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(tasks.max(1))
}

/// The family sweep re-composed from its layer calls, planned like the
/// harness (one item per `(index, benchmark)` group over the harness's
/// worker count): `PreparedTrace::new` per benchmark, then per group
/// the first `key_stream` and one family kernel call per update mode.
pub fn traced_families(
    tracer: &Tracer,
    parent: u64,
    suite: &Suite,
    indexes: &[IndexSpec],
    updates: &[UpdateMode],
) {
    let prepared: Vec<PreparedTrace<'_>> = suite
        .traces()
        .iter()
        .map(|b| tracer.time("trace.resolve", parent, |_| PreparedTrace::new(&b.trace)))
        .collect();
    let n = prepared.len();
    let groups: Vec<(usize, usize)> = (0..indexes.len())
        .flat_map(|i| (0..n).map(move |b| (i, b)))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers(groups.len()) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(i, b)) = groups.get(k) else { break };
                let pt = &prepared[b];
                tracer.time("harness.group", parent, |g| {
                    tracer.time("core.keystream", g, |_| pt.key_stream(indexes[i]));
                    for &u in updates {
                        tracer.time("core.family", g, |_| {
                            run_history_family_prepared(pt, indexes[i], u, MAX_DEPTH)
                        });
                    }
                });
                pt.evict_stream(indexes[i]);
            });
        }
    });
}

// -------------------------------------------------------------- oneshot

pub fn oneshot(o: &Opts, report: &mut Report) {
    let scale = ONESHOT_SCALE * o.scale_factor;
    let schemes = parse_schemes(&ONESHOT_SCHEMES);
    let (suite, passes) = measure(o, scale, 5, report, |s| evaluate_schemes(s, &schemes));
    let times: Vec<f64> = passes.iter().map(|p| p.1).collect();
    offline_metrics(report, &times, total_events(&suite) * schemes.len() as f64);

    // Output checks, outside the timed window: every pass agrees with
    // the first, and the first agrees with an independent re-run (the
    // batched SIMD scorer for history schemes; the sequential per-call
    // path for PAs, which has no SIMD twin).
    let mut first = passes[0].0.clone();
    if o.corrupt {
        first[0].per_benchmark[0].tp += 1;
    }
    for (i, (p, _)) in passes.iter().enumerate().skip(1) {
        let same = p
            .iter()
            .zip(&passes[0].0)
            .all(|(a, b)| a.per_benchmark == b.per_benchmark);
        report.check(same, || format!("pass {i} differs from pass 0"));
    }
    let prepared: Vec<PreparedTrace<'_>> = suite
        .traces()
        .iter()
        .map(|b| PreparedTrace::new(&b.trace))
        .collect();
    for (stats, scheme) in first.iter().zip(&schemes) {
        let want: Vec<_> = if scheme.function == PredictionFunction::Pas {
            evaluate_scheme(&suite, scheme).per_benchmark
        } else {
            prepared
                .iter()
                .map(|pt| csp_core::run_scheme_simd(pt, scheme))
                .collect()
        };
        report.check(
            stats.scheme == *scheme && stats.per_benchmark == want,
            || format!("{scheme}: evaluate_schemes disagrees with the independent re-run"),
        );
    }
    drop(prepared);

    if o.trace {
        let untraced = median(&times);
        let tracer = Tracer::new(o.seed);
        let root = tracer.open();
        let t = Instant::now();
        traced_schemes(&tracer, root.0, &suite, &schemes);
        let traced = secs(t);
        let family = family_pairs(&schemes);
        let (sweep_s, busy, rank_s) = layers::harness_census(&tracer, root.0, &suite, &family);
        let inputs = LayerInputs::offline(&suite, o, scale, Vec::new(), family);
        layers::offline_layers(&tracer, root.0, &inputs, report);
        tracer.close(root.0, 0, "run", root.1);
        layers::report_offline_spans(&tracer, report, sweep_s, busy, rank_s);
        layers::serve_census(&inputs, report, o, None);
        report.metric(
            "bench.trace_overhead_frac",
            traced / untraced - 1.0,
            "frac",
            1,
        );
        layers::write_spans(o, &tracer);
    }
}

/// `evaluate_schemes` re-composed from its layer calls: one
/// `PreparedTrace::new` per benchmark, then the schemes spread over the
/// harness's worker count, each paying its first `key_stream` per
/// benchmark and one `run_scheme_prepared` per benchmark.
fn traced_schemes(tracer: &Tracer, parent: u64, suite: &Suite, schemes: &[Scheme]) {
    let prepared: Vec<PreparedTrace<'_>> = suite
        .traces()
        .iter()
        .map(|b| tracer.time("trace.resolve", parent, |_| PreparedTrace::new(&b.trace)))
        .collect();
    let built: Vec<Mutex<HashSet<IndexSpec>>> = prepared
        .iter()
        .map(|_| Mutex::new(HashSet::new()))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers(schemes.len()) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(scheme) = schemes.get(k) else { break };
                tracer.time("harness.item", parent, |g| {
                    for (pt, built) in prepared.iter().zip(&built) {
                        layers::first_key_stream(tracer, g, pt, built, scheme.index);
                        tracer.time("core.drive", g, |_| run_scheme_prepared(pt, scheme));
                    }
                });
            });
        }
    });
}

/// The `(index, update)` points of the `union`/`inter` schemes.
pub fn family_pairs(schemes: &[Scheme]) -> Vec<(IndexSpec, UpdateMode)> {
    schemes
        .iter()
        .filter(|s| {
            matches!(
                s.function,
                PredictionFunction::Union | PredictionFunction::Inter
            )
        })
        .map(|s| (s.index, s.update))
        .collect()
}
