//! The traced run's layer measurements.
//!
//! Every span and every per-layer timing here wraps a public call of one
//! layer from outside; no repository code is instrumented. A workload's
//! own pass is re-composed from these calls (see `offline.rs` and
//! `serve.rs`); layers its pass never enters are timed by the census
//! below on that workload's own generated inputs, so every workload
//! reports every layer.

use crate::offline::harness_sweep;
use crate::util::{median, quantile_ns, secs, Report, Tracer};
use crate::Opts;
use csp_core::engine::{run_history_family_prepared, run_scheme_prepared};
use csp_core::{IndexSpec, PredictionFunction, PreparedTrace, Scheme, UpdateMode};
use csp_harness::runner::FamilyCell;
use csp_harness::Suite;
use csp_serve::replication::{self, trace_to_ops, JournalStore, ReplicationLog};
use csp_serve::wire::{self, Request, Response};
use csp_serve::{server, Client, Probe, ReplOp, ServerOptions, ShardedEngine, ShutdownHandle};
use csp_sim::{MemorySystem, SystemConfig};
use csp_trace::{SharingBitmap, Trace};
use csp_workloads::{benchmark_seed, Benchmark};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The scheme every serving workload (and serving census) serves.
pub const SERVED_SCHEME: &str = "union(pid+pc8)2[direct]";
/// The benchmark whose trace the serving workloads warm from / push.
pub const SERVE_BENCH: Benchmark = Benchmark::Mp3d;
/// Shards of every served engine.
pub const SHARDS: usize = 2;
/// Probes in the sampled probe list the readers cycle through.
pub const PROBE_LIST: usize = 1 << 16;
/// Frames each census pass pushes through wire/dispatch/predict.
const CENSUS_FRAMES: usize = 2000;
/// Replication ops per `Ingest` frame.
pub const FRAME_OPS: usize = 512;

/// The inputs a workload hands the layer census.
pub struct LayerInputs<'s> {
    /// The workload's generated traces, with how they were generated.
    pub traces: Vec<(Benchmark, &'s Trace)>,
    pub scale: f64,
    pub seed: u64,
    /// Schemes the drive census scores on every trace.
    pub drive: Vec<Scheme>,
    /// `(index, update)` points the family census runs on every trace.
    pub family: Vec<(IndexSpec, UpdateMode)>,
    /// Whether this census's `PreparedTrace::new` calls are the
    /// workload's resolve layer (else the pass already timed it).
    pub resolve_is_layer: bool,
    /// The serving census: scheme, trace, and frame shapes.
    pub served: Scheme,
    pub serve_trace: &'s Trace,
    pub read_batch: usize,
    pub write: bool,
}

impl<'s> LayerInputs<'s> {
    /// Census inputs of an offline workload over its suite.
    pub fn offline(
        suite: &'s Suite,
        o: &Opts,
        scale: f64,
        drive: Vec<Scheme>,
        family: Vec<(IndexSpec, UpdateMode)>,
    ) -> Self {
        LayerInputs {
            traces: suite
                .traces()
                .iter()
                .map(|b| (b.benchmark, &b.trace))
                .collect(),
            scale,
            seed: o.seed,
            drive,
            family,
            resolve_is_layer: false,
            served: served_scheme(),
            serve_trace: &suite.trace(SERVE_BENCH).trace,
            read_batch: 16,
            write: false,
        }
    }
}

pub fn served_scheme() -> Scheme {
    SERVED_SCHEME.parse().expect("valid served scheme")
}

/// Calls `pt.key_stream(index)` inside a `core.keystream` span the first
/// time `built` (the caller's record for `pt`) sees `index`; later calls
/// are cache hits and stay in the caller's span.
pub fn first_key_stream(
    tracer: &Tracer,
    parent: u64,
    pt: &PreparedTrace<'_>,
    built: &Mutex<HashSet<IndexSpec>>,
    index: IndexSpec,
) {
    if built.lock().expect("key-stream set poisoned").insert(index) {
        tracer.time("core.keystream", parent, |_| pt.key_stream(index));
    } else {
        pt.key_stream(index);
    }
}

/// Regenerates the workload's traces through the workload generator and
/// the simulator (spans `workloads.gen`, `sim.run`), checks them against
/// the traces the workload ran on, then runs the drive and family
/// census over them.
pub fn offline_layers(tracer: &Tracer, parent: u64, inputs: &LayerInputs<'_>, report: &mut Report) {
    let mut events = 0u64;
    for &(b, trace) in &inputs.traces {
        let accesses = tracer.time("workloads.gen", parent, |_| {
            b.accesses(inputs.scale, benchmark_seed(inputs.seed, b))
        });
        let (regenerated, _) = tracer.time("sim.run", parent, |_| {
            let mut sys = MemorySystem::new(SystemConfig::paper_16_node());
            sys.run(accesses);
            sys.finish()
        });
        report.check(regenerated == *trace, || {
            format!("{b}: generator + simulator re-composition differs from the suite trace")
        });
        events += regenerated.len() as u64;
    }
    report.metric("sim.events", events as f64, "count", inputs.traces.len());
    if inputs.drive.is_empty() && inputs.family.is_empty() {
        return;
    }
    let resolve = if inputs.resolve_is_layer {
        "trace.resolve"
    } else {
        "census.resolve"
    };
    for &(_, trace) in &inputs.traces {
        let pt = tracer.time(resolve, parent, |_| PreparedTrace::new(trace));
        let built = Mutex::new(HashSet::new());
        for &(index, update) in &inputs.family {
            first_key_stream(tracer, parent, &pt, &built, index);
            tracer.time("core.family", parent, |_| {
                run_history_family_prepared(&pt, index, update, 4)
            });
        }
        for scheme in &inputs.drive {
            first_key_stream(tracer, parent, &pt, &built, scheme.index);
            tracer.time("core.drive", parent, |_| run_scheme_prepared(&pt, scheme));
        }
    }
}

/// Materializes every in-budget scheme of a family sweep and ranks it by
/// PVP and by sensitivity per update mode — the post-sweep half of
/// `top_tables`, composed from `FamilyCell::stats`. Returns its seconds.
pub fn rank_cells(tracer: &Tracer, parent: u64, cells: Vec<FamilyCell>) -> f64 {
    let t = Instant::now();
    tracer.time("harness.rank", parent, |_| {
        let mut all = Vec::new();
        for cell in &cells {
            for f in [PredictionFunction::Union, PredictionFunction::Inter] {
                for d in 1..=4 {
                    if f == PredictionFunction::Inter && d == 1 {
                        continue;
                    }
                    let s = cell.stats(f, d);
                    if s.size_log2() <= 24 {
                        all.push(s);
                    }
                }
            }
        }
        for u in [
            UpdateMode::Direct,
            UpdateMode::Forwarded,
            UpdateMode::Ordered,
        ] {
            let mut v: Vec<_> = all.iter().filter(|s| s.scheme.update == u).collect();
            // Both rankings of top_tables, kept alive so they are computed.
            v.sort_by(|a, b| {
                (b.mean.pvp, b.mean.sensitivity)
                    .partial_cmp(&(a.mean.pvp, a.mean.sensitivity))
                    .expect("finite")
            });
            std::hint::black_box(v.first());
            v.sort_by(|a, b| {
                (b.mean.sensitivity, b.mean.pvp)
                    .partial_cmp(&(a.mean.sensitivity, a.mean.pvp))
                    .expect("finite")
            });
            std::hint::black_box(v.first());
        }
    });
    secs(t)
}

/// Reports the offline-layer metrics from the run's spans plus the
/// harness measurements taken around whole harness calls.
pub fn report_offline_spans(
    tracer: &Tracer,
    report: &mut Report,
    sweep_s: f64,
    busy_frac: f64,
    rank_s: f64,
) {
    let own = tracer.self_seconds();
    let get = |n: &str| own.get(n).copied().unwrap_or(0.0);
    report.metric(
        "workloads.gen_s",
        get("workloads.gen"),
        "s",
        tracer.count("workloads.gen"),
    );
    report.metric("sim.run_s", get("sim.run"), "s", tracer.count("sim.run"));
    report.metric(
        "trace.resolve_s",
        get("trace.resolve"),
        "s",
        tracer.count("trace.resolve"),
    );
    report.metric(
        "core.keystream_s",
        get("core.keystream"),
        "s",
        tracer.count("core.keystream"),
    );
    report.metric(
        "core.keystream_builds",
        tracer.count("core.keystream") as f64,
        "count",
        1,
    );
    report.metric(
        "core.family_s",
        get("core.family"),
        "s",
        tracer.count("core.family"),
    );
    report.metric(
        "core.drive_s",
        get("core.drive"),
        "s",
        tracer.count("core.drive"),
    );
    report.metric("harness.sweep_s", sweep_s, "s", 1);
    report.metric("harness.busy_frac", busy_frac, "frac", 1);
    report.metric("harness.rank_s", rank_s, "s", 1);
}

/// The harness census of a workload whose pass never runs a family
/// sweep: the harness sweep over the workload's family points, and the
/// ranking composition over its cells.
pub fn harness_census(
    tracer: &Tracer,
    parent: u64,
    suite: &Suite,
    family: &[(IndexSpec, UpdateMode)],
) -> (f64, f64, f64) {
    let mut indexes = Vec::new();
    let mut updates = Vec::new();
    for &(i, u) in family {
        if !indexes.contains(&i) {
            indexes.push(i);
        }
        if !updates.contains(&u) {
            updates.push(u);
        }
    }
    let (cells, sweep_s, busy) = harness_sweep(suite, &indexes, &updates);
    let rank_s = rank_cells(tracer, parent, cells);
    (sweep_s, busy, rank_s)
}

/// Writes the run's spans out as JSON lines once the run has ended.
pub fn write_spans(o: &Opts, tracer: &Tracer) {
    let path = o.out.join(format!("spans-{}-{}.jsonl", o.workload, o.seed));
    if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

// ------------------------------------------------------- serving census

/// Deterministic xorshift stream (the benchmark's only randomness, so
/// the probe sample is a function of the seed alone).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// `n` probes sampled uniformly (with replacement) from the trace's
/// writes, using the workload seed.
pub fn probe_list(trace: &Trace, seed: u64, n: usize) -> Vec<Probe> {
    let events = trace.events();
    let mut rng = XorShift::new(seed ^ 0x5EED);
    (0..n)
        .map(|_| {
            let e = &events[(rng.next() % events.len() as u64) as usize];
            Probe::new(e.writer, e.pc, e.home, e.line)
        })
        .collect()
}

/// The replication ops a producer pushes for `trace` under `scheme`.
pub fn push_ops(trace: &Trace, scheme: &Scheme) -> Vec<ReplOp> {
    let pt = PreparedTrace::new(trace);
    trace_to_ops(&pt, scheme, 0..pt.len())
}

/// What the real server run hands the census (serving workloads only).
pub struct Scraped {
    /// Measured round-trip p50 of the workload's frames, microseconds.
    pub p50_us: f64,
    /// The server's metrics text, scraped once through `Client::metrics`.
    pub text: String,
}

fn mean_of(samples: &[csp_obs::Sample], name: &str) -> Option<f64> {
    let sum = csp_obs::sum_counter(samples, &format!("{name}_sum"));
    let count = csp_obs::sum_counter(samples, &format!("{name}_count"));
    (count > 0).then(|| sum as f64 / count as f64)
}

fn counter(samples: &[csp_obs::Sample], name: &str) -> Option<f64> {
    samples
        .iter()
        .any(|s| s.name == name)
        .then(|| csp_obs::sum_counter(samples, name) as f64)
}

/// The serving layers, in process, on the workload's own frames: wire
/// encode/decode, `serve_connection` dispatch over in-memory streams,
/// shard predict, and the ingest path bare / journaled / audited.
/// Serving workloads pass what their real server run measured.
pub fn serve_census(
    inputs: &LayerInputs<'_>,
    report: &mut Report,
    o: &Opts,
    scraped: Option<&Scraped>,
) {
    let scheme = inputs.served;
    let trace = inputs.serve_trace;
    let nodes = trace.nodes();
    let twin = ShardedEngine::new(scheme, nodes, SHARDS);
    twin.replay_trace(trace).expect("twin warm replay");

    // Read frames and their answers; timing predict_batch on the way.
    let probes = probe_list(trace, inputs.seed, PROBE_LIST);
    let frames: Vec<Vec<Probe>> = probes
        .chunks(inputs.read_batch)
        .take(CENSUS_FRAMES)
        .map(<[Probe]>::to_vec)
        .collect();
    let t = Instant::now();
    let answers: Vec<Vec<SharingBitmap>> = frames.iter().map(|f| twin.predict_batch(f)).collect();
    let probes_sent: usize = frames.iter().map(Vec::len).sum();
    report.metric(
        "shard.predict_ns_per_probe",
        secs(t) * 1e9 / probes_sent as f64,
        "ns",
        probes_sent,
    );

    let ops = push_ops(trace, &scheme);
    let fp = replication::fingerprint(&scheme, nodes);
    let mut requests: Vec<Request> = frames.iter().cloned().map(Request::PredictBatch).collect();
    let mut responses: Vec<Response> = answers
        .iter()
        .cloned()
        .map(Response::PredictionBatch)
        .collect();
    if inputs.write {
        let mut head = 0u64;
        for chunk in ops.chunks(FRAME_OPS) {
            head += chunk.len() as u64;
            requests.push(Request::Ingest {
                fingerprint: fp,
                epoch: 0,
                ops: chunk.to_vec(),
            });
            responses.push(Response::IngestAck { head });
        }
    }

    // Wire codec, per frame (requests and responses both count).
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut e_ns, mut d_ns) = (0u128, 0u128);
        for req in &requests {
            let t = Instant::now();
            let p = wire::encode_request(req);
            e_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            let back = wire::decode_request(&p);
            d_ns += t.elapsed().as_nanos();
            report.check(back.as_ref().ok() == Some(req), || {
                "request codec round trip".into()
            });
        }
        for resp in &responses {
            let t = Instant::now();
            let p = wire::encode_response(resp);
            e_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            let back = wire::decode_response(&p);
            d_ns += t.elapsed().as_nanos();
            report.check(back.as_ref().ok() == Some(resp), || {
                "response codec round trip".into()
            });
        }
        let n = (requests.len() + responses.len()) as f64;
        enc.push(e_ns as f64 / n);
        dec.push(d_ns as f64 / n);
    }
    report.metric(
        "wire.encode_ns",
        median(&enc),
        "ns",
        requests.len() + responses.len(),
    );
    report.metric(
        "wire.decode_ns",
        median(&dec),
        "ns",
        requests.len() + responses.len(),
    );

    // Dispatch: the same frames through `serve_connection` over
    // in-memory streams. Reads go to the warmed twin (answers checked);
    // a write workload's frames go to a fresh engine, once.
    let read_bytes = frame_bytes(&requests[..frames.len()]);
    let mut disp = Vec::new();
    for _ in 0..3 {
        let mut out = Vec::new();
        let t = Instant::now();
        let r = server::serve_connection(
            read_bytes.as_slice(),
            &mut out,
            &twin,
            &ServerOptions::default(),
            &ShutdownHandle::new(),
        );
        disp.push(secs(t) * 1e6 / frames.len() as f64);
        let got = read_responses(&out);
        report.check(r.is_ok() && got == responses[..frames.len()], || {
            "dispatch answers differ from the in-process engine".into()
        });
    }
    let mut dispatch_us = median(&disp);
    if inputs.write {
        let fresh = ShardedEngine::new(scheme, nodes, SHARDS);
        let bytes = frame_bytes(&requests[frames.len()..]);
        let mut out = Vec::new();
        let t = Instant::now();
        let r = server::serve_connection(
            bytes.as_slice(),
            &mut out,
            &fresh,
            &ServerOptions::default(),
            &ShutdownHandle::new(),
        );
        let write_us = secs(t) * 1e6 / (requests.len() - frames.len()) as f64;
        let got = read_responses(&out);
        report.check(r.is_ok() && got == responses[frames.len()..], || {
            "dispatched ingest acks differ".into()
        });
        // The write workload's latency metric is the ingest round trip.
        dispatch_us = write_us;
    }
    report.metric("server.dispatch_us", dispatch_us, "us", requests.len());

    // Loopback: measured p50 minus dispatch. Serving workloads pass the
    // real server's p50; others measure an in-process TCP server.
    let p50 = match scraped {
        Some(s) => s.p50_us,
        None => loopback_p50_us(&twin, &frames, report),
    };
    report.metric("net.loopback_us", p50 - dispatch_us, "us", frames.len());

    // Ingest path: bare, with a durable journal, with a full-rate audit
    // sink. Alternated over rounds, medians per op.
    let (bare, journal, audit, records, audit_text) = ingest_census(&scheme, nodes, &ops, o);
    report.metric("shard.ingest_ns_per_op", bare, "ns", ops.len());
    report.metric(
        "replication.append_ns_per_op",
        journal - bare,
        "ns",
        ops.len(),
    );
    let per_record = (audit - bare) * ops.len() as f64 / records.max(1) as f64;
    report.metric("audit.ns_per_record", per_record, "ns", records as usize);

    // Scraped series: the real server's when it has them, else the
    // in-process engines' registries (same exposition format).
    let local = csp_obs::parse_text(&twin.registry().encode_prometheus());
    let audit_local = csp_obs::parse_text(&audit_text);
    let real = scraped
        .map(|s| csp_obs::parse_text(&s.text))
        .unwrap_or_default();
    let pick = |f: &dyn Fn(&[csp_obs::Sample]) -> Option<f64>| -> f64 {
        f(&real)
            .or_else(|| f(&local))
            .or_else(|| f(&audit_local))
            .unwrap_or(0.0)
    };
    report.metric(
        "server.decode_ns_mean",
        pick(&|s| mean_of(s, "csp_wire_decode_ns")),
        "ns",
        1,
    );
    report.metric(
        "server.encode_ns_mean",
        pick(&|s| mean_of(s, "csp_wire_encode_ns")),
        "ns",
        1,
    );
    report.metric(
        "shard.query_service_ns_mean",
        pick(&|s| mean_of(s, "csp_shard_query_service_ns")),
        "ns",
        1,
    );
    report.metric(
        "shard.batch_service_ns_mean",
        pick(&|s| mean_of(s, "csp_shard_batch_service_ns")),
        "ns",
        1,
    );
    report.metric(
        "shard.queries",
        pick(&|s| counter(s, "csp_shard_queries_total")),
        "count",
        1,
    );
    report.metric(
        "shard.updates",
        pick(&|s| counter(s, "csp_shard_updates_total")),
        "count",
        1,
    );
    let audit_src = |s: &[csp_obs::Sample]| {
        let r = counter(s, "csp_audit_records_total")?;
        let b = counter(s, "csp_audit_bytes_total")?;
        (r > 0.0).then_some((r, b))
    };
    let (rec, bytes) = audit_src(&real)
        .or_else(|| audit_src(&audit_local))
        .unwrap_or((0.0, 0.0));
    report.metric("audit.records", rec, "count", 1);
    report.metric("audit.bytes_per_record", bytes / rec.max(1.0), "B", 1);
}

fn frame_bytes(requests: &[Request]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in requests {
        wire::write_request(&mut buf, r).expect("in-memory write");
    }
    buf
}

fn read_responses(mut bytes: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        match wire::read_response(&mut bytes) {
            Ok(r) => out.push(r),
            Err(_) => break,
        }
    }
    out
}

/// p50 round trip of `frames` against an in-process TCP server over the
/// loopback interface, in microseconds.
fn loopback_p50_us(engine: &ShardedEngine, frames: &[Vec<Probe>], report: &mut Report) -> f64 {
    let engine = Arc::new(
        ShardedEngine::with_state(*engine.scheme(), engine.nodes(), engine.snapshot_state())
            .expect("copy of the twin's state"),
    );
    let server = match server::Server::bind_tcp("127.0.0.1:0", Arc::clone(&engine)) {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("loopback bind: {e}"));
            return 0.0;
        }
    };
    let addr = server.local_addr().expect("bound address");
    let stop = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    let mut rtt = Vec::with_capacity(frames.len());
    match Client::connect_tcp(addr) {
        Ok(mut c) => {
            for f in frames {
                let t = Instant::now();
                let ok = c.predict_batch(f).is_ok();
                rtt.push(t.elapsed().as_nanos() as u64);
                report.check(ok, || "loopback predict failed".into());
            }
        }
        Err(e) => report.check(false, || format!("loopback connect: {e}")),
    }
    stop.shutdown();
    let _ = join.join();
    rtt.sort_unstable();
    quantile_ns(&rtt, 0.5) / 1e3
}

/// Per-op ingest cost (ns) with nothing attached, with a durable
/// journal, and with a full-rate file audit sink; plus the audit
/// records the audited engine emitted and its registry text.
fn ingest_census(
    scheme: &Scheme,
    nodes: usize,
    ops: &[ReplOp],
    o: &Opts,
) -> (f64, f64, f64, u64, String) {
    let dir = o.work.join("census");
    let (mut bare, mut journal, mut audit) = (Vec::new(), Vec::new(), Vec::new());
    let (mut records, mut text) = (0u64, String::new());
    let per_op = |engine: &ShardedEngine| {
        let t = Instant::now();
        for chunk in ops.chunks(FRAME_OPS) {
            engine.ingest_replicated(0, chunk).expect("ingest");
        }
        engine.flush();
        secs(t) * 1e9 / ops.len() as f64
    };
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("census dir");
        let e = ShardedEngine::new(*scheme, nodes, SHARDS);
        bare.push(per_op(&e));
        drop(e);

        let e = ShardedEngine::new(*scheme, nodes, SHARDS);
        let fp = replication::fingerprint(scheme, nodes);
        let store = JournalStore::open(dir.join("journal"), fp).expect("journal dir");
        let recovered = store.recover_all().expect("empty journal");
        let log = ReplicationLog::durable(store, &recovered).expect("journal log");
        e.attach_replication(log).expect("attach journal");
        journal.push(per_op(&e));
        drop(e);

        let e = ShardedEngine::new(*scheme, nodes, SHARDS);
        let sink =
            csp_serve::audit::attach_file_sink(&e, &dir.join("audit.log"), 1).expect("audit sink");
        sink.bind_metrics(e.registry());
        audit.push(per_op(&e));
        records = sink.head();
        text = e.registry().encode_prometheus();
        drop(e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    (
        median(&bare),
        median(&journal),
        median(&audit),
        records,
        text,
    )
}
