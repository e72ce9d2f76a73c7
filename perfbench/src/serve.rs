//! The serving workloads, against the real `csp-served` binary:
//! `serve_read` (closed-loop 16-probe reads on a warmed server) and
//! `serve_write` (one trace pushed through a replicating, auditing
//! leader while a second connection reads alongside).

use crate::layers::{
    self, probe_list, push_ops, served_scheme, LayerInputs, Scraped, FRAME_OPS, PROBE_LIST,
    SERVED_SCHEME, SERVE_BENCH, SHARDS,
};
use crate::util::{latency_us, median, peak_rss_mb, secs, Report, Tracer};
use crate::Opts;
use csp_core::Scheme;
use csp_serve::replication;
use csp_serve::{Client, Probe, ReplOp, ShardedEngine};
use csp_trace::{SharingBitmap, Trace};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Trace scale of the serving workloads' generated benchmark trace.
pub const SERVE_SCALE: f64 = 1.0;
/// Probes per reader frame on `serve_read`.
const READ_BATCH: usize = 16;
/// Probes per reader frame alongside the writer on `serve_write`.
const SIDE_BATCH: usize = 256;
/// Frames each reader connection sends per timed pass.
const PASS_FRAMES: usize = 1000;
/// Reader connections on `serve_read`.
const CONNS: usize = 2;
/// Server lifetimes per `serve_read` run (each one a set-up sample).
const READ_LIFETIMES: usize = 5;
/// Ingest frames at the start of each push left out of the latency
/// samples.
const WRITE_WARMUP_FRAMES: usize = 16;
/// Longest a server may take to come up or to shut down.
const SERVER_DEADLINE: Duration = Duration::from_secs(60);
/// Client socket deadline: a stalled round trip fails instead of hanging.
const IO_DEADLINE: Duration = Duration::from_secs(10);

/// A running `csp-served serve` child. Dropping it without a clean
/// [`Served::shutdown`] kills it, so no server outlives its run.
struct Served {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl Served {
    /// Spawns the server with `extra` flags, waits for its bound address
    /// in `--addr-file` and for the first answered `Ping`; returns it
    /// with that set-up time.
    fn spawn(o: &Opts, dir: &Path, extra: &[String]) -> Result<(Served, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let addr_file = dir.join("addr");
        let log = std::fs::File::create(dir.join("server.log")).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let child = Command::new(&o.served_bin)
            .args(["serve", "--scheme", SERVED_SCHEME, "--shards"])
            .arg(SHARDS.to_string())
            .args([
                "--listen",
                "127.0.0.1:0",
                "--stats-every",
                "0",
                "--addr-file",
            ])
            .arg(&addr_file)
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", o.served_bin.display()))?;
        let mut served = Served {
            child,
            stdin: None,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        served.stdin = served.child.stdin.take();
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if let Ok(a) = s.trim().parse::<SocketAddr>() {
                    break a;
                }
            }
            if let Ok(Some(status)) = served.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if start.elapsed() > SERVER_DEADLINE {
                return Err("server did not publish its address in time".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        served.addr = addr;
        let mut client = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        Ok((served, secs(start)))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Closes stdin (the server's shutdown signal) and waits for a clean
    /// exit; on timeout or a failed exit the run fails.
    fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if start.elapsed() > SERVER_DEADLINE => {
                    return Err("server did not shut down in time; killed".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<Client> {
    let mut c = Client::connect_tcp(addr)?;
    c.set_timeouts(Some(IO_DEADLINE), Some(IO_DEADLINE))?;
    Ok(c)
}

fn latency_metrics(report: &mut Report, rtt: &[u64]) {
    let lat = latency_us(rtt);
    report.metric("p50_us", lat.p50, "us", rtt.len());
    report.metric("p95_us", lat.p95, "us", rtt.len());
    report.metric("p99_us", lat.p99, "us", rtt.len());
}

fn trace_for(o: &Opts) -> Trace {
    csp_workloads::generate_benchmark(SERVE_BENCH, SERVE_SCALE * o.scale_factor, o.seed).trace
}

/// Expected answers for `probes` from an in-process engine warmed from
/// `trace` — the twin every `serve_read` answer is checked against.
fn twin_answers(scheme: &Scheme, trace: &Trace, probes: &[Probe]) -> Vec<SharingBitmap> {
    let twin = ShardedEngine::new(*scheme, trace.nodes(), SHARDS);
    twin.replay_trace(trace).expect("twin warm replay");
    twin.predict_batch(probes)
}

// ----------------------------------------------------------- serve_read

/// What one closed-loop read load measured.
#[derive(Default)]
struct ReadOut {
    pass_s: Vec<f64>,
    rtt_ns: Vec<u64>,
    probes: u64,
    frames: u64,
    errors: u64,
    wrong: u64,
}

/// `CONNS` connections, each sending `PASS_FRAMES` frames of `batch`
/// probes per pass and waiting for each reply, in lock-step passes until
/// `seconds` elapse. The first pass warms up and is left out. Every
/// answer is compared with `expected` after its round trip is timed.
#[allow(clippy::too_many_arguments)]
fn read_load(
    addr: SocketAddr,
    probes: &Arc<Vec<Probe>>,
    expected: &Arc<Vec<SharingBitmap>>,
    batch: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
    corrupt: bool,
) -> ReadOut {
    let barrier = Arc::new(Barrier::new(CONNS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let mut out = ReadOut::default();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for c in 0..CONNS {
            let (barrier, stop) = (Arc::clone(&barrier), Arc::clone(&stop));
            joins.push(s.spawn(move || {
                let mut mine = ReadOut::default();
                let mut client = connect(addr).ok();
                let n = probes.len();
                let mut cursor = c * (n / CONNS) / batch * batch;
                let mut pass = 0usize;
                loop {
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let measured = pass > 0;
                    for _ in 0..PASS_FRAMES {
                        let frame = &probes[cursor..cursor + batch];
                        let Some(cl) = client.as_mut() else {
                            mine.errors += 1;
                            continue;
                        };
                        let (span, t) = match tracer {
                            Some(tr) => (Some(tr.open()), Instant::now()),
                            None => (None, Instant::now()),
                        };
                        let reply = cl.predict_batch(frame);
                        let ns = t.elapsed().as_nanos() as u64;
                        if let (Some(tr), Some((id, start))) = (tracer, span) {
                            tr.close(id, 0, "client.round_trip", start);
                        }
                        match reply {
                            Ok(mut got) => {
                                if corrupt && c == 0 && mine.frames == 0 && measured {
                                    got[0] = SharingBitmap::from_bits(got[0].bits() ^ 1);
                                }
                                if measured {
                                    mine.rtt_ns.push(ns);
                                    mine.frames += 1;
                                    mine.probes += batch as u64;
                                    if got[..] != expected[cursor..cursor + batch] {
                                        mine.wrong += 1;
                                    }
                                }
                            }
                            Err(_) => {
                                mine.errors += 1;
                                client = None;
                            }
                        }
                        cursor = (cursor + batch) % n;
                    }
                    pass += 1;
                    barrier.wait();
                }
                mine
            }));
        }
        let start = Instant::now();
        let mut pass = 0usize;
        loop {
            barrier.wait();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let t = Instant::now();
            barrier.wait();
            if pass > 0 {
                out.pass_s.push(secs(t));
            }
            pass += 1;
            if pass > 1 && secs(start) >= seconds {
                stop.store(true, Ordering::SeqCst);
            }
        }
        for j in joins {
            let m = j.join().expect("reader thread");
            out.rtt_ns.extend(m.rtt_ns);
            out.probes += m.probes;
            out.frames += m.frames;
            out.errors += m.errors;
            out.wrong += m.wrong;
        }
    });
    out
}

pub fn serve_read(o: &Opts, report: &mut Report) {
    let scheme = served_scheme();
    let trace = trace_for(o);
    let warm = o.work.join("warm.csptrc");
    let file = std::fs::File::create(&warm).expect("warm trace file");
    csp_trace::io::write_trace(std::io::BufWriter::new(file), &trace).expect("write warm trace");
    let probes = Arc::new(probe_list(&trace, o.seed, PROBE_LIST));
    let expected = Arc::new(twin_answers(&scheme, &trace, &probes));
    let extra = vec!["--warm".to_string(), warm.display().to_string()];

    let mut setups = Vec::new();
    let mut load = ReadOut::default();
    let mut rss: f64 = 0.0;
    let mut text = String::new();
    let lifetimes = if o.trace {
        READ_LIFETIMES + 1
    } else {
        READ_LIFETIMES
    };
    let mut traced: Option<(ReadOut, Tracer)> = None;
    for life in 0..lifetimes {
        let dir = o.work.join(format!("read-{life}"));
        let (served, setup) = match Served::spawn(o, &dir, &extra) {
            Ok(v) => v,
            Err(e) => {
                report.check(false, || e);
                continue;
            }
        };
        let tracing = life == READ_LIFETIMES;
        let tracer = Tracer::new(o.seed);
        let out = read_load(
            served.addr,
            &probes,
            &expected,
            READ_BATCH,
            o.seconds / READ_LIFETIMES as f64,
            tracing.then_some(&tracer),
            o.corrupt,
        );
        rss = rss.max(peak_rss_mb(&served.pid()).unwrap_or(0.0));
        if life + 1 == READ_LIFETIMES {
            if let Ok(mut c) = connect(served.addr) {
                text = c.metrics().unwrap_or_default();
            }
        }
        let down = served.shutdown();
        report.check(down.is_ok(), || down.err().unwrap_or_default());
        if tracing {
            traced = Some((out, tracer));
            continue;
        }
        setups.push(setup);
        report.tally(out.frames + out.errors, out.errors + out.wrong, || {
            format!("{} reader errors, {} wrong answers", out.errors, out.wrong)
        });
        load.pass_s.extend(out.pass_s);
        load.rtt_ns.extend(out.rtt_ns);
        load.probes += out.probes;
    }

    // Probes answered per second at the median pass: every pass carries
    // the same probes, so this is the pass rate in probes.
    let per_pass = (CONNS * PASS_FRAMES * READ_BATCH) as f64;
    let qps = per_pass / median(&load.pass_s);
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("eval_s", median(&load.pass_s), "s", load.pass_s.len());
    report.metric("ops_per_s", qps, "1/s", load.probes as usize);
    latency_metrics(report, &load.rtt_ns);
    report.metric("peak_rss_mb", rss, "MB", setups.len());

    if let Some((out, tracer)) = traced {
        let traced_qps = per_pass / median(&out.pass_s);
        report.tally(out.frames + out.errors, out.errors + out.wrong, || {
            "traced lifetime reader failures".into()
        });
        let p50 = latency_us(&load.rtt_ns).p50;
        serve_layers(
            o,
            report,
            &trace,
            &tracer,
            false,
            Scraped { p50_us: p50, text },
        );
        report.metric(
            "bench.trace_overhead_frac",
            qps / traced_qps - 1.0,
            "frac",
            1,
        );
    }
}

/// The traced run's layers for a serving workload: regeneration, the
/// offline twin (resolve, key stream, drive, family), the harness census
/// on the seed's suite, and the in-process serving census.
fn serve_layers(
    o: &Opts,
    report: &mut Report,
    trace: &Trace,
    tracer: &Tracer,
    write: bool,
    scraped: Scraped,
) {
    let scheme = served_scheme();
    let scale = SERVE_SCALE * o.scale_factor;
    let suite = csp_harness::Suite::generate(scale, o.seed);
    let root = tracer.open();
    let inputs = LayerInputs {
        traces: vec![(SERVE_BENCH, trace)],
        scale,
        seed: o.seed,
        drive: vec![scheme],
        family: vec![(scheme.index, scheme.update)],
        resolve_is_layer: true,
        served: scheme,
        serve_trace: trace,
        read_batch: if write { SIDE_BATCH } else { READ_BATCH },
        write,
    };
    layers::offline_layers(tracer, root.0, &inputs, report);
    let (sweep_s, busy, rank_s) = layers::harness_census(tracer, root.0, &suite, &inputs.family);
    tracer.close(root.0, 0, "run", root.1);
    layers::report_offline_spans(tracer, report, sweep_s, busy, rank_s);
    layers::serve_census(&inputs, report, o, Some(&scraped));
    layers::write_spans(o, tracer);
}

// ---------------------------------------------------------- serve_write

/// What one push (one server lifetime) measured.
#[derive(Default)]
struct WriteOut {
    push_s: f64,
    rtt_ns: Vec<u64>,
    frames: u64,
    errors: u64,
    side_rtt_ns: Vec<u64>,
    side_probes: u64,
    side_s: f64,
}

/// Pushes `ops` once in `FRAME_OPS`-op `Ingest` frames on one connection
/// while a second sends `SIDE_BATCH`-probe reads until the push ends.
fn write_load(
    addr: SocketAddr,
    fp: u32,
    ops: &[ReplOp],
    probes: &[Probe],
    tracer: Option<&Tracer>,
) -> WriteOut {
    let done = AtomicBool::new(false);
    let side_errors = AtomicU64::new(0);
    let mut out = WriteOut::default();
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut rtt = Vec::new();
            let mut sent = 0u64;
            let start = Instant::now();
            let Ok(mut c) = connect(addr) else {
                side_errors.fetch_add(1, Ordering::Relaxed);
                return (rtt, sent, 0.0);
            };
            let mut cursor = 0usize;
            while !done.load(Ordering::Relaxed) {
                let frame = &probes[cursor..cursor + SIDE_BATCH];
                let t = Instant::now();
                let reply = c.predict_batch(frame);
                rtt.push(t.elapsed().as_nanos() as u64);
                match reply {
                    Ok(got) if got.len() == SIDE_BATCH => sent += SIDE_BATCH as u64,
                    _ => {
                        side_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
                cursor = (cursor + SIDE_BATCH) % probes.len();
            }
            (rtt, sent, secs(start))
        });
        match connect(addr) {
            Ok(mut c) => {
                let start = Instant::now();
                let mut head = 0u64;
                for (i, chunk) in ops.chunks(FRAME_OPS).enumerate() {
                    let (span, t) = (tracer.map(Tracer::open), Instant::now());
                    let reply = c.ingest(fp, chunk);
                    let ns = t.elapsed().as_nanos() as u64;
                    if let (Some(tr), Some((id, st))) = (tracer, span) {
                        tr.close(id, 0, "client.ingest", st);
                    }
                    head += chunk.len() as u64;
                    out.frames += 1;
                    match reply {
                        Ok(h) if h == head => {
                            if i >= WRITE_WARMUP_FRAMES {
                                out.rtt_ns.push(ns);
                            }
                        }
                        _ => {
                            out.errors += 1;
                            break;
                        }
                    }
                }
                out.push_s = secs(start);
            }
            Err(_) => out.errors += 1,
        }
        done.store(true, Ordering::Relaxed);
        let (rtt, probes_sent, side_s) = reader.join().expect("side reader");
        out.side_rtt_ns = rtt;
        out.side_probes = probes_sent;
        out.side_s = side_s;
    });
    out.errors += side_errors.load(Ordering::Relaxed);
    out
}

pub fn serve_write(o: &Opts, report: &mut Report) {
    let scheme = served_scheme();
    let trace = trace_for(o);
    let nodes = trace.nodes();
    let ops = push_ops(&trace, &scheme);
    let decisions = ops
        .iter()
        .filter(|op| matches!(op, ReplOp::Score { .. }))
        .count() as u64;
    let expected = csp_core::engine::run_scheme(&trace, &scheme);
    let prepared = csp_core::PreparedTrace::new(&trace);
    let probes = probe_list(&trace, o.seed, PROBE_LIST);
    let fp = replication::fingerprint(&scheme, nodes);
    let audit_fp = csp_core::version_fingerprint(&scheme, nodes);

    let mut setups = Vec::new();
    let mut pushes = Vec::new();
    let mut rtt = Vec::new();
    let (mut side_rtt, mut side_probes, mut side_s) = (Vec::new(), 0u64, 0.0);
    let mut rss: f64 = 0.0;
    let mut text = String::new();
    let mut traced: Option<(WriteOut, Tracer)> = None;
    let start = Instant::now();
    let mut life = 0usize;
    loop {
        let measuring = life < 3 || secs(start) < o.seconds;
        if !measuring && (!o.trace || traced.is_some()) {
            break;
        }
        let tracing = !measuring;
        let dir = o.work.join(format!("write-{life}"));
        life += 1;
        let extra: Vec<String> = [
            "--replicate",
            "--snapshot-dir",
            &dir.join("snap").display().to_string(),
            "--snapshot-every",
            "0",
            "--audit-log",
            &dir.join("audit.log").display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (served, setup) = match Served::spawn(o, &dir, &extra) {
            Ok(v) => v,
            Err(e) => {
                report.check(false, || e);
                if life > 50 {
                    break;
                }
                continue;
            }
        };
        let tracer = Tracer::new(o.seed);
        let out = write_load(served.addr, fp, &ops, &probes, tracing.then_some(&tracer));
        report.tally(out.frames, out.errors, || {
            format!("{} push/read errors", out.errors)
        });

        // Checks, after the timed push: the live confusion counters must
        // equal the offline engine on the pushed trace once every scored
        // decision has applied, and the audit log must verify.
        let stats = wait_scored(served.addr, decisions);
        let mut stats_ok = matches!(&stats, Some(s) if s.confusion == expected);
        if o.corrupt && life == 1 {
            stats_ok = false;
        }
        report.check(stats_ok, || {
            format!(
                "server confusion {:?} != offline {expected:?}",
                stats.map(|s| s.confusion)
            )
        });
        rss = rss.max(peak_rss_mb(&served.pid()).unwrap_or(0.0));
        if let Ok(mut c) = connect(served.addr) {
            text = c.metrics().unwrap_or_default();
        }
        let down = served.shutdown();
        report.check(down.is_ok(), || down.err().unwrap_or_default());
        let verified = verify_audit(&dir.join("audit.log"), audit_fp, &prepared, &scheme);
        report.check(verified.as_ref().is_ok_and(|n| *n == decisions), || {
            format!("audit log: {verified:?} (want {decisions} records)")
        });
        let _ = std::fs::remove_dir_all(&dir);
        if tracing {
            traced = Some((out, tracer));
            continue;
        }
        setups.push(setup);
        pushes.push(out.push_s);
        rtt.extend(out.rtt_ns);
        side_rtt.extend(out.side_rtt_ns);
        side_probes += out.side_probes;
        side_s += out.side_s;
    }

    let push = median(&pushes);
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("eval_s", push, "s", pushes.len());
    report.metric("ops_per_s", ops.len() as f64 / push, "1/s", pushes.len());
    latency_metrics(report, &rtt);
    report.metric("peak_rss_mb", rss, "MB", setups.len());
    let side = latency_us(&side_rtt);
    report.notes.push(format!(
        "side reader: {:.0} probes/s, frame p50 {:.1} us, p95 {:.1} us, p99 {:.1} us (n={})",
        side_probes as f64 / side_s.max(1e-9),
        side.p50,
        side.p95,
        side.p99,
        side_rtt.len()
    ));

    if let Some((out, tracer)) = traced {
        let p50 = latency_us(&rtt).p50;
        serve_layers(
            o,
            report,
            &trace,
            &tracer,
            true,
            Scraped { p50_us: p50, text },
        );
        report.metric(
            "bench.trace_overhead_frac",
            out.push_s / push - 1.0,
            "frac",
            1,
        );
    }
}

/// Polls `Stats` until the server has applied `decisions` scored
/// decisions (acks mean journaled and ordered, not yet applied).
fn wait_scored(addr: SocketAddr, decisions: u64) -> Option<csp_serve::wire::StatsReply> {
    let mut c = connect(addr).ok()?;
    let start = Instant::now();
    loop {
        let s = c.stats().ok()?;
        if s.scored >= decisions || start.elapsed() > IO_DEADLINE {
            return Some(s);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Reads the audit log and replays it against the offline twin,
/// returning the number of records checked.
fn verify_audit(
    path: &PathBuf,
    fingerprint: u32,
    prepared: &csp_core::PreparedTrace<'_>,
    scheme: &Scheme,
) -> Result<u64, String> {
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let log = csp_trace::audit::read_audit_log(std::io::BufReader::new(file), Some(fingerprint))
        .map_err(|e| e.to_string())?;
    let r = csp_serve::verify_log(&log, prepared, scheme, None, None).map_err(|e| e.to_string())?;
    Ok(r.checked)
}
