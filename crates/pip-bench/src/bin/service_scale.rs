//! Open-loop many-client service benchmark for the reactor front-end.
//!
//! Unlike a closed loop (each client waits for its reply before
//! sending the next query), senders here issue queries on a fixed pacing interval regardless of reply
//! progress — the open-loop model that exposes queueing delay instead
//! of hiding it in client think time. Per connection, a sender thread
//! paces `SET SEED n` + aggregate-`QUERY` pairs (monotonically
//! increasing seeds → distinct cache keys → real sampling work, no
//! result-cache or cross-session dedup hits) while the main thread
//! records per-request latency from send to the `END`/`ERR` terminator.
//!
//! The connection ladder is 1/8/64/256 (quick mode: 1/8/32). Each step
//! offers `0.9 × base` queries/second *per connection*, where `base` is
//! a calibrated single-client closed-loop rate — so high connection
//! counts deliberately overload a small host and the numbers show what
//! admission control does about it: throughput holds near capacity,
//! rejects come back as instant clean `ERR busy`, and the p99 of
//! admitted queries stays bounded by `queue capacity × service time`
//! rather than growing without limit.
//!
//! Output: TSV on stdout (one row per step), JSON rows on stderr with
//! `PIP_BENCH_JSON=1`, and the full summary written to the path in
//! `PIP_BENCH_SERVICE_OUT` — `BENCH_service.json` at the repo root is a
//! recorded run (`cores`/`speedup_comparable` document the hardware
//! caveat).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;

use pip_engine::Database;
use pip_sampling::SamplerConfig;
use pip_server::server::{serve, ServerOptions};

/// Fixed per-query sample budget: keeps service time stable so latency
/// percentiles measure queueing, not adaptive-sampling variance.
const SAMPLES_PER_QUERY: usize = 2_000;

const QUERY: &str = "QUERY SELECT g, expected_sum(x), conf() FROM t WHERE x > 12 GROUP BY g";

#[derive(Serialize)]
struct StepRow {
    connections: usize,
    offered_qps: f64,
    sent: usize,
    completed: usize,
    rejected_busy: usize,
    secs: f64,
    throughput_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct Summary {
    /// Detected host core count. Open-loop throughput at high connection
    /// counts only scales past the closed-loop baseline with real
    /// parallelism — `speedup_comparable: false` marks a recorded run on
    /// serial hardware where the ladder can only demonstrate bounded
    /// latency and clean admission under overload.
    cores: usize,
    speedup_comparable: bool,
    base_qps: f64,
    samples_per_query: usize,
    admitted_total: u64,
    rejected_total: u64,
    batched_total: u64,
    steps: Vec<StepRow>,
}

struct StepOutcome {
    sent: usize,
    completed: usize,
    rejected_busy: usize,
    latencies: Vec<Duration>,
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

/// Read one reply off the wire; `OK ... rows` blocks run to `END`.
/// Returns the first line.
fn read_reply(reader: &mut BufReader<TcpStream>, line: &mut String) -> String {
    line.clear();
    reader.read_line(line).expect("reply");
    let first = line.trim_end().to_string();
    if first.starts_with("OK") && first.contains(" rows ") {
        loop {
            line.clear();
            reader.read_line(line).expect("reply body");
            if line.trim_end() == "END" {
                break;
            }
        }
    }
    first
}

/// One open-loop connection: paced sender, latency-recording receiver.
fn run_connection(
    addr: std::net::SocketAddr,
    interval: Duration,
    deadline: Instant,
    seeds: &Arc<AtomicU64>,
) -> StepOutcome {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");

    let sent_at = Arc::new(Mutex::new(VecDeque::<Instant>::new()));
    let stamps = Arc::clone(&sent_at);
    let seeds = Arc::clone(seeds);
    let mut writer = stream.try_clone().expect("clone");
    let mut sender = Some(std::thread::spawn(move || {
        writer
            .write_all(format!("SET SAMPLES {SAMPLES_PER_QUERY}\n").as_bytes())
            .expect("send");
        let mut sent = 0usize;
        while Instant::now() < deadline {
            let seed = seeds.fetch_add(1, Ordering::Relaxed);
            let request = format!("SET SEED {seed}\n{QUERY}\n");
            stamps.lock().expect("stamps").push_back(Instant::now());
            if writer.write_all(request.as_bytes()).is_err() {
                stamps.lock().expect("stamps").pop_back();
                break;
            }
            sent += 1;
            std::thread::sleep(interval);
        }
        sent
    }));

    // First reply: the SET SAMPLES ack.
    let ack = read_reply(&mut reader, &mut line);
    assert!(ack.starts_with("OK samples="), "{ack}");

    let mut outcome = StepOutcome {
        sent: 0,
        completed: 0,
        rejected_busy: 0,
        latencies: Vec::new(),
    };
    let mut drained = 0usize;
    let mut target: Option<usize> = None;
    loop {
        // Only block on the socket when a stamp proves the pair was
        // actually written (stamps are pushed before the write). Racing
        // ahead of the sender here would block forever on a pair the
        // sender's deadline cut off.
        if sent_at.lock().expect("stamps").is_empty() {
            if let Some(n) = target {
                debug_assert_eq!(drained, n);
                outcome.sent = n;
                break;
            }
            if sender.as_ref().is_some_and(|h| h.is_finished()) {
                target = Some(sender.take().expect("handle").join().expect("sender"));
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
            continue;
        }
        // SET SEED ack, then the query's terminating line.
        let seed_ack = read_reply(&mut reader, &mut line);
        assert!(seed_ack.starts_with("OK seed="), "{seed_ack}");
        let reply = read_reply(&mut reader, &mut line);
        let started = sent_at.lock().expect("stamps").pop_front().expect("stamp");
        drained += 1;
        if reply.starts_with("ERR busy") {
            outcome.rejected_busy += 1;
        } else {
            assert!(reply.starts_with("OK"), "{reply}");
            outcome.completed += 1;
            outcome.latencies.push(started.elapsed());
        }
    }
    outcome
}

/// Closed-loop single-client calibration: queries/second with no think
/// time and no pipelining.
fn calibrate(addr: std::net::SocketAddr, queries: usize, seeds: &AtomicU64) -> f64 {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    writer
        .write_all(format!("SET SAMPLES {SAMPLES_PER_QUERY}\n").as_bytes())
        .expect("send");
    read_reply(&mut reader, &mut line);
    // Warm-up, then the timed run.
    for timed in [false, true] {
        let t0 = Instant::now();
        for _ in 0..queries {
            let seed = seeds.fetch_add(1, Ordering::Relaxed);
            writer
                .write_all(format!("SET SEED {seed}\n{QUERY}\n").as_bytes())
                .expect("send");
            read_reply(&mut reader, &mut line);
            let reply = read_reply(&mut reader, &mut line);
            assert!(reply.starts_with("OK"), "{reply}");
        }
        if timed {
            return queries as f64 / t0.elapsed().as_secs_f64();
        }
    }
    unreachable!()
}

fn main() {
    let quick = pip_bench::quick();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let db = Arc::new(Database::new());
    {
        let cfg = SamplerConfig::default();
        pip_engine::sql::run(&db, "CREATE TABLE t (g TEXT, x SYMBOLIC)", &cfg).unwrap();
        for i in 0..32 {
            pip_engine::sql::run(
                &db,
                &format!(
                    "INSERT INTO t VALUES ('g{}', create_variable('Normal', {}, 3))",
                    i % 4,
                    10 + i
                ),
                &cfg,
            )
            .unwrap();
        }
    }
    let server =
        serve(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default()).expect("bench server");
    let addr = server.addr();
    let seeds = Arc::new(AtomicU64::new(1));

    let base_qps = calibrate(addr, if quick { 3 } else { 10 }, &seeds);
    let step_secs = if quick { 2.0 } else { 8.0 };
    let ladder: &[usize] = if quick { &[1, 8, 32] } else { &[1, 8, 64, 256] };
    // Offered load per connection: 90% of the calibrated closed-loop
    // rate, so one connection is near-saturated and the ladder scales
    // the total offered load linearly with the connection count.
    let per_conn_qps = 0.9 * base_qps;
    let interval = Duration::from_secs_f64(1.0 / per_conn_qps);

    println!("# Open-loop service scaling: paced senders, per-request latency");
    println!(
        "# base {base_qps:.1} q/s closed-loop; {per_conn_qps:.1} q/s offered per connection; \
         {SAMPLES_PER_QUERY} samples/query; host has {cores} core(s)"
    );
    pip_bench::header(&[
        "connections",
        "offered_qps",
        "sent",
        "completed",
        "busy",
        "secs",
        "throughput_qps",
        "p50_ms",
        "p99_ms",
    ]);

    let mut steps = Vec::new();
    for &conns in ladder {
        let deadline = Instant::now() + Duration::from_secs_f64(step_secs);
        let t0 = Instant::now();
        let outcomes: Vec<StepOutcome> = std::thread::scope(|s| {
            let seeds = &seeds;
            let handles: Vec<_> = (0..conns)
                .map(|i| {
                    s.spawn(move || {
                        // Stagger starts across one interval so arrivals
                        // spread instead of pulsing.
                        std::thread::sleep(interval.mul_f64(i as f64 / conns as f64));
                        run_connection(addr, interval, deadline, seeds)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection"))
                .collect()
        });
        let secs = t0.elapsed().as_secs_f64();

        let mut latencies: Vec<Duration> =
            outcomes.iter().flat_map(|o| o.latencies.clone()).collect();
        latencies.sort_unstable();
        let completed: usize = outcomes.iter().map(|o| o.completed).sum();
        let row = StepRow {
            connections: conns,
            offered_qps: per_conn_qps * conns as f64,
            sent: outcomes.iter().map(|o| o.sent).sum(),
            completed,
            rejected_busy: outcomes.iter().map(|o| o.rejected_busy).sum(),
            secs,
            throughput_qps: completed as f64 / secs,
            p50_ms: percentile_ms(&latencies, 0.50),
            p99_ms: percentile_ms(&latencies, 0.99),
        };
        pip_bench::row(
            &[
                format!("{conns}"),
                format!("{:.1}", row.offered_qps),
                format!("{}", row.sent),
                format!("{completed}"),
                format!("{}", row.rejected_busy),
                format!("{secs:.2}"),
                format!("{:.1}", row.throughput_qps),
                format!("{:.1}", row.p50_ms),
                format!("{:.1}", row.p99_ms),
            ],
            &row,
        );
        steps.push(row);
    }

    let serving = server.serving();
    server.shutdown();
    if cores == 1 {
        println!(
            "# note: single-core host — throughput cannot scale past the closed-loop \
             baseline; the ladder demonstrates bounded latency and clean rejects instead."
        );
    }
    let summary = Summary {
        cores,
        speedup_comparable: cores > 1,
        base_qps,
        samples_per_query: SAMPLES_PER_QUERY,
        admitted_total: serving.admitted,
        rejected_total: serving.rejected,
        batched_total: serving.batched,
        steps,
    };
    let json = serde_json::to_string(&summary).expect("summary json");
    if std::env::var("PIP_BENCH_JSON").as_deref() == Ok("1") {
        eprintln!("{json}");
    }
    if let Ok(path) = std::env::var("PIP_BENCH_SERVICE_OUT") {
        std::fs::write(&path, format!("{json}\n")).expect("write service bench json");
        println!("# wrote {path}");
    }
}
