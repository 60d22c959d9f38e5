//! Observability integration tests: the `METRICS` verb and the HTTP
//! scrape endpoint expose the same families across every layer, the
//! slow-query log captures per-phase breakdowns, `STATS` reports
//! registry-backed totals, and — the load-bearing invariant — admission
//! accounting balances exactly under concurrent pipelined load.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pip_engine::Database;
use pip_replica::Replication;
use pip_server::server::{serve, ServerOptions};
use proptest::prelude::*;

/// A line-protocol test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut c = Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        };
        let banner = c.read_line();
        assert!(banner.starts_with("PIP server ready"), "{banner}");
        c
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    }

    /// One reply: a single line, or the `OK ... END` block for result
    /// sets.
    fn read_reply(&mut self) -> String {
        let first = self.read_line();
        let mut text = format!("{first}\n");
        if first.starts_with("OK") && first.contains(" rows ") {
            loop {
                let line = self.read_line();
                text.push_str(&line);
                text.push('\n');
                if line == "END" {
                    break;
                }
            }
        }
        text
    }

    fn send(&mut self, cmd: &str) -> String {
        self.writer
            .write_all(format!("{cmd}\n").as_bytes())
            .expect("write");
        self.read_reply()
    }

    /// Send a command whose reply is a free-form block terminated by a
    /// bare `END` line (`METRICS`, `SLOWLOG`).
    fn send_block(&mut self, cmd: &str) -> Vec<String> {
        self.writer
            .write_all(format!("{cmd}\n").as_bytes())
            .expect("write");
        let mut lines = Vec::new();
        loop {
            let line = self.read_line();
            if line == "END" {
                return lines;
            }
            assert!(
                !line.starts_with("ERR"),
                "unexpected error from {cmd}: {line}"
            );
            lines.push(line);
        }
    }
}

fn setup_catalog(c: &mut Client) {
    let r = c.send("QUERY CREATE TABLE t (g TEXT, x SYMBOLIC)");
    assert!(r.starts_with("OK"), "{r}");
    let r = c.send(
        "QUERY INSERT INTO t VALUES \
         ('a', create_variable('Normal', 10, 2)), \
         ('b', create_variable('Normal', 20, 3)), \
         ('a', create_variable('Uniform', 0, 5))",
    );
    assert!(r.starts_with("OK"), "{r}");
}

const GROUPED: &str = "QUERY SELECT g, expected_sum(x), conf() FROM t WHERE x > 8 GROUP BY g";

/// Family names from Prometheus exposition text: the second word of
/// every `# TYPE <name> <kind>` line.
fn families(lines: impl Iterator<Item = String>) -> BTreeSet<String> {
    lines
        .filter_map(|l| {
            l.strip_prefix("# TYPE ")
                .and_then(|rest| rest.split_whitespace().next().map(str::to_string))
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pip-server-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Exposition: METRICS verb and HTTP scrape.
// ---------------------------------------------------------------------

/// A durable, replicating server exposes the same metric families over
/// the `METRICS` verb and the `GET /metrics` scrape endpoint — and they
/// cover every layer: server, engine, sampling runtime, store, and
/// replication.
#[test]
fn metrics_verb_and_http_scrape_expose_the_same_families() {
    let dir = temp_dir("scrape");
    let (db, _) = Database::recover(&dir).expect("recover");
    let db = Arc::new(db);
    let repl = Replication::primary(Arc::clone(&db), "127.0.0.1:0").expect("replication");
    let server = serve(
        db,
        "127.0.0.1:0",
        ServerOptions {
            replication: Some(Arc::new(repl)),
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerOptions::default()
        },
    )
    .expect("bind server");

    let mut c = Client::connect(server.addr());
    setup_catalog(&mut c);
    // Run a query so the sampling runtime registers its process-global
    // families too.
    let r = c.send(GROUPED);
    assert!(r.starts_with("OK"), "{r}");

    let verb = families(c.send_block("METRICS").into_iter());
    for prefix in [
        "pip_server_",
        "pip_engine_",
        "pip_sampling_",
        "pip_store_",
        "pip_replica_",
    ] {
        assert!(
            verb.iter().any(|f| f.starts_with(prefix)),
            "METRICS exposes no {prefix}* family: {verb:?}"
        );
    }

    // The grouped `conf()` above went through `aconf`, whose path
    // counters are part of the exposition.
    for family in [
        "pip_sampling_aconf_exact_components_total",
        "pip_sampling_aconf_sampled_components_total",
        "pip_sampling_aconf_draws_total",
    ] {
        assert!(verb.contains(family), "METRICS lacks {family}: {verb:?}");
    }

    // The scrape endpoint answers the very same exposition.
    let addr = server.metrics_addr().expect("metrics addr");
    let mut http = TcpStream::connect(addr).expect("connect scrape");
    http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("GET");
    let mut raw = String::new();
    http.read_to_string(&mut raw).expect("scrape body");
    assert!(raw.starts_with("HTTP/1.0 200 OK\r\n"), "{raw}");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    assert!(
        head.contains("Content-Type: text/plain"),
        "missing content type: {head}"
    );
    let scraped = families(body.lines().map(str::to_string));
    assert_eq!(scraped, verb, "scrape and METRICS families differ");

    // Counter values are rendered: admission totals must be present and
    // the catalog's query total must have counted the query above.
    assert!(body.contains("pip_server_admitted_total"), "{body}");
    assert!(!body.contains("pip_engine_queries_total 0\n"), "{body}");

    // Unknown paths get a 404 and the connection still closes cleanly.
    let mut http = TcpStream::connect(addr).expect("connect scrape");
    http.write_all(b"GET /nope HTTP/1.0\r\n\r\n").expect("GET");
    let mut raw = String::new();
    http.read_to_string(&mut raw).expect("404 body");
    assert!(raw.starts_with("HTTP/1.0 404"), "{raw}");

    drop(c);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `metrics_addr` no scrape listener is bound, and the verb
/// still works against a memory-only catalog (no store / replication
/// families — just server, engine, and sampling).
#[test]
fn metrics_verb_works_without_scrape_listener() {
    let server = serve(
        Arc::new(Database::new()),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("bind server");
    assert!(server.metrics_addr().is_none());

    let mut c = Client::connect(server.addr());
    setup_catalog(&mut c);
    let r = c.send(GROUPED);
    assert!(r.starts_with("OK"), "{r}");

    let verb = families(c.send_block("METRICS").into_iter());
    for prefix in ["pip_server_", "pip_engine_", "pip_sampling_"] {
        assert!(
            verb.iter().any(|f| f.starts_with(prefix)),
            "METRICS exposes no {prefix}* family: {verb:?}"
        );
    }
    assert!(
        !verb.iter().any(|f| f.starts_with("pip_store_")),
        "memory-only catalog grew store families: {verb:?}"
    );
}

// ---------------------------------------------------------------------
// Slow-query log.
// ---------------------------------------------------------------------

/// Arming `SET SLOWLOG` captures spans with the full per-phase
/// breakdown; `SET SLOWLOG 0` disarms and clears the ring.
#[test]
fn slowlog_captures_per_phase_breakdowns() {
    let server = serve(
        Arc::new(Database::new()),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("bind server");
    let mut c = Client::connect(server.addr());
    setup_catalog(&mut c);

    // Armed at 0ms threshold... no: 0 disarms. Use a 1ms threshold and a
    // sample count big enough that the query always crosses it.
    assert_eq!(c.send("SET SLOWLOG 1"), "OK slowlog_ms=1\n");
    assert_eq!(c.send("SET SAMPLES 60000"), "OK samples=60000\n");
    let r = c.send(GROUPED);
    assert!(r.starts_with("OK"), "{r}");

    let lines = c.send_block("SLOWLOG");
    assert!(
        lines[0].starts_with("OK ") && lines[0].contains("entries threshold_ms=1"),
        "{:?}",
        lines[0]
    );
    assert!(lines.len() >= 2, "no spans captured: {lines:?}");
    let span = &lines[1];
    for field in [
        "session=",
        "parse=",
        "optimize=",
        "execute=",
        "sample=",
        "rows=",
        "admission_wait=",
        "park=",
        "sql=",
    ] {
        assert!(span.contains(field), "span lacks {field}: {span}");
    }
    assert!(
        span.contains("sql=SELECT g, expected_sum(x)"),
        "span sql mismatch: {span}"
    );
    // The query really did sample: the sample phase is nonzero and the
    // two groups came back.
    assert!(!span.contains("sample=0.000ms"), "{span}");
    assert!(span.contains("rows=2"), "{span}");

    // Disarm: the ring clears and nothing further is captured.
    assert_eq!(c.send("SET SLOWLOG 0"), "OK slowlog_ms=0\n");
    let r = c.send(GROUPED);
    assert!(r.starts_with("OK"), "{r}");
    let lines = c.send_block("SLOWLOG 5");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("OK 0 entries"), "{:?}", lines[0]);
}

/// The spans the armed slowlog holds, after its `OK <n> entries` line.
fn slowlog_spans(c: &mut Client) -> Vec<String> {
    let mut lines = c.send_block("SLOWLOG");
    assert!(lines[0].starts_with("OK "), "{:?}", lines[0]);
    lines.remove(0);
    lines
}

/// `STREAM` and `EXEC` run plans too, so each leaves one span with the
/// same breakdown as `QUERY`'s.
#[test]
fn slowlog_captures_stream_and_exec_spans() {
    let server = serve(
        Arc::new(Database::new()),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("bind server");
    let mut c = Client::connect(server.addr());
    setup_catalog(&mut c);
    let sql = GROUPED.strip_prefix("QUERY ").expect("QUERY verb");
    assert_eq!(c.send("SET SLOWLOG 1"), "OK slowlog_ms=1\n");
    assert_eq!(c.send("SET SAMPLES 60000"), "OK samples=60000\n");

    c.writer
        .write_all(format!("STREAM {sql}\n").as_bytes())
        .expect("write");
    assert_eq!(c.read_line(), "STREAM BEGIN");
    let last = loop {
        let line = c.read_line();
        if line.starts_with("END") || line.starts_with("ERR") {
            break line;
        }
    };
    assert_eq!(last, "END 2 rows (fresh)");
    let spans = slowlog_spans(&mut c);
    assert_eq!(spans.len(), 1, "{spans:?}");
    assert!(spans[0].contains(&format!("sql={sql}")), "{}", spans[0]);
    assert!(spans[0].contains("rows=2"), "{}", spans[0]);
    assert!(!spans[0].contains("sample=0.000ms"), "{}", spans[0]);

    // Re-arming clears the ring; PREPARE runs nothing, EXEC one span.
    assert_eq!(c.send("SET SLOWLOG 0"), "OK slowlog_ms=0\n");
    assert_eq!(c.send("SET SLOWLOG 1"), "OK slowlog_ms=1\n");
    let r = c.send(&format!("PREPARE grouped AS {sql}"));
    assert!(r.starts_with("OK"), "{r}");
    let r = c.send("EXEC grouped");
    assert!(r.starts_with("OK 2 rows"), "{r}");
    let spans = slowlog_spans(&mut c);
    assert_eq!(spans.len(), 1, "{spans:?}");
    assert!(spans[0].contains(&format!("sql={sql}")), "{}", spans[0]);
    assert!(spans[0].contains("rows=2"), "{}", spans[0]);
}

// ---------------------------------------------------------------------
// STATS rides on the registry.
// ---------------------------------------------------------------------

/// `STATS` renders its totals from the same registry the scrape reads:
/// `queries_total=` counts engine executions and `uptime_secs=` is
/// present and sane.
#[test]
fn stats_reports_registry_backed_totals() {
    let server = serve(
        Arc::new(Database::new()),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("bind server");
    let mut c = Client::connect(server.addr());
    setup_catalog(&mut c);

    let field = |stats: &str, key: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .unwrap_or_else(|| panic!("STATS lacks {key}: {stats}"))
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparsable {key} in: {stats}")) as u64
    };

    let before = c.send("STATS");
    assert!(before.starts_with("OK session="), "{before}");
    let queries_before = field(&before, "queries_total=");
    let _ = field(&before, "uptime_secs="); // present and numeric

    let r = c.send(GROUPED);
    assert!(r.starts_with("OK"), "{r}");

    let after = c.send("STATS");
    let queries_after = field(&after, "queries_total=");
    assert!(
        queries_after > queries_before,
        "queries_total did not advance: {queries_before} -> {queries_after}"
    );

    // STREAM runs a plan too: it counts once, and once in each phase
    // histogram.
    let phase_counts = |c: &mut Client| -> Vec<u64> {
        let lines = c.send_block("METRICS");
        [
            "pip_engine_query_phase_seconds_count",
            "pip_engine_sample_phase_seconds_count",
        ]
        .iter()
        .map(|name| {
            lines
                .iter()
                .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
                .unwrap_or_else(|| panic!("METRICS lacks {name}")) as u64
        })
        .collect()
    };
    let phases_before = phase_counts(&mut c);
    let sql = GROUPED.strip_prefix("QUERY ").expect("QUERY verb");
    c.writer
        .write_all(format!("STREAM {sql}\n").as_bytes())
        .expect("write");
    assert_eq!(c.read_line(), "STREAM BEGIN");
    let last = loop {
        let line = c.read_line();
        if line.starts_with("END") || line.starts_with("ERR") {
            break line;
        }
    };
    assert_eq!(last, "END 2 rows (fresh)");
    let streamed = field(&c.send("STATS"), "queries_total=");
    assert_eq!(
        streamed,
        queries_after + 1,
        "STREAM is not counted in queries_total"
    );
    let phases_after = phase_counts(&mut c);
    for (before, after) in phases_before.iter().zip(&phases_after) {
        assert_eq!(
            after,
            &(before + 1),
            "STREAM is not in the phase histograms"
        );
    }
}

// ---------------------------------------------------------------------
// The admission-accounting invariant.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every admitted command is exactly one of completed, cancelled,
    /// inflight, or queued — `admitted == completed + cancelled +
    /// inflight + queued` — and every expensive command is exactly one
    /// of admitted or rejected. Verified while concurrent pipelined
    /// clients hammer a tiny admission queue at 1, 2, and 4 scheduler
    /// workers, and exactly at quiescence.
    #[test]
    fn admission_accounting_balances_under_pipelined_load(
        plan in prop::collection::vec(0usize..4, 12..30),
        nclients in 2usize..4,
    ) {
        for workers in [1usize, 2, 4] {
            let server = serve(
                Arc::new(Database::new()),
                "127.0.0.1:0",
                ServerOptions {
                    workers,
                    // A tiny admission bound so rejects genuinely happen.
                    queue_capacity: 2,
                    ..ServerOptions::default()
                },
            )
            .expect("bind server");
            let addr = server.addr();
            let mut setup = Client::connect(addr);
            setup_catalog(&mut setup);
            // The catalog setup itself went through admission; measure
            // the load phase as a delta from here.
            let base = server.serving();

            let stop = AtomicUsize::new(0);
            let violations = AtomicUsize::new(0);
            let busy_total = AtomicUsize::new(0);
            let expensive_total = AtomicUsize::new(0);

            std::thread::scope(|scope| {
                // Mid-flight monitor: counters race, but a completion
                // observed *before* reading `admitted` can never exceed
                // it — completions only happen to admitted commands.
                scope.spawn(|| {
                    while stop.load(Ordering::Acquire) == 0 {
                        let done = {
                            let s = server.serving();
                            s.completed + s.cancelled
                        };
                        let admitted_after = server.serving().admitted;
                        if done > admitted_after {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        std::thread::yield_now();
                    }
                });

                let mut handles = Vec::new();
                for i in 0..nclients {
                    let plan = &plan;
                    let busy_total = &busy_total;
                    let expensive_total = &expensive_total;
                    handles.push(scope.spawn(move || {
                        // Per-client seed: no two clients run the same
                        // sampling work.
                        let mut script = vec![format!("SET SEED {i}")];
                        for &v in plan {
                            script.push(match v {
                                0 => "PING".to_string(),
                                _ => GROUPED.to_string(),
                            });
                        }
                        let expensive =
                            script.iter().filter(|s| s.starts_with("QUERY")).count();
                        expensive_total.fetch_add(expensive, Ordering::Relaxed);

                        // The whole script in one write: a pipelined burst.
                        let mut c = Client::connect(addr);
                        c.writer
                            .write_all(script.join("\n").as_bytes())
                            .and_then(|_| c.writer.write_all(b"\n"))
                            .expect("write script");
                        let mut busy = 0usize;
                        for _ in &script {
                            if c.read_reply().starts_with("ERR busy") {
                                busy += 1;
                            }
                        }
                        busy_total.fetch_add(busy, Ordering::Relaxed);
                    }));
                }
                for h in handles {
                    h.join().expect("client thread");
                }
                stop.store(1, Ordering::Release);
            });

            // Quiesce: every reply has been read, so nothing should stay
            // queued or inflight for long.
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                let s = server.serving();
                if s.queued == 0 && s.inflight == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }

            let s = server.serving();
            prop_assert!(
                s.queued == 0 && s.inflight == 0,
                "workers={workers} did not quiesce: {s:?}"
            );
            // The invariant at quiescence: inflight and queued are zero,
            // so admitted must equal completed + cancelled exactly.
            prop_assert!(
                s.admitted == s.completed + s.cancelled,
                "workers={workers} accounting imbalance: {s:?}"
            );
            // Every expensive command was admitted or rejected...
            prop_assert!(
                (s.admitted - base.admitted) + (s.rejected - base.rejected)
                    == expensive_total.load(Ordering::Relaxed) as u64,
                "workers={workers} lost commands: {s:?} (base {base:?})"
            );
            // ...and every rejection was answered `ERR busy`.
            prop_assert!(
                s.rejected - base.rejected == busy_total.load(Ordering::Relaxed) as u64,
                "workers={workers} reject/busy mismatch: {s:?} (base {base:?})"
            );
            prop_assert!(
                violations.load(Ordering::Relaxed) == 0,
                "workers={workers}: mid-flight accounting violations"
            );
        }
    }
}
