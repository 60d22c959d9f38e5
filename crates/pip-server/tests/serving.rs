//! Serving-core tests for the nonblocking reactor + scheduler:
//! pipelined/partial-line request decoding, admission control and
//! recovery, identical concurrent statements, slow readers,
//! drain-on-shutdown, and the load-bearing property that concurrent
//! interleaved sessions produce byte-identical replies to the same
//! statements run serially.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pip_engine::Database;
use pip_sampling::SamplerConfig;
use pip_server::server::{serve, ServerOptions};
use pip_server::SessionManager;

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

    /// Read one full reply: a single line, or the `OK ... END` block
    /// for result sets. Returned with original line framing so serial
    /// and concurrent transcripts compare byte-for-byte.
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
}

fn start_server(options: ServerOptions) -> pip_server::ServerHandle {
    serve(Arc::new(Database::new()), "127.0.0.1:0", options).expect("bind server")
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

// ---------------------------------------------------------------------
// Pipelined / partial-line decoding.
// ---------------------------------------------------------------------

#[test]
fn requests_split_across_arbitrary_read_boundaries() {
    let server = start_server(ServerOptions::default());
    let mut setup = Client::connect(server.addr());
    setup_catalog(&mut setup);
    let reference = setup.send(GROUPED);
    assert!(reference.starts_with("OK"), "{reference}");

    let packet = format!("PING\n{GROUPED}\nSET SEED 77\nPING\n");
    for chunk in [1usize, 2, 3, 7, 16] {
        let mut c = Client::connect(server.addr());
        // Dribble the pipeline in `chunk`-byte writes: the decoder must
        // reassemble requests across any read boundary.
        for piece in packet.as_bytes().chunks(chunk) {
            c.writer.write_all(piece).expect("write chunk");
            c.writer.flush().expect("flush");
            if chunk < 3 {
                std::thread::yield_now();
            }
        }
        assert_eq!(c.read_reply(), "PONG\n", "chunk={chunk}");
        assert_eq!(c.read_reply(), reference, "chunk={chunk}");
        assert_eq!(c.read_reply(), "OK seed=77\n", "chunk={chunk}");
        assert_eq!(c.read_reply(), "PONG\n", "chunk={chunk}");
    }
}

#[test]
fn many_requests_in_one_packet_reply_in_order() {
    let server = start_server(ServerOptions::default());
    let mut c = Client::connect(server.addr());
    // 40 SET/STATS pairs in ONE write: every STATS must observe exactly
    // the seed set immediately before it — strict FIFO execution.
    let mut packet = String::new();
    for i in 0..40 {
        packet.push_str(&format!("SET SEED {i}\nSTATS\n"));
    }
    c.writer.write_all(packet.as_bytes()).expect("write");
    for i in 0..40 {
        assert_eq!(c.read_reply(), format!("OK seed={i}\n"));
        let stats = c.read_reply();
        assert!(stats.contains(&format!(" seed={i} ")), "i={i}: {stats}");
    }
}

#[test]
fn pipeline_cap_applies_backpressure_without_losing_requests() {
    let server = start_server(ServerOptions {
        max_pipeline: 4,
        ..ServerOptions::default()
    });
    let mut c = Client::connect(server.addr());
    // Far more pipelined requests than the per-connection cap: reads
    // pause and resume under the hood; every request still answers, in
    // order.
    let n = 500;
    let writer = c.writer.try_clone().expect("clone");
    let sender = std::thread::spawn(move || {
        let mut w = writer;
        for i in 0..n {
            w.write_all(format!("SET SEED {i}\n").as_bytes())
                .expect("write");
        }
    });
    for i in 0..n {
        assert_eq!(c.read_reply(), format!("OK seed={i}\n"));
    }
    sender.join().expect("sender");
}

// ---------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------

#[test]
fn admission_control_rejects_past_capacity_and_recovers() {
    let server = start_server(ServerOptions {
        queue_capacity: 1,
        workers: 1,
        ..ServerOptions::default()
    });
    let mut c = Client::connect(server.addr());
    setup_catalog(&mut c);

    // One packet: a slow query plus two more behind it. All three parse
    // before the first finishes, so with capacity 1 the trailing two
    // must bounce off admission — as clean ERR replies in FIFO order,
    // with the cheap PING behind them unaffected.
    let packet = format!("SET SAMPLES 200000\n{GROUPED}\n{GROUPED}\n{GROUPED}\nPING\n");
    c.writer.write_all(packet.as_bytes()).expect("write");
    assert_eq!(c.read_reply(), "OK samples=200000\n");
    let first = c.read_reply();
    assert!(
        first.starts_with("OK") && first.ends_with("END\n"),
        "{first}"
    );
    for _ in 0..2 {
        let busy = c.read_reply();
        assert!(busy.starts_with("ERR busy"), "{busy}");
    }
    assert_eq!(c.read_reply(), "PONG\n");

    // Capacity freed: the same query is admitted again (cached now —
    // the session result cache kept the first execution).
    let again = c.send(GROUPED);
    assert!(again.starts_with("OK"), "{again}");

    let stats = c.send("STATS");
    assert!(stats.contains(" rejected=2"), "{stats}");
    assert!(stats.contains(" capacity=1"), "{stats}");
    let s = server.serving();
    assert!(s.admitted >= 2, "{s:?}");
    assert_eq!(s.rejected, 2, "{s:?}");
    assert_eq!((s.queued, s.inflight), (0, 0), "drained: {s:?}");
}

#[test]
fn admission_flood_stays_bounded_and_recovers() {
    let server = start_server(ServerOptions {
        queue_capacity: 2,
        workers: 2,
        ..ServerOptions::default()
    });
    let mut setup = Client::connect(server.addr());
    setup_catalog(&mut setup);
    // The setup statements above were admitted queries too: measure the
    // flood as a delta.
    let before = server.serving();

    let addr = server.addr();
    let replies: Vec<String> = std::thread::scope(|s| {
        let barrier = Arc::new(Barrier::new(6));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut c = Client::connect(addr);
                    let r = c.send("SET SAMPLES 100000");
                    assert!(r.starts_with("OK"), "{r}");
                    barrier.wait();
                    c.send(GROUPED)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn"))
            .collect()
    });
    // Every request answers promptly and cleanly — admitted or busy,
    // never hung, never garbled.
    let ok = replies.iter().filter(|r| r.starts_with("OK")).count();
    let busy = replies.iter().filter(|r| r.starts_with("ERR busy")).count();
    assert_eq!(ok + busy, 6, "{replies:?}");
    assert!(ok >= 1, "{replies:?}");
    let s = server.serving();
    assert_eq!(
        (s.admitted - before.admitted) + (s.rejected - before.rejected),
        6,
        "{s:?}"
    );
    assert_eq!((s.queued, s.inflight), (0, 0), "drained: {s:?}");
    // Recovery: with the flood done, a new query is admitted.
    let mut c = Client::connect(addr);
    let r = c.send(GROUPED);
    assert!(r.starts_with("OK"), "{r}");
}

// ---------------------------------------------------------------------
// Identical concurrent statements.
// ---------------------------------------------------------------------

#[test]
fn identical_concurrent_queries_reply_identically() {
    let server = start_server(ServerOptions {
        workers: 4,
        ..ServerOptions::default()
    });
    let mut setup = Client::connect(server.addr());
    setup_catalog(&mut setup);
    let addr = server.addr();

    // Two sessions submit the same (statement, seed, samples) at once:
    // each runs it fresh, and the two replies match byte for byte.
    let pair: Vec<String> = std::thread::scope(|s| {
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut c = Client::connect(addr);
                    c.send("SET SEED 1000");
                    c.send("SET SAMPLES 150000");
                    barrier.wait();
                    c.send(GROUPED)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn"))
            .collect()
    });
    assert!(pair[0].starts_with("OK 2 rows (fresh)\n"), "{pair:?}");
    assert_eq!(pair[0], pair[1], "concurrent runs changed the bytes");
}

// ---------------------------------------------------------------------
// Slow readers.
// ---------------------------------------------------------------------

#[test]
fn slow_reader_stalls_only_itself() {
    let server = start_server(ServerOptions {
        workers: 2,
        // Small staging buffer so the big stream actually saturates it
        // (worker blocks on the reader) instead of buffering whole.
        max_outbound_bytes: 16 * 1024,
        ..ServerOptions::default()
    });
    let mut setup = Client::connect(server.addr());
    let r = setup.send("QUERY CREATE TABLE big (s TEXT)");
    assert!(r.starts_with("OK"), "{r}");
    let cell = "x".repeat(300);
    for _ in 0..10 {
        let rows: Vec<String> = (0..30).map(|_| format!("('{cell}')")).collect();
        let r = setup.send(&format!("QUERY INSERT INTO big VALUES {}", rows.join(", ")));
        assert!(r.starts_with("OK"), "{r}");
    }

    // The slow reader asks for ~100 KB and then... reads nothing.
    let mut slow = Client::connect(server.addr());
    slow.writer
        .write_all(b"STREAM SELECT * FROM big\n")
        .expect("write");
    std::thread::sleep(Duration::from_millis(100)); // let it saturate

    // Other sessions must stay snappy throughout.
    let mut other = Client::connect(server.addr());
    let start = Instant::now();
    for _ in 0..20 {
        assert_eq!(other.send("PING"), "PONG\n");
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "slow reader stalled a healthy session: {:?}",
        start.elapsed()
    );

    // The slow reader eventually drains its complete, uncorrupted frame.
    assert_eq!(slow.read_line(), "STREAM BEGIN");
    assert_eq!(slow.read_line(), "s");
    for _ in 0..300 {
        assert_eq!(slow.read_line(), format!("'{cell}'"));
    }
    assert_eq!(slow.read_line(), "END 300 rows (fresh)");
    assert_eq!(slow.send("PING"), "PONG\n");
    // This reader was slow, not stuck: it must not count as an eviction.
    assert_eq!(server.serving().evictions, 0);
}

#[test]
fn stuck_reader_is_evicted_and_counted() {
    let server = start_server(ServerOptions {
        workers: 2,
        max_outbound_bytes: 16 * 1024,
        // A test-sized stall budget (the production default is 30s).
        write_stall_timeout: Duration::from_millis(200),
        ..ServerOptions::default()
    });
    let mut setup = Client::connect(server.addr());
    let r = setup.send("QUERY CREATE TABLE big (s TEXT)");
    assert!(r.starts_with("OK"), "{r}");
    // ~6 MB of reply: enough to overwhelm the 16 KB staging buffer AND
    // whatever the kernel's socket buffers will absorb on loopback, so
    // the producing worker really does block on the reader.
    let cell = "x".repeat(10_000);
    for _ in 0..20 {
        let rows: Vec<String> = (0..30).map(|_| format!("('{cell}')")).collect();
        let r = setup.send(&format!("QUERY INSERT INTO big VALUES {}", rows.join(", ")));
        assert!(r.starts_with("OK"), "{r}");
    }
    assert_eq!(server.serving().evictions, 0);

    // Ask for ~6 MB into a 16 KB staging buffer and never read a byte:
    // the producing worker blocks, the stall deadline passes, and the
    // connection is evicted (visible as the counter firing and the
    // socket dying) instead of pinning the worker forever.
    let stuck = Client::connect(server.addr());
    (&stuck.writer)
        .write_all(b"STREAM SELECT * FROM big\n")
        .expect("write");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.serving().evictions == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.serving().evictions, 1, "stuck reader not evicted");

    // The fleet recovered: other sessions keep being served.
    let mut other = Client::connect(server.addr());
    assert_eq!(other.send("PING"), "PONG\n");
}

#[test]
fn oversized_request_lines_are_killed_and_counted() {
    let server = start_server(ServerOptions::default());
    let mut c = Client::connect(server.addr());
    assert_eq!(server.serving().oversize, 0);

    // One request line over the 1 MiB cap: discarded as it streams in,
    // answered with a single ERR, counted once — and the connection
    // stays usable for the next request.
    let mut line = vec![b'P'; pip_server::server::MAX_REQUEST_BYTES + 1024];
    line.push(b'\n');
    c.writer.write_all(&line).expect("write oversized");
    let reply = c.read_reply();
    assert!(reply.starts_with("ERR request exceeds"), "{reply}");
    assert_eq!(server.serving().oversize, 1);
    assert_eq!(c.send("PING"), "PONG\n");

    // A second oversized line on a fresh connection counts again.
    let mut c2 = Client::connect(server.addr());
    c2.writer.write_all(&line).expect("write oversized");
    let reply = c2.read_reply();
    assert!(reply.starts_with("ERR request exceeds"), "{reply}");
    assert_eq!(server.serving().oversize, 2);
}

// ---------------------------------------------------------------------
// Shutdown / drain.
// ---------------------------------------------------------------------

/// Regression: a graceful close (QUIT or client EOF) must always reap
/// the connection. The worker used to notify the reactor *before*
/// clearing the `running` flag on its final slice; if the reactor
/// processed that notification inside the window it saw "closing but
/// still running", skipped the reap, and — with no further wakeups
/// coming — leaked the connection (socket stuck in CLOSE-WAIT) forever.
#[test]
fn graceful_closes_always_reap_the_connection() {
    let server = start_server(ServerOptions::default());
    for round in 0..150 {
        if round % 2 == 0 {
            // QUIT path.
            let mut c = Client::connect(server.addr());
            assert_eq!(c.send("QUIT"), "BYE\n");
            let mut rest = String::new();
            c.reader.read_line(&mut rest).expect("eof");
            assert!(rest.is_empty(), "socket must close after BYE: {rest:?}");
        } else {
            // Client-EOF path, with a request racing the close so the
            // final slice and the reactor's event land close together.
            let mut c = Client::connect(server.addr());
            c.writer.write_all(b"PING\n").expect("write");
            c.writer
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            assert_eq!(c.read_reply(), "PONG\n");
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.active_connections(),
        0,
        "every gracefully-closed connection must be reaped"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_inflight_replies_before_closing() {
    let server = start_server(ServerOptions::default());
    let mut c = Client::connect(server.addr());
    setup_catalog(&mut c);
    c.writer
        .write_all(format!("SET SAMPLES 200000\n{GROUPED}\n").as_bytes())
        .expect("write");

    let reader = std::thread::spawn(move || {
        let ack = c.read_reply();
        assert_eq!(ack, "OK samples=200000\n");
        let reply = c.read_reply();
        // After the drained reply, the server closes: clean EOF.
        let mut line = String::new();
        let n = c.reader.read_line(&mut line).expect("read after drain");
        (reply, n)
    });
    // Let the query get parsed (and likely start executing), then pull
    // the plug mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    let (reply, eof) = reader.join().expect("reader");
    assert!(
        reply.starts_with("OK") && reply.ends_with("END\n"),
        "truncated reply across shutdown: {reply:?}"
    );
    assert_eq!(eof, 0, "expected EOF after drained shutdown");
}

// ---------------------------------------------------------------------
// Concurrent sessions vs. serial replay: byte identity.
// ---------------------------------------------------------------------

/// Build client `k`'s command script from the proptest choice vector.
/// Read-only after setup (the catalog version must stay fixed so
/// fresh/cached labels replay identically), across 1/2/4 sampling
/// threads.
fn client_script(k: usize, choices: &[usize]) -> Vec<String> {
    let mut script = vec![format!("SET THREADS {}", [1, 2, 4][k % 3])];
    let per_client = choices.len() / 3;
    for j in 0..per_client {
        let c = choices[(k * per_client + j) % choices.len()];
        script.push(match c % 6 {
            0 => format!("SET SEED {}", 100 + c % 5),
            1 => format!("SET SAMPLES {}", 500 + (c % 3) * 250),
            2 => GROUPED.to_string(),
            3 => "QUERY SELECT expected_sum(x) FROM t".to_string(),
            4 => "PREPARE p AS SELECT expected_sum(x) FROM t WHERE x > 5".to_string(),
            // ERR (not prepared) until a PREPARE lands — identically in
            // both runs.
            _ => "EXEC p".to_string(),
        });
    }
    script
}

const SETUP: [&str; 2] = [
    "QUERY CREATE TABLE t (g TEXT, x SYMBOLIC)",
    "QUERY INSERT INTO t VALUES \
     ('a', create_variable('Normal', 10, 2)), \
     ('b', create_variable('Normal', 20, 3)), \
     ('a', create_variable('Uniform', 0, 5))",
];

mod concurrent_equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Interleaved QUERY/EXEC streams from many concurrent clients
        /// produce byte-identical replies to the same per-client
        /// statement scripts run serially in embedded sessions — at
        /// mixed 1/2/4 sampling threads, through admission and
        /// scheduling.
        #[test]
        fn concurrent_sessions_match_serial_replies(
            choices in prop::collection::vec(0usize..10_000, 9..18),
            nclients in 2usize..5,
        ) {
            // Serial reference: same catalog content, embedded sessions,
            // one client script after another.
            let serial_db = Arc::new(Database::new());
            let mgr = SessionManager::new(Arc::clone(&serial_db), SamplerConfig::default());
            {
                let mut s = mgr.open();
                for stmt in SETUP {
                    let line = stmt.strip_prefix("QUERY ").unwrap();
                    s.query(line).expect("setup");
                }
            }
            let mut serial: Vec<Vec<String>> = Vec::new();
            for k in 0..nclients {
                let mut session = mgr.open();
                serial.push(
                    client_script(k, &choices)
                        .iter()
                        .map(|cmd| pip_server::handle_line(&mut session, cmd).text)
                        .collect(),
                );
            }

            // Concurrent run over TCP against the reactor.
            let server = start_server(ServerOptions::default());
            let mut setup = Client::connect(server.addr());
            for stmt in SETUP {
                let r = setup.send(stmt);
                prop_assert!(r.starts_with("OK"), "{}", r);
            }
            let addr = server.addr();
            let concurrent: Vec<Vec<String>> = std::thread::scope(|s| {
                let barrier = Arc::new(Barrier::new(nclients));
                let choices = &choices;
                let handles: Vec<_> = (0..nclients)
                    .map(|k| {
                        let barrier = Arc::clone(&barrier);
                        s.spawn(move || {
                            let mut c = Client::connect(addr);
                            barrier.wait();
                            client_script(k, choices)
                                .iter()
                                .map(|cmd| c.send(cmd))
                                .collect::<Vec<String>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client")).collect()
            });
            server.shutdown();

            prop_assert_eq!(&serial, &concurrent);
        }
    }
}
