//! End-to-end service tests: real TCP connections against a served
//! shared catalog — concurrent sessions, prepared statements, result
//! caching, thread-count determinism over the wire.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pip_engine::Database;
use pip_sampling::SamplerConfig;
use pip_server::server::{serve, ServerOptions};

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

    /// Send one command, collect the full reply (single line, or the
    /// `OK ... END` block for result sets).
    fn send(&mut self, cmd: &str) -> Vec<String> {
        self.writer
            .write_all(format!("{cmd}\n").as_bytes())
            .expect("write");
        let first = self.read_line();
        let mut lines = vec![first.clone()];
        if first.starts_with("OK") && first.contains(" rows ") {
            loop {
                let line = self.read_line();
                let done = line == "END";
                lines.push(line);
                if done {
                    break;
                }
            }
        }
        lines
    }

    /// Scalar result of a 1×1 result set.
    fn scalar(&mut self, cmd: &str) -> f64 {
        let lines = self.send(cmd);
        assert!(lines[0].starts_with("OK 1 rows"), "{lines:?}");
        lines[2]
            .parse()
            .unwrap_or_else(|_| panic!("not a scalar: {lines:?}"))
    }
}

fn start_server() -> pip_server::ServerHandle {
    serve(
        Arc::new(Database::new()),
        "127.0.0.1:0",
        ServerOptions {
            default_config: SamplerConfig::default(),
            ..ServerOptions::default()
        },
    )
    .expect("bind server")
}

#[test]
fn query_lifecycle_over_tcp() {
    let server = start_server();
    let mut c = Client::connect(server.addr());

    assert_eq!(c.send("PING"), vec!["PONG"]);
    let r = c.send("QUERY CREATE TABLE orders (cust TEXT, price SYMBOLIC)");
    assert!(r[0].starts_with("OK"), "{r:?}");
    let r = c.send(
        "QUERY INSERT INTO orders VALUES \
         ('Joe', create_variable('Normal', 100, 10)), \
         ('Bob', create_variable('Normal', 50, 5))",
    );
    assert!(r[0].starts_with("OK"), "{r:?}");

    let v = c.scalar("QUERY SELECT expected_sum(price) FROM orders");
    assert!((v - 150.0).abs() < 1e-6, "{v}");

    // Unknown tables are an ERR line, and the connection survives.
    let r = c.send("QUERY SELECT * FROM ghost");
    assert!(r[0].starts_with("ERR"), "{r:?}");
    assert_eq!(c.send("PING"), vec!["PONG"]);

    let r = c.send("QUIT");
    assert_eq!(r, vec!["BYE"]);
}

#[test]
fn prepared_statements_over_tcp() {
    let server = start_server();
    let mut c = Client::connect(server.addr());
    c.send("QUERY CREATE TABLE t (x SYMBOLIC)");
    c.send("QUERY INSERT INTO t VALUES (create_variable('Normal', 7, 2))");

    let r = c.send("PREPARE total AS SELECT expected_sum(x) FROM t");
    assert_eq!(r, vec!["OK prepared total"]);
    let first = c.send("EXEC total");
    assert!(first[0].contains("(fresh)"), "{first:?}");
    let second = c.send("EXEC total");
    assert_eq!(first, second, "a re-run at the same seed diverged");

    // The plan reads the catalog as it is at EXEC time.
    c.send("QUERY INSERT INTO t VALUES (create_variable('Normal', 1, 1))");
    let third = c.send("EXEC total");
    assert_ne!(third[2], first[2], "{third:?}");

    let stats = c.send("STATS");
    assert!(stats[0].contains(" prepared=1 "), "{stats:?}");

    let r = c.send("DEALLOCATE total");
    assert!(r[0].starts_with("OK"), "{r:?}");
    let r = c.send("EXEC total");
    assert!(r[0].starts_with("ERR"), "{r:?}");
}

#[test]
fn stream_and_explain_analyze_over_tcp() {
    let server = start_server();
    let mut c = Client::connect(server.addr());
    c.send("QUERY CREATE TABLE s (name TEXT, score FLOAT)");
    c.send("QUERY INSERT INTO s VALUES ('a', 3), ('b', 1), ('c', 2)");

    // STREAM: rows arrive between STREAM BEGIN and END <n> rows.
    c.writer
        .write_all(b"STREAM SELECT * FROM s ORDER BY score\n")
        .expect("write");
    assert_eq!(c.read_line(), "STREAM BEGIN");
    assert_eq!(c.read_line(), "name\tscore");
    assert_eq!(c.read_line(), "'b'\t1");
    assert_eq!(c.read_line(), "'c'\t2");
    assert_eq!(c.read_line(), "'a'\t3");
    assert_eq!(c.read_line(), "END 3 rows (fresh)");

    // Errors terminate the frame with ERR and keep the session alive.
    c.writer
        .write_all(b"STREAM SELECT * FROM ghost\n")
        .expect("write");
    assert!(c.read_line().starts_with("ERR"));
    assert_eq!(c.send("PING"), vec!["PONG"]);

    // EXPLAIN ANALYZE over the wire: per-operator rows and timings.
    let r = c.send("QUERY EXPLAIN ANALYZE SELECT expected_sum(score) FROM s WHERE score > 1");
    let text = r.join("\n");
    assert!(text.contains("physical plan (analyzed)"), "{text}");
    assert!(text.contains("rows="), "{text}");
    assert!(text.contains("Scan: s"), "{text}");
}

#[test]
fn sessions_share_catalog_and_isolate_settings() {
    let server = start_server();
    let mut a = Client::connect(server.addr());
    let mut b = Client::connect(server.addr());

    a.send("QUERY CREATE TABLE shared (v FLOAT)");
    a.send("QUERY INSERT INTO shared VALUES (2.5), (3.5)");
    // Session B sees A's DDL/DML through the shared catalog.
    let v = b.scalar("QUERY SELECT expected_sum(v) FROM shared");
    assert_eq!(v, 6.0);

    // SET is per-session: B's seed change must not leak into A.
    b.send("SET SEED 1234");
    let sa = a.send("STATS");
    let sb = b.send("STATS");
    assert!(sa[0].contains("seed=1364283729"), "{sa:?}"); // default 0x51515151
    assert!(sb[0].contains("seed=1234"), "{sb:?}");
    assert!(server.sessions_created() >= 2);
}

#[test]
fn thread_count_is_invisible_in_results() {
    let server = start_server();
    let mut c = Client::connect(server.addr());
    c.send("QUERY CREATE TABLE r (region TEXT, amount SYMBOLIC)");
    c.send(
        "QUERY INSERT INTO r VALUES \
         ('e', create_variable('Normal', 10, 3)), \
         ('e', create_variable('Normal', 20, 3)), \
         ('w', create_variable('Normal', 5, 1))",
    );
    let q = "QUERY SELECT region, expected_sum(amount), conf() FROM r \
             WHERE amount > 8 GROUP BY region";
    let serial = c.send(q);

    // Same query at 2/4/8 threads: every run is recomputed by the
    // parallel runtime and must match the serial one bit-for-bit.
    for threads in [2, 4, 8] {
        c.send(&format!("SET THREADS {threads}"));
        let par = c.send(q);
        assert_eq!(par, serial, "threads={threads} diverged");
    }

    // A second session at 4 threads answers the same.
    let mut other = Client::connect(server.addr());
    other.send("SET THREADS 4");
    assert_eq!(other.send(q), serial, "parallel recompute diverged");
}

#[test]
fn oversized_request_is_rejected_not_buffered() {
    let server = start_server();
    let mut c = Client::connect(server.addr());
    // 2 MiB of garbage on one line (cap is 1 MiB): the server must
    // answer with an ERR instead of buffering it, and the connection
    // must stay usable for the pipelined next request.
    let mut big = String::with_capacity(2 << 20);
    big.push_str("QUERY ");
    while big.len() < (2 << 20) {
        big.push_str("xxxxxxxxxxxxxxxx");
    }
    big.push('\n');
    big.push_str("PING\n");
    c.writer.write_all(big.as_bytes()).expect("send oversized");
    let first = c.read_line();
    assert!(
        first.starts_with("ERR request exceeds"),
        "expected oversize rejection, got: {first}"
    );
    assert_eq!(c.read_line(), "PONG", "pipelined request after oversize");
}

#[test]
fn shutdown_closes_established_connections() {
    let server = start_server();
    let mut c = Client::connect(server.addr());
    assert_eq!(c.send("PING"), vec!["PONG"]);
    // Shutdown must terminate this idle connection (blocked in read),
    // not just the accept loop: the client then observes EOF.
    server.shutdown();
    let mut line = String::new();
    let n = c.reader.read_line(&mut line).expect("read after shutdown");
    assert_eq!(n, 0, "expected EOF after shutdown, got: {line:?}");
}

#[test]
fn concurrent_clients_hammer_one_catalog() {
    let server = start_server();
    let mut setup = Client::connect(server.addr());
    setup.send("QUERY CREATE TABLE t (x SYMBOLIC)");
    setup.send("QUERY INSERT INTO t VALUES (create_variable('Normal', 42, 4))");

    let addr = server.addr();
    let answers: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                s.spawn(move || {
                    let mut c = Client::connect(addr);
                    c.send(&format!("SET THREADS {}", 1 + (i % 3)));
                    c.scalar("QUERY SELECT expected_sum(x) FROM t")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for v in &answers {
        assert_eq!(*v, answers[0], "concurrent sessions disagreed: {answers:?}");
        assert!((v - 42.0).abs() < 1e-9);
    }
    server.shutdown();
}
