//! Replication failover integration tests: real `pip-serverd` processes
//! — one primary and followers over loopback TCP — killed hard (SIGKILL)
//! and promoted.
//!
//! The headline property mirrors the recovery suite's: every reply a
//! caught-up follower serves is **byte-identical** to the primary's
//! (rendered rows, variable identities, sampled f64s), and after killing
//! the primary and PROMOTE-ing a follower, no acknowledged-and-
//! replicated mutation is lost.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A line-protocol test client (mirrors `tests/recovery.rs`).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
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

    fn ok(&mut self, cmd: &str) -> Vec<String> {
        let reply = self.send(cmd);
        assert!(reply[0].starts_with("OK"), "{cmd} -> {reply:?}");
        reply
    }

    /// Pull one `key=value` integer out of the STATS line.
    fn stat(&mut self, key: &str) -> u64 {
        let line = &self.ok("STATS")[0];
        stat_field(line, key).unwrap_or_else(|| panic!("no {key}= in {line}"))
    }
}

fn stat_field(line: &str, key: &str) -> Option<u64> {
    let tail = line.split(&format!(" {key}=")).nth(1)?;
    tail.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

struct Daemon {
    child: Child,
    addr: String,
    /// The replication listener's address (primaries only).
    repl_addr: Option<String>,
}

impl Daemon {
    fn spawn(data_dir: &std::path::Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pip-serverd"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pip-serverd");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout);
        // A replicating primary announces REPLICATING before LISTENING.
        let mut repl_addr = None;
        let addr = loop {
            let mut line = String::new();
            lines.read_line(&mut line).expect("read banner line");
            if let Some(a) = line.strip_prefix("REPLICATING ") {
                repl_addr = Some(a.trim().to_string());
            } else if let Some(a) = line.strip_prefix("LISTENING ") {
                break a.trim().to_string();
            } else {
                panic!("unexpected banner {line:?}");
            }
        };
        Daemon {
            child,
            addr,
            repl_addr,
        }
    }

    /// SIGKILL — no shutdown handling runs, exactly like a crash.
    fn kill(mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("wait");
    }
}

/// A panicking test must not leak its daemons.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pip-server-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Block until `follower`'s applied version reaches `version`.
fn wait_applied(follower: &mut Client, version: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if follower.stat("applied_version") >= version {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower never reached version {version}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The mixed workload: symbolic joins (fig6-style) plus deterministic
/// rows, written through the primary.
fn load_workload(c: &mut Client) {
    c.ok("QUERY CREATE TABLE orders (cust TEXT, ship_to TEXT, price SYMBOLIC)");
    c.ok("QUERY CREATE TABLE shipping (dest TEXT, duration SYMBOLIC)");
    c.ok("QUERY INSERT INTO shipping VALUES \
         ('NY', create_variable('Normal', 5, 2)), \
         ('LA', create_variable('Normal', 9, 2)), \
         ('SF', create_variable('Exponential', 0.2))");
    for i in 0..8 {
        let dest = ["NY", "LA", "SF"][i % 3];
        let mu = 50 + 10 * i;
        c.ok(&format!(
            "QUERY INSERT INTO orders VALUES \
             ('c{i}', '{dest}', create_variable('Normal', {mu}, 7))"
        ));
    }
}

/// The read side of the workload — sampling heads and plain scans —
/// returning every reply block for byte comparison.
fn run_queries(c: &mut Client) -> Vec<Vec<String>> {
    [
        "QUERY SELECT expected_sum(price) FROM orders, shipping \
         WHERE ship_to = dest AND duration >= 7",
        "QUERY SELECT ship_to, expected_avg(price) FROM orders GROUP BY ship_to",
        "QUERY SELECT conf() FROM orders, shipping WHERE ship_to = dest AND duration >= 7",
        "QUERY SELECT cust, price FROM orders WHERE ship_to = 'NY'",
    ]
    .iter()
    .map(|q| c.ok(q))
    .collect()
}

#[test]
fn two_followers_then_kill_primary_and_promote() {
    let (pd, f1d, f2d) = (tmp_dir("ha-p"), tmp_dir("ha-f1"), tmp_dir("ha-f2"));
    let primary = Daemon::spawn(&pd, &["--replication-addr", "127.0.0.1:0"]);
    let feed = primary.repl_addr.clone().expect("REPLICATING banner");
    let follower1 = Daemon::spawn(&f1d, &["--replicate-from", &feed]);
    let follower2 = Daemon::spawn(&f2d, &["--replicate-from", &feed]);

    let mut pc = Client::connect(&primary.addr);
    let mut f1 = Client::connect(&follower1.addr);
    let mut f2 = Client::connect(&follower2.addr);

    // Mixed workload lands on the primary while both followers tail it.
    load_workload(&mut pc);
    let version = pc.stat("version");
    assert!(pc.ok("STATS")[0].contains("role=primary"));
    // Follower registration (TCP connect + HELLO) races the workload —
    // wait for both to appear rather than asserting a point-in-time count.
    let deadline = Instant::now() + Duration::from_secs(30);
    while pc.stat("followers") < 2 {
        assert!(Instant::now() < deadline, "followers never registered");
        std::thread::sleep(Duration::from_millis(20));
    }
    wait_applied(&mut f1, version);
    wait_applied(&mut f2, version);

    // Every reply byte-identical across all three nodes, and the
    // followers advertise their role and staleness.
    let expect = run_queries(&mut pc);
    assert_eq!(expect, run_queries(&mut f1), "follower 1 diverges");
    assert_eq!(expect, run_queries(&mut f2), "follower 2 diverges");
    let stats = f1.ok("STATS");
    assert!(stats[0].contains("role=replica"), "{stats:?}");
    assert!(stats[0].contains("connected=true"), "{stats:?}");

    // Followers refuse writes and promotion is follower-only.
    let denied = f1.send("QUERY INSERT INTO orders VALUES ('x', 'NY', 1.0)");
    assert!(denied[0].starts_with("ERR"), "{denied:?}");
    assert!(denied[0].contains("read-only"), "{denied:?}");
    let denied = pc.send("PROMOTE");
    assert!(denied[0].starts_with("ERR"), "{denied:?}");

    // Kill the primary hard; follower 1 takes over.
    drop(pc);
    primary.kill();
    let promoted = f1.ok("PROMOTE");
    assert!(promoted[0].contains("role=primary"), "{promoted:?}");
    assert_eq!(
        stat_field(&promoted[0], "version"),
        Some(version),
        "promotion lost acknowledged mutations"
    );
    assert!(f1.ok("STATS")[0].contains("role=primary"));

    // The promoted node serves the exact pre-failover state, then
    // accepts writes.
    assert_eq!(expect, run_queries(&mut f1), "promoted node diverges");
    f1.ok("QUERY INSERT INTO orders VALUES ('post', 'LA', create_variable('Normal', 10, 1))");
    let grown = f1.ok("QUERY SELECT cust FROM orders");
    assert!(grown[0].starts_with("OK 9 rows"), "{grown:?}");

    // The un-promoted follower still serves (stale) reads.
    assert_eq!(expect, run_queries(&mut f2), "surviving follower diverges");
    drop(f1);
    drop(f2);
    follower1.kill();
    follower2.kill();
    for d in [&pd, &f1d, &f2d] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// Reserve a loopback port for a daemon that binds it later (the
/// promotable follower's `--replication-addr` must be known to its
/// peers before promotion happens).
fn free_port() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    format!("127.0.0.1:{}", l.local_addr().expect("addr").port())
}

/// Poll STATS until `line` satisfies `pred`.
fn wait_stats(c: &mut Client, what: &str, pred: impl Fn(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let line = c.ok("STATS")[0].clone();
        if pred(&line) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {line}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sync_waits_quorum_and_wait_version_over_the_wire() {
    let (pd, fd) = (tmp_dir("sync-p"), tmp_dir("sync-f"));
    let primary = Daemon::spawn(&pd, &["--replication-addr", "127.0.0.1:0"]);
    let feed = primary.repl_addr.clone().expect("REPLICATING banner");
    let follower = Daemon::spawn(&fd, &["--replicate-from", &feed]);

    let mut pc = Client::connect(&primary.addr);
    let mut fc = Client::connect(&follower.addr);
    load_workload(&mut pc);
    wait_stats(&mut pc, "follower registration", |l| {
        stat_field(l, "followers") == Some(1)
    });

    // Synchronous mode on: the write's reply is withheld until the
    // follower ACKs the resulting version, so by the time OK arrives
    // the follower is guaranteed to hold the write.
    assert_eq!(pc.ok("SET REPLICATION WAIT 1")[0], "OK replication_wait=1");
    pc.ok("QUERY INSERT INTO orders VALUES ('sync', 'NY', 1.5)");
    let version = pc.stat("version");
    assert!(
        fc.stat("applied_version") >= version,
        "an acked WAIT-1 write must already be on the follower"
    );
    let stats = pc.ok("STATS")[0].clone();
    assert!(stats.contains(" wait=1"), "{stats}");
    assert!(stats.contains(" epoch=0"), "{stats}");
    assert!(
        stat_field(&stats, "acked_min") == Some(version),
        "acked_min should have caught the confirming ack: {stats}"
    );

    // Quorum mode: one follower means majority needs exactly one ack.
    assert_eq!(
        pc.ok("SET REPLICATION WAIT MAJORITY")[0],
        "OK replication_wait=majority"
    );
    pc.ok("QUERY INSERT INTO orders VALUES ('quorum', 'LA', 2.5)");
    assert!(pc.ok("STATS")[0].contains(" wait=majority"));

    // An unsatisfiable quorum degrades to ERR repl_timeout — and the
    // write itself still lands (locally and on the follower): only the
    // synchronous confirmation is lost, never the data.
    assert_eq!(
        pc.ok("SET REPLICATION TIMEOUT 250")[0],
        "OK replication_timeout_ms=250"
    );
    assert_eq!(pc.ok("SET REPLICATION WAIT 2")[0], "OK replication_wait=2");
    let v_before = pc.stat("version");
    // Pipeline a PING behind the doomed write: the reply order must be
    // preserved across the park (ERR first, PONG second), proving the
    // parked command neither blocks a worker nor loses its place.
    pc.writer
        .write_all(b"QUERY INSERT INTO orders VALUES ('late', 'SF', 3.5)\nPING\n")
        .expect("write");
    let err = pc.read_line();
    assert!(err.starts_with("ERR repl_timeout"), "{err}");
    assert!(err.contains("2 follower ack(s)"), "{err}");
    assert_eq!(pc.read_line(), "PONG");
    assert_eq!(pc.stat("version"), v_before + 1, "the write itself landed");
    wait_applied(&mut fc, v_before + 1);

    // Back to async: replies return immediately again.
    assert_eq!(pc.ok("SET REPLICATION WAIT 0")[0], "OK replication_wait=0");
    pc.ok("QUERY INSERT INTO orders VALUES ('async', 'NY', 4.5)");
    let version = pc.stat("version");

    // WAIT VERSION on the follower: read-your-writes routing. Already
    // applied -> immediate OK; a version still in flight parks until
    // the feed delivers it; an impossible version times out.
    wait_applied(&mut fc, version);
    let ok = fc.ok(&format!("WAIT VERSION {version}"));
    assert_eq!(stat_field(&ok[0], "version"), Some(version));
    fc.writer
        .write_all(format!("WAIT VERSION {}\n", version + 1).as_bytes())
        .expect("write");
    pc.ok("QUERY INSERT INTO orders VALUES ('rw', 'LA', 5.5)");
    let released = fc.read_line();
    assert!(released.starts_with("OK version="), "{released}");
    assert!(
        stat_field(&released, "version").expect("version field") > version,
        "{released}"
    );
    let timed_out = fc.send(&format!("WAIT VERSION {} 200", version + 999));
    assert!(
        timed_out[0].starts_with("ERR repl_timeout"),
        "{timed_out:?}"
    );

    drop(pc);
    drop(fc);
    follower.kill();
    primary.kill();
    for d in [&pd, &fd] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn promote_fences_deposed_primary_and_repoints_follower_across_processes() {
    let (ad, bd, cd) = (tmp_dir("fence-a"), tmp_dir("fence-b"), tmp_dir("fence-c"));
    let a = Daemon::spawn(&ad, &["--replication-addr", "127.0.0.1:0"]);
    let feed_a = a.repl_addr.clone().expect("REPLICATING banner");
    // B is promotable: it follows A, and on PROMOTE starts serving the
    // feed on a pre-agreed port that C already has in its candidate
    // list.
    let feed_b = free_port();
    let b = Daemon::spawn(
        &bd,
        &["--replicate-from", &feed_a, "--replication-addr", &feed_b],
    );
    let candidates = format!("{feed_a},{feed_b}");
    let c = Daemon::spawn(&cd, &["--replicate-from", &candidates]);

    let mut ac = Client::connect(&a.addr);
    let mut bc = Client::connect(&b.addr);
    let mut cc = Client::connect(&c.addr);
    load_workload(&mut ac);
    let version = ac.stat("version");
    wait_applied(&mut bc, version);
    wait_applied(&mut cc, version);

    // Failover without killing A — the live deposed-primary case.
    let promoted = bc.ok("PROMOTE");
    assert!(promoted[0].contains("role=primary"), "{promoted:?}");
    assert!(promoted[0].contains("epoch=1"), "{promoted:?}");

    // B's deposition notice fences A: read-only, writes answer
    // ERR fenced, STATS says so.
    wait_stats(&mut ac, "old primary fenced", |l| l.contains("fenced=true"));
    let denied = ac.send("QUERY INSERT INTO orders VALUES ('split', 'NY', 9.9)");
    assert!(denied[0].starts_with("ERR fenced"), "{denied:?}");
    let reads = ac.ok("QUERY SELECT cust FROM orders");
    assert!(
        reads[0].starts_with("OK"),
        "fenced != dead: reads still serve"
    );

    // C rotates off the fenced A and re-points to B on its own; B's
    // writes then flow to C under the new epoch.
    bc.ok("QUERY INSERT INTO orders VALUES ('after', 'LA', create_variable('Normal', 3, 1))");
    let grown = bc.stat("version");
    wait_applied(&mut cc, grown);
    wait_stats(&mut cc, "epoch adoption", |l| l.contains(" epoch=1"));
    assert_eq!(
        run_queries(&mut bc),
        run_queries(&mut cc),
        "re-pointed follower diverges from the promoted primary"
    );

    drop(ac);
    drop(bc);
    drop(cc);
    a.kill();
    b.kill();
    c.kill();
    for d in [&ad, &bd, &cd] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn primary_sigkill_flips_follower_connected_false() {
    let (pd, fd) = (tmp_dir("hb-p"), tmp_dir("hb-f"));
    let primary = Daemon::spawn(&pd, &["--replication-addr", "127.0.0.1:0"]);
    let feed = primary.repl_addr.clone().expect("REPLICATING banner");
    let follower = Daemon::spawn(&fd, &["--replicate-from", &feed]);

    let mut pc = Client::connect(&primary.addr);
    let mut fc = Client::connect(&follower.addr);
    load_workload(&mut pc);
    wait_applied(&mut fc, pc.stat("version"));
    wait_stats(&mut fc, "initial connection", |l| {
        l.contains("connected=true")
    });

    // SIGKILL the primary: within the heartbeat-loss horizon the
    // follower reports the loss and keeps serving reads.
    drop(pc);
    primary.kill();
    wait_stats(&mut fc, "heartbeat loss", |l| l.contains("connected=false"));
    let reads = fc.ok("QUERY SELECT cust FROM orders");
    assert!(reads[0].starts_with("OK"), "{reads:?}");

    drop(fc);
    follower.kill();
    for d in [&pd, &fd] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn follower_sigkilled_mid_catch_up_rejoins_cleanly() {
    let (pd, fd) = (tmp_dir("rejoin-p"), tmp_dir("rejoin-f"));
    let primary = Daemon::spawn(&pd, &["--replication-addr", "127.0.0.1:0"]);
    let feed = primary.repl_addr.clone().expect("REPLICATING banner");

    let mut pc = Client::connect(&primary.addr);
    load_workload(&mut pc);
    for i in 0..60 {
        pc.ok(&format!(
            "QUERY INSERT INTO orders VALUES ('k{i}', 'NY', {i}.5)"
        ));
    }

    // Attach a follower and SIGKILL it almost immediately — with ~70
    // frames to ship it dies at an arbitrary point of catch-up. Each
    // applied frame was durable before the next, so whatever prefix it
    // reached is what its data dir holds.
    let follower = Daemon::spawn(&fd, &["--replicate-from", &feed]);
    std::thread::sleep(Duration::from_millis(20));
    follower.kill();

    // More writes land while the follower is down.
    for i in 60..70 {
        pc.ok(&format!(
            "QUERY INSERT INTO orders VALUES ('k{i}', 'NY', {i}.5)"
        ));
    }
    let version = pc.stat("version");

    // Rejoin from the surviving prefix; it must converge byte-for-byte.
    let follower = Daemon::spawn(&fd, &["--replicate-from", &feed]);
    let mut fc = Client::connect(&follower.addr);
    wait_applied(&mut fc, version);
    let expect = run_queries(&mut pc);
    assert_eq!(expect, run_queries(&mut fc), "rejoined follower diverges");
    let count = fc.ok("QUERY SELECT cust FROM orders");
    assert!(count[0].starts_with("OK 78 rows"), "{count:?}");

    drop(pc);
    drop(fc);
    follower.kill();
    primary.kill();
    std::fs::remove_dir_all(&pd).unwrap();
    std::fs::remove_dir_all(&fd).unwrap();
}
