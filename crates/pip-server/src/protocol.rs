//! The line-oriented wire protocol.
//!
//! Requests are single lines; keywords are case-insensitive:
//!
//! ```text
//! QUERY <sql>              run one SQL statement
//! STREAM <sql>             run one SQL statement, rows on the wire as produced
//! PREPARE <name> AS <sql>  parse + plan a SELECT once
//! EXEC <name>              run a prepared statement
//! DEALLOCATE <name>        forget a prepared statement
//! ANALYZE [<table>]        refresh optimizer statistics (SQL passthrough)
//! SET <key> <value>        THREADS | SEED | SAMPLES | EPSILON | DELTA
//!                          | DURABILITY (catalog-wide: OFF | WAL | SYNC)
//!                          | REPLICATION WAIT 0|<n>|MAJORITY (sync acks)
//!                          | REPLICATION TIMEOUT <ms>
//! CHECKPOINT               snapshot the catalog, start a fresh WAL
//! PROMOTE                  failover: mint a new epoch, go writable, serve the feed
//! WAIT VERSION <v> [<ms>]  block until this node has applied version v
//! STATS                    session counters and sampler settings
//! METRICS                  every metric family, Prometheus text format
//! SLOWLOG [n]              most recent slow-query spans, newest first
//! PING                     liveness probe
//! QUIT                     close the connection
//! ```
//!
//! `SET SLOWLOG <ms>` arms the server-wide slow-query log (0 disarms and
//! clears it); `SLOWLOG [n]` reads back up to `n` captured spans with the
//! full per-phase breakdown. `METRICS` dumps the same Prometheus text the
//! optional `--metrics-addr` HTTP listener serves at `GET /metrics`.
//!
//! `SET DURABILITY` and `CHECKPOINT` require the server to have been
//! opened over a data directory (`pip-serverd --data-dir`); unlike the
//! sampler knobs, durability is a property of the shared catalog, not
//! of the issuing session.
//!
//! On a replicated node, `STATS` also reports `version=` (the catalog
//! version this node serves — on the primary the write counter, on a
//! follower the applied version; clients wanting read-your-writes pick
//! a replica whose version has reached their write's — or just issue
//! `WAIT VERSION`), `role=` (`primary`/`replica`), `epoch=` (the
//! replication generation, bumped by every `PROMOTE`), `wait=` (the
//! session's `SET REPLICATION WAIT` setting), `replication_lag=`, and on
//! the primary `acked_min=` (the lowest version every attached follower
//! has acknowledged) plus `fenced=true` once a newer epoch deposed it.
//! `PROMOTE` is the failover verb: on a follower it seals the
//! replication feed, mints a new epoch, and opens the write gate; on a
//! primary (or a standalone node) it is an error.
//!
//! With `SET REPLICATION WAIT n` (or `MAJORITY`) active, a mutation's
//! `OK` is withheld until n followers acknowledged the resulting catalog
//! version; past `SET REPLICATION TIMEOUT` the reply degrades to
//! `ERR repl_timeout ...` — the write itself is durable and replicating
//! either way, only the synchronous confirmation timed out.
//!
//! `ANALYZE` is the SQL statement on the wire: `ANALYZE [<table>]`
//! routes through the QUERY handler unchanged, so `QUERY ANALYZE t` and
//! `ANALYZE t` are equivalent (as are the `EXPLAIN` variants, including
//! `EXPLAIN (FORMAT JSON)` for machine-readable plans).
//!
//! `QUERY` result sets are `OK <n> rows (<fresh|cached>)`, a tab
//! separated header line, one line per row (rows still carrying a
//! non-trivial c-table condition render it after an `IF`), then `END`.
//! `STREAM` cannot know the row count up front — its frame is
//! `STREAM BEGIN`, the header, rows written as the physical operator
//! tree produces them, then `END <n> rows (<fresh|cached>)`; an error
//! mid-stream terminates the frame with an `ERR` line instead of `END`.
//! All other successes answer with a single `OK ...` line; failures
//! answer `ERR <message>` and keep the connection open.

use std::io::{self, Write};
use std::sync::Arc;

use pip_ctable::{CRow, CTable};

use crate::session::{ReplWait, Session, StreamQuery};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Query(String),
    Stream(String),
    Prepare {
        name: String,
        sql: String,
    },
    Exec(String),
    Deallocate(String),
    Set {
        key: String,
        value: String,
    },
    Checkpoint,
    Promote,
    /// `WAIT VERSION <v> [<timeout_ms>]` — read-your-writes routing:
    /// block until this node's applied catalog version reaches `v`.
    WaitVersion {
        version: u64,
        timeout_ms: Option<u64>,
    },
    Stats,
    /// `METRICS` — dump every registered metric family in Prometheus
    /// text exposition format, terminated by `END`.
    Metrics,
    /// `SLOWLOG [n]` — read back up to `n` (default 16) captured
    /// slow-query spans, newest first.
    SlowLog(Option<usize>),
    Ping,
    Quit,
}

/// Parse one request line.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    let (word, rest) = match line.split_once(char::is_whitespace) {
        Some((w, r)) => (w, r.trim()),
        None => (line, ""),
    };
    match word.to_ascii_uppercase().as_str() {
        "QUERY" if !rest.is_empty() => Ok(Command::Query(rest.to_string())),
        "QUERY" => Err("QUERY requires a SQL statement".into()),
        "STREAM" if !rest.is_empty() => Ok(Command::Stream(rest.to_string())),
        "STREAM" => Err("STREAM requires a SQL statement".into()),
        "PREPARE" => {
            // PREPARE <name> AS <sql>
            let (name, tail) = rest
                .split_once(char::is_whitespace)
                .ok_or("usage: PREPARE <name> AS <sql>")?;
            let tail = tail.trim();
            let sql = tail
                .strip_prefix("AS ")
                .or_else(|| tail.strip_prefix("as "))
                .or_else(|| tail.strip_prefix("As "))
                .or_else(|| tail.strip_prefix("aS "))
                .ok_or("usage: PREPARE <name> AS <sql>")?;
            Ok(Command::Prepare {
                name: name.to_string(),
                sql: sql.trim().to_string(),
            })
        }
        "EXEC" | "EXECUTE" if !rest.is_empty() => Ok(Command::Exec(rest.to_string())),
        "EXEC" | "EXECUTE" => Err("usage: EXEC <name>".into()),
        "DEALLOCATE" if !rest.is_empty() => Ok(Command::Deallocate(rest.to_string())),
        "DEALLOCATE" => Err("usage: DEALLOCATE <name>".into()),
        // ANALYZE is SQL: forward the whole line to the statement path.
        "ANALYZE" => Ok(Command::Query(line.to_string())),
        "SET" => {
            let (key, value) = rest
                .split_once(char::is_whitespace)
                .ok_or("usage: SET <key> <value>")?;
            Ok(Command::Set {
                key: key.to_ascii_uppercase(),
                value: value.trim().to_string(),
            })
        }
        "CHECKPOINT" => Ok(Command::Checkpoint),
        "PROMOTE" => Ok(Command::Promote),
        "WAIT" => {
            // WAIT VERSION <v> [<timeout_ms>]
            let mut words = rest.split_whitespace();
            if !words
                .next()
                .is_some_and(|w| w.eq_ignore_ascii_case("VERSION"))
            {
                return Err("usage: WAIT VERSION <version> [<timeout_ms>]".into());
            }
            let version = words
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("WAIT VERSION expects an integer version")?;
            let timeout_ms = match words.next() {
                None => None,
                Some(t) => Some(
                    t.parse()
                        .map_err(|_| "WAIT VERSION timeout expects milliseconds")?,
                ),
            };
            if words.next().is_some() {
                return Err("usage: WAIT VERSION <version> [<timeout_ms>]".into());
            }
            Ok(Command::WaitVersion {
                version,
                timeout_ms,
            })
        }
        "STATS" => Ok(Command::Stats),
        "METRICS" => Ok(Command::Metrics),
        "SLOWLOG" if rest.is_empty() => Ok(Command::SlowLog(None)),
        "SLOWLOG" => rest
            .parse()
            .map(|n| Command::SlowLog(Some(n)))
            .map_err(|_| "usage: SLOWLOG [<n>]".into()),
        "PING" => Ok(Command::Ping),
        "QUIT" | "EXIT" => Ok(Command::Quit),
        "" => Err("empty request".into()),
        other => Err(format!(
            "unknown command '{other}' (try QUERY/STREAM/PREPARE/EXEC/SET/CHECKPOINT/PROMOTE/WAIT/STATS/METRICS/SLOWLOG/PING/QUIT)"
        )),
    }
}

/// One protocol reply: response text (one or more `\n`-terminated
/// lines) plus whether the connection should close.
pub struct Reply {
    pub text: String,
    pub close: bool,
}

impl Reply {
    fn line(text: impl Into<String>) -> Reply {
        Reply {
            text: format!("{}\n", text.into()),
            close: false,
        }
    }

    pub(crate) fn err(msg: impl std::fmt::Display) -> Reply {
        let one_line = msg.to_string().replace('\n', "; ");
        Reply::line(format!("ERR {one_line}"))
    }
}

/// Render the tab-separated header line for a schema.
fn render_header(schema: &pip_core::Schema) -> String {
    let header: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
    header.join("\t")
}

/// Render one result row (with its condition after `IF` when present).
fn render_row(row: &CRow) -> String {
    let cells: Vec<String> = row.cells.iter().map(|c| format!("{c}")).collect();
    let mut line = cells.join("\t");
    if !row.condition.is_trivially_true() {
        line.push_str(&format!("\tIF {}", row.condition));
    }
    line
}

/// Render a result table as the multi-line `OK ... END` block.
fn render_table(table: &CTable, cached: bool) -> String {
    let mut out = String::new();
    let freshness = if cached { "cached" } else { "fresh" };
    out.push_str(&format!("OK {} rows ({freshness})\n", table.len()));
    out.push_str(&render_header(table.schema()));
    out.push('\n');
    for row in table.rows() {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out.push_str("END\n");
    out
}

/// Execute `STREAM <sql>`: rows are written to `out` as the physical
/// operator tree produces them (one `write` per row — on a TCP sink
/// each row leaves the process before the next is computed). A fresh
/// SELECT's collected result still lands in the session's sample-result
/// cache, so later `QUERY`/`STREAM` calls with the same text hit it.
pub fn handle_stream(session: &mut Session, sql: &str, out: &mut dyn Write) -> io::Result<()> {
    let replay = |out: &mut dyn Write, table: &CTable, cached: bool| -> io::Result<()> {
        writeln!(out, "STREAM BEGIN")?;
        writeln!(out, "{}", render_header(table.schema()))?;
        for row in table.rows() {
            writeln!(out, "{}", render_row(row))?;
        }
        let freshness = if cached { "cached" } else { "fresh" };
        writeln!(out, "END {} rows ({freshness})", table.len())
    };
    let (plan, cfg, key) = match session.open_stream(sql) {
        Err(e) => return writeln!(out, "ERR {}", e.to_string().replace('\n', "; ")),
        Ok(StreamQuery::Cached(table)) => return replay(out, &table, true),
        Ok(StreamQuery::Table(table)) => return replay(out, &table, false),
        Ok(StreamQuery::Live { plan, cfg, key }) => (plan, cfg, key),
    };
    let db = Arc::clone(session.database());
    let mut phys = match pip_engine::lower(&db, &plan, &cfg) {
        Ok(p) => p,
        Err(e) => return writeln!(out, "ERR {}", e.to_string().replace('\n', "; ")),
    };
    writeln!(out, "STREAM BEGIN")?;
    writeln!(out, "{}", render_header(phys.schema()))?;
    let mut table = CTable::empty(phys.schema().clone());
    loop {
        match phys.next_row() {
            Ok(Some(row)) => {
                writeln!(out, "{}", render_row(&row))?;
                // Arity was checked at lowering, so this cannot fail —
                // but if an operator ever emitted a malformed row,
                // caching a truncated table would silently corrupt
                // later QUERY hits; terminate the frame instead.
                if let Err(e) = table.push(row) {
                    return writeln!(out, "ERR {}", e.to_string().replace('\n', "; "));
                }
            }
            Ok(None) => break,
            Err(e) => {
                // Terminate the frame in place of END.
                return writeln!(out, "ERR {}", e.to_string().replace('\n', "; "));
            }
        }
    }
    let n = table.len();
    drop(phys);
    session.note_streamed(key, Arc::new(table));
    writeln!(out, "END {n} rows (fresh)")
}

fn apply_set(session: &mut Session, key: &str, value: &str) -> Result<String, String> {
    match key {
        "THREADS" => {
            let n: usize = value.parse().map_err(|_| "THREADS expects an integer")?;
            session.cfg = session.cfg.clone().with_threads(n);
            Ok(format!("OK threads={}", session.cfg.threads))
        }
        "SEED" => {
            let n: u64 = value.parse().map_err(|_| "SEED expects an integer")?;
            session.cfg.world_seed = n;
            Ok(format!("OK seed={n}"))
        }
        "SAMPLES" => {
            let n: usize = value.parse().map_err(|_| "SAMPLES expects an integer")?;
            if n == 0 {
                return Err("SAMPLES must be positive".into());
            }
            session.cfg.min_samples = n;
            session.cfg.max_samples = n;
            Ok(format!("OK samples={n}"))
        }
        "EPSILON" => {
            let x: f64 = value.parse().map_err(|_| "EPSILON expects a number")?;
            if !(0.0..1.0).contains(&x) || x == 0.0 {
                return Err("EPSILON must be in (0, 1)".into());
            }
            session.cfg.epsilon = x;
            Ok(format!("OK epsilon={x}"))
        }
        "DELTA" => {
            let x: f64 = value.parse().map_err(|_| "DELTA expects a number")?;
            // NaN would keep the stopping rule from ever firing and an
            // infinite delta would stop every estimate at min_samples.
            if !(x.is_finite() && x > 0.0) {
                return Err("DELTA must be positive and finite".into());
            }
            session.cfg.delta = x;
            Ok(format!("OK delta={x}"))
        }
        "DURABILITY" => {
            let level = pip_engine::Durability::parse(value)
                .ok_or("DURABILITY expects OFF, WAL or SYNC")?;
            // Catalog-wide, not session-local: the WAL is shared state.
            match session.database().set_durability(level) {
                Ok(()) => Ok(format!("OK durability={level}")),
                Err(e) => Err(e.to_string()),
            }
        }
        "REPLICATION" => {
            // SET REPLICATION WAIT 0|<n>|MAJORITY  — ACKs per mutation
            // SET REPLICATION TIMEOUT <ms>         — wait deadline
            let (verb, arg) = value
                .split_once(char::is_whitespace)
                .map(|(v, a)| (v, a.trim()))
                .ok_or("usage: SET REPLICATION WAIT 0|<n>|MAJORITY or SET REPLICATION TIMEOUT <ms>")?;
            if verb.eq_ignore_ascii_case("WAIT") {
                if session.replication().is_none() {
                    return Err("SET REPLICATION WAIT: this node is not replicating".into());
                }
                let wait = if arg.eq_ignore_ascii_case("MAJORITY") {
                    ReplWait::Majority
                } else {
                    match arg.parse::<u32>() {
                        Ok(0) => ReplWait::Off,
                        Ok(n) => ReplWait::Count(n),
                        Err(_) => return Err("REPLICATION WAIT expects 0, a count, or MAJORITY".into()),
                    }
                };
                session.repl_wait = wait;
                Ok(format!("OK replication_wait={wait}"))
            } else if verb.eq_ignore_ascii_case("TIMEOUT") {
                let ms: u64 = arg
                    .parse()
                    .map_err(|_| "REPLICATION TIMEOUT expects milliseconds")?;
                if ms == 0 {
                    return Err("REPLICATION TIMEOUT must be positive".into());
                }
                session.repl_wait_timeout = std::time::Duration::from_millis(ms);
                Ok(format!("OK replication_timeout_ms={ms}"))
            } else {
                Err("usage: SET REPLICATION WAIT 0|<n>|MAJORITY or SET REPLICATION TIMEOUT <ms>".into())
            }
        }
        "SLOWLOG" => {
            // Server-wide, like DURABILITY: one ring serves every session.
            let ms: u64 = value
                .parse()
                .map_err(|_| "SLOWLOG expects a threshold in milliseconds (0 disarms)")?;
            match session.slowlog() {
                Some(log) => {
                    log.set_threshold_millis(ms);
                    Ok(format!("OK slowlog_ms={ms}"))
                }
                None => Err("SET SLOWLOG: no slow-query log on this session".into()),
            }
        }
        other => Err(format!(
            "unknown setting '{other}' (THREADS, SEED, SAMPLES, EPSILON, DELTA, DURABILITY, REPLICATION, SLOWLOG)"
        )),
    }
}

/// Execute one request line against a session.
pub fn handle_line(session: &mut Session, line: &str) -> Reply {
    let cmd = match parse_command(line) {
        Ok(c) => c,
        Err(e) => return Reply::err(e),
    };
    handle_command(session, cmd)
}

/// Execute one already-parsed command against a session (the TCP server
/// parses once to route `STREAM` to the socket writer and hands every
/// other command here).
pub fn handle_command(session: &mut Session, cmd: Command) -> Reply {
    match cmd {
        Command::Query(sql) => match session.query(&sql) {
            Ok(r) => Reply {
                text: render_table(&r.table, r.cached),
                close: false,
            },
            Err(e) => Reply::err(e),
        },
        Command::Stream(sql) => {
            // Buffered fallback for non-socket callers; the TCP server
            // calls handle_stream with the connection writer instead.
            let mut buf: Vec<u8> = Vec::new();
            match handle_stream(session, &sql, &mut buf) {
                Ok(()) => Reply {
                    text: String::from_utf8_lossy(&buf).into_owned(),
                    close: false,
                },
                Err(e) => Reply::err(e),
            }
        }
        Command::Prepare { name, sql } => match session.prepare(&name, &sql) {
            Ok(()) => Reply::line(format!("OK prepared {name}")),
            Err(e) => Reply::err(e),
        },
        Command::Exec(name) => match session.exec_prepared(&name) {
            Ok(r) => Reply {
                text: render_table(&r.table, r.cached),
                close: false,
            },
            Err(e) => Reply::err(e),
        },
        Command::Deallocate(name) => match session.deallocate(&name) {
            Ok(()) => Reply::line(format!("OK deallocated {name}")),
            Err(e) => Reply::err(e),
        },
        Command::Set { key, value } => match apply_set(session, &key, &value) {
            Ok(msg) => Reply::line(msg),
            Err(e) => Reply::err(e),
        },
        Command::Checkpoint => match session.database().checkpoint() {
            Ok(generation) => Reply::line(format!("OK checkpoint generation={generation}")),
            Err(e) => Reply::err(e),
        },
        Command::Promote => match session.replication() {
            None => Reply::err("PROMOTE: this node is not replicating"),
            Some(repl) => match repl.promote() {
                Ok(()) => Reply::line(format!(
                    "OK promoted role=primary epoch={} version={}",
                    repl.epoch(),
                    session.database().version()
                )),
                Err(e) => Reply::err(e),
            },
        },
        Command::WaitVersion {
            version,
            timeout_ms,
        } => {
            // Blocking fallback for embedded sessions; the TCP reactor
            // parks the connection through the wait hub instead of
            // holding a worker thread here.
            let timeout = timeout_ms
                .map(std::time::Duration::from_millis)
                .unwrap_or(session.repl_wait_timeout);
            match session.replication() {
                None => {
                    // A standalone node is its own (only) replica.
                    if session.database().version() >= version {
                        Reply::line(format!("OK version={}", session.database().version()))
                    } else {
                        Reply::err(format!(
                            "repl_timeout waiting for version {version} (applied {}, not replicating)",
                            session.database().version()
                        ))
                    }
                }
                Some(repl) => {
                    if repl.wait_version_blocking(version, timeout) {
                        Reply::line(format!("OK version={}", repl.applied_version()))
                    } else {
                        Reply::err(format!(
                            "repl_timeout waiting for version {version} (applied {})",
                            repl.applied_version()
                        ))
                    }
                }
            }
        }
        Command::Stats => {
            let s = session.stats();
            let durability = match session.database().durability() {
                Some(level) => format!(
                    " durability={level} wal_bytes={}",
                    session.database().wal_bytes()
                ),
                None => String::new(),
            };
            // Replicated nodes expose what read-your-writes routing and
            // failover tooling need: the served version, the role, and
            // how far behind (follower) / ahead of the slowest follower
            // (primary) this node is.
            let replication = match session.replication() {
                Some(repl) if repl.role() == "primary" => {
                    let acked_min = repl
                        .acked_min()
                        .map(|v| format!(" acked_min={v}"))
                        .unwrap_or_default();
                    let fenced = if repl.is_fenced() { " fenced=true" } else { "" };
                    format!(
                        " version={} role=primary epoch={} wait={} followers={} replication_lag={}{acked_min}{fenced}",
                        session.database().version(),
                        repl.epoch(),
                        session.repl_wait,
                        repl.follower_count(),
                        repl.replication_lag(),
                    )
                }
                Some(repl) => format!(
                    " version={} role=replica epoch={} wait={} applied_version={} replication_lag={} connected={}",
                    session.database().version(),
                    repl.epoch(),
                    session.repl_wait,
                    repl.applied_version(),
                    repl.replication_lag(),
                    repl.connected(),
                ),
                None => format!(" version={}", session.database().version()),
            };
            // Scheduler-served sessions expose the serving counters:
            // gauges (inflight/queued) plus monotonic totals
            // (admitted/rejected) — what a load balancer or an
            // admission-control test needs to observe over the wire.
            let serving = match session.serving() {
                Some(counters) => {
                    let c = counters.snapshot();
                    format!(
                        " inflight={} queued={} admitted={} rejected={} capacity={}",
                        c.inflight, c.queued, c.admitted, c.rejected, c.capacity
                    )
                }
                None => String::new(),
            };
            Reply::line(format!(
                "OK session={} queries={} cache_hits={} prepared={} threads={} seed={} samples={}..{}{durability}{replication}{serving} uptime_secs={:.0} queries_total={}",
                session.id(),
                s.queries,
                s.cache_hits,
                s.prepared,
                session.cfg.threads,
                session.cfg.world_seed,
                session.cfg.min_samples,
                session.cfg.max_samples,
                pip_obs::uptime_secs(),
                session.database().metrics().queries_total.get(),
            ))
        }
        Command::Metrics => {
            // The catalog's registry (server/engine/store/replication
            // families) plus the process-global one (sampling runtime).
            let mut text = String::new();
            session.database().obs_registry().render_into(&mut text);
            pip_obs::Registry::global().render_into(&mut text);
            text.push_str("END\n");
            Reply { text, close: false }
        }
        Command::SlowLog(n) => match session.slowlog() {
            None => Reply::err("SLOWLOG: no slow-query log on this session"),
            Some(log) => {
                let spans = log.recent(n.unwrap_or(16));
                let mut text = format!(
                    "OK {} entries threshold_ms={}\n",
                    spans.len(),
                    log.threshold_millis()
                );
                for span in &spans {
                    text.push_str(&span.render());
                    text.push('\n');
                }
                text.push_str("END\n");
                Reply { text, close: false }
            }
        },
        Command::Ping => Reply::line("PONG"),
        Command::Quit => Reply {
            text: "BYE\n".to_string(),
            close: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_engine::Database;
    use pip_sampling::SamplerConfig;
    use std::sync::Arc;

    use crate::session::SessionManager;

    fn session() -> Session {
        let mgr = SessionManager::new(Arc::new(Database::new()), SamplerConfig::default());
        mgr.open()
    }

    #[test]
    fn command_parsing() {
        assert_eq!(
            parse_command("query SELECT 1").unwrap(),
            Command::Query("SELECT 1".into())
        );
        assert_eq!(
            parse_command("PREPARE p AS SELECT * FROM t").unwrap(),
            Command::Prepare {
                name: "p".into(),
                sql: "SELECT * FROM t".into()
            }
        );
        assert_eq!(parse_command("exec p").unwrap(), Command::Exec("p".into()));
        assert_eq!(
            parse_command("SET threads 4").unwrap(),
            Command::Set {
                key: "THREADS".into(),
                value: "4".into()
            }
        );
        assert_eq!(parse_command("ping").unwrap(), Command::Ping);
        assert_eq!(parse_command("QUIT").unwrap(), Command::Quit);
        assert!(parse_command("").is_err());
        assert!(parse_command("QUERY").is_err());
        assert!(parse_command("PREPARE p SELECT 1").is_err());
        assert!(parse_command("FROBNICATE").is_err());
    }

    #[test]
    fn end_to_end_lines() {
        let mut s = session();
        let r = handle_line(&mut s, "QUERY CREATE TABLE t (x SYMBOLIC)");
        assert!(r.text.starts_with("OK"), "{}", r.text);
        handle_line(
            &mut s,
            "QUERY INSERT INTO t VALUES (create_variable('Normal', 7, 1))",
        );
        let r = handle_line(&mut s, "QUERY SELECT expected_sum(x) FROM t");
        assert!(r.text.starts_with("OK 1 rows (fresh)\n"), "{}", r.text);
        assert!(r.text.contains("expected_sum(x)"), "{}", r.text);
        assert!(r.text.trim_end().ends_with("END"), "{}", r.text);
        let r = handle_line(&mut s, "QUERY SELECT expected_sum(x) FROM t");
        assert!(r.text.starts_with("OK 1 rows (cached)"), "{}", r.text);
        let r = handle_line(&mut s, "QUERY SELECT nothing FROM ghost");
        assert!(r.text.starts_with("ERR "), "{}", r.text);
        assert!(!r.close);
        let r = handle_line(&mut s, "STATS");
        assert!(r.text.contains("cache_hits=1"), "{}", r.text);
        let r = handle_line(&mut s, "QUIT");
        assert!(r.close);
    }

    #[test]
    fn stream_frames_rows_and_hits_the_cache() {
        let mut s = session();
        handle_line(&mut s, "QUERY CREATE TABLE t (a INT)");
        handle_line(&mut s, "QUERY INSERT INTO t VALUES (1), (2), (3)");
        let r = handle_line(&mut s, "STREAM SELECT * FROM t");
        assert!(
            r.text
                .starts_with("STREAM BEGIN\na\n1\n2\n3\nEND 3 rows (fresh)"),
            "{}",
            r.text
        );
        // Same text through QUERY now hits the streamed result's cache entry.
        let r = handle_line(&mut s, "QUERY SELECT * FROM t");
        assert!(r.text.starts_with("OK 3 rows (cached)"), "{}", r.text);
        // And STREAM replays cached results too.
        let r = handle_line(&mut s, "STREAM SELECT * FROM t");
        assert!(
            r.text.trim_end().ends_with("END 3 rows (cached)"),
            "{}",
            r.text
        );
        // Errors keep the ERR framing.
        let r = handle_line(&mut s, "STREAM SELECT * FROM ghost");
        assert!(r.text.starts_with("ERR "), "{}", r.text);
        assert!(parse_command("STREAM").is_err());
    }

    #[test]
    fn analyze_and_json_explain_over_the_wire() {
        let mut s = session();
        handle_line(&mut s, "QUERY CREATE TABLE t (a INT, b SYMBOLIC)");
        handle_line(
            &mut s,
            "QUERY INSERT INTO t VALUES (1, create_variable('Normal', 5, 1)), (2, 3.5)",
        );
        // Bare protocol ANALYZE routes through the SQL layer.
        let r = handle_line(&mut s, "ANALYZE t");
        assert!(r.text.starts_with("OK 1 rows"), "{}", r.text);
        assert!(r.text.contains("symbolic_cells"), "{}", r.text);
        assert!(r.text.contains("'t'\t2\t2\t1"), "{}", r.text);
        let r = handle_line(&mut s, "ANALYZE");
        assert!(r.text.starts_with("OK 1 rows"), "{}", r.text);
        let r = handle_line(&mut s, "ANALYZE ghost");
        assert!(r.text.starts_with("ERR "), "{}", r.text);
        // The server is self-profiling: JSON EXPLAIN over the wire.
        let r = handle_line(
            &mut s,
            "QUERY EXPLAIN (ANALYZE, FORMAT JSON) SELECT expected_sum(b) FROM t WHERE a > 0",
        );
        assert!(r.text.contains("\"est_rows\":"), "{}", r.text);
        assert!(r.text.contains("\"self_secs\":"), "{}", r.text);
        assert!(r.text.contains("\"analyzed\":true"), "{}", r.text);
    }

    #[test]
    fn set_validation() {
        let mut s = session();
        assert!(handle_line(&mut s, "SET THREADS 4").text.starts_with("OK"));
        assert_eq!(s.cfg.threads, 4);
        assert!(handle_line(&mut s, "SET SEED 99").text.starts_with("OK"));
        assert_eq!(s.cfg.world_seed, 99);
        assert!(handle_line(&mut s, "SET SAMPLES 500")
            .text
            .starts_with("OK"));
        assert_eq!((s.cfg.min_samples, s.cfg.max_samples), (500, 500));
        assert!(handle_line(&mut s, "SET SAMPLES 0").text.starts_with("ERR"));
        assert!(handle_line(&mut s, "SET EPSILON 2").text.starts_with("ERR"));
        // Retired settings stay unknown: they chose between two sampling
        // engines and toggled a sample-block cache, both gone.
        for line in ["SET COMPILE OFF", "SET REUSE 0"] {
            let r = handle_line(&mut s, line).text;
            assert!(r.starts_with("ERR unknown setting"), "{line}: {r}");
        }
        assert!(handle_line(&mut s, "SET BOGUS 1").text.starts_with("ERR"));
        assert!(handle_line(&mut s, "SET THREADS x").text.starts_with("ERR"));
    }

    #[test]
    fn set_delta_accepts_only_finite_positive_values() {
        let mut s = session();
        assert_eq!(
            handle_line(&mut s, "SET DELTA 0.01").text,
            "OK delta=0.01\n"
        );
        for bad in ["NaN", "nan", "inf", "infinity", "1e400", "0", "-0.5"] {
            let r = handle_line(&mut s, &format!("SET DELTA {bad}")).text;
            assert!(r.starts_with("ERR DELTA must be"), "{bad}: {r}");
            assert_eq!(s.cfg.delta, 0.01, "{bad} changed delta");
        }
    }
}
