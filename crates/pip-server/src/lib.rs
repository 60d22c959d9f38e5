//! # pip-server
//!
//! The concurrent query service over the PIP probabilistic database
//! (Kennedy & Koch, ICDE 2010 — see the workspace root for the full
//! reproduction):
//!
//! * [`session`] — client sessions sharing one internally-synchronized
//!   [`pip_engine::Database`], each with a per-session
//!   [`pip_sampling::SamplerConfig`] and a prepared-statement LRU; every
//!   `SELECT` runs its plan;
//! * [`protocol`] — the line-oriented request/response protocol
//!   (`QUERY` / `PREPARE` / `EXEC` / `SET` / `STATS`);
//! * [`scheduler`] — the bounded query-execution fleet shared by every
//!   connection, with per-query admission control (`ERR busy` past
//!   capacity);
//! * [`server`] — the TCP front-end: a nonblocking epoll reactor owns
//!   every socket (pipelined request decoding from partial reads,
//!   batched write flushes, no per-connection OS thread), one session
//!   per connection.
//!
//! Sampling heads execute on the deterministic parallel Monte-Carlo
//! runtime ([`pip_sampling::parallel`]): `SET THREADS n` changes
//! wall-clock time, never results.
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//! use std::sync::Arc;
//!
//! use pip_engine::Database;
//! use pip_server::server::{serve, ServerOptions};
//!
//! let handle = serve(
//!     Arc::new(Database::new()),
//!     "127.0.0.1:0",
//!     ServerOptions::default(),
//! )
//! .unwrap();
//! let mut conn = TcpStream::connect(handle.addr()).unwrap();
//! let mut reader = BufReader::new(conn.try_clone().unwrap());
//! let mut banner = String::new();
//! reader.read_line(&mut banner).unwrap();
//! conn.write_all(b"PING\n").unwrap();
//! let mut reply = String::new();
//! reader.read_line(&mut reply).unwrap();
//! assert_eq!(reply.trim(), "PONG");
//! handle.shutdown();
//! ```

pub mod lru;
pub mod protocol;
mod reactor;
pub mod scheduler;
pub mod server;
pub mod session;

pub use lru::Lru;
pub use protocol::{handle_line, parse_command, Command, Reply};
pub use scheduler::{ServingCounters, ServingSnapshot};
pub use server::{serve, ServerHandle, ServerOptions};
pub use session::{QueryReply, ReplWait, Session, SessionManager, SessionStats};
