//! The `pip-serverd` child process: spawn, address discovery, peak RSS, kill.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// The flush policy every run states: the WAL is written to the OS per
/// record and fsynced only at checkpoints.
pub const FLUSH_POLICY: &str = "wal (OS write per record, fsync at checkpoints)";

/// The server binary built beside this harness.
pub fn serverd_path() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name("pip-serverd");
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} not found; build it with pip-e2e/run.sh", path.display()),
        ))
    }
}

/// A running server child, killed on drop.
pub struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Start the server as shipped on `data_dir` and wait for `LISTENING`.
    pub fn spawn(data_dir: &Path, extra_args: &[&str]) -> io::Result<Server> {
        let mut child = Command::new(serverd_path()?)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--data-dir"])
            .arg(data_dir)
            .args(["--durability", "wal"])
            .args(extra_args)
            .env("PIP_LOG", "error")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("LISTENING ") {
                        break addr.to_string();
                    }
                }
                _ => {
                    // Reap the child before reporting that it never listened.
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other("pip-serverd exited before LISTENING"));
                }
            }
        };
        Ok(Server { child, addr })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// CPU time the child's threads have run so far, in seconds, summed
    /// over `/proc/<pid>/task/*/schedstat` (nanosecond resolution; threads
    /// that already exited are not counted, and the server's do not exit).
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let mut nanos = 0u64;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            let stat = std::fs::read_to_string(task?.path().join("schedstat"))?;
            nanos += stat
                .split_whitespace()
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .ok_or_else(|| io::Error::other("unreadable schedstat"))?;
        }
        Ok(nanos as f64 / 1e9)
    }

    /// `SIGKILL` the child and wait until it has ended.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(|_| ())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already-reaped children make both calls fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
