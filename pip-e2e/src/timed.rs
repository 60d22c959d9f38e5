//! The over-the-wire phases of one run against a real `pip-serverd` child:
//! set-up, check list, closed loop, open loop, and for `ingest` the
//! kill / recover / verify step.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::host::{self, CpuTimes};
use crate::server::Server;
use crate::stats;
use crate::wire::{Conn, Reply, Scrape, ScrapeDelta};
use crate::workloads::{check_reply, frozen, insert_key, Request, Setup, Workload, WRITER_RATE};

pub type Res<T> = Result<T, String>;

pub fn ctx<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// A scratch data directory under `pip-e2e/out/`, removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn create(label: &str) -> Res<DataDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = out_dir().join(format!(
            "data-{}-{label}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        ctx(std::fs::create_dir_all(&path), "creating the data dir")?;
        Ok(DataDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total size of the files in the directory.
    pub fn bytes(&self) -> Res<u64> {
        let mut total = 0;
        for entry in ctx(std::fs::read_dir(&self.0), "listing the data dir")? {
            let entry = ctx(entry, "listing the data dir")?;
            total += ctx(entry.metadata(), "data file metadata")?.len();
        }
        Ok(total)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `pip-e2e/out/`: data directories and trace files, ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The outcome of one timed operation.
struct Op {
    /// From the instant the request was due (open loop) or sent (closed loop).
    latency_ms: f64,
    /// How late the generator sent it once it could, open loop only.
    late_ms: f64,
    /// When the reply arrived, in seconds since the phase began.
    done_s: f64,
    /// `false` for an `ERR` reply: a counted failure.
    ok: bool,
    /// Relative errors of the reply's expected sums.
    rel_errors: Vec<f64>,
}

impl Op {
    /// An operation whose reply has just arrived, `phase_start` being when its phase began.
    fn finished(
        (ok, rel_errors): (bool, Vec<f64>),
        latency_ms: f64,
        late_ms: f64,
        phase_start: Instant,
    ) -> Op {
        Op {
            latency_ms,
            late_ms,
            done_s: phase_start.elapsed().as_secs_f64(),
            ok,
            rel_errors,
        }
    }
}

/// Send one request and classify its reply. A wrong answer or a broken
/// connection is an error of the run; an `ERR` reply is a counted failure.
fn exchange(conn: &mut Conn, request: &Request) -> Res<(bool, Vec<f64>)> {
    let reply = ctx(
        conn.seeded_query(request.seed, &request.sql),
        "timed request",
    )?;
    match reply {
        Reply::Err(_) => Ok((false, vec![])),
        reply => Ok((true, check_reply(request, &reply)?)),
    }
}

/// What the set-up phase produced.
pub struct SetUp {
    pub server: Server,
    pub seconds: f64,
    pub rel_errors: Vec<f64>,
}

/// spawn -> `LISTENING` -> tables and indexes loaded over the wire ->
/// `CHECKPOINT` -> check list passed.
pub fn set_up(w: &Workload, dir: &Path) -> Res<SetUp> {
    let start = Instant::now();
    let server = ctx(
        Server::spawn(dir, frozen(w.name).server_args),
        "starting pip-serverd",
    )?;
    let mut conn = ctx(Conn::open(server.addr()), "connecting")?;
    for step in &w.setup {
        let line = match step {
            Setup::Sql(sql) => format!("QUERY {sql}"),
            Setup::Checkpoint => "CHECKPOINT".to_string(),
        };
        ctx(conn.must(&line), "set-up")?;
    }
    let mut rel_errors = Vec::new();
    for request in &w.check {
        match exchange(&mut conn, request)? {
            (true, errs) => rel_errors.extend(errs),
            (false, _) => return Err(format!("check list got ERR for {}", request.sql)),
        }
    }
    Ok(SetUp {
        server,
        seconds: start.elapsed().as_secs_f64(),
        rel_errors,
    })
}

fn connect_all(addr: &str, n: usize) -> Res<Vec<Conn>> {
    (0..n)
        .map(|_| ctx(Conn::open(addr), "connecting"))
        .collect()
}

/// What one generator thread hands back: its operations with their list positions.
type Indexed = Res<Vec<(usize, Op)>>;

/// Join the generator threads and put their operations in list order.
fn join_ops(handles: Vec<std::thread::ScopedJoinHandle<'_, Indexed>>) -> Res<Vec<Op>> {
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().map_err(|_| "a generator thread panicked")??);
    }
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, op)| op).collect())
}

/// Closed loop: a fixed list, one request in flight per connection.
/// Returns the operations in list order.
fn closed_loop(addr: &str, list: &[Request], connections: usize) -> Res<Vec<Op>> {
    let conns = connect_all(addr, connections)?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles = conns
            .into_iter()
            .map(|mut conn| {
                let next = &next;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = list.get(i) else {
                            return Ok(done);
                        };
                        let sent = Instant::now();
                        let outcome = exchange(&mut conn, request)?;
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        done.push((i, Op::finished(outcome, latency_ms, 0.0, start)));
                    }
                })
            })
            .collect();
        join_ops(handles)
    })
}

/// The instant request `i` of a phase offered at `rate` is due.
pub fn due_time(start: Instant, i: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// How long before its due time a request's thread stops sleeping and
/// spins. A sleeping thread's wake-up is late by 0.2-0.8 ms on this box (up
/// to 1.5 ms when the host is busy), and latency runs from the due time, so
/// that lateness, which is the generator's and not the server's, was a fifth
/// of `ingest`'s 2 ms median and moved with the host. Spinning costs under a
/// tenth of one vCPU at the highest offered rate.
const SPIN: Duration = Duration::from_micros(1500);

/// One open-loop exchange: wait until `due`, send, wait for the reply.
/// Latency runs from `due`, not from the send, so a stall that delays
/// later sends is charged to them. Lateness is the generator's own: how
/// long after it could have sent (the later of `due` and now, when the
/// connection became free) it did send. Returns `(out, latency_ms, late_ms)`.
pub fn timed_from_due<T>(due: Instant, exchange: impl FnOnce() -> T) -> (T, f64, f64) {
    let free = Instant::now();
    if due > free + SPIN {
        std::thread::sleep(due - free - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    let late_ms = Instant::now()
        .saturating_duration_since(due.max(free))
        .as_secs_f64()
        * 1e3;
    let out = exchange();
    let latency_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
    (out, latency_ms, late_ms)
}

/// Open loop at a fixed offered rate: request `i` is due at `i / rate`
/// and goes to connection `i % connections`.
fn open_loop(addr: &str, list: &[Request], rate: f64, connections: usize) -> Res<Vec<Op>> {
    let conns = connect_all(addr, connections)?;
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    for i in (c..list.len()).step_by(connections) {
                        let (result, latency_ms, late_ms) =
                            timed_from_due(due_time(start, i, rate), || {
                                exchange(&mut conn, &list[i])
                            });
                        done.push((i, Op::finished(result?, latency_ms, late_ms, start)));
                    }
                    Ok(done)
                })
            })
            .collect();
        join_ops(handles)
    })
}

/// `mixed_rw`'s background writer: paced single-row inserts until `stop`.
fn writer_loop(addr: &str, list: &[Request], stop: &AtomicBool) -> Res<Vec<Op>> {
    let mut conn = ctx(Conn::open(addr), "connecting the writer")?;
    let start = Instant::now();
    let mut done = Vec::new();
    for (i, request) in list.iter().enumerate() {
        let due = due_time(start, i, WRITER_RATE);
        // Sleep in short steps so a stop request is seen promptly.
        while Instant::now() + Duration::from_millis(10) < due {
            if stop.load(Ordering::Relaxed) {
                return Ok(done);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if stop.load(Ordering::Relaxed) {
            return Ok(done);
        }
        let (result, latency_ms, late_ms) = timed_from_due(due, || exchange(&mut conn, request));
        done.push(Op::finished(result?, latency_ms, late_ms, start));
    }
    Err("the writer ran out of inserts before the reader finished".into())
}

fn scrape(conn: &mut Conn) -> Res<(Scrape, usize)> {
    match ctx(conn.call("METRICS"), "METRICS")? {
        Reply::Text(lines) => {
            let bytes = lines.iter().map(|l| l.len() + 1).sum::<usize>() + "END\n".len();
            Ok((Scrape::parse(&lines), bytes))
        }
        other => Err(format!("METRICS answered {other:?}")),
    }
}

/// Median idle `PING` round trip in microseconds.
fn ping_rtt_us(conn: &mut Conn) -> Res<f64> {
    let mut rtts = Vec::with_capacity(200);
    for _ in 0..200 {
        let sent = Instant::now();
        ctx(conn.must("PING"), "PING")?;
        rtts.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&rtts))
}

/// How the wire phases are run.
pub struct WireOptions {
    /// Set-ups performed; `setup_s` is their second-quickest and the last one serves the run.
    pub setup_repeats: usize,
    /// Run the second half of the closed list on two connections at once
    /// and report its rate (the traced run's parallel probe).
    pub parallel_probe: bool,
}

/// Everything the wire phases measured.
#[derive(Debug, Default, Clone)]
pub struct WireReport {
    pub setup_s: f64,
    pub closed_qps: f64,
    /// Rate of the two-connection half of the closed list, when probed.
    pub closed_qps_2conn: f64,
    pub cpu_ms_per_op: f64,
    pub closed_lat_p50_ms: f64,
    pub lat_p50_ms: f64,
    pub lat_p90_ms: f64,
    pub slo_ok_frac: f64,
    pub rss_peak_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub open_requests: usize,
    /// The larger of the two timed phases' steal shares: what the host took
    /// of the CPU time the phase wanted.
    pub steal_frac: f64,
    pub late_ms_p90: f64,
    /// The larger of the p50 and p90 window spreads.
    pub window_spread: f64,
    pub est_rel_err: f64,
    pub ping_rtt_us: f64,
    pub reply_bytes_per_op: f64,
    pub admission_wait_ms: f64,
    pub slice_ms: f64,
    pub rejected: f64,
    pub result_cache_hits: f64,
    pub write_lat_p50_ms: f64,
    pub write_lat_p90_ms: f64,
    pub checkpoints: f64,
    pub fsyncs: f64,
    pub wal_append_us: f64,
    pub wal_bytes_per_row: f64,
    pub disk_bytes_per_row: f64,
    pub index_path_share: f64,
    pub metropolis_escalations: f64,
    pub kernel_compiles: f64,
    pub block_cache_hit_ratio: f64,
    pub recover_s: f64,
}

/// Share of the closed list's latencies a trimmed `closed_qps` averages.
const CLOSED_KEPT: f64 = 0.75;

fn count_failures(ops: &[Op]) -> u64 {
    ops.iter().filter(|o| !o.ok).count() as u64
}

/// The timed phases and the `METRICS` scrapes at their boundaries
/// (with the byte length of the first scrape's own reply).
struct Phases {
    /// The closed list's operations in list order: the first `solo` of them
    /// are the measured part, the rest (the parallel probe) ran on two
    /// connections after it.
    closed: Vec<Op>,
    solo: usize,
    /// Connections the measured part ran on.
    solo_connections: usize,
    /// Server CPU time the measured part consumed.
    closed_cpu_s: f64,
    open: Vec<Op>,
    scrapes: [(Scrape, usize); 3],
    /// Steal share of the closed and of the open phase.
    steal: [f64; 2],
}

fn timed_phases(
    w: &Workload,
    opts: &WireOptions,
    server: &Server,
    control: &mut Conn,
) -> Res<Phases> {
    let f = frozen(w.name);
    let addr = server.addr();
    let before_closed = scrape(control)?;
    // `mixed_rw` already has its second connection: the writer.
    let probe = opts.parallel_probe && w.writer.is_empty();
    // The probe compares one connection with two, whatever the workload is frozen at.
    let (solo, solo_connections) = if probe {
        (w.closed.len() / 2, 1)
    } else {
        (w.closed.len(), f.closed_connections)
    };
    let cpu_before = ctx(server.cpu_seconds(), "reading schedstat")?;
    let host_before = CpuTimes::read();
    let mut closed = closed_loop(addr, &w.closed[..solo], solo_connections)?;
    let closed_steal = host::steal_share_since(host_before);
    let closed_cpu_s = ctx(server.cpu_seconds(), "reading schedstat")? - cpu_before;
    if solo < w.closed.len() {
        closed.extend(closed_loop(addr, &w.closed[solo..], 2)?);
    }
    let before_open = scrape(control)?;
    let host_before = CpuTimes::read();
    let open = open_loop(addr, &w.open, f.open_rate, f.connections)?;
    let open_steal = host::steal_share_since(host_before);
    let after_open = scrape(control)?;
    Ok(Phases {
        closed,
        solo,
        solo_connections,
        closed_cpu_s,
        open,
        scrapes: [before_closed, before_open, after_open],
        steal: [closed_steal, open_steal],
    })
}

/// Run every wire phase of `w` and tear the server down.
pub fn run(w: &Workload, opts: &WireOptions) -> Res<WireReport> {
    let f = frozen(w.name);
    let mut report = WireReport::default();

    // Set up several times; the last server stays for the measurement.
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..opts.setup_repeats {
        drop(ready.take());
        let dir = DataDir::create(w.name)?;
        let up = set_up(w, dir.path())?;
        setups.push(up.seconds);
        // Tuple order is drop order: the server dies before its directory goes.
        ready = Some((up, dir));
    }
    let (up, dir) = ready.expect("at least one set-up");
    report.setup_s = stats::second_lowest(&setups);
    let server = up.server;
    let addr = server.addr().to_string();
    let mut rel_errors = up.rel_errors;

    let mut control = ctx(Conn::open(&addr), "connecting")?;
    report.ping_rtt_us = ping_rtt_us(&mut control)?;

    let stop = AtomicBool::new(false);
    let (phases, writes) = std::thread::scope(|s| {
        let writer = (!w.writer.is_empty()).then(|| {
            let (addr, stop) = (&addr, &stop);
            s.spawn(move || writer_loop(addr, &w.writer, stop))
        });
        let phases = timed_phases(w, opts, &server, &mut control);
        stop.store(true, Ordering::Relaxed);
        let writes = match writer {
            Some(h) => h.join().map_err(|_| "the writer thread panicked")??,
            None => Vec::new(),
        };
        Ok::<_, String>((phases?, writes))
    })?;
    let Phases {
        closed,
        solo,
        solo_connections,
        closed_cpu_s,
        open,
        scrapes,
        steal,
    } = phases;
    report.steal_frac = steal[0].max(steal[1]);

    // Closed loop: throughput of the second-best window, or from the trimmed latencies.
    let finish_times = |ops: &[Op]| -> Vec<f64> {
        let mut t: Vec<f64> = ops.iter().filter(|o| o.ok).map(|o| o.done_s).collect();
        t.sort_by(f64::total_cmp);
        t
    };
    let window_qps = stats::window_rates(&finish_times(&closed[..solo]));
    let closed_lat: Vec<f64> = closed[..solo].iter().map(|o| o.latency_ms).collect();
    report.closed_qps = if f.closed_trimmed {
        // Little's law: requests in flight ÷ the time one spends in flight.
        solo_connections as f64 * 1e3 / stats::lower_mean(&closed_lat, CLOSED_KEPT)
    } else {
        stats::second_highest(&window_qps)
    };
    report.cpu_ms_per_op = closed_cpu_s * 1e3 / solo as f64;
    report.closed_lat_p50_ms = stats::median(&closed_lat);
    let probe_lat: Vec<f64> = closed[solo..].iter().map(|o| o.latency_ms).collect();
    if let Some(last) = finish_times(&closed[solo..]).last() {
        report.closed_qps_2conn = if f.closed_trimmed {
            // Like for like with the one-connection half.
            2.0 * 1e3 / stats::lower_mean(&probe_lat, CLOSED_KEPT)
        } else {
            (closed.len() - solo) as f64 / last
        };
    }

    // Open loop: the second-quietest window speaks for the phase.
    let lat: Vec<f64> = open.iter().map(|o| o.latency_ms).collect();
    let p50 = stats::window_percentiles(&lat, 0.5, stats::WINDOWS);
    let p90 = stats::window_percentiles(&lat, 0.9, stats::WIDE_WINDOWS);
    report.lat_p50_ms = stats::second_lowest(&p50);
    report.lat_p90_ms = stats::second_lowest(&p90);
    report.window_spread = stats::relative_spread(&p50)
        .max(stats::relative_spread(&p90))
        .max(stats::relative_spread(&window_qps));
    report.open_requests = open.len();
    // Share within the limit, per window: a stall the code causes recurs in
    // every window; a spell the host causes leaves the quiet ones alone.
    let per_window = open.len() / stats::WIDE_WINDOWS;
    let within: Vec<f64> = open
        .chunks_exact(per_window)
        .take(stats::WIDE_WINDOWS)
        .map(|w| {
            let ok = w.iter().filter(|o| o.ok && o.latency_ms <= f.slo_ms);
            ok.count() as f64 / per_window as f64
        })
        .collect();
    report.slo_ok_frac = stats::second_highest(&within);
    let late: Vec<f64> = open.iter().map(|o| o.late_ms).collect();
    report.late_ms_p90 = stats::percentile(&late, 0.9);

    report.attempted = (closed.len() + open.len() + writes.len()) as u64;
    report.failed = count_failures(&closed) + count_failures(&open) + count_failures(&writes);
    if !writes.is_empty() {
        let wl: Vec<f64> = writes.iter().map(|o| o.latency_ms).collect();
        report.write_lat_p50_ms = stats::percentile(&wl, 0.5);
        report.write_lat_p90_ms = stats::percentile(&wl, 0.9);
    }
    for op in closed.iter().chain(&open) {
        rel_errors.extend_from_slice(&op.rel_errors);
    }
    report.est_rel_err = stats::rms(&rel_errors);

    // Server-side counters over the phases.
    let [(s0, s0_bytes), (s1, _), (s2, _)] = &scrapes;
    let closed_delta = ScrapeDelta {
        earlier: s0,
        later: s1,
    };
    report.reply_bytes_per_op = (closed_delta.counter("pip_server_flushed_bytes_total")
        - *s0_bytes as f64)
        / closed.len() as f64;
    let open_delta = ScrapeDelta {
        earlier: s1,
        later: s2,
    };
    report.admission_wait_ms = open_delta.histogram_mean("pip_server_admission_wait_seconds") * 1e3;
    report.slice_ms = open_delta.histogram_mean("pip_server_slice_seconds") * 1e3;
    let timed = ScrapeDelta {
        earlier: s0,
        later: s2,
    };
    report.rejected = timed.counter("pip_server_rejected_total");
    report.result_cache_hits = timed.counter("pip_server_result_cache_hits_total");
    report.checkpoints = timed.counter("pip_store_checkpoints_total");
    report.fsyncs = timed.counter("pip_store_wal_fsync_seconds_count");
    report.wal_append_us = timed.histogram_mean("pip_store_wal_append_seconds") * 1e6;
    // Every mutation of the timed phases is a single-row insert.
    let inserted = timed.counter("pip_engine_mutations_total");
    if inserted > 0.0 {
        report.wal_bytes_per_row = timed.counter("pip_store_wal_appended_bytes_total") / inserted;
    }
    let index_scans = timed.counter("pip_engine_access_path_index_scan_total")
        + timed.counter("pip_engine_access_path_index_join_total");
    let all_scans = index_scans + timed.counter("pip_engine_access_path_table_scan_total");
    if all_scans > 0.0 {
        report.index_path_share = index_scans / all_scans;
    }
    report.metropolis_escalations = timed.counter("pip_sampling_metropolis_escalations_total");
    report.kernel_compiles = timed.counter("pip_sampling_kernel_compiles_total");
    let hits = timed.counter("pip_sampling_block_cache_hits_total");
    let lookups = hits + timed.counter("pip_sampling_block_cache_misses_total");
    if lookups > 0.0 {
        report.block_cache_hit_ratio = hits / lookups;
    }

    drop(control);
    report.rss_peak_mb = ctx(server.peak_rss_mib(), "reading VmHWM")?;
    if !w.verify.is_empty() {
        let rows = w.preloaded_keys as usize + closed.len() + open.len();
        report.disk_bytes_per_row = dir.bytes()? as f64 / rows as f64;
    }
    ctx(server.kill(), "killing pip-serverd")?;
    if !w.verify.is_empty() {
        let acked = w
            .closed
            .iter()
            .zip(&closed)
            .chain(w.open.iter().zip(&open))
            .filter(|(_, op)| op.ok)
            .map(|(request, _)| insert_key(request));
        report.recover_s = recover_and_verify(w, dir.path(), acked)?;
    }
    Ok(report)
}

/// `ingest`: restart on the data dir the killed server left, time spawn to
/// the first correct reply, then read back every acknowledged key and
/// check the region queries against the closed form of the recovered table.
fn recover_and_verify(w: &Workload, dir: &Path, acked: impl Iterator<Item = u64>) -> Res<f64> {
    let start = Instant::now();
    let server = ctx(
        Server::spawn(dir, frozen(w.name).server_args),
        "restarting pip-serverd",
    )?;
    let mut conn = ctx(Conn::open(server.addr()), "connecting after recovery")?;
    let mut recover_s = 0.0;
    for (i, request) in w.verify.iter().enumerate() {
        match exchange(&mut conn, request)? {
            (true, _) => {}
            (false, _) => return Err(format!("recovered server answered ERR to {}", request.sql)),
        }
        if i == 0 {
            recover_s = start.elapsed().as_secs_f64();
        }
    }
    let present: HashSet<u64> = match ctx(conn.must("QUERY SELECT k FROM acct"), "key read-back")? {
        Reply::Table { rows, .. } => rows.iter().filter_map(|r| r.parse().ok()).collect(),
        other => return Err(format!("key read-back answered {other:?}")),
    };
    let lost: Vec<u64> = (0..w.preloaded_keys)
        .chain(acked)
        .filter(|k| !present.contains(k))
        .collect();
    if !lost.is_empty() {
        return Err(format!(
            "durability violated: {} acknowledged keys missing after SIGKILL, first {:?}",
            lost.len(),
            &lost[..lost.len().min(5)]
        ));
    }
    ctx(server.kill(), "stopping the recovered server")?;
    Ok(recover_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        // Three requests due 10 ms apart on one connection; the first
        // stalls for 50 ms, so the second and third leave late. Send-time
        // accounting would report ~1 ms for them; due-time accounting
        // charges them the stall they waited out. The generator itself is
        // not late: it sent as soon as the connection was free.
        let start = Instant::now();
        let rate = 100.0;
        let service = [50u64, 1, 1];
        let mut lat = Vec::new();
        let mut late = Vec::new();
        for (i, ms) in service.iter().enumerate() {
            let ((), latency_ms, late_ms) = timed_from_due(due_time(start, i, rate), || {
                std::thread::sleep(Duration::from_millis(*ms))
            });
            lat.push(latency_ms);
            late.push(late_ms);
        }
        assert!(lat[0] >= 50.0 && lat[0] < 70.0, "{lat:?}");
        // Due at 10 ms, could not leave before 50 ms, 1 ms of service: >= 41 ms.
        assert!(lat[1] >= 41.0, "{lat:?}");
        // Due at 20 ms, left after ~51 ms, 1 ms of service: >= 32 ms.
        assert!(lat[2] >= 32.0, "{lat:?}");
        assert!(late.iter().all(|l| *l < 5.0), "{late:?}");
    }

    #[test]
    fn due_times_are_evenly_spaced_at_the_offered_rate() {
        let start = Instant::now();
        assert_eq!(due_time(start, 0, 50.0), start);
        assert_eq!(due_time(start, 100, 50.0) - start, Duration::from_secs(2));
    }
}
