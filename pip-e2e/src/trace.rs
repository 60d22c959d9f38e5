//! The traced run: the per-layer numbers.
//!
//! Three parts. A shorter wire pass scrapes the server's own counters at
//! phase boundaries. An in-process pass links the crates and puts this
//! harness's stopwatch spans around each layer's public functions, on the
//! same request list. Fixed probes time single public functions of
//! `pip-dist`, `pip-ctable` and `pip-sampling` on fixed inputs. Nothing
//! inside the program is instrumented; spans are kept in memory and written
//! to `out/trace-<workload>.json` at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pip_core::Value;
use pip_ctable::{algebra, consistency_check, CRow, CTable};
use pip_dist::prelude::builtin;
use pip_dist::rng_from_seed;
use pip_engine::sql::{self, Statement};
use pip_engine::{
    compile_predicate, compile_scalar, execute, lower, optimize, Database, Durability, Plan,
    ScalarExpr,
};
use pip_sampling::SamplerConfig;
use pip_server::{handle_line, SessionManager};

use crate::stats;
use crate::timed::{self, ctx, out_dir, DataDir, Res, WireOptions, WireReport};
use crate::wire::{read_reply, Reply};
use crate::workloads::{
    check_reply, generate, sampling_probes, Expect, Request, Setup, Sizes, Workload,
};
use crate::{metric, Metric};

/// What the traced run of one workload produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub summary: String,
    pub attempted: u64,
    pub failed: u64,
}

// ---------------------------------------------------------------- spans

/// One span: a name, when it ran, the span that caused it, its request.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: usize,
    /// `stopwatch`: timed here around a public call. `profile`: split out
    /// of its parent from the operator profiles the call returned.
    source: &'static str,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            source: "stopwatch",
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Time one call as a child span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: usize,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), request);
        let out = call();
        self.close(id);
        out
    }

    fn derived(&mut self, name: &'static str, parent: usize, start_ns: u64, end_ns: u64) {
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
            source: "profile",
        });
    }

    /// Durations in milliseconds of every span called `name`, in order.
    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per span name: a span's duration minus what its children cover.
    fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *by_name.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        by_name
    }

    fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}, \"source\": \"{}\"}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                s.source,
                if id + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        std::fs::create_dir_all(path.parent().expect("trace file has a directory"))?;
        std::fs::write(path, out)
    }
}

// ---------------------------------------------------------------- in-process passes

fn open_database(dir: &Path) -> Res<Arc<Database>> {
    let (db, _) = ctx(Database::recover(dir), "opening the in-process catalog")?;
    ctx(db.set_durability(Durability::Wal), "setting durability")?;
    Ok(Arc::new(db))
}

fn run_setup(db: &Database, setup: &[Setup], checkpoints: bool) -> Res<()> {
    let cfg = SamplerConfig::default();
    for step in setup {
        match step {
            Setup::Sql(text) => {
                ctx(sql::run(db, text, &cfg), "in-process set-up")?;
            }
            Setup::Checkpoint if checkpoints => {
                ctx(db.checkpoint(), "in-process checkpoint")?;
            }
            Setup::Checkpoint => {}
        }
    }
    Ok(())
}

/// Render a result table the way the protocol does: cells tab-separated.
fn render(table: &CTable) -> Reply {
    Reply::Table {
        cached: false,
        header: String::new(),
        rows: table
            .rows()
            .iter()
            .map(|row| {
                row.cells
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect(),
    }
}

/// Counts the traced pass reads off return values.
#[derive(Default)]
struct Counts {
    leaf_rows: u64,
    result_rows: u64,
}

/// One request through the layers' public functions, a span around each.
fn traced_request(
    db: &Database,
    rec: &mut Recorder,
    counts: &mut Counts,
    idx: usize,
    request: &Request,
) -> Res<()> {
    let cfg = SamplerConfig::default().with_seed(request.seed);
    let root = rec.open("request", None, idx);
    let stmt = ctx(
        rec.time("parse", root, idx, || sql::parse(&request.sql)),
        "parse",
    )?;
    let reply = match stmt {
        Statement::Select(plan) => {
            let plan = ctx(
                rec.time("optimize", root, idx, || optimize(db, plan)),
                "optimize",
            )?;
            let mut phys = ctx(
                rec.time("lower", root, idx, || lower(db, &plan, &cfg)),
                "lower",
            )?;
            let collect = rec.open("collect", Some(root), idx);
            let table = ctx(phys.collect(), "execute")?;
            rec.close(collect);
            // The pipelined tree runs the symbolic operators and the
            // sampling head interleaved; the profiles it returns say how
            // much of the call each took.
            let profiles = phys.profiles();
            let sample_ns = (profiles
                .iter()
                .filter(|p| p.sampling)
                .map(|p| p.exclusive_secs)
                .sum::<f64>()
                * 1e9) as u64;
            let (start, end) = (rec.spans[collect].start_ns, rec.spans[collect].end_ns);
            let split = end - sample_ns.min(end - start);
            rec.derived("execute", collect, start, split);
            rec.derived("sample", collect, split, end);
            for (i, p) in profiles.iter().enumerate() {
                let is_leaf = profiles.get(i + 1).is_none_or(|next| next.depth <= p.depth);
                if is_leaf {
                    counts.leaf_rows += p.rows_out;
                }
            }
            counts.result_rows += table.len() as u64;
            rec.time("render", root, idx, || render(&table))
        }
        Statement::Insert { table, rows } => {
            let crows = ctx(
                rec.time("compile", root, idx, || {
                    rows.iter()
                        .map(|row| {
                            row.iter()
                                .map(|e| {
                                    compile_scalar(e, &pip_core::Schema::empty(), &[], db)
                                        .map(|eq| eq.simplify())
                                })
                                .collect::<pip_core::Result<Vec<_>>>()
                                .map(CRow::unconditional)
                        })
                        .collect::<pip_core::Result<Vec<_>>>()
                }),
                "compiling an insert",
            )?;
            ctx(
                rec.time("insert_rows", root, idx, || db.insert_rows(&table, crows)),
                "insert_rows",
            )?;
            render(&CTable::empty(pip_core::Schema::empty()))
        }
        _ => {
            return Err(format!(
                "unexpected statement in a request list: {}",
                request.sql
            ))
        }
    };
    rec.close(root);
    check_reply(request, &reply).map(|_| ())
}

/// One request through `pip_server::handle_line`, the shipped in-process
/// path with no spans. Returns its time in milliseconds.
fn session_request(session: &mut pip_server::Session, request: &Request) -> Res<f64> {
    let start = Instant::now();
    let set = handle_line(session, &format!("SET SEED {}", request.seed));
    let reply = handle_line(session, &format!("QUERY {}", request.sql));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if !set.text.starts_with("OK") {
        return Err(format!("SET SEED answered {}", set.text));
    }
    let reply = ctx(
        read_reply(&mut Cursor::new(reply.text.into_bytes())),
        "in-process reply",
    )?;
    check_reply(request, &reply)?;
    Ok(ms)
}

/// The list both in-process passes run: the closed list, with `mixed_rw`'s
/// writer folded in at its share of the traffic (one insert per three reads).
fn in_process_list(w: &Workload) -> Vec<&Request> {
    let mut writes = w.writer.iter();
    let mut list = Vec::new();
    for (i, r) in w.closed.iter().enumerate() {
        list.push(r);
        if i % 3 == 2 {
            list.extend(writes.next());
        }
    }
    list
}

fn copy_dir(from: &Path, label: &str) -> Res<DataDir> {
    let to = DataDir::create(label)?;
    for entry in ctx(std::fs::read_dir(from), "listing a data dir")? {
        let entry = ctx(entry, "listing a data dir")?;
        ctx(
            std::fs::copy(entry.path(), to.path().join(entry.file_name())),
            "copying a data file",
        )?;
    }
    Ok(to)
}

fn timed_recover(dir: &Path) -> Res<f64> {
    let start = Instant::now();
    ctx(Database::recover(dir), "recovering a copy")?;
    Ok(start.elapsed().as_secs_f64())
}

/// What the two in-process passes measured.
struct InProcess {
    rec: Recorder,
    counts: Counts,
    session_ms: Vec<f64>,
    checkpoint_s: f64,
    snapshot_load_s: f64,
    wal_replay_s: f64,
}

fn in_process(w: &Workload) -> Res<InProcess> {
    let list = in_process_list(w);

    // Spans on: this harness's pipeline over the layers' public functions.
    let traced_dir = DataDir::create("traced")?;
    let db = open_database(traced_dir.path())?;
    run_setup(&db, &w.setup, true)?;
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    for (idx, request) in list.iter().enumerate() {
        traced_request(&db, &mut rec, &mut counts, idx, request)?;
    }

    // Spans off: the same list through the server's own in-process entry
    // point. Its catalog skips the set-up checkpoint, so that its data dir
    // ends up holding the whole history in the WAL alone.
    pip_sampling::block_cache_clear();
    let session_dir = DataDir::create("session")?;
    let session_db = open_database(session_dir.path())?;
    run_setup(&session_db, &w.setup, false)?;
    let mut session = SessionManager::new(Arc::clone(&session_db), SamplerConfig::default()).open();
    let session_ms = list
        .iter()
        .map(|r| session_request(&mut session, r))
        .collect::<Res<Vec<f64>>>()?;

    // `ingest` only: recovery of the final catalog from a WAL-only and from
    // a snapshot-only copy of its data dir. (Snapshot loading is quadratic
    // in rows; on `mixed_rw`'s 20,000 rows it would outlast the run.)
    let (mut checkpoint_s, mut snapshot_load_s, mut wal_replay_s) = (0.0, 0.0, 0.0);
    if !w.verify.is_empty() {
        wal_replay_s = timed_recover(copy_dir(session_dir.path(), "wal-only")?.path())?;
        let start = Instant::now();
        ctx(db.checkpoint(), "explicit checkpoint")?;
        checkpoint_s = start.elapsed().as_secs_f64();
        snapshot_load_s = timed_recover(copy_dir(traced_dir.path(), "snapshot-only")?.path())?;
    }
    Ok(InProcess {
        rec,
        counts,
        session_ms,
        checkpoint_s,
        snapshot_load_s,
        wal_replay_s,
    })
}

// ---------------------------------------------------------------- fixed probes

fn time_ms<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = call();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// `pip-dist`: a million calls through the public generator and inverse CDF.
fn dist_probes(metrics: &mut Vec<Metric>) {
    const CALLS: usize = 1_000_000;
    let per_call_ns = |call: &mut dyn FnMut(usize) -> f64| {
        let start = Instant::now();
        let mut sink = 0.0;
        for i in 0..CALLS {
            sink += call(i);
        }
        std::hint::black_box(sink);
        start.elapsed().as_nanos() as f64 / CALLS as f64
    };
    let mut rng = rng_from_seed(7);
    let normal = builtin::normal();
    let poisson = builtin::poisson();
    let draw_normal = per_call_ns(&mut |_| normal.generate(&[10.0, 2.0], &mut rng));
    let draw_poisson = per_call_ns(&mut |_| poisson.generate(&[3.0], &mut rng));
    let inv_cdf = per_call_ns(&mut |i| {
        let p = (i % 9_999 + 1) as f64 / 10_000.0;
        normal
            .inverse_cdf(&[10.0, 2.0], std::hint::black_box(p))
            .expect("Normal has an inverse CDF")
    });
    metrics.push(metric("pip-dist.draw_ns.normal", "ns", draw_normal));
    metrics.push(metric("pip-dist.draw_ns.poisson", "ns", draw_poisson));
    metrics.push(metric("pip-dist.inv_cdf_ns.normal", "ns", inv_cdf));
}

/// `pip-ctable`: the row kernels on the join workload's base tables and an
/// index seek on `ingest`'s table, all built in memory from fixed inputs.
fn ctable_probes(metrics: &mut Vec<Metric>) -> Res<()> {
    let db = Database::new();
    let zero = Sizes {
        check: 0,
        closed: 0,
        open: 0,
        verify: 0,
    };
    run_setup(&db, &generate("symbolic_join", 0, zero).setup, false)?;
    run_setup(&db, &generate("ingest", 0, zero).setup, false)?;
    let customers = ctx(db.table("customers"), "probe table")?;
    let deliveries = ctx(db.table("deliveries"), "probe table")?;

    let mut join_ms = Vec::new();
    let mut joined = None;
    for _ in 0..5 {
        let (t, ms) =
            time_ms(|| algebra::equi_join(&customers, &deliveries, &[("supp", "supp_id")]));
        joined = Some(ctx(t, "equi_join")?);
        join_ms.push(ms);
    }
    let joined = joined.expect("five joins ran");
    metrics.push(metric(
        "pip-ctable.equi_join_ms",
        "ms",
        stats::median(&join_ms),
    ));

    let predicate = ScalarExpr::col("duration").gt(ScalarExpr::col("thr"));
    let schema = joined.schema().clone();
    let (selected, select_ms) = time_ms(|| {
        algebra::select(&joined, |cells| {
            compile_predicate(&predicate, &schema, cells, &db)
        })
    });
    let selected = ctx(selected, "select")?;
    metrics.push(metric(
        "pip-ctable.select_us_per_row",
        "us",
        select_ms * 1e3 / joined.len() as f64,
    ));

    let ((), consistency_ms) = time_ms(|| {
        for row in selected.rows() {
            std::hint::black_box(consistency_check(&row.condition));
        }
    });
    metrics.push(metric(
        "pip-ctable.consistency_us",
        "us",
        consistency_ms * 1e3 / selected.len() as f64,
    ));

    let index = db
        .index("acct_region")
        .ok_or("the probe catalog has no acct_region index")?
        .index;
    const PROBES: i64 = 10_000;
    let (hits, probe_ms) = time_ms(|| {
        (0..PROBES)
            .map(|i| index.equal_candidates(&Value::Int(i % 1000)).len())
            .sum::<usize>()
    });
    std::hint::black_box(hits);
    metrics.push(metric(
        "pip-ctable.index_probe_us",
        "us",
        probe_ms * 1e3 / PROBES as f64,
    ));
    Ok(())
}

/// `pip-sampling`: `expected_sum` and the per-group `aconf` called on each
/// template's symbolic result (the plan below its aggregate head), fixed seeds.
fn sampling_probes_run(metrics: &mut Vec<Metric>) -> Res<()> {
    let db = Database::new();
    let (setup, templates) = sampling_probes();
    run_setup(&db, &setup, false)?;
    for (label, requests) in templates {
        let (mut ms, mut samples, mut errors) = (Vec::new(), Vec::new(), Vec::new());
        for request in &requests {
            let cfg = SamplerConfig::default().with_seed(request.seed);
            let plan = match ctx(sql::parse(&request.sql), "probe parse")? {
                Statement::Select(plan) => ctx(optimize(&db, plan), "probe optimize")?,
                _ => return Err("sampling probes are SELECTs".into()),
            };
            let Plan::Aggregate { input, .. } = plan else {
                return Err("sampling probes end in an aggregate".into());
            };
            let symbolic = ctx(execute(&db, &input, &cfg), "probe query phase")?;
            let (sum, sum_ms) = time_ms(|| pip_sampling::expected_sum(&symbolic, "x", &cfg));
            let sum = ctx(sum, "expected_sum")?;
            // `conf()` under GROUP BY is the probability that the group is
            // non-empty: `aconf` over the DNF of its rows' conditions.
            let mut groups: BTreeMap<String, Vec<pip_expr::Conjunction>> = BTreeMap::new();
            for row in symbolic.rows() {
                groups
                    .entry(row.cells[0].to_string())
                    .or_default()
                    .push(row.condition.clone());
            }
            let ((), conf_ms) = time_ms(|| {
                for conditions in groups.into_values() {
                    let dnf = pip_expr::Dnf::of(conditions);
                    let _ = std::hint::black_box(pip_sampling::aconf(&dnf, &cfg, 0));
                }
            });
            let Expect::Groups(groups, _) = &request.expect else {
                return Err("sampling probes expect groups".into());
            };
            let truth: f64 = groups.iter().map(|g| g.1).sum();
            ms.push((sum_ms + conf_ms, sum_ms));
            samples.push(sum.n_samples as f64);
            errors.push((sum.value - truth).abs() / truth);
        }
        let total_ms: Vec<f64> = ms.iter().map(|m| m.0).collect();
        metrics.push(metric(
            &format!("pip-sampling.sample_ms.{label}"),
            "ms",
            stats::median(&total_ms),
        ));
        if label != "rare" {
            let sum_ns: f64 = ms.iter().map(|m| m.1 * 1e6).sum();
            metrics.push(metric(
                &format!("pip-sampling.ns_per_sample.{label}"),
                "ns",
                sum_ns / samples.iter().sum::<f64>().max(1.0),
            ));
        }
        metrics.push(metric(
            &format!("pip-sampling.samples_per_query.{label}"),
            "count",
            stats::median(&samples),
        ));
        metrics.push(metric(
            &format!("pip-sampling.rel_err.{label}"),
            "ratio",
            stats::rms(&errors),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------- assembly

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The per-layer table printed beside the metrics: self time by layer,
/// against the in-process request time, the remainder shown and not hidden.
fn layer_summary(name: &str, self_ms: &BTreeMap<&'static str, f64>, request_ms: f64) -> String {
    let layer_of = |span: &str| match span {
        "parse" | "optimize" | "lower" | "execute" | "compile" | "insert_rows" => "pip-engine",
        "sample" => "pip-sampling",
        "render" => "pip-server",
        "request" | "collect" => "(unattributed)",
        other => panic!("span {other} has no layer"),
    };
    let mut out =
        format!("per-layer self time, {name}, in-process ({request_ms:.1} ms of requests)\n");
    let _ = writeln!(
        out,
        "  {:<16} {:<14} {:>12} {:>8}",
        "layer", "span", "self ms", "share"
    );
    for (span, ms) in self_ms {
        let _ = writeln!(
            out,
            "  {:<16} {:<14} {:>12.3} {:>7.2}%",
            layer_of(span),
            span,
            ms,
            100.0 * ms / request_ms
        );
    }
    out
}

pub fn run(name: &'static str, seed: u64, seconds: f64) -> Res<Traced> {
    let w = generate(name, seed, Sizes::of(name, seconds, true));
    let wire: WireReport = timed::run(
        &w,
        &WireOptions {
            setup_repeats: 1,
            parallel_probe: true,
        },
    )?;
    crate::check_validity(&wire)?;
    let inp = in_process(&w)?;
    let trace_path = out_dir().join(format!("trace-{name}.json"));
    ctx(inp.rec.write_json(&trace_path), "writing the trace")?;

    let rec = &inp.rec;
    let self_ms = rec.self_times_ms();
    let request_ms: f64 = rec.durations_ms("request").iter().sum();
    let unattributed = (self_ms.get("request").copied().unwrap_or(0.0)
        + self_ms.get("collect").copied().unwrap_or(0.0))
        / request_ms;
    // An empty sum is -0.0; adding 0.0 prints it as 0.
    let share = |span: &str| rec.durations_ms(span).iter().sum::<f64>() / request_ms + 0.0;
    let session_total: f64 = inp.session_ms.iter().sum();
    let session_p50 = stats::median(&inp.session_ms);
    let inserts = rec.durations_ms("insert_rows");
    // A tenth of the inserts, at least one when there are any.
    let tenth = (inserts.len() / 10).max(1).min(inserts.len());

    let us = |span: &str| median_or_zero(&rec.durations_ms(span)) * 1e3;
    let mut m = vec![
        // Where the in-process request time goes, on this workload's list.
        metric("pip-engine.parse_us", "us", us("parse")),
        metric("pip-engine.optimize_us", "us", us("optimize")),
        metric("pip-engine.lower_us", "us", us("lower")),
        metric(
            "pip-engine.execute_ms",
            "ms",
            median_or_zero(&rec.durations_ms("execute")),
        ),
        metric("pip-engine.execute_share", "ratio", share("execute")),
        metric(
            "pip-engine.rows_scanned_per_result",
            "count",
            inp.counts.leaf_rows as f64 / inp.counts.result_rows.max(1) as f64,
        ),
        metric(
            "pip-engine.index_path_share",
            "ratio",
            wire.index_path_share,
        ),
        metric(
            "pip-engine.insert_rows_ms.first",
            "ms",
            mean(&inserts[..tenth]),
        ),
        metric(
            "pip-engine.insert_rows_ms.last",
            "ms",
            mean(&inserts[inserts.len() - tenth..]),
        ),
        metric(
            "pip-sampling.sample_ms",
            "ms",
            median_or_zero(&rec.durations_ms("sample")),
        ),
        metric("pip-sampling.sample_share", "ratio", share("sample")),
        metric("pip-sampling.est_rel_err", "ratio", wire.est_rel_err),
        metric(
            "pip-sampling.metropolis_escalations",
            "count",
            wire.metropolis_escalations,
        ),
        metric(
            "pip-sampling.kernel_compiles",
            "count",
            wire.kernel_compiles,
        ),
        metric(
            "pip-sampling.block_cache_hit_ratio",
            "ratio",
            wire.block_cache_hit_ratio,
        ),
        // Storage: the server's own counters over the wire phases, and
        // recovery of the final catalog (ingest only; 0 elsewhere).
        metric("pip-store.wal_append_us", "us", wire.wal_append_us),
        metric("pip-store.wal_bytes_per_row", "B", wire.wal_bytes_per_row),
        metric("pip-store.fsyncs", "count", wire.fsyncs),
        metric("pip-store.disk_bytes_per_row", "B", wire.disk_bytes_per_row),
        metric("pip-store.checkpoints", "count", wire.checkpoints),
        metric("pip-store.checkpoint_s", "s", inp.checkpoint_s),
        metric("pip-store.snapshot_load_s", "s", inp.snapshot_load_s),
        metric("pip-store.wal_replay_s", "s", inp.wal_replay_s),
        metric("pip-store.recover_s", "s", wire.recover_s),
        // The serving layer, seen from the client and from its counters.
        metric("pip-server.ping_rtt_us", "us", wire.ping_rtt_us),
        metric("pip-server.session_query_ms", "ms", session_p50),
        metric(
            "pip-server.wire_overhead_ms",
            "ms",
            wire.closed_lat_p50_ms - session_p50,
        ),
        metric(
            "pip-server.reply_bytes_per_op",
            "B",
            wire.reply_bytes_per_op,
        ),
        metric("pip-server.cpu_ms_per_op", "ms", wire.cpu_ms_per_op),
        metric("pip-server.lat_p90_ms", "ms", wire.lat_p90_ms),
        // The honest parallel row: the closed list's first half on one
        // connection, its second half on two (0 on `mixed_rw`, whose
        // second connection is the writer).
        metric("pip-server.closed_qps_1conn", "1/s", wire.closed_qps),
        metric("pip-server.closed_qps_2conn", "1/s", wire.closed_qps_2conn),
        metric("pip-server.admission_wait_ms", "ms", wire.admission_wait_ms),
        metric("pip-server.slice_ms", "ms", wire.slice_ms),
        metric("pip-server.rejected", "count", wire.rejected),
        metric(
            "pip-server.result_cache_hits",
            "count",
            wire.result_cache_hits,
        ),
        metric("pip-server.write_lat_p50_ms", "ms", wire.write_lat_p50_ms),
        metric("pip-server.write_lat_p90_ms", "ms", wire.write_lat_p90_ms),
        // Validity of the run itself.
        metric("gen.late_ms_p90", "ms", wire.late_ms_p90),
        metric("gen.window_spread", "ratio", wire.window_spread),
        metric("gen.steal_frac", "ratio", wire.steal_frac),
        metric(
            "trace.overhead_frac",
            "ratio",
            request_ms / session_total - 1.0,
        ),
        metric("trace.unattributed_frac", "ratio", unattributed),
    ];
    // Single public functions on fixed inputs, the same on every workload.
    dist_probes(&mut m);
    ctable_probes(&mut m)?;
    sampling_probes_run(&mut m)?;

    let mut summary = layer_summary(name, &self_ms, request_ms);
    let _ = writeln!(
        summary,
        "predicted split: sampling {:.1} % of in-process request time, execute {:.1} %, unattributed {:.2} %",
        100.0 * share("sample"),
        100.0 * share("execute"),
        100.0 * unattributed
    );
    let _ = write!(
        summary,
        "spans: {} written to {}",
        rec.spans.len(),
        trace_path.display()
    );
    Ok(Traced {
        metrics: m,
        summary,
        attempted: wire.attempted + 2 * in_process_list(&w).len() as u64,
        failed: wire.failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let mut rec = Recorder::new();
        let root = rec.open("request", None, 0);
        rec.spans[root].start_ns = 0;
        rec.spans[root].end_ns = 10_000_000;
        let collect = rec.open("collect", Some(root), 0);
        rec.spans[collect].start_ns = 1_000_000;
        rec.spans[collect].end_ns = 9_000_000;
        rec.derived("execute", collect, 1_000_000, 3_000_000);
        rec.derived("sample", collect, 3_000_000, 9_000_000);
        let own = rec.self_times_ms();
        assert_eq!(own["request"], 2.0);
        assert_eq!(own["collect"], 0.0);
        assert_eq!(own["execute"], 2.0);
        assert_eq!(own["sample"], 6.0);
        assert_eq!(rec.durations_ms("sample"), vec![6.0]);
        assert_eq!(rec.spans[3].request, 0);
        assert_eq!(rec.spans[3].source, "profile");
    }
}
