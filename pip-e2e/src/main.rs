//! `pip-e2e`: the repository's benchmark. See `README.md` beside this
//! package for the metrics, the workloads and how they interact.

mod host;
mod oracle;
mod repeat;
mod server;
mod stats;
mod timed;
mod trace;
mod wire;
mod workloads;

use std::process::ExitCode;

use timed::{Res, WireOptions, WireReport};
use workloads::{frozen, generate, Sizes, WORKLOADS};

/// `--seconds` when none is given; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 22.0;
/// `--quick`: about 15 s over all four workloads, for smoke use only.
const QUICK_SECONDS: f64 = 3.0;

pub struct Args {
    pub workloads: Vec<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub repeat_check: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: pip-e2e [--workload {}] [--seed N] [--seconds N] [--trace 0|1]\n\
         \x20      [--quick] [--repeat-check [RUNS_PER_SET]]\n\
         Without --workload every workload runs in turn.",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat_check: None,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| **w == name)
                    .ok_or(format!("unknown workload {name}"))?;
                args.workloads = vec![known];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 120.0)
                    .ok_or("--seconds needs a number from 1 to 120")?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "--repeat-check" => {
                let runs = it.peek().and_then(|v| v.parse().ok());
                if runs.is_some() {
                    it.next();
                }
                args.repeat_check = Some(runs.unwrap_or(5));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = QUICK_SECONDS;
    }
    Ok(args)
}

/// The line every output carries: what the numbers were measured on.
pub fn hardware_line(quick: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "hardware: nproc={nproc} cpu=\"{cpu}\" commit={} flush_policy=\"{}\" quick={quick}",
        commit(),
        server::FLUSH_POLICY
    )
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark's checkout may not be a repository).
fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|h| h.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None => head,
    };
    hash.chars().take(12).collect()
}

/// One named, unit-carrying number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// The end-to-end metrics, which every workload reports.
pub fn end_to_end(r: &WireReport) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", r.setup_s),
        metric("closed_qps", "1/s", r.closed_qps),
        metric("lat_p50_ms", "ms", r.lat_p50_ms),
        metric("slo_ok_frac", "ratio", r.slo_ok_frac),
        metric("rss_peak_mb", "MiB", r.rss_peak_mb),
    ]
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<44} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

/// The result line the driver reads: one JSON object, last on stdout.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    quick: bool,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, {}\"metrics\": {{{}}}}}",
        if quick { "\"quick\": true, " } else { "" },
        body.join(", ")
    )
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v:?}")
}

/// Seconds this checkout may spend in all on second attempts. Whoever runs
/// the benchmark many times in a row has a time limit for all the runs
/// together; on a host that is busy throughout, measuring every run twice
/// would spend it. The count is kept in `pip-e2e/out/redo-seconds`.
const REDO_BUDGET_S: f64 = 240.0;

fn redo_seconds_file() -> std::path::PathBuf {
    timed::out_dir().join("redo-seconds")
}

fn redo_seconds_spent() -> f64 {
    std::fs::read_to_string(redo_seconds_file())
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The timed run of one workload: the server as shipped, tracing off.
///
/// A run during which the host took more than [`host::DISTURBED`] of the
/// CPU time a timed phase wanted measured the host, not the program (the
/// issue's "invalid, not slow"). It is measured again, once, when the host
/// is quiet, and the attempt the host disturbed less is the run's result:
/// the choice looks at the host's steal counter only, never at a metric.
pub fn timed_run(name: &'static str, seed: u64, seconds: f64) -> Res<WireReport> {
    let w = generate(name, seed, Sizes::of(name, seconds, false));
    let opts = WireOptions {
        setup_repeats: 5,
        parallel_probe: false,
    };
    let first = timed::run(&w, &opts)?;
    if first.steal_frac <= host::DISTURBED {
        return Ok(first);
    }
    let spent = redo_seconds_spent();
    if spent >= REDO_BUDGET_S {
        println!(
            "DISTURBED (not slow): the host took {:.1} % of a timed phase's CPU time; \
             the {REDO_BUDGET_S} s for second attempts are spent, so this one stands",
            100.0 * first.steal_frac
        );
        return Ok(first);
    }
    println!(
        "DISTURBED (not slow): the host took {:.1} % of a timed phase's CPU time; measuring again",
        100.0 * first.steal_frac
    );
    let again = std::time::Instant::now();
    let waited = host::wait_until_quiet();
    let second = timed::run(&w, &opts)?;
    println!(
        "second attempt after {:.1} s: the host took {:.1} %",
        waited.as_secs_f64(),
        100.0 * second.steal_frac
    );
    let spent = spent + again.elapsed().as_secs_f64();
    timed::ctx(
        std::fs::write(redo_seconds_file(), format!("{spent:.1}\n")),
        "recording the time spent on second attempts",
    )?;
    Ok(if second.steal_frac < first.steal_frac {
        second
    } else {
        first
    })
}

fn run_workload(name: &'static str, args: &Args) -> Res<String> {
    println!(
        "== {name} seed={} seconds={} trace={} ==",
        args.seed, args.seconds, args.trace as u8
    );
    println!("{}", hardware_line(args.quick));
    let f = frozen(name);
    println!(
        "frozen: closed_connections={} open_rate={}/s slo_ms={} connections={} server_args={:?}",
        f.closed_connections, f.open_rate, f.slo_ms, f.connections, f.server_args
    );
    if args.trace {
        let t = trace::run(name, args.seed, args.seconds)?;
        print_table("per-layer metrics", &t.metrics);
        println!("{}", t.summary);
        return Ok(result_line(
            true,
            t.attempted,
            t.failed,
            &t.metrics,
            args.quick,
        ));
    }
    let r = timed_run(name, args.seed, args.seconds)?;
    let metrics = end_to_end(&r);
    print_table("end-to-end metrics", &metrics);
    println!(
        "  ops attempted={} failed={} (open-loop requests={})",
        r.attempted, r.failed, r.open_requests
    );
    print_table(
        "beside them (per-layer list; not compared across commits by a bound)",
        &[
            metric("pip-server.lat_p90_ms", "ms", r.lat_p90_ms),
            metric("pip-server.cpu_ms_per_op", "ms", r.cpu_ms_per_op),
            metric("gen.late_ms_p90", "ms", r.late_ms_p90),
            metric("gen.window_spread", "ratio", r.window_spread),
            metric("gen.steal_frac", "ratio", r.steal_frac),
            metric("pip-server.result_cache_hits", "count", r.result_cache_hits),
            metric("pip-sampling.est_rel_err", "ratio", r.est_rel_err),
            metric("pip-store.recover_s", "s", r.recover_s),
        ],
    );
    check_validity(&r)?;
    Ok(result_line(
        true,
        r.attempted,
        r.failed,
        &metrics,
        args.quick,
    ))
}

/// Traffic that leaked into the result cache measured the cache, not the
/// engine: a generator bug, so the run fails. A generator that ran late is
/// the box's doing (a starved host), so it is reported, loudly, and the
/// numbers of such a run should not be recorded.
pub fn check_validity(r: &WireReport) -> Res<()> {
    if r.result_cache_hits != 0.0 {
        return Err(format!(
            "invalid run: {} requests were served from the result cache",
            r.result_cache_hits
        ));
    }
    if r.late_ms_p90 > 1.0 {
        println!(
            "INVALID (not slow): generator p90 lateness {:.3} ms exceeds 1 ms; the host starved the generator",
            r.late_ms_p90
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.repeat_check {
        Some(runs) => repeat::check(&args, runs),
        None => args
            .workloads
            .iter()
            .try_for_each(|name| run_workload(name, &args).map(|line| println!("{line}"))),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // No result line: a wrong, missing or failed answer outside the
            // counted-failure paths fails the run.
            eprintln!("pip-e2e: {msg}");
            ExitCode::FAILURE
        }
    }
}
