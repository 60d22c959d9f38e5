//! **Figure 6** — query evaluation times for Q1–Q4 in PIP (split into
//! query and sample phases) and Sample-First (sample count adjusted to
//! match PIP's accuracy: ×1 for Q1/Q2 where nothing is discarded, ×10
//! for Q3 at selectivity 0.1, ×200 for Q4 at selectivity 0.005 — the
//! paper's "(2985 s)" off-the-chart bar).
//!
//! PIP runs with the exact-CDF shortcut disabled so that both systems
//! genuinely draw the same number of samples, as in the paper's setup;
//! experiment 1 of the `ablation` binary shows what the exact paths buy
//! on top.

use serde::Serialize;
use std::time::Instant;

use pip_engine::{
    execute_materialized_with_stats, execute_with_stats, optimize, optimize_with, scalar_result,
    Database, OptimizerConfig, Plan,
};
use pip_sampling::SamplerConfig;
use pip_workloads::plans::{self, StarShape};
use pip_workloads::queries::{self, Timed};
use pip_workloads::tpch::{generate, TpchConfig};

#[derive(Serialize)]
struct Row {
    query: &'static str,
    pip_query_secs: f64,
    pip_sample_secs: f64,
    pip_total_secs: f64,
    sf_total_secs: f64,
    sf_worlds: usize,
}

fn emit(query: &'static str, pip: Timed, sf: Timed, sf_worlds: usize) {
    let r = Row {
        query,
        pip_query_secs: pip.query_secs,
        pip_sample_secs: pip.sample_secs,
        pip_total_secs: pip.query_secs + pip.sample_secs,
        sf_total_secs: sf.query_secs + sf.sample_secs,
        sf_worlds,
    };
    pip_bench::row(
        &[
            query.to_string(),
            format!("{:.3}", r.pip_query_secs),
            format!("{:.3}", r.pip_sample_secs),
            format!("{:.3}", r.pip_total_secs),
            format!("{:.3}", r.sf_total_secs),
            format!("{sf_worlds}"),
        ],
        &r,
    );
}

/// One timed executor run: (query-phase secs, result value).
fn timed_exec(db: &Database, plan: &Plan, cfg: &SamplerConfig, materialized: bool) -> (f64, f64) {
    let (table, stats) = if materialized {
        execute_materialized_with_stats(db, plan, cfg).expect("materialized exec")
    } else {
        execute_with_stats(db, plan, cfg).expect("streaming exec")
    };
    (stats.query_secs, scalar_result(&table).expect("scalar"))
}

/// Best-of-`trials` query-phase seconds, plus the (deterministic, hence
/// trial-invariant) result value for the cross-variant bit check.
fn best_of(
    trials: usize,
    db: &Database,
    plan: &Plan,
    cfg: &SamplerConfig,
    materialized: bool,
) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut value = f64::NAN;
    for _ in 0..trials {
        let (secs, v) = timed_exec(db, plan, cfg, materialized);
        best = best.min(secs);
        value = v;
    }
    (best, value)
}

#[derive(Serialize)]
struct ExecSummary {
    workload: &'static str,
    customers: usize,
    suppliers: usize,
    selectivity: f64,
    /// Legacy materializing executor on the predicate-pushdown-only plan
    /// (the pre-refactor engine configuration).
    materialized_query_secs: f64,
    /// Materializing executor plus projection pushdown: isolates what
    /// column pruning buys when intermediates are cloned wholesale.
    materialized_pushdown_query_secs: f64,
    /// Pipelined executor, predicate pushdown only.
    streaming_query_secs: f64,
    /// Pipelined executor plus projection pushdown (the shipped default).
    streaming_pushdown_query_secs: f64,
    executor_speedup: f64,
    pushdown_speedup_materialized: f64,
    pushdown_speedup_streaming: f64,
    total_speedup: f64,
    bit_identical: bool,
}

/// The fig6 join workload (Q3's selective join as a full engine plan),
/// run through the materializing executor and the pipelined executor
/// before/after cost-gated projection pushdown. Each executor gets the
/// plan its own cost target produces (`OptimizerConfig::materializing`
/// prunes aggressively; the streaming default prunes only where the
/// narrower rows repay the extra stage).
fn exec_comparison(scale: f64) -> (ExecSummary, Vec<PlanShape>) {
    let data = generate(&TpchConfig::scaled(scale, 0x33));
    let sel = 0.1;
    let db = plans::join_db(&data, sel).expect("join db");
    let raw = plans::join_plan();
    let pred_only = pip_engine::optimize::push_selects(&db, raw.clone()).expect("push_selects");
    let full_mat = optimize_with(&db, raw.clone(), &OptimizerConfig::materializing())
        .expect("optimize for materializing");
    let full_stream = optimize(&db, raw).expect("optimize");
    // A fixed sampling budget keeps the sample phase identical across
    // variants; only the query phase is under test.
    let cfg = SamplerConfig::fixed_samples(200);
    let trials = 9;

    println!("\n# Executor comparison on the fig6 join workload (Q3 shape, sel {sel}):");
    println!("# materializing (pre-refactor) vs pipelined, before/after cost-gated pushdown.");
    pip_bench::header(&["variant", "query_secs", "value"]);
    let (mat_secs, mat_v) = best_of(trials, &db, &pred_only, &cfg, true);
    println!("materialized\t{mat_secs:.4}\t{mat_v:.3}");
    let (mat_push_secs, mat_push_v) = best_of(trials, &db, &full_mat, &cfg, true);
    println!("materialized+pushdown\t{mat_push_secs:.4}\t{mat_push_v:.3}");
    let (stream_secs, stream_v) = best_of(trials, &db, &pred_only, &cfg, false);
    println!("streaming\t{stream_secs:.4}\t{stream_v:.3}");
    let (push_secs, push_v) = best_of(trials, &db, &full_stream, &cfg, false);
    println!("streaming+pushdown\t{push_secs:.4}\t{push_v:.3}");

    let bit_identical = [mat_push_v, stream_v, push_v]
        .iter()
        .all(|v| v.to_bits() == mat_v.to_bits());
    assert!(
        bit_identical,
        "executor variants disagree: {mat_v} / {mat_push_v} / {stream_v} / {push_v}"
    );
    let summary = ExecSummary {
        workload: "fig6_q3_join",
        customers: data.customers.len(),
        suppliers: data.suppliers.len(),
        selectivity: sel,
        materialized_query_secs: mat_secs,
        materialized_pushdown_query_secs: mat_push_secs,
        streaming_query_secs: stream_secs,
        streaming_pushdown_query_secs: push_secs,
        executor_speedup: mat_secs / stream_secs,
        pushdown_speedup_materialized: mat_secs / mat_push_secs,
        pushdown_speedup_streaming: stream_secs / push_secs,
        total_speedup: mat_secs / push_secs,
        bit_identical,
    };
    println!(
        "# speedup: executor {:.2}x, pushdown (materialized) {:.2}x, pushdown (streaming) {:.2}x, total {:.2}x",
        summary.executor_speedup,
        summary.pushdown_speedup_materialized,
        summary.pushdown_speedup_streaming,
        summary.total_speedup
    );
    let shapes = vec![
        PlanShape {
            name: "fig6_join_pred_only",
            shape: pred_only.shape_json(),
        },
        PlanShape {
            name: "fig6_join_materializing",
            shape: full_mat.shape_json(),
        },
        PlanShape {
            name: "fig6_join_streaming",
            shape: full_stream.shape_json(),
        },
    ];
    (summary, shapes)
}

/// Rows produced by every operator of one pipelined run of `plan`.
fn rows_out(db: &Database, plan: &Plan, cfg: &SamplerConfig) -> u64 {
    let (_, stats) = execute_with_stats(db, plan, cfg).expect("streaming exec");
    stats.ops.iter().map(|p| p.rows_out).sum()
}

#[derive(Serialize)]
struct JoinOrderSummary {
    workload: &'static str,
    fact_rows: usize,
    dim_a_rows: usize,
    dim_b_rows: usize,
    dim_c_rows: usize,
    c_selectivity: f64,
    /// Query phase of the plan executed in written order (predicate +
    /// projection pushdown only — the pre-cost-based-optimizer engine).
    written_query_secs: f64,
    /// Query phase of the cost-based plan (join graph reordered by
    /// estimated cardinality).
    cost_based_query_secs: f64,
    reorder_speedup: f64,
    /// Rows produced, summed over every operator of the executed plan:
    /// the deterministic work count the gate compares.
    written_rows_out: u64,
    cost_based_rows_out: u64,
    values_identical: bool,
}

/// The join-order workload: a 4-table star with skewed cardinalities,
/// written in FROM-clause product order. Compares written-order
/// execution against the cost-based optimizer's plan on the pipelined
/// executor, and FAILS (panics → non-zero exit, caught by CI's bench
/// smoke) if the optimizer's plan does more work than written order,
/// counted as rows produced over all operators. Pushdown already runs
/// the written order as hash joins, so comparing the two plans' seconds
/// would compare milliseconds on a shared runner.
fn join_order_comparison(scale: f64) -> (JoinOrderSummary, Vec<PlanShape>) {
    let shape = StarShape::of(((2400.0 * scale) as usize).max(60));
    let db = plans::star_db(&shape).expect("star db");
    let raw = plans::star_plan_written(&shape);
    let written_cfg = OptimizerConfig {
        reorder_joins: false,
        ..OptimizerConfig::default()
    };
    let written = optimize_with(&db, raw.clone(), &written_cfg).expect("written-order plan");
    let cost_based = optimize(&db, raw).expect("cost-based plan");
    let cfg = SamplerConfig::fixed_samples(50);
    let trials = 9;

    println!("\n# Join-order workload: 4-table star, skewed cardinalities, written as products.");
    println!(
        "# fact={} dim_a={} dim_b={} dim_c={} (filter keeps {:.0}%)",
        shape.fact,
        shape.dim_a,
        shape.dim_b,
        shape.dim_c,
        shape.c_selectivity * 100.0
    );
    pip_bench::header(&["variant", "query_secs", "value"]);
    let (written_secs, written_v) = best_of(trials, &db, &written, &cfg, false);
    println!("written-order\t{written_secs:.4}\t{written_v:.3}");
    let (cost_secs, cost_v) = best_of(trials, &db, &cost_based, &cfg, false);
    println!("cost-based\t{cost_secs:.4}\t{cost_v:.3}");

    // The aggregate sums integer-valued doubles, so the total is exact
    // and must match bit-for-bit across plan shapes.
    let values_identical = written_v.to_bits() == cost_v.to_bits();
    assert!(
        values_identical,
        "plans disagree: written {written_v} vs cost-based {cost_v}"
    );
    let written_rows = rows_out(&db, &written, &cfg);
    let cost_rows = rows_out(&db, &cost_based, &cfg);
    println!("# rows produced: written order {written_rows}, cost-based {cost_rows}");
    let summary = JoinOrderSummary {
        workload: "star_join_order",
        fact_rows: shape.fact,
        dim_a_rows: shape.dim_a,
        dim_b_rows: shape.dim_b,
        dim_c_rows: shape.dim_c,
        c_selectivity: shape.c_selectivity,
        written_query_secs: written_secs,
        cost_based_query_secs: cost_secs,
        reorder_speedup: written_secs / cost_secs,
        written_rows_out: written_rows,
        cost_based_rows_out: cost_rows,
        values_identical,
    };
    println!(
        "# cost-based plan speedup over written order: {:.2}x",
        summary.reorder_speedup
    );
    // The CI gate: a cost-based optimizer that picks a plan worse than
    // the written order is a regression, not a tuning matter.
    assert!(
        cost_rows <= written_rows,
        "cost-based plan produces {cost_rows} rows, written order {written_rows}"
    );
    let shapes = vec![
        PlanShape {
            name: "star_written_order",
            shape: written.shape_json(),
        },
        PlanShape {
            name: "star_cost_based",
            shape: cost_based.shape_json(),
        },
    ];
    (summary, shapes)
}

/// One workload query's optimizer-chosen plan shape (the logical
/// operator tree as JSON — what `EXPLAIN (FORMAT JSON)` reports under
/// `logical`, minus the volatile row estimates).
#[derive(Serialize, Clone, PartialEq)]
struct PlanShape {
    name: &'static str,
    shape: String,
}

/// Everything recorded into `BENCH_exec.json`.
#[derive(Serialize)]
struct BenchRecord {
    exec: ExecSummary,
    join_order: JoinOrderSummary,
    /// Workload scale the plan shapes were captured at (shapes are only
    /// diffed between runs at the same scale — statistics, and thus
    /// cost-based choices, legitimately change with scale).
    plan_scale: String,
    /// The plan-shape regression corpus: every workload query's
    /// optimizer output. The guard fails the run when a shape changes
    /// against the previously recorded file on the same inputs.
    plans: Vec<PlanShape>,
}

/// Compare freshly captured plan shapes against the previously recorded
/// `BENCH_exec.json` (if it exists, has a plan corpus, and was captured
/// at the same scale). An unexpected shape change panics — a cost-model
/// tweak that silently flips a workload plan is exactly the regression
/// this corpus exists to catch. Re-baseline deliberate changes with
/// `PIP_BENCH_ACCEPT_PLANS=1`.
fn guard_plan_shapes(previous_path: &str, scale_tag: &str, plans: &[PlanShape]) {
    let Ok(old) = std::fs::read_to_string(previous_path) else {
        println!("# plan guard: no previous {previous_path}, recording baseline shapes");
        return;
    };
    if !old.contains("\"plans\":") {
        println!("# plan guard: previous record predates the plan corpus, recording baseline");
        return;
    }
    let scale_needle = format!(
        "\"plan_scale\":{}",
        serde_json::to_string(scale_tag).expect("scale json")
    );
    if !old.contains(&scale_needle) {
        println!("# plan guard: previous record at a different scale, recording baseline");
        return;
    }
    let mut changed: Vec<&str> = Vec::new();
    for p in plans {
        let entry = serde_json::to_string(p).expect("plan entry json");
        if !old.contains(&entry) {
            changed.push(p.name);
        }
    }
    if changed.is_empty() {
        println!(
            "# plan guard: all {} workload plan shapes unchanged",
            plans.len()
        );
        return;
    }
    if std::env::var("PIP_BENCH_ACCEPT_PLANS").as_deref() == Ok("1") {
        println!(
            "# plan guard: accepting changed shapes for {changed:?} (PIP_BENCH_ACCEPT_PLANS=1)"
        );
        return;
    }
    panic!(
        "optimizer plan shape changed for {changed:?} on unchanged inputs; \
         inspect the new shapes in the run output and re-baseline with PIP_BENCH_ACCEPT_PLANS=1 if intended"
    );
}

fn main() {
    let quick = pip_bench::quick();
    let scale = pip_bench::scale() * if quick { 0.05 } else { 1.0 };
    let data = generate(&TpchConfig::scaled(scale, 0x66));
    let n = ((1000.0 * scale) as usize).max(20);

    println!("# Figure 6: query evaluation times, PIP (query+sample) vs Sample-First.");
    println!("# SF sample counts adjusted to match PIP accuracy (x10 for Q3, x200 for Q4).");
    pip_bench::header(&[
        "query",
        "pip_query_secs",
        "pip_sample_secs",
        "pip_total_secs",
        "sf_total_secs",
        "sf_worlds",
    ]);

    // Force genuine sampling in PIP for an apples-to-apples "n samples"
    // comparison (the paper's PIP also sampled these).
    let mut cfg = SamplerConfig::fixed_samples(n);
    cfg.use_exact_cdf = false;

    // Q1 / Q2: no selection — SF needs no extra worlds.
    let pip = queries::q1_pip(&data, &cfg).expect("q1 pip");
    let sf = queries::q1_sf(&data, n, 1).expect("q1 sf");
    emit("Q1", pip, sf, n);

    let pip = queries::q2_pip(&data, &cfg, n).expect("q2 pip");
    let sf = queries::q2_sf(&data, n, 2).expect("q2 sf");
    emit("Q2", pip, sf, n);

    // Q3: selectivity 0.1 → SF at 10×n.
    let sel3 = 0.1;
    let pip = queries::q3_pip(&data, sel3, &cfg).expect("q3 pip");
    let sf_worlds = n * 10;
    let sf = queries::q3_sf(&data, sel3, sf_worlds, 3).expect("q3 sf");
    emit("Q3", pip, sf, sf_worlds);

    // Q4: selectivity 0.005 → SF at 200×n (the paper's 2985 s outlier).
    // Run Q4 over a reduced part table so the SF bar finishes in minutes
    // rather than hours; the cap is printed, never silent.
    let sel4 = 0.005;
    let data4 = generate(&TpchConfig::scaled(0.2 * scale, 0x66));
    let t0 = Instant::now();
    let pip4 = queries::q4_pip(&data4, sel4, &cfg).expect("q4 pip");
    let _ = t0;
    let sf_worlds = ((n as f64 / sel4) as usize).min(100_000);
    if sf_worlds < (n as f64 / sel4) as usize {
        println!(
            "# note: Q4 SF world count capped at {sf_worlds} (uncapped would be {}).",
            (n as f64 / sel4) as usize
        );
    }
    println!("# note: Q4 row uses a 0.2x part table for both systems.");
    let sf4 = queries::q4_sf(&data4, sel4, sf_worlds, 4).expect("q4 sf");
    emit(
        "Q4",
        Timed {
            value: f64::NAN,
            query_secs: pip4.query_secs,
            sample_secs: pip4.sample_secs,
        },
        Timed {
            value: f64::NAN,
            query_secs: sf4.query_secs,
            sample_secs: sf4.sample_secs,
        },
        sf_worlds,
    );

    // The join workload runs 4x the figure scale: query-phase cost is
    // what the executor comparison measures, so give it enough rows.
    let (exec, mut plans) = exec_comparison(4.0 * scale);
    let (join_order, star_plans) = join_order_comparison(scale);
    plans.extend(star_plans);

    // The plan-shape regression guard: same inputs must produce the
    // same optimizer output as the previously recorded run.
    let plan_scale = format!("{scale}");
    let path = std::env::var("PIP_BENCH_EXEC_OUT").unwrap_or_else(|_| "BENCH_exec.json".into());
    guard_plan_shapes(&path, &plan_scale, &plans);

    let record = BenchRecord {
        exec,
        join_order,
        plan_scale,
        plans,
    };
    let json = serde_json::to_string(&record).expect("record json");
    std::fs::write(&path, format!("{json}\n")).expect("write BENCH_exec.json");
    println!("# wrote {path}");
}
