//! Aggregate sampling operators (paper Sections IV-C and V-C):
//! `expected_sum`, `expected_count`, `expected_avg`, `expected_max`, and
//! their histogram variants.
//!
//! Aggregates use *per-table* sampling semantics: the probability of each
//! row's presence is folded into the aggregate. `sum`/`count` obey
//! linearity of expectation and decompose into per-row expectation ×
//! confidence; `max` does not, and gets either the sorted-scan algorithm
//! of Example 4.4 (constant targets) or naive per-world evaluation
//! (symbolic targets).
//!
//! The per-row fan-out runs each row's `expectation`/`conf` closed forms
//! first: a row whose expression is affine and shares no variable with
//! an atom of its condition (paper Example 3.1) is `E[cell]·P[φ]` by
//! linearity and per-group CDFs, and draws nothing and compiles no tape
//! (a condition group without a closed form still gets its fixed-budget
//! probe). Every other row goes through the group kernels: the row's
//! equation and condition lower once into slot-indexed tapes and
//! kernels ([`crate::tape`]), samples land in
//! columnar blocks ([`crate::blocks`]), and identical `(group,
//! seed-site)` draw sequences — e.g. `expected_count` next to
//! `expected_avg` in one SELECT list, or a re-executed prepared
//! statement — are served from the sample-block cache. All of it
//! bit-identical to the tree-walking [`crate::oracle`], at every thread
//! count.

use pip_core::{PipError, Result};

use pip_ctable::CTable;

use crate::confidence::conf;
use crate::config::SamplerConfig;
use crate::expectation::expectation;
use crate::parallel::{concurrency, run_indexed};
use crate::worlds::sample_worlds;

/// Result of an aggregate operator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateResult {
    /// The aggregate's expected value.
    pub value: f64,
    /// Total samples drawn across all rows/worlds (0 for exact paths).
    pub n_samples: usize,
}

/// `expected_sum(col)` — Σ rows E[χ_φ · cell] = Σ E[cell | φ]·P[φ]
/// (linearity of expectation, Section II-C).
///
/// Per-row sample budgets are relaxed by √N (law of large numbers: the
/// per-row errors average out in the sum, Section IV-C). Rows answered
/// in closed form (see [`expectation`]) run no averaging loop and add 0 to
/// `n_samples`. Row `i` owns the stream `(world_seed, i)`, so rows go
/// through [`run_indexed`] and fold in row order.
pub fn expected_sum(table: &CTable, col: &str, cfg: &SamplerConfig) -> Result<AggregateResult> {
    let idx = table.schema().index_of(col)?;
    let row_cfg = cfg.scaled_for_rows(table.len());
    let rows = table.rows();
    let per_row = run_indexed(cfg, rows.len(), |i| {
        expectation(
            &rows[i].cells[idx],
            &rows[i].condition,
            true,
            &row_cfg,
            i as u64,
        )
    })?;
    let mut total = 0.0;
    let mut n_samples = 0;
    for r in per_row {
        n_samples += r.n_samples;
        if r.expectation.is_nan() {
            continue; // unsatisfiable row: present in no world
        }
        total += r.expectation * r.probability;
    }
    Ok(AggregateResult {
        value: total,
        n_samples,
    })
}

/// `expected_count()` — Σ rows P[φ] (the `h ≡ 1` special case).
pub fn expected_count(table: &CTable, cfg: &SamplerConfig) -> Result<AggregateResult> {
    let rows = table.rows();
    let mut total = 0.0;
    for p in run_indexed(cfg, rows.len(), |i| conf(&rows[i].condition, cfg, i as u64))? {
        total += p;
    }
    Ok(AggregateResult {
        value: total,
        n_samples: 0,
    })
}

/// `expected_avg(col)` — the ratio estimator `E[sum]/E[count]`.
///
/// This is the standard first-order approximation of `E[sum/count]`
/// (exact only when count is deterministic); documented as such.
pub fn expected_avg(table: &CTable, col: &str, cfg: &SamplerConfig) -> Result<AggregateResult> {
    let s = expected_sum(table, col, cfg)?;
    let c = expected_count(table, cfg)?;
    let value = if c.value == 0.0 {
        f64::NAN
    } else {
        s.value / c.value
    };
    Ok(AggregateResult {
        value,
        n_samples: s.n_samples,
    })
}

/// `expected_max(col)` for *constant* target cells — the sorted-scan
/// algorithm of Example 4.4.
///
/// Rows are sorted descending by value; row `i` is the maximum iff it is
/// present and no larger row is, so (assuming independent row
/// conditions — the caller's responsibility, as in the paper):
///
/// `E[max] = Σᵢ vᵢ · pᵢ · Π_{j<i} (1 − pⱼ)`
///
/// The scan stops early once the largest possible remaining contribution
/// `|vᵢ| · Π_{j<i}(1 − pⱼ)` drops below `precision` — the paper's
/// "maximum any later record can change the result" bound. Worlds in
/// which no row is present contribute 0.
///
/// Confidences are computed a wave of [`concurrency`] rows ahead of the
/// scan, which consumes them strictly in sorted order: a wave's
/// unconsumed tail past the early-exit bound is discarded, failures
/// included, so value and error behaviour do not depend on the wave
/// size — and one lane computes exactly the rows the scan consumes.
pub fn expected_max_const(
    table: &CTable,
    col: &str,
    cfg: &SamplerConfig,
    precision: f64,
) -> Result<AggregateResult> {
    let idx = table.schema().index_of(col)?;
    let trows = table.rows();
    let mut rows: Vec<(f64, usize)> = Vec::with_capacity(table.len());
    for (i, row) in trows.iter().enumerate() {
        let v = row.cells[idx]
            .as_const()
            .ok_or_else(|| {
                PipError::Unsupported(format!(
                    "expected_max_const requires constant '{col}' cells; use expected_max_sampled"
                ))
            })?
            .as_f64()?;
        rows.push((v, i));
    }
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));

    let lanes = concurrency(cfg);
    let mut wave = Vec::new().into_iter();
    let mut acc = 0.0;
    let mut carry = 1.0; // Π (1 − p_j) over rows scanned so far
    for (pos, &(v, _)) in rows.iter().enumerate() {
        if v.abs() * carry <= precision {
            break;
        }
        if wave.len() == 0 {
            let ahead = &rows[pos..(pos + lanes).min(rows.len())];
            // Each conf's own outcome is the item: a failure only counts
            // once the scan reaches it.
            wave = run_indexed(cfg, ahead.len(), |k| {
                let i = ahead[k].1;
                Ok(conf(&trows[i].condition, cfg, i as u64))
            })?
            .into_iter();
        }
        let p = wave.next().expect("wave covers the scanned row")?;
        acc += v * p * carry;
        carry *= 1.0 - p;
        if carry <= 0.0 {
            break;
        }
    }
    Ok(AggregateResult {
        value: acc,
        n_samples: 0,
    })
}

/// `expected_max(col)` for arbitrary (symbolic) targets: naive per-world
/// evaluation over `n_worlds` jointly-consistent sampled worlds
/// (Section IV-C's worst-case fallback). Empty worlds contribute 0.
pub fn expected_max_sampled(
    table: &CTable,
    col: &str,
    cfg: &SamplerConfig,
    n_worlds: usize,
) -> Result<AggregateResult> {
    let sums = per_world_aggregate(table, col, cfg, n_worlds, WorldAgg::Max)?;
    let value = sums.iter().sum::<f64>() / sums.len().max(1) as f64;
    Ok(AggregateResult {
        value,
        n_samples: n_worlds,
    })
}

/// Which per-world statistic to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorldAgg {
    Sum,
    Max,
}

/// Evaluate `col` in every sampled world, aggregating across present
/// rows. Worlds are independent (world `i` is seeded by `i` alone), so
/// they go through [`run_indexed`]; outputs stay in world order.
fn per_world_aggregate(
    table: &CTable,
    col: &str,
    cfg: &SamplerConfig,
    n_worlds: usize,
    agg: WorldAgg,
) -> Result<Vec<f64>> {
    let idx = table.schema().index_of(col)?;
    let worlds = sample_worlds(table, n_worlds, cfg)?;
    let eval_world = |w: &pip_expr::Assignment| -> Result<f64> {
        let mut acc: Option<f64> = None;
        for row in table.rows() {
            if !row.condition.eval(w)? {
                continue;
            }
            let v = row.cells[idx].eval_f64(w)?;
            acc = Some(match (acc, agg) {
                (None, _) => v,
                (Some(a), WorldAgg::Sum) => a + v,
                (Some(a), WorldAgg::Max) => a.max(v),
            });
        }
        Ok(acc.unwrap_or(0.0))
    };
    run_indexed(cfg, worlds.len(), |i| eval_world(&worlds[i]))
}

/// `expected_sum_hist(col)` — the raw per-world sums (paper Section V-C:
/// "instead of outputting the average of the results, it instead outputs
/// an array of all the generated samples").
pub fn expected_sum_hist(
    table: &CTable,
    col: &str,
    cfg: &SamplerConfig,
    n_worlds: usize,
) -> Result<Vec<f64>> {
    per_world_aggregate(table, col, cfg, n_worlds, WorldAgg::Sum)
}

/// `expected_max_hist(col)` — the raw per-world maxima.
pub fn expected_max_hist(
    table: &CTable,
    col: &str,
    cfg: &SamplerConfig,
    n_worlds: usize,
) -> Result<Vec<f64>> {
    per_world_aggregate(table, col, cfg, n_worlds, WorldAgg::Max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_core::{DataType, Schema};
    use pip_ctable::CRow;
    use pip_dist::prelude::builtin;
    use pip_dist::special;
    use pip_expr::{atoms, Conjunction, Equation, RandomVar};

    fn normal(mu: f64, sigma: f64) -> RandomVar {
        RandomVar::create(builtin::normal(), &[mu, sigma]).unwrap()
    }

    fn sym_schema() -> Schema {
        Schema::of(&[("v", DataType::Symbolic)])
    }

    #[test]
    fn expected_sum_linearity() {
        // Two unconditional normals: E[sum] = 3 + 7.
        let t = CTable::new(
            sym_schema(),
            vec![
                CRow::unconditional(vec![Equation::from(normal(3.0, 1.0))]),
                CRow::unconditional(vec![Equation::from(normal(7.0, 1.0))]),
            ],
        )
        .unwrap();
        let cfg = SamplerConfig::default();
        let r = expected_sum(&t, "v", &cfg).unwrap();
        assert!(
            (r.value - 10.0).abs() < 1e-9,
            "exact mean path: {}",
            r.value
        );
    }

    #[test]
    fn expected_sum_weights_by_confidence() {
        // Constant 10 present iff Y > 0 (P = 1/2): E[sum] = 5.
        let y = normal(0.0, 1.0);
        let t = CTable::new(
            sym_schema(),
            vec![CRow::new(
                vec![Equation::val(10.0)],
                Conjunction::single(atoms::gt(Equation::from(y), 0.0)),
            )],
        )
        .unwrap();
        let cfg = SamplerConfig::default();
        let r = expected_sum(&t, "v", &cfg).unwrap();
        assert!((r.value - 5.0).abs() < 1e-9, "{}", r.value);
    }

    #[test]
    fn expected_sum_skips_unsatisfiable_rows() {
        let y = normal(0.0, 1.0);
        let dead = Conjunction::of(vec![
            atoms::gt(Equation::from(y.clone()), 5.0),
            atoms::lt(Equation::from(y), 3.0),
        ]);
        let t = CTable::new(
            sym_schema(),
            vec![
                CRow::new(vec![Equation::val(100.0)], dead),
                CRow::unconditional(vec![Equation::val(1.0)]),
            ],
        )
        .unwrap();
        let cfg = SamplerConfig::default();
        let r = expected_sum(&t, "v", &cfg).unwrap();
        assert_eq!(r.value, 1.0);
    }

    #[test]
    fn expected_count_sums_confidences() {
        let y = normal(0.0, 1.0);
        let t = CTable::new(
            sym_schema(),
            vec![
                CRow::unconditional(vec![Equation::val(1.0)]),
                CRow::new(
                    vec![Equation::val(2.0)],
                    Conjunction::single(atoms::gt(Equation::from(y), 1.0)),
                ),
            ],
        )
        .unwrap();
        let cfg = SamplerConfig::default();
        let r = expected_count(&t, &cfg).unwrap();
        let truth = 1.0 + (1.0 - special::normal_cdf(1.0));
        assert!((r.value - truth).abs() < 1e-9);
    }

    #[test]
    fn expected_avg_ratio() {
        let t = CTable::new(
            sym_schema(),
            vec![
                CRow::unconditional(vec![Equation::val(2.0)]),
                CRow::unconditional(vec![Equation::val(4.0)]),
            ],
        )
        .unwrap();
        let cfg = SamplerConfig::default();
        let r = expected_avg(&t, "v", &cfg).unwrap();
        assert!((r.value - 3.0).abs() < 1e-9);
        let empty = CTable::empty(sym_schema());
        assert!(expected_avg(&empty, "v", &cfg).unwrap().value.is_nan());
    }

    /// The paper's Example 4.4 table, with conditions replaced by
    /// Normal-tail events of the stated probabilities.
    fn example_4_4() -> CTable {
        // P[N(0,1) > z] = p  →  z = Φ⁻¹(1−p)
        let mk = |v: f64, p: f64| {
            let y = normal(0.0, 1.0);
            let z = special::inverse_normal_cdf(1.0 - p);
            CRow::new(
                vec![Equation::val(v)],
                Conjunction::single(atoms::gt(Equation::from(y), z)),
            )
        };
        CTable::new(
            sym_schema(),
            vec![mk(5.0, 0.7), mk(4.0, 0.8), mk(1.0, 0.3), mk(0.0, 0.6)],
        )
        .unwrap()
    }

    #[test]
    fn expected_max_sorted_scan() {
        let t = example_4_4();
        let cfg = SamplerConfig::default();
        // Correct independent-rows value:
        // 5·0.7 + 4·0.8·0.3 + 1·0.3·0.3·0.2 + 0 = 3.5 + 0.96 + 0.018.
        let truth = 5.0 * 0.7 + 4.0 * 0.8 * 0.3 + 1.0 * 0.3 * 0.3 * 0.2;
        let r = expected_max_const(&t, "v", &cfg, 0.0).unwrap();
        assert!((r.value - truth).abs() < 1e-6, "{} vs {truth}", r.value);
    }

    #[test]
    fn expected_max_early_exit_matches_paper_bound() {
        let t = example_4_4();
        let cfg = SamplerConfig::default();
        // With precision 0.1, the scan may stop after two records: the
        // remaining contribution is bounded by 1·(1−0.7)(1−0.8) = 0.06.
        let exact = expected_max_const(&t, "v", &cfg, 0.0).unwrap().value;
        let approx = expected_max_const(&t, "v", &cfg, 0.1).unwrap().value;
        assert!((exact - approx).abs() <= 0.1, "{exact} vs {approx}");
        assert!(approx <= exact, "early exit only drops positive terms");
    }

    #[test]
    fn expected_max_const_rejects_symbolic_cells() {
        let y = normal(0.0, 1.0);
        let t = CTable::new(
            sym_schema(),
            vec![CRow::unconditional(vec![Equation::from(y)])],
        )
        .unwrap();
        let cfg = SamplerConfig::default();
        assert!(matches!(
            expected_max_const(&t, "v", &cfg, 0.0),
            Err(PipError::Unsupported(_))
        ));
    }

    #[test]
    fn expected_max_sampled_agrees_with_const_path() {
        let t = example_4_4();
        let cfg = SamplerConfig::default();
        let exact = expected_max_const(&t, "v", &cfg, 0.0).unwrap().value;
        let sampled = expected_max_sampled(&t, "v", &cfg, 4000).unwrap().value;
        assert!((exact - sampled).abs() < 0.15, "{exact} vs {sampled}");
    }

    #[test]
    fn expected_max_sampled_symbolic_target() {
        // max over one row: E[max] = E[Y] = 3.
        let y = normal(3.0, 1.0);
        let t = CTable::new(
            sym_schema(),
            vec![CRow::unconditional(vec![Equation::from(y)])],
        )
        .unwrap();
        let cfg = SamplerConfig::default();
        let r = expected_max_sampled(&t, "v", &cfg, 3000).unwrap();
        assert!((r.value - 3.0).abs() < 0.1, "{}", r.value);
    }

    #[test]
    fn thread_count_never_changes_aggregate_results() {
        let y = normal(2.0, 1.0);
        let gate = normal(0.0, 1.0);
        let t = CTable::new(
            sym_schema(),
            vec![
                CRow::unconditional(vec![Equation::from(y.clone())]),
                CRow::new(
                    vec![Equation::from(y)],
                    Conjunction::single(atoms::gt(Equation::from(gate), 0.3)),
                ),
            ],
        )
        .unwrap();
        // The sorted scan, with enough rows for several prefetch waves.
        let mut scan = CTable::empty(sym_schema());
        for i in 0..12 {
            let z = special::inverse_normal_cdf(1.0 - 0.8 / (1.0 + i as f64 * 0.3));
            scan.push(CRow::new(
                vec![Equation::val((12 - i) as f64)],
                Conjunction::single(atoms::gt(Equation::from(normal(0.0, 1.0)), z)),
            ))
            .unwrap();
        }
        let serial = SamplerConfig::fixed_samples(300);
        for threads in [2usize, 4, 8] {
            let par = serial.clone().with_threads(threads);
            for precision in [0.0, 0.1] {
                assert_eq!(
                    expected_max_const(&scan, "v", &serial, precision).unwrap(),
                    expected_max_const(&scan, "v", &par, precision).unwrap(),
                    "expected_max_const({precision}), threads={threads}"
                );
            }
            assert_eq!(
                expected_sum(&t, "v", &serial).unwrap(),
                expected_sum(&t, "v", &par).unwrap(),
                "expected_sum, threads={threads}"
            );
            assert_eq!(
                expected_count(&t, &serial).unwrap(),
                expected_count(&t, &par).unwrap(),
                "expected_count, threads={threads}"
            );
            assert_eq!(
                expected_avg(&t, "v", &serial).unwrap(),
                expected_avg(&t, "v", &par).unwrap(),
                "expected_avg, threads={threads}"
            );
            assert_eq!(
                expected_sum_hist(&t, "v", &serial, 64).unwrap(),
                expected_sum_hist(&t, "v", &par, 64).unwrap(),
                "expected_sum_hist, threads={threads}"
            );
        }
    }

    #[test]
    fn hist_variants_return_raw_samples() {
        let y = normal(0.0, 1.0);
        let t = CTable::new(
            sym_schema(),
            vec![
                CRow::unconditional(vec![Equation::val(1.0)]),
                CRow::new(
                    vec![Equation::val(1.0)],
                    Conjunction::single(atoms::gt(Equation::from(y), 0.0)),
                ),
            ],
        )
        .unwrap();
        let cfg = SamplerConfig::default();
        let sums = expected_sum_hist(&t, "v", &cfg, 1000).unwrap();
        assert_eq!(sums.len(), 1000);
        // Sum is 1 or 2 depending on the condition; mean ≈ 1.5.
        assert!(sums.iter().all(|&s| s == 1.0 || s == 2.0));
        let mean = sums.iter().sum::<f64>() / 1000.0;
        assert!((mean - 1.5).abs() < 0.06, "{mean}");
        let maxes = expected_max_hist(&t, "v", &cfg, 100).unwrap();
        assert!(maxes.iter().all(|&m| m == 1.0));
    }
}
