//! The paper's evaluation queries Q1–Q5 (Section VI), each in three
//! forms: the symbolic c-table PIP evaluates, the tuple-bundle pipeline
//! Sample-First evaluates, and — where one exists — the algebraically
//! exact answer used as ground truth by the RMS-error figures.
//!
//! | Query | Model | Paper role |
//! |-------|-------|------------|
//! | Q1 | Poisson purchase increase × spend, summed | Fig. 6 (SF-friendly) |
//! | Q2 | Normal+Normal delivery dates, max | Fig. 6 (SF-friendly) |
//! | Q3 | Q1 revenue lost to dissatisfied customers (selective join) | Fig. 6 |
//! | Q4 | Poisson × Exponential sales under an extreme-popularity filter | Figs. 5, 6, 7a |
//! | Q5 | demand (Poisson) vs supply (Exponential) underproduction | Fig. 7b |

use std::time::Instant;

use pip_core::{DataType, Result, Schema};
use pip_dist::prelude::builtin;
use pip_dist::special;
use pip_expr::{atoms, Conjunction, Equation, RandomVar};

use pip_ctable::{CRow, CTable};
use pip_samplefirst::{agg as sf_agg, BundleTable};
use pip_sampling::{expectation, expected_max_sampled, expected_sum, SamplerConfig};

use crate::tpch::TpchData;

/// A timed query run: the estimate plus the phase breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// The query's answer (aggregate value).
    pub value: f64,
    /// Seconds building/evaluating the deterministic + symbolic part.
    pub query_secs: f64,
    /// Seconds spent sampling.
    pub sample_secs: f64,
}

/// Per-row estimates (Q4/Q5 return one estimate per part/supplier).
#[derive(Debug, Clone, PartialEq)]
pub struct PerRow {
    pub estimates: Vec<f64>,
    pub query_secs: f64,
    pub sample_secs: f64,
}

// --------------------------------------------------------------------
// Q1 — expected revenue increase from the Poisson purchase model.
// --------------------------------------------------------------------

/// Build Q1's symbolic result c-table: one row per customer with cell
/// `spend · X_c`, `X_c ~ Poisson(increase_rate_c)`.
pub fn q1_ctable(data: &TpchData) -> Result<CTable> {
    let schema = Schema::of(&[("revenue", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    for c in &data.customers {
        let x = RandomVar::create(builtin::poisson(), &[c.increase_rate()])?;
        t.push(CRow::unconditional(vec![(Equation::val(c.spend)
            * Equation::from(x))
        .simplify()]))?;
    }
    Ok(t)
}

/// Exact answer: Σ spend·λ.
pub fn q1_exact(data: &TpchData) -> f64 {
    data.customers
        .iter()
        .map(|c| c.spend * c.increase_rate())
        .sum()
}

/// PIP evaluation of Q1.
pub fn q1_pip(data: &TpchData, cfg: &SamplerConfig) -> Result<Timed> {
    let t0 = Instant::now();
    let table = q1_ctable(data)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let r = expected_sum(&table, "revenue", cfg)?;
    Ok(Timed {
        value: r.value,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

/// Sample-First evaluation of Q1 with `n_worlds` sampled worlds.
pub fn q1_sf(data: &TpchData, n_worlds: usize, seed: u64) -> Result<Timed> {
    let t0 = Instant::now();
    let ct = q1_ctable(data)?;
    let bt = BundleTable::instantiate(&ct, n_worlds, seed)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let value = sf_agg::expected_sum(&bt, "revenue")?;
    Ok(Timed {
        value,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

// --------------------------------------------------------------------
// Q2 — expected latest delivery date across Japanese suppliers' parts.
// --------------------------------------------------------------------

/// Q2's c-table: per Japanese supplier, `delivery = M + S` with
/// `M ~ Normal(mfg)`, `S ~ Normal(ship)`.
pub fn q2_ctable(data: &TpchData) -> Result<CTable> {
    let schema = Schema::of(&[("delivery", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    for s in data.suppliers.iter().filter(|s| s.japanese) {
        let m = RandomVar::create(builtin::normal(), &[s.mfg_mean, s.mfg_std])?;
        let sh = RandomVar::create(builtin::normal(), &[s.ship_mean, s.ship_std])?;
        t.push(CRow::unconditional(vec![(Equation::from(m)
            + Equation::from(sh))
        .simplify()]))?;
    }
    Ok(t)
}

/// PIP evaluation of Q2 (`expected_max` over symbolic targets — the
/// naive per-world path, Section IV-C).
pub fn q2_pip(data: &TpchData, cfg: &SamplerConfig, n_samples: usize) -> Result<Timed> {
    let t0 = Instant::now();
    let table = q2_ctable(data)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let r = expected_max_sampled(&table, "delivery", cfg, n_samples)?;
    Ok(Timed {
        value: r.value,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

/// Sample-First evaluation of Q2.
pub fn q2_sf(data: &TpchData, n_worlds: usize, seed: u64) -> Result<Timed> {
    let t0 = Instant::now();
    let ct = q2_ctable(data)?;
    let bt = BundleTable::instantiate(&ct, n_worlds, seed)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let value = sf_agg::expected_max(&bt, "delivery")?;
    Ok(Timed {
        value,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

// --------------------------------------------------------------------
// Q3 — profit lost to dissatisfied customers (selective join of Q1+Q2).
// --------------------------------------------------------------------

/// Q3's c-table: per customer, `lost = spend · X_c` under the condition
/// `D_c > threshold_c` where `D_c ~ Normal(delivery)`. `selectivity`
/// calibrates every threshold to `P[D > thr] = selectivity` exactly, as
/// in the paper's "an average of 10% of customers were dissatisfied".
pub fn q3_ctable(data: &TpchData, selectivity: f64) -> Result<CTable> {
    let schema = Schema::of(&[("lost", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    let z = special::inverse_normal_cdf(1.0 - selectivity);
    for (i, c) in data.customers.iter().enumerate() {
        // Delivery statistics borrowed from a supplier (deterministic
        // pairing keeps runs reproducible).
        let s = &data.suppliers[i % data.suppliers.len()];
        let mu = s.mfg_mean + s.ship_mean;
        let sd = (s.mfg_std * s.mfg_std + s.ship_std * s.ship_std).sqrt();
        let d = RandomVar::create(builtin::normal(), &[mu, sd])?;
        let x = RandomVar::create(builtin::poisson(), &[c.increase_rate()])?;
        let thr = mu + z * sd;
        t.push(CRow::new(
            vec![(Equation::val(c.spend) * Equation::from(x)).simplify()],
            Conjunction::single(atoms::gt(Equation::from(d), thr)),
        ))?;
    }
    Ok(t)
}

/// Exact answer: Σ spend·λ·selectivity (profit independent of delivery).
pub fn q3_exact(data: &TpchData, selectivity: f64) -> f64 {
    q1_exact(data) * selectivity
}

/// PIP evaluation of Q3.
pub fn q3_pip(data: &TpchData, selectivity: f64, cfg: &SamplerConfig) -> Result<Timed> {
    let t0 = Instant::now();
    let table = q3_ctable(data, selectivity)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let r = expected_sum(&table, "lost", cfg)?;
    Ok(Timed {
        value: r.value,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

/// Sample-First evaluation of Q3.
pub fn q3_sf(data: &TpchData, selectivity: f64, n_worlds: usize, seed: u64) -> Result<Timed> {
    let t0 = Instant::now();
    let ct = q3_ctable(data, selectivity)?;
    let bt = BundleTable::instantiate(&ct, n_worlds, seed)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let value = sf_agg::expected_sum(&bt, "lost")?;
    Ok(Timed {
        value,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

// --------------------------------------------------------------------
// Q4 — per-part expected sales in the extreme-popularity scenario
// (Figures 5, 6 and 7a).
// --------------------------------------------------------------------

/// Q4's c-table: per part, `sales = X_p · W_p` with `X ~ Poisson(λ_p)`
/// and `W ~ Exponential(r_p)`, under `W_p > t_p` where `t_p` is set so
/// `P[W > t] = selectivity` (the paper's `e^-5.29 ≈ 0.005`).
pub fn q4_ctable(data: &TpchData, selectivity: f64) -> Result<CTable> {
    let schema = Schema::of(&[("part", DataType::Int), ("sales", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    for p in &data.parts {
        let x = RandomVar::create(builtin::poisson(), &[p.sales_rate])?;
        let w = RandomVar::create(builtin::exponential(), &[p.popularity_rate])?;
        let thr = -selectivity.ln() / p.popularity_rate;
        t.push(CRow::new(
            vec![
                Equation::val(p.id as i64),
                (Equation::from(x) * Equation::from(w.clone())).simplify(),
            ],
            Conjunction::single(atoms::gt(Equation::from(w), thr)),
        ))?;
    }
    Ok(t)
}

/// Exact per-part conditional expectation:
/// `E[X·W | W > t] = λ·(t + 1/r)` (independence + memorylessness).
pub fn q4_exact(data: &TpchData, selectivity: f64) -> Vec<f64> {
    data.parts
        .iter()
        .map(|p| {
            let thr = -selectivity.ln() / p.popularity_rate;
            p.sales_rate * (thr + 1.0 / p.popularity_rate)
        })
        .collect()
}

/// PIP evaluation of Q4: per-row conditional expectations (the grouped
/// query — each part is its own group).
pub fn q4_pip(data: &TpchData, selectivity: f64, cfg: &SamplerConfig) -> Result<PerRow> {
    let t0 = Instant::now();
    let table = q4_ctable(data, selectivity)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut estimates = Vec::with_capacity(table.len());
    for (i, row) in table.rows().iter().enumerate() {
        let r = expectation(&row.cells[1], &row.condition, false, cfg, i as u64)?;
        estimates.push(r.expectation);
    }
    Ok(PerRow {
        estimates,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

/// Sample-First evaluation of Q4: conditional means over surviving
/// worlds (NaN when no world survives the popularity filter).
pub fn q4_sf(data: &TpchData, selectivity: f64, n_worlds: usize, seed: u64) -> Result<PerRow> {
    let t0 = Instant::now();
    let ct = q4_ctable(data, selectivity)?;
    let bt = BundleTable::instantiate(&ct, n_worlds, seed)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    // Per-part conditional mean (each part is one bundle; bundles whose
    // presence emptied were dropped by instantiate-time conditions, so
    // re-associate by the deterministic part id).
    let mut estimates = vec![f64::NAN; data.parts.len()];
    let means = sf_agg::conditional_mean(&bt, "sales")?;
    let part_col = bt.col("part")?;
    for (b, m) in bt.bundles().iter().zip(means) {
        let id = b.cells[part_col].as_det()?.as_i64()? as usize;
        estimates[id] = m;
    }
    Ok(PerRow {
        estimates,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

// --------------------------------------------------------------------
// Q5 — expected underproduction where demand exceeds supply (Fig. 7b).
// --------------------------------------------------------------------

/// Q5's c-table: per part, `under = X − S` with `X ~ Poisson(λ)` demand
/// and `S ~ Exponential(1/(20λ))` supply (mean 20λ → `P[X > S] ≈ 0.05`),
/// under the cross-variable condition `X > S` that forces rejection
/// sampling.
pub fn q5_ctable(data: &TpchData) -> Result<CTable> {
    let schema = Schema::of(&[("part", DataType::Int), ("under", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    for p in &data.parts {
        let lambda = p.sales_rate;
        let rate = 1.0 / (20.0 * lambda);
        let x = RandomVar::create(builtin::poisson(), &[lambda])?;
        let s = RandomVar::create(builtin::exponential(), &[rate])?;
        t.push(CRow::new(
            vec![
                Equation::val(p.id as i64),
                (Equation::from(x.clone()) - Equation::from(s.clone())).simplify(),
            ],
            Conjunction::single(atoms::gt(Equation::from(x), Equation::from(s))),
        ))?;
    }
    Ok(t)
}

/// Numerically exact reference for Q5 per part:
///
/// `E[X − S | X > S] = Σ_k P[X=k]·(k − (1−e^{−rk})/r) / Σ_k P[X=k]·(1−e^{−rk})`
///
/// (integrating the exponential density over `s < k` in closed form and
/// summing the Poisson mass to `λ + 12√λ + 30`).
pub fn q5_exact(data: &TpchData) -> Vec<f64> {
    data.parts
        .iter()
        .map(|p| {
            let lambda = p.sales_rate;
            let r = 1.0 / (20.0 * lambda);
            let kmax = (lambda + 12.0 * lambda.sqrt() + 30.0) as usize;
            let mut num = 0.0;
            let mut den = 0.0;
            let mut log_pk = -lambda; // ln P[X=0]
            for k in 0..=kmax {
                if k > 0 {
                    log_pk += lambda.ln() - (k as f64).ln();
                }
                let pk = log_pk.exp();
                let kk = k as f64;
                let surv = 1.0 - (-r * kk).exp(); // P[S < k]
                                                  // E[(k − S)·1{S<k}] = k·P[S<k] − E[S·1{S<k}]
                                                  // E[S·1{S<k}] = (1/r)(1 − e^{−rk}) − k·e^{−rk}
                let es = (1.0 / r) * (1.0 - (-r * kk).exp()) - kk * (-r * kk).exp();
                num += pk * (kk * surv - es);
                den += pk * surv;
            }
            if den == 0.0 {
                f64::NAN
            } else {
                num / den
            }
        })
        .collect()
}

/// PIP evaluation of Q5 (rejection sampling: the condition compares two
/// random variables, so no CDF bound applies — paper Fig. 7b setup).
pub fn q5_pip(data: &TpchData, cfg: &SamplerConfig) -> Result<PerRow> {
    let t0 = Instant::now();
    let table = q5_ctable(data)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut estimates = Vec::with_capacity(table.len());
    for (i, row) in table.rows().iter().enumerate() {
        let r = expectation(&row.cells[1], &row.condition, false, cfg, i as u64)?;
        estimates.push(r.expectation);
    }
    Ok(PerRow {
        estimates,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

/// Sample-First evaluation of Q5.
pub fn q5_sf(data: &TpchData, n_worlds: usize, seed: u64) -> Result<PerRow> {
    let t0 = Instant::now();
    let ct = q5_ctable(data)?;
    let bt = BundleTable::instantiate(&ct, n_worlds, seed)?;
    let query_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut estimates = vec![f64::NAN; data.parts.len()];
    let means = sf_agg::conditional_mean(&bt, "under")?;
    let part_col = bt.col("part")?;
    for (b, m) in bt.bundles().iter().zip(means) {
        let id = b.cells[part_col].as_det()?.as_i64()? as usize;
        estimates[id] = m;
    }
    Ok(PerRow {
        estimates,
        query_secs,
        sample_secs: t1.elapsed().as_secs_f64(),
    })
}

/// RMS error of per-row estimates against exact values, normalized by
/// the exact value (the metric of Figure 7). NaN estimates (rows with no
/// surviving samples) count as 100% error, matching how a discarded
/// sample-first row has no answer at all.
pub fn normalized_rms(estimates: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(estimates.len(), exact.len());
    let mut acc = 0.0;
    let mut n = 0usize;
    for (&e, &x) in estimates.iter().zip(exact) {
        if x == 0.0 || x.is_nan() {
            continue;
        }
        let rel = if e.is_nan() { 1.0 } else { (e - x) / x };
        acc += rel * rel;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (acc / n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{generate, TpchConfig};

    fn small() -> TpchData {
        generate(&TpchConfig {
            n_customers: 20,
            n_parts: 25,
            n_suppliers: 10,
            seed: 77,
        })
    }

    #[test]
    fn q1_pip_matches_exact_via_linearity() {
        let data = small();
        let cfg = SamplerConfig::default();
        let r = q1_pip(&data, &cfg).unwrap();
        let exact = q1_exact(&data);
        // Linearity-of-expectation path: exact.
        assert!((r.value - exact).abs() < 1e-6, "{} vs {exact}", r.value);
    }

    #[test]
    fn q1_sf_converges() {
        let data = small();
        let exact = q1_exact(&data);
        let r = q1_sf(&data, 3000, 1).unwrap();
        assert!(
            (r.value - exact).abs() / exact < 0.1,
            "{} vs {exact}",
            r.value
        );
    }

    #[test]
    fn q2_pip_and_sf_agree() {
        let data = small();
        let cfg = SamplerConfig::default();
        let p = q2_pip(&data, &cfg, 2000).unwrap();
        let s = q2_sf(&data, 2000, 3).unwrap();
        assert!(
            (p.value - s.value).abs() / p.value.abs().max(1.0) < 0.1,
            "{} vs {}",
            p.value,
            s.value
        );
        // E[max delivery] is at least the largest mean delivery (Jensen),
        // but only just, so the 2,000-world estimate may land below it by
        // Monte Carlo error. A world's max of independent Normals has a
        // variance of at most the largest row variance (Gaussian
        // Poincaré inequality): allow four standard errors of that.
        let japanese = || data.suppliers.iter().filter(|s| s.japanese);
        let max_mean = japanese()
            .map(|s| s.mfg_mean + s.ship_mean)
            .fold(0.0, f64::max);
        let max_sd = japanese()
            .map(|s| (s.mfg_std * s.mfg_std + s.ship_std * s.ship_std).sqrt())
            .fold(0.0, f64::max);
        let tol = 4.0 * max_sd / 2000f64.sqrt();
        assert!(
            p.value >= max_mean - tol,
            "{} < {max_mean} - {tol}",
            p.value
        );
    }

    #[test]
    fn q3_pip_close_to_exact() {
        let data = small();
        let cfg = SamplerConfig::default();
        let sel = 0.1;
        let r = q3_pip(&data, sel, &cfg).unwrap();
        let exact = q3_exact(&data, sel);
        assert!(
            (r.value - exact).abs() / exact < 0.1,
            "{} vs {exact}",
            r.value
        );
    }

    #[test]
    fn q4_pip_beats_sf_at_equal_samples() {
        let data = small();
        let sel = 0.02;
        let exact = q4_exact(&data, sel);
        let n = 300;
        let pip = q4_pip(&data, sel, &SamplerConfig::fixed_samples(n)).unwrap();
        let sf = q4_sf(&data, sel, n, 5).unwrap();
        let pip_err = normalized_rms(&pip.estimates, &exact);
        let sf_err = normalized_rms(&sf.estimates, &exact);
        // PIP's CDF-bounded sampling uses all n samples; SF has ~n·sel
        // effective samples (and many parts with none at all).
        assert!(
            pip_err < sf_err,
            "PIP err {pip_err} should beat SF err {sf_err}"
        );
        assert!(pip_err < 0.2, "pip_err {pip_err}");
    }

    #[test]
    fn q5_exact_reference_is_positive_and_bounded() {
        let data = small();
        let exact = q5_exact(&data);
        for (p, &e) in data.parts.iter().zip(&exact) {
            assert!(e > 0.0, "part {}: {e}", p.id);
            // Underproduction at most demand itself (roughly λ + tail).
            assert!(e <= p.sales_rate + 12.0 * p.sales_rate.sqrt() + 30.0);
        }
    }

    #[test]
    fn q5_pip_matches_exact_reference() {
        let data = generate(&TpchConfig {
            n_customers: 1,
            n_parts: 6,
            n_suppliers: 1,
            seed: 9,
        });
        let exact = q5_exact(&data);
        let pip = q5_pip(&data, &SamplerConfig::fixed_samples(3000)).unwrap();
        let err = normalized_rms(&pip.estimates, &exact);
        assert!(
            err < 0.15,
            "err {err}, est {:?} vs {exact:?}",
            pip.estimates
        );
    }

    #[test]
    fn normalized_rms_handles_nans() {
        assert!((normalized_rms(&[1.0, f64::NAN], &[1.0, 2.0]) - (0.5f64).sqrt()).abs() < 1e-12);
        assert!(normalized_rms(&[], &[]).is_nan());
        assert_eq!(normalized_rms(&[5.0], &[5.0]), 0.0);
    }
}
