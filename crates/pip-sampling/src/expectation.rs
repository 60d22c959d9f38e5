//! The expectation operator — Algorithm 4.3 of the paper.
//!
//! Given an expression `E` and a context condition `C`, compute
//! `E[E | C]` (and optionally `P[C]`) with ε–δ precision:
//!
//! 1–2. in one pass over the row (`analyse`, which `conf` and `aconf`
//!    share): simplify `C` once (not at all when the query phase
//!    already did), partition it once into minimal independent variable
//!    groups together with `E`'s variables, and run the consistency
//!    check over that partition's atom groups
//!    (each atom linearised once, no hashing); an inconsistent context
//!    yields `(NAN, 0)` immediately. Only groups sharing variables with
//!    `E` need to be sampled inside the averaging loop. If none of them
//!    carries an atom, `E` is independent of `C`, and an affine `E` over
//!    classes with a mean is answered in closed form — `E[E | C] = E[E]`
//!    by linearity, `P[C]` as in step 5 — with no loop, no expression
//!    tape and no kernel for its groups (the paper's Example 3.1: a price
//!    independent of the shipping-duration condition). Nothing below is
//!    built until a row needs it;
//! 3. per group pick a strategy: CDF-bounded inverse transform when
//!    bounds + capabilities allow, else rejection, escalating to
//!    Metropolis past the rejection threshold;
//! 4. adaptively stop when the running confidence interval is within the
//!    relative precision goal;
//! 5. for `P[C]`, multiply the per-group acceptance estimates, finishing
//!    off expression-disjoint groups exactly via CDF where possible and
//!    by a fixed-budget probe of that group alone otherwise (lines
//!    29–35).

use std::borrow::Cow;

use pip_core::Result;
use pip_dist::{mix64, rng_from_seed, PipRng};
use pip_expr::{independent_groups, Conjunction, Equation, RandomVar, SlotMap, Truth, VarGroup};

use pip_ctable::{consistency_check, consistency_of_groups, BoundsMap, Consistency};

use crate::blocks::{compile_expr, serial_blocked, serial_per_sample};
use crate::config::SamplerConfig;
use crate::strategy::exact_probability;
use crate::tape::GroupKernel;

/// Result of the expectation operator.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectationResult {
    /// `E[expr | condition]`; NAN when the condition is unsatisfiable.
    pub expectation: f64,
    /// `P[condition]` (1.0 for a trivially-true condition, 0 for an
    /// unsatisfiable one). Only computed when `want_probability` was
    /// requested — every path returns `f64::NAN` otherwise, so a caller
    /// that forgot to request it cannot mistake the placeholder for a
    /// real probability.
    pub probability: f64,
    /// Samples actually drawn by the averaging loop.
    pub n_samples: usize,
    /// Standard error of the expectation estimate (0 for exact paths).
    pub std_error: f64,
    /// True if any group fell back to Metropolis.
    pub used_metropolis: bool,
}

impl ExpectationResult {
    pub(crate) fn nan(want_probability: bool) -> Self {
        ExpectationResult {
            expectation: f64::NAN,
            probability: if want_probability { 0.0 } else { f64::NAN },
            n_samples: 0,
            std_error: 0.0,
            used_metropolis: false,
        }
    }

    /// An answer that needed no averaging loop.
    pub(crate) fn exact(expectation: f64, probability: f64) -> Self {
        ExpectationResult {
            expectation,
            probability,
            n_samples: 0,
            std_error: 0.0,
            used_metropolis: false,
        }
    }
}

/// One row's analysis (lines 1–10), shared by every sampling head: the
/// simplified condition (borrowed when the query phase already
/// simplified it), its independent variable groups together with the
/// expression's variables (which say what each group is relevant to), and
/// the bounds Algorithm 3.2 derived on them. `conf` and `aconf` analyse
/// with no expression variables.
pub(crate) struct RowAnalysis<'a> {
    pub(crate) condition: Cow<'a, Conjunction>,
    pub(crate) groups: Vec<VarGroup>,
    pub(crate) bounds: BoundsMap,
    expr_vars: Vec<RandomVar>,
}

/// A prepared operator: one sampler per independent group (a
/// [`GroupKernel`] in production).
pub(crate) struct Prepared<S = GroupKernel> {
    pub(crate) samplers: Vec<S>,
    /// Indices of samplers relevant to the expression (must be sampled in
    /// the averaging loop).
    pub(crate) relevant: Vec<usize>,
    pub(crate) bounds: BoundsMap,
    /// Slot layout of every group's variables, in group order.
    pub(crate) slots: SlotMap,
}

/// Analyse a row in one pass: the condition is simplified once and
/// partitioned once, together with `expr_vars`, and Algorithm 3.2
/// propagates bounds over the partition's atom groups (the same groups,
/// atoms and bounds `consistency_check` derives on its own). `None` when
/// the condition holds in no world; a condition that holds in every world
/// simplifies to one without atoms.
pub(crate) fn analyse<'a>(
    condition: &'a Conjunction,
    expr_vars: Vec<RandomVar>,
    cfg: &SamplerConfig,
) -> Option<RowAnalysis<'a>> {
    let (condition, truth) = condition.simplified();
    if truth == Truth::False {
        return None;
    }
    let (groups, verdict) = if cfg.use_independence {
        let groups = independent_groups(&condition, &expr_vars);
        let verdict = consistency_of_groups(&groups);
        (groups, verdict)
    } else {
        // Ablation: one monolithic group holding everything.
        let verdict = consistency_check(&condition);
        let mut vars = condition.variables();
        for v in &expr_vars {
            if !vars.iter().any(|o| o.key == v.key) {
                vars.push(v.clone());
            }
        }
        let groups = if vars.is_empty() && condition.atoms().is_empty() {
            Vec::new()
        } else {
            vec![VarGroup {
                atoms: condition.atoms().to_vec(),
                vars,
            }]
        };
        (groups, verdict)
    };
    match verdict {
        Consistency::Inconsistent => None,
        Consistency::Consistent { bounds, .. } => Some(RowAnalysis {
            condition,
            groups,
            bounds,
            expr_vars,
        }),
    }
}

/// The production probe of [`RowAnalysis::probability`]: `budget`
/// candidates of a fresh [`GroupKernel`] for `g` alone.
pub(crate) fn kernel_probe(
    g: &VarGroup,
    bounds: &BoundsMap,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
    budget: u64,
) -> Result<f64> {
    let mut slots = SlotMap::new();
    let mut k = GroupKernel::for_group(g.clone(), bounds, cfg, &mut slots);
    k.estimate_probability(rng, budget, &mut vec![0.0; slots.len()], &mut Vec::new())
}

impl RowAnalysis<'_> {
    /// True if group `g` shares a variable with the expression.
    fn relevant(&self, g: &VarGroup) -> bool {
        g.vars
            .iter()
            .any(|v| self.expr_vars.iter().any(|e| e.key.id == v.key.id))
    }

    /// `build` turns each group into its sampler, interning the groups'
    /// variables into one slot layout in group order.
    pub(crate) fn build<S>(
        self,
        mut build: impl FnMut(VarGroup, &BoundsMap, &mut SlotMap) -> S,
    ) -> Prepared<S> {
        let relevant = (0..self.groups.len())
            .filter(|&i| self.relevant(&self.groups[i]))
            .collect();
        let RowAnalysis { groups, bounds, .. } = self;
        let mut slots = SlotMap::new();
        let samplers = groups
            .into_iter()
            .map(|g| build(g, &bounds, &mut slots))
            .collect();
        Prepared {
            samplers,
            relevant,
            bounds,
            slots,
        }
    }

    /// `P[C]` without an averaging loop (lines 29–35), with the candidate
    /// worlds it drew — 0 when every group had a closed form: the product
    /// over the atom groups, in group order, of [`exact_probability`]
    /// where it applies and otherwise `probe(group, bounds, cfg, rng,
    /// budget)` — a fixed-budget acceptance probe of that group alone,
    /// drawn from `rng`. Production and the oracle share this rule; only
    /// `probe` differs.
    pub(crate) fn probability(
        &self,
        cfg: &SamplerConfig,
        rng: &mut PipRng,
        probe: impl Fn(&VarGroup, &BoundsMap, &SamplerConfig, &mut PipRng, u64) -> Result<f64>,
    ) -> Result<(f64, u64)> {
        let (mut p, mut draws) = (1.0, 0);
        for g in self.groups.iter().filter(|g| !g.atoms.is_empty()) {
            p *= match exact_probability(g, cfg) {
                Some(exact) => exact,
                None => {
                    let budget = cfg.probe_budget();
                    draws += budget;
                    probe(g, &self.bounds, cfg, rng, budget)?
                }
            };
        }
        Ok((p, draws))
    }

    /// The answer without an averaging loop. When no group relevant to
    /// `expr` carries an atom, `expr` is independent of the condition, so
    /// `E[expr | C] = E[expr]`; if [`linear_exact`] has that mean, it is
    /// the answer, and `P[C]` is [`RowAnalysis::probability`].
    pub(crate) fn closed_form(
        &self,
        expr: &Equation,
        want_probability: bool,
        cfg: &SamplerConfig,
        rng: &mut PipRng,
        probe: impl Fn(&VarGroup, &BoundsMap, &SamplerConfig, &mut PipRng, u64) -> Result<f64>,
    ) -> Result<Option<ExpectationResult>> {
        if self
            .groups
            .iter()
            .any(|g| !g.atoms.is_empty() && self.relevant(g))
        {
            return Ok(None);
        }
        let Some(expectation) = linear_exact(expr, &self.expr_vars, cfg)? else {
            return Ok(None);
        };
        let probability = if want_probability {
            self.probability(cfg, rng, probe)?.0
        } else {
            f64::NAN
        };
        Ok(Some(ExpectationResult::exact(expectation, probability)))
    }
}

/// Deterministic per-call RNG: callers at different sites pass distinct
/// `site` values so results don't correlate across rows.
pub(crate) fn rng_for_site(cfg: &SamplerConfig, site: u64) -> PipRng {
    rng_from_seed(mix64(cfg.world_seed ^ site))
}

/// Closed-form mean by linearity of expectation: an affine expression
/// `c + Σ aᵢXᵢ` has mean `c + Σ aᵢ·E[Xᵢ]` whenever every class exposes
/// its mean, summed in the order the variables first appear in `expr` (the
/// order of its [`pip_expr::LinearForm`], so the bits do not depend on
/// hashing). `vars` are `expr`'s variables, which carry the classes. A
/// constant is its own mean (a non-numeric one is the type error); any
/// other expression takes the shortcut only under `use_exact_cdf`, the
/// switch of every closed form. `None`: not affine, or a class without a
/// mean.
pub(crate) fn linear_exact(
    expr: &Equation,
    vars: &[RandomVar],
    cfg: &SamplerConfig,
) -> Result<Option<f64>> {
    if let Some(v) = expr.as_const() {
        return v.as_f64().map(Some);
    }
    if !cfg.use_exact_cdf {
        return Ok(None);
    }
    let Some(form) = expr.linear_coeffs() else {
        return Ok(None);
    };
    let mut mean = form.constant;
    for &(key, a) in form.terms() {
        let v = vars
            .iter()
            .find(|v| v.key == key)
            .expect("a variable of expr");
        match v.class.mean(&v.params) {
            Some(m) => mean += a * m,
            None => return Ok(None),
        }
    }
    Ok(Some(mean))
}

/// Compute `E[expr | condition]` and optionally `P[condition]`.
///
/// `site` seeds the operator deterministically (use e.g. the row index).
pub fn expectation(
    expr: &Equation,
    condition: &Conjunction,
    want_probability: bool,
    cfg: &SamplerConfig,
    site: u64,
) -> Result<ExpectationResult> {
    let expr = expr.simplified();
    let Some(row) = analyse(condition, expr.variables(), cfg) else {
        return Ok(ExpectationResult::nan(want_probability));
    };
    let mut rng = rng_for_site(cfg, site);
    // Closed form first; it builds a kernel only for a condition group
    // without an exact probability.
    if let Some(r) = row.closed_form(&expr, want_probability, cfg, &mut rng, kernel_probe)? {
        return Ok(r);
    }
    let mut prep = row.build(|g, bounds, slots| GroupKernel::for_group(g, bounds, cfg, slots));

    // Averaging loop (lines 11–28): the kernels draw into slot buffers
    // and the expression evaluates as a tape.
    //
    // Does anything after the loop consume the *loop's sampling state*?
    // With `want_probability`, a group without an exact CDF path feeds
    // the probability product either through the generator (Monte-Carlo
    // estimation of expression-disjoint groups) or through the loop's
    // acceptance counters (relevant groups' estimates). Either way,
    // overdrawing a columnar block past the adaptive stopping point
    // would perturb the result — so blocked (overdraw-prone) mode is only
    // taken when every atom group resolves exactly, and the
    // sample-at-a-time loop otherwise.
    let tape = compile_expr(&expr, &prep);
    let sampling_state_consumed_after =
        |k: &GroupKernel| !k.group.atoms.is_empty() && exact_probability(&k.group, cfg).is_none();
    let loop_state_needed_after =
        want_probability && prep.samplers.iter().any(sampling_state_consumed_after);
    let stats = if loop_state_needed_after {
        serial_per_sample(&mut prep, &tape, cfg, &mut rng)?
    } else {
        serial_blocked(&mut prep, &tape, cfg, &mut rng)?
    };
    if stats.n == 0 {
        // Could not draw a single satisfying sample: treat the context as
        // (numerically) unsatisfiable, per Algorithm 4.3 line 25.
        return Ok(ExpectationResult::nan(want_probability));
    }

    let used_metropolis = prep.samplers.iter().any(|k| k.uses_metropolis());
    let probability = if want_probability {
        condition_probability(&mut prep, cfg, &mut rng)?
    } else {
        f64::NAN
    };

    Ok(ExpectationResult {
        expectation: stats.mean(),
        probability,
        n_samples: stats.n,
        std_error: stats.std_error(),
        used_metropolis,
    })
}

/// `P[C]` after the averaging loop, as the product over independent
/// groups (lines 29–35): the groups the loop sampled contribute their
/// acceptance estimate; the rest use the exact CDF path when available
/// and a fixed-budget probe otherwise.
fn condition_probability(
    prep: &mut Prepared,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
) -> Result<f64> {
    let n_slots = prep.slots.len();
    let mut prob = 1.0;
    for (i, k) in prep.samplers.iter_mut().enumerate() {
        if k.group.atoms.is_empty() {
            continue;
        }
        let exact = exact_probability(&k.group, cfg);
        if prep.relevant.contains(&i) && !k.uses_metropolis() && k.attempts > 0 {
            // Free by-product of the averaging loop... unless an exact
            // path gives a sharper answer at constant cost.
            prob *= exact.unwrap_or_else(|| k.probability_estimate());
            continue;
        }
        if let Some(p) = exact {
            prob *= p;
            continue;
        }
        // Estimate by direct Monte Carlo over candidates of this group.
        let budget = cfg.probe_budget();
        prob *= k.estimate_probability(rng, budget, &mut vec![0.0; n_slots], &mut Vec::new())?;
    }
    Ok(prob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_dist::prelude::builtin;
    use pip_dist::special;
    use pip_expr::{atoms, RandomVar};

    fn normal(mu: f64, sigma: f64) -> RandomVar {
        RandomVar::create(builtin::normal(), &[mu, sigma]).unwrap()
    }

    #[test]
    fn unconditional_mean_is_exact() {
        let y = normal(5.0, 2.0);
        let cfg = SamplerConfig::default();
        let r = expectation(&Equation::from(y), &Conjunction::top(), true, &cfg, 0).unwrap();
        assert_eq!(r.expectation, 5.0);
        assert_eq!(r.probability, 1.0);
        assert_eq!(r.n_samples, 0, "exact path must not sample");
    }

    #[test]
    fn paper_example_4_1_truncated_mean() {
        // [Y ⇒ Normal(5, σ=10)] with (Y > −3) AND (Y < 2) → E ≈ 0.17… but
        // the exact truncated-normal mean: μ + σ(φ(a)−φ(b))/(Φ(b)−Φ(a))
        // with a=(−3−5)/10=−0.8, b=(2−5)/10=−0.3.
        let y = normal(5.0, 10.0);
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(y.clone()), -3.0),
            atoms::lt(Equation::from(y.clone()), 2.0),
        ]);
        let (a, b) = (-0.8, -0.3);
        let truth = 5.0
            + 10.0 * (special::normal_pdf(a) - special::normal_pdf(b))
                / (special::normal_cdf(b) - special::normal_cdf(a));
        let cfg = SamplerConfig::fixed_samples(4000);
        let r = expectation(&Equation::from(y), &cond, true, &cfg, 1).unwrap();
        assert!(
            (r.expectation - truth).abs() < 0.15,
            "{} vs {truth}",
            r.expectation
        );
        // Probability exact via CDF: Φ(−0.3) − Φ(−0.8).
        let p_truth = special::normal_cdf(b) - special::normal_cdf(a);
        assert!((r.probability - p_truth).abs() < 1e-9);
    }

    #[test]
    fn inconsistent_context_yields_nan_zero() {
        let y = normal(0.0, 1.0);
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(y.clone()), 5.0),
            atoms::lt(Equation::from(y.clone()), 3.0),
        ]);
        let cfg = SamplerConfig::default();
        let r = expectation(&Equation::from(y), &cond, true, &cfg, 2).unwrap();
        assert!(r.expectation.is_nan());
        assert_eq!(r.probability, 0.0);
    }

    #[test]
    fn independence_means_unrelated_constraint_not_sampled_in_loop() {
        // Paper Example 3.1: price Y1, shipping Y2 independent; condition
        // touches only Y2, expression only Y1. The probability multiplies
        // in exactly (exact CDF), the expectation is just E[Y1].
        let y1 = normal(100.0, 5.0);
        let y2 = normal(4.0, 2.0);
        let cond = Conjunction::single(atoms::ge(Equation::from(y2), 7.0));
        let cfg = SamplerConfig::default();
        let r = expectation(&Equation::from(y1.clone()), &cond, true, &cfg, 3).unwrap();
        assert_eq!(r.expectation, 100.0);
        assert_eq!(r.n_samples, 0, "closed form must not sample");
        let p_truth = 1.0 - special::normal_cdf((7.0 - 4.0) / 2.0);
        assert!((r.probability - p_truth).abs() < 1e-9, "{}", r.probability);

        // An unrelated group without a closed form is probed on its own;
        // the expression is still not sampled.
        let y2 = normal(1.0, 1.0);
        let y3 = normal(1.0, 1.0);
        let cond = Conjunction::single(atoms::gt(Equation::from(y2) * Equation::from(y3), 1.0));
        let expr = Equation::from(y1) * 2.0 + 1.0;
        let r = expectation(&expr, &cond, true, &cfg, 3).unwrap();
        assert_eq!(r.expectation, 201.0);
        assert_eq!(r.n_samples, 0);
        assert!(r.probability > 0.0 && r.probability < 1.0);
        let o = crate::oracle::expectation(&expr, &cond, true, &cfg, 3).unwrap();
        assert_eq!(r, o, "production and oracle apply the same rule");
    }

    #[test]
    fn composite_expression_expectation() {
        // E[2·Y + 3 | Y > 0] for Y ~ Normal(0,1): 2·E[Y|Y>0] + 3 =
        // 2·φ(0)/ (1−Φ(0)) + 3 = 2·0.79788… + 3 ≈ 4.5958.
        let y = normal(0.0, 1.0);
        let expr = Equation::from(y.clone()) * 2.0 + 3.0;
        let cond = Conjunction::single(atoms::gt(Equation::from(y), 0.0));
        let cfg = SamplerConfig::fixed_samples(4000);
        let r = expectation(&expr, &cond, false, &cfg, 4).unwrap();
        let truth = 2.0 * special::normal_pdf(0.0) / 0.5 + 3.0;
        assert!((r.expectation - truth).abs() < 0.1, "{}", r.expectation);
    }

    #[test]
    fn adaptive_stop_kicks_in_for_low_variance() {
        // Nearly-deterministic expression: Uniform(0.999, 1.001).
        let u = RandomVar::create(builtin::uniform(), &[0.999, 1.001]).unwrap();
        let cfg = SamplerConfig {
            min_samples: 16,
            max_samples: 100_000,
            ..Default::default()
        };
        let r = expectation(&Equation::from(u), &Conjunction::top(), false, &cfg, 5).unwrap();
        assert!(r.n_samples < 1000, "stopped after {} samples", r.n_samples);
        assert!((r.expectation - 1.0).abs() < 1e-3);
    }

    #[test]
    fn deterministic_expression_with_probabilistic_condition() {
        // E[42 | Y > 1] = 42, P = 1−Φ(1).
        let y = normal(0.0, 1.0);
        let cond = Conjunction::single(atoms::gt(Equation::from(y), 1.0));
        let cfg = SamplerConfig::default();
        let r = expectation(&Equation::val(42.0), &cond, true, &cfg, 6).unwrap();
        assert_eq!(r.expectation, 42.0);
        let truth = 1.0 - special::normal_cdf(1.0);
        assert!((r.probability - truth).abs() < 1e-9);
    }

    #[test]
    fn seeded_determinism() {
        let y = normal(0.0, 1.0);
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.5));
        let cfg = SamplerConfig::fixed_samples(200);
        let a = expectation(&Equation::from(y.clone()), &cond, true, &cfg, 7).unwrap();
        let b = expectation(&Equation::from(y.clone()), &cond, true, &cfg, 7).unwrap();
        assert_eq!(a, b);
        let c = expectation(&Equation::from(y), &cond, true, &cfg, 8).unwrap();
        assert_ne!(a.expectation, c.expectation, "different sites decorrelate");
    }

    #[test]
    fn naive_ablation_still_converges() {
        let y = normal(0.0, 1.0);
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 1.0));
        let cfg = SamplerConfig::naive(3000);
        let r = expectation(&Equation::from(y), &cond, true, &cfg, 11).unwrap();
        // E[Y|Y>1] = φ(1)/(1−Φ(1)) ≈ 1.5251.
        assert!((r.expectation - 1.5251).abs() < 0.1, "{}", r.expectation);
        // P estimated by rejection, not exact.
        assert!((r.probability - (1.0 - special::normal_cdf(1.0))).abs() < 0.05);
    }
}
