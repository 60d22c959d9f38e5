//! The tree-walking reference sampler, for tests only.
//!
//! [`GroupSampler`] draws one variable group's samples into an
//! [`Assignment`] and checks candidates with [`pip_expr::Atom::eval`];
//! the averaging loop evaluates the target with [`Equation::eval_f64`].
//! It is the semantics the compiled [`crate::tape::GroupKernel`] path
//! must reproduce bit for bit: [`expectation`] and [`conf`] here are the
//! production operators of the same names without tapes, slot buffers or
//! columnar blocks — same draws, same counters, same Metropolis switch,
//! same errors. The equivalence
//! suites compare the two; no production path calls into this module.

use pip_core::{PipError, Result};
use pip_ctable::{consistency_check, BoundsMap, Consistency};
use pip_dist::PipRng;
use pip_expr::{Assignment, Conjunction, Equation, Truth, VarGroup};
use rand::Rng;

use crate::blocks::{partial_or_fail, LoopStats};
use crate::confidence::{conf_groups, conf_rng};
use crate::config::SamplerConfig;
use crate::expectation::{group, rng_for_site, ExpectationResult, Prepared};
use crate::metropolis::MetropolisState;
use crate::strategy::{
    acceptance_estimate, exact_group_probability, metropolis_due, select_strategies, VarStrategy,
    MAX_ATTEMPTS_PER_SAMPLE, METROPOLIS_START_ATTEMPTS,
};

/// Tree-walking sampler for one independent variable group.
#[derive(Debug)]
pub struct GroupSampler {
    pub group: VarGroup,
    strategies: Vec<VarStrategy>,
    /// Probability mass of the CDF-restricted box.
    box_mass: f64,
    /// Rejection-loop counters: candidates generated / accepted.
    pub attempts: u64,
    pub accepts: u64,
    metropolis: Option<MetropolisState>,
    /// Metropolis init already failed: the switch is off for good.
    metropolis_unavailable: bool,
}

impl GroupSampler {
    /// Build a sampler for `group`, exploiting `bounds` when the config
    /// allows CDF-bounded generation.
    pub fn new(group: VarGroup, bounds: &BoundsMap, cfg: &SamplerConfig) -> Self {
        let (strategies, box_mass) = select_strategies(&group, bounds, cfg);
        GroupSampler {
            group,
            strategies,
            box_mass,
            attempts: 0,
            accepts: 0,
            metropolis: None,
            metropolis_unavailable: false,
        }
    }

    /// True once the sampler has switched to Metropolis.
    pub fn uses_metropolis(&self) -> bool {
        self.metropolis.is_some()
    }

    /// Generate one candidate point (no atom check) into `out`.
    fn generate_candidate(&self, rng: &mut PipRng, out: &mut Assignment) {
        for (v, s) in self.group.vars.iter().zip(&self.strategies) {
            let x = match s {
                VarStrategy::Natural => v.class.generate(&v.params, rng),
                VarStrategy::CdfBounded { p_lo, p_hi } => {
                    let u: f64 = rng.gen();
                    let p = p_lo + u * (p_hi - p_lo);
                    v.class
                        .inverse_cdf(&v.params, p)
                        .expect("strategy guaranteed inverse CDF")
                }
            };
            out.set(v.key, x);
        }
    }

    /// Check the group's atoms at the current contents of `out`.
    fn satisfied(&self, out: &Assignment) -> Result<bool> {
        for atom in &self.group.atoms {
            if !atom.eval(out)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Draw one joint sample satisfying the group's atoms into `out`.
    ///
    /// `bounds` is only consulted if a mid-flight Metropolis switch needs
    /// a start point.
    pub fn sample_into(
        &mut self,
        rng: &mut PipRng,
        cfg: &SamplerConfig,
        bounds: &BoundsMap,
        out: &mut Assignment,
    ) -> Result<()> {
        if let Some(m) = self.metropolis.as_mut() {
            return m.sample_into(&self.group, rng, cfg.metropolis_thinning, out);
        }
        let mut local_attempts: u64 = 0;
        loop {
            self.attempts += 1;
            local_attempts += 1;
            self.generate_candidate(rng, out);
            if self.satisfied(out)? {
                self.accepts += 1;
                return Ok(());
            }
            if !self.metropolis_unavailable && metropolis_due(cfg, self.attempts, self.accepts) {
                match MetropolisState::init(
                    &self.group,
                    bounds,
                    rng,
                    cfg.metropolis_burn_in,
                    METROPOLIS_START_ATTEMPTS,
                ) {
                    Ok(m) => {
                        crate::obs::metrics().metropolis_escalations_total.inc();
                        return self.metropolis.insert(m).sample_into(
                            &self.group,
                            rng,
                            cfg.metropolis_thinning,
                            out,
                        );
                    }
                    // No PDF or no start point: keep rejecting (the
                    // attempt cap below will eventually fire), and don't
                    // pay for this scan again.
                    Err(_) => self.metropolis_unavailable = true,
                }
            }
            if local_attempts >= MAX_ATTEMPTS_PER_SAMPLE {
                return Err(PipError::Sampling(format!(
                    "group rejected {MAX_ATTEMPTS_PER_SAMPLE} consecutive candidates"
                )));
            }
        }
    }

    /// `box_mass · accepts/attempts` over the live counters.
    pub fn probability_estimate(&self) -> f64 {
        acceptance_estimate(
            self.box_mass,
            self.attempts,
            self.accepts,
            !self.group.atoms.is_empty(),
        )
    }

    /// Estimate `P[group atoms]` with a fixed number of candidate draws.
    pub fn estimate_probability(&mut self, rng: &mut PipRng, n_attempts: u64) -> Result<f64> {
        let mut scratch = Assignment::new();
        for _ in 0..n_attempts {
            self.attempts += 1;
            self.generate_candidate(rng, &mut scratch);
            if self.satisfied(&scratch)? {
                self.accepts += 1;
            }
        }
        Ok(self.probability_estimate())
    }
}

/// The tree-walking [`crate::expectation()`].
pub fn expectation(
    expr: &Equation,
    condition: &Conjunction,
    want_probability: bool,
    cfg: &SamplerConfig,
    site: u64,
) -> Result<ExpectationResult> {
    let expr = expr.simplify();
    let Some(grouping) = group(&expr, condition, cfg) else {
        return Ok(ExpectationResult::nan(want_probability));
    };
    let mut rng = rng_for_site(cfg, site);
    let probe = |g: &VarGroup, bounds: &BoundsMap, rng: &mut PipRng, budget| {
        GroupSampler::new(g.clone(), bounds, cfg).estimate_probability(rng, budget)
    };
    if let Some(r) = grouping.closed_form(&expr, want_probability, cfg, &mut rng, probe)? {
        return Ok(r);
    }
    let mut prep = grouping.build(|g, bounds, _| GroupSampler::new(g, bounds, cfg));

    let stats = averaging_loop(&expr, &mut prep, cfg, &mut rng)?;
    if stats.n == 0 {
        return Ok(ExpectationResult::nan(want_probability));
    }
    let used_metropolis = prep.samplers.iter().any(|s| s.uses_metropolis());
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

/// The averaging loop, the ε–δ rule applied after every sample. The
/// rejection cap ends the loop with the partial estimate standing
/// (Algorithm 4.3 line 25); any other error is the result.
fn averaging_loop(
    expr: &Equation,
    prep: &mut Prepared<GroupSampler>,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
) -> Result<LoopStats> {
    let target = cfg.z_target();
    let mut a = Assignment::new();
    let mut stats = LoopStats::default();
    'sampling: while stats.n < cfg.max_samples {
        for &i in &prep.relevant {
            if let Err(e) = prep.samplers[i].sample_into(rng, cfg, &prep.bounds, &mut a) {
                partial_or_fail(e)?;
                break 'sampling;
            }
        }
        stats.push(expr.eval_f64(&a)?);
        if stats.should_stop(cfg, target) {
            break;
        }
    }
    Ok(stats)
}

/// `P[C]` over the samplers, as production's over the kernels.
fn condition_probability(
    prep: &mut Prepared<GroupSampler>,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
) -> Result<f64> {
    let mut prob = 1.0;
    for (i, s) in prep.samplers.iter_mut().enumerate() {
        if s.group.atoms.is_empty() {
            continue;
        }
        let exact = cfg
            .use_exact_cdf
            .then(|| exact_group_probability(&s.group))
            .flatten();
        if prep.relevant.contains(&i) && !s.uses_metropolis() && s.attempts > 0 {
            prob *= exact.unwrap_or_else(|| s.probability_estimate());
            continue;
        }
        if let Some(p) = exact {
            prob *= p;
            continue;
        }
        prob *= s.estimate_probability(rng, cfg.probe_budget())?;
    }
    Ok(prob)
}

/// The tree-walking [`crate::conf`], analysing the condition the plain
/// way: simplify, run the whole-condition consistency check, then
/// partition (production partitions once and checks the partition).
pub fn conf(condition: &Conjunction, cfg: &SamplerConfig, site: u64) -> Result<f64> {
    let (condition, truth) = condition.simplify();
    match truth {
        Truth::False => return Ok(0.0),
        Truth::True => return Ok(1.0),
        Truth::Unknown => {}
    }
    let bounds = if cfg.use_consistency {
        match consistency_check(&condition) {
            Consistency::Inconsistent => return Ok(0.0),
            Consistency::Consistent { bounds, .. } => bounds,
        }
    } else {
        BoundsMap::new()
    };
    let mut rng = conf_rng(cfg, site);
    let mut prob = 1.0;
    for g in conf_groups(&condition, cfg) {
        if g.atoms.is_empty() {
            continue;
        }
        if cfg.use_exact_cdf {
            if let Some(p) = exact_group_probability(&g) {
                prob *= p;
                continue;
            }
        }
        prob *= GroupSampler::new(g, &bounds, cfg)
            .estimate_probability(&mut rng, cfg.probe_budget())?;
    }
    Ok(prob)
}
