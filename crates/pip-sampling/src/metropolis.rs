//! The Metropolis sampler (paper Section IV-A(d)).
//!
//! When a constraint group's rejection rate is extreme, PIP falls back to
//! a Metropolis random walk over the group's variables, targeting the
//! constrained density `π(x) ∝ Π pdfᵢ(xᵢ) · χ_atoms(x)`. The walk pays a
//! burn-in once, then yields a (correlated) sample every few steps —
//! `W = C_burn_in + n·C_steps_per_sample` versus rejection's
//! `W = n / (1 − P[reject])`.

use pip_core::{PipError, Result};
use pip_dist::{standard_normal, PipRng};
use pip_expr::{Assignment, VarGroup};
use rand::Rng;

use pip_ctable::BoundsMap;

/// Metropolis chain state for one variable group.
#[derive(Debug, Clone)]
pub struct MetropolisState {
    /// Current point, one slot per group variable (same order as
    /// `group.vars`).
    current: Vec<f64>,
    /// Scratch for the next proposal, swapped with `current` on accept.
    proposal: Vec<f64>,
    /// Per-variable proposal step widths.
    step: Vec<f64>,
    /// Cached log-density of `current`.
    log_density: f64,
    /// Steps taken (diagnostics).
    pub steps: u64,
    /// Proposals accepted (diagnostics).
    pub accepted: u64,
}

/// Log of the unconstrained part of the target density at `point`.
fn log_pdf(group: &VarGroup, point: &[f64]) -> Result<f64> {
    let mut acc = 0.0;
    for (v, &x) in group.vars.iter().zip(point) {
        let p = v.class.pdf(&v.params, x).ok_or_else(|| {
            PipError::Sampling(format!(
                "Metropolis requires a PDF for {} ({})",
                v.key.id,
                v.class.name()
            ))
        })?;
        if p <= 0.0 {
            return Ok(f64::NEG_INFINITY);
        }
        acc += p.ln();
    }
    Ok(acc)
}

/// Evaluate the group's atoms at `point`.
fn satisfies(group: &VarGroup, point: &[f64], scratch: &mut Assignment) -> Result<bool> {
    scratch.clear();
    for (v, &x) in group.vars.iter().zip(point) {
        scratch.set(v.key, x);
    }
    for atom in &group.atoms {
        if !atom.eval(scratch)? {
            return Ok(false);
        }
    }
    Ok(true)
}

impl MetropolisState {
    /// Initialize the chain: find a starting point satisfying the atoms
    /// (by bounded rejection scanning), then burn in.
    ///
    /// Returns `Err` when no start point can be found within
    /// `start_attempts` draws — Algorithm 4.3 line 23 then yields NAN.
    pub fn init(
        group: &VarGroup,
        bounds: &BoundsMap,
        rng: &mut PipRng,
        burn_in: usize,
        start_attempts: usize,
    ) -> Result<Self> {
        // Every variable needs a PDF (line 20 of Algorithm 4.3).
        for v in &group.vars {
            if v.class.pdf(&v.params, 0.0).is_none() {
                return Err(PipError::Sampling(format!(
                    "variable {} has no PDF; Metropolis unavailable",
                    v.key.id
                )));
            }
        }
        let mut scratch = Assignment::new();
        let mut point = vec![0.0; group.vars.len()];
        let mut found = false;
        for _ in 0..start_attempts {
            for (slot, v) in point.iter_mut().zip(&group.vars) {
                *slot = v.class.generate(&v.params, rng);
            }
            if satisfies(group, &point, &mut scratch)? {
                found = true;
                break;
            }
        }
        if !found {
            // Second chance: midpoint of the consistency bounds box, which
            // is often feasible when rejection scanning is hopeless.
            for (slot, v) in point.iter_mut().zip(&group.vars) {
                let iv = bounds.get(v.key);
                if iv.is_finite() {
                    *slot = 0.5 * (iv.lo + iv.hi);
                } else if iv.lo.is_finite() {
                    *slot = iv.lo + 1.0;
                } else if iv.hi.is_finite() {
                    *slot = iv.hi - 1.0;
                }
            }
            found = satisfies(group, &point, &mut scratch)?;
        }
        if !found {
            return Err(PipError::Sampling(
                "Metropolis: no satisfying start point found".into(),
            ));
        }

        // Step widths: a fraction of the bounded width, else of the
        // distribution's own scale.
        let step = group
            .vars
            .iter()
            .map(|v| {
                let iv = bounds.get(v.key);
                if iv.is_finite() && iv.width() > 0.0 {
                    0.25 * iv.width()
                } else {
                    v.class
                        .variance(&v.params)
                        .map(|s2| s2.sqrt())
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or(1.0)
                }
            })
            .collect();

        let log_density = log_pdf(group, &point)?;
        let mut state = MetropolisState {
            proposal: point.clone(),
            current: point,
            step,
            log_density,
            steps: 0,
            accepted: 0,
        };
        for _ in 0..burn_in {
            state.step_once(group, rng, &mut scratch)?;
        }
        Ok(state)
    }

    /// One Metropolis transition (symmetric Gaussian proposal).
    fn step_once(
        &mut self,
        group: &VarGroup,
        rng: &mut PipRng,
        scratch: &mut Assignment,
    ) -> Result<()> {
        self.steps += 1;
        for ((slot, &x), s) in self.proposal.iter_mut().zip(&self.current).zip(&self.step) {
            *slot = x + s * standard_normal(rng);
        }
        if !satisfies(group, &self.proposal, scratch)? {
            return Ok(());
        }
        let ld = log_pdf(group, &self.proposal)?;
        let accept = if ld >= self.log_density {
            true
        } else {
            let u: f64 = rng.gen();
            u.ln() < ld - self.log_density
        };
        if accept {
            std::mem::swap(&mut self.current, &mut self.proposal);
            self.log_density = ld;
            self.accepted += 1;
        }
        Ok(())
    }

    /// Advance `thinning` steps; the resulting point, one value per
    /// group variable (same order as `group.vars`).
    pub fn advance(
        &mut self,
        group: &VarGroup,
        rng: &mut PipRng,
        thinning: usize,
    ) -> Result<&[f64]> {
        let mut scratch = Assignment::new();
        for _ in 0..thinning.max(1) {
            self.step_once(group, rng, &mut scratch)?;
        }
        Ok(&self.current)
    }

    /// Advance `thinning` steps and write the resulting point into `out`.
    pub fn sample_into(
        &mut self,
        group: &VarGroup,
        rng: &mut PipRng,
        thinning: usize,
        out: &mut Assignment,
    ) -> Result<()> {
        let point = self.advance(group, rng, thinning)?;
        for (v, &x) in group.vars.iter().zip(point) {
            out.set(v.key, x);
        }
        Ok(())
    }

    /// Fraction of proposals accepted so far (diagnostics).
    pub fn acceptance_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.accepted as f64 / self.steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_ctable::{consistency_check, Consistency};
    use pip_dist::prelude::builtin;
    use pip_dist::rng_from_seed;
    use pip_expr::{atoms, Equation, RandomVar};

    fn group_tail() -> (VarGroup, RandomVar) {
        // Y ~ Normal(0,1), condition Y > 2.3 (P ≈ 0.0107 — heavy rejection).
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = pip_expr::Conjunction::single(atoms::gt(Equation::from(y.clone()), 2.3));
        let groups = pip_expr::independent_groups(&cond, &[]);
        (groups.into_iter().next().unwrap(), y)
    }

    #[test]
    fn chain_samples_satisfy_constraint() {
        let (group, y) = group_tail();
        let bounds = match consistency_check(&pip_expr::Conjunction::of(group.atoms.clone())) {
            Consistency::Consistent { bounds, .. } => bounds,
            _ => panic!("consistent"),
        };
        let mut rng = rng_from_seed(7);
        let mut st = MetropolisState::init(&group, &bounds, &mut rng, 200, 10_000).unwrap();
        let mut a = Assignment::new();
        for _ in 0..200 {
            st.sample_into(&group, &mut rng, 4, &mut a).unwrap();
            assert!(a.get(y.key).unwrap() > 2.3);
        }
        assert!(st.acceptance_rate() > 0.0);
    }

    #[test]
    fn chain_mean_approximates_truncated_normal() {
        let (group, y) = group_tail();
        let bounds = consistency_check(&pip_expr::Conjunction::of(group.atoms.clone())).bounds();
        let mut rng = rng_from_seed(8);
        let mut st = MetropolisState::init(&group, &bounds, &mut rng, 500, 10_000).unwrap();
        let mut a = Assignment::new();
        let n = 4000;
        let mut sum = 0.0;
        for _ in 0..n {
            st.sample_into(&group, &mut rng, 4, &mut a).unwrap();
            sum += a.get(y.key).unwrap();
        }
        // E[Y | Y > 2.3] = φ(2.3)/(1−Φ(2.3)) ≈ 2.6468
        let mean = sum / n as f64;
        assert!((mean - 2.6468).abs() < 0.12, "mean {mean}");
    }

    #[test]
    fn init_fails_without_pdf() {
        // A Generate-only black-box class cannot do Metropolis.
        #[derive(Debug)]
        struct BlackBox;
        impl pip_dist::DistributionClass for BlackBox {
            fn name(&self) -> &'static str {
                "BlackBox"
            }
            fn arity(&self) -> usize {
                0
            }
            fn validate(&self, _: &[f64]) -> pip_core::Result<()> {
                Ok(())
            }
            fn generate(&self, _: &[f64], _: &mut PipRng) -> f64 {
                0.5
            }
        }
        let v = RandomVar::create(std::sync::Arc::new(BlackBox), &[]).unwrap();
        let cond = pip_expr::Conjunction::single(atoms::gt(Equation::from(v.clone()), 0.0));
        let group = pip_expr::independent_groups(&cond, &[])
            .into_iter()
            .next()
            .unwrap();
        let mut rng = rng_from_seed(9);
        let r = MetropolisState::init(&group, &BoundsMap::new(), &mut rng, 10, 100);
        assert!(r.is_err());
    }

    #[test]
    fn init_fails_when_unsatisfiable() {
        let y = RandomVar::create(builtin::uniform(), &[0.0, 1.0]).unwrap();
        // Impossible: uniform on [0,1] but atom wants > 2.
        let cond = pip_expr::Conjunction::single(atoms::gt(Equation::from(y.clone()), 2.0));
        let group = pip_expr::independent_groups(&cond, &[])
            .into_iter()
            .next()
            .unwrap();
        let mut rng = rng_from_seed(10);
        let r = MetropolisState::init(&group, &BoundsMap::new(), &mut rng, 10, 200);
        assert!(r.is_err());
    }
}
