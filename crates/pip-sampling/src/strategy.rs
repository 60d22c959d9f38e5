//! Per-group sampling strategies (paper Section IV-A).
//!
//! Every minimal independent subset of constraint atoms is sampled by one
//! compiled [`GroupKernel`](crate::tape::GroupKernel); this module decides
//! how. In order of preference:
//!
//! * **exact CDF integration** — interval constraints on one variable,
//!   or on an affine combination of independent Normals (itself Normal),
//!   need no sampling at all to compute their probability;
//! * **inverse-CDF bounded sampling** — the uniform input is restricted
//!   to `[CDF(lo), CDF(hi)]` using the consistency checker's bounds map,
//!   so generated values land inside the box by construction;
//! * **rejection sampling** — candidates are always re-checked against
//!   the *exact* atoms, so coarser-than-atom bounds stay correct;
//! * **Metropolis** — engaged when the observed rejection rate crosses
//!   the configured threshold (Algorithm 4.3 lines 19–24): the kernel
//!   hands its group to [`crate::metropolis`] in place.

use std::borrow::Cow;
use std::sync::Arc;

use pip_expr::{CmpOp, LinearForm, RandomVar, VarGroup, VarKey};

use pip_ctable::{BoundsMap, Interval};

use crate::config::SamplerConfig;

/// Hard cap on consecutive rejections for a single sample; reaching it
/// means the constraint is (numerically) unsatisfiable and the caller
/// receives NAN, mirroring Algorithm 4.3 line 25.
pub(crate) const MAX_ATTEMPTS_PER_SAMPLE: u64 = 200_000;

/// Attempts before the Metropolis switch may engage: the rejection rate
/// needs enough evidence that a high value is not a fluke.
pub(crate) const METROPOLIS_MIN_ATTEMPTS: u64 = 256;

/// Rejection-scan draws [`crate::metropolis::MetropolisState::init`] may
/// spend looking for the chain's start point.
pub(crate) const METROPOLIS_START_ATTEMPTS: usize = 100_000;

/// How a single variable is generated inside the rejection loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VarStrategy {
    /// Plain `Generate` from the distribution class.
    Natural,
    /// Inverse-CDF transform with the uniform input restricted to
    /// `[p_lo, p_hi]`.
    CdfBounded { p_lo: f64, p_hi: f64 },
}

/// Strategy selection for `group`: one [`VarStrategy`] per variable
/// (aligned with `group.vars`), exploiting `bounds` when the config
/// allows CDF-bounded generation, and the probability mass of the
/// resulting sampling box — the product over bounded variables of
/// `p_hi − p_lo`, 1.0 when nothing is bounded.
pub(crate) fn select_strategies(
    group: &VarGroup,
    bounds: &BoundsMap,
    cfg: &SamplerConfig,
) -> (Vec<VarStrategy>, f64) {
    let mut strategies = Vec::with_capacity(group.vars.len());
    let mut box_mass = 1.0;
    for v in &group.vars {
        let iv = bounds.get(v.key);
        let strategy = if cfg.use_cdf_sampling && !iv.is_unbounded() {
            match (
                cdf_below(v, iv.lo),
                cdf_at(v, iv.hi),
                v.class.inverse_cdf(&v.params, 0.5),
            ) {
                (Some(p_lo), Some(p_hi), Some(_)) if p_hi > p_lo => {
                    box_mass *= p_hi - p_lo;
                    VarStrategy::CdfBounded { p_lo, p_hi }
                }
                _ => VarStrategy::Natural,
            }
        } else {
            VarStrategy::Natural
        };
        strategies.push(strategy);
    }
    (strategies, box_mass)
}

/// The Metropolis switch of Algorithm 4.3 line 19, checked after every
/// rejected candidate: the overall rejection fraction exceeds the
/// threshold, with enough evidence that it is not a fluke.
pub(crate) fn metropolis_due(cfg: &SamplerConfig, attempts: u64, accepts: u64) -> bool {
    cfg.use_metropolis
        && attempts >= METROPOLIS_MIN_ATTEMPTS
        && 1.0 - accepts as f64 / attempts as f64 > cfg.metropolis_threshold
}

/// Monte-Carlo estimate of `P[group atoms]` from the rejection counters.
///
/// Candidates are drawn inside the CDF box, so the estimate is
/// `box_mass · accepts/attempts`. The counters are live: after a
/// Metropolis switch they hold the candidates drawn before it plus any
/// fixed-budget probe since — iid draws from the same box either way
/// (the walk itself carries no acceptance information).
pub(crate) fn acceptance_estimate(box_mass: f64, attempts: u64, accepts: u64, atoms: bool) -> f64 {
    if attempts == 0 {
        // No sampling happened: either the group has no atoms
        // (probability 1) or only exact paths were used.
        return if atoms { f64::NAN } else { box_mass };
    }
    box_mass * accepts as f64 / attempts as f64
}

/// `P[X ≤ x]` helper that tolerates infinite arguments.
fn cdf_at(v: &RandomVar, x: f64) -> Option<f64> {
    if x == f64::INFINITY {
        return Some(1.0);
    }
    if x == f64::NEG_INFINITY {
        return Some(0.0);
    }
    v.class.cdf(&v.params, x)
}

/// Lower CDF endpoint for interval `[lo, ·]`: for discrete variables the
/// mass strictly below `lo` is `CDF(lo − 1)` on the integer grid.
fn cdf_below(v: &RandomVar, lo: f64) -> Option<f64> {
    if lo == f64::NEG_INFINITY {
        return Some(0.0);
    }
    if v.is_discrete() {
        cdf_at(v, lo.ceil() - 1.0)
    } else {
        cdf_at(v, lo)
    }
}

/// The `(Xᵢ, dᵢ)` of a scalar `Σ dᵢ·Xᵢ`.
type Direction = Vec<(VarKey, f64)>;

/// The scalar `S = Σ dᵢ·Xᵢ` an exact group's atoms all constrain, as
/// `(S, d)` with `d` in `group.vars` order — `d = None` when `S` is the
/// group's single variable itself (`d = 1`, nothing derived):
///
/// * a single-variable group is its variable;
/// * several *independent* `Normal`s reduce along the first atom's
///   affine coefficients to the derived `Normal(Σdᵢμᵢ, √Σdᵢ²σᵢ²)` — a
///   linear combination of independent Normals is Normal.
///
/// The derived variable exists only to carry `(class, params)` into the
/// CDF helpers: it is never sampled and its key never looked up.
fn exact_scalar(group: &VarGroup) -> Option<(Cow<'_, RandomVar>, Option<Direction>)> {
    if let [v] = group.vars.as_slice() {
        return Some((Cow::Borrowed(v), None));
    }
    // Components of one joint variable (equal id) are dependent.
    let independent_normals = group.vars.iter().enumerate().all(|(i, v)| {
        v.class.name() == "Normal" && group.vars[..i].iter().all(|o| o.key.id != v.key.id)
    });
    if !independent_normals {
        return None;
    }
    let form = group.atoms.first()?.linear_form()?;
    // Summed in `group.vars` order (never the form's order): the same
    // bits whatever order the atom names its variables in.
    let (mut dir, mut mean, mut variance) = (Vec::new(), 0.0, 0.0);
    for v in &group.vars {
        if let Some(d) = form.coeff(v.key) {
            dir.push((v.key, d));
            mean += d * v.class.mean(&v.params)?;
            variance += d * d * v.class.variance(&v.params)?;
        }
    }
    let first = group.vars.first()?;
    let derived = RandomVar {
        key: first.key,
        class: Arc::clone(&first.class),
        params: Arc::from([mean, variance.sqrt()]),
    };
    (!dir.is_empty()).then_some((Cow::Owned(derived), Some(dir)))
}

/// The `a` with `coeffs = a·dir` exactly (same variables, one common
/// ratio — non-zero, as both sides hold non-zero coefficients only);
/// `None` when the atom is not parallel to `dir`.
fn parallel_scale(coeffs: &LinearForm, dir: &[(VarKey, f64)]) -> Option<f64> {
    let &(k0, d0) = dir.first()?;
    let a = coeffs.coeff(k0)? / d0;
    let parallel = coeffs.len() == dir.len()
        && dir
            .iter()
            .all(|&(key, d)| coeffs.coeff(key).is_some_and(|c| c == a * d));
    parallel.then_some(a)
}

/// Exact interval of an affine constraint set over one scalar (see
/// [`exact_scalar`]), honouring strictness on the integer grid for
/// discrete variables.
fn exact_interval(group: &VarGroup) -> Option<(Cow<'_, RandomVar>, Interval)> {
    let (v, combo) = exact_scalar(group)?;
    let single = [(v.key, 1.0)];
    let dir = combo.as_deref().unwrap_or(&single);
    let discrete = v.is_discrete();
    let mut iv = {
        let (lo, hi) = v.class.support(&v.params);
        Interval::new(lo, hi)
    };
    for atom in &group.atoms {
        let form = atom.linear_form()?;
        let a = parallel_scale(&form, dir)?;
        // a·s + c (op) 0  →  s (op') t
        let t = -form.constant / a;
        let op = if a < 0.0 { atom.op.flip() } else { atom.op };
        let bound = match op {
            CmpOp::Gt => {
                let lo = if discrete { grid_above(t) } else { t };
                Interval::new(lo, f64::INFINITY)
            }
            CmpOp::Ge => {
                let lo = if discrete { t.ceil() } else { t };
                Interval::new(lo, f64::INFINITY)
            }
            CmpOp::Lt => {
                let hi = if discrete { grid_below(t) } else { t };
                Interval::new(f64::NEG_INFINITY, hi)
            }
            CmpOp::Le => {
                let hi = if discrete { t.floor() } else { t };
                Interval::new(f64::NEG_INFINITY, hi)
            }
            CmpOp::Eq => Interval::new(t, t),
            CmpOp::Ne => return None,
        };
        iv = iv.intersect(&bound);
    }
    Some((v, iv))
}

/// Largest integer strictly below `t`.
fn grid_below(t: f64) -> f64 {
    if t.fract() == 0.0 {
        t - 1.0
    } else {
        t.floor()
    }
}

/// Smallest integer strictly above `t`.
fn grid_above(t: f64) -> f64 {
    if t.fract() == 0.0 {
        t + 1.0
    } else {
        t.ceil()
    }
}

/// `P[atoms]` via two CDF evaluations (the paper's headline exact path)
/// for a group whose atoms are parallel affine constraints on one scalar
/// with a known CDF: a single variable, or an affine combination of
/// independent `Normal`s (`x + y > c`, a two-sided band on `2x − y`).
/// `None` — the caller samples — for anything else: a non-Normal member,
/// a non-affine atom, atoms along different directions.
pub fn exact_group_probability(group: &VarGroup) -> Option<f64> {
    let (v, iv) = exact_interval(group)?;
    if iv.is_empty() {
        return Some(0.0);
    }
    let hi = cdf_at(&v, iv.hi)?;
    let lo = cdf_below(&v, iv.lo)?;
    Some((hi - lo).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::GroupKernel;
    use pip_core::Result;
    use pip_ctable::consistency_check;
    use pip_dist::prelude::builtin;
    use pip_dist::{rng_from_seed, special, PipRng};
    use pip_expr::{atoms, independent_groups, Conjunction, Equation, SlotMap};

    /// One group's kernel and its slot buffer, drawn a sample at a time.
    struct Drawn {
        k: GroupKernel,
        bounds: BoundsMap,
        slots: SlotMap,
        buf: Vec<f64>,
        regs: Vec<f64>,
    }

    impl Drawn {
        fn new(group: VarGroup, bounds: BoundsMap, cfg: &SamplerConfig) -> Drawn {
            let mut slots = SlotMap::new();
            let k = GroupKernel::for_group(group, &bounds, cfg, &mut slots);
            let buf = vec![0.0; slots.len()];
            Drawn {
                k,
                bounds,
                slots,
                buf,
                regs: Vec::new(),
            }
        }

        fn sample(&mut self, rng: &mut PipRng, cfg: &SamplerConfig) -> Result<()> {
            let drawn = self.k.sample_into_slots(
                rng,
                cfg,
                &self.bounds,
                &mut self.buf,
                &mut self.regs,
                false,
            )?;
            assert!(drawn, "nothing holds the switch");
            Ok(())
        }

        fn get(&self, v: &RandomVar) -> f64 {
            self.buf[self.slots.slot_of(v.key).unwrap() as usize]
        }
    }

    /// The kernel of the one group of `cond`, with consistency bounds.
    fn make(cond: &Conjunction, cfg: &SamplerConfig) -> Drawn {
        let bounds = consistency_check(cond).bounds();
        let mut groups = independent_groups(cond, &[]);
        assert_eq!(groups.len(), 1);
        Drawn::new(groups.pop().unwrap(), bounds, cfg)
    }

    #[test]
    fn unconstrained_group_always_accepts() {
        let y = RandomVar::create(builtin::normal(), &[5.0, 1.0]).unwrap();
        let cfg = SamplerConfig::default();
        let cond = Conjunction::top();
        let groups = independent_groups(&cond, std::slice::from_ref(&y));
        let mut s = Drawn::new(groups.into_iter().next().unwrap(), BoundsMap::new(), &cfg);
        let mut rng = rng_from_seed(1);
        for _ in 0..100 {
            s.sample(&mut rng, &cfg).unwrap();
            assert!(s.get(&y).is_finite());
        }
        assert_eq!(s.k.accepts, 100);
        assert_eq!(s.k.probability_estimate(), 1.0);
    }

    #[test]
    fn cdf_bounded_sampling_never_rejects_box_constraints() {
        // (Y > -3) AND (Y < 2) on Normal(5,10): Example 4.1 of the paper.
        let y = RandomVar::create(builtin::normal(), &[5.0, 10.0]).unwrap();
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(y.clone()), -3.0),
            atoms::lt(Equation::from(y.clone()), 2.0),
        ]);
        let cfg = SamplerConfig::default();
        let mut s = make(&cond, &cfg);
        let mut rng = rng_from_seed(2);
        let n = 2000;
        let mut sum = 0.0;
        for _ in 0..n {
            s.sample(&mut rng, &cfg).unwrap();
            let x = s.get(&y);
            assert!(x > -3.0 && x < 2.0, "{x}");
            sum += x;
        }
        // With CDF bounds the box is sampled directly: zero rejections.
        assert_eq!(s.k.accepts, s.k.attempts);
        // Truncated-normal mean: μ + σ(φ(a)−φ(b))/(Φ(b)−Φ(a)),
        // a = (−3−5)/10 = −0.8, b = (2−5)/10 = −0.3.
        let (za, zb) = (-0.8, -0.3);
        let truth = 5.0
            + 10.0 * (special::normal_pdf(za) - special::normal_pdf(zb))
                / (special::normal_cdf(zb) - special::normal_cdf(za));
        let mean = sum / n as f64;
        assert!((mean - truth).abs() < 0.2, "mean {mean} vs {truth}");
    }

    #[test]
    fn naive_config_rejects_instead() {
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 1.0));
        let cfg = SamplerConfig::naive(100);
        let mut s = make(&cond, &cfg);
        let mut rng = rng_from_seed(3);
        for _ in 0..50 {
            s.sample(&mut rng, &cfg).unwrap();
            assert!(s.get(&y) > 1.0);
        }
        assert!(s.k.attempts > s.k.accepts, "rejection must be happening");
        // Estimate approximates P[Y > 1] ≈ 0.1587.
        let est = s.k.probability_estimate();
        assert!((est - 0.1587).abs() < 0.08, "{est}");
    }

    #[test]
    fn probability_estimate_with_cdf_box_is_consistent() {
        // Constraint exactly a box → estimate == box_mass exactly.
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(y.clone()), -1.0),
            atoms::lt(Equation::from(y.clone()), 1.0),
        ]);
        let cfg = SamplerConfig::default();
        let mut s = make(&cond, &cfg);
        let mut rng = rng_from_seed(4);
        for _ in 0..500 {
            s.sample(&mut rng, &cfg).unwrap();
        }
        let expected = special::normal_cdf(1.0) - special::normal_cdf(-1.0);
        assert!((s.k.probability_estimate() - expected).abs() < 1e-9);
    }

    #[test]
    fn exact_probability_single_var_interval() {
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::of(vec![
            atoms::ge(Equation::from(y.clone()), -1.0),
            atoms::le(Equation::from(y.clone()), 2.0),
        ]);
        let g = independent_groups(&cond, &[]).pop().unwrap();
        let p = exact_group_probability(&g).unwrap();
        let truth = special::normal_cdf(2.0) - special::normal_cdf(-1.0);
        assert!((p - truth).abs() < 1e-9, "{p} vs {truth}");
    }

    #[test]
    fn exact_probability_discrete_strictness() {
        // X ~ DiscreteUniform(1,6); P[X < 3] = P[X ≤ 2] = 2/6.
        let x = RandomVar::create(builtin::discrete_uniform(), &[1.0, 6.0]).unwrap();
        let cond = Conjunction::single(atoms::lt(Equation::from(x.clone()), 3.0));
        let g = independent_groups(&cond, &[]).into_iter().next().unwrap();
        let p = exact_group_probability(&g).unwrap();
        assert!((p - 2.0 / 6.0).abs() < 1e-12, "{p}");
        // P[X ≤ 3] = 3/6.
        let cond = Conjunction::single(atoms::le(Equation::from(x.clone()), 3.0));
        let g = independent_groups(&cond, &[]).into_iter().next().unwrap();
        assert!((exact_group_probability(&g).unwrap() - 0.5).abs() < 1e-12);
        // P[X > 6] = 0.
        let cond = Conjunction::single(atoms::gt(Equation::from(x), 6.0));
        let g = independent_groups(&cond, &[]).into_iter().next().unwrap();
        assert_eq!(exact_group_probability(&g), Some(0.0));
    }

    /// The one group of `atoms` (they must share variables).
    fn only_group(atoms: Vec<pip_expr::Atom>) -> VarGroup {
        let groups = independent_groups(&Conjunction::of(atoms), &[]);
        assert_eq!(groups.len(), 1);
        groups.into_iter().next().unwrap()
    }

    #[test]
    fn exact_probability_of_affine_normal_combinations() {
        let x = RandomVar::create(builtin::normal(), &[1.0, 2.0]).unwrap();
        let y = RandomVar::create(builtin::normal(), &[-3.0, 0.5]).unwrap();
        let (ex, ey) = (Equation::from(x.clone()), Equation::from(y.clone()));
        // Φ of the derived Normal(mean, √var) at t.
        let phi = |t: f64, mean: f64, var: f64| special::normal_cdf((t - mean) / var.sqrt());
        let sum = (-2.0, 4.25); // x + y
        let diff = (11.0, 4.0 * 4.0 + 9.0 * 0.25); // 2x − 3y
        let cases: Vec<(Vec<pip_expr::Atom>, f64)> = vec![
            // x + y > c, the sampling_heavy template.
            (
                vec![atoms::gt(ex.clone() + ey.clone(), -1.0)],
                1.0 - phi(-1.0, sum.0, sum.1),
            ),
            // Negative coefficient, `<=`.
            (
                vec![atoms::le(ex.clone() * 2.0 - ey.clone() * 3.0, 9.0)],
                phi(9.0, diff.0, diff.1),
            ),
            // Variables and constant offsets on both sides, `>=`:
            // x + 1.5 ≥ 4 − y  ⇔  x + y ≥ 2.5.
            (
                vec![atoms::ge(ex.clone() + 1.5, Equation::val(4.0) - ey.clone())],
                1.0 - phi(2.5, sum.0, sum.1),
            ),
            // A negative common scale flips the operator, `<`:
            // −x − y < 3  ⇔  x + y > −3.
            (
                vec![atoms::lt(-ex.clone() - ey.clone(), 3.0)],
                1.0 - phi(-3.0, sum.0, sum.1),
            ),
            // Zero coefficient: y is in the group but not in the sum.
            (
                vec![atoms::gt(ex.clone() + ey.clone() * 0.0, 2.0)],
                1.0 - phi(2.0, 1.0, 4.0),
            ),
            // Two-sided band, the upper atom scaled: −4 < x + y, 2x + 2y < 1.
            (
                vec![
                    atoms::gt(ex.clone() + ey.clone(), -4.0),
                    atoms::lt(ex.clone() * 2.0 + ey.clone() * 2.0, 1.0),
                ],
                phi(0.5, sum.0, sum.1) - phi(-4.0, sum.0, sum.1),
            ),
            // Empty band.
            (
                vec![
                    atoms::gt(ex.clone() + ey.clone(), 1.0),
                    atoms::lt(ex.clone() + ey.clone(), 0.0),
                ],
                0.0,
            ),
            // P[x > y] for the old multi-variable refusal case.
            (
                vec![atoms::gt(ex.clone(), ey.clone())],
                1.0 - phi(0.0, 4.0, 4.25),
            ),
        ];
        for (atoms, truth) in cases {
            let shown = Conjunction::of(atoms.clone()).to_string();
            let p = exact_group_probability(&only_group(atoms)).unwrap();
            assert!((p - truth).abs() < 1e-12, "{shown}: {p} vs {truth}");
        }
    }

    #[test]
    fn exact_probability_refuses_groups_without_a_closed_form() {
        let normal = || RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let (a, b) = (normal(), normal());
        let e = RandomVar::create(builtin::exponential(), &[1.0]).unwrap();
        let (ea, eb, ee) = (
            Equation::from(a.clone()),
            Equation::from(b.clone()),
            Equation::from(e),
        );
        let joint = (
            Equation::from(a.component(0)),
            Equation::from(a.component(1)),
        );
        let refused: Vec<Vec<pip_expr::Atom>> = vec![
            // A product of two variables is not affine.
            vec![atoms::gt(ea.clone() * eb.clone(), 0.0)],
            // A repeated variable in a non-affine atom.
            vec![atoms::gt(ea.clone() * ea.clone() + eb.clone(), 1.0)],
            // A non-Normal member: Normal + Exponential is not Normal.
            vec![atoms::gt(ea.clone() + ee, 1.0)],
            // Atoms along different directions: a wedge, not a band.
            vec![
                atoms::gt(ea.clone() + eb.clone(), 0.0),
                atoms::gt(ea.clone() - eb.clone(), 0.0),
            ],
            // Components of one joint variable are not independent.
            vec![atoms::gt(joint.0 + joint.1, 0.0)],
            // `≠` is no interval.
            vec![atoms::ne(ea + eb, 0.0)],
        ];
        for atoms in refused {
            let shown = Conjunction::of(atoms.clone()).to_string();
            assert_eq!(exact_group_probability(&only_group(atoms)), None, "{shown}");
        }
    }

    #[test]
    fn metropolis_switch_engages_on_extreme_selectivity() {
        // P[Y > 4] ≈ 3.2e-5 on Normal(0,1) — with CDF sampling disabled,
        // rejection alone would need ~31k tries per sample; the switch
        // must fire.
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 4.0));
        let cfg = SamplerConfig {
            use_cdf_sampling: false,
            ..Default::default()
        };
        let mut s = make(&cond, &cfg);
        let mut rng = rng_from_seed(5);
        for _ in 0..20 {
            s.sample(&mut rng, &cfg).unwrap();
            assert!(s.get(&y) > 4.0);
        }
        assert!(s.k.uses_metropolis());
    }

    #[test]
    fn impossible_constraint_errors_out() {
        // Uniform[0,1] with Y > 2 and CDF sampling disabled: rejection
        // can never succeed, Metropolis can't start → sampling error.
        let y = RandomVar::create(builtin::uniform(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 2.0));
        let cfg = SamplerConfig::naive(10);
        // Bypass consistency (naive config) — build group directly.
        let g = independent_groups(&cond, &[]).into_iter().next().unwrap();
        let mut s = Drawn::new(g, BoundsMap::new(), &cfg);
        let mut rng = rng_from_seed(6);
        let err = s.sample(&mut rng, &cfg);
        assert!(err.is_err());
    }

    #[test]
    fn impossible_constraint_with_metropolis_fails_fast() {
        // Uniform[0,5) with Y > 5: zero probability, and the consistency
        // bounds push Metropolis' fallback start point off-support
        // (pdf = 0), so init fails too. The sampler must hit the attempt
        // cap once and error out — not retry the expensive init scan on
        // every rejected candidate (a regression here turns the bounded
        // cap into an effective hang).
        let y = RandomVar::create(builtin::uniform(), &[0.0, 5.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 5.0));
        let cfg = SamplerConfig::default();
        assert!(
            cfg.use_metropolis,
            "default config must exercise the switch"
        );
        let mut s = make(&cond, &cfg);
        let mut rng = rng_from_seed(7);
        let start = std::time::Instant::now();
        let err = s.sample(&mut rng, &cfg);
        assert!(err.is_err(), "{err:?}");
        assert!(
            s.k.metropolis_unavailable,
            "init failure must be remembered"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "attempt cap took {:?} — init scan is being retried",
            start.elapsed()
        );
    }
}
