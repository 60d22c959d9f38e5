//! The confidence operators `conf()` and `aconf()` (paper Section V-C).
//!
//! Both take closed forms before draws (Sections III-A, IV-A(c)):
//!
//! * `conf` — probability of one row's (conjunctive) condition: product
//!   over independent groups of exact CDF integrals where available and
//!   Monte Carlo acceptance estimates elsewhere.
//! * `aconf` — probability of a *disjunction* of conditions (the
//!   coalesced condition of duplicate rows after `distinct`, or "this
//!   group — without `GROUP BY`, the whole result — is non-empty"):
//!   disjuncts that share no variable are independent events, so the DNF
//!   factorises over its variable-connected components,
//!   `P[∨φ] = 1 − Π (1 − p_c)`. A one-disjunct component is `conf`; only
//!   a component whose disjuncts truly share variables is integrated by
//!   Monte Carlo, over its own variables alone.

use pip_core::Result;
use pip_dist::{mix64, rng_from_seed, PipRng};
use pip_expr::{
    independent_components, independent_groups, Assignment, Conjunction, Dnf, SlotMap, Truth,
    VarGroup,
};

use pip_ctable::{consistency_check, consistency_of_groups, BoundsMap, Consistency};

use crate::blocks::LoopStats;
use crate::config::SamplerConfig;
use crate::strategy::exact_group_probability;
use crate::tape::GroupKernel;

/// What the static checks leave of a row condition.
pub(crate) enum Checked {
    /// Holds in no world (folds to false, or fails Algorithm 3.2).
    Dead,
    /// Holds in every world.
    Certain,
    /// Simplified and consistent.
    Open(Open),
}

/// A simplified, consistent condition, analysed once: the groups `conf`
/// multiplies over and the bounds Algorithm 3.2 derived on them.
pub(crate) struct Open {
    pub(crate) condition: Conjunction,
    pub(crate) groups: Vec<VarGroup>,
    pub(crate) bounds: BoundsMap,
}

/// Simplify, partition, then run the consistency check over the
/// partition when the config allows — one simplification and one
/// partition per condition (the monolithic `use_independence` ablation
/// runs the whole-condition check instead).
pub(crate) fn check(condition: &Conjunction, cfg: &SamplerConfig) -> Checked {
    let (condition, truth) = condition.simplify();
    match truth {
        Truth::False => return Checked::Dead,
        Truth::True => return Checked::Certain,
        Truth::Unknown => {}
    }
    let groups = conf_groups(&condition, cfg);
    let bounds = if cfg.use_consistency {
        let verdict = if cfg.use_independence {
            consistency_of_groups(&groups)
        } else {
            consistency_check(&condition)
        };
        match verdict {
            Consistency::Inconsistent => return Checked::Dead,
            Consistency::Consistent { bounds, .. } => bounds,
        }
    } else {
        BoundsMap::new()
    };
    Checked::Open(Open {
        condition,
        groups,
        bounds,
    })
}

/// `P[condition]` for a conjunctive row condition.
pub fn conf(condition: &Conjunction, cfg: &SamplerConfig, site: u64) -> Result<f64> {
    Ok(match check(condition, cfg) {
        Checked::Dead => 0.0,
        Checked::Certain => 1.0,
        Checked::Open(open) => conf_open(open.groups, &open.bounds, cfg, site)?.0,
    })
}

/// The groups `conf` multiplies over: independent groups, or one
/// monolithic group with `use_independence` off.
pub(crate) fn conf_groups(condition: &Conjunction, cfg: &SamplerConfig) -> Vec<VarGroup> {
    if cfg.use_independence {
        independent_groups(condition, &[])
    } else {
        vec![VarGroup {
            atoms: condition.atoms().to_vec(),
            vars: condition.variables(),
        }]
    }
}

/// The generator of `conf` at `site`.
pub(crate) fn conf_rng(cfg: &SamplerConfig, site: u64) -> PipRng {
    rng_from_seed(mix64(cfg.world_seed ^ site ^ 0xC0FF))
}

/// `P[condition]` of an [`Open`] condition from its groups and bounds,
/// with the number of candidate worlds the estimate rests on — 0 when
/// every group had a closed form.
fn conf_open(
    groups: Vec<VarGroup>,
    bounds: &BoundsMap,
    cfg: &SamplerConfig,
    site: u64,
) -> Result<(f64, u64)> {
    let mut rng = conf_rng(cfg, site);
    let mut prob = 1.0;
    let mut draws = 0;
    for g in groups {
        if g.atoms.is_empty() {
            continue;
        }
        if cfg.use_exact_cdf {
            if let Some(p) = exact_group_probability(&g) {
                prob *= p;
                continue;
            }
        }
        let budget = cfg.probe_budget();
        draws += budget;
        // A fixed-budget candidate probe.
        let mut slots = SlotMap::new();
        let mut kernel = GroupKernel::for_group(g, bounds, cfg, &mut slots);
        prob *= kernel.estimate_probability(
            &mut rng,
            budget,
            &mut vec![0.0; slots.len()],
            &mut Vec::new(),
        )?;
    }
    Ok((prob, draws))
}

/// `P[φ₁ ∨ … ∨ φₖ]` for the DNF of a distinct group.
///
/// Prune the statically-dead disjuncts, partition the live ones into
/// variable-connected components (one monolithic component with
/// `use_independence` off), and combine the components' probabilities as
/// independent events. A one-disjunct component is [`conf`] — closed-form
/// wherever `conf` is; a component whose disjuncts share variables is
/// `sampled_union`. Each component's stream derives from `site` and
/// the index of its first disjunct, never from evaluation order (the
/// component of disjunct 0 runs at `site` itself, so a one-disjunct DNF
/// is exactly `conf` at the same site).
pub fn aconf(dnf: &Dnf, cfg: &SamplerConfig, site: u64) -> Result<f64> {
    // Per live disjunct: its condition, and its groups and bounds with
    // its index in `dnf`.
    let mut live = Vec::new();
    let mut analysed = Vec::new();
    for (i, d) in dnf.disjuncts().iter().enumerate() {
        match check(d, cfg) {
            Checked::Dead => {}
            Checked::Certain => return Ok(1.0),
            Checked::Open(Open {
                condition,
                groups,
                bounds,
            }) => {
                live.push(condition);
                analysed.push((i, groups, bounds));
            }
        }
    }
    if live.is_empty() {
        return Ok(0.0);
    }
    let components = if cfg.use_independence {
        independent_components(&live)
    } else {
        vec![(0..live.len()).collect()]
    };
    let metrics = crate::obs::metrics();
    // 1 − Π(1 − p_c), accumulated as P[A ∪ B] = P[A] + P[B]·(1 − P[A]):
    // exact for a lone component and for tail-sized probabilities.
    let mut any_holds = 0.0;
    for component in components {
        let (first, groups, bounds) = &mut analysed[component[0]];
        let component_site = site ^ (*first as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (p, draws) = match component.as_slice() {
            // Each disjunct is in one component: its groups are used once.
            &[_] => conf_open(std::mem::take(groups), bounds, cfg, component_site)?,
            shared => {
                let union = Dnf::of(shared.iter().map(|&i| live[i].clone()).collect());
                sampled_union(&union, cfg, component_site)?
            }
        };
        if draws == 0 {
            metrics.aconf_exact_components_total.inc();
        } else {
            metrics.aconf_sampled_components_total.inc();
            metrics.aconf_draws_total.add(draws);
        }
        any_holds += p * (1.0 - any_holds);
    }
    Ok(any_holds)
}

/// Monte Carlo `P[∨ disjuncts]` for disjuncts that share variables:
/// draw the union's variables jointly from their *unconditioned*
/// distributions and count the worlds satisfying any disjunct, with the
/// number of worlds drawn.
///
/// The hit indicator runs through the one ε–δ rule
/// ([`LoopStats::should_stop`]) between `min_samples` and `max_samples`.
/// The plain frequency would hand that rule a zero variance on a prefix
/// of all hits or all misses, and a vanishing one just after the first
/// exception — exactly where a Wilson interval is at its widest. So the
/// rule sees the frequency shrunk towards ½ by two pseudo-hits and two
/// pseudo-misses (the Agresti–Coull form of the 95 % Wilson interval);
/// the returned estimate is the plain frequency.
fn sampled_union(union: &Dnf, cfg: &SamplerConfig, site: u64) -> Result<(f64, u64)> {
    let vars = union.variables();
    let mut rng = rng_from_seed(mix64(cfg.world_seed ^ site ^ 0xACED));
    let target = cfg.z_target();
    let cap = cfg.max_samples.max(cfg.min_samples).max(1);
    let mut a = Assignment::new();
    let mut wilson = LoopStats {
        n: 4,
        sum: 2.0,
        sum_sq: 2.0,
    };
    let (mut n, mut hits) = (0usize, 0usize);
    while n < cap {
        for v in &vars {
            a.set(v.key, v.class.generate(&v.params, &mut rng));
        }
        let hit = union.eval(&a)?;
        n += 1;
        hits += hit as usize;
        wilson.push(if hit { 1.0 } else { 0.0 });
        if n >= cfg.min_samples && wilson.should_stop(cfg, target) {
            break;
        }
    }
    Ok((hits as f64 / n as f64, n as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_dist::prelude::builtin;
    use pip_dist::special;
    use pip_expr::{atoms, Equation, RandomVar};

    fn normal() -> RandomVar {
        RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()
    }

    #[test]
    fn conf_trivial_cases() {
        let cfg = SamplerConfig::default();
        assert_eq!(conf(&Conjunction::top(), &cfg, 0).unwrap(), 1.0);
        let dead = Conjunction::single(atoms::gt(1.0, 2.0));
        assert_eq!(conf(&dead, &cfg, 0).unwrap(), 0.0);
    }

    #[test]
    fn conf_exact_via_cdf() {
        let y = normal();
        let cond = Conjunction::single(atoms::gt(Equation::from(y), 1.0));
        let cfg = SamplerConfig::default();
        let p = conf(&cond, &cfg, 1).unwrap();
        assert!((p - (1.0 - special::normal_cdf(1.0))).abs() < 1e-9);
    }

    #[test]
    fn conf_factorizes_independent_groups() {
        // P[(Y1 > 0) ∧ (Y2 > 1)] = P[Y1>0]·P[Y2>1] exactly.
        let y1 = normal();
        let y2 = normal();
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(y1), 0.0),
            atoms::gt(Equation::from(y2), 1.0),
        ]);
        let cfg = SamplerConfig::default();
        let p = conf(&cond, &cfg, 2).unwrap();
        let truth = 0.5 * (1.0 - special::normal_cdf(1.0));
        assert!((p - truth).abs() < 1e-9, "{p} vs {truth}");
    }

    #[test]
    fn conf_monte_carlo_where_no_closed_form_exists() {
        // P[Y1·Y2 > 0] for iid centred normals = 0.5 — a product has no
        // CDF path, so this samples.
        let y1 = normal();
        let y2 = normal();
        let cond = Conjunction::single(atoms::gt(Equation::from(y1) * Equation::from(y2), 0.0));
        let p = |seed| {
            conf(
                &cond,
                &SamplerConfig::fixed_samples(4000).with_seed(seed),
                3,
            )
            .unwrap()
        };
        assert!((p(1) - 0.5).abs() < 0.05, "{}", p(1));
        assert_ne!(p(1), p(2), "a sampled estimate moves with the seed");
    }

    #[test]
    fn conf_of_a_normal_sum_is_exact() {
        // P[Y1 > Y2] = P[Y1 − Y2 > 0] with Y1 − Y2 ~ Normal(0, √2): ½,
        // from the CDF, at any seed and budget.
        let cond = Conjunction::single(atoms::gt(
            Equation::from(normal()),
            Equation::from(normal()),
        ));
        for seed in [1, 2] {
            let cfg = SamplerConfig::fixed_samples(1).with_seed(seed);
            assert_eq!(conf(&cond, &cfg, 3).unwrap(), 0.5);
        }
    }

    #[test]
    fn aconf_trivia() {
        let cfg = SamplerConfig::default();
        assert_eq!(aconf(&Dnf::bottom(), &cfg, 0).unwrap(), 0.0);
        assert_eq!(
            aconf(&Dnf::of(vec![Conjunction::top()]), &cfg, 0).unwrap(),
            1.0
        );
    }

    #[test]
    fn aconf_single_disjunct_defers_to_conf() {
        let y = normal();
        let d = Dnf::of(vec![Conjunction::single(atoms::gt(Equation::from(y), 1.0))]);
        let cfg = SamplerConfig::default();
        let p = aconf(&d, &cfg, 4).unwrap();
        assert!((p - (1.0 - special::normal_cdf(1.0))).abs() < 1e-9);
    }

    #[test]
    fn aconf_overlapping_disjuncts_not_double_counted() {
        // (Y > 0) ∨ (Y > 1) = (Y > 0): probability 0.5, NOT 0.5 + P[Y>1].
        let y = normal();
        let d = Dnf::of(vec![
            Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.0)),
            Conjunction::single(atoms::gt(Equation::from(y), 1.0)),
        ]);
        let cfg = SamplerConfig::fixed_samples(4000);
        let p = aconf(&d, &cfg, 5).unwrap();
        assert!((p - 0.5).abs() < 0.05, "{p}");
    }

    #[test]
    fn aconf_disjoint_disjuncts_add_up() {
        // (Y < -1) ∨ (Y > 1): 2·(1−Φ(1)) ≈ 0.3173.
        let y = normal();
        let d = Dnf::of(vec![
            Conjunction::single(atoms::lt(Equation::from(y.clone()), -1.0)),
            Conjunction::single(atoms::gt(Equation::from(y), 1.0)),
        ]);
        let cfg = SamplerConfig::fixed_samples(6000);
        let p = aconf(&d, &cfg, 6).unwrap();
        let truth = 2.0 * (1.0 - special::normal_cdf(1.0));
        assert!((p - truth).abs() < 0.05, "{p} vs {truth}");
    }

    #[test]
    fn aconf_prunes_dead_disjuncts() {
        let y = normal();
        let dead = Conjunction::of(vec![
            atoms::gt(Equation::from(y.clone()), 5.0),
            atoms::lt(Equation::from(y.clone()), 3.0),
        ]);
        let live = Conjunction::single(atoms::gt(Equation::from(y), 1.0));
        let d = Dnf::of(vec![dead, live]);
        let cfg = SamplerConfig::default();
        let p = aconf(&d, &cfg, 7).unwrap();
        // Only the live disjunct matters — and it goes through the exact
        // CDF path because pruning leaves a single conjunction.
        assert!((p - (1.0 - special::normal_cdf(1.0))).abs() < 1e-9);
    }

    #[test]
    fn aconf_factorises_variable_disjoint_disjuncts_without_drawing() {
        for k in [2usize, 4, 8] {
            let thresholds: Vec<f64> = (0..k).map(|i| -1.0 + 0.4 * i as f64).collect();
            let d = Dnf::of(
                thresholds
                    .iter()
                    .map(|&t| Conjunction::single(atoms::gt(Equation::from(normal()), t)))
                    .collect(),
            );
            let truth = 1.0
                - thresholds
                    .iter()
                    .map(|&t| special::normal_cdf(t))
                    .product::<f64>();
            // No draw: a budget of one sample, at any seed, cannot matter.
            for seed in [1, 2, 3] {
                let cfg = SamplerConfig::fixed_samples(1).with_seed(seed);
                let p = aconf(&d, &cfg, 9).unwrap();
                assert!((p - truth).abs() < 1e-12, "k={k}: {p} vs {truth}");
            }
        }
    }

    #[test]
    fn aconf_mixed_dnf_samples_only_the_shared_component() {
        // (Y>0) ∨ (Y>1) shares Y: sampled, P = ½ (not ½ + P[Y>1]).
        // (Z>0.5) is independent: exact. Union = 1 − ½·Φ(0.5).
        let y = normal();
        let d = Dnf::of(vec![
            Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.0)),
            Conjunction::single(atoms::gt(Equation::from(normal()), 0.5)),
            Conjunction::single(atoms::gt(Equation::from(y), 1.0)),
        ]);
        let q = special::normal_cdf(0.5);
        let truth = 1.0 - 0.5 * q;
        let n = 4000;
        // σ of one estimate: q·√(¼/n). Each seed within 4σ, and their
        // mean — where a bias such as double counting would show — within
        // 3σ of the mean.
        let sigma = q * (0.25 / n as f64).sqrt();
        let seeds = 20;
        let mut mean = 0.0;
        for seed in 0..seeds {
            let cfg = SamplerConfig::fixed_samples(n).with_seed(seed);
            let p = aconf(&d, &cfg, 5).unwrap();
            assert!(
                (p - truth).abs() < 4.0 * sigma,
                "seed {seed}: {p} vs {truth}"
            );
            mean += p / seeds as f64;
        }
        let sigma_mean = sigma / (seeds as f64).sqrt();
        assert!((mean - truth).abs() < 3.0 * sigma_mean, "{mean} vs {truth}");
    }

    #[test]
    fn aconf_stopping_rule_never_stops_on_an_all_hit_prefix() {
        // (Y > z) ∨ (Y > z+1) with P[Y > z] = 0.97: the first ~30 worlds
        // are usually all hits, where the sample variance is zero and an
        // unguarded rule would stop at min_samples and answer exactly 1.
        let z = -1.880_793_608_151_250_9;
        let y = normal();
        let d = Dnf::of(vec![
            Conjunction::single(atoms::gt(Equation::from(y.clone()), z)),
            Conjunction::single(atoms::gt(Equation::from(y), z + 1.0)),
        ]);
        // Over seeds 0..4000 the answers spread with σ ≈ 0.0052, the
        // largest error is 0.027, 6 % miss the relative-δ band and the
        // mean sits 0.00085 ± 0.00008 above 0.97: the sequential rule
        // stops sooner after a run of hits. The same under the inverse-CDF
        // and the ziggurat Normal generators. Each seed must stay within
        // 0.04 (a gross error, such as a stop at min_samples, shows
        // here), the misses must not exceed what an ε share allows, and
        // the mean must lie within a quarter of the δ band.
        let seeds = 200;
        let cfg = SamplerConfig::default();
        let (mut misses, mut mean) = (0, 0.0);
        for seed in 0..seeds {
            let p = aconf(&d, &cfg.clone().with_seed(seed), 0).unwrap();
            assert!(p < 1.0, "seed {seed} stopped on an all-hit prefix");
            assert!((p - 0.97).abs() < 0.04, "seed {seed}: {p}");
            misses += usize::from((p - 0.97).abs() > cfg.delta * 0.97);
            mean += p / seeds as f64;
        }
        // 21: the 99.9th percentile of Binomial(200, ε = 0.05).
        assert!(misses <= 21, "{misses} of {seeds} seeds off by > δ");
        assert!(
            (mean - 0.97).abs() < 0.25 * cfg.delta * 0.97,
            "mean of {seeds} seeds: {mean}"
        );
    }

    /// A random conjunction over a pool of five variables: bounds,
    /// variable-to-variable comparisons, sums, products (no closed form)
    /// and the odd constant atom, so conditions fold to true or false,
    /// fail Algorithm 3.2, or split into one to several groups.
    fn random_condition(rng: &mut PipRng, pool: &[RandomVar]) -> Conjunction {
        use rand::Rng;
        let pick = |rng: &mut PipRng| Equation::from(pool[rng.gen_range(0..pool.len())].clone());
        let n = rng.gen_range(1..6);
        Conjunction::of(
            (0..n)
                .map(|_| {
                    let c = rng.gen_range(-3.0..3.0);
                    match rng.gen_range(0..8) {
                        0 | 1 => atoms::gt(pick(rng), c),
                        2 | 3 => atoms::lt(pick(rng), c),
                        4 => atoms::gt(pick(rng), pick(rng)),
                        5 => atoms::lt(pick(rng) + pick(rng), c),
                        6 => atoms::gt(pick(rng) * pick(rng), c),
                        _ => atoms::le(Equation::val(c), 0.0),
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn conditions_are_analysed_once_as_in_three_passes() {
        // `check` partitions once and propagates bounds over the
        // partition; the plain analysis simplifies, runs the
        // whole-condition check (which partitions) and partitions again.
        // Same verdicts, groups and bounds, hence the same `conf` bits as
        // the oracle, which analyses the plain way.
        use pip_dist::rng_from_seed;
        let mut rng = rng_from_seed(0x3A55);
        let configs = [
            SamplerConfig::fixed_samples(200),
            SamplerConfig::default(),
            SamplerConfig {
                use_consistency: false,
                ..SamplerConfig::fixed_samples(200)
            },
            SamplerConfig {
                use_independence: false,
                ..SamplerConfig::fixed_samples(200)
            },
        ];
        let (mut dead, mut certain, mut split) = (0, 0, 0);
        for case in 0..300 {
            let pool: Vec<RandomVar> = (0..5)
                .map(|i| match i % 3 {
                    0 => normal(),
                    1 => RandomVar::create(builtin::uniform(), &[-2.0, 2.0]).unwrap(),
                    _ => RandomVar::create(builtin::exponential(), &[1.0]).unwrap(),
                })
                .collect();
            let cond = random_condition(&mut rng, &pool);
            let cfg = &configs[case % configs.len()];

            let (simplified, truth) = cond.simplify();
            let plain = match truth {
                Truth::False => None,
                Truth::True => Some(None),
                Truth::Unknown => match cfg.use_consistency {
                    true => match consistency_check(&simplified) {
                        Consistency::Inconsistent => None,
                        Consistency::Consistent { bounds, .. } => Some(Some(bounds)),
                    },
                    false => Some(Some(BoundsMap::new())),
                },
            };
            match (check(&cond, cfg), plain) {
                (Checked::Dead, None) => dead += 1,
                (Checked::Certain, Some(None)) => certain += 1,
                (Checked::Open(open), Some(Some(bounds))) => {
                    split += usize::from(open.groups.len() > 1);
                    assert_eq!(open.condition, simplified, "case {case}");
                    assert_eq!(open.bounds, bounds, "case {case}: {cond}");
                    let groups = conf_groups(&simplified, cfg);
                    assert_eq!(open.groups.len(), groups.len(), "case {case}: {cond}");
                    for (a, b) in open.groups.iter().zip(&groups) {
                        assert_eq!(a.atoms, b.atoms, "case {case}: {cond}");
                        let keys = |g: &VarGroup| g.vars.iter().map(|v| v.key).collect::<Vec<_>>();
                        assert_eq!(keys(a), keys(b), "case {case}: {cond}");
                    }
                }
                (_, plain) => panic!("case {case}: {cond}: verdicts differ ({plain:?})"),
            }
            let bits = |r: Result<f64>| r.map(f64::to_bits).map_err(|e| e.to_string());
            assert_eq!(
                bits(conf(&cond, cfg, case as u64)),
                bits(crate::oracle::conf(&cond, cfg, case as u64)),
                "case {case}: {cond}"
            );
        }
        assert!(
            dead > 0 && certain > 0 && split > 0,
            "{dead} {certain} {split}"
        );
    }

    #[test]
    fn aconf_honours_the_independence_switch() {
        // With use_independence off the DNF is one sampled component.
        let d = Dnf::of(vec![
            Conjunction::single(atoms::gt(Equation::from(normal()), 0.0)),
            Conjunction::single(atoms::gt(Equation::from(normal()), 0.0)),
        ]);
        let cfg = SamplerConfig {
            use_independence: false,
            ..SamplerConfig::fixed_samples(4000)
        };
        let p = aconf(&d, &cfg, 0).unwrap();
        assert_ne!(p, 0.75, "must be an estimate, not the product form");
        assert!((p - 0.75).abs() < 0.05, "{p}");
        assert_eq!(aconf(&d, &SamplerConfig::default(), 0).unwrap(), 0.75);
    }
}
