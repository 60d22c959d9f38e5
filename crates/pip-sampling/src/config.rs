//! Sampler configuration: the ε–δ precision goal of Algorithm 4.3 plus
//! strategy toggles used by the ablation benchmarks.

/// Configuration of the expectation operator and all samplers.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Confidence parameter ε of the precision goal `{ε, δ}`: the
    /// adaptive loop targets `P[|estimate − truth| > δ·|truth|] < ε`.
    pub epsilon: f64,
    /// Relative-error parameter δ.
    pub delta: f64,
    /// Floor on sample count before the stopping rule may fire (variance
    /// estimates from a handful of samples are too noisy to trust).
    pub min_samples: usize,
    /// Hard cap on samples per expectation (the paper caps at `1/δ`).
    pub max_samples: usize,
    /// Rejection-rate threshold beyond which a group switches to
    /// Metropolis, per Algorithm 4.3 line 19 ("Metropolis Threshold").
    pub metropolis_threshold: f64,
    /// Metropolis burn-in steps (`C_burn_in` in the paper's cost model).
    pub metropolis_burn_in: usize,
    /// Random-walk steps between retained Metropolis samples.
    pub metropolis_thinning: usize,
    /// Strategy toggle: use inverse-CDF sampling restricted to
    /// consistency-derived bounds (Section IV-A(b)). Off = ablation.
    pub use_cdf_sampling: bool,
    /// Strategy toggle: decompose conditions into minimal independent
    /// subsets (Section IV-A(c)). Off = one monolithic group.
    pub use_independence: bool,
    /// Strategy toggle: run Algorithm 3.2 and exploit its bounds map.
    pub use_consistency: bool,
    /// Strategy toggle: permit the Metropolis fallback (Section IV-A(d)).
    pub use_metropolis: bool,
    /// Strategy toggle: use exact CDF integration where available, which
    /// can sidestep sampling entirely (Section III-A).
    pub use_exact_cdf: bool,
    /// Seed from which all per-world, per-variable generator seeds derive.
    pub world_seed: u64,
    /// Worker threads for the parallel Monte-Carlo runtime. `1` keeps
    /// every operator on the caller's thread; `> 1` lets
    /// [`crate::parallel::run_indexed`] fan the aggregate and confidence
    /// heads' per-row work out. Results are bit-identical for every
    /// thread count (per-row RNG streams are derived from
    /// `(world_seed, site)` alone).
    pub threads: usize,
    /// Let compiled execution reuse cached sample blocks
    /// ([`crate::blocks`]) when the identical `(group, seed-site,
    /// counters)` draw sequence recurs. Pure memoization: toggling this
    /// can never change any result, only skip redundant resampling.
    pub reuse_blocks: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            epsilon: 0.05,
            delta: 0.01,
            min_samples: 32,
            max_samples: 10_000,
            metropolis_threshold: 0.995,
            metropolis_burn_in: 500,
            metropolis_thinning: 8,
            use_cdf_sampling: true,
            use_independence: true,
            use_consistency: true,
            use_metropolis: true,
            use_exact_cdf: true,
            world_seed: 0x5151_5151,
            threads: 1,
            reuse_blocks: true,
        }
    }
}

impl SamplerConfig {
    /// A configuration that runs a *fixed* number of samples, disabling
    /// the adaptive stop (used by the figure benchmarks, which sweep the
    /// sample count explicitly).
    pub fn fixed_samples(n: usize) -> Self {
        SamplerConfig {
            min_samples: n,
            max_samples: n,
            ..Default::default()
        }
    }

    /// Change the seed (distinct trials in the benchmarks).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.world_seed = seed;
        self
    }

    /// Change the worker-thread count for the parallel runtime. Thread
    /// count never changes results, only wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Toggle sample-block reuse (pure memoization, value-neutral).
    pub fn with_block_reuse(mut self, reuse: bool) -> Self {
        self.reuse_blocks = reuse;
        self
    }

    /// Baseline configuration with every PIP-specific optimization off —
    /// pure rejection sampling, no Metropolis switch and no sample-block
    /// reuse: the ablation reference point.
    pub fn naive(n: usize) -> Self {
        SamplerConfig {
            use_cdf_sampling: false,
            use_independence: false,
            use_consistency: false,
            use_metropolis: false,
            use_exact_cdf: false,
            reuse_blocks: false,
            ..Self::fixed_samples(n)
        }
    }

    /// Per-row budget when estimating a sum over `n_rows` rows.
    ///
    /// By the law of large numbers the variance of a sum of `N`
    /// independent per-row estimates with equal σ scales like `σ/√N`
    /// (paper Section IV-C), so each row can tolerate a δ relaxed by √N
    /// at unchanged total precision.
    pub fn scaled_for_rows(&self, n_rows: usize) -> Self {
        let factor = (n_rows.max(1) as f64).sqrt();
        SamplerConfig {
            delta: self.delta * factor,
            max_samples: ((self.max_samples as f64 / factor).ceil() as usize).max(self.min_samples),
            ..self.clone()
        }
    }

    /// Candidate draws of a fixed-budget acceptance probe (`P[group]`
    /// without a closed form).
    pub fn probe_budget(&self) -> u64 {
        self.max_samples.max(self.min_samples).max(1) as u64
    }

    /// The z-score `target = √2·erf⁻¹(1−ε)` from Algorithm 4.3 line 3.
    pub fn z_target(&self) -> f64 {
        std::f64::consts::SQRT_2 * pip_dist::special::erf_inv(1.0 - self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = SamplerConfig::default();
        assert!(c.epsilon > 0.0 && c.epsilon < 1.0);
        assert!(c.min_samples <= c.max_samples);
        assert!(c.use_cdf_sampling && c.use_independence);
    }

    #[test]
    fn fixed_pins_both_bounds() {
        let c = SamplerConfig::fixed_samples(77);
        assert_eq!(c.min_samples, 77);
        assert_eq!(c.max_samples, 77);
    }

    #[test]
    fn naive_disables_everything() {
        let c = SamplerConfig::naive(10);
        assert!(!c.use_cdf_sampling);
        assert!(!c.use_independence);
        assert!(!c.use_consistency);
        assert!(!c.use_metropolis);
        assert!(!c.use_exact_cdf);
        assert!(!c.reuse_blocks);
    }

    #[test]
    fn row_scaling_relaxes_delta() {
        let c = SamplerConfig::default();
        let s = c.scaled_for_rows(100);
        assert!((s.delta - c.delta * 10.0).abs() < 1e-12);
        assert!(s.max_samples <= c.max_samples);
        assert!(s.max_samples >= s.min_samples);
    }

    #[test]
    fn threads_default_serial_and_clamped() {
        let c = SamplerConfig::default();
        assert_eq!(c.threads, 1);
        assert_eq!(c.clone().with_threads(0).threads, 1);
        assert_eq!(c.clone().with_threads(8).threads, 8);
    }

    #[test]
    fn block_reuse_defaults_on_and_toggles() {
        let c = SamplerConfig::default();
        assert!(c.reuse_blocks);
        assert!(!c.with_block_reuse(false).reuse_blocks);
    }

    #[test]
    fn z_target_matches_normal_quantile() {
        // ε = 0.05 → two-sided 95% → z ≈ 1.96
        let c = SamplerConfig::default();
        assert!((c.z_target() - 1.96).abs() < 0.01, "{}", c.z_target());
    }
}
