//! Sampling-layer metric handles.
//!
//! The sampling operators are free functions with no database handle,
//! so their counters live in the process-global
//! [`pip_obs::Registry::global`] rather than a per-database registry. The
//! server merges both registries into one scrape body.

use pip_obs::{Counter, Registry};
use std::sync::{Arc, OnceLock};

#[derive(Debug)]
pub struct SamplingMetrics {
    /// Successful query-kernel compilations (tape + group kernels).
    pub kernel_compiles_total: Arc<Counter>,
    /// Rejection-sampling groups that escalated to Metropolis-Hastings.
    pub metropolis_escalations_total: Arc<Counter>,
    /// `aconf` components answered without a draw (closed forms only).
    pub aconf_exact_components_total: Arc<Counter>,
    /// `aconf` components whose estimate needed draws: shared-variable
    /// unions, and lone disjuncts with a group that has no closed form.
    pub aconf_sampled_components_total: Arc<Counter>,
    /// Candidate worlds behind the sampled components' estimates.
    pub aconf_draws_total: Arc<Counter>,
}

/// The sampling layer's metric handles (registered once, on first use).
pub fn metrics() -> &'static SamplingMetrics {
    static METRICS: OnceLock<SamplingMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        SamplingMetrics {
            kernel_compiles_total: r.counter(
                "pip_sampling_kernel_compiles_total",
                "Successful sampling-kernel compilations.",
            ),
            metropolis_escalations_total: r.counter(
                "pip_sampling_metropolis_escalations_total",
                "Rejection-sampling groups escalated to Metropolis-Hastings.",
            ),
            aconf_exact_components_total: r.counter(
                "pip_sampling_aconf_exact_components_total",
                "aconf components answered in closed form, without a draw.",
            ),
            aconf_sampled_components_total: r.counter(
                "pip_sampling_aconf_sampled_components_total",
                "aconf components estimated by Monte Carlo.",
            ),
            aconf_draws_total: r.counter(
                "pip_sampling_aconf_draws_total",
                "Candidate worlds drawn for sampled aconf components.",
            ),
        }
    })
}
