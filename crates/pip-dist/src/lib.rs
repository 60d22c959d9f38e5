//! # pip-dist
//!
//! Distribution classes for PIP (paper Section V-B): every class provides
//! `Generate`; `PDF`, `CDF`, `CDF⁻¹`, `mean` and `variance` are optional
//! capabilities the sampling layer exploits when present. All statistical
//! special functions are implemented from scratch in [`special`].
//!
//! ```
//! use pip_dist::prelude::*;
//!
//! let reg = DistributionRegistry::with_builtins();
//! let normal = reg.resolve("Normal", &[5.0, 2.0]).unwrap();
//! let mut rng = rng_from_seed(42);
//! let x = normal.generate(&[5.0, 2.0], &mut rng);
//! assert!(x.is_finite());
//! assert_eq!(normal.cdf(&[5.0, 2.0], 5.0), Some(0.5));
//! ```

pub mod beta;
pub mod categorical;
pub mod discrete;
pub mod distribution;
pub mod exponential;
pub mod gamma;
pub mod normal;
pub mod poisson;
pub mod registry;
pub mod rng;
pub mod special;
pub mod uniform;
pub mod ziggurat;

pub use distribution::{
    capabilities, Capabilities, DistRef, DistributionClass, PreparedGen, PreparedInverseCdf,
};
pub use registry::DistributionRegistry;
pub use rng::{mix64, rng_for, rng_from_seed, var_seed, PipRng};
pub use ziggurat::standard_normal;

/// Glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::beta::Beta;
    pub use crate::categorical::Categorical;
    pub use crate::discrete::{Bernoulli, DiscreteUniform};
    pub use crate::distribution::{capabilities, Capabilities, DistRef, DistributionClass};
    pub use crate::exponential::Exponential;
    pub use crate::gamma::Gamma;
    pub use crate::normal::Normal;
    pub use crate::poisson::Poisson;
    pub use crate::registry::{builtin, DistributionRegistry};
    pub use crate::rng::{rng_for, rng_from_seed, PipRng};
    pub use crate::uniform::Uniform;
}
