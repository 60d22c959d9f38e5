//! Iceberg watch: the Figure 8 scenario as an application.
//!
//! 100 virtual ships in a synthetic North Atlantic; every iceberg's
//! position is Normal around its last sighting (drift grows with age)
//! and its danger decays exponentially. For each ship we sum
//! `danger × P[nearby]` over icebergs with `P[nearby] > 0.1%`.
//!
//! PIP evaluates the proximity probabilities **exactly** (each is a
//! product of two Normal interval probabilities — four CDF calls);
//! the Sample-First estimate at 1000 worlds is shown for contrast.
//!
//! Run with `cargo run --example iceberg_watch`.

use pip::prelude::*;
use pip_workloads::iceberg::{
    exact_threat, generate, relative_errors, threat_pip, threat_sf, IcebergConfig,
};

fn main() -> Result<()> {
    let cfg = IcebergConfig {
        n_ships: 40,
        n_icebergs: 150,
        ..Default::default()
    };
    let data = generate(&cfg);
    let sampler = SamplerConfig::default();
    let threshold = 0.001;

    let exact = exact_threat(&data, threshold);
    let pip = threat_pip(&data, threshold, &sampler)?;
    let sf = threat_sf(&data, threshold, 1000, 7)?;

    println!("ship   threat(PIP)   threat(SF@1000)   ground truth");
    for i in 0..8 {
        println!(
            "{:>4}   {:>11.4}   {:>15.4}   {:>12.4}",
            i, pip[i], sf[i], exact[i]
        );
    }

    let pip_err = relative_errors(&pip, &exact);
    let sf_err = relative_errors(&sf, &exact);
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    println!(
        "\nmax relative error — PIP: {:.2e}, SF: {:.3}",
        max(&pip_err),
        max(&sf_err)
    );

    // PIP's answer is exact up to floating-point noise.
    assert!(max(&pip_err) < 1e-9);
    Ok(())
}
