//! Risk management: the paper's motivating application (Section I).
//!
//! A company encodes a revenue model — Poisson purchase growth per
//! customer — and a delivery-delay model in the database, then asks for
//! the profit lost to dissatisfied customers under a policy change
//! (cheaper but slower shipping). Queries *create* the correlation
//! between the two models; PIP's sampler detects that profit and
//! delivery are independent and integrates them separately.
//!
//! Run with `cargo run --example risk_management`.

use pip::prelude::*;
use pip_workloads::queries;
use pip_workloads::tpch::{generate, TpchConfig};

fn main() -> Result<()> {
    let data = generate(&TpchConfig {
        n_customers: 150,
        n_parts: 10,
        n_suppliers: 25,
        seed: 2026,
    });
    let cfg = SamplerConfig::default();

    // Expected revenue increase next year (Q1). The expression is affine
    // in Poisson variables with known means, so PIP computes it exactly
    // by linearity of expectation — zero samples.
    let q1 = queries::q1_pip(&data, &cfg)?;
    println!(
        "expected revenue increase:       {:>12.2}  (exact: {:.2})",
        q1.value,
        queries::q1_exact(&data)
    );

    // Policy change: slower shipping makes 10% of customers dissatisfied
    // on average. Lost profit = revenue of dissatisfied customers (Q3).
    for sel in [0.05, 0.10, 0.20] {
        let q3 = queries::q3_pip(&data, sel, &cfg)?;
        println!(
            "lost profit at {:>4.0}% dissatisfaction: {:>10.2}  (exact: {:.2})",
            sel * 100.0,
            q3.value,
            queries::q3_exact(&data, sel)
        );
    }

    // How long until all parts of an order arrive? (Q2: expected max of
    // per-supplier delivery dates.)
    let q2 = queries::q2_pip(&data, &cfg, 2000)?;
    println!("expected latest delivery (days): {:>10.2}", q2.value);

    // Sanity checks so the example doubles as a smoke test.
    let exact1 = queries::q1_exact(&data);
    assert!((q1.value - exact1).abs() / exact1 < 1e-9);
    Ok(())
}
