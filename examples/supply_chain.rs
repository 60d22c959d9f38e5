//! Supply-chain stress test: the Figure 7(b) model as an application,
//! built with the programmatic (plan-free) API to show the symbolic
//! layer directly.
//!
//! Per part: demand ~ Poisson(λ), supply ~ Exponential(mean 20λ). We ask
//! for the expected *underproduction* `E[demand − supply | demand >
//! supply]` and the probability of a shortfall. The condition compares
//! two random variables, so PIP's sampler falls back to rejection — but
//! it keeps drawing until it has the requested number of *useful*
//! samples, and its probability estimate comes free.
//!
//! Run with `cargo run --example supply_chain`.

use pip::prelude::*;

fn main() -> Result<()> {
    let cfg = SamplerConfig::fixed_samples(2000);
    let parts = [("widget", 4.0), ("gadget", 8.0), ("sprocket", 1.5)];

    println!("part       P[shortfall]   E[shortfall | shortfall]");
    for (name, lambda) in parts {
        // demand ~ Poisson(λ); supply ~ Exponential(rate 1/(20λ)).
        let demand = RandomVar::create(builtin::poisson(), &[lambda])?;
        let supply = RandomVar::create(builtin::exponential(), &[1.0 / (20.0 * lambda)])?;

        let shortfall = Equation::from(demand.clone()) - Equation::from(supply.clone());
        let condition =
            Conjunction::single(atoms::gt(Equation::from(demand), Equation::from(supply)));

        let r = expectation(&shortfall, &condition, true, &cfg, lambda as u64)?;
        println!(
            "{name:<10} {:>11.4}   {:>24.3}",
            r.probability, r.expectation
        );

        // The conditional shortfall is positive and below peak demand.
        assert!(r.expectation > 0.0 && r.expectation < lambda + 10.0 * lambda.sqrt() + 30.0);
        assert!(r.probability > 0.0 && r.probability < 0.2);
    }

    Ok(())
}
