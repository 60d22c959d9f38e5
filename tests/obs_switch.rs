//! Observability is inert: the answer is bit-identical with metric
//! recording on and off. `pip_obs::set_enabled` is process-wide, so this
//! file holds exactly one test: its own process, nothing else toggling
//! the switch.

use pip::engine::{execute_with_stats, optimize, scalar_result};
use pip::sampling::SamplerConfig;
use pip_workloads::{plans, tpch};

#[test]
fn answers_are_bit_identical_with_observability_on_and_off() {
    let data = tpch::generate(&tpch::TpchConfig::scaled(0.1, 0x42));
    let db = plans::join_db(&data, 0.1).unwrap();
    let raw = plans::join_plan();
    let run = |cfg: &SamplerConfig, on: bool| {
        pip_obs::set_enabled(on);
        let plan = optimize(&db, raw.clone()).unwrap();
        let (table, _) = execute_with_stats(&db, &plan, cfg).unwrap();
        scalar_result(&table).unwrap().to_bits()
    };
    for threads in [1, 2, 4] {
        // No exact-CDF shortcut: the sampling loop and its recording
        // sites run.
        let mut cfg = SamplerConfig::fixed_samples(2000).with_threads(threads);
        cfg.use_exact_cdf = false;
        let on = run(&cfg, true);
        let off = run(&cfg, false);
        assert_eq!(
            on, off,
            "threads={threads}: observability changed the answer ({on:#018x} vs {off:#018x})"
        );
    }
    pip_obs::set_enabled(true);
}
