//! Which path `aconf` took is legible from its three counters. They are
//! process-wide, so this file holds exactly one test: its own process,
//! nothing else bumping them.

use pip::prelude::*;
use pip::sampling::obs::metrics;

#[test]
fn counters_say_which_aconf_path_ran() {
    let (db, cfg) = (Database::new(), SamplerConfig::default());
    let run = |q: &str| sql::run(&db, q, &cfg).unwrap();
    run("CREATE TABLE t (g TEXT, x SYMBOLIC)");
    run("INSERT INTO t VALUES \
         ('g0', create_variable('Normal', 10.2, 1.9)), \
         ('g1', create_variable('Normal', 10.7, 2.1)), \
         ('g0', create_variable('Normal', 10.5, 2.0)), \
         ('g1', create_variable('Normal', 10.1, 1.8))");
    let m = metrics();
    let read = || {
        (
            m.aconf_exact_components_total.get(),
            m.aconf_sampled_components_total.get(),
            m.aconf_draws_total.get(),
        )
    };

    // The `sampling_heavy` one-variable template: two groups of two
    // variable-disjoint rows, four closed-form components, no draw.
    let before = read();
    let out = run("SELECT g, expected_sum(x), conf() FROM t WHERE x > 11.3 GROUP BY g");
    assert_eq!(out.len(), 2);
    let after = read();
    assert_eq!(after.0 - before.0, 4, "exact components");
    assert_eq!((after.1, after.2), (before.1, before.2), "nothing sampled");

    // The `mixed_rw` read: no `GROUP BY`, the whole result is one group —
    // the same four rows, the same four closed-form components.
    let before = after;
    let out = run("SELECT expected_sum(x), conf() FROM t WHERE x > 11.3");
    assert_eq!(out.len(), 1);
    let after = read();
    assert_eq!(after.0 - before.0, 4, "exact components");
    assert_eq!((after.1, after.2), (before.1, before.2), "nothing sampled");

    // Rows of a self-join share their variables: one sampled component.
    let before = after;
    run("CREATE TABLE u (x SYMBOLIC)");
    run("INSERT INTO u VALUES (create_variable('Normal', 0, 1))");
    run("CREATE TABLE c (lo FLOAT)");
    run("INSERT INTO c VALUES (0.5), (1.5)");
    let out = run("SELECT conf() FROM u, c WHERE x > lo");
    assert_eq!(out.len(), 1);
    let after = read();
    assert_eq!(after.0, before.0, "no exact component");
    assert_eq!(after.1 - before.1, 1, "one sampled component");
    assert!(after.2 > before.2, "its worlds are counted");
}
