//! Fixtures shared by the integration suites.

use pip::ctable::{CRow, CTable};
use pip::dist::prelude::builtin;
use pip::dist::special;
use pip::expr::{atoms, Conjunction, Equation, RandomVar};
use pip::prelude::{DataType, Schema, Value};

fn normal(mu: f64, sigma: f64) -> Equation {
    Equation::from(RandomVar::create(builtin::normal(), &[mu, sigma]).unwrap())
}

/// `t(g)` for grouped `conf()`: three multi-row groups, one per way
/// `aconf` can answer, and `P[group 'disjoint' is non-empty]`.
///
/// * `disjoint` — every row over its own variables (one a Normal sum):
///   the product of closed forms, no draw;
/// * `shared` — every row over the same variable: one sampled component;
/// * `mixed` — a shared pair, an exact independent row, and an
///   independent row with no closed form (a probe inside `conf`).
pub fn grouped_conf_table() -> (CTable, f64) {
    let mut t = CTable::empty(Schema::of(&[("g", DataType::Str)]));
    let mut push = |g: &str, atom| {
        let row = CRow::new(
            vec![Equation::val(Value::str(g))],
            Conjunction::single(atom),
        );
        t.push(row).unwrap();
    };
    push("disjoint", atoms::gt(normal(0.0, 1.0), 0.5));
    push(
        "disjoint",
        atoms::gt(normal(1.0, 2.0) + normal(-1.0, 1.5), 1.0),
    );
    push("disjoint", atoms::lt(normal(3.0, 1.0), 2.0));
    let (y, z) = (normal(0.0, 1.0), normal(0.0, 1.0));
    push("shared", atoms::gt(y.clone(), 0.8));
    push("shared", atoms::lt(y.clone(), -1.2));
    push("shared", atoms::gt(y.clone() + z, 1.5));
    let w = normal(2.0, 1.0);
    push("mixed", atoms::gt(w.clone(), 2.5));
    push("mixed", atoms::gt(w.clone() * w, 9.0));
    push("mixed", atoms::gt(normal(0.0, 1.0), 1.0));
    push("mixed", atoms::gt(normal(0.0, 1.0) * normal(0.0, 1.0), 0.5));
    let none = special::normal_cdf(0.5)
        * special::normal_cdf(1.0 / 6.25f64.sqrt())
        * (1.0 - special::normal_cdf(-1.0));
    (t, 1.0 - none)
}
