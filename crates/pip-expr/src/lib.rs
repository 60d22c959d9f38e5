//! # pip-expr
//!
//! Symbolic layer of PIP: random-variable references, the *equation*
//! datatype (arithmetic over variables and constants, paper Section
//! III-B), constraint atoms, and row conditions (conjunctions, with a DNF
//! view for `distinct`/difference).
//!
//! ```
//! use pip_expr::prelude::*;
//! use pip_dist::prelude::builtin;
//!
//! // [Y => Normal(5, 10)]
//! let y = RandomVar::create(builtin::normal(), &[5.0, 10.0]).unwrap();
//! // Price * 2 + 1
//! let price = Equation::from(y.clone()) * 2.0 + 1.0;
//! // Condition (Y > -3) AND (Y < 2)
//! let cond = Conjunction::of(vec![
//!     atoms::gt(Equation::from(y.clone()), -3.0),
//!     atoms::lt(Equation::from(y.clone()), 2.0),
//! ]);
//! let mut a = Assignment::new();
//! a.set(y.key, 0.0);
//! assert!(cond.eval(&a).unwrap());
//! assert_eq!(price.eval_f64(&a).unwrap(), 1.0);
//! ```

pub mod atom;
pub mod condition;
pub mod equation;
pub mod groups;
pub mod slots;
pub mod vars;

pub use atom::{atoms, Atom, CmpOp};
pub use condition::{simplify_row_condition, Conjunction, Dnf, Truth};
pub use equation::{BinOp, Equation, LinearForm, UnOp};
pub use groups::{independent_components, independent_groups, VarGroup};
pub use slots::SlotMap;
pub use vars::{Assignment, RandomVar, VarId, VarKey};

/// Glob-import surface.
pub mod prelude {
    pub use crate::atom::{atoms, Atom, CmpOp};
    pub use crate::condition::{simplify_row_condition, Conjunction, Dnf, Truth};
    pub use crate::equation::{BinOp, Equation, LinearForm, UnOp};
    pub use crate::groups::{independent_components, independent_groups, VarGroup};
    pub use crate::slots::SlotMap;
    pub use crate::vars::{Assignment, RandomVar, VarId, VarKey};
}
