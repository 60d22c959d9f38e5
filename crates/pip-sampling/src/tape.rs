//! The sampling compiler: slot-indexed evaluation tapes and group
//! kernels — the one production sampler.
//!
//! A tree walk of Algorithm 4.3's hot loop would dispatch on `Equation`
//! enums (with `Arc` hops) and resolve every variable through an
//! [`Assignment`](pip_expr::Assignment) hash map — per sample, per
//! candidate. This module flattens that work once per query:
//!
//! * [`Tape`] — a register-based program compiled from an [`Equation`].
//!   Operands are register indices; variables are reads from a dense
//!   `f64` slot buffer laid out by a [`pip_expr::SlotMap`]. Evaluation
//!   performs exactly the tree walk's post-order float operations, so
//!   results are **bit-identical** to [`Equation::eval_f64`], errors
//!   included: division by zero, and the non-numeric constants and
//!   unbound variables a tape compiles into [`TapeOp::Fail`].
//! * [`CondTape`] — a compiled conjunction: per atom, the two side tapes
//!   plus the comparison, short-circuiting in atom order exactly like
//!   [`pip_expr::Conjunction::eval`].
//! * [`GroupKernel`] — one variable group's sampler: strategy-selected
//!   candidate generation writing into slots, the rejection loop with its
//!   counters, and the Metropolis switch of Algorithm 4.3 (lines 19–24).
//!   At the trigger the kernel starts a [`MetropolisState`] chain and
//!   draws from it into its slots from then on.
//!
//! Compilation is total: every [`Equation`] and every atom has a tape.
//! The tree-walking twin that tests compare against lives in
//! [`crate::oracle`].

use std::sync::Arc;

use pip_core::{PipError, Result};
use pip_ctable::BoundsMap;
use pip_dist::{DistRef, PipRng, PreparedGen, PreparedInverseCdf};
use pip_expr::{Atom, BinOp, CmpOp, Conjunction, Equation, SlotMap, UnOp, VarGroup};
use rand::Rng;

use crate::config::SamplerConfig;
use crate::metropolis::MetropolisState;
use crate::strategy::{
    acceptance_estimate, metropolis_due, select_strategies, VarStrategy, MAX_ATTEMPTS_PER_SAMPLE,
    METROPOLIS_START_ATTEMPTS,
};

/// One instruction of a [`Tape`]. Instruction `i` writes register `i`;
/// operands are indices of earlier registers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapeOp {
    /// A numeric constant.
    Const(f64),
    /// Read slot `s` of the sample buffer.
    Load(u32),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Neg(u32),
    /// Raise the tape's error `i`: a non-numeric constant or an unbound
    /// variable, which the tree walk rejects at this point of its
    /// post-order.
    Fail(u32),
}

/// Opcode of a [`TapeOp`] without its operands, for run segmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Const,
    Load,
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Fail,
}

/// A maximal run of consecutive instructions sharing one opcode:
/// instructions `start..end` of the tape.
#[derive(Debug, Clone, Copy)]
struct Run {
    kind: OpKind,
    start: u32,
    end: u32,
}

/// A register-based flattening of one [`Equation`].
///
/// Besides the instruction list, a compiled tape carries a sealed
/// *run-segmented* form: operands unpacked into flat arrays plus the
/// maximal runs of identical opcodes, so the scalar evaluation loop
/// dispatches once per run instead of once per instruction. Real
/// expressions compile into long same-opcode stretches (all the loads,
/// then the products, then the sum chain), which turns the per-sample
/// hot loop of a [`GroupKernel`] into a handful of predictable branches.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    ops: Vec<TapeOp>,
    runs: Vec<Run>,
    /// First operand (register index), or slot for `Load`, per instruction.
    a: Vec<u32>,
    /// Second operand (register index) per instruction; 0 when unused.
    b: Vec<u32>,
    /// Constant payload per instruction; 0.0 when unused.
    c: Vec<f64>,
    /// The errors [`TapeOp::Fail`] raises, in the tree walk's wording.
    errors: Vec<PipError>,
}

/// The division error a tape raises — identical text to
/// [`pip_expr::BinOp::apply`], so tape and tree walk agree.
fn div_by_zero() -> PipError {
    PipError::Eval("division by zero".into())
}

impl Tape {
    /// Compile `expr` against `slots`. What the tree walk would reject —
    /// a non-numeric constant, a variable without a slot — compiles into
    /// a [`TapeOp::Fail`] raising the tree walk's error at the same point.
    pub fn compile(expr: &Equation, slots: &SlotMap) -> Tape {
        let mut tape = Tape::default();
        tape.emit(expr, slots);
        tape.seal();
        tape
    }

    /// Build the run-segmented form from the instruction list.
    fn seal(&mut self) {
        let n = self.ops.len();
        self.a = vec![0; n];
        self.b = vec![0; n];
        self.c = vec![0.0; n];
        self.runs.clear();
        for (i, op) in self.ops.iter().enumerate() {
            let kind = match *op {
                TapeOp::Const(v) => {
                    self.c[i] = v;
                    OpKind::Const
                }
                TapeOp::Load(s) => {
                    self.a[i] = s;
                    OpKind::Load
                }
                TapeOp::Add(x, y) => {
                    self.a[i] = x;
                    self.b[i] = y;
                    OpKind::Add
                }
                TapeOp::Sub(x, y) => {
                    self.a[i] = x;
                    self.b[i] = y;
                    OpKind::Sub
                }
                TapeOp::Mul(x, y) => {
                    self.a[i] = x;
                    self.b[i] = y;
                    OpKind::Mul
                }
                TapeOp::Div(x, y) => {
                    self.a[i] = x;
                    self.b[i] = y;
                    OpKind::Div
                }
                TapeOp::Neg(x) => {
                    self.a[i] = x;
                    OpKind::Neg
                }
                TapeOp::Fail(e) => {
                    self.a[i] = e;
                    OpKind::Fail
                }
            };
            match self.runs.last_mut() {
                Some(r) if r.kind == kind => r.end += 1,
                _ => self.runs.push(Run {
                    kind,
                    start: i as u32,
                    end: i as u32 + 1,
                }),
            }
        }
    }

    fn emit(&mut self, expr: &Equation, slots: &SlotMap) -> u32 {
        match expr {
            Equation::Const(v) => match v.as_f64() {
                Ok(x) => self.push(TapeOp::Const(x)),
                Err(e) => self.fail(e),
            },
            Equation::Var(v) => match slots.slot_of(v.key) {
                Some(slot) => self.push(TapeOp::Load(slot)),
                None => self.fail(PipError::Eval(format!(
                    "variable {} not assigned",
                    v.key.id
                ))),
            },
            Equation::Binary { op, left, right } => {
                let l = self.emit(left, slots);
                let r = self.emit(right, slots);
                self.push(match op {
                    BinOp::Add => TapeOp::Add(l, r),
                    BinOp::Sub => TapeOp::Sub(l, r),
                    BinOp::Mul => TapeOp::Mul(l, r),
                    BinOp::Div => TapeOp::Div(l, r),
                })
            }
            Equation::Unary {
                op: UnOp::Neg,
                expr,
            } => {
                let e = self.emit(expr, slots);
                self.push(TapeOp::Neg(e))
            }
        }
    }

    fn push(&mut self, op: TapeOp) -> u32 {
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    fn fail(&mut self, error: PipError) -> u32 {
        self.errors.push(error);
        self.push(TapeOp::Fail(self.errors.len() as u32 - 1))
    }

    /// Evaluate over one sample. `regs` is caller-provided scratch,
    /// resized as needed. Bit-identical to [`Equation::eval_f64`] on the
    /// assignment the slot buffer encodes.
    ///
    /// The loop walks the run-segmented form: one opcode dispatch per
    /// run, then a tight operand loop. Instructions execute in exactly
    /// the original order (runs partition the tape), so results — and
    /// which division errors first — match the per-instruction loop.
    pub fn eval(&self, slots: &[f64], regs: &mut Vec<f64>) -> Result<f64> {
        let last = self.ops.len().checked_sub(1).expect("non-empty tape");
        regs.clear();
        regs.resize(self.ops.len(), 0.0);
        for run in &self.runs {
            let (s, e) = (run.start as usize, run.end as usize);
            match run.kind {
                OpKind::Const => regs[s..e].copy_from_slice(&self.c[s..e]),
                OpKind::Load => {
                    for i in s..e {
                        regs[i] = slots[self.a[i] as usize];
                    }
                }
                OpKind::Add => {
                    for i in s..e {
                        regs[i] = regs[self.a[i] as usize] + regs[self.b[i] as usize];
                    }
                }
                OpKind::Sub => {
                    for i in s..e {
                        regs[i] = regs[self.a[i] as usize] - regs[self.b[i] as usize];
                    }
                }
                OpKind::Mul => {
                    for i in s..e {
                        regs[i] = regs[self.a[i] as usize] * regs[self.b[i] as usize];
                    }
                }
                OpKind::Div => {
                    for i in s..e {
                        let d = regs[self.b[i] as usize];
                        if d == 0.0 {
                            return Err(div_by_zero());
                        }
                        regs[i] = regs[self.a[i] as usize] / d;
                    }
                }
                OpKind::Neg => {
                    for i in s..e {
                        regs[i] = -regs[self.a[i] as usize];
                    }
                }
                OpKind::Fail => return Err(self.errors[self.a[s] as usize].clone()),
            }
        }
        Ok(regs[last])
    }

    /// Evaluate over a columnar sample block: lane `s` reads column
    /// entries `data[slot * stride + s]`. Writes the `len` results into
    /// `out` and returns the earliest lane whose evaluation errors, if
    /// any ([`Tape::eval`] on that lane names the error) — per lane the
    /// computation is the same float op sequence as [`Tape::eval`], so
    /// every non-error lane is bit-identical to the scalar path.
    pub fn eval_block(
        &self,
        data: &[f64],
        stride: usize,
        len: usize,
        regs: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Option<usize> {
        regs.clear();
        regs.resize(self.ops.len() * len, 0.0);
        let mut first_err: Option<usize> = None;
        for (i, op) in self.ops.iter().enumerate() {
            // Split scratch: everything before op `i` is read-only input.
            let (prev, cur) = regs.split_at_mut(i * len);
            let cur = &mut cur[..len];
            let reg = |r: u32| &prev[r as usize * len..r as usize * len + len];
            match *op {
                TapeOp::Const(c) => cur.fill(c),
                TapeOp::Load(slot) => {
                    cur.copy_from_slice(&data[slot as usize * stride..slot as usize * stride + len])
                }
                TapeOp::Add(a, b) => {
                    let (a, b) = (reg(a), reg(b));
                    for s in 0..len {
                        cur[s] = a[s] + b[s];
                    }
                }
                TapeOp::Sub(a, b) => {
                    let (a, b) = (reg(a), reg(b));
                    for s in 0..len {
                        cur[s] = a[s] - b[s];
                    }
                }
                TapeOp::Mul(a, b) => {
                    let (a, b) = (reg(a), reg(b));
                    for s in 0..len {
                        cur[s] = a[s] * b[s];
                    }
                }
                TapeOp::Div(a, b) => {
                    let (a, b) = (reg(a), reg(b));
                    for s in 0..len {
                        if b[s] == 0.0 {
                            // Record the earliest erroring lane; later
                            // instructions may keep computing garbage in
                            // it, the caller truncates before use.
                            if first_err.is_none_or(|e| s < e) {
                                first_err = Some(s);
                            }
                            cur[s] = 0.0;
                        } else {
                            cur[s] = a[s] / b[s];
                        }
                    }
                }
                TapeOp::Neg(a) => {
                    let a = reg(a);
                    for s in 0..len {
                        cur[s] = -a[s];
                    }
                }
                TapeOp::Fail(_) => {
                    // Every lane errors here; lane 0 is the earliest.
                    if len > 0 {
                        first_err = Some(0);
                    }
                    cur.fill(0.0);
                }
            }
        }
        let last = &regs[(self.ops.len() - 1) * len..];
        out.clear();
        out.extend_from_slice(&last[..len]);
        first_err
    }

    /// Structural signature folded into sample-block cache keys.
    pub(crate) fn signature(&self, sig: &mut Vec<u64>) {
        sig.push(self.ops.len() as u64);
        for op in &self.ops {
            match *op {
                TapeOp::Const(c) => {
                    sig.push(0);
                    sig.push(c.to_bits());
                }
                TapeOp::Load(s) => {
                    sig.push(1);
                    sig.push(s as u64);
                }
                TapeOp::Add(a, b) => sig.extend([2, a as u64, b as u64]),
                TapeOp::Sub(a, b) => sig.extend([3, a as u64, b as u64]),
                TapeOp::Mul(a, b) => sig.extend([4, a as u64, b as u64]),
                TapeOp::Div(a, b) => sig.extend([5, a as u64, b as u64]),
                TapeOp::Neg(a) => sig.extend([6, a as u64]),
                TapeOp::Fail(e) => {
                    let text = self.errors[e as usize].to_string();
                    sig.extend([7, text.len() as u64]);
                    sig.extend(text.bytes().map(u64::from));
                }
            }
        }
    }
}

/// One compiled atom. The common shapes after condition normalization —
/// `slot θ const` and `slot θ slot` — get direct forms with no register
/// traffic at all; everything else runs both side tapes. Both-const
/// atoms keep the `Value`-ordering fast path of [`Atom::eval`] as a
/// precomputed truth value.
#[derive(Debug, Clone)]
enum AtomProgram {
    Const(bool),
    SlotCmpConst {
        slot: u32,
        op: CmpOp,
        c: f64,
    },
    SlotCmpSlot {
        l: u32,
        op: CmpOp,
        r: u32,
    },
    Cmp {
        left: Box<Tape>,
        op: CmpOp,
        right: Box<Tape>,
    },
}

/// An atom side that compiles to a one-instruction tape: a variable with
/// a slot (`Load`) or a numeric constant (`Const`).
enum Leaf {
    Slot(u32),
    Const(f64),
}

impl Leaf {
    fn of(side: &Equation, slots: &SlotMap) -> Option<Leaf> {
        match side {
            Equation::Var(v) => slots.slot_of(v.key).map(Leaf::Slot),
            Equation::Const(c) => c.as_f64().ok().map(Leaf::Const),
            _ => None,
        }
    }
}

/// A compiled conjunction of atoms, short-circuiting in atom order.
#[derive(Debug, Clone, Default)]
pub struct CondTape {
    atoms: Vec<AtomProgram>,
}

impl CondTape {
    /// Compile a list of atoms against `slots`.
    pub fn compile_atoms(atoms: &[Atom], slots: &SlotMap) -> CondTape {
        let mut programs = Vec::with_capacity(atoms.len());
        for atom in atoms {
            // Mirror of Atom::eval: two root constants compare under the
            // total Value order (strings included), everything else goes
            // down the numeric path.
            if let (Some(l), Some(r)) = (atom.left.as_const(), atom.right.as_const()) {
                programs.push(AtomProgram::Const(atom.op.eval_value(l, r)));
                continue;
            }
            // Specialize the one-op shapes (comparison flip is exact for
            // floats, so const-on-the-left reuses the same direct form).
            let program = match (Leaf::of(&atom.left, slots), Leaf::of(&atom.right, slots)) {
                (Some(Leaf::Slot(slot)), Some(Leaf::Const(c))) => AtomProgram::SlotCmpConst {
                    slot,
                    op: atom.op,
                    c,
                },
                (Some(Leaf::Const(c)), Some(Leaf::Slot(slot))) => AtomProgram::SlotCmpConst {
                    slot,
                    op: atom.op.flip(),
                    c,
                },
                (Some(Leaf::Slot(l)), Some(Leaf::Slot(r))) => {
                    AtomProgram::SlotCmpSlot { l, op: atom.op, r }
                }
                _ => AtomProgram::Cmp {
                    left: Box::new(Tape::compile(&atom.left, slots)),
                    op: atom.op,
                    right: Box::new(Tape::compile(&atom.right, slots)),
                },
            };
            programs.push(program);
        }
        CondTape { atoms: programs }
    }

    /// Compile a whole row condition.
    pub fn compile(cond: &Conjunction, slots: &SlotMap) -> CondTape {
        Self::compile_atoms(cond.atoms(), slots)
    }

    /// True when every atom holds — bit-identical to
    /// [`Conjunction::eval`] over the assignment the slots encode,
    /// including error propagation order.
    #[inline]
    pub fn eval_bool(&self, slots: &[f64], regs: &mut Vec<f64>) -> Result<bool> {
        for atom in &self.atoms {
            let holds = match atom {
                AtomProgram::Const(t) => *t,
                AtomProgram::SlotCmpConst { slot, op, c } => op.eval_f64(slots[*slot as usize], *c),
                AtomProgram::SlotCmpSlot { l, op, r } => {
                    op.eval_f64(slots[*l as usize], slots[*r as usize])
                }
                AtomProgram::Cmp { left, op, right } => {
                    let l = left.eval(slots, regs)?;
                    let r = right.eval(slots, regs)?;
                    op.eval_f64(l, r)
                }
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }

    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    pub(crate) fn signature(&self, sig: &mut Vec<u64>) {
        sig.push(self.atoms.len() as u64);
        for atom in &self.atoms {
            match atom {
                AtomProgram::Const(t) => sig.extend([100, *t as u64]),
                AtomProgram::SlotCmpConst { slot, op, c } => {
                    sig.extend([110 + *op as u64, *slot as u64, c.to_bits()])
                }
                AtomProgram::SlotCmpSlot { l, op, r } => {
                    sig.extend([120 + *op as u64, *l as u64, *r as u64])
                }
                AtomProgram::Cmp { left, op, right } => {
                    sig.push(101 + *op as u64);
                    left.signature(sig);
                    right.signature(sig);
                }
            }
        }
    }
}

/// How one variable of a kernel is generated: its [`VarStrategy`], the
/// distribution handle and the target slot.
#[derive(Debug, Clone)]
struct VarGen {
    slot: u32,
    class: DistRef,
    params: Arc<[f64]>,
    strategy: VarStrategy,
    /// Draw-identical prepared sampler (Natural strategy).
    prepared: Option<Arc<dyn PreparedGen>>,
    /// Bit-identical prepared inverse CDF (CdfBounded strategy).
    prepared_inv: Option<Arc<dyn PreparedInverseCdf>>,
}

/// The sampler of one independent variable group: candidate generation
/// into slots, the rejection loop checked by a [`CondTape`], and — past
/// the rejection threshold — the group's Metropolis chain.
#[derive(Debug, Clone)]
pub struct GroupKernel {
    pub(crate) group: VarGroup,
    vars: Vec<VarGen>,
    cond: CondTape,
    box_mass: f64,
    /// Candidates generated by the rejection loop and probes.
    pub attempts: u64,
    /// Candidates that satisfied the group's atoms.
    pub accepts: u64,
    metropolis: Option<MetropolisState>,
    /// Metropolis init already failed (no PDF or no feasible start): the
    /// switch is off for good and the attempt cap is the only exit. The
    /// init scan is expensive, so retrying it on every rejected candidate
    /// would stretch the cap from bounded to effectively infinite.
    pub(crate) metropolis_unavailable: bool,
    /// The rejection loop stopped at the switch trigger without switching
    /// (see [`GroupKernel::sample_into_slots`]), after this many
    /// consecutive attempts on the sample in flight.
    held_at_switch: Option<u64>,
}

impl GroupKernel {
    /// The kernel for `group`: strategy selection against `bounds`, the
    /// group's variables interned into `slots`, its atoms compiled.
    pub(crate) fn for_group(
        group: VarGroup,
        bounds: &BoundsMap,
        cfg: &SamplerConfig,
        slots: &mut SlotMap,
    ) -> GroupKernel {
        let (strategies, box_mass) = select_strategies(&group, bounds, cfg);
        let vars = group
            .vars
            .iter()
            .zip(strategies)
            .map(|(v, strategy)| {
                let (prepared, prepared_inv) = match strategy {
                    VarStrategy::Natural => (v.class.prepare_generate(&v.params), None),
                    VarStrategy::CdfBounded { .. } => {
                        (None, v.class.prepare_inverse_cdf(&v.params))
                    }
                };
                VarGen {
                    slot: slots.intern(v.key),
                    class: Arc::clone(&v.class),
                    params: Arc::clone(&v.params),
                    strategy,
                    prepared,
                    prepared_inv,
                }
            })
            .collect();
        let cond = CondTape::compile_atoms(&group.atoms, slots);
        GroupKernel {
            group,
            vars,
            cond,
            box_mass,
            attempts: 0,
            accepts: 0,
            metropolis: None,
            metropolis_unavailable: false,
            held_at_switch: None,
        }
    }

    /// True once the kernel has switched to Metropolis.
    pub fn uses_metropolis(&self) -> bool {
        self.metropolis.is_some()
    }

    /// Plain rejection mode: no chain, no trigger held, no failed init.
    /// The sample-block cache replays counters and the generator only, so
    /// it serves and publishes fills of plain kernels alone.
    pub(crate) fn is_plain(&self) -> bool {
        self.metropolis.is_none() && self.held_at_switch.is_none() && !self.metropolis_unavailable
    }

    /// Generate one candidate into the slots.
    #[inline]
    fn generate_candidate(&self, rng: &mut PipRng, slots: &mut [f64]) {
        for vg in &self.vars {
            let x = match vg.strategy {
                VarStrategy::Natural => match &vg.prepared {
                    Some(p) => p.generate(rng),
                    None => vg.class.generate(&vg.params, rng),
                },
                VarStrategy::CdfBounded { p_lo, p_hi } => {
                    let u: f64 = rng.gen();
                    let p = p_lo + u * (p_hi - p_lo);
                    match &vg.prepared_inv {
                        Some(inv) => inv.inverse_cdf(p),
                        None => vg
                            .class
                            .inverse_cdf(&vg.params, p)
                            .expect("strategy guaranteed inverse CDF"),
                    }
                }
            };
            slots[vg.slot as usize] = x;
        }
    }

    /// Draw one joint sample satisfying the group's atoms into the slots
    /// (Algorithm 4.3 lines 12–24).
    ///
    /// Candidates are rejected until one satisfies the atoms; once the
    /// rejection rate crosses the threshold the kernel starts a
    /// [`MetropolisState`] chain (a failed init latches the switch off)
    /// and every later sample is the chain's next thinned point. With
    /// `hold_switch` the kernel instead stops at the trigger and returns
    /// `Ok(false)`; the next call switches from exactly that state. A
    /// block fill holds every sample but its first, so a switch only
    /// happens on a sample the averaging loop asked for. `Ok(true)`: a
    /// sample is in the slots.
    #[inline]
    pub(crate) fn sample_into_slots(
        &mut self,
        rng: &mut PipRng,
        cfg: &SamplerConfig,
        bounds: &BoundsMap,
        slots: &mut [f64],
        regs: &mut Vec<f64>,
        hold_switch: bool,
    ) -> Result<bool> {
        let mut local_attempts = 0;
        if let Some(held) = self.held_at_switch {
            self.held_at_switch = None;
            local_attempts = held;
            if self.switch_to_metropolis(rng, cfg, bounds) {
                return self.chain_sample(rng, cfg, slots);
            }
        } else if self.metropolis.is_some() {
            return self.chain_sample(rng, cfg, slots);
        }
        loop {
            if local_attempts >= MAX_ATTEMPTS_PER_SAMPLE {
                return Err(PipError::Sampling(format!(
                    "group rejected {MAX_ATTEMPTS_PER_SAMPLE} consecutive candidates"
                )));
            }
            self.attempts += 1;
            local_attempts += 1;
            self.generate_candidate(rng, slots);
            if self.cond.eval_bool(slots, regs)? {
                self.accepts += 1;
                return Ok(true);
            }
            if !self.metropolis_unavailable && metropolis_due(cfg, self.attempts, self.accepts) {
                if hold_switch {
                    self.held_at_switch = Some(local_attempts);
                    return Ok(false);
                }
                if self.switch_to_metropolis(rng, cfg, bounds) {
                    return self.chain_sample(rng, cfg, slots);
                }
            }
        }
    }

    /// Start the group's chain from the current generator state; `false`
    /// (and the latch set) when the group has no PDF or no start point.
    #[cold]
    fn switch_to_metropolis(
        &mut self,
        rng: &mut PipRng,
        cfg: &SamplerConfig,
        bounds: &BoundsMap,
    ) -> bool {
        match MetropolisState::init(
            &self.group,
            bounds,
            rng,
            cfg.metropolis_burn_in,
            METROPOLIS_START_ATTEMPTS,
        ) {
            Ok(m) => {
                crate::obs::metrics().metropolis_escalations_total.inc();
                self.metropolis = Some(m);
                true
            }
            Err(_) => {
                self.metropolis_unavailable = true;
                false
            }
        }
    }

    /// The chain's next thinned point, written into the group's slots.
    fn chain_sample(
        &mut self,
        rng: &mut PipRng,
        cfg: &SamplerConfig,
        slots: &mut [f64],
    ) -> Result<bool> {
        let chain = self.metropolis.as_mut().expect("switched to Metropolis");
        let point = chain.advance(&self.group, rng, cfg.metropolis_thinning)?;
        for (vg, &x) in self.vars.iter().zip(point) {
            slots[vg.slot as usize] = x;
        }
        Ok(true)
    }

    /// Estimate `P[group atoms]` with a fixed number of candidate draws
    /// (cheaper than sampling for selective conditions, where one
    /// accepted sample may cost thousands of candidates).
    pub(crate) fn estimate_probability(
        &mut self,
        rng: &mut PipRng,
        n_attempts: u64,
        slots: &mut [f64],
        regs: &mut Vec<f64>,
    ) -> Result<f64> {
        for _ in 0..n_attempts {
            self.attempts += 1;
            self.generate_candidate(rng, slots);
            if self.cond.eval_bool(slots, regs)? {
                self.accepts += 1;
            }
        }
        Ok(self.probability_estimate())
    }

    /// `box_mass · accepts/attempts` over the live counters.
    pub(crate) fn probability_estimate(&self) -> f64 {
        acceptance_estimate(
            self.box_mass,
            self.attempts,
            self.accepts,
            !self.cond.is_empty(),
        )
    }

    /// Structural signature of everything that determines a plain
    /// kernel's draw sequence, folded into sample-block cache keys.
    /// Distribution class names go into `names` (exact string compare —
    /// no hash collisions decide cache hits).
    pub(crate) fn signature(&self, sig: &mut Vec<u64>, names: &mut Vec<&'static str>) {
        sig.push(self.vars.len() as u64);
        for vg in &self.vars {
            names.push(vg.class.name());
            sig.push(vg.slot as u64);
            sig.push(vg.params.len() as u64);
            sig.extend(vg.params.iter().map(|p| p.to_bits()));
            match vg.strategy {
                VarStrategy::Natural => sig.push(0),
                VarStrategy::CdfBounded { p_lo, p_hi } => {
                    sig.extend([1, p_lo.to_bits(), p_hi.to_bits()])
                }
            }
        }
        self.cond.signature(sig);
        sig.extend([self.box_mass.to_bits(), self.attempts, self.accepts]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroupSampler;
    use pip_core::Value;
    use pip_ctable::BoundsMap;
    use pip_dist::prelude::builtin;
    use pip_dist::rng_from_seed;
    use pip_expr::{atoms, Assignment, RandomVar};

    fn x() -> RandomVar {
        RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()
    }

    fn slots_for(vars: &[RandomVar]) -> SlotMap {
        let mut m = SlotMap::new();
        m.intern_all(vars);
        m
    }

    #[test]
    fn tape_matches_eval_f64_bitwise() {
        let v = x();
        let w = x();
        let expr = (Equation::from(v.clone()) * 3.25 - Equation::from(w.clone()))
            / (Equation::from(w.clone()) + 10.0)
            + (-Equation::from(v.clone()));
        let slots = slots_for(&[v.clone(), w.clone()]);
        let tape = Tape::compile(&expr, &slots);
        let mut regs = Vec::new();
        for (a, b) in [(0.5, -1.75), (1e300, 1e-300), (-3.0, 7.0)] {
            let mut asg = Assignment::new();
            asg.set(v.key, a);
            asg.set(w.key, b);
            let buf = [a, b];
            assert_eq!(
                tape.eval(&buf, &mut regs).unwrap().to_bits(),
                expr.eval_f64(&asg).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn tape_division_by_zero_matches_interpreted() {
        let v = x();
        let expr = Equation::val(1.0) / Equation::from(v.clone());
        let slots = slots_for(std::slice::from_ref(&v));
        let tape = Tape::compile(&expr, &slots);
        let mut regs = Vec::new();
        assert!(tape.eval(&[0.0], &mut regs).is_err());
        assert_eq!(tape.eval(&[2.0], &mut regs).unwrap(), 0.5);
    }

    #[test]
    fn run_segmentation_partitions_the_tape() {
        let v = x();
        let w = x();
        // Load, Load, Mul, Const, Mul, Add → several multi-op runs.
        let expr =
            Equation::from(v.clone()) * Equation::from(w.clone()) + Equation::from(v.clone()) * 2.0;
        let slots = slots_for(&[v, w]);
        let tape = Tape::compile(&expr, &slots);
        // Runs cover every instruction exactly once, in order.
        let mut next = 0u32;
        for run in &tape.runs {
            assert_eq!(run.start, next);
            assert!(run.end > run.start);
            next = run.end;
        }
        assert_eq!(next as usize, tape.ops.len());
        // Adjacent runs never share an opcode (runs are maximal).
        for pair in tape.runs.windows(2) {
            assert_ne!(pair[0].kind, pair[1].kind);
        }
        assert!(tape.runs.len() < tape.ops.len(), "no segmentation at all");
    }

    #[test]
    fn run_segmented_eval_errors_on_earliest_division() {
        let v = x();
        let w = x();
        // Two divisions in one run: the first zero divisor (instruction
        // order) must raise, exactly like the per-instruction loop.
        let expr = Equation::val(1.0) / Equation::from(v.clone())
            + Equation::val(1.0) / Equation::from(w.clone());
        let slots = slots_for(&[v, w]);
        let tape = Tape::compile(&expr, &slots);
        let mut regs = Vec::new();
        assert!(tape.eval(&[0.0, 1.0], &mut regs).is_err());
        assert!(tape.eval(&[1.0, 0.0], &mut regs).is_err());
        let ok = tape.eval(&[2.0, 4.0], &mut regs).unwrap();
        assert_eq!(ok, 0.75);
    }

    #[test]
    fn tape_fails_like_the_tree_on_strings_and_unmapped_vars() {
        let v = x();
        let other = x();
        let slots = slots_for(std::slice::from_ref(&v));
        let mut asg = Assignment::new();
        asg.set(v.key, 0.0);
        let mut regs = Vec::new();
        for expr in [
            Equation::val(Value::str("hi")) + Equation::val(1.0),
            Equation::from(other),
            // Post-order: the division by zero comes first...
            Equation::val(1.0) / Equation::from(v.clone()) + Equation::val(Value::str("a")),
            // ...and here the string does.
            Equation::val(Value::str("a")) + Equation::val(1.0) / Equation::from(v.clone()),
        ] {
            let tape = Tape::compile(&expr, &slots);
            let tree = expr.eval_f64(&asg).unwrap_err().to_string();
            assert_eq!(tape.eval(&[0.0], &mut regs).unwrap_err().to_string(), tree);
            let mut out = Vec::new();
            assert_eq!(
                tape.eval_block(&[0.0, 1.0], 2, 2, &mut regs, &mut out),
                Some(0)
            );
        }
    }

    #[test]
    fn eval_block_matches_scalar_lanes() {
        let v = x();
        let w = x();
        let expr =
            Equation::from(v.clone()) * Equation::from(w.clone()) + Equation::from(v.clone());
        let slots = slots_for(&[v, w]);
        let tape = Tape::compile(&expr, &slots);
        let n = 7;
        // Column-major block: slot 0 then slot 1.
        let mut data = vec![0.0; 2 * n];
        for s in 0..n {
            data[s] = s as f64 * 0.5 - 1.0;
            data[n + s] = 2.0 - s as f64;
        }
        let (mut regs, mut out) = (Vec::new(), Vec::new());
        assert_eq!(tape.eval_block(&data, n, n, &mut regs, &mut out), None);
        let mut scalar_regs = Vec::new();
        for s in 0..n {
            let buf = [data[s], data[n + s]];
            assert_eq!(
                out[s].to_bits(),
                tape.eval(&buf, &mut scalar_regs).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn eval_block_reports_earliest_error_lane() {
        let v = x();
        let expr = Equation::val(1.0) / Equation::from(v.clone());
        let slots = slots_for(&[v]);
        let tape = Tape::compile(&expr, &slots);
        let data = vec![1.0, 0.0, 2.0, 0.0];
        let (mut regs, mut out) = (Vec::new(), Vec::new());
        assert_eq!(tape.eval_block(&data, 4, 4, &mut regs, &mut out), Some(1));
    }

    #[test]
    fn cond_tape_matches_conjunction_eval() {
        let v = x();
        let w = x();
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(v.clone()), -0.5),
            atoms::le(
                Equation::from(v.clone()) * 2.0,
                Equation::from(w.clone()) + 1.0,
            ),
            atoms::lt(1.0, 2.0), // deterministic: Value-ordering path
        ]);
        let slots = slots_for(&[v.clone(), w.clone()]);
        let tape = CondTape::compile(&cond, &slots);
        let mut regs = Vec::new();
        for (a, b) in [(0.0, 0.0), (-1.0, 0.0), (1.0, 0.5), (0.25, -0.5)] {
            let mut asg = Assignment::new();
            asg.set(v.key, a);
            asg.set(w.key, b);
            assert_eq!(
                tape.eval_bool(&[a, b], &mut regs).unwrap(),
                cond.eval(&asg).unwrap(),
                "at ({a}, {b})"
            );
        }
    }

    /// The kernel of `cond`'s one group beside the oracle's sampler.
    fn kernel_and_sampler(
        cond: &Conjunction,
        cfg: &SamplerConfig,
    ) -> (GroupKernel, GroupSampler, BoundsMap, usize) {
        let bounds = pip_ctable::consistency_check(cond).bounds();
        let group = pip_expr::independent_groups(cond, &[]).pop().unwrap();
        let sampler = GroupSampler::new(group.clone(), &bounds, cfg);
        let mut slots = SlotMap::new();
        let kernel = GroupKernel::for_group(group, &bounds, cfg, &mut slots);
        (kernel, sampler, bounds, slots.len())
    }

    #[test]
    fn kernel_draws_identically_to_group_sampler() {
        let y = RandomVar::create(builtin::normal(), &[5.0, 10.0]).unwrap();
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(y.clone()), -3.0),
            atoms::lt(Equation::from(y.clone()), 2.0),
        ]);
        let cfg = SamplerConfig::default();
        let (mut kernel, mut sampler, bounds, n_slots) = kernel_and_sampler(&cond, &cfg);

        let mut rng_a = rng_from_seed(42);
        let mut rng_b = rng_from_seed(42);
        let mut asg = Assignment::new();
        let mut buf = vec![0.0; n_slots];
        let mut regs = Vec::new();
        for _ in 0..500 {
            sampler
                .sample_into(&mut rng_a, &cfg, &bounds, &mut asg)
                .unwrap();
            assert!(kernel
                .sample_into_slots(&mut rng_b, &cfg, &bounds, &mut buf, &mut regs, false)
                .unwrap());
            assert_eq!(
                asg.get(y.key).unwrap().to_bits(),
                buf[0].to_bits(),
                "kernel diverged from sampler"
            );
        }
        assert_eq!(sampler.attempts, kernel.attempts);
        assert_eq!(sampler.accepts, kernel.accepts);
        assert_eq!(
            sampler.probability_estimate().to_bits(),
            kernel.probability_estimate().to_bits()
        );
    }

    /// `Y > 4` on Normal(0,1) without CDF bounds: P ≈ 3.2e-5, so the
    /// rejection rate crosses the threshold within the first sample.
    fn escalating() -> (Conjunction, SamplerConfig) {
        let cond = Conjunction::single(atoms::gt(Equation::from(x()), 4.0));
        let cfg = SamplerConfig {
            use_cdf_sampling: false,
            ..Default::default()
        };
        (cond, cfg)
    }

    #[test]
    fn kernel_continues_past_the_switch_like_the_oracle() {
        let (cond, cfg) = escalating();
        let (mut kernel, mut sampler, bounds, _) = kernel_and_sampler(&cond, &cfg);
        let key = sampler.group.vars[0].key;
        let (mut rng_a, mut rng_b) = (rng_from_seed(5), rng_from_seed(5));
        let (mut asg, mut buf, mut regs) = (Assignment::new(), vec![0.0; 1], Vec::new());
        for i in 0..400 {
            sampler
                .sample_into(&mut rng_a, &cfg, &bounds, &mut asg)
                .unwrap();
            assert!(kernel
                .sample_into_slots(&mut rng_b, &cfg, &bounds, &mut buf, &mut regs, false)
                .unwrap());
            assert_eq!(
                asg.get(key).unwrap().to_bits(),
                buf[0].to_bits(),
                "sample {i}"
            );
            assert_eq!(
                kernel.uses_metropolis(),
                sampler.uses_metropolis(),
                "sample {i}"
            );
        }
        assert!(kernel.uses_metropolis(), "kernel never switched");
        assert_eq!(
            (kernel.attempts, kernel.accepts),
            (sampler.attempts, sampler.accepts)
        );
        assert_eq!(rng_a.state(), rng_b.state());
    }

    #[test]
    fn held_switch_resumes_where_it_stopped() {
        // Holding the trigger and switching on the next call draws the
        // same samples as switching at once.
        let (cond, cfg) = escalating();
        let (mut held, _, bounds, _) = kernel_and_sampler(&cond, &cfg);
        let mut direct = held.clone();
        let (mut rng_a, mut rng_b) = (rng_from_seed(8), rng_from_seed(8));
        let (mut a, mut b, mut regs) = (vec![0.0; 1], vec![0.0; 1], Vec::new());
        assert!(!held
            .sample_into_slots(&mut rng_a, &cfg, &bounds, &mut a, &mut regs, true)
            .unwrap());
        assert!(!held.uses_metropolis() && !held.is_plain());
        for _ in 0..50 {
            assert!(held
                .sample_into_slots(&mut rng_a, &cfg, &bounds, &mut a, &mut regs, true)
                .unwrap());
            assert!(direct
                .sample_into_slots(&mut rng_b, &cfg, &bounds, &mut b, &mut regs, false)
                .unwrap());
            assert_eq!(a[0].to_bits(), b[0].to_bits());
        }
        assert!(held.uses_metropolis());
        assert_eq!(rng_a.state(), rng_b.state());
    }

    #[test]
    fn kernel_estimate_matches_sampler_estimate() {
        let y = x();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 1.0));
        let cfg = SamplerConfig::naive(100);
        let (mut kernel, mut sampler, _, _) = kernel_and_sampler(&cond, &cfg);
        let mut rng_a = rng_from_seed(9);
        let mut rng_b = rng_from_seed(9);
        let pa = sampler.estimate_probability(&mut rng_a, 5000).unwrap();
        let mut buf = vec![0.0; 1];
        let mut regs = Vec::new();
        let pb = kernel
            .estimate_probability(&mut rng_b, 5000, &mut buf, &mut regs)
            .unwrap();
        assert_eq!(pa.to_bits(), pb.to_bits());
        assert_eq!(rng_a.state(), rng_b.state(), "draw counts diverged");
    }
}
