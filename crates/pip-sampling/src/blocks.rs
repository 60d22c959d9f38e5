//! Columnar sample blocks and the averaging loops built on
//! [`crate::tape`].
//!
//! A [`SampleBlock`] is an `n_slots × n_samples` structure-of-arrays
//! matrix of accepted joint samples, filled **sample-major** (so the RNG
//! consumption order is exactly a sample-at-a-time loop's) but stored
//! **column-major** (so the tape evaluator streams each slot
//! contiguously). Filling stops early on an error, and at a Metropolis
//! trigger past the block's first sample: the switch waits until the
//! averaging loop asks for that sample, so overdrawing a block past the
//! stopping point never switches a group the loop did not reach.
//!
//! Nothing here is memoized. A draw sequence is a pure function of
//! `(group, world_seed, site)`, so a statement re-run at the same seed
//! is recomputed to the same bits.

use pip_core::{PipError, Result};
use pip_dist::PipRng;

use crate::config::SamplerConfig;
use crate::expectation::Prepared;
use crate::tape::Tape;

/// Samples per block in the blocked averaging loop. A constant:
/// block boundaries only batch work, they never influence values (the
/// stopping rule is still applied per sample, and overdrawn samples are
/// discarded unconsumed).
pub(crate) const SERIAL_BLOCK: usize = 256;

/// One filled columnar block of accepted samples. An averaging loop owns
/// one and refills it in place, so its buffer is allocated once.
#[derive(Debug, Default)]
pub struct SampleBlock {
    /// Samples requested (the column stride of `data`).
    pub requested: usize,
    /// Samples actually filled (`< requested` on an error, or at a
    /// Metropolis trigger held for the next fill).
    pub filled: usize,
    /// Column-major payload: slot `k`'s samples at
    /// `data[k * requested .. k * requested + filled]`.
    pub data: Vec<f64>,
    /// The error that stopped the fill: the rejection cap
    /// ([`PipError::Sampling`]) or an atom's evaluation error.
    pub error: Option<PipError>,
}

/// Does nothing: there is no sample-block cache to clear. Kept only
/// because the benchmark harness (`pip-e2e`) still calls it; the next
/// change to that harness drops the call, and this function with it.
#[doc(hidden)]
pub fn block_cache_clear() {}

// ---------------------------------------------------------------------
// Block filling.
// ---------------------------------------------------------------------

/// Draw scratch of one averaging loop, kept across its block fills so a
/// fill that stopped at a held Metropolis trigger mid-sample resumes that
/// sample where it stopped.
pub(crate) struct Cursor {
    slots: Vec<f64>,
    regs: Vec<f64>,
    /// Position in `prep.relevant` of the next kernel to draw; the
    /// kernels before it already wrote the sample in flight.
    next: usize,
}

impl Cursor {
    pub(crate) fn new(prep: &Prepared) -> Cursor {
        Cursor {
            slots: vec![0.0; prep.slots.len()],
            regs: Vec::new(),
            next: 0,
        }
    }
}

/// The one error that ends an averaging loop with its partial estimate
/// standing (Algorithm 4.3 line 25): the rejection cap. Any other error
/// — evaluation, type — is the query's and propagates.
pub(crate) fn partial_or_fail(error: PipError) -> Result<()> {
    match error {
        PipError::Sampling(_) => Ok(()),
        other => Err(other),
    }
}

/// Fill `block` in place: draw up to `requested` joint samples through
/// the relevant kernels in order, sample-major (the draw order of a
/// sample-at-a-time loop), storing accepted values column-major.
///
/// Overdrawing is cheap only in rejection mode. Only the first sample
/// may switch a kernel to Metropolis; a trigger later in the block ends
/// the fill there (see [`Cursor`]). And a chain sample costs `thinning`
/// walk steps, so a fill whose first sample left a kernel on its chain
/// ends there: in Metropolis mode every fill is one sample.
fn fill_block(
    prep: &mut Prepared,
    rng: &mut PipRng,
    cfg: &SamplerConfig,
    cur: &mut Cursor,
    requested: usize,
    block: &mut SampleBlock,
) {
    let Prepared {
        samplers: kernels,
        relevant,
        bounds,
        ..
    } = prep;
    block.requested = requested;
    block.filled = 0;
    block.error = None;
    block.data.clear();
    block.data.resize(cur.slots.len() * requested, 0.0);
    'samples: for s in 0..requested {
        while let Some(&i) = relevant.get(cur.next) {
            let hold_switch = s > 0;
            match kernels[i].sample_into_slots(
                rng,
                cfg,
                bounds,
                &mut cur.slots,
                &mut cur.regs,
                hold_switch,
            ) {
                Ok(true) => cur.next += 1,
                Ok(false) => break 'samples,
                Err(e) => {
                    block.error = Some(e);
                    break 'samples;
                }
            }
        }
        cur.next = 0;
        for (col, &v) in block.data.chunks_exact_mut(requested).zip(&cur.slots) {
            col[s] = v;
        }
        block.filled += 1;
        if s == 0 && relevant.iter().any(|&i| kernels[i].uses_metropolis()) {
            break;
        }
    }
}

// ---------------------------------------------------------------------
// The averaging loops.
// ---------------------------------------------------------------------

/// Compile the target expression of an averaging loop against the
/// prepared slot layout.
pub(crate) fn compile_expr(expr: &pip_expr::Equation, prep: &Prepared) -> Tape {
    crate::obs::metrics().kernel_compiles_total.inc();
    Tape::compile(expr, &prep.slots)
}

/// Monte-Carlo sums of one averaging loop.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LoopStats {
    pub(crate) n: usize,
    pub(crate) sum: f64,
    pub(crate) sum_sq: f64,
}

impl LoopStats {
    #[inline]
    pub(crate) fn push(&mut self, value: f64) {
        self.n += 1;
        self.sum += value;
        self.sum_sq += value * value;
    }

    /// Running mean.
    #[inline]
    pub(crate) fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }

    /// Standard error of the running mean.
    #[inline]
    pub(crate) fn std_error(&self) -> f64 {
        let mean = self.mean();
        let var = (self.sum_sq / self.n as f64 - mean * mean).max(0.0);
        (var / self.n as f64).sqrt()
    }

    /// The ε–δ stopping rule of Algorithm 4.3, applied after every
    /// sample by every averaging loop (per-sample, blocked, and the
    /// oracle's): z·SE ≤ δ·|mean| once past the sample floor.
    #[inline]
    pub(crate) fn should_stop(&self, cfg: &SamplerConfig, target: f64) -> bool {
        self.n >= cfg.min_samples && target * self.std_error() <= cfg.delta * self.mean().abs()
    }
}

/// The evaluation error of lane `s` of `block`, which
/// [`Tape::eval_block`] flagged.
fn lane_error(expr: &Tape, block: &SampleBlock, s: usize, regs: &mut Vec<f64>) -> PipError {
    let lane: Vec<f64> = block
        .data
        .chunks_exact(block.requested)
        .map(|col| col[s])
        .collect();
    expr.eval(&lane, regs)
        .expect_err("eval_block flags only lanes that error")
}

/// The averaging loop a sample at a time — used when the caller's RNG and
/// acceptance counters must end exactly where the loop stopped (a
/// Monte-Carlo probability pass follows).
pub(crate) fn serial_per_sample(
    prep: &mut Prepared,
    expr: &Tape,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
) -> Result<LoopStats> {
    let target = cfg.z_target();
    let mut slots = vec![0.0; prep.slots.len()];
    let mut regs = Vec::new();
    let mut stats = LoopStats::default();
    'sampling: while stats.n < cfg.max_samples {
        for &i in &prep.relevant {
            let drawn = prep.samplers[i].sample_into_slots(
                rng,
                cfg,
                &prep.bounds,
                &mut slots,
                &mut regs,
                false,
            );
            if let Err(e) = drawn {
                partial_or_fail(e)?;
                break 'sampling;
            }
        }
        stats.push(expr.eval(&slots, &mut regs)?);
        if stats.should_stop(cfg, target) {
            break;
        }
    }
    Ok(stats)
}

/// The averaging loop over columnar blocks — used when nothing
/// after the loop reads the RNG or the acceptance counters (overdrawing
/// a block past the adaptive stopping point is then harmless).
pub(crate) fn serial_blocked(
    prep: &mut Prepared,
    expr: &Tape,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
) -> Result<LoopStats> {
    let target = cfg.z_target();
    let mut cur = Cursor::new(prep);
    let mut block = SampleBlock::default();
    let mut regs = Vec::new();
    let mut values = Vec::new();
    let mut stats = LoopStats::default();
    while stats.n < cfg.max_samples {
        let want = SERIAL_BLOCK.min(cfg.max_samples - stats.n);
        fill_block(prep, rng, cfg, &mut cur, want, &mut block);
        let first_err = expr.eval_block(
            &block.data,
            block.requested,
            block.filled,
            &mut regs,
            &mut values,
        );
        for (s, &value) in values.iter().enumerate().take(block.filled) {
            if first_err == Some(s) {
                return Err(lane_error(expr, &block, s, &mut regs));
            }
            stats.push(value);
            if stats.should_stop(cfg, target) {
                return Ok(stats);
            }
        }
        if let Some(e) = block.error.take() {
            partial_or_fail(e)?;
            break;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectation::analyse;
    use crate::tape::GroupKernel;
    use pip_dist::prelude::builtin;
    use pip_dist::rng_from_seed;
    use pip_expr::{atoms, Conjunction, Equation, RandomVar};

    #[test]
    fn chain_fills_are_one_sample() {
        // P[Y > 4] ≈ 3.2e-5 without CDF bounds: the first fill reaches
        // the trigger on its first sample and switches.
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 4.0));
        let cfg = SamplerConfig {
            use_cdf_sampling: false,
            ..SamplerConfig::default()
        };
        let mut p = analyse(&cond, vec![y], &cfg)
            .unwrap()
            .build(|g, bounds, slots| GroupKernel::for_group(g, bounds, &cfg, slots));
        let mut rng = rng_from_seed(5);
        let mut cur = Cursor::new(&p);
        let mut block = SampleBlock::default();
        fill_block(&mut p, &mut rng, &cfg, &mut cur, 64, &mut block);
        assert!(p.samplers[0].uses_metropolis());
        assert_eq!(block.filled, 1, "chain samples are never overdrawn");
        fill_block(&mut p, &mut rng, &cfg, &mut cur, 64, &mut block);
        assert_eq!(
            block.filled, 1,
            "a fill in Metropolis mode drew past one sample"
        );
    }
}
