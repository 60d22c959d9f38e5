//! Columnar sample blocks, the sample-block cache, and the averaging
//! loops built on [`crate::tape`].
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
//! The **block cache** memoizes two deterministic draw sequences:
//!
//! * whole blocks, keyed by `(kernel signatures incl. counters, RNG
//!   state, requested length, sampling knobs)` — reused when the same
//!   `(group, seed-site)` is sampled again (repeated prepared
//!   statements, `expected_sum` + `expected_avg` over the same rows).
//!   A hit restores counters and the generator but no chain, so only
//!   fills that start and end with every kernel in plain rejection mode
//!   are looked up or published;
//! * probe runs (fixed-budget acceptance estimation for `conf()` /
//!   `P[condition]`), keyed the same way, storing just the counters and
//!   the RNG end state so a hit fast-forwards the generator without
//!   drawing.
//!
//! Both payloads are pure memoization of deterministic functions, so the
//! cache can never change a result — only skip recomputing it. That
//! invariant is what `tests/compiled_equivalence.rs` locks down.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use pip_core::{PipError, Result};
use pip_dist::PipRng;

use crate::config::SamplerConfig;
use crate::expectation::Prepared;
use crate::tape::{GroupKernel, Tape};

/// Samples per block in the blocked averaging loop. A constant:
/// block boundaries only batch work, they never influence values (the
/// stopping rule is still applied per sample, and overdrawn samples are
/// discarded unconsumed).
pub(crate) const SERIAL_BLOCK: usize = 256;

/// Upper bound on cached sample payload, in `f64`s (1 MiB). Reuse is
/// within a statement (`expected_sum` beside `expected_avg`, a join
/// fan-out re-probing one gate group) or between back-to-back runs of
/// one statement at one seed, so the cache needs to hold a statement's
/// blocks, not a history: statements at fresh seeds only ever fill it.
const CACHE_CAPACITY_F64: usize = 1 << 17;

/// One filled columnar block of accepted samples.
#[derive(Debug)]
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
    /// Per-kernel `(attempts, accepts)` after the fill, in kernel order.
    pub counters_after: Vec<(u64, u64)>,
    /// Generator state after the fill (restored on a cache hit).
    pub rng_end: [u64; 4],
}

// ---------------------------------------------------------------------
// The cache.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// 0 = block, 1 = probe.
    kind: u8,
    /// Structural signature: kernels (slots, params, strategies, atom
    /// tapes, starting counters) plus the sampling knobs that steer the
    /// rejection loop. Exact contents — no lossy hashing decides a hit.
    sig: Vec<u64>,
    /// Distribution class names, compared verbatim.
    names: Vec<&'static str>,
    /// Full RNG state at the start of the draw sequence.
    rng_state: [u64; 4],
    /// Requested samples (block) or candidate budget (probe).
    len: u64,
}

#[derive(Debug, Clone)]
enum CacheEntry {
    Block(Arc<SampleBlock>),
    Probe {
        counters_after: Vec<(u64, u64)>,
        rng_end: [u64; 4],
    },
}

impl CacheEntry {
    fn cost(&self) -> usize {
        match self {
            CacheEntry::Block(b) => b.data.len().max(1),
            CacheEntry::Probe { .. } => 8,
        }
    }
}

#[derive(Debug, Default)]
struct BlockCache {
    map: HashMap<Arc<CacheKey>, CacheEntry>,
    order: VecDeque<Arc<CacheKey>>,
    resident: usize,
    hits: u64,
    misses: u64,
}

impl BlockCache {
    fn get(&mut self, key: &CacheKey) -> Option<CacheEntry> {
        match self.map.get(key) {
            Some(e) => {
                self.hits += 1;
                crate::obs::metrics().block_cache_hits_total.inc();
                Some(e.clone())
            }
            None => {
                self.misses += 1;
                crate::obs::metrics().block_cache_misses_total.inc();
                None
            }
        }
    }

    fn insert(&mut self, key: CacheKey, entry: CacheEntry) {
        let key = Arc::new(key);
        self.resident += entry.cost();
        match self.map.insert(Arc::clone(&key), entry) {
            // Same-key re-insert (e.g. two threads raced on the same
            // miss): the replaced entry's cost leaves the accounting.
            Some(replaced) => self.resident -= replaced.cost(),
            None => self.order.push_back(key),
        }
        while self.resident > CACHE_CAPACITY_F64 {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some(e) = self.map.remove(&old) {
                self.resident -= e.cost();
            }
        }
    }
}

fn cache() -> &'static Mutex<BlockCache> {
    static CACHE: OnceLock<Mutex<BlockCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BlockCache::default()))
}

/// Counters of the process-wide sample-block cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    /// Resident payload in `f64`-equivalents.
    pub resident: usize,
}

/// Read the cache counters (benchmarks and tests).
pub fn block_cache_stats() -> BlockCacheStats {
    let c = cache().lock().unwrap_or_else(|e| e.into_inner());
    BlockCacheStats {
        hits: c.hits,
        misses: c.misses,
        entries: c.map.len(),
        resident: c.resident,
    }
}

/// Drop every cached block and reset the counters.
pub fn block_cache_clear() {
    let mut c = cache().lock().unwrap_or_else(|e| e.into_inner());
    *c = BlockCache::default();
}

/// The sampling knobs that steer the rejection loop and therefore
/// belong in every cache key.
fn config_signature(cfg: &SamplerConfig, sig: &mut Vec<u64>) {
    sig.push(cfg.use_metropolis as u64);
    sig.push(cfg.metropolis_threshold.to_bits());
}

fn kernels_key<'k>(
    kind: u8,
    kernels: impl ExactSizeIterator<Item = &'k GroupKernel>,
    cfg: &SamplerConfig,
    rng: &PipRng,
    len: usize,
) -> CacheKey {
    let mut sig = Vec::with_capacity(16 * kernels.len() + 4);
    let mut names = Vec::new();
    config_signature(cfg, &mut sig);
    sig.push(kernels.len() as u64);
    for k in kernels {
        k.signature(&mut sig, &mut names);
    }
    CacheKey {
        kind,
        sig,
        names,
        rng_state: rng.state(),
        len: len as u64,
    }
}

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

/// Fill one block: draw up to `requested` joint samples through the
/// relevant kernels in order, sample-major (the draw order of a
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
) -> SampleBlock {
    let Prepared {
        samplers: kernels,
        relevant,
        bounds,
        ..
    } = prep;
    let mut data = vec![0.0; cur.slots.len() * requested];
    let mut filled = 0usize;
    let mut error = None;
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
                    error = Some(e);
                    break 'samples;
                }
            }
        }
        cur.next = 0;
        for (col, &v) in data.chunks_exact_mut(requested).zip(&cur.slots) {
            col[s] = v;
        }
        filled += 1;
        if s == 0 && relevant.iter().any(|&i| kernels[i].uses_metropolis()) {
            break;
        }
    }
    SampleBlock {
        requested,
        filled,
        data,
        error,
        counters_after: relevant
            .iter()
            .map(|&i| (kernels[i].attempts, kernels[i].accepts))
            .collect(),
        rng_end: rng.state(),
    }
}

/// [`fill_block`] through the cache: a hit skips the draws entirely
/// (counters and RNG state are restored from the stored block), a miss
/// fills and publishes. Pure memoization — hit or miss, the caller
/// observes identical kernels, RNG state, and samples.
fn fill_block_cached(
    prep: &mut Prepared,
    rng: &mut PipRng,
    cfg: &SamplerConfig,
    cur: &mut Cursor,
    requested: usize,
) -> Arc<SampleBlock> {
    let all_plain = |prep: &Prepared| prep.relevant.iter().all(|&i| prep.samplers[i].is_plain());
    if !cfg.reuse_blocks || !all_plain(prep) {
        return Arc::new(fill_block(prep, rng, cfg, cur, requested));
    }
    let relevant = prep.relevant.iter().map(|&i| &prep.samplers[i]);
    let key = kernels_key(0, relevant, cfg, rng, requested);
    let hit = cache().lock().unwrap_or_else(|e| e.into_inner()).get(&key);
    if let Some(CacheEntry::Block(block)) = hit {
        for (&i, &(attempts, accepts)) in prep.relevant.iter().zip(&block.counters_after) {
            prep.samplers[i].attempts = attempts;
            prep.samplers[i].accepts = accepts;
        }
        rng.set_state(block.rng_end);
        return block;
    }
    let block = Arc::new(fill_block(prep, rng, cfg, cur, requested));
    if all_plain(prep) || publishes_every_fill() {
        cache()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, CacheEntry::Block(Arc::clone(&block)));
    }
    block
}

#[cfg(test)]
thread_local! {
    /// Unit tests only: publish every fill on this thread, also one that
    /// ended at a held switch — the fault the plain-kernels rule above
    /// keeps out, planted so a test can show that it would be seen.
    static PUBLISH_EVERY_FILL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
fn publishes_every_fill() -> bool {
    PUBLISH_EVERY_FILL.with(|p| p.get())
}

#[cfg(not(test))]
fn publishes_every_fill() -> bool {
    false
}

/// Fixed-budget acceptance probe through the cache — the memoized form
/// of [`GroupKernel::estimate_probability`].
pub(crate) fn probe_estimate_cached(
    kernel: &mut GroupKernel,
    rng: &mut PipRng,
    budget: u64,
    n_slots: usize,
    cfg: &SamplerConfig,
) -> Result<f64> {
    let mut slots = vec![0.0; n_slots];
    let mut regs = Vec::new();
    if !cfg.reuse_blocks {
        return kernel.estimate_probability(rng, budget, &mut slots, &mut regs);
    }
    let key = kernels_key(1, std::iter::once(&*kernel), cfg, rng, budget as usize);
    let hit = cache().lock().unwrap_or_else(|e| e.into_inner()).get(&key);
    if let Some(CacheEntry::Probe {
        counters_after,
        rng_end,
    }) = hit
    {
        kernel.attempts = counters_after[0].0;
        kernel.accepts = counters_after[0].1;
        rng.set_state(rng_end);
        return Ok(kernel.probability_estimate());
    }
    let p = kernel.estimate_probability(rng, budget, &mut slots, &mut regs)?;
    cache().lock().unwrap_or_else(|e| e.into_inner()).insert(
        key,
        CacheEntry::Probe {
            counters_after: vec![(kernel.attempts, kernel.accepts)],
            rng_end: rng.state(),
        },
    );
    Ok(p)
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

/// The averaging loop over cached columnar blocks — used when nothing
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
    let mut regs = Vec::new();
    let mut values = Vec::new();
    let mut stats = LoopStats::default();
    while stats.n < cfg.max_samples {
        let want = SERIAL_BLOCK.min(cfg.max_samples - stats.n);
        let block = fill_block_cached(prep, rng, cfg, &mut cur, want);
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
        if let Some(e) = &block.error {
            partial_or_fail(e.clone())?;
            break;
        }
    }
    Ok(stats)
}

/// The loop of [`crate::expectation_samples`]: exactly `n` conditional
/// samples of the target expression over cached columnar blocks. Any
/// error at sample `k` — the rejection cap included — is the result.
pub(crate) fn serial_samples(
    prep: &mut Prepared,
    expr: &Tape,
    n: usize,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
) -> Result<Vec<f64>> {
    let mut cur = Cursor::new(prep);
    let mut regs = Vec::new();
    let mut values = Vec::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Exactly the remaining count is requested, never more: the
        // RNG must end where a sample-at-a-time loop's would.
        let want = SERIAL_BLOCK.min(n - out.len());
        let block = fill_block_cached(prep, rng, cfg, &mut cur, want);
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
            out.push(value);
        }
        if let Some(e) = &block.error {
            return Err(e.clone());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectation::prepare;
    use pip_dist::prelude::builtin;
    use pip_dist::rng_from_seed;
    use pip_expr::{atoms, Conjunction, Equation, RandomVar, SlotMap};

    /// The prepared operator of `E[y | cond]`.
    fn prepared(y: &RandomVar, cond: &Conjunction, cfg: &SamplerConfig) -> Prepared {
        prepare(&Equation::from(y.clone()), cond, cfg).unwrap()
    }

    fn fill(
        prep: &mut Prepared,
        rng: &mut PipRng,
        cfg: &SamplerConfig,
        n: usize,
        reuse: bool,
    ) -> Arc<SampleBlock> {
        let cfg = cfg.clone().with_block_reuse(reuse);
        let mut cur = Cursor::new(prep);
        fill_block_cached(prep, rng, &cfg, &mut cur, n)
    }

    fn counters(prep: &Prepared) -> Vec<(u64, u64)> {
        prep.samplers
            .iter()
            .map(|k| (k.attempts, k.accepts))
            .collect()
    }

    #[test]
    fn cached_block_restores_counters_and_rng() {
        block_cache_clear();
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.2));
        let cfg = SamplerConfig::default();

        let mut p1 = prepared(&y, &cond, &cfg);
        let mut rng1 = rng_from_seed(77);
        let b1 = fill(&mut p1, &mut rng1, &cfg, 64, true);

        let mut p2 = prepared(&y, &cond, &cfg);
        let mut rng2 = rng_from_seed(77);
        let b2 = fill(&mut p2, &mut rng2, &cfg, 64, true);

        assert!(Arc::ptr_eq(&b1, &b2), "second fill must be a cache hit");
        assert_eq!(counters(&p1), counters(&p2));
        assert_eq!(rng1.state(), rng2.state());
        let stats = block_cache_stats();
        assert!(stats.hits >= 1 && stats.misses >= 1, "{stats:?}");
    }

    #[test]
    fn cache_off_is_bit_identical_to_cache_on() {
        block_cache_clear();
        let y = RandomVar::create(builtin::normal(), &[1.0, 2.0]).unwrap();
        let cond = Conjunction::single(atoms::lt(Equation::from(y.clone()), 2.5));
        let cfg = SamplerConfig::default();
        for reuse in [true, true, false] {
            let mut p = prepared(&y, &cond, &cfg);
            let mut rng = rng_from_seed(3);
            let b = fill(&mut p, &mut rng, &cfg, 32, reuse);
            let mut p2 = prepared(&y, &cond, &cfg);
            let mut rng2 = rng_from_seed(3);
            let b2 = fill(&mut p2, &mut rng2, &cfg, 32, false);
            assert_eq!(b.filled, b2.filled);
            assert_eq!(b.data, b2.data);
            assert_eq!(b.counters_after, b2.counters_after);
            assert_eq!(b.rng_end, b2.rng_end);
        }
    }

    #[test]
    fn probe_cache_round_trip() {
        block_cache_clear();
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 1.0));
        let cfg = SamplerConfig::naive(50);
        let probe = |reuse| {
            let group = pip_expr::independent_groups(&cond, &[]).pop().unwrap();
            let mut slots = SlotMap::new();
            let mut k =
                GroupKernel::for_group(group, &pip_ctable::BoundsMap::new(), &cfg, &mut slots);
            let mut rng = rng_from_seed(11);
            let cfg = cfg.clone().with_block_reuse(reuse);
            let p = probe_estimate_cached(&mut k, &mut rng, 2000, slots.len(), &cfg).unwrap();
            (p.to_bits(), rng.state(), k.attempts, k.accepts)
        };
        let cold = probe(true);
        assert_eq!(probe(true), cold, "warm probe");
        assert_eq!(probe(false), cold, "uncached probe");
    }

    #[test]
    fn different_counters_never_alias_in_the_cache() {
        block_cache_clear();
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.0));
        let cfg = SamplerConfig::default();
        // Warm the cache from zero-counter kernels...
        let mut p = prepared(&y, &cond, &cfg);
        let mut rng = rng_from_seed(5);
        fill(&mut p, &mut rng, &cfg, 16, true);
        // ...then fill from the advanced kernels at the same RNG state:
        // the starting counters differ, so this must be a miss, not a
        // stale hit.
        let before = block_cache_stats();
        let mut rng2 = rng_from_seed(5);
        fill(&mut p, &mut rng2, &cfg, 16, true);
        let after = block_cache_stats();
        assert_eq!(after.hits, before.hits, "stale hit on different counters");
        assert!(after.misses > before.misses);
    }

    #[test]
    fn chain_fills_are_one_sample_and_bypass_the_cache() {
        // P[Y > 4] ≈ 3.2e-5 without CDF bounds: the first fill reaches
        // the trigger on its first sample and switches.
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 4.0));
        let cfg = SamplerConfig {
            use_cdf_sampling: false,
            ..SamplerConfig::default()
        };
        let mut p = prepared(&y, &cond, &cfg);
        let mut rng = rng_from_seed(5);
        let published = |p: &Prepared, rng: &PipRng| {
            let key = kernels_key(0, p.samplers.iter(), &cfg, rng, 64);
            move || cache().lock().unwrap().map.contains_key(&key)
        };
        let first = published(&p, &rng);
        let block = fill(&mut p, &mut rng, &cfg, 64, true);
        assert!(p.samplers[0].uses_metropolis());
        assert_eq!(block.filled, 1, "chain samples are never overdrawn");
        assert!(!first(), "a fill that switched was published");
        // In Metropolis mode the kernel neither looks up nor publishes.
        let second = published(&p, &rng);
        assert_eq!(fill(&mut p, &mut rng, &cfg, 64, true).filled, 1);
        assert!(!second(), "a fill in Metropolis mode was published");
    }

    /// `tests/compiled_equivalence.rs` checks, in
    /// `escalating_expectation_is_cache_neutral`, that a warm rerun at
    /// site 669 equals the oracle. That check can only fail at a site
    /// where a served switching block changes the answer, and which sites
    /// do depends on the draw stream. Here the switching block is planted
    /// at the pinned site and the rerun must then differ; when the stream
    /// changes and it no longer does, the failure names the sites in
    /// 0..1000 that do, to pin instead.
    #[test]
    fn a_served_switching_block_would_show_at_the_pinned_site() {
        use crate::expectation::{expectation, ExpectationResult};
        const PINNED: u64 = 669;
        // The shape of that test: `E[x | x > 1.2816]` at rejection rate
        // ≈ 0.9 = the switch threshold, 1024 samples in 256-sample blocks.
        let x = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(x.clone()), 1.2816));
        let x = Equation::from(x);
        let fixed = |n| SamplerConfig {
            use_cdf_sampling: false,
            metropolis_threshold: 0.9,
            ..SamplerConfig::fixed_samples(n)
        };
        let oracle = |n, site| crate::oracle::expectation(&x, &cond, false, &fixed(n), site);
        let same = |a: &ExpectationResult, b: &ExpectationResult| {
            (a.expectation.to_bits(), a.n_samples, a.used_metropolis)
                == (b.expectation.to_bits(), b.n_samples, b.used_metropolis)
        };
        // Its preconditions: no switch in the first block, a switch by 1024.
        let qualifies = |site| {
            !oracle(256, site).unwrap().used_metropolis
                && oracle(1024, site).unwrap().used_metropolis
        };
        // Cold run, then warm rerun. Other tests clear the shared cache,
        // which can drop the planted block between the two and hide the
        // difference (never fake one), so a site gets a few tries.
        let shows = |site| {
            let truth = oracle(1024, site).unwrap();
            let run = || expectation(&x, &cond, false, &fixed(1024), site).unwrap();
            PUBLISH_EVERY_FILL.with(|p| p.set(true));
            let shown = (0..5).any(|_| {
                run();
                !same(&run(), &truth)
            });
            PUBLISH_EVERY_FILL.with(|p| p.set(false));
            shown
        };
        assert!(qualifies(PINNED), "site {PINNED} lost its preconditions");
        if !shows(PINNED) {
            let sites: Vec<u64> = (0..1000).filter(|&s| qualifies(s) && shows(s)).collect();
            panic!(
                "a served switching block no longer shows at site {PINNED}; it does at {sites:?}"
            );
        }
    }
}
