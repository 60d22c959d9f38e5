//! Columnar sample blocks, the sample-block cache, and the compiled
//! execution drivers built on [`crate::tape`].
//!
//! A [`SampleBlock`] is an `n_slots × n_samples` structure-of-arrays
//! matrix of accepted joint samples, filled **sample-major** (so the RNG
//! consumption order is exactly the interpreted loop's) but stored
//! **column-major** (so the tape evaluator streams each slot
//! contiguously). Filling stops early on a sampling error — mirroring
//! the interpreted averaging loop — and bails entirely when a kernel
//! hits the Metropolis escalation trigger, in which case the caller
//! reruns the interpreted [`crate::strategy::GroupSampler`] path.
//!
//! The **block cache** memoizes two deterministic draw sequences:
//!
//! * whole blocks, keyed by `(kernel signatures incl. counters, RNG
//!   state, requested length, sampling knobs)` — reused when the same
//!   `(group, seed-site)` is sampled again (repeated prepared
//!   statements, `expected_sum` + `expected_avg` over the same rows);
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

use pip_core::PipError;
use pip_dist::PipRng;
use pip_expr::{Equation, SlotMap};

use crate::config::SamplerConfig;
use crate::expectation::Prepared;
use crate::tape::{div_by_zero, GroupKernel, KernelStep, Tape};

/// Samples per block in the compiled serial averaging loop. A constant:
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
    /// Samples actually filled (`< requested` only on a sampling error).
    pub filled: usize,
    /// Column-major payload: slot `k`'s samples at
    /// `data[k * requested .. k * requested + filled]`.
    pub data: Vec<f64>,
    /// Sampler failure that stopped the fill (rejection cap, or an atom
    /// evaluation error — both non-fatal, exactly as in the interpreted
    /// averaging loop).
    pub sampling_error: Option<PipError>,
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

fn kernels_key(
    kind: u8,
    kernels: &[GroupKernel],
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

/// Fill one block: draw `requested` joint samples through the kernels in
/// order, sample-major (the interpreted draw order), storing accepted
/// values column-major. Returns `None` when a kernel hits the Metropolis
/// escalation trigger — the caller must rerun the interpreted path.
fn fill_block(
    kernels: &mut [GroupKernel],
    rng: &mut PipRng,
    cfg: &SamplerConfig,
    n_slots: usize,
    requested: usize,
) -> Option<SampleBlock> {
    let mut data = vec![0.0; n_slots * requested];
    let mut slots = vec![0.0; n_slots];
    let mut regs = Vec::new();
    let mut filled = 0usize;
    let mut sampling_error = None;
    'samples: for s in 0..requested {
        for k in kernels.iter_mut() {
            match k.sample_into_slots(rng, cfg, &mut slots, &mut regs) {
                Ok(KernelStep::Sampled) => {}
                Ok(KernelStep::Escalate) => return None,
                Err(e) => {
                    sampling_error = Some(e);
                    break 'samples;
                }
            }
        }
        for (col, &v) in data.chunks_exact_mut(requested).zip(slots.iter()) {
            col[s] = v;
        }
        filled += 1;
    }
    Some(SampleBlock {
        requested,
        filled,
        data,
        sampling_error,
        counters_after: kernels.iter().map(|k| (k.attempts, k.accepts)).collect(),
        rng_end: rng.state(),
    })
}

/// [`fill_block`] through the cache: a hit skips the draws entirely
/// (counters and RNG state are restored from the stored block), a miss
/// fills and publishes. Pure memoization — hit or miss, the caller
/// observes identical kernels, RNG state, and samples.
fn fill_block_cached(
    kernels: &mut [GroupKernel],
    rng: &mut PipRng,
    cfg: &SamplerConfig,
    n_slots: usize,
    requested: usize,
    reuse: bool,
) -> Option<Arc<SampleBlock>> {
    if !reuse {
        return fill_block(kernels, rng, cfg, n_slots, requested).map(Arc::new);
    }
    let key = kernels_key(0, kernels, cfg, rng, requested);
    let hit = cache().lock().unwrap_or_else(|e| e.into_inner()).get(&key);
    if let Some(CacheEntry::Block(block)) = hit {
        for (k, &(attempts, accepts)) in kernels.iter_mut().zip(&block.counters_after) {
            k.attempts = attempts;
            k.accepts = accepts;
        }
        rng.set_state(block.rng_end);
        return Some(block);
    }
    let block = Arc::new(fill_block(kernels, rng, cfg, n_slots, requested)?);
    cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, CacheEntry::Block(Arc::clone(&block)));
    Some(block)
}

/// Fixed-budget acceptance probe through the cache — the compiled,
/// memoized form of [`crate::strategy::GroupSampler::estimate_probability`].
pub(crate) fn probe_estimate_cached(
    kernel: &mut GroupKernel,
    rng: &mut PipRng,
    budget: u64,
    n_slots: usize,
    cfg: &SamplerConfig,
    reuse: bool,
) -> pip_core::Result<f64> {
    let mut slots = vec![0.0; n_slots];
    let mut regs = Vec::new();
    if !reuse {
        return kernel.estimate_probability(rng, budget, &mut slots, &mut regs);
    }
    let key = kernels_key(1, std::slice::from_ref(kernel), cfg, rng, budget as usize);
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
// The compiled query and its averaging-loop drivers.
// ---------------------------------------------------------------------

/// Everything [`crate::expectation::expectation`] needs to run
/// Algorithm 4.3's averaging loop compiled: the slot layout, the
/// target-expression tape, and one kernel per relevant group (in
/// `prep.relevant` order).
#[derive(Debug)]
pub(crate) struct CompiledQuery {
    pub(crate) slots: SlotMap,
    pub(crate) expr: Tape,
    /// Kernels for the relevant groups, aligned with `prep.relevant`.
    pub(crate) kernels: Vec<GroupKernel>,
}

impl CompiledQuery {
    /// Compile `expr` against a prepared operator. `None` when any
    /// relevant group or the expression itself is out of the compiler's
    /// reach — the caller stays on the interpreted path.
    pub(crate) fn compile(expr: &Equation, prep: &Prepared) -> Option<CompiledQuery> {
        let mut slots = SlotMap::new();
        for s in &prep.samplers {
            slots.intern_all(&s.group.vars);
        }
        let kernels = prep
            .relevant
            .iter()
            .map(|&i| GroupKernel::compile(&prep.samplers[i], &slots))
            .collect::<Option<Vec<_>>>()?;
        let expr = Tape::compile(expr, &slots)?;
        crate::obs::metrics().kernel_compiles_total.inc();
        Some(CompiledQuery {
            slots,
            expr,
            kernels,
        })
    }
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
    /// sample by every averaging loop (interpreted, per-sample,
    /// blocked): z·SE ≤ δ·|mean| once past the sample floor.
    #[inline]
    pub(crate) fn should_stop(&self, cfg: &SamplerConfig, target: f64) -> bool {
        self.n >= cfg.min_samples && target * self.std_error() <= cfg.delta * self.mean().abs()
    }
}

/// Compiled serial averaging loop, sample at a time — used when the
/// caller's RNG must end in exactly the interpreted state (a
/// Monte-Carlo probability pass follows). Returns `None` on escalation.
pub(crate) fn serial_per_sample(
    cq: &mut CompiledQuery,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
) -> pip_core::Result<Option<LoopStats>> {
    let target = cfg.z_target();
    let mut slots = vec![0.0; cq.slots.len()];
    let mut regs = Vec::new();
    let mut stats = LoopStats::default();
    'sampling: while stats.n < cfg.max_samples {
        for k in cq.kernels.iter_mut() {
            match k.sample_into_slots(rng, cfg, &mut slots, &mut regs) {
                Ok(KernelStep::Sampled) => {}
                Ok(KernelStep::Escalate) => return Ok(None),
                // Sampling failure: the partial estimate stands
                // (Algorithm 4.3 line 25), exactly as interpreted.
                Err(_) => break 'sampling,
            }
        }
        let value = cq.expr.eval(&slots, &mut regs)?;
        stats.push(value);
        if stats.should_stop(cfg, target) {
            break;
        }
    }
    Ok(Some(stats))
}

/// Compiled serial averaging loop over cached columnar blocks — used
/// when nothing after the loop reads the RNG (overdrawing a block past
/// the adaptive stopping point is then harmless). Returns `None` on
/// escalation.
pub(crate) fn serial_blocked(
    cq: &mut CompiledQuery,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
    reuse: bool,
) -> pip_core::Result<Option<LoopStats>> {
    let target = cfg.z_target();
    let n_slots = cq.slots.len();
    let mut regs = Vec::new();
    let mut values = Vec::new();
    let mut stats = LoopStats::default();
    'blocks: while stats.n < cfg.max_samples {
        let want = SERIAL_BLOCK.min(cfg.max_samples - stats.n);
        let Some(block) = fill_block_cached(&mut cq.kernels, rng, cfg, n_slots, want, reuse) else {
            return Ok(None);
        };
        let first_err = cq.expr.eval_block(
            &block.data,
            block.requested,
            block.filled,
            &mut regs,
            &mut values,
        );
        for (s, &value) in values.iter().enumerate().take(block.filled) {
            if first_err == Some(s) {
                // The interpreted loop would have hit this evaluation
                // error at exactly this sample: fatal.
                return Err(div_by_zero());
            }
            stats.push(value);
            if stats.should_stop(cfg, target) {
                break 'blocks;
            }
        }
        if block.sampling_error.is_some() || block.filled < want {
            break;
        }
    }
    Ok(Some(stats))
}

/// Compiled driver for [`crate::expectation_samples`]: exactly `n`
/// conditional samples of the target expression, drawn through the
/// kernels over cached columnar blocks. Mirrors the interpreted loop's
/// error discipline — a sampling failure or an evaluation error at
/// sample `k` surfaces as the same `Err` the interpreted loop raises at
/// `k` — and returns `None` on a Metropolis escalation (the caller
/// reruns interpreted from the untouched RNG).
pub(crate) fn serial_samples(
    cq: &mut CompiledQuery,
    n: usize,
    cfg: &SamplerConfig,
    rng: &mut PipRng,
    reuse: bool,
) -> pip_core::Result<Option<Vec<f64>>> {
    let n_slots = cq.slots.len();
    let mut regs = Vec::new();
    let mut values = Vec::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Exactly the remaining count is requested, never more: the
        // RNG must end where the interpreted loop's would.
        let want = SERIAL_BLOCK.min(n - out.len());
        let Some(block) = fill_block_cached(&mut cq.kernels, rng, cfg, n_slots, want, reuse) else {
            return Ok(None);
        };
        let first_err = cq.expr.eval_block(
            &block.data,
            block.requested,
            block.filled,
            &mut regs,
            &mut values,
        );
        for (s, &value) in values.iter().enumerate().take(block.filled) {
            if first_err == Some(s) {
                return Err(div_by_zero());
            }
            out.push(value);
        }
        if block.filled < want {
            // The fill only stops short on a sampling failure, which
            // the interpreted loop propagates at this exact sample.
            return Err(block
                .sampling_error
                .clone()
                .unwrap_or_else(|| pip_core::PipError::sampling("sample block underfilled")));
        }
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::GroupSampler;
    use pip_dist::prelude::builtin;
    use pip_dist::rng_from_seed;
    use pip_expr::{atoms, Conjunction, RandomVar};

    fn kernel_for(cond: &Conjunction, cfg: &SamplerConfig) -> (GroupKernel, SlotMap) {
        let bounds = pip_ctable::consistency_check(cond).bounds();
        let group = pip_expr::independent_groups(cond, &[])
            .into_iter()
            .next()
            .unwrap();
        let mut slots = SlotMap::new();
        slots.intern_all(&group.vars);
        let sampler = GroupSampler::new(group, &bounds, cfg);
        (GroupKernel::compile(&sampler, &slots).unwrap(), slots)
    }

    #[test]
    fn cached_block_restores_counters_and_rng() {
        block_cache_clear();
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.2));
        let cfg = SamplerConfig::default();
        let (kernel, slots) = kernel_for(&cond, &cfg);

        let mut k1 = kernel.clone();
        let mut rng1 = rng_from_seed(77);
        let b1 = fill_block_cached(
            std::slice::from_mut(&mut k1),
            &mut rng1,
            &cfg,
            slots.len(),
            64,
            true,
        )
        .unwrap();

        let mut k2 = kernel.clone();
        let mut rng2 = rng_from_seed(77);
        let b2 = fill_block_cached(
            std::slice::from_mut(&mut k2),
            &mut rng2,
            &cfg,
            slots.len(),
            64,
            true,
        )
        .unwrap();

        assert!(Arc::ptr_eq(&b1, &b2), "second fill must be a cache hit");
        assert_eq!((k1.attempts, k1.accepts), (k2.attempts, k2.accepts));
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
        let (kernel, slots) = kernel_for(&cond, &cfg);
        for reuse in [true, true, false] {
            let mut k = kernel.clone();
            let mut rng = rng_from_seed(3);
            let b = fill_block_cached(
                std::slice::from_mut(&mut k),
                &mut rng,
                &cfg,
                slots.len(),
                32,
                reuse,
            )
            .unwrap();
            let mut k2 = kernel.clone();
            let mut rng2 = rng_from_seed(3);
            let b2 = fill_block_cached(
                std::slice::from_mut(&mut k2),
                &mut rng2,
                &cfg,
                slots.len(),
                32,
                false,
            )
            .unwrap();
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
        let (kernel, slots) = kernel_for(&cond, &cfg);

        let mut k1 = kernel.clone();
        let mut rng1 = rng_from_seed(11);
        let p1 = probe_estimate_cached(&mut k1, &mut rng1, 2000, slots.len(), &cfg, true).unwrap();
        let mut k2 = kernel.clone();
        let mut rng2 = rng_from_seed(11);
        let p2 = probe_estimate_cached(&mut k2, &mut rng2, 2000, slots.len(), &cfg, true).unwrap();
        let mut k3 = kernel.clone();
        let mut rng3 = rng_from_seed(11);
        let p3 = probe_estimate_cached(&mut k3, &mut rng3, 2000, slots.len(), &cfg, false).unwrap();
        assert_eq!(p1.to_bits(), p2.to_bits());
        assert_eq!(p1.to_bits(), p3.to_bits());
        assert_eq!(rng1.state(), rng2.state());
        assert_eq!(rng1.state(), rng3.state());
        assert_eq!((k1.attempts, k1.accepts), (k3.attempts, k3.accepts));
    }

    #[test]
    fn different_counters_never_alias_in_the_cache() {
        block_cache_clear();
        let y = RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap();
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.0));
        let cfg = SamplerConfig::default();
        let (kernel, slots) = kernel_for(&cond, &cfg);
        // Warm the cache from a zero-counter kernel...
        let mut k1 = kernel.clone();
        let mut rng = rng_from_seed(5);
        fill_block_cached(
            std::slice::from_mut(&mut k1),
            &mut rng,
            &cfg,
            slots.len(),
            16,
            true,
        )
        .unwrap();
        // ...then fill from the advanced kernel at the same RNG state:
        // the starting counters differ, so this must be a miss, not a
        // stale hit.
        let before = block_cache_stats();
        let mut rng2 = rng_from_seed(5);
        fill_block_cached(
            std::slice::from_mut(&mut k1),
            &mut rng2,
            &cfg,
            slots.len(),
            16,
            true,
        )
        .unwrap();
        let after = block_cache_stats();
        assert_eq!(after.hits, before.hits, "stale hit on different counters");
        assert!(after.misses > before.misses);
    }
}
