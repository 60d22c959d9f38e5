//! The four workloads: generated SQL, the closed-form answer of every
//! request, and the frozen sizes, offered rates and latency limits.
//!
//! Everything here is a pure function of `(workload, seed, sizes)`; the
//! server only ever sees the generated SQL.

use crate::oracle::{
    any_of, bivariate_partial_expectation, normal_partial_expectation, normal_tail,
    poisson_mean_times_tail,
};

pub const WORKLOADS: [&str; 4] = ["sampling_heavy", "symbolic_join", "mixed_rw", "ingest"];

/// Sizes, offered rates and latency limits, frozen at the seed commit on
/// the 2-core reference box (see README "Sizing evidence"). They are never
/// calibrated per run: a calibrated rate would offer two commits
/// different loads.
pub struct Frozen {
    /// Closed-loop list length per second of `--seconds`.
    pub closed_per_second: f64,
    /// Connections of the closed loop. One for the reads: with both vCPUs
    /// busy their rate depends on where the host happens to place them, and
    /// flips between runs. Two for `ingest`, whose inserts serialise on the
    /// write lock anyway: a second request waiting keeps the server's
    /// threads awake, and what a sleeping thread's wake-up costs on this
    /// box (0.2-0.6 ms of a 1 ms insert) differs from run to run.
    pub closed_connections: usize,
    /// `closed_qps` is the connections ÷ the mean latency of the list with
    /// its slowest quarter left out (Little's law on the requests the host
    /// and the checkpointer let through), not the rate of a quiet window.
    /// For `ingest`: an insert costs twice as much at the end of the list
    /// as at its start, since the table has grown, so the quiet windows
    /// would always be the first ones, and those repeat worst; and a stolen
    /// vCPU delays a few inserts by many times their cost, which a rate
    /// over the whole list takes at full weight.
    pub closed_trimmed: bool,
    /// Open-loop offered rate, requests per second over all connections.
    pub open_rate: f64,
    /// Latency limit of `slo_ok_frac`: 3 x the seed commit's `lat_p50_ms`, rounded.
    pub slo_ms: f64,
    /// Connections the open loop alternates its requests over.
    pub connections: usize,
    /// Extra `pip-serverd` arguments.
    pub server_args: &'static [&'static str],
}

/// Share of `--seconds` the open-loop phase lasts.
pub const OPEN_SHARE: f64 = 0.55;
/// `mixed_rw`: background single-row inserts per second, in both phases.
pub const WRITER_RATE: f64 = 20.0;

pub fn frozen(name: &str) -> &'static Frozen {
    match name {
        "sampling_heavy" => &Frozen {
            closed_per_second: 18.0,
            closed_connections: 1,
            closed_trimmed: false,
            open_rate: 36.0,
            slo_ms: 54.0,
            connections: 2,
            server_args: &[],
        },
        "symbolic_join" => &Frozen {
            closed_per_second: 10.0,
            closed_connections: 1,
            closed_trimmed: false,
            open_rate: 16.0,
            slo_ms: 90.0,
            // One at a time: two concurrent joins cost three times the CPU of
            // two sequential ones (README, sizing evidence) and do so
            // chaotically, 17-25 q/s between runs of one binary.
            connections: 1,
            server_args: &[],
        },
        "mixed_rw" => &Frozen {
            closed_per_second: 38.0,
            closed_connections: 1,
            closed_trimmed: false,
            open_rate: 56.0,
            slo_ms: 23.0,
            connections: 1,
            server_args: &[],
        },
        "ingest" => &Frozen {
            closed_per_second: 125.0,
            closed_connections: 2,
            closed_trimmed: true,
            open_rate: 100.0,
            slo_ms: 6.0,
            connections: 2,
            // Small enough that the background checkpointer completes
            // several cycles while the run inserts a few thousand rows.
            server_args: &["--checkpoint-bytes", "65536"],
        },
        other => panic!("unknown workload {other}"),
    }
}

/// List lengths of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub check: usize,
    pub closed: usize,
    pub open: usize,
    /// `ingest`: region queries verified on the recovered catalog.
    pub verify: usize,
}

impl Sizes {
    /// Lengths for `--seconds`; a traced run spends part of its time
    /// in-process, so its wire lists are shorter.
    pub fn of(name: &str, seconds: f64, traced: bool) -> Sizes {
        let f = frozen(name);
        let (closed_scale, open_scale) = if traced { (0.25, 0.5) } else { (1.0, 1.0) };
        let open = f.open_rate * OPEN_SHARE * seconds * open_scale;
        Sizes {
            check: 16,
            closed: ((f.closed_per_second * seconds * closed_scale) as usize)
                .max(2 * crate::stats::WINDOWS),
            open: (open as usize).max(2 * crate::stats::WINDOWS),
            verify: if name == "ingest" {
                (3.0 * seconds) as usize
            } else {
                0
            },
        }
    }
}

/// SplitMix64: the generator of every workload's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)` on a grid of `1 / per_unit`, so that the
    /// decimal text sent to the server parses back to exactly this value.
    pub fn grid(&mut self, lo: f64, hi: f64, per_unit: u64) -> f64 {
        let steps = ((hi - lo) * per_unit as f64) as u64;
        lo + self.below(steps.max(1)) as f64 / per_unit as f64
    }
}

/// What a reply must carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// One row per group label, `(label, expected_sum, conf)`, and the
    /// relative tolerance on the sums.
    Groups(Vec<(String, f64, f64)>, f64),
    /// A single number.
    Scalar(f64),
    /// A single row `expected_sum, conf`.
    SumConf(f64, f64),
    /// An acknowledged mutation.
    Ack,
}

/// One request: `SET SEED <seed>` plus one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub seed: u64,
    pub sql: String,
    pub expect: Expect,
}

/// One set-up step.
#[derive(Debug, Clone, PartialEq)]
pub enum Setup {
    Sql(String),
    Checkpoint,
}

/// Everything one run of one workload sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub setup: Vec<Setup>,
    /// Untimed fixed requests checked against closed form after set-up.
    pub check: Vec<Request>,
    pub closed: Vec<Request>,
    pub open: Vec<Request>,
    /// `mixed_rw`: the background writer's inserts, in order.
    pub writer: Vec<Request>,
    /// `ingest`: keys the set-up loaded, and region queries to verify after recovery.
    pub preloaded_keys: u64,
    pub verify: Vec<Request>,
}

/// Hands out request seeds that never repeat within a run.
struct Seeds(u64);

impl Seeds {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// The tables hold the same rows on every run: `--seed` draws the request
/// lists (constants, order, sampler seeds), not the data, so that two runs
/// differ in what they ask and not in how much work an answer is.
const DATA_SEED: u64 = 0x5049_5045_3245;

pub fn generate(name: &str, seed: u64, sizes: Sizes) -> Workload {
    let mut data = Rng::new(DATA_SEED);
    let mut rng = Rng::new(seed ^ 0x7265_7175_6573_7473);
    // Seeds start at a per-run base so two runs do not share them either.
    let mut seeds = Seeds(rng.below(1 << 40));
    match name {
        "sampling_heavy" => sampling_heavy(&mut data, &mut rng, &mut seeds, sizes),
        "symbolic_join" => symbolic_join(&mut data, &mut rng, &mut seeds, sizes),
        "mixed_rw" => mixed_rw(&mut data, &mut rng, &mut seeds, sizes),
        "ingest" => ingest(&mut data, &mut rng, &mut seeds, sizes),
        other => panic!("unknown workload {other}"),
    }
}

fn lists(
    sizes: Sizes,
    mut make: impl FnMut() -> Request,
) -> (Vec<Request>, Vec<Request>, Vec<Request>) {
    let mut list = |n: usize| (0..n).map(|_| make()).collect::<Vec<_>>();
    (list(sizes.check), list(sizes.closed), list(sizes.open))
}

// ---------------------------------------------------------------- sampling_heavy

/// Rows of `t`; the first `S2_ROWS` (`k < S2_ROWS`) also serve the
/// two-variable template, which costs about twice as much per row: six of
/// its rows cost what eight rows of the one-variable template do.
const SH_ROWS: usize = 8;
const SH_GROUPS: usize = 4;
const S2_ROWS: usize = 6;
/// Constants of `x > c`: tails of 20-60 % per row.
const S1_BAND: (f64, f64) = (10.0, 12.5);
/// Constants of `x + y > c`: acceptance of 35-65 % per row, narrow enough
/// that the two templates keep one latency mode.
const S2_BAND: (f64, f64) = (19.5, 21.5);

struct ShRow {
    mu_x: f64,
    s_x: f64,
    mu_y: f64,
    s_y: f64,
}

/// The table `t(g, k, x, y)`: its rows and the statements loading them.
fn sh_table(rng: &mut Rng) -> (Vec<ShRow>, Vec<Setup>) {
    let rows: Vec<ShRow> = (0..SH_ROWS)
        .map(|_| ShRow {
            mu_x: rng.grid(10.0, 11.0, 1000),
            s_x: rng.grid(1.8, 2.2, 1000),
            mu_y: rng.grid(10.0, 11.0, 1000),
            s_y: rng.grid(1.8, 2.2, 1000),
        })
        .collect();
    let values: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                "('g{}', {i}, create_variable('Normal', {:?}, {:?}), create_variable('Normal', {:?}, {:?}))",
                i % SH_GROUPS,
                r.mu_x,
                r.s_x,
                r.mu_y,
                r.s_y
            )
        })
        .collect();
    let setup = vec![
        Setup::Sql("CREATE TABLE t (g TEXT, k INT, x SYMBOLIC, y SYMBOLIC)".into()),
        Setup::Sql(format!("INSERT INTO t VALUES {}", values.join(", "))),
        Setup::Checkpoint,
    ];
    (rows, setup)
}

/// The deferred-sampling case (paper Fig. 7): a tiny table, two templates
/// in equal shares, both with closed forms.
fn sampling_heavy(data: &mut Rng, rng: &mut Rng, seeds: &mut Seeds, sizes: Sizes) -> Workload {
    let (rows, setup) = sh_table(data);
    let (check, closed, open) = lists(sizes, || {
        // Drawn, not alternated: requests alternate over two connections,
        // and alternating templates would give each connection one of them.
        if rng.below(2) == 0 {
            sh_single(
                &rows,
                rng.grid(S1_BAND.0, S1_BAND.1, 1_000_000),
                seeds.next(),
            )
        } else {
            sh_pair(
                &rows,
                rng.grid(S2_BAND.0, S2_BAND.1, 1_000_000),
                seeds.next(),
            )
        }
    });
    Workload {
        name: "sampling_heavy",
        setup,
        check,
        closed,
        open,
        writer: vec![],
        preloaded_keys: 0,
        verify: vec![],
    }
}

fn sh_groups(
    rows: &[ShRow],
    n_rows: usize,
    term: impl Fn(&ShRow) -> (f64, f64),
) -> Vec<(String, f64, f64)> {
    (0..SH_GROUPS)
        .map(|g| {
            let members: Vec<(f64, f64)> = rows[..n_rows]
                .iter()
                .enumerate()
                .filter(|(i, _)| i % SH_GROUPS == g)
                .map(|(_, r)| term(r))
                .collect();
            (
                format!("'g{g}'"),
                members.iter().map(|m| m.0).sum(),
                any_of(members.iter().map(|m| m.1)),
            )
        })
        .collect()
}

/// Template `s1`: one variable per condition, so CDF-bounded inversion.
fn sh_single(rows: &[ShRow], c: f64, seed: u64) -> Request {
    Request {
        seed,
        sql: format!("SELECT g, expected_sum(x), conf() FROM t WHERE x > {c:?} GROUP BY g"),
        expect: Expect::Groups(
            sh_groups(rows, SH_ROWS, |r| {
                (
                    normal_partial_expectation(r.mu_x, r.s_x, c),
                    normal_tail(r.mu_x, r.s_x, c),
                )
            }),
            SUM_TOLERANCE,
        ),
    }
}

/// Template `s2`: a two-variable group, so rejection sampling.
fn sh_pair(rows: &[ShRow], c: f64, seed: u64) -> Request {
    Request {
        seed,
        sql: format!(
            "SELECT g, expected_sum(x), conf() FROM t WHERE k < {S2_ROWS} AND x + y > {c:?} GROUP BY g"
        ),
        expect: Expect::Groups(
            sh_groups(rows, S2_ROWS, |r| {
                (
                    bivariate_partial_expectation(r.mu_x, r.s_x, r.mu_y, r.s_y, c),
                    normal_tail(
                        r.mu_x + r.mu_y,
                        (r.s_x * r.s_x + r.s_y * r.s_y).sqrt(),
                        c,
                    ),
                )
            }),
            REJECTION_SUM_TOLERANCE,
        ),
    }
}

/// The fixed probes of the traced run: `(label, requests)` for `s1`, `s2`
/// and the rare-event form, which is too heavy-tailed to time end to end.
pub fn sampling_probes() -> (Vec<Setup>, Vec<(&'static str, Vec<Request>)>) {
    let (rows, setup) = sh_table(&mut Rng::new(DATA_SEED));
    let step = |band: (f64, f64), i: u64| band.0 + (band.1 - band.0) * i as f64 / 12.0;
    let s1 = (0..12)
        .map(|i| sh_single(&rows, step(S1_BAND, i), 100 + i))
        .collect();
    let s2 = (0..12)
        .map(|i| sh_pair(&rows, step(S2_BAND, i), 200 + i))
        .collect();
    let rare = (0..2).map(|i| sh_pair(&rows, 30.0, 300 + i)).collect();
    (setup, vec![("s1", s1), ("s2", s2), ("rare", rare)])
}

// ---------------------------------------------------------------- symbolic_join

pub const JOIN_CUSTOMERS: usize = 500;
pub const JOIN_DELIVERIES: usize = 125;
const PAD_COLS: usize = 6;
/// `P[duration > thr]` of every delivery row, as in `pip_workloads::plans::join_db`.
const JOIN_SELECTIVITY_Z: f64 = 0.841_621_233_572_914_3; // inverse Normal CDF of 0.8

/// The paper's Fig. 6 selective join over SQL: the query phase dominates.
fn symbolic_join(data: &mut Rng, rng: &mut Rng, seeds: &mut Seeds, sizes: Sizes) -> Workload {
    let pads: String = (0..PAD_COLS).map(|i| format!(", pad{i} FLOAT")).collect();
    // (spend, expected contribution per unit of spend-filter pass)
    let mut deliveries = Vec::with_capacity(JOIN_DELIVERIES);
    let mut deli_values = Vec::with_capacity(JOIN_DELIVERIES);
    for i in 0..JOIN_DELIVERIES {
        let mu = data.grid(5.0, 20.0, 1000);
        let sd = data.grid(1.0, 4.0, 1000);
        let thr = mu + JOIN_SELECTIVITY_Z * sd;
        deliveries.push((mu, sd, thr));
        let pad: String = (0..PAD_COLS)
            .map(|p| format!(", {}.0", i * 3 + p))
            .collect();
        deli_values.push(format!(
            "({i}, create_variable('Normal', {mu:?}, {sd:?}), {thr:?}{pad})"
        ));
    }
    let mut customers = Vec::with_capacity(JOIN_CUSTOMERS);
    let mut cust_values = Vec::with_capacity(JOIN_CUSTOMERS);
    for i in 0..JOIN_CUSTOMERS {
        let spend = data.grid(20.0, 500.0, 100);
        let rate = data.grid(0.5, 6.0, 1000);
        let supp = i % JOIN_DELIVERIES;
        let (mu, sd, thr) = deliveries[supp];
        customers.push((spend, spend * poisson_mean_times_tail(rate, mu, sd, thr)));
        let pad: String = (0..PAD_COLS)
            .map(|p| format!(", {}.0", i * 7 + p))
            .collect();
        cust_values.push(format!(
            "({i}, {spend:?}, create_variable('Poisson', {rate:?}), {supp}{pad})"
        ));
    }
    let setup = vec![
        Setup::Sql(format!(
            "CREATE TABLE customers (cust INT, spend FLOAT, incr SYMBOLIC, supp INT{pads})"
        )),
        Setup::Sql(format!(
            "CREATE TABLE deliveries (supp_id INT, duration SYMBOLIC, thr FLOAT{pads})"
        )),
        Setup::Sql(format!(
            "INSERT INTO customers VALUES {}",
            cust_values.join(", ")
        )),
        Setup::Sql(format!(
            "INSERT INTO deliveries VALUES {}",
            deli_values.join(", ")
        )),
        Setup::Sql("ANALYZE".into()),
        Setup::Checkpoint,
    ];
    let (check, closed, open) = lists(sizes, || {
        // spend is uniform on [20, 500): s in [20, 140) keeps 100 % down to 75 %.
        let s = rng.grid(20.0, 140.0, 10_000);
        Request {
            seed: seeds.next(),
            sql: format!(
                "SELECT expected_sum(spend * incr) FROM customers, deliveries \
                 WHERE supp = supp_id AND duration > thr AND spend > {s:?}"
            ),
            expect: Expect::Scalar(
                customers
                    .iter()
                    .filter(|(spend, _)| *spend > s)
                    .map(|(_, lost)| lost)
                    .sum(),
            ),
        }
    });
    Workload {
        name: "symbolic_join",
        setup,
        check,
        closed,
        open,
        writer: vec![],
        preloaded_keys: 0,
        verify: vec![],
    }
}

// ---------------------------------------------------------------- acct: mixed_rw, ingest

const ACCT_SIGMA: f64 = 5.0;
const ACCT_THRESHOLD: f64 = 60.0;
const LOAD_BATCH: usize = 1000;

/// The `acct` table as the harness models it: the Normal means of the rows
/// of each region.
struct Acct {
    regions: Vec<Vec<f64>>,
    next_key: u64,
}

impl Acct {
    /// Set-up statements loading `rows` rows over `regions` regions, plus the model.
    fn load(rng: &mut Rng, rows: usize, regions: usize) -> (Vec<Setup>, Acct) {
        let mut acct = Acct {
            regions: vec![Vec::new(); regions],
            next_key: 0,
        };
        let mut setup = vec![Setup::Sql(
            "CREATE TABLE acct (k INT, region INT, v SYMBOLIC)".into(),
        )];
        let mut batch = Vec::with_capacity(LOAD_BATCH);
        for i in 0..rows {
            let mu = 50.0 + rng.below(20) as f64;
            batch.push(acct.insert_values(i % regions, mu));
            if batch.len() == LOAD_BATCH || i + 1 == rows {
                setup.push(Setup::Sql(format!(
                    "INSERT INTO acct VALUES {}",
                    batch.join(", ")
                )));
                batch.clear();
            }
        }
        setup.push(Setup::Sql(
            "CREATE INDEX acct_region ON acct (region)".into(),
        ));
        setup.push(Setup::Sql("ANALYZE".into()));
        setup.push(Setup::Checkpoint);
        (setup, acct)
    }

    /// Record one more row and return its `VALUES` tuple.
    fn insert_values(&mut self, region: usize, mu: f64) -> String {
        let k = self.next_key;
        self.next_key += 1;
        if region < self.regions.len() {
            self.regions[region].push(mu);
        }
        format!("({k}, {region}, create_variable('Normal', {mu:?}, {ACCT_SIGMA:?}))")
    }

    fn insert(&mut self, region: usize, mu: f64, seed: u64) -> Request {
        Request {
            seed,
            sql: format!("INSERT INTO acct VALUES {}", self.insert_values(region, mu)),
            expect: Expect::Ack,
        }
    }

    /// The region read: an index range scan plus a sample over its few rows.
    fn read(&self, region: usize, seed: u64) -> Request {
        let mus = &self.regions[region];
        Request {
            seed,
            sql: format!(
                "SELECT expected_sum(v), conf() FROM acct WHERE region = {region} AND v > {ACCT_THRESHOLD:?}"
            ),
            expect: Expect::SumConf(
                mus.iter()
                    .map(|mu| normal_partial_expectation(*mu, ACCT_SIGMA, ACCT_THRESHOLD))
                    .sum(),
                any_of(
                    mus.iter()
                        .map(|mu| normal_tail(*mu, ACCT_SIGMA, ACCT_THRESHOLD)),
                ),
            ),
        }
    }
}

const MIXED_ROWS: usize = 20_000;
const MIXED_REGIONS: usize = 5_000;
/// The writer's rows land in regions of their own, so every read has one
/// closed form whichever inserts have landed; what the reads feel is the
/// version bump, the table clone under the write lock, the index
/// maintenance and the WAL.
const MIXED_WRITE_REGIONS: usize = 1_000;

/// Reads beside writes on one growing table.
fn mixed_rw(data: &mut Rng, rng: &mut Rng, seeds: &mut Seeds, sizes: Sizes) -> Workload {
    let (setup, mut acct) = Acct::load(data, MIXED_ROWS, MIXED_REGIONS);
    let (check, closed, open) = lists(sizes, || {
        acct.read(rng.below(MIXED_REGIONS as u64) as usize, seeds.next())
    });
    // The writer stops when the reader does; at a third of the reader's
    // rate or less it can never need more inserts than there are reads.
    let n_writes = sizes.closed + sizes.open;
    let writer = (0..n_writes)
        .map(|j| {
            acct.insert(
                MIXED_REGIONS + j % MIXED_WRITE_REGIONS,
                50.0 + rng.below(20) as f64,
                seeds.next(),
            )
        })
        .collect();
    Workload {
        name: "mixed_rw",
        setup,
        check,
        closed,
        open,
        writer,
        preloaded_keys: 0,
        verify: vec![],
    }
}

const INGEST_ROWS: usize = 4_000;
const INGEST_REGIONS: usize = 1_000;

/// The same layers used the other way round: the timed operation is the write.
fn ingest(data: &mut Rng, rng: &mut Rng, seeds: &mut Seeds, sizes: Sizes) -> Workload {
    let (setup, mut acct) = Acct::load(data, INGEST_ROWS, INGEST_REGIONS);
    let check = (0..sizes.check)
        .map(|_| acct.read(rng.below(INGEST_REGIONS as u64) as usize, seeds.next()))
        .collect();
    let mut inserts = |n: usize| -> Vec<Request> {
        (0..n)
            .map(|_| {
                acct.insert(
                    rng.below(INGEST_REGIONS as u64) as usize,
                    50.0 + rng.below(20) as f64,
                    seeds.next(),
                )
            })
            .collect()
    };
    let closed = inserts(sizes.closed);
    let open = inserts(sizes.open);
    // Verified on the recovered catalog, so against every insert above.
    let verify = (0..sizes.verify)
        .map(|_| acct.read(rng.below(INGEST_REGIONS as u64) as usize, seeds.next()))
        .collect();
    Workload {
        name: "ingest",
        setup,
        check,
        closed,
        open,
        writer: vec![],
        preloaded_keys: INGEST_ROWS as u64,
        verify,
    }
}

/// The key an `acct` insert request carries (its first `VALUES` field).
pub fn insert_key(request: &Request) -> u64 {
    request
        .sql
        .split_once('(')
        .and_then(|(_, rest)| rest.split_once(','))
        .and_then(|(k, _)| k.parse().ok())
        .expect("an acct insert starts with its key")
}

// ---------------------------------------------------------------- checking replies

/// Relative tolerance on an expected sum whose row probabilities are exact
/// (one variable per condition): the sampler stops at a 1 % relative
/// half-width (delta 0.01), so 5 % is far outside its noise and far inside
/// any wrong answer.
pub const SUM_TOLERANCE: f64 = 0.05;
/// Relative tolerance on an expected sum under a two-variable condition.
/// There the row probability is itself an acceptance frequency over about
/// a thousand draws, standard error 3-4 % at the acceptances used (up to
/// 12 % off on a rare event), so one answer is held to 20 % and the list
/// as a whole to its RMS (`est_rel_err`).
pub const REJECTION_SUM_TOLERANCE: f64 = 0.20;
/// Absolute tolerance on a confidence: a group's `conf()` is a 10,000-draw
/// frequency, standard error at most 0.005.
pub const CONF_TOLERANCE: f64 = 0.03;

fn sum_within(got: f64, want: f64, tolerance: f64) -> bool {
    (got - want).abs() <= tolerance * want.abs() + 1e-9
}

fn sum_ok(got: f64, want: f64) -> bool {
    sum_within(got, want, SUM_TOLERANCE)
}

fn conf_ok(got: f64, want: f64) -> bool {
    (got - want).abs() <= CONF_TOLERANCE
}

fn numbers(row: &str, skip: usize) -> Option<Vec<f64>> {
    row.split('\t').skip(skip).map(|c| c.parse().ok()).collect()
}

/// Compare a reply with what the request expects. `Ok` carries the
/// relative errors of the expected sums (for `est_rel_err`); `Err`
/// describes the mismatch.
pub fn check_reply(request: &Request, reply: &crate::wire::Reply) -> Result<Vec<f64>, String> {
    use crate::wire::Reply;
    let rows = match reply {
        Reply::Table { rows, .. } => rows,
        other => return Err(format!("expected a result set, got {other:?}")),
    };
    let rel = |got: f64, want: f64| (got - want).abs() / want.abs();
    let bad = |what: &str| {
        Err(format!(
            "{what}: rows {rows:?}, expected {:?}",
            request.expect
        ))
    };
    match &request.expect {
        Expect::Ack => {
            if rows.is_empty() {
                Ok(vec![])
            } else {
                bad("mutation returned rows")
            }
        }
        Expect::Scalar(want) => match rows.as_slice() {
            [row] => match numbers(row, 0).as_deref() {
                Some([got]) if sum_ok(*got, *want) => Ok(vec![rel(*got, *want)]),
                _ => bad("wrong scalar"),
            },
            _ => bad("expected one row"),
        },
        Expect::SumConf(sum, conf) => match rows.as_slice() {
            [row] => match numbers(row, 0).as_deref() {
                Some([s, c]) if sum_ok(*s, *sum) && conf_ok(*c, *conf) => Ok(vec![rel(*s, *sum)]),
                _ => bad("wrong sum/conf"),
            },
            _ => bad("expected one row"),
        },
        Expect::Groups(groups, tolerance) => {
            if rows.len() != groups.len() {
                return bad("wrong group count");
            }
            let mut errors = Vec::with_capacity(groups.len());
            for (label, sum, conf) in groups {
                let Some(row) = rows
                    .iter()
                    .find(|r| r.split('\t').next() == Some(label.as_str()))
                else {
                    return bad("missing group");
                };
                match numbers(row, 1).as_deref() {
                    Some([s, c]) if sum_within(*s, *sum, *tolerance) && conf_ok(*c, *conf) => {
                        errors.push(rel(*s, *sum))
                    }
                    _ => return bad("wrong group sum/conf"),
                }
            }
            Ok(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Reply;

    #[test]
    fn equal_seeds_give_byte_identical_request_lists() {
        for name in WORKLOADS {
            let sizes = Sizes::of(name, 2.0, false);
            let a = generate(name, 42, sizes);
            let b = generate(name, 42, sizes);
            assert_eq!(a, b, "{name}");
            let wire = |w: &Workload| -> String {
                w.check
                    .iter()
                    .chain(&w.closed)
                    .chain(&w.open)
                    .chain(&w.writer)
                    .chain(&w.verify)
                    .map(|r| crate::wire::seeded_request(r.seed, &r.sql))
                    .collect()
            };
            assert_eq!(wire(&a).as_bytes(), wire(&b).as_bytes(), "{name}");
            let c = generate(name, 43, sizes);
            assert_ne!(wire(&a), wire(&c), "{name}: the seed must matter");
        }
    }

    #[test]
    fn no_two_requests_of_a_run_can_share_a_cache_entry() {
        for name in WORKLOADS {
            let w = generate(name, 7, Sizes::of(name, 2.0, false));
            let mut seeds: Vec<u64> = w
                .check
                .iter()
                .chain(&w.closed)
                .chain(&w.open)
                .chain(&w.writer)
                .chain(&w.verify)
                .map(|r| r.seed)
                .collect();
            let n = seeds.len();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), n, "{name}: request seeds repeat");
        }
    }

    #[test]
    fn sizes_scale_with_seconds_and_shrink_when_traced() {
        let full = Sizes::of("sampling_heavy", 20.0, false);
        let half = Sizes::of("sampling_heavy", 10.0, false);
        assert_eq!(full.closed, 2 * half.closed);
        assert_eq!(full.open, 2 * half.open);
        let traced = Sizes::of("sampling_heavy", 20.0, true);
        assert!(traced.closed < full.closed && traced.open < full.open);
        assert_eq!(Sizes::of("ingest", 20.0, false).verify, 60);
        assert_eq!(full.verify, 0);
    }

    #[test]
    fn ingest_keys_continue_after_the_preload() {
        let w = generate("ingest", 1, Sizes::of("ingest", 1.0, false));
        assert_eq!(insert_key(&w.closed[0]), w.preloaded_keys);
        assert_eq!(
            insert_key(w.open.last().unwrap()),
            w.preloaded_keys + (w.closed.len() + w.open.len()) as u64 - 1
        );
    }

    fn table(rows: &[&str]) -> Reply {
        Reply::Table {
            cached: false,
            header: String::new(),
            rows: rows.iter().map(|r| r.to_string()).collect(),
        }
    }

    #[test]
    fn replies_are_checked_against_the_closed_form() {
        let req = |expect| Request {
            seed: 1,
            sql: String::new(),
            expect,
        };
        let groups = req(Expect::Groups(
            vec![("'g0'".into(), 10.0, 0.5), ("'g1'".into(), 20.0, 0.25)],
            SUM_TOLERANCE,
        ));
        // Any row order; errors are relative.
        let errs = check_reply(&groups, &table(&["'g1'\t20.2\t0.26", "'g0'\t10\t0.5"])).unwrap();
        assert_eq!(errs.len(), 2);
        assert!((errs[1] - 0.01).abs() < 1e-12, "{errs:?}");
        assert!(check_reply(&groups, &table(&["'g0'\t10\t0.5"])).is_err());
        assert!(check_reply(&groups, &table(&["'g1'\t20\t0.25", "'g0'\t11\t0.5"])).is_err());
        assert!(check_reply(&groups, &table(&["'g1'\t20\t0.3", "'g0'\t10\t0.5"])).is_err());
        assert!(check_reply(&groups, &Reply::Err("busy".into())).is_err());

        let scalar = req(Expect::Scalar(100.0));
        assert!(check_reply(&scalar, &table(&["104.9"])).is_ok());
        assert!(check_reply(&scalar, &table(&["105.1"])).is_err());
        assert!(check_reply(&scalar, &table(&["NaN"])).is_err());

        let ack = req(Expect::Ack);
        assert!(check_reply(&ack, &table(&[])).is_ok());
        assert!(check_reply(&ack, &Reply::Ok("seed=1".into())).is_err());
    }
}
