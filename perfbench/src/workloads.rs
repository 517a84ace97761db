//! The three workloads and the metrics each run reports.
//!
//! * `crowd_sagg` — in-process [`Ssi`] + `LocalTdsPool`, 10k TDSs, one
//!   closed-loop client repeating the S_Agg `GROUP BY district` query.
//! * `serve_durable` — the same query over loopback TCP (`serve_ssi` /
//!   `serve_pool` threads, one `RemoteSsi` + one `RemoteTdsPool`) with a
//!   journaled SSI (`SyncPolicy::Always`, snapshots off), 500 TDSs.
//! * `mixed_open` — `run_mixed` with default options over 200 TDSs, the
//!   five protocols cycled over four querier identities, seeded Poisson
//!   arrivals at 4 queries/s.
//!
//! A run does a fixed amount of work derived from its arguments only, so
//! two runs with the same arguments execute the same queries. Timing
//! decorators ([`crate::trace`]) are installed only on traced queries.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdsql_core::querier::Querier;
use tdsql_core::service::{LocalTdsPool, SsiService, TdsPool};
use tdsql_core::ssi::{JournalConfig, Ssi};
use tdsql_core::stats::{Phase, RunStats};
use tdsql_core::workload::SmartMeterConfig;
use tdsql_core::{
    run_mixed, DriverConfig, MixedOptions, MixedQuery, ProtocolKind, ProtocolParams, ServiceDriver,
};
use tdsql_costmodel::s_agg::SAggModel;
use tdsql_costmodel::{ModelParams, ProtocolModel};
use tdsql_crypto::aes::{aes_blocks_batched, key_schedules_built};
use tdsql_crypto::rng::{Rng, SeedableRng, StdRng};
use tdsql_crypto::sha256::Sha256;
use tdsql_net::deploy::Deployment;
use tdsql_net::{serve_pool_with, serve_ssi_with, RemoteSsi, RemoteTdsPool, ServeOptions};
use tdsql_obs::Obs;
use tdsql_sql::ast::Query;
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::Value;

use crate::oracle;
use crate::reference;
use crate::report::{peak_rss_mib, percentile, ratio, Metrics, Outcome};
use crate::trace::{Recorder, TimedPool, TimedSsi, Totals};

/// The S_Agg query every closed-loop workload repeats.
pub const GROUP_BY_SQL: &str = "SELECT c.district, COUNT(*), AVG(p.cons) FROM power p, consumer c \
                                WHERE c.cid = p.cid GROUP BY c.district";
/// The Basic protocol's selection query in `mixed_open`.
pub const SELECT_SQL: &str = "SELECT c.cid FROM consumer c WHERE c.accomodation = 'apartment'";
/// Districts of every population (the `G` of the cost model).
pub const DISTRICTS: usize = 8;

/// Which queries of a run go through the timing decorators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// None: the end-to-end run.
    Off,
    /// All of them.
    On,
    /// Closed loop: even-numbered queries traced, odd ones not. Open
    /// loop: the first half of the schedule untraced, the second traced.
    /// The difference of the two halves' p50 is the tracing overhead.
    Split,
}

impl Trace {
    fn traces(self, i: usize, n: usize) -> bool {
        match self {
            Trace::Off => false,
            Trace::On => true,
            Trace::Split => i.is_multiple_of(2) || n == 1,
        }
    }
}

/// The size of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: population, per-query seeds, arrival schedule.
    pub seed: u64,
    /// TDS population.
    pub n_tds: usize,
    /// Timed queries.
    pub queries: usize,
    /// Repetitions of set-up; the median is `setup_s`.
    pub setups: usize,
    /// Open-loop arrival rate, queries per second (`mixed_open` only).
    pub rate_per_s: f64,
    /// Decorator placement.
    pub trace: Trace,
    /// Keep a digest of every query's `RunStats` (tests only: the digest
    /// renders the whole per-TDS map).
    pub fingerprints: bool,
}

/// What one closed-loop query left behind.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    /// Went through the decorators.
    pub traced: bool,
    /// Returned rows (false: an error, counted as a failed operation).
    pub ok: bool,
    /// Call to returned rows, wall time, ms.
    pub ms: f64,
    /// Mean of the reference-kernel passes just before and just after
    /// the query, ms.
    pub kernel_ms: f64,
    /// Canonical decrypted rows.
    pub rows: Vec<Vec<Value>>,
    /// `RunStats::load_bytes` (Load_Q).
    pub load_bytes: u64,
    /// Tuples the SSI stored in the collection phase.
    pub collected: u64,
    /// Bytes the SSI stored in the collection phase.
    pub collected_bytes: u64,
    /// TDSs that took part in aggregation and filtering (P_TDS).
    pub p_tds: u64,
    /// Layer calls and wall time inside this query (traced only).
    pub layers: Totals,
    /// Exact counts read outside the decorators.
    pub counts: Counts,
    /// Digest of the query's `RunStats` rendering, when asked for.
    pub fingerprint: Option<[u8; 32]>,
}

/// Counters read from the program's public functions around a query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `aes_blocks_batched()`.
    pub aes_blocks: u64,
    /// `key_schedules_built()`.
    pub key_schedules: u64,
    /// Journal file size, bytes.
    pub journal_bytes: u64,
    /// Client calls over both connections (`NetStats::calls`).
    pub net_calls: u64,
    /// Request frames over both connections (`NetStats::attempts`).
    pub net_frames: u64,
    /// `NetStats::reconnects`.
    pub net_reconnects: u64,
    /// `NetStats::bytes_total`.
    pub net_bytes: u64,
}

impl Counts {
    fn delta(self, before: Counts) -> Counts {
        Counts {
            aes_blocks: self.aes_blocks - before.aes_blocks,
            key_schedules: self.key_schedules - before.key_schedules,
            journal_bytes: self.journal_bytes - before.journal_bytes,
            net_calls: self.net_calls - before.net_calls,
            net_frames: self.net_frames - before.net_frames,
            net_reconnects: self.net_reconnects - before.net_reconnects,
            net_bytes: self.net_bytes - before.net_bytes,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.aes_blocks += o.aes_blocks;
        self.key_schedules += o.key_schedules;
        self.journal_bytes += o.journal_bytes;
        self.net_calls += o.net_calls;
        self.net_frames += o.net_frames;
        self.net_reconnects += o.net_reconnects;
        self.net_bytes += o.net_bytes;
    }
}

/// A workload: one run at one size.
pub type Workload = fn(&Config) -> Result<RunResult, String>;

/// Everything a run produced: the result line plus, for tests, the
/// per-query records.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Attempted/failed counts and both metric sets.
    pub outcome: Outcome,
    /// Closed loop: one record per timed query, in order.
    pub queries: Vec<QueryRecord>,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Driver seed of timed query `i` (`u64::MAX` names the warm-up).
fn query_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i.wrapping_add(1)))
}

fn deployment(seed: u64, n_tds: usize) -> Deployment {
    Deployment {
        meters: SmartMeterConfig {
            n_tds,
            districts: DISTRICTS,
            readings_per_tds: 1,
            seed: splitmix64(seed),
            ..SmartMeterConfig::default()
        },
        ..Deployment::default()
    }
}

fn obs(seed: u64) -> Arc<Obs> {
    Arc::new(Obs::with_options(&seed.to_be_bytes(), 1024, false))
}

fn sql(text: &str) -> Query {
    parse_query(text).unwrap_or_else(|e| panic!("benchmark query does not parse: {e}"))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median set-up time over the repetitions.
fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

fn fingerprint(stats: &RunStats) -> [u8; 32] {
    Sha256::digest(format!("{stats:?}").as_bytes())
}

/// One closed-loop deployment: the seams the driver talks to and the
/// program state the probes read.
#[derive(Clone, Copy)]
struct ClosedLoop<'a> {
    ssi: &'a dyn SsiService,
    pool: &'a dyn TdsPool,
    /// The ledger itself (in-process, or the server's instance).
    ledger: &'a Ssi,
    probe: &'a dyn Probe,
}

impl<'a> ClosedLoop<'a> {
    /// An in-process deployment.
    fn in_process(ssi: &'a Ssi, pool: &'a LocalTdsPool) -> Self {
        ClosedLoop {
            ssi,
            pool,
            ledger: ssi,
            probe: &InProcess,
        }
    }
}

struct Plan {
    dep: Deployment,
    querier: Querier,
    query: Query,
    expected: Vec<Vec<Value>>,
}

impl Plan {
    fn new(cfg: &Config) -> Self {
        let dep = deployment(cfg.seed, cfg.n_tds);
        let query = sql(GROUP_BY_SQL);
        let (_, oracle_db) = dep.provision();
        let expected = oracle::expected(&oracle_db, &query);
        Self {
            querier: dep.make_querier("energy-co", "supplier"),
            dep,
            query,
            expected,
        }
    }
}

/// Run one S_Agg query on a fresh driver. The driver is built outside the
/// timed interval; the interval runs from the call to the returned rows.
fn one_query(
    lp: &ClosedLoop<'_>,
    plan: &Plan,
    rec: &Recorder,
    traced: bool,
    seed: u64,
    keep_fingerprint: bool,
) -> Result<QueryRecord, String> {
    let timed_ssi = TimedSsi::new(lp.ssi, rec);
    let timed_pool = TimedPool::new(lp.pool, rec);
    let (ssi, pool): (&dyn SsiService, &dyn TdsPool) = if traced {
        (&timed_ssi, &timed_pool)
    } else {
        (lp.ssi, lp.pool)
    };
    let config = DriverConfig {
        seed,
        ..DriverConfig::default()
    };
    let mut driver = ServiceDriver::new(ssi, pool, obs(seed), config)
        .map_err(|e| format!("driver cannot reach the pool: {e}"))?;
    let params = ProtocolParams::new(ProtocolKind::SAgg);

    let counts_before = lp.probe.counts();
    let layers_before = rec.totals();
    let start = Instant::now();
    let result = driver.run_query(&plan.querier, None, &plan.query, params);
    let wall = secs(start.elapsed());
    let layers = rec.totals().delta(&layers_before);
    let counts = lp.probe.counts().delta(counts_before);

    let stats = &driver.stats;
    let collection = stats.phase(Phase::Collection);
    let mut p_tds = stats.phase(Phase::Aggregation).per_tds;
    p_tds.extend(stats.phase(Phase::Filtering).per_tds);
    let mut record = QueryRecord {
        traced,
        ok: result.is_ok(),
        ms: wall * 1e3,
        load_bytes: stats.load_bytes(),
        collected: collection.ssi_tuples_stored,
        collected_bytes: collection.ssi_bytes_stored,
        p_tds: p_tds.len() as u64,
        layers: if traced { layers } else { Totals::default() },
        counts,
        fingerprint: keep_fingerprint.then(|| fingerprint(stats)),
        ..QueryRecord::default()
    };
    if let Ok(rows) = result {
        record.rows = oracle::canonical(rows);
        oracle::check(&record.rows, &plan.expected)
            .map_err(|e| format!("oracle mismatch at driver seed {seed}: {e}"))?;
    }
    Ok(record)
}

/// The warm-up query of a set-up: untimed, not counted, result checked.
fn warm_up(lp: &ClosedLoop<'_>, plan: &Plan, seed: u64) -> Result<(), String> {
    let rec = Recorder::default();
    let r = one_query(lp, plan, &rec, false, query_seed(seed, u64::MAX), false)?;
    if r.ok {
        Ok(())
    } else {
        Err("warm-up query failed".into())
    }
}

/// Run the timed queries, with a reference-kernel pass between each two.
/// The spare set-ups (`cfg.setups - 1` of them) run between queries at evenly
/// spaced points, so `setup_s` samples the machine across the whole run,
/// as the queries do. Returns the records and the spare set-up times.
fn closed_loop(
    lp: &ClosedLoop<'_>,
    plan: &Plan,
    cfg: &Config,
    rec: &Recorder,
    spare_setup: &dyn Fn(usize) -> Result<SetUpTime, String>,
) -> Result<(Vec<QueryRecord>, Vec<SetUpTime>), String> {
    let spares = cfg.setups.saturating_sub(1);
    let due = |k: usize| (k + 1) * cfg.queries / (spares + 1);
    let mut setup_times = Vec::with_capacity(spares);
    let mut records = Vec::with_capacity(cfg.queries);
    let mut before = reference::kernel_ms();
    for i in 0..cfg.queries {
        if setup_times.len() < spares && due(setup_times.len()) <= i {
            while setup_times.len() < spares && due(setup_times.len()) <= i {
                setup_times.push(spare_setup(setup_times.len() + 1)?);
            }
            before = reference::kernel_ms();
        }
        let traced = cfg.trace.traces(i, cfg.queries);
        let seed = query_seed(cfg.seed, i as u64);
        let record = one_query(lp, plan, rec, traced, seed, cfg.fingerprints)?;
        let after = reference::kernel_ms();
        records.push(QueryRecord {
            kernel_ms: (before + after) / 2.0,
            ..record
        });
        before = after;
    }
    while setup_times.len() < spares {
        setup_times.push(spare_setup(setup_times.len() + 1)?);
    }
    Ok((records, setup_times))
}

/// End-to-end and per-layer metrics of a closed-loop run.
fn closed_loop_metrics(
    records: &[QueryRecord],
    lp: &ClosedLoop<'_>,
    setups: &[SetUpTime],
    warm_ups: usize,
) -> Outcome {
    let ok: Vec<&QueryRecord> = records.iter().filter(|r| r.ok).collect();
    let mut outcome = Outcome {
        attempted: records.len() as u64,
        failed: (records.len() - ok.len()) as u64,
        ..Outcome::default()
    };

    let untraced: Vec<&QueryRecord> = ok.iter().copied().filter(|r| !r.traced).collect();
    let traced: Vec<&QueryRecord> = ok.iter().copied().filter(|r| r.traced).collect();
    // Every reported time is normalised by the kernel passes around it.
    let ms = |rs: &[&QueryRecord]| {
        rs.iter()
            .map(|r| reference::normalise(r.ms, r.kernel_ms))
            .collect::<Vec<_>>()
    };
    let sum =
        |rs: &[&QueryRecord], f: fn(&QueryRecord) -> f64| rs.iter().map(|r| f(r)).sum::<f64>();

    // End to end, over the untraced queries.
    let e = &mut outcome.end_to_end;
    let lat = ms(&untraced);
    e.put("query_ms_p50", percentile(&lat, 0.5), "ms");
    e.put("query_ms_p90", percentile(&lat, 0.9), "ms");
    let tuples = sum(&untraced, |r| r.collected as f64);
    e.put(
        "tuples_per_s",
        ratio(tuples, ms(&untraced).iter().sum::<f64>() / 1e3),
        "1/s",
    );
    e.put(
        "load_bytes_per_tuple",
        ratio(sum(&untraced, |r| r.load_bytes as f64), tuples),
        "B",
    );
    e.put("peak_rss_mib", peak_rss_mib(), "MiB");
    e.put("setup_s", SetUpTime::median_s(setups), "s");

    // Per layer, over the traced queries; shares of raw wall time.
    let p = &mut outcome.per_layer;
    let mut t = Totals::default();
    let mut c = Counts::default();
    for r in &traced {
        t.add(&r.layers);
        c.add(&r.counts);
    }
    let q = traced.len() as f64;
    let wall_ns = sum(&traced, |r| r.ms) * 1e6;
    let tuples = sum(&traced, |r| r.collected as f64);
    let share = |ns: u64| ratio(ns as f64, wall_ns);
    put_seam_layers(p, &t, q, wall_ns);
    p.put(
        "journal.bytes_per_query",
        ratio(c.journal_bytes as f64, q),
        "B",
    );
    p.put(
        "net.frames_per_query",
        ratio(c.net_frames as f64, q),
        "count",
    );
    p.put("net.bytes_per_query", ratio(c.net_bytes as f64, q), "B");
    p.put(
        "net.retries_per_query",
        ratio((c.net_frames - c.net_calls) as f64, q),
        "count",
    );
    p.put("net.reconnects", c.net_reconnects as f64, "count");
    p.put(
        "driver.self_share",
        1.0 - share(t.ssi_ns() + t.pool_ns()),
        "ratio",
    );
    p.put("batch.parts_per_flush", 0.0, "count");
    p.put("batch.flushes_per_query", 0.0, "count");
    p.put("batch.wait_share", 0.0, "ratio");
    p.put("sched.queued_share", 0.0, "ratio");
    p.put("sched.rejected", 0.0, "count");
    p.put(
        "discovery.posts_per_query",
        ratio(t.discovery_posts as f64, q),
        "count",
    );
    for (name, _) in protocols() {
        p.put(format!("mixed.{name}.query_ms_p50"), 0.0, "ms");
    }
    p.put(
        "crypto.aes_blocks_per_tuple",
        ratio(c.aes_blocks as f64, tuples),
        "count",
    );
    p.put(
        "crypto.key_schedules_per_query",
        ratio(c.key_schedules as f64, q),
        "count",
    );
    p.put(
        "ssi.live_queries_end",
        lp.ledger.live_queries() as f64,
        "count",
    );
    p.put(
        "ssi.observations_per_query",
        ratio(
            lp.ledger.observations_len() as f64,
            (records.len() + warm_ups) as f64,
        ),
        "count",
    );

    // Section 6.1 cross-check: measured Load_Q and P_TDS over the S_Agg
    // model at the measured Nt (collected tuples) and st (mean stored
    // collection tuple size).
    let (load_ratio, ptds_ratio) = traced
        .first()
        .map_or((0.0, 0.0), |r| model_ratios(r, DISTRICTS));
    p.put("model.load_q_ratio", load_ratio, "ratio");
    p.put("model.p_tds_ratio", ptds_ratio, "ratio");
    p.put(
        "trace.overhead_ms",
        percentile(&ms(&traced), 0.5) - percentile(&lat, 0.5),
        "ms",
    );
    let wall: Vec<f64> = untraced.iter().map(|r| r.ms).collect();
    let kernels: Vec<f64> = records.iter().map(|r| r.kernel_ms).collect();
    put_machine(p, &wall, &kernels);
    outcome
}

/// The layers both seams see, in every workload: TDS steps through
/// `TdsPool`, ledger calls through `SsiService`. `wall_ns` is the traced
/// queries' summed wall time.
fn put_seam_layers(p: &mut Metrics, t: &Totals, queries: f64, wall_ns: f64) {
    let share = |ns: u64| ratio(ns as f64, wall_ns);
    let mean_us = |(calls, ns): (u64, u64)| ratio(ns as f64, calls as f64) / 1e3;
    p.put("tds.collect_us", mean_us(t.collect), "us");
    p.put("tds.collect_share", share(t.collect.1), "ratio");
    p.put("tds.reduce_share", share(t.reduce.1), "ratio");
    p.put("tds.finalize_share", share(t.finalize.1), "ratio");
    let per_query = |n: u64| ratio(n as f64, queries);
    p.put("pool.calls_per_query", per_query(t.pool_calls()), "count");
    p.put("ssi.settle_us", mean_us(t.ssi_mutate), "us");
    p.put("ssi.poll_us", mean_us(t.ssi_poll), "us");
    p.put("ssi.share", share(t.ssi_ns()), "ratio");
    p.put(
        "ssi.calls_per_tuple",
        ratio(t.ssi_calls() as f64, t.collected_tuples as f64),
        "count",
    );
    p.put(
        "ssi.mutations_per_query",
        per_query(t.ssi_mutate.0),
        "count",
    );
}

/// The raw wall-time p50 beside the machine's reference speed, so a
/// normalised figure can always be traced back to what the clock read.
fn put_machine(p: &mut Metrics, wall_ms: &[f64], kernel_ms: &[f64]) {
    p.put("wall.query_ms_p50", percentile(wall_ms, 0.5), "ms");
    p.put("ref.kernel_ms", median(kernel_ms), "ms");
}

/// One set-up's wall time and the reference-kernel passes around it.
#[derive(Debug, Clone, Copy)]
pub struct SetUpTime {
    /// Wall time of the set-up, s.
    pub wall_s: f64,
    /// Mean of the kernel passes just before and just after it, ms.
    pub kernel_ms: f64,
}

impl SetUpTime {
    /// Time `f` between two kernel passes.
    fn measure<T>(f: impl FnOnce() -> T) -> (T, SetUpTime) {
        let before = reference::kernel_ms();
        let start = Instant::now();
        let out = f();
        let wall_s = secs(start.elapsed());
        let kernel_ms = (before + reference::kernel_ms()) / 2.0;
        (out, SetUpTime { wall_s, kernel_ms })
    }

    /// Median normalised set-up time, s.
    fn median_s(times: &[SetUpTime]) -> f64 {
        let s: Vec<f64> = times
            .iter()
            .map(|t| reference::normalise(t.wall_s, t.kernel_ms))
            .collect();
        median(&s)
    }
}

fn model_ratios(r: &QueryRecord, groups: usize) -> (f64, f64) {
    let alpha = ProtocolParams::new(ProtocolKind::SAgg).alpha as f64;
    let m = SAggModel.metrics(&ModelParams {
        nt: r.collected as f64,
        g: groups as f64,
        st: ratio(r.collected_bytes as f64, r.collected as f64),
        alpha,
        ..ModelParams::default()
    });
    (
        ratio(r.load_bytes as f64, m.load_bytes),
        ratio(r.p_tds as f64, m.ptds),
    )
}

/// Reads the exact counters a deployment exposes.
trait Probe {
    fn counts(&self) -> Counts;
}

/// An in-process deployment: only the process-wide crypto counters.
struct InProcess;

impl Probe for InProcess {
    fn counts(&self) -> Counts {
        crypto_counts()
    }
}

fn crypto_counts() -> Counts {
    Counts {
        aes_blocks: aes_blocks_batched(),
        key_schedules: key_schedules_built(),
        ..Counts::default()
    }
}

/// One in-process set-up: provision, fresh SSI, one warm-up query.
fn in_process_setup(plan: &Plan, seed: u64) -> Result<((Ssi, LocalTdsPool), SetUpTime), String> {
    let (deployed, took) = SetUpTime::measure(|| {
        let (pool, _) = plan.dep.provision();
        let ssi = Ssi::new();
        warm_up(&ClosedLoop::in_process(&ssi, &pool), plan, seed).map(|()| (ssi, pool))
    });
    Ok((deployed?, took))
}

/// `crowd_sagg`: in-process SSI and pool, closed loop.
pub fn crowd_sagg(cfg: &Config) -> Result<RunResult, String> {
    let plan = Plan::new(cfg);
    // One set-up: provision, fresh SSI, warm-up query.
    let set_up = || in_process_setup(&plan, cfg.seed);
    let ((ssi, pool), first) = set_up()?;
    let lp = ClosedLoop::in_process(&ssi, &pool);
    let rec = Recorder::default();
    let (records, mut setup_times) =
        closed_loop(&lp, &plan, cfg, &rec, &|_| set_up().map(|(_, t)| t))?;
    setup_times.push(first);
    let outcome = closed_loop_metrics(&records, &lp, &setup_times, 1);
    Ok(RunResult {
        outcome,
        queries: records,
    })
}

/// Scratch directory for journals, under the working directory.
fn run_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A loopback deployment: journaled SSI and pool served on threads, one
/// client connection to each.
struct Served {
    ledger: Arc<Ssi>,
    ssi: RemoteSsi,
    pool: RemoteTdsPool,
    stop: &'static AtomicBool,
    servers: Vec<JoinHandle<()>>,
    journal: PathBuf,
}

impl Served {
    fn start(plan: &Plan, journal: PathBuf, seed: u64) -> Result<Self, String> {
        let _ = std::fs::remove_file(&journal);
        let ledger = Arc::new(
            Ssi::recover(JournalConfig::new(&journal))
                .map_err(|e| format!("cannot open journal {}: {e}", journal.display()))?,
        );
        let (pool, _) = plan.dep.provision();
        // One flag per deployment; it must outlive the serve loops.
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let opts = ServeOptions {
            stop: Some(stop),
            ..ServeOptions::default()
        };
        let bind = || {
            let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
            let addr = l.local_addr().map_err(|e| format!("loopback addr: {e}"))?;
            Ok::<_, String>((l, addr.to_string()))
        };
        let (ssi_listener, ssi_addr) = bind()?;
        let (pool_listener, pool_addr) = bind()?;
        let server_ledger = Arc::clone(&ledger);
        let server_obs = obs(seed);
        let mut servers = vec![std::thread::spawn(move || {
            serve_ssi_with(ssi_listener, server_ledger, server_obs, opts)
        })];
        let server_obs = obs(seed);
        servers.push(std::thread::spawn(move || {
            serve_pool_with(pool_listener, Arc::new(pool), server_obs, opts)
        }));
        let client_obs = obs(seed);
        let ssi = RemoteSsi::connect(ssi_addr, Arc::clone(&client_obs));
        let pool = match RemoteTdsPool::connect(pool_addr, client_obs) {
            Ok(pool) => pool,
            Err(e) => {
                drop(ssi);
                stop.store(true, Ordering::Release);
                for s in servers {
                    let _ = s.join();
                }
                return Err(format!("cannot reach the pool server: {e}"));
            }
        };
        Ok(Self {
            ledger,
            ssi,
            pool,
            stop,
            servers,
            journal,
        })
    }

    fn closed_loop(&self) -> ClosedLoop<'_> {
        ClosedLoop {
            ssi: &self.ssi,
            pool: &self.pool,
            ledger: &self.ledger,
            probe: self,
        }
    }

    /// Close the client connections, stop both serve loops, wait for them
    /// and remove the journal.
    fn shut_down(self) {
        let Served {
            ledger,
            ssi,
            pool,
            stop,
            servers,
            journal,
        } = self;
        drop(ssi);
        drop(pool);
        stop.store(true, Ordering::Release);
        for s in servers {
            let _ = s.join();
        }
        drop(ledger);
        let _ = std::fs::remove_file(journal);
    }
}

impl Probe for Served {
    fn counts(&self) -> Counts {
        let (s, p) = (self.ssi.stats(), self.pool.stats());
        Counts {
            journal_bytes: std::fs::metadata(&self.journal).map_or(0, |m| m.len()),
            net_calls: s.calls + p.calls,
            net_frames: s.attempts + p.attempts,
            net_reconnects: s.reconnects + p.reconnects,
            net_bytes: s.bytes_total() + p.bytes_total(),
            ..crypto_counts()
        }
    }
}

/// `serve_durable`: loopback TCP with a journaled SSI, closed loop.
pub fn serve_durable(cfg: &Config) -> Result<RunResult, String> {
    let plan = Plan::new(cfg);
    let dir = run_dir()?;
    // One set-up: journal, both servers, both connections, warm-up query.
    let set_up = |k: usize| -> Result<(Served, SetUpTime), String> {
        let journal = dir.join(format!("serve_durable-{}-{k}.journal", std::process::id()));
        let (started, took) = SetUpTime::measure(|| {
            let served = Served::start(&plan, journal, cfg.seed)?;
            match warm_up(&served.closed_loop(), &plan, cfg.seed) {
                Ok(()) => Ok(served),
                Err(e) => {
                    served.shut_down();
                    Err(e)
                }
            }
        });
        Ok((started?, took))
    };
    let spare = |k: usize| {
        set_up(k).map(|(served, took)| {
            served.shut_down();
            took
        })
    };
    let (served, first) = set_up(0)?;
    let rec = Recorder::default();
    let result = closed_loop(&served.closed_loop(), &plan, cfg, &rec, &spare).map(
        |(records, mut setup_times)| {
            setup_times.push(first);
            let outcome = closed_loop_metrics(&records, &served.closed_loop(), &setup_times, 1);
            RunResult {
                outcome,
                queries: records,
            }
        },
    );
    served.shut_down();
    let _ = std::fs::remove_dir(&dir);
    result
}

/// The five protocols `mixed_open` cycles, by metric name.
pub fn protocols() -> [(&'static str, ProtocolKind); 5] {
    [
        ("basic", ProtocolKind::Basic),
        ("s_agg", ProtocolKind::SAgg),
        ("rnf_noise", ProtocolKind::RnfNoise { nf: 3 }),
        ("c_noise", ProtocolKind::CNoise),
        ("ed_hist", ProtocolKind::EdHist { buckets: 4 }),
    ]
}

/// Querier identities `mixed_open` cycles (admission quotas are per id).
const MIXED_QUERIERS: usize = 4;

/// Seeded Poisson schedule: `n` arrival offsets at `rate` per second.
fn poisson_arrivals(seed: u64, n: usize, rate: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xa441));
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            (t * 1e3) as u64
        })
        .collect()
}

/// Collection-phase tuples and all stored ciphertext bytes in the SSI's
/// observation log, skipping the first `skip` entries.
fn observed_since(ssi: &Ssi, skip: usize) -> (u64, u64) {
    let obs = ssi.observations();
    let fresh = obs.get(skip..).unwrap_or(&[]);
    let collected = fresh
        .iter()
        .filter(|o| o.phase == Phase::Collection && o.query_id != u64::MAX)
        .count() as u64;
    let bytes = fresh.iter().map(|o| o.blob_len as u64).sum();
    (collected, bytes)
}

/// `mixed_open`: `run_mixed` under seeded open-loop arrivals.
pub fn mixed_open(cfg: &Config) -> Result<RunResult, String> {
    let dep = deployment(cfg.seed, cfg.n_tds);
    let (_, oracle_db) = dep.provision();
    let kinds = protocols();
    let texts = [SELECT_SQL, GROUP_BY_SQL];
    let expected: Vec<Vec<Vec<Value>>> = texts
        .iter()
        .map(|t| oracle::expected(&oracle_db, &sql(t)))
        .collect();
    let text_of = |kind: ProtocolKind| usize::from(kind != ProtocolKind::Basic);

    let arrivals = poisson_arrivals(cfg.seed, cfg.queries, cfg.rate_per_s);
    let mut queries: Vec<MixedQuery> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &arrival_ms)| {
            let kind = kinds[i % kinds.len()].1;
            MixedQuery {
                querier: dep.make_querier(&format!("energy-co-{}", i % MIXED_QUERIERS), "supplier"),
                query: sql(texts[text_of(kind)]),
                params: ProtocolParams::new(kind),
                seed: query_seed(cfg.seed, i as u64),
                arrival_ms,
            }
        })
        .collect();
    let system = dep.system_querier();

    // One set-up: provision, fresh SSI, one solo S_Agg warm-up query.
    // Half the spare set-ups run before the measured one and half after
    // the run, so `setup_s` samples the machine at both ends.
    let plan = Plan {
        querier: dep.make_querier("energy-co", "supplier"),
        dep: dep.clone(),
        query: sql(GROUP_BY_SQL),
        expected: expected[1].clone(),
    };
    let set_up = || in_process_setup(&plan, cfg.seed);
    let spares = cfg.setups.saturating_sub(1);
    let mut setup_times = Vec::with_capacity(spares + 1);
    for _ in 0..spares / 2 {
        setup_times.push(set_up()?.1);
    }
    let ((ssi, pool), first) = set_up()?;
    setup_times.push(first);
    let warm_queries = 1usize;

    // The schedule, split in two runs when half of it is traced.
    let split = match cfg.trace {
        Trace::Off => queries.len(),
        Trace::On => 0,
        Trace::Split => queries.len() / 2,
    };
    let mut second = queries.split_off(split);
    if let Some(first_due) = second.first().map(|q| q.arrival_ms) {
        for q in &mut second {
            q.arrival_ms -= first_due;
        }
    }
    let base = DriverConfig::default();
    let opts = MixedOptions::default();
    let run_obs = obs(cfg.seed);

    let observed_before = ssi.observations_len();
    let untraced = run_mixed(&ssi, &pool, &run_obs, Some(&system), &base, &opts, &queries);
    let (collected, stored_bytes) = observed_since(&ssi, observed_before);

    let rec = Recorder::default();
    let timed_ssi = TimedSsi::new(&ssi, &rec);
    let timed_pool = TimedPool::new(&pool, &rec);
    let crypto_before = crypto_counts();
    let traced = run_mixed(
        &timed_ssi,
        &timed_pool,
        &run_obs,
        Some(&system),
        &base,
        &opts,
        &second,
    );
    let crypto = crypto_counts().delta(crypto_before);
    while setup_times.len() <= spares {
        setup_times.push(set_up()?.1);
    }

    // Oracle gate over both halves; errors are failed operations.
    let mut outcome = Outcome::default();
    let mut latencies: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut by_protocol: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for (half, (report, list)) in [(&untraced, &queries), (&traced, &second)]
        .into_iter()
        .enumerate()
    {
        for (i, (q, result)) in list.iter().zip(&report.outcomes).enumerate() {
            outcome.attempted += 1;
            let Ok(out) = result else {
                outcome.failed += 1;
                continue;
            };
            oracle::check(
                &oracle::canonical(out.rows.clone()),
                &expected[text_of(q.params.kind)],
            )
            .map_err(|e| format!("oracle mismatch, query {i} ({:?}): {e}", q.params.kind))?;
            latencies[half].push(out.latency_ms as f64);
            if half == 1 {
                let k = kinds
                    .iter()
                    .position(|(_, kind)| *kind == q.params.kind)
                    .unwrap_or(0);
                by_protocol[k].push(out.latency_ms as f64);
            }
        }
    }

    let e = &mut outcome.end_to_end;
    let lat = &latencies[0];
    e.put("query_ms_p50", percentile(lat, 0.5), "ms");
    e.put("query_ms_p90", percentile(lat, 0.9), "ms");
    let busy_s = lat.iter().sum::<f64>() / 1e3;
    e.put("tuples_per_s", ratio(collected as f64, busy_s), "1/s");
    e.put(
        "load_bytes_per_tuple",
        ratio(stored_bytes as f64, collected as f64),
        "B",
    );
    e.put("peak_rss_mib", peak_rss_mib(), "MiB");
    // Set-ups are normalised by the kernel passes around each; the
    // latencies come from the program's own whole-millisecond clock and
    // are dominated by the batch window's sleeps, so they stay raw.
    let kernels: Vec<f64> = setup_times.iter().map(|t| t.kernel_ms).collect();
    e.put("setup_s", SetUpTime::median_s(&setup_times), "s");

    let p = &mut outcome.per_layer;
    let t = rec.totals();
    let q = second.len() as f64;
    let wall_ns = latencies[1].iter().sum::<f64>() * 1e6;
    let tuples = t.collected_tuples as f64;
    put_seam_layers(p, &t, q, wall_ns);
    p.put("journal.bytes_per_query", 0.0, "B");
    p.put("net.frames_per_query", 0.0, "count");
    p.put("net.bytes_per_query", 0.0, "B");
    p.put("net.retries_per_query", 0.0, "count");
    p.put("net.reconnects", 0.0, "count");
    // The batching window, admission waits and the driver's own work all
    // sit outside both seams here; they are reported together as the
    // batch layer's wait share.
    p.put("driver.self_share", 0.0, "ratio");
    let flushes = traced.batch.counter("pool.batch.flushes") as f64;
    p.put(
        "batch.parts_per_flush",
        ratio(traced.batch.counter("pool.batch.parts") as f64, flushes),
        "count",
    );
    p.put("batch.flushes_per_query", ratio(flushes, q), "count");
    p.put(
        "batch.wait_share",
        1.0 - ratio((t.ssi_ns() + t.pool_ns()) as f64, wall_ns),
        "ratio",
    );
    p.put(
        "sched.queued_share",
        ratio(
            traced.sched.counter("ssi.sched.queued") as f64,
            traced.sched.counter("ssi.sched.admitted") as f64,
        ),
        "ratio",
    );
    p.put(
        "sched.rejected",
        traced.sched.counter("ssi.sched.rejected") as f64,
        "count",
    );
    p.put(
        "discovery.posts_per_query",
        ratio(t.discovery_posts as f64, q),
        "count",
    );
    for ((name, _), lat) in kinds.iter().zip(&by_protocol) {
        p.put(
            format!("mixed.{name}.query_ms_p50"),
            percentile(lat, 0.5),
            "ms",
        );
    }
    p.put(
        "crypto.aes_blocks_per_tuple",
        ratio(crypto.aes_blocks as f64, tuples),
        "count",
    );
    p.put(
        "crypto.key_schedules_per_query",
        ratio(crypto.key_schedules as f64, q),
        "count",
    );
    p.put("ssi.live_queries_end", ssi.live_queries() as f64, "count");
    p.put(
        "ssi.observations_per_query",
        ratio(
            ssi.observations_len() as f64,
            (cfg.queries + warm_queries) as f64,
        ),
        "count",
    );
    p.put("model.load_q_ratio", 0.0, "ratio");
    p.put("model.p_tds_ratio", 0.0, "ratio");
    p.put(
        "trace.overhead_ms",
        percentile(&latencies[1], 0.5) - percentile(lat, 0.5),
        "ms",
    );
    put_machine(p, lat, &kernels);
    Ok(RunResult {
        outcome,
        queries: Vec::new(),
    })
}
