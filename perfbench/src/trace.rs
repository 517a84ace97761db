//! Timing decorators for the two service seams.
//!
//! [`TimedSsi`] and [`TimedPool`] wrap whatever [`SsiService`] and
//! [`TdsPool`] a workload hands to the driver, delegate every call
//! unchanged, and add the call's wall time and count to a shared
//! [`Recorder`]. They are the benchmark's spans: one per call into a layer,
//! recorded from outside the program, so the program itself is untouched.
//! Nothing here changes arguments, results or call order, which the
//! benchmark's own tests check by comparing rows, `RunStats` and exact
//! counts with and without the decorators.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tdsql_core::bytes::Bytes;
use tdsql_core::message::{AssignmentId, DeliveryOutcome, QueryEnvelope, StoredTuple};
use tdsql_core::protocol::ProtocolParams;
use tdsql_core::stats::Phase;
use tdsql_core::tds::SYSTEM_ROLE;
use tdsql_core::{MultiStepPart, Result, SsiService, StepResult, TdsPool, TdsStep};
use tdsql_sql::value::Value;

/// Calls into one layer and the wall time they took.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    fn add(&self, calls: u64, nanos: u64) {
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(1, elapsed_ns(start));
        out
    }

    /// Snapshot as (calls, nanoseconds).
    pub fn get(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Shared sink of both decorators.
#[derive(Debug, Default)]
pub struct Recorder {
    /// SSI calls that change ledger state (post, allocate, assign,
    /// deliver, close, take, restore, purge).
    pub ssi_mutate: Span,
    /// Read-only SSI calls (envelope, item_done, counts, results).
    pub ssi_poll: Span,
    /// `TdsStep::Collect`.
    pub collect: Span,
    /// `TdsStep::ReduceInputs` and `TdsStep::ReducePartials`.
    pub reduce: Span,
    /// `TdsStep::FilterPlain` and `TdsStep::FinalizeGroups`.
    pub finalize: Span,
    /// Roster and k2-opening calls (`len`, `tds_ids`, `open_rows`).
    pub pool_meta: Span,
    /// Queries posted by the system querier (discovery sub-queries).
    pub discovery_posts: AtomicU64,
    /// Tuples handed to `receive_collection`.
    pub collected_tuples: AtomicU64,
}

/// The layer totals a metric is computed from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// `(calls, ns)` of ledger mutations.
    pub ssi_mutate: (u64, u64),
    /// `(calls, ns)` of read-only SSI calls.
    pub ssi_poll: (u64, u64),
    /// `(steps, ns)` of collection steps.
    pub collect: (u64, u64),
    /// `(steps, ns)` of reduce steps.
    pub reduce: (u64, u64),
    /// `(steps, ns)` of finalize steps.
    pub finalize: (u64, u64),
    /// `(calls, ns)` of roster and k2-opening calls.
    pub pool_meta: (u64, u64),
    /// Discovery sub-queries posted.
    pub discovery_posts: u64,
    /// Tuples delivered by collection steps.
    pub collected_tuples: u64,
}

impl Totals {
    /// All SSI calls.
    pub fn ssi_calls(&self) -> u64 {
        self.ssi_mutate.0 + self.ssi_poll.0
    }

    /// Wall time inside the SSI, ns.
    pub fn ssi_ns(&self) -> u64 {
        self.ssi_mutate.1 + self.ssi_poll.1
    }

    /// Pool calls, counting each part of a batched contact once.
    pub fn pool_calls(&self) -> u64 {
        self.collect.0 + self.reduce.0 + self.finalize.0 + self.pool_meta.0
    }

    /// Wall time inside the pool, ns.
    pub fn pool_ns(&self) -> u64 {
        self.collect.1 + self.reduce.1 + self.finalize.1 + self.pool_meta.1
    }

    /// Counters accumulated since `before`.
    pub fn delta(&self, before: &Totals) -> Totals {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        Totals {
            ssi_mutate: d(self.ssi_mutate, before.ssi_mutate),
            ssi_poll: d(self.ssi_poll, before.ssi_poll),
            collect: d(self.collect, before.collect),
            reduce: d(self.reduce, before.reduce),
            finalize: d(self.finalize, before.finalize),
            pool_meta: d(self.pool_meta, before.pool_meta),
            discovery_posts: self.discovery_posts - before.discovery_posts,
            collected_tuples: self.collected_tuples - before.collected_tuples,
        }
    }

    /// Accumulate another snapshot.
    pub fn add(&mut self, o: &Totals) {
        let a = |x: &mut (u64, u64), y: (u64, u64)| {
            x.0 += y.0;
            x.1 += y.1;
        };
        a(&mut self.ssi_mutate, o.ssi_mutate);
        a(&mut self.ssi_poll, o.ssi_poll);
        a(&mut self.collect, o.collect);
        a(&mut self.reduce, o.reduce);
        a(&mut self.finalize, o.finalize);
        a(&mut self.pool_meta, o.pool_meta);
        self.discovery_posts += o.discovery_posts;
        self.collected_tuples += o.collected_tuples;
    }
}

impl Recorder {
    /// Snapshot every counter.
    pub fn totals(&self) -> Totals {
        Totals {
            ssi_mutate: self.ssi_mutate.get(),
            ssi_poll: self.ssi_poll.get(),
            collect: self.collect.get(),
            reduce: self.reduce.get(),
            finalize: self.finalize.get(),
            pool_meta: self.pool_meta.get(),
            discovery_posts: self.discovery_posts.load(Ordering::Relaxed),
            collected_tuples: self.collected_tuples.load(Ordering::Relaxed),
        }
    }

    fn step_span(&self, step: TdsStep) -> &Span {
        match step {
            TdsStep::Collect => &self.collect,
            TdsStep::ReduceInputs { .. } | TdsStep::ReducePartials { .. } => &self.reduce,
            TdsStep::FilterPlain | TdsStep::FinalizeGroups { .. } => &self.finalize,
        }
    }
}

/// Timing decorator over an [`SsiService`].
pub struct TimedSsi<'a> {
    inner: &'a dyn SsiService,
    rec: &'a Recorder,
}

impl<'a> TimedSsi<'a> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: &'a dyn SsiService, rec: &'a Recorder) -> Self {
        Self { inner, rec }
    }
}

impl SsiService for TimedSsi<'_> {
    fn post_query(&self, envelope: QueryEnvelope) -> Result<u64> {
        if envelope.credential.role.0 == SYSTEM_ROLE {
            self.rec.discovery_posts.fetch_add(1, Ordering::Relaxed);
        }
        self.rec.ssi_mutate.time(|| self.inner.post_query(envelope))
    }
    fn envelope(&self, query_id: u64) -> Result<QueryEnvelope> {
        self.rec.ssi_poll.time(|| self.inner.envelope(query_id))
    }
    fn new_item(&self, query_id: u64) -> Result<u64> {
        self.rec.ssi_mutate.time(|| self.inner.new_item(query_id))
    }
    fn begin_assignment(&self, query_id: u64, item: u64) -> Result<AssignmentId> {
        self.rec
            .ssi_mutate
            .time(|| self.inner.begin_assignment(query_id, item))
    }
    fn item_done(&self, query_id: u64, item: u64) -> Result<bool> {
        self.rec
            .ssi_poll
            .time(|| self.inner.item_done(query_id, item))
    }
    fn receive_collection(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        self.rec
            .collected_tuples
            .fetch_add(tuples.len() as u64, Ordering::Relaxed);
        self.rec
            .ssi_mutate
            .time(|| self.inner.receive_collection(query_id, assignment, tuples))
    }
    fn collection_count(&self, query_id: u64) -> Result<usize> {
        self.rec
            .ssi_poll
            .time(|| self.inner.collection_count(query_id))
    }
    fn size_tuples_reached(&self, query_id: u64) -> Result<bool> {
        self.rec
            .ssi_poll
            .time(|| self.inner.size_tuples_reached(query_id))
    }
    fn close_collection(&self, query_id: u64) -> Result<()> {
        self.rec
            .ssi_mutate
            .time(|| self.inner.close_collection(query_id))
    }
    fn take_working(&self, query_id: u64) -> Result<Vec<StoredTuple>> {
        self.rec
            .ssi_mutate
            .time(|| self.inner.take_working(query_id))
    }
    fn restore_working(&self, query_id: u64, phase: Phase, tuples: Vec<StoredTuple>) -> Result<()> {
        self.rec
            .ssi_mutate
            .time(|| self.inner.restore_working(query_id, phase, tuples))
    }
    fn receive_working(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        self.rec.ssi_mutate.time(|| {
            self.inner
                .receive_working(query_id, assignment, phase, tuples)
        })
    }
    fn receive_results(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        rows: Vec<Bytes>,
    ) -> Result<DeliveryOutcome> {
        self.rec
            .ssi_mutate
            .time(|| self.inner.receive_results(query_id, assignment, rows))
    }
    fn results(&self, query_id: u64) -> Result<Vec<Bytes>> {
        self.rec.ssi_poll.time(|| self.inner.results(query_id))
    }
    fn purge_query(&self, query_id: u64) -> Result<()> {
        self.rec
            .ssi_mutate
            .time(|| self.inner.purge_query(query_id))
    }
}

/// Timing decorator over a [`TdsPool`].
pub struct TimedPool<'a> {
    inner: &'a dyn TdsPool,
    rec: &'a Recorder,
}

impl<'a> TimedPool<'a> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: &'a dyn TdsPool, rec: &'a Recorder) -> Self {
        Self { inner, rec }
    }
}

impl TdsPool for TimedPool<'_> {
    fn len(&self) -> Result<usize> {
        self.rec.pool_meta.time(|| self.inner.len())
    }
    fn is_empty(&self) -> Result<bool> {
        self.rec.pool_meta.time(|| self.inner.is_empty())
    }
    fn tds_ids(&self) -> Result<Vec<u64>> {
        self.rec.pool_meta.time(|| self.inner.tds_ids())
    }
    fn step(
        &self,
        index: usize,
        env: &QueryEnvelope,
        params: &ProtocolParams,
        now_round: u64,
        step: TdsStep,
        partition: &[StoredTuple],
        rng_seed: u64,
    ) -> Result<StepResult> {
        self.rec.step_span(step).time(|| {
            self.inner
                .step(index, env, params, now_round, step, partition, rng_seed)
        })
    }
    fn open_rows(&self, blobs: &[Bytes]) -> Result<Vec<Vec<Value>>> {
        self.rec.pool_meta.time(|| self.inner.open_rows(blobs))
    }
    /// One batched contact: delegated whole (a remote pool ships it as one
    /// frame), its wall time split evenly over its parts' step layers.
    fn multi_step(&self, index: usize, parts: &[MultiStepPart]) -> Result<Vec<Result<StepResult>>> {
        let start = Instant::now();
        let out = self.inner.multi_step(index, parts);
        let share = elapsed_ns(start) / (parts.len().max(1) as u64);
        for part in parts {
            self.rec.step_span(part.step).add(1, share);
        }
        out
    }
}
