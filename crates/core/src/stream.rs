//! The streaming checker: online verdicts over an incrementally ingested
//! history, re-running the staged pipeline only on the components dirtied
//! since the last checkpoint.
//!
//! # Model
//!
//! A [`StreamingChecker`] wraps a [`HistoryStream`]: transactions are
//! pushed in session order (interleaved freely across sessions) and
//! [`StreamingChecker::checkpoint`] produces a verdict for the prefix
//! ingested so far. Under the default [`crate::engine::Sharding::Auto`],
//! the verdict at every checkpoint, witness and violation list included,
//! **equals the batch [`CheckEngine`] verdict on the stream's snapshot of
//! the same prefix** (under `Sharding::Off`, accept or reject does) —
//! property-tested across the conformance corpus by
//! `crates/polysi/tests/stream.rs`.
//!
//! Between checkpoints the checker maintains, per key-connectivity
//! component:
//!
//! * the component's [`Polygraph`] in *arrival-order* local ids — new
//!   transactions extend it in place (**delta construction**: new `SO`,
//!   `WR`, init-`RW` (and SER RMW-`WW`) edges from the facts of the
//!   transactions that arrived since the last graph check, as
//!   [`polysi_history::StreamFacts::delta`] derives them);
//! * the prune stage's reachability oracle, which owns the component's
//!   known edges, grown with [`KnownGraph::grow`] and extended with
//!   [`KnownGraph::insert_edges`] (one flush per delta) — rebuilt only
//!   by a compaction, over the surviving edges; it keeps only the delta
//!   edges its paths do not already imply. Its representation follows the growth
//!   (`grow` moves a dense oracle to chains once the component is big
//!   enough for that to pay) and the compaction (a rebuild applies the
//!   build rule), so a component ends up with the oracle a batch check
//!   of the same snapshot would build;
//! * the constraints its last prune left open — and only those: the new
//!   writer pairs of keys whose writer sets grew, and the open pairs whose
//!   reader sets grew, are never stored by the delta path. A
//!   [`ConstraintGen::delta`] generates them straight into the first pass
//!   of the resumed prune ([`Polygraph::prune_resume`]), which tests the
//!   stored constraints incident to the delta's touched set and then the
//!   generated pairs its fixed oracle leaves to decide (incomparable ones
//!   and covers, [`ConstraintGen::covers`]), and stores only those it
//!   leaves open.
//!
//! **A checkpoint costs its delta,** with three exceptions that grow with
//! the prefix: a new writer of a hot key is placed against *every* earlier
//! writer of the key (binary searches over the key's runs of ordered
//! writers; only its incomparable pairs and covers are generated), an encode
//! rebuilds the solver instance from the component's whole known graph,
//! and [`KnownGraph::grow`] resizes the oracle. Global → local ids are
//! one read of the checker's `local_of` column, the delta's dedup and pair
//! sets hash with the seeded fold-multiply hasher of
//! `polysi_history::fasthash`. The dirty components are checked one after
//! another, on the calling thread. Each constructs its polygraph from the
//! stream's facts (whole on a rebuild, by its delta otherwise) and hands it
//! to the batch engine's Prune → Encode → Solve runner (`engine::run_unit`),
//! whose tally the registry records — the same counters, in the same place,
//! as a batch check's. A dirty component whose resumed prune leaves no
//! constraint is accepted without building a solver — the common case on
//! update-heavy streams — so the `encode.*` / `solver.*` counters count
//! only the instances built and the solver calls made; clean components
//! keep their cached accept.
//!
//! Each step is a span: `checkpoint` ⊃ `checkpoint.group`, one `component`
//! per dirty component ⊃ `delta.events` / `delta.grow` (attrs `kind`,
//! `converted`) / `delta.insert` (attr `reordered`, the Pearce–Kelly
//! reorders its edges cost) / `delta.constraints` / `delta.prune` /
//! `delta.encode` / `delta.solve` (a rebuild has the batch stages
//! `construct` / `prune` / `encode` / `solve` instead), then `compact` ⊃
//! `compact.select` / `history.compact` / `compact.remap`, or the `check`
//! of a rejection's re-check. A checkpoint's [`CheckpointReport::elapsed`]
//! is its `checkpoint` span's duration.
//!
//! # Monotonicity contract
//!
//! * **An accept is always revisable**: later transactions can only add
//!   edges and constraints, so a later checkpoint may reject.
//! * **A cyclic rejection is stable**: known edges never disappear and
//!   constraint sides only grow, so a violating cycle (or an unsatisfiable
//!   component) stays violating in every extension. The first rejecting
//!   checkpoint canonicalizes it: the batch engine re-checks the sessions
//!   of the components that rejected there, not the whole prefix, and keeps
//!   its lowest-numbered rejecting unit, as it does on the prefix, whose
//!   other units accept; the witness is mapped to the snapshot's ids, and
//!   the stage objects are the re-checked sessions' ([`StreamRejection`]).
//!   The stream is then terminal and returns that verdict from then on.
//! * **Axiom violations are canonical but only *monotone* ones are
//!   stable**: a read of a value whose writer has not arrived yet fails
//!   the non-cyclic axioms exactly as batch analysis of the prefix would
//!   ([`HistoryStream::read_violations`]), yet it *heals* if the writer
//!   arrives later. `Int`, duplicate-write, wrote-init, future-read and
//!   watermark violations never heal: the stream's fact builder classifies
//!   them once, in snapshot ids ([`HistoryStream::axiom_state`]), and the
//!   stream is terminal. An unhealable prefix never reaches the graph
//!   stages.
//! * **A fenced read is terminal and inconclusive**: a read that a
//!   compacting stream refuses below its watermark leaves the stream
//!   [`Inconclusive::Fenced`], unless the prefix has an axiom violation to
//!   report, which wins; no cycle is looked for.
//! * **No silent disagreement**: a delta detector that rejects what the
//!   batch re-check accepts is a checker bug; that checkpoint is
//!   [`Inconclusive::Disagreement`] (counted in `stream.disagreements`
//!   and marked on its span), and the components that rejected are rebuilt
//!   when next dirty.
//!
//! # Scope
//!
//! Streaming requires the default engine configuration of the graph
//! stages: generalized constraints and pruning enabled (the prune oracle
//! *is* the incremental structure). The thread budget (`prune_threads`)
//! sizes the re-check's shard workers only; interpretation runs in the
//! re-check.

use crate::check::{CheckReport, Inconclusive, Outcome, Tally};
use crate::engine::{
    run_unit, CheckEngine, CompactMode, EngineOptions, IsolationLevel, Prune, UnitVerdict,
};
use polysi_history::{
    FactEvent, FastMap, FastSet, HistoryStream, IngestError, Key, Op, RootInfo, SessionId,
    ShardComponent, TxnId, TxnStatus, WrSource,
};
use polysi_obs::{kv, Obs};
use polysi_polygraph::{ConstraintGen, ConstraintMode, Edge, Flush, KnownGraph, Label, Polygraph};
use std::collections::BTreeMap;
use std::time::Duration;

/// What one [`StreamingChecker::checkpoint`] call did.
#[derive(Clone, Debug)]
pub struct CheckpointReport {
    /// Checkpoint sequence number (1-based).
    pub seq: usize,
    /// Transactions ingested so far (monotone: compaction does not
    /// subtract — compacted and uncompacted runs of the same stream report
    /// the same count).
    pub txns: usize,
    /// Transactions still held live after this checkpoint's compaction.
    pub live_txns: usize,
    /// Transactions dropped by watermark compaction at this checkpoint.
    pub compacted: usize,
    /// Operations ingested so far.
    pub ops: usize,
    /// Current component count (transaction-bearing only).
    pub components: usize,
    /// Components re-checked at this checkpoint.
    pub dirty: usize,
    /// Of the dirty components, how many were rebuilt from scratch
    /// (first sight or merge) rather than delta-extended.
    pub rebuilt: usize,
    /// The verdict for the prefix: batch's on the same snapshot, or
    /// [`Outcome::Inconclusive`] where the stream cannot give it (see the
    /// module docs).
    pub verdict: Outcome,
    /// Whether the verdict is final: the stream holds its terminal state
    /// ([`StreamingChecker::rejection`]) and reports it from now on.
    pub terminal: bool,
    /// Wall-clock spent in this checkpoint call: its `checkpoint` span's
    /// duration.
    pub elapsed: Duration,
}

/// The terminal state: the canonical report of the checkpoint that
/// reached it, in the ids of the stream's snapshot there. Its outcome is a
/// violation, or [`Inconclusive::Fenced`] when the reads the fence refused
/// leave nothing else to report.
pub struct StreamRejection {
    /// The sessions the report checked, ascending: the rejecting
    /// components' of a cyclic violation, every session of an axiom state.
    pub sessions: Vec<SessionId>,
    /// Batch's report on the history of `sessions` for a cyclic violation,
    /// so its stage objects are those sessions'; the stream's
    /// [`HistoryStream::axiom_state`], with no stage run, for an axiom one.
    pub report: CheckReport,
    /// Operations ingested when the violation was detected.
    pub op_index: usize,
    /// Transactions ingested when the violation was detected.
    pub txn_count: usize,
    /// The rejecting checkpoint's sequence number.
    pub checkpoint: usize,
}

/// Cached per-component pipeline state (arrival-order local ids: position
/// in `txns` = local id, stable because arrivals only append; the inverse
/// is the checker's `local_of` column).
struct ComponentState {
    /// Member transactions, ascending arrival ids.
    txns: Vec<TxnId>,
    /// The component polygraph, post-prune: its constraints are the
    /// survivors, and its known edges are the oracle's.
    poly: Polygraph,
    /// The warm reachability oracle, which owns the component's known
    /// edges, resolved ones included (`None` only transiently).
    oracle: Option<Box<KnownGraph>>,
}

/// The streaming checker (see the module docs).
pub struct StreamingChecker {
    isolation: IsolationLevel,
    opts: EngineOptions,
    stream: HistoryStream,
    comps: FastMap<u64, ComponentState>,
    /// Arrival id → local id within the transaction's component (its
    /// position in that [`ComponentState::txns`]), without the search
    /// [`polysi_history::ShardComponent::local`] makes. Written by the
    /// event-grouping loop, the collection of rebuild jobs and compaction;
    /// the component jobs just read it. Covers every transaction of a
    /// cached component.
    local_of: Vec<u32>,
    /// Arrival id of the first transaction no component has seen yet: the
    /// start of the next delta. It moves only past a prefix whose axioms
    /// hold.
    cursor: usize,
    checkpoints: usize,
    rejection: Option<StreamRejection>,
    obs: Obs,
    /// `(txns, ops)` totals already folded into the metrics counters, so
    /// per-checkpoint deltas can be recorded from cumulative report fields.
    counted: (usize, usize),
}

impl StreamingChecker {
    /// A checker for `isolation` with the given engine knobs. Streaming
    /// requires generalized constraints and pruning (see the module docs).
    pub fn new(isolation: IsolationLevel, opts: EngineOptions) -> Self {
        assert!(opts.pruning, "streaming requires the prune stage (its oracle is the increment)");
        assert!(
            opts.mode == ConstraintMode::Generalized,
            "streaming supports generalized constraints only"
        );
        StreamingChecker {
            isolation,
            opts,
            stream: HistoryStream::new(),
            comps: FastMap::default(),
            local_of: Vec::new(),
            cursor: 0,
            checkpoints: 0,
            rejection: None,
            obs: Obs::default(),
            counted: (0, 0),
        }
    }

    /// Attach observability handles (span tracer + metrics registry); the
    /// stream's compactor shares the tracer so `history.compact` spans land
    /// on the same timeline.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.stream.set_tracer(obs.tracer.clone());
        self.obs = obs;
        self
    }

    /// The checker's observability handles.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Open a new session.
    pub fn session(&mut self) -> SessionId {
        self.stream.session()
    }

    /// Push one complete transaction; returns its arrival id. Ingestion
    /// stays available after a terminal rejection (the verdict is stable;
    /// further transactions are recorded but no longer checked).
    pub fn push_transaction(
        &mut self,
        session: SessionId,
        ops: Vec<Op>,
        status: TxnStatus,
    ) -> TxnId {
        self.stream.push_transaction(session, ops, status)
    }

    /// Fallible ingest boundary: push one complete transaction, or report
    /// the delivery-contract violation as a typed [`IngestError`] without
    /// touching the stream. Live delivery paths use this.
    pub fn try_push_transaction(
        &mut self,
        session: SessionId,
        ops: Vec<Op>,
        status: TxnStatus,
    ) -> Result<TxnId, IngestError> {
        self.stream.try_push_transaction(session, ops, status)
    }

    /// Seal a session (no further transactions on it).
    pub fn seal_session(&mut self, session: SessionId) {
        self.stream.seal_session(session)
    }

    /// Fallible seal (idempotent; errors only on an unknown session).
    pub fn try_seal_session(&mut self, session: SessionId) -> Result<(), IngestError> {
        self.stream.try_seal_session(session)
    }

    /// The underlying stream (snapshot access, counters).
    pub fn stream(&self) -> &HistoryStream {
        &self.stream
    }

    /// The terminal state, if the stream reached it.
    pub fn rejection(&self) -> Option<&StreamRejection> {
        self.rejection.as_ref()
    }

    /// The checker's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Produce a verdict for the prefix ingested so far, re-checking only
    /// the components dirtied since the previous checkpoint.
    pub fn checkpoint(&mut self) -> CheckpointReport {
        let mut span = self.obs.tracer.span_kv("checkpoint", kv! { seq: self.checkpoints + 1 });
        let mut report = self.checkpoint_inner();
        report.terminal = self.rejection.is_some();
        let disagreement =
            matches!(report.verdict, Outcome::Inconclusive(Inconclusive::Disagreement));
        span.attr("verdict", report.verdict.kind());
        span.attr("dirty", report.dirty);
        span.attr("rebuilt", report.rebuilt);
        span.attr("disagreement", disagreement);
        report.elapsed = span.finish();
        let m = &self.obs.metrics;
        if disagreement {
            // Registered on first use, like `compact.retired_sessions`: a
            // counter is a kilobyte of stripes, and most streams never
            // need either.
            m.counter("stream.disagreements").inc();
        }
        m.counter("stream.checkpoints").inc();
        m.counter("stream.txns").add((report.txns - self.counted.0) as u64);
        m.counter("stream.ops").add((report.ops - self.counted.1) as u64);
        self.counted = (report.txns, report.ops);
        m.counter("stream.dirty_components").add(report.dirty as u64);
        m.counter("stream.rebuilt_components").add(report.rebuilt as u64);
        m.counter("compact.dropped_txns").add(report.compacted as u64);
        m.histogram_us("checkpoint.latency_us").observe_duration(report.elapsed);
        report
    }

    /// One checkpoint (`elapsed` and `terminal` left to the caller).
    fn checkpoint_inner(&mut self) -> CheckpointReport {
        self.checkpoints += 1;
        let seq = self.checkpoints;
        let (txns, ops) = (self.stream.total_pushed(), self.stream.num_ops());
        let live_txns = self.stream.len();
        // One walk over the shard structure: the transaction-bearing
        // component count, and the live tags the cache is filtered by.
        let mut components = 0usize;
        let mut live: FastSet<u64> = FastSet::default();
        for c in self.stream.shards().components() {
            components += !c.txns.is_empty() as usize;
            live.insert(c.tag);
        }
        let base = |verdict: Outcome, dirty: usize, rebuilt: usize| CheckpointReport {
            seq,
            txns,
            live_txns,
            compacted: 0,
            ops,
            components,
            dirty,
            rebuilt,
            verdict,
            terminal: false,
            elapsed: Duration::ZERO,
        };

        // Terminal state: the stable verdict, no further work.
        if let Some(rej) = &self.rejection {
            return base(rej.report.outcome.clone(), 0, 0);
        }

        // Axiom state: batch-canonical reporting, graph work skipped (the
        // cursor stays put, so a healed prefix replays the backlog).
        let facts = self.stream.facts();
        if !facts.axioms_ok() {
            if facts.axioms_can_heal() {
                let violations = self.stream.read_violations();
                return base(Outcome::AxiomViolations(violations), 0, 0);
            }
            // Monotone and watermark violations and fenced reads never
            // heal: the stream's builder classifies them once, in snapshot
            // ids, and the stream stops for good, like a cyclic violation.
            // A violation beats the fenced reads.
            let (violations, fenced) = self.stream.axiom_state();
            let outcome = if violations.is_empty() {
                debug_assert!(!fenced.is_empty(), "unhealable axiom state must have a cause");
                Outcome::Inconclusive(Inconclusive::Fenced(fenced))
            } else {
                Outcome::AxiomViolations(violations)
            };
            let every = (0..self.stream.num_sessions() as u32).map(SessionId).collect();
            return base(self.terminate(every, Tally::default().report(outcome, None)), 0, 0);
        }

        // Drop cached state for components that merged away.
        self.comps.retain(|tag, _| live.contains(tag));

        // Collect the dirty components as independent jobs: each owns its
        // cached state (if any) and its events, grouped by their *current*
        // component — the component of the transaction's session, whose
        // keys all joined it when the transaction arrived. A cached
        // component's new transactions join its member list — and get
        // their local ids — right here, so the jobs only read the
        // `local_of` column. Every job runs, even after one rejects (the
        // re-check below takes every rejecting component).
        struct DirtyJob<'a> {
            info: &'a RootInfo,
            events: Vec<FactEvent>,
            state: Option<ComponentState>,
        }
        let group_span = self.obs.tracer.span("checkpoint.group");
        let shards = self.stream.shards();
        self.local_of.resize(self.stream.len(), u32::MAX);
        let mut per_tag: BTreeMap<u64, DirtyJob<'_>> = BTreeMap::new();
        let mut job = None;
        for ev in self.stream.facts().delta(self.cursor) {
            if let FactEvent::Txn { id } = ev {
                let info = shards.component_of_session(self.stream.txn(id).session);
                let j = per_tag.entry(info.tag).or_insert_with(|| DirtyJob {
                    info,
                    events: Vec::new(),
                    state: self.comps.remove(&info.tag),
                });
                // (A rebuild numbers its whole component, below.)
                if let Some(state) = &mut j.state {
                    debug_assert!(state.txns.last().is_none_or(|&t| t < id));
                    self.local_of[id.idx()] = state.txns.len() as u32;
                    state.txns.push(id);
                }
                job = Some(j);
            }
            job.as_mut().expect("a delta opens with a transaction").events.push(ev);
        }
        let from = TxnId(self.cursor as u32);
        self.cursor = self.stream.len();
        let jobs: Vec<DirtyJob<'_>> = per_tag.into_values().collect();
        for job in jobs.iter().filter(|job| job.state.is_none()) {
            for (i, t) in job.info.txns.iter().enumerate() {
                self.local_of[t.idx()] = i as u32;
            }
        }
        drop(group_span);

        let dirty = jobs.len();
        let mut rebuilt = 0usize;
        let (mut rejected, mut sessions) = (Vec::new(), Vec::new());
        for job in jobs {
            let tag = job.info.tag;
            let was_rebuilt = job.state.is_none();
            let mut span =
                self.obs.tracer.span_kv("component", kv! { tag: tag, events: job.events.len() });
            let (state, ok) = match job.state {
                Some(mut state) => {
                    let ok = self.check_delta(&mut state, &job.events, from);
                    (state, ok)
                }
                None => self.check_rebuild(job.info),
            };
            span.attr("rebuilt", was_rebuilt);
            span.attr("ok", ok);
            drop(span);
            self.comps.insert(tag, state);
            rebuilt += was_rebuilt as usize;
            if !ok {
                rejected.push(tag);
                sessions.extend_from_slice(&job.info.sessions);
            }
        }

        if !rejected.is_empty() {
            // Canonicalize once: batch re-checks the rejecting components'
            // sessions alone, and its verdict, in the snapshot's ids, is
            // batch's on the prefix (see the module docs).
            sessions.sort_unstable();
            let (history, ids) = self.stream.history_of(&sessions);
            let obs = Obs { tracer: self.obs.tracer.clone(), metrics: Default::default() };
            let mut report =
                CheckEngine::new(self.isolation, self.opts).with_obs(obs).check(&history);
            if report.accepted() {
                // A disagreement (see the module docs): neither answer can
                // be trusted. The rejecting components' caches go, so each
                // is rebuilt when next dirty.
                self.comps.retain(|tag, _| !rejected.contains(tag));
                return base(Outcome::Inconclusive(Inconclusive::Disagreement), dirty, rebuilt);
            }
            let Outcome::CyclicViolation(v) = report.outcome else {
                unreachable!("the axioms of an accepted-so-far prefix hold: {:?}", report.outcome)
            };
            report.outcome = Outcome::CyclicViolation(v.map_txns(|t| ids[t.idx()]));
            return base(self.terminate(sessions, report), dirty, rebuilt);
        }

        // Watermark GC: the settled prefix of every fully sealed component
        // can be dropped now that the prefix is accepted. The span says
        // what it freed: transactions, whole sessions, and what the
        // duplicate-write evidence now holds.
        let compacted = {
            let mut span = self.obs.tracer.span("compact");
            let retired = self.stream.retired_sessions();
            let compacted = self.maybe_compact();
            let retired = self.stream.retired_sessions() - retired;
            span.attr("dropped", compacted);
            span.attr("retired", retired);
            span.attr("evidence_bytes", self.stream.facts().fences().heap_bytes());
            if retired > 0 {
                self.obs.metrics.counter("compact.retired_sessions").add(retired as u64);
            }
            compacted
        };
        let mut report = base(Outcome::Si, dirty, rebuilt);
        report.live_txns = self.stream.len();
        report.compacted = compacted;
        report
    }

    /// Enter the terminal state at this checkpoint, with the canonical
    /// `report` on the history of `sessions`; returns its verdict.
    fn terminate(&mut self, sessions: Vec<SessionId>, report: CheckReport) -> Outcome {
        let verdict = report.outcome.clone();
        self.rejection = Some(StreamRejection {
            sessions,
            report,
            op_index: self.stream.num_ops(),
            txn_count: self.stream.total_pushed(),
            checkpoint: self.checkpoints,
        });
        verdict
    }

    /// Compact the settled prefix of every eligible component (watermark
    /// GC). Called only after an accepted checkpoint, when the cursor is
    /// at the end of the stream.
    ///
    /// Per component, the watermark requires: every live contributing
    /// session sealed (a retired one is sealed and no longer listed, so the
    /// test costs the live sessions only), cached (accepted) pipeline state
    /// present, and a settled
    /// prefix — the complement of the *retained* set, which is the forward
    /// closure (along known dependency edges, plus each retained reader's
    /// `WR` sources) of the per-key final writers, the endpoints of the
    /// still-open constraints, and every non-committed transaction (whose
    /// writes stay readable forever). That closure makes the drop set exact: no
    /// survivor has a known edge into it, every reader of a dropped writer
    /// is dropped, and no open constraint straddles the watermark — so
    /// dropping it is a pure subgraph restriction and every later verdict,
    /// violation list, and witness equals the uncompacted run's (fence
    /// reads excepted; see [`HistoryStream::compact`]).
    fn maybe_compact(&mut self) -> usize {
        let threshold = match self.opts.compact {
            CompactMode::Off => return 0,
            CompactMode::On => 1,
            // Skip remaps that cannot pay for themselves.
            CompactMode::Auto => 64,
        };
        debug_assert_eq!(self.cursor, self.stream.len());

        // Phase 1: per-component retained sets, merged into one global
        // drop mask.
        let select_span = self.obs.tracer.span("compact.select");
        let facts = self.stream.facts().facts();
        let mut drop = vec![false; self.stream.len()];
        let mut keeps: FastMap<u64, Vec<bool>> = FastMap::default();
        let mut dropped = 0usize;
        for info in self.stream.shards().components() {
            if info.txns.is_empty() {
                continue;
            }
            let Some(state) = self.comps.get(&info.tag) else { continue };
            if !info.sessions.iter().all(|&s| self.stream.is_sealed(s)) {
                continue;
            }
            let n = state.txns.len();
            debug_assert_eq!(n, info.txns.len());
            let mut keep = vec![false; n];
            let mut stack: Vec<u32> = Vec::new();
            let mark = |i: u32, keep: &mut Vec<bool>, stack: &mut Vec<u32>| {
                if !keep[i as usize] {
                    keep[i as usize] = true;
                    stack.push(i);
                }
            };
            // Seed: the final writer of every key (later reads of the
            // key's live value must keep resolving) and the endpoints of
            // the open constraints (the undecided frontier).
            for &key in &info.keys {
                if let Some(&w) = facts.writers.get(&key).and_then(|ws| ws.last()) {
                    mark(self.local_of[w.idx()], &mut keep, &mut stack);
                }
            }
            for e in state.poly.constraints.edges() {
                mark(e.from.0, &mut keep, &mut stack);
                mark(e.to.0, &mut keep, &mut stack);
            }
            // Non-committed transactions never settle: their writes stay
            // readable forever (an aborted read is a terminal, monotone
            // violation that must still classify as one), but they are
            // invisible to `facts.writers` — so they are retained as
            // permanent fence posts rather than dropped as history.
            for (i, &gid) in state.txns.iter().enumerate() {
                if !self.stream.txn(gid).committed() {
                    mark(i as u32, &mut keep, &mut stack);
                }
            }
            // Forward closure: successors along known edges (the
            // transactions a transaction's layered nodes point at in the
            // oracle), plus the `WR` sources of retained readers (so no
            // dropped writer keeps a live reader).
            let oracle = state.oracle.as_deref().expect("live component has an oracle");
            let layers = self.isolation.semantics().layers() as u32;
            while let Some(i) = stack.pop() {
                let succ = (0..layers).flat_map(|l| oracle.layered_out(l * n as u32 + i));
                for j in succ.filter(|&j| (j as usize) < n) {
                    if !keep[j as usize] {
                        keep[j as usize] = true;
                        stack.push(j);
                    }
                }
                for &(_, _, src) in &facts.reads[state.txns[i as usize].idx()] {
                    if let WrSource::Txn(w) = src {
                        let j = self.local_of[w.idx()];
                        if !keep[j as usize] {
                            keep[j as usize] = true;
                            stack.push(j);
                        }
                    }
                }
            }
            let d = keep.iter().filter(|&&kept| !kept).count();
            if d < threshold {
                continue;
            }
            for (i, &kept) in keep.iter().enumerate() {
                if !kept {
                    drop[state.txns[i].idx()] = true;
                }
            }
            dropped += d;
            keeps.insert(info.tag, keep);
        }
        std::mem::drop(select_span);
        if dropped == 0 {
            return 0;
        }

        // Phase 2: compact the stream (facts, sessions, shard membership)
        // and re-anchor the cursor at its new end.
        let map = self.stream.compact(&drop);
        self.cursor = self.stream.len();

        // Phase 3: remap every cached component. Untouched components only
        // renumber their member list (local ids are positional and
        // unchanged). A compacted one restricts its polygraph to the
        // survivors and builds its oracle afresh over the old oracle's
        // surviving edges — the keep set is predecessor-closed, so every
        // path between survivors survives and the build answers every
        // query the old oracle did. Global ids moved for everyone, so the
        // `local_of` column is rewritten whole.
        let _remap_span = self.obs.tracer.span("compact.remap");
        for (tag, state) in self.comps.iter_mut() {
            let Some(keep) = keeps.get(tag) else {
                for id in state.txns.iter_mut() {
                    *id = TxnId(map[id.idx()]);
                }
                continue;
            };
            let survivors: Vec<usize> = (0..keep.len()).filter(|&i| keep[i]).collect();
            let mut lmap = vec![u32::MAX; keep.len()];
            for (new, &old) in survivors.iter().enumerate() {
                lmap[old] = new as u32;
            }
            let oracle = state.oracle.take().expect("live component has an oracle");
            state.oracle = Some(state.poly.compact(oracle, &lmap, survivors.len()));
            state.txns = survivors.iter().map(|&i| TxnId(map[state.txns[i].idx()])).collect();
        }
        self.comps.retain(|_, s| !s.txns.is_empty());
        self.local_of.clear();
        self.local_of.resize(self.stream.len(), u32::MAX);
        for state in self.comps.values() {
            for (i, t) in state.txns.iter().enumerate() {
                self.local_of[t.idx()] = i as u32;
            }
        }
        dropped
    }

    /// First sight of a component (or a post-merge rebuild): construct
    /// and run the full staged pipeline on it. Returns the cached state
    /// and whether the component accepted.
    fn check_rebuild(&self, info: &RootInfo) -> (ComponentState, bool) {
        let facts = self.stream.facts().facts();
        let tracer = &self.obs.tracer;
        let construct_span = tracer.span("construct");
        let mut keys = info.keys.clone();
        keys.sort_unstable();
        let comp =
            ShardComponent { sessions: info.sessions.clone(), txns: info.txns.clone(), keys };
        let so: Vec<(TxnId, TxnId)> = comp
            .txns
            .iter()
            .filter_map(|&t| self.stream.session_predecessor(t).map(|p| (p, t)))
            .collect();
        let local = |t: TxnId| comp.local(t).expect("edge endpoint outside its component");
        let (mut poly, gen) = Polygraph::from_component(
            &so,
            facts,
            self.opts.mode,
            self.isolation.semantics(),
            &comp,
            &local,
        );
        drop(construct_span);
        let (verdict, tally, oracle) = run_unit(&mut poly, Some(Prune::Scratch(Some(gen))), tracer);
        tally.record(&self.obs.metrics);
        let state = ComponentState { txns: comp.txns, poly, oracle };
        (state, matches!(verdict, UnitVerdict::Accepted))
    }

    /// The local id of a transaction within its component: one read of the
    /// `local_of` column.
    fn local(&self, t: TxnId) -> TxnId {
        TxnId(self.local_of[t.idx()])
    }

    /// Delta path: extend the cached polygraph and oracle with the
    /// component's new events — those of its transactions with arrival id
    /// `from` and later — then hand them to the shared runner, which
    /// resumes pruning from the touched set and re-encodes and re-solves
    /// what survives. Returns whether the component accepted. Every step
    /// costs the delta (or the surviving constraints), and each is a
    /// `delta.*` span under the component's.
    ///
    /// Constraint maintenance distinguishes three cases per affected
    /// writer pair:
    ///
    /// * **new pair** (a new writer joined the key, so the pair's later
    ///   writer is at `from` or later): a fresh generalized constraint over
    ///   the current reader sets — it cannot pre-exist;
    /// * **decided pair** gaining a reader (one writer already reaches the
    ///   other in the oracle): the resolution is fixed in every compatible
    ///   graph, so the new reader's anti-dependency lands directly as a
    ///   known edge — no constraint regeneration, no re-resolution;
    /// * **open pair** gaining a reader: the surviving constraint is
    ///   dropped and regenerated over the grown reader sets.
    ///
    /// New and regenerated pairs are never stored here: a
    /// [`ConstraintGen::delta`] generates them straight into the resumed
    /// prune's first pass, which stores only those it leaves open.
    fn check_delta(&self, state: &mut ComponentState, events: &[FactEvent], from: TxnId) -> bool {
        let facts = self.stream.facts().facts();
        let semantics = self.isolation.semantics();
        let tracer = &self.obs.tracer;

        let events_span = tracer.span("delta.events");
        // Known edges in global ids, and `(key, writer, reader)` reads.
        let mut new_known: Vec<Edge> = Vec::new();
        let mut reader_growth: Vec<(Key, TxnId, TxnId)> = Vec::new();
        for &ev in events {
            match ev {
                FactEvent::Txn { id } => {
                    // Already a member (the grouping loop appended it).
                    debug_assert_eq!(state.txns[self.local(id).idx()], id);
                    if let Some(p) = self.stream.session_predecessor(id) {
                        new_known.push(Edge::new(p, id, Label::So));
                    }
                }
                FactEvent::FinalWrite { key, writer } => {
                    // Its pairs with the key's earlier writers are
                    // generated below. Init readers (past and in-batch;
                    // dedup below) gain a known anti-dependency to it.
                    if let Some(rs) = facts.init_readers.get(&key) {
                        for &r in rs {
                            if r != writer {
                                new_known.push(Edge::new(r, writer, Label::Rw(key)));
                            }
                        }
                    }
                }
                FactEvent::Wr { key, writer, reader } => {
                    new_known.push(Edge::new(writer, reader, Label::Wr(key)));
                    if semantics == polysi_polygraph::Semantics::Ser
                        && facts.writes_key(reader, key)
                    {
                        new_known.push(Edge::new(writer, reader, Label::Ww(key)));
                    }
                    reader_growth.push((key, writer, reader));
                }
                FactEvent::InitRead { key, reader } => {
                    // Writers up to the reader are in constraints by now;
                    // later ones pick it up from `init_readers`.
                    let writers = facts.writers.get(&key).map_or(&[][..], Vec::as_slice);
                    let seen = writers.partition_point(|&w| w <= reader);
                    for &w in &writers[..seen] {
                        if w != reader {
                            new_known.push(Edge::new(reader, w, Label::Rw(key)));
                        }
                    }
                }
            }
        }
        drop(events_span);

        // Grow the vertex space (the oracle re-resolves its representation
        // for the new size here).
        let n = state.txns.len();
        state.poly.n = n;
        let mut oracle = state.oracle.take().expect("live component has an oracle");
        {
            let mut span = tracer.span("delta.grow");
            let kind = oracle.oracle_kind();
            oracle.grow(n);
            span.attr("kind", oracle.oracle_kind().name());
            span.attr("converted", oracle.oracle_kind() != kind);
        }

        // Land the edge delta (dedup + localize) so reachability reflects
        // this checkpoint's knowns. The oracle keeps only the edges its
        // paths do not already imply; every delta edge still marks the
        // resume worklist. Each event fires
        // once, so an edge can repeat only within a batch (an init read
        // and a final write landing together name the same
        // anti-dependency) — hence the local set.
        let mut touched = vec![false; n];
        let mut landed: FastSet<Edge> = FastSet::default();
        {
            let mut span = tracer.span("delta.insert");
            let reorders = oracle.reorders();
            let mut delta: Vec<Edge> = Vec::with_capacity(new_known.len());
            for e in new_known {
                let le = Edge::new(self.local(e.from), self.local(e.to), e.label);
                if landed.insert(le) {
                    touched[le.from.idx()] = true;
                    touched[le.to.idx()] = true;
                    delta.push(le);
                }
            }
            if oracle.insert_edges(&delta, Flush::AtEnd).is_err() {
                return false; // terminal; the canonical witness comes from batch
            }
            span.attr("reordered", oracle.reorders() - reorders);
        }

        let mut constraints_span = tracer.span("delta.constraints");
        // Reader growth against pre-existing pairs: decided pairs take the
        // new anti-dependency as a direct known edge, open pairs are
        // marked for regeneration. A pair whose later writer arrived in
        // this delta is new: its constraint carries the reader already.
        let mut regen: FastSet<(Key, TxnId, TxnId)> = FastSet::default();
        let mut follow_on: Vec<Edge> = Vec::new(); // local ids
        for &(key, w, r) in &reader_growth {
            let (lw, lr) = (self.local(w), self.local(r));
            for &w2 in &facts.writers[&key] {
                if w2 == w || w.max(w2) >= from {
                    continue;
                }
                let lw2 = self.local(w2);
                if oracle.reaches(lw, lw2) {
                    // `w` precedes `w2` in every compatible graph, so the
                    // new reader of `w` must too (the prune rule's forced
                    // conclusion, applied directly).
                    if r != w2 {
                        let e = Edge::new(lr, lw2, Label::Rw(key));
                        if landed.insert(e) {
                            touched[e.from.idx()] = true;
                            touched[e.to.idx()] = true;
                            follow_on.push(e);
                        }
                    }
                } else if !oracle.reaches(lw2, lw) {
                    regen.insert(if w < w2 { (key, w, w2) } else { (key, w2, w) });
                }
                // `w2 ⇝ w`: readers of `w` are unconstrained against `w2`
                // on this side; nothing to do.
            }
        }
        let reorders = oracle.reorders();
        if !follow_on.is_empty() && oracle.insert_edges(&follow_on, Flush::AtEnd).is_err() {
            return false;
        }
        constraints_span.attr("reordered", oracle.reorders() - reorders);

        // Open pairs: drop the survivor, to be regenerated over the grown
        // reader sets in pair order (re-resolution is impossible here —
        // neither direction is reachable — so no duplicate work is
        // queued).
        if !regen.is_empty() {
            state.poly.constraints.retain(|_, c| {
                let ww = c.either[0];
                debug_assert!(matches!(ww.label, Label::Ww(_)));
                let (t, s) = (state.txns[ww.from.idx()], state.txns[ww.to.idx()]);
                let pair = if t < s { (c.key, t, s) } else { (c.key, s, t) };
                !regen.contains(&pair)
            });
        }
        let mut regen: Vec<(Key, TxnId, TxnId)> = regen.into_iter().collect();
        regen.sort_unstable();
        let writes = events.iter().filter_map(|ev| match *ev {
            FactEvent::FinalWrite { key, writer } => Some((key, writer)),
            _ => None,
        });
        let gen = ConstraintGen::delta(facts, writes, &regen, |t| self.local(t));
        drop(constraints_span);

        let prune = Some(Prune::Resume(oracle, &touched, gen));
        let (verdict, tally, oracle) = run_unit(&mut state.poly, prune, tracer);
        tally.record(&self.obs.metrics);
        state.oracle = oracle;
        matches!(verdict, UnitVerdict::Accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::Anomaly;
    use crate::engine::check;
    use polysi_history::{AxiomViolation, Facts, Value};

    fn k(n: u64) -> Key {
        Key(n)
    }
    fn v(n: u64) -> Value {
        Value(n)
    }
    fn w(key: u64, value: u64) -> Op {
        Op::Write { key: k(key), value: v(value) }
    }
    fn r(key: u64, value: u64) -> Op {
        Op::Read { key: k(key), value: v(value) }
    }

    fn assert_matches_batch(c: &mut StreamingChecker) -> bool {
        let (prefix, _) = c.stream().snapshot();
        let batch = check(&prefix, c.isolation(), &EngineOptions::default());
        let cp = c.checkpoint();
        assert_eq!(
            cp.verdict.accepted(),
            batch.accepted(),
            "checkpoint {} diverged from batch on {} txns",
            cp.seq,
            cp.txns
        );
        cp.verdict.accepted()
    }

    /// A clean two-component stream stays accepted at every checkpoint;
    /// per-component state is delta-extended, not rebuilt.
    #[test]
    fn clean_stream_accepts_at_every_checkpoint() {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let s0 = c.session();
        let s1 = c.session();
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        c.push_transaction(s1, vec![w(10, 1)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!((cp.dirty, cp.rebuilt, cp.components), (2, 2, 2));
        for i in 2..6u64 {
            c.push_transaction(s0, vec![r(1, i - 1), w(1, i)], TxnStatus::Committed);
            c.push_transaction(s1, vec![r(10, i - 1), w(10, i)], TxnStatus::Committed);
            let cp = c.checkpoint();
            assert!(cp.verdict.accepted());
            assert_eq!((cp.dirty, cp.rebuilt), (2, 0), "growth must take the delta path");
            assert_matches_batch(&mut c);
        }
    }

    /// A lost update whose stale second write arrives last: accepted at
    /// every earlier checkpoint, terminally rejected at the flip, with the
    /// canonical report equal to a batch check of the rejecting prefix.
    #[test]
    fn late_anomaly_flips_exactly_once() {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let s0 = c.session();
        let s1 = c.session();
        let s2 = c.session();
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        c.push_transaction(s1, vec![r(1, 1), w(1, 2)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        c.push_transaction(s2, vec![r(1, 1), w(1, 3)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(cp.terminal);
        let Outcome::CyclicViolation(v) = &cp.verdict else {
            panic!("lost update must reject");
        };
        assert_eq!(v.anomaly, Anomaly::LostUpdate);
        let rej = c.rejection().expect("terminal rejection recorded");
        assert!(!rej.report.accepted());
        assert_eq!((rej.checkpoint, rej.op_index), (3, 5));
        // Stable thereafter, even as more (clean) transactions arrive.
        c.push_transaction(s0, vec![w(2, 9)], TxnStatus::Committed);
        let again = c.checkpoint();
        assert!(again.terminal);
        assert_eq!(format!("{:?}", again.verdict), format!("{:?}", cp.verdict));
        assert_eq!(again.dirty, 0);
    }

    /// A bridging transaction merges two components; the merged component
    /// is rebuilt and the verdict still matches batch.
    #[test]
    fn merges_rebuild_and_match_batch() {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let s0 = c.session();
        let s1 = c.session();
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        c.push_transaction(s1, vec![w(10, 1)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        c.push_transaction(s0, vec![r(1, 1), r(10, 1), w(1, 2)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!((cp.dirty, cp.rebuilt, cp.components), (1, 1, 1), "merge forces a rebuild");
        assert_matches_batch(&mut c);
    }

    /// Reads arriving before their writers surface as (healable) axiom
    /// violations, then the stream recovers and keeps checking.
    #[test]
    fn axiom_break_heals_and_checking_resumes() {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let s0 = c.session();
        let s1 = c.session();
        c.push_transaction(s0, vec![r(1, 7)], TxnStatus::Committed);
        let cp = c.checkpoint();
        let Outcome::AxiomViolations(violations) = cp.verdict else {
            panic!("unresolved read must fail the axioms");
        };
        assert!(!cp.terminal);
        assert!(matches!(violations[0], AxiomViolation::UnknownValueRead { .. }));
        c.push_transaction(s1, vec![w(1, 7)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        // The late WR edge is really in the graph: a stale RMW pair on the
        // same key must now reject.
        c.push_transaction(s0, vec![r(1, 7), w(1, 8)], TxnStatus::Committed);
        c.push_transaction(s1, vec![r(1, 7), w(1, 9)], TxnStatus::Committed);
        assert!(!c.checkpoint().verdict.accepted());
    }

    /// Two transactions in different sessions both wrote the value 5 that
    /// a committed read returns, and arrived in the reverse of
    /// session-major order (`ops[1]`, of session 1, first): the healable
    /// checkpoint names the session-major-last of them, as batch on the
    /// snapshot does, not the last to arrive.
    fn healable_violations(ops: [Vec<Op>; 2], status: TxnStatus) -> Vec<AxiomViolation> {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let (s0, s1, s2) = (c.session(), c.session(), c.session());
        let [first, second] = ops;
        c.push_transaction(s1, second, status);
        c.push_transaction(s0, first, status);
        c.push_transaction(s2, vec![r(1, 5)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(!cp.terminal, "a read waiting for its writer can heal");
        let (prefix, map) = c.stream().snapshot();
        assert_eq!(map, [TxnId(1), TxnId(0), TxnId(2)]);
        let Outcome::AxiomViolations(violations) = cp.verdict else {
            panic!("the read has no committed writer");
        };
        assert_eq!(violations, Facts::analyze(&prefix).violations);
        violations
    }

    #[test]
    fn a_healable_checkpoint_names_the_canonical_aborted_writer() {
        let aborted = || vec![w(1, 5)];
        assert_eq!(
            healable_violations([aborted(), aborted()], TxnStatus::Aborted),
            [AxiomViolation::AbortedRead {
                reader: TxnId(2),
                writer: TxnId(1),
                key: k(1),
                value: v(5)
            }]
        );
    }

    #[test]
    fn a_healable_checkpoint_names_the_canonical_intermediate_writer() {
        let overwrites = |last| vec![w(1, 5), w(1, last)];
        assert_eq!(
            healable_violations([overwrites(6), overwrites(7)], TxnStatus::Committed),
            [AxiomViolation::IntermediateRead {
                reader: TxnId(2),
                writer: TxnId(1),
                key: k(1),
                value: v(5)
            }]
        );
    }

    /// A read that waits for its writer across a checkpoint heals into a
    /// cached component: the delta path sees its `WR` edge at the writer's
    /// turn, closes the cycle it makes and rejects as batch does.
    #[test]
    fn a_read_healed_on_the_delta_path_lands() {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let s0 = c.session();
        let s1 = c.session();
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        c.push_transaction(s1, vec![r(1, 7)], TxnStatus::Committed); // waits for its writer
        c.push_transaction(s1, vec![w(2, 1)], TxnStatus::Committed); // r2
        let cp = c.checkpoint();
        assert!(matches!(cp.verdict, Outcome::AxiomViolations(_)) && !cp.terminal);
        // w7 heals the read and closes w7 →WR r →SO r2 →WR w7.
        c.push_transaction(s0, vec![r(2, 1), w(1, 7)], TxnStatus::Committed);
        let (prefix, _) = c.stream().snapshot();
        let cp = c.checkpoint();
        assert_eq!((cp.dirty, cp.rebuilt), (1, 0), "the healed component takes the delta path");
        let Outcome::CyclicViolation(v) = &cp.verdict else {
            panic!("the healed read closes a cycle: {:?}", cp.verdict);
        };
        let batch = check(&prefix, IsolationLevel::Si, &EngineOptions::default());
        let Outcome::CyclicViolation(b) = &batch.outcome else { panic!("batch rejects") };
        assert_eq!(v.anomaly, b.anomaly);
    }

    /// A delta detector that rejects a prefix the batch engine accepts is
    /// a checker bug: in every build the checkpoint is inconclusive, the
    /// case is counted and marked on its checkpoint span, and the next
    /// checkpoint rebuilds from scratch and accepts.
    #[test]
    fn a_detector_disagreement_is_counted() {
        let obs = Obs::enabled();
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default())
            .with_obs(obs.clone());
        let s0 = c.session();
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        // Corrupt the cached component: a known edge from the session's
        // next transaction (local id 1) back to its first, which the
        // coming session-order edge closes into a cycle no batch check
        // sees.
        let state = c.comps.values_mut().next().expect("one cached component");
        let oracle = state.oracle.as_mut().expect("accepted state");
        oracle.grow(2);
        let poison = [Edge::new(TxnId(1), TxnId(0), Label::So)];
        oracle.insert_edges(&poison, Flush::AtEnd).expect("still acyclic");
        c.push_transaction(s0, vec![w(1, 2)], TxnStatus::Committed);

        let cp = c.checkpoint();
        assert!(matches!(cp.verdict, Outcome::Inconclusive(Inconclusive::Disagreement)));
        assert!(!cp.terminal && c.rejection().is_none());
        assert_eq!(obs.metrics.counter("stream.disagreements").total(), 1);
        let forest = polysi_obs::span::span_forest(&obs.tracer.events()).expect("well-nested");
        let marks: Vec<(bool, bool)> = forest
            .iter()
            .filter(|n| n.name == "checkpoint")
            .map(|n| {
                let disagreement = n.attrs.iter().any(|a| *a == ("disagreement", true.into()));
                (disagreement, n.attrs.iter().any(|a| *a == ("verdict", "inconclusive".into())))
            })
            .collect();
        assert_eq!(marks, [(false, false), (true, true)]);

        // The caches were dropped: the next checkpoint rebuilds and agrees.
        c.push_transaction(s0, vec![w(1, 3)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!((cp.dirty, cp.rebuilt), (1, 1));
        assert_eq!(obs.metrics.counter("stream.disagreements").total(), 1);
    }

    /// Only the components that rejected lose their caches to a
    /// disagreement: a poisoned component is rebuilt when next dirty, and
    /// a clean one dirtied at the same checkpoint keeps its delta path.
    #[test]
    fn a_disagreement_drops_only_the_rejecting_caches() {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let (s0, s1) = (c.session(), c.session());
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        c.push_transaction(s1, vec![w(10, 1)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        let tag = |c: &StreamingChecker, s| c.stream().shards().component_of_session(s).tag;
        let (poisoned, clean) = (tag(&c, s0), tag(&c, s1));
        // The poison of `a_detector_disagreement_is_counted`, in `s0`'s
        // component only.
        let oracle = c.comps.get_mut(&poisoned).and_then(|s| s.oracle.as_mut()).expect("cached");
        oracle.grow(2);
        let poison = [Edge::new(TxnId(1), TxnId(0), Label::So)];
        oracle.insert_edges(&poison, Flush::AtEnd).expect("still acyclic");
        c.push_transaction(s0, vec![w(1, 2)], TxnStatus::Committed);
        c.push_transaction(s1, vec![w(10, 2)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(matches!(cp.verdict, Outcome::Inconclusive(Inconclusive::Disagreement)));
        assert_eq!(cp.dirty, 2);
        assert!(!c.comps.contains_key(&poisoned) && c.comps.contains_key(&clean));

        c.push_transaction(s0, vec![w(1, 3)], TxnStatus::Committed);
        c.push_transaction(s1, vec![w(10, 3)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!((cp.dirty, cp.rebuilt), (2, 1), "only the poisoned component is rebuilt");
        assert_local_of_matches_search(&c);
    }

    /// A lost update in one of two components: the terminal report is the
    /// re-check of that component's sessions alone, its witness in the
    /// snapshot's ids — batch's on the whole prefix — and its stage
    /// objects those of the rejecting component.
    #[test]
    fn a_rejection_re_checks_only_the_rejecting_component() {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let (clean, s1, s2) = (c.session(), c.session(), c.session());
        for v in 1..=4 {
            c.push_transaction(clean, vec![r(10, v - 1), w(10, v)], TxnStatus::Committed);
        }
        c.push_transaction(s1, vec![w(1, 1)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        c.push_transaction(s1, vec![r(1, 1), w(1, 2)], TxnStatus::Committed);
        c.push_transaction(s2, vec![r(1, 1), w(1, 3)], TxnStatus::Committed);
        let (prefix, _) = c.stream().snapshot();
        let cp = c.checkpoint();
        let batch = check(&prefix, IsolationLevel::Si, &EngineOptions::default());
        assert_eq!(format!("{:?}", cp.verdict), format!("{:?}", batch.outcome));
        let rej = c.rejection().expect("terminal");
        assert_eq!(rej.sessions, [s1, s2]);
        let (rechecked, _) = c.stream().history_of(&rej.sessions);
        assert_eq!(rechecked.len(), 3);
        let alone = check(&rechecked, IsolationLevel::Si, &EngineOptions::default());
        assert_eq!(rej.report.shard_stats, alone.shard_stats);
        assert_ne!(rej.report.shard_stats, batch.shard_stats, "the prefix has two components");
    }

    /// A compacted value re-written after a compaction is named in the
    /// snapshot's ids, like every other axiom violation: `sa`'s second
    /// transaction is `T1` there, while the arrival id it had (`T3`) is
    /// `sb`'s unrelated write.
    #[test]
    fn a_watermark_violation_is_named_in_snapshot_ids() {
        let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
        let mut c = StreamingChecker::new(IsolationLevel::Si, opts);
        let (sa, s0) = (c.session(), c.session());
        c.push_transaction(sa, vec![w(20, 1)], TxnStatus::Committed);
        for value in 1..=3 {
            c.push_transaction(s0, vec![w(1, value)], TxnStatus::Committed);
        }
        c.seal_session(s0);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted() && cp.compacted == 2);
        let sb = c.session();
        c.push_transaction(sb, vec![w(30, 1)], TxnStatus::Committed);
        c.push_transaction(sa, vec![w(20, 2), w(1, 1)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(cp.terminal);
        let rewrite =
            AxiomViolation::CompactedDuplicateWrite { txn: TxnId(1), key: k(1), value: v(1) };
        let Outcome::AxiomViolations(violations) = cp.verdict else { panic!("{:?}", cp.verdict) };
        assert_eq!(violations, [rewrite]);
    }

    /// An unhealable prefix never reaches the graph stages: a fenced
    /// initial-value read arrives with a lost update that a batch check of
    /// the compacted snapshot rejects, and the stream names the refused
    /// read, with no stage object, instead of the cycle.
    #[test]
    fn an_unhealable_prefix_never_reaches_the_graph_stages() {
        let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
        let mut c = StreamingChecker::new(IsolationLevel::Si, opts);
        let s0 = c.session();
        for value in 1..=3 {
            c.push_transaction(s0, vec![w(1, value)], TxnStatus::Committed);
        }
        c.seal_session(s0);
        assert_eq!(c.checkpoint().compacted, 2);
        let (s1, s2, s3) = (c.session(), c.session(), c.session());
        c.push_transaction(s1, vec![r(1, 0), w(5, 1)], TxnStatus::Committed);
        c.push_transaction(s2, vec![r(5, 1), w(5, 2)], TxnStatus::Committed);
        c.push_transaction(s3, vec![r(5, 1), w(5, 3)], TxnStatus::Committed);
        let (prefix, _) = c.stream().snapshot();
        assert!(matches!(
            check(&prefix, c.isolation(), &opts).outcome,
            Outcome::CyclicViolation(_)
        ));
        let cp = c.checkpoint();
        let fenced = Inconclusive::Fenced(vec![(TxnId(1), k(1), Value::INIT)]);
        assert!(matches!(&cp.verdict, Outcome::Inconclusive(why) if *why == fenced));
        let rej = c.rejection().expect("terminal");
        assert!(rej.report.prune_stats.is_none() && rej.report.shard_stats.is_none());
        assert_eq!(rej.sessions.len(), 4);
    }

    /// Monotone axiom violations are terminal.
    #[test]
    fn monotone_axiom_violation_is_terminal() {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let s0 = c.session();
        c.push_transaction(s0, vec![w(1, 5)], TxnStatus::Committed);
        c.push_transaction(s0, vec![w(1, 5)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(matches!(cp.verdict, Outcome::AxiomViolations(_)) && cp.terminal);
        assert!(c.rejection().is_some());
    }

    /// Watermark GC: a sealed component's settled prefix is dropped, the
    /// stream keeps checking against the survivors, and counters stay
    /// monotone.
    #[test]
    fn compaction_drops_settled_prefix_and_keeps_checking() {
        let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
        let mut c = StreamingChecker::new(IsolationLevel::Si, opts);
        let s0 = c.session();
        let s1 = c.session();
        // Component A: three blind writes on key 1, ordered by session
        // order; the settled prefix is everything but the final writer.
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        c.push_transaction(s0, vec![w(1, 2)], TxnStatus::Committed);
        c.push_transaction(s0, vec![w(1, 3)], TxnStatus::Committed);
        // Component B stays live.
        c.push_transaction(s1, vec![w(10, 1)], TxnStatus::Committed);
        c.seal_session(s0);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!(cp.compacted, 2, "settled prefix below the final writer is dropped");
        assert_eq!((cp.txns, cp.live_txns), (4, 2));

        // Later transactions resolve against the surviving final writer,
        // and the verdict still matches batch on the compacted snapshot.
        let s2 = c.session();
        c.push_transaction(s2, vec![r(1, 3), w(1, 4)], TxnStatus::Committed);
        c.push_transaction(s1, vec![r(10, 1), w(10, 2)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!(cp.txns, 6, "txns count stays monotone across compaction");
        assert_matches_batch(&mut c);
        // A stale RMW against the surviving writer still rejects.
        let s3 = c.session();
        c.push_transaction(s3, vec![r(1, 3), w(1, 5)], TxnStatus::Committed);
        let cp = c.checkpoint();
        assert!(
            matches!(&cp.verdict, Outcome::CyclicViolation(v) if v.anomaly == Anomaly::LostUpdate)
        );
    }

    /// The watermark refuses to cross open reads: an RMW chain keeps every
    /// read's source alive, so nothing is dropped even when fully sealed.
    #[test]
    fn compaction_refuses_to_cross_open_reads() {
        let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
        let mut c = StreamingChecker::new(IsolationLevel::Si, opts);
        let s0 = c.session();
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        c.push_transaction(s0, vec![r(1, 1), w(1, 2)], TxnStatus::Committed);
        c.push_transaction(s0, vec![r(1, 2), w(1, 3)], TxnStatus::Committed);
        c.seal_session(s0);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!(cp.compacted, 0, "every prefix txn is a WR source of a survivor");
        assert_eq!(cp.live_txns, 3);
    }

    /// `Auto` defers compactions too small to pay for the remap; `On`
    /// takes them.
    #[test]
    fn auto_compaction_defers_small_drops() {
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let s0 = c.session();
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        c.push_transaction(s0, vec![w(1, 2)], TxnStatus::Committed);
        c.seal_session(s0);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!(cp.compacted, 0, "one droppable txn is below the auto threshold");
        assert_eq!(cp.live_txns, 2);
    }

    /// An initial-value read below the watermark leaves the stream
    /// terminally inconclusive, naming the refused read (batch cannot
    /// check it: the compacted snapshot no longer shows the dropped
    /// writers) — never a violation of a history nothing rejects.
    #[test]
    fn fenced_init_read_is_terminally_inconclusive() {
        let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
        let mut c = StreamingChecker::new(IsolationLevel::Si, opts);
        let s0 = c.session();
        c.push_transaction(s0, vec![w(1, 1)], TxnStatus::Committed);
        c.push_transaction(s0, vec![w(1, 2)], TxnStatus::Committed);
        c.push_transaction(s0, vec![w(1, 3)], TxnStatus::Committed);
        c.seal_session(s0);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!(cp.compacted, 2);
        let s1 = c.session();
        c.push_transaction(s1, vec![r(1, 0)], TxnStatus::Committed);
        let cp = c.checkpoint();
        // The snapshot's ids: the survivor of `s0` is T0, the reader T1.
        let fenced = Inconclusive::Fenced(vec![(TxnId(1), k(1), Value::INIT)]);
        assert!(matches!(&cp.verdict, Outcome::Inconclusive(why) if *why == fenced));
        assert!(cp.terminal);
        let rej = c.rejection().expect("a fenced read is terminal");
        assert!(matches!(&rej.report.outcome, Outcome::Inconclusive(why) if *why == fenced));
        // Stable thereafter.
        c.push_transaction(s1, vec![w(2, 1)], TxnStatus::Committed);
        let again = c.checkpoint();
        assert!(matches!(again.verdict, Outcome::Inconclusive(_)) && again.terminal);
    }

    /// Compacted and uncompacted runs of the same stream produce the same
    /// verdicts and monotone counters at every checkpoint.
    #[test]
    fn compaction_is_verdict_invisible() {
        let run = |mode: CompactMode| {
            let opts = EngineOptions { compact: mode, ..EngineOptions::default() };
            let mut c = StreamingChecker::new(IsolationLevel::Si, opts);
            let mut digest: Vec<(usize, usize, bool)> = Vec::new();
            let s0 = c.session();
            let s1 = c.session();
            for i in 0..6u64 {
                if i < 3 {
                    c.push_transaction(s0, vec![w(1, i + 1)], TxnStatus::Committed);
                }
                c.push_transaction(s1, vec![w(10, i + 1), r(10, i + 1)], TxnStatus::Committed);
                if i == 2 {
                    c.seal_session(s0);
                    let s2 = c.session();
                    c.push_transaction(s2, vec![r(1, 3), w(1, 100)], TxnStatus::Committed);
                    c.seal_session(s2);
                }
                let cp = c.checkpoint();
                digest.push((cp.txns, cp.ops, cp.verdict.accepted()));
            }
            digest
        };
        assert_eq!(run(CompactMode::Off), run(CompactMode::On));
        assert_eq!(run(CompactMode::Off), run(CompactMode::Auto));
    }

    /// SER streaming rejects a write-skew chain SI accepts, at the same
    /// checkpoint a batch SER check first would.
    #[test]
    fn ser_stream_rejects_write_skew_chain() {
        let run = |isolation: IsolationLevel| {
            let mut c = StreamingChecker::new(isolation, EngineOptions::default());
            let sessions: Vec<SessionId> = (0..4).map(|_| c.session()).collect();
            c.push_transaction(sessions[0], vec![w(1, 1), w(2, 2), w(3, 3)], TxnStatus::Committed);
            assert!(assert_matches_batch(&mut c));
            c.push_transaction(sessions[1], vec![r(1, 1), w(2, 22)], TxnStatus::Committed);
            assert!(assert_matches_batch(&mut c));
            c.push_transaction(sessions[2], vec![r(2, 2), w(3, 33)], TxnStatus::Committed);
            assert!(assert_matches_batch(&mut c));
            c.push_transaction(sessions[3], vec![r(3, 3), w(1, 11)], TxnStatus::Committed);
            assert_matches_batch(&mut c)
        };
        assert!(run(IsolationLevel::Si), "write skew is SI-allowed");
        assert!(!run(IsolationLevel::Ser), "write skew chain is not serializable");
    }
    /// A serial execution: every read names the latest committed write of
    /// its key (the initial value before any) and every write a fresh
    /// value, so any prefix — dealt to any sessions — satisfies SI.
    #[derive(Default)]
    struct Serial {
        latest: std::collections::HashMap<u64, u64>,
        values: u64,
    }

    impl Serial {
        fn txn(&mut self, reads: &[u64], writes: &[u64]) -> Vec<Op> {
            let mut ops: Vec<Op> = reads
                .iter()
                .map(|key| r(*key, self.latest.get(key).copied().unwrap_or(0)))
                .collect();
            for &key in writes {
                self.values += 1;
                self.latest.insert(key, self.values);
                ops.push(w(key, self.values));
            }
            ops
        }
    }

    /// The total of the registry counter `name`.
    fn total(obs: &Obs, name: &str) -> u64 {
        obs.metrics.counter(name).total()
    }

    /// The cached oracle of a single-component stream.
    fn only_oracle(c: &StreamingChecker) -> &KnownGraph {
        assert_eq!(c.comps.len(), 1, "one component");
        c.comps.values().next().and_then(|s| s.oracle.as_deref()).expect("accepted state")
    }

    /// The oracle the prune stage of a batch check of the checker's
    /// current snapshot builds.
    fn batch_oracle(c: &StreamingChecker) -> Box<KnownGraph> {
        let (prefix, _) = c.stream().snapshot();
        let facts = Facts::analyze(&prefix);
        let mut g = Polygraph::from_history(&prefix, &facts, ConstraintMode::Generalized);
        let (_, oracle) = g.prune(&polysi_obs::Tracer::disabled());
        oracle.expect("an accepted prefix prunes")
    }

    /// A 20-session component first seen at 256 transactions and grown to
    /// 4 096: at every checkpoint the verdict is batch's and the cached
    /// oracle has the representation a batch check of the same prefix
    /// picks — dense below the threshold, chains from 1 024 on, at a
    /// fraction of the bytes a dense oracle of that size holds (≥ 6 MiB).
    #[test]
    fn streamed_oracle_follows_growth_like_a_batch_check() {
        use polysi_polygraph::OracleKind;
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default());
        let sessions: Vec<SessionId> = (0..20).map(|_| c.session()).collect();
        let mut serial = Serial::default();
        let mut kinds = Vec::new();
        for j in 0..4096u64 {
            let s = j % 20;
            // A key of its own, and a read of the previous transaction's
            // (another session's): one component, one writer per key.
            // Every eighth round a session also updates the hot key it
            // owns.
            let own = 1_000 + j;
            let (mut reads, mut writes) = (vec![own - 1], vec![own]);
            if (j / 20) % 8 == 0 {
                reads.push(1 + s);
                writes.push(1 + s);
            }
            c.push_transaction(
                sessions[s as usize],
                serial.txn(&reads[(j == 0) as usize..], &writes),
                TxnStatus::Committed,
            );
            if (j + 1) % 256 == 0 {
                assert!(assert_matches_batch(&mut c));
                let kind = only_oracle(&c).oracle_kind();
                assert_eq!(kind, batch_oracle(&c).oracle_kind(), "at {} transactions", j + 1);
                kinds.push(kind);
            }
        }
        assert_eq!(kinds[..3], [OracleKind::Dense; 3]);
        assert_eq!(kinds[3..], [OracleKind::Chains; 13], "chains from 1 024 transactions on");
        let bytes = only_oracle(&c).oracle_bytes();
        assert!(bytes <= 2 << 20, "chain oracle holds {bytes} B");
    }

    /// A 20-session component checked on chains at 1 100 transactions,
    /// then sealed: compaction keeps its 20 final writers, and the oracle
    /// it keeps for them is the one a batch check of the compacted
    /// snapshot builds — dense, at no more bytes — not the chains it had.
    #[test]
    fn a_compacted_oracle_follows_the_batch_rule() {
        use polysi_polygraph::OracleKind;
        let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
        let mut c = StreamingChecker::new(IsolationLevel::Si, opts);
        let sessions: Vec<SessionId> = (0..20).map(|_| c.session()).collect();
        let mut serial = Serial::default();
        for j in 0..1_100u64 {
            // Each session overwrites a key of its own; its first
            // transaction also reads the next session's key, which ties
            // the twenty into one component.
            let s = j % 20;
            let reads = if j < 20 { vec![1 + (s + 1) % 20] } else { Vec::new() };
            let ops = serial.txn(&reads, &[1 + s]);
            c.push_transaction(sessions[s as usize], ops, TxnStatus::Committed);
        }
        assert!(assert_matches_batch(&mut c));
        assert_eq!(only_oracle(&c).oracle_kind(), OracleKind::Chains);
        for &s in &sessions {
            c.seal_session(s);
        }
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted());
        assert_eq!((cp.compacted, cp.live_txns), (1_080, 20));
        let (oracle, batch) = (only_oracle(&c), batch_oracle(&c));
        assert_eq!(oracle.oracle_kind(), OracleKind::Dense);
        assert_eq!(batch.oracle_kind(), OracleKind::Dense);
        assert!(oracle.oracle_bytes() <= batch.oracle_bytes());
    }

    /// A soak-shaped stream — waves of fresh sessions updating their own
    /// keys, sealed, checkpointed and compacted — never leaves pruning a
    /// constraint, so it never meets a solver: no instance is encoded, no
    /// solver is called, and every verdict is still batch's.
    #[test]
    fn a_stream_with_no_surviving_constraint_meets_no_solver() {
        let obs = Obs::enabled();
        let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
        let mut c = StreamingChecker::new(IsolationLevel::Si, opts).with_obs(obs.clone());
        let mut serial = Serial::default();
        let (mut constraints, mut compacted) = (0u64, 0usize);
        for _wave in 0..64 {
            let sessions: Vec<SessionId> = (0..4).map(|_| c.session()).collect();
            for t in 0..8u64 {
                for (slot, &s) in sessions.iter().enumerate() {
                    let key = 1 + 2 * slot as u64 + t % 2;
                    // The first write to a key this wave reads the
                    // previous wave's final version; later ones sometimes
                    // read a neighbour's current value.
                    let neighbour = 1 + 2 * ((slot as u64 + 1) % 4) + t % 2;
                    let reads = if t < 2 { vec![key] } else { vec![neighbour] };
                    let reads = if t < 2 || t % 3 == 0 { &reads[..] } else { &[] };
                    c.push_transaction(s, serial.txn(reads, &[key]), TxnStatus::Committed);
                }
            }
            for s in sessions {
                c.seal_session(s);
            }
            let (prefix, _) = c.stream().snapshot();
            let cp = c.checkpoint();
            assert!(cp.verdict.accepted() && check(&prefix, c.isolation(), &opts).accepted());
            compacted += cp.compacted;
            constraints = total(&obs, "prune.constraints_before");
        }
        assert!(constraints > 0, "the stream must give pruning something to decide");
        assert!(compacted > 0, "the stream must compact");
        for name in ["encode.vars", "encode.known_edges", "solver.decisions", "solver.propagations"]
        {
            assert_eq!(total(&obs, name), 0, "{name}");
        }
        assert_eq!(total(&obs, "prune.constraints_after"), 0);
        assert!(obs.tracer.events().iter().all(|e| e.name != "sat.solve"), "a solver was called");
    }

    /// A delta lands in arrival order: every edge of a soak-shaped wave,
    /// known or decided by pruning, runs from an earlier arrival to a
    /// later one, which `grow` slots behind it, so neither the
    /// `delta.insert` nor the `delta.prune` spans reorder — pruning's `RW`
    /// edges `M(f) → B(t)` between two new transactions included.
    #[test]
    fn a_soak_delta_lands_without_reordering() {
        let obs = Obs::enabled();
        let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
        let mut c = StreamingChecker::new(IsolationLevel::Si, opts).with_obs(obs.clone());
        let mut serial = Serial::default();
        for _wave in 0..6 {
            assert!(soak_wave(&mut c, &mut serial).verdict.accepted());
        }
        for span in ["delta.insert", "delta.prune"] {
            assert_eq!(
                reordered(&obs, span),
                [0; 5],
                "{span}: every checkpoint after the first is a delta"
            );
        }
    }

    /// One wave of a soak-shaped stream, then a checkpoint: four fresh
    /// sessions of eight transactions, sealed. Each slot updates two keys
    /// of its own, reading each key's last version first, and now and then
    /// reads a neighbour's current value instead.
    fn soak_wave(c: &mut StreamingChecker, serial: &mut Serial) -> CheckpointReport {
        let sessions: Vec<SessionId> = (0..4).map(|_| c.session()).collect();
        for t in 0..8u64 {
            for (slot, &s) in sessions.iter().enumerate() {
                let key = 1 + 2 * slot as u64 + t % 2;
                let reads = match t {
                    0 | 1 => vec![key],
                    3 | 6 => vec![1 + 2 * ((slot as u64 + 1) % 4) + t % 2],
                    _ => Vec::new(),
                };
                c.push_transaction(s, serial.txn(&reads, &[key]), TxnStatus::Committed);
            }
        }
        for s in sessions {
            c.seal_session(s);
        }
        c.checkpoint()
    }

    /// The `reordered` attribute of every `span` the tracer ended, in order.
    fn reordered(obs: &Obs, span: &str) -> Vec<u64> {
        use polysi_obs::{AttrValue, SpanPhase};
        let events = obs.tracer.events();
        let ended = events.iter().filter(|e| e.name == span && e.phase == SpanPhase::End);
        let attrs = ended.flat_map(|e| e.attrs.iter().filter(|(key, _)| *key == "reordered"));
        attrs
            .map(|(_, value)| match value {
                AttrValue::U64(n) => *n,
                other => panic!("`reordered` is a count: {other:?}"),
            })
            .collect()
    }

    /// Every Pearce–Kelly reorder of a component's oracle is reported on
    /// the span that made it: the `reordered` attributes of `prune` (the
    /// first checkpoint builds the component), `delta.insert`,
    /// `delta.constraints` and `delta.prune` sum to the oracle's count. A
    /// new reader of the version `T0` wrote, which `T1` overwrote, lands
    /// its anti-dependency on `T1` under `delta.constraints`, from the new
    /// transaction back to an old one: against arrival order.
    #[test]
    fn every_reorder_is_reported_on_the_span_that_made_it() {
        let obs = Obs::enabled();
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default())
            .with_obs(obs.clone());
        let (a, b, reader) = (c.session(), c.session(), c.session());
        c.push_transaction(a, vec![w(1, 1)], TxnStatus::Committed);
        c.push_transaction(b, vec![r(1, 1), w(1, 2)], TxnStatus::Committed);
        c.push_transaction(reader, vec![r(1, 1)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        c.push_transaction(reader, vec![r(1, 1)], TxnStatus::Committed);
        assert!(c.checkpoint().verdict.accepted());
        let sum = |span| reordered(&obs, span).iter().sum::<u64>();
        assert!(sum("delta.constraints") > 0, "the follow-on edge runs against arrival order");
        let spans = ["prune", "delta.insert", "delta.constraints", "delta.prune"];
        assert_eq!(spans.map(sum).iter().sum::<u64>(), only_oracle(&c).reorders() as u64);
    }

    /// The oracle a component's solver reads owns the component's known
    /// edges at every checkpoint — grown by each delta, extended by its
    /// follow-on edges and pruning, rebuilt by compaction — under SI and
    /// SER.
    #[test]
    fn a_component_s_oracle_is_its_known_graph() {
        for level in [IsolationLevel::Si, IsolationLevel::Ser] {
            let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
            let mut c = StreamingChecker::new(level, opts);
            let mut serial = Serial::default();
            let mut compacted = 0;
            for _wave in 0..6 {
                let cp = soak_wave(&mut c, &mut serial);
                assert!(cp.verdict.accepted());
                compacted += cp.compacted;
                for state in c.comps.values() {
                    let kg = state.oracle.as_deref().expect("accepted state");
                    crate::engine::tests::assert_owns(kg, &state.poly, &[]);
                }
            }
            assert!(compacted > 0, "{level:?}: some checkpoint compacted");
        }
    }

    /// Satellite of the delta accounting: the registry's prune counters are
    /// sums of per-checkpoint work. They used to add the oracle's lifetime
    /// totals at every checkpoint (sums of prefix sums), which overtakes
    /// the oracle's own counters from the second checkpoint on.
    #[test]
    fn registry_prune_counters_stay_below_the_oracle_lifetime_totals() {
        let obs = Obs::default();
        let mut c = StreamingChecker::new(IsolationLevel::Si, EngineOptions::default())
            .with_obs(obs.clone());
        let (writer, reader) = (c.session(), c.session());
        let mut serial = Serial::default();
        for checkpoint in 0..6 {
            for _ in 0..4 {
                // An update chain on one key, each version also read from
                // the other session: every writer pair is decided by
                // pruning, and each reader's first anti-dependency is an
                // edge no path implies yet.
                c.push_transaction(writer, serial.txn(&[1], &[1]), TxnStatus::Committed);
                c.push_transaction(reader, serial.txn(&[1], &[]), TxnStatus::Committed);
            }
            assert!(c.checkpoint().verdict.accepted());
            let oracle = only_oracle(&c);
            let updates = total(&obs, "prune.closure_updates");
            let edges = total(&obs, "prune.incremental_edges");
            assert!(updates as usize <= oracle.closure_updates(), "checkpoint {checkpoint}");
            assert!(edges as usize <= oracle.inserted_edges(), "checkpoint {checkpoint}");
            assert!(edges > 0 && updates > 0, "pruning must materialise edges here");
        }
    }

    /// The `local_of` column against the search it replaced, for every
    /// live transaction of every cached component.
    fn assert_local_of_matches_search(c: &StreamingChecker) {
        let mut members = 0;
        for state in c.comps.values() {
            for t in &state.txns {
                assert_eq!(Ok(c.local_of[t.idx()] as usize), state.txns.binary_search(t));
            }
            members += state.txns.len();
        }
        assert_eq!(members, c.stream.len(), "every live transaction is in a cached component");
    }

    /// The column stays the inverse of the member lists through first
    /// sight, delta growth, a merge (rebuild) and compactions.
    #[test]
    fn local_of_column_tracks_pushes_merges_and_compactions() {
        let opts = EngineOptions { compact: CompactMode::On, ..EngineOptions::default() };
        let mut c = StreamingChecker::new(IsolationLevel::Si, opts);
        let mut serial = Serial::default();
        let sessions: Vec<SessionId> = (0..4).map(|_| c.session()).collect();
        // Three components, interleaved: sessions 0 and 1 update key 1
        // in turn, sessions 2 and 3 overwrite a key of their own
        // blindly (so all but its last version can settle).
        let round = |c: &mut StreamingChecker, serial: &mut Serial| {
            for (&s, key) in sessions.iter().zip([1, 1, 2, 3]) {
                let reads = if key == 1 { &[1][..] } else { &[] };
                c.push_transaction(s, serial.txn(reads, &[key]), TxnStatus::Committed);
            }
        };
        round(&mut c, &mut serial);
        let cp = c.checkpoint();
        assert_eq!((cp.verdict.accepted(), cp.dirty, cp.rebuilt), (true, 3, 3));
        assert_local_of_matches_search(&c);
        round(&mut c, &mut serial);
        round(&mut c, &mut serial);
        let cp = c.checkpoint();
        assert_eq!((cp.verdict.accepted(), cp.dirty, cp.rebuilt), (true, 3, 0));
        assert_local_of_matches_search(&c);
        // A bridge merges the components of keys 2 and 3.
        c.push_transaction(sessions[2], serial.txn(&[2, 3], &[2]), TxnStatus::Committed);
        round(&mut c, &mut serial);
        let cp = c.checkpoint();
        assert_eq!((cp.verdict.accepted(), cp.dirty, cp.rebuilt), (true, 2, 1));
        assert_local_of_matches_search(&c);
        // Seal everything: the settled prefixes are dropped and every
        // global id moves.
        for &s in &sessions {
            c.seal_session(s);
        }
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted() && cp.compacted > 0, "dropped {}", cp.compacted);
        assert_local_of_matches_search(&c);
        // The survivors keep growing under their new ids.
        let late = c.session();
        for reads in [&[2][..], &[], &[], &[]] {
            c.push_transaction(late, serial.txn(reads, &[2]), TxnStatus::Committed);
        }
        assert!(assert_matches_batch(&mut c));
        assert_local_of_matches_search(&c);
        c.seal_session(late);
        let cp = c.checkpoint();
        assert!(cp.verdict.accepted() && cp.compacted > 0);
        assert_local_of_matches_search(&c);
    }
}
