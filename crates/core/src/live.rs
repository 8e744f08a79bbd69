//! The live ingest service: a fault-tolerant concurrent front end over the
//! [`StreamingChecker`].
//!
//! # Architecture
//!
//! Two layers, split so determinism stays testable:
//!
//! * [`LiveChecker`] — the **deterministic ingest hub**. One call per
//!   delivered message ([`LiveChecker::deliver`]): per-session sequence
//!   numbers heal at-least-once transports (exact duplicate drop, bounded
//!   reorder buffered until the gap fills), structural faults surface as
//!   typed [`IngestError`]s and abandon the offending session (never a
//!   panic, never a silent skip — every fault lands in the
//!   [`LiveReport`]), checkpoints fire on a configurable cadence, and a
//!   stall watchdog stretches the cadence while a reorder gap is open —
//!   up to a patience budget, after which the checkpoint runs anyway and
//!   is flagged **degraded**. Single-threaded and clock-free in its
//!   control flow, so a delivery script fully determines its behavior.
//! * [`LiveService`] — the **concurrent wrapper**: one bounded
//!   [`sync_channel`] of `(session, delivery)` messages shared by every
//!   producer (producers block on a full queue — backpressure, not
//!   unbounded buffering), [`LiveClient`] handles for producer threads,
//!   and a drain thread that feeds the hub in send order — so a producer
//!   that sends in commit order has its checkpoints see commit-consistent
//!   prefixes — with a wall-clock stall watchdog for the case where the
//!   cadence is overdue but no further deliveries arrive to advance the
//!   count-based one. A silent session holds up nobody.
//!
//! # Delivery contract
//!
//! *Tolerable* faults — duplicated deliveries and within-session reorder
//! inside the configured window (and not across a checkpoint or the
//! session's `Seal`) — are healed exactly: every checkpoint's verdict,
//! violation list, and witness are **byte-identical to clean delivery**.
//! This follows from the determinism discipline: a checkpoint's verdict is
//! a canonical function of the *session-major snapshot*, i.e. of the set
//! of transactions ingested per session, and healing restores exactly the
//! clean per-session prefixes at every non-degraded checkpoint.
//! Property-tested by `crates/polysi/tests/live.rs`.
//!
//! *Structural* faults — a torn transaction from a client crash, a push
//! after `Seal`, an empty transaction, reorder beyond the window, a seal
//! whose declared count cannot be met — are typed [`IngestError`]s: the
//! offending session degrades (an empty transaction's slot is consumed
//! and skipped; the others abandon the session at its last good
//! transaction), the fault is recorded in the [`LiveReport`], and every
//! other session's verdict is unaffected.

use crate::check::Outcome;
use crate::engine::{EngineOptions, IsolationLevel};
use crate::stream::{CheckpointReport, StreamingChecker};
pub use polysi_history::live::{Delivery, IngestError};
use polysi_history::{Op, SessionId, TxnStatus};
use polysi_obs::metrics::Counter;
use polysi_obs::{kv, Metrics, Obs};
use std::collections::BTreeMap;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// Knobs of the live ingest service.
#[derive(Clone, Copy, Debug)]
pub struct LiveConfig {
    /// Take a checkpoint every this many ingested transactions
    /// (0 = only explicit [`LiveChecker::checkpoint_now`] / final).
    pub checkpoint_every: usize,
    /// Heal within-session reorder up to this many sequence numbers ahead
    /// of the next expected one; beyond it the fault is structural.
    pub reorder_window: u64,
    /// Count-based stall patience: with the cadence reached but a reorder
    /// gap still open, wait for up to this many further deliveries before
    /// checkpointing anyway (degraded).
    pub stall_patience: usize,
    /// Each session's share of the delivery queue ([`LiveService`] only):
    /// the one queue holds `queue_capacity × sessions` messages, and
    /// producers block once it fills.
    pub queue_capacity: usize,
    /// Wall-clock stall watchdog ([`LiveService`] only): with the cadence
    /// overdue and no deliveries arriving, force a (possibly degraded)
    /// checkpoint after this long.
    pub stall_timeout: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            checkpoint_every: 256,
            reorder_window: 16,
            stall_patience: 64,
            queue_capacity: 64,
            stall_timeout: Duration::from_millis(50),
        }
    }
}

/// One checkpoint taken by the live hub.
#[derive(Clone, Debug)]
pub struct LiveCheckpoint {
    /// The underlying streaming checkpoint (verdict, counters, elapsed).
    pub report: CheckpointReport,
    /// Whether the stall watchdog forced this checkpoint while reorder
    /// gaps were still open: the covered prefix excludes the buffered
    /// transactions, so it is *not* the clean-delivery prefix.
    pub degraded: bool,
    /// Sessions with an open reorder gap at checkpoint time.
    pub stalled: Vec<SessionId>,
}

/// Ingest counters of a live run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Messages delivered to the hub (including faulty ones).
    pub delivered: usize,
    /// Transactions ingested into the checker.
    pub ingested: usize,
    /// Exact duplicates dropped (transactions and seals).
    pub duplicates: usize,
    /// Transactions that arrived ahead of sequence and were healed by
    /// buffering.
    pub healed: usize,
    /// Sessions sealed (client `Seal` or structural abandonment).
    pub sealed: usize,
}

/// The `ingest.*` counters, one per [`LiveStats`] field, registered when
/// the hub's registry is attached and bumped with their field ([`bump`]).
struct IngestCounters {
    delivered: Arc<Counter>,
    ingested: Arc<Counter>,
    duplicates: Arc<Counter>,
    healed: Arc<Counter>,
    sealed: Arc<Counter>,
}

impl IngestCounters {
    fn register(m: &Metrics) -> Self {
        IngestCounters {
            delivered: m.counter("ingest.delivered"),
            ingested: m.counter("ingest.ingested"),
            duplicates: m.counter("ingest.duplicates"),
            healed: m.counter("ingest.healed"),
            sealed: m.counter("ingest.sealed"),
        }
    }
}

/// Count one event in a [`LiveStats`] field and in its `ingest.*` counter.
fn bump(field: &mut usize, counter: &Counter) {
    *field += 1;
    counter.inc();
}

/// Everything a live run produced: the checkpoint trail, every ingest
/// fault (typed, per session), and the counters.
#[derive(Clone, Debug)]
pub struct LiveReport {
    /// Checkpoints in order; the last one covers the final prefix.
    pub checkpoints: Vec<LiveCheckpoint>,
    /// Every structural fault, in delivery order.
    pub faults: Vec<(SessionId, IngestError)>,
    /// Sessions never sealed when the run finished (abandoned clients).
    pub abandoned: Vec<SessionId>,
    /// Ingest counters.
    pub stats: LiveStats,
}

impl LiveReport {
    /// The final verdict (of the last checkpoint), with its witness on a
    /// rejection.
    pub fn verdict(&self) -> &Outcome {
        &self.checkpoints.last().expect("a finished run has a final checkpoint").report.verdict
    }
}

/// Per-session delivery state: the sequence-number state machine that
/// heals tolerable faults and detects structural ones.
struct Lane {
    sid: SessionId,
    /// Next sequence number to ingest (== transactions ingested or
    /// skipped on this session).
    expected: u64,
    /// Ahead-of-sequence transactions awaiting the gap filler.
    buffer: BTreeMap<u64, (Vec<Op>, TxnStatus)>,
    /// No further (non-duplicate) deliveries accepted: client sealed,
    /// crashed, or was abandoned after a structural fault.
    closed: bool,
}

/// The deterministic live ingest hub (see the module docs).
pub struct LiveChecker {
    cfg: LiveConfig,
    checker: StreamingChecker,
    obs: Obs,
    lanes: Vec<Lane>,
    /// Transactions ingested since the last checkpoint.
    since_cp: usize,
    /// Deliveries processed while the cadence was due but deferred on an
    /// open reorder gap.
    overdue: usize,
    checkpoints: Vec<LiveCheckpoint>,
    faults: Vec<(SessionId, IngestError)>,
    stats: LiveStats,
    counters: IngestCounters,
}

impl LiveChecker {
    /// A live hub checking `isolation` with the given engine knobs.
    pub fn new(isolation: IsolationLevel, opts: EngineOptions, cfg: LiveConfig) -> Self {
        let obs = Obs::default();
        LiveChecker {
            cfg,
            checker: StreamingChecker::new(isolation, opts).with_obs(obs.clone()),
            counters: IngestCounters::register(&obs.metrics),
            obs,
            lanes: Vec::new(),
            since_cp: 0,
            overdue: 0,
            checkpoints: Vec::new(),
            faults: Vec::new(),
            stats: LiveStats::default(),
        }
    }

    /// Attach an observability bundle: spans and metrics flow through the
    /// hub into the underlying [`StreamingChecker`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.checker = self.checker.with_obs(obs.clone());
        self.counters = IngestCounters::register(&obs.metrics);
        self.obs = obs;
        self
    }

    /// The observability bundle attached to this hub.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Open a new session lane; returns its id.
    pub fn session(&mut self) -> SessionId {
        let sid = self.checker.session();
        self.lanes.push(Lane { sid, expected: 0, buffer: BTreeMap::new(), closed: false });
        sid
    }

    /// The underlying streaming checker (read access).
    pub fn checker(&self) -> &StreamingChecker {
        &self.checker
    }

    /// Checkpoints taken so far.
    pub fn checkpoints(&self) -> &[LiveCheckpoint] {
        &self.checkpoints
    }

    /// Structural faults recorded so far.
    pub fn faults(&self) -> &[(SessionId, IngestError)] {
        &self.faults
    }

    /// Process one delivered message. Tolerable faults are healed and
    /// return `Ok`; structural faults are recorded (the session degrades
    /// as documented on [`IngestError`]) and the message's own is
    /// returned — a buffered transaction drained behind it is a separate
    /// fault, recorded but not returned. Never panics.
    pub fn deliver(&mut self, session: SessionId, msg: Delivery) -> Result<(), IngestError> {
        bump(&mut self.stats.delivered, &self.counters.delivered);
        let result = self.deliver_inner(session, msg);
        if let Err(e) = &result {
            self.fault(session, e.clone());
        }
        self.drain_buffered(session);
        self.auto_checkpoint();
        result
    }

    /// Ingest every buffered successor an in-sequence delivery unblocked
    /// (healed reorder), recording each one's fault as its own.
    fn drain_buffered(&mut self, session: SessionId) {
        while let Some((ops, status)) = self
            .lanes
            .get_mut(session.0 as usize)
            .and_then(|lane| lane.buffer.remove(&lane.expected))
        {
            if let Err(e) = self.ingest(session, ops, status, true) {
                self.fault(session, e);
            }
        }
    }

    /// Record one structural fault: its report entry, its `ingest.fault`
    /// instant and the `ingest.faults` counter.
    fn fault(&mut self, session: SessionId, e: IngestError) {
        self.obs.tracer.instant("ingest.fault", kv! { session: session.0, kind: e.kind() });
        self.obs.metrics.counter("ingest.faults").inc();
        self.faults.push((session, e));
    }

    fn deliver_inner(&mut self, session: SessionId, msg: Delivery) -> Result<(), IngestError> {
        if (session.0 as usize) >= self.lanes.len() {
            return Err(IngestError::UnknownSession { session });
        }
        let lane = &mut self.lanes[session.0 as usize];
        match msg {
            Delivery::Txn { seq, ops, status } => {
                if seq < lane.expected || lane.buffer.contains_key(&seq) {
                    // Exact duplicate: this sequence number was already
                    // ingested (or is already waiting). Tolerable — even
                    // after a seal.
                    bump(&mut self.stats.duplicates, &self.counters.duplicates);
                    return Ok(());
                }
                if lane.closed {
                    return Err(IngestError::SealedSession { session });
                }
                if seq > lane.expected {
                    if seq - lane.expected > self.cfg.reorder_window {
                        let (expected, window) = (lane.expected, self.cfg.reorder_window);
                        self.abandon(session);
                        return Err(IngestError::ReorderBeyondWindow {
                            session,
                            seq,
                            expected,
                            window,
                        });
                    }
                    self.lanes[session.0 as usize].buffer.insert(seq, (ops, status));
                    return Ok(());
                }
                // The expected transaction; `deliver` then drains the
                // buffered successors it unblocks.
                self.ingest(session, ops, status, false)
            }
            Delivery::Torn { seq, ops: _ } => {
                // Client crash mid-commit: the partial prefix is never
                // ingested; the session is abandoned at its last good
                // transaction.
                self.abandon(session);
                Err(IngestError::TornTransaction { session, seq })
            }
            Delivery::Seal { count } => {
                if lane.closed {
                    // Duplicated seal: tolerable.
                    bump(&mut self.stats.duplicates, &self.counters.duplicates);
                    return Ok(());
                }
                if count != lane.expected || !lane.buffer.is_empty() {
                    let delivered = lane.expected;
                    self.abandon(session);
                    return Err(IngestError::SealMismatch { session, declared: count, delivered });
                }
                self.close(session);
                Ok(())
            }
        }
    }

    /// Ingest one in-sequence transaction; consumes its sequence slot
    /// even when the transaction itself is malformed (empty).
    fn ingest(
        &mut self,
        session: SessionId,
        ops: Vec<Op>,
        status: TxnStatus,
        healed: bool,
    ) -> Result<(), IngestError> {
        self.lanes[session.0 as usize].expected += 1;
        if ops.is_empty() {
            return Err(IngestError::EmptyTransaction { session });
        }
        self.checker.try_push_transaction(session, ops, status)?;
        self.since_cp += 1;
        bump(&mut self.stats.ingested, &self.counters.ingested);
        if healed {
            bump(&mut self.stats.healed, &self.counters.healed);
        }
        Ok(())
    }

    /// Close a lane cleanly (client `Seal`).
    fn close(&mut self, session: SessionId) {
        let lane = &mut self.lanes[session.0 as usize];
        if !lane.closed {
            lane.closed = true;
            bump(&mut self.stats.sealed, &self.counters.sealed);
            let _ = self.checker.try_seal_session(session);
        }
    }

    /// Abandon a lane after a structural fault: drop anything buffered and
    /// seal it at its last good transaction (degrade loudly, then move on
    /// — the other sessions are unaffected).
    fn abandon(&mut self, session: SessionId) {
        self.lanes[session.0 as usize].buffer.clear();
        self.close(session);
    }

    /// Whether the count-based cadence is due (used by the service's
    /// wall-clock watchdog when no deliveries arrive to advance it).
    pub fn cadence_due(&self) -> bool {
        self.cfg.checkpoint_every > 0 && self.since_cp >= self.cfg.checkpoint_every
    }

    /// Sessions with an open reorder gap.
    fn stalled(&self) -> Vec<SessionId> {
        self.lanes.iter().filter(|l| !l.buffer.is_empty()).map(|l| l.sid).collect()
    }

    /// The count-based cadence + stall watchdog: checkpoint when due,
    /// stretching past open reorder gaps for up to `stall_patience`
    /// further deliveries, then degrade.
    fn auto_checkpoint(&mut self) {
        if !self.cadence_due() {
            return;
        }
        let stalled = self.stalled();
        if !stalled.is_empty() {
            self.overdue += 1;
            if self.overdue <= self.cfg.stall_patience {
                return;
            }
        }
        self.checkpoint_with(stalled);
    }

    /// Take a checkpoint right now, flagged degraded when reorder gaps
    /// are open (the covered prefix excludes what they buffer).
    pub fn checkpoint_now(&mut self) -> &LiveCheckpoint {
        let stalled = self.stalled();
        self.checkpoint_with(stalled)
    }

    /// Checkpoint with the sessions already found `stalled`.
    fn checkpoint_with(&mut self, stalled: Vec<SessionId>) -> &LiveCheckpoint {
        let report = self.checker.checkpoint();
        self.since_cp = 0;
        self.overdue = 0;
        self.checkpoints.push(LiveCheckpoint { report, degraded: !stalled.is_empty(), stalled });
        self.checkpoints.last().expect("just pushed")
    }

    /// Finish the run: a final checkpoint (always — the final verdict must
    /// cover the full ingested prefix) and the consolidated report.
    /// Sessions never sealed are reported as abandoned. The hub stays
    /// readable afterwards (e.g. for the canonical rejection report via
    /// [`LiveChecker::checker`]).
    pub fn finish(&mut self) -> LiveReport {
        self.checkpoint_now();
        let abandoned: Vec<SessionId> =
            self.lanes.iter().filter(|l| !l.closed).map(|l| l.sid).collect();
        LiveReport {
            checkpoints: self.checkpoints.clone(),
            faults: self.faults.clone(),
            abandoned,
            stats: self.stats,
        }
    }
}

/// A producer handle for one live session: assigns sequence numbers and
/// sends over the service's bounded queue, blocking when it is full
/// (backpressure).
pub struct LiveClient {
    session: SessionId,
    tx: SyncSender<(SessionId, Delivery)>,
    next_seq: u64,
}

impl LiveClient {
    /// This client's session id.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The sequence number the next [`LiveClient::push`] will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Send the next transaction (blocking while the queue is full).
    pub fn push(&mut self, ops: Vec<Op>, status: TxnStatus) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send(Delivery::Txn { seq, ops, status });
    }

    /// Send a raw protocol message — the fault-injection entry point
    /// (duplicates, reordered seqs, torn transactions). Blocking; a send
    /// after the service finished is dropped.
    pub fn send(&self, msg: Delivery) {
        let _ = self.tx.send((self.session, msg));
    }

    /// Seal the session (`Seal { count }` with this client's own count)
    /// and drop the handle.
    pub fn seal(self) {
        self.send(Delivery::Seal { count: self.next_seq });
    }
}

/// The concurrent live service: a [`LiveChecker`] hub on its own drain
/// thread, fed through one bounded queue that every client sends on.
pub struct LiveService {
    handle: std::thread::JoinHandle<LiveReport>,
}

impl LiveService {
    /// Spawn the service with `sessions` lanes; returns one [`LiveClient`]
    /// per lane. Producers run concurrently with the drain loop; the run
    /// ends once every client is dropped (or [`LiveClient::seal`]ed).
    pub fn spawn(
        isolation: IsolationLevel,
        opts: EngineOptions,
        cfg: LiveConfig,
        sessions: usize,
    ) -> (LiveService, Vec<LiveClient>) {
        Self::spawn_with_obs(isolation, opts, cfg, sessions, Obs::default())
    }

    /// [`LiveService::spawn`] with an observability bundle attached to the
    /// hub (spans and metrics are recorded from the drain thread).
    pub fn spawn_with_obs(
        isolation: IsolationLevel,
        opts: EngineOptions,
        cfg: LiveConfig,
        sessions: usize,
        obs: Obs,
    ) -> (LiveService, Vec<LiveClient>) {
        let mut hub = LiveChecker::new(isolation, opts, cfg).with_obs(obs);
        let (tx, rx) = sync_channel(cfg.queue_capacity.max(1).saturating_mul(sessions.max(1)));
        let clients = (0..sessions)
            .map(|_| LiveClient { session: hub.session(), tx: tx.clone(), next_seq: 0 })
            .collect();
        let handle = std::thread::spawn(move || Self::drain(hub, rx));
        (LiveService { handle }, clients)
    }

    /// The drain loop: deliveries in send order, and the wall-clock stall
    /// watchdog — no delivery for `stall_timeout` while the cadence is due
    /// forces the checkpoint. The run ends when every client is gone.
    fn drain(mut hub: LiveChecker, rx: Receiver<(SessionId, Delivery)>) -> LiveReport {
        loop {
            match rx.recv_timeout(hub.cfg.stall_timeout) {
                Ok((sid, msg)) => {
                    // Faults are recorded in the report; the producer is
                    // already gone from this side of the queue.
                    let _ = hub.deliver(sid, msg);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if hub.cadence_due() {
                        hub.checkpoint_now();
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return hub.finish(),
            }
        }
    }

    /// Wait for every client to finish and return the consolidated report
    /// (final checkpoint included).
    pub fn finish(self) -> LiveReport {
        self.handle.join().expect("live drain thread must not panic")
    }
}
