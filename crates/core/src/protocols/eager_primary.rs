//! Eager primary copy replication (paper §4.3 Fig. 7; §5.2 Fig. 12).
//!
//! All updates execute first at the primary; the resulting log records
//! propagate to the secondaries and a 2PC decides the commit before the
//! client hears anything. Skeleton: `RE EX AC END`; with multi-operation
//! transactions the EX/AC pair loops per operation before the final 2PC
//! (`RE EX AC EX AC … END`, Fig. 12).
//!
//! Read-only transactions may execute at any site (the paper: "reading
//! transactions can be performed on any site and will always see the
//! latest version").
//!
//! Fault tolerance is the paper's hot-standby model: the primary is a
//! single point of failure, and takeover is by rank once the failure
//! detector fires (the paper's "operator intervention", mechanised).
//! Active transactions at the failed primary abort; clients re-submit.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use repl_db::{
    Acquire, DeadlockPolicy, Key, Keyspace, LockManager, LockMode, RedoLog, TpcCoordinator,
    TpcDecision, Transfer, TransferStrategy, TxnId, Value, WriteSet,
};
use repl_gcs::{BatchConfig, Component, FdConfig, FdEvent, FdMsg, HeartbeatFd, Outbox};
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};
use repl_workload::OpTemplate;

use crate::client::ProtocolMsg;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, op_of_txn, DrainState, Elastic, ExecutionMode, MemberMsg, ServerBase,
    DRAIN_TICK_TAG, DRAIN_TICK_TICKS, JOIN_RETRY_TAG, JOIN_RETRY_TICKS, RESTORE_TAG,
};

/// Wire messages of eager primary copy replication.
#[derive(Debug, Clone)]
pub enum EagerPrimaryMsg {
    /// Client → primary (any server forwards).
    Invoke(ClientOp),
    /// Primary → secondaries: one operation's log records (multi-op loop).
    Propagate {
        /// The transaction.
        txn: TxnId,
        /// Which operation of the transaction this is.
        step: u32,
        /// The log records of this step (`Arc`-shared across the fan-out).
        ws: Arc<WriteSet>,
    },
    /// Secondary → primary: step applied.
    PropAck {
        /// The transaction.
        txn: TxnId,
        /// The acknowledged step.
        step: u32,
    },
    /// Primary → secondaries: prepare to commit (carries the full
    /// writeset for single-operation transactions).
    Prepare {
        /// The transaction.
        txn: TxnId,
        /// The full writeset (empty if already propagated step-wise).
        ws: Arc<WriteSet>,
        /// The response, cached by secondaries for retried clients.
        resp: Response,
    },
    /// Secondary → primary: vote.
    Vote {
        /// The transaction.
        txn: TxnId,
        /// Yes or no.
        yes: bool,
    },
    /// Primary → secondaries: global decision.
    Decision {
        /// The transaction.
        txn: TxnId,
        /// Commit or abort.
        commit: bool,
    },
    /// Primary → secondaries: one batching window's worth of commit
    /// decisions, flushed together with a single group-committed log
    /// force at the primary.
    DecisionBatch {
        /// (transaction, commit?) in decision order.
        entries: Arc<Vec<(TxnId, bool)>>,
    },
    /// Failure-detector heartbeats among servers.
    Fd(FdMsg),
    /// Server → client.
    Reply(Response),
    /// Recovering server → group: request catch-up from the carried
    /// redo-log position. Receipt doubles as proof of life: the donor
    /// re-trusts the sender so subsequent decisions reach it.
    SyncReq(u64),
    /// Donor → recovering server: log suffix or snapshot.
    SyncData(Box<Transfer>),
    /// Elastic-membership traffic (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for EagerPrimaryMsg {
    fn wire_size(&self) -> usize {
        match self {
            EagerPrimaryMsg::Invoke(op) => 8 + op.wire_size(),
            EagerPrimaryMsg::Propagate { ws, .. } => 24 + ws.wire_size(),
            EagerPrimaryMsg::PropAck { .. } => 24,
            EagerPrimaryMsg::Prepare { ws, resp, .. } => 16 + ws.wire_size() + resp.wire_size(),
            EagerPrimaryMsg::Vote { .. } => 24,
            EagerPrimaryMsg::Decision { .. } => 24,
            EagerPrimaryMsg::DecisionBatch { entries } => 8 + 24 * entries.len(),
            EagerPrimaryMsg::Fd(m) => m.wire_size(),
            EagerPrimaryMsg::Reply(r) => 8 + r.wire_size(),
            EagerPrimaryMsg::SyncReq(_) => 16,
            EagerPrimaryMsg::SyncData(t) => 8 + t.wire_size(),
            EagerPrimaryMsg::Member(m) => 8 + m.wire_size(),
        }
    }
}

impl ProtocolMsg for EagerPrimaryMsg {
    fn invoke(op: ClientOp) -> Self {
        EagerPrimaryMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            EagerPrimaryMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            EagerPrimaryMsg::Member(MemberMsg::Reroute { op, servers }) => Some((*op, servers)),
            _ => None,
        }
    }
}

/// Where an in-flight primary-side transaction stands.
#[derive(Debug)]
enum TxnPhase {
    /// Waiting for a lock.
    LockWait,
    /// Waiting for propagation acks for `step`.
    PropWait {
        step: u32,
        awaiting: HashSet<NodeId>,
    },
    /// 2PC in progress.
    Committing(TpcCoordinator<NodeId>),
}

#[derive(Debug)]
struct PrimaryTxn {
    op: ClientOp,
    step: usize,
    reads: Vec<(Key, Value)>,
    phase: TxnPhase,
    retries: u32,
}

const MAX_WOUND_RETRIES: u32 = 25;
const FD_BASE: u64 = 1 << 40;
const DECISION_FLUSH_TAG: u64 = 0;

/// An eager-primary-copy server.
pub struct EagerPrimaryServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    me: NodeId,
    servers: Vec<NodeId>,
    lm: LockManager,
    fd: HeartbeatFd,
    alive: HashSet<NodeId>,
    /// Primary-side in-flight transactions.
    inflight: HashMap<TxnId, PrimaryTxn>,
    /// Ops wounded and awaiting re-execution.
    requeue: VecDeque<(ClientOp, u32)>,
    /// Secondary-side tentative transactions (undo-able until decision).
    tentative: HashMap<TxnId, (OpId, Option<Response>)>,
    /// Primary-side redo log (public for post-run inspection); with
    /// batching on, a window's commits share one group-commit force.
    pub wal: RedoLog,
    batching: BatchConfig,
    /// Commit decisions staged during the current batching window.
    staged_decisions: Vec<(TxnId, bool)>,
    /// Client acks deferred until the window's log force.
    staged_replies: Vec<(NodeId, Response)>,
    /// Writesets awaiting the window's log force before the durable tier
    /// may see them (the tier mirrors the *flushed* stream).
    staged_notes: Vec<WriteSet>,
    /// Remembered retention cap, re-applied when a volume loss forces a
    /// fresh redo log.
    wal_retention: Option<usize>,
    flush_armed: bool,
    /// Initial post-crash sync: silent (no heartbeats, no participation)
    /// until the first catch-up transfer lands.
    recovering: bool,
    /// Filling a decision gap noticed after rejoining; participates
    /// normally while the suffix is in flight.
    resync: bool,
    marks: bool,
    /// Elastic-membership state (join / drain lifecycle).
    pub elastic: Elastic,
}

impl EagerPrimaryServer {
    /// Creates server `site` of `servers`; the initial primary is rank 0.
    pub fn new(
        site: u32,
        me: NodeId,
        servers: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        fd: FdConfig,
    ) -> Self {
        let ks = keyspace.into();
        EagerPrimaryServer {
            base: ServerBase::new(site, ks, exec),
            me,
            servers: servers.clone(),
            lm: LockManager::with_keyspace(DeadlockPolicy::WoundWait, ks),
            fd: HeartbeatFd::new(me, servers.clone(), fd),
            alive: HashSet::new(),
            inflight: HashMap::new(),
            requeue: VecDeque::new(),
            tentative: HashMap::new(),
            wal: RedoLog::new(),
            batching: BatchConfig::disabled(),
            staged_decisions: Vec::new(),
            staged_replies: Vec::new(),
            staged_notes: Vec::new(),
            wal_retention: None,
            flush_armed: false,
            recovering: false,
            resync: false,
            marks: site == 0,
            elastic: Elastic::new(me, servers),
        }
    }

    /// Marks this server as a cold joiner: it starts outside the view and
    /// acquires state + membership via `JoinReq`/`Welcome`.
    pub fn begin_join(&mut self) {
        self.elastic.begin_join();
    }

    /// Re-syncs the derived membership views (server list, fd peers)
    /// from `elastic.servers`.
    fn sync_membership(&mut self) {
        self.servers = self.elastic.servers.clone();
        self.fd.set_peers(self.servers.clone());
    }

    /// Sets the decision-round batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batching = batch;
        self
    }

    /// Bounds the redo-log retention at every replica: recovery requests
    /// that fall behind the truncation point get a snapshot transfer.
    pub fn set_log_retention(&mut self, retention: Option<usize>) {
        self.wal_retention = retention;
        self.wal.set_retention(retention);
    }

    /// The current primary: the lowest-ranked unsuspected server.
    pub fn primary(&self) -> NodeId {
        self.servers
            .iter()
            .copied()
            .find(|&s| !self.fd.is_suspected(s))
            .unwrap_or(self.me)
    }

    fn is_primary(&self) -> bool {
        self.primary() == self.me
    }

    fn secondaries(&self) -> Vec<NodeId> {
        self.servers
            .iter()
            .copied()
            .filter(|&s| s != self.me && !self.fd.is_suspected(s))
            .collect()
    }

    fn drive_fd(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, out: Outbox<FdMsg, FdEvent>) {
        let events = repl_gcs::apply_outbox(ctx, out, FD_BASE, EagerPrimaryMsg::Fd);
        for ev in events {
            match ev {
                FdEvent::Suspect(n) => {
                    self.alive.remove(&n);
                    self.on_server_death(ctx, n);
                }
                FdEvent::Trust(n) => {
                    self.alive.insert(n);
                }
            }
        }
    }

    /// Reactions to a detected server crash: the primary drops the dead
    /// secondary from pending waits; secondaries of a dead primary abort
    /// its tentative transactions (the paper's takeover semantics).
    fn on_server_death(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, dead: NodeId) {
        if dead == self.me {
            return;
        }
        // Primary: stop waiting for the dead secondary.
        let mut ids: Vec<TxnId> = self.inflight.keys().copied().collect(); // sorted-below
        ids.sort_unstable(); // map order is unspecified; resume deterministically
        for txn in ids {
            let advance = {
                let t = self.inflight.get_mut(&txn).expect("present");
                match &mut t.phase {
                    TxnPhase::PropWait { awaiting, .. } => {
                        awaiting.remove(&dead);
                        awaiting.is_empty()
                    }
                    TxnPhase::Committing(c) => c.on_vote(dead, true) == Some(TpcDecision::Commit),
                    TxnPhase::LockWait => false,
                }
            };
            if advance {
                self.resume(ctx, txn);
            }
        }
        // Secondary: if the dead server was the acting primary (every
        // lower-ranked server is also suspected), abort its tentative
        // transactions. The sim delivers a primary's decision multicast
        // atomically at event granularity, so either every secondary
        // decided or every one is still tentative — the verdicts agree.
        let was_primary = self
            .servers
            .iter()
            .take_while(|&&s| s != dead)
            .all(|&s| self.fd.is_suspected(s));
        if was_primary {
            let mut stale: Vec<TxnId> = self.tentative.keys().copied().collect(); // sorted-below
            stale.sort_unstable();
            for txn in stale {
                self.abort_tentative(txn);
            }
        }
        let _ = ctx;
    }

    fn abort_tentative(&mut self, txn: TxnId) {
        if self.tentative.remove(&txn).is_some() {
            let _ = self.base.tm.abort(&mut self.base.store, txn);
            self.base.history.purge(txn);
            self.base.aborted += 1;
        }
    }

    /// Starts or restarts a transaction at the primary.
    fn begin_txn(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, op: ClientOp, retries: u32) {
        let txn = global_txn(op.id);
        if self.inflight.contains_key(&txn) {
            return;
        }
        if self.marks && retries == 0 {
            ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        }
        self.base.tm.begin(txn);
        self.inflight.insert(
            txn,
            PrimaryTxn {
                op,
                step: 0,
                reads: Vec::new(),
                phase: TxnPhase::LockWait,
                retries,
            },
        );
        self.advance(ctx, txn);
    }

    /// Drives a primary-side transaction as far as possible.
    fn advance(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, txn: TxnId) {
        loop {
            let Some(t) = self.inflight.get(&txn) else {
                return;
            };
            let step = t.step;
            let total = t.op.txn.ops.len();
            if step >= total {
                self.start_commit(ctx, txn);
                return;
            }
            let template = t.op.txn.ops[step];
            let (key, mode) = match template {
                OpTemplate::Read(k) => (k, LockMode::Shared),
                OpTemplate::Write(k, _) => (k, LockMode::Exclusive),
            };
            match self.lm.acquire(txn, key, mode) {
                Acquire::Granted => {}
                Acquire::Waiting { wounded } => {
                    self.inflight.get_mut(&txn).expect("present").phase = TxnPhase::LockWait;
                    for v in wounded {
                        self.wound(ctx, v);
                    }
                    return;
                }
            }
            // Lock held: execute the step.
            let secondaries = self.secondaries();
            let t = self.inflight.get_mut(&txn).expect("present");
            match template {
                OpTemplate::Read(k) => {
                    let v = self
                        .base
                        .tm
                        .read(&self.base.store, txn, k)
                        .expect("active")
                        .map_or(Value(0), |v| v.value);
                    self.base
                        .history
                        .record(self.base.site, txn, k, repl_db::AccessKind::Read);
                    t.reads.push((k, v));
                    t.step += 1;
                    // Reads propagate nothing.
                }
                OpTemplate::Write(k, v) => {
                    let v = self.base.effective_value(v);
                    let after = self
                        .base
                        .tm
                        .write(&mut self.base.store, txn, k, v)
                        .expect("active");
                    self.base
                        .history
                        .record(self.base.site, txn, k, repl_db::AccessKind::Write);
                    t.step += 1;
                    // Per-operation change propagation (Fig. 12) only for
                    // multi-operation transactions; single-op transactions
                    // piggyback the writeset on Prepare (Fig. 7).
                    if total > 1 {
                        let step_no = (t.step - 1) as u32;
                        if !secondaries.is_empty() {
                            let ws = Arc::new(WriteSet {
                                txn,
                                writes: vec![repl_db::WriteRecord {
                                    key: k,
                                    value: v,
                                    version: after.version,
                                }],
                            });
                            if self.marks {
                                ctx.mark(
                                    Phase::AgreementCoordination.tag(),
                                    t.op.id.0,
                                    step_no as u64,
                                );
                            }
                            let awaiting: HashSet<NodeId> = secondaries.iter().copied().collect();
                            t.phase = TxnPhase::PropWait {
                                step: step_no,
                                awaiting,
                            };
                            for s in secondaries {
                                ctx.send(
                                    s,
                                    EagerPrimaryMsg::Propagate {
                                        txn,
                                        step: step_no,
                                        ws: ws.clone(),
                                    },
                                );
                            }
                            if self.marks && t.step < total {
                                // Next EX will be marked when we resume.
                            }
                            return;
                        }
                    }
                }
            }
            if self.marks {
                if let Some(t) = self.inflight.get(&txn) {
                    if t.step < total && total > 1 {
                        ctx.mark(Phase::Execution.tag(), t.op.id.0, t.step as u64);
                    }
                }
            }
        }
    }

    /// Resumes a transaction blocked on propagation acks or votes.
    fn resume(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, txn: TxnId) {
        let Some(t) = self.inflight.get_mut(&txn) else {
            return;
        };
        match &t.phase {
            TxnPhase::PropWait { .. } => {
                if self.marks && t.step < t.op.txn.ops.len() {
                    ctx.mark(Phase::Execution.tag(), t.op.id.0, t.step as u64);
                }
                self.advance(ctx, txn);
            }
            TxnPhase::Committing(_) => self.finish_commit(ctx, txn, true),
            TxnPhase::LockWait => self.advance(ctx, txn),
        }
    }

    /// Begins the final 2PC round (Agreement Coordination).
    fn start_commit(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, txn: TxnId) {
        let secondaries = self.secondaries();
        let t = self.inflight.get_mut(&txn).expect("present");
        let resp = Response {
            op: t.op.id,
            committed: true,
            reads: t.reads.clone(),
        };
        if self.marks {
            ctx.mark(Phase::AgreementCoordination.tag(), t.op.id.0, u64::MAX);
        }
        let mut coord = TpcCoordinator::new(secondaries.clone());
        coord.start();
        if secondaries.is_empty() {
            t.phase = TxnPhase::Committing(coord);
            self.finish_commit(ctx, txn, true);
            return;
        }
        // For single-op transactions the Prepare carries the writeset
        // (reconstructed from the store's pending state — we commit
        // locally only at decision time); for multi-op it was already
        // propagated step-wise.
        t.phase = TxnPhase::Committing(coord);
        let ws = Arc::new(self.pending_writeset(txn));
        for s in secondaries {
            ctx.send(
                s,
                EagerPrimaryMsg::Prepare {
                    txn,
                    ws: ws.clone(),
                    resp: resp.clone(),
                },
            );
        }
    }

    /// Secondary side of Propagate/Prepare: applies the primary's
    /// records tentatively (undo-able until the decision arrives).
    fn apply_tentative(&mut self, txn: TxnId, ws: &WriteSet) {
        self.base.tm.begin(txn);
        for w in &ws.writes {
            let _ = self
                .base
                .tm
                .write(&mut self.base.store, txn, w.key, w.value);
            self.base
                .history
                .record(self.base.site, txn, w.key, repl_db::AccessKind::Write);
        }
    }

    /// The writes a still-active transaction has performed so far.
    fn pending_writeset(&self, txn: TxnId) -> WriteSet {
        // The transaction manager tracks after-images; commit() would
        // consume the transaction, so reconstruct from the in-flight op.
        let Some(t) = self.inflight.get(&txn) else {
            return WriteSet::empty(txn);
        };
        let mut writes = Vec::new();
        if t.op.txn.ops.len() == 1 {
            for tpl in &t.op.txn.ops {
                if let OpTemplate::Write(k, _) = tpl {
                    if let Some(v) = self.base.store.read(*k) {
                        writes.push(repl_db::WriteRecord {
                            key: *k,
                            value: v.value,
                            version: v.version,
                        });
                    }
                }
            }
        }
        WriteSet { txn, writes }
    }

    fn finish_commit(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, txn: TxnId, commit: bool) {
        let Some(t) = self.inflight.remove(&txn) else {
            return;
        };
        let resp = Response {
            op: t.op.id,
            committed: commit,
            reads: t.reads.clone(),
        };
        if commit {
            let ws = self
                .base
                .tm
                .commit(txn)
                .unwrap_or_else(|_| WriteSet::empty(txn));
            self.base.history.mark_committed(txn);
            self.base.committed += 1;
            self.base.remember(&resp);
            if self.batching.enabled() {
                // Group commit: stage the redo record and defer both the
                // decision round and the client ack to the window's
                // single shared log force. The durable tier waits for the
                // force too, so a volume loss can only erase unacked
                // staged commits (their cached replies are evicted).
                self.staged_notes.push(ws.clone());
                self.wal.stage(ws);
                self.staged_decisions.push((txn, commit));
                self.staged_replies.push((t.op.client, resp));
                if self.staged_decisions.len() >= self.batching.max_batch {
                    self.flush_decisions(ctx);
                } else if !self.flush_armed {
                    self.flush_armed = true;
                    ctx.set_timer(
                        SimDuration::from_ticks(self.batching.max_delay_ticks),
                        DECISION_FLUSH_TAG,
                    );
                }
            } else {
                if let Some(tier) = &mut self.base.tier {
                    tier.note_commit(&ws);
                }
                self.wal.append(ws);
                for s in self.secondaries() {
                    ctx.send(s, EagerPrimaryMsg::Decision { txn, commit });
                }
                ctx.send(t.op.client, EagerPrimaryMsg::Reply(resp));
            }
        } else {
            // Aborts are never batched: the sooner secondaries undo a
            // doomed tentative transaction, the sooner its locks clear.
            for s in self.secondaries() {
                ctx.send(s, EagerPrimaryMsg::Decision { txn, commit });
            }
            let _ = self.base.tm.abort(&mut self.base.store, txn);
            self.base.history.purge(txn);
            self.base.aborted += 1;
        }
        let granted = self.lm.release_all(txn);
        for (g, _, _) in granted {
            self.resume(ctx, g);
        }
        // Retry wounded ops.
        while let Some((op, retries)) = self.requeue.pop_front() {
            self.begin_txn(ctx, op, retries);
        }
    }

    /// Flushes the staged decision window: one shared log force, one
    /// batched decision message per secondary, then the deferred acks.
    fn flush_decisions(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>) {
        if self.staged_decisions.is_empty() {
            return;
        }
        let _ = self.wal.flush_group();
        for ws in std::mem::take(&mut self.staged_notes) {
            if let Some(tier) = &mut self.base.tier {
                tier.note_commit(&ws);
            }
        }
        let entries = Arc::new(std::mem::take(&mut self.staged_decisions));
        for s in self.secondaries() {
            ctx.send(
                s,
                EagerPrimaryMsg::DecisionBatch {
                    entries: entries.clone(),
                },
            );
        }
        for (client, resp) in std::mem::take(&mut self.staged_replies) {
            ctx.send(client, EagerPrimaryMsg::Reply(resp));
        }
    }

    /// Secondary side: applies one primary decision to a tentative
    /// transaction (shared by `Decision` and `DecisionBatch`). Returns
    /// false for a commit decision whose transaction we never saw —
    /// the writes were propagated while this server was excluded, so
    /// only a state transfer can supply them.
    fn apply_decision(&mut self, txn: TxnId, commit: bool) -> bool {
        if let Some((_, resp)) = self.tentative.remove(&txn) {
            if commit {
                let ws = self
                    .base
                    .tm
                    .commit(txn)
                    .unwrap_or_else(|_| WriteSet::empty(txn));
                // Mirror the decision stream into the local redo log so
                // any server can donate a catch-up suffix. FIFO links
                // keep the mirrored order identical to the primary's.
                if let Some(tier) = &mut self.base.tier {
                    tier.note_commit(&ws);
                }
                self.wal.append(ws);
                self.base.history.mark_committed(txn);
                self.base.committed += 1;
                if let Some(r) = resp {
                    self.base.remember(&r);
                }
            } else {
                let _ = self.base.tm.abort(&mut self.base.store, txn);
                self.base.history.purge(txn);
                self.base.aborted += 1;
            }
            true
        } else {
            !commit
        }
    }

    /// Asks `donor` for the decisions we turned out to have missed
    /// (noticed via a commit decision for an unknown transaction).
    fn request_resync(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, donor: NodeId) {
        if !self.resync {
            self.resync = true;
            ctx.send(donor, EagerPrimaryMsg::SyncReq(self.wal.len() as u64));
        }
    }

    /// Re-enters the group after the database state is back in place
    /// (directly on crash recovery; after the restore download when a
    /// volume loss forced a rebuild from the durable tier).
    fn rejoin_now(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>) {
        if self.servers.len() == 1 {
            self.fd.reset();
            let mut out = Outbox::new();
            self.fd.on_start(&mut out);
            self.drive_fd(ctx, out);
            self.base.recovery.complete(ctx.now().ticks());
            return;
        }
        // Stay silent (no heartbeats) until the transfer lands, so the
        // acting primary keeps excluding us from 2PC cohorts meanwhile.
        self.recovering = true;
        let have = self.wal.len() as u64;
        for &s in &self.servers.clone() {
            if s != self.me {
                ctx.send(s, EagerPrimaryMsg::SyncReq(have));
            }
        }
    }

    /// Accepts a client operation, honouring the elastic lifecycle: answer
    /// from cache, reroute while draining, buffer while joining, else feed
    /// the normal read-local/primary/forward path.
    fn invoke(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, EagerPrimaryMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            let servers = self.elastic.remaining();
            ctx.send(
                op.client,
                EagerPrimaryMsg::Member(MemberMsg::Reroute { op: op.id, servers }),
            );
            return;
        }
        if self.elastic.joining {
            self.elastic.buffered.push(op);
            return;
        }
        if self.elastic.answered.contains(&op.id) {
            // Answered by the join donor before our snapshot: re-executing
            // would double-apply; the donor's cache serves the retry.
            return;
        }
        if self.recovering {
            return; // not a member yet; the client retries elsewhere
        }
        // Read-only transactions execute locally at any secondary —
        // unless this site holds tentative (undecided) writes, in
        // which case the read forwards to the primary to avoid
        // observing dirty data. At the primary, read-only
        // transactions go through the lock manager like any other.
        if op.is_read_only() && !self.is_primary() && self.tentative.is_empty() {
            if self.marks {
                ctx.mark(Phase::Execution.tag(), op.id.0, 0);
            }
            let txn = global_txn(op.id);
            let mut reads = Vec::new();
            for tpl in &op.txn.ops {
                if let OpTemplate::Read(k) = tpl {
                    reads.push((*k, self.base.read_committed(txn, *k)));
                }
            }
            self.base.history.mark_committed(txn);
            let resp = Response {
                op: op.id,
                committed: true,
                reads,
            };
            self.base.remember(&resp);
            ctx.send(op.client, EagerPrimaryMsg::Reply(resp));
            return;
        }
        if self.is_primary() {
            let txn = global_txn(op.id);
            if !self.inflight.contains_key(&txn) && !self.requeue.iter().any(|(o, _)| o.id == op.id)
            {
                self.begin_txn(ctx, op, 0);
            }
        } else {
            let p = self.primary();
            if p != self.me {
                ctx.send(p, EagerPrimaryMsg::Invoke(op));
            }
        }
    }

    /// Handles elastic-membership traffic.
    fn member(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, from: NodeId, msg: MemberMsg) {
        match msg {
            MemberMsg::JoinReq => {
                // Rank-0 admits (idempotently on retransmit). The view
                // update and the snapshot are taken in one event, so the
                // joiner's log cursor matches the transferred store, and
                // FIFO links order the `Welcome` before any later
                // decision multicast that now includes the joiner.
                if !self.elastic.is_coordinator()
                    || self.elastic.joining
                    || self.recovering
                    || self.elastic.rerouting()
                {
                    return;
                }
                self.elastic.admit(from);
                self.sync_membership();
                self.alive.insert(from);
                for &n in &self.servers.clone() {
                    if n != self.me && n != from {
                        ctx.send(
                            n,
                            EagerPrimaryMsg::Member(MemberMsg::ViewAdd {
                                servers: self.servers.clone(),
                            }),
                        );
                    }
                }
                // Roll tentative 2PC writes back: the joiner must only
                // install committed data; in-flight decisions reach it via
                // the resync path if they race ahead of the snapshot.
                let transfer = Transfer::committed_snapshot(
                    &self.base.store,
                    &self.base.tm,
                    self.wal.len() as u64,
                );
                ctx.send(
                    from,
                    EagerPrimaryMsg::Member(MemberMsg::Welcome {
                        servers: self.servers.clone(),
                        transfer: Some(Box::new(transfer)),
                        pos: self.wal.len() as u64,
                        gpos: self.wal.len() as u64,
                        answered: Elastic::answered_floor(&self.base),
                    }),
                );
            }
            MemberMsg::ViewAdd { servers } => {
                self.elastic.install(servers);
                self.sync_membership();
            }
            MemberMsg::ViewAck { .. } => {}
            MemberMsg::Welcome {
                servers,
                transfer,
                pos: _,
                gpos: _,
                answered,
            } => {
                if !self.elastic.joining {
                    return;
                }
                self.elastic.joining = false;
                self.elastic.install(servers);
                self.sync_membership();
                if let Some(t) = transfer {
                    self.base
                        .recovery
                        .record_transfer(t.strategy, t.wire_size() as u64);
                    match t.strategy {
                        TransferStrategy::LogSuffix => {
                            for ws in t.entries.iter() {
                                self.base.install_writeset(ws);
                                self.wal.append(ws.clone());
                            }
                        }
                        TransferStrategy::Snapshot => {
                            self.base.store.install_snapshot(&t.snapshot);
                            self.base.note_snapshot(&t.snapshot);
                            self.wal.skip_to(t.high);
                        }
                    }
                }
                self.elastic.answered = answered.into_iter().collect();
                self.base.recovery.complete(ctx.now().ticks());
                // Start heartbeats now that the group knows us.
                self.alive = self.servers.iter().copied().collect();
                self.fd.reset();
                let mut out = Outbox::new();
                self.fd.on_start(&mut out);
                self.drive_fd(ctx, out);
                for op in std::mem::take(&mut self.elastic.buffered) {
                    self.invoke(ctx, op);
                }
            }
            MemberMsg::ViewDrop { node } => {
                self.elastic.remove(node);
                self.sync_membership();
                // The drained server quiesced its 2PC work before leaving,
                // so unlike a crash there is nothing tentative to abort;
                // primary succession follows from the shrunken rank list.
            }
            MemberMsg::Reroute { .. } => {}
        }
    }

    /// Completes a drain once local 2PC work has quiesced: announce the
    /// departure and retire (the next-ranked survivor becomes primary).
    fn try_retire(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>) {
        if self.elastic.drain != DrainState::Draining {
            return;
        }
        if !self.inflight.is_empty()
            || !self.requeue.is_empty()
            || !self.tentative.is_empty()
            || !self.staged_decisions.is_empty()
        {
            ctx.set_timer(SimDuration::from_ticks(DRAIN_TICK_TICKS), DRAIN_TICK_TAG);
            return;
        }
        let remaining = self.elastic.remaining();
        // Go quiet: the survivors drop us from their detectors on
        // `ViewDrop`, so stopping heartbeats cannot raise a suspicion.
        self.fd.set_peers(Vec::new());
        for &n in &remaining {
            ctx.send(
                n,
                EagerPrimaryMsg::Member(MemberMsg::ViewDrop {
                    node: self.elastic.me,
                }),
            );
        }
        self.servers = remaining.clone();
        self.elastic.servers = remaining;
        self.elastic.drain = DrainState::Retired;
    }

    /// Wounds (aborts and requeues) a younger transaction.
    fn wound(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, victim: TxnId) {
        let Some(t) = self.inflight.remove(&victim) else {
            return;
        };
        for s in self.secondaries() {
            ctx.send(
                s,
                EagerPrimaryMsg::Decision {
                    txn: victim,
                    commit: false,
                },
            );
        }
        let _ = self.base.tm.abort(&mut self.base.store, victim);
        self.base.history.purge(victim);
        self.base.aborted += 1;
        let granted = self.lm.release_all(victim);
        if t.retries < MAX_WOUND_RETRIES {
            self.requeue.push_back((t.op, t.retries + 1));
        } else {
            ctx.send(
                t.op.client,
                EagerPrimaryMsg::Reply(Response::aborted(t.op.id)),
            );
        }
        for (g, _, _) in granted {
            self.resume(ctx, g);
        }
    }
}

impl Actor<EagerPrimaryMsg> for EagerPrimaryServer {
    fn on_start(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>) {
        if self.elastic.joining {
            // Cold joiner: ask rank 0 for admission + state and stay
            // quiet (no heartbeats) until welcomed.
            self.base.recovery.begin(ctx.now().ticks());
            let target = self.elastic.join_target();
            ctx.send(target, EagerPrimaryMsg::Member(MemberMsg::JoinReq));
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
            return;
        }
        self.alive = self.servers.iter().copied().collect();
        let mut out = Outbox::new();
        self.fd.on_start(&mut out);
        self.drive_fd(ctx, out);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, EagerPrimaryMsg>,
        from: NodeId,
        msg: EagerPrimaryMsg,
    ) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            EagerPrimaryMsg::Invoke(op) => {
                self.invoke(ctx, op);
            }
            EagerPrimaryMsg::Propagate { txn, step, ws } => {
                if self.recovering {
                    return; // the primary is not awaiting us while excluded
                }
                // Secondary: apply tentatively (undo-able).
                self.apply_tentative(txn, &ws);
                self.tentative.entry(txn).or_insert((OpId(0), None));
                ctx.send(from, EagerPrimaryMsg::PropAck { txn, step });
            }
            EagerPrimaryMsg::PropAck { txn, step } => {
                let done = {
                    let Some(t) = self.inflight.get_mut(&txn) else {
                        return;
                    };
                    match &mut t.phase {
                        TxnPhase::PropWait { step: s, awaiting } if *s == step => {
                            awaiting.remove(&from);
                            awaiting.is_empty()
                        }
                        _ => false,
                    }
                };
                if done {
                    self.resume(ctx, txn);
                }
            }
            EagerPrimaryMsg::Prepare { txn, ws, resp } => {
                if self.recovering {
                    return; // not in this transaction's 2PC cohort
                }
                // Secondary: apply the (single-op) writeset tentatively,
                // remember the response, vote.
                self.apply_tentative(txn, &ws);
                self.tentative.insert(txn, (resp.op, Some(resp)));
                ctx.send(from, EagerPrimaryMsg::Vote { txn, yes: true });
            }
            EagerPrimaryMsg::Vote { txn, yes } => {
                let decision = {
                    let Some(t) = self.inflight.get_mut(&txn) else {
                        return;
                    };
                    match &mut t.phase {
                        TxnPhase::Committing(c) => c.on_vote(from, yes),
                        _ => None,
                    }
                };
                match decision {
                    Some(TpcDecision::Commit) => self.finish_commit(ctx, txn, true),
                    Some(TpcDecision::Abort) => self.finish_commit(ctx, txn, false),
                    None => {}
                }
            }
            EagerPrimaryMsg::Decision { txn, commit } => {
                if self.recovering {
                    return; // covered by the pending state transfer
                }
                if !self.apply_decision(txn, commit) {
                    self.request_resync(ctx, from);
                }
            }
            EagerPrimaryMsg::DecisionBatch { entries } => {
                if self.recovering {
                    return;
                }
                let mut gap = false;
                for &(txn, commit) in entries.iter() {
                    gap |= !self.apply_decision(txn, commit);
                }
                if gap {
                    self.request_resync(ctx, from);
                }
            }
            EagerPrimaryMsg::Fd(m) => {
                let mut out = Outbox::new();
                self.fd.on_message(from, m, &mut out);
                self.drive_fd(ctx, out);
            }
            EagerPrimaryMsg::Reply(_) => {}
            EagerPrimaryMsg::Member(m) => {
                self.member(ctx, from, m);
            }
            EagerPrimaryMsg::SyncReq(have) => {
                if self.recovering || self.resync {
                    return;
                }
                // Proof of life: re-admit the requester *before* building
                // the transfer, so every decision from this instant on is
                // multicast to it — the transfer covers everything prior,
                // leaving no gap in between.
                let mut out = Outbox::new();
                self.fd.trust(from, &mut out);
                self.drive_fd(ctx, out);
                let t = if self.wal.has_suffix(have) {
                    Transfer::from_log(&self.wal, &self.base.store, have)
                } else {
                    // Snapshot fallback: roll tentative 2PC writes back so
                    // the requester only installs committed data.
                    Transfer::committed_snapshot(
                        &self.base.store,
                        &self.base.tm,
                        self.wal.len() as u64,
                    )
                };
                ctx.send(from, EagerPrimaryMsg::SyncData(Box::new(t)));
            }
            EagerPrimaryMsg::SyncData(t) => {
                let cur = self.wal.len() as u64;
                if t.high > cur {
                    self.base
                        .recovery
                        .record_transfer(t.strategy, t.wire_size() as u64);
                    match t.strategy {
                        TransferStrategy::LogSuffix => {
                            // Several donors may answer; skip the prefix an
                            // earlier (staler) transfer already installed.
                            for (i, ws) in t.entries.iter().enumerate() {
                                if t.start + i as u64 >= cur {
                                    self.base.install_writeset(ws);
                                    self.wal.append(ws.clone());
                                }
                            }
                        }
                        TransferStrategy::Snapshot => {
                            self.base.store.install_snapshot(&t.snapshot);
                            self.base.note_snapshot(&t.snapshot);
                            self.wal.skip_to(t.high);
                        }
                    }
                }
                if self.recovering {
                    self.recovering = false;
                    // Resume heartbeats only now: announcing earlier would
                    // draw 2PC traffic at a server with a stale store. The
                    // reset drops pre-crash miss counters, which would
                    // otherwise let the first tick suspect a live peer.
                    self.fd.reset();
                    let mut out = Outbox::new();
                    self.fd.on_start(&mut out);
                    self.drive_fd(ctx, out);
                }
                self.resync = false;
                self.base.recovery.complete(ctx.now().ticks());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>, _timer: TimerId, tag: u64) {
        // RESTORE_TAG exceeds FD_BASE, so it must be matched before the
        // range dispatch below.
        if tag == RESTORE_TAG {
            self.base.finish_restore();
            self.rejoin_now(ctx);
            return;
        }
        if self.base.restoring() {
            return;
        }
        // Elastic tags sit near u64::MAX, above the component ranges.
        if tag == JOIN_RETRY_TAG {
            if self.elastic.joining {
                let target = self.elastic.join_target();
                ctx.send(target, EagerPrimaryMsg::Member(MemberMsg::JoinReq));
                ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
            }
            return;
        }
        if tag == DRAIN_TICK_TAG {
            self.try_retire(ctx);
            return;
        }
        if tag >= FD_BASE {
            let mut out = Outbox::new();
            self.fd.on_timer(tag - FD_BASE, &mut out);
            self.drive_fd(ctx, out);
        } else if tag == DECISION_FLUSH_TAG {
            self.flush_armed = false;
            self.flush_decisions(ctx);
        }
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>) {
        self.base.recovery.begin(ctx.now().ticks());
        // In-flight coordination died with the process: undo every
        // tentative and primary-side transaction (clients re-submit).
        let mut stale: Vec<TxnId> = self.tentative.keys().copied().collect(); // sorted-below
        stale.sort_unstable();
        for txn in stale {
            self.abort_tentative(txn);
        }
        let mut mine: Vec<TxnId> = self.inflight.keys().copied().collect(); // sorted-below
        mine.sort_unstable();
        for txn in mine {
            self.inflight.remove(&txn);
            let _ = self.base.tm.abort(&mut self.base.store, txn);
            self.base.history.purge(txn);
            self.base.aborted += 1;
            let _ = self.lm.release_all(txn);
        }
        self.requeue.clear();
        self.staged_decisions.clear();
        self.staged_replies.clear();
        self.staged_notes.clear();
        self.flush_armed = false;
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
            // The tier mirrors the flushed decision stream one-for-one,
            // so the restored cursor is a redo-log length; the log itself
            // restarts empty at that position (peers donate anything
            // earlier, exactly as after a snapshot catch-up).
            self.wal = RedoLog::new();
            self.wal.set_retention(self.wal_retention);
            self.wal.skip_to(plan.token);
            if plan.delay > 0 {
                ctx.set_timer(SimDuration::from_ticks(plan.delay), RESTORE_TAG);
                return;
            }
            self.base.finish_restore();
        }
        self.rejoin_now(ctx);
    }

    fn on_volume_loss(&mut self, now: SimTime) {
        // Staged commits never reached the log force: unacked (replies
        // were staged too) and never noted to the tier, so evict their
        // cached responses — the client must re-execute, not be told
        // "committed" about state that no longer exists anywhere here.
        for (txn, _) in &self.staged_decisions {
            self.base.cache.remove(&op_of_txn(*txn));
        }
        self.base.wipe_volume(now.ticks());
        self.lm = LockManager::with_keyspace(DeadlockPolicy::WoundWait, self.base.keyspace());
        self.inflight.clear();
        self.requeue.clear();
        self.tentative.clear();
        self.staged_decisions.clear();
        self.staged_replies.clear();
        self.staged_notes.clear();
        self.flush_armed = false;
        self.resync = false;
        self.wal = RedoLog::new();
        self.wal.set_retention(self.wal_retention);
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, EagerPrimaryMsg>) {
        // The flushed redo-log length is the frame token: tier notes and
        // log entries move in lockstep on both primaries and secondaries.
        self.base.seal_now(ctx.now().ticks(), self.wal.len() as u64);
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use repl_sim::{SimConfig, SimDuration, SimTime, World};
    use repl_workload::TxnTemplate;

    fn write(k: u64, v: i64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![OpTemplate::Write(Key(k), Value(v))],
        }
    }
    fn read(k: u64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![OpTemplate::Read(Key(k))],
        }
    }
    fn multi(ops: Vec<OpTemplate>) -> TxnTemplate {
        TxnTemplate { ops }
    }

    fn build(
        n: u32,
        txns: Vec<Vec<TxnTemplate>>,
        seed: u64,
    ) -> (World<EagerPrimaryMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(EagerPrimaryServer::new(
                i,
                NodeId::new(i),
                servers.clone(),
                16,
                ExecutionMode::Deterministic,
                FdConfig::default(),
            )));
        }
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            let client = ClientActor::<EagerPrimaryMsg>::new(
                c as u32,
                servers.clone(),
                0,
                t,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(20_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn single_op_commit_replicates_everywhere() {
        let (mut world, servers, clients) = build(3, vec![vec![write(1, 7), read(1)]], 1);
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let client = world.actor_ref::<ClientActor<EagerPrimaryMsg>>(clients[0]);
        assert!(client.is_done());
        let fp0 = world
            .actor_ref::<EagerPrimaryServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .base
                    .store
                    .read(Key(1))
                    .expect("e")
                    .value,
                Value(7)
            );
        }
    }

    #[test]
    fn multi_op_transaction_propagates_per_operation() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![multi(vec![
                OpTemplate::Write(Key(0), Value(1)),
                OpTemplate::Write(Key(1), Value(2)),
                OpTemplate::Read(Key(0)),
            ])]],
            2,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let client = world.actor_ref::<ClientActor<EagerPrimaryMsg>>(clients[0]);
        assert!(client.is_done());
        let rec = client.records.last().expect("present");
        assert_eq!(
            rec.response.as_ref().expect("r").reads,
            vec![(Key(0), Value(1))]
        );
        let fp0 = world
            .actor_ref::<EagerPrimaryServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn reads_execute_at_any_site_and_see_fresh_data() {
        let (mut world, _servers, clients) = build(3, vec![vec![write(2, 5)]], 3);
        // Add a reader client attached to a secondary.
        let reader = ClientActor::<EagerPrimaryMsg>::new(
            1,
            (0..3).map(NodeId::new).collect(),
            2,
            vec![read(2)],
            SimDuration::from_ticks(3_000), // think long enough for the write to land
            SimDuration::from_ticks(20_000),
        );
        let r_id = world.add_actor(Box::new(reader));
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let _ = clients;
        let reader = world.actor_ref::<ClientActor<EagerPrimaryMsg>>(r_id);
        assert!(reader.is_done());
        // Eager: the secondary read is allowed to run before the write
        // commits (it sees 0) or after (it sees 5) — but the site must
        // answer locally, which we verify by it having answered at all and
        // having recorded a local read.
        let resp = reader.records[0].response.as_ref().expect("responded");
        assert!(resp.committed);
    }

    #[test]
    fn contended_multi_op_transactions_remain_serializable() {
        // Two clients write the same two keys in opposite orders — the
        // classic deadlock pattern. Wound-wait must resolve it and the
        // final history must be 1SR.
        let (mut world, servers, clients) = build(
            3,
            vec![
                vec![multi(vec![
                    OpTemplate::Write(Key(0), Value(1)),
                    OpTemplate::Write(Key(1), Value(2)),
                ])],
                vec![multi(vec![
                    OpTemplate::Write(Key(1), Value(20)),
                    OpTemplate::Write(Key(0), Value(10)),
                ])],
            ],
            4,
        );
        world.start();
        world.run_until(SimTime::from_ticks(2_000_000));
        for &c in &clients {
            assert!(
                world.actor_ref::<ClientActor<EagerPrimaryMsg>>(c).is_done(),
                "client {c} stuck (deadlock?)"
            );
        }
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<EagerPrimaryServer>(s).base.history);
        }
        assert!(merged.check_one_copy_serializable().is_ok());
        let fp0 = world
            .actor_ref::<EagerPrimaryServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn primary_crash_takeover_by_rank() {
        let (mut world, servers, clients) =
            build(3, vec![vec![write(0, 1), write(1, 2), write(2, 3)]], 5);
        world.schedule_crash(SimTime::from_ticks(1_500), servers[0]);
        world.start();
        world.run_until(SimTime::from_ticks(3_000_000));
        let client = world.actor_ref::<ClientActor<EagerPrimaryMsg>>(clients[0]);
        assert!(client.is_done(), "client stuck after primary crash");
        let s1 = world.actor_ref::<EagerPrimaryServer>(servers[1]);
        assert!(s1.is_primary() || !s1.fd.is_suspected(servers[1]));
        let fp1 = s1.base.store.fingerprint();
        let s2 = world.actor_ref::<EagerPrimaryServer>(servers[2]);
        assert_eq!(s2.base.store.fingerprint(), fp1, "survivors diverged");
    }

    #[test]
    fn batched_decisions_group_commit_and_converge() {
        // Three concurrent writers land in one decision window: the
        // primary logs every commit but shares the log force, and every
        // replica converges after the batched decision round.
        let mut world = World::new(SimConfig::new(11));
        let servers: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3 {
            world.add_actor(Box::new(
                EagerPrimaryServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    ExecutionMode::Deterministic,
                    FdConfig::default(),
                )
                .with_batching(BatchConfig::window(2_000)),
            ));
        }
        let mut clients = Vec::new();
        for c in 0..3u32 {
            let client = ClientActor::<EagerPrimaryMsg>::new(
                c,
                servers.clone(),
                0,
                vec![write(u64::from(c), i64::from(c) + 1)],
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(20_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<EagerPrimaryMsg>>(c).is_done());
        }
        let primary = world.actor_ref::<EagerPrimaryServer>(servers[0]);
        assert_eq!(primary.wal.len(), 3, "every commit must be logged");
        assert!(primary.wal.fsyncs() < 3, "group commit must share forces");
        let fp0 = primary.base.store.fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<EagerPrimaryServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn phase_skeleton_single_op_matches_figure_7() {
        let (mut world, _s, _c) = build(3, vec![vec![write(0, 1)]], 6);
        world.start();
        world.run_until(SimTime::from_ticks(200_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(pt.canonical().expect("op done").to_string(), "RE EX AC END");
    }

    #[test]
    fn phase_skeleton_multi_op_loops_ex_ac_as_figure_12() {
        let (mut world, _s, _c) = build(
            3,
            vec![vec![multi(vec![
                OpTemplate::Write(Key(0), Value(1)),
                OpTemplate::Write(Key(1), Value(2)),
            ])]],
            7,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        let sk = pt.canonical().expect("op done");
        assert!(sk.has_loop(), "multi-op transaction should loop: {sk}");
        assert_eq!(sk.to_string(), "RE EX AC EX AC END");
    }
}
