//! Lazy update everywhere with reconciliation (paper §4.6, Fig. 11).
//!
//! Any copy takes updates, commits and answers immediately; changes
//! propagate afterwards. Because other sites may have committed
//! conflicting transactions in the meantime, copies can be not merely
//! stale but *inconsistent*, and a reconciliation rule decides which
//! updates win (the paper: "Reconciliation is needed to decide which
//! updates are the winners"). Skeleton: `RE EX END AC`.
//!
//! Two reconciliation rules, selectable with [`ReconcileMode`]:
//!
//! * [`ReconcileMode::Lww`] — per-object last-writer-wins by commit
//!   timestamp with site tie-break (the Thomas write rule); exactly the
//!   per-object scheme whose limitation the paper notes.
//! * [`ReconcileMode::AbcastOrder`] — the paper's suggested alternative
//!   ("a straightforward solution … is to run an Atomic Broadcast and
//!   determine the after-commit-order according to the order of the
//!   atomic broadcast"): committed writesets are ABCAST and applied in
//!   total order everywhere.
//!
//! Discarded/overridden optimistic writes are counted in
//! [`LazyUeServer::reconciliations`] — the conflict-intensity experiment
//! sweeps them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use repl_db::{Key, Keyspace, TransferStrategy, TxnId, Value, WriteRecord, WriteSet};
use repl_gcs::Outbox;
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};
use repl_workload::OpTemplate;

use crate::client::ProtocolMsg;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, op_of_txn, settle_rejoin, AbMsg, AbcastEndpoint, AbcastImpl, DrainState, Elastic,
    ExecutionMode, MemberMsg, ServerBase, DRAIN_TICK_TAG, DRAIN_TICK_TICKS, JOIN_RETRY_TAG,
    JOIN_RETRY_TICKS, RESTORE_TAG,
};

/// How conflicting lazy updates are reconciled (paper §4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconcileMode {
    /// Per-object last-writer-wins (Thomas write rule).
    #[default]
    Lww,
    /// After-commit order decided by Atomic Broadcast.
    AbcastOrder,
}

/// A committed writeset travelling through the ABCAST (AbcastOrder mode).
///
/// The ordering uses the fixed-sequencer ABCAST (`servers[0]` sequences);
/// lazy techniques are not run in the crash experiments (the paper studies
/// them for performance, not fault tolerance), so the cheap primitive is
/// the right default here.
#[derive(Debug, Clone)]
pub struct OrderedWs(pub Arc<WriteSet>);

impl Message for OrderedWs {
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

/// Wire messages of lazy update everywhere.
#[derive(Debug, Clone)]
pub enum LazyUeMsg {
    /// Client → its local server.
    Invoke(ClientOp),
    /// Server → all other servers, after commit.
    Propagate {
        /// The committed redo records (`Arc`-shared across peers).
        ws: Arc<WriteSet>,
        /// Commit timestamp (virtual-time ticks) for last-writer-wins.
        commit_ts: u64,
        /// Committing site (timestamp tie-break).
        site: u32,
    },
    /// ABCAST traffic (AbcastOrder reconciliation).
    Ab(AbMsg<OrderedWs>),
    /// Recovering replica → every peer (Lww mode): send me your stamped
    /// committed state. Propagations sent during the outage were dropped
    /// and are never re-sent, so rejoin is anti-entropy: merge each
    /// peer's state under the same Thomas write rule as live traffic.
    SyncReq,
    /// Peer → recovering replica: stamped committed state, key-sorted.
    SyncData {
        /// `(key, value, commit_ts, site)` for every key the peer has
        /// accepted a stamped write for.
        items: Vec<(Key, Value, u64, u32)>,
    },
    /// Server → client.
    Reply(Response),
    /// Elastic-membership traffic (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for LazyUeMsg {
    fn wire_size(&self) -> usize {
        match self {
            LazyUeMsg::Invoke(op) => 8 + op.wire_size(),
            LazyUeMsg::Propagate { ws, .. } => 20 + ws.wire_size(),
            LazyUeMsg::Ab(m) => m.wire_size(),
            LazyUeMsg::SyncReq => 8,
            LazyUeMsg::SyncData { items } => 8 + items.len() * 28,
            LazyUeMsg::Reply(r) => 8 + r.wire_size(),
            LazyUeMsg::Member(m) => 8 + m.wire_size(),
        }
    }
}

impl ProtocolMsg for LazyUeMsg {
    fn invoke(op: ClientOp) -> Self {
        LazyUeMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            LazyUeMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            LazyUeMsg::Member(MemberMsg::Reroute { op, servers }) => Some((*op, servers)),
            _ => None,
        }
    }
}

const FLUSH_TAG: u64 = 1;

/// A lazy-update-everywhere server.
pub struct LazyUeServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    me: NodeId,
    servers: Vec<NodeId>,
    propagation_delay: SimDuration,
    /// Last accepted writer per key: `(commit_ts, site)`.
    last_writer: HashMap<Key, (u64, u32)>,
    outbound: Vec<(WriteSet, u64)>,
    flush_armed: bool,
    mode: ReconcileMode,
    ab: AbcastEndpoint<OrderedWs>,
    /// Locally committed transactions not yet confirmed by the total
    /// order (AbcastOrder mode).
    local_pending: HashSet<TxnId>,
    /// Writes discarded by the Thomas write rule (losers of concurrent
    /// conflicting updates).
    pub reconciliations: u64,
    /// Lww only: restored entries to re-propagate at stamp 0 once the
    /// restore download completes (peers adopt only keys they never saw).
    reship: Vec<WriteSet>,
    marks: bool,
    /// Elastic-membership state (join / drain lifecycle).
    pub elastic: Elastic,
}

impl LazyUeServer {
    /// Creates server `site` of `servers`.
    pub fn new(
        site: u32,
        me: NodeId,
        servers: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        propagation_delay: SimDuration,
    ) -> Self {
        let servers_copy = servers.clone();
        LazyUeServer {
            base: ServerBase::new(site, keyspace, exec),
            me,
            servers: servers.clone(),
            propagation_delay,
            last_writer: HashMap::new(),
            outbound: Vec::new(),
            flush_armed: false,
            mode: ReconcileMode::Lww,
            ab: AbcastEndpoint::new(
                AbcastImpl::Sequencer,
                me,
                servers_copy,
                repl_gcs::ConsensusConfig::default(),
            ),
            local_pending: HashSet::new(),
            reconciliations: 0,
            reship: Vec::new(),
            marks: site == 0,
            elastic: Elastic::new(me, servers),
        }
    }

    /// Marks this server as a cold joiner: it starts outside the view and
    /// acquires state + membership via `JoinReq`/`Welcome`.
    pub fn begin_join(&mut self) {
        self.elastic.begin_join();
    }

    /// Selects the reconciliation rule (default: last-writer-wins).
    pub fn with_reconcile(mut self, mode: ReconcileMode) -> Self {
        self.mode = mode;
        self
    }

    fn flush(&mut self, ctx: &mut Context<'_, LazyUeMsg>) {
        let pending = std::mem::take(&mut self.outbound);
        self.flush_armed = false;
        let site = self.base.site;
        for (ws, commit_ts) in pending {
            if self.marks {
                ctx.mark(Phase::AgreementCoordination.tag(), op_of_txn(ws.txn).0, 0);
            }
            match self.mode {
                ReconcileMode::Lww => {
                    // Only the peers apply it (self committed
                    // optimistically already).
                    let ws = Arc::new(ws);
                    for &s in &self.servers {
                        if s != self.me {
                            ctx.send(
                                s,
                                LazyUeMsg::Propagate {
                                    ws: ws.clone(),
                                    commit_ts,
                                    site,
                                },
                            );
                        }
                    }
                }
                ReconcileMode::AbcastOrder => {
                    // Every site (self included) applies the ordered
                    // delivery once.
                    let mut out = Outbox::new();
                    self.ab.broadcast(OrderedWs(Arc::new(ws)), &mut out);
                    self.drive_ab(ctx, out);
                }
            }
        }
    }

    /// Applies ABCAST-ordered writesets: the total order *is* the
    /// after-commit order, so every site replays the same sequence.
    fn drive_ab(
        &mut self,
        ctx: &mut Context<'_, LazyUeMsg>,
        out: Outbox<AbMsg<OrderedWs>, repl_gcs::AbDeliver<OrderedWs>>,
    ) {
        let deliveries = repl_gcs::apply_outbox(ctx, out, 0, LazyUeMsg::Ab);
        for d in deliveries {
            let ws = d.payload.0;
            let txn = ws.txn;
            let own = self.local_pending.remove(&txn);
            let mut noted = self.base.tier.is_some().then(|| WriteSet {
                txn,
                writes: Vec::with_capacity(ws.writes.len()),
            });
            for w in &ws.writes {
                // An optimistic local value that had not reached the
                // total order yet is being overridden: that is a
                // reconciliation.
                if let Some(current) = self.base.store.read(w.key) {
                    if let Some(writer) = current.writer {
                        if writer != txn && self.local_pending.contains(&writer) {
                            self.reconciliations += 1;
                        }
                    }
                }
                let after = self.base.store.write(w.key, w.value, txn);
                if let Some(n) = &mut noted {
                    n.writes.push(WriteRecord {
                        key: w.key,
                        value: w.value,
                        version: after.version,
                    });
                }
                if !own {
                    self.base.history.record(
                        self.base.site,
                        txn,
                        w.key,
                        repl_db::AccessKind::Write,
                    );
                }
            }
            // The tier notes at *delivery*, not at the optimistic local
            // commit: the sealed state is then exactly a prefix of the
            // total order, so a restore can rewind the stream to the
            // frame token and replay forward consistently.
            if let (Some(t), Some(noted)) = (&mut self.base.tier, noted) {
                t.note_commit(&noted);
            }
            if !own {
                self.base.history.mark_committed(txn);
                self.base.committed += 1;
            }
        }
        settle_rejoin(&mut self.ab, &mut self.base, ctx.now().ticks());
    }

    /// Every key this replica has accepted a stamped write for, with its
    /// winning stamp, key-sorted (the `last_writer` map iterates in hash
    /// order, which must not leak into the wire stream).
    fn stamped_state(&self) -> Vec<(Key, Value, u64, u32)> {
        let mut items: Vec<(Key, Value, u64, u32)> = self
            .last_writer
            .iter()
            .map(|(&k, &(ts, site))| {
                let v = self.base.store.read(k).map_or(Value(0), |v| v.value);
                (k, v, ts, site)
            })
            .collect();
        items.sort_by_key(|e| e.0);
        items
    }

    /// Merges a peer's stamped state under the Thomas write rule. Keys
    /// the peer never saw keep this replica's surviving values; losing
    /// stamps are not counted as reconciliations (nothing optimistic is
    /// being discarded — this is catch-up, not conflict).
    fn merge_stamped(&mut self, items: Vec<(Key, Value, u64, u32)>) {
        for (k, v, ts, site) in items {
            let stamp = (ts, site);
            let current = self.last_writer.get(&k).copied().unwrap_or((0, u32::MAX));
            let newer = stamp.0 > current.0 || (stamp.0 == current.0 && stamp.1 < current.1);
            if newer {
                self.last_writer.insert(k, stamp);
                let txn = TxnId::new(ts, site);
                let after = self.base.store.write(k, v, txn);
                if let Some(t) = &mut self.base.tier {
                    t.note_commit(&WriteSet {
                        txn,
                        writes: vec![WriteRecord {
                            key: k,
                            value: v,
                            version: after.version,
                        }],
                    });
                }
            }
        }
    }

    /// Applies a remote writeset under the Thomas write rule.
    fn reconcile(&mut self, ws: &WriteSet, commit_ts: u64, site: u32) {
        let txn = ws.txn;
        let mut any_applied = false;
        // The winning subset is collected for the durable tier only.
        let mut applied: Option<Vec<WriteRecord>> = self.base.tier.is_some().then(Vec::new);
        for w in &ws.writes {
            let stamp = (commit_ts, site);
            let current = self
                .last_writer
                .get(&w.key)
                .copied()
                .unwrap_or((0, u32::MAX));
            // Newer stamp wins; on equal timestamps the lower site wins
            // (any deterministic rule works, it just has to be the same
            // everywhere).
            let newer = stamp.0 > current.0 || (stamp.0 == current.0 && stamp.1 < current.1);
            if newer {
                self.last_writer.insert(w.key, stamp);
                let after = self.base.store.write(w.key, w.value, txn);
                self.base
                    .history
                    .record(self.base.site, txn, w.key, repl_db::AccessKind::Write);
                if let Some(a) = &mut applied {
                    a.push(WriteRecord {
                        key: w.key,
                        value: w.value,
                        version: after.version,
                    });
                }
                any_applied = true;
            } else {
                self.reconciliations += 1;
            }
        }
        if any_applied {
            self.base.history.mark_committed(txn);
            self.base.committed += 1;
            // Only the winning subset is durable state worth restoring.
            if let (Some(t), Some(applied)) = (&mut self.base.tier, applied) {
                t.note_commit(&WriteSet {
                    txn,
                    writes: applied,
                });
            }
        }
    }

    /// Accepts a client operation, honouring the elastic lifecycle: answer
    /// from cache, reroute while draining, buffer while joining, else the
    /// normal optimistic local execute-and-reply path.
    fn invoke(&mut self, ctx: &mut Context<'_, LazyUeMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, LazyUeMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            let servers = self.elastic.remaining();
            ctx.send(
                op.client,
                LazyUeMsg::Member(MemberMsg::Reroute { op: op.id, servers }),
            );
            return;
        }
        if self.elastic.joining {
            self.elastic.buffered.push(op);
            return;
        }
        if self.elastic.answered.contains(&op.id) {
            // Answered by the join donor before our state merge: the
            // donor's cache serves the retry; re-executing would
            // double-commit.
            return;
        }
        if self.marks {
            ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        }
        let txn = global_txn(op.id);
        // Execute locally, against possibly-divergent local state.
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for tpl in &op.txn.ops {
            match *tpl {
                OpTemplate::Read(k) => {
                    reads.push((k, self.base.read_committed(txn, k)));
                }
                OpTemplate::Write(k, v) => {
                    let v = self.base.effective_value(v);
                    let after = self.base.store.write(k, v, txn);
                    self.base
                        .history
                        .record(self.base.site, txn, k, repl_db::AccessKind::Write);
                    self.last_writer
                        .insert(k, (ctx.now().ticks(), self.base.site));
                    writes.push(repl_db::WriteRecord {
                        key: k,
                        value: v,
                        version: after.version,
                    });
                }
            }
        }
        self.base.history.mark_committed(txn);
        self.base.committed += 1;
        let resp = Response {
            op: op.id,
            committed: true,
            reads,
        };
        self.base.remember(&resp);
        // Lazy: reply before any coordination.
        ctx.send(op.client, LazyUeMsg::Reply(resp));
        if !writes.is_empty() {
            if self.mode == ReconcileMode::AbcastOrder {
                self.local_pending.insert(txn);
            }
            let ws = WriteSet { txn, writes };
            // Lww seals optimistic commits as they happen; in
            // AbcastOrder the tier notes at ordered delivery
            // instead (see `drive_ab`), so a restored store is a
            // clean prefix of the stream.
            if self.mode == ReconcileMode::Lww {
                if let Some(t) = &mut self.base.tier {
                    t.note_commit(&ws);
                }
            }
            self.outbound.push((ws, ctx.now().ticks()));
            if self.propagation_delay.is_zero() {
                self.flush(ctx);
            } else if !self.flush_armed {
                self.flush_armed = true;
                ctx.set_timer(self.propagation_delay, FLUSH_TAG);
            }
        }
    }

    /// Handles elastic-membership traffic.
    fn member(&mut self, ctx: &mut Context<'_, LazyUeMsg>, from: NodeId, msg: MemberMsg) {
        match msg {
            MemberMsg::JoinReq => {
                // Rank-0 admits (idempotently on retransmit). Lww joiners
                // fetch state by anti-entropy from every member after the
                // Welcome; AbcastOrder joiners get a snapshot stamped with
                // the ordered-stream position.
                if !self.elastic.is_coordinator()
                    || self.elastic.joining
                    || self.elastic.rerouting()
                {
                    return;
                }
                self.elastic.admit(from);
                self.servers = self.elastic.servers.clone();
                self.ab.set_group(self.servers.clone());
                for &n in &self.servers.clone() {
                    if n != self.me && n != from {
                        ctx.send(
                            n,
                            LazyUeMsg::Member(MemberMsg::ViewAdd {
                                servers: self.servers.clone(),
                            }),
                        );
                    }
                }
                let (transfer, pos, gpos) = match self.mode {
                    ReconcileMode::Lww => (None, 0, 0),
                    ReconcileMode::AbcastOrder => (
                        Some(Box::new(repl_db::Transfer::snapshot(
                            &self.base.store,
                            self.ab.position(),
                        ))),
                        self.ab.position(),
                        self.ab.delivered_gseq(),
                    ),
                };
                ctx.send(
                    from,
                    LazyUeMsg::Member(MemberMsg::Welcome {
                        servers: self.servers.clone(),
                        transfer,
                        pos,
                        gpos,
                        answered: Elastic::answered_floor(&self.base),
                    }),
                );
            }
            MemberMsg::ViewAdd { servers } => {
                self.elastic.install(servers);
                self.servers = self.elastic.servers.clone();
                self.ab.set_group(self.servers.clone());
            }
            MemberMsg::ViewAck { .. } => {}
            MemberMsg::Welcome {
                servers,
                transfer,
                pos,
                gpos,
                answered,
            } => {
                if !self.elastic.joining {
                    return;
                }
                self.elastic.joining = false;
                self.elastic.install(servers);
                self.servers = self.elastic.servers.clone();
                self.ab.set_group(self.servers.clone());
                self.elastic.answered = answered.into_iter().collect();
                match self.mode {
                    ReconcileMode::Lww => {
                        // Anti-entropy join: merge every member's stamped
                        // state (recovery completes on the first reply).
                        for &s in &self.servers.clone() {
                            if s != self.me {
                                ctx.send(s, LazyUeMsg::SyncReq);
                            }
                        }
                    }
                    ReconcileMode::AbcastOrder => {
                        if let Some(t) = transfer {
                            self.base
                                .recovery
                                .record_transfer(t.strategy, t.wire_size() as u64);
                            self.base.store.install_snapshot(&t.snapshot);
                            self.base.note_snapshot(&t.snapshot);
                        }
                        self.ab.skip_to(pos, gpos);
                        let mut out = Outbox::new();
                        self.ab.rejoin(&mut out);
                        self.drive_ab(ctx, out);
                        self.base.recovery.complete(ctx.now().ticks());
                    }
                }
                for op in std::mem::take(&mut self.elastic.buffered) {
                    self.invoke(ctx, op);
                }
            }
            MemberMsg::ViewDrop { node } => {
                self.elastic.remove(node);
                self.servers = self.elastic.servers.clone();
                self.ab.set_group(self.servers.clone());
            }
            MemberMsg::Reroute { .. } => {}
        }
    }

    /// Completes a drain once the propagation queue (and, under ordered
    /// reconciliation, the local unordered backlog) has quiesced.
    fn try_retire(&mut self, ctx: &mut Context<'_, LazyUeMsg>) {
        if self.elastic.drain != DrainState::Draining {
            return;
        }
        if !self.outbound.is_empty()
            || (self.mode == ReconcileMode::AbcastOrder && !self.local_pending.is_empty())
        {
            ctx.set_timer(SimDuration::from_ticks(DRAIN_TICK_TICKS), DRAIN_TICK_TAG);
            return;
        }
        let was_orderer = self.ab.is_orderer(self.elastic.me);
        let remaining = self.elastic.remaining();
        self.ab.set_group(remaining.clone());
        if was_orderer {
            let mut out = Outbox::new();
            self.ab.handoff(remaining[0], &mut out);
            self.drive_ab(ctx, out);
        }
        for &n in &remaining {
            ctx.send(
                n,
                LazyUeMsg::Member(MemberMsg::ViewDrop {
                    node: self.elastic.me,
                }),
            );
        }
        self.servers = remaining.clone();
        self.elastic.servers = remaining;
        self.elastic.drain = DrainState::Retired;
    }

    /// Re-enters service after the database state is back in place
    /// (directly on crash recovery; after the restore download when a
    /// volume loss forced a rebuild from the durable tier).
    fn rejoin_now(&mut self, ctx: &mut Context<'_, LazyUeMsg>) {
        // Timers died with the crash: anything still queued for
        // propagation goes out now.
        self.flush_armed = false;
        if !self.outbound.is_empty() {
            self.flush(ctx);
        }
        let reship = std::mem::take(&mut self.reship);
        if !reship.is_empty() {
            let site = self.base.site;
            for ws in reship {
                let ws = Arc::new(ws);
                for &s in &self.servers {
                    if s != self.me {
                        ctx.send(
                            s,
                            LazyUeMsg::Propagate {
                                ws: ws.clone(),
                                commit_ts: 0,
                                site,
                            },
                        );
                    }
                }
            }
        }
        match self.mode {
            ReconcileMode::Lww => {
                if self.servers.len() <= 1 {
                    let now = ctx.now().ticks();
                    self.base.recovery.complete(now);
                    return;
                }
                for &s in &self.servers {
                    if s != self.me {
                        ctx.send(s, LazyUeMsg::SyncReq);
                    }
                }
            }
            ReconcileMode::AbcastOrder => {
                // The ordered stream is the shared log: re-request the
                // missed deliveries from the sequencer.
                let mut out = Outbox::new();
                self.ab.rejoin(&mut out);
                self.drive_ab(ctx, out);
            }
        }
    }
}

impl Actor<LazyUeMsg> for LazyUeServer {
    fn on_recover(&mut self, ctx: &mut Context<'_, LazyUeMsg>) {
        self.base.recovery.begin(ctx.now().ticks());
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
            match self.mode {
                ReconcileMode::Lww => {
                    // Stamps cannot be restored (the tier keeps values,
                    // not clocks): re-propagate the restored entries at
                    // stamp 0 so peers adopt only keys they never saw,
                    // and let the rejoin anti-entropy reinstate the
                    // group's winning stamps here.
                    self.reship = plan.entries;
                }
                ReconcileMode::AbcastOrder => self.ab.rewind_to(plan.token),
            }
            if plan.delay > 0 {
                ctx.set_timer(SimDuration::from_ticks(plan.delay), RESTORE_TAG);
                return;
            }
            self.base.finish_restore();
        }
        self.rejoin_now(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, LazyUeMsg>, from: NodeId, msg: LazyUeMsg) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            LazyUeMsg::Invoke(op) => {
                self.invoke(ctx, op);
            }
            LazyUeMsg::Propagate {
                ws,
                commit_ts,
                site,
            } => {
                self.reconcile(&ws, commit_ts, site);
            }
            LazyUeMsg::Ab(m) => {
                let mut out = Outbox::new();
                self.ab.on_message(from, m, &mut out);
                self.drive_ab(ctx, out);
            }
            LazyUeMsg::SyncReq => {
                let items = self.stamped_state();
                ctx.send(from, LazyUeMsg::SyncData { items });
            }
            LazyUeMsg::SyncData { items } => {
                // First reply ends the recovery window (this replica can
                // serve again); later replies still merge — anti-entropy
                // is commutative, extra rounds only add coverage.
                self.base
                    .recovery
                    .record_transfer(TransferStrategy::Snapshot, (8 + items.len() * 28) as u64);
                self.merge_stamped(items);
                self.base.recovery.complete(ctx.now().ticks());
            }
            LazyUeMsg::Reply(_) => {}
            LazyUeMsg::Member(m) => {
                self.member(ctx, from, m);
            }
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, LazyUeMsg>) {
        if self.elastic.joining {
            // Cold joiner: ask rank 0 for admission.
            self.base.recovery.begin(ctx.now().ticks());
            let target = self.elastic.join_target();
            ctx.send(target, LazyUeMsg::Member(MemberMsg::JoinReq));
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
        }
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, LazyUeMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, LazyUeMsg>, _timer: TimerId, tag: u64) {
        if tag == RESTORE_TAG {
            self.base.finish_restore();
            self.rejoin_now(ctx);
            return;
        }
        if self.base.restoring() {
            return;
        }
        // Elastic tags sit near u64::MAX and must not reach the ABCAST.
        if tag == JOIN_RETRY_TAG {
            if self.elastic.joining {
                let target = self.elastic.join_target();
                ctx.send(target, LazyUeMsg::Member(MemberMsg::JoinReq));
                ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
            }
            return;
        }
        if tag == DRAIN_TICK_TAG {
            self.try_retire(ctx);
            return;
        }
        if tag == FLUSH_TAG {
            self.flush(ctx);
            if self.elastic.drain == DrainState::Draining {
                self.try_retire(ctx);
            }
        } else {
            let mut out = Outbox::new();
            self.ab.on_timer(tag, &mut out);
            self.drive_ab(ctx, out);
        }
    }

    fn on_volume_loss(&mut self, now: SimTime) {
        // Acked commits still waiting for the total order vanish with the
        // volume (they were never noted): claim them so silent-loss
        // accounting holds. The sequencer may still resupply the flushed
        // ones — a safe over-claim.
        if self.mode == ReconcileMode::AbcastOrder {
            let mut pend: Vec<TxnId> = self.local_pending.iter().copied().collect();
            pend.sort();
            if let Some(t) = &mut self.base.tier {
                t.lost.extend(pend);
            }
        }
        self.base.wipe_volume(now.ticks());
        self.last_writer.clear();
        self.outbound.clear();
        self.flush_armed = false;
        self.local_pending.clear();
        self.reship.clear();
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, LazyUeMsg>) {
        let token = match self.mode {
            // No stream exists; Lww restores never rewind by token.
            ReconcileMode::Lww => self.base.committed,
            ReconcileMode::AbcastOrder => self.ab.position(),
        };
        self.base.seal_now(ctx.now().ticks(), token);
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use repl_db::Value;
    use repl_sim::{SimConfig, SimTime, World};
    use repl_workload::TxnTemplate;

    fn write(k: u64, v: i64) -> TxnTemplate {
        TxnTemplate {
            ops: vec![OpTemplate::Write(Key(k), Value(v))],
        }
    }

    fn build(
        n: u32,
        txns: Vec<Vec<TxnTemplate>>,
        delay: u64,
        seed: u64,
    ) -> (World<LazyUeMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(LazyUeServer::new(
                i,
                NodeId::new(i),
                servers.clone(),
                16,
                ExecutionMode::Deterministic,
                SimDuration::from_ticks(delay),
            )));
        }
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            let client = ClientActor::<LazyUeMsg>::new(
                c as u32,
                servers.clone(),
                c % n as usize,
                t,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(20_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn disjoint_updates_converge_without_reconciliation() {
        let (mut world, servers, _clients) = build(
            3,
            vec![vec![write(0, 1)], vec![write(1, 2)], vec![write(2, 3)]],
            0,
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let fp0 = world
            .actor_ref::<LazyUeServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            let srv = world.actor_ref::<LazyUeServer>(s);
            assert_eq!(srv.base.store.fingerprint(), fp0);
            assert_eq!(srv.reconciliations, 0);
        }
    }

    #[test]
    fn conflicting_updates_reconcile_to_one_winner_everywhere() {
        // Two clients write the same key at different sites at (almost)
        // the same time: each site commits its own value first, then
        // reconciliation picks a single global winner.
        let (mut world, servers, clients) =
            build(2, vec![vec![write(0, 111)], vec![write(0, 222)]], 2_000, 2);
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<LazyUeMsg>>(c).is_done());
        }
        let s0 = world.actor_ref::<LazyUeServer>(servers[0]);
        let s1 = world.actor_ref::<LazyUeServer>(servers[1]);
        let v0 = s0.base.store.read(Key(0)).expect("e").value;
        let v1 = s1.base.store.read(Key(0)).expect("e").value;
        assert_eq!(v0, v1, "reconciliation did not converge");
        assert!(v0 == Value(111) || v0 == Value(222));
        let total_reconciliations = s0.reconciliations + s1.reconciliations;
        assert!(
            total_reconciliations >= 1,
            "a conflicting write must have been discarded"
        );
    }

    #[test]
    fn both_clients_got_optimistic_commits_despite_conflict() {
        // The dark side of lazy update everywhere: both clients were told
        // "committed", but one update was silently reconciled away.
        let (mut world, servers, clients) =
            build(2, vec![vec![write(0, 111)], vec![write(0, 222)]], 2_000, 3);
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        for &c in &clients {
            let client = world.actor_ref::<ClientActor<LazyUeMsg>>(c);
            assert!(
                client.records[0].committed(),
                "lazy always answers committed"
            );
        }
        let winner = world
            .actor_ref::<LazyUeServer>(servers[0])
            .base
            .store
            .read(Key(0))
            .expect("e")
            .value;
        // Exactly one of the two committed values survived.
        assert!(winner == Value(111) || winner == Value(222));
    }

    #[test]
    fn reconciliation_count_grows_with_conflict_rate() {
        // All clients hammer one key vs. spread keys: the hot-key run must
        // reconcile strictly more.
        let run = |spread: bool, seed: u64| -> u64 {
            let txns: Vec<Vec<TxnTemplate>> = (0..4u64)
                .map(|c| {
                    (0..5)
                        .map(|i| write(if spread { c * 8 + i } else { 0 }, (c * 100 + i) as i64))
                        .collect()
                })
                .collect();
            let (mut world, servers, _clients) = build(4, txns, 1_500, seed);
            world.start();
            world.run_until(SimTime::from_ticks(1_000_000));
            servers
                .iter()
                .map(|&s| world.actor_ref::<LazyUeServer>(s).reconciliations)
                .sum()
        };
        let hot = run(false, 4);
        let cold = run(true, 5);
        assert!(
            hot > cold,
            "hot-key workload should reconcile more (hot={hot}, cold={cold})"
        );
    }

    #[test]
    fn phase_skeleton_matches_figure_11() {
        let (mut world, _s, _c) = build(3, vec![vec![write(0, 1)]], 1_000, 6);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(pt.canonical().expect("op done").to_string(), "RE EX END AC");
    }
}
