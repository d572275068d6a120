//! Lazy primary copy replication (paper §4.5, Fig. 10).
//!
//! All updates go to the primary, which executes, commits and answers the
//! client *before* any coordination; the changes propagate to the
//! secondaries afterwards (the paper's inverted phase order — the END
//! phase precedes Agreement Coordination). Skeleton: `RE EX END AC`.
//!
//! Reads execute at whatever server the client contacts, so secondaries
//! serve **stale** data until propagation catches up — the price of the
//! one-round-trip response time. The staleness oracle in
//! [`crate::consistency`] quantifies it.
//!
//! Because ordering happens entirely at the primary, secondaries apply
//! updates in primary-commit order (FIFO from the primary) and replicas
//! converge; no reconciliation is ever needed (contrast with
//! [`crate::protocols::lazy_ue`]).
//!
//! Secondaries support **crash recovery with catch-up**: the primary
//! numbers every propagated writeset against its redo log
//! ([`repl_db::RedoLog`]); a recovering (or gap-detecting) secondary asks
//! for the suffix it missed and replays it in order — the classic
//! log-shipping standby pattern. When the log has been truncated past
//! the requester's position (finite retention, long outage) the primary
//! falls back to a full [`Transfer`] snapshot instead.

use std::sync::Arc;

use repl_db::{Keyspace, RedoLog, Transfer, TransferStrategy, WriteSet};
use repl_gcs::BatchConfig;
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};
use repl_workload::OpTemplate;

use crate::client::ProtocolMsg;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, DrainState, Elastic, ExecutionMode, MemberMsg, ServerBase, DRAIN_TICK_TAG,
    DRAIN_TICK_TICKS, JOIN_RETRY_TAG, JOIN_RETRY_TICKS, RESTORE_TAG,
};

/// Wire messages of lazy primary copy replication.
#[derive(Debug, Clone)]
pub enum LazyPrimaryMsg {
    /// Client → server (updates forwarded to the primary, reads local).
    Invoke(ClientOp),
    /// Primary → secondaries: committed writesets, in commit order.
    /// The writeset is `Arc`-shared so the per-secondary fan-out clones
    /// a pointer, not the records; `wire_size` still charges the full
    /// logical size.
    Propagate {
        /// Position in the primary's redo log.
        idx: u64,
        /// The committed redo records.
        ws: Arc<WriteSet>,
    },
    /// Primary → secondaries: one batching window's worth of committed
    /// writesets, group-committed to the WAL with one force and shipped
    /// as one message per secondary.
    PropagateBatch {
        /// Log index of the first entry.
        start: u64,
        /// The committed redo records, in commit order.
        entries: Arc<Vec<WriteSet>>,
    },
    /// Recovering/gapped secondary → primary: send me the log from `have`.
    CatchUpReq {
        /// Number of log entries the secondary has applied.
        have: u64,
    },
    /// Primary → secondary: log suffix or snapshot, per the donor's
    /// retention (boxed: the payload dwarfs the other variants).
    CatchUpData(Box<Transfer>),
    /// Server → client.
    Reply(Response),
    /// Elastic-membership traffic (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for LazyPrimaryMsg {
    fn wire_size(&self) -> usize {
        match self {
            LazyPrimaryMsg::Invoke(op) => 8 + op.wire_size(),
            LazyPrimaryMsg::Propagate { ws, .. } => 16 + ws.wire_size(),
            LazyPrimaryMsg::PropagateBatch { entries, .. } => {
                16 + entries.iter().map(|w| 8 + w.wire_size()).sum::<usize>()
            }
            LazyPrimaryMsg::CatchUpReq { .. } => 16,
            LazyPrimaryMsg::CatchUpData(t) => 8 + t.wire_size(),
            LazyPrimaryMsg::Reply(r) => 8 + r.wire_size(),
            LazyPrimaryMsg::Member(m) => 8 + m.wire_size(),
        }
    }
}

impl ProtocolMsg for LazyPrimaryMsg {
    fn invoke(op: ClientOp) -> Self {
        LazyPrimaryMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            LazyPrimaryMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            LazyPrimaryMsg::Member(MemberMsg::Reroute { op, servers }) => Some((*op, servers)),
            _ => None,
        }
    }
}

const FLUSH_TAG: u64 = 1;

/// A lazy-primary-copy server.
pub struct LazyPrimaryServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    me: NodeId,
    servers: Vec<NodeId>,
    /// Extra delay before propagating committed updates (0 = propagate
    /// immediately after the reply; larger values widen the staleness
    /// window for the experiments).
    propagation_delay: SimDuration,
    /// Committed writesets awaiting propagation.
    outbound: Vec<WriteSet>,
    flush_armed: bool,
    /// Batching window for the propagation stream: writesets committed
    /// within one window ship as a single [`LazyPrimaryMsg::PropagateBatch`]
    /// per secondary, and the WAL group-commits them under one force.
    batching: BatchConfig,
    /// The primary's redo log (numbering the propagation stream).
    pub log: RedoLog,
    /// Secondary: how many log entries have been applied.
    pub applied: u64,
    /// Remembered retention cap, re-applied when a volume loss forces a
    /// fresh redo log.
    log_retention: Option<usize>,
    /// Primary only: a volume restore rebuilt the log, so the retained
    /// suffix must be re-shipped (its tail may never have propagated).
    reship: bool,
    marks: bool,
    /// Elastic-membership state (join / drain lifecycle).
    pub elastic: Elastic,
}

impl LazyPrimaryServer {
    /// Creates server `site` of `servers`; the primary is rank 0.
    pub fn new(
        site: u32,
        me: NodeId,
        servers: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        propagation_delay: SimDuration,
    ) -> Self {
        LazyPrimaryServer {
            base: ServerBase::new(site, keyspace, exec),
            me,
            servers: servers.clone(),
            propagation_delay,
            outbound: Vec::new(),
            flush_armed: false,
            batching: BatchConfig::disabled(),
            log: RedoLog::new(),
            applied: 0,
            log_retention: None,
            reship: false,
            marks: site == 0,
            elastic: Elastic::new(me, servers),
        }
    }

    /// Marks this server as a cold joiner: it starts outside the view and
    /// acquires state + membership via `JoinReq`/`Welcome`.
    pub fn begin_join(&mut self) {
        self.elastic.begin_join();
    }

    /// Sets the propagation batching window (builder form).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batching = batch;
        self
    }

    /// Bounds the primary's redo-log retention: requesters that fall
    /// behind the truncation point get a snapshot instead of a suffix.
    pub fn set_log_retention(&mut self, retention: Option<usize>) {
        self.log_retention = retention;
        self.log.set_retention(retention);
    }

    /// The static primary.
    pub fn primary(&self) -> NodeId {
        self.servers[0]
    }

    fn flush(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>) {
        let pending = std::mem::take(&mut self.outbound);
        self.flush_armed = false;
        if pending.is_empty() {
            return;
        }
        if self.batching.enabled() {
            // Group commit: every writeset of the window reaches the
            // redo log under a single force, then one PropagateBatch
            // per secondary carries the whole window.
            let start = self.log.len() as u64;
            for ws in &pending {
                if self.marks {
                    // AC happens *after* END: the lazy signature.
                    let op = crate::protocols::common::op_of_txn(ws.txn);
                    ctx.mark(Phase::AgreementCoordination.tag(), op.0, 0);
                }
                self.log.stage(ws.clone());
            }
            self.log.flush_group();
            let entries = Arc::new(pending);
            for &s in &self.servers {
                if s != self.me {
                    ctx.send(
                        s,
                        LazyPrimaryMsg::PropagateBatch {
                            start,
                            entries: Arc::clone(&entries),
                        },
                    );
                }
            }
            return;
        }
        for ws in pending {
            if self.marks {
                // AC happens *after* END: the lazy signature.
                let op = crate::protocols::common::op_of_txn(ws.txn);
                ctx.mark(Phase::AgreementCoordination.tag(), op.0, 0);
            }
            let idx = self.log.append(ws.clone()) as u64;
            let ws = Arc::new(ws);
            for &s in &self.servers {
                if s != self.me {
                    ctx.send(
                        s,
                        LazyPrimaryMsg::Propagate {
                            idx,
                            ws: ws.clone(),
                        },
                    );
                }
            }
        }
    }

    /// Secondary: applies one numbered log entry if it is next in order.
    fn apply_entry(&mut self, idx: u64, ws: &WriteSet) -> bool {
        if idx != self.applied {
            return false;
        }
        self.base.install_writeset(ws);
        self.applied += 1;
        true
    }

    /// Accepts a client operation, honouring the elastic lifecycle: answer
    /// from cache, reroute while draining, buffer while joining, else feed
    /// the normal read-local/forward/execute path.
    fn invoke(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, LazyPrimaryMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            let servers = self.elastic.remaining();
            ctx.send(
                op.client,
                LazyPrimaryMsg::Member(MemberMsg::Reroute { op: op.id, servers }),
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
        // Reads answer locally wherever they land (possibly stale).
        if op.is_read_only() {
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
            ctx.send(op.client, LazyPrimaryMsg::Reply(resp));
            return;
        }
        // Updates must reach the primary.
        if self.me != self.primary() {
            let p = self.primary();
            ctx.send(p, LazyPrimaryMsg::Invoke(op));
            return;
        }
        if self.marks {
            ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        }
        let (ws, resp) = self.base.execute_commit(&op, global_txn(op.id));
        self.base.remember(&resp);
        // Lazy: reply *now*, coordinate later.
        ctx.send(op.client, LazyPrimaryMsg::Reply(resp));
        if !ws.is_empty() {
            self.outbound.push(ws);
            // With batching on, the flush waits for the wider of
            // the staleness delay and the batching window (or
            // goes out early on a full batch).
            let delay_ticks = if self.batching.enabled() {
                self.propagation_delay
                    .ticks()
                    .max(self.batching.max_delay_ticks)
            } else {
                self.propagation_delay.ticks()
            };
            let batch_full =
                self.batching.enabled() && self.outbound.len() >= self.batching.max_batch;
            if batch_full || delay_ticks == 0 {
                self.flush(ctx);
            } else if !self.flush_armed {
                self.flush_armed = true;
                ctx.set_timer(SimDuration::from_ticks(delay_ticks), FLUSH_TAG);
            }
        }
    }

    /// Handles elastic-membership traffic.
    fn member(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>, from: NodeId, msg: MemberMsg) {
        match msg {
            MemberMsg::JoinReq => {
                // The primary admits (idempotently on retransmit). The view
                // update and the snapshot happen in one event, so the
                // joiner's applied watermark matches the transferred store
                // and FIFO links order the `Welcome` before any later
                // propagation that now includes the joiner.
                if !self.elastic.is_coordinator()
                    || self.elastic.joining
                    || self.elastic.rerouting()
                    || self.me != self.primary()
                {
                    return;
                }
                self.elastic.admit(from);
                self.servers = self.elastic.servers.clone();
                for &n in &self.servers.clone() {
                    if n != self.me && n != from {
                        ctx.send(
                            n,
                            LazyPrimaryMsg::Member(MemberMsg::ViewAdd {
                                servers: self.servers.clone(),
                            }),
                        );
                    }
                }
                // Everything committed here is already in the store (lazy
                // primaries have no tentative state), so a snapshot at the
                // log cursor is the cheapest consistent transfer. Writes
                // still in `outbound` ship via normal propagation, which
                // FIFO orders after the `Welcome`.
                let transfer = Transfer::snapshot(&self.base.store, self.log.len() as u64);
                ctx.send(
                    from,
                    LazyPrimaryMsg::Member(MemberMsg::Welcome {
                        servers: self.servers.clone(),
                        transfer: Some(Box::new(transfer)),
                        pos: self.log.len() as u64,
                        gpos: self.log.len() as u64,
                        answered: Elastic::answered_floor(&self.base),
                    }),
                );
            }
            MemberMsg::ViewAdd { servers } => {
                self.elastic.install(servers);
                self.servers = self.elastic.servers.clone();
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
                self.servers = self.elastic.servers.clone();
                if let Some(t) = transfer {
                    self.base
                        .recovery
                        .record_transfer(t.strategy, t.wire_size() as u64);
                    match t.strategy {
                        TransferStrategy::LogSuffix => {
                            for (i, ws) in t.entries.iter().enumerate() {
                                self.apply_entry(t.start + i as u64, ws);
                            }
                        }
                        TransferStrategy::Snapshot => {
                            self.base.store.install_snapshot(&t.snapshot);
                            self.base.note_snapshot(&t.snapshot);
                            self.applied = t.high;
                        }
                    }
                }
                self.elastic.answered = answered.into_iter().collect();
                self.base.recovery.complete(ctx.now().ticks());
                for op in std::mem::take(&mut self.elastic.buffered) {
                    self.invoke(ctx, op);
                }
            }
            MemberMsg::ViewDrop { node } => {
                let was_primary = self.servers.first() == Some(&node);
                self.elastic.remove(node);
                self.servers = self.elastic.servers.clone();
                if was_primary
                    && self.me == self.primary()
                    && (self.log.len() as u64) < self.applied
                {
                    // Succession: continue the retired primary's numbered
                    // propagation stream from our applied watermark (the
                    // drain quiesced, so nothing later is in flight).
                    self.log.skip_to(self.applied);
                }
            }
            MemberMsg::Reroute { .. } => {}
        }
    }

    /// Completes a drain once the propagation queue has quiesced: announce
    /// the departure and retire. A retired ex-primary keeps answering
    /// catch-up requests so in-flight gap repairs still land.
    fn try_retire(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>) {
        if self.elastic.drain != DrainState::Draining {
            return;
        }
        if !self.outbound.is_empty() {
            ctx.set_timer(SimDuration::from_ticks(DRAIN_TICK_TICKS), DRAIN_TICK_TAG);
            return;
        }
        let remaining = self.elastic.remaining();
        for &n in &remaining {
            ctx.send(
                n,
                LazyPrimaryMsg::Member(MemberMsg::ViewDrop {
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
    fn rejoin_now(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>) {
        let primary = self.primary();
        if primary == self.me {
            // The primary's own log and store survive a plain crash; any
            // updates invoked during the outage were retried by clients.
            // Timers die with the crash, so re-arm a pending flush.
            self.flush_armed = false;
            if !self.outbound.is_empty() {
                self.flush(ctx);
            }
            if std::mem::take(&mut self.reship) {
                // The restored log tail may never have reached the
                // secondaries; re-ship the retained suffix. Entries a
                // secondary already applied are ignored, and a secondary
                // behind the retention point gap-detects into the usual
                // catch-up request.
                let start = self.log.first_retained();
                let entries: Vec<WriteSet> = self.log.since(start as usize).cloned().collect();
                if !entries.is_empty() {
                    let entries = Arc::new(entries);
                    for &s in &self.servers {
                        if s != self.me {
                            ctx.send(
                                s,
                                LazyPrimaryMsg::PropagateBatch {
                                    start,
                                    entries: Arc::clone(&entries),
                                },
                            );
                        }
                    }
                }
            }
            self.base.recovery.complete(ctx.now().ticks());
        } else {
            // Crash recovery: ask the primary for everything missed.
            ctx.send(primary, LazyPrimaryMsg::CatchUpReq { have: self.applied });
        }
    }
}

impl Actor<LazyPrimaryMsg> for LazyPrimaryServer {
    fn on_recover(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>) {
        self.base.recovery.begin(ctx.now().ticks());
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
            if self.me == self.primary() {
                // Tier note order equals log order at the primary, so
                // the restored suffix rebuilds the propagation stream
                // in place.
                self.log = RedoLog::new();
                self.log.set_retention(self.log_retention);
                self.log.skip_to(plan.start);
                for ws in &plan.entries {
                    self.log.append(ws.clone());
                }
                self.reship = true;
            } else {
                self.applied = plan.token;
            }
            if plan.delay > 0 {
                ctx.set_timer(SimDuration::from_ticks(plan.delay), RESTORE_TAG);
                return;
            }
            self.base.finish_restore();
        }
        self.rejoin_now(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, LazyPrimaryMsg>,
        from: NodeId,
        msg: LazyPrimaryMsg,
    ) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            LazyPrimaryMsg::Invoke(op) => {
                self.invoke(ctx, op);
            }
            LazyPrimaryMsg::Propagate { idx, ws } => {
                // Secondary: install in log order; on a gap (messages sent
                // while this secondary was crashed), ask for the suffix.
                if idx == self.applied {
                    self.base.install_writeset(&ws);
                    self.applied += 1;
                } else if idx > self.applied {
                    let primary = self.primary();
                    ctx.send(primary, LazyPrimaryMsg::CatchUpReq { have: self.applied });
                }
            }
            LazyPrimaryMsg::PropagateBatch { start, entries } => {
                let mut gap = false;
                for (i, ws) in entries.iter().enumerate() {
                    let idx = start + i as u64;
                    if !self.apply_entry(idx, ws) && idx > self.applied {
                        gap = true;
                    }
                }
                if gap {
                    let primary = self.primary();
                    ctx.send(primary, LazyPrimaryMsg::CatchUpReq { have: self.applied });
                }
            }
            LazyPrimaryMsg::Member(m) => {
                self.member(ctx, from, m);
            }
            LazyPrimaryMsg::CatchUpReq { have } => {
                // A retired ex-primary still answers: in-flight gap repairs
                // addressed before its `ViewDrop` landed must not be lost.
                if self.me == self.primary() || self.elastic.drain == DrainState::Retired {
                    // Suffix while retained, snapshot once truncated past
                    // the requester. Reply even when there is nothing to
                    // ship so the requester's recovery clock can stop.
                    let t = Transfer::from_log(&self.log, &self.base.store, have);
                    ctx.send(from, LazyPrimaryMsg::CatchUpData(Box::new(t)));
                }
            }
            LazyPrimaryMsg::CatchUpData(t) => {
                match t.strategy {
                    TransferStrategy::LogSuffix => {
                        for (i, ws) in t.entries.iter().enumerate() {
                            self.apply_entry(t.start + i as u64, ws);
                        }
                        if !t.entries.is_empty() {
                            self.base
                                .recovery
                                .record_transfer(t.strategy, t.wire_size() as u64);
                        }
                    }
                    TransferStrategy::Snapshot => {
                        if t.high > self.applied {
                            self.base.store.install_snapshot(&t.snapshot);
                            self.base.note_snapshot(&t.snapshot);
                            self.applied = t.high;
                            self.base
                                .recovery
                                .record_transfer(t.strategy, t.wire_size() as u64);
                        }
                    }
                }
                self.base.recovery.complete(ctx.now().ticks());
            }
            LazyPrimaryMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>, _timer: TimerId, tag: u64) {
        if tag == RESTORE_TAG {
            self.base.finish_restore();
            self.rejoin_now(ctx);
            return;
        }
        if self.base.restoring() {
            return;
        }
        if tag == JOIN_RETRY_TAG {
            if self.elastic.joining {
                let target = self.elastic.join_target();
                ctx.send(target, LazyPrimaryMsg::Member(MemberMsg::JoinReq));
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
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>) {
        if self.elastic.joining {
            // Cold joiner: ask the primary for admission + state.
            self.base.recovery.begin(ctx.now().ticks());
            let target = self.elastic.join_target();
            ctx.send(target, LazyPrimaryMsg::Member(MemberMsg::JoinReq));
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
        }
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_volume_loss(&mut self, now: SimTime) {
        self.base.wipe_volume(now.ticks());
        self.log = RedoLog::new();
        self.log.set_retention(self.log_retention);
        self.outbound.clear();
        self.flush_armed = false;
        self.applied = 0;
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, LazyPrimaryMsg>) {
        // The primary's cursor counts every committed (noted) writeset,
        // logged or still awaiting flush; a secondary's is its applied
        // watermark. The max covers both (one side is always zero for a
        // static member) and stays correct across elastic role changes.
        let token = (self.log.len() as u64 + self.outbound.len() as u64).max(self.applied);
        self.base.seal_now(ctx.now().ticks(), token);
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use repl_db::{Key, Value};
    use repl_sim::{SimConfig, SimTime, World};
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

    fn build(
        n: u32,
        txns: Vec<Vec<TxnTemplate>>,
        delay: u64,
        seed: u64,
    ) -> (World<LazyPrimaryMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(LazyPrimaryServer::new(
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
            let client = ClientActor::<LazyPrimaryMsg>::new(
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
    fn replicas_converge_after_quiescence() {
        let (mut world, servers, clients) =
            build(3, vec![vec![write(0, 1), write(1, 2), write(0, 3)]], 0, 1);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        assert!(world
            .actor_ref::<ClientActor<LazyPrimaryMsg>>(clients[0])
            .is_done());
        let fp0 = world
            .actor_ref::<LazyPrimaryServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<LazyPrimaryServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn lazy_update_is_faster_than_propagation() {
        // The update's response arrives before secondaries have the data:
        // immediately after the client's reply, a secondary still holds
        // the old value when propagation is delayed.
        let (mut world, servers, clients) = build(2, vec![vec![write(0, 9)]], 50_000, 2);
        world.start();
        world.run_until(SimTime::from_ticks(10_000));
        let client = world.actor_ref::<ClientActor<LazyPrimaryMsg>>(clients[0]);
        assert!(client.is_done(), "lazy reply must not wait for propagation");
        let secondary = world.actor_ref::<LazyPrimaryServer>(servers[1]);
        assert_eq!(
            secondary.base.store.read(Key(0)).expect("exists").value,
            Value(0),
            "secondary must still be stale"
        );
        // After the propagation delay, it converges.
        world.run_until(SimTime::from_ticks(200_000));
        let secondary = world.actor_ref::<LazyPrimaryServer>(servers[1]);
        assert_eq!(
            secondary.base.store.read(Key(0)).expect("exists").value,
            Value(9)
        );
    }

    #[test]
    fn secondary_reads_can_be_stale() {
        // Writer commits at the primary; a reader attached to the
        // secondary reads during the staleness window.
        let (mut world, _servers, clients) = build(
            2,
            vec![
                vec![write(0, 7)], // client 0 at primary
                vec![read(0)],     // client 1 at secondary
            ],
            80_000,
            3,
        );
        world.start();
        world.run_until(SimTime::from_ticks(40_000));
        let reader = world.actor_ref::<ClientActor<LazyPrimaryMsg>>(clients[1]);
        assert!(reader.is_done());
        let observed = reader.records[0].response.as_ref().expect("r").reads[0].1;
        assert_eq!(observed, Value(0), "read should be stale in the window");
    }

    #[test]
    fn batched_propagation_group_commits_and_converges() {
        // Three writes land inside one batching window: the primary must
        // ship ONE PropagateBatch per secondary, group-commit the WAL
        // with one force, and still converge every replica.
        let mut world = World::new(SimConfig::new(21));
        let servers: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for i in 0..3 {
            world.add_actor(Box::new(
                LazyPrimaryServer::new(
                    i,
                    NodeId::new(i),
                    servers.clone(),
                    16,
                    ExecutionMode::Deterministic,
                    SimDuration::ZERO,
                )
                .with_batching(repl_gcs::BatchConfig::window(5_000)),
            ));
        }
        let client = ClientActor::<LazyPrimaryMsg>::new(
            0,
            servers.clone(),
            0,
            vec![write(0, 1), write(1, 2), write(0, 3)],
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(20_000),
        );
        let c = world.add_actor(Box::new(client));
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        assert!(world.actor_ref::<ClientActor<LazyPrimaryMsg>>(c).is_done());
        let primary = world.actor_ref::<LazyPrimaryServer>(servers[0]);
        assert_eq!(primary.log.len(), 3, "all three writesets logged");
        assert!(
            primary.log.fsyncs() < 3,
            "group commit must share forces: {} forces for 3 records",
            primary.log.fsyncs()
        );
        let fp0 = primary.base.store.fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<LazyPrimaryServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn phase_skeleton_matches_figure_10_end_before_ac() {
        let (mut world, _s, _c) = build(3, vec![vec![write(0, 1)]], 5_000, 4);
        world.start();
        world.run_until(SimTime::from_ticks(300_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        let sk = pt.canonical().expect("op done");
        assert_eq!(sk.to_string(), "RE EX END AC");
        assert!(sk.responds_before_agreement());
        assert!(!sk.synchronises_before_response());
    }
}
