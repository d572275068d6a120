//! Semi-passive replication (paper §3.5).
//!
//! A variant of passive replication that needs no view machinery: server
//! coordination and agreement coordination fold into a single run of
//! *consensus with deferred initial values*. For each slot, the first-
//! ranked server executes the pending request and proposes the resulting
//! update; lower-ranked servers defer — they execute and propose only
//! after a suspicion delay, so in the failure-free case exactly one
//! server pays the execution (like passive replication) while crashes
//! cost only an aggressive timeout, not a view change.
//!
//! Skeleton: `RE EX AC END`.

use std::collections::BTreeMap;
use std::sync::Arc;

use repl_db::{Keyspace, RedoLog, Transfer, TransferStrategy, WriteSet};
use repl_gcs::{
    ConsEvent, ConsMsg, ConsensusConfig, ConsensusPool, FdConfig, FdEvent, FdMsg, HeartbeatFd,
    Outbox,
};
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};

use crate::client::ProtocolMsg;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, DrainState, Elastic, ExecutionMode, MemberMsg, ServerBase, DRAIN_TICK_TAG,
    DRAIN_TICK_TICKS, JOIN_RETRY_TAG, JOIN_RETRY_TICKS, RESTORE_TAG,
};

/// What a deferred coordinator proposes for a slot: the operation it
/// picked, the update its execution produced, and the client response.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The chosen operation.
    pub op: ClientOp,
    /// The update to install everywhere (`Arc`-shared across members).
    pub ws: Arc<WriteSet>,
    /// The response to hand to the client.
    pub resp: Response,
}

impl Message for Proposal {
    fn wire_size(&self) -> usize {
        op_size(&self.op) + self.ws.wire_size() + self.resp.wire_size()
    }
}

fn op_size(op: &ClientOp) -> usize {
    op.wire_size()
}

/// Timer-tag base of the embedded consensus pool; slot-deferral timers use
/// tags below it.
const CONS_BASE: u64 = 1 << 40;
/// Timer-tag base of the embedded failure detector (the paper: semi-passive
/// allows "aggressive time-outs … to suspect crashed processes" — the
/// deferral rank adapts to suspicions instead of paying the delay forever).
const FD_BASE: u64 = 2 << 40;

/// Wire messages of semi-passive replication.
#[derive(Debug, Clone)]
pub enum SemiPassiveMsg {
    /// Client → contact server.
    Invoke(ClientOp),
    /// Contact server → all servers (request dissemination).
    Fwd(ClientOp),
    /// Consensus traffic.
    Cons(ConsMsg<Proposal>),
    /// Failure-detector heartbeats.
    Fd(FdMsg),
    /// Server → client.
    Reply(Response),
    /// Recovering server → group: request catch-up from the carried
    /// decision-log position.
    SyncReq(u64),
    /// Live server → recovering server: log suffix or snapshot.
    SyncData(Box<Transfer>),
    /// Elastic-membership traffic (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for SemiPassiveMsg {
    fn wire_size(&self) -> usize {
        match self {
            SemiPassiveMsg::Invoke(op) | SemiPassiveMsg::Fwd(op) => 8 + op.wire_size(),
            SemiPassiveMsg::Cons(c) => 8 + c.wire_size(),
            SemiPassiveMsg::Fd(m) => m.wire_size(),
            SemiPassiveMsg::Reply(r) => 8 + r.wire_size(),
            SemiPassiveMsg::SyncReq(_) => 16,
            SemiPassiveMsg::SyncData(t) => 8 + t.wire_size(),
            SemiPassiveMsg::Member(m) => 8 + m.wire_size(),
        }
    }
}

impl ProtocolMsg for SemiPassiveMsg {
    fn invoke(op: ClientOp) -> Self {
        SemiPassiveMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            SemiPassiveMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            SemiPassiveMsg::Member(MemberMsg::Reroute { op, servers }) => {
                Some((*op, servers.as_slice()))
            }
            _ => None,
        }
    }
}

/// A semi-passive replication server.
pub struct SemiPassiveServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    group: Vec<NodeId>,
    rank: usize,
    defer: SimDuration,
    pool: ConsensusPool<Proposal>,
    fd: HeartbeatFd,
    pending: BTreeMap<OpId, ClientOp>,
    decided: BTreeMap<u64, Proposal>,
    next_slot: u64,
    /// Slot we have armed a deferral timer or proposed for.
    engaged_slot: Option<u64>,
    /// Decided writesets in slot order (slot == log index), so live
    /// servers can donate a catch-up suffix to a recovering peer.
    wal: RedoLog,
    /// Waiting for the first catch-up reply after a crash.
    recovering: bool,
    /// Remembered retention cap, re-applied when a volume loss forces a
    /// fresh decision log.
    wal_retention: Option<usize>,
    marks: bool,
    /// Elastic-membership state (join / drain lifecycle).
    pub elastic: Elastic,
}

impl SemiPassiveServer {
    /// Creates server `site` of `group`; `defer` is the per-rank deferral
    /// step (rank r waits `r × defer` before executing a slot itself).
    pub fn new(
        site: u32,
        me: NodeId,
        group: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        defer: SimDuration,
        cons: ConsensusConfig,
    ) -> Self {
        let rank = group.iter().position(|&n| n == me).expect("member");
        SemiPassiveServer {
            base: ServerBase::new(site, keyspace, exec),
            group: group.clone(),
            rank,
            defer,
            pool: ConsensusPool::new(me, group.clone(), cons),
            fd: HeartbeatFd::new(me, group.clone(), FdConfig::default()),
            pending: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_slot: 0,
            engaged_slot: None,
            wal: RedoLog::new(),
            recovering: false,
            wal_retention: None,
            marks: site == 0,
            elastic: Elastic::new(me, group),
        }
    }

    /// Marks this server as a cold joiner: it starts outside the view and
    /// acquires state + membership via `JoinReq`/`Welcome`.
    pub fn begin_join(&mut self) {
        self.elastic.begin_join();
    }

    /// Re-syncs the derived membership views (forward group, consensus
    /// group, fd peers, deferral rank) from `elastic.servers`.
    fn sync_membership(&mut self) {
        self.group = self.elastic.servers.clone();
        self.pool.set_group(self.group.clone());
        self.fd.set_peers(self.group.clone());
        self.rank = self
            .group
            .iter()
            .position(|&n| n == self.elastic.me)
            .unwrap_or(0);
    }

    /// Caps the decision log's retention (`None` = unbounded). A finite
    /// cap forces snapshot transfers for peers that fall behind the
    /// truncation point.
    pub fn set_log_retention(&mut self, max_entries: Option<usize>) {
        self.wal_retention = max_entries;
        self.wal.set_retention(max_entries);
    }

    /// Accepts a client operation, honouring the elastic lifecycle: answer
    /// from cache, reroute while draining, buffer while joining, else feed
    /// the normal pending/forward/engage path.
    fn invoke(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, SemiPassiveMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            let servers = self.elastic.remaining();
            ctx.send(
                op.client,
                SemiPassiveMsg::Member(MemberMsg::Reroute { op: op.id, servers }),
            );
            return;
        }
        if self.elastic.joining {
            self.elastic.buffered.push(op);
            return;
        }
        if self.recovering || self.pending.contains_key(&op.id) {
            return;
        }
        self.pending.insert(op.id, op.clone());
        for &m in &self.group.clone() {
            if m != ctx.me() {
                ctx.send(m, SemiPassiveMsg::Fwd(op.clone()));
            }
        }
        self.engage(ctx);
    }

    /// Handles elastic-membership traffic.
    fn member(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>, from: NodeId, msg: MemberMsg) {
        match msg {
            MemberMsg::JoinReq => {
                // Rank-0 admits (idempotently on retransmit): the group
                // update and the state snapshot are taken atomically, so
                // the joiner's slot cursor matches the transferred store.
                if !self.elastic.is_coordinator()
                    || self.elastic.joining
                    || self.recovering
                    || self.elastic.rerouting()
                {
                    return;
                }
                self.elastic.admit(from);
                self.sync_membership();
                for &n in &self.group.clone() {
                    if n != self.elastic.me && n != from {
                        ctx.send(
                            n,
                            SemiPassiveMsg::Member(MemberMsg::ViewAdd {
                                servers: self.group.clone(),
                            }),
                        );
                    }
                }
                // The store reflects slots `[0, next_slot)` exactly, so a
                // snapshot at the slot cursor hands the joiner a
                // consistent prefix; consensus refills anything beyond.
                let transfer = Transfer::snapshot(&self.base.store, self.next_slot);
                ctx.send(
                    from,
                    SemiPassiveMsg::Member(MemberMsg::Welcome {
                        servers: self.group.clone(),
                        transfer: Some(Box::new(transfer)),
                        pos: self.next_slot,
                        gpos: self.next_slot,
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
                    let high = self.base.install_transfer(&t);
                    match t.strategy {
                        TransferStrategy::LogSuffix => {
                            for ws in &t.entries {
                                self.wal.append(ws.clone());
                            }
                        }
                        TransferStrategy::Snapshot => self.wal.skip_to(high),
                    }
                    self.next_slot = self.next_slot.max(high);
                    self.decided = self.decided.split_off(&self.next_slot);
                }
                self.engaged_slot = None;
                self.elastic.answered = answered.into_iter().collect();
                self.base.recovery.complete(ctx.now().ticks());
                // Start heartbeats now that the group knows us, re-enter
                // any undecided instance, then work the buffered backlog.
                self.fd.reset();
                let mut out = Outbox::new();
                repl_gcs::Component::on_start(&mut self.fd, &mut out);
                self.drive_fd(ctx, out);
                let mut out = Outbox::new();
                self.pool.resume(&mut out);
                let events = repl_gcs::apply_outbox(ctx, out, CONS_BASE, SemiPassiveMsg::Cons);
                self.handle_decisions(ctx, events);
                for op in std::mem::take(&mut self.elastic.buffered) {
                    self.invoke(ctx, op);
                }
                self.engage(ctx);
            }
            MemberMsg::ViewDrop { node } => {
                self.elastic.remove(node);
                self.sync_membership();
                self.engage(ctx);
            }
            MemberMsg::Reroute { .. } => {}
        }
    }

    /// Completes a drain once local work has quiesced: leave the group,
    /// announce the departure, and retire.
    fn try_retire(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>) {
        if self.elastic.drain != DrainState::Draining {
            return;
        }
        if !self.pending.is_empty() {
            ctx.set_timer(SimDuration::from_ticks(DRAIN_TICK_TICKS), DRAIN_TICK_TAG);
            return;
        }
        let remaining = self.elastic.remaining();
        self.pool.set_group(remaining.clone());
        // Stop heartbeating: the survivors drop us from their detectors on
        // `ViewDrop`, so going quiet cannot raise a suspicion there.
        self.fd.set_peers(Vec::new());
        for &n in &remaining {
            ctx.send(
                n,
                SemiPassiveMsg::Member(MemberMsg::ViewDrop {
                    node: self.elastic.me,
                }),
            );
        }
        self.group = remaining.clone();
        self.elastic.servers = remaining;
        self.elastic.drain = DrainState::Retired;
    }

    /// The effective deferral rank: servers suspected by our failure
    /// detector no longer count ahead of us.
    fn effective_rank(&self) -> usize {
        self.group[..self.rank]
            .iter()
            .filter(|&&s| !self.fd.is_suspected(s))
            .count()
    }

    fn engage(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>) {
        if self.recovering || self.pending.is_empty() || self.engaged_slot == Some(self.next_slot) {
            return;
        }
        self.engaged_slot = Some(self.next_slot);
        let rank = self.effective_rank();
        if rank == 0 {
            self.execute_and_propose(ctx);
        } else {
            // Deferred initial value: only execute if the slot is still
            // undecided after our rank's suspicion delay.
            ctx.set_timer(self.defer.times(rank as u64), self.next_slot);
        }
    }

    fn drive_fd(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>, out: Outbox<FdMsg, FdEvent>) {
        let events = repl_gcs::apply_outbox(ctx, out, FD_BASE, SemiPassiveMsg::Fd);
        for ev in events {
            if let FdEvent::Suspect(_) = ev {
                // A predecessor died: if we are now first in line for the
                // current slot, act immediately instead of waiting out the
                // deferral timer.
                if self.effective_rank() == 0
                    && !self.pending.is_empty()
                    && self.engaged_slot == Some(self.next_slot)
                {
                    self.execute_and_propose(ctx);
                }
            }
        }
    }

    fn execute_and_propose(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>) {
        let Some((_, op)) = self.pending.iter().next() else {
            return;
        };
        let op = op.clone();
        if self.marks {
            ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        }
        let txn = global_txn(op.id);
        let (_rs, ws, resp) = self.base.execute_shadow(&op, txn);
        let ws = Arc::new(ws);
        let mut out = Outbox::new();
        self.pool
            .propose(self.next_slot, Proposal { op, ws, resp }, &mut out);
        let events = repl_gcs::apply_outbox(ctx, out, CONS_BASE, SemiPassiveMsg::Cons);
        self.handle_decisions(ctx, events);
    }

    fn handle_decisions(
        &mut self,
        ctx: &mut Context<'_, SemiPassiveMsg>,
        events: Vec<ConsEvent<Proposal>>,
    ) {
        for ev in events {
            let ConsEvent::Decided { inst, value } = ev;
            self.decided.insert(inst, value);
        }
        let mut progressed = false;
        while let Some(p) = self.decided.remove(&self.next_slot) {
            progressed = true;
            self.next_slot += 1;
            self.engaged_slot = None;
            self.pending.remove(&p.op.id);
            // Mirror every decision so wal index == slot, even for
            // duplicate decision content (keeps donor watermarks exact).
            self.wal.append((*p.ws).clone());
            if self.base.cached(p.op.id).is_some() || self.elastic.answered.contains(&p.op.id) {
                // Already installed (duplicate decision content, or the
                // join donor answered it before the snapshot); this site
                // still consumed the slot.
                continue;
            }
            if self.marks {
                ctx.mark(Phase::AgreementCoordination.tag(), p.op.id.0, 0);
            }
            self.base.install_writeset(&p.ws);
            self.base.remember(&p.resp);
            ctx.send(p.op.client, SemiPassiveMsg::Reply(p.resp));
        }
        if progressed {
            self.engage(ctx);
        }
    }

    /// Re-enters the group after the database state is back in place
    /// (directly on crash recovery; after the restore download when a
    /// volume loss forced a rebuild from the durable tier).
    fn rejoin_now(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>) {
        // Timers died with the process: restart heartbeats, dropping
        // pre-crash miss counters so the first tick cannot suspect a
        // live peer on stale evidence.
        self.fd.reset();
        let mut out = Outbox::new();
        repl_gcs::Component::on_start(&mut self.fd, &mut out);
        self.drive_fd(ctx, out);
        // Pending requests may have been decided while we were down;
        // clients re-forward anything genuinely unanswered.
        self.pending.clear();
        self.engaged_slot = None;
        if self.group.len() == 1 {
            let mut out = Outbox::new();
            self.pool.resume(&mut out);
            let events = repl_gcs::apply_outbox(ctx, out, CONS_BASE, SemiPassiveMsg::Cons);
            self.handle_decisions(ctx, events);
            self.base.recovery.complete(ctx.now().ticks());
            return;
        }
        self.recovering = true;
        for &m in &self.group.clone() {
            if m != ctx.me() {
                ctx.send(m, SemiPassiveMsg::SyncReq(self.next_slot));
            }
        }
    }
}

impl Actor<SemiPassiveMsg> for SemiPassiveServer {
    fn on_start(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>) {
        if self.elastic.joining {
            // Cold joiner: ask the coordinator for admission + state and
            // stay quiet (no heartbeats) until welcomed.
            self.base.recovery.begin(ctx.now().ticks());
            let target = self.elastic.join_target();
            ctx.send(target, SemiPassiveMsg::Member(MemberMsg::JoinReq));
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
            return;
        }
        let mut out = Outbox::new();
        repl_gcs::Component::on_start(&mut self.fd, &mut out);
        self.drive_fd(ctx, out);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, SemiPassiveMsg>,
        from: NodeId,
        msg: SemiPassiveMsg,
    ) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            SemiPassiveMsg::Invoke(op) => {
                self.invoke(ctx, op);
            }
            SemiPassiveMsg::Fwd(op) => {
                if !self.recovering
                    && !self.elastic.joining
                    && !self.elastic.rerouting()
                    && self.base.cached(op.id).is_none()
                    && !self.pending.contains_key(&op.id)
                {
                    self.pending.insert(op.id, op);
                    self.engage(ctx);
                }
            }
            SemiPassiveMsg::Cons(c) => {
                let mut out = Outbox::new();
                repl_gcs::Component::on_message(&mut self.pool, from, c, &mut out);
                let events = repl_gcs::apply_outbox(ctx, out, CONS_BASE, SemiPassiveMsg::Cons);
                self.handle_decisions(ctx, events);
            }
            SemiPassiveMsg::Fd(m) => {
                let mut out = Outbox::new();
                repl_gcs::Component::on_message(&mut self.fd, from, m, &mut out);
                self.drive_fd(ctx, out);
            }
            SemiPassiveMsg::Reply(_) => {}
            SemiPassiveMsg::Member(m) => {
                self.member(ctx, from, m);
            }
            SemiPassiveMsg::SyncReq(have) => {
                if !self.recovering && !self.elastic.joining {
                    let t = Transfer::from_log(&self.wal, &self.base.store, have);
                    ctx.send(from, SemiPassiveMsg::SyncData(Box::new(t)));
                }
            }
            SemiPassiveMsg::SyncData(t) => {
                if !self.recovering {
                    return;
                }
                self.recovering = false;
                let high = self.base.install_transfer(&t);
                match t.strategy {
                    TransferStrategy::LogSuffix => {
                        for ws in &t.entries {
                            self.wal.append(ws.clone());
                        }
                    }
                    TransferStrategy::Snapshot => self.wal.skip_to(high),
                }
                self.next_slot = self.next_slot.max(high);
                self.decided = self.decided.split_off(&self.next_slot);
                self.engaged_slot = None;
                self.base.recovery.complete(ctx.now().ticks());
                // Re-enter any instance still undecided group-wide, then
                // start working the backlog again.
                let mut out = Outbox::new();
                self.pool.resume(&mut out);
                let events = repl_gcs::apply_outbox(ctx, out, CONS_BASE, SemiPassiveMsg::Cons);
                self.handle_decisions(ctx, events);
                self.engage(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>, _timer: TimerId, tag: u64) {
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
                ctx.send(target, SemiPassiveMsg::Member(MemberMsg::JoinReq));
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
            repl_gcs::Component::on_timer(&mut self.fd, tag - FD_BASE, &mut out);
            self.drive_fd(ctx, out);
        } else if tag >= CONS_BASE {
            let mut out = Outbox::new();
            repl_gcs::Component::on_timer(&mut self.pool, tag - CONS_BASE, &mut out);
            let events = repl_gcs::apply_outbox(ctx, out, CONS_BASE, SemiPassiveMsg::Cons);
            self.handle_decisions(ctx, events);
        } else {
            // Deferral timer for a slot: execute only if still undecided.
            if tag == self.next_slot && !self.pending.is_empty() {
                self.execute_and_propose(ctx);
            }
        }
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>) {
        self.base.recovery.begin(ctx.now().ticks());
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
            // The durable tier cannot reconstruct the slot-indexed
            // decision log (duplicate decisions are logged but never
            // noted), so treat the restore like a snapshot catch-up: an
            // empty log based at the restored cursor. Earlier suffixes
            // are simply donated by peers instead of us.
            self.wal = RedoLog::new();
            self.wal.set_retention(self.wal_retention);
            self.wal.skip_to(plan.token);
            self.next_slot = plan.token;
            self.decided.clear();
            if plan.delay > 0 {
                ctx.set_timer(SimDuration::from_ticks(plan.delay), RESTORE_TAG);
                return;
            }
            self.base.finish_restore();
        }
        self.rejoin_now(ctx);
    }

    fn on_volume_loss(&mut self, now: SimTime) {
        self.base.wipe_volume(now.ticks());
        self.wal = RedoLog::new();
        self.wal.set_retention(self.wal_retention);
        self.pending.clear();
        self.decided.clear();
        self.engaged_slot = None;
        self.next_slot = 0;
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, SemiPassiveMsg>) {
        // The slot cursor is the frame token: a restore resumes exactly
        // at the next undecided slot the sealed state reflects.
        self.base.seal_now(ctx.now().ticks(), self.next_slot);
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use repl_db::{Key, Value};
    use repl_sim::{SimConfig, SimTime, World};
    use repl_workload::{OpTemplate, TxnTemplate};

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
        exec: ExecutionMode,
        seed: u64,
    ) -> (World<SemiPassiveMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(SemiPassiveServer::new(
                i,
                NodeId::new(i),
                servers.clone(),
                16,
                exec,
                SimDuration::from_ticks(3_000),
                ConsensusConfig::default(),
            )));
        }
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            let client = ClientActor::<SemiPassiveMsg>::new(
                c as u32,
                servers.clone(),
                c % n as usize,
                t,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(25_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn failure_free_only_rank_zero_executes() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2), read(0)]],
            ExecutionMode::NonDeterministic,
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        assert!(world
            .actor_ref::<ClientActor<SemiPassiveMsg>>(clients[0])
            .is_done());
        // Stores converge even with non-deterministic servers: only the
        // coordinator's execution counts.
        let fp0 = world
            .actor_ref::<SemiPassiveServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<SemiPassiveServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
    }

    #[test]
    fn coordinator_crash_deferred_backup_takes_over() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2)]],
            ExecutionMode::Deterministic,
            2,
        );
        world.schedule_crash(SimTime::from_ticks(200), servers[0]);
        world.start();
        world.run_until(SimTime::from_ticks(3_000_000));
        let client = world.actor_ref::<ClientActor<SemiPassiveMsg>>(clients[0]);
        assert!(client.is_done(), "client stuck after coordinator crash");
        let fp1 = world
            .actor_ref::<SemiPassiveServer>(servers[1])
            .base
            .store
            .fingerprint();
        let fp2 = world
            .actor_ref::<SemiPassiveServer>(servers[2])
            .base
            .store
            .fingerprint();
        assert_eq!(fp1, fp2);
        assert_eq!(
            world
                .actor_ref::<SemiPassiveServer>(servers[1])
                .base
                .store
                .read(Key(1))
                .expect("exists")
                .value,
            Value(2)
        );
    }

    #[test]
    fn concurrent_clients_agree_on_one_order() {
        let (mut world, servers, clients) = build(
            3,
            vec![
                vec![write(0, 1), write(1, 2)],
                vec![write(0, 10), write(1, 20)],
            ],
            ExecutionMode::Deterministic,
            3,
        );
        world.start();
        world.run_until(SimTime::from_ticks(1_000_000));
        for &c in &clients {
            assert!(world.actor_ref::<ClientActor<SemiPassiveMsg>>(c).is_done());
        }
        let fp0 = world
            .actor_ref::<SemiPassiveServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world
                    .actor_ref::<SemiPassiveServer>(s)
                    .base
                    .store
                    .fingerprint(),
                fp0
            );
        }
        let mut merged = repl_db::ReplicatedHistory::new();
        for &s in &servers {
            merged.merge(&world.actor_ref::<SemiPassiveServer>(s).base.history);
        }
        assert!(merged.check_one_copy_serializable().is_ok());
    }

    #[test]
    fn phase_skeleton_is_re_ex_ac_end() {
        let (mut world, _s, _c) =
            build(3, vec![vec![write(0, 1)]], ExecutionMode::Deterministic, 4);
        world.start();
        world.run_until(SimTime::from_ticks(500_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(pt.canonical().expect("op done").to_string(), "RE EX AC END");
    }
}
