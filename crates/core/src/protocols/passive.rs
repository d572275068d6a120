//! Passive replication — primary-backup over VSCAST (paper §3.3, Fig. 3).
//!
//! The primary executes every request (no determinism needed), then
//! broadcasts the resulting update view-synchronously; backups apply the
//! writeset without re-executing. The response is sent once the backups
//! of the current view have acknowledged — the paper's Agreement
//! Coordination phase. Skeleton: `RE EX AC END`.
//!
//! On a primary crash the view change both elects the next primary and
//! flushes in-flight updates: an update either reaches all surviving
//! backups (and the cached response answers the client's retry) or none
//! (and the retry re-executes at the new primary) — never half.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use repl_db::{Keyspace, Transfer, WriteSet};
use repl_gcs::{Outbox, ViewGroup, VsConfig, VsEvent, VsMsg};
use repl_sim::{impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId};

use crate::client::ProtocolMsg;
use crate::op::{ClientOp, OpId, Response};
use crate::phase::Phase;
use crate::protocols::common::{
    global_txn, DrainState, Elastic, ExecutionMode, MemberMsg, ServerBase, DRAIN_TICK_TAG,
    DRAIN_TICK_TICKS, JOIN_RETRY_TAG, JOIN_RETRY_TICKS, RESTORE_TAG,
};

/// The update a primary ships to its backups.
#[derive(Debug, Clone)]
pub struct Update {
    /// The client operation this update came from.
    pub op: OpId,
    /// The redo records to install (`Arc`-shared across backups).
    pub ws: Arc<WriteSet>,
    /// The response the primary computed (cached by backups so a new
    /// primary can answer retries after failover). `Arc`-shared so the
    /// per-backup VSCAST clones stay allocation-free.
    pub resp: Arc<Response>,
}

impl Message for Update {
    fn wire_size(&self) -> usize {
        8 + self.ws.wire_size() + self.resp.wire_size()
    }
}

/// Wire messages of passive replication.
#[derive(Debug, Clone)]
pub enum PassiveMsg {
    /// Client → primary (or any replica, which forwards).
    Invoke(ClientOp),
    /// View-synchronous group traffic.
    Vs(VsMsg<Update>),
    /// Backup → primary: update applied.
    Ack {
        /// The acknowledged operation.
        op: OpId,
    },
    /// Primary → client.
    Reply(Response),
    /// Recovering replica → group: request db-level state transfer.
    RecoverReq,
    /// Live member → recovering replica: the state transfer (boxed —
    /// snapshots dwarf the other variants).
    RecoverData(Box<Transfer>),
    /// Elastic-membership handshake (join / drain / reroute).
    Member(MemberMsg),
}

impl Message for PassiveMsg {
    fn wire_size(&self) -> usize {
        match self {
            PassiveMsg::Invoke(op) => 8 + op.wire_size(),
            PassiveMsg::Vs(m) => 8 + m.wire_size(),
            PassiveMsg::Ack { .. } => 16,
            PassiveMsg::Reply(r) => 8 + r.wire_size(),
            PassiveMsg::RecoverReq => 8,
            PassiveMsg::RecoverData(t) => 8 + t.wire_size(),
            PassiveMsg::Member(m) => m.wire_size(),
        }
    }
}

impl ProtocolMsg for PassiveMsg {
    fn invoke(op: ClientOp) -> Self {
        PassiveMsg::Invoke(op)
    }
    fn response(&self) -> Option<&Response> {
        match self {
            PassiveMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn reroute(&self) -> Option<(OpId, &[NodeId])> {
        match self {
            PassiveMsg::Member(MemberMsg::Reroute { op, servers }) => Some((*op, servers)),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct PendingAck {
    client: NodeId,
    resp: Response,
    awaiting: HashSet<NodeId>,
}

/// A passive-replication server (primary or backup, depending on the
/// current view).
pub struct PassiveServer {
    /// Shared database/server state (public for post-run inspection).
    pub base: ServerBase,
    me: NodeId,
    group: Vec<NodeId>,
    vg: ViewGroup<Update>,
    pending: HashMap<OpId, PendingAck>,
    /// Waiting for the first state-transfer reply after a crash.
    recovering: bool,
    vs: VsConfig,
    /// Elastic-membership lifecycle (dormant without a membership plan).
    pub elastic: Elastic,
}

impl PassiveServer {
    /// Creates server `site` of `group`; the initial primary is the
    /// lowest-id member.
    pub fn new(
        site: u32,
        me: NodeId,
        group: Vec<NodeId>,
        keyspace: impl Into<Keyspace>,
        exec: ExecutionMode,
        vs: VsConfig,
    ) -> Self {
        PassiveServer {
            base: ServerBase::new(site, keyspace, exec),
            me,
            vg: ViewGroup::new(me, group.clone(), vs),
            elastic: Elastic::new(me, group.clone()),
            group,
            pending: HashMap::new(),
            recovering: false,
            vs,
        }
    }

    /// Marks this server a cold joiner: it boots with no state, rebuilds
    /// its view endpoint in join mode, and runs the join handshake on
    /// start before serving.
    pub fn begin_join(&mut self) {
        self.elastic.begin_join();
        self.vg = ViewGroup::join(self.me, self.elastic.remaining(), self.vs);
    }

    /// The primary of the currently installed view.
    pub fn primary(&self) -> NodeId {
        self.vg.view().primary()
    }

    fn is_primary(&self) -> bool {
        self.primary() == self.me && !self.vg.is_excluded()
    }

    fn drive(
        &mut self,
        ctx: &mut Context<'_, PassiveMsg>,
        out: Outbox<VsMsg<Update>, VsEvent<Update>>,
    ) {
        let events = repl_gcs::apply_outbox(ctx, out, 0, PassiveMsg::Vs);
        for ev in events {
            match ev {
                VsEvent::Deliver { from, payload, .. } => {
                    if from == self.me {
                        continue; // the primary already executed it
                    }
                    // Backup path: install without re-execution, cache the
                    // response for failover, acknowledge.
                    if self.base.cached(payload.op).is_none() {
                        self.base.install_writeset(&payload.ws);
                        self.base.remember(&payload.resp);
                    }
                    ctx.send(from, PassiveMsg::Ack { op: payload.op });
                }
                VsEvent::ViewInstalled(view) => {
                    // Back in a view after a crash: recovery is over.
                    if self.base.recovery.is_recovering() && view.contains(self.me) {
                        self.base.recovery.complete(ctx.now().ticks());
                    }
                    // Crashed backups no longer owe acks.
                    let members: HashSet<NodeId> = view.members.iter().copied().collect();
                    let mut done: Vec<OpId> = Vec::new();
                    for (op, p) in self.pending.iter_mut() {
                        p.awaiting.retain(|n| members.contains(n));
                        if p.awaiting.is_empty() {
                            done.push(*op);
                        }
                    }
                    // Map iteration order is unspecified; reply in op order
                    // so runs stay deterministic.
                    done.sort_unstable();
                    for op in done {
                        self.finish(ctx, op);
                    }
                }
                VsEvent::Excluded(_) => {
                    self.pending.clear();
                }
            }
        }
    }

    fn finish(&mut self, ctx: &mut Context<'_, PassiveMsg>, op: OpId) {
        if let Some(p) = self.pending.remove(&op) {
            ctx.send(p.client, PassiveMsg::Reply(p.resp));
        }
    }

    fn execute_as_primary(&mut self, ctx: &mut Context<'_, PassiveMsg>, op: ClientOp) {
        ctx.mark(Phase::Execution.tag(), op.id.0, 0);
        let (ws, resp) = self.base.execute_commit(&op, global_txn(op.id));
        self.base.remember(&resp);
        ctx.mark(Phase::AgreementCoordination.tag(), op.id.0, 0);
        let backups: HashSet<NodeId> = self
            .vg
            .view()
            .members
            .iter()
            .copied()
            .filter(|&n| n != self.me)
            .collect();
        let update = Update {
            op: op.id,
            ws: Arc::new(ws),
            resp: Arc::new(resp.clone()),
        };
        let mut out = Outbox::new();
        self.vg.broadcast(update, &mut out);
        self.drive(ctx, out);
        if backups.is_empty() {
            ctx.send(op.client, PassiveMsg::Reply(resp));
        } else {
            self.pending.insert(
                op.id,
                PendingAck {
                    client: op.client,
                    resp,
                    awaiting: backups,
                },
            );
        }
    }

    fn rejoin_now(&mut self, ctx: &mut Context<'_, PassiveMsg>) {
        if self.group.len() == 1 {
            let mut out = Outbox::new();
            self.vg.rejoin(&mut out);
            self.drive(ctx, out);
            self.base.recovery.complete(ctx.now().ticks());
            return;
        }
        self.recovering = true;
        for &n in &self.group {
            if n != self.me {
                ctx.send(n, PassiveMsg::RecoverReq);
            }
        }
    }

    fn invoke(&mut self, ctx: &mut Context<'_, PassiveMsg>, op: ClientOp) {
        if let Some(resp) = self.base.cached(op.id) {
            ctx.send(op.client, PassiveMsg::Reply(resp));
            return;
        }
        if self.elastic.rerouting() {
            ctx.send(
                op.client,
                PassiveMsg::Member(MemberMsg::Reroute {
                    op: op.id,
                    servers: self.elastic.remaining(),
                }),
            );
            return;
        }
        if self.elastic.joining {
            self.elastic.buffered.push(op);
            return;
        }
        if self.recovering || self.vg.is_joining() {
            return; // stale view; let the client retry elsewhere
        }
        if self.is_primary() {
            if !self.pending.contains_key(&op.id) {
                self.execute_as_primary(ctx, op);
            }
        } else {
            // Not the primary: forward (replication stays
            // transparent to the client's addressing).
            let primary = self.primary();
            if primary != self.me {
                ctx.send(primary, PassiveMsg::Invoke(op));
            }
        }
    }

    fn member(&mut self, ctx: &mut Context<'_, PassiveMsg>, from: NodeId, m: MemberMsg) {
        match m {
            MemberMsg::JoinReq => {
                if !self.elastic.is_coordinator() || self.elastic.joining || self.recovering {
                    return;
                }
                self.elastic.admit(from);
                self.group = self.elastic.servers.clone();
                for &n in &self.elastic.servers {
                    if n != self.elastic.me && n != from {
                        ctx.send(
                            n,
                            PassiveMsg::Member(MemberMsg::ViewAdd {
                                servers: self.elastic.servers.clone(),
                            }),
                        );
                    }
                }
                // Mirror the RecoverReq donor path: a committed-state
                // snapshot (backups hold no redo log to cut a suffix
                // from); the join view's flush covers in-flight updates.
                let t = Transfer::committed_snapshot(&self.base.store, &self.base.tm, 0);
                ctx.send(
                    from,
                    PassiveMsg::Member(MemberMsg::Welcome {
                        servers: self.elastic.servers.clone(),
                        transfer: Some(Box::new(t)),
                        pos: 0,
                        gpos: 0,
                        answered: Elastic::answered_floor(&self.base),
                    }),
                );
            }
            MemberMsg::ViewAdd { servers } => {
                self.elastic.install(servers);
                self.group = self.elastic.servers.clone();
            }
            MemberMsg::ViewAck { .. } => {}
            MemberMsg::Welcome {
                servers,
                transfer,
                answered,
                ..
            } => {
                if !self.elastic.joining {
                    return; // duplicate welcome (retried JoinReq)
                }
                self.elastic.joining = false;
                self.elastic.install(servers);
                self.group = self.elastic.servers.clone();
                if let Some(t) = transfer {
                    self.base.install_transfer(&t);
                }
                self.elastic.answered = answered.into_iter().collect();
                // State installed; the view group admits us next (the
                // join view's flush exchange covers in-flight updates).
                let mut out = Outbox::new();
                self.vg.rejoin(&mut out);
                self.drive(ctx, out);
                for op in std::mem::take(&mut self.elastic.buffered) {
                    self.invoke(ctx, op);
                }
            }
            MemberMsg::ViewDrop { node } => {
                self.elastic.remove(node);
                self.group = self.elastic.servers.clone();
            }
            MemberMsg::Reroute { .. } => {}
        }
    }

    fn try_retire(&mut self, ctx: &mut Context<'_, PassiveMsg>) {
        if self.elastic.drain != DrainState::Draining {
            return;
        }
        // Quiesce: every update this node originated as primary has been
        // acknowledged and answered (backups owe nothing — their acks
        // ride on delivery, which continues until the view excludes us).
        if !self.pending.is_empty() {
            ctx.set_timer(SimDuration::from_ticks(DRAIN_TICK_TICKS), DRAIN_TICK_TAG);
            return;
        }
        let remaining = self.elastic.remaining();
        // Voluntary view-group exit: the shrunk view elects the next
        // primary and flushes in-flight updates.
        let mut out = Outbox::new();
        self.vg.leave(&mut out);
        self.drive(ctx, out);
        for &n in &remaining {
            ctx.send(
                n,
                PassiveMsg::Member(MemberMsg::ViewDrop {
                    node: self.elastic.me,
                }),
            );
        }
        self.elastic.servers = remaining.clone();
        self.group = remaining;
        self.elastic.drain = DrainState::Retired;
    }
}

impl Actor<PassiveMsg> for PassiveServer {
    fn on_start(&mut self, ctx: &mut Context<'_, PassiveMsg>) {
        let mut out = Outbox::new();
        repl_gcs::Component::on_start(&mut self.vg, &mut out);
        self.drive(ctx, out);
        if self.elastic.joining {
            self.base.recovery.begin(ctx.now().ticks());
            ctx.send(
                self.elastic.join_target(),
                PassiveMsg::Member(MemberMsg::JoinReq),
            );
            ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
        }
    }

    fn on_drain(&mut self, ctx: &mut Context<'_, PassiveMsg>) {
        if self.elastic.drain == DrainState::Active {
            self.elastic.drain = DrainState::Draining;
            self.try_retire(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, PassiveMsg>, from: NodeId, msg: PassiveMsg) {
        if self.base.restoring() {
            return; // deaf until the volume restore download completes
        }
        match msg {
            PassiveMsg::Invoke(op) => self.invoke(ctx, op),
            PassiveMsg::Member(m) => self.member(ctx, from, m),
            PassiveMsg::Vs(m) => {
                let mut out = Outbox::new();
                repl_gcs::Component::on_message(&mut self.vg, from, m, &mut out);
                self.drive(ctx, out);
            }
            PassiveMsg::Ack { op } => {
                if let Some(p) = self.pending.get_mut(&op) {
                    p.awaiting.remove(&from);
                    if p.awaiting.is_empty() {
                        self.finish(ctx, op);
                    }
                }
            }
            PassiveMsg::Reply(_) => {}
            PassiveMsg::RecoverReq => {
                // Any live in-view member donates; the requester keeps
                // the first reply. Always a snapshot: passive backups
                // hold no redo log to cut a suffix from.
                if !self.vg.is_excluded()
                    && !self.vg.is_joining()
                    && !self.recovering
                    && !self.elastic.joining
                {
                    let t = Transfer::committed_snapshot(&self.base.store, &self.base.tm, 0);
                    ctx.send(from, PassiveMsg::RecoverData(Box::new(t)));
                }
            }
            PassiveMsg::RecoverData(t) => {
                if self.recovering {
                    self.recovering = false;
                    self.base.install_transfer(&t);
                    // State installed; now ask the group for readmission
                    // (the join view's flush covers in-flight updates).
                    let mut out = Outbox::new();
                    self.vg.rejoin(&mut out);
                    self.drive(ctx, out);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PassiveMsg>, _timer: TimerId, tag: u64) {
        if tag == RESTORE_TAG {
            self.base.finish_restore();
            self.rejoin_now(ctx);
            return;
        }
        if tag == JOIN_RETRY_TAG {
            if self.elastic.joining {
                ctx.send(
                    self.elastic.join_target(),
                    PassiveMsg::Member(MemberMsg::JoinReq),
                );
                ctx.set_timer(SimDuration::from_ticks(JOIN_RETRY_TICKS), JOIN_RETRY_TAG);
            }
            return;
        }
        if tag == DRAIN_TICK_TAG {
            self.try_retire(ctx);
            return;
        }
        if self.base.restoring() {
            return;
        }
        let mut out = Outbox::new();
        repl_gcs::Component::on_timer(&mut self.vg, tag, &mut out);
        self.drive(ctx, out);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, PassiveMsg>) {
        // Two-step rejoin: fetch a db-level snapshot from a live member
        // first, then run the group-level join so the new view only
        // ever admits a caught-up replica.
        self.base.recovery.begin(ctx.now().ticks());
        self.pending.clear();
        if let Some(plan) = self.base.begin_restore(ctx.now().ticks()) {
            // There is no ordered stream to rewind: the durable tier
            // restored a floor, and the peer snapshot fetched afterwards
            // covers whatever the disaster erased (if any peer is up).
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
        self.pending.clear();
    }

    fn on_settle(&mut self, ctx: &mut Context<'_, PassiveMsg>) {
        // No stream position exists; the committed count is the frame
        // token (passive restores never rewind by token anyway).
        self.base.seal_now(ctx.now().ticks(), self.base.committed);
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientActor;
    use repl_db::{Key, Value};
    use repl_sim::{SimConfig, SimDuration, SimTime, World};
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
    ) -> (World<PassiveMsg>, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(SimConfig::new(seed));
        let servers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        for i in 0..n {
            world.add_actor(Box::new(PassiveServer::new(
                i,
                NodeId::new(i),
                servers.clone(),
                16,
                exec,
                VsConfig::default(),
            )));
        }
        let mut clients = Vec::new();
        for (c, t) in txns.into_iter().enumerate() {
            // Clients prefer the initial primary (server 0).
            let client = ClientActor::<PassiveMsg>::new(
                c as u32,
                servers.clone(),
                0,
                t,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(15_000),
            );
            clients.push(world.add_actor(Box::new(client)));
        }
        (world, servers, clients)
    }

    #[test]
    fn primary_executes_backups_apply() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(1, 5), read(1)]],
            ExecutionMode::Deterministic,
            1,
        );
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let client = world.actor_ref::<ClientActor<PassiveMsg>>(clients[0]);
        assert!(client.is_done());
        let fp0 = world
            .actor_ref::<PassiveServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            let srv = world.actor_ref::<PassiveServer>(s);
            assert_eq!(srv.base.store.fingerprint(), fp0, "backup diverged");
            // Backups never executed, they only installed.
            assert_eq!(srv.base.tm.stats(), (0, 0));
        }
    }

    #[test]
    fn nondeterminism_is_harmless_in_passive_replication() {
        // The paper's key contrast with active replication: only one
        // process executes, so site-dependent results cannot diverge.
        let (mut world, servers, _clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2)]],
            ExecutionMode::NonDeterministic,
            2,
        );
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let fp0 = world
            .actor_ref::<PassiveServer>(servers[0])
            .base
            .store
            .fingerprint();
        for &s in &servers[1..] {
            assert_eq!(
                world.actor_ref::<PassiveServer>(s).base.store.fingerprint(),
                fp0,
                "passive replication must tolerate non-determinism"
            );
        }
    }

    #[test]
    fn primary_crash_fails_over_and_client_completes() {
        let (mut world, servers, clients) = build(
            3,
            vec![vec![write(0, 1), write(1, 2), write(2, 3), read(0)]],
            ExecutionMode::Deterministic,
            3,
        );
        world.start();
        // Let some work happen, then kill the primary.
        world.schedule_crash(SimTime::from_ticks(3_000), servers[0]);
        world.run_until(SimTime::from_ticks(1_000_000));
        let client = world.actor_ref::<ClientActor<PassiveMsg>>(clients[0]);
        assert!(client.is_done(), "client stuck after failover");
        // New primary is server 1.
        let s1 = world.actor_ref::<PassiveServer>(servers[1]);
        assert_eq!(s1.primary(), servers[1]);
        // Survivors agree on the final state and it reflects all writes.
        let fp1 = s1.base.store.fingerprint();
        let s2 = world.actor_ref::<PassiveServer>(servers[2]);
        assert_eq!(s2.base.store.fingerprint(), fp1);
        assert_eq!(s1.base.store.read(Key(2)).expect("exists").value, Value(3));
    }

    #[test]
    fn no_lost_or_half_applied_update_across_failover() {
        // Run several seeds; in each, the primary dies while updates are in
        // flight. Survivors must agree pairwise (view synchrony) and the
        // client's committed writes must all be present.
        for seed in 0..8u64 {
            let (mut world, servers, clients) = build(
                4,
                vec![vec![write(0, 1), write(1, 2), write(2, 3), write(3, 4)]],
                ExecutionMode::Deterministic,
                100 + seed,
            );
            world.start();
            world.schedule_crash(SimTime::from_ticks(2_000 + seed * 300), servers[0]);
            world.run_until(SimTime::from_ticks(1_000_000));
            let client = world.actor_ref::<ClientActor<PassiveMsg>>(clients[0]);
            assert!(client.is_done(), "seed {seed}: client stuck");
            let fps: Vec<u64> = servers[1..]
                .iter()
                .map(|&s| world.actor_ref::<PassiveServer>(s).base.store.fingerprint())
                .collect();
            assert!(
                fps.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: survivors diverged: {fps:?}"
            );
            // Every committed (responded) write is visible at survivors.
            let s1 = world.actor_ref::<PassiveServer>(servers[1]);
            for rec in client.completed() {
                if let OpTemplate::Write(k, v) = rec.txn.ops[0] {
                    let stored = s1.base.store.read(k).expect("exists").value;
                    assert_eq!(stored, v, "seed {seed}: lost committed write to {k}");
                }
            }
        }
    }

    #[test]
    fn phase_skeleton_matches_figure_3() {
        let (mut world, _s, _c) =
            build(3, vec![vec![write(0, 1)]], ExecutionMode::Deterministic, 4);
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let pt = crate::phase::PhaseTrace::from_trace(world.trace());
        assert_eq!(
            pt.canonical().expect("op completed").to_string(),
            "RE EX AC END"
        );
    }

    #[test]
    fn backup_receiving_invoke_forwards_to_primary() {
        let (mut world, _servers, clients) =
            build(3, vec![vec![write(0, 9)]], ExecutionMode::Deterministic, 5);
        // Point the client at a backup instead of the primary.
        let client = world.actor_mut::<ClientActor<PassiveMsg>>(clients[0]);
        *client = ClientActor::new(
            0,
            (0..3).map(NodeId::new).collect(),
            2, // backup
            vec![write(0, 9)],
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(15_000),
        );
        world.start();
        world.run_until(SimTime::from_ticks(100_000));
        let client = world.actor_ref::<ClientActor<PassiveMsg>>(clients[0]);
        assert!(client.is_done(), "forwarding failed");
    }
}
