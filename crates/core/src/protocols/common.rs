//! Shared plumbing for the protocol implementations: the server base
//! (store + transaction manager + history + response cache), the unified
//! Atomic Broadcast endpoint, and execution-mode handling.

use repl_db::{
    AccessKind, FxHashMap, Key, Keyspace, RecoveryTracker, ReplicatedHistory, ShadowStore, Store,
    Transfer, TransferStrategy, TxnId, TxnManager, Value, Versioned, WriteRecord, WriteSet,
};
use repl_gcs::{
    AbDeliver, BatchConfig, CAbMsg, ConsensusAbcast, ConsensusConfig, GenuineMulticast, GmMsg,
    MsgId, Outbox, SeqAbMsg, SequencerAbcast,
};
use repl_sim::{Message, NodeId};
use repl_workload::{ShardMap, TxnTemplate};

use crate::durability::{DurabilityConfig, DurabilityTier, RestorePlan};
use crate::op::{accesses, ClientOp, OpId, Response};

/// Timer tag of the restore-download completion, shared by every
/// protocol. Far outside all protocol and component tag spaces.
pub const RESTORE_TAG: u64 = u64::MAX - 0xD15A;

/// Whether servers execute deterministically.
///
/// The paper's central distributed-systems contrast (Sections 3.2–3.4)
/// hinges on this assumption. `NonDeterministic` models scheduling
/// divergence: each site perturbs written values in a site-specific way,
/// so replicas that execute independently visibly diverge — unless a
/// leader imposes its choice (semi-active) or only one site executes
/// (passive and the primary-copy techniques).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Same input, same order ⇒ same output.
    #[default]
    Deterministic,
    /// Site-dependent execution results.
    NonDeterministic,
}

/// Which Atomic Broadcast implementation to use (ablation A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AbcastImpl {
    /// Fixed sequencer: cheapest, not crash-tolerant.
    #[default]
    Sequencer,
    /// Consensus-based: tolerates any minority of crashes.
    Consensus,
}

/// Unified wire message for either ABCAST implementation.
#[derive(Debug, Clone)]
pub enum AbMsg<P> {
    /// Sequencer-based traffic.
    Seq(SeqAbMsg<P>),
    /// Consensus-based traffic.
    Cons(CAbMsg<P>),
    /// Genuine-multicast traffic (sharded cross-group ordering).
    Gen(GmMsg<P>),
}

impl<P: Message> Message for AbMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            AbMsg::Seq(m) => m.wire_size(),
            AbMsg::Cons(m) => m.wire_size(),
            AbMsg::Gen(m) => m.wire_size(),
        }
    }
}

/// The sharded-run topology as one protocol instance sees it: the key →
/// shard routing table plus the uniform node layout (shard `g`'s group
/// is the contiguous node range `[g·n, (g+1)·n)`). Every server and
/// client of a sharded run derives the same context independently, so
/// routing needs no shared state — the property the determinism suite
/// checks for [`ShardMap`] directly.
#[derive(Debug, Clone)]
pub struct ShardCtx {
    /// Key → shard routing.
    pub map: ShardMap,
    /// Servers per group (`n`).
    pub group_size: u32,
    /// The group this instance belongs to (== its shard).
    pub my_gid: u32,
}

impl ShardCtx {
    /// Builds the context for group `my_gid` of a sharded run.
    pub fn new(map: ShardMap, group_size: u32, my_gid: u32) -> Self {
        assert!(group_size > 0, "groups need at least one server");
        assert!(my_gid < map.shards(), "group id out of range");
        ShardCtx {
            map,
            group_size,
            my_gid,
        }
    }

    /// Number of shards (== groups).
    pub fn shards(&self) -> u32 {
        self.map.shards()
    }

    /// The members of group `g`, ascending.
    pub fn group_of(&self, g: u32) -> Vec<NodeId> {
        let n = self.group_size;
        (g * n..(g + 1) * n).map(NodeId::new).collect()
    }

    /// Every group's members, ascending: the layout the genuine
    /// multicast is constructed over.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        (0..self.shards()).map(|g| self.group_of(g)).collect()
    }

    /// The group a server node belongs to.
    pub fn gid_of(&self, node: NodeId) -> u32 {
        node.index() as u32 / self.group_size
    }

    /// The distinct groups a transaction touches, ascending (shard ==
    /// group id).
    pub fn dests(&self, txn: &TxnTemplate) -> Vec<u32> {
        self.map.shards_of(txn)
    }

    /// True when the operation touches more than one shard.
    pub fn is_cross(&self, op: &ClientOp) -> bool {
        self.dests(&op.txn).len() > 1
    }

    /// The home group of an operation: the shard of its first key. The
    /// client contacts a member of this group, which initiates the
    /// cross-group coordination.
    pub fn home_of(&self, op: &ClientOp) -> u32 {
        self.map.shard_of(op.txn.ops[0].key())
    }

    /// The restriction of `op` to this instance's own shard: same id,
    /// same client, only the operations on keys this shard owns, in
    /// program order. Executing the local part under the op's global
    /// transaction id at every touched group splices the per-shard
    /// histories into one transaction for the merged 1SR oracle.
    pub fn local_part(&self, op: &ClientOp) -> ClientOp {
        ClientOp {
            id: op.id,
            client: op.client,
            txn: TxnTemplate {
                ops: op
                    .txn
                    .ops
                    .iter()
                    .filter(|o| self.map.shard_of(o.key()) == self.my_gid)
                    .cloned()
                    .collect(),
            },
        }
    }
}

/// An Atomic Broadcast endpoint backed by either implementation.
#[derive(Debug)]
pub enum AbcastEndpoint<P> {
    /// Fixed-sequencer endpoint.
    Seq(SequencerAbcast<P>),
    /// Consensus-based endpoint.
    Cons(ConsensusAbcast<P>),
    /// Genuine-multicast endpoint (sharded runs with cross-shard
    /// traffic): shard-local broadcasts order within the group, cross
    /// messages through Skeen timestamp agreement with the other touched
    /// groups. Assumes no faults — the runner forbids fault plans when
    /// cross-shard traffic is on.
    Gen(GenuineMulticast<P>),
}

impl<P: Message> AbcastEndpoint<P> {
    /// Creates an endpoint of the requested flavour. `cons` configures the
    /// consensus variant (its round timeout must exceed the network RTT).
    pub fn new(which: AbcastImpl, me: NodeId, group: Vec<NodeId>, cons: ConsensusConfig) -> Self {
        match which {
            AbcastImpl::Sequencer => AbcastEndpoint::Seq(SequencerAbcast::new(me, group)),
            AbcastImpl::Consensus => AbcastEndpoint::Cons(ConsensusAbcast::new(me, group, cons)),
        }
    }

    /// Creates a genuine-multicast endpoint over a sharded topology.
    pub fn new_genuine(me: NodeId, ctx: &ShardCtx) -> Self {
        AbcastEndpoint::Gen(GenuineMulticast::new(me, ctx.groups(), ctx.my_gid))
    }

    /// Multicasts a payload to the destination groups (genuine flavour
    /// only); returns its id.
    ///
    /// # Panics
    ///
    /// Panics on a non-genuine endpoint, or if `dests` violates the
    /// [`GenuineMulticast::multicast`] contract.
    pub fn multicast(
        &mut self,
        p: P,
        dests: &[u32],
        out: &mut Outbox<AbMsg<P>, AbDeliver<P>>,
    ) -> MsgId {
        match self {
            AbcastEndpoint::Gen(a) => {
                let mut sub = Outbox::new();
                let id = a.multicast(p, dests, &mut sub);
                for e in out.absorb(sub, 0, AbMsg::Gen) {
                    out.event(e);
                }
                id
            }
            _ => panic!("multicast needs the genuine endpoint"),
        }
    }

    /// Sets the batching window on the underlying implementation (the
    /// genuine flavour has no batching; setting it is a no-op).
    pub fn set_batching(&mut self, batch: BatchConfig) {
        match self {
            AbcastEndpoint::Seq(a) => a.set_batching(batch),
            AbcastEndpoint::Cons(a) => a.set_batching(batch),
            AbcastEndpoint::Gen(_) => {}
        }
    }

    /// Broadcasts a payload; returns its id.
    pub fn broadcast(&mut self, p: P, out: &mut Outbox<AbMsg<P>, AbDeliver<P>>) -> MsgId {
        match self {
            AbcastEndpoint::Seq(a) => {
                let mut sub = Outbox::new();
                let id = a.broadcast(p, &mut sub);
                for e in out.absorb(sub, 0, AbMsg::Seq) {
                    out.event(e);
                }
                id
            }
            AbcastEndpoint::Cons(a) => {
                let mut sub = Outbox::new();
                let id = a.broadcast(p, &mut sub);
                for e in out.absorb(sub, 0, AbMsg::Cons) {
                    out.event(e);
                }
                id
            }
            AbcastEndpoint::Gen(a) => {
                let mut sub = Outbox::new();
                let id = a.broadcast(p, &mut sub);
                for e in out.absorb(sub, 0, AbMsg::Gen) {
                    out.event(e);
                }
                id
            }
        }
    }

    /// Routes an incoming message (mismatched flavours are ignored).
    pub fn on_message(
        &mut self,
        from: NodeId,
        msg: AbMsg<P>,
        out: &mut Outbox<AbMsg<P>, AbDeliver<P>>,
    ) {
        match (self, msg) {
            (AbcastEndpoint::Seq(a), AbMsg::Seq(m)) => {
                let mut sub = Outbox::new();
                repl_gcs::Component::on_message(a, from, m, &mut sub);
                for e in out.absorb(sub, 0, AbMsg::Seq) {
                    out.event(e);
                }
            }
            (AbcastEndpoint::Cons(a), AbMsg::Cons(m)) => {
                let mut sub = Outbox::new();
                repl_gcs::Component::on_message(a, from, m, &mut sub);
                for e in out.absorb(sub, 0, AbMsg::Cons) {
                    out.event(e);
                }
            }
            (AbcastEndpoint::Gen(a), AbMsg::Gen(m)) => {
                let mut sub = Outbox::new();
                repl_gcs::Component::on_message(a, from, m, &mut sub);
                for e in out.absorb(sub, 0, AbMsg::Gen) {
                    out.event(e);
                }
            }
            _ => {}
        }
    }

    /// Re-enters the ordered stream after a crash: asks the group to
    /// refill the missed suffix and re-arms the implementation's timers.
    /// Completion is signalled through [`AbcastEndpoint::take_rejoin_done`].
    pub fn rejoin(&mut self, out: &mut Outbox<AbMsg<P>, AbDeliver<P>>) {
        match self {
            AbcastEndpoint::Seq(a) => {
                let mut sub = Outbox::new();
                a.rejoin(&mut sub);
                for e in out.absorb(sub, 0, AbMsg::Seq) {
                    out.event(e);
                }
            }
            AbcastEndpoint::Cons(a) => {
                let mut sub = Outbox::new();
                a.rejoin(&mut sub);
                for e in out.absorb(sub, 0, AbMsg::Cons) {
                    out.event(e);
                }
            }
            // The genuine flavour runs fault-free by construction.
            AbcastEndpoint::Gen(_) => {}
        }
    }

    /// Takes the completed-rejoin notification, if one fired since the
    /// last call: the number of refill bytes received.
    pub fn take_rejoin_done(&mut self) -> Option<u64> {
        match self {
            AbcastEndpoint::Seq(a) => a.take_rejoin_done(),
            AbcastEndpoint::Cons(a) => a.take_rejoin_done(),
            AbcastEndpoint::Gen(_) => None,
        }
    }

    /// The endpoint's ordered-stream position: the next global sequence
    /// (or consensus instance) it will deliver — the durable tier's
    /// frame token for ABCAST-driven protocols.
    pub fn position(&self) -> u64 {
        match self {
            AbcastEndpoint::Seq(a) => a.position(),
            AbcastEndpoint::Cons(a) => a.position(),
            AbcastEndpoint::Gen(a) => a.position(),
        }
    }

    /// Rewinds the delivery cursor to `pos` after a volume restore, so
    /// the next [`AbcastEndpoint::rejoin`] replays everything the wiped
    /// volume lost. A no-op if the stream is at or before `pos`.
    pub fn rewind_to(&mut self, pos: u64) {
        match self {
            AbcastEndpoint::Seq(a) => a.rewind_to(pos),
            AbcastEndpoint::Cons(a) => a.rewind_to(pos),
            AbcastEndpoint::Gen(_) => {}
        }
    }

    /// Routes a timer with a component-local tag.
    pub fn on_timer(&mut self, tag: u64, out: &mut Outbox<AbMsg<P>, AbDeliver<P>>) {
        match self {
            AbcastEndpoint::Seq(a) => {
                let mut sub = Outbox::new();
                repl_gcs::Component::on_timer(a, tag, &mut sub);
                for e in out.absorb(sub, 0, AbMsg::Seq) {
                    out.event(e);
                }
            }
            AbcastEndpoint::Cons(a) => {
                let mut sub = Outbox::new();
                repl_gcs::Component::on_timer(a, tag, &mut sub);
                for e in out.absorb(sub, 0, AbMsg::Cons) {
                    out.event(e);
                }
            }
            // The genuine flavour arms no timers.
            AbcastEndpoint::Gen(_) => {}
        }
    }

    /// The ordering group as the underlying implementation knows it.
    pub fn group(&self) -> &[NodeId] {
        match self {
            AbcastEndpoint::Seq(a) => a.group(),
            AbcastEndpoint::Cons(a) => a.group(),
            AbcastEndpoint::Gen(a) => a.group(),
        }
    }

    /// Replaces the ordering group (elastic membership). The local
    /// process may leave the new group; it keeps relaying in-flight
    /// traffic but originates nothing new.
    ///
    /// # Panics
    ///
    /// Panics on the genuine flavour: sharded runs reject membership
    /// plans, so its topology is static.
    pub fn set_group(&mut self, group: Vec<NodeId>) {
        match self {
            AbcastEndpoint::Seq(a) => a.set_group(group),
            AbcastEndpoint::Cons(a) => a.set_group(group),
            AbcastEndpoint::Gen(_) => panic!("sharded groups are static"),
        }
    }

    /// Own (or gossiped but unordered) messages still in flight — the
    /// part of the stream a decommissioning node must not abandon.
    pub fn pending(&self) -> usize {
        match self {
            AbcastEndpoint::Seq(a) => a.pending(),
            AbcastEndpoint::Cons(a) => a.pending(),
            AbcastEndpoint::Gen(a) => a.pending(),
        }
    }

    /// The delivered global-sequence watermark (count of unique ordered
    /// messages). Equals [`AbcastEndpoint::position`] for the sequencer
    /// flavour; the consensus flavour's position is its instance cursor.
    pub fn delivered_gseq(&self) -> u64 {
        match self {
            AbcastEndpoint::Seq(a) => a.position(),
            AbcastEndpoint::Cons(a) => a.delivered_gseq(),
            AbcastEndpoint::Gen(a) => a.position(),
        }
    }

    /// Fast-forwards a brand-new member to the snapshot donor's stream
    /// coordinates: `pos` is the donor's [`AbcastEndpoint::position`],
    /// `gseq` its [`AbcastEndpoint::delivered_gseq`]. Deliveries resume
    /// from there; everything below is covered by the state snapshot.
    pub fn skip_to(&mut self, pos: u64, gseq: u64) {
        match self {
            AbcastEndpoint::Seq(a) => a.skip_to(gseq),
            AbcastEndpoint::Cons(a) => a.skip_to(pos, gseq),
            AbcastEndpoint::Gen(_) => {}
        }
    }

    /// Hands the distinguished sequencer role to `to` (the order log
    /// ships along). A no-op for the consensus flavour, which has no
    /// distinguished role to hand off.
    pub fn handoff(&mut self, to: NodeId, out: &mut Outbox<AbMsg<P>, AbDeliver<P>>) {
        if let AbcastEndpoint::Seq(a) = self {
            let mut sub = Outbox::new();
            a.handoff(to, &mut sub);
            for e in out.absorb(sub, 0, AbMsg::Seq) {
                out.event(e);
            }
        }
    }

    /// True when `me` holds the distinguished ordering role (the fixed
    /// sequencer); consensus-based ordering is symmetric, so nobody does.
    pub fn is_orderer(&self, me: NodeId) -> bool {
        match self {
            AbcastEndpoint::Seq(a) => a.group().first() == Some(&me),
            AbcastEndpoint::Cons(_) => false,
            AbcastEndpoint::Gen(a) => a.group().first() == Some(&me),
        }
    }

    /// True for the sequencer flavour, whose position and gseq coincide.
    /// Protocols that track an applied cursor in gseq units can fast-
    /// forward a joiner exactly there; the consensus flavour's instance
    /// cursor is unrelated, so those joiners refill from the start.
    pub fn is_seq(&self) -> bool {
        matches!(self, AbcastEndpoint::Seq(_))
    }
}

/// Timer tag re-sending a joiner's admission request until the group
/// answers. Far outside all protocol and component tag spaces.
pub const JOIN_RETRY_TAG: u64 = u64::MAX - 0xADD1;

/// Timer tag polling a draining node's quiesce condition.
pub const DRAIN_TICK_TAG: u64 = u64::MAX - 0xDBA1;

/// Cadence of [`JOIN_RETRY_TAG`] (ticks).
pub const JOIN_RETRY_TICKS: u64 = 5_000;

/// Cadence of [`DRAIN_TICK_TAG`] (ticks).
pub const DRAIN_TICK_TICKS: u64 = 1_000;

/// Where a server stands in the decommission lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainState {
    /// Normal member: accepts client work.
    #[default]
    Active,
    /// Drain started: client work is rerouted, in-flight work finishes.
    Draining,
    /// Handed off and removed from the group; stays up as a passive
    /// relay (answers stragglers from its cache, forwards old traffic)
    /// but is no longer a member.
    Retired,
}

/// Wire messages of the elastic-membership handshake, shared by every
/// technique (each protocol wraps them in a `Member` variant).
#[derive(Debug, Clone)]
pub enum MemberMsg {
    /// Joiner → group rank 0: admit me (retried until welcomed).
    JoinReq,
    /// Coordinator → members: the group now spans `servers`.
    ViewAdd {
        /// The new membership, sorted.
        servers: Vec<NodeId>,
    },
    /// Member → coordinator: the view change is applied here. Only the
    /// techniques that must reach every cohort before transferring state
    /// (distributed locking's 2PC) wait for these.
    ViewAck {
        /// The joiner the acked view change admitted.
        joiner: NodeId,
    },
    /// Coordinator → joiner: membership plus bootstrap state.
    Welcome {
        /// The new membership, sorted (includes the joiner).
        servers: Vec<NodeId>,
        /// Committed-state snapshot, when the technique ships one up
        /// front (techniques with their own pull-style transfer omit it).
        transfer: Option<Box<Transfer>>,
        /// Donor's ordered-stream position at the snapshot instant.
        pos: u64,
        /// Donor's delivered-gseq watermark at the snapshot instant.
        gpos: u64,
        /// Operations the donor has already answered (sorted). The
        /// joiner must not re-execute one if a client retry re-enters it
        /// into the ordered stream after the snapshot — members suppress
        /// such duplicates through their response caches, which the
        /// snapshot does not carry.
        answered: Vec<OpId>,
    },
    /// Decommissioned member → members: remove me from the group (sent
    /// after the drain quiesced and any role was handed off).
    ViewDrop {
        /// The leaving node.
        node: NodeId,
    },
    /// Draining/retired server → client: this node no longer takes work;
    /// re-resolve against `servers` and re-submit `op` there.
    Reroute {
        /// The operation being bounced.
        op: OpId,
        /// The membership without the leaving node, sorted.
        servers: Vec<NodeId>,
    },
}

impl Message for MemberMsg {
    fn wire_size(&self) -> usize {
        match self {
            MemberMsg::JoinReq => 8,
            MemberMsg::ViewAdd { servers } => 8 + 4 * servers.len(),
            MemberMsg::ViewAck { .. } => 12,
            MemberMsg::Welcome {
                servers,
                transfer,
                answered,
                ..
            } => {
                24 + 4 * servers.len()
                    + 8 * answered.len()
                    + transfer.as_ref().map_or(0, |t| t.wire_size())
            }
            MemberMsg::ViewDrop { .. } => 12,
            MemberMsg::Reroute { servers, .. } => 16 + 4 * servers.len(),
        }
    }
}

/// Elastic-membership state every server carries: the membership as this
/// node currently knows it, the join/drain lifecycle, and the client
/// operations buffered while a joiner bootstraps. Dormant (all-default)
/// on runs without a membership plan.
#[derive(Debug)]
pub struct Elastic {
    /// This node.
    pub me: NodeId,
    /// Current membership, sorted (includes `me` while a member).
    pub servers: Vec<NodeId>,
    /// True from boot until the join handshake completes.
    pub joining: bool,
    /// Decommission lifecycle.
    pub drain: DrainState,
    /// Client operations buffered while joining, replayed after the
    /// welcome installs.
    pub buffered: Vec<ClientOp>,
    /// Operations answered group-wide before this node joined (the
    /// welcome's dedup floor): never re-execute one on re-delivery.
    pub answered: std::collections::HashSet<OpId>,
}

impl Elastic {
    /// Creates the membership state for `me` inside `servers`.
    pub fn new(me: NodeId, servers: Vec<NodeId>) -> Self {
        Elastic {
            me,
            servers,
            joining: false,
            drain: DrainState::Active,
            buffered: Vec::new(),
            answered: std::collections::HashSet::new(),
        }
    }

    /// The donor-side dedup floor for a welcome: every operation this
    /// server has already answered, sorted.
    pub fn answered_floor(base: &ServerBase) -> Vec<OpId> {
        let mut v: Vec<OpId> = base.cache.keys().copied().collect(); // sorted-below
        v.sort_unstable();
        v
    }

    /// Marks this node a cold joiner: it boots with no prior state and
    /// must run the join handshake before serving.
    pub fn begin_join(&mut self) {
        self.joining = true;
    }

    /// The member a joiner addresses: rank 0 of the seed membership.
    pub fn join_target(&self) -> NodeId {
        self.servers
            .iter()
            .copied()
            .find(|&n| n != self.me)
            .expect("join seed names at least one member")
    }

    /// True when this node coordinates membership changes (group rank 0).
    pub fn is_coordinator(&self) -> bool {
        self.servers.first() == Some(&self.me)
    }

    /// The membership without `me`, for role handoff and reroute targets.
    pub fn remaining(&self) -> Vec<NodeId> {
        self.servers
            .iter()
            .copied()
            .filter(|&n| n != self.me)
            .collect()
    }

    /// Admits `joiner` into the membership; returns false if it was
    /// already a member (duplicate/retried admission).
    pub fn admit(&mut self, joiner: NodeId) -> bool {
        if self.servers.contains(&joiner) {
            return false;
        }
        self.servers.push(joiner);
        self.servers.sort();
        true
    }

    /// Removes `node` from the membership (drain completion).
    pub fn remove(&mut self, node: NodeId) {
        self.servers.retain(|&n| n != node);
    }

    /// Replaces the membership wholesale (ViewAdd/Welcome install).
    pub fn install(&mut self, servers: Vec<NodeId>) {
        self.servers = servers;
    }

    /// True while this node must not accept new client work (draining or
    /// already retired) — such invokes are rerouted.
    pub fn rerouting(&self) -> bool {
        !matches!(self.drain, DrainState::Active)
    }
}

/// State every replica server shares: the database kernel pieces plus
/// duplicate suppression and execution statistics.
#[derive(Debug)]
pub struct ServerBase {
    /// This site's index (dense, 0-based).
    pub site: u32,
    /// This site's physical copies.
    pub store: Store,
    /// This site's transaction manager.
    pub tm: TxnManager,
    /// This site's recorded execution history.
    pub history: ReplicatedHistory,
    /// Responses already produced, for exactly-once retries.
    pub cache: FxHashMap<OpId, Response>,
    /// Execution mode (determinism injection).
    pub exec: ExecutionMode,
    /// Transactions committed at this site.
    pub committed: u64,
    /// Transactions aborted at this site.
    pub aborted: u64,
    /// Crash-recovery accounting (rejoin time, transfer bytes).
    pub recovery: RecoveryTracker,
    /// Durable log tier (None reproduces pre-tier behaviour exactly).
    pub tier: Option<DurabilityTier>,
    /// Volume-loss disasters survived by this server.
    pub volume_wipes: u64,
    /// Set by an untiered wipe; a restore-from-scratch is pending.
    bare_wipe: bool,
    /// Lean mode: skip the per-operation history records and the
    /// response cache. Both grow linearly with the number of operations,
    /// which is fine for the oracle-checked studies but rules out
    /// million-operation open-loop runs; the aggregated open-loop driver
    /// never retries (no duplicate suppression needed) and does not run
    /// the history oracles, so both can be dropped wholesale.
    lean: bool,
}

impl ServerBase {
    /// Creates a server base over the given keyspace (a bare item count
    /// converts to a dense keyspace), all items initialised to 0.
    pub fn new(site: u32, keyspace: impl Into<Keyspace>, exec: ExecutionMode) -> Self {
        let ks = keyspace.into();
        ServerBase {
            site,
            store: Store::with_keyspace(ks, Value(0)),
            tm: TxnManager::new(),
            history: ReplicatedHistory::new(),
            cache: FxHashMap::default(),
            exec,
            committed: 0,
            aborted: 0,
            recovery: RecoveryTracker::default(),
            tier: None,
            volume_wipes: 0,
            bare_wipe: false,
            lean: false,
        }
    }

    /// Switches lean mode on or off (see the `lean` field). Off by
    /// default; every pre-existing path is byte-identical with it off.
    ///
    /// The switch is forwarded into the history itself: protocols append
    /// through `base.history.record(..)` at many call sites (reconcile
    /// paths, ordered-delivery replays), and gating inside the history
    /// covers them all without touching each protocol.
    pub fn set_lean(&mut self, lean: bool) {
        self.lean = lean;
        self.history.set_recording(!lean);
    }

    /// True when the server skips history recording and response caching.
    pub fn is_lean(&self) -> bool {
        self.lean
    }

    /// Attaches a durable log tier (no-op when `cfg` is disabled).
    /// `fsync_ticks` is the local fsync cost charged when a restored
    /// suffix is replayed into the recovering node's redo log.
    pub fn set_durability(&mut self, cfg: &DurabilityConfig, fsync_ticks: u64) {
        if cfg.enabled {
            self.tier = Some(DurabilityTier::new(cfg, self.keyspace(), fsync_ticks));
        }
    }

    /// Seals the commits of the event just processed into a durable
    /// frame at stream/log position `token`. Protocols call this from
    /// their settle hook; a no-op without a tier or without new commits.
    pub fn seal_now(&mut self, now: u64, token: u64) {
        if let Some(t) = &mut self.tier {
            t.seal(now, token);
        }
    }

    /// A volume-loss disaster: erases the store, transaction manager and
    /// recorded history, evicts the cached responses of every commit the
    /// durable tier lost (those ops must re-execute when the group
    /// replays them), and arms the restore. Without a tier the entire
    /// cache is evicted — everything must replay from the group.
    pub fn wipe_volume(&mut self, now: u64) {
        match &mut self.tier {
            Some(t) => {
                for ws in t.wipe(now) {
                    self.cache.remove(&op_of_txn(ws.txn));
                }
            }
            None => {
                self.cache.clear();
                self.bare_wipe = true;
            }
        }
        self.volume_wipes += 1;
        let ks = self.keyspace();
        self.store = Store::with_keyspace(ks, Value(0));
        self.tm = TxnManager::new();
        self.history = ReplicatedHistory::new();
        self.history.set_recording(!self.lean);
    }

    /// Starts the restore of a wiped volume, if one is pending: installs
    /// the durable snapshot and suffix (through the normal transfer
    /// accounting), rebuilds the folded history, and returns the plan
    /// the protocol must finish — rewind to `plan.token`, stay deaf for
    /// `plan.delay` ticks, then rejoin. `None` on a normal crash
    /// recovery. Untiered wipes restore from scratch (token 0, no
    /// delay): the whole group history replays through the rejoin path.
    pub fn begin_restore(&mut self, now: u64) -> Option<RestorePlan> {
        if self.tier.is_some() {
            let planned = self.tier.as_mut().and_then(|t| t.plan_restore(now));
            let (restore, plan) = planned?;
            if let Some(s) = &restore.snapshot {
                self.install_transfer(s);
            }
            if let Some(s) = &restore.suffix {
                self.install_transfer(s);
            }
            for (txn, keys) in &restore.folded_history {
                for k in keys {
                    self.history.record(self.site, *txn, *k, AccessKind::Write);
                }
                self.history.mark_committed(*txn);
            }
            Some(plan)
        } else if self.bare_wipe {
            self.bare_wipe = false;
            Some(RestorePlan {
                token: 0,
                start: 0,
                high: 0,
                entries: Vec::new(),
                delay: 0,
            })
        } else {
            None
        }
    }

    /// Ends the restore's deaf window; the tier resumes sealing.
    pub fn finish_restore(&mut self) {
        if let Some(t) = &mut self.tier {
            t.finish_restore();
        }
    }

    /// True while a restore download is in flight (the node is deaf).
    pub fn restoring(&self) -> bool {
        self.tier.as_ref().is_some_and(|t| t.restoring())
    }

    /// The keyspace this server's kernel structures are built for.
    pub fn keyspace(&self) -> Keyspace {
        self.store.keyspace()
    }

    /// The value actually written for a requested write, after the
    /// execution-mode perturbation.
    pub fn effective_value(&self, v: Value) -> Value {
        match self.exec {
            ExecutionMode::Deterministic => v,
            ExecutionMode::NonDeterministic => Value(v.0 * 1_000 + self.site as i64),
        }
    }

    /// Executes a whole client transaction locally and commits it,
    /// recording history. Returns the writeset and the client response.
    pub fn execute_commit(&mut self, op: &ClientOp, txn: TxnId) -> (WriteSet, Response) {
        self.tm.begin(txn);
        let mut reads: Vec<(Key, Value)> = Vec::new();
        for (key, write) in accesses(&op.txn) {
            match write {
                None => {
                    let v = self
                        .tm
                        .read(&self.store, txn, key)
                        .expect("txn is active")
                        .map_or(Value(0), |v| v.value);
                    if !self.lean {
                        self.history.record(self.site, txn, key, AccessKind::Read);
                    }
                    reads.push((key, v));
                }
                Some(v) => {
                    let v = self.effective_value(v);
                    self.tm
                        .write(&mut self.store, txn, key, v)
                        .expect("txn is active");
                    if !self.lean {
                        self.history.record(self.site, txn, key, AccessKind::Write);
                    }
                }
            }
        }
        let ws = self.tm.commit(txn).expect("txn is active");
        if !self.lean {
            self.history.mark_committed(txn);
        }
        self.committed += 1;
        if let Some(t) = &mut self.tier {
            t.note_commit(&ws);
        }
        let resp = Response {
            op: op.id,
            committed: true,
            reads,
        };
        (ws, resp)
    }

    /// Executes a transaction on shadow copies (no store mutation),
    /// returning the read set (versions), the writeset and the response.
    pub fn execute_shadow(
        &mut self,
        op: &ClientOp,
        txn: TxnId,
    ) -> (Vec<(Key, u64)>, WriteSet, Response) {
        let mut shadow = ShadowStore::new(&self.store, txn);
        let mut reads: Vec<(Key, Value)> = Vec::new();
        let mut writes: Vec<(Key, Value)> = Vec::new();
        for (key, write) in accesses(&op.txn) {
            match write {
                None => {
                    let v = shadow.read(key).map_or(Value(0), |v| v.value);
                    reads.push((key, v));
                }
                Some(v) => {
                    writes.push((key, v));
                    shadow.write(key, self.effective_value(v));
                }
            }
        }
        let _ = writes;
        let read_set = shadow.read_set().to_vec();
        let ws = shadow.into_writeset();
        let resp = Response {
            op: op.id,
            committed: true,
            reads,
        };
        (read_set, ws, resp)
    }

    /// Installs a replicated writeset (no re-execution), recording history.
    pub fn install_writeset(&mut self, ws: &WriteSet) {
        if !self.lean {
            for w in &ws.writes {
                self.history
                    .record(self.site, ws.txn, w.key, AccessKind::Write);
            }
            self.history.mark_committed(ws.txn);
        }
        self.store.apply_writeset(ws);
        self.committed += 1;
        if let Some(t) = &mut self.tier {
            t.note_commit(ws);
        }
    }

    /// Installs a recovery state transfer and records its accounting.
    /// Log suffixes go through the normal writeset-install path so the
    /// recorded history stays aligned with live installs; snapshots
    /// replace the store wholesale (the missed transactions are not
    /// attributable individually). Returns the donor's watermark.
    pub fn install_transfer(&mut self, t: &Transfer) -> u64 {
        self.recovery
            .record_transfer(t.strategy, t.wire_size() as u64);
        match t.strategy {
            TransferStrategy::LogSuffix => {
                for ws in &t.entries {
                    self.install_writeset(ws);
                }
            }
            TransferStrategy::Snapshot => {
                self.store.install_snapshot(&t.snapshot);
                self.note_snapshot(&t.snapshot);
            }
        }
        t.high
    }

    /// Re-protects snapshot contents in the durable tier: a snapshot
    /// fast-forwards past entries the tier never saw, and a later
    /// disaster must not restore a store with that hole. Each key
    /// becomes a one-record writeset under its real writer, so loss
    /// attribution and history folding hold. (During a tier restore
    /// `note_commit` is a no-op — the installed state is already
    /// durable.)
    pub fn note_snapshot(&mut self, snapshot: &[(Key, Versioned)]) {
        if self.tier.is_none() {
            return;
        }
        for (k, v) in snapshot {
            if let Some(writer) = v.writer {
                let ws = WriteSet {
                    txn: writer,
                    writes: vec![WriteRecord {
                        key: *k,
                        value: v.value,
                        version: v.version,
                    }],
                };
                if let Some(tier) = &mut self.tier {
                    tier.note_commit(&ws);
                }
            }
        }
    }

    /// Reads a single key outside any transaction (lazy/stale reads),
    /// recording history under the given transaction id.
    pub fn read_committed(&mut self, txn: TxnId, key: Key) -> Value {
        if !self.lean {
            self.history.record(self.site, txn, key, AccessKind::Read);
        }
        self.store.read(key).map_or(Value(0), |v| v.value)
    }

    /// Looks up a cached response for duplicate suppression.
    pub fn cached(&self, op: OpId) -> Option<Response> {
        self.cache.get(&op).cloned()
    }

    /// Caches a response (a no-op in lean mode — the open-loop driver
    /// never retries, so duplicate suppression has nothing to suppress).
    pub fn remember(&mut self, resp: &Response) {
        if !self.lean {
            self.cache.insert(resp.op, resp.clone());
        }
    }
}

/// Polls the ABCAST endpoint for a completed rejoin and closes the
/// server's recovery window: the refilled ordered-stream bytes count as
/// a log-suffix transfer (the order log *is* the group's shared log).
/// Call after every endpoint interaction; no-op outside a recovery.
pub fn settle_rejoin<P: Message>(ab: &mut AbcastEndpoint<P>, base: &mut ServerBase, now: u64) {
    if let Some(bytes) = ab.take_rejoin_done() {
        if bytes > 0 {
            base.recovery
                .record_transfer(TransferStrategy::LogSuffix, bytes);
        }
        base.recovery.complete(now);
    }
}

/// A transaction id derived from an operation id, stable across client
/// retries (so a restarted transaction keeps its age, which is what makes
/// wound-wait starvation-free). The per-client sequence number dominates
/// the age order so that, under closed-loop clients, age roughly tracks
/// submission time instead of privileging low-numbered clients.
pub fn txn_for_op(op: OpId, site: u32) -> TxnId {
    TxnId::new(((op.seq() as u64) << 20) | op.client() as u64, site)
}

/// The site-independent transaction id of an operation: every replica
/// executing (or installing) the same client operation uses the same
/// transaction id, so cross-site histories line up for the one-copy-
/// serializability checker.
pub fn global_txn(op: OpId) -> TxnId {
    txn_for_op(op, op.client())
}

/// Inverts [`txn_for_op`]/[`global_txn`]: recovers the operation id from a
/// transaction id (used to attribute late, post-response phase marks of
/// lazy techniques to the right operation).
pub fn op_of_txn(txn: TxnId) -> OpId {
    let seq = (txn.ts >> 20) as u32;
    let client = (txn.ts & 0xF_FFFF) as u32;
    OpId::compose(client, seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_sim::NodeId;
    use repl_workload::{OpTemplate, TxnTemplate};

    fn op(id: u64, ops: Vec<OpTemplate>) -> ClientOp {
        ClientOp {
            id: OpId(id),
            client: NodeId::new(99),
            txn: TxnTemplate { ops },
        }
    }

    #[test]
    fn execute_commit_reads_and_writes() {
        let mut base = ServerBase::new(0, 4, ExecutionMode::Deterministic);
        let o = op(
            1,
            vec![
                OpTemplate::Write(Key(1), Value(5)),
                OpTemplate::Read(Key(1)),
            ],
        );
        let (ws, resp) = base.execute_commit(&o, TxnId::new(1, 0));
        assert_eq!(ws.writes.len(), 1);
        assert_eq!(resp.reads, vec![(Key(1), Value(5))]);
        assert!(resp.committed);
        assert_eq!(base.committed, 1);
        assert_eq!(base.store.read(Key(1)).expect("exists").value, Value(5));
    }

    #[test]
    fn nondeterministic_mode_perturbs_per_site() {
        let mut s0 = ServerBase::new(0, 2, ExecutionMode::NonDeterministic);
        let mut s1 = ServerBase::new(1, 2, ExecutionMode::NonDeterministic);
        let o = op(1, vec![OpTemplate::Write(Key(0), Value(5))]);
        s0.execute_commit(&o, TxnId::new(1, 0));
        s1.execute_commit(&o, TxnId::new(1, 1));
        assert_ne!(
            s0.store.read(Key(0)).expect("exists").value,
            s1.store.read(Key(0)).expect("exists").value,
            "independent execution must diverge"
        );
        assert_ne!(s0.store.fingerprint(), s1.store.fingerprint());
    }

    #[test]
    fn shadow_execution_leaves_store_untouched() {
        let mut base = ServerBase::new(0, 2, ExecutionMode::Deterministic);
        let fp = base.store.fingerprint();
        let o = op(
            2,
            vec![
                OpTemplate::Read(Key(0)),
                OpTemplate::Write(Key(1), Value(9)),
            ],
        );
        let (read_set, ws, resp) = base.execute_shadow(&o, TxnId::new(2, 0));
        assert_eq!(base.store.fingerprint(), fp);
        assert_eq!(read_set, vec![(Key(0), 0)]);
        assert_eq!(ws.writes.len(), 1);
        assert!(resp.committed);
    }

    #[test]
    fn install_writeset_converges_replicas() {
        let mut a = ServerBase::new(0, 2, ExecutionMode::Deterministic);
        let mut b = ServerBase::new(1, 2, ExecutionMode::Deterministic);
        let o = op(3, vec![OpTemplate::Write(Key(0), Value(7))]);
        let (ws, _) = a.execute_commit(&o, TxnId::new(3, 0));
        b.install_writeset(&ws);
        assert_eq!(a.store.fingerprint(), b.store.fingerprint());
        assert_eq!(b.committed, 1);
    }

    #[test]
    fn cache_roundtrip() {
        let mut base = ServerBase::new(0, 1, ExecutionMode::Deterministic);
        assert!(base.cached(OpId(9)).is_none());
        let resp = Response::committed(OpId(9));
        base.remember(&resp);
        assert_eq!(base.cached(OpId(9)), Some(resp));
    }

    #[test]
    fn lean_mode_skips_history_and_cache_but_not_state() {
        let mut lean = ServerBase::new(0, 4, ExecutionMode::Deterministic);
        lean.set_lean(true);
        assert!(lean.is_lean());
        let o = op(1, vec![OpTemplate::Write(Key(1), Value(5))]);
        let (ws, resp) = lean.execute_commit(&o, TxnId::new(1, 0));
        lean.remember(&resp);
        assert!(lean.cached(o.id).is_none(), "lean cache stays empty");
        assert!(
            lean.history.committed().is_empty(),
            "lean history stays empty"
        );
        assert_eq!(lean.committed, 1);
        // The store state itself is identical to a non-lean execution.
        let mut full = ServerBase::new(1, 4, ExecutionMode::Deterministic);
        full.install_writeset(&ws);
        assert_eq!(lean.store.fingerprint(), full.store.fingerprint());
        let _ = lean.read_committed(TxnId::new(2, 0), Key(1));
        assert!(lean.history.committed().is_empty());
    }

    #[test]
    fn txn_ids_align_with_submission_order() {
        let a = txn_for_op(OpId::compose(0, 5), 0);
        let b = txn_for_op(OpId::compose(0, 6), 1);
        assert!(a.is_older_than(b));
        // Same sequence number across clients: earlier rounds dominate.
        let c = txn_for_op(OpId::compose(7, 5), 0);
        let d = txn_for_op(OpId::compose(0, 6), 0);
        assert!(
            c.is_older_than(d),
            "round 5 of any client is older than round 6"
        );
        // Retrying the same op yields the same age.
        assert_eq!(
            txn_for_op(OpId::compose(1, 2), 3),
            txn_for_op(OpId::compose(1, 2), 3)
        );
    }
}
