//! The experiment runner: build a world for a technique, drive the
//! workload to completion, and collect a [`RunReport`].

use repl_db::DeadlockPolicy;
use repl_gcs::{BatchConfig, ConsensusConfig, FdConfig, VsConfig};
use repl_sim::{
    Actor, LatencyHistogram, LatencyStats, Message, NetworkConfig, NodeId, SimConfig, SimDuration,
    SimTime, World,
};
use repl_workload::{
    ArrivalDist, ArrivalStream, FaultEvent, FaultPlan, FaultPlanError, MembershipEvent,
    MembershipPlan, MembershipPlanError, ShardMap, WorkloadGen, WorkloadSpec,
};

use crate::client::{AggregateClients, ClientActor, ClientGroup, OpenLoopClient, ProtocolMsg};
use crate::durability::DurabilityConfig;
use crate::phase::PhaseTrace;
use crate::protocols::common::{op_of_txn, AbcastImpl, ExecutionMode, ShardCtx};
use crate::protocols::lazy_ue::ReconcileMode;
use crate::protocols::{
    active::{ActiveMsg, ActiveServer},
    certification::{CertMsg, CertServer},
    eager_primary::{EagerPrimaryMsg, EagerPrimaryServer},
    eager_ue_abcast::{EuaMsg, EuaServer},
    eager_ue_lock::{EulMsg, EulServer},
    lazy_primary::{LazyPrimaryMsg, LazyPrimaryServer},
    lazy_ue::{LazyUeMsg, LazyUeServer},
    passive::{PassiveMsg, PassiveServer},
    semi_active::{SemiActiveMsg, SemiActiveServer},
    semi_passive::{SemiPassiveMsg, SemiPassiveServer},
};
use crate::report::{RunReport, ShardingReport};
use crate::sharded_client::{ReplyMode, ShardedClient};
use crate::technique::{Technique, UpdateLocation};

/// How clients generate load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arrival {
    /// Closed loop: one outstanding operation per client, think time
    /// between transactions, timeout-based re-submission.
    #[default]
    Closed,
    /// Open loop: Poisson arrivals with the given mean inter-arrival time
    /// (ticks); several operations may be outstanding, none are retried.
    Open(u64),
    /// Aggregated open loop: the whole client population is simulated by
    /// one arrival process per server group instead of one actor per
    /// client, so the client count is a parameter rather than an actor
    /// count (a million clients cost a handful of actors). `mean` is the
    /// *per-client* mean inter-arrival time in ticks; the group stream
    /// runs at `mean / group size`. Latencies go into a constant-memory
    /// [`LatencyHistogram`] ([`RunReport::latency_hist`]) and no
    /// per-operation records are kept.
    OpenAggregated {
        /// Per-client mean inter-arrival time, in ticks.
        mean: u64,
        /// Shape of the arrival process.
        dist: ArrivalDist,
    },
}

/// Everything that parameterises one experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The replication technique to run.
    pub technique: Technique,
    /// Number of replica servers.
    pub servers: u32,
    /// Number of closed-loop clients.
    pub clients: u32,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Master seed (world RNG and workload generators derive from it).
    pub seed: u64,
    /// Network model.
    pub network: NetworkConfig,
    /// Fault load: crashes/recoveries, partitions/heals, link faults.
    /// Node ids in the plan refer to *servers* (`0..servers`, or up to
    /// the membership plan's peak when one is set).
    pub faults: FaultPlan,
    /// Elastic-membership load: mid-run joins of brand-new sites and
    /// planned decommissions. The empty plan (the default) leaves runs
    /// byte-identical to a build without the membership subsystem.
    pub membership: MembershipPlan,
    /// Which Atomic Broadcast implementation ABCAST-based techniques use.
    pub abcast: AbcastImpl,
    /// Batching window for the ordering/propagation rounds of the
    /// ABCAST-based and primary-copy techniques (and for WAL group
    /// commit at the primaries). `BatchConfig::disabled()` (the
    /// default) reproduces the unbatched behaviour bit-for-bit.
    pub batching: BatchConfig,
    /// Whether server execution is deterministic.
    pub exec: ExecutionMode,
    /// Deadlock policy for the distributed-locking technique.
    pub deadlock: DeadlockPolicy,
    /// Read-one/write-all reads for the distributed-locking technique.
    pub rowa: bool,
    /// Reconciliation rule for lazy update everywhere.
    pub reconcile: ReconcileMode,
    /// Extra propagation delay for the lazy techniques.
    pub propagation_delay: SimDuration,
    /// Redo-log retention at the techniques that keep a log (eager and
    /// lazy primary copy): how many entries stay available for
    /// log-suffix recovery transfers before truncation forces snapshot
    /// transfers. `None` retains everything.
    pub log_retention: Option<usize>,
    /// The durable log tier every server uploads committed writesets
    /// into. Disabled (the default) reproduces the untiered behaviour
    /// bit-for-bit; enabling it arms volume-loss survival.
    pub durability: DurabilityConfig,
    /// Simulated cost of one stable-storage force, charged when a
    /// restore replays a durable log suffix. Defaults to
    /// [`repl_db::FSYNC_TICKS`].
    pub fsync_ticks: u64,
    /// Client retry timeout.
    pub retry_after: SimDuration,
    /// Hard deadline for the run.
    pub max_time: SimTime,
    /// Record a trace (needed for phase figures; disable in benches).
    pub trace: bool,
    /// Client arrival process.
    pub arrival: Arrival,
}

impl RunConfig {
    /// A reasonable default configuration for `technique`: 3 servers,
    /// 2 clients, the default workload, LAN network, no failures.
    pub fn new(technique: Technique) -> Self {
        RunConfig {
            technique,
            servers: 3,
            clients: 2,
            workload: WorkloadSpec::default(),
            seed: 1,
            network: NetworkConfig::lan(),
            faults: FaultPlan::new(),
            membership: MembershipPlan::new(),
            abcast: AbcastImpl::Sequencer,
            batching: BatchConfig::disabled(),
            exec: ExecutionMode::Deterministic,
            deadlock: DeadlockPolicy::WoundWait,
            rowa: false,
            reconcile: ReconcileMode::Lww,
            propagation_delay: SimDuration::ZERO,
            log_retention: None,
            durability: DurabilityConfig::disabled(),
            fsync_ticks: repl_db::FSYNC_TICKS,
            retry_after: SimDuration::from_ticks(25_000),
            max_time: SimTime::from_ticks(30_000_000),
            trace: true,
            arrival: Arrival::Closed,
        }
    }

    /// Sets the number of servers.
    pub fn with_servers(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one server required");
        self.servers = n;
        self
    }

    /// Sets the number of clients.
    pub fn with_clients(mut self, n: u32) -> Self {
        self.clients = n;
        self
    }

    /// Sets the workload.
    pub fn with_workload(mut self, w: WorkloadSpec) -> Self {
        self.workload = w;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network model.
    pub fn with_network(mut self, n: NetworkConfig) -> Self {
        self.network = n;
        self
    }

    /// Sets the fault load.
    pub fn with_faults(mut self, f: FaultPlan) -> Self {
        self.faults = f;
        self
    }

    /// Sets the elastic-membership plan (mid-run joins and drains).
    pub fn with_membership(mut self, m: MembershipPlan) -> Self {
        self.membership = m;
        self
    }

    /// Sets the ABCAST implementation.
    pub fn with_abcast(mut self, a: AbcastImpl) -> Self {
        self.abcast = a;
        self
    }

    /// Sets the batching window (ordering rounds + WAL group commit).
    pub fn with_batching(mut self, b: BatchConfig) -> Self {
        self.batching = b;
        self
    }

    /// Sets the execution mode.
    pub fn with_exec(mut self, e: ExecutionMode) -> Self {
        self.exec = e;
        self
    }

    /// Sets the deadlock policy (distributed locking only).
    pub fn with_deadlock(mut self, d: DeadlockPolicy) -> Self {
        self.deadlock = d;
        self
    }

    /// Enables read-one/write-all reads (distributed locking only).
    pub fn with_rowa(mut self, rowa: bool) -> Self {
        self.rowa = rowa;
        self
    }

    /// Sets the lazy reconciliation rule.
    pub fn with_reconcile(mut self, r: ReconcileMode) -> Self {
        self.reconcile = r;
        self
    }

    /// Sets the lazy propagation delay.
    pub fn with_propagation_delay(mut self, d: SimDuration) -> Self {
        self.propagation_delay = d;
        self
    }

    /// Sets the redo-log retention (entries kept for recovery suffixes).
    pub fn with_log_retention(mut self, r: Option<usize>) -> Self {
        self.log_retention = r;
        self
    }

    /// Sets the durable log tier configuration.
    pub fn with_durability(mut self, d: DurabilityConfig) -> Self {
        self.durability = d;
        self
    }

    /// Sets the simulated fsync cost (restore replay of log suffixes).
    pub fn with_fsync_ticks(mut self, t: u64) -> Self {
        self.fsync_ticks = t;
        self
    }

    /// Sets the client retry timeout (base of the retry backoff).
    pub fn with_retry_after(mut self, d: SimDuration) -> Self {
        self.retry_after = d;
        self
    }

    /// Enables or disables tracing.
    pub fn with_trace(mut self, t: bool) -> Self {
        self.trace = t;
        self
    }

    /// Sets the run deadline.
    pub fn with_max_time(mut self, t: SimTime) -> Self {
        self.max_time = t;
        self
    }

    /// Sets the client arrival process.
    pub fn with_arrival(mut self, a: Arrival) -> Self {
        self.arrival = a;
        self
    }

    /// Whether servers should run lean: skip the unbounded per-run
    /// bookkeeping (execution history, client-response cache) that the
    /// exact collection path consumes. True exactly for the aggregated
    /// open-loop engine, whose collection never reads either.
    pub fn lean_servers(&self) -> bool {
        matches!(self.arrival, Arrival::OpenAggregated { .. })
    }
}

/// The maximum client population of a run: virtual client ids are packed
/// into the low 20 bits of server-side transaction ids
/// (`crate::protocols::common::txn_for_op`), so ids must stay below
/// 2^20. One full million clients fits.
pub const MAX_CLIENTS: u32 = 1 << 20;

/// One-way worst-case network delay of a profile.
fn max_delay(net: &NetworkConfig) -> u64 {
    net.base_latency.ticks() + net.jitter.ticks()
}

/// Failure-detector parameters scaled to the network: heartbeats must
/// outpace suspicion even at the profile's worst-case latency, or every
/// member falsely suspects every other on a WAN.
fn tuned_fd(net: &NetworkConfig) -> FdConfig {
    let d = max_delay(net);
    FdConfig {
        interval: SimDuration::from_ticks((2 * d).max(500)),
        miss_threshold: 3,
    }
}

/// Consensus round timeout scaled to the network (a round needs ~3 one-way
/// delays; time out only well after that).
fn tuned_consensus(net: &NetworkConfig) -> ConsensusConfig {
    let d = max_delay(net);
    ConsensusConfig {
        round_timeout: SimDuration::from_ticks((8 * d).max(2_000)),
    }
}

/// View-synchrony parameters scaled to the network.
fn tuned_vs(net: &NetworkConfig) -> VsConfig {
    let d = max_delay(net);
    VsConfig {
        fd: tuned_fd(net),
        consensus: tuned_consensus(net),
        flush_retry: SimDuration::from_ticks((10 * d).max(3_000)),
        join_retry: SimDuration::from_ticks((12 * d).max(5_000)),
    }
}

/// Semi-passive deferral step scaled to the network.
fn tuned_defer(net: &NetworkConfig) -> SimDuration {
    SimDuration::from_ticks((6 * max_delay(net)).max(3_000))
}

/// Per-server statistics the collector extracts after a run.
struct ServerStats {
    history: repl_db::ReplicatedHistory,
    fingerprint: u64,
    aborted: u64,
    reconciliations: u64,
    wounds: u64,
    recovery: repl_db::RecoveryTracker,
    volume_wipes: u64,
    lost: Vec<repl_db::TxnId>,
    restores: u64,
    restore_bytes: u64,
    restore_ticks: u64,
    upload_puts: u64,
    upload_bytes: u64,
    upload_cost: u64,
    frames_sealed: u64,
}

/// Why an experiment run could not be performed.
///
/// Configuration problems are reported as typed variants so sweep
/// drivers can surface them per cell instead of tearing down the whole
/// study; [`RunError::Internal`] wraps a panic from inside the
/// simulation (a bug, not a configuration error).
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// `cfg.faults` is ill-formed for this configuration (see
    /// [`FaultPlan::validate`]): an event names a node outside the
    /// server set, recovers a node that is not down, crashes a node
    /// twice, or is scheduled past `cfg.max_time`.
    InvalidFaultPlan(FaultPlanError),
    /// `cfg.membership` is ill-formed for this configuration (see
    /// [`MembershipPlan::validate`]): a join names an existing or sparse
    /// node id, a drain names a non-member, a node is drained twice, or
    /// an event is scheduled past `cfg.max_time`.
    InvalidMembershipPlan(MembershipPlanError),
    /// The configuration asks for zero servers.
    NoServers,
    /// The configuration asks for more clients than transaction ids can
    /// address (client ids occupy 20 bits; see [`MAX_CLIENTS`]). Packing
    /// larger populations would silently alias distinct clients onto the
    /// same transaction ids.
    TooManyClients {
        /// The requested client count.
        clients: u32,
        /// The maximum supported ([`MAX_CLIENTS`]).
        max: u32,
    },
    /// The sharded (partial-replication) configuration is unsupported:
    /// more shards than keys, a non-closed arrival process, a membership
    /// plan, cross-shard traffic on a technique without a cross-group
    /// commit path, faults combined with cross-shard traffic, or a
    /// locking variant (`Detect`, rowa) that has no global order across
    /// groups. The payload says which rule was violated.
    Sharded(String),
    /// The simulation itself panicked; the payload is the panic message.
    Internal(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            RunError::InvalidMembershipPlan(e) => write!(f, "invalid membership plan: {e}"),
            RunError::NoServers => write!(f, "configuration has zero servers"),
            RunError::TooManyClients { clients, max } => write!(
                f,
                "configuration has {clients} clients but transaction ids only address {max}"
            ),
            RunError::Sharded(msg) => write!(f, "invalid sharded configuration: {msg}"),
            RunError::Internal(msg) => write!(f, "run failed internally: {msg}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::InvalidFaultPlan(e) => Some(e),
            RunError::InvalidMembershipPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultPlanError> for RunError {
    fn from(e: FaultPlanError) -> Self {
        RunError::InvalidFaultPlan(e)
    }
}

impl From<MembershipPlanError> for RunError {
    fn from(e: MembershipPlanError) -> Self {
        RunError::InvalidMembershipPlan(e)
    }
}

/// Runs one experiment and collects the report, reporting configuration
/// problems as a typed [`RunError`] instead of panicking.
///
/// This is the entry point sweep drivers use: the closure
/// `move || try_run(&cfg)` is `Send`, so cells can be fanned out across
/// worker threads, and a bad cell yields an `Err` for that cell only. A
/// panic from inside the simulation is caught and reported as
/// [`RunError::Internal`].
///
/// # Errors
///
/// [`RunError::InvalidFaultPlan`] when `cfg.faults` fails validation
/// against `cfg.servers`/`cfg.max_time`; [`RunError::NoServers`] when
/// `cfg.servers == 0`; [`RunError::TooManyClients`] when `cfg.clients`
/// exceeds [`MAX_CLIENTS`]; [`RunError::Internal`] when the run
/// panicked.
pub fn try_run(cfg: &RunConfig) -> Result<RunReport, RunError> {
    if cfg.servers == 0 {
        return Err(RunError::NoServers);
    }
    if cfg.clients > MAX_CLIENTS {
        return Err(RunError::TooManyClients {
            clients: cfg.clients,
            max: MAX_CLIENTS,
        });
    }
    if cfg.workload.shards > 1 {
        validate_sharded(cfg)?;
        // Sharded worlds have `shards` groups of `cfg.servers` nodes;
        // fault ids range over the whole node set.
        cfg.faults
            .validate(cfg.workload.shards * cfg.servers, cfg.max_time)?;
    } else {
        cfg.membership.validate(cfg.servers, cfg.max_time)?;
        // Fault node ids may target planned joiners too: validate against the
        // peak server count (identical to `cfg.servers` for the empty plan).
        cfg.faults
            .validate(cfg.membership.peak_servers(cfg.servers), cfg.max_time)?;
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(cfg))).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_string());
        RunError::Internal(msg)
    })
}

/// Runs one experiment and collects the report.
///
/// # Panics
///
/// Panics if the configuration is rejected by [`try_run`] — most
/// commonly an ill-formed `cfg.faults` (the message starts with
/// `"invalid fault plan"`). Binaries that want a nonzero exit instead
/// of a panic should call [`try_run`] and handle the error.
pub fn run(cfg: &RunConfig) -> RunReport {
    try_run(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Rejects sharded configurations the engine cannot honour. Called by
/// [`try_run`] only when `cfg.workload.shards > 1`.
///
/// Cross-shard traffic needs genuine cross-group coordination, which
/// only three techniques implement: active replication and eager
/// update-everywhere ABCAST (genuine atomic multicast to the touched
/// groups), and eager update-everywhere locking (2PC over the union of
/// the touched groups). At `cross_shard_ratio == 0` the groups never
/// interact and *every* technique runs, one independent instance per
/// shard. Faults are allowed only in that independent regime — the
/// genuine-multicast and union-2PC paths are not fault-tolerant (the
/// paper's protocols assume a view-synchronous group per *replica set*,
/// not across sets).
fn validate_sharded(cfg: &RunConfig) -> Result<(), RunError> {
    let w = &cfg.workload;
    if let Err(e) = ShardMap::try_new(w.items, w.shards) {
        return Err(RunError::Sharded(e.to_string()));
    }
    if !matches!(cfg.arrival, Arrival::Closed) {
        return Err(RunError::Sharded(
            "sharded runs support the closed-loop arrival process only".into(),
        ));
    }
    if !cfg.membership.is_empty() {
        return Err(RunError::Sharded(
            "membership plans are not supported in sharded runs".into(),
        ));
    }
    if w.cross_shard_ratio > 0.0 {
        match cfg.technique {
            Technique::Active
            | Technique::EagerUpdateEverywhereAbcast
            | Technique::EagerUpdateEverywhereLocking => {}
            t => {
                return Err(RunError::Sharded(format!(
                    "{t} has no cross-group commit path; cross-shard transactions \
                     need active, eager-UE abcast or eager-UE locking"
                )));
            }
        }
        if !cfg.faults.events().is_empty() {
            return Err(RunError::Sharded(
                "faults are not supported together with cross-shard transactions".into(),
            ));
        }
        if cfg.technique == Technique::EagerUpdateEverywhereLocking {
            if cfg.deadlock != DeadlockPolicy::WoundWait {
                return Err(RunError::Sharded(
                    "cross-shard locking needs the wound-wait policy (global deadlock order)"
                        .into(),
                ));
            }
            if cfg.rowa {
                return Err(RunError::Sharded(
                    "rowa reads are incompatible with cross-shard locking".into(),
                ));
            }
        } else if cfg.batching.enabled() {
            return Err(RunError::Sharded(
                "batching is not supported on the genuine-multicast path".into(),
            ));
        }
    }
    Ok(())
}

/// Routes a technique to the flat or the sharded driver. The `cross`
/// hook enables a server's cross-shard mode (present exactly for the
/// three techniques with a cross-group commit path); it is applied only
/// when the workload actually produces cross-shard transactions, so a
/// `cross_shard_ratio == 0` run uses the stock protocol per group.
fn route<M, S>(
    cfg: &RunConfig,
    build: impl Fn(u32, NodeId, Vec<NodeId>, &RunConfig, bool) -> Box<dyn Actor<M>>,
    cross: Option<fn(&mut S, ShardCtx)>,
    collect: impl Fn(&S) -> ServerStats,
) -> RunReport
where
    M: Message + ProtocolMsg,
    S: 'static,
{
    if cfg.workload.shards > 1 {
        drive_sharded(cfg, build, cross, collect)
    } else {
        drive(cfg, build, collect)
    }
}

/// Technique dispatch: monomorphises [`drive`] for the technique's
/// message and server types. Assumes `cfg` was already validated.
fn dispatch(cfg: &RunConfig) -> RunReport {
    match cfg.technique {
        Technique::Active => route::<ActiveMsg, ActiveServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv = ActiveServer::new(
                    site,
                    me,
                    group,
                    c.workload.keyspace(),
                    c.exec,
                    c.abcast,
                    tuned_consensus(&c.network),
                )
                .with_batching(c.batching);
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            Some(|s: &mut ActiveServer, sc| s.enable_cross_shard(sc)),
            |s| base_stats(&s.base),
        ),
        Technique::Passive => route::<PassiveMsg, PassiveServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv = PassiveServer::new(
                    site,
                    me,
                    group,
                    c.workload.keyspace(),
                    c.exec,
                    tuned_vs(&c.network),
                );
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            None,
            |s| base_stats(&s.base),
        ),
        Technique::SemiActive => route::<SemiActiveMsg, SemiActiveServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv = SemiActiveServer::new(
                    site,
                    me,
                    group,
                    c.workload.keyspace(),
                    c.exec,
                    c.abcast,
                    tuned_vs(&c.network),
                )
                .with_batching(c.batching);
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            None,
            |s| base_stats(&s.base),
        ),
        Technique::SemiPassive => route::<SemiPassiveMsg, SemiPassiveServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv = SemiPassiveServer::new(
                    site,
                    me,
                    group,
                    c.workload.keyspace(),
                    c.exec,
                    tuned_defer(&c.network),
                    tuned_consensus(&c.network),
                );
                srv.set_log_retention(c.log_retention);
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            None,
            |s| base_stats(&s.base),
        ),
        Technique::EagerPrimary => route::<EagerPrimaryMsg, EagerPrimaryServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv = EagerPrimaryServer::new(
                    site,
                    me,
                    group,
                    c.workload.keyspace(),
                    c.exec,
                    tuned_fd(&c.network),
                )
                .with_batching(c.batching);
                srv.set_log_retention(c.log_retention);
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            None,
            |s| base_stats(&s.base),
        ),
        Technique::EagerUpdateEverywhereLocking => route::<EulMsg, EulServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv =
                    EulServer::new(site, me, group, c.workload.keyspace(), c.exec, c.deadlock)
                        .with_rowa(c.rowa);
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            Some(|s: &mut EulServer, sc| s.enable_cross_shard(sc)),
            |s| {
                let mut stats = base_stats(&s.base);
                stats.wounds = s.wounds;
                stats
            },
        ),
        Technique::EagerUpdateEverywhereAbcast => route::<EuaMsg, EuaServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv = EuaServer::new(
                    site,
                    me,
                    group,
                    c.workload.keyspace(),
                    c.exec,
                    c.abcast,
                    tuned_consensus(&c.network),
                )
                .with_batching(c.batching);
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            Some(|s: &mut EuaServer, sc| s.enable_cross_shard(sc)),
            |s| base_stats(&s.base),
        ),
        Technique::LazyPrimary => route::<LazyPrimaryMsg, LazyPrimaryServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv = LazyPrimaryServer::new(
                    site,
                    me,
                    group,
                    c.workload.keyspace(),
                    c.exec,
                    c.propagation_delay,
                )
                .with_batching(c.batching);
                srv.set_log_retention(c.log_retention);
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            None,
            |s| base_stats(&s.base),
        ),
        Technique::LazyUpdateEverywhere => route::<LazyUeMsg, LazyUeServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv = LazyUeServer::new(
                    site,
                    me,
                    group,
                    c.workload.keyspace(),
                    c.exec,
                    c.propagation_delay,
                )
                .with_reconcile(c.reconcile);
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            None,
            |s| {
                let mut stats = base_stats(&s.base);
                stats.reconciliations = s.reconciliations;
                stats
            },
        ),
        Technique::Certification => route::<CertMsg, CertServer>(
            cfg,
            |site, me, group, c, joiner| {
                let mut srv = CertServer::new(
                    site,
                    me,
                    group,
                    c.workload.keyspace(),
                    c.exec,
                    c.abcast,
                    tuned_consensus(&c.network),
                )
                .with_batching(c.batching);
                if joiner {
                    srv.begin_join();
                }
                srv.base.set_durability(&c.durability, c.fsync_ticks);
                srv.base.set_lean(c.lean_servers());
                Box::new(srv)
            },
            None,
            |s| base_stats(&s.base),
        ),
    }
}

fn base_stats(base: &crate::protocols::common::ServerBase) -> ServerStats {
    let mut stats = ServerStats {
        history: base.history.clone(),
        fingerprint: base.store.fingerprint(),
        aborted: base.aborted,
        reconciliations: 0,
        wounds: 0,
        recovery: base.recovery.clone(),
        volume_wipes: base.volume_wipes,
        lost: Vec::new(),
        restores: 0,
        restore_bytes: 0,
        restore_ticks: 0,
        upload_puts: 0,
        upload_bytes: 0,
        upload_cost: 0,
        frames_sealed: 0,
    };
    if let Some(tier) = &base.tier {
        stats.lost = tier.lost.clone();
        stats.restores = tier.restores;
        stats.restore_bytes = tier.restore_bytes;
        stats.restore_ticks = tier.restore_ticks;
        stats.upload_puts = tier.object().puts();
        stats.upload_bytes = tier.object().bytes_uploaded();
        stats.upload_cost = tier.object().cost();
        stats.frames_sealed = tier.frames_sealed();
    }
    stats
}

/// The server a given client prefers: the primary for the primary-copy
/// techniques where clients address the master, its "local" server
/// otherwise (the paper's update-everywhere and lazy models).
fn preferred_server(technique: Technique, client: u32, servers: u32) -> usize {
    match technique {
        Technique::Passive | Technique::EagerPrimary => 0,
        _ => {
            let _ = technique.info().location == UpdateLocation::Everywhere;
            (client % servers) as usize
        }
    }
}

/// Partitions the virtual client population into per-server groups for
/// the aggregated open-loop engine, mirroring [`preferred_server`]: the
/// primary-copy techniques put everyone in one group aimed at the
/// primary, the rest split round-robin by `client % servers`. Empty
/// groups are omitted.
fn client_groups(technique: Technique, clients: u32, servers: u32) -> Vec<(ClientGroup, usize)> {
    match technique {
        Technique::Passive | Technique::EagerPrimary => {
            if clients == 0 {
                return Vec::new();
            }
            vec![(
                ClientGroup {
                    first: 0,
                    stride: 1,
                    count: clients,
                },
                0,
            )]
        }
        _ => (0..servers)
            .filter_map(|s| {
                let count = clients / servers + u32::from(s < clients % servers);
                (count > 0).then_some((
                    ClientGroup {
                        first: s,
                        stride: servers,
                        count,
                    },
                    s as usize,
                ))
            })
            .collect(),
    }
}

fn drive<M, S>(
    cfg: &RunConfig,
    build: impl Fn(u32, NodeId, Vec<NodeId>, &RunConfig, bool) -> Box<dyn Actor<M>>,
    collect: impl Fn(&S) -> ServerStats,
) -> RunReport
where
    M: Message + ProtocolMsg,
    S: 'static,
{
    // Elastic membership: joiners occupy the actor slots right after the
    // initial servers (dormant until their scheduled spawn). The empty
    // plan makes `peak == cfg.servers` and every branch below collapses
    // to the static path, byte for byte.
    let peak = cfg.membership.peak_servers(cfg.servers);
    // Pre-size the trace from the workload: each transaction costs a few
    // messages per server (send + deliver records) plus phase marks. The
    // cap bounds the up-front buy for huge sweeps.
    let txns = u64::from(cfg.clients) * u64::from(cfg.workload.txns_per_client);
    let est = txns
        .saturating_mul(8 * u64::from(cfg.servers) + 8)
        .min(1 << 22) as usize;
    let sim = SimConfig::new(cfg.seed)
        .with_network(cfg.network.clone())
        .with_trace(cfg.trace)
        .with_trace_capacity(est)
        .with_coordination_nodes(peak);
    let mut world: World<M> = World::new(sim);
    let servers: Vec<NodeId> = (0..cfg.servers).map(NodeId::new).collect();
    for site in 0..cfg.servers {
        let actor = build(site, NodeId::new(site), servers.clone(), cfg, false);
        world.add_actor(actor);
    }
    for site in cfg.servers..peak {
        // A joiner is seeded with the initial membership plus itself so
        // its join handshake can address rank 0; the Welcome replaces
        // that seed with the live view.
        let me = NodeId::new(site);
        let mut seed_group = servers.clone();
        seed_group.push(me);
        let actor = build(site, me, seed_group, cfg, true);
        world.add_dormant_actor(actor);
    }
    // Clients of an elastic run know the whole peak server set (so
    // reroutes and retries can land anywhere); a client whose preferred
    // server is a planned joiner starts submitting only after the join
    // fires, plus a margin for the state transfer.
    let peak_servers: Vec<NodeId>;
    let client_servers: &[NodeId] = if peak == cfg.servers {
        &servers
    } else {
        peak_servers = (0..peak).map(NodeId::new).collect();
        &peak_servers
    };
    let join_start_after = |preferred: usize| -> SimDuration {
        cfg.membership
            .events()
            .iter()
            .find_map(|e| match e {
                MembershipEvent::Join { at, node } if node.index() == preferred => {
                    Some(SimDuration::from_ticks(at.ticks() + 5_000))
                }
                _ => None,
            })
            .unwrap_or(SimDuration::ZERO)
    };
    let mut clients = Vec::new();
    if let Arrival::OpenAggregated { mean, dist } = cfg.arrival {
        // One actor per server group stands for the whole population:
        // the group's stream runs `count` times faster than one client
        // (exact superposition for Poisson). The workload generator is
        // seeded per group; the arrival stream gets an independent seed
        // so gap draws never correlate with key/op draws.
        for (gi, (group, preferred)) in client_groups(cfg.technique, cfg.clients, cfg.servers)
            .into_iter()
            .enumerate()
        {
            let gen = WorkloadGen::new(&cfg.workload, cfg.seed.wrapping_mul(1_000_003) + gi as u64);
            let group_mean = mean.max(1) as f64 / f64::from(group.count);
            let arrivals = ArrivalStream::new(
                dist,
                group_mean,
                cfg.seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(gi as u64 ^ 0x9E37_79B9_7F4A_7C15),
            );
            let actor: Box<dyn Actor<M>> = Box::new(AggregateClients::<M>::new(
                group,
                client_servers.to_vec(),
                preferred,
                gen,
                arrivals,
                cfg.workload.txns_per_client,
            ));
            clients.push(world.add_actor(actor));
        }
    } else {
        for c in 0..cfg.clients {
            let mut gen =
                WorkloadGen::new(&cfg.workload, cfg.seed.wrapping_mul(1_000_003) + c as u64);
            let txns = gen.take_txns(cfg.workload.txns_per_client as usize);
            // Closed-loop clients of an elastic run spread over the peak
            // server set (delaying those aimed at a joiner until it is
            // up); open-loop clients never retry, so they stay on the
            // initial servers where a submission cannot hit a dormant
            // node.
            let preferred = match cfg.arrival {
                Arrival::Closed => preferred_server(cfg.technique, c, peak),
                _ => preferred_server(cfg.technique, c, cfg.servers),
            };
            let actor: Box<dyn Actor<M>> = match cfg.arrival {
                Arrival::Closed => Box::new(
                    ClientActor::<M>::new(
                        c,
                        client_servers.to_vec(),
                        preferred,
                        txns,
                        cfg.workload.think_time,
                        cfg.retry_after,
                    )
                    .with_start_after(join_start_after(preferred)),
                ),
                Arrival::Open(mean) => Box::new(OpenLoopClient::<M>::new(
                    c,
                    client_servers.to_vec(),
                    preferred,
                    txns,
                    SimDuration::from_ticks(mean),
                )),
                Arrival::OpenAggregated { .. } => unreachable!("handled above"),
            };
            clients.push(world.add_actor(actor));
        }
    }
    for ev in cfg.faults.events() {
        match ev {
            FaultEvent::Crash { at, node } => world.schedule_crash(*at, *node),
            FaultEvent::Recover { at, node } => world.schedule_recover(*at, *node),
            FaultEvent::Net { at, fault } => world.schedule_net_fault(*at, fault.clone()),
            FaultEvent::VolumeLoss { at, node } => world.schedule_volume_loss(*at, *node),
        }
    }
    for ev in cfg.membership.events() {
        match ev {
            MembershipEvent::Join { at, node } => world.schedule_spawn(*at, *node),
            MembershipEvent::Drain { at, node } => world.schedule_drain(*at, *node),
        }
    }
    world.start();
    let chunk = SimDuration::from_ticks(5_000);
    let client_done = |world: &World<M>, c: NodeId| match cfg.arrival {
        Arrival::Closed => world.actor_ref::<ClientActor<M>>(c).is_done(),
        Arrival::Open(_) => world.actor_ref::<OpenLoopClient<M>>(c).is_done(),
        Arrival::OpenAggregated { .. } => world.actor_ref::<AggregateClients<M>>(c).is_done(),
    };
    loop {
        let next = world.now() + chunk;
        world.run_until(next);
        let all_done = clients.iter().all(|&c| client_done(&world, c));
        if all_done || world.now() >= cfg.max_time {
            break;
        }
    }
    // Message accounting stops here: the drain below only exists to let
    // lazy propagation settle, and its background traffic (heartbeats)
    // must not be charged to the workload.
    let metrics_at_completion = world.metrics();
    // Unanswered operations have their unavailability window measured to
    // this instant (the deadline or the last client's completion).
    let completed_at = world.now();
    // Grace period: let lazy propagation, pending decisions and flush
    // traffic drain so convergence is measured after quiescence.
    let grace = cfg.propagation_delay + SimDuration::from_ticks(50_000);
    world.run_until(world.now() + grace);

    // Collect.
    let mut latencies = LatencyStats::new();
    let mut records = Vec::new();
    let mut ops_completed = 0u64;
    let mut ops_committed = 0u64;
    let mut ops_aborted = 0u64;
    let mut ops_unanswered = 0u64;
    let mut client_retries = 0u64;
    let mut latency_hist: Option<LatencyHistogram> = None;
    let mut peak_outstanding = 0u64;
    let mut agg_worst_gaps: Vec<SimDuration> = Vec::new();
    let mut agg_last_response: Option<SimTime> = None;
    if matches!(cfg.arrival, Arrival::OpenAggregated { .. }) {
        // Constant-memory collection: merge each group's streaming
        // histogram and counters; no per-operation records exist.
        let mut hist = LatencyHistogram::new();
        for &c in &clients {
            let a = world.actor_ref::<AggregateClients<M>>(c);
            hist.merge(&a.hist);
            ops_committed += a.committed;
            ops_aborted += a.aborted;
            ops_completed += a.committed + a.aborted;
            ops_unanswered += a.outstanding.len() as u64;
            peak_outstanding = peak_outstanding.max(a.peak_outstanding);
            // The group's worst unavailability window: answered ops use
            // their response gap, in-flight ops count to the end of the
            // run, same convention as the per-client records below.
            let outstanding = a.outstanding.values(); // sorted-below: commutative max
            let worst = outstanding
                .map(|&(invoked, _)| completed_at - invoked)
                .fold(a.worst_gap, std::cmp::max);
            agg_worst_gaps.push(worst);
            if let Some(t) = a.last_response {
                agg_last_response = Some(agg_last_response.map_or(t, |prev| prev.max(t)));
            }
        }
        latency_hist = Some(hist);
    } else {
        for (cno, &c) in clients.iter().enumerate() {
            let recs: &[crate::client::OpRecord] = match cfg.arrival {
                Arrival::Closed => &world.actor_ref::<ClientActor<M>>(c).records,
                Arrival::Open(_) => &world.actor_ref::<OpenLoopClient<M>>(c).records,
                Arrival::OpenAggregated { .. } => unreachable!("handled above"),
            };
            for rec in recs {
                client_retries += rec.retries as u64;
                match (&rec.responded, rec.committed()) {
                    (Some(_), true) => {
                        ops_completed += 1;
                        ops_committed += 1;
                        latencies.record(rec.latency().expect("responded"));
                    }
                    (Some(_), false) => {
                        ops_completed += 1;
                        ops_aborted += 1;
                        latencies.record(rec.latency().expect("responded"));
                    }
                    (None, _) => ops_unanswered += 1,
                }
                records.push((cno as u32, rec.clone()));
            }
        }
    }
    let mut history = repl_db::ReplicatedHistory::new();
    let mut fingerprints = Vec::new();
    let mut server_aborts = 0u64;
    let mut reconciliations = 0u64;
    let mut wounds = 0u64;
    let mut recoveries = Vec::new();
    let mut durability = crate::report::DurabilityReport {
        enabled: cfg.durability.enabled,
        ..Default::default()
    };
    let mut claimed_lost: Vec<crate::op::OpId> = Vec::new();
    // Collect from every node that was ever a member (joiners included);
    // convergence fingerprints come from the *final* membership only — a
    // drained node's store is legitimately frozen at its departure.
    let drained = cfg.membership.drained_nodes();
    let ever_members: Vec<NodeId>;
    let all_server_nodes: &[NodeId] = if peak == cfg.servers {
        &servers
    } else {
        ever_members = (0..peak).map(NodeId::new).collect();
        &ever_members
    };
    for (site, &s) in all_server_nodes.iter().enumerate() {
        let stats = collect(world.actor_ref::<S>(s));
        history.merge(&stats.history);
        if !drained.contains(&s) {
            fingerprints.push(stats.fingerprint);
        }
        server_aborts += stats.aborted;
        reconciliations += stats.reconciliations;
        wounds += stats.wounds;
        durability.volume_wipes += stats.volume_wipes;
        durability.lost_commits += stats.lost.len() as u64;
        claimed_lost.extend(stats.lost.iter().map(|&t| op_of_txn(t)));
        durability.restores += stats.restores;
        durability.restore_bytes += stats.restore_bytes;
        durability.restore_ticks += stats.restore_ticks;
        durability.upload_puts += stats.upload_puts;
        durability.upload_bytes += stats.upload_bytes;
        durability.upload_cost += stats.upload_cost;
        durability.frames_sealed += stats.frames_sealed;
        if stats.recovery.recoveries > 0 {
            recoveries.push(crate::report::NodeRecovery {
                site: site as u32,
                recoveries: stats.recovery.recoveries,
                rejoin_at: stats.recovery.rejoin_at,
                catch_up_ticks: stats.recovery.catch_up_ticks(),
                transfer_bytes: stats.recovery.transfer_bytes,
                log_suffix_transfers: stats.recovery.log_suffix_transfers,
                snapshot_transfers: stats.recovery.snapshot_transfers,
            });
        }
    }
    claimed_lost.sort_unstable();
    claimed_lost.dedup();
    durability.claimed_lost = claimed_lost;
    let phase_trace = PhaseTrace::from_trace(world.trace());
    let trace_hash = world.trace().hash();
    // Availability: per-client worst request→response gap (unanswered ops
    // count to the end of the run), and failover latency anchored at the
    // plan's first crash. Fault counts come from the world's final
    // metrics so faults applied during the drain are still visible.
    // On aggregated runs the vector is per *group* (one aggregate actor
    // per server group), not per client.
    let per_client_worst_gap = if matches!(cfg.arrival, Arrival::OpenAggregated { .. }) {
        agg_worst_gaps
    } else {
        let mut worst_gaps = vec![SimDuration::ZERO; cfg.clients as usize];
        for (cno, rec) in &records {
            let gap = match rec.responded {
                Some(at) => at - rec.invoked,
                None => completed_at - rec.invoked,
            };
            let worst = &mut worst_gaps[*cno as usize];
            if gap > *worst {
                *worst = gap;
            }
        }
        worst_gaps
    };
    let failover_latency = cfg.faults.first_crash_time().and_then(|crash| {
        records
            .iter()
            .filter_map(|(_, r)| match (r.responded, r.committed()) {
                (Some(at), true) if at >= crash => Some(at),
                _ => None,
            })
            .min()
            .map(|at| at - crash)
    });
    let final_metrics = world.metrics();
    let availability = crate::report::Availability {
        per_client_worst_gap,
        failover_latency,
        faults_injected: final_metrics.faults_injected(),
        repairs_applied: final_metrics.repairs_applied(),
        recoveries,
    };
    // Duration = completion of the workload (last client response), not
    // the grace period: throughput must not be diluted by idle drain time.
    let last_response = records
        .iter()
        .filter_map(|(_, r)| r.responded)
        .max()
        .or(agg_last_response)
        .unwrap_or_else(|| world.now());
    RunReport {
        technique: cfg.technique,
        servers: cfg.servers,
        clients: cfg.clients,
        duration: last_response,
        latencies,
        latency_hist,
        peak_outstanding,
        ops_completed,
        ops_committed,
        ops_aborted,
        ops_unanswered,
        client_retries,
        messages: metrics_at_completion,
        fingerprints,
        history,
        phase_trace,
        records,
        reconciliations,
        wounds,
        server_aborts,
        availability,
        durability,
        sharding: ShardingReport::default(),
        trace_hash,
    }
}

/// The sharded driver: `shards` replica groups of `cfg.servers` nodes
/// each share one simulated world. Group `g` owns shard `g` and spans
/// nodes `g*n .. (g+1)*n`; every server stores the full keyspace but is
/// only ever asked about its own shard's keys, so the per-group
/// fingerprints converge per shard ([`RunReport::converged`] compares
/// group-wise when `sharding.shards > 1`).
///
/// Single-shard transactions go to the owning group and run the stock
/// protocol there; with `cross_shard_ratio > 0` the three cross-capable
/// techniques coordinate across the touched groups (genuine atomic
/// multicast or union-cohort 2PC — see `route`). Histories merge across
/// *all* groups before the 1SR oracle: cross-shard transactions carry
/// one global transaction id, so the merged history splices their
/// per-shard pieces back into single serialization points.
fn drive_sharded<M, S>(
    cfg: &RunConfig,
    build: impl Fn(u32, NodeId, Vec<NodeId>, &RunConfig, bool) -> Box<dyn Actor<M>>,
    cross: Option<fn(&mut S, ShardCtx)>,
    collect: impl Fn(&S) -> ServerStats,
) -> RunReport
where
    M: Message + ProtocolMsg,
    S: 'static,
{
    let map = cfg.workload.shard_map();
    let shards = map.shards();
    let n = cfg.servers;
    let total = shards * n;
    let txns = u64::from(cfg.clients) * u64::from(cfg.workload.txns_per_client);
    let est = txns.saturating_mul(8 * u64::from(total) + 8).min(1 << 22) as usize;
    let sim = SimConfig::new(cfg.seed)
        .with_network(cfg.network.clone())
        .with_trace(cfg.trace)
        .with_trace_capacity(est)
        .with_coordination_nodes(total);
    let mut world: World<M> = World::new(sim);
    let cross_enabled = cfg.workload.cross_shard_ratio > 0.0;
    for gid in 0..shards {
        let group: Vec<NodeId> = (gid * n..(gid + 1) * n).map(NodeId::new).collect();
        for &me in &group {
            let site = me.index() as u32;
            let node = world.add_actor(build(site, me, group.clone(), cfg, false));
            if cross_enabled {
                if let Some(enable) = cross {
                    enable(world.actor_mut::<S>(node), ShardCtx::new(map, n, gid));
                }
            }
        }
    }
    // Closed-loop sharded clients: routing is by content (the generator
    // already draws sharded transactions when `spec.shards > 1`), so a
    // client is not pinned to a group — only to a *rank* within whichever
    // group owns the transaction at hand.
    let mode = match cfg.technique {
        // Genuine multicast delivers to the touched groups only; each
        // answers its own partial and the client merges them.
        Technique::Active | Technique::EagerUpdateEverywhereAbcast => ReplyMode::PerShard,
        // Everyone else answers in full from the contacted group (the
        // locking delegate gathers foreign reads itself).
        _ => ReplyMode::Full,
    };
    let pin = matches!(cfg.technique, Technique::Passive | Technique::EagerPrimary).then_some(0);
    // Cross-shard delegation must see each op at exactly one delegate: a
    // retry rotated to a sibling would start a second delegation of the
    // same transaction id, which re-executes the writes after the first
    // delegate's 2PC already released its locks (a serialization cycle).
    // The sticky contact is safe because cross-shard runs reject faults.
    let sticky = cross_enabled && cfg.technique == Technique::EagerUpdateEverywhereLocking;
    let mut clients = Vec::new();
    for c in 0..cfg.clients {
        let mut gen = WorkloadGen::new(&cfg.workload, cfg.seed.wrapping_mul(1_000_003) + c as u64);
        let txns = gen.take_txns(cfg.workload.txns_per_client as usize);
        let mut client = ShardedClient::<M>::new(
            c,
            map,
            n,
            txns,
            cfg.workload.think_time,
            cfg.retry_after,
            mode,
        );
        if let Some(rank) = pin {
            client = client.with_pinned_rank(rank);
        }
        if sticky {
            client = client.with_sticky_retries();
        }
        clients.push(world.add_actor(Box::new(client)));
    }
    for ev in cfg.faults.events() {
        match ev {
            FaultEvent::Crash { at, node } => world.schedule_crash(*at, *node),
            FaultEvent::Recover { at, node } => world.schedule_recover(*at, *node),
            FaultEvent::Net { at, fault } => world.schedule_net_fault(*at, fault.clone()),
            FaultEvent::VolumeLoss { at, node } => world.schedule_volume_loss(*at, *node),
        }
    }
    world.start();
    let chunk = SimDuration::from_ticks(5_000);
    loop {
        let next = world.now() + chunk;
        world.run_until(next);
        let all_done = clients
            .iter()
            .all(|&c| world.actor_ref::<ShardedClient<M>>(c).is_done());
        if all_done || world.now() >= cfg.max_time {
            break;
        }
    }
    let metrics_at_completion = world.metrics();
    let completed_at = world.now();
    let grace = cfg.propagation_delay + SimDuration::from_ticks(50_000);
    world.run_until(world.now() + grace);

    // Collect, classifying every record by how many shards it touches.
    let mut latencies = LatencyStats::new();
    let mut records = Vec::new();
    let mut ops_completed = 0u64;
    let mut ops_committed = 0u64;
    let mut ops_aborted = 0u64;
    let mut ops_unanswered = 0u64;
    let mut client_retries = 0u64;
    let mut sharding = ShardingReport {
        shards,
        per_shard_ops: vec![0; shards as usize],
        ..Default::default()
    };
    for (cno, &c) in clients.iter().enumerate() {
        for rec in &world.actor_ref::<ShardedClient<M>>(c).records {
            client_retries += rec.retries as u64;
            let touched = map.shards_of(&rec.txn);
            match (&rec.responded, rec.committed()) {
                (Some(_), committed) => {
                    ops_completed += 1;
                    if committed {
                        ops_committed += 1;
                    } else {
                        ops_aborted += 1;
                    }
                    let lat = rec.latency().expect("responded");
                    latencies.record(lat);
                    if touched.len() > 1 {
                        sharding.cross_shard_ops += 1;
                        sharding.cross_latency.record(lat);
                    } else {
                        sharding.single_shard_ops += 1;
                        sharding.single_latency.record(lat);
                    }
                    // Home-shard accounting (first key's owner).
                    sharding.per_shard_ops[touched[0] as usize] += 1;
                }
                (None, _) => ops_unanswered += 1,
            }
            records.push((cno as u32, rec.clone()));
        }
    }
    let mut history = repl_db::ReplicatedHistory::new();
    let mut fingerprints = Vec::new();
    let mut server_aborts = 0u64;
    let mut reconciliations = 0u64;
    let mut wounds = 0u64;
    let mut recoveries = Vec::new();
    let mut durability = crate::report::DurabilityReport {
        enabled: cfg.durability.enabled,
        ..Default::default()
    };
    let mut claimed_lost: Vec<crate::op::OpId> = Vec::new();
    for site in 0..total {
        let stats = collect(world.actor_ref::<S>(NodeId::new(site)));
        history.merge(&stats.history);
        fingerprints.push(stats.fingerprint);
        server_aborts += stats.aborted;
        reconciliations += stats.reconciliations;
        wounds += stats.wounds;
        durability.volume_wipes += stats.volume_wipes;
        durability.lost_commits += stats.lost.len() as u64;
        claimed_lost.extend(stats.lost.iter().map(|&t| op_of_txn(t)));
        durability.restores += stats.restores;
        durability.restore_bytes += stats.restore_bytes;
        durability.restore_ticks += stats.restore_ticks;
        durability.upload_puts += stats.upload_puts;
        durability.upload_bytes += stats.upload_bytes;
        durability.upload_cost += stats.upload_cost;
        durability.frames_sealed += stats.frames_sealed;
        if stats.recovery.recoveries > 0 {
            recoveries.push(crate::report::NodeRecovery {
                site,
                recoveries: stats.recovery.recoveries,
                rejoin_at: stats.recovery.rejoin_at,
                catch_up_ticks: stats.recovery.catch_up_ticks(),
                transfer_bytes: stats.recovery.transfer_bytes,
                log_suffix_transfers: stats.recovery.log_suffix_transfers,
                snapshot_transfers: stats.recovery.snapshot_transfers,
            });
        }
    }
    claimed_lost.sort_unstable();
    claimed_lost.dedup();
    durability.claimed_lost = claimed_lost;
    let phase_trace = PhaseTrace::from_trace(world.trace());
    let trace_hash = world.trace().hash();
    let per_client_worst_gap = {
        let mut worst_gaps = vec![SimDuration::ZERO; cfg.clients as usize];
        for (cno, rec) in &records {
            let gap = match rec.responded {
                Some(at) => at - rec.invoked,
                None => completed_at - rec.invoked,
            };
            let worst = &mut worst_gaps[*cno as usize];
            if gap > *worst {
                *worst = gap;
            }
        }
        worst_gaps
    };
    let failover_latency = cfg.faults.first_crash_time().and_then(|crash| {
        records
            .iter()
            .filter_map(|(_, r)| match (r.responded, r.committed()) {
                (Some(at), true) if at >= crash => Some(at),
                _ => None,
            })
            .min()
            .map(|at| at - crash)
    });
    let final_metrics = world.metrics();
    let availability = crate::report::Availability {
        per_client_worst_gap,
        failover_latency,
        faults_injected: final_metrics.faults_injected(),
        repairs_applied: final_metrics.repairs_applied(),
        recoveries,
    };
    let last_response = records
        .iter()
        .filter_map(|(_, r)| r.responded)
        .max()
        .unwrap_or_else(|| world.now());
    RunReport {
        technique: cfg.technique,
        servers: total,
        clients: cfg.clients,
        duration: last_response,
        latencies,
        latency_hist: None,
        peak_outstanding: 0,
        ops_completed,
        ops_committed,
        ops_aborted,
        ops_unanswered,
        client_retries,
        messages: metrics_at_completion,
        fingerprints,
        history,
        phase_trace,
        records,
        reconciliations,
        wounds,
        server_aborts,
        availability,
        durability,
        sharding,
        trace_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(technique: Technique) -> RunConfig {
        RunConfig::new(technique)
            .with_clients(2)
            .with_workload(
                WorkloadSpec::default()
                    .with_items(32)
                    .with_txns_per_client(5)
                    .with_read_ratio(0.5),
            )
            .with_seed(7)
    }

    #[test]
    fn every_technique_completes_a_small_run() {
        for technique in Technique::ALL {
            let report = run(&small(technique));
            assert_eq!(
                report.ops_unanswered, 0,
                "{technique}: unanswered ops ({report:?})"
            );
            assert!(report.ops_completed >= 10, "{technique}: too few ops");
            assert!(
                report.converged(),
                "{technique}: replicas diverged: {:?}",
                report.fingerprints
            );
        }
    }

    #[test]
    fn every_technique_reproduces_its_claimed_skeleton() {
        for technique in Technique::ALL {
            // Use update-only single-op workloads so the canonical
            // skeleton is the figure's update path; semi-active needs
            // non-determinism for its AC phase to exist.
            let mut cfg = small(technique).with_clients(1).with_workload(
                WorkloadSpec::default()
                    .with_items(16)
                    .with_txns_per_client(4)
                    .with_read_ratio(0.0),
            );
            if technique == Technique::SemiActive {
                cfg = cfg.with_exec(ExecutionMode::NonDeterministic);
            }
            if technique.info().propagation == crate::Propagation::Lazy {
                cfg = cfg.with_propagation_delay(SimDuration::from_ticks(2_000));
            }
            let report = run(&cfg);
            let sk = report.canonical_skeleton().expect("ops completed");
            assert_eq!(
                sk.to_string(),
                technique.claimed_skeleton(),
                "{technique}: measured skeleton differs"
            );
        }
    }

    #[test]
    fn strong_techniques_are_one_copy_serializable() {
        for technique in Technique::ALL {
            if technique.info().guarantee == crate::Guarantee::Weak {
                continue;
            }
            let report = run(&small(technique));
            report
                .check_one_copy_serializable()
                .unwrap_or_else(|e| panic!("{technique}: {e}"));
        }
    }

    #[test]
    fn report_accessors_are_consistent() {
        let report = run(&small(Technique::Active));
        assert!(report.throughput() > 0.0);
        assert!(report.messages_per_op() > 0.0);
        assert_eq!(
            report.ops_completed,
            report.ops_committed + report.ops_aborted
        );
        assert!(report.summary().contains("Active"));
        assert!(report.abort_rate() <= 1.0);
    }

    #[test]
    fn fault_free_run_has_trivial_availability() {
        let report = run(&small(Technique::Active));
        assert_eq!(report.faults_injected(), 0);
        assert_eq!(report.availability.failover_latency, None);
        assert_eq!(report.availability.per_client_worst_gap.len(), 2);
        // The worst gap is just the worst response time.
        let mut l = report.latencies.clone();
        assert_eq!(report.availability.worst_gap(), l.percentile(1.0));
    }

    #[test]
    fn ill_formed_fault_plan_is_rejected() {
        // Recover of a node that never crashed.
        let cfg = small(Technique::Active)
            .with_faults(FaultPlan::new().recover_at(SimTime::from_ticks(1_000), NodeId::new(1)));
        let err = try_run(&cfg).expect_err("plan must be rejected");
        assert!(matches!(err, RunError::InvalidFaultPlan(_)), "{err:?}");
        assert!(err.to_string().starts_with("invalid fault plan"));
    }

    #[test]
    fn fault_plan_outside_server_set_is_rejected() {
        // Node 7 does not exist in a 3-server world.
        let cfg = small(Technique::Active)
            .with_faults(FaultPlan::new().crash_at(SimTime::from_ticks(1_000), NodeId::new(7)));
        let err = try_run(&cfg).expect_err("plan must be rejected");
        assert!(matches!(
            err,
            RunError::InvalidFaultPlan(repl_workload::FaultPlanError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn run_still_panics_on_invalid_config_for_compat() {
        let cfg = small(Technique::Active)
            .with_faults(FaultPlan::new().crash_at(SimTime::from_ticks(1_000), NodeId::new(7)));
        let _ = run(&cfg);
    }

    #[test]
    fn zero_servers_is_a_typed_error() {
        let mut cfg = small(Technique::Active);
        cfg.servers = 0; // bypasses with_servers' assert, as struct literals can
        let err = try_run(&cfg).expect_err("zero servers must be rejected");
        assert_eq!(err, RunError::NoServers);
    }

    #[test]
    fn try_run_succeeds_and_matches_run() {
        let cfg = small(Technique::Active);
        let a = try_run(&cfg).expect("valid config");
        let b = run(&cfg);
        assert_eq!(a.digest(), b.digest(), "same seed, same digest");
        assert_ne!(a.trace_hash, 0);
    }

    #[test]
    fn too_many_clients_is_a_typed_error() {
        let cfg = small(Technique::Active).with_clients(MAX_CLIENTS + 1);
        let err = try_run(&cfg).expect_err("population above 2^20 must be rejected");
        assert_eq!(
            err,
            RunError::TooManyClients {
                clients: MAX_CLIENTS + 1,
                max: MAX_CLIENTS,
            }
        );
        assert!(err.to_string().contains("clients"));
        // The boundary itself is fine (ids 0..2^20 all pack).
        assert!(small(Technique::Active).with_clients(MAX_CLIENTS).clients <= MAX_CLIENTS);
    }

    #[test]
    fn client_groups_partition_the_population() {
        for technique in [
            Technique::Active,
            Technique::Passive,
            Technique::EagerPrimary,
        ] {
            for (clients, servers) in [(0u32, 3u32), (1, 3), (7, 3), (9, 3), (5, 8)] {
                let groups = client_groups(technique, clients, servers);
                let mut seen = std::collections::HashSet::new();
                for (g, preferred) in &groups {
                    assert!(*preferred < servers as usize);
                    for i in 0..g.count {
                        let id = g.first + i * g.stride;
                        assert!(id < clients, "virtual id {id} out of range");
                        assert!(seen.insert(id), "virtual id {id} appears twice");
                        assert_eq!(
                            *preferred,
                            preferred_server(technique, id, servers),
                            "group preference must match the per-client rule"
                        );
                    }
                }
                assert_eq!(
                    seen.len() as u32,
                    clients,
                    "{technique} {clients}c/{servers}s: population not covered"
                );
            }
        }
    }

    #[test]
    fn aggregated_open_loop_completes_for_every_technique() {
        for technique in Technique::ALL {
            let cfg = small(technique)
                .with_clients(6)
                .with_arrival(Arrival::OpenAggregated {
                    mean: 2_000,
                    dist: ArrivalDist::Poisson,
                })
                .with_trace(false);
            let report = run(&cfg);
            assert_eq!(
                report.ops_completed + report.ops_unanswered,
                6 * 5,
                "{technique}: budget not drained"
            );
            assert_eq!(report.ops_unanswered, 0, "{technique}: unanswered ops");
            let hist = report
                .latency_hist
                .as_ref()
                .expect("aggregated runs stream a histogram");
            assert_eq!(hist.count(), report.ops_completed, "{technique}");
            assert!(report.peak_outstanding >= 1, "{technique}");
            assert!(
                report.records.is_empty(),
                "{technique}: aggregated runs must not keep per-op records"
            );
            assert!(report.latencies.is_empty(), "{technique}");
            assert!(report.converged(), "{technique}: {:?}", report.fingerprints);
            assert!(report.summary().contains("ops=30"), "{technique}");
        }
    }

    #[test]
    fn aggregated_runs_are_deterministic() {
        let cfg = small(Technique::Certification)
            .with_clients(5)
            .with_arrival(Arrival::OpenAggregated {
                mean: 1_000,
                dist: ArrivalDist::Uniform,
            })
            .with_trace(false);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.digest(), b.digest(), "same seed, same aggregated digest");
        let c = run(&cfg.clone().with_seed(99));
        assert_ne!(a.digest(), c.digest(), "different seed, different digest");
    }

    #[test]
    fn run_closure_is_send() {
        // The sweep engine moves `try_run` closures across threads; this
        // is a compile-time check that they stay Send.
        fn assert_send<T: Send>(_: T) {}
        let cfg = small(Technique::Active);
        assert_send(move || try_run(&cfg));
        fn assert_send_ty<T: Send>() {}
        assert_send_ty::<RunConfig>();
        assert_send_ty::<RunReport>();
        assert_send_ty::<RunError>();
    }
}
