//! The four benchmark workloads: which cells (technique × sub-seed) one
//! measured pass runs, and the inputs the seed generates for them.
//!
//! Every workload uses the LAN profile (100 ± 20 ticks one-way; one tick
//! reads as one microsecond). A workload's `--seed` expands into
//! `subseeds` consecutive run seeds so one pass averages over several
//! independent inputs; the same seed always yields the same cells.

use repl_core::{Arrival, RunConfig, Technique};
use repl_sim::{NetworkConfig, NodeId, SimDuration, SimTime};
use repl_workload::{ArrivalDist, FaultPlan, ShardMap, TxnTemplate, WorkloadGen, WorkloadSpec};

use crate::spans::Tracer;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Active replication over sequencer ABCAST on the aggregated
    /// open-loop engine: 10⁵ virtual clients, Poisson arrivals at a fixed
    /// 100k ops/s offered, lean servers.
    OpenActive,
    /// Three transactional techniques under closed-loop clients on a hot
    /// Zipf keyspace, with history recorded and every oracle checked.
    ClosedHot,
    /// Four replica groups with 20% cross-shard transactions: genuine
    /// multicast (EUA) and 2PC (EUL).
    ShardedXshard,
    /// All ten techniques with a mid-run crash and recovery of replica 2.
    OutageAll,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::OpenActive,
        Workload::ClosedHot,
        Workload::ShardedXshard,
        Workload::OutageAll,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenActive => "open-active",
            Workload::ClosedHot => "closed-hot",
            Workload::ShardedXshard => "sharded-xshard",
            Workload::OutageAll => "outage-all",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The techniques one pass runs, in order.
    pub fn techniques(self) -> Vec<Technique> {
        match self {
            Workload::OpenActive => vec![Technique::Active],
            Workload::ClosedHot => vec![
                Technique::EagerPrimary,
                Technique::EagerUpdateEverywhereLocking,
                Technique::Certification,
            ],
            Workload::ShardedXshard => vec![
                Technique::EagerUpdateEverywhereAbcast,
                Technique::EagerUpdateEverywhereLocking,
            ],
            Workload::OutageAll => Technique::ALL.to_vec(),
        }
    }
}

/// How much work one pass of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Run seeds per pass (`--seed` expands into this many).
    pub subseeds: u64,
    /// Transactions each client (or, open loop, each virtual client)
    /// issues.
    pub txns_per_client: u32,
    /// Virtual clients of `open-active` (the offered rate stays fixed).
    pub open_clients: u32,
}

/// The measured size of each workload.
pub fn full_size(w: Workload) -> Size {
    let (subseeds, txns_per_client) = match w {
        // Two short cells rather than one long one: the fastest run of
        // a half-second cell is less often hit by a noisy neighbour.
        Workload::OpenActive => (2, 1),
        Workload::ClosedHot => (1, 500),
        Workload::ShardedXshard => (4, 300),
        Workload::OutageAll => (3, 300),
    };
    Size {
        subseeds,
        txns_per_client,
        open_clients: 100_000,
    }
}

/// A small size for self-tests: the same shapes, a fraction of the work.
pub fn reduced_size(w: Workload) -> Size {
    let full = full_size(w);
    Size {
        subseeds: 1,
        txns_per_client: if w == Workload::OpenActive {
            2
        } else {
            full.txns_per_client / 10
        },
        open_clients: 1_000,
    }
}

/// Offered load of `open-active`, operations per second (10⁶ ticks).
const OPEN_RATE_PER_S: u64 = 100_000;
/// Replica groups of `sharded-xshard`.
const SHARDS: u32 = 4;
/// When replica 2 crashes in `outage-all`, in ticks.
const OUTAGE_AT: u64 = 50_000;
/// How long replica 2 stays down in `outage-all`, in ticks.
const OUTAGE_DOWN: u64 = 50_000;
/// The replica `outage-all` takes down.
const OUTAGE_VICTIM: u32 = 2;

/// The run seed of sub-seed `i` of benchmark seed `seed`.
fn run_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(16).wrapping_add(i)
}

/// The workload spec of `w` at `size`.
fn spec(w: Workload, size: Size) -> WorkloadSpec {
    let base = WorkloadSpec::default().with_txns_per_client(size.txns_per_client);
    match w {
        Workload::OpenActive => base.with_items(4_096).with_read_ratio(0.5),
        Workload::ClosedHot => base
            .with_items(1_024)
            .with_read_ratio(0.5)
            .with_skew(0.8)
            .with_ops_per_txn(4),
        Workload::ShardedXshard => base
            .with_items(4_096)
            .with_read_ratio(0.0)
            .with_ops_per_txn(2)
            .with_think_time(SimDuration::ZERO)
            .with_shards(SHARDS)
            .with_cross_shard_ratio(0.2),
        Workload::OutageAll => base
            .with_items(256)
            .with_read_ratio(0.3)
            .with_ops_per_txn(1),
    }
}

/// The run configuration of one cell.
fn config(w: Workload, technique: Technique, run_seed: u64, size: Size) -> RunConfig {
    let cfg = RunConfig::new(technique)
        .with_servers(3)
        .with_seed(run_seed)
        .with_network(NetworkConfig::lan())
        .with_trace(false)
        .with_workload(spec(w, size));
    match w {
        Workload::OpenActive => cfg
            .with_clients(size.open_clients)
            .with_arrival(Arrival::OpenAggregated {
                // Per-client mean gap: N clients at R ops/s in total
                // means each fires every N·10⁶/R ticks.
                mean: u64::from(size.open_clients) * 1_000_000 / OPEN_RATE_PER_S,
                dist: ArrivalDist::Poisson,
            })
            .with_max_time(SimTime::from_ticks(60_000_000)),
        Workload::ClosedHot => cfg.with_clients(8),
        Workload::ShardedXshard => cfg.with_clients(16),
        Workload::OutageAll => cfg.with_clients(8).with_faults(FaultPlan::new().outage_at(
            SimTime::from_ticks(OUTAGE_AT),
            NodeId::new(OUTAGE_VICTIM),
            SimDuration::from_ticks(OUTAGE_DOWN),
        )),
    }
}

/// One cell of a pass: a technique at one run seed.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// The technique.
    pub technique: Technique,
    /// The run seed.
    pub run_seed: u64,
    /// The full run configuration.
    pub cfg: RunConfig,
}

/// Everything set-up produces: the cells and the transactions the seed
/// generates for them.
#[derive(Debug)]
pub(crate) struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The cells of one pass, in run order.
    pub cells: Vec<Cell>,
    /// Per sub-seed, the transaction streams the runner's generators
    /// produce (one per client, or per client group on the aggregated
    /// open-loop engine), in stream order.
    pub streams: Vec<Vec<Vec<TxnTemplate>>>,
}

impl Inputs {
    /// Operations offered per pass: every stream's transactions, once
    /// per technique.
    pub(crate) fn offered_ops(&self) -> u64 {
        let per_seed: u64 = self
            .streams
            .iter()
            .map(|s| s.iter().map(|t| t.len() as u64).sum::<u64>())
            .sum();
        per_seed * self.workload.techniques().len() as u64
    }
}

/// Checks a cell's configuration with the same public validators the
/// runner applies, so a bad cell fails set-up instead of a timed run.
fn validate(cfg: &RunConfig) -> Result<(), String> {
    let w = &cfg.workload;
    let nodes = cfg.servers * w.shards;
    if w.shards > 1 {
        ShardMap::try_new(w.items, w.shards).map_err(|e| e.to_string())?;
    }
    cfg.faults
        .validate(nodes, cfg.max_time)
        .map_err(|e| e.to_string())?;
    if cfg.clients > repl_core::MAX_CLIENTS {
        return Err(format!(
            "{} clients exceed {}",
            cfg.clients,
            repl_core::MAX_CLIENTS
        ));
    }
    Ok(())
}

/// The client-group sizes of the aggregated open-loop engine: the
/// population split evenly over the servers (active replication).
fn open_groups(clients: u32, servers: u32) -> Vec<u32> {
    (0..servers)
        .map(|s| clients / servers + u32::from(s < clients % servers))
        .filter(|&c| c > 0)
        .collect()
}

/// Generates the transaction streams of one run seed, exactly as the
/// runner seeds them: stream `i` draws from
/// `WorkloadGen::new(spec, seed * 1_000_003 + i)`.
fn generate(cfg: &RunConfig) -> Vec<Vec<TxnTemplate>> {
    let per_stream: Vec<u64> = match cfg.arrival {
        Arrival::OpenAggregated { .. } => open_groups(cfg.clients, cfg.servers)
            .into_iter()
            .map(|count| u64::from(count) * u64::from(cfg.workload.txns_per_client))
            .collect(),
        _ => vec![u64::from(cfg.workload.txns_per_client); cfg.clients as usize],
    };
    per_stream
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let mut gen =
                WorkloadGen::new(&cfg.workload, cfg.seed.wrapping_mul(1_000_003) + i as u64);
            gen.take_txns(n as usize)
        })
        .collect()
}

/// Set-up: builds and validates every cell of `w` at `seed`, and
/// generates its inputs from the seed (inside a `workload.gen` span).
///
/// # Errors
///
/// The first configuration a validator rejects, with its reason.
pub(crate) fn setup(
    w: Workload,
    seed: u64,
    size: Size,
    tracer: &mut Tracer,
) -> Result<Inputs, String> {
    let mut cells = Vec::new();
    let mut streams = Vec::new();
    for i in 0..size.subseeds {
        let rs = run_seed(seed, i);
        for technique in w.techniques() {
            let cfg = config(w, technique, rs, size);
            validate(&cfg)?;
            cells.push(Cell {
                technique,
                run_seed: rs,
                cfg,
            });
        }
        // Every technique of a sub-seed sees the same generated inputs.
        let cfg = &cells.last().expect("a workload has a technique").cfg;
        streams.push(tracer.time("workload.gen", 0, || generate(cfg)));
    }
    Ok(Inputs {
        workload: w,
        cells,
        streams,
    })
}

/// A short, stable slug for a technique, used in metric names.
pub fn slug(t: Technique) -> &'static str {
    match t {
        Technique::Active => "active",
        Technique::Passive => "passive",
        Technique::SemiActive => "semi_active",
        Technique::SemiPassive => "semi_passive",
        Technique::EagerPrimary => "eager_primary",
        Technique::EagerUpdateEverywhereLocking => "eul",
        Technique::EagerUpdateEverywhereAbcast => "eua",
        Technique::LazyPrimary => "lazy_primary",
        Technique::LazyUpdateEverywhere => "lazy_ue",
        Technique::Certification => "certification",
    }
}
