//! Layer replay drivers: each layer's public API driven on its own, with
//! the workload's shape or its own generated transactions, so a layer's
//! cost can be read without the rest of the stack.

use std::time::Instant;

use repl_db::{
    AccessKind, Acquire, DeadlockPolicy, Key, LockManager, LockMode, ReplicatedHistory, TxnId,
};
use repl_gcs::testkit::ComponentActor;
use repl_gcs::{SeqAbMsg, SequencerAbcast};
use repl_sim::{
    impl_as_any, Actor, Context, Message, NetworkConfig, NodeId, SimConfig, SimDuration, SimTime,
    World,
};
use repl_workload::TxnTemplate;

/// A small fixed-size message for the bare kernel.
#[derive(Clone, Debug)]
struct Ping(u64);

impl Message for Ping {
    fn wire_size(&self) -> usize {
        8
    }
    fn clone_is_cheap(&self) -> bool {
        true
    }
}

/// Re-multicasts every message it receives to the rest of its group
/// until its budget runs out.
struct Relay {
    peers: Vec<NodeId>,
    budget: u64,
}

impl Actor<Ping> for Relay {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.multicast(self.peers.clone(), Ping(0));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, msg: Ping) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        // Forward to one peer, rotating, so the event population stays
        // flat instead of growing with every hop.
        let to = self.peers[(msg.0 as usize) % self.peers.len()];
        ctx.send(to, Ping(msg.0 + 1));
        if msg.0.is_multiple_of(8) {
            ctx.multicast(self.peers.clone(), Ping(msg.0 + 1));
        }
    }

    impl_as_any!();
}

/// Drives a bare `repl_sim::World` of `groups` groups of `group_size`
/// nodes on the LAN profile, each node relaying within its group, for
/// about `events` events; returns host nanoseconds per event.
pub fn bare_world(seed: u64, groups: u32, group_size: u32, events: u64) -> f64 {
    let nodes = groups * group_size;
    let budget = (events / u64::from(nodes)).max(1);
    let mut world: World<Ping> = World::new(
        SimConfig::new(seed)
            .with_network(NetworkConfig::lan())
            .with_trace(false),
    );
    for n in 0..nodes {
        let first = n / group_size * group_size;
        let peers = (first..first + group_size)
            .filter(|&p| p != n)
            .map(NodeId::new)
            .collect();
        world.add_actor(Box::new(Relay { peers, budget }));
    }
    let t0 = Instant::now();
    world.start();
    world.run_to_quiescence(SimTime::from_ticks(u64::MAX / 4));
    let dt = t0.elapsed();
    let events = world.metrics().events_processed;
    assert!(events > 0, "the relay processed no events");
    dt.as_nanos() as f64 / events as f64
}

/// Runs sequencer ABCAST through `repl_gcs::testkit::ComponentActor`:
/// each of `members` members broadcasts `per_member` messages, spaced
/// like a loaded LAN group, and every member delivers all of them;
/// returns host nanoseconds per delivery.
///
/// # Panics
///
/// Panics if a member does not deliver every broadcast (a lost or
/// duplicated message is a broken total order).
pub fn sequencer_abcast(seed: u64, members: u32, per_member: u32) -> f64 {
    type Host = ComponentActor<SequencerAbcast<u64>>;
    let group: Vec<NodeId> = (0..members).map(NodeId::new).collect();
    let mut world: World<SeqAbMsg<u64>> = World::new(
        SimConfig::new(seed)
            .with_network(NetworkConfig::lan())
            .with_trace(false),
    );
    for m in 0..members {
        let mut actor = Host::new(SequencerAbcast::new(NodeId::new(m), group.clone()));
        for k in 0..per_member {
            let at = SimDuration::from_ticks(u64::from(k) * 10 + u64::from(m));
            let payload = u64::from(m) << 32 | u64::from(k);
            actor = actor.with_step(at, move |ab, out| {
                ab.broadcast(payload, out);
            });
        }
        world.add_actor(Box::new(actor));
    }
    let t0 = Instant::now();
    world.start();
    world.run_to_quiescence(SimTime::from_ticks(u64::MAX / 4));
    let dt = t0.elapsed();
    let expected = u64::from(members) * u64::from(per_member);
    let mut deliveries = 0;
    for &g in &group {
        let got = world.actor_ref::<Host>(g).events.len() as u64;
        assert_eq!(got, expected, "member {g:?} delivered {got} of {expected}");
        deliveries += got;
    }
    dt.as_nanos() as f64 / deliveries.max(1) as f64
}

/// Result of a lock-manager replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockReplay {
    /// Lock requests issued (including re-requests after a wound).
    pub requests: u64,
    /// Requests that had to wait.
    pub waits: u64,
    /// Transactions wounded.
    pub wounds: u64,
    /// Host nanoseconds per request (acquires plus their releases).
    pub ns_per_op: f64,
}

/// One stream's progress through its transactions.
struct Stream<'a> {
    txns: &'a [TxnTemplate],
    next_txn: usize,
    op: usize,
    waiting: bool,
    txn: TxnId,
}

/// Feeds `streams` (one per client, in the runner's seeding) through one
/// wound-wait `LockManager`: the streams interleave one lock request
/// per round; a wounded transaction releases everything and restarts
/// under the same id, a finished one releases and the next begins.
pub fn lock_manager(streams: &[Vec<TxnTemplate>], items: u64) -> LockReplay {
    let mut lm =
        LockManager::with_keyspace(DeadlockPolicy::WoundWait, repl_db::Keyspace::dense(items));
    // A transaction's id is (start order, stream): wound-wait ages by
    // the first, and the second names the stream that owns it.
    let mut state: Vec<Stream<'_>> = streams
        .iter()
        .enumerate()
        .map(|(i, txns)| Stream {
            txns,
            next_txn: 0,
            op: 0,
            waiting: false,
            txn: TxnId::new(i as u64 + 1, i as u32),
        })
        .collect();
    let mut next_ts = streams.len() as u64 + 1;
    let owner = |txn: TxnId| txn.site as usize;
    let mut out = LockReplay::default();
    let t0 = Instant::now();
    loop {
        let mut active = false;
        let mut progressed = false;
        for i in 0..state.len() {
            let s = &mut state[i];
            if s.next_txn >= s.txns.len() {
                continue;
            }
            active = true;
            if s.waiting {
                continue;
            }
            progressed = true;
            let txn = &s.txns[s.next_txn];
            let mut granted = Vec::new();
            if s.op == txn.ops.len() {
                // Commit: release, then start the stream's next txn.
                granted = lm.release_all(s.txn);
                s.next_txn += 1;
                s.op = 0;
                s.txn = TxnId::new(next_ts, i as u32);
                next_ts += 1;
            } else {
                let op = txn.ops[s.op];
                let mode = if op.is_write() {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                out.requests += 1;
                match lm.acquire(s.txn, op.key(), mode) {
                    Acquire::Granted => s.op += 1,
                    Acquire::Waiting { wounded } => {
                        out.waits += 1;
                        s.waiting = true;
                        for w in wounded {
                            out.wounds += 1;
                            let victim = &mut state[owner(w)];
                            victim.op = 0;
                            victim.waiting = false;
                            granted.extend(lm.release_all(w));
                        }
                    }
                }
            }
            for (t, _, _) in granted {
                let s = &mut state[owner(t)];
                if s.txn == t && s.waiting {
                    s.waiting = false;
                    s.op += 1;
                }
            }
        }
        if !active {
            break;
        }
        // Wound-wait admits no deadlock: some stream always moves.
        assert!(progressed, "lock replay stalled with every stream waiting");
    }
    out.ns_per_op = t0.elapsed().as_nanos() as f64 / out.requests.max(1) as f64;
    out
}

/// Re-records `streams` into a fresh `ReplicatedHistory` as `sites`
/// replicas executing the transactions serially in round-robin stream
/// order (the same order at every site), commits each, and checks
/// one-copy serializability; returns the host seconds all of that took.
///
/// # Panics
///
/// Panics if the serial history does not check as one-copy
/// serializable: the checker would be wrong.
pub fn history(streams: &[Vec<TxnTemplate>], sites: u32) -> f64 {
    let t0 = Instant::now();
    let mut h = ReplicatedHistory::new();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..longest {
        for (c, txns) in streams.iter().enumerate() {
            let Some(txn) = txns.get(round) else { continue };
            let id = TxnId::new(((round as u64) << 20) | c as u64, c as u32);
            for site in 0..sites {
                for op in &txn.ops {
                    let kind = if op.is_write() {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    h.record(site, id, op.key(), kind);
                }
            }
            h.mark_committed(id);
        }
    }
    let serializable = h.check_one_copy_serializable().is_ok();
    let seconds = t0.elapsed().as_secs_f64();
    assert!(
        serializable,
        "a serial history must be one-copy serializable"
    );
    seconds
}

/// One past the largest key in `streams`: the size of a dense table
/// that holds every key they touch.
pub fn key_bound(streams: &[Vec<TxnTemplate>]) -> u64 {
    streams
        .iter()
        .flatten()
        .flat_map(|t| t.ops.iter().map(|o| o.key()))
        .map(|Key(k)| k + 1)
        .max()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_workload::{WorkloadGen, WorkloadSpec};

    fn streams(n: usize, txns: usize, skew: f64) -> Vec<Vec<TxnTemplate>> {
        let spec = WorkloadSpec::default()
            .with_items(32)
            .with_skew(skew)
            .with_ops_per_txn(3);
        (0..n)
            .map(|i| WorkloadGen::new(&spec, i as u64).take_txns(txns))
            .collect()
    }

    #[test]
    fn lock_replay_finishes_every_transaction_under_contention() {
        let s = streams(8, 50, 0.9);
        let r = lock_manager(&s, key_bound(&s));
        assert!(r.requests >= 8 * 50 * 3);
        assert!(r.waits > 0, "a hot 32-item table must make someone wait");
    }

    #[test]
    fn every_replay_runs_and_reports_a_cost() {
        let s = streams(4, 20, 0.5);
        assert!(history(&s, 3) > 0.0);
        assert!(bare_world(1, 2, 3, 5_000) > 0.0);
        assert!(sequencer_abcast(1, 3, 50) > 0.0);
    }
}
