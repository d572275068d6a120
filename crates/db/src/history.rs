//! Execution histories over replicated data, and the one-copy-
//! serializability checker.
//!
//! Every site records the order in which it performed physical operations
//! on its copies. The union of the per-site conflict orders (restricted to
//! committed transactions) forms the *replicated-data serialization
//! graph*; the history is one-copy serializable iff that graph is acyclic
//! (Bernstein, Hadzilacos & Goodman 1987) — the paper's correctness
//! criterion for database replication (Section 4.1).
//!
//! The graph kept here is a *reachability-equivalent subgraph* of that
//! serialization graph, not every conflicting pair. On each (site, key)
//! copy the conflict order is a chain of writes with reads hanging
//! between consecutive writes, so it suffices to link each committed op
//! to its nearest conflicting neighbours: a write to the previous and
//! next write and to the reads between them, a read to the previous and
//! next write. Every kept edge is a real conflict edge and every conflict
//! edge is implied by a path of kept ones, so the transitive closure —
//! and with it the 1SR verdict and the smallest-id-first witness order —
//! is that of the full graph, at a size linear in the history rather than
//! quadratic in each hot copy. Only the cycle reported for a violation
//! may be a different (real) cycle than a full graph would yield.
//!
//! The graph is maintained *incrementally*: committed operations are
//! linked in exactly once, so
//! [`ReplicatedHistory::check_one_copy_serializable`] never re-scans
//! operations it has already integrated. Integration is deferred —
//! `record`/`mark_committed` only queue work, keeping the per-operation
//! hot path to plain appends; the queue drains on `merge`, and graph
//! reads link whatever is still pending into clones of just the
//! (site, key) orders it touches, without mutating.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};

use crate::hash::FxHashMap;
use crate::item::{AccessKind, Key, TxnId};

/// One physical operation as recorded by a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistOp {
    /// The recording site.
    pub site: u32,
    /// The transaction performing the access.
    pub txn: TxnId,
    /// The logical item accessed (this site's physical copy).
    pub key: Key,
    /// Read or write.
    pub kind: AccessKind,
}

/// One site's operation stream. Each op carries a site-local sequence
/// number that survives `purge` compaction, so "earlier at this site"
/// stays well defined without re-deriving positions.
#[derive(Debug, Clone, Default)]
struct SiteLog {
    next_seq: u64,
    ops: Vec<(u64, HistOp)>,
}

/// The committed accesses of one (site, key) copy in site order, and the
/// site sequence numbers of its writes (to find an op's nearest writes
/// without walking the reads between them).
#[derive(Debug, Clone, Default)]
struct CopyOrder {
    /// (site seq, txn, kind), sorted by site seq.
    ops: Vec<(u64, TxnId, AccessKind)>,
    /// Site seqs of the writes in `ops`, sorted.
    writes: Vec<u64>,
}

/// Adds the edge `a → b` unless both ends are the same transaction.
fn link(edges: &mut BTreeSet<(TxnId, TxnId)>, a: TxnId, b: TxnId) {
    if a != b {
        edges.insert((a, b));
    }
}

impl CopyOrder {
    /// Index in `ops` of the first op at or after site seq `seq`.
    fn index(&self, seq: u64) -> usize {
        self.ops.partition_point(|&(s, _, _)| s < seq)
    }

    /// `ops` indices of the writes nearest before and after `seq`, which
    /// must not be a write in `writes`.
    fn nearest_writes(&self, seq: u64) -> (Option<usize>, Option<usize>) {
        let w = self.writes.partition_point(|&s| s < seq);
        let prev = w.checked_sub(1).map(|i| self.index(self.writes[i]));
        let next = self.writes.get(w).map(|&s| self.index(s));
        (prev, next)
    }

    /// Inserts a committed op and links it to its nearest conflicting
    /// neighbours: a read to the previous and the next write; a write to
    /// the previous write and the reads since it, and to the next write
    /// and the reads before it. Edges among the neighbours themselves
    /// stay; they remain real conflicts and are merely implied now.
    fn insert(
        &mut self,
        seq: u64,
        txn: TxnId,
        kind: AccessKind,
        edges: &mut BTreeSet<(TxnId, TxnId)>,
    ) {
        let pos = self.index(seq);
        self.ops.insert(pos, (seq, txn, kind));
        let (prev, next) = self.nearest_writes(seq);
        match kind {
            AccessKind::Read => {
                if let Some(p) = prev {
                    link(edges, self.ops[p].1, txn);
                }
                if let Some(n) = next {
                    link(edges, txn, self.ops[n].1);
                }
            }
            AccessKind::Write => {
                for &(_, before, _) in &self.ops[prev.unwrap_or(0)..pos] {
                    link(edges, before, txn);
                }
                let end = next.map_or(self.ops.len(), |n| n + 1);
                for &(_, after, _) in &self.ops[pos + 1..end] {
                    link(edges, txn, after);
                }
                let w = self.writes.partition_point(|&s| s < seq);
                self.writes.insert(w, seq);
            }
        }
    }

    /// Removes the op at site seq `seq`, if present, returning its kind.
    fn remove(&mut self, seq: u64) -> Option<AccessKind> {
        let i = self.index(seq);
        if self.ops.get(i).is_none_or(|&(s, _, _)| s != seq) {
            return None;
        }
        let (_, _, kind) = self.ops.remove(i);
        if kind == AccessKind::Write {
            let w = self.writes.partition_point(|&s| s < seq);
            self.writes.remove(w);
        }
        Some(kind)
    }

    /// Re-links the span a removed write at `seq` used to split: the
    /// writes now either side of it link to each other and to every read
    /// between them.
    fn relink_gap(&self, seq: u64, edges: &mut BTreeSet<(TxnId, TxnId)>) {
        let (prev, next) = self.nearest_writes(seq);
        let start = prev.map_or(0, |p| p + 1);
        let end = next.unwrap_or(self.ops.len());
        let prev = prev.map(|p| self.ops[p].1);
        let next = next.map(|n| self.ops[n].1);
        for &(_, read, _) in &self.ops[start..end] {
            if let Some(p) = prev {
                link(edges, p, read);
            }
            if let Some(n) = next {
                link(edges, read, n);
            }
        }
        if let (Some(p), Some(n)) = (prev, next) {
            link(edges, p, n);
        }
    }
}

/// A multi-site execution history.
///
/// # Examples
///
/// ```
/// use repl_db::{ReplicatedHistory, AccessKind, Key, TxnId};
///
/// let mut h = ReplicatedHistory::new();
/// let (t1, t2) = (TxnId::new(1, 0), TxnId::new(2, 0));
/// h.record(0, t1, Key(0), AccessKind::Write);
/// h.record(0, t2, Key(0), AccessKind::Write);
/// h.mark_committed(t1);
/// h.mark_committed(t2);
/// let order = h.check_one_copy_serializable().expect("1SR");
/// assert_eq!(order, vec![t1, t2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplicatedHistory {
    /// Per-site operation streams, in execution order.
    per_site: FxHashMap<u32, SiteLog>,
    committed: HashSet<TxnId>,
    /// Every op of every transaction, for commit/purge integration.
    ops_by_txn: FxHashMap<TxnId, Vec<(u32, u64, Key, AccessKind)>>,
    /// Committed ops per (site, key) copy, in site order. Holds only
    /// *integrated* ops; `dirty` tracks the rest.
    copies: FxHashMap<(u32, Key), CopyOrder>,
    /// The maintained serialization-graph edges: a reachability-
    /// equivalent subgraph of the full conflict graph, sorted.
    edges: BTreeSet<(TxnId, TxnId)>,
    /// Committed transactions with operations not yet folded into
    /// `copies`/`edges` (may contain duplicates and stale ids —
    /// integration re-checks).
    dirty: Vec<TxnId>,
    /// How many of each committed transaction's ops are integrated (a
    /// prefix of its `ops_by_txn` list).
    integrated: FxHashMap<TxnId, usize>,
    total_ops: usize,
    /// When set, `record`/`mark_committed` are no-ops: the open-loop
    /// scale path trades post-run serializability checking for constant
    /// memory (the history otherwise grows per operation, unbounded).
    paused: bool,
}

/// A cycle in the serialization graph: evidence of a non-serializable
/// execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializabilityViolation {
    /// The transactions on the cycle, in edge order.
    pub cycle: Vec<TxnId>,
}

impl std::fmt::Display for SerializabilityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serialization-graph cycle through {} transactions",
            self.cycle.len()
        )
    }
}

impl std::error::Error for SerializabilityViolation {}

impl ReplicatedHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        ReplicatedHistory::default()
    }

    /// Turns recording on or off. While off, `record` and
    /// `mark_committed` do nothing, so the history stays constant-size
    /// no matter how many operations execute. Already-recorded state is
    /// kept. This is the single switch behind the server "lean" mode:
    /// protocols append through many call sites, and gating here covers
    /// them all.
    pub fn set_recording(&mut self, on: bool) {
        self.paused = !on;
    }

    /// True unless recording has been switched off.
    pub fn is_recording(&self) -> bool {
        !self.paused
    }

    /// Records a physical operation at `site` in execution order.
    pub fn record(&mut self, site: u32, txn: TxnId, key: Key, kind: AccessKind) {
        if self.paused {
            return;
        }
        let log = self.per_site.entry(site).or_default();
        let seq = log.next_seq;
        log.next_seq += 1;
        log.ops.push((
            seq,
            HistOp {
                site,
                txn,
                key,
                kind,
            },
        ));
        self.ops_by_txn
            .entry(txn)
            .or_default()
            .push((site, seq, key, kind));
        self.total_ops += 1;
        if self.committed.contains(&txn) {
            self.dirty.push(txn);
        }
    }

    /// Marks a transaction as committed; only committed transactions
    /// participate in the serialization graph.
    pub fn mark_committed(&mut self, txn: TxnId) {
        if self.paused {
            return;
        }
        if self.committed.insert(txn) {
            self.dirty.push(txn);
        }
    }

    /// Folds every queued committed op into the maintained graph. Each op
    /// is integrated at most once, so repeated flushes only ever pay for
    /// what changed since the last one.
    fn flush(&mut self) {
        while let Some(txn) = self.dirty.pop() {
            // Stale entries (purged or re-recorded-but-uncommitted ids)
            // must not integrate.
            if !self.committed.contains(&txn) {
                continue;
            }
            let done = self.integrated.get(&txn).copied().unwrap_or(0);
            let Some(ops) = self.ops_by_txn.get(&txn) else {
                continue;
            };
            if done >= ops.len() {
                continue;
            }
            // Split off the tail so `integrate` can borrow `self`.
            let tail: Vec<(u32, u64, Key, AccessKind)> = ops[done..].to_vec();
            self.integrated.insert(txn, ops.len());
            for (site, seq, key, kind) in tail {
                self.integrate(site, seq, key, kind, txn);
            }
        }
    }

    /// Folds one committed op into its copy's conflict order and the
    /// maintained edge set.
    fn integrate(&mut self, site: u32, seq: u64, key: Key, kind: AccessKind, txn: TxnId) {
        self.copies
            .entry((site, key))
            .or_default()
            .insert(seq, txn, kind, &mut self.edges);
    }

    /// Number of recorded operations across all sites.
    pub fn len(&self) -> usize {
        self.total_ops
    }

    /// True if no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The committed transactions.
    pub fn committed(&self) -> &HashSet<TxnId> {
        &self.committed
    }

    /// Removes every recorded operation of `txn` (used when an aborted
    /// attempt is retried under the same transaction id: the dead
    /// attempt's operations must not count once the retry commits).
    pub fn purge(&mut self, txn: TxnId) {
        let Some(ops) = self.ops_by_txn.remove(&txn) else {
            self.committed.remove(&txn);
            self.integrated.remove(&txn);
            return;
        };
        let was_committed = self.committed.remove(&txn);
        // Only the integrated prefix made it into the maintained graph;
        // the un-flushed tail vanishes with the op list (its `dirty`
        // entries go stale, which `flush` tolerates).
        let done = self.integrated.remove(&txn).unwrap_or(0);
        let mut gaps = Vec::new();
        for (i, &(site, seq, key, _)) in ops.iter().enumerate() {
            if let Some(log) = self.per_site.get_mut(&site) {
                if let Ok(j) = log.ops.binary_search_by_key(&seq, |&(s, _)| s) {
                    log.ops.remove(j);
                }
            }
            if was_committed && i < done {
                if let Some(copy) = self.copies.get_mut(&(site, key)) {
                    if copy.remove(seq) == Some(AccessKind::Write) {
                        gaps.push((site, key, seq));
                    }
                }
            }
        }
        self.total_ops -= ops.len();
        if done > 0 {
            // Dropping txn's ops removes exactly the edges touching txn;
            // orders among the remaining transactions are unchanged, but
            // the ops either side of a removed write become adjacent.
            self.edges.retain(|&(a, b)| a != txn && b != txn);
            for (site, key, seq) in gaps {
                self.copies[&(site, key)].relink_gap(seq, &mut self.edges);
            }
        }
    }

    /// Merges another history (e.g. collected from another site's actor).
    pub fn merge(&mut self, other: &ReplicatedHistory) {
        let mut sites: Vec<u32> = other.per_site.keys().copied().collect();
        sites.sort_unstable(); // sorted-below
        for site in sites {
            let log = &other.per_site[&site];
            for &(_, op) in &log.ops {
                self.record(site, op.txn, op.key, op.kind);
            }
        }
        let mut newly: Vec<TxnId> = other.committed.iter().copied().collect();
        newly.sort_unstable(); // sorted-below
        for txn in newly {
            self.mark_committed(txn);
        }
        // Amortize: repeated merges each integrate only their own delta,
        // and the final check reads the maintained set straight off.
        self.flush();
    }

    /// The maintained edge set plus the contribution of any still-pending
    /// committed ops, computed without mutating (so `&self` readers stay
    /// correct mid-stream): pending ops are linked, by the same rule and
    /// in the order `flush` would take them, into clones of just the
    /// (site, key) orders they touch.
    fn edges_with_pending(&self) -> BTreeSet<(TxnId, TxnId)> {
        let mut edges = self.edges.clone();
        let mut touched: FxHashMap<(u32, Key), CopyOrder> = FxHashMap::default();
        let mut seen: HashSet<TxnId> = HashSet::new();
        for &txn in self.dirty.iter().rev() {
            if !self.committed.contains(&txn) || !seen.insert(txn) {
                continue;
            }
            let done = self.integrated.get(&txn).copied().unwrap_or(0);
            if let Some(ops) = self.ops_by_txn.get(&txn) {
                for &(site, seq, key, kind) in ops.iter().skip(done) {
                    touched
                        .entry((site, key))
                        .or_insert_with(|| {
                            self.copies.get(&(site, key)).cloned().unwrap_or_default()
                        })
                        .insert(seq, txn, kind, &mut edges);
                }
            }
        }
        edges
    }

    /// The edges of the replicated-data serialization graph, sorted.
    ///
    /// This is a reachability-equivalent subgraph, not every conflicting
    /// pair: each committed op is linked only to its nearest conflicting
    /// neighbours on its copy, so `a → b` may be absent while a path from
    /// `a` to `b` exists. Every edge returned is a real conflict edge.
    pub fn conflict_edges(&self) -> Vec<(TxnId, TxnId)> {
        if self.dirty.is_empty() {
            return self.edges.iter().copied().collect();
        }
        self.edges_with_pending().into_iter().collect()
    }

    /// Checks one-copy serializability.
    ///
    /// # Errors
    ///
    /// Returns the violating cycle if the serialization graph is cyclic;
    /// otherwise returns a witness serial order (a topological sort).
    pub fn check_one_copy_serializable(&self) -> Result<Vec<TxnId>, SerializabilityViolation> {
        let edges = self.conflict_edges();
        serial_order(&self.committed, &edges).ok_or_else(|| SerializabilityViolation {
            cycle: self.find_cycle(&edges),
        })
    }

    fn find_cycle(&self, edges: &[(TxnId, TxnId)]) -> Vec<TxnId> {
        let mut adj: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        let mut nodes: HashSet<TxnId> = HashSet::new();
        for &(a, b) in edges {
            adj.entry(a).or_default().push(b);
            nodes.insert(a);
            nodes.insert(b);
        }
        let mut sorted: Vec<TxnId> = nodes.iter().copied().collect();
        sorted.sort_unstable();
        #[derive(Clone, Copy, PartialEq)]
        enum C {
            W,
            G,
            B,
        }
        let mut color: HashMap<TxnId, C> = nodes.iter().map(|&n| (n, C::W)).collect();
        for &start in &sorted {
            if color[&start] != C::W {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            let mut path = vec![start];
            color.insert(start, C::G);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let next = adj.get(&node).and_then(|v| v.get(*idx).copied());
                *idx += 1;
                match next {
                    Some(n) => match color[&n] {
                        C::G => {
                            let pos = path.iter().position(|&p| p == n).expect("on path");
                            return path[pos..].to_vec();
                        }
                        C::W => {
                            color.insert(n, C::G);
                            stack.push((n, 0));
                            path.push(n);
                        }
                        C::B => {}
                    },
                    None => {
                        color.insert(node, C::B);
                        stack.pop();
                        path.pop();
                    }
                }
            }
        }
        Vec::new()
    }

    /// Recomputes the conflict edges from scratch (the pre-incremental
    /// algorithm). Test oracle for the maintained edge set.
    #[cfg(test)]
    fn full_rescan_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = HashSet::new();
        for log in self.per_site.values() {
            let mut per_key: HashMap<Key, Vec<(TxnId, AccessKind)>> = HashMap::new();
            for &(_, op) in &log.ops {
                if self.committed.contains(&op.txn) {
                    per_key.entry(op.key).or_default().push((op.txn, op.kind));
                }
            }
            for seq in per_key.values() {
                for (i, &(t1, k1)) in seq.iter().enumerate() {
                    for &(t2, k2) in &seq[i + 1..] {
                        if t1 != t2 && k1.conflicts_with(k2) {
                            edges.insert((t1, t2));
                        }
                    }
                }
            }
        }
        let mut v: Vec<(TxnId, TxnId)> = edges.into_iter().collect();
        v.sort_unstable();
        v
    }
}

/// Kahn's algorithm with deterministic tie-breaking: the smallest ready
/// id always goes next, so the order is the lexicographically smallest
/// topological order — a function of the graph's reachability alone.
/// `None` if the graph over `nodes` and the edges' ends is cyclic.
fn serial_order(nodes: &HashSet<TxnId>, edges: &[(TxnId, TxnId)]) -> Option<Vec<TxnId>> {
    let mut adj: FxHashMap<TxnId, Vec<TxnId>> = FxHashMap::default();
    let mut indeg: FxHashMap<TxnId, usize> = nodes.iter().map(|&n| (n, 0)).collect();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
        *indeg.entry(b).or_insert(0) += 1;
        indeg.entry(a).or_insert(0);
    }
    let mut ready: BinaryHeap<Reverse<TxnId>> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| Reverse(n))
        .collect();
    let mut order = Vec::with_capacity(indeg.len());
    while let Some(Reverse(n)) = ready.pop() {
        order.push(n);
        for s in adj.get(&n).into_iter().flatten() {
            let d = indeg.get_mut(s).expect("known node");
            *d -= 1;
            if *d == 0 {
                ready.push(Reverse(*s));
            }
        }
    }
    (order.len() == indeg.len()).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessKind::{Read, Write};

    fn t(ts: u64) -> TxnId {
        TxnId::new(ts, 0)
    }

    /// Every (a, b) with a non-empty path a ⇝ b.
    fn closure(edges: &[(TxnId, TxnId)]) -> BTreeSet<(TxnId, TxnId)> {
        let mut adj: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        for &(a, b) in edges {
            adj.entry(a).or_default().push(b);
        }
        let mut reach = BTreeSet::new();
        for &from in adj.keys() {
            let mut stack = adj[&from].clone();
            while let Some(n) = stack.pop() {
                if reach.insert((from, n)) {
                    stack.extend(adj.get(&n).into_iter().flatten());
                }
            }
        }
        reach
    }

    /// Checks the maintained graph against the full-rescan oracle: its
    /// edges are real conflict edges, it has the same transitive closure,
    /// and the 1SR verdict and witness order are those of Kahn's
    /// algorithm over the full graph.
    fn assert_equivalent_to_full_rescan(h: &ReplicatedHistory) {
        let kept = h.conflict_edges();
        let full = h.full_rescan_edges();
        let all: HashSet<&(TxnId, TxnId)> = full.iter().collect();
        for e in &kept {
            assert!(all.contains(e), "{e:?} is not a conflict edge");
        }
        assert_eq!(closure(&kept), closure(&full));
        let verdict = h.check_one_copy_serializable();
        assert_eq!(
            verdict.as_ref().ok(),
            serial_order(h.committed(), &full).as_ref()
        );
        if let Err(v) = verdict {
            for (i, a) in v.cycle.iter().enumerate() {
                let b = v.cycle[(i + 1) % v.cycle.len()];
                assert!(
                    all.contains(&(*a, b)),
                    "cycle edge {a:?} -> {b:?} is not real"
                );
            }
        }
    }

    #[test]
    fn empty_history_is_serializable() {
        let h = ReplicatedHistory::new();
        assert!(h.is_empty());
        assert_eq!(
            h.check_one_copy_serializable().expect("trivially 1SR"),
            vec![]
        );
    }

    #[test]
    fn reads_never_conflict() {
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Read);
        h.record(0, t(2), Key(0), Read);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        assert!(h.conflict_edges().is_empty());
    }

    #[test]
    fn single_site_serial_order_follows_execution() {
        let mut h = ReplicatedHistory::new();
        h.record(0, t(2), Key(0), Write);
        h.record(0, t(1), Key(0), Write);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        // Execution order t2 then t1 — the witness must respect it.
        assert_eq!(
            h.check_one_copy_serializable().expect("1SR"),
            vec![t(2), t(1)]
        );
    }

    #[test]
    fn cross_site_write_inversion_is_detected() {
        // Site 0 applies t1's write before t2's; site 1 the reverse:
        // classic replica divergence, not 1SR.
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Write);
        h.record(0, t(2), Key(0), Write);
        h.record(1, t(2), Key(0), Write);
        h.record(1, t(1), Key(0), Write);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        let err = h.check_one_copy_serializable().expect_err("must be cyclic");
        assert_eq!(err.cycle.len(), 2);
        assert_eq!(
            err.to_string(),
            "serialization-graph cycle through 2 transactions"
        );
    }

    #[test]
    fn read_write_inversion_across_items_is_detected() {
        // t1 reads x then writes y; t2 reads y then writes x; interleaved
        // so each reads the pre-image: r1(x) r2(y) w1(y) w2(x) — cyclic.
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Read);
        h.record(0, t(2), Key(1), Read);
        h.record(0, t(1), Key(1), Write);
        h.record(0, t(2), Key(0), Write);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        assert!(h.check_one_copy_serializable().is_err());
    }

    #[test]
    fn uncommitted_transactions_are_ignored() {
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Write);
        h.record(0, t(2), Key(0), Write);
        h.record(0, t(1), Key(0), Write); // would be a w1 w2 w1 cycle if t2 counted
        h.mark_committed(t(1));
        assert!(h.check_one_copy_serializable().is_ok());
    }

    #[test]
    fn purge_removes_aborted_attempts() {
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Write);
        h.record(0, t(2), Key(0), Write);
        h.record(0, t(1), Key(1), Write);
        h.purge(t(1));
        h.record(0, t(1), Key(0), Write); // the retry
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        // Without the purge this would be w1 w2 w1: cyclic.
        assert!(h.check_one_copy_serializable().is_ok());
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn merge_combines_sites() {
        let mut a = ReplicatedHistory::new();
        a.record(0, t(1), Key(0), Write);
        a.mark_committed(t(1));
        let mut b = ReplicatedHistory::new();
        b.record(1, t(2), Key(0), Write);
        b.mark_committed(t(2));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.committed().len(), 2);
    }

    #[test]
    fn consistent_cross_site_order_is_serializable() {
        let mut h = ReplicatedHistory::new();
        for site in 0..3 {
            h.record(site, t(1), Key(0), Write);
            h.record(site, t(2), Key(0), Write);
            h.record(site, t(3), Key(0), Write);
        }
        for ts in 1..=3 {
            h.mark_committed(t(ts));
        }
        assert_eq!(
            h.check_one_copy_serializable().expect("1SR"),
            vec![t(1), t(2), t(3)]
        );
    }

    #[test]
    fn incremental_edges_match_full_rescan_under_random_load() {
        // Random record/commit/purge traffic: after every mutation the
        // maintained graph must be equivalent to a from-scratch rescan.
        // Graph reads link pending ops into scratch copies; a periodic
        // flush (merging an empty history) exercises the maintained path
        // and purge re-linking too.
        let mut h = ReplicatedHistory::new();
        let mut s = 77u64;
        for step in 0..6000 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let txn = t(1 + (s >> 7) % 7);
            let site = ((s >> 17) % 3) as u32;
            let key = Key((s >> 27) % 4);
            let kind = if (s >> 37).is_multiple_of(2) {
                Read
            } else {
                Write
            };
            match (s >> 47) % 8 {
                0 => h.purge(txn),
                1 | 2 => h.mark_committed(txn),
                _ => h.record(site, txn, key, kind),
            }
            if step % 50 == 49 {
                h.merge(&ReplicatedHistory::new());
            }
            assert_equivalent_to_full_rescan(&h);
        }
    }

    #[test]
    fn pending_reads_agree_with_flushed_state() {
        // Reading edges while integration is still queued (the `&self`
        // overlay) must be equivalent to what a flushed history reports.
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Write);
        h.record(0, t(2), Key(0), Write);
        h.record(0, t(3), Key(0), Read);
        h.record(1, t(2), Key(1), Write);
        h.record(1, t(3), Key(1), Write);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        h.mark_committed(t(3));
        let before = h.conflict_edges();
        let mut merged = ReplicatedHistory::new();
        merged.merge(&h); // merge flushes
        assert_eq!(closure(&before), closure(&merged.conflict_edges()));
        assert_equivalent_to_full_rescan(&h);
        assert_equivalent_to_full_rescan(&merged);
    }

    #[test]
    fn record_after_commit_still_counts() {
        // Some protocols mark a txn committed and then (via merge or
        // late application) record more of its ops; those must join the
        // graph immediately.
        let mut h = ReplicatedHistory::new();
        h.record(0, t(1), Key(0), Write);
        h.mark_committed(t(1));
        h.mark_committed(t(2));
        h.record(0, t(2), Key(0), Write);
        assert_eq!(h.conflict_edges(), vec![(t(1), t(2))]);
        assert_eq!(h.conflict_edges(), h.full_rescan_edges());
    }

    #[test]
    fn paused_recording_keeps_the_history_constant_size() {
        // The open-loop lean path flips recording off; every append —
        // including the direct protocol call sites — must then be a
        // no-op, while already-recorded state survives.
        let mut h = ReplicatedHistory::new();
        assert!(h.is_recording());
        h.record(0, t(1), Key(0), Write);
        h.mark_committed(t(1));
        h.set_recording(false);
        assert!(!h.is_recording());
        for i in 2..100u64 {
            h.record(0, t(i), Key(i % 4), Write);
            h.mark_committed(t(i));
        }
        assert_eq!(h.len(), 1, "paused history must not grow");
        assert_eq!(h.committed().len(), 1);
        h.set_recording(true);
        h.record(0, t(2), Key(0), Write);
        h.mark_committed(t(2));
        assert_eq!(h.conflict_edges(), vec![(t(1), t(2))]);
    }

    #[test]
    fn merge_preserves_edge_structure() {
        let mut a = ReplicatedHistory::new();
        a.record(0, t(1), Key(0), Write);
        a.record(0, t(2), Key(0), Write);
        a.mark_committed(t(1));
        a.mark_committed(t(2));
        let mut b = ReplicatedHistory::new();
        b.record(1, t(2), Key(0), Write);
        b.record(1, t(3), Key(0), Write);
        b.mark_committed(t(3));
        a.merge(&b);
        // b's site-1 order contributes t2→t3 (t3 committed via merge).
        assert!(a.conflict_edges().contains(&(t(1), t(2))));
        assert!(a.conflict_edges().contains(&(t(2), t(3))));
        assert_equivalent_to_full_rescan(&a);
        assert_eq!(a.len(), 4);
    }
}
