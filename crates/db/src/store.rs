//! The versioned in-memory store: one site's physical copies.
//!
//! Two backings share one API. When the workload declares a bounded
//! [`Keyspace`], the store is *dense*: a `Vec<Option<Versioned>>`
//! indexed directly by `Key`, so the hot read/write path is a bounds
//! check and a pointer offset instead of a hash probe. The *sparse*
//! path keeps a hash map (Fx, not SipHash) for open-ended key domains,
//! and also catches the rare out-of-range key on a dense store so the
//! dense assumption can never corrupt semantics — only speed.

use crate::hash::FxHashMap;
use crate::item::{Key, Keyspace, TxnId, Value};
use crate::log::{WriteRecord, WriteSet};

/// A physical copy: current value, a version counter, and the writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Versioned {
    /// Current value.
    pub value: Value,
    /// Monotone per-item version, starting at 0 for the initial value.
    pub version: u64,
    /// The transaction that produced this version (`None` for the initial
    /// database state).
    pub writer: Option<TxnId>,
}

impl Versioned {
    /// The initial version of an item.
    pub fn initial(value: Value) -> Self {
        Versioned {
            value,
            version: 0,
            writer: None,
        }
    }
}

/// One site's database: the logical keys' physical copies at this site.
///
/// # Examples
///
/// ```
/// use repl_db::{Store, Key, Value, TxnId};
///
/// let mut store = Store::with_items(4, Value(0));
/// let t = TxnId::new(1, 0);
/// store.write(Key(2), Value(9), t);
/// let v = store.read(Key(2)).expect("item exists");
/// assert_eq!(v.value, Value(9));
/// assert_eq!(v.version, 1);
/// assert_eq!(v.writer, Some(t));
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    ks: Keyspace,
    /// Dense backing: slot `i` is `Key(i)`'s copy. Empty when sparse.
    dense: Vec<Option<Versioned>>,
    /// Number of `Some` slots in `dense`.
    dense_len: usize,
    /// Sparse backing; on the dense path this only holds keys outside
    /// the declared range (a correctness escape hatch, not a fast path).
    sparse: FxHashMap<Key, Versioned>,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Store {
    /// Creates an empty store with an open (sparse) keyspace.
    pub fn new() -> Self {
        Store {
            ks: Keyspace::sparse(0),
            dense: Vec::new(),
            dense_len: 0,
            sparse: FxHashMap::default(),
        }
    }

    /// Creates a store with keys `0..n`, all at `initial`, densely backed.
    pub fn with_items(n: u64, initial: Value) -> Self {
        Store::with_keyspace(Keyspace::dense(n), initial)
    }

    /// Creates a store with keys `0..ks.items` at `initial`, using the
    /// backing the keyspace declares.
    pub fn with_keyspace(ks: Keyspace, initial: Value) -> Self {
        if ks.dense {
            Store {
                ks,
                dense: vec![Some(Versioned::initial(initial)); ks.items as usize],
                dense_len: ks.items as usize,
                sparse: FxHashMap::default(),
            }
        } else {
            let mut sparse = FxHashMap::default();
            sparse.reserve(ks.items as usize);
            for k in 0..ks.items {
                sparse.insert(Key(k), Versioned::initial(initial));
            }
            Store {
                ks,
                dense: Vec::new(),
                dense_len: 0,
                sparse,
            }
        }
    }

    /// The keyspace this store was built for.
    pub fn keyspace(&self) -> Keyspace {
        self.ks
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.dense_len + self.sparse.len()
    }

    /// True if the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the physical copy of `key`.
    #[inline(always)]
    pub fn read(&self, key: Key) -> Option<Versioned> {
        match self.dense.get(key.0 as usize) {
            Some(slot) => *slot,
            None => self.sparse.get(&key).copied(),
        }
    }

    /// The slot for `key`, created at `default` if absent.
    #[inline(always)]
    fn entry_or_insert(&mut self, key: Key, default: Versioned) -> &mut Versioned {
        if (key.0 as usize) < self.dense.len() {
            let slot = &mut self.dense[key.0 as usize];
            if slot.is_none() {
                *slot = Some(default);
                self.dense_len += 1;
            }
            slot.as_mut().expect("slot populated above")
        } else {
            self.sparse.entry(key).or_insert(default)
        }
    }

    /// Writes `value` to `key` on behalf of `txn`, bumping the version.
    /// Unknown keys are created at version 1 (version 0 is the implicit
    /// initial state). Returns the new version.
    pub fn write(&mut self, key: Key, value: Value, txn: TxnId) -> Versioned {
        let entry = self.entry_or_insert(key, Versioned::initial(Value(0)));
        entry.value = value;
        entry.version += 1;
        entry.writer = Some(txn);
        *entry
    }

    /// Restores `key` to an exact earlier state (undo).
    pub fn restore(&mut self, key: Key, state: Versioned) {
        *self.entry_or_insert(key, state) = state;
    }

    /// Applies a replicated writeset (redo records), overwriting values and
    /// adopting the writer's versions. This is how secondaries install a
    /// primary's updates without re-executing (Section 3.3 / 4.3).
    pub fn apply_writeset(&mut self, ws: &WriteSet) {
        for rec in &ws.writes {
            let entry = self.entry_or_insert(rec.key, Versioned::initial(Value(0)));
            entry.value = rec.value;
            entry.version = rec.version;
            entry.writer = Some(ws.txn);
        }
    }

    /// Iterates over all items in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &Versioned)> {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (Key(i as u64), v)))
            .chain(self.sparse.iter().map(|(k, v)| (*k, v)))
    }

    /// Exports the full database state, key-sorted, for state transfer
    /// to a recovering replica. The order is deterministic so shipping
    /// the snapshot over the simulated network stays reproducible.
    pub fn snapshot(&self) -> Vec<(Key, Versioned)> {
        let mut entries: Vec<(Key, Versioned)> = self.iter().map(|(k, v)| (k, *v)).collect();
        entries.sort_by_key(|(k, _)| *k);
        entries
    }

    /// Replaces the entire database state with a donor's snapshot
    /// (values, versions and writers). The inverse of
    /// [`Store::snapshot`]: afterwards the two stores have equal
    /// fingerprints.
    pub fn install_snapshot(&mut self, snapshot: &[(Key, Versioned)]) {
        for slot in &mut self.dense {
            *slot = None;
        }
        self.dense_len = 0;
        self.sparse.clear();
        for (k, v) in snapshot {
            *self.entry_or_insert(*k, *v) = *v;
        }
    }

    /// A deterministic fingerprint of the full database state, used by the
    /// experiments to compare replica convergence.
    pub fn fingerprint(&self) -> u64 {
        let mut entries: Vec<(Key, &Versioned)> = self.iter().collect();
        entries.sort_by_key(|(k, _)| *k);
        // FNV-1a over the sorted (key, value) stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in entries {
            for word in [k.0, v.value.0 as u64] {
                for byte in word.to_le_bytes() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }
}

/// A shadow overlay for optimistic execution (certification-based
/// replication, Section 5.4.2): reads fall through to the base store,
/// writes stay in the overlay until the transaction certifies.
///
/// # Examples
///
/// ```
/// use repl_db::{Store, ShadowStore, Key, Value, TxnId};
///
/// let store = Store::with_items(2, Value(0));
/// let mut shadow = ShadowStore::new(&store, TxnId::new(1, 0));
/// shadow.write(Key(0), Value(5));
/// assert_eq!(shadow.read(Key(0)).expect("exists").value, Value(5));
/// assert_eq!(store.read(Key(0)).expect("exists").value, Value(0)); // base untouched
/// let ws = shadow.into_writeset();
/// assert_eq!(ws.writes.len(), 1);
/// ```
#[derive(Debug)]
pub struct ShadowStore<'a> {
    base: &'a Store,
    txn: TxnId,
    overlay: FxHashMap<Key, (Value, u64)>,
    read_versions: Vec<(Key, u64)>,
}

impl<'a> ShadowStore<'a> {
    /// Creates a shadow over `base` for `txn`.
    pub fn new(base: &'a Store, txn: TxnId) -> Self {
        ShadowStore {
            base,
            txn,
            overlay: FxHashMap::default(),
            read_versions: Vec::new(),
        }
    }

    /// Reads through the overlay, recording the version seen for the
    /// transaction's read set.
    pub fn read(&mut self, key: Key) -> Option<Versioned> {
        if let Some(&(value, version)) = self.overlay.get(&key) {
            return Some(Versioned {
                value,
                version,
                writer: Some(self.txn),
            });
        }
        let v = self.base.read(key)?;
        self.read_versions.push((key, v.version));
        Some(v)
    }

    /// Buffers a write in the overlay.
    pub fn write(&mut self, key: Key, value: Value) {
        let base_version = self.base.read(key).map_or(0, |v| v.version);
        self.overlay.insert(key, (value, base_version + 1));
    }

    /// The versions read from the base store (the read set).
    pub fn read_set(&self) -> &[(Key, u64)] {
        &self.read_versions
    }

    /// Converts the buffered writes into a writeset for certification.
    pub fn into_writeset(self) -> WriteSet {
        let mut writes: Vec<WriteRecord> = self
            .overlay
            .into_iter()
            .map(|(key, (value, version))| WriteRecord {
                key,
                value,
                version,
            })
            .collect();
        writes.sort_by_key(|r| r.key);
        WriteSet {
            txn: self.txn,
            writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_monotone_per_item() {
        let mut s = Store::with_items(1, Value(0));
        let t1 = TxnId::new(1, 0);
        let t2 = TxnId::new(2, 0);
        assert_eq!(s.read(Key(0)).expect("exists").version, 0);
        assert_eq!(s.write(Key(0), Value(1), t1).version, 1);
        assert_eq!(s.write(Key(0), Value(2), t2).version, 2);
        assert_eq!(s.read(Key(0)).expect("exists").writer, Some(t2));
    }

    #[test]
    fn unknown_key_write_creates_item() {
        let mut s = Store::new();
        assert!(s.is_empty());
        let v = s.write(Key(9), Value(3), TxnId::new(1, 0));
        assert_eq!(v.version, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn restore_is_exact_undo() {
        let mut s = Store::with_items(1, Value(10));
        let before = s.read(Key(0)).expect("exists");
        s.write(Key(0), Value(99), TxnId::new(5, 1));
        s.restore(Key(0), before);
        assert_eq!(s.read(Key(0)).expect("exists"), before);
    }

    #[test]
    fn apply_writeset_adopts_writer_versions() {
        let mut primary = Store::with_items(2, Value(0));
        let mut backup = Store::with_items(2, Value(0));
        let t = TxnId::new(3, 0);
        primary.write(Key(0), Value(7), t);
        primary.write(Key(1), Value(8), t);
        let ws = WriteSet {
            txn: t,
            writes: vec![
                WriteRecord {
                    key: Key(0),
                    value: Value(7),
                    version: 1,
                },
                WriteRecord {
                    key: Key(1),
                    value: Value(8),
                    version: 1,
                },
            ],
        };
        backup.apply_writeset(&ws);
        assert_eq!(primary.fingerprint(), backup.fingerprint());
    }

    #[test]
    fn fingerprint_detects_divergence() {
        let a = Store::with_items(3, Value(0));
        let mut b = Store::with_items(3, Value(0));
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.write(Key(1), Value(1), TxnId::new(1, 1));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn shadow_records_read_set_and_buffers_writes() {
        let mut base = Store::with_items(2, Value(0));
        base.write(Key(1), Value(5), TxnId::new(1, 0)); // version 1
        let mut shadow = ShadowStore::new(&base, TxnId::new(2, 0));
        assert_eq!(shadow.read(Key(1)).expect("exists").value, Value(5));
        shadow.write(Key(0), Value(42));
        assert_eq!(shadow.read(Key(0)).expect("exists").value, Value(42));
        assert_eq!(shadow.read_set(), &[(Key(1), 1)]);
        let ws = shadow.into_writeset();
        assert_eq!(
            ws.writes,
            vec![WriteRecord {
                key: Key(0),
                value: Value(42),
                version: 1
            }]
        );
    }

    #[test]
    fn shadow_reads_of_own_writes_do_not_pollute_read_set() {
        let base = Store::with_items(1, Value(0));
        let mut shadow = ShadowStore::new(&base, TxnId::new(1, 0));
        shadow.write(Key(0), Value(1));
        let _ = shadow.read(Key(0));
        assert!(shadow.read_set().is_empty());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn iter_visits_every_item() {
        let s = Store::with_items(5, Value(3));
        let mut keys: Vec<u64> = s.iter().map(|(k, _)| k.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
        assert!(s.iter().all(|(_, v)| v.value == Value(3) && v.version == 0));
    }

    #[test]
    fn fingerprint_is_order_of_insertion_independent() {
        let mut a = Store::new();
        let mut b = Store::new();
        let t = TxnId::new(1, 0);
        for k in 0..10 {
            a.write(Key(k), Value(k as i64), t);
        }
        for k in (0..10).rev() {
            b.write(Key(k), Value(k as i64), t);
        }
        // Versions equal (1 each), values equal → fingerprints equal even
        // though the backing internals differ.
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn snapshot_round_trips_full_state() {
        let mut donor = Store::with_items(4, Value(0));
        let t = TxnId::new(7, 2);
        donor.write(Key(1), Value(11), t);
        donor.write(Key(3), Value(-5), t);
        let snap = donor.snapshot();
        // Key-sorted and complete.
        let keys: Vec<u64> = snap.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![0, 1, 2, 3]);
        // Install replaces a diverged store entirely.
        let mut joiner = Store::with_items(9, Value(42));
        joiner.install_snapshot(&snap);
        assert_eq!(joiner.len(), donor.len());
        assert_eq!(joiner.fingerprint(), donor.fingerprint());
        assert_eq!(joiner.read(Key(1)).expect("exists").writer, Some(t));
    }

    #[test]
    fn shadow_writeset_is_key_sorted() {
        let base = Store::with_items(5, Value(0));
        let mut sh = ShadowStore::new(&base, TxnId::new(2, 0));
        sh.write(Key(4), Value(1));
        sh.write(Key(1), Value(2));
        sh.write(Key(3), Value(3));
        let ws = sh.into_writeset();
        let keys: Vec<u64> = ws.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![1, 3, 4]);
    }

    #[test]
    fn dense_and_sparse_backings_agree() {
        let mut d = Store::with_keyspace(Keyspace::dense(8), Value(0));
        let mut s = Store::with_keyspace(Keyspace::sparse(8), Value(0));
        let t = TxnId::new(1, 0);
        for k in [3u64, 0, 7, 3, 5] {
            assert_eq!(
                d.write(Key(k), Value(k as i64), t),
                s.write(Key(k), Value(k as i64), t)
            );
        }
        assert_eq!(d.len(), s.len());
        assert_eq!(d.fingerprint(), s.fingerprint());
        assert_eq!(d.snapshot(), s.snapshot());
        for k in 0..8 {
            assert_eq!(d.read(Key(k)), s.read(Key(k)));
        }
    }

    #[test]
    fn dense_store_tolerates_out_of_range_keys() {
        let mut d = Store::with_keyspace(Keyspace::dense(4), Value(0));
        let t = TxnId::new(2, 1);
        // A key beyond the declared bound lands in the sparse overflow
        // with identical semantics (created at version 1).
        let v = d.write(Key(100), Value(6), t);
        assert_eq!(v.version, 1);
        assert_eq!(d.len(), 5);
        assert_eq!(d.read(Key(100)).expect("exists").value, Value(6));
        let snap = d.snapshot();
        assert_eq!(snap.last().expect("nonempty").0, Key(100));
        // Round-trips through snapshot install, including the overflow key.
        let mut fresh = Store::with_keyspace(Keyspace::dense(4), Value(9));
        fresh.install_snapshot(&snap);
        assert_eq!(fresh.fingerprint(), d.fingerprint());
    }
}
