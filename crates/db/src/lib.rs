//! # repl-db — the database kernel under the replication reproduction
//!
//! The database-side substrate of *Understanding Replication in Databases
//! and Distributed Systems* (Wiesmann et al., ICDCS 2000):
//!
//! * [`Store`] — one site's versioned physical copies; [`ShadowStore`]
//!   for optimistic (certification-based) execution,
//! * [`LockManager`] — strict two-phase locking with wound-wait
//!   prevention or wait-for-graph deadlock detection,
//! * [`TxnManager`] — begin/read/write/commit/abort with undo,
//! * [`WriteSet`]/[`RedoLog`] — the log records replication propagates,
//! * [`TpcCoordinator`]/[`TpcParticipant`] — two-phase commit,
//! * [`Certifier`] — the deterministic certification test,
//! * [`Transfer`]/[`RecoveryTracker`] — crash-recovery state transfer
//!   (log-suffix vs snapshot) and MTTR accounting,
//! * [`DurableLog`] — the off-node durable log tier (sealed frames,
//!   durable watermark, disaster wipe/restore),
//! * [`ReplicatedHistory`] — one-copy-serializability checking.
//!
//! The crate is pure data structures and state machines: no I/O, no
//! simulator dependency. The replication protocols in `repl-core` embed
//! these pieces inside simulated server actors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certify;
mod durable;
pub mod hash;
mod history;
mod item;
mod locks;
mod log;
mod recovery;
mod store;
mod twopc;
mod txn;
pub mod wire;

pub use certify::{Certification, Certifier};
pub use durable::{DurableFrame, DurableLog, DurableRestore};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use history::{HistOp, ReplicatedHistory, SerializabilityViolation};
pub use item::{AccessKind, Key, Keyspace, TxnId, Value};
pub use locks::{Acquire, DeadlockPolicy, LockManager, LockMode};
pub use log::{RedoLog, WriteRecord, WriteSet, FSYNC_TICKS};
pub use recovery::{RecoveryTracker, Transfer, TransferStrategy};
pub use store::{ShadowStore, Store, Versioned};
pub use twopc::{TpcCoordState, TpcCoordinator, TpcDecision, TpcMsg, TpcPartState, TpcParticipant};
pub use txn::{TxnManager, UnknownTxn};
