//! Client operations and responses: the unit of work the replication
//! techniques replicate.
//!
//! Following the paper, a client submits a *transaction* that is either a
//! single operation (Sections 3–4, the stored-procedure model) or a partial
//! order of reads and writes (Section 5). Both are represented by a
//! [`TxnTemplate`] from `repl-workload`; single-operation transactions are
//! templates of length one.

use std::fmt;

use repl_db::{wire, Key, Value};
use repl_sim::{Message, NodeId};
use repl_workload::{OpTemplate, TxnTemplate};

/// Globally unique operation (client-transaction) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpId(pub u64);

impl OpId {
    /// Builds an id from a client number and a per-client sequence number.
    pub fn compose(client: u32, seq: u32) -> Self {
        OpId(((client as u64) << 32) | seq as u64)
    }

    /// The client number encoded in the id.
    pub fn client(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The per-client sequence number encoded in the id.
    pub fn seq(self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}.{}", self.client(), self.seq())
    }
}

/// A client's request: one (possibly multi-operation) transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOp {
    /// Unique id, also used for duplicate suppression on retry.
    pub id: OpId,
    /// The node id of the issuing client (responses go here).
    pub client: NodeId,
    /// The transaction body.
    pub txn: TxnTemplate,
}

impl ClientOp {
    /// True if the transaction only reads.
    pub fn is_read_only(&self) -> bool {
        self.txn.is_read_only()
    }
}

impl Message for ClientOp {
    fn wire_size(&self) -> usize {
        wire::logical_bytes(
            wire::CLIENT_OP_HEADER_BYTES,
            self.txn.ops.len(),
            wire::OP_TEMPLATE_BYTES,
        )
    }
}

/// The outcome of a client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The operation this answers.
    pub op: OpId,
    /// Whether the transaction committed (lazy and certification-based
    /// techniques can abort or reconcile).
    pub committed: bool,
    /// Values observed by the transaction's reads, in program order.
    pub reads: Vec<(Key, Value)>,
}

impl Response {
    /// A committed response with no reads.
    pub fn committed(op: OpId) -> Self {
        Response {
            op,
            committed: true,
            reads: Vec::new(),
        }
    }

    /// An aborted response.
    pub fn aborted(op: OpId) -> Self {
        Response {
            op,
            committed: false,
            reads: Vec::new(),
        }
    }

    /// Approximate wire size for message accounting.
    pub fn wire_size(&self) -> usize {
        wire::logical_bytes(
            wire::RESPONSE_HEADER_BYTES,
            self.reads.len(),
            wire::READ_PAIR_BYTES,
        )
    }
}

/// Restates a transaction template's accesses as `(key, is_write, value)`
/// triples, convenient for protocol execution loops.
pub fn accesses(txn: &TxnTemplate) -> impl Iterator<Item = (Key, Option<Value>)> + '_ {
    txn.ops.iter().map(|op| match *op {
        OpTemplate::Read(k) => (k, None),
        OpTemplate::Write(k, v) => (k, Some(v)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_composition_roundtrips() {
        let id = OpId::compose(7, 42);
        assert_eq!(id.client(), 7);
        assert_eq!(id.seq(), 42);
        assert_eq!(id.to_string(), "op7.42");
        assert!(OpId::compose(1, 0) < OpId::compose(2, 0));
        assert!(OpId::compose(1, 0) < OpId::compose(1, 1));
    }

    #[test]
    fn response_constructors() {
        let ok = Response::committed(OpId(1));
        assert!(ok.committed);
        let no = Response::aborted(OpId(1));
        assert!(!no.committed);
        assert!(no.reads.is_empty());
    }

    #[test]
    fn accesses_maps_templates() {
        let txn = TxnTemplate {
            ops: vec![
                OpTemplate::Read(Key(1)),
                OpTemplate::Write(Key(2), Value(9)),
            ],
        };
        let acc: Vec<_> = accesses(&txn).collect();
        assert_eq!(acc, vec![(Key(1), None), (Key(2), Some(Value(9)))]);
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = ClientOp {
            id: OpId(1),
            client: NodeId::new(0),
            txn: TxnTemplate {
                ops: vec![OpTemplate::Read(Key(0))],
            },
        };
        let big = ClientOp {
            id: OpId(2),
            client: NodeId::new(0),
            txn: TxnTemplate {
                ops: vec![OpTemplate::Read(Key(0)); 10],
            },
        };
        assert!(Message::wire_size(&big) > Message::wire_size(&small));
    }

    #[test]
    fn wire_sizes_are_pinned_per_type() {
        // Byte accounting feeds bytes_sent and thus run digests: these
        // constants are load-bearing. Any change must be deliberate.
        let op = |n: usize| ClientOp {
            id: OpId(1),
            client: NodeId::new(0),
            txn: TxnTemplate {
                ops: vec![OpTemplate::Read(Key(0)); n],
            },
        };
        assert_eq!(Message::wire_size(&op(0)), 24);
        assert_eq!(Message::wire_size(&op(1)), 24 + 17);
        assert_eq!(Message::wire_size(&op(10)), 24 + 10 * 17);
        let resp = |n: usize| Response {
            op: OpId(1),
            committed: true,
            reads: vec![(Key(0), Value(0)); n],
        };
        assert_eq!(resp(0).wire_size(), 16);
        assert_eq!(resp(3).wire_size(), 16 + 3 * 16);
        // Writesets share the same helper family (24 bytes per record,
        // 16-byte header).
        assert_eq!(wire::writeset_bytes(0), 16);
        assert_eq!(wire::writeset_bytes(256), 16 + 256 * 24);
    }
}
