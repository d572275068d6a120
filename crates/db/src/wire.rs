//! Logical wire-size accounting shared by every payload type.
//!
//! Every message charges `header + items × per_item` bytes for a payload
//! regardless of its in-memory representation: an `Arc`-shared
//! writeset costs the same wire bytes as the records it stands for.
//! Deriving every `wire_size` from the one formula here (and the
//! per-type constants) means a representation change can never
//! silently shift byte accounting — and therefore never shift the run
//! digests the determinism suites pin.

/// Bytes charged per [`WriteRecord`](crate::WriteRecord): key + value + version.
pub const WRITE_RECORD_BYTES: usize = 24;
/// Header bytes of a writeset: transaction id + record count.
pub const WRITESET_HEADER_BYTES: usize = 16;
/// Bytes per transaction-template operation: tag + key + value.
pub const OP_TEMPLATE_BYTES: usize = 17;
/// Header bytes of a client operation: op id + client + template length.
pub const CLIENT_OP_HEADER_BYTES: usize = 24;
/// Bytes per observed read in a response: key + value.
pub const READ_PAIR_BYTES: usize = 16;
/// Header bytes of a response: op id + verdict.
pub const RESPONSE_HEADER_BYTES: usize = 16;

/// The one logical-bytes formula: `header + items * per_item`.
#[inline]
pub fn logical_bytes(header: usize, items: usize, per_item: usize) -> usize {
    header + items * per_item
}

/// Logical bytes of a writeset holding `records` write records —
/// shared by [`WriteSet`](crate::WriteSet) and every message that
/// carries one, so every representation charges identically.
#[inline]
pub fn writeset_bytes(records: usize) -> usize {
    logical_bytes(WRITESET_HEADER_BYTES, records, WRITE_RECORD_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writeset_bytes_matches_the_formula() {
        assert_eq!(writeset_bytes(0), 16);
        assert_eq!(writeset_bytes(1), 40);
        assert_eq!(writeset_bytes(256), 16 + 256 * 24);
    }
}
