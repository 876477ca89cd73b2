//! What every controller's MSHR keeps per merged processor operation, and
//! the two small conventions that go with it: how a pending list travels in
//! a snapshot, and how a node tags the store versions it mints.

use tc_sim::{snap_struct, Snap, SnapReader, SnapWith, SnapWriter, SnapshotError};
use tc_types::{NodeId, ReqId};

use crate::op_slab::{OpList, OpSlab};

/// One pending processor operation merged into an outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingOp {
    /// The processor request to complete.
    pub req_id: ReqId,
    /// Whether it is a store.
    pub write: bool,
}

snap_struct!(PendingOp { req_id, write });

/// A pending list is its ops, front to back, as a sequence: written out of
/// the controller's pool and re-minted into it on load.
impl SnapWith<OpSlab<PendingOp>> for OpList {
    fn save_with(&self, w: &mut SnapWriter, slab: &OpSlab<PendingOp>) {
        w.seq(slab.iter(self), |w, op| op.save(w));
    }
    fn load_with(
        r: &mut SnapReader<'_>,
        slab: &mut OpSlab<PendingOp>,
    ) -> Result<OpList, SnapshotError> {
        let mut pending = OpList::new();
        for _ in 0..r.bounded_len(9)? {
            slab.push(&mut pending, PendingOp::load(r)?);
        }
        Ok(pending)
    }
}

/// The version-counter node tag: per-node store versions are
/// `((node + 1) << 40) | counter`, unique across nodes and monotone per
/// node.
#[inline]
pub fn version_node_bits(node: NodeId) -> u64 {
    (node.index() as u64 + 1) << 40
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_list_reads_back_in_order_and_rejects_truncation() {
        let mut slab = OpSlab::new();
        let mut list = OpList::new();
        for (id, write) in [(7, false), (8, true), (9, false)] {
            let req_id = ReqId::new(id);
            slab.push(&mut list, PendingOp { req_id, write });
        }
        let mut w = SnapWriter::new();
        list.save_with(&mut w, &slab);
        let bytes = w.into_bytes();
        let mut seq = SnapWriter::new();
        seq.seq(slab.iter(&list), |w, op| op.save(w));
        assert_eq!(bytes, seq.into_bytes(), "a list is the sequence of its ops");

        let mut fresh = OpSlab::new();
        let mut r = SnapReader::new(&bytes);
        let read = OpList::load_with(&mut r, &mut fresh).unwrap();
        r.finish().unwrap();
        let ops = |slab: &OpSlab<PendingOp>, l: &OpList| slab.iter(l).copied().collect::<Vec<_>>();
        assert_eq!(ops(&fresh, &read), ops(&slab, &list));

        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert!(OpList::load_with(&mut r, &mut OpSlab::new()).is_err());
    }

    #[test]
    fn version_tags_are_disjoint_across_nodes() {
        let tag = |n| version_node_bits(NodeId::new(n));
        assert_eq!(tag(0), 1 << 40);
        assert!(tag(0) | ((1 << 40) - 1) < tag(1));
    }
}
