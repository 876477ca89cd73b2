//! What every controller's MSHR keeps per merged processor operation (in a
//! `tc_sim::FifoPool` list), and how a node tags the store versions it
//! mints.

use tc_sim::snap_struct;
use tc_types::{NodeId, ReqId};

/// One pending processor operation merged into an outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingOp {
    /// The processor request to complete.
    pub req_id: ReqId,
    /// Whether it is a store.
    pub write: bool,
}

snap_struct!(PendingOp { req_id, write });

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
    use tc_sim::{Fifo, FifoPool, Snap, SnapReader, SnapWith, SnapWriter};

    #[test]
    fn pending_list_reads_back_in_order_and_rejects_truncation() {
        let mut pool = FifoPool::new();
        let mut list = Fifo::new();
        for (id, write) in [(7, false), (8, true), (9, false)] {
            let req_id = ReqId::new(id);
            pool.push(&mut list, PendingOp { req_id, write });
        }
        let mut w = SnapWriter::new();
        list.save_with(&mut w, &pool);
        let bytes = w.into_bytes();
        let mut seq = SnapWriter::new();
        seq.seq(pool.iter(&list), |w, op| op.save(w));
        assert_eq!(bytes, seq.into_bytes(), "a list is the sequence of its ops");

        let mut fresh = FifoPool::new();
        let mut r = SnapReader::new(&bytes);
        let read = Fifo::load_with(&mut r, &mut fresh).unwrap();
        r.finish().unwrap();
        let ops = |pool: &FifoPool<PendingOp>, l: &Fifo| pool.iter(l).copied().collect::<Vec<_>>();
        assert_eq!(ops(&fresh, &read), ops(&pool, &list));

        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert!(Fifo::load_with(&mut r, &mut FifoPool::<PendingOp>::new()).is_err());
    }

    #[test]
    fn version_tags_are_disjoint_across_nodes() {
        let tag = |n| version_node_bits(NodeId::new(n));
        assert_eq!(tag(0), 1 << 40);
        assert!(tag(0) | ((1 << 40) - 1) < tag(1));
    }
}
