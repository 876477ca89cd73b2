//! The per-node table of active persistent requests.

use tc_memsys::LineTable;
use tc_sim::snap_struct;
use tc_types::{BlockAddr, NodeId};

/// The hardware table each node keeps of activated persistent requests
/// (Section 3.2: an 8-byte entry per home-memory arbiter).
///
/// An entry is the starving node that must receive all tokens for its
/// block. While it is present, the node must forward every token it holds
/// for that block — and every token it receives later — to that requester,
/// until the arbiter broadcasts a deactivation. Entries live on the shared
/// [`LineTable`] plane: the table is probed on every token receipt and
/// every transient-request snoop, and nothing depends on iteration order.
#[derive(Debug, Clone, Default)]
pub struct PersistentTable {
    entries: LineTable<NodeId>,
    activations_seen: u64,
}

impl PersistentTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PersistentTable::default()
    }

    /// Records an activation broadcast by an arbiter.
    pub fn activate(&mut self, addr: BlockAddr, requester: NodeId) {
        self.activations_seen += 1;
        self.entries.insert(addr, requester);
    }

    /// Removes the entry for `addr` (a deactivation broadcast). Returns the
    /// requester that was active, if any.
    pub fn deactivate(&mut self, addr: BlockAddr) -> Option<NodeId> {
        self.entries.remove(addr)
    }

    /// The requester of the active persistent request for `addr`, if any.
    pub fn active(&self, addr: BlockAddr) -> Option<NodeId> {
        self.entries.get(addr).copied()
    }

    /// Returns the requester that tokens for `addr` must be forwarded to, if
    /// it is some node other than `me`.
    pub fn forward_target(&self, addr: BlockAddr, me: NodeId) -> Option<NodeId> {
        match self.entries.get(addr) {
            Some(&requester) if requester != me => Some(requester),
            _ => None,
        }
    }

    /// Number of entries currently active.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no persistent requests are active.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of activations this node has observed.
    pub fn activations_seen(&self) -> u64 {
        self.activations_seen
    }

    /// Peak number of simultaneously active entries.
    pub fn high_water(&self) -> usize {
        self.entries.high_water()
    }

    /// Bytes allocated by the backing line table.
    pub fn state_bytes(&self) -> u64 {
        self.entries.allocated_bytes()
    }
}

snap_struct!(PersistentTable {
    activations_seen,
    entries,
});

#[cfg(test)]
mod tests {
    use super::*;
    use tc_sim::{Snap, SnapReader, SnapWriter};

    #[test]
    fn entry_round_trips() {
        let mut table = PersistentTable::new();
        table.activate(BlockAddr::new(5), NodeId::new(2));
        let mut w = SnapWriter::new();
        table.save(&mut w);
        let bytes = w.into_bytes();
        let back = PersistentTable::load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.active(BlockAddr::new(5)), Some(NodeId::new(2)));
        assert_eq!(back.activations_seen(), 1);
    }

    #[test]
    fn activate_then_deactivate_round_trips() {
        let mut table = PersistentTable::new();
        assert!(table.is_empty());
        table.activate(BlockAddr::new(5), NodeId::new(2));
        assert_eq!(table.len(), 1);
        assert_eq!(table.active(BlockAddr::new(5)), Some(NodeId::new(2)));
        assert_eq!(table.deactivate(BlockAddr::new(5)), Some(NodeId::new(2)));
        assert!(table.active(BlockAddr::new(5)).is_none());
    }

    #[test]
    fn forward_target_excludes_the_requester_itself() {
        let mut table = PersistentTable::new();
        table.activate(BlockAddr::new(9), NodeId::new(3));
        assert_eq!(
            table.forward_target(BlockAddr::new(9), NodeId::new(1)),
            Some(NodeId::new(3))
        );
        assert_eq!(
            table.forward_target(BlockAddr::new(9), NodeId::new(3)),
            None
        );
        assert_eq!(
            table.forward_target(BlockAddr::new(10), NodeId::new(1)),
            None
        );
    }

    #[test]
    fn one_entry_per_block_with_replacement() {
        let mut table = PersistentTable::new();
        table.activate(BlockAddr::new(1), NodeId::new(0));
        table.activate(BlockAddr::new(1), NodeId::new(4));
        assert_eq!(table.len(), 1);
        assert_eq!(table.active(BlockAddr::new(1)), Some(NodeId::new(4)));
        assert_eq!(table.activations_seen(), 2);
    }

    #[test]
    fn deactivating_missing_entry_is_harmless() {
        let mut table = PersistentTable::new();
        assert!(table.deactivate(BlockAddr::new(77)).is_none());
    }
}
