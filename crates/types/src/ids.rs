//! Identifiers and the simulated time unit.

use std::fmt;

use tc_sim::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

/// Simulated time, in nanoseconds.
///
/// The target system runs a 1 GHz processor clock (ISCA 2003 Table 1), so one
/// nanosecond is also one processor cycle; the two terms are used
/// interchangeably throughout the workspace.
pub type Cycle = u64;

/// Identifier of a highly-integrated node.
///
/// Each node contains a processor, two levels of cache, a coherence
/// controller, and the memory controller (home) for an interleaved slice of
/// physical memory, matching the "glueless" node of the paper (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node identifier from a dense index.
    pub fn new(index: usize) -> Self {
        NodeId(index as u16)
    }

    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// On the wire a node id is a `u32`.
impl Snap for NodeId {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(u32::from(self.0));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(NodeId::new(r.u32()? as usize))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId::new(value)
    }
}

/// Identifier of an outstanding processor memory request (miss).
///
/// Request identifiers are unique per node for the lifetime of a simulation
/// and are used to match miss completions back to the processor model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(u64);

impl ReqId {
    /// Creates a request identifier from a raw value.
    pub fn new(value: u64) -> Self {
        ReqId(value)
    }

    /// Returns the raw value of this request identifier.
    pub fn value(self) -> u64 {
        self.0
    }
}

snap_struct!(ReqId(value));

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_index() {
        for i in 0..64 {
            assert_eq!(NodeId::new(i).index(), i);
        }
    }

    #[test]
    fn node_id_display_is_compact() {
        assert_eq!(NodeId::new(3).to_string(), "P3");
    }

    #[test]
    fn node_id_orders_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(5), NodeId::from(5));
    }

    #[test]
    fn req_id_round_trips() {
        let id = ReqId::new(42);
        assert_eq!(id.value(), 42);
        assert_eq!(id.to_string(), "req#42");
    }
}
