//! Processor-side memory operations.

use std::fmt;

use tc_sim::snap_enum;

use crate::addr::Address;
use crate::ids::ReqId;

/// Whether an access needs read or read/write permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// Needs at least one token / a shared copy.
    Read,
    /// Needs all tokens / an exclusive copy.
    Write,
}

/// The kind of memory operation a processor issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// A data load.
    Load,
    /// A data store.
    Store,
    /// An instruction fetch (treated as a load by the coherence protocol).
    Ifetch,
    /// An atomic read-modify-write (needs write permission).
    Atomic,
}

impl MemOpKind {
    /// Returns the coherence permission this operation needs.
    pub fn access_type(self) -> AccessType {
        match self {
            MemOpKind::Load | MemOpKind::Ifetch => AccessType::Read,
            MemOpKind::Store | MemOpKind::Atomic => AccessType::Write,
        }
    }

    /// Returns `true` if the operation modifies memory.
    pub fn is_write(self) -> bool {
        self.access_type() == AccessType::Write
    }
}

/// A single memory operation issued by a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Identifier used to match the completion back to the processor.
    pub id: ReqId,
    /// Byte address accessed.
    pub addr: Address,
    /// Load/store/ifetch/atomic.
    pub kind: MemOpKind,
}

impl MemOp {
    /// Creates a memory operation.
    pub fn new(id: ReqId, addr: Address, kind: MemOpKind) -> Self {
        MemOp { id, addr, kind }
    }

    /// Returns the coherence permission this operation needs.
    pub fn access_type(&self) -> AccessType {
        self.kind.access_type()
    }
}

snap_enum!(MemOpKind, "mem op" {
    0 => Load,
    1 => Store,
    2 => Ifetch,
    3 => Atomic,
});

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            MemOpKind::Load => "LD",
            MemOpKind::Store => "ST",
            MemOpKind::Ifetch => "IF",
            MemOpKind::Atomic => "AT",
        };
        write!(f, "{k} {} ({})", self.addr, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_ifetches_need_read_permission() {
        assert_eq!(MemOpKind::Load.access_type(), AccessType::Read);
        assert_eq!(MemOpKind::Ifetch.access_type(), AccessType::Read);
        assert!(!MemOpKind::Load.is_write());
    }

    #[test]
    fn stores_and_atomics_need_write_permission() {
        assert_eq!(MemOpKind::Store.access_type(), AccessType::Write);
        assert_eq!(MemOpKind::Atomic.access_type(), AccessType::Write);
        assert!(MemOpKind::Atomic.is_write());
    }

    #[test]
    fn mem_ops_round_trip_every_kind() {
        for kind in [
            MemOpKind::Load,
            MemOpKind::Store,
            MemOpKind::Ifetch,
            MemOpKind::Atomic,
        ] {
            tc_testkit::assert_snap_round_trip(&kind);
        }
    }

    #[test]
    fn mem_op_exposes_access_type() {
        let op = MemOp::new(ReqId::new(1), Address::new(0x40), MemOpKind::Store);
        assert_eq!(op.access_type(), AccessType::Write);
        assert!(op.to_string().starts_with("ST"));
    }
}
