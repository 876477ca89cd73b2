//! Physical addresses, cache-block addresses, and the home-node map.

use std::fmt;

use tc_sim::snap_struct;

use crate::ids::NodeId;

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates a physical address from a raw byte address.
    pub fn new(addr: u64) -> Self {
        Address(addr)
    }

    /// Returns the raw byte address.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns the block this address falls into for the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn block(self, block_bytes: u64) -> BlockAddr {
        BlockAddr::from_address(self, block_bytes)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Address {
    fn from(value: u64) -> Self {
        Address(value)
    }
}

/// A cache-block-aligned address (the byte address divided by the block size).
///
/// All coherence state — tokens, directory entries, cache tags — is kept at
/// block granularity, so the simulator works almost exclusively in terms of
/// `BlockAddr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address directly from a block number.
    pub fn new(block_number: u64) -> Self {
        BlockAddr(block_number)
    }

    /// Computes the block address containing a byte address.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn from_address(addr: Address, block_bytes: u64) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two, got {block_bytes}"
        );
        BlockAddr(addr.value() >> block_bytes.trailing_zeros())
    }

    /// Returns the block number.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns the first byte address covered by this block.
    pub fn base_address(self, block_bytes: u64) -> Address {
        Address::new(self.0 * block_bytes)
    }
}

snap_struct!(BlockAddr(block_number));

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(value: u64) -> Self {
        BlockAddr(value)
    }
}

/// Maps blocks to their home node (memory controller).
///
/// Physical memory is block-interleaved across all nodes, as in the Alpha
/// 21364 and AMD Hammer systems the paper models: block `b` lives at node
/// `b mod N`. The home node holds the block's memory copy, its directory
/// entry (directory protocol), its memory "owner bit" (snooping protocol),
/// and its persistent-request arbiter (Token Coherence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeMap {
    num_nodes: usize,
    block_bytes: u64,
    /// `num_nodes - 1` when the node count is a power of two, letting
    /// [`HomeMap::home_of`] mask instead of dividing: it runs on every
    /// request issue and every home-side message receipt. Zero disables it.
    node_mask: u64,
}

impl HomeMap {
    /// Creates a home map for a system with `num_nodes` nodes and
    /// `block_bytes`-byte cache blocks.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: usize, block_bytes: u64) -> Self {
        assert!(num_nodes > 0, "a system needs at least one node");
        HomeMap {
            num_nodes,
            block_bytes,
            node_mask: if num_nodes.is_power_of_two() {
                num_nodes as u64 - 1
            } else {
                0
            },
        }
    }

    /// Returns the number of nodes covered by this map.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Returns the cache-block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Returns the home node of a block.
    #[inline]
    pub fn home_of(&self, block: BlockAddr) -> NodeId {
        if self.node_mask != 0 {
            NodeId::new((block.value() & self.node_mask) as usize)
        } else {
            NodeId::new((block.value() % self.num_nodes as u64) as usize)
        }
    }

    /// Returns the home node of a byte address.
    pub fn home_of_address(&self, addr: Address) -> NodeId {
        self.home_of(addr.block(self.block_bytes))
    }

    /// Returns `true` if `node` is the home of `block`.
    pub fn is_home(&self, node: NodeId, block: BlockAddr) -> bool {
        self.home_of(block) == node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_addr_from_address_shifts_by_block_size() {
        let a = Address::new(0x1000);
        assert_eq!(a.block(64), BlockAddr::new(0x40));
        assert_eq!(a.block(128), BlockAddr::new(0x20));
    }

    #[test]
    fn block_base_address_round_trips() {
        let b = BlockAddr::new(0x40);
        assert_eq!(b.base_address(64), Address::new(0x1000));
        assert_eq!(Address::new(0x1000).block(64), b);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_size_panics() {
        let _ = Address::new(0).block(48);
    }

    #[test]
    fn addresses_in_same_block_map_to_same_block() {
        let base = Address::new(0x2000);
        for offset in 0..64 {
            assert_eq!(
                Address::new(base.value() + offset).block(64),
                base.block(64)
            );
        }
        assert_ne!(Address::new(base.value() + 64).block(64), base.block(64));
    }

    #[test]
    fn home_map_interleaves_blocks() {
        let map = HomeMap::new(16, 64);
        assert_eq!(map.home_of(BlockAddr::new(0)), NodeId::new(0));
        assert_eq!(map.home_of(BlockAddr::new(1)), NodeId::new(1));
        assert_eq!(map.home_of(BlockAddr::new(16)), NodeId::new(0));
        assert_eq!(map.home_of(BlockAddr::new(33)), NodeId::new(1));
    }

    #[test]
    fn home_map_covers_all_nodes() {
        let map = HomeMap::new(7, 64);
        let mut seen = [false; 7];
        for b in 0..70 {
            seen[map.home_of(BlockAddr::new(b)).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn home_of_address_matches_home_of_block() {
        let map = HomeMap::new(4, 64);
        let addr = Address::new(0x1234);
        assert_eq!(map.home_of_address(addr), map.home_of(addr.block(64)));
        assert!(map.is_home(map.home_of_address(addr), addr.block(64)));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_home_map_panics() {
        let _ = HomeMap::new(0, 64);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Address::new(0xff).to_string(), "0xff");
        assert_eq!(BlockAddr::new(0x10).to_string(), "blk:0x10");
    }
}
