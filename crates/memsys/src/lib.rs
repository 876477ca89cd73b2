//! Memory-system building blocks.
//!
//! Coherence protocols in this workspace are built from five reusable pieces:
//!
//! * [`LineTable`] — the compact, open-addressed per-block-address store
//!   every sparse per-line structure (MSHRs, writeback buffers, home state,
//!   persistent-request entries) sits on, with occupancy high-water tracking
//!   built in for the engine's state accounting.
//! * [`SetAssocCache`] — a set-associative, LRU-replacement tag array with a
//!   protocol-defined per-line state type. The unified L2 of every node is
//!   one of these; it is the coherence point of the node.
//! * [`L1Filter`] — a small presence cache used to decide whether a hit
//!   costs L1 latency or L1+L2 latency. Coherence state is kept only at the
//!   (inclusive) L2, which matches how the paper's protocols are described
//!   and keeps the four protocol implementations focused on coherence. Each
//!   entry carries an L2 slot hint so the shared [`hinted_get`] front path
//!   skips the L2 tag probe on hits.
//! * [`MshrTable`] — bookkeeping for outstanding misses (miss status holding
//!   registers), with a configurable capacity.
//! * [`PendingOp`] — the record an MSHR entry keeps per processor op merged
//!   into its miss (in a `tc_sim::FifoPool` list, so churny miss traffic
//!   allocates nothing in the steady state), with the per-node
//!   store-version tag beside it.
//! * [`HomeMemory`] — per-home-node storage: the DRAM copy of each block (a
//!   version number standing in for 64 bytes of data) plus protocol-specific
//!   home state (directory entries, memory token counts, owner bits).
//!
//! # Example
//!
//! ```
//! use tc_memsys::SetAssocCache;
//! use tc_types::{BlockAddr, CacheConfig};
//!
//! let config = CacheConfig { size_bytes: 4096, associativity: 2, latency_ns: 6 };
//! let mut cache: SetAssocCache<u32> = SetAssocCache::new(&config, 64);
//! assert!(cache.insert(BlockAddr::new(7), 99).is_none());
//! assert_eq!(cache.get(BlockAddr::new(7)).copied(), Some(99));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod line_table;
pub mod memory;
pub mod mshr;
pub mod pending;

pub use cache::{hinted_get, CacheLine, L1Filter, SetAssocCache};
pub use line_table::LineTable;
pub use memory::HomeMemory;
pub use mshr::MshrTable;
pub use pending::{version_node_bits, PendingOp};
