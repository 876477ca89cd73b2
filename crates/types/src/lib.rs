//! Common types for the Token Coherence reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * identifiers ([`NodeId`], [`ReqId`], the [`Cycle`] time unit),
//! * physical and block addresses ([`Address`], [`BlockAddr`], [`HomeMap`]),
//! * coherence messages ([`Message`], [`MsgKind`], [`Destination`], [`Vnet`]),
//! * processor-side memory operations ([`MemOp`], [`MemOpKind`]),
//! * system configuration ([`SystemConfig`] and friends, including the ISCA
//!   2003 Table 1 defaults),
//! * statistics containers ([`TrafficStats`], [`MissStats`], [`ControllerStats`]),
//! * the protocol-controller API ([`CoherenceController`], [`Outbox`],
//!   [`AccessOutcome`]) that the system runner uses to drive any of the four
//!   coherence protocols, and
//! * error / invariant-violation types.
//!
//! Nothing in this crate performs simulation itself; it exists so that the
//! interconnect, cache, protocol, and system crates can interoperate without
//! depending on each other.
//!
//! # Example
//!
//! ```
//! use tc_types::{Address, BlockAddr, HomeMap, NodeId, SystemConfig};
//!
//! let config = SystemConfig::isca03_default();
//! assert_eq!(config.num_nodes, 16);
//!
//! let addr = Address::new(0x1_2345);
//! let block = BlockAddr::from_address(addr, config.block_bytes);
//! let home = HomeMap::new(config.num_nodes, config.block_bytes).home_of(block);
//! assert!(home.index() < config.num_nodes);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod adversary;
mod clauses;
pub mod config;
pub mod controller;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod job;
pub mod json;
pub mod memop;
pub mod message;
pub mod stats;

pub use addr::{Address, BlockAddr, HomeMap};
pub use adversary::{AdversaryKind, AdversarySpec, AdversaryStats};
pub use config::{
    BandwidthMode, CacheConfig, DirectoryMode, InterconnectConfig, ProcessorConfig, ProtocolKind,
    SystemConfig, TokenConfig, TopologyKind,
};
pub use controller::{
    AccessOutcome, BlockAudit, CoherenceController, MissCompletion, MissKind, Outbox, Timer,
    TimerKind,
};
pub use error::{ConfigError, InvariantViolation};
pub use fault::{FaultKind, FaultSpec, FaultStats, LinkOutage};
pub use hash::{FastHashMap, FastHashSet, FastHasher};
pub use ids::{Cycle, NodeId, ReqId};
pub use job::{JobId, JobPriority, JobState};
pub use json::{Json, JsonError, Wire, WireError};
pub use memop::{AccessType, MemOp, MemOpKind};
pub use message::{
    DataPayload, Destination, Message, MsgKind, Vnet, CONTROL_MSG_BYTES, DATA_MSG_BYTES,
};
pub use stats::{
    ControllerStats, Counter, EngineStats, LineStateStats, MissStats, ReissueStats, ShardStats,
    TrafficClass, TrafficStats,
};
