//! Token Coherence: the paper's primary contribution.
//!
//! Token Coherence decouples a cache-coherence protocol into two parts:
//!
//! * a **correctness substrate** that guarantees *safety* by token counting
//!   (each block has `T` tokens; reading requires a token and valid data,
//!   writing requires all `T`) and *starvation freedom* via **persistent
//!   requests** arbitrated at each block's home node; and
//! * a **performance protocol** that issues unordered *transient* requests as
//!   hints. Transient requests usually succeed; when they race and fail, the
//!   protocol simply reissues them, and in the worst case falls back to a
//!   persistent request. Performance-protocol bugs can cost performance but
//!   never correctness.
//!
//! This crate is cut along that line. The substrate is [`state`], where a
//! cache line, the home memory and a message in flight are the same kind of
//! token holder, [`Holding`], and [`TokenSubstrate`] holds one node's
//! holders, misses and persistent-request state ([`persistent`],
//! [`arbiter`]): its methods are the only code that moves a token.
//! **TokenB** ([`TokenBController`]), the broadcast performance protocol the
//! paper evaluates, is a policy shell over one: it decides which holder is
//! asked, by which rule, when and for whom. Transient requests are broadcast
//! to all nodes, components respond as a MOSI snooping protocol would
//! (including the migratory-sharing optimization), and unsatisfied requests
//! are reissued after roughly twice the average miss latency plus a
//! randomized backoff, escalating to a persistent request after about four
//! reissues. DESIGN.md, "Token substrate and TokenB", maps each invariant to
//! the substrate method that enforces it.
//!
//! The controller implements the protocol-agnostic
//! [`tc_types::CoherenceController`] interface, so the system runner can
//! drive it interchangeably with the baseline Snooping, Directory, and Hammer
//! protocols.
//!
//! # Example
//!
//! ```
//! use tc_core::TokenBController;
//! use tc_types::{CoherenceController, NodeId, SystemConfig};
//!
//! let config = SystemConfig::isca03_default();
//! let controller = TokenBController::new(NodeId::new(0), &config);
//! assert_eq!(controller.protocol_name(), "TokenB");
//! assert_eq!(controller.outstanding_misses(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbiter;
pub mod persistent;
pub mod state;
pub mod timeout;
pub mod tokenb;

pub use arbiter::{ArbiterAction, PersistentArbiter};
pub use persistent::{PersistentEntry, PersistentTable};
pub use state::{Holding, MemTokens, TokenLine, TokenSubstrate, TokenTransfer};
pub use timeout::MissLatencyTracker;
pub use tokenb::TokenBController;
