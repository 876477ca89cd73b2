//! Baseline coherence protocols.
//!
//! The paper compares TokenB against three baselines (Section 5.1), all MOSI
//! invalidation protocols with the migratory-sharing optimization:
//!
//! * [`SnoopingController`] — a traditional split-transaction snooping
//!   protocol in the style of the Sun Starfire. Every request is broadcast on
//!   the totally-ordered tree interconnect; the order established by the root
//!   switch resolves all races, and a single "owner bit" held in memory
//!   decides when memory must respond. It cannot run on the unordered torus.
//! * [`DirectoryController`] — a full-map blocking directory protocol in the
//!   style of the SGI Origin 2000 and Alpha 21364. Requests are sent to the
//!   block's home node, which forwards them to the current owner and issues
//!   invalidations; the directory state lives in DRAM (or in a "perfect"
//!   zero-latency directory cache for the sensitivity study).
//! * [`HammerController`] — a reverse-engineered approximation of AMD's
//!   Hammer protocol: requests go to the home node, which broadcasts a probe
//!   to every node; every node answers the requester directly (data from the
//!   owner, acknowledgements from everyone else), trading directory state and
//!   lookup latency for broadcast and acknowledgement traffic.
//!
//! The three are one machine, [`MosiNode`], under three [`MosiPolicy`]s: the
//! node owns the caches, MSHRs, writeback plane, home memory, the requester
//! side of a miss and the single [`tc_types::CoherenceController`]
//! implementation; each protocol's file holds only its policy — its MSHR and
//! home-entry types, when a miss is ready, where requests go, what follows a
//! completion, and its home/snoop message handlers. A new MOSI-family
//! variant is a fourth policy, not a fourth controller. The interface is the
//! one the TokenB controller in `tc-core` implements, so the system runner
//! and the benchmark harness can swap protocols freely.
//!
//! Construction goes through the [`registry`]: a table of
//! [`registry::ProtocolFactory`] functions keyed by [`tc_types::ProtocolKind`]
//! and by name, with all four paper protocols registered by default. The
//! system runner builds controllers from the registry, so a new protocol
//! variant is a registration, not an engine edit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod directory;
pub mod hammer;
pub mod node;
pub mod registry;
pub mod snooping;

pub use common::{MosiLine, MosiState, WritebackPlane};
pub use directory::DirectoryController;
pub use hammer::HammerController;
pub use node::{MosiNode, MosiPolicy};
pub use registry::{default_registry, ProtocolEntry, ProtocolFactory, ProtocolRegistry};
pub use snooping::SnoopingController;
