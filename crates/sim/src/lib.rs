//! Discrete-event simulation kernel.
//!
//! The kernel is intentionally small: a time-ordered [`EventQueue`] (a
//! calendar queue with deterministic FIFO tie-breaking, its events linked
//! per cycle through a [`FifoPool`], the pooled FIFO lists the controllers'
//! MSHRs keep their merged operations in too), a generation-checked
//! slab [`Arena`] that keeps large event payloads out of the queue's moves,
//! and a tiny deterministic pseudo-random number generator
//! ([`DeterministicRng`]) used for randomized exponential backoff and
//! workload generation. Determinism matters here because the whole
//! evaluation compares protocols on *identical* workload streams; the same
//! seed must reproduce the same simulation to the cycle.
//!
//! # Example
//!
//! ```
//! use tc_sim::EventQueue;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(20, "second");
//! q.schedule(10, "first");
//! q.schedule(20, "third");
//!
//! assert_eq!(q.pop(), Some((10, "first")));
//! // Same-time events pop in insertion order.
//! assert_eq!(q.pop(), Some((20, "second")));
//! assert_eq!(q.pop(), Some((20, "third")));
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod fifo;
pub mod queue;
pub mod rng;
pub mod snapshot;

pub use arena::{Arena, ArenaRef};
pub use fifo::{Fifo, FifoPool};
pub use queue::EventQueue;
pub use rng::DeterministicRng;
pub use snapshot::{
    fnv1a64, open, seal, Snap, SnapEach, SnapReader, SnapState, SnapWith, SnapWriter,
    SnapshotError, SNAPSHOT_VERSION,
};

/// Simulated time in nanoseconds (equal to processor cycles at 1 GHz).
pub type Cycle = u64;
