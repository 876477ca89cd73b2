//! The coherence-controller API.
//!
//! Every protocol (TokenB, Snooping, Directory, Hammer) implements the
//! [`CoherenceController`] trait. The system runner drives controllers with
//! three kinds of events — processor accesses, message deliveries, and timer
//! expirations — and the controller communicates back through an [`Outbox`]:
//! messages to inject into the interconnect, completed misses to hand back to
//! the processor, and timers to arm.
//!
//! A controller also snapshots itself: [`CoherenceController::save_state`] /
//! [`CoherenceController::load_state`] write and restore its mutable state,
//! both generated from one `tc_sim::snap_state!` field list.

use std::fmt;

use tc_sim::snapshot::{SnapReader, SnapWriter, SnapshotError};
use tc_sim::{snap_enum, snap_struct, SnapState};

use crate::addr::BlockAddr;
use crate::ids::{Cycle, NodeId, ReqId};
use crate::memop::MemOp;
use crate::message::Message;
use crate::stats::{ControllerStats, LineStateStats};

/// How a processor access was satisfied (or not) by the local cache
/// hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access hit locally; the processor sees `latency` cycles.
    Hit {
        /// Total hit latency in cycles (L1 or L1+L2).
        latency: Cycle,
        /// Version of the block contents observed (loads) or produced
        /// (stores), used by the verification layer.
        version: u64,
        /// Earliest instant at which the observed value may legally be
        /// considered current — the serialization lower bound of the copy
        /// the hit was served from. Protocols whose copies are protected by
        /// acknowledgements (directory, hammer) or token counting (TokenB)
        /// report the access time itself: their hits are wall-clock fresh.
        /// Unacknowledged snooping reports the fill transaction's issue
        /// time: a copy installed from an earlier point in the broadcast
        /// total order may legally serve a value that a later-ordered (but
        /// earlier-completing) remote write has already superseded, until
        /// the invalidating broadcast arrives here.
        valid_since: Cycle,
    },
    /// The access missed; a [`MissCompletion`] with the same [`ReqId`] will be
    /// delivered through the outbox when the protocol has obtained the block.
    Miss,
}

/// What kind of miss a completed request was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// A load (or instruction fetch) that missed.
    Read,
    /// A store that missed with no local copy at all.
    Write,
    /// A store that hit a read-only copy and needed an upgrade.
    Upgrade,
}

/// Notification that an outstanding miss has completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissCompletion {
    /// The processor request this completes.
    pub req_id: ReqId,
    /// The block concerned.
    pub addr: BlockAddr,
    /// What kind of miss it was.
    pub kind: MissKind,
    /// When the miss was issued to the protocol.
    pub issued_at: Cycle,
    /// When the miss completed.
    pub completed_at: Cycle,
    /// Version of the block contents observed (reads) or produced (writes).
    pub data_version: u64,
    /// Whether the data came from another processor's cache.
    pub cache_to_cache: bool,
}

impl MissCompletion {
    /// Latency of the miss in cycles.
    pub fn latency(&self) -> Cycle {
        self.completed_at.saturating_sub(self.issued_at)
    }
}

/// Why a controller timer was armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Reissue a transient request that has not completed (TokenB).
    Reissue,
    /// Memory/DRAM access completes (used by home controllers).
    MemoryAccess,
}

/// A timer armed by a controller; delivered back via
/// [`CoherenceController::handle_timer`] when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// Identifier chosen by the controller (opaque to the runner).
    pub id: u64,
    /// Block the timer concerns.
    pub addr: BlockAddr,
    /// Why the timer was armed.
    pub kind: TimerKind,
}

// Tags 1 and 3 are retired: two kinds no controller ever armed.
snap_enum!(TimerKind, "timer kind" {
    0 => Reissue,
    2 => MemoryAccess,
});
snap_struct!(Timer { id, addr, kind });

/// Collects the outputs of one controller invocation.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Messages to hand to the interconnect.
    pub messages: Vec<Message>,
    /// Miss completions to hand back to the processor.
    pub completions: Vec<MissCompletion>,
    /// Timers to arm: (absolute firing time, timer).
    pub timers: Vec<(Cycle, Timer)>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Queues a message for the interconnect.
    pub fn send(&mut self, msg: Message) {
        self.messages.push(msg);
    }

    /// Queues a miss completion for the processor.
    pub fn complete(&mut self, completion: MissCompletion) {
        self.completions.push(completion);
    }

    /// Arms a timer to fire at the absolute time `at`.
    pub fn arm_timer(&mut self, at: Cycle, timer: Timer) {
        self.timers.push((at, timer));
    }

    /// Returns `true` if nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty() && self.completions.is_empty() && self.timers.is_empty()
    }

    /// Moves everything out of this outbox, leaving it empty.
    pub fn drain(&mut self) -> Outbox {
        Outbox {
            messages: std::mem::take(&mut self.messages),
            completions: std::mem::take(&mut self.completions),
            timers: std::mem::take(&mut self.timers),
        }
    }
}

/// A snapshot of one node's coherence state for a block, used by the
/// verification layer to audit global invariants (token conservation,
/// single-writer/multiple-reader) without knowing protocol internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockAudit {
    /// Tokens held for the block (Token Coherence; 0 for other protocols).
    pub tokens: u32,
    /// Whether the owner token is held.
    pub owner_token: bool,
    /// Whether the node currently has read permission for the block.
    pub readable: bool,
    /// Whether the node currently has write permission for the block.
    pub writable: bool,
    /// Version of the data held (meaningful only if `readable`).
    pub data_version: u64,
    /// Whether this snapshot comes from the node's memory (home) rather than
    /// its cache.
    pub in_memory: bool,
}

/// The interface every coherence protocol implements.
///
/// One controller instance exists per node and plays both the cache-side role
/// (servicing its processor) and the home/memory-side role (servicing the
/// slice of physical memory homed at this node), because the target system
/// integrates both on one chip.
pub trait CoherenceController: fmt::Debug + Send {
    /// The node this controller belongs to.
    fn node(&self) -> NodeId;

    /// A short protocol name for reports (for example `"TokenB"`).
    fn protocol_name(&self) -> &'static str;

    /// The processor asks for `op` to be performed. Returns whether it hit
    /// locally; on a miss the controller takes ownership of the request and
    /// must eventually deliver a [`MissCompletion`] with the same [`ReqId`].
    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome;

    /// A message addressed to this node arrives from the interconnect.
    ///
    /// The message is borrowed, not owned: a multicast parks one payload in
    /// the runner's arena and every destination handles the same copy, so a
    /// controller that needs to keep any part of it clones just that part.
    fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox);

    /// A timer armed by this controller fires.
    fn handle_timer(&mut self, now: Cycle, timer: Timer, out: &mut Outbox);

    /// Statistics accumulated so far.
    fn stats(&self) -> ControllerStats;

    /// Audits this node's state for `addr` (cache contents plus, if this node
    /// is the block's home, the memory's contribution).
    fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit>;

    /// Every block this node currently holds state for (cache lines plus
    /// home-memory entries that differ from the initial all-tokens-at-home
    /// state), in any order and possibly more than once.
    ///
    /// The contract the end-of-run audit relies on: for every block *not*
    /// listed here, [`CoherenceController::audit_block`] is empty. The audit
    /// therefore asks each node only about the blocks it lists, one call per
    /// held entry rather than one per (block, node) pair.
    fn audited_blocks(&self) -> Vec<BlockAddr>;

    /// Number of misses currently outstanding at this node.
    fn outstanding_misses(&self) -> usize;

    /// The blocks of the misses currently outstanding at this node, used by
    /// the deadlock/starvation audit to report *which* block a stuck
    /// requester is waiting on.
    fn outstanding_blocks(&self) -> Vec<BlockAddr> {
        Vec::new()
    }

    /// Per-structure occupancy peaks and estimated byte footprint of this
    /// node's sparse line-state plane (MSHRs, writeback buffer/windows, home
    /// state, persistent entries). The runner sums these across nodes into
    /// [`crate::EngineStats`]. The default reports nothing, so experimental
    /// controllers that do not use the shared plane stay compilable.
    fn line_state_stats(&self) -> LineStateStats {
        LineStateStats::default()
    }

    /// Test-only sabotage hook: when enabled, this node's persistent-request
    /// arbitration silently drops incoming requests, manufacturing exactly
    /// the starvation the fairness oracle exists to catch. The default does
    /// nothing — only protocols with persistent-request machinery (TokenB)
    /// override it, and nothing outside the adversarial test harness should
    /// ever enable it.
    fn set_arbiter_sabotage(&mut self, on: bool) {
        let _ = on;
    }

    /// Serializes this controller's *mutable* state into an engine snapshot
    /// (see `tc_sim::snapshot`). Config-derived state (latencies, home
    /// maps, capacities, geometry) is rebuilt by construction and must not
    /// be written here. The restore-equivalence contract (a resumed run's
    /// `RunReport` is bit-identical to the uninterrupted run) depends on
    /// this and [`CoherenceController::load_state`] covering every field a
    /// run changes, so neither has a default.
    fn save_state(&self, w: &mut SnapWriter);

    /// Restores state produced by [`CoherenceController::save_state`] onto
    /// a freshly-constructed controller of the same configuration.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError>;
}

/// A boxed controller is restored in place through its own codec.
impl SnapState for Box<dyn CoherenceController> {
    fn save_state(&self, w: &mut SnapWriter) {
        CoherenceController::save_state(&**self, w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        CoherenceController::load_state(&mut **self, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockAddr;
    use tc_sim::Snap;

    #[test]
    fn timers_round_trip_every_kind() {
        for kind in [TimerKind::Reissue, TimerKind::MemoryAccess] {
            tc_testkit::assert_snap_round_trip(&Timer {
                id: 9,
                addr: BlockAddr::new(2),
                kind,
            });
        }
        // The retired tags load as corrupt, never as another kind.
        for tag in [1, 3] {
            assert_eq!(
                TimerKind::load(&mut SnapReader::new(&[tag])),
                Err(SnapshotError::Corrupt(format!("timer kind tag {tag}")))
            );
        }
    }

    #[test]
    fn outbox_accumulates_and_drains() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.arm_timer(
            100,
            Timer {
                id: 1,
                addr: BlockAddr::new(2),
                kind: TimerKind::Reissue,
            },
        );
        out.complete(MissCompletion {
            req_id: ReqId::new(1),
            addr: BlockAddr::new(2),
            kind: MissKind::Read,
            issued_at: 10,
            completed_at: 60,
            data_version: 0,
            cache_to_cache: true,
        });
        assert!(!out.is_empty());
        let drained = out.drain();
        assert!(out.is_empty());
        assert_eq!(drained.timers.len(), 1);
        assert_eq!(drained.completions.len(), 1);
    }

    #[test]
    fn miss_completion_latency_is_saturating() {
        let c = MissCompletion {
            req_id: ReqId::new(1),
            addr: BlockAddr::new(0),
            kind: MissKind::Write,
            issued_at: 100,
            completed_at: 250,
            data_version: 1,
            cache_to_cache: false,
        };
        assert_eq!(c.latency(), 150);
        let degenerate = MissCompletion {
            completed_at: 50,
            ..c
        };
        assert_eq!(degenerate.latency(), 0);
    }

    #[test]
    fn block_audit_default_is_inert() {
        let a = BlockAudit::default();
        assert_eq!(a.tokens, 0);
        assert!(!a.readable && !a.writable && !a.owner_token);
    }
}
