//! The processor model.

use std::collections::BTreeMap;

use tc_sim::snap_state;
use tc_types::{Cycle, MemOp, NodeId, ProcessorConfig, ReqId};
use tc_workloads::{WorkloadGenerator, WorkloadProfile};

/// What [`Processor::note_completion`] did with an outstanding miss, so the
/// step core can classify the operation and wake a blocked processor without
/// re-scanning every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionOutcome {
    /// Whether the operation behind the miss was a store. Classified by the
    /// operation, not the miss: a store that merged into a read miss is
    /// still a store.
    pub is_write: bool,
    /// Whether the processor was blocked and should be woken.
    pub was_blocked: bool,
}

/// A simplified dynamically-scheduled processor.
///
/// The model captures what matters for coherence-protocol comparisons: hits
/// are cheap and overlap with computation, several misses can be outstanding
/// at once (up to the MSHR count), and the reorder window limits how far the
/// processor can run ahead of an outstanding miss. Instruction-level detail
/// (pipelines, branch prediction) is deliberately omitted; its effect is
/// folded into the workload's "think time" between memory operations. The
/// processor never stops on its own: the runner ends the run once enough
/// operations have completed.
#[derive(Debug)]
pub struct Processor {
    node: NodeId,
    config: ProcessorConfig,
    generator: WorkloadGenerator,
    completed: u64,
    /// Each outstanding miss's issue time and whether it is a store.
    outstanding: BTreeMap<ReqId, (Cycle, bool)>,
    issued_past_miss: usize,
    blocked: bool,
}

impl Processor {
    /// Creates a processor for `node` running `profile`.
    pub fn new(
        node: NodeId,
        profile: &WorkloadProfile,
        config: ProcessorConfig,
        num_nodes: usize,
        seed: u64,
    ) -> Self {
        Processor {
            node,
            config,
            generator: WorkloadGenerator::new(profile, node, num_nodes, seed),
            completed: 0,
            outstanding: BTreeMap::new(),
            issued_past_miss: 0,
            blocked: false,
        }
    }

    /// The node this processor belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Operations completed so far.
    pub fn completed_ops(&self) -> u64 {
        self.completed
    }

    /// Transactions (groups of `ops_per_transaction` operations) completed.
    pub fn transactions(&self) -> u64 {
        self.completed / self.config.ops_per_transaction.max(1) as u64
    }

    /// Whether the processor is stalled waiting for a miss.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Number of misses currently outstanding.
    pub fn outstanding_misses(&self) -> usize {
        self.outstanding.len()
    }

    /// The next operation to issue and the think time consumed before it,
    /// or `None` if the processor is blocked until an outstanding miss
    /// completes. The caller must pass an issued operation to the coherence
    /// controller and then call either [`Processor::note_hit`] or
    /// [`Processor::note_miss`].
    pub fn next_issue(&mut self) -> Option<(MemOp, Cycle)> {
        if self.outstanding.len() >= self.config.max_outstanding_misses
            || (!self.outstanding.is_empty() && self.issued_past_miss >= self.config.overlap_window)
        {
            self.blocked = true;
            return None;
        }
        let generated = self.generator.next_op();
        if !self.outstanding.is_empty() {
            self.issued_past_miss += 1;
        }
        Some((generated.op, generated.think_cycles))
    }

    /// Records that the most recently issued operation hit in the caches.
    pub fn note_hit(&mut self) {
        self.completed += 1;
    }

    /// Records that the most recently issued operation, a store if
    /// `is_write`, missed at cycle `now` and is now outstanding.
    pub fn note_miss(&mut self, req: ReqId, now: Cycle, is_write: bool) {
        self.outstanding.insert(req, (now, is_write));
    }

    /// Records the completion of an outstanding miss. A completion for an
    /// unknown request id (a stale response) is ignored: `None`.
    pub fn note_completion(&mut self, req: ReqId) -> Option<CompletionOutcome> {
        let (_, is_write) = self.outstanding.remove(&req)?;
        self.completed += 1;
        if self.outstanding.is_empty() {
            self.issued_past_miss = 0;
        }
        let was_blocked = std::mem::replace(&mut self.blocked, false);
        Some(CompletionOutcome {
            is_write,
            was_blocked,
        })
    }

    /// The issue time of the oldest outstanding miss, if any (used by the
    /// starvation audit).
    pub fn oldest_outstanding(&self) -> Option<(ReqId, Cycle)> {
        self.outstanding
            .iter()
            .min_by_key(|(_, (t, _))| *t)
            .map(|(r, (t, _))| (*r, *t))
    }
}

// `node` and `config` are construction parameters.
snap_state!(Processor {
    generator,
    completed,
    outstanding,
    issued_past_miss,
    blocked,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn processor() -> Processor {
        Processor::new(
            NodeId::new(0),
            &WorkloadProfile::private_only(),
            ProcessorConfig {
                max_outstanding_misses: 2,
                overlap_window: 4,
                ops_per_transaction: 10,
            },
            4,
            1,
        )
    }

    #[test]
    fn blocks_when_mshrs_are_full() {
        let mut p = processor();
        for i in 0..2 {
            let (op, _) = p.next_issue().expect("expected issue");
            p.note_miss(op.id, i, false);
        }
        assert_eq!(p.next_issue(), None);
        assert!(p.is_blocked());
        assert_eq!(p.outstanding_misses(), 2);
    }

    #[test]
    fn completion_unblocks_and_counts() {
        let mut p = processor();
        let (op, _) = p.next_issue().unwrap();
        p.note_miss(op.id, 0, true);
        // Fill the second MSHR too.
        let (op2, _) = p.next_issue().unwrap();
        p.note_miss(op2.id, 1, false);
        assert_eq!(p.next_issue(), None);
        assert_eq!(
            p.note_completion(op.id),
            Some(CompletionOutcome {
                is_write: true,
                was_blocked: true,
            })
        );
        assert!(!p.is_blocked());
        assert_eq!(p.completed_ops(), 1);
        // Unknown completions are ignored.
        assert_eq!(p.note_completion(ReqId::new(9999)), None);
        assert_eq!(p.completed_ops(), 1);
    }

    #[test]
    fn overlap_window_limits_run_ahead() {
        let mut p = processor();
        let (op, _) = p.next_issue().unwrap();
        p.note_miss(op.id, 0, false);
        // The window allows 4 more issues past the outstanding miss.
        let mut issued = 0;
        while p.next_issue().is_some() {
            p.note_hit();
            issued += 1;
            assert!(issued < 50, "window must eventually block");
        }
        assert_eq!(issued, 4);
    }

    #[test]
    fn transactions_count_groups_of_ops() {
        let mut p = processor();
        for _ in 0..25 {
            p.next_issue().expect("nothing outstanding");
            p.note_hit();
        }
        assert_eq!(p.completed_ops(), 25);
        assert_eq!(p.transactions(), 2);
    }

    #[test]
    fn oldest_outstanding_tracks_issue_times() {
        let mut p = processor();
        let (op1, _) = p.next_issue().unwrap();
        p.note_miss(op1.id, 100, false);
        let (op2, _) = p.next_issue().unwrap();
        p.note_miss(op2.id, 200, true);
        assert_eq!(p.oldest_outstanding(), Some((op1.id, 100)));
    }
}
