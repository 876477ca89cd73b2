//! The processor model.

use std::collections::BTreeMap;

use tc_sim::snap_state;
use tc_types::{Cycle, MemOp, NodeId, ProcessorConfig, ReqId};
use tc_workloads::{GeneratedOp, WorkloadGenerator, WorkloadProfile};

/// What [`Processor::note_completion`] did, so the runner can maintain its
/// incremental completed-operation counter and wake blocked processors
/// without re-scanning every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionOutcome {
    /// Whether an outstanding miss was actually completed (false for stale
    /// responses to unknown request ids).
    pub completed: bool,
    /// Whether the processor was blocked and should be woken.
    pub was_blocked: bool,
}

/// What the processor wants to do next when it is woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueDecision {
    /// Issue this operation now.
    Issue(MemOp),
    /// Nothing can be issued until an outstanding miss completes.
    Blocked,
    /// The processor has issued every operation it was asked to.
    Finished,
}

/// A simplified dynamically-scheduled processor.
///
/// The model captures what matters for coherence-protocol comparisons: hits
/// are cheap and overlap with computation, several misses can be outstanding
/// at once (up to the MSHR count), and the reorder window limits how far the
/// processor can run ahead of an outstanding miss. Instruction-level detail
/// (pipelines, branch prediction) is deliberately omitted; its effect is
/// folded into the workload's "think time" between memory operations.
#[derive(Debug)]
pub struct Processor {
    node: NodeId,
    config: ProcessorConfig,
    generator: WorkloadGenerator,
    target_ops: u64,
    issued: u64,
    completed: u64,
    outstanding: BTreeMap<ReqId, Cycle>,
    issued_past_miss: usize,
    blocked: bool,
    staged: Option<GeneratedOp>,
    transactions: u64,
    ops_in_transaction: usize,
    total_think: Cycle,
}

impl Processor {
    /// Creates a processor for `node` running `profile`, which will issue
    /// `target_ops` memory operations and then stop.
    pub fn new(
        node: NodeId,
        profile: &WorkloadProfile,
        config: ProcessorConfig,
        num_nodes: usize,
        seed: u64,
        target_ops: u64,
    ) -> Self {
        Processor {
            node,
            config,
            generator: WorkloadGenerator::new(profile, node, num_nodes, seed),
            target_ops,
            issued: 0,
            completed: 0,
            outstanding: BTreeMap::new(),
            issued_past_miss: 0,
            blocked: false,
            staged: None,
            transactions: 0,
            ops_in_transaction: 0,
            total_think: 0,
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
        self.transactions
    }

    /// Whether the processor has completed every operation it was asked to
    /// issue.
    pub fn is_done(&self) -> bool {
        self.completed >= self.target_ops
    }

    /// Whether the processor is stalled waiting for a miss.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Number of misses currently outstanding.
    pub fn outstanding_misses(&self) -> usize {
        self.outstanding.len()
    }

    /// Decides what to do when woken at time `now`. If an operation is
    /// issued, the caller must pass it to the coherence controller and then
    /// call either [`Processor::note_hit`] or [`Processor::note_miss`].
    ///
    /// Returns the decision plus the think time consumed before the issued
    /// operation (so the caller can account for it when scheduling).
    pub fn next_issue(&mut self, _now: Cycle) -> (IssueDecision, Cycle) {
        if self.issued >= self.target_ops {
            return (IssueDecision::Finished, 0);
        }
        if self.outstanding.len() >= self.config.max_outstanding_misses {
            self.blocked = true;
            return (IssueDecision::Blocked, 0);
        }
        if !self.outstanding.is_empty() && self.issued_past_miss >= self.config.overlap_window {
            self.blocked = true;
            return (IssueDecision::Blocked, 0);
        }
        let generated = self
            .staged
            .take()
            .unwrap_or_else(|| self.generator.next_op());
        let think = generated.think_cycles;
        self.total_think += think;
        self.issued += 1;
        if !self.outstanding.is_empty() {
            self.issued_past_miss += 1;
        }
        (IssueDecision::Issue(generated.op), think)
    }

    /// Records that the most recently issued operation hit in the caches.
    pub fn note_hit(&mut self, _now: Cycle) {
        self.complete_one();
    }

    /// Records that the most recently issued operation missed and is now
    /// outstanding.
    pub fn note_miss(&mut self, req: ReqId, now: Cycle) {
        self.outstanding.insert(req, now);
    }

    /// Records the completion of an outstanding miss. Completions for
    /// unknown request ids (stale responses) are ignored.
    pub fn note_completion(&mut self, req: ReqId, _now: Cycle) -> CompletionOutcome {
        if self.outstanding.remove(&req).is_none() {
            return CompletionOutcome {
                completed: false,
                was_blocked: false,
            };
        }
        self.complete_one();
        if self.outstanding.is_empty() {
            self.issued_past_miss = 0;
        }
        let was_blocked = self.blocked;
        self.blocked = false;
        CompletionOutcome {
            completed: true,
            was_blocked,
        }
    }

    /// The issue time of the oldest outstanding miss, if any (used by the
    /// starvation audit).
    pub fn oldest_outstanding(&self) -> Option<(ReqId, Cycle)> {
        self.outstanding
            .iter()
            .min_by_key(|(_, t)| **t)
            .map(|(r, t)| (*r, *t))
    }

    fn complete_one(&mut self) {
        self.completed += 1;
        self.ops_in_transaction += 1;
        if self.ops_in_transaction >= self.config.ops_per_transaction {
            self.ops_in_transaction = 0;
            self.transactions += 1;
        }
    }
}

// `node`, `config` and `target_ops` are construction parameters.
snap_state!(Processor {
    generator,
    issued,
    completed,
    outstanding,
    issued_past_miss,
    blocked,
    staged,
    transactions,
    ops_in_transaction,
    total_think,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn processor(target: u64) -> Processor {
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
            target,
        )
    }

    #[test]
    fn issues_until_target_then_finishes() {
        let mut p = processor(3);
        for _ in 0..3 {
            match p.next_issue(0) {
                (IssueDecision::Issue(_), _) => p.note_hit(0),
                other => panic!("expected issue, got {other:?}"),
            }
        }
        assert!(matches!(p.next_issue(0), (IssueDecision::Finished, 0)));
        assert!(p.is_done());
        assert_eq!(p.completed_ops(), 3);
    }

    #[test]
    fn blocks_when_mshrs_are_full() {
        let mut p = processor(100);
        for i in 0..2 {
            let (decision, _) = p.next_issue(0);
            let IssueDecision::Issue(op) = decision else {
                panic!("expected issue");
            };
            p.note_miss(op.id, i);
        }
        assert!(matches!(p.next_issue(5), (IssueDecision::Blocked, _)));
        assert!(p.is_blocked());
        assert_eq!(p.outstanding_misses(), 2);
    }

    #[test]
    fn completion_unblocks_and_counts() {
        let mut p = processor(100);
        let (decision, _) = p.next_issue(0);
        let IssueDecision::Issue(op) = decision else {
            panic!()
        };
        p.note_miss(op.id, 0);
        // Fill the second MSHR too.
        let (decision, _) = p.next_issue(1);
        let IssueDecision::Issue(op2) = decision else {
            panic!()
        };
        p.note_miss(op2.id, 1);
        let _ = p.next_issue(2); // blocks
        assert!(p.note_completion(op.id, 50).was_blocked);
        assert!(!p.is_blocked());
        assert_eq!(p.completed_ops(), 1);
        // Unknown completions are ignored.
        assert!(!p.note_completion(ReqId::new(9999), 60).completed);
    }

    #[test]
    fn overlap_window_limits_run_ahead() {
        let mut p = processor(100);
        let (decision, _) = p.next_issue(0);
        let IssueDecision::Issue(op) = decision else {
            panic!()
        };
        p.note_miss(op.id, 0);
        // The window allows 4 more issues past the outstanding miss.
        let mut issued = 0;
        loop {
            match p.next_issue(1) {
                (IssueDecision::Issue(_), _) => {
                    p.note_hit(1);
                    issued += 1;
                }
                (IssueDecision::Blocked, _) => break,
                (IssueDecision::Finished, _) => break,
            }
            assert!(issued < 50, "window must eventually block");
        }
        assert_eq!(issued, 4);
    }

    #[test]
    fn transactions_count_groups_of_ops() {
        let mut p = processor(25);
        while !p.is_done() {
            match p.next_issue(0) {
                (IssueDecision::Issue(_), _) => p.note_hit(0),
                _ => break,
            }
        }
        assert_eq!(p.completed_ops(), 25);
        assert_eq!(p.transactions(), 2);
    }

    #[test]
    fn oldest_outstanding_tracks_issue_times() {
        let mut p = processor(10);
        let (IssueDecision::Issue(op1), _) = p.next_issue(0) else {
            panic!()
        };
        p.note_miss(op1.id, 100);
        let (IssueDecision::Issue(op2), _) = p.next_issue(0) else {
            panic!()
        };
        p.note_miss(op2.id, 200);
        assert_eq!(p.oldest_outstanding(), Some((op1.id, 100)));
    }
}
