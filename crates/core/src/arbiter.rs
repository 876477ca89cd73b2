//! The per-home-node persistent-request arbiter.
//!
//! Each home memory module runs a small arbiter state machine (Section 3.2).
//! Starving processors direct persistent requests to the home of the block;
//! the arbiter activates at most one persistent request at a time by
//! informing every node, waits for acknowledgements (to eliminate races),
//! and deactivates the request when the starving requester reports that it
//! has been satisfied. Queued requests are served in FIFO order, which makes
//! the mechanism fair and therefore starvation-free.

use std::collections::VecDeque;

use tc_sim::{snap_enum, snap_state, snap_struct};
use tc_types::{BlockAddr, NodeId};

/// A request waiting at (or being served by) the arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedRequest {
    addr: BlockAddr,
    requester: NodeId,
    write: bool,
}

snap_struct!(QueuedRequest {
    addr,
    requester,
    write,
});

/// What the controller hosting the arbiter must do next: broadcast an
/// activation or deactivation to every node (and apply it locally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterAction {
    /// Tell every node to activate a persistent request.
    BroadcastActivate {
        /// Block being requested.
        addr: BlockAddr,
        /// Starving node that must receive all tokens.
        requester: NodeId,
        /// Whether the requester needs write permission.
        write: bool,
    },
    /// Tell every node to deactivate the persistent request for `addr`.
    BroadcastDeactivate {
        /// Block whose persistent request is over.
        addr: BlockAddr,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ArbiterState {
    Idle,
    /// Activation broadcast sent; waiting for acknowledgements.
    Activating {
        request: QueuedRequest,
        acks_remaining: usize,
        complete_received: bool,
    },
    /// All nodes have acknowledged; the request is in force.
    Active {
        request: QueuedRequest,
    },
    /// Deactivation broadcast sent; waiting for acknowledgements.
    Deactivating {
        addr: BlockAddr,
        acks_remaining: usize,
    },
}

snap_enum!(ArbiterState, "arbiter state" {
    0 => Idle,
    1 => Activating { request, acks_remaining, complete_received },
    2 => Active { request },
    3 => Deactivating { addr, acks_remaining },
});

/// The persistent-request arbiter at one home node.
#[derive(Debug, Clone)]
pub struct PersistentArbiter {
    num_nodes: usize,
    state: ArbiterState,
    queue: VecDeque<QueuedRequest>,
    activations: u64,
    /// Test-only sabotage: when set, incoming requests are silently
    /// dropped, manufacturing the starvation the fairness oracle must
    /// catch. Never set outside the adversarial test harness.
    sabotaged: bool,
}

impl PersistentArbiter {
    /// Creates the arbiter for one home node in a `num_nodes` system.
    pub fn new(num_nodes: usize) -> Self {
        PersistentArbiter {
            num_nodes: num_nodes.max(1),
            state: ArbiterState::Idle,
            queue: VecDeque::new(),
            activations: 0,
            sabotaged: false,
        }
    }

    /// Enables or disables test-only sabotage (see the field doc).
    pub fn set_sabotage(&mut self, on: bool) {
        self.sabotaged = on;
    }

    /// Number of acknowledgements expected for each broadcast: every node
    /// except the arbiter's own (which applies the broadcast locally).
    fn acks_expected(&self) -> usize {
        self.num_nodes - 1
    }

    /// Number of activations performed so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Number of requests waiting to be activated.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if the arbiter has nothing in flight or queued.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ArbiterState::Idle) && self.queue.is_empty()
    }

    /// A starving node asks for a persistent request on `addr`.
    pub fn request(
        &mut self,
        addr: BlockAddr,
        requester: NodeId,
        write: bool,
    ) -> Vec<ArbiterAction> {
        if self.sabotaged {
            // A broken arbiter that loses requests: the starving node never
            // hears back, and only the fairness oracle can tell.
            return Vec::new();
        }
        let request = QueuedRequest {
            addr,
            requester,
            write,
        };
        // Ignore exact duplicates (a node may re-send if its first persistent
        // request raced with a deactivation).
        let duplicate_queued = self.queue.contains(&request);
        let duplicate_inflight = match &self.state {
            ArbiterState::Activating { request: r, .. } | ArbiterState::Active { request: r } => {
                *r == request
            }
            _ => false,
        };
        if !duplicate_queued && !duplicate_inflight {
            self.queue.push_back(request);
        }
        self.try_activate()
    }

    /// A node acknowledges the arbiter's most recent broadcast.
    pub fn ack(&mut self, _from: NodeId) -> Vec<ArbiterAction> {
        match &mut self.state {
            ArbiterState::Activating {
                acks_remaining,
                complete_received,
                request,
            } => {
                *acks_remaining = acks_remaining.saturating_sub(1);
                if *acks_remaining == 0 {
                    let request = *request;
                    if *complete_received {
                        // The requester was satisfied before activation even
                        // finished; tear the request down immediately.
                        self.state = ArbiterState::Deactivating {
                            addr: request.addr,
                            acks_remaining: self.acks_expected(),
                        };
                        return self.broadcast_deactivate(request.addr);
                    }
                    self.state = ArbiterState::Active { request };
                }
                Vec::new()
            }
            ArbiterState::Deactivating { acks_remaining, .. } => {
                *acks_remaining = acks_remaining.saturating_sub(1);
                if *acks_remaining == 0 {
                    self.state = ArbiterState::Idle;
                    return self.try_activate();
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// The requester reports that its persistent request has been satisfied.
    pub fn complete(&mut self, addr: BlockAddr, requester: NodeId) -> Vec<ArbiterAction> {
        match &mut self.state {
            ArbiterState::Active { request }
                if request.addr == addr && request.requester == requester =>
            {
                self.state = ArbiterState::Deactivating {
                    addr,
                    acks_remaining: self.acks_expected(),
                };
                self.broadcast_deactivate(addr)
            }
            ArbiterState::Activating {
                request,
                complete_received,
                ..
            } if request.addr == addr && request.requester == requester => {
                *complete_received = true;
                Vec::new()
            }
            _ => {
                // The request may still be queued (satisfied by a late
                // transient response before activation); just drop it.
                self.queue
                    .retain(|r| !(r.addr == addr && r.requester == requester));
                Vec::new()
            }
        }
    }

    fn try_activate(&mut self) -> Vec<ArbiterAction> {
        if !matches!(self.state, ArbiterState::Idle) {
            return Vec::new();
        }
        let Some(request) = self.queue.pop_front() else {
            return Vec::new();
        };
        self.activations += 1;
        let acks = self.acks_expected();
        if acks == 0 {
            self.state = ArbiterState::Active { request };
        } else {
            self.state = ArbiterState::Activating {
                request,
                acks_remaining: acks,
                complete_received: false,
            };
        }
        vec![ArbiterAction::BroadcastActivate {
            addr: request.addr,
            requester: request.requester,
            write: request.write,
        }]
    }

    fn broadcast_deactivate(&mut self, addr: BlockAddr) -> Vec<ArbiterAction> {
        if self.acks_expected() == 0 {
            self.state = ArbiterState::Idle;
            let mut actions = vec![ArbiterAction::BroadcastDeactivate { addr }];
            actions.extend(self.try_activate());
            return actions;
        }
        vec![ArbiterAction::BroadcastDeactivate { addr }]
    }

    /// The node whose persistent request is currently being served, if any.
    pub fn active_requester(&self) -> Option<(BlockAddr, NodeId)> {
        match &self.state {
            ArbiterState::Activating { request, .. } | ArbiterState::Active { request } => {
                Some((request.addr, request.requester))
            }
            _ => None,
        }
    }
}

// The node count is config-derived.
snap_state!(PersistentArbiter {
    activations,
    sabotaged,
    state,
    queue,
});

#[cfg(test)]
mod tests {
    use super::*;
    use tc_sim::{SnapReader, SnapState, SnapWriter};

    fn activate_addr(actions: &[ArbiterAction]) -> Option<BlockAddr> {
        actions.iter().find_map(|a| match a {
            ArbiterAction::BroadcastActivate { addr, .. } => Some(*addr),
            _ => None,
        })
    }

    fn deactivate_addr(actions: &[ArbiterAction]) -> Option<BlockAddr> {
        actions.iter().find_map(|a| match a {
            ArbiterAction::BroadcastDeactivate { addr } => Some(*addr),
            _ => None,
        })
    }

    #[test]
    fn single_request_activates_immediately() {
        let mut arb = PersistentArbiter::new(4);
        let actions = arb.request(BlockAddr::new(7), NodeId::new(2), true);
        assert_eq!(activate_addr(&actions), Some(BlockAddr::new(7)));
        assert_eq!(
            arb.active_requester(),
            Some((BlockAddr::new(7), NodeId::new(2)))
        );
        assert_eq!(arb.activations(), 1);
    }

    #[test]
    fn full_activation_completion_deactivation_cycle() {
        let mut arb = PersistentArbiter::new(4);
        arb.request(BlockAddr::new(7), NodeId::new(2), true);
        // Three other nodes acknowledge the activation.
        for n in 1..4 {
            assert!(arb.ack(NodeId::new(n)).is_empty());
        }
        // The requester completes; the arbiter broadcasts deactivation.
        let actions = arb.complete(BlockAddr::new(7), NodeId::new(2));
        assert_eq!(deactivate_addr(&actions), Some(BlockAddr::new(7)));
        // Deactivation acks drain back to idle.
        for n in 1..4 {
            arb.ack(NodeId::new(n));
        }
        assert!(arb.is_idle());
    }

    #[test]
    fn second_request_waits_for_the_first() {
        let mut arb = PersistentArbiter::new(4);
        arb.request(BlockAddr::new(1), NodeId::new(1), true);
        let actions = arb.request(BlockAddr::new(2), NodeId::new(2), false);
        assert!(actions.is_empty(), "second request must queue");
        assert_eq!(arb.queued(), 1);

        for n in 1..4 {
            arb.ack(NodeId::new(n));
        }
        arb.complete(BlockAddr::new(1), NodeId::new(1));
        // After the deactivation acks, the queued request activates.
        let mut next_activation = Vec::new();
        for n in 1..4 {
            next_activation.extend(arb.ack(NodeId::new(n)));
        }
        assert_eq!(activate_addr(&next_activation), Some(BlockAddr::new(2)));
        assert_eq!(arb.activations(), 2);
    }

    #[test]
    fn completion_before_all_activation_acks_still_deactivates() {
        let mut arb = PersistentArbiter::new(4);
        arb.request(BlockAddr::new(3), NodeId::new(1), false);
        // Requester completes before anyone acks.
        assert!(arb.complete(BlockAddr::new(3), NodeId::new(1)).is_empty());
        // Once the activation acks arrive, deactivation goes out.
        let mut actions = Vec::new();
        for n in 1..4 {
            actions.extend(arb.ack(NodeId::new(n)));
        }
        assert_eq!(deactivate_addr(&actions), Some(BlockAddr::new(3)));
    }

    #[test]
    fn duplicate_requests_are_not_double_queued() {
        let mut arb = PersistentArbiter::new(4);
        arb.request(BlockAddr::new(5), NodeId::new(1), true);
        arb.request(BlockAddr::new(5), NodeId::new(1), true);
        assert_eq!(
            arb.queued(),
            0,
            "duplicate of the in-flight request is dropped"
        );
        arb.request(BlockAddr::new(6), NodeId::new(2), true);
        arb.request(BlockAddr::new(6), NodeId::new(2), true);
        assert_eq!(arb.queued(), 1);
    }

    #[test]
    fn completion_of_a_queued_request_removes_it() {
        let mut arb = PersistentArbiter::new(4);
        arb.request(BlockAddr::new(1), NodeId::new(1), true);
        arb.request(BlockAddr::new(2), NodeId::new(2), true);
        assert_eq!(arb.queued(), 1);
        arb.complete(BlockAddr::new(2), NodeId::new(2));
        assert_eq!(arb.queued(), 0);
    }

    #[test]
    fn single_node_system_needs_no_acks() {
        let mut arb = PersistentArbiter::new(1);
        let actions = arb.request(BlockAddr::new(1), NodeId::new(0), true);
        assert_eq!(activate_addr(&actions), Some(BlockAddr::new(1)));
        let actions = arb.complete(BlockAddr::new(1), NodeId::new(0));
        assert_eq!(deactivate_addr(&actions), Some(BlockAddr::new(1)));
        assert!(arb.is_idle());
    }

    /// Satellite fairness property: N nodes competing for ONE block are
    /// served in exactly the order their persistent requests arrived.
    #[test]
    fn competing_requests_on_one_block_are_served_in_arrival_order() {
        let num_nodes = 6;
        let block = BlockAddr::new(42);
        let mut arb = PersistentArbiter::new(num_nodes);
        // Nodes 5, 3, 1, 4, 2 all starve on the same block, in that order.
        let arrival_order = [5usize, 3, 1, 4, 2];
        let mut served = Vec::new();
        let mut actions = Vec::new();
        for &n in &arrival_order {
            actions.extend(arb.request(block, NodeId::new(n), true));
        }
        // Drive activation/completion/deactivation cycles until idle.
        while let Some(ArbiterAction::BroadcastActivate {
            addr, requester, ..
        }) = actions.iter().find_map(|a| match a {
            ArbiterAction::BroadcastActivate { .. } => Some(*a),
            _ => None,
        }) {
            served.push(requester);
            actions.clear();
            for n in 1..num_nodes {
                actions.extend(arb.ack(NodeId::new(n)));
            }
            assert!(activate_addr(&actions).is_none(), "no overlapping grants");
            actions.clear();
            actions.extend(arb.complete(addr, requester));
            assert_eq!(deactivate_addr(&actions), Some(addr));
            actions.clear();
            for n in 1..num_nodes {
                actions.extend(arb.ack(NodeId::new(n)));
            }
        }
        assert!(arb.is_idle());
        let expected: Vec<NodeId> = arrival_order.iter().map(|&n| NodeId::new(n)).collect();
        assert_eq!(served, expected, "service order must match arrival order");
    }

    /// Satellite fairness property: with every node re-requesting after
    /// each grant, no node is served twice before every other waiting node
    /// has been served once (the round-robin consequence of FIFO).
    #[test]
    fn no_node_is_served_twice_before_all_served_once() {
        let num_nodes = 4;
        let block = BlockAddr::new(9);
        let mut arb = PersistentArbiter::new(num_nodes);
        let mut service_counts = vec![0u32; num_nodes];
        let mut actions = Vec::new();
        for n in 0..num_nodes {
            actions.extend(arb.request(block, NodeId::new(n), true));
        }
        for _round in 0..3 {
            for _grant in 0..num_nodes {
                let (addr, requester) = arb.active_requester().expect("a grant in flight");
                service_counts[requester.index()] += 1;
                let ceiling = *service_counts.iter().max().unwrap();
                let floor = *service_counts.iter().min().unwrap();
                assert!(
                    ceiling - floor <= 1,
                    "node {requester} served {ceiling} times while another node \
                     has only {floor}: {service_counts:?}"
                );
                actions.clear();
                for n in 1..num_nodes {
                    actions.extend(arb.ack(NodeId::new(n)));
                }
                actions.extend(arb.complete(addr, requester));
                // The served node immediately starves again.
                actions.extend(arb.request(block, requester, true));
                for n in 1..num_nodes {
                    actions.extend(arb.ack(NodeId::new(n)));
                }
            }
        }
        assert!(service_counts.iter().all(|&c| c == 3), "{service_counts:?}");
    }

    #[test]
    fn sabotaged_arbiter_drops_requests_silently() {
        let mut arb = PersistentArbiter::new(4);
        arb.set_sabotage(true);
        let actions = arb.request(BlockAddr::new(7), NodeId::new(2), true);
        assert!(actions.is_empty());
        assert!(arb.is_idle(), "nothing may be queued or in flight");
        assert_eq!(arb.activations(), 0);
        // Disabling sabotage restores normal service.
        arb.set_sabotage(false);
        let actions = arb.request(BlockAddr::new(7), NodeId::new(2), true);
        assert_eq!(activate_addr(&actions), Some(BlockAddr::new(7)));
    }

    #[test]
    fn every_arbiter_state_round_trips() {
        let request = QueuedRequest {
            addr: BlockAddr::new(5),
            requester: NodeId::new(2),
            write: true,
        };
        for state in [
            ArbiterState::Idle,
            ArbiterState::Activating {
                request,
                acks_remaining: 3,
                complete_received: true,
            },
            ArbiterState::Active { request },
            ArbiterState::Deactivating {
                addr: BlockAddr::new(6),
                acks_remaining: 2,
            },
        ] {
            tc_testkit::assert_snap_round_trip(&state);
        }
    }

    #[test]
    fn sabotage_flag_survives_a_snapshot_round_trip() {
        let mut arb = PersistentArbiter::new(4);
        arb.set_sabotage(true);
        let mut w = SnapWriter::new();
        arb.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = PersistentArbiter::new(4);
        restored.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert!(restored
            .request(BlockAddr::new(1), NodeId::new(1), true)
            .is_empty());
    }

    #[test]
    fn fifo_order_is_preserved_across_many_requests() {
        let mut arb = PersistentArbiter::new(2);
        arb.request(BlockAddr::new(10), NodeId::new(1), true);
        for b in 11..15 {
            arb.request(BlockAddr::new(b), NodeId::new(1), false);
        }
        let mut served = vec![BlockAddr::new(10)];
        for b in 11..15 {
            // ack activation, then complete, then ack deactivation.
            arb.ack(NodeId::new(1));
            let current = served.last().copied().unwrap();
            arb.complete(current, NodeId::new(1));
            let actions = arb.ack(NodeId::new(1));
            if let Some(addr) = activate_addr(&actions) {
                served.push(addr);
                assert_eq!(addr, BlockAddr::new(b));
            }
        }
        assert_eq!(served.len(), 5);
    }
}
