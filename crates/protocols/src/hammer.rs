//! AMD-Hammer-style broadcast protocol.
//!
//! The Hammer protocol (and its relatives: Intel's E8870 Scalability Port,
//! IBM's xSeries Summit) avoids directory storage and directory lookup
//! latency by broadcasting. A requester sends its request to the block's home
//! node; the home immediately broadcasts a probe to every other node and, in
//! parallel, fetches the block from memory. Every probed node answers the
//! requester directly — the owning cache with data, everyone else with an
//! acknowledgement — and the requester finishes when it has heard from
//! everyone (N-1 probe responses plus the memory response), then unblocks the
//! home. The home serializes requests per block while one is outstanding.
//!
//! Compared with a directory protocol this removes the directory lookup from
//! the critical path but keeps the home-node indirection, and it costs far
//! more interconnect traffic because every miss triggers a broadcast and a
//! full set of acknowledgements (the paper's Figure 5b).

use std::collections::VecDeque;

use tc_memsys::PendingOp;
use tc_sim::{snap_struct, Fifo, FifoPool};
use tc_types::{
    BlockAddr, Counter, Cycle, DataPayload, Destination, Message, MsgKind, NodeId, Outbox,
    SystemConfig, Vnet,
};

use crate::common::QueuedRequest;
use crate::node::{Grant, MosiNode, MosiPolicy};

/// Requester-side bookkeeping for an outstanding Hammer miss.
#[derive(Debug)]
pub struct HammerMshr {
    pending: Fifo,
    write: bool,
    upgrade: bool,
    issued_at: Cycle,
    responses_expected: u32,
    responses_received: u32,
    data_received: bool,
    exclusive: bool,
    version: u64,
    dirty: bool,
    from_cache: bool,
    memory_version: u64,
    memory_data_received: bool,
}

snap_struct!(HammerMshr in FifoPool<PendingOp> {
    pending,
    write,
    upgrade,
    issued_at,
    responses_expected,
    responses_received,
    data_received,
    exclusive,
    version,
    dirty,
    from_cache,
    memory_version,
    memory_data_received,
});

/// Home-side serialization state for one block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HammerEntry {
    busy: bool,
    queue: VecDeque<(NodeId, bool)>,
}

snap_struct!(HammerEntry { busy, queue });

/// The Hammer policy: requests go to the home, which probes everyone; the
/// requester waits for every node's answer plus memory's, then unblocks the
/// home.
#[derive(Debug)]
pub struct Hammer {
    num_nodes: usize,
}

/// The Hammer-protocol controller for one node.
pub type HammerController = MosiNode<Hammer>;

impl MosiNode<Hammer> {
    // ------------------------------------------------------------------
    // Home side.
    // ------------------------------------------------------------------

    fn home_handle_request(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        debug_assert!(self.is_home(addr));
        let entry = self.memory.state_mut(addr);
        if entry.busy {
            entry.queue.push_back((requester, write));
            return;
        }
        entry.busy = true;
        self.serve_at_home(now, requester, addr, write, out);
    }

    fn serve_at_home(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        // Probe every node except the requester (including this home node's
        // own cache, which receives the probe like any other node).
        let probe = Message::new(
            self.node,
            Destination::AllBut(requester),
            addr,
            MsgKind::HammerProbe { requester, write },
            Vnet::Forwarded,
            now + self.controller_latency,
        );
        self.send(out, probe);
        self.stats.bump(Counter::HammerProbes, 1);

        // In parallel, memory supplies its copy of the data.
        let version = self.memory.data_version(addr);
        let data = self.unicast(
            now + self.controller_latency + self.dram_latency,
            requester,
            addr,
            MsgKind::Data {
                acks_expected: 0,
                exclusive: write,
                from_memory: true,
                payload: DataPayload::new(version),
            },
            Vnet::Response,
        );
        self.send(out, data);
    }

    fn home_handle_unblock(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let next = {
            let entry = self.memory.state_mut(addr);
            entry.busy = false;
            entry.queue.pop_front()
        };
        if let Some((requester, write)) = next {
            let entry = self.memory.state_mut(addr);
            entry.busy = true;
            self.serve_at_home(now, requester, addr, write, out);
        }
    }

    fn home_handle_putm(
        &mut self,
        now: Cycle,
        from: NodeId,
        addr: BlockAddr,
        version: u64,
        out: &mut Outbox,
    ) {
        self.memory.write_data(addr, version);
        let ack = self.unicast(
            now + self.controller_latency,
            from,
            addr,
            MsgKind::WbAck,
            Vnet::Response,
        );
        self.send(out, ack);
    }

    // ------------------------------------------------------------------
    // Cache side.
    // ------------------------------------------------------------------

    fn handle_probe(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        match self.line_or_wb(addr) {
            Some(line) if line.state.is_owner() => {
                let request = QueuedRequest {
                    requester,
                    write,
                    req_id: None,
                };
                self.answer_as_owner(now, addr, line, request, true, out);
            }
            copy => {
                // A write probe invalidates a shared copy; with or without
                // one, a node that is not the owner acknowledges.
                if copy.is_some() && write {
                    self.l2.remove(addr);
                    self.l1.invalidate(addr);
                }
                let at = now + self.controller_latency + self.l2_latency;
                let ack = self.unicast(at, requester, addr, MsgKind::InvAck, Vnet::Response);
                self.send(out, ack);
            }
        }
    }

    fn handle_response(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        data: Option<(bool, bool, DataPayload)>,
        out: &mut Outbox,
    ) {
        let Some(mshr) = self.mshrs.get_mut(addr) else {
            return;
        };
        mshr.responses_received += 1;
        if let Some((exclusive, from_memory, payload)) = data {
            if from_memory {
                mshr.memory_data_received = true;
                mshr.memory_version = payload.version;
            } else {
                // A cache's copy supersedes memory's possibly stale copy.
                mshr.data_received = true;
                mshr.version = payload.version;
                mshr.dirty = true;
                mshr.from_cache = true;
            }
            mshr.exclusive |= exclusive;
        }
        self.try_complete(now, addr, out);
    }
}

impl MosiPolicy for Hammer {
    const NAME: &'static str = "Hammer";
    type Mshr = HammerMshr;
    type Home = HammerEntry;

    fn new(config: &SystemConfig) -> Self {
        Hammer {
            num_nodes: config.num_nodes,
        }
    }

    fn destination(&self, home: NodeId) -> Destination {
        Destination::Node(home)
    }

    fn new_mshr(&self, pending: Fifo, first: PendingOp, upgrade: bool, now: Cycle) -> HammerMshr {
        HammerMshr {
            pending,
            write: first.write,
            upgrade,
            issued_at: now,
            // N-1 probe responses plus the memory response.
            responses_expected: self.num_nodes as u32,
            responses_received: 0,
            data_received: false,
            exclusive: false,
            version: 0,
            dirty: false,
            from_cache: false,
            memory_version: 0,
            memory_data_received: false,
        }
    }

    fn pending(mshr: &mut HammerMshr) -> &mut Fifo {
        &mut mshr.pending
    }

    /// Every response, one of which carried data; a cache's copy supersedes
    /// memory's.
    fn ready(_node: &HammerController, _addr: BlockAddr, mshr: &HammerMshr) -> Option<Grant> {
        if mshr.responses_received < mshr.responses_expected {
            return None;
        }
        let (version, dirty, from_cache) = if mshr.data_received {
            (mshr.version, mshr.dirty, true)
        } else if mshr.memory_data_received {
            (mshr.memory_version, false, false)
        } else {
            return None;
        };
        Some(Grant {
            write: mshr.write,
            upgrade: mshr.upgrade,
            exclusive: mshr.exclusive,
            issued_at: mshr.issued_at,
            version,
            dirty,
            from_cache,
        })
    }

    fn completed(
        node: &mut HammerController,
        now: Cycle,
        addr: BlockAddr,
        _mshr: HammerMshr,
        _granted_exclusive: bool,
        out: &mut Outbox,
    ) {
        let at = now + node.controller_latency;
        let unblock = node.unicast(
            at,
            node.home_of(addr),
            addr,
            MsgKind::Unblock,
            Vnet::Response,
        );
        node.send(out, unblock);
    }

    #[inline]
    fn handle_message(node: &mut HammerController, now: Cycle, msg: &Message, out: &mut Outbox) {
        let addr = msg.addr;
        match &msg.kind {
            MsgKind::GetS => node.home_handle_request(now, msg.src, addr, false, out),
            MsgKind::GetM => node.home_handle_request(now, msg.src, addr, true, out),
            MsgKind::HammerProbe { requester, write } => {
                node.handle_probe(now, *requester, addr, *write, out)
            }
            MsgKind::Data {
                exclusive,
                from_memory,
                payload,
                ..
            } => node.handle_response(now, addr, Some((*exclusive, *from_memory, *payload)), out),
            MsgKind::InvAck => node.handle_response(now, addr, None, out),
            MsgKind::Unblock => node.home_handle_unblock(now, addr, out),
            MsgKind::PutM => {
                let version = msg.req_id.map(|r| r.value()).unwrap_or(0);
                node.home_handle_putm(now, msg.src, addr, version, out);
            }
            MsgKind::WbAck => {
                node.wb.take(addr);
            }
            other => {
                debug_assert!(false, "Hammer received unexpected message {other:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::MosiState;
    use crate::node::test_support::{controller, load, store};
    use tc_testkit::deliver;
    use tc_types::{CoherenceController, MissKind};

    #[test]
    fn hammer_entry_round_trips() {
        tc_testkit::assert_snap_round_trip(&HammerEntry {
            busy: true,
            queue: [(NodeId::new(0), true), (NodeId::new(3), false)].into(),
        });
    }

    #[test]
    fn home_broadcasts_probes_and_memory_data() {
        let mut home: HammerController = controller(0);
        let mut requester: HammerController = controller(1);
        let mut out = Outbox::new();
        requester.access(0, &load(0, 1), &mut out);
        assert_eq!(out.messages[0].dest, Destination::Node(NodeId::new(0)));

        let home_out = deliver(&out.messages, [&mut home], 10);
        let probe = home_out
            .messages
            .iter()
            .find(|m| matches!(m.kind, MsgKind::HammerProbe { .. }))
            .expect("probe broadcast");
        assert_eq!(probe.dest, Destination::AllBut(NodeId::new(1)));
        assert!(home_out.messages.iter().any(|m| matches!(
            m.kind,
            MsgKind::Data {
                from_memory: true,
                ..
            }
        )));
        let _ = home;
    }

    #[test]
    fn requester_waits_for_every_response() {
        let mut nodes: Vec<HammerController> = (0..4).map(controller).collect();
        // Node 1 issues a read miss for block 0 (homed at node 0).
        let mut out = Outbox::new();
        nodes[1].access(0, &load(0, 1), &mut out);

        // Deliver the request to the home, then fan everything out until the
        // requester completes.
        let mut frontier = out;
        let mut completions = Vec::new();
        for step in 0..6 {
            let produced = deliver(&frontier.messages, nodes.iter_mut(), 10 * (step + 1));
            completions.extend(produced.completions.iter().copied());
            frontier = produced;
            if !completions.is_empty() {
                break;
            }
        }
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].kind, MissKind::Read);
        assert!(!completions[0].cache_to_cache, "data came from memory");
    }

    #[test]
    fn dirty_owner_data_supersedes_memory_data() {
        let mut nodes: Vec<HammerController> = (0..4).map(controller).collect();

        // Node 2 takes block 0 to M (run the full exchange).
        let mut frontier = Outbox::new();
        nodes[2].access(0, &store(0, 1), &mut frontier);
        for step in 0..6 {
            frontier = deliver(&frontier.messages, nodes.iter_mut(), 100 * (step + 1));
        }
        assert_eq!(
            nodes[2].l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );
        let written_version = nodes[2].l2.peek(BlockAddr::new(0)).unwrap().version;

        // Node 3 now reads the block; the dirty copy at node 2 must win over
        // the stale memory copy.
        let mut frontier = Outbox::new();
        nodes[3].access(1000, &load(0, 2), &mut frontier);
        let mut observed = None;
        for step in 0..6 {
            let next = deliver(
                &frontier.messages,
                nodes.iter_mut(),
                1000 + 100 * (step + 1),
            );
            for c in &next.completions {
                observed = Some(*c);
            }
            frontier = next;
            if observed.is_some() {
                break;
            }
        }
        let completion = observed.expect("read must complete");
        assert!(completion.cache_to_cache);
        assert_eq!(completion.data_version, written_version);
    }

    #[test]
    fn probes_generate_many_acknowledgements() {
        let mut nodes: Vec<HammerController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &load(0, 1), &mut out);
        // Request reaches home.
        let mut home_out = Outbox::new();
        for msg in &out.messages {
            nodes[0].handle_message(10, msg, &mut home_out);
        }
        // Probes reach the other nodes; every one answers.
        let mut acks = 0;
        for msg in &home_out.messages {
            if let MsgKind::HammerProbe { .. } = msg.kind {
                for target in msg.dest.expand(4) {
                    let mut reply = Outbox::new();
                    nodes[target.index()].handle_message(20, msg, &mut reply);
                    acks += reply
                        .messages
                        .iter()
                        .filter(|m| m.kind == MsgKind::InvAck)
                        .count();
                }
            }
        }
        assert_eq!(acks, 3, "every probed node acknowledges");
    }

    #[test]
    fn home_serializes_requests_per_block() {
        let mut home: HammerController = controller(0);
        let req_a = Message::new(
            NodeId::new(1),
            Destination::Node(NodeId::new(0)),
            BlockAddr::new(0),
            MsgKind::GetM,
            Vnet::Request,
            0,
        );
        let req_b = Message::new(
            NodeId::new(2),
            Destination::Node(NodeId::new(0)),
            BlockAddr::new(0),
            MsgKind::GetM,
            Vnet::Request,
            5,
        );
        let mut out = Outbox::new();
        home.handle_message(10, &req_a, &mut out);
        let first_probes = out.messages.len();
        let mut out2 = Outbox::new();
        home.handle_message(15, &req_b, &mut out2);
        assert!(out2.messages.is_empty(), "second request must queue");
        // The unblock from the first requester releases the second.
        let unblock = Message::new(
            NodeId::new(1),
            Destination::Node(NodeId::new(0)),
            BlockAddr::new(0),
            MsgKind::Unblock,
            Vnet::Response,
            50,
        );
        let mut out3 = Outbox::new();
        home.handle_message(60, &unblock, &mut out3);
        assert_eq!(out3.messages.len(), first_probes);
    }
}
