//! Full-map blocking directory protocol (Origin 2000 / Alpha 21364 style).
//!
//! Every block's home node keeps a full-map directory entry: the current
//! owner (a cache, or memory itself) and the set of sharers. Requests are
//! sent to the home, which either answers from memory, forwards the request
//! to the owning cache, and/or issues invalidations; requesters collect
//! invalidation acknowledgements and finish the transaction with an unblock
//! message. The home *blocks* (queues) later requests for a block while one
//! is in flight, so no negative acknowledgements or retries are needed.
//!
//! The cost of this design — and the reason the paper builds TokenB — is the
//! indirection: every cache-to-cache miss takes three interconnect traversals
//! (requester → home → owner → requester) plus the directory lookup, which
//! in the base system lives in DRAM.

use std::collections::{BTreeSet, VecDeque};

use tc_memsys::PendingOp;
use tc_sim::{snap_struct, Fifo, FifoPool};
use tc_types::{
    BlockAddr, Counter, Cycle, DataPayload, Destination, DirectoryMode, Message, MsgKind, NodeId,
    Outbox, SystemConfig, Vnet,
};

use crate::common::MosiState;
use crate::node::{Grant, MosiNode, MosiPolicy};

/// Requester-side bookkeeping for an outstanding directory miss. The
/// pending-op list lives in the controller's [`FifoPool`].
#[derive(Debug)]
pub struct DirMshr {
    pending: Fifo,
    write: bool,
    upgrade: bool,
    issued_at: Cycle,
    data_received: bool,
    exclusive: bool,
    acks_expected: Option<u32>,
    acks_received: u32,
    version: u64,
    dirty: bool,
    from_cache: bool,
}

snap_struct!(DirMshr in FifoPool<PendingOp> {
    pending,
    write,
    upgrade,
    issued_at,
    data_received,
    exclusive,
    acks_expected,
    acks_received,
    version,
    dirty,
    from_cache,
});

/// The home node's directory entry for one block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirEntry {
    owner: Option<NodeId>,
    sharers: BTreeSet<NodeId>,
    busy: bool,
    queue: VecDeque<(NodeId, bool)>,
}

snap_struct!(DirEntry {
    owner,
    sharers,
    busy,
    queue,
});

/// The directory policy: requests go to the home, which forwards,
/// invalidates and blocks; the requester collects acknowledgements and
/// unblocks the home. Evicted shared lines are dropped silently, so the
/// sharer list may over-approximate; that only costs an occasional spurious
/// invalidation (answered with an ack as usual).
#[derive(Debug)]
pub struct Directory {
    directory_latency: Cycle,
}

/// The directory-protocol controller for one node (cache side plus the
/// directory/home side for the blocks it homes).
pub type DirectoryController = MosiNode<Directory>;

impl MosiNode<Directory> {
    // ------------------------------------------------------------------
    // Home / directory side.
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
        self.stats.bump(Counter::DirectoryLookups, 1);
        let entry = self.memory.state_mut(addr);
        if entry.busy {
            entry.queue.push_back((requester, write));
            return;
        }
        self.process_at_home(now, requester, addr, write, out);
    }

    fn process_at_home(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        let dir_delay = self.controller_latency + self.policy.directory_latency;
        let mem_delay = self.controller_latency + self.policy.directory_latency + self.dram_latency;
        let mem_version = self.memory.data_version(addr);
        let entry = self.memory.state_mut(addr);
        let owner = entry.owner;
        let sharers = entry.sharers.clone();

        if write {
            entry.busy = true;
            let other_sharers: Vec<NodeId> = sharers
                .iter()
                .copied()
                .filter(|s| *s != requester && Some(*s) != owner)
                .collect();
            let acks = other_sharers.len() as u32;
            entry.sharers.clear();
            match owner {
                Some(current_owner) if current_owner != requester => {
                    // Forward to the owning cache; it supplies exclusive data
                    // directly to the requester.
                    entry.owner = Some(requester);
                    let fwd = self.unicast(
                        now + dir_delay,
                        current_owner,
                        addr,
                        MsgKind::FwdGetM {
                            requester,
                            acks_expected: acks,
                        },
                        Vnet::Forwarded,
                    );
                    self.send(out, fwd);
                    self.stats.bump(Counter::DirectoryForwards, 1);
                }
                _ => {
                    // Memory owns the block (or the requester is upgrading a
                    // block it already owns): memory supplies the data.
                    entry.owner = Some(requester);
                    let data = self.unicast(
                        now + mem_delay,
                        requester,
                        addr,
                        MsgKind::Data {
                            acks_expected: acks,
                            exclusive: true,
                            from_memory: true,
                            payload: DataPayload::new(mem_version),
                        },
                        Vnet::Response,
                    );
                    self.send(out, data);
                }
            }
            for sharer in other_sharers {
                let inv = self.unicast(
                    now + dir_delay,
                    sharer,
                    addr,
                    MsgKind::Inv { requester },
                    Vnet::Forwarded,
                );
                self.send(out, inv);
                self.stats.bump(Counter::InvalidationsSent, 1);
            }
        } else {
            match owner {
                Some(current_owner) if current_owner != requester => {
                    let entry = self.memory.state_mut(addr);
                    entry.busy = true;
                    entry.sharers.insert(requester);
                    let fwd = self.unicast(
                        now + dir_delay,
                        current_owner,
                        addr,
                        MsgKind::FwdGetS { requester },
                        Vnet::Forwarded,
                    );
                    self.send(out, fwd);
                    self.stats.bump(Counter::DirectoryForwards, 1);
                }
                _ => {
                    // Memory owns the block: respond directly. The entry
                    // still blocks until the requester's unblock so that a
                    // racing GetM cannot invalidate the requester before its
                    // data arrives.
                    let entry = self.memory.state_mut(addr);
                    entry.busy = true;
                    entry.sharers.insert(requester);
                    let data = self.unicast(
                        now + mem_delay,
                        requester,
                        addr,
                        MsgKind::Data {
                            acks_expected: 0,
                            exclusive: false,
                            from_memory: true,
                            payload: DataPayload::new(mem_version),
                        },
                        Vnet::Response,
                    );
                    self.send(out, data);
                }
            }
        }
    }

    fn home_handle_unblock(
        &mut self,
        now: Cycle,
        from: NodeId,
        addr: BlockAddr,
        exclusive: bool,
        out: &mut Outbox,
    ) {
        {
            let entry = self.memory.state_mut(addr);
            if exclusive {
                entry.owner = Some(from);
                entry.sharers.clear();
            } else {
                entry.sharers.insert(from);
            }
            entry.busy = false;
        }
        // Serve the next queued request, if any.
        let next = {
            let entry = self.memory.state_mut(addr);
            entry.queue.pop_front()
        };
        if let Some((requester, write)) = next {
            self.process_at_home(now, requester, addr, write, out);
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
        {
            let entry = self.memory.state_mut(addr);
            if entry.owner == Some(from) && !entry.busy {
                entry.owner = None;
            }
            entry.sharers.remove(&from);
        }
        let ack = self.unicast(
            now + self.controller_latency + self.policy.directory_latency,
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

    fn handle_forward(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        acks_expected: u32,
        out: &mut Outbox,
    ) {
        let Some(line) = self.line_or_wb(addr) else {
            self.stats.bump(Counter::ForwardsWithoutCopy, 1);
            return;
        };
        // A write takes the block whole; so does a read of a dirty Modified
        // line under the migratory optimization. Otherwise the owner keeps
        // an Owned copy.
        let exclusive = write || (line.state == MosiState::Modified && line.dirty);
        let data = self.unicast(
            now + self.controller_latency + self.l2_latency,
            requester,
            addr,
            MsgKind::Data {
                acks_expected,
                exclusive,
                from_memory: false,
                payload: DataPayload::new(line.version),
            },
            Vnet::Response,
        );
        self.send(out, data);
        if exclusive {
            self.l2.remove(addr);
            self.l1.invalidate(addr);
        } else if let Some(l) = self.l2.get(addr) {
            l.state = MosiState::Owned;
        }
    }

    fn handle_inv(&mut self, now: Cycle, requester: NodeId, addr: BlockAddr, out: &mut Outbox) {
        if let Some(line) = self.l2.peek(addr).copied() {
            if !line.state.is_owner() {
                self.l2.remove(addr);
            }
        }
        self.l1.invalidate(addr);
        let ack = self.unicast(
            now + self.controller_latency,
            requester,
            addr,
            MsgKind::InvAck,
            Vnet::Response,
        );
        self.send(out, ack);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_data(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        acks_expected: u32,
        exclusive: bool,
        from_memory: bool,
        payload: DataPayload,
        out: &mut Outbox,
    ) {
        let Some(mshr) = self.mshrs.get_mut(addr) else {
            return;
        };
        mshr.data_received = true;
        mshr.exclusive |= exclusive;
        mshr.version = payload.version;
        mshr.dirty = !from_memory;
        mshr.from_cache |= !from_memory;
        let expected = mshr.acks_expected.unwrap_or(0).max(acks_expected);
        mshr.acks_expected = Some(expected);
        self.try_complete(now, addr, out);
    }

    fn handle_inv_ack(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        if let Some(mshr) = self.mshrs.get_mut(addr) {
            mshr.acks_received += 1;
        }
        self.try_complete(now, addr, out);
    }
}

impl MosiPolicy for Directory {
    const NAME: &'static str = "Directory";
    type Mshr = DirMshr;
    type Home = DirEntry;

    fn new(config: &SystemConfig) -> Self {
        Directory {
            directory_latency: match config.directory_mode {
                DirectoryMode::InDram => config.dram_latency_ns,
                DirectoryMode::Perfect => 0,
            },
        }
    }

    fn destination(&self, home: NodeId) -> Destination {
        Destination::Node(home)
    }

    fn new_mshr(&self, pending: Fifo, first: PendingOp, upgrade: bool, now: Cycle) -> DirMshr {
        DirMshr {
            pending,
            write: first.write,
            upgrade,
            issued_at: now,
            data_received: false,
            exclusive: false,
            acks_expected: None,
            acks_received: 0,
            version: 0,
            dirty: false,
            from_cache: false,
        }
    }

    fn pending(mshr: &mut DirMshr) -> &mut Fifo {
        &mut mshr.pending
    }

    /// Data, plus — for a write — every invalidation acknowledgement.
    fn ready(_node: &DirectoryController, _addr: BlockAddr, mshr: &DirMshr) -> Option<Grant> {
        let acked = !mshr.write || mshr.acks_received >= mshr.acks_expected.unwrap_or(0);
        (mshr.data_received && acked).then_some(Grant {
            write: mshr.write,
            upgrade: mshr.upgrade,
            exclusive: mshr.exclusive,
            issued_at: mshr.issued_at,
            version: mshr.version,
            dirty: mshr.dirty,
            from_cache: mshr.from_cache,
        })
    }

    /// Tells the home the transaction is over so it can unblock.
    fn completed(
        node: &mut DirectoryController,
        now: Cycle,
        addr: BlockAddr,
        _mshr: DirMshr,
        granted_exclusive: bool,
        out: &mut Outbox,
    ) {
        let kind = if granted_exclusive {
            MsgKind::ExclusiveUnblock
        } else {
            MsgKind::Unblock
        };
        let at = now + node.controller_latency;
        let unblock = node.unicast(at, node.home_of(addr), addr, kind, Vnet::Response);
        node.send(out, unblock);
    }

    #[inline]
    fn handle_message(node: &mut DirectoryController, now: Cycle, msg: &Message, out: &mut Outbox) {
        let addr = msg.addr;
        match &msg.kind {
            MsgKind::GetS => node.home_handle_request(now, msg.src, addr, false, out),
            MsgKind::GetM => node.home_handle_request(now, msg.src, addr, true, out),
            MsgKind::FwdGetS { requester } => {
                node.handle_forward(now, *requester, addr, false, 0, out)
            }
            MsgKind::FwdGetM {
                requester,
                acks_expected,
            } => node.handle_forward(now, *requester, addr, true, *acks_expected, out),
            MsgKind::Inv { requester } => node.handle_inv(now, *requester, addr, out),
            MsgKind::Data {
                acks_expected,
                exclusive,
                from_memory,
                payload,
            } => node.handle_data(
                now,
                addr,
                *acks_expected,
                *exclusive,
                *from_memory,
                *payload,
                out,
            ),
            MsgKind::InvAck => node.handle_inv_ack(now, addr, out),
            MsgKind::Unblock => node.home_handle_unblock(now, msg.src, addr, false, out),
            MsgKind::ExclusiveUnblock => node.home_handle_unblock(now, msg.src, addr, true, out),
            MsgKind::PutM => {
                let version = msg.req_id.map(|r| r.value()).unwrap_or(0);
                node.home_handle_putm(now, msg.src, addr, version, out);
            }
            MsgKind::WbAck => {
                node.wb.take(addr);
            }
            other => {
                debug_assert!(false, "Directory received unexpected message {other:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::test_support::{controller, load, store};
    use tc_testkit::deliver;
    use tc_types::{AccessOutcome, CoherenceController, MissKind};

    #[test]
    fn directory_entry_round_trips() {
        tc_testkit::assert_snap_round_trip(&DirEntry::default());
        tc_testkit::assert_snap_round_trip(&DirEntry {
            owner: Some(NodeId::new(2)),
            sharers: [NodeId::new(1), NodeId::new(3)].into(),
            busy: true,
            queue: [(NodeId::new(0), true), (NodeId::new(3), false)].into(),
        });
    }

    #[test]
    fn steady_state_miss_traffic_recycles_pending_op_storage() {
        let mut home: DirectoryController = controller(0);
        let mut requester: DirectoryController = controller(1);

        // Warm-up: a read miss with a store merged into it exercises both
        // the merge path and the deferred-upgrade re-issue path, so the pool
        // reaches its deepest population immediately.
        let mut out = Outbox::new();
        requester.access(0, &load(0, 1), &mut out);
        requester.access(1, &store(0, 2), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 10);
        let done = deliver(&home_out.messages, [&mut requester], 100);
        let home_out = deliver(&done.messages, [&mut home], 110);
        let done = deliver(&home_out.messages, [&mut requester], 200);
        deliver(&done.messages, [&mut home], 210);
        assert_eq!(requester.outstanding_misses(), 0);
        let nodes_after_warmup = requester.pending_ops.nodes();
        assert!(nodes_after_warmup >= 2);

        // Steady state: churn many more misses (distinct home-0 blocks so
        // each access is a genuine miss) than the warm-up population.
        for round in 1..200u64 {
            let addr = round * 4 * 64;
            let at = 1_000 * round;
            let mut out = Outbox::new();
            requester.access(at, &load(addr, 2 * round + 1), &mut out);
            let home_out = deliver(&out.messages, [&mut home], at + 10);
            let done = deliver(&home_out.messages, [&mut requester], at + 100);
            deliver(&done.messages, [&mut home], at + 110);
            assert_eq!(requester.outstanding_misses(), 0);
        }

        assert_eq!(
            requester.pending_ops.nodes(),
            nodes_after_warmup,
            "steady-state misses must recycle pending-op storage, not grow it"
        );
        assert_eq!(requester.pending_ops.values().count(), 0);
    }

    #[test]
    fn read_miss_goes_to_home_and_memory_responds() {
        let mut home: DirectoryController = controller(0);
        let mut requester: DirectoryController = controller(1);
        let mut out = Outbox::new();
        assert_eq!(
            requester.access(0, &load(0, 1), &mut out),
            AccessOutcome::Miss
        );
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].kind, MsgKind::GetS);
        assert_eq!(out.messages[0].dest, Destination::Node(NodeId::new(0)));

        let home_out = deliver(&out.messages, [&mut home], 30);
        assert!(matches!(
            home_out.messages[0].kind,
            MsgKind::Data {
                exclusive: false,
                from_memory: true,
                ..
            }
        ));

        let done = deliver(&home_out.messages, [&mut requester], 200);
        assert_eq!(done.completions.len(), 1);
        assert_eq!(done.completions[0].kind, MissKind::Read);
        // The requester unblocks the home.
        assert!(done.messages.iter().any(|m| m.kind == MsgKind::Unblock));
    }

    #[test]
    fn write_miss_on_shared_block_invalidates_sharers() {
        let mut home: DirectoryController = controller(0);
        let mut reader: DirectoryController = controller(1);
        let mut writer: DirectoryController = controller(2);

        // Reader gets a shared copy first.
        let mut out = Outbox::new();
        reader.access(0, &load(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 10);
        let reader_done = deliver(&home_out.messages, [&mut reader], 100);
        deliver(&reader_done.messages, [&mut home], 110);

        // Writer requests M.
        let mut out = Outbox::new();
        writer.access(200, &store(0, 2), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 210);
        // Home sends data (with one ack expected) and an invalidation.
        let data = home_out
            .messages
            .iter()
            .find(|m| matches!(m.kind, MsgKind::Data { .. }))
            .expect("data response");
        assert!(matches!(
            data.kind,
            MsgKind::Data {
                acks_expected: 1,
                exclusive: true,
                ..
            }
        ));
        let inv = home_out
            .messages
            .iter()
            .find(|m| matches!(m.kind, MsgKind::Inv { .. }))
            .expect("invalidation");
        assert_eq!(inv.dest, Destination::Node(NodeId::new(1)));

        // Data alone is not enough; the ack must arrive too.
        let partial = deliver(&home_out.messages, [&mut writer], 300);
        assert!(partial.completions.is_empty());
        let reader_out = deliver(&home_out.messages, [&mut reader], 310);
        let ack = reader_out
            .messages
            .iter()
            .find(|m| m.kind == MsgKind::InvAck)
            .expect("invalidation ack");
        assert_eq!(ack.dest, Destination::Node(NodeId::new(2)));
        assert_eq!(reader.audit_block(BlockAddr::new(0)).len(), 0);

        let done = deliver(&reader_out.messages, [&mut writer], 400);
        assert_eq!(done.completions.len(), 1);
        assert_eq!(done.completions[0].kind, MissKind::Write);
    }

    #[test]
    fn cache_to_cache_miss_is_forwarded_through_home() {
        let mut home: DirectoryController = controller(0);
        let mut owner: DirectoryController = controller(1);
        let mut reader: DirectoryController = controller(2);

        // Owner takes the block to M and dirties it.
        let mut out = Outbox::new();
        owner.access(0, &store(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 10);
        let owner_done = deliver(&home_out.messages, [&mut owner], 100);
        deliver(&owner_done.messages, [&mut home], 110);

        // Reader misses; home forwards to the owner.
        let mut out = Outbox::new();
        reader.access(200, &load(0, 2), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 210);
        let fwd = home_out
            .messages
            .iter()
            .find(|m| matches!(m.kind, MsgKind::FwdGetS { .. }))
            .expect("forward to owner");
        assert_eq!(fwd.dest, Destination::Node(NodeId::new(1)));

        // Owner responds straight to the reader (migratory: exclusive).
        let owner_out = deliver(&home_out.messages, [&mut owner], 300);
        let data = &owner_out.messages[0];
        assert!(matches!(
            data.kind,
            MsgKind::Data {
                from_memory: false,
                exclusive: true,
                ..
            }
        ));
        assert_eq!(data.dest, Destination::Node(NodeId::new(2)));

        let done = deliver(&owner_out.messages, [&mut reader], 400);
        assert_eq!(done.completions.len(), 1);
        assert!(done.completions[0].cache_to_cache);
        // The reader announces exclusive ownership to the home.
        assert!(done
            .messages
            .iter()
            .any(|m| m.kind == MsgKind::ExclusiveUnblock));
    }

    #[test]
    fn requests_queue_while_the_directory_is_busy() {
        let mut home: DirectoryController = controller(0);
        let mut a: DirectoryController = controller(1);
        let mut b: DirectoryController = controller(2);

        // A starts a write miss; home forwards nothing (memory owner) but
        // becomes busy until the unblock.
        let mut out_a = Outbox::new();
        a.access(0, &store(0, 1), &mut out_a);
        let home_out_a = deliver(&out_a.messages, [&mut home], 10);

        // B's write miss arrives while the directory is still busy.
        let mut out_b = Outbox::new();
        b.access(20, &store(0, 2), &mut out_b);
        let home_out_b = deliver(&out_b.messages, [&mut home], 30);
        assert!(
            home_out_b.messages.is_empty(),
            "the busy directory must queue, not respond"
        );

        // A completes and unblocks; the home then serves B by forwarding to A.
        let a_done = deliver(&home_out_a.messages, [&mut a], 100);
        let home_after_unblock = deliver(&a_done.messages, [&mut home], 150);
        assert!(home_after_unblock
            .messages
            .iter()
            .any(|m| matches!(m.kind, MsgKind::FwdGetM { .. })));
    }

    #[test]
    fn writeback_returns_ownership_to_memory() {
        let mut home: DirectoryController = controller(0);
        let mut owner: DirectoryController = controller(1);
        let mut out = Outbox::new();
        owner.access(0, &store(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 10);
        let owner_done = deliver(&home_out.messages, [&mut owner], 100);
        deliver(&owner_done.messages, [&mut home], 110);

        // Evict by inserting a conflicting line directly.
        let mut out = Outbox::new();
        let line = *owner.l2.peek(BlockAddr::new(0)).unwrap();
        owner.l2.remove(BlockAddr::new(0));
        owner.evict(200, BlockAddr::new(0), line, &mut out);
        let putm = out
            .messages
            .iter()
            .find(|m| m.kind == MsgKind::PutM)
            .expect("writeback sent");
        assert_eq!(putm.dest, Destination::Node(NodeId::new(0)));

        let home_out = deliver(&out.messages, [&mut home], 300);
        assert!(home_out.messages.iter().any(|m| m.kind == MsgKind::WbAck));
        // Memory is the owner again: a later read is served from memory.
        let mut reader: DirectoryController = controller(2);
        let mut rout = Outbox::new();
        reader.access(400, &load(0, 5), &mut rout);
        let resp = deliver(&rout.messages, [&mut home], 410);
        assert!(matches!(
            resp.messages[0].kind,
            MsgKind::Data {
                from_memory: true,
                ..
            }
        ));
    }

    #[test]
    fn upgrade_miss_counts_as_upgrade() {
        let mut home: DirectoryController = controller(0);
        let mut c: DirectoryController = controller(1);
        // Obtain a shared copy.
        let mut out = Outbox::new();
        c.access(0, &load(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 10);
        let done = deliver(&home_out.messages, [&mut c], 100);
        deliver(&done.messages, [&mut home], 110);
        // Now store to it.
        let mut out = Outbox::new();
        assert_eq!(c.access(200, &store(0, 2), &mut out), AccessOutcome::Miss);
        let home_out = deliver(&out.messages, [&mut home], 210);
        let done = deliver(&home_out.messages, [&mut c], 300);
        assert_eq!(done.completions[0].kind, MissKind::Upgrade);
        assert_eq!(c.stats().misses.upgrade_misses, 1);
    }

    #[test]
    fn hits_do_not_generate_traffic() {
        let mut home: DirectoryController = controller(0);
        let mut c: DirectoryController = controller(1);
        let mut out = Outbox::new();
        c.access(0, &store(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 10);
        deliver(&home_out.messages, [&mut c], 100);
        let mut out = Outbox::new();
        assert!(matches!(
            c.access(200, &load(0, 2), &mut out),
            AccessOutcome::Hit { .. }
        ));
        assert!(matches!(
            c.access(210, &store(0, 3), &mut out),
            AccessOutcome::Hit { .. }
        ));
        assert!(out.messages.is_empty());
    }
}
