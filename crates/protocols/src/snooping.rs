//! Traditional MOSI split-transaction snooping on a totally-ordered
//! interconnect.
//!
//! Every request (and every writeback) is broadcast to *all* nodes —
//! including the requester itself — over the ordered tree interconnect. The
//! single root switch serializes the broadcasts, so every node observes every
//! request in the same order; that total order is what resolves races with no
//! home-node indirection. A single "owner bit" kept at the block's home
//! memory (following Frank's scheme, as the paper does) decides when memory
//! must supply the data, avoiding a snoop-response combining tree.
//!
//! The one place the total order is not enough is the **writeback race**: a
//! broadcast PutM is only an ordered *marker*, and between the marker and
//! the (unordered) writeback data reaching the home, the block has no cache
//! owner and memory does not yet have the data. Requests ordered in that
//! window used to be stranded forever — the deadlock that kept the snooping
//! baseline out of the contended sweeps. The fix is the
//! writeback-acknowledgement handshake (see [`crate::common::WbWindow`]):
//!
//! 1. The PutM marker opens a *writeback window* at the block's home; every
//!    request ordered while the window is open is queued there.
//! 2. When the writer observes its own PutM in the total order it answers
//!    with exactly one handshake message: the writeback **data** if it still
//!    holds the block (requests ordered *before* the PutM may have taken it),
//!    or an explicit **WbCancel** if it does not. Either way the writer's
//!    buffer entry is gone from that point on — requests ordered after the
//!    PutM are never the writer's responsibility.
//! 3. On data, memory applies the writeback, becomes the owner, and answers
//!    the queued requests (reads, then at most one write — the write's winner
//!    observes and answers everything ordered after it). On cancel, the
//!    queue is dropped: whichever cache took ownership before the PutM
//!    observes those same requests in its own ordered stream.
//!
//! The protocol is the low-latency baseline for cache-to-cache misses — but
//! it fundamentally cannot run on the unordered torus, which is exactly the
//! limitation TokenB removes.

use tc_memsys::PendingOp;
use tc_sim::{snap_struct, Fifo, FifoPool};
use tc_types::{
    BlockAddr, Counter, Cycle, DataPayload, Destination, Message, MsgKind, NodeId, Outbox, ReqId,
    SystemConfig, Vnet,
};

use crate::common::{MosiState, QueuedRequest, WbHandshake, WbResolution};
use crate::node::{Grant, MosiNode, MosiPolicy};

/// Requester-side bookkeeping for an outstanding snooping miss.
#[derive(Debug)]
pub struct SnoopMshr {
    pending: Fifo,
    /// The request id this transaction was broadcast under. Every data
    /// response echoes it, so a late response to an already-completed
    /// transaction (for example the redundant memory response to an upgrade
    /// that completed via `still_valid`) can never complete a *later* miss
    /// for the same block.
    req_id: ReqId,
    write: bool,
    upgrade: bool,
    issued_at: Cycle,
    /// Whether this node has observed its own request in the total order.
    ordered: bool,
    data_received: bool,
    exclusive: bool,
    version: u64,
    dirty: bool,
    from_cache: bool,
    /// Whether the node still held a readable copy when its own request was
    /// ordered (upgrades complete without waiting for data).
    still_valid: bool,
    /// Requests by other nodes, observed after ours was ordered, that we must
    /// answer once we obtain the block.
    forward_queue: Vec<QueuedRequest>,
}

snap_struct!(SnoopMshr in FifoPool<PendingOp> {
    pending,
    req_id,
    write,
    upgrade,
    issued_at,
    ordered,
    data_received,
    exclusive,
    version,
    dirty,
    from_cache,
    still_valid,
    forward_queue,
});

/// Memory-side state: the "owner bit" — true when memory must respond.
/// Writebacks in flight are tracked separately by the per-block handshake
/// windows of the [`crate::WritebackPlane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OwnerBit {
    memory_owner: bool,
}

snap_struct!(OwnerBit { memory_owner });

impl Default for OwnerBit {
    fn default() -> Self {
        OwnerBit { memory_owner: true }
    }
}

/// The snooping policy: requests and PutMs are broadcast to everyone —
/// including the sender, whose self-delivery, ordered by the root switch,
/// tells it where its request falls in the total order.
#[derive(Debug)]
pub struct Snooping;

/// The snooping controller for one node.
pub type SnoopingController = MosiNode<Snooping>;

impl MosiNode<Snooping> {
    // ------------------------------------------------------------------
    // Snoop handling: every node sees every request in the same order.
    // ------------------------------------------------------------------

    fn snoop_request(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        req_id: Option<ReqId>,
        out: &mut Outbox,
    ) {
        if requester == self.node {
            self.observe_own_request(now, addr, out);
        } else {
            self.snoop_other_request(now, requester, addr, write, req_id, out);
        }
        // Home-memory processing happens at every node for the blocks it
        // homes, regardless of who requested.
        if self.is_home(addr) {
            self.memory_snoop(now, requester, addr, write, req_id, out);
        }
    }

    fn observe_own_request(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let still_valid = self
            .l2
            .peek(addr)
            .map(|l| l.state.readable())
            .unwrap_or(false);
        if let Some(mshr) = self.mshrs.get_mut(addr) {
            mshr.ordered = true;
            mshr.still_valid = still_valid;
        }
        self.try_complete(now, addr, out);
    }

    fn snoop_other_request(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        req_id: Option<ReqId>,
        out: &mut Outbox,
    ) {
        let request = QueuedRequest {
            requester,
            write,
            req_id,
        };

        // If we have an ordered outstanding request for this block, we are
        // (or are about to become) the block's owner in the total order, so
        // we must remember this request and answer it once our data arrives.
        if let Some(mshr) = self.mshrs.get_mut(addr).filter(|m| m.ordered) {
            mshr.forward_queue.push(request);
            return;
        }

        let in_live_cache = self.l2.contains(addr);
        match self.line_or_wb(addr) {
            Some(line) if line.state.is_owner() => {
                // The migratory hand-off is only applied from a live cache
                // line; a block sitting in the write-back buffer answers GetS
                // requests with a plain shared copy so that ownership only
                // leaves the buffer through a GetM (which the home can track).
                let exclusive = self.answer_as_owner(now, addr, line, request, in_live_cache, out);
                self.stats.bump(Counter::SnoopDataResponses, 1);
                if exclusive {
                    // Ownership (and the writeback obligation) moves to the
                    // requester; the pending writeback is cancelled.
                    self.wb.take(addr);
                } else if !in_live_cache {
                    // The shared copy came out of the writeback buffer: the
                    // entry must demote to Owned just like a live line, or a
                    // pullback (re-access before the PutM is ordered) would
                    // reinstall it as Modified and let a store hit locally
                    // while the requester's shared copy is never invalidated.
                    if let Some(entry) = self.wb.line_mut(addr) {
                        entry.state = MosiState::Owned;
                    }
                }
            }
            Some(_) if write => {
                // Another node's ordered GetM invalidates our shared copy; no
                // acknowledgement is needed because the order is authoritative.
                self.l2.remove(addr);
                self.l1.invalidate(addr);
                self.stats.bump(Counter::SnoopInvalidations, 1);
            }
            _ => {}
        }

        // If this node's own (not yet ordered) request races with the other
        // node's ordered request, our copy is gone; we will simply wait for
        // data from the new owner.
    }

    fn memory_snoop(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        req_id: Option<ReqId>,
        out: &mut Outbox,
    ) {
        if self.memory.state_mut(addr).memory_owner {
            // Memory is the owner of record and answers directly, even while
            // a (necessarily stale) writeback window is open: a PutM ordered
            // while memory owns the block can only resolve to a cancel.
            if write {
                self.memory.state_mut(addr).memory_owner = false;
            }
            let version = self.memory.data_version(addr);
            self.send_memory_response(now, requester, addr, write, version, req_id, out);
        } else if self.wb.window_is_open(addr) {
            // No owner anywhere: the previous owner's writeback marker has
            // been ordered but its data (or cancel) is still in flight. Queue
            // the request; the handshake resolution answers it. This is the
            // request that used to be stranded.
            self.wb.window_queue_request(
                addr,
                QueuedRequest {
                    requester,
                    write,
                    req_id,
                },
            );
            self.stats.bump(Counter::WbWindowQueuedRequests, 1);
        }
        // Otherwise some cache owns the block and observes this same ordered
        // request; answering is its responsibility.
    }

    /// Sends a data response sourced by this node's home memory.
    #[allow(clippy::too_many_arguments)]
    fn send_memory_response(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        exclusive: bool,
        version: u64,
        req_id: Option<ReqId>,
        out: &mut Outbox,
    ) {
        let at = now + self.controller_latency + self.dram_latency;
        let mut data = self.unicast(
            at,
            requester,
            addr,
            MsgKind::Data {
                acks_expected: 0,
                exclusive,
                from_memory: true,
                payload: DataPayload::new(version),
            },
            Vnet::Response,
        );
        data.req_id = req_id;
        self.send(out, data);
        self.stats.bump(Counter::MemoryResponses, 1);
    }

    /// An ordered PutM marker: opens the home's writeback window, and — at
    /// the writer — triggers the handshake response (data or cancel).
    fn snoop_writeback(
        &mut self,
        now: Cycle,
        from: NodeId,
        addr: BlockAddr,
        version: u64,
        out: &mut Outbox,
    ) {
        if self.is_home(addr) {
            let resolutions = self.wb.window_on_putm(addr, from, version);
            // The handshake normally trails its marker, but cascade anyway in
            // case it was stashed.
            self.apply_wb_resolutions(now, addr, resolutions, out);
        }
        if from == self.node {
            // Observing our own PutM is the handshake point: from here on,
            // requests ordered after the PutM are the home's responsibility,
            // so the buffer entry must go either way. Ship the data if we
            // still hold the block *this marker announced* (the version
            // check: the block may have been pulled back, re-written and
            // re-evicted, in which case this marker is void and a later one
            // carries the data); cancel otherwise.
            let still_held = self
                .wb
                .line(addr)
                .map(|line| line.version == version)
                .unwrap_or(false);
            let home = self.home_of(addr);
            let handshake = if still_held {
                let line = self.wb.take(addr).expect("checked above");
                Message::new(
                    self.node,
                    Destination::Node(home),
                    addr,
                    MsgKind::Data {
                        acks_expected: 0,
                        exclusive: false,
                        from_memory: false,
                        payload: DataPayload::new(line.version),
                    },
                    Vnet::Writeback,
                    now + self.controller_latency,
                )
            } else {
                self.stats.bump(Counter::WritebacksCancelled, 1);
                Message::new(
                    self.node,
                    Destination::Node(home),
                    addr,
                    MsgKind::WbCancel,
                    Vnet::Writeback,
                    now + self.controller_latency,
                )
                .with_req_id(ReqId::new(version))
            };
            self.send(out, handshake);
        }
    }

    /// The home receives a writeback handshake message (the data, or a
    /// cancel) from `writer`.
    fn on_wb_handshake(
        &mut self,
        now: Cycle,
        writer: NodeId,
        addr: BlockAddr,
        version: u64,
        outcome: WbHandshake,
        out: &mut Outbox,
    ) {
        debug_assert!(self.is_home(addr));
        let resolutions = self.wb.window_on_handshake(addr, writer, version, outcome);
        self.apply_wb_resolutions(now, addr, resolutions, out);
    }

    /// Applies resolved writeback markers: commits the data (memory becomes
    /// the owner) and answers the requests queued in each window.
    fn apply_wb_resolutions(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        resolutions: Vec<WbResolution>,
        out: &mut Outbox,
    ) {
        for resolution in resolutions {
            if resolution.outcome == WbHandshake::Data {
                self.memory.write_data(addr, resolution.version);
                self.memory.state_mut(addr).memory_owner = true;
                for request in resolution.serve {
                    if request.write {
                        self.memory.state_mut(addr).memory_owner = false;
                    }
                    self.send_memory_response(
                        now,
                        request.requester,
                        addr,
                        request.write,
                        resolution.version,
                        request.req_id,
                        out,
                    );
                    self.stats.bump(Counter::WbWindowServedRequests, 1);
                }
            }
            // A cancelled marker needs no action: ownership never left the
            // cache side, and the owner answers the dropped requests itself.
            // (The plane drops the window entry itself once it is empty.)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_data(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        exclusive: bool,
        from_memory: bool,
        payload: DataPayload,
        req_id: Option<ReqId>,
        out: &mut Outbox,
    ) {
        let Some(mshr) = self.mshrs.get_mut(addr) else {
            return;
        };
        // A response tagged for an earlier transaction on this block (for
        // example the redundant memory response to an upgrade that already
        // completed via `still_valid`) must not complete this one.
        if let Some(id) = req_id {
            if id != mshr.req_id {
                return;
            }
        }
        // A cache-supplied copy supersedes memory's copy (memory may respond
        // as well when its owner bit is stale for at most one transition).
        if !from_memory || !mshr.data_received {
            mshr.version = payload.version;
            mshr.dirty = !from_memory;
            mshr.from_cache |= !from_memory;
        }
        mshr.data_received = true;
        mshr.exclusive |= exclusive;
        self.try_complete(now, addr, out);
    }

    /// Serves the requests this node promised to answer while its own miss
    /// was in flight, in order, until one of them takes ownership away.
    fn serve_forward_queue(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        forward_queue: Vec<QueuedRequest>,
        out: &mut Outbox,
    ) {
        let mut still_owner = self.l2.peek(addr).is_some_and(|l| l.state.is_owner());
        for request in forward_queue {
            if !still_owner {
                // The request is someone else's responsibility now; if it was
                // an exclusive request, our copy must go.
                if request.write {
                    self.l2.remove(addr);
                    self.l1.invalidate(addr);
                }
                continue;
            }
            let Some(line) = self.l2.peek(addr).copied() else {
                break;
            };
            still_owner = !self.answer_as_owner(now, addr, line, request, true, out);
        }
    }
}

impl MosiPolicy for Snooping {
    const NAME: &'static str = "Snooping";
    const READ_HITS_DATE_FROM_COPY: bool = true;
    const TAGS_REQUESTS: bool = true;
    type Mshr = SnoopMshr;
    type Home = OwnerBit;

    fn new(_config: &SystemConfig) -> Self {
        Snooping
    }

    /// Writebacks are broadcast too, so the total order covers them.
    fn destination(&self, _home: NodeId) -> Destination {
        Destination::All
    }

    fn new_mshr(&self, pending: Fifo, first: PendingOp, upgrade: bool, now: Cycle) -> SnoopMshr {
        SnoopMshr {
            pending,
            req_id: first.req_id,
            write: first.write,
            upgrade,
            issued_at: now,
            ordered: false,
            data_received: false,
            exclusive: false,
            version: 0,
            dirty: false,
            from_cache: false,
            still_valid: false,
            forward_queue: Vec::new(),
        }
    }

    fn pending(mshr: &mut SnoopMshr) -> &mut Fifo {
        &mut mshr.pending
    }

    /// A block sitting in the writeback buffer is pulled straight back into
    /// the cache: this node is still the block's owner of record, so
    /// broadcasting a request for it would go unanswered (the old
    /// self-deadlock). The in-flight PutM resolves as a WbCancel when this
    /// node observes it with the buffer entry gone.
    #[inline]
    fn before_access(node: &mut SnoopingController, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        if let Some(line) = node.wb.take(addr) {
            node.stats.bump(Counter::WritebackPullbacks, 1);
            node.install_line(now, addr, line, out);
        }
    }

    /// The node's own request has been ordered, and the data has arrived —
    /// or, for an upgrade, the copy survived until then, in which case the
    /// resident copy's version is the one to start from.
    fn ready(node: &SnoopingController, addr: BlockAddr, mshr: &SnoopMshr) -> Option<Grant> {
        if !mshr.ordered || !(mshr.data_received || (mshr.write && mshr.still_valid)) {
            return None;
        }
        let version = if mshr.data_received {
            mshr.version
        } else {
            node.l2.peek(addr).map(|l| l.version).unwrap_or(0)
        };
        Some(Grant {
            write: mshr.write,
            upgrade: mshr.upgrade,
            exclusive: mshr.exclusive,
            issued_at: mshr.issued_at,
            version,
            dirty: mshr.dirty,
            from_cache: mshr.from_cache,
        })
    }

    fn completed(
        node: &mut SnoopingController,
        now: Cycle,
        addr: BlockAddr,
        mshr: SnoopMshr,
        _granted_exclusive: bool,
        out: &mut Outbox,
    ) {
        node.serve_forward_queue(now, addr, mshr.forward_queue, out);
    }

    #[inline]
    fn handle_message(node: &mut SnoopingController, now: Cycle, msg: &Message, out: &mut Outbox) {
        let addr = msg.addr;
        match &msg.kind {
            MsgKind::GetS => node.snoop_request(now, msg.src, addr, false, msg.req_id, out),
            MsgKind::GetM => node.snoop_request(now, msg.src, addr, true, msg.req_id, out),
            MsgKind::PutM => {
                let version = msg.req_id.map(|r| r.value()).unwrap_or(0);
                node.snoop_writeback(now, msg.src, addr, version, out);
            }
            MsgKind::Data {
                exclusive,
                from_memory,
                payload,
                ..
            } => {
                if msg.vnet == Vnet::Writeback {
                    node.on_wb_handshake(
                        now,
                        msg.src,
                        addr,
                        payload.version,
                        WbHandshake::Data,
                        out,
                    );
                } else {
                    node.handle_data(
                        now,
                        addr,
                        *exclusive,
                        *from_memory,
                        *payload,
                        msg.req_id,
                        out,
                    );
                }
            }
            MsgKind::WbCancel => {
                let version = msg.req_id.map(|r| r.value()).unwrap_or(0);
                node.on_wb_handshake(now, msg.src, addr, version, WbHandshake::Cancel, out);
            }
            other => {
                debug_assert!(false, "Snooping received unexpected message {other:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::test_support::{controller, load, store};
    use tc_testkit::deliver;
    use tc_types::{AccessOutcome, CoherenceController, MissCompletion, MissKind};

    #[test]
    fn owner_bit_round_trips() {
        tc_testkit::assert_snap_round_trip(&OwnerBit::default());
        tc_testkit::assert_snap_round_trip(&OwnerBit {
            memory_owner: false,
        });
    }

    fn run_until_quiet(
        mut frontier: Outbox,
        nodes: &mut [SnoopingController],
        start: Cycle,
    ) -> Vec<MissCompletion> {
        let mut completions = Vec::new();
        let mut now = start;
        for _ in 0..12 {
            if frontier.messages.is_empty() {
                break;
            }
            now += 60;
            let next = deliver(&frontier.messages, &mut *nodes, now);
            completions.extend(next.completions.iter().copied());
            frontier = next;
        }
        completions
    }

    #[test]
    fn requests_are_broadcast_to_everyone_including_self() {
        let mut c: SnoopingController = controller(1);
        let mut out = Outbox::new();
        c.access(0, &load(0, 1), &mut out);
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].dest, Destination::All);
    }

    #[test]
    fn memory_owner_bit_makes_memory_respond_exactly_once() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &load(0, 1), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 0);
        assert_eq!(completions.len(), 1);
        assert!(!completions[0].cache_to_cache);
        assert_eq!(
            nodes[1].l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Shared
        );
        // Memory stays the owner for shared data.
        let home_stats = nodes[0].stats();
        assert_eq!(home_stats.counter(Counter::MemoryResponses), 1);
    }

    #[test]
    fn write_miss_transfers_ownership_from_memory_to_cache() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[2].access(0, &store(0, 1), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 0);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].kind, MissKind::Write);
        assert_eq!(
            nodes[2].l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );

        // A second writer obtains the block from the first cache, not memory.
        let mut out = Outbox::new();
        nodes[3].access(1000, &store(0, 2), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 1000);
        assert_eq!(completions.len(), 1);
        assert!(completions[0].cache_to_cache);
        assert!(nodes[2].l2.peek(BlockAddr::new(0)).is_none());
    }

    #[test]
    fn migratory_read_takes_the_whole_block() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[2].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        let mut out = Outbox::new();
        nodes[1].access(1000, &load(0, 2), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 1000);
        assert_eq!(completions.len(), 1);
        assert!(completions[0].cache_to_cache);
        // With the migratory optimization the reader ends up with an
        // exclusive (Modified) copy and the old owner is invalidated.
        assert_eq!(
            nodes[1].l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );
        assert!(nodes[2].l2.peek(BlockAddr::new(0)).is_none());
    }

    #[test]
    fn upgrade_completes_when_its_own_request_is_ordered() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        // Get a shared copy at node 1.
        let mut out = Outbox::new();
        nodes[1].access(0, &load(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);
        assert_eq!(
            nodes[1].l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Shared
        );

        // Store to it: the upgrade completes once the GetM is ordered, even
        // though memory also supplies (redundant) data.
        let mut out = Outbox::new();
        assert_eq!(
            nodes[1].access(1000, &store(0, 2), &mut out),
            AccessOutcome::Miss
        );
        let completions = run_until_quiet(out, &mut nodes, 1000);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].kind, MissKind::Upgrade);
        assert_eq!(
            nodes[1].l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );
    }

    #[test]
    fn racing_writes_are_resolved_by_the_total_order() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        // Both node 1 and node 2 issue GetM for the same block "at once";
        // the delivery order (node 1 first) is the total order.
        let mut out1 = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out1);
        let mut out2 = Outbox::new();
        nodes[2].access(0, &store(0, 2), &mut out2);
        let mut combined = Outbox::new();
        combined.messages.extend(out1.messages);
        combined.messages.extend(out2.messages);

        let completions = run_until_quiet(combined, &mut nodes, 0);
        assert_eq!(completions.len(), 2, "both writers eventually complete");
        // Exactly one cache ends with the modified copy.
        let holders: Vec<_> = (0..4)
            .filter(|n| {
                nodes[*n]
                    .l2
                    .peek(BlockAddr::new(0))
                    .map(|l| l.state == MosiState::Modified)
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(holders.len(), 1);
        // The loser's write must be ordered after the winner's: its final
        // version is the globally newest.
        let winner_version = completions.iter().map(|c| c.data_version).max().unwrap();
        let holder = holders[0];
        assert_eq!(
            nodes[holder].l2.peek(BlockAddr::new(0)).unwrap().version,
            winner_version
        );
    }

    /// A request ordered *inside* the writeback window — after the PutM
    /// marker but before the writeback data reaches the home — used to be
    /// stranded forever. The handshake queues it at the home and serves it
    /// when the data arrives.
    #[test]
    fn request_ordered_in_the_writeback_window_is_served_by_memory() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        // Evict the modified line: the PutM marker is broadcast.
        let line = *nodes[1].l2.peek(BlockAddr::new(0)).unwrap();
        nodes[1].l2.remove(BlockAddr::new(0));
        let mut out = Outbox::new();
        nodes[1].evict(2000, BlockAddr::new(0), line, &mut out);
        let putm = out.messages[0].clone();
        assert_eq!(putm.kind, MsgKind::PutM);

        // Deliver the marker everywhere. The writer ships the data; hold it.
        let mut handshake = Outbox::new();
        for node in nodes.iter_mut() {
            node.handle_message(2100, &putm, &mut handshake);
        }
        let data = handshake.messages.pop().expect("writeback data shipped");
        assert_eq!(data.vnet, Vnet::Writeback);
        assert!(nodes[1].wb.buffer_is_empty(), "entry dropped at handshake");

        // A read ordered inside the window: nobody owns the block, so the
        // home queues it rather than leaving it stranded.
        let mut out = Outbox::new();
        nodes[3].access(2200, &load(0, 9), &mut out);
        let gets = out.messages[0].clone();
        let mut after_gets = Outbox::new();
        for node in nodes.iter_mut() {
            node.handle_message(2300, &gets, &mut after_gets);
        }
        assert!(
            after_gets.messages.is_empty(),
            "no response while the window is open"
        );
        assert_eq!(nodes[0].stats().counter(Counter::WbWindowQueuedRequests), 1);

        // The writeback data arrives: memory applies it and serves the queue.
        let mut served = Outbox::new();
        nodes[0].handle_message(2400, &data, &mut served);
        assert_eq!(served.messages.len(), 1);
        let completions = run_until_quiet(served, &mut nodes, 2400);
        assert_eq!(completions.len(), 1);
        assert!(!completions[0].cache_to_cache);
        assert_eq!(completions[0].data_version, line.version);
        assert_eq!(nodes[0].stats().counter(Counter::WbWindowServedRequests), 1);
    }

    /// Re-accessing a block whose writeback is still in flight pulls it back
    /// out of the writeback buffer (the node is still the owner of record);
    /// the in-flight PutM then resolves as an explicit WbCancel at the home.
    #[test]
    fn reaccess_during_writeback_pulls_the_block_back_and_cancels() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        let line = *nodes[1].l2.peek(BlockAddr::new(0)).unwrap();
        nodes[1].l2.remove(BlockAddr::new(0));
        let mut out = Outbox::new();
        nodes[1].evict(2000, BlockAddr::new(0), line, &mut out);
        let putm = out.messages[0].clone();
        assert!(nodes[1].wb.contains(BlockAddr::new(0)));

        // Re-access before the PutM is ordered: a hit straight out of the
        // writeback buffer, no broadcast.
        let mut out = Outbox::new();
        let outcome = nodes[1].access(2050, &load(0, 2), &mut out);
        assert!(matches!(outcome, AccessOutcome::Hit { .. }));
        assert!(out.messages.is_empty());
        assert!(nodes[1].wb.buffer_is_empty());
        assert_eq!(
            nodes[1].l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );

        // The stale marker resolves as a cancel; memory does not become the
        // owner and the node still answers later requests.
        let mut handshake = Outbox::new();
        for node in nodes.iter_mut() {
            node.handle_message(2100, &putm, &mut handshake);
        }
        assert_eq!(handshake.messages.len(), 1);
        assert_eq!(handshake.messages[0].kind, MsgKind::WbCancel);
        let mut quiet = Outbox::new();
        nodes[0].handle_message(2200, &handshake.messages[0], &mut quiet);
        assert!(quiet.messages.is_empty());
        assert_eq!(nodes[1].stats().counter(Counter::WritebackPullbacks), 1);
        assert_eq!(nodes[1].stats().counter(Counter::WritebacksCancelled), 1);

        let mut out = Outbox::new();
        nodes[3].access(3000, &load(0, 9), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 3000);
        assert_eq!(completions.len(), 1);
        assert!(
            completions[0].cache_to_cache,
            "the pulled-back owner serves"
        );
    }

    /// A GetS answered out of the writeback buffer must demote the buffer
    /// entry to Owned: if the block is then pulled back by a local store,
    /// the store must take the upgrade-broadcast path (invalidating the
    /// reader) — never hit a silently-still-Modified line while the
    /// reader's shared copy lives on.
    #[test]
    fn store_after_wb_buffer_answered_a_gets_takes_the_upgrade_path() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        // Evict the modified line; hold the PutM.
        let line = *nodes[1].l2.peek(BlockAddr::new(0)).unwrap();
        nodes[1].l2.remove(BlockAddr::new(0));
        let mut out = Outbox::new();
        nodes[1].evict(2000, BlockAddr::new(0), line, &mut out);
        let putm = out.messages[0].clone();

        // A read ordered before the PutM is answered from the buffer with a
        // shared copy; the buffer entry demotes to Owned.
        let mut out = Outbox::new();
        nodes[3].access(2100, &load(0, 2), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 2100);
        assert_eq!(completions.len(), 1);
        assert!(completions[0].cache_to_cache);
        assert_eq!(
            nodes[1].wb.line(BlockAddr::new(0)).unwrap().state,
            MosiState::Owned
        );

        // The writer re-accesses with a store: the pullback yields an Owned
        // (not writable) line, so the store must miss and broadcast.
        let mut upgrade_out = Outbox::new();
        let outcome = nodes[1].access(2200, &store(0, 3), &mut upgrade_out);
        assert_eq!(outcome, AccessOutcome::Miss, "store must not hit silently");
        assert!(upgrade_out.messages.iter().any(|m| m.kind == MsgKind::GetM));

        // Deliver the stale PutM (resolves as a cancel), then the upgrade.
        let cancel_round = deliver(&[putm], &mut nodes, 2300);
        run_until_quiet(cancel_round, &mut nodes, 2300);
        let completions = run_until_quiet(upgrade_out, &mut nodes, 2400);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].kind, MissKind::Upgrade);
        assert_eq!(
            nodes[1].l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );
        assert!(
            nodes[3].l2.peek(BlockAddr::new(0)).is_none(),
            "the reader's shared copy must be invalidated by the upgrade"
        );
    }

    #[test]
    fn writeback_restores_the_memory_owner_bit() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        // Evict the modified line.
        let line = *nodes[1].l2.peek(BlockAddr::new(0)).unwrap();
        nodes[1].l2.remove(BlockAddr::new(0));
        let mut out = Outbox::new();
        nodes[1].evict(2000, BlockAddr::new(0), line, &mut out);
        assert!(out.messages.iter().any(|m| m.kind == MsgKind::PutM));
        run_until_quiet(out, &mut nodes, 2000);

        // A later read is served by memory again.
        let mut out = Outbox::new();
        nodes[3].access(3000, &load(0, 9), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 3000);
        assert_eq!(completions.len(), 1);
        assert!(!completions[0].cache_to_cache);
        assert_eq!(completions[0].data_version, line.version);
    }
}
