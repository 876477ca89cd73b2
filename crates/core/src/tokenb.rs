//! TokenB: the broadcast performance protocol on top of the token-counting
//! correctness substrate.

use tc_memsys::{version_node_bits, PendingOp};
use tc_sim::{snap_state, snap_struct, DeterministicRng, Fifo, FifoPool};
use tc_types::{
    AccessOutcome, BlockAddr, BlockAudit, CoherenceController, ControllerStats, Counter, Cycle,
    DataPayload, Destination, LineStateStats, MemOp, Message, MissCompletion, MissKind, MsgKind,
    NodeId, Outbox, SystemConfig, Timer, TimerKind, Vnet,
};

use crate::arbiter::ArbiterAction;
use crate::state::{Arrival, Holding, TokenSubstrate, TokenTransfer};
use crate::timeout::MissLatencyTracker;

/// Bookkeeping for one outstanding TokenB miss. The pending-op list lives
/// in the substrate's [`FifoPool`].
#[derive(Debug)]
pub(crate) struct TokenMshr {
    pending: Fifo,
    /// Whether the miss needs all tokens (any pending store).
    pub(crate) write: bool,
    /// Whether the processor already held a readable copy (upgrade miss).
    upgrade: bool,
    issued_at: Cycle,
    /// Number of times the transient request has been issued (1 = first).
    issue_count: u32,
    /// Whether the miss has escalated to a persistent request.
    persistent: bool,
    /// Sequence number of the currently armed reissue timer, to ignore stale
    /// timers after a reissue or completion.
    timer_seq: u64,
    /// Whether any data that arrived came from another cache.
    data_from_cache: bool,
}

snap_struct!(TokenMshr in FifoPool<PendingOp> {
    pending,
    write,
    upgrade,
    issued_at,
    issue_count,
    persistent,
    timer_seq,
    data_from_cache,
});

/// The TokenB coherence controller for one node: a policy shell over the
/// node's [`TokenSubstrate`], which holds every token and applies every
/// rule that moves one.
///
/// The controller plays three roles, because the target system integrates
/// them on one chip:
///
/// * the **cache controller** for the node's L1/L2 hierarchy, issuing
///   broadcast transient requests on misses, reissuing them on timeout, and
///   escalating to persistent requests when starving;
/// * the **home memory controller** for the slice of physical memory homed at
///   this node, holding memory's tokens and responding to requests; and
/// * the **persistent-request arbiter** for blocks homed at this node.
#[derive(Debug)]
pub struct TokenBController {
    substrate: TokenSubstrate,
    l2_latency: Cycle,
    controller_latency: Cycle,
    dram_latency: Cycle,
    latency: MissLatencyTracker,
    rng: DeterministicRng,
    stats: ControllerStats,
    reissues_before_persistent: u32,
    migratory_optimization: bool,
    store_counter: u64,
    timer_seq: u64,
}

impl TokenBController {
    /// Creates the TokenB controller for `node` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer tokens per block than nodes
    /// (call [`SystemConfig::validate`] first to get an error instead).
    pub fn new(node: NodeId, config: &SystemConfig) -> Self {
        let mut seed_rng = DeterministicRng::new(config.seed ^ 0x70_6b_65_6e);
        TokenBController {
            substrate: TokenSubstrate::new(node, config),
            l2_latency: config.l2.latency_ns,
            controller_latency: config.controller_latency_ns,
            dram_latency: config.dram_latency_ns,
            latency: MissLatencyTracker::new(config.token.reissue_latency_multiplier),
            rng: seed_rng.fork(node.index() as u64 + 17),
            stats: ControllerStats::new(),
            reissues_before_persistent: config.token.reissues_before_persistent,
            migratory_optimization: config.token.migratory_optimization,
            store_counter: 0,
            timer_seq: 0,
        }
    }

    /// The node's token substrate: its holders, misses and persistent
    /// requests (for tests and traces).
    pub fn substrate(&self) -> &TokenSubstrate {
        &self.substrate
    }

    fn send(&mut self, out: &mut Outbox, msg: Message) {
        self.stats.messages_sent += 1;
        out.send(msg);
    }

    /// The one place a token message is built: `transfer` leaves this node
    /// for `dest`, as `TokenData` when data travels and as a dataless
    /// `TokenOnly` (the bandwidth optimization) when it does not.
    fn send_tokens(
        &mut self,
        at: Cycle,
        dest: NodeId,
        addr: BlockAddr,
        transfer: TokenTransfer,
        vnet: Vnet,
        out: &mut Outbox,
    ) {
        debug_assert!(
            transfer.tokens > 0,
            "token messages carry at least one token"
        );
        debug_assert!(
            transfer.data || !transfer.owner,
            "invariant #4': the owner token always travels with data"
        );
        let kind = if transfer.data {
            MsgKind::TokenData {
                tokens: transfer.tokens,
                owner: transfer.owner,
                dirty: transfer.dirty,
                from_memory: transfer.from_memory,
                payload: DataPayload::new(transfer.version),
            }
        } else {
            MsgKind::TokenOnly {
                tokens: transfer.tokens,
            }
        };
        let msg = Message::new(self.node(), Destination::Node(dest), addr, kind, vnet, at);
        self.send(out, msg);
    }

    /// Puts `rule` to this node's holders of `addr`, the cache and (at the
    /// home) memory, and sends what each gives up to `dest` once it has
    /// been read: after the L2 and the DRAM latency.
    fn ask_holders(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        dest: NodeId,
        rule: impl Fn(Holding<'_>) -> Option<TokenTransfer> + Copy,
        out: &mut Outbox,
    ) {
        let at = now + self.controller_latency;
        if let Some(transfer) = self.substrate.ask_cache(addr, rule) {
            let at = at + self.l2_latency;
            self.send_tokens(at, dest, addr, transfer, Vnet::Response, out);
        }
        if self.substrate.is_home(addr) {
            if let Some(transfer) = self.substrate.ask_memory(addr, rule) {
                let at = at + self.dram_latency;
                self.send_tokens(at, dest, addr, transfer, Vnet::Response, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Transient request issue / reissue.
    // ------------------------------------------------------------------

    fn issue_transient(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        write: bool,
        reissue: bool,
        out: &mut Outbox,
    ) {
        let (node, at) = (self.substrate.node, now + self.controller_latency);
        let kind = if write { MsgKind::GetM } else { MsgKind::GetS };
        let all = Destination::AllBut(node);
        let msg = Message::new(node, all, addr, kind, Vnet::Request, at);
        self.send(out, if reissue { msg.as_reissue() } else { msg });
        // The broadcast does not loop back to this node, so if we are the
        // block's home we consult our own memory after the DRAM latency.
        if self.substrate.is_home(addr) {
            self.arm(at + self.dram_latency, addr, TimerKind::MemoryAccess, out);
        }
        self.arm_reissue_timer(now, addr, out);
    }

    /// Arms a `kind` timer for `addr` at `at`; returns its id.
    fn arm(&mut self, at: Cycle, addr: BlockAddr, kind: TimerKind, out: &mut Outbox) -> u64 {
        self.timer_seq += 1;
        let id = self.timer_seq;
        out.arm_timer(at, Timer { id, addr, kind });
        id
    }

    fn arm_reissue_timer(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.substrate.mshrs.get(addr) else {
            return;
        };
        let timeout = self
            .latency
            .reissue_timeout(mshr.issue_count, &mut self.rng);
        let id = self.arm(now + timeout, addr, TimerKind::Reissue, out);
        if let Some(mshr) = self.substrate.mshrs.get_mut(addr) {
            mshr.timer_seq = id;
        }
    }

    fn escalate_to_persistent(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.substrate.mshrs.get_mut(addr) else {
            return;
        };
        if mshr.persistent {
            return;
        }
        mshr.persistent = true;
        let kind = MsgKind::PersistentRequest { write: mshr.write };
        self.stats.persistent_requests_initiated += 1;
        self.tell_arbiter(now, addr, kind, out);
    }

    /// Sends `kind` to the arbiter at `addr`'s home, after the controller
    /// latency.
    fn tell_arbiter(&mut self, now: Cycle, addr: BlockAddr, kind: MsgKind, out: &mut Outbox) {
        let at = now + self.controller_latency;
        let home = Destination::Node(self.substrate.home_map.home_of(addr));
        let msg = Message::new(self.node(), home, addr, kind, Vnet::Persistent, at);
        self.send(out, msg);
    }

    // ------------------------------------------------------------------
    // Responding to transient requests (the TokenB response policy).
    // ------------------------------------------------------------------

    fn respond_to_request(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        // Active persistent requests override the performance protocol: while
        // one is active for this block, transient requests are ignored and
        // tokens flow only to the persistent requester.
        if self.substrate.persistent_table.active(addr).is_some() {
            return;
        }

        // The substrate's rule for this request; TokenB only decides which
        // holders it is put to, and when the answer leaves.
        let (total, migratory) = (self.substrate.total_tokens, self.migratory_optimization);
        let rule = move |holder: Holding<'_>| {
            if write {
                holder.take_all()
            } else {
                holder.take_for_read(total, migratory)
            }
        };
        self.ask_holders(now, addr, requester, rule, out);
    }

    // ------------------------------------------------------------------
    // Receiving tokens.
    // ------------------------------------------------------------------

    fn receive_tokens(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        transfer: TokenTransfer,
        vnet: Vnet,
        out: &mut Outbox,
    ) {
        let (at, writeback) = (now + self.controller_latency, vnet == Vnet::Writeback);
        match self.substrate.arrive(addr, transfer, writeback) {
            Arrival::Forward(starver, passed_on) => {
                self.send_tokens(at, starver, addr, passed_on, Vnet::Response, out);
            }
            Arrival::Cached(victim) => {
                // A victim's tokens go home as a writeback, unless another
                // node's persistent request claims them.
                if let Some((victim, dest, evicted)) = victim {
                    self.stats.misses.writebacks += 1;
                    let vnet = if dest == self.substrate.home_map.home_of(victim) {
                        Vnet::Writeback
                    } else {
                        Vnet::Response
                    };
                    self.send_tokens(at, dest, victim, evicted, vnet, out);
                }
                if transfer.data {
                    if let Some(mshr) = self.substrate.mshrs.get_mut(addr) {
                        mshr.data_from_cache |= !transfer.from_memory;
                    }
                }
                self.try_complete(now, addr, out);
            }
            Arrival::Settled => {}
        }
    }

    /// Completes the outstanding miss for `addr` if the substrate now permits
    /// the pending operations.
    fn try_complete(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let (total, node_bits) = (self.substrate.total_tokens, version_node_bits(self.node()));
        let Some((mut mshr, line, pending_ops)) = self.substrate.completing(addr) else {
            return;
        };
        let kind = match (mshr.write, mshr.upgrade) {
            (false, _) => MissKind::Read,
            (true, false) => MissKind::Write,
            (true, true) => MissKind::Upgrade,
        };
        let cache_to_cache = mshr.data_from_cache;
        // Perform the pending operations in order against the cache line,
        // completing each directly into the outbox (the MSHR is owned here,
        // so no borrow forces an intermediate collection), with one L2
        // lookup for the whole batch.
        for op in pending_ops.iter(&mshr.pending) {
            let store = || {
                self.store_counter += 1;
                node_bits | self.store_counter
            };
            let version = line.perform(total, op.write, store);
            out.complete(MissCompletion {
                req_id: op.req_id,
                addr,
                kind,
                issued_at: mshr.issued_at,
                completed_at: now,
                data_version: version.expect("the line permits every pending op"),
                cache_to_cache,
            });
        }
        pending_ops.clear(&mut mshr.pending);

        // Statistics: miss class, latency, reissue histogram (Table 2).
        let miss_latency = now.saturating_sub(mshr.issued_at);
        self.latency.record(miss_latency);
        // A miss that collected only dataless tokens (an upgrade) counts as
        // served by memory, like one whose data memory supplied.
        self.stats
            .misses
            .record_completed(kind, miss_latency, cache_to_cache);
        if mshr.persistent {
            self.stats.reissue.persistent += 1;
        } else {
            match mshr.issue_count {
                1 => self.stats.reissue.not_reissued += 1,
                2 => self.stats.reissue.reissued_once += 1,
                _ => self.stats.reissue.reissued_more += 1,
            }
        }

        // If this miss had escalated, tell the arbiter we are satisfied so it
        // can deactivate the persistent request.
        if mshr.persistent {
            self.tell_arbiter(now, addr, MsgKind::PersistentComplete, out);
        }
    }

    // ------------------------------------------------------------------
    // Persistent requests: table maintenance and arbiter plumbing.
    // ------------------------------------------------------------------

    fn apply_arbiter_actions(&mut self, now: Cycle, actions: Vec<ArbiterAction>, out: &mut Outbox) {
        let at = now + self.controller_latency;
        let all = Destination::AllBut(self.node());
        for action in actions {
            match action {
                ArbiterAction::BroadcastActivate {
                    addr,
                    requester,
                    write,
                } => {
                    let kind = MsgKind::PersistentActivate { requester, write };
                    let msg = Message::new(self.node(), all, addr, kind, Vnet::Persistent, at);
                    self.send(out, msg);
                    // Apply locally (the arbiter's own node does not message
                    // itself and does not ack).
                    self.activate_locally(now, addr, requester, write, out);
                }
                ArbiterAction::BroadcastDeactivate { addr } => {
                    let kind = MsgKind::PersistentDeactivate;
                    let msg = Message::new(self.node(), all, addr, kind, Vnet::Persistent, at);
                    self.send(out, msg);
                    self.substrate.persistent_table.deactivate(addr);
                }
            }
        }
    }

    /// Records an activation in the local table and forwards any tokens this
    /// node currently holds (cache and, if home, memory) to the requester.
    fn activate_locally(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        requester: NodeId,
        write: bool,
        out: &mut Outbox,
    ) {
        self.substrate
            .persistent_table
            .activate(addr, requester, write);
        if let Some(starver) = self.substrate.starver(addr) {
            self.ask_holders(now, addr, starver, |holder| holder.take_all(), out);
        }
    }

    /// Supplies tokens from this node's own memory to its own miss (used
    /// when the requester is also the home: the broadcast does not loop back,
    /// so the local memory is consulted directly after the DRAM latency).
    /// They arrive like any others, so while another node's persistent
    /// request is active they go to that starver instead, miss or no miss.
    fn supply_from_local_memory(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let wanted = self.substrate.mshrs.contains(addr) || self.substrate.starver(addr).is_some();
        if !self.substrate.is_home(addr) || !wanted {
            return;
        }
        if let Some(transfer) = self.substrate.ask_memory(addr, |holder| holder.take_all()) {
            self.receive_tokens(now, addr, transfer, Vnet::Response, out);
        }
    }
}

impl CoherenceController for TokenBController {
    fn node(&self) -> NodeId {
        self.substrate.node
    }

    fn protocol_name(&self) -> &'static str {
        "TokenB"
    }

    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        let addr = op.addr.block(self.substrate.home_map.block_bytes());
        let write = op.kind.is_write();
        let (total, node) = (self.substrate.total_tokens, self.substrate.node);
        // One L1-hinted L2 access serves the whole hit path: the hint skips
        // the L2 tag probe on hits, and the version bump for a write hit
        // touches `store_counter` and `stats` directly (disjoint fields), so
        // the mutable line borrow never needs re-establishing.
        let mut had_readable_copy = false;
        let (l1_hit, l1_latency, line) = self.substrate.lookup(addr);
        let hit_latency = if l1_hit {
            l1_latency
        } else {
            l1_latency + self.l2_latency
        };
        if let Some(line) = line {
            let store = || {
                self.store_counter += 1;
                version_node_bits(node) | self.store_counter
            };
            if let Some(version) = line.perform(total, write, store) {
                if l1_hit {
                    self.stats.misses.l1_hits += 1;
                } else {
                    self.stats.misses.l2_hits += 1;
                }
                return AccessOutcome::Hit {
                    latency: hit_latency,
                    version,
                    valid_since: now,
                };
            }
            had_readable_copy = line.readable();
        }

        // Miss: merge into an existing MSHR or allocate a new one.
        let pending_op = PendingOp {
            req_id: op.id,
            write,
        };
        if let Some(mshr) = self.substrate.mshrs.get_mut(addr) {
            self.substrate
                .pending_ops
                .push(&mut mshr.pending, pending_op);
            if write && !mshr.write {
                // A read miss gains a write requirement: issue a GetM now.
                mshr.write = true;
                mshr.upgrade |= had_readable_copy;
                self.issue_transient(now, addr, true, false, out);
            }
            return AccessOutcome::Miss;
        }

        let mshr = TokenMshr {
            pending: self.substrate.pending_ops.singleton(pending_op),
            write,
            upgrade: write && had_readable_copy,
            issued_at: now,
            issue_count: 1,
            persistent: false,
            timer_seq: 0,
            data_from_cache: false,
        };
        self.substrate
            .mshrs
            .allocate(addr, mshr)
            .unwrap_or_else(|_| panic!("MSHR overflow at {node}"));
        self.issue_transient(now, addr, write, false, out);
        AccessOutcome::Miss
    }

    fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
        self.stats.messages_received += 1;
        let addr = msg.addr;
        match &msg.kind {
            MsgKind::GetS => self.respond_to_request(now, msg.src, addr, false, out),
            MsgKind::GetM => self.respond_to_request(now, msg.src, addr, true, out),
            MsgKind::TokenData {
                tokens,
                owner,
                dirty,
                from_memory,
                payload,
            } => {
                let transfer = TokenTransfer {
                    tokens: *tokens,
                    owner: *owner,
                    data: true,
                    dirty: *dirty,
                    version: payload.version,
                    from_memory: *from_memory,
                };
                self.receive_tokens(now, addr, transfer, msg.vnet, out)
            }
            MsgKind::TokenOnly { tokens } => {
                let transfer = TokenTransfer {
                    tokens: *tokens,
                    owner: false,
                    data: false,
                    dirty: false,
                    version: 0,
                    from_memory: false,
                };
                self.receive_tokens(now, addr, transfer, msg.vnet, out)
            }
            MsgKind::PersistentRequest { write } => {
                let home = self.substrate.is_home(addr);
                debug_assert!(home, "persistent request at non-home node");
                let actions = self.substrate.arbiter.request(addr, msg.src, *write);
                self.apply_arbiter_actions(now, actions, out);
            }
            MsgKind::PersistentActivate { requester, write } => {
                self.activate_locally(now, addr, *requester, *write, out);
                self.tell_arbiter(now, addr, MsgKind::PersistentAck, out);
            }
            MsgKind::PersistentDeactivate => {
                self.substrate.persistent_table.deactivate(addr);
                self.tell_arbiter(now, addr, MsgKind::PersistentAck, out);
            }
            MsgKind::PersistentAck => {
                let actions = self.substrate.arbiter.ack(msg.src);
                self.apply_arbiter_actions(now, actions, out);
            }
            MsgKind::PersistentComplete => {
                let actions = self.substrate.arbiter.complete(addr, msg.src);
                self.apply_arbiter_actions(now, actions, out);
            }
            other => {
                debug_assert!(
                    false,
                    "TokenB received a message it does not understand: {other:?}"
                );
            }
        }
    }

    fn handle_timer(&mut self, now: Cycle, timer: Timer, out: &mut Outbox) {
        match timer.kind {
            TimerKind::Reissue => {
                let Some(mshr) = self.substrate.mshrs.get_mut(timer.addr) else {
                    return;
                };
                if mshr.timer_seq != timer.id || mshr.persistent {
                    return;
                }
                if mshr.issue_count > self.reissues_before_persistent {
                    self.escalate_to_persistent(now, timer.addr, out);
                    return;
                }
                mshr.issue_count += 1;
                let write = mshr.write;
                self.issue_transient(now, timer.addr, write, true, out);
            }
            TimerKind::MemoryAccess => {
                self.supply_from_local_memory(now, timer.addr, out);
            }
        }
    }

    fn stats(&self) -> ControllerStats {
        let mut stats = self.stats.clone();
        let substrate = &self.substrate;
        let seen = substrate.persistent_table.activations_seen();
        stats.bump(Counter::PersistentActivationsObserved, seen);
        stats.bump(Counter::ArbiterActivations, substrate.arbiter.activations());
        stats
    }

    fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit> {
        self.substrate.audit_block(addr)
    }

    fn audited_blocks(&self) -> Vec<BlockAddr> {
        self.substrate.audited_blocks()
    }

    fn outstanding_misses(&self) -> usize {
        self.substrate.mshrs.len()
    }

    fn outstanding_blocks(&self) -> Vec<BlockAddr> {
        self.substrate.mshrs.blocks_sorted()
    }

    fn set_arbiter_sabotage(&mut self, on: bool) {
        self.substrate.arbiter.set_sabotage(on);
    }

    fn line_state_stats(&self) -> LineStateStats {
        self.substrate.line_state_stats()
    }

    snap_state!(fn {
        rng,
        store_counter,
        timer_seq,
        stats,
        latency,
        substrate,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_sim::{SnapReader, SnapWriter};
    use tc_testkit::deliver;
    use tc_types::{Address, MemOpKind, ReqId};

    const BLOCK: u64 = 64;

    /// One non-owner token with clean data from memory; tests that hand a
    /// controller tokens directly spell out what differs.
    const SHARED_FROM_MEMORY: TokenTransfer = TokenTransfer {
        tokens: 1,
        owner: false,
        data: true,
        dirty: false,
        version: 0,
        from_memory: true,
    };

    fn config(nodes: usize) -> SystemConfig {
        SystemConfig::isca03_default().with_nodes(nodes)
    }

    fn controller(node: usize, nodes: usize) -> TokenBController {
        TokenBController::new(NodeId::new(node), &config(nodes))
    }

    /// Hands `c` tokens directly, through its substrate's arrival rule.
    fn seed(c: &mut TokenBController, addr: BlockAddr, t: TokenTransfer) {
        let arrival = c.substrate.arrive(addr, t, false);
        assert!(matches!(arrival, Arrival::Cached(None)), "{arrival:?}");
    }

    /// `t` arriving at `c` at `at` as the `TokenData` message carrying it.
    fn token_data(
        c: &mut TokenBController,
        at: Cycle,
        addr: BlockAddr,
        t: TokenTransfer,
        out: &mut Outbox,
    ) {
        let kind = MsgKind::TokenData {
            tokens: t.tokens,
            owner: t.owner,
            dirty: t.dirty,
            from_memory: t.from_memory,
            payload: DataPayload::new(t.version),
        };
        let dest = Destination::Node(c.node());
        c.handle_message(
            at,
            &Message::new(NodeId::new(0), dest, addr, kind, Vnet::Response, at),
            out,
        );
    }

    fn load(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Load)
    }

    fn store(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Store)
    }

    #[test]
    fn steady_state_miss_traffic_recycles_pending_op_storage() {
        let mut home = controller(0, 4);
        let mut requester = controller(1, 4);

        // Warm-up: one full read-miss round trip establishes the pool.
        let mut out = Outbox::new();
        requester.access(0, &load(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 20);
        deliver(&home_out.messages, [&mut requester], 120);
        assert_eq!(requester.outstanding_misses(), 0);
        let nodes_after_warmup = requester.substrate.pending_ops.nodes();
        assert_eq!(nodes_after_warmup, 1);

        // Steady state: churn many more misses (distinct home-0 blocks so
        // each access is a genuine miss) than the warm-up population.
        for round in 1..200u64 {
            let addr = round * 4 * BLOCK;
            let at = 1_000 * round;
            let mut out = Outbox::new();
            requester.access(at, &load(addr, round + 1), &mut out);
            let home_out = deliver(&out.messages, [&mut home], at + 20);
            deliver(&home_out.messages, [&mut requester], at + 120);
            assert_eq!(requester.outstanding_misses(), 0);
        }

        assert_eq!(
            requester.substrate.pending_ops.nodes(),
            nodes_after_warmup,
            "steady-state misses must recycle pending-op storage, not grow it"
        );
        assert_eq!(requester.substrate.pending_ops.values().count(), 0);
    }

    #[test]
    fn cold_load_miss_issues_a_broadcast_gets() {
        let mut c = controller(1, 4);
        let mut out = Outbox::new();
        let outcome = c.access(0, &load(0x1000, 1), &mut out);
        assert_eq!(outcome, AccessOutcome::Miss);
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].kind, MsgKind::GetS);
        assert_eq!(out.messages[0].dest, Destination::AllBut(NodeId::new(1)));
        assert_eq!(c.outstanding_misses(), 1);
        // A reissue timer was armed.
        assert!(out.timers.iter().any(|(_, t)| t.kind == TimerKind::Reissue));
    }

    #[test]
    fn home_memory_responds_to_gets_with_data_and_one_token() {
        // Node 0 is the home of block 0 (block number 0 % 4 == 0).
        let mut home = controller(0, 4);
        let mut requester = controller(1, 4);
        let mut req_out = Outbox::new();
        requester.access(0, &load(0, 1), &mut req_out);

        // Deliver the GetS to the home node.
        let home_out = deliver(&req_out.messages, [&mut home], 20);
        assert_eq!(home_out.messages.len(), 1);
        let response = &home_out.messages[0];
        match &response.kind {
            MsgKind::TokenData {
                tokens,
                owner,
                from_memory,
                ..
            } => {
                assert_eq!(*tokens, 1);
                assert!(!owner, "memory keeps the owner token when it can");
                assert!(from_memory);
            }
            other => panic!("expected TokenData, got {other:?}"),
        }
        // Memory kept T-1 tokens.
        assert_eq!(home.substrate.tokens_held(BlockAddr::new(0)), 15);

        // Deliver the response back: the requester's miss completes.
        let final_out = deliver(&home_out.messages, [&mut requester], 120);
        assert_eq!(final_out.completions.len(), 1);
        assert_eq!(final_out.completions[0].kind, MissKind::Read);
        assert!(!final_out.completions[0].cache_to_cache);
        assert_eq!(requester.substrate.cache_state_name(BlockAddr::new(0)), "S");
        assert_eq!(requester.outstanding_misses(), 0);
    }

    #[test]
    fn store_miss_collects_all_tokens_and_becomes_modified() {
        let mut home = controller(0, 4);
        let mut writer = controller(1, 4);
        let mut out = Outbox::new();
        writer.access(0, &store(0, 1), &mut out);
        assert_eq!(out.messages[0].kind, MsgKind::GetM);

        let home_out = deliver(&out.messages, [&mut home], 30);
        // Memory hands over everything, including the owner token.
        let response = &home_out.messages[0];
        assert!(matches!(
            response.kind,
            MsgKind::TokenData {
                tokens: 16,
                owner: true,
                ..
            }
        ));
        assert_eq!(home.substrate.tokens_held(BlockAddr::new(0)), 0);

        let done = deliver(&home_out.messages, [&mut writer], 130);
        assert_eq!(done.completions.len(), 1);
        assert_eq!(done.completions[0].kind, MissKind::Write);
        assert_eq!(writer.substrate.cache_state_name(BlockAddr::new(0)), "M");
        assert!(done.completions[0].data_version > 0);
    }

    #[test]
    fn write_hit_in_modified_state_stays_local() {
        let mut home = controller(0, 4);
        let mut writer = controller(1, 4);
        let mut out = Outbox::new();
        writer.access(0, &store(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 30);
        deliver(&home_out.messages, [&mut writer], 130);

        // Second store to the same block: a pure cache hit, no messages.
        let mut out2 = Outbox::new();
        let outcome = writer.access(200, &store(0, 2), &mut out2);
        assert!(matches!(outcome, AccessOutcome::Hit { .. }));
        assert!(out2.messages.is_empty());
    }

    #[test]
    fn cache_owner_supplies_data_to_reader_and_keeps_owner_token() {
        let total_nodes = 4;
        let mut home = controller(0, total_nodes);
        let mut writer = controller(1, total_nodes);
        let mut reader = controller(2, total_nodes);

        // Writer obtains M for block 0 but does NOT dirty it via the
        // migratory path (we disable migratory behaviour by making the block
        // clean: obtain M, never write again). First get all tokens.
        let mut out = Outbox::new();
        writer.access(0, &store(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 30);
        deliver(&home_out.messages, [&mut writer], 130);

        // Reader issues a load; writer is dirty M, so with the migratory
        // optimization it hands over everything.
        let mut rout = Outbox::new();
        reader.access(300, &load(0, 2), &mut rout);
        let writer_out = deliver(&rout.messages, [&mut writer], 320);
        assert!(matches!(
            writer_out.messages[0].kind,
            MsgKind::TokenData {
                tokens: 16,
                owner: true,
                ..
            }
        ));
        let reader_done = deliver(&writer_out.messages, [&mut reader], 420);
        assert_eq!(reader_done.completions.len(), 1);
        assert!(reader_done.completions[0].cache_to_cache);
        assert_eq!(reader.substrate.cache_state_name(BlockAddr::new(0)), "M");
        assert_eq!(writer.substrate.cache_state_name(BlockAddr::new(0)), "I");
    }

    #[test]
    fn non_migratory_owner_shares_a_single_token() {
        let mut c = controller(1, 4);
        // Construct an owned-but-clean line directly: 16 tokens, not dirty.
        seed(
            &mut c,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 16,
                owner: true,
                version: 7,
                ..SHARED_FROM_MEMORY
            },
        );
        assert_eq!(c.substrate.cache_state_name(BlockAddr::new(0)), "E");

        // A GetS arrives: the clean owner shares one token + data and keeps
        // the rest (no migratory hand-off because the block is clean).
        let gets = Message::new(
            NodeId::new(2),
            Destination::AllBut(NodeId::new(2)),
            BlockAddr::new(0),
            MsgKind::GetS,
            Vnet::Request,
            100,
        );
        let mut out = Outbox::new();
        c.handle_message(100, &gets, &mut out);
        assert_eq!(out.messages.len(), 1);
        match &out.messages[0].kind {
            MsgKind::TokenData { tokens, owner, .. } => {
                assert_eq!(*tokens, 1);
                assert!(!owner);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.substrate.tokens_held(BlockAddr::new(0)), 15);
        assert_eq!(c.substrate.cache_state_name(BlockAddr::new(0)), "O");
    }

    #[test]
    fn shared_copies_send_dataless_acks_on_getm() {
        let mut c = controller(1, 4);
        // Hold two non-owner tokens with data (state S).
        seed(
            &mut c,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 2,
                version: 3,
                ..SHARED_FROM_MEMORY
            },
        );
        assert_eq!(c.substrate.cache_state_name(BlockAddr::new(0)), "S");

        let getm = Message::new(
            NodeId::new(3),
            Destination::AllBut(NodeId::new(3)),
            BlockAddr::new(0),
            MsgKind::GetM,
            Vnet::Request,
            50,
        );
        let mut out = Outbox::new();
        c.handle_message(50, &getm, &mut out);
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].kind, MsgKind::TokenOnly { tokens: 2 });
        assert_eq!(c.substrate.cache_state_name(BlockAddr::new(0)), "I");
    }

    #[test]
    fn sharers_ignore_gets_requests() {
        let mut c = controller(1, 4);
        seed(
            &mut c,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 2,
                version: 3,
                ..SHARED_FROM_MEMORY
            },
        );
        let gets = Message::new(
            NodeId::new(3),
            Destination::AllBut(NodeId::new(3)),
            BlockAddr::new(0),
            MsgKind::GetS,
            Vnet::Request,
            50,
        );
        let mut out = Outbox::new();
        c.handle_message(50, &gets, &mut out);
        assert!(out.messages.is_empty(), "a non-owner sharer stays silent");
    }

    #[test]
    fn reissue_timer_rebroadcasts_the_request() {
        let mut c = controller(1, 4);
        let mut out = Outbox::new();
        c.access(0, &store(0x40, 1), &mut out);
        let (fire_at, timer) = out
            .timers
            .iter()
            .find(|(_, t)| t.kind == TimerKind::Reissue)
            .copied()
            .expect("reissue timer armed");

        let mut out2 = Outbox::new();
        c.handle_timer(fire_at, timer, &mut out2);
        let reissued: Vec<_> = out2
            .messages
            .iter()
            .filter(|m| m.kind == MsgKind::GetM)
            .collect();
        assert_eq!(reissued.len(), 1);
        assert!(
            reissued[0].reissue,
            "the rebroadcast is marked as a reissue"
        );
    }

    #[test]
    fn repeated_timeouts_escalate_to_a_persistent_request() {
        let mut c = controller(1, 4);
        let mut out = Outbox::new();
        c.access(0, &store(0x40, 1), &mut out);
        let mut timers: Vec<(Cycle, Timer)> = out
            .timers
            .iter()
            .filter(|(_, t)| t.kind == TimerKind::Reissue)
            .copied()
            .collect();
        let mut persistent_sent = false;
        for _ in 0..10 {
            let Some((at, timer)) = timers.pop() else {
                break;
            };
            let mut step = Outbox::new();
            c.handle_timer(at, timer, &mut step);
            if step
                .messages
                .iter()
                .any(|m| matches!(m.kind, MsgKind::PersistentRequest { .. }))
            {
                persistent_sent = true;
                break;
            }
            timers = step
                .timers
                .iter()
                .filter(|(_, t)| t.kind == TimerKind::Reissue)
                .copied()
                .collect();
        }
        assert!(persistent_sent, "starving miss must escalate");
        assert_eq!(c.stats().persistent_requests_initiated, 1);
    }

    #[test]
    fn persistent_activation_forwards_tokens_from_every_holder() {
        let mut holder = controller(2, 4);
        // The holder has all 16 tokens.
        seed(
            &mut holder,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 16,
                owner: true,
                dirty: true,
                from_memory: false,
                version: 9,
                ..SHARED_FROM_MEMORY
            },
        );
        // An activation for requester node 3 arrives.
        let activate = Message::new(
            NodeId::new(0),
            Destination::AllBut(NodeId::new(0)),
            BlockAddr::new(0),
            MsgKind::PersistentActivate {
                requester: NodeId::new(3),
                write: true,
            },
            Vnet::Persistent,
            100,
        );
        let mut out = Outbox::new();
        holder.handle_message(100, &activate, &mut out);
        // The holder forwards everything to node 3 and acks the arbiter.
        let forwarded = out
            .messages
            .iter()
            .find(|m| matches!(m.kind, MsgKind::TokenData { tokens: 16, .. }))
            .expect("tokens forwarded");
        assert_eq!(forwarded.dest, Destination::Node(NodeId::new(3)));
        assert!(out
            .messages
            .iter()
            .any(|m| m.kind == MsgKind::PersistentAck));
        assert_eq!(holder.substrate.cache_state_name(BlockAddr::new(0)), "I");

        // Tokens that arrive later are forwarded as well, because the table
        // entry persists until deactivation.
        let late = Message::new(
            NodeId::new(1),
            Destination::Node(NodeId::new(2)),
            BlockAddr::new(0),
            MsgKind::TokenOnly { tokens: 1 },
            Vnet::Response,
            200,
        );
        let mut out = Outbox::new();
        holder.handle_message(200, &late, &mut out);
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].dest, Destination::Node(NodeId::new(3)));

        // After deactivation the holder keeps tokens again.
        let deactivate = Message::new(
            NodeId::new(0),
            Destination::AllBut(NodeId::new(0)),
            BlockAddr::new(0),
            MsgKind::PersistentDeactivate,
            Vnet::Persistent,
            300,
        );
        let mut out = Outbox::new();
        holder.handle_message(300, &deactivate, &mut out);
        let late2 = Message::new(
            NodeId::new(1),
            Destination::Node(NodeId::new(2)),
            BlockAddr::new(0),
            MsgKind::TokenOnly { tokens: 1 },
            Vnet::Response,
            400,
        );
        let mut out = Outbox::new();
        holder.handle_message(400, &late2, &mut out);
        assert!(out.messages.is_empty());
        assert_eq!(holder.substrate.tokens_held(BlockAddr::new(0)), 1);
    }

    #[test]
    fn transient_requests_are_ignored_while_a_persistent_request_is_active() {
        let mut holder = controller(2, 4);
        seed(
            &mut holder,
            BlockAddr::new(4),
            TokenTransfer {
                tokens: 4,
                version: 1,
                ..SHARED_FROM_MEMORY
            },
        );
        let activate = Message::new(
            NodeId::new(0),
            Destination::AllBut(NodeId::new(0)),
            BlockAddr::new(4),
            MsgKind::PersistentActivate {
                requester: NodeId::new(3),
                write: true,
            },
            Vnet::Persistent,
            10,
        );
        let mut out = Outbox::new();
        holder.handle_message(10, &activate, &mut out);

        // A racing transient GetM from node 1 is ignored: node 3's persistent
        // request owns every token for this block until deactivation.
        let getm = Message::new(
            NodeId::new(1),
            Destination::AllBut(NodeId::new(1)),
            BlockAddr::new(4),
            MsgKind::GetM,
            Vnet::Request,
            20,
        );
        let mut out = Outbox::new();
        holder.handle_message(20, &getm, &mut out);
        assert!(out.messages.is_empty());
    }

    #[test]
    fn eviction_sends_tokens_home_as_a_writeback() {
        let mut small_config = config(4);
        // Shrink the L2 to two sets x 4 ways so evictions are easy to force.
        small_config.l2.size_bytes = 8 * 64;
        small_config.l2.associativity = 4;
        let mut c = TokenBController::new(NodeId::new(1), &small_config);
        let owned = |i: u64| TokenTransfer {
            tokens: 16,
            owner: true,
            dirty: true,
            from_memory: false,
            version: i + 1,
            ..SHARED_FROM_MEMORY
        };
        // Fill one set (blocks congruent mod 2) with owned lines, then
        // deliver a fifth.
        for i in 0..4u64 {
            seed(&mut c, BlockAddr::new(i * 2), owned(i));
        }
        let mut out = Outbox::new();
        token_data(&mut c, 0, BlockAddr::new(8), owned(4), &mut out);
        let writebacks: Vec<_> = out
            .messages
            .iter()
            .filter(|m| m.vnet == Vnet::Writeback)
            .collect();
        assert_eq!(writebacks.len(), 1, "one line must have been evicted");
        assert!(matches!(
            writebacks[0].kind,
            MsgKind::TokenData { owner: true, .. }
        ));
        assert_eq!(c.stats().misses.writebacks, 1);
    }

    #[test]
    fn eviction_under_a_persistent_request_goes_to_the_starver() {
        let mut small_config = config(4);
        small_config.l2.size_bytes = 8 * 64;
        small_config.l2.associativity = 4;
        let mut c = TokenBController::new(NodeId::new(1), &small_config);
        let owned = |i: u64| TokenTransfer {
            tokens: 16,
            owner: true,
            dirty: true,
            from_memory: false,
            version: i + 1,
            ..SHARED_FROM_MEMORY
        };
        for i in 0..4u64 {
            seed(&mut c, BlockAddr::new(i * 2), owned(i));
        }
        assert_eq!(
            c.substrate.tokens_held(BlockAddr::new(6)),
            16,
            "the set holds four lines"
        );
        // An activation flushes the block's line, so no message sequence
        // leaves a cached line under another node's table entry; enter one
        // by hand to show the eviction rule is safe even then.
        let starver = NodeId::new(3);
        c.substrate
            .persistent_table
            .activate(BlockAddr::new(0), starver, true);
        let mut out = Outbox::new();
        token_data(&mut c, 0, BlockAddr::new(8), owned(4), &mut out);

        assert_eq!(out.messages.len(), 1, "block 0, the LRU line, is evicted");
        let evicted = &out.messages[0];
        assert_eq!(evicted.addr, BlockAddr::new(0));
        assert_eq!(evicted.dest, Destination::Node(starver));
        assert_eq!(evicted.vnet, Vnet::Response, "not a writeback to the home");
        assert_eq!(evicted.sent_at, c.controller_latency);
        assert!(matches!(
            evicted.kind,
            MsgKind::TokenData {
                tokens: 16,
                owner: true,
                dirty: true,
                from_memory: false,
                ..
            }
        ));
        assert_eq!(c.substrate.tokens_held(BlockAddr::new(0)), 0);
    }

    #[test]
    fn home_absorbs_writebacks_into_memory() {
        let mut home = controller(0, 4);
        let wb = Message::new(
            NodeId::new(2),
            Destination::Node(NodeId::new(0)),
            BlockAddr::new(0),
            MsgKind::TokenData {
                tokens: 16,
                owner: true,
                dirty: true,
                from_memory: false,
                payload: DataPayload::new(77),
            },
            Vnet::Writeback,
            500,
        );
        let mut out = Outbox::new();
        // First the home must have handed its tokens out, otherwise the
        // writeback would double-count; simulate by draining memory first.
        let getm = Message::new(
            NodeId::new(2),
            Destination::AllBut(NodeId::new(2)),
            BlockAddr::new(0),
            MsgKind::GetM,
            Vnet::Request,
            10,
        );
        home.handle_message(10, &getm, &mut out);
        assert_eq!(home.substrate.tokens_held(BlockAddr::new(0)), 0);

        let mut out = Outbox::new();
        home.handle_message(500, &wb, &mut out);
        assert!(out.messages.is_empty());
        assert_eq!(home.substrate.tokens_held(BlockAddr::new(0)), 16);
        let audit = home.audit_block(BlockAddr::new(0));
        let mem_audit = audit.iter().find(|a| a.in_memory).expect("memory audit");
        assert_eq!(mem_audit.data_version, 77);
    }

    #[test]
    fn upgrade_miss_is_reported_as_upgrade() {
        let mut c = controller(1, 4);
        // Hold a readable shared copy first.
        seed(
            &mut c,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 1,
                version: 5,
                ..SHARED_FROM_MEMORY
            },
        );
        assert_eq!(c.substrate.cache_state_name(BlockAddr::new(0)), "S");

        // A store to the same block misses (needs all tokens).
        let mut out = Outbox::new();
        let outcome = c.access(100, &store(0, 9), &mut out);
        assert_eq!(outcome, AccessOutcome::Miss);

        // The remaining 15 tokens arrive with the owner token.
        let mut out2 = Outbox::new();
        token_data(
            &mut c,
            200,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 15,
                owner: true,
                version: 5,
                ..SHARED_FROM_MEMORY
            },
            &mut out2,
        );
        assert_eq!(out2.completions.len(), 1);
        assert_eq!(out2.completions[0].kind, MissKind::Upgrade);
        assert_eq!(c.stats().misses.upgrade_misses, 1);
        assert_eq!(c.substrate.cache_state_name(BlockAddr::new(0)), "M");
    }

    #[test]
    fn audit_reports_tokens_across_cache_and_memory() {
        let mut home = controller(0, 4);
        let mut out = Outbox::new();
        // Home's own processor reads a block it homes: memory supplies the
        // tokens through the local-memory timer path.
        home.access(0, &load(0, 1), &mut out);
        let memory_timer = out
            .timers
            .iter()
            .find(|(_, t)| t.kind == TimerKind::MemoryAccess)
            .copied()
            .expect("local memory consultation armed");
        let mut out2 = Outbox::new();
        home.handle_timer(memory_timer.0, memory_timer.1, &mut out2);
        assert_eq!(out2.completions.len(), 1);
        // All 16 tokens still live at node 0, split between cache and memory
        // or entirely in the cache; the audit must account for every one.
        let total: u32 = home
            .audit_block(BlockAddr::new(0))
            .iter()
            .map(|a| a.tokens)
            .sum();
        assert_eq!(total, 16);
        assert!(home.audited_blocks().contains(&BlockAddr::new(0)));
    }

    #[test]
    fn local_memory_timer_under_a_persistent_request_forwards_to_the_starver() {
        let mut home = controller(0, 4);
        let mut out = Outbox::new();
        home.access(0, &load(0, 1), &mut out);
        let (fire_at, timer) = out
            .timers
            .iter()
            .find(|(_, t)| t.kind == TimerKind::MemoryAccess)
            .copied()
            .expect("local memory consultation armed");
        // As above: an activation drains the home's memory, so the table
        // entry is entered by hand with memory still holding all 16 tokens.
        let starver = NodeId::new(2);
        home.substrate
            .persistent_table
            .activate(BlockAddr::new(0), starver, false);

        let mut out = Outbox::new();
        home.handle_timer(fire_at, timer, &mut out);
        assert!(out.completions.is_empty(), "the home's own miss stays open");
        assert_eq!(home.outstanding_misses(), 1);
        assert_eq!(home.substrate.cache_state_name(BlockAddr::new(0)), "I");
        assert_eq!(home.substrate.tokens_held(BlockAddr::new(0)), 0);
        assert_eq!(out.messages.len(), 1);
        let forwarded = &out.messages[0];
        assert_eq!(forwarded.dest, Destination::Node(starver));
        assert_eq!(forwarded.vnet, Vnet::Response);
        assert_eq!(
            forwarded.sent_at,
            fire_at + home.controller_latency,
            "the DRAM access is already paid for by the timer"
        );
        assert!(matches!(
            forwarded.kind,
            MsgKind::TokenData {
                tokens: 16,
                owner: true,
                dirty: false,
                from_memory: true,
                ..
            }
        ));
    }

    #[test]
    fn stats_record_reissue_histogram_categories() {
        let mut home = controller(0, 4);
        let mut requester = controller(1, 4);
        let mut out = Outbox::new();
        requester.access(0, &load(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 30);
        deliver(&home_out.messages, [&mut requester], 130);
        let stats = requester.stats();
        assert_eq!(stats.reissue.not_reissued, 1);
        assert_eq!(stats.reissue.total(), 1);
        assert_eq!(stats.misses.read_misses, 1);
    }

    #[test]
    fn merged_accesses_complete_together() {
        let mut home = controller(0, 4);
        let mut c = controller(1, 4);
        let mut out = Outbox::new();
        c.access(0, &load(0, 1), &mut out);
        // A second load to the same block merges into the same MSHR.
        let outcome = c.access(5, &load(0, 2), &mut out);
        assert_eq!(outcome, AccessOutcome::Miss);
        assert_eq!(c.outstanding_misses(), 1);

        let home_out = deliver(&out.messages, [&mut home], 30);
        let done = deliver(&home_out.messages, [&mut c], 130);
        assert_eq!(done.completions.len(), 2);
    }

    #[test]
    fn write_versions_are_unique_and_increasing_per_node() {
        let mut home = controller(0, 4);
        let mut c = controller(1, 4);
        let mut versions = Vec::new();
        for (i, block) in [0u64, 4, 8].iter().enumerate() {
            let mut out = Outbox::new();
            c.access(i as Cycle * 1000, &store(block * BLOCK, i as u64), &mut out);
            let home_out = deliver(&out.messages, [&mut home], i as Cycle * 1000 + 30);
            let done = deliver(&home_out.messages, [&mut c], i as Cycle * 1000 + 130);
            versions.push(done.completions[0].data_version);
        }
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), versions.len());
    }

    #[test]
    fn snapshot_mid_miss_restores_identical_behavior() {
        let mut home = controller(0, 2);
        let mut c = controller(1, 2);
        // Warm up: one completed store so caches, stats, and the store
        // counter all carry non-trivial state into the snapshot.
        let mut out = Outbox::new();
        c.access(0, &store(0, 1), &mut out);
        let home_out = deliver(&out.messages, [&mut home], 30);
        deliver(&home_out.messages, [&mut c], 130);
        // Leave a miss outstanding (MSHR allocated, reissue timer armed).
        let mut out = Outbox::new();
        c.access(1000, &store(4 * BLOCK, 2), &mut out);
        assert_eq!(c.outstanding_misses(), 1);

        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = controller(1, 2);
        let mut r = SnapReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.outstanding_misses(), 1);
        assert_eq!(restored.outstanding_blocks(), c.outstanding_blocks());
        // Drive both copies through the identical completion and a follow-up
        // hit; every observable output must match.
        let home_out = deliver(&out.messages, [&mut home], 1030);
        let done_orig = deliver(&home_out.messages, [&mut c], 1130);
        let done_rest = deliver(&home_out.messages, [&mut restored], 1130);
        assert_eq!(format!("{done_orig:?}"), format!("{done_rest:?}"));
        let mut o1 = Outbox::new();
        let mut o2 = Outbox::new();
        let hit_orig = c.access(1200, &store(4 * BLOCK, 3), &mut o1);
        let hit_rest = restored.access(1200, &store(4 * BLOCK, 3), &mut o2);
        assert_eq!(hit_orig, hit_rest);
        assert_eq!(
            format!("{:?}", c.stats()),
            format!("{:?}", restored.stats())
        );
        assert_eq!(
            format!("{:?}", c.audit_block(BlockAddr::new(4))),
            format!("{:?}", restored.audit_block(BlockAddr::new(4)))
        );
        assert_eq!(c.line_state_stats(), restored.line_state_stats());
    }

    #[test]
    fn pending_op_round_trips() {
        tc_testkit::assert_snap_round_trip(&PendingOp {
            req_id: ReqId::new(7),
            write: true,
        });
    }

    #[test]
    fn snapshot_load_rejects_truncated_bytes() {
        let c = controller(0, 2);
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = controller(0, 2);
        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert!(fresh.load_state(&mut r).is_err());
    }
}
