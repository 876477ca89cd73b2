//! TokenB: the broadcast performance protocol on top of the token-counting
//! correctness substrate.

use tc_memsys::{
    hinted_get, version_node_bits, HomeMemory, L1Filter, MshrTable, PendingOp, SetAssocCache,
};
use tc_sim::{snap_state, snap_struct, DeterministicRng, Fifo, FifoPool};
use tc_types::{
    AccessOutcome, BlockAddr, BlockAudit, CoherenceController, ControllerStats, Counter, Cycle,
    DataPayload, Destination, HomeMap, LineStateStats, MemOp, Message, MissCompletion, MissKind,
    MsgKind, NodeId, Outbox, SystemConfig, Timer, TimerKind, Vnet,
};

use crate::arbiter::{ArbiterAction, PersistentArbiter};
use crate::persistent::PersistentTable;
use crate::state::{Holding, MemTokens, TokenLine, TokenTransfer};
use crate::timeout::MissLatencyTracker;

/// Bookkeeping for one outstanding TokenB miss. The pending-op list lives
/// in the controller's [`FifoPool`].
#[derive(Debug)]
struct TokenMshr {
    pending: Fifo,
    /// Whether the miss needs all tokens (any pending store).
    write: bool,
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

/// The TokenB coherence controller for one node.
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
    node: NodeId,
    home_map: HomeMap,
    total_tokens: u32,
    l1: L1Filter,
    l2: SetAssocCache<TokenLine>,
    l2_latency: Cycle,
    controller_latency: Cycle,
    dram_latency: Cycle,
    memory: HomeMemory<MemTokens>,
    mshrs: MshrTable<TokenMshr>,
    persistent_table: PersistentTable,
    arbiter: PersistentArbiter,
    latency: MissLatencyTracker,
    rng: DeterministicRng,
    stats: ControllerStats,
    reissues_before_persistent: u32,
    migratory_optimization: bool,
    store_counter: u64,
    timer_seq: u64,
    /// Pooled storage for every MSHR entry's pending-op list.
    pending_ops: FifoPool<PendingOp>,
}

impl TokenBController {
    /// Creates the TokenB controller for `node` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer tokens per block than nodes
    /// (call [`SystemConfig::validate`] first to get an error instead).
    pub fn new(node: NodeId, config: &SystemConfig) -> Self {
        assert!(
            config.token.tokens_per_block as usize >= config.num_nodes,
            "tokens per block must be at least the number of nodes"
        );
        let home_map = HomeMap::new(config.num_nodes, config.block_bytes);
        let mut seed_rng = DeterministicRng::new(config.seed ^ 0x70_6b_65_6e);
        TokenBController {
            node,
            home_map,
            total_tokens: config.token.tokens_per_block,
            l1: L1Filter::new(&config.l1, config.block_bytes),
            l2: SetAssocCache::new(&config.l2, config.block_bytes),
            l2_latency: config.l2.latency_ns,
            controller_latency: config.controller_latency_ns,
            dram_latency: config.dram_latency_ns,
            memory: HomeMemory::new(node, home_map, config.dram_latency_ns),
            mshrs: MshrTable::new(config.processor.max_outstanding_misses.max(1)),
            persistent_table: PersistentTable::new(),
            arbiter: PersistentArbiter::new(node, config.num_nodes),
            latency: MissLatencyTracker::new(config.token.reissue_latency_multiplier),
            rng: seed_rng.fork(node.index() as u64 + 17),
            stats: ControllerStats::new(),
            reissues_before_persistent: config.token.reissues_before_persistent,
            migratory_optimization: config.token.migratory_optimization,
            store_counter: 0,
            timer_seq: 0,
            pending_ops: FifoPool::new(),
        }
    }

    /// Total tokens per block, `T`.
    pub fn total_tokens(&self) -> u32 {
        self.total_tokens
    }

    /// The MOESI-equivalent state of a block in this node's cache (for tests
    /// and traces).
    pub fn cache_state_name(&self, addr: BlockAddr) -> &'static str {
        self.l2
            .peek(addr)
            .map(|l| l.moesi_name(self.total_tokens))
            .unwrap_or("I")
    }

    /// Tokens currently held for `addr` by this node (cache plus memory).
    pub fn tokens_held(&self, addr: BlockAddr) -> u32 {
        let cache = self.l2.peek(addr).map(|l| l.tokens).unwrap_or(0);
        let memory = self
            .memory
            .state(addr)
            .map(|m| if m.initialized { m.tokens } else { 0 })
            .unwrap_or(0);
        cache + memory
    }

    fn is_home(&self, addr: BlockAddr) -> bool {
        self.home_map.is_home(self.node, addr)
    }

    fn home_of(&self, addr: BlockAddr) -> NodeId {
        self.home_map.home_of(addr)
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
        let msg = Message::new(self.node, Destination::Node(dest), addr, kind, vnet, at);
        self.send(out, msg);
    }

    /// This node's memory as the token holder for `addr`, which it homes.
    fn memory_holding(&mut self, addr: BlockAddr) -> Holding<'_> {
        let version = self.memory.data_version(addr);
        self.memory
            .state_mut(addr)
            .holding(self.total_tokens, version)
    }

    // ------------------------------------------------------------------
    // Cache/eviction helpers.
    // ------------------------------------------------------------------

    /// Ensures a cache line exists for `addr`, evicting a victim if needed.
    /// Victim tokens (and data, with the owner token) are sent home.
    fn allocate_line(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        if self.l2.contains(addr) {
            return;
        }
        if let Some(victim) = self.l2.insert(addr, TokenLine::empty()) {
            self.evict_line(now, victim.addr, victim.state, out);
        }
    }

    fn evict_line(&mut self, now: Cycle, addr: BlockAddr, mut line: TokenLine, out: &mut Outbox) {
        self.l1.invalidate(addr);
        let Some(transfer) = line.holding().take_all() else {
            return;
        };
        self.stats.misses.writebacks += 1;
        let home = self.home_of(addr);
        let at = now + self.controller_latency;
        // If a persistent request is active for this block, the tokens go to
        // the starving requester instead of home.
        let dest = self
            .persistent_table
            .forward_target(addr, self.node)
            .unwrap_or(home);
        let vnet = if dest == home {
            Vnet::Writeback
        } else {
            Vnet::Response
        };
        self.send_tokens(at, dest, addr, transfer, vnet, out);
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
        let kind = if write { MsgKind::GetM } else { MsgKind::GetS };
        let mut msg = Message::new(
            self.node,
            Destination::AllBut(self.node),
            addr,
            kind,
            Vnet::Request,
            now + self.controller_latency,
        );
        if reissue {
            msg = msg.as_reissue();
        }
        self.send(out, msg);
        // The broadcast does not loop back to this node, so if we are the
        // block's home we consult our own memory after the DRAM latency.
        if self.is_home(addr) {
            self.timer_seq += 1;
            out.arm_timer(
                now + self.controller_latency + self.dram_latency,
                Timer {
                    id: self.timer_seq,
                    addr,
                    kind: TimerKind::MemoryAccess,
                },
            );
        }
        self.arm_reissue_timer(now, addr, out);
    }

    fn arm_reissue_timer(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.mshrs.get(addr) else {
            return;
        };
        let timeout = self
            .latency
            .reissue_timeout(mshr.issue_count, &mut self.rng);
        self.timer_seq += 1;
        let seq = self.timer_seq;
        if let Some(mshr) = self.mshrs.get_mut(addr) {
            mshr.timer_seq = seq;
        }
        out.arm_timer(
            now + timeout,
            Timer {
                id: seq,
                addr,
                kind: TimerKind::Reissue,
            },
        );
    }

    fn escalate_to_persistent(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.mshrs.get_mut(addr) else {
            return;
        };
        if mshr.persistent {
            return;
        }
        mshr.persistent = true;
        let write = mshr.write;
        self.stats.persistent_requests_initiated += 1;
        let home = self.home_of(addr);
        let msg = Message::new(
            self.node,
            Destination::Node(home),
            addr,
            MsgKind::PersistentRequest { write },
            Vnet::Persistent,
            now + self.controller_latency,
        );
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
        if self.persistent_table.active(addr).is_some() {
            return;
        }

        // The substrate's rule for this request; TokenB only decides which
        // holders it is put to, and when the answer leaves.
        let (total, migratory) = (self.total_tokens, self.migratory_optimization);
        let rule = move |holder: Holding<'_>| {
            if write {
                holder.take_all()
            } else {
                holder.take_for_read(total, migratory)
            }
        };

        // The cache answers from a copy of its line (the rule's verdict first,
        // then one L2 write: a removal, or the line with one token fewer).
        if let Some(mut line) = self.l2.get(addr).copied() {
            if let Some(transfer) = rule(line.holding()) {
                let at = now + self.controller_latency + self.l2_latency;
                self.send_tokens(at, requester, addr, transfer, Vnet::Response, out);
                if line.tokens == 0 {
                    self.l2.remove(addr);
                    self.l1.invalidate(addr);
                } else if let Some(l) = self.l2.get(addr) {
                    *l = line;
                }
            }
        }

        // The home memory answers too, after the DRAM latency.
        if self.is_home(addr) {
            if let Some(transfer) = rule(self.memory_holding(addr)) {
                let at = now + self.controller_latency + self.dram_latency;
                self.send_tokens(at, requester, addr, transfer, Vnet::Response, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Receiving tokens.
    // ------------------------------------------------------------------

    fn receive_tokens(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        mut transfer: TokenTransfer,
        vnet: Vnet,
        out: &mut Outbox,
    ) {
        // A persistent request by another node overrides everything: forward
        // the tokens straight to the starving requester.
        if let Some(target) = self.persistent_table.forward_target(addr, self.node) {
            if let Some(passed_on) = transfer.holding().take_all() {
                let at = now + self.controller_latency;
                self.send_tokens(at, target, addr, passed_on, Vnet::Response, out);
            }
            return;
        }

        // Writebacks addressed to the home are absorbed by memory.
        if vnet == Vnet::Writeback && self.is_home(addr) {
            let total = self.total_tokens;
            if transfer.owner {
                self.memory.write_data(addr, transfer.version);
            }
            let mem = self.memory.state_mut(addr);
            mem.ensure_initialized(total);
            mem.tokens += transfer.tokens;
            mem.owner |= transfer.owner;
            debug_assert!(mem.tokens <= total, "memory over-collected tokens");
            return;
        }

        // Otherwise the tokens join this node's cache.
        self.allocate_line(now, addr, out);
        let line = self.l2.get(addr).expect("line allocated immediately above");
        line.tokens += transfer.tokens;
        line.owner |= transfer.owner;
        if transfer.data {
            if !line.dirty || !line.valid_data {
                line.version = transfer.version;
            }
            line.valid_data = true;
            if let Some(mshr) = self.mshrs.get_mut(addr) {
                mshr.data_from_cache |= !transfer.from_memory;
            }
        }
        line.dirty |= transfer.dirty;
        self.try_complete(now, addr, out);
    }

    /// Completes the outstanding miss for `addr` if the substrate now permits
    /// the pending operations.
    fn try_complete(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let total = self.total_tokens;
        let Some(mshr) = self.mshrs.get(addr) else {
            return;
        };
        let Some(line) = self.l2.peek(addr) else {
            return;
        };
        let satisfied = if mshr.write {
            line.writable(total)
        } else {
            line.readable()
        };
        if !satisfied {
            return;
        }
        let mut mshr = self
            .mshrs
            .release(addr)
            .expect("checked present immediately above");

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
        let node_bits = version_node_bits(self.node);
        let line = self.l2.get(addr).expect("line present");
        for op in self.pending_ops.iter(&mshr.pending) {
            if op.write {
                self.store_counter += 1;
                line.version = node_bits | self.store_counter;
                line.dirty = true;
            }
            out.complete(MissCompletion {
                req_id: op.req_id,
                addr,
                kind,
                issued_at: mshr.issued_at,
                completed_at: now,
                data_version: line.version,
                cache_to_cache,
            });
        }
        self.pending_ops.clear(&mut mshr.pending);

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
            let home = self.home_of(addr);
            let msg = Message::new(
                self.node,
                Destination::Node(home),
                addr,
                MsgKind::PersistentComplete,
                Vnet::Persistent,
                now + self.controller_latency,
            );
            self.send(out, msg);
        }
    }

    // ------------------------------------------------------------------
    // Persistent requests: table maintenance and arbiter plumbing.
    // ------------------------------------------------------------------

    fn apply_arbiter_actions(&mut self, now: Cycle, actions: Vec<ArbiterAction>, out: &mut Outbox) {
        for action in actions {
            match action {
                ArbiterAction::BroadcastActivate {
                    addr,
                    requester,
                    write,
                } => {
                    let msg = Message::new(
                        self.node,
                        Destination::AllBut(self.node),
                        addr,
                        MsgKind::PersistentActivate { requester, write },
                        Vnet::Persistent,
                        now + self.controller_latency,
                    );
                    self.send(out, msg);
                    // Apply locally (the arbiter's own node does not message
                    // itself and does not ack).
                    self.activate_locally(now, addr, requester, write, out);
                }
                ArbiterAction::BroadcastDeactivate { addr } => {
                    let msg = Message::new(
                        self.node,
                        Destination::AllBut(self.node),
                        addr,
                        MsgKind::PersistentDeactivate,
                        Vnet::Persistent,
                        now + self.controller_latency,
                    );
                    self.send(out, msg);
                    self.persistent_table.deactivate(addr);
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
        self.persistent_table.activate(addr, requester, write);
        if requester == self.node {
            return;
        }
        // Forward cache tokens.
        if let Some(mut line) = self.l2.get(addr).copied() {
            if let Some(transfer) = line.holding().take_all() {
                let at = now + self.controller_latency + self.l2_latency;
                self.send_tokens(at, requester, addr, transfer, Vnet::Response, out);
            }
            self.l2.remove(addr);
            self.l1.invalidate(addr);
        }
        // Forward memory tokens if this node is the home.
        if self.is_home(addr) {
            if let Some(transfer) = self.memory_holding(addr).take_all() {
                let at = now + self.controller_latency + self.dram_latency;
                self.send_tokens(at, requester, addr, transfer, Vnet::Response, out);
            }
        }
    }

    fn ack_arbiter(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let arbiter_node = self.home_of(addr);
        let msg = Message::new(
            self.node,
            Destination::Node(arbiter_node),
            addr,
            MsgKind::PersistentAck,
            Vnet::Persistent,
            now + self.controller_latency,
        );
        self.send(out, msg);
    }

    /// Supplies tokens from this node's own memory to its own cache (used
    /// when the requester is also the home: the broadcast does not loop back,
    /// so the local memory is consulted directly after the DRAM latency).
    fn supply_from_local_memory(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        if !self.is_home(addr) {
            return;
        }
        // If someone else's persistent request is active, memory tokens go to
        // them, not to us.
        if let Some(target) = self.persistent_table.forward_target(addr, self.node) {
            if let Some(transfer) = self.memory_holding(addr).take_all() {
                let at = now + self.controller_latency;
                self.send_tokens(at, target, addr, transfer, Vnet::Response, out);
            }
            return;
        }
        if self.mshrs.get(addr).is_none() {
            return;
        }
        if let Some(transfer) = self.memory_holding(addr).take_all() {
            self.receive_tokens(now, addr, transfer, Vnet::Response, out);
        }
    }
}

impl CoherenceController for TokenBController {
    fn node(&self) -> NodeId {
        self.node
    }

    fn protocol_name(&self) -> &'static str {
        "TokenB"
    }

    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        let addr = op.addr.block(self.home_map.block_bytes());
        let write = op.kind.is_write();
        let total = self.total_tokens;
        // One L1-hinted L2 access serves the whole hit path: the hint skips
        // the L2 tag probe on hits, and the version bump for a write hit
        // touches `store_counter` and `stats` directly (disjoint fields), so
        // the mutable line borrow never needs re-establishing.
        let mut had_readable_copy = false;
        let (l1_hit, line) = hinted_get(&mut self.l1, &mut self.l2, addr);
        let hit_latency = if l1_hit {
            self.l1.latency_ns()
        } else {
            self.l1.latency_ns() + self.l2_latency
        };
        if let Some(line) = line {
            let hit = if write {
                line.writable(total)
            } else {
                line.readable()
            };
            if hit {
                if write {
                    self.store_counter += 1;
                    line.version = version_node_bits(self.node) | self.store_counter;
                    line.dirty = true;
                }
                if l1_hit {
                    self.stats.misses.l1_hits += 1;
                } else {
                    self.stats.misses.l2_hits += 1;
                }
                return AccessOutcome::Hit {
                    latency: hit_latency,
                    version: line.version,
                    valid_since: now,
                };
            }
            had_readable_copy = line.readable();
        }

        // Miss: merge into an existing MSHR or allocate a new one.
        if let Some(mshr) = self.mshrs.get_mut(addr) {
            self.pending_ops.push(
                &mut mshr.pending,
                PendingOp {
                    req_id: op.id,
                    write,
                },
            );
            if write && !mshr.write {
                // A read miss gains a write requirement: issue a GetM now.
                mshr.write = true;
                mshr.upgrade |= had_readable_copy;
                self.issue_transient(now, addr, true, false, out);
            }
            return AccessOutcome::Miss;
        }

        let mshr = TokenMshr {
            pending: self.pending_ops.singleton(PendingOp {
                req_id: op.id,
                write,
            }),
            write,
            upgrade: write && had_readable_copy,
            issued_at: now,
            issue_count: 1,
            persistent: false,
            timer_seq: 0,
            data_from_cache: false,
        };
        self.mshrs
            .allocate(addr, mshr)
            .unwrap_or_else(|_| panic!("MSHR overflow at {}", self.node));
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
                debug_assert!(self.is_home(addr), "persistent request at non-home node");
                let actions = self.arbiter.request(addr, msg.src, *write);
                self.apply_arbiter_actions(now, actions, out);
            }
            MsgKind::PersistentActivate { requester, write } => {
                self.activate_locally(now, addr, *requester, *write, out);
                self.ack_arbiter(now, addr, out);
            }
            MsgKind::PersistentDeactivate => {
                self.persistent_table.deactivate(addr);
                self.ack_arbiter(now, addr, out);
            }
            MsgKind::PersistentAck => {
                let actions = self.arbiter.ack(msg.src);
                self.apply_arbiter_actions(now, actions, out);
            }
            MsgKind::PersistentComplete => {
                let actions = self.arbiter.complete(addr, msg.src);
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
                let Some(mshr) = self.mshrs.get(timer.addr) else {
                    return;
                };
                if mshr.timer_seq != timer.id || mshr.persistent {
                    return;
                }
                if mshr.issue_count > self.reissues_before_persistent {
                    self.escalate_to_persistent(now, timer.addr, out);
                    return;
                }
                let write = mshr.write;
                if let Some(mshr) = self.mshrs.get_mut(timer.addr) {
                    mshr.issue_count += 1;
                }
                self.issue_transient(now, timer.addr, write, true, out);
            }
            TimerKind::MemoryAccess => {
                self.supply_from_local_memory(now, timer.addr, out);
            }
        }
    }

    fn stats(&self) -> ControllerStats {
        let mut stats = self.stats.clone();
        stats.bump(
            Counter::PersistentActivationsObserved,
            self.persistent_table.activations_seen(),
        );
        stats.bump(Counter::ArbiterActivations, self.arbiter.activations());
        stats
    }

    fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit> {
        let mut audits = Vec::new();
        if let Some(line) = self.l2.peek(addr) {
            audits.push(BlockAudit {
                tokens: line.tokens,
                owner_token: line.owner,
                readable: line.readable(),
                writable: line.writable(self.total_tokens),
                data_version: line.version,
                in_memory: false,
            });
        }
        if self.is_home(addr) {
            if let Some(mem) = self.memory.state(addr) {
                if mem.initialized {
                    audits.push(BlockAudit {
                        tokens: mem.tokens,
                        owner_token: mem.owner,
                        readable: false,
                        writable: false,
                        data_version: self.memory.data_version(addr),
                        in_memory: true,
                    });
                }
            }
        }
        audits
    }

    fn audited_blocks(&self) -> Vec<BlockAddr> {
        let mut blocks = self.l2.blocks();
        blocks.extend(
            (self.memory.touched_blocks())
                .filter(|(_, state)| state.initialized)
                .map(|(addr, _)| addr),
        );
        blocks
    }

    fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    fn outstanding_blocks(&self) -> Vec<BlockAddr> {
        self.mshrs.blocks_sorted()
    }

    fn set_arbiter_sabotage(&mut self, on: bool) {
        self.arbiter.set_sabotage(on);
    }

    fn line_state_stats(&self) -> LineStateStats {
        LineStateStats {
            mshr_peak: self.mshrs.high_water() as u64,
            wb_buffer_peak: 0,
            wb_window_peak: 0,
            home_peak: self.memory.entries_high_water(),
            persistent_peak: self.persistent_table.high_water() as u64,
            state_bytes: self.mshrs.state_bytes()
                + self.memory.state_bytes()
                + self.persistent_table.state_bytes(),
            retired_bytes_est: self.mshrs.retired_bytes_estimate()
                + self.memory.retired_bytes_estimate()
                + self.persistent_table.retired_bytes_estimate(),
        }
    }

    snap_state!(fn {
        rng,
        store_counter,
        timer_seq,
        stats,
        latency,
        l1,
        l2,
        memory,
        mshrs in pending_ops,
        persistent_table,
        arbiter,
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
        let nodes_after_warmup = requester.pending_ops.nodes();
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
            requester.pending_ops.nodes(),
            nodes_after_warmup,
            "steady-state misses must recycle pending-op storage, not grow it"
        );
        assert_eq!(requester.pending_ops.values().count(), 0);
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
        assert_eq!(home.tokens_held(BlockAddr::new(0)), 15);

        // Deliver the response back: the requester's miss completes.
        let final_out = deliver(&home_out.messages, [&mut requester], 120);
        assert_eq!(final_out.completions.len(), 1);
        assert_eq!(final_out.completions[0].kind, MissKind::Read);
        assert!(!final_out.completions[0].cache_to_cache);
        assert_eq!(requester.cache_state_name(BlockAddr::new(0)), "S");
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
        assert_eq!(home.tokens_held(BlockAddr::new(0)), 0);

        let done = deliver(&home_out.messages, [&mut writer], 130);
        assert_eq!(done.completions.len(), 1);
        assert_eq!(done.completions[0].kind, MissKind::Write);
        assert_eq!(writer.cache_state_name(BlockAddr::new(0)), "M");
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
        assert_eq!(reader.cache_state_name(BlockAddr::new(0)), "M");
        assert_eq!(writer.cache_state_name(BlockAddr::new(0)), "I");
    }

    #[test]
    fn non_migratory_owner_shares_a_single_token() {
        let mut c = controller(1, 4);
        // Construct an owned-but-clean line directly: 16 tokens, not dirty.
        let mut out = Outbox::new();
        c.receive_tokens(
            0,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 16,
                owner: true,
                version: 7,
                ..SHARED_FROM_MEMORY
            },
            Vnet::Response,
            &mut out,
        );
        assert_eq!(c.cache_state_name(BlockAddr::new(0)), "E");

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
        assert_eq!(c.tokens_held(BlockAddr::new(0)), 15);
        assert_eq!(c.cache_state_name(BlockAddr::new(0)), "O");
    }

    #[test]
    fn shared_copies_send_dataless_acks_on_getm() {
        let mut c = controller(1, 4);
        let mut out = Outbox::new();
        // Hold two non-owner tokens with data (state S).
        c.receive_tokens(
            0,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 2,
                version: 3,
                ..SHARED_FROM_MEMORY
            },
            Vnet::Response,
            &mut out,
        );
        assert_eq!(c.cache_state_name(BlockAddr::new(0)), "S");

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
        assert_eq!(c.cache_state_name(BlockAddr::new(0)), "I");
    }

    #[test]
    fn sharers_ignore_gets_requests() {
        let mut c = controller(1, 4);
        let mut out = Outbox::new();
        c.receive_tokens(
            0,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 2,
                version: 3,
                ..SHARED_FROM_MEMORY
            },
            Vnet::Response,
            &mut out,
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
        let mut out = Outbox::new();
        // The holder has all 16 tokens.
        holder.receive_tokens(
            0,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 16,
                owner: true,
                dirty: true,
                from_memory: false,
                version: 9,
                ..SHARED_FROM_MEMORY
            },
            Vnet::Response,
            &mut out,
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
        assert_eq!(holder.cache_state_name(BlockAddr::new(0)), "I");

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
        assert_eq!(holder.tokens_held(BlockAddr::new(0)), 1);
    }

    #[test]
    fn transient_requests_are_ignored_while_a_persistent_request_is_active() {
        let mut holder = controller(2, 4);
        let mut out = Outbox::new();
        holder.receive_tokens(
            0,
            BlockAddr::new(4),
            TokenTransfer {
                tokens: 4,
                version: 1,
                ..SHARED_FROM_MEMORY
            },
            Vnet::Response,
            &mut out,
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
        let mut out = Outbox::new();
        // Fill one set (blocks congruent mod 2) with owned lines.
        for i in 0..5u64 {
            let addr = BlockAddr::new(i * 2);
            c.receive_tokens(
                0,
                addr,
                TokenTransfer {
                    tokens: 16,
                    owner: true,
                    dirty: true,
                    from_memory: false,
                    version: i + 1,
                    ..SHARED_FROM_MEMORY
                },
                Vnet::Response,
                &mut out,
            );
        }
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
        let mut out = Outbox::new();
        let owned = |i: u64| TokenTransfer {
            tokens: 16,
            owner: true,
            dirty: true,
            from_memory: false,
            version: i + 1,
            ..SHARED_FROM_MEMORY
        };
        for i in 0..4u64 {
            c.receive_tokens(0, BlockAddr::new(i * 2), owned(i), Vnet::Response, &mut out);
        }
        assert!(out.messages.is_empty(), "the set holds four lines");
        // An activation flushes the block's line, so no message sequence
        // leaves a cached line under another node's table entry; enter one
        // by hand to show the eviction rule is safe even then.
        let starver = NodeId::new(3);
        c.persistent_table
            .activate(BlockAddr::new(0), starver, true);
        c.receive_tokens(0, BlockAddr::new(8), owned(4), Vnet::Response, &mut out);

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
        assert_eq!(c.tokens_held(BlockAddr::new(0)), 0);
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
        assert_eq!(home.tokens_held(BlockAddr::new(0)), 0);

        let mut out = Outbox::new();
        home.handle_message(500, &wb, &mut out);
        assert!(out.messages.is_empty());
        assert_eq!(home.tokens_held(BlockAddr::new(0)), 16);
        let audit = home.audit_block(BlockAddr::new(0));
        let mem_audit = audit.iter().find(|a| a.in_memory).expect("memory audit");
        assert_eq!(mem_audit.data_version, 77);
    }

    #[test]
    fn upgrade_miss_is_reported_as_upgrade() {
        let mut c = controller(1, 4);
        let mut out = Outbox::new();
        // Hold a readable shared copy first.
        c.receive_tokens(
            0,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 1,
                version: 5,
                ..SHARED_FROM_MEMORY
            },
            Vnet::Response,
            &mut out,
        );
        assert_eq!(c.cache_state_name(BlockAddr::new(0)), "S");

        // A store to the same block misses (needs all tokens).
        let mut out = Outbox::new();
        let outcome = c.access(100, &store(0, 9), &mut out);
        assert_eq!(outcome, AccessOutcome::Miss);

        // The remaining 15 tokens arrive with the owner token.
        let mut out2 = Outbox::new();
        c.receive_tokens(
            200,
            BlockAddr::new(0),
            TokenTransfer {
                tokens: 15,
                owner: true,
                version: 5,
                ..SHARED_FROM_MEMORY
            },
            Vnet::Response,
            &mut out2,
        );
        assert_eq!(out2.completions.len(), 1);
        assert_eq!(out2.completions[0].kind, MissKind::Upgrade);
        assert_eq!(c.stats().misses.upgrade_misses, 1);
        assert_eq!(c.cache_state_name(BlockAddr::new(0)), "M");
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
        home.persistent_table
            .activate(BlockAddr::new(0), starver, false);

        let mut out = Outbox::new();
        home.handle_timer(fire_at, timer, &mut out);
        assert!(out.completions.is_empty(), "the home's own miss stays open");
        assert_eq!(home.outstanding_misses(), 1);
        assert_eq!(home.cache_state_name(BlockAddr::new(0)), "I");
        assert_eq!(home.tokens_held(BlockAddr::new(0)), 0);
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
