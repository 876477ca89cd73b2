//! One MOSI node under three baseline policies.
//!
//! The paper's three baselines (Section 5.1) are the same machine — MOSI
//! invalidation with the migratory-sharing optimization — differing only in
//! how a request is ordered and who answers it. [`MosiNode`] is that
//! machine: the caches, the MSHRs, the writeback plane, the home memory, the
//! requester side of a miss (hit path, merge, allocate, issue, completion,
//! eviction, merged-store upgrade re-issue) and the one
//! [`CoherenceController`] implementation. A [`MosiPolicy`] supplies what
//! genuinely differs, by static dispatch: the MSHR and home-entry types,
//! when a miss is ready and what it installs, where requests go, what
//! follows a completion, and the home/snoop message handlers (written as
//! inherent methods on `MosiNode<ThatPolicy>` in each protocol's file).
//!
//! Two layout constraints shape the split. The line-state accounting prices
//! each table at `size_of::<Option<V>>()` per slot, so the MSHR types stay
//! flat per protocol (an embedded common struct would add padding and move
//! `peak_state_bytes`); the node reads them through [`MosiPolicy::ready`]
//! and [`MosiPolicy::pending`]. And the MSHR wire layouts interleave common
//! and protocol fields in a different order per protocol, so each MSHR type
//! declares its own next to it.

use std::fmt;

use tc_memsys::{version_node_bits, HomeMemory, L1Filter, MshrTable, PendingOp, SetAssocCache};
use tc_sim::{snap_state, Fifo, FifoPool, Snap, SnapWith};
use tc_types::{
    AccessOutcome, BlockAddr, BlockAudit, CoherenceController, ControllerStats, Counter, Cycle,
    DataPayload, Destination, HomeMap, LineStateStats, MemOp, Message, MissCompletion, MissKind,
    MsgKind, NodeId, Outbox, ReqId, SystemConfig, Timer, Vnet,
};

use crate::common::{MosiLine, MosiState, QueuedRequest, WritebackPlane};

/// What a miss that is ready to complete was asked for and what it
/// obtained, read out of the protocol's MSHR by [`MosiPolicy::ready`].
#[derive(Debug, Clone, Copy)]
pub struct Grant {
    /// The miss was opened by a store.
    pub write: bool,
    /// The store found a readable copy (an upgrade).
    pub upgrade: bool,
    /// A response granted exclusivity (a migratory read, for example).
    pub exclusive: bool,
    /// When the miss was issued.
    pub issued_at: Cycle,
    /// The data version to install.
    pub version: u64,
    /// Whether that data differs from memory's copy.
    pub dirty: bool,
    /// Whether a cache, rather than memory, supplied it.
    pub from_cache: bool,
}

/// The per-protocol half of a MOSI baseline. Everything here is resolved at
/// compile time; the shared node never asks which protocol it serves.
pub trait MosiPolicy: fmt::Debug + Send + Sized {
    /// [`CoherenceController::protocol_name`].
    const NAME: &'static str;
    /// Whether a read hit reports the copy's `valid_since` rather than
    /// `now`: an unacknowledged ordered broadcast is coherent but not
    /// wall-clock fresh (see [`MosiLine::valid_since`]); acknowledged
    /// protocols leave this off.
    const READ_HITS_DATE_FROM_COPY: bool = false;
    /// Whether a request carries the id of the operation that opened the
    /// miss, for responses to echo.
    const TAGS_REQUESTS: bool = false;

    /// Requester-side bookkeeping for one outstanding miss, with its wire
    /// layout (pending ops first, through the node's [`FifoPool`]).
    type Mshr: fmt::Debug + Send + SnapWith<FifoPool<PendingOp>>;
    /// Home-side state for one block.
    type Home: Default + Clone + fmt::Debug + Send + Snap;

    /// The policy's own configuration-derived state.
    fn new(config: &SystemConfig) -> Self;

    /// Where a request or PutM for a block homed at `home` is sent.
    fn destination(&self, home: NodeId) -> Destination;

    /// A fresh MSHR for a miss opened by `first` at `now`.
    fn new_mshr(&self, pending: Fifo, first: PendingOp, upgrade: bool, now: Cycle) -> Self::Mshr;

    /// The MSHR's pending-op list (stored in the node's [`FifoPool`]).
    fn pending(mshr: &mut Self::Mshr) -> &mut Fifo;

    /// Runs before the hit path of every access.
    #[inline]
    fn before_access(_node: &mut MosiNode<Self>, _now: Cycle, _addr: BlockAddr, _out: &mut Outbox) {
    }

    /// `Some` once the miss has everything it waits for.
    fn ready(node: &MosiNode<Self>, addr: BlockAddr, mshr: &Self::Mshr) -> Option<Grant>;

    /// Runs after a miss installed its line and reported its completions,
    /// before any merged stores are re-issued as an upgrade.
    fn completed(
        node: &mut MosiNode<Self>,
        now: Cycle,
        addr: BlockAddr,
        mshr: Self::Mshr,
        granted_exclusive: bool,
        out: &mut Outbox,
    );

    /// Every coherence message: the home side, the snoop/forward side and
    /// the responses that feed `MosiNode::try_complete`.
    fn handle_message(node: &mut MosiNode<Self>, now: Cycle, msg: &Message, out: &mut Outbox);
}

/// The controller of one node of a MOSI baseline (cache side plus the home
/// side for the blocks it homes), under policy `P`.
#[derive(Debug)]
pub struct MosiNode<P: MosiPolicy> {
    pub(crate) node: NodeId,
    pub(crate) home_map: HomeMap,
    pub(crate) l1: L1Filter,
    pub(crate) l2: SetAssocCache<MosiLine>,
    pub(crate) l2_latency: Cycle,
    pub(crate) controller_latency: Cycle,
    pub(crate) dram_latency: Cycle,
    pub(crate) memory: HomeMemory<P::Home>,
    pub(crate) mshrs: MshrTable<P::Mshr>,
    /// In-flight writebacks (and, where the policy uses them, the home-side
    /// ordered-PutM handshake windows) on the shared line-state plane.
    pub(crate) wb: WritebackPlane,
    pub(crate) stats: ControllerStats,
    store_counter: u64,
    /// Pooled storage for every MSHR entry's pending-op list.
    pub(crate) pending_ops: FifoPool<PendingOp>,
    /// Reusable completion/deferral scratch for `apply_pending_ops`, so the
    /// completion path allocates nothing in the steady state.
    completion_scratch: Vec<(ReqId, u64)>,
    deferred_scratch: Vec<PendingOp>,
    pub(crate) policy: P,
}

impl<P: MosiPolicy> MosiNode<P> {
    /// Creates the controller for `node` under `config`.
    pub fn new(node: NodeId, config: &SystemConfig) -> Self {
        let home_map = HomeMap::new(config.num_nodes, config.block_bytes);
        MosiNode {
            node,
            home_map,
            l1: L1Filter::new(&config.l1, config.block_bytes),
            l2: SetAssocCache::new(&config.l2, config.block_bytes),
            l2_latency: config.l2.latency_ns,
            controller_latency: config.controller_latency_ns,
            dram_latency: config.dram_latency_ns,
            memory: HomeMemory::new(node, home_map, config.dram_latency_ns),
            mshrs: MshrTable::new(config.processor.max_outstanding_misses.max(1)),
            wb: WritebackPlane::new(),
            stats: ControllerStats::new(),
            store_counter: 0,
            pending_ops: FifoPool::new(),
            completion_scratch: Vec::new(),
            deferred_scratch: Vec::new(),
            policy: P::new(config),
        }
    }

    pub(crate) fn is_home(&self, addr: BlockAddr) -> bool {
        self.home_map.is_home(self.node, addr)
    }

    pub(crate) fn home_of(&self, addr: BlockAddr) -> NodeId {
        self.home_map.home_of(addr)
    }

    pub(crate) fn send(&mut self, out: &mut Outbox, msg: Message) {
        self.stats.messages_sent += 1;
        out.send(msg);
    }

    pub(crate) fn unicast(
        &self,
        at: Cycle,
        dest: NodeId,
        addr: BlockAddr,
        kind: MsgKind,
        vnet: Vnet,
    ) -> Message {
        Message::new(self.node, Destination::Node(dest), addr, kind, vnet, at)
    }

    /// The cached line, or the one parked in the writeback buffer.
    pub(crate) fn line_or_wb(&self, addr: BlockAddr) -> Option<MosiLine> {
        self.l2.peek(addr).copied().or_else(|| self.wb.line(addr))
    }

    pub(crate) fn install_line(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        line: MosiLine,
        out: &mut Outbox,
    ) {
        if let Some(victim) = self.l2.insert(addr, line) {
            self.evict(now, victim.addr, victim.state, out);
        }
    }

    /// Evicts `line`: an owner's copy is parked in the writeback buffer and
    /// announced with a PutM carrying its version; shared lines are dropped
    /// silently.
    pub(crate) fn evict(&mut self, now: Cycle, addr: BlockAddr, line: MosiLine, out: &mut Outbox) {
        self.l1.invalidate(addr);
        if line.state.is_owner() {
            self.stats.misses.writebacks += 1;
            self.wb.stash(addr, line);
            let putm = Message::new(
                self.node,
                self.policy.destination(self.home_of(addr)),
                addr,
                MsgKind::PutM,
                Vnet::Writeback,
                now + self.controller_latency,
            )
            .with_req_id(ReqId::new(line.version));
            self.send(out, putm);
        }
    }

    /// The owner's answer to `request`: the data goes straight to the
    /// requester — exclusively for a write, and for a read of a dirty
    /// Modified line under the migratory optimization (`migratory_ok` lets
    /// the caller rule it out) — and the cached copy is given up or
    /// demoted to Owned accordingly. Returns whether the answer was
    /// exclusive.
    pub(crate) fn answer_as_owner(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        line: MosiLine,
        request: QueuedRequest,
        migratory_ok: bool,
        out: &mut Outbox,
    ) -> bool {
        let migratory = migratory_ok && line.state == MosiState::Modified && line.dirty;
        let exclusive = request.write || migratory;
        let mut data = self.unicast(
            now + self.controller_latency + self.l2_latency,
            request.requester,
            addr,
            MsgKind::Data {
                acks_expected: 0,
                exclusive,
                from_memory: false,
                payload: DataPayload::new(line.version),
            },
            Vnet::Response,
        );
        data.req_id = request.req_id;
        self.send(out, data);
        if exclusive {
            self.l2.remove(addr);
            self.l1.invalidate(addr);
        } else if let Some(l) = self.l2.get(addr) {
            l.state = MosiState::Owned;
        }
        exclusive
    }

    /// The hit path: one L1 touch and one L2 access serving both the
    /// permission check and (for write hits) the in-place version bump.
    /// `None` sends the access down the miss path.
    #[inline]
    fn hit_path(&mut self, addr: BlockAddr, write: bool, now: Cycle) -> Option<AccessOutcome> {
        let l1_hit = self.l1.touch(addr);
        let line = self.l2.get(addr);
        let latency = if l1_hit {
            self.l1.latency_ns()
        } else {
            self.l1.latency_ns() + self.l2_latency
        };
        let line = line?;
        let (version, valid_since) = if write && line.state.writable() {
            self.store_counter += 1;
            line.version = version_node_bits(self.node) | self.store_counter;
            line.dirty = true;
            (line.version, now)
        } else if !write && line.state.readable() {
            let since = if P::READ_HITS_DATE_FROM_COPY {
                line.valid_since
            } else {
                now
            };
            (line.version, since)
        } else {
            return None;
        };
        if l1_hit {
            self.stats.misses.l1_hits += 1;
        } else {
            self.stats.misses.l2_hits += 1;
        }
        Some(AccessOutcome::Hit {
            latency,
            version,
            valid_since,
        })
    }

    /// Opens a miss: allocates the MSHR and sends the GetS/GetM wherever
    /// the policy routes requests.
    fn issue(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        pending: Fifo,
        first: PendingOp,
        upgrade: bool,
        out: &mut Outbox,
    ) {
        let mshr = self.policy.new_mshr(pending, first, upgrade, now);
        if self.mshrs.allocate(addr, mshr).is_err() {
            panic!("MSHR overflow at {}", self.node);
        }
        let kind = if first.write {
            MsgKind::GetM
        } else {
            MsgKind::GetS
        };
        let mut request = Message::new(
            self.node,
            self.policy.destination(self.home_of(addr)),
            addr,
            kind,
            Vnet::Request,
            now + self.controller_latency,
        );
        if P::TAGS_REQUESTS {
            request.req_id = Some(first.req_id);
        }
        self.send(out, request);
    }

    /// Performs the pending operations of a completing miss against the
    /// line: stores not granted exclusivity are left in `deferred_scratch`
    /// for re-issue as an upgrade, everything else yields `(req_id,
    /// version)` completions in `completion_scratch`, in order.
    fn apply_pending_ops(&mut self, line: &mut MosiLine, pending: &Fifo, granted_exclusive: bool) {
        self.completion_scratch.clear();
        self.deferred_scratch.clear();
        for op in self.pending_ops.iter(pending) {
            if op.write && !granted_exclusive {
                self.deferred_scratch.push(*op);
                continue;
            }
            if op.write {
                self.store_counter += 1;
                line.version = version_node_bits(self.node) | self.store_counter;
                line.dirty = true;
            }
            self.completion_scratch.push((op.req_id, line.version));
        }
    }

    /// Completes the miss on `addr` if the policy says it is ready: installs
    /// the line, performs and reports the pending operations, lets the
    /// policy follow up, and re-issues stores that merged into a read miss.
    pub(crate) fn try_complete(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.mshrs.get(addr) else {
            return;
        };
        let Some(grant) = P::ready(self, addr, mshr) else {
            return;
        };
        let mut mshr = self.mshrs.release(addr).expect("checked above");

        let granted_exclusive = grant.write || grant.exclusive;
        let state = if granted_exclusive {
            MosiState::Modified
        } else {
            MosiState::Shared
        };
        let mut line = MosiLine {
            state,
            dirty: grant.dirty && state.is_owner(),
            version: grant.version,
            valid_since: grant.issued_at,
        };
        // Stores merged into a read miss cannot be performed with only a
        // shared copy; they are re-issued below as an upgrade transaction.
        self.apply_pending_ops(&mut line, P::pending(&mut mshr), granted_exclusive);
        self.pending_ops.clear(P::pending(&mut mshr));
        self.install_line(now, addr, line, out);

        let kind = match (grant.write, grant.upgrade) {
            (false, _) => MissKind::Read,
            (true, false) => MissKind::Write,
            (true, true) => MissKind::Upgrade,
        };
        for (req_id, data_version) in self.completion_scratch.drain(..) {
            out.complete(MissCompletion {
                req_id,
                addr,
                kind,
                issued_at: grant.issued_at,
                completed_at: now,
                data_version,
                cache_to_cache: grant.from_cache,
            });
        }
        let latency = now.saturating_sub(grant.issued_at);
        self.stats
            .misses
            .record_completed(kind, latency, grant.from_cache);
        // The baselines never reissue.
        self.stats.reissue.not_reissued += 1;

        P::completed(self, now, addr, mshr, granted_exclusive, out);

        if let Some(&first) = self.deferred_scratch.first() {
            self.stats.bump(Counter::MergedStoreUpgrades, 1);
            let mut deferred = Fifo::new();
            for op in self.deferred_scratch.drain(..) {
                self.pending_ops.push(&mut deferred, op);
            }
            self.issue(now, addr, deferred, first, true, out);
        }
    }
}

impl<P: MosiPolicy> CoherenceController for MosiNode<P> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn protocol_name(&self) -> &'static str {
        P::NAME
    }

    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        let addr = op.addr.block(self.home_map.block_bytes());
        let first = PendingOp {
            req_id: op.id,
            write: op.kind.is_write(),
        };
        P::before_access(self, now, addr, out);
        if let Some(outcome) = self.hit_path(addr, first.write, now) {
            return outcome;
        }
        if let Some(mshr) = self.mshrs.get_mut(addr) {
            // Merge into the outstanding miss. A store merged into a read
            // miss is satisfied later: if the read returns without write
            // permission, the store is re-issued as an upgrade transaction
            // when the read completes (see `try_complete`).
            self.pending_ops.push(P::pending(mshr), first);
            return AccessOutcome::Miss;
        }
        let had_copy = self.l2.peek(addr).is_some_and(|l| l.state.readable());
        let pending = self.pending_ops.singleton(first);
        self.issue(now, addr, pending, first, first.write && had_copy, out);
        AccessOutcome::Miss
    }

    fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
        self.stats.messages_received += 1;
        P::handle_message(self, now, msg, out);
    }

    fn handle_timer(&mut self, _now: Cycle, _timer: Timer, _out: &mut Outbox) {
        // The MOSI baselines arm no timers.
    }

    fn stats(&self) -> ControllerStats {
        self.stats.clone()
    }

    fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit> {
        let audit = |line: &MosiLine| BlockAudit {
            tokens: 0,
            owner_token: line.state.is_owner(),
            readable: line.state.readable(),
            writable: line.state.writable(),
            data_version: line.version,
            in_memory: false,
        };
        self.l2.peek(addr).map(audit).into_iter().collect()
    }

    fn audited_blocks(&self) -> Vec<BlockAddr> {
        self.l2.blocks()
    }

    fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    fn outstanding_blocks(&self) -> Vec<BlockAddr> {
        self.mshrs.blocks_sorted()
    }

    fn line_state_stats(&self) -> LineStateStats {
        let (wb_buffer_peak, wb_window_peak) = self.wb.peaks();
        LineStateStats {
            mshr_peak: self.mshrs.high_water() as u64,
            wb_buffer_peak,
            wb_window_peak,
            home_peak: self.memory.entries_high_water(),
            persistent_peak: 0,
            state_bytes: self.mshrs.state_bytes()
                + self.wb.state_bytes()
                + self.memory.state_bytes(),
        }
    }

    snap_state!(fn {
        store_counter,
        stats,
        l1,
        l2,
        memory,
        mshrs in pending_ops,
        wb,
    });
}

#[cfg(test)]
/// The helpers the three protocols' unit tests share.
pub(crate) mod test_support {
    use super::*;
    use tc_types::{Address, MemOpKind};

    /// The controller of `node` in a four-node system.
    pub(crate) fn controller<P: MosiPolicy>(node: usize) -> MosiNode<P> {
        let config = SystemConfig::isca03_default().with_nodes(4);
        MosiNode::new(NodeId::new(node), &config)
    }

    pub(crate) fn load(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Load)
    }

    pub(crate) fn store(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Store)
    }
}
