//! The token-counting substrate: who holds a block's tokens, and every rule
//! by which one moves.
//!
//! A block's `T` tokens live in cache lines ([`TokenLine`]), at the home
//! memory ([`MemTokens`]) and in messages ([`TokenTransfer`]): three kinds
//! of holder, seen through [`Holding`]. Tokens leave one by two rules,
//! [`Holding::take_all`] and [`Holding::take_for_read`], which conserve
//! them, move the owner token at most once and send data whenever it goes
//! (invariant #4'), and join one by [`Holding::absorb`]; a processor op is
//! [`TokenLine::perform`]. Only [`TokenSubstrate`], one node's holders,
//! misses and persistent-request state, applies them. A performance
//! protocol picks the holder, the rule, the time and the destination, and
//! cannot edit a count: only this module can write a holder's fields.
//!
//! ```compile_fail,E0616
//! let mut line = tc_core::TokenLine::default();
//! (line.tokens, line.owner, line.version) = (16, true, 7);
//! ```

use tc_memsys::{hinted_get, HomeMemory, L1Filter, MshrTable, PendingOp, SetAssocCache};
use tc_sim::{snap_state, snap_struct, FifoPool};
use tc_types::{BlockAddr, BlockAudit, Cycle, HomeMap, LineStateStats, NodeId, SystemConfig};

use crate::arbiter::PersistentArbiter;
use crate::persistent::PersistentTable;
use crate::tokenb::TokenMshr;

/// Token state of one cache line.
///
/// Possession of tokens maps directly onto the familiar MOESI states
/// (Section 3.1 of the paper): all `T` tokens is M (or E when clean), the
/// owner token plus some non-owner tokens is O, one or more non-owner tokens
/// is S, and no tokens is I. The *valid-data* bit is distinct from the tag
/// valid bit: with the optimized invariants a component may hold non-owner
/// tokens without data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenLine {
    /// Number of tokens held (including the owner token if `owner`).
    tokens: u32,
    /// Whether the owner token is among them.
    owner: bool,
    /// Whether the line holds valid data (invariant #3' requires this to
    /// read).
    valid_data: bool,
    /// Whether the data differs from the memory copy (needs writeback with
    /// the owner token).
    dirty: bool,
    /// Simulated block contents (version number).
    version: u64,
}

snap_struct!(TokenLine {
    tokens,
    owner,
    valid_data,
    dirty,
    version,
});

impl TokenLine {
    /// Invariant #3': the processor may read only with at least one token and
    /// valid data.
    pub fn readable(&self) -> bool {
        self.tokens >= 1 && self.valid_data
    }

    /// Invariant #2': the processor may write only while holding all `total`
    /// tokens (and it must have valid data to produce the new block value).
    pub fn writable(&self, total: u32) -> bool {
        self.tokens == total && self.valid_data
    }

    fn permits(&self, total: u32, write: bool) -> bool {
        if write {
            self.writable(total)
        } else {
            self.readable()
        }
    }

    /// A processor load, or (`write`) a store of the version `store` hands
    /// out, which leaves the copy dirty: performed only when the line is
    /// readable, or writable, and then returns the version the op sees.
    #[inline]
    pub fn perform(&mut self, total: u32, write: bool, store: impl FnOnce() -> u64) -> Option<u64> {
        if !self.permits(total, write) {
            return None;
        }
        if write {
            self.version = store();
            self.dirty = true;
        }
        Some(self.version)
    }

    /// This line as a token holder: a cache's copy may be dirty and is
    /// never the memory copy. A line left without tokens must be dropped by
    /// its cache, since nothing keeps its data current any more.
    pub fn holding(&mut self) -> Holding<'_> {
        Holding {
            dirty: self.dirty,
            version: self.version,
            from_memory: false,
            tokens: &mut self.tokens,
            owner: &mut self.owner,
        }
    }

    /// The arrival rule on a line: data that comes makes its copy valid.
    fn absorb(&mut self, t: TokenTransfer) {
        if let Some(version) = self.holding().absorb(t) {
            self.version = version;
            self.valid_data = true;
        }
        self.dirty |= t.dirty;
    }

    /// The MOESI state name this token count corresponds to, for traces and
    /// tests.
    pub fn moesi_name(&self, total: u32) -> &'static str {
        if self.tokens == 0 {
            "I"
        } else if self.tokens == total {
            if self.dirty {
                "M"
            } else {
                "E"
            }
        } else if self.owner {
            "O"
        } else {
            "S"
        }
    }
}

/// Token state of the home memory for one block.
///
/// Memory starts out holding all `T` tokens (including the owner token) for
/// every block it homes; because that initial state is implicit, the struct
/// records whether it has been materialized yet (`initialized`). The home
/// controller materializes it the first time the block is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemTokens {
    /// Whether the implicit "all tokens at home" state has been materialized.
    initialized: bool,
    /// Tokens currently held by memory.
    tokens: u32,
    /// Whether memory holds the owner token.
    owner: bool,
}

snap_struct!(MemTokens {
    initialized,
    tokens,
    owner,
});

impl MemTokens {
    /// Memory as a token holder for a block whose DRAM copy is `version`,
    /// materializing the initial `total` tokens first (once: a touched
    /// entry keeps its count). Memory's copy is never dirty, and it is
    /// current exactly while memory holds the owner token.
    pub fn holding(&mut self, total: u32, version: u64) -> Holding<'_> {
        if !self.initialized {
            self.initialized = true;
            self.tokens = total;
            self.owner = true;
        }
        Holding {
            dirty: false,
            version,
            from_memory: true,
            tokens: &mut self.tokens,
            owner: &mut self.owner,
        }
    }
}

/// Tokens in motion between two holders: field for field what
/// `MsgKind::TokenData` (`data` set) and `MsgKind::TokenOnly` carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenTransfer {
    /// Number of tokens moving (including the owner token if `owner`).
    pub tokens: u32,
    /// Whether the owner token is among them.
    pub owner: bool,
    /// Whether the block's data travels along. Invariant #4': it always does
    /// with the owner token.
    pub data: bool,
    /// Whether that data differs from the memory copy; set only with the
    /// owner token, which carries the duty to write it back.
    pub dirty: bool,
    /// The data (meaningful only with `data`).
    pub version: u64,
    /// Whether the data was sourced by the home memory rather than a cache.
    pub from_memory: bool,
}

impl TokenTransfer {
    /// Tokens that arrived where they may not stay (another node's
    /// persistent request is active) are a holder too, so passing them on
    /// obeys the same rule as giving up a cached line.
    pub fn holding(&mut self) -> Holding<'_> {
        Holding {
            dirty: self.dirty,
            version: self.version,
            from_memory: self.from_memory,
            tokens: &mut self.tokens,
            owner: &mut self.owner,
        }
    }
}

/// A borrowed view of one token holder — a cache line, the home memory's
/// entry, or a transfer being passed on — through which tokens leave it.
/// Each rule consumes the view: one decision per look at the holder.
#[derive(Debug)]
pub struct Holding<'a> {
    tokens: &'a mut u32,
    owner: &'a mut bool,
    dirty: bool,
    version: u64,
    from_memory: bool,
}

impl Holding<'_> {
    /// Everything the holder has — the answer to an exclusive request, a
    /// persistent activation, an eviction and a forward. Data goes exactly
    /// when the owner token does; non-owner tokens travel dataless. `None`
    /// when the holder has no tokens.
    #[inline]
    pub fn take_all(self) -> Option<TokenTransfer> {
        let (tokens, owner) = (*self.tokens, *self.owner);
        if tokens == 0 {
            return None;
        }
        *self.tokens = 0;
        *self.owner = false;
        Some(TokenTransfer {
            tokens,
            owner,
            data: owner,
            dirty: owner && self.dirty,
            version: self.version,
            from_memory: self.from_memory,
        })
    }

    /// The answer to a shared request. Only the owner answers (its copy is
    /// the current one): with one non-owner token plus data while it has
    /// one to spare, else with the owner token itself rather than refusing.
    /// Under the migratory optimization, a holder with all `total` tokens and
    /// a dirty copy hands over everything, passing read/write permission
    /// along.
    #[inline]
    pub fn take_for_read(self, total: u32) -> Option<TokenTransfer> {
        if !*self.owner {
            return None;
        }
        let hand_over = *self.tokens == total && self.dirty;
        if *self.tokens <= 1 || hand_over {
            return self.take_all();
        }
        *self.tokens -= 1;
        Some(TokenTransfer {
            tokens: 1,
            owner: false,
            data: true,
            dirty: false,
            version: self.version,
            from_memory: self.from_memory,
        })
    }

    /// The arrival rule, the two above run backwards: `t`'s tokens and
    /// owner token join the holder's. When `t` brings data, returns the
    /// copy the holder keeps: `t`'s, unless the holder's own is dirty (no
    /// copy in flight is newer).
    #[inline]
    pub fn absorb(self, t: TokenTransfer) -> Option<u64> {
        *self.tokens += t.tokens;
        *self.owner |= t.owner;
        t.data
            .then_some(if self.dirty { self.version } else { t.version })
    }
}

/// Where tokens that arrived at a node went ([`TokenSubstrate::arrive`]).
#[derive(Debug)]
pub(crate) enum Arrival {
    /// On to this starver: another node's persistent request is active.
    Forward(NodeId, TokenTransfer),
    /// Into the cache, evicting `(victim, its starver or home, what it
    /// gave up)` to make room.
    Cached(Option<(BlockAddr, NodeId, TokenTransfer)>),
    /// Into home memory as a writeback, or there was nothing to pass on.
    Settled,
}

/// One node's share of the correctness substrate: its cache lines, home
/// memory's entries for the blocks it homes, its misses, and the
/// persistent-request table and arbiter. Its methods are the only token
/// transitions; the performance protocol that owns it decides which holder
/// is asked, by which rule, when, and for whom.
#[derive(Debug)]
pub struct TokenSubstrate {
    pub(crate) node: NodeId,
    pub(crate) home_map: HomeMap,
    pub(crate) total_tokens: u32,
    l1: L1Filter,
    l2: SetAssocCache<TokenLine>,
    memory: HomeMemory<MemTokens>,
    pub(crate) mshrs: MshrTable<TokenMshr>,
    pub(crate) persistent_table: PersistentTable,
    pub(crate) arbiter: PersistentArbiter,
    /// Pooled storage for every MSHR entry's pending-op list.
    pub(crate) pending_ops: FifoPool<PendingOp>,
}

snap_state!(TokenSubstrate {
    l1,
    l2,
    memory,
    mshrs in pending_ops,
    persistent_table,
    arbiter,
});

impl TokenSubstrate {
    /// The substrate for `node` under `config`: empty caches, and memory
    /// holding all `T` tokens of every block this node homes. Panics as
    /// [`TokenBController::new`](crate::TokenBController::new) does.
    pub fn new(node: NodeId, config: &SystemConfig) -> Self {
        assert!(
            config.token.tokens_per_block as usize >= config.num_nodes,
            "tokens per block must be at least the number of nodes"
        );
        let home_map = HomeMap::new(config.num_nodes, config.block_bytes);
        TokenSubstrate {
            node,
            home_map,
            total_tokens: config.token.tokens_per_block,
            l1: L1Filter::new(&config.l1, config.block_bytes),
            l2: SetAssocCache::new(&config.l2, config.block_bytes),
            memory: HomeMemory::new(node, home_map, config.dram_latency_ns),
            mshrs: MshrTable::new(config.processor.max_outstanding_misses.max(1)),
            persistent_table: PersistentTable::new(),
            arbiter: PersistentArbiter::new(config.num_nodes),
            pending_ops: FifoPool::new(),
        }
    }

    #[inline]
    pub(crate) fn is_home(&self, addr: BlockAddr) -> bool {
        self.home_map.is_home(self.node, addr)
    }

    /// The persistent-forward decision: while another node's persistent
    /// request is active for `addr`, every token this node holds or gets
    /// for it goes to that starver.
    #[inline]
    pub(crate) fn starver(&self, addr: BlockAddr) -> Option<NodeId> {
        self.persistent_table.forward_target(addr, self.node)
    }

    /// The processor's L1-hinted L2 access: L1 hit?, L1 latency, the line.
    #[inline]
    pub(crate) fn lookup(&mut self, addr: BlockAddr) -> (bool, Cycle, Option<&mut TokenLine>) {
        let (l1_hit, line) = hinted_get(&mut self.l1, &mut self.l2, addr);
        (l1_hit, self.l1.latency_ns(), line)
    }

    /// Once the line permits the pending ops of the miss on `addr`, the
    /// miss leaves its MSHR, with its line (one L2 access) and op pool.
    #[inline]
    pub(crate) fn completing(
        &mut self,
        addr: BlockAddr,
    ) -> Option<(TokenMshr, &mut TokenLine, &mut FifoPool<PendingOp>)> {
        let write = self.mshrs.get(addr)?.write;
        if !self.l2.peek(addr)?.permits(self.total_tokens, write) {
            return None;
        }
        let mshr = self.mshrs.release(addr)?;
        Some((mshr, self.l2.get(addr)?, &mut self.pending_ops))
    }

    /// `rule` put to the cached line for `addr` through a copy (one L2
    /// access), which is dropped when left without tokens and else stored
    /// back (a second one).
    #[inline]
    pub(crate) fn ask_cache(
        &mut self,
        addr: BlockAddr,
        rule: impl FnOnce(Holding<'_>) -> Option<TokenTransfer>,
    ) -> Option<TokenTransfer> {
        let mut line = self.l2.get(addr).copied()?;
        let transfer = rule(line.holding())?;
        if line.tokens == 0 {
            self.l2.remove(addr);
            self.l1.invalidate(addr);
        } else if let Some(l) = self.l2.get(addr) {
            *l = line;
        }
        Some(transfer)
    }

    /// `rule` put to memory's entry for `addr`, which this node homes.
    #[inline]
    pub(crate) fn ask_memory<R>(
        &mut self,
        addr: BlockAddr,
        rule: impl FnOnce(Holding<'_>) -> R,
    ) -> R {
        let version = self.memory.data_version(addr);
        let entry = self.memory.state_mut(addr);
        rule(entry.holding(self.total_tokens, version))
    }

    /// Tokens arriving for `addr`: passed on to the starver, absorbed by
    /// memory when they are a `writeback` to this home, else by the cache.
    #[inline]
    pub(crate) fn arrive(
        &mut self,
        addr: BlockAddr,
        mut t: TokenTransfer,
        writeback: bool,
    ) -> Arrival {
        if let Some(starver) = self.starver(addr) {
            let passed_on = t.holding().take_all();
            return passed_on.map_or(Arrival::Settled, |t| Arrival::Forward(starver, t));
        }
        if writeback && self.is_home(addr) {
            if let Some(version) = self.ask_memory(addr, |memory| memory.absorb(t)) {
                self.memory.write_data(addr, version);
            }
            debug_assert!(self.tokens_held(addr) <= self.total_tokens, "minted");
            return Arrival::Settled;
        }
        let victim = self.allocate(addr);
        let line = self.l2.get(addr).expect("line allocated immediately above");
        line.absorb(t);
        Arrival::Cached(victim)
    }

    /// Makes room for `addr` in the cache: a victim gives up everything, for
    /// home or for the starver of another node's persistent request.
    fn allocate(&mut self, addr: BlockAddr) -> Option<(BlockAddr, NodeId, TokenTransfer)> {
        if self.l2.contains(addr) {
            return None;
        }
        let victim = self.l2.insert(addr, TokenLine::default())?;
        let (block, mut line) = (victim.addr, victim.state);
        self.l1.invalidate(block);
        let transfer = line.holding().take_all()?;
        let dest = self.starver(block).unwrap_or(self.home_map.home_of(block));
        Some((block, dest, transfer))
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
        self.audit_block(addr).iter().map(|a| a.tokens).sum()
    }

    /// This node's holders of `addr`, for the verifier.
    pub fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit> {
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
        // Only a block's home has a memory entry for it.
        if let Some(mem) = self.memory.state(addr).filter(|m| m.initialized) {
            audits.push(BlockAudit {
                tokens: mem.tokens,
                owner_token: mem.owner,
                readable: false,
                writable: false,
                data_version: self.memory.data_version(addr),
                in_memory: true,
            });
        }
        audits
    }

    /// Blocks with a holder here: cached lines, touched memory entries.
    pub fn audited_blocks(&self) -> Vec<BlockAddr> {
        let mut blocks = self.l2.blocks();
        blocks.extend(
            (self.memory.touched_blocks())
                .filter(|(_, state)| state.initialized)
                .map(|(addr, _)| addr),
        );
        blocks
    }

    /// Peaks and bytes of the MSHRs, home entries and persistent table.
    pub fn line_state_stats(&self) -> LineStateStats {
        LineStateStats {
            mshr_peak: self.mshrs.high_water() as u64,
            wb_buffer_peak: 0,
            wb_window_peak: 0,
            home_peak: self.memory.entries_high_water(),
            persistent_peak: self.persistent_table.high_water() as u64,
            state_bytes: self.mshrs.state_bytes()
                + self.memory.state_bytes()
                + self.persistent_table.state_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_memory_state_round_trip() {
        tc_testkit::assert_snap_round_trip(&TokenLine {
            tokens: 3,
            owner: true,
            valid_data: true,
            dirty: false,
            version: 9,
        });
        tc_testkit::assert_snap_round_trip(&MemTokens {
            initialized: true,
            tokens: 13,
            owner: false,
        });
    }

    #[test]
    fn empty_line_is_invalid_and_unreadable() {
        let mut line = TokenLine::default();
        assert_eq!(line.holding().take_all(), None, "nothing to give up");
        assert_eq!(line.holding().take_for_read(16), None);
        assert!(!line.readable());
        assert!(!line.writable(16));
        assert_eq!(line.moesi_name(16), "I");
    }

    #[test]
    fn token_counts_map_to_moesi_states() {
        let total = 16;
        let mut line = TokenLine {
            tokens: total,
            owner: true,
            valid_data: true,
            dirty: true,
            version: 1,
        };
        assert_eq!(line.moesi_name(total), "M");
        line.dirty = false;
        assert_eq!(line.moesi_name(total), "E");
        line.tokens = 5;
        assert_eq!(line.moesi_name(total), "O");
        line.owner = false;
        assert_eq!(line.moesi_name(total), "S");
        line.tokens = 0;
        assert_eq!(line.moesi_name(total), "I");
    }

    #[test]
    fn read_needs_token_and_valid_data() {
        let mut line = TokenLine {
            tokens: 1,
            owner: false,
            valid_data: false,
            dirty: false,
            version: 0,
        };
        assert!(!line.readable(), "token without data is not readable");
        line.valid_data = true;
        assert!(line.readable());
    }

    #[test]
    fn write_needs_every_token() {
        let total = 4;
        for tokens in 0..total {
            let line = TokenLine {
                tokens,
                owner: tokens > 0,
                valid_data: true,
                dirty: false,
                version: 0,
            };
            assert!(
                !line.writable(total),
                "{tokens} tokens must not be writable"
            );
        }
        let line = TokenLine {
            tokens: total,
            owner: true,
            valid_data: true,
            dirty: false,
            version: 0,
        };
        assert!(line.writable(total));
    }

    #[test]
    fn memory_initializes_to_all_tokens_once() {
        let mut mem = MemTokens::default();
        assert!(!mem.initialized);
        mem.holding(16, 0);
        assert_eq!(mem.tokens, 16);
        assert!(mem.owner);
        mem.tokens = 3;
        mem.owner = false;
        mem.holding(16, 0);
        assert_eq!(mem.tokens, 3, "re-initialization must not mint tokens");
        assert!(!mem.owner);
    }

    #[test]
    fn memory_supplies_data_only_with_owner_token() {
        let mut mem = MemTokens::default();
        let shared = mem.holding(8, 5).take_for_read(8).unwrap();
        assert!(shared.data && shared.from_memory && !shared.owner);
        assert_eq!((shared.tokens, shared.version, mem.tokens), (1, 5, 7));
        mem.owner = false;
        assert_eq!(mem.holding(8, 5).take_for_read(8), None);
        let acks = mem.holding(8, 5).take_all().unwrap();
        assert!(!acks.data, "without the owner token memory's copy is stale");
        mem.owner = true;
        assert_eq!(mem.holding(8, 5).take_for_read(8), None);
    }

    #[derive(Debug, Clone, Copy)]
    enum Rule {
        All,
        Read,
    }

    fn line((tokens, owner, dirty): (u32, bool, bool)) -> TokenLine {
        TokenLine {
            tokens,
            owner,
            valid_data: owner,
            dirty,
            version: 7,
        }
    }

    /// Applies `rule` to a cache line or to memory in the given state and
    /// returns `(tokens, owner)` left behind plus what left, then absorbs
    /// what left back by the arrival rule and says whether that restored
    /// the holder exactly.
    fn apply(
        rule: Rule,
        in_memory: bool,
        state: (u32, bool, bool),
        total: u32,
    ) -> ((u32, bool), Option<TokenTransfer>, bool) {
        let take = |holder: Holding<'_>| match rule {
            Rule::All => holder.take_all(),
            Rule::Read => holder.take_for_read(total),
        };
        if in_memory {
            let before = MemTokens {
                initialized: true,
                tokens: state.0,
                owner: state.1,
            };
            let mut mem = before;
            let out = take(mem.holding(total, 7));
            let after = (mem.tokens, mem.owner);
            // Memory keeps the data that comes back with its owner token.
            let kept = out.and_then(|t| mem.holding(total, 7).absorb(t));
            assert_eq!(kept, out.filter(|t| t.data).map(|t| t.version));
            (after, out, mem == before)
        } else {
            let before = line(state);
            let mut line = before;
            let out = take(line.holding());
            let after = (line.tokens, line.owner);
            out.into_iter().for_each(|t| line.absorb(t));
            (after, out, line == before)
        }
    }

    #[test]
    fn transfer_rules_hold_on_every_holder_state() {
        let rules = [Rule::All, Rule::Read];
        let (mut checked, mut writes) = (0, 0);
        for total in 1..=4u32 {
            for tokens in 0..=total {
                for owner in [false, true] {
                    // The owner token is a token; only it can be dirty, and
                    // memory's copy never is.
                    if owner && tokens == 0 {
                        continue;
                    }
                    for (in_memory, dirty) in [(false, false), (false, true), (true, false)] {
                        if dirty && !owner {
                            continue;
                        }
                        let before = (tokens, owner, dirty);
                        if !in_memory {
                            // A load needs a token and data; a store needs all
                            // `T` tokens too, and only then changes the line.
                            let ctx = format!("T={total} {before:?}");
                            let mut copy = line(before);
                            assert_eq!(
                                copy.perform(total, false, || 99),
                                (tokens >= 1 && owner).then_some(7),
                                "{ctx}"
                            );
                            let stored = copy.perform(total, true, || 99);
                            assert_eq!(stored.is_some(), tokens == total && owner, "write: {ctx}");
                            let want = match stored {
                                Some(_) => TokenLine {
                                    version: 99,
                                    dirty: true,
                                    ..line(before)
                                },
                                None => line(before),
                            };
                            assert_eq!(copy, want, "{ctx}");
                            writes += 1;
                        }
                        for rule in rules {
                            let (after, out, restored) = apply(rule, in_memory, before, total);
                            let ctx =
                                format!("T={total} {before:?} in_memory={in_memory} {rule:?}");
                            assert!(restored, "absorbing what left restores the holder: {ctx}");
                            let sent = out.map_or((0, false), |t| (t.tokens, t.owner));
                            assert_eq!(after.0 + sent.0, tokens, "conservation: {ctx}");
                            assert_eq!(after.1 as u8 + sent.1 as u8, owner as u8, "owner: {ctx}");
                            assert!(!after.1 || after.0 >= 1, "owner is a token: {ctx}");
                            match (rule, out) {
                                (Rule::All, None) => assert_eq!(tokens, 0, "{ctx}"),
                                (Rule::All, Some(_)) => assert_eq!(after, (0, false), "{ctx}"),
                                (Rule::Read, None) => {
                                    assert!(!owner, "the owner always answers a read: {ctx}")
                                }
                                (Rule::Read, Some(t)) => {
                                    assert!(owner && t.data, "only the owner answers: {ctx}");
                                    let all = tokens == 1 || dirty && tokens == total;
                                    let want = if all { (tokens, true) } else { (1, false) };
                                    assert_eq!(sent, want, "{ctx}");
                                }
                            }
                            if let Some(t) = out {
                                assert!(t.tokens >= 1, "{ctx}");
                                assert!(!t.owner || t.data, "owner implies data: {ctx}");
                                assert_eq!(
                                    t.dirty,
                                    t.owner && dirty,
                                    "dirty rides the owner token: {ctx}"
                                );
                                assert_eq!(t.from_memory, in_memory, "{ctx}");
                                assert!(!(in_memory && t.dirty), "memory is never dirty: {ctx}");
                                assert_eq!(t.version, 7, "{ctx}");
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        // 5T + 2 holder states per T (2 per non-owner count, 3 per owner
        // count), two requests each; 3T + 1 of them cache lines.
        assert_eq!(checked, 2 * (7 + 12 + 17 + 22));
        assert_eq!(writes, 4 + 7 + 10 + 13);
    }

    #[test]
    fn a_transfer_passed_on_keeps_its_source_and_drops_borrowed_data() {
        let mut shared = TokenTransfer {
            tokens: 1,
            owner: false,
            data: true,
            dirty: false,
            version: 7,
            from_memory: true,
        };
        let passed = shared.holding().take_all().unwrap();
        assert!(!passed.data && passed.from_memory);
        assert_eq!((passed.tokens, shared.tokens), (1, 0));
        let mut owned = TokenTransfer {
            tokens: 3,
            owner: true,
            dirty: true,
            ..shared
        };
        let sent = owned;
        assert_eq!(owned.holding().take_all(), Some(sent));
    }
}
