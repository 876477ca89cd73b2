//! Set-associative caches with LRU replacement.

use std::fmt;

use tc_sim::{snap_state, snap_struct, Snap, SnapReader, SnapState, SnapWriter, SnapshotError};
use tc_types::{BlockAddr, CacheConfig};

/// One cache line: the block it holds and the protocol-defined state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLine<S> {
    /// Block held by this line.
    pub addr: BlockAddr,
    /// Protocol-defined coherence state (tokens, MOESI state, ...).
    pub state: S,
    last_use: u64,
}

/// A set-associative, LRU-replacement cache tag array.
///
/// The per-line state type `S` is chosen by the protocol: the Token Coherence
/// L2 stores token counts and a valid-data bit, the MOESI protocols store a
/// stable/transient state enum. The cache itself knows nothing about
/// coherence; it only finds, inserts, and evicts lines.
///
/// Storage is proportional to the sets that have ever been filled, not to
/// the configured capacity: a set is appended to the line arrays by the
/// first fill that lands in it, so building a cache writes only the per-set
/// index. A line's *slot* — what hints remember and snapshots record — is
/// `set * ways + way`, whatever order the sets were filled in.
#[derive(Debug, Clone)]
pub struct SetAssocCache<S> {
    /// `num_sets - 1` when the set count is a power of two (the common case:
    /// every configured geometry divides powers-of-two sizes), letting
    /// [`SetAssocCache::set_index`] mask instead of paying an integer
    /// division on every lookup of the hot access path. Zero disables it.
    set_mask: u64,
    ways: usize,
    /// One entry per set: 0 while the set has never been filled, else 1 + its
    /// rank in the line arrays below (its ways start at `rank * ways`). The
    /// only capacity-sized allocation, and zeroed rather than written.
    set_rank: Vec<u32>,
    /// Block tags, `ways` consecutive entries per filled set,
    /// struct-of-arrays against `states`/`last_use`: a set probe scans one
    /// contiguous run of bare `u64`s (a whole 4-way set fits in a single
    /// host cache line) and touches the bulkier state arrays only on a hit.
    /// [`EMPTY_TAG`] marks an invalid way. This matters because a populated
    /// L2's tag array is far larger than the host's caches: the probe is a
    /// dependent-load chain and every avoided line is an avoided stall.
    tags: Vec<u64>,
    /// Per-way protocol state; `None` on empty ways (parallel to `tags`).
    states: Vec<Option<S>>,
    /// Per-way LRU stamp (parallel to `tags`; garbage on empty ways).
    last_use: Vec<u64>,
    len: usize,
    use_counter: u64,
}

/// Tag marking an empty way. A real block with this address would need the
/// simulated physical address space to reach `2^64` bytes times the block
/// size; [`SetAssocCache::insert`] debug-asserts against it.
const EMPTY_TAG: u64 = u64::MAX;

/// Outcome of [`SetAssocCache::probe_for_fill`]; each carries an index into
/// the line arrays.
#[derive(Debug, Clone, Copy)]
enum FillSlot {
    /// The block is already resident here.
    Resident(usize),
    /// The block is absent; this free way takes it without eviction.
    Free(usize),
    /// The set is full; this LRU way is the victim.
    Evict(usize),
}

impl<S> SetAssocCache<S> {
    /// Builds a cache from a [`CacheConfig`] and the system block size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly (see
    /// [`CacheConfig::num_sets`]).
    pub fn new(config: &CacheConfig, block_bytes: u64) -> Self {
        let num_sets = config.num_sets(block_bytes);
        SetAssocCache::with_geometry(num_sets, config.associativity)
    }

    /// Builds a cache directly from a set count and associativity (useful for
    /// tests and for the L1 presence filter).
    pub fn with_geometry(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "degenerate cache geometry");
        SetAssocCache {
            set_mask: if num_sets.is_power_of_two() {
                num_sets as u64 - 1
            } else {
                0
            },
            ways,
            set_rank: vec![0; num_sets],
            tags: Vec::new(),
            states: Vec::new(),
            last_use: Vec::new(),
            len: 0,
            use_counter: 0,
        }
    }

    /// Index of `set`'s first way in the line arrays, or `None` while
    /// nothing has ever been filled into it (every way is free, no block is
    /// resident) — the answer a probe of an unfilled set stops at.
    #[inline]
    fn base_of(&self, set: usize) -> Option<usize> {
        match self.set_rank[set] {
            0 => None,
            rank => Some((rank as usize - 1) * self.ways),
        }
    }

    /// [`SetAssocCache::base_of`] for an operation about to fill `set`:
    /// appends the set, every way empty, if this is its first fill.
    fn base_for_fill(&mut self, set: usize) -> usize {
        if let Some(base) = self.base_of(set) {
            return base;
        }
        let base = self.tags.len();
        self.set_rank[set] =
            u32::try_from(base / self.ways + 1).expect("a cache has fewer than 2^32 sets");
        self.tags.resize(base + self.ways, EMPTY_TAG);
        self.states.resize_with(base + self.ways, || None);
        self.last_use.resize(base + self.ways, 0);
        base
    }

    /// Where a fill of `tag` would land in the filled set starting at
    /// `base`: the resident way if the block is already cached, otherwise
    /// the first free way, otherwise the LRU way. One probe discipline shared
    /// by every filling operation ([`SetAssocCache::insert`],
    /// [`SetAssocCache::touch`], [`SetAssocCache::victim_for`]) so eviction
    /// order can never silently diverge between them — `events_delivered`
    /// determinism rides on it.
    #[inline]
    fn probe_for_fill(&self, base: usize, tag: u64) -> FillSlot {
        let mut free: Option<usize> = None;
        let mut lru: Option<usize> = None;
        for i in base..base + self.ways {
            let t = self.tags[i];
            if t == tag {
                return FillSlot::Resident(i);
            }
            if t == EMPTY_TAG {
                if free.is_none() {
                    free = Some(i);
                }
            } else if lru
                .map(|l| self.last_use[i] < self.last_use[l])
                .unwrap_or(true)
            {
                lru = Some(i);
            }
        }
        match free {
            Some(i) => FillSlot::Free(i),
            None => FillSlot::Evict(lru.expect("full set has an LRU line")),
        }
    }

    /// `(slot, index into the line arrays)` of `addr`'s line, if resident.
    #[inline]
    fn find(&self, addr: BlockAddr) -> Option<(usize, usize)> {
        let set = self.set_index(addr);
        let base = self.base_of(set)?;
        let tag = addr.value();
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|way| (set * self.ways + way, base + way))
    }

    #[inline]
    fn set_index(&self, addr: BlockAddr) -> usize {
        if self.set_mask != 0 {
            (addr.value() & self.set_mask) as usize
        } else {
            (addr.value() % self.set_rank.len() as u64) as usize
        }
    }

    /// `(slot, index into the line arrays)` of every resident line, in slot
    /// order — the order [`SetAssocCache::iter`] and
    /// [`SetAssocCache::save_state`] promise.
    fn resident(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.set_rank.len())
            .filter_map(|set| Some((set * self.ways, self.base_of(set)?)))
            .flat_map(|(first_slot, base)| (0..self.ways).map(move |w| (first_slot + w, base + w)))
            .filter(|&(_, i)| self.tags[i] != EMPTY_TAG)
    }

    /// Total number of lines the cache can hold.
    pub fn capacity(&self) -> usize {
        self.set_rank.len() * self.ways
    }

    /// Number of lines currently resident.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a block without affecting LRU state.
    pub fn peek(&self, addr: BlockAddr) -> Option<&S> {
        self.find(addr)
            .map(|(_, i)| self.states[i].as_ref().expect("occupied tag has state"))
    }

    /// Looks up a block mutably without affecting LRU state (used to
    /// refresh slot hints, never on the simulated access path).
    pub fn peek_mut(&mut self, addr: BlockAddr) -> Option<&mut S> {
        let (_, i) = self.find(addr)?;
        Some(self.states[i].as_mut().expect("occupied tag has state"))
    }

    /// Validates a remembered slot hint: returns where the line is (for
    /// [`SetAssocCache::get_at`]) if slot `hint` still holds `addr`'s line.
    /// A tag can only ever live in its own set, so the hint is valid exactly
    /// when it names a way of that set and the way's tag matches.
    #[inline]
    pub fn hinted_slot(&self, hint: u32, addr: BlockAddr) -> Option<usize> {
        let set = self.set_index(addr);
        let way = (hint as usize).wrapping_sub(set * self.ways);
        if way >= self.ways {
            return None;
        }
        let i = self.base_of(set)? + way;
        (self.tags[i] == addr.value()).then_some(i)
    }

    /// Accesses a resident line directly where [`SetAssocCache::hinted_slot`]
    /// found it, updating LRU order exactly as a tag-probe hit in
    /// [`SetAssocCache::get`] would — the hinted fast path
    /// is behaviourally indistinguishable from the full probe, it only skips
    /// the set scan.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the way is occupied; callers validate with
    /// [`SetAssocCache::hinted_slot`] first.
    #[inline]
    pub fn get_at(&mut self, at: usize) -> &mut S {
        debug_assert!(self.tags[at] != EMPTY_TAG, "hinted slot is empty");
        self.use_counter += 1;
        self.last_use[at] = self.use_counter;
        self.states[at].as_mut().expect("occupied tag has state")
    }

    /// [`SetAssocCache::get`] that also reports which slot the line occupies,
    /// so the caller can remember it as a hint for the next access.
    pub fn get_with_slot(&mut self, addr: BlockAddr) -> Option<(usize, &mut S)> {
        self.use_counter += 1;
        let counter = self.use_counter;
        let (slot, i) = self.find(addr)?;
        self.last_use[i] = counter;
        let state = self.states[i].as_mut().expect("occupied tag has state");
        Some((slot, state))
    }

    /// Looks up a block, updating LRU order, and returns a mutable reference
    /// to its state.
    pub fn get(&mut self, addr: BlockAddr) -> Option<&mut S> {
        self.get_with_slot(addr).map(|(_, state)| state)
    }

    /// Returns `true` if the block is resident (without touching LRU state).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.peek(addr).is_some()
    }

    /// Inserts (or replaces) a block, returning the victim line if one had to
    /// be evicted to make room.
    pub fn insert(&mut self, addr: BlockAddr, state: S) -> Option<CacheLine<S>> {
        debug_assert!(
            addr.value() != EMPTY_TAG,
            "address collides with the empty-way tag"
        );
        self.use_counter += 1;
        let counter = self.use_counter;
        let base = self.base_for_fill(self.set_index(addr));
        let (i, victim) = match self.probe_for_fill(base, addr.value()) {
            FillSlot::Resident(i) => {
                self.states[i] = Some(state);
                self.last_use[i] = counter;
                return None;
            }
            FillSlot::Free(i) => {
                self.len += 1;
                (i, None)
            }
            FillSlot::Evict(i) => (
                i,
                Some(CacheLine {
                    addr: BlockAddr::new(self.tags[i]),
                    state: self.states[i].take().expect("occupied tag has state"),
                    last_use: self.last_use[i],
                }),
            ),
        };
        self.tags[i] = addr.value();
        self.states[i] = Some(state);
        self.last_use[i] = counter;
        victim
    }

    /// Records an access to `addr` in a presence-only cache (`S: Default`):
    /// returns `true` if the block was already resident (updating LRU order,
    /// like [`SetAssocCache::get`]) and fills it in the same set pass
    /// otherwise (evicting the LRU line, like
    /// [`SetAssocCache::insert`]).
    pub fn touch(&mut self, addr: BlockAddr) -> bool
    where
        S: Default,
    {
        self.touch_entry(addr).0
    }

    /// [`SetAssocCache::touch`] that also returns the (possibly
    /// just-defaulted) per-line state, so presence caches can piggyback a
    /// payload — the L1 filter's L2 slot hint — on the same single set pass.
    pub fn touch_entry(&mut self, addr: BlockAddr) -> (bool, &mut S)
    where
        S: Default,
    {
        self.use_counter += 1;
        let counter = self.use_counter;
        let base = self.base_for_fill(self.set_index(addr));
        let (hit, i) = match self.probe_for_fill(base, addr.value()) {
            FillSlot::Resident(i) => {
                self.last_use[i] = counter;
                (true, i)
            }
            FillSlot::Free(i) => {
                self.len += 1;
                (false, i)
            }
            FillSlot::Evict(i) => (false, i),
        };
        if !hit {
            self.tags[i] = addr.value();
            self.states[i] = Some(S::default());
            self.last_use[i] = counter;
        }
        (
            hit,
            self.states[i].as_mut().expect("occupied tag has state"),
        )
    }

    /// Removes a block, returning its state if it was resident.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<S> {
        let (_, i) = self.find(addr)?;
        self.tags[i] = EMPTY_TAG;
        self.len -= 1;
        self.states[i].take()
    }

    /// Chooses the line that would be evicted if `addr` were inserted now,
    /// without inserting. Returns `None` if there is a free way.
    pub fn victim_for(&self, addr: BlockAddr) -> Option<(BlockAddr, &S)> {
        let base = self.base_of(self.set_index(addr))?;
        match self.probe_for_fill(base, addr.value()) {
            FillSlot::Resident(_) | FillSlot::Free(_) => None,
            FillSlot::Evict(i) => Some((
                BlockAddr::new(self.tags[i]),
                self.states[i].as_ref().expect("occupied tag has state"),
            )),
        }
    }

    /// Iterates over every resident line, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &S)> {
        self.resident().map(|(_, i)| {
            (
                BlockAddr::new(self.tags[i]),
                self.states[i].as_ref().expect("occupied tag has state"),
            )
        })
    }

    /// Every resident block address.
    pub fn blocks(&self) -> Vec<BlockAddr> {
        self.iter().map(|(a, _)| a).collect()
    }
}

/// The LRU clock and resident lines (slot, tag, LRU stamp, state);
/// geometry is config-derived. The load checks the population against the
/// capacity and each slot against its bounds, the empty-way tag and the
/// slots already filled.
impl<S: Snap> SnapState for SetAssocCache<S> {
    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.len);
        w.u64(self.use_counter);
        for (slot, i) in self.resident() {
            w.usize(slot);
            w.u64(self.tags[i]);
            w.u64(self.last_use[i]);
            self.states[i]
                .as_ref()
                .expect("occupied tag has state")
                .save(w);
        }
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.set_rank.fill(0);
        self.tags.clear();
        self.states.clear();
        self.last_use.clear();
        let len = r.usize()?;
        if len > self.capacity() {
            return Err(SnapshotError::Corrupt("cache population".into()));
        }
        self.use_counter = r.u64()?;
        for _ in 0..len {
            let slot = r.usize()?;
            let tag = r.u64()?;
            if slot >= self.capacity() || tag == EMPTY_TAG {
                return Err(SnapshotError::Corrupt("cache slot".into()));
            }
            let i = self.base_for_fill(slot / self.ways) + slot % self.ways;
            if self.tags[i] != EMPTY_TAG {
                return Err(SnapshotError::Corrupt("cache slot".into()));
            }
            self.tags[i] = tag;
            self.last_use[i] = r.u64()?;
            self.states[i] = Some(S::load(r)?);
        }
        self.len = len;
        Ok(())
    }
}

impl<S> fmt::Display for SetAssocCache<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}-way cache, {}/{} lines resident",
            self.set_rank.len(),
            self.ways,
            self.len(),
            self.capacity()
        )
    }
}

/// An L1 filter entry: the remembered L2 slot of the block, or
/// [`SlotHint::NONE`] when unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotHint(u32);

impl SlotHint {
    /// "No hint yet" sentinel — never a valid slot (the L2 would need 2^32
    /// lines).
    const NONE: u32 = u32::MAX;
}

// On the wire a hint is its raw `u32`.
snap_struct!(SlotHint(slot));

impl Default for SlotHint {
    fn default() -> Self {
        SlotHint(SlotHint::NONE)
    }
}

/// A presence filter standing in for the split L1 instruction/data caches,
/// doubling as the front-side fast path of every controller.
///
/// Coherence permissions live in the (inclusive) L2; the L1 filter decides
/// whether an access that the L2 can satisfy pays L1 latency or L1 + L2
/// latency, and it is kept inclusive by removing blocks whenever the L2
/// loses them. Each entry additionally remembers the block's L2 *slot* so
/// the shared [`hinted_get`] front path can skip the L2 set scan on hits —
/// the hint is advisory (validated by a single tag compare, repaired by a
/// full probe on mismatch) and never affects simulated behaviour.
#[derive(Debug, Clone)]
pub struct L1Filter {
    cache: SetAssocCache<SlotHint>,
    latency_ns: u64,
}

impl L1Filter {
    /// Builds the filter from the L1 configuration.
    pub fn new(config: &CacheConfig, block_bytes: u64) -> Self {
        L1Filter {
            cache: SetAssocCache::new(config, block_bytes),
            latency_ns: config.latency_ns,
        }
    }

    /// L1 access latency in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.latency_ns
    }

    /// Records an access to `addr`: returns `true` if it was already present
    /// (an L1 hit) and ensures it is present afterwards. One set lookup for
    /// both the probe and the fill (this runs on every processor access).
    pub fn touch(&mut self, addr: BlockAddr) -> bool {
        self.touch_hint(addr).0
    }

    /// [`L1Filter::touch`] that also returns the remembered L2 slot hint
    /// ([`u32::MAX`] when none has been learned yet) in the same set pass.
    pub fn touch_hint(&mut self, addr: BlockAddr) -> (bool, u32) {
        let (hit, hint) = self.cache.touch_entry(addr);
        (hit, hint.0)
    }

    /// Remembers `slot` as `addr`'s L2 home for the next access. A pure
    /// host-side memo: no LRU change.
    pub fn remember(&mut self, addr: BlockAddr, slot: u32) {
        if let Some(hint) = self.cache.peek_mut(addr) {
            hint.0 = slot;
        }
    }

    /// Removes a block (called when the L2 loses the block, to preserve
    /// inclusion).
    pub fn invalidate(&mut self, addr: BlockAddr) {
        self.cache.remove(addr);
    }

    /// Returns `true` if the block is present.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.cache.contains(addr)
    }
}

// The resident set and slot hints; the latency is config-derived.
snap_state!(L1Filter { cache });

/// The shared front-side fast path of all four coherence controllers: one
/// L1-filter touch plus a hint-validated L2 access.
///
/// Returns the L1 hit flag (latency classification) and the L2 line, if
/// resident. When the L1 holds a valid slot hint the L2 set scan is skipped
/// entirely — a single tag compare replaces the dependent-load probe chain —
/// and a stale or missing hint falls back to the full probe and re-learns
/// the slot. LRU order is updated identically on both paths (see
/// [`SetAssocCache::get_at`]), so the fast path is invisible to the
/// simulation: `events_delivered` is pinned across it.
pub fn hinted_get<'a, S>(
    l1: &mut L1Filter,
    l2: &'a mut SetAssocCache<S>,
    addr: BlockAddr,
) -> (bool, Option<&'a mut S>) {
    let (l1_hit, hint) = l1.touch_hint(addr);
    if let Some(slot) = l2.hinted_slot(hint, addr) {
        return (l1_hit, Some(l2.get_at(slot)));
    }
    match l2.get_with_slot(addr) {
        Some((slot, line)) => {
            l1.remember(addr, slot as u32);
            (l1_hit, Some(line))
        }
        None => (l1_hit, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<u32> {
        SetAssocCache::with_geometry(2, 2)
    }

    #[test]
    fn insert_then_get_round_trips() {
        let mut c = small();
        assert!(c.insert(BlockAddr::new(0), 10).is_none());
        assert_eq!(c.get(BlockAddr::new(0)).copied(), Some(10));
        assert_eq!(c.peek(BlockAddr::new(0)).copied(), Some(10));
        assert!(c.contains(BlockAddr::new(0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = small();
        c.insert(BlockAddr::new(0), 1);
        assert!(c.insert(BlockAddr::new(0), 2).is_none());
        assert_eq!(c.peek(BlockAddr::new(0)).copied(), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = small();
        // Blocks 0, 2, 4 all map to set 0 (2 sets).
        c.insert(BlockAddr::new(0), 0);
        c.insert(BlockAddr::new(2), 2);
        // Touch block 0 so block 2 becomes LRU.
        c.get(BlockAddr::new(0));
        let victim = c.insert(BlockAddr::new(4), 4).expect("eviction expected");
        assert_eq!(victim.addr, BlockAddr::new(2));
        assert!(c.contains(BlockAddr::new(0)));
        assert!(c.contains(BlockAddr::new(4)));
    }

    #[test]
    fn victim_for_predicts_the_eviction() {
        let mut c = small();
        c.insert(BlockAddr::new(0), 0);
        assert!(c.victim_for(BlockAddr::new(2)).is_none(), "free way exists");
        c.insert(BlockAddr::new(2), 2);
        c.get(BlockAddr::new(2));
        let predicted = c.victim_for(BlockAddr::new(4)).unwrap().0;
        let actual = c.insert(BlockAddr::new(4), 4).unwrap().addr;
        assert_eq!(predicted, actual);
        assert_eq!(predicted, BlockAddr::new(0));
    }

    #[test]
    fn victim_for_resident_block_is_none() {
        let mut c = small();
        c.insert(BlockAddr::new(0), 0);
        c.insert(BlockAddr::new(2), 2);
        assert!(c.victim_for(BlockAddr::new(0)).is_none());
    }

    #[test]
    fn remove_takes_the_line_out() {
        let mut c = small();
        c.insert(BlockAddr::new(3), 7);
        assert_eq!(c.remove(BlockAddr::new(3)), Some(7));
        assert_eq!(c.remove(BlockAddr::new(3)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        c.insert(BlockAddr::new(0), 0);
        c.insert(BlockAddr::new(1), 1);
        c.insert(BlockAddr::new(2), 2);
        c.insert(BlockAddr::new(3), 3);
        assert_eq!(c.len(), 4);
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn geometry_from_config_matches_table1_l2() {
        let config = CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            associativity: 4,
            latency_ns: 6,
        };
        let c: SetAssocCache<u8> = SetAssocCache::new(&config, 64);
        assert_eq!(c.capacity(), 65536);
    }

    #[test]
    fn iter_and_blocks_report_residents() {
        let mut c = small();
        c.insert(BlockAddr::new(0), 1);
        c.insert(BlockAddr::new(1), 2);
        let mut blocks = c.blocks();
        blocks.sort();
        assert_eq!(blocks, vec![BlockAddr::new(0), BlockAddr::new(1)]);
        let sum: u32 = c.iter().map(|(_, s)| *s).sum();
        assert_eq!(sum, 3);
    }

    #[test]
    fn l1_filter_reports_hits_after_first_touch() {
        let config = CacheConfig {
            size_bytes: 1024,
            associativity: 2,
            latency_ns: 2,
        };
        let mut l1 = L1Filter::new(&config, 64);
        assert_eq!(l1.latency_ns(), 2);
        assert!(!l1.touch(BlockAddr::new(5)));
        assert!(l1.touch(BlockAddr::new(5)));
        l1.invalidate(BlockAddr::new(5));
        assert!(!l1.contains(BlockAddr::new(5)));
        assert!(!l1.touch(BlockAddr::new(5)));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_way_geometry_panics() {
        let _: SetAssocCache<u8> = SetAssocCache::with_geometry(4, 0);
    }

    #[test]
    fn hinted_get_matches_full_probe_behaviour() {
        let l1_config = CacheConfig {
            size_bytes: 1024,
            associativity: 2,
            latency_ns: 2,
        };
        let mut l1 = L1Filter::new(&l1_config, 64);
        let mut l2: SetAssocCache<u32> = SetAssocCache::with_geometry(4, 2);
        // Cold: L1 miss, L2 miss.
        let (l1_hit, line) = hinted_get(&mut l1, &mut l2, BlockAddr::new(8));
        assert!(!l1_hit);
        assert!(line.is_none());
        l2.insert(BlockAddr::new(8), 80);
        // Second access: L1 hit (touched above), full probe learns the slot.
        let (l1_hit, line) = hinted_get(&mut l1, &mut l2, BlockAddr::new(8));
        assert!(l1_hit);
        assert_eq!(line.copied(), Some(80));
        // Third access rides the hint; the LRU clock advances and stamps
        // the line exactly like a tag-probe hit would.
        let clock_before = l2.use_counter;
        let (l1_hit, line) = hinted_get(&mut l1, &mut l2, BlockAddr::new(8));
        assert!(l1_hit);
        assert_eq!(line.copied(), Some(80));
        assert_eq!(l2.use_counter, clock_before + 1);
        assert!(l2.last_use.contains(&l2.use_counter));
    }

    #[test]
    fn stale_hints_fall_back_to_the_full_probe() {
        let l1_config = CacheConfig {
            size_bytes: 1024,
            associativity: 2,
            latency_ns: 2,
        };
        let mut l1 = L1Filter::new(&l1_config, 64);
        let mut l2: SetAssocCache<u32> = SetAssocCache::with_geometry(2, 1);
        l2.insert(BlockAddr::new(0), 1);
        hinted_get(&mut l1, &mut l2, BlockAddr::new(0)); // learn slot
        hinted_get(&mut l1, &mut l2, BlockAddr::new(0)); // ride hint
                                                         // Evict block 0 by filling its (single-way) set with block 2; the L2
                                                         // slot now holds a different tag, so the hint must fail validation.
        l2.insert(BlockAddr::new(2), 2);
        let (_, line) = hinted_get(&mut l1, &mut l2, BlockAddr::new(0));
        assert!(line.is_none(), "stale hint must not resurrect the line");
        // Re-insert into the same slot: the repaired hint works again.
        l2.remove(BlockAddr::new(2));
        l2.insert(BlockAddr::new(0), 10);
        let (_, line) = hinted_get(&mut l1, &mut l2, BlockAddr::new(0));
        assert_eq!(line.copied(), Some(10));
    }

    /// `save_state` bytes for a `SetAssocCache<u32>` claiming `len` lines and
    /// carrying `lines` as (slot, tag).
    fn snapshot_of(len: usize, lines: &[(usize, u64)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(len);
        w.u64(9);
        for &(slot, tag) in lines {
            w.usize(slot);
            w.u64(tag);
            w.u64(7);
            w.u32(70);
        }
        w.into_bytes()
    }

    #[test]
    fn load_state_refuses_corrupt_populations_and_slots() {
        // 3 sets x 2 ways: capacity 6, slots 0..6, tag t lives in set t % 3.
        let cases: [(&str, Vec<u8>, &str); 4] = [
            (
                "more lines than ways",
                snapshot_of(7, &[]),
                "cache population",
            ),
            (
                "slot past the last way",
                snapshot_of(1, &[(6, 0)]),
                "cache slot",
            ),
            (
                "slot given twice",
                snapshot_of(3, &[(2, 1), (4, 2), (2, 4)]),
                "cache slot",
            ),
            (
                "the empty-way tag",
                snapshot_of(2, &[(0, 0), (1, EMPTY_TAG)]),
                "cache slot",
            ),
        ];
        for (what, bytes, expected) in cases {
            let mut c: SetAssocCache<u32> = SetAssocCache::with_geometry(3, 2);
            c.insert(BlockAddr::new(5), 50);
            match c.load_state(&mut SnapReader::new(&bytes)) {
                Err(SnapshotError::Corrupt(message)) => assert_eq!(message, expected, "{what}"),
                other => panic!("{what}: expected a Corrupt error, got {other:?}"),
            }
            assert!(
                c.tags.len() <= c.capacity(),
                "{what}: a refused file filled more than the cache holds"
            );
        }
        // The same writer, given a consistent file, is accepted.
        let mut c: SetAssocCache<u32> = SetAssocCache::with_geometry(3, 2);
        let good = snapshot_of(2, &[(2, 1), (5, 2)]);
        c.load_state(&mut SnapReader::new(&good))
            .expect("consistent");
        assert_eq!(c.blocks(), vec![BlockAddr::new(1), BlockAddr::new(2)]);
        assert_eq!(c.use_counter, 9);
    }

    #[test]
    fn hinted_lru_order_matches_unhinted_lru_order() {
        // Two caches, same insert/access sequence — one driven through the
        // hinted front, one through plain get(). Eviction victims must agree.
        let l1_config = CacheConfig {
            size_bytes: 1024,
            associativity: 2,
            latency_ns: 2,
        };
        let mut l1 = L1Filter::new(&l1_config, 64);
        let mut hinted: SetAssocCache<u32> = SetAssocCache::with_geometry(2, 2);
        let mut plain: SetAssocCache<u32> = SetAssocCache::with_geometry(2, 2);
        for block in [0u64, 2] {
            hinted.insert(BlockAddr::new(block), block as u32);
            plain.insert(BlockAddr::new(block), block as u32);
        }
        // Touch block 0 twice through each front so block 2 is LRU.
        for _ in 0..2 {
            hinted_get(&mut l1, &mut hinted, BlockAddr::new(0));
            plain.get(BlockAddr::new(0));
        }
        let hv = hinted.insert(BlockAddr::new(4), 4).expect("eviction").addr;
        let pv = plain.insert(BlockAddr::new(4), 4).expect("eviction").addr;
        assert_eq!(hv, pv);
        assert_eq!(hv, BlockAddr::new(2));
    }
}
