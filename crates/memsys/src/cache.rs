//! Set-associative caches with LRU replacement.

use std::fmt;

use tc_sim::{snap_state, Snap, SnapReader, SnapState, SnapWriter, SnapshotError};
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
/// Storage is proportional to the lines a node has held, not to the
/// configured capacity. A set's first fill gives it a *run* of one way in
/// the line arrays; only when a second line must go in does the set move to
/// a run of all its ways, its line keeping its way index, and the one-way
/// run it leaves goes on a free list for the next first fill. Where each
/// set's run lies is kept in a two-level index whose second level is
/// appended the same way, so building a cache writes only the group table
/// (one `u32` per 16 sets) and one bit per set saying whether it holds a
/// line, both zeroed. A line's *slot* — what snapshots record — is `set *
/// ways + way`, whatever order the sets were filled or promoted in.
#[derive(Debug, Clone)]
pub struct SetAssocCache<S> {
    /// `num_sets - 1` when the set count is a power of two (the common case:
    /// every configured geometry divides powers-of-two sizes), letting
    /// [`SetAssocCache::set_index`] mask instead of paying an integer
    /// division on every lookup of the hot access path. Zero disables it.
    set_mask: u64,
    num_sets: usize,
    ways: usize,
    /// One entry per [`GROUP`] consecutive sets: 0 while no set of the group
    /// has been filled, else 1 + the number of the group's page in `pages`.
    /// With `occupied`, the only capacity-sized allocation (4 KiB for a
    /// Table 1 L2; the bits are 2 KiB), zeroed rather than written.
    groups: Vec<u32>,
    /// One bit per set, set while the set holds a line: most probes of a
    /// non-holder's L2 find an empty set, and stop at this one word instead
    /// of loading the group table and a run page. Never saved; a load
    /// rebuilds it as it fills the sets.
    occupied: Vec<u64>,
    /// Run pages, appended on their group's first fill. Entry `set %
    /// GROUP` is 0 while that set has never been filled, else its run
    /// packed by [`SetAssocCache::place`].
    pages: Vec<[u32; GROUP]>,
    /// One-way runs left behind when their set was promoted to all its ways, each
    /// empty and waiting for the next set's first fill (by index into the
    /// line arrays).
    spare: Vec<u32>,
    /// Block tags, one run of consecutive entries per filled set,
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

/// Sets per entry of a [`SetAssocCache`]'s group table, and entries per run
/// page. A probe of a set whose group was never filled reads the group table
/// only; a full cache's index is `1 + 1 / GROUP` times one `u32` per set.
const GROUP: usize = 16;

/// Where one filled set's ways are in the line arrays: way `w` at `base +
/// w`, for `w < width`. `width` is 1 until the set holds a second line,
/// then the cache's `ways`; a way past the run has never been filled.
#[derive(Debug, Clone, Copy)]
struct Run {
    base: usize,
    width: usize,
}

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
            num_sets,
            ways,
            groups: vec![0; num_sets.div_ceil(GROUP)],
            occupied: vec![0; num_sets.div_ceil(64)],
            pages: Vec::new(),
            spare: Vec::new(),
            tags: Vec::new(),
            states: Vec::new(),
            last_use: Vec::new(),
            len: 0,
            use_counter: 0,
        }
    }

    /// `set`'s run, or `None` while nothing has ever been filled into it
    /// (every way is free, no block is resident) — the answer a probe of an
    /// unfilled set stops at.
    #[inline]
    fn run_of(&self, set: usize) -> Option<Run> {
        match self.groups[set / GROUP] {
            0 => None,
            page => self.unpack(self.pages[page as usize - 1][set % GROUP]),
        }
    }

    /// The run a run-page entry packs (see [`SetAssocCache::place`]).
    #[inline]
    fn unpack(&self, entry: u32) -> Option<Run> {
        let packed = (entry as usize).checked_sub(1)?;
        Some(Run {
            base: packed >> 1,
            width: if packed & 1 == 1 { self.ways } else { 1 },
        })
    }

    /// Records `run` as `set`'s, appending the group's run page if this is
    /// the group's first fill. The entry is 1 + the run's base shifted left
    /// one, with the low bit set when the run spans every way; 0 is no run.
    fn place(&mut self, set: usize, run: Run) {
        let wide = usize::from(run.width == self.ways);
        let entry =
            u32::try_from(1 + (run.base << 1 | wide)).expect("a cache has fewer than 2^31 ways");
        let group = &mut self.groups[set / GROUP];
        if *group == 0 {
            self.pages.push([0; GROUP]);
            *group = self.pages.len() as u32;
        }
        self.pages[*group as usize - 1][set % GROUP] = entry;
    }

    /// Appends `n` empty ways to the line arrays and returns the first.
    fn append_ways(&mut self, n: usize) -> usize {
        let base = self.tags.len();
        self.tags.resize(base + n, EMPTY_TAG);
        self.states.resize_with(base + n, || None);
        self.last_use.resize(base + n, 0);
        base
    }

    /// Whether `set` holds a line now: what a probe checks before it looks
    /// for the set's run.
    #[inline]
    pub fn set_holds_lines(&self, set: usize) -> bool {
        self.occupied[set / 64] >> (set % 64) & 1 != 0
    }

    /// [`SetAssocCache::run_of`] for an operation about to fill `set`,
    /// which holds a line from here on: on its first fill, gives it a
    /// one-way run, from the free list if one waits there.
    fn run_for_fill(&mut self, set: usize) -> Run {
        self.occupied[set / 64] |= 1 << (set % 64);
        if let Some(run) = self.run_of(set) {
            return run;
        }
        let base = match self.spare.pop() {
            Some(base) => base as usize,
            None => self.append_ways(1),
        };
        let run = Run { base, width: 1 };
        self.place(set, run);
        run
    }

    /// Moves `set` from its one-way run at `from` to a run of every way,
    /// its way 0 keeping its index, and puts the emptied run on the free
    /// list. Returns the new run.
    fn promote(&mut self, set: usize, from: usize) -> Run {
        let base = self.append_ways(self.ways);
        self.tags.swap(from, base);
        self.states.swap(from, base);
        self.last_use.swap(from, base);
        // `place` checked that the run's base fits.
        self.spare.push(from as u32);
        let run = Run {
            base,
            width: self.ways,
        };
        self.place(set, run);
        run
    }

    /// Where a fill of `addr` lands: [`SetAssocCache::probe_for_fill`] over
    /// its set's run, promoting the run first when the set's one way is taken
    /// — a fill that then lands in way 1, the first free way of the flat
    /// set the cache stands for.
    fn slot_for_fill(&mut self, addr: BlockAddr) -> FillSlot {
        let set = self.set_index(addr);
        let run = self.run_for_fill(set);
        match self.probe_for_fill(run, addr.value()) {
            FillSlot::Evict(_) if run.width < self.ways => {
                FillSlot::Free(self.promote(set, run.base).base + 1)
            }
            slot => slot,
        }
    }

    /// Where a fill of `tag` would land in `run`: the resident way if the
    /// block is already cached, otherwise the first free way, otherwise the
    /// LRU way (which [`SetAssocCache::slot_for_fill`] overrules in a
    /// one-way run). One probe discipline shared by every filling operation
    /// ([`SetAssocCache::insert`], [`SetAssocCache::touch`],
    /// [`SetAssocCache::victim_for`]) so eviction order can never silently
    /// diverge between them — `events_delivered` determinism rides on it.
    #[inline]
    fn probe_for_fill(&self, run: Run, tag: u64) -> FillSlot {
        let mut free: Option<usize> = None;
        let mut lru: Option<usize> = None;
        for i in run.base..run.base + run.width {
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

    /// Where `addr`'s line is in the line arrays, if resident.
    #[inline]
    fn find(&self, addr: BlockAddr) -> Option<usize> {
        let set = self.set_index(addr);
        if !self.set_holds_lines(set) {
            return None;
        }
        let run = self.run_of(set)?;
        let tag = addr.value();
        self.tags[run.base..run.base + run.width]
            .iter()
            .position(|&t| t == tag)
            .map(|way| run.base + way)
    }

    #[inline]
    fn set_index(&self, addr: BlockAddr) -> usize {
        if self.set_mask != 0 {
            (addr.value() & self.set_mask) as usize
        } else {
            (addr.value() % self.num_sets as u64) as usize
        }
    }

    /// `(slot, index into the line arrays)` of every resident line, in slot
    /// order — the order [`SetAssocCache::iter`] and
    /// [`SetAssocCache::save_state`] promise. Reads the run pages of filled
    /// groups only.
    fn resident(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let ways = self.ways;
        (self.groups.iter().enumerate())
            .filter(|&(_, &page)| page != 0)
            .flat_map(move |(group, &page)| {
                (self.pages[page as usize - 1].iter().enumerate()).filter_map(move |(i, &entry)| {
                    Some(((group * GROUP + i) * ways, self.unpack(entry)?))
                })
            })
            .flat_map(move |(first_slot, run)| {
                (0..run.width).map(move |w| (first_slot + w, run.base + w))
            })
            .filter(|&(_, i)| self.tags[i] != EMPTY_TAG)
    }

    /// Total number of lines the cache can hold.
    pub fn capacity(&self) -> usize {
        self.num_sets * self.ways
    }

    /// Ways in the line arrays: every filled set's run, plus the one-way
    /// runs on the free list. What the lines cost is this many tags, states
    /// and LRU stamps.
    pub fn line_slots(&self) -> usize {
        self.tags.len()
    }

    /// Bytes of the set index: the group table plus the run pages filled
    /// so far (spare `Vec` capacity, never written, is not counted). With
    /// one occupancy bit per set, what the cache costs beside its lines; no
    /// line-state figure includes it.
    pub fn index_bytes(&self) -> usize {
        std::mem::size_of_val(self.groups.as_slice()) + std::mem::size_of_val(self.pages.as_slice())
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
            .map(|i| self.states[i].as_ref().expect("occupied tag has state"))
    }

    /// Looks up a block, updating LRU order, and returns a mutable reference
    /// to its state. Every call advances the LRU clock, hit or miss.
    pub fn get(&mut self, addr: BlockAddr) -> Option<&mut S> {
        self.use_counter += 1;
        let i = self.find(addr)?;
        self.last_use[i] = self.use_counter;
        Some(self.states[i].as_mut().expect("occupied tag has state"))
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
        let (i, victim) = match self.slot_for_fill(addr) {
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
        self.use_counter += 1;
        let counter = self.use_counter;
        let i = match self.slot_for_fill(addr) {
            FillSlot::Resident(i) => {
                self.last_use[i] = counter;
                return true;
            }
            FillSlot::Free(i) => {
                self.len += 1;
                i
            }
            FillSlot::Evict(i) => i,
        };
        self.tags[i] = addr.value();
        self.states[i] = Some(S::default());
        self.last_use[i] = counter;
        false
    }

    /// Removes a block, returning its state if it was resident.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<S> {
        let i = self.find(addr)?;
        self.tags[i] = EMPTY_TAG;
        self.len -= 1;
        let set = self.set_index(addr);
        let run = self.run_of(set).expect("a resident line's set has a run");
        if self.tags[run.base..run.base + run.width]
            .iter()
            .all(|&t| t == EMPTY_TAG)
        {
            self.occupied[set / 64] &= !(1 << (set % 64));
        }
        self.states[i].take()
    }

    /// Chooses the line that would be evicted if `addr` were inserted now,
    /// without inserting. Returns `None` if there is a free way (always, in
    /// a set that has never held two lines at once).
    pub fn victim_for(&self, addr: BlockAddr) -> Option<(BlockAddr, &S)> {
        let run = self.run_of(self.set_index(addr))?;
        match self.probe_for_fill(run, addr.value()) {
            FillSlot::Evict(i) if run.width == self.ways => Some((
                BlockAddr::new(self.tags[i]),
                self.states[i].as_ref().expect("occupied tag has state"),
            )),
            _ => None,
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
/// slots already filled. A line past way 0 promotes its set's run, as a
/// second line would.
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
        self.groups.fill(0);
        self.occupied.fill(0);
        self.pages.clear();
        self.spare.clear();
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
            let (set, way) = (slot / self.ways, slot % self.ways);
            let mut run = self.run_for_fill(set);
            if way >= run.width {
                run = self.promote(set, run.base);
            }
            let i = run.base + way;
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
            self.num_sets,
            self.ways,
            self.len(),
            self.capacity()
        )
    }
}

/// A presence filter standing in for the split L1 instruction/data caches.
///
/// Coherence permissions live in the (inclusive) L2; the L1 filter decides
/// whether an access that the L2 can satisfy pays L1 latency or L1 + L2
/// latency, and it is kept inclusive by removing blocks whenever the L2
/// loses them. Its lines carry no state.
#[derive(Debug, Clone)]
pub struct L1Filter {
    cache: SetAssocCache<()>,
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
        self.cache.touch(addr)
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

// The resident set; the latency is config-derived.
snap_state!(L1Filter { cache });

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
}
