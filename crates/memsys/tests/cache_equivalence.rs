//! Property test: `SetAssocCache`, whose line arrays hold only the sets that
//! have been filled, must be observationally identical to a cache that
//! allocates and initialises every way when it is built.
//!
//! The reference below is that eager flat cache, kept as the test's oracle:
//! `num_sets * ways` tags, states and LRU stamps written at construction, a
//! slot *is* the array index. Both are driven, behind the L1 filter each
//! needs for `hinted_get`, by one seeded operation stream over geometries
//! that include non-power-of-two set and way counts, a single set and a
//! single way. Every return value (evicted lines and reported slots
//! included), and after every few operations the population, the
//! iteration order and the `save_state` bytes, must match exactly. A
//! second test holds a cache restored from its own snapshot to the same
//! standard against the original: restoring fills sets in slot order, a run
//! fills them in touch order, and nothing outside the cache may see that.
//! Cases come from a [`DeterministicRng`] rather than proptest (unavailable
//! in the offline build environment), so every run covers the same cases.

use std::fmt::Debug;

use tc_memsys::{hinted_get, L1Filter, SetAssocCache};
use tc_sim::snapshot::{Snap, SnapReader, SnapState, SnapWriter, SnapshotError};
use tc_sim::DeterministicRng;
use tc_types::{BlockAddr, CacheConfig};

const EMPTY_TAG: u64 = u64::MAX;

/// Mirror of `tc_memsys::CacheLine` (whose LRU stamp is private): evictions
/// are compared through `Debug`, which prints both alike.
#[derive(Debug)]
#[allow(dead_code)]
struct CacheLine<S> {
    addr: BlockAddr,
    state: S,
    last_use: u64,
}

/// The eager flat cache: every way exists from construction.
struct FlatCache<S> {
    num_sets: usize,
    ways: usize,
    tags: Vec<u64>,
    states: Vec<Option<S>>,
    last_use: Vec<u64>,
    len: usize,
    use_counter: u64,
    /// Lines evicted, so the tests can tell the stream made sets conflict.
    evictions: u64,
}

enum FillSlot {
    Resident(usize),
    Free(usize),
    Evict(usize),
}

impl<S> FlatCache<S> {
    fn with_geometry(num_sets: usize, ways: usize) -> Self {
        FlatCache {
            num_sets,
            ways,
            tags: vec![EMPTY_TAG; num_sets * ways],
            states: (0..num_sets * ways).map(|_| None).collect(),
            last_use: vec![0; num_sets * ways],
            len: 0,
            use_counter: 0,
            evictions: 0,
        }
    }

    fn set_start(&self, addr: BlockAddr) -> usize {
        (addr.value() % self.num_sets as u64) as usize * self.ways
    }

    fn probe_for_fill(&self, addr: BlockAddr) -> FillSlot {
        let start = self.set_start(addr);
        let mut free: Option<usize> = None;
        let mut lru: Option<usize> = None;
        for i in start..start + self.ways {
            let t = self.tags[i];
            if t == addr.value() {
                return FillSlot::Resident(i);
            }
            if t == EMPTY_TAG {
                free = free.or(Some(i));
            } else if lru.is_none_or(|l| self.last_use[i] < self.last_use[l]) {
                lru = Some(i);
            }
        }
        match free {
            Some(i) => FillSlot::Free(i),
            None => FillSlot::Evict(lru.expect("full set has an LRU line")),
        }
    }

    fn find(&self, addr: BlockAddr) -> Option<usize> {
        let start = self.set_start(addr);
        (start..start + self.ways).find(|&i| self.tags[i] == addr.value())
    }

    fn peek(&self, addr: BlockAddr) -> Option<&S> {
        self.find(addr).map(|i| self.states[i].as_ref().unwrap())
    }

    fn peek_mut(&mut self, addr: BlockAddr) -> Option<&mut S> {
        let i = self.find(addr)?;
        self.states[i].as_mut()
    }

    fn hinted_slot(&self, hint: u32, addr: BlockAddr) -> Option<usize> {
        let i = hint as usize;
        (i < self.tags.len() && self.tags[i] == addr.value()).then_some(i)
    }

    fn get_at(&mut self, slot: usize) -> &mut S {
        self.use_counter += 1;
        self.last_use[slot] = self.use_counter;
        self.states[slot].as_mut().unwrap()
    }

    fn get_with_slot(&mut self, addr: BlockAddr) -> Option<(usize, &mut S)> {
        self.use_counter += 1;
        let i = self.find(addr)?;
        self.last_use[i] = self.use_counter;
        Some((i, self.states[i].as_mut().unwrap()))
    }

    fn insert(&mut self, addr: BlockAddr, state: S) -> Option<CacheLine<S>> {
        self.use_counter += 1;
        let (i, victim) = match self.probe_for_fill(addr) {
            FillSlot::Resident(i) => (i, None),
            FillSlot::Free(i) => {
                self.len += 1;
                (i, None)
            }
            FillSlot::Evict(i) => {
                self.evictions += 1;
                let victim = CacheLine {
                    addr: BlockAddr::new(self.tags[i]),
                    state: self.states[i].take().unwrap(),
                    last_use: self.last_use[i],
                };
                (i, Some(victim))
            }
        };
        self.tags[i] = addr.value();
        self.states[i] = Some(state);
        self.last_use[i] = self.use_counter;
        victim
    }

    fn touch_entry(&mut self, addr: BlockAddr) -> (bool, &mut S)
    where
        S: Default,
    {
        self.use_counter += 1;
        let (hit, i) = match self.probe_for_fill(addr) {
            FillSlot::Resident(i) => (true, i),
            FillSlot::Free(i) => {
                self.len += 1;
                (false, i)
            }
            FillSlot::Evict(i) => {
                self.evictions += 1;
                (false, i)
            }
        };
        if !hit {
            self.tags[i] = addr.value();
            self.states[i] = Some(S::default());
        }
        self.last_use[i] = self.use_counter;
        (hit, self.states[i].as_mut().unwrap())
    }

    fn remove(&mut self, addr: BlockAddr) -> Option<S> {
        let i = self.find(addr)?;
        self.tags[i] = EMPTY_TAG;
        self.len -= 1;
        self.states[i].take()
    }

    fn victim_for(&self, addr: BlockAddr) -> Option<(BlockAddr, &S)> {
        match self.probe_for_fill(addr) {
            FillSlot::Resident(_) | FillSlot::Free(_) => None,
            FillSlot::Evict(i) => Some((
                BlockAddr::new(self.tags[i]),
                self.states[i].as_ref().unwrap(),
            )),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (BlockAddr, &S)> {
        (self.tags.iter().zip(&self.states))
            .filter(|(&t, _)| t != EMPTY_TAG)
            .map(|(&t, s)| (BlockAddr::new(t), s.as_ref().unwrap()))
    }

    fn save_state(&self, w: &mut SnapWriter)
    where
        S: Snap,
    {
        w.usize(self.len);
        w.u64(self.use_counter);
        for (i, &tag) in self.tags.iter().enumerate() {
            if tag != EMPTY_TAG {
                w.usize(i);
                w.u64(tag);
                w.u64(self.last_use[i]);
                self.states[i].as_ref().unwrap().save(w);
            }
        }
    }
}

/// The reference L1 filter's entry: a remembered L2 slot, `u32::MAX` until
/// one is learned, a raw `u32` on the wire — as `L1Filter` keeps it.
struct Hint(u32);

impl Default for Hint {
    fn default() -> Self {
        Hint(u32::MAX)
    }
}

impl Snap for Hint {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Hint(r.u32()?))
    }
}

/// One operation of the stream. Slot hints are drawn by the driver from
/// slots earlier `GetWithSlot`s reported, so they are valid, stale, foreign
/// to the set, past the end or `u32::MAX` as the stream goes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(BlockAddr, u32),
    Get(BlockAddr),
    GetWithSlot(BlockAddr),
    HintedGet(BlockAddr),
    GetAtHint(u32, BlockAddr),
    TouchEntry(BlockAddr, u32),
    PeekMut(BlockAddr, u32),
    Remove(BlockAddr),
    VictimFor(BlockAddr),
    Peek(BlockAddr),
    L1Invalidate(BlockAddr),
}

/// What a cache under test answers: everything is rendered to text so the
/// two implementations' own line types compare.
trait Subject {
    fn apply(&mut self, op: Op) -> String;
    /// Counters, population, iteration order.
    fn observe(&self) -> String;
    /// L1 then L2 `save_state` bytes.
    fn snapshot(&self) -> Vec<u8>;
}

fn show(value: impl Debug) -> String {
    format!("{value:?}")
}

/// Writes `new` through a looked-up line and reports what it held.
fn swap(line: Option<&mut u32>, new: u32) -> Option<u32> {
    line.map(|state| std::mem::replace(state, new))
}

struct Lazy {
    l1: L1Filter,
    l2: SetAssocCache<u32>,
}

impl Subject for Lazy {
    fn apply(&mut self, op: Op) -> String {
        let l2 = &mut self.l2;
        match op {
            Op::Insert(a, s) => show(l2.insert(a, s)),
            Op::Get(a) => show(l2.get(a).map(|s| *s)),
            Op::GetWithSlot(a) => show(l2.get_with_slot(a).map(|(slot, s)| (slot, *s))),
            Op::HintedGet(a) => {
                let (l1_hit, line) = hinted_get(&mut self.l1, l2, a);
                show((l1_hit, line.map(|s| *s)))
            }
            Op::GetAtHint(hint, a) => show(l2.hinted_slot(hint, a).map(|at| *l2.get_at(at))),
            Op::TouchEntry(a, s) => {
                let (hit, state) = l2.touch_entry(a);
                show((hit, std::mem::replace(state, s)))
            }
            Op::PeekMut(a, s) => show(swap(l2.peek_mut(a), s)),
            Op::Remove(a) => show(l2.remove(a)),
            Op::VictimFor(a) => show(l2.victim_for(a)),
            Op::Peek(a) => show((l2.peek(a), l2.contains(a))),
            Op::L1Invalidate(a) => {
                self.l1.invalidate(a);
                show(self.l1.contains(a))
            }
        }
    }

    fn observe(&self) -> String {
        let lines: Vec<_> = self.l2.iter().collect();
        show((self.l2.len(), self.l2.blocks(), lines))
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.l1.save_state(&mut w);
        self.l2.save_state(&mut w);
        w.into_bytes()
    }
}

struct Flat {
    l1: FlatCache<Hint>,
    l2: FlatCache<u32>,
}

impl Subject for Flat {
    fn apply(&mut self, op: Op) -> String {
        let l2 = &mut self.l2;
        match op {
            Op::Insert(a, s) => show(l2.insert(a, s)),
            Op::Get(a) => show(l2.get_with_slot(a).map(|(_, s)| *s)),
            Op::GetWithSlot(a) => show(l2.get_with_slot(a).map(|(slot, s)| (slot, *s))),
            Op::HintedGet(a) => {
                let (l1_hit, hint) = self.l1.touch_entry(a);
                let hint = hint.0;
                let line = match l2.hinted_slot(hint, a) {
                    Some(slot) => Some(*l2.get_at(slot)),
                    None => l2.get_with_slot(a).map(|(slot, s)| {
                        self.l1.peek_mut(a).expect("touched above").0 = slot as u32;
                        *s
                    }),
                };
                show((l1_hit, line))
            }
            Op::GetAtHint(hint, a) => show(l2.hinted_slot(hint, a).map(|at| *l2.get_at(at))),
            Op::TouchEntry(a, s) => {
                let (hit, state) = l2.touch_entry(a);
                show((hit, std::mem::replace(state, s)))
            }
            Op::PeekMut(a, s) => show(swap(l2.peek_mut(a), s)),
            Op::Remove(a) => show(l2.remove(a)),
            Op::VictimFor(a) => show(l2.victim_for(a)),
            Op::Peek(a) => show((l2.peek(a), l2.peek(a).is_some())),
            Op::L1Invalidate(a) => {
                self.l1.remove(a);
                show(self.l1.peek(a).is_some())
            }
        }
    }

    fn observe(&self) -> String {
        let lines: Vec<_> = self.l2.iter().collect();
        let blocks: Vec<_> = self.l2.iter().map(|(a, _)| a).collect();
        show((self.l2.len, blocks, lines))
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.l1.save_state(&mut w);
        self.l2.save_state(&mut w);
        w.into_bytes()
    }
}

const BLOCK_BYTES: u64 = 64;
/// 8 sets of 2: smaller than some of the L2 geometries below, larger than
/// others, so L1 entries outlive L2 lines and the other way round.
const L1: CacheConfig = CacheConfig {
    size_bytes: 16 * BLOCK_BYTES,
    associativity: 2,
    latency_ns: 2,
};
/// (sets, ways): one set, one way, both counts not a power of two, and
/// power-of-two shapes that take the masked index.
const GEOMETRIES: [(usize, usize); 8] = [
    (1, 4),
    (8, 1),
    (1, 1),
    (3, 3),
    (5, 2),
    (6, 4),
    (16, 4),
    (64, 2),
];
const OPS: usize = 6_000;
/// Full comparison (counters, order, snapshot bytes) every this many ops.
const CHECK_EVERY: usize = 16;

fn lazy(sets: usize, ways: usize) -> Lazy {
    Lazy {
        l1: L1Filter::new(&L1, BLOCK_BYTES),
        l2: SetAssocCache::with_geometry(sets, ways),
    }
}

/// Draws the next operation. Addresses span three times the capacity, so
/// sets fill, conflict and evict; `slots` is every slot a lookup reported
/// so far, by address.
fn draw(rng: &mut DeterministicRng, capacity: usize, slots: &[(BlockAddr, u32)]) -> Op {
    let addr = BlockAddr::new(rng.next_below(3 * capacity as u64 + 1));
    let state = rng.next_below(1 << 20) as u32;
    match rng.next_below(16) {
        0..=3 => Op::Insert(addr, state),
        4 => Op::Get(addr),
        5 => Op::GetWithSlot(addr),
        6..=7 => Op::HintedGet(addr),
        8..=9 => {
            let remembered =
                (!slots.is_empty()).then(|| slots[rng.next_below(slots.len() as u64) as usize]);
            match (rng.next_below(5), remembered) {
                // The slot this address was last seen at: valid or stale.
                (0 | 1, Some((seen, slot))) => Op::GetAtHint(slot, seen),
                // Another address's slot: usually a foreign set.
                (2, Some((_, slot))) => Op::GetAtHint(slot, addr),
                // "No hint yet".
                (3, _) => Op::GetAtHint(u32::MAX, addr),
                // Anywhere up to just past the last slot.
                _ => Op::GetAtHint(rng.next_below(capacity as u64 + 3) as u32, addr),
            }
        }
        10 => Op::TouchEntry(addr, state),
        11 => Op::PeekMut(addr, state),
        12 => Op::Remove(addr),
        13 => Op::VictimFor(addr),
        14 => Op::Peek(addr),
        _ => Op::L1Invalidate(addr),
    }
}

/// Applies `op` to both subjects, requires equal answers, and records the
/// slot if a lookup reported one.
fn step(
    a: &mut impl Subject,
    b: &mut impl Subject,
    op: Op,
    slots: &mut Vec<(BlockAddr, u32)>,
    context: &str,
) {
    let answer = a.apply(op);
    assert_eq!(answer, b.apply(op), "{context}: {op:?}");
    learn(op, &answer, slots);
}

/// Records the slot out of a `GetWithSlot`'s rendered `Some((slot, state))`.
fn learn(op: Op, answer: &str, slots: &mut Vec<(BlockAddr, u32)>) {
    let Op::GetWithSlot(addr) = op else { return };
    let slot = answer
        .strip_prefix("Some((")
        .and_then(|rest| rest.split(',').next());
    slots.extend(slot.map(|digits| (addr, digits.parse::<u32>().expect("a slot number"))));
}

fn compare(a: &impl Subject, b: &impl Subject, context: &str) {
    assert_eq!(a.observe(), b.observe(), "{context}: observable state");
    assert_eq!(a.snapshot(), b.snapshot(), "{context}: save_state bytes");
}

#[test]
fn lazy_sets_are_indistinguishable_from_eager_ones() {
    for (case, &(sets, ways)) in GEOMETRIES.iter().enumerate() {
        let mut rng = DeterministicRng::new(0x7A65 + case as u64);
        let mut new = lazy(sets, ways);
        let mut old = Flat {
            l1: FlatCache::with_geometry(L1.num_sets(BLOCK_BYTES), L1.associativity),
            l2: FlatCache::with_geometry(sets, ways),
        };
        let mut slots = Vec::new();
        for i in 0..OPS {
            let context = format!("{sets}x{ways}, op {i}");
            let op = draw(&mut rng, sets * ways, &slots);
            step(&mut new, &mut old, op, &mut slots, &context);
            if i % CHECK_EVERY == 0 {
                compare(&new, &old, &context);
            }
        }
        compare(&new, &old, &format!("{sets}x{ways}, end"));
        assert!(
            old.l2.evictions > 0 && !slots.is_empty(),
            "{sets}x{ways}: the stream never evicted or never learned a slot"
        );
    }
}

#[test]
fn a_restored_cache_tracks_the_original() {
    for (case, &(sets, ways)) in GEOMETRIES.iter().enumerate() {
        let mut rng = DeterministicRng::new(0x5E70 + case as u64);
        let mut original = lazy(sets, ways);
        let mut slots = Vec::new();
        // Warm up: sets are filled in the order the stream touches them.
        for _ in 0..OPS / 4 {
            let op = draw(&mut rng, sets * ways, &slots);
            learn(op, &original.apply(op), &mut slots);
        }
        // Restore: the same lines arrive in slot order.
        let bytes = original.snapshot();
        let mut restored = lazy(sets, ways);
        let mut r = SnapReader::new(&bytes);
        restored.l1.load_state(&mut r).expect("own L1 bytes");
        restored.l2.load_state(&mut r).expect("own L2 bytes");
        r.finish().expect("nothing left over");
        compare(&original, &restored, &format!("{sets}x{ways}, restore"));
        for i in 0..OPS / 2 {
            let context = format!("{sets}x{ways}, op {i} after restore");
            let op = draw(&mut rng, sets * ways, &slots);
            step(&mut original, &mut restored, op, &mut slots, &context);
            if i % CHECK_EVERY == 0 {
                compare(&original, &restored, &context);
            }
        }
        compare(&original, &restored, &format!("{sets}x{ways}, end"));
    }
}
