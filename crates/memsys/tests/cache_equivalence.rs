//! Property test: `SetAssocCache`, whose line arrays hold one way per set
//! until the set needs a second, must be observationally identical to a
//! cache that allocates and initialises every way when it is built.
//!
//! The reference below is that eager flat cache, kept as the test's oracle:
//! `num_sets * ways` tags, states and LRU stamps written at construction, a
//! slot *is* the array index. Both are driven, behind an L1 filter touched
//! as the controllers' front path touches it, by one seeded operation
//! stream over geometries that include non-power-of-two set and way counts,
//! a single set, a single way, and the Table 1 L2 under a sparse stream.
//! Every return value (evicted lines included), and after every few
//! operations the population, the iteration order, the sets holding a line
//! and the `save_state` bytes (slots included), must match exactly. A
//! second test holds a cache restored from its own snapshot to the same
//! standard against the original: restoring fills sets in slot order, a run
//! fills them in touch order, and nothing outside the cache may see that. A
//! third walks one scripted stream through every move of a set's run.
//! Cases come from a [`DeterministicRng`] rather than proptest (unavailable
//! in the offline build environment), so every run covers the same cases.

use std::fmt::Debug;

use tc_memsys::{L1Filter, SetAssocCache};
use tc_sim::snapshot::{Snap, SnapReader, SnapState, SnapWriter};
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

    fn get(&mut self, addr: BlockAddr) -> Option<&mut S> {
        self.use_counter += 1;
        let i = self.find(addr)?;
        self.last_use[i] = self.use_counter;
        self.states[i].as_mut()
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

    fn touch(&mut self, addr: BlockAddr) -> bool
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
        hit
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

/// One operation of the stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(BlockAddr, u32),
    Get(BlockAddr),
    /// The controllers' front path: touch the L1, then look up the L2.
    Access(BlockAddr),
    Touch(BlockAddr),
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

struct Lazy {
    l1: L1Filter,
    l2: SetAssocCache<u32>,
    /// The L2's set count, for the sets holding a line.
    sets: usize,
}

impl Subject for Lazy {
    fn apply(&mut self, op: Op) -> String {
        let l2 = &mut self.l2;
        match op {
            Op::Insert(a, s) => show(l2.insert(a, s)),
            Op::Get(a) => show(l2.get(a).map(|s| *s)),
            Op::Access(a) => show((self.l1.touch(a), l2.get(a).map(|s| *s))),
            Op::Touch(a) => show(l2.touch(a)),
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
        let holding: Vec<_> = (0..self.sets)
            .filter(|&set| self.l2.set_holds_lines(set))
            .collect();
        show((self.l2.len(), self.l2.blocks(), lines, holding))
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.l1.save_state(&mut w);
        self.l2.save_state(&mut w);
        w.into_bytes()
    }
}

struct Flat {
    l1: FlatCache<()>,
    l2: FlatCache<u32>,
}

impl Subject for Flat {
    fn apply(&mut self, op: Op) -> String {
        let l2 = &mut self.l2;
        match op {
            Op::Insert(a, s) => show(l2.insert(a, s)),
            Op::Get(a) => show(l2.get(a).map(|s| *s)),
            Op::Access(a) => show((self.l1.touch(a), l2.get(a).map(|s| *s))),
            Op::Touch(a) => show(l2.touch(a)),
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
        let ways = self.l2.ways;
        let holding: Vec<_> = (0..self.l2.num_sets)
            .filter(|&set| (self.l2.tags[set * ways..][..ways].iter()).any(|&t| t != EMPTY_TAG))
            .collect();
        show((self.l2.len, blocks, lines, holding))
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
/// Where a stream's block addresses come from.
#[derive(Debug, Clone, Copy)]
enum Addresses {
    /// Uniform over three times the capacity: sets fill, conflict and evict.
    Dense,
    /// `ways + 2` conflicting blocks in each of up to 48 sets spread over
    /// the cache at a prime stride: on a large cache most groups of the set
    /// index are never filled, and the sets that are filled still evict.
    Sparse,
}

/// (sets, ways, addresses): one set, one way, both counts not a power of
/// two, power-of-two shapes that take the masked index, set counts that
/// leave the index's last group of 16 sets part-filled (37, 100), and the
/// Table 1 L2 (4 MB, 4-way, 64-byte blocks) under a sparse stream.
const GEOMETRIES: [(usize, usize, Addresses); 11] = [
    (1, 4, Addresses::Dense),
    (8, 1, Addresses::Dense),
    (1, 1, Addresses::Dense),
    (3, 3, Addresses::Dense),
    (5, 2, Addresses::Dense),
    (6, 4, Addresses::Dense),
    (16, 4, Addresses::Dense),
    (64, 2, Addresses::Dense),
    (37, 2, Addresses::Dense),
    (100, 3, Addresses::Sparse),
    (16384, 4, Addresses::Sparse),
];
const OPS: usize = 6_000;
/// Full comparison (counters, order, snapshot bytes) every this many ops.
const CHECK_EVERY: usize = 16;

fn lazy(sets: usize, ways: usize) -> Lazy {
    Lazy {
        l1: L1Filter::new(&L1, BLOCK_BYTES),
        l2: SetAssocCache::with_geometry(sets, ways),
        sets,
    }
}

/// Draws the next operation on a `sets` x `ways` cache, its address from
/// `addresses`.
fn draw(rng: &mut DeterministicRng, (sets, ways, addresses): (usize, usize, Addresses)) -> Op {
    let capacity = sets * ways;
    let addr = BlockAddr::new(match addresses {
        Addresses::Dense => rng.next_below(3 * capacity as u64 + 1),
        Addresses::Sparse => {
            let set = rng.next_below(48) * 331 % sets as u64;
            set + sets as u64 * rng.next_below(ways as u64 + 2)
        }
    });
    match rng.next_below(16) {
        0..=3 => Op::Insert(addr, rng.next_below(1 << 20) as u32),
        4..=5 => Op::Get(addr),
        6..=9 => Op::Access(addr),
        10..=11 => Op::Touch(addr),
        12 => Op::Remove(addr),
        13 => Op::VictimFor(addr),
        14 => Op::Peek(addr),
        _ => Op::L1Invalidate(addr),
    }
}

/// Applies `op` to both subjects and requires equal answers.
fn step(a: &mut impl Subject, b: &mut impl Subject, op: Op, context: &str) {
    assert_eq!(a.apply(op), b.apply(op), "{context}: {op:?}");
}

fn compare(a: &impl Subject, b: &impl Subject, context: &str) {
    assert_eq!(a.observe(), b.observe(), "{context}: observable state");
    assert_eq!(a.snapshot(), b.snapshot(), "{context}: save_state bytes");
}

#[test]
fn lazy_sets_are_indistinguishable_from_eager_ones() {
    for (case, &geometry) in GEOMETRIES.iter().enumerate() {
        let (sets, ways, _) = geometry;
        let mut rng = DeterministicRng::new(0x7A65 + case as u64);
        let mut new = lazy(sets, ways);
        let mut old = Flat {
            l1: FlatCache::with_geometry(L1.num_sets(BLOCK_BYTES), L1.associativity),
            l2: FlatCache::with_geometry(sets, ways),
        };
        for i in 0..OPS {
            let context = format!("{sets}x{ways}, op {i}");
            step(&mut new, &mut old, draw(&mut rng, geometry), &context);
            if i % CHECK_EVERY == 0 {
                compare(&new, &old, &context);
            }
        }
        compare(&new, &old, &format!("{sets}x{ways}, end"));
        assert!(
            old.l2.evictions > 0,
            "{sets}x{ways}: the stream never evicted"
        );
    }
}

#[test]
fn a_restored_cache_tracks_the_original() {
    for (case, &geometry) in GEOMETRIES.iter().enumerate() {
        let (sets, ways, _) = geometry;
        let mut rng = DeterministicRng::new(0x5E70 + case as u64);
        let mut original = lazy(sets, ways);
        // Warm up: sets are filled in the order the stream touches them.
        for _ in 0..OPS / 4 {
            original.apply(draw(&mut rng, geometry));
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
            step(
                &mut original,
                &mut restored,
                draw(&mut rng, geometry),
                &context,
            );
            if i % CHECK_EVERY == 0 {
                compare(&original, &restored, &context);
            }
        }
        compare(&original, &restored, &format!("{sets}x{ways}, end"));
    }
}

/// Applies `ops` to both subjects, requiring equal answers, then compares
/// them whole; returns the answers.
fn script(a: &mut impl Subject, b: &mut impl Subject, ops: &[Op], what: &str) -> Vec<String> {
    let answers = (ops.iter())
        .map(|&op| {
            let answer = a.apply(op);
            assert_eq!(answer, b.apply(op), "{what}: {op:?}");
            answer
        })
        .collect();
    compare(a, b, what);
    answers
}

/// A scripted stream through every move of a set's run, against the flat
/// oracle: one-way sets are promoted to all their ways, the run a promoted
/// set leaves is taken by the next set's first fill, way 0 of a promoted
/// set is emptied and refilled, `victim_for` on a one-way set answers
/// `None`, a snapshot holding a set's only line at way 1 restores by
/// promoting that set, and a promoted set emptied line by line stops
/// holding lines.
#[test]
fn one_way_runs_promote_refill_and_restore_like_flat_sets() {
    const SETS: usize = 8;
    const WAYS: usize = 4;
    let block = |set: u64, k: u64| BlockAddr::new(set + SETS as u64 * k);
    let mut new = lazy(SETS, WAYS);
    let mut old = Flat {
        l1: FlatCache::with_geometry(L1.num_sets(BLOCK_BYTES), L1.associativity),
        l2: FlatCache::with_geometry(SETS, WAYS),
    };

    let answers = script(
        &mut new,
        &mut old,
        &[
            Op::Insert(block(0, 0), 1),
            Op::Insert(block(1, 0), 2),
            Op::VictimFor(block(0, 1)),
        ],
        "one-way sets",
    );
    assert_eq!(answers[2], "None", "a one-way set has a free way");
    assert_eq!(new.l2.line_slots(), 2);

    let answers = script(
        &mut new,
        &mut old,
        &[
            Op::Insert(block(0, 1), 3),
            Op::Insert(block(0, 2), 4),
            Op::Insert(block(0, 3), 5),
            Op::VictimFor(block(0, 4)),
        ],
        "set 0 promoted and full",
    );
    assert_eq!(answers[3], "Some((BlockAddr(0), 1))");
    assert_eq!(
        new.l2.line_slots(),
        2 + WAYS,
        "one run of every way, one spare"
    );

    let answers = script(
        &mut new,
        &mut old,
        &[
            Op::Remove(block(0, 0)),
            Op::Insert(block(0, 4), 6),
            Op::Get(block(0, 4)),
            Op::Insert(block(2, 0), 7),
        ],
        "way 0 refilled, the spare run reused",
    );
    // The snapshot bytes compared equal, so the lazy cache saved the same
    // slot the flat one holds the line at.
    assert_eq!(answers[2], "Some(6)");
    assert_eq!(old.l2.find(block(0, 4)), Some(0), "the refill takes way 0");
    assert_eq!(new.l2.line_slots(), 2 + WAYS, "set 2 took the spare run");

    script(
        &mut new,
        &mut old,
        &[Op::Insert(block(1, 1), 8), Op::Remove(block(1, 0))],
        "set 1's only line at way 1",
    );
    let bytes = new.snapshot();
    let mut restored = lazy(SETS, WAYS);
    let mut r = SnapReader::new(&bytes);
    restored.l1.load_state(&mut r).expect("own L1 bytes");
    restored.l2.load_state(&mut r).expect("own L2 bytes");
    r.finish().expect("nothing left over");
    compare(&restored, &old, "restored");
    assert_eq!(
        restored.l2.line_slots(),
        1 + 2 * WAYS,
        "the load promoted sets 0 and 1 and gave set 2 the spare run"
    );
    let after = [
        Op::Insert(block(1, 2), 9),
        Op::Get(block(1, 2)),
        Op::Get(block(1, 1)),
        Op::VictimFor(block(1, 3)),
    ];
    let answers = script(&mut restored, &mut old, &after, "after restore");
    assert_eq!(answers[1..3], ["Some(9)", "Some(8)"]);
    assert_eq!(
        old.l2.find(block(1, 2)),
        Some(4),
        "set 1's way 0 is free again"
    );
    assert_eq!(old.l2.find(block(1, 1)), Some(5), "set 1's line kept way 1");

    let emptied = [
        Op::Remove(block(1, 1)),
        Op::Remove(block(1, 2)),
        Op::Peek(block(1, 1)),
    ];
    script(&mut restored, &mut old, &emptied, "set 1 emptied");
    assert!(!restored.l2.set_holds_lines(1) && restored.l2.set_holds_lines(0));
}
