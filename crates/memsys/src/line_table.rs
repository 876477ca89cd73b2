//! A compact, cache-friendly per-block-address store: the shared line-state
//! plane under every protocol's sparse per-line structures.
//!
//! Every coherence protocol in this workspace keeps several *sparse* maps
//! keyed by block address — MSHRs, writeback buffers, writeback-handshake
//! windows, home-memory state, persistent-request entries — and they are
//! the simulator's dominant simulated-state working set. [`LineTable`] holds
//! them all in one open-addressed layout:
//!
//! * **Bare-`u64` keys, no hasher state.** Keys are block addresses; the slot
//!   is the high bits of a single Fibonacci multiply, so a probe is one
//!   multiply plus a linear scan of a contiguous `u64` key array — no SipHash,
//!   no per-entry nodes, no pointer chasing.
//! * **Backward-shift deletion, no tombstones.** Removals compact the probe
//!   chain in place, so long-lived tables (a 64-node sweep churns millions of
//!   MSHR allocate/release cycles) never degrade.
//! * **Occupancy high-water tracking built in.** Every table remembers its
//!   peak entry count, and [`LineTable::allocated_bytes`] prices the backing
//!   arrays, so `EngineStats` can report per-structure peaks and an estimated
//!   state-bytes figure without any extra bookkeeping at the call sites.
//!
//! # Determinism contract
//!
//! The table is fully deterministic: layout depends only on the sequence of
//! inserts and removes (no per-process hash seed), so two identical runs
//! produce identical iteration orders. Iteration order is *unspecified*
//! (probe order, not address order) — callers that need address order sort
//! the handful of audit-time uses explicitly. Nothing on the simulation hot
//! path iterates a `LineTable`.

use std::fmt;

use tc_sim::{Snap, SnapReader, SnapWriter, SnapshotError};
use tc_types::config::MAX_LINE_TABLE_ENTRIES;
use tc_types::BlockAddr;

/// Key marking an empty slot. A real block with this address would need the
/// simulated physical address space to reach `2^64` blocks; insertion
/// debug-asserts against it (the same sentinel convention as the L2 tag
/// array's `EMPTY_TAG`).
const EMPTY_KEY: u64 = u64::MAX;

/// Fibonacci-hashing multiplier (2^64 / phi). The slot index is the *high*
/// bits of `key * PHI`, which mix every key bit; block addresses differ in
/// high region/stride bits as often as in low offset bits, so low-bits
/// masking would cluster whole regions onto one probe chain.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial capacity of the first allocation (tables start unallocated).
const INITIAL_CAPACITY: usize = 16;

/// A compact open-addressed map from [`BlockAddr`] to protocol-defined
/// per-line state, with built-in occupancy high-water tracking.
///
/// See the module docs for layout and the determinism contract.
#[derive(Debug, Clone)]
pub struct LineTable<V> {
    /// Slot keys; `EMPTY_KEY` marks a vacant slot. Always a power-of-two
    /// length (or empty before the first insert).
    keys: Vec<u64>,
    /// Slot values, parallel to `keys`; `None` on vacant slots.
    values: Vec<Option<V>>,
    len: usize,
    high_water: usize,
}

impl<V> Default for LineTable<V> {
    fn default() -> Self {
        LineTable::new()
    }
}

impl<V> LineTable<V> {
    /// Creates an empty table. No memory is allocated until the first
    /// insert, so per-node structures that a run never touches cost nothing.
    pub fn new() -> Self {
        LineTable {
            keys: Vec::new(),
            values: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Peak number of entries the table has ever held — the per-structure
    /// high-water mark `EngineStats` aggregates.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Bytes currently allocated by the backing arrays. Capacity never
    /// shrinks, so at the end of a run this *is* the peak footprint.
    pub fn allocated_bytes(&self) -> u64 {
        (self.keys.len() * std::mem::size_of::<u64>()
            + self.values.len() * std::mem::size_of::<Option<V>>()) as u64
    }

    /// Slot capacity (power of two; zero before the first insert).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn mask(&self) -> usize {
        debug_assert!(self.keys.len().is_power_of_two());
        self.keys.len() - 1
    }

    /// Home slot of `key` for the current capacity.
    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        // High bits of the product, shifted down to the table's index width.
        let shift = 64 - self.keys.len().trailing_zeros();
        (key.wrapping_mul(PHI) >> shift) as usize
    }

    /// Finds the slot holding `key`, if present. An empty table answers
    /// without probing: TokenB's persistent table is asked on every
    /// transient request and token receipt, and is empty almost always.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut i = self.home_slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// The capacity growth has reached once a table has held `high_water`
    /// entries: none for none, else the smallest power of two, at least
    /// [`INITIAL_CAPACITY`], that keeps them under the 3/4 ceiling.
    fn capacity_for(high_water: usize) -> usize {
        if high_water == 0 {
            return 0;
        }
        (high_water * 4)
            .div_ceil(3)
            .next_power_of_two()
            .max(INITIAL_CAPACITY)
    }

    /// Grows (or allocates) the backing arrays and reinserts every entry.
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(INITIAL_CAPACITY);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_values = std::mem::replace(&mut self.values, (0..new_cap).map(|_| None).collect());
        let mask = self.mask();
        for (key, value) in old_keys.into_iter().zip(old_values) {
            if key == EMPTY_KEY {
                continue;
            }
            let mut i = self.home_slot(key);
            while self.keys[i] != EMPTY_KEY {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.values[i] = value;
        }
    }

    /// Ensures one more entry fits under the 3/4 load-factor ceiling.
    #[inline]
    fn ensure_room(&mut self) {
        if self.keys.is_empty() || (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
    }

    #[inline]
    fn note_insert(&mut self) {
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
    }

    /// Places a *new* key, growing first if the load ceiling requires it.
    /// The caller has already established the key is absent, so growth only
    /// ever happens when an entry is genuinely added — replacing a present
    /// key at the ceiling must not double the arrays.
    fn place_new(&mut self, key: u64, value: V) {
        self.ensure_room();
        let mask = self.mask();
        let mut i = self.home_slot(key);
        while self.keys[i] != EMPTY_KEY {
            debug_assert!(self.keys[i] != key, "place_new on a present key");
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.values[i] = Some(value);
        self.note_insert();
    }

    /// Inserts (or replaces) the entry for `addr`, returning the previous
    /// value if one was present.
    pub fn insert(&mut self, addr: BlockAddr, value: V) -> Option<V> {
        let key = addr.value();
        debug_assert!(key != EMPTY_KEY, "address collides with the empty-slot key");
        if let Some(i) = self.find(key) {
            return self.values[i].replace(value);
        }
        self.place_new(key, value);
        None
    }

    /// Looks up the entry for `addr`.
    pub fn get(&self, addr: BlockAddr) -> Option<&V> {
        self.find(addr.value())
            .map(|i| self.values[i].as_ref().expect("occupied slot has a value"))
    }

    /// Looks up the entry for `addr` mutably.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut V> {
        let i = self.find(addr.value())?;
        Some(self.values[i].as_mut().expect("occupied slot has a value"))
    }

    /// Returns `true` if `addr` has an entry.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.find(addr.value()).is_some()
    }

    /// Returns the entry for `addr`, inserting `make()` first if absent.
    pub fn or_insert_with(&mut self, addr: BlockAddr, make: impl FnOnce() -> V) -> &mut V {
        let key = addr.value();
        debug_assert!(key != EMPTY_KEY, "address collides with the empty-slot key");
        let i = match self.find(key) {
            Some(i) => i,
            None => {
                self.place_new(key, make());
                self.find(key).expect("entry just placed")
            }
        };
        self.values[i].as_mut().expect("occupied slot has a value")
    }

    /// Returns the entry for `addr`, inserting the default first if absent.
    pub fn or_default(&mut self, addr: BlockAddr) -> &mut V
    where
        V: Default,
    {
        self.or_insert_with(addr, V::default)
    }

    /// Removes and returns the entry for `addr`. Uses backward-shift
    /// compaction, so the table never accumulates tombstones.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<V> {
        let mut i = self.find(addr.value())?;
        let out = self.values[i].take();
        self.keys[i] = EMPTY_KEY;
        self.len -= 1;
        // Backward-shift: walk the probe chain after the hole; any entry
        // whose home slot does not lie strictly inside (hole, entry] moves
        // back into the hole (it could only have landed past the hole by
        // probing through it).
        let mask = self.mask();
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY_KEY {
                break;
            }
            let home = self.home_slot(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.keys[i] = k;
                self.values[i] = self.values[j].take();
                self.keys[j] = EMPTY_KEY;
                i = j;
            }
        }
        out
    }

    /// Iterates over every entry. Order is deterministic for a given
    /// insert/remove history but otherwise unspecified (see module docs).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &V)> {
        self.keys
            .iter()
            .zip(&self.values)
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, v)| {
                (
                    BlockAddr::new(k),
                    v.as_ref().expect("occupied slot has a value"),
                )
            })
    }

    /// Every stored block address, sorted — for audit paths that must report
    /// in a human-stable order.
    pub fn blocks_sorted(&self) -> Vec<BlockAddr> {
        let mut blocks: Vec<BlockAddr> = self.iter().map(|(a, _)| a).collect();
        blocks.sort_unstable();
        blocks
    }

    /// Serializes the table's *exact* slot layout: the high-water mark
    /// (which determines the capacity) plus every occupied slot as `(slot
    /// index, key, value)`. Backward-shift deletion means the layout is a
    /// function of the whole insert/remove history — it cannot be
    /// reproduced by re-inserting the surviving entries — and iteration
    /// order (which some audit paths consume) depends on it, so snapshots
    /// must round-trip positions, not just contents.
    pub fn save_state(&self, w: &mut SnapWriter, mut emit: impl FnMut(&mut SnapWriter, &V)) {
        w.usize(self.high_water);
        let occupied = self
            .keys
            .iter()
            .zip(&self.values)
            .enumerate()
            .filter(|(_, (&k, _))| k != EMPTY_KEY);
        w.usize(self.len);
        for (slot, (&key, value)) in occupied {
            w.usize(slot);
            w.u64(key);
            emit(w, value.as_ref().expect("occupied slot has a value"));
        }
    }

    /// Rebuilds a table from [`LineTable::save_state`] bytes. Capacity only
    /// changes by doubling under the 3/4 ceiling, so the high-water mark
    /// determines it; a high-water mark past [`MAX_LINE_TABLE_ENTRIES`] is
    /// refused before anything is allocated for it.
    pub fn load_state(
        r: &mut SnapReader<'_>,
        mut read: impl FnMut(&mut SnapReader<'_>) -> Result<V, SnapshotError>,
    ) -> Result<LineTable<V>, SnapshotError> {
        let high_water = r.usize()?;
        let len = r.usize()?;
        if high_water > MAX_LINE_TABLE_ENTRIES {
            return Err(SnapshotError::Corrupt(format!(
                "line table high-water mark {high_water} (limit {MAX_LINE_TABLE_ENTRIES})"
            )));
        }
        if len > high_water {
            return Err(SnapshotError::Corrupt("line table accounting".into()));
        }
        let capacity = Self::capacity_for(high_water);
        let mut keys = vec![EMPTY_KEY; capacity];
        let mut values: Vec<Option<V>> = (0..capacity).map(|_| None).collect();
        for _ in 0..len {
            let slot = r.usize()?;
            let key = r.u64()?;
            if slot >= capacity || keys[slot] != EMPTY_KEY || key == EMPTY_KEY {
                return Err(SnapshotError::Corrupt("line table slot".into()));
            }
            keys[slot] = key;
            values[slot] = Some(read(r)?);
        }
        Ok(LineTable {
            keys,
            values,
            len,
            high_water,
        })
    }
}

/// A table of plain values is the layout above with each value's own bytes.
impl<V: Snap> Snap for LineTable<V> {
    fn save(&self, w: &mut SnapWriter) {
        self.save_state(w, |w, v| v.save(w));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        LineTable::load_state(r, V::load)
    }
}

impl<V> fmt::Display for LineTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} line-state entries (peak {})",
            self.len,
            self.capacity(),
            self.high_water
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LineTable<u64> {
        LineTable::new()
    }

    #[test]
    fn empty_table_allocates_nothing() {
        let t = table();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 0);
        assert_eq!(t.allocated_bytes(), 0);
        assert_eq!(t.high_water(), 0);
        assert!(t.get(BlockAddr::new(7)).is_none());
        assert!(!t.contains(BlockAddr::new(7)));
    }

    #[test]
    fn insert_get_remove_round_trips() {
        let mut t = table();
        assert!(t.insert(BlockAddr::new(7), 70).is_none());
        assert_eq!(t.get(BlockAddr::new(7)), Some(&70));
        assert_eq!(t.insert(BlockAddr::new(7), 71), Some(70));
        assert_eq!(t.len(), 1);
        *t.get_mut(BlockAddr::new(7)).unwrap() += 1;
        assert_eq!(t.remove(BlockAddr::new(7)), Some(72));
        assert!(t.remove(BlockAddr::new(7)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn or_insert_with_creates_once() {
        let mut t = table();
        *t.or_insert_with(BlockAddr::new(3), || 1) += 10;
        *t.or_insert_with(BlockAddr::new(3), || 99) += 10;
        assert_eq!(t.get(BlockAddr::new(3)), Some(&21));
        assert_eq!(t.or_default(BlockAddr::new(4)), &0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn high_water_tracks_the_peak_not_the_present() {
        let mut t = table();
        for i in 0..10 {
            t.insert(BlockAddr::new(i), i);
        }
        for i in 0..8 {
            t.remove(BlockAddr::new(i));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.high_water(), 10);
        assert!(t.allocated_bytes() > 0);
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut t = table();
        for i in 0..1000u64 {
            t.insert(BlockAddr::new(i * 97 + 5), i);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.capacity().is_power_of_two());
        // 3/4 load factor ceiling holds after growth.
        assert!(t.len() * 4 <= t.capacity() * 3);
        for i in 0..1000u64 {
            assert_eq!(t.get(BlockAddr::new(i * 97 + 5)), Some(&i));
        }
    }

    #[test]
    fn iteration_visits_each_entry_exactly_once() {
        let mut t = table();
        for i in 0..50u64 {
            t.insert(BlockAddr::new(i), i * 2);
        }
        let mut seen: Vec<(u64, u64)> = t.iter().map(|(a, v)| (a.value(), *v)).collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), 50);
        for (i, (k, v)) in seen.into_iter().enumerate() {
            assert_eq!(k, i as u64);
            assert_eq!(v, i as u64 * 2);
        }
        assert_eq!(t.blocks_sorted().len(), 50);
        assert!(t.blocks_sorted().windows(2).all(|w| w[0] < w[1]));
    }

    /// Differential test against `std::collections::HashMap` over a seeded
    /// insert/remove/lookup churn, exercising backward-shift deletion on
    /// colliding probe chains (hand-rolled LCG; no external crates).
    #[test]
    fn differential_churn_against_std_hashmap() {
        use std::collections::HashMap;
        let mut lcg: u64 = 0x5EED_CAFE;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut ours = table();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for step in 0..20_000u64 {
            // A small key universe forces heavy chain reuse after removals.
            let key = next() % 97;
            match next() % 3 {
                0 => {
                    assert_eq!(
                        ours.insert(BlockAddr::new(key), step),
                        reference.insert(key, step),
                        "insert {key} at step {step}"
                    );
                }
                1 => {
                    assert_eq!(
                        ours.remove(BlockAddr::new(key)),
                        reference.remove(&key),
                        "remove {key} at step {step}"
                    );
                }
                _ => {
                    assert_eq!(
                        ours.get(BlockAddr::new(key)),
                        reference.get(&key),
                        "get {key} at step {step}"
                    );
                }
            }
            assert_eq!(ours.len(), reference.len());
        }
        // Final full-content check.
        let mut seen: Vec<(u64, u64)> = ours.iter().map(|(a, v)| (a.value(), *v)).collect();
        seen.sort_unstable();
        let mut expected: Vec<(u64, u64)> = reference.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn replacing_a_present_key_at_the_load_ceiling_does_not_grow() {
        let mut t = table();
        // Fill to exactly the 3/4 ceiling of the initial 16 slots.
        for i in 0..12u64 {
            t.insert(BlockAddr::new(i), i);
        }
        let capacity = t.capacity();
        assert_eq!(t.len() * 4, capacity * 3, "test wants the exact ceiling");
        // Re-inserting and or_insert_with on present keys must not grow.
        assert_eq!(t.insert(BlockAddr::new(5), 50), Some(5));
        *t.or_insert_with(BlockAddr::new(5), || unreachable!()) += 1;
        assert_eq!(t.capacity(), capacity);
        assert_eq!(t.get(BlockAddr::new(5)), Some(&51));
        // A genuinely new key at the ceiling does grow.
        t.insert(BlockAddr::new(99), 99);
        assert!(t.capacity() > capacity);
    }

    /// Every table growth builds round-trips, whatever its churn: the
    /// capacity a load expects is the one growth gave.
    #[test]
    fn saved_tables_reload_at_every_size_and_churn() {
        let mut t = table();
        for i in 0..200u64 {
            t.insert(BlockAddr::new(i * 7), i);
            if i % 3 == 0 {
                t.remove(BlockAddr::new(i * 7 / 2));
            }
            assert_eq!(t.capacity(), LineTable::<u64>::capacity_for(t.high_water()));
            let mut w = SnapWriter::new();
            t.save(&mut w);
            let bytes = w.into_bytes();
            let back = LineTable::<u64>::load(&mut SnapReader::new(&bytes)).unwrap();
            let mut w = SnapWriter::new();
            back.save(&mut w);
            assert_eq!(w.into_bytes(), bytes, "after {i} inserts");
        }
    }

    /// A header of `high_water` and `len` with no entries.
    fn header(high_water: u64, len: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for v in [high_water, len] {
            w.u64(v);
        }
        w.into_bytes()
    }

    /// A high-water mark past the limit is refused before anything is
    /// allocated for it (`1 << 62` once overflowed the allocation), and so
    /// is a table holding more entries than it ever held.
    #[test]
    fn load_refuses_a_high_water_mark_past_the_limit_or_below_the_entries() {
        let past_limit = MAX_LINE_TABLE_ENTRIES as u64 + 1;
        for (high_water, len) in [(1 << 62, 0), (1 << 39, 0), (past_limit, 0)] {
            let loaded = LineTable::<u64>::load(&mut SnapReader::new(&header(high_water, len)));
            assert!(
                matches!(&loaded, Err(SnapshotError::Corrupt(why)) if why.contains("limit")),
                "high water {high_water}: {loaded:?}"
            );
        }
        let loaded = LineTable::<u64>::load(&mut SnapReader::new(&header(4, 5)));
        assert!(
            matches!(&loaded, Err(SnapshotError::Corrupt(why)) if why.contains("accounting")),
            "{loaded:?}"
        );
        let empty = LineTable::<u64>::load(&mut SnapReader::new(&header(0, 0))).unwrap();
        assert_eq!(empty.capacity(), 0);
        let churned = LineTable::<u64>::load(&mut SnapReader::new(&header(13, 0))).unwrap();
        assert_eq!(churned.capacity(), 32);
    }

    #[test]
    fn layout_is_deterministic_for_identical_histories() {
        let build = || {
            let mut t = table();
            for i in 0..200u64 {
                t.insert(BlockAddr::new(i * 13), i);
            }
            for i in 0..100u64 {
                t.remove(BlockAddr::new(i * 26));
            }
            t.iter().map(|(a, v)| (a.value(), *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
