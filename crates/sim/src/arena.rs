//! A generation-checked slab arena for in-flight event payloads.
//!
//! The event queue moves its entries many times (bucket pushes, pops,
//! migrations), so queue entries should be small plain-old-data. Large
//! payloads — in this workspace, coherence [`Message`]s — are parked in an
//! [`Arena`] and the queue carries only an [`ArenaRef`]: a `u32` slot index
//! plus a `u32` generation stamp.
//!
//! # Lifetime and generation rules
//!
//! * [`Arena::insert`] parks a value and returns the only valid handle to
//!   it. The handle is `Copy`; the *value* is owned by the arena.
//! * [`Arena::take`] moves the value out and frees the slot. Freeing bumps
//!   the slot's generation, so any stale copy of the handle is dead: using
//!   it panics (generation mismatch) instead of silently aliasing whatever
//!   value recycled the slot. Every handle is therefore take-once.
//! * [`Arena::insert_shared`] parks one value for `n` uses of the same
//!   handle — the zero-clone multicast fan-out path. Each consumer reads
//!   through [`Arena::get`] and then [`Arena::release`]s; the `n`-th
//!   release frees the slot (and bumps the generation) exactly like `take`.
//! * [`Arena::reshare`] is `take` then `insert_shared` without moving the
//!   value: a sent message's slot is re-stamped for its fan-out in place.
//! * Slots are recycled LIFO through a free list; steady-state insert/take
//!   cycles allocate nothing.
//!
//! [`Message`]: https://docs.rs/tc-types

use crate::snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

/// A copyable handle to a value parked in an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaRef {
    index: u32,
    generation: u32,
}

impl ArenaRef {
    /// Packs the handle into a `u64` (`index << 32 | generation`) for
    /// snapshot serialization.
    pub fn to_bits(self) -> u64 {
        (u64::from(self.index) << 32) | u64::from(self.generation)
    }

    /// Rebuilds a handle from [`ArenaRef::to_bits`].
    pub fn from_bits(bits: u64) -> ArenaRef {
        ArenaRef {
            index: (bits >> 32) as u32,
            generation: bits as u32,
        }
    }
}

/// On the wire a handle is [`ArenaRef::to_bits`].
impl Snap for ArenaRef {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ArenaRef::from_bits(r.u64()?))
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    /// Outstanding handle uses before the slot frees (1 for plain
    /// [`Arena::insert`]; the fan-out count for [`Arena::insert_shared`]).
    remaining: u32,
    value: Option<T>,
}

/// A slab arena with generation-checked handles (see the module docs).
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
    /// High-water mark of `len`, for occupancy reports.
    high_water: usize,
    /// Double-releases caught by the accounting guard in
    /// [`Arena::release`]. Always zero in a correct engine; surfaced
    /// through `EngineStats` so release builds report the bug instead of
    /// silently corrupting slot accounting.
    accounting_errors: u64,
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            high_water: 0,
            accounting_errors: 0,
        }
    }

    /// Creates an empty arena with room for `capacity` values before any
    /// slot allocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
            high_water: 0,
            accounting_errors: 0,
        }
    }

    /// Parks `value` and returns its handle.
    pub fn insert(&mut self, value: T) -> ArenaRef {
        self.insert_shared(value, 1)
    }

    /// Parks one value to be consumed through `copies` uses of the returned
    /// handle — the zero-clone fan-out path: a multicast parks its payload
    /// once and every delivery [`Arena::release`]s the same handle, the last
    /// one freeing the slot.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero (a value nobody will ever release would
    /// leak its slot).
    pub fn insert_shared(&mut self, value: T, copies: u32) -> ArenaRef {
        assert!(copies > 0, "a parked value needs at least one handle use");
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(slot.value.is_none(), "free list pointed at a full slot");
                slot.value = Some(value);
                slot.remaining = copies;
                ArenaRef {
                    index,
                    generation: slot.generation,
                }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("arena exceeded u32 slots");
                self.slots.push(Slot {
                    generation: 0,
                    remaining: copies,
                    value: Some(value),
                });
                ArenaRef {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Moves the value out of the arena, freeing (and re-stamping) its slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (the slot was already freed, or freed
    /// and recycled for a different value), or if the value is still shared
    /// with other handle uses (see [`Arena::insert_shared`]) — taking it
    /// out from under them would turn their releases into stale-handle
    /// panics with the blame on the wrong call site.
    pub fn take(&mut self, handle: ArenaRef) -> T {
        let slot = self.sole_slot(handle);
        let value = slot
            .value
            .take()
            .expect("arena handle with matching generation must hold a value");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        self.len -= 1;
        value
    }

    /// The slot of a value about to leave `handle`'s hands: panics (see
    /// [`Arena::take`]) if the handle is stale or the value still shared.
    fn sole_slot(&mut self, handle: ArenaRef) -> &mut Slot<T> {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale arena handle: slot {} was recycled",
            handle.index
        );
        assert_eq!(
            slot.remaining,
            1,
            "cannot take a value still shared by {} other handle uses",
            slot.remaining.saturating_sub(1)
        );
        slot
    }

    /// [`Arena::take`] then [`Arena::insert_shared`] of the same value
    /// without moving it: the slot is re-stamped for `copies` uses and
    /// comes back under the handle that pair would return (the take frees
    /// the slot to the top of the free list, the insert pops it). With
    /// `copies` 0 the value is dropped and its slot freed, as a take whose
    /// value nobody re-parks.
    ///
    /// # Panics
    ///
    /// As [`Arena::take`]: on a stale handle or a value still shared.
    pub fn reshare(&mut self, handle: ArenaRef, copies: u32) -> Option<ArenaRef> {
        if copies == 0 {
            drop(self.take(handle));
            return None;
        }
        let slot = self.sole_slot(handle);
        slot.generation = slot.generation.wrapping_add(1);
        slot.remaining = copies;
        Some(ArenaRef {
            index: handle.index,
            generation: slot.generation,
        })
    }

    /// Consumes one use of a shared handle, freeing the slot (and dropping
    /// the value) when this was the last use. Returns `true` on the final
    /// release.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (same rules as [`Arena::take`]).
    pub fn release(&mut self, handle: ArenaRef) -> bool {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale arena handle: slot {} was recycled",
            handle.index
        );
        // A matching generation on an already-freed slot means a
        // double-release slipped past the generation check (possible after
        // a u32 generation wraparound, or if internal accounting is
        // corrupted). A bare decrement here would wrap `remaining` in
        // release builds and resurrect the slot with ~4B phantom uses;
        // instead, record a structured accounting error (surfaced through
        // `EngineStats::arena_accounting_errors`) and leave the slot alone.
        if slot.remaining == 0 || slot.value.is_none() {
            self.accounting_errors += 1;
            debug_assert!(
                false,
                "arena double-release: slot {} has no live value",
                handle.index
            );
            return false;
        }
        slot.remaining -= 1;
        if slot.remaining > 0 {
            return false;
        }
        slot.value = None;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        self.len -= 1;
        true
    }

    /// Borrows the value behind a live handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (same rules as [`Arena::take`]).
    pub fn get(&self, handle: ArenaRef) -> &T {
        let slot = &self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale arena handle: slot {} was recycled",
            handle.index
        );
        slot.value
            .as_ref()
            .expect("arena handle with matching generation must hold a value")
    }

    /// Number of values currently parked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of simultaneous occupancy (reported as
    /// `peak_arena_occupancy` in run reports).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of slots ever created (occupied plus free-listed).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Double-releases caught by the accounting guard in
    /// [`Arena::release`]. Non-zero means an engine bug; reports surface
    /// this as `arena_accounting_errors`.
    pub fn accounting_errors(&self) -> u64 {
        self.accounting_errors
    }
}

/// The arena exactly: every slot (generation, remaining uses, value) plus
/// the free list in LIFO order, because recycled slot indices feed handle
/// allocation and must replay identically. The occupancy count is the
/// number of filled slots; the load checks that the free list names exactly
/// as many slots as are empty, each of them empty.
impl<T: Snap> Snap for Arena<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.high_water);
        w.u64(self.accounting_errors);
        w.seq(self.slots.iter(), |w, slot| {
            w.u32(slot.generation);
            w.u32(slot.remaining);
            slot.value.save(w);
        });
        self.free.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Arena<T>, SnapshotError> {
        let high_water = r.usize()?;
        let accounting_errors = r.u64()?;
        let slots = r.seq(|r| {
            Ok(Slot {
                generation: r.u32()?,
                remaining: r.u32()?,
                value: Snap::load(r)?,
            })
        })?;
        let free = Vec::<u32>::load(r)?;
        let len = slots.iter().filter(|s| s.value.is_some()).count();
        if free.len() != slots.len() - len {
            return Err(SnapshotError::Corrupt("arena slot accounting".into()));
        }
        if free.iter().any(|&i| {
            slots
                .get(i as usize)
                .map(|s| s.value.is_some())
                .unwrap_or(true)
        }) {
            return Err(SnapshotError::Corrupt("arena free list".into()));
        }
        Ok(Arena {
            slots,
            free,
            len,
            high_water,
            accounting_errors,
        })
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_round_trips() {
        let mut arena = Arena::new();
        let a = arena.insert("alpha");
        let b = arena.insert("beta");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), &"alpha");
        assert_eq!(arena.take(b), "beta");
        assert_eq!(arena.take(a), "alpha");
        assert!(arena.is_empty());
    }

    /// `reshare(h, k)` is `take(h)` then `insert_shared(value, k)` (or the
    /// take alone for `k == 0`): the same handle, and the same slots,
    /// generations, free list, occupancy and high-water mark after, on a
    /// free list that is empty or already holds slots.
    #[test]
    fn reshare_equals_take_then_insert_shared() {
        let bytes = |arena: &Arena<u64>| {
            let mut w = SnapWriter::new();
            arena.save(&mut w);
            w.into_bytes()
        };
        for freed_before in [0, 2] {
            for copies in 0..4 {
                let mut arena = Arena::new();
                let handles: Vec<_> = (0..4).map(|v| arena.insert(v * 10)).collect();
                for &h in &handles[..freed_before] {
                    arena.take(h);
                }
                let sent = arena.insert(77);
                let mut moved = Arena::load(&mut SnapReader::new(&bytes(&arena))).unwrap();
                let reshared = arena.reshare(sent, copies);
                let value = moved.take(sent);
                let reinserted = (copies > 0).then(|| moved.insert_shared(value, copies));
                let case = format!("{freed_before} freed, {copies} copies");
                assert_eq!(reshared, reinserted, "{case}");
                assert_eq!(
                    reshared.map(ArenaRef::to_bits),
                    reinserted.map(ArenaRef::to_bits),
                    "{case}"
                );
                assert_eq!(
                    (arena.len(), arena.high_water(), arena.capacity()),
                    (moved.len(), moved.high_water(), moved.capacity()),
                    "{case}"
                );
                assert_eq!(bytes(&arena), bytes(&moved), "{case}");
                if let Some(h) = reshared {
                    assert_eq!(arena.get(h), &77, "{case}");
                    assert!((1..copies).all(|_| !arena.release(h)) && arena.release(h));
                }
            }
        }
    }

    #[test]
    fn slots_are_recycled_without_new_allocations() {
        let mut arena = Arena::new();
        let first = arena.insert(1u32);
        arena.take(first);
        for i in 0..100u32 {
            let h = arena.insert(i);
            assert_eq!(arena.take(h), i);
        }
        assert_eq!(arena.capacity(), 1, "one slot must serve the whole cycle");
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut arena = Arena::new();
        let handles: Vec<_> = (0..10u32).map(|i| arena.insert(i)).collect();
        for h in handles {
            arena.take(h);
        }
        arena.insert(99);
        assert_eq!(arena.high_water(), 10);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn shared_values_free_on_the_last_release() {
        let mut arena = Arena::new();
        let h = arena.insert_shared("payload", 3);
        assert!(!arena.release(h));
        assert_eq!(arena.get(h), &"payload");
        assert!(!arena.release(h));
        assert_eq!(arena.len(), 1);
        assert!(arena.release(h), "third release is the last");
        assert!(arena.is_empty());
        // The slot is recycled with a fresh generation.
        let h2 = arena.insert("next");
        assert_eq!(arena.capacity(), 1);
        assert_eq!(arena.take(h2), "next");
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn releasing_a_freed_shared_handle_panics() {
        let mut arena = Arena::new();
        let h = arena.insert_shared(1u32, 2);
        arena.release(h);
        arena.release(h);
        arena.release(h);
    }

    #[test]
    #[should_panic(expected = "still shared")]
    fn taking_a_shared_value_panics() {
        let mut arena = Arena::new();
        let h = arena.insert_shared(1u32, 2);
        arena.take(h);
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn taking_twice_panics_on_generation_mismatch() {
        let mut arena = Arena::new();
        let h = arena.insert(5u32);
        arena.take(h);
        // The slot may even hold a new value by now; the stale handle must
        // still be rejected.
        arena.insert(6u32);
        arena.take(h);
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn get_rejects_stale_handles() {
        let mut arena = Arena::new();
        let h = arena.insert(5u32);
        arena.take(h);
        arena.get(h);
    }

    /// Regression for the double-release accounting hole: when a stale
    /// handle's generation *collides* with a freed slot (the u32 ABA case
    /// the generation assert cannot catch), release must record an
    /// accounting error instead of wrapping `remaining` to ~4 billion.
    #[test]
    fn double_release_past_the_generation_check_is_counted_not_wrapped() {
        let mut arena = Arena::new();
        let h = arena.insert(7u32);
        arena.take(h);
        // Forge the ABA collision: rewind the freed slot's generation so
        // the stale handle passes the generation check again.
        arena.slots[0].generation = arena.slots[0].generation.wrapping_sub(1);
        assert_eq!(arena.slots[0].remaining, 1, "take leaves the count behind");
        arena.slots[0].remaining = 0;

        // debug_assert fires under `cargo test`; the counted-error path is
        // what release builds see. Catch the unwind so both build modes
        // exercise the accounting.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| arena.release(h)));
        if let Ok(last) = result {
            assert!(!last, "a rejected release must not free anything");
        }
        assert_eq!(arena.accounting_errors(), 1);
        assert_eq!(arena.slots[0].remaining, 0, "remaining must not wrap");
        assert!(arena.is_empty(), "len accounting must be untouched");
    }

    #[test]
    fn save_load_round_trips_slot_layout_and_free_list_order() {
        let mut arena = Arena::new();
        let a = arena.insert(10u64);
        let b = arena.insert(20u64);
        let c = arena.insert_shared(30u64, 3);
        let d = arena.insert(40u64);
        arena.take(b);
        arena.take(a);
        arena.release(c);

        let mut w = SnapWriter::new();
        arena.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = Arena::load(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.len(), arena.len());
        assert_eq!(restored.high_water(), arena.high_water());
        assert_eq!(restored.capacity(), arena.capacity());
        assert_eq!(restored.free, arena.free, "free-list LIFO order matters");
        // The same post-snapshot operation sequence must produce identical
        // handles on both arenas — recycling order is part of the state.
        let drive = |a: &mut Arena<u64>| {
            assert_eq!(a.get(c), &30);
            assert!(!a.release(c));
            assert!(a.release(c));
            assert_eq!(a.take(d), 40);
            (a.insert(50), a.insert(60), a.insert(70))
        };
        assert_eq!(drive(&mut arena), drive(&mut restored));
    }

    /// Bytes of a hand-built arena of `u64`s: each of `slots` filled or
    /// empty, then the free list.
    fn arena_bytes(slots: &[Option<u64>], free: &[u32]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(slots.iter().flatten().count());
        w.u64(0);
        w.seq(slots.iter(), |w, value| {
            w.u32(0);
            w.u32(u32::from(value.is_some()));
            value.save(w);
        });
        free.to_vec().save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn load_rejects_inconsistent_accounting() {
        let good = arena_bytes(&[Some(1), None], &[1]);
        let arena = Arena::<u64>::load(&mut SnapReader::new(&good)).unwrap();
        assert_eq!((arena.len(), arena.capacity()), (1, 2));
        for (what, free) in [
            ("an empty slot the free list does not name", &[][..]),
            ("a free list naming a filled slot", &[0]),
            ("a free list naming no slot", &[2]),
        ] {
            let bytes = arena_bytes(&[Some(1), None], free);
            assert!(
                matches!(
                    Arena::<u64>::load(&mut SnapReader::new(&bytes)),
                    Err(SnapshotError::Corrupt(_))
                ),
                "{what}"
            );
        }
    }
}
