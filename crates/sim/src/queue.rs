//! Time-ordered event queue with deterministic tie-breaking.
//!
//! # The determinism contract
//!
//! Every implementation of this queue — past (binary heap) and present
//! (calendar queue) — must preserve exactly three properties, because the
//! whole evaluation compares protocols on bit-identical event streams:
//!
//! 1. **Time order.** `pop` always returns the pending event with the
//!    smallest delivery time.
//! 2. **FIFO ties.** Events scheduled for the same time are delivered in the
//!    order they were scheduled, regardless of internal layout. The calendar
//!    queue gets this *structurally*: the events of one cycle form one FIFO
//!    list, in a calendar bucket and in the overflow level alike — no global
//!    monotonically-growing sequence counter is needed (the old heap
//!    implementation carried a `u64` tie-break per entry forever).
//! 3. **Clamp to now.** Scheduling in the past is clamped to the current
//!    time rather than panicking; protocol code computes firing times from
//!    latencies and a zero-latency component is legitimate.
//!
//! # Layout
//!
//! The queue is a classic calendar queue specialized for a simulator whose
//! event latencies are almost always small: a ring of [`HORIZON_CYCLES`]
//! per-cycle buckets covering the window `[now, now + HORIZON_CYCLES)`,
//! plus a sorted overflow level (a `BTreeMap` keyed by cycle) for events
//! beyond it. An occupancy bitmap (one bit per bucket) lets `pop` find the
//! next non-empty bucket by scanning words and counting trailing zeros
//! instead of walking empty cycles one by one.
//!
//! Every pending event lives in one [`FifoPool`]: a bucket, and an
//! overflow cycle, is only the [`Fifo`] handle of its list of events.
//! `schedule` links an event at the tail, `pop` unlinks the head, and the
//! pool reuses the node the last `pop` freed. No bucket owns a buffer, the
//! steady state allocates nothing, and migrating an overflow cycle into the
//! ring moves one handle.
//!
//! The ring index of an in-window event is `time & (HORIZON_CYCLES - 1)`;
//! because the window is exactly as long as the ring, a slot maps to one
//! absolute cycle at a time. One predicate, `in_window`, says which cycles
//! the ring holds: those before `now + HORIZON_CYCLES`, and `now` itself
//! once that end saturates at `Cycle::MAX`. `schedule`, the overflow
//! migration and a snapshot load all ask it, so a cycle's events are always
//! one list in one place. Whenever `now` advances (only `pop` advances
//! it), overflow cycles that entered the window migrate into their buckets
//! *before* any new event can be scheduled directly into those cycles, so
//! FIFO order between a migrated event and a later direct schedule is
//! preserved.
//!
//! # The wire
//!
//! Snapshot bytes do not depend on the ring's size: after the clock and
//! counters come the pending cycles in time order, one `(cycle, events)`
//! entry each (the ring's, then the overflow level's). A load places each
//! cycle where `schedule` would have put its events.

use std::collections::BTreeMap;

use crate::fifo::{Fifo, FifoPool};
use crate::snapshot::{Snap, SnapReader, SnapWith, SnapWriter, SnapshotError};
use crate::Cycle;

/// Length of the calendar window in cycles (must be a power of two).
///
/// Sized to the latency horizon of the simulated system: cache and memory
/// latencies are tens of nanoseconds, a contended multi-hop fabric traversal
/// hundreds, and reissue timeouts (2x recent average miss latency)
/// thousands — the 64-node torus's median miss takes about 3800 cycles, so
/// its reissue timers land well past 4096. Everything beyond the window —
/// persistent-request escalations under pathological contention,
/// drain-limit sentinels — takes the sorted overflow path, which is correct
/// at any distance, merely slower. The buckets cost 12 bytes each (192 KiB).
pub const HORIZON_CYCLES: u64 = 16_384;

const MASK: u64 = HORIZON_CYCLES - 1;
const WORDS: usize = (HORIZON_CYCLES as usize) / 64;

/// Whether cycle `time` belongs in the ring while the clock reads `now`:
/// it is before the window's end, or it is `now` itself. The end saturates
/// near `Cycle::MAX`; the window then covers fewer than `HORIZON_CYCLES`
/// cycles, which keeps the ring mapping injective, and the second clause
/// keeps the cycle due now in its bucket.
#[inline]
fn in_window(now: Cycle, time: Cycle) -> bool {
    time < now.saturating_add(HORIZON_CYCLES) || time == now
}

/// A deterministic, time-ordered event queue (calendar queue).
///
/// See the module documentation for the determinism contract and layout.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every pending event, linked into its cycle's list.
    pool: FifoPool<E>,
    /// Ring of per-cycle lists; index = `time & MASK`.
    buckets: Box<[Fifo]>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Far-future cycles' lists, sorted by cycle.
    overflow: BTreeMap<Cycle, Fifo>,
    now: Cycle,
    len: usize,
    scheduled: u64,
    delivered: u64,
    /// Events scheduled straight into `overflow` (not serialized).
    overflowed: u64,
    /// High-water mark of `len`, for bottleneck reports.
    max_depth: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            pool: FifoPool::new(),
            buckets: (0..HORIZON_CYCLES).map(|_| Fifo::new()).collect(),
            occupied: [0; WORDS],
            overflow: BTreeMap::new(),
            now: 0,
            len: 0,
            scheduled: 0,
            delivered: 0,
            overflowed: 0,
            max_depth: 0,
        }
    }

    /// Schedules `event` to be delivered at absolute time `time`.
    ///
    /// Scheduling in the past is clamped to the current time (see the module
    /// documentation: clamping is part of the determinism contract).
    pub fn schedule(&mut self, time: Cycle, event: E) {
        let time = time.max(self.now);
        if in_window(self.now, time) {
            let slot = (time & MASK) as usize;
            self.pool.push(&mut self.buckets[slot], event);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            let fifo = self.overflow.entry(time).or_default();
            self.pool.push(fifo, event);
            self.overflowed += 1;
        }
        self.len += 1;
        self.scheduled += 1;
        if self.len > self.max_depth {
            self.max_depth = self.len;
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// delivery time.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(time) = self.next_bucket_time() {
                let slot = (time & MASK) as usize;
                let bucket = &mut self.buckets[slot];
                let event = self
                    .pool
                    .pop(bucket)
                    .expect("occupied bit set on empty bucket");
                if bucket.is_empty() {
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
                self.len -= 1;
                self.delivered += 1;
                if time > self.now {
                    self.now = time;
                    self.migrate_overflow();
                }
                return Some((time, event));
            }
            // The whole window is empty: jump the clock to the first
            // overflow cycle and pull the events that entered the window
            // into their buckets.
            debug_assert!(!self.overflow.is_empty(), "len > 0 but nothing pending");
            let (&first, _) = self.overflow.first_key_value()?;
            self.now = first;
            self.migrate_overflow();
        }
    }

    /// Moves every overflow cycle that has entered the calendar window into
    /// its bucket. Called whenever `now` advances, which is what keeps FIFO
    /// order between migrated events and later direct schedules: a cycle can
    /// only be scheduled into directly once it is inside the window, and it
    /// enters the window in the same instant its overflow events migrate.
    fn migrate_overflow(&mut self) {
        let now = self.now;
        while let Some(entry) = self.overflow.first_entry() {
            let time = *entry.key();
            if !in_window(now, time) {
                break;
            }
            let fifo = entry.remove();
            self.place_bucket(time, fifo);
        }
    }

    /// Puts in-window cycle `time`'s whole list in its (empty) bucket.
    fn place_bucket(&mut self, time: Cycle, fifo: Fifo) {
        let slot = (time & MASK) as usize;
        debug_assert!(self.buckets[slot].is_empty(), "cycle {time} split");
        self.buckets[slot] = fifo;
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// The absolute cycle of the earliest non-empty bucket in the window, if
    /// any, found by scanning the occupancy bitmap from `now` forward (with
    /// wrap-around).
    #[inline]
    fn next_bucket_time(&self) -> Option<Cycle> {
        let start = (self.now & MASK) as usize;
        let (start_word, start_bit) = (start / 64, start % 64);

        // Bits at or after `start` in the first word.
        let word = self.occupied[start_word] & (!0u64 << start_bit);
        if word != 0 {
            let slot = start_word * 64 + word.trailing_zeros() as usize;
            return Some(self.now + (slot - start) as Cycle);
        }
        // Remaining words, wrapping around the ring.
        for step in 1..WORDS {
            let index = (start_word + step) % WORDS;
            let word = self.occupied[index];
            if word != 0 {
                let slot = index * 64 + word.trailing_zeros() as usize;
                let distance = (slot + HORIZON_CYCLES as usize - start) & MASK as usize;
                return Some(self.now + distance as Cycle);
            }
        }
        // Bits before `start` in the first word (the far end of the window).
        let word = self.occupied[start_word] & !(!0u64 << start_bit);
        if word != 0 {
            let slot = start_word * 64 + word.trailing_zeros() as usize;
            return Some(self.now + (slot + HORIZON_CYCLES as usize - start) as Cycle);
        }
        None
    }

    /// The delivery time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        // Every in-window event lives in a bucket and every overflow event
        // is at or beyond the window end, so the bucket scan wins when it
        // finds anything.
        self.next_bucket_time()
            .or_else(|| self.overflow.first_key_value().map(|(&t, _)| t))
    }

    /// Current simulation time (the delivery time of the last popped event).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total number of events delivered so far.
    pub fn total_delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events scheduled beyond the calendar window, into the
    /// overflow level, since this queue was created or loaded (the count
    /// is not serialized). Against [`total_scheduled`](Self::total_scheduled)
    /// it says whether [`HORIZON_CYCLES`] still covers a run's latencies.
    pub fn total_overflowed(&self) -> u64 {
        self.overflowed
    }

    /// High-water mark of the number of pending events, for bottleneck
    /// hunting (reported as `peak_queue_depth` in run reports).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Number of events currently parked in the overflow level (events
    /// scheduled beyond the calendar window). Walks the overflow lists.
    pub fn overflow_len(&self) -> usize {
        self.overflow.values().map(Fifo::len).sum()
    }

    /// Iterates over every pending event in no particular order (slab
    /// order). End-of-run audits use this to account for payloads still in
    /// flight; nothing order-sensitive may depend on it.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.pool.values()
    }

    /// The non-empty buckets as `(cycle, list)`, in time order.
    fn ring(&self) -> impl Iterator<Item = (Cycle, &Fifo)> + '_ {
        (0..HORIZON_CYCLES)
            .map_while(|ahead| self.now.checked_add(ahead))
            .map(|time| (time, &self.buckets[(time & MASK) as usize]))
            .filter(|&(_, fifo)| !fifo.is_empty())
    }
}

/// The queue exactly: clock, counters, then one `(cycle, events)` entry per
/// pending cycle in time order, each list head first (see the module
/// documentation, "The wire"). The load refuses a cycle before the clock or
/// not after the one before it, an empty list, counters that do not
/// account for the pending events, and a depth high-water mark below them.
impl<E: Snap> Snap for EventQueue<E> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.now);
        w.u64(self.scheduled);
        w.u64(self.delivered);
        w.usize(self.max_depth);
        let overflow = self.overflow.iter().map(|(&time, fifo)| (time, fifo));
        let pending: Vec<_> = self.ring().chain(overflow).collect();
        w.seq(pending.into_iter(), |w, (time, fifo)| {
            w.u64(time);
            fifo.save_with(w, &self.pool);
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<EventQueue<E>, SnapshotError> {
        let mut q = EventQueue::new();
        q.now = r.u64()?;
        q.scheduled = r.u64()?;
        q.delivered = r.u64()?;
        q.max_depth = r.usize()?;
        let mut last = None;
        for _ in 0..r.bounded_len(1)? {
            let time = r.u64()?;
            if time < q.now || last.is_some_and(|last| time <= last) {
                return Err(SnapshotError::Corrupt(format!(
                    "queue cycle {time} at cycle {} after {last:?}",
                    q.now
                )));
            }
            last = Some(time);
            let fifo = load_cycle(r, &mut q.pool)?;
            if in_window(q.now, time) {
                q.place_bucket(time, fifo);
            } else {
                q.overflow.insert(time, fifo);
            }
        }
        // A freshly loaded pool has no free node: one per pending event.
        q.len = q.pool.nodes();
        if q.scheduled.checked_sub(q.delivered) != Some(q.len as u64) {
            return Err(SnapshotError::Corrupt(format!(
                "{} scheduled, {} delivered, {} pending",
                q.scheduled, q.delivered, q.len
            )));
        }
        if q.max_depth < q.len {
            return Err(SnapshotError::Corrupt("queue depth accounting".into()));
        }
        Ok(q)
    }
}

/// One pending cycle's list, read into `pool`. No cycle is saved without
/// an event, so an empty list is corrupt.
fn load_cycle<E: Snap>(
    r: &mut SnapReader<'_>,
    pool: &mut FifoPool<E>,
) -> Result<Fifo, SnapshotError> {
    let fifo = Fifo::load_with(r, pool)?;
    if fifo.is_empty() {
        return Err(SnapshotError::Corrupt("queue cycle of 0 events".into()));
    }
    Ok(fifo)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The original binary-heap implementation, kept as the reference for the
/// differential tests below: any divergence between it and the calendar
/// queue under identical schedule/pop interleavings is a determinism bug.
#[cfg(test)]
mod legacy {
    use super::Cycle;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Debug)]
    struct Entry<E> {
        time: Cycle,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest time (and,
            // within a time, the lowest sequence number) pops first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The pre-calendar event queue: a max-heap with inverted ordering and a
    /// global monotonically increasing sequence number as the FIFO tie-break.
    #[derive(Debug)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        now: Cycle,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: 0,
            }
        }

        pub fn schedule(&mut self, time: Cycle, event: E) {
            let time = time.max(self.now);
            self.heap.push(Entry {
                time,
                seq: self.next_seq,
                event,
            });
            self.next_seq += 1;
        }

        pub fn pop(&mut self) -> Option<(Cycle, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.time;
            Some((entry.time, entry.event))
        }

        pub fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|e| e.time)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 'c');
        q.schedule(10, 'a');
        q.schedule(20, 'b');
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(5, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(15, ());
        q.schedule(40, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 15);
        q.pop();
        assert_eq!(q.now(), 40);
    }

    #[test]
    fn scheduling_in_the_past_is_clamped_to_now() {
        let mut q = EventQueue::new();
        q.schedule(100, 'x');
        assert_eq!(q.pop(), Some((100, 'x')));
        q.schedule(50, 'y');
        assert_eq!(q.pop(), Some((100, 'y')));
    }

    #[test]
    fn counters_track_scheduled_and_delivered() {
        let mut q = EventQueue::new();
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.total_delivered(), 0);
        q.pop();
        assert_eq!(q.total_delivered(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(7, ());
        q.schedule(3, ());
        assert_eq!(q.peek_time(), Some(3));
    }

    #[test]
    fn interleaved_schedule_and_pop_remains_ordered() {
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        q.schedule(15, 3);
        q.schedule(12, 4);
        assert_eq!(q.pop(), Some((12, 4)));
        assert_eq!(q.pop(), Some((15, 3)));
        assert_eq!(q.pop(), Some((20, 2)));
    }

    #[test]
    fn depth_high_water_mark_tracks_peak() {
        let mut q = EventQueue::new();
        for t in 0..10 {
            q.schedule(t, ());
        }
        for _ in 0..5 {
            q.pop();
        }
        q.schedule(100, ());
        assert_eq!(q.max_depth(), 10);
        assert_eq!(q.len(), 6);
    }

    /// Freed nodes are reused before the slab grows: a steady schedule/pop
    /// rhythm, in the ring and the overflow level alike, keeps as many
    /// nodes as its peak depth.
    #[test]
    fn popped_nodes_are_reused_before_the_slab_grows() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(i * 300, i);
        }
        for i in 100..10_100u64 {
            q.schedule(q.now() + i % 5 * HORIZON_CYCLES / 2, i);
            q.pop();
        }
        assert_eq!(q.pool.nodes(), q.max_depth());
        assert_eq!(q.iter().count(), q.len());
    }

    // ------------------------------------------------------------------
    // Overflow-level edge cases.
    // ------------------------------------------------------------------

    #[test]
    fn events_far_beyond_the_horizon_take_the_overflow_path_and_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(10 * HORIZON_CYCLES, "far");
        assert_eq!(q.overflow_len(), 1);
        q.schedule(5, "near");
        assert_eq!(q.pop(), Some((5, "near")));
        assert_eq!(q.pop(), Some((10 * HORIZON_CYCLES, "far")));
        assert_eq!(q.overflow_len(), 0);
    }

    #[test]
    fn overflow_events_keep_fifo_order_with_later_direct_schedules() {
        let mut q = EventQueue::new();
        let target = HORIZON_CYCLES + 100;
        // Scheduled while `target` is beyond the window: overflow.
        q.schedule(target, 1u32);
        q.schedule(target, 2);
        // Advance the clock so `target` enters the window...
        q.schedule(200, 0);
        assert_eq!(q.pop(), Some((200, 0)));
        assert_eq!(q.overflow_len(), 0, "window advance must migrate overflow");
        // ...then schedule directly into the same cycle: FIFO demands the
        // overflow-migrated events come first.
        q.schedule(target, 3);
        assert_eq!(q.pop(), Some((target, 1)));
        assert_eq!(q.pop(), Some((target, 2)));
        assert_eq!(q.pop(), Some((target, 3)));
    }

    #[test]
    fn pop_jumps_across_a_completely_empty_window() {
        let mut q = EventQueue::new();
        // Nothing in the window at all; the only events are far out.
        q.schedule(7 * HORIZON_CYCLES + 3, 'a');
        q.schedule(7 * HORIZON_CYCLES + 3, 'b');
        q.schedule(9 * HORIZON_CYCLES, 'c');
        assert_eq!(q.pop(), Some((7 * HORIZON_CYCLES + 3, 'a')));
        assert_eq!(q.pop(), Some((7 * HORIZON_CYCLES + 3, 'b')));
        assert_eq!(q.pop(), Some((9 * HORIZON_CYCLES, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_storm_spanning_window_boundary() {
        let mut q = EventQueue::new();
        // A storm exactly at the last in-window cycle and the first
        // out-of-window cycle.
        let last_in = HORIZON_CYCLES - 1;
        let first_out = HORIZON_CYCLES;
        for i in 0..50u32 {
            q.schedule(last_in, i);
            q.schedule(first_out, 1000 + i);
        }
        for i in 0..50u32 {
            assert_eq!(q.pop(), Some((last_in, i)));
        }
        for i in 0..50u32 {
            assert_eq!(q.pop(), Some((first_out, 1000 + i)));
        }
    }

    #[test]
    fn events_at_cycle_max_are_delivered() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::MAX, 'z');
        q.schedule(Cycle::MAX - 1, 'y');
        q.schedule(3, 'a');
        assert_eq!(q.pop(), Some((3, 'a')));
        assert_eq!(q.pop(), Some((Cycle::MAX - 1, 'y')));
        assert_eq!(q.pop(), Some((Cycle::MAX, 'z')));
        assert_eq!(q.pop(), None);
        // Scheduling after the clock saturated still clamps and delivers.
        q.schedule(0, 'w');
        assert_eq!(q.pop(), Some((Cycle::MAX, 'w')));
    }

    /// Only a schedule past the window counts, once, however the event
    /// later migrates.
    #[test]
    fn total_overflowed_counts_the_schedules_past_the_window() {
        let mut q = EventQueue::new();
        q.schedule(HORIZON_CYCLES - 1, 'a');
        q.schedule(HORIZON_CYCLES, 'b');
        q.schedule(5 * HORIZON_CYCLES, 'c');
        assert_eq!((q.total_overflowed(), q.overflow_len()), (2, 2));
        assert_eq!(q.pop(), Some((HORIZON_CYCLES - 1, 'a')));
        assert_eq!((q.total_overflowed(), q.overflow_len()), (2, 1));
        q.schedule(HORIZON_CYCLES + 1, 'd');
        assert_eq!((q.total_overflowed(), q.total_scheduled()), (2, 4));
    }

    // ------------------------------------------------------------------
    // Snapshot round-trips.
    // ------------------------------------------------------------------

    /// The queue's wire bytes.
    fn saved(q: &EventQueue<u64>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        q.save(&mut w);
        w.into_bytes()
    }

    /// Saves `q`, loads the bytes back (all of them), and checks the
    /// restored copy's clock and counters, and that it re-saves the same
    /// bytes.
    fn round_trip(q: &EventQueue<u64>) -> EventQueue<u64> {
        let bytes = saved(q);
        let mut r = SnapReader::new(&bytes);
        let restored = EventQueue::load(&mut r).expect("a saved queue loads");
        r.finish().unwrap();
        let view = |q: &EventQueue<u64>| {
            let counters = (q.total_scheduled(), q.total_delivered(), q.max_depth());
            (q.now(), q.len(), q.overflow_len(), counters)
        };
        assert_eq!(view(&restored), view(q));
        assert!(saved(&restored) == bytes, "re-save moved the bytes");
        restored
    }

    /// Snapshot/restore mid-run must be invisible: the restored queue and
    /// the original must produce identical pop streams, including bucket
    /// FIFO ties and overflow migration.
    #[test]
    fn save_load_round_trips_mid_run() {
        let mut rng = DeterministicRng::new(0x5EED);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..500 {
            let offset = match rng.next_below(10) {
                0..=5 => rng.next_below(64),
                6..=8 => rng.next_below(HORIZON_CYCLES),
                _ => HORIZON_CYCLES * (1 + rng.next_below(5)),
            };
            q.schedule(q.now() + offset, i);
            if rng.next_below(3) == 0 {
                q.pop();
            }
        }

        let mut restored = round_trip(&q);
        // Interleave fresh schedules with the drain on both queues.
        let mut i = 1000;
        loop {
            let (a, b) = (q.pop(), restored.pop());
            assert_eq!(a, b, "restored queue diverged");
            if a.is_none() {
                break;
            }
            if i % 3 == 0 {
                let t = q.now() + (i % 700);
                q.schedule(t, i);
                restored.schedule(t, i);
            }
            i += 1;
        }
    }

    /// Near `Cycle::MAX` the window saturates: events due at the very top
    /// sit in the overflow level until the clock gets there. Once it does,
    /// the migrated list and every later schedule at `Cycle::MAX` (clamped
    /// or aimed there) share one bucket, so the cycle is saved as one
    /// entry. A snapshot at every point of that drain restores to the same
    /// stream.
    #[test]
    fn save_load_round_trips_at_the_top_of_time() {
        let top = [
            Cycle::MAX - 20_000,
            Cycle::MAX - 5_000,
            Cycle::MAX - 1,
            Cycle::MAX,
            Cycle::MAX,
        ];
        for pops in 0..=top.len() as u64 {
            let mut q = EventQueue::new();
            for (id, &time) in (0..).zip(&top) {
                q.schedule(time, id);
            }
            for _ in 0..pops {
                q.pop();
            }
            q.schedule(0, 10 + pops);
            q.schedule(Cycle::MAX, 20 + pops);
            let mut restored = round_trip(&q);
            loop {
                let (a, b) = (q.pop(), restored.pop());
                assert_eq!(a, b, "after {pops} pops");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The wire: a byte pin and the load's refusals. The bytes do not
    // depend on the ring's size; they move only with the snapshot version.
    // ------------------------------------------------------------------

    /// The queue's wire bytes, as length + fnv1a64, for a seeded
    /// schedule/pop sequence that leaves events pending in three regions:
    /// `[now, now + 4096)`, the rest of the ring to `now + 16384`, and the
    /// overflow level beyond. A restored copy re-saves the same bytes.
    #[test]
    fn saved_queue_bytes_are_pinned_across_the_window_boundaries() {
        use crate::snapshot::fnv1a64;
        let mut rng = DeterministicRng::new(0x0EE0_4096);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut due = Vec::new();
        for id in 0..4_000u64 {
            let offset = match rng.next_below(8) {
                0..=3 => rng.next_below(64),
                4 | 5 => rng.next_below(4096),
                6 => 4096 + rng.next_below(16_384 - 4096),
                _ => 16_384 + rng.next_below(40_000),
            };
            let time = q.now() + offset;
            due.push(time);
            q.schedule(time, id);
            if rng.next_below(5) < 2 {
                q.pop();
            }
        }
        let mut regions = [0usize; 3];
        for &id in q.iter() {
            let ahead = due[id as usize] - q.now();
            regions[usize::from(ahead >= 4096) + usize::from(ahead >= 16_384)] += 1;
        }
        assert!(regions.iter().all(|&n| n > 0), "regions {regions:?}");

        let bytes = saved(&q);
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (48_136, 0x6c24_a144_0a0c_8d57),
            "regions {regions:?}"
        );
        round_trip(&q);
    }

    /// Bytes of a hand-built queue: clock, counters (the depth mark is the
    /// pending count), then each `(cycle, events)` entry of `cycles` with
    /// its events numbered in order.
    fn queue_bytes(
        now: Cycle,
        scheduled: u64,
        delivered: u64,
        cycles: &[(Cycle, usize)],
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(now);
        w.u64(scheduled);
        w.u64(delivered);
        w.usize(cycles.iter().map(|&(_, events)| events).sum());
        w.usize(cycles.len());
        let mut id = 0..;
        for &(cycle, events) in cycles {
            w.u64(cycle);
            w.usize(events);
            for id in id.by_ref().take(events) {
                w.u64(id);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn a_hand_built_queue_that_keeps_the_invariants_loads() {
        let bytes = queue_bytes(100, 8, 5, &[(105, 2), (100 + 20_000, 1)]);
        let mut q = EventQueue::<u64>::load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.pop(), Some((105, 0)));
        assert_eq!(q.pop(), Some((105, 1)));
        assert_eq!(q.pop(), Some((100 + 20_000, 2)));
        assert_eq!(q.total_delivered(), 8);
    }

    /// A cycle before the clock could never be popped in order, and a
    /// cycle saved twice or out of order, or with no event, is not what
    /// `save` writes.
    #[test]
    fn load_refuses_cycles_out_of_time_order_or_empty() {
        for (what, cycles) in [
            ("before the clock", &[(99, 1)][..]),
            ("repeated", &[(105, 1), (105, 1)]),
            ("out of order", &[(100 + 20_000, 1), (105, 1)]),
            ("empty", &[(105, 0)]),
        ] {
            let pending: usize = cycles.iter().map(|&(_, events)| events).sum();
            let bytes = queue_bytes(100, pending as u64, 0, cycles);
            match EventQueue::<u64>::load(&mut SnapReader::new(&bytes)) {
                Err(SnapshotError::Corrupt(why)) => {
                    assert!(why.starts_with("queue cycle"), "{what}: {why}")
                }
                other => panic!("{what}: expected a Corrupt error, got {other:?}"),
            }
        }
    }

    /// Every queue `schedule` and `pop` can produce has
    /// `scheduled == delivered + pending`.
    #[test]
    fn load_refuses_counters_that_do_not_account_for_the_pending_events() {
        let bytes = queue_bytes(100, 5, 0, &[(100 + 4096, 1)]);
        let err = EventQueue::<u64>::load(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    // ------------------------------------------------------------------
    // Differential test against the legacy binary-heap implementation.
    // ------------------------------------------------------------------

    /// Drives the calendar queue and the legacy heap through identical
    /// seeded schedule/pop interleavings and requires identical
    /// `(time, event)` streams. The offset distribution deliberately mixes
    /// same-cycle storms (offset 0), in-window latencies, values around
    /// 4096 cycles ahead and at the end of the ring, and
    /// far-overflow timers. Every 400 steps the calendar queue is replaced
    /// by its own save/load round trip, which must be invisible.
    #[test]
    fn calendar_queue_matches_legacy_heap_on_random_interleavings() {
        for seed in [1u64, 7, 42, 0xBEEF, 0xD00D, 987_654_321] {
            let mut rng = DeterministicRng::new(seed);
            let mut calendar: EventQueue<u64> = EventQueue::new();
            let mut heap: legacy::HeapQueue<u64> = legacy::HeapQueue::new();
            let mut next_id: u64 = 0;
            let mut pending: usize = 0;

            for step in 0..20_000 {
                if step % 400 == 399 {
                    calendar = round_trip(&calendar);
                }
                // Bias toward scheduling so the queue stays populated, but
                // drain it completely every so often.
                let drain = step % 4_000 == 3_999;
                let do_pop = drain || (pending > 0 && rng.next_below(100) < 45);
                if do_pop {
                    let pops = if drain { pending } else { 1 };
                    for _ in 0..pops {
                        let a = calendar.pop();
                        let b = heap.pop();
                        assert_eq!(a, b, "seed {seed} step {step}: pop diverged");
                        pending -= 1;
                    }
                } else {
                    let base = calendar.now();
                    let offset = match rng.next_below(100) {
                        0..=24 => 0,                                          // same-cycle storm
                        25..=59 => rng.next_below(64),                        // short latency
                        60..=69 => rng.next_below(HORIZON_CYCLES),            // anywhere in window
                        70..=79 => 4094 + rng.next_below(4),                  // 4096 +- 2
                        80..=89 => HORIZON_CYCLES - 2 + rng.next_below(4),    // ring boundary
                        90..=94 => HORIZON_CYCLES * (1 + rng.next_below(20)), // far overflow
                        _ => rng.next_below(20 * HORIZON_CYCLES),             // anywhere at all
                    };
                    // Occasionally aim before `now` to exercise the clamp.
                    let time = if rng.next_below(20) == 0 {
                        base.saturating_sub(rng.next_below(50))
                    } else {
                        base + offset
                    };
                    // Several events at the same time in a burst.
                    let burst = 1 + rng.next_below(4);
                    for _ in 0..burst {
                        calendar.schedule(time, next_id);
                        heap.schedule(time, next_id);
                        next_id += 1;
                        pending += 1;
                    }
                }
                assert_eq!(
                    calendar.peek_time(),
                    heap.peek_time(),
                    "seed {seed} step {step}"
                );
            }

            // Final drain: the remaining streams must match exactly.
            loop {
                let a = calendar.pop();
                let b = heap.pop();
                assert_eq!(a, b, "seed {seed}: final drain diverged");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(calendar.len(), 0);
            assert_eq!(calendar.overflow_len(), 0);
        }
    }
}
