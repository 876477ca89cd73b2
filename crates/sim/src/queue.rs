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
//!    queue gets this *structurally*: each per-cycle bucket is a FIFO deque,
//!    and the overflow level keeps one FIFO deque per far-future cycle — no
//!    global monotonically-growing sequence counter is needed (the old heap
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
//! plus a sorted overflow level (`BTreeMap<Cycle, VecDeque<E>>`) for
//! far-future events such as reissue and persistent-request timers. An
//! occupancy bitmap (one bit per bucket) lets `pop` find the next non-empty
//! bucket by scanning words and counting trailing zeros instead of walking
//! empty cycles one by one.
//!
//! The ring index of an in-window event is `time & (HORIZON_CYCLES - 1)`;
//! because the window is exactly as long as the ring, a slot maps to one
//! absolute cycle at a time. Whenever `now` advances (only `pop` advances
//! it), overflow cycles that entered the window migrate into their buckets
//! *before* any new event can be scheduled directly into those cycles, so
//! FIFO order between a migrated event and a later direct schedule is
//! preserved.

use std::collections::{BTreeMap, VecDeque};

use crate::snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};
use crate::Cycle;

/// Length of the calendar window in cycles (must be a power of two).
///
/// Sized to the latency horizon of the simulated system: cache and memory
/// latencies are tens of nanoseconds, a contended multi-hop fabric traversal
/// hundreds, and reissue timeouts (2x recent average miss latency) low
/// thousands. Everything beyond the window — persistent-request escalations
/// under pathological contention, drain-limit sentinels — takes the sorted
/// overflow path, which is correct at any distance, merely slower.
pub const HORIZON_CYCLES: u64 = 4096;

const MASK: u64 = HORIZON_CYCLES - 1;
const WORDS: usize = (HORIZON_CYCLES as usize) / 64;

/// A deterministic, time-ordered event queue (calendar queue).
///
/// See the module documentation for the determinism contract and layout.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ring of per-cycle FIFO buckets; index = `time & MASK`.
    buckets: Box<[VecDeque<E>]>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Far-future events, FIFO per cycle, sorted by cycle.
    overflow: BTreeMap<Cycle, VecDeque<E>>,
    /// Number of events currently in `overflow`.
    overflow_len: usize,
    now: Cycle,
    len: usize,
    scheduled: u64,
    delivered: u64,
    /// High-water mark of `len`, for bottleneck reports.
    max_depth: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        let buckets = (0..HORIZON_CYCLES).map(|_| VecDeque::new()).collect();
        EventQueue {
            buckets,
            occupied: [0; WORDS],
            overflow: BTreeMap::new(),
            overflow_len: 0,
            now: 0,
            len: 0,
            scheduled: 0,
            delivered: 0,
            max_depth: 0,
        }
    }

    /// End of the calendar window. Saturates near `Cycle::MAX`; the window
    /// then covers fewer than `HORIZON_CYCLES` cycles, which keeps the ring
    /// mapping injective (events at the saturated end live in overflow).
    #[inline]
    fn horizon_end(&self) -> Cycle {
        self.now.saturating_add(HORIZON_CYCLES)
    }

    /// Schedules `event` to be delivered at absolute time `time`.
    ///
    /// Scheduling in the past is clamped to the current time (see the module
    /// documentation: clamping is part of the determinism contract).
    pub fn schedule(&mut self, time: Cycle, event: E) {
        let time = time.max(self.now);
        if time < self.horizon_end() {
            let slot = (time & MASK) as usize;
            self.buckets[slot].push_back(event);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.overflow.entry(time).or_default().push_back(event);
            self.overflow_len += 1;
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
                let event = bucket
                    .pop_front()
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
            debug_assert!(self.overflow_len > 0, "len > 0 but nothing pending");
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
        if self.overflow_len == 0 {
            return;
        }
        let end = self.horizon_end();
        while let Some((&time, _)) = self.overflow.first_key_value() {
            // `time == self.now` only matters when `horizon_end` saturates
            // at `Cycle::MAX`: the window is then empty-length at the top
            // end, but an event due *now* must still migrate.
            if time >= end && time > self.now {
                break;
            }
            let (_, mut events) = self.overflow.pop_first().expect("checked non-empty");
            self.overflow_len -= events.len();
            let slot = (time & MASK) as usize;
            debug_assert!(
                self.buckets[slot].is_empty(),
                "bucket occupied while its cycle was still in overflow"
            );
            if self.buckets[slot].capacity() == 0 {
                // Donate the overflow deque's allocation instead of copying
                // into a fresh one.
                self.buckets[slot] = events;
            } else {
                self.buckets[slot].append(&mut events);
            }
            self.occupied[slot / 64] |= 1 << (slot % 64);
        }
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

    /// High-water mark of the number of pending events, for bottleneck
    /// hunting (reported as `peak_queue_depth` in run reports).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Number of events currently parked in the overflow level (events
    /// scheduled beyond the calendar window).
    pub fn overflow_len(&self) -> usize {
        self.overflow_len
    }

    /// Iterates over every pending event in no particular order (calendar
    /// buckets first, then the overflow level). End-of-run audits use this
    /// to account for payloads still in flight; nothing order-sensitive may
    /// depend on it.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.buckets
            .iter()
            .flat_map(|bucket| bucket.iter())
            .chain(self.overflow.values().flat_map(|events| events.iter()))
    }
}

/// The queue exactly: clock, counters, every non-empty calendar bucket (slot
/// index + FIFO contents, whose order the determinism contract fixes) and the
/// overflow level in time order. The load checks slots, that no bucket or
/// overflow cycle repeats or is empty, and the depth accounting.
impl<E: Snap> Snap for EventQueue<E> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.now);
        w.u64(self.scheduled);
        w.u64(self.delivered);
        w.usize(self.max_depth);
        let occupied = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, bucket)| !bucket.is_empty());
        w.usize(occupied.clone().count());
        for (slot, bucket) in occupied {
            w.usize(slot);
            bucket.save(w);
        }
        self.overflow.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<EventQueue<E>, SnapshotError> {
        let mut q = EventQueue::new();
        q.now = r.u64()?;
        q.scheduled = r.u64()?;
        q.delivered = r.u64()?;
        q.max_depth = r.usize()?;
        let num_buckets = r.bounded_len(1)?;
        let mut len = 0usize;
        for _ in 0..num_buckets {
            let slot = r.usize()?;
            if slot >= HORIZON_CYCLES as usize {
                return Err(SnapshotError::Corrupt(format!("bucket slot {slot}")));
            }
            let events = VecDeque::<E>::load(r)?;
            if events.is_empty() || !q.buckets[slot].is_empty() {
                return Err(SnapshotError::Corrupt("bucket layout".into()));
            }
            len += events.len();
            q.buckets[slot] = events;
            q.occupied[slot / 64] |= 1 << (slot % 64);
        }
        q.overflow = BTreeMap::load(r)?;
        if q.overflow.values().any(VecDeque::is_empty) {
            return Err(SnapshotError::Corrupt("overflow layout".into()));
        }
        q.overflow_len = q.overflow.values().map(VecDeque::len).sum();
        q.len = len + q.overflow_len;
        if q.max_depth < len {
            return Err(SnapshotError::Corrupt("queue depth accounting".into()));
        }
        Ok(q)
    }
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

    // ------------------------------------------------------------------
    // Snapshot round-trips.
    // ------------------------------------------------------------------

    /// Snapshot/restore mid-run must be invisible: the restored queue and
    /// the original must produce identical pop streams, including bucket
    /// FIFO ties and overflow migration.
    #[test]
    fn save_load_round_trips_mid_run() {
        use crate::snapshot::{SnapReader, SnapWriter};
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

        let mut w = SnapWriter::new();
        q.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = EventQueue::load(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.overflow_len(), q.overflow_len());
        assert_eq!(restored.total_scheduled(), q.total_scheduled());
        assert_eq!(restored.total_delivered(), q.total_delivered());
        assert_eq!(restored.max_depth(), q.max_depth());
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

    // ------------------------------------------------------------------
    // Differential test against the legacy binary-heap implementation.
    // ------------------------------------------------------------------

    /// Drives the calendar queue and the legacy heap through identical
    /// seeded schedule/pop interleavings and requires identical
    /// `(time, event)` streams. The offset distribution deliberately mixes
    /// same-cycle storms (offset 0), in-window latencies, horizon-boundary
    /// values, and far-overflow timers.
    #[test]
    fn calendar_queue_matches_legacy_heap_on_random_interleavings() {
        for seed in [1u64, 7, 42, 0xBEEF, 0xD00D, 987_654_321] {
            let mut rng = DeterministicRng::new(seed);
            let mut calendar: EventQueue<u64> = EventQueue::new();
            let mut heap: legacy::HeapQueue<u64> = legacy::HeapQueue::new();
            let mut next_id: u64 = 0;
            let mut pending: usize = 0;

            for step in 0..20_000 {
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
                        0..=29 => 0,                                       // same-cycle storm
                        30..=69 => rng.next_below(64),                     // short latency
                        70..=84 => rng.next_below(HORIZON_CYCLES),         // anywhere in window
                        85..=94 => HORIZON_CYCLES - 2 + rng.next_below(4), // boundary
                        _ => HORIZON_CYCLES * (1 + rng.next_below(20)),    // far overflow
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
