//! The per-node-group step core: what handling one event *does*, shared by
//! the serial and the windowed engine.
//!
//! A [`StepCore`] owns a contiguous node range `[lo, hi)` — controllers,
//! processors (each with its own outstanding misses and completion count),
//! the miss-latency histogram — and the arenas its in-flight messages and armed timers
//! are parked in.
//! The serial engine runs one core over every node; the windowed engine
//! runs one per shard. The engines differ in exactly two decisions, which the core takes
//! as a statically dispatched [`Scheduler`]: where a scheduled event goes,
//! and where a verifier call goes. *When* a popped send reaches the fabric
//! is the third difference, and it stays with the caller: [`StepCore::step`]
//! hands the message's handle back.

use tc_sim::{Arena, ArenaRef, Snap, SnapReader, SnapWith, SnapWriter, SnapshotError};
use tc_types::{
    AccessOutcome, BlockAddr, CoherenceController, Cycle, FastHashMap, Message, MissKind, MsgKind,
    NodeId, Outbox, Timer,
};

use crate::processor::Processor;
use crate::verify::VerifyOp;

/// A handle to a [`Message`] parked in a core's arena. The arena checks a
/// generation stamp on every access, so a handle that outlives its message
/// (a double-delivery bug) panics loudly instead of reading a recycled slot.
pub(crate) type MsgRef = ArenaRef;

/// Events driving the system.
///
/// Deliberately small plain-old-data (12 bytes): the queues move entries on
/// every push/pop/migration, so the (large) `Message` payloads live in the
/// core's [`Arena`] and events carry only a [`MsgRef`]. A message's slot is
/// occupied from the moment its `Send` is scheduled until its last `Deliver`
/// is handled; a fan-out (multicast/broadcast) parks one shared slot for all
/// of its deliveries — controllers receive `&Message`, so nothing is ever
/// cloned on the delivery path. A 24-byte [`Timer`] is parked the same way,
/// in an arena of its own, from its scheduling to its firing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    /// A processor is ready to issue its next operation.
    Wakeup(NodeId),
    /// A controller hands a message to the interconnect.
    Send(MsgRef),
    /// The interconnect delivers a message to a node.
    Deliver { node: NodeId, msg: MsgRef },
    /// A controller timer fires.
    Timer { node: NodeId, timer: ArenaRef },
}

// Every queue node is an event beside a `u32` link: 16 bytes.
const _: () = assert!(std::mem::size_of::<Event>() == 12);

/// One tag byte, then the variant's fields; a timer is written out of, and
/// re-parked into, the arena it waits in, so the bytes are the timer's own
/// (node, id, addr, kind) wherever it was parked.
impl SnapWith<Arena<Timer>> for Event {
    fn save_with(&self, w: &mut SnapWriter, timers: &Arena<Timer>) {
        match *self {
            Event::Wakeup(node) => {
                w.u8(0);
                node.save(w);
            }
            Event::Send(msg) => {
                w.u8(1);
                msg.save(w);
            }
            Event::Deliver { node, msg } => {
                w.u8(2);
                node.save(w);
                msg.save(w);
            }
            Event::Timer { node, timer } => {
                w.u8(3);
                node.save(w);
                timers.get(timer).save(w);
            }
        }
    }

    fn load_with(r: &mut SnapReader<'_>, timers: &mut Arena<Timer>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => Event::Wakeup(NodeId::load(r)?),
            1 => Event::Send(MsgRef::load(r)?),
            2 => Event::Deliver {
                node: NodeId::load(r)?,
                msg: MsgRef::load(r)?,
            },
            3 => Event::Timer {
                node: NodeId::load(r)?,
                timer: timers.insert(Timer::load(r)?),
            },
            tag => return Err(SnapshotError::Corrupt(format!("system event tag {tag}"))),
        })
    }
}

/// The two decisions an engine makes for the step core.
pub(crate) trait Scheduler {
    /// Queues `event` for cycle `at` on behalf of node `origin`. The serial
    /// engine pushes onto its calendar queue (ties pop FIFO); the windowed
    /// engine draws `origin`'s next canonical key (ties pop by key).
    fn schedule(&mut self, at: Cycle, origin: NodeId, event: Event);

    /// Routes one verifier call: applied on the spot (serial) or logged
    /// under the current event's canonical position for the coordinator to
    /// apply in merged order (windowed).
    fn verify(&mut self, op: VerifyOp);
}

/// The nodes `[lo, lo + controllers.len())` and everything they own.
#[derive(Debug)]
pub(crate) struct StepCore {
    lo: usize,
    block_bytes: u64,
    /// When set (`TC_TRACE_BLOCK` env var), every send/delivery touching this
    /// block is printed to stderr — the deterministic replay makes this a
    /// complete causal trace of one block's protocol activity.
    pub(crate) trace_block: Option<BlockAddr>,
    pub(crate) controllers: Vec<Box<dyn CoherenceController>>,
    pub(crate) processors: Vec<Processor>,
    /// Operations completed across these processors, maintained
    /// incrementally at hit/completion sites so the event loop never
    /// re-sums per node. Not saved: a restore sums the processors.
    pub(crate) completed_ops: u64,
    /// In-flight message payloads; events reference them by [`MsgRef`].
    pub(crate) messages: Arena<Message>,
    /// Armed timers, referenced by their `Timer` events. Kept apart from
    /// `messages`, whose high-water mark the report carries, and not
    /// saved: a snapshot writes each timer in its event.
    pub(crate) timers: Arena<Timer>,
    /// Every completed miss's end-to-end latency, for the report's
    /// p50/p99/max percentiles (the max doubles as the worst-case recovery
    /// latency under fault injection). Sized by the distinct latencies, not
    /// by the misses, so it stops growing once a run has seen its spread.
    pub(crate) miss_latency_samples: LatencyHistogram,
}

impl StepCore {
    /// A core over nodes `lo..lo + controllers.len()`, nothing in flight.
    pub(crate) fn new(
        lo: usize,
        block_bytes: u64,
        trace_block: Option<BlockAddr>,
        controllers: Vec<Box<dyn CoherenceController>>,
        processors: Vec<Processor>,
    ) -> Self {
        StepCore {
            lo,
            block_bytes,
            trace_block,
            controllers,
            processors,
            completed_ops: 0,
            messages: Arena::new(),
            timers: Arena::new(),
            miss_latency_samples: LatencyHistogram::default(),
        }
    }

    /// Carves this core's nodes into one fresh core per `[lo, hi)` range
    /// (contiguous, ascending, covering every node), leaving `self` empty
    /// for [`StepCore::absorb`] to refill.
    pub(crate) fn split(&mut self, ranges: &[(usize, usize)]) -> Vec<StepCore> {
        let (lo, block_bytes, trace_block) = (self.lo, self.block_bytes, self.trace_block);
        let whole = std::mem::replace(
            self,
            StepCore::new(lo, block_bytes, trace_block, Vec::new(), Vec::new()),
        );
        let mut controllers = whole.controllers.into_iter();
        let mut processors = whole.processors.into_iter();
        ranges
            .iter()
            .map(|&(lo, hi)| {
                StepCore::new(
                    lo,
                    block_bytes,
                    trace_block,
                    controllers.by_ref().take(hi - lo).collect(),
                    processors.by_ref().take(hi - lo).collect(),
                )
            })
            .collect()
    }

    /// Appends `part`'s nodes and tallies after this core's own. The arenas
    /// do not merge (handles are per-arena): read their marks off `part`
    /// first.
    pub(crate) fn absorb(&mut self, part: StepCore) {
        self.controllers.extend(part.controllers);
        self.processors.extend(part.processors);
        self.completed_ops += part.completed_ops;
        self.miss_latency_samples.absorb(part.miss_latency_samples);
    }

    /// The node indices this core owns.
    pub(crate) fn nodes(&self) -> std::ops::Range<usize> {
        self.lo..self.lo + self.controllers.len()
    }

    pub(crate) fn total_transactions(&self) -> u64 {
        self.processors.iter().map(|p| p.transactions()).sum()
    }

    /// Adds the tokens of every pending delivery among `events` to the
    /// final-audit map. Tokens in flight at quiescence are exactly the
    /// token counts of `Deliver` events still queued (their payloads are
    /// still parked in the arena); a message whose `Send` was never
    /// processed is deliberately *not* counted — its tokens were never
    /// injected into the fabric.
    pub(crate) fn add_in_flight<'a>(
        &self,
        events: impl Iterator<Item = &'a Event>,
        in_flight_tokens: &mut FastHashMap<BlockAddr, (i64, i64)>,
    ) {
        for event in events {
            if let Event::Deliver { msg, .. } = event {
                add_in_flight_tokens(in_flight_tokens, self.messages.get(*msg));
            }
        }
    }

    /// Handles one popped event. A popped `Send` returns its message's
    /// handle, still parked: the caller decides when it reaches the fabric
    /// (now, re-parked in place for its deliveries, or taken out for the
    /// window boundary).
    /// The handle rather than the message, because an 80-byte `Message`
    /// returned by value is copied twice more on the way to its next parking
    /// slot, which measured several percent on send-heavy protocols (Hammer
    /// at 16 nodes).
    ///
    /// Forced inline, with `processor_step`, into each engine's loop: left to
    /// the optimiser, `step` ended up out of line and the serial loop ran
    /// about 20% slower at 16 nodes.
    #[inline(always)]
    pub(crate) fn step<S: Scheduler>(
        &mut self,
        now: Cycle,
        event: Event,
        draining: bool,
        sched: &mut S,
        out: &mut Outbox,
    ) -> Option<MsgRef> {
        match event {
            Event::Wakeup(node) => {
                if !draining {
                    self.processor_step(now, node, sched, out);
                }
            }
            Event::Send(msg_ref) => {
                let msg = self.messages.get(msg_ref);
                if self.trace_block == Some(msg.addr) {
                    eprintln!("[{now}] SEND {msg} kind={:?}", msg.kind);
                }
                if matches!(msg.kind, MsgKind::PersistentRequest) {
                    // Fairness oracle: the bounded-wait clock starts at
                    // the first persistent request a (node, block) pair
                    // puts on the wire.
                    sched.verify(VerifyOp::Persistent {
                        node: msg.src,
                        addr: msg.addr,
                        at: now,
                    });
                }
                return Some(msg_ref);
            }
            Event::Deliver { node, msg: msg_ref } => {
                let msg = self.messages.get(msg_ref);
                if self.trace_block == Some(msg.addr) {
                    eprintln!("[{now}] DELIVER to {node} {msg} kind={:?}", msg.kind);
                }
                self.controllers[node.index() - self.lo].handle_message(now, msg, out);
                self.messages.release(msg_ref);
                self.process_outbox(now, node, sched, out);
            }
            Event::Timer { node, timer } => {
                let timer = self.timers.take(timer);
                self.controllers[node.index() - self.lo].handle_timer(now, timer, out);
                self.process_outbox(now, node, sched, out);
            }
        }
        None
    }

    #[inline(always)]
    fn processor_step<S: Scheduler>(
        &mut self,
        now: Cycle,
        node: NodeId,
        sched: &mut S,
        out: &mut Outbox,
    ) {
        let local = node.index() - self.lo;
        let Some((op, think)) = self.processors[local].next_issue() else {
            return;
        };
        let issue_time = now + think;
        let block = op.addr.block(self.block_bytes);
        let is_write = op.kind.is_write();
        let outcome = self.controllers[local].access(issue_time, &op, out);
        match outcome {
            AccessOutcome::Hit {
                latency,
                version,
                valid_since,
            } => {
                self.processors[local].note_hit();
                self.completed_ops += 1;
                let done_at = issue_time + latency;
                sched.verify(VerifyOp::Access {
                    node,
                    addr: block,
                    version,
                    is_write,
                    // A load's legality window opens at the serialization
                    // lower bound the protocol reports for the copy, not at
                    // the access: an unacknowledged snooping hit may legally
                    // observe a value a later-ordered remote write has
                    // already superseded, until the invalidation arrives
                    // (see `AccessOutcome::Hit`).
                    valid_since: valid_since.min(issue_time),
                    at: done_at,
                });
                sched.schedule(done_at.max(issue_time + 1), node, Event::Wakeup(node));
            }
            AccessOutcome::Miss => {
                self.processors[local].note_miss(op.id, issue_time, is_write);
                // Keep issuing under the miss (hit-under-miss and
                // miss-under-miss) until the processor blocks itself.
                sched.schedule(issue_time + 1, node, Event::Wakeup(node));
            }
        }
        self.process_outbox(now, node, sched, out);
    }

    /// Drains `out` into the scheduler and the verifier, keeping its
    /// allocations for reuse. A message is parked here and scheduled as a
    /// `Send`; it leaves the core when that event pops.
    fn process_outbox<S: Scheduler>(
        &mut self,
        now: Cycle,
        node: NodeId,
        sched: &mut S,
        out: &mut Outbox,
    ) {
        if out.is_empty() {
            return;
        }
        let local = node.index() - self.lo;
        for msg in out.messages.drain(..) {
            let at = msg.sent_at.max(now);
            let parked = self.messages.insert(msg);
            sched.schedule(at, node, Event::Send(parked));
        }
        for (at, timer) in out.timers.drain(..) {
            let timer = self.timers.insert(timer);
            sched.schedule(at.max(now), node, Event::Timer { node, timer });
        }
        for completion in out.completions.drain(..) {
            let latency = completion.completed_at.saturating_sub(completion.issued_at);
            self.miss_latency_samples.record(latency);
            let outcome = self.processors[local].note_completion(completion.req_id);
            // Fairness oracle: a completion on this (node, block) pair
            // stops its bounded-wait clock, if one was running.
            sched.verify(VerifyOp::Completion {
                node,
                addr: completion.addr,
                at: completion.completed_at,
            });
            // Classify by the original operation, not the miss (a store that
            // merged into a read miss is still a store); a stale completion
            // falls back to the miss.
            let is_write = outcome.map_or(completion.kind != MissKind::Read, |o| o.is_write);
            sched.verify(VerifyOp::Access {
                node,
                addr: completion.addr,
                version: completion.data_version,
                is_write,
                valid_since: completion.issued_at,
                at: completion.completed_at,
            });
            if let Some(outcome) = outcome {
                self.completed_ops += 1;
                if outcome.was_blocked {
                    sched.schedule(now + 1, node, Event::Wakeup(node));
                }
            }
        }
    }
}

/// A multiset of miss latencies, kept exactly as `latency -> count`: what
/// the sorted list of every sample would give, in memory that grows with the
/// distinct latencies only. Hashed, not ordered: a completion counts in
/// O(1), and only the report and a snapshot sort the distinct latencies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LatencyHistogram(FastHashMap<Cycle, u64>);

impl LatencyHistogram {
    /// Counts one sample.
    pub(crate) fn record(&mut self, latency: Cycle) {
        *self.0.entry(latency).or_insert(0) += 1;
    }

    /// Adds every sample of `other`.
    pub(crate) fn absorb(&mut self, other: LatencyHistogram) {
        for (latency, count) in other.0 {
            *self.0.entry(latency).or_insert(0) += count;
        }
    }

    /// `(p50, p99, max)`, each the sample at nearest rank `(n - 1) * p /
    /// 100` of the sorted samples; all 0 when there are none.
    pub(crate) fn percentiles(&self) -> (Cycle, Cycle, Cycle) {
        let mut sorted: Vec<(Cycle, u64)> = self.0.iter().map(|(&l, &c)| (l, c)).collect();
        sorted.sort_unstable();
        let n: u64 = sorted.iter().map(|&(_, count)| count).sum();
        let percentile = |p: u64| -> Cycle {
            let rank = n.saturating_sub(1) * p / 100;
            let mut seen = 0;
            for &(latency, count) in &sorted {
                seen += count;
                if seen > rank {
                    return latency;
                }
            }
            0
        };
        let max = sorted.last().map_or(0, |&(latency, _)| latency);
        (percentile(50), percentile(99), max)
    }
}

/// On the wire, the `(latency, count)` pairs in latency order. The load
/// refuses a latency out of order or repeated (the map's rule) and a zero
/// count: no writer makes either, and each would re-save to other bytes.
impl Snap for LatencyHistogram {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let counts = FastHashMap::<Cycle, u64>::load(r)?;
        if counts.values().any(|&count| count == 0) {
            return Err(SnapshotError::Corrupt(
                "miss-latency histogram count 0".into(),
            ));
        }
        Ok(LatencyHistogram(counts))
    }
}

/// Accumulates one in-flight message's token counts into the final-audit
/// map (total tokens, owner tokens) for its block.
pub(crate) fn add_in_flight_tokens(
    in_flight_tokens: &mut FastHashMap<BlockAddr, (i64, i64)>,
    msg: &Message,
) {
    let tokens = msg.kind.token_count() as i64;
    if tokens > 0 {
        let entry = in_flight_tokens.entry(msg.addr).or_insert((0, 0));
        entry.0 += tokens;
        if msg.kind.carries_owner_token() {
            entry.1 += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_sim::DeterministicRng;

    /// The report's percentiles as the sorted list of every sample gives
    /// them: nearest rank `(n - 1) * p / 100`, and the last sample.
    fn sorted_oracle(samples: &[Cycle]) -> (Cycle, Cycle, Cycle) {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let percentile = |p: usize| match sorted.len() {
            0 => 0,
            n => sorted[(n - 1) * p / 100],
        };
        let max = sorted.last().copied().unwrap_or(0);
        (percentile(50), percentile(99), max)
    }

    #[test]
    fn latency_histogram_percentiles_match_sorted_samples() {
        let mut rng = DeterministicRng::new(0x4157);
        let seeded: Vec<Cycle> = (0..5000)
            .map(|_| match rng.next_below(10) {
                0 => rng.next_range(1000, 40_000),
                _ => rng.next_range(40, 400),
            })
            .collect();
        let mut outlier = vec![120; 999];
        outlier.push(u64::MAX / 3);
        let cases: [(&str, Vec<Cycle>); 6] = [
            ("empty", vec![]),
            ("one sample", vec![77]),
            ("all ties", vec![250; 333]),
            ("two samples", vec![9, 3]),
            ("seeded", seeded),
            ("one huge outlier", outlier),
        ];
        for (what, samples) in cases {
            let mut whole = LatencyHistogram::default();
            samples.iter().for_each(|&l| whole.record(l));
            assert_eq!(whole.percentiles(), sorted_oracle(&samples), "{what}");
            // Split across two cores and absorbed, in either order.
            let (left, right) = samples.split_at(samples.len() / 3);
            let (mut a, mut b) = (LatencyHistogram::default(), LatencyHistogram::default());
            left.iter().for_each(|&l| a.record(l));
            right.iter().for_each(|&l| b.record(l));
            let mut ba = b.clone();
            ba.absorb(a.clone());
            a.absorb(b);
            assert_eq!((&a, &ba), (&whole, &whole), "{what}");
        }
    }

    #[test]
    fn latency_histogram_round_trips_and_refuses_corrupt_bytes() {
        let mut histogram = LatencyHistogram::default();
        for latency in [300, 12, 300, 7, 4_000_000, 12, 300] {
            histogram.record(latency);
        }
        tc_testkit::assert_snap_round_trip(&histogram);
        let mut w = SnapWriter::new();
        histogram.save(&mut w);
        let pairs = [(7u64, 1u64), (12, 2), (300, 3), (4_000_000, 1)];
        let mut expected = SnapWriter::new();
        pairs.to_vec().save(&mut expected);
        assert_eq!(
            w.into_bytes(),
            expected.into_bytes(),
            "sorted (latency, count) pairs"
        );
        for (what, pairs) in [
            ("out of order", vec![(12u64, 1u64), (7, 1)]),
            ("repeated latency", vec![(12, 1), (12, 1)]),
            ("zero count", vec![(7, 1), (12, 0)]),
        ] {
            let mut w = SnapWriter::new();
            pairs.save(&mut w);
            let loaded = LatencyHistogram::load(&mut SnapReader::new(&w.into_bytes()));
            assert!(
                matches!(loaded, Err(SnapshotError::Corrupt(_))),
                "{what}: {loaded:?}"
            );
        }
    }
}
