//! The fault plane: deterministic, seeded injection of message loss,
//! duplication, delay jitter, reordering, and link outages.
//!
//! The plane sits between [`Interconnect::send_arrivals`](
//! crate::Interconnect::send_arrivals) and the runner's arena parking step:
//! it rewrites the computed arrival list in place, so a dropped arrival is
//! simply never parked (the arena slot count shrinks) and a duplicated one
//! parks an extra generation-checked reference (the slot count grows). The
//! runner's existing `insert_shared(msg, arrivals.len())` call makes both
//! safe without any arena API changes.
//!
//! # Determinism contract
//!
//! The plane owns a [`DeterministicRng`] stream forked from
//! `(run seed, FaultSpec::seed)` and independent of the workload streams.
//! Arrivals are processed in the order the topology emitted them, and an
//! RNG draw happens *only* when the corresponding fault class is enabled in
//! the spec, tolerated by the protocol, and (for loss/duplication) the
//! message is eligible — all deterministic per `(protocol, message)` — so a
//! `(seed, FaultSpec)` pair reproduces the exact same fault sequence
//! bit-for-bit regardless of host, thread count, or wall-clock.

use tc_sim::{snap_state, DeterministicRng};
use tc_types::fault::{FaultSpec, FaultStats};
use tc_types::{Cycle, Message, NodeId, ProtocolKind};

use crate::plane_rng::PlaneRng;

/// Distinct stream tag so the fault RNG never collides with the workload or
/// pump streams forked from the same run seed.
const FAULT_STREAM: u64 = 0xFA_17_B1_A5;

/// Executes a [`FaultSpec`] against every send's computed arrival list.
///
/// One plane exists per run (only when the spec is non-empty); it carries
/// the spec, its private RNG stream, and the accumulated [`FaultStats`].
#[derive(Debug)]
pub struct FaultPlane {
    spec: FaultSpec,
    protocol: ProtocolKind,
    rngs: PlaneRng,
    stats: FaultStats,
    /// Skew quantum for reorder/duplicate scheduling, set to the link
    /// latency so one reorder step is one link hop of displacement.
    quantum: u64,
    /// Scratch buffer reused across `apply` calls.
    scratch: Vec<(Cycle, NodeId)>,
}

impl FaultPlane {
    /// Creates the plane for one run.
    ///
    /// `run_seed` is the system config's seed; the spec's own seed is
    /// folded in so fault schedules can be varied independently of the
    /// workload. `link_latency_ns` becomes the reorder/duplication skew
    /// quantum.
    pub fn new(
        spec: FaultSpec,
        protocol: ProtocolKind,
        run_seed: u64,
        link_latency_ns: u64,
    ) -> Self {
        FaultPlane {
            spec,
            protocol,
            rngs: PlaneRng::new(run_seed, spec.seed, FAULT_STREAM),
            stats: FaultStats::default(),
            quantum: link_latency_ns.max(1),
            scratch: Vec::new(),
        }
    }

    /// [`FaultPlane::new`] in per-source-node stream mode, for the sharded
    /// runner (see `PlaneRng::new_per_node`). Same `(seed, spec)` ⇒ same
    /// per-node fault schedule, at any shard count.
    pub fn new_per_node(
        spec: FaultSpec,
        protocol: ProtocolKind,
        run_seed: u64,
        link_latency_ns: u64,
        num_nodes: usize,
    ) -> Self {
        FaultPlane {
            rngs: PlaneRng::new_per_node(run_seed, spec.seed, FAULT_STREAM, num_nodes),
            ..FaultPlane::new(spec, protocol, run_seed, link_latency_ns)
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Mutable access to the counters, for recovery-side numbers (reissues
    /// sent, persistent activations) that the runner observes rather than
    /// the plane itself.
    pub fn stats_mut(&mut self) -> &mut FaultStats {
        &mut self.stats
    }

    #[inline]
    fn roll(rng: &mut DeterministicRng, ppm: u32) -> bool {
        rng.next_below(u64::from(tc_types::fault::PPM)) < u64::from(ppm)
    }

    /// Rewrites `arrivals` (as produced by `send_arrivals` for `msg` at
    /// time `now`) according to the spec. Entries may be removed (drops),
    /// added (duplicates), or have their arrival time moved later (delay,
    /// reorder, link-outage deferral). Arrival times never move earlier
    /// than the fault-free schedule, so causality is preserved.
    pub fn apply(&mut self, now: Cycle, msg: &Message, arrivals: &mut Vec<(Cycle, NodeId)>) {
        let _ = now;
        let loss_ok = (self.spec.drop_ppm > 0 || self.spec.dup_ppm > 0)
            && FaultSpec::loss_eligible(self.protocol, msg);
        let src = msg.src.index() as u32;
        let rng = self.rngs.stream(msg.src);

        self.scratch.clear();
        for &(original_at, node) in arrivals.iter() {
            let mut at = original_at;

            // Link outage: defer the arrival past the window, with a small
            // jitter so a burst of deferred messages does not collapse onto
            // one cycle.
            if let Some(until) = outage_until(&self.spec, src, node.index() as u32, at) {
                at = until + 1 + rng.next_below(self.quantum);
                self.stats.link_deferred += 1;
            }

            // Drop: the arrival is never parked.
            if loss_ok && self.spec.drop_ppm > 0 && Self::roll(rng, self.spec.drop_ppm) {
                self.stats.dropped += 1;
                continue;
            }

            // Delay jitter.
            if self.spec.delay_ppm > 0 && Self::roll(rng, self.spec.delay_ppm) {
                at += 1 + rng.next_below(self.spec.delay_max_ns.max(1));
                self.stats.delayed += 1;
            }

            // Reorder: skew every arrival by up to `depth` link quanta, so
            // messages on the same path can overtake each other.
            if self.spec.reorder_depth > 0 {
                let skew = rng.next_below(u64::from(self.spec.reorder_depth) + 1);
                if skew > 0 {
                    at += skew * self.quantum;
                    self.stats.reordered += 1;
                }
            }

            self.scratch.push((at, node));

            // Duplicate: a second copy of this arrival, skewed later.
            if loss_ok && self.spec.dup_ppm > 0 && Self::roll(rng, self.spec.dup_ppm) {
                let skew = 1 + rng.next_below(2 * self.quantum);
                self.scratch.push((at + skew, node));
                self.stats.duplicated += 1;
            }
        }
        std::mem::swap(arrivals, &mut self.scratch);
    }
}

// Spec, protocol and quantum are config-derived.
snap_state!(FaultPlane { rngs, stats });

/// If the `src -> dst` arrival at `at` crosses a downed link, returns the
/// end of the longest covering outage window.
fn outage_until(spec: &FaultSpec, src: u32, dst: u32, at: Cycle) -> Option<Cycle> {
    let mut until = None;
    for outage in spec.outages.iter().flatten() {
        if outage.covers(src, dst, at) {
            until = Some(until.map_or(outage.until, |u: Cycle| u.max(outage.until)));
        }
    }
    until
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{BlockAddr, Destination, MsgKind, Vnet};

    /// TokenB's transient request from `src`: the plane reads only its
    /// source and kind, the arrivals it is given are its destinations.
    fn request(src: usize) -> Message {
        Message::new(
            NodeId::new(src),
            Destination::AllBut(NodeId::new(src)),
            BlockAddr::new(7),
            MsgKind::GetM,
            Vnet::Request,
            100,
        )
    }

    fn token_response(src: usize, dest: usize) -> Message {
        Message::new(
            NodeId::new(src),
            Destination::Node(NodeId::new(dest)),
            BlockAddr::new(7),
            MsgKind::TokenOnly { tokens: 2 },
            Vnet::Response,
            100,
        )
    }

    fn arrivals(n: usize) -> Vec<(Cycle, NodeId)> {
        (0..n)
            .map(|i| (100 + 15 * i as u64, NodeId::new(i)))
            .collect()
    }

    #[test]
    fn same_seed_and_spec_replay_identically() {
        let spec = FaultSpec::none()
            .with_drop(0.2)
            .with_dup(0.2)
            .with_delay(0.3, 90)
            .with_reorder(3);
        let run = |seed: u64| {
            let mut plane = FaultPlane::new(spec, ProtocolKind::TokenB, seed, 15);
            let mut log = Vec::new();
            for step in 0..200 {
                let msg = request(step % 4);
                let mut a = arrivals(4);
                plane.apply(100, &msg, &mut a);
                log.push(a);
            }
            (log, plane.stats())
        };
        assert_eq!(run(12), run(12));
        assert_ne!(run(12), run(13), "different seeds should differ");
    }

    #[test]
    fn fault_seed_varies_the_schedule_independently() {
        let base = FaultSpec::none().with_drop(0.5);
        let mut a = FaultPlane::new(base, ProtocolKind::TokenB, 12, 15);
        let mut b = FaultPlane::new(base.with_seed(99), ProtocolKind::TokenB, 12, 15);
        let msg = request(0);
        let (mut la, mut lb) = (Vec::new(), Vec::new());
        for _ in 0..64 {
            let mut x = arrivals(4);
            a.apply(100, &msg, &mut x);
            la.push(x);
            let mut y = arrivals(4);
            b.apply(100, &msg, &mut y);
            lb.push(y);
        }
        assert_ne!(la, lb);
    }

    #[test]
    fn token_carrying_messages_are_never_dropped_or_duplicated() {
        let spec = FaultSpec::none().with_drop(1.0).with_dup(1.0);
        let mut plane = FaultPlane::new(spec, ProtocolKind::TokenB, 1, 15);
        let msg = token_response(1, 0);
        let mut a = arrivals(1);
        plane.apply(100, &msg, &mut a);
        assert_eq!(a, arrivals(1), "token response must pass untouched");
        assert_eq!(plane.stats().dropped, 0);
        assert_eq!(plane.stats().duplicated, 0);

        // A transient request under the same spec is always dropped.
        let mut a = arrivals(3);
        plane.apply(100, &request(0), &mut a);
        assert!(a.is_empty());
        assert_eq!(plane.stats().dropped, 3);
    }

    #[test]
    fn duplicates_grow_the_arrival_list_and_land_later() {
        let spec = FaultSpec::none().with_dup(1.0);
        let mut plane = FaultPlane::new(spec, ProtocolKind::TokenB, 5, 15);
        let mut a = arrivals(2);
        plane.apply(100, &request(0), &mut a);
        assert_eq!(a.len(), 4);
        assert!(a[1].0 > a[0].0, "copy arrives strictly after the original");
        assert_eq!(a[0].1, a[1].1, "copy goes to the same node");
        assert_eq!(plane.stats().duplicated, 2);
    }

    #[test]
    fn delay_and_reorder_never_move_arrivals_earlier() {
        let spec = FaultSpec::none().with_delay(1.0, 120).with_reorder(4);
        let mut plane = FaultPlane::new(spec, ProtocolKind::Hammer, 5, 15);
        for step in 0..100 {
            let before = arrivals(4);
            let mut after = before.clone();
            plane.apply(100 + step, &request(step as usize % 4), &mut after);
            assert_eq!(after.len(), before.len());
            for (b, a) in before.iter().zip(&after) {
                assert!(a.0 >= b.0, "arrival moved earlier: {b:?} -> {a:?}");
            }
        }
        assert!(plane.stats().delayed > 0);
        assert!(plane.stats().reordered > 0);
    }

    #[test]
    fn link_outage_defers_arrivals_past_the_window_in_both_directions() {
        let spec = FaultSpec::none().with_outage(0, 2, 50, 500);
        let mut plane = FaultPlane::new(spec, ProtocolKind::TokenB, 9, 15);

        // src 0 -> node 2 inside the window: deferred past cycle 500.
        let mut a = vec![(100, NodeId::new(2))];
        plane.apply(100, &request(0), &mut a);
        assert!(a[0].0 > 500, "arrival not deferred: {:?}", a);

        // Reverse direction is the same link.
        let mut a = vec![(100, NodeId::new(0))];
        plane.apply(100, &request(2), &mut a);
        assert!(a[0].0 > 500);

        // Outside the window: untouched.
        let mut a = vec![(600, NodeId::new(2))];
        plane.apply(600, &request(0), &mut a);
        assert_eq!(a, vec![(600, NodeId::new(2))]);

        // Unrelated pair: untouched.
        let mut a = vec![(100, NodeId::new(3))];
        plane.apply(100, &request(0), &mut a);
        assert_eq!(a, vec![(100, NodeId::new(3))]);

        assert_eq!(plane.stats().link_deferred, 2);
    }

    #[test]
    fn empty_spec_plane_is_a_no_op() {
        let mut plane = FaultPlane::new(FaultSpec::none(), ProtocolKind::TokenB, 3, 15);
        let mut a = arrivals(4);
        plane.apply(100, &request(0), &mut a);
        assert_eq!(a, arrivals(4));
        assert_eq!(plane.stats(), FaultStats::default());
    }
}
