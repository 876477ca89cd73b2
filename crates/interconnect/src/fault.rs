//! The perturbation plane: deterministic, seeded rewriting of every send's
//! arrival list, in two stages.
//!
//! The plane sits between [`Interconnect::send_arrivals`](
//! crate::Interconnect::send_arrivals) and the runner's arena parking step
//! and rewrites the computed arrival list in place:
//!
//! 1. The **fault stage** ([`FaultSpec`]) injects message loss,
//!    duplication, delay jitter, reordering, and link outages. A dropped
//!    arrival is simply never parked (the arena slot count shrinks) and a
//!    duplicated one parks an extra generation-checked reference (the slot
//!    count grows). The runner's existing `insert_shared(msg,
//!    arrivals.len())` call makes both safe without any arena API changes.
//! 2. The **adversary stage** ([`AdversarySpec`]) then runs over the
//!    arrivals that survived the fault stage, duplicates included, in
//!    output order. It is strictly weaker than a fault: it never adds or
//!    removes an arrival, it only moves one **later**. Every schedule it
//!    produces is one an unordered interconnect could have produced on its
//!    own (congestion, routing, buffering), so a protocol that breaks under
//!    it is broken, full stop — there is no fault contract to hide behind.
//!
//! A stage exists only when its spec perturbs something, and keeps its own
//! counters ([`FaultStats`], [`AdversaryStats`]).
//!
//! # Determinism contract
//!
//! Each stage owns a [`DeterministicRng`] stream forked from `(run seed,
//! spec seed)` on its own stream tag, independent of the workload streams
//! and of the other stage. Arrivals are processed in the order the topology
//! emitted them, and an RNG draw happens *only* when the corresponding
//! class is enabled in the spec and (for loss/duplication) the message is
//! eligible — all deterministic per message — so a `(seed, FaultSpec,
//! AdversarySpec)` triple reproduces the exact same schedule bit-for-bit
//! regardless of host, thread count, or wall-clock.

use tc_sim::{snap_state, DeterministicRng};
use tc_types::adversary::{AdversarySpec, AdversaryStats};
use tc_types::fault::{FaultSpec, FaultStats};
use tc_types::{Cycle, Message, NodeId, ProtocolKind};

use crate::adversary::AdversaryStage;
use crate::plane_rng::PlaneRng;

/// Distinct stream tags so neither stage's RNG collides with the workload
/// or pump streams forked from the same run seed, nor with each other.
const FAULT_STREAM: u64 = 0xFA_17_B1_A5;
const ADVERSARY_STREAM: u64 = 0xAD_5E_47_21;

/// Executes a [`FaultSpec`] and an [`AdversarySpec`], in that order,
/// against every send's computed arrival list.
///
/// One plane exists per run; it carries each armed stage's spec, private
/// RNG stream, and accumulated counters.
#[derive(Debug)]
pub struct FaultPlane {
    fault_stage: Option<FaultStage>,
    adversary_stage: Option<AdversaryStage>,
    /// Skew quantum for reorder/duplicate scheduling, set to the link
    /// latency so one reorder step is one link hop of displacement.
    quantum: u64,
    /// Scratch buffer reused across `apply` calls.
    scratch: Vec<(Cycle, NodeId)>,
}

#[derive(Debug)]
struct FaultStage {
    spec: FaultSpec,
    rngs: PlaneRng,
    stats: FaultStats,
}

impl FaultPlane {
    /// A plane with the fault stage alone: [`FaultPlane::armed`] with no
    /// adversary, one RNG stream.
    pub fn new(
        spec: FaultSpec,
        protocol: ProtocolKind,
        run_seed: u64,
        link_latency_ns: u64,
    ) -> Self {
        FaultPlane::armed(
            spec,
            AdversarySpec::none(),
            protocol,
            run_seed,
            link_latency_ns,
            0,
        )
    }

    /// Creates the plane for one run, with a stage for each spec that
    /// perturbs something.
    ///
    /// `run_seed` is the system config's seed; each spec's own seed is
    /// folded in so its schedule can be varied independently of the
    /// workload. `link_latency_ns` becomes the skew quantum.
    /// `per_node_streams` is 0 for one RNG stream per stage (the serial
    /// engine), or the node count for one stream per source node (the
    /// sharded runner, see `PlaneRng::new`): same `(seed, specs)` ⇒ same
    /// per-node schedule, at any shard count. Every run, serial, windowed
    /// or restored, arms its plane here, so here the contract holds: it
    /// panics when `protocol` does not [admit](ProtocolKind::admits) the
    /// specs, which every boundary refuses first.
    pub fn armed(
        faults: FaultSpec,
        adversary: AdversarySpec,
        protocol: ProtocolKind,
        run_seed: u64,
        link_latency_ns: u64,
        per_node_streams: usize,
    ) -> Self {
        if let Err(refusal) = protocol.admits(&faults, &adversary) {
            panic!("{}: {}", refusal.spec, refusal.message);
        }
        let rngs = |seed, stream| PlaneRng::new(run_seed, seed, stream, per_node_streams);
        FaultPlane {
            fault_stage: (!faults.is_none()).then(|| FaultStage {
                spec: faults,
                rngs: rngs(faults.seed, FAULT_STREAM),
                stats: FaultStats::default(),
            }),
            adversary_stage: (!adversary.is_none()).then(|| AdversaryStage {
                spec: adversary,
                rngs: rngs(adversary.seed, ADVERSARY_STREAM),
                stats: AdversaryStats::default(),
            }),
            quantum: link_latency_ns.max(1),
            scratch: Vec::new(),
        }
    }

    /// The fault stage's counters so far (all zero when it is not armed).
    pub fn stats(&self) -> FaultStats {
        self.fault_stage
            .as_ref()
            .map(|s| s.stats)
            .unwrap_or_default()
    }

    /// The adversary stage's counters so far (all zero when it is not
    /// armed).
    pub fn adversary_stats(&self) -> AdversaryStats {
        self.adversary_stage
            .as_ref()
            .map(|s| s.stats)
            .unwrap_or_default()
    }

    /// Rewrites `arrivals` (as produced by `send_arrivals` for `msg` at
    /// time `now`): the fault stage may remove entries (drops), add them
    /// (duplicates), or move their arrival times later (delay, reorder,
    /// link-outage deferral); the adversary stage then only moves times
    /// later. Arrival times never move earlier than the fault-free
    /// schedule, so causality is preserved. A plane with no stage armed
    /// costs two `Option` checks.
    #[inline]
    pub fn apply(&mut self, now: Cycle, msg: &Message, arrivals: &mut Vec<(Cycle, NodeId)>) {
        let _ = now;
        if let Some(stage) = self.fault_stage.as_mut() {
            stage.apply(self.quantum, msg, arrivals, &mut self.scratch);
        }
        if let Some(stage) = self.adversary_stage.as_mut() {
            stage.apply(self.quantum, msg, arrivals);
        }
    }
}

#[inline]
fn roll(rng: &mut DeterministicRng, ppm: u32) -> bool {
    rng.next_below(u64::from(tc_types::fault::PPM)) < u64::from(ppm)
}

impl FaultStage {
    fn apply(
        &mut self,
        quantum: u64,
        msg: &Message,
        arrivals: &mut Vec<(Cycle, NodeId)>,
        scratch: &mut Vec<(Cycle, NodeId)>,
    ) {
        // A reissued transient request is a reissue timeout that fired.
        if msg.reissue {
            self.stats.reissue_timeouts += 1;
        }
        let loss_ok =
            (self.spec.drop_ppm > 0 || self.spec.dup_ppm > 0) && FaultSpec::loss_eligible(msg);
        let src = msg.src.index() as u32;
        let rng = self.rngs.stream(msg.src);

        scratch.clear();
        for &(original_at, node) in arrivals.iter() {
            let mut at = original_at;

            // Link outage: defer the arrival past the window, with a small
            // jitter so a burst of deferred messages does not collapse onto
            // one cycle.
            if let Some(until) = outage_until(&self.spec, src, node.index() as u32, at) {
                at = until + 1 + rng.next_below(quantum);
                self.stats.link_deferred += 1;
            }

            // Drop: the arrival is never parked.
            if loss_ok && self.spec.drop_ppm > 0 && roll(rng, self.spec.drop_ppm) {
                self.stats.dropped += 1;
                continue;
            }

            // Delay jitter.
            if self.spec.delay_ppm > 0 && roll(rng, self.spec.delay_ppm) {
                at += 1 + rng.next_below(self.spec.delay_max_ns.max(1));
                self.stats.delayed += 1;
            }

            // Reorder: skew every arrival by up to `depth` link quanta, so
            // messages on the same path can overtake each other.
            if self.spec.reorder_depth > 0 {
                let skew = rng.next_below(u64::from(self.spec.reorder_depth) + 1);
                if skew > 0 {
                    at += skew * quantum;
                    self.stats.reordered += 1;
                }
            }

            scratch.push((at, node));

            // Duplicate: a second copy of this arrival, skewed later.
            if loss_ok && self.spec.dup_ppm > 0 && roll(rng, self.spec.dup_ppm) {
                let skew = 1 + rng.next_below(2 * quantum);
                scratch.push((at + skew, node));
                self.stats.duplicated += 1;
            }
        }
        std::mem::swap(arrivals, scratch);
    }
}

// Specs and quantum are config-derived. Each stage is restored
// onto the one the run's specs arm: a snapshot that has a stage the specs
// do not arm, or lacks one they do, is corrupt.
snap_state!(FaultStage { rngs, stats });
snap_state!(AdversaryStage { rngs, stats });
snap_state!(FaultPlane {
    [fault_stage],
    [adversary_stage],
});

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

    /// The contract is checked where the plane is armed, for both stages.
    #[test]
    #[should_panic(expected = "adversary: Snooping does not tolerate reorder faults")]
    fn an_out_of_contract_spec_panics_where_the_plane_is_armed() {
        let (none, snooping) = (FaultSpec::none(), ProtocolKind::Snooping);
        let reorder = AdversarySpec::none().with_reorder(3);
        FaultPlane::armed(none, reorder, snooping, 1, 15, 0);
    }

    #[test]
    #[should_panic(expected = "faults: Hammer does not tolerate drop faults")]
    fn an_out_of_contract_fault_spec_panics_on_the_benchmarks_constructor() {
        let drop = FaultSpec::none().with_drop(0.1);
        FaultPlane::new(drop, ProtocolKind::Hammer, 1, 15);
    }

    /// The two stages compose exactly as two planes applied in turn: the
    /// adversary stage runs over the fault stage's output, duplicates
    /// included, on its own stream.
    #[test]
    fn both_stages_equal_the_fault_stage_then_the_adversary_stage() {
        let faults = FaultSpec::none()
            .with_drop(0.2)
            .with_dup(0.3)
            .with_reorder(2);
        let adversary = AdversarySpec::none()
            .with_reorder(3)
            .with_victim(1, 7)
            .with_target_delay(200);
        let (none, tokenb) = (FaultSpec::none(), ProtocolKind::TokenB);
        let mut both = FaultPlane::armed(faults, adversary, tokenb, 12, 15, 0);
        let mut first = FaultPlane::new(faults, tokenb, 12, 15);
        let mut second = FaultPlane::armed(none, adversary, tokenb, 12, 15, 0);
        for step in 0..200 {
            let msg = request(step % 4);
            let mut a = arrivals(4);
            both.apply(100, &msg, &mut a);
            let mut b = arrivals(4);
            first.apply(100, &msg, &mut b);
            second.apply(100, &msg, &mut b);
            assert_eq!(a, b);
        }
        assert_eq!(both.stats(), first.stats());
        assert_eq!(both.adversary_stats(), second.adversary_stats());
        assert!(both.stats().duplicated > 0 && both.adversary_stats().targeted > 0);
    }
}
