//! The perturbation plane's second stage; [`crate::fault`] describes both
//! stages, their order and their determinism contract.

use tc_types::adversary::{AdversarySpec, AdversaryStats};
use tc_types::{BlockAddr, Cycle, Message, MsgKind, NodeId};

use crate::plane_rng::PlaneRng;

/// An armed [`AdversarySpec`]: its spec, private RNG stream and counters.
#[derive(Debug)]
pub(crate) struct AdversaryStage {
    pub(crate) spec: AdversarySpec,
    pub(crate) rngs: PlaneRng,
    pub(crate) stats: AdversaryStats,
}

impl AdversaryStage {
    pub(crate) fn apply(&mut self, quantum: u64, msg: &Message, arrivals: &mut [(Cycle, NodeId)]) {
        let on_victim_block = msg.addr == BlockAddr::new(self.spec.victim_block);
        let victim_node = self.spec.victim_node as usize;
        // A competing request: write-racing traffic for the victim block
        // from anyone *other* than the victim — the raw material of a
        // retry storm.
        let competing = on_victim_block
            && msg.src.index() != victim_node
            && matches!(msg.kind, MsgKind::GetM | MsgKind::GetS);
        let rng = self.rngs.stream(msg.src);

        for (at, node) in arrivals.iter_mut() {
            let original_at = *at;

            // Reorder: skew every arrival by up to `window` link quanta.
            if self.spec.reorder_window > 0 {
                let skew = rng.next_below(u64::from(self.spec.reorder_window) + 1);
                if skew > 0 {
                    *at += skew * quantum;
                    self.stats.reordered += 1;
                }
            }

            // Targeted delay: anything on the victim block travelling to or
            // from the victim node — its outbound requests and its inbound
            // responses — is pushed later by a bounded random amount.
            if self.spec.target_delay_ns > 0
                && on_victim_block
                && (msg.src.index() == victim_node || node.index() == victim_node)
            {
                *at += 1 + rng.next_below(u64::from(self.spec.target_delay_ns));
                self.stats.targeted += 1;
            }

            // Retry storm: competing requests for the victim block are
            // aligned to land just before the next storm-window boundary,
            // so they arrive in synchronized bursts timed against the
            // victim's reissue cadence instead of spreading out.
            if self.spec.storm_window_ns > 0 && competing {
                let w = u64::from(self.spec.storm_window_ns);
                let aligned = (*at / w + 1) * w - 1;
                debug_assert!(aligned >= *at);
                *at = aligned;
                self.stats.stormed += 1;
            }

            self.stats.max_skew_ns = self.stats.max_skew_ns.max(*at - original_at);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The stage's own tests, on a plane with no fault stage.
    use super::*;
    use crate::FaultPlane;
    use tc_sim::{SnapReader, SnapState, SnapWriter};
    use tc_types::fault::FaultSpec;
    use tc_types::{Destination, ProtocolKind, Vnet};

    fn arrivals(n: usize) -> Vec<(Cycle, NodeId)> {
        (0..n)
            .map(|i| (100 + 15 * i as u64, NodeId::new(i)))
            .collect()
    }

    fn adversary(spec: AdversarySpec, seed: u64, link_latency_ns: u64) -> FaultPlane {
        let none = FaultSpec::none();
        FaultPlane::armed(none, spec, ProtocolKind::TokenB, seed, link_latency_ns, 0)
    }

    fn request(src: usize, block: u64, kind: MsgKind) -> Message {
        Message::new(
            NodeId::new(src),
            Destination::AllBut(NodeId::new(src)),
            BlockAddr::new(block),
            kind,
            Vnet::Request,
            100,
        )
    }

    #[test]
    fn same_seed_and_spec_replay_identically() {
        let spec = AdversarySpec::none()
            .with_reorder(3)
            .with_victim(1, 7)
            .with_target_delay(200)
            .with_storm(450);
        let run = |seed: u64| {
            let mut plane = adversary(spec, seed, 15);
            let mut log = Vec::new();
            for step in 0..200 {
                let msg = request(step % 4, 7, MsgKind::GetM);
                let mut a = arrivals(4);
                plane.apply(100, &msg, &mut a);
                log.push(a);
            }
            (log, plane.adversary_stats())
        };
        assert_eq!(run(12), run(12));
        assert_ne!(run(12), run(13), "different seeds should differ");
    }

    #[test]
    fn adversary_seed_varies_the_schedule_independently() {
        let base = AdversarySpec::none().with_reorder(4);
        let mut a = adversary(base, 12, 15);
        let mut b = adversary(base.with_seed(99), 12, 15);
        let msg = request(0, 7, MsgKind::GetM);
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
    fn arrivals_never_move_earlier_and_are_never_added_or_removed() {
        let spec = AdversarySpec::none()
            .with_reorder(4)
            .with_victim(2, 7)
            .with_target_delay(300)
            .with_storm(500);
        let mut plane = adversary(spec, 5, 15);
        for step in 0..200 {
            let before = arrivals(4);
            let mut after = before.clone();
            let kind = if step % 2 == 0 {
                MsgKind::GetM
            } else {
                MsgKind::GetS
            };
            plane.apply(100 + step, &request(step as usize % 4, 7, kind), &mut after);
            assert_eq!(after.len(), before.len());
            for (b, a) in before.iter().zip(&after) {
                assert!(a.0 >= b.0, "arrival moved earlier: {b:?} -> {a:?}");
                assert_eq!(a.1, b.1, "adversary must not reroute arrivals");
            }
        }
        assert!(plane.adversary_stats().reordered > 0);
        assert!(plane.adversary_stats().targeted > 0);
        assert!(plane.adversary_stats().stormed > 0);
        assert!(plane.adversary_stats().max_skew_ns > 0);
    }

    #[test]
    fn targeted_delay_hits_only_victim_traffic() {
        let spec = AdversarySpec::none()
            .with_victim(2, 7)
            .with_target_delay(300);
        let mut plane = adversary(spec, 9, 15);

        // Victim's own request on the victim block: delayed at every node.
        let mut a = arrivals(4);
        plane.apply(100, &request(2, 7, MsgKind::GetM), &mut a);
        assert!(a.iter().zip(arrivals(4)).all(|(got, was)| got.0 > was.0));

        // Another node's request on the victim block: only the arrival *at*
        // the victim is delayed (its response path), the rest untouched.
        let mut a = arrivals(4);
        plane.apply(100, &request(0, 7, MsgKind::GetM), &mut a);
        for (i, (got, was)) in a.iter().zip(arrivals(4)).enumerate() {
            if i == 2 {
                assert!(got.0 > was.0);
            } else {
                assert_eq!(got.0, was.0);
            }
        }

        // A different block: untouched entirely.
        let mut a = arrivals(4);
        plane.apply(100, &request(2, 8, MsgKind::GetM), &mut a);
        assert_eq!(a, arrivals(4));
    }

    #[test]
    fn storms_align_competing_requests_to_window_boundaries() {
        let spec = AdversarySpec::none().with_victim(2, 7).with_storm(500);
        let mut plane = adversary(spec, 9, 15);

        // Competing GetM from a non-victim: aligned to just before the next
        // 500 ns boundary.
        let mut a = vec![(120, NodeId::new(1)), (820, NodeId::new(3))];
        plane.apply(100, &request(0, 7, MsgKind::GetM), &mut a);
        assert_eq!(a[0].0, 499);
        assert_eq!(a[1].0, 999);

        // The victim's own request is not storm-aligned.
        let mut a = vec![(120, NodeId::new(1))];
        plane.apply(100, &request(2, 7, MsgKind::GetM), &mut a);
        assert_eq!(a[0].0, 120);

        // Non-request traffic is not storm-aligned.
        let mut a = vec![(120, NodeId::new(1))];
        plane.apply(100, &request(0, 7, MsgKind::PutM), &mut a);
        assert_eq!(a[0].0, 120);
        assert_eq!(plane.adversary_stats().stormed, 2);
    }

    #[test]
    fn empty_spec_plane_is_a_no_op() {
        let mut plane = adversary(AdversarySpec::none(), 3, 15);
        let mut a = arrivals(4);
        plane.apply(100, &request(0, 7, MsgKind::GetM), &mut a);
        assert_eq!(a, arrivals(4));
        assert_eq!(plane.adversary_stats(), AdversaryStats::default());
    }

    #[test]
    fn state_round_trips_and_resumes_the_stream() {
        let spec = AdversarySpec::none().with_reorder(4);
        let mut plane = adversary(spec, 21, 15);
        for _ in 0..32 {
            let mut a = arrivals(4);
            plane.apply(100, &request(0, 7, MsgKind::GetM), &mut a);
        }
        let mut w = SnapWriter::new();
        plane.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = adversary(spec, 21, 15);
        let mut r = SnapReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.adversary_stats(), plane.adversary_stats());

        // Both planes continue identically from the restored stream.
        for _ in 0..32 {
            let mut x = arrivals(4);
            plane.apply(100, &request(1, 7, MsgKind::GetM), &mut x);
            let mut y = arrivals(4);
            restored.apply(100, &request(1, 7, MsgKind::GetM), &mut y);
            assert_eq!(x, y);
        }
    }
}
