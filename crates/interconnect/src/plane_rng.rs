//! The RNG streams the fault and adversary planes draw from.

use tc_sim::{snap_struct, DeterministicRng};
use tc_types::NodeId;

/// One plane's private randomness: a single stream in the serial engine, or
/// one stream per source node under the sharded runner. Every node lives on
/// exactly one shard and a draw depends only on the source node's own
/// message sequence, so the per-node schedule is identical at every shard
/// count.
#[derive(Debug, PartialEq)]
pub(crate) struct PlaneRng {
    rng: DeterministicRng,
    /// Empty in single-stream mode.
    node_rngs: Vec<DeterministicRng>,
}

snap_struct!(PlaneRng { rng, node_rngs });

impl PlaneRng {
    /// The seed both modes fork from: the run seed with the spec's own seed
    /// folded in, so schedules vary independently of the workload.
    fn base(run_seed: u64, spec_seed: u64) -> DeterministicRng {
        DeterministicRng::new(run_seed ^ spec_seed.rotate_left(17))
    }

    /// The single stream, forked on the plane's `stream` tag so it never
    /// collides with the workload, pump, or the other plane's streams.
    pub(crate) fn new(run_seed: u64, spec_seed: u64, stream: u64) -> Self {
        PlaneRng {
            rng: Self::base(run_seed, spec_seed).fork(stream),
            node_rngs: Vec::new(),
        }
    }

    /// [`PlaneRng::new`] plus one stream per source node: node `n` draws
    /// from a stream forked off the same base on tag `stream ^ (n + 1)`,
    /// the stream-id scheme the workload generators use.
    pub(crate) fn new_per_node(
        run_seed: u64,
        spec_seed: u64,
        stream: u64,
        num_nodes: usize,
    ) -> Self {
        let mut base = Self::base(run_seed, spec_seed);
        PlaneRng {
            node_rngs: (0..num_nodes)
                .map(|n| base.fork(stream ^ (n as u64 + 1)))
                .collect(),
            ..PlaneRng::new(run_seed, spec_seed, stream)
        }
    }

    /// The stream a message from `src` draws from.
    #[inline]
    pub(crate) fn stream(&mut self, src: NodeId) -> &mut DeterministicRng {
        match self.node_rngs.is_empty() {
            true => &mut self.rng,
            false => &mut self.node_rngs[src.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_round_trip() {
        let mut single = PlaneRng::new(21, 5, 0xFA);
        single.stream(NodeId::new(3)).next_u64();
        tc_testkit::assert_snap_round_trip(&single);
        let mut per_node = PlaneRng::new_per_node(21, 5, 0xFA, 4);
        per_node.stream(NodeId::new(3)).next_u64();
        tc_testkit::assert_snap_round_trip(&per_node);
    }
}
