//! The RNG streams the perturbation plane's two stages draw from.

use tc_sim::{snap_struct, DeterministicRng};
use tc_types::NodeId;

/// One stage's private randomness: a single stream in the serial engine, or
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
    /// A stage's streams, forked on its `stream` tag so they never collide
    /// with the workload, explorer-walk, or the other stage's streams, off a
    /// base of the run seed with the spec's own seed folded in (so schedules
    /// vary independently of the workload). `per_node_streams` is 0 for the one
    /// stream; otherwise node `n` also gets a stream forked off a fresh
    /// base on tag `stream ^ (n + 1)`, the stream-id scheme the workload
    /// generators use.
    pub(crate) fn new(run_seed: u64, spec_seed: u64, stream: u64, per_node_streams: usize) -> Self {
        let base = || DeterministicRng::new(run_seed ^ spec_seed.rotate_left(17));
        let mut nodes = base();
        PlaneRng {
            rng: base().fork(stream),
            node_rngs: (0..per_node_streams)
                .map(|n| nodes.fork(stream ^ (n as u64 + 1)))
                .collect(),
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
        let mut single = PlaneRng::new(21, 5, 0xFA, 0);
        single.stream(NodeId::new(3)).next_u64();
        tc_testkit::assert_snap_round_trip(&single);
        let mut per_node = PlaneRng::new(21, 5, 0xFA, 4);
        per_node.stream(NodeId::new(3)).next_u64();
        tc_testkit::assert_snap_round_trip(&per_node);
    }
}
