//! Property test: the ordered tree delivers broadcasts in one total order —
//! to *every* node, *including the sender itself*, under link contention.
//!
//! This is the property the snooping protocol's races and writeback-ack
//! handshake are resolved against, and it is easy to lose: an earlier fabric
//! version delivered a node's own broadcast with a fixed four-crossing
//! latency instead of routing it through the real (contended) root links, so
//! under load a sender could observe its own request *before* a broadcast
//! the root had serialized ahead of it. Two racing requesters then each
//! believed they were ordered first, each handed the block to the other, and
//! the second hand-off hit a completed MSHR and was dropped — losing
//! ownership and deadlocking the protocol. This test fails loudly on that
//! fabric.

use tc_interconnect::Interconnect;
use tc_sim::DeterministicRng;
use tc_types::{
    BandwidthMode, BlockAddr, Cycle, DataPayload, Destination, InterconnectConfig, Message,
    MsgKind, NodeId, TopologyKind, Vnet,
};

fn tree_config(bandwidth: BandwidthMode) -> InterconnectConfig {
    InterconnectConfig {
        topology: TopologyKind::Tree,
        link_bandwidth_bytes_per_ns: 3.2,
        link_latency_ns: 15,
        bandwidth,
    }
}

/// A self-inclusive broadcast (what snooping sends for every request),
/// tagged with a sequence number through the block address.
fn ordered_broadcast(src: usize, sequence: u64, at: Cycle) -> Message {
    Message::new(
        NodeId::new(src),
        Destination::All,
        BlockAddr::new(sequence),
        MsgKind::GetS,
        Vnet::Request,
        at,
    )
}

/// Unordered unicast noise (data responses) competing for the same links.
fn unicast_noise(rng: &mut DeterministicRng, num_nodes: usize, at: Cycle) -> Message {
    let src = NodeId::new(rng.next_below(num_nodes as u64) as usize);
    let dst = NodeId::new(rng.next_below(num_nodes as u64) as usize);
    Message::new(
        src,
        Destination::Node(dst),
        BlockAddr::new(1_000_000),
        MsgKind::Data {
            acks_expected: 0,
            exclusive: false,
            from_memory: true,
            payload: DataPayload::default(),
        },
        Vnet::Response,
        at,
    )
}

/// The arrivals of one send, as `(time, node)` pairs.
fn send(net: &mut Interconnect, now: Cycle, msg: &Message) -> Vec<(Cycle, NodeId)> {
    let mut arrivals = Vec::new();
    net.send_arrivals(now, msg, &mut arrivals);
    arrivals
}

fn drive(bandwidth: BandwidthMode, num_nodes: usize, seed: u64) {
    let mut net = Interconnect::new(num_nodes, tree_config(bandwidth));
    let mut rng = DeterministicRng::new(seed);
    let mut now: Cycle = 0;
    // Per node: (arrival time, broadcast sequence), in delivery order.
    let mut observed: Vec<Vec<(Cycle, u64)>> = vec![Vec::new(); num_nodes];
    let mut sequence = 0;

    for _ in 0..300 {
        now += rng.next_below(25);
        if rng.chance(0.5) {
            let src = rng.next_below(num_nodes as u64) as usize;
            let msg = ordered_broadcast(src, sequence, now);
            sequence += 1;
            for (at, node) in send(&mut net, now, &msg) {
                observed[node.index()].push((at, msg.addr.value()));
            }
        } else {
            // Noise traffic shifts link occupancy between broadcasts, which
            // is exactly what used to skew the (link-bypassing) self-send.
            send(&mut net, now, &unicast_noise(&mut rng, num_nodes, now));
        }
    }

    for (node, deliveries) in observed.iter().enumerate() {
        let mut sorted = deliveries.clone();
        sorted.sort_by_key(|&(at, seq)| (at, seq));
        // No two broadcasts may arrive at one node at the same instant under
        // limited bandwidth (the shared down-link serializes them), so the
        // sort order above is the delivery order, unambiguously.
        if bandwidth == BandwidthMode::Limited {
            for pair in sorted.windows(2) {
                assert_ne!(
                    pair[0].0, pair[1].0,
                    "node {node}: two broadcasts arrived at the same instant (seed {seed})"
                );
            }
        }
        let order: Vec<u64> = sorted.iter().map(|&(_, seq)| seq).collect();
        let expected: Vec<u64> = (0..sequence).collect();
        assert_eq!(
            order, expected,
            "node {node} observed broadcasts out of the injection total order \
             (seed {seed}, bandwidth {bandwidth:?})"
        );
    }
}

#[test]
fn every_node_sees_broadcasts_in_injection_order_under_contention() {
    let mut seeds = DeterministicRng::new(0x0FDE);
    for num_nodes in [4, 8, 16] {
        drive(BandwidthMode::Limited, num_nodes, seeds.next_u64());
    }
}

#[test]
fn total_order_also_holds_without_bandwidth_limits() {
    let mut seeds = DeterministicRng::new(0x0FDF);
    for num_nodes in [4, 16] {
        drive(BandwidthMode::Unlimited, num_nodes, seeds.next_u64());
    }
}

/// The specific regression: a sender's own copy must queue behind an earlier
/// broadcast from another node even when the sender's links are idle.
#[test]
fn self_delivery_queues_behind_earlier_broadcasts() {
    let num_nodes = 8;
    let mut net = Interconnect::new(num_nodes, tree_config(BandwidthMode::Limited));
    // Node 0 broadcasts first; node 5 broadcasts immediately after. Node 5's
    // own copy must arrive after node 0's copy arrives at node 5.
    let first = send(&mut net, 0, &ordered_broadcast(0, 1, 0));
    let second = send(&mut net, 1, &ordered_broadcast(5, 2, 1));
    let first_at_5 = first
        .iter()
        .find(|&&(_, node)| node == NodeId::new(5))
        .expect("broadcast reaches node 5")
        .0;
    let own_at_5 = second
        .iter()
        .find(|&&(_, node)| node == NodeId::new(5))
        .expect("self-delivery exists")
        .0;
    assert!(
        own_at_5 > first_at_5,
        "node 5 observed its own broadcast (at {own_at_5}) before the \
         earlier-serialized broadcast from node 0 (at {first_at_5})"
    );
}
