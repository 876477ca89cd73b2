//! Property test: the fabric (unicasts on their route, each source's
//! `AllBut(src)` and `All` trees kept, every other `AllBut` tree rebuilt per
//! send, scratch arrival arrays) must be observationally identical to a
//! naive fabric that walks every route on every send.
//!
//! The reference implementation below is the pre-optimization `send`
//! algorithm: `Topology::path` per destination per send, link deduplication
//! through a hash set, and arrival times in a hash map. Both fabrics are
//! driven with the same deterministic pseudo-random message stream across
//! tree and torus topologies, every destination pattern (`Node` including
//! self-sends, `AllBut` of the source and of any node, `All`), and both
//! bandwidth modes; every arrival (time, node) and the traffic accounting
//! must match exactly. Cases are
//! drawn from a [`DeterministicRng`] rather than proptest (unavailable in
//! the offline build environment), so every run covers the same cases.

use std::collections::HashMap;

use tc_interconnect::{Interconnect, LinkId, RouterId, Topology};
use tc_sim::DeterministicRng;
use tc_types::{
    BandwidthMode, BlockAddr, Cycle, DataPayload, Destination, InterconnectConfig, Message,
    MsgKind, NodeId, TopologyKind, TrafficClass, TrafficStats, Vnet,
};

/// The pre-optimization fabric: same timing model, no caching.
struct NaiveFabric {
    topology: Topology,
    config: InterconnectConfig,
    free_at: Vec<Cycle>,
    traffic: TrafficStats,
    injection_free_at: Vec<Cycle>,
}

impl NaiveFabric {
    fn new(num_nodes: usize, config: InterconnectConfig) -> Self {
        let topology = Topology::new(config.topology, num_nodes);
        let links = topology.links().len();
        NaiveFabric {
            topology,
            config,
            free_at: vec![0; links],
            traffic: TrafficStats::new(),
            injection_free_at: vec![0; num_nodes],
        }
    }

    fn serialization_ns(&self, bytes: u64) -> Cycle {
        match self.config.bandwidth {
            BandwidthMode::Unlimited => 0,
            BandwidthMode::Limited => {
                (bytes as f64 / self.config.link_bandwidth_bytes_per_ns).ceil() as Cycle
            }
        }
    }

    fn send(&mut self, now: Cycle, msg: &Message) -> Vec<(Cycle, NodeId)> {
        let destinations = msg.dest.expand(self.topology.num_nodes());
        if destinations.is_empty() {
            return Vec::new();
        }
        let size = msg.size_bytes();
        let serialization = self.serialization_ns(size);
        let latency = self.config.link_latency_ns;
        let limited = matches!(self.config.bandwidth, BandwidthMode::Limited);

        let src_index = msg.src.index();
        let inject_start = if limited {
            let start = now.max(self.injection_free_at[src_index]);
            self.injection_free_at[src_index] = start + serialization;
            start
        } else {
            now
        };

        // Node `n` injects at router `n`.
        let src_router = RouterId(msg.src.index());
        let mut arrival: HashMap<RouterId, Cycle> = HashMap::new();
        arrival.insert(src_router, inject_start);
        let mut tree_links: Vec<LinkId> = Vec::new();
        let mut seen: HashMap<LinkId, ()> = HashMap::new();
        let mut paths = Vec::new();
        for dst in &destinations {
            // Self-routes go through the topology too: on the ordered tree a
            // node's own copy pays the same root round trip (and queues on
            // the same links) as everyone else's, which is what keeps the
            // per-node delivery order equal to the root serialization order.
            let path = self.topology.path(msg.src, *dst);
            for link in path {
                if seen.insert(*link, ()).is_none() {
                    tree_links.push(*link);
                }
            }
            paths.push((*dst, path));
        }

        for link_id in &tree_links {
            let descriptor = self.topology.links()[link_id.index()];
            let upstream = arrival[&descriptor.from];
            let start = if limited {
                upstream.max(self.free_at[link_id.index()])
            } else {
                upstream
            };
            let done = start + serialization;
            if limited {
                self.free_at[link_id.index()] = done;
            }
            let reach = done + latency;
            if descriptor.to == src_router {
                // The tail link of a self-route must not `min` against the
                // injection-time stamp: the self-copy arrives with the link.
                arrival.insert(descriptor.to, reach);
            } else {
                arrival
                    .entry(descriptor.to)
                    .and_modify(|t| *t = (*t).min(reach))
                    .or_insert(reach);
            }
        }

        self.traffic
            .record(TrafficClass::of(msg), size, tree_links.len() as u64);

        let mut arrivals = Vec::new();
        for (dst, path) in paths {
            let at = if path.is_empty() {
                inject_start
            } else {
                let last = self.topology.links()[path.last().unwrap().index()];
                arrival[&last.to]
            };
            arrivals.push((at, dst));
        }
        arrivals
    }
}

/// Draws a pseudo-random message: any source, any destination pattern
/// (unicast incl. self-sends, all but the source, all nodes, all but any
/// one node), control or data size.
fn random_message(rng: &mut DeterministicRng, num_nodes: usize, at: Cycle) -> Message {
    let node = |rng: &mut DeterministicRng| NodeId::new(rng.next_below(num_nodes as u64) as usize);
    let src = node(rng);
    let dest = match rng.next_below(4) {
        0 => Destination::Node(node(rng)),
        1 => Destination::AllBut(src),
        2 => Destination::All,
        _ => Destination::AllBut(node(rng)),
    };
    let kind = if rng.chance(0.5) {
        MsgKind::GetS
    } else {
        MsgKind::Data {
            acks_expected: 0,
            exclusive: false,
            from_memory: true,
            payload: DataPayload::default(),
        }
    };
    let vnet = if kind == MsgKind::GetS {
        Vnet::Request
    } else {
        Vnet::Response
    };
    Message::new(
        src,
        dest,
        BlockAddr::new(rng.next_below(64)),
        kind,
        vnet,
        at,
    )
}

fn drive_pair(topology: TopologyKind, bandwidth: BandwidthMode, num_nodes: usize, seed: u64) {
    let config = InterconnectConfig {
        topology,
        link_bandwidth_bytes_per_ns: 3.2,
        link_latency_ns: 15,
        bandwidth,
    };
    let mut cached = Interconnect::new(num_nodes, config);
    let mut naive = NaiveFabric::new(num_nodes, config);
    let mut rng = DeterministicRng::new(seed);
    let mut now: Cycle = 0;
    for step in 0..400 {
        now += rng.next_below(40);
        let msg = random_message(&mut rng, num_nodes, now);
        let expected = naive.send(now, &msg);
        let mut got = Vec::new();
        cached.send_arrivals(now, &msg, &mut got);
        assert_eq!(
            got, expected,
            "{topology:?}/{bandwidth:?}/{num_nodes} nodes, seed {seed}, step {step}: \
             arrivals diverged for {msg}"
        );
    }
    assert_eq!(
        cached.traffic(),
        &naive.traffic,
        "{topology:?}/{bandwidth:?}/{num_nodes} nodes, seed {seed}: traffic stats diverged"
    );
}

#[test]
fn cached_fabric_matches_naive_reference_on_all_configurations() {
    let mut seeds = DeterministicRng::new(0xCAFE);
    for topology in [TopologyKind::Tree, TopologyKind::Torus] {
        for bandwidth in [BandwidthMode::Limited, BandwidthMode::Unlimited] {
            for num_nodes in [4, 16] {
                drive_pair(topology, bandwidth, num_nodes, seeds.next_u64());
            }
        }
    }
}

#[test]
fn cached_fabric_matches_naive_reference_on_odd_node_counts() {
    // Non-square, non-power-of-two node counts exercise the torus
    // factorization and partially filled tree leaf groups.
    let mut seeds = DeterministicRng::new(0xBEEF);
    for topology in [TopologyKind::Tree, TopologyKind::Torus] {
        for num_nodes in [2, 5, 12] {
            drive_pair(
                topology,
                BandwidthMode::Limited,
                num_nodes,
                seeds.next_u64(),
            );
        }
    }
}
