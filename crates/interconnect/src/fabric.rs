//! The interconnect fabric: link contention, multicast routing, and traffic
//! accounting on top of a [`Topology`].

use tc_sim::{snap_state, snap_struct};
use tc_types::{
    BandwidthMode, Cycle, Destination, InterconnectConfig, Message, NodeId, TrafficClass,
    TrafficStats, CONTROL_MSG_BYTES, DATA_MSG_BYTES,
};

use crate::topology::{LinkId, RouterId, Topology};

/// Per-link utilization summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkUtilization {
    /// Bytes carried by the link.
    pub bytes: u64,
    /// Messages carried by the link.
    pub messages: u64,
    /// Total time the link spent serializing messages, in nanoseconds.
    pub busy_ns: Cycle,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LinkState {
    free_at: Cycle,
    bytes: u64,
    messages: u64,
    busy_ns: Cycle,
}

snap_struct!(LinkState {
    free_at,
    bytes,
    messages,
    busy_ns,
});

impl LinkState {
    /// Carries one message that reaches the link's upstream router at
    /// `upstream`, returning when it reaches the downstream router.
    #[inline]
    fn carry(&mut self, upstream: Cycle, size: u64, timing: LinkTiming) -> Cycle {
        let start = if timing.limited {
            upstream.max(self.free_at)
        } else {
            upstream
        };
        let done = start + timing.serialization;
        if timing.limited {
            self.free_at = done;
        }
        self.bytes += size;
        self.messages += 1;
        self.busy_ns += timing.serialization;
        done + timing.latency
    }
}

/// What crossing one link costs a message of one size.
#[derive(Debug, Clone, Copy)]
struct LinkTiming {
    limited: bool,
    serialization: Cycle,
    latency: Cycle,
}

impl LinkTiming {
    /// The timing of a `bytes`-long message on links configured by `config`.
    fn of(config: &InterconnectConfig, bytes: u64) -> Self {
        let limited = matches!(config.bandwidth, BandwidthMode::Limited);
        let serialization = if limited {
            (bytes as f64 / config.link_bandwidth_bytes_per_ns).ceil() as Cycle
        } else {
            0
        };
        LinkTiming {
            limited,
            serialization,
            latency: config.link_latency_ns,
        }
    }

    /// Injection port: the node serializes the message onto the fabric once,
    /// regardless of fan-out. Returns when the message enters the source
    /// router.
    fn inject(self, port_free_at: &mut Cycle, now: Cycle) -> Cycle {
        if self.limited {
            let start = now.max(*port_free_at);
            *port_free_at = start + self.serialization;
            start
        } else {
            now
        }
    }
}

/// How one destination of a multicast tree receives its copy.
#[derive(Debug, Clone, Copy)]
enum DeliveryVia {
    /// Zero-hop delivery at the injection time (a self-send on the torus,
    /// whose topology routes `src -> src` over zero links).
    Local,
    /// Delivered when the message reaches this router. On the ordered tree
    /// this includes self-sends: the topology routes `src -> src` through
    /// the real root round trip, so a node's own broadcast queues on the
    /// same contended links as everyone else's copy and the per-node
    /// delivery order equals the root serialization order — the total-order
    /// property snooping's writeback-ack handshake depends on.
    AtRouter(RouterId),
}

/// The multicast tree of one `(source, destination)` pattern: the
/// deduplicated links in source-outward order plus, per receiving node, how
/// its arrival time is read off the tree.
#[derive(Debug, Default)]
struct RouteTree {
    /// Tree links in path order (shared prefixes first), deduplicated: each
    /// link carries the message exactly once regardless of fan-out.
    tree_links: Vec<LinkId>,
    /// One entry per receiving node.
    deliveries: Vec<(NodeId, DeliveryVia)>,
}

/// The interconnection network: a topology plus link timing/contention state.
///
/// The fabric uses store-and-forward timing with per-link serialization. A
/// message sent at time `t` crosses each link on its path in turn; on every
/// link it waits until the link is free, occupies it for
/// `size / bandwidth` nanoseconds, and then spends the link latency in
/// flight. A unicast crosses its source route; broadcasts and probes are
/// routed as trees: a link shared by several destinations carries (and pays
/// for) the message exactly once, matching the paper's bandwidth-efficient
/// tree-based multicast routing.
#[derive(Debug)]
pub struct Interconnect {
    topology: Topology,
    config: InterconnectConfig,
    /// Link timing of a control message (`[0]`) and of a data message
    /// (`[1]`), the only two sizes, computed once.
    timing: [LinkTiming; 2],
    links: Vec<LinkState>,
    traffic: TrafficStats,
    /// Per-node injection port occupancy, modelling the node's single
    /// interface into the fabric.
    injection_free_at: Vec<Cycle>,
    /// Each source's `AllBut(src)` tree (its broadcast) at `2 * src` and its
    /// `All` tree at `2 * src + 1`, built on first send: at most `2n` trees
    /// of at most `n` deliveries each.
    trees: Vec<Option<RouteTree>>,
    /// Scratch: the tree of an `AllBut(d)` send, `d` not its source. A
    /// source can probe `n` different sets, so these trees are rebuilt per
    /// send (the same order of work as the send's `n - 1` deliveries)
    /// instead of growing fabric memory by `n²` trees of `n` deliveries.
    probe_tree: RouteTree,
    /// Scratch: earliest arrival time per router for the send in progress.
    /// Entries are valid only when the matching `arrival_gen` stamp equals
    /// `generation`, so the arrays never need clearing between sends.
    arrival_time: Vec<Cycle>,
    arrival_gen: Vec<u64>,
    /// Scratch: generation stamp per link, marking links already in the tree
    /// being built.
    link_gen: Vec<u64>,
    /// Current send's generation stamp.
    generation: u64,
}

impl Interconnect {
    /// Builds the interconnect described by `config` for `num_nodes` nodes.
    pub fn new(num_nodes: usize, config: InterconnectConfig) -> Self {
        let topology = Topology::new(config.topology, num_nodes);
        let num_routers = topology.num_routers();
        let num_links = topology.links().len();
        Interconnect {
            topology,
            timing: [CONTROL_MSG_BYTES, DATA_MSG_BYTES].map(|bytes| LinkTiming::of(&config, bytes)),
            config,
            links: vec![LinkState::default(); num_links],
            traffic: TrafficStats::new(),
            injection_free_at: vec![0; num_nodes],
            trees: (0..2 * num_nodes).map(|_| None).collect(),
            probe_tree: RouteTree::default(),
            arrival_time: vec![0; num_routers],
            arrival_gen: vec![0; num_routers],
            link_gen: vec![0; num_links],
            generation: 0,
        }
    }

    /// The conservative-PDES lookahead this fabric supports, in
    /// nanoseconds: no message between two *distinct* nodes can arrive
    /// sooner than the shortest inter-node path
    /// ([`Topology::min_hops`] link crossings at the configured link
    /// latency). Derived from the topology alone — never from the shard
    /// partition — so every shard count sees the same window (see
    /// `Topology::min_hops`). Clamped to at least 1 ns so the sharded
    /// runner's windows always advance.
    pub fn lookahead_ns(&self) -> Cycle {
        (self.topology.min_hops() as Cycle)
            .saturating_mul(self.config.link_latency_ns)
            .max(1)
    }

    /// Traffic accumulated so far, by message class.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Per-link utilization, indexed by link.
    pub fn link_utilization(&self) -> Vec<LinkUtilization> {
        self.links
            .iter()
            .map(|l| LinkUtilization {
                bytes: l.bytes,
                messages: l.messages,
                busy_ns: l.busy_ns,
            })
            .collect()
    }

    /// The highest single-link byte count, a proxy for the bottleneck link
    /// (the tree's root links saturate long before torus links do).
    pub fn max_link_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).max().unwrap_or(0)
    }

    /// Injects `msg` into the fabric at time `now`, appending one
    /// `(arrival time, node)` pair per destination node to `out` (the buffer
    /// is not cleared). The message itself is not cloned: the event loop
    /// keeps its one in-flight copy in a slab arena, so queue entries stay
    /// small. A message to an empty destination set (a broadcast in a
    /// single-node system) arrives nowhere.
    pub fn send_arrivals(&mut self, now: Cycle, msg: &Message, out: &mut Vec<(Cycle, NodeId)>) {
        let src = msg.src;
        let size = msg.size_bytes();
        let timing = self.timing[usize::from(msg.kind.carries_data())];
        let tree = match msg.dest {
            Destination::Node(dst) => {
                // A unicast crosses its source route link by link; no router
                // repeats on a route, so each hop starts from the last.
                let mut at = timing.inject(&mut self.injection_free_at[src.index()], now);
                let path = self.topology.path(src, dst);
                for link in path {
                    at = self.links[link.index()].carry(at, size, timing);
                }
                self.traffic
                    .record(TrafficClass::of(msg), size, path.len() as u64);
                out.push((at, dst));
                return;
            }
            Destination::AllBut(except) if except != src => {
                let mut tree = std::mem::take(&mut self.probe_tree);
                self.build_tree(&mut tree, src, msg.dest);
                self.probe_tree = tree;
                &self.probe_tree
            }
            Destination::AllBut(_) | Destination::All => {
                let slot = 2 * src.index() + usize::from(msg.dest == Destination::All);
                if self.trees[slot].is_none() {
                    let mut tree = RouteTree::default();
                    self.build_tree(&mut tree, src, msg.dest);
                    self.trees[slot] = Some(tree);
                }
                self.trees[slot].as_ref().expect("built above")
            }
        };
        if tree.deliveries.is_empty() {
            return;
        }
        let inject_start = timing.inject(&mut self.injection_free_at[src.index()], now);

        // Stamp-based scratch: bumping the generation invalidates every
        // router's arrival entry at once, so nothing is cleared per send.
        self.generation += 1;
        let generation = self.generation;
        // Node `n` injects into router `n`.
        let src_router = src.index();
        self.arrival_time[src_router] = inject_start;
        self.arrival_gen[src_router] = generation;

        // Walk the tree links in path order. Because each destination path
        // lists links from source outwards and shared prefixes appear first,
        // a link's upstream router always has an arrival time by the time we
        // process it.
        for link_id in &tree.tree_links {
            let descriptor = self.topology.links()[link_id.index()];
            // A hard assert, not a debug_assert: if a topology ever violates
            // the prefix-closed routing contract, reading a stale arrival
            // stamp would silently produce wrong delivery times in release
            // builds. The compare is one predicted branch per link.
            assert_eq!(
                self.arrival_gen[descriptor.from.index()],
                generation,
                "multicast tree processed out of order"
            );
            let upstream = self.arrival_time[descriptor.from.index()];
            let reach = self.links[link_id.index()].carry(upstream, size, timing);
            let to = descriptor.to.index();
            if to == src_router {
                // The link back into the source router (the tail of an
                // ordered-tree self-route) must not `min` against the
                // injection-time stamp placed there before the walk: the
                // self-copy arrives when the down link delivers it, exactly
                // like every other destination's copy.
                self.arrival_time[to] = reach;
            } else if self.arrival_gen[to] == generation {
                self.arrival_time[to] = self.arrival_time[to].min(reach);
            } else {
                self.arrival_gen[to] = generation;
                self.arrival_time[to] = reach;
            }
        }

        self.traffic
            .record(TrafficClass::of(msg), size, tree.tree_links.len() as u64);

        for &(dst, via) in &tree.deliveries {
            let at = match via {
                DeliveryVia::Local => inject_start,
                DeliveryVia::AtRouter(router) => {
                    assert_eq!(
                        self.arrival_gen[router.index()],
                        generation,
                        "destination router missing arrival time"
                    );
                    self.arrival_time[router.index()]
                }
            };
            out.push((at, dst));
        }
    }

    /// Computes into `tree` the multicast tree of `src`'s sends to `dest`:
    /// the union of the deterministic source routes is a tree, so
    /// deduplicating links gives each shared link exactly one copy of the
    /// message.
    fn build_tree(&mut self, tree: &mut RouteTree, src: NodeId, dest: Destination) {
        tree.tree_links.clear();
        tree.deliveries.clear();
        self.generation += 1;
        for dst in dest.expand(self.topology.num_nodes()) {
            let path = self.topology.path(src, dst);
            for link in path {
                if self.link_gen[link.index()] != self.generation {
                    self.link_gen[link.index()] = self.generation;
                    tree.tree_links.push(*link);
                }
            }
            let via = match path.last() {
                None => DeliveryVia::Local,
                Some(last) => DeliveryVia::AtRouter(self.topology.links()[last.index()].to),
            };
            tree.deliveries.push((dst, via));
        }
    }
}

// The topology and the trees are config-derived (trees are deterministic
// per pattern, so an empty table refills identically).
snap_state!(Interconnect {
    traffic,
    [links],
    [injection_free_at],
});

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{BlockAddr, DataPayload, MsgKind, TopologyKind, Vnet};

    fn config(topology: TopologyKind, bandwidth: BandwidthMode) -> InterconnectConfig {
        InterconnectConfig {
            topology,
            link_bandwidth_bytes_per_ns: 3.2,
            link_latency_ns: 15,
            bandwidth,
        }
    }

    fn request(src: usize, dest: Destination) -> Message {
        Message::new(
            NodeId::new(src),
            dest,
            BlockAddr::new(100),
            MsgKind::GetS,
            Vnet::Request,
            0,
        )
    }

    /// The arrivals of one send, as `(time, node)` pairs.
    fn send(net: &mut Interconnect, now: Cycle, msg: Message) -> Vec<(Cycle, NodeId)> {
        let mut arrivals = Vec::new();
        net.send_arrivals(now, &msg, &mut arrivals);
        arrivals
    }

    fn data(src: usize, dst: usize) -> Message {
        Message::new(
            NodeId::new(src),
            Destination::Node(NodeId::new(dst)),
            BlockAddr::new(100),
            MsgKind::Data {
                acks_expected: 0,
                exclusive: false,
                from_memory: true,
                payload: DataPayload::default(),
            },
            Vnet::Response,
            0,
        )
    }

    #[test]
    fn unicast_latency_on_torus_matches_hop_count() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Unlimited));
        // Node 0 -> node 1 is one hop: one link latency.
        let d = send(&mut net, 0, request(0, Destination::Node(NodeId::new(1))));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, 15);
        // Node 0 -> node 10 is four hops.
        let d = send(&mut net, 0, request(0, Destination::Node(NodeId::new(10))));
        assert_eq!(d[0].0, 60);
    }

    #[test]
    fn unicast_latency_on_tree_is_four_crossings() {
        let mut net = Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Unlimited));
        let d = send(&mut net, 0, request(0, Destination::Node(NodeId::new(15))));
        assert_eq!(d[0].0, 60);
        // Even nodes on the same leaf switch pay the full root round trip.
        let d = send(&mut net, 0, request(0, Destination::Node(NodeId::new(1))));
        assert_eq!(d[0].0, 60);
    }

    #[test]
    fn limited_bandwidth_adds_serialization_delay() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Limited));
        // A 72-byte data message takes ceil(72 / 3.2) = 23 ns per link.
        let d = send(&mut net, 0, data(0, 1));
        assert_eq!(d[0].0, 23 + 15);
    }

    #[test]
    fn back_to_back_messages_queue_on_the_same_link() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Limited));
        let first = send(&mut net, 0, data(0, 1))[0].0;
        let second = send(&mut net, 0, data(0, 1))[0].0;
        assert!(second > first, "second message must queue behind the first");
        assert_eq!(second - first, 23);
    }

    #[test]
    fn unlimited_bandwidth_never_queues() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Unlimited));
        let first = send(&mut net, 0, data(0, 1))[0].0;
        let second = send(&mut net, 0, data(0, 1))[0].0;
        assert_eq!(first, second);
    }

    #[test]
    fn broadcast_reaches_all_other_nodes() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Unlimited));
        let deliveries = send(&mut net, 0, request(0, Destination::AllBut(NodeId::new(0))));
        assert_eq!(deliveries.len(), 15);
        let nodes: std::collections::HashSet<_> = deliveries.iter().map(|d| d.1).collect();
        assert_eq!(nodes.len(), 15);
        assert!(!nodes.contains(&NodeId::new(0)));
    }

    #[test]
    fn broadcast_on_tree_is_simultaneous_and_ordered() {
        let mut net = Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Unlimited));
        let deliveries = send(&mut net, 0, request(0, Destination::AllBut(NodeId::new(0))));
        let times: std::collections::HashSet<_> = deliveries.iter().map(|d| d.0).collect();
        assert_eq!(times.len(), 1, "tree broadcast arrives everywhere at once");
    }

    #[test]
    fn multicast_shares_links_in_traffic_accounting() {
        let mut unlimited =
            Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Unlimited));
        // A broadcast on the tree uses: 1 up-node link, 1 up-switch link,
        // 4 down-switch links, 15 down-node links (sender excluded, but its
        // leaf still receives the broadcast for the other three nodes).
        send(
            &mut unlimited,
            0,
            request(0, Destination::AllBut(NodeId::new(0))),
        );
        let traffic = unlimited.traffic();
        assert_eq!(traffic.messages(TrafficClass::Request), 1);
        assert_eq!(traffic.bytes(TrafficClass::Request), 8);
        assert_eq!(
            traffic.link_bytes(TrafficClass::Request),
            8 * (1 + 1 + 4 + 15)
        );
    }

    #[test]
    fn torus_broadcast_uses_fewer_link_bytes_than_naive_unicasts() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Unlimited));
        send(&mut net, 0, request(0, Destination::AllBut(NodeId::new(0))));
        let tree_bytes = net.traffic().link_bytes(TrafficClass::Request);
        // Naive unicasts would pay sum of hop counts = 32 links * 8 bytes.
        assert!(tree_bytes < 32 * 8);
        // But a spanning tree of 16 nodes needs at least 15 links.
        assert!(tree_bytes >= 15 * 8);
    }

    #[test]
    fn self_delivery_on_tree_costs_a_root_round_trip() {
        let mut net = Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Unlimited));
        let deliveries = send(&mut net, 0, request(0, Destination::All));
        assert_eq!(deliveries.len(), 16);
        let self_delivery = deliveries.iter().find(|d| d.1 == NodeId::new(0)).unwrap();
        assert_eq!(self_delivery.0, 60);
    }

    #[test]
    fn tree_root_is_a_bottleneck_under_load() {
        let mut tree = Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Limited));
        let mut torus = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Limited));
        // Every node broadcasts at time zero. On the tree, every broadcast
        // funnels through the root's downlinks, so the hottest tree link
        // carries far more bytes than the hottest torus link.
        for n in 0..16 {
            send(
                &mut tree,
                0,
                request(n, Destination::AllBut(NodeId::new(n))),
            );
            send(
                &mut torus,
                0,
                request(n, Destination::AllBut(NodeId::new(n))),
            );
        }
        let tree_hot = tree.max_link_bytes();
        let torus_hot = torus.max_link_bytes();
        assert!(
            tree_hot > torus_hot,
            "tree bottleneck ({tree_hot} bytes) should exceed torus bottleneck ({torus_hot} bytes)"
        );
        // Each of the root's downlinks carries all sixteen 8-byte broadcasts.
        assert_eq!(tree_hot, 16 * 8);
    }

    #[test]
    fn utilization_and_counters_accumulate() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Limited));
        assert_eq!(send(&mut net, 0, data(0, 1)).len(), 1);
        assert_eq!(send(&mut net, 10, data(2, 3)).len(), 1);
        let util = net.link_utilization();
        let carried: u64 = util.iter().map(|u| u.bytes).sum();
        assert_eq!(carried, 144);
        assert!(net.max_link_bytes() >= 72);
    }

    #[test]
    fn the_fabric_keeps_two_trees_per_source() {
        // Every source sends every pattern twice. The fabric keeps only each
        // source's `AllBut(src)` and `All` trees, at most `2n` of at most `n`
        // deliveries each; unicasts read their route and other `AllBut`
        // trees are rebuilt per send. The second round delivers what a fresh
        // fabric does.
        let n = 5;
        let patterns = (0..n)
            .flat_map(|d| {
                [
                    Destination::Node(NodeId::new(d)),
                    Destination::AllBut(NodeId::new(d)),
                ]
            })
            .chain([Destination::All]);
        for topology in [TopologyKind::Tree, TopologyKind::Torus] {
            let config = config(topology, BandwidthMode::Unlimited);
            let mut net = Interconnect::new(n, config);
            for round in 0..2 {
                for src in 0..n {
                    for dest in patterns.clone() {
                        let got = send(&mut net, 0, request(src, dest));
                        if round == 1 {
                            let fresh =
                                send(&mut Interconnect::new(n, config), 0, request(src, dest));
                            assert_eq!(got, fresh, "{topology:?}: {src} -> {dest:?}");
                        }
                    }
                }
            }
            assert_eq!(net.trees.len(), 2 * n);
            assert!(net
                .trees
                .iter()
                .all(|tree| tree.as_ref().is_some_and(|tree| tree.deliveries.len() <= n)));
        }
    }

    #[test]
    fn link_state_round_trips() {
        tc_testkit::assert_snap_round_trip(&LinkState {
            free_at: 1,
            bytes: 2,
            messages: 3,
            busy_ns: 4,
        });
    }

    #[test]
    fn empty_destination_produces_no_deliveries() {
        let mut net = Interconnect::new(1, config(TopologyKind::Torus, BandwidthMode::Unlimited));
        let deliveries = send(&mut net, 0, request(0, Destination::AllBut(NodeId::new(0))));
        assert!(deliveries.is_empty());
    }
}
