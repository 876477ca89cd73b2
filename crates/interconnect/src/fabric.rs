//! The interconnect fabric: link contention, multicast routing, and traffic
//! accounting on top of a [`Topology`].

use tc_sim::{snap_state, snap_struct};
use tc_types::{
    BandwidthMode, Cycle, Destination, FastHashMap, InterconnectConfig, Message, NodeId,
    TopologyKind, TrafficClass, TrafficStats,
};

use crate::topology::{LinkDescriptor, LinkId, RouterId, Topology};
use crate::torus::TorusTopology;
use crate::tree::TreeTopology;

/// A message delivery produced by the fabric: `msg` arrives at `node` at
/// absolute time `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Absolute arrival time.
    pub at: Cycle,
    /// Receiving node.
    pub node: NodeId,
    /// The message delivered.
    pub msg: Message,
}

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

/// Dense precomputed routing: the topology is static, so every `(src, dst)`
/// path is resolved once at construction into one flat link array indexed by
/// `src * num_nodes + dst`, and [`RouteTable::path`] is a slice borrow — the
/// per-send `Topology::route` calls (and their `Vec` allocations) disappear
/// from the steady-state path.
#[derive(Debug)]
struct RouteTable {
    num_nodes: usize,
    /// Offset of `(src, dst)`'s path in `links`; `offsets[n * n]` terminates.
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl RouteTable {
    fn build(topology: &dyn Topology) -> Self {
        let n = topology.num_nodes();
        let mut offsets = Vec::with_capacity(n * n + 1);
        let mut links = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                offsets.push(links.len() as u32);
                // Self-routes are included: the ordered tree routes
                // `src -> src` through the root round trip (see
                // `TreeTopology::route`), while the torus routes it over
                // zero links (a local delivery).
                links.extend(topology.route(NodeId::new(src), NodeId::new(dst)));
            }
        }
        offsets.push(links.len() as u32);
        RouteTable {
            num_nodes: n,
            offsets,
            links,
        }
    }

    #[inline]
    fn path(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        let i = src.index() * self.num_nodes + dst.index();
        &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// How one destination of a cached multicast tree receives its copy.
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

/// Upper bound on the number of cached multicast trees. Unicast and
/// broadcast patterns need at most `nodes * (nodes + 1)` entries (4 160 at
/// 64 nodes), so they always fit; the cap only bites workloads that multicast
/// to unboundedly many distinct sharer subsets (Hammer probes, directory
/// invalidation sets), which fall back to a reusable scratch tree instead of
/// growing fabric memory for the lifetime of the run.
const TREE_CACHE_CAP: usize = 32 * 1024;

/// A multicast tree computed once per distinct `(source, destination)`
/// pattern: the deduplicated links in source-outward order plus, per
/// receiving node, how its arrival time is read off the tree.
#[derive(Debug, Default)]
struct CachedTree {
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
/// flight. Multicasts and broadcasts are routed as trees: a link shared by
/// several destinations carries (and pays for) the message exactly once,
/// matching the paper's bandwidth-efficient tree-based multicast routing.
#[derive(Debug)]
pub struct Interconnect {
    topology: Box<dyn Topology>,
    config: InterconnectConfig,
    links: Vec<LinkState>,
    traffic: TrafficStats,
    total_deliveries: u64,
    total_sends: u64,
    /// Per-node injection port occupancy, modelling the node's single
    /// interface into the fabric.
    injection_free_at: Vec<Cycle>,
    /// Dense `(src, dst) -> &[LinkId]` routes, built once at construction.
    routes: RouteTable,
    /// The router each node injects into, by node index.
    node_routers: Vec<RouterId>,
    /// Link endpoints copied out of the topology at construction, so the
    /// per-link tree walk reads a flat array instead of making a virtual
    /// `Topology::links` call every iteration.
    link_descriptors: Vec<LinkDescriptor>,
    /// Index of each distinct `(source, destination)` pattern in `trees`.
    tree_cache: FastHashMap<(NodeId, Destination), usize>,
    /// The cached multicast trees, appended on first use of each pattern.
    trees: Vec<CachedTree>,
    /// Reusable tree for patterns beyond [`TREE_CACHE_CAP`].
    scratch_tree: CachedTree,
    /// Scratch: earliest arrival time per router for the send in progress.
    /// Entries are valid only when the matching `arrival_gen` stamp equals
    /// `generation`, so the arrays never need clearing between sends.
    arrival_time: Vec<Cycle>,
    arrival_gen: Vec<u64>,
    /// Scratch: generation stamp per link, marking links already in the tree
    /// being built (cache misses only).
    link_gen: Vec<u64>,
    /// Current send's generation stamp.
    generation: u64,
}

impl Interconnect {
    /// Builds the interconnect described by `config` for `num_nodes` nodes.
    pub fn new(num_nodes: usize, config: InterconnectConfig) -> Self {
        let topology: Box<dyn Topology> = match config.topology {
            TopologyKind::Tree => Box::new(TreeTopology::new(num_nodes)),
            TopologyKind::Torus => Box::new(TorusTopology::new(num_nodes)),
        };
        let links = vec![LinkState::default(); topology.links().len()];
        let routes = RouteTable::build(topology.as_ref());
        let node_routers = (0..num_nodes)
            .map(|n| topology.node_router(NodeId::new(n)))
            .collect();
        let num_routers = topology.num_routers();
        let num_links = topology.links().len();
        let link_descriptors = topology.links().to_vec();
        Interconnect {
            topology,
            config,
            links,
            traffic: TrafficStats::new(),
            total_deliveries: 0,
            total_sends: 0,
            injection_free_at: vec![0; num_nodes],
            routes,
            node_routers,
            link_descriptors,
            tree_cache: FastHashMap::default(),
            trees: Vec::new(),
            scratch_tree: CachedTree::default(),
            arrival_time: vec![0; num_routers],
            arrival_gen: vec![0; num_routers],
            link_gen: vec![0; num_links],
            generation: 0,
        }
    }

    /// The topology the fabric was built on.
    pub fn topology(&self) -> &dyn Topology {
        self.topology.as_ref()
    }

    /// Whether this fabric delivers broadcasts in a total order.
    pub fn provides_total_order(&self) -> bool {
        self.topology.provides_total_order()
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

    /// Number of individual deliveries produced so far.
    pub fn total_deliveries(&self) -> u64 {
        self.total_deliveries
    }

    /// Number of messages injected so far.
    pub fn total_sends(&self) -> u64 {
        self.total_sends
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

    fn serialization_ns(&self, bytes: u64) -> Cycle {
        match self.config.bandwidth {
            BandwidthMode::Unlimited => 0,
            BandwidthMode::Limited => {
                let ns = bytes as f64 / self.config.link_bandwidth_bytes_per_ns;
                ns.ceil() as Cycle
            }
        }
    }

    /// Injects a message into the fabric at time `now`, returning the
    /// deliveries it produces (one per destination node).
    ///
    /// Sending a message to an empty destination set (for example a broadcast
    /// in a single-node system) returns no deliveries.
    pub fn send(&mut self, now: Cycle, msg: Message) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        self.send_into(now, &msg, &mut deliveries);
        deliveries
    }

    /// [`Interconnect::send`] writing into a caller-supplied buffer.
    /// Deliveries are appended; the buffer is not cleared. Tests and tools
    /// use this payload-carrying shape; the hot event loop uses
    /// [`Interconnect::send_arrivals`] and never clones the message.
    pub fn send_into(&mut self, now: Cycle, msg: &Message, out: &mut Vec<Delivery>) {
        let mut arrivals = Vec::new();
        self.send_arrivals(now, msg, &mut arrivals);
        out.extend(arrivals.into_iter().map(|(at, node)| Delivery {
            at,
            node,
            msg: msg.clone(),
        }));
    }

    /// The routing/timing core of [`Interconnect::send_into`]: computes when
    /// and where the message arrives without cloning it, appending
    /// `(arrival time, node)` pairs. The hot event loop uses this so the
    /// single in-flight copy of a message can live in a slab arena and queue
    /// entries stay small; `send_into` keeps the delivery-with-payload shape
    /// for tests and tools.
    pub fn send_arrivals(&mut self, now: Cycle, msg: &Message, out: &mut Vec<(Cycle, NodeId)>) {
        let key = (msg.src, msg.dest.clone());
        let tree_index = match self.tree_cache.get(&key) {
            Some(&index) => Some(index),
            None if self.trees.len() < TREE_CACHE_CAP => {
                let tree = self.build_tree(msg.src, &msg.dest);
                self.trees.push(tree);
                let index = self.trees.len() - 1;
                self.tree_cache.insert(key, index);
                Some(index)
            }
            None => {
                // Cache full (a workload generating unboundedly many distinct
                // multicast subsets): compute into the reusable scratch tree
                // instead of growing without limit. Unicast and broadcast
                // patterns are O(nodes²) and always fit, so the steady-state
                // paths stay cached.
                let mut scratch = std::mem::take(&mut self.scratch_tree);
                self.build_tree_into(msg.src, &msg.dest, &mut scratch);
                self.scratch_tree = scratch;
                None
            }
        };
        let tree = match tree_index {
            Some(index) => &self.trees[index],
            None => &self.scratch_tree,
        };
        if tree.deliveries.is_empty() {
            return;
        }
        self.total_sends += 1;

        let size = msg.size_bytes();
        let serialization = self.serialization_ns(size);
        let latency = self.config.link_latency_ns;
        let limited = matches!(self.config.bandwidth, BandwidthMode::Limited);

        // Injection port: the node serializes the message onto the fabric
        // once, regardless of fan-out.
        let src_index = msg.src.index();
        let inject_start = if limited {
            let start = now.max(self.injection_free_at[src_index]);
            self.injection_free_at[src_index] = start + serialization;
            start
        } else {
            now
        };

        // Stamp-based scratch: bumping the generation invalidates every
        // router's arrival entry at once, so nothing is cleared per send.
        self.generation += 1;
        let generation = self.generation;
        let src_router = self.node_routers[src_index].index();
        self.arrival_time[src_router] = inject_start;
        self.arrival_gen[src_router] = generation;

        // Walk the tree links in path order. Because each destination path
        // lists links from source outwards and shared prefixes appear first,
        // a link's upstream router always has an arrival time by the time we
        // process it.
        for link_id in &tree.tree_links {
            let descriptor = self.link_descriptors[link_id.index()];
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
            let link = &mut self.links[link_id.index()];
            let start = if limited {
                upstream.max(link.free_at)
            } else {
                upstream
            };
            let done = start + serialization;
            if limited {
                link.free_at = done;
            }
            link.bytes += size;
            link.messages += 1;
            link.busy_ns += serialization;
            let reach = done + latency;
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
            self.total_deliveries += 1;
            out.push((at, dst));
        }
    }

    /// Computes the multicast tree for one `(source, destination)` pattern:
    /// the union of the deterministic source routes is a tree, so
    /// deduplicating links gives each shared link exactly one copy of the
    /// message. Runs once per pattern; steady-state sends hit the cache.
    fn build_tree(&mut self, src: NodeId, dest: &Destination) -> CachedTree {
        let mut tree = CachedTree::default();
        self.build_tree_into(src, dest, &mut tree);
        tree
    }

    /// [`Interconnect::build_tree`] writing into an existing tree, clearing
    /// it first but keeping its allocations (used by the scratch fallback
    /// once the cache is full).
    fn build_tree_into(&mut self, src: NodeId, dest: &Destination, tree: &mut CachedTree) {
        let destinations = dest.expand(self.topology.num_nodes(), src);
        tree.tree_links.clear();
        tree.deliveries.clear();
        self.generation += 1;
        for dst in destinations {
            let path = self.routes.path(src, dst);
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

// Topology, routes and the tree cache are config-derived (trees are
// deterministic per pattern, so an empty cache refills identically).
snap_state!(Interconnect {
    total_deliveries,
    total_sends,
    traffic,
    [links],
    [injection_free_at],
});

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{BlockAddr, DataPayload, Destination, MsgKind, Vnet};

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
        let d = net.send(0, request(0, Destination::Node(NodeId::new(1))));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at, 15);
        // Node 0 -> node 10 is four hops.
        let d = net.send(0, request(0, Destination::Node(NodeId::new(10))));
        assert_eq!(d[0].at, 60);
    }

    #[test]
    fn unicast_latency_on_tree_is_four_crossings() {
        let mut net = Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Unlimited));
        let d = net.send(0, request(0, Destination::Node(NodeId::new(15))));
        assert_eq!(d[0].at, 60);
        // Even nodes on the same leaf switch pay the full root round trip.
        let d = net.send(0, request(0, Destination::Node(NodeId::new(1))));
        assert_eq!(d[0].at, 60);
    }

    #[test]
    fn limited_bandwidth_adds_serialization_delay() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Limited));
        // A 72-byte data message takes ceil(72 / 3.2) = 23 ns per link.
        let d = net.send(0, data(0, 1));
        assert_eq!(d[0].at, 23 + 15);
    }

    #[test]
    fn back_to_back_messages_queue_on_the_same_link() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Limited));
        let first = net.send(0, data(0, 1))[0].at;
        let second = net.send(0, data(0, 1))[0].at;
        assert!(second > first, "second message must queue behind the first");
        assert_eq!(second - first, 23);
    }

    #[test]
    fn unlimited_bandwidth_never_queues() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Unlimited));
        let first = net.send(0, data(0, 1))[0].at;
        let second = net.send(0, data(0, 1))[0].at;
        assert_eq!(first, second);
    }

    #[test]
    fn broadcast_reaches_all_other_nodes() {
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Unlimited));
        let deliveries = net.send(0, request(0, Destination::Broadcast));
        assert_eq!(deliveries.len(), 15);
        let nodes: std::collections::HashSet<_> = deliveries.iter().map(|d| d.node).collect();
        assert_eq!(nodes.len(), 15);
        assert!(!nodes.contains(&NodeId::new(0)));
    }

    #[test]
    fn broadcast_on_tree_is_simultaneous_and_ordered() {
        let mut net = Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Unlimited));
        assert!(net.provides_total_order());
        let deliveries = net.send(0, request(0, Destination::Broadcast));
        let times: std::collections::HashSet<_> = deliveries.iter().map(|d| d.at).collect();
        assert_eq!(times.len(), 1, "tree broadcast arrives everywhere at once");
    }

    #[test]
    fn multicast_shares_links_in_traffic_accounting() {
        let mut unlimited =
            Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Unlimited));
        // A broadcast on the tree uses: 1 up-node link, 1 up-switch link,
        // 4 down-switch links, 15 down-node links (sender excluded, but its
        // leaf still receives the broadcast for the other three nodes).
        unlimited.send(0, request(0, Destination::Broadcast));
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
        net.send(0, request(0, Destination::Broadcast));
        let tree_bytes = net.traffic().link_bytes(TrafficClass::Request);
        // Naive unicasts would pay sum of hop counts = 32 links * 8 bytes.
        assert!(tree_bytes < 32 * 8);
        // But a spanning tree of 16 nodes needs at least 15 links.
        assert!(tree_bytes >= 15 * 8);
    }

    #[test]
    fn self_delivery_on_tree_costs_a_root_round_trip() {
        let mut net = Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Unlimited));
        let all: Vec<NodeId> = (0..16).map(NodeId::new).collect();
        let deliveries = net.send(0, request(0, Destination::multicast(all)));
        assert_eq!(deliveries.len(), 16);
        let self_delivery = deliveries
            .iter()
            .find(|d| d.node == NodeId::new(0))
            .unwrap();
        assert_eq!(self_delivery.at, 60);
    }

    #[test]
    fn tree_root_is_a_bottleneck_under_load() {
        let mut tree = Interconnect::new(16, config(TopologyKind::Tree, BandwidthMode::Limited));
        let mut torus = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Limited));
        // Every node broadcasts at time zero. On the tree, every broadcast
        // funnels through the root's downlinks, so the hottest tree link
        // carries far more bytes than the hottest torus link.
        for n in 0..16 {
            tree.send(0, request(n, Destination::Broadcast));
            torus.send(0, request(n, Destination::Broadcast));
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
        net.send(0, data(0, 1));
        net.send(10, data(2, 3));
        assert_eq!(net.total_sends(), 2);
        assert_eq!(net.total_deliveries(), 2);
        let util = net.link_utilization();
        let carried: u64 = util.iter().map(|u| u.bytes).sum();
        assert_eq!(carried, 144);
        assert!(net.max_link_bytes() >= 72);
    }

    #[test]
    fn tree_cache_overflow_falls_back_to_scratch_and_stays_correct() {
        // Drive more distinct multicast patterns than the cache holds; the
        // overflow patterns must still deliver exactly like a fresh fabric.
        let mut net = Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Unlimited));
        for pattern in 0..(TREE_CACHE_CAP as u32 + 10) {
            // Map the counter to a non-empty subset of the 16 nodes.
            let bits = (pattern % 0xFFFF) + 1;
            let nodes: Vec<NodeId> = (0..16)
                .filter(|n| bits & (1 << n) != 0)
                .map(NodeId::new)
                .collect();
            net.send(0, request(0, Destination::multicast(nodes)));
        }
        assert!(net.total_sends() > TREE_CACHE_CAP as u64);
        // A pattern beyond the cap: compare against an uncapped fresh fabric.
        let novel: Vec<NodeId> = vec![NodeId::new(3), NodeId::new(9), NodeId::new(14)];
        let mut fresh =
            Interconnect::new(16, config(TopologyKind::Torus, BandwidthMode::Unlimited));
        let got = net.send(7, request(5, Destination::multicast(novel.clone())));
        let expected = fresh.send(7, request(5, Destination::multicast(novel)));
        assert_eq!(got, expected);
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
        let deliveries = net.send(0, request(0, Destination::Broadcast));
        assert!(deliveries.is_empty());
    }
}
