//! Two-level pipelined broadcast tree (Figure 1a).
//!
//! Nodes attach in groups of four to *incoming* leaf switches; every incoming
//! switch feeds a single root switch; the root feeds *outgoing* leaf switches
//! that fan back out to the nodes. Every message — unicast or broadcast —
//! crosses four links (node → incoming switch → root → outgoing switch →
//! node), and because every message passes through the one root switch, all
//! nodes observe all broadcasts in the same order: the "virtual bus" total
//! order that traditional snooping requires. The cost is the indirection
//! through discrete glue switches and the root bottleneck.

use crate::topology::{LinkDescriptor, LinkId, RouterId, Topology};

/// Fan-out of each leaf switch (the paper uses four).
const TREE_FANOUT: usize = 4;

/// Builds the tree for `num_nodes` nodes. A 16-node system uses 4 incoming
/// switches, 4 outgoing switches, and one root switch — nine switch chips,
/// as in the paper. Routers are numbered nodes first, then incoming
/// switches, then outgoing switches, then the root.
pub(crate) fn build(num_nodes: usize) -> Topology {
    let groups = num_nodes.div_ceil(TREE_FANOUT);
    let in_switch = |g: usize| RouterId(num_nodes + g);
    let out_switch = |g: usize| RouterId(num_nodes + groups + g);
    let root = RouterId(num_nodes + 2 * groups);
    // Links in id order: node i up to its incoming switch (id i), incoming
    // switch g up to the root (n + g), the root down to outgoing switch g
    // (n + groups + g), and outgoing switch down to node i
    // (n + 2 * groups + i).
    let links = (0..num_nodes)
        .map(|node| (RouterId(node), in_switch(node / TREE_FANOUT)))
        .chain((0..groups).map(|g| (in_switch(g), root)))
        .chain((0..groups).map(|g| (root, out_switch(g))))
        .chain((0..num_nodes).map(|node| (out_switch(node / TREE_FANOUT), RouterId(node))))
        .map(|(from, to)| LinkDescriptor { from, to })
        .collect();
    Topology::resolve(num_nodes, root.index() + 1, links, |src, dst, path| {
        // A self-route is deliberately NOT empty on the tree: a node snooping
        // its own broadcast must receive it through the same root round trip
        // — and the same contended links — as every other node, or the total
        // order breaks. (An early version short-circuited the self-delivery
        // with a fixed four-crossing latency; under link contention that let
        // a node observe its own request *before* a broadcast the root had
        // serialized ahead of it, making two racing requesters each believe
        // they were ordered first — each handed the block to the other and
        // the second hand-off arrived at a completed MSHR and was dropped,
        // losing ownership. The conformance harness catches this as a
        // deadlock within seconds.)
        path.extend([
            LinkId(src),
            LinkId(num_nodes + src / TREE_FANOUT),
            LinkId(num_nodes + groups + dst / TREE_FANOUT),
            LinkId(num_nodes + 2 * groups + dst),
        ]);
    })
}

#[cfg(test)]
mod tests {
    use tc_types::{NodeId, TopologyKind};

    use super::*;

    fn tree(n: usize) -> Topology {
        Topology::new(TopologyKind::Tree, n)
    }

    #[test]
    fn sixteen_node_tree_has_nine_switches() {
        // Four incoming, four outgoing and one root switch.
        assert_eq!(tree(16).num_routers(), 16 + 9);
    }

    #[test]
    fn odd_node_counts_round_up_groups() {
        // Five nodes: two groups, five switch chips.
        assert_eq!(tree(5).num_routers(), 5 + 5);
    }

    #[test]
    fn every_route_is_four_link_crossings() {
        let t = tree(16);
        for s in 0..16 {
            for d in 0..16 {
                assert_eq!(t.path(NodeId::new(s), NodeId::new(d)).len(), 4);
            }
        }
        assert!((t.average_hops() - 4.0).abs() < 1e-12);
        assert_eq!(t.min_hops(), 4);
    }

    #[test]
    fn routes_are_valid_paths() {
        for n in [16, 8, 5] {
            tree(n).validate();
        }
    }

    #[test]
    fn tree_provides_total_order() {
        // A node's own copy takes the root round trip too, so it is ordered
        // with everyone else's.
        assert!(TopologyKind::Tree.is_totally_ordered());
        let t = tree(16);
        let root = RouterId(t.num_routers() - 1);
        for n in 0..16 {
            let path = t.path(NodeId::new(n), NodeId::new(n));
            assert_eq!(t.links()[path[1].index()].to, root);
            assert_eq!(t.links()[path[3].index()].to, RouterId(n));
        }
    }

    #[test]
    fn every_route_passes_through_the_root() {
        let t = tree(16);
        let root = RouterId(t.num_routers() - 1);
        for s in 0..16 {
            for d in 0..16 {
                let passes_root = t
                    .path(NodeId::new(s), NodeId::new(d))
                    .iter()
                    .any(|l| t.links()[l.index()].to == root);
                assert!(passes_root, "route {s}->{d} bypasses the root");
            }
        }
    }

    #[test]
    fn union_of_paths_from_one_source_is_a_tree() {
        tree(16).assert_routes_form_a_tree(3);
    }
}
