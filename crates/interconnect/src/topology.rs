//! Topology: routers, links, and deterministic routing, resolved once.

use std::fmt;

use tc_types::{NodeId, TopologyKind};

use crate::{torus, tree};

/// Identifier of a router (an on-chip router at a node, or a discrete switch
/// chip in the indirect tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub usize);

impl RouterId {
    /// Returns the dense index of this router.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Identifier of a unidirectional link between two routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl LinkId {
    /// Returns the dense index of this link.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A unidirectional link in the topology graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDescriptor {
    /// Router the link leaves from.
    pub from: RouterId,
    /// Router the link arrives at.
    pub to: RouterId,
}

/// A network topology as data: routers, unidirectional links, and the
/// deterministic source route of every `(source, destination)` pair.
///
/// Node `n` injects into and ejects from router `n`. Routing is
/// deterministic and source-rooted, so the union of the paths from one
/// source to many destinations forms a tree; the fabric relies on this to
/// implement bandwidth-efficient multicast (each shared link carries a
/// multicast message only once). The graph is static, so every path is
/// resolved once at construction into one flat link array.
#[derive(Debug)]
pub struct Topology {
    num_nodes: usize,
    num_routers: usize,
    links: Vec<LinkDescriptor>,
    /// Offset of `(src, dst)`'s path in `routes`, at `src * num_nodes + dst`;
    /// `offsets[num_nodes²]` terminates.
    offsets: Vec<u32>,
    routes: Vec<LinkId>,
}

impl Topology {
    /// Builds the `kind` topology for `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(kind: TopologyKind, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "a topology needs at least one node");
        match kind {
            TopologyKind::Tree => tree::build(num_nodes),
            TopologyKind::Torus => torus::build(num_nodes),
        }
    }

    /// Resolves every route of a graph: `route(src, dst, out)` appends the
    /// links from node `src` to node `dst` in path order. Self-routes are
    /// included: the ordered tree routes `src -> src` through the root round
    /// trip, while the torus routes it over zero links (a local delivery).
    pub(crate) fn resolve(
        num_nodes: usize,
        num_routers: usize,
        links: Vec<LinkDescriptor>,
        mut route: impl FnMut(usize, usize, &mut Vec<LinkId>),
    ) -> Self {
        let mut offsets = Vec::with_capacity(num_nodes * num_nodes + 1);
        let mut routes = Vec::new();
        for src in 0..num_nodes {
            for dst in 0..num_nodes {
                offsets.push(routes.len() as u32);
                route(src, dst, &mut routes);
            }
        }
        offsets.push(routes.len() as u32);
        Topology {
            num_nodes,
            num_routers,
            links,
            offsets,
            routes,
        }
    }

    /// Number of processor nodes attached to the topology.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of routers (including any discrete switches).
    pub fn num_routers(&self) -> usize {
        self.num_routers
    }

    /// All unidirectional links, indexed by [`LinkId`].
    pub fn links(&self) -> &[LinkDescriptor] {
        &self.links
    }

    /// The ordered links a message from `src` to `dst` traverses.
    #[inline]
    pub fn path(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        let i = src.index() * self.num_nodes + dst.index();
        &self.routes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Path lengths between distinct node pairs.
    fn hops(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.num_nodes;
        (0..n * n)
            .filter(move |i| i / n != i % n)
            .map(|i| (self.offsets[i + 1] - self.offsets[i]) as usize)
    }

    /// Average number of link crossings between distinct node pairs.
    pub fn average_hops(&self) -> f64 {
        let pairs = self.num_nodes * self.num_nodes.saturating_sub(1);
        if pairs == 0 {
            return 0.0;
        }
        self.hops().sum::<usize>() as f64 / pairs as f64
    }

    /// Minimum number of link crossings between distinct node pairs — the
    /// shortest path any message between two *different* nodes can take.
    ///
    /// This is the basis of the sharded runner's conservative-PDES
    /// lookahead: an event at node A cannot affect node B (A ≠ B) sooner
    /// than `min_hops() * link_latency` in the future, regardless of how
    /// nodes are partitioned into shards. Deliberately a function of the
    /// topology alone (minimum over *all* distinct pairs, not just
    /// cross-shard pairs) so the derived window is identical at every shard
    /// count — partition-dependent lookahead would break the
    /// `shards(1) == shards(N)` bit-identity contract.
    pub fn min_hops(&self) -> usize {
        self.hops().min().unwrap_or(1).max(1)
    }

    /// Checks the graph and every route: links join distinct routers, and
    /// each path between distinct nodes is non-empty and connected, leaving
    /// the source's router and reaching the destination's.
    #[cfg(test)]
    pub(crate) fn validate(&self) {
        assert!(!self.links.is_empty(), "topology has no links");
        for link in &self.links {
            assert!(link.from.index() < self.num_routers);
            assert!(link.to.index() < self.num_routers);
            assert_ne!(link.from, link.to, "self-loop link");
        }
        for s in 0..self.num_nodes {
            for d in (0..self.num_nodes).filter(|&d| d != s) {
                let path = self.path(NodeId::new(s), NodeId::new(d));
                assert!(!path.is_empty(), "no route from {s} to {d}");
                let mut at = RouterId(s);
                for link_id in path {
                    let link = self.links[link_id.index()];
                    assert_eq!(link.from, at, "disconnected path {s}->{d}");
                    at = link.to;
                }
                assert_eq!(at, RouterId(d), "path does not reach {d}");
            }
        }
    }

    /// Asserts that every router reached from `src` is entered through one
    /// link only: the union of `src`'s routes is a tree.
    #[cfg(test)]
    pub(crate) fn assert_routes_form_a_tree(&self, src: usize) {
        let mut entry_link = std::collections::HashMap::new();
        for d in (0..self.num_nodes).filter(|&d| d != src) {
            for &link_id in self.path(NodeId::new(src), NodeId::new(d)) {
                let to = self.links[link_id.index()].to;
                let existing = *entry_link.entry(to).or_insert(link_id);
                assert_eq!(existing, link_id, "router {to} entered via two links");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_and_link_ids_expose_indices() {
        assert_eq!(RouterId(3).index(), 3);
        assert_eq!(LinkId(9).index(), 9);
        assert_eq!(RouterId(3).to_string(), "R3");
    }
}
