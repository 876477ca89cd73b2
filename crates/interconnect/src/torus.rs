//! Two-dimensional bidirectional torus (Figure 1b).
//!
//! Nodes are arranged in a (near-)square grid with wrap-around links in both
//! dimensions, like the Alpha 21364 network. Routing is deterministic
//! dimension-order (X then Y) with shortest-direction wrap, which keeps the
//! union of paths from a single source a tree (needed for multicast).
//! The torus is *directly connected* — no glue chips — and provides **no**
//! total order of requests.

use std::collections::HashMap;

use crate::topology::{LinkDescriptor, LinkId, RouterId, Topology};

/// Builds the torus for `num_nodes` nodes on the most square grid whose
/// dimensions multiply to `num_nodes`; router `y * width + x` sits at
/// `(x, y)`.
pub(crate) fn build(num_nodes: usize) -> Topology {
    let (width, height) = dimensions(num_nodes);
    let mut links = Vec::new();
    let mut link_index = HashMap::new();
    let mut add_link = |from: usize, to: usize| {
        if from == to || link_index.contains_key(&(from, to)) {
            return;
        }
        link_index.insert((from, to), LinkId(links.len()));
        links.push(LinkDescriptor {
            from: RouterId(from),
            to: RouterId(to),
        });
    };
    for y in 0..height {
        for x in 0..width {
            let here = y * width + x;
            if width > 1 {
                add_link(here, y * width + (x + 1) % width);
                add_link(here, y * width + (x + width - 1) % width);
            }
            if height > 1 {
                add_link(here, ((y + 1) % height) * width + x);
                add_link(here, ((y + height - 1) % height) * width + x);
            }
        }
    }
    Topology::resolve(num_nodes, num_nodes, links, |src, dst, path| {
        let (mut x, mut y) = (src % width, src / width);
        let (dx, dy) = (dst % width, dst / width);
        for next in dimension_steps(x, dx, width) {
            path.push(link_index[&(y * width + x, y * width + next)]);
            x = next;
        }
        for next in dimension_steps(y, dy, height) {
            path.push(link_index[&(y * width + x, next * width + x)]);
            y = next;
        }
    })
}

/// Picks the most square `width x height` factorization of `n`.
fn dimensions(n: usize) -> (usize, usize) {
    let mut w = (n as f64).sqrt() as usize;
    while w >= 1 {
        if n.is_multiple_of(w) {
            return (n / w, w);
        }
        w -= 1;
    }
    (n, 1)
}

/// Steps along one dimension from `from` toward `to` (size `len`), yielding
/// the successive coordinates, using the shortest wrap direction (ties
/// resolved toward increasing coordinates).
fn dimension_steps(from: usize, to: usize, len: usize) -> impl Iterator<Item = usize> {
    let forward = (to + len - from) % len;
    let backward = (from + len - to) % len;
    let (step, count) = if forward <= backward {
        (1, forward)
    } else {
        (len - 1, backward)
    };
    (1..=count).map(move |i| (from + i * step) % len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{NodeId, TopologyKind};

    fn torus(n: usize) -> Topology {
        Topology::new(TopologyKind::Torus, n)
    }

    fn hops(t: &Topology, s: usize, d: usize) -> usize {
        t.path(NodeId::new(s), NodeId::new(d)).len()
    }

    #[test]
    fn sixteen_nodes_make_a_four_by_four_grid() {
        assert_eq!(dimensions(16), (4, 4));
        let t = torus(16);
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.num_routers(), 16);
        assert_eq!(t.links().len(), 64);
    }

    #[test]
    fn sixty_four_nodes_make_an_eight_by_eight_grid() {
        assert_eq!(dimensions(64), (8, 8));
        // The diameter is four hops in each dimension.
        assert_eq!(hops(&torus(64), 0, 4 * 8 + 4), 8);
    }

    #[test]
    fn non_square_counts_pick_closest_factorization() {
        assert_eq!(dimensions(8), (4, 2));
        assert_eq!(dimensions(7), (7, 1));
    }

    #[test]
    fn routes_are_valid_paths() {
        for n in [16, 8, 4, 2] {
            torus(n).validate();
        }
    }

    #[test]
    fn four_by_four_average_distance_is_two_hops() {
        // The paper quotes two link crossings on average for the 4x4 torus.
        let avg = torus(16).average_hops();
        assert!(
            (avg - 32.0 / 15.0).abs() < 1e-9,
            "expected ~2.13 average hops, got {avg}"
        );
        assert_eq!(torus(16).min_hops(), 1);
    }

    #[test]
    fn neighbors_are_one_hop_apart() {
        let t = torus(16);
        assert_eq!(hops(&t, 0, 1), 1);
        assert_eq!(hops(&t, 0, 4), 1);
        // Wrap-around links.
        assert_eq!(hops(&t, 0, 3), 1);
        assert_eq!(hops(&t, 0, 12), 1);
    }

    #[test]
    fn routing_uses_shortest_wrap_direction() {
        // From x=0 to x=3 the wrap-around link (one hop) is chosen over the
        // three-hop forward direction.
        let t = torus(16);
        let path = t.path(NodeId::new(0), NodeId::new(3));
        assert_eq!(path.len(), 1);
        assert_eq!(t.links()[path[0].index()].to, RouterId(3));
    }

    #[test]
    fn torus_is_unordered() {
        // No switch serializes the torus: routes between different pairs
        // can share no link at all.
        assert!(!TopologyKind::Torus.is_totally_ordered());
        let t = torus(16);
        let a = t.path(NodeId::new(0), NodeId::new(1));
        let b = t.path(NodeId::new(2), NodeId::new(3));
        assert!(a.iter().all(|link| !b.contains(link)));
    }

    #[test]
    fn opposite_corner_is_the_diameter() {
        // Node 10 is at (2,2): two hops in each dimension from node 0.
        assert_eq!(hops(&torus(16), 0, 10), 4);
    }

    #[test]
    fn union_of_paths_from_one_source_is_a_tree() {
        torus(16).assert_routes_form_a_tree(0);
    }

    #[test]
    fn bidirectional_links_exist_in_both_directions() {
        let t = torus(16);
        let forward = t.path(NodeId::new(0), NodeId::new(1));
        let backward = t.path(NodeId::new(1), NodeId::new(0));
        assert_eq!(forward.len(), 1);
        assert_eq!(backward.len(), 1);
        assert_ne!(forward[0], backward[0], "links are unidirectional objects");
    }

    #[test]
    fn single_node_torus_has_no_routes() {
        let t = torus(1);
        assert_eq!(t.num_nodes(), 1);
        assert!(t.path(NodeId::new(0), NodeId::new(0)).is_empty());
        assert_eq!(t.min_hops(), 1);
    }
}
