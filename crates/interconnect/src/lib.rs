//! Interconnection-network models.
//!
//! The paper compares two interconnects built from the same 3.2 GB/s,
//! 15 ns point-to-point links (Table 1, Section 5.2):
//!
//! * an **ordered two-level pipelined broadcast tree** (Figure 1a) — every
//!   message climbs to a single root switch and back down, so all nodes
//!   observe all broadcasts in the same order (a "virtual bus"), at the cost
//!   of four link crossings and a central bottleneck; and
//! * an **unordered two-dimensional bidirectional torus** (Figure 1b) —
//!   directly connected, two link crossings on average for 16 nodes, but no
//!   total order of requests, which rules out traditional snooping.
//!
//! [`Interconnect`] models both with per-link serialization (store-and-
//! forward contention), bandwidth-efficient tree-based multicast routing, and
//! traffic accounting by message class.
//! [`FaultPlane`] is the one hook that perturbs what the fabric computed:
//! a fault stage, then an adversary stage, over each send's arrivals.
//!
//! # Example
//!
//! ```
//! use tc_interconnect::Interconnect;
//! use tc_types::{
//!     BlockAddr, Destination, InterconnectConfig, Message, MsgKind, NodeId, TopologyKind, Vnet,
//!     BandwidthMode,
//! };
//!
//! let config = InterconnectConfig {
//!     topology: TopologyKind::Torus,
//!     link_bandwidth_bytes_per_ns: 3.2,
//!     link_latency_ns: 15,
//!     bandwidth: BandwidthMode::Limited,
//! };
//! let mut network = Interconnect::new(16, config);
//! let msg = Message::new(
//!     NodeId::new(0),
//!     Destination::Node(NodeId::new(5)),
//!     BlockAddr::new(42),
//!     MsgKind::GetS,
//!     Vnet::Request,
//!     0,
//! );
//! let mut arrivals = Vec::new();
//! network.send_arrivals(0, &msg, &mut arrivals);
//! assert_eq!(arrivals.len(), 1);
//! assert!(arrivals[0].0 > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adversary;
pub mod fabric;
pub mod fault;
mod plane_rng;
pub mod topology;
mod torus;
mod tree;

pub use fabric::{Interconnect, LinkUtilization};
pub use fault::FaultPlane;
pub use topology::{LinkId, RouterId, Topology};
