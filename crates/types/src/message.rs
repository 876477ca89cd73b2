//! Coherence messages exchanged between nodes over the interconnect.

use std::fmt;

use tc_sim::{snap_enum, snap_struct};

use crate::addr::BlockAddr;
use crate::ids::{Cycle, NodeId, ReqId};

/// Size in bytes of a control message (requests, acknowledgements,
/// invalidations, dataless token transfers).
///
/// The paper sizes these at 8 bytes, which covers the 40+ bit physical
/// address and, for Token Coherence, the token count.
pub const CONTROL_MSG_BYTES: u64 = 8;

/// Size in bytes of a message that carries a 64-byte data block plus the
/// 8-byte header.
pub const DATA_MSG_BYTES: u64 = 72;

/// The simulated contents of a cache block.
///
/// Rather than modelling 64 bytes of payload, the simulator carries a single
/// version counter per block. Every store increments the version, so the
/// verification layer can check that every load observes the value written by
/// the most recent store that completed before it — a direct check of the
/// single-writer/valid-data safety property the token-counting invariants are
/// supposed to provide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataPayload {
    /// Monotonically increasing version of the block contents.
    pub version: u64,
}

impl DataPayload {
    /// Creates a payload with the given version.
    pub fn new(version: u64) -> Self {
        DataPayload { version }
    }
}

/// Virtual networks used to avoid protocol deadlock.
///
/// Messages on different virtual networks never block each other; within a
/// virtual network, delivery between a given source and destination is
/// modelled in FIFO order by the interconnect. The unordered interconnect
/// (torus) provides **no** ordering between different source/destination
/// pairs, which is exactly the property that breaks traditional snooping and
/// motivates Token Coherence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Vnet {
    /// Transient and ordinary coherence requests.
    Request,
    /// Data and acknowledgement responses.
    Response,
    /// Requests forwarded by a home/directory node, and invalidations.
    Forwarded,
    /// Persistent-request activation/deactivation traffic (Token Coherence).
    Persistent,
    /// Writebacks and token/data evictions to memory.
    Writeback,
}

impl Vnet {
    /// All virtual networks, in priority order used by the interconnect.
    pub const ALL: [Vnet; 5] = [
        Vnet::Response,
        Vnet::Forwarded,
        Vnet::Persistent,
        Vnet::Writeback,
        Vnet::Request,
    ];
}

/// Destination of a message: one of the three patterns the protocols send.
///
/// Each pattern names its node set outright, without reference to the
/// sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// Deliver to a single node.
    Node(NodeId),
    /// Deliver to every node, the sender included (snooping's totally
    /// ordered broadcast).
    All,
    /// Deliver to every node except this one: TokenB's broadcast names its
    /// sender, Hammer's probe the requester.
    AllBut(NodeId),
}

impl Destination {
    /// Returns `true` if `node` is covered by this destination.
    pub fn includes(self, node: NodeId) -> bool {
        match self {
            Destination::Node(n) => n == node,
            Destination::All => true,
            Destination::AllBut(n) => n != node,
        }
    }

    /// Expands the destination into the receiving nodes of a system of
    /// `num_nodes` nodes, in ascending order.
    pub fn expand(self, num_nodes: usize) -> Vec<NodeId> {
        (0..num_nodes)
            .map(NodeId::new)
            .filter(|&n| self.includes(n))
            .collect()
    }
}

/// The kind (opcode + protocol-specific payload) of a coherence message.
///
/// A single enum covers all four protocols so that the interconnect, traffic
/// accounting, and system runner are protocol-agnostic. Each protocol only
/// ever sends and receives the variants it understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgKind {
    // ------------------------------------------------------------------
    // Requests shared by all protocols (8-byte control messages).
    // ------------------------------------------------------------------
    /// Request for a read-only (shared) copy.
    GetS,
    /// Request for a read/write (modified) copy.
    GetM,
    /// Writeback of an owned/modified block to its home (carries data).
    PutM,

    // ------------------------------------------------------------------
    // Token Coherence (correctness substrate + TokenB).
    // ------------------------------------------------------------------
    /// Data together with `tokens` tokens; `owner` marks the owner token.
    TokenData {
        /// Number of tokens carried (including the owner token if present).
        tokens: u32,
        /// Whether the owner token is included (invariant #4': implies data).
        owner: bool,
        /// Whether the block was dirty with respect to memory.
        dirty: bool,
        /// Whether the response was sourced by the home memory rather than a
        /// cache (used for cache-to-cache miss accounting).
        from_memory: bool,
        /// Simulated block contents.
        payload: DataPayload,
    },
    /// Dataless transfer of non-owner tokens (like an invalidation ack).
    TokenOnly {
        /// Number of non-owner tokens carried.
        tokens: u32,
    },
    /// A starving node asks the home arbiter to activate a persistent
    /// request. It carries no read/write flag: an activation sends the
    /// requester all tokens either way.
    PersistentRequest,
    /// The arbiter activates a persistent request on behalf of `requester`.
    PersistentActivate {
        /// Node that will receive all tokens for the block.
        requester: NodeId,
    },
    /// The arbiter deactivates the currently active persistent request.
    PersistentDeactivate,
    /// A node acknowledges a persistent activation or deactivation.
    PersistentAck,
    /// The satisfied requester asks the arbiter to deactivate its request.
    PersistentComplete,

    // ------------------------------------------------------------------
    // Directory / Hammer / Snooping responses and forwards.
    // ------------------------------------------------------------------
    /// Data response. `acks_expected` tells the requester how many
    /// invalidation acknowledgements to collect (directory protocol);
    /// `exclusive` grants write permission; `from_memory` marks responses
    /// sourced by the home memory rather than a cache.
    Data {
        /// Number of invalidation acks the requester must still collect.
        acks_expected: u32,
        /// Whether the copy is exclusive (M/E) rather than shared.
        exclusive: bool,
        /// Whether the response came from memory (as opposed to a cache).
        from_memory: bool,
        /// Simulated block contents.
        payload: DataPayload,
    },
    /// Home/directory forwards a GetS to the current owner.
    FwdGetS {
        /// Original requester that the owner must respond to.
        requester: NodeId,
    },
    /// Home/directory forwards a GetM to the current owner.
    FwdGetM {
        /// Original requester that the owner must respond to.
        requester: NodeId,
        /// Number of invalidation acknowledgements the requester must collect
        /// (the home knows the sharer count; the owner copies it into its
        /// data response).
        acks_expected: u32,
    },
    /// Invalidate a shared copy on behalf of `requester`.
    Inv {
        /// Node waiting for the invalidation acknowledgement.
        requester: NodeId,
    },
    /// Acknowledge an invalidation (directory) or a Hammer probe miss.
    InvAck,
    /// Acknowledge a writeback.
    WbAck,
    /// Snooping writeback handshake: the writer observed its own ordered PutM
    /// but no longer holds the block (ownership was taken by a request
    /// ordered before the PutM, or the writer pulled the block back into its
    /// cache), so no writeback data will follow. The home uses this to close
    /// the writeback window the PutM opened. Carries the version of the
    /// cancelled PutM in `req_id` so out-of-order handshakes can be matched.
    WbCancel,
    /// Requester tells the home/directory that its transaction is complete.
    Unblock,
    /// Requester tells the home it now holds the block exclusively.
    ExclusiveUnblock,
    /// Hammer: home broadcasts the original request to all nodes.
    HammerProbe {
        /// Original requester all nodes must respond to.
        requester: NodeId,
        /// Whether the original request was a GetM.
        write: bool,
    },
}

impl MsgKind {
    /// Returns `true` if this message carries a data block (72 bytes).
    pub fn carries_data(&self) -> bool {
        matches!(
            self,
            MsgKind::TokenData { .. } | MsgKind::Data { .. } | MsgKind::PutM
        )
    }

    /// Returns the simulated size of a message of this kind, in bytes.
    pub fn size_bytes(&self) -> u64 {
        if self.carries_data() {
            DATA_MSG_BYTES
        } else {
            CONTROL_MSG_BYTES
        }
    }

    /// Returns the number of tokens carried by this message (zero for
    /// non-token-protocol messages).
    pub fn token_count(&self) -> u32 {
        match self {
            MsgKind::TokenData { tokens, .. } => *tokens,
            MsgKind::TokenOnly { tokens } => *tokens,
            _ => 0,
        }
    }

    /// Returns `true` if this message carries the owner token.
    pub fn carries_owner_token(&self) -> bool {
        matches!(self, MsgKind::TokenData { owner: true, .. })
    }

    /// Short mnemonic used in traces and debugging output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            MsgKind::GetS => "GetS",
            MsgKind::GetM => "GetM",
            MsgKind::PutM => "PutM",
            MsgKind::TokenData { .. } => "TokenData",
            MsgKind::TokenOnly { .. } => "TokenOnly",
            MsgKind::PersistentRequest => "PersistentRequest",
            MsgKind::PersistentActivate { .. } => "PersistentActivate",
            MsgKind::PersistentDeactivate => "PersistentDeactivate",
            MsgKind::PersistentAck => "PersistentAck",
            MsgKind::PersistentComplete => "PersistentComplete",
            MsgKind::Data { .. } => "Data",
            MsgKind::FwdGetS { .. } => "FwdGetS",
            MsgKind::FwdGetM { .. } => "FwdGetM",
            MsgKind::Inv { .. } => "Inv",
            MsgKind::InvAck => "InvAck",
            MsgKind::WbAck => "WbAck",
            MsgKind::WbCancel => "WbCancel",
            MsgKind::Unblock => "Unblock",
            MsgKind::ExclusiveUnblock => "ExclusiveUnblock",
            MsgKind::HammerProbe { .. } => "HammerProbe",
        }
    }
}

/// A coherence message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Node that sent the message.
    pub src: NodeId,
    /// Where the message is going.
    pub dest: Destination,
    /// Block the message concerns.
    pub addr: BlockAddr,
    /// Opcode and payload.
    pub kind: MsgKind,
    /// Virtual network the message travels on.
    pub vnet: Vnet,
    /// Time at which the message was handed to the interconnect.
    pub sent_at: Cycle,
    /// Outstanding-request identifier at the requester, if any. Used to
    /// distinguish responses to reissued transient requests from stale
    /// responses to earlier issues of the same request.
    pub req_id: Option<ReqId>,
    /// Marks a reissued transient request (Token Coherence only), so traffic
    /// accounting can separate reissues from first-issue requests as the
    /// paper's traffic breakdowns do.
    pub reissue: bool,
}

impl Message {
    /// Creates a message. The interconnect fills in timing as it routes it.
    pub fn new(
        src: NodeId,
        dest: Destination,
        addr: BlockAddr,
        kind: MsgKind,
        vnet: Vnet,
        sent_at: Cycle,
    ) -> Self {
        Message {
            src,
            dest,
            addr,
            kind,
            vnet,
            sent_at,
            req_id: None,
            reissue: false,
        }
    }

    /// Attaches an outstanding-request identifier to the message.
    pub fn with_req_id(mut self, req_id: ReqId) -> Self {
        self.req_id = Some(req_id);
        self
    }

    /// Marks this message as a reissued transient request.
    pub fn as_reissue(mut self) -> Self {
        self.reissue = true;
        self
    }

    /// Returns the simulated wire size of the message in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.kind.size_bytes()
    }
}

// Wire layouts. Tags are append-only and a retired tag is never reused:
// `MsgKind` tag 3 (a shared-eviction notice no protocol sent) and
// `Destination` tags 1 (every node but the sender) and 2 (an explicit node
// list), sets the remaining patterns spell.
snap_struct!(DataPayload { version });
snap_enum!(Vnet, "vnet" {
    0 => Request,
    1 => Response,
    2 => Forwarded,
    3 => Persistent,
    4 => Writeback,
});
snap_enum!(Destination, "destination" {
    0 => Node(node),
    3 => All,
    4 => AllBut(node),
});
snap_enum!(MsgKind, "msg kind" {
    0 => GetS,
    1 => GetM,
    2 => PutM,
    4 => TokenData { tokens, owner, dirty, from_memory, payload },
    5 => TokenOnly { tokens },
    6 => PersistentRequest,
    7 => PersistentActivate { requester },
    8 => PersistentDeactivate,
    9 => PersistentAck,
    10 => PersistentComplete,
    11 => Data { acks_expected, exclusive, from_memory, payload },
    12 => FwdGetS { requester },
    13 => FwdGetM { requester, acks_expected },
    14 => Inv { requester },
    15 => InvAck,
    16 => WbAck,
    17 => WbCancel,
    18 => Unblock,
    19 => ExclusiveUnblock,
    20 => HammerProbe { requester, write },
});
snap_struct!(Message {
    src,
    dest,
    addr,
    kind,
    vnet,
    sent_at,
    req_id,
    reissue,
});

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} -> {:?} @{}",
            self.kind.mnemonic(),
            self.addr,
            self.src,
            self.dest,
            self.sent_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_sim::{Snap, SnapReader, SnapWriter, SnapshotError};

    fn msg(kind: MsgKind) -> Message {
        Message::new(
            NodeId::new(0),
            Destination::AllBut(NodeId::new(0)),
            BlockAddr::new(7),
            kind,
            Vnet::Request,
            100,
        )
    }

    #[test]
    fn control_messages_are_eight_bytes() {
        assert_eq!(msg(MsgKind::GetS).size_bytes(), CONTROL_MSG_BYTES);
        assert_eq!(msg(MsgKind::GetM).size_bytes(), CONTROL_MSG_BYTES);
        assert_eq!(msg(MsgKind::InvAck).size_bytes(), CONTROL_MSG_BYTES);
        assert_eq!(
            msg(MsgKind::TokenOnly { tokens: 5 }).size_bytes(),
            CONTROL_MSG_BYTES
        );
    }

    #[test]
    fn data_messages_are_seventy_two_bytes() {
        let m = msg(MsgKind::TokenData {
            tokens: 3,
            owner: true,
            dirty: false,
            from_memory: false,
            payload: DataPayload::default(),
        });
        assert_eq!(m.size_bytes(), DATA_MSG_BYTES);
        let d = msg(MsgKind::Data {
            acks_expected: 0,
            exclusive: false,
            from_memory: true,
            payload: DataPayload::default(),
        });
        assert_eq!(d.size_bytes(), DATA_MSG_BYTES);
        assert_eq!(msg(MsgKind::PutM).size_bytes(), DATA_MSG_BYTES);
    }

    #[test]
    fn token_counts_are_reported() {
        assert_eq!(
            MsgKind::TokenData {
                tokens: 4,
                owner: true,
                dirty: true,
                from_memory: false,
                payload: DataPayload::new(1),
            }
            .token_count(),
            4
        );
        assert_eq!(MsgKind::TokenOnly { tokens: 2 }.token_count(), 2);
        assert_eq!(MsgKind::GetS.token_count(), 0);
    }

    #[test]
    fn owner_token_implies_data_in_the_type_system() {
        // Only TokenData can carry the owner token, and TokenData always
        // carries data: invariant #4' is structural.
        let with_owner = MsgKind::TokenData {
            tokens: 1,
            owner: true,
            dirty: false,
            from_memory: false,
            payload: DataPayload::default(),
        };
        assert!(with_owner.carries_owner_token());
        assert!(with_owner.carries_data());
        assert!(!MsgKind::TokenOnly { tokens: 3 }.carries_owner_token());
    }

    #[test]
    fn destination_includes_and_expand_agree() {
        for (dest, expected) in [
            (Destination::Node(NodeId::new(1)), vec![1]),
            (Destination::All, vec![0, 1, 2, 3]),
            (Destination::AllBut(NodeId::new(2)), vec![0, 1, 3]),
        ] {
            let expanded = dest.expand(4);
            assert_eq!(
                expanded,
                expected.into_iter().map(NodeId::new).collect::<Vec<_>>()
            );
            for n in 0..4 {
                let node = NodeId::new(n);
                assert_eq!(dest.includes(node), expanded.contains(&node), "{dest:?}");
            }
        }
    }

    #[test]
    fn req_id_builder_attaches_identifier() {
        let m = msg(MsgKind::GetS).with_req_id(ReqId::new(9));
        assert_eq!(m.req_id, Some(ReqId::new(9)));
    }

    #[test]
    fn message_snapshot_round_trips_every_kind() {
        let kinds = [
            MsgKind::GetS,
            MsgKind::GetM,
            MsgKind::PutM,
            MsgKind::TokenData {
                tokens: 3,
                owner: true,
                dirty: true,
                from_memory: false,
                payload: DataPayload::new(42),
            },
            MsgKind::TokenOnly { tokens: 2 },
            MsgKind::PersistentRequest,
            MsgKind::PersistentActivate {
                requester: NodeId::new(3),
            },
            MsgKind::PersistentDeactivate,
            MsgKind::PersistentAck,
            MsgKind::PersistentComplete,
            MsgKind::Data {
                acks_expected: 2,
                exclusive: true,
                from_memory: true,
                payload: DataPayload::new(7),
            },
            MsgKind::FwdGetS {
                requester: NodeId::new(1),
            },
            MsgKind::FwdGetM {
                requester: NodeId::new(2),
                acks_expected: 3,
            },
            MsgKind::Inv {
                requester: NodeId::new(0),
            },
            MsgKind::InvAck,
            MsgKind::WbAck,
            MsgKind::WbCancel,
            MsgKind::Unblock,
            MsgKind::ExclusiveUnblock,
            MsgKind::HammerProbe {
                requester: NodeId::new(1),
                write: true,
            },
        ];
        let dests = [
            Destination::Node(NodeId::new(2)),
            Destination::All,
            Destination::AllBut(NodeId::new(1)),
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let mut m = Message::new(
                NodeId::new(i % 4),
                dests[i % dests.len()],
                BlockAddr::new(64 + i as u64),
                kind,
                Vnet::ALL[i % Vnet::ALL.len()],
                1000 + i as u64,
            );
            if i % 2 == 0 {
                m = m.with_req_id(ReqId::new(900 + i as u64));
            }
            if i % 3 == 0 {
                m = m.as_reissue();
            }
            tc_testkit::assert_snap_round_trip(&m);
        }
        // The retired tag loads as corrupt, never as another kind.
        assert_eq!(
            MsgKind::load(&mut SnapReader::new(&[3])),
            Err(SnapshotError::Corrupt("msg kind tag 3".into()))
        );
    }

    #[test]
    fn the_retired_destination_tag_loads_as_corrupt() {
        // Tag 1 was every node but the sender, tag 2 an explicit node list;
        // neither loads as a pattern.
        for tag in [1, 2] {
            assert_eq!(
                Destination::load(&mut SnapReader::new(&[tag, 0, 0, 0, 0])),
                Err(SnapshotError::Corrupt(format!("destination tag {tag}")))
            );
        }
    }

    #[test]
    fn message_load_rejects_unknown_tags() {
        let mut w = SnapWriter::new();
        w.u32(0); // src
        w.u8(9); // bogus destination tag
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(Message::load(&mut r).is_err());
    }

    #[test]
    fn mnemonics_are_distinct_for_common_kinds() {
        let kinds = [
            MsgKind::GetS,
            MsgKind::GetM,
            MsgKind::PutM,
            MsgKind::InvAck,
            MsgKind::Unblock,
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
