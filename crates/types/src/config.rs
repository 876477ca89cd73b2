//! System configuration, with defaults matching Table 1 of the paper.

use tc_sim::snap_enum;

use crate::error::ConfigError;
use crate::{json_struct, named_enum};

/// Which coherence protocol a system instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Token Coherence with the TokenB broadcast performance protocol
    /// (the paper's contribution).
    TokenB,
    /// Traditional MOSI split-transaction snooping; requires the
    /// totally-ordered tree interconnect.
    Snooping,
    /// Full-map MOSI directory protocol (Origin 2000 / Alpha 21364 style).
    Directory,
    /// AMD-Hammer-style protocol: request to home, home broadcasts, every
    /// node responds to the requester.
    Hammer,
}

snap_enum!(ProtocolKind, "protocol" {
    0 => TokenB,
    1 => Snooping,
    2 => Directory,
    3 => Hammer,
});

named_enum!(ProtocolKind, "protocol" {
    TokenB => "TokenB",
    Snooping => "Snooping",
    Directory => "Directory",
    Hammer => "Hammer",
});

impl ProtocolKind {
    /// Returns `true` if the protocol requires a totally-ordered interconnect.
    pub fn requires_total_order(self) -> bool {
        matches!(self, ProtocolKind::Snooping)
    }
}

/// Interconnect topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Two-level pipelined broadcast tree with a single root switch; provides
    /// a total order of requests (Figure 1a). Four link crossings between any
    /// pair of nodes.
    Tree,
    /// Two-dimensional bidirectional torus; directly connected, unordered
    /// (Figure 1b). Two link crossings on average for 16 nodes.
    Torus,
}

snap_enum!(TopologyKind, "topology" {
    0 => Tree,
    1 => Torus,
});

named_enum!(TopologyKind, "topology" {
    Tree => "Tree",
    Torus => "Torus",
});

impl TopologyKind {
    /// Returns `true` if this topology delivers broadcasts in a total order.
    pub fn is_totally_ordered(self) -> bool {
        matches!(self, TopologyKind::Tree)
    }
}

/// Whether link bandwidth is modelled or treated as infinite.
///
/// The paper reports runtimes both with the 3.2 GB/s links of Table 1 and
/// with unlimited bandwidth, to separate latency effects from contention
/// effects (Figures 4a and 5a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandwidthMode {
    /// Model link serialization and contention at the configured bandwidth.
    Limited,
    /// Links never serialize or queue (latency-only model).
    Unlimited,
}

snap_enum!(BandwidthMode, "bandwidth" {
    0 => Limited,
    1 => Unlimited,
});

named_enum!(BandwidthMode, "bandwidth mode" {
    Limited => "Limited",
    Unlimited => "Unlimited",
});

/// How the directory protocol stores its directory state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectoryMode {
    /// Directory state lives in main-memory DRAM: every directory access
    /// pays the DRAM latency (the base system in the paper).
    InDram,
    /// A "perfect" directory cache: zero-cycle directory access.
    Perfect,
}

named_enum!(DirectoryMode, "directory mode" {
    InDram => "InDram",
    Perfect => "Perfect",
});

/// Parameters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Access latency in nanoseconds.
    pub latency_ns: u64,
}

json_struct!(CacheConfig {
    size_bytes,
    associativity,
    latency_ns,
});

impl CacheConfig {
    /// Checks that this cache is a whole, non-zero number of
    /// `associativity`-way sets of `block_bytes` lines, and returns how many
    /// lines (tag-array slots) that is. `level` names the cache in errors.
    fn lines(&self, level: &str, block_bytes: u64) -> Result<u64, ConfigError> {
        if self.associativity == 0 {
            return Err(ConfigError::new(format!(
                "{level}.associativity must be at least 1"
            )));
        }
        match block_bytes.checked_mul(self.associativity as u64) {
            Some(set) if self.size_bytes >= set && self.size_bytes.is_multiple_of(set) => {
                Ok(self.size_bytes / block_bytes)
            }
            _ => Err(ConfigError::new(format!(
                "{level}.size_bytes must be a whole number of {}-way sets of \
                 {block_bytes}-byte lines",
                self.associativity
            ))),
        }
    }

    /// Number of sets for a given block size.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not a whole number of sets, which
    /// [`SystemConfig::validate`] rules out.
    pub fn num_sets(&self, block_bytes: u64) -> usize {
        let lines = self
            .lines("cache", block_bytes)
            .unwrap_or_else(|e| panic!("{e}"));
        (lines / self.associativity as u64) as usize
    }
}

/// Interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectConfig {
    /// Topology to instantiate.
    pub topology: TopologyKind,
    /// Link bandwidth in bytes per nanosecond (3.2 GB/s = 3.2 bytes/ns).
    pub link_bandwidth_bytes_per_ns: f64,
    /// Per-link latency in nanoseconds (wire + synchronization + routing).
    pub link_latency_ns: u64,
    /// Whether bandwidth is modelled.
    pub bandwidth: BandwidthMode,
}

json_struct!(InterconnectConfig {
    topology,
    link_bandwidth_bytes_per_ns,
    link_latency_ns,
    bandwidth,
});

/// Processor model parameters.
///
/// The paper uses a 4-wide, 11-stage, dynamically scheduled core. Our
/// processor model is a miss-overlap model: it issues memory operations from
/// the workload stream in order, hides cache-hit latency behind computation,
/// and allows up to `max_outstanding_misses` misses to overlap within a
/// reorder window, which reproduces the memory-level parallelism that matters
/// for protocol comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessorConfig {
    /// Maximum number of outstanding cache misses (MSHRs).
    pub max_outstanding_misses: usize,
    /// Number of subsequent memory operations the core may issue past an
    /// outstanding miss before stalling (models the reorder window).
    pub overlap_window: usize,
    /// Memory operations per simulated "transaction" (unit of work used to
    /// report normalized runtime, as in the paper's cycles-per-transaction).
    pub ops_per_transaction: usize,
}

json_struct!(ProcessorConfig {
    max_outstanding_misses,
    overlap_window,
    ops_per_transaction,
});

impl Default for ProcessorConfig {
    fn default() -> Self {
        ProcessorConfig {
            max_outstanding_misses: 4,
            overlap_window: 16,
            ops_per_transaction: 250,
        }
    }
}

/// Token-Coherence-specific tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenConfig {
    /// Tokens per block, `T`. Must be at least the number of processors.
    pub tokens_per_block: u32,
    /// Number of reissued transient requests before escalating to a
    /// persistent request (the paper uses approximately 4).
    pub reissues_before_persistent: u32,
}

json_struct!(TokenConfig {
    tokens_per_block,
    reissues_before_persistent,
});

impl Default for TokenConfig {
    fn default() -> Self {
        TokenConfig {
            tokens_per_block: 16,
            reissues_before_persistent: 4,
        }
    }
}

/// Most nodes a system may have. The interconnect resolves the route of
/// every ordered node pair when it is built: on a 2-core Xeon host 1024
/// nodes take about a second and 140 MB, 4096 exhaust memory, and a failed
/// allocation aborts the process rather than unwinding, so a larger system
/// is refused here.
pub const MAX_NODES: usize = 1024;

/// Most cache lines (tag-array slots, L1 plus L2 over all nodes) a system
/// may have. Building a system allocates 4 bytes per cache *set* (lines are
/// allocated as sets are first filled): 64 MiB at this bound with 1-way sets,
/// and a run may then fill every line. A failed allocation aborts the
/// process rather than unwinding, so a configuration from outside is refused
/// here instead. Table 1 has 1.1 M, its 64-node sweep 4.3 M.
pub const MAX_CACHE_LINES: u64 = 1 << 24;

/// Most entries one line-state table (an MSHR table, a home's state, a
/// writeback buffer) may have held for a snapshot of it to load: a table
/// allocates slots for its high-water mark, which a file states. A table
/// keyed by block address holds at most the blocks a workload touches; the
/// largest any table of the 64-node sweep reaches is 552 entries (at
/// 20000 and at 150000 operations per node alike).
pub const MAX_LINE_TABLE_ENTRIES: usize = 1 << 20;

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of nodes (processor + caches + memory slice per node).
    pub num_nodes: usize,
    /// Cache block size in bytes.
    pub block_bytes: u64,
    /// Split L1 instruction/data cache parameters (each).
    pub l1: CacheConfig,
    /// Unified L2 cache parameters.
    pub l2: CacheConfig,
    /// DRAM access latency in nanoseconds (also the directory lookup latency
    /// when the directory lives in DRAM).
    pub dram_latency_ns: u64,
    /// Memory / directory controller occupancy per message, in nanoseconds.
    pub controller_latency_ns: u64,
    /// Interconnect parameters.
    pub interconnect: InterconnectConfig,
    /// Processor model parameters.
    pub processor: ProcessorConfig,
    /// Coherence protocol to run.
    pub protocol: ProtocolKind,
    /// Directory implementation (ignored by other protocols).
    pub directory_mode: DirectoryMode,
    /// Token Coherence tuning (ignored by other protocols).
    pub token: TokenConfig,
    /// Deterministic seed for workload generation and randomized backoff.
    pub seed: u64,
}

json_struct!(SystemConfig {
    num_nodes,
    block_bytes,
    l1,
    l2,
    dram_latency_ns,
    controller_latency_ns,
    interconnect,
    processor,
    protocol,
    directory_mode,
    token,
    seed,
});

impl SystemConfig {
    /// The 16-processor target system of the paper (Table 1), running TokenB
    /// on the torus interconnect with limited bandwidth.
    pub fn isca03_default() -> Self {
        SystemConfig {
            num_nodes: 16,
            block_bytes: 64,
            l1: CacheConfig {
                size_bytes: 128 * 1024,
                associativity: 4,
                latency_ns: 2,
            },
            l2: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                associativity: 4,
                latency_ns: 6,
            },
            dram_latency_ns: 80,
            controller_latency_ns: 6,
            interconnect: InterconnectConfig {
                topology: TopologyKind::Torus,
                link_bandwidth_bytes_per_ns: 3.2,
                link_latency_ns: 15,
                bandwidth: BandwidthMode::Limited,
            },
            processor: ProcessorConfig::default(),
            protocol: ProtocolKind::TokenB,
            directory_mode: DirectoryMode::InDram,
            token: TokenConfig::default(),
            seed: 0x5eed_1503,
        }
    }

    /// Returns a copy configured for the given protocol, selecting the
    /// interconnect the paper pairs it with by default (Snooping on the
    /// ordered tree, everything else on the torus).
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        if protocol.requires_total_order() {
            self.interconnect.topology = TopologyKind::Tree;
        }
        self
    }

    /// Returns a copy with a different interconnect topology.
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.interconnect.topology = topology;
        self
    }

    /// Returns a copy with the given bandwidth mode.
    pub fn with_bandwidth(mut self, bandwidth: BandwidthMode) -> Self {
        self.interconnect.bandwidth = bandwidth;
        self
    }

    /// Returns a copy with a different node count, growing the token count
    /// if necessary so that `T >= num_nodes`.
    pub fn with_nodes(mut self, num_nodes: usize) -> Self {
        self.num_nodes = num_nodes;
        if (self.token.tokens_per_block as usize) < num_nodes {
            self.token.tokens_per_block = num_nodes as u32;
        }
        self
    }

    /// Returns a copy with a different random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates cross-parameter constraints.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is internally
    /// inconsistent (for example, snooping on an unordered interconnect, or
    /// fewer tokens than processors) or asks for something the simulator
    /// cannot build (a cache that is not a whole number of sets, more nodes
    /// than [`MAX_NODES`], more cache lines than [`MAX_CACHE_LINES`], a
    /// processor with no MSHR or a transaction of no operations).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_nodes == 0 {
            return Err(ConfigError::new("system must have at least one node"));
        }
        if self.num_nodes > MAX_NODES {
            return Err(ConfigError::new(format!(
                "num_nodes must be at most {MAX_NODES} (the interconnect resolves every \
                 route between two nodes when it is built)"
            )));
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(ConfigError::new("block size must be a power of two"));
        }
        let lines_per_node = self
            .l1
            .lines("l1", self.block_bytes)?
            .saturating_add(self.l2.lines("l2", self.block_bytes)?);
        if lines_per_node.saturating_mul(self.num_nodes as u64) > MAX_CACHE_LINES {
            return Err(ConfigError::new(format!(
                "l1.size_bytes and l2.size_bytes ask for more than {MAX_CACHE_LINES} cache lines \
                 over {} nodes",
                self.num_nodes
            )));
        }
        if self.protocol.requires_total_order() && !self.interconnect.topology.is_totally_ordered()
        {
            return Err(ConfigError::new(
                "traditional snooping requires the totally-ordered tree interconnect",
            ));
        }
        if self.protocol == ProtocolKind::TokenB
            && (self.token.tokens_per_block as usize) < self.num_nodes
        {
            return Err(ConfigError::new(
                "tokens per block must be at least the number of processors",
            ));
        }
        if self.interconnect.link_bandwidth_bytes_per_ns <= 0.0 {
            return Err(ConfigError::new("link bandwidth must be positive"));
        }
        // A processor with no MSHR never issues, so its run ends at once
        // with nothing done; a transaction of no operations has no size.
        // `overlap_window` 0 (no run-ahead past a miss) is legal.
        if self.processor.max_outstanding_misses == 0 {
            return Err(ConfigError::new(
                "processor.max_outstanding_misses must be at least 1",
            ));
        }
        if self.processor.ops_per_transaction == 0 {
            return Err(ConfigError::new(
                "processor.ops_per_transaction must be at least 1",
            ));
        }
        Ok(())
    }

    /// Bytes of token state per block (valid bit, owner bit, token count),
    /// as described in Section 3.1 of the paper.
    pub fn token_state_bits(&self) -> u32 {
        2 + (32 - (self.token.tokens_per_block.max(1)).leading_zeros())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::isca03_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters_match_the_paper() {
        let c = SystemConfig::isca03_default();
        assert_eq!(c.num_nodes, 16);
        assert_eq!(c.block_bytes, 64);
        assert_eq!(c.l1.size_bytes, 128 * 1024);
        assert_eq!(c.l1.latency_ns, 2);
        assert_eq!(c.l2.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.l2.latency_ns, 6);
        assert_eq!(c.dram_latency_ns, 80);
        assert_eq!(c.controller_latency_ns, 6);
        assert_eq!(c.interconnect.link_latency_ns, 15);
        assert!((c.interconnect.link_bandwidth_bytes_per_ns - 3.2).abs() < 1e-9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn report_header_enums_round_trip() {
        use tc_testkit::assert_snap_round_trip;
        ProtocolKind::ALL.iter().for_each(assert_snap_round_trip);
        assert_snap_round_trip(&(TopologyKind::Tree, TopologyKind::Torus));
        assert_snap_round_trip(&(BandwidthMode::Limited, BandwidthMode::Unlimited));
    }

    #[test]
    fn enum_names_resolve_in_any_case_and_rejections_list_them() {
        use crate::json::assert_named_enum;
        assert_named_enum(&ProtocolKind::ALL);
        assert_named_enum(&TopologyKind::ALL);
        assert_named_enum(&BandwidthMode::ALL);
        assert_named_enum(&DirectoryMode::ALL);
        assert_eq!(ProtocolKind::by_name("tokenb"), Some(ProtocolKind::TokenB));
        assert_eq!(ProtocolKind::by_name("TokenZ"), None);
    }

    #[test]
    fn unbuildable_geometries_are_rejected_naming_the_field() {
        let base = SystemConfig::isca03_default;
        let rejected = |c: SystemConfig, field: &str| {
            let err = c.validate().expect_err(field);
            assert!(err.message().contains(field), "{err}");
        };
        let mut c = base();
        c.l2.associativity = 0;
        rejected(c, "l2.associativity");
        let mut c = base();
        c.l2.size_bytes = 1000;
        rejected(c, "l2.size_bytes");
        let mut c = base();
        c.l1.size_bytes = 192; // 3 lines, 4-way
        rejected(c, "l1.size_bytes");
        let mut c = base();
        c.l1.size_bytes = 0;
        rejected(c, "l1.size_bytes");
        let mut c = base();
        c.l2.associativity = usize::MAX;
        rejected(c, "l2.size_bytes");
        rejected(base().with_nodes(70_000), "num_nodes");
        // The smallest caches leave the node count as the only bound: the
        // interconnect's n² routes are refused before they are allocated.
        let mut tiny = base();
        for cache in [&mut tiny.l1, &mut tiny.l2] {
            cache.size_bytes = 64;
            cache.associativity = 1;
        }
        assert!(tiny.clone().with_nodes(MAX_NODES).validate().is_ok());
        rejected(tiny.with_nodes(MAX_NODES + 1), "num_nodes");
        let mut c = base();
        c.l2.size_bytes = 1 << 60;
        rejected(c, "cache lines");
        // The bound is on the whole system, not one cache.
        assert!(base().with_nodes(64).validate().is_ok());
        rejected(base().with_nodes(1024), "cache lines");
        let mut c = base();
        c.processor.max_outstanding_misses = 0;
        rejected(c, "processor.max_outstanding_misses");
        let mut c = base();
        c.processor.ops_per_transaction = 0;
        rejected(c, "processor.ops_per_transaction");
        // No run-ahead past a miss is a legal processor.
        let mut c = base();
        c.processor.overlap_window = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cache_geometry_divides_into_sets() {
        let c = SystemConfig::isca03_default();
        assert_eq!(c.l1.num_sets(64), 512);
        assert_eq!(c.l2.num_sets(64), 16384);
    }

    #[test]
    fn snooping_on_torus_is_rejected() {
        let c = SystemConfig::isca03_default()
            .with_protocol(ProtocolKind::Snooping)
            .with_topology(TopologyKind::Torus);
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_protocol_selects_ordered_interconnect_for_snooping() {
        let c = SystemConfig::isca03_default().with_protocol(ProtocolKind::Snooping);
        assert_eq!(c.interconnect.topology, TopologyKind::Tree);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn too_few_tokens_is_rejected() {
        let mut c = SystemConfig::isca03_default().with_nodes(32);
        assert!(c.validate().is_ok());
        c.token.tokens_per_block = 8;
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_nodes_grows_token_count() {
        let c = SystemConfig::isca03_default().with_nodes(64);
        assert_eq!(c.token.tokens_per_block, 64);
    }

    #[test]
    fn token_state_is_about_one_byte_for_sixty_four_tokens() {
        let mut c = SystemConfig::isca03_default();
        c.token.tokens_per_block = 64;
        // valid bit + owner bit + ceil(log2(64+1)) bits ~ 9 bits, the paper's
        // "one byte of storage" claim rounds this to 8.
        assert!(c.token_state_bits() <= 9);
    }

    #[test]
    fn protocol_names_are_stable() {
        assert_eq!(ProtocolKind::TokenB.to_string(), "TokenB");
        assert_eq!(ProtocolKind::Directory.to_string(), "Directory");
        assert_eq!(TopologyKind::Torus.to_string(), "Torus");
    }

    #[test]
    fn unordered_topology_reports_no_total_order() {
        assert!(TopologyKind::Tree.is_totally_ordered());
        assert!(!TopologyKind::Torus.is_totally_ordered());
        assert!(ProtocolKind::Snooping.requires_total_order());
        assert!(!ProtocolKind::TokenB.requires_total_order());
    }
}
