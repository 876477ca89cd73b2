//! Run reports: the measurements every experiment consumes.

use std::fmt;

use tc_sim::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};
use tc_types::{
    AdversarySpec, BandwidthMode, ControllerStats, Cycle, EngineStats, FaultSpec,
    InvariantViolation, MissStats, ProtocolKind, ReissueStats, TopologyKind, TrafficClass,
    TrafficStats,
};

/// Traffic normalized per miss, broken down by message class, as in
/// Figures 4b and 5b of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficBreakdown {
    /// (class, link-crossing bytes per miss) for every traffic class.
    pub per_class: Vec<(TrafficClass, f64)>,
}

impl TrafficBreakdown {
    /// Builds the breakdown from raw traffic and a miss count.
    pub fn new(traffic: &TrafficStats, misses: u64) -> Self {
        let divisor = misses.max(1) as f64;
        let per_class = TrafficClass::ALL
            .iter()
            .map(|class| (*class, traffic.link_bytes(*class) as f64 / divisor))
            .collect();
        TrafficBreakdown { per_class }
    }

    /// Total link-crossing bytes per miss.
    pub fn total(&self) -> f64 {
        self.per_class.iter().map(|(_, b)| b).sum()
    }

    /// Bytes per miss for one class.
    pub fn class(&self, class: TrafficClass) -> f64 {
        self.per_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, b)| *b)
            .unwrap_or(0.0)
    }
}

/// Everything measured in one simulation run.
///
/// `PartialEq` compares every field — including the engine high-water marks
/// and `events_delivered` — so "two runs are equal" means *bit-identical
/// simulation behaviour*, the contract the campaign driver's determinism
/// test pins across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Protocol that was run.
    pub protocol: ProtocolKind,
    /// Interconnect topology used.
    pub topology: TopologyKind,
    /// Whether link bandwidth was limited or unlimited.
    pub bandwidth: BandwidthMode,
    /// Name of the workload profile.
    pub workload: String,
    /// Number of nodes simulated.
    pub num_nodes: usize,
    /// Final simulated time (total runtime) in cycles/nanoseconds.
    pub runtime_cycles: Cycle,
    /// Total memory operations completed across all processors.
    pub total_ops: u64,
    /// Total transactions (groups of operations) completed.
    pub total_transactions: u64,
    /// Aggregated cache/miss statistics across all nodes.
    pub misses: MissStats,
    /// Aggregated reissue histogram (Table 2; zero for non-token protocols).
    pub reissue: ReissueStats,
    /// Aggregated per-controller statistics.
    pub controllers: ControllerStats,
    /// Interconnect traffic by class.
    pub traffic: TrafficStats,
    /// Fault spec the run executed under ([`FaultSpec::none`] for a
    /// reliable fabric); the matching counters live in `engine.faults`.
    pub faults: FaultSpec,
    /// Adversarial-scheduling spec the run executed under
    /// ([`AdversarySpec::none`] for an unperturbed schedule); the matching
    /// counters live in `engine.adversary`.
    pub adversary: AdversarySpec,
    /// Median end-to-end miss latency, in cycles (0 when no miss completed).
    pub miss_latency_p50: Cycle,
    /// 99th-percentile end-to-end miss latency, in cycles.
    pub miss_latency_p99: Cycle,
    /// Worst end-to-end miss latency, in cycles.
    pub miss_latency_max: Cycle,
    /// Completion-share skew across nodes: `(max - min) / mean` per-node
    /// completed operations, in parts per million. The first-class fairness
    /// metric — 0 means every node completed the same share of work.
    pub completion_skew_ppm: u64,
    /// Engine-level high-water marks (queue depth, arena occupancy), for
    /// data-driven bottleneck hunts.
    pub engine: EngineStats,
    /// Invariant violations detected by the verifier (must be empty).
    pub violations: Vec<InvariantViolation>,
}

impl RunReport {
    /// This report with engine *capacity telemetry* zeroed, leaving only
    /// behavioral fields — the view the sharded-execution determinism
    /// contract is stated over.
    ///
    /// A sharded run (`RunOptions::shards >= 1`) produces the same events,
    /// messages, statistics, and violations at every shard count, but each
    /// shard has its own calendar queue and message arena, so the *peak
    /// occupancy* of those structures (and the per-shard vectors in
    /// [`tc_types::ShardStats`]) necessarily depends on how many shards the
    /// work was split across. Comparing `determinism_view()`s bit-for-bit
    /// checks everything the simulation computed while ignoring only how
    /// full the engine's internal containers got.
    pub fn determinism_view(&self) -> RunReport {
        let mut view = self.clone();
        view.engine.peak_queue_depth = 0;
        view.engine.peak_arena_occupancy = 0;
        view.engine.sharding = tc_types::ShardStats::default();
        view
    }

    /// Runtime normalized per transaction: the figure-of-merit the paper
    /// plots ("normalized cycles per transaction", smaller is better).
    pub fn cycles_per_transaction(&self) -> f64 {
        if self.total_transactions == 0 {
            return self.runtime_cycles as f64;
        }
        self.runtime_cycles as f64 * self.num_nodes as f64 / self.total_transactions as f64
    }

    /// Runtime normalized per memory operation (a finer-grained variant of
    /// the same metric, useful for short test runs).
    pub fn cycles_per_op(&self) -> f64 {
        if self.total_ops == 0 {
            return self.runtime_cycles as f64;
        }
        self.runtime_cycles as f64 * self.num_nodes as f64 / self.total_ops as f64
    }

    /// Traffic per miss broken down by class (Figures 4b / 5b).
    pub fn traffic_breakdown(&self) -> TrafficBreakdown {
        TrafficBreakdown::new(&self.traffic, self.misses.total_misses())
    }

    /// Total link-crossing bytes per miss.
    pub fn bytes_per_miss(&self) -> f64 {
        self.traffic_breakdown().total()
    }

    /// The Table 2 row for this run: percentage of misses not reissued,
    /// reissued once, reissued more than once, and completed by a persistent
    /// request.
    pub fn table2_row(&self) -> [f64; 4] {
        self.reissue.percentages()
    }

    /// A short label identifying the configuration, e.g. `TokenB/Torus`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.protocol, self.topology)
    }

    /// Returns an error listing the violations if any were detected.
    ///
    /// # Errors
    ///
    /// Returns the first violation (and logs the count) when the verifier
    /// found any safety or liveness violation.
    pub fn verified(&self) -> Result<(), InvariantViolation> {
        match self.violations.first() {
            None => Ok(()),
            Some(first) => Err(first.clone()),
        }
    }

    /// Serializes every field through the snapshot codec — the persistence
    /// format of the campaign service's result cache. The fault and
    /// adversary specs travel as their canonical `Display` strings, whose
    /// `parse` round-trips are pinned in `tc_types`.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    /// Rebuilds a report from [`RunReport::save_state`] bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on truncated or corrupt input (including
    /// an unknown enum tag or an unparseable spec string).
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<RunReport, SnapshotError> {
        RunReport::load(r)
    }
}

snap_struct!(RunReport {
    protocol,
    topology,
    bandwidth,
    workload,
    num_nodes,
    runtime_cycles,
    total_ops,
    total_transactions,
    misses,
    reissue,
    controllers,
    traffic,
    faults,
    adversary,
    miss_latency_p50,
    miss_latency_p99,
    miss_latency_max,
    completion_skew_ppm,
    engine,
    violations,
});

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {} ({:?} bandwidth), workload {} x{} nodes",
            self.protocol, self.topology, self.bandwidth, self.workload, self.num_nodes
        )?;
        writeln!(
            f,
            "  runtime: {} cycles  ({:.1} cycles/transaction, {:.2} cycles/op)",
            self.runtime_cycles,
            self.cycles_per_transaction(),
            self.cycles_per_op()
        )?;
        writeln!(
            f,
            "  misses: {} ({:.1}% cache-to-cache), avg latency {:.1} ns, {} writebacks",
            self.misses.total_misses(),
            100.0 * self.misses.cache_to_cache_fraction(),
            self.misses.average_miss_latency(),
            self.misses.writebacks
        )?;
        writeln!(
            f,
            "  miss latency percentiles: p50 {} / p99 {} / max {} ns; completion skew {} ppm",
            self.miss_latency_p50,
            self.miss_latency_p99,
            self.miss_latency_max,
            self.completion_skew_ppm
        )?;
        let [p0, p1, p2, p3] = self.table2_row();
        writeln!(
            f,
            "  reissues: {:.2}% none, {:.2}% once, {:.2}% more, {:.2}% persistent",
            p0, p1, p2, p3
        )?;
        writeln!(f, "  traffic: {:.1} bytes/miss", self.bytes_per_miss())?;
        writeln!(
            f,
            "  engine: {} events, peak queue depth {}, peak in-flight messages {}",
            self.engine.events_delivered,
            self.engine.peak_queue_depth,
            self.engine.peak_arena_occupancy
        )?;
        writeln!(
            f,
            "  line-state plane: {} peak entries (mshr {}, wb {}, windows {}, home {}, \
             persistent {}), ~{} KiB",
            self.engine.state.total_entries(),
            self.engine.state.mshr_peak,
            self.engine.state.wb_buffer_peak,
            self.engine.state.wb_window_peak,
            self.engine.state.home_peak,
            self.engine.state.persistent_peak,
            self.engine.state.state_bytes / 1024
        )?;
        if self.engine.arena_accounting_errors > 0 {
            writeln!(
                f,
                "  WARNING: {} arena accounting error(s) — a message slot was over-released",
                self.engine.arena_accounting_errors
            )?;
        }
        if !self.faults.is_none() {
            writeln!(f, "  faults ({}): {}", self.faults, self.engine.faults)?;
        }
        if !self.adversary.is_none() {
            writeln!(
                f,
                "  adversary ({}): {}",
                self.adversary, self.engine.adversary
            )?;
        }
        if self.engine.sharding.shards > 0 {
            let s = &self.engine.sharding;
            writeln!(
                f,
                "  sharded: {} shard(s), lookahead {} ns, {} windows, {} sync stalls",
                s.shards, s.lookahead_ns, s.windows, s.sync_stalls
            )?;
        }
        write!(f, "  violations: {}", self.violations.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut traffic = TrafficStats::new();
        traffic.record(TrafficClass::Request, 8, 4);
        traffic.record(TrafficClass::DataResponseOrWriteback, 72, 2);
        let misses = MissStats {
            read_misses: 2,
            completed_misses: 2,
            total_miss_latency: 300,
            ..MissStats::default()
        };
        RunReport {
            protocol: ProtocolKind::TokenB,
            topology: TopologyKind::Torus,
            bandwidth: BandwidthMode::Limited,
            workload: "OLTP".to_string(),
            num_nodes: 16,
            runtime_cycles: 10_000,
            total_ops: 4_000,
            total_transactions: 16,
            misses,
            reissue: ReissueStats {
                not_reissued: 97,
                reissued_once: 2,
                reissued_more: 1,
                persistent: 0,
            },
            controllers: ControllerStats::new(),
            traffic,
            faults: FaultSpec::none(),
            adversary: AdversarySpec::none(),
            miss_latency_p50: 120,
            miss_latency_p99: 340,
            miss_latency_max: 400,
            completion_skew_ppm: 0,
            engine: EngineStats::default(),
            violations: Vec::new(),
        }
    }

    #[test]
    fn cycles_per_transaction_normalizes_by_node_count() {
        let r = report();
        assert!((r.cycles_per_transaction() - 10_000.0).abs() < 1e-9);
        assert!((r.cycles_per_op() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_breakdown_divides_by_misses() {
        let r = report();
        let breakdown = r.traffic_breakdown();
        assert!((breakdown.class(TrafficClass::Request) - 16.0).abs() < 1e-9);
        assert!((breakdown.class(TrafficClass::DataResponseOrWriteback) - 72.0).abs() < 1e-9);
        assert!((breakdown.total() - r.bytes_per_miss()).abs() < 1e-9);
    }

    #[test]
    fn table2_row_reports_percentages() {
        let r = report();
        let row = r.table2_row();
        assert!((row[0] - 97.0).abs() < 1e-9);
        assert!((row.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn verified_fails_when_violations_exist() {
        let mut r = report();
        assert!(r.verified().is_ok());
        r.violations.push(InvariantViolation::DuplicateOwner {
            addr: tc_types::BlockAddr::new(1),
            at: 5,
        });
        assert!(r.verified().is_err());
    }

    #[test]
    fn display_is_informative() {
        let text = report().to_string();
        assert!(text.contains("TokenB"));
        assert!(text.contains("cycles/transaction"));
        assert!(text.contains("bytes/miss"));
    }

    #[test]
    fn zero_division_guards_hold() {
        let mut r = report();
        r.total_transactions = 0;
        r.total_ops = 0;
        r.misses = MissStats::default();
        assert!(r.cycles_per_transaction() > 0.0);
        assert!(r.cycles_per_op() > 0.0);
        assert!(r.bytes_per_miss() >= 0.0);
    }

    #[test]
    fn label_is_compact() {
        assert_eq!(report().label(), "TokenB/Torus");
    }
}
