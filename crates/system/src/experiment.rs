//! Ready-made experiment configurations for every table and figure of the
//! paper's evaluation, shared by the benchmark binaries, the examples, and
//! the integration tests.

use tc_protocols::ProtocolRegistry;
use tc_types::{BandwidthMode, DirectoryMode, FaultSpec, ProtocolKind, SystemConfig, TopologyKind};
use tc_workloads::WorkloadProfile;

use crate::report::RunReport;
use crate::runner::{RunOptions, System};

/// A single experiment point: a configuration plus a workload.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Short label used in printed tables (e.g. `"TokenB-Torus"`).
    pub label: String,
    /// System configuration for this point.
    pub config: SystemConfig,
    /// Workload to run.
    pub workload: WorkloadProfile,
    /// Per-point fault spec; when non-empty it overrides the campaign-wide
    /// `RunOptions::faults` (the `faultsweep` campaign varies faults across
    /// points this way).
    pub faults: FaultSpec,
}

impl ExperimentPoint {
    /// Creates a point (with a reliable fabric).
    pub fn new(label: impl Into<String>, config: SystemConfig, workload: WorkloadProfile) -> Self {
        ExperimentPoint {
            label: label.into(),
            config,
            workload,
            faults: FaultSpec::none(),
        }
    }

    /// Returns this point with a per-point fault spec.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Builds and runs the point with the default protocol registry.
    pub fn run(&self, options: RunOptions) -> RunReport {
        self.run_with(options, tc_protocols::default_registry())
    }

    /// Builds and runs the point, constructing controllers through
    /// `registry` (for experimental protocol variants).
    pub fn run_with(&self, options: RunOptions, registry: &ProtocolRegistry) -> RunReport {
        let mut system = System::build_with(&self.config, &self.workload, registry);
        system.run(self.effective_options(&options))
    }

    /// The options this point runs under when its campaign runs under
    /// `options`: the point's own `faults`, when set, replace the
    /// campaign-wide ones. What is run and what the result cache keys on.
    pub fn effective_options(&self, options: &RunOptions) -> RunOptions {
        let mut options = *options;
        if !self.faults.is_none() {
            options.faults = self.faults;
        }
        options
    }
}

impl RunOptions {
    /// Standard run length used by the experiment campaigns: long enough for
    /// the relative protocol behaviour to stabilize, short enough to finish
    /// a full figure in minutes.
    pub fn standard() -> Self {
        RunOptions {
            ops_per_node: 12_000,
            max_cycles: 1_000_000_000,
            ..RunOptions::default()
        }
    }

    /// An abbreviated run used by tests and smoke checks.
    pub fn smoke() -> Self {
        RunOptions {
            ops_per_node: 1_500,
            max_cycles: 100_000_000,
            ..RunOptions::default()
        }
    }

    /// Run options for the full 64-node, million-ops-per-node sweep.
    pub fn sweep64() -> Self {
        RunOptions {
            ops_per_node: SWEEP64_OPS_PER_NODE,
            max_cycles: 200_000_000_000,
            ..RunOptions::default()
        }
    }
}

/// The base 16-processor configuration of Table 1.
pub fn base_config() -> SystemConfig {
    SystemConfig::isca03_default()
}

/// Table 2: TokenB reissue behaviour on the torus for each commercial
/// workload.
pub fn table2_points() -> Vec<ExperimentPoint> {
    WorkloadProfile::commercial()
        .into_iter()
        .map(|w| {
            ExperimentPoint::new(
                w.name,
                base_config()
                    .with_protocol(ProtocolKind::TokenB)
                    .with_topology(TopologyKind::Torus),
                w,
            )
        })
        .collect()
}

/// Figure 4a: runtime of Snooping on the tree vs TokenB on the tree and the
/// torus, each with limited and unlimited bandwidth, for one workload.
pub fn figure4a_points(workload: &WorkloadProfile) -> Vec<ExperimentPoint> {
    let mut points = Vec::new();
    for bandwidth in [BandwidthMode::Limited, BandwidthMode::Unlimited] {
        let suffix = match bandwidth {
            BandwidthMode::Limited => "3.2GB/s",
            BandwidthMode::Unlimited => "unlimited",
        };
        points.push(ExperimentPoint::new(
            format!("TokenB-Tree ({suffix})"),
            base_config()
                .with_protocol(ProtocolKind::TokenB)
                .with_topology(TopologyKind::Tree)
                .with_bandwidth(bandwidth),
            workload.clone(),
        ));
        points.push(ExperimentPoint::new(
            format!("Snooping-Tree ({suffix})"),
            base_config()
                .with_protocol(ProtocolKind::Snooping)
                .with_bandwidth(bandwidth),
            workload.clone(),
        ));
        points.push(ExperimentPoint::new(
            format!("TokenB-Torus ({suffix})"),
            base_config()
                .with_protocol(ProtocolKind::TokenB)
                .with_topology(TopologyKind::Torus)
                .with_bandwidth(bandwidth),
            workload.clone(),
        ));
    }
    points
}

/// Figure 4b: traffic of TokenB vs Snooping (limited bandwidth, each on its
/// natural interconnect) for one workload.
pub fn figure4b_points(workload: &WorkloadProfile) -> Vec<ExperimentPoint> {
    vec![
        ExperimentPoint::new(
            "TokenB",
            base_config()
                .with_protocol(ProtocolKind::TokenB)
                .with_topology(TopologyKind::Torus),
            workload.clone(),
        ),
        ExperimentPoint::new(
            "Snooping",
            base_config().with_protocol(ProtocolKind::Snooping),
            workload.clone(),
        ),
    ]
}

/// Figure 5a: runtime of TokenB, Hammer, and Directory on the torus, with
/// limited and unlimited bandwidth, plus the Directory variant with a
/// perfect (zero-latency) directory, for one workload.
pub fn figure5a_points(workload: &WorkloadProfile) -> Vec<ExperimentPoint> {
    let mut points = Vec::new();
    for bandwidth in [BandwidthMode::Limited, BandwidthMode::Unlimited] {
        let suffix = match bandwidth {
            BandwidthMode::Limited => "3.2GB/s",
            BandwidthMode::Unlimited => "unlimited",
        };
        for protocol in [
            ProtocolKind::TokenB,
            ProtocolKind::Hammer,
            ProtocolKind::Directory,
        ] {
            points.push(ExperimentPoint::new(
                format!("{protocol}-Torus ({suffix})"),
                base_config()
                    .with_protocol(protocol)
                    .with_topology(TopologyKind::Torus)
                    .with_bandwidth(bandwidth),
                workload.clone(),
            ));
        }
    }
    // The DRAM-directory-lookup sensitivity point: a perfect directory cache.
    let mut perfect = base_config()
        .with_protocol(ProtocolKind::Directory)
        .with_topology(TopologyKind::Torus);
    perfect.directory_mode = DirectoryMode::Perfect;
    points.push(ExperimentPoint::new(
        "Directory-Torus (perfect directory)",
        perfect,
        workload.clone(),
    ));
    points
}

/// Figure 5b: traffic of TokenB, Hammer, and Directory on the torus for one
/// workload.
pub fn figure5b_points(workload: &WorkloadProfile) -> Vec<ExperimentPoint> {
    [
        ProtocolKind::TokenB,
        ProtocolKind::Hammer,
        ProtocolKind::Directory,
    ]
    .into_iter()
    .map(|protocol| {
        ExperimentPoint::new(
            protocol.name(),
            base_config()
                .with_protocol(protocol)
                .with_topology(TopologyKind::Torus),
            workload.clone(),
        )
    })
    .collect()
}

/// The per-node operation count of the full 64-node sweep. At the engine's
/// measured throughput this is minutes of wall-clock per point in release
/// mode; tests scale it down via [`ExperimentPoint::run`]'s options while CI
/// runs one full point as a smoke check.
pub const SWEEP64_OPS_PER_NODE: u64 = 1_000_000;

/// The 64-node scale sweep: every protocol on every topology it supports
/// (snooping requires the ordered tree), on the contended OLTP calibration.
/// Seven points: TokenB/Directory/Hammer on both the torus and the tree,
/// plus Snooping on the tree.
pub fn sweep64_points() -> Vec<ExperimentPoint> {
    let workload = WorkloadProfile::oltp();
    let mut points = Vec::new();
    for protocol in [
        ProtocolKind::TokenB,
        ProtocolKind::Directory,
        ProtocolKind::Hammer,
        ProtocolKind::Snooping,
    ] {
        for topology in [TopologyKind::Torus, TopologyKind::Tree] {
            if protocol == ProtocolKind::Snooping && topology != TopologyKind::Tree {
                continue;
            }
            points.push(ExperimentPoint::new(
                format!("{protocol}-{topology:?}-64p"),
                base_config()
                    .with_nodes(64)
                    .with_protocol(protocol)
                    .with_topology(topology),
                workload.clone(),
            ));
        }
    }
    points
}

/// The reference fault mix for the `faultsweep` campaign: the acceptance
/// mix from the paper-reproduction issue — 1% loss, 0.5% duplication, 2%
/// jitter up to 150 ns, and a reorder window of 4 link hops.
pub fn faultsweep_reference_spec() -> FaultSpec {
    FaultSpec::none()
        .with_drop(0.01)
        .with_dup(0.005)
        .with_delay(0.02, 150)
        .with_reorder(4)
}

/// The `faultsweep` campaign: for each protocol that contracts to survive
/// any fault class, a fault-free baseline, one point per tolerated class,
/// and a combined point (the reference mix restricted to the protocol's
/// contract). A contended hot-block workload on a small system keeps every
/// point fast while making the recovery machinery — reissue timeouts and
/// persistent requests — actually work for its living.
pub fn faultsweep_points() -> Vec<ExperimentPoint> {
    use tc_types::FaultKind;
    let workload = WorkloadProfile::hot_block();
    let mut points = Vec::new();
    for protocol in [
        ProtocolKind::TokenB,
        ProtocolKind::Hammer,
        ProtocolKind::Directory,
    ] {
        let config = base_config()
            .with_nodes(4)
            .with_protocol(protocol)
            .with_topology(TopologyKind::Torus);
        points.push(ExperimentPoint::new(
            format!("{protocol} (reliable)"),
            config.clone(),
            workload.clone(),
        ));
        for kind in protocol.tolerated_faults() {
            let spec = match kind {
                FaultKind::Drop => FaultSpec::none().with_drop(0.01),
                FaultKind::Duplicate => FaultSpec::none().with_dup(0.005),
                FaultKind::Delay => FaultSpec::none().with_delay(0.05, 200),
                FaultKind::Reorder => FaultSpec::none().with_reorder(4),
                FaultKind::LinkDown => FaultSpec::none().with_outage(1, 2, 10_000, 60_000),
            };
            points.push(
                ExperimentPoint::new(
                    format!("{protocol}+{kind}"),
                    config.clone(),
                    workload.clone(),
                )
                .with_faults(spec),
            );
        }
        let combined = faultsweep_reference_spec().restricted_to(protocol);
        points.push(
            ExperimentPoint::new(
                format!("{protocol}+combined"),
                config.clone(),
                workload.clone(),
            )
            .with_faults(combined),
        );
    }
    points
}

/// Question 5 (scalability): TokenB vs Directory traffic on the uniform
/// microbenchmark at increasing node counts.
pub fn scalability_points(num_nodes: usize) -> Vec<ExperimentPoint> {
    [
        ProtocolKind::TokenB,
        ProtocolKind::Directory,
        ProtocolKind::Hammer,
    ]
    .into_iter()
    .map(|protocol| {
        ExperimentPoint::new(
            format!("{protocol}-{num_nodes}p"),
            base_config()
                .with_nodes(num_nodes)
                .with_protocol(protocol)
                .with_topology(TopologyKind::Torus),
            WorkloadProfile::uniform_shared(),
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_covers_all_three_commercial_workloads() {
        let points = table2_points();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.config.protocol, ProtocolKind::TokenB);
            assert_eq!(p.config.interconnect.topology, TopologyKind::Torus);
            assert!(p.config.validate().is_ok());
        }
    }

    #[test]
    fn figure4a_has_six_valid_points() {
        let points = figure4a_points(&WorkloadProfile::oltp());
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(p.config.validate().is_ok(), "{}", p.label);
        }
        assert!(points.iter().any(|p| p.label.contains("Snooping")));
        assert!(points.iter().any(|p| p.label.contains("Torus")));
    }

    #[test]
    fn figure5a_includes_the_perfect_directory_point() {
        let points = figure5a_points(&WorkloadProfile::apache());
        assert_eq!(points.len(), 7);
        assert!(points
            .iter()
            .any(|p| p.config.directory_mode == DirectoryMode::Perfect));
        for p in &points {
            assert!(p.config.validate().is_ok(), "{}", p.label);
        }
    }

    #[test]
    fn sweep64_covers_every_protocol_and_every_legal_topology() {
        let points = sweep64_points();
        assert_eq!(points.len(), 7);
        for p in &points {
            assert_eq!(p.config.num_nodes, 64);
            assert!(p.config.validate().is_ok(), "{}", p.label);
        }
        for protocol in ProtocolKind::ALL {
            assert!(
                points.iter().any(|p| p.config.protocol == protocol),
                "{protocol} missing from the sweep"
            );
        }
        assert!(points
            .iter()
            .any(|p| p.config.interconnect.topology == TopologyKind::Tree));
        assert!(points
            .iter()
            .any(|p| p.config.interconnect.topology == TopologyKind::Torus));
        assert_eq!(RunOptions::sweep64().ops_per_node, SWEEP64_OPS_PER_NODE);
    }

    #[test]
    fn scalability_points_grow_token_count_with_nodes() {
        let points = scalability_points(64);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.config.num_nodes, 64);
            assert!(p.config.validate().is_ok(), "{}", p.label);
        }
    }

    #[test]
    fn run_option_constructors_are_distinct_and_sane() {
        // `Default` stays the runner-level quick configuration; the named
        // constructors cover the campaign regimes (the deprecated
        // `default_options`/`smoke_options`/`sweep64_options` free functions
        // were removed once every caller moved to these).
        assert!(RunOptions::default().ops_per_node > 0);
        assert!(RunOptions::smoke().ops_per_node < RunOptions::standard().ops_per_node);
        assert_eq!(RunOptions::sweep64().ops_per_node, SWEEP64_OPS_PER_NODE);
    }

    #[test]
    fn a_point_can_be_run_end_to_end() {
        let mut config = base_config()
            .with_nodes(4)
            .with_protocol(ProtocolKind::TokenB);
        config.l2.size_bytes = 256 * 1024;
        let point = ExperimentPoint::new("smoke", config, WorkloadProfile::specjbb());
        let report = point.run(RunOptions {
            ops_per_node: 400,
            max_cycles: 20_000_000,
            ..RunOptions::default()
        });
        assert!(report.total_ops >= 1600);
        assert!(report.violations.is_empty());
    }
}
