//! Named, seeded, contended workload scenarios.

use tc_system::experiment::ExperimentPoint;
use tc_system::{RunOptions, RunReport, System};
use tc_types::{Cycle, ProtocolKind, SystemConfig};
use tc_workloads::WorkloadProfile;

/// A named conformance scenario: a workload plus the system shape that makes
/// it contended. Running one is deterministic in `(protocol, seed)`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name, used in failure reports and replay recipes.
    pub name: &'static str,
    /// The workload every processor runs.
    pub workload: WorkloadProfile,
    /// System size.
    pub num_nodes: usize,
    /// L2 capacity in bytes (small values force eviction/writeback storms).
    pub l2_bytes: u64,
    /// Operations each node must complete.
    pub ops_per_node: u64,
    /// Simulated-time ceiling for one run.
    pub max_cycles: Cycle,
}

impl Scenario {
    /// The standard conformance matrix: three differently-shaped contended
    /// scenarios. Every protocol must survive all of them.
    pub fn standard() -> Vec<Scenario> {
        vec![
            // A handful of blocks everybody writes: racing GetM/upgrade
            // traffic, reissues, persistent requests.
            Scenario {
                name: "hot_block_contention",
                workload: WorkloadProfile::hot_block(),
                num_nodes: 4,
                l2_bytes: 128 * 1024,
                ops_per_node: 400,
                max_cycles: 80_000_000,
            },
            // The paper's most contended commercial calibration at 8 nodes —
            // the configuration that exposed the snooping writeback race.
            Scenario {
                name: "oltp_calibration",
                workload: WorkloadProfile::oltp(),
                num_nodes: 8,
                l2_bytes: 512 * 1024,
                ops_per_node: 600,
                max_cycles: 100_000_000,
            },
            // A deliberately tiny L2 under a migratory/shared mix: constant
            // evictions of dirty blocks, so writebacks race with every
            // request pattern the workload produces.
            Scenario {
                name: "eviction_storm",
                workload: WorkloadProfile::producer_consumer(),
                num_nodes: 4,
                l2_bytes: 64 * 1024,
                ops_per_node: 400,
                max_cycles: 80_000_000,
            },
            // Pure migratory sharing: every block's write ownership
            // ping-pongs around the ring of nodes (read-then-write pairs,
            // near-zero think time) while a small L2 keeps dirty evictions
            // frequent — the heaviest sustained load on the shared
            // writeback plane (buffer churn, pullbacks, and — for snooping —
            // handshake windows racing with every ownership transfer).
            Scenario {
                name: "migratory_ring",
                workload: WorkloadProfile::migratory(),
                num_nodes: 4,
                l2_bytes: 96 * 1024,
                ops_per_node: 400,
                max_cycles: 80_000_000,
            },
        ]
    }

    /// The 64-node scale scenario: the contended OLTP calibration at the
    /// node count the scale sweeps run at, with a per-node L2 small enough
    /// that evictions and writebacks stay frequent. Not part of
    /// [`Scenario::standard`] (the full matrix times 64 nodes would dominate
    /// the suite); CI runs it as its own conformance check so the sweep
    /// scale stays under the same invariant oracle as the small systems.
    pub fn sweep64() -> Scenario {
        Scenario {
            name: "sweep64_oltp",
            workload: WorkloadProfile::oltp(),
            num_nodes: 64,
            l2_bytes: 256 * 1024,
            ops_per_node: 150,
            max_cycles: 400_000_000,
        }
    }

    /// Every named scenario: the standard matrix plus the 64-node scale
    /// scenario. The catalog backing [`Scenario::by_name`], so a new
    /// scenario constructor that skips it is unreachable by name.
    pub fn all() -> Vec<Scenario> {
        let mut all = Scenario::standard();
        all.push(Scenario::sweep64());
        all
    }

    /// Looks up a scenario by name (the replay path printed in failure
    /// reports).
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name == name)
    }

    /// The system configuration this scenario runs `protocol` under.
    pub fn config(&self, protocol: ProtocolKind, seed: u64) -> SystemConfig {
        let mut config = SystemConfig::isca03_default()
            .with_nodes(self.num_nodes)
            .with_protocol(protocol)
            .with_seed(seed);
        config.l2.size_bytes = self.l2_bytes;
        config
    }

    /// This scenario as a campaign-drivable [`ExperimentPoint`], so
    /// conformance scenarios can fan out across cores through
    /// `tc_system::Campaign` exactly like the paper's experiment catalogs.
    /// The point's label embeds `(scenario, protocol, seed)` — the replay
    /// coordinates.
    pub fn experiment_point(&self, protocol: ProtocolKind, seed: u64) -> ExperimentPoint {
        ExperimentPoint::new(
            format!("{}/{}/seed{}", self.name, protocol, seed),
            self.config(protocol, seed),
            self.workload.clone(),
        )
    }

    /// The run options a full-length run of this scenario uses.
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            ops_per_node: self.ops_per_node,
            max_cycles: self.max_cycles,
            ..RunOptions::default()
        }
    }

    /// Runs the scenario to completion under [`Scenario::run_options`] and
    /// returns the audited report.
    pub fn run(&self, protocol: ProtocolKind, seed: u64) -> RunReport {
        self.run_under(protocol, seed, self.run_options())
    }

    /// Runs the scenario's [`Scenario::experiment_point`] under `options`,
    /// *as given*: a shorter run (the shrinking hook), a fault or adversary
    /// spec inside `protocol`'s contract (the plane refuses to arm outside
    /// it), a shard count. Deterministic in every argument.
    pub fn run_under(&self, protocol: ProtocolKind, seed: u64, options: RunOptions) -> RunReport {
        self.experiment_point(protocol, seed).run(options)
    }

    /// Runs the scenario interrupted-and-resumed: the run is checkpointed
    /// every `options.checkpoint_every` delivered events, cut at the *first*
    /// checkpoint past the cadence, and a **fresh** system restores that
    /// snapshot and finishes the run. Conformance asserts the returned
    /// report is bit-identical to [`Scenario::run_under`]'s — the
    /// restore-equivalence oracle of the snapshot plane.
    ///
    /// # Panics
    ///
    /// Panics if the run delivers too few events to reach even one
    /// checkpoint, or if the snapshot fails to restore — both are test
    /// failures, not conditions for a conformance suite to tolerate.
    pub fn run_resumed(&self, protocol: ProtocolKind, seed: u64, options: RunOptions) -> RunReport {
        let config = self.config(protocol, seed);

        // First leg: run to completion but keep the first snapshot. (The
        // engine has no mid-run abort; cutting at the first checkpoint and
        // discarding the rest of this run models the crash.)
        let mut first_snapshot: Option<Vec<u8>> = None;
        let mut interrupted = System::build(&config, &self.workload);
        interrupted.run_with_checkpoints(options, &mut |_, bytes| {
            if first_snapshot.is_none() {
                first_snapshot = Some(bytes.to_vec());
            }
        });
        let snapshot = first_snapshot.unwrap_or_else(|| {
            panic!(
                "scenario {} delivered too few events for a checkpoint every {:?} events",
                self.name, options.checkpoint_every
            )
        });

        // Second leg: a fresh system restores the snapshot and finishes.
        let mut resumed = System::build(&config, &self.workload);
        let progress = resumed
            .restore(&options, &snapshot)
            .unwrap_or_else(|e| panic!("scenario {}: snapshot restore failed: {e}", self.name));
        resumed.resume(options, progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_matrix_has_at_least_three_distinct_scenarios() {
        let scenarios = Scenario::standard();
        assert!(scenarios.len() >= 3);
        let mut names: Vec<_> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
    }

    #[test]
    fn by_name_round_trips() {
        for scenario in Scenario::all() {
            assert_eq!(
                Scenario::by_name(scenario.name).unwrap().name,
                scenario.name
            );
        }
        assert!(Scenario::by_name("nope").is_none());
    }

    #[test]
    fn experiment_points_carry_the_replay_coordinates() {
        let scenario = Scenario::by_name("hot_block_contention").unwrap();
        let point = scenario.experiment_point(ProtocolKind::Hammer, 42);
        assert!(point.label.contains("hot_block_contention"));
        assert!(point.label.contains("Hammer"));
        assert!(point.label.contains("seed42"));
        assert_eq!(point.config.seed, 42);
        assert_eq!(point.config.num_nodes, scenario.num_nodes);
        assert!(point.config.validate().is_ok());
        assert_eq!(scenario.run_options().ops_per_node, scenario.ops_per_node);
    }

    #[test]
    fn runs_are_deterministic_in_protocol_and_seed() {
        let scenario = Scenario {
            ops_per_node: 150,
            ..Scenario::by_name("hot_block_contention").unwrap()
        };
        let a = scenario.run(ProtocolKind::Directory, 9);
        let b = scenario.run(ProtocolKind::Directory, 9);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.traffic.total_link_bytes(), b.traffic.total_link_bytes());
    }
}
