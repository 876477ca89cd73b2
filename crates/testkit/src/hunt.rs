//! The pathology hunter: adversarial schedule search over [`AdversarySpec`].
//!
//! The persistent-request machinery exists to bound worst-case waiting, so
//! its interesting failures are not random — they are *schedules*: a reorder
//! window that keeps overtaking one node's requests, a targeted delay that
//! leans on one miss, a retry storm timed against a reissue timer. This
//! module searches that schedule space mechanically: a seeded random probe
//! phase over the [`AdversarySpec`] knobs, then greedy single-knob mutation
//! around the best probe, with an integer pathology objective built from the
//! run's tail metrics (worst/p99 miss latency, reissue and persistent-request
//! pressure, completion-share skew).
//!
//! Two kinds of find come out:
//!
//! * **Violations** — a probe whose run fails the verifier (including the
//!   fairness oracle's `Starvation`) is captured as a [`Failure`] and fed
//!   through the fault-aware shrinker ([`crate::shrink`]), so the hunter
//!   reports the *minimal* `(ops, faults, adversary)` repro, not the raw hit.
//!   A stock protocol must never produce one; the deliberately sabotaged
//!   arbiter must.
//! * **Pathologies** — violation-free schedules that maximize the objective.
//!   The worst ones found are pinned in [`pathology_catalog`] and re-run by
//!   conformance CI forever after, so a regression that makes the protocol
//!   *fragile* under a known-bad schedule (rather than incorrect) still
//!   trips a test.
//!
//! Determinism contract: [`hunt`] is a pure function of [`HuntOptions`].
//! Every probe is drawn from a [`DeterministicRng`] seeded only by
//! `options.seed`, every evaluation is a deterministic simulation run, and
//! the outcome (best spec, objective trace, failure) is therefore
//! bit-for-bit reproducible — which is what lets CI assert on a hunt's
//! output instead of merely tolerating it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use tc_sim::DeterministicRng;
use tc_system::RunReport;
use tc_types::fault::ContractRefusal;
use tc_types::{AdversarySpec, FaultSpec, NodeId, ProtocolKind, SystemConfig};
use tc_workloads::WorkloadGenerator;

use crate::scenario::Scenario;
use crate::{check, shrink, Failure};

/// RNG stream tag for the hunter's own draws, so a hunt seed never collides
/// with a workload or adversary stream derived from the same integer.
const HUNT_STREAM: u64 = 0x4855_4E54; // "HUNT"

/// The hunter's budgeted, reproducible configuration.
#[derive(Debug, Clone)]
pub struct HuntOptions {
    /// Protocol under attack.
    pub protocol: ProtocolKind,
    /// Name of the scenario to perturb (see [`Scenario::by_name`]).
    pub scenario: String,
    /// Seed for both the workload stream and the hunter's probe RNG. One
    /// knob: the same `(options)` always replays the same hunt.
    pub seed: u64,
    /// Total number of adversarial evaluations (simulation runs) the hunt
    /// may spend, split between random probing and greedy mutation. The
    /// unperturbed baseline run is paid on top.
    pub budget: u64,
    /// Per-node operation count for every evaluation (smaller than the
    /// scenario default keeps a budgeted hunt cheap).
    pub ops_per_node: u64,
}

impl HuntOptions {
    /// Refuses a protocol whose contract does not cover what a probe may
    /// do: reorder, delay a victim, align a storm.
    pub fn admitted(&self) -> Result<(), ContractRefusal> {
        let probe = AdversarySpec::none()
            .with_reorder(1)
            .with_target_delay(1)
            .with_storm(1);
        self.protocol.admits(&FaultSpec::none(), &probe)
    }
}

impl Default for HuntOptions {
    fn default() -> Self {
        HuntOptions {
            protocol: ProtocolKind::TokenB,
            scenario: "hot_block_contention".to_string(),
            seed: 0xAD5E,
            budget: 24,
            ops_per_node: 200,
        }
    }
}

/// What one hunt found.
#[derive(Debug, Clone)]
pub struct HuntOutcome {
    /// The options the hunt ran under.
    pub options: HuntOptions,
    /// Objective of the unperturbed (`AdversarySpec::none()`) baseline run.
    pub baseline_objective: u64,
    /// The worst (highest-objective) schedule found.
    pub best: AdversarySpec,
    /// The objective the best schedule achieved.
    pub best_objective: u64,
    /// Adversarial evaluations actually spent (excludes the baseline).
    pub evaluations: u64,
    /// The first verifier failure encountered, already shrunk to a minimal
    /// `(ops, faults, adversary)` repro. `None` for a healthy protocol.
    pub failure: Option<Failure>,
}

impl fmt::Display for HuntOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hunt {}/{} seed={} budget={} ops={}: evals={} baseline={} best={} spec[{}]",
            self.options.protocol,
            self.options.scenario,
            self.options.seed,
            self.options.budget,
            self.options.ops_per_node,
            self.evaluations,
            self.baseline_objective,
            self.best_objective,
            self.best
        )?;
        if let Some(failure) = &self.failure {
            write!(f, "\nVIOLATION (shrunk):\n{failure}")?;
        }
        Ok(())
    }
}

/// The integer pathology objective: a scalarization of the run's tail
/// metrics, higher = more pathological. Worst and 99th-percentile miss
/// latency count at face value (ns); every multiply-reissued or
/// persistent-request-completed miss adds a fixed surcharge (the machinery
/// the hunt targets); completion-share skew contributes at 1/100 of its ppm
/// value so gross unfairness dominates noise without drowning the latency
/// terms. The weights are a search heuristic, not a metric contract — only
/// monotonicity ("more starved is worse") matters to the hunter.
pub fn objective(report: &RunReport) -> u64 {
    report.miss_latency_max
        + report.miss_latency_p99
        + 100 * (report.reissue.reissued_more + report.reissue.persistent)
        + report.completion_skew_ppm / 100
}

/// Where a hunt's schedules aim: any of the scenario's nodes, and a block
/// that at least two of them touch in the hunt's run. A targeted delay
/// fires only on traffic for the victim block, and a storm only on other
/// nodes' requests for it.
struct Victims {
    nodes: u64,
    blocks: Vec<u64>,
}

impl Victims {
    fn new(scenario: &Scenario, config: &SystemConfig) -> Victims {
        let mut sharers = BTreeMap::<u64, BTreeSet<usize>>::new();
        for node in 0..config.num_nodes {
            let (id, nodes) = (NodeId::new(node), config.num_nodes);
            let mut ops = WorkloadGenerator::new(&scenario.workload, id, nodes, config.seed);
            for _ in 0..scenario.ops_per_node {
                let block = ops.next_op().op.addr.block(config.block_bytes).value();
                sharers.entry(block).or_default().insert(node);
            }
        }
        sharers.retain(|_, nodes| nodes.len() > 1);
        assert!(
            !sharers.is_empty(),
            "scenario '{}' shares no block",
            scenario.name
        );
        Victims {
            nodes: config.num_nodes as u64,
            blocks: sharers.into_keys().collect(),
        }
    }

    /// Redraws knob `knob` (0-5) of `spec`; a fresh probe draws all six.
    /// A class knob comes back zero (disabled) on one draw in nine or four.
    /// Sabotage is never drawn — it is a test-only oracle trigger, not a
    /// legal schedule.
    fn redraw(&self, rng: &mut DeterministicRng, spec: AdversarySpec, knob: u64) -> AdversarySpec {
        let mut s = spec;
        let mut class = |lo: u64, hi: u64| match rng.next_below(4) {
            0 => 0,
            _ => rng.next_range(lo, hi) as u32,
        };
        match knob {
            0 => s.reorder_window = rng.next_below(9) as u32,
            1 => s.target_delay_ns = class(50, 801),
            2 => s.storm_window_ns = class(100, 2_001),
            3 => s.victim_node = rng.next_below(self.nodes) as u32,
            4 => s.victim_block = self.blocks[rng.next_below(self.blocks.len() as u64) as usize],
            _ => s.seed = rng.next_below(1 << 16),
        }
        s
    }
}

/// Runs one budgeted hunt. Deterministic in `options` (see the module docs
/// for the contract). The first half of the budget randomly probes the
/// schedule space; the second half greedily mutates the best probe one knob
/// at a time, keeping strict improvements. A draw that equals the incumbent
/// or perturbs nothing spends no simulation.
///
/// # Panics
///
/// Panics if `options.scenario` names no known scenario — hunts are driven
/// by tests and the `tc-bench hunt` CLI, both of which want a loud failure,
/// not a silently empty outcome.
pub fn hunt(options: &HuntOptions) -> HuntOutcome {
    let scenario = Scenario {
        ops_per_node: options.ops_per_node,
        ..Scenario::by_name(&options.scenario)
            .unwrap_or_else(|| panic!("unknown scenario '{}'", options.scenario))
    };
    let (protocol, seed) = (options.protocol, options.seed);
    let victims = Victims::new(&scenario, &scenario.config(protocol, seed));
    let mut rng = DeterministicRng::new(seed).fork(HUNT_STREAM);

    // The baseline anchors the objective scale and is not charged against
    // the adversarial budget.
    let base = scenario.run_options();
    let baseline_objective = objective(&scenario.run_under(protocol, seed, base));
    let mut best = AdversarySpec::none();
    let mut best_objective = baseline_objective;
    let mut evaluations = 0u64;
    let mut failure: Option<Failure> = None;
    let budget = options.budget.max(1);
    for step in 0..budget {
        let candidate = if step < budget.div_ceil(2) {
            let none = AdversarySpec::none();
            (0..6).fold(none, |spec, knob| victims.redraw(&mut rng, spec, knob))
        } else {
            let knob = rng.next_below(6);
            victims.redraw(&mut rng, best, knob)
        };
        if candidate == best || candidate.is_none() {
            continue;
        }
        let run_options = base.with_adversary(candidate);
        let report = scenario.run_under(protocol, seed, run_options);
        evaluations += 1;
        if failure.is_none() {
            failure = check(protocol, &scenario, seed, run_options, &report);
        }
        // Strict improvement only, so the greedy walk cannot cycle.
        let score = objective(&report);
        if score > best_objective {
            (best, best_objective) = (candidate, score);
        }
    }

    HuntOutcome {
        options: options.clone(),
        baseline_objective,
        best,
        best_objective,
        evaluations,
        failure: failure.map(|found| shrink(&found, &scenario)),
    }
}

/// One hunter-found pathology pinned into the conformance matrix: a named
/// `(protocol, scenario, seed, ops, adversary)` coordinate that historically
/// maximized the pathology objective. CI re-runs every entry and asserts
/// zero violations plus live adversary machinery — a schedule that once
/// hurt must keep being survived.
#[derive(Debug, Clone, Copy)]
pub struct Pathology {
    /// Stable name, used in test output.
    pub name: &'static str,
    /// Protocol the schedule was hunted against.
    pub protocol: ProtocolKind,
    /// Scenario the schedule perturbs.
    pub scenario: &'static str,
    /// Workload seed of the original find.
    pub seed: u64,
    /// Per-node operation count of the original find.
    pub ops_per_node: u64,
    /// The adversarial schedule, in [`AdversarySpec::parse`] syntax.
    pub spec: &'static str,
}

impl Pathology {
    /// The parsed adversarial schedule.
    ///
    /// # Panics
    ///
    /// Panics if the pinned spec string is malformed — a catalog bug.
    pub fn adversary(&self) -> AdversarySpec {
        AdversarySpec::parse(self.spec)
            .unwrap_or_else(|e| panic!("pathology '{}' has a malformed spec: {e}", self.name))
    }

    /// Replays the pinned schedule and returns the audited report.
    ///
    /// # Panics
    ///
    /// Panics if the pinned scenario name is unknown — a catalog bug.
    pub fn run(&self) -> RunReport {
        let scenario = Scenario {
            ops_per_node: self.ops_per_node,
            ..Scenario::by_name(self.scenario)
                .unwrap_or_else(|| panic!("pathology '{}' names unknown scenario", self.name))
        };
        let options = scenario.run_options().with_adversary(self.adversary());
        scenario.run_under(self.protocol, self.seed, options)
    }
}

/// The pinned pathology catalog: the worst schedules `hunt` has found so
/// far, frozen as conformance coordinates. Each entry records a real hunt
/// result (`tc-bench hunt` reports the coordinates when it beats the
/// incumbent); the conformance suite replays them with zero violations
/// tolerated.
pub fn pathology_catalog() -> Vec<Pathology> {
    vec![
        // `tc-bench hunt --smoke`: objective 38459 vs the unperturbed
        // baseline's 24942 — a deep reorder window with a targeted delay
        // and a retry storm aimed at node 1 on a migratory block.
        Pathology {
            name: "reorder_overtake_on_hot_block",
            protocol: ProtocolKind::TokenB,
            scenario: "hot_block_contention",
            seed: 0xAD5E,
            ops_per_node: 150,
            spec: "reorder=7,victim=1@150994944,delay=672,storm=1754,seed=24464",
        },
        // `tc-bench hunt --scenario eviction_storm --seed 7 --budget 30
        // --ops 200`: objective 5065 vs baseline 1211 — a targeted delay
        // and a retry storm aimed at one (node, producer-consumer block)
        // pair while the tiny L2 keeps dirty evictions racing.
        Pathology {
            name: "targeted_delay_eviction_storm",
            protocol: ProtocolKind::TokenB,
            scenario: "eviction_storm",
            seed: 7,
            ops_per_node: 200,
            spec: "reorder=4,victim=2@167773584,delay=634,storm=1847,seed=26283",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> HuntOptions {
        HuntOptions {
            budget: 6,
            ops_per_node: 120,
            ..HuntOptions::default()
        }
    }

    #[test]
    fn hunts_are_bit_for_bit_reproducible() {
        let a = hunt(&tiny_options());
        let b = hunt(&tiny_options());
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_objective, b.best_objective);
        assert_eq!(a.baseline_objective, b.baseline_objective);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.to_string(), b.to_string());
        assert!(a.failure.is_none(), "stock TokenB must survive: {a}");
    }

    #[test]
    fn a_different_seed_steers_the_search() {
        let a = hunt(&tiny_options());
        let b = hunt(&HuntOptions {
            seed: 0xD15EA5E,
            ..tiny_options()
        });
        // Different seeds explore different schedules (and run different
        // workload streams), so the best specs should differ.
        assert_ne!(
            (a.best, a.best_objective),
            (b.best, b.best_objective),
            "two seeds converged suspiciously exactly"
        );
    }

    #[test]
    fn the_search_finds_pressure_beyond_the_baseline() {
        let outcome = hunt(&tiny_options());
        assert!(outcome.evaluations > 0);
        assert!(
            outcome.best_objective >= outcome.baseline_objective,
            "the incumbent can never be worse than the baseline it started from"
        );
        assert!(
            !outcome.best.is_none(),
            "a budget of adversarial evaluations found nothing worse than \
             an unperturbed run: {outcome}"
        );
    }

    #[test]
    fn unknown_scenarios_fail_loudly() {
        let result = std::panic::catch_unwind(|| {
            hunt(&HuntOptions {
                scenario: "no_such_scenario".to_string(),
                ..tiny_options()
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn pathology_catalog_entries_are_well_formed() {
        let catalog = pathology_catalog();
        assert!(catalog.len() >= 2, "CI pins at least two pathologies");
        for p in &catalog {
            assert!(Scenario::by_name(p.scenario).is_some(), "{}", p.name);
            assert!(!p.adversary().is_none(), "{}: inert spec", p.name);
            assert_eq!(
                p.adversary().sabotage,
                0,
                "{}: sabotage is an oracle trigger, never a pathology",
                p.name
            );
        }
        let mut names: Vec<_> = catalog.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len(), "duplicate pathology names");
    }
}
