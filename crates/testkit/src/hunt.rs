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

use std::fmt;

use tc_sim::DeterministicRng;
use tc_system::RunReport;
use tc_types::{AdversarySpec, ProtocolKind};

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

/// One probe of the search space: a fresh spec with each class enabled with
/// the probability the comment states, aimed at a random victim pair.
fn random_spec(rng: &mut DeterministicRng, num_nodes: u64) -> AdversarySpec {
    let mut spec = AdversarySpec::none()
        .with_victim(rng.next_below(num_nodes) as u32, rng.next_below(64))
        .with_seed(rng.next_below(1 << 16));
    // Reorder is the cheapest, most broadly legal pressure: on 3/4 of probes.
    if rng.next_below(4) > 0 {
        spec.reorder_window = rng.next_range(1, 9) as u32;
    }
    // Targeted delay and storms each on half the probes, so single-class and
    // combined schedules both appear early.
    if rng.next_below(2) > 0 {
        spec.target_delay_ns = rng.next_range(50, 801) as u32;
    }
    if rng.next_below(2) > 0 {
        spec.storm_window_ns = rng.next_range(100, 2_001) as u32;
    }
    spec
}

/// One greedy step: redraw a single knob of `spec`. Sabotage is never drawn
/// — it is a test-only oracle trigger, not a legal schedule.
fn mutate(rng: &mut DeterministicRng, spec: AdversarySpec, num_nodes: u64) -> AdversarySpec {
    let mut s = spec;
    match rng.next_below(6) {
        0 => s.reorder_window = rng.next_below(9) as u32,
        1 => s.victim_node = rng.next_below(num_nodes) as u32,
        2 => s.victim_block = rng.next_below(64),
        3 => {
            s.target_delay_ns = if rng.next_below(4) == 0 {
                0
            } else {
                rng.next_range(50, 801) as u32
            };
        }
        4 => {
            s.storm_window_ns = if rng.next_below(4) == 0 {
                0
            } else {
                rng.next_range(100, 2_001) as u32
            };
        }
        _ => s.seed = rng.next_below(1 << 16),
    }
    s
}

/// Runs one budgeted hunt. Deterministic in `options` (see the module docs
/// for the contract). The first half of the budget randomly probes the
/// schedule space; the second half greedily mutates the best probe one knob
/// at a time, keeping strict improvements.
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
    let num_nodes = scenario.num_nodes as u64;
    let mut rng = DeterministicRng::new(options.seed).fork(HUNT_STREAM);

    let base = scenario.run_options();
    let mut evaluations = 0u64;
    let mut failure: Option<Failure> = None;
    let evaluate =
        |spec: AdversarySpec, evaluations: &mut u64, failure: &mut Option<Failure>| -> u64 {
            let run_options = base.with_adversary(spec);
            let report = scenario.run_under(options.protocol, options.seed, run_options);
            *evaluations += 1;
            if failure.is_none() {
                *failure = check(
                    options.protocol,
                    &scenario,
                    options.seed,
                    run_options,
                    &report,
                );
            }
            objective(&report)
        };

    // The baseline anchors the objective scale and is not charged against
    // the adversarial budget.
    let baseline_objective = objective(&scenario.run_under(options.protocol, options.seed, base));

    let budget = options.budget.max(1);
    let probes = budget.div_ceil(2);
    let mut best = AdversarySpec::none();
    let mut best_objective = baseline_objective;

    // Phase 1: seeded random probing.
    for _ in 0..probes {
        let spec = random_spec(&mut rng, num_nodes);
        let score = evaluate(spec, &mut evaluations, &mut failure);
        if score > best_objective {
            best_objective = score;
            best = spec;
        }
    }

    // Phase 2: greedy single-knob mutation around the incumbent. Strict
    // improvement only, so the walk cannot cycle.
    for _ in probes..budget {
        let candidate = mutate(&mut rng, best, num_nodes);
        if candidate == best || candidate.is_none() {
            continue; // a no-op draw spends no simulation
        }
        let score = evaluate(candidate, &mut evaluations, &mut failure);
        if score > best_objective {
            best_objective = score;
            best = candidate;
        }
    }

    let failure = failure.map(|found| shrink(&found, &scenario));

    HuntOutcome {
        options: options.clone(),
        baseline_objective,
        best,
        best_objective,
        evaluations,
        failure,
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
        // `tc-bench hunt --budget 30 --ops 200`: +25% objective over the
        // unperturbed baseline (31205 vs 24993) from reordering alone.
        Pathology {
            name: "reorder_overtake_on_hot_block",
            protocol: ProtocolKind::TokenB,
            scenario: "hot_block_contention",
            seed: 0xAD5E,
            ops_per_node: 200,
            spec: "reorder=4,victim=0@42,seed=40062",
        },
        // `tc-bench hunt --scenario eviction_storm --seed 7 --budget 30
        // --ops 200`: objective 2717 vs baseline 1211 — a deep reorder
        // window plus targeted delay and a retry storm aimed at one
        // (node, block) pair while the tiny L2 keeps dirty evictions racing.
        Pathology {
            name: "targeted_delay_eviction_storm",
            protocol: ProtocolKind::TokenB,
            scenario: "eviction_storm",
            seed: 7,
            ops_per_node: 200,
            spec: "reorder=7,victim=2@36,delay=669,storm=1337,seed=18779",
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
