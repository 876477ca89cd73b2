//! Cross-protocol conformance stress suite.
//!
//! Every protocol — snooping, directory, hammer, and TokenB — is driven
//! through the same seeded contended scenarios under the same
//! safety/liveness oracle, the mechanical version of the paper's claim that
//! the correctness substrate is independent of the performance protocol. A
//! failure prints a *shrunk*, deterministic replay recipe (see
//! `tc_testkit::shrink`): protocol, scenario, seed, and the minimal
//! per-node operation count that still reproduces it.
//!
//! CI runs this file in release mode as its own job step
//! (`cargo test --release --test conformance`); any `InvariantViolation` —
//! including the structured `Deadlock` the runner emits when the drain limit
//! is hit — fails the sweep.

use token_coherence::prelude::*;
use token_coherence::types::{
    AdversaryKind, AdversarySpec, FaultKind, FaultSpec, InvariantViolation,
};

use tc_testkit::{
    check, failure_report, hunt, pathology_catalog, shrink, stress, Action, Explorer, HuntOptions,
    Scenario,
};

/// The fixed seed set for the sweep: 16 seeds, deliberately spanning small
/// integers (the ones humans try first when reproducing) and bit-heavy
/// values (which decorrelate the per-node workload streams differently).
const SEEDS: [u64; 16] = [
    1, 2, 3, 7, 12, 42, 99, 1234, 2026, 0xBEEF, 0xCAFE, 0x5EED, 0xFACE, 0xA11CE, 0xB0B, 0xD00D,
];

/// The full conformance matrix: all four protocols x all standard scenarios
/// x all fixed seeds, with zero invariant violations and zero deadlocks
/// tolerated. This is the test that used to be impossible: the snooping
/// baseline deadlocked on the writeback race under exactly these workloads.
#[test]
fn all_protocols_conform_on_all_contended_scenarios() {
    let scenarios = Scenario::standard();
    assert!(scenarios.len() >= 3);
    let failures = stress(&ProtocolKind::ALL, &scenarios, &SEEDS, FaultSpec::none());
    assert!(
        failures.is_empty(),
        "{}",
        failure_report(&failures, &scenarios)
    );
}

/// Deadlocks must surface as structured violations, not hangs: a wedged run
/// reports `Deadlock { node, addr, .. }` naming the stuck requester and the
/// block it is waiting on. This exercises the reporting path end-to-end by
/// giving a run effectively no time to finish: the run trips its
/// cycle ceiling and drain limit, and every still-outstanding request is
/// attributed to a node and block.
#[test]
fn drain_limit_hits_surface_as_structured_deadlock_violations() {
    let scenario = Scenario::by_name("oltp_calibration").unwrap();
    let config = scenario.config(ProtocolKind::TokenB, 1);
    let mut system = System::build(&config, &scenario.workload);
    let report = system.run(RunOptions {
        ops_per_node: 10_000,
        // Far too few cycles to finish: the clock passes max_cycles with
        // misses in flight, and the doubled drain limit cuts them off.
        max_cycles: 300,
        ..RunOptions::default()
    });
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::Deadlock { .. })),
        "expected structured Deadlock violations, got {:?}",
        report.violations
    );
    for violation in &report.violations {
        if let InvariantViolation::Deadlock { node, addr, at, .. } = violation {
            assert!(node.index() < config.num_nodes);
            assert!(*at >= 300, "deadlock reported before the drain limit");
            // The violation attributes the wedge to a block the stuck node
            // is actually still waiting on — not a placeholder.
            assert!(
                system.outstanding_blocks(*node).contains(addr),
                "{node} reported stuck on {addr}, but its outstanding blocks are {:?}",
                system.outstanding_blocks(*node)
            );
        }
    }
}

/// Satellite: token conservation as a *continuous* property under random
/// message interleavings and timeout/retry storms, not just at quiescence.
/// The explorer's random walk delivers messages in random order and fires
/// reissue timers at any step, auditing `sum(tokens) == T` and single-owner
/// after every step, then drains fairly and fails on any miss still
/// outstanding (hand-rolled on `DeterministicRng`, per the
/// offline-dependency policy).
#[test]
fn tokenb_conserves_tokens_across_random_interleavings_and_retry_storms() {
    let mut seeds = token_coherence::sim::DeterministicRng::new(0x70_6b_73);
    for _ in 0..8 {
        let seed = seeds.next_below(1_000_000);
        let config = SystemConfig::isca03_default().with_nodes(4).with_seed(seed);
        let walk = Explorer::new(&config, 4)
            .walk(seed, 1_500)
            .unwrap_or_else(|found| panic!("seed {seed}: {found}"));
        let count = |kind: fn(&Action) -> bool| walk.iter().filter(|a| kind(a)).count();
        assert!(
            count(|a| matches!(a, Action::Issue(..))) > 0,
            "seed {seed}: the walk issued nothing"
        );
        assert!(
            count(|a| matches!(a, Action::Fire(..))) > 0,
            "seed {seed}: no retry storm materialized"
        );
    }
}

/// States the exhaustive search may reach before it gives up unfinished.
const EXPLORE_BUDGET: usize = 500_000;

/// The smallest system on which the explorer finishes: 2 nodes, `tokens`
/// tokens per block, a persistent request on the first timeout, and
/// one-set 256-byte L1s and L2s.
fn small_system(tokens: u32) -> SystemConfig {
    let mut config = SystemConfig::isca03_default().with_nodes(2);
    config.token.tokens_per_block = tokens;
    config.token.reissues_before_persistent = 0;
    config.l1.size_bytes = 256;
    config.l2.size_bytes = 256;
    config
}

/// Every interleaving of one operation per node on `blocks` blocks of
/// `small_system(tokens)` is safe and live, and the search finishes.
fn explore_clean(tokens: u32, blocks: u64) {
    let states = Explorer::new(&small_system(tokens), blocks)
        .exhaustive(1, EXPLORE_BUDGET)
        .unwrap_or_else(|found| panic!("T = {tokens}, {blocks} block(s): {found}"))
        .unwrap_or_else(|| panic!("T = {tokens}, {blocks} block(s): over {EXPLORE_BUDGET} states"));
    println!("T = {tokens}, {blocks} block(s): {states} states, all safe and live");
}

/// The token substrate is safe and live on *every* interleaving of a
/// 2-node, 1-block system, not only on sampled ones.
#[test]
fn every_interleaving_of_two_nodes_on_one_block_is_safe_and_live_at_two_tokens() {
    explore_clean(2, 1);
}

/// The same with a token to spare: a shared copy no longer needs them all.
#[test]
fn every_interleaving_of_two_nodes_on_one_block_is_safe_and_live_at_three_tokens() {
    explore_clean(3, 1);
}

/// The same on two blocks, each homed at a different node. About five times
/// the states of one block, so only in release builds (the CI conformance
/// step).
#[test]
fn every_interleaving_of_two_nodes_on_two_blocks_is_safe_and_live() {
    if !cfg!(debug_assertions) {
        explore_clean(2, 2);
    }
}

/// Positive control: an arbiter that drops persistent requests leaves its
/// requester starving, and the search says so with the path that gets
/// there.
#[test]
fn the_explorer_finds_a_sabotaged_arbiter_stuck() {
    let mut explorer = Explorer::new(&small_system(2), 1);
    // Node 0 homes block 0, so it arbitrates the block's persistent requests.
    explorer.controller_mut(0).set_arbiter_sabotage(true);
    let found = explorer
        .exhaustive(1, EXPLORE_BUDGET)
        .expect_err("a sabotaged arbiter starves a requester");
    println!("{found}");
    assert!(found.stuck, "{found}");
    assert!(!found.path.is_empty());
    let printed = found.to_string();
    for (i, action) in found.path.iter().enumerate() {
        assert!(
            printed.contains(&format!("{:>4}. {action:?}", i + 1)),
            "{printed}"
        );
    }
}

/// Satellite: the determinism pin, one row per protocol. The benchmark
/// configuration (OLTP, 4 nodes, 20k ops/node, seed 12; its TokenB row is
/// the run the `pin4` workload of `BENCHMARK.json` repeats as its house pin
/// before it measures anything) must deliver *precisely* these event counts
/// and end on these cycles. If a pure-performance or refactoring change
/// moves a row, simulation behaviour drifted and before/after measurements
/// are no longer comparable; see DESIGN.md "Determinism is load-bearing".
/// The TokenB run also bounds the line-state plane's peak footprint.
#[test]
fn benchmark_configuration_event_count_is_pinned() {
    // (protocol, events_delivered, runtime_cycles); Snooping runs on the
    // ordered tree, the rest on the torus (`with_protocol` picks).
    for (protocol, events, cycles) in [
        (ProtocolKind::TokenB, 317_430, 1_268_828),
        (ProtocolKind::Snooping, 273_533, 1_500_518),
        (ProtocolKind::Directory, 274_606, 1_343_468),
        (ProtocolKind::Hammer, 501_198, 1_291_500),
    ] {
        let (mut system, options) = benchmark_configuration(protocol);
        let report = system.run(options);
        assert!(report.verified().is_ok(), "{:?}", report.violations);
        assert_eq!(
            (system.events_delivered(), report.runtime_cycles),
            (events, cycles),
            "{protocol} drifted: simulated behaviour changed (move this pin, the \
             benchmark's pin4 check and DESIGN.md only for an intentional semantic \
             fix, never for a perf-only change or a refactor)"
        );
        if protocol == ProtocolKind::TokenB {
            // 135168 bytes as first recorded, x 1.10. The exact figure moves
            // with struct layout across rustc versions, hence a one-sided
            // ceiling; the exact value is compared parent-vs-change as
            // `sim.peak_state_bytes`.
            assert!(
                report.engine.state.state_bytes <= 148_684,
                "peak line-state bytes grew more than 10% to {}: raise the ceiling only \
                 for an intentional working-set change",
                report.engine.state.state_bytes
            );
        }
    }
}

fn benchmark_configuration(protocol: ProtocolKind) -> (System, RunOptions) {
    let config = SystemConfig::isca03_default()
        .with_nodes(4)
        .with_protocol(protocol)
        .with_seed(12);
    let options = RunOptions {
        ops_per_node: 20_000,
        max_cycles: 1_000_000_000,
        ..RunOptions::default()
    };
    (System::build(&config, &WorkloadProfile::oltp()), options)
}

/// The same pin for the windowed schedule. The windowed engine commits sends
/// at lookahead-window boundaries, a legal schedule that differs from the
/// serial one, so it has its own figures — identical at every shard count.
/// The shard-invariance tests compare shard counts with each other and would
/// not notice the shared step core moving all of them alike; this does.
#[test]
fn benchmark_configuration_event_count_is_pinned_on_the_windowed_schedule() {
    let (mut system, options) = benchmark_configuration(ProtocolKind::TokenB);
    let report = system.run(options.with_shards(1));
    assert!(report.verified().is_ok(), "{:?}", report.violations);
    assert_eq!(
        (report.engine.events_delivered, report.runtime_cycles),
        (317_344, 1_268_550),
        "the windowed schedule drifted: the sharded engine's simulated behaviour \
         changed (move this pin and the CI shard gate's grep only for an intentional \
         semantic fix, never for a perf-only change or a refactor)"
    );
}

/// The 64-node scale scenario from `tc-testkit` stays under the same
/// invariant oracle as the small systems — the check that keeps the scale
/// sweeps honest. One protocol per topology family (TokenB exercises the
/// torus, Snooping the ordered tree — the two protocols whose correctness
/// arguments differ most) and two seeds keep this fast enough for every CI
/// run; CI also invokes it by name in release mode.
#[test]
fn sixty_four_node_scenario_stays_under_the_oracle() {
    let scenario = Scenario::sweep64();
    assert_eq!(scenario.num_nodes, 64);
    assert_eq!(
        Scenario::by_name("sweep64_oltp").map(|s| s.num_nodes),
        Some(64),
        "replay recipes must be able to find the scale scenario by name"
    );
    for protocol in [ProtocolKind::TokenB, ProtocolKind::Snooping] {
        for seed in [12u64, 0xBEEF] {
            let report = scenario.run(protocol, seed);
            assert!(
                report.verified().is_ok(),
                "{protocol} seed {seed}: {:?}",
                report.violations
            );
            assert!(report.total_ops >= 64 * scenario.ops_per_node);
        }
    }
}

/// The sharded engine at scale: the 64-node conformance scenario must stay
/// green under the same invariant oracle when partitioned across four
/// shards, and the result must be bit-identical (modulo per-shard capacity
/// telemetry, which `determinism_view` masks) to the single-shard run of
/// the same windowed engine. This is the acceptance gate for the
/// conservative-PDES tentpole: spatial decomposition may only change
/// wall-clock, never results.
#[test]
fn sixty_four_node_scenario_is_shard_count_invariant_at_four_shards() {
    let scenario = Scenario::sweep64();
    for protocol in [ProtocolKind::TokenB, ProtocolKind::Directory] {
        let one = scenario.run_under(protocol, 12, scenario.run_options().with_shards(1));
        let four = scenario.run_under(protocol, 12, scenario.run_options().with_shards(4));
        assert!(
            four.verified().is_ok(),
            "{protocol} at shards(4): {:?}",
            four.violations
        );
        assert_eq!(four.engine.sharding.shards, 4);
        assert!(four.engine.sharding.lookahead_ns > 0);
        assert_eq!(
            one.determinism_view(),
            four.determinism_view(),
            "{protocol}: shards(1) and shards(4) reports diverged at 64 nodes"
        );
    }
}

/// The adversarial spec the fault-conformance tests inject: 1% message
/// loss, 0.5% duplication, and reordering windows four link-quanta deep —
/// the unordered, unreliable fabric the paper's decoupling argument says
/// TokenB's correctness substrate absorbs.
fn adversarial_spec() -> FaultSpec {
    FaultSpec::none()
        .with_drop(0.01)
        .with_dup(0.005)
        .with_reorder(4)
}

/// The tentpole claim under fire: TokenB stays safe *and live* across all
/// 16 conformance seeds while the fabric drops, duplicates, and reorders
/// its transient requests. The fault stats prove the campaign was real —
/// every class actually fired, reissue timers ran, and at least one seed
/// escalated all the way to a persistent request (the paper's liveness
/// backstop), so the zero-violation result is recovery at work, not the
/// absence of faults. CI runs every `fault_` test in release mode as the
/// fault-conformance job step.
#[test]
fn fault_tokenb_stays_safe_and_live_under_loss_duplication_and_reorder() {
    let scenario = Scenario::by_name("hot_block_contention").unwrap();
    let spec = adversarial_spec();
    let options = scenario.run_options().with_faults(spec);
    let mut total = token_coherence::types::FaultStats::default();
    let mut seeds_with_persistent = 0usize;
    for &seed in &SEEDS {
        let report = scenario.run_under(ProtocolKind::TokenB, seed, options);
        assert!(
            report.violations.is_empty(),
            "seed {seed}: TokenB violated under {spec}: {:?}",
            report.violations
        );
        let f = report.engine.faults;
        total.dropped += f.dropped;
        total.duplicated += f.duplicated;
        total.reordered += f.reordered;
        total.reissue_timeouts += f.reissue_timeouts;
        if f.persistent_activations > 0 {
            seeds_with_persistent += 1;
        }
    }
    assert!(total.dropped > 0, "no message loss materialized");
    assert!(total.duplicated > 0, "no duplication materialized");
    assert!(total.reordered > 0, "no reordering materialized");
    assert!(
        total.reissue_timeouts > 0,
        "loss never forced a reissue — the recovery path was not exercised"
    );
    assert!(
        seeds_with_persistent > 0,
        "no seed escalated to a persistent request — the liveness backstop \
         was never demonstrated under fire"
    );
}

/// The full four-protocol matrix under a spec enabling *every* fault class:
/// each protocol runs exactly the part it contracts to survive
/// (`FaultSpec::restricted_to`) and must pass, and the whole spec is refused
/// for every protocol whose contract it exceeds. TokenB takes all five
/// classes; the ordered baselines take delay/reorder/outage but decline
/// loss and duplication (no retry machinery); snooping declines everything
/// (its correctness argument *is* the totally ordered fabric).
#[test]
fn fault_contract_matrix_gates_injection_per_protocol() {
    let mut scenario = Scenario::by_name("hot_block_contention").unwrap();
    scenario.ops_per_node = 200;
    let spec = adversarial_spec()
        .with_delay(0.02, 150)
        .with_outage(1, 2, 2_000, 30_000);
    let all = FaultKind::ALL.to_vec();
    let loss = vec![FaultKind::Drop, FaultKind::Duplicate];
    for (protocol, declined) in [
        (ProtocolKind::TokenB, vec![]),
        (ProtocolKind::Snooping, all),
        (ProtocolKind::Directory, loss.clone()),
        (ProtocolKind::Hammer, loss),
    ] {
        let restricted = spec.restricted_to(protocol);
        let removed: Vec<FaultKind> = FaultKind::ALL
            .into_iter()
            .filter(|&k| !restricted.enables(k))
            .collect();
        assert_eq!(removed, declined, "{protocol}");
        let refused = protocol.admits(&spec, &AdversarySpec::none()).is_err();
        assert_eq!(refused, !declined.is_empty(), "{protocol}");
        let failures = stress(&[protocol], &[scenario.clone()], &SEEDS, restricted);
        assert!(
            failures.is_empty(),
            "{protocol} broke inside its declared fault contract:\n{}",
            failure_report(&failures, &[scenario.clone()])
        );
    }
}

/// The fault plane's determinism contract: `(seed, FaultSpec)` fully
/// determines the fault sequence, so two runs under the same pair are
/// bit-identical — full `RunReport` structural equality, fault stats
/// included — and runs under different fault seeds diverge.
#[test]
fn fault_same_seed_fault_runs_replay_bit_identically() {
    let mut scenario = Scenario::by_name("hot_block_contention").unwrap();
    scenario.ops_per_node = 300;
    let spec = adversarial_spec().with_seed(0xF457);
    for protocol in [ProtocolKind::TokenB, ProtocolKind::Hammer] {
        let options = scenario
            .run_options()
            .with_faults(spec.restricted_to(protocol));
        let a = scenario.run_under(protocol, 12, options);
        let b = scenario.run_under(protocol, 12, options);
        assert_eq!(a, b, "{protocol}: same (seed, FaultSpec) diverged");
        assert!(
            a.engine.faults.total_injected() > 0,
            "{protocol}: determinism check ran without faults"
        );
    }
    // A different fault seed reshuffles the fault sequence without touching
    // the workload stream.
    let options = scenario.run_options();
    let a = scenario.run_under(ProtocolKind::TokenB, 12, options.with_faults(spec));
    let c = scenario.run_under(
        ProtocolKind::TokenB,
        12,
        options.with_faults(spec.with_seed(0x0DD5)),
    );
    assert_ne!(
        a.engine.faults, c.engine.faults,
        "fault seed must steer the fault stream"
    );
}

/// Satellite: the livelock watchdog. A run that stops completing operations
/// must surface a structured `Livelock` violation naming a stuck requester
/// (with the TC_TRACE_BLOCK replay pointer), not spin forever. Forced here
/// by shrinking the event budget below the cost of the first miss round
/// trip on an otherwise healthy run.
#[test]
fn fault_livelock_watchdog_emits_structured_violation() {
    let config = SystemConfig::isca03_default()
        .with_nodes(4)
        .with_protocol(ProtocolKind::TokenB)
        .with_seed(1);
    let mut system = System::build(&config, &WorkloadProfile::oltp());
    let report = system.run(RunOptions {
        ops_per_node: 1_000,
        max_cycles: 1_000_000_000,
        livelock_events_budget: 25,
        ..RunOptions::default()
    });
    let livelock = report
        .violations
        .iter()
        .find(|v| matches!(v, InvariantViolation::Livelock { .. }))
        .unwrap_or_else(|| panic!("expected Livelock, got {:?}", report.violations));
    let text = livelock.to_string();
    assert!(text.contains("livelock"), "{text}");
    assert!(
        text.contains("TC_TRACE_BLOCK"),
        "livelock report must point at the causal-trace env hook: {text}"
    );
    if let InvariantViolation::Livelock {
        node,
        events_without_progress,
        ..
    } = livelock
    {
        assert!(node.index() < config.num_nodes);
        assert!(*events_without_progress >= 25);
    }
}

/// The adversary plane's gating contract: a spec that perturbs nothing —
/// even one carrying a victim pair and a seed — must leave the run
/// bit-identical to a run with no adversary at all. Everything except the
/// recorded spec itself has to match structurally; this is the same
/// discipline that keeps the 317430 events-delivered pin intact.
#[test]
fn inert_adversary_spec_runs_bit_identical_to_no_adversary() {
    let mut scenario = Scenario::by_name("hot_block_contention").unwrap();
    scenario.ops_per_node = 300;
    let inert = AdversarySpec::none().with_victim(2, 17).with_seed(9);
    assert!(inert.is_none());
    let options = scenario.run_options().with_adversary(inert);
    let a = scenario.run_under(ProtocolKind::TokenB, 12, options);
    let mut b = scenario.run(ProtocolKind::TokenB, 12);
    assert_eq!(a.adversary, inert, "the report records the spec as given");
    b.adversary = inert; // the only field allowed to differ
    assert_eq!(a, b, "an inert spec must not perturb the simulation");
}

/// The hunter-found pathology scenarios, pinned forever: each known-bad
/// schedule must keep being survived (zero violations) while demonstrably
/// firing the adversary machinery — a silent no-op would hollow the pin
/// out. CI runs every `pathology_` test in release mode as its own step.
#[test]
fn pathology_pinned_schedules_run_clean_with_live_adversary_machinery() {
    let catalog = pathology_catalog();
    assert!(catalog.len() >= 2, "CI pins at least two pathologies");
    for pathology in &catalog {
        let report = pathology.run();
        assert!(
            report.verified().is_ok(),
            "{}: a pinned pathology schedule now violates: {:?}",
            pathology.name,
            report.violations
        );
        assert_eq!(
            report.adversary,
            pathology.adversary(),
            "{}",
            pathology.name
        );
        assert!(
            report.engine.adversary.total_perturbed() > 0,
            "{}: the adversary plane never fired — the pin is inert",
            pathology.name
        );
        // Each class the pin enables fires: a victim block no node touches
        // would leave the targeted delay and the storm inert.
        let stats = report.engine.adversary;
        let spec = pathology.adversary();
        for (kind, fired) in [
            (AdversaryKind::Reorder, stats.reordered),
            (AdversaryKind::TargetedDelay, stats.targeted),
            (AdversaryKind::RetryStorm, stats.stormed),
        ] {
            assert!(
                !spec.enables(kind) || fired > 0,
                "{}: {kind} is enabled but never fired",
                pathology.name
            );
        }
        assert!(
            report.engine.adversary.max_skew_ns > 0,
            "{}: no arrival was actually displaced",
            pathology.name
        );
    }
}

/// The hunt determinism contract at the conformance level: the exact CI
/// smoke configuration replays bit-for-bit (outcome line included, which is
/// what the CI step diffs), and stock TokenB survives the whole search with
/// zero violations.
#[test]
fn pathology_hunt_smoke_configuration_is_bit_for_bit_reproducible() {
    let options = HuntOptions {
        budget: 8,
        ops_per_node: 150,
        ..HuntOptions::default()
    };
    let a = hunt(&options);
    let b = hunt(&options);
    assert_eq!(a.to_string(), b.to_string(), "hunt outcome must replay");
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_objective, b.best_objective);
    assert!(
        a.failure.is_none(),
        "stock TokenB must survive the full hunt: {a}"
    );
    assert!(a.best_objective >= a.baseline_objective);
}

/// The oracle's positive control: a deliberately broken arbiter (the
/// test-only sabotage knob silently drops persistent requests at the victim
/// node) must be *caught* by the starvation/fairness oracle as a structured
/// `Starvation` violation, and the shrinker must hand back a minimal
/// `(ops, adversary)` repro that still carries the sabotage — proof the
/// fairness machinery detects exactly the failure class it was built for,
/// not merely that healthy runs pass.
#[test]
fn pathology_sabotaged_arbiter_is_caught_and_shrunk_by_the_starvation_oracle() {
    let mut scenario = Scenario::by_name("hot_block_contention").unwrap();
    // Message loss is what drives requesters into the persistent-request
    // machinery at all (fault-free contention resolves at the transient
    // level); the sabotage then swallows the escalations at one arbiter.
    // 3000 ops/node keeps the other nodes busy long past the oracle's
    // bounded-wait horizon, so the victim's wedge is observable as
    // starvation rather than only as an end-of-run deadlock.
    scenario.ops_per_node = 3_000;
    let faulted = scenario
        .run_options()
        .with_faults(FaultSpec::none().with_drop(0.02));
    let failure = (0..scenario.num_nodes as u32)
        .flat_map(|victim| [1u64, 2, 12].map(|seed| (victim, seed)))
        .find_map(|(victim, seed)| {
            let spec = AdversarySpec::none().with_victim(victim, 0).with_sabotage();
            let options = faulted.with_adversary(spec);
            let report = scenario.run_under(ProtocolKind::TokenB, seed, options);
            if !report
                .violations
                .iter()
                .any(|v| matches!(v, InvariantViolation::Starvation { .. }))
            {
                return None;
            }
            check(ProtocolKind::TokenB, &scenario, seed, options, &report)
        })
        .expect(
            "no (victim, seed) probe starved under a sabotaged arbiter — \
             the fairness oracle's positive control is dead",
        );

    let minimal = shrink(&failure, &scenario);
    assert!(minimal.options.ops_per_node <= failure.options.ops_per_node);
    assert_ne!(
        minimal.options.adversary.sabotage, 0,
        "shrinking removed the sabotage the failure needs"
    );
    assert!(
        minimal
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::Starvation { .. })),
        "the minimal repro lost the starvation: {:?}",
        minimal.violations
    );
    // The recipe replays bit-for-bit, violations included.
    let replay = scenario.run_under(ProtocolKind::TokenB, minimal.seed, minimal.options);
    assert_eq!(replay.violations, minimal.violations);
    // And the printed replay recipe carries the adversarial schedule.
    let text = minimal.to_string();
    assert!(text.contains("run_under"), "{text}");
    assert!(text.contains("sabotage=1"), "{text}");
}

/// Replaying a failing seed must be bit-identical: the failure reporter's
/// replay recipe is only trustworthy if `(protocol, scenario, seed, ops)`
/// fully determines the run.
#[test]
fn conformance_cells_replay_identically() {
    let mut scenario = Scenario::by_name("eviction_storm").unwrap();
    scenario.ops_per_node = 200;
    for protocol in ProtocolKind::ALL {
        let a = scenario.run(protocol, 0xD00D);
        let b = scenario.run(protocol, 0xD00D);
        assert_eq!(a.runtime_cycles, b.runtime_cycles, "{protocol}");
        assert_eq!(a.total_ops, b.total_ops, "{protocol}");
        assert_eq!(
            a.traffic.total_link_bytes(),
            b.traffic.total_link_bytes(),
            "{protocol}"
        );
        assert_eq!(a.violations, b.violations, "{protocol}");
    }
}
