//! Cross-protocol conformance stress harness.
//!
//! The paper's central claim is that the correctness substrate can be checked
//! independently of the performance protocol. This crate is that claim turned
//! into test infrastructure: every protocol — the snooping, directory, and
//! hammer baselines just as much as TokenB — is driven through the same
//! seeded, contended scenarios under the same safety/liveness oracle
//! (`tc_system::verify`), so a protocol only counts as working if it survives
//! exactly what the others survive.
//!
//! The pieces:
//!
//! * [`Scenario`] — a named contended workload configuration (hot-block
//!   storms, the OLTP calibration, eviction storms on a deliberately tiny
//!   L2). Scenarios are pure data; [`Scenario::run`] is deterministic in
//!   `(protocol, seed)`, which is what makes every failure replayable.
//! * [`stress`] — the protocol × scenario × seed sweep under one
//!   [`FaultSpec`] inside every swept protocol's contract, collecting every
//!   run whose report contains an invariant violation (safety) or a
//!   starvation/deadlock (liveness) as a [`Failure`].
//! * [`Failure`] — a replayable failing cell (including the specs it failed
//!   under). Its `Display` prints the exact replay recipe; [`shrink`]
//!   minimizes the per-node operation count *and* both perturbation specs
//!   while the failure still reproduces.
//! * [`token_pump`] — a controller-level interleaving pump for TokenB that
//!   randomizes delivery order and timer firing (timeout/retry storms) while
//!   asserting token conservation after every step, independent of the
//!   system runner; [`deliver`] is its deterministic one-round counterpart
//!   for any protocol's controllers.
//! * [`assert_snap_round_trip`] — the one check every [`tc_sim::Snap`]
//!   layout gets: round trip, no trailing bytes, every truncation an error.
//! * [`assert_wire_round_trip`] — its twin for a `tc_types::json_struct!`
//!   text layout: round trip, every missing member named, no integer
//!   silently narrowed.

mod hunt;
mod pump;
mod scenario;

pub use hunt::{hunt, pathology_catalog, HuntOptions, HuntOutcome, Pathology};
pub use pump::{deliver, token_pump, PumpOptions, PumpOutcome};
pub use scenario::Scenario;

use std::fmt;

use tc_sim::{Snap, SnapReader, SnapWriter, SnapshotError};
use tc_system::{RunOptions, RunReport};
use tc_types::{AdversarySpec, FaultKind, FaultSpec, InvariantViolation, Json, ProtocolKind, Wire};

/// Asserts `value`'s wire layout is sound: `load(save(x)) == x` consuming
/// every byte, and every strict prefix of the encoding loads as
/// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`] — an error
/// value, never a panic or a short read that passes.
///
/// # Panics
///
/// Panics, naming the offending prefix length, when any of that fails.
pub fn assert_snap_round_trip<T: Snap + PartialEq + fmt::Debug>(value: &T) {
    let mut w = SnapWriter::new();
    value.save(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    let back = T::load(&mut r).expect("a saved value must load");
    r.finish().expect("load must consume every saved byte");
    assert_eq!(&back, value, "load(save(x)) != x");
    for cut in 0..bytes.len() {
        match T::load(&mut SnapReader::new(&bytes[..cut])) {
            Err(SnapshotError::Truncated | SnapshotError::Corrupt(_)) => {}
            other => panic!(
                "{cut} of {} bytes of {value:?} loaded as {other:?}",
                bytes.len()
            ),
        }
    }
}

/// Asserts a [`json_struct!`](tc_types::json_struct) layout is sound:
/// `from_json(to_json(x)) == x` and re-serializes to the same bytes, a
/// document with any one member removed, repeated, or joined by an unknown
/// one is rejected with a [`WireError`] naming exactly that member, and an
/// integer member set to `2^64 - 1` either round-trips or is rejected there
/// as out of range — never truncated into a smaller value.
///
/// [`WireError`]: tc_types::WireError
///
/// # Panics
///
/// Panics, naming the offending member, when any of that fails.
pub fn assert_wire_round_trip<T: Wire + PartialEq + fmt::Debug>(value: &T) {
    let json = value.to_json();
    let back = T::from_json(&json, "v").expect("a written value must read back");
    assert_eq!(&back, value, "from_json(to_json(x)) != x");
    assert_eq!(back.to_json().to_string(), json.to_string());
    let members = json.as_object().expect("the layout is an object");
    let mut extended = members.to_vec();
    extended.push(("unlisted".to_string(), Json::Null));
    let err = T::from_json(&Json::Obj(extended), "v").expect_err("a member is unknown");
    assert_eq!(err.field, "v.unlisted", "{err}");
    for (i, (key, member)) in members.iter().enumerate() {
        let at = format!("v.{key}");
        let mut without = members.to_vec();
        without.remove(i);
        let err = T::from_json(&Json::Obj(without), "v").expect_err("a member is missing");
        assert_eq!(err.field, at, "{err}");
        let mut repeated = members.to_vec();
        repeated.push((key.clone(), member.clone()));
        let err = T::from_json(&Json::Obj(repeated), "v").expect_err("a member is repeated");
        assert_eq!(err.field, at, "{err}");
        if member.as_u64().is_some() {
            let huge = Json::Num(u64::MAX.to_string());
            let mut inflated = members.to_vec();
            inflated[i].1 = huge.clone();
            match T::from_json(&Json::Obj(inflated), "v") {
                Ok(wide) => assert_eq!(wide.to_json().get(key), Some(&huge), "{at} truncated"),
                Err(err) => {
                    assert_eq!(err.field, at, "{err}");
                    assert!(err.message.contains("out of range"), "{err}");
                }
            }
        }
    }
}

/// One failing (protocol, scenario, seed, options) cell of the conformance
/// sweep.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Name of the scenario (see [`Scenario::standard`]).
    pub scenario: String,
    /// Workload seed the failure reproduces under.
    pub seed: u64,
    /// The options the failing run used: the scenario's own, except that a
    /// shrunk failure has a lower `ops_per_node` and thinner `faults` and
    /// `adversary` (`none` for the reliable, unperturbed-fabric sweep).
    pub options: RunOptions,
    /// The violations the verifier reported.
    pub violations: Vec<InvariantViolation>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RunOptions {
            ops_per_node,
            faults,
            adversary,
            ..
        } = self.options;
        writeln!(
            f,
            "{} on scenario '{}' (seed {}, {ops_per_node} ops/node, faults {faults}, \
             adversary {adversary}) violated:",
            self.protocol, self.scenario, self.seed
        )?;
        for violation in &self.violations {
            writeln!(f, "  - {violation}")?;
        }
        write!(
            f,
            "  replay: let s = Scenario::by_name(\"{}\").unwrap(); \
             s.run_under(ProtocolKind::{:?}, {}, RunOptions {{ ops_per_node: {ops_per_node}, \
             faults: FaultSpec::parse(\"{faults}\").unwrap(), \
             adversary: AdversarySpec::parse(\"{adversary}\").unwrap(), ..s.run_options() }})",
            self.scenario, self.protocol, self.seed
        )
    }
}

/// Extracts the failure (if any) from a finished run of `scenario` under
/// `options`: any invariant violation, including the structured
/// starvation/deadlock liveness violations the runner emits for stuck
/// requesters.
pub fn check(
    protocol: ProtocolKind,
    scenario: &Scenario,
    seed: u64,
    options: RunOptions,
    report: &RunReport,
) -> Option<Failure> {
    (!report.violations.is_empty()).then(|| Failure {
        protocol,
        scenario: scenario.name.to_string(),
        seed,
        options,
        violations: report.violations.clone(),
    })
}

/// Runs every protocol through every scenario for every seed under
/// `faults`, returning the failing cells (empty means full conformance).
/// The spec is run as given, so it must be inside every listed protocol's
/// contract: the plane refuses to arm outside one. Deterministic: the same
/// inputs always produce the same failures.
pub fn stress(
    protocols: &[ProtocolKind],
    scenarios: &[Scenario],
    seeds: &[u64],
    faults: FaultSpec,
) -> Vec<Failure> {
    let mut failures = Vec::new();
    for &protocol in protocols {
        for scenario in scenarios {
            let options = scenario.run_options().with_faults(faults);
            for &seed in seeds {
                let report = scenario.run_under(protocol, seed, options);
                failures.extend(check(protocol, scenario, seed, options, &report));
            }
        }
    }
    failures
}

/// Returns `spec` with every intensity knob halved (probabilities, jitter
/// bound, reorder depth) — the shrinker's magnitude descent step. Fixed
/// point: the all-zero spec maps to itself.
fn halved(spec: FaultSpec) -> FaultSpec {
    let mut s = spec;
    s.drop_ppm /= 2;
    s.dup_ppm /= 2;
    s.delay_ppm /= 2;
    s.reorder_depth /= 2;
    s
}

/// Returns `spec` with one adversary knob zeroed — the shrinker's
/// perturbation-class removal step over the adversarial dimensions.
fn without_adversary_knob(spec: AdversarySpec, knob: usize) -> AdversarySpec {
    let mut s = spec;
    match knob {
        0 => s.reorder_window = 0,
        1 => s.target_delay_ns = 0,
        2 => s.storm_window_ns = 0,
        _ => s.sabotage = 0,
    }
    s
}

/// Returns `spec` with every adversary intensity knob halved. Fixed point:
/// the all-zero spec maps to itself. The victim pair and seed are replay
/// coordinates, not intensities, and stay put.
fn halved_adversary(spec: AdversarySpec) -> AdversarySpec {
    let mut s = spec;
    s.reorder_window /= 2;
    s.target_delay_ns /= 2;
    s.storm_window_ns /= 2;
    s
}

/// Shrinks a failure to the smallest `(ops, faults, adversary)` triple that
/// still reproduces it. Operation count first (repeated halving, then a
/// binary search of the boundary), then the fault schedule: greedily drop
/// whole fault classes the failure does not need, then halve the intensities
/// of the surviving classes while the failure persists. The adversarial
/// schedule shrinks the same way: each perturbation knob is zeroed if the
/// failure survives without it, then the surviving intensities are halved.
/// Because runs are deterministic in
/// `(protocol, scenario, seed, ops, faults, adversary)`, the result is a
/// minimal replayable reproduction, not a flaky sample.
pub fn shrink(failure: &Failure, scenario: &Scenario) -> Failure {
    debug_assert_eq!(failure.scenario, scenario.name);
    let reproduces = |options: RunOptions| -> Option<Failure> {
        let report = scenario.run_under(failure.protocol, failure.seed, options);
        check(failure.protocol, scenario, failure.seed, options, &report)
    };
    let with_ops = |options: RunOptions, ops_per_node: u64| RunOptions {
        ops_per_node,
        ..options
    };

    let mut best = failure.clone();
    // Phase 1: exponential descent on the operation count.
    while best.options.ops_per_node > 1 {
        match reproduces(with_ops(best.options, best.options.ops_per_node / 2)) {
            Some(smaller) => best = smaller,
            None => break,
        }
    }
    // Phase 2: binary search between the largest passing and the smallest
    // failing count found so far.
    let mut lo = best.options.ops_per_node / 2; // passes (or zero)
    let mut hi = best.options.ops_per_node; // fails
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        match reproduces(with_ops(best.options, mid)) {
            Some(smaller) => {
                best = smaller;
                hi = mid;
            }
            None => lo = mid,
        }
    }
    // Phase 3: greedy fault-class removal — keep a class zeroed whenever the
    // failure reproduces without it.
    for class in FaultKind::ALL {
        if !best.options.faults.enables(class) {
            continue;
        }
        let thinner = best.options.faults.without(class);
        if let Some(smaller) = reproduces(best.options.with_faults(thinner)) {
            best = smaller;
        }
    }
    // Phase 4: greedy adversary-knob removal, same discipline.
    for knob in 0..4 {
        let thinner = without_adversary_knob(best.options.adversary, knob);
        if thinner == best.options.adversary {
            continue;
        }
        if let Some(smaller) = reproduces(best.options.with_adversary(thinner)) {
            best = smaller;
        }
    }
    // Phase 5: halve the surviving intensities (fault and adversary alike)
    // while the failure persists.
    loop {
        let thinner = best
            .options
            .with_faults(halved(best.options.faults))
            .with_adversary(halved_adversary(best.options.adversary));
        if thinner == best.options {
            break;
        }
        match reproduces(thinner) {
            Some(smaller) => best = smaller,
            None => break,
        }
    }
    best
}

/// Formats a batch of failures (each shrunk first) into one report string —
/// what the conformance test prints on failure.
pub fn failure_report(failures: &[Failure], scenarios: &[Scenario]) -> String {
    use fmt::Write;
    let mut out = String::new();
    writeln!(out, "{} conformance failure(s):", failures.len()).unwrap();
    for failure in failures {
        let scenario = scenarios
            .iter()
            .find(|s| s.name == failure.scenario)
            .expect("failure references a known scenario");
        let minimal = shrink(failure, scenario);
        writeln!(out, "{minimal}").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{BlockAddr, NodeId};

    #[test]
    fn the_wire_primitives_round_trip() {
        use std::collections::{BTreeMap, BTreeSet, VecDeque};
        assert_snap_round_trip(&(7u8, 0xDEAD_BEEFu32, u64::MAX - 3));
        assert_snap_round_trip(&(usize::MAX, true, -0.125f64));
        assert_snap_round_trip(&"token coherence".to_string());
        assert_snap_round_trip(&(Some(42u64), None::<u64>));
        assert_snap_round_trip(&vec![vec![1u32, 2], vec![], vec![3]]);
        assert_snap_round_trip(&[[1u64, 2, 3], [4, 5, 6]]);
        assert_snap_round_trip(&VecDeque::from([(NodeId::new(1), false)]));
        assert_snap_round_trip(&BTreeSet::from([BlockAddr::new(9), BlockAddr::new(2)]));
        assert_snap_round_trip(&BTreeMap::from([
            ("hits".to_string(), 1u64),
            ("misses".into(), 2),
        ]));
        assert_snap_round_trip(&tc_sim::ArenaRef::from_bits(0x0000_0007_0000_0002));
        assert_snap_round_trip(&tc_sim::DeterministicRng::new(12));
    }

    /// The skew the declaration macros rule out, written by hand: a field
    /// saved and never loaded.
    #[test]
    #[should_panic(expected = "load must consume every saved byte")]
    fn a_layout_that_reads_less_than_it_writes_is_caught() {
        #[derive(Debug, PartialEq)]
        struct Skewed(u32);
        impl Snap for Skewed {
            fn save(&self, w: &mut SnapWriter) {
                w.u32(self.0);
                w.bool(true);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                Ok(Skewed(r.u32()?))
            }
        }
        assert_snap_round_trip(&Skewed(1));
    }

    fn scenario() -> Scenario {
        let mut s = Scenario::standard()
            .into_iter()
            .find(|s| s.name == "hot_block_contention")
            .unwrap();
        s.ops_per_node = 200;
        s
    }

    #[test]
    fn clean_runs_produce_no_failure() {
        let s = scenario();
        let report = s.run(ProtocolKind::TokenB, 42);
        assert!(check(ProtocolKind::TokenB, &s, 42, s.run_options(), &report).is_none());
    }

    #[test]
    fn stress_sweep_is_deterministic() {
        let s = vec![scenario()];
        let a = stress(&[ProtocolKind::TokenB], &s, &[1, 2], FaultSpec::none());
        let b = stress(&[ProtocolKind::TokenB], &s, &[1, 2], FaultSpec::none());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn failure_display_contains_replay_recipe() {
        let failure = Failure {
            protocol: ProtocolKind::Snooping,
            scenario: "oltp_calibration".to_string(),
            seed: 7,
            options: RunOptions {
                ops_per_node: 300,
                ..RunOptions::default()
            },
            violations: vec![InvariantViolation::Deadlock {
                node: NodeId::new(5),
                addr: BlockAddr::new(46),
                issued_at: 100,
                at: 900,
            }],
        };
        let text = failure.to_string();
        assert!(text.contains("replay:"));
        assert!(text.contains("run_under"));
        assert!(text.contains("ops_per_node: 300"));
        assert!(text.contains("oltp_calibration"));
        assert!(text.contains("Snooping"));
        assert!(text.contains("seed 7"));
        assert!(text.contains("deadlock"));
    }

    #[test]
    fn faulted_failure_display_embeds_a_parseable_fault_recipe() {
        let faults = FaultSpec::none().with_drop(0.01).with_reorder(4);
        let failure = Failure {
            protocol: ProtocolKind::TokenB,
            scenario: "hot_block_contention".to_string(),
            seed: 9,
            options: RunOptions {
                ops_per_node: 100,
                ..RunOptions::default()
            }
            .with_faults(faults),
            violations: vec![InvariantViolation::Deadlock {
                node: NodeId::new(1),
                addr: BlockAddr::new(2),
                issued_at: 10,
                at: 90,
            }],
        };
        let text = failure.to_string();
        // The recipe round-trips: the printed spec parses back to itself.
        let printed = text
            .split("FaultSpec::parse(\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("replay recipe embeds the spec");
        assert_eq!(FaultSpec::parse(printed).unwrap(), faults);
    }

    #[test]
    fn shrink_minimizes_the_fault_schedule_alongside_the_op_count() {
        // A sabotaged TokenB arbiter swallows persistent requests, and loss
        // is what drives requesters into them. Duplication rides along; a
        // duplicated request is at worst redundant work, so the shrinker
        // must discard it and keep the loss and the sabotage.
        let s = Scenario {
            ops_per_node: 400,
            ..scenario()
        };
        let faults = FaultSpec::none().with_drop(0.02).with_dup(0.01);
        let failure = (0..s.num_nodes as u32)
            .flat_map(|victim| [1u64, 2, 3].map(|seed| (victim, seed)))
            .find_map(|(victim, seed)| {
                let adversary = AdversarySpec::none().with_victim(victim, 0).with_sabotage();
                let options = s
                    .run_options()
                    .with_faults(faults)
                    .with_adversary(adversary);
                let report = s.run_under(ProtocolKind::TokenB, seed, options);
                check(ProtocolKind::TokenB, &s, seed, options, &report)
            })
            .expect("a sabotaged arbiter under loss must violate on some probe");
        let minimal = shrink(&failure, &s);
        assert!(minimal.options.ops_per_node < failure.options.ops_per_node);
        let faults = minimal.options.faults;
        assert!(
            !faults.enables(FaultKind::Duplicate),
            "needless class not discarded"
        );
        assert!(
            faults.enables(FaultKind::Drop) && minimal.options.adversary.sabotage != 0,
            "what causes the failure must survive shrinking"
        );
        assert!(!minimal.violations.is_empty());
        // And the shrunk recipe still reproduces bit-for-bit.
        let replay = s.run_under(ProtocolKind::TokenB, minimal.seed, minimal.options);
        assert_eq!(replay.violations, minimal.violations);
    }
}
