//! Restore-equivalence matrix for the engine snapshot plane.
//!
//! The acceptance bar of the snapshot subsystem: a run cut at *any*
//! checkpoint and resumed on a freshly built system produces a
//! [`RunReport`] that is equal **field for field** — runtime cycles,
//! miss/reissue/traffic statistics, engine high-water marks,
//! `events_delivered`, violations — to the uninterrupted run. The matrix
//! crosses all four protocols with several seeds and several checkpoint
//! cadences (so the cut lands at different phases of the run: warm-up,
//! steady state, drain), plus a faulted row, a corruption row, and the
//! pinned 317430-event benchmark configuration restored mid-run.

use token_coherence::prelude::*;
use token_coherence::system::{RunReport, System};
use token_coherence::types::{AdversarySpec, FaultSpec, SystemConfig};
use token_coherence::workloads::WorkloadProfile;

use tc_testkit::Scenario;

/// Asserts two reports are equal field for field, naming the field that
/// diverged (a bare `assert_eq!` on the whole struct drowns the diff).
fn assert_reports_identical(context: &str, a: &RunReport, b: &RunReport) {
    assert_eq!(a.protocol, b.protocol, "{context}: protocol");
    assert_eq!(a.topology, b.topology, "{context}: topology");
    assert_eq!(a.bandwidth, b.bandwidth, "{context}: bandwidth");
    assert_eq!(a.workload, b.workload, "{context}: workload");
    assert_eq!(a.num_nodes, b.num_nodes, "{context}: num_nodes");
    assert_eq!(
        a.runtime_cycles, b.runtime_cycles,
        "{context}: runtime_cycles"
    );
    assert_eq!(a.total_ops, b.total_ops, "{context}: total_ops");
    assert_eq!(
        a.total_transactions, b.total_transactions,
        "{context}: total_transactions"
    );
    assert_eq!(a.misses, b.misses, "{context}: misses");
    assert_eq!(a.reissue, b.reissue, "{context}: reissue");
    assert_eq!(a.controllers, b.controllers, "{context}: controllers");
    assert_eq!(a.traffic, b.traffic, "{context}: traffic");
    assert_eq!(a.faults, b.faults, "{context}: faults");
    assert_eq!(a.engine, b.engine, "{context}: engine");
    assert_eq!(a.violations, b.violations, "{context}: violations");
    // Belt and braces: PartialEq over the whole struct catches any field
    // added later but forgotten above.
    assert_eq!(a, b, "{context}: full report");
}

/// All four protocols x seeds x checkpoint cadences: the interrupted-and-
/// resumed run must reproduce the uninterrupted report exactly.
#[test]
fn resume_matrix_is_bit_identical_across_protocols_seeds_and_cadences() {
    let mut scenario = Scenario::by_name("hot_block_contention").expect("standard scenario");
    scenario.ops_per_node = 300;
    let options = scenario.run_options();
    for protocol in ProtocolKind::ALL {
        for seed in [2, 12] {
            let baseline = scenario.run_under(protocol, seed, options);
            // Early cut (warm-up) and late cut (steady state / drain).
            for cadence in [500u64, 3_000] {
                let resumed =
                    scenario.run_resumed(protocol, seed, options.with_checkpoint_every(cadence));
                assert_reports_identical(
                    &format!("{protocol} seed {seed} cadence {cadence}"),
                    &baseline,
                    &resumed,
                );
            }
        }
    }
}

/// Restore-equivalence holds with an active fault plane: the plane's RNG
/// position and fault statistics travel in the snapshot, so the resumed
/// run drops/duplicates/reorders exactly the messages the uninterrupted
/// one does. TokenB is the protocol whose contract tolerates every fault
/// class.
#[test]
fn resume_is_bit_identical_under_fault_injection() {
    let mut scenario = Scenario::by_name("hot_block_contention").expect("standard scenario");
    scenario.ops_per_node = 300;
    let faults = FaultSpec::parse("drop=0.002,dup=0.002").expect("valid spec");
    let options = scenario.run_options().with_faults(faults);
    let baseline = scenario.run_under(ProtocolKind::TokenB, 12, options);
    let resumed = scenario.run_resumed(
        ProtocolKind::TokenB,
        12,
        options.with_checkpoint_every(4_000),
    );
    assert_reports_identical("tokenb faulted", &baseline, &resumed);
}

/// The pinned benchmark configuration under `protocol` (Snooping on the
/// ordered tree, the rest on the torus), checkpointing every 100000 events.
fn pinned_configuration(
    protocol: ProtocolKind,
) -> (
    SystemConfig,
    WorkloadProfile,
    token_coherence::system::RunOptions,
) {
    let config = SystemConfig::isca03_default()
        .with_nodes(4)
        .with_protocol(protocol)
        .with_seed(12);
    let options = token_coherence::system::RunOptions {
        ops_per_node: 20_000,
        max_cycles: 1_000_000_000,
        ..Default::default()
    }
    .with_checkpoint_every(100_000);
    (config, WorkloadProfile::oltp(), options)
}

/// The pinned TokenB configuration with both stages of the perturbation
/// plane armed: a fault spec that drops, duplicates and reorders, and an
/// adversary that reorders, delays the victim (node 1 on the first
/// migratory block) and aligns retry storms.
fn planed_configuration() -> (
    SystemConfig,
    WorkloadProfile,
    token_coherence::system::RunOptions,
) {
    let (config, profile, options) = pinned_configuration(ProtocolKind::TokenB);
    let faults = FaultSpec::parse("drop=0.002,dup=0.002,reorder=2").expect("valid spec");
    let adversary = AdversarySpec::parse("reorder=2,victim=1@150994944,delay=300,storm=900")
        .expect("valid spec");
    let options = options.with_faults(faults).with_adversary(adversary);
    (config, profile, options)
}

/// The sealed snapshot the pinned configuration takes at event 100000.
fn first_checkpoint(protocol: ProtocolKind) -> Vec<u8> {
    let (config, profile, options) = pinned_configuration(protocol);
    first_checkpoint_of(&config, &profile, options).1
}

/// A run of `config` to the end, and the sealed snapshot it took at event
/// 100000.
fn first_checkpoint_of(
    config: &SystemConfig,
    profile: &WorkloadProfile,
    options: token_coherence::system::RunOptions,
) -> (RunReport, Vec<u8>) {
    let mut first: Option<(u64, Vec<u8>)> = None;
    let report = System::build(config, profile).run_with_checkpoints(options, &mut |at, bytes| {
        first.get_or_insert_with(|| (at, bytes.to_vec()));
    });
    let (at, bytes) = first.expect("the pinned run must cross the 100k cadence");
    assert_eq!(at, 100_000);
    (report, bytes)
}

/// The snapshot wire format, pinned: the first checkpoint of the pinned
/// configuration must keep its exact bytes. The payload is explicit
/// little-endian counts and ids (no `size_of`), so the figures do not move
/// with the toolchain. They move when the layout does, and then
/// `SNAPSHOT_VERSION` must be bumped with them, because persisted `tc-serve`
/// caches and checkpoint directories hold bytes in the old layout. They also
/// move, with the version kept, when the same layout carries less state
/// (the verifier's history dropping entries no legal load can read): an
/// older checkpoint still loads. The hashes alone move when the determinism
/// key does (a `SystemConfig` field added or removed), because the payload
/// embeds its fingerprint. A refactor that moves serialized fields
/// between structs must leave this test passing unchanged. Last re-recorded
/// at v10, which saves 4 bytes fewer per resident L1 line (the L2 slot hint
/// went) and 24 fewer per fabric link (its byte, message and busy-time
/// counters went).
#[test]
fn first_checkpoint_of_the_pinned_configuration_keeps_its_bytes() {
    for (protocol, pinned) in [
        (ProtocolKind::TokenB, (572_893, 0x268096450b0d1ccb)),
        (ProtocolKind::Snooping, (583_164, 0x663791b9cfc73ad2)),
        (ProtocolKind::Directory, (693_574, 0xa3b3c26bbb940ac9)),
        (ProtocolKind::Hammer, (424_847, 0x2c0bde07f7d8fbc6)),
    ] {
        let bytes = first_checkpoint(protocol);
        let (len, hash) = (bytes.len(), token_coherence::sim::fnv1a64(&bytes));
        assert_eq!(
            (len, hash),
            pinned,
            "{protocol}: snapshot bytes changed ({len}, {hash:#x}): re-record (bumping \
             SNAPSHOT_VERSION if the layout changed), or restore the bytes"
        );
    }
}

/// The same pin with both plane stages armed, so the bytes of the fault
/// stage, the adversary stage, their RNG streams and the plane options
/// `RunProgress` carries are held too. The run must really perturb: every
/// adversary class and the three fault classes fire before the cut.
/// Re-recorded at v10 with the pin above, for the same two deletions.
#[test]
fn first_checkpoint_under_both_planes_keeps_its_bytes() {
    let (config, profile, options) = planed_configuration();
    let (report, bytes) = first_checkpoint_of(&config, &profile, options);
    let (faults, adversary) = (report.engine.faults, report.engine.adversary);
    assert!(faults.dropped > 0 && faults.duplicated > 0 && faults.reordered > 0);
    assert!(adversary.reordered > 0 && adversary.targeted > 0 && adversary.stormed > 0);
    let (len, hash) = (bytes.len(), token_coherence::sim::fnv1a64(&bytes));
    assert_eq!(
        (len, hash),
        (601_478, 0xead169ad738210ff),
        "planed TokenB: snapshot bytes changed ({len}, {hash:#x}): re-record (bumping \
         SNAPSHOT_VERSION if the layout changed), or restore the bytes"
    );
}

/// Restoring a checkpoint and saving it again gives the same bytes, for
/// every protocol's first checkpoint and for the planed one: nothing is
/// written that the restore does not read back into place.
#[test]
fn restored_snapshots_re_save_their_exact_bytes() {
    let mut cases: Vec<_> = ProtocolKind::ALL
        .into_iter()
        .map(pinned_configuration)
        .collect();
    cases.push(planed_configuration());
    for (config, profile, options) in cases {
        let bytes = first_checkpoint_of(&config, &profile, options).1;
        let mut system = System::build(&config, &profile);
        let progress = system.restore(&options, &bytes).expect("restore");
        assert!(
            system.snapshot(&options, &progress) == bytes,
            "{}: re-saving a restored system changed the snapshot bytes",
            config.protocol
        );
    }
}

/// A checkpoint sealed as version 9 (L1 slot hints, per-link counters) is
/// refused by its version, before any of its payload is read: v10 reads
/// none of the older layouts.
#[test]
fn a_version_9_checkpoint_is_refused_with_bad_version() {
    use token_coherence::sim::{open, seal, SnapshotError, SNAPSHOT_VERSION};
    assert_eq!(SNAPSHOT_VERSION, 10);
    let (config, profile, options) = pinned_configuration(ProtocolKind::TokenB);
    let sealed = first_checkpoint(ProtocolKind::TokenB);
    let (_, payload) = open(&sealed).expect("a checkpoint opens");
    let err = System::build(&config, &profile)
        .restore(&options, &seal(9, payload))
        .expect_err("a version 9 checkpoint must not restore");
    assert_eq!(
        err,
        SnapshotError::BadVersion {
            found: 9,
            expected: 10
        }
    );
}

/// A snapshot that lost a plane stage the options arm must not restore: a
/// run resumed from it would inject nothing from there on. The faulted
/// checkpoint's payload ends `fault presence (1) | fault stage (80 bytes:
/// the one RNG stream, an empty per-node stream list, eight counters) |
/// adversary presence (0)`; the tampered copy says "no fault stage" and is
/// resealed so the checksum passes.
#[test]
fn a_snapshot_missing_an_armed_plane_is_rejected() {
    use token_coherence::sim::{open, seal, SnapshotError, SNAPSHOT_VERSION};
    let mut scenario = Scenario::by_name("hot_block_contention").expect("standard scenario");
    scenario.ops_per_node = 300;
    let config = scenario.config(ProtocolKind::TokenB, 12);
    let faults = FaultSpec::parse("drop=0.002,dup=0.002").expect("valid spec");
    let options = scenario
        .run_options()
        .with_faults(faults)
        .with_checkpoint_every(2_000);
    let mut snapshot: Option<Vec<u8>> = None;
    System::build(&config, &scenario.workload).run_with_checkpoints(options, &mut |_, bytes| {
        snapshot.get_or_insert_with(|| bytes.to_vec());
    });
    let sealed = snapshot.expect("at least one checkpoint");
    let (_, payload) = open(&sealed).expect("a checkpoint opens");
    let plane_at = payload.len() - 1 - 80 - 1;
    assert_eq!(payload[plane_at], 1, "fault plane presence byte");
    assert_eq!(payload[payload.len() - 1], 0, "adversary presence byte");
    let mut tampered = payload[..plane_at].to_vec();
    tampered.extend_from_slice(&[0, 0]);
    let err = System::build(&config, &scenario.workload)
        .restore(&options, &seal(SNAPSHOT_VERSION, &tampered))
        .expect_err("a snapshot without the armed fault plane must not restore");
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    System::build(&config, &scenario.workload)
        .restore(&options, &sealed)
        .expect("the untouched checkpoint restores");
}

/// The report codec, pinned the same way: `RunReport::save_state` of the
/// pinned configuration's final report is what `tc-serve`'s cache file
/// stores and what the benchmark's `sim.fingerprint` hashes, so a drift in
/// its bytes must fail here, not nine minutes into the benchmark. The
/// line-state byte figure is priced at `size_of` and moves with the
/// toolchain (`tests/conformance.rs` holds it under a ceiling), so it is
/// zeroed before hashing; every other field is a count or an id. The
/// planed row holds both stages of the perturbation plane to every report
/// byte, not only to the first checkpoint's.
#[test]
fn final_report_of_the_pinned_configuration_keeps_its_bytes() {
    let rows = [
        (ProtocolKind::TokenB, (797, 0xe6f0b343198c9e01)),
        (ProtocolKind::Snooping, (855, 0x2f3e2b45faa65d4a)),
        (ProtocolKind::Directory, (853, 0xa012f2b541fece23)),
        (ProtocolKind::Hammer, (781, 0x2f766323a5a204f0)),
    ]
    .map(|(protocol, pinned)| (pinned_configuration(protocol), pinned));
    let planed = (planed_configuration(), (867, 0x390f5780bfc026ea));
    for ((config, profile, options), pinned) in rows.into_iter().chain([planed]) {
        let protocol = config.protocol;
        let mut report = System::build(&config, &profile).run(options);
        report.engine.state.state_bytes = 0;
        let mut w = token_coherence::sim::SnapWriter::new();
        report.save_state(&mut w);
        let bytes = w.into_bytes();
        let (len, hash) = (bytes.len(), token_coherence::sim::fnv1a64(&bytes));
        assert_eq!(
            (len, hash),
            pinned,
            "{protocol}: report bytes changed ({len}, {hash:#x}): bump SNAPSHOT_VERSION \
             and re-record, or restore the format"
        );
    }
}

/// A payload cut short is an error even when the container vouches for it:
/// each first checkpoint, truncated at 256 seeded points and re-sealed (so
/// the length and checksum are valid and `open` passes), must come back
/// `Err` from `System::restore` — every container's load side bounds its
/// reads, none panics or restores a prefix.
#[test]
fn truncated_and_resealed_checkpoints_are_rejected_without_panicking() {
    use token_coherence::sim::{open, seal, DeterministicRng, SNAPSHOT_VERSION};
    for protocol in ProtocolKind::ALL {
        let (config, profile, options) = pinned_configuration(protocol);
        let sealed = first_checkpoint(protocol);
        let (_, payload) = open(&sealed).expect("a checkpoint opens");
        let mut rng = DeterministicRng::new(0x7C0B ^ payload.len() as u64);
        // One system takes every attempt: a failed restore leaves it
        // half-written, which the next restore must also survive.
        let mut system = System::build(&config, &profile);
        for _ in 0..256 {
            let cut = rng.next_below(payload.len() as u64) as usize;
            let resealed = seal(SNAPSHOT_VERSION, &payload[..cut]);
            assert!(
                system.restore(&options, &resealed).is_err(),
                "{protocol}: {cut} of {} payload bytes restored",
                payload.len()
            );
        }
        system
            .restore(&options, &sealed)
            .expect("the whole checkpoint still restores onto the same system");
    }
}

/// The determinism pin, checkable from a snapshot: the benchmark
/// configuration (TokenB, OLTP, 4 nodes, 20k ops/node, seed 12) restored
/// at a mid-run checkpoint still lands on exactly 317430 delivered events.
#[test]
fn pinned_benchmark_configuration_resumes_to_the_pinned_event_count() {
    let (config, profile, options) = pinned_configuration(ProtocolKind::TokenB);

    let mut snapshot: Option<(u64, Vec<u8>)> = None;
    let mut full = System::build(&config, &profile);
    let baseline = full.run_with_checkpoints(options, &mut |at, bytes| {
        // Keep the latest snapshot: the deepest cut is the harshest test.
        snapshot = Some((at, bytes.to_vec()));
    });
    assert_eq!(full.events_delivered(), 317_430, "uninterrupted pin");
    let (at, bytes) = snapshot.expect("a 317k-event run must cross the 100k cadence");
    assert!(at >= 100_000);

    let mut resumed = System::build(&config, &profile);
    let progress = resumed.restore(&options, &bytes).expect("restore");
    assert_eq!(resumed.events_delivered(), at);
    let report = resumed.resume(options, progress);
    assert_eq!(resumed.events_delivered(), 317_430, "resumed pin");
    assert_reports_identical("pinned benchmark", &baseline, &report);
}

/// A cadence with no sink cuts nothing. `System::run` has nowhere to hand a
/// snapshot, so a `checkpoint_every` in its options must cost the run
/// nothing and change nothing. Sealing
/// one 0.8 MB snapshot per delivered event for no reader took this run 600
/// times as long as the plain one (5.07 s against 8.4 ms); the bound is 100
/// times, and no less than a second so that a loaded host cannot trip it.
#[test]
fn a_checkpoint_cadence_without_a_sink_cuts_no_snapshot() {
    let (config, profile, pinned) = pinned_configuration(ProtocolKind::TokenB);
    let options = token_coherence::system::RunOptions {
        ops_per_node: 400,
        checkpoint_every: None,
        ..pinned
    };
    let timed = |options| {
        let began = std::time::Instant::now();
        let report = System::build(&config, &profile).run(options);
        (report, began.elapsed())
    };
    let (plain, fixed) = timed(options);
    let (cadenced, took) = timed(options.with_checkpoint_every(1));
    assert_reports_identical("cadence without a sink", &plain, &cadenced);
    let bound = (100 * fixed).max(std::time::Duration::from_secs(1));
    assert!(
        took < bound,
        "{} events took {took:?} under checkpoint_every(1) with no sink, {fixed:?} without",
        plain.engine.events_delivered
    );
}

/// The snapshot plane's sharding stance: snapshots are a serial-engine
/// feature. A snapshot taken by a serial run (`shards = 0`) restored under
/// `shards > 0` must fail as a structured `Corrupt` — the fingerprint folds
/// the shard count in precisely so the windowed engine can never silently
/// resume state the serial engine produced. (Asking a sharded run to
/// checkpoint panics up front; that contract is pinned in `tc-system`'s
/// unit tests.)
#[test]
fn serial_snapshot_does_not_restore_under_sharded_options() {
    let scenario = Scenario::by_name("hot_block_contention").expect("standard scenario");
    let config = scenario.config(ProtocolKind::TokenB, 7);
    let options = scenario.run_options().with_checkpoint_every(2_000);

    let mut snapshot: Option<Vec<u8>> = None;
    System::build(&config, &scenario.workload).run_with_checkpoints(options, &mut |_, bytes| {
        if snapshot.is_none() {
            snapshot = Some(bytes.to_vec());
        }
    });
    let clean = snapshot.expect("at least one checkpoint");

    let sharded_options = scenario.run_options().with_shards(2);
    let err = System::build(&config, &scenario.workload)
        .restore(&sharded_options, &clean)
        .expect_err("a serial snapshot must not restore into a sharded run");
    assert!(
        matches!(err, token_coherence::sim::SnapshotError::Corrupt(_)),
        "expected structured Corrupt, got {err}"
    );
    assert!(err.to_string().contains("fingerprint"), "{err}");

    // The same bytes still restore under the serial options.
    System::build(&config, &scenario.workload)
        .restore(&scenario.run_options().with_checkpoint_every(2_000), &clean)
        .expect("serial restore still works");
}

/// A snapshot with a flipped byte is rejected by the seal checksum — a
/// structured error, never a garbled restore.
#[test]
fn corrupted_snapshot_is_rejected_by_the_checksum() {
    let scenario = Scenario::by_name("hot_block_contention").expect("standard scenario");
    let config = scenario.config(ProtocolKind::Directory, 7);
    let options = scenario.run_options().with_checkpoint_every(2_000);

    let mut snapshot: Option<Vec<u8>> = None;
    System::build(&config, &scenario.workload).run_with_checkpoints(options, &mut |_, bytes| {
        if snapshot.is_none() {
            snapshot = Some(bytes.to_vec());
        }
    });
    let clean = snapshot.expect("at least one checkpoint");

    // Flip one byte in the middle of the payload: every such corruption
    // must surface as an error from restore, not a panic or a silent
    // mis-restore.
    let mut corrupt = clean.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    let err = System::build(&config, &scenario.workload)
        .restore(&options, &corrupt)
        .expect_err("corrupt snapshot must not restore");
    let message = err.to_string();
    assert!(
        message.contains("checksum") || message.contains("corrupt"),
        "unexpected error: {message}"
    );

    // The clean bytes still restore fine (the corruption test didn't
    // invalidate the baseline).
    System::build(&config, &scenario.workload)
        .restore(&options, &clean)
        .expect("clean snapshot restores");
}
