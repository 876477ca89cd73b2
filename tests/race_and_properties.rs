//! Property-based tests of the correctness-substrate invariants and an
//! end-to-end reproduction of the paper's Figure 2 race.
//!
//! The property tests are hand-rolled: seeds and run lengths are drawn from
//! a [`DeterministicRng`] rather than proptest (unavailable in the offline
//! build environment), which keeps every CI run over the exact same cases.

use tc_testkit::deliver;
use token_coherence::core::TokenBController;
use token_coherence::prelude::*;
use token_coherence::sim::DeterministicRng;
use token_coherence::types::{Address, BlockAddr, MemOp, MemOpKind, Outbox, ReqId, TimerKind};

/// The motivating race of the paper's Figure 2, message by message. One
/// processor wants to write a block while another wants to read it. On an
/// unordered interconnect their broadcasts race: the reader answers the
/// writer's request with nothing (it has no copy yet), the home answers the
/// reader first, and the writer ends up with most, but not all, of the
/// tokens. A naive protocol would now let the writer write while the reader
/// still holds a readable copy. Under Token Coherence the writer cannot
/// write until it holds every token, so it reissues its request and the
/// reader hands over the missing token: the race costs latency, never
/// correctness.
#[test]
fn figure2_race_is_resolved_by_reissue_without_violating_safety() {
    let config = SystemConfig::isca03_default().with_nodes(4);
    let block = BlockAddr::new(0);
    // Node 0 homes the block and holds all 16 tokens; P1 and P2 are the
    // racing processors (P0 and P1 in the paper's figure).
    let mut nodes: Vec<TokenBController> = (0..4)
        .map(|n| TokenBController::new(n.into(), &config))
        .collect();

    // Both processors broadcast a transient request at nearly the same
    // time: P1 a GetM at t=0 (it wants to write), P2 a GetS at t=1 (it
    // wants to read).
    let mut writer_out = Outbox::new();
    nodes[1].access(
        0,
        &MemOp::new(ReqId::new(1), Address::new(0), MemOpKind::Store),
        &mut writer_out,
    );
    let mut reader_out = Outbox::new();
    nodes[2].access(
        1,
        &MemOp::new(ReqId::new(2), Address::new(0), MemOpKind::Load),
        &mut reader_out,
    );

    // The reader handles the writer's racing GetM before it has any tokens
    // (time 2 in the paper's figure): it has nothing to contribute.
    deliver(&writer_out.messages[..1], &mut nodes[2..3], 35);

    // The reader's GetS reaches the home first (the writer's GetM is delayed
    // in the congested interconnect): the home gives the reader data plus
    // one token, and at t=140 the reader can read.
    let home_to_reader = deliver(&reader_out.messages, &mut nodes[..1], 40);
    let reader_completed = deliver(&home_to_reader.messages, &mut nodes, 140);
    assert_eq!(reader_completed.completions.len(), 1);

    // The writer's delayed GetM reaches the home at t=160, which sends the
    // remaining tokens. At t=260 the writer holds 15 of 16 tokens: not
    // enough to write, so safety holds.
    let home_to_writer = deliver(&writer_out.messages, &mut nodes[..1], 160);
    let writer_partial = deliver(&home_to_writer.messages, &mut nodes, 260);
    assert!(
        writer_partial.completions.is_empty(),
        "the writer must NOT complete with only part of the tokens"
    );
    assert_eq!(nodes[1].substrate().tokens_held(block), 15);
    assert_eq!(nodes[2].substrate().tokens_held(block), 1);

    // The writer's reissue timer fires and it rebroadcasts its GetM; this
    // time the reader hands over its token (plus data), and the writer
    // completes its write in M: the race was resolved by reissue, with no
    // ordered interconnect and no directory indirection.
    let (fire_at, timer) = writer_out
        .timers
        .iter()
        .find(|(_, t)| t.kind == TimerKind::Reissue)
        .copied()
        .expect("reissue timer armed");
    let mut reissue = Outbox::new();
    nodes[1].handle_timer(fire_at, timer, &mut reissue);
    let replies = deliver(&reissue.messages, &mut nodes, fire_at + 40);
    let done = deliver(&replies.messages, &mut nodes, fire_at + 80);
    assert_eq!(done.completions.len(), 1, "the writer finally completes");
    assert_eq!(nodes[1].substrate().tokens_held(block), 16);
    assert_eq!(nodes[1].substrate().cache_state_name(block), "M");
    assert_eq!(nodes[2].substrate().tokens_held(block), 0);
}

/// Token conservation and read-your-writes hold for arbitrary seeds and
/// run lengths on the most contended workload we have.
#[test]
fn tokenb_invariants_hold_for_random_seeds() {
    let mut cases = DeterministicRng::new(0xA11CE);
    for _ in 0..8 {
        let seed = cases.next_below(10_000);
        let ops = cases.next_range(200, 900);
        let mut config = SystemConfig::isca03_default()
            .with_nodes(4)
            .with_protocol(ProtocolKind::TokenB)
            .with_seed(seed);
        config.l2.size_bytes = 128 * 1024;
        let mut system = System::build(&config, &WorkloadProfile::hot_block());
        let report = system.run(RunOptions {
            ops_per_node: ops,
            max_cycles: 80_000_000,
            ..RunOptions::default()
        });
        assert!(
            report.verified().is_ok(),
            "seed {seed}: {:?}",
            report.violations
        );
    }
}

/// The baselines must also be coherent for arbitrary seeds: they resolve
/// races with indirection (Directory, Hammer) or a total order (Snooping,
/// on the tree) rather than tokens.
#[test]
fn baseline_protocols_stay_coherent_for_random_seeds() {
    let mut cases = DeterministicRng::new(0xB0B);
    for protocol in [
        ProtocolKind::Directory,
        ProtocolKind::Hammer,
        ProtocolKind::Snooping,
    ] {
        for _ in 0..4 {
            let seed = cases.next_below(10_000);
            let mut config = SystemConfig::isca03_default()
                .with_nodes(4)
                .with_protocol(protocol)
                .with_seed(seed);
            config.l2.size_bytes = 128 * 1024;
            let mut system = System::build(&config, &WorkloadProfile::hot_block());
            let report = system.run(RunOptions {
                ops_per_node: 400,
                max_cycles: 80_000_000,
                ..RunOptions::default()
            });
            assert!(
                report.verified().is_ok(),
                "{protocol} seed {seed}: {:?}",
                report.violations
            );
        }
    }
}

/// Workload generation is deterministic in the seed and never strays
/// outside its declared regions.
#[test]
fn workload_streams_are_deterministic() {
    use token_coherence::types::NodeId;
    use token_coherence::workloads::WorkloadGenerator;
    let mut cases = DeterministicRng::new(0x5EED);
    for _ in 0..16 {
        let seed = cases.next_below(1_000_000);
        let profile = WorkloadProfile::oltp();
        let mut a = WorkloadGenerator::new(&profile, NodeId::new(3), 16, seed);
        let mut b = WorkloadGenerator::new(&profile, NodeId::new(3), 16, seed);
        for _ in 0..64 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}
