//! Campaign-level integration tests: the determinism-across-threads
//! contract and the pluggable protocol registry.

use token_coherence::prelude::*;
use token_coherence::types::{FaultSpec, NodeId};

/// A small but non-trivial campaign: all four protocols on a contended
/// workload, plus a 16-node point so the matrix is not uniform in size.
fn points() -> Vec<ExperimentPoint> {
    let mut points: Vec<ExperimentPoint> = ProtocolKind::ALL
        .into_iter()
        .map(|protocol| {
            let mut config = SystemConfig::isca03_default()
                .with_nodes(4)
                .with_protocol(protocol)
                .with_seed(99);
            config.l2.size_bytes = 256 * 1024;
            ExperimentPoint::new(format!("{protocol}-4p"), config, WorkloadProfile::oltp())
        })
        .collect();
    points.push(ExperimentPoint::new(
        "TokenB-16p",
        SystemConfig::isca03_default().with_seed(7),
        WorkloadProfile::apache(),
    ));
    points
}

fn options() -> RunOptions {
    RunOptions {
        ops_per_node: 400,
        max_cycles: 50_000_000,
        ..RunOptions::default()
    }
}

/// The campaign determinism contract: `threads(1)` and `threads(4)` return
/// bit-identical `RunReport`s — every field, including the engine
/// high-water marks and `events_delivered` — because each experiment point
/// is an independently seeded, hermetic simulation and the driver
/// reassembles reports in submission order. Parallelism must never change
/// simulation behaviour, only wall-clock.
#[test]
fn threaded_campaign_reports_are_bit_identical_to_serial() {
    let serial = Campaign::new(points()).options(options()).threads(1).run();
    let parallel = Campaign::new(points()).options(options()).threads(4).run();

    assert_eq!(serial.runs.len(), parallel.runs.len());
    for (s, p) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(s.label, p.label);
        // Spot-check the fields a scheduler bug would disturb first, so a
        // failure names the divergence...
        assert_eq!(
            s.report.runtime_cycles, p.report.runtime_cycles,
            "{}: runtime diverged across thread counts",
            s.label
        );
        assert_eq!(
            s.report.engine.events_delivered, p.report.engine.events_delivered,
            "{}: events_delivered diverged across thread counts",
            s.label
        );
        assert_eq!(
            s.report.traffic.total_link_bytes(),
            p.report.traffic.total_link_bytes(),
            "{}: traffic diverged across thread counts",
            s.label
        );
    }
    // ...and the full structural equality pins everything else
    // (miss/reissue/controller stats, violations, engine marks).
    assert_eq!(serial.runs, parallel.runs);
    assert!(serial.verified().is_ok());
}

/// The streaming driver is part of the same determinism contract: at
/// `threads(4)` the sink sees every point exactly once in submission order,
/// and what it sees is, element for element, what `run()` returns — at
/// `threads(4)` and, bit-identically, at `threads(1)`.
#[test]
fn streaming_campaign_matches_the_buffered_runs() {
    let serial = Campaign::new(points()).options(options()).threads(1).run();
    let buffered = Campaign::new(points()).options(options()).threads(4).run();
    let mut delivered = Vec::new();
    let summary = Campaign::new(points())
        .options(options())
        .threads(4)
        .run_streaming(|index, run| delivered.push((index, run.clone())));
    assert_eq!(
        delivered.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        (0..summary.points).collect::<Vec<_>>(),
        "sink must see submission order"
    );
    let streamed: Vec<_> = delivered.into_iter().map(|(_, run)| run).collect();
    assert_eq!(streamed, buffered.runs);
    assert_eq!(streamed, serial.runs);
    assert!(buffered.verified().is_ok());
}

/// The determinism contract extends to faulted campaigns: each point's
/// fault plane derives its stream from `(config.seed, FaultSpec)` alone, so
/// `threads(1)` and `threads(4)` stay bit-identical — fault stats included
/// — even while the fabric drops, duplicates, and reorders messages.
#[test]
fn faulted_campaign_reports_are_bit_identical_across_thread_counts() {
    let spec = FaultSpec::parse("drop=0.01,dup=0.005,reorder=4,seed=5").unwrap();
    let points: Vec<ExperimentPoint> = [1u64, 7, 42, 0xBEEF]
        .into_iter()
        .map(|seed| {
            let mut config = SystemConfig::isca03_default()
                .with_nodes(4)
                .with_protocol(ProtocolKind::TokenB)
                .with_seed(seed);
            config.l2.size_bytes = 128 * 1024;
            ExperimentPoint::new(
                format!("TokenB-faulted-seed{seed}"),
                config,
                WorkloadProfile::hot_block(),
            )
            .with_faults(spec)
        })
        .collect();

    let serial = Campaign::new(points.clone())
        .options(options())
        .threads(1)
        .run();
    let parallel = Campaign::new(points).options(options()).threads(4).run();
    assert_eq!(serial.runs, parallel.runs);
    assert!(serial.verified().is_ok());
    for run in &serial.runs {
        assert_eq!(run.report.faults, spec, "{}: spec not recorded", run.label);
        assert!(
            run.report.engine.faults.total_injected() > 0,
            "{}: determinism check ran without faults",
            run.label
        );
    }
}

/// More workers than points is legal and still deterministic.
#[test]
fn oversubscribed_thread_count_is_harmless() {
    let few = points().into_iter().take(2).collect::<Vec<_>>();
    let wide = Campaign::new(few.clone())
        .options(options())
        .threads(64)
        .run();
    let narrow = Campaign::new(few).options(options()).threads(1).run();
    assert_eq!(wide.runs, narrow.runs);
    // The driver caps workers at the point count.
    assert!(wide.threads <= 2);
}

/// A fifth protocol variant is a registration, not an engine edit: register
/// a custom factory under an existing `ProtocolKind`, build through
/// `System::build_with`, and the runner drives it with no changes.
#[test]
fn a_registered_protocol_variant_runs_through_the_engine() {
    fn tokenb_again(node: NodeId, config: &SystemConfig) -> Box<dyn CoherenceController> {
        Box::new(TokenBController::new(node, config))
    }
    let mut registry = ProtocolRegistry::with_defaults();
    registry.register("TokenB-variant", ProtocolKind::TokenB, tokenb_again);

    let mut config = SystemConfig::isca03_default()
        .with_nodes(4)
        .with_protocol(ProtocolKind::TokenB)
        .with_seed(3);
    config.l2.size_bytes = 256 * 1024;
    let mut system = System::build_with(&config, &WorkloadProfile::specjbb(), &registry);
    let report = system.run(options());
    assert!(report.verified().is_ok(), "{:?}", report.violations);
    assert!(report.total_ops >= 4 * 400);

    // The variant behaves exactly like the stock registration it wraps, so
    // the default-registry run must match bit for bit.
    let mut stock = System::build(&config, &WorkloadProfile::specjbb());
    let stock_report = stock.run(options());
    assert_eq!(report, stock_report);
}
