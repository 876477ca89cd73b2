//! The text wire format, pinned: twin of the first-checkpoint pin in
//! `restore_equivalence.rs`, for the bytes that cross the *text* boundary.
//!
//! One dump holds every text form the workspace emits: a submission (all of
//! `SystemConfig`, every enum name, both spec strings and a label that needs
//! every escape), the same submission after `parse -> to_json`, and the
//! NDJSON run lines the campaign service streams. A change to a
//! `json_struct!` / `named_enum!` declaration, to the clause writer behind
//! the two spec strings, or to `Json`'s serializer moves the pin; nothing
//! else should.

use tc_serve::Submission;
use token_coherence::prelude::*;
use token_coherence::sim::fnv1a64;
use token_coherence::system::experiment::{faultsweep_points, figure5a_points};
use token_coherence::system::run_to_json;
use token_coherence::types::{AdversarySpec, FaultSpec, JobPriority};

/// Length and `fnv1a64` of the dump. Only a change to a text layout moves
/// them. Last re-recorded when `TokenConfig` lost the reissue multiplier and
/// the migratory switch, now constants of TokenB: every `token` member is
/// two members shorter, and the rest of the dump is byte for byte what it
/// was.
const PINNED: (usize, u64) = (49_626, 0xa9645b30c31b8e26);

fn dump() -> String {
    let mut points = figure5a_points(&WorkloadProfile::oltp());
    points.extend(faultsweep_points());
    assert_eq!(points.len(), 24);
    points[0].label = "quote \" backslash \\ tab \t newline \n end".to_string();
    let submission = Submission {
        priority: JobPriority::High,
        options: RunOptions {
            ops_per_node: 120,
            max_cycles: 50_000_000,
            faults: FaultSpec::parse("delay=0.02@40,reorder=2,seed=3").unwrap(),
            adversary: AdversarySpec::parse("reorder=2,victim=1@7,delay=30").unwrap(),
            ..RunOptions::default()
        },
        points,
    };

    let text = submission.to_json();
    let reparsed = Submission::parse(&text).expect("the dump's submission must parse");
    let mut out = format!("{text}\n{}\n", reparsed.to_json());

    let report = Campaign::new(reparsed.points)
        .options(reparsed.options)
        .threads(1)
        .run();
    for run in &report.runs {
        out.push_str(&run_to_json(&run.label, &run.report));
        out.push('\n');
    }
    out
}

#[test]
fn text_wire_dump_keeps_its_bytes() {
    let dump = dump();
    assert_eq!(
        (dump.len(), fnv1a64(dump.as_bytes())),
        PINNED,
        "text wire bytes moved (len, fnv1a64); dump starts: {:.400}",
        dump
    );
}
