//! Replays one conformance cell with full post-mortem output, for debugging:
//!
//! ```text
//! conformance_repro <scenario> <protocol> <seed> [ops]
//! ```
//!
//! On a failing cell this prints every violation plus, for each stuck node,
//! the blocks it is waiting on and its controller's full debug state. Set
//! `TC_TRACE_BLOCK=<block-number>` to additionally get the runner's causal
//! send/delivery trace for that block (runs are deterministic, so the trace
//! is exact). Exits 1 if the cell has any violation.

use tc_testkit::Scenario;
use token_coherence::prelude::*;
use token_coherence::types::InvariantViolation;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scenario = Scenario::by_name(
        args.get(1)
            .map(|s| s.as_str())
            .unwrap_or("oltp_calibration"),
    )
    .expect("unknown scenario");
    let protocol = match args.get(2).map(|s| s.as_str()).unwrap_or("snooping") {
        "tokenb" => ProtocolKind::TokenB,
        "snooping" => ProtocolKind::Snooping,
        "directory" => ProtocolKind::Directory,
        "hammer" => ProtocolKind::Hammer,
        other => panic!("unknown protocol {other}"),
    };
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1);
    let ops: u64 = args
        .get(4)
        .and_then(|s| s.parse().ok())
        .unwrap_or(scenario.ops_per_node);

    // Build the system by hand (rather than through Scenario::run) so the
    // wedged state is still inspectable after the run finishes.
    let config = scenario.config(protocol, seed);
    let mut system = System::build(&config, &scenario.workload);
    let report = system.run(RunOptions {
        ops_per_node: ops,
        max_cycles: scenario.max_cycles,
        ..RunOptions::default()
    });
    println!(
        "{} x {protocol} seed={seed} ops={ops}: cycles={} total_ops={} violations={}",
        scenario.name,
        report.runtime_cycles,
        report.total_ops,
        report.violations.len()
    );
    for violation in &report.violations {
        println!("  {violation}");
    }
    for violation in &report.violations {
        let node = match violation {
            InvariantViolation::Starvation { node, .. }
            | InvariantViolation::Deadlock { node, .. } => *node,
            _ => continue,
        };
        println!(
            "--- stuck {node}: outstanding blocks {:?}",
            system.outstanding_blocks(node)
        );
        println!("{}", system.controller_debug(node));
    }
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}
