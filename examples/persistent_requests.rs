//! Starvation avoidance under pathological contention.
//!
//! Every processor hammers a handful of hot migratory blocks, the worst case
//! for a broadcast performance protocol: transient requests race constantly,
//! many must be reissued, and some escalate to persistent requests. The point
//! of the correctness substrate is that even this workload completes with no
//! starvation and no safety violations — the performance protocol can only
//! lose performance, never correctness. Exits 1 if either run breaks a
//! safety or starvation-freedom check.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example persistent_requests
//! ```

use token_coherence::prelude::*;
use token_coherence::types::Counter;

fn main() {
    let config = SystemConfig::isca03_default();

    println!("Hot-block contention on 16 nodes under TokenB (worst case for transient requests)\n");

    let mut failed = false;
    for (label, profile) in [
        ("hot-block microbenchmark", WorkloadProfile::hot_block()),
        ("OLTP (realistic sharing)", WorkloadProfile::oltp()),
    ] {
        let mut system = System::build(&config, &profile);
        let report = system.run(RunOptions {
            ops_per_node: 4_000,
            max_cycles: 2_000_000_000,
            ..RunOptions::default()
        });
        let [none, once, more, persistent] = report.table2_row();
        let passed = report.verified().is_ok();
        failed |= !passed;
        println!("{label}:");
        println!(
            "  misses: {:>8}   not reissued: {:>6.2}%   once: {:>5.2}%   >once: {:>5.2}%   persistent: {:>5.2}%",
            report.reissue.total(),
            none,
            once,
            more,
            persistent
        );
        println!(
            "  persistent requests initiated: {}   arbiter activations: {}   safety checks: {}\n",
            report.controllers.persistent_requests_initiated,
            report.controllers.counter(Counter::ArbiterActivations),
            if passed { "all passed" } else { "FAILED" }
        );
    }

    println!(
        "The contrast is the paper's Table 2 argument in miniature: with realistic commercial \
         sharing, reissued and persistent requests are rare; even when contention is engineered \
         to be extreme, persistent requests keep every processor making progress."
    );
    if failed {
        std::process::exit(1);
    }
}
