//! Footprint tripwire: building a system must not write memory in
//! proportion to its cache capacity.
//!
//! The 64-node Table 1 system has 4.3 M cache lines. A cache that
//! initialises a tag, a state and an LRU stamp per line at construction
//! makes `System::build` touch about 100 MiB of them before the first
//! simulated operation (and a 300-op campaign point never reads most of it);
//! `SetAssocCache` appends a set on its first fill instead, and the same
//! build grows the resident set by about 2 MiB (1956-2084 kB over four
//! debug-build runs on a 2-core x86-64 Linux host). This test holds the
//! line at 32 MiB. It times nothing, so it cannot flake on a loaded host,
//! and it is the only test of its binary, so no other test's allocations
//! land between the two readings.
//!
//! Linux only: the reading is `VmRSS` of `/proc/self/status` (which is in kB,
//! where `/proc/self/statm` counts pages of a size the standard library
//! cannot ask for). Elsewhere the build and the run still happen, unmeasured.

use token_coherence::prelude::*;

const NODES: usize = 64;
const OPS_PER_NODE: u64 = 50;
const LIMIT_KB: u64 = 32 * 1024;

/// Resident set of this process in kB, where the host reports one.
fn resident_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn building_the_64_node_table1_system_stays_under_32_mib() {
    let config = SystemConfig::isca03_default().with_nodes(NODES);
    assert_eq!(config.protocol, ProtocolKind::TokenB);
    let before = resident_kb();
    let mut system = System::build(&config, &WorkloadProfile::oltp());
    let after = resident_kb();
    match before.zip(after) {
        Some((before, after)) => {
            let grown = after.saturating_sub(before);
            assert!(
                grown < LIMIT_KB,
                "System::build grew the resident set by {grown} kB (limit {LIMIT_KB} kB): \
                 something allocates and writes per cache line again"
            );
        }
        None => eprintln!("no /proc/self/status here: footprint not measured"),
    }
    // What was built is a live system, not an empty shell.
    let report = system.run(RunOptions {
        ops_per_node: OPS_PER_NODE,
        ..RunOptions::default()
    });
    assert!(report.total_ops >= NODES as u64 * OPS_PER_NODE);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}
