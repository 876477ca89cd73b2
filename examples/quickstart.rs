//! Quickstart: build the paper's 16-processor target system, run an
//! OLTP-like workload under TokenB, and print the headline measurements —
//! then run a small campaign comparing TokenB against the directory
//! baseline across worker threads. Exits 1 if any run breaks a safety or
//! starvation-freedom check.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use token_coherence::prelude::*;
use token_coherence::system::table::RUNTIME;

fn main() {
    // Table 1 of the paper: 16 nodes, 128 kB L1s, 4 MB L2, 64 B blocks,
    // 80 ns DRAM, 3.2 GB/s 15 ns links, TokenB on the unordered torus.
    let config = SystemConfig::isca03_default();
    let workload = WorkloadProfile::oltp();

    println!(
        "Running {} on the {} interconnect, {} nodes, workload {}...",
        config.protocol, config.interconnect.topology, config.num_nodes, workload.name
    );

    // One system, driven directly.
    let mut system = System::build(&config, &workload);
    let report = system.run(RunOptions {
        ops_per_node: 5_000,
        max_cycles: 1_000_000_000,
        ..RunOptions::default()
    });

    println!("\n{report}\n");

    let [none, once, more, persistent] = report.table2_row();
    println!("Reissue behaviour (Table 2 of the paper):");
    println!("  not reissued:        {none:6.2}%");
    println!("  reissued once:       {once:6.2}%");
    println!("  reissued > once:     {more:6.2}%");
    println!("  persistent requests: {persistent:6.2}%");

    if let Err(violation) = report.verified() {
        eprintln!("\nVIOLATION DETECTED: {violation}");
        std::process::exit(1);
    }
    println!("\nAll safety and starvation-freedom checks passed.");

    // A whole experiment set, driven by the campaign API: each point is an
    // independently seeded simulation, so the driver fans them out across
    // OS threads without changing any result.
    let points = vec![
        ExperimentPoint::new("TokenB-Torus", config.clone(), workload.clone()),
        ExperimentPoint::new(
            "Directory-Torus",
            config.with_protocol(ProtocolKind::Directory),
            workload,
        ),
    ];
    let campaign = Campaign::new(points)
        .options(RunOptions {
            ops_per_node: 5_000,
            max_cycles: 1_000_000_000,
            ..RunOptions::default()
        })
        .on_progress(|event| eprintln!("  {event}"))
        .run();
    println!(
        "\n{}",
        RUNTIME.render("TokenB vs Directory (normalized runtime)", &campaign.runs)
    );
    println!(
        "campaign: {} points in {:.1} s across {} threads",
        campaign.runs.len(),
        campaign.wall_seconds,
        campaign.threads
    );
    for run in &campaign.runs {
        if let Err(violation) = run.report.verified() {
            eprintln!("VIOLATION DETECTED in {}: {violation}", run.label);
            std::process::exit(1);
        }
    }
}
