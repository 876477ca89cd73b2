//! Question 5 of the paper: how does TokenB's broadcast traffic scale with
//! the number of processors, compared with the Directory protocol?
//!
//! The paper reports that at 64 processors TokenB uses roughly twice the
//! interconnect bandwidth of Directory — acceptable when bandwidth is
//! abundant, but a reason to design non-broadcast performance protocols for
//! larger systems.
//!
//! The whole grid (4 node counts x 3 protocols) runs as one campaign: the
//! driver keeps every core busy on the independently seeded points and the
//! report comes back in submission order, so rows slice out per node count.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example scalability_sweep [ops_per_node]
//! ```

use token_coherence::prelude::*;

const NODE_COUNTS: [usize; 4] = [8, 16, 32, 64];
const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::TokenB,
    ProtocolKind::Directory,
    ProtocolKind::Hammer,
];

fn main() {
    let ops: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_500);
    let workload = WorkloadProfile::uniform_shared();

    let points: Vec<ExperimentPoint> = NODE_COUNTS
        .iter()
        .flat_map(|&nodes| {
            let workload = workload.clone();
            PROTOCOLS.iter().map(move |&protocol| {
                ExperimentPoint::new(
                    format!("{protocol}-{nodes}p"),
                    SystemConfig::isca03_default()
                        .with_nodes(nodes)
                        .with_protocol(protocol)
                        .with_topology(TopologyKind::Torus),
                    workload.clone(),
                )
            })
        })
        .collect();
    let campaign = Campaign::new(points)
        .options(RunOptions {
            ops_per_node: ops,
            max_cycles: 4_000_000_000,
            ..RunOptions::default()
        })
        .on_progress(|event| eprintln!("  {event}"))
        .run();
    if let Err((label, violation)) = campaign.verified() {
        panic!("verification failed in {label}: {violation}");
    }

    println!(
        "Interconnect traffic per miss as the system grows (uniform-sharing microbenchmark)\n"
    );
    println!(
        "{:>6} {:>18} {:>18} {:>18} {:>12}",
        "nodes", "TokenB bytes/miss", "Directory B/miss", "Hammer B/miss", "TokenB/Dir"
    );
    for (nodes, runs) in NODE_COUNTS
        .iter()
        .zip(campaign.runs.chunks(PROTOCOLS.len()))
    {
        let per_protocol: Vec<f64> = runs.iter().map(|r| r.report.bytes_per_miss()).collect();
        println!(
            "{:>6} {:>18.1} {:>18.1} {:>18.1} {:>11.2}x",
            nodes,
            per_protocol[0],
            per_protocol[1],
            per_protocol[2],
            per_protocol[0] / per_protocol[1]
        );
    }

    println!(
        "\nExpected shape (paper, Question 5): the TokenB/Directory traffic ratio grows with the \
         node count and reaches roughly 2x at 64 processors; Hammer grows faster still because \
         of its per-miss acknowledgement storm."
    );
    println!(
        "(campaign: {} points in {:.1} s across {} threads)",
        campaign.runs.len(),
        campaign.wall_seconds,
        campaign.threads
    );
}
