//! Full-system assembly: processors, nodes, the event-driven runner,
//! verification, and experiment configuration.
//!
//! This crate glues the substrates together into the 16-processor target
//! system of the paper's Table 1 and drives it:
//!
//! * [`Processor`] — a miss-overlap processor model that issues the workload
//!   generator's memory operations, hides hit latency behind computation, and
//!   keeps several misses outstanding (the memory-level parallelism that
//!   matters when comparing protocols);
//! * [`System`] — one interconnect, N nodes (each a processor + coherence
//!   controller for one of the four protocols), and a deterministic
//!   event-driven runner;
//! * [`Verifier`] — checks, during the run, that every load returns the value
//!   of the most recent completed store (the safety property token counting
//!   is supposed to guarantee), and, at the end of the run, that tokens were
//!   conserved, that at most one writer existed per block, and that no
//!   request starved;
//! * [`RunReport`] — the measurements every experiment consumes: normalized
//!   runtime (cycles per transaction), miss and reissue statistics (Table 2),
//!   and traffic per miss broken down by message class (Figures 4b and 5b);
//! * [`experiment`] — ready-made configurations for each figure and table of
//!   the paper, shared by the benchmark binaries, the examples, and the
//!   integration tests;
//! * [`Campaign`] — a builder-style driver that executes a whole set of
//!   experiment points across OS threads (each point is an independently
//!   seeded, hermetic simulation, so parallelism changes wall-clock only,
//!   never results) and serializes the reports as JSON;
//! * [`table`] — the evaluation's tables (runtime, traffic, miss latency,
//!   Table 2, the fault sweep), each one column list that both the printed
//!   table and its JSON rows come from.
//!
//! Controllers are constructed through the `tc_protocols` registry: the four
//! paper protocols are registered by default, and [`System::build_with`]
//! accepts a custom registry so a new protocol variant is a registration
//! rather than an engine edit.
//!
//! # Example
//!
//! ```
//! use tc_system::{RunOptions, System};
//! use tc_types::{ProtocolKind, SystemConfig};
//! use tc_workloads::WorkloadProfile;
//!
//! let config = SystemConfig::isca03_default()
//!     .with_nodes(4)
//!     .with_protocol(ProtocolKind::TokenB);
//! let mut system = System::build(&config, &WorkloadProfile::specjbb());
//! let report = system.run(RunOptions {
//!     ops_per_node: 200,
//!     max_cycles: 2_000_000,
//!     ..RunOptions::default()
//! });
//! assert!(report.total_ops >= 4 * 200);
//! assert!(report.violations.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod experiment;
pub mod processor;
pub mod report;
pub mod runner;
mod sharded;
mod step;
pub mod table;
pub mod verify;

pub use campaign::{
    run_to_json, Campaign, CampaignEvent, CampaignReport, CampaignRun, CampaignSummary,
};
pub use experiment::ExperimentPoint;
pub use processor::{CompletionOutcome, Processor};
pub use report::{RunReport, TrafficBreakdown};
pub use runner::{determinism_key, RunOptions, RunProgress, System};
pub use verify::Verifier;
