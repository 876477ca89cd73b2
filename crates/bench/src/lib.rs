//! Shared machinery for the `tc-bench` experiment CLI: the campaign
//! catalog, the table renderers, and the command-line parser.
//!
//! One binary, `tc-bench`, resolves *named campaigns* — each regenerating a
//! table or figure of the paper's evaluation — from the
//! `tc_system::experiment` point catalogs and executes them through the
//! multi-threaded `tc_system::Campaign` driver:
//!
//! | campaign       | paper artifact |
//! |----------------|----------------|
//! | `table1`       | Table 1 — target system parameters |
//! | `table2`       | Table 2 — reissued / persistent request rates |
//! | `fig4-runtime` | Figure 4a — runtime, Snooping vs TokenB |
//! | `fig4-traffic` | Figure 4b — traffic, Snooping vs TokenB |
//! | `fig5-runtime` | Figure 5a — runtime, Directory & Hammer vs TokenB |
//! | `fig5-traffic` | Figure 5b — traffic, Directory & Hammer vs TokenB |
//! | `scalability`  | Section 6, Question 5 — traffic scaling to 64 processors |
//! | `sweep64`      | 64-node scale sweep (every protocol on every legal topology) |
//! | `faultsweep`   | Robustness: every protocol under its tolerated fault classes |
//!
//! Run `tc-bench list` for the catalog and `tc-bench <subcommand> --help`
//! for a subcommand's options. Every subcommand's flags are declared in one
//! [`Subcommand`] table and parsed by [`parse_cli`], which turns an argument
//! vector into a fully validated [`Command`] (or a usage error) without
//! touching the file system or the engine. Performance numbers are not this
//! crate's job: they are defined in `BENCHMARK.json` and measured by
//! `bash benchmark/run.sh`.

#![warn(missing_docs)]

use tc_serve::{ServeOptions, Submission};
use tc_system::campaign::CampaignReport;
use tc_system::experiment::{
    figure4a_points, figure4b_points, figure5a_points, figure5b_points, scalability_points,
    table2_points, ExperimentPoint,
};
use tc_system::RunOptions;
use tc_testkit::HuntOptions;
use tc_types::{FaultSpec, JobPriority, ProtocolKind, SystemConfig, TrafficClass};
use tc_workloads::WorkloadProfile;

/// How one campaign section's reports are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Normalized runtime (Figures 4a / 5a).
    Runtime,
    /// Traffic breakdown in bytes per miss (Figures 4b / 5b).
    Traffic,
    /// Reissue-rate percentages (Table 2).
    Reissue,
    /// Bytes-per-miss comparison across node counts (Question 5).
    Scalability,
    /// Runtime plus traffic plus miss latency (the scale sweep).
    Sweep,
    /// Injected-fault counts and recovery statistics (the fault sweep).
    Fault,
}

/// One renderable slice of a campaign: a title plus the points it runs.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section heading, e.g. `"Workload: OLTP"`.
    pub title: String,
    /// The experiment points of this section.
    pub points: Vec<ExperimentPoint>,
    /// How to render the section's reports.
    pub table: TableKind,
}

/// A named campaign in the `tc-bench` catalog.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// Canonical name (`tc-bench <name>`).
    pub name: &'static str,
    /// Accepted aliases (the retired per-figure binary names).
    pub aliases: &'static [&'static str],
    /// One-line description for `tc-bench list`.
    pub about: &'static str,
    /// What the paper reports for this artifact, printed after the tables.
    pub paper_note: &'static str,
}

/// The campaign catalog: every table and figure of the evaluation plus the
/// scale sweep.
pub const CAMPAIGNS: &[CampaignSpec] = &[
    CampaignSpec {
        name: "table1",
        aliases: &[],
        about: "Table 1: target system parameters (no simulation)",
        paper_note: "",
    },
    CampaignSpec {
        name: "table2",
        aliases: &[],
        about: "Table 2: TokenB reissue / persistent request rates per commercial workload",
        paper_note: "Paper reports (Table 2): Apache 95.75 / 3.25 / 0.71 / 0.29, OLTP 97.57 / \
                     1.79 / 0.43 / 0.21, SPECjbb 97.60 / 2.03 / 0.30 / 0.07, average 96.97 / \
                     2.36 / 0.48 / 0.19.",
    },
    CampaignSpec {
        name: "fig4-runtime",
        aliases: &["fig4_runtime", "fig4a"],
        about: "Figure 4a: runtime of Snooping (tree) vs TokenB (tree and torus)",
        paper_note: "Paper reports (Figure 4a): with the same tree interconnect Snooping is 1-5% \
                     faster than TokenB (reissues); by exploiting the unordered torus, TokenB \
                     becomes 26-65% faster than Snooping-on-Tree with 3.2 GB/s links and 15-28% \
                     faster with unlimited bandwidth.",
    },
    CampaignSpec {
        name: "fig4-traffic",
        aliases: &["fig4_traffic", "fig4b"],
        about: "Figure 4b: traffic (bytes/miss) of TokenB vs Snooping",
        paper_note: "Paper reports (Figure 4b): TokenB and Snooping use approximately the same \
                     interconnect bandwidth; data responses and writebacks dominate both, with \
                     broadcast requests a modest additional component for TokenB (plus a small \
                     sliver of reissued requests).",
    },
    CampaignSpec {
        name: "fig5-runtime",
        aliases: &["fig5_runtime", "fig5a"],
        about: "Figure 5a: runtime of TokenB vs Hammer vs Directory on the torus",
        paper_note: "Paper reports (Figure 5a): TokenB is 17-54% faster than Directory and 8-29% \
                     faster than Hammer by removing the home-node indirection from cache-to-cache \
                     misses; Hammer is 7-17% faster than Directory by avoiding the DRAM directory \
                     lookup; even with a perfect (zero-cycle) directory, TokenB remains 6-18% \
                     faster than Directory.",
    },
    CampaignSpec {
        name: "fig5-traffic",
        aliases: &["fig5_traffic", "fig5b"],
        about: "Figure 5b: traffic (bytes/miss) of TokenB vs Hammer vs Directory",
        paper_note: "Paper reports (Figure 5b): Directory uses 21-25% less traffic than TokenB \
                     (both are dominated by 72-byte data messages), while Hammer uses 79-90% more \
                     than TokenB because every miss broadcasts probes and collects an \
                     acknowledgement from every node.",
    },
    CampaignSpec {
        name: "scalability",
        aliases: &["question5"],
        about: "Question 5: TokenB vs Directory vs Hammer traffic at 16/32/64 nodes",
        paper_note: "Paper reports: TokenB's broadcast limits scalability — at 64 processors it \
                     uses roughly twice the interconnect bandwidth of Directory (but far less \
                     than Hammer, whose acknowledgement storm grows fastest). TokenB remains \
                     practical to perhaps 32-64 processors when bandwidth is plentiful.",
    },
    CampaignSpec {
        name: "sweep64",
        aliases: &["sweep"],
        about: "64-node scale sweep (every protocol on every legal topology, contended OLTP)",
        paper_note: "",
    },
    CampaignSpec {
        name: "faultsweep",
        aliases: &["faults"],
        about: "Robustness: each protocol under every fault class it contracts to survive",
        paper_note: "The paper's decoupling argument (Section 3.4): transient requests are \
                     performance hints, so TokenB tolerates a fabric that drops, duplicates, \
                     delays, and reorders them — reissue timeouts and persistent requests \
                     restore liveness while token counting keeps safety. The ordered baselines \
                     tolerate only the classes their ordering assumptions survive.",
    },
];

/// Resolves a campaign by name or alias, ignoring case and treating `-`/`_`
/// as equivalent.
pub fn resolve_campaign(name: &str) -> Option<&'static CampaignSpec> {
    let normalize = |s: &str| s.replace(['-', '_'], "").to_ascii_lowercase();
    let wanted = normalize(name);
    CAMPAIGNS.iter().find(|spec| {
        normalize(spec.name) == wanted || spec.aliases.iter().any(|a| normalize(a) == wanted)
    })
}

/// The commercial workloads a figure campaign iterates, or just the one the
/// user asked for.
fn figure_workloads(only: Option<&WorkloadProfile>) -> Vec<WorkloadProfile> {
    match only {
        Some(workload) => vec![workload.clone()],
        None => WorkloadProfile::commercial(),
    }
}

/// The node counts of the scalability campaign.
pub const SCALABILITY_NODE_COUNTS: [usize; 3] = [16, 32, 64];

/// Builds the sections of a simulation campaign (everything except
/// `table1`, which prints a static parameter table). Returns `None` for
/// unknown names and for `table1`.
pub fn campaign_sections(name: &str, workload: Option<&WorkloadProfile>) -> Option<Vec<Section>> {
    let spec = resolve_campaign(name)?;
    let sections = match spec.name {
        "table2" => vec![Section {
            title: "Table 2: overhead due to reissued requests (TokenB, 16-node torus)".to_string(),
            points: table2_points(),
            table: TableKind::Reissue,
        }],
        "fig4-runtime" => figure_workloads(workload)
            .into_iter()
            .map(|w| Section {
                title: format!("Workload: {}", w.name),
                points: figure4a_points(&w),
                table: TableKind::Runtime,
            })
            .collect(),
        "fig4-traffic" => figure_workloads(workload)
            .into_iter()
            .map(|w| Section {
                title: format!("Workload: {}", w.name),
                points: figure4b_points(&w),
                table: TableKind::Traffic,
            })
            .collect(),
        "fig5-runtime" => figure_workloads(workload)
            .into_iter()
            .map(|w| Section {
                title: format!("Workload: {}", w.name),
                points: figure5a_points(&w),
                table: TableKind::Runtime,
            })
            .collect(),
        "fig5-traffic" => figure_workloads(workload)
            .into_iter()
            .map(|w| Section {
                title: format!("Workload: {}", w.name),
                points: figure5b_points(&w),
                table: TableKind::Traffic,
            })
            .collect(),
        "scalability" => SCALABILITY_NODE_COUNTS
            .iter()
            .map(|&nodes| Section {
                title: format!("{nodes} nodes"),
                points: scalability_points(nodes),
                table: TableKind::Scalability,
            })
            .collect(),
        "sweep64" => vec![Section {
            title: "64-node scale sweep (contended OLTP, every legal protocol/topology)"
                .to_string(),
            points: tc_system::experiment::sweep64_points(),
            table: TableKind::Sweep,
        }],
        "faultsweep" => vec![Section {
            title: "Fault sweep: contract-gated injection, contended hot-block, 4-node torus"
                .to_string(),
            points: tc_system::experiment::faultsweep_points(),
            table: TableKind::Fault,
        }],
        _ => return None, // table1 has no simulation sections
    };
    Some(sections)
}

/// Renders the Table 2 reissue percentages (plus the cross-workload average
/// row) from a campaign report.
pub fn render_reissue_table(report: &CampaignReport) -> String {
    let mut out = format!(
        "{:<12} {:>14} {:>14} {:>15} {:>14}\n",
        "workload", "not reissued", "reissued once", "reissued > once", "persistent"
    );
    let mut averages = [0.0f64; 4];
    for run in &report.runs {
        let row = run.report.table2_row();
        for (avg, value) in averages.iter_mut().zip(row.iter()) {
            *avg += value / report.runs.len() as f64;
        }
        out.push_str(&format!(
            "{:<12} {:>13.2}% {:>13.2}% {:>14.2}% {:>13.2}%\n",
            run.label, row[0], row[1], row[2], row[3]
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>13.2}% {:>13.2}% {:>14.2}% {:>13.2}%\n",
        "Average", averages[0], averages[1], averages[2], averages[3]
    ));
    out
}

/// Renders the Question 5 scalability comparison: one row per node count,
/// one column per protocol, from the per-node-count campaign slices.
pub fn render_scalability_table(slices: &[(usize, CampaignReport)]) -> String {
    let mut out = format!(
        "{:>6} {:>18} {:>18} {:>18} {:>12}\n",
        "nodes", "TokenB B/miss", "Directory B/miss", "Hammer B/miss", "TokenB/Dir"
    );
    for (nodes, slice) in slices {
        let find = |protocol: ProtocolKind| {
            slice
                .runs
                .iter()
                .find(|run| run.report.protocol == protocol)
                .map(|run| run.report.bytes_per_miss())
                .unwrap_or(f64::NAN)
        };
        let tokenb = find(ProtocolKind::TokenB);
        let directory = find(ProtocolKind::Directory);
        let hammer = find(ProtocolKind::Hammer);
        out.push_str(&format!(
            "{:>6} {:>18.1} {:>18.1} {:>18.1} {:>11.2}x\n",
            nodes,
            tokenb,
            directory,
            hammer,
            tokenb / directory
        ));
    }
    out
}

/// Renders the fault sweep: per point, the injected-fault counts and the
/// recovery-side statistics (reissue timeouts fired, persistent-request
/// activations, worst-case miss recovery latency), plus the verifier's
/// verdict — the row-by-row version of "safe and live under fire".
pub fn render_fault_table(report: &CampaignReport) -> String {
    let mut out = format!(
        "{:<22} {:>7} {:>5} {:>7} {:>7} {:>6} {:>8} {:>10} {:>12} {:>9}\n",
        "point",
        "dropped",
        "dup",
        "delayed",
        "reorder",
        "outage",
        "reissues",
        "persistent",
        "recovery ns",
        "verdict"
    );
    for run in &report.runs {
        let f = run.report.engine.faults;
        let verdict = if run.report.violations.is_empty() {
            "ok"
        } else {
            "VIOLATED"
        };
        out.push_str(&format!(
            "{:<22} {:>7} {:>5} {:>7} {:>7} {:>6} {:>8} {:>10} {:>12} {:>9}\n",
            run.label,
            f.dropped,
            f.duplicated,
            f.delayed,
            f.reordered,
            f.link_deferred,
            f.reissue_timeouts,
            f.persistent_activations,
            f.max_recovery_ns,
            verdict
        ));
    }
    out
}

/// Renders Table 1 (the target system parameters) — the one campaign that
/// runs no simulation.
pub fn render_table1() -> String {
    let c = SystemConfig::isca03_default();
    let mut out = String::from("Table 1: target system parameters (ISCA 2003)\n\n");
    out.push_str("Coherent memory system\n");
    out.push_str(&format!(
        "  split L1 I & D caches    {} kB, {}-way, {} ns\n",
        c.l1.size_bytes / 1024,
        c.l1.associativity,
        c.l1.latency_ns
    ));
    out.push_str(&format!(
        "  unified L2 cache         {} MB, {}-way, {} ns\n",
        c.l2.size_bytes / (1024 * 1024),
        c.l2.associativity,
        c.l2.latency_ns
    ));
    out.push_str(&format!(
        "  cache block size         {} bytes\n",
        c.block_bytes
    ));
    out.push_str(&format!(
        "  DRAM / directory latency {} ns\n",
        c.dram_latency_ns
    ));
    out.push_str(&format!(
        "  memory/dir controllers   {} ns\n",
        c.controller_latency_ns
    ));
    out.push_str(&format!(
        "  network link bandwidth   {:.1} GB/s\n",
        c.interconnect.link_bandwidth_bytes_per_ns
    ));
    out.push_str(&format!(
        "  network link latency     {} ns (wire + sync + route)\n",
        c.interconnect.link_latency_ns
    ));
    out.push_str("\nProcessors\n");
    out.push_str(&format!("  nodes                    {}\n", c.num_nodes));
    out.push_str(&format!(
        "  outstanding misses       {} (reorder window {} memory ops)\n",
        c.processor.max_outstanding_misses, c.processor.overlap_window
    ));
    out.push_str(&format!(
        "  ops per transaction      {}\n",
        c.processor.ops_per_transaction
    ));
    out.push_str("\nToken Coherence\n");
    out.push_str(&format!(
        "  tokens per block (T)     {}\n",
        c.token.tokens_per_block
    ));
    out.push_str(&format!(
        "  reissue timeout          {}x average miss latency + randomized backoff\n",
        c.token.reissue_latency_multiplier
    ));
    out.push_str(&format!(
        "  persistent escalation    after ~{} reissues\n",
        c.token.reissues_before_persistent
    ));
    out.push_str(&format!(
        "  token state per block    {} bits\n",
        c.token_state_bits()
    ));
    out
}

/// A sanity cross-check the `tc-bench` CLI runs after every campaign: the
/// sum of the per-class bytes must equal the total for every run (guards
/// the traffic renderers against a class being silently dropped from
/// [`TrafficClass::ALL`]).
pub fn traffic_classes_cover_total(report: &CampaignReport) -> bool {
    report.runs.iter().all(|run| {
        let breakdown = run.report.traffic_breakdown();
        let sum: f64 = TrafficClass::ALL
            .iter()
            .map(|class| breakdown.class(*class))
            .sum();
        (sum - breakdown.total()).abs() < 1e-6
    })
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

/// One flag a subcommand accepts: `"--name VALUE"` (just `"--name"` for a
/// switch) and its help text.
pub type FlagSpec = (&'static str, &'static str);

/// The declaration of one `tc-bench` subcommand; its parser and its `--help`
/// text are both derived from it.
#[derive(Debug)]
pub struct Subcommand {
    /// What follows `tc-bench` on the command line, e.g. `submit <campaign>`.
    pub synopsis: &'static str,
    /// One line for the top-level usage.
    pub summary: &'static str,
    /// The paragraph under the usage line.
    pub about: &'static str,
    /// The flags it accepts.
    pub flags: &'static [FlagSpec],
}

impl Subcommand {
    /// The word that selects this subcommand.
    pub fn name(&self) -> &'static str {
        self.synopsis.split(' ').next().unwrap_or_default()
    }
}

/// `tc-bench <campaign>`: the one-shot campaign path, and the top-level usage.
pub const CAMPAIGN: Subcommand = Subcommand {
    synopsis: "<campaign>",
    summary: "",
    about: "Runs a named campaign through the multi-threaded campaign driver and\n\
            renders its tables; `tc-bench list` prints the catalog alone.",
    flags: &[
        (
            "--ops N",
            "memory operations per node (campaign-specific default)",
        ),
        (
            "--threads N",
            "campaign worker threads (default: all cores)",
        ),
        (
            "--workload NAME",
            "restrict figure campaigns to one workload",
        ),
        ("--protocol NAME", "keep only points of one protocol"),
        (
            "--faults SPEC",
            "inject faults, e.g. drop=0.01,dup=0.005,reorder=4,link=2-5@1000..5000\n\
             (points carrying their own spec, e.g. faultsweep's, keep it)",
        ),
        ("--json PATH", "write the campaign report as JSON"),
        (
            "--runs-json PATH",
            "write one NDJSON line per run (the campaign service's wire format)",
        ),
        (
            "--shards N",
            "run every point on the sharded PDES engine with N shards",
        ),
        (
            "--serial-baseline",
            "also run with one thread and assert the reports are bit-identical",
        ),
    ],
};

/// Every subcommand that is not a campaign name.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        synopsis: "run-one",
        summary: "one point run directly on the engine, with checkpoint/resume",
        about: "Runs one experiment point directly (no campaign driver), with optional\n\
                engine checkpointing, crash simulation, and resume-from-snapshot.",
        flags: &[
            ("--protocol NAME", "protocol (default: tokenb)"),
            ("--workload NAME", "workload profile (default: oltp)"),
            ("--nodes N", "node count (default: 4)"),
            ("--seed N", "seed (default: 12)"),
            ("--ops N", "memory operations per node (default: 20000)"),
            ("--max-cycles N", "cycle budget (default: 1000000000)"),
            ("--faults SPEC", "inject faults into the fabric"),
            (
                "--checkpoint-every N",
                "seal a snapshot every N delivered events",
            ),
            (
                "--checkpoint-dir DIR",
                "write snap-<events>.tcsnap + journal.tcj into DIR",
            ),
            (
                "--resume FILE",
                "restore FILE and run to completion instead of starting fresh",
            ),
            (
                "--crash-after K",
                "exit(42) right after sealing the K-th checkpoint (CI crash gate)",
            ),
            (
                "--report-out PATH",
                "write the final report (deterministic debug form; sharded runs\n\
                 write the determinism view) to PATH",
            ),
            (
                "--shards N",
                "run on the sharded PDES engine with N shards (clamped to the\n\
                 node count; incompatible with the checkpoint options)",
            ),
        ],
    },
    Subcommand {
        synopsis: "hunt",
        summary: "budgeted adversarial-schedule search for persistent-request pathologies",
        about: "Budgeted adversarial-schedule search: random probes over the\n\
                AdversarySpec knobs, then greedy mutation of the worst schedule found,\n\
                scored by the pathology objective (worst/p99 miss latency, reissue and\n\
                persistent-request pressure, completion skew). Deterministic in every\n\
                option: the same invocation always reports the same outcome. Any\n\
                verifier violation is shrunk to a minimal replay recipe and fails the\n\
                command.",
        flags: &[
            ("--protocol NAME", "protocol to attack (default: tokenb)"),
            (
                "--scenario NAME",
                "conformance scenario to perturb (default: hot_block_contention)",
            ),
            ("--seed N", "workload + probe seed (default: 44382)"),
            (
                "--budget N",
                "adversarial evaluations to spend (default: 24)",
            ),
            (
                "--ops N",
                "memory operations per node per evaluation (default: 200)",
            ),
            (
                "--smoke",
                "fixed CI configuration (seed 44382, budget 8, ops 150);\n\
                 rejects combining with the knobs above",
            ),
        ],
    },
    Subcommand {
        synopsis: "serve",
        summary: "host the resident campaign service",
        about: "Hosts the resident campaign service: submissions arrive as JSON over\n\
                HTTP, wait in a priority job queue, run on a worker pool, and stream\n\
                back as NDJSON — with a dedup result cache keyed on the full\n\
                determinism tuple, so repeated sweeps are free. Runs until a client\n\
                sends `tc-bench shutdown` (queued jobs finish first).",
        flags: &[
            (
                "--addr HOST:PORT",
                "bind address (default: 127.0.0.1:7533; port 0 picks one)",
            ),
            ("--workers N", "jobs simulated concurrently (default: 2)"),
            (
                "--cache PATH",
                "persist the result cache here across restarts",
            ),
        ],
    },
    Subcommand {
        synopsis: "submit <campaign>",
        summary: "expand a campaign and submit it to a running service",
        about: "Expands a campaign into explicit experiment points (exactly as the\n\
                one-shot path would run them) and submits it to a running\n\
                `tc-bench serve`, streaming each run line to stdout as it lands.",
        flags: &[
            CLIENT_ADDR,
            (
                "--priority LEVEL",
                "queue priority: low, normal, or high (default: normal)",
            ),
            (
                "--ops N",
                "memory operations per node (campaign-specific default)",
            ),
            (
                "--workload NAME",
                "restrict figure campaigns to one workload",
            ),
            ("--protocol NAME", "keep only points of one protocol"),
            ("--faults SPEC", "campaign-wide fault injection"),
            (
                "--runs-json PATH",
                "also write the streamed run lines to PATH",
            ),
        ],
    },
    Subcommand {
        synopsis: "status",
        summary: "print a running service's status page",
        about: "Prints the status page of a running `tc-bench serve`.",
        flags: &[CLIENT_ADDR],
    },
    Subcommand {
        synopsis: "shutdown",
        summary: "drain and stop a running service",
        about: "Asks a running `tc-bench serve` to finish its queued jobs, persist its\n\
                cache, and exit.",
        flags: &[CLIENT_ADDR],
    },
];

const CLIENT_ADDR: FlagSpec = (
    "--addr HOST:PORT",
    "service address (default: 127.0.0.1:7533)",
);

/// The campaign catalog, one `name  about` row each; `simulated_only` leaves
/// out `table1`, which the service cannot run (it is a static table).
pub fn render_catalog(simulated_only: bool) -> String {
    let listed = CAMPAIGNS
        .iter()
        .filter(|spec| !(simulated_only && spec.name == "table1"));
    listed
        .map(|spec| format!("  {:<14} {}\n", spec.name, spec.about))
        .collect()
}

/// The `--help` text of `sub`, generated from its declaration.
pub fn usage(sub: &Subcommand) -> String {
    let mut out = format!(
        "usage: tc-bench {} [options]\n\n{}\n",
        sub.synopsis, sub.about
    );
    if sub.synopsis.contains("<campaign>") {
        out.push_str("\ncampaigns:\n");
        out.push_str(&render_catalog(sub.name() == "submit"));
    }
    if sub.name() == CAMPAIGN.name() {
        out.push_str("\nsubcommands (`tc-bench <subcommand> --help` prints each one's options):\n");
        for other in SUBCOMMANDS {
            out.push_str(&format!("  {:<14} {}\n", other.name(), other.summary));
        }
    }
    out.push_str("\noptions:\n");
    for (flag, help) in sub.flags {
        let help = help.replace('\n', &format!("\n{:25}", ""));
        out.push_str(&format!("  {flag:<22} {help}\n"));
    }
    out
}

/// Every value a `tc-bench` flag can set, named after its flag; `None` or
/// `false` means the flag was not given. A subcommand only ever sees the
/// fields its [`Subcommand::flags`] list.
#[allow(missing_docs)]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    pub ops: Option<u64>,
    pub threads: Option<usize>,
    pub workload: Option<WorkloadProfile>,
    pub protocol: Option<ProtocolKind>,
    pub faults: Option<FaultSpec>,
    pub json: Option<String>,
    pub runs_json: Option<String>,
    pub shards: Option<u32>,
    pub serial_baseline: bool,
    pub nodes: Option<usize>,
    pub seed: Option<u64>,
    pub max_cycles: Option<u64>,
    pub checkpoint_every: Option<u64>,
    pub checkpoint_dir: Option<String>,
    pub resume: Option<String>,
    pub crash_after: Option<u64>,
    pub report_out: Option<String>,
    pub scenario: Option<String>,
    pub budget: Option<u64>,
    pub smoke: bool,
    pub addr: Option<String>,
    pub workers: Option<usize>,
    pub cache: Option<String>,
    pub priority: Option<JobPriority>,
}

/// A count: zero is never meaningful (no operations, no threads, no nodes).
fn positive(text: &str) -> Result<u64, String> {
    match text.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("expected a whole number of at least 1".to_string()),
    }
}

/// Parses and stores the value of the flag `name` — the one place a flag's
/// value is typed and range-checked, whichever subcommand accepts it.
fn set_flag(args: &mut Args, name: &str, text: &str) -> Result<(), String> {
    let owned = || Some(text.to_string());
    match name {
        "--ops" => args.ops = Some(positive(text)?),
        "--threads" => args.threads = Some(positive(text)? as usize),
        "--workload" => {
            args.workload = Some(WorkloadProfile::by_name(text).ok_or("unknown workload")?);
        }
        "--protocol" => {
            args.protocol = Some(ProtocolKind::by_name(text).ok_or("unknown protocol")?);
        }
        "--faults" => args.faults = Some(FaultSpec::parse(text).map_err(|e| e.to_string())?),
        "--json" => args.json = owned(),
        "--runs-json" => args.runs_json = owned(),
        "--shards" => {
            args.shards = Some(u32::try_from(positive(text)?).map_err(|_| "too many shards")?);
        }
        "--serial-baseline" => args.serial_baseline = true,
        // Range-checked with the rest of the configuration, by `validate`.
        "--nodes" => args.nodes = Some(text.parse().map_err(|_| "expected a whole number")?),
        "--seed" => args.seed = Some(text.parse().map_err(|_| "expected a whole number")?),
        "--max-cycles" => args.max_cycles = Some(positive(text)?),
        "--checkpoint-every" => args.checkpoint_every = Some(positive(text)?),
        "--checkpoint-dir" => args.checkpoint_dir = owned(),
        "--resume" => args.resume = owned(),
        "--crash-after" => args.crash_after = Some(positive(text)?),
        "--report-out" => args.report_out = owned(),
        "--scenario" => {
            tc_testkit::Scenario::by_name(text).ok_or("unknown scenario")?;
            args.scenario = owned();
        }
        "--budget" => args.budget = Some(positive(text)?),
        "--smoke" => args.smoke = true,
        "--addr" => args.addr = owned(),
        "--workers" => args.workers = Some(positive(text)? as usize),
        "--cache" => args.cache = owned(),
        "--priority" => {
            args.priority = Some(JobPriority::by_name(text).ok_or("unknown priority")?);
        }
        _ => unreachable!("{name} is declared in a Subcommand but has no parser"),
    }
    Ok(())
}

/// Parses the flags of `sub`; `Ok(None)` means `--help` was asked for.
fn parse_flags(sub: &Subcommand, argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut words = argv.iter();
    while let Some(name) = words.next() {
        if name == "--help" || name == "-h" {
            return Ok(None);
        }
        let mut declared = sub.flags.iter().map(|flag| flag.0);
        let Some(flag) = declared.find(|f| f.split(' ').next() == Some(name.as_str())) else {
            return Err(format!("unknown option: {name}"));
        };
        let text = if flag.contains(' ') {
            let value = words.next();
            value.ok_or_else(|| format!("{name} requires a value"))?
        } else {
            ""
        };
        set_flag(&mut args, name, text).map_err(|e| format!("bad {name} value `{text}`: {e}"))?;
    }
    if args.checkpoint_every.is_some() && args.checkpoint_dir.is_none() {
        return Err("--checkpoint-every requires --checkpoint-dir".to_string());
    }
    if args.crash_after.is_some() && args.checkpoint_every.is_none() {
        return Err("--crash-after requires --checkpoint-every".to_string());
    }
    // The sharded engine has no snapshot plane; a CLI error beats the
    // engine's own panic.
    if args.shards.is_some() && (args.checkpoint_every.is_some() || args.resume.is_some()) {
        return Err("--shards is incompatible with --checkpoint-every/--resume".to_string());
    }
    let tuned = args.protocol.is_some()
        || args.scenario.is_some()
        || args.seed.is_some()
        || args.budget.is_some()
        || args.ops.is_some();
    if args.smoke && tuned {
        return Err("--smoke fixes every knob; drop the other options".to_string());
    }
    Ok(Some(args))
}

/// A campaign resolved to exactly what will run: the one expansion the
/// one-shot path and `submit` share, so the two cannot drift apart.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// The catalog entry.
    pub spec: &'static CampaignSpec,
    /// Its sections, after the `--workload`/`--protocol` filters.
    pub sections: Vec<Section>,
    /// The run options every point starts from.
    pub options: RunOptions,
}

impl CampaignPlan {
    /// The flattened point list, in the order it runs and is reported.
    pub fn points(&self) -> Vec<ExperimentPoint> {
        let sections = self.sections.iter();
        sections.flat_map(|s| s.points.iter().cloned()).collect()
    }
}

/// Expands `spec` under `args` into a plan, or says why it cannot be run.
fn plan_campaign(spec: &'static CampaignSpec, args: &Args) -> Result<CampaignPlan, String> {
    // Only the figure campaigns iterate workloads; rejecting --workload
    // elsewhere beats silently running all three commercial profiles.
    if args.workload.is_some() && !spec.name.starts_with("fig") {
        return Err(format!(
            "--workload applies only to the figure campaigns; {} runs a fixed workload set",
            spec.name
        ));
    }
    // The scalability renderer compares fixed protocol columns, so a
    // filtered run would print NaN columns.
    if args.protocol.is_some() && spec.name == "scalability" {
        return Err(
            "--protocol does not apply to scalability (its table compares protocols)".to_string(),
        );
    }
    let mut sections = campaign_sections(spec.name, args.workload.as_ref())
        .ok_or("table1 is a static parameter table; nothing to simulate")?;
    if let Some(protocol) = args.protocol {
        for section in &mut sections {
            section.points.retain(|p| p.config.protocol == protocol);
        }
        sections.retain(|s| !s.points.is_empty());
        if sections.is_empty() {
            return Err("no points left after --protocol filter".to_string());
        }
    }
    let standard = RunOptions::standard();
    let mut options = match spec.name {
        "sweep64" => RunOptions::sweep64(),
        // The 64-node points are large; the shorter default lets a bare
        // `tc-bench scalability` finish in minutes.
        "scalability" => RunOptions {
            ops_per_node: standard.ops_per_node.min(6_000),
            ..standard
        },
        _ => standard,
    };
    if let Some(ops) = args.ops {
        options.ops_per_node = ops;
    }
    // Campaign-wide fault injection; a point carrying its own spec (the
    // faultsweep catalog's per-class points) overrides this at run time.
    if let Some(faults) = args.faults {
        options.faults = faults;
    }
    if let Some(shards) = args.shards {
        options = options.with_shards(shards);
    }
    Ok(CampaignPlan {
        spec,
        sections,
        options,
    })
}

/// `tc-bench run-one`, resolved: one validated point plus where its
/// checkpoints and report go.
#[derive(Debug, Clone)]
pub struct RunOnePlan {
    /// The (validated) system to build.
    pub config: SystemConfig,
    /// The workload to run on it.
    pub workload: WorkloadProfile,
    /// Operation count, cycle budget, faults, checkpoint cadence, shards.
    pub options: RunOptions,
    /// Where `snap-<events>.tcsnap` and `journal.tcj` are written.
    pub checkpoint_dir: Option<String>,
    /// The snapshot to restore instead of starting fresh.
    pub resume: Option<String>,
    /// Exit with status 42 right after sealing this many checkpoints.
    pub crash_after: Option<u64>,
    /// Where the final report is written.
    pub report_out: Option<String>,
}

fn plan_run_one(args: Args) -> Result<RunOnePlan, String> {
    let config = SystemConfig::isca03_default()
        .with_nodes(args.nodes.unwrap_or(4))
        .with_protocol(args.protocol.unwrap_or(ProtocolKind::TokenB))
        .with_seed(args.seed.unwrap_or(12));
    config.validate().map_err(|e| e.to_string())?;
    let mut options = RunOptions {
        ops_per_node: args.ops.unwrap_or(20_000),
        max_cycles: args.max_cycles.unwrap_or(1_000_000_000),
        ..RunOptions::default()
    };
    if let Some(faults) = args.faults {
        options.faults = faults;
    }
    if let Some(every) = args.checkpoint_every {
        options = options.with_checkpoint_every(every);
    }
    if let Some(shards) = args.shards {
        options = options.with_shards(shards);
    }
    Ok(RunOnePlan {
        config,
        workload: args.workload.unwrap_or_else(WorkloadProfile::oltp),
        options,
        checkpoint_dir: args.checkpoint_dir,
        resume: args.resume,
        crash_after: args.crash_after,
        report_out: args.report_out,
    })
}

/// What a `tc-bench` invocation asks for, fully validated.
// One value exists per process, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Command {
    /// Print this usage text on stdout and exit 0.
    Help(String),
    /// Print the campaign catalog.
    List,
    /// Print Table 1 (no simulation).
    Table1,
    /// Run a campaign here; `Args` carries `threads`, the output paths and
    /// `serial_baseline`.
    Campaign(CampaignPlan, Args),
    /// Send `submission` to the service at `addr`, streaming run lines to
    /// stdout and, when set, to `runs_json`.
    Submit {
        /// The service's address.
        addr: String,
        /// The expanded campaign, exactly as the one-shot path would run it.
        submission: Submission,
        /// Where to also write the streamed run lines.
        runs_json: Option<String>,
    },
    /// Run one point directly on the engine.
    RunOne(RunOnePlan),
    /// Search for adversarial schedules.
    Hunt(HuntOptions),
    /// Host the campaign service.
    Serve(ServeOptions),
    /// Print the status page of the service at this address.
    Status(String),
    /// Drain and stop the service at this address.
    Shutdown(String),
}

/// Parses everything after `tc-bench` into a [`Command`]. An `Err` is a
/// usage error — the message followed by the subcommand's usage text — for
/// the caller to print on stderr before exiting with status 2.
pub fn parse_cli(argv: &[String]) -> Result<Command, String> {
    let Some((first, mut rest)) = argv.split_first() else {
        return Ok(Command::Help(usage(&CAMPAIGN)));
    };
    match first.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help(usage(&CAMPAIGN))),
        "list" => return Ok(Command::List),
        _ => {}
    }
    let sub = SUBCOMMANDS.iter().find(|s| s.name() == first);
    let sub = sub.unwrap_or(&CAMPAIGN);
    let usage_error = |message: String| format!("{message}\n\n{}", usage(sub));
    // The campaign name: the first word itself, or `submit`'s positional.
    let campaign = match sub.name() {
        "<campaign>" => Some(first),
        "submit" => match rest.split_first() {
            None => return Ok(Command::Help(usage(sub))),
            Some((name, flags)) if !name.starts_with('-') => {
                rest = flags;
                Some(name)
            }
            Some(_) => None,
        },
        _ => None,
    };
    let unknown = |name: &String| usage_error(format!("unknown campaign: {name}"));
    let spec = campaign
        .map(|name| resolve_campaign(name).ok_or_else(|| unknown(name)))
        .transpose()?;
    let Some(args) = parse_flags(sub, rest).map_err(usage_error)? else {
        return Ok(Command::Help(usage(sub)));
    };
    // One default address, for the server and its clients alike.
    let serve_defaults = ServeOptions::default();
    let addr = args.addr.clone().unwrap_or(serve_defaults.addr);
    let command = match (sub.name(), spec) {
        ("<campaign>", Some(spec)) if spec.name == "table1" => Ok(Command::Table1),
        ("<campaign>", Some(spec)) => {
            plan_campaign(spec, &args).map(|plan| Command::Campaign(plan, args))
        }
        ("submit", Some(spec)) => plan_campaign(spec, &args).map(|plan| Command::Submit {
            addr,
            submission: Submission {
                priority: args.priority.unwrap_or_default(),
                options: plan.options,
                points: plan.points(),
            },
            runs_json: args.runs_json,
        }),
        ("submit", None) => Err("submit needs a campaign name".to_string()),
        ("run-one", _) => plan_run_one(args).map(Command::RunOne),
        ("hunt", _) => {
            let mut defaults = HuntOptions::default();
            if args.smoke {
                // The CI configuration: small, fast, and pinned. CI runs it
                // twice and diffs the stdout.
                defaults.budget = 8;
                defaults.ops_per_node = 150;
            }
            Ok(Command::Hunt(HuntOptions {
                protocol: args.protocol.unwrap_or(defaults.protocol),
                scenario: args.scenario.unwrap_or(defaults.scenario),
                seed: args.seed.unwrap_or(defaults.seed),
                budget: args.budget.unwrap_or(defaults.budget),
                ops_per_node: args.ops.unwrap_or(defaults.ops_per_node),
            }))
        }
        ("serve", _) => Ok(Command::Serve(ServeOptions {
            addr,
            workers: args.workers.unwrap_or(serve_defaults.workers),
            cache_path: args.cache.map(Into::into),
        })),
        ("status", _) => Ok(Command::Status(addr)),
        ("shutdown", _) => Ok(Command::Shutdown(addr)),
        (name, _) => unreachable!("subcommand {name} is declared but not dispatched"),
    };
    command.map_err(usage_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_system::campaign::Campaign;
    use tc_system::RunOptions;

    #[test]
    fn every_retired_binary_resolves_to_a_campaign() {
        for name in [
            "table1",
            "table2",
            "fig4_runtime",
            "fig4_traffic",
            "fig5_runtime",
            "fig5_traffic",
            "scalability",
            "sweep64",
        ] {
            assert!(resolve_campaign(name).is_some(), "{name} must resolve");
        }
        assert!(resolve_campaign("FIG4-RUNTIME").is_some());
        assert!(resolve_campaign("nope").is_none());
    }

    #[test]
    fn figure_campaigns_have_one_section_per_commercial_workload() {
        let sections = campaign_sections("fig4-runtime", None).unwrap();
        assert_eq!(sections.len(), 3);
        assert!(sections.iter().all(|s| s.table == TableKind::Runtime));
        assert_eq!(sections[0].points.len(), 6);
        let only = WorkloadProfile::oltp();
        let restricted = campaign_sections("fig5-traffic", Some(&only)).unwrap();
        assert_eq!(restricted.len(), 1);
        assert!(restricted[0].title.contains("OLTP"));
    }

    #[test]
    fn scalability_sections_follow_the_node_counts() {
        let sections = campaign_sections("scalability", None).unwrap();
        assert_eq!(sections.len(), SCALABILITY_NODE_COUNTS.len());
        for (section, nodes) in sections.iter().zip(SCALABILITY_NODE_COUNTS) {
            assert!(section.points.iter().all(|p| p.config.num_nodes == nodes));
        }
    }

    #[test]
    fn faultsweep_resolves_and_gates_points_per_protocol() {
        assert!(resolve_campaign("faultsweep").is_some());
        assert!(resolve_campaign("faults").is_some());
        let sections = campaign_sections("faultsweep", None).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].table, TableKind::Fault);
        let points = &sections[0].points;
        // TokenB takes a baseline + all five classes + combined; the
        // unordered baselines take baseline + three classes + combined.
        assert_eq!(points.len(), 7 + 5 + 5);
        // Every non-baseline point carries only classes its protocol
        // tolerates.
        for point in points {
            for kind in tc_types::FaultKind::ALL {
                if point.faults.enables(kind) {
                    assert!(
                        point.config.protocol.tolerates(kind),
                        "{}: injects untolerated class {kind:?}",
                        point.label
                    );
                }
            }
        }
    }

    #[test]
    fn fault_table_renders_stats_and_verdicts() {
        let mut points = tc_system::experiment::faultsweep_points();
        points.retain(|p| p.label.starts_with("TokenB"));
        points.truncate(2); // baseline + drop
        let report = Campaign::new(points)
            .options(RunOptions {
                ops_per_node: 300,
                max_cycles: 50_000_000,
                ..RunOptions::default()
            })
            .threads(1)
            .run();
        assert!(report.verified().is_ok());
        let table = render_fault_table(&report);
        assert!(table.contains("TokenB (reliable)"));
        assert!(table.contains("persistent"));
        assert!(table.contains("ok"));
        assert!(!table.contains("VIOLATED"));
    }

    #[test]
    fn table1_renders_the_parameter_table() {
        let text = render_table1();
        assert!(text.contains("Table 1"));
        assert!(text.contains("tokens per block"));
        assert!(text.contains("3.2 GB/s"));
    }

    #[test]
    fn reissue_and_scalability_renderers_work_on_real_reports() {
        let mut points = table2_points();
        points.truncate(1);
        points[0].config = points[0].config.clone().with_nodes(4);
        points[0].config.l2.size_bytes = 256 * 1024;
        let report = Campaign::new(points)
            .options(RunOptions {
                ops_per_node: 400,
                max_cycles: 50_000_000,
                ..RunOptions::default()
            })
            .threads(1)
            .run();
        assert!(report.verified().is_ok());
        let reissue = render_reissue_table(&report);
        assert!(reissue.contains("Average"));
        assert!(traffic_classes_cover_total(&report));
        let scal = render_scalability_table(&[(4, report)]);
        assert!(scal.contains("TokenB/Dir"));
    }

    fn cli(line: &str) -> Result<Command, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_cli(&argv)
    }

    /// The whole command line as one table: `Ok` rows list fragments the
    /// parsed command's `Debug` form must contain, `Err` rows the text the
    /// usage error must start with.
    #[test]
    fn command_lines_parse_to_commands_or_usage_errors() {
        #[rustfmt::skip]
        let table: &[(&str, Result<&[&str], &str>)] = &[
            // Usage: the top level, and --help / -h on every subcommand.
            ("", Ok(&["Help(", "usage: tc-bench <campaign>", "run-one", "shutdown"])),
            ("help", Ok(&["usage: tc-bench <campaign>"])),
            ("--help", Ok(&["usage: tc-bench <campaign>"])),
            ("-h", Ok(&["usage: tc-bench <campaign>"])),
            ("table2 --help", Ok(&["Help(", "usage: tc-bench <campaign>", "--serial-baseline"])),
            ("table1 -h", Ok(&["Help(", "usage: tc-bench <campaign>"])),
            ("run-one --help", Ok(&["Help(", "usage: tc-bench run-one", "--crash-after K"])),
            ("run-one --nodes 8 -h", Ok(&["Help(", "usage: tc-bench run-one"])),
            ("hunt --help", Ok(&["Help(", "usage: tc-bench hunt", "--smoke"])),
            ("serve --help", Ok(&["Help(", "usage: tc-bench serve", "--workers N"])),
            ("submit", Ok(&["Help(", "usage: tc-bench submit <campaign>"])),
            ("submit --help", Ok(&["Help(", "usage: tc-bench submit <campaign>", "--priority"])),
            ("submit table2 -h", Ok(&["Help(", "usage: tc-bench submit <campaign>"])),
            ("status --help", Ok(&["Help(", "usage: tc-bench status", "--addr HOST:PORT"])),
            ("shutdown --help", Ok(&["Help(", "usage: tc-bench shutdown", "--addr HOST:PORT"])),
            // Every subcommand's flags.
            ("list", Ok(&["List"])),
            ("table1", Ok(&["Table1"])),
            ("table2", Ok(&["Campaign(", "name: \"table2\"", "threads: None", "shards: 0 }"])),
            ("fig5b --ops 5", Ok(&["name: \"fig5-traffic\"", "ops_per_node: 5,"])),
            ("fig5-traffic --ops 400 --threads 2 --workload oltp --protocol tokenb \
              --faults drop=0.01 --json a.json --runs-json b.ndjson --shards 2 --serial-baseline",
             Ok(&["Campaign(", "ops_per_node: 400,", "threads: Some(2)", "Workload: OLTP",
                  "json: Some(\"a.json\")", "runs_json: Some(\"b.ndjson\")", "shards: 2 }",
                  "serial_baseline: true"])),
            ("sweep64 --shards 4", Ok(&["name: \"sweep64\"", "shards: 4 }"])),
            ("run-one", Ok(&["RunOne(", "num_nodes: 4,", "protocol: TokenB", "seed: 12 }",
                             "ops_per_node: 20000,", "max_cycles: 1000000000,", "shards: 0 }",
                             "checkpoint_every: None", "resume: None"])),
            ("run-one --protocol directory --workload apache --nodes 8 --seed 3 --ops 50 \
              --max-cycles 9000 --faults drop=0.01 --checkpoint-every 100 --checkpoint-dir d \
              --crash-after 2 --report-out r.txt",
             Ok(&["protocol: Directory", "name: \"Apache\"", "num_nodes: 8,", "seed: 3 }",
                  "ops_per_node: 50,", "max_cycles: 9000,", "checkpoint_every: Some(100)",
                  "checkpoint_dir: Some(\"d\")", "crash_after: Some(2)",
                  "report_out: Some(\"r.txt\")"])),
            ("run-one --resume s.tcsnap", Ok(&["resume: Some(\"s.tcsnap\")"])),
            ("run-one --shards 4", Ok(&["shards: 4 }"])),
            ("hunt", Ok(&["Hunt(", "seed: 44382,", "budget: 24,", "ops_per_node: 200"])),
            ("hunt --protocol hammer --scenario migratory_ring --seed 9 --budget 3 --ops 70",
             Ok(&["protocol: Hammer", "scenario: \"migratory_ring\"", "seed: 9,", "budget: 3,",
                  "ops_per_node: 70"])),
            ("hunt --smoke", Ok(&["seed: 44382,", "budget: 8,", "ops_per_node: 150"])),
            ("serve", Ok(&["Serve(", "addr: \"127.0.0.1:7533\"", "workers: 2,", "cache_path: None"])),
            ("serve --addr 0.0.0.0:9 --workers 5 --cache c.snap",
             Ok(&["addr: \"0.0.0.0:9\"", "workers: 5,", "cache_path: Some(\"c.snap\")"])),
            ("submit table2", Ok(&["Submit {", "addr: \"127.0.0.1:7533\"", "priority: Normal",
                                   "runs_json: None"])),
            ("submit fig4a --addr h:1 --priority high --ops 9 --workload specjbb \
              --protocol snooping --faults dup=0.5 --runs-json s.ndjson",
             Ok(&["addr: \"h:1\"", "priority: High", "ops_per_node: 9,", "protocol: Snooping",
                  "runs_json: Some(\"s.ndjson\")"])),
            ("status", Ok(&["Status(\"127.0.0.1:7533\")"])),
            ("status --addr h:2", Ok(&["Status(\"h:2\")"])),
            ("shutdown --addr h:3", Ok(&["Shutdown(\"h:3\")"])),
            // A missing value, an unknown flag, a flag of another subcommand.
            ("table2 --ops", Err("--ops requires a value")),
            ("status --addr", Err("--addr requires a value")),
            ("table2 --bogus", Err("unknown option: --bogus")),
            ("run-one --threads 2", Err("unknown option: --threads")),
            ("submit table2 --shards 2", Err("unknown option: --shards")),
            ("status --bogus", Err("unknown option: --bogus")),
            ("shutdown --bogus", Err("unknown option: --bogus")),
            // Each numeric flag's zero and garbage; each name that must resolve.
            ("table2 --ops 0", Err("bad --ops value `0`: expected a whole number of at least 1")),
            ("run-one --ops 0", Err("bad --ops value `0`")),
            ("hunt --ops 0", Err("bad --ops value `0`")),
            ("submit table2 --ops 0", Err("bad --ops value `0`")),
            ("table2 --ops many", Err("bad --ops value `many`")),
            ("table2 --threads 0", Err("bad --threads value `0`")),
            ("table2 --threads -1", Err("bad --threads value `-1`")),
            ("table2 --shards 0", Err("bad --shards value `0`")),
            ("run-one --shards 99999999999", Err("bad --shards value `99999999999`: too many")),
            ("run-one --nodes 0", Err("invalid configuration: system must have at least one node")),
            ("run-one --nodes x", Err("bad --nodes value `x`")),
            ("run-one --seed x", Err("bad --seed value `x`")),
            ("run-one --max-cycles 0", Err("bad --max-cycles value `0`")),
            ("run-one --checkpoint-dir d --checkpoint-every 0", Err("bad --checkpoint-every value")),
            ("run-one --crash-after 0", Err("bad --crash-after value `0`")),
            ("hunt --budget 0", Err("bad --budget value `0`")),
            ("serve --workers 0", Err("bad --workers value `0`")),
            ("table2 --protocol mesi", Err("bad --protocol value `mesi`: unknown protocol")),
            ("fig4a --workload tpcc", Err("bad --workload value `tpcc`: unknown workload")),
            ("hunt --scenario nope", Err("bad --scenario value `nope`: unknown scenario")),
            ("submit table2 --priority urgent", Err("bad --priority value `urgent`")),
            ("table2 --faults drop=2", Err("bad --faults value `drop=2`")),
            // The cross-flag rules.
            ("run-one --checkpoint-every 5", Err("--checkpoint-every requires --checkpoint-dir")),
            ("run-one --crash-after 1", Err("--crash-after requires --checkpoint-every")),
            ("run-one --shards 2 --checkpoint-every 5 --checkpoint-dir d",
             Err("--shards is incompatible with --checkpoint-every/--resume")),
            ("run-one --shards 2 --resume s", Err("--shards is incompatible")),
            ("hunt --smoke --seed 3", Err("--smoke fixes every knob")),
            ("hunt --ops 9 --smoke", Err("--smoke fixes every knob")),
            ("table2 --workload oltp", Err("--workload applies only to the figure campaigns")),
            ("submit sweep64 --workload oltp", Err("--workload applies only to the figure")),
            ("scalability --protocol tokenb", Err("--protocol does not apply to scalability")),
            ("submit scalability --protocol tokenb", Err("--protocol does not apply to scal")),
            ("fig4a --protocol hammer", Err("no points left after --protocol filter")),
            // Campaign names.
            ("bogus", Err("unknown campaign: bogus")),
            ("bogus --help", Err("unknown campaign: bogus")),
            ("submit bogus", Err("unknown campaign: bogus")),
            ("submit --addr h:1", Err("submit needs a campaign name")),
            ("submit table1", Err("table1 is a static parameter table")),
        ];
        for (line, expected) in table {
            match (cli(line), expected) {
                (Ok(command), Ok(fragments)) => {
                    let debug = format!("{command:?}");
                    for fragment in *fragments {
                        assert!(
                            debug.contains(fragment),
                            "`{line}`: no {fragment:?} in {debug}"
                        );
                    }
                }
                (Err(error), Err(prefix)) => {
                    assert!(error.starts_with(prefix), "`{line}`: {error}");
                    let sub = line.split(' ').next().unwrap();
                    let sub = SUBCOMMANDS.iter().find(|s| s.name() == sub);
                    let usage = usage(sub.unwrap_or(&CAMPAIGN));
                    assert!(
                        error.ends_with(&format!("\n\n{usage}")),
                        "`{line}`: {error}"
                    );
                }
                (got, want) => panic!("`{line}`: expected {want:?}, got {got:?}"),
            }
        }
        // Every declared flag is one the table above exercised a parser for.
        for sub in SUBCOMMANDS.iter().chain([&CAMPAIGN]) {
            for (flag, help) in sub.flags {
                let name = flag.split(' ').next().unwrap();
                let _ = set_flag(&mut Args::default(), name, "1");
                assert!(!help.is_empty(), "{} {name} has no help", sub.name());
            }
        }
    }

    /// The byte-identity CI gate (served stream == one-shot `--runs-json`)
    /// rests on `submit` sending exactly the points, under exactly the run
    /// options, that the one-shot path runs.
    #[test]
    fn submit_sends_exactly_what_the_one_shot_path_runs() {
        for spec in CAMPAIGNS {
            let mut flags = String::from("--ops 200 --faults drop=0.01");
            if spec.name.starts_with("fig") {
                flags.push_str(" --workload oltp");
            }
            if spec.name != "scalability" {
                flags.push_str(" --protocol tokenb");
            }
            let one_shot = cli(&format!("{} {flags}", spec.name));
            let submitted = cli(&format!("submit {} {flags}", spec.name));
            if spec.name == "table1" {
                assert!(matches!(one_shot, Ok(Command::Table1)));
                assert!(submitted.is_err());
                continue;
            }
            let (Ok(Command::Campaign(plan, _)), Ok(Command::Submit { submission, .. })) =
                (one_shot, submitted)
            else {
                panic!("{}: both paths must expand", spec.name);
            };
            assert_eq!(plan.options, submission.options, "{}", spec.name);
            assert_eq!(plan.options.ops_per_node, 200);
            let (ran, sent) = (plan.points(), submission.points);
            assert!(!ran.is_empty());
            assert_eq!(ran.len(), sent.len(), "{}", spec.name);
            for (a, b) in ran.iter().zip(&sent) {
                assert_eq!(a.label, b.label, "{}", spec.name);
                assert_eq!(a.config, b.config, "{}: {}", spec.name, a.label);
                assert_eq!(a.workload, b.workload, "{}: {}", spec.name, a.label);
                assert_eq!(a.faults, b.faults, "{}: {}", spec.name, a.label);
            }
        }
    }
}
