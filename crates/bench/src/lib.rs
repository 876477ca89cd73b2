//! The `tc-bench` experiment CLI as a library: the campaign catalog, what a
//! campaign prints, and the command-line parser.
//!
//! One binary, `tc-bench`, resolves *named campaigns* — each regenerating a
//! table or figure of the paper's evaluation — from [`CAMPAIGNS`], where
//! a campaign is one row (its points from `tc_system::experiment`, its
//! run length, its tables from `tc_system::table`), and executes them
//! through the multi-threaded `tc_system::Campaign` driver:
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
use tc_system::campaign::CampaignRun;
use tc_system::experiment::{
    faultsweep_points, figure4a_points, figure4b_points, figure5a_points, figure5b_points,
    scalability_points, sweep64_points, table2_points, ExperimentPoint,
};
use tc_system::table::{Table, FAULT, MISS_LATENCY, REISSUE, RUNTIME, TRAFFIC};
use tc_system::RunOptions;
use tc_testkit::HuntOptions;
use tc_types::{FaultSpec, JobPriority, ProtocolKind, SystemConfig};
use tc_workloads::WorkloadProfile;

/// One slice of a campaign: a title plus the points it runs.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section heading, e.g. `"Workload: OLTP"`.
    pub title: String,
    /// The experiment points of this section.
    pub points: Vec<ExperimentPoint>,
}

/// The sections of a campaign that ran, each with its slice of the runs.
pub type SectionRuns<'a> = [(&'a Section, &'a [CampaignRun])];

/// A named campaign: one row of the `tc-bench` catalog, and everything
/// that is particular to the campaign.
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
    /// The run options every point starts from (the default run length).
    pub options: fn() -> RunOptions,
    /// Builds the sections, for one workload if the campaign iterates
    /// workloads and the user named one. A campaign with no sections
    /// simulates nothing: its output is its `summary` alone.
    pub sections: fn(Option<&WorkloadProfile>) -> Vec<Section>,
    /// The tables printed from each section's runs, each under its own
    /// title; an empty title stands for the section's.
    pub tables: &'static [(&'static Table, &'static str)],
    /// Whether `--workload` applies (the campaign iterates workloads).
    pub takes_workload: bool,
    /// Whether `--protocol` applies (no table needs every protocol's run).
    pub takes_protocol: bool,
    /// What is printed after the sections' tables, from all sections at once.
    pub summary: Option<fn(&SectionRuns<'_>) -> String>,
}

/// One section per commercial workload (or just `only`), titled after it.
fn per_workload(
    only: Option<&WorkloadProfile>,
    points: fn(&WorkloadProfile) -> Vec<ExperimentPoint>,
) -> Vec<Section> {
    let workloads = only.map_or_else(WorkloadProfile::commercial, |w| vec![w.clone()]);
    let section = |w: &WorkloadProfile| Section {
        title: format!("Workload: {}", w.name),
        points: points(w),
    };
    workloads.iter().map(section).collect()
}

/// A campaign of one section.
fn one_section(title: &str, points: Vec<ExperimentPoint>) -> Vec<Section> {
    let title = title.to_string();
    vec![Section { title, points }]
}

/// The campaign catalog: every table and figure of the evaluation plus the
/// scale sweep and the fault sweep.
pub const CAMPAIGNS: &[CampaignSpec] = &[
    CampaignSpec {
        name: "table1",
        aliases: &[],
        about: "Table 1: target system parameters (no simulation)",
        paper_note: "",
        options: RunOptions::standard,
        sections: |_| Vec::new(),
        tables: &[],
        takes_workload: false,
        takes_protocol: true,
        summary: Some(render_table1),
    },
    CampaignSpec {
        name: "table2",
        aliases: &[],
        about: "Table 2: TokenB reissue / persistent request rates per commercial workload",
        paper_note: "Paper reports (Table 2): Apache 95.75 / 3.25 / 0.71 / 0.29, OLTP 97.57 / \
                     1.79 / 0.43 / 0.21, SPECjbb 97.60 / 2.03 / 0.30 / 0.07, average 96.97 / \
                     2.36 / 0.48 / 0.19.",
        options: RunOptions::standard,
        sections: |_| {
            let title = "Table 2: overhead due to reissued requests (TokenB, 16-node torus)";
            one_section(title, table2_points())
        },
        tables: &[(&REISSUE, "")],
        takes_workload: false,
        takes_protocol: true,
        summary: None,
    },
    CampaignSpec {
        name: "fig4-runtime",
        aliases: &["fig4_runtime", "fig4a"],
        about: "Figure 4a: runtime of Snooping (tree) vs TokenB (tree and torus)",
        paper_note: "Paper reports (Figure 4a): with the same tree interconnect Snooping is 1-5% \
                     faster than TokenB (reissues); by exploiting the unordered torus, TokenB \
                     becomes 26-65% faster than Snooping-on-Tree with 3.2 GB/s links and 15-28% \
                     faster with unlimited bandwidth.",
        options: RunOptions::standard,
        sections: |only| per_workload(only, figure4a_points),
        tables: &[(&RUNTIME, "")],
        takes_workload: true,
        takes_protocol: true,
        summary: None,
    },
    CampaignSpec {
        name: "fig4-traffic",
        aliases: &["fig4_traffic", "fig4b"],
        about: "Figure 4b: traffic (bytes/miss) of TokenB vs Snooping",
        paper_note: "Paper reports (Figure 4b): TokenB and Snooping use approximately the same \
                     interconnect bandwidth; data responses and writebacks dominate both, with \
                     broadcast requests a modest additional component for TokenB (plus a small \
                     sliver of reissued requests).",
        options: RunOptions::standard,
        sections: |only| per_workload(only, figure4b_points),
        tables: &[(&TRAFFIC, "")],
        takes_workload: true,
        takes_protocol: true,
        summary: None,
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
        options: RunOptions::standard,
        sections: |only| per_workload(only, figure5a_points),
        tables: &[(&RUNTIME, "")],
        takes_workload: true,
        takes_protocol: true,
        summary: None,
    },
    CampaignSpec {
        name: "fig5-traffic",
        aliases: &["fig5_traffic", "fig5b"],
        about: "Figure 5b: traffic (bytes/miss) of TokenB vs Hammer vs Directory",
        paper_note: "Paper reports (Figure 5b): Directory uses 21-25% less traffic than TokenB \
                     (both are dominated by 72-byte data messages), while Hammer uses 79-90% more \
                     than TokenB because every miss broadcasts probes and collects an \
                     acknowledgement from every node.",
        options: RunOptions::standard,
        sections: |only| per_workload(only, figure5b_points),
        tables: &[(&TRAFFIC, "")],
        takes_workload: true,
        takes_protocol: true,
        summary: None,
    },
    CampaignSpec {
        name: "scalability",
        aliases: &["question5"],
        about: "Question 5: TokenB vs Directory vs Hammer traffic at 16/32/64 nodes",
        paper_note: "Paper reports: TokenB's broadcast limits scalability — at 64 processors it \
                     uses roughly twice the interconnect bandwidth of Directory (but far less \
                     than Hammer, whose acknowledgement storm grows fastest). TokenB remains \
                     practical to perhaps 32-64 processors when bandwidth is plentiful.",
        // The 64-node points are large; the shorter default lets a bare
        // `tc-bench scalability` finish in minutes.
        options: || RunOptions {
            ops_per_node: 6_000,
            ..RunOptions::standard()
        },
        sections: |_| {
            let section = |nodes| Section {
                title: format!("{nodes} nodes"),
                points: scalability_points(nodes),
            };
            [16, 32, 64].map(section).into()
        },
        // Nothing per node count: the pivot over all three is the summary.
        tables: &[],
        takes_workload: false,
        // The pivot compares fixed protocol columns; a filtered run would
        // print NaN columns.
        takes_protocol: false,
        summary: Some(scalability_pivot),
    },
    CampaignSpec {
        name: "sweep64",
        aliases: &["sweep"],
        about: "64-node scale sweep (every protocol on every legal topology, contended OLTP)",
        paper_note: "",
        options: RunOptions::sweep64,
        sections: |_| {
            let title = "64-node scale sweep (contended OLTP, every legal protocol/topology)";
            one_section(title, sweep64_points())
        },
        tables: &[
            (&RUNTIME, ""),
            (&TRAFFIC, "Traffic (bytes/miss)"),
            (&MISS_LATENCY, "Miss latency summary"),
        ],
        takes_workload: false,
        takes_protocol: true,
        summary: None,
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
        options: RunOptions::standard,
        sections: |_| {
            let title = "Fault sweep: contract-gated injection, contended hot-block, 4-node torus";
            one_section(title, faultsweep_points())
        },
        tables: &[(&FAULT, "")],
        takes_workload: false,
        takes_protocol: true,
        summary: None,
    },
];

/// Resolves a campaign by name or alias, ignoring case and treating `-`/`_`
/// as equivalent. The one place a campaign name is compared.
pub fn resolve_campaign(name: &str) -> Option<&'static CampaignSpec> {
    let normalize = |s: &str| s.replace(['-', '_'], "").to_ascii_lowercase();
    let wanted = normalize(name);
    CAMPAIGNS.iter().find(|spec| {
        normalize(spec.name) == wanted || spec.aliases.iter().any(|a| normalize(a) == wanted)
    })
}

/// The `scalability` summary, Question 5's comparison: one row per section
/// (a node count), one bytes-per-miss column per protocol.
fn scalability_pivot(sections: &SectionRuns<'_>) -> String {
    let mut out = format!(
        "{:>6} {:>18} {:>18} {:>18} {:>12}\n",
        "nodes", "TokenB B/miss", "Directory B/miss", "Hammer B/miss", "TokenB/Dir"
    );
    for (section, runs) in sections {
        let find = |protocol: ProtocolKind| {
            let run = runs.iter().find(|run| run.report.protocol == protocol);
            run.map_or(f64::NAN, |run| run.report.bytes_per_miss())
        };
        let tokenb = find(ProtocolKind::TokenB);
        let directory = find(ProtocolKind::Directory);
        let hammer = find(ProtocolKind::Hammer);
        out.push_str(&format!(
            "{:>6} {:>18.1} {:>18.1} {:>18.1} {:>11.2}x\n",
            section.points[0].config.num_nodes,
            tokenb,
            directory,
            hammer,
            tokenb / directory
        ));
    }
    out
}

/// The `table1` summary: Table 1 (the target system parameters), which is
/// the whole output of the one campaign that runs no simulation.
fn render_table1(_: &SectionRuns<'_>) -> String {
    let c = SystemConfig::isca03_default();
    format!(
        "Table 1: target system parameters (ISCA 2003)\n\
         \n\
         Coherent memory system\n\
         \x20 split L1 I & D caches    {} kB, {}-way, {} ns\n\
         \x20 unified L2 cache         {} MB, {}-way, {} ns\n\
         \x20 cache block size         {} bytes\n\
         \x20 DRAM / directory latency {} ns\n\
         \x20 memory/dir controllers   {} ns\n\
         \x20 network link bandwidth   {:.1} GB/s\n\
         \x20 network link latency     {} ns (wire + sync + route)\n\
         \n\
         Processors\n\
         \x20 nodes                    {}\n\
         \x20 outstanding misses       {} (reorder window {} memory ops)\n\
         \x20 ops per transaction      {}\n\
         \n\
         Token Coherence\n\
         \x20 tokens per block (T)     {}\n\
         \x20 reissue timeout          {}x average miss latency + randomized backoff\n\
         \x20 persistent escalation    after ~{} reissues\n\
         \x20 token state per block    {} bits\n",
        c.l1.size_bytes / 1024,
        c.l1.associativity,
        c.l1.latency_ns,
        c.l2.size_bytes / (1024 * 1024),
        c.l2.associativity,
        c.l2.latency_ns,
        c.block_bytes,
        c.dram_latency_ns,
        c.controller_latency_ns,
        c.interconnect.link_bandwidth_bytes_per_ns,
        c.interconnect.link_latency_ns,
        c.num_nodes,
        c.processor.max_outstanding_misses,
        c.processor.overlap_window,
        c.processor.ops_per_transaction,
        c.token.tokens_per_block,
        c.token.reissue_latency_multiplier,
        c.token.reissues_before_persistent,
        c.token_state_bits()
    )
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
                "write each snapshot to DIR/snap-<events>.tcsnap",
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
/// out a campaign with no sections, which the service has nothing to run for.
fn render_catalog(simulated_only: bool) -> String {
    let listed = CAMPAIGNS
        .iter()
        .filter(|spec| !(simulated_only && (spec.sections)(None).is_empty()));
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

    /// The line `tc-bench <campaign>` prints before it runs the points.
    pub fn banner(&self, threads: usize) -> String {
        let points: usize = self.sections.iter().map(|s| s.points.len()).sum();
        format!(
            "campaign {} ({points} points, {} ops/node, {threads} threads)",
            self.spec.name, self.options.ops_per_node
        )
    }

    /// Everything `tc-bench <campaign>` prints once the points have run —
    /// each section's tables from its slice of `runs` (the campaign runs
    /// flattened, so every core stays busy across section boundaries), the
    /// summary, the paper's note — each block between blank lines.
    pub fn render(&self, runs: &[CampaignRun]) -> String {
        let mut rest = runs;
        let slices: Vec<(&Section, &[CampaignRun])> = (self.sections.iter())
            .map(|section| {
                let (slice, tail) = rest.split_at(section.points.len());
                rest = tail;
                (section, slice)
            })
            .collect();
        let mut blocks = Vec::new();
        for (section, slice) in &slices {
            for (table, title) in self.spec.tables {
                let title = if title.is_empty() {
                    &section.title
                } else {
                    *title
                };
                blocks.push(table.render(title, slice));
            }
        }
        blocks.extend(self.spec.summary.map(|summary| summary(&slices)));
        if !self.spec.paper_note.is_empty() {
            blocks.push(self.spec.paper_note.to_string());
        }
        blocks.iter().map(|block| format!("\n{block}\n")).collect()
    }
}

/// Expands `spec` under `args` into a plan, or says why it cannot be run.
fn plan_campaign(spec: &'static CampaignSpec, args: &Args) -> Result<CampaignPlan, String> {
    // Rejecting --workload where nothing iterates workloads beats silently
    // running the fixed set.
    if args.workload.is_some() && !spec.takes_workload {
        return Err(format!(
            "--workload applies only to the figure campaigns; {} runs a fixed workload set",
            spec.name
        ));
    }
    if args.protocol.is_some() && !spec.takes_protocol {
        return Err(format!(
            "--protocol does not apply to {} (its table compares protocols)",
            spec.name
        ));
    }
    let mut sections = (spec.sections)(args.workload.as_ref());
    if let Some(protocol) = args.protocol {
        for section in &mut sections {
            section.points.retain(|p| p.config.protocol == protocol);
        }
        sections.retain(|s| !s.points.is_empty());
        if sections.is_empty() {
            return Err("no points left after --protocol filter".to_string());
        }
    }
    let mut options = (spec.options)();
    if let Some(ops) = args.ops {
        options.ops_per_node = ops;
    }
    // Campaign-wide fault injection; a point carrying its own spec (the
    // faultsweep catalog's per-class points) overrides this at run time.
    if let Some(faults) = args.faults {
        options.faults = faults;
        for point in sections.iter().flat_map(|s| &s.points) {
            admit(point.config.protocol, &point.effective_options(&options))?;
        }
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

/// Refuses run options outside `protocol`'s contract, naming `--faults`:
/// no flag sets an adversary.
fn admit(protocol: ProtocolKind, options: &RunOptions) -> Result<(), String> {
    let refusal = protocol.admits(&options.faults, &options.adversary);
    refusal.map_err(|r| format!("--faults: {}", r.message))
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
    /// Where each `snap-<events>.tcsnap` is written.
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
        admit(config.protocol, &options)?;
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
    /// Print this text on stdout and exit 0: a usage text, the catalog, or
    /// a campaign that simulates nothing.
    Print(String),
    /// Run a campaign here; `Args` carries `threads`, `runs_json` and
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
        return Ok(Command::Print(usage(&CAMPAIGN)));
    };
    match first.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Print(usage(&CAMPAIGN))),
        "list" => {
            let catalog = render_catalog(false);
            return Ok(Command::Print(format!("available campaigns:\n{catalog}")));
        }
        _ => {}
    }
    let sub = SUBCOMMANDS.iter().find(|s| s.name() == first);
    let sub = sub.unwrap_or(&CAMPAIGN);
    let usage_error = |message: String| format!("{message}\n\n{}", usage(sub));
    // The campaign name: the first word itself, or `submit`'s positional.
    let campaign = match sub.name() {
        "<campaign>" => Some(first),
        "submit" => match rest.split_first() {
            None => return Ok(Command::Print(usage(sub))),
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
        return Ok(Command::Print(usage(sub)));
    };
    // One default address, for the server and its clients alike.
    let serve_defaults = ServeOptions::default();
    let addr = args.addr.clone().unwrap_or(serve_defaults.addr);
    let command = match (sub.name(), spec) {
        ("<campaign>", Some(spec)) => plan_campaign(spec, &args).map(|plan| {
            if plan.sections.is_empty() {
                // Nothing to run: what is left of `render` is the summary.
                Command::Print(spec.summary.map_or_else(String::new, |text| text(&[])))
            } else {
                Command::Campaign(plan, args)
            }
        }),
        ("submit", Some(spec)) => plan_campaign(spec, &args).and_then(|plan| {
            if plan.sections.is_empty() {
                let name = spec.name;
                return Err(format!(
                    "{name} is a static parameter table; nothing to simulate"
                ));
            }
            Ok(Command::Submit {
                addr,
                submission: Submission {
                    priority: args.priority.unwrap_or_default(),
                    options: plan.options,
                    points: plan.points(),
                },
                runs_json: args.runs_json,
            })
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
            let options = HuntOptions {
                protocol: args.protocol.unwrap_or(defaults.protocol),
                scenario: args.scenario.unwrap_or(defaults.scenario),
                seed: args.seed.unwrap_or(defaults.seed),
                budget: args.budget.unwrap_or(defaults.budget),
                ops_per_node: args.ops.unwrap_or(defaults.ops_per_node),
            };
            match options.admitted() {
                Ok(()) => Ok(Command::Hunt(options)),
                Err(refusal) => Err(format!("--protocol: {}", refusal.message)),
            }
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

    fn sections_of(name: &str, workload: Option<&WorkloadProfile>) -> Vec<Section> {
        (resolve_campaign(name).unwrap().sections)(workload)
    }

    /// The first value header of each table the campaign prints per section.
    fn first_headers(name: &str) -> Vec<&'static str> {
        let tables = resolve_campaign(name).unwrap().tables.iter();
        tables.map(|(table, _)| table.columns[0].header).collect()
    }

    #[test]
    fn figure_campaigns_have_one_section_per_commercial_workload() {
        let sections = sections_of("fig4-runtime", None);
        assert_eq!(sections.len(), 3);
        assert_eq!(first_headers("fig4-runtime"), ["cycles/txn"]);
        assert_eq!(sections[0].points.len(), 6);
        let only = WorkloadProfile::oltp();
        let restricted = sections_of("fig5-traffic", Some(&only));
        assert_eq!(restricted.len(), 1);
        assert!(restricted[0].title.contains("OLTP"));
        assert_eq!(first_headers("fig5-traffic"), ["data+wb"]);
    }

    #[test]
    fn scalability_sections_follow_the_node_counts() {
        let sections = sections_of("scalability", None);
        assert_eq!(sections.len(), 3);
        for (section, nodes) in sections.iter().zip([16, 32, 64]) {
            assert!(section.points.iter().all(|p| p.config.num_nodes == nodes));
        }
        // Nothing is printed per node count: the pivot is the summary.
        assert!(first_headers("scalability").is_empty());
        assert!(resolve_campaign("scalability").unwrap().summary.is_some());
        assert_eq!(first_headers("sweep64").len(), 3);
    }

    #[test]
    fn faultsweep_resolves_and_gates_points_per_protocol() {
        assert!(resolve_campaign("faultsweep").is_some());
        assert!(resolve_campaign("faults").is_some());
        let sections = sections_of("faultsweep", None);
        assert_eq!(sections.len(), 1);
        assert_eq!(first_headers("faultsweep"), ["dropped"]);
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
        let table = FAULT.render("Fault sweep", &report.runs);
        assert!(table.contains("TokenB (reliable)"));
        assert!(table.contains("persistent"));
        assert!(table.contains("ok"));
        assert!(!table.contains("VIOLATED"));
    }

    #[test]
    fn table1_renders_the_parameter_table() {
        let text = render_table1(&[]);
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
        let reissue = REISSUE.render("Table 2", &report.runs);
        assert!(reissue.contains("Average"));
        let section = &sections_of("scalability", None)[0];
        let scal = scalability_pivot(&[(section, &report.runs)]);
        assert!(scal.contains("TokenB/Dir"));
        assert!(scal.contains("\n    16 "));
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
            ("", Ok(&["Print(", "usage: tc-bench <campaign>", "run-one", "shutdown"])),
            ("help", Ok(&["usage: tc-bench <campaign>"])),
            ("--help", Ok(&["usage: tc-bench <campaign>"])),
            ("-h", Ok(&["usage: tc-bench <campaign>"])),
            ("table2 --help", Ok(&["Print(", "usage: tc-bench <campaign>", "--serial-baseline"])),
            ("table1 -h", Ok(&["Print(", "usage: tc-bench <campaign>"])),
            ("run-one --help", Ok(&["Print(", "usage: tc-bench run-one", "--crash-after K"])),
            ("run-one --nodes 8 -h", Ok(&["Print(", "usage: tc-bench run-one"])),
            ("hunt --help", Ok(&["Print(", "usage: tc-bench hunt", "--smoke"])),
            ("serve --help", Ok(&["Print(", "usage: tc-bench serve", "--workers N"])),
            ("submit", Ok(&["Print(", "usage: tc-bench submit <campaign>"])),
            ("submit --help", Ok(&["Print(", "usage: tc-bench submit <campaign>", "--priority"])),
            ("submit table2 -h", Ok(&["Print(", "usage: tc-bench submit <campaign>"])),
            ("status --help", Ok(&["Print(", "usage: tc-bench status", "--addr HOST:PORT"])),
            ("shutdown --help", Ok(&["Print(", "usage: tc-bench shutdown", "--addr HOST:PORT"])),
            // Every subcommand's flags.
            ("list", Ok(&["Print(\"available campaigns:", "table1", "faultsweep"])),
            ("table1", Ok(&["Print(\"Table 1: target system parameters"])),
            ("table2", Ok(&["Campaign(", "name: \"table2\"", "threads: None", "shards: 0 }"])),
            ("fig5b --ops 5", Ok(&["name: \"fig5-traffic\"", "ops_per_node: 5,"])),
            ("fig5-traffic --ops 400 --threads 2 --workload oltp --protocol tokenb \
              --faults drop=0.01 --runs-json b.ndjson --shards 2 --serial-baseline",
             Ok(&["Campaign(", "ops_per_node: 400,", "threads: Some(2)", "Workload: OLTP",
                  "runs_json: Some(\"b.ndjson\")", "shards: 2 }",
                  "serial_baseline: true"])),
            ("sweep64 --shards 4", Ok(&["name: \"sweep64\"", "shards: 4 }"])),
            ("run-one", Ok(&["RunOne(", "num_nodes: 4,", "protocol: TokenB", "seed: 12 }",
                             "ops_per_node: 20000,", "max_cycles: 1000000000,", "shards: 0 }",
                             "checkpoint_every: None", "resume: None"])),
            ("run-one --protocol directory --workload apache --nodes 8 --seed 3 --ops 50 \
              --max-cycles 9000 --faults drop=0.01 --checkpoint-every 100 --checkpoint-dir d \
              --crash-after 2 --report-out r.txt",
             Err("--faults: Directory does not tolerate drop faults")),
            ("run-one --protocol directory --workload apache --nodes 8 --seed 3 --ops 50 \
              --max-cycles 9000 --faults reorder=2 --checkpoint-every 100 --checkpoint-dir d \
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
            ("hunt --protocol snooping --budget 8 --ops 150",
             Err("--protocol: Snooping does not tolerate delay, reorder faults (it tolerates: none)")),
            ("serve", Ok(&["Serve(", "addr: \"127.0.0.1:7533\"", "workers: 2,", "cache_path: None"])),
            ("serve --addr 0.0.0.0:9 --workers 5 --cache c.snap",
             Ok(&["addr: \"0.0.0.0:9\"", "workers: 5,", "cache_path: Some(\"c.snap\")"])),
            ("submit table2", Ok(&["Submit {", "addr: \"127.0.0.1:7533\"", "priority: Normal",
                                   "runs_json: None"])),
            ("submit fig4a --addr h:1 --priority high --ops 9 --workload specjbb \
              --protocol snooping --faults dup=0.5 --runs-json s.ndjson",
             Err("--faults: Snooping does not tolerate dup faults (it tolerates: none)")),
            ("submit fig4a --addr h:1 --priority high --ops 9 --workload specjbb \
              --protocol snooping --runs-json s.ndjson",
             Ok(&["addr: \"h:1\"", "priority: High", "ops_per_node: 9,", "protocol: Snooping",
                  "runs_json: Some(\"s.ndjson\")"])),
            ("status", Ok(&["Status(\"127.0.0.1:7533\")"])),
            ("status --addr h:2", Ok(&["Status(\"h:2\")"])),
            ("shutdown --addr h:3", Ok(&["Shutdown(\"h:3\")"])),
            // A missing value, an unknown flag, a flag of another subcommand.
            ("table2 --ops", Err("--ops requires a value")),
            ("status --addr", Err("--addr requires a value")),
            ("table2 --bogus", Err("unknown option: --bogus")),
            ("fig5-runtime --json x", Err("unknown option: --json")),
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

    /// The campaign tables in this crate's module docs and in README.md are
    /// hand copies of the catalog: each must list exactly its names.
    #[test]
    fn documented_campaign_tables_list_exactly_the_catalog() {
        let names: Vec<&str> = CAMPAIGNS.iter().map(|spec| spec.name).collect();
        for (file, text) in [
            ("lib.rs", include_str!("lib.rs")),
            ("README.md", include_str!("../../../README.md")),
        ] {
            // The rows under the `| campaign |` header, by their first cell.
            let lines = text.lines().map(|l| l.trim_start_matches("//!").trim());
            let listed: Vec<&str> = lines
                .skip_while(|l| !l.starts_with("| campaign"))
                .skip(2)
                .map_while(|l| Some(l.strip_prefix("| `")?.split_once('`')?.0))
                .collect();
            assert_eq!(listed, names, "{file}'s campaign table");
        }
    }

    /// The byte-identity CI gate (served stream == one-shot `--runs-json`)
    /// rests on `submit` sending exactly the points, under exactly the run
    /// options, that the one-shot path runs, and refusing exactly what it
    /// refuses: a campaign-wide drop spec is outside the contract of every
    /// protocol but TokenB.
    #[test]
    fn submit_sends_exactly_what_the_one_shot_path_runs() {
        for (spec, faults) in CAMPAIGNS
            .iter()
            .flat_map(|s| [(s, " --faults drop=0.01"), (s, "")])
        {
            let mut flags = format!("--ops 200{faults}");
            if spec.takes_workload {
                flags.push_str(" --workload oltp");
            }
            if spec.takes_protocol {
                flags.push_str(" --protocol tokenb");
            }
            let one_shot = cli(&format!("{} {flags}", spec.name));
            let submitted = cli(&format!("submit {} {flags}", spec.name));
            if (spec.sections)(None).is_empty() {
                assert!(matches!(cli(spec.name), Ok(Command::Print(_))));
                assert!(one_shot.is_err() && submitted.is_err());
                continue;
            }
            let only_tokenb = (spec.sections)(None)
                .iter()
                .flat_map(|s| &s.points)
                .all(|p| p.config.protocol == ProtocolKind::TokenB || !p.faults.is_none());
            if let (Err(a), Err(b)) = (&one_shot, &submitted) {
                let refusal = |e: &str| e.lines().next().map(str::to_string);
                assert_eq!(refusal(a), refusal(b), "{}", spec.name);
                assert!(a.starts_with("--faults: "), "{}: {a}", spec.name);
                assert!(!faults.is_empty() && !spec.takes_protocol && !only_tokenb);
                continue;
            }
            let (Ok(Command::Campaign(plan, _)), Ok(Command::Submit { submission, .. })) =
                (one_shot, submitted)
            else {
                panic!("{}: both paths must expand, or refuse alike", spec.name);
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
