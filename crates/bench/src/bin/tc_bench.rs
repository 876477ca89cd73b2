//! `tc-bench` — the one experiment CLI.
//!
//! Resolves a named campaign from the experiment catalogs and runs it
//! through the multi-threaded campaign driver:
//!
//! ```text
//! tc-bench list
//! tc-bench table2
//! tc-bench fig5-runtime --ops 12000 --threads 8
//! tc-bench fig4-traffic --workload oltp --runs-json /tmp/fig4b.ndjson
//! tc-bench sweep64 --ops 20000 --threads 8 --serial-baseline
//! ```
//!
//! plus the subcommands `run-one`, `hunt`, `serve`, `submit`, `status` and
//! `shutdown`. The command line is declared and parsed in the library
//! (`tc_bench::parse_cli`); this file only executes the parsed
//! [`Command`]. Exit status: 0 on success, 2 on a usage error, 1 on a
//! run-time failure (an unreachable service, an unwritable path, a
//! verification failure), 42 on a simulated crash.

use tc_bench::{parse_cli, Args, CampaignPlan, Command, RunOnePlan};
use tc_system::campaign::{Campaign, CampaignReport};
use tc_system::System;

/// Reports a run-time failure on `what` (a path or an address) and exits 1.
fn fail(what: &str, error: impl std::fmt::Display) -> ! {
    eprintln!("tc-bench: {what}: {error}");
    std::process::exit(1);
}

fn write_file(path: &str, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| fail(path, e));
}

/// Runs the plan's points as one campaign with progress on stderr.
fn run_campaign(plan: &CampaignPlan, threads: usize) -> CampaignReport {
    Campaign::new(plan.points())
        .options(plan.options)
        .threads(threads)
        .on_progress(|event| eprintln!("  {event}"))
        .run()
}

/// `tc-bench <campaign>`: run the plan's points as one flattened campaign,
/// then print what the plan renders from the runs.
fn run_campaign_command(plan: CampaignPlan, args: Args) {
    let threads = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    println!("{}", plan.banner(threads));
    let report = run_campaign(&plan, threads);

    print!("{}", plan.render(&report.runs));

    if args.serial_baseline {
        eprintln!("serial baseline: re-running the campaign with 1 thread ...");
        let serial = run_campaign(&plan, 1);
        assert_eq!(
            serial.runs, report.runs,
            "threads(1) and threads(N) must produce bit-identical reports"
        );
        println!(
            "\ndeterminism check ok: {} serial reports are bit-identical to the threaded run",
            serial.runs.len()
        );
    }

    eprintln!(
        "campaign wall-clock: {:.1} s across {} threads",
        report.wall_seconds, report.threads
    );
    if let Some(path) = &args.runs_json {
        // One line per run in submission order — byte-identical to what the
        // campaign service streams for the same points (pinned by CI).
        let mut out = String::new();
        for run in &report.runs {
            out.push_str(&tc_system::run_to_json(&run.label, &run.report));
            out.push('\n');
        }
        write_file(path, out);
        eprintln!("wrote {path}");
    }
    if let Err((label, violation)) = report.verified() {
        eprintln!("VERIFICATION FAILURE in {label}: {violation}");
        std::process::exit(1);
    }
}

/// `tc-bench run-one`: one point, run directly on the engine so snapshots
/// can be cut, crashed on, and resumed — the CLI face of the snapshot
/// plane. Writes each `snap-<events>.tcsnap` into the checkpoint directory
/// through a temp file and a rename, so a run killed mid-write never
/// leaves a torn one.
fn run_one(plan: RunOnePlan) {
    let run_options = plan.options;
    let mut system = System::build(&plan.config, &plan.workload);

    let dir = plan.checkpoint_dir;
    if let Some(dir) = &dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(dir, e));
    }
    let crash_after = plan.crash_after;
    let mut checkpoints_sealed: u64 = 0;
    let mut sink = |events: u64, bytes: &[u8]| {
        let Some(dir) = &dir else { return };
        let path = format!("{dir}/snap-{events}.tcsnap");
        let tmp = format!("{dir}/snap-{events}.tmp");
        write_file(&tmp, bytes);
        std::fs::rename(&tmp, &path).unwrap_or_else(|e| fail(&path, e));
        eprintln!("checkpoint at event {events}: {path}");
        checkpoints_sealed += 1;
        if crash_after == Some(checkpoints_sealed) {
            eprintln!("simulated crash after {checkpoints_sealed} checkpoint(s)");
            std::process::exit(42);
        }
    };

    let report = if let Some(snap_path) = &plan.resume {
        let bytes = std::fs::read(snap_path).unwrap_or_else(|e| fail(snap_path, e));
        let progress = system
            .restore(&run_options, &bytes)
            .unwrap_or_else(|e| fail(snap_path, e));
        eprintln!(
            "restored {snap_path} at event {}",
            system.events_delivered()
        );
        system.resume_with_checkpoints(run_options, progress, &mut sink)
    } else {
        system.run_with_checkpoints(run_options, &mut sink)
    };

    println!("{report}");
    println!("events_delivered: {}", system.events_delivered());
    if let Some(path) = &plan.report_out {
        // A sharded run's deterministic form is its determinism view: the
        // per-shard capacity telemetry legitimately varies with shard count,
        // so writing the view lets CI byte-diff shards(1) against shards(N).
        let text = if run_options.shards > 0 {
            format!("{:#?}\n", report.determinism_view())
        } else {
            format!("{report:#?}\n")
        };
        write_file(path, text);
        eprintln!("wrote {path}");
    }
    if let Err(violation) = report.verified() {
        eprintln!("VERIFICATION FAILURE: {violation}");
        std::process::exit(1);
    }
}

/// `tc-bench serve`: host the campaign service until a client drains it.
fn run_serve(options: tc_serve::ServeOptions) {
    let (addr, workers) = (options.addr.clone(), options.workers);
    let server = tc_serve::Server::bind(options).unwrap_or_else(|e| fail(&addr, e));
    if let Some(warning) = &server.cache_warning {
        eprintln!("{warning}");
    }
    let bound = server.local_addr().unwrap_or_else(|e| fail(&addr, e));
    let addr = bound.to_string();
    eprintln!("tc-serve listening on {addr} ({workers} workers)");
    let stats = server.run().unwrap_or_else(|e| fail(&addr, e));
    eprintln!(
        "drained: {} jobs completed, {} failed; {} points run, {} served from cache; \
         {} cache entries",
        stats.jobs_completed,
        stats.jobs_failed,
        stats.points_run,
        stats.points_cached,
        stats.cache_entries
    );
}

/// `tc-bench submit`: stream a submission's run lines to stdout as they land.
fn run_submit(addr: &str, submission: &tc_serve::Submission, runs_json: Option<&str>) {
    eprintln!(
        "submitting {} points to {addr} (priority {})",
        submission.points.len(),
        submission.priority.name()
    );
    let mut captured = String::new();
    let outcome = tc_serve::submit(addr, submission, |line| {
        println!("{line}");
        if runs_json.is_some() {
            captured.push_str(line);
            captured.push('\n');
        }
    })
    .unwrap_or_else(|e| fail(addr, e));
    if let Some(path) = runs_json {
        write_file(path, captured);
        eprintln!("wrote {path}");
    }
    eprintln!(
        "{}: {} points — {} run, {} served from cache",
        outcome.job, outcome.points, outcome.ran, outcome.cache_hits
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&argv) {
        Err(usage_error) => {
            eprintln!("{usage_error}");
            std::process::exit(2);
        }
        Ok(Command::Print(text)) => print!("{text}"),
        Ok(Command::Campaign(plan, args)) => run_campaign_command(plan, args),
        Ok(Command::RunOne(plan)) => run_one(plan),
        Ok(Command::Hunt(options)) => {
            // The outcome line is deterministic (CI diffs two `--smoke`
            // invocations); a verifier violation arrives already shrunk to
            // a minimal repro and fails the command.
            let outcome = tc_testkit::hunt(&options);
            println!("{outcome}");
            if outcome.failure.is_some() {
                std::process::exit(1);
            }
        }
        Ok(Command::Serve(options)) => run_serve(options),
        Ok(Command::Submit {
            addr,
            submission,
            runs_json,
        }) => run_submit(&addr, &submission, runs_json.as_deref()),
        Ok(Command::Status(addr)) => match tc_serve::status(&addr) {
            Ok(page) => print!("{page}"),
            Err(e) => fail(&addr, e),
        },
        Ok(Command::Shutdown(addr)) => match tc_serve::shutdown(&addr) {
            Ok(()) => eprintln!("service at {addr} is draining"),
            Err(e) => fail(&addr, e),
        },
    }
}
