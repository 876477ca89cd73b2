//! The printed tables, pinned: every byte `tc-bench` writes to stdout for
//! the catalog, the static table, six campaigns at a tiny fixed run length
//! and every usage text, as length + `fnv1a64` of the concatenation.
//!
//! Recorded from the stdout of the `tc-bench` binary built at the commit
//! before tables became column lists and campaigns catalog rows (hand-written
//! `render_*_table` functions, a `TableKind` match in the binary), with
//! exactly the command lines below. A change to a `tc_system::table`
//! declaration, a catalog row's titles or notes, or a flag's help text moves
//! it — on purpose, re-recorded here and explained in CHANGES.md. It was
//! re-recorded twice, each time for one line of help: when `--checkpoint-dir`
//! stopped naming the retired run journal, and when the campaign usage lost
//! `--json PATH` with the campaign JSON document.

use tc_bench::{parse_cli, Command};
use tc_sim::fnv1a64;
use tc_system::campaign::Campaign;

const COMMAND_LINES: [&str; 15] = [
    "table1",
    "list",
    "table2 --ops 60 --threads 1",
    "fig4-runtime --ops 60 --threads 1",
    "fig5-traffic --ops 60 --threads 1 --workload oltp",
    "faultsweep --ops 60 --threads 1",
    "sweep64 --ops 60 --threads 1",
    "scalability --ops 60 --threads 1",
    "--help",
    "run-one --help",
    "hunt --help",
    "serve --help",
    "submit --help",
    "status --help",
    "shutdown --help",
];

const PINNED: (usize, u64) = (17_274, 0xa783830d27c648f8);

/// What `tc-bench <line>` prints on stdout, through the calls its `main`
/// makes.
fn stdout_of(line: &str) -> String {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    match parse_cli(&argv).unwrap_or_else(|e| panic!("`{line}`: {e}")) {
        Command::Print(text) => text,
        Command::Campaign(plan, args) => {
            let threads = args.threads.expect("the golden fixes --threads");
            let report = Campaign::new(plan.points())
                .options(plan.options)
                .threads(threads)
                .run();
            assert!(report.verified().is_ok(), "`{line}`");
            format!("{}\n{}", plan.banner(threads), plan.render(&report.runs))
        }
        other => panic!("`{line}` prints nothing to pin: {other:?}"),
    }
}

#[test]
fn printed_tables_and_usage_texts_keep_their_bytes() {
    let stdout: String = COMMAND_LINES.iter().map(|line| stdout_of(line)).collect();
    assert_eq!(
        (stdout.len(), fnv1a64(stdout.as_bytes())),
        PINNED,
        "stdout bytes moved (len, fnv1a64):\n{stdout}"
    );
}
