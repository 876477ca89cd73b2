//! One benchmark for the whole stack. See `benchmark/README.md`.
//!
//! ```text
//! tc-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//! tc-benchmark [--workload NAME] [--seed N] [--runs K]            every workload, each run in a child process
//! tc-benchmark compare A.json B.json                              judge B against A
//! tc-benchmark --workload NAME --seed N --rss-probe 1              what an end-to-end run starts to read peak memory
//! ```

mod campaign21;
mod engine;
mod host;
mod refclock;
mod replay;
mod result;
mod serve;
mod sizes;
mod spec;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use tc_types::AdversarySpec;

use result::RunResult;
use spec::Spec;

/// The arguments of a single run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Only the teeth test sets this: a stock run has no adversary.
    pub adversary: AdversarySpec,
}

/// Where traced runs and the suite leave their files: `results/` in this
/// package's directory, which `run.sh` builds in place.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Runs one workload once and validates what it measured.
pub fn run_workload(spec: &Spec, args: &RunArgs) -> Result<RunResult, String> {
    let name = args.workload.as_str();
    if !spec.has_workload(name) {
        return Err(format!(
            "unknown workload `{name}` (BENCHMARK.json names: {})",
            spec.workloads
                .iter()
                .map(|w| w.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let dir = results_dir();
    let mut result = match (name, args.trace) {
        ("campaign21", false) => campaign21::run_end_to_end(args.seed, args.seconds),
        ("campaign21", true) => campaign21::run_traced(args.seed, args.seconds),
        ("serve_mix", false) => serve::run_end_to_end(args.seed, args.seconds),
        ("serve_mix", true) => serve::run_traced(args.seed, &dir),
        (_, false) => engine::run_end_to_end(name, args.seed, args.seconds, args.adversary),
        (_, true) => engine::run_traced(name, args.seed, args.seconds, &dir),
    };
    result.validate(spec);
    Ok(result)
}

/// `--rss-probe 1`: goes through a workload once and prints this process's
/// `VmHWM`, for `host::probed_peak_rss_mb` in the parent.
fn rss_probe(workload: &str, seed: u64) -> ExitCode {
    let mut checks = result::Checks::default();
    match workload {
        "campaign21" => campaign21::rss_probe(seed, &mut checks),
        "serve_mix" => serve::rss_probe(seed, &mut checks),
        _ => {
            eprintln!("--rss-probe is for campaign21 and serve_mix, not `{workload}`");
            return ExitCode::from(2);
        }
    }
    for note in &checks.notes {
        eprintln!("{workload} probe FAILED: {note}");
    }
    println!("peak_rss_mb {}", host::peak_rss_mb());
    ExitCode::from(u8::from(checks.failed > 0))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tc-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      tc-benchmark [--workload NAME] [--seed N] [--runs K] [--seconds S] [--out PATH]\n\
         \x20      tc-benchmark compare A.json B.json"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => suite::compare(&spec, a, b),
            _ => usage(),
        };
    }

    let mut workload = None;
    let mut seed = sizes::HOUSE_PIN_SEED;
    let mut seconds = spec.run_seconds as f64;
    let mut trace = None;
    let mut adversary = AdversarySpec::none();
    let mut runs = 1usize;
    let mut out = None;
    let mut probe = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            eprintln!("{flag} needs a value");
            return usage();
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Ok(())
            }
            "--seed" => value.parse().map(|v| seed = v).map_err(|_| ()),
            "--seconds" => value
                .parse()
                .ok()
                .filter(|s: &f64| *s > 0.0 && s.is_finite())
                .map(|v| seconds = v)
                .ok_or(()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = Some(value == "1");
                    Ok(())
                }
                _ => Err(()),
            },
            "--rss-probe" => {
                probe = value == "1";
                Ok(())
            }
            "--adversary" => AdversarySpec::parse(value)
                .map(|v| adversary = v)
                .map_err(|e| eprintln!("--adversary: {e}")),
            "--runs" => value
                .parse()
                .ok()
                .filter(|k| *k >= 1)
                .map(|v| runs = v)
                .ok_or(()),
            "--out" => {
                out = Some(PathBuf::from(value));
                Ok(())
            }
            _ => Err(()),
        };
        if parsed.is_err() {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }

    if probe {
        return rss_probe(workload.as_deref().unwrap_or_default(), seed);
    }
    let Some(trace) = trace else {
        return suite::run_all(&spec, workload.as_deref(), seed, seconds, runs, out);
    };
    let Some(workload) = workload else {
        eprintln!("--trace needs --workload");
        return usage();
    };
    let args = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        adversary,
    };
    // An end-to-end run times everything against a reference loop on this
    // thread, which holds only if all of it shares one CPU (see `refclock`).
    // A traced run needs its second core for the two-thread layer metrics.
    let pinned = !trace && host::pin_to_current_cpu();
    match run_workload(&spec, &args) {
        Ok(mut result) => {
            if !trace {
                result.notes.push(format!("pinned {}", u8::from(pinned)));
            }
            result.print(&spec);
            ExitCode::from(result.exit_code())
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use tc_types::Json;

    use super::*;

    fn args(workload: &str, seed: u64, trace: bool, adversary: AdversarySpec) -> RunArgs {
        RunArgs {
            workload: workload.to_string(),
            seed,
            // The floors (five set-ups, three samples, the hit count) are
            // all a test needs.
            seconds: 0.01,
            trace,
            adversary,
        }
    }

    /// Layer metrics a one-core host skips (never more threads than cores).
    const NEEDS_TWO_CORES: [&str; 9] = [
        "campaign.t2_speedup",
        "campaign.peak_reorder",
        "shard.s2_ns_per_event",
        "shard.s2_vs_s1",
        "shard.windows",
        "shard.sync_stalls",
        "shard.us_per_window",
        "shard.imbalance",
        "shard.cpu_util",
    ];

    /// Every workload and metric `BENCHMARK.json` names appears in the
    /// output, and the output names nothing else.
    #[test]
    fn benchmark_json_and_the_output_name_the_same_things() {
        let spec = Spec::load();
        let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            workloads,
            [
                "pin4",
                "paper16",
                "scale64",
                "contended16",
                "campaign21",
                "serve_mix"
            ]
        );
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        let mut layers_measured = BTreeSet::new();
        for workload in &workloads {
            for trace in [false, true] {
                let result = run_workload(&spec, &args(workload, 12, trace, AdversarySpec::none()))
                    .expect("a known workload");
                assert!(
                    result.correct(),
                    "{workload} trace {trace}: {:?}",
                    result.checks.notes
                );
                // `validate` has already failed the run for any measured
                // name outside the table; the printed object must hold the
                // whole table, in order.
                let table = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let printed = result.to_json(&spec);
                let keys: Vec<&str> = printed
                    .get("metrics")
                    .and_then(Json::as_object)
                    .expect("a metrics object")
                    .iter()
                    .map(|(name, _)| name.as_str())
                    .collect();
                let named: Vec<&str> = table.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(keys, named, "{workload} trace {trace}");
                if trace {
                    layers_measured.extend(result.metrics.iter().map(|(name, _)| name.to_string()));
                } else {
                    for metric in table {
                        let value = result.metrics.get(&metric.name).expect("validated");
                        assert!(value > 0.0, "{workload} {} is {value}", metric.name);
                    }
                }
            }
        }
        // And the other way round: no layer metric is named that no
        // workload measures.
        let two_cores = host::cores() >= 2;
        let expected: BTreeSet<String> = spec
            .per_layer
            .iter()
            .map(|m| m.name.clone())
            .filter(|name| two_cores || !NEEDS_TWO_CORES.contains(&name.as_str()))
            .collect();
        assert_eq!(layers_measured, expected);
    }

    /// Teeth: under the repository's own starvation positive control (a
    /// sabotaged persistent-request arbiter) the run must count failures
    /// and the command must exit non-zero. Probed over victims and seeds
    /// as `tests/conformance.rs` does, since whether a given victim is ever
    /// the one that starves depends on the schedule.
    #[test]
    fn a_sabotaged_arbiter_fails_the_run() {
        let spec = Spec::load();
        let stock = run_workload(
            &spec,
            &args("contended16", 12, false, AdversarySpec::none()),
        )
        .expect("a known workload");
        assert!(stock.correct() && stock.exit_code() == 0);
        let caught = (0..16u32)
            .flat_map(|victim| [1u64, 2, 12].map(|seed| (victim, seed)))
            .find_map(|(victim, seed)| {
                let sabotage = AdversarySpec::none().with_victim(victim, 0).with_sabotage();
                let result = run_workload(&spec, &args("contended16", seed, false, sabotage))
                    .expect("a known workload");
                (!result.correct()).then_some(result)
            })
            .expect("no probe starved under a sabotaged arbiter: the benchmark has no teeth");
        assert!(caught.checks.failed > 0);
        assert_ne!(caught.exit_code(), 0);
        assert_eq!(
            caught.to_json(&spec).get("correct").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn an_unknown_workload_is_refused() {
        let spec = Spec::load();
        assert!(run_workload(&spec, &args("nope", 1, false, AdversarySpec::none())).is_err());
    }
}
