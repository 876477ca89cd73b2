//! The suite (every workload, each run in its own child process, one
//! result file with a host block) and `compare` (judge one result file
//! against another with the bounds of `BENCHMARK.json`).

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use tc_types::Json;

use crate::result::number;
use crate::spec::{Better, MetricSpec, Spec};
use crate::{host, stats};

/// Runs every workload (or just `only`) `runs` times, untraced then traced,
/// each in a child process so `VmHWM` is the workload's own. Run `k` uses
/// seed `seed + k`. Writes one result file and exits non-zero if any run
/// failed.
pub fn run_all(
    spec: &Spec,
    only: Option<&str>,
    seed: u64,
    seconds: f64,
    runs: usize,
    out: Option<PathBuf>,
) -> ExitCode {
    if let Some(name) = only {
        if !spec.has_workload(name) {
            eprintln!("unknown workload `{name}`");
            return ExitCode::from(2);
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    let mut all_ok = true;
    for workload in spec.workloads.iter().map(|w| w.name.as_str()) {
        if only.is_some_and(|name| name != workload) {
            continue;
        }
        for run in 0..runs as u64 {
            for trace in [0u8, 1] {
                let run_seed = seed + run;
                let output = Command::new(&exe)
                    .args(["--workload", workload])
                    .args(["--seed", &run_seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stderr(Stdio::inherit())
                    .output();
                let (code, stdout) = match output {
                    Ok(output) => (
                        output.status.code().unwrap_or(-1),
                        String::from_utf8_lossy(&output.stdout).into_owned(),
                    ),
                    Err(e) => {
                        eprintln!("{workload}: could not start a child: {e}");
                        (-1, String::new())
                    }
                };
                let mut lines: Vec<&str> = stdout.lines().collect();
                let result = lines.pop().and_then(|last| Json::parse(last).ok());
                for line in lines {
                    println!("{line}");
                }
                let correct = result
                    .as_ref()
                    .and_then(|r| r.get("correct"))
                    .and_then(Json::as_bool)
                    == Some(true);
                if code != 0 || !correct {
                    all_ok = false;
                    eprintln!("{workload} seed {run_seed} trace {trace}: FAILED (exit {code})");
                }
                records.push(Json::Obj(vec![
                    ("workload".to_string(), Json::Str(workload.to_string())),
                    ("seed".to_string(), Json::Num(run_seed.to_string())),
                    ("trace".to_string(), Json::Num(trace.to_string())),
                    ("exit".to_string(), Json::Num(code.to_string())),
                    ("result".to_string(), result.unwrap_or(Json::Null)),
                ]));
            }
        }
    }
    let file = Json::Obj(vec![
        ("host".to_string(), host::host_block()),
        ("seed".to_string(), Json::Num(seed.to_string())),
        ("seconds".to_string(), number(seconds)),
        ("runs".to_string(), Json::Arr(records)),
    ]);
    let path = out.unwrap_or_else(|| {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        crate::results_dir().join(format!("run-{stamp}.json"))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, format!("{file}\n")));
    match written {
        Ok(()) => println!("results {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run out of a result file.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Record {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn load(path: &str) -> Result<(Json, Vec<Record>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = root
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    let mut records = Vec::new();
    for run in runs {
        let field = |key: &str| run.get(key).and_then(Json::as_u64);
        let workload = run.get("workload").and_then(Json::as_str);
        let (Some(workload), Some(seed), Some(trace)) = (workload, field("seed"), field("trace"))
        else {
            return Err(format!("{path}: a run lacks workload, seed or trace"));
        };
        let result = run.get("result");
        let count = |key: &str| result.and_then(|r| r.get(key)).and_then(Json::as_u64);
        let metrics = result
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value").and_then(Json::as_f64)?)))
            .collect();
        // A child that died before printing a result is one failed attempt.
        let died = result.is_none_or(|r| *r == Json::Null);
        records.push(Record {
            workload: workload.to_string(),
            seed,
            trace: trace == 1,
            attempted: count("attempted").unwrap_or(1),
            failed: if died {
                1
            } else {
                count("failed").unwrap_or(0)
            },
            metrics,
        });
    }
    let host = root.get("host").cloned().unwrap_or(Json::Null);
    Ok((host, records))
}

/// How one end-to-end metric on one workload moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Unresolved,
    Regression,
}

/// Judges `b` against `a` under `metric`'s bound.
///
/// `Unresolved` when either side's interquartile spread is wider than the
/// bound — the runs cannot tell a change of that size from noise — unless
/// every run of B reads better than every run of A. Otherwise a
/// `Regression` when B's median is worse than A's by more than the bound.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    // Orient so that larger is worse.
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worst_b = b.iter().map(|v| v * sign).fold(f64::NEG_INFINITY, f64::max);
    let best_a = a.iter().map(|v| v * sign).fold(f64::INFINITY, f64::min);
    let separated = worst_b < best_a;
    if stats::spread(a).max(stats::spread(b)) > bound {
        return if separated {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse_by = sign * (med_b - med_a) / med_a.abs();
    if worse_by > bound {
        Verdict::Regression
    } else if separated {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// A count that a pure performance change must leave exactly as it was.
fn is_exact(metric: &MetricSpec) -> bool {
    metric.name.starts_with("sim.") || (metric.name.starts_with("fault.") && metric.unit == "count")
}

fn side(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, q3)) => format!(
            "{:.6} [{:.6}, {:.6}] n={}",
            stats::median(values),
            q1,
            q3,
            values.len()
        ),
        None => format!("{:.6} n={}", stats::median(values), values.len()),
    }
}

/// Compares result file `b` against `a`. Exits non-zero on a regression, a
/// moved simulated count, or a higher failed share.
pub fn compare(spec: &Spec, a: &str, b: &str) -> ExitCode {
    let ((host_a, runs_a), (host_b, runs_b)) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    println!("A {a} host {host_a}");
    println!("B {b} host {host_b}");
    if host_a.get("nproc") != host_b.get("nproc") || host_a.get("cpu") != host_b.get("cpu") {
        println!("note: the hosts differ; timings are not comparable across hosts");
    }
    let mut failed = false;

    for workload in spec.workloads.iter().map(|w| w.name.as_str()) {
        for metric in &spec.end_to_end {
            let values = |runs: &[Record]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == workload && !r.trace)
                    .filter_map(|r| r.metric(&metric.name))
                    .collect()
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            if va.is_empty() || vb.is_empty() {
                println!("{workload} {} missing on one side", metric.name);
                continue;
            }
            let verdict = judge(metric, &va, &vb);
            let change = (stats::median(&vb) - stats::median(&va)) / stats::median(&va).abs();
            println!(
                "{workload} {} [{}] A {} | B {} | change {:+.2}% bound {:.0}% spread A {:.2}% B {:.2}% -> {}",
                metric.name,
                metric.unit,
                side(&va),
                side(&vb),
                change * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                stats::spread(&va) * 100.0,
                stats::spread(&vb) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
            failed |= verdict == Verdict::Regression;
        }
    }

    // Simulated counts and the fingerprint: exact, run by run.
    for ra in runs_a.iter().filter(|r| r.trace) {
        let Some(rb) = runs_b
            .iter()
            .find(|r| r.trace && r.workload == ra.workload && r.seed == ra.seed)
        else {
            continue;
        };
        for metric in spec.per_layer.iter().filter(|m| is_exact(m)) {
            let (va, vb) = (ra.metric(&metric.name), rb.metric(&metric.name));
            if va != vb {
                println!(
                    "{} seed {} {}: A {:?} != B {:?} -> MOVED",
                    ra.workload, ra.seed, metric.name, va, vb
                );
                failed = true;
            }
        }
        if ra.metric("host_cores") != rb.metric("host_cores") {
            println!(
                "{} seed {}: host_cores differ; thread-count layer metrics are not comparable",
                ra.workload, ra.seed
            );
        }
    }

    let share = |runs: &[Record]| {
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        failed as f64 / attempted.max(1) as f64
    };
    let (share_a, share_b) = (share(&runs_a), share(&runs_b));
    println!("failed_share A {share_a} B {share_b}");
    if share_b > share_a {
        println!("failed_share rose -> REGRESSION");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "ms".to_string(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_is_a_regression() {
        let lower = metric(Better::Lower, 0.10);
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&lower, &a, &[105.0, 106.0, 104.0, 105.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &a, &[115.0, 116.0, 114.0, 115.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(&lower, &a, &[90.0, 91.0, 89.0, 90.0]),
            Verdict::Better
        );
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(
            judge(&higher, &a, &[85.0, 86.0, 84.0, 85.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(&higher, &a, &[115.0, 116.0, 114.0, 115.0]),
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_separated() {
        let lower = metric(Better::Lower, 0.10);
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&lower, &noisy, &[150.0, 151.0, 149.0, 150.0]),
            Verdict::Unresolved
        );
        // Every run of B below every run of A: resolved despite the noise.
        assert_eq!(
            judge(&lower, &noisy, &[50.0, 51.0, 49.0, 50.0]),
            Verdict::Better
        );
    }

    #[test]
    fn exact_metrics_are_the_simulated_counts() {
        let named = |name: &str, unit: &str| MetricSpec {
            name: name.to_string(),
            unit: unit.to_string(),
            better: Better::Lower,
            bound: None,
        };
        assert!(is_exact(&named("sim.events", "count")));
        assert!(is_exact(&named("sim.fingerprint", "hash")));
        assert!(is_exact(&named("fault.dropped", "count")));
        assert!(!is_exact(&named("fault.apply_ns", "ns")));
        assert!(!is_exact(&named("ctrl.msg.calls", "count")));
    }
}
