//! `serve_mix`: an in-process `tc_serve::Server` under one closed-loop client.
//!
//! The client is the calling thread: it sends its next job only after the
//! previous one's `done` trailer arrived. Behind it the server runs one
//! worker. (The issue sized this at two clients and two workers; on the two
//! cores of the host this is checked on, each worker's campaign thread, the
//! clients, the accept loop and the connection threads were then timed by
//! the scheduler: two ten-run sets of one binary spread 0.30 and 0.08.)
//! Three phases: cold (distinct seeds, all misses), hot (the first cold
//! repetition's jobs resubmitted, all hits), overlap (jobs whose points are
//! part cached, part new). The end-to-end run spends its time on the cold
//! phase, the only one its metrics come from, and reports it at reference
//! speed (see `refclock`); the traced run spends it on the hot phase and
//! reports wall clock as measured.

use std::thread::JoinHandle;
use std::time::Instant;

use tc_serve::{
    cache_key, client, http, ResultCache, ServeOptions, ServeStats, Server, Submission,
    SubmitOutcome,
};
use tc_system::experiment::figure5a_points;
use tc_system::{run_to_json, ExperimentPoint, RunOptions, RunReport};
use tc_types::{JobPriority, Json};
use tc_workloads::WorkloadProfile;

use crate::engine::put_sim_counts;
use crate::refclock::{RefClock, Timed, SERVE_SENSITIVITY};
use crate::result::{Checks, Metrics, RunResult};
use crate::sizes::*;
use crate::{host, stats};

const NAME: &str = "serve_mix";
/// Resubmissions in a run that takes no timing from the hot phase: enough
/// to check every first job's hit lines against its cold lines.
const CHECK_HITS: usize = 2 * SERVE_COLD_JOBS;

/// How long the cold and hot phases go on.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// The cold phase repeats until this many seconds have passed.
    cold_s: f64,
    /// Fewest cold repetitions.
    min_cold: usize,
    /// Resubmissions the hot phase makes.
    hits: usize,
}

fn options() -> RunOptions {
    RunOptions {
        ops_per_node: SERVE_OPS,
        max_cycles: MAX_CYCLES,
        ..RunOptions::default()
    }
}

/// Hands out seeds no two jobs of a run share, so "cold" means cold.
struct JobSeeds {
    base: u64,
    next: u64,
}

impl JobSeeds {
    fn new(seed: u64) -> Self {
        JobSeeds {
            base: seed.wrapping_mul(1_000_003),
            next: 0,
        }
    }

    fn fresh(&mut self) -> u64 {
        self.next += 1;
        self.base.wrapping_add(self.next)
    }
}

/// The 7 `figure5a_points(oltp)` points with one seed.
fn job_points(seed: u64) -> Vec<ExperimentPoint> {
    figure5a_points(&WorkloadProfile::oltp())
        .into_iter()
        .map(|mut point| {
            point.config = point.config.with_seed(seed);
            point
        })
        .collect()
}

/// One job: its points and the JSON the client submits.
#[derive(Debug, Clone)]
struct Job {
    points: Vec<ExperimentPoint>,
    body: String,
}

impl Job {
    fn new(points: Vec<ExperimentPoint>) -> Job {
        let body = Submission {
            priority: JobPriority::Normal,
            options: options(),
            points: points.clone(),
        }
        .to_json();
        Job { points, body }
    }
}

/// The jobs of one cold repetition, each with seeds of its own.
fn cold_jobs(seeds: &mut JobSeeds) -> Vec<Job> {
    (0..SERVE_COLD_JOBS)
        .map(|_| Job::new(job_points(seeds.fresh())))
        .collect()
}

/// What one submission returned and when.
#[derive(Debug)]
struct Served {
    first_line_ms: f64,
    last_line_ms: f64,
    done_ms: f64,
    lines: Vec<String>,
    outcome: Result<SubmitOutcome, String>,
}

fn submit(addr: &str, job: &Job) -> Served {
    let began = Instant::now();
    let mut lines = Vec::with_capacity(job.points.len());
    let mut first_line_ms = 0.0;
    let mut last_line_ms = 0.0;
    let outcome = client::submit_json(addr, &job.body, |line| {
        last_line_ms = began.elapsed().as_secs_f64() * 1e3;
        if lines.is_empty() {
            first_line_ms = last_line_ms;
        }
        lines.push(line.to_string());
    });
    Served {
        first_line_ms,
        last_line_ms,
        done_ms: began.elapsed().as_secs_f64() * 1e3,
        lines,
        outcome: outcome.map_err(|e| e.message),
    }
}

/// Submits `jobs` in order, each between two readings of the reference
/// loop; returns the wall time of the whole round and every submission.
fn round(addr: &str, jobs: &[Job], clock: &mut RefClock) -> (f64, Vec<Timed<Served>>) {
    let began = Instant::now();
    let served = jobs
        .iter()
        .map(|job| clock.timed(|| submit(addr, job)))
        .collect();
    (began.elapsed().as_secs_f64(), served)
}

/// A running server and the thread it runs on.
struct Service {
    addr: String,
    thread: JoinHandle<std::io::Result<ServeStats>>,
}

impl Service {
    fn start() -> Service {
        let server = Server::bind(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_path: None,
        })
        .expect("bind 127.0.0.1:0");
        let addr = server.local_addr().expect("the bound address").to_string();
        Service {
            addr,
            thread: std::thread::spawn(move || server.run()),
        }
    }

    /// Drains the server and waits for its thread.
    fn stop(self, checks: &mut Checks) -> Option<ServeStats> {
        let asked = client::shutdown(&self.addr);
        checks.check(asked.is_ok(), || format!("shutdown refused: {asked:?}"));
        match self.thread.join() {
            Ok(Ok(stats)) => Some(stats),
            other => {
                checks.check(false, || format!("server did not drain cleanly: {other:?}"));
                None
            }
        }
    }
}

/// Checks one submission against what its phase must produce.
fn check_served(
    checks: &mut Checks,
    what: &str,
    served: &Served,
    job: &Job,
    ran: usize,
    expected_lines: Option<&[String]>,
) {
    let points = job.points.len();
    match &served.outcome {
        Ok(outcome) => checks.check(
            outcome.points == points && outcome.ran == ran && outcome.cache_hits == points - ran,
            || format!("{what}: outcome {outcome:?}, expected {ran} run of {points}"),
        ),
        Err(message) => checks.check(false, || format!("{what}: {message}")),
    }
    checks.check(served.lines.len() == points, || {
        format!("{what}: {} lines for {points} points", served.lines.len())
    });
    if let Some(expected) = expected_lines {
        checks.check(served.lines == expected, || {
            format!("{what}: served lines differ from the cold lines")
        });
    }
}

/// Sums a numeric field over served run lines.
fn sum_field(lines: &[String], key: &str) -> u64 {
    lines
        .iter()
        .filter_map(|line| Json::parse(line).ok())
        .filter_map(|line| line.get(key).and_then(Json::as_u64))
        .sum()
}

/// Everything the three phases measured. What the end-to-end run reports
/// (`setup_s`, `cold`, `cold_first_line_ms`) is at reference speed; the
/// rest, which the traced run reports, is wall clock as measured.
struct Phases {
    setup_s: Vec<f64>,
    /// The median speed factor those were rescaled by.
    host_speed: f64,
    /// Per cold job: seconds from connect to the `done` trailer, operations,
    /// events.
    cold: Vec<(f64, u64, u64)>,
    cold_first_line_ms: Vec<f64>,
    cold_repetitions: usize,
    cold_wall_s: f64,
    cold_last_line_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    hot_wall_s: f64,
    overlap_ms: Vec<f64>,
    points_submitted: usize,
    points_cached: usize,
    /// The first cold repetition, kept for the layer timings.
    first_jobs: Vec<Job>,
    first_reports: Vec<RunReport>,
}

/// Sets up, then drives the three phases as `plan` says. The server is
/// left running.
fn drive(seed: u64, plan: Plan, checks: &mut Checks) -> (Phases, Service) {
    let mut clock = RefClock::new(SERVE_SENSITIVITY);

    // Set-up: generate the first repetition's inputs, bind, start, and
    // push one warm-up job through. Earlier set-ups are torn down.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut last: Option<(Service, Vec<Job>, JobSeeds)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((service, ..)) = last.take() {
            let _: Option<ServeStats> = Service::stop(service, checks);
        }
        let timed = clock.timed(|| {
            let mut seeds = JobSeeds::new(seed);
            let warm = Job::new(job_points(seeds.fresh()));
            let first = cold_jobs(&mut seeds);
            let service = Service::start();
            let served = submit(&service.addr, &warm);
            check_served(checks, "warm-up", &served, &warm, warm.points.len(), None);
            (service, first, seeds)
        });
        setup_s.push(timed.at_reference_speed());
        last = Some(timed.value);
    }
    let (service, first_jobs, mut seeds) = last.expect("at least one set-up");
    let addr = service.addr.clone();
    let began = Instant::now();
    let mut points_submitted = 0;
    let mut points_cached = 0;

    // Cold: every point is new to the cache.
    let mut cold = Vec::new();
    let mut cold_repetitions = 0;
    let mut cold_wall_s = 0.0;
    let mut cold_first_line_ms = Vec::new();
    let mut cold_last_line_ms = Vec::new();
    let mut first_lines: Vec<Vec<String>> = Vec::new();
    while cold_repetitions < plan.min_cold || began.elapsed().as_secs_f64() < plan.cold_s {
        let jobs = if cold_repetitions == 0 {
            first_jobs.clone()
        } else {
            cold_jobs(&mut seeds)
        };
        let (wall_s, served) = round(&addr, &jobs, &mut clock);
        for (job, timed) in jobs.iter().zip(&served) {
            let one = &timed.value;
            check_served(checks, "cold", one, job, job.points.len(), None);
            cold.push((
                one.done_ms / 1e3 * timed.speed,
                sum_field(&one.lines, "total_ops"),
                sum_field(&one.lines, "events_delivered"),
            ));
            cold_first_line_ms.push(one.first_line_ms * timed.speed);
            cold_last_line_ms.push(one.last_line_ms);
            points_submitted += job.points.len();
        }
        if cold_repetitions == 0 {
            first_lines = served.into_iter().map(|timed| timed.value.lines).collect();
        }
        cold_repetitions += 1;
        cold_wall_s += wall_s;
    }

    // Hot: the first repetition again, round robin, all hits. No reference
    // loop in between: a hit is the accept loop's poll wait, and when the
    // next connect arrives decides how much of it is left.
    let hot_began = Instant::now();
    let mut hit_ms = Vec::with_capacity(plan.hits);
    for i in 0..plan.hits {
        let slot = i % first_jobs.len();
        let one = submit(&addr, &first_jobs[slot]);
        check_served(
            checks,
            "hot",
            &one,
            &first_jobs[slot],
            0,
            Some(&first_lines[slot]),
        );
        hit_ms.push(one.done_ms);
        points_submitted += first_jobs[slot].points.len();
        points_cached += first_jobs[slot].points.len();
    }
    let hot_wall_s = hot_began.elapsed().as_secs_f64();

    // Overlap: the first points of a cached job, the rest new.
    let overlap_jobs: Vec<Job> = (0..SERVE_OVERLAP_JOBS)
        .map(|i| {
            let cached = &first_jobs[i % first_jobs.len()].points;
            let keep = cached.len() / 2;
            let mut points = cached[..keep].to_vec();
            points.extend(job_points(seeds.fresh()).into_iter().skip(keep));
            Job::new(points)
        })
        .collect();
    let (_, served) = round(&addr, &overlap_jobs, &mut clock);
    let mut overlap_ms = Vec::new();
    for (job, timed) in overlap_jobs.iter().zip(&served) {
        let cached = job.points.len() / 2;
        check_served(
            checks,
            "overlap",
            &timed.value,
            job,
            job.points.len() - cached,
            None,
        );
        overlap_ms.push(timed.value.done_ms);
        points_submitted += job.points.len();
        points_cached += cached;
    }

    // Served bytes must equal a local run rendered by `run_to_json`.
    let mut first_reports = Vec::new();
    for (job, lines) in first_jobs.iter().zip(&first_lines) {
        for (point, line) in job.points.iter().zip(lines) {
            let report = point.run(options());
            checks.check(report.verified().is_ok(), || {
                format!("local {}: {:?}", point.label, report.violations)
            });
            checks.check(*line == run_to_json(&point.label, &report), || {
                format!(
                    "served line for {} differs from a local run_to_json",
                    point.label
                )
            });
            first_reports.push(report);
        }
    }

    let phases = Phases {
        setup_s,
        host_speed: clock.median_speed(),
        cold,
        cold_first_line_ms,
        cold_repetitions,
        cold_wall_s,
        cold_last_line_ms,
        hit_ms,
        hot_wall_s,
        overlap_ms,
        points_submitted,
        points_cached,
        first_jobs,
        first_reports,
    };
    (phases, service)
}

/// Drives `plan` and drains the server: the phases' samples, with every
/// check of a whole run made.
fn drive_and_stop(seed: u64, plan: Plan, checks: &mut Checks) -> Phases {
    let (phases, service) = drive(seed, plan, checks);
    let stats = service.stop(checks);
    checks.check(stats.is_some_and(|s| s.jobs_failed == 0), || {
        format!("server reports failed jobs: {stats:?}")
    });
    phases
}

/// What `host::probed_peak_rss_mb` runs in its child: one cold repetition,
/// a few hits, the overlap jobs.
pub fn rss_probe(seed: u64, checks: &mut Checks) {
    let plan = Plan {
        cold_s: 0.0,
        min_cold: 1,
        hits: CHECK_HITS,
    };
    drive_and_stop(seed, plan, checks);
}

/// The untraced run: end-to-end metrics only. The cold phase, which every
/// timed metric here comes from, gets nine tenths of `seconds` (overlap and
/// the local runs the served bytes are checked against take the rest); the
/// hot phase only checks hit lines against cold ones.
pub fn run_end_to_end(seed: u64, seconds: f64) -> RunResult {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let plan = Plan {
        cold_s: seconds * 0.9,
        min_cold: MIN_SAMPLES,
        hits: CHECK_HITS,
    };
    let phases = drive_and_stop(seed, plan, &mut checks);
    let per_job = |f: &dyn Fn(f64, u64, u64) -> f64| -> Vec<f64> {
        phases
            .cold
            .iter()
            .map(|&(done_s, ops, events)| f(done_s, ops, events))
            .collect()
    };
    metrics.put("setup_s", stats::median(&phases.setup_s));
    metrics.put(
        "ns_per_op",
        stats::median(&per_job(&|s, ops, _| s * 1e9 / ops.max(1) as f64)),
    );
    metrics.put(
        "events_per_s",
        stats::median(&per_job(&|s, _, events| events as f64 / s)),
    );
    metrics.put("first_line_ms", stats::median(&phases.cold_first_line_ms));
    match host::probed_peak_rss_mb(NAME, seed) {
        Ok(mb) => metrics.put("peak_rss_mb", mb),
        Err(why) => checks.check(false, || why),
    }
    RunResult {
        workload: NAME.to_string(),
        trace: false,
        checks,
        metrics,
        notes: vec![
            format!("cold_repetitions {}", phases.cold_repetitions),
            format!("cold_jobs {}", phases.cold.len()),
            format!("hit_samples {}", phases.hit_ms.len()),
            format!("host.speed {}", phases.host_speed),
        ],
    }
}

/// Median milliseconds of `repeats` runs of `body`.
fn median_ms(repeats: usize, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let began = Instant::now();
            body();
            began.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// The traced run: the service's phases seen from the client, and its
/// layers timed around their public functions with the cold payloads.
pub fn run_traced(seed: u64, results_dir: &std::path::Path) -> RunResult {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    // No end-to-end number comes from this run: one cold repetition and
    // the hot phase's floor are enough for the layer metrics.
    let plan = Plan {
        cold_s: 0.0,
        min_cold: 1,
        hits: SERVE_HITS,
    };
    let (phases, service) = drive(seed, plan, &mut checks);
    let addr = service.addr.clone();

    // Against the live server: the status page, and submit-to-ack on a job
    // that is fully cached.
    metrics.put(
        "http.status_ms",
        median_ms(20, || {
            let page = client::status(&addr);
            checks.check(page.is_ok(), || format!("status failed: {page:?}"));
        }),
    );
    let cached = &phases.first_jobs[0];
    let mut acks = Vec::new();
    for _ in 0..20 {
        let began = Instant::now();
        let mut ack_ms = None;
        let response = http::roundtrip(&addr, "POST", "/submit", cached.body.as_bytes(), |_| {
            ack_ms.get_or_insert_with(|| began.elapsed().as_secs_f64() * 1e3);
        });
        checks.check(response.as_ref().is_ok_and(|r| r.status == 200), || {
            format!("ack probe failed: {:?}", response.map(|r| r.status))
        });
        acks.extend(ack_ms);
    }
    metrics.put("serve.ack_ms", stats::median(&acks));
    let stats = service.stop(&mut checks);
    checks.check(stats.is_some_and(|s| s.jobs_failed == 0), || {
        format!("server reports failed jobs: {stats:?}")
    });

    let cold_points = phases.cold.len() * cached.points.len();
    let cold_wall_s = phases.cold_wall_s;
    metrics.put(
        "serve.last_line_ms",
        stats::median(&phases.cold_last_line_ms),
    );
    metrics.put("serve.cold_points_per_s", cold_points as f64 / cold_wall_s);
    metrics.put(
        "serve.hit_points_per_s",
        (phases.hit_ms.len() * cached.points.len()) as f64 / phases.hot_wall_s,
    );
    metrics.put("serve.overlap_ms", stats::median(&phases.overlap_ms));
    metrics.put(
        "serve.hit_rate",
        phases.points_cached as f64 / phases.points_submitted.max(1) as f64,
    );
    // The reporting rule: the median, plus the highest percentile with at
    // least ten samples beyond it — p95 needs 200 hits.
    let hits = phases.hit_ms.len();
    metrics.put("serve.hit_samples", hits as f64);
    metrics.put("serve.hit_ms", stats::median(&phases.hit_ms));
    checks.check(
        stats::highest_supported_percentile(hits).is_some_and(|p| p >= 95.0),
        || format!("{hits} hit samples cannot support a 95th percentile"),
    );
    metrics.put("serve.hit_p95_ms", stats::percentile(&phases.hit_ms, 95.0));

    // Layers, around their public functions, on the first repetition's
    // real payloads.
    let jobs = &phases.first_jobs;
    let points: usize = jobs.iter().map(|job| job.points.len()).sum();
    let bytes: usize = jobs.iter().map(|job| job.body.len()).sum();
    let per_point_us = |ms: f64| ms * 1e3 / points as f64;
    let mut parsed = Vec::new();
    metrics.put(
        "submission.parse_us_per_point",
        per_point_us(median_ms(5, || {
            parsed = jobs
                .iter()
                .filter_map(|job| Submission::parse(&job.body).ok())
                .collect();
        })),
    );
    checks.check(parsed.len() == jobs.len(), || {
        "a submitted body did not parse back".to_string()
    });
    metrics.put(
        "submission.to_json_us_per_point",
        per_point_us(median_ms(5, || {
            for submission in &parsed {
                std::hint::black_box(submission.to_json());
            }
        })),
    );
    metrics.put(
        "json.parse_mb_s",
        bytes as f64
            / 1e6
            / (median_ms(5, || {
                for job in jobs {
                    std::hint::black_box(Json::parse(&job.body).is_ok());
                }
            }) / 1e3),
    );
    let all_points: Vec<&ExperimentPoint> = jobs.iter().flat_map(|job| &job.points).collect();
    let mut keys = Vec::new();
    metrics.put(
        "cache.key_us",
        per_point_us(median_ms(5, || {
            keys = all_points
                .iter()
                .map(|point| cache_key(point, &options()))
                .collect();
        })),
    );
    let mut cache = ResultCache::new();
    metrics.put(
        "cache.insert_us",
        per_point_us(median_ms(5, || {
            cache = ResultCache::new();
            for (key, report) in keys.iter().zip(&phases.first_reports) {
                cache.insert(key.clone(), report.clone());
            }
        })),
    );
    metrics.put(
        "cache.lookup_us",
        per_point_us(median_ms(5, || {
            for key in &keys {
                std::hint::black_box(cache.lookup(key).is_some());
            }
        })),
    );
    checks.check(cache.len() == points && cache.misses == 0, || {
        "the result cache lost an entry it was given".to_string()
    });
    let path = results_dir.join(format!("{NAME}-seed{seed}.cache.snap"));
    if let Err(e) = std::fs::create_dir_all(results_dir) {
        checks.check(false, || format!("cannot create {results_dir:?}: {e}"));
    }
    metrics.put(
        "cache.persist_ms",
        median_ms(5, || {
            let persisted = cache.persist(&path);
            checks.check(persisted.is_ok(), || format!("persist: {persisted:?}"));
        }),
    );
    let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    metrics.put("cache.bytes_per_entry", file_bytes as f64 / points as f64);
    metrics.put(
        "cache.load_ms",
        median_ms(5, || {
            let (loaded, warning) = ResultCache::load_or_empty(&path);
            checks.check(loaded.len() == points && warning.is_none(), || {
                format!("reloaded {} of {points} entries: {warning:?}", loaded.len())
            });
        }),
    );
    let _ = std::fs::remove_file(&path);

    put_sim_counts(&mut metrics, &mut notes, &phases.first_reports);
    metrics.put("host_cores", host::cores() as f64);
    metrics.put(
        "failed_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    RunResult {
        workload: NAME.to_string(),
        trace: true,
        checks,
        metrics,
        notes,
    }
}
