//! `campaign21`: the `fig5-runtime` catalog through the campaign driver.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tc_system::experiment::figure5a_points;
use tc_system::{Campaign, CampaignEvent, ExperimentPoint, RunOptions, RunReport};
use tc_workloads::WorkloadProfile;

use crate::engine::{fingerprint_note, put_sim_counts, views};
use crate::refclock::{RefClock, SENSITIVITY};
use crate::result::{Checks, Metrics, RunResult};
use crate::sizes::*;
use crate::{host, replay, stats};

const NAME: &str = "campaign21";

fn options() -> RunOptions {
    RunOptions {
        ops_per_node: CAMPAIGN21_OPS,
        max_cycles: MAX_CYCLES,
        ..RunOptions::default()
    }
}

/// `figure5a_points` for each commercial workload, seeded from `seed`.
fn points(seed: u64) -> Vec<ExperimentPoint> {
    WorkloadProfile::commercial()
        .iter()
        .flat_map(figure5a_points)
        .map(|mut point| {
            point.label = format!("{} / {}", point.workload.name, point.label);
            point.config = point.config.with_seed(seed);
            point
        })
        .collect()
}

/// One pass through `Campaign::run_streaming` on `threads` workers.
struct Pass {
    wall_s: f64,
    /// Pass start to the first run handed to the sink.
    first_s: f64,
    reports: Vec<RunReport>,
    peak_reorder: usize,
}

fn run_pass(points: &[ExperimentPoint], threads: usize) -> Pass {
    let began = Instant::now();
    let mut first_s = None;
    let mut reports = Vec::with_capacity(points.len());
    let summary = Campaign::new(points.to_vec())
        .options(options())
        .threads(threads)
        .run_streaming(|_, run| {
            first_s.get_or_insert_with(|| began.elapsed().as_secs_f64());
            reports.push(run.report.clone());
        });
    Pass {
        wall_s: began.elapsed().as_secs_f64(),
        first_s: first_s.unwrap_or(0.0),
        reports,
        peak_reorder: summary.peak_reorder_buffer,
    }
}

fn check_pass(checks: &mut Checks, what: &str, pass: &Pass, reference: &[RunReport]) {
    checks.check(pass.reports.len() == reference.len(), || {
        format!(
            "{what}: {} runs streamed, {} submitted",
            pass.reports.len(),
            reference.len()
        )
    });
    crate::engine::check_pass(checks, what, &pass.reports, reference);
}

/// What `host::probed_peak_rss_mb` runs in its child: one set-up.
pub fn rss_probe(seed: u64, checks: &mut Checks) {
    let warm = run_pass(&points(seed), 1);
    check_pass(checks, "probe", &warm, &views(&warm.reports));
}

/// The untraced run: end-to-end metrics only, each timing at reference
/// speed. `Campaign` runs its points on a worker thread of its own, which
/// the reference loop on this thread speaks for only because the run is
/// pinned to one CPU (see `refclock`).
pub fn run_end_to_end(seed: u64, seconds: f64) -> RunResult {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut clock = RefClock::new(SENSITIVITY);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let timed = clock.timed(|| {
            let points = points(seed);
            let warm = run_pass(&points, 1);
            (points, warm)
        });
        setup_s.push(timed.at_reference_speed());
        last = Some(timed.value);
    }
    let (points, warm) = last.expect("at least one set-up");
    let reference = views(&warm.reports);
    check_pass(&mut checks, "warm-up", &warm, &reference);

    let mut ns_per_op = Vec::new();
    let mut raw_ns_per_op = Vec::new();
    let mut events_per_s = Vec::new();
    let mut first_ms = Vec::new();
    let began = Instant::now();
    while ns_per_op.len() < MIN_SAMPLES || began.elapsed().as_secs_f64() < seconds {
        let timed = clock.timed(|| run_pass(&points, 1));
        let pass = &timed.value;
        check_pass(&mut checks, "sample", pass, &reference);
        let ops: u64 = pass.reports.iter().map(|r| r.total_ops).sum();
        let events: u64 = pass.reports.iter().map(|r| r.engine.events_delivered).sum();
        let wall_s = pass.wall_s * timed.speed;
        raw_ns_per_op.push(pass.wall_s * 1e9 / ops.max(1) as f64);
        ns_per_op.push(wall_s * 1e9 / ops.max(1) as f64);
        events_per_s.push(events as f64 / wall_s);
        first_ms.push(pass.first_s * timed.speed * 1e3);
    }
    metrics.put("setup_s", stats::median(&setup_s));
    metrics.put("ns_per_op", stats::median(&ns_per_op));
    metrics.put("events_per_s", stats::median(&events_per_s));
    metrics.put("first_line_ms", stats::median(&first_ms));
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
            format!("samples {}", ns_per_op.len()),
            format!("host.speed {}", clock.median_speed()),
            format!("raw.ns_per_op {}", stats::median(&raw_ns_per_op)),
            fingerprint_note(&reference),
        ],
    }
}

/// The traced run: what the driver adds on top of its points.
pub fn run_traced(seed: u64, seconds: f64) -> RunResult {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    let points = points(seed);
    let warm = run_pass(&points, 1);
    let reference = views(&warm.reports);
    check_pass(&mut checks, "warm-up", &warm, &reference);
    put_sim_counts(&mut metrics, &mut notes, &warm.reports);

    // Driver overhead: the pass's wall minus the time its points report
    // for themselves, over as many buffered passes as fit in a fifth of
    // the run.
    let cpu_before = host::cpu_seconds();
    let began = Instant::now();
    let mut walls = Vec::new();
    let mut overheads = Vec::new();
    while walls.len() < MIN_SAMPLES || began.elapsed().as_secs_f64() < seconds / 5.0 {
        let in_points = Arc::new(Mutex::new(0.0f64));
        let sink = in_points.clone();
        let pass_began = Instant::now();
        let report = Campaign::new(points.clone())
            .options(options())
            .threads(1)
            .on_progress(move |event| {
                if let CampaignEvent::Finished { wall_seconds, .. } = event {
                    *sink.lock().expect("progress sink poisoned") += wall_seconds;
                }
            })
            .run();
        let wall = pass_began.elapsed().as_secs_f64();
        let reports: Vec<RunReport> = report.runs.into_iter().map(|run| run.report).collect();
        crate::engine::check_pass(&mut checks, "buffered pass", &reports, &reference);
        let in_points = *in_points.lock().expect("progress sink poisoned");
        walls.push(wall);
        overheads.push((wall - in_points) / wall);
    }
    let phase_s = began.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let t1_s = stats::median(&walls);
    metrics.put("pass.wall_s", t1_s);
    metrics.put("proc.cpu_s", cpu_s);
    metrics.put("proc.cpu_util", cpu_s / phase_s);
    metrics.put("campaign.driver_overhead_share", stats::median(&overheads));
    metrics.put("host_cores", host::cores() as f64);

    // Never more threads than cores: the two-thread pass needs two.
    if host::cores() >= 2 {
        let t2: Vec<Pass> = (0..MIN_SAMPLES).map(|_| run_pass(&points, 2)).collect();
        for pass in &t2 {
            check_pass(&mut checks, "threads(2)", pass, &reference);
        }
        let t2_s = stats::median(&t2.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let t1_streaming: Vec<f64> = (0..MIN_SAMPLES)
            .map(|_| run_pass(&points, 1).wall_s)
            .collect();
        metrics.put("campaign.t2_speedup", stats::median(&t1_streaming) / t2_s);
        metrics.put(
            "campaign.peak_reorder",
            t2.iter().map(|p| p.peak_reorder).max().unwrap_or(0) as f64,
        );
    }
    replay::whole_calls(&mut metrics, &points[0], &warm.reports[0]);
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
