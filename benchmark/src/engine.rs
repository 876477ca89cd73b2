//! The four engine workloads (`pin4`, `paper16`, `scale64`, `contended16`):
//! lists of experiment points run back to back on the serial engine.

use std::time::Instant;

use tc_sim::SnapWriter;
use tc_system::{ExperimentPoint, RunOptions, RunReport, System};
use tc_types::{AdversarySpec, FaultSpec, ProtocolKind, SystemConfig, TopologyKind};
use tc_workloads::WorkloadProfile;

use crate::refclock::{RefClock, SENSITIVITY};
use crate::result::{Checks, Metrics, RunResult};
use crate::sizes::*;
use crate::{host, replay, stats, trace};

/// One engine workload: its points and the options they all run under.
#[derive(Debug, Clone)]
pub struct EngineWorkload {
    pub points: Vec<ExperimentPoint>,
    pub options: RunOptions,
}

fn options(ops_per_node: u64) -> RunOptions {
    RunOptions {
        ops_per_node,
        max_cycles: MAX_CYCLES,
        ..RunOptions::default()
    }
}

/// The paper's Table 1 system with this run's seed.
fn table1(seed: u64) -> SystemConfig {
    SystemConfig::isca03_default().with_seed(seed)
}

/// Generates the named engine workload from `seed`. `adversary` is
/// `AdversarySpec::none()` except in the teeth test.
pub fn workload(name: &str, seed: u64, adversary: AdversarySpec) -> Option<EngineWorkload> {
    let tokenb_torus = |nodes: usize| {
        table1(seed)
            .with_nodes(nodes)
            .with_protocol(ProtocolKind::TokenB)
            .with_topology(TopologyKind::Torus)
    };
    let (points, options) = match name {
        "pin4" => (
            vec![ExperimentPoint::new(
                "TokenB-Torus-4p",
                tokenb_torus(4),
                WorkloadProfile::oltp(),
            )],
            options(PIN4_OPS),
        ),
        "paper16" => (
            [
                (ProtocolKind::TokenB, TopologyKind::Torus),
                (ProtocolKind::Snooping, TopologyKind::Tree),
                (ProtocolKind::Directory, TopologyKind::Torus),
                (ProtocolKind::Hammer, TopologyKind::Torus),
            ]
            .into_iter()
            .map(|(protocol, topology)| {
                ExperimentPoint::new(
                    format!("{protocol}-{topology:?}"),
                    table1(seed).with_protocol(protocol).with_topology(topology),
                    WorkloadProfile::oltp(),
                )
            })
            .collect(),
            options(PAPER16_OPS),
        ),
        "scale64" => (
            vec![ExperimentPoint::new(
                "TokenB-Torus-64p",
                tokenb_torus(64),
                WorkloadProfile::oltp(),
            )],
            options(SCALE64_OPS),
        ),
        "contended16" => (
            vec![ExperimentPoint::new(
                "TokenB-Torus-hot",
                tokenb_torus(16),
                WorkloadProfile::hot_block(),
            )],
            options(CONTENDED16_OPS).with_faults(
                FaultSpec::parse(CONTENDED16_FAULTS).expect("the contended16 fault spec parses"),
            ),
        ),
        _ => return None,
    };
    Some(EngineWorkload {
        points,
        options: options.with_adversary(adversary),
    })
}

/// One pass over a workload's points.
#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    /// Wall time of each point (build plus run).
    pub point_s: Vec<f64>,
    pub reports: Vec<RunReport>,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        self.reports.iter().map(|r| r.total_ops).sum()
    }

    pub fn events(&self) -> u64 {
        self.reports.iter().map(|r| r.engine.events_delivered).sum()
    }
}

/// Runs every point through the public `ExperimentPoint::run`.
pub fn run_pass(workload: &EngineWorkload) -> Pass {
    let began = Instant::now();
    let mut point_s = Vec::with_capacity(workload.points.len());
    let mut reports = Vec::with_capacity(workload.points.len());
    for point in &workload.points {
        let point_began = Instant::now();
        reports.push(point.run(workload.options));
        point_s.push(point_began.elapsed().as_secs_f64());
    }
    Pass {
        wall_s: began.elapsed().as_secs_f64(),
        point_s,
        reports,
    }
}

/// The determinism views of a pass, the reference later passes must equal.
pub fn views(reports: &[RunReport]) -> Vec<RunReport> {
    reports.iter().map(RunReport::determinism_view).collect()
}

/// FNV-1a over the full serialized determinism views, in order.
pub fn fingerprint(views: &[RunReport]) -> u64 {
    let mut w = SnapWriter::new();
    for view in views {
        view.save_state(&mut w);
    }
    tc_sim::fnv1a64(&w.into_bytes())
}

/// Why a report with violations failed: how many, and the first.
fn violations(what: &str, point: usize, report: &RunReport) -> String {
    format!(
        "{what}: point {point} has {} violations, first {:?}",
        report.violations.len(),
        report.violations.first()
    )
}

/// The full-width fingerprint, as a `workload key value` note.
pub fn fingerprint_note(views: &[RunReport]) -> String {
    format!("sim.fingerprint_hex {:016x}", fingerprint(views))
}

/// Checks one pass: every report verified, and equal to the reference.
pub fn check_pass(checks: &mut Checks, what: &str, reports: &[RunReport], reference: &[RunReport]) {
    for (i, report) in reports.iter().enumerate() {
        checks.check(report.verified().is_ok(), || violations(what, i, report));
        checks.check(reference.get(i) == Some(&report.determinism_view()), || {
            format!("{what}: point {i} differs from the warm-up pass's determinism view")
        });
    }
}

/// The exact counts a pure performance change must not move.
pub fn put_sim_counts(metrics: &mut Metrics, notes: &mut Vec<String>, reports: &[RunReport]) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).max().unwrap_or(0) as f64;
    let mean = |f: &dyn Fn(&RunReport) -> u64| sum(f) / reports.len().max(1) as f64;
    let events = sum(&|r| r.engine.events_delivered);
    let ops = sum(&|r| r.total_ops);
    let misses = sum(&|r| r.misses.total_misses());
    let reissue_total = sum(&|r| r.reissue.total());
    metrics.put("sim.events", events);
    metrics.put("sim.ops", ops);
    metrics.put("sim.events_per_op", events / ops.max(1.0));
    metrics.put(
        "sim.cycles_per_op",
        sum(&|r| r.runtime_cycles * r.num_nodes as u64) / ops.max(1.0),
    );
    metrics.put("sim.misses", misses);
    metrics.put(
        "sim.bytes_per_miss",
        sum(&|r| r.traffic.total_link_bytes()) / misses.max(1.0),
    );
    metrics.put(
        "sim.reissued_share",
        sum(&|r| r.reissue.total() - r.reissue.not_reissued) / reissue_total.max(1.0),
    );
    metrics.put(
        "sim.persistent_activations",
        sum(&|r| r.controllers.persistent_requests_initiated),
    );
    metrics.put("sim.miss_latency_p50", mean(&|r| r.miss_latency_p50));
    metrics.put("sim.miss_latency_p99", mean(&|r| r.miss_latency_p99));
    metrics.put("sim.peak_queue_depth", max(&|r| r.engine.peak_queue_depth));
    metrics.put("sim.peak_arena", max(&|r| r.engine.peak_arena_occupancy));
    metrics.put("sim.peak_state_bytes", max(&|r| r.engine.state.state_bytes));
    metrics.put("fault.dropped", sum(&|r| r.engine.faults.dropped));
    metrics.put("fault.duplicated", sum(&|r| r.engine.faults.duplicated));
    metrics.put("fault.reordered", sum(&|r| r.engine.faults.reordered));
    let views = views(reports);
    // A JSON number is a double: 52 bits of the digest survive exactly.
    metrics.put(
        "sim.fingerprint",
        (fingerprint(&views) & ((1 << 52) - 1)) as f64,
    );
    notes.push(fingerprint_note(&views));
}

/// Runs the house pin and fails unless it delivers exactly 317430 events.
fn house_pin(checks: &mut Checks, notes: &mut Vec<String>) {
    let config = SystemConfig::isca03_default()
        .with_nodes(4)
        .with_protocol(ProtocolKind::TokenB)
        .with_seed(HOUSE_PIN_SEED);
    let report = System::build(&config, &WorkloadProfile::oltp()).run(options(HOUSE_PIN_OPS));
    let events = report.engine.events_delivered;
    notes.push(format!("events_delivered {events}"));
    checks.check(events == HOUSE_PIN_EVENTS, || {
        format!("house pin delivered {events} events, not {HOUSE_PIN_EVENTS}")
    });
}

/// Sets the workload up [`SETUP_REPEATS`] times — generate the inputs, run
/// the warm-up pass (which holds the first `System::build`) — and returns
/// the last set-up with every repetition's duration at reference speed.
fn set_up(
    name: &str,
    seed: u64,
    adversary: AdversarySpec,
    clock: &mut RefClock,
    checks: &mut Checks,
) -> (EngineWorkload, Pass, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let timed = clock.timed(|| {
            let workload = workload(name, seed, adversary).expect("an engine workload name");
            let warm = run_pass(&workload);
            (workload, warm)
        });
        setup_s.push(timed.at_reference_speed());
        last = Some(timed.value);
    }
    let (workload, warm) = last.expect("at least one set-up");
    for (i, report) in warm.reports.iter().enumerate() {
        checks.check(report.verified().is_ok(), || {
            violations("warm-up", i, report)
        });
    }
    (workload, warm, setup_s)
}

/// The untraced run: end-to-end metrics only, each timing at reference
/// speed (see `refclock`).
pub fn run_end_to_end(name: &str, seed: u64, seconds: f64, adversary: AdversarySpec) -> RunResult {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    if name == "pin4" {
        house_pin(&mut checks, &mut notes);
    }
    let mut clock = RefClock::new(SENSITIVITY);
    let (workload, warm, setup_s) = set_up(name, seed, adversary, &mut clock, &mut checks);
    let reference = views(&warm.reports);
    drop(warm);

    let mut ns_per_op = Vec::new();
    let mut raw_ns_per_op = Vec::new();
    let mut events_per_s = Vec::new();
    let mut first_ms = Vec::new();
    let began = Instant::now();
    while ns_per_op.len() < MIN_SAMPLES || began.elapsed().as_secs_f64() < seconds {
        let timed = clock.timed(|| run_pass(&workload));
        let pass = &timed.value;
        check_pass(&mut checks, "sample", &pass.reports, &reference);
        raw_ns_per_op.push(timed.wall_s * 1e9 / pass.ops().max(1) as f64);
        let wall_s = timed.at_reference_speed();
        ns_per_op.push(wall_s * 1e9 / pass.ops().max(1) as f64);
        events_per_s.push(pass.events() as f64 / wall_s);
        first_ms.push(pass.point_s[0] * timed.speed * 1e3);
    }
    metrics.put("setup_s", stats::median(&setup_s));
    metrics.put("ns_per_op", stats::median(&ns_per_op));
    metrics.put("events_per_s", stats::median(&events_per_s));
    metrics.put("first_line_ms", stats::median(&first_ms));
    metrics.put("peak_rss_mb", host::peak_rss_mb());
    notes.push(format!("samples {}", ns_per_op.len()));
    notes.push(format!("host.speed {}", clock.median_speed()));
    notes.push(format!("raw.ns_per_op {}", stats::median(&raw_ns_per_op)));
    notes.push(fingerprint_note(&reference));
    RunResult {
        workload: name.to_string(),
        trace: false,
        checks,
        metrics,
        notes,
    }
}

/// Lower-case protocol name, for per-protocol metric names.
fn protocol_key(kind: ProtocolKind) -> String {
    kind.name().to_ascii_lowercase()
}

/// One point run through the timed registry inside a run span.
fn traced_point(
    point: &ExperimentPoint,
    options: RunOptions,
    mode: trace::Mode,
) -> (RunReport, trace::Recording) {
    trace::start(mode);
    let mut system = System::build_with(&point.config, &point.workload, &trace::timed_registry());
    let report = trace::run_span(|| system.run(options));
    (report, trace::finish())
}

/// The traced run: per-layer metrics only. Untraced samples first (the
/// baseline the tracing overhead is measured against), then one pass with
/// spans, one pass recording sends, and the isolation replays.
pub fn run_traced(name: &str, seed: u64, seconds: f64, results_dir: &std::path::Path) -> RunResult {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    if name == "pin4" {
        house_pin(&mut checks, &mut notes);
    }
    let workload = workload(name, seed, AdversarySpec::none()).expect("an engine workload name");
    let warm = run_pass(&workload);
    let reference = views(&warm.reports);
    check_pass(&mut checks, "warm-up", &warm.reports, &reference);
    put_sim_counts(&mut metrics, &mut notes, &warm.reports);

    // Untraced baseline: a fifth of the run's time, at least MIN_SAMPLES.
    let mut clock = RefClock::new(SENSITIVITY);
    let cpu_before = host::cpu_seconds();
    let began = Instant::now();
    let mut walls = Vec::new();
    let mut point_walls: Vec<Vec<f64>> = vec![Vec::new(); workload.points.len()];
    while walls.len() < MIN_SAMPLES || began.elapsed().as_secs_f64() < seconds / 5.0 {
        let pass = clock.timed(|| run_pass(&workload)).value;
        check_pass(&mut checks, "untraced", &pass.reports, &reference);
        walls.push(pass.wall_s);
        for (per_point, s) in point_walls.iter_mut().zip(&pass.point_s) {
            per_point.push(*s);
        }
    }
    let phase_s = began.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let untraced_s = stats::median(&walls);
    metrics.put("pass.wall_s", untraced_s);
    metrics.put("proc.cpu_s", cpu_s);
    metrics.put("proc.cpu_util", cpu_s / phase_s);
    metrics.put("host_cores", host::cores() as f64);
    metrics.put("host.speed", clock.median_speed());
    if workload.points.len() > 1 {
        for ((point, report), per_point) in
            workload.points.iter().zip(&warm.reports).zip(&point_walls)
        {
            metrics.put(
                &format!("point.ns_per_op.{}", protocol_key(point.config.protocol)),
                stats::median(per_point) * 1e9 / report.total_ops.max(1) as f64,
            );
        }
    }

    // Span pass.
    let cal = trace::calibrate(200_000);
    metrics.put("trace.span_cost_ns", cal.span_cost_ns);
    let traced_began = Instant::now();
    let mut spans_by_point = Vec::new();
    for (i, point) in workload.points.iter().enumerate() {
        let (report, recording) = traced_point(point, workload.options, trace::Mode::Spans);
        check_pass(&mut checks, "traced", &[report], &reference[i..=i]);
        spans_by_point.push(recording.spans);
    }
    let traced_s = traced_began.elapsed().as_secs_f64();
    metrics.put("trace.overhead_share", (traced_s - untraced_s) / untraced_s);

    let breakdowns: Vec<trace::Breakdown> = spans_by_point
        .iter()
        .map(|spans| trace::Breakdown::of(spans, cal))
        .collect();
    let total_net: f64 = breakdowns.iter().map(|b| b.total_net_ns).sum();
    let events: f64 = warm.events() as f64;
    let mut ctrl_share = 0.0;
    for (key, pick) in [
        (
            "access",
            (|b| b.access) as fn(&trace::Breakdown) -> trace::KindTotal,
        ),
        ("msg", |b| b.msg),
        ("timer", |b| b.timer),
    ] {
        let calls: u64 = breakdowns.iter().map(|b| pick(b).calls).sum();
        let net: f64 = breakdowns.iter().map(|b| b.net_ns(pick(b), cal)).sum();
        metrics.put(&format!("ctrl.{key}.calls"), calls as f64);
        metrics.put(
            &format!("ctrl.{key}.ns_per_call"),
            net / calls.max(1) as f64,
        );
        metrics.put(&format!("ctrl.{key}.share"), net / total_net);
        ctrl_share += net / total_net;
    }
    if workload.points.len() > 1 {
        for (point, b) in workload.points.iter().zip(&breakdowns) {
            metrics.put(
                &format!("ctrl.share.{}", protocol_key(point.config.protocol)),
                b.ctrl_net_ns(cal) / b.total_net_ns,
            );
        }
    }
    let runner_self: f64 = breakdowns.iter().map(|b| b.runner_self_ns).sum();
    metrics.put("runner.self_ns_per_event", runner_self / events);

    // Sends pass, then the replays that split the runner's self time.
    let mut costs = replay::RunnerCosts::default();
    for (i, point) in workload.points.iter().enumerate() {
        let (report, recording) = traced_point(point, workload.options, trace::Mode::Sends);
        check_pass(
            &mut checks,
            "sends pass",
            std::slice::from_ref(&report),
            &reference[i..=i],
        );
        costs.add(&replay::runner_layers(
            point,
            &workload.options,
            &report,
            recording,
        ));
    }
    costs.put(&mut metrics, total_net);
    metrics.put(
        "runner.unattributed_share",
        1.0 - ctrl_share - costs.est_share_sum(total_net),
    );
    replay::controller_children(&mut metrics, &workload.points[0]);
    replay::whole_calls(&mut metrics, &workload.points[0], &warm.reports[0]);

    if name == "pin4" {
        replay::snapshot_round_trip(
            &mut metrics,
            &mut checks,
            &workload.points[0],
            workload.options,
            &warm.reports[0],
        );
    }
    if name == "scale64" {
        replay::sharded_engine(&mut metrics, &mut checks, &workload.points[0]);
    }

    metrics.put(
        "failed_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    let path = results_dir.join(format!("{name}-seed{seed}.spans.tsv"));
    if let Err(e) = std::fs::create_dir_all(results_dir)
        .and_then(|()| trace::write_spans(&path, &spans_by_point, SPANS_WRITTEN_PER_POINT))
    {
        eprintln!("{name}: could not write {}: {e}", path.display());
    }
    RunResult {
        workload: name.to_string(),
        trace: true,
        checks,
        metrics,
        notes,
    }
}
