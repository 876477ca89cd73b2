//! The campaign driver: one API that owns a *set* of experiment runs.
//!
//! Every evaluation artifact of the paper — a table, a figure, a sweep — is
//! a list of [`ExperimentPoint`]s run under the same [`RunOptions`]. A
//! [`Campaign`] executes such a list across OS threads: each point is an
//! independently seeded, self-contained simulation, so points are
//! embarrassingly parallel and the worker count changes *wall-clock only*,
//! never results. The returned [`CampaignReport`] holds the per-point
//! [`RunReport`]s in submission order (whatever order the workers finished
//! in); the tables the paper's figures are built from are declared in
//! [`crate::table`] and rendered from those runs, and each run serializes
//! to one JSON line through [`run_to_json`].
//!
//! ```no_run
//! use tc_system::campaign::Campaign;
//! use tc_system::experiment::table2_points;
//! use tc_system::table::RUNTIME;
//! use tc_system::RunOptions;
//!
//! let report = Campaign::new(table2_points())
//!     .options(RunOptions::smoke())
//!     .threads(4)
//!     .on_progress(|event| eprintln!("{event}"))
//!     .run();
//! assert_eq!(report.runs.len(), 3);
//! println!("{}", RUNTIME.render("Table 2 configurations", &report.runs));
//! ```
//!
//! # Determinism contract
//!
//! `threads(1)` and `threads(N)` produce bit-identical reports (including
//! the engine high-water marks and `events_delivered`): every point builds
//! its own `System` from `(config, workload)` with its own seed, no state is
//! shared between points, and reports are reassembled in submission order.
//! `tests/campaign.rs` pins this contract in CI.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tc_protocols::ProtocolRegistry;
use tc_types::{InvariantViolation, Json, Wire};

use crate::experiment::ExperimentPoint;
use crate::report::RunReport;
use crate::runner::RunOptions;

/// A progress notification delivered to [`Campaign::on_progress`] callbacks.
///
/// Callbacks run on the worker thread that produced the event, so with
/// `threads(N)` they must tolerate concurrent invocation (the bound is
/// `Send + Sync`).
#[derive(Debug, Clone, Copy)]
pub enum CampaignEvent<'a> {
    /// A worker picked up a point.
    Started {
        /// Submission-order index of the point.
        index: usize,
        /// Total number of points in the campaign.
        total: usize,
        /// The point's label.
        label: &'a str,
    },
    /// A worker finished a point.
    Finished {
        /// Submission-order index of the point.
        index: usize,
        /// Total number of points in the campaign.
        total: usize,
        /// The point's label.
        label: &'a str,
        /// Whether the run passed verification.
        ok: bool,
        /// Wall-clock seconds the point took.
        wall_seconds: f64,
    },
}

impl fmt::Display for CampaignEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignEvent::Started {
                index,
                total,
                label,
            } => write!(f, "[{}/{total}] running {label} ...", index + 1),
            CampaignEvent::Finished {
                index,
                total,
                label,
                ok,
                wall_seconds,
            } => write!(
                f,
                "[{}/{total}] {label}: {} in {wall_seconds:.1} s",
                index + 1,
                if *ok { "ok" } else { "VERIFICATION FAILED" }
            ),
        }
    }
}

/// A boxed progress callback; see [`Campaign::on_progress`].
type ProgressCallback = Box<dyn Fn(CampaignEvent<'_>) + Send + Sync>;

/// One completed run of a campaign: the point's label plus its report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// The experiment point's label.
    pub label: String,
    /// The measurements of the run.
    pub report: RunReport,
}

/// A builder-style driver that runs a list of [`ExperimentPoint`]s, possibly
/// across OS threads.
pub struct Campaign {
    points: Vec<ExperimentPoint>,
    options: RunOptions,
    threads: usize,
    registry: ProtocolRegistry,
    progress: Option<ProgressCallback>,
}

impl fmt::Debug for Campaign {
    // Manual: the boxed progress callback has no `Debug`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("points", &self.points.len())
            .field("options", &self.options)
            .field("threads", &self.threads)
            .field("registry", &self.registry)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Campaign {
    /// Creates a campaign over `points` with [`RunOptions::standard`]
    /// options, one worker thread per available core (capped at the point
    /// count), and the default protocol registry.
    pub fn new(points: Vec<ExperimentPoint>) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Campaign {
            points,
            options: RunOptions::standard(),
            threads: cores,
            registry: tc_protocols::default_registry().clone(),
            progress: None,
        }
    }

    /// Sets the run options applied to every point.
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the number of worker threads. `1` runs the points serially on
    /// the calling thread's schedule; any `N` produces bit-identical
    /// reports, only the wall-clock changes. Values are clamped to at least
    /// one.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Uses `registry` instead of the default protocol registry to construct
    /// controllers, so campaigns can sweep experimental protocol variants.
    pub fn registry(mut self, registry: ProtocolRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Installs a progress callback. It is invoked from worker threads, so
    /// with more than one thread it must tolerate concurrent calls.
    pub fn on_progress(
        mut self,
        callback: impl Fn(CampaignEvent<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// Runs every point and returns the collected reports in submission
    /// order: [`Campaign::run_streaming`] with a sink that keeps each run.
    pub fn run(self) -> CampaignReport {
        let mut runs = Vec::with_capacity(self.points.len());
        let summary = self.run_streaming(|_, run| runs.push(run.clone()));
        CampaignReport {
            runs,
            threads: summary.threads,
            wall_seconds: summary.wall_seconds,
        }
    }

    /// The worker pool: `workers` scoped threads claim points dynamically
    /// off a shared counter — so a campaign of unevenly sized points
    /// (64-node sweeps next to smoke runs) keeps all cores busy until the
    /// tail — emit the progress events, run each point hermetically, and
    /// hand `(index, report)` to `on_done` (invoked concurrently from worker
    /// threads; the caller synchronizes). The claim order affects only
    /// scheduling, never a report.
    fn execute(&self, workers: usize, on_done: &(impl Fn(usize, RunReport) + Sync)) {
        let total = self.points.len();
        let next = AtomicUsize::new(0);
        // The first panic in a point is caught, the other workers abort
        // their next claim, and the panic resurfaces with the failing
        // point's label attached — instead of a dead worker, survivors
        // grinding through every remaining point, and a thread-scope
        // re-panic that has lost which point failed.
        let abort = AtomicBool::new(false);
        let first_panic: Mutex<Option<(String, Box<dyn Any + Send>)>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let point = &self.points[index];
                    if let Some(progress) = &self.progress {
                        progress(CampaignEvent::Started {
                            index,
                            total,
                            label: &point.label,
                        });
                    }
                    let point_started = Instant::now();
                    let report = match catch_unwind(AssertUnwindSafe(|| {
                        point.run_with(self.options, &self.registry)
                    })) {
                        Ok(report) => report,
                        Err(payload) => {
                            abort.store(true, Ordering::Relaxed);
                            let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                            if slot.is_none() {
                                *slot = Some((point.label.clone(), payload));
                            }
                            break;
                        }
                    };
                    if let Some(progress) = &self.progress {
                        progress(CampaignEvent::Finished {
                            index,
                            total,
                            label: &point.label,
                            ok: report.verified().is_ok(),
                            wall_seconds: point_started.elapsed().as_secs_f64(),
                        });
                    }
                    on_done(index, report);
                });
            }
        });
        let first_panic = first_panic.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some((label, payload)) = first_panic {
            panic!(
                "campaign point '{label}' panicked: {}",
                panic_message(&*payload)
            );
        }
    }

    /// Runs every point and *streams* each completed [`CampaignRun`] to
    /// `sink` in submission order, dropping it as soon as the sink returns —
    /// the campaign never holds more than the out-of-order completion
    /// window of full `RunReport`s in memory, so thousand-point parameter
    /// scans stay flat. `sink` is called under a lock, one run at a time,
    /// from whichever worker thread completed the gap-filling point.
    pub fn run_streaming<F>(self, sink: F) -> CampaignSummary
    where
        F: FnMut(usize, &CampaignRun) + Send,
    {
        /// Puts worker completions back into submission order.
        struct Reorder<F> {
            next_emit: usize,
            /// Completed runs waiting for an earlier point to finish.
            pending: BTreeMap<usize, CampaignRun>,
            peak_pending: usize,
            sink: F,
        }

        let total = self.points.len();
        let workers = self.threads.min(total.max(1));
        let reorder = Mutex::new(Reorder {
            next_emit: 0,
            pending: BTreeMap::new(),
            peak_pending: 0,
            sink,
        });
        let started = Instant::now();

        self.execute(workers, &|index, report| {
            let label = self.points[index].label.clone();
            let mut guard = reorder.lock().unwrap_or_else(|e| e.into_inner());
            let reorder = &mut *guard;
            reorder.pending.insert(index, CampaignRun { label, report });
            reorder.peak_pending = reorder.peak_pending.max(reorder.pending.len());
            while let Some(run) = reorder.pending.remove(&reorder.next_emit) {
                (reorder.sink)(reorder.next_emit, &run);
                reorder.next_emit += 1;
            }
        });

        let reorder = reorder.into_inner().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(reorder.next_emit, total);
        CampaignSummary {
            points: total,
            threads: workers,
            wall_seconds: started.elapsed().as_secs_f64(),
            peak_reorder_buffer: reorder.peak_pending,
        }
    }
}

/// The message a caught panic carried (`panic!` payloads are a `&str` or a
/// `String`).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// What a streamed campaign ([`Campaign::run_streaming`]) knows that its
/// sink does not.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Number of points that ran.
    pub points: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock seconds for the whole campaign.
    pub wall_seconds: f64,
    /// Peak occupancy of the reorder buffer: the most completed runs ever
    /// held back waiting for an earlier point. Bounded by the worker count
    /// when the sink is the bottleneck. Scheduling-dependent — like
    /// `wall_seconds`, it is *excluded* from the determinism contract.
    pub peak_reorder_buffer: usize,
}

/// Everything a finished campaign measured: the per-point reports in
/// submission order, and how many threads ran them for how long.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-point runs, in the order the points were submitted.
    pub runs: Vec<CampaignRun>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock seconds for the whole campaign.
    pub wall_seconds: f64,
}

impl CampaignReport {
    /// `Ok` if every run passed verification; otherwise the first failing
    /// label and violation.
    ///
    /// # Errors
    ///
    /// Returns the label of the first unverified run plus its first
    /// violation.
    pub fn verified(&self) -> Result<(), (String, InvariantViolation)> {
        for run in &self.runs {
            if let Err(violation) = run.report.verified() {
                return Err((run.label.clone(), violation));
            }
        }
        Ok(())
    }
}

/// Serializes one run as a compact JSON object — the one machine-readable
/// form of a campaign's results. `tc-bench --runs-json` writes one line per
/// run and the campaign service streams the same lines verbatim, which is
/// what makes "served result == one-shot result" a *byte*-level contract
/// rather than a semantic one. Every field is a deterministic function of
/// the simulation (no wall-clock, no thread count).
pub fn run_to_json(label: &str, r: &RunReport) -> String {
    let mut members = vec![
        ("label", Json::Str(label.to_string())),
        ("protocol", r.protocol.to_json()),
        ("topology", r.topology.to_json()),
        ("workload", r.workload.to_json()),
        ("num_nodes", r.num_nodes.to_json()),
        ("runtime_cycles", r.runtime_cycles.to_json()),
        ("total_ops", r.total_ops.to_json()),
        ("total_transactions", r.total_transactions.to_json()),
        (
            "cycles_per_transaction",
            Json::fixed(r.cycles_per_transaction(), 2),
        ),
        ("misses", r.misses.total_misses().to_json()),
        (
            "avg_miss_latency_ns",
            Json::fixed(r.misses.average_miss_latency(), 2),
        ),
        ("miss_latency_p50_ns", r.miss_latency_p50.to_json()),
        ("miss_latency_p99_ns", r.miss_latency_p99.to_json()),
        ("miss_latency_max_ns", r.miss_latency_max.to_json()),
        ("completion_skew_ppm", r.completion_skew_ppm.to_json()),
        ("bytes_per_miss", Json::fixed(r.bytes_per_miss(), 2)),
        ("events_delivered", r.engine.events_delivered.to_json()),
        (
            "peak_state_entries",
            r.engine.state.total_entries().to_json(),
        ),
        ("peak_state_bytes", r.engine.state.state_bytes.to_json()),
        ("faults", r.faults.to_json()),
    ];
    if !r.faults.is_none() {
        let fs = &r.engine.faults;
        members.extend([
            ("faults_dropped", fs.dropped.to_json()),
            ("faults_duplicated", fs.duplicated.to_json()),
            ("faults_delayed", fs.delayed.to_json()),
            ("faults_reordered", fs.reordered.to_json()),
            ("faults_link_deferred", fs.link_deferred.to_json()),
            ("reissue_timeouts", fs.reissue_timeouts.to_json()),
            (
                "persistent_activations",
                fs.persistent_activations.to_json(),
            ),
            ("max_recovery_ns", fs.max_recovery_ns.to_json()),
        ]);
    }
    if !r.adversary.is_none() {
        let adv = &r.engine.adversary;
        members.extend([
            ("adversary", r.adversary.to_json()),
            ("adversary_reordered", adv.reordered.to_json()),
            ("adversary_targeted", adv.targeted.to_json()),
            ("adversary_stormed", adv.stormed.to_json()),
            ("adversary_max_skew_ns", adv.max_skew_ns.to_json()),
        ]);
    }
    members.push(("violations", r.violations.len().to_json()));
    Json::obj(members).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{ProtocolKind, SystemConfig};
    use tc_workloads::WorkloadProfile;

    fn small_points() -> Vec<ExperimentPoint> {
        ProtocolKind::ALL
            .iter()
            .map(|&protocol| {
                let mut config = SystemConfig::isca03_default()
                    .with_nodes(4)
                    .with_protocol(protocol)
                    .with_seed(7);
                config.l2.size_bytes = 256 * 1024;
                ExperimentPoint::new(
                    format!("{protocol}-smoke"),
                    config,
                    WorkloadProfile::specjbb(),
                )
            })
            .collect()
    }

    fn tiny_options() -> RunOptions {
        RunOptions {
            ops_per_node: 250,
            max_cycles: 20_000_000,
            ..RunOptions::default()
        }
    }

    #[test]
    fn campaign_preserves_submission_order_and_labels() {
        let points = small_points();
        let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
        let report = Campaign::new(points)
            .options(tiny_options())
            .threads(3)
            .run();
        let got: Vec<String> = report.runs.iter().map(|r| r.label.clone()).collect();
        assert_eq!(got, labels);
        assert!(report.verified().is_ok());
        assert_eq!(report.threads, 3);
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn progress_events_fire_once_per_point() {
        use std::sync::atomic::AtomicU64;
        let started = std::sync::Arc::new(AtomicU64::new(0));
        let finished = std::sync::Arc::new(AtomicU64::new(0));
        let (s, f) = (started.clone(), finished.clone());
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(2)
            .on_progress(move |event| match event {
                CampaignEvent::Started { .. } => {
                    s.fetch_add(1, Ordering::Relaxed);
                }
                CampaignEvent::Finished { ok, .. } => {
                    assert!(ok);
                    f.fetch_add(1, Ordering::Relaxed);
                }
            })
            .run();
        assert_eq!(started.load(Ordering::Relaxed), report.runs.len() as u64);
        assert_eq!(finished.load(Ordering::Relaxed), report.runs.len() as u64);
    }

    #[test]
    fn aggregates_are_normalized_against_the_first_point() {
        use crate::table::{MISS_LATENCY, RUNTIME, TRAFFIC};
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(1)
            .run();
        // A table is normalized against the first run of the slice it is
        // handed: the whole campaign, or one section of it.
        for runs in [&report.runs[..], &report.runs[1..]] {
            let table = RUNTIME.render("t", runs);
            let first_row = table.lines().nth(2).unwrap();
            assert!(first_row.starts_with(&runs[0].label), "{table}");
            assert!(first_row.contains(" 1.000 "), "{table}");
        }
        // The renderers must not panic and must mention every label.
        let text = format!(
            "{}{}{}",
            RUNTIME.render("runtime", &report.runs),
            TRAFFIC.render("traffic", &report.runs),
            MISS_LATENCY.render("latency", &report.runs)
        );
        for run in &report.runs {
            assert!(text.contains(&run.label));
        }
    }

    /// The crash-path contract: a panic inside one point must fail the
    /// campaign promptly and resurface naming the failing point — not
    /// strand the caller behind every remaining point and a label-less
    /// thread-scope re-panic.
    #[test]
    fn a_panicking_point_fails_fast_and_names_itself() {
        let mut points = small_points();
        // `System::build` panics on an invalid configuration; zero nodes is
        // reliably invalid.
        points.insert(
            1,
            ExperimentPoint::new(
                "explosive-point".to_string(),
                SystemConfig::isca03_default().with_nodes(0).with_seed(7),
                WorkloadProfile::specjbb(),
            ),
        );
        let payload = catch_unwind(AssertUnwindSafe(|| {
            Campaign::new(points)
                .options(tiny_options())
                .threads(2)
                .run()
        }))
        .expect_err("campaign must propagate the point's panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("explosive-point"),
            "panic must name the failing point, got: {message}"
        );
    }

    #[test]
    fn empty_campaign_is_a_no_op() {
        let report = Campaign::new(Vec::new()).threads(8).run();
        assert!(report.runs.is_empty());
        assert!(report.verified().is_ok());
        let summary = Campaign::new(Vec::new())
            .threads(8)
            .run_streaming(|_, _| {});
        assert_eq!(summary.points, 0);
    }

    /// `run` is `run_streaming` with a sink that keeps each run: at any
    /// thread count the sink sees every point once, in submission order,
    /// and `run` returns exactly those runs.
    #[test]
    fn streaming_runs_are_bit_identical_to_buffered() {
        for threads in [1usize, 3, 4] {
            let buffered = Campaign::new(small_points())
                .options(tiny_options())
                .threads(threads)
                .run();
            let mut seen = Vec::new();
            let summary = Campaign::new(small_points())
                .options(tiny_options())
                .threads(threads)
                .run_streaming(|index, run| seen.push((index, run.clone())));
            assert_eq!(
                seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                (0..small_points().len()).collect::<Vec<_>>(),
                "threads={threads}"
            );
            let streamed: Vec<CampaignRun> = seen.into_iter().map(|(_, run)| run).collect();
            assert_eq!(streamed, buffered.runs, "threads={threads}");
            assert_eq!(summary.points, buffered.runs.len());
            assert_eq!(summary.threads, buffered.threads);
        }
    }

    #[test]
    fn json_carries_the_state_plane_fields() {
        let mut points = small_points();
        points.truncate(1);
        let report = Campaign::new(points)
            .options(tiny_options())
            .threads(1)
            .run();
        let run = &report.runs[0];
        let line = run_to_json(&run.label, &run.report);
        assert!(line.contains("\"peak_state_bytes\":"));
        assert!(line.contains("\"peak_state_entries\":"));
        assert!(run.report.engine.state.state_bytes > 0);
        assert!(run.report.engine.state.mshr_peak > 0);
    }

    #[test]
    fn json_is_structurally_balanced_and_carries_the_runs() {
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(2)
            .run();
        for run in &report.runs {
            let line = run_to_json(&run.label, &run.report);
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert_eq!(line.matches('[').count(), line.matches(']').count());
            assert!(line.starts_with(&format!("{{\"label\":\"{}\",", run.label)));
            assert!(line.contains(&format!(
                "\"events_delivered\":{},",
                run.report.engine.events_delivered
            )));
            assert!(line.ends_with(&format!("\"violations\":{}}}", run.report.violations.len())));
        }
    }

    #[test]
    fn json_escapes_quotes_and_backslashes_in_labels() {
        let report = small_points()[0].run(RunOptions {
            ops_per_node: 20,
            ..tiny_options()
        });
        let line = run_to_json("a \"quoted\\label\"\n", &report);
        assert!(
            line.starts_with("{\"label\":\"a \\\"quoted\\\\label\\\"\\n\",\"protocol\":"),
            "{line}"
        );
    }

    /// The slow-sink contract: when the consumer lags the workers, the
    /// reorder buffer must stay bounded by the worker count (workers block
    /// on the emitter lock rather than piling completed runs up without
    /// limit), and delivery must still be exactly-once in submission order.
    #[test]
    fn streaming_reorder_buffer_stays_bounded_under_a_slow_sink() {
        let points = small_points();
        let expected: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
        let threads = 4usize;
        let seen = Mutex::new(Vec::new());
        let summary = Campaign::new(points)
            .options(tiny_options())
            .threads(threads)
            .run_streaming(|index, run| {
                // Lag the consumer: every worker finishes its point before
                // the first emitted run leaves the sink.
                std::thread::sleep(std::time::Duration::from_millis(100));
                seen.lock().unwrap().push((index, run.label.clone()));
            });
        let seen = seen.into_inner().unwrap();
        assert_eq!(
            seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            (0..expected.len()).collect::<Vec<_>>()
        );
        for ((_, label), want) in seen.iter().zip(&expected) {
            assert_eq!(label, want);
        }
        assert!(
            summary.peak_reorder_buffer <= threads,
            "reorder buffer held {} runs with only {} workers",
            summary.peak_reorder_buffer,
            threads
        );
    }

    /// The run line's writer and the workspace's JSON reader agree: every
    /// line parses, and re-serializes byte-identically (the reader
    /// preserves member order and raw number tokens).
    #[test]
    fn campaign_json_parses_and_reserializes_byte_identically() {
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(2)
            .run();
        for run in &report.runs {
            let line = run_to_json(&run.label, &run.report);
            let parsed = Json::parse(&line).expect("run line must parse");
            assert_eq!(parsed.to_string(), line);
            assert_eq!(
                parsed.get("label").and_then(Json::as_str),
                Some(run.label.as_str())
            );
        }
    }

    /// The snapshot-plane contract for full reports: a `RunReport` must
    /// survive save_state -> load_state exactly (every field participates
    /// in `PartialEq`).
    #[test]
    fn run_report_round_trips_through_the_snapshot_codec() {
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(1)
            .run();
        for run in &report.runs {
            tc_testkit::assert_snap_round_trip(&run.report);
        }
    }
}
