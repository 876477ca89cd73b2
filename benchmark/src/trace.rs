//! Tracing from outside the program: spans around every controller call.
//!
//! [`TimedController`] wraps a stock controller and forwards every trait
//! method. Registered through `ProtocolRegistry` under the stock
//! `ProtocolKind`s, it lets `System::build_with` assemble an otherwise
//! unmodified system whose `access` / `handle_message` / `handle_timer`
//! calls are each recorded as a span whose parent is the enclosing
//! `System::run` span. A second recording mode keeps no clock at all and
//! instead copies the `(time, Message)` stream the controllers put in their
//! outboxes, which the isolation replays feed back through each layer.
//!
//! `ProtocolFactory` is a plain `fn`, so the wrapper cannot capture a sink;
//! spans go to a thread-local recorder. The serial engine calls its
//! controllers on the thread that called `System::run`, which is all the
//! traced pass uses.

use std::cell::RefCell;
use std::time::Instant;

use tc_protocols::ProtocolRegistry;
use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{
    AccessOutcome, BlockAddr, BlockAudit, CoherenceController, ControllerStats, Cycle,
    LineStateStats, MemOp, Message, NodeId, Outbox, ProtocolKind, SystemConfig, Timer,
};

/// The most `(time, Message)` records one pass keeps for the replays.
pub const SEND_RECORD_CAP: usize = 2_000_000;

/// What the recorder keeps during a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Wall-clock spans around controller calls.
    Spans,
    /// The messages controllers emit, without reading any clock.
    Sends,
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `System::run` call.
    Run,
    /// One `CoherenceController::access` call.
    Access,
    /// One `CoherenceController::handle_message` call.
    Msg,
    /// One `CoherenceController::handle_timer` call.
    Timer,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Access => "access",
            SpanKind::Msg => "msg",
            SpanKind::Timer => "timer",
        }
    }
}

/// Marks a span that nothing caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Its identifier is its index in the recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    pub kind: SpanKind,
    pub node: u16,
    /// Nanoseconds since the recording started.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one recording holds.
#[derive(Debug)]
pub struct Recording {
    pub spans: Vec<Span>,
    /// `(time handed to the fabric, message)`, at most [`SEND_RECORD_CAP`].
    pub sends: Vec<(Cycle, Message)>,
    /// Messages seen, including those beyond the cap.
    pub sends_seen: u64,
}

struct Recorder {
    mode: Mode,
    epoch: Instant,
    open_run: u32,
    recording: Recording,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts a fresh recording on this thread.
pub fn start(mode: Mode) {
    RECORDER.with(|slot| {
        *slot.borrow_mut() = Some(Recorder {
            mode,
            epoch: Instant::now(),
            open_run: NO_PARENT,
            recording: Recording {
                spans: Vec::new(),
                sends: Vec::new(),
                sends_seen: 0,
            },
        });
    });
}

/// Ends this thread's recording and hands it over.
pub fn finish() -> Recording {
    RECORDER
        .with(|slot| slot.borrow_mut().take())
        .expect("trace::finish without trace::start")
        .recording
}

fn current_mode() -> Option<Mode> {
    RECORDER.with(|slot| slot.borrow().as_ref().map(|r| r.mode))
}

/// Runs `body` inside a [`SpanKind::Run`] span; controller spans recorded
/// meanwhile name it as their parent.
pub fn run_span<T>(body: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let rec = slot.as_mut().expect("trace::run_span without trace::start");
        let id = rec.recording.spans.len() as u32;
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.recording.spans.push(Span {
            parent: NO_PARENT,
            kind: SpanKind::Run,
            node: 0,
            start_ns: now,
            end_ns: now,
        });
        rec.open_run = id;
        id
    });
    let value = body();
    RECORDER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let rec = slot.as_mut().expect("recorder vanished inside run_span");
        rec.recording.spans[opened as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.open_run = NO_PARENT;
    });
    value
}

#[inline]
fn record_span(kind: SpanKind, node: u16, start: Instant, end: Instant) {
    RECORDER.with(|slot| {
        if let Some(rec) = slot.borrow_mut().as_mut() {
            let start_ns = start.duration_since(rec.epoch).as_nanos() as u64;
            let end_ns = end.duration_since(rec.epoch).as_nanos() as u64;
            rec.recording.spans.push(Span {
                parent: rec.open_run,
                kind,
                node,
                start_ns,
                end_ns,
            });
        }
    });
}

#[inline]
fn record_sends(now: Cycle, sent: &[Message]) {
    if sent.is_empty() {
        return;
    }
    RECORDER.with(|slot| {
        if let Some(rec) = slot.borrow_mut().as_mut() {
            for msg in sent {
                rec.recording.sends_seen += 1;
                if rec.recording.sends.len() < SEND_RECORD_CAP {
                    // The runner hands a message to the fabric at
                    // `max(sent_at, now)`.
                    rec.recording
                        .sends
                        .push((msg.sent_at.max(now), msg.clone()));
                }
            }
        }
    });
}

/// A controller that records a span (or its sends) per driven call and
/// otherwise behaves exactly as the controller it wraps.
#[derive(Debug)]
pub struct TimedController {
    inner: Box<dyn CoherenceController>,
    /// `None` when built outside a recording: a pure pass-through.
    mode: Option<Mode>,
    node: u16,
}

impl TimedController {
    /// Wraps `inner`, recording in whatever mode this thread's recording
    /// is in right now.
    pub fn new(inner: Box<dyn CoherenceController>) -> Self {
        let node = inner.node().index() as u16;
        TimedController {
            inner,
            mode: current_mode(),
            node,
        }
    }

    #[inline]
    fn observe<T>(
        &mut self,
        kind: SpanKind,
        now: Cycle,
        out: &mut Outbox,
        call: impl FnOnce(&mut dyn CoherenceController, &mut Outbox) -> T,
    ) -> T {
        match self.mode {
            Some(Mode::Spans) => {
                let start = Instant::now();
                let value = call(self.inner.as_mut(), out);
                let end = Instant::now();
                record_span(kind, self.node, start, end);
                value
            }
            Some(Mode::Sends) => {
                let before = out.messages.len();
                let value = call(self.inner.as_mut(), out);
                record_sends(now, &out.messages[before..]);
                value
            }
            None => call(self.inner.as_mut(), out),
        }
    }
}

impl CoherenceController for TimedController {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        self.observe(SpanKind::Access, now, out, |inner, out| {
            inner.access(now, op, out)
        })
    }

    fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
        self.observe(SpanKind::Msg, now, out, |inner, out| {
            inner.handle_message(now, msg, out)
        })
    }

    fn handle_timer(&mut self, now: Cycle, timer: Timer, out: &mut Outbox) {
        self.observe(SpanKind::Timer, now, out, |inner, out| {
            inner.handle_timer(now, timer, out)
        })
    }

    fn stats(&self) -> ControllerStats {
        self.inner.stats()
    }

    fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit> {
        self.inner.audit_block(addr)
    }

    fn audited_blocks(&self) -> Vec<BlockAddr> {
        self.inner.audited_blocks()
    }

    fn outstanding_misses(&self) -> usize {
        self.inner.outstanding_misses()
    }

    fn outstanding_blocks(&self) -> Vec<BlockAddr> {
        self.inner.outstanding_blocks()
    }

    fn line_state_stats(&self) -> LineStateStats {
        self.inner.line_state_stats()
    }

    fn set_arbiter_sabotage(&mut self, on: bool) {
        self.inner.set_arbiter_sabotage(on)
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

fn timed_factory(node: NodeId, config: &SystemConfig) -> Box<dyn CoherenceController> {
    Box::new(TimedController::new(
        tc_protocols::default_registry().build(node, config),
    ))
}

/// The default registry with every protocol kind overridden by its timed
/// wrapper (kind lookup resolves to the latest registration).
pub fn timed_registry() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::with_defaults();
    for kind in ProtocolKind::ALL {
        let name = match kind {
            ProtocolKind::TokenB => "Timed-TokenB",
            ProtocolKind::Snooping => "Timed-Snooping",
            ProtocolKind::Directory => "Timed-Directory",
            ProtocolKind::Hammer => "Timed-Hammer",
        };
        registry.register(name, kind, timed_factory);
    }
    registry
}

/// What recording one span costs, from a recording of empty spans.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Wall-clock cost of taking and recording one span around nothing.
    pub span_cost_ns: f64,
    /// The part of that cost that falls inside the recorded interval.
    pub inside_ns: f64,
}

/// Records `spans` empty spans and measures what each cost.
pub fn calibrate(spans: u32) -> Calibration {
    start(Mode::Spans);
    let began = Instant::now();
    run_span(|| {
        for _ in 0..spans {
            let start = Instant::now();
            let end = Instant::now();
            record_span(SpanKind::Access, 0, start, end);
        }
    });
    let wall_ns = began.elapsed().as_nanos() as f64;
    let recording = finish();
    let inside: u64 = recording.spans[1..].iter().map(Span::duration_ns).sum();
    Calibration {
        span_cost_ns: wall_ns / f64::from(spans.max(1)),
        inside_ns: inside as f64 / f64::from(spans.max(1)),
    }
}

/// Each span's self time: its duration minus the part of that interval its
/// direct child spans cover. Children are clipped to the parent's interval;
/// sibling spans never overlap here (one thread, sequential calls).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        if child.parent == NO_PARENT {
            continue;
        }
        let parent = &spans[child.parent as usize];
        let start = child.start_ns.max(parent.start_ns);
        let end = child.end_ns.min(parent.end_ns);
        let covered = end.saturating_sub(start);
        own[child.parent as usize] = own[child.parent as usize].saturating_sub(covered);
    }
    own
}

/// Calls and summed duration of one kind of span.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotal {
    pub calls: u64,
    pub ns: u64,
}

/// One recording's spans split into the cost of the controllers, the cost
/// of the runner around them, and the cost of observing, all with the
/// calibrated span cost taken out.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    pub access: KindTotal,
    pub msg: KindTotal,
    pub timer: KindTotal,
    /// Summed `System::run` span durations, as recorded.
    pub run_ns: f64,
    /// `run_ns` minus what taking the child spans cost: the estimate of the
    /// untraced run time that every share is a share of.
    pub total_net_ns: f64,
    /// Run self time (run minus children), net of span cost.
    pub runner_self_ns: f64,
}

impl Breakdown {
    /// Splits `spans` using `cal` for the cost of each child span.
    pub fn of(spans: &[Span], cal: Calibration) -> Breakdown {
        let own = self_times(spans);
        let mut b = Breakdown::default();
        let mut run_self_ns = 0.0;
        for (span, own_ns) in spans.iter().zip(&own) {
            let total = match span.kind {
                SpanKind::Run => {
                    b.run_ns += span.duration_ns() as f64;
                    run_self_ns += *own_ns as f64;
                    continue;
                }
                SpanKind::Access => &mut b.access,
                SpanKind::Msg => &mut b.msg,
                SpanKind::Timer => &mut b.timer,
            };
            total.calls += 1;
            total.ns += span.duration_ns();
        }
        let children = (b.access.calls + b.msg.calls + b.timer.calls) as f64;
        // Of each child's cost, `inside_ns` was recorded as the child's own
        // duration and the rest landed in the parent's self time.
        b.total_net_ns = b.run_ns - children * cal.span_cost_ns;
        b.runner_self_ns = run_self_ns - children * (cal.span_cost_ns - cal.inside_ns);
        b
    }

    /// One kind's time net of the clock reads recorded inside its spans.
    pub fn net_ns(&self, total: KindTotal, cal: Calibration) -> f64 {
        (total.ns as f64 - total.calls as f64 * cal.inside_ns).max(0.0)
    }

    /// All controller time, net.
    pub fn ctrl_net_ns(&self, cal: Calibration) -> f64 {
        self.net_ns(self.access, cal) + self.net_ns(self.msg, cal) + self.net_ns(self.timer, cal)
    }
}

/// Writes the first `cap` spans of each recording (one per point, in point
/// order) as tab-separated text. Span and parent ids count within a point.
pub fn write_spans(
    path: &std::path::Path,
    recordings: &[Vec<Span>],
    cap: usize,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# point\tid\tparent\tkind\tnode\tstart_ns\tend_ns")?;
    for (point, spans) in recordings.iter().enumerate() {
        writeln!(
            out,
            "# point {point}: {} spans recorded, first {} written",
            spans.len(),
            spans.len().min(cap)
        )?;
        for (id, span) in spans.iter().take(cap).enumerate() {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{point}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.kind.name(),
                span.node,
                span.start_ns,
                span.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_system::{RunOptions, System};
    use tc_types::TopologyKind;
    use tc_workloads::WorkloadProfile;

    fn span(parent: u32, kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            kind,
            node: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span(NO_PARENT, SpanKind::Run, 100, 1100),
            span(0, SpanKind::Access, 150, 250),
            span(0, SpanKind::Msg, 300, 700),
            // Clipped to the parent's interval: only 1050..1100 counts.
            span(0, SpanKind::Timer, 1050, 1200),
            // A second run with no children keeps its whole duration.
            span(NO_PARENT, SpanKind::Run, 2000, 2500),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 1000 - 100 - 400 - 50);
        assert_eq!(own[1], 100);
        assert_eq!(own[2], 400);
        assert_eq!(own[4], 500);
    }

    #[test]
    fn breakdown_removes_span_cost_and_shares_sum_to_one() {
        let spans = [
            span(NO_PARENT, SpanKind::Run, 0, 10_000),
            span(0, SpanKind::Access, 1_000, 2_000),
            span(0, SpanKind::Msg, 3_000, 5_000),
            span(0, SpanKind::Msg, 6_000, 7_000),
        ];
        let cal = Calibration {
            span_cost_ns: 100.0,
            inside_ns: 40.0,
        };
        let b = Breakdown::of(&spans, cal);
        assert_eq!(b.access.calls, 1);
        assert_eq!(b.msg.calls, 2);
        assert_eq!(b.msg.ns, 3_000);
        assert_eq!(b.total_net_ns, 10_000.0 - 300.0);
        assert_eq!(b.net_ns(b.msg, cal), 3_000.0 - 80.0);
        // Run self is 6000 as recorded; 3 x (100 - 40) of it was span cost.
        assert_eq!(b.runner_self_ns, 6_000.0 - 180.0);
        let sum = b.ctrl_net_ns(cal) + b.runner_self_ns;
        assert!((sum - b.total_net_ns).abs() < 1e-9);
    }

    #[test]
    fn calibration_measures_a_positive_cost() {
        let cal = calibrate(10_000);
        assert!(cal.span_cost_ns > 0.0);
        assert!(cal.inside_ns >= 0.0 && cal.inside_ns <= cal.span_cost_ns);
    }

    /// The wrapper must be invisible to the simulation: for every protocol,
    /// a run through the timed registry — in either recording mode —
    /// reports exactly what the stock run reports.
    #[test]
    fn timed_controller_is_transparent_for_all_four_protocols() {
        let options = RunOptions {
            ops_per_node: 2_000,
            ..RunOptions::default()
        };
        for kind in ProtocolKind::ALL {
            let topology = if kind.requires_total_order() {
                TopologyKind::Tree
            } else {
                TopologyKind::Torus
            };
            let config = SystemConfig::isca03_default()
                .with_nodes(4)
                .with_protocol(kind)
                .with_topology(topology)
                .with_seed(12);
            let profile = WorkloadProfile::oltp();
            let stock = System::build(&config, &profile).run(options);
            assert!(stock.verified().is_ok(), "{kind}: {:?}", stock.violations);
            for mode in [Mode::Spans, Mode::Sends] {
                start(mode);
                let timed = run_span(|| {
                    System::build_with(&config, &profile, &timed_registry()).run(options)
                });
                let recording = finish();
                assert_eq!(timed, stock, "{kind} under {mode:?}");
                match mode {
                    Mode::Spans => {
                        assert!(recording.spans.len() > 1, "{kind}: no controller spans");
                        assert!(recording.spans[1..].iter().all(|s| s.parent == 0));
                    }
                    Mode::Sends => {
                        assert_eq!(
                            recording.sends_seen, stock.controllers.messages_sent,
                            "{kind}: recorded sends differ from the controllers' own count"
                        );
                    }
                }
            }
        }
    }
}
