//! The event-driven system runner: run options and run control, the serial
//! event loop with its checkpoint cut, the finish path both engines
//! share, and the snapshot codec.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tc_interconnect::{FaultPlane, Interconnect};
use tc_protocols::ProtocolRegistry;
use tc_sim::{snap_state, EventQueue, SnapReader, SnapState, SnapWriter, SnapshotError};
use tc_types::{
    AdversarySpec, BlockAddr, CoherenceController, ControllerStats, Cycle, EngineStats,
    FastHashMap, FaultSpec, LineStateStats, Message, MissStats, NodeId, Outbox, ProtocolKind,
    ReissueStats, SystemConfig,
};
use tc_workloads::WorkloadProfile;

use crate::processor::Processor;
use crate::report::RunReport;
use crate::step::{Event, Scheduler, StepCore};
use crate::verify::{Verifier, VerifyOp};

/// Options controlling one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Memory operations to complete per node before the run ends.
    pub ops_per_node: u64,
    /// Hard ceiling on simulated time, in cycles, to bound runaway runs.
    pub max_cycles: Cycle,
    /// Fault-injection spec for the fabric. The default,
    /// [`FaultSpec::none`], arms no fault stage in the plane: faultless
    /// runs stay bit-identical to runs before fault injection existed.
    pub faults: FaultSpec,
    /// Livelock watchdog: if this many events are processed without a
    /// single operation completing, the run is cut off and reported as a
    /// structured `InvariantViolation::Livelock` instead of spinning to the
    /// cycle cap. The default is far above any healthy run's
    /// between-completions gap.
    pub livelock_events_budget: u64,
    /// When set, [`System::run_with_checkpoints`] seals a full engine
    /// snapshot every this-many delivered events and hands it to the
    /// checkpoint sink. `None` (the default) takes no snapshots and leaves
    /// the hot loop untouched. Checkpointing is observational: a run with
    /// checkpoints enabled is bit-identical to the same run without.
    pub checkpoint_every: Option<u64>,
    /// Adversarial-scheduling spec for the fabric. Like `faults`, the
    /// default [`AdversarySpec::none`] arms no adversary stage at all, so
    /// unadversarial runs stay bit-identical to runs before the adversary
    /// existed.
    pub adversary: AdversarySpec,
    /// Number of spatial shards (worker threads) to split the run across.
    /// `0` (the default) runs the serial schedule: one calendar queue, each
    /// send committed to the fabric as its event pops. Any value `>= 1`
    /// selects the conservative-PDES windowed schedule — the same step core,
    /// sends committed at lookahead-window boundaries — whose reports are
    /// bit-identical across *all* shard counts (behavioral fields; see
    /// [`RunReport::determinism_view`]) but follow a different — equally
    /// legal — message schedule than the serial one. Clamped to the node
    /// count at run time. Incompatible with `checkpoint_every`.
    pub shards: u32,
}

impl RunOptions {
    /// Returns these options with the given fault spec.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Returns these options with the given adversarial-scheduling spec.
    pub fn with_adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = adversary;
        self
    }

    /// Returns these options with the given livelock watchdog budget
    /// (events processed without a completed operation before the run is
    /// cut off). Clamped to at least 1.
    pub fn with_livelock_budget(mut self, events: u64) -> Self {
        self.livelock_events_budget = events.max(1);
        self
    }

    /// Returns these options with a checkpoint cadence (in delivered
    /// events).
    pub fn with_checkpoint_every(mut self, events: u64) -> Self {
        self.checkpoint_every = Some(events.max(1));
        self
    }

    /// Returns these options with the given shard count (see
    /// [`RunOptions::shards`]).
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// The fairness oracle's bounded-wait threshold, in cycles: once a
    /// persistent request activates, the operation behind it must complete
    /// within this bound or the run carries a structured
    /// [`tc_types::InvariantViolation::Starvation`].
    ///
    /// Derived, not guessed: a generous multiple of the worst service time
    /// the *configuration* can explain — every node ahead in the arbiter's
    /// FIFO costing a full persistent-request round trip (link crossings,
    /// controller hops, a memory access), plus everything the run's fault
    /// and adversary specs are allowed to add (injected delays, link-outage
    /// windows, reorder/targeted-delay/storm latitude). Generosity costs
    /// nothing in detection power: true starvation is *unbounded*, so it
    /// clears any finite bound; the margin only keeps legal-but-slow
    /// schedules from false-positiving.
    pub fn starvation_bound(&self, config: &SystemConfig) -> Cycle {
        let link = config.interconnect.link_latency_ns;
        let per_waiter = 8 * link + 2 * config.controller_latency_ns + config.dram_latency_ns;
        let base = (config.num_nodes as Cycle) * per_waiter;
        let extra = self.faults.max_extra_delay_ns(link) + self.adversary.max_extra_delay_ns(link);
        (base + extra).saturating_mul(64)
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            ops_per_node: 20_000,
            max_cycles: 500_000_000,
            faults: FaultSpec::none(),
            livelock_events_budget: 50_000_000,
            checkpoint_every: None,
            adversary: AdversarySpec::none(),
            shards: 0,
        }
    }
}

/// The run-control state of a run in flight — on either engine — lifted out
/// of the loop so a serial run can be cut at any event boundary, serialized
/// into a snapshot, and resumed bit-identically. The serial loop advances
/// it once per popped event, the windowed coordinator once per window; the
/// transitions themselves are written once, here.
#[derive(Debug)]
pub struct RunProgress {
    drain_limit_hit: bool,
    /// The cycle at which the completion target (or cycle limit) was
    /// reached, from when on the run drains; `None` while the run is still
    /// making progress. An `Option` rather than a zero sentinel: a run can
    /// legitimately reach its target at cycle 0, and a run that drains
    /// without ever reaching it must fall back to the final clock instead
    /// of garbage.
    reached_target_at: Option<Cycle>,
    ops_at_target: u64,
    transactions_at_target: u64,
    /// Forward-progress watchdog: events processed since an operation last
    /// completed.
    events_since_progress: u64,
    livelock_hit: bool,
    /// The perturbation plane: a fault stage and an adversary stage, each
    /// armed only when its spec perturbs something, so the (default)
    /// reliable-fabric path pays two `Option` checks per send and stays
    /// bit-identical.
    plane: FaultPlane,
}

impl RunProgress {
    /// A fresh run's state. `per_node` selects the plane's RNG streams (see
    /// the two callers).
    fn new(options: &RunOptions, config: &SystemConfig, per_node: bool) -> Self {
        RunProgress {
            drain_limit_hit: false,
            reached_target_at: None,
            ops_at_target: 0,
            transactions_at_target: 0,
            events_since_progress: 0,
            livelock_hit: false,
            plane: FaultPlane::armed(
                options.faults,
                options.adversary,
                config.protocol,
                config.seed,
                config.interconnect.link_latency_ns,
                if per_node { config.num_nodes } else { 0 },
            ),
        }
    }

    /// A fresh serial run: each plane stage draws from one RNG stream.
    fn start(options: &RunOptions, config: &SystemConfig) -> Self {
        RunProgress::new(options, config, false)
    }

    /// A fresh windowed run: the plane's stages fork one RNG stream per
    /// *source node*, so the dice a message sees depend on which node sent
    /// it, never on which shard the node landed on — fault and adversary
    /// decisions reproduce (seed, specs) exactly at any shard count.
    pub(crate) fn start_per_node(options: &RunOptions, config: &SystemConfig) -> Self {
        RunProgress::new(options, config, true)
    }

    /// Whether the run has reached its target (or the cycle limit) and is
    /// draining: processors issue nothing more, in-flight work completes.
    pub(crate) fn draining(&self) -> bool {
        self.reached_target_at.is_some()
    }

    /// The target/drain transition, checked before the event (or window)
    /// at cycle `now` runs: the run starts draining once `completed`
    /// reaches `target_total` or `now` the cycle limit, recording `stamp` as
    /// the runtime, and is cut off — returning `false` — once a draining
    /// run reaches twice the cycle limit.
    pub(crate) fn keep_going(
        &mut self,
        options: &RunOptions,
        target_total: u64,
        now: Cycle,
        stamp: Cycle,
        completed: u64,
        transactions: impl FnOnce() -> u64,
    ) -> bool {
        if !self.draining() && (completed >= target_total || now >= options.max_cycles) {
            self.reached_target_at = Some(stamp);
            self.ops_at_target = completed;
            self.transactions_at_target = transactions();
        }
        if self.draining() && now >= drain_limit(options) {
            self.drain_limit_hit = true;
            return false;
        }
        true
    }

    /// The livelock watchdog, fed after `events` events were handled:
    /// returns `true` — cut the run off — once the budget's worth of events
    /// has gone by without `progressed` (an operation completing).
    pub(crate) fn livelock_tick(
        &mut self,
        options: &RunOptions,
        progressed: bool,
        events: u64,
        now: Cycle,
    ) -> bool {
        if progressed {
            self.events_since_progress = 0;
            return false;
        }
        self.events_since_progress += events;
        if self.events_since_progress < options.livelock_events_budget {
            return false;
        }
        self.livelock_hit = true;
        eprintln!(
            "livelock watchdog: {} events without a completed \
             op at cycle {now}; cutting the run off (rerun with TC_TRACE_BLOCK=<blk> \
             for a causal trace of the spinning block)",
            self.events_since_progress
        );
        true
    }

    /// Commits one send to the fabric at cycle `now`, leaving in `arrivals`
    /// when and where it arrives: the fabric's routing and bandwidth model
    /// first, then the plane (faults, then the adversary over the arrivals
    /// that survived them). Fault-dropped arrivals shrink the fan-out
    /// (possibly to nothing); duplicates grow it.
    pub(crate) fn commit_send(
        &mut self,
        fabric: &mut Interconnect,
        now: Cycle,
        msg: &Message,
        arrivals: &mut Vec<(Cycle, NodeId)>,
    ) {
        arrivals.clear();
        fabric.send_arrivals(now, msg, arrivals);
        self.plane.apply(now, msg, arrivals);
    }
}

snap_state!(RunProgress {
    drain_limit_hit,
    reached_target_at,
    ops_at_target,
    transactions_at_target,
    events_since_progress,
    livelock_hit,
    plane,
});

/// Everything that determines a run, as one string: the system
/// configuration, the workload profile and the behavior-relevant run
/// options, the fault and adversary specs in their canonical `Display`
/// form. The snapshot fingerprint hashes it and the service's result cache
/// keys on it. `checkpoint_every` is excluded: checkpointing is
/// observational, so a snapshot taken at one cadence restores under
/// another (or under none). `shards` is included even though windowed runs never
/// snapshot: a snapshot taken serially then restored under `shards > 0`
/// must fail as a structured `Corrupt`, not resume on a different
/// schedule.
pub fn determinism_key(
    config: &SystemConfig,
    workload: &WorkloadProfile,
    options: &RunOptions,
) -> String {
    format!(
        "{config:?}|{workload:?}|ops={}|cycles={}|faults={}|livelock={}|adversary={}|shards={}",
        options.ops_per_node,
        options.max_cycles,
        options.faults,
        options.livelock_events_budget,
        options.adversary,
        options.shards
    )
}

/// A draining run is cut off (a structured deadlock) at twice the cycle
/// limit.
pub(crate) fn drain_limit(options: &RunOptions) -> Cycle {
    options.max_cycles.saturating_mul(2)
}

/// The serial engine's two answers to the step core: events go onto the one
/// calendar queue (same-cycle ties pop FIFO, so `origin` is not needed), and
/// verifier calls are applied on the spot, at the cycle `now` of the event
/// being stepped.
struct Serial<'a> {
    queue: &'a mut EventQueue<Event>,
    verifier: &'a mut Verifier,
    starvation_bound: Cycle,
    now: Cycle,
}

impl Scheduler for Serial<'_> {
    #[inline]
    fn schedule(&mut self, at: Cycle, _origin: NodeId, event: Event) {
        self.queue.schedule(at, event);
    }

    #[inline]
    fn verify(&mut self, op: VerifyOp) {
        self.verifier.apply(op, self.starvation_bound, self.now);
    }
}

/// Where a checkpointing run hands each sealed snapshot:
/// `(events_delivered, bytes)`.
type CheckpointSink<'a> = &'a mut dyn FnMut(u64, &[u8]);

/// One simulated multiprocessor: N nodes, an interconnect, a verifier, and a
/// deterministic event queue.
#[derive(Debug)]
pub struct System {
    pub(crate) config: SystemConfig,
    workload: WorkloadProfile,
    /// Every node's controller and processor, and what stepping them
    /// accumulates. A windowed run deals it out to the shards and merges it
    /// back, so post-run inspection works the same on either engine.
    pub(crate) core: StepCore,
    pub(crate) interconnect: Interconnect,
    queue: EventQueue<Event>,
    pub(crate) verifier: Verifier,
    /// Events delivered by shard queues in windowed runs, which never touch
    /// `queue`'s own counter.
    pub(crate) windowed_events: u64,
}

impl System {
    /// Assembles a system for `config` running `profile` on every processor,
    /// constructing the controllers through the default protocol registry
    /// (the four paper protocols).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]); validate first if you need an error
    /// instead.
    pub fn build(config: &SystemConfig, profile: &WorkloadProfile) -> Self {
        System::build_with(config, profile, tc_protocols::default_registry())
    }

    /// [`System::build`] with an explicit protocol registry, so experimental
    /// protocol variants (registered under an existing [`ProtocolKind`] for
    /// configuration purposes) can be run without touching the engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or if `registry` has no
    /// factory for `config.protocol`.
    pub fn build_with(
        config: &SystemConfig,
        profile: &WorkloadProfile,
        registry: &ProtocolRegistry,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"));
        let controllers = (0..config.num_nodes)
            .map(|n| registry.build(NodeId::new(n), config))
            .collect();
        let processors = (0..config.num_nodes)
            .map(|n| {
                Processor::new(
                    NodeId::new(n),
                    profile,
                    config.processor,
                    config.num_nodes,
                    config.seed,
                )
            })
            .collect();
        let interconnect = Interconnect::new(config.num_nodes, config.interconnect);
        let mut queue = EventQueue::new();
        for n in 0..config.num_nodes {
            queue.schedule(0, Event::Wakeup(NodeId::new(n)));
        }
        let trace_block = std::env::var("TC_TRACE_BLOCK")
            .ok()
            .and_then(|v| v.parse().ok())
            .map(BlockAddr::new);
        System {
            config: config.clone(),
            workload: profile.clone(),
            core: StepCore::new(0, config.block_bytes, trace_block, controllers, processors),
            interconnect,
            queue,
            verifier: Verifier::new(),
            windowed_events: 0,
        }
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Debug-formats one node's controller, for post-mortem inspection of
    /// wedged runs (`examples/conformance_repro.rs` prints this for stuck
    /// nodes).
    pub fn controller_debug(&self, node: NodeId) -> String {
        format!("{:#?}", self.core.controllers[node.index()])
    }

    /// The blocks each node is still waiting on, for post-mortem reports.
    pub fn outstanding_blocks(&self, node: NodeId) -> Vec<BlockAddr> {
        self.core.controllers[node.index()].outstanding_blocks()
    }

    /// Total number of events this system has delivered so far, on either
    /// engine; after a run it equals the report's
    /// `engine.events_delivered`.
    pub fn events_delivered(&self) -> u64 {
        self.queue.total_delivered() + self.windowed_events
    }

    /// Runs the simulation until every node has completed
    /// `options.ops_per_node` operations (or the cycle limit is hit), drains
    /// outstanding transactions, audits the final state, and reports. No
    /// checkpoint is cut: there is no sink to hand one to.
    pub fn run(&mut self, options: RunOptions) -> RunReport {
        self.start(options, None)
    }

    /// [`System::run`] with a checkpoint sink: when
    /// `options.checkpoint_every` is set, `sink(events_delivered, bytes)` is
    /// called with a sealed snapshot at each cadence boundary. Snapshots are
    /// cut *between* events, so a system rebuilt from one (via
    /// [`System::restore`]) and resumed produces a bit-identical
    /// [`RunReport`].
    pub fn run_with_checkpoints(
        &mut self,
        options: RunOptions,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> RunReport {
        self.start(options, Some(sink))
    }

    fn start(&mut self, options: RunOptions, sink: Option<CheckpointSink<'_>>) -> RunReport {
        if options.shards > 0 {
            // The snapshot plane serializes the serial engine's single
            // calendar queue and arena; a sharded run has S of each plus a
            // coordinator, and is short-lived by design. Reject loudly
            // rather than silently not checkpointing.
            assert!(
                options.checkpoint_every.is_none(),
                "checkpointing is not supported under sharded execution \
                 (RunOptions::shards > 0); run serially to checkpoint"
            );
            return crate::sharded::run_sharded(self, &options);
        }
        let progress = RunProgress::start(&options, &self.config);
        self.drive(&options, progress, sink)
    }

    /// Continues a run restored by [`System::restore`] to completion. The
    /// options must match the original run's (enforced by the snapshot
    /// fingerprint at restore time).
    pub fn resume(&mut self, options: RunOptions, progress: RunProgress) -> RunReport {
        self.drive(&options, progress, None)
    }

    /// [`System::resume`] with a checkpoint sink, so a resumed run keeps
    /// checkpointing on the same delivered-events cadence.
    pub fn resume_with_checkpoints(
        &mut self,
        options: RunOptions,
        progress: RunProgress,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> RunReport {
        self.drive(&options, progress, Some(sink))
    }

    /// Run-entry setup both engines share: arms the test-only arbiter
    /// sabotage, aimed at the victim node's controller (the starvation
    /// oracle must catch what this breaks). Idempotent, so resumed runs
    /// re-arm it.
    pub(crate) fn arm_sabotage(&mut self, options: &RunOptions) {
        if options.adversary.sabotage != 0 {
            let victim = options.adversary.victim_node as usize % self.config.num_nodes;
            self.core.controllers[victim].set_arbiter_sabotage(true);
        }
    }

    /// The serial event loop, from wherever `progress` stands to the report:
    /// one calendar queue over every node, each send committed to the fabric
    /// the moment its event pops. With a `sink` and a cadence in `options`,
    /// checkpoints are cut *before* a pop, at an event boundary where the
    /// scratch outbox is empty — the snapshot never has to serialize
    /// mid-event state.
    fn drive(
        &mut self,
        options: &RunOptions,
        mut progress: RunProgress,
        sink: Option<CheckpointSink<'_>>,
    ) -> RunReport {
        let target_total = options.ops_per_node * self.config.num_nodes as u64;
        self.arm_sabotage(options);
        let starvation_bound = options.starvation_bound(&self.config);
        // (sink, cadence, next cut), all in delivered events.
        let mut checkpoint = sink
            .zip(options.checkpoint_every)
            .map(|(sink, k)| (sink, k, (self.queue.total_delivered() / k + 1) * k));
        // Scratch outbox handed to controllers and scratch buffer for
        // arrival times: both are drained (capacity kept) after every event,
        // so the steady-state loop allocates nothing.
        let mut out = Outbox::new();
        let mut arrivals: Vec<(Cycle, NodeId)> = Vec::new();

        loop {
            if let Some((sink, k, at)) = checkpoint.as_mut() {
                let delivered = self.queue.total_delivered();
                if delivered >= *at {
                    sink(delivered, &self.snapshot(options, &progress));
                    *at = (delivered / *k + 1) * *k;
                }
            }
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            let core = &self.core;
            if !progress.keep_going(options, target_total, now, now, core.completed_ops, || {
                core.total_transactions()
            }) {
                break;
            }
            let ops_before = self.core.completed_ops;
            let mut sched = Serial {
                queue: &mut self.queue,
                verifier: &mut self.verifier,
                starvation_bound,
                now,
            };
            let sent = self
                .core
                .step(now, event, progress.draining(), &mut sched, &mut out);
            if let Some(msg_ref) = sent {
                let msg = self.core.messages.get(msg_ref);
                progress.commit_send(&mut self.interconnect, now, msg, &mut arrivals);
                // Re-park the payload where it is, shared by every delivery
                // of the fan-out; the last delivery's release frees it.
                // Nothing is cloned or moved, broadcast or not, and a
                // fully-dropped message's slot is freed here.
                let copies = arrivals.len() as u32;
                if let Some(parked) = self.core.messages.reshare(msg_ref, copies) {
                    for &(at, node) in &arrivals {
                        self.queue
                            .schedule(at, Event::Deliver { node, msg: parked });
                    }
                }
            }
            let progressed = self.core.completed_ops != ops_before;
            if progress.livelock_tick(options, progressed, 1, now) {
                break;
            }
        }

        let mut in_flight_tokens = FastHashMap::default();
        self.core
            .add_in_flight(self.queue.iter(), &mut in_flight_tokens);
        let engine = EngineStats {
            peak_queue_depth: self.queue.max_depth() as u64,
            peak_arena_occupancy: self.core.messages.high_water() as u64,
            arena_accounting_errors: self.core.messages.accounting_errors(),
            ..EngineStats::default()
        };
        let now = self.queue.now();
        self.finish(options, progress, now, &in_flight_tokens, engine)
    }

    /// Post-loop wrap-up for either engine: final audit, stats merge, report
    /// assembly. The step core must be whole again (shards absorbed). The
    /// engine supplies what only its queues and arenas know: the final
    /// clock `now`, per block the (total, owner) tokens of deliveries still
    /// pending, and the capacity fields of `engine` (the rest is filled in
    /// here).
    pub(crate) fn finish(
        &mut self,
        options: &RunOptions,
        mut progress: RunProgress,
        now: Cycle,
        in_flight_tokens: &FastHashMap<BlockAddr, (i64, i64)>,
        engine: EngineStats,
    ) -> RunReport {
        let runtime_cycles = match progress.reached_target_at {
            Some(cycles) => cycles,
            None => {
                // The queue drained (or the drain limit hit) before the
                // target was reached: report the state at the end of the run.
                progress.ops_at_target = self.core.completed_ops;
                progress.transactions_at_target = self.core.total_transactions();
                now
            }
        };

        // Fairness oracle: anything still escalated after the drain is
        // checked against the bound before the liveness audit runs.
        self.verifier
            .sweep_escalations(now, options.starvation_bound(&self.config));
        self.final_audit(
            in_flight_tokens,
            now,
            progress.drain_limit_hit,
            progress
                .livelock_hit
                .then_some(progress.events_since_progress),
        );

        let (misses, reissue, controllers, line_state) =
            merge_controller_stats(&self.core.controllers);

        let (miss_latency_p50, miss_latency_p99, miss_latency_max) =
            self.core.miss_latency_samples.percentiles();

        // Recovery-side fault numbers: how hard the correctness substrate
        // had to work. Left all-zero on faultless runs so the default
        // report is unchanged.
        let mut fault_stats = progress.plane.stats();
        if !options.faults.is_none() {
            fault_stats.persistent_activations = controllers.persistent_requests_initiated;
            fault_stats.max_recovery_ns = miss_latency_max;
        }

        let completions_per_node: Vec<u64> = self
            .core
            .processors
            .iter()
            .map(|p| p.completed_ops())
            .collect();
        let completion_skew_ppm = completion_skew_ppm(&completions_per_node);

        RunReport {
            protocol: self.config.protocol,
            topology: self.config.interconnect.topology,
            bandwidth: self.config.interconnect.bandwidth,
            workload: self.workload.name.to_string(),
            num_nodes: self.config.num_nodes,
            runtime_cycles,
            total_ops: progress.ops_at_target,
            total_transactions: progress.transactions_at_target,
            misses,
            reissue,
            controllers,
            traffic: self.interconnect.traffic().clone(),
            faults: options.faults,
            adversary: options.adversary,
            miss_latency_p50,
            miss_latency_p99,
            miss_latency_max,
            completion_skew_ppm,
            engine: EngineStats {
                events_delivered: self.events_delivered(),
                state: line_state,
                faults: fault_stats,
                adversary: progress.plane.adversary_stats(),
                ..engine
            },
            violations: self.verifier.violations().to_vec(),
        }
    }

    /// Seals the full engine state — this system's [`SnapState`] and the
    /// loop-carried [`RunProgress`], behind the fingerprint of what they
    /// were built from — into one versioned, checksummed snapshot. Must be
    /// called at an event boundary (the runner only calls it between pops).
    pub fn snapshot(&self, options: &RunOptions, progress: &RunProgress) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.fingerprint(options));
        self.save_state(&mut w);
        progress.save_state(&mut w);
        tc_sim::seal(tc_sim::snapshot::SNAPSHOT_VERSION, &w.into_bytes())
    }

    /// Restores engine state from a [`System::snapshot`] into a freshly
    /// built system with the same configuration, returning the
    /// [`RunProgress`] to pass to [`System::resume`]. The embedded
    /// fingerprint must match this system's config/workload/options — a
    /// snapshot cannot be restored into a different experiment.
    pub fn restore(
        &mut self,
        options: &RunOptions,
        bytes: &[u8],
    ) -> Result<RunProgress, SnapshotError> {
        let (_version, payload) = tc_sim::open(bytes)?;
        let mut r = SnapReader::new(payload);
        let fingerprint = r.u64()?;
        if fingerprint != self.fingerprint(options) {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot fingerprint {fingerprint:#018x} does not match this \
                 system's {:#018x}: config, workload, or run options differ",
                self.fingerprint(options)
            )));
        }
        self.load_state(&mut r)?;
        self.core.completed_ops = self.core.processors.iter().map(|p| p.completed_ops()).sum();
        let mut progress = RunProgress::start(options, &self.config);
        progress.load_state(&mut r)?;
        r.finish()?;
        Ok(progress)
    }

    /// A 64-bit digest of everything a snapshot depends on but does not
    /// carry: the [`determinism_key`] of this system's configuration and
    /// workload under `options`.
    fn fingerprint(&self, options: &RunOptions) -> u64 {
        tc_sim::fnv1a64(determinism_key(&self.config, &self.workload, options).as_bytes())
    }

    /// Audits the quiesced final state: token conservation, single-writer,
    /// and starvation/deadlock/livelock. `drain_limit_hit` distinguishes a
    /// run that was cut off with events still flowing (deadlock — something
    /// is spinning or stranded) from one whose event queue drained with
    /// requests still outstanding (starvation — nothing left that could
    /// complete them); `livelock` carries the watchdog's
    /// events-without-progress count when the forward-progress budget
    /// tripped, which takes precedence over both.
    fn final_audit(
        &mut self,
        in_flight_tokens: &FastHashMap<BlockAddr, (i64, i64)>,
        now: Cycle,
        drain_limit_hit: bool,
        livelock: Option<u64>,
    ) {
        self.audit_held_blocks(in_flight_tokens, now);
        let verifier = &mut self.verifier;
        let controllers = &self.core.controllers;

        // Liveness: after the drain, nothing may still be outstanding. A
        // stuck request is a deadlock if the drain limit cut the run off
        // (events were still flowing) and starvation otherwise; either way
        // the violation names the block the requester is stuck on.
        for (processor, controller) in self.core.processors.iter().zip(controllers) {
            if controller.outstanding_misses() > 0 || processor.outstanding_misses() > 0 {
                let stuck_block = controller
                    .outstanding_blocks()
                    .first()
                    .copied()
                    .unwrap_or(BlockAddr::new(0));
                let issued_at = processor
                    .oldest_outstanding()
                    .map(|(_, at)| at)
                    .unwrap_or(now);
                if let Some(events_without_progress) = livelock {
                    verifier.record_livelock(
                        processor.node(),
                        stuck_block,
                        issued_at,
                        now,
                        events_without_progress,
                    );
                } else if drain_limit_hit {
                    verifier.record_deadlock(processor.node(), stuck_block, issued_at, now);
                } else {
                    verifier.record_starvation(processor.node(), stuck_block, issued_at, now);
                }
            }
        }

        // A tripped watchdog must surface even when no request happens to
        // be outstanding at the cut (pure message ping-pong): attribute it
        // to node 0 rather than dropping the violation.
        if let Some(events_without_progress) = livelock {
            let already_recorded = verifier
                .violations()
                .iter()
                .any(|v| matches!(v, tc_types::InvariantViolation::Livelock { .. }));
            if !already_recorded {
                verifier.record_livelock(
                    NodeId::new(0),
                    BlockAddr::new(0),
                    now,
                    now,
                    events_without_progress,
                );
            }
        }
    }

    /// Checks token conservation, single-writer and data versions on every
    /// block some node holds state for, given per block the (total, owner)
    /// tokens of deliveries still pending.
    fn audit_held_blocks(
        &mut self,
        in_flight_tokens: &FastHashMap<BlockAddr, (i64, i64)>,
        now: Cycle,
    ) {
        let verifier = &mut self.verifier;
        let controllers = &self.core.controllers;
        let expected_tokens = (self.config.protocol == ProtocolKind::TokenB)
            .then_some(self.config.token.tokens_per_block);

        // Each node is asked only about the blocks it lists: any other
        // block's audit is empty there (the `audited_blocks` contract). A
        // merge of the nodes' sorted lists hands out (block, node) in block
        // order and, within a block, node order — the order a sweep of every
        // block over every node would collect the answers in.
        let mut lists: Vec<_> = (controllers.iter())
            .map(|controller| {
                let mut blocks = controller.audited_blocks();
                blocks.sort_unstable();
                blocks.dedup();
                blocks.into_iter()
            })
            .collect();
        let mut heads: BinaryHeap<_> = (lists.iter_mut().enumerate())
            .filter_map(|(node, list)| Some(Reverse((list.next()?, node))))
            .collect();
        let mut audits = Vec::new();
        while let Some(Reverse((addr, node))) = heads.pop() {
            audits.extend(controllers[node].audit_block(addr));
            if let Some(next) = lists[node].next() {
                heads.push(Reverse((next, node)));
            }
            if heads.peek().is_some_and(|Reverse((next, _))| *next == addr) {
                continue;
            }
            let (in_flight, in_flight_owner) =
                in_flight_tokens.get(&addr).copied().unwrap_or((0, 0));
            verifier.audit_block(
                addr,
                &audits,
                in_flight.max(0) as u32,
                in_flight_owner.max(0) as u32,
                expected_tokens,
                now,
            );
            audits.clear();
        }
    }
}

// All a snapshot holds but its fingerprint and the run's progress. The
// core's `completed_ops` is the processors' sum, recomputed by `restore`.
snap_state!(System {
    core.miss_latency_samples,
    queue in core.timers,
    core.messages,
    interconnect,
    verifier,
    [core.processors],
    [core.controllers],
});

/// Merges per-controller statistics into the report's aggregate
/// (miss, reissue, controller, line-state) tuples.
fn merge_controller_stats(
    controllers: &[Box<dyn CoherenceController>],
) -> (MissStats, ReissueStats, ControllerStats, LineStateStats) {
    let mut misses = MissStats::default();
    let mut reissue = ReissueStats::default();
    let mut merged = ControllerStats::new();
    let mut line_state = LineStateStats::default();
    for controller in controllers {
        let stats = controller.stats();
        misses.merge(&stats.misses);
        reissue.merge(&stats.reissue);
        merged.merge(&stats);
        line_state.merge(&controller.line_state_stats());
    }
    (misses, reissue, merged, line_state)
}

/// Completion-share skew: (max - min) per-node completions relative to the
/// mean, in parts per million. Zero on a perfectly fair run; the
/// adversary's objective is to drive it up.
fn completion_skew_ppm(completions_per_node: &[u64]) -> u64 {
    let total_completions: u64 = completions_per_node.iter().sum();
    if total_completions == 0 {
        0
    } else {
        let most = *completions_per_node.iter().max().unwrap();
        let least = *completions_per_node.iter().min().unwrap();
        let mean = total_completions / completions_per_node.len() as u64;
        (most - least)
            .saturating_mul(1_000_000)
            .checked_div(mean)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{AdversaryStats, BandwidthMode, FaultStats, TopologyKind, TrafficClass};

    #[test]
    fn the_fault_specs_reorder_widens_the_starvation_bound() {
        let config = SystemConfig::isca03_default();
        let link = config.interconnect.link_latency_ns;
        let faults = FaultSpec::none().with_drop(0.01).with_delay(0.02, 40);
        let bound = |faults| {
            RunOptions::default()
                .with_faults(faults)
                .starvation_bound(&config)
        };
        assert_eq!(bound(faults.with_reorder(4)) - bound(faults), 4 * link * 64);
    }

    /// Tripwire: the verifier keeps what a legal load can still read, not
    /// every block's newest writes, so its history does not grow with run
    /// length. The pinned configuration (TokenB, torus, OLTP, 4 nodes, seed
    /// 12) held about 7600 live entries at 20k ops/node and 8900 at 75k;
    /// with no horizon it held 86522 at 75k. It counts, times nothing.
    #[test]
    fn verifier_history_stays_within_the_liveness_horizon() {
        let config = SystemConfig::isca03_default().with_nodes(4).with_seed(12);
        for ops_per_node in [20_000, 75_000] {
            let mut system = System::build(&config, &tc_workloads::WorkloadProfile::oltp());
            let report = system.run(RunOptions {
                ops_per_node,
                ..RunOptions::default()
            });
            assert!(report.violations.is_empty());
            let live = system.verifier.history_entries();
            assert!(live <= 12_000, "{ops_per_node} ops/node: {live} entries");
        }
    }

    /// Each stage of the plane reports only its own counters: arming one
    /// spec leaves the other's stats (the fault stats' recovery-side
    /// numbers included) all zero.
    #[test]
    fn a_plane_stage_that_is_not_armed_reports_zero_stats() {
        let config = SystemConfig::isca03_default().with_nodes(4).with_seed(12);
        let profile = tc_workloads::WorkloadProfile::hot_block();
        let options = RunOptions {
            ops_per_node: 300,
            ..RunOptions::default()
        };
        let adversary = AdversarySpec::none()
            .with_reorder(2)
            .with_victim(1, 0)
            .with_target_delay(300);
        let report = System::build(&config, &profile).run(options.with_adversary(adversary));
        assert!(report.engine.adversary.total_perturbed() > 0);
        assert!(report.reissue.reissued_once > 0, "reissues happen");
        assert_eq!(report.engine.faults, FaultStats::default());

        let faults = FaultSpec::none().with_drop(0.01).with_reorder(2);
        let report = System::build(&config, &profile).run(options.with_faults(faults));
        assert!(report.engine.faults.total_injected() > 0);
        assert_eq!(report.engine.adversary, AdversaryStats::default());
    }

    #[test]
    fn every_event_kind_round_trips() {
        use tc_sim::{Arena, ArenaRef, Snap, SnapWith};
        use tc_types::{Timer, TimerKind};
        let (node, msg) = (NodeId::new(3), ArenaRef::from_bits(0x0000_0007_0000_0002));
        let timer = Timer {
            id: 9,
            addr: BlockAddr::new(5),
            kind: TimerKind::MemoryAccess,
        };
        let mut timers = Arena::new();
        timers.insert(timer);
        let parked = timers.insert(timer);
        let saved = |event: Event| {
            let mut w = SnapWriter::new();
            event.save_with(&mut w, &timers);
            w.into_bytes()
        };
        for event in [
            Event::Wakeup(node),
            Event::Send(msg),
            Event::Deliver { node, msg },
            Event::Timer {
                node,
                timer: parked,
            },
        ] {
            let bytes = saved(event);
            let mut reparked = Arena::new();
            let mut r = SnapReader::new(&bytes);
            let back = Event::load_with(&mut r, &mut reparked).expect("a saved event loads");
            r.finish().expect("the load consumes every saved byte");
            match (event, back) {
                // A timer comes back parked in the arena it was loaded into.
                (Event::Timer { timer: t, .. }, Event::Timer { node: n, timer: u }) => {
                    assert_eq!((n, reparked.get(u)), (node, timers.get(t)));
                }
                _ => assert_eq!(back, event),
            }
            for cut in 0..bytes.len() {
                let mut r = SnapReader::new(&bytes[..cut]);
                assert!(
                    Event::load_with(&mut r, &mut Arena::new()).is_err(),
                    "{event:?} cut at {cut}"
                );
            }
        }
        // A timer event still saves as its node and the timer (id, addr,
        // kind), as when events carried timers inline.
        let mut inline = SnapWriter::new();
        inline.u8(3);
        node.save(&mut inline);
        inline.u64(9);
        BlockAddr::new(5).save(&mut inline);
        TimerKind::MemoryAccess.save(&mut inline);
        let timer_event = Event::Timer {
            node,
            timer: parked,
        };
        assert_eq!(saved(timer_event), inline.into_bytes());
    }

    fn small_config(protocol: ProtocolKind) -> SystemConfig {
        let mut config = SystemConfig::isca03_default()
            .with_nodes(4)
            .with_protocol(protocol)
            .with_seed(12);
        // Keep the caches small enough that evictions happen in short runs.
        config.l2.size_bytes = 256 * 1024;
        config
    }

    fn run(protocol: ProtocolKind, profile: WorkloadProfile, ops: u64) -> RunReport {
        let config = small_config(protocol);
        let mut system = System::build(&config, &profile);
        system.run(RunOptions {
            ops_per_node: ops,
            max_cycles: 50_000_000,
            ..RunOptions::default()
        })
    }

    #[test]
    fn tokenb_runs_cleanly_on_a_shared_workload() {
        let report = run(ProtocolKind::TokenB, WorkloadProfile::oltp(), 1500);
        assert!(report.total_ops >= 4 * 1500);
        assert!(report.runtime_cycles > 0);
        assert!(report.misses.total_misses() > 0);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn directory_runs_cleanly_on_a_shared_workload() {
        let report = run(ProtocolKind::Directory, WorkloadProfile::oltp(), 1500);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.misses.total_misses() > 0);
    }

    #[test]
    fn hammer_runs_cleanly_on_a_shared_workload() {
        let report = run(ProtocolKind::Hammer, WorkloadProfile::oltp(), 1500);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.misses.total_misses() > 0);
    }

    /// The contended OLTP calibration used to deadlock the snooping baseline
    /// on the writeback race; the writeback-acknowledgement handshake (see
    /// `tc_protocols::snooping`) closed it, so snooping now runs the same
    /// contended calibration as the other three protocols.
    #[test]
    fn snooping_runs_cleanly_on_the_ordered_tree() {
        let report = run(ProtocolKind::Snooping, WorkloadProfile::oltp(), 1500);
        assert_eq!(report.topology, TopologyKind::Tree);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.misses.total_misses() > 0);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let a = run(ProtocolKind::TokenB, WorkloadProfile::apache(), 800);
        let b = run(ProtocolKind::TokenB, WorkloadProfile::apache(), 800);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.traffic.total_link_bytes(), b.traffic.total_link_bytes());
    }

    #[test]
    fn hot_block_contention_provokes_reissues_or_persistent_requests() {
        let report = run(ProtocolKind::TokenB, WorkloadProfile::hot_block(), 2500);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let reissued =
            report.reissue.reissued_once + report.reissue.reissued_more + report.reissue.persistent;
        assert!(
            reissued > 0,
            "hot-block contention should force at least some reissues: {:?}",
            report.reissue
        );
    }

    #[test]
    fn private_workload_generates_no_cache_to_cache_misses() {
        let report = run(ProtocolKind::TokenB, WorkloadProfile::private_only(), 1000);
        assert!(report.violations.is_empty());
        assert_eq!(report.misses.cache_to_cache, 0);
    }

    #[test]
    fn hammer_uses_more_traffic_than_directory() {
        let hammer = run(ProtocolKind::Hammer, WorkloadProfile::oltp(), 1200);
        let directory = run(ProtocolKind::Directory, WorkloadProfile::oltp(), 1200);
        assert!(
            hammer.bytes_per_miss() > directory.bytes_per_miss(),
            "hammer {:.1} B/miss should exceed directory {:.1} B/miss",
            hammer.bytes_per_miss(),
            directory.bytes_per_miss()
        );
    }

    #[test]
    fn unlimited_bandwidth_is_never_slower() {
        let limited_config = small_config(ProtocolKind::TokenB);
        let unlimited_config = limited_config
            .clone()
            .with_bandwidth(BandwidthMode::Unlimited);
        let profile = WorkloadProfile::apache();
        let mut limited = System::build(&limited_config, &profile);
        let mut unlimited = System::build(&unlimited_config, &profile);
        let options = RunOptions {
            ops_per_node: 1200,
            max_cycles: 50_000_000,
            ..RunOptions::default()
        };
        let limited = limited.run(options);
        let unlimited = unlimited.run(options);
        assert!(unlimited.runtime_cycles <= limited.runtime_cycles);
    }

    #[test]
    fn checkpointed_run_is_bit_identical_and_resumes_bit_identically() {
        let config = small_config(ProtocolKind::TokenB);
        let profile = WorkloadProfile::oltp();
        let options = RunOptions {
            ops_per_node: 600,
            max_cycles: 50_000_000,
            ..RunOptions::default()
        }
        .with_checkpoint_every(2_000);

        let baseline = System::build(&config, &profile).run(options);

        let mut snaps: Vec<(u64, Vec<u8>)> = Vec::new();
        let checkpointed = System::build(&config, &profile)
            .run_with_checkpoints(options, &mut |at, bytes| snaps.push((at, bytes.to_vec())));
        assert_eq!(
            format!("{baseline:?}"),
            format!("{checkpointed:?}"),
            "checkpointing must be observational"
        );
        assert!(snaps.len() >= 2, "expected several checkpoints");

        // Resume from an early snapshot and from the last one: both must
        // reproduce the uninterrupted run's report byte-for-byte.
        for (at, snap) in [&snaps[0], snaps.last().unwrap()] {
            let mut resumed = System::build(&config, &profile);
            let progress = resumed
                .restore(&options, snap)
                .unwrap_or_else(|e| panic!("restore at event {at}: {e}"));
            assert_eq!(resumed.events_delivered(), *at);
            let report = resumed.resume(options, progress);
            assert_eq!(
                format!("{report:?}"),
                format!("{baseline:?}"),
                "resume from event {at} diverged"
            );
        }
    }

    #[test]
    fn restore_rejects_a_mismatched_system() {
        let config = small_config(ProtocolKind::TokenB);
        let profile = WorkloadProfile::oltp();
        let options = RunOptions {
            ops_per_node: 200,
            max_cycles: 50_000_000,
            ..RunOptions::default()
        }
        .with_checkpoint_every(5_000);
        let mut snaps: Vec<Vec<u8>> = Vec::new();
        System::build(&config, &profile)
            .run_with_checkpoints(options, &mut |_, bytes| snaps.push(bytes.to_vec()));
        let snap = snaps.first().expect("at least one checkpoint");

        // Different seed => different fingerprint.
        let other = config.clone().with_seed(13);
        let err = System::build(&other, &profile)
            .restore(&options, snap)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");

        // A flipped payload byte fails the seal checksum, not UB.
        let mut corrupt = snap.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let err = System::build(&config, &profile)
            .restore(&options, &corrupt)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Checksum), "{err}");
    }

    /// Tripwire for the calendar window, host-independent (it counts and
    /// times nothing): on the 64-node reference point, the benchmark's
    /// `scale64`, fewer than 1% of scheduled events may land beyond the
    /// ring into the `BTreeMap` overflow level. A 16384-cycle ring sends
    /// 598 of 1.69 M there; a 4096-cycle ring sent 16.5%, the contended
    /// deliveries and reissue timers of a ~3800-cycle median miss.
    #[test]
    fn sixty_four_node_run_schedules_under_one_percent_past_the_calendar_window() {
        let config = SystemConfig::isca03_default()
            .with_nodes(64)
            .with_protocol(ProtocolKind::TokenB)
            .with_topology(TopologyKind::Torus)
            .with_seed(12);
        let mut system = System::build(&config, &WorkloadProfile::oltp());
        let report = system.run(RunOptions {
            ops_per_node: 375,
            ..RunOptions::default()
        });
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let (overflowed, scheduled) = (
            system.queue.total_overflowed(),
            system.queue.total_scheduled(),
        );
        assert!(
            overflowed * 100 < scheduled,
            "{overflowed} of {scheduled} events went past the {}-cycle calendar window",
            tc_sim::queue::HORIZON_CYCLES
        );
    }

    #[test]
    fn traffic_report_includes_requests_and_data() {
        let report = run(ProtocolKind::TokenB, WorkloadProfile::oltp(), 1200);
        assert!(report.traffic.link_bytes(TrafficClass::Request) > 0);
        assert!(
            report
                .traffic
                .link_bytes(TrafficClass::DataResponseOrWriteback)
                > 0
        );
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use tc_workloads::WorkloadProfile;

    /// Regression test for a verification bug: a store merged into a read
    /// miss that was granted an exclusive copy (migratory optimization) must
    /// still be reported as a write, otherwise later readers look stale.
    #[test]
    fn single_hot_block_two_node_directory_run_is_clean() {
        let mut config = SystemConfig::isca03_default()
            .with_nodes(2)
            .with_protocol(ProtocolKind::Directory)
            .with_seed(12);
        config.l2.size_bytes = 64 * 1024;
        let mut profile = WorkloadProfile::hot_block();
        profile.migratory_blocks = 1;
        profile.private_blocks = 4;
        let mut system = System::build(&config, &profile);
        let report = system.run(RunOptions {
            ops_per_node: 400,
            max_cycles: 10_000_000,
            ..RunOptions::default()
        });
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;
    use tc_types::{AccessOutcome, BlockAudit, InvariantViolation, MemOp, Timer};

    /// Every protocol after a short contended run on 4 nodes with small L2s
    /// (so lines are evicted) — a handful of hot blocks, then OLTP's shared
    /// and migratory ones — with the report.
    fn contended_systems() -> impl Iterator<Item = (ProtocolKind, System, RunReport)> {
        let profiles = [WorkloadProfile::hot_block(), WorkloadProfile::oltp()];
        profiles.into_iter().flat_map(|profile| {
            ProtocolKind::ALL.into_iter().map(move |protocol| {
                let mut config = SystemConfig::isca03_default()
                    .with_nodes(4)
                    .with_protocol(protocol)
                    .with_seed(12);
                config.l2.size_bytes = 256 * 1024;
                let mut system = System::build(&config, &profile);
                let report = system.run(RunOptions {
                    ops_per_node: 600,
                    max_cycles: 50_000_000,
                    ..RunOptions::default()
                });
                (protocol, system, report)
            })
        })
    }

    /// The contract the one-pass audit rests on: a node that does not list
    /// a block in `audited_blocks` audits it as empty. Probed on every
    /// block any node lists, the blocks the final audit visits.
    #[test]
    fn a_block_a_node_does_not_list_audits_empty_there() {
        for (protocol, system, report) in contended_systems() {
            assert!(
                report.violations.is_empty(),
                "{protocol:?}: {:?}",
                report.violations
            );
            let controllers = &system.core.controllers;
            let lists: Vec<Vec<BlockAddr>> =
                controllers.iter().map(|c| c.audited_blocks()).collect();
            let mut probes: Vec<BlockAddr> = lists.concat();
            probes.sort_unstable();
            probes.dedup();
            let mut unlisted = 0;
            for addr in probes {
                for (controller, list) in controllers.iter().zip(&lists) {
                    if list.contains(&addr) {
                        continue;
                    }
                    assert!(
                        controller.audit_block(addr).is_empty(),
                        "{protocol:?}: node {} audits {addr:?} without listing it",
                        controller.node().index()
                    );
                    unlisted += 1;
                }
            }
            assert!(
                unlisted > 0,
                "{protocol:?}: every node held every block; the contract went unprobed"
            );
        }
    }

    /// A conformance mutant of the audit: it wraps a real controller and
    /// misreports every audit it gives. Odd nodes claim one token too many,
    /// every third block gains two writable copies wherever it is held, and each
    /// node's data version is off by its node number, so the recorded
    /// violations show the order the answers were collected in. An empty
    /// audit stays empty, so the `audited_blocks` contract holds.
    #[derive(Debug)]
    struct MisreportedAudits(Box<dyn CoherenceController>);

    impl CoherenceController for MisreportedAudits {
        fn node(&self) -> NodeId {
            self.0.node()
        }
        fn protocol_name(&self) -> &'static str {
            self.0.protocol_name()
        }
        fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
            self.0.access(now, op, out)
        }
        fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
            self.0.handle_message(now, msg, out)
        }
        fn handle_timer(&mut self, now: Cycle, timer: Timer, out: &mut Outbox) {
            self.0.handle_timer(now, timer, out)
        }
        fn stats(&self) -> ControllerStats {
            self.0.stats()
        }
        fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit> {
            let node = self.0.node().index();
            let mut audits = self.0.audit_block(addr);
            for audit in &mut audits {
                audit.tokens += (node % 2) as u32;
                audit.data_version += node as u64;
            }
            if addr.value().is_multiple_of(3) {
                if let Some(&first) = audits.first() {
                    let writer = BlockAudit {
                        readable: true,
                        writable: true,
                        ..first
                    };
                    audits.push(writer);
                    audits.push(writer);
                }
            }
            audits
        }
        fn audited_blocks(&self) -> Vec<BlockAddr> {
            self.0.audited_blocks()
        }
        fn outstanding_misses(&self) -> usize {
            self.0.outstanding_misses()
        }
        fn save_state(&self, w: &mut SnapWriter) {
            self.0.save_state(w)
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
            self.0.load_state(r)
        }
    }

    /// The blocks x nodes sweep the one-pass audit replaced, kept as its
    /// oracle: every node is asked about every block any node lists.
    fn audit_by_sweep(
        system: &mut System,
        in_flight_tokens: &FastHashMap<BlockAddr, (i64, i64)>,
        now: Cycle,
    ) {
        let expected_tokens = (system.config.protocol == ProtocolKind::TokenB)
            .then_some(system.config.token.tokens_per_block);
        let controllers = &system.core.controllers;
        let mut blocks: Vec<BlockAddr> = controllers
            .iter()
            .flat_map(|c| c.audited_blocks())
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        for addr in blocks {
            let audits: Vec<BlockAudit> = controllers
                .iter()
                .flat_map(|c| c.audit_block(addr))
                .collect();
            let (tokens, owners) = in_flight_tokens.get(&addr).copied().unwrap_or((0, 0));
            system.verifier.audit_block(
                addr,
                &audits,
                tokens.max(0) as u32,
                owners.max(0) as u32,
                expected_tokens,
                now,
            );
        }
    }

    /// On states with planted violations, the one-pass audit records the
    /// same violations as the full sweep, in the same order.
    #[test]
    fn the_one_pass_audit_records_what_the_full_sweep_records() {
        let mut order_visible = false;
        for (protocol, mut system, _) in contended_systems() {
            system.core.controllers = std::mem::take(&mut system.core.controllers)
                .into_iter()
                .map(|c| Box::new(MisreportedAudits(c)) as Box<dyn CoherenceController>)
                .collect();
            // In-flight tokens planted on a few held blocks as well.
            let in_flight: FastHashMap<BlockAddr, (i64, i64)> = (system.core.controllers[1])
                .audited_blocks()
                .into_iter()
                .zip([(2, 1), (-1, 0), (1, 0)])
                .collect();
            let now = system.queue.now();

            let start = system.verifier.violations().len();
            system.audit_held_blocks(&in_flight, now);
            let one_pass = system.verifier.violations()[start..].to_vec();
            let start = system.verifier.violations().len();
            audit_by_sweep(&mut system, &in_flight, now);
            let sweep = &system.verifier.violations()[start..];

            let planted = |kind: fn(&InvariantViolation) -> bool| one_pass.iter().any(kind);
            assert!(
                planted(|v| matches!(v, InvariantViolation::StaleDataRead { .. }))
                    && planted(|v| matches!(v, InvariantViolation::WriteWithoutExclusive { .. })),
                "{protocol:?}: the mutant planted too little: {one_pass:?}"
            );
            if protocol == ProtocolKind::TokenB {
                assert!(planted(|v| matches!(
                    v,
                    InvariantViolation::TokenConservation { .. }
                )));
            }
            assert_eq!(one_pass, sweep, "{protocol:?}");
            order_visible |= one_pass.windows(2).any(|pair| {
                matches!(pair, [
                    InvariantViolation::StaleDataRead { addr: a, observed_version: x, .. },
                    InvariantViolation::StaleDataRead { addr: b, observed_version: y, .. },
                ] if a == b && x != y)
            });
        }
        assert!(
            order_visible,
            "no block was audited on two nodes: a wrong node order would go unseen"
        );
    }
}
