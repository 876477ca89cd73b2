//! Sharded execution: one run split spatially across worker threads with
//! conservative, topology-derived lookahead (classic conservative PDES,
//! barrier-window flavor).
//!
//! # How the run is partitioned
//!
//! Each shard owns a *contiguous* range of nodes — their controllers,
//! processors, line tables, and outstanding-miss bookkeeping — plus its own
//! event queue and message arena: one [`StepCore`], the same code the serial
//! loop steps, under this module's [`Scheduler`] (keyed heap, logged
//! verifier calls). What lives here is only what is genuinely sharded:
//! keys, logs, envelopes, the window loop and the merge. Everything a node
//! does to itself (wakeups, timers, cache hits) stays on its shard. The only
//! cross-shard interaction is a message send, and every send goes through
//! the *one* global interconnect model at a window boundary: the fabric's
//! per-link bandwidth state (`free_at` under
//! [`tc_types::BandwidthMode::Limited`]) is order-sensitive global state, so
//! sends are committed serially, in a canonical merged order, by the
//! coordinator.
//!
//! # Why the windows are safe (lookahead)
//!
//! The window width is [`tc_interconnect::Interconnect::lookahead_ns`]: the
//! minimum hop count between any two *distinct* nodes times the link
//! latency, i.e. the minimum time any send needs before it can affect
//! another node. Every window `[start, end)` satisfies
//! `end - start <= lookahead` (the coordinator aligns boundaries to
//! lookahead multiples and skips ahead over idle gaps), so a send popped at
//! cycle `c >= end - lookahead` cannot produce a remote arrival before
//! `c + lookahead >= end` — committing all of a window's sends at its end
//! boundary never delivers into the past. The one exception is a node
//! sending to *itself* (zero links crossed); those arrivals are clamped to
//! the boundary, a legal extra delay on an unordered fabric that every
//! protocol already tolerates (it is exactly what the perturbation plane
//! injects on purpose).
//!
//! # Why `shards(1) == shards(N)`, bit for bit
//!
//! Determinism is by construction, not by luck:
//!
//! * Every event has a canonical key. Node-originated events (wakeups,
//!   timers, send-hand-offs) are keyed `(node, per-node monotone seq)` —
//!   a node's events are always processed on its home shard in `(cycle,
//!   key)` order, so the allocation sequence is a function of that node's
//!   history alone. Committed deliveries are keyed by the coordinator's
//!   global commit counter plus the arrival's index in the fan-out.
//! * Shards only exchange *logs* (sends and verifier operations), each
//!   entry tagged with the originating event's `(cycle, key)` and its index
//!   within that event; the coordinator merges them into one canonical
//!   order before touching shared state (fabric, perturbation plane,
//!   verifier).
//! * The perturbation plane's RNG streams are forked *per source node*
//!   (see [`tc_interconnect::FaultPlane::armed`]), so the dice a message
//!   sees depend on which node sent it, never on which shard or thread.
//! * All run-control decisions (draining, drain limit, livelock budget,
//!   termination) are made by the coordinator at window boundaries from
//!   merged totals — quantities that are themselves shard-invariant.
//!
//! The per-shard *capacity* telemetry (queue/arena peaks, per-shard event
//! counts in [`ShardStats`]) necessarily differs with the shard count;
//! [`crate::RunReport::determinism_view`] is the report view the
//! bit-identity contract is stated over.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc;

use tc_types::{Cycle, EngineStats, FastHashMap, Message, NodeId, Outbox, ShardStats};

use crate::report::RunReport;
use crate::runner::{drain_limit, RunOptions, RunProgress, System};
use crate::step::{add_in_flight_tokens, Event, Scheduler, StepCore};
use crate::verify::VerifyOp;

/// High bit distinguishes coordinator-committed deliveries from
/// node-originated events; within a cycle, all node events order before all
/// deliveries (an arbitrary but fixed — hence deterministic — convention).
const DELIVERY_KEY_BIT: u64 = 1 << 63;

/// Canonical key for a node-originated event: the allocation sequence is a
/// function of the owning node's own processing history, so it is identical
/// at every shard count.
fn node_key(node: usize, seq: u64) -> u64 {
    debug_assert!(seq < (1 << 40), "per-node event sequence overflow");
    ((node as u64 + 1) << 40) | seq
}

/// Canonical key for a committed delivery: global commit order of the send,
/// then the arrival's index within the fan-out.
fn delivery_key(commit_seq: u64, arrival_idx: usize) -> u64 {
    debug_assert!(arrival_idx < (1 << 12), "fan-out wider than the key space");
    debug_assert!(commit_seq < (1 << 51), "commit sequence overflow");
    DELIVERY_KEY_BIT | (commit_seq << 12) | arrival_idx as u64
}

/// One queued event. Ordered by `(at, key)`; keys are unique, so the order
/// is total and the payload is never compared.
#[derive(Debug)]
struct QEntry {
    at: Cycle,
    key: u64,
    event: Event,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// One entry of a shard's window log: a popped send, for the coordinator to
/// commit to the global fabric, or a verifier call, for it to apply to the
/// one verifier.
#[derive(Debug)]
enum Logged {
    Send(Message),
    Verify(VerifyOp),
}

/// A log entry at its canonical position `(cycle, key, sub)`: the popped
/// event's cycle and key plus a per-event counter. The coordinator merges
/// every shard's log into that order before touching shared state.
#[derive(Debug)]
struct Rec {
    pos: (Cycle, u64, u32),
    what: Logged,
}

/// A committed message headed for one shard: the payload plus every
/// delivery (cycle, key, node) it owes that shard. A fan-out spanning
/// shards is cloned per shard; within a shard the payload is parked once.
#[derive(Debug)]
struct Envelope {
    msg: Message,
    deliveries: Vec<(Cycle, u64, NodeId)>,
}

/// One window's marching orders. Closing the channel ends the worker.
struct Window {
    end: Cycle,
    draining: bool,
    envelopes: Vec<Envelope>,
}

/// What a shard reports back at each window boundary.
struct WindowDone {
    log: Vec<Rec>,
    popped: u64,
    /// Cumulative operations completed on this shard.
    completed: u64,
    /// Cumulative transactions completed on this shard.
    transactions: u64,
    /// Earliest pending event after the window, for global-min derivation.
    next_pending: Option<Cycle>,
    /// Latest cycle this shard has processed, for the final clock.
    last_popped: Cycle,
}

/// The windowed engine's two answers to the step core: events go onto a
/// heap under the originating node's next canonical key, and verifier calls
/// are logged under the current event's canonical position.
struct Windowed {
    lo: usize,
    queue: BinaryHeap<Reverse<QEntry>>,
    peak_queue: u64,
    /// Per owned node, how many keys it has drawn.
    node_seq: Vec<u64>,
    log: Vec<Rec>,
    /// Canonical position the next log entry takes: the cycle and key of
    /// the event being processed, and how many entries it has logged.
    pos: (Cycle, u64, u32),
}

impl Windowed {
    fn push(&mut self, at: Cycle, key: u64, event: Event) {
        self.queue.push(Reverse(QEntry { at, key, event }));
        self.peak_queue = self.peak_queue.max(self.queue.len() as u64);
    }

    /// Pops the earliest event, if it is due before cycle `end`.
    fn pop_before(&mut self, end: Cycle) -> Option<QEntry> {
        if self.queue.peek()?.0.at >= end {
            return None;
        }
        self.queue.pop().map(|Reverse(entry)| entry)
    }

    fn log(&mut self, what: Logged) {
        self.log.push(Rec {
            pos: self.pos,
            what,
        });
        self.pos.2 += 1;
    }
}

impl Scheduler for Windowed {
    fn schedule(&mut self, at: Cycle, origin: NodeId, event: Event) {
        let seq = &mut self.node_seq[origin.index() - self.lo];
        let key = node_key(origin.index(), *seq);
        *seq += 1;
        self.push(at, key, event);
    }

    fn verify(&mut self, op: VerifyOp) {
        self.log(Logged::Verify(op));
    }
}

/// One shard: the step core over its node range, its keyed queue and log.
struct Shard {
    core: StepCore,
    sched: Windowed,
}

impl Shard {
    fn new(core: StepCore) -> Self {
        let nodes = core.nodes();
        let mut sched = Windowed {
            lo: nodes.start,
            queue: BinaryHeap::new(),
            peak_queue: 0,
            node_seq: vec![0; nodes.len()],
            log: Vec::new(),
            pos: (0, 0, 0),
        };
        for node in nodes.map(NodeId::new) {
            sched.schedule(0, node, Event::Wakeup(node));
        }
        Shard { core, sched }
    }

    /// Queues the window's committed deliveries, then steps every pending
    /// event with `cycle < end` in `(cycle, key)` order. Popped sends are
    /// logged for the coordinator to commit at the boundary, not applied.
    fn process_window(&mut self, window: Window, out: &mut Outbox) -> WindowDone {
        for env in window.envelopes {
            let parked = self
                .core
                .messages
                .insert_shared(env.msg, env.deliveries.len() as u32);
            for (at, key, node) in env.deliveries {
                self.sched
                    .push(at, key, Event::Deliver { node, msg: parked });
            }
        }
        let mut popped = 0u64;
        while let Some(QEntry { at, key, event }) = self.sched.pop_before(window.end) {
            self.sched.pos = (at, key, 0);
            popped += 1;
            let sent = self
                .core
                .step(at, event, window.draining, &mut self.sched, out);
            if let Some(msg_ref) = sent {
                self.sched
                    .log(Logged::Send(self.core.messages.take(msg_ref)));
            }
        }
        WindowDone {
            log: std::mem::take(&mut self.sched.log),
            popped,
            completed: self.core.completed_ops,
            transactions: self.core.total_transactions(),
            next_pending: self.sched.queue.peek().map(|Reverse(e)| e.at),
            // Events pop in cycle order within and across windows.
            last_popped: self.sched.pos.0,
        }
    }
}

fn worker(mut shard: Shard, rx: mpsc::Receiver<Window>, tx: mpsc::SyncSender<WindowDone>) -> Shard {
    let mut out = Outbox::new();
    while let Ok(window) = rx.recv() {
        if tx.send(shard.process_window(window, &mut out)).is_err() {
            break;
        }
    }
    shard
}

/// Runs `system` to completion across `options.shards` worker threads.
/// Called by [`System::run`] when `options.shards > 0`: deals the system's
/// step core out to the shards, drives the window loop against the system's
/// own fabric and verifier, and merges the core back before the shared
/// finish path, so post-run inspection (`controller_debug`,
/// `outstanding_blocks`, `events_delivered`) works the same as after a
/// serial run.
///
/// # Panics
///
/// Re-raises, with its original payload, the first panic of a shard worker
/// (a controller bug, say) once every worker has been joined.
pub(crate) fn run_sharded(system: &mut System, options: &RunOptions) -> RunReport {
    let num_nodes = system.config.num_nodes;
    let num_shards = (options.shards.max(1) as usize).min(num_nodes);
    let target_total = options.ops_per_node * num_nodes as u64;
    let drain_limit = drain_limit(options);
    let lookahead = system.interconnect.lookahead_ns();
    system.arm_sabotage(options);
    let bound = options.starvation_bound(&system.config);
    let mut progress = RunProgress::start_per_node(options, &system.config);

    let ranges: Vec<(usize, usize)> = (0..num_shards)
        .map(|s| (s * num_nodes / num_shards, (s + 1) * num_nodes / num_shards))
        .collect();
    let mut node_shard = vec![0usize; num_nodes];
    for (s, &(lo, hi)) in ranges.iter().enumerate() {
        node_shard[lo..hi].fill(s);
    }
    let shards: Vec<Shard> = system
        .core
        .split(&ranges)
        .into_iter()
        .map(Shard::new)
        .collect();

    let mut stats = ShardStats {
        shards: num_shards as u32,
        lookahead_ns: lookahead,
        windows: 0,
        sync_stalls: 0,
        shard_events: vec![0; num_shards],
        shard_peak_queue: vec![0; num_shards],
        shard_peak_arena: vec![0; num_shards],
    };

    // Merged totals, refreshed at window boundaries only — quantities that
    // are themselves shard-invariant, so every run-control decision is.
    let mut completed_total = 0u64;
    let mut transactions_total = 0u64;
    let mut final_now: Cycle = 0;
    let mut boundary: Cycle = 0;
    let mut commit_seq = 0u64;
    let mut pending: Vec<Vec<Envelope>> = (0..num_shards).map(|_| Vec::new()).collect();
    let mut next_pending: Vec<Option<Cycle>> = vec![Some(0); num_shards];

    let shards: Vec<Shard> = std::thread::scope(|scope| {
        let mut cmd_txs = Vec::with_capacity(num_shards);
        let mut done_rxs = Vec::with_capacity(num_shards);
        let mut handles = Vec::with_capacity(num_shards);
        for shard in shards {
            let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Window>(1);
            let (done_tx, done_rx) = mpsc::sync_channel::<WindowDone>(1);
            cmd_txs.push(cmd_tx);
            done_rxs.push(done_rx);
            handles.push(scope.spawn(move || worker(shard, cmd_rx, done_tx)));
        }

        let mut by_shard: Vec<Vec<(Cycle, u64, NodeId)>> =
            (0..num_shards).map(|_| Vec::new()).collect();
        let mut arrivals: Vec<(Cycle, NodeId)> = Vec::new();

        // A channel that closes mid-run means its worker panicked: stop
        // issuing windows and let the joins below surface the payload.
        'windows: loop {
            // Global minimum pending cycle across shard queues and
            // not-yet-dispatched envelopes; `None` means the run drained.
            let mut global_min: Option<Cycle> = None;
            let mut fold = |c: Cycle| global_min = Some(global_min.map_or(c, |m: Cycle| m.min(c)));
            for s in 0..num_shards {
                if let Some(c) = next_pending[s] {
                    fold(c);
                }
                for env in &pending[s] {
                    for &(at, _, _) in &env.deliveries {
                        fold(at);
                    }
                }
            }
            let Some(global_min) = global_min else { break };

            // The serial loop stamps the cycle of the pop that crossed the
            // target; boundary quantization makes that the end of the
            // window the target was crossed in (within one lookahead of any
            // legal schedule's stamp, and shard-count-invariant).
            let stamp = if completed_total >= target_total {
                boundary
            } else {
                global_min
            };
            if !progress.keep_going(
                options,
                target_total,
                global_min,
                stamp,
                completed_total,
                || transactions_total,
            ) {
                break;
            }

            let mut end = (global_min / lookahead + 1) * lookahead;
            if progress.draining() {
                end = end.min(drain_limit);
            }
            stats.windows += 1;
            for s in 0..num_shards {
                let window = Window {
                    end,
                    draining: progress.draining(),
                    envelopes: std::mem::take(&mut pending[s]),
                };
                if cmd_txs[s].send(window).is_err() {
                    break 'windows;
                }
            }
            let mut dones: Vec<WindowDone> = Vec::with_capacity(num_shards);
            for done_rx in &done_rxs {
                let Ok(done) = done_rx.recv() else {
                    break 'windows;
                };
                dones.push(done);
            }

            let mut window_events = 0u64;
            let prev_completed = completed_total;
            completed_total = 0;
            transactions_total = 0;
            for (s, done) in dones.iter().enumerate() {
                window_events += done.popped;
                stats.shard_events[s] += done.popped;
                if done.popped == 0 {
                    stats.sync_stalls += 1;
                }
                completed_total += done.completed;
                transactions_total += done.transactions;
                next_pending[s] = done.next_pending;
                final_now = final_now.max(done.last_popped);
            }

            // Log merge: every shard's logged verifier calls and sends,
            // applied to the one verifier and the one global fabric (and
            // perturbation plane) in canonical (cycle, key, sub) order.
            // Arrivals are clamped to the boundary — a no-op for anything
            // that crossed a link (the lookahead guarantees it) and a legal
            // delay for self-sends.
            let mut log: Vec<Rec> = Vec::new();
            for done in &mut dones {
                log.append(&mut done.log);
            }
            log.sort_unstable_by_key(|rec| rec.pos);
            for Rec { pos, what } in log {
                let msg = match what {
                    Logged::Verify(op) => {
                        system.verifier.apply(op, bound, pos.0);
                        continue;
                    }
                    Logged::Send(msg) => msg,
                };
                progress.commit_send(&mut system.interconnect, pos.0, &msg, &mut arrivals);
                if arrivals.is_empty() {
                    continue;
                }
                let seq = commit_seq;
                commit_seq += 1;
                for (idx, &(at, node)) in arrivals.iter().enumerate() {
                    by_shard[node_shard[node.index()]].push((
                        at.max(end),
                        delivery_key(seq, idx),
                        node,
                    ));
                }
                for s in 0..num_shards {
                    if by_shard[s].is_empty() {
                        continue;
                    }
                    pending[s].push(Envelope {
                        msg: msg.clone(),
                        deliveries: std::mem::take(&mut by_shard[s]),
                    });
                }
            }

            boundary = end;

            // Livelock watchdog, window-quantized: windows are at most one
            // lookahead wide, so the budget still bounds the run tightly.
            let progressed = completed_total != prev_completed;
            if progress.livelock_tick(options, progressed, window_events, boundary) {
                break;
            }
        }

        drop(cmd_txs);
        let mut shards = Vec::with_capacity(num_shards);
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(shard) => shards.push(shard),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        shards
    });

    // Merge the shards back together, in node order.
    system.windowed_events += stats.shard_events.iter().sum::<u64>();
    let mut engine = EngineStats {
        sharding: stats,
        ..EngineStats::default()
    };
    let mut in_flight_tokens = FastHashMap::default();
    for (s, shard) in shards.into_iter().enumerate() {
        let peak_arena = shard.core.messages.high_water() as u64;
        engine.sharding.shard_peak_queue[s] = shard.sched.peak_queue;
        engine.sharding.shard_peak_arena[s] = peak_arena;
        engine.peak_queue_depth = engine.peak_queue_depth.max(shard.sched.peak_queue);
        engine.peak_arena_occupancy = engine.peak_arena_occupancy.max(peak_arena);
        engine.arena_accounting_errors += shard.core.messages.accounting_errors();
        shard.core.add_in_flight(
            shard.sched.queue.iter().map(|Reverse(entry)| &entry.event),
            &mut in_flight_tokens,
        );
        system.core.absorb(shard.core);
    }
    // Committed-but-undispatched envelopes (a drain-limit or livelock cut
    // mid-flight): their tokens are in the fabric, so the conservation
    // audit must see them — one count per delivery, like pending `Deliver`
    // events.
    for env in pending.iter().flatten() {
        for _ in &env.deliveries {
            add_in_flight_tokens(&mut in_flight_tokens, &env.msg);
        }
    }
    system.finish(options, progress, final_now, &in_flight_tokens, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tc_protocols::ProtocolRegistry;
    use tc_types::{
        AccessOutcome, AdversarySpec, BlockAddr, BlockAudit, CoherenceController, ControllerStats,
        FaultSpec, MemOp, ProtocolKind, SystemConfig, Timer,
    };
    use tc_workloads::WorkloadProfile;

    use crate::{Campaign, ExperimentPoint};

    fn small_config(protocol: ProtocolKind, seed: u64) -> SystemConfig {
        let mut config = SystemConfig::isca03_default()
            .with_nodes(4)
            .with_protocol(protocol)
            .with_seed(seed);
        config.l2.size_bytes = 256 * 1024;
        config
    }

    fn run_at(config: &SystemConfig, options: RunOptions, shards: u32) -> RunReport {
        let mut system = System::build(config, &WorkloadProfile::oltp());
        system.run(options.with_shards(shards))
    }

    fn base_options() -> RunOptions {
        RunOptions {
            ops_per_node: 600,
            max_cycles: 50_000_000,
            ..RunOptions::default()
        }
    }

    /// The acceptance bar: the same run at shard counts 1, 2, and 4 yields
    /// bit-identical reports (behavioral view) for every protocol and
    /// several seeds.
    #[test]
    fn shard_count_is_invisible_across_protocols_and_seeds() {
        for protocol in [
            ProtocolKind::TokenB,
            ProtocolKind::Directory,
            ProtocolKind::Hammer,
            ProtocolKind::Snooping,
        ] {
            for seed in [12, 99] {
                let config = small_config(protocol, seed);
                let one = run_at(&config, base_options(), 1).determinism_view();
                assert!(
                    one.violations.is_empty(),
                    "{protocol:?}/{seed}: {:?}",
                    one.violations
                );
                assert!(one.total_ops >= 4 * 600, "{protocol:?}/{seed}");
                for shards in [2u32, 4] {
                    let many = run_at(&config, base_options(), shards).determinism_view();
                    assert_eq!(
                        one, many,
                        "{protocol:?} seed {seed}: shards(1) != shards({shards})"
                    );
                }
            }
        }
    }

    /// Per-source-node RNG streams: a faulted + adversarial run reproduces
    /// (seed, spec) exactly at every shard count — the fault/adversary dice
    /// a message sees cannot depend on the partition.
    #[test]
    fn faulted_and_adversarial_runs_are_shard_count_invariant() {
        let faults = FaultSpec::none()
            .with_drop(0.002)
            .with_dup(0.001)
            .with_delay(0.01, 120)
            .with_seed(7);
        let adversary = AdversarySpec::none().with_reorder(4).with_seed(9);
        let options = base_options()
            .with_faults(faults)
            .with_adversary(adversary)
            .with_livelock_budget(2_000_000);
        let config = small_config(ProtocolKind::TokenB, 12);
        let one = run_at(&config, options, 1).determinism_view();
        assert!(one.engine.faults.total_injected() > 0 || one.engine.faults.reissue_timeouts > 0);
        for shards in [2u32, 4] {
            let many = run_at(&config, options, shards).determinism_view();
            assert_eq!(one, many, "faulted run: shards(1) != shards({shards})");
        }
    }

    /// Shard counts above the node count clamp instead of panicking or
    /// changing results.
    #[test]
    fn shard_count_clamps_to_node_count() {
        let config = small_config(ProtocolKind::Directory, 12);
        let four = run_at(&config, base_options(), 4).determinism_view();
        let sixteen = run_at(&config, base_options(), 16).determinism_view();
        assert_eq!(four, sixteen);
    }

    /// The sharded report carries real sharding telemetry.
    #[test]
    fn sharded_report_records_topology_derived_lookahead() {
        let config = small_config(ProtocolKind::TokenB, 12);
        let report = run_at(&config, base_options(), 2);
        let sharding = &report.engine.sharding;
        assert_eq!(sharding.shards, 2);
        assert!(sharding.lookahead_ns > 0);
        assert!(sharding.windows > 0);
        assert_eq!(sharding.shard_events.len(), 2);
        assert_eq!(
            sharding.shard_events.iter().sum::<u64>(),
            report.engine.events_delivered
        );
        // Serial runs carry no shard stats.
        let serial = run_at(&config, base_options(), 0);
        assert_eq!(serial.engine.sharding, ShardStats::default());
    }

    /// `System::events_delivered` reports the run that just ended on the
    /// windowed engine too, not the idle serial queue's counter.
    #[test]
    fn events_delivered_accessor_matches_the_sharded_report() {
        let config = small_config(ProtocolKind::TokenB, 12);
        let mut system = System::build(&config, &WorkloadProfile::oltp());
        let report = system.run(base_options().with_shards(2));
        assert!(report.engine.events_delivered > 0);
        assert_eq!(system.events_delivered(), report.engine.events_delivered);
    }

    /// A TokenB controller that panics on the 500th message it is handed.
    #[derive(Debug)]
    struct PanicsMidRun {
        inner: Box<dyn CoherenceController>,
        messages: u32,
    }

    impl CoherenceController for PanicsMidRun {
        fn node(&self) -> NodeId {
            self.inner.node()
        }
        fn protocol_name(&self) -> &'static str {
            self.inner.protocol_name()
        }
        fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
            self.inner.access(now, op, out)
        }
        fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
            self.messages += 1;
            assert!(self.messages < 500, "controller bug at message 500");
            self.inner.handle_message(now, msg, out)
        }
        fn handle_timer(&mut self, now: Cycle, timer: Timer, out: &mut Outbox) {
            self.inner.handle_timer(now, timer, out)
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
        fn save_state(&self, w: &mut tc_sim::SnapWriter) {
            self.inner.save_state(w)
        }
        fn load_state(
            &mut self,
            r: &mut tc_sim::SnapReader<'_>,
        ) -> Result<(), tc_sim::SnapshotError> {
            self.inner.load_state(r)
        }
    }

    /// A panic inside a shard worker must reach the campaign driver as that
    /// panic — the failing point's label and the original message — not as
    /// the coordinator's "worker hung up" and never as a stalled barrier.
    #[test]
    fn a_panicking_shard_worker_surfaces_its_own_message_through_the_campaign() {
        let mut registry = ProtocolRegistry::empty();
        registry.register("panics-mid-run", ProtocolKind::TokenB, |node, config| {
            Box::new(PanicsMidRun {
                inner: tc_protocols::default_registry().build(node, config),
                messages: 0,
            })
        });
        let point = ExperimentPoint::new(
            "doomed-point".to_string(),
            small_config(ProtocolKind::TokenB, 12),
            WorkloadProfile::oltp(),
        );
        let payload = catch_unwind(AssertUnwindSafe(|| {
            Campaign::new(vec![point])
                .options(base_options().with_shards(2))
                .registry(registry)
                .threads(1)
                .run()
        }))
        .expect_err("the worker's panic must fail the campaign");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("doomed-point") && message.contains("controller bug at message 500"),
            "panic must carry the point's label and the worker's message, got: {message}"
        );
    }

    /// Checkpointing composes with the serial engine only; the combination
    /// must refuse loudly, not silently skip snapshots.
    #[test]
    #[should_panic(expected = "checkpointing is not supported under sharded execution")]
    fn sharded_run_with_checkpoints_panics() {
        let config = small_config(ProtocolKind::TokenB, 12);
        let mut system = System::build(&config, &WorkloadProfile::oltp());
        system.run(base_options().with_shards(2).with_checkpoint_every(1000));
    }
}
