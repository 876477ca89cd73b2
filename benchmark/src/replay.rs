//! Isolation replays: recorded traffic fed back through one layer's public
//! functions at a time, to split the runner's self time the spans cannot
//! see into, plus the whole-call timings (build, report JSON, snapshot,
//! sharded engine).
//!
//! A replay runs its layer alone, with warm caches and nothing else
//! competing, so each `est_share` is a lower estimate; what the estimates
//! leave over is reported as `runner.unattributed_share`.

use std::hint::black_box;
use std::time::Instant;

use tc_interconnect::{FaultPlane, Interconnect};
use tc_memsys::{LineTable, SetAssocCache};
use tc_sim::{Arena, ArenaRef, EventQueue};
use tc_system::{run_to_json, ExperimentPoint, RunOptions, RunReport, System, Verifier};
use tc_types::{BlockAddr, Cycle, FastHashMap, Message, NodeId, SystemConfig};
use tc_workloads::{GeneratedOp, WorkloadGenerator};

use crate::result::{Checks, Metrics};
use crate::sizes::*;
use crate::{host, stats, trace};

/// Repetitions of each replay; the fastest is kept (the work is identical,
/// so the minimum is the least disturbed).
const REPLAY_REPEATS: usize = 3;
/// The most generated operations a stream replay runs; its per-op cost is
/// scaled to the run's real operation count.
const STREAM_CAP: u64 = 400_000;

/// Nanoseconds of the fastest of [`REPLAY_REPEATS`] runs of `body`, which
/// times its own measured region.
fn fastest(mut body: impl FnMut() -> f64) -> f64 {
    (0..REPLAY_REPEATS)
        .map(|_| body())
        .fold(f64::INFINITY, f64::min)
}

fn elapsed_ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// What the runner's own layers cost over one pass of one point, each as
/// total nanoseconds scaled to the pass, with the counts behind them.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerCosts {
    pub fabric_ns: f64,
    pub sends: f64,
    pub arrivals: f64,
    pub fault_ns: f64,
    pub queue_ns: f64,
    pub queue_pairs: f64,
    pub queue_peak: f64,
    pub arena_ns: f64,
    pub arena_ops: f64,
    pub arena_parks: f64,
    pub workgen_ns: f64,
    pub workgen_ops: f64,
    pub verify_ns: f64,
    pub verify_checks: f64,
}

impl RunnerCosts {
    /// Accumulates another point's costs.
    pub fn add(&mut self, other: &RunnerCosts) {
        self.fabric_ns += other.fabric_ns;
        self.sends += other.sends;
        self.arrivals += other.arrivals;
        self.fault_ns += other.fault_ns;
        self.queue_ns += other.queue_ns;
        self.queue_pairs += other.queue_pairs;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.arena_ns += other.arena_ns;
        self.arena_ops += other.arena_ops;
        self.arena_parks += other.arena_parks;
        self.workgen_ns += other.workgen_ns;
        self.workgen_ops += other.workgen_ops;
        self.verify_ns += other.verify_ns;
        self.verify_checks += other.verify_checks;
    }

    /// The summed estimated shares of `total_ns`.
    pub fn est_share_sum(&self, total_ns: f64) -> f64 {
        (self.fabric_ns
            + self.fault_ns
            + self.queue_ns
            + self.arena_ns
            + self.workgen_ns
            + self.verify_ns)
            / total_ns
    }

    /// Reports every replay with its share of `total_ns`.
    pub fn put(&self, metrics: &mut Metrics, total_ns: f64) {
        let per = |ns: f64, count: f64| if count > 0.0 { ns / count } else { 0.0 };
        metrics.put("fabric.sends", self.sends);
        metrics.put("fabric.arrivals_per_send", per(self.arrivals, self.sends));
        metrics.put("fabric.send_ns", per(self.fabric_ns, self.sends));
        metrics.put("fabric.arrival_ns", per(self.fabric_ns, self.arrivals));
        metrics.put("fabric.est_share", self.fabric_ns / total_ns);
        metrics.put("fault.apply_ns", per(self.fault_ns, self.sends));
        metrics.put("fault.est_share", self.fault_ns / total_ns);
        metrics.put("queue.pair_ns", per(self.queue_ns, self.queue_pairs));
        metrics.put("queue.peak_depth", self.queue_peak);
        metrics.put("queue.est_share", self.queue_ns / total_ns);
        metrics.put("arena.parks", self.arena_parks);
        metrics.put("arena.op_ns", per(self.arena_ns, self.arena_ops));
        metrics.put("arena.est_share", self.arena_ns / total_ns);
        metrics.put("workgen.ops", self.workgen_ops);
        metrics.put("workgen.op_ns", per(self.workgen_ns, self.workgen_ops));
        metrics.put("workgen.est_share", self.workgen_ns / total_ns);
        metrics.put("verify.checks", self.verify_checks);
        metrics.put("verify.op_ns", per(self.verify_ns, self.verify_checks));
        metrics.put("verify.est_share", self.verify_ns / total_ns);
    }
}

fn fault_plane(config: &SystemConfig, options: &RunOptions) -> Option<FaultPlane> {
    (!options.faults.is_none()).then(|| {
        FaultPlane::new(
            options.faults,
            config.protocol,
            config.seed,
            config.interconnect.link_latency_ns,
        )
    })
}

/// Replays one point's recorded sends through the fabric, the fault plane,
/// the event queue and the message arena, and its generated operation
/// stream through the workload generator and the verifier.
pub fn runner_layers(
    point: &ExperimentPoint,
    options: &RunOptions,
    report: &RunReport,
    recording: trace::Recording,
) -> RunnerCosts {
    let config = &point.config;
    let mut sends = recording.sends;
    // The runner hands sends to the fabric in time order.
    sends.sort_by_key(|(at, _)| *at);
    // Sends beyond the record cap cost what the recorded ones cost.
    let scale = recording.sends_seen as f64 / sends.len().max(1) as f64;

    // Where and when each send arrives, faults applied: the schedule the
    // queue and arena replays reproduce.
    let mut counts: Vec<u32> = Vec::with_capacity(sends.len());
    let mut arrivals: Vec<(Cycle, NodeId)> = Vec::new();
    {
        let mut net = Interconnect::new(config.num_nodes, config.interconnect);
        let mut plane = fault_plane(config, options);
        let mut buf = Vec::new();
        for (at, msg) in &sends {
            buf.clear();
            net.send_arrivals(*at, msg, &mut buf);
            if let Some(plane) = plane.as_mut() {
                plane.apply(*at, msg, &mut buf);
            }
            counts.push(buf.len() as u32);
            arrivals.extend_from_slice(&buf);
        }
    }

    let mut fabric_arrivals = 0usize;
    let mut fabric = |with_faults: bool| {
        fastest(|| {
            let mut net = Interconnect::new(config.num_nodes, config.interconnect);
            let mut plane = if with_faults {
                fault_plane(config, options)
            } else {
                None
            };
            let mut buf = Vec::new();
            let mut seen = 0usize;
            let began = Instant::now();
            for (at, msg) in &sends {
                buf.clear();
                net.send_arrivals(*at, msg, &mut buf);
                if let Some(plane) = plane.as_mut() {
                    plane.apply(*at, msg, &mut buf);
                }
                seen += black_box(&buf).len();
            }
            let ns = elapsed_ns(began);
            if !with_faults {
                fabric_arrivals = seen;
            }
            ns
        })
    };
    let fabric_ns = fabric(false);
    // The plane's cost is what adding it to the same loop adds.
    let fault_ns = if options.faults.is_none() {
        0.0
    } else {
        (fabric(true) - fabric_ns).max(0.0)
    };

    let (queue_ns, queue_peak) = queue_replay(&sends, &counts, &arrivals, false);
    let (with_arena_ns, _) = queue_replay(&sends, &counts, &arrivals, true);
    let parks = counts.iter().filter(|&&n| n > 0).count();
    // insert + take per send, insert_shared per park, get + release per
    // arrival.
    let arena_ops = 2 * sends.len() + parks + 2 * arrivals.len();

    let ops = report.total_ops;
    let per_node = (ops / config.num_nodes.max(1) as u64).clamp(1, STREAM_CAP);
    let stream = op_stream(point, per_node);
    let workgen_ns = fastest(|| {
        let mut generator = generator(point);
        let began = Instant::now();
        for _ in 0..per_node {
            black_box(generator.next_op());
        }
        elapsed_ns(began)
    });
    let calls = verifier_calls(&stream, config.block_bytes);
    let verify_ns = fastest(|| {
        let mut verifier = Verifier::new();
        let began = Instant::now();
        for call in &calls {
            match *call {
                VerifierCall::Write { addr, version, at } => {
                    verifier.record_write(NodeId::new(0), addr, version, at)
                }
                VerifierCall::Read { addr, version, at } => {
                    verifier.check_read(NodeId::new(0), addr, version, at, at + 1)
                }
            }
        }
        let ns = elapsed_ns(began);
        assert!(
            verifier.violations().is_empty(),
            "the verifier replay generated an illegal read"
        );
        ns
    });
    let stream_scale = ops as f64 / per_node as f64;

    RunnerCosts {
        fabric_ns: fabric_ns * scale,
        sends: recording.sends_seen as f64,
        arrivals: fabric_arrivals as f64 * scale,
        fault_ns: fault_ns * scale,
        // Every event is one schedule and one pop, not only deliveries.
        queue_ns: queue_ns / arrivals.len().max(1) as f64 * report.engine.events_delivered as f64,
        queue_pairs: report.engine.events_delivered as f64,
        queue_peak: queue_peak as f64,
        arena_ns: (with_arena_ns - queue_ns).max(0.0) * scale,
        arena_ops: arena_ops as f64 * scale,
        arena_parks: parks as f64 * scale,
        workgen_ns: workgen_ns * stream_scale,
        workgen_ops: ops as f64,
        verify_ns: verify_ns * stream_scale,
        verify_checks: ops as f64,
    }
}

/// Schedules every arrival at its recorded time and pops it when the next
/// send's time has passed it, as the runner's loop does with deliveries.
/// With `with_arena`, each send is also parked, taken and re-parked shared,
/// and each pop reads and releases its payload; the arena's cost is the
/// difference between the two variants. Returns nanoseconds and the queue's
/// peak depth.
fn queue_replay(
    sends: &[(Cycle, Message)],
    counts: &[u32],
    arrivals: &[(Cycle, NodeId)],
    with_arena: bool,
) -> (f64, usize) {
    let mut peak = 0;
    let ns = fastest(|| {
        // The arena variant consumes its messages; clone them untimed.
        let mut owned: Vec<Message> = if with_arena {
            sends.iter().map(|(_, msg)| msg.clone()).collect()
        } else {
            Vec::new()
        };
        let mut owned = owned.drain(..);
        let mut queue: EventQueue<(NodeId, ArenaRef)> = EventQueue::new();
        let mut arena: Arena<Message> = Arena::new();
        let idle = ArenaRef::from_bits(0);
        let mut cursor = 0usize;
        let began = Instant::now();
        let deliver = |arena: &mut Arena<Message>, (node, handle): (NodeId, ArenaRef)| {
            if with_arena {
                black_box(arena.get(handle).addr);
                arena.release(handle);
            }
            black_box(node);
        };
        for ((at, _), &count) in sends.iter().zip(counts) {
            while queue.peek_time().is_some_and(|due| due <= *at) {
                let (_, event) = queue.pop().expect("peeked event");
                deliver(&mut arena, event);
            }
            let mut handle = idle;
            if with_arena {
                let msg = owned.next().expect("one owned message per send");
                let parked = arena.insert(msg);
                let msg = arena.take(parked);
                if count > 0 {
                    handle = arena.insert_shared(msg, count);
                }
            }
            for &(due, node) in &arrivals[cursor..cursor + count as usize] {
                queue.schedule(due, (node, handle));
            }
            cursor += count as usize;
        }
        while let Some((_, event)) = queue.pop() {
            deliver(&mut arena, event);
        }
        let ns = elapsed_ns(began);
        peak = queue.max_depth();
        ns
    });
    (ns, peak)
}

fn generator(point: &ExperimentPoint) -> WorkloadGenerator {
    WorkloadGenerator::new(
        &point.workload,
        NodeId::new(0),
        point.config.num_nodes,
        point.config.seed,
    )
}

/// The first `len` operations node 0 generates for this point.
fn op_stream(point: &ExperimentPoint, len: u64) -> Vec<GeneratedOp> {
    let mut generator = generator(point);
    (0..len).map(|_| generator.next_op()).collect()
}

enum VerifierCall {
    Write {
        addr: BlockAddr,
        version: u64,
        at: Cycle,
    },
    Read {
        addr: BlockAddr,
        version: u64,
        at: Cycle,
    },
}

/// Turns an operation stream into the verifier calls a correct run would
/// make: every store writes the next version of its block, every load
/// observes the current one.
fn verifier_calls(stream: &[GeneratedOp], block_bytes: u64) -> Vec<VerifierCall> {
    let mut current: FastHashMap<BlockAddr, u64> = FastHashMap::default();
    let mut at: Cycle = 0;
    stream
        .iter()
        .map(|generated| {
            at += generated.think_cycles + 1;
            let addr = generated.op.addr.block(block_bytes);
            let version = current.entry(addr).or_insert(0);
            if generated.op.kind.is_write() {
                *version += 1;
                VerifierCall::Write {
                    addr,
                    version: *version,
                    at,
                }
            } else {
                VerifierCall::Read {
                    addr,
                    version: *version,
                    at,
                }
            }
        })
        .collect()
}

/// Structures the controllers call into on every access, driven by the
/// point's generated address stream: an L2-shaped `SetAssocCache` probe
/// (fill on miss) and a `LineTable` insert/lookup/remove mix. Children of
/// the `ctrl.*` spans, so they carry no share of their own.
pub fn controller_children(metrics: &mut Metrics, point: &ExperimentPoint) {
    let config = &point.config;
    let blocks: Vec<BlockAddr> = op_stream(point, STREAM_CAP)
        .iter()
        .map(|generated| generated.op.addr.block(config.block_bytes))
        .collect();
    let cache_ns = fastest(|| {
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(&config.l2, config.block_bytes);
        let began = Instant::now();
        for &block in &blocks {
            match cache.get(block) {
                Some(uses) => *uses += 1,
                None => {
                    black_box(cache.insert(block, 1));
                }
            }
        }
        elapsed_ns(began)
    });
    metrics.put("cache.probe_ns", cache_ns / blocks.len() as f64);
    let table_ns = fastest(|| {
        let mut table: LineTable<u64> = LineTable::new();
        let began = Instant::now();
        // Entries live for 64 accesses, as MSHR-like state does: one
        // or_default, one lookup and one remove per block.
        for (i, &block) in blocks.iter().enumerate() {
            *table.or_default(block) += 1;
            if let Some(&old) = blocks.get(i.wrapping_sub(64)) {
                black_box(table.get(old));
                black_box(table.remove(old));
            }
        }
        elapsed_ns(began)
    });
    metrics.put("linetable.op_ns", table_ns / (3 * blocks.len()) as f64);
}

/// Whole public calls that matter when points are short: assembling a
/// system and rendering a report.
pub fn whole_calls(metrics: &mut Metrics, point: &ExperimentPoint, report: &RunReport) {
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let began = Instant::now();
            black_box(System::build(&point.config, &point.workload));
            began.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics.put("build.ms_per_system", stats::median(&builds));
    let renders = 200;
    let began = Instant::now();
    for _ in 0..renders {
        black_box(run_to_json(&point.label, black_box(report)));
    }
    metrics.put(
        "report.json_us_per_run",
        began.elapsed().as_secs_f64() * 1e6 / f64::from(renders),
    );
}

/// One mid-run snapshot: cut at half the run's events, restored into a
/// fresh system, re-saved, and resumed. The restored run must report what
/// the uninterrupted one did, and the re-saved bytes must equal the cut.
pub fn snapshot_round_trip(
    metrics: &mut Metrics,
    checks: &mut Checks,
    point: &ExperimentPoint,
    options: RunOptions,
    uninterrupted: &RunReport,
) {
    let every = (uninterrupted.engine.events_delivered / 2).max(1);
    let options = options.with_checkpoint_every(every);
    let mut cut: Option<Vec<u8>> = None;
    let full = System::build(&point.config, &point.workload).run_with_checkpoints(
        options,
        &mut |_, bytes| {
            if cut.is_none() {
                cut = Some(bytes.to_vec());
            }
        },
    );
    checks.check(&full == uninterrupted, || {
        "a checkpointed run differs from the plain run".to_string()
    });
    let Some(cut) = cut else {
        checks.check(false, || "no checkpoint was cut mid-run".to_string());
        return;
    };
    metrics.put("snapshot.bytes", cut.len() as f64);
    let mut fresh = System::build(&point.config, &point.workload);
    let began = Instant::now();
    let restored = fresh.restore(&options, &cut);
    metrics.put("snapshot.restore_ms", began.elapsed().as_secs_f64() * 1e3);
    match restored {
        Ok(progress) => {
            let began = Instant::now();
            let again = fresh.snapshot(&options, &progress);
            metrics.put("snapshot.save_ms", began.elapsed().as_secs_f64() * 1e3);
            checks.check(again == cut, || {
                "re-saving a restored system changed the snapshot bytes".to_string()
            });
            let resumed = fresh.resume(options, progress);
            checks.check(&resumed == uninterrupted, || {
                "a restored and resumed run differs from the uninterrupted run".to_string()
            });
        }
        Err(e) => checks.check(false, || format!("snapshot restore failed: {e}")),
    }
}

/// The sharded engine on `scale64` inputs at [`SHARD_OPS`], fastest of
/// three per shard count. Informational: per-window channel hand-offs
/// measure the host's scheduler as much as the engine, so none of this
/// gates. With one core the two-shard run is skipped.
pub fn sharded_engine(metrics: &mut Metrics, checks: &mut Checks, point: &ExperimentPoint) {
    let options = RunOptions {
        ops_per_node: SHARD_OPS,
        max_cycles: MAX_CYCLES,
        ..RunOptions::default()
    };
    let timed = |shards: u32| {
        let mut best: Option<(f64, f64, RunReport)> = None;
        for _ in 0..REPLAY_REPEATS {
            let cpu = host::cpu_seconds();
            let began = Instant::now();
            let report = point.run(options.with_shards(shards));
            let wall = began.elapsed().as_secs_f64();
            let cpu = host::cpu_seconds() - cpu;
            if best.as_ref().is_none_or(|(w, _, _)| wall < *w) {
                best = Some((wall, cpu, report));
            }
        }
        best.expect("at least one repetition")
    };
    let (serial_s, _, serial) = timed(0);
    let (s1_s, _, s1) = timed(1);
    checks.check(serial.verified().is_ok() && s1.verified().is_ok(), || {
        "a sharded-comparison run has violations".to_string()
    });
    let per_event = |wall: f64, r: &RunReport| wall * 1e9 / r.engine.events_delivered.max(1) as f64;
    metrics.put("shard.s1_ns_per_event", per_event(s1_s, &s1));
    metrics.put("shard.s1_vs_serial", serial_s / s1_s);
    if host::cores() < 2 {
        return;
    }
    let (s2_s, s2_cpu, s2) = timed(2);
    checks.check(s2.verified().is_ok(), || {
        "the two-shard run has violations".to_string()
    });
    checks.check(s1.determinism_view() == s2.determinism_view(), || {
        "shards(1) and shards(2) report different determinism views".to_string()
    });
    let sharding = &s2.engine.sharding;
    let busiest = sharding.shard_events.iter().copied().max().unwrap_or(0) as f64;
    let mean = sharding.shard_events.iter().sum::<u64>() as f64
        / sharding.shard_events.len().max(1) as f64;
    metrics.put("shard.s2_ns_per_event", per_event(s2_s, &s2));
    metrics.put("shard.s2_vs_s1", s1_s / s2_s);
    metrics.put("shard.windows", sharding.windows as f64);
    metrics.put("shard.sync_stalls", sharding.sync_stalls as f64);
    metrics.put(
        "shard.us_per_window",
        s2_s * 1e6 / sharding.windows.max(1) as f64,
    );
    metrics.put("shard.imbalance", busiest / mean.max(1.0));
    metrics.put("shard.cpu_util", s2_cpu / s2_s);
}
