//! The one table of sizes. These are constants, not flags: two result files
//! are comparable only if they ran the same work. The `why` strings in
//! `BENCHMARK.json` mirror them.
//!
//! The issue timed 600k / 20k / 3000 / 120k / 2000 ops on a 2-core 2.1 GHz
//! Xeon (1.5-3 s per sample). The contract allows 136 runs in 3420 s, and on
//! this host a run's median steadies only with the number of samples in it
//! (see `refclock`), so every `ops` below is that size divided by eight,
//! uniformly; samples are then 0.15-0.45 s and a run takes its median over
//! as many as fit in `--seconds`.

/// The unit tests run the same code on a tenth of the work.
const fn sized(ops: u64) -> u64 {
    if cfg!(test) {
        ops / 10
    } else {
        ops
    }
}

/// `pin4`: TokenB / torus / OLTP on 4 nodes.
pub const PIN4_OPS: u64 = sized(75_000);
/// `paper16`: each of the four Table 1 protocol points.
pub const PAPER16_OPS: u64 = sized(2_500);
/// `scale64`: TokenB / torus / OLTP on 64 nodes, serial engine.
pub const SCALE64_OPS: u64 = sized(375);
/// `contended16`: TokenB / torus / hot_block on 16 nodes under faults.
pub const CONTENDED16_OPS: u64 = sized(15_000);
/// The fault spec `contended16` runs under.
pub const CONTENDED16_FAULTS: &str = "drop=0.01,dup=0.005,reorder=4";
/// `campaign21`: each of the 21 `fig5-runtime` points. Kept at the issue's
/// size, which is what makes build and driver cost visible; the shrink here
/// is one pass per sample instead of four or more.
pub const CAMPAIGN21_OPS: u64 = sized(300);
/// `serve_mix`: each point of a submitted job.
pub const SERVE_OPS: u64 = sized(250);
/// `serve_mix`: jobs in one cold repetition.
pub const SERVE_COLD_JOBS: usize = if cfg!(test) { 2 } else { 6 };
/// `serve_mix`: resubmissions in the traced run's hot phase (a 95th
/// percentile needs 200).
pub const SERVE_HITS: usize = if cfg!(test) { 200 } else { 400 };
/// `serve_mix`: jobs in the overlap phase (half their points cached).
pub const SERVE_OVERLAP_JOBS: usize = if cfg!(test) { 4 } else { 12 };
/// Sharded-engine layer metrics: `scale64` inputs at this many ops (the
/// issue's 500 divided by four; below that start-up is all there is).
pub const SHARD_OPS: u64 = sized(125);

/// The house pin: seed 12, TokenB / OLTP / 4 nodes, 20k ops.
pub const HOUSE_PIN_SEED: u64 = 12;
pub const HOUSE_PIN_OPS: u64 = 20_000;
pub const HOUSE_PIN_EVENTS: u64 = 317_430;

/// Simulated-time ceiling; far above what any workload here reaches.
pub const MAX_CYCLES: u64 = 200_000_000_000;

/// Spans of each point that a traced run writes out (all are recorded and
/// counted; the file is for reading, and ten seeds of it should stay small).
pub const SPANS_WRITTEN_PER_POINT: usize = 50_000;
/// How many times a run sets up (inputs, first build, warm-up pass);
/// `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// Fewest timed samples a run reports a median over.
pub const MIN_SAMPLES: usize = 3;
