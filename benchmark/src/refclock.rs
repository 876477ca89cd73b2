//! A reference loop that tells how fast the host is running right now.
//!
//! The hosts this benchmark runs on are small shared VMs. A register-only
//! loop on one loses 10% from one second to the next, and the simulator,
//! which also leans on the shared cache, swings by 25% and more between
//! ten-second runs (measured: the median of 10 s of `pin4` samples ranged
//! from 628 to 1143 ns/op over ten consecutive runs of one binary). No
//! estimator over wall-clock samples alone is steady under that.
//!
//! So every timed end-to-end sample is bracketed by a fixed reference loop
//! from this file — code no change to the repository can speed up — and
//! reported *at reference speed*:
//! `measured x (NOMINAL_NS / reference_ns) ^ sensitivity`.
//! On an undisturbed reference host the factor is 1 and the numbers are
//! plain nanoseconds; when a neighbour slows the core or the cache, sample
//! and reference slow together and the correction takes the shared part
//! out (measured over ten runs per workload: the spread of the per-run
//! median falls from 0.08-0.25 to 0.04-0.12). The raw wall-clock numbers
//! stay visible: `raw.ns_per_op` and `host.speed` are printed with every
//! run, and `pass.wall_s` in the traced run is never rescaled.
//!
//! The loop runs on the calling thread, so it only speaks for work done on
//! the same CPU. `campaign21` and `serve_mix` do their work on threads the
//! program spawns, and the disturbance is per CPU: with the process free to
//! use both, the loop read 70% slow on one while the campaign ran at full
//! speed on the other, and rescaling doubled `campaign21`'s spread. So an
//! end-to-end run pins itself to one CPU first (`host::pin_to_current_cpu`);
//! every thread spawned afterwards inherits that. Pinned, twelve 8 s runs of
//! `campaign21` spread 0.062 rescaled against 0.090 raw.

use std::hint::black_box;
use std::time::Instant;

/// Cost of one reference iteration, in nanoseconds, on the host the first
/// numbers were recorded on (2-core Xeon 2.1 GHz) when nothing disturbs it.
pub const NOMINAL_NS: f64 = 13.0;
/// How strongly the simulator follows the reference loop: the loop is all
/// cache probes and slows more under a noisy neighbour than the simulator
/// does. The slope of log(sample) on log(reference) over 30-sample window
/// means was 0.36-0.62 on four workloads, and of the exponents 0, 0.3, ...
/// 1.0 the ones from 0.5 to 0.7 gave the smallest run-to-run spread on all
/// of them; 1.0 (a plain ratio) over-corrects and on a quiet host adds the
/// reference's own noise.
pub const SENSITIVITY: f64 = 0.6;
/// The same for a cold `serve_mix` job, about half of which is poll and
/// socket waits that do not follow the host's speed: the slope of log(job
/// time) on log(reference) was 0.30 over 12-job window means and 0.42 over
/// the medians of ten runs, and of 0, 0.2, 0.3, 0.4, 0.6 the exponents 0.3
/// and 0.4 left the narrowest range of run medians (0.09 and 0.08, from
/// 0.16 raw).
pub const SERVE_SENSITIVITY: f64 = 0.35;
/// Reference table size: 1 MiB of `u64`, beyond L1 and about the size of
/// the simulator's hot state, so shared-cache pressure shows in it.
const TABLE_WORDS: usize = 128 * 1024;
/// Iterations per measurement (about 13 ms at nominal speed). A reading is
/// a plain mean over that time, like the sample it brackets: a robust
/// reading that discards slow chunks discards the very disturbance it is
/// there to follow (tried: the spread doubled).
const ITERATIONS: u64 = 1_000_000;

/// The reference loop and its last measurement.
#[derive(Debug)]
pub struct RefClock {
    /// How strongly the timed work follows the loop; see [`SENSITIVITY`].
    sensitivity: f64,
    table: Vec<u64>,
    /// Nanoseconds per iteration of the most recent measurement.
    last_ns: f64,
    /// Every speed factor handed out, for reporting.
    speeds: Vec<f64>,
}

/// A timed piece of work and the host speed around it.
#[derive(Debug)]
pub struct Timed<T> {
    pub value: T,
    /// Wall-clock seconds, as measured.
    pub wall_s: f64,
    /// How fast the host ran the simulator relative to the reference host,
    /// from the reference cost measured just before and just after: below
    /// 1 when it ran slower.
    pub speed: f64,
}

impl<T> Timed<T> {
    /// The wall time rescaled to reference speed.
    pub fn at_reference_speed(&self) -> f64 {
        self.wall_s * self.speed
    }
}

impl RefClock {
    pub fn new(sensitivity: f64) -> Self {
        let mut clock = RefClock {
            sensitivity,
            table: vec![1; TABLE_WORDS],
            last_ns: NOMINAL_NS,
            speeds: Vec::new(),
        };
        // Page the table in, then take the first real reading.
        clock.measure();
        clock.measure();
        clock
    }

    /// One reference measurement: a xorshift-driven random
    /// read-modify-write walk with a data-dependent branch, the shape of a
    /// hash probe.
    fn measure(&mut self) -> f64 {
        // Untimed: bring the table back into cache, so the reading does not
        // depend on how much of it the sample in between evicted.
        black_box(
            self.table
                .iter()
                .fold(0u64, |sum, word| sum.wrapping_add(*word)),
        );
        let mask = (self.table.len() - 1) as u64;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let began = Instant::now();
        for _ in 0..ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x & mask) as usize];
            if *slot & 1 == 0 {
                *slot = slot.wrapping_add(x);
            } else {
                x = x.wrapping_add(*slot >> 3);
                *slot ^= x;
            }
        }
        black_box(x);
        self.last_ns = began.elapsed().as_nanos() as f64 / ITERATIONS as f64;
        self.last_ns
    }

    /// Runs `body` between two reference measurements (the one before is
    /// the previous call's one after).
    pub fn timed<T>(&mut self, body: impl FnOnce() -> T) -> Timed<T> {
        let before_ns = self.last_ns;
        let began = Instant::now();
        let value = body();
        let wall_s = began.elapsed().as_secs_f64();
        let after_ns = self.measure();
        let speed = (NOMINAL_NS / ((before_ns + after_ns) / 2.0)).powf(self.sensitivity);
        self.speeds.push(speed);
        Timed {
            value,
            wall_s,
            speed,
        }
    }

    /// The median speed factor handed out so far.
    pub fn median_speed(&self) -> f64 {
        crate::stats::median(&self.speeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_work_reports_wall_and_a_positive_speed() {
        let mut clock = RefClock::new(SENSITIVITY);
        let timed = clock.timed(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(timed.wall_s >= 0.005);
        assert!(timed.speed > 0.0 && timed.speed.is_finite());
        assert!((timed.at_reference_speed() - timed.wall_s * timed.speed).abs() < 1e-12);
        assert_eq!(clock.median_speed(), timed.speed);
    }
}
