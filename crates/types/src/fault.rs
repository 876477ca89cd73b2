//! Fault-injection vocabulary: what the fabric may do to a message, which
//! protocols contract to survive which fault classes, and the counters the
//! fault plane reports back.
//!
//! The paper's decoupling claim is that the correctness substrate (token
//! counting + persistent requests) keeps the system safe and live even when
//! the performance protocol's messages are lost, duplicated, delayed, or
//! reordered. [`FaultSpec`] is the declarative description of such an
//! unreliable fabric; `tc_interconnect::FaultPlane` executes it
//! deterministically from its own RNG stream so `(seed, FaultSpec)`
//! reproduces the exact same fault sequence bit-for-bit.
//!
//! Two gates bound what is ever injected:
//!
//! * **Protocol granularity** — [`ProtocolKind::tolerated_faults`] declares
//!   the fault classes a protocol contracts to survive, and
//!   [`ProtocolKind::admits`] is the one check of a run's fault *and*
//!   adversary specs against it. Snooping assumes a reliable totally-ordered
//!   tree, so it contracts for nothing. The plane refuses to arm outside a
//!   contract, and every outside boundary asks first, for an error naming
//!   the field.
//! * **Message granularity** — even TokenB only tolerates loss and
//!   duplication of *transient requests* (the paper's "requests are hints").
//!   Token-carrying messages must never be dropped (destroys tokens) or
//!   duplicated (mints tokens): the conservation invariant the verifier
//!   audits is a property of the *system*, fabric included.
//!   [`FaultSpec::loss_eligible`] encodes that line.

use std::fmt;

use tc_sim::snap_struct;

use crate::adversary::AdversarySpec;
use crate::clauses::{clauses, number, spec_string, split, ClauseWriter};
use crate::config::ProtocolKind;
use crate::ids::Cycle;
use crate::message::{Message, MsgKind};
use crate::named_enum;

/// One part per million; probabilities in [`FaultSpec`] are stored in ppm so
/// the spec stays all-integer (`Copy + Eq + Hash`, usable inside
/// `RunOptions` without breaking its derives).
pub const PPM: u32 = 1_000_000;

/// The classes of misbehaviour the fault plane can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A message (or one arrival of a fan-out) is silently discarded.
    Drop,
    /// A message arrival is delivered twice, the copy skewed a few cycles.
    Duplicate,
    /// A message arrival is pushed later by a bounded random jitter.
    Delay,
    /// Arrival times are scrambled within a bounded window, so messages on
    /// the same path can overtake each other.
    Reorder,
    /// A link between two nodes is down for a scheduled window; arrivals
    /// that would cross it are deferred until the link comes back up.
    LinkDown,
}

// Short lowercase names, matching the `--faults` spec syntax.
named_enum!(FaultKind, "fault class" {
    Drop => "drop",
    Duplicate => "dup",
    Delay => "delay",
    Reorder => "reorder",
    LinkDown => "link",
});

/// A scheduled outage of the (undirected) link between two nodes.
///
/// While `from <= now < until`, arrivals between the pair are deferred to
/// just after `until` (plus a small deterministic jitter so deferred
/// messages do not all land on the same cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkOutage {
    /// One endpoint (node index).
    pub a: u32,
    /// The other endpoint (node index).
    pub b: u32,
    /// First cycle of the outage window (inclusive).
    pub from: Cycle,
    /// End of the outage window (exclusive).
    pub until: Cycle,
}

impl LinkOutage {
    /// Does this outage cover traffic between `x` and `y` at time `at`?
    #[inline]
    pub fn covers(&self, x: u32, y: u32, at: Cycle) -> bool {
        let pair = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        pair && at >= self.from && at < self.until
    }
}

impl fmt::Display for LinkOutage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "link={}-{}@{}..{}",
            self.a, self.b, self.from, self.until
        )
    }
}

/// Maximum number of scheduled link outages per spec (fixed-size array so
/// the spec stays `Copy`).
pub const MAX_OUTAGES: usize = 4;

/// Declarative description of an unreliable fabric.
///
/// The default ([`FaultSpec::none`]) injects nothing and costs nothing: the
/// perturbation plane arms its fault stage only when the spec is non-empty,
/// so faultless runs remain bit-identical to runs before fault injection
/// existed.
///
/// Probabilities are parts-per-million (see [`PPM`]); use the builder
/// methods to write them as fractions. The spec's own `seed` is folded into
/// the run seed so the fault stream can be varied independently of the
/// workload stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Probability (ppm) that a loss-eligible arrival is dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) that a loss-eligible arrival is duplicated.
    pub dup_ppm: u32,
    /// Probability (ppm) that an arrival is jittered later.
    pub delay_ppm: u32,
    /// Maximum extra delay, in ns/cycles, for a jittered arrival.
    pub delay_max_ns: u64,
    /// Reorder window depth: each arrival is skewed by up to `depth` link
    /// quanta, letting up to `depth` later messages overtake it. Zero
    /// disables reordering.
    pub reorder_depth: u32,
    /// Scheduled link outages ([`MAX_OUTAGES`] at most; unused slots are
    /// `None`).
    pub outages: [Option<LinkOutage>; MAX_OUTAGES],
    /// Extra seed folded into the fault stage's RNG stream.
    pub seed: u64,
}

impl FaultSpec {
    /// The reliable fabric: no faults, no RNG draws, no overhead.
    pub const fn none() -> Self {
        FaultSpec {
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_max_ns: 0,
            reorder_depth: 0,
            outages: [None; MAX_OUTAGES],
            seed: 0,
        }
    }

    /// True when the spec injects nothing (the `seed` field alone does not
    /// make a spec active).
    pub fn is_none(&self) -> bool {
        self.drop_ppm == 0
            && self.dup_ppm == 0
            && self.delay_ppm == 0
            && self.reorder_depth == 0
            && self.outages.iter().all(|o| o.is_none())
    }

    /// Upper bound, in ns, on how much later than the fault-free schedule
    /// this spec can push any single arrival: the delay bound, the longest
    /// outage plus one quantum of deferral jitter, and the reorder window.
    /// Beside [`AdversarySpec::max_extra_delay_ns`](
    /// crate::adversary::AdversarySpec::max_extra_delay_ns), the latitude
    /// the starvation oracle's bounded-wait derivation allows.
    pub fn max_extra_delay_ns(&self, link_latency_ns: u64) -> u64 {
        let quantum = link_latency_ns.max(1);
        let outages = self.outages.iter().flatten();
        let longest_outage = outages.map(|o| o.until.saturating_sub(o.from)).max();
        self.delay_max_ns
            + longest_outage.map_or(0, |ns| ns + quantum)
            + u64::from(self.reorder_depth) * quantum
    }

    /// Sets the drop probability (clamped to `[0, 1]`).
    pub fn with_drop(mut self, probability: f64) -> Self {
        self.drop_ppm = to_ppm(probability);
        self
    }

    /// Sets the duplication probability (clamped to `[0, 1]`).
    pub fn with_dup(mut self, probability: f64) -> Self {
        self.dup_ppm = to_ppm(probability);
        self
    }

    /// Sets the delay-jitter probability and bound.
    pub fn with_delay(mut self, probability: f64, max_ns: u64) -> Self {
        self.delay_ppm = to_ppm(probability);
        self.delay_max_ns = max_ns.max(1);
        self
    }

    /// Sets the reorder window depth.
    pub fn with_reorder(mut self, depth: u32) -> Self {
        self.reorder_depth = depth;
        self
    }

    /// Schedules a link outage in the first free slot. Panics if all
    /// [`MAX_OUTAGES`] slots are taken.
    pub fn with_outage(mut self, a: u32, b: u32, from: Cycle, until: Cycle) -> Self {
        let slot = self
            .outages
            .iter_mut()
            .find(|s| s.is_none())
            .expect("all outage slots in use");
        *slot = Some(LinkOutage { a, b, from, until });
        self
    }

    /// Sets the extra fault-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Does this spec inject the given fault class at all?
    pub fn enables(&self, kind: FaultKind) -> bool {
        match kind {
            FaultKind::Drop => self.drop_ppm > 0,
            FaultKind::Duplicate => self.dup_ppm > 0,
            FaultKind::Delay => self.delay_ppm > 0,
            FaultKind::Reorder => self.reorder_depth > 0,
            FaultKind::LinkDown => self.outages.iter().any(|o| o.is_some()),
        }
    }

    /// The part of this spec `protocol` contracts to survive.
    pub fn restricted_to(&self, protocol: ProtocolKind) -> FaultSpec {
        let refused = FaultKind::ALL
            .into_iter()
            .filter(|&k| self.enables(k) && !protocol.tolerates(k));
        refused.fold(*self, FaultSpec::without)
    }

    /// This spec with one fault class disabled.
    pub fn without(mut self, kind: FaultKind) -> FaultSpec {
        match kind {
            FaultKind::Drop => self.drop_ppm = 0,
            FaultKind::Duplicate => self.dup_ppm = 0,
            FaultKind::Delay => {
                self.delay_ppm = 0;
                self.delay_max_ns = 0;
            }
            FaultKind::Reorder => self.reorder_depth = 0,
            FaultKind::LinkDown => self.outages = [None; MAX_OUTAGES],
        }
        self
    }

    /// May this message be dropped or duplicated without breaking the
    /// protocol's correctness argument?
    ///
    /// Token Coherence treats transient requests as *hints*: a lost GetS or
    /// GetM is recovered by the reissue timeout and, ultimately, by a
    /// persistent request, and a duplicated one is at worst redundant work.
    /// Everything that carries tokens or participates in the persistent
    /// request handshake is part of the correctness substrate and must ride
    /// a reliable channel (dropping it destroys tokens, duplicating it
    /// mints them — both conservation violations the verifier would
    /// rightly flag). Only TokenB contracts for loss and duplication at all
    /// ([`ProtocolKind::admits`]), so no other protocol's message reaches
    /// this line.
    pub fn loss_eligible(msg: &Message) -> bool {
        matches!(msg.kind, MsgKind::GetS | MsgKind::GetM)
    }

    /// Parses the `--faults` spec syntax: comma-separated
    /// `drop=P`, `dup=P`, `delay=P@MAXNS`, `reorder=DEPTH`,
    /// `link=A-B@FROM..UNTIL`, `seed=N`, e.g.
    /// `drop=0.01,dup=0.005,reorder=4,link=2-5@1000..5000`, or `none`.
    ///
    /// Whitespace around clauses, keys, and values is ignored. Each scalar
    /// key may appear at most once, while `link=` may repeat up
    /// to [`MAX_OUTAGES`] times because each clause schedules a distinct
    /// outage.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::none();
        for (key, value) in clauses(text, "fault", &["link"])? {
            match key {
                "drop" => spec.drop_ppm = parse_probability(value)?,
                "dup" => spec.dup_ppm = parse_probability(value)?,
                "delay" => {
                    let (p, max) = split(value, "@", "delay spec", "P@MAXNS")?;
                    spec.delay_ppm = parse_probability(p)?;
                    spec.delay_max_ns = number::<u64>(max, "delay bound")?.max(1);
                }
                "reorder" => spec.reorder_depth = number(value, "reorder depth")?,
                "link" => {
                    let (pair, window) = split(value, "@", "link spec", "A-B@FROM..UNTIL")?;
                    let (a, b) = split(pair, "-", "link pair", "A-B")?;
                    let (from, until) = split(window, "..", "link window", "FROM..UNTIL")?;
                    let (from, until) = (number(from, "cycle")?, number(until, "cycle")?);
                    if until <= from {
                        return Err(format!("empty link outage window `{window}`"));
                    }
                    if spec.outages.iter().all(|o| o.is_some()) {
                        return Err(format!("more than {MAX_OUTAGES} link outages"));
                    }
                    spec = spec.with_outage(number(a, "node")?, number(b, "node")?, from, until);
                }
                "seed" => spec.seed = number(value, "seed")?,
                other => return Err(format!("unknown fault clause `{other}`")),
            }
        }
        Ok(spec)
    }
}

spec_string!(FaultSpec, "fault");

/// Canonical spec string: stable, so replay recipes and campaign JSON can
/// embed it, and `parse(spec.to_string()) == spec` for every spec the
/// builders and [`FaultSpec::parse`] can make — a field that is set but
/// inert (a seed with no fault class, a delay bound with no delay
/// probability) is written like any other.
impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = ClauseWriter::new(f);
        w.clause(
            self.drop_ppm > 0,
            format_args!("drop={}", from_ppm(self.drop_ppm)),
        )?;
        w.clause(
            self.dup_ppm > 0,
            format_args!("dup={}", from_ppm(self.dup_ppm)),
        )?;
        w.clause(
            self.delay_ppm > 0 || self.delay_max_ns > 0,
            format_args!("delay={}@{}", from_ppm(self.delay_ppm), self.delay_max_ns),
        )?;
        w.clause(
            self.reorder_depth > 0,
            format_args!("reorder={}", self.reorder_depth),
        )?;
        for outage in self.outages.iter().flatten() {
            w.clause(true, format_args!("{outage}"))?;
        }
        w.clause(self.seed != 0, format_args!("seed={}", self.seed))?;
        w.finish()
    }
}

fn to_ppm(probability: f64) -> u32 {
    (probability.clamp(0.0, 1.0) * f64::from(PPM)).round() as u32
}

fn from_ppm(ppm: u32) -> f64 {
    f64::from(ppm) / f64::from(PPM)
}

fn parse_probability(text: &str) -> Result<u32, String> {
    let p: f64 = text
        .parse()
        .map_err(|_| format!("bad probability `{text}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability `{text}` outside [0, 1]"));
    }
    Ok(to_ppm(p))
}

impl ProtocolKind {
    /// The fault classes this protocol contracts to survive.
    ///
    /// * **TokenB** — everything: the paper's claim. Loss and duplication
    ///   still reach only [`FaultSpec::loss_eligible`] messages.
    /// * **Hammer** — delay, reorder, and link outages only: its broadcast
    ///   probe/ack counting assumes every probe is answered exactly once,
    ///   and it has no retry machinery, so loss wedges it and duplication
    ///   overshoots its ack counts.
    /// * **Directory** — delay, reorder, and link outages only, for the
    ///   same reason (no retries, exact forwarded-request accounting).
    /// * **Snooping** — nothing: it assumes a reliable *totally ordered*
    ///   tree, and even pure jitter breaks the total order its state
    ///   machine is built on.
    pub fn tolerated_faults(self) -> &'static [FaultKind] {
        match self {
            ProtocolKind::TokenB => &FaultKind::ALL,
            ProtocolKind::Hammer | ProtocolKind::Directory => {
                &[FaultKind::Delay, FaultKind::Reorder, FaultKind::LinkDown]
            }
            ProtocolKind::Snooping => &[],
        }
    }

    /// Does this protocol contract to survive the given fault class?
    pub fn tolerates(self, kind: FaultKind) -> bool {
        self.tolerated_faults().contains(&kind)
    }

    /// The perturbation contract, decided once for both stages of the
    /// plane: refuses `faults` or `adversary` when either enables a class
    /// outside [`ProtocolKind::tolerated_faults`] (an adversary as the
    /// classes it [perturbs as](AdversarySpec::perturbs_as)).
    /// `FaultPlane::armed` panics on a refusal; every boundary that takes a
    /// spec from outside asks here first.
    pub fn admits(
        self,
        faults: &FaultSpec,
        adversary: &AdversarySpec,
    ) -> Result<(), ContractRefusal> {
        let names = |kinds: &[FaultKind]| match kinds {
            [] => "none".to_string(),
            _ => kinds
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", "),
        };
        let refused = |enables: &dyn Fn(FaultKind) -> bool| -> Vec<FaultKind> {
            let kinds = FaultKind::ALL.into_iter();
            kinds
                .filter(|&k| enables(k) && !self.tolerates(k))
                .collect()
        };
        for (spec, refused) in [
            ("faults", refused(&|k| faults.enables(k))),
            ("adversary", refused(&|k| adversary.perturbs_as(k))),
        ] {
            if !refused.is_empty() {
                let message = format!(
                    "{self} does not tolerate {} faults (it tolerates: {})",
                    names(&refused),
                    names(self.tolerated_faults())
                );
                return Err(ContractRefusal { spec, message });
            }
        }
        Ok(())
    }
}

/// A run's perturbation spec refused by its protocol's contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractRefusal {
    /// The refused spec: `"faults"` or `"adversary"`.
    pub spec: &'static str,
    /// Names the protocol, the refused classes and the tolerated ones.
    pub message: String,
}

/// Counters reported by the fault plane and the recovery machinery for one
/// run. All-integer and `Copy + Eq` so it joins `EngineStats` and the
/// bit-identical `RunReport` comparison without ceremony.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Arrivals silently discarded.
    pub dropped: u64,
    /// Extra arrivals injected by duplication.
    pub duplicated: u64,
    /// Arrivals pushed later by delay jitter.
    pub delayed: u64,
    /// Arrivals skewed by the reorder window.
    pub reordered: u64,
    /// Arrivals deferred past a link outage.
    pub link_deferred: u64,
    /// Reissued transient requests actually sent (each one is a reissue
    /// timeout that fired and found its miss still outstanding).
    pub reissue_timeouts: u64,
    /// Persistent requests activated (summed over nodes) — the correctness
    /// substrate's last-resort liveness mechanism kicking in.
    pub persistent_activations: u64,
    /// Worst-case end-to-end miss latency observed, in ns — the recovery
    /// latency bound under the injected faults.
    pub max_recovery_ns: u64,
}

impl FaultStats {
    /// Total arrivals perturbed by the plane (excludes the recovery-side
    /// counters).
    pub fn total_injected(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.reordered + self.link_deferred
    }
}

snap_struct!(FaultStats {
    dropped,
    duplicated,
    delayed,
    reordered,
    link_deferred,
    reissue_timeouts,
    persistent_activations,
    max_recovery_ns,
});

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped {} / duplicated {} / delayed {} / reordered {} / link-deferred {}; \
             {} reissues sent, {} persistent activations, worst recovery {} ns",
            self.dropped,
            self.duplicated,
            self.delayed,
            self.reordered,
            self.link_deferred,
            self.reissue_timeouts,
            self.persistent_activations,
            self.max_recovery_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockAddr;
    use crate::ids::NodeId;
    use crate::message::{Destination, Vnet};

    #[test]
    fn default_spec_is_none_and_displays_as_none() {
        let spec = FaultSpec::default();
        assert!(spec.is_none());
        assert_eq!(spec, FaultSpec::none());
        assert_eq!(spec.to_string(), "none");
        // A bare seed does not activate the plane.
        assert!(FaultSpec::none().with_seed(7).is_none());
    }

    #[test]
    fn max_extra_delay_bounds_every_class() {
        let spec = FaultSpec::none()
            .with_delay(0.1, 400)
            .with_reorder(4)
            .with_outage(0, 1, 100, 600)
            .with_outage(2, 3, 0, 900);
        assert_eq!(spec.max_extra_delay_ns(15), 400 + (900 + 15) + 4 * 15);
        assert_eq!(FaultSpec::none().max_extra_delay_ns(15), 0);
    }

    #[test]
    fn parse_round_trips_through_display() {
        let text = "drop=0.01,dup=0.005,delay=0.02@400,reorder=4,link=2-5@1000..5000,seed=9";
        let spec = FaultSpec::parse(text).unwrap();
        assert_eq!(spec.drop_ppm, 10_000);
        assert_eq!(spec.dup_ppm, 5_000);
        assert_eq!(spec.delay_ppm, 20_000);
        assert_eq!(spec.delay_max_ns, 400);
        assert_eq!(spec.reorder_depth, 4);
        assert_eq!(
            spec.outages[0],
            Some(LinkOutage {
                a: 2,
                b: 5,
                from: 1000,
                until: 5000
            })
        );
        assert_eq!(spec.seed, 9);
        let reparsed = FaultSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, reparsed);
    }

    /// `parse(to_string()) == spec` for every spec the builders can make,
    /// inert ones included, and the two layouts derived from that pair —
    /// `Snap` for the result-cache file, `Wire` for submissions — agree.
    #[test]
    fn every_spec_round_trips_through_its_string() {
        use crate::json::{Json, Wire};
        let mut rng = tc_sim::DeterministicRng::new(0xFA17);
        // Half the draws leave a field at its default, so inert
        // combinations (a seed alone, a delay bound alone) are common.
        let mut draw = |bound: u64| {
            if rng.chance(0.5) {
                0
            } else {
                rng.next_below(bound)
            }
        };
        for _ in 0..4000 {
            let mut spec = FaultSpec::none()
                .with_drop(draw(PPM as u64 + 1) as f64 / PPM as f64)
                .with_dup(draw(PPM as u64 + 1) as f64 / PPM as f64)
                .with_reorder(draw(1 << 32) as u32)
                .with_seed(draw(u64::MAX));
            if draw(2) == 1 {
                spec = spec.with_delay(draw(PPM as u64 + 1) as f64 / PPM as f64, draw(1 << 40));
            }
            for _ in 0..draw(MAX_OUTAGES as u64 + 1) {
                let from = draw(1 << 40);
                let (a, b) = (draw(1 << 16) as u32, draw(1 << 16) as u32);
                spec = spec.with_outage(a, b, from, from + 1 + draw(1 << 40));
            }
            let text = spec.to_string();
            assert_eq!(FaultSpec::parse(&text), Ok(spec), "{text}");
            assert_eq!(text == "none", spec == FaultSpec::none(), "{text}");
            tc_testkit::assert_snap_round_trip(&spec);
            assert_eq!(spec.to_json(), Json::Str(text));
            assert_eq!(FaultSpec::from_json(&spec.to_json(), "faults"), Ok(spec));
        }
        let seeded = FaultSpec::none().with_seed(7);
        assert_eq!(seeded.to_string(), "seed=7");
        let err = FaultSpec::from_json(&Json::Str("drop=2".into()), "faults").unwrap_err();
        assert_eq!(err.field, "faults");
    }

    #[test]
    fn fault_class_names_resolve() {
        crate::json::assert_named_enum(&FaultKind::ALL);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultSpec::parse("drop").is_err());
        assert!(FaultSpec::parse("drop=2.0").is_err());
        assert!(FaultSpec::parse("delay=0.1").is_err());
        assert!(FaultSpec::parse("link=2-5@50..50").is_err());
        assert!(FaultSpec::parse("sprocket=1").is_err());
        assert!(FaultSpec::parse("").map(|s| s.is_none()).unwrap_or(false));
        // Duplicate scalar clauses are errors, not silent last-wins.
        assert!(FaultSpec::parse("drop=0.1,drop=0.2").is_err());
        assert!(FaultSpec::parse("seed=1,seed=2").is_err());
        assert!(FaultSpec::parse("delay=0.1@50,delay=0.2@60").is_err());
        assert!(FaultSpec::parse("reorder=2, reorder=2").is_err());
        // A fifth link outage still overflows the fixed slots.
        assert!(FaultSpec::parse(
            "link=0-1@1..2,link=0-2@1..2,link=0-3@1..2,link=1-2@1..2,link=1-3@1..2"
        )
        .is_err());
    }

    #[test]
    fn parse_trims_whitespace_and_allows_repeated_link_clauses() {
        let spec = FaultSpec::parse(" drop = 0.01 , link=0-1@10..20, link=2-3@30..40 ,, seed = 7 ")
            .unwrap();
        assert_eq!(spec.drop_ppm, 10_000);
        assert_eq!(spec.seed, 7);
        assert_eq!(
            spec.outages[0],
            Some(LinkOutage {
                a: 0,
                b: 1,
                from: 10,
                until: 20
            })
        );
        assert_eq!(
            spec.outages[1],
            Some(LinkOutage {
                a: 2,
                b: 3,
                from: 30,
                until: 40
            })
        );
    }

    #[test]
    fn fault_stats_snapshot_round_trips() {
        let stats = FaultStats {
            dropped: 1,
            duplicated: 2,
            delayed: 3,
            reordered: 4,
            link_deferred: 5,
            reissue_timeouts: 6,
            persistent_activations: 7,
            max_recovery_ns: 8,
        };
        tc_testkit::assert_snap_round_trip(&stats);
    }

    #[test]
    fn builders_match_parse() {
        let built = FaultSpec::none()
            .with_drop(0.01)
            .with_dup(0.005)
            .with_reorder(4)
            .with_outage(2, 5, 1000, 5000);
        let parsed = FaultSpec::parse("drop=0.01,dup=0.005,reorder=4,link=2-5@1000..5000").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn outage_covers_both_directions_within_window() {
        let o = LinkOutage {
            a: 2,
            b: 5,
            from: 100,
            until: 200,
        };
        assert!(o.covers(2, 5, 100));
        assert!(o.covers(5, 2, 199));
        assert!(!o.covers(2, 5, 200));
        assert!(!o.covers(2, 5, 99));
        assert!(!o.covers(2, 6, 150));
    }

    #[test]
    fn restriction_removes_untolerated_classes() {
        let spec = FaultSpec::none().with_drop(0.01).with_reorder(4);
        assert_eq!(spec.restricted_to(ProtocolKind::TokenB), spec);
        let hammer = spec.restricted_to(ProtocolKind::Hammer);
        assert_eq!((hammer.drop_ppm, hammer.reorder_depth), (0, 4));
        assert!(spec.restricted_to(ProtocolKind::Snooping).is_none());
        for protocol in ProtocolKind::ALL {
            let none = AdversarySpec::none();
            assert_eq!(
                protocol.admits(&spec.restricted_to(protocol), &none),
                Ok(())
            );
        }
    }

    #[test]
    fn specs_outside_a_contract_are_refused_by_name() {
        let spec = FaultSpec::none().with_drop(0.01).with_reorder(4);
        let none = AdversarySpec::none();
        let refusal = |spec, message: &str| {
            Err(ContractRefusal {
                spec,
                message: message.into(),
            })
        };
        assert_eq!(ProtocolKind::TokenB.admits(&spec, &none), Ok(()));
        assert_eq!(
            ProtocolKind::Hammer.admits(&spec, &none),
            refusal(
                "faults",
                "Hammer does not tolerate drop faults (it tolerates: delay, reorder, link)"
            )
        );
        assert_eq!(
            ProtocolKind::Snooping.admits(&spec, &none),
            refusal(
                "faults",
                "Snooping does not tolerate drop, reorder faults (it tolerates: none)"
            )
        );
        let storm = AdversarySpec::none().with_reorder(2).with_storm(500);
        assert_eq!(
            ProtocolKind::Snooping.admits(&FaultSpec::none(), &storm),
            refusal(
                "adversary",
                "Snooping does not tolerate delay, reorder faults (it tolerates: none)"
            )
        );
        // Inert specs and the test-only sabotage move no arrival.
        let inert = AdversarySpec::none().with_victim(1, 7).with_seed(3);
        for protocol in ProtocolKind::ALL {
            let faults = FaultSpec::none().with_seed(9);
            assert_eq!(protocol.admits(&faults, &inert.with_sabotage()), Ok(()));
        }
    }

    /// Every protocol against every single class of either stage: a fault
    /// class is admitted exactly when it is tolerated, and an adversary
    /// class exactly when the fault class it counts as is.
    #[test]
    fn the_contract_covers_every_protocol_and_every_class() {
        use crate::adversary::AdversaryKind;
        let fault = |kind| match kind {
            FaultKind::Drop => FaultSpec::none().with_drop(0.1),
            FaultKind::Duplicate => FaultSpec::none().with_dup(0.1),
            FaultKind::Delay => FaultSpec::none().with_delay(0.1, 50),
            FaultKind::Reorder => FaultSpec::none().with_reorder(2),
            FaultKind::LinkDown => FaultSpec::none().with_outage(0, 1, 5, 9),
        };
        let adversary = |kind| match kind {
            AdversaryKind::Reorder => AdversarySpec::none().with_reorder(2),
            AdversaryKind::TargetedDelay => AdversarySpec::none().with_target_delay(50),
            AdversaryKind::RetryStorm => AdversarySpec::none().with_storm(500),
        };
        let mut admitted = Vec::new();
        let mut record = |verdict: Result<(), ContractRefusal>, spec| {
            assert!(verdict.as_ref().err().is_none_or(|r| r.spec == spec));
            admitted.push(verdict.is_ok());
        };
        for protocol in ProtocolKind::ALL {
            for kind in FaultKind::ALL {
                record(
                    protocol.admits(&fault(kind), &AdversarySpec::none()),
                    "faults",
                );
            }
            for kind in AdversaryKind::ALL {
                record(
                    protocol.admits(&FaultSpec::none(), &adversary(kind)),
                    "adversary",
                );
            }
        }
        // Rows: TokenB, Snooping, Directory, Hammer (`ProtocolKind::ALL`);
        // columns: drop, dup, delay, reorder, link, then the adversary's
        // reorder, delay and storm.
        #[rustfmt::skip]
        let expected = [
            true,  true,  true,  true,  true,   true,  true,  true,
            false, false, false, false, false,  false, false, false,
            false, false, true,  true,  true,   true,  true,  true,
            false, false, true,  true,  true,   true,  true,  true,
        ];
        assert_eq!(admitted, expected);
    }

    #[test]
    fn only_tokenb_transient_requests_are_loss_eligible() {
        let req = Message::new(
            NodeId::new(0),
            Destination::AllBut(NodeId::new(0)),
            BlockAddr::new(4),
            MsgKind::GetM,
            Vnet::Request,
            10,
        );
        assert!(FaultSpec::loss_eligible(&req));
        // Loss reaches no other protocol's message: its contract refuses it.
        let loss = FaultSpec::none().with_drop(0.1).with_dup(0.1);
        for protocol in ProtocolKind::ALL {
            let admitted = protocol.admits(&loss, &AdversarySpec::none()).is_ok();
            assert_eq!(admitted, protocol == ProtocolKind::TokenB, "{protocol}");
        }

        let tokens = Message::new(
            NodeId::new(1),
            Destination::Node(NodeId::new(0)),
            BlockAddr::new(4),
            MsgKind::TokenOnly { tokens: 3 },
            Vnet::Response,
            10,
        );
        assert!(!FaultSpec::loss_eligible(&tokens));
    }
}
