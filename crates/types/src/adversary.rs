//! Adversarial scheduling vocabulary: a declarative description of a
//! *searched* worst-case delivery schedule, and the counters the adversary
//! plane reports back.
//!
//! Where [`FaultSpec`](crate::fault::FaultSpec) models random misbehaviour
//! (loss, duplication, jitter), [`AdversarySpec`] models a *malicious but
//! legal* fabric: deliveries are only ever moved **later**, within the
//! latitude an unordered interconnect already grants, so every adversarial
//! schedule is one the protocols must survive by contract. The spec is the
//! search space of `tc_testkit::hunt` — each knob is a dimension the
//! pathology hunter probes and mutates — and it is all-integer
//! (`Copy + Eq + Hash`) so it folds into `RunOptions`, fingerprints, and
//! replay recipes exactly like a fault spec.

use std::fmt;

use tc_sim::snap_struct;

use crate::clauses::{clauses, number, spec_string, split, ClauseWriter};
use crate::fault::FaultKind;
use crate::named_enum;

/// The classes of perturbation the plane's adversary stage can apply. Unlike fault
/// classes, none of these violate the fabric's delivery contract: every
/// arrival still happens, exactly once, never earlier than scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdversaryKind {
    /// Arrivals are skewed by up to `reorder_window` link quanta, so
    /// messages on the same path overtake each other (legal on any
    /// unordered interconnect).
    Reorder,
    /// Messages to or from the victim `(node, block)` pair are delayed by a
    /// bounded random amount — starvation pressure aimed at one miss.
    TargetedDelay,
    /// Competing requests for the victim block are time-aligned into bursts
    /// that land just before each storm-window boundary — a retry storm
    /// synchronized against the victim's reissue timer.
    RetryStorm,
}

// Short lowercase names, matching the spec syntax.
named_enum!(AdversaryKind, "perturbation class" {
    Reorder => "reorder",
    TargetedDelay => "delay",
    RetryStorm => "storm",
});

/// Declarative description of an adversarial (but legal) delivery schedule.
///
/// The default ([`AdversarySpec::none`]) perturbs nothing and costs
/// nothing: the perturbation plane arms its adversary stage only when the
/// spec is non-empty, so unperturbed runs remain bit-identical to runs
/// before the adversary existed (the 317430 events-delivered pin).
///
/// The victim `(node, block)` pair aims the targeted-delay and retry-storm
/// classes; it is inert unless one of those classes is enabled. The spec's
/// own `seed` is folded into the run seed so adversarial schedules can be
/// varied independently of the workload stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct AdversarySpec {
    /// Reorder window depth: every arrival is skewed later by up to this
    /// many link quanta. Zero disables reordering.
    pub reorder_window: u32,
    /// Victim node index for the targeted classes.
    pub victim_node: u32,
    /// Victim block number (a [`BlockAddr`](crate::addr::BlockAddr) value)
    /// for the targeted classes.
    pub victim_block: u64,
    /// Maximum extra delay, in ns, applied to messages touching the victim
    /// pair. Zero disables targeted delay.
    pub target_delay_ns: u32,
    /// Retry-storm window, in ns: competing requests for the victim block
    /// are aligned to land just before each multiple of this window. Zero
    /// disables storms.
    pub storm_window_ns: u32,
    /// Test-only arbiter sabotage: when non-zero, the victim node's
    /// persistent-request arbiter silently discards incoming requests — a
    /// deliberately broken arbiter the starvation oracle must catch. Never
    /// part of a hunt's search space.
    pub sabotage: u32,
    /// Extra seed folded into the adversary stage's RNG stream.
    pub seed: u64,
}

impl AdversarySpec {
    /// The well-behaved fabric: no perturbation, no RNG draws, no overhead.
    pub const fn none() -> Self {
        AdversarySpec {
            reorder_window: 0,
            victim_node: 0,
            victim_block: 0,
            target_delay_ns: 0,
            storm_window_ns: 0,
            sabotage: 0,
            seed: 0,
        }
    }

    /// True when the spec perturbs nothing (the victim pair and `seed`
    /// alone do not make a spec active).
    pub fn is_none(&self) -> bool {
        self.reorder_window == 0
            && self.target_delay_ns == 0
            && self.storm_window_ns == 0
            && self.sabotage == 0
    }

    /// Sets the reorder window depth.
    pub fn with_reorder(mut self, window: u32) -> Self {
        self.reorder_window = window;
        self
    }

    /// Sets the victim `(node, block)` pair the targeted classes aim at.
    pub fn with_victim(mut self, node: u32, block: u64) -> Self {
        self.victim_node = node;
        self.victim_block = block;
        self
    }

    /// Sets the targeted-delay bound in ns.
    pub fn with_target_delay(mut self, max_ns: u32) -> Self {
        self.target_delay_ns = max_ns;
        self
    }

    /// Sets the retry-storm window in ns.
    pub fn with_storm(mut self, window_ns: u32) -> Self {
        self.storm_window_ns = window_ns;
        self
    }

    /// Enables the test-only arbiter sabotage.
    pub fn with_sabotage(mut self) -> Self {
        self.sabotage = 1;
        self
    }

    /// Sets the extra adversary-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Does this spec apply the given perturbation class at all?
    pub fn enables(&self, kind: AdversaryKind) -> bool {
        match kind {
            AdversaryKind::Reorder => self.reorder_window > 0,
            AdversaryKind::TargetedDelay => self.target_delay_ns > 0,
            AdversaryKind::RetryStorm => self.storm_window_ns > 0,
        }
    }

    /// Does this spec perturb as fault class `kind` does, in a protocol's
    /// contract? A targeted delay or a storm moves an arrival later as
    /// delay jitter does.
    pub fn perturbs_as(&self, kind: FaultKind) -> bool {
        match kind {
            FaultKind::Reorder => self.reorder_window > 0,
            FaultKind::Delay => self.target_delay_ns > 0 || self.storm_window_ns > 0,
            _ => false,
        }
    }

    /// Upper bound, in ns, on how much later than the fault-free schedule
    /// this spec can push any single arrival. The starvation oracle folds
    /// this into its bounded-wait derivation: an adversarial run is allowed
    /// exactly this much extra latitude per hop, never more.
    pub fn max_extra_delay_ns(&self, link_latency_ns: u64) -> u64 {
        let quantum = link_latency_ns.max(1);
        u64::from(self.reorder_window) * quantum
            + u64::from(self.target_delay_ns)
            + u64::from(self.storm_window_ns)
    }

    /// Parses the adversary spec syntax: comma-separated `reorder=W`,
    /// `victim=NODE@BLOCK`, `delay=NS`, `storm=NS`, `sabotage=1`, `seed=N`,
    /// e.g. `reorder=4,victim=2@17,delay=300,storm=900,seed=7`, or `none`.
    /// Whitespace around clauses, keys, and values is ignored; each key may
    /// appear at most once.
    pub fn parse(text: &str) -> Result<AdversarySpec, String> {
        let mut spec = AdversarySpec::none();
        for (key, value) in clauses(text, "adversary", &[])? {
            match key {
                "reorder" => spec.reorder_window = number(value, "reorder window")?,
                "victim" => {
                    let (node, block) = split(value, "@", "victim spec", "NODE@BLOCK")?;
                    spec.victim_node = number(node, "victim node")?;
                    spec.victim_block = number(block, "victim block")?;
                }
                "delay" => spec.target_delay_ns = number(value, "delay bound")?,
                "storm" => spec.storm_window_ns = number(value, "storm window")?,
                "sabotage" => spec.sabotage = number(value, "sabotage flag")?,
                "seed" => spec.seed = number(value, "seed")?,
                other => return Err(format!("unknown adversary clause `{other}`")),
            }
        }
        Ok(spec)
    }
}

spec_string!(AdversarySpec, "adversary");

/// Canonical spec string: stable, so hunt results and replay recipes can
/// embed it. Every non-default field is written, inert or not, so
/// `parse(spec.to_string()) == spec` for every spec.
impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = ClauseWriter::new(f);
        w.clause(
            self.reorder_window > 0,
            format_args!("reorder={}", self.reorder_window),
        )?;
        w.clause(
            self.victim_node != 0 || self.victim_block != 0,
            format_args!("victim={}@{}", self.victim_node, self.victim_block),
        )?;
        w.clause(
            self.target_delay_ns > 0,
            format_args!("delay={}", self.target_delay_ns),
        )?;
        w.clause(
            self.storm_window_ns > 0,
            format_args!("storm={}", self.storm_window_ns),
        )?;
        w.clause(
            self.sabotage != 0,
            format_args!("sabotage={}", self.sabotage),
        )?;
        w.clause(self.seed != 0, format_args!("seed={}", self.seed))?;
        w.finish()
    }
}

/// Counters reported by the plane's adversary stage for one run. All-integer and
/// `Copy + Eq` so they join `EngineStats` and the bit-identical `RunReport`
/// comparison without ceremony.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Arrivals skewed by the reorder window.
    pub reordered: u64,
    /// Arrivals delayed because they touched the victim pair.
    pub targeted: u64,
    /// Competing requests aligned into a retry storm.
    pub stormed: u64,
    /// Worst single-arrival displacement applied, in ns.
    pub max_skew_ns: u64,
}

impl AdversaryStats {
    /// Total arrivals the plane perturbed.
    pub fn total_perturbed(&self) -> u64 {
        self.reordered + self.targeted + self.stormed
    }
}

snap_struct!(AdversaryStats {
    reordered,
    targeted,
    stormed,
    max_skew_ns,
});

impl fmt::Display for AdversaryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reordered {} / targeted {} / stormed {}; worst skew {} ns",
            self.reordered, self.targeted, self.stormed, self.max_skew_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_none_and_displays_as_none() {
        let spec = AdversarySpec::default();
        assert!(spec.is_none());
        assert_eq!(spec, AdversarySpec::none());
        assert_eq!(spec.to_string(), "none");
        // A bare seed or victim pair does not activate the plane.
        assert!(AdversarySpec::none().with_seed(7).is_none());
        assert!(AdversarySpec::none().with_victim(2, 17).is_none());
    }

    #[test]
    fn parse_round_trips_through_display() {
        let text = "reorder=4,victim=2@17,delay=300,storm=900,seed=7";
        let spec = AdversarySpec::parse(text).unwrap();
        assert_eq!(spec.reorder_window, 4);
        assert_eq!(spec.victim_node, 2);
        assert_eq!(spec.victim_block, 17);
        assert_eq!(spec.target_delay_ns, 300);
        assert_eq!(spec.storm_window_ns, 900);
        assert_eq!(spec.seed, 7);
        let reparsed = AdversarySpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, reparsed);
        // Sabotage round-trips too.
        let sab = spec.with_sabotage();
        assert_eq!(AdversarySpec::parse(&sab.to_string()).unwrap(), sab);
    }

    /// `parse(to_string()) == spec` for every spec, inert ones included,
    /// and the two layouts derived from that pair — `Snap` for the
    /// result-cache file, `Wire` for submissions — agree.
    #[test]
    fn every_spec_round_trips_through_its_string() {
        use crate::json::{Json, Wire};
        let mut rng = tc_sim::DeterministicRng::new(0xAD7E);
        // Half the draws leave a field at its default, so inert
        // combinations (a victim pair or a seed alone) are common.
        let mut draw = |bound: u64| {
            if rng.chance(0.5) {
                0
            } else {
                rng.next_below(bound)
            }
        };
        for _ in 0..4000 {
            let spec = AdversarySpec {
                reorder_window: draw(1 << 32) as u32,
                victim_node: draw(1 << 32) as u32,
                victim_block: draw(u64::MAX),
                target_delay_ns: draw(1 << 32) as u32,
                storm_window_ns: draw(1 << 32) as u32,
                sabotage: draw(2) as u32,
                seed: draw(u64::MAX),
            };
            let text = spec.to_string();
            assert_eq!(AdversarySpec::parse(&text), Ok(spec), "{text}");
            assert_eq!(text == "none", spec == AdversarySpec::none(), "{text}");
            tc_testkit::assert_snap_round_trip(&spec);
            assert_eq!(spec.to_json(), Json::Str(text));
            assert_eq!(
                AdversarySpec::from_json(&spec.to_json(), "adversary"),
                Ok(spec)
            );
        }
        let aimed = AdversarySpec::none().with_victim(2, 17);
        assert_eq!(aimed.to_string(), "victim=2@17");
        let err = AdversarySpec::from_json(&Json::Num("1".into()), "adversary").unwrap_err();
        assert_eq!(err.field, "adversary");
    }

    #[test]
    fn perturbation_class_names_resolve() {
        crate::json::assert_named_enum(&AdversaryKind::ALL);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(AdversarySpec::parse("reorder").is_err());
        assert!(AdversarySpec::parse("victim=2").is_err());
        assert!(AdversarySpec::parse("victim=x@1").is_err());
        assert!(AdversarySpec::parse("sprocket=1").is_err());
        assert!(AdversarySpec::parse("reorder=2,reorder=2").is_err());
        assert!(AdversarySpec::parse("seed=1, seed=2").is_err());
        assert!(AdversarySpec::parse("")
            .map(|s| s.is_none())
            .unwrap_or(false));
    }

    #[test]
    fn builders_match_parse() {
        let built = AdversarySpec::none()
            .with_reorder(3)
            .with_victim(1, 42)
            .with_target_delay(250)
            .with_storm(600);
        let parsed = AdversarySpec::parse("reorder=3,victim=1@42,delay=250,storm=600").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn enables_tracks_each_class() {
        let spec = AdversarySpec::none().with_reorder(2).with_storm(500);
        assert!(spec.enables(AdversaryKind::Reorder));
        assert!(!spec.enables(AdversaryKind::TargetedDelay));
        assert!(spec.enables(AdversaryKind::RetryStorm));
        for kind in AdversaryKind::ALL {
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn max_extra_delay_bounds_every_class() {
        let spec = AdversarySpec::none()
            .with_reorder(4)
            .with_target_delay(300)
            .with_storm(900);
        assert_eq!(spec.max_extra_delay_ns(15), 4 * 15 + 300 + 900);
        assert_eq!(AdversarySpec::none().max_extra_delay_ns(15), 0);
    }

    #[test]
    fn adversary_stats_snapshot_round_trips() {
        let stats = AdversaryStats {
            reordered: 1,
            targeted: 2,
            stormed: 3,
            max_skew_ns: 4,
        };
        tc_testkit::assert_snap_round_trip(&stats);
        assert_eq!(stats.total_perturbed(), 6);
        assert!(!stats.to_string().is_empty());
    }
}
