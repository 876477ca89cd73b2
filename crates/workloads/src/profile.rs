//! Workload profiles: region sizes and access mixes.

use std::fmt;

use tc_types::{Json, Wire, WireError};

/// The kinds of memory regions a synthetic workload touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Per-processor private data (never shared).
    Private,
    /// Read-mostly shared data (code, lookup tables, page cache).
    SharedReadMostly,
    /// Migratory data: lock-protected structures read then written by one
    /// processor at a time.
    Migratory,
    /// Producer-consumer data: one writer, several readers per block.
    ProducerConsumer,
}

impl RegionKind {
    /// All region kinds, in the order used by the weight vectors.
    pub const ALL: [RegionKind; 4] = [
        RegionKind::Private,
        RegionKind::SharedReadMostly,
        RegionKind::Migratory,
        RegionKind::ProducerConsumer,
    ];
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RegionKind::Private => "private",
            RegionKind::SharedReadMostly => "shared-read-mostly",
            RegionKind::Migratory => "migratory",
            RegionKind::ProducerConsumer => "producer-consumer",
        };
        f.write_str(name)
    }
}

/// A synthetic workload description.
///
/// All block counts are in cache blocks (64 bytes each). The access-mix
/// weights do not need to sum to one; they are normalized by the generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Name used in experiment reports ("OLTP", "Apache", "SPECjbb", ...).
    pub name: &'static str,
    /// Private blocks per processor.
    pub private_blocks: u64,
    /// Blocks in the read-mostly shared region.
    pub shared_read_blocks: u64,
    /// Blocks in the migratory region (locks plus protected data).
    pub migratory_blocks: u64,
    /// Blocks in the producer-consumer region.
    pub producer_consumer_blocks: u64,
    /// Access-mix weights over [`RegionKind::ALL`] (private, shared
    /// read-mostly, migratory, producer-consumer).
    pub region_weights: [f64; 4],
    /// Fraction of private-region accesses that are stores.
    pub private_write_fraction: f64,
    /// Fraction of shared-read-region accesses that are stores (small).
    pub shared_write_fraction: f64,
    /// Mean compute ("think") cycles between memory operations.
    pub think_cycles_mean: u64,
    /// Fraction of operations that are instruction fetches.
    pub ifetch_fraction: f64,
}

impl WorkloadProfile {
    /// Online transaction processing: the most communication-intensive of
    /// the three — small rows protected by locks migrate between processors,
    /// so most misses are cache-to-cache and migratory sharing dominates.
    pub fn oltp() -> Self {
        WorkloadProfile {
            name: "OLTP",
            private_blocks: 512,
            shared_read_blocks: 2 * 1024,
            migratory_blocks: 384,
            producer_consumer_blocks: 128,
            region_weights: [0.42, 0.30, 0.22, 0.06],
            private_write_fraction: 0.30,
            shared_write_fraction: 0.02,
            think_cycles_mean: 60,
            ifetch_fraction: 0.05,
        }
    }

    /// Static web serving (Apache): substantial OS activity, a large
    /// read-mostly page cache, and moderate migratory sharing of kernel
    /// structures. Highest overall miss rate of the three.
    pub fn apache() -> Self {
        WorkloadProfile {
            name: "Apache",
            private_blocks: 512,
            shared_read_blocks: 3 * 1024,
            migratory_blocks: 256,
            producer_consumer_blocks: 192,
            region_weights: [0.38, 0.36, 0.18, 0.08],
            private_write_fraction: 0.32,
            shared_write_fraction: 0.03,
            think_cycles_mean: 50,
            ifetch_fraction: 0.06,
        }
    }

    /// Java middleware (SPECjbb): mostly thread-local object allocation with
    /// comparatively little sharing; the least communication-bound workload.
    pub fn specjbb() -> Self {
        WorkloadProfile {
            name: "SPECjbb",
            private_blocks: 1024,
            shared_read_blocks: 1536,
            migratory_blocks: 128,
            producer_consumer_blocks: 64,
            region_weights: [0.62, 0.24, 0.10, 0.04],
            private_write_fraction: 0.38,
            shared_write_fraction: 0.02,
            think_cycles_mean: 70,
            ifetch_fraction: 0.04,
        }
    }

    /// All three commercial workloads, in the order the paper's figures list
    /// them (Apache, OLTP, SPECjbb).
    pub fn commercial() -> Vec<WorkloadProfile> {
        vec![
            WorkloadProfile::apache(),
            WorkloadProfile::oltp(),
            WorkloadProfile::specjbb(),
        ]
    }

    /// Microbenchmark: every processor hammers a handful of contended blocks.
    /// Designed to provoke racing transient requests, reissues, and
    /// persistent requests far more often than any realistic workload.
    pub fn hot_block() -> Self {
        WorkloadProfile {
            name: "HotBlock",
            private_blocks: 64,
            shared_read_blocks: 0,
            migratory_blocks: 4,
            producer_consumer_blocks: 0,
            region_weights: [0.10, 0.0, 0.90, 0.0],
            private_write_fraction: 0.3,
            shared_write_fraction: 0.0,
            think_cycles_mean: 2,
            ifetch_fraction: 0.0,
        }
    }

    /// Microbenchmark: purely private data; no coherence traffic beyond cold
    /// misses. Useful as a lower bound and for protocol-overhead tests.
    pub fn private_only() -> Self {
        WorkloadProfile {
            name: "Private",
            private_blocks: 8 * 1024,
            shared_read_blocks: 0,
            migratory_blocks: 0,
            producer_consumer_blocks: 0,
            region_weights: [1.0, 0.0, 0.0, 0.0],
            private_write_fraction: 0.35,
            shared_write_fraction: 0.0,
            think_cycles_mean: 5,
            ifetch_fraction: 0.0,
        }
    }

    /// Microbenchmark: uniformly shared read-write data, used for the
    /// scalability experiment (Question 5 of the paper).
    pub fn uniform_shared() -> Self {
        WorkloadProfile {
            name: "UniformShared",
            private_blocks: 256,
            shared_read_blocks: 1024,
            migratory_blocks: 512,
            producer_consumer_blocks: 256,
            region_weights: [0.25, 0.30, 0.35, 0.10],
            private_write_fraction: 0.30,
            shared_write_fraction: 0.05,
            think_cycles_mean: 40,
            ifetch_fraction: 0.0,
        }
    }

    /// Microbenchmark: migratory sharing dominant. A small set of
    /// lock-protected blocks that every processor reads then writes with
    /// almost no think time, so write ownership of each block ping-pongs
    /// around the ring of nodes continuously — the access pattern the
    /// migratory optimization (and the writeback plane under it) exists for.
    pub fn migratory() -> Self {
        WorkloadProfile {
            name: "Migratory",
            private_blocks: 128,
            shared_read_blocks: 0,
            migratory_blocks: 12,
            producer_consumer_blocks: 0,
            region_weights: [0.15, 0.0, 0.85, 0.0],
            private_write_fraction: 0.3,
            shared_write_fraction: 0.0,
            think_cycles_mean: 3,
            ifetch_fraction: 0.0,
        }
    }

    /// Microbenchmark: producer-consumer communication only.
    pub fn producer_consumer() -> Self {
        WorkloadProfile {
            name: "ProducerConsumer",
            private_blocks: 1024,
            shared_read_blocks: 0,
            migratory_blocks: 0,
            producer_consumer_blocks: 2 * 1024,
            region_weights: [0.30, 0.0, 0.0, 0.70],
            private_write_fraction: 0.3,
            shared_write_fraction: 0.0,
            think_cycles_mean: 4,
            ifetch_fraction: 0.0,
        }
    }

    /// The names of every public profile constructor, i.e. the vocabulary of
    /// [`WorkloadProfile::by_name`] (aliases not included). Order matches
    /// [`WorkloadProfile::all`].
    pub const ALL_NAMES: [&'static str; 8] = [
        "OLTP",
        "Apache",
        "SPECjbb",
        "HotBlock",
        "Private",
        "UniformShared",
        "Migratory",
        "ProducerConsumer",
    ];

    /// Every public profile, in [`WorkloadProfile::ALL_NAMES`] order: the
    /// three commercial calibrations followed by the four microbenchmarks.
    /// The catalog is what keeps name resolution honest — a new constructor
    /// that is not added here fails the round-trip test instead of silently
    /// missing [`WorkloadProfile::by_name`].
    pub fn all() -> Vec<WorkloadProfile> {
        vec![
            WorkloadProfile::oltp(),
            WorkloadProfile::apache(),
            WorkloadProfile::specjbb(),
            WorkloadProfile::hot_block(),
            WorkloadProfile::private_only(),
            WorkloadProfile::uniform_shared(),
            WorkloadProfile::migratory(),
            WorkloadProfile::producer_consumer(),
        ]
    }

    /// Looks a profile up by name, ignoring case and `-`/`_` separators, so
    /// every profile's own `name` round-trips (`"ProducerConsumer"`,
    /// `"producer_consumer"`, and `"producer-consumer"` all resolve) along
    /// with a few short aliases.
    pub fn by_name(name: &str) -> Option<WorkloadProfile> {
        let normalized: String = name
            .chars()
            .filter(|c| *c != '_' && *c != '-')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        match normalized.as_str() {
            "oltp" => Some(WorkloadProfile::oltp()),
            "apache" => Some(WorkloadProfile::apache()),
            "specjbb" | "jbb" => Some(WorkloadProfile::specjbb()),
            "hotblock" => Some(WorkloadProfile::hot_block()),
            "private" | "privateonly" => Some(WorkloadProfile::private_only()),
            "uniform" | "uniformshared" => Some(WorkloadProfile::uniform_shared()),
            "migratory" => Some(WorkloadProfile::migratory()),
            "producerconsumer" | "prodcons" => Some(WorkloadProfile::producer_consumer()),
            _ => None,
        }
    }

    /// Total number of distinct blocks a `num_nodes`-processor system touches
    /// under this profile.
    pub fn footprint_blocks(&self, num_nodes: usize) -> u64 {
        self.private_blocks * num_nodes as u64
            + self.shared_read_blocks
            + self.migratory_blocks
            + self.producer_consumer_blocks
    }
}

/// In the text formats a workload travels as its catalog name: the profile's
/// parameters are the catalog's, not the sender's.
impl Wire for WorkloadProfile {
    fn to_json(&self) -> Json {
        Json::Str(self.name.to_string())
    }
    fn from_json(json: &Json, path: &str) -> Result<Self, WireError> {
        let name = String::from_json(json, path)?;
        WorkloadProfile::by_name(&name).ok_or_else(|| {
            WireError::new(
                path,
                format!(
                    "unknown workload `{name}` (expected one of: {})",
                    WorkloadProfile::ALL_NAMES.join(", ")
                ),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commercial_profiles_have_distinct_characters() {
        let oltp = WorkloadProfile::oltp();
        let apache = WorkloadProfile::apache();
        let jbb = WorkloadProfile::specjbb();
        // OLTP is the most migratory; SPECjbb the least shared.
        assert!(oltp.region_weights[2] > apache.region_weights[2]);
        assert!(oltp.region_weights[2] > jbb.region_weights[2]);
        assert!(jbb.region_weights[0] > oltp.region_weights[0]);
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert_eq!(WorkloadProfile::by_name("OLTP").unwrap().name, "OLTP");
        assert_eq!(WorkloadProfile::by_name("Apache").unwrap().name, "Apache");
        assert_eq!(WorkloadProfile::by_name("SPECjbb").unwrap().name, "SPECjbb");
        assert!(WorkloadProfile::by_name("nonsense").is_none());
    }

    /// Every profile in the catalog resolves back to itself through its own
    /// `name`, so a new constructor cannot silently miss name resolution —
    /// it either joins `all()`/`ALL_NAMES` (and this test enforces the
    /// `by_name` arm) or it is unreachable by catalog and fails the length
    /// check the moment someone adds it to one list but not the others.
    #[test]
    fn every_catalog_profile_round_trips_through_by_name() {
        let all = WorkloadProfile::all();
        assert_eq!(all.len(), WorkloadProfile::ALL_NAMES.len());
        for (profile, expected_name) in all.iter().zip(WorkloadProfile::ALL_NAMES) {
            assert_eq!(profile.name, expected_name);
            let resolved = WorkloadProfile::by_name(profile.name)
                .unwrap_or_else(|| panic!("{} does not resolve via by_name", profile.name));
            assert_eq!(
                &resolved, profile,
                "{} resolves to a different profile",
                profile.name
            );
        }
        // Catalog names are unique.
        let mut names: Vec<_> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn a_profile_travels_as_its_catalog_name() {
        for profile in WorkloadProfile::all() {
            let json = profile.to_json();
            assert_eq!(json, Json::Str(profile.name.to_string()));
            assert_eq!(WorkloadProfile::from_json(&json, "w"), Ok(profile));
        }
        let err = WorkloadProfile::from_json(&Json::Str("speccpu".into()), "w").unwrap_err();
        assert_eq!(err.field, "w");
        for name in WorkloadProfile::ALL_NAMES {
            assert!(err.message.contains(name), "{err}");
        }
    }

    #[test]
    fn separator_and_alias_lookups_resolve() {
        for (alias, canonical) in [
            ("producer-consumer", "ProducerConsumer"),
            ("producer_consumer", "ProducerConsumer"),
            ("prodcons", "ProducerConsumer"),
            ("uniform", "UniformShared"),
            ("uniform_shared", "UniformShared"),
            ("hot_block", "HotBlock"),
            ("private_only", "Private"),
            ("jbb", "SPECjbb"),
        ] {
            assert_eq!(
                WorkloadProfile::by_name(alias).map(|p| p.name),
                Some(canonical),
                "alias {alias}"
            );
        }
    }

    #[test]
    fn commercial_returns_all_three_in_figure_order() {
        let all = WorkloadProfile::commercial();
        let names: Vec<_> = all.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["Apache", "OLTP", "SPECjbb"]);
    }

    #[test]
    fn footprints_scale_with_node_count() {
        let p = WorkloadProfile::oltp();
        assert!(p.footprint_blocks(16) > p.footprint_blocks(4));
        assert_eq!(
            p.footprint_blocks(1) - p.footprint_blocks(0),
            p.private_blocks
        );
    }

    #[test]
    fn hot_block_microbenchmark_is_tiny_and_contended() {
        let p = WorkloadProfile::hot_block();
        assert!(p.migratory_blocks <= 8);
        assert!(p.region_weights[2] > 0.5);
    }

    #[test]
    fn weights_are_non_negative_and_non_degenerate() {
        for p in WorkloadProfile::all() {
            assert!(p.region_weights.iter().all(|w| *w >= 0.0), "{}", p.name);
            assert!(p.region_weights.iter().sum::<f64>() > 0.0, "{}", p.name);
            assert!(p.think_cycles_mean > 0, "{}", p.name);
        }
    }

    #[test]
    fn region_kind_display_names_are_distinct() {
        let mut names: Vec<String> = RegionKind::ALL.iter().map(|r| r.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
