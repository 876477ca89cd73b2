//! The dedup result cache: full determinism tuple in, [`RunReport`] out.
//!
//! Keys come from [`crate::submission::cache_key`] — everything that feeds
//! the simulation, label excluded — so two submissions that describe the
//! same physical experiment share one entry no matter what they call it.
//! Because runs are bit-identical at any worker count, a cached report *is*
//! the report a fresh run would produce, and serving it is sound.
//!
//! The cache persists through the engine snapshot plane: the same
//! [`SnapWriter`]/[`SnapReader`] codec and [`seal`]/[`open`] envelope
//! (magic, version, checksum) the checkpoint files use, so a restarted
//! server keeps its history and a corrupt or version-skewed file degrades
//! to an empty cache instead of poisoning results.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use tc_sim::{open, seal, Snap, SnapReader, SnapWriter, SnapshotError, SNAPSHOT_VERSION};
use tc_system::RunReport;

/// Version of the cache payload layout *inside* the sealed envelope. Bump
/// on any change to the entry encoding.
const CACHE_FORMAT_VERSION: u32 = 1;

/// An in-memory result cache with hit/miss accounting.
#[derive(Debug, Default)]
pub struct ResultCache {
    /// Key → report. A BTreeMap keeps persistence deterministic: the same
    /// cache contents always serialize to the same bytes.
    entries: BTreeMap<String, RunReport>,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Number of cached reports.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no reports are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a report up, recording the hit or miss.
    pub fn lookup(&mut self, key: &str) -> Option<&RunReport> {
        if self.entries.contains_key(key) {
            self.hits += 1;
            self.entries.get(key)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts (or replaces — reruns are bit-identical, so replacement is a
    /// no-op in content) a report.
    pub fn insert(&mut self, key: String, report: RunReport) {
        self.entries.insert(key, report);
    }

    /// Fraction of lookups served from cache, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Serializes every entry into a sealed snapshot (hit/miss counters are
    /// session statistics and deliberately not persisted).
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u32(CACHE_FORMAT_VERSION);
        self.entries.save(&mut w);
        seal(SNAPSHOT_VERSION, &w.into_bytes())
    }

    /// Restores a cache from [`ResultCache::to_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// Returns the envelope or codec error; counters start at zero.
    pub fn from_snapshot(bytes: &[u8]) -> Result<ResultCache, SnapshotError> {
        let (_, payload) = open(bytes)?;
        let mut r = SnapReader::new(payload);
        let format = r.u32()?;
        if format != CACHE_FORMAT_VERSION {
            return Err(SnapshotError::BadVersion {
                found: format,
                expected: CACHE_FORMAT_VERSION,
            });
        }
        let entries = Snap::load(&mut r)?;
        r.finish()?;
        Ok(ResultCache {
            entries,
            hits: 0,
            misses: 0,
        })
    }

    /// Writes the snapshot to `path` atomically (temp file + rename), so a
    /// crash mid-write leaves the previous file intact.
    pub fn persist(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_snapshot())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a cache from `path`. A missing, truncated, or corrupt file —
    /// the normal states after a first boot or a crash — yields an empty
    /// cache and the reason; only a healthy file restores entries.
    pub fn load_or_empty(path: &Path) -> (ResultCache, Option<String>) {
        match std::fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => (ResultCache::new(), None),
            Err(e) => (ResultCache::new(), Some(format!("unreadable cache: {e}"))),
            Ok(bytes) => match ResultCache::from_snapshot(&bytes) {
                Ok(cache) => (cache, None),
                Err(e) => (ResultCache::new(), Some(format!("discarding cache: {e}"))),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_system::{Campaign, ExperimentPoint, RunOptions};
    use tc_types::SystemConfig;
    use tc_workloads::WorkloadProfile;

    fn one_report() -> RunReport {
        let mut config = SystemConfig::isca03_default().with_nodes(4).with_seed(3);
        config.l2.size_bytes = 256 * 1024;
        let report = Campaign::new(vec![ExperimentPoint::new(
            "cache-test",
            config,
            WorkloadProfile::specjbb(),
        )])
        .options(RunOptions {
            ops_per_node: 200,
            max_cycles: 20_000_000,
            ..RunOptions::default()
        })
        .run();
        report.runs.into_iter().next().unwrap().report
    }

    #[test]
    fn cache_round_trips_through_the_snapshot_plane() {
        let report = one_report();
        let mut cache = ResultCache::new();
        cache.insert("k1".to_string(), report.clone());
        cache.insert("k0".to_string(), report.clone());
        assert!(cache.lookup("k1").is_some());
        assert!(cache.lookup("missing").is_none());
        assert_eq!((cache.hits, cache.misses), (1, 1));

        let restored = ResultCache::from_snapshot(&cache.to_snapshot()).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!((restored.hits, restored.misses), (0, 0));
        assert_eq!(restored.entries.get("k0"), Some(&report));
        // Determinism: same contents, same bytes.
        assert_eq!(cache.to_snapshot(), restored.to_snapshot());
    }

    #[test]
    fn corrupt_or_missing_files_degrade_to_an_empty_cache() {
        let dir = std::env::temp_dir().join(format!("tc-serve-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("does-not-exist.snap");
        let (cache, warning) = ResultCache::load_or_empty(&missing);
        assert!(cache.is_empty());
        assert!(warning.is_none());

        let corrupt = dir.join("corrupt.snap");
        std::fs::write(&corrupt, b"this is not a snapshot").unwrap();
        let (cache, warning) = ResultCache::load_or_empty(&corrupt);
        assert!(cache.is_empty());
        assert!(warning.is_some());

        let good = dir.join("good.snap");
        let mut original = ResultCache::new();
        original.insert("key".to_string(), one_report());
        original.persist(&good).unwrap();
        let (restored, warning) = ResultCache::load_or_empty(&good);
        assert!(warning.is_none());
        assert_eq!(restored.len(), 1);

        // What a server built before snapshot version 4 persisted: the
        // same entries sealed with version 3, refused by the version alone.
        let bytes = std::fs::read(&good).unwrap();
        let v3 = dir.join("v3.snap");
        std::fs::write(&v3, seal(3, open(&bytes).unwrap().1)).unwrap();
        let (old, warning) = ResultCache::load_or_empty(&v3);
        assert!(old.is_empty());
        let warning = warning.expect("a version-3 file is discarded with a warning");
        assert!(warning.contains("snapshot version 3"), "{warning}");

        // A truncated file (simulated crash mid-write of a non-atomic
        // writer) must also degrade, not panic.
        std::fs::write(&good, &bytes[..bytes.len() / 2]).unwrap();
        let (truncated, warning) = ResultCache::load_or_empty(&good);
        assert!(truncated.is_empty());
        assert!(warning.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
