//! The trust boundary of `ControllerStats::extra`: counter names arrive
//! from snapshot and `--cache` files whose checksum is not cryptographic,
//! and each distinct name loaded is interned for the life of the process.
//! This test fills the process-wide name table, so it is a test binary of
//! its own.

use tc_sim::{Snap, SnapReader, SnapWriter, SnapshotError};
use tc_types::ControllerStats;

/// `ControllerStats` bytes presenting `names` as its extra counters.
fn stats_with_counters(names: impl ExactSizeIterator<Item = String>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    ControllerStats::new().save(&mut w);
    let mut bytes = w.into_bytes();
    bytes.truncate(bytes.len() - 8); // the empty map's length prefix
    let mut w = SnapWriter::new();
    w.seq(names, |w, name| {
        w.str(&name);
        w.u64(1);
    });
    bytes.extend(w.into_bytes());
    bytes
}

fn load(bytes: &[u8]) -> Result<ControllerStats, SnapshotError> {
    ControllerStats::load(&mut SnapReader::new(bytes))
}

#[test]
fn a_payload_of_ten_thousand_counter_names_is_corrupt_and_leaks_at_most_the_cap() {
    let flood = stats_with_counters((0..10_000).map(|i| format!("counter{i}")));
    assert!(matches!(load(&flood), Err(SnapshotError::Corrupt(_))));

    // Exactly the first 256 names were interned: they still load (a name
    // already handed out costs nothing), and no 257th ever does. A map
    // loads only in key order, the order every writer saves it in.
    let mut first: Vec<String> = (0..256).map(|i| format!("counter{i}")).collect();
    first.sort();
    let interned = stats_with_counters(first.into_iter());
    let stats = load(&interned).expect("interned names keep loading");
    assert_eq!(stats.counter("counter255"), 1);
    let one_more = stats_with_counters(["one_more".to_string()].into_iter());
    assert!(matches!(load(&one_more), Err(SnapshotError::Corrupt(_))));

    // A name over 64 bytes is refused whatever the table holds.
    let long = stats_with_counters(["x".repeat(65)].into_iter());
    assert!(matches!(load(&long), Err(SnapshotError::Corrupt(_))));
}
