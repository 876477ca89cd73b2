//! Footprint tripwire for `SetAssocCache`'s set index and line arrays: a
//! node must pay for the lines it holds, not for the lines it could hold.
//!
//! The Table 1 L2 (4 MB, 4-way, 64-byte blocks) has 16384 sets. A dense
//! index of one `u32` per set costs 64 KiB per node from the moment the
//! cache is built, while a short run fills a few hundred sets. The index
//! here is a 4 KiB group table plus one 64-byte rank page per group of 16
//! sets that has been filled: about 20 KiB after 300 scattered fills, and
//! 68 KiB (64 KiB plus the group table) with every set filled. The test holds
//! those at 24 KiB and 72 KiB.
//!
//! The line arrays give a set one way on its first fill and all four only
//! when a second line goes in, so 300 scattered fills take about 300 way
//! slots, where appending every set's four ways took 1200. The test allows
//! 600. With every set filled it allows `sets * ways + sets`: each set's
//! four ways, plus at most one spare one-way run per promoted set. It
//! counts slots and bytes and times nothing.

use tc_memsys::SetAssocCache;
use tc_sim::DeterministicRng;
use tc_types::{BlockAddr, CacheConfig};

const TABLE1_L2: CacheConfig = CacheConfig {
    size_bytes: 4 * 1024 * 1024,
    associativity: 4,
    latency_ns: 6,
};
const BLOCK_BYTES: u64 = 64;
const SPARSE_FILLS: usize = 300;
const SPARSE_LIMIT: usize = 24 * 1024;
const FULL_LIMIT: usize = 72 * 1024;
const SPARSE_SLOT_LIMIT: usize = 600;

#[test]
fn the_table1_l2_index_grows_with_the_sets_it_fills() {
    let mut l2: SetAssocCache<u32> = SetAssocCache::new(&TABLE1_L2, BLOCK_BYTES);
    let sets = TABLE1_L2.num_sets(BLOCK_BYTES);
    assert_eq!(sets, 16384);
    assert_eq!(
        l2.index_bytes(),
        4096,
        "an empty cache holds the group table only"
    );

    let mut rng = DeterministicRng::new(12);
    for fill in 0..SPARSE_FILLS {
        l2.insert(BlockAddr::new(rng.next_below(1 << 30)), fill as u32);
    }
    assert_eq!(
        l2.len(),
        SPARSE_FILLS,
        "scattered fills should not conflict"
    );
    let sparse = l2.index_bytes();
    assert!(
        sparse < SPARSE_LIMIT,
        "{SPARSE_FILLS} fills grew the index to {sparse} bytes (limit {SPARSE_LIMIT}): \
         something sizes it by the sets the cache could hold"
    );
    let slots = l2.line_slots();
    assert!(
        slots <= SPARSE_SLOT_LIMIT,
        "{SPARSE_FILLS} fills grew the line arrays to {slots} way slots \
         (limit {SPARSE_SLOT_LIMIT}): something gives a set every way on its first fill"
    );

    for set in 0..sets as u64 {
        l2.insert(BlockAddr::new(set), 0);
    }
    let full = l2.index_bytes();
    assert!(
        full < FULL_LIMIT,
        "every set filled grew the index to {full} bytes (limit {FULL_LIMIT})"
    );
    let ways = TABLE1_L2.associativity;
    let slots = l2.line_slots();
    assert!(
        slots <= sets * ways + sets,
        "every set filled grew the line arrays to {slots} way slots (limit {})",
        sets * ways + sets
    );
}
