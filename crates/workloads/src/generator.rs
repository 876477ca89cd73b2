//! Deterministic per-processor memory-operation generators.

use std::collections::VecDeque;

use tc_sim::{snap_state, snap_struct, DeterministicRng};
use tc_types::{Address, Cycle, MemOp, MemOpKind, NodeId, ReqId};

use crate::profile::{RegionKind, WorkloadProfile};

/// Block-number bases of the synthetic address-space regions. They are far
/// enough apart that regions never overlap for any realistic profile.
const PRIVATE_BASE: u64 = 0x0100_0000;
const PRIVATE_STRIDE: u64 = 0x0010_0000;
const SHARED_READ_BASE: u64 = 0x0800_0000;
const MIGRATORY_BASE: u64 = 0x0900_0000;
const PRODUCER_CONSUMER_BASE: u64 = 0x0A00_0000;

/// Cache block size used to turn block numbers into byte addresses.
const BLOCK_BYTES: u64 = 64;

/// One generated operation: the compute time that precedes it and the memory
/// operation itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedOp {
    /// Compute ("think") cycles the processor spends before issuing `op`.
    pub think_cycles: Cycle,
    /// The memory operation to issue.
    pub op: MemOp,
}

snap_struct!(GeneratedOp { think_cycles, op });

/// A deterministic stream of memory operations for one processor.
///
/// Two generators built with the same profile, node, node count, and seed
/// produce identical streams, so different protocols can be compared on
/// exactly the same work.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    profile: WorkloadProfile,
    node: NodeId,
    num_nodes: usize,
    rng: DeterministicRng,
    next_req: u64,
    pending: VecDeque<(Cycle, u64, MemOpKind)>,
}

impl WorkloadGenerator {
    /// Creates a generator for `node` out of `num_nodes`, seeded so that every
    /// node gets an independent but reproducible stream derived from `seed`.
    pub fn new(profile: &WorkloadProfile, node: NodeId, num_nodes: usize, seed: u64) -> Self {
        let mut root = DeterministicRng::new(seed);
        let rng = root.fork(node.index() as u64 + 1);
        WorkloadGenerator {
            profile: profile.clone(),
            node,
            num_nodes: num_nodes.max(1),
            rng,
            next_req: 0,
            pending: VecDeque::new(),
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn think(&mut self) -> Cycle {
        let mean = self.profile.think_cycles_mean.max(1);
        // Uniform in [mean/2, 3*mean/2], averaging `mean`.
        self.rng.next_range(mean / 2 + 1, mean + mean / 2 + 2)
    }

    fn pick_region(&mut self) -> RegionKind {
        let mut weights = self.profile.region_weights;
        // Disable regions with no blocks so degenerate profiles stay valid.
        if self.profile.private_blocks == 0 {
            weights[0] = 0.0;
        }
        if self.profile.shared_read_blocks == 0 {
            weights[1] = 0.0;
        }
        if self.profile.migratory_blocks == 0 {
            weights[2] = 0.0;
        }
        if self.profile.producer_consumer_blocks == 0 {
            weights[3] = 0.0;
        }
        RegionKind::ALL[self.rng.pick_weighted(&weights)]
    }

    fn private_block(&mut self) -> u64 {
        PRIVATE_BASE
            + self.node.index() as u64 * PRIVATE_STRIDE
            + self.rng.next_below(self.profile.private_blocks.max(1))
    }

    fn shared_read_block(&mut self) -> u64 {
        let span = self.profile.shared_read_blocks.max(1);
        // A hot subset (1/16 of the region) absorbs a quarter of the
        // accesses, giving the mild skew real shared data exhibits.
        if self.rng.chance(0.25) {
            SHARED_READ_BASE + self.rng.next_below((span / 16).max(1))
        } else {
            SHARED_READ_BASE + self.rng.next_below(span)
        }
    }

    fn migratory_block(&mut self) -> u64 {
        MIGRATORY_BASE + self.rng.next_below(self.profile.migratory_blocks.max(1))
    }

    fn producer_consumer_block(&mut self) -> u64 {
        PRODUCER_CONSUMER_BASE
            + self
                .rng
                .next_below(self.profile.producer_consumer_blocks.max(1))
    }

    fn enqueue(&mut self, think: Cycle, block: u64, kind: MemOpKind) {
        self.pending.push_back((think, block, kind));
    }

    /// Generates the next memory operation for this processor.
    pub fn next_op(&mut self) -> GeneratedOp {
        if self.pending.is_empty() {
            self.generate_sequence();
        }
        let (think_cycles, block, kind) = self
            .pending
            .pop_front()
            .expect("generate_sequence always enqueues at least one operation");
        let id = ReqId::new((self.node.index() as u64) << 48 | self.next_req);
        self.next_req += 1;
        GeneratedOp {
            think_cycles,
            op: MemOp::new(id, Address::new(block * BLOCK_BYTES), kind),
        }
    }

    /// Expands one logical workload action into one or more memory
    /// operations.
    fn generate_sequence(&mut self) {
        let think = self.think();
        if self.rng.chance(self.profile.ifetch_fraction) {
            let block = self.shared_or_private_code_block();
            self.enqueue(think, block, MemOpKind::Ifetch);
            return;
        }
        match self.pick_region() {
            RegionKind::Private => {
                let block = self.private_block();
                let kind = if self.rng.chance(self.profile.private_write_fraction) {
                    MemOpKind::Store
                } else {
                    MemOpKind::Load
                };
                self.enqueue(think, block, kind);
            }
            RegionKind::SharedReadMostly => {
                let block = self.shared_read_block();
                let kind = if self.rng.chance(self.profile.shared_write_fraction) {
                    MemOpKind::Store
                } else {
                    MemOpKind::Load
                };
                self.enqueue(think, block, kind);
            }
            RegionKind::Migratory => {
                // Migratory sharing: acquire (atomic), read, then update the
                // protected data — the classic lock-protected record access
                // that the migratory optimization targets.
                let block = self.migratory_block();
                let follow_up_think = self.think();
                self.enqueue(think, block, MemOpKind::Load);
                self.enqueue(follow_up_think, block, MemOpKind::Store);
            }
            RegionKind::ProducerConsumer => {
                let block = self.producer_consumer_block();
                let writer = (block % self.num_nodes as u64) as usize;
                let kind = if writer == self.node.index() {
                    MemOpKind::Store
                } else {
                    MemOpKind::Load
                };
                self.enqueue(think, block, kind);
            }
        }
    }

    fn shared_or_private_code_block(&mut self) -> u64 {
        if self.profile.shared_read_blocks > 0 {
            self.shared_read_block()
        } else {
            self.private_block()
        }
    }
}

// Profile, node and node count are config-derived.
snap_state!(WorkloadGenerator {
    rng,
    next_req,
    pending,
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tc_sim::{SnapReader, SnapState, SnapWriter};
    use tc_types::AccessType;

    fn generator(profile: WorkloadProfile, node: usize) -> WorkloadGenerator {
        WorkloadGenerator::new(&profile, NodeId::new(node), 16, 7)
    }

    #[test]
    fn same_seed_gives_identical_streams() {
        let mut a = generator(WorkloadProfile::oltp(), 3);
        let mut b = generator(WorkloadProfile::oltp(), 3);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_nodes_get_different_streams() {
        let mut a = generator(WorkloadProfile::oltp(), 0);
        let mut b = generator(WorkloadProfile::oltp(), 1);
        let same = (0..200)
            .filter(|_| a.next_op().op.addr == b.next_op().op.addr)
            .count();
        assert!(same < 50, "streams should differ, {same} collisions");
    }

    #[test]
    fn request_ids_are_unique_and_monotonic() {
        let mut g = generator(WorkloadProfile::apache(), 2);
        let mut seen = HashSet::new();
        let mut last = None;
        for _ in 0..1000 {
            let id = g.next_op().op.id;
            assert!(seen.insert(id));
            if let Some(prev) = last {
                assert!(id > prev);
            }
            last = Some(id);
        }
    }

    #[test]
    fn private_accesses_never_touch_other_nodes_private_regions() {
        let mut g = generator(WorkloadProfile::private_only(), 5);
        for _ in 0..2000 {
            let op = g.next_op().op;
            let block = op.addr.value() / BLOCK_BYTES;
            assert!(block >= PRIVATE_BASE + 5 * PRIVATE_STRIDE);
            assert!(block < PRIVATE_BASE + 6 * PRIVATE_STRIDE);
        }
    }

    #[test]
    fn migratory_accesses_come_as_read_then_write_pairs() {
        let mut g = generator(WorkloadProfile::hot_block(), 1);
        let mut reads_followed_by_write_to_same_block = 0;
        let mut migratory_reads = 0;
        let mut prev: Option<MemOp> = None;
        for _ in 0..2000 {
            let op = g.next_op().op;
            let block = op.addr.value() / BLOCK_BYTES;
            if let Some(p) = prev {
                let prev_block = p.addr.value() / BLOCK_BYTES;
                if (MIGRATORY_BASE..PRODUCER_CONSUMER_BASE).contains(&prev_block)
                    && p.kind == MemOpKind::Load
                {
                    migratory_reads += 1;
                    if block == prev_block && op.kind == MemOpKind::Store {
                        reads_followed_by_write_to_same_block += 1;
                    }
                }
            }
            prev = Some(op);
        }
        assert!(migratory_reads > 100);
        assert_eq!(migratory_reads, reads_followed_by_write_to_same_block);
    }

    #[test]
    fn producer_consumer_blocks_have_a_single_writer() {
        let profile = WorkloadProfile::producer_consumer();
        for node in 0..4 {
            let mut g = WorkloadGenerator::new(&profile, NodeId::new(node), 4, 11);
            for _ in 0..2000 {
                let op = g.next_op().op;
                let block = op.addr.value() / BLOCK_BYTES;
                if block >= PRODUCER_CONSUMER_BASE && op.kind == MemOpKind::Store {
                    assert_eq!((block % 4) as usize, node, "non-owner wrote {block:#x}");
                }
            }
        }
    }

    #[test]
    fn oltp_has_more_write_sharing_than_specjbb() {
        let count_shared_writes = |profile: WorkloadProfile| {
            let mut writes = 0;
            for node in 0..4 {
                let mut g = WorkloadGenerator::new(&profile, NodeId::new(node), 4, 3);
                for _ in 0..2000 {
                    let op = g.next_op().op;
                    let block = op.addr.value() / BLOCK_BYTES;
                    if block >= SHARED_READ_BASE && op.access_type() == AccessType::Write {
                        writes += 1;
                    }
                }
            }
            writes
        };
        let oltp = count_shared_writes(WorkloadProfile::oltp());
        let jbb = count_shared_writes(WorkloadProfile::specjbb());
        assert!(
            oltp as f64 > 1.5 * jbb as f64,
            "OLTP shared writes ({oltp}) should clearly exceed SPECjbb's ({jbb})"
        );
    }

    #[test]
    fn think_times_average_near_the_profile_mean() {
        let mut g = generator(WorkloadProfile::oltp(), 0);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| g.next_op().think_cycles).sum();
        let mean = total as f64 / n as f64;
        let target = WorkloadProfile::oltp().think_cycles_mean as f64;
        assert!(
            (mean - target).abs() < target * 0.5,
            "mean think time {mean} too far from {target}"
        );
    }

    #[test]
    fn footprint_stays_within_declared_regions() {
        let profile = WorkloadProfile::apache();
        let mut g = generator(profile.clone(), 0);
        for _ in 0..5000 {
            let block = g.next_op().op.addr.value() / BLOCK_BYTES;
            let in_private = (PRIVATE_BASE..PRIVATE_BASE + PRIVATE_STRIDE).contains(&block);
            let in_shared =
                block >= SHARED_READ_BASE && block < SHARED_READ_BASE + profile.shared_read_blocks;
            let in_migratory =
                block >= MIGRATORY_BASE && block < MIGRATORY_BASE + profile.migratory_blocks;
            let in_pc = block >= PRODUCER_CONSUMER_BASE
                && block < PRODUCER_CONSUMER_BASE + profile.producer_consumer_blocks;
            assert!(
                in_private || in_shared || in_migratory || in_pc,
                "block {block:#x} outside every region"
            );
        }
    }

    #[test]
    fn generated_op_round_trips() {
        let op = generator(WorkloadProfile::oltp(), 3).next_op();
        tc_testkit::assert_snap_round_trip(&op);
    }

    #[test]
    fn snapshot_mid_sequence_resumes_the_identical_stream() {
        let mut g = generator(WorkloadProfile::oltp(), 3);
        // Advance an odd number of ops so a migratory read/write pair is
        // likely split across the snapshot point (pending non-empty).
        for _ in 0..1001 {
            g.next_op();
        }
        let mut w = SnapWriter::new();
        g.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = generator(WorkloadProfile::oltp(), 3);
        let mut r = SnapReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        for _ in 0..2000 {
            assert_eq!(g.next_op(), restored.next_op());
        }
    }
}
