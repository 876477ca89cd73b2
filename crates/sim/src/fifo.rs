//! A pool of small FIFO lists on one node slab with an intrusive free list.
//!
//! Two users keep many short lists whose population churns: the event
//! queue (one list per pending cycle) and every controller's MSHRs (the
//! processor operations merged into one miss). Giving each list its own
//! buffer means an allocation per list and a free per drain. A
//! [`FifoPool`] keeps every list's values in one `Vec` of nodes, each a
//! value beside the `u32` index of the next node in its list. A list is
//! only its [`Fifo`] handle: the indices of its first and last node and its
//! length. A freed node goes on a LIFO free list threaded through the same
//! `next` links, so the next push reuses the node the last pop or clear
//! left in the host's cache, and the slab grows only when the simultaneous
//! population exceeds every earlier peak.
//!
//! Handles are deliberately not `Clone`: a list is owned by exactly one
//! place (a queue bucket, an MSHR entry), and an aliased handle would let
//! two owners free the same chain.

use crate::snapshot::{Snap, SnapReader, SnapWith, SnapWriter, SnapshotError};

/// End of a list (and of the free list): no node.
const NIL: u32 = u32::MAX;

/// Handle to one FIFO list inside a [`FifoPool`]. Twelve bytes, because
/// MSHR entries embed it and their size is priced into the run's state
/// accounting.
#[derive(Debug)]
pub struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Fifo {
    /// An empty list.
    pub const fn new() -> Self {
        Fifo {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of values in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` when the list holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for Fifo {
    fn default() -> Self {
        Fifo::new()
    }
}

/// A node: a value (`None` while the node is free) and the index of the
/// next node in its list, or on the free list.
#[derive(Debug)]
struct Node<T> {
    value: Option<T>,
    next: u32,
}

/// The nodes behind every [`Fifo`] minted from it, with the free ones
/// threaded LIFO through `next` from `free`.
#[derive(Debug)]
pub struct FifoPool<T> {
    nodes: Vec<Node<T>>,
    free: u32,
}

impl<T> FifoPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        FifoPool {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Links `value` at the tail of `list`, in the most recently freed node.
    ///
    /// # Panics
    ///
    /// When the pool already holds `u32::MAX - 1` nodes, all live.
    #[inline]
    pub fn push(&mut self, list: &mut Fifo, value: T) {
        let node = Node {
            value: Some(value),
            next: NIL,
        };
        let index = if self.free == NIL {
            let index = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&index| index != NIL)
                .expect("more than u32::MAX - 1 pooled values");
            self.nodes.push(node);
            index
        } else {
            let index = self.free;
            let slot = &mut self.nodes[index as usize];
            self.free = slot.next;
            *slot = node;
            index
        };
        if list.is_empty() {
            list.head = index;
        } else {
            self.nodes[list.tail as usize].next = index;
        }
        list.tail = index;
        list.len += 1;
    }

    /// Unlinks and returns the head of `list`, freeing its node.
    #[inline]
    pub fn pop(&mut self, list: &mut Fifo) -> Option<T> {
        if list.is_empty() {
            return None;
        }
        let index = list.head;
        let node = &mut self.nodes[index as usize];
        list.head = node.next;
        list.len -= 1;
        node.next = self.free;
        self.free = index;
        node.value.take()
    }

    /// A new list holding `value`.
    pub fn singleton(&mut self, value: T) -> Fifo {
        let mut list = Fifo::new();
        self.push(&mut list, value);
        list
    }

    /// Drops every value of `list` and frees its nodes, leaving it empty.
    pub fn clear(&mut self, list: &mut Fifo) {
        while self.pop(list).is_some() {}
    }

    /// The values of `list`, head first.
    pub fn iter<'a>(&'a self, list: &Fifo) -> impl ExactSizeIterator<Item = &'a T> + 'a {
        let mut at = list.head;
        (0..list.len).map(move |_| {
            let node = &self.nodes[at as usize];
            at = node.next;
            node.value.as_ref().expect("a linked node holds a value")
        })
    }

    /// Every value of every list, in slab order: no order between or
    /// within lists may be read from it.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.nodes.iter().filter_map(|node| node.value.as_ref())
    }

    /// Forgets every list and node. Handles minted before a `reset` are
    /// invalid, so the caller rebuilds every list (a snapshot load does).
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.free = NIL;
    }

    /// Number of nodes, live and free: the peak simultaneous population
    /// since the last [`reset`](Self::reset).
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl<T> Default for FifoPool<T> {
    fn default() -> Self {
        FifoPool::new()
    }
}

/// A list on the wire: its length, then its values head first (the bytes a
/// `VecDeque` of them saves as). A load mints the values into fresh nodes
/// of the pool and refuses a list the `u32` index space cannot hold.
impl<T: Snap> SnapWith<FifoPool<T>> for Fifo {
    fn save_with(&self, w: &mut SnapWriter, pool: &FifoPool<T>) {
        self.save_each(w, pool, |w, value| value.save(w));
    }

    fn load_with(r: &mut SnapReader<'_>, pool: &mut FifoPool<T>) -> Result<Fifo, SnapshotError> {
        Fifo::load_each(r, pool, T::load)
    }
}

impl Fifo {
    /// [`SnapWith::save_with`] with each value written by `save`, for
    /// values whose bytes go through a context of their own.
    pub fn save_each<T>(
        &self,
        w: &mut SnapWriter,
        pool: &FifoPool<T>,
        mut save: impl FnMut(&mut SnapWriter, &T),
    ) {
        w.seq(pool.iter(self), |w, value| save(w, value));
    }

    /// [`SnapWith::load_with`] with each value read by `load`.
    pub fn load_each<T>(
        r: &mut SnapReader<'_>,
        pool: &mut FifoPool<T>,
        mut load: impl FnMut(&mut SnapReader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<Fifo, SnapshotError> {
        let len = r.bounded_len(1)?;
        if pool.nodes.len().saturating_add(len) >= NIL as usize {
            return Err(SnapshotError::Corrupt(format!("list of {len} values")));
        }
        let mut list = Fifo::new();
        for _ in 0..len {
            pool.push(&mut list, load(r)?);
        }
        Ok(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;
    use std::collections::VecDeque;

    #[test]
    fn fifo_order_is_preserved() {
        let mut pool: FifoPool<u32> = FifoPool::new();
        let mut list = Fifo::new();
        for v in [3, 1, 4, 1, 5] {
            pool.push(&mut list, v);
        }
        let seen: Vec<u32> = pool.iter(&list).copied().collect();
        assert_eq!(seen, vec![3, 1, 4, 1, 5]);
        assert_eq!(list.len(), 5);
        assert_eq!(pool.iter(&list).len(), 5);
    }

    #[test]
    fn cleared_nodes_are_recycled_not_reallocated() {
        let mut pool: FifoPool<u32> = FifoPool::new();
        // Warm-up: the deepest simultaneous population this test reaches.
        let mut a = pool.singleton(1);
        let mut b = pool.singleton(2);
        pool.push(&mut a, 3);
        assert_eq!(pool.nodes(), 3);

        // Steady state: churn far more lists than the warm-up population.
        for round in 0..1000 {
            pool.clear(&mut a);
            pool.clear(&mut b);
            a = pool.singleton(round);
            b = pool.singleton(round + 1);
            pool.push(&mut a, round + 2);
        }
        assert_eq!(pool.nodes(), 3, "steady-state churn must not grow the pool");
        assert_eq!(pool.values().count(), 3);
    }

    #[test]
    fn interleaved_lists_stay_disjoint() {
        let mut pool: FifoPool<u32> = FifoPool::new();
        let mut a = Fifo::new();
        let mut b = Fifo::new();
        for i in 0..10 {
            pool.push(&mut a, i);
            pool.push(&mut b, 100 + i);
        }
        assert_eq!(pool.iter(&a).copied().sum::<u32>(), 45);
        assert_eq!(pool.iter(&b).copied().sum::<u32>(), 1045);
        pool.clear(&mut a);
        assert!(a.is_empty());
        assert_eq!(pool.iter(&b).copied().count(), 10);
        assert_eq!(pool.values().count(), 10);
    }

    #[test]
    fn reset_empties_everything() {
        let mut pool: FifoPool<u32> = FifoPool::new();
        let mut a = pool.singleton(7);
        pool.clear(&mut a);
        pool.push(&mut a, 8);
        pool.reset();
        assert_eq!(pool.nodes(), 0);
        assert_eq!(pool.values().count(), 0);
        let rebuilt = pool.singleton(9);
        assert_eq!(pool.iter(&rebuilt).copied().collect::<Vec<_>>(), vec![9]);
    }

    /// Seeded push, pop and clear storms over many lists against a
    /// `VecDeque` per list: every list holds the model's values in the
    /// model's order, and the pool never keeps more nodes than the peak
    /// simultaneous population. Every 500 steps each list makes a snapshot
    /// round trip into a fresh pool, which must be invisible.
    #[test]
    fn pool_matches_a_deque_per_list_under_random_storms() {
        const LISTS: usize = 24;
        for seed in [1u64, 9, 77, 0xF1F0, 123_456_789] {
            let mut rng = DeterministicRng::new(seed);
            let mut pool: FifoPool<u64> = FifoPool::new();
            let mut lists: Vec<Fifo> = (0..LISTS).map(|_| Fifo::new()).collect();
            let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); LISTS];
            let (mut live, mut peak, mut next) = (0usize, 0usize, 0u64);
            for step in 0..20_000 {
                let at = rng.next_below(LISTS as u64) as usize;
                match rng.next_below(100) {
                    0..=54 => {
                        for _ in 0..1 + rng.next_below(3) {
                            pool.push(&mut lists[at], next);
                            model[at].push_back(next);
                            next += 1;
                            live += 1;
                        }
                    }
                    55..=94 => {
                        let popped = pool.pop(&mut lists[at]);
                        assert_eq!(popped, model[at].pop_front(), "seed {seed} step {step}");
                        live -= usize::from(popped.is_some());
                    }
                    _ => {
                        pool.clear(&mut lists[at]);
                        live -= model[at].len();
                        model[at].clear();
                    }
                }
                peak = peak.max(live);
                assert!(pool.nodes() <= peak, "seed {seed} step {step}");
                assert_eq!(lists[at].len(), model[at].len());
                assert!(pool.iter(&lists[at]).eq(model[at].iter()));
                if step % 500 == 499 {
                    let mut w = SnapWriter::new();
                    lists.iter().for_each(|list| list.save_with(&mut w, &pool));
                    let bytes = w.into_bytes();
                    let mut r = SnapReader::new(&bytes);
                    pool = FifoPool::new();
                    for list in &mut lists {
                        *list = Fifo::load_with(&mut r, &mut pool).unwrap();
                    }
                    r.finish().unwrap();
                    assert_eq!(pool.nodes(), live, "a load mints one node per value");
                    peak = live;
                }
            }
            for (list, model) in lists.iter().zip(&model) {
                assert!(pool.iter(list).eq(model.iter()), "seed {seed}");
            }
            assert_eq!(pool.values().count(), live);
        }
    }
}
