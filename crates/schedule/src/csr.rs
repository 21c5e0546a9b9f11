//! Flat CSR (structure-of-arrays) view of a [`ScheduleNetwork`], and
//! the one CPM sweep that runs on it.
//!
//! The public network API keeps its object-graph ergonomics (names,
//! per-activity lookups, DOT export); this module is what the CPM
//! passes actually run on. [`CsrTopology`] freezes the precedence
//! topology into contiguous `u32` arrays:
//!
//! - a **levelized topological order** (`order`/`pos`): positions are
//!   grouped by level (longest-path depth) and sorted by activity id
//!   within each level, so within-level order equals insertion order
//!   and the sources lead;
//! - **position-space predecessor/successor CSR** (`pred_off`/`preds`,
//!   `succ_off`/`succs`), adjacency kept in edge-insertion order so
//!   tie-breaking (critical-path walks, free-slack folds) matches the
//!   original per-node iteration exactly;
//! - the sink positions (`sink_pos`) the project duration folds over.
//!
//! On that layout the forward and backward passes are each one flat
//! sweep over the positions, ascending and descending.
//!
//! The network caches one topology behind an `Arc` and drops it on
//! every structural edit (a new activity or a new precedence
//! constraint); duration edits keep it. The `Arc` is therefore the
//! identity of one structure: [`IncrementalCpm`](crate::IncrementalCpm)
//! holds the one it was built on and rebuilds when the network's
//! differs ([`same_topology`]). Holding it keeps the allocation alive,
//! so its address cannot be reused by a later topology.
//!
//! [`DirtyBits`] is the companion worklist for the incremental engine:
//! a position-indexed bitset drained in position order (ascending for
//! forward sweeps, descending for backward), replacing the old
//! `BinaryHeap` + generation-stamp scheme with two words of state per
//! 64 activities.

use std::sync::Arc;

use flowgraph::NodeId;

use crate::cpm::ActivityTimes;
use crate::network::{ActivityId, ScheduleNetwork, WorkDays};

/// Whether `csr` is the topology `network` caches now: `false` once a
/// structural edit has cleared the cache, or for another network.
pub(crate) fn same_topology(csr: &Arc<CsrTopology>, network: &ScheduleNetwork) -> bool {
    Arc::ptr_eq(csr, network.csr())
}

/// Frozen flat topology of one structure of a network.
#[derive(Debug)]
pub(crate) struct CsrTopology {
    /// Position → activity id (dense index).
    pub(crate) order: Vec<u32>,
    /// Activity id (dense index) → position.
    pub(crate) pos: Vec<u32>,
    /// CSR offsets into `preds` (position space, length `n + 1`).
    pub(crate) pred_off: Vec<u32>,
    /// Predecessor positions, in edge-insertion order per node.
    pub(crate) preds: Vec<u32>,
    /// CSR offsets into `succs` (position space, length `n + 1`).
    pub(crate) succ_off: Vec<u32>,
    /// Successor positions, in edge-insertion order per node.
    pub(crate) succs: Vec<u32>,
    /// Positions with no successors.
    pub(crate) sink_pos: Vec<u32>,
}

impl CsrTopology {
    /// Flattens the network's current topology.
    pub(crate) fn build(network: &ScheduleNetwork) -> CsrTopology {
        let n = network.activity_count();
        let m = network.precedence_count();
        let dag = &network.dag;
        // In-degrees drive a level-by-level Kahn sweep.
        let mut indeg = vec![0u32; n];
        for (i, d) in indeg.iter_mut().enumerate() {
            *d = dag.predecessors(NodeId::from_index(i)).count() as u32;
        }
        let mut order = Vec::with_capacity(n);
        let mut pos = vec![0u32; n];
        let mut frontier: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut next = Vec::new();
        while !frontier.is_empty() {
            for &id in &frontier {
                pos[id as usize] = order.len() as u32;
                order.push(id);
            }
            for &id in &frontier {
                for s in dag.successors(NodeId::from_index(id as usize)) {
                    let si = s.index();
                    indeg[si] -= 1;
                    if indeg[si] == 0 {
                        next.push(si as u32);
                    }
                }
            }
            // Ascending ids keep within-level order == insertion order.
            next.sort_unstable();
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        debug_assert_eq!(order.len(), n, "networks are DAGs by construction");
        // Position-space adjacency, edge-insertion order preserved.
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut preds = Vec::with_capacity(m);
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succs = Vec::with_capacity(m);
        let mut sink_pos = Vec::new();
        pred_off.push(0);
        succ_off.push(0);
        for (p, &node) in order.iter().enumerate() {
            let id = NodeId::from_index(node as usize);
            for q in dag.predecessors(id) {
                preds.push(pos[q.index()]);
            }
            pred_off.push(preds.len() as u32);
            let before = succs.len();
            for q in dag.successors(id) {
                succs.push(pos[q.index()]);
            }
            succ_off.push(succs.len() as u32);
            if succs.len() == before {
                sink_pos.push(p as u32);
            }
        }
        CsrTopology {
            order,
            pos,
            pred_off,
            preds,
            succ_off,
            succs,
            sink_pos,
        }
    }

    /// Number of activities.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The [`ActivityId`] at position `p`.
    pub(crate) fn activity_id(&self, p: usize) -> ActivityId {
        ActivityId(NodeId::from_index(self.order[p] as usize))
    }

    /// Gathers an id-indexed array into position order.
    pub(crate) fn gather(&self, by_id: &[i64]) -> Vec<i64> {
        self.order.iter().map(|&id| by_id[id as usize]).collect()
    }

    /// Predecessor positions of position `p`.
    pub(crate) fn preds_of(&self, p: usize) -> &[u32] {
        &self.preds[self.pred_off[p] as usize..self.pred_off[p + 1] as usize]
    }

    /// Successor positions of position `p`.
    pub(crate) fn succs_of(&self, p: usize) -> &[u32] {
        &self.succs[self.succ_off[p] as usize..self.succ_off[p + 1] as usize]
    }

    /// Forward pass over position-space durations (milli-days):
    /// earliest start and finish per position. Positions are
    /// topologically sorted, so it is one flat sweep.
    pub(crate) fn forward(&self, dur: &[i64]) -> (Vec<i64>, Vec<i64>) {
        let n = self.len();
        let mut es = vec![0i64; n];
        let mut ef = vec![0i64; n];
        for p in 0..n {
            let mut start = 0i64;
            for &q in self.preds_of(p) {
                start = start.max(ef[q as usize]);
            }
            es[p] = start;
            ef[p] = start + dur[p];
        }
        (es, ef)
    }

    /// Backward pass over position-space durations: per position, the
    /// longest duration path from its start to the project end
    /// (`tail[p] = dur[p] + max tail[succ]`). Late dates fall out as
    /// `late_start = project - tail`, `late_finish = late_start + dur`.
    pub(crate) fn backward(&self, dur: &[i64]) -> Vec<i64> {
        let n = self.len();
        let mut tail = vec![0i64; n];
        for p in (0..n).rev() {
            let mut t = 0i64;
            for &q in self.succs_of(p) {
                t = t.max(tail[q as usize]);
            }
            tail[p] = t + dur[p];
        }
        tail
    }

    /// Project duration: max earliest finish over sinks (0 if empty).
    pub(crate) fn project(&self, ef: &[i64]) -> i64 {
        self.sink_pos
            .iter()
            .map(|&p| ef[p as usize])
            .max()
            .unwrap_or(0)
    }

    /// Assembles the public per-activity dates (id order) from the
    /// position-space pass outputs, with the free-slack fold of the
    /// original per-node assembly. Every date is exact, so none needs
    /// clamping: `es + tail <= project` holds for every position.
    pub(crate) fn assemble_times(
        &self,
        dur: &[i64],
        es: &[i64],
        ef: &[i64],
        tail: &[i64],
        project: i64,
    ) -> Vec<ActivityTimes> {
        let n = self.len();
        let zero = ActivityTimes {
            early_start: WorkDays::ZERO,
            early_finish: WorkDays::ZERO,
            late_start: WorkDays::ZERO,
            late_finish: WorkDays::ZERO,
            total_slack: WorkDays::ZERO,
            free_slack: WorkDays::ZERO,
        };
        let mut times = vec![zero; n];
        for p in 0..n {
            times[self.order[p] as usize] = self.times_at(p, dur, es, ef, tail, project);
        }
        times
    }

    /// The public dates of position `p`.
    pub(crate) fn times_at(
        &self,
        p: usize,
        dur: &[i64],
        es: &[i64],
        ef: &[i64],
        tail: &[i64],
        project: i64,
    ) -> ActivityTimes {
        let late_start = project - tail[p];
        let next_start = self
            .succs_of(p)
            .iter()
            .map(|&q| es[q as usize])
            .min()
            .unwrap_or(project);
        ActivityTimes {
            early_start: WorkDays(es[p]),
            early_finish: WorkDays(ef[p]),
            late_start: WorkDays(late_start),
            late_finish: WorkDays(late_start + dur[p]),
            total_slack: WorkDays(late_start - es[p]),
            free_slack: WorkDays(next_start - ef[p]),
        }
    }

    /// Walks one critical path in position space: from the first
    /// critical source (the sources lead the order, sorted by id, so
    /// "first" matches insertion order), always stepping to the first critical
    /// successor whose early start equals our early finish — the same
    /// deterministic tie-breaking the object-graph walk used.
    pub(crate) fn walk_critical(
        &self,
        es: &[i64],
        ef: &[i64],
        tail: &[i64],
        project: i64,
    ) -> Vec<ActivityId> {
        let is_crit = |p: usize| project - tail[p] == es[p];
        let mut critical = Vec::new();
        let sources = self.pred_off[1..].iter().take_while(|&&o| o == 0).count();
        let mut cur = (0..sources).find(|&p| is_crit(p));
        while let Some(p) = cur {
            critical.push(self.activity_id(p));
            cur = self
                .succs_of(p)
                .iter()
                .map(|&q| q as usize)
                .find(|&q| is_crit(q) && es[q] == ef[p]);
        }
        critical
    }
}

/// Position-indexed dirty worklist: one bit per activity position, with
/// word-range bounds so sparse drains never scan the whole bitset.
///
/// Bits self-clear as they are drained, so a fully drained set is
/// immediately reusable with no O(n) reset — the property the
/// incremental engine relies on between `update` calls.
#[derive(Debug, Clone)]
pub(crate) struct DirtyBits {
    words: Vec<u64>,
    pending: usize,
    /// Lowest word index that may hold a set bit.
    lo: usize,
    /// Highest word index that may hold a set bit.
    hi: usize,
}

impl DirtyBits {
    /// An empty set over `n` positions.
    pub(crate) fn new(n: usize) -> Self {
        DirtyBits {
            words: vec![0u64; n.div_ceil(64)],
            pending: 0,
            lo: usize::MAX,
            hi: 0,
        }
    }

    /// Resizes for `n` positions, clearing all bits.
    pub(crate) fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.pending = 0;
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// Marks position `p`; returns `true` if it was newly set.
    pub(crate) fn insert(&mut self, p: usize) -> bool {
        let w = p / 64;
        let bit = 1u64 << (p % 64);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.pending += 1;
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w);
        true
    }

    /// Number of set bits.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pending
    }

    /// Whether no bits are set.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Removes and returns the lowest set position. During an ascending
    /// drain new insertions only land at higher positions (forward
    /// sweeps enqueue successors), so the cursor never moves backwards.
    pub(crate) fn pop_lowest(&mut self) -> Option<usize> {
        if self.pending == 0 {
            return None;
        }
        let mut w = self.lo;
        loop {
            // Re-read each iteration: draining can set bits in the
            // same word (a successor 3 positions ahead, say).
            let word = self.words[w];
            if word != 0 {
                let bit = word.trailing_zeros() as usize;
                self.words[w] = word & (word - 1);
                self.pending -= 1;
                self.lo = w;
                return Some(w * 64 + bit);
            }
            w += 1;
        }
    }

    /// Removes and returns the highest set position (descending twin of
    /// [`pop_lowest`](DirtyBits::pop_lowest), for backward sweeps).
    pub(crate) fn pop_highest(&mut self) -> Option<usize> {
        if self.pending == 0 {
            return None;
        }
        let mut w = self.hi;
        loop {
            let word = self.words[w];
            if word != 0 {
                let bit = 63 - word.leading_zeros() as usize;
                self.words[w] = word & !(1u64 << bit);
                self.pending -= 1;
                self.hi = w;
                return Some(w * 64 + bit);
            }
            w -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_bits_ascending_drain() {
        let mut bits = DirtyBits::new(200);
        for p in [5, 199, 64, 5, 0] {
            bits.insert(p);
        }
        assert_eq!(bits.len(), 4); // 5 inserted twice
        let mut seen = Vec::new();
        while let Some(p) = bits.pop_lowest() {
            seen.push(p);
        }
        assert_eq!(seen, [0, 5, 64, 199]);
        assert!(bits.is_empty());
        // Drained set is immediately reusable.
        bits.insert(7);
        assert_eq!(bits.pop_lowest(), Some(7));
    }

    #[test]
    fn dirty_bits_descending_drain() {
        let mut bits = DirtyBits::new(300);
        for p in [130, 0, 299, 64] {
            bits.insert(p);
        }
        let mut seen = Vec::new();
        while let Some(p) = bits.pop_highest() {
            seen.push(p);
        }
        assert_eq!(seen, [299, 130, 64, 0]);
        assert!(bits.is_empty());
    }

    #[test]
    fn dirty_bits_insert_during_ascending_drain() {
        let mut bits = DirtyBits::new(128);
        bits.insert(3);
        assert_eq!(bits.pop_lowest(), Some(3));
        // Forward-sweep pattern: enqueue a later position mid-drain,
        // including one in the same word.
        bits.insert(10);
        bits.insert(100);
        assert_eq!(bits.pop_lowest(), Some(10));
        assert_eq!(bits.pop_lowest(), Some(100));
        assert_eq!(bits.pop_lowest(), None);
    }

    #[test]
    fn levelized_order_groups_levels_contiguously() {
        let mut net = ScheduleNetwork::new();
        let d = net.add_activity("d", WorkDays::new(1.0)).unwrap();
        let c = net.add_activity("c", WorkDays::new(1.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(1.0)).unwrap();
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        let e = net.add_activity("e", WorkDays::new(1.0)).unwrap();
        net.add_precedence(c, d).unwrap();
        net.add_precedence(a, c).unwrap();
        net.add_precedence(b, c).unwrap();
        let csr = CsrTopology::build(&net);
        // Levels {b, a, e}, {c}, {d}: each level follows the last, and
        // within one the ids ascend.
        let id = |x: ActivityId| x.index() as u32;
        assert_eq!(csr.order, [id(b), id(a), id(e), id(c), id(d)]);
        assert_eq!(csr.pos, [4, 3, 0, 1, 2]);
        for (p, &node) in csr.order.iter().enumerate() {
            assert_eq!(csr.pos[node as usize] as usize, p);
        }
        assert_eq!(csr.sink_pos, [2, 4]);
        assert_eq!(csr.preds_of(3), [1, 0]);
        assert_eq!(csr.succs_of(3), [4]);
        // The three sources lead: the critical walk starts among them.
        let dur = csr.gather(net.durations_raw());
        let (es, ef) = csr.forward(&dur);
        let tail = csr.backward(&dur);
        let project = csr.project(&ef);
        assert_eq!(project, 3000);
        assert_eq!(csr.walk_critical(&es, &ef, &tail, project), [b, c, d]);
    }
}
