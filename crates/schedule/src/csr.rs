//! Flat CSR (structure-of-arrays) view of a [`ScheduleNetwork`].
//!
//! The public network API keeps its object-graph ergonomics (names,
//! per-activity lookups, DOT export); this module is what the hot CPM
//! paths actually run on. [`CsrTopology`] freezes the precedence
//! topology into contiguous `u32` arrays:
//!
//! - a **levelized topological order** (`order`/`pos`): positions are
//!   grouped by level (longest-path depth) and sorted by activity id
//!   within each level, so every level is one contiguous position range
//!   (`level_off`) and within-level order equals insertion order;
//! - **position-space predecessor/successor CSR** (`pred_off`/`preds`,
//!   `succ_off`/`succs`), adjacency kept in edge-insertion order so
//!   tie-breaking (critical-path walks, free-slack folds) matches the
//!   original per-node iteration exactly;
//! - the sink positions (`sink_pos`) the project duration folds over.
//!
//! On top of that layout the forward/backward passes become flat array
//! sweeps, and each level can be computed in parallel with plain
//! `split_at_mut` borrows (predecessors of level *l* live strictly
//! before the level's first position; successors strictly after its
//! last), so no `unsafe` and no locks are needed — matching this
//! crate's `#![forbid(unsafe_code)]`.
//!
//! [`DirtyBits`] is the companion worklist for the incremental engine:
//! a position-indexed bitset drained in position order (ascending for
//! forward sweeps, descending for backward), replacing the old
//! `BinaryHeap` + generation-stamp scheme with two words of state per
//! 64 activities.

use flowgraph::NodeId;

use crate::cpm::ActivityTimes;
use crate::network::{ActivityId, ScheduleNetwork, WorkDays};

/// Minimum level width before a level is split across threads: narrow
/// levels are cheaper to sweep serially than to spawn for.
#[cfg(not(test))]
const MIN_PAR_LEVEL: usize = 8192;
/// Unit tests drop the threshold so the scoped-thread chunking path is
/// exercised on small graphs.
#[cfg(test)]
const MIN_PAR_LEVEL: usize = 8;

/// Minimum activities per worker thread for a whole analysis, mirroring
/// `montecarlo::MIN_SAMPLES_PER_THREAD`'s role: small graphs never pay
/// spawn cost.
const MIN_NODES_PER_THREAD: usize = 16 * 1024;

/// Default worker count for one full CPM analysis over `n` activities.
///
/// The hardware probe is cached: `available_parallelism` re-reads
/// cgroup quota files on Linux, which costs ~10 µs — more than an
/// entire small-graph analysis.
pub(crate) fn default_threads(n: usize) -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let hw = *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    hw.min(n / MIN_NODES_PER_THREAD).max(1)
}

/// Frozen flat topology of one structural revision of a network.
#[derive(Debug)]
pub(crate) struct CsrTopology {
    /// The [`ScheduleNetwork::structure_revision`] this was built from.
    pub(crate) structure_rev: u64,
    /// Position → activity id (dense index).
    pub(crate) order: Vec<u32>,
    /// Activity id (dense index) → position.
    pub(crate) pos: Vec<u32>,
    /// Level `l` occupies positions `level_off[l]..level_off[l + 1]`.
    pub(crate) level_off: Vec<u32>,
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
        // In-degrees drive the level-synchronous Kahn sweep.
        let mut indeg = vec![0u32; n];
        for (i, d) in indeg.iter_mut().enumerate() {
            *d = dag.predecessors(NodeId::from_index(i)).count() as u32;
        }
        let mut order = Vec::with_capacity(n);
        let mut pos = vec![0u32; n];
        let mut level_off = vec![0u32];
        let mut frontier: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut next = Vec::new();
        while !frontier.is_empty() {
            for &id in &frontier {
                pos[id as usize] = order.len() as u32;
                order.push(id);
            }
            level_off.push(order.len() as u32);
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
            structure_rev: network.structure_revision(),
            order,
            pos,
            level_off,
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
    /// earliest start and finish per position. Levels wider than the
    /// parallel threshold are chunked across `threads` scoped workers;
    /// results are identical for any thread count because every
    /// position's value is a pure fold over already-finished earlier
    /// levels, in fixed CSR order.
    pub(crate) fn forward(&self, dur: &[i64], threads: usize) -> (Vec<i64>, Vec<i64>) {
        let n = self.len();
        let mut es = vec![0i64; n];
        let mut ef = vec![0i64; n];
        if threads <= 1 {
            // Positions are topologically sorted: one flat sweep.
            for p in 0..n {
                let mut start = 0i64;
                for &q in self.preds_of(p) {
                    start = start.max(ef[q as usize]);
                }
                es[p] = start;
                ef[p] = start + dur[p];
            }
            return (es, ef);
        }
        for lvl in 0..self.level_off.len() - 1 {
            let a = self.level_off[lvl] as usize;
            let b = self.level_off[lvl + 1] as usize;
            let width = b - a;
            if width < MIN_PAR_LEVEL {
                for p in a..b {
                    let mut start = 0i64;
                    for &q in self.preds_of(p) {
                        start = start.max(ef[q as usize]);
                    }
                    es[p] = start;
                    ef[p] = start + dur[p];
                }
                continue;
            }
            // All predecessors of this level live strictly before `a`,
            // so the finished prefix and the level being written are
            // disjoint borrows.
            let (ef_done, ef_rest) = ef.split_at_mut(a);
            let ef_cur = &mut ef_rest[..width];
            let es_cur = &mut es[a..b];
            let chunk = width.div_ceil(threads);
            let ef_done: &[i64] = ef_done;
            std::thread::scope(|scope| {
                for (k, (es_chunk, ef_chunk)) in es_cur
                    .chunks_mut(chunk)
                    .zip(ef_cur.chunks_mut(chunk))
                    .enumerate()
                {
                    let base = a + k * chunk;
                    scope.spawn(move || {
                        for i in 0..es_chunk.len() {
                            let p = base + i;
                            let lo = self.pred_off[p] as usize;
                            let hi = self.pred_off[p + 1] as usize;
                            let mut start = 0i64;
                            for &q in &self.preds[lo..hi] {
                                start = start.max(ef_done[q as usize]);
                            }
                            es_chunk[i] = start;
                            ef_chunk[i] = start + dur[p];
                        }
                    });
                }
            });
        }
        (es, ef)
    }

    /// Backward pass over position-space durations: per position, the
    /// longest duration path from its start to the project end
    /// (`tail[p] = dur[p] + max tail[succ]`). Late dates fall out as
    /// `late_start = project - tail`, `late_finish = late_start + dur`.
    pub(crate) fn backward(&self, dur: &[i64], threads: usize) -> Vec<i64> {
        let n = self.len();
        let mut tail = vec![0i64; n];
        if threads <= 1 {
            for p in (0..n).rev() {
                let mut t = 0i64;
                for &q in self.succs_of(p) {
                    t = t.max(tail[q as usize]);
                }
                tail[p] = t + dur[p];
            }
            return tail;
        }
        for lvl in (0..self.level_off.len() - 1).rev() {
            let a = self.level_off[lvl] as usize;
            let b = self.level_off[lvl + 1] as usize;
            let width = b - a;
            if width < MIN_PAR_LEVEL {
                for p in (a..b).rev() {
                    let mut t = 0i64;
                    for &q in self.succs_of(p) {
                        t = t.max(tail[q as usize]);
                    }
                    tail[p] = t + dur[p];
                }
                continue;
            }
            // Successors of this level live strictly at or after `b`.
            let (head, tail_done) = tail.split_at_mut(b);
            let cur = &mut head[a..b];
            let chunk = width.div_ceil(threads);
            let tail_done: &[i64] = tail_done;
            std::thread::scope(|scope| {
                for (k, cur_chunk) in cur.chunks_mut(chunk).enumerate() {
                    let base = a + k * chunk;
                    scope.spawn(move || {
                        for (i, slot) in cur_chunk.iter_mut().enumerate() {
                            let p = base + i;
                            let lo = self.succ_off[p] as usize;
                            let hi = self.succ_off[p + 1] as usize;
                            let mut t = 0i64;
                            for &q in &self.succs[lo..hi] {
                                t = t.max(tail_done[q as usize - b]);
                            }
                            *slot = t + dur[p];
                        }
                    });
                }
            });
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
    /// critical source (level 0 is sorted by id, so "first" matches
    /// insertion order), always stepping to the first critical
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
        let sources = self.level_off.get(1).copied().unwrap_or(0) as usize;
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
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(1.0)).unwrap();
        let c = net.add_activity("c", WorkDays::new(1.0)).unwrap();
        let d = net.add_activity("d", WorkDays::new(1.0)).unwrap();
        net.add_precedence(a, c).unwrap();
        net.add_precedence(b, c).unwrap();
        net.add_precedence(c, d).unwrap();
        let csr = CsrTopology::build(&net);
        // Levels: {a, b}, {c}, {d}.
        assert_eq!(csr.level_off, [0, 2, 3, 4]);
        assert_eq!(csr.order, [0, 1, 2, 3]);
        assert_eq!(csr.sink_pos, [3]);
        assert_eq!(csr.preds_of(2), [0, 1]);
        assert_eq!(csr.succs_of(2), [3]);
    }

    #[test]
    fn forward_backward_match_any_thread_count() {
        // 25-wide layers exceed the test-mode MIN_PAR_LEVEL, so the
        // threads=4 run takes the scoped-thread chunking path and must
        // produce bit-identical output to the serial sweep.
        let mut net = ScheduleNetwork::new();
        let mut prev: Vec<ActivityId> = Vec::new();
        for layer in 0..20 {
            let mut cur = Vec::new();
            for w in 0..25 {
                let id = net
                    .add_activity(
                        format!("n{layer}_{w}"),
                        WorkDays::new(1.0 + f64::from(w % 4) * 0.5),
                    )
                    .unwrap();
                if let Some(&p) = prev.get(w as usize) {
                    net.add_precedence(p, id).unwrap();
                }
                if !prev.is_empty() {
                    let q = prev[(w as usize + 1) % prev.len()];
                    net.add_precedence(q, id).unwrap();
                }
                cur.push(id);
            }
            prev = cur;
        }
        let csr = net.csr();
        let dur = csr.gather(net.durations_raw());
        let (es1, ef1) = csr.forward(&dur, 1);
        let (es4, ef4) = csr.forward(&dur, 4);
        assert_eq!(es1, es4);
        assert_eq!(ef1, ef4);
        let t1 = csr.backward(&dur, 1);
        let t4 = csr.backward(&dur, 4);
        assert_eq!(t1, t4);
    }
}
