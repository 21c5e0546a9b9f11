//! Dirty-region (incremental) critical-path analysis.
//!
//! The paper's tracking loop records a slip and *replans* downstream
//! activities. A full CPM pass re-walks every activity even when one
//! leaf slips; on the 10⁴–10⁶-activity schedules the ROADMAP targets
//! that makes tracking cost proportional to the schedule, not the
//! change. [`IncrementalCpm`] caches both CPM passes and, given the set
//! of activities whose *durations* changed, recomputes only:
//!
//! * the **forward cone** — earliest dates of the dirty activities and
//!   whatever they transitively push (with early cutoff: propagation
//!   stops at the first activity whose earliest dates are unchanged,
//!   e.g. where another predecessor still dominates the merge);
//! * the **backward cone** — the cached *tail* (longest duration-path
//!   from an activity's start to the project end) of the dirty
//!   activities and their affected predecessors, again with early
//!   cutoff.
//!
//! Late dates are stored project-relative (`late_start = project −
//! tail`), so a project-finish change — the common case when a critical
//! leaf slips — costs nothing extra: every untouched activity's cached
//! state stays valid.
//!
//! The engine runs entirely on the network's flat
//! `CsrTopology` view (`crate::csr`): all cached arrays are
//! indexed by topological *position*, and the worklists are
//! `DirtyBits` bitsets drained in position
//! order (ascending for the forward sweep, descending for the
//! backward), which replaces the old binary-heap + generation-stamp
//! scheme with two cache-resident words per 64 activities. A rebuild
//! is the same flat sweep [`ScheduleNetwork::analyze`] runs.
//!
//! Structural edits (new activities or precedence constraints) change
//! the topology itself and clear the network's cached view. The engine
//! holds the view it was built on, so [`IncrementalCpm::update`] sees
//! a different one and falls back to a full rebuild. In debug builds
//! every update cross-checks itself against
//! [`ScheduleNetwork::analyze`]; release builds skip the check.
//!
//! ```
//! use schedule::{ScheduleNetwork, WorkDays};
//!
//! # fn main() -> Result<(), schedule::ScheduleError> {
//! let mut net = ScheduleNetwork::new();
//! let a = net.add_activity("rtl", WorkDays::new(4.0))?;
//! let b = net.add_activity("synth", WorkDays::new(2.0))?;
//! net.add_precedence(a, b)?;
//! let mut inc = net.analyze_incremental()?;
//! assert_eq!(inc.project_duration(), WorkDays::new(6.0));
//! // The designer reports rtl slipping by three days:
//! net.set_duration(a, WorkDays::new(7.0))?;
//! let stats = inc.update(&net, &[a])?;
//! assert!(!stats.full_rebuild);
//! assert_eq!(inc.project_duration(), WorkDays::new(9.0));
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use crate::cpm::{ActivityTimes, CpmAnalysis};
use crate::csr::{same_topology, CsrTopology, DirtyBits};
use crate::error::ScheduleError;
use crate::network::{ActivityId, ScheduleNetwork, WorkDays};

/// What one [`IncrementalCpm::update`] actually recomputed — the
/// observable evidence that work is proportional to the dirty cone, not
/// the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Activities whose earliest dates were re-derived (forward cone,
    /// after early cutoff).
    pub forward_recomputed: usize,
    /// Activities whose tail (late dates) were re-derived (backward
    /// cone, after early cutoff).
    pub backward_recomputed: usize,
    /// Forward re-derivations that found **unchanged** dates — each is
    /// a point where the early cutoff stopped propagation. The cone's
    /// true frontier: `forward_recomputed - forward_cutoff` activities
    /// actually moved.
    pub forward_cutoff: usize,
    /// Backward re-derivations that found an unchanged tail (cutoff
    /// points of the backward sweep).
    pub backward_cutoff: usize,
    /// Dirty activities the caller declared.
    pub dirty: usize,
    /// `true` when a structural change forced a full rebuild.
    pub full_rebuild: bool,
}

impl UpdateStats {
    /// Total recomputation work across both passes.
    pub fn total_recomputed(&self) -> usize {
        self.forward_recomputed + self.backward_recomputed
    }
}

/// Cached CPM state supporting dirty-region recomputation.
///
/// Create with [`ScheduleNetwork::analyze_incremental`] (one full
/// pass), then call [`update`](IncrementalCpm::update) after each batch
/// of duration changes. All cached arrays live in topological position
/// space over a shared `CsrTopology`; accessors translate ids through
/// its `pos` map. Accessors that hand back network-shaped results take
/// the network again; the engine verifies that the network still
/// caches the topology it was built on.
#[derive(Debug, Clone)]
pub struct IncrementalCpm {
    /// Shared flat topology: the network's cached view when the engine
    /// was last rebuilt, and the identity checked against it since.
    csr: Arc<CsrTopology>,
    /// Snapshot of activity durations (milli-days) the cached state
    /// was derived from, in position order.
    durations: Vec<i64>,
    early_start: Vec<i64>,
    early_finish: Vec<i64>,
    /// Longest duration-path from the activity's start through to the
    /// project end (includes the activity's own duration). Late dates
    /// derive from it: `late_start = project − tail`.
    tail: Vec<i64>,
    project: i64,
    /// Reusable bitset worklists (self-clearing on drain).
    dirty_fwd: DirtyBits,
    dirty_bwd: DirtyBits,
}

impl ScheduleNetwork {
    /// Runs one full CPM pass and returns the cached engine for
    /// subsequent dirty-region updates.
    ///
    /// # Errors
    ///
    /// Infallible for networks built through the public API; the
    /// `Result` guards the internal topological sort.
    pub fn analyze_incremental(&self) -> Result<IncrementalCpm, ScheduleError> {
        IncrementalCpm::new(self)
    }
}

impl IncrementalCpm {
    /// Full CPM pass over `network`, caching every intermediate the
    /// incremental updates reuse.
    ///
    /// # Errors
    ///
    /// Infallible for networks built through the public API.
    pub fn new(network: &ScheduleNetwork) -> Result<Self, ScheduleError> {
        let csr = Arc::clone(network.csr());
        let n = csr.len();
        let mut engine = IncrementalCpm {
            csr,
            durations: Vec::new(),
            early_start: Vec::new(),
            early_finish: Vec::new(),
            tail: Vec::new(),
            project: 0,
            dirty_fwd: DirtyBits::new(n),
            dirty_bwd: DirtyBits::new(n),
        };
        engine.rebuild(network);
        Ok(engine)
    }

    /// Number of activities covered by the cached analysis.
    pub fn len(&self) -> usize {
        self.durations.len()
    }

    /// Returns `true` if the analyzed network was empty.
    pub fn is_empty(&self) -> bool {
        self.durations.is_empty()
    }

    /// Total project duration (max earliest finish).
    pub fn project_duration(&self) -> WorkDays {
        WorkDays(self.project)
    }

    /// Whether the activity is on a critical path (zero total slack).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the analyzed network.
    pub fn is_critical(&self, id: ActivityId) -> bool {
        let p = self.position(id);
        self.project - self.tail[p] == self.early_start[p]
    }

    /// Earliest start of `id` from the cached forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the analyzed network.
    pub fn early_start(&self, id: ActivityId) -> WorkDays {
        WorkDays(self.early_start[self.position(id)])
    }

    /// Latest start of `id`, derived from the cached backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the analyzed network.
    pub fn late_start(&self, id: ActivityId) -> WorkDays {
        WorkDays(self.project - self.tail[self.position(id)])
    }

    /// Topological position of `id` (panics on foreign ids).
    fn position(&self, id: ActivityId) -> usize {
        self.csr.pos[id.index()] as usize
    }

    /// The four dates plus slack for one activity, identical to what
    /// [`ScheduleNetwork::analyze`] reports.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the analyzed network, or if
    /// `network` no longer caches the topology this engine was built on
    /// (a structural edit since, or another network).
    pub fn times(&self, network: &ScheduleNetwork, id: ActivityId) -> ActivityTimes {
        self.check_same_network(network);
        self.csr.times_at(
            self.position(id),
            &self.durations,
            &self.early_start,
            &self.early_finish,
            &self.tail,
            self.project,
        )
    }

    /// Materialises a full [`CpmAnalysis`] from the cached state —
    /// byte-for-byte what [`ScheduleNetwork::analyze`] would return,
    /// including the (deterministic) critical-path walk.
    ///
    /// # Panics
    ///
    /// Panics if `network` no longer caches the topology this engine
    /// was built on (a structural edit since, or another network).
    pub fn analysis(&self, network: &ScheduleNetwork) -> CpmAnalysis {
        self.check_same_network(network);
        let times = self.csr.assemble_times(
            &self.durations,
            &self.early_start,
            &self.early_finish,
            &self.tail,
            self.project,
        );
        let critical = self.csr.walk_critical(
            &self.early_start,
            &self.early_finish,
            &self.tail,
            self.project,
        );
        CpmAnalysis::from_parts(times, self.project_duration(), critical)
    }

    /// Recomputes the analysis after the durations of `dirty` changed
    /// on `network` (via [`ScheduleNetwork::set_duration`]).
    ///
    /// Contract: every activity whose duration changed since the last
    /// `update`/`new` must be listed in `dirty`; listing clean
    /// activities is allowed (it only costs their re-derivation). An
    /// empty `dirty` set is a no-op. Structural changes (activities or
    /// constraints added) are detected automatically and trigger a full
    /// rebuild, as does a network other than the one the engine was
    /// built on.
    ///
    /// In debug builds the result is cross-checked against a fresh
    /// [`ScheduleNetwork::analyze`]; see
    /// [`cross_check`](IncrementalCpm::cross_check).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownActivity`] if a dirty id does not belong
    /// to the network.
    pub fn update(
        &mut self,
        network: &ScheduleNetwork,
        dirty: &[ActivityId],
    ) -> Result<UpdateStats, ScheduleError> {
        let n = network.activity_count();
        if !same_topology(&self.csr, network) {
            self.rebuild(network);
            let stats = UpdateStats {
                forward_recomputed: n,
                backward_recomputed: n,
                forward_cutoff: 0,
                backward_cutoff: 0,
                dirty: dirty.len(),
                full_rebuild: true,
            };
            self.debug_cross_check(network);
            return Ok(stats);
        }
        for &id in dirty {
            if id.index() >= n {
                return Err(ScheduleError::UnknownActivity(id));
            }
        }
        #[cfg(debug_assertions)]
        self.assert_clean_durations(network, dirty);
        if dirty.is_empty() {
            return Ok(UpdateStats::default());
        }
        // Refresh the duration snapshot for the dirty region.
        for &id in dirty {
            let p = self.position(id);
            self.durations[p] = network.duration(id).0;
        }
        let (forward_recomputed, forward_cutoff, project_dirty) = self.forward_sweep(dirty);
        let (backward_recomputed, backward_cutoff) = self.backward_sweep(dirty);
        // Project finish: max earliest finish over sinks (equal to the
        // max over all activities — earliest finishes are monotone
        // along precedence edges). The fold is O(sinks), which on wide
        // graphs would dwarf a slack-absorbed slip's O(1) cone — so it
        // only runs when the forward sweep moved a sink that could
        // actually shift the max.
        if project_dirty {
            self.project = self.csr.project(&self.early_finish);
        }
        let stats = UpdateStats {
            forward_recomputed,
            backward_recomputed,
            forward_cutoff,
            backward_cutoff,
            dirty: dirty.len(),
            full_rebuild: false,
        };
        self.debug_cross_check(network);
        Ok(stats)
    }

    /// Verifies the cached state against a fresh full pass: every date,
    /// every criticality and the project duration must be equal, since
    /// both run on exact milli-days. Returns a description of the first
    /// divergence, if any. Called automatically after every
    /// [`update`](IncrementalCpm::update) in debug builds
    /// (`debug_assert`-style); tests may call it directly.
    ///
    /// # Errors
    ///
    /// A human-readable mismatch report.
    pub fn cross_check(&self, network: &ScheduleNetwork) -> Result<(), String> {
        let full = network
            .analyze()
            .map_err(|e| format!("full CPM failed: {e}"))?;
        for id in network.activities() {
            let (a, b) = (self.times(network, id), full.times(id));
            if a != b {
                return Err(format!(
                    "{id}: dates diverged: incremental {a:?} vs full {b:?}"
                ));
            }
            if self.is_critical(id) != full.is_critical(id) {
                return Err(format!(
                    "{id}: criticality diverged: incremental {} vs full {}",
                    self.is_critical(id),
                    full.is_critical(id)
                ));
            }
        }
        if self.project_duration() != full.project_duration() {
            return Err(format!(
                "project duration diverged: incremental {} vs full {}",
                self.project_duration(),
                full.project_duration()
            ));
        }
        Ok(())
    }

    fn debug_cross_check(&self, network: &ScheduleNetwork) {
        if cfg!(debug_assertions) {
            if let Err(msg) = self.cross_check(network) {
                panic!("incremental CPM diverged from full CPM: {msg}");
            }
        }
    }

    #[cfg(debug_assertions)]
    fn assert_clean_durations(&self, network: &ScheduleNetwork, dirty: &[ActivityId]) {
        for id in network.activities() {
            if dirty.contains(&id) {
                continue;
            }
            debug_assert!(
                network.duration(id).0 == self.durations[self.position(id)],
                "activity {id} changed duration but was not declared dirty"
            );
        }
    }

    fn check_same_network(&self, network: &ScheduleNetwork) {
        assert!(
            same_topology(&self.csr, network),
            "IncrementalCpm used with a structurally different network; call update() first"
        );
    }

    /// Full recompute of every cached quantity on a fresh CSR view.
    fn rebuild(&mut self, network: &ScheduleNetwork) {
        self.csr = Arc::clone(network.csr());
        let n = self.csr.len();
        self.durations = self.csr.gather(network.durations_raw());
        let (es, ef) = self.csr.forward(&self.durations);
        self.early_start = es;
        self.early_finish = ef;
        self.tail = self.csr.backward(&self.durations);
        self.project = self.csr.project(&self.early_finish);
        self.dirty_fwd.reset(n);
        self.dirty_bwd.reset(n);
    }

    /// Re-derives earliest dates over the forward cone of `dirty`,
    /// stopping propagation wherever the recomputed dates are
    /// unchanged. Returns `(re-derived, cutoff, project_dirty)` —
    /// activities visited, how many of those were found unchanged
    /// (where the cutoff fired), and whether the project finish must be
    /// refolded: that takes a *sink* whose earliest finish either held
    /// the current max (it may drop) or now exceeds it. A sink moving
    /// strictly below the max cannot shift it.
    fn forward_sweep(&mut self, dirty: &[ActivityId]) -> (usize, usize, bool) {
        // Ascending-position drain: every predecessor that can still
        // change is processed before its successors (enqueued positions
        // are always ahead of the cursor), so each activity is
        // re-derived at most once, from final inputs.
        for &id in dirty {
            self.dirty_fwd.insert(self.position(id));
        }
        let mut recomputed = 0usize;
        let mut cutoff = 0usize;
        let mut project_dirty = false;
        while let Some(p) = self.dirty_fwd.pop_lowest() {
            let mut es = 0i64;
            for &q in self.csr.preds_of(p) {
                es = es.max(self.early_finish[q as usize]);
            }
            let ef = es + self.durations[p];
            recomputed += 1;
            // Early cutoff: equal earliest dates mean nothing
            // downstream can observe a change.
            if es == self.early_start[p] && ef == self.early_finish[p] {
                cutoff += 1;
                continue;
            }
            let succs = self.csr.succs_of(p);
            if succs.is_empty() && (self.early_finish[p] == self.project || ef > self.project) {
                // The cached project is the max of the cached sink
                // finishes, so equality identifies the sink(s)
                // currently holding it.
                project_dirty = true;
            }
            self.early_start[p] = es;
            self.early_finish[p] = ef;
            for &q in succs {
                self.dirty_fwd.insert(q as usize);
            }
        }
        (recomputed, cutoff, project_dirty)
    }

    /// Re-derives tails (late dates) over the backward cone of `dirty`,
    /// with the same early cutoff. Returns `(re-derived, cutoff)`.
    fn backward_sweep(&mut self, dirty: &[ActivityId]) -> (usize, usize) {
        // Descending-position drain: successors first.
        for &id in dirty {
            self.dirty_bwd.insert(self.position(id));
        }
        let mut recomputed = 0usize;
        let mut cutoff = 0usize;
        while let Some(p) = self.dirty_bwd.pop_highest() {
            let mut t = 0i64;
            for &q in self.csr.succs_of(p) {
                t = t.max(self.tail[q as usize]);
            }
            let tail = self.durations[p] + t;
            recomputed += 1;
            if tail == self.tail[p] {
                cutoff += 1;
                continue;
            }
            self.tail[p] = tail;
            for &q in self.csr.preds_of(p) {
                self.dirty_bwd.insert(q as usize);
            }
        }
        (recomputed, cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic diamond from `cpm.rs`: A(2) → {B(4), C(1)} → D(3).
    fn diamond() -> (ScheduleNetwork, [ActivityId; 4]) {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("A", WorkDays::new(2.0)).unwrap();
        let b = net.add_activity("B", WorkDays::new(4.0)).unwrap();
        let c = net.add_activity("C", WorkDays::new(1.0)).unwrap();
        let d = net.add_activity("D", WorkDays::new(3.0)).unwrap();
        net.add_precedence(a, b).unwrap();
        net.add_precedence(a, c).unwrap();
        net.add_precedence(b, d).unwrap();
        net.add_precedence(c, d).unwrap();
        (net, [a, b, c, d])
    }

    fn assert_matches_full(net: &ScheduleNetwork, inc: &IncrementalCpm) {
        assert_eq!(inc.analysis(net), net.analyze().unwrap());
    }

    #[test]
    fn initial_analysis_matches_full() {
        let (net, _) = diamond();
        let inc = net.analyze_incremental().unwrap();
        assert_matches_full(&net, &inc);
        assert_eq!(inc.project_duration(), WorkDays::new(9.0));
        assert_eq!(inc.len(), 4);
        assert!(!inc.is_empty());
    }

    #[test]
    fn empty_network_analysis() {
        let net = ScheduleNetwork::new();
        let inc = net.analyze_incremental().unwrap();
        assert!(inc.is_empty());
        assert_eq!(inc.project_duration(), WorkDays::ZERO);
        assert_matches_full(&net, &inc);
    }

    #[test]
    fn slip_on_critical_chain_updates_project() {
        let (mut net, [_a, b, _c, _d]) = diamond();
        let mut inc = net.analyze_incremental().unwrap();
        net.set_duration(b, WorkDays::new(6.0)).unwrap();
        let stats = inc.update(&net, &[b]).unwrap();
        assert!(!stats.full_rebuild);
        assert_eq!(inc.project_duration(), WorkDays::new(11.0));
        assert_matches_full(&net, &inc);
        assert_eq!(stats.dirty, 1);
    }

    #[test]
    fn slip_inside_slack_stops_early() {
        let (mut net, [_a, _b, c, _d]) = diamond();
        let mut inc = net.analyze_incremental().unwrap();
        // C has 3 days of slack; a 1-day slip changes C's EF but not
        // D's ES (B still dominates the merge) and not the project.
        net.set_duration(c, WorkDays::new(2.0)).unwrap();
        let stats = inc.update(&net, &[c]).unwrap();
        assert_eq!(inc.project_duration(), WorkDays::new(9.0));
        assert_matches_full(&net, &inc);
        // Forward: C re-derived, D re-derived but found unchanged, so
        // the cutoff fired before anything downstream of D.
        assert!(stats.forward_recomputed <= 2, "{stats:?}");
        // Backward: C's tail grows 4→5, still below B's 7, so A's tail
        // is re-derived but unchanged.
        assert!(stats.backward_recomputed <= 2, "{stats:?}");
        // Both sweeps hit their cutoff exactly once (D forward, A
        // backward) — the counters expose where propagation stopped.
        assert_eq!(stats.forward_cutoff, 1, "{stats:?}");
        assert_eq!(stats.backward_cutoff, 1, "{stats:?}");
        assert!(stats.forward_cutoff <= stats.forward_recomputed);
        assert!(stats.backward_cutoff <= stats.backward_recomputed);
    }

    #[test]
    fn empty_dirty_set_is_noop() {
        let (net, _) = diamond();
        let mut inc = net.analyze_incremental().unwrap();
        let stats = inc.update(&net, &[]).unwrap();
        assert_eq!(stats, UpdateStats::default());
        assert_matches_full(&net, &inc);
    }

    #[test]
    fn whole_graph_dirty_matches_full() {
        let (mut net, ids) = diamond();
        let mut inc = net.analyze_incremental().unwrap();
        for (k, &id) in ids.iter().enumerate() {
            net.set_duration(id, WorkDays::new((k + 1) as f64)).unwrap();
        }
        let stats = inc.update(&net, &ids).unwrap();
        assert!(!stats.full_rebuild);
        assert_matches_full(&net, &inc);
    }

    #[test]
    fn structural_change_forces_rebuild() {
        let (mut net, [_a, _b, _c, d]) = diamond();
        let mut inc = net.analyze_incremental().unwrap();
        let e = net.add_activity("E", WorkDays::new(5.0)).unwrap();
        net.add_precedence(d, e).unwrap();
        let stats = inc.update(&net, &[]).unwrap();
        assert!(stats.full_rebuild);
        assert_eq!(inc.project_duration(), WorkDays::new(14.0));
        assert_matches_full(&net, &inc);
    }

    #[test]
    fn repeated_updates_stay_consistent() {
        let (mut net, [a, b, c, d]) = diamond();
        let mut inc = net.analyze_incremental().unwrap();
        for (step, &id) in [a, c, b, d, c, a].iter().enumerate() {
            net.set_duration(id, WorkDays::new(0.5 * (step + 1) as f64))
                .unwrap();
            inc.update(&net, &[id]).unwrap();
            assert_matches_full(&net, &inc);
        }
    }

    #[test]
    fn shrinking_a_duration_propagates_too() {
        let (mut net, [_a, b, _c, _d]) = diamond();
        let mut inc = net.analyze_incremental().unwrap();
        net.set_duration(b, WorkDays::new(0.5)).unwrap();
        inc.update(&net, &[b]).unwrap();
        // Now the A→C→D chain (2+1+3=6) dominates A→B→D (2+0.5+3).
        assert_eq!(inc.project_duration(), WorkDays::new(6.0));
        assert_matches_full(&net, &inc);
    }

    #[test]
    fn unknown_dirty_id_rejected() {
        let (net, _) = diamond();
        let mut other = ScheduleNetwork::new();
        for i in 0..9 {
            other
                .add_activity(format!("x{i}"), WorkDays::new(1.0))
                .unwrap();
        }
        let foreign = other.activity("x8").unwrap();
        let mut inc = net.analyze_incremental().unwrap();
        // The engine's own network, so the id check (not the rebuild
        // path) is exercised.
        assert!(matches!(
            inc.update(&net, &[foreign]),
            Err(ScheduleError::UnknownActivity(_))
        ));
    }

    #[test]
    fn accessors_match_full_pass() {
        let (net, [_a, b, c, _d]) = diamond();
        let inc = net.analyze_incremental().unwrap();
        let full = net.analyze().unwrap();
        assert_eq!(inc.times(&net, c), full.times(c));
        assert_eq!(inc.early_start(b), full.times(b).early_start);
        assert_eq!(inc.late_start(c), full.times(c).late_start);
        assert_eq!(inc.is_critical(b), full.is_critical(b));
        assert!(inc.cross_check(&net).is_ok());
    }

    #[test]
    #[should_panic(expected = "structurally different network")]
    fn foreign_network_rejected_by_accessors() {
        let (net, _) = diamond();
        let inc = net.analyze_incremental().unwrap();
        let mut other = ScheduleNetwork::new();
        other.add_activity("solo", WorkDays::new(1.0)).unwrap();
        let _ = inc.analysis(&other);
    }

    /// A network built the same way is still another network: equal
    /// activity and constraint counts do not make its topology the one
    /// the engine holds.
    #[test]
    #[should_panic(expected = "structurally different network")]
    fn twin_network_rejected_by_accessors() {
        let (net, _) = diamond();
        let inc = net.analyze_incremental().unwrap();
        let (twin, [_, b, ..]) = diamond();
        let _ = inc.times(&twin, b);
    }
}
