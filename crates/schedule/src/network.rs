use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::{Arc, OnceLock};

use flowgraph::{Dag, NodeId};

use crate::csr::CsrTopology;
use crate::error::ScheduleError;

/// A duration (or offset) measured in working days, held as a whole
/// number of milli-days.
///
/// Working days are the paper-era planning unit: calendars
/// ([`Calendar`](crate::Calendar)) map them to civil dates. Fractional
/// days are allowed (half-day tasks are common in tool runs) down to
/// one milli-day, the resolution the metadata database records dates
/// at. [`WorkDays::new`] is the one place a float becomes a duration:
/// it rounds to the nearest milli-day, so every sum, comparison and
/// critical-path date after it is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WorkDays(pub(crate) i64);

impl WorkDays {
    /// Zero duration.
    pub const ZERO: WorkDays = WorkDays(0);

    /// Creates a duration of `days`, rounded to the nearest milli-day.
    ///
    /// # Panics
    ///
    /// Panics if `days` is negative, NaN, infinite, or more than 10^12.
    /// Use [`WorkDays::try_new`] for fallible construction.
    pub fn new(days: f64) -> Self {
        WorkDays::try_new(days).expect("duration must be finite and non-negative")
    }

    /// Creates a duration of `days`, rounded to the nearest milli-day,
    /// rejecting negative or non-finite values. At most 10^12 days are
    /// accepted, so a sum of thousands of the longest still fits the
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidDuration`] for negative, NaN,
    /// infinite, or larger input.
    pub fn try_new(days: f64) -> Result<Self, ScheduleError> {
        if (0.0..=1e12).contains(&days) {
            Ok(WorkDays((days * 1000.0).round() as i64))
        } else {
            Err(ScheduleError::InvalidDuration(days))
        }
    }

    /// The value in days, for display and statistics.
    pub fn days(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, other: WorkDays) -> WorkDays {
        WorkDays((self.0 - other.0).max(0))
    }

    /// The whole number of milli-days.
    pub fn millidays(self) -> i64 {
        self.0
    }

    /// A span of `md` milli-days: any non-negative count, since sums of
    /// durations (a start, a finish, the clock) pass `try_new`'s cap.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidDuration`] for a negative count.
    pub fn try_from_millidays(md: i64) -> Result<WorkDays, ScheduleError> {
        match md >= 0 {
            true => Ok(WorkDays(md)),
            false => Err(ScheduleError::InvalidDuration(md as f64 / 1000.0)),
        }
    }
}

impl Add for WorkDays {
    type Output = WorkDays;
    fn add(self, rhs: WorkDays) -> WorkDays {
        WorkDays(self.0 + rhs.0)
    }
}

impl AddAssign for WorkDays {
    fn add_assign(&mut self, rhs: WorkDays) {
        self.0 += rhs.0;
    }
}

impl Sub for WorkDays {
    type Output = WorkDays;
    fn sub(self, rhs: WorkDays) -> WorkDays {
        WorkDays(self.0 - rhs.0)
    }
}

/// Stable identifier of an activity in a [`ScheduleNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) NodeId);

impl ActivityId {
    /// Dense index of the activity (insertion order).
    pub fn index(self) -> usize {
        self.0.index()
    }
}

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0.index())
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ActivityData {
    pub(crate) name: String,
    /// Resource demands: resource name → units required while running.
    pub(crate) demands: Vec<(String, u32)>,
}

/// A precedence network of activities — the PERT-style model the paper
/// says "predominates in project planning".
///
/// Activities carry a name, an estimated duration, and optional
/// resource demands; edges are finish-to-start precedence constraints.
/// The network is acyclic by construction.
///
/// # Example
///
/// ```
/// use schedule::{ScheduleNetwork, WorkDays};
///
/// # fn main() -> Result<(), schedule::ScheduleError> {
/// let mut net = ScheduleNetwork::new();
/// let a = net.add_activity("WriteRtl", WorkDays::new(10.0))?;
/// let b = net.add_activity("Synthesize", WorkDays::new(2.0))?;
/// net.add_precedence(a, b)?;
/// assert_eq!(net.duration(b), WorkDays::new(2.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct ScheduleNetwork {
    pub(crate) dag: Dag<ActivityData, ()>,
    /// Durations in milli-days, indexed by [`ActivityId::index`] —
    /// kept flat (outside the per-node `ActivityData`) so the CPM
    /// passes read one contiguous array instead of chasing node objects.
    pub(crate) durations: Vec<i64>,
    names: HashMap<String, ActivityId>,
    /// Lazily built flat CSR view of the precedence topology, shared by
    /// [`analyze`](ScheduleNetwork::analyze) and
    /// [`IncrementalCpm`](crate::IncrementalCpm). Structural edits
    /// clear it; duration edits keep it, and a clone shares it.
    csr: OnceLock<Arc<CsrTopology>>,
}

impl ScheduleNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of activities.
    pub fn activity_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Number of precedence constraints.
    pub fn precedence_count(&self) -> usize {
        self.dag.edge_count()
    }

    /// Returns `true` if the network has no activities.
    pub fn is_empty(&self) -> bool {
        self.dag.is_empty()
    }

    /// Adds an activity with an estimated `duration`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::DuplicateActivity`] if the name is taken.
    pub fn add_activity(
        &mut self,
        name: impl Into<String>,
        duration: WorkDays,
    ) -> Result<ActivityId, ScheduleError> {
        let name = name.into();
        if self.names.contains_key(&name) {
            return Err(ScheduleError::DuplicateActivity(name));
        }
        let id = ActivityId(self.dag.add_node(ActivityData {
            name: name.clone(),
            demands: Vec::new(),
        }));
        debug_assert_eq!(id.index(), self.durations.len());
        self.durations.push(duration.0);
        self.names.insert(name, id);
        self.csr.take();
        Ok(id)
    }

    /// Adds the finish-to-start constraint `from` must finish before
    /// `to` starts.
    ///
    /// Duplicate constraints are ignored.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownActivity`] for foreign ids;
    /// [`ScheduleError::PrecedenceCycle`] if the constraint would close
    /// a cycle.
    pub fn add_precedence(
        &mut self,
        from: ActivityId,
        to: ActivityId,
    ) -> Result<(), ScheduleError> {
        if !self.dag.contains_node(from.0) {
            return Err(ScheduleError::UnknownActivity(from));
        }
        if !self.dag.contains_node(to.0) {
            return Err(ScheduleError::UnknownActivity(to));
        }
        if self.dag.has_edge(from.0, to.0) {
            return Ok(());
        }
        self.dag
            .add_edge(from.0, to.0, ())
            .map_err(|_| ScheduleError::PrecedenceCycle { from, to })?;
        self.csr.take();
        Ok(())
    }

    /// Declares that `activity` needs `units` of the named resource for
    /// its whole duration (used by [`level_resources`](crate::level_resources)).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownActivity`] for a foreign id.
    pub fn add_demand(
        &mut self,
        activity: ActivityId,
        resource: impl Into<String>,
        units: u32,
    ) -> Result<(), ScheduleError> {
        let data = self
            .dag
            .node_weight_mut(activity.0)
            .ok_or(ScheduleError::UnknownActivity(activity))?;
        data.demands.push((resource.into(), units));
        Ok(())
    }

    /// Looks up an activity by name.
    pub fn activity(&self, name: &str) -> Option<ActivityId> {
        self.names.get(name).copied()
    }

    /// The activity's name.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an activity of this network.
    pub fn name(&self, id: ActivityId) -> &str {
        &self.dag.node_weight(id.0).expect("activity exists").name
    }

    /// The activity's estimated duration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an activity of this network.
    pub fn duration(&self, id: ActivityId) -> WorkDays {
        WorkDays(*self.durations.get(id.index()).expect("activity exists"))
    }

    /// Replaces the activity's estimated duration (re-planning).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownActivity`] for a foreign id.
    pub fn set_duration(
        &mut self,
        id: ActivityId,
        duration: WorkDays,
    ) -> Result<(), ScheduleError> {
        let slot = self
            .durations
            .get_mut(id.index())
            .ok_or(ScheduleError::UnknownActivity(id))?;
        *slot = duration.0;
        Ok(())
    }

    /// Resource demands declared on `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an activity of this network.
    pub fn demands(&self, id: ActivityId) -> &[(String, u32)] {
        &self.dag.node_weight(id.0).expect("activity exists").demands
    }

    /// All activity ids in insertion order.
    pub fn activities(&self) -> impl Iterator<Item = ActivityId> + '_ {
        self.dag.node_ids().map(ActivityId)
    }

    /// Direct predecessors of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an activity of this network.
    pub fn predecessors(&self, id: ActivityId) -> impl Iterator<Item = ActivityId> + '_ {
        self.dag.predecessors(id.0).map(ActivityId)
    }

    /// Direct successors of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an activity of this network.
    pub fn successors(&self, id: ActivityId) -> impl Iterator<Item = ActivityId> + '_ {
        self.dag.successors(id.0).map(ActivityId)
    }

    /// Activities with no successors.
    pub fn finish_activities(&self) -> Vec<ActivityId> {
        self.dag.sinks().into_iter().map(ActivityId).collect()
    }

    /// Activities in precedence order (every predecessor before its
    /// successors), deterministic.
    pub fn precedence_order(&self) -> Vec<ActivityId> {
        self.dag
            .topological_order()
            .expect("networks are DAGs by construction")
            .into_iter()
            .map(ActivityId)
            .collect()
    }

    /// The flat CSR view of the precedence topology, built on first
    /// use after each structural edit. Duration edits never clear it.
    pub(crate) fn csr(&self) -> &Arc<CsrTopology> {
        self.csr.get_or_init(|| Arc::new(CsrTopology::build(self)))
    }

    /// Raw milli-day durations, indexed by [`ActivityId::index`].
    pub(crate) fn durations_raw(&self) -> &[i64] {
        &self.durations
    }
}

impl fmt::Display for ScheduleNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule network ({} activities, {} constraints)",
            self.activity_count(),
            self.precedence_count()
        )?;
        for id in self.activities() {
            let preds: Vec<&str> = self.predecessors(id).map(|p| self.name(p)).collect();
            writeln!(
                f,
                "  {} [{}] after {{{}}}",
                self.name(id),
                self.duration(id),
                preds.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workdays_arithmetic() {
        let a = WorkDays::new(2.5);
        let b = WorkDays::new(1.0);
        assert_eq!((a + b).days(), 3.5);
        assert_eq!((a - b).days(), 1.5);
        assert_eq!(b.saturating_sub(a), WorkDays::ZERO);
        assert_eq!(a.max(b), a);
        let mut c = a;
        c += b;
        assert_eq!(c.days(), 3.5);
    }

    #[test]
    fn workdays_round_to_the_milli_day() {
        assert_eq!(WorkDays::new(3.6296).millidays(), 3630);
        assert_eq!(WorkDays::new(0.0004), WorkDays::ZERO);
        assert_eq!(WorkDays::try_from_millidays(1585), Ok(WorkDays::new(1.585)));
        // The milli-day constructor takes every non-negative count.
        assert_eq!(WorkDays::try_from_millidays(0), Ok(WorkDays::ZERO));
        assert_eq!(
            WorkDays::try_from_millidays(i64::MAX).map(WorkDays::millidays),
            Ok(i64::MAX)
        );
        for md in [-1, i64::MIN] {
            assert!(WorkDays::try_from_millidays(md).is_err(), "{md}");
        }
        // Sums of rounded values are exact: ten tenths are one day.
        let tenth = WorkDays::new(0.1);
        let mut sum = WorkDays::ZERO;
        for _ in 0..10 {
            sum += tenth;
        }
        assert_eq!(sum, WorkDays::new(1.0));
    }

    #[test]
    fn workdays_rejects_bad_values() {
        assert!(WorkDays::try_new(-0.5).is_err());
        assert!(WorkDays::try_new(f64::NAN).is_err());
        assert!(WorkDays::try_new(f64::INFINITY).is_err());
        assert!(WorkDays::try_new(1e12).is_ok());
        assert!(WorkDays::try_new(1.1e12).is_err());
        assert!(WorkDays::try_new(0.0).is_ok());
    }

    #[test]
    fn workdays_display() {
        assert_eq!(WorkDays::new(3.0).to_string(), "3d");
        assert_eq!(WorkDays::new(2.5).to_string(), "2.50d");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn workdays_new_panics_on_negative() {
        WorkDays::new(-1.0);
    }

    #[test]
    fn build_small_network() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("A", WorkDays::new(1.0)).unwrap();
        let b = net.add_activity("B", WorkDays::new(2.0)).unwrap();
        net.add_precedence(a, b).unwrap();
        assert_eq!(net.activity_count(), 2);
        assert_eq!(net.precedence_count(), 1);
        assert_eq!(net.activity("B"), Some(b));
        assert_eq!(net.name(a), "A");
        assert_eq!(net.finish_activities(), vec![b]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut net = ScheduleNetwork::new();
        net.add_activity("A", WorkDays::ZERO).unwrap();
        assert!(matches!(
            net.add_activity("A", WorkDays::ZERO),
            Err(ScheduleError::DuplicateActivity(_))
        ));
    }

    #[test]
    fn duplicate_precedence_ignored() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("A", WorkDays::ZERO).unwrap();
        let b = net.add_activity("B", WorkDays::ZERO).unwrap();
        net.add_precedence(a, b).unwrap();
        net.add_precedence(a, b).unwrap();
        assert_eq!(net.precedence_count(), 1);
    }

    #[test]
    fn cycle_rejected() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("A", WorkDays::ZERO).unwrap();
        let b = net.add_activity("B", WorkDays::ZERO).unwrap();
        net.add_precedence(a, b).unwrap();
        assert!(matches!(
            net.add_precedence(b, a),
            Err(ScheduleError::PrecedenceCycle { .. })
        ));
    }

    #[test]
    fn only_structural_edits_rebuild_the_incremental_engine() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("A", WorkDays::new(1.0)).unwrap();
        let b = net.add_activity("B", WorkDays::new(1.0)).unwrap();
        net.add_precedence(a, b).unwrap();
        let mut inc = net.analyze_incremental().unwrap();
        // Duration changes keep the topology.
        net.set_duration(a, WorkDays::new(9.0)).unwrap();
        assert!(!inc.update(&net, &[a]).unwrap().full_rebuild);
        // A duplicate constraint is ignored and keeps it too.
        net.add_precedence(a, b).unwrap();
        assert!(!inc.update(&net, &[]).unwrap().full_rebuild);
        // A new activity or a new constraint replaces it.
        let c = net.add_activity("C", WorkDays::new(1.0)).unwrap();
        assert!(inc.update(&net, &[]).unwrap().full_rebuild);
        net.add_precedence(b, c).unwrap();
        assert!(inc.update(&net, &[]).unwrap().full_rebuild);
        assert!(!inc.update(&net, &[]).unwrap().full_rebuild);
        assert_eq!(inc.project_duration(), WorkDays::new(11.0));
    }

    #[test]
    fn demands_and_set_duration() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("A", WorkDays::new(1.0)).unwrap();
        net.add_demand(a, "designer", 2).unwrap();
        assert_eq!(net.demands(a), [("designer".to_owned(), 2)]);
        net.set_duration(a, WorkDays::new(4.0)).unwrap();
        assert_eq!(net.duration(a), WorkDays::new(4.0));
    }

    #[test]
    fn display_lists_activities() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("Create", WorkDays::new(2.0)).unwrap();
        let b = net.add_activity("Simulate", WorkDays::new(3.0)).unwrap();
        net.add_precedence(a, b).unwrap();
        let s = net.to_string();
        assert!(s.contains("Simulate [3d] after {Create}"));
    }
}
