use crate::error::ScheduleError;
use crate::network::{ActivityId, ScheduleNetwork, WorkDays};

/// The four CPM dates plus slack for one activity, in working days from
/// project start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityTimes {
    /// Earliest start.
    pub early_start: WorkDays,
    /// Earliest finish (`early_start + duration`).
    pub early_finish: WorkDays,
    /// Latest start that does not delay the project.
    pub late_start: WorkDays,
    /// Latest finish that does not delay the project.
    pub late_finish: WorkDays,
    /// Total slack (`late_start - early_start`); zero on the critical
    /// path.
    pub total_slack: WorkDays,
    /// Free slack: how far the activity can slip without delaying any
    /// *immediate* successor's earliest start.
    pub free_slack: WorkDays,
}

/// Result of critical-path analysis over a [`ScheduleNetwork`].
///
/// Produced by [`ScheduleNetwork::analyze`]. This is what a combined
/// flow/schedule manager consults to propose milestones: "the data
/// created by the simulation of an execution should establish an
/// approximate time frame for the execution of an activity" (§III).
#[derive(Debug, Clone, PartialEq)]
pub struct CpmAnalysis {
    times: Vec<ActivityTimes>,
    duration: WorkDays,
    critical: Vec<ActivityId>,
}

impl CpmAnalysis {
    /// Assembles an analysis from precomputed parts. Shared by the full
    /// pass ([`ScheduleNetwork::analyze`]) and the dirty-region engine
    /// ([`crate::IncrementalCpm::analysis`]).
    pub(crate) fn from_parts(
        times: Vec<ActivityTimes>,
        duration: WorkDays,
        critical: Vec<ActivityId>,
    ) -> Self {
        CpmAnalysis {
            times,
            duration,
            critical,
        }
    }

    /// Per-activity dates.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the analyzed network.
    pub fn times(&self, id: ActivityId) -> ActivityTimes {
        self.times[id.index()]
    }

    /// Total project duration (max earliest finish).
    pub fn project_duration(&self) -> WorkDays {
        self.duration
    }

    /// Whether the activity is on a critical path (zero total slack).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the analyzed network.
    pub fn is_critical(&self, id: ActivityId) -> bool {
        self.times[id.index()].total_slack == WorkDays::ZERO
    }

    /// One critical path from a start activity to a finish activity, in
    /// precedence order.
    pub fn critical_path(&self) -> &[ActivityId] {
        &self.critical
    }

    /// The flat total-slack array, indexed by activity index — the
    /// contiguous view dispatch policies (e.g. min-slack ready-queue
    /// ordering) consume without per-id lookups.
    pub fn total_slacks(&self) -> Vec<WorkDays> {
        self.times.iter().map(|t| t.total_slack).collect()
    }

    /// Number of activities analyzed.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the analyzed network was empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

impl ScheduleNetwork {
    /// Runs critical-path analysis: a forward pass computing earliest
    /// dates, a backward pass computing latest dates, then slack and a
    /// critical path.
    ///
    /// Runs in `O(activities + constraints)`.
    ///
    /// # Errors
    ///
    /// Currently infallible for networks built through the public API
    /// (they are acyclic by construction); the `Result` guards the
    /// internal topological sort.
    ///
    /// # Example
    ///
    /// ```
    /// use schedule::{ScheduleNetwork, WorkDays};
    ///
    /// # fn main() -> Result<(), schedule::ScheduleError> {
    /// let mut net = ScheduleNetwork::new();
    /// let a = net.add_activity("a", WorkDays::new(4.0))?;
    /// let b = net.add_activity("b", WorkDays::new(2.0))?;
    /// let c = net.add_activity("c", WorkDays::new(1.0))?;
    /// net.add_precedence(a, c)?;
    /// net.add_precedence(b, c)?;
    /// let cpm = net.analyze()?;
    /// assert_eq!(cpm.project_duration(), WorkDays::new(5.0));
    /// // b can slip 2 days before it delays c.
    /// assert_eq!(cpm.times(b).total_slack, WorkDays::new(2.0));
    /// # Ok(())
    /// # }
    /// ```
    pub fn analyze(&self) -> Result<CpmAnalysis, ScheduleError> {
        self.analyze_with_threads(crate::csr::default_threads(self.activity_count()))
    }

    /// [`analyze`](ScheduleNetwork::analyze) with an explicit worker
    /// count for the level-synchronous passes. `threads <= 1` forces
    /// the serial sweep. Results are bit-identical for every thread
    /// count: each activity's dates are a pure fold over its
    /// already-finished neighbors in fixed edge-insertion order, so
    /// threading only changes who computes them, never the outcome.
    ///
    /// # Errors
    ///
    /// Infallible for networks built through the public API, like
    /// [`analyze`](ScheduleNetwork::analyze).
    pub fn analyze_with_threads(&self, threads: usize) -> Result<CpmAnalysis, ScheduleError> {
        let csr = self.csr();
        let dur = csr.gather(self.durations_raw());
        let (es, ef) = csr.forward(&dur, threads);
        let tail = csr.backward(&dur, threads);
        let project = csr.project(&ef);
        let times = csr.assemble_times(&dur, &es, &ef, &tail, project);
        let critical = csr.walk_critical(&es, &ef, &tail, project);
        Ok(CpmAnalysis {
            times,
            duration: WorkDays(project),
            critical,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic textbook network:
    ///
    /// ```text
    ///        ┌─ B(4) ─┐
    /// A(2) ──┤        ├── D(3)
    ///        └─ C(1) ─┘
    /// ```
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

    #[test]
    fn forward_pass_earliest_dates() {
        let (net, [a, b, c, d]) = diamond();
        let cpm = net.analyze().unwrap();
        assert_eq!(cpm.times(a).early_start, WorkDays::ZERO);
        assert_eq!(cpm.times(b).early_start, WorkDays::new(2.0));
        assert_eq!(cpm.times(c).early_start, WorkDays::new(2.0));
        assert_eq!(cpm.times(d).early_start, WorkDays::new(6.0));
        assert_eq!(cpm.project_duration(), WorkDays::new(9.0));
    }

    #[test]
    fn backward_pass_latest_dates() {
        let (net, [a, b, c, d]) = diamond();
        let cpm = net.analyze().unwrap();
        assert_eq!(cpm.times(d).late_finish, WorkDays::new(9.0));
        assert_eq!(cpm.times(b).late_finish, WorkDays::new(6.0));
        assert_eq!(cpm.times(c).late_finish, WorkDays::new(6.0));
        assert_eq!(cpm.times(c).late_start, WorkDays::new(5.0));
        assert_eq!(cpm.times(a).late_start, WorkDays::ZERO);
    }

    #[test]
    fn slack_and_criticality() {
        let (net, [a, b, c, d]) = diamond();
        let cpm = net.analyze().unwrap();
        assert!(cpm.is_critical(a));
        assert!(cpm.is_critical(b));
        assert!(!cpm.is_critical(c));
        assert!(cpm.is_critical(d));
        assert_eq!(cpm.times(c).total_slack, WorkDays::new(3.0));
        assert_eq!(cpm.times(c).free_slack, WorkDays::new(3.0));
        assert_eq!(cpm.times(b).total_slack, WorkDays::ZERO);
    }

    #[test]
    fn critical_path_is_a_b_d() {
        let (net, [a, b, _c, d]) = diamond();
        let cpm = net.analyze().unwrap();
        assert_eq!(cpm.critical_path(), [a, b, d]);
    }

    #[test]
    fn empty_network() {
        let net = ScheduleNetwork::new();
        let cpm = net.analyze().unwrap();
        assert!(cpm.is_empty());
        assert_eq!(cpm.project_duration(), WorkDays::ZERO);
        assert!(cpm.critical_path().is_empty());
    }

    #[test]
    fn single_activity() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("only", WorkDays::new(7.0)).unwrap();
        let cpm = net.analyze().unwrap();
        assert_eq!(cpm.project_duration(), WorkDays::new(7.0));
        assert_eq!(cpm.critical_path(), [a]);
        assert_eq!(cpm.len(), 1);
    }

    #[test]
    fn parallel_chains_independent() {
        let mut net = ScheduleNetwork::new();
        let a1 = net.add_activity("a1", WorkDays::new(5.0)).unwrap();
        let a2 = net.add_activity("a2", WorkDays::new(5.0)).unwrap();
        let b1 = net.add_activity("b1", WorkDays::new(1.0)).unwrap();
        let b2 = net.add_activity("b2", WorkDays::new(1.0)).unwrap();
        net.add_precedence(a1, a2).unwrap();
        net.add_precedence(b1, b2).unwrap();
        let cpm = net.analyze().unwrap();
        assert_eq!(cpm.project_duration(), WorkDays::new(10.0));
        assert!(cpm.is_critical(a1) && cpm.is_critical(a2));
        assert!(!cpm.is_critical(b1));
        // The short chain's slack equals the duration difference.
        assert_eq!(cpm.times(b2).total_slack, WorkDays::new(8.0));
    }

    #[test]
    fn zero_duration_milestones() {
        let mut net = ScheduleNetwork::new();
        let m0 = net.add_activity("kickoff", WorkDays::ZERO).unwrap();
        let w = net.add_activity("work", WorkDays::new(3.0)).unwrap();
        let m1 = net.add_activity("done", WorkDays::ZERO).unwrap();
        net.add_precedence(m0, w).unwrap();
        net.add_precedence(w, m1).unwrap();
        let cpm = net.analyze().unwrap();
        assert_eq!(cpm.project_duration(), WorkDays::new(3.0));
        assert_eq!(cpm.critical_path(), [m0, w, m1]);
    }

    #[test]
    fn free_slack_less_than_total() {
        // c -> e, b -> e; b short with long parallel a -> e chain:
        //   a(10) -> e ; b(1) -> c(1) -> e(1)
        // c's free slack is limited by e's early start, total slack too;
        // b's free slack is 0 (c starts right after b at its earliest)
        // while b's total slack is 8.
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(10.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(1.0)).unwrap();
        let c = net.add_activity("c", WorkDays::new(1.0)).unwrap();
        let e = net.add_activity("e", WorkDays::new(1.0)).unwrap();
        net.add_precedence(a, e).unwrap();
        net.add_precedence(b, c).unwrap();
        net.add_precedence(c, e).unwrap();
        let cpm = net.analyze().unwrap();
        assert_eq!(cpm.times(b).free_slack, WorkDays::ZERO);
        assert_eq!(cpm.times(b).total_slack, WorkDays::new(8.0));
        assert_eq!(cpm.times(c).free_slack, WorkDays::new(8.0));
    }
}
