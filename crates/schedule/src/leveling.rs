//! Capacity-constrained scheduling (resource levelling).
//!
//! CPM assumes unlimited resources; real design teams have three
//! designers and two simulator licenses. [`level_resources`] produces a
//! feasible schedule with a *serial schedule generation scheme*:
//! activities are taken in a priority order (minimum total slack first,
//! the classic heuristic) and each is started at the earliest time where
//! its predecessors have finished *and* every demanded resource has
//! spare capacity for its whole duration.

use std::collections::HashMap;

use crate::cpm::CpmAnalysis;
use crate::error::ScheduleError;
use crate::network::{ActivityId, ScheduleNetwork, WorkDays};
use crate::resource::ResourcePool;

/// A resource-feasible schedule: start/finish per activity.
#[derive(Debug, Clone, PartialEq)]
pub struct LeveledSchedule {
    starts: Vec<WorkDays>,
    finishes: Vec<WorkDays>,
    makespan: WorkDays,
}

impl LeveledSchedule {
    /// Scheduled start of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from the levelled network.
    pub fn start(&self, id: ActivityId) -> WorkDays {
        self.starts[id.index()]
    }

    /// Scheduled finish of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from the levelled network.
    pub fn finish(&self, id: ActivityId) -> WorkDays {
        self.finishes[id.index()]
    }

    /// Total schedule length.
    pub fn makespan(&self) -> WorkDays {
        self.makespan
    }
}

/// Event-list simulation of resource usage over time for one resource.
///
/// Usage is a step function: its level at `t` is the sum of the deltas
/// of *every* event at or before `t`. Simultaneous events take effect
/// together, so a level passed through between two events at the same
/// time is never a usage level.
#[derive(Debug, Default)]
struct UsageProfile {
    /// (time, delta) events, sorted by time; events at equal times keep
    /// the order they were reserved in.
    events: Vec<(f64, i64)>,
    /// `levels[k]`: the usage right after `events[k]`, i.e. the sum of
    /// the deltas of `events[..=k]`.
    levels: Vec<i64>,
}

impl UsageProfile {
    /// Peak usage over the half-open interval `[start, finish)`: the
    /// level at `start`, or at any event time inside the interval,
    /// sampled once per time after all of its events. Two binary
    /// searches find the events inside; only those are read.
    fn peak_in(&self, start: f64, finish: f64) -> i64 {
        if finish <= start {
            return 0;
        }
        let inside = self.events.partition_point(|&(t, _)| t <= start);
        let end = inside + self.events[inside..].partition_point(|&(t, _)| t < finish);
        // The last event at each time inside carries that time's level;
        // the event after the interval is at `finish` or later.
        (inside..end)
            .filter(|&k| k + 1 == end || self.events[k + 1].0 != self.events[k].0)
            .fold(self.level_before(inside), |peak, k| {
                peak.max(self.levels[k])
            })
    }

    /// The usage before `events[k]` (after all events when `k` is the
    /// length).
    fn level_before(&self, k: usize) -> i64 {
        k.checked_sub(1).map_or(0, |j| self.levels[j])
    }

    /// The earliest release (negative delta) strictly after `t`.
    fn next_release_after(&self, t: f64) -> Option<f64> {
        let after = self.events.partition_point(|&(et, _)| et <= t);
        self.events[after..]
            .iter()
            .find(|&&(_, delta)| delta < 0)
            .map(|&(et, _)| et)
    }

    fn reserve(&mut self, start: f64, finish: f64, units: i64) {
        self.insert(start, units);
        self.insert(finish, -units);
    }

    /// Inserts after every event at an equal time: the order a stable
    /// sort of the events in reservation order gives. Every later
    /// level moves by `delta`.
    fn insert(&mut self, t: f64, delta: i64) {
        let at = self
            .events
            .partition_point(|&(et, _)| et.total_cmp(&t).is_le());
        self.events.insert(at, (t, delta));
        self.levels.insert(at, self.level_before(at) + delta);
        for level in &mut self.levels[at + 1..] {
            *level += delta;
        }
    }
}

/// Produces a resource-feasible schedule for `network` against `pool`.
///
/// Priority: smaller CPM total slack first (critical activities get
/// resources first), ties broken by earliest CPM start then insertion
/// order, making the result deterministic. Start times only move *later*
/// than CPM's earliest starts, never earlier.
///
/// Activities demanding a resource the pool does not contain, or more
/// units than its total capacity, are rejected.
///
/// # Errors
///
/// * [`ScheduleError::UnknownResource`] — a demand names an absent
///   resource.
/// * [`ScheduleError::InfeasibleDemand`] — a single activity demands
///   more than a resource's capacity.
///
/// # Example
///
/// ```
/// use schedule::{level_resources, Resource, ResourcePool, ScheduleNetwork, WorkDays};
///
/// # fn main() -> Result<(), schedule::ScheduleError> {
/// let mut net = ScheduleNetwork::new();
/// let a = net.add_activity("block_a", WorkDays::new(2.0))?;
/// let b = net.add_activity("block_b", WorkDays::new(2.0))?;
/// net.add_demand(a, "designer", 1)?;
/// net.add_demand(b, "designer", 1)?;
/// let pool: ResourcePool = [Resource::new("designer", 1)].into_iter().collect();
/// let leveled = level_resources(&net, &pool)?;
/// // One designer: the two independent blocks serialize.
/// assert_eq!(leveled.makespan(), WorkDays::new(4.0));
/// # Ok(())
/// # }
/// ```
pub fn level_resources(
    network: &ScheduleNetwork,
    pool: &ResourcePool,
) -> Result<LeveledSchedule, ScheduleError> {
    let cpm: CpmAnalysis = network.analyze()?;
    // Validate demands up front.
    for id in network.activities() {
        for (name, units) in network.demands(id) {
            if !pool.check_demand(name, *units)? {
                return Err(ScheduleError::InfeasibleDemand {
                    activity: id,
                    resource: name.clone(),
                });
            }
        }
    }
    // Priority order: min-slack first, then early start, then id.
    let mut order: Vec<ActivityId> = network.activities().collect();
    order.sort_by(|&x, &y| {
        let tx = cpm.times(x);
        let ty = cpm.times(y);
        tx.total_slack
            .days()
            .total_cmp(&ty.total_slack.days())
            .then(tx.early_start.days().total_cmp(&ty.early_start.days()))
            .then(x.cmp(&y))
    });
    // But we must respect precedence: process in a precedence-feasible
    // sweep, selecting the highest-priority ready activity each step.
    let mut priority = vec![0usize; network.activity_count()];
    for (rank, &id) in order.iter().enumerate() {
        priority[id.index()] = rank;
    }
    let mut remaining_preds: Vec<usize> = network
        .activities()
        .map(|id| network.predecessors(id).count())
        .collect();
    let mut ready: Vec<ActivityId> = network
        .activities()
        .filter(|id| remaining_preds[id.index()] == 0)
        .collect();

    let n = network.activity_count();
    let mut starts = vec![WorkDays::ZERO; n];
    let mut finishes = vec![WorkDays::ZERO; n];
    let mut profiles: HashMap<&str, UsageProfile> = HashMap::new();
    let mut scheduled = vec![false; n];
    let mut makespan = 0.0f64;

    while let Some(pos) = ready
        .iter()
        .enumerate()
        .min_by_key(|(_, id)| priority[id.index()])
        .map(|(i, _)| i)
    {
        let id = ready.swap_remove(pos);
        let duration = network.duration(id).days();
        // Earliest precedence-feasible start.
        let mut t = network
            .predecessors(id)
            .map(|p| finishes[p.index()].days())
            .fold(0.0f64, f64::max);
        // Candidate start times: only at t or at a release event after t.
        if duration > 0.0 {
            loop {
                let fits = network.demands(id).iter().all(|(name, units)| {
                    let cap = pool.capacity_of(name).expect("validated above");
                    let peak = profiles
                        .get(name.as_str())
                        .map_or(0, |p| p.peak_in(t, t + duration));
                    peak + i64::from(*units) <= i64::from(cap)
                });
                if fits {
                    break;
                }
                // Advance to the next release event after t.
                let next = network
                    .demands(id)
                    .iter()
                    .filter_map(|(name, _)| profiles.get(name.as_str()))
                    .filter_map(|p| p.next_release_after(t))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    next.is_finite(),
                    "demand validated against capacity, so a feasible slot must exist"
                );
                t = next;
            }
        }
        if duration > 0.0 {
            for (name, units) in network.demands(id) {
                profiles.entry(name.as_str()).or_default().reserve(
                    t,
                    t + duration,
                    i64::from(*units),
                );
            }
        }
        starts[id.index()] = WorkDays::new(t);
        finishes[id.index()] = WorkDays::new(t + duration);
        makespan = makespan.max(t + duration);
        scheduled[id.index()] = true;
        for s in network.successors(id) {
            remaining_preds[s.index()] -= 1;
            if remaining_preds[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    debug_assert!(scheduled.iter().all(|&s| s), "all activities scheduled");
    Ok(LeveledSchedule {
        starts,
        finishes,
        makespan: WorkDays::new(makespan),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Resource;

    fn one_designer() -> ResourcePool {
        [Resource::new("designer", 1)].into_iter().collect()
    }

    #[test]
    fn unconstrained_matches_cpm() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(2.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(3.0)).unwrap();
        net.add_precedence(a, b).unwrap();
        let pool = ResourcePool::new();
        let lev = level_resources(&net, &pool).unwrap();
        assert_eq!(lev.makespan(), WorkDays::new(5.0));
        assert_eq!(lev.start(b), WorkDays::new(2.0));
    }

    #[test]
    fn single_resource_serializes_parallel_work() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(2.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(3.0)).unwrap();
        net.add_demand(a, "designer", 1).unwrap();
        net.add_demand(b, "designer", 1).unwrap();
        let lev = level_resources(&net, &one_designer()).unwrap();
        assert_eq!(lev.makespan(), WorkDays::new(5.0));
        // They must not overlap.
        let (s1, f1) = (lev.start(a).days(), lev.finish(a).days());
        let (s2, f2) = (lev.start(b).days(), lev.finish(b).days());
        assert!(f1 <= s2 || f2 <= s1);
    }

    #[test]
    fn two_designers_allow_overlap() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(2.0)).unwrap();
        let b = net.add_activity("b", WorkDays::new(3.0)).unwrap();
        net.add_demand(a, "designer", 1).unwrap();
        net.add_demand(b, "designer", 1).unwrap();
        let pool: ResourcePool = [Resource::new("designer", 2)].into_iter().collect();
        let lev = level_resources(&net, &pool).unwrap();
        assert_eq!(lev.makespan(), WorkDays::new(3.0));
    }

    #[test]
    fn critical_work_wins_the_resource() {
        // Long chain (critical) and short independent task compete for
        // one designer; the critical chain's head should go first.
        let mut net = ScheduleNetwork::new();
        let head = net.add_activity("head", WorkDays::new(3.0)).unwrap();
        let tail = net.add_activity("tail", WorkDays::new(5.0)).unwrap();
        let side = net.add_activity("side", WorkDays::new(1.0)).unwrap();
        net.add_precedence(head, tail).unwrap();
        net.add_demand(head, "designer", 1).unwrap();
        net.add_demand(side, "designer", 1).unwrap();
        let lev = level_resources(&net, &one_designer()).unwrap();
        assert_eq!(lev.start(head), WorkDays::ZERO);
        assert_eq!(lev.start(side), WorkDays::new(3.0));
        assert_eq!(lev.makespan(), WorkDays::new(8.0));
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        net.add_demand(a, "ghost", 1).unwrap();
        assert!(matches!(
            level_resources(&net, &ResourcePool::new()),
            Err(ScheduleError::UnknownResource(_))
        ));
    }

    #[test]
    fn infeasible_demand_rejected() {
        let mut net = ScheduleNetwork::new();
        let a = net.add_activity("a", WorkDays::new(1.0)).unwrap();
        net.add_demand(a, "designer", 5).unwrap();
        assert!(matches!(
            level_resources(&net, &one_designer()),
            Err(ScheduleError::InfeasibleDemand { .. })
        ));
    }

    #[test]
    fn leveled_never_earlier_than_cpm() {
        let mut net = ScheduleNetwork::new();
        let ids: Vec<_> = (0..6)
            .map(|i| {
                net.add_activity(format!("t{i}"), WorkDays::new(1.0 + i as f64))
                    .unwrap()
            })
            .collect();
        net.add_precedence(ids[0], ids[2]).unwrap();
        net.add_precedence(ids[1], ids[2]).unwrap();
        net.add_precedence(ids[2], ids[5]).unwrap();
        for &id in &ids {
            net.add_demand(id, "designer", 1).unwrap();
        }
        let pool: ResourcePool = [Resource::new("designer", 2)].into_iter().collect();
        let cpm = net.analyze().unwrap();
        let lev = level_resources(&net, &pool).unwrap();
        for &id in &ids {
            assert!(lev.start(id).days() >= cpm.times(id).early_start.days() - 1e-9);
        }
    }

    /// A level passed through between simultaneous events is not a
    /// usage level: after t2 and t3 both release at day 1, the whole
    /// capacity is free for t0, even though the profile's first release
    /// at day 1 alone leaves one unit taken.
    #[test]
    fn simultaneous_releases_free_the_capacity_together() {
        let mut net = ScheduleNetwork::new();
        let t0 = net.add_activity("t0", WorkDays::new(0.5)).unwrap();
        let t2 = net.add_activity("t2", WorkDays::new(1.0)).unwrap();
        let t3 = net.add_activity("t3", WorkDays::new(1.0)).unwrap();
        net.add_demand(t0, "designer", 2).unwrap();
        net.add_demand(t2, "designer", 1).unwrap();
        net.add_demand(t3, "designer", 1).unwrap();
        let pool: ResourcePool = [Resource::new("designer", 2)].into_iter().collect();
        let lev = level_resources(&net, &pool).unwrap();
        assert_eq!(lev.start(t2), WorkDays::ZERO);
        assert_eq!(lev.start(t3), WorkDays::ZERO);
        assert_eq!(lev.start(t0), WorkDays::new(1.0));
        assert_eq!(lev.finish(t0), WorkDays::new(1.5));
        assert_eq!(lev.makespan(), WorkDays::new(1.5));
    }

    #[test]
    fn zero_duration_activities_cost_nothing() {
        let mut net = ScheduleNetwork::new();
        let m = net.add_activity("milestone", WorkDays::ZERO).unwrap();
        net.add_demand(m, "designer", 1).unwrap();
        let lev = level_resources(&net, &one_designer()).unwrap();
        assert_eq!(lev.makespan(), WorkDays::ZERO);
    }
}
