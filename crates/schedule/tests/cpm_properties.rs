//! Property-based tests for the CPM engine and resource levelling (on
//! the in-repo `harness` framework — offline, seeded, shrinking).

use harness::prelude::*;
use schedule::{level_resources, ActivityId, Resource, ResourcePool, ScheduleNetwork, WorkDays};

/// Random acyclic network: forward edges over n activities with random
/// small durations.
fn arb_network() -> impl Strategy<Value = ScheduleNetwork> {
    (
        2usize..25,
        vec((any_u16(), any_u16()), 0..60),
        vec(0u32..20, 2..25),
    )
        .prop_map(|(n, pairs, durations)| {
            let mut net = ScheduleNetwork::new();
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    let d = durations.get(i).copied().unwrap_or(1) as f64 * 0.5;
                    net.add_activity(format!("t{i}"), WorkDays::new(d))
                        .expect("unique names")
                })
                .collect();
            for (a, b) in pairs {
                let i = (a as usize) % n;
                let j = (b as usize) % n;
                if i < j {
                    net.add_precedence(ids[i], ids[j]).expect("forward edges");
                }
            }
            net
        })
}

/// Resources the levelling oracle's networks compete for.
const RESOURCES: [&str; 3] = ["designer", "license", "tester"];

/// Random acyclic network built for ties: durations drawn from a few
/// values (zero-duration activities included), and each activity
/// demands up to three resources, several units at a time. Returns the
/// network and a pool whose capacities cover every single demand.
fn arb_contended_network() -> impl Strategy<Value = (ScheduleNetwork, ResourcePool)> {
    (
        2usize..40,
        vec((any_u16(), any_u16()), 0..80),
        vec(0u32..6, 2..40),
        vec(any_u16(), 2..40),
        vec(1u32..4, 3..4),
    )
        .prop_map(|(n, pairs, durations, demands, capacities)| {
            const DAYS: [f64; 6] = [0.0, 0.5, 1.0, 1.0, 2.0, 2.5];
            let mut net = ScheduleNetwork::new();
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    let d = DAYS[durations.get(i).copied().unwrap_or(2) as usize];
                    net.add_activity(format!("t{i}"), WorkDays::new(d))
                        .expect("unique names")
                })
                .collect();
            for (a, b) in pairs {
                let i = (a as usize) % n;
                let j = (b as usize) % n;
                if i < j {
                    net.add_precedence(ids[i], ids[j]).expect("forward edges");
                }
            }
            for (i, &id) in ids.iter().enumerate() {
                // Two bits per resource: 0 = no demand, else 1..=cap units.
                let bits = demands.get(i).copied().unwrap_or(1);
                for (r, name) in RESOURCES.iter().enumerate() {
                    let want = u32::from((bits >> (2 * r)) & 3);
                    if want > 0 {
                        net.add_demand(id, *name, want.min(capacities[r]))
                            .expect("activity exists");
                    }
                }
            }
            let pool: ResourcePool = RESOURCES
                .iter()
                .zip(&capacities)
                .map(|(name, &cap)| Resource::new(*name, cap))
                .collect();
            (net, pool)
        })
}

/// Reference levelling: the serial schedule generation scheme over a
/// plain, unsorted event list. `level_resources` must reproduce its
/// starts, finishes and makespan bit for bit.
///
/// Usage is a step function: the level at `t` sums every event at or
/// before `t`, so simultaneous events take effect together. A probe
/// samples the level at its start and at each event time inside it.
/// `None` when an activity finds no slot — which a validated input
/// never does, since everything is released after the last event.
fn reference_level(
    net: &ScheduleNetwork,
    pool: &ResourcePool,
) -> Option<(Vec<f64>, Vec<f64>, f64)> {
    fn level_at(events: &[(f64, i64)], t: f64) -> i64 {
        events
            .iter()
            .filter(|&&(et, _)| et <= t)
            .map(|&(_, d)| d)
            .sum()
    }
    fn peak_in(events: &[(f64, i64)], start: f64, finish: f64) -> i64 {
        if finish <= start {
            return 0;
        }
        events
            .iter()
            .map(|&(t, _)| t)
            .filter(|&t| start < t && t < finish)
            .chain([start])
            .map(|t| level_at(events, t))
            .max()
            .unwrap_or(0)
    }

    let cpm = net.analyze().expect("acyclic");
    let mut order: Vec<ActivityId> = net.activities().collect();
    order.sort_by(|&x, &y| {
        let (tx, ty) = (cpm.times(x), cpm.times(y));
        tx.total_slack
            .days()
            .total_cmp(&ty.total_slack.days())
            .then(tx.early_start.days().total_cmp(&ty.early_start.days()))
            .then(x.cmp(&y))
    });
    let n = net.activity_count();
    let mut priority = vec![0usize; n];
    for (rank, &id) in order.iter().enumerate() {
        priority[id.index()] = rank;
    }
    let mut remaining: Vec<usize> = net
        .activities()
        .map(|id| net.predecessors(id).count())
        .collect();
    let mut ready: Vec<ActivityId> = net
        .activities()
        .filter(|id| remaining[id.index()] == 0)
        .collect();
    let mut starts = vec![0.0; n];
    let mut finishes = vec![0.0; n];
    let mut profiles: std::collections::HashMap<String, Vec<(f64, i64)>> = Default::default();
    let mut makespan = 0.0f64;
    while let Some(pos) = ready
        .iter()
        .enumerate()
        .min_by_key(|(_, id)| priority[id.index()])
        .map(|(i, _)| i)
    {
        let id = ready.swap_remove(pos);
        let duration = net.duration(id).days();
        let mut t = net
            .predecessors(id)
            .map(|p| finishes[p.index()])
            .fold(0.0f64, f64::max);
        if duration > 0.0 {
            loop {
                let fits = net.demands(id).iter().all(|(name, units)| {
                    let events = profiles.entry(name.clone()).or_default();
                    peak_in(events, t, t + duration) + i64::from(*units)
                        <= i64::from(pool.capacity_of(name).expect("pooled"))
                });
                if fits {
                    break;
                }
                t = net
                    .demands(id)
                    .iter()
                    .filter_map(|(name, _)| profiles.get(name))
                    .flat_map(|events| events.iter())
                    .filter(|(et, delta)| *delta < 0 && *et > t)
                    .map(|(et, _)| *et)
                    .fold(f64::INFINITY, f64::min);
                if !t.is_finite() {
                    return None;
                }
            }
            for (name, units) in net.demands(id) {
                let events = profiles.entry(name.clone()).or_default();
                events.push((t, i64::from(*units)));
                events.push((t + duration, -i64::from(*units)));
            }
        }
        starts[id.index()] = t;
        finishes[id.index()] = t + duration;
        makespan = makespan.max(t + duration);
        for s in net.successors(id) {
            remaining[s.index()] -= 1;
            if remaining[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    Some((starts, finishes, makespan))
}

harness::props! {
    fn leveling_matches_the_step_function_reference(case in arb_contended_network()) {
        let (net, pool) = case;
        let leveled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            level_resources(&net, &pool).expect("every single demand fits the pool")
        }));
        let reference = reference_level(&net, &pool);
        prop_assert!(leveled.is_ok(), "level_resources rejected a validated input");
        prop_assert!(reference.is_some(), "the reference found no slot for a validated input");
        let (lev, (starts, finishes, makespan)) = (leveled.unwrap(), reference.unwrap());
        for id in net.activities() {
            prop_assert_eq!(lev.start(id).days().to_bits(), starts[id.index()].to_bits());
            prop_assert_eq!(lev.finish(id).days().to_bits(), finishes[id.index()].to_bits());
        }
        prop_assert_eq!(lev.makespan().days().to_bits(), makespan.to_bits());
    }

    fn cpm_dates_are_consistent(net in arb_network()) {
        let cpm = net.analyze().expect("acyclic");
        for id in net.activities() {
            let t = cpm.times(id);
            // ES + duration = EF; LS + duration = LF.
            prop_assert!((t.early_finish.days()
                - t.early_start.days()
                - net.duration(id).days()).abs() < 1e-9);
            prop_assert!((t.late_finish.days()
                - t.late_start.days()
                - net.duration(id).days()).abs() < 1e-9);
            // Early never after late; slack non-negative.
            prop_assert!(t.early_start.days() <= t.late_start.days() + 1e-9);
            prop_assert!(t.total_slack.days() >= -1e-9);
            // Free slack never exceeds total slack.
            prop_assert!(t.free_slack.days() <= t.total_slack.days() + 1e-9);
            // Nothing finishes after the project.
            prop_assert!(t.early_finish.days() <= cpm.project_duration().days() + 1e-9);
            prop_assert!(t.late_finish.days() <= cpm.project_duration().days() + 1e-9);
        }
    }

    fn precedence_respected_by_earliest_dates(net in arb_network()) {
        let cpm = net.analyze().expect("acyclic");
        for id in net.activities() {
            for s in net.successors(id) {
                prop_assert!(
                    cpm.times(s).early_start.days() >= cpm.times(id).early_finish.days() - 1e-9
                );
            }
        }
    }

    fn critical_path_length_equals_project_duration(net in arb_network()) {
        let cpm = net.analyze().expect("acyclic");
        let path = cpm.critical_path();
        prop_assert!(!path.is_empty());
        let total: f64 = path.iter().map(|&id| net.duration(id).days()).sum();
        prop_assert!((total - cpm.project_duration().days()).abs() < 1e-9);
        // Path is a real precedence chain of critical activities.
        for pair in path.windows(2) {
            prop_assert!(net.successors(pair[0]).any(|s| s == pair[1]));
        }
        for &id in path {
            prop_assert!(cpm.is_critical(id));
        }
    }

    fn project_duration_is_max_over_paths(net in arb_network()) {
        // The project can never be shorter than any single activity.
        let cpm = net.analyze().expect("acyclic");
        for id in net.activities() {
            prop_assert!(cpm.project_duration().days() >= net.duration(id).days() - 1e-9);
        }
    }

    fn leveling_respects_precedence_and_cpm_lower_bound(net in arb_network()) {
        let mut net = net;
        let ids: Vec<_> = net.activities().collect();
        for &id in &ids {
            net.add_demand(id, "designer", 1).expect("activity exists");
        }
        let pool: ResourcePool = [Resource::new("designer", 2)].into_iter().collect();
        let cpm = net.analyze().expect("acyclic");
        let lev = level_resources(&net, &pool).expect("feasible");
        for &id in &ids {
            // Never earlier than CPM's earliest start.
            prop_assert!(lev.start(id).days() >= cpm.times(id).early_start.days() - 1e-9);
            for s in net.successors(id) {
                prop_assert!(lev.start(s).days() >= lev.finish(id).days() - 1e-9);
            }
        }
        // Capacity respected: at each start, count overlapping activities.
        for &id in &ids {
            if net.duration(id).days() == 0.0 {
                continue;
            }
            let t = lev.start(id).days() + 1e-6;
            let overlapping = ids
                .iter()
                .filter(|&&o| {
                    net.duration(o).days() > 0.0
                        && lev.start(o).days() < t
                        && lev.finish(o).days() > t
                })
                .count();
            prop_assert!(overlapping <= 2, "capacity 2 exceeded: {overlapping}");
        }
        // Makespan bounded below by CPM and above by serial execution.
        let serial: f64 = ids.iter().map(|&i| net.duration(i).days()).sum();
        prop_assert!(lev.makespan().days() >= cpm.project_duration().days() - 1e-9);
        prop_assert!(lev.makespan().days() <= serial + 1e-9);
    }
}
