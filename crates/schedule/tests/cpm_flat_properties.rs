//! Property-based pinning of the flat CSR CPM core against a
//! straightforward object-graph reference implementation — the
//! algorithm `analyze()` used before the data-oriented refactor,
//! re-expressed here over the public traversal API: `precedence_order`
//! plus per-node predecessor/successor walks, with a min-propagated
//! late schedule.
//!
//! Durations are dyadic (multiples of 0.5 working days), so both
//! formulations compute *bit-identical* floats: the reference derives
//! `late_finish = min(successor late_start)` while the flat core
//! derives `late_start = project − tail`, and with exact arithmetic
//! those are the same number, not merely close. Every comparison below
//! is `==`, no epsilon.

use harness::prelude::*;
use schedule::{ActivityId, CpmAnalysis, ScheduleNetwork, WorkDays};

/// Random acyclic network: forward edges over n activities with random
/// dyadic durations (same shape as `cpm_incremental_properties.rs`).
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

/// A pure chain — the deepest structure, worst case for level count
/// (every level has width 1, so the parallel path degenerates).
fn arb_pipeline() -> impl Strategy<Value = ScheduleNetwork> {
    vec(1u32..16, 2..40).prop_map(|durations| {
        let mut net = ScheduleNetwork::new();
        let mut prev: Option<ActivityId> = None;
        for (i, d) in durations.iter().enumerate() {
            let id = net
                .add_activity(format!("s{i}"), WorkDays::new(f64::from(*d) * 0.5))
                .expect("unique names");
            if let Some(p) = prev {
                net.add_precedence(p, id).expect("chain edge");
            }
            prev = Some(id);
        }
        net
    })
}

/// Per-activity reference dates, indexed by `ActivityId::index`.
struct Reference {
    early_start: Vec<f64>,
    early_finish: Vec<f64>,
    late_start: Vec<f64>,
    late_finish: Vec<f64>,
    project: f64,
}

/// The pre-refactor object-graph CPM: forward max-fold over the
/// precedence order, late dates by min-propagation from the sinks.
fn reference_analyze(net: &ScheduleNetwork) -> Reference {
    let n = net.activity_count();
    let order = net.precedence_order();
    let mut early_start = vec![0.0f64; n];
    let mut early_finish = vec![0.0f64; n];
    for &id in &order {
        let es = net
            .predecessors(id)
            .map(|p| early_finish[p.index()])
            .fold(0.0f64, f64::max);
        early_start[id.index()] = es;
        early_finish[id.index()] = es + net.duration(id).days();
    }
    let project = net
        .finish_activities()
        .iter()
        .map(|id| early_finish[id.index()])
        .fold(0.0f64, f64::max);
    let mut late_start = vec![0.0f64; n];
    let mut late_finish = vec![0.0f64; n];
    for &id in order.iter().rev() {
        let lf = net
            .successors(id)
            .map(|s| late_start[s.index()])
            .fold(f64::INFINITY, f64::min);
        let lf = if lf.is_finite() { lf } else { project };
        late_finish[id.index()] = lf;
        late_start[id.index()] = lf - net.duration(id).days();
    }
    Reference {
        early_start,
        early_finish,
        late_start,
        late_finish,
        project,
    }
}

/// Asserts the flat analysis equals the reference bit for bit.
fn assert_matches_reference(net: &ScheduleNetwork, cpm: &CpmAnalysis) {
    let reference = reference_analyze(net);
    assert_eq!(cpm.project_duration().days(), reference.project);
    for id in net.activities() {
        let t = cpm.times(id);
        let i = id.index();
        assert_eq!(t.early_start.days(), reference.early_start[i], "ES of {i}");
        assert_eq!(
            t.early_finish.days(),
            reference.early_finish[i],
            "EF of {i}"
        );
        assert_eq!(t.late_start.days(), reference.late_start[i], "LS of {i}");
        assert_eq!(t.late_finish.days(), reference.late_finish[i], "LF of {i}");
        let total = (reference.late_start[i] - reference.early_start[i]).max(0.0);
        assert_eq!(t.total_slack.days(), total, "total slack of {i}");
        let downstream = net
            .successors(id)
            .map(|s| reference.early_start[s.index()])
            .fold(f64::INFINITY, f64::min);
        let free = if downstream.is_finite() {
            downstream - reference.early_finish[i]
        } else {
            reference.project - reference.early_finish[i]
        };
        assert_eq!(t.free_slack.days(), free.max(0.0), "free slack of {i}");
    }
}

harness::props! {
    fn flat_cpm_matches_object_graph_reference(net in arb_network()) {
        let cpm = net.analyze().expect("acyclic");
        assert_matches_reference(&net, &cpm);
    }

    fn flat_cpm_matches_reference_on_pipelines(net in arb_pipeline()) {
        let cpm = net.analyze().expect("acyclic");
        assert_matches_reference(&net, &cpm);
    }

    fn critical_path_is_a_real_zero_slack_chain(net in arb_network()) {
        let cpm = net.analyze().expect("acyclic");
        let path = cpm.critical_path();
        prop_assert!(!path.is_empty(), "non-empty network has a critical path");
        let first = path[0];
        // Starts at a start activity, ends at the project finish.
        prop_assert_eq!(net.predecessors(first).count(), 0);
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            prop_assert!(net.successors(a).any(|s| s == b),
                "consecutive critical activities are linked by an edge");
            // No idle time along the critical path.
            prop_assert_eq!(cpm.times(a).early_finish, cpm.times(b).early_start);
        }
        for &id in path {
            prop_assert!(cpm.is_critical(id), "every path member has zero slack");
        }
        let last = path[path.len() - 1];
        prop_assert_eq!(
            cpm.times(last).early_finish.days(),
            cpm.project_duration().days()
        );
    }

    fn duration_edits_reuse_the_cached_topology(
        net in arb_network(),
        edits in vec((any_u16(), 0u32..20), 1..8),
    ) {
        // set_duration must not stale the cached CSR: the incremental
        // engine keeps its topology across re-estimates, and analyses
        // after them still match the reference run on the same
        // (edited) network.
        let mut net = net;
        let ids: Vec<ActivityId> = net.activities().collect();
        let mut inc = net.analyze_incremental().expect("acyclic");
        let mut dirty = Vec::new();
        for (who, dur) in edits {
            let id = ids[(who as usize) % ids.len()];
            net.set_duration(id, WorkDays::new(f64::from(dur) * 0.5))
                .expect("known activity");
            dirty.push(id);
        }
        // Re-adding an existing constraint is ignored, so not
        // structural either.
        let first = ids[0];
        let next = net.successors(first).next();
        if let Some(next) = next {
            net.add_precedence(first, next).expect("existing edge");
        }
        let stats = inc.update(&net, &dirty).expect("known dirty set");
        prop_assert!(!stats.full_rebuild, "duration edits are not structural");
        let cpm = net.analyze().expect("acyclic");
        assert_matches_reference(&net, &cpm);
        prop_assert_eq!(inc.analysis(&net), cpm);
    }
}
