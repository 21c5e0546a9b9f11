//! Property-based equivalence tests for the dirty-region incremental
//! CPM engine: after any sequence of slips, [`IncrementalCpm`] must
//! agree with a from-scratch [`ScheduleNetwork::analyze`] on every
//! date, slack, criticality flag, and the project duration.
//!
//! Durations are whole milli-days, deliberately not binary fractions
//! (multiples of 0.137 working days): both engines compute exactly
//! equal dates, and [`IncrementalCpm::cross_check`] demands equality.

use harness::prelude::*;
use schedule::{ActivityId, IncrementalCpm, ScheduleNetwork, WorkDays};

/// Random acyclic network: forward edges over n activities with random
/// milli-day durations (same shape as `cpm_properties.rs`).
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
                    let d = durations.get(i).copied().unwrap_or(1) as f64 * 0.137;
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

/// A pure pipeline (chain) network — the deepest dependency structure,
/// worst case for propagation distance.
fn arb_pipeline() -> impl Strategy<Value = ScheduleNetwork> {
    vec(1u32..16, 2..40).prop_map(|durations| {
        let mut net = ScheduleNetwork::new();
        let mut prev: Option<ActivityId> = None;
        for (i, d) in durations.iter().enumerate() {
            let id = net
                .add_activity(format!("s{i}"), WorkDays::new(f64::from(*d) * 0.137))
                .expect("unique names");
            if let Some(p) = prev {
                net.add_precedence(p, id).expect("chain edge");
            }
            prev = Some(id);
        }
        net
    })
}

/// Random slip steps: each step re-estimates up to 7 activities (by
/// index modulo n) to new milli-day durations. Steps may be empty and may
/// repeat activities.
fn arb_slips() -> impl Strategy<Value = Vec<Vec<(u16, u32)>>> {
    vec(vec((any_u16(), 0u32..20), 0..8), 1..5)
}

/// Applies one slip step to `net`, returning the (deduplicated) dirty
/// set actually passed to the incremental engine.
fn apply_step(
    net: &mut ScheduleNetwork,
    ids: &[ActivityId],
    step: &[(u16, u32)],
) -> Vec<ActivityId> {
    let mut dirty = Vec::new();
    for &(who, dur) in step {
        let id = ids[(who as usize) % ids.len()];
        net.set_duration(id, WorkDays::new(f64::from(dur) * 0.137))
            .expect("known activity");
        if !dirty.contains(&id) {
            dirty.push(id);
        }
    }
    dirty
}

harness::props! {
    fn incremental_tracks_full_cpm_on_random_dags(
        net in arb_network(),
        slips in arb_slips(),
    ) {
        let mut net = net;
        let ids: Vec<ActivityId> = net.activities().collect();
        let mut inc = net.analyze_incremental().expect("acyclic");
        prop_assert!(inc.cross_check(&net).is_ok(), "initial analysis diverged");
        for step in &slips {
            let dirty = apply_step(&mut net, &ids, step);
            let stats = inc.update(&net, &dirty).expect("valid dirty set");
            prop_assert!(!stats.full_rebuild, "no structural change occurred");
            prop_assert!(stats.dirty == dirty.len());
            if let Err(e) = inc.cross_check(&net) {
                panic!("incremental diverged after slips {dirty:?}: {e}");
            }
        }
    }

    fn incremental_tracks_full_cpm_on_pipelines(
        net in arb_pipeline(),
        slips in arb_slips(),
    ) {
        let mut net = net;
        let ids: Vec<ActivityId> = net.activities().collect();
        let mut inc = net.analyze_incremental().expect("acyclic");
        for step in &slips {
            let dirty = apply_step(&mut net, &ids, step);
            inc.update(&net, &dirty).expect("valid dirty set");
            if let Err(e) = inc.cross_check(&net) {
                panic!("pipeline incremental diverged after {dirty:?}: {e}");
            }
        }
    }

    fn empty_dirty_set_is_a_noop(net in arb_network()) {
        let mut inc = net.analyze_incremental().expect("acyclic");
        let before = inc.project_duration();
        let stats = inc.update(&net, &[]).expect("empty dirty set is legal");
        prop_assert_eq!(stats.dirty, 0);
        prop_assert_eq!(stats.forward_recomputed, 0);
        prop_assert_eq!(stats.backward_recomputed, 0);
        prop_assert_eq!(inc.project_duration(), before);
        prop_assert!(inc.cross_check(&net).is_ok());
    }

    fn whole_graph_dirty_matches_fresh_analysis(
        net in arb_network(),
        durations in vec(0u32..20, 2..40),
    ) {
        // Re-estimate EVERY activity, then declare the whole graph
        // dirty: the incremental result must equal a fresh analysis.
        let mut net = net;
        let ids: Vec<ActivityId> = net.activities().collect();
        let mut inc = net.analyze_incremental().expect("acyclic");
        for (i, &id) in ids.iter().enumerate() {
            let d = durations.get(i % durations.len()).copied().unwrap_or(1);
            net.set_duration(id, WorkDays::new(f64::from(d) * 0.137))
                .expect("known activity");
        }
        let stats = inc.update(&net, &ids).expect("whole graph dirty");
        prop_assert_eq!(stats.dirty, ids.len());
        prop_assert!(stats.forward_recomputed <= ids.len());
        prop_assert!(stats.backward_recomputed <= ids.len());
        if let Err(e) = inc.cross_check(&net) {
            panic!("whole-graph-dirty update diverged: {e}");
        }
        // And the derived CpmAnalysis agrees with a fresh one.
        let fresh = net.analyze().expect("acyclic");
        let derived = inc.analysis(&net);
        prop_assert_eq!(derived.project_duration(), fresh.project_duration());
        for &id in &ids {
            prop_assert_eq!(derived.is_critical(id), fresh.is_critical(id));
        }
    }

    fn updates_are_order_insensitive(net in arb_network(), slips in arb_slips()) {
        // Applying all slips in one batch must equal applying them
        // step by step (the engine's state depends only on the final
        // durations, not the update history).
        let mut stepwise_net = net.clone();
        let ids: Vec<ActivityId> = stepwise_net.activities().collect();
        let mut stepwise = stepwise_net.analyze_incremental().expect("acyclic");
        let mut all_dirty: Vec<ActivityId> = Vec::new();
        for step in &slips {
            let dirty = apply_step(&mut stepwise_net, &ids, step);
            stepwise.update(&stepwise_net, &dirty).expect("valid dirty set");
            for id in dirty {
                if !all_dirty.contains(&id) {
                    all_dirty.push(id);
                }
            }
        }
        let mut batch_net = net;
        let mut batch = batch_net.analyze_incremental().expect("acyclic");
        for step in &slips {
            apply_step(&mut batch_net, &ids, step);
        }
        batch.update(&batch_net, &all_dirty).expect("valid dirty set");
        prop_assert_eq!(stepwise.project_duration(), batch.project_duration());
        for &id in &ids {
            prop_assert_eq!(stepwise.early_start(id), batch.early_start(id));
            prop_assert_eq!(stepwise.late_start(id), batch.late_start(id));
        }
    }

    fn structural_changes_force_a_full_rebuild(
        net in arb_network(),
        dur in 0u32..20,
        attach in any_u16(),
    ) {
        // Growing the network after the snapshot must be detected via
        // the structure revision: the next update — even with an empty
        // dirty set — rebuilds from scratch onto the new topology and
        // tracks the full analysis again afterwards.
        let mut net = net;
        let mut inc = net.analyze_incremental().expect("acyclic");
        let ids: Vec<ActivityId> = net.activities().collect();
        let tail = net
            .add_activity("grown", WorkDays::new(f64::from(dur) * 0.137))
            .expect("fresh name");
        let parent = ids[(attach as usize) % ids.len()];
        net.add_precedence(parent, tail).expect("forward edge");
        let stats = inc.update(&net, &[]).expect("rebuild path");
        prop_assert!(stats.full_rebuild, "structural change must rebuild");
        if let Err(e) = inc.cross_check(&net) {
            panic!("post-rebuild state diverged: {e}");
        }
        // And the engine is reusable incrementally after the rebuild.
        net.set_duration(tail, WorkDays::new(f64::from(dur) * 0.137 + 1.0))
            .expect("known id");
        let stats = inc.update(&net, &[tail]).expect("valid dirty set");
        prop_assert!(!stats.full_rebuild, "duration slip is not structural");
        prop_assert!(inc.cross_check(&net).is_ok());
    }
}

#[test]
fn incremental_cpm_is_reusable_across_many_structured_updates() {
    // Deterministic long-run exercise: a 400-activity layered DAG
    // with 100 single-slip updates keeps tracking full CPM, and
    // single-slip work stays far below a full recompute on average.
    let mut net = ScheduleNetwork::new();
    let mut layers: Vec<Vec<ActivityId>> = Vec::new();
    for l in 0..40 {
        let mut this = Vec::new();
        for w in 0..10 {
            let id = net
                .add_activity(format!("l{l}w{w}"), WorkDays::new(1.0 + (w % 3) as f64))
                .expect("unique names");
            if let Some(prev) = layers.last() {
                net.add_precedence(prev[w], id).expect("edge");
                net.add_precedence(prev[(w + 1) % 10], id).expect("edge");
            }
            this.push(id);
        }
        layers.push(this);
    }
    let ids: Vec<ActivityId> = net.activities().collect();
    let mut inc: IncrementalCpm = net.analyze_incremental().expect("acyclic");
    let mut rng = SplitMix64::new(0xC0FFEE);
    let mut recomputed = 0usize;
    for _ in 0..100 {
        let id = ids[(rng.next_u64() as usize) % ids.len()];
        let d = 0.137 * ((rng.next_u64() % 12) as f64 + 1.0);
        net.set_duration(id, WorkDays::new(d)).expect("known id");
        let stats = inc.update(&net, &[id]).expect("single slip");
        recomputed += stats.total_recomputed();
        inc.cross_check(&net).expect("tracks full CPM");
    }
    // 100 single slips must cost well under 100 full recomputes
    // (2 * 400 nodes each); this is the entire point of the engine.
    assert!(
        recomputed < 100 * ids.len(),
        "incremental engine did {recomputed} node recomputes over 100 slips"
    );
}
