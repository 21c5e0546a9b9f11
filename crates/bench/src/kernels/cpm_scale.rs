//! B14 — million-activity CPM on the flat CSR core.
//!
//! B2 (`cpm`) and B9 (`replan_incremental`) top out at 10⁴–10⁵
//! activities; this kernel is the scale gate for the data-oriented
//! schedule core, measuring 10⁵–10⁶-activity graphs:
//!
//! * `full/{n}` — one complete `analyze()` (one flat forward and one
//!   flat backward sweep) on a wide layered DAG. Target: ≤ ~100 ms at
//!   10⁶ activities.
//! * `inc_leaf/{n}` — a slack-absorbed leaf slip through
//!   `IncrementalCpm`: the replan path must stay µs-scale no matter how
//!   large the schedule grows.
//!
//! Graph shape: `width = n / 10` (so a 10⁶-activity network has
//! 100 000-wide levels), node `w` of each layer wired to nodes `w` and
//! `(w + 1) % width` of the previous layer. Durations are dyadic so the
//! incremental and full engines stay bit-identical.
//!
//! `tests/cpm_scale.rs` gates the scaling shape (subquadratic full
//! pass, ≥100× incremental advantage, an O(1) leaf-slip cone) with
//! host-independent ratios; the CI `scale` stage runs it plus a
//! quick pass of this kernel, uploading `target/cpm_scale.json`.

use harness::bench::Record;
use schedule::{ActivityId, ScheduleNetwork, WorkDays};

/// Builds the B14 layered network: `n` activities in layers of
/// `width = (n / 10).clamp(10, 100_000)`, every node wired to two
/// parents in the previous layer, dyadic durations. Returns the network
/// and the final layer's ids (the slip candidates).
pub fn scale_network(activities: usize) -> (ScheduleNetwork, Vec<ActivityId>) {
    let width = (activities / 10).clamp(10, 100_000);
    let layers = (activities / width).max(1);
    let mut net = ScheduleNetwork::new();
    let mut prev: Vec<ActivityId> = Vec::new();
    let mut cur: Vec<ActivityId> = Vec::with_capacity(width);
    for l in 0..layers {
        cur.clear();
        for w in 0..width {
            let id = net
                .add_activity(
                    format!("l{l}w{w}"),
                    WorkDays::new(1.0 + (w % 4) as f64 * 0.5),
                )
                .expect("unique names");
            if !prev.is_empty() {
                net.add_precedence(prev[w], id).expect("forward edge");
                net.add_precedence(prev[(w + 1) % width], id)
                    .expect("forward edge");
            }
            cur.push(id);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (net, prev)
}

/// Prepares the slack-absorbed leaf slip: heavy 5-day sibling sinks
/// around a 1-day leaf whose toggle to 2.5 days never escapes its own
/// slack. Returns the slipping leaf.
fn arm_leaf_slip(net: &mut ScheduleNetwork, last: &[ActivityId]) -> ActivityId {
    for &id in last {
        net.set_duration(id, WorkDays::new(5.0)).expect("known id");
    }
    let leaf = last[last.len() / 2];
    net.set_duration(leaf, WorkDays::new(1.0))
        .expect("known id");
    leaf
}

/// Runs the kernel; `quick` selects the smoke-test plan and sizes.
pub fn run(quick: bool) -> Vec<Record> {
    let mut suite = super::suite("cpm_scale", quick);
    let sizes: &[usize] = if quick {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    for &n in sizes {
        let (mut net, last) = scale_network(n);

        suite.bench(&format!("full/{n}"), Some(n as u64), || {
            net.analyze().expect("acyclic").project_duration()
        });

        let leaf = arm_leaf_slip(&mut net, &last);
        let mut inc = net.analyze_incremental().expect("acyclic");
        let mut flip = false;
        suite.bench(&format!("inc_leaf/{n}"), Some(n as u64), || {
            flip = !flip;
            let d = if flip { 2.5 } else { 1.0 };
            net.set_duration(leaf, WorkDays::new(d)).expect("known id");
            inc.update(&net, &[leaf]).expect("known dirty set");
            inc.project_duration()
        });
    }
    suite.into_records()
}
