//! The B14 acceptance gate for the data-oriented CPM core.
//!
//! Host-independent assertions (ratios, not wall-clock floors, so a
//! slow single-core CI container passes on shape alone):
//!
//! * the full pass scales subquadratically from 10⁴ to 10⁵ activities
//!   (a 10× element growth must cost well under the ~100× a quadratic
//!   object-graph walk would);
//! * an incremental slack-absorbed leaf slip stays ≥100× faster than a
//!   full recompute at 10⁵ activities, with a dirty cone that never
//!   grows with the schedule;
//! * a whole cache-hit plan (task-tree extraction, estimates, levelling
//!   and the recorded versions) scales subquadratically from 501 to
//!   2001 activities: every by-name lookup on the way is indexed.

use bench::kernels::cpm_scale::scale_network;
use schedule::WorkDays;

/// Min wall-seconds of `f` over `tries` runs — min, not mean, to shrug
/// off scheduler noise on loaded CI hosts.
#[cfg(not(debug_assertions))]
fn best_secs<R>(tries: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..tries)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn leaf_cone_is_constant() {
    let (mut net, last) = scale_network(100_000);
    // Slack-absorbed leaf slip: heavy sibling sinks, 1 <-> 2.5 toggle.
    for &id in &last {
        net.set_duration(id, WorkDays::new(5.0)).expect("known id");
    }
    let leaf = last[last.len() / 2];
    net.set_duration(leaf, WorkDays::new(1.0))
        .expect("known id");
    let mut inc = net.analyze_incremental().expect("acyclic");
    net.set_duration(leaf, WorkDays::new(2.5))
        .expect("known id");
    let stats = inc.update(&net, &[leaf]).expect("known dirty set");
    assert!(!stats.full_rebuild);
    eprintln!(
        "cpm_scale: leaf slip at 100k activities recomputed {} (forward {} / backward {})",
        stats.total_recomputed(),
        stats.forward_recomputed,
        stats.backward_recomputed
    );
    assert!(
        stats.total_recomputed() <= 64,
        "slack-absorbed leaf slip recomputed {} activities on a 100k \
         graph; the dirty cone should be O(1), not O(n)",
        stats.total_recomputed()
    );
}

/// Timing gates only make sense on optimized builds (debug builds also
/// cross-check every incremental update against a full pass, which is
/// the very cost this gate measures).
#[cfg(not(debug_assertions))]
#[test]
fn full_pass_subquadratic_and_incremental_stays_micro() {
    const TRIES: usize = 5;

    let (net4, _) = scale_network(10_000);
    let (mut net5, last) = scale_network(100_000);
    // Warmup.
    net4.analyze().expect("acyclic");
    net5.analyze().expect("acyclic");

    let t4 = best_secs(TRIES, || net4.analyze().expect("acyclic"));
    let t5 = best_secs(TRIES, || net5.analyze().expect("acyclic"));
    let growth = t5 / t4;
    eprintln!(
        "cpm_scale: full CPM 10k {:.3} ms, 100k {:.3} ms, growth {growth:.1}x for 10x elements",
        t4 * 1e3,
        t5 * 1e3
    );
    assert!(
        growth <= 30.0,
        "full CPM grew {growth:.1}x for a 10x element increase \
         ({:.3} ms -> {:.3} ms); the flat pass has regressed toward \
         superlinear behavior",
        t4 * 1e3,
        t5 * 1e3
    );

    // Slack-absorbed leaf slip at 100k.
    for &id in &last {
        net5.set_duration(id, WorkDays::new(5.0)).expect("known id");
    }
    let leaf = last[last.len() / 2];
    net5.set_duration(leaf, WorkDays::new(1.0))
        .expect("known id");
    let mut inc = net5.analyze_incremental().expect("acyclic");
    let mut flip = false;
    let t_inc = best_secs(64, || {
        flip = !flip;
        let d = if flip { 2.5 } else { 1.0 };
        net5.set_duration(leaf, WorkDays::new(d)).expect("known id");
        inc.update(&net5, &[leaf]).expect("known dirty set")
    });
    let speedup = t5 / t_inc;
    eprintln!(
        "cpm_scale: incremental leaf slip {:.2} us, {speedup:.0}x faster than full",
        t_inc * 1e6
    );
    assert!(
        speedup >= 100.0,
        "incremental leaf slip ({:.2} us) is only {speedup:.0}x faster \
         than a full recompute ({:.3} ms) at 100k activities; the \
         dirty-region engine has regressed",
        t_inc * 1e6,
        t5 * 1e3
    );
}

/// A cache-hit in-memory plan of 4x the activities must cost under 8x
/// the time. A lookup that scans the schema or the run history per
/// activity makes the plan quadratic and the growth about 12x.
#[cfg(not(debug_assertions))]
#[test]
fn plan_path_is_subquadratic() {
    use hercules::Hercules;
    use schema::examples;
    use simtools::{workload::Team, ToolLibrary};

    const TRIES: usize = 7;

    let planner = |layers: usize| {
        let mut h = Hercules::new(
            examples::layered(layers, 50, 3),
            ToolLibrary::standard(),
            Team::of_size(8),
            1995,
        );
        // The first plan builds the plan cache every later plan reuses.
        h.plan("merged").expect("plan");
        h
    };
    let mut small = planner(10);
    let mut large = planner(40);
    // Warmup.
    small.plan("merged").expect("plan");
    large.plan("merged").expect("plan");

    let t_small = best_secs(TRIES, || small.plan("merged").expect("plan"));
    let t_large = best_secs(TRIES, || large.plan("merged").expect("plan"));
    let growth = t_large / t_small;
    eprintln!(
        "cpm_scale: cache-hit plan 501 activities {:.3} ms, 2001 {:.3} ms, growth {growth:.1}x for 4x activities",
        t_small * 1e3,
        t_large * 1e3
    );
    assert!(
        growth < 8.0,
        "a cache-hit plan grew {growth:.1}x for 4x the activities \
         ({:.3} ms -> {:.3} ms); some lookup on the planning path has \
         turned quadratic",
        t_small * 1e3,
        t_large * 1e3
    );
}
