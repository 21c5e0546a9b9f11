//! The planner's process-wide metrics, read around single passes:
//!
//! * the `hercules.plan.estimates_recomputed` histogram — how many
//!   duration estimates a pass had to compute rather than read from the
//!   manager's planning view;
//! * the `hercules.plan.level_reused` counter — the passes that reused
//!   the kept levelled schedule instead of levelling again.
//!
//! The registry is shared by the whole process, so each test holds
//! [`REGISTRY`] while it plans: no other pass observes into it between
//! a reading and the next.

use std::sync::{Mutex, MutexGuard};

use hercules::Hercules;
use schedule::WorkDays;
use schema::examples;
use simtools::{workload::Team, ToolLibrary};

const TARGET: &str = "signoff_report";

/// Serializes the tests of this binary over the shared registry.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry() -> MutexGuard<'static, ()> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Plans `TARGET` and returns the estimates the pass recomputed.
fn recomputed_by_plan(h: &mut Hercules) -> f64 {
    let histogram = obs::Metrics::histogram("hercules.plan.estimates_recomputed", &[]);
    let (count, sum) = (histogram.count(), histogram.sum());
    h.plan(TARGET).expect("plannable");
    assert_eq!(histogram.count(), count + 1, "one observation per pass");
    histogram.sum() - sum
}

#[test]
fn estimates_recomputed_counts_what_changed() {
    let _registry = registry();
    let mut h = Hercules::new(
        examples::asic_flow(),
        ToolLibrary::standard(),
        Team::of_size(3),
        5,
    );
    let n = h.extract_task_tree(TARGET).expect("known target").len() as f64;
    assert_eq!(
        recomputed_by_plan(&mut h),
        n,
        "the first pass fills the view"
    );
    assert_eq!(recomputed_by_plan(&mut h), 0.0, "an unchanged re-plan");

    h.set_estimate("Synthesize", WorkDays::new(7.5))
        .expect("activity");
    assert_eq!(recomputed_by_plan(&mut h), 1.0, "one set_estimate");
    h.set_estimate("Synthesize", WorkDays::new(7.5))
        .expect("activity");
    assert_eq!(
        recomputed_by_plan(&mut h),
        0.0,
        "an estimate set to its value"
    );

    // Every activity gained runs. The pass that follows also re-versions
    // the completed plans, and a plan's completion link feeds the
    // measured duration, so the next pass recomputes them once more.
    h.execute(TARGET).expect("executable");
    assert_eq!(recomputed_by_plan(&mut h), n, "after a full execute");
    assert_eq!(
        recomputed_by_plan(&mut h),
        n,
        "after unlinking new versions"
    );
    assert_eq!(recomputed_by_plan(&mut h), 0.0, "settled again");

    // A gc restamps ids in place; every input of the kept estimates
    // stays, and so do they.
    h.gc().expect("arena gc");
    assert_eq!(
        recomputed_by_plan(&mut h),
        0.0,
        "gc keeps the view's estimates"
    );
}

/// Runs `op` and returns how many planning passes it made and how many
/// of them reused the kept levelled schedule.
fn passes_and_reuses(h: &mut Hercules, op: impl FnOnce(&mut Hercules)) -> (u64, u64) {
    let calls = obs::Metrics::counter("hercules.plan.calls");
    let reused = obs::Metrics::counter("hercules.plan.level_reused");
    let (calls_before, reused_before) = (calls.get(), reused.get());
    op(h);
    (calls.get() - calls_before, reused.get() - reused_before)
}

fn plan(h: &mut Hercules) {
    h.plan(TARGET).expect("plannable");
}

fn replan(h: &mut Hercules) {
    h.replan(TARGET).expect("replannable");
}

#[test]
fn level_reused_counts_passes_that_changed_nothing() {
    let _registry = registry();
    let mut h = Hercules::new(
        examples::asic_flow(),
        ToolLibrary::standard(),
        Team::of_size(3),
        5,
    );
    assert_eq!(passes_and_reuses(&mut h, plan), (1, 0), "the first plan");
    assert_eq!(
        passes_and_reuses(&mut h, plan),
        (1, 1),
        "an unchanged re-plan"
    );
    assert_eq!(
        passes_and_reuses(&mut h, replan),
        (1, 1),
        "an unchanged replan"
    );

    h.set_estimate("Synthesize", WorkDays::new(7.5))
        .expect("activity");
    assert_eq!(
        passes_and_reuses(&mut h, plan),
        (1, 0),
        "a changed estimate"
    );
    assert_eq!(passes_and_reuses(&mut h, plan), (1, 1), "settled again");

    // What-if trials and forecasts propose without recording: they
    // make no planning pass and leave the kept schedule for the next.
    let sweep = |h: &mut Hercules| {
        h.sweep_team_sizes(TARGET, WorkDays::new(60.0), 3)
            .expect("plannable");
    };
    assert_eq!(passes_and_reuses(&mut h, sweep), (0, 0), "a team sweep");
    assert_eq!(passes_and_reuses(&mut h, plan), (1, 1), "after a sweep");
    let advice = |h: &mut Hercules| {
        h.crash_advice(TARGET, 0.5).expect("plannable");
    };
    assert_eq!(passes_and_reuses(&mut h, advice), (0, 0), "crash advice");
    assert_eq!(passes_and_reuses(&mut h, plan), (1, 1), "after advice");
    let forecast = |h: &mut Hercules| {
        h.forecast(TARGET).expect("forecastable");
    };
    assert_eq!(passes_and_reuses(&mut h, forecast), (0, 0), "a forecast");
    assert_eq!(passes_and_reuses(&mut h, plan), (1, 1), "after a forecast");

    // Completing the front of the flow narrows a replan's scope.
    h.execute("netlist").expect("executable");
    assert_eq!(passes_and_reuses(&mut h, replan), (1, 0), "a scope change");
    assert_eq!(passes_and_reuses(&mut h, replan), (1, 1), "the same scope");

    // A gc keeps the plan cache and its levelled schedule.
    h.gc().expect("arena gc");
    assert_eq!(passes_and_reuses(&mut h, replan), (1, 1), "after gc");
    assert_eq!(
        passes_and_reuses(&mut h, replan),
        (1, 1),
        "settled after gc"
    );

    let db = metadata::MetadataDb::load(&h.db().dump()).expect("dump loads");
    h.restore_db(db).expect("arena restore");
    assert_eq!(passes_and_reuses(&mut h, replan), (1, 0), "after a restore");
    assert_eq!(
        passes_and_reuses(&mut h, replan),
        (1, 1),
        "settled after a restore"
    );
}
