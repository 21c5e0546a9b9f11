//! The `hercules.plan.estimates_recomputed` histogram: each planning
//! pass observes how many duration estimates it had to compute rather
//! than read from the manager's planning view. This binary holds a
//! single test, so no other pass observes into the process-wide
//! registry while it reads the histogram.

use hercules::Hercules;
use schedule::WorkDays;
use schema::examples;
use simtools::{workload::Team, ToolLibrary};

const TARGET: &str = "signoff_report";

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

    h.gc().expect("arena gc");
    assert_eq!(
        recomputed_by_plan(&mut h),
        n,
        "gc drops the view's estimates"
    );
}
