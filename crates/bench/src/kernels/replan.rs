//! B5 — slip propagation vs full replan (the DESIGN.md ablation for
//! versioned incremental updates).
//!
//! Expected shape: incremental propagation touches only the downstream
//! cone and is cheaper than a full replanning pass; both stay fast
//! enough for automatic updates on every completion event.

use harness::bench::Record;
use hercules::Hercules;
use schedule::WorkDays;

use crate::pipeline_manager;

/// A pipeline mid-execution: the front third complete (so a slip has
/// somewhere to propagate from), the rest open. The last complete
/// stage, `slipped`, was planned at a tenth of a day and finished late,
/// so propagating its slip shifts every open stage.
fn mid_project(stages: usize, slipped: &str) -> (Hercules, String) {
    let mut h = pipeline_manager(stages, 4, 1);
    let target = format!("d{stages}");
    h.set_estimate(slipped, WorkDays::new(0.1))
        .expect("pipeline stage");
    h.plan(&target).expect("plannable");
    let front = format!("d{}", stages / 3);
    h.execute(&front).expect("executable");
    assert!(
        h.db().finish_slip(slipped).is_some_and(|s| s > 0.0),
        "{slipped} must finish late for B5 to time a propagation"
    );
    (h, target)
}

/// Runs the kernel; `quick` selects the smoke-test plan and sizes.
pub fn run(quick: bool) -> Vec<Record> {
    let mut suite = super::suite("replan", quick);
    let sizes: &[usize] = if quick { &[30] } else { &[30, 90] };
    for &stages in sizes {
        let slipped = format!("Stage{}", stages / 3);
        // Each routine hands its manager back, so the harness drops it
        // after the clock stops.
        suite.bench_with_setup(
            &format!("propagate_slip/{stages}"),
            Some(stages as u64),
            || mid_project(stages, &slipped),
            |(mut h, _)| {
                let outcome = h.propagate_slip(&slipped).expect("planned");
                (h, outcome)
            },
        );
        suite.bench_with_setup(
            &format!("full_replan/{stages}"),
            Some(stages as u64),
            || mid_project(stages, &slipped),
            |(mut h, target)| h.replan(&target).expect("plannable"),
        );
    }
    suite.into_records()
}
