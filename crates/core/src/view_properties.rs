//! Seeded property: the planning view never changes what planning
//! computes. After any sequence of estimate changes, executions (some
//! fault-injected, some of a prefix of the flow), plans, replans
//! (alone or back to back, so passes that change nothing and reuse the
//! levelled schedule are common), slips, gc, restores and what-if
//! trials:
//!
//! * every estimate the view keeps, once it has seen the run log,
//!   equals a fresh [`Hercules::duration_estimate`];
//! * a cold manager built from the same database and intuition
//!   estimates derives the warm one's clock, and the warm manager
//!   plans, replans, forecasts, propagates slips and runs trials
//!   exactly as the cold one, and both databases dump the same;
//! * a forecast is the replan it forecasts: its finish is the finish
//!   of a replan on a copy, with as many open activities, and before
//!   any work completes it is the finish of a plan.

use harness::prelude::*;
use metadata::{ArenaStore, MetadataDb};
use schedule::WorkDays;
use schema::examples;
use simtools::{workload::Team, FaultPlan, ToolLibrary};

use crate::Hercules;

const TARGET: &str = "signoff_report";
/// Where an execution stops: three prefixes of the flow and all of it.
const EXECUTE_TARGETS: [&str; 4] = ["rtl", "netlist", "placed_db", TARGET];

fn manager() -> Hercules {
    Hercules::new(
        examples::asic_flow(),
        ToolLibrary::standard(),
        Team::of_size(2),
        11,
    )
}

/// A new manager over a copy of `warm`'s database, given `warm`'s
/// team and intuition estimates. Its clock is derived from the
/// database, and must equal `warm`'s.
fn cold(warm: &Hercules) -> Hercules {
    let store = ArenaStore::new(warm.db().clone());
    let mut cold = Hercules::with_store(
        examples::asic_flow(),
        ToolLibrary::standard(),
        warm.team.clone(),
        11,
        Box::new(store),
    );
    for (activity, &days) in &warm.estimates {
        cold.set_estimate(activity, days).expect("schema activity");
    }
    prop_assert_eq!(cold.clock(), warm.clock());
    cold
}

fn assert_estimates_current(warm: &Hercules) {
    let mut synced = warm.clone();
    synced.sync_estimates();
    let rules = synced.schema.rules();
    for (rule, kept) in synced.view.kept_estimates() {
        let activity = rules[rule].activity();
        let fresh = synced.duration_estimate(activity).expect("schema activity");
        prop_assert!(
            kept == fresh,
            "kept estimate of {activity}: {kept:?} != {fresh:?}"
        );
    }
}

/// Runs `op` on `warm` and on a cold copy taken just before it, and
/// checks both give the same result and leave the same database.
fn same_on_cold<T: PartialEq + std::fmt::Debug>(
    warm: &mut Hercules,
    op: impl Fn(&mut Hercules) -> T,
) {
    let mut cold = cold(warm);
    let (w, c) = (op(warm), op(&mut cold));
    prop_assert_eq!(w, c);
    prop_assert_eq!(warm.db().dump(), cold.db().dump());
}

/// Applies op `code` to `warm`; `saved` is a database dump a restore
/// op can go back to.
fn apply(warm: &mut Hercules, saved: &mut Option<String>, code: u64) {
    let arg = code / 10;
    let activities: Vec<String> = warm
        .schema
        .rules()
        .iter()
        .map(|r| r.activity().to_owned())
        .collect();
    let activity = activities[arg as usize % activities.len()].as_str();
    match code % 12 {
        // A small set of values, so some calls repeat the current one.
        0 | 1 => {
            let days = WorkDays::new(0.5 + (arg / 16 % 4) as f64);
            warm.set_estimate(activity, days).expect("schema activity");
        }
        2 => same_on_cold(warm, |h| h.plan(TARGET)),
        3 => same_on_cold(warm, |h| h.replan(TARGET)),
        4 => same_on_cold(warm, |h| h.forecast(TARGET)),
        5 => {
            let target = EXECUTE_TARGETS[arg as usize % EXECUTE_TARGETS.len()];
            if arg.is_multiple_of(3) {
                warm.set_fault_plan(FaultPlan::seeded(arg).with_persistent_rate(0.3));
            }
            // Blocked activities degrade the session, never error; an
            // error would still leave a state the view must follow.
            let _ = warm.execute(target);
            warm.set_fault_plan(FaultPlan::none());
        }
        6 => same_on_cold(warm, |h| h.propagate_slip(activity)),
        7 => {
            warm.gc().expect("arena gc");
        }
        10 => {
            let forecast = warm.forecast(TARGET).expect("forecastable");
            if forecast.complete == 0 {
                let plan = warm.clone().plan(TARGET).expect("plannable");
                prop_assert_eq!(plan.project_finish(), forecast.finish);
            }
            let replan = warm.clone().replan(TARGET).expect("replannable");
            prop_assert_eq!(replan.project_finish, forecast.finish);
            prop_assert_eq!(replan.len(), forecast.open);
        }
        // Back to back: on the warm side every pass after the first
        // changes nothing, so it reuses the kept levelled schedule.
        11 => same_on_cold(warm, |h| (h.plan(TARGET), h.replan(TARGET), h.plan(TARGET))),
        // Save the database, or go back to the saved one: fewer runs,
        // older plans.
        8 => match saved.take() {
            Some(dump) if arg % 2 == 1 => {
                let db = MetadataDb::load(&dump).expect("dump loads");
                warm.restore_db(db).expect("arena restore");
            }
            _ => *saved = Some(warm.db().dump()),
        },
        9 => {
            same_on_cold(warm, |h| h.sweep_team_sizes(TARGET, WorkDays::new(60.0), 3));
            same_on_cold(warm, |h| h.crash_advice(TARGET, 0.5));
        }
        _ => unreachable!("op codes are taken modulo 12"),
    }
}

props! {
    config(cases = 24);

    fn the_view_never_changes_what_planning_computes(ops in vec(0u64..768, 4..40)) {
        let mut warm = manager();
        let mut saved = None;
        for code in ops {
            apply(&mut warm, &mut saved, code);
            assert_estimates_current(&warm);
        }
    }
}
