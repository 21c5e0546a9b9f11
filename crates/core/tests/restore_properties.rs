//! Seeded property: a manager restored from the dump is the live one.
//!
//! Plans, the store and the clock share one time unit, whole
//! milli-days, so the dump holds every date the live manager holds.
//! After each step of a random sequence of plans, estimate changes,
//! executions (of a prefix of the flow or all of it), replans and
//! forecasts, a manager built from the live one's dump — given the
//! same team, seed and intuition estimates, which are session state —
//! reads the same clock, renders the same status, forecasts the same,
//! and plans the same proposal into the same database.

use std::collections::BTreeMap;

use harness::prelude::*;
use hercules::Hercules;
use metadata::{ArenaStore, MetadataDb};
use schedule::WorkDays;
use schema::examples;
use simtools::{workload::Team, ToolLibrary};

const TARGET: &str = "signoff_report";
/// Where an execution stops: three prefixes of the flow and all of it.
const EXECUTE_TARGETS: [&str; 4] = ["rtl", "netlist", "placed_db", TARGET];
const SEED: u64 = 23;

fn team() -> Team {
    Team::of_size(2)
}

fn live() -> Hercules {
    Hercules::new(examples::asic_flow(), ToolLibrary::standard(), team(), SEED)
}

/// A manager over `live`'s dump, loaded back, with the intuition
/// estimates `live` was given.
fn restored(live: &Hercules, intuitions: &BTreeMap<String, WorkDays>) -> Hercules {
    let db = MetadataDb::load(&live.db().dump()).expect("the dump loads");
    let mut h = Hercules::with_store(
        examples::asic_flow(),
        ToolLibrary::standard(),
        team(),
        SEED,
        Box::new(ArenaStore::new(db)),
    );
    for (activity, &days) in intuitions {
        h.set_estimate(activity, days).expect("schema activity");
    }
    h
}

/// Checks the restored copy of `live` against it, leaving `live` as
/// it was.
fn assert_restored_is_live(live: &Hercules, intuitions: &BTreeMap<String, WorkDays>) {
    let mut cold = restored(live, intuitions);
    prop_assert_eq!(cold.clock(), live.clock());
    prop_assert_eq!(cold.status().to_string(), live.status().to_string());
    prop_assert_eq!(
        format!("{:?}", cold.forecast(TARGET)),
        format!("{:?}", live.forecast(TARGET))
    );
    let mut warm = live.clone();
    prop_assert_eq!(
        format!("{:?}", cold.plan(TARGET)),
        format!("{:?}", warm.plan(TARGET))
    );
    prop_assert_eq!(cold.db().dump(), warm.db().dump());
}

/// Applies op `code` to `live`, recording intuition estimates it sets.
fn apply(live: &mut Hercules, intuitions: &mut BTreeMap<String, WorkDays>, code: u64) {
    let arg = code / 5;
    match code % 5 {
        0 => {
            live.plan(TARGET).expect("plannable");
        }
        1 => {
            let rules = live.schema().rules();
            let activity = rules[arg as usize % rules.len()].activity().to_owned();
            // Values that are not binary fractions, some repeated.
            let days = WorkDays::new(0.3 + (arg / 16 % 5) as f64 * 1.37);
            live.set_estimate(&activity, days).expect("schema activity");
            intuitions.insert(activity, days);
        }
        2 => {
            let target = EXECUTE_TARGETS[arg as usize % EXECUTE_TARGETS.len()];
            live.execute(target).expect("executable");
        }
        3 => {
            live.replan(TARGET).expect("replannable");
        }
        4 => {
            live.forecast(TARGET).expect("forecastable");
        }
        _ => unreachable!("op codes are taken modulo 5"),
    }
}

props! {
    config(cases = 24);

    fn a_manager_restored_from_the_dump_is_the_live_one(ops in vec(0u64..640, 2..30)) {
        let mut live = live();
        let mut intuitions = BTreeMap::new();
        for code in ops {
            apply(&mut live, &mut intuitions, code);
            assert_restored_is_live(&live, &intuitions);
        }
    }
}
