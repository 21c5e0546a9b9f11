//! Torn-log properties of the write-ahead journal: replaying *any*
//! prefix of a journal — the on-disk state after a crash at an
//! arbitrary point — must yield a database that passes
//! [`MetadataDb::check_invariants`], and replaying the whole journal
//! must reproduce the live database byte-for-byte.

use harness::prelude::*;
use metadata::{Journal, MetadataDb, ScheduleInstanceId};
use schedule::WorkDays;
use schema::examples;

/// An abstract operation against the circuit-schema database — the
/// same model as `db_properties`, but run with journaling enabled.
#[derive(Debug, Clone)]
enum Op {
    Plan {
        activity: usize,
        start: u16,
        duration: u16,
    },
    RunCreate {
        start: u16,
        extra: u16,
    },
    SupplyStimuli {
        at: u16,
    },
    LinkLatest {
        activity: usize,
    },
    /// One planning pass carrying the current plans of the activities
    /// in the mask (bit per activity) that have one.
    Carry {
        mask: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    one_of(vec![
        (0usize..2, any_u16(), any_u16())
            .prop_map(|(activity, start, duration)| Op::Plan {
                activity,
                start,
                duration,
            })
            .boxed(),
        (any_u16(), any_u16())
            .prop_map(|(start, extra)| Op::RunCreate { start, extra })
            .boxed(),
        any_u16().prop_map(|at| Op::SupplyStimuli { at }).boxed(),
        (0usize..2)
            .prop_map(|activity| Op::LinkLatest { activity })
            .boxed(),
        (1u32..4).prop_map(|mask| Op::Carry { mask }).boxed(),
    ])
}

const ACTIVITIES: [&str; 2] = ["Create", "Simulate"];

fn apply(db: &mut MetadataDb, op: &Op, clock: &mut f64) {
    match op {
        Op::Plan {
            activity,
            start,
            duration,
        } => {
            let session = db.begin_planning(WorkDays::new(*clock));
            db.plan_activity(
                session,
                ACTIVITIES[*activity],
                WorkDays::new(f64::from(*start) / 100.0),
                WorkDays::new(f64::from(*duration) / 100.0),
            )
            .expect("known activity");
        }
        Op::RunCreate { start, extra } => {
            let begin = clock.max(f64::from(*start) / 100.0);
            let run = db
                .begin_run("Create", "alice", WorkDays::new(begin))
                .expect("known activity");
            let end = begin + f64::from(*extra) / 100.0 + 0.01;
            let data = db.store_data("n.net", vec![1, 2, 3]);
            db.finish_run(run, "netlist", data, WorkDays::new(end), &[])
                .expect("valid finish");
            *clock = end;
        }
        Op::SupplyStimuli { at } => {
            let data = db.store_data("s.stim", vec![9]);
            db.supply_input(
                "stimuli",
                "bob",
                WorkDays::new(f64::from(*at) / 100.0),
                data,
            )
            .expect("known class");
        }
        Op::LinkLatest { activity } => {
            let name = ACTIVITIES[*activity];
            let Some(plan) = db.current_plan(name) else {
                return;
            };
            if plan.is_complete() {
                return;
            }
            let sc = plan.id();
            let candidate = db.runs_of(name).iter().rev().find_map(|r| r.output());
            if let Some(entity) = candidate {
                db.link_completion(sc, entity).expect("valid link");
            }
        }
        Op::Carry { mask } => {
            let session = db.begin_planning(WorkDays::new(*clock));
            let carried: Vec<ScheduleInstanceId> = ACTIVITIES
                .iter()
                .enumerate()
                .filter(|&(k, _)| mask & (1 << k) != 0)
                .filter_map(|(_, name)| db.current_plan(name).map(|plan| plan.id()))
                .collect();
            db.carry_plan(session, &carried)
                .expect("carryable activities");
        }
    }
}

fn journaled_session(ops: &[Op]) -> MetadataDb {
    let mut db = MetadataDb::for_schema(&examples::circuit_design());
    db.enable_journal();
    let mut clock = 0.0;
    for op in ops {
        apply(&mut db, op, &mut clock);
    }
    db
}

harness::props! {
    config(cases = 48);

    fn any_journal_prefix_recovers_consistent(ops in vec(arb_op(), 0..24)) {
        let db = journaled_session(&ops);
        let journal = db.journal().expect("journal enabled").clone();
        for n in 0..=journal.len() {
            let torn = journal.prefix(n);
            let recovered = MetadataDb::recover(&torn)
                .unwrap_or_else(|e| panic!("prefix {n}/{} failed: {e}", journal.len()));
            if let Err(violations) = recovered.check_invariants() {
                panic!(
                    "prefix {n}/{} violates invariants: {violations:?}",
                    journal.len()
                );
            }
        }
    }

    fn full_replay_reproduces_live_database(ops in vec(arb_op(), 0..24)) {
        let db = journaled_session(&ops);
        let journal = db.journal().expect("journal enabled");
        let replayed = MetadataDb::recover(journal).expect("full replay");
        prop_assert_eq!(replayed.dump(), db.dump());
        for activity in ACTIVITIES {
            prop_assert_eq!(replayed.actual_start(activity), db.actual_start(activity));
            prop_assert_eq!(replayed.actual_finish(activity), db.actual_finish(activity));
            prop_assert_eq!(replayed.last_duration(activity), db.last_duration(activity));
        }
    }

    fn journal_text_roundtrips(ops in vec(arb_op(), 0..24)) {
        let db = journaled_session(&ops);
        let journal = db.journal().expect("journal enabled");
        let parsed = Journal::parse(&journal.to_text()).expect("own text parses");
        prop_assert_eq!(&parsed, journal);
        let via_text = MetadataDb::recover(&parsed).expect("parsed journal replays");
        prop_assert_eq!(via_text.dump(), db.dump());
    }
}
