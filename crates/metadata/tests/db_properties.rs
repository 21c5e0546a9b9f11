//! Property-based tests over random operation sequences on the
//! metadata database: referential integrity, dense versioning, and
//! link validity must hold regardless of interleaving.
//!
//! Ported to the in-repo `harness` framework: `prop_oneof!` becomes
//! `one_of(...)` over boxed strategies; shrinking still minimizes the
//! failing operation sequence.

use harness::prelude::*;
use metadata::{
    ArenaStore, EntityInstanceId, MetadataDb, MetadataError, ScheduleInstanceId, Store,
};
use schedule::WorkDays;
use schema::examples;

/// An abstract operation against the circuit-schema database.
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
            // Find the newest instance produced by this activity.
            let candidate = db.runs_of(name).iter().rev().find_map(|r| r.output());
            if let Some(entity) = candidate {
                db.link_completion(sc, entity).expect("valid link");
            }
        }
    }
}

harness::props! {
    config(cases = 64);

    fn invariants_hold_under_random_ops(ops in vec(arb_op(), 0..40)) {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        let mut clock = 0.0;
        for op in &ops {
            apply(&mut db, op, &mut clock);
        }

        // Versions are dense and ordered per container.
        for class in db.entity_classes().map(str::to_owned).collect::<Vec<_>>() {
            let container = db.entity_container(&class).expect("exists");
            for (i, &id) in container.iter().enumerate() {
                let inst = db.entity_instance(id);
                prop_assert_eq!(inst.version() as usize, i + 1);
                prop_assert_eq!(inst.class(), class.as_str());
            }
        }
        for activity in db.activities().map(str::to_owned).collect::<Vec<_>>() {
            let container = db.schedule_container(&activity).expect("exists");
            for (i, &id) in container.iter().enumerate() {
                let sc = db.schedule_instance(id);
                prop_assert_eq!(sc.version() as usize, i + 1);
                // Provenance chains to the immediately preceding version.
                if i > 0 {
                    prop_assert_eq!(sc.derived_from(), Some(container[i - 1]));
                } else {
                    prop_assert_eq!(sc.derived_from(), None);
                }
            }
        }

        // Runs have ordered timestamps and dense iterations per activity.
        for activity in ACTIVITIES {
            for (i, run) in db.runs_of(activity).iter().enumerate() {
                prop_assert_eq!(run.iteration() as usize, i + 1);
                if let Some(f) = run.finished_at() {
                    prop_assert!(f.days() >= run.started_at().days());
                }
            }
        }

        // Links always target instances of the activity's output class,
        // produced by a run of that activity.
        for activity in ACTIVITIES {
            if let Some(plan) = db.current_plan(activity) {
                if let Some(entity) = plan.linked_entity() {
                    let inst = db.entity_instance(entity);
                    prop_assert_eq!(
                        inst.class(),
                        db.output_class_of(activity).expect("declared")
                    );
                    let run = db.run(inst.produced_by().expect("linked instances have runs"));
                    prop_assert_eq!(run.activity(), activity);
                }
            }
        }

        // actual_start is the min over run starts.
        if let Some(start) = db.actual_start("Create") {
            let min = db
                .runs_of("Create")
                .iter()
                .map(|r| r.started_at().days())
                .fold(f64::INFINITY, f64::min);
            prop_assert!((start.days() - min).abs() < 1e-9);
        }
    }

    fn dump_load_roundtrip_under_random_ops(ops in vec(arb_op(), 0..40)) {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        let mut clock = 0.0;
        for op in &ops {
            apply(&mut db, op, &mut clock);
        }
        let dump = db.dump();
        let loaded = MetadataDb::load(&dump).expect("own dumps load");
        prop_assert_eq!(loaded.dump(), dump);
        // Derived queries agree too.
        for activity in ACTIVITIES {
            prop_assert_eq!(loaded.actual_start(activity), db.actual_start(activity));
            prop_assert_eq!(loaded.actual_finish(activity), db.actual_finish(activity));
            prop_assert_eq!(loaded.last_duration(activity), db.last_duration(activity));
        }
    }

    /// Compaction restamps the live database; a load of its dump at
    /// the new generation is the reference. The two must not differ:
    /// the same dump, every handle held across the compaction refused
    /// with the same `StaleHandle`, and the same state after the same
    /// further ops.
    fn restamp_matches_reload_under_random_ops(
        ops in vec(arb_op(), 0..40),
        later in vec(arb_op(), 0..10),
    ) {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        let mut clock = 0.0;
        for op in &ops {
            apply(&mut db, op, &mut clock);
        }
        let mut restamped = ArenaStore::new(db.clone());
        let stats = restamped.compact().expect("a live database compacts");
        let reloaded = MetadataDb::load_at(&db.dump(), stats.generation).expect("own dumps load");
        let mut dbs = [restamped.into_db(), reloaded];
        prop_assert_eq!(dbs[0].generation(), dbs[1].generation());
        prop_assert_eq!(dbs[0].dump(), dbs[1].dump());

        let refusals = dbs.each_mut().map(|after| {
            let mut refused: Vec<Result<(), MetadataError>> = Vec::new();
            for session in db.planning_sessions() {
                let plan = after.plan_activity(session.id(), "Create", WorkDays::ZERO, WorkDays::ZERO);
                refused.push(plan.map(drop));
                for &sc in session.instances() {
                    refused.push(after.assign(sc, "carol"));
                    refused.push(after.carry_plan(session.id(), &[sc]).map(drop));
                }
            }
            for run in db.runs() {
                let inputs: Vec<EntityInstanceId> = run.output().into_iter().collect();
                for &entity in &inputs {
                    let data = db.entity_instance(entity).data();
                    let finish = after.finish_run(run.id(), "netlist", data, WorkDays::ZERO, &inputs);
                    refused.push(finish.map(drop));
                }
            }
            refused
        });
        prop_assert_eq!(&refusals[0], &refusals[1]);
        prop_assert!(refusals[0]
            .iter()
            .all(|r| matches!(r, Err(MetadataError::StaleHandle(_)))));

        let mut clocks = [clock; 2];
        for op in &later {
            for (after, clock) in dbs.iter_mut().zip(&mut clocks) {
                apply(after, op, clock);
            }
        }
        prop_assert_eq!(dbs[0].dump(), dbs[1].dump());
    }

    fn plan_evolution_is_a_version_chain(versions in 1usize..10) {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        let mut latest: Option<ScheduleInstanceId> = None;
        for v in 0..versions {
            let session = db.begin_planning(WorkDays::new(v as f64));
            latest = Some(
                db.plan_activity(session, "Create", WorkDays::ZERO, WorkDays::new(1.0))
                    .expect("known activity"),
            );
        }
        let chain = db.plan_evolution(latest.expect("planned at least once"));
        prop_assert_eq!(chain.len(), versions);
        // Newest first, versions descending.
        for (i, id) in chain.iter().enumerate() {
            prop_assert_eq!(
                db.schedule_instance(*id).version() as usize,
                versions - i
            );
        }
    }

    fn derivation_cone_is_closed(chain_len in 1usize..8) {
        // Build a dependency chain of netlist instances (each run
        // consumes the previous instance) and check the cone.
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        let mut prev: Option<EntityInstanceId> = None;
        let mut t = 0.0;
        for _ in 0..chain_len {
            let run = db.begin_run("Create", "alice", WorkDays::new(t)).expect("known");
            t += 1.0;
            let data = db.store_data("n", vec![]);
            let inputs: Vec<_> = prev.into_iter().collect();
            let id = db
                .finish_run(run, "netlist", data, WorkDays::new(t), &inputs)
                .expect("valid");
            prev = Some(id);
        }
        let last = prev.expect("built at least one");
        let cone = db.derivation_of(last);
        prop_assert_eq!(cone.len(), chain_len);
        // Closed under depends_on.
        for id in &cone {
            for dep in db.entity_instance(*id).depends_on() {
                prop_assert!(cone.contains(dep));
            }
        }
    }
}
