//! Queries over the metadata database — §IV-B of the paper.
//!
//! Two query families are supported:
//!
//! * **queries into design schedule data** — "prior schedule plan data
//!   can be used as a resource. For example, a query to show the
//!   duration of an activity the last time it was performed could be
//!   used to predict the duration of the present design";
//! * **queries into design schedule metadata** — "which schedule plans
//!   were used to create the present schedule plan ... they can show
//!   the evolution of a design schedule".
//!
//! Plus execution-space queries (instance history, derivation chains)
//! that the status displays are built from.

use schedule::WorkDays;

use crate::database::MetadataDb;
use crate::ids::{EntityInstanceId, ScheduleInstanceId};

impl MetadataDb {
    /// The measured duration of `activity` the last time it completed —
    /// the elapsed time from the activity's first run of that iteration
    /// cycle to the linked final instance. Returns the duration of the
    /// most recent *finished* run when no completion link exists yet.
    pub fn last_duration(&self, activity: &str) -> Option<WorkDays> {
        // Prefer the linked completion: first-run start to final
        // instance creation.
        if let (Some(start), Some(finish)) =
            (self.actual_start(activity), self.actual_finish(activity))
        {
            return Some(finish.saturating_sub(start));
        }
        self.history_of(activity).rev().find_map(|r| r.duration())
    }

    /// All measured run durations of `activity`, oldest first — the
    /// history a prediction model consumes.
    pub fn duration_history(&self, activity: &str) -> Vec<WorkDays> {
        self.history_of(activity)
            .filter_map(|r| r.duration())
            .collect()
    }

    /// The provenance chain of a schedule instance, newest first:
    /// `sc` itself, the plan it was derived from, and so on back to the
    /// original plan — "the evolution of a design schedule".
    ///
    /// # Panics
    ///
    /// Panics if `sc` is not from this database.
    pub fn plan_evolution(&self, sc: ScheduleInstanceId) -> Vec<ScheduleInstanceId> {
        let mut chain = vec![sc];
        let mut current = sc;
        while let Some(prev) = self.schedule_instance(current).derived_from() {
            chain.push(prev);
            current = prev;
        }
        chain
    }

    /// The derivation cone of an entity instance: every instance it
    /// transitively depends on, in dependency order (inputs before the
    /// instances derived from them), ending with `id` itself.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this database.
    pub fn derivation_of(&self, id: EntityInstanceId) -> Vec<EntityInstanceId> {
        // Instance ids are allocated in creation order, and an instance
        // can only depend on instances created before it, so a simple
        // reverse-DFS + sort is a topological order.
        let mut seen = vec![id];
        let mut stack = vec![id];
        while let Some(v) = stack.pop() {
            for &dep in self.entity_instance(v).depends_on() {
                if !seen.contains(&dep) {
                    seen.push(dep);
                    stack.push(dep);
                }
            }
        }
        seen.sort();
        seen
    }

    /// Activities whose latest plan is complete (linked to final design
    /// data), sorted.
    pub fn completed_activities(&self) -> Vec<&str> {
        self.activities()
            .filter(|a| self.current_plan(a).is_some_and(|sc| sc.is_complete()))
            .collect()
    }

    /// Activities that have started (some run exists) but whose latest
    /// plan is not complete, sorted.
    pub fn in_progress_activities(&self) -> Vec<&str> {
        self.activities()
            .filter(|a| {
                self.actual_start(a).is_some()
                    && !self.current_plan(a).is_some_and(|sc| sc.is_complete())
            })
            .collect()
    }

    /// Activities with a current plan but no runs yet, sorted.
    pub fn pending_activities(&self) -> Vec<&str> {
        self.activities()
            .filter(|a| self.current_plan(a).is_some() && self.actual_start(a).is_none())
            .collect()
    }

    /// Finish slip of `activity` in days (positive = late) against its
    /// *latest* plan. `None` until completion is linked.
    pub fn finish_slip(&self, activity: &str) -> Option<f64> {
        let plan = self.current_plan(activity)?;
        let actual = self.actual_finish(activity)?;
        Some(actual.days() - plan.planned_finish().days())
    }

    /// Entity instances created by `designer`, oldest first — the
    /// who-did-what query behind per-designer workload views.
    pub fn instances_by(&self, designer: &str) -> Vec<EntityInstanceId> {
        let mut out: Vec<EntityInstanceId> = self
            .entity_classes()
            .map(str::to_owned)
            .collect::<Vec<_>>()
            .iter()
            .flat_map(|class| {
                self.entity_container(class)
                    .expect("listed class exists")
                    .to_vec()
            })
            .filter(|&id| self.entity_instance(id).creator() == designer)
            .collect();
        out.sort();
        out
    }

    /// Runs whose span intersects the half-open window `[from, to)`,
    /// oldest first. Unfinished runs are treated as extending to the
    /// window end.
    pub fn runs_between(&self, from: WorkDays, to: WorkDays) -> Vec<&crate::Run> {
        self.runs()
            .iter()
            .filter(|r| {
                let start = r.started_at().days();
                let end = r.finished_at().map_or(f64::INFINITY, |f| f.days());
                start < to.days() && end > from.days()
            })
            .collect()
    }

    /// Total measured run time per designer, sorted busiest first —
    /// the utilisation data resource optimization needs.
    pub fn workload_by_designer(&self) -> Vec<(String, WorkDays)> {
        let mut totals: std::collections::BTreeMap<String, f64> = Default::default();
        for run in self.runs() {
            if let Some(d) = run.duration() {
                *totals.entry(run.operator().to_owned()).or_default() += d.days();
            }
        }
        let mut out: Vec<(String, WorkDays)> = totals
            .into_iter()
            .map(|(name, days)| (name, WorkDays::new(days)))
            .collect();
        out.sort_by(|a, b| b.1.days().total_cmp(&a.1.days()).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;

    /// Builds a database with a full plan/execute/link cycle on the
    /// paper's circuit schema.
    fn populated() -> (MetadataDb, ScheduleInstanceId, EntityInstanceId) {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        let session = db.begin_planning(WorkDays::ZERO);
        let sc_create = db
            .plan_activity(session, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        let sc_sim = db
            .plan_activity(session, "Simulate", WorkDays::new(2.0), WorkDays::new(3.0))
            .unwrap();

        let stim_data = db.store_data("vec.stim", b"0101".to_vec());
        let stim = db
            .supply_input("stimuli", "alice", WorkDays::ZERO, stim_data)
            .unwrap();

        // Create iterates twice before the designer is satisfied.
        let d1 = db.store_data("v1.net", b"bad".to_vec());
        let r1 = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        let _e1 = db
            .finish_run(r1, "netlist", d1, WorkDays::new(1.0), &[])
            .unwrap();
        let d2 = db.store_data("v2.net", b"good".to_vec());
        let r2 = db.begin_run("Create", "alice", WorkDays::new(1.0)).unwrap();
        let e2 = db
            .finish_run(r2, "netlist", d2, WorkDays::new(2.5), &[])
            .unwrap();
        db.link_completion(sc_create, e2).unwrap();

        // Simulate runs once using the final netlist + stimuli.
        let d3 = db.store_data("perf.rpt", b"ok".to_vec());
        let r3 = db.begin_run("Simulate", "bob", WorkDays::new(2.5)).unwrap();
        let e3 = db
            .finish_run(r3, "performance", d3, WorkDays::new(4.0), &[e2, stim])
            .unwrap();
        db.link_completion(sc_sim, e3).unwrap();
        (db, sc_create, e3)
    }

    #[test]
    fn last_duration_prefers_linked_completion() {
        let (db, _, _) = populated();
        // Create: first run started at 0, final instance at 2.5.
        assert_eq!(db.last_duration("Create"), Some(WorkDays::new(2.5)));
        // Simulate: 2.5 → 4.0.
        assert_eq!(db.last_duration("Simulate"), Some(WorkDays::new(1.5)));
        assert_eq!(db.last_duration("ghost"), None);
    }

    #[test]
    fn duration_history_lists_all_runs() {
        let (db, _, _) = populated();
        let hist = db.duration_history("Create");
        assert_eq!(hist, vec![WorkDays::new(1.0), WorkDays::new(1.5)]);
    }

    #[test]
    fn plan_evolution_walks_versions() {
        let (mut db, sc1, _) = populated();
        let s2 = db.begin_planning(WorkDays::new(5.0));
        let sc2 = db
            .plan_activity(s2, "Create", WorkDays::new(1.0), WorkDays::new(2.0))
            .unwrap();
        let s3 = db.begin_planning(WorkDays::new(6.0));
        let sc3 = db
            .plan_activity(s3, "Create", WorkDays::new(2.0), WorkDays::new(2.0))
            .unwrap();
        assert_eq!(db.plan_evolution(sc3), vec![sc3, sc2, sc1]);
        assert_eq!(db.plan_evolution(sc1), vec![sc1]);
    }

    #[test]
    fn derivation_cone() {
        let (db, _, perf) = populated();
        let chain = db.derivation_of(perf);
        // performance depends on netlist v2 and stimuli; not netlist v1.
        assert_eq!(chain.len(), 3);
        assert_eq!(*chain.last().unwrap(), perf);
        let classes: Vec<&str> = chain
            .iter()
            .map(|&id| db.entity_instance(id).class())
            .collect();
        assert!(classes.contains(&"stimuli"));
        assert!(classes.contains(&"netlist"));
    }

    #[test]
    fn status_rollups() {
        let (db, _, _) = populated();
        assert_eq!(db.completed_activities(), vec!["Create", "Simulate"]);
        assert!(db.in_progress_activities().is_empty());
        assert!(db.pending_activities().is_empty());
    }

    #[test]
    fn status_rollups_partial() {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        let s = db.begin_planning(WorkDays::ZERO);
        db.plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        db.plan_activity(s, "Simulate", WorkDays::new(2.0), WorkDays::new(3.0))
            .unwrap();
        assert_eq!(db.pending_activities(), vec!["Create", "Simulate"]);
        let run = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        assert_eq!(db.in_progress_activities(), vec!["Create"]);
        assert_eq!(db.pending_activities(), vec!["Simulate"]);
        let data = db.store_data("x", vec![]);
        let e = db
            .finish_run(run, "netlist", data, WorkDays::new(1.0), &[])
            .unwrap();
        let sc = db.current_plan("Create").unwrap().id();
        db.link_completion(sc, e).unwrap();
        assert_eq!(db.completed_activities(), vec!["Create"]);
    }

    #[test]
    fn instances_by_creator() {
        let (db, _, _) = populated();
        let alice = db.instances_by("alice");
        // alice supplied stimuli and created two netlists.
        assert_eq!(alice.len(), 3);
        for id in &alice {
            assert_eq!(db.entity_instance(*id).creator(), "alice");
        }
        assert!(db.instances_by("nobody").is_empty());
    }

    #[test]
    fn runs_between_windows() {
        let (db, _, _) = populated();
        // Runs: Create [0,1], Create [1,2.5], Simulate [2.5,4].
        assert_eq!(db.runs_between(WorkDays::ZERO, WorkDays::new(1.0)).len(), 1);
        assert_eq!(db.runs_between(WorkDays::ZERO, WorkDays::new(2.0)).len(), 2);
        assert_eq!(
            db.runs_between(WorkDays::new(2.6), WorkDays::new(3.0))
                .len(),
            1
        );
        assert!(db
            .runs_between(WorkDays::new(10.0), WorkDays::new(11.0))
            .is_empty());
        // Degenerate window.
        assert!(db
            .runs_between(WorkDays::new(1.0), WorkDays::new(1.0))
            .is_empty());
    }

    #[test]
    fn workload_sorted_busiest_first() {
        let (db, _, _) = populated();
        let workload = db.workload_by_designer();
        assert_eq!(workload.len(), 2);
        // alice ran Create twice (1.0 + 1.5 = 2.5d); bob ran Simulate (1.5d).
        assert_eq!(workload[0].0, "alice");
        assert!((workload[0].1.days() - 2.5).abs() < 1e-9);
        assert_eq!(workload[1].0, "bob");
        assert!(workload[0].1.days() >= workload[1].1.days());
    }

    #[test]
    fn finish_slip_sign() {
        let (db, _, _) = populated();
        // Create planned finish 2.0, actual 2.5 → +0.5 slip.
        assert_eq!(db.finish_slip("Create"), Some(0.5));
        // Simulate planned finish 5.0, actual 4.0 → -1.0 (early).
        assert_eq!(db.finish_slip("Simulate"), Some(-1.0));
    }
}
