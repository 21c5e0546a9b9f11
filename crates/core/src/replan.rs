use metadata::ScheduleInstanceId;
use schedule::WorkDays;

use crate::error::HerculesError;
use crate::manager::Hercules;

/// The result of a replanning step: which schedule instances were
/// created and the new proposed project finish.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanOutcome {
    /// New schedule instance versions, one per replanned activity.
    pub replanned: Vec<(String, ScheduleInstanceId)>,
    /// The updated proposed finish of the affected scope.
    pub project_finish: WorkDays,
    /// The slip (in days) that triggered the replan, if it was a slip
    /// propagation.
    pub slip_days: Option<f64>,
}

impl ReplanOutcome {
    /// Number of schedule instances created.
    pub fn len(&self) -> usize {
        self.replanned.len()
    }

    /// Returns `true` if nothing needed replanning.
    pub fn is_empty(&self) -> bool {
        self.replanned.is_empty()
    }
}

impl Hercules {
    /// Full replan of `target`: a fresh planning pass (new schedule
    /// instance versions for every *open* activity in scope) using the
    /// latest duration estimates — which now include any measured
    /// history, so replanning after execution "uses previous schedule
    /// information for planning future projects".
    ///
    /// Completed activities keep their (linked) plans and recorded
    /// actual dates; only open work is reversioned. The versioned
    /// database never rewrites history.
    ///
    /// Repeated replans of an unchanged scope are served by the
    /// incremental replan engine: the precedence network and CPM state
    /// are cached per target, and only activities whose duration
    /// estimates moved since the last pass are recomputed (observable
    /// via the `hercules.plan.*` metrics and the recorded
    /// `hercules.plan` span fields).
    ///
    /// # Errors
    ///
    /// Same as [`plan`](Hercules::plan).
    pub fn replan(&mut self, target: &str) -> Result<ReplanOutcome, HerculesError> {
        obs::Collector::set_sim_md(self.clock.millidays());
        let mut replan_span = obs::span!("hercules.replan", target = target);
        let tree = self.task_tree(target)?;
        let (completed, start) = self.open_scope(&tree);
        let completed_count = completed.iter().filter(|&&c| c).count();
        replan_span.record("completed", completed_count);
        if completed_count == tree.len() {
            replan_span.record("replanned", 0usize);
            return Ok(ReplanOutcome {
                replanned: Vec::new(),
                project_finish: start,
                slip_days: None,
            });
        }
        // Open work starts no earlier than the actual finishes of
        // completed prerequisites; `plan_scope` plans from the clock.
        self.advance_clock(start);
        let plan = self.plan_scope(target, &completed)?;
        let replanned: Vec<(String, ScheduleInstanceId)> = plan
            .activities()
            .iter()
            .map(|pa| (pa.activity.clone(), pa.schedule))
            .collect();
        replan_span.record("replanned", replanned.len());
        Ok(ReplanOutcome {
            replanned,
            project_finish: plan.project_finish(),
            slip_days: None,
        })
    }

    /// Incremental slip propagation — the paper's automatic update:
    /// "if any slip in the schedule occurs, the schedule plan updates
    /// automatically to reflect the new schedule" (§IV-C).
    ///
    /// Compares `activity`'s actual finish against its latest plan;
    /// when late, creates shifted versions of every *incomplete*
    /// downstream schedule instance (planned start += slip), leaving
    /// durations and assignments intact. This touches only the
    /// downstream cone, unlike [`replan`](Hercules::replan) which
    /// reprices the whole scope.
    ///
    /// # Errors
    ///
    /// * [`HerculesError::UnknownActivity`] — `activity` not in the
    ///   schema.
    /// * [`HerculesError::NotPlanned`] — no plan to compare against.
    pub fn propagate_slip(&mut self, activity: &str) -> Result<ReplanOutcome, HerculesError> {
        obs::Collector::set_sim_md(self.clock.millidays());
        let mut slip_span = obs::span!("hercules.propagate_slip", activity = activity);
        let Some(root) = self.schema.rule_position(activity) else {
            return Err(HerculesError::UnknownActivity(activity.to_owned()));
        };
        let Some(slip) = self.store.db().finish_slip(activity) else {
            // Either not planned or not complete yet.
            if self.store.db().current_plan(activity).is_none() {
                return Err(HerculesError::NotPlanned(activity.to_owned()));
            }
            return Ok(ReplanOutcome {
                replanned: Vec::new(),
                project_finish: self.clock,
                slip_days: None,
            });
        };
        if slip <= 0.0 {
            return Ok(ReplanOutcome {
                replanned: Vec::new(),
                project_finish: self.clock,
                slip_days: Some(slip),
            });
        }
        // Downstream cone: activities consuming this activity's output,
        // transitively, in depth-first discovery order — a walk over
        // the schema's consumer index, by rule position.
        let rules = self.schema.rules();
        let mut affected: Vec<&str> = Vec::new();
        let mut seen = vec![false; rules.len()];
        let mut frontier = vec![root];
        while let Some(current) = frontier.pop() {
            for &consumer in self.schema.consumer_positions(rules[current].output()) {
                if !seen[consumer] {
                    seen[consumer] = true;
                    affected.push(rules[consumer].activity());
                    frontier.push(consumer);
                }
            }
        }
        let session = self.store.begin_planning(self.clock);
        let mut replanned = Vec::new();
        let mut project_finish = self.clock;
        for &name in &affected {
            let Some(plan) = self.store.db().current_plan(name) else {
                continue;
            };
            if plan.is_complete() {
                continue;
            }
            let new_start = plan.planned_start() + WorkDays::new(slip);
            let duration = plan.planned_duration();
            let assignees = plan.assignees().to_vec();
            let sc = self
                .store
                .plan_activity(session, name, new_start, duration)?;
            for a in assignees {
                self.store.assign(sc, &a)?;
            }
            project_finish = project_finish.max(new_start + duration);
            replanned.push((name.to_owned(), sc));
        }
        slip_span.record("slip_days", slip);
        slip_span.record("replanned", replanned.len());
        Ok(ReplanOutcome {
            replanned,
            project_finish,
            slip_days: Some(slip),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadata::{ArenaStore, MetadataDb};
    use schema::examples;
    use simtools::{workload::Team, ToolLibrary};

    fn asic() -> Hercules {
        Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(3),
            5,
        )
    }

    #[test]
    fn replan_after_partial_execution() {
        let mut h = asic();
        h.plan("signoff_report").unwrap();
        // Execute only the front of the flow.
        h.execute("netlist").unwrap();
        let outcome = h.replan("signoff_report").unwrap();
        // Open activities replanned; completed ones untouched.
        assert!(!outcome.is_empty());
        assert!(outcome.len() < 9);
        let names: Vec<&str> = outcome.replanned.iter().map(|(n, _)| n.as_str()).collect();
        assert!(!names.contains(&"Synthesize") || h.db().current_plan("Synthesize").is_some());
        assert!(!names.contains(&"WriteRtl"), "completed work reversioned");
        // New versions have provenance.
        for (_, sc) in &outcome.replanned {
            assert!(h.db().schedule_instance(*sc).version() >= 2);
        }
    }

    /// Completing the front of the flow moves no open activity to
    /// another designer: an assignee keys on its rule's dependency
    /// rank, not on its position in the replanned scope.
    #[test]
    fn replan_keeps_every_open_assignee() {
        let mut h = asic();
        let plan = h.plan("signoff_report").unwrap();
        h.execute("spec").unwrap();
        let outcome = h.replan("signoff_report").unwrap();
        assert_eq!(outcome.len(), 8);
        for (name, sc) in &outcome.replanned {
            let planned = &plan.activity(name).unwrap().assignee;
            assert_eq!(
                h.db().schedule_instance(*sc).assignees(),
                [planned.as_str().into()],
                "{name} moved to another designer"
            );
        }
    }

    #[test]
    fn replan_complete_project_is_noop() {
        let mut h = asic();
        h.plan("signoff_report").unwrap();
        h.execute("signoff_report").unwrap();
        let outcome = h.replan("signoff_report").unwrap();
        assert!(outcome.is_empty());
    }

    #[test]
    fn propagate_slip_shifts_downstream_only() {
        let mut h = asic();
        h.plan("signoff_report").unwrap();
        // Execute WriteRtl's scope so it completes (probably late or
        // early; find a seed where it slips).
        let mut seed = 0;
        let slipping = loop {
            let mut candidate = Hercules::new(
                examples::asic_flow(),
                ToolLibrary::standard(),
                Team::of_size(3),
                seed,
            );
            candidate.plan("signoff_report").unwrap();
            candidate.execute("rtl").unwrap();
            if candidate
                .db()
                .finish_slip("WriteRtl")
                .is_some_and(|s| s > 0.0)
            {
                break candidate;
            }
            seed += 1;
            assert!(seed < 200, "no slipping seed found");
        };
        let mut h = slipping;
        let before: Vec<(String, WorkDays)> = h
            .db()
            .activities()
            .map(|a| {
                (
                    a.to_owned(),
                    h.db().current_plan(a).unwrap().planned_start(),
                )
            })
            .collect();
        let outcome = h.propagate_slip("WriteRtl").unwrap();
        let slip = outcome.slip_days.unwrap();
        assert!(slip > 0.0);
        // Downstream of rtl: VerifyRtl, Synthesize, Floorplan, ... all
        // incomplete, so replanned with shifted starts.
        assert!(!outcome.is_empty());
        for (name, sc) in &outcome.replanned {
            let new_start = h.db().schedule_instance(*sc).planned_start();
            let old_start = before
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .unwrap();
            assert_eq!(
                new_start - old_start,
                WorkDays::new(slip),
                "{name} shifted by other than the slip"
            );
        }
        // CaptureSpec is upstream: never replanned.
        assert!(outcome.replanned.iter().all(|(n, _)| n != "CaptureSpec"));
    }

    /// The last `hercules.plan` span from this thread (lane 0) — the
    /// probe replacing the removed `last_plan_stats` accessor.
    fn plan_span(trace: &obs::Trace) -> obs::SpanView {
        trace
            .spans()
            .into_iter()
            .rfind(|s| s.name == "hercules.plan" && s.lane == 0)
            .expect("a planning pass was traced")
    }

    #[test]
    fn repeated_replan_is_served_incrementally() {
        let mut h = asic();
        h.plan("signoff_report").unwrap();
        h.execute("netlist").unwrap();
        // First replan after completions: the scope shrank, so the
        // cached network is rebuilt for the new scope.
        let session = obs::Collector::session();
        let o1 = h.replan("signoff_report").unwrap();
        let first = plan_span(&session.finish());
        assert_eq!(first.arg("cache_hit"), Some(&obs::ArgValue::Bool(false)));
        // Second replan with nothing new: pure cache hit, zero CPM
        // recomputation, identical proposal.
        let session = obs::Collector::session();
        let o2 = h.replan("signoff_report").unwrap();
        let stats = plan_span(&session.finish());
        assert_eq!(stats.arg("cache_hit"), Some(&obs::ArgValue::Bool(true)));
        assert_eq!(stats.arg("dirty"), Some(&obs::ArgValue::U64(0)));
        assert_eq!(stats.arg("cpm_recomputed"), Some(&obs::ArgValue::U64(0)));
        assert_eq!(o1.project_finish, o2.project_finish);
        assert_eq!(o1.len(), o2.len());
    }

    #[test]
    fn propagate_slip_requires_plan() {
        let mut h = asic();
        assert!(matches!(
            h.propagate_slip("WriteRtl"),
            Err(HerculesError::NotPlanned(_))
        ));
        assert!(matches!(
            h.propagate_slip("Ghost"),
            Err(HerculesError::UnknownActivity(_))
        ));
    }

    /// A manager over a circuit database in which Create, planned for
    /// days 0 to 2, finished at `finish`, and Simulate is planned after
    /// it.
    fn create_finished_at(finish: WorkDays) -> Hercules {
        let schema = examples::circuit_design();
        let mut db = MetadataDb::for_schema(&schema);
        let s = db.begin_planning(WorkDays::ZERO);
        let create = db
            .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        db.plan_activity(s, "Simulate", WorkDays::new(2.0), WorkDays::new(1.0))
            .unwrap();
        let run = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        let data = db.store_data("netlist.v1", vec![1]);
        let netlist = db.finish_run(run, "netlist", data, finish, &[]).unwrap();
        db.link_completion(create, netlist).unwrap();
        Hercules::with_store(
            schema,
            ToolLibrary::standard(),
            Team::of_size(2),
            5,
            Box::new(ArenaStore::new(db)),
        )
    }

    #[test]
    fn a_finish_on_plan_propagates_nothing() {
        let mut h = create_finished_at(WorkDays::new(2.0));
        let outcome = h.propagate_slip("Create").unwrap();
        assert_eq!(outcome.slip_days, Some(0.0));
        assert!(outcome.is_empty());
    }

    #[test]
    fn a_finish_one_milli_day_late_shifts_its_cone() {
        let mut h = create_finished_at(WorkDays::new(2.001));
        let outcome = h.propagate_slip("Create").unwrap();
        let [(name, sc)] = outcome.replanned.as_slice() else {
            panic!("one activity downstream: {:?}", outcome.replanned);
        };
        assert_eq!(name, "Simulate");
        let shifted = h.db().schedule_instance(*sc);
        assert_eq!(shifted.planned_start(), WorkDays::new(2.001));
        assert_eq!(shifted.planned_duration(), WorkDays::new(1.0));
        assert_eq!(outcome.project_finish, WorkDays::new(3.001));
    }

    #[test]
    fn propagate_no_slip_is_noop() {
        let mut h = asic();
        h.plan("signoff_report").unwrap();
        // Not complete yet → no slip information → no-op.
        let outcome = h.propagate_slip("WriteRtl").unwrap();
        assert!(outcome.is_empty());
    }
}
