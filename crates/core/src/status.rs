use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use metadata::{Assignees, ScheduleInstanceId};
use schedule::gantt::{self, GanttOptions, GanttRow};
use schedule::text::{write_padded, write_signed_days};
use schedule::variance::{self, ActivityDates, VarianceSummary};
use schedule::WorkDays;

use crate::manager::Hercules;

/// Lifecycle state of an activity, derived from the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityState {
    /// No schedule instance exists yet.
    Unplanned,
    /// Planned, no runs yet.
    Planned,
    /// Runs exist, completion not yet declared.
    InProgress,
    /// The latest plan is linked to final design data.
    Complete,
    /// The activity exhausted the execution engine's retry policy
    /// under injected faults and was replanned around — see
    /// [`Hercules::blocked_activities`].
    Blocked,
}

impl ActivityState {
    /// The state's label, as `Display` prints it.
    pub fn label(self) -> &'static str {
        match self {
            ActivityState::Unplanned => "unplanned",
            ActivityState::Planned => "planned",
            ActivityState::InProgress => "in progress",
            ActivityState::Complete => "complete",
            ActivityState::Blocked => "blocked",
        }
    }
}

impl fmt::Display for ActivityState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.label())
    }
}

/// One activity's row in a status report.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusRow {
    /// The activity (its name shared with the metadata database).
    pub activity: Arc<str>,
    /// Lifecycle state.
    pub state: ActivityState,
    /// Proposed dates from the latest plan, if planned.
    pub planned: Option<(WorkDays, WorkDays)>,
    /// Actual start (first run).
    pub actual_start: Option<WorkDays>,
    /// Actual finish (linked completion).
    pub actual_finish: Option<WorkDays>,
    /// Assigned designers from the latest plan (names shared with the
    /// metadata database).
    pub assignees: Assignees,
    /// Finish slip in days against the latest plan, once complete.
    pub slip: Option<f64>,
}

/// A point-in-time comparison of "the status of the execution of a task
/// with the schedule plan" (§IV-B), consumable as a Gantt chart, a
/// variance summary, or rows.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    rows: Vec<StatusRow>,
    status_date: WorkDays,
    /// Row positions sorted by activity name: the schema's
    /// [`rule_positions_by_name`](schema::TaskSchema::rule_positions_by_name),
    /// since rows follow the schema's rules.
    by_name: Arc<[usize]>,
}

impl StatusReport {
    /// Per-activity rows, in schema activity order.
    pub fn rows(&self) -> &[StatusRow] {
        &self.rows
    }

    /// The row for `activity`, if present: a binary search over the
    /// schema's rule positions in name order.
    pub fn row(&self, activity: &str) -> Option<&StatusRow> {
        let i = self
            .by_name
            .binary_search_by(|&r| (*self.rows[r].activity).cmp(activity))
            .ok()?;
        Some(&self.rows[self.by_name[i]])
    }

    /// The project clock when the report was taken.
    pub fn status_date(&self) -> WorkDays {
        self.status_date
    }

    /// Number of complete activities.
    pub fn complete_count(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.state == ActivityState::Complete)
            .count()
    }

    /// Number of activities that finished late against their latest
    /// plan.
    pub fn slipped_count(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.slip.is_some_and(|s| s > 0.0))
            .count()
    }

    /// Renders the Fig. 8 style Gantt chart: planned bars with
    /// accomplished bars overlaid.
    pub fn gantt(&self, options: &GanttOptions) -> String {
        let rows: Vec<GanttRow> = self
            .rows
            .iter()
            .filter(|r| r.planned.is_some() || r.actual_start.is_some())
            .map(|r| {
                let (ps, pf) = r.planned.unwrap_or((
                    r.actual_start.unwrap_or(WorkDays::ZERO),
                    r.actual_finish.or(r.actual_start).unwrap_or(WorkDays::ZERO),
                ));
                let mut row = GanttRow::planned(&*r.activity, ps, pf);
                if let Some(start) = r.actual_start {
                    let end = r.actual_finish.unwrap_or(self.status_date);
                    row = row.with_actual(start, end, r.state == ActivityState::Complete);
                }
                row
            })
            .collect();
        gantt::render(&rows, options)
    }

    /// Earned-value style summary at the report's status date.
    pub fn variance(&self) -> VarianceSummary {
        self.variance_at(self.status_date)
    }

    /// Earned-value summary evaluated at an arbitrary status date —
    /// usually a *past* date, for reconstructing how SPI evolved.
    pub fn variance_at(&self, date: WorkDays) -> VarianceSummary {
        let planned = self.rows.iter().filter_map(|r| {
            let (planned_start, planned_finish) = r.planned?;
            Some(ActivityDates {
                planned_start,
                planned_finish,
                actual_start: r.actual_start,
                actual_finish: r.actual_finish,
            })
        });
        variance::summarize_dates(planned, date)
    }

    /// The earned-value trajectory: one [`VarianceSummary`] per sample
    /// date from day 0 to the status date, inclusive. `samples >= 2`.
    ///
    /// # Panics
    ///
    /// Panics if `samples < 2`.
    pub fn variance_series(&self, samples: usize) -> Vec<(WorkDays, VarianceSummary)> {
        assert!(samples >= 2, "a series needs at least two samples");
        let end = self.status_date.days();
        (0..samples)
            .map(|i| {
                let t = WorkDays::new(end * i as f64 / (samples - 1) as f64);
                (t, self.variance_at(t))
            })
            .collect()
    }

    /// Writes the status table — a header line and one line per
    /// activity with its state, plan, actuals and slip — to `out` in one
    /// pass. `Display` prints the same text through this.
    ///
    /// # Errors
    ///
    /// Only what `out` returns; writing to a `String` cannot fail.
    pub fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("status at day ")?;
        self.status_date.write_to(out)?;
        out.write_str(":\n")?;
        for row in &self.rows {
            out.write_str("  ")?;
            write_padded(out, &row.activity, 16)?;
            out.write_char(' ')?;
            write_padded(out, row.state.label(), 12)?;
            if let Some((ps, pf)) = row.planned {
                out.write_str(" plan [")?;
                ps.write_to(out)?;
                out.write_str(" .. ")?;
                pf.write_to(out)?;
                out.write_char(']')?;
            }
            if let (Some(s), Some(e)) = (row.actual_start, row.actual_finish) {
                out.write_str(" actual [")?;
                s.write_to(out)?;
                out.write_str(" .. ")?;
                e.write_to(out)?;
                out.write_char(']')?;
            }
            if let Some(slip) = row.slip {
                out.write_str(" slip ")?;
                write_signed_days(out, slip)?;
            }
            out.write_char('\n')?;
        }
        Ok(())
    }

    /// A capacity that holds the [`write_to`](Self::write_to) text when
    /// names fit their column and dates are under 10 000 days, for
    /// sizing the buffer it is written into.
    pub fn text_capacity(&self) -> usize {
        // Per row: indent, two columns and the newline; a plan and
        // actuals of two dates of up to 8 characters each; a slip.
        let row = |r: &StatusRow| {
            32 + if r.planned.is_some() { 28 } else { 0 }
                + if r.actual_finish.is_some() { 30 } else { 0 }
                + if r.slip.is_some() { 16 } else { 0 }
        };
        32 + self.rows.iter().map(row).sum::<usize>()
    }
}

impl fmt::Display for StatusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl Hercules {
    /// Takes a status report at the current project clock: every
    /// activity of the schema with its plan, actuals, and slip.
    ///
    /// This is the automatic update the paper's intro promises: no
    /// designer reports status to a project manager; the flow manager
    /// *is* the source of truth.
    ///
    /// One pass over the schema: each activity's schedule container is
    /// found by walking the database's name-ordered containers beside
    /// the schema's rules in name order, and its actual start is one
    /// probe of the run index (none while nothing has run). Rows share
    /// the database's activity and designer names.
    pub fn status(&self) -> StatusReport {
        let db = self.store.db();
        let rules = self.schema.rules();
        let by_name = self.schema.rule_positions_by_name();
        let mut containers: Vec<Option<(&Arc<str>, &[ScheduleInstanceId])>> =
            vec![None; rules.len()];
        let mut walk = db.schedule_containers_by_name().peekable();
        for &r in by_name.iter() {
            let activity = rules[r].activity();
            while let Some(&(name, ids)) = walk.peek() {
                match (**name).cmp(activity) {
                    Ordering::Less => {
                        walk.next();
                    }
                    Ordering::Equal => {
                        containers[r] = Some((name, ids));
                        walk.next();
                        break;
                    }
                    Ordering::Greater => break,
                }
            }
        }
        let any_runs = !db.runs().is_empty();
        let rows = rules
            .iter()
            .zip(containers)
            .map(|(rule, container)| {
                // The current plan serves the plan, the actual finish
                // and the slip.
                let (activity, plan) = match container {
                    Some((name, ids)) => (
                        Arc::clone(name),
                        ids.last().map(|&id| db.schedule_instance(id)),
                    ),
                    None => (Arc::from(rule.activity()), None),
                };
                let planned = plan.map(|p| (p.planned_start(), p.planned_finish()));
                let assignees = plan.map(|p| p.shared_assignees()).unwrap_or_default();
                let actual_start = if any_runs {
                    db.actual_start(&activity)
                } else {
                    None
                };
                let actual_finish = plan
                    .and_then(|p| p.linked_entity())
                    .map(|e| db.entity_instance(e).created_at());
                let complete = plan.is_some_and(|p| p.is_complete());
                let state = if !complete && self.blocked.contains(&*activity) {
                    ActivityState::Blocked
                } else {
                    match (plan, actual_start, actual_finish) {
                        (None, None, _) => ActivityState::Unplanned,
                        (None, Some(_), _) => ActivityState::InProgress,
                        (Some(_), _, _) if complete => ActivityState::Complete,
                        (Some(_), Some(_), _) => ActivityState::InProgress,
                        (Some(_), None, _) => ActivityState::Planned,
                    }
                };
                let slip = planned
                    .zip(actual_finish)
                    .map(|((_, finish), actual)| actual.days() - finish.days());
                StatusRow {
                    activity,
                    state,
                    planned,
                    actual_start,
                    actual_finish,
                    assignees,
                    slip,
                }
            })
            .collect();
        StatusReport {
            rows,
            status_date: self.clock,
            by_name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;
    use simtools::{workload::Team, ToolLibrary};

    fn manager() -> Hercules {
        Hercules::new(
            examples::circuit_design(),
            ToolLibrary::standard(),
            Team::of_size(2),
            42,
        )
    }

    #[test]
    fn unplanned_project_status() {
        let h = manager();
        let status = h.status();
        assert_eq!(status.rows().len(), 2);
        assert!(status
            .rows()
            .iter()
            .all(|r| r.state == ActivityState::Unplanned));
        assert_eq!(status.complete_count(), 0);
    }

    #[test]
    fn planned_then_executed_states() {
        let mut h = manager();
        h.plan("performance").unwrap();
        let status = h.status();
        assert!(status
            .rows()
            .iter()
            .all(|r| r.state == ActivityState::Planned));
        h.execute("performance").unwrap();
        let status = h.status();
        assert_eq!(status.complete_count(), 2);
        let row = status.row("Create").unwrap();
        assert!(row.actual_finish.is_some());
        assert!(row.slip.is_some());
    }

    #[test]
    fn gantt_renders_planned_and_actual() {
        let mut h = manager();
        h.plan("performance").unwrap();
        h.execute("performance").unwrap();
        let chart = h.status().gantt(&GanttOptions {
            ascii: true,
            ..GanttOptions::default()
        });
        assert!(chart.contains("Create"));
        assert!(chart.contains("Simulate"));
        assert!(chart.contains('#'));
        assert!(chart.contains("[done]"));
    }

    #[test]
    fn variance_after_execution() {
        let mut h = manager();
        h.plan("performance").unwrap();
        h.execute("performance").unwrap();
        let v = h.status().variance();
        // Everything is finished by the status date, so EV covers all
        // planned work that was scheduled by then.
        assert!(v.earned_value > 0.0);
    }

    #[test]
    fn variance_series_is_monotone_in_pv() {
        let mut h = manager();
        h.plan("performance").unwrap();
        h.execute("performance").unwrap();
        let series = h.status().variance_series(6);
        assert_eq!(series.len(), 6);
        assert_eq!(series[0].0, schedule::WorkDays::ZERO);
        for w in series.windows(2) {
            // PV and EV both accumulate over time.
            assert!(w[1].1.planned_value >= w[0].1.planned_value - 1e-9);
            assert!(w[1].1.earned_value >= w[0].1.earned_value - 1e-9);
        }
        // At the end, everything completed is earned.
        let last = &series.last().unwrap().1;
        assert!(last.earned_value > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn variance_series_needs_two_samples() {
        let h = manager();
        let _ = h.status().variance_series(1);
    }

    #[test]
    fn display_lists_every_activity() {
        let mut h = manager();
        h.plan("performance").unwrap();
        let text = h.status().to_string();
        assert!(text.contains("Create"));
        assert!(text.contains("planned"));
    }

    #[test]
    fn state_display() {
        assert_eq!(ActivityState::InProgress.to_string(), "in progress");
        assert_eq!(ActivityState::Complete.to_string(), "complete");
        assert_eq!(ActivityState::Blocked.to_string(), "blocked");
        // Width and alignment apply, as the status table needs.
        assert_eq!(
            format!("[{:<12}]", ActivityState::Planned),
            "[planned     ]"
        );
        assert_eq!(format!("[{:>9}]", ActivityState::Complete), "[ complete]");
    }

    #[test]
    fn blocked_activity_surfaces_in_status() {
        let mut h = manager();
        h.plan("performance").unwrap();
        h.set_fault_plan(simtools::FaultPlan::breaking_tool("netlist_editor"));
        h.execute("performance").unwrap();
        let status = h.status();
        assert_eq!(status.row("Create").unwrap().state, ActivityState::Blocked);
        // Simulate was merely skipped, not blocked: it stays planned.
        assert_eq!(
            status.row("Simulate").unwrap().state,
            ActivityState::Planned
        );
        assert!(h.status().to_string().contains("blocked"));
    }

    #[test]
    fn row_finds_every_activity_of_a_layered_flow() {
        let mut h = Hercules::new(
            examples::layered(20, 50, 3),
            ToolLibrary::standard(),
            Team::of_size(8),
            1995,
        );
        h.plan("merged").unwrap();
        let status = h.status();
        assert_eq!(status.rows().len(), h.schema().rules().len());
        for (rule, row) in h.schema().rules().iter().zip(status.rows()) {
            assert_eq!(&*row.activity, rule.activity());
            let found = status.row(rule.activity()).expect("a row per activity");
            assert!(std::ptr::eq(found, row), "{}", rule.activity());
        }
        for missing in ["", "L0W", "L99W0", "Merge2", "merge"] {
            assert!(status.row(missing).is_none(), "{missing}");
        }
        assert!(status.to_string().len() <= status.text_capacity());
    }

    #[test]
    fn status_walks_past_missing_and_foreign_containers() {
        // A store built by hand: Create has no container, and two
        // containers name activities the schema does not have, one
        // sorting before every activity and one between them.
        let mut db = metadata::MetadataDb::new();
        for class in ["netlist", "stimuli", "performance"] {
            db.declare_entity_container(class);
        }
        db.declare_schedule_container("Aardvark", "netlist");
        db.declare_schedule_container("Middle", "netlist");
        db.declare_schedule_container("Simulate", "performance");
        let h = Hercules::with_store(
            examples::circuit_design(),
            ToolLibrary::standard(),
            Team::of_size(2),
            42,
            Box::new(metadata::ArenaStore::new(db)),
        );
        let status = h.status();
        let names: Vec<&str> = status.rows().iter().map(|r| &*r.activity).collect();
        assert_eq!(names, ["Create", "Simulate"]);
        assert!(status
            .rows()
            .iter()
            .all(|r| r.state == ActivityState::Unplanned));
        assert_eq!(
            status.row("Simulate").unwrap().activity.as_ref(),
            "Simulate"
        );
        assert!(status.row("Aardvark").is_none());
    }
}
