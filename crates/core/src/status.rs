use std::fmt;
use std::sync::Arc;

use schedule::gantt::{self, GanttOptions, GanttRow};
use schedule::variance::{self, ActivityStatus, VarianceSummary};
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

impl fmt::Display for ActivityState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ActivityState::Unplanned => "unplanned",
            ActivityState::Planned => "planned",
            ActivityState::InProgress => "in progress",
            ActivityState::Complete => "complete",
            ActivityState::Blocked => "blocked",
        };
        f.pad(s)
    }
}

/// One activity's row in a status report.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusRow {
    /// The activity.
    pub activity: String,
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
    pub assignees: Vec<Arc<str>>,
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
}

impl StatusReport {
    /// Per-activity rows, in schema activity order.
    pub fn rows(&self) -> &[StatusRow] {
        &self.rows
    }

    /// The row for `activity`, if present.
    pub fn row(&self, activity: &str) -> Option<&StatusRow> {
        self.rows.iter().find(|r| r.activity == activity)
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
            .filter(|r| r.slip.is_some_and(|s| s > 1e-9))
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
                let mut row = GanttRow::planned(r.activity.clone(), ps, pf);
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
        let statuses: Vec<ActivityStatus> = self
            .rows
            .iter()
            .filter_map(|r| {
                let (ps, pf) = r.planned?;
                Some(ActivityStatus {
                    name: r.activity.clone(),
                    planned_start: ps,
                    planned_finish: pf,
                    actual_start: r.actual_start,
                    actual_finish: r.actual_finish,
                })
            })
            .collect();
        variance::summarize(&statuses, date)
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
}

impl fmt::Display for StatusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "status at day {}:", self.status_date)?;
        for row in &self.rows {
            write!(f, "  {:<16} {:<12}", row.activity, row.state)?;
            if let Some((ps, pf)) = row.planned {
                write!(f, " plan [{ps} .. {pf}]")?;
            }
            if let (Some(s), Some(e)) = (row.actual_start, row.actual_finish) {
                write!(f, " actual [{s} .. {e}]")?;
            }
            if let Some(slip) = row.slip {
                write!(f, " slip {slip:+.2}d")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Hercules {
    /// Takes a status report at the current project clock: every
    /// activity of the schema with its plan, actuals, and slip.
    ///
    /// This is the automatic update the paper's intro promises: no
    /// designer reports status to a project manager; the flow manager
    /// *is* the source of truth.
    pub fn status(&self) -> StatusReport {
        let db = self.store.db();
        let rows = self
            .schema
            .rules()
            .iter()
            .map(|rule| {
                let activity = rule.activity().to_owned();
                // One lookup of the current plan serves the plan, the
                // actual finish and the slip.
                let plan = db.current_plan(&activity);
                let planned = plan.map(|p| (p.planned_start(), p.planned_finish()));
                let assignees = plan.map(|p| p.assignees().to_vec()).unwrap_or_default();
                let actual_start = db.actual_start(&activity);
                let actual_finish = plan
                    .and_then(|p| p.linked_entity())
                    .map(|e| db.entity_instance(e).created_at());
                let complete = plan.is_some_and(|p| p.is_complete());
                let state = if !complete && self.blocked.contains(&activity) {
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
}
