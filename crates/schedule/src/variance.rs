//! Plan-versus-actual variance analysis.
//!
//! Once schedule instances are linked to execution metadata, "if any
//! slip in the schedule occurs, the schedule plan updates automatically"
//! (§IV-C). This module quantifies those slips: per-activity variances
//! and an earned-value summary a project manager can read at any status
//! date.

use std::fmt;

use crate::network::WorkDays;

/// Planned versus actual dates for one activity at a status date.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityStatus {
    /// Activity label.
    pub name: String,
    /// Proposed start offset.
    pub planned_start: WorkDays,
    /// Proposed finish offset.
    pub planned_finish: WorkDays,
    /// Actual start, once work began.
    pub actual_start: Option<WorkDays>,
    /// Actual finish, once the designer declared completion.
    pub actual_finish: Option<WorkDays>,
}

impl ActivityStatus {
    /// The dates without the name: planned duration, variances and
    /// whether it slipped are read from them.
    pub fn dates(&self) -> ActivityDates {
        ActivityDates {
            planned_start: self.planned_start,
            planned_finish: self.planned_finish,
            actual_start: self.actual_start,
            actual_finish: self.actual_finish,
        }
    }
}

/// One activity's planned and actual dates: an [`ActivityStatus`]
/// without its name, built from borrowed rows at no cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityDates {
    /// Proposed start offset.
    pub planned_start: WorkDays,
    /// Proposed finish offset.
    pub planned_finish: WorkDays,
    /// Actual start, once work began.
    pub actual_start: Option<WorkDays>,
    /// Actual finish, once the designer declared completion.
    pub actual_finish: Option<WorkDays>,
}

impl ActivityDates {
    /// Planned duration.
    pub fn planned_duration(&self) -> WorkDays {
        self.planned_finish.saturating_sub(self.planned_start)
    }

    /// Start variance in days (positive = started late). `None` until
    /// work begins.
    pub fn start_variance(&self) -> Option<f64> {
        self.actual_start
            .map(|s| s.days() - self.planned_start.days())
    }

    /// Finish variance in days (positive = finished late). `None` until
    /// complete.
    pub fn finish_variance(&self) -> Option<f64> {
        self.actual_finish
            .map(|f| f.days() - self.planned_finish.days())
    }

    /// Whether the activity finished later than planned.
    pub fn slipped(&self) -> bool {
        self.finish_variance().is_some_and(|v| v > 1e-9)
    }
}

/// Earned-value style summary over a set of activities at a status
/// date.
///
/// Values are duration-weighted (each activity is "worth" its planned
/// duration):
///
/// * **planned value (PV)** — planned duration of work scheduled to
///   have finished by the status date (pro-rated for in-window spans);
/// * **earned value (EV)** — planned duration of work actually
///   completed by the status date;
/// * **schedule variance (SV = EV − PV)** and the **schedule
///   performance index (SPI = EV / PV)**.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarianceSummary {
    /// Planned value at the status date, in days of work.
    pub planned_value: f64,
    /// Earned value at the status date, in days of work.
    pub earned_value: f64,
    /// `earned_value - planned_value` (negative = behind schedule).
    pub schedule_variance: f64,
    /// `earned_value / planned_value`; 1.0 when exactly on plan, `1.0`
    /// also when nothing was planned yet.
    pub spi: f64,
    /// Number of activities that finished later than planned.
    pub slipped_activities: usize,
    /// Largest finish variance observed, in days.
    pub worst_slip: f64,
}

impl fmt::Display for VarianceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PV {:.1}d, EV {:.1}d, SV {:+.1}d, SPI {:.2}, {} slipped (worst {:+.1}d)",
            self.planned_value,
            self.earned_value,
            self.schedule_variance,
            self.spi,
            self.slipped_activities,
            self.worst_slip
        )
    }
}

/// Computes the variance summary at `status_date`.
///
/// # Example
///
/// ```
/// use schedule::variance::{summarize, ActivityStatus};
/// use schedule::WorkDays;
///
/// let rows = vec![ActivityStatus {
///     name: "Create".into(),
///     planned_start: WorkDays::ZERO,
///     planned_finish: WorkDays::new(2.0),
///     actual_start: Some(WorkDays::ZERO),
///     actual_finish: Some(WorkDays::new(3.0)), // one day late
/// }];
/// let s = summarize(&rows, WorkDays::new(5.0));
/// assert_eq!(s.slipped_activities, 1);
/// assert_eq!(s.worst_slip, 1.0);
/// ```
pub fn summarize(rows: &[ActivityStatus], status_date: WorkDays) -> VarianceSummary {
    summarize_dates(rows.iter().map(ActivityStatus::dates), status_date)
}

/// [`summarize`] over each activity's dates, for callers that hold
/// their rows in another shape and should not copy names to summarize
/// them.
pub fn summarize_dates(
    rows: impl IntoIterator<Item = ActivityDates>,
    status_date: WorkDays,
) -> VarianceSummary {
    let now = status_date.days();
    let mut pv = 0.0;
    let mut ev = 0.0;
    let mut slipped = 0usize;
    let mut worst = 0.0f64;
    for row in rows {
        let planned = row.planned_duration().days();
        // PV: fraction of the planned span elapsed by the status date.
        let (ps, pf) = (row.planned_start.days(), row.planned_finish.days());
        if now >= pf {
            pv += planned;
        } else if now > ps && pf > ps {
            pv += planned * (now - ps) / (pf - ps);
        }
        // EV: completed work earns its full planned duration; work in
        // progress earns nothing until the designer declares completion
        // (completion is a designer decision in the paper's model, so
        // partial credit would be speculation). Finishes are recorded
        // to the milli-day, so they are compared at that resolution: a
        // finish recorded rounded up still earns at its own completion.
        if row
            .actual_finish
            .is_some_and(|f| f.millidays() <= status_date.millidays())
        {
            ev += planned;
        }
        if row.slipped() {
            slipped += 1;
        }
        if let Some(v) = row.finish_variance() {
            worst = worst.max(v);
        }
    }
    VarianceSummary {
        planned_value: pv,
        earned_value: ev,
        schedule_variance: ev - pv,
        spi: if pv > 0.0 { ev / pv } else { 1.0 },
        slipped_activities: slipped,
        worst_slip: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, ps: f64, pf: f64, actual: Option<(f64, f64)>) -> ActivityStatus {
        ActivityStatus {
            name: name.into(),
            planned_start: WorkDays::new(ps),
            planned_finish: WorkDays::new(pf),
            actual_start: actual.map(|(s, _)| WorkDays::new(s)),
            actual_finish: actual.map(|(_, f)| WorkDays::new(f)),
        }
    }

    #[test]
    fn on_plan_project_has_spi_one() {
        let rows = vec![
            row("a", 0.0, 2.0, Some((0.0, 2.0))),
            row("b", 2.0, 5.0, Some((2.0, 5.0))),
        ];
        let s = summarize(&rows, WorkDays::new(5.0));
        assert_eq!(s.planned_value, 5.0);
        assert_eq!(s.earned_value, 5.0);
        assert_eq!(s.schedule_variance, 0.0);
        assert_eq!(s.spi, 1.0);
        assert_eq!(s.slipped_activities, 0);
    }

    #[test]
    fn late_work_lowers_spi() {
        let rows = vec![
            row("a", 0.0, 2.0, Some((0.0, 4.0))), // finished 2d late
            row("b", 2.0, 5.0, None),             // not even started
        ];
        let s = summarize(&rows, WorkDays::new(5.0));
        assert_eq!(s.planned_value, 5.0);
        assert_eq!(s.earned_value, 2.0);
        assert!(s.spi < 0.5);
        assert_eq!(s.slipped_activities, 1);
        assert_eq!(s.worst_slip, 2.0);
    }

    #[test]
    fn midway_status_prorates_pv() {
        let rows = vec![row("a", 0.0, 4.0, None)];
        let s = summarize(&rows, WorkDays::new(2.0));
        assert_eq!(s.planned_value, 2.0);
        assert_eq!(s.earned_value, 0.0);
    }

    #[test]
    fn before_start_nothing_planned() {
        let rows = vec![row("a", 3.0, 6.0, None)];
        let s = summarize(&rows, WorkDays::new(1.0));
        assert_eq!(s.planned_value, 0.0);
        assert_eq!(s.spi, 1.0);
    }

    #[test]
    fn completion_after_status_date_not_earned_yet() {
        let rows = vec![row("a", 0.0, 2.0, Some((0.0, 6.0)))];
        let s = summarize(&rows, WorkDays::new(4.0));
        assert_eq!(s.earned_value, 0.0);
        // Still counted as slipped: its recorded finish is late.
        assert_eq!(s.slipped_activities, 1);
    }

    #[test]
    fn status_accessors() {
        let r = row("a", 1.0, 3.0, Some((2.0, 5.0))).dates();
        assert_eq!(r.planned_duration(), WorkDays::new(2.0));
        assert_eq!(r.start_variance(), Some(1.0));
        assert_eq!(r.finish_variance(), Some(2.0));
        assert!(r.slipped());
        let unstarted = row("b", 0.0, 1.0, None).dates();
        assert_eq!(unstarted.start_variance(), None);
        assert!(!unstarted.slipped());
    }

    #[test]
    fn a_finish_recorded_rounded_up_earns_at_its_completion() {
        // The activity finished at 3.6296; the database records 3.630.
        // At a status date of the exact finish it is complete and earns
        // its planned duration; a milli-day earlier it is not.
        let rows = [row("a", 0.0, 3.6, Some((0.0, 3.63)))];
        let at_finish = summarize(&rows, WorkDays::new(3.6296));
        assert_eq!(at_finish.earned_value, 3.6);
        let before = summarize(&rows, WorkDays::new(3.6286));
        assert_eq!(before.earned_value, 0.0);
    }

    #[test]
    fn millidays_round_to_the_recorded_value() {
        assert_eq!(WorkDays::new(3.6296).millidays(), 3630);
        assert_eq!(WorkDays::new(3.6296).recorded(), WorkDays::new(3.63));
        assert_eq!(WorkDays::from_millidays(1585), WorkDays::new(1.585));
    }

    #[test]
    fn summary_display_mentions_spi() {
        let s = summarize(&[row("a", 0.0, 1.0, Some((0.0, 1.0)))], WorkDays::new(1.0));
        assert!(s.to_string().contains("SPI"));
    }
}
