use schedule::WorkDays;

use crate::error::HerculesError;
use crate::manager::Hercules;

/// A mid-project completion forecast: what the integrated system can
/// answer at any moment that a trace-based tracker (VOV) structurally
/// cannot.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// When the forecast was taken (project clock).
    pub as_of: WorkDays,
    /// Forecast project finish: actuals for done work, estimates for
    /// the rest.
    pub finish: WorkDays,
    /// Activities already complete.
    pub complete: usize,
    /// Activities still open (estimated).
    pub open: usize,
    /// Open activities on the forecast's critical path, in order.
    pub critical: Vec<String>,
}

impl Forecast {
    /// Remaining estimated work from the forecast point.
    pub fn remaining(&self) -> WorkDays {
        self.finish.saturating_sub(self.as_of)
    }
}

impl Hercules {
    /// Forecasts the completion of `target` at the current clock:
    /// completed activities contribute their *actual* finishes, open
    /// activities their current duration estimates (history first),
    /// and CPM over the remaining precedence network gives the finish.
    ///
    /// This is the §I promise made operational: because flow state and
    /// schedule live in one system, "the project schedule can be
    /// automatically updated" — including the forward-looking part.
    ///
    /// # Errors
    ///
    /// * [`HerculesError::UnknownTarget`] — `target` names nothing.
    ///
    /// # Example
    ///
    /// ```
    /// use hercules::Hercules;
    /// use schema::examples;
    /// use simtools::{workload::Team, ToolLibrary};
    ///
    /// # fn main() -> Result<(), hercules::HerculesError> {
    /// let mut h = Hercules::new(
    ///     examples::asic_flow(),
    ///     ToolLibrary::standard(),
    ///     Team::of_size(3),
    ///     5,
    /// );
    /// h.plan("signoff_report")?;
    /// h.execute("netlist")?; // part-way through the project
    /// let forecast = h.forecast("signoff_report")?;
    /// assert!(forecast.open > 0 && forecast.complete > 0);
    /// assert!(forecast.finish.days() > forecast.as_of.days());
    /// # Ok(())
    /// # }
    /// ```
    pub fn forecast(&self, target: &str) -> Result<Forecast, HerculesError> {
        let tree = self.task_tree_ref(target)?;
        let done = self.completed_mask(&tree);
        let complete = done.iter().filter(|&&d| d).count();
        let open = tree.len() - complete;
        // Completed activities become zero-duration milestones pinned
        // at their actual finish via a leading "anchor" duration.
        let durations = tree
            .activities()
            .iter()
            .enumerate()
            .map(|(i, activity)| {
                if done[i] {
                    Ok(WorkDays::ZERO)
                } else {
                    self.estimate_ref(tree.rule_position_at(i), activity)
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let scope: Vec<usize> = (0..tree.len()).collect();
        let (net, _) = tree.network(&scope, &durations)?;
        let cpm = net.analyze()?;
        // Base offset: open work cannot start before now or before the
        // latest data already available in scope — the same seeding the
        // executor's ready queue starts from (supplied inputs are
        // always at or before the clock, so only completed actuals can
        // push the base forward).
        let base = self
            .seed_data_ready(&tree)
            .values()
            .map(|&(at, _)| at)
            .fold(self.clock, WorkDays::max);
        let finish = base + cpm.project_duration();
        let critical = cpm
            .critical_path()
            .iter()
            .filter(|&&id| net.duration(id) > WorkDays::ZERO)
            .map(|&id| net.name(id).to_owned())
            .collect();
        Ok(Forecast {
            as_of: self.clock,
            finish,
            complete,
            open,
            critical,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;
    use simtools::{workload::Team, ToolLibrary};

    fn asic(seed: u64) -> Hercules {
        Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(3),
            seed,
        )
    }

    #[test]
    fn forecast_before_start_matches_plan_shape() {
        let mut h = asic(5);
        let plan = h.plan("signoff_report").unwrap();
        let f = h.forecast("signoff_report").unwrap();
        assert_eq!(f.complete, 0);
        assert_eq!(f.open, 9);
        // The forecast ignores team capacity (pure CPM), so it can be
        // at or below the levelled plan finish, never above.
        assert!(f.finish.days() <= plan.project_finish().days() + 1e-9);
        assert!(!f.critical.is_empty());
    }

    #[test]
    fn forecast_narrows_as_work_completes() {
        let mut h = asic(5);
        h.plan("signoff_report").unwrap();
        let f0 = h.forecast("signoff_report").unwrap();
        h.execute("rtl").unwrap();
        let f1 = h.forecast("signoff_report").unwrap();
        assert!(f1.complete > 0);
        assert!(f1.open < f0.open);
        assert!(f1.as_of.days() > f0.as_of.days());
        // Remaining work shrinks as activities complete.
        assert!(f1.remaining().days() < f0.remaining().days() + f1.as_of.days());
    }

    #[test]
    fn forecast_at_completion_is_now() {
        let mut h = asic(5);
        h.plan("signoff_report").unwrap();
        h.execute("signoff_report").unwrap();
        let f = h.forecast("signoff_report").unwrap();
        assert_eq!(f.open, 0);
        assert_eq!(f.complete, 9);
        assert_eq!(f.remaining(), WorkDays::ZERO);
        assert!(f.critical.is_empty());
    }

    #[test]
    fn forecast_uses_history_for_open_work() {
        let mut h = asic(5);
        h.plan("signoff_report").unwrap();
        h.execute("netlist").unwrap();
        // Synthesize is complete; its history now exists. VerifyRtl's
        // estimate may also have switched to history. The forecast
        // for open work must equal the manager's current estimates.
        let f = h.forecast("signoff_report").unwrap();
        assert!(f
            .critical
            .iter()
            .all(|a| { !h.db().current_plan(a).is_some_and(|p| p.is_complete()) }));
    }

    #[test]
    fn unknown_target_rejected() {
        let h = asic(5);
        assert!(h.forecast("gds").is_err());
    }
}
