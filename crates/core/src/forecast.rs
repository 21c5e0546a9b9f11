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
    /// Forecasts the completion of `target` at the current clock: the
    /// proposal a [`replan`](Hercules::replan) would record now (open
    /// work at its current estimates, history first, levelled against
    /// the team), read from the kept schedule when the last planning
    /// pass proposed the same, and recorded nowhere.
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
        let open = self.open_work(target)?;
        let proposal = self.proposal_ref(&open, &open.durations, &self.team)?;
        Ok(Forecast {
            as_of: self.clock,
            finish: proposal.finish(open.start),
            complete: open.tree.len() - open.in_scope.len(),
            open: open.in_scope.len(),
            critical: proposal.critical_path(),
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
        // The forecast is the plan's proposal, levelled against the
        // team, so before any work it is the plan's finish.
        assert_eq!(f.finish, plan.project_finish());
        assert!(!f.critical.is_empty());
    }

    /// A wide flow on a small team: the levelled finish is far past the
    /// unlevelled critical path, and the forecast tells the former,
    /// whether it reads the kept schedule or builds its own.
    #[test]
    fn forecast_respects_team_capacity() {
        let mut h = Hercules::new(
            examples::layered(20, 50, 3),
            ToolLibrary::standard(),
            Team::of_size(8),
            5,
        );
        let target = "merged";
        let cold = h.forecast(target).unwrap();
        let plan = h.plan(target).unwrap();
        assert_eq!(plan.project_finish().to_string(), "1045.20d");
        assert_eq!(cold.finish, plan.project_finish());
        assert_eq!(h.forecast(target).unwrap(), cold);
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
