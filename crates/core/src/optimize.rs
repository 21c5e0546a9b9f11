use schedule::WorkDays;

use crate::error::HerculesError;
use crate::manager::Hercules;

/// One row of a team-size sweep: the proposed finish with `team_size`
/// designers.
#[derive(Debug, Clone, PartialEq)]
pub struct TeamPoint {
    /// Number of designers.
    pub team_size: usize,
    /// Proposed project finish under that team.
    pub finish: WorkDays,
}

/// The result of a resource optimization sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TeamSweep {
    /// Finish per team size, ascending team size.
    pub points: Vec<TeamPoint>,
    /// The smallest team meeting the deadline, if any.
    pub minimal_team: Option<usize>,
    /// Team size past which adding designers stops helping (finish
    /// within 1% of the infinite-team CPM bound).
    pub saturation_team: Option<usize>,
}

/// A crash-analysis recommendation: the activity whose shortening most
/// improves the project finish.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashAdvice {
    /// The activity to shorten.
    pub activity: String,
    /// Project finish if that activity's duration dropped by the
    /// probed fraction.
    pub new_finish: WorkDays,
    /// Improvement over the current proposed finish, in days.
    pub gain_days: f64,
}

impl Hercules {
    /// Sweeps team sizes `1..=max_team`, planning `target` under each,
    /// and reports the finish curve, the minimal team meeting
    /// `deadline`, and the saturation point — "previous schedule data
    /// can be used ... to optimize the resources associated with future
    /// projects" (§I).
    ///
    /// The sweep plans on *clones*, so the manager's own database is
    /// untouched.
    ///
    /// # Errors
    ///
    /// * [`HerculesError::UnknownTarget`] — `target` names nothing.
    ///
    /// # Panics
    ///
    /// Panics if `max_team == 0`.
    pub fn sweep_team_sizes(
        &self,
        target: &str,
        deadline: WorkDays,
        max_team: usize,
    ) -> Result<TeamSweep, HerculesError> {
        assert!(max_team > 0, "sweep needs at least one team size");
        let mut points = Vec::with_capacity(max_team);
        for team_size in 1..=max_team {
            let mut trial = self.clone();
            trial.set_team(simtools::workload::Team::of_size(team_size));
            let plan = trial.plan(target)?;
            points.push(TeamPoint {
                team_size,
                finish: plan.project_finish(),
            });
        }
        let minimal_team = points
            .iter()
            .find(|p| p.finish <= deadline)
            .map(|p| p.team_size);
        let best = points
            .iter()
            .map(|p| p.finish.days())
            .fold(f64::INFINITY, f64::min);
        let saturation_team = points
            .iter()
            .find(|p| p.finish.days() <= best * 1.01)
            .map(|p| p.team_size);
        Ok(TeamSweep {
            points,
            minimal_team,
            saturation_team,
        })
    }

    /// Crash analysis: tries shortening each open activity's estimate
    /// by `fraction` (e.g. `0.5` halves it) and reports the activity
    /// whose crash most improves the proposed finish of `target`.
    ///
    /// Returns `None` when nothing is open or no crash helps (the
    /// probed activities are all off the critical path).
    ///
    /// # Errors
    ///
    /// * [`HerculesError::UnknownTarget`] — `target` names nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < fraction < 1.0`.
    pub fn crash_advice(
        &self,
        target: &str,
        fraction: f64,
    ) -> Result<Option<CrashAdvice>, HerculesError> {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "crash fraction must be in (0, 1)"
        );
        let tree = self.extract_task_tree(target)?;
        let mut baseline_trial = self.clone();
        let baseline = baseline_trial.plan(target)?.project_finish();
        let mut best: Option<CrashAdvice> = None;
        for activity in tree.activities() {
            if self
                .db()
                .current_plan(activity)
                .is_some_and(|p| p.is_complete())
            {
                continue;
            }
            let mut trial = self.clone();
            let estimate = trial.duration_estimate(activity)?;
            let crashed = WorkDays::new(estimate.days() * (1.0 - fraction));
            trial
                .set_estimate(activity, crashed)
                .expect("tree activities exist in the schema");
            let finish = trial.plan(target)?.project_finish();
            if finish < baseline && best.as_ref().is_none_or(|b| finish < b.new_finish) {
                best = Some(CrashAdvice {
                    activity: activity.clone(),
                    new_finish: finish,
                    gain_days: baseline.days() - finish.days(),
                });
            }
        }
        Ok(best)
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
            Team::of_size(1),
            seed,
        )
    }

    #[test]
    fn sweep_is_monotone_and_saturates() {
        let h = asic(5);
        let sweep = h
            .sweep_team_sizes("signoff_report", WorkDays::new(1e9), 5)
            .unwrap();
        assert_eq!(sweep.points.len(), 5);
        for w in sweep.points.windows(2) {
            assert!(
                w[1].finish.days() <= w[0].finish.days() + 1e-9,
                "more designers must never be slower"
            );
        }
        // An absurd deadline is met by one designer; saturation exists.
        assert_eq!(sweep.minimal_team, Some(1));
        assert!(sweep.saturation_team.is_some());
        // The ASIC flow is nearly a chain: saturation comes early.
        assert!(sweep.saturation_team.unwrap() <= 3);
    }

    #[test]
    fn sweep_finds_minimal_team_for_tight_deadline() {
        let h = asic(5);
        let solo = h
            .sweep_team_sizes("signoff_report", WorkDays::new(1e9), 1)
            .unwrap()
            .points[0]
            .finish;
        // Deadline just below the solo finish forces a bigger team (or
        // proves impossible).
        let sweep = h
            .sweep_team_sizes("signoff_report", WorkDays::new(solo.days() * 0.9), 6)
            .unwrap();
        match sweep.minimal_team {
            Some(team) => assert!(team > 1),
            None => {
                // A pure chain cannot be accelerated by staffing; then
                // every point equals the solo finish.
                for p in &sweep.points {
                    assert!((p.finish.days() - solo.days()).abs() < solo.days() * 0.2);
                }
            }
        }
    }

    #[test]
    fn sweep_leaves_manager_untouched() {
        let h = asic(5);
        let before = h.db().schedule_count();
        h.sweep_team_sizes("signoff_report", WorkDays::new(10.0), 3)
            .unwrap();
        assert_eq!(h.db().schedule_count(), before);
    }

    #[test]
    fn sweep_on_a_planned_manager_equals_a_fresh_sweep() {
        // Each trial plans under another team; the planned manager's
        // plan cache demands its own team's designers and must not
        // leak into the trials.
        let fresh = Hercules::new(
            examples::layered(4, 16, 2),
            ToolLibrary::standard(),
            Team::of_size(3),
            5,
        );
        let mut planned = fresh.clone();
        planned.plan("merged").unwrap();
        let deadline = WorkDays::new(1e9);
        assert_eq!(
            planned.sweep_team_sizes("merged", deadline, 5).unwrap(),
            fresh.sweep_team_sizes("merged", deadline, 5).unwrap()
        );
    }

    #[test]
    fn crash_advice_on_a_planned_manager_equals_cold_advice() {
        // Each trial sets one estimate on a clone of the manager: the
        // clone's cached estimate must follow, whatever the manager
        // had cached.
        let mut planned = asic(5);
        planned.plan("signoff_report").unwrap();
        let mut cold = planned.clone();
        cold.view.reset(cold.db().runs().len());
        assert_eq!(
            planned.crash_advice("signoff_report", 0.5).unwrap(),
            cold.crash_advice("signoff_report", 0.5).unwrap()
        );
    }

    #[test]
    fn crash_advice_targets_critical_work() {
        let h = asic(5);
        let advice = h
            .crash_advice("signoff_report", 0.5)
            .unwrap()
            .expect("some activity helps");
        assert!(advice.gain_days > 0.0);
        // Crashing the advised activity must actually be on a critical
        // chain — verify by replanning with the crash applied.
        let mut trial = h.clone();
        let est = trial.duration_estimate(&advice.activity).unwrap();
        trial
            .set_estimate(&advice.activity, WorkDays::new(est.days() * 0.5))
            .unwrap();
        let finish = trial.plan("signoff_report").unwrap().project_finish();
        assert!((finish.days() - advice.new_finish.days()).abs() < 1e-6);
    }

    #[test]
    fn crash_advice_none_when_everything_complete() {
        let mut h = asic(5);
        h.plan("signoff_report").unwrap();
        h.execute("signoff_report").unwrap();
        let advice = h.crash_advice("signoff_report", 0.3).unwrap();
        assert!(advice.is_none());
    }

    #[test]
    #[should_panic(expected = "crash fraction")]
    fn crash_fraction_validated() {
        let h = asic(5);
        let _ = h.crash_advice("signoff_report", 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one team size")]
    fn sweep_zero_team_panics() {
        let h = asic(5);
        let _ = h.sweep_team_sizes("signoff_report", WorkDays::ZERO, 0);
    }
}
