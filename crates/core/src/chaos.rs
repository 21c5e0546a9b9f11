//! Seeded chaos scenarios: random flows driven through random fault
//! plans, with crash injection in the metadata journal — the
//! executable argument that the failure-semantics layer is sound.
//!
//! A [`ChaosScenario`] is a pure function of its seed: it derives a
//! schema, team size, project seed, fault plan, and crash point from
//! one `u64`, runs the full plan → execute → recover cycle, and
//! returns a [`ChaosReport`] listing every violated property. The same
//! scenarios back three consumers:
//!
//! * the chaos property suite (`tests/chaos_properties.rs`),
//! * the `chaos` stage of `scripts/ci.sh` (fixed seed set), and
//! * `herc chaos --seed N` for interactive replay of a failure.
//!
//! Properties checked per scenario:
//!
//! 1. the session never panics and never aborts on injected tool
//!    faults (only a metadata crash injection may abort, by design);
//! 2. [`metadata::MetadataDb::check_invariants`] holds on the live
//!    database after execution;
//! 3. replaying the write-ahead journal reproduces the live database
//!    byte-for-byte ([`metadata::MetadataDb::recover`]);
//! 4. a blocked activity is never linked complete, and (when plans
//!    exist) the open scope was replanned around it;
//! 5. after an injected crash in a follow-up session, recovery yields
//!    a database that passes invariants and in which every previously
//!    completed activity retains its actual dates.
//!
//! # Example
//!
//! ```
//! use hercules::chaos::ChaosScenario;
//!
//! let report = ChaosScenario::from_seed(7).run();
//! assert!(report.is_clean(), "{report}");
//! ```

use std::fmt;

use metadata::{MetadataDb, MetadataError};
use schema::{examples, TaskSchema};
use simtools::rng::{mix, SplitMix64};
use simtools::workload::Team;
use simtools::{FaultPlan, ToolLibrary};

use crate::error::HerculesError;
use crate::manager::Hercules;
use crate::policy::ExecutionPolicy;

/// One deterministic chaos scenario, fully derived from a seed.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    seed: u64,
    schema: TaskSchema,
    target: String,
    team_size: usize,
    project_seed: u64,
    fault_seed: u64,
    crash_after: u32,
    policy: ExecutionPolicy,
}

impl ChaosScenario {
    /// Derives a scenario from `seed`: schema shape, team size, tool
    /// seed, fault plan seed, and the crash point for the follow-up
    /// session are all pure functions of it.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(mix(&[seed, 0xC4A0_5CEA]));
        let (schema, target) = match rng.next_below(4) {
            0 => (examples::circuit_design(), "performance".to_owned()),
            1 => (examples::asic_flow(), "signoff_report".to_owned()),
            2 => {
                let stages = 3 + rng.next_below(5) as usize;
                (examples::pipeline(stages), format!("d{stages}"))
            }
            _ => {
                let layers = 2 + rng.next_below(2) as usize;
                let width = 2 + rng.next_below(2) as usize;
                (examples::layered(layers, width, 2), "merged".to_owned())
            }
        };
        let team_size = 1 + rng.next_below(3) as usize;
        let project_seed = rng.next_u64();
        let fault_seed = rng.next_u64();
        let crash_after = rng.next_below(32) as u32;
        // Drawn last so older scenario derivations (schema, team,
        // seeds, crash point) are unchanged for every existing seed.
        let policy =
            ExecutionPolicy::ALL[rng.next_below(ExecutionPolicy::ALL.len() as u64) as usize];
        ChaosScenario {
            seed,
            schema,
            target,
            team_size,
            project_seed,
            fault_seed,
            crash_after,
            policy,
        }
    }

    /// Overrides the drawn scheduling policy — `herc chaos --policy`
    /// and the per-policy CI legs pin every scenario to one policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The scenario's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scenario's execution target.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// The scenario's task schema (for harnesses that rebuild the
    /// session elsewhere, e.g. behind the workspace server).
    pub fn schema(&self) -> &TaskSchema {
        &self.schema
    }

    /// The scenario's team size.
    pub fn team_size(&self) -> usize {
        self.team_size
    }

    /// The seed for the project's tool simulation.
    pub fn project_seed(&self) -> u64 {
        self.project_seed
    }

    /// The seed for the scenario's fault plan.
    pub fn fault_seed(&self) -> u64 {
        self.fault_seed
    }

    /// The scheduling policy the scenario executes under.
    pub fn policy(&self) -> ExecutionPolicy {
        self.policy
    }

    /// Runs the scenario and collects property violations.
    pub fn run(&self) -> ChaosReport {
        let mut report = ChaosReport {
            seed: self.seed,
            schema: self.schema.name().to_owned(),
            target: self.target.clone(),
            policy: self.policy.name().to_owned(),
            executed: 0,
            blocked: 0,
            skipped: 0,
            crash_fired: false,
            violations: Vec::new(),
        };
        let mut h = Hercules::new(
            self.schema.clone(),
            ToolLibrary::standard(),
            Team::of_size(self.team_size),
            self.project_seed,
        );
        h.enable_journal();
        if let Err(e) = h.plan(&self.target) {
            report.violations.push(format!("plan failed: {e}"));
            return report;
        }
        // A quarter of tools persistently broken: scenarios use only a
        // handful of tools each, so the paper-default 5% rate would
        // leave the blocked/degraded path mostly unexercised.
        h.set_fault_plan(FaultPlan::seeded(self.fault_seed).with_persistent_rate(0.25));

        // Property 1: injected tool faults never abort the session.
        let exec = match h.execute_with(&self.target, self.policy, None) {
            Ok(r) => r,
            Err(e) => {
                report
                    .violations
                    .push(format!("execute aborted on injected faults: {e}"));
                return report;
            }
        };
        report.executed = exec.activities().len();
        report.blocked = exec.blocked().len();
        report.skipped = exec.skipped().len();

        // Property 4: blocked semantics.
        for b in exec.blocked() {
            if !h.is_blocked(&b.activity) {
                report.violations.push(format!(
                    "{} blocked in report but not in manager",
                    b.activity
                ));
            }
            if h.db()
                .current_plan(&b.activity)
                .is_some_and(|p| p.is_complete())
            {
                report
                    .violations
                    .push(format!("blocked {} is linked complete", b.activity));
            }
            if !exec.replanned().iter().any(|(n, _)| n == &b.activity) {
                report.violations.push(format!(
                    "blocked {} missing from the degraded replan",
                    b.activity
                ));
            }
        }

        // Property 2: live database invariants.
        if let Err(violations) = h.db().check_invariants() {
            for v in violations {
                report.violations.push(format!("live invariant: {v}"));
            }
        }

        // Property 3: journal replay reproduces the live database.
        let Some(journal) = h.db().journal() else {
            report.violations.push("journal disappeared".to_owned());
            return report;
        };
        match MetadataDb::recover(journal) {
            Ok(replayed) => {
                if replayed.dump() != h.db().dump() {
                    report
                        .violations
                        .push("journal replay diverges from live database".to_owned());
                }
            }
            Err(e) => report
                .violations
                .push(format!("journal replay failed: {e}")),
        }

        // Property 5: crash-consistency of a follow-up session. The
        // operator repairs the tools, arms a crash, and pushes on; the
        // crash may fire mid-plan or mid-execute (or not at all, for
        // large crash points).
        let completed: Vec<String> = h
            .db()
            .completed_activities()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut h2 = h.clone();
        h2.set_fault_plan(FaultPlan::none());
        h2.clear_blocked();
        h2.inject_db_crash_after(self.crash_after);
        let followup: Result<(), HerculesError> = (|| {
            h2.replan(&self.target)?;
            h2.execute_with(&self.target, self.policy, None)?;
            Ok(())
        })();
        report.crash_fired = h2.db().has_crashed();
        if let Err(e) = followup {
            let injected = matches!(e, HerculesError::Metadata(MetadataError::InjectedCrash));
            if !injected {
                report
                    .violations
                    .push(format!("follow-up session failed without a crash: {e}"));
            }
        }
        let Some(journal2) = h2.db().journal() else {
            report
                .violations
                .push("follow-up journal disappeared".to_owned());
            return report;
        };
        match MetadataDb::recover(journal2) {
            Ok(recovered) => {
                if let Err(violations) = recovered.check_invariants() {
                    for v in violations {
                        report.violations.push(format!("recovered invariant: {v}"));
                    }
                }
                for activity in &completed {
                    if recovered.actual_finish(activity) != h.db().actual_finish(activity) {
                        report.violations.push(format!(
                            "completed {activity} lost its actual finish across crash recovery"
                        ));
                    }
                    if !recovered
                        .current_plan(activity)
                        .is_some_and(|p| p.is_complete())
                    {
                        report.violations.push(format!(
                            "completed {activity} lost its completion link across crash recovery"
                        ));
                    }
                }
            }
            Err(e) => report
                .violations
                .push(format!("crash recovery failed: {e}")),
        }
        report
    }
}

/// The outcome of one chaos scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The scenario seed (replay with `herc chaos --seed N`).
    pub seed: u64,
    /// The derived schema's name.
    pub schema: String,
    /// The derived execution target.
    pub target: String,
    /// The scheduling policy the scenario dispatched under.
    pub policy: String,
    /// Activities that executed to convergence.
    pub executed: usize,
    /// Activities blocked by the retry policy.
    pub blocked: usize,
    /// Activities skipped for missing inputs.
    pub skipped: usize,
    /// Whether the armed crash fired during the follow-up session.
    pub crash_fired: bool,
    /// Every property violation observed (empty = the scenario holds).
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Whether the scenario upheld every property.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos seed {:>4}  {:<10} -> {:<16} {:<9} exec {:>2}  blocked {}  skipped {}  crash {}  {}",
            self.seed,
            self.schema,
            self.target,
            self.policy,
            self.executed,
            self.blocked,
            self.skipped,
            if self.crash_fired { "yes" } else { "no " },
            if self.is_clean() { "ok" } else { "FAIL" },
        )?;
        for v in &self.violations {
            write!(f, "\n  violation: {v}")?;
        }
        Ok(())
    }
}

/// Runs `count` scenarios seeded `base_seed..base_seed + count`.
pub fn run_suite(base_seed: u64, count: u64) -> Vec<ChaosReport> {
    (base_seed..base_seed + count)
        .map(|s| ChaosScenario::from_seed(s).run())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        let a = ChaosScenario::from_seed(3).run();
        let b = ChaosScenario::from_seed(3).run();
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_vary_shape() {
        let shapes: std::collections::BTreeSet<String> = (0..12)
            .map(|s| ChaosScenario::from_seed(s).target().to_owned())
            .collect();
        assert!(shapes.len() > 1, "all scenarios identical: {shapes:?}");
    }

    #[test]
    fn seeds_vary_policy_and_override_pins_it() {
        let policies: std::collections::BTreeSet<&str> = (0..16)
            .map(|s| ChaosScenario::from_seed(s).policy().name())
            .collect();
        assert!(policies.len() > 1, "all scenarios drew {policies:?}");
        let pinned = ChaosScenario::from_seed(3).with_policy(ExecutionPolicy::Heft);
        assert_eq!(pinned.policy(), ExecutionPolicy::Heft);
        assert!(pinned.run().is_clean());
    }

    #[test]
    fn small_fixed_set_is_clean() {
        for report in run_suite(0, 8) {
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn some_scenario_injects_faults() {
        let reports = run_suite(0, 16);
        assert!(
            reports.iter().any(|r| r.blocked > 0 || r.skipped > 0),
            "no scenario ever degraded — fault rates too low to test anything"
        );
        assert!(
            reports.iter().any(|r| r.crash_fired),
            "no scenario ever fired its crash point"
        );
    }
}
