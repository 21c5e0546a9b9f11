//! Policy-engine properties: every scheduling policy upholds the
//! executor's failure-semantics contract (no-abort, blocked never
//! complete, journal replay ≡ live) and — on uniform-speed substrates,
//! where fault outcomes are per-activity and speed-independent — all
//! policies execute, block, and skip exactly the same activity set.

use std::collections::BTreeSet;

use harness::prelude::*;
use hercules::{ExecutionPolicy, ExecutionReport, Hercules};
use metadata::MetadataDb;
use schema::{examples, TaskSchema};
use simtools::cluster::Cluster;
use simtools::rng::{mix, SplitMix64};
use simtools::workload::Team;
use simtools::{FaultPlan, ToolLibrary};

/// A small faulted project derived from a seed (schema family, team
/// size, fault plan), mirroring the chaos derivation but without the
/// crash-injection layer.
struct Scenario {
    schema: TaskSchema,
    target: String,
    team: usize,
    project_seed: u64,
    fault_seed: u64,
}

impl Scenario {
    fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(mix(&[seed, 0x90CC_11E5]));
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
        Scenario {
            schema,
            target,
            team: 1 + rng.next_below(3) as usize,
            project_seed: rng.next_u64(),
            fault_seed: rng.next_u64(),
        }
    }

    /// Builds a planned, fault-injected manager for one run. The
    /// journal (when requested) is enabled before the first mutation so
    /// replay covers the whole session.
    fn manager(&self, journal: bool) -> Hercules {
        let mut h = Hercules::new(
            self.schema.clone(),
            ToolLibrary::standard(),
            Team::of_size(self.team),
            self.project_seed,
        );
        if journal {
            h.enable_journal();
        }
        h.plan(&self.target).expect("scenario plans");
        h.set_fault_plan(FaultPlan::seeded(self.fault_seed).with_persistent_rate(0.25));
        h
    }
}

fn outcome_sets(r: &ExecutionReport) -> (BTreeSet<String>, BTreeSet<String>, BTreeSet<String>) {
    (
        r.activities().iter().map(|a| a.activity.clone()).collect(),
        r.blocked().iter().map(|b| b.activity.clone()).collect(),
        r.skipped().iter().cloned().collect(),
    )
}

harness::props! {
    config(cases = 24);

    /// Same scenario, four policies: identical executed / blocked /
    /// skipped sets and identical completion state on the implicit
    /// (uniform-speed) substrate.
    fn all_policies_complete_the_same_activity_set(seed in 0u64..1_000_000) {
        let scenario = Scenario::from_seed(seed);
        let mut reference: Option<(BTreeSet<String>, BTreeSet<String>, BTreeSet<String>)> = None;
        for policy in ExecutionPolicy::ALL {
            let mut h = scenario.manager(false);
            let report = h
                .execute_with(&scenario.target, policy, None)
                .unwrap_or_else(|e| panic!("{policy} aborted on injected faults: {e}"));
            let sets = outcome_sets(&report);
            match &reference {
                None => reference = Some(sets),
                Some(expected) => {
                    prop_assert!(expected == &sets, "{policy} disagrees on the outcome set");
                }
            }
            // Blocked never completes, under any policy.
            for b in report.blocked() {
                prop_assert!(
                    !h.db().current_plan(&b.activity).is_some_and(|p| p.is_complete()),
                    "{}: blocked {} linked complete",
                    policy,
                    b.activity
                );
            }
        }
    }

    /// Journal replay reproduces the live database under every policy,
    /// implicit or explicit cluster alike.
    fn replay_equals_live_for_every_policy(seed in 0u64..1_000_000) {
        let scenario = Scenario::from_seed(seed);
        let policy = ExecutionPolicy::ALL[(seed % 4) as usize];
        let workers = 1 + (seed / 4 % 4) as usize;
        for cluster in [None, Some(Cluster::heterogeneous(workers, seed).with_network(0.01, 0.02))] {
            let mut h = scenario.manager(true);
            h.execute_with(&scenario.target, policy, cluster.as_ref())
                .unwrap_or_else(|e| panic!("{policy} aborted on injected faults: {e}"));
            let journal = h.db().journal().expect("journal enabled");
            let replayed = MetadataDb::recover(journal).expect("replay succeeds");
            prop_assert!(
                replayed.dump() == h.db().dump(),
                "{policy} replay diverges from live"
            );
        }
    }

    /// Explicit uniform clusters preserve the outcome set (speed is
    /// what perturbs fault budgets, not placement).
    fn uniform_cluster_preserves_outcomes(seed in 0u64..1_000_000) {
        let scenario = Scenario::from_seed(seed);
        let policy = ExecutionPolicy::ALL[(seed % 4) as usize];
        let run = |cluster: Option<Cluster>| {
            let mut h = scenario.manager(false);
            let report = h
                .execute_with(&scenario.target, policy, cluster.as_ref())
                .unwrap_or_else(|e| panic!("{policy} aborted on injected faults: {e}"));
            outcome_sets(&report)
        };
        let implicit = run(None);
        let explicit = run(Some(Cluster::uniform(1 + (seed % 5) as usize)));
        prop_assert!(
            implicit == explicit,
            "{policy} outcome shifted on uniform cluster"
        );
    }
}
