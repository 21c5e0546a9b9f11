//! B17 — scheduling-policy comparison: the policy engine under each
//! built-in [`ExecutionPolicy`] on a contended fan-in flow over a
//! heterogeneous simulated cluster, plus the engine-overhead baseline
//! (Fifo on the implicit substrate vs. the retired serial executor).
//!
//! Expected shape: the engine's dispatch loop is bookkeeping on top of
//! the same tool models, so Fifo must track the serial reference
//! closely (the `exec_policies` gate pins ≤ 1.05×); the slack- and
//! finish-aware policies trade a little wall-clock per dispatch for
//! shorter *simulated* makespans (see [`simulated_makespans`]).

use harness::bench::Record;
use hercules::{ExecutionPolicy, Hercules};
use schema::examples;
use simtools::cluster::Cluster;
use simtools::{workload::Team, ToolLibrary};

/// The contended scenario: wide parallel layers converging on one
/// merge — far more ready work than workers at every step, so the
/// dispatch choice is what separates the policies.
pub const LAYERS: usize = 4;
/// Activities per layer.
pub const WIDTH: usize = 6;
/// Inputs each activity pulls from the previous layer.
pub const FANIN: usize = 3;
/// Project seed for the contended managers (pins tool durations).
pub const SEED: u64 = 2024;
/// Workers in the heterogeneous cluster.
pub const CLUSTER_WORKERS: usize = 6;

/// A manager over the contended layered flow, not yet planned: its
/// first execution builds the proposal the policies read.
pub fn unplanned_manager(team: usize) -> Hercules {
    Hercules::new(
        examples::layered(LAYERS, WIDTH, FANIN),
        ToolLibrary::standard(),
        Team::of_size(team),
        SEED,
    )
}

/// A planned manager over the contended layered flow.
///
/// # Panics
///
/// Panics if the generated flow fails to plan (a bench bug).
pub fn contended_manager(team: usize) -> Hercules {
    let mut h = unplanned_manager(team);
    h.plan("merged").expect("contended flow plans");
    h
}

/// The heterogeneous substrate the policies compete on: seeded speed
/// spread plus a per-MiB network delay on remote hand-offs.
pub fn contended_cluster() -> Cluster {
    Cluster::heterogeneous(CLUSTER_WORKERS, SEED).with_network(0.02, 0.01)
}

/// Deterministic simulated makespans (work-days to `merged`) per
/// policy on the contended scenario — the numbers in the EXPERIMENTS
/// B17 table, and what the acceptance gate compares. Pure simulation:
/// independent of host speed.
///
/// # Panics
///
/// Panics if any policy fails to execute the clean flow (a bench bug).
pub fn simulated_makespans() -> Vec<(&'static str, f64)> {
    let cluster = contended_cluster();
    ExecutionPolicy::ALL
        .into_iter()
        .map(|policy| {
            let mut h = contended_manager(3);
            let report = h
                .execute_with("merged", policy, Some(&cluster))
                .expect("clean contended flow executes");
            assert!(report.all_converged(), "{policy}: contended flow blocked");
            (policy.name(), report.finished_at().days())
        })
        .collect()
}

/// Runs the kernel; `quick` selects the smoke-test plan.
pub fn run(quick: bool) -> Vec<Record> {
    let mut suite = super::suite("exec_policies", quick);
    let activities = (LAYERS * WIDTH + 1) as u64;
    // Engine-overhead pair: one designer, implicit substrate, so both
    // sides execute the identical sequential schedule.
    suite.bench_with_setup(
        "serial_reference/merged",
        Some(activities),
        || contended_manager(1),
        |mut h| {
            h.execute_serial_reference("merged")
                .expect("reference executes")
        },
    );
    suite.bench_with_setup(
        "fifo_implicit/merged",
        Some(activities),
        || contended_manager(1),
        |mut h| h.execute("merged").expect("fifo executes"),
    );
    // The policy field on the heterogeneous cluster, planned first and
    // with no plan kept (the execution then builds the proposal).
    let cluster = contended_cluster();
    for (suffix, manager) in [
        ("", contended_manager as fn(usize) -> Hercules),
        ("_unplanned", unplanned_manager),
    ] {
        for policy in ExecutionPolicy::ALL {
            let cluster = cluster.clone();
            suite.bench_with_setup(
                &format!("{}{suffix}/cluster", policy.name()),
                Some(activities),
                move || manager(3),
                move |mut h| {
                    h.execute_with("merged", policy, Some(&cluster))
                        .expect("policy executes")
                },
            );
        }
    }
    suite.into_records()
}
