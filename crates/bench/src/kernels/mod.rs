//! The workspace's micro-benchmark kernels (B1–B14 in DESIGN.md),
//! ported from Criterion onto `harness::bench` so they run offline and
//! emit machine-readable results.
//!
//! Each kernel module exposes `run(quick) -> Vec<Record>`; the
//! `benchmarks` bin aggregates all of them into
//! `BENCH_schedflow.json` at the workspace root. `quick = true`
//! selects the smoke-test sampling plan used by `tests/bench_smoke.rs`
//! and `scripts/check.sh`.

use harness::bench::Record;

pub mod baseline_compare;
pub mod calibrate;
pub mod cpm;
pub mod cpm_scale;
pub mod exec_policies;
pub mod execution;
pub mod gantt;
pub mod obs_live;
pub mod planning;
pub mod prediction;
pub mod queries;
pub mod recover_journal;
pub mod replan;
pub mod replan_incremental;
pub mod serve_load;
pub mod slow_commits;
pub mod store_durability;
pub mod trace_overhead;
pub mod workspace_concurrent;

/// All kernels in DESIGN.md order (B0 calibration first, then
/// B1–B17). The calibration spin must run first: it warms the CPU for
/// everything after it, and `bench_compare` uses its median to
/// normalize away host-speed differences between runs.
pub const KERNELS: [&str; 18] = [
    "calibrate",
    "cpm",
    "planning",
    "execution",
    "queries",
    "replan",
    "baseline_compare",
    "prediction",
    "gantt",
    "replan_incremental",
    "recover_journal",
    "trace_overhead",
    "workspace_concurrent",
    "serve_load",
    "cpm_scale",
    "store_durability",
    "obs_live",
    "exec_policies",
];

/// Runs every kernel whose name contains `filter` (all when `None`).
pub fn run_all(quick: bool, filter: Option<&str>) -> Vec<Record> {
    let wanted = |name: &str| filter.is_none_or(|f| name.contains(f));
    let mut records = Vec::new();
    if wanted("calibrate") {
        records.extend(calibrate::run(quick));
    }
    if wanted("cpm") {
        records.extend(cpm::run(quick));
    }
    if wanted("planning") {
        records.extend(planning::run(quick));
    }
    if wanted("execution") {
        records.extend(execution::run(quick));
    }
    if wanted("queries") {
        records.extend(queries::run(quick));
    }
    if wanted("replan") {
        records.extend(replan::run(quick));
    }
    if wanted("baseline_compare") {
        records.extend(baseline_compare::run(quick));
    }
    if wanted("prediction") {
        records.extend(prediction::run(quick));
    }
    if wanted("gantt") {
        records.extend(gantt::run(quick));
    }
    if wanted("replan_incremental") {
        records.extend(replan_incremental::run(quick));
    }
    if wanted("recover_journal") {
        records.extend(recover_journal::run(quick));
    }
    if wanted("trace_overhead") {
        records.extend(trace_overhead::run(quick));
    }
    if wanted("workspace_concurrent") {
        records.extend(workspace_concurrent::run(quick));
    }
    if wanted("serve_load") {
        records.extend(serve_load::run(quick));
    }
    if wanted("cpm_scale") {
        records.extend(cpm_scale::run(quick));
    }
    if wanted("store_durability") {
        records.extend(store_durability::run(quick));
    }
    if wanted("obs_live") {
        records.extend(obs_live::run(quick));
    }
    if wanted("exec_policies") {
        records.extend(exec_policies::run(quick));
    }
    records
}

/// A suite preconfigured for `kernel` under the given mode.
pub(crate) fn suite(kernel: &str, quick: bool) -> harness::bench::Suite {
    if quick {
        harness::bench::Suite::quick(kernel)
    } else {
        harness::bench::Suite::new(kernel)
    }
}
