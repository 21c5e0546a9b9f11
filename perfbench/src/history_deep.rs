//! `history_deep`: the metadata and storage path. A 201-activity
//! project (`layered(10,20,3)`) executed several times and compacted
//! at set-up. Each round starts from a copy of that base and does: set
//! one estimate and plan (estimates read the history); run (one more
//! iteration of history); status; forecast; status twice more; reopen
//! in a fresh `Workspace`; gc; reopen the compacted store. History
//! queries, snapshot and tail replay, and compaction dominate.
//!
//! Every round measures the same history depth, so its samples are
//! alike and the median spreads over the whole run instead of resting
//! on the one round in the middle of a rising sequence.

use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hercules::{ExecutionPolicy, Hercules, Project, Workspace};
use schedule::WorkDays;
use schema::examples;
use serve::status_body;

use crate::common::{self, run_once, Ctx, Flow, TARGET};
use crate::ledger;
use crate::report::Report;
use crate::stats::Samples;
use crate::trace;

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const NAME: &str = "deep";
/// Executions in the base history every round starts from.
const BASE_RUNS: usize = 5;
/// Rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 0.9;

fn schema() -> schema::TaskSchema {
    examples::layered(10, 20, 3)
}

/// The project's tool seed. It is fixed, not drawn from `--seed`: the
/// tool seed decides how many activity runs each execution adds, so it
/// would make the history's size, not the program, differ between
/// seeds. `--seed` draws the estimate change before each round's plan.
const TOOL_SEED: u64 = 1995;

const FLOW: Flow = Flow {
    schema,
    team: 4,
    tool_seed: TOOL_SEED,
    history: BASE_RUNS,
};

/// The project root after [`BASE_RUNS`] executions and a compaction.
fn setup(ctx: &Ctx, k: usize) -> PathBuf {
    let root = ctx.path(&format!("deep-{k}"));
    let ws = Workspace::persistent(&root);
    let project = FLOW.create(&ws, NAME);
    for _ in 0..BASE_RUNS {
        assert!(
            project.update(run_once).expect("set-up run"),
            "set-up run converges"
        );
    }
    project.gc().expect("set-up gc");
    root
}

fn try_open(root: &Path) -> Result<(Workspace, Arc<Project>), hercules::WorkspaceError> {
    let ws = Workspace::persistent(root);
    let project = ws.open_saved_project(NAME)?;
    Ok((ws, project))
}

fn open(root: &Path) -> (Workspace, Arc<Project>) {
    try_open(root).expect("reopen project")
}

#[derive(Default)]
struct Pass {
    plan: Samples,
    run: Samples,
    status: Samples,
    forecast: Samples,
    open: Samples,
    gc: Samples,
    open_compacted: Samples,
}

impl Pass {
    fn kinds(&self) -> [&Samples; 7] {
        [
            &self.plan,
            &self.run,
            &self.status,
            &self.forecast,
            &self.open,
            &self.gc,
            &self.open_compacted,
        ]
    }

    fn ops_per_s(&self) -> f64 {
        common::block_ops_per_s(&self.kinds(), self.run.len())
    }
}

/// Length and hash of `db().dump()`: the dump is compared across
/// reopen and gc without holding a second copy of it, which would add
/// the benchmark's own memory to `peak_rss_mb`.
fn dump_digest(h: &Hercules) -> (usize, u64) {
    let dump = h.db().dump();
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    dump.hash(&mut hasher);
    (dump.len(), hasher.finish())
}

/// A fresh copy of the base project root at `to`.
fn copy_root(base: &Path, to: &Path) {
    if to.exists() {
        std::fs::remove_dir_all(to).expect("remove previous round");
    }
    let (from, into) = (base.join(NAME), to.join(NAME));
    std::fs::create_dir_all(&into).expect("round directory");
    for entry in std::fs::read_dir(&from).expect("base directory").flatten() {
        std::fs::copy(entry.path(), into.join(entry.file_name())).expect("copy store file");
    }
}

/// `rounds` rounds, each over a fresh copy of `base` at `work`: set one
/// estimate and plan; run; status; forecast; status twice more (a
/// designer reads status between the other ops, as `herc top` does);
/// reopen; gc; reopen the compacted store.
fn pass(ctx: &Ctx, base: &Path, work: &Path, rounds: usize, report: &mut Report) -> Pass {
    let mut rng = ctx.rng(400);
    let mut out = Pass::default();
    for r in 0..rounds as u64 {
        copy_root(base, work);
        let (ws, project) = open(work);
        let activities: Vec<String> = project.read(|h| {
            h.extract_task_tree(TARGET)
                .expect("task tree")
                .activities()
                .to_vec()
        });
        let activity = &activities[rng.next_below(activities.len() as u64) as usize];
        let days = WorkDays::new(1.0 + rng.next_below(20) as f64 * 0.5);
        let plan = common::timed_op(&mut out.plan, "op.plan", r, || {
            project.update(|h| {
                h.set_estimate(activity, days)?;
                h.plan(TARGET)
            })
        });
        report.op(plan.is_ok());
        let run = common::timed_op(&mut out.run, "op.run", r, || {
            project.update(|h| {
                h.execute_with(TARGET, ExecutionPolicy::Fifo, None)
                    .map(|rep| rep.all_converged())
            })
        });
        report.op(run.is_ok());
        report.check(matches!(run, Ok(true)), || {
            format!("round {r}: run did not converge")
        });

        let status = |out: &mut Pass, report: &mut Report| {
            let body = common::timed_op(&mut out.status, "op.status", r, || {
                project.read(status_body)
            });
            report.op(!body.is_empty());
        };
        status(&mut out, report);
        let forecast = common::timed_op(&mut out.forecast, "op.forecast", r, || {
            project.read(|h| h.forecast(TARGET))
        });
        report.op(forecast.is_ok());
        status(&mut out, report);
        status(&mut out, report);

        let before = project.read(dump_digest);
        drop((project, ws));
        let opened = common::timed_op(&mut out.open, "op.open", r, || try_open(work));
        report.op(opened.is_ok());
        let Ok((ws, project)) = opened else { continue };
        let same = project.read(dump_digest) == before;
        report.check(same, || format!("round {r}: dump differs after reopen"));

        let gc = common::timed_op(&mut out.gc, "op.gc", r, || project.gc());
        report.op(gc.is_ok());
        drop((project, ws));
        let opened = common::timed_op(&mut out.open_compacted, "op.open_compacted", r, || {
            try_open(work)
        });
        report.op(opened.is_ok());
        let Ok((_ws, project)) = opened else { continue };
        let same = project.read(dump_digest) == before;
        report.check(same, || {
            format!("round {r}: dump differs after gc and reopen")
        });
    }
    out
}

pub fn measure(ctx: &Ctx) -> Report {
    let (mut roots, setup_s) = common::repeated_setup(SETUPS, |k| setup(ctx, k));
    let base = roots.pop().expect("at least one set-up");
    let work = ctx.path("deep-round");
    let mut report = Report::default();
    pass(ctx, &base, &work, common::WARMUP_ROUNDS, &mut report);
    let pass = pass(ctx, &base, &work, ctx.ops(ROUNDS_PER_SECOND), &mut report);
    report.value(
        "setup_s",
        "s",
        setup_s,
        format!("median of {SETUPS} set-ups"),
    );
    report.value(
        "peak_rss_mb",
        "MB",
        common::peak_rss_mb(),
        "VmHWM".to_owned(),
    );
    report.value(
        "typical_ops_per_s",
        "1/s",
        common::typical_ops_per_s(&pass.kinds(), 1),
        "ops over the sum of each kind's count x median".to_owned(),
    );
    report.value(
        "ops_per_s",
        "1/s",
        pass.ops_per_s(),
        format!(
            "time inside ops, median over {} blocks of rounds",
            common::BLOCKS
        ),
    );
    report.latency("status_p50_ms", &pass.status, 0.5);
    report.latency("plan_p50_ms", &pass.plan, 0.5);
    report.latency("run_p50_ms", &pass.run, 0.5);
    report.latency("forecast_p50_ms", &pass.forecast, 0.5);
    report.latency("open_p50_ms", &pass.open, 0.5);
    report.latency("gc_p50_ms", &pass.gc, 0.5);
    report.latency("open_compacted_p50_ms", &pass.open_compacted, 0.5);
    report
}

/// The traced run: the same rounds, untraced then traced, for the
/// trace overhead; then the ledger on this workload's flow.
pub fn ledger(ctx: &Ctx) -> Report {
    let base = setup(ctx, 0);
    let work = ctx.path("deep-round");
    let mut report = Report::default();
    let rounds = ctx.ops(ROUNDS_PER_SECOND);
    pass(ctx, &base, &work, common::WARMUP_ROUNDS, &mut report);
    let plain = pass(ctx, &base, &work, rounds, &mut report);
    trace::set_enabled(true);
    let traced = pass(ctx, &base, &work, rounds, &mut report);
    report.value(
        "trace.overhead_pct",
        "%",
        (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
        format!(
            "ops/s untraced {:.3} vs traced {:.3}",
            plain.ops_per_s(),
            traced.ops_per_s()
        ),
    );
    ledger::run(ctx, &FLOW, &mut report);
    report
}
