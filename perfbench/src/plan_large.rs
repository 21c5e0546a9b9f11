//! `plan_large`: the kernel path. One 1001-activity project
//! (`layered(20,50,3)`, team 8) driven in-process through
//! `Workspace`/`Project`, no HTTP. Each round: plan; status; set one
//! estimate and replan; status; plan; forecast; status; run (plan +
//! Fifo execution of a freshly created copy, removed afterwards so
//! history stays at zero).
//! Task-tree extraction, estimate lookup, levelling and the engine
//! dominate.

use std::sync::Arc;

use hercules::{ExecutionPolicy, Project, Workspace};
use schedule::WorkDays;
use schema::examples;
use serve::status_body;

use crate::common::{self, Ctx, Flow, TARGET};
use crate::ledger;
use crate::report::Report;
use crate::stats::Samples;
use crate::trace;

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
const NAME: &str = "large";
/// Rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 2.0;
/// The project's tool seed. It is fixed, not drawn from `--seed`: on
/// this flow the tool seed decides between about 1070 and about 1990
/// activity runs per execution, which would make the run's size, not
/// the program, differ between seeds. `--seed` draws the estimate
/// changes instead.
const TOOL_SEED: u64 = 1995;

fn schema() -> schema::TaskSchema {
    examples::layered(20, 50, 3)
}

const FLOW: Flow = Flow {
    schema,
    team: 8,
    tool_seed: TOOL_SEED,
    history: 0,
};

/// The project, created and planned once (the first plan builds the
/// plan cache every later plan and replan reuses).
fn setup(ctx: &Ctx, k: usize) -> (Arc<Workspace>, Arc<Project>) {
    let ws = Arc::new(Workspace::persistent(ctx.path(&format!("large-{k}"))));
    let project = FLOW.create(&ws, NAME);
    project.update(|h| h.plan(TARGET)).expect("initial plan");
    (ws, project)
}

#[derive(Default)]
struct Pass {
    plan: Samples,
    replan: Samples,
    forecast: Samples,
    status: Samples,
    run: Samples,
}

impl Pass {
    fn kinds(&self) -> [&Samples; 5] {
        [
            &self.plan,
            &self.replan,
            &self.forecast,
            &self.status,
            &self.run,
        ]
    }

    fn ops_per_s(&self) -> f64 {
        common::block_ops_per_s(&self.kinds(), self.run.len())
    }
}

/// A plan, checked against the last replan's finish (the estimates
/// are equal in between).
fn plan_op(
    out: &mut Samples,
    project: &Project,
    r: u64,
    replan_finish: Option<f64>,
    report: &mut Report,
) {
    let plan = common::timed_op(out, "op.plan", r, || project.update(|h| h.plan(TARGET)));
    let finish = plan.as_ref().ok().map(|p| p.project_finish().days());
    report.op(finish.is_some());
    if let (Some(prev), Some(now)) = (replan_finish, finish) {
        report.check(prev == now, || {
            format!("round {r}: plan finish {now} differs from replan finish {prev} under equal estimates")
        });
    }
}

fn status_op(out: &mut Samples, project: &Project, r: u64, report: &mut Report) {
    let status = common::timed_op(out, "op.status", r, || project.read(status_body));
    report.op(!status.is_empty());
}

/// `rounds` rounds of: plan; status; set one estimate and replan;
/// status; plan; forecast; status; run on a fresh copy. A designer
/// reads status between the other ops, as `herc top` does.
fn pass(ctx: &Ctx, ws: &Workspace, project: &Project, rounds: usize, report: &mut Report) -> Pass {
    let activities: Vec<String> = project.read(|h| {
        h.extract_task_tree(TARGET)
            .expect("task tree")
            .activities()
            .to_vec()
    });
    let mut rng = ctx.rng(200);
    let mut out = Pass::default();
    let mut replan_finish: Option<f64> = None;
    let mut copy_finish: Option<f64> = None;
    for r in 0..rounds as u64 {
        plan_op(&mut out.plan, project, r, replan_finish, report);
        status_op(&mut out.status, project, r, report);

        let activity = &activities[rng.next_below(activities.len() as u64) as usize];
        let days = WorkDays::new(1.0 + rng.next_below(20) as f64 * 0.5);
        let replan = common::timed_op(&mut out.replan, "op.replan", r, || {
            project.update(|h| {
                h.set_estimate(activity, days)?;
                h.replan(TARGET)
            })
        });
        replan_finish = replan.as_ref().ok().map(|o| o.project_finish.days());
        report.op(replan.is_ok());
        status_op(&mut out.status, project, r, report);
        plan_op(&mut out.plan, project, r, replan_finish, report);

        let forecast = common::timed_op(&mut out.forecast, "op.forecast", r, || {
            project.read(|h| h.forecast(TARGET))
        });
        report.op(forecast.is_ok());
        status_op(&mut out.status, project, r, report);

        let copy_name = format!("copy{r}");
        let copy = FLOW.create(ws, &copy_name);
        let run = common::timed_op(&mut out.run, "op.run", r, || {
            copy.update(|h| {
                let plan = h.plan(TARGET)?;
                let report = h.execute_with(TARGET, ExecutionPolicy::Fifo, None)?;
                Ok::<_, hercules::HerculesError>((
                    plan.project_finish().days(),
                    report.all_converged(),
                ))
            })
        });
        drop(copy);
        ws.remove_project(&copy_name).expect("remove copy");
        report.op(run.is_ok());
        if let Ok((finish, converged)) = run {
            report.check(converged, || format!("round {r}: run did not converge"));
            let first = *copy_finish.get_or_insert(finish);
            report.check(first == finish, || {
                format!("round {r}: fresh-copy plan finish {finish} differs from {first}")
            });
        }
    }
    out
}

pub fn measure(ctx: &Ctx) -> Report {
    let (mut setups, setup_s) = common::repeated_setup(SETUPS, |k| setup(ctx, k));
    let (ws, project) = setups.pop().expect("at least one set-up");
    drop(setups);
    let mut report = Report::default();
    pass(ctx, &ws, &project, common::WARMUP_ROUNDS, &mut report);
    let pass = pass(ctx, &ws, &project, ctx.ops(ROUNDS_PER_SECOND), &mut report);
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
    report.latency("replan_p50_ms", &pass.replan, 0.5);
    report.latency("forecast_p50_ms", &pass.forecast, 0.5);
    report.latency("run_p50_ms", &pass.run, 0.5);
    report
}

/// The traced run: the same rounds on identical set-ups, untraced
/// then traced, for the trace overhead; then the ledger on this
/// workload's flow.
pub fn ledger(ctx: &Ctx) -> Report {
    let setups = [setup(ctx, 0), setup(ctx, 1)];
    let mut report = Report::default();
    let rounds = ctx.ops(ROUNDS_PER_SECOND);
    for (ws, project) in &setups {
        pass(ctx, ws, project, common::WARMUP_ROUNDS, &mut report);
    }
    let plain = pass(ctx, &setups[0].0, &setups[0].1, rounds, &mut report);
    trace::set_enabled(true);
    let traced = pass(ctx, &setups[1].0, &setups[1].1, rounds, &mut report);
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
