//! The per-layer ledger every workload's traced run prints. Each
//! layer's public calls are timed or counted from outside, on projects
//! of the workload's own flow, so one ledger reads differently per
//! workload: HTTP against a 65-activity status body, levelling on a
//! 1001-activity network, opens of a store with deep history.
//!
//! Every probe runs a fixed, seeded amount of work. Each line names
//! the end-to-end metric of its workload the layer should move.

use std::collections::HashMap;
use std::sync::Arc;

use hercules::{ExecutionPolicy, Hercules, TaskTree, Workspace};
use metadata::{MetadataDb, PersistentStore, Store};
use schedule::{level_resources, Resource, ResourcePool, ScheduleNetwork, WorkDays};
use serve::http::{read_request, ReadOutcome};
use serve::{status_body, Admission, Response};

use crate::common::{self, run_once, Ctx, Flow, TARGET};
use crate::report::Report;
use crate::serve_mixed::{self, Kind};
use crate::stats;
use crate::trace;
use crate::vfs::CountingVfs;

/// Requests per client thread of each served-path replay.
const REPLAY_OPS: usize = 150;
/// Replans behind `kernel.replan_ms` and the `store.*_per_replan`.
const REPLANS: u64 = 50;
/// Cache-hit plans behind the `store.*_per_plan`.
const PLANS: u64 = 5;

/// Runs every probe on `flow` and adds its lines to `report`.
pub fn run(ctx: &Ctx, flow: &Flow, report: &mut Report) {
    served(ctx, flow, report);
    plan_steps(ctx, flow, report);
    kernel_replan(ctx, flow, report);
    engine(flow, report);
    store_writes(ctx, flow, report);
    history(ctx, flow, report);
}

/// `-> metric @workload`: where a layer's cost should show.
fn to(ctx: &Ctx, metric: &str) -> String {
    format!("-> {metric} @{}", ctx.workload())
}

/// A workspace holding the one probe project of `flow`, planned and
/// executed `flow.history` times.
fn probe_workspace(ctx: &Ctx, flow: &Flow, dir: &str) -> Arc<Workspace> {
    let ws = Arc::new(Workspace::persistent(ctx.path(dir)));
    let project = flow.create(&ws, &serve_mixed::project_name(0));
    project.update(|h| h.plan(TARGET)).expect("probe plan");
    for _ in 0..flow.history {
        assert!(
            project.update(run_once).expect("probe run"),
            "probe run converges"
        );
    }
    ws
}

/// `serve::http`, `serve::auth`, `serve::api`, `serve::batch`, the
/// workspace lock and rendering: one seeded status/replan/plan mix on
/// the probe project, served over TCP, replayed through `Api::handle`
/// and replayed onto `Project::read`/`update`, each on an identical
/// probe workspace.
fn served(ctx: &Ctx, flow: &Flow, report: &mut Report) {
    let ops = serve_mixed::draw_ops(ctx, 300, REPLAY_OPS, 1);
    let setups: Vec<_> = (0..3)
        .map(|k| probe_workspace(ctx, flow, &format!("probe-serve-{k}")))
        .collect();

    let server = serve_mixed::start_server(&setups[0]);
    let (passes0, requests0) = serve_mixed::coalesce_counters(&server);
    let pass = serve_mixed::served_pass(&server, &ops);
    let (passes1, requests1) = serve_mixed::coalesce_counters(&server);
    serve_mixed::check(report, &server, &setups[0], &pass, 1);
    server.shutdown();
    report.value(
        "coalesce.passes_per_replan",
        "ratio",
        (passes1 - passes0) / (requests1 - requests0),
        format!(
            "{} kernel passes for {} replan requests {}",
            passes1 - passes0,
            requests1 - requests0,
            to(ctx, "typical_ops_per_s")
        ),
    );

    // serve::api — the same mix through `Api::handle` on two threads.
    let handle_ms = serve_mixed::api_replay(&setups[1], &ops);
    for (kind, name, metric) in [
        (Kind::Status, "api.status_ms", "status_p50_ms"),
        (Kind::Replan, "api.replan_ms", "typical_ops_per_s"),
        (Kind::Plan, "api.plan_ms", "plan_p50_ms"),
    ] {
        let values: Vec<f64> = serve_mixed::zip_kind(&ops, &handle_ms, kind)
            .map(|(_, h)| h)
            .collect();
        report.value(
            name,
            "ms",
            stats::median(&values),
            format!("Api::handle median of {} {}", values.len(), to(ctx, metric)),
        );
    }
    // serve::http wire share: client latency minus handle time, per
    // status request of the same seeded sequence.
    let wire: Vec<f64> = serve_mixed::zip_kind(&ops, &handle_ms, Kind::Status)
        .map(|((c, i), h)| pass.latencies[c][i].0 - h)
        .collect();
    report.value(
        "http.wire_ms",
        "ms",
        stats::median(&wire),
        format!(
            "client status latency minus Api::handle {}",
            to(ctx, "status_p50_ms")
        ),
    );

    // hercules::workspace lock wait and render, replayed directly.
    serve_mixed::direct_replay(&setups[2], &ops);
    let waits = trace::durations_ms("workspace.lock_wait");
    report.value(
        "workspace.lock_wait_ms",
        "ms",
        stats::percentile(&waits, 0.99),
        format!(
            "p99 of {} waits {}",
            waits.len(),
            to(ctx, "typical_ops_per_s")
        ),
    );
    report.per_call(
        "render.status_us",
        "render.status",
        "us",
        &to(ctx, "status_p50_ms"),
    );
    report.per_call(
        "render.replan_us",
        "render.replan",
        "us",
        &to(ctx, "typical_ops_per_s"),
    );

    // serve::http parse and encode, serve::auth — batches of calls.
    let recorded = serve_mixed::record_request();
    let body = setups[2]
        .project(&serve_mixed::project_name(0))
        .expect("probe project")
        .read(status_body);
    batches("http.parse", || {
        let outcome = read_request(&mut std::io::Cursor::new(&recorded));
        assert!(
            matches!(outcome, ReadOutcome::Request(_)),
            "recorded request parses"
        );
    });
    batches("http.encode", || {
        let mut resp = Response::text(200, body.clone());
        resp.extra_headers
            .push(("x-herc-trace".to_owned(), "00000000feedf00d".to_owned()));
        std::hint::black_box(resp.to_bytes(true));
    });
    let registry = serve_mixed::tokens();
    let admission = Admission::new(64);
    let header = format!("Bearer {}", serve_mixed::TENANTS[0].1);
    batches("auth.check", || {
        let tenant = registry.authenticate(Some(&header)).expect("known token");
        std::hint::black_box(admission.try_enter(&tenant).expect("under cap"));
    });
    let status = to(ctx, "status_p50_ms");
    per_batch(
        report,
        "http.parse_us",
        "http.parse",
        &format!("read_request on recorded bytes {status}"),
    );
    per_batch(
        report,
        "http.encode_us",
        "http.encode",
        &format!("Response::to_bytes of the status body {status}"),
    );
    per_batch(
        report,
        "auth.check_us",
        "auth.check",
        &format!("authenticate + try_enter {status}"),
    );
}

const BATCH: usize = 100;

/// Times 200 batches of [`BATCH`] calls of `f`, one span per batch.
fn batches(name: &'static str, mut f: impl FnMut()) {
    for b in 0..200 {
        let _span = trace::span(name, b);
        for _ in 0..BATCH {
            f();
        }
    }
}

/// Median per-call time, in µs, of the batches recorded as `span`.
fn per_batch(report: &mut Report, name: &'static str, span: &str, note: &str) {
    let per_call: Vec<f64> = trace::durations_ms(span)
        .iter()
        .map(|ms| ms * 1e3 / BATCH as f64)
        .collect();
    report.value(
        name,
        "us",
        stats::median(&per_call),
        format!("median of {} batches of {BATCH}: {note}", per_call.len()),
    );
}

/// The precedence network as `plan_scope` builds it: estimated
/// durations, one precedence per consumed output, one round-robin
/// designer demand per activity.
fn build_network(h: &Hercules, tree: &TaskTree) -> ScheduleNetwork {
    let mut net = ScheduleNetwork::new();
    let mut ids = HashMap::new();
    for activity in tree.activities() {
        let duration = h.duration_estimate(activity).expect("estimate");
        let id = net
            .add_activity(activity.clone(), duration)
            .expect("activity");
        ids.insert(activity.clone(), id);
    }
    for activity in tree.activities() {
        for consumer in tree.consumers_of_output(activity) {
            net.add_precedence(ids[activity.as_str()], ids[consumer])
                .expect("precedence");
        }
    }
    for (k, activity) in tree.activities().iter().enumerate() {
        net.add_demand(ids[activity.as_str()], h.team().assignee(k).to_owned(), 1)
            .expect("demand");
    }
    net
}

/// A plan's steps, called one by one from outside: task-tree
/// extraction, estimate lookup, network build, CPM, levelling.
fn plan_steps(ctx: &Ctx, flow: &Flow, report: &mut Report) {
    let mut h = flow.manager();
    h.plan(TARGET).expect("plan");
    let mut pool = ResourcePool::new();
    for designer in h.team().iter() {
        pool.add(Resource::new(designer, 1));
    }
    let mut net = None;
    for i in 0..10 {
        let _steps = trace::span("ledger.plan_steps", i);
        let tree = trace::timed("core.extract", i, || {
            h.extract_task_tree(TARGET).expect("tree")
        });
        trace::timed("core.estimate", i, || {
            for a in tree.activities() {
                std::hint::black_box(h.duration_estimate(a).expect("estimate"));
            }
        });
        let built = trace::timed("schedule.build", i, || build_network(&h, &tree));
        trace::timed("schedule.cpm", i, || {
            built.analyze_incremental().expect("cpm")
        });
        trace::timed("schedule.level", i, || {
            level_resources(&built, &pool).expect("level")
        });
        net = Some(built);
    }
    let plan = to(ctx, "plan_p50_ms");
    report.per_call("core.extract_ms", "core.extract", "ms", &plan);
    report.per_call("core.estimate_ms", "core.estimate", "ms", &plan);
    report.per_call("schedule.build_ms", "schedule.build", "ms", &plan);
    report.per_call(
        "schedule.cpm_ms",
        "schedule.cpm",
        "ms",
        &format!("{plan} (predicted: no move)"),
    );
    report.per_call("schedule.level_ms", "schedule.level", "ms", &plan);

    // One dirty activity per update, as a replan's estimate change.
    let mut net = net.expect("ten builds");
    let mut inc = net.analyze_incremental().expect("cpm");
    let ids: Vec<_> = net.activities().collect();
    let mut rng = ctx.rng(201);
    let mut recomputed = 0usize;
    const UPDATES: u64 = 200;
    for u in 0..UPDATES {
        let id = ids[rng.next_below(ids.len() as u64) as usize];
        net.set_duration(id, WorkDays::new(1.0 + rng.next_below(20) as f64 * 0.5))
            .expect("duration");
        let stats = trace::timed("schedule.cpm_update", u, || {
            inc.update(&net, &[id]).expect("update")
        });
        recomputed += stats.total_recomputed();
    }
    let replan = to(ctx, "typical_ops_per_s");
    report.per_call(
        "schedule.cpm_update_us",
        "schedule.cpm_update",
        "us",
        &replan,
    );
    report.value(
        "schedule.cpm_recomputed",
        "count",
        recomputed as f64 / UPDATES as f64,
        format!("activities recomputed per one-activity update, over {UPDATES} {replan}"),
    );
}

/// `Hercules::replan` on an in-memory store, and the store appends,
/// bytes and I/O time per replan through a counting filesystem (each
/// sequence counted twice on fresh stores to check the counts repeat).
fn kernel_replan(ctx: &Ctx, flow: &Flow, report: &mut Report) {
    let mut mem = flow.manager();
    mem.plan(TARGET).expect("plan");
    for r in 0..REPLANS {
        trace::timed("kernel.replan", r, || mem.replan(TARGET).expect("replan"));
    }
    let target = to(ctx, "typical_ops_per_s");
    report.per_call("kernel.replan_ms", "kernel.replan", "ms", &target);

    let replans = |dir: &str| {
        common::count_io(
            ctx.path(dir),
            flow,
            |h| drop(h.plan(TARGET).expect("plan")),
            |h| {
                for _ in 0..REPLANS {
                    h.replan(TARGET).expect("replan");
                }
            },
        )
        .0
    };
    let (d, again) = (replans("counted-replan-a"), replans("counted-replan-b"));
    common::check_repeat(report, "replan", &d, &again);
    let n = REPLANS as f64;
    let note = format!("over {REPLANS} replans {target}");
    report.value(
        "store.appends_per_replan",
        "count",
        d.appends as f64 / n,
        note.clone(),
    );
    report.value(
        "store.bytes_per_replan",
        "bytes",
        d.bytes_written as f64 / n,
        note.clone(),
    );
    report.value("store.io_ms_per_replan", "ms", d.io_ms() / n, note);
}

/// `execute_with` (Fifo) on an in-memory store.
fn engine(flow: &Flow, report: &mut Report) {
    let mut runs = 0;
    for i in 0..3 {
        let mut h = flow.manager();
        h.plan(TARGET).expect("plan");
        let rep = trace::timed("engine.execute_mem", i, || {
            h.execute_with(TARGET, ExecutionPolicy::Fifo, None)
                .expect("execute")
        });
        runs = rep.total_runs();
    }
    report.per_call(
        "engine.execute_mem_ms",
        "engine.execute_mem",
        "ms",
        "-> typical_ops_per_s where a workload runs",
    );
    report.value(
        "engine.activity_runs",
        "count",
        f64::from(runs),
        "ExecutionReport::total_runs -> typical_ops_per_s where a workload runs".to_owned(),
    );
}

/// Store appends, bytes and I/O time per plan and per run, each
/// sequence counted twice on fresh stores to check the counts repeat.
fn store_writes(ctx: &Ctx, flow: &Flow, report: &mut Report) {
    let plans = |dir: &str| {
        common::count_io(
            ctx.path(dir),
            flow,
            |h| drop(h.plan(TARGET).expect("plan")),
            |h| {
                for _ in 0..PLANS {
                    h.plan(TARGET).expect("plan");
                }
            },
        )
        .0
    };
    let (d, again) = (plans("counted-plan-a"), plans("counted-plan-b"));
    common::check_repeat(report, "plan", &d, &again);
    let n = PLANS as f64;
    let note = format!("over {PLANS} cache-hit plans {}", to(ctx, "plan_p50_ms"));
    report.value(
        "store.appends_per_plan",
        "count",
        d.appends as f64 / n,
        note.clone(),
    );
    report.value(
        "store.bytes_per_plan",
        "bytes",
        d.bytes_written as f64 / n,
        note.clone(),
    );
    report.value("store.io_ms_per_plan", "ms", d.io_ms() / n, note);

    let run = |dir: &str| {
        common::count_io(
            ctx.path(dir),
            flow,
            |h| drop(h.plan(TARGET).expect("plan")),
            |h| {
                drop(
                    h.execute_with(TARGET, ExecutionPolicy::Fifo, None)
                        .expect("execute"),
                )
            },
        )
    };
    let ((d, h), (again, _)) = (run("counted-run-a"), run("counted-run-b"));
    common::check_repeat(report, "run", &d, &again);
    let data_bytes = data_object_bytes(h.store().db());
    let target = "-> typical_ops_per_s where a workload runs";
    report.value(
        "store.bytes_per_run",
        "bytes",
        d.bytes_written as f64,
        format!("journal bytes appended by one execution {target}"),
    );
    report.value(
        "store.write_amp",
        "ratio",
        d.bytes_written as f64 / data_bytes as f64,
        format!("journal bytes per data-object byte ({data_bytes} B) {target}"),
    );
}

/// Total size of the design data every entity instance points at.
fn data_object_bytes(db: &MetadataDb) -> usize {
    db.entity_classes()
        .flat_map(|class| db.entity_container(class).unwrap_or_default())
        .map(|&id| db.data_object(db.entity_instance(id).data()).size())
        .sum()
}

/// `metadata::store` reads and compaction and `metadata::database` dump
/// and load, on a probe project
/// compacted after its `flow.history` executions and then run once
/// more, so the store holds a snapshot plus a tail as every measured
/// pre-gc open in `history_deep` does.
fn history(ctx: &Ctx, flow: &Flow, report: &mut Report) {
    let root = ctx.path("probe-history");
    let name = serve_mixed::project_name(0);
    let dir = root.join(&name);
    let ws = probe_workspace(ctx, flow, "probe-history");
    let project = ws.project(&name).expect("probe project");
    project.gc().expect("probe gc");
    assert!(project.update(run_once).expect("run"), "run converges");
    let (runs, instances) = project.read(|h| (h.db().runs().len(), h.db().schedule_count()));
    let depth = to(ctx, "status_p50_ms, plan_p50_ms");
    report.value(
        "db.runs",
        "count",
        runs as f64,
        format!("history depth {depth}"),
    );
    report.value(
        "db.schedule_instances",
        "count",
        instances as f64,
        format!("history depth {depth}"),
    );
    let dump = project.read(|h| h.db().dump());
    drop((project, ws));

    let store = PersistentStore::open(&dir).expect("open store");
    for i in 0..5 {
        trace::timed("metadata.dump", i, || store.db().dump());
    }
    drop(store);
    for i in 0..5 {
        trace::timed("metadata.load", i, || {
            MetadataDb::load(&dump).expect("load")
        });
    }
    let ops = to(ctx, "typical_ops_per_s");
    report.per_call(
        "metadata.dump_ms",
        "metadata.dump",
        "ms",
        &format!("(gc) {ops}"),
    );
    report.per_call(
        "metadata.load_ms",
        "metadata.load",
        "ms",
        &format!("(open) {ops}"),
    );

    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("store dir")
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    report.value(
        "store.space_amp",
        "ratio",
        on_disk as f64 / dump.len() as f64,
        format!(
            "{on_disk} B on disk per {} B of dump (open) {ops}",
            dump.len()
        ),
    );

    // Opens through the counting filesystem.
    let vfs = CountingVfs::new();
    let mut per_open = Vec::new();
    for i in 0..5 {
        let before = vfs.counts();
        let store = trace::timed("store.open", i, || {
            PersistentStore::open_on(vfs.clone(), &dir).expect("open store")
        });
        per_open.push(vfs.counts() - before);
        drop(store);
    }
    for pair in per_open.windows(2) {
        common::check_repeat(report, "open", &pair[0], &pair[1]);
    }
    let open_ms: Vec<f64> = per_open.iter().map(|c| c.io_ms()).collect();
    report.value(
        "store.open_bytes_read",
        "bytes",
        per_open[0].bytes_read as f64,
        format!("{} reads per open (open) {ops}", per_open[0].reads),
    );
    report.value(
        "store.open_io_ms",
        "ms",
        stats::median(&open_ms),
        format!("filesystem time per open, median of 5 (open) {ops}"),
    );

    // Compaction through the counting filesystem.
    let store = PersistentStore::open_on(vfs.clone(), &dir).expect("open store");
    let mut h = flow.manager_on(Box::new(store));
    let before = vfs.counts();
    trace::timed("store.gc", 0, || h.gc().expect("gc"));
    let d = vfs.counts() - before;
    let note = format!("one compaction (gc) {ops}");
    report.value(
        "store.gc_bytes_written",
        "bytes",
        d.bytes_written as f64,
        note.clone(),
    );
    report.value("store.gc_fsyncs", "count", d.fsyncs as f64, note.clone());
    report.value("store.gc_io_ms", "ms", d.io_ms(), note);
}
