//! `herc` — a command-line front end to the integrated workflow
//! manager, the batch equivalent of the paper's Fig. 8 user interface.
//!
//! ```text
//! herc schema <file>                         validate and print a task schema
//! herc plan   <file> <target> [options]      propose a schedule
//! herc run    <file> <target> [options]      plan, execute, and show status
//! herc sweep  <file> <target> --deadline D   find the minimal team
//! herc report <file> <target> --load DB      full report from a saved database
//! herc chaos  [--seed N] [--count K] [--trace-dir DIR]
//!                                            replay seeded chaos scenarios
//! herc trace  <scenario> [--seed N] [--out FILE] [--jsonl] [--logical]
//!                                            record a session as Chrome JSON
//! herc metrics <scenario> [--seed N] [--json]
//!                                            run a scenario, dump the registry
//! herc ws <root> list                        list persisted projects
//! herc ws <root> create <name> <file> [options]
//!                                            create a persistent project
//! herc ws <root> plan <name> <file> <target> [options]
//!                                            plan inside a persisted project
//! herc ws <root> run  <name> <file> <target> [options]
//!                                            plan + execute + status
//! herc ws <root> status <name> <file> [options]
//!                                            status of a persisted project
//! herc gc <root> [<name>...]                 compact project journals
//! herc fsck <root> [--repair]                scrub every project store under
//!                                            a root (checksums, headers,
//!                                            session configs); --repair
//!                                            rebuilds damaged stores from
//!                                            their best recoverable state
//! herc serve <root> [--addr HOST:PORT] [--tokens FILE] [--workers N]
//!                                            serve the workspace over HTTP
//!                                            (`:memory:` for a scratch root;
//!                                            --oneshot METHOD PATH issues one
//!                                            loopback request and exits)
//!
//! options:
//!   --team N      designers on the project (default 2)
//!   --seed N      project seed (default 42)
//!   --estimate ACTIVITY=DAYS   designer intuition (repeatable)
//!   --save FILE   dump the metadata database after `run`
//!   --load FILE   restore a previously saved database first
//!   --policy P    scheduling policy for `run` / `ws run`:
//!                 fifo (default), minslack, heft, worksteal
//!   --workers N   execute on a simulated uniform cluster of N workers
//!                 instead of binding activities to their assignees
//! ```
//!
//! `trace` scenarios are the named sessions in [`hercules::trace`]:
//! `fig8` (the paper's Fig. 8 walkthrough) and `chaos` (a seeded fault
//! scenario). The default output is Chrome `trace_event` JSON — load it
//! at `chrome://tracing` or <https://ui.perfetto.dev>. `--jsonl` emits
//! the flat event log instead; `--logical` switches timestamps to the
//! deterministic logical timebase (what the golden test pins). When a
//! `chaos` run fails with `--trace-dir`, each failing seed ships its
//! trace as `DIR/chaos_trace_seed_N.json`.
//!
//! Example:
//!
//! ```text
//! herc run examples.schema performance --team 2 --seed 7
//! ```

use std::process::ExitCode;

use hercules::{ExecutionPolicy, Hercules, Workspace};
use metadata::{PersistentStore, Store};
use schedule::gantt::GanttOptions;
use schedule::WorkDays;
use simtools::cluster::Cluster;
use simtools::{workload::Team, ToolLibrary};

struct Options {
    team: usize,
    seed: u64,
    deadline: Option<f64>,
    estimates: Vec<(String, f64)>,
    save: Option<String>,
    load: Option<String>,
    policy: Option<ExecutionPolicy>,
    workers: Option<usize>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: herc <schema|plan|run|sweep|report> <schema-file> [<target>] \
         [--team N] [--seed N] [--deadline D] [--estimate ACTIVITY=DAYS] \
         [--policy P] [--workers N]\n\
         \x20      herc chaos [--seed N] [--count K] [--policy P] [--trace-dir DIR]\n\
         \x20      herc trace <fig8|chaos> [--seed N] [--out FILE] [--jsonl] [--logical]\n\
         \x20      herc metrics <fig8|chaos> [--seed N] [--json]\n\
         \x20      herc ws <root> <list|create|plan|run|status> [<name> <schema-file> [<target>]] [options]\n\
         \x20      herc gc <root> [<name>...]\n\
         \x20      herc fsck <root> [--repair]\n\
         \x20      herc serve <root> [--addr HOST:PORT] [--tokens FILE] [--workers N] \
         [--queue-cap N] [--tenant-cap N] [--access-log FILE] [--flight-cap N] \
         [--oneshot METHOD PATH] [--trace-id HEX]\n\
         \x20      herc top <url> [--token TOKEN] [--interval SECS] [--count N]"
    );
    ExitCode::from(2)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        team: 2,
        seed: 42,
        deadline: None,
        estimates: Vec::new(),
        save: None,
        load: None,
        policy: None,
        workers: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--team" => {
                opts.team = value("--team")?
                    .parse()
                    .map_err(|e| format!("--team: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--deadline" => {
                opts.deadline = Some(
                    value("--deadline")?
                        .parse()
                        .map_err(|e| format!("--deadline: {e}"))?,
                );
            }
            "--save" => {
                opts.save = Some(value("--save")?);
            }
            "--load" => {
                opts.load = Some(value("--load")?);
            }
            "--policy" => {
                opts.policy = Some(value("--policy")?.parse()?);
            }
            "--workers" => {
                opts.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--estimate" => {
                let spec = value("--estimate")?;
                let (activity, days) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--estimate wants ACTIVITY=DAYS, got {spec:?}"))?;
                let days: f64 = days.parse().map_err(|e| format!("--estimate: {e}"))?;
                opts.estimates.push((activity.to_owned(), days));
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn manager(source: &str, opts: &Options) -> Result<Hercules, String> {
    let schema = schema::parse_schema(source).map_err(|e| e.to_string())?;
    let mut h = Hercules::new(
        schema,
        ToolLibrary::standard(),
        Team::of_size(opts.team.max(1)),
        opts.seed,
    );
    for (activity, days) in &opts.estimates {
        h.set_estimate(activity, WorkDays::new(*days))
            .map_err(|e| e.to_string())?;
    }
    if let Some(policy) = opts.policy {
        h.set_execution_policy(policy);
    }
    if let Some(workers) = opts.workers {
        if workers == 0 {
            return Err("--workers wants at least 1".to_owned());
        }
        h.set_cluster(Cluster::uniform(workers));
    }
    if let Some(path) = &opts.load {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let db = metadata::MetadataDb::load(&text).map_err(|e| e.to_string())?;
        h.restore_db(db).map_err(|e| e.to_string())?;
    }
    Ok(h)
}

fn cmd_schema(source: &str) -> Result<(), String> {
    let schema = schema::parse_schema(source).map_err(|e| e.to_string())?;
    print!("{schema}");
    let graph = schema::SchemaGraph::for_schema(&schema);
    println!("activity order: {}", graph.activity_order().join(" -> "));
    println!(
        "primary inputs: {}",
        schema
            .primary_inputs()
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

fn cmd_plan(source: &str, target: &str, opts: &Options) -> Result<(), String> {
    let mut h = manager(source, opts)?;
    let plan = h.plan(target).map_err(|e| e.to_string())?;
    println!("proposed schedule for {target:?} (team of {}):", opts.team);
    for pa in plan.activities() {
        println!(
            "  {:<16} [{} .. {}] {} {}",
            pa.activity,
            pa.start,
            pa.start + pa.duration,
            if pa.critical { "*" } else { " " },
            pa.assignee
        );
    }
    println!("proposed finish: day {}", plan.project_finish());
    Ok(())
}

fn cmd_run(source: &str, target: &str, opts: &Options) -> Result<(), String> {
    let mut h = manager(source, opts)?;
    h.plan(target).map_err(|e| e.to_string())?;
    let report = h.execute(target).map_err(|e| e.to_string())?;
    println!(
        "executed {} activities in {} runs, finished day {}",
        report.activities().len(),
        report.total_runs(),
        report.finished_at()
    );
    let status = h.status();
    print!(
        "\n{}",
        status.gantt(&GanttOptions {
            ascii: true,
            width: 64,
            label_width: 16,
            ..GanttOptions::default()
        })
    );
    println!("\n{status}");
    println!("variance: {}", status.variance());
    if let Some(path) = &opts.save {
        std::fs::write(path, h.db().dump()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("database saved to {path}");
    }
    Ok(())
}

fn cmd_report(source: &str, target: &str, opts: &Options) -> Result<(), String> {
    let h = manager(source, opts)?;
    let report = h
        .project_report(&hercules::report::ReportOptions::for_target(target))
        .map_err(|e| e.to_string())?;
    print!("{report}");
    Ok(())
}

fn cmd_sweep(source: &str, target: &str, opts: &Options) -> Result<(), String> {
    let deadline = opts.deadline.ok_or("sweep needs --deadline DAYS")?;
    let h = manager(source, opts)?;
    let sweep = h
        .sweep_team_sizes(target, WorkDays::new(deadline), opts.team.max(1).max(6))
        .map_err(|e| e.to_string())?;
    println!("team-size sweep for {target:?} (deadline day {deadline}):");
    for p in &sweep.points {
        let marker = if p.finish.days() <= deadline {
            "meets"
        } else {
            "     "
        };
        println!(
            "  {} designer(s): finish day {}  {marker}",
            p.team_size, p.finish
        );
    }
    match sweep.minimal_team {
        Some(team) => println!("minimal team meeting the deadline: {team}"),
        None => println!("no team size within the sweep meets the deadline"),
    }
    if let Some(sat) = sweep.saturation_team {
        println!("staffing saturates at {sat} designer(s)");
    }
    Ok(())
}

/// Replays seeded chaos scenarios (`hercules::chaos`) and reports each
/// one's verdict. Exits non-zero if any scenario violates a property —
/// the interactive twin of the `chaos` CI stage, used to replay a CI
/// failure locally: `herc chaos --seed N`.
///
/// With `--trace-dir DIR`, every *failing* seed is re-run under the
/// trace collector and its Chrome `trace_event` JSON is written to
/// `DIR/chaos_trace_seed_N.json`, so the telemetry of the failure
/// travels with the failure report.
///
/// Each seed normally draws its own scheduling policy; `--policy P`
/// pins every scenario to one policy instead (the rest of the seed
/// derivation is unchanged, so a sweep stays comparable across
/// policies).
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let mut seed = 0u64;
    let mut count = 1u64;
    let mut policy: Option<ExecutionPolicy> = None;
    let mut trace_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--count" => {
                count = value("--count")?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?;
                if count == 0 {
                    return Err("--count must be at least 1".to_owned());
                }
            }
            "--policy" => {
                policy = Some(value("--policy")?.parse()?);
            }
            "--trace-dir" => {
                trace_dir = Some(value("--trace-dir")?);
            }
            other => return Err(format!("chaos: unknown option {other:?}")),
        }
    }
    let reports: Vec<_> = match policy {
        None => hercules::chaos::run_suite(seed, count),
        Some(p) => (seed..seed + count)
            .map(|s| {
                hercules::chaos::ChaosScenario::from_seed(s)
                    .with_policy(p)
                    .run()
            })
            .collect(),
    };
    let mut failing: Vec<u64> = Vec::new();
    for report in &reports {
        println!("{report}");
        if !report.is_clean() {
            failing.push(report.seed);
        }
    }
    if let Some(dir) = &trace_dir {
        for s in &failing {
            let trace = hercules::trace::record("chaos", *s)?;
            let json = obs::export::to_chrome(&trace, obs::export::Timebase::Wall);
            let path = std::path::Path::new(dir).join(format!("chaos_trace_seed_{s}.json"));
            obs::export::write_atomic(&path, &json)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("trace for failing seed {s} written to {}", path.display());
        }
    }
    if !failing.is_empty() {
        return Err(format!(
            "{}/{count} chaos scenario(s) violated failure-semantics properties",
            failing.len()
        ));
    }
    Ok(())
}

/// Records a named scenario (`hercules::trace`) and writes (or prints)
/// the trace: Chrome `trace_event` JSON by default, the flat JSONL
/// event log with `--jsonl`. `--logical` swaps wall-clock for the
/// deterministic logical timebase.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let Some(scenario) = args.first() else {
        return Err(format!(
            "trace needs a scenario (one of: {})",
            hercules::trace::SCENARIOS.join(", ")
        ));
    };
    let mut seed = hercules::trace::CHAOS_TRACE_SEED;
    let mut out: Option<String> = None;
    let mut jsonl = false;
    let mut timebase = obs::export::Timebase::Wall;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => out = Some(value("--out")?),
            "--jsonl" => jsonl = true,
            "--logical" => timebase = obs::export::Timebase::Logical,
            other => return Err(format!("trace: unknown option {other:?}")),
        }
    }
    let trace = hercules::trace::record(scenario, seed)?;
    trace.validate()?;
    let rendered = if jsonl {
        obs::export::to_jsonl(&trace, timebase)
    } else {
        obs::export::to_chrome(&trace, timebase)
    };
    match &out {
        Some(path) => {
            let path = std::path::Path::new(path);
            obs::export::write_atomic(path, &rendered)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "{} spans, {} events -> {}",
                trace.span_count(),
                trace.event_count(),
                path.display()
            );
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// Runs a named scenario and dumps the process-wide metrics registry —
/// the aggregate view (counters + histograms) that complements the
/// per-session span tree of `herc trace`.
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let Some(scenario) = args.first() else {
        return Err(format!(
            "metrics needs a scenario (one of: {})",
            hercules::trace::SCENARIOS.join(", ")
        ));
    };
    let mut seed = hercules::trace::CHAOS_TRACE_SEED;
    let mut json = false;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--json" => json = true,
            other => return Err(format!("metrics: unknown option {other:?}")),
        }
    }
    obs::Metrics::reset();
    hercules::trace::record(scenario, seed)?;
    if json {
        print!("{}", obs::Metrics::to_json());
    } else {
        print!("{}", obs::Metrics::render());
    }
    Ok(())
}

/// Compacts persisted project stores under a workspace root: folds
/// each journal tail into a fresh snapshot (`snapshot-{N+1}` +
/// empty tail, swapped in via temp/rename) and reports what shrank.
/// With no names, every on-disk project is compacted.
fn cmd_gc(args: &[String]) -> Result<(), String> {
    let Some(root) = args.first() else {
        return Err("gc needs a workspace root directory".to_owned());
    };
    if !std::path::Path::new(root).is_dir() {
        return Err(format!("no workspace at {root:?}: not a directory"));
    }
    let names: Vec<String> = if args.len() > 1 {
        args[1..].to_vec()
    } else {
        Workspace::on_disk_projects(root)
    };
    if names.is_empty() {
        return Err(format!("no projects found under {root:?}"));
    }
    for name in &names {
        let dir = std::path::Path::new(root).join(name);
        let mut store = PersistentStore::open(&dir).map_err(|e| format!("{name}: {e}"))?;
        let stats = store.compact().map_err(|e| format!("{name}: {e}"))?;
        println!(
            "{name}: folded {} tail op(s), {} -> {} bytes, now at generation {}",
            stats.tail_ops_before, stats.bytes_before, stats.bytes_after, stats.generation
        );
    }
    Ok(())
}

/// Scrubs every project store under a workspace root, printing a
/// per-file verdict, and exits non-zero if anything is damaged. With
/// `--repair`, rebuilds each damaged-but-repairable store from its
/// best recoverable state first (damaged files are quarantined as
/// `<name>.quarantine`, never deleted).
fn cmd_fsck(args: &[String]) -> Result<(), String> {
    let Some(root) = args.first() else {
        return Err("fsck usage: herc fsck <root> [--repair]".to_owned());
    };
    let mut repair = false;
    for arg in &args[1..] {
        match arg.as_str() {
            "--repair" => repair = true,
            other => return Err(format!("fsck: unknown option {other:?}")),
        }
    }
    let report = hercules::fsck::fsck_workspace(root, repair).map_err(|e| e.to_string())?;
    if report.projects.is_empty() {
        println!("{root}: no projects");
        return Ok(());
    }
    for project in &report.projects {
        let verdict = if project.healthy() { "ok" } else { "DAMAGED" };
        println!("project {}: {verdict}", project.name);
        match &project.store {
            Ok(scrub) => {
                for v in &scrub.verdicts {
                    let file = v
                        .path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    println!("  {file:<28} {:<8} {}", v.status.to_string(), v.detail);
                }
            }
            Err(e) => println!("  store: {e}"),
        }
        println!("  {:<28} {:<8}", "project.conf", project.conf.to_string());
        if let Some(outcome) = &project.repaired {
            match outcome {
                metadata::fsck::RepairOutcome::AlreadyHealthy => {
                    println!("  repaired: store was already healthy");
                }
                metadata::fsck::RepairOutcome::Repaired {
                    new_seq,
                    base_seq,
                    ops_replayed,
                    quarantined,
                } => println!(
                    "  repaired: rebuilt at sequence {new_seq} from generation {base_seq} \
                     + {ops_replayed} tail op(s); {} file(s) quarantined",
                    quarantined.len()
                ),
                _ => {}
            }
        }
    }
    let damaged = report.damaged().count();
    if damaged == 0 {
        println!("{root}: {} project(s) healthy", report.projects.len());
        Ok(())
    } else {
        let hint = if repair {
            ""
        } else {
            " (run with --repair to rebuild)"
        };
        Err(format!("{damaged} damaged project(s) under {root:?}{hint}"))
    }
}

/// Reads a schema file for the `ws` subcommands.
fn read_schema(file: &str) -> Result<schema::TaskSchema, String> {
    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
    schema::parse_schema(&source).map_err(|e| e.to_string())
}

/// Opens (or creates) a persisted project and applies session options.
fn ws_project(
    ws: &Workspace,
    name: &str,
    file: &str,
    opts: &Options,
    create: bool,
) -> Result<std::sync::Arc<hercules::Project>, String> {
    let schema = read_schema(file)?;
    let open = if create {
        Workspace::create_project
    } else {
        Workspace::open_project
    };
    let project = open(
        ws,
        name,
        schema,
        ToolLibrary::standard(),
        Team::of_size(opts.team.max(1)),
        opts.seed,
    )
    .map_err(|e| e.to_string())?;
    for (activity, days) in &opts.estimates {
        project
            .update(|h| h.set_estimate(activity, WorkDays::new(*days)))
            .map_err(|e| e.to_string())?;
    }
    if opts.policy.is_some() || opts.workers.is_some() {
        if opts.workers == Some(0) {
            return Err("--workers wants at least 1".to_owned());
        }
        project.update(|h| {
            if let Some(policy) = opts.policy {
                h.set_execution_policy(policy);
            }
            if let Some(workers) = opts.workers {
                h.set_cluster(Cluster::uniform(workers));
            }
        });
    }
    Ok(project)
}

/// Multi-project operations against a persistent workspace root:
/// `list` discovers what is on disk; `create`/`plan`/`run`/`status`
/// operate on one named project whose store lives at `root/<name>/`.
/// Every mutation is journaled as it happens, so a later `herc gc
/// <root>` can fold the tail into a fresh snapshot.
fn cmd_ws(args: &[String]) -> Result<(), String> {
    let (Some(root), Some(sub)) = (args.first(), args.get(1)) else {
        return Err("ws usage: herc ws <root> <list|create|plan|run|status> \
             [<name> <schema-file> [<target>]] [options]"
            .to_owned());
    };
    if sub == "list" {
        let names = Workspace::on_disk_projects(root);
        if names.is_empty() {
            println!("no projects under {root}");
            return Ok(());
        }
        for name in &names {
            let dir = std::path::Path::new(root).join(name);
            match PersistentStore::open(&dir) {
                Ok(store) => {
                    let db = store.db();
                    println!(
                        "{name}: generation {}, {} run(s), {} completed, {} in progress",
                        db.generation(),
                        db.runs().len(),
                        db.completed_activities().len(),
                        db.in_progress_activities().len()
                    );
                }
                Err(e) => println!("{name}: unreadable ({e})"),
            }
        }
        return Ok(());
    }
    let (Some(name), Some(file)) = (args.get(2), args.get(3)) else {
        return Err(format!("ws {sub} needs <name> <schema-file>"));
    };
    let ws = Workspace::persistent(root);
    match sub.as_str() {
        "create" => {
            let opts = parse_options(&args[4..])?;
            ws_project(&ws, name, file, &opts, true)?;
            println!("project {name:?} created under {root}");
            Ok(())
        }
        "plan" => {
            let Some(target) = args.get(4) else {
                return Err("ws plan needs <target>".to_owned());
            };
            let opts = parse_options(&args[5..])?;
            let project = ws_project(&ws, name, file, &opts, false)?;
            let plan = project
                .update(|h| h.plan(target))
                .map_err(|e| e.to_string())?;
            print!("{}", serve::plan_body(name, target, &plan));
            Ok(())
        }
        "run" => {
            let Some(target) = args.get(4) else {
                return Err("ws run needs <target>".to_owned());
            };
            let opts = parse_options(&args[5..])?;
            let project = ws_project(&ws, name, file, &opts, false)?;
            let report = project
                .update(|h| {
                    h.plan(target)?;
                    h.execute(target)
                })
                .map_err(|e| e.to_string())?;
            println!(
                "project {name:?}: executed {} activities in {} runs, finished day {}",
                report.activities().len(),
                report.total_runs(),
                report.finished_at()
            );
            project.read(|h| println!("\n{}", h.status()));
            Ok(())
        }
        "status" => {
            let opts = parse_options(&args[4..])?;
            let project = ws_project(&ws, name, file, &opts, false)?;
            project.read(|h| {
                let status = h.status();
                print!("{status}");
                println!("variance: {}", status.variance());
            });
            Ok(())
        }
        other => Err(format!("ws: unknown subcommand {other:?}")),
    }
}

/// Serves a workspace root over HTTP (see `crates/serve`). `:memory:`
/// serves a scratch in-memory workspace — handy for demos and fuzzing.
///
/// `--oneshot METHOD PATH` starts the server on a loopback port,
/// issues one request through the bundled client, prints the response
/// body, and exits non-zero on a 4xx/5xx — the scriptable form used by
/// `scripts/ws_e2e.sh`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let Some(root) = args.first() else {
        return Err(
            "serve usage: herc serve <root>|:memory: [--addr HOST:PORT] [--tokens FILE] \
             [--workers N] [--queue-cap N] [--tenant-cap N] [--access-log FILE] \
             [--flight-cap N] [--oneshot METHOD PATH] [--trace-id HEX]"
                .to_owned(),
        );
    };
    let mut config = serve::ServerConfig::default();
    let mut oneshot: Option<(String, String)> = None;
    let mut trace_id: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--tokens" => {
                let path = value("--tokens")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path:?}: {e}"))?;
                config.tokens = serve::TokenRegistry::parse(&text)?;
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-cap" => {
                config.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--tenant-cap" => {
                config.per_tenant_cap = value("--tenant-cap")?
                    .parse()
                    .map_err(|e| format!("--tenant-cap: {e}"))?;
            }
            "--oneshot" => {
                let method = value("--oneshot")?;
                let path = value("--oneshot")?;
                oneshot = Some((method, path));
            }
            "--access-log" => {
                config.access_log = Some(std::path::PathBuf::from(value("--access-log")?));
            }
            "--flight-cap" => {
                config.flight_cap = value("--flight-cap")?
                    .parse()
                    .map_err(|e| format!("--flight-cap: {e}"))?;
            }
            "--trace-id" => {
                let raw = value("--trace-id")?;
                if raw.is_empty() || raw.len() > 16 || !raw.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(format!("--trace-id: want 1-16 hex digits, got {raw:?}"));
                }
                trace_id = Some(raw);
            }
            other => return Err(format!("serve: unknown option {other:?}")),
        }
    }
    let ws = std::sync::Arc::new(if root == ":memory:" {
        Workspace::in_memory()
    } else {
        Workspace::persistent(root)
    });
    if oneshot.is_some() {
        // Don't fight another server (or the test harness) for a
        // fixed port in scripted one-request mode.
        config.addr = "127.0.0.1:0".to_owned();
    }
    let server = serve::Server::start(ws, config).map_err(|e| format!("serve: bind: {e}"))?;
    match oneshot {
        Some((method, path)) => {
            let mut client = serve::Client::new(server.addr());
            if let Some(id) = trace_id {
                client = client.with_header("x-herc-trace", id);
            }
            let response = client
                .request(&method, &path, b"")
                .map_err(|e| format!("serve: oneshot request: {e}"))?;
            print!("{}", response.body);
            server.shutdown();
            if response.is_success() {
                Ok(())
            } else {
                Err(format!("oneshot {method} {path}: HTTP {}", response.status))
            }
        }
        None => {
            println!("serving {root} at http://{}", server.addr());
            loop {
                std::thread::park();
            }
        }
    }
}

/// `herc top <url>`: a polling terminal dashboard over a live server's
/// `/metrics` JSON — per-endpoint request rates and latency
/// percentiles, per-tenant in-flight gauges, queue depth, and
/// flight-recorder drop counts. `--count N` bounds the number of
/// samples (scripts/CI); the default polls until interrupted.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let Some(url) = args.first() else {
        return Err(
            "top usage: herc top <url> [--token TOKEN] [--interval SECS] [--count N]".to_owned(),
        );
    };
    let mut token: Option<String> = None;
    let mut interval = 2.0f64;
    let mut count: Option<u64> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--token" => token = Some(value("--token")?),
            "--interval" => {
                interval = value("--interval")?
                    .parse()
                    .map_err(|e| format!("--interval: {e}"))?;
            }
            "--count" => {
                count = Some(
                    value("--count")?
                        .parse()
                        .map_err(|e| format!("--count: {e}"))?,
                );
            }
            other => return Err(format!("top: unknown option {other:?}")),
        }
    }
    let addr = parse_server_url(url)?;
    let mut client = serve::Client::new(addr);
    if let Some(token) = token {
        client = client.with_token(token);
    }
    let mut previous: Option<(std::time::Instant, std::collections::BTreeMap<String, f64>)> = None;
    let mut samples = 0u64;
    loop {
        let resp = client
            .get("/metrics")
            .map_err(|e| format!("top: {url}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("top: GET /metrics: HTTP {}", resp.status));
        }
        let now = std::time::Instant::now();
        let metrics = obs::export::parse_json(&resp.body)
            .map_err(|e| format!("top: bad metrics JSON: {e}"))?;
        let health = client
            .get("/healthz")
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| obs::export::parse_json(&r.body).ok());
        print!(
            "{}",
            render_top(url, &metrics, health.as_ref(), &previous, now)
        );
        let mut counters = std::collections::BTreeMap::new();
        if let Some(entries) = metrics.as_object() {
            for (key, value) in entries {
                if let Some(v) = value.as_f64() {
                    counters.insert(key.clone(), v);
                }
            }
        }
        previous = Some((now, counters));
        samples += 1;
        if count.is_some_and(|n| samples >= n) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval.max(0.1)));
    }
}

/// Accepts `http://host:port`, `host:port`, or `:port` (⇒ 127.0.0.1).
fn parse_server_url(url: &str) -> Result<std::net::SocketAddr, String> {
    let stripped = url
        .strip_prefix("http://")
        .unwrap_or(url)
        .trim_end_matches('/');
    let hostport = if stripped.starts_with(':') {
        format!("127.0.0.1{stripped}")
    } else {
        stripped.to_owned()
    };
    use std::net::ToSocketAddrs as _;
    hostport
        .to_socket_addrs()
        .map_err(|e| format!("top: cannot resolve {url:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("top: {url:?} resolves to no address"))
}

/// Splits a labeled metric key: `serve.latency{endpoint="plan"}` ⇒
/// `("serve.latency", Some("plan"))` (first label value only).
fn metric_key_label(key: &str) -> (&str, Option<&str>) {
    let Some(brace) = key.find('{') else {
        return (key, None);
    };
    let name = &key[..brace];
    let rest = &key[brace..];
    let value = rest.find("=\"").and_then(|eq| {
        rest[eq + 2..]
            .find('"')
            .map(|end| &rest[eq + 2..eq + 2 + end])
    });
    (name, value)
}

/// One dashboard frame, as a string (pure: unit-testable without a
/// server).
fn render_top(
    url: &str,
    metrics: &obs::export::JsonValue,
    health: Option<&obs::export::JsonValue>,
    previous: &Option<(std::time::Instant, std::collections::BTreeMap<String, f64>)>,
    now: std::time::Instant,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "herc top — {url}");
    if let Some(h) = health {
        let field = |k: &str| h.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let _ = write!(
            out,
            " — up {}s, {} project{}, {} wedged",
            field("uptime_secs"),
            field("projects"),
            if field("projects") == 1.0 { "" } else { "s" },
            field("wedged"),
        );
    }
    out.push('\n');
    let entries = metrics.as_object().unwrap_or(&[]);
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>10} {:>8} {:>8} {:>8}",
        "endpoint", "req/s", "total", "p50ms", "p95ms", "p99ms"
    );
    for (key, value) in entries {
        let (name, label) = metric_key_label(key);
        if name != "serve.requests" {
            continue;
        }
        let endpoint = label.unwrap_or("(unlabeled)");
        let total = value.as_f64().unwrap_or(0.0);
        let rate = previous
            .as_ref()
            .map(|(t0, counters)| {
                let elapsed = now.duration_since(*t0).as_secs_f64().max(1e-9);
                (total - counters.get(key.as_str()).copied().unwrap_or(0.0)) / elapsed
            })
            .map(|r| format!("{r:.1}"))
            .unwrap_or_else(|| "-".to_owned());
        // The latency histogram for this endpoint carries precomputed
        // percentiles in the JSON rendering.
        let lat_key = format!("serve.latency{{endpoint=\"{endpoint}\"}}");
        let lat = metrics.get(&lat_key);
        let pct = |q: &str| {
            lat.and_then(|h| h.get(q))
                .and_then(|v| v.as_f64())
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".to_owned())
        };
        let _ = writeln!(
            out,
            "{endpoint:<16} {rate:>8} {total:>10} {:>8} {:>8} {:>8}",
            pct("p50"),
            pct("p95"),
            pct("p99"),
        );
    }
    let mut tenants = String::new();
    for (key, value) in entries {
        let (name, label) = metric_key_label(key);
        if name != "serve.inflight" {
            continue;
        }
        if !tenants.is_empty() {
            tenants.push_str(", ");
        }
        let _ = write!(
            tenants,
            "{} in-flight {}",
            label.unwrap_or("(unlabeled)"),
            value.as_f64().unwrap_or(0.0)
        );
    }
    if !tenants.is_empty() {
        let _ = writeln!(out, "tenants: {tenants}");
    }
    let scalar = |k: &str| metrics.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let queue_p95 = metrics
        .get("serve.queue.depth")
        .and_then(|h| h.get("p95"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let _ = writeln!(
        out,
        "queue depth p95: {queue_p95:.1}   connections: {}   rejected: {}   flight dropped: {}",
        scalar("serve.connections"),
        scalar("serve.queue.rejected") + scalar("serve.rejected.busy"),
        scalar("obs.flight.dropped"),
    );
    out.push('\n');
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    // `chaos`, `trace`, `metrics`, `ws`, `gc`, `fsck`, `serve`, and
    // `top` take no leading schema file: their scenarios and projects
    // are derived from names, seeds, workspace roots, and URLs.
    if matches!(
        command.as_str(),
        "chaos" | "trace" | "metrics" | "ws" | "gc" | "fsck" | "serve" | "top"
    ) {
        let result = match command.as_str() {
            "chaos" => cmd_chaos(&args[1..]),
            "trace" => cmd_trace(&args[1..]),
            "ws" => cmd_ws(&args[1..]),
            "gc" => cmd_gc(&args[1..]),
            "fsck" => cmd_fsck(&args[1..]),
            "serve" => cmd_serve(&args[1..]),
            "top" => cmd_top(&args[1..]),
            _ => cmd_metrics(&args[1..]),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("herc: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(file) = args.get(1) else {
        return usage();
    };
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("herc: cannot read {file:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match (command.as_str(), args.get(2)) {
        ("schema", _) => parse_options(&args[2..]).and_then(|_| cmd_schema(&source)),
        ("plan", Some(target)) => {
            parse_options(&args[3..]).and_then(|o| cmd_plan(&source, target, &o))
        }
        ("run", Some(target)) => {
            parse_options(&args[3..]).and_then(|o| cmd_run(&source, target, &o))
        }
        ("sweep", Some(target)) => {
            parse_options(&args[3..]).and_then(|o| cmd_sweep(&source, target, &o))
        }
        ("report", Some(target)) => {
            parse_options(&args[3..]).and_then(|o| cmd_report(&source, target, &o))
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("herc: {message}");
            ExitCode::FAILURE
        }
    }
}
