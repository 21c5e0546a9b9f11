//! The repository's end-to-end benchmark, with a traced per-layer run.
//!
//! ```text
//! perfbench --workload <serve_mixed|plan_large|history_deep> --seed N --seconds S --trace 0|1
//! perfbench --steady N --workload W --seconds S [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ledger; the last line of standard output is one JSON
//! object. `--steady N` runs the workload N times (seeds 1..=N) as
//! child processes and prints each metric's median, quartiles and
//! spread next to the host's own drift. See `perfbench/README.md`.

mod common;
mod history_deep;
mod ledger;
mod plan_large;
mod report;
mod serve_mixed;
mod stats;
mod trace;
mod vfs;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use common::Ctx;

const WORKLOADS: [&str; 3] = ["serve_mixed", "plan_large", "history_deep"];

/// The end-to-end metrics of `BENCHMARK.json`: every workload prints
/// each of them with `--trace 0`. A workload's other figures print as
/// asides.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "typical_ops_per_s",
    "status_p50_ms",
    "plan_p50_ms",
];

/// The per-layer metrics of `BENCHMARK.json`: every workload's traced
/// run prints each of them, measured on its own flow.
const PER_LAYER: [&str; 41] = [
    "http.parse_us",
    "http.encode_us",
    "http.wire_ms",
    "auth.check_us",
    "api.status_ms",
    "api.replan_ms",
    "api.plan_ms",
    "coalesce.passes_per_replan",
    "workspace.lock_wait_ms",
    "render.status_us",
    "render.replan_us",
    "core.extract_ms",
    "core.estimate_ms",
    "kernel.replan_ms",
    "schedule.build_ms",
    "schedule.cpm_ms",
    "schedule.cpm_update_us",
    "schedule.cpm_recomputed",
    "schedule.level_ms",
    "engine.execute_mem_ms",
    "engine.activity_runs",
    "store.appends_per_replan",
    "store.bytes_per_replan",
    "store.io_ms_per_replan",
    "store.appends_per_plan",
    "store.bytes_per_plan",
    "store.io_ms_per_plan",
    "store.bytes_per_run",
    "store.write_amp",
    "store.open_bytes_read",
    "store.open_io_ms",
    "store.space_amp",
    "store.gc_bytes_written",
    "store.gc_fsyncs",
    "store.gc_io_ms",
    "metadata.dump_ms",
    "metadata.load_ms",
    "db.runs",
    "db.schedule_instances",
    "trace.overhead_pct",
    "host.spin_ms",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady(&args, runs);
    }
    let ctx = match Ctx::new(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot make a work directory: {e}");
            return ExitCode::from(1);
        }
    };
    let spin = common::spin_ms();
    println!("# host.spin_ms {spin:.4}");
    let mut report = match (args.workload.as_str(), args.trace) {
        ("serve_mixed", false) => serve_mixed::measure(&ctx),
        ("serve_mixed", true) => serve_mixed::ledger(&ctx),
        ("plan_large", false) => plan_large::measure(&ctx),
        ("plan_large", true) => plan_large::ledger(&ctx),
        ("history_deep", false) => history_deep::measure(&ctx),
        _ => history_deep::ledger(&ctx),
    };
    if args.trace {
        report.value(
            "host.spin_ms",
            "ms",
            spin,
            "fixed spin loop: host drift, not program drift".to_owned(),
        );
        finish_trace(&ctx);
    }
    for name in &report.too_short {
        eprintln!("perfbench: {name} rests on single samples under 0.1 ms");
        println!("too_short\t{name}");
    }
    ctx.cleanup();
    let manifest: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if report.print(&args.workload, manifest) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes the traced run's spans out and prints their self-time fold.
fn finish_trace(ctx: &Ctx) {
    let spans = trace::spans();
    let path = ctx.trace_path();
    match trace::write_jsonl(&spans, &path) {
        Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    println!("# self time by span: name, count, total ms, self ms");
    for (name, (count, total, own)) in trace::fold_self_time(&spans) {
        println!(
            "#   {name:<28} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// Steadiness mode: `runs` child runs with seeds `1..=runs`; per
/// metric, the median, quartiles and IQR/median, next to the host's
/// spin-loop drift over the same runs.
fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut spins = Vec::new();
    let mut refused = Vec::new();
    for seed in 1..=runs as u64 {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!(
                    "perfbench: seed {seed} failed: {}",
                    String::from_utf8_lossy(&o.stderr)
                );
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("perfbench: cannot run seed {seed}: {e}");
                return ExitCode::from(1);
            }
        };
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            if let ["too_short", name] = fields.as_slice() {
                refused.push((*name).to_owned());
            } else if let ["metric", name, value, unit] = fields.as_slice() {
                if let Ok(v) = value.parse::<f64>() {
                    let e = values
                        .entry((*name).to_owned())
                        .or_insert_with(|| ((*unit).to_owned(), Vec::new()));
                    e.1.push(v);
                }
            } else if let Some(v) = line.strip_prefix("# host.spin_ms ") {
                spins.push(v.trim().parse::<f64>().unwrap_or(f64::NAN));
            }
        }
    }
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>12} {:>9}",
        "metric", "unit", "q1", "median", "q3", "iqr/med"
    );
    let mut rows: Vec<(String, String, Vec<f64>)> = values
        .into_iter()
        .map(|(name, (unit, v))| (name, unit, v))
        .collect();
    if !rows.iter().any(|(name, _, _)| name == "host.spin_ms") {
        rows.push(("host.spin_ms".to_owned(), "ms".to_owned(), spins));
    }
    for (name, unit, v) in &rows {
        let (q1, med, q3) = stats::quartiles(v);
        println!(
            "{name:<28} {unit:>6} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>9.4}",
            (q3 - q1) / med
        );
    }
    println!("per seed:");
    for (name, _, v) in &rows {
        let cells: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("  {name:<28} {}", cells.join(" "));
    }
    if refused.is_empty() {
        ExitCode::SUCCESS
    } else {
        refused.sort();
        refused.dedup();
        for r in &refused {
            println!("REFUSED: {r} rests on single samples under 0.1 ms");
        }
        ExitCode::from(3)
    }
}
