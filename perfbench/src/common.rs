//! What every workload shares: the run context (seed, size, work
//! directory), repeated set-up, seeded choices, and process-level
//! measurements (peak RSS, host spin loop).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hercules::{ExecutionPolicy, Hercules, HerculesError, Project, Workspace};
use metadata::{MetadataDb, PersistentStore, Store};
use schema::TaskSchema;
use simtools::rng::SplitMix64;
use simtools::workload::Team;
use simtools::ToolLibrary;

use crate::report::Report;
use crate::stats::{self, Samples};
use crate::trace;
use crate::vfs::{CountingVfs, IoCounts};

/// The target every workload plans, replans and runs.
pub const TARGET: &str = "merged";

/// What a workload's projects are made of. The traced run probes each
/// layer on a project of its workload's own flow.
pub struct Flow {
    pub schema: fn() -> TaskSchema,
    pub team: usize,
    pub tool_seed: u64,
    /// Executions the workload's projects hold when they are measured.
    pub history: usize,
}

impl Flow {
    /// A manager of this flow on an in-memory store.
    pub fn manager(&self) -> Hercules {
        Hercules::new(
            (self.schema)(),
            ToolLibrary::standard(),
            Team::of_size(self.team),
            self.tool_seed,
        )
    }

    /// A manager of this flow on `store`.
    pub fn manager_on(&self, store: Box<dyn Store>) -> Hercules {
        Hercules::with_store(
            (self.schema)(),
            ToolLibrary::standard(),
            Team::of_size(self.team),
            self.tool_seed,
            store,
        )
    }

    /// Creates project `name` of this flow in `ws`, unplanned.
    pub fn create(&self, ws: &Workspace, name: &str) -> Arc<Project> {
        ws.create_project(
            name,
            (self.schema)(),
            ToolLibrary::standard(),
            Team::of_size(self.team),
            self.tool_seed,
        )
        .expect("create project")
    }
}

/// Plans and executes one more iteration; whether every activity
/// converged.
pub fn run_once(h: &mut Hercules) -> Result<bool, HerculesError> {
    h.plan(TARGET)?;
    Ok(h.execute_with(TARGET, ExecutionPolicy::Fifo, None)?
        .all_converged())
}

pub struct Ctx {
    pub seed: u64,
    /// Seconds of measured work the fixed op sequence is sized for on
    /// a 2-core host; the sequence is a pure function of this and the
    /// seed, never of how fast the host runs it.
    seconds: f64,
    /// The traced run: two passes (untraced, then traced) of half the
    /// size each, then the per-layer ledger.
    traced: bool,
    workload: String,
    dir: PathBuf,
}

impl Ctx {
    /// Makes a fresh work directory for this run under
    /// `./.bench_work/` (the stores live on the local disk there).
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool) -> std::io::Result<Ctx> {
        let base = std::env::current_dir()?.join(".bench_work");
        let dir = base.join(format!("{workload}-s{seed}-p{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Ctx {
            seed,
            seconds: seconds as f64,
            traced,
            workload: workload.to_owned(),
            dir,
        })
    }

    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// A path inside this run's work directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Where the traced run writes its spans (kept after the run).
    pub fn trace_path(&self) -> PathBuf {
        self.dir
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("spans-{}-s{}.jsonl", self.workload, self.seed))
    }

    /// `per_second × seconds` ops of the pass, at least one.
    pub fn ops(&self, per_second: f64) -> usize {
        let seconds = if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        ((seconds * per_second).round() as usize).max(1)
    }

    /// A seeded stream for one purpose of this run.
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::new(simtools::rng::mix(&[self.seed, stream]))
    }

    pub fn cleanup(&self) {
        if let Err(e) = std::fs::remove_dir_all(&self.dir) {
            eprintln!("perfbench: cannot remove {}: {e}", self.dir.display());
        }
    }
}

/// Runs `setup` `times` times (each builds everything anew in its own
/// directory) and returns every result plus the median set-up time in
/// seconds — several set-ups per run keep `setup_s` steady.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut(usize) -> T) -> (Vec<T>, f64) {
    let mut out = Vec::with_capacity(times);
    let mut secs = Vec::with_capacity(times);
    for k in 0..times {
        let start = Instant::now();
        out.push(setup(k));
        secs.push(start.elapsed().as_secs_f64());
    }
    (out, stats::median(&secs))
}

/// Times `f` as op `name` of round `round` (a span when tracing),
/// adding its latency to `to`.
pub fn timed_op<R>(to: &mut Samples, name: &'static str, round: u64, f: impl FnOnce() -> R) -> R {
    let _span = trace::span(name, round);
    let start = Instant::now();
    let out = f();
    to.push(ms_since(start));
    out
}

/// Consecutive blocks a pass is cut into for its tail and throughput
/// figures: a slow patch of the host that covers one block moves the
/// median over blocks much less than a figure taken over the whole
/// pass.
pub const BLOCKS: usize = 5;

/// The `b`-th of [`BLOCKS`] consecutive index ranges over `0..n`.
pub fn block(b: usize, n: usize) -> std::ops::Range<usize> {
    b * n / BLOCKS..(b + 1) * n / BLOCKS
}

/// Untimed rounds before a workload's measured pass, so allocator
/// growth, page faults and cold caches of the first rounds stay out of
/// the figures.
pub const WARMUP_ROUNDS: usize = 1;

/// Ops per second spent inside ops (one closed-loop caller with no
/// think time), as the median over [`BLOCKS`] blocks of `rounds`
/// rounds; each of `kinds` holds the same number of samples every
/// round.
pub fn block_ops_per_s(kinds: &[&Samples], rounds: usize) -> f64 {
    let per_block: Vec<f64> = (0..BLOCKS)
        .map(|b| block(b, rounds))
        .filter(|r| !r.is_empty())
        .map(|r| {
            let (ops, busy_ms) = kinds.iter().fold((0, 0.0), |(ops, ms), s| {
                let per_round = s.len() / rounds;
                let samples = r.start * per_round..r.end * per_round;
                (ops + samples.len(), ms + s.sum_ms(samples))
            });
            ops as f64 / (busy_ms / 1e3)
        })
        .collect();
    stats::median(&per_block)
}

/// Ops per second of `clients` closed-loop callers were every op to
/// take its kind's median time: all ops over the sum, per kind, of its
/// count times its median. It weighs every kind of op by its cost, as
/// a measured rate does, but a few ops that stall on the shared host's
/// disk hardly move it.
pub fn typical_ops_per_s(kinds: &[&Samples], clients: usize) -> f64 {
    let ops: usize = kinds.iter().map(|s| s.len()).sum();
    let busy_ms: f64 = kinds
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.len() as f64 * s.percentile(0.5))
        .sum();
    clients as f64 * ops as f64 / (busy_ms / 1e3)
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed spin loop, median of three timings in ms: the host's own
/// speed, printed beside every run so host drift can be told apart
/// from program drift.
pub fn spin_ms() -> f64 {
    let mut times = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..20_000_000u64 {
            x = black_box(x ^ i)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(17);
        }
        black_box(x);
        times.push(ms_since(start));
    }
    stats::median(&times)
}

/// Runs `prepare` then `work` on a manager over a fresh store at `dir`
/// on a counting filesystem, and returns the I/O `work` caused with
/// the manager. The caller names what `work` does, for the report.
pub fn count_io(
    dir: PathBuf,
    flow: &Flow,
    prepare: impl FnOnce(&mut Hercules),
    work: impl FnOnce(&mut Hercules),
) -> (IoCounts, Hercules) {
    let vfs = CountingVfs::new();
    let db = MetadataDb::for_schema(&(flow.schema)());
    let store = PersistentStore::create_on(vfs.clone(), dir, db).expect("create counted store");
    let mut h = flow.manager_on(Box::new(store));
    prepare(&mut h);
    let before = vfs.counts();
    work(&mut h);
    (vfs.counts() - before, h)
}

/// Checks that two counts of the same op sequence are identical.
pub fn check_repeat(report: &mut Report, what: &str, a: &IoCounts, b: &IoCounts) {
    report.check(a.same_work(b), || {
        format!("store counts of two identical {what} sequences differ: {a:?} vs {b:?}")
    });
}
