//! Pluggable scheduling policies over the executor's ready queue.
//!
//! [`Hercules::execute`](crate::Hercules::execute) runs an event-driven
//! engine: activities enter a *ready queue* when every input entity has
//! been published, and a [`SchedulingPolicy`] decides which ready
//! activity dispatches next — and, on an explicit
//! [`Cluster`](simtools::cluster::Cluster), onto which worker. The
//! engine owns every invariant (dependency order, fault handling,
//! blocked-never-abort, degradation); the policy only chooses among
//! moves the engine has already proven legal.
//!
//! Four built-in policies ship with the crate, selectable by name
//! through [`ExecutionPolicy`]:
//!
//! * [`Fifo`] — dependency-order dispatch, the default. On an implicit
//!   per-designer cluster it reproduces the classic serial topo walk
//!   byte-for-byte.
//! * [`MinSlack`] — critical-path-first: dispatch the ready activity
//!   with the least total slack in the scope's CPM analysis.
//! * [`Heft`] — HEFT-style: dispatch the ready activity with the
//!   highest upward rank onto the worker with the earliest estimated
//!   finish (speed- and transfer-aware).
//! * [`WorkStealing`] — locality-aware: the earliest-free worker pulls
//!   the ready activity with the most input bytes already local to it,
//!   stealing remote work only when nothing local is queued.

use std::fmt;

use schedule::WorkDays;

/// One dispatchable activity in the executor's ready queue: every
/// input entity is published, so dispatching it is legal under the
/// precedence constraints.
#[derive(Debug, Clone)]
pub struct ReadyTask<'a> {
    /// The activity's name (borrowed from the execution scope).
    pub activity: &'a str,
    /// Position in the task tree's dependency order — [`Fifo`]'s key
    /// and every policy's deterministic tie-break.
    pub topo_index: usize,
    /// The manager's current duration estimate (history first, then
    /// intuition, then the tool model).
    pub estimate: WorkDays,
    /// Total slack in the open work's proposal; zero on the critical path.
    pub slack: WorkDays,
    /// Upward rank: the proposal's critical-path length from this
    /// activity (inclusive) to the scope's sink, project duration −
    /// late start — HEFT's priority key.
    pub rank: WorkDays,
    /// When the inputs are all available, before any transfer delay.
    pub ready_at: WorkDays,
    /// Total input bytes the activity will read.
    pub input_bytes: u64,
    /// Per input entity: the worker that produced it (`None` = shared
    /// storage) and its size in bytes — the locality signal.
    pub inputs: Vec<(Option<usize>, u64)>,
    /// The worker this activity is bound to, when the engine runs on
    /// an implicit per-designer cluster (the assignee's slot). `None`
    /// on explicit clusters, where placement belongs to the policy.
    pub home_worker: Option<usize>,
}

/// One worker's state at a dispatch decision.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSnapshot {
    /// When the worker finishes its last dispatched activity.
    pub free_at: WorkDays,
    /// The worker's speed factor (nominal duration / speed = actual).
    pub speed: f64,
}

/// A policy's decision: which ready task to dispatch, and on which
/// worker. For tasks with a [`home_worker`](ReadyTask::home_worker)
/// binding the engine overrides `worker` with the bound slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Index into [`DispatchContext::ready`].
    pub task: usize,
    /// Worker index to run it on.
    pub worker: usize,
}

/// Everything a policy may consult when choosing the next dispatch.
pub struct DispatchContext<'a> {
    /// The ready queue: activities whose inputs are all published.
    /// Never empty when [`SchedulingPolicy::select`] is called.
    pub ready: &'a [ReadyTask<'a>],
    /// Worker availability and speeds.
    pub workers: &'a [WorkerSnapshot],
    /// The project clock the engine started from.
    pub now: WorkDays,
    transfer: &'a dyn Fn(Option<usize>, usize, u64) -> f64,
}

impl fmt::Debug for DispatchContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DispatchContext")
            .field("ready", &self.ready)
            .field("workers", &self.workers)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<'a> DispatchContext<'a> {
    pub(crate) fn new(
        ready: &'a [ReadyTask<'a>],
        workers: &'a [WorkerSnapshot],
        now: WorkDays,
        transfer: &'a dyn Fn(Option<usize>, usize, u64) -> f64,
    ) -> Self {
        DispatchContext {
            ready,
            workers,
            now,
            transfer,
        }
    }

    /// Simulated days to move `bytes` produced on `from` to worker
    /// `to` (zero for local or shared-storage data).
    pub fn transfer_delay(&self, from: Option<usize>, to: usize, bytes: u64) -> f64 {
        (self.transfer)(from, to, bytes)
    }

    /// When `task`'s inputs are all staged on worker `w`, transfer
    /// delays included.
    pub fn ready_at_on(&self, task: &ReadyTask<'_>, w: usize) -> WorkDays {
        let mut at = task.ready_at;
        for &(from, bytes) in &task.inputs {
            let delay = self.transfer_delay(from, w, bytes);
            if delay > 0.0 {
                at = at.max(task.ready_at + WorkDays::new(delay));
            }
        }
        at
    }

    /// The estimated finish of `task` on worker `w`: wait for the
    /// worker and the staged inputs, then run the estimate at the
    /// worker's speed.
    pub fn estimated_finish(&self, task: &ReadyTask<'_>, w: usize) -> WorkDays {
        let start = self.ready_at_on(task, w).max(self.workers[w].free_at);
        start + WorkDays::new(task.estimate.days() / self.workers[w].speed)
    }

    /// The earliest-free worker (lowest index on ties).
    pub fn earliest_free_worker(&self) -> usize {
        let mut best = 0;
        for (w, snap) in self.workers.iter().enumerate().skip(1) {
            if snap.free_at < self.workers[best].free_at {
                best = w;
            }
        }
        best
    }

    /// The worker minimizing `task`'s estimated finish (lowest index
    /// on ties), honoring a home binding when present.
    pub fn best_finish_worker(&self, task: &ReadyTask<'_>) -> usize {
        if let Some(home) = task.home_worker {
            return home;
        }
        let mut best = 0;
        let mut best_finish = self.estimated_finish(task, 0);
        for w in 1..self.workers.len() {
            let finish = self.estimated_finish(task, w);
            if finish < best_finish {
                best = w;
                best_finish = finish;
            }
        }
        best
    }

    /// Input bytes of `task` already resident on worker `w`.
    pub fn local_bytes(&self, task: &ReadyTask<'_>, w: usize) -> u64 {
        task.inputs
            .iter()
            .filter(|(from, _)| *from == Some(w))
            .map(|&(_, bytes)| bytes)
            .sum()
    }
}

/// A scheduling policy over the executor's ready queue.
///
/// The engine calls [`select`](SchedulingPolicy::select) whenever the
/// ready queue is non-empty; the policy returns which task to dispatch
/// and where. Implementations must be deterministic — the whole
/// simulation stack guarantees same-seed reproducibility, and the
/// chaos suite holds every policy to the PR-3 invariants (faults
/// never abort, blocked activities never complete, journal replay
/// reproduces the live database).
pub trait SchedulingPolicy: fmt::Debug {
    /// The policy's name, as accepted by [`ExecutionPolicy::parse`]
    /// (or any label for custom implementations).
    fn name(&self) -> &str;

    /// Chooses the next dispatch. `ctx.ready` is never empty; the
    /// returned [`Dispatch::task`] must index into it and
    /// [`Dispatch::worker`] into `ctx.workers`.
    fn select(&mut self, ctx: &DispatchContext<'_>) -> Dispatch;

    /// Whether the policy reads the schedule-derived metrics on
    /// [`ReadyTask`] (`estimate`, `slack`, `rank`). The engine skips
    /// reading the open work's proposal for policies answering `false`
    /// — those fields are then zero. Defaults to `true`; override only
    /// in policies that decide purely from topology, queue state, and
    /// data locality.
    fn needs_schedule_metrics(&self) -> bool {
        true
    }
}

/// Dependency-order dispatch: always the ready task with the lowest
/// topo index, placed on its home worker or the earliest-free one.
/// The default policy — on an implicit per-designer cluster it is
/// exactly the classic serial topo-order walk.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulingPolicy for Fifo {
    fn name(&self) -> &str {
        "fifo"
    }

    fn select(&mut self, ctx: &DispatchContext<'_>) -> Dispatch {
        let task = argmin_by(ctx.ready, |t| (t.topo_index, 0.0));
        let worker = ctx.ready[task]
            .home_worker
            .unwrap_or_else(|| ctx.earliest_free_worker());
        Dispatch { task, worker }
    }

    fn needs_schedule_metrics(&self) -> bool {
        false
    }
}

/// Critical-path-first dispatch: the ready task with the least total
/// slack (ties to dependency order), placed on the worker with the
/// earliest estimated finish. The slack is the open work's proposal's,
/// the one planning reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinSlack;

impl SchedulingPolicy for MinSlack {
    fn name(&self) -> &str {
        "minslack"
    }

    fn select(&mut self, ctx: &DispatchContext<'_>) -> Dispatch {
        let task = argmin_by(ctx.ready, |t| (t.topo_index, t.slack.days()));
        let worker = ctx.best_finish_worker(&ctx.ready[task]);
        Dispatch { task, worker }
    }
}

/// HEFT-style dispatch (heterogeneous earliest finish time): the ready
/// task with the highest upward rank, placed on the worker minimizing
/// its estimated finish — speed factors and transfer delays included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Heft;

impl SchedulingPolicy for Heft {
    fn name(&self) -> &str {
        "heft"
    }

    fn select(&mut self, ctx: &DispatchContext<'_>) -> Dispatch {
        let task = argmin_by(ctx.ready, |t| (t.topo_index, -t.rank.days()));
        let worker = ctx.best_finish_worker(&ctx.ready[task]);
        Dispatch { task, worker }
    }
}

/// Locality-aware work-stealing: the earliest-free worker pulls the
/// ready task with the most input bytes already local to it, stealing
/// the oldest remote-fed task when nothing local is queued. On an
/// implicit per-designer cluster (hard bindings) it degenerates to
/// each designer draining their own queue in dependency order.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkStealing;

impl SchedulingPolicy for WorkStealing {
    fn name(&self) -> &str {
        "worksteal"
    }

    fn select(&mut self, ctx: &DispatchContext<'_>) -> Dispatch {
        if ctx.ready.iter().all(|t| t.home_worker.is_some()) {
            // Hard bindings: the bound worker closest to idle pulls its
            // oldest queued task.
            let task = argmin_by(ctx.ready, |t| {
                let home = t.home_worker.expect("all bound");
                (t.topo_index, ctx.workers[home].free_at.days())
            });
            let worker = ctx.ready[task].home_worker.expect("all bound");
            return Dispatch { task, worker };
        }
        let thief = ctx.earliest_free_worker();
        // Most local bytes first; a worker with no local work steals
        // the oldest ready task outright.
        let task = argmin_by(ctx.ready, |t| {
            (t.topo_index, -(ctx.local_bytes(t, thief) as f64))
        });
        Dispatch {
            task,
            worker: thief,
        }
    }

    fn needs_schedule_metrics(&self) -> bool {
        false
    }
}

/// Returns the index minimizing `(key, tie topo_index)` — keys compare
/// on the `f64` first, then the topo index, so every policy breaks
/// ties identically and deterministically.
fn argmin_by<F>(ready: &[ReadyTask<'_>], key: F) -> usize
where
    F: Fn(&ReadyTask<'_>) -> (usize, f64),
{
    let mut best = 0;
    let (mut best_topo, mut best_key) = key(&ready[0]);
    for (i, t) in ready.iter().enumerate().skip(1) {
        let (topo, k) = key(t);
        if k < best_key || (k == best_key && topo < best_topo) {
            best = i;
            best_topo = topo;
            best_key = k;
        }
    }
    best
}

/// The built-in policies, selectable by name — the form the CLI
/// (`herc ws run --policy`), the serve `run` endpoint (`?policy=`),
/// and [`Hercules::execute_with`](crate::Hercules::execute_with)
/// traffic in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionPolicy {
    /// Dependency-order dispatch ([`Fifo`]) — the default.
    #[default]
    Fifo,
    /// Critical-path-first ([`MinSlack`]).
    MinSlack,
    /// HEFT-style earliest estimated finish ([`Heft`]).
    Heft,
    /// Locality-aware work-stealing ([`WorkStealing`]).
    WorkStealing,
}

impl ExecutionPolicy {
    /// Every built-in policy, in documentation order.
    pub const ALL: [ExecutionPolicy; 4] = [
        ExecutionPolicy::Fifo,
        ExecutionPolicy::MinSlack,
        ExecutionPolicy::Heft,
        ExecutionPolicy::WorkStealing,
    ];

    /// The policy's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionPolicy::Fifo => "fifo",
            ExecutionPolicy::MinSlack => "minslack",
            ExecutionPolicy::Heft => "heft",
            ExecutionPolicy::WorkStealing => "worksteal",
        }
    }

    /// Parses a policy name, accepting the canonical names plus common
    /// spellings (`min-slack`, `work-stealing`, …). Case-insensitive.
    pub fn parse(s: &str) -> Option<Self> {
        let folded: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        match folded.as_str() {
            "fifo" | "topo" => Some(ExecutionPolicy::Fifo),
            "minslack" | "slack" | "criticalpath" | "cp" => Some(ExecutionPolicy::MinSlack),
            "heft" | "earliestfinish" | "eft" => Some(ExecutionPolicy::Heft),
            "worksteal" | "workstealing" | "steal" => Some(ExecutionPolicy::WorkStealing),
            _ => None,
        }
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn SchedulingPolicy + Send> {
        match self {
            ExecutionPolicy::Fifo => Box::new(Fifo),
            ExecutionPolicy::MinSlack => Box::new(MinSlack),
            ExecutionPolicy::Heft => Box::new(Heft),
            ExecutionPolicy::WorkStealing => Box::new(WorkStealing),
        }
    }
}

impl fmt::Display for ExecutionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ExecutionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExecutionPolicy::parse(s).ok_or_else(|| {
            format!(
                "unknown execution policy {s:?} (expected one of: {})",
                ExecutionPolicy::ALL.map(|p| p.name()).join(", ")
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(topo: usize, slack: f64, rank: f64, home: Option<usize>) -> ReadyTask<'static> {
        ReadyTask {
            activity: "a",
            topo_index: topo,
            estimate: WorkDays::new(1.0),
            slack: WorkDays::new(slack),
            rank: WorkDays::new(rank),
            ready_at: WorkDays::ZERO,
            input_bytes: 0,
            inputs: Vec::new(),
            home_worker: home,
        }
    }

    fn workers(frees: &[f64]) -> Vec<WorkerSnapshot> {
        frees
            .iter()
            .map(|&f| WorkerSnapshot {
                free_at: WorkDays::new(f),
                speed: 1.0,
            })
            .collect()
    }

    #[test]
    fn fifo_takes_lowest_topo_index() {
        let ready = vec![task(4, 0.0, 9.0, None), task(1, 5.0, 1.0, None)];
        let ws = workers(&[3.0, 0.0]);
        let zero = |_: Option<usize>, _: usize, _: u64| 0.0;
        let ctx = DispatchContext::new(&ready, &ws, WorkDays::ZERO, &zero);
        let d = Fifo.select(&ctx);
        assert_eq!(d.task, 1);
        assert_eq!(d.worker, 1, "earliest-free worker");
    }

    #[test]
    fn minslack_prefers_critical_work() {
        let ready = vec![task(0, 5.0, 2.0, None), task(3, 0.0, 9.0, None)];
        let ws = workers(&[0.0]);
        let zero = |_: Option<usize>, _: usize, _: u64| 0.0;
        let ctx = DispatchContext::new(&ready, &ws, WorkDays::ZERO, &zero);
        assert_eq!(MinSlack.select(&ctx).task, 1);
    }

    #[test]
    fn heft_prefers_highest_rank_and_fastest_finish() {
        let ready = vec![task(0, 0.0, 2.0, None), task(1, 0.0, 9.0, None)];
        let mut ws = workers(&[0.0, 0.0]);
        ws[1].speed = 4.0;
        let zero = |_: Option<usize>, _: usize, _: u64| 0.0;
        let ctx = DispatchContext::new(&ready, &ws, WorkDays::ZERO, &zero);
        let d = Heft.select(&ctx);
        assert_eq!(d.task, 1, "highest upward rank first");
        assert_eq!(d.worker, 1, "4x speed wins the estimated finish");
    }

    #[test]
    fn worksteal_prefers_local_bytes() {
        let mut near = task(0, 0.0, 1.0, None);
        near.inputs = vec![(Some(1), 4096)];
        let mut far = task(1, 0.0, 1.0, None);
        far.inputs = vec![(Some(0), 4096)];
        let ready = vec![far.clone(), near.clone()];
        let ws = workers(&[5.0, 0.0]); // worker 1 is idle first
        let zero = |_: Option<usize>, _: usize, _: u64| 0.0;
        let ctx = DispatchContext::new(&ready, &ws, WorkDays::ZERO, &zero);
        let d = WorkStealing.select(&ctx);
        assert_eq!(d.worker, 1);
        assert_eq!(d.task, 1, "the idle worker pulls its local task");
    }

    #[test]
    fn home_bindings_are_honored() {
        let ready = vec![task(2, 0.0, 1.0, Some(0)), task(5, 0.0, 9.0, Some(1))];
        let ws = workers(&[9.0, 0.0]);
        let zero = |_: Option<usize>, _: usize, _: u64| 0.0;
        let ctx = DispatchContext::new(&ready, &ws, WorkDays::ZERO, &zero);
        // Work-stealing under hard bindings: the freer bound worker
        // drains its own queue.
        let d = WorkStealing.select(&ctx);
        assert_eq!((d.task, d.worker), (1, 1));
        // Best-finish placement returns the binding untouched.
        assert_eq!(ctx.best_finish_worker(&ready[0]), 0);
    }

    #[test]
    fn names_parse_round_trip() {
        for p in ExecutionPolicy::ALL {
            assert_eq!(ExecutionPolicy::parse(p.name()), Some(p));
            assert_eq!(p.name().parse::<ExecutionPolicy>().unwrap(), p);
            assert_eq!(p.build().name(), p.name());
        }
        assert_eq!(
            ExecutionPolicy::parse("Min-Slack"),
            Some(ExecutionPolicy::MinSlack)
        );
        assert_eq!(
            ExecutionPolicy::parse("work_stealing"),
            Some(ExecutionPolicy::WorkStealing)
        );
        assert_eq!(ExecutionPolicy::parse("lottery"), None);
        assert!("lottery".parse::<ExecutionPolicy>().is_err());
        assert_eq!(ExecutionPolicy::default(), ExecutionPolicy::Fifo);
        assert_eq!(ExecutionPolicy::Heft.to_string(), "heft");
    }
}
