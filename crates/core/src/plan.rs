use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use metadata::{PlanningSessionId, ScheduleInstanceId};
use schedule::{
    level_resources_with, ActivityId, IncrementalCpm, LeveledSchedule, Resource, ResourcePool,
    ScheduleNetwork, WorkDays,
};
use simtools::workload::Team;

use crate::error::HerculesError;
use crate::manager::Hercules;
use crate::task::TaskTree;

/// The manager's planning view: what a planning pass derives from
/// inputs that seldom change, each part kept until the event that
/// changes its inputs.
///
/// * **Task trees**, per target. The schema is fixed for the manager's
///   life, so a tree, once extracted, never goes stale.
/// * **Estimates**, by rule position: the last
///   [`duration_estimate`](Hercules::duration_estimate) of each
///   activity. An entry is dropped when
///   [`set_estimate`](Hercules::set_estimate) changes the activity's
///   intuition, when the run log gains a run of the activity (checked
///   against `runs_seen`, a watermark over the append-only log), and
///   when a pass re-versions a completed plan, whose link fed the
///   measured duration.
/// * **Plan caches**, per target: the last pass's proposal — network,
///   CPM state and levelled schedule — and each activity's
///   schedule-container slot. They name the team's designers; the team,
///   like the schema, is fixed for the manager's life.
///
/// Replacing the database drops every estimate and plan cache; the
/// trees stay. Compacting it drops nothing: the restamped database
/// keeps every container slot and every input of the estimates.
#[derive(Debug, Clone)]
pub(crate) struct PlanningView {
    trees: HashMap<String, Arc<TaskTree>>,
    plans: HashMap<String, PlanCache>,
    estimates: Vec<Option<WorkDays>>,
    runs_seen: usize,
}

impl PlanningView {
    /// An empty view over a schema of `rules` rules.
    pub(crate) fn new(rules: usize) -> Self {
        PlanningView {
            trees: HashMap::new(),
            plans: HashMap::new(),
            estimates: vec![None; rules],
            runs_seen: 0,
        }
    }

    /// Drops every estimate and plan cache, and accounts for the
    /// `runs` runs the database now holds.
    pub(crate) fn reset(&mut self, runs: usize) {
        self.plans.clear();
        self.estimates.fill(None);
        self.runs_seen = runs;
    }

    /// Drops the estimate of the activity at rule position `rule`.
    pub(crate) fn drop_estimate(&mut self, rule: usize) {
        self.estimates[rule] = None;
    }

    /// The kept estimates, as (rule position, estimate) pairs.
    #[cfg(test)]
    pub(crate) fn kept_estimates(&self) -> impl Iterator<Item = (usize, WorkDays)> + '_ {
        self.estimates
            .iter()
            .enumerate()
            .filter_map(|(rule, e)| e.map(|e| (rule, e)))
    }
}

/// A schedule proposal, kept per target as its plan cache: the
/// precedence network built from the task tree plus the
/// [`IncrementalCpm`] engine holding its last analysis, and the
/// levelled schedule. Replanning the same scope only touches activities
/// whose duration estimates actually changed (the *dirty set*), so the
/// CPM cost is proportional to the slip's cone of influence rather than
/// the whole network; a pass with an empty dirty set levels nothing
/// either.
#[derive(Debug, Clone)]
pub(crate) struct PlanCache {
    network: ScheduleNetwork,
    /// Tree positions of the activities in scope, ascending; the k-th
    /// is network activity `ids[k]`.
    in_scope: Vec<usize>,
    ids: Vec<ActivityId>,
    /// The k-th in-scope activity's schedule-container slot (`None`
    /// if the database has no container for it), so a pass reads
    /// current plans by position. Slots hold for the database's life,
    /// across a gc, which restamps ids but keeps slots; a restore,
    /// which replaces the database, drops every plan cache.
    slots: Vec<Option<usize>>,
    inc: IncrementalCpm,
    /// The last pass's levelled schedule: a pure function of `network`
    /// and the team, so a pass whose dirty set is empty reuses it.
    leveled: LeveledSchedule,
}

impl PlanCache {
    /// The proposed finish when the proposal starts at `start`.
    pub(crate) fn finish(&self, start: WorkDays) -> WorkDays {
        start + self.leveled.makespan()
    }

    /// The activities on one critical path, in precedence order.
    pub(crate) fn critical_path(&self) -> Vec<String> {
        let cpm = self.inc.analysis(&self.network);
        let name = |&id| self.network.name(id).to_owned();
        cpm.critical_path().iter().map(name).collect()
    }
}

/// Levels `network` against `team`: one designer works one activity at
/// a time.
fn level(
    network: &ScheduleNetwork,
    inc: &IncrementalCpm,
    team: &Team,
) -> Result<LeveledSchedule, HerculesError> {
    let mut pool = ResourcePool::new();
    for designer in team.iter() {
        pool.add(Resource::new(designer, 1));
    }
    let cpm = inc.analysis(network);
    Ok(level_resources_with(network, &pool, &cpm)?)
}

/// The open work of a target: the activities whose current plan is not
/// complete (tree positions, ascending), the day they can start, and
/// their current estimates.
pub(crate) struct OpenWork {
    pub(crate) tree: Arc<TaskTree>,
    pub(crate) in_scope: Vec<usize>,
    pub(crate) start: WorkDays,
    pub(crate) durations: Vec<WorkDays>,
}

/// Cached handles into the [`obs::Metrics`] registry for the planner's
/// counters — looked up once, then every bump is a relaxed atomic add.
/// With the recorded `hercules.plan` span fields, the planner's only
/// instrumentation surface.
struct PlanMetrics {
    calls: obs::Counter,
    cache_hits: obs::Counter,
    full_rebuilds: obs::Counter,
    level_reused: obs::Counter,
    dirty: obs::Histogram,
    cpm_recomputed: obs::Histogram,
    estimates_recomputed: obs::Histogram,
}

fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: std::sync::OnceLock<PlanMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| PlanMetrics {
        calls: obs::Metrics::counter("hercules.plan.calls"),
        cache_hits: obs::Metrics::counter("hercules.plan.cache_hits"),
        full_rebuilds: obs::Metrics::counter("hercules.plan.full_rebuilds"),
        level_reused: obs::Metrics::counter("hercules.plan.level_reused"),
        dirty: obs::Metrics::histogram(
            "hercules.plan.dirty_size",
            &[0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0],
        ),
        cpm_recomputed: obs::Metrics::histogram(
            "hercules.plan.cpm_recomputed",
            &[0.0, 2.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0],
        ),
        estimates_recomputed: obs::Metrics::histogram(
            "hercules.plan.estimates_recomputed",
            &[0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0],
        ),
    })
}

/// One activity's entry in a schedule plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedActivity {
    /// The activity name.
    pub activity: String,
    /// The schedule instance recorded in the metadata database.
    pub schedule: ScheduleInstanceId,
    /// Proposed start (working days from project start).
    pub start: WorkDays,
    /// Proposed duration.
    pub duration: WorkDays,
    /// Assigned designer.
    pub assignee: String,
    /// Whether the activity is on the plan's critical path.
    pub critical: bool,
}

/// The result of planning a target: the schedule instances created by
/// one simulated execution of the flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulePlan {
    session: PlanningSessionId,
    target: String,
    activities: Vec<PlannedActivity>,
    project_finish: WorkDays,
}

impl SchedulePlan {
    /// The planning session grouping these schedule instances.
    pub fn session(&self) -> PlanningSessionId {
        self.session
    }

    /// The planned target.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Planned activities in dependency order.
    pub fn activities(&self) -> &[PlannedActivity] {
        &self.activities
    }

    /// Number of planned activities.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// Returns `true` if the plan is empty (never for successful
    /// planning).
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }

    /// The proposed project finish (makespan under team constraints).
    pub fn project_finish(&self) -> WorkDays {
        self.project_finish
    }

    /// The entry for `activity`, if planned.
    pub fn activity(&self, name: &str) -> Option<&PlannedActivity> {
        self.activities.iter().find(|a| a.activity == name)
    }
}

impl Hercules {
    /// Plans a schedule for `target` by **simulating the execution of
    /// the flow** (§III): the same post-order traversal execution uses,
    /// but creating schedule instances instead of running tools.
    ///
    /// Per activity, the proposed duration comes from
    /// [`duration_estimate`](Hercules::duration_estimate) (measured
    /// history first, then designer intuition, then the tool model),
    /// kept between passes until a new run, a new intuition or a new
    /// version of a completed plan changes it. Proposed dates come from
    /// CPM over the task tree's precedence constraints, levelled
    /// against the design team: one designer per activity, keyed by
    /// its rule's dependency rank, works one activity at a time.
    /// Planning starts at the current project clock.
    ///
    /// Replanning the same target later creates *new versions* of each
    /// schedule instance with provenance to the previous version —
    /// Fig. 5's SC1/SC2.
    ///
    /// # Errors
    ///
    /// * [`HerculesError::UnknownTarget`] — `target` names nothing.
    /// * [`HerculesError::Schedule`] — the network rejected the plan
    ///   (cannot happen for trees extracted from a valid schema).
    ///
    /// # Example
    ///
    /// ```
    /// use hercules::Hercules;
    /// use schema::examples;
    /// use simtools::{workload::Team, ToolLibrary};
    ///
    /// # fn main() -> Result<(), hercules::HerculesError> {
    /// let mut h = Hercules::new(
    ///     examples::circuit_design(),
    ///     ToolLibrary::standard(),
    ///     Team::of_size(1),
    ///     1,
    /// );
    /// let plan = h.plan("performance")?;
    /// // Create precedes Simulate in the proposal.
    /// let create = plan.activity("Create").expect("planned");
    /// let simulate = plan.activity("Simulate").expect("planned");
    /// assert!(create.start.days() <= simulate.start.days());
    /// # Ok(())
    /// # }
    /// ```
    pub fn plan(&mut self, target: &str) -> Result<SchedulePlan, HerculesError> {
        self.plan_scope(target, &[])
    }

    /// [`plan`](Hercules::plan) restricted to a sub-scope: activities
    /// whose tree position is set in `skip` are left out of the
    /// network and get no new versions (an empty `skip` skips nothing):
    /// [`propose`](Hercules::propose), then
    /// [`record`](Hercules::record). [`replan`](Hercules::replan) skips
    /// completed work, whose linked plans stay, after moving the clock
    /// past its actual finishes.
    pub(crate) fn plan_scope(
        &mut self,
        target: &str,
        skip: &[bool],
    ) -> Result<SchedulePlan, HerculesError> {
        let tree = self.task_tree(target)?;
        obs::Collector::set_sim_md(self.clock.millidays());
        let skipped = skip.iter().filter(|&&s| s).count();
        let mut plan_span = obs::span!("hercules.plan", target = target, skipped = skipped,);
        let in_scope: Vec<usize> = (0..tree.len())
            .filter(|&i| !skip.get(i).copied().unwrap_or(false))
            .collect();
        let proposal = self.propose(&tree, in_scope, &mut plan_span)?;
        let plan = self.record(&tree, proposal)?;
        plan_span.record("project_finish_days", plan.project_finish.days());
        Ok(plan)
    }

    /// The proposal a planning pass over the activities of `tree` at
    /// positions `in_scope` records: the kept plan cache, brought to the
    /// current estimates, when it covers the same scope (only moved
    /// estimates are dirty, and a pass that moves none reuses the
    /// levelled schedule), else a fresh one. The cache leaves the view
    /// until [`record`](Hercules::record) puts it back. The pass's
    /// instrumentation goes to the metrics registry and to `span`.
    fn propose(
        &mut self,
        tree: &TaskTree,
        in_scope: Vec<usize>,
        span: &mut obs::SpanGuard,
    ) -> Result<PlanCache, HerculesError> {
        self.sync_estimates();
        let names = tree.activities();
        let scope = in_scope.len();
        let mut recomputed = 0usize;
        let cached = self
            .view
            .plans
            .remove(tree.target())
            .filter(|c| c.in_scope == in_scope);
        let (proposal, cache_hit, dirty, cpm_recomputed) = match cached {
            Some(mut c) => {
                let mut dirty: Vec<ActivityId> = Vec::new();
                for (&i, &id) in c.in_scope.iter().zip(&c.ids) {
                    let estimate =
                        self.estimate_at(tree.rule_position_at(i), &names[i], &mut recomputed)?;
                    if estimate != c.network.duration(id) {
                        c.network.set_duration(id, estimate)?;
                        dirty.push(id);
                    }
                }
                let update = c.inc.update(&c.network, &dirty)?;
                obs::event!(
                    "plan.cache_hit",
                    dirty = dirty.len(),
                    forward_cone = update.forward_recomputed,
                    backward_cone = update.backward_recomputed,
                    forward_cutoff = update.forward_cutoff,
                    backward_cutoff = update.backward_cutoff,
                    full_rebuild = update.full_rebuild,
                );
                if update.full_rebuild {
                    plan_metrics().full_rebuilds.inc();
                }
                // With no duration moved, the network, and with it the
                // levelled schedule, is the last pass's.
                if !dirty.is_empty() {
                    c.leveled = level(&c.network, &c.inc, &self.team)?;
                }
                (c, true, dirty.len(), update.total_recomputed())
            }
            None => {
                let durations = in_scope
                    .iter()
                    .map(|&i| {
                        self.estimate_at(tree.rule_position_at(i), &names[i], &mut recomputed)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                obs::event!("plan.cache_miss", scope = scope);
                let fresh = self.fresh_proposal(tree, in_scope, &durations, &self.team)?;
                (fresh, false, scope, 2 * scope)
            }
        };
        let relevelled = !cache_hit || dirty > 0;
        let m = plan_metrics();
        m.calls.inc();
        m.cache_hits.add(u64::from(cache_hit));
        m.level_reused.add(u64::from(!relevelled));
        m.dirty.observe(dirty as f64);
        m.cpm_recomputed.observe(cpm_recomputed as f64);
        m.estimates_recomputed.observe(recomputed as f64);
        span.record("cache_hit", cache_hit);
        span.record("dirty", dirty);
        span.record("cpm_recomputed", cpm_recomputed);
        span.record("cpm_total", scope);
        span.record("relevelled", relevelled);
        Ok(proposal)
    }

    /// A proposal built from nothing kept: the network over the
    /// activities of `tree` at positions `in_scope`, the k-th taking
    /// `durations[k]` and demanding its designer under `team`, levelled
    /// against `team`.
    fn fresh_proposal(
        &self,
        tree: &TaskTree,
        in_scope: Vec<usize>,
        durations: &[WorkDays],
        team: &Team,
    ) -> Result<PlanCache, HerculesError> {
        let (mut network, ids) = tree.network(&in_scope, durations)?;
        for (&i, &id) in in_scope.iter().zip(&ids) {
            network.add_demand(id, tree.assignee_at(i, team).to_owned(), 1)?;
        }
        let inc = network.analyze_incremental()?;
        let leveled = level(&network, &inc, team)?;
        let db = self.store.db();
        let names = tree.activities();
        let slots = in_scope
            .iter()
            .map(|&i| db.container_slot(&names[i]))
            .collect();
        Ok(PlanCache {
            network,
            in_scope,
            ids,
            slots,
            inc,
            leveled,
        })
    }

    /// Records proposal `c` as a simulated execution from the clock, and
    /// keeps it as `tree`'s plan cache: one planning session, one new
    /// schedule-instance version per activity, in post-order. A
    /// proposal equal to the activity's current plan joins a run of
    /// consecutive unchanged activities, and each run is carried as one
    /// store mutation; a changed one is planned and assigned. The pass
    /// is one store write group: its records reach disk together.
    fn record(&mut self, tree: &TaskTree, c: PlanCache) -> Result<SchedulePlan, HerculesError> {
        self.in_write_group(|h| h.record_pass(tree, c))
    }

    /// [`record`](Hercules::record) inside its write group.
    fn record_pass(
        &mut self,
        tree: &TaskTree,
        c: PlanCache,
    ) -> Result<SchedulePlan, HerculesError> {
        let session = self.store.begin_planning(self.clock);
        let offset = self.clock;
        let names = tree.activities();
        let name = |k: usize| names[c.in_scope[k]].as_str();
        let assignee = |k: usize| tree.assignee_at(c.in_scope[k], &self.team);
        let dates = |k: usize| {
            let id = c.ids[k];
            (offset + c.leveled.start(id), c.network.duration(id))
        };
        let planned = |k: usize, schedule: ScheduleInstanceId| {
            let (start, duration) = dates(k);
            PlannedActivity {
                activity: name(k).to_owned(),
                schedule,
                start,
                duration,
                assignee: assignee(k).to_owned(),
                critical: c.inc.is_critical(c.ids[k]),
            }
        };
        // Per activity, the current plan to carry, or `None` when the
        // proposal changes it (or there is none).
        let db = self.store.db();
        let mut carry = Vec::with_capacity(c.in_scope.len());
        for (k, &i) in c.in_scope.iter().enumerate() {
            let (start, duration) = dates(k);
            let current = c.slots[k].and_then(|slot| db.current_plan_at(slot));
            // A new version of a completed plan drops its link, which
            // the measured duration reads.
            if current.is_some_and(|p| p.is_complete()) {
                self.view.drop_estimate(tree.rule_position_at(i));
            }
            carry.push(
                current
                    .filter(|p| p.proposes(start, duration, &[assignee(k)]))
                    .map(|p| p.id()),
            );
        }
        let mut activities = Vec::with_capacity(c.in_scope.len());
        let mut k = 0;
        while k < c.in_scope.len() {
            if carry[k].is_none() {
                let (start, duration) = dates(k);
                let sc = self
                    .store
                    .plan_activity(session, name(k), start, duration)?;
                self.store.assign(sc, assignee(k))?;
                activities.push(planned(k, sc));
                k += 1;
            } else {
                let run: Vec<ScheduleInstanceId> = carry[k..].iter().map_while(|&c| c).collect();
                let minted = self.store.carry_plan(session, &run)?;
                for (j, sc) in minted.into_iter().enumerate() {
                    activities.push(planned(k + j, sc));
                }
                k += run.len();
            }
        }
        let project_finish = offset + c.leveled.makespan();
        self.view.plans.insert(tree.target().to_owned(), c);
        Ok(SchedulePlan {
            session,
            target: tree.target().to_owned(),
            activities,
            project_finish,
        })
    }

    /// The open work of `target` as a [`replan`](Hercules::replan)
    /// would propose it, read without changing the view.
    pub(crate) fn open_work(&self, target: &str) -> Result<OpenWork, HerculesError> {
        // The kept tree and estimates, or fresh ones that are not kept.
        // A read cannot drop the estimates of runs past the watermark,
        // so it trusts none while any exist.
        let tree = match self.view.trees.get(target) {
            Some(tree) => Arc::clone(tree),
            None => Arc::new(self.extract_task_tree(target)?),
        };
        let (done, start) = self.open_scope(&tree);
        let in_scope: Vec<usize> = (0..tree.len()).filter(|&i| !done[i]).collect();
        let synced = self.view.runs_seen == self.store.db().runs().len();
        let durations = in_scope
            .iter()
            .map(|&i| {
                let kept = self.view.estimates[tree.rule_position_at(i)].filter(|_| synced);
                kept.map_or_else(|| self.duration_estimate(&tree.activities()[i]), Ok)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(OpenWork {
            tree,
            in_scope,
            start,
            durations,
        })
    }

    /// The proposal over `open` with `durations` under `team`: the kept
    /// plan cache when it has the same scope and durations and `team` is
    /// the manager's, else a fresh proposal that is not kept.
    pub(crate) fn proposal_ref(
        &self,
        open: &OpenWork,
        durations: &[WorkDays],
        team: &Team,
    ) -> Result<Cow<'_, PlanCache>, HerculesError> {
        match self.kept(open, durations, team) {
            Some(c) => Ok(Cow::Borrowed(c)),
            None => self
                .fresh_proposal(&open.tree, open.in_scope.clone(), durations, team)
                .map(Cow::Owned),
        }
    }

    /// The kept plan cache of `open`'s target when it has the same
    /// scope and durations and `team` is the manager's.
    fn kept(&self, open: &OpenWork, durations: &[WorkDays], team: &Team) -> Option<&PlanCache> {
        self.view.plans.get(open.tree.target()).filter(|c| {
            *team == self.team
                && c.in_scope == open.in_scope
                && c.ids
                    .iter()
                    .zip(durations)
                    .all(|(&id, &d)| c.network.duration(id) == d)
        })
    }

    /// Per activity of `open`: its total slack (late − early start) and
    /// upward rank (project duration − late start, the critical path
    /// from it to the sink) in its proposal's unlevelled CPM, the kept
    /// plan cache's or else one computed without levelling.
    pub(crate) fn slack_and_rank(
        &self,
        open: &OpenWork,
    ) -> Result<Vec<(WorkDays, WorkDays)>, HerculesError> {
        let fresh;
        let (ids, inc) = match self.kept(open, &open.durations, &self.team) {
            Some(c) => (&c.ids, &c.inc),
            None => {
                let (network, ids) = open.tree.network(&open.in_scope, &open.durations)?;
                fresh = (ids, network.analyze_incremental()?);
                (&fresh.0, &fresh.1)
            }
        };
        let end = inc.project_duration();
        let of = |&id| {
            (
                inc.late_start(id) - inc.early_start(id),
                end - inc.late_start(id),
            )
        };
        Ok(ids.iter().map(of).collect())
    }

    /// The task tree of `target`, extracted on first use and kept in
    /// the planning view.
    ///
    /// # Errors
    ///
    /// [`HerculesError::UnknownTarget`] if `target` names nothing.
    pub(crate) fn task_tree(&mut self, target: &str) -> Result<Arc<TaskTree>, HerculesError> {
        if let Some(tree) = self.view.trees.get(target) {
            return Ok(Arc::clone(tree));
        }
        let tree = Arc::new(self.extract_task_tree(target)?);
        self.view.trees.insert(target.to_owned(), Arc::clone(&tree));
        Ok(tree)
    }

    /// Drops the estimates of activities that gained runs since the
    /// view last looked at the run log, and moves the watermark.
    pub(crate) fn sync_estimates(&mut self) {
        let db = self.store.db();
        for run in &db.runs()[self.view.runs_seen..] {
            if let Some(rule) = self.schema.rule_position(run.activity()) {
                self.view.estimates[rule] = None;
            }
        }
        self.view.runs_seen = db.runs().len();
    }

    /// The estimate of `activity` (at rule position `rule`) from the
    /// view, computed and kept when missing; `recomputed` counts the
    /// misses. Call [`sync_estimates`](Hercules::sync_estimates) first.
    pub(crate) fn estimate_at(
        &mut self,
        rule: usize,
        activity: &str,
        recomputed: &mut usize,
    ) -> Result<WorkDays, HerculesError> {
        if let Some(estimate) = self.view.estimates[rule] {
            return Ok(estimate);
        }
        let estimate = self.duration_estimate(activity)?;
        self.view.estimates[rule] = Some(estimate);
        *recomputed += 1;
        Ok(estimate)
    }

    /// Per tree position, whether the activity's current plan is
    /// complete — the work a replan skips, a forecast takes as done and
    /// execution does not run again — and the day open work can start:
    /// the clock, or the latest actual finish of completed work.
    pub(crate) fn open_scope(&self, tree: &TaskTree) -> (Vec<bool>, WorkDays) {
        let db = self.store.db();
        let activities = tree.activities();
        let done: Vec<bool> = activities
            .iter()
            .map(|a| db.current_plan(a).is_some_and(|p| p.is_complete()))
            .collect();
        let start = activities
            .iter()
            .zip(&done)
            .filter(|&(_, &done)| done)
            .filter_map(|(a, _)| db.actual_finish(a))
            .fold(self.clock, WorkDays::max);
        (done, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;
    use simtools::{workload::Team, ToolLibrary};

    fn manager(team: usize) -> Hercules {
        Hercules::new(
            examples::circuit_design(),
            ToolLibrary::standard(),
            Team::of_size(team),
            7,
        )
    }

    /// The last `hercules.plan` span recorded by this thread (lane 0 —
    /// the session opener) in `trace`. Replaces the removed
    /// `last_plan_stats` accessor as the tests' planning probe.
    fn plan_span(trace: &obs::Trace) -> obs::SpanView {
        trace
            .spans()
            .into_iter()
            .rfind(|s| s.name == "hercules.plan" && s.lane == 0)
            .expect("a planning pass was traced")
    }

    fn arg_u64(span: &obs::SpanView, key: &str) -> u64 {
        match span.arg(key) {
            Some(obs::ArgValue::U64(n)) => *n,
            other => panic!("span arg {key}: {other:?}"),
        }
    }

    fn arg_bool(span: &obs::SpanView, key: &str) -> bool {
        match span.arg(key) {
            Some(obs::ArgValue::Bool(b)) => *b,
            other => panic!("span arg {key}: {other:?}"),
        }
    }

    #[test]
    fn plan_creates_schedule_instances_in_db() {
        let mut h = manager(2);
        let plan = h.plan("performance").unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.target(), "performance");
        assert!(!plan.is_empty());
        assert_eq!(h.db().schedule_container("Create").unwrap().len(), 1);
        assert_eq!(h.db().schedule_container("Simulate").unwrap().len(), 1);
        let session = h.db().planning_session(plan.session());
        assert_eq!(session.instances().len(), 2);
    }

    #[test]
    fn plan_respects_precedence() {
        let mut h = manager(2);
        let plan = h.plan("performance").unwrap();
        let create = plan.activity("Create").unwrap();
        let simulate = plan.activity("Simulate").unwrap();
        assert!(simulate.start.days() >= create.start.days() + create.duration.days() - 1e-9);
        assert!(plan.project_finish().days() >= simulate.start.days());
    }

    #[test]
    fn chain_is_fully_critical() {
        let mut h = manager(2);
        let plan = h.plan("performance").unwrap();
        assert!(plan.activities().iter().all(|a| a.critical));
    }

    #[test]
    fn replan_creates_versions_with_provenance() {
        let mut h = manager(2);
        let p1 = h.plan("performance").unwrap();
        let p2 = h.plan("performance").unwrap();
        let sc1 = p1.activity("Create").unwrap().schedule;
        let sc2 = p2.activity("Create").unwrap().schedule;
        assert_ne!(sc1, sc2);
        assert_eq!(h.db().schedule_instance(sc2).version(), 2);
        assert_eq!(h.db().schedule_instance(sc2).derived_from(), Some(sc1));
        assert_eq!(h.db().plan_evolution(sc2), vec![sc2, sc1]);
    }

    #[test]
    fn plan_uses_intuition_estimates() {
        let mut h = manager(2);
        h.set_estimate("Create", WorkDays::new(4.0)).unwrap();
        h.set_estimate("Simulate", WorkDays::new(2.0)).unwrap();
        let plan = h.plan("performance").unwrap();
        assert_eq!(
            plan.activity("Create").unwrap().duration,
            WorkDays::new(4.0)
        );
        assert_eq!(plan.project_finish(), WorkDays::new(6.0));
    }

    #[test]
    fn plan_starts_at_clock() {
        let mut h = manager(2);
        h.set_estimate("Create", WorkDays::new(1.0)).unwrap();
        h.set_estimate("Simulate", WorkDays::new(1.0)).unwrap();
        h.advance_clock(WorkDays::new(10.0));
        let plan = h.plan("performance").unwrap();
        assert_eq!(plan.activity("Create").unwrap().start, WorkDays::new(10.0));
        assert_eq!(plan.project_finish(), WorkDays::new(12.0));
    }

    #[test]
    fn single_designer_serializes_independent_activities() {
        // asic flow has parallel branches; with one designer the plan
        // must not overlap any two activities.
        let mut h = Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(1),
            3,
        );
        let plan = h.plan("signoff_report").unwrap();
        let mut spans: Vec<(f64, f64)> = plan
            .activities()
            .iter()
            .map(|a| (a.start.days(), a.start.days() + a.duration.days()))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in spans.windows(2) {
            assert!(w[1].0 >= w[0].1 - 1e-9, "activities overlap: {w:?}");
        }
    }

    #[test]
    fn larger_team_never_slower() {
        let mut h1 = Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(1),
            3,
        );
        let mut h3 = Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(3),
            3,
        );
        let p1 = h1.plan("signoff_report").unwrap();
        let p3 = h3.plan("signoff_report").unwrap();
        assert!(p3.project_finish().days() <= p1.project_finish().days() + 1e-9);
    }

    #[test]
    fn unknown_target_rejected() {
        let mut h = manager(1);
        assert!(matches!(
            h.plan("gds"),
            Err(HerculesError::UnknownTarget(_))
        ));
    }

    #[test]
    fn replan_same_scope_hits_cache_with_empty_dirty_set() {
        let mut h = manager(2);
        let calls_before = obs::Metrics::counter("hercules.plan.calls").get();
        let hits_before = obs::Metrics::counter("hercules.plan.cache_hits").get();
        let session = obs::Collector::session();
        let p1 = h.plan("performance").unwrap();
        let first = plan_span(&session.finish());
        assert!(!arg_bool(&first, "cache_hit"));
        assert!(arg_bool(&first, "relevelled"));
        assert_eq!(arg_u64(&first, "dirty"), 2);
        assert_eq!(arg_u64(&first, "cpm_total"), 2);
        let session = obs::Collector::session();
        let p2 = h.plan("performance").unwrap();
        let second = plan_span(&session.finish());
        assert!(arg_bool(&second, "cache_hit"));
        assert!(!arg_bool(&second, "relevelled"), "nothing changed");
        assert_eq!(arg_u64(&second, "dirty"), 0);
        assert_eq!(arg_u64(&second, "cpm_recomputed"), 0);
        // The registry aggregates the same passes (>= because other
        // tests in this process bump the shared counters too).
        assert!(obs::Metrics::counter("hercules.plan.calls").get() >= calls_before + 2);
        assert!(obs::Metrics::counter("hercules.plan.cache_hits").get() > hits_before);
        // Same proposal, new schedule-instance versions.
        assert_eq!(p1.project_finish(), p2.project_finish());
        assert_eq!(p1.len(), p2.len());
    }

    #[test]
    fn estimate_change_dirties_only_that_activity() {
        let mut h = manager(2);
        h.set_estimate("Create", WorkDays::new(2.0)).unwrap();
        h.set_estimate("Simulate", WorkDays::new(3.0)).unwrap();
        let p1 = h.plan("performance").unwrap();
        assert_eq!(p1.project_finish(), WorkDays::new(5.0));
        // Slip the leaf of the chain; the replan reuses the cache and
        // recomputes only the affected cone.
        h.set_estimate("Simulate", WorkDays::new(6.0)).unwrap();
        let session = obs::Collector::session();
        let p2 = h.plan("performance").unwrap();
        let stats = plan_span(&session.finish());
        assert!(arg_bool(&stats, "cache_hit"));
        assert!(arg_bool(&stats, "relevelled"), "a duration moved");
        assert_eq!(arg_u64(&stats, "dirty"), 1);
        assert!(arg_u64(&stats, "cpm_recomputed") >= 1);
        assert!(arg_u64(&stats, "cpm_recomputed") <= 2 * arg_u64(&stats, "cpm_total"));
        assert_eq!(p2.project_finish(), WorkDays::new(8.0));
        assert!(p2.activities().iter().all(|a| a.critical));
    }

    #[test]
    fn scope_change_rebuilds_cache() {
        let mut h = manager(2);
        let session = obs::Collector::session();
        h.plan("performance").unwrap();
        assert!(!arg_bool(&plan_span(&session.finish()), "cache_hit"));
        // Restricting the scope (as replan does after completions)
        // invalidates the cached network.
        let skip = [true, false]; // Create, Simulate
        let session = obs::Collector::session();
        let p = h.plan_scope("performance", &skip).unwrap();
        let stats = plan_span(&session.finish());
        assert!(!arg_bool(&stats, "cache_hit"));
        assert_eq!(arg_u64(&stats, "cpm_total"), 1);
        assert_eq!(p.len(), 1);
        // And the narrower scope is itself cached.
        let session = obs::Collector::session();
        h.plan_scope("performance", &skip).unwrap();
        assert!(arg_bool(&plan_span(&session.finish()), "cache_hit"));
    }

    #[test]
    fn plan_after_gc_is_a_cache_hit() {
        // A gc restamps ids but keeps every slot and estimate input, so
        // the kept proposal stays valid: the next plan reuses it and
        // records what a cold manager over the same database records.
        let mut warm = Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(2),
            3,
        );
        warm.execute("rtl").unwrap();
        warm.plan("signoff_report").unwrap();
        warm.gc().unwrap();
        let mut cold = Hercules::with_store(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(2),
            3,
            Box::new(metadata::ArenaStore::new(warm.db().clone())),
        );
        let session = obs::Collector::session();
        let warm_plan = warm.plan("signoff_report").unwrap();
        let stats = plan_span(&session.finish());
        assert!(arg_bool(&stats, "cache_hit"));
        assert!(!arg_bool(&stats, "relevelled"));
        assert_eq!(warm_plan, cold.plan("signoff_report").unwrap());
        assert_eq!(warm.db().dump(), cold.db().dump());
    }

    #[test]
    fn cached_plan_matches_fresh_plan() {
        // The incremental path must propose byte-identical dates to a
        // from-scratch plan of the same state.
        let mut h1 = Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(2),
            3,
        );
        let mut h2 = h1.clone();
        h1.plan("signoff_report").unwrap();
        h1.set_estimate("Synthesize", WorkDays::new(12.5)).unwrap();
        let session = obs::Collector::session();
        let cached = h1.plan("signoff_report").unwrap();
        assert!(arg_bool(&plan_span(&session.finish()), "cache_hit"));

        h2.set_estimate("Synthesize", WorkDays::new(12.5)).unwrap();
        let fresh = h2.plan("signoff_report").unwrap();
        assert_eq!(cached.project_finish(), fresh.project_finish());
        for (a, b) in cached.activities().iter().zip(fresh.activities()) {
            assert_eq!(a.activity, b.activity);
            assert_eq!(a.start, b.start);
            assert_eq!(a.duration, b.duration);
            assert_eq!(a.assignee, b.assignee);
            assert_eq!(a.critical, b.critical, "criticality of {}", a.activity);
        }
    }

    #[test]
    fn assignees_recorded_in_db() {
        let mut h = manager(2);
        let plan = h.plan("performance").unwrap();
        for pa in plan.activities() {
            let sc = h.db().schedule_instance(pa.schedule);
            assert_eq!(sc.assignees(), [pa.assignee.as_str().into()]);
        }
    }
}
