use std::collections::HashMap;

use metadata::{EntityInstanceId, ScheduleInstanceId};
use schedule::WorkDays;
use simtools::cluster::Cluster;
use simtools::{InjectedFault, ToolInvocation};

use crate::error::HerculesError;
use crate::manager::Hercules;
use crate::policy::{ExecutionPolicy, SchedulingPolicy};

/// Hard cap on iterations per activity, so a pathological tool model
/// cannot spin forever. Real tool models converge far earlier. Hitting
/// the cap is an error ([`HerculesError::IterationLimit`]), not a
/// silent non-convergence.
pub(crate) const ITERATION_CAP: u32 = 16;

/// The record of executing one activity: its runs, dates, and final
/// instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityExecution {
    /// The executed activity.
    pub activity: String,
    /// The designer who ran it.
    pub assignee: String,
    /// When the first run started.
    pub started: WorkDays,
    /// When the final run finished.
    pub finished: WorkDays,
    /// How many runs (iterations) the activity needed.
    pub iterations: u32,
    /// Whether the final run met the design goals.
    pub converged: bool,
    /// The final entity instance (the one linked to the plan).
    pub final_instance: EntityInstanceId,
    /// Failed attempts (transient crashes, hangs) absorbed by the retry
    /// policy before the activity completed.
    pub fault_attempts: u32,
    /// Simulated time those faults burned (crash fractions, timeouts,
    /// backoffs).
    pub fault_time: WorkDays,
}

impl ActivityExecution {
    /// Elapsed activity duration (first start to final finish).
    pub fn duration(&self) -> WorkDays {
        self.finished.saturating_sub(self.started)
    }
}

/// The record of an activity that exhausted the retry policy and was
/// declared *blocked*: its tool kept failing (persistently broken, or
/// simply unlucky past the budget), so the session degraded around it
/// instead of aborting.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedActivity {
    /// The blocked activity.
    pub activity: String,
    /// The designer who was attempting it.
    pub assignee: String,
    /// Failed attempts (transient or hang) before giving up.
    pub attempts: u32,
    /// Simulated time burned on faults before giving up.
    pub fault_time: WorkDays,
    /// Runs that *were* recorded before blocking (e.g. corrupt-output
    /// runs, which leave auditable metadata).
    pub runs_recorded: u32,
}

/// The record of executing a task tree, including any degradation:
/// activities blocked by injected faults and downstream activities
/// skipped for missing inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    pub(crate) target: String,
    pub(crate) activities: Vec<ActivityExecution>,
    pub(crate) blocked: Vec<BlockedActivity>,
    pub(crate) skipped: Vec<String>,
    pub(crate) replanned: Vec<(String, ScheduleInstanceId)>,
    pub(crate) finished_at: WorkDays,
}

impl ExecutionReport {
    /// The executed target.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Per-activity execution records, in dispatch order — dependency
    /// order under the default [`Fifo`](crate::policy::Fifo) policy.
    pub fn activities(&self) -> &[ActivityExecution] {
        &self.activities
    }

    /// The record for `activity`, if executed.
    pub fn activity(&self, name: &str) -> Option<&ActivityExecution> {
        self.activities.iter().find(|a| a.activity == name)
    }

    /// Activities that exhausted the retry policy this session, in
    /// dispatch order.
    pub fn blocked(&self) -> &[BlockedActivity] {
        &self.blocked
    }

    /// The blocked record for `activity`, if blocked.
    pub fn blocked_activity(&self, name: &str) -> Option<&BlockedActivity> {
        self.blocked.iter().find(|b| b.activity == name)
    }

    /// Activities skipped because an upstream activity was blocked or
    /// skipped, leaving an input missing.
    pub fn skipped(&self) -> &[String] {
        &self.skipped
    }

    /// Schedule instances created by the automatic degraded replan
    /// that follows a blocking failure (empty when nothing blocked or
    /// no plan existed).
    pub fn replanned(&self) -> &[(String, ScheduleInstanceId)] {
        &self.replanned
    }

    /// Whether the session degraded: something was blocked or skipped.
    pub fn is_degraded(&self) -> bool {
        !self.blocked.is_empty() || !self.skipped.is_empty()
    }

    /// When the last activity (or fault-handling) finished — the
    /// project clock afterwards.
    pub fn finished_at(&self) -> WorkDays {
        self.finished_at
    }

    /// Whether every attempted activity converged *and* nothing was
    /// blocked or skipped.
    pub fn all_converged(&self) -> bool {
        !self.is_degraded() && self.activities.iter().all(|a| a.converged)
    }

    /// Total number of tool runs across all activities (including runs
    /// recorded by activities that later blocked).
    pub fn total_runs(&self) -> u32 {
        self.activities.iter().map(|a| a.iterations).sum::<u32>()
            + self.blocked.iter().map(|b| b.runs_recorded).sum::<u32>()
    }

    /// Total failed attempts absorbed by the retry policy.
    pub fn total_fault_attempts(&self) -> u32 {
        self.activities
            .iter()
            .map(|a| a.fault_attempts)
            .sum::<u32>()
            + self.blocked.iter().map(|b| b.attempts).sum::<u32>()
    }
}

impl Hercules {
    /// Executes the task tree for `target`: the post-order traversal of
    /// §IV-A, this time running tools.
    ///
    /// For each activity (inputs before outputs):
    ///
    /// 1. wait for its input instances and a free worker — by default
    ///    the assignee's designer slot (one activity at a time per
    ///    designer, a deterministic list schedule);
    /// 2. iterate tool runs until the result converges ("a given
    ///    activity may need to be run several times before the design
    ///    goals are achieved") — every run creates a [`metadata::Run`]
    ///    and a new versioned entity instance;
    /// 3. on convergence, **link** the final instance to the activity's
    ///    current schedule instance, which is how actual dates reach
    ///    the plan (§III's link between schedule and actual flow data).
    ///
    /// Primary inputs (e.g. `stimuli`) are supplied automatically at
    /// the current clock. Activities whose current plan is already
    /// complete are skipped (their final instance is reused), so
    /// re-executing after replanning only redoes open work.
    ///
    /// Dispatch runs through the policy engine under the manager's
    /// configured [`ExecutionPolicy`] and simulated
    /// [`Cluster`](simtools::cluster::Cluster) (see
    /// [`set_execution_policy`](Hercules::set_execution_policy) and
    /// [`set_cluster`](Hercules::set_cluster)). The defaults — the
    /// [`Fifo`](crate::policy::Fifo) policy on the implicit
    /// one-worker-per-designer cluster — reproduce the original serial
    /// topo-order executor exactly, report and store mutations alike
    /// ([`execute_serial_reference`](Hercules::execute_serial_reference)
    /// is the pinned oracle).
    ///
    /// # Failure semantics
    ///
    /// When a fault plan is installed
    /// ([`set_fault_plan`](Hercules::set_fault_plan)), tool attempts
    /// may fail. The [`RetryPolicy`](crate::RetryPolicy) governs the
    /// response:
    ///
    /// * **Transient** crashes charge the elapsed fraction of the run
    ///   plus a capped exponential backoff, then retry.
    /// * **Hangs** charge the policy's timeout plus backoff, then
    ///   retry.
    /// * **Corrupt output** is recorded like any run (the designer only
    ///   notices afterwards) but never converges, costing an iteration.
    /// * When the attempt or time budget is exhausted, the activity is
    ///   declared **blocked** ([`ExecutionReport::blocked`]): no
    ///   result is published, downstream activities missing inputs are
    ///   **skipped**, and — if plans exist — the open scope is
    ///   automatically replanned through the incremental engine with
    ///   the blocked activities' burned time folded into their
    ///   estimates ([`ExecutionReport::replanned`]). The session never
    ///   aborts on injected faults.
    ///
    /// # Errors
    ///
    /// * [`HerculesError::UnknownTarget`] — `target` names nothing.
    /// * [`HerculesError::UnknownActivity`] — the task tree references
    ///   an activity absent from the schema (cannot happen through this
    ///   API).
    /// * [`HerculesError::IterationLimit`] — a tool model produced 16
    ///   (the iteration cap) non-converged runs: a pathological model,
    ///   distinct from injected faults (which block instead).
    /// * [`HerculesError::Metadata`] — database integrity failure,
    ///   including an armed crash injection firing mid-execution.
    pub fn execute(&mut self, target: &str) -> Result<ExecutionReport, HerculesError> {
        let policy = self.execution_policy;
        let cluster = self.cluster.clone();
        self.execute_with(target, policy, cluster.as_ref())
    }

    /// [`execute`](Hercules::execute) under an explicit policy and
    /// cluster, overriding the manager's configured defaults for this
    /// call only. `cluster = None` selects the implicit
    /// one-worker-per-designer substrate.
    ///
    /// # Errors
    ///
    /// As for [`execute`](Hercules::execute).
    pub fn execute_with(
        &mut self,
        target: &str,
        policy: ExecutionPolicy,
        cluster: Option<&Cluster>,
    ) -> Result<ExecutionReport, HerculesError> {
        let mut policy = policy.build();
        self.run_policy_engine(target, policy.as_mut(), cluster)
    }

    /// [`execute`](Hercules::execute) under a caller-supplied
    /// [`SchedulingPolicy`] implementation — the extension point for
    /// policies beyond the built-in four. The policy must be
    /// deterministic for replay to reproduce live execution.
    ///
    /// # Errors
    ///
    /// As for [`execute`](Hercules::execute).
    pub fn execute_with_policy(
        &mut self,
        target: &str,
        policy: &mut dyn SchedulingPolicy,
        cluster: Option<&Cluster>,
    ) -> Result<ExecutionReport, HerculesError> {
        self.run_policy_engine(target, policy, cluster)
    }

    /// Seeds the class → (availability time, instance) map execution
    /// and forecasting start from: supplied primary inputs plus the
    /// linked results of already-completed plans in `tree`'s scope.
    pub(crate) fn seed_data_ready(
        &self,
        tree: &crate::task::TaskTree,
    ) -> HashMap<String, (WorkDays, EntityInstanceId)> {
        let mut data_ready: HashMap<String, (WorkDays, EntityInstanceId)> = HashMap::new();
        for (class, &inst) in &self.supplied {
            data_ready.insert(
                class.clone(),
                (self.store.db().entity_instance(inst).created_at(), inst),
            );
        }
        // Completed activities contribute their linked instances.
        for (i, activity) in tree.activities().iter().enumerate() {
            if let Some(plan) = self.store.db().current_plan(activity) {
                if let Some(inst) = plan.linked_entity() {
                    let at = self.store.db().entity_instance(inst).created_at();
                    data_ready.insert(tree.output_at(i).to_owned(), (at, inst));
                }
            }
        }
        data_ready
    }

    /// Graceful degradation after a session that blocked the
    /// `newly_blocked` activities: blocking failures trigger an
    /// automatic replan of `target`'s open scope. The blocked
    /// activities' burned time is folded into their duration estimates,
    /// so exactly they are dirty and the incremental CPM engine
    /// recomputes only their downstream cone. With no plan to revise,
    /// an empty planning session records the clock the burned time
    /// moved, so a manager reopened from the store resumes at it.
    /// Returns the replanned versions.
    pub(crate) fn degrade(
        &mut self,
        target: &str,
        tree: &crate::task::TaskTree,
        newly_blocked: &[(String, WorkDays)],
    ) -> Result<Vec<(String, ScheduleInstanceId)>, HerculesError> {
        if newly_blocked.is_empty() {
            return Ok(Vec::new());
        }
        for (name, burned) in newly_blocked {
            let base = self.duration_estimate(name)?;
            self.set_estimate(name, base + *burned)?;
        }
        let db = self.store.db();
        if !tree
            .activities()
            .iter()
            .any(|a| db.current_plan(a).is_some())
        {
            self.store.begin_planning(self.clock);
            return Ok(Vec::new());
        }
        let completed = self.completed_mask(tree);
        let plan = self.plan_scope(target, &completed)?;
        Ok(plan
            .activities()
            .iter()
            .map(|pa| (pa.activity.clone(), pa.schedule))
            .collect())
    }

    /// The original single-pass serial executor: one linear walk over
    /// the task tree in dependency order, one activity at a time per
    /// designer. Kept as the *reference implementation* the policy
    /// engine is differentially pinned against — [`Fifo`] on the
    /// implicit cluster must reproduce this method's report, store
    /// mutations, and final clock exactly — and as the baseline for
    /// the `exec_policies` bench gate.
    ///
    /// [`Fifo`]: crate::policy::Fifo
    ///
    /// # Errors
    ///
    /// As for [`execute`](Hercules::execute).
    pub fn execute_serial_reference(
        &mut self,
        target: &str,
    ) -> Result<ExecutionReport, HerculesError> {
        obs::Collector::set_sim_days(self.clock.days());
        let mut exec_span = obs::span!("hercules.execute", target = target);
        let tree = self.extract_task_tree(target)?;
        // Supply primary inputs up front.
        for class in tree.primary_inputs() {
            let designer = self.team.designer(0).to_owned();
            self.supply_primary_input(class, &designer)?;
        }
        // data_ready: class -> (time available, instance).
        let mut data_ready = self.seed_data_ready(&tree);
        let mut designer_free: HashMap<String, WorkDays> = self
            .team
            .iter()
            .map(|d| (d.to_owned(), self.clock))
            .collect();

        let injector = self.fault_injector.clone();
        let policy = self.retry_policy;
        let mut executions = Vec::new();
        let mut blocked_rows: Vec<BlockedActivity> = Vec::new();
        let mut skipped: Vec<String> = Vec::new();
        let mut newly_blocked: Vec<(String, WorkDays)> = Vec::new();
        let mut finished_at = self.clock;
        for (i, activity) in tree.activities().iter().enumerate() {
            // Skip work already declared complete.
            if self
                .db()
                .current_plan(activity)
                .is_some_and(|p| p.is_complete())
            {
                continue;
            }
            // Fallback assignment keys on the activity's *name*, not
            // its position in the tree: the same activity always lands
            // on the same designer regardless of scope or policy.
            let assignee = self
                .db()
                .current_plan(activity)
                .and_then(|p| p.assignees().first().map(|d| d.as_ref().to_owned()))
                .unwrap_or_else(|| self.team.assignee_for(activity).to_owned());
            // Ready when all inputs exist. An input can be missing only
            // when its producer blocked or was skipped upstream — then
            // this activity is skipped too (degradation, not an error).
            let mut ready = self.clock;
            let mut inputs: Vec<EntityInstanceId> = Vec::new();
            let mut input_bytes = 0u64;
            let mut inputs_missing = false;
            for class in tree.inputs_at(i) {
                let Some(&(at, inst)) = data_ready.get(class) else {
                    inputs_missing = true;
                    break;
                };
                ready = ready.max(at);
                input_bytes += self
                    .db()
                    .data_object(self.store.db().entity_instance(inst).data())
                    .size() as u64;
                inputs.push(inst);
            }
            if inputs_missing {
                obs::event!("execute.skipped", activity = activity.as_str());
                skipped.push(activity.clone());
                continue;
            }
            let designer_at = designer_free.get(&assignee).copied().unwrap_or(self.clock);
            let start = ready.max(designer_at);
            obs::Collector::set_sim_days(start.days());
            let mut act_span = obs::span!(
                "execute.activity",
                activity = activity.as_str(),
                assignee = assignee.as_str(),
            );

            // Iterate runs until convergence, absorbing injected faults
            // through the retry policy.
            let rule = self
                .schema
                .rule(activity)
                .ok_or_else(|| HerculesError::UnknownActivity(activity.to_owned()))?;
            let tool_name = rule.tool().to_owned();
            let output_class = tree.output_at(i).to_owned();
            let mut t = start;
            let mut iterations = 0u32;
            let mut attempts = 0u32;
            let mut fault_time = WorkDays::ZERO;
            let mut converged = false;
            let mut blocked = false;
            let mut final_instance = None;
            let prior_runs = self.store.db().run_count_of(activity) as u32;
            while iterations < ITERATION_CAP {
                let req = ToolInvocation {
                    input_bytes,
                    iteration: prior_runs + iterations + 1,
                    seed: self.seed,
                };
                let attempted =
                    self.tools
                        .invoke_with_faults(&tool_name, &req, &injector, attempts + 1);
                match attempted.fault {
                    // A clean run, or one whose output was silently
                    // corrupted: both finish and leave auditable
                    // metadata; only the clean one can converge.
                    None | Some(InjectedFault::CorruptOutput) => {
                        iterations += 1;
                        let run = self.store.begin_run(activity, &assignee, t)?;
                        let end = t + WorkDays::new(attempted.outcome.duration_days);
                        let data = self.store.store_data(
                            &format!("{output_class}.v{}", prior_runs + iterations),
                            attempted.outcome.output,
                        );
                        let inst = self
                            .store
                            .finish_run(run, &output_class, data, end, &inputs)?;
                        t = end;
                        obs::Collector::set_sim_days(t.days());
                        obs::event!(
                            "execute.run",
                            activity = activity.as_str(),
                            iteration = iterations,
                            converged = attempted.outcome.converged,
                            corrupt = attempted.fault.is_some(),
                        );
                        final_instance = Some(inst);
                        if attempted.outcome.converged {
                            converged = true;
                            break;
                        }
                    }
                    // The run died partway: charge the elapsed fraction
                    // plus backoff, then retry (no metadata recorded —
                    // the tool never finished).
                    Some(InjectedFault::Transient) => {
                        attempts += 1;
                        let frac = injector.crash_fraction(&tool_name, &req, attempts);
                        let burned = WorkDays::new(attempted.outcome.duration_days * frac)
                            + policy.backoff(attempts);
                        fault_time += burned;
                        t += burned;
                        obs::Collector::set_sim_days(t.days());
                        obs::event!(
                            "execute.retry",
                            activity = activity.as_str(),
                            attempt = attempts,
                            burned_days = burned.days(),
                        );
                        if attempts >= policy.max_attempts || fault_time > policy.activity_budget {
                            blocked = true;
                            break;
                        }
                    }
                    // The run hung: kill it at the timeout, backoff,
                    // retry.
                    Some(InjectedFault::Hang) => {
                        attempts += 1;
                        let burned = policy.timeout + policy.backoff(attempts);
                        fault_time += burned;
                        t += burned;
                        obs::Collector::set_sim_days(t.days());
                        obs::event!(
                            "execute.timeout",
                            activity = activity.as_str(),
                            attempt = attempts,
                            burned_days = burned.days(),
                        );
                        if attempts >= policy.max_attempts || fault_time > policy.activity_budget {
                            blocked = true;
                            break;
                        }
                    }
                }
            }
            if blocked {
                obs::event!(
                    "execute.blocked",
                    activity = activity.as_str(),
                    attempts = attempts,
                    fault_days = fault_time.days(),
                );
                act_span.record("blocked", true);
                self.blocked.insert(activity.clone());
                newly_blocked.push((activity.clone(), fault_time));
                blocked_rows.push(BlockedActivity {
                    activity: activity.clone(),
                    assignee: assignee.clone(),
                    attempts,
                    fault_time,
                    runs_recorded: iterations,
                });
                designer_free.insert(assignee, t);
                finished_at = finished_at.max(t);
                continue;
            }
            let final_instance = match final_instance {
                Some(inst) if converged => inst,
                // The loop can only exit unconverged-and-unblocked by
                // exhausting the iteration cap.
                _ => {
                    return Err(HerculesError::IterationLimit {
                        activity: activity.clone(),
                        cap: ITERATION_CAP,
                    })
                }
            };
            // The activity recovered (or never faulted): it is not
            // blocked, whatever earlier sessions concluded.
            self.blocked.remove(activity);
            // Designer declares completion: link plan to final result.
            if let Some(plan) = self.store.db().current_plan(activity) {
                let sc = plan.id();
                self.store.link_completion(sc, final_instance)?;
            }
            data_ready.insert(output_class, (t, final_instance));
            designer_free.insert(assignee.clone(), t);
            finished_at = finished_at.max(t);
            obs::Collector::set_sim_days(t.days());
            act_span.record("iterations", iterations);
            act_span.record("fault_attempts", attempts);
            act_span.record("converged", converged);
            executions.push(ActivityExecution {
                activity: activity.clone(),
                assignee,
                started: start,
                finished: t,
                iterations,
                converged,
                final_instance,
                fault_attempts: attempts,
                fault_time,
            });
        }
        self.clock = finished_at;
        let replanned = self.degrade(target, &tree, &newly_blocked)?;
        obs::Collector::set_sim_days(finished_at.days());
        exec_span.record("executed", executions.len());
        exec_span.record("blocked", blocked_rows.len());
        exec_span.record("skipped", skipped.len());
        exec_span.record("replanned", replanned.len());
        Ok(ExecutionReport {
            target: target.to_owned(),
            activities: executions,
            blocked: blocked_rows,
            skipped,
            replanned,
            finished_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;
    use simtools::{workload::Team, FaultPlan, ToolLibrary};

    fn manager(seed: u64) -> Hercules {
        Hercules::new(
            examples::circuit_design(),
            ToolLibrary::standard(),
            Team::of_size(2),
            seed,
        )
    }

    #[test]
    fn execute_produces_instances_and_links() {
        let mut h = manager(42);
        h.plan("performance").unwrap();
        let report = h.execute("performance").unwrap();
        assert_eq!(report.target(), "performance");
        assert_eq!(report.activities().len(), 2);
        assert!(report.all_converged());
        assert!(!report.is_degraded());
        // Every activity's plan is now linked to its final instance.
        for activity in ["Create", "Simulate"] {
            let plan = h.db().current_plan(activity).unwrap();
            assert!(plan.is_complete());
            let exec = report.activity(activity).unwrap();
            assert_eq!(plan.linked_entity(), Some(exec.final_instance));
        }
        // Runs recorded one per iteration.
        assert_eq!(h.db().runs().len() as u32, report.total_runs());
        assert_eq!(h.clock(), report.finished_at());
    }

    #[test]
    fn execute_without_plan_still_works() {
        let mut h = manager(42);
        let report = h.execute("performance").unwrap();
        assert!(report.all_converged());
        // No plans, so nothing to link — but instances exist.
        assert!(h.db().entity_container("performance").unwrap().len() == 1);
        assert!(h.db().current_plan("Create").is_none());
    }

    #[test]
    fn execution_respects_dependencies() {
        let mut h = manager(7);
        h.plan("performance").unwrap();
        let report = h.execute("performance").unwrap();
        let create = report.activity("Create").unwrap();
        let simulate = report.activity("Simulate").unwrap();
        assert!(simulate.started.days() >= create.finished.days() - 1e-9);
        assert!(simulate.duration().days() > 0.0);
    }

    #[test]
    fn iterations_create_versions() {
        // Scan seeds for a run where Create needs more than one
        // iteration (first-pass rate is 50%, so this is common).
        let seed = (0..50)
            .find(|&s| {
                let mut h = manager(s);
                let r = h.execute("netlist").unwrap();
                r.activity("Create").unwrap().iterations > 1
            })
            .expect("some seed iterates");
        let mut h = manager(seed);
        let report = h.execute("netlist").unwrap();
        let iters = report.activity("Create").unwrap().iterations;
        assert!(iters > 1);
        assert_eq!(
            h.db().entity_container("netlist").unwrap().len() as u32,
            iters
        );
        // The linked instance is the LAST version.
        let final_id = report.activity("Create").unwrap().final_instance;
        assert_eq!(h.db().entity_instance(final_id).version(), iters);
    }

    #[test]
    fn reexecution_skips_completed_work() {
        let mut h = manager(42);
        h.plan("performance").unwrap();
        let first = h.execute("performance").unwrap();
        let runs_before = h.db().runs().len();
        // Everything complete: executing again does nothing.
        let second = h.execute("performance").unwrap();
        assert!(second.activities().is_empty());
        assert_eq!(h.db().runs().len(), runs_before);
        let _ = first;
    }

    #[test]
    fn execution_is_deterministic_per_seed() {
        let run = |seed| {
            let mut h = manager(seed);
            h.plan("performance").unwrap();
            let r = h.execute("performance").unwrap();
            (r.finished_at(), r.total_runs())
        };
        assert_eq!(run(9), run(9));
        // Different seeds generally differ in at least one aspect.
        let (f1, n1) = run(1);
        let (f2, n2) = run(2);
        assert!(f1 != f2 || n1 != n2);
    }

    #[test]
    fn actuals_flow_into_schedule_space() {
        let mut h = manager(42);
        h.plan("performance").unwrap();
        let report = h.execute("performance").unwrap();
        let exec = report.activity("Create").unwrap();
        // Metadata stores timestamps at milliday resolution, so compare
        // within that tolerance.
        let start = h.db().actual_start("Create").unwrap();
        let finish = h.db().actual_finish("Create").unwrap();
        assert!((start.days() - exec.started.days()).abs() < 1e-3);
        assert!((finish.days() - exec.finished.days()).abs() < 1e-3);
    }

    #[test]
    fn primary_inputs_supplied_automatically() {
        let mut h = manager(42);
        h.execute("performance").unwrap();
        assert_eq!(h.db().entity_container("stimuli").unwrap().len(), 1);
    }

    #[test]
    fn iteration_cap_is_a_typed_error() {
        // A tool that never passes is a pathological *model*, not an
        // injected fault: execution reports it as an error instead of
        // silently publishing non-converged data downstream.
        let mut tools = ToolLibrary::new();
        tools.add(
            simtools::ToolModel::new("netlist_editor", 1.0)
                .with_first_pass_rate(0.0)
                .with_max_iterations(u32::MAX),
        );
        tools.add(simtools::ToolModel::new("simulator", 1.0));
        let mut h = Hercules::new(examples::circuit_design(), tools, Team::of_size(1), 3);
        h.plan("netlist").unwrap();
        let err = h.execute("netlist").unwrap_err();
        assert_eq!(
            err,
            HerculesError::IterationLimit {
                activity: "Create".into(),
                cap: ITERATION_CAP,
            }
        );
        assert!(err.to_string().contains("Create"));
        // Every iteration before the cap still left auditable
        // metadata...
        assert_eq!(
            h.db().entity_container("netlist").unwrap().len(),
            ITERATION_CAP as usize
        );
        // ...but the designer never declared completion.
        assert!(!h.db().current_plan("Create").unwrap().is_complete());
        assert_eq!(h.db().actual_finish("Create"), None);
    }

    #[test]
    fn broken_tool_blocks_activity_and_replans_downstream() {
        let mut h = manager(42);
        h.plan("performance").unwrap();
        let v1_create = h.db().current_plan("Create").unwrap().version();
        h.set_fault_plan(FaultPlan::breaking_tool("netlist_editor"));
        let session = obs::Collector::session();
        let report = h.execute("performance").unwrap();
        let trace = session.finish();
        // Create blocked, Simulate skipped (its netlist never
        // appeared); the session did NOT abort.
        assert!(report.is_degraded());
        assert!(!report.all_converged());
        let b = report.blocked_activity("Create").unwrap();
        assert_eq!(b.attempts, h.retry_policy().max_attempts);
        assert!(b.fault_time.days() > 0.0);
        assert_eq!(b.runs_recorded, 0, "broken tool never finished a run");
        assert_eq!(report.skipped(), ["Simulate".to_owned()]);
        assert!(report.activities().is_empty());
        assert!(h.is_blocked("Create"));
        assert_eq!(h.blocked_activities(), ["Create"]);
        // No completion links, no published netlist.
        assert!(!h.db().current_plan("Create").unwrap().is_complete());
        assert_eq!(h.db().entity_container("netlist").unwrap().len(), 0);
        // The degraded replan created new schedule versions for the
        // open scope...
        assert_eq!(report.replanned().len(), 2);
        assert!(h.db().current_plan("Create").unwrap().version() > v1_create);
        // ...served incrementally: only the blocked activity's
        // estimate moved.
        let stats = trace
            .spans()
            .into_iter()
            .rfind(|s| s.name == "hercules.plan" && s.lane == 0)
            .expect("degraded replan ran a planning pass");
        assert_eq!(stats.arg("cache_hit"), Some(&obs::ArgValue::Bool(true)));
        assert_eq!(stats.arg("dirty"), Some(&obs::ArgValue::U64(1)));
        // The new plan accounts for the burned fault time: it starts
        // no earlier than the clock after the faults.
        let new_plan = h.db().current_plan("Create").unwrap();
        assert!(new_plan.planned_start().days() >= report.finished_at().days() - 1e-9);
    }

    #[test]
    fn repaired_tool_unblocks_on_reexecution() {
        let mut h = manager(42);
        h.plan("performance").unwrap();
        h.set_fault_plan(FaultPlan::breaking_tool("netlist_editor"));
        let degraded = h.execute("performance").unwrap();
        assert!(h.is_blocked("Create"));
        assert!(degraded.is_degraded());
        // The operator repairs the tool and retries.
        h.set_fault_plan(FaultPlan::none());
        let report = h.execute("performance").unwrap();
        assert!(report.all_converged());
        assert!(!h.is_blocked("Create"));
        assert!(h.blocked_activities().is_empty());
        assert!(h.db().current_plan("Create").unwrap().is_complete());
        assert!(h.db().current_plan("Simulate").unwrap().is_complete());
    }

    #[test]
    fn mid_flow_block_keeps_independent_branches_running() {
        // Break the synthesizer in the ASIC flow: the RTL branch
        // (CaptureSpec, WriteRtl, VerifyRtl) still executes; the
        // physical branch is skipped transitively.
        let mut h = Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(3),
            11,
        );
        h.plan("signoff_report").unwrap();
        h.set_fault_plan(FaultPlan::breaking_tool("synthesizer"));
        let report = h.execute("signoff_report").unwrap();
        for done in ["CaptureSpec", "WriteRtl", "VerifyRtl"] {
            assert!(report.activity(done).is_some(), "{done} should run");
            assert!(h.db().current_plan(done).unwrap().is_complete());
        }
        assert!(report.blocked_activity("Synthesize").is_some());
        for skip in ["Floorplan", "Place", "Cts", "Route", "Signoff"] {
            assert!(
                report.skipped().contains(&skip.to_owned()),
                "{skip} should be skipped"
            );
        }
        // Degraded replan reversions the open scope only.
        assert!(!report.replanned().is_empty());
        assert!(report
            .replanned()
            .iter()
            .all(|(n, _)| n != "CaptureSpec" && n != "WriteRtl" && n != "VerifyRtl"));
    }

    #[test]
    fn transient_faults_retry_and_still_converge() {
        // A transient-only plan: execution absorbs the crashes via the
        // retry policy and still completes, just later.
        let baseline = {
            let mut h = manager(5);
            h.plan("performance").unwrap();
            h.execute("performance").unwrap().finished_at()
        };
        // Find a fault seed that actually fires at least one fault.
        let fired = (0..200u64)
            .find_map(|fs| {
                let mut h = manager(5);
                h.plan("performance").unwrap();
                h.set_fault_plan(
                    FaultPlan::seeded(fs)
                        .with_persistent_rate(0.0)
                        .with_corrupt_rate(0.0)
                        .with_hang_rate(0.0),
                );
                let r = h.execute("performance").unwrap();
                (r.total_fault_attempts() > 0 && !r.is_degraded()).then_some((h, r))
            })
            .expect("some fault seed fires a transient");
        let (h, report) = fired;
        assert!(report.all_converged());
        assert!(h.blocked_activities().is_empty());
        // The faults cost simulated time.
        assert!(report.finished_at().days() > baseline.days());
        let burned: f64 = report
            .activities()
            .iter()
            .map(|a| a.fault_time.days())
            .sum();
        assert!(burned > 0.0);
    }

    #[test]
    fn faulted_execution_is_deterministic() {
        let run = || {
            let mut h = manager(9);
            h.plan("performance").unwrap();
            h.set_fault_plan(FaultPlan::seeded(3));
            h.execute("performance").unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corrupt_output_costs_an_iteration() {
        // Force corruption on every attempt of the netlist editor's
        // first iterations: runs are recorded (audit trail) but never
        // converge until... they never converge cleanly, so use a rate
        // that eventually lets a clean run through.
        let fired = (0..400u64).find_map(|fs| {
            let mut h = manager(5);
            h.set_fault_plan(
                FaultPlan::seeded(fs)
                    .with_persistent_rate(0.0)
                    .with_transient_rate(0.0)
                    .with_hang_rate(0.0)
                    .with_corrupt_rate(0.35),
            );
            let r = h.execute("netlist").unwrap();
            let clean = {
                let mut h2 = manager(5);
                h2.execute("netlist").unwrap()
            };
            let exec = r.activity("Create").unwrap().clone();
            let clean_exec = clean.activity("Create").unwrap().clone();
            (exec.iterations > clean_exec.iterations).then_some((h, exec))
        });
        let (h, exec) = fired.expect("some seed corrupts a run");
        assert!(exec.converged);
        // Every iteration, corrupt or clean, left a versioned instance.
        assert_eq!(
            h.db().entity_container("netlist").unwrap().len() as u32,
            exec.iterations
        );
    }

    #[test]
    fn asic_flow_executes_end_to_end() {
        let mut h = Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(3),
            11,
        );
        h.plan("signoff_report").unwrap();
        let report = h.execute("signoff_report").unwrap();
        assert_eq!(report.activities().len(), 9);
        assert!(report.all_converged());
        assert_eq!(h.db().completed_activities().len(), 9);
    }

    /// Differential pin: the policy engine under the default Fifo
    /// policy on the implicit cluster must reproduce the serial
    /// reference executor exactly — report, database, and clock — for
    /// clean, faulted, degraded, and unplanned sessions alike.
    #[test]
    fn default_execute_matches_serial_reference_differentially() {
        let scenarios: Vec<(&str, Hercules, &str)> = vec![
            (
                "circuit clean",
                {
                    let mut h = manager(42);
                    h.plan("performance").unwrap();
                    h
                },
                "performance",
            ),
            (
                "circuit faulted",
                {
                    let mut h = manager(9);
                    h.plan("performance").unwrap();
                    h.set_fault_plan(FaultPlan::seeded(3));
                    h
                },
                "performance",
            ),
            (
                "asic degraded",
                {
                    let mut h = Hercules::new(
                        examples::asic_flow(),
                        ToolLibrary::standard(),
                        Team::of_size(3),
                        11,
                    );
                    h.plan("signoff_report").unwrap();
                    h.set_fault_plan(FaultPlan::breaking_tool("synthesizer"));
                    h
                },
                "signoff_report",
            ),
            (
                "asic unplanned",
                {
                    Hercules::new(
                        examples::asic_flow(),
                        ToolLibrary::standard(),
                        Team::of_size(3),
                        5,
                    )
                },
                "signoff_report",
            ),
            (
                "pipeline faulted",
                {
                    let mut h = Hercules::new(
                        examples::pipeline(5),
                        ToolLibrary::standard(),
                        Team::of_size(2),
                        2,
                    );
                    h.plan("d5").unwrap();
                    h.set_fault_plan(FaultPlan::seeded(17).with_persistent_rate(0.25));
                    h
                },
                "d5",
            ),
        ];
        for (label, h, target) in scenarios {
            let mut engine = h.clone();
            let mut serial = h;
            let re = engine.execute(target).unwrap();
            let rs = serial.execute_serial_reference(target).unwrap();
            assert_eq!(re, rs, "{label}: reports diverge");
            assert_eq!(
                engine.db().dump(),
                serial.db().dump(),
                "{label}: databases diverge"
            );
            assert_eq!(engine.clock(), serial.clock(), "{label}: clocks diverge");
            assert_eq!(
                engine.blocked_activities(),
                serial.blocked_activities(),
                "{label}: blocked sets diverge"
            );
        }
    }

    /// The acceptance pin: Fifo on a single explicit full-speed worker
    /// reproduces the pre-refactor serial executor byte-identically.
    #[test]
    fn fifo_on_one_explicit_worker_matches_serial() {
        let build = || {
            let mut h = Hercules::new(
                examples::asic_flow(),
                ToolLibrary::standard(),
                Team::of_size(1),
                11,
            );
            h.plan("signoff_report").unwrap();
            h.set_fault_plan(FaultPlan::seeded(8).with_persistent_rate(0.2));
            h
        };
        let mut engine = build();
        let cluster = simtools::cluster::Cluster::uniform(1);
        let re = engine
            .execute_with(
                "signoff_report",
                crate::policy::ExecutionPolicy::Fifo,
                Some(&cluster),
            )
            .unwrap();
        let mut serial = build();
        let rs = serial.execute_serial_reference("signoff_report").unwrap();
        assert_eq!(re, rs);
        assert_eq!(engine.db().dump(), serial.db().dump());
    }

    /// Regression for the positional-assignee bug: the fallback
    /// assignment now keys on the activity's name, so the same activity
    /// lands on the same designer whatever scope (tree position) it is
    /// executed under.
    #[test]
    fn fallback_assignee_is_stable_across_scopes() {
        let build = || {
            Hercules::new(
                examples::asic_flow(),
                ToolLibrary::standard(),
                Team::of_size(3),
                11,
            )
        };
        // No plans anywhere: every assignee comes from the fallback.
        let mut narrow = build();
        let narrow_report = narrow.execute("netlist").unwrap();
        let mut wide = build();
        let wide_report = wide.execute("signoff_report").unwrap();
        for exec in narrow_report.activities() {
            assert_eq!(
                exec.assignee,
                narrow.team().assignee_for(&exec.activity),
                "{} not on its stable designer",
                exec.activity
            );
            let same = wide_report.activity(&exec.activity).unwrap();
            assert_eq!(
                exec.assignee, same.assignee,
                "{} shifted designers between scopes",
                exec.activity
            );
        }
    }

    /// Every built-in policy executes, blocks, and skips the same
    /// activity set on uniform-speed substrates (fault outcomes are
    /// per-activity and speed-independent there), and each is
    /// deterministic.
    #[test]
    fn all_policies_agree_on_outcome_sets() {
        use std::collections::BTreeSet;
        let build = || {
            let mut h = Hercules::new(
                examples::asic_flow(),
                ToolLibrary::standard(),
                Team::of_size(3),
                11,
            );
            h.plan("signoff_report").unwrap();
            h.set_fault_plan(FaultPlan::seeded(8).with_persistent_rate(0.25));
            h
        };
        let outcome = |r: &ExecutionReport| {
            (
                r.activities()
                    .iter()
                    .map(|a| a.activity.clone())
                    .collect::<BTreeSet<_>>(),
                r.blocked()
                    .iter()
                    .map(|b| b.activity.clone())
                    .collect::<BTreeSet<_>>(),
                r.skipped().iter().cloned().collect::<BTreeSet<_>>(),
            )
        };
        let mut reference = None;
        for policy in crate::policy::ExecutionPolicy::ALL {
            let run = |cluster: Option<&simtools::cluster::Cluster>| {
                let mut h = build();
                let r = h.execute_with("signoff_report", policy, cluster).unwrap();
                outcome(&r)
            };
            // Implicit substrate and an explicit uniform cluster are
            // both uniform-speed: same outcome sets.
            let implicit = run(None);
            assert_eq!(implicit, run(None), "{policy} is not deterministic");
            let uniform = simtools::cluster::Cluster::uniform(4);
            assert_eq!(
                implicit,
                run(Some(&uniform)),
                "{policy} outcome differs on an explicit uniform cluster"
            );
            match &reference {
                None => reference = Some(implicit),
                Some(expected) => {
                    assert_eq!(expected, &implicit, "{policy} outcome set diverges")
                }
            }
        }
    }

    /// Heterogeneous clusters with a network profile run every policy
    /// to completion, deterministically, and actually change timing
    /// relative to the implicit substrate.
    #[test]
    fn heterogeneous_cluster_execution_is_deterministic() {
        let build = || {
            let mut h = Hercules::new(
                examples::layered(3, 3, 2),
                ToolLibrary::standard(),
                Team::of_size(3),
                7,
            );
            h.plan("merged").unwrap();
            h
        };
        let cluster = simtools::cluster::Cluster::heterogeneous(4, 21).with_network(0.02, 0.01);
        let baseline = build().execute("merged").unwrap();
        for policy in crate::policy::ExecutionPolicy::ALL {
            let run = || {
                let mut h = build();
                h.set_execution_policy(policy);
                h.set_cluster(cluster.clone());
                h.execute("merged").unwrap()
            };
            let a = run();
            assert_eq!(a, run(), "{policy} not deterministic on the cluster");
            assert!(a.all_converged(), "{policy} failed to converge");
            assert_eq!(a.activities().len(), baseline.activities().len());
            assert_ne!(
                a.finished_at(),
                baseline.finished_at(),
                "{policy}: heterogeneous speeds should perturb the makespan"
            );
        }
    }
}
