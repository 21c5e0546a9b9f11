//! The policy-driven execution engine.
//!
//! [`Hercules::execute`](crate::Hercules::execute) and its variants all
//! funnel into [`Hercules::run_policy_engine`]: an event-driven
//! ready-queue dispatcher that replaces the original single linear
//! topo-order pass. Activities are *admitted* to the ready queue when
//! every input entity has been published; a
//! [`SchedulingPolicy`](crate::policy::SchedulingPolicy) picks which
//! ready activity dispatches next and — on an explicit
//! [`Cluster`](simtools::cluster::Cluster) — onto which worker; the
//! engine then runs the activity's full iterate/retry loop at that
//! worker's speed, exactly as the serial executor did.
//!
//! Invariants the engine preserves from the serial executor, for every
//! policy:
//!
//! * **Blocked never aborts** — exhausting the retry policy degrades
//!   the session (blocked + skipped + degraded replan), never errors.
//! * **Skip-downstream** — a blocked or skipped activity dooms its
//!   transitive consumers; they are reported skipped, in dependency
//!   order, interleaved with dispatches exactly as the serial scan
//!   reported them.
//! * **Retry/timeout/budget accounting** — the per-activity fault loop
//!   is the serial code verbatim (worker speed scales run durations;
//!   timeouts and backoffs are wall-clock and stay unscaled).
//! * **Replay ≡ live** — every store mutation is a pure function of
//!   the (seed, policy, cluster) triple, so journal replay reproduces
//!   the live database.
//!
//! With the default [`Fifo`](crate::policy::Fifo) policy and no
//! explicit cluster, dispatch order provably equals the task tree's
//! dependency order and every simulated date is computed by the same
//! float operations, so the engine reproduces the serial executor's
//! [`ExecutionReport`], store mutations, and trace byte-for-byte (the
//! differential test in [`crate::execute`] pins this).

use std::collections::{BTreeSet, HashMap, HashSet};

use metadata::EntityInstanceId;
use schedule::WorkDays;
use simtools::cluster::Cluster;
use simtools::{InjectedFault, ToolInvocation};

use crate::error::HerculesError;
use crate::execute::{ActivityExecution, BlockedActivity, ExecutionReport, ITERATION_CAP};
use crate::manager::Hercules;
use crate::policy::{DispatchContext, ReadyTask, SchedulingPolicy, WorkerSnapshot};

impl Hercules {
    /// Executes `target` through the ready-queue engine under `policy`.
    ///
    /// `cluster = None` runs in *implicit* mode: one full-speed worker
    /// per designer, each activity bound to its assignee's worker —
    /// the exact resource model of the original serial executor. An
    /// explicit cluster drops the designer binding (the assignee is
    /// still recorded) and lets the policy place every activity on any
    /// worker, with durations scaled by worker speed and entity
    /// hand-off charged by the cluster's network profile.
    pub(crate) fn run_policy_engine(
        &mut self,
        target: &str,
        policy: &mut dyn SchedulingPolicy,
        cluster: Option<&Cluster>,
    ) -> Result<ExecutionReport, HerculesError> {
        obs::Collector::set_sim_days(self.clock.days());
        let mut exec_span = obs::span!("hercules.execute", target = target);
        let tree = self.task_tree(target)?;
        // Supply primary inputs up front.
        for class in tree.primary_inputs() {
            let designer = self.team.designer(0).to_owned();
            self.supply_primary_input(class, &designer)?;
        }
        // data_ready: class -> (time available, instance).
        let mut data_ready = self.seed_data_ready(&tree);
        // Which worker published each class this session (`None` /
        // absent = shared storage: supplied inputs, prior sessions).
        let mut produced_on: HashMap<String, usize> = HashMap::new();

        let names = tree.activities();
        let n = names.len();
        // Position-indexed views over the scope: the hot dispatch loop
        // never re-resolves producers/consumers through string-keyed
        // tree lookups (the engine-overhead half of the B17
        // `exec_policies` gate holds default execution to the serial
        // executor's wall-clock). The consumer adjacency itself is
        // precomputed by [`TaskTree::extract`].
        let inputs_idx: Vec<&[String]> = (0..n).map(|i| tree.inputs_at(i)).collect();
        let output_idx: Vec<&str> = (0..n).map(|i| tree.output_at(i)).collect();
        let done = self.completed_mask(&tree);
        // Dispatch-time estimates feed the policy inputs (slack, ranks,
        // finish estimates); completed work is a zero-duration
        // milestone, as in forecasting. Policies that decide purely
        // from topology and queue state (Fifo, WorkStealing) skip this
        // whole pass — the CPM analysis is the engine's one
        // non-trivial fixed cost, and the `exec_policies` bench gate
        // holds default execution to the serial executor's wall-clock.
        let mut estimate = vec![WorkDays::ZERO; n];
        let mut slack = vec![WorkDays::ZERO; n];
        let mut rank = vec![WorkDays::ZERO; n];
        if policy.needs_schedule_metrics() {
            self.sync_estimates();
            for (i, a) in names.iter().enumerate() {
                if !done[i] {
                    estimate[i] = self.estimate_at(tree.rule_position_at(i), a, &mut 0)?;
                }
            }
            // Total slack over the scope (CPM), indexed by topo
            // position.
            let scope: Vec<usize> = (0..n).collect();
            slack = tree.network(&scope, &estimate)?.0.analyze()?.total_slacks();
            // Upward rank: critical-path length from each activity to
            // the scope's sink, inclusive (HEFT's priority key).
            for i in (0..n).rev() {
                let mut best = WorkDays::ZERO;
                for &j in tree.consumers_at(i) {
                    best = best.max(rank[j]);
                }
                rank[i] = estimate[i] + best;
            }
        }
        // Assignees: the plan's designer, else the stable name-hash
        // fallback (plans cannot change mid-execution, so computing
        // these up front matches the serial scan).
        let assignee_of: Vec<String> = names
            .iter()
            .map(|a| {
                self.db()
                    .current_plan(a)
                    .and_then(|p| p.assignees().first().map(|d| d.as_ref().to_owned()))
                    .unwrap_or_else(|| self.team.assignee_for(a).to_owned())
            })
            .collect();

        // The worker pool. Implicit mode: one full-speed worker per
        // designer (plan assignees outside the team get their own slot,
        // like the serial executor's designer_free map).
        let implicit = cluster.is_none();
        let (mut worker_speed, mut worker_free): (Vec<f64>, Vec<WorkDays>) = match cluster {
            Some(c) => (
                (0..c.len()).map(|i| c.speed(i)).collect(),
                vec![self.clock; c.len()],
            ),
            None => (
                vec![1.0; self.team.len()],
                vec![self.clock; self.team.len()],
            ),
        };
        let home_of: Vec<Option<usize>> = if implicit {
            let mut slots: Vec<String> = self.team.iter().map(str::to_owned).collect();
            names
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    if done[i] {
                        return None;
                    }
                    let a = &assignee_of[i];
                    let w = slots.iter().position(|s| s == a).unwrap_or_else(|| {
                        slots.push(a.clone());
                        worker_speed.push(1.0);
                        worker_free.push(self.clock);
                        slots.len() - 1
                    });
                    Some(w)
                })
                .collect()
        } else {
            vec![None; n]
        };

        // Admission bookkeeping: per activity, the input classes not
        // yet published, plus the running max of its published inputs'
        // availability times (so admission is O(1) — no re-walk of the
        // data_ready map when the last input lands). Classes that can
        // never be published (their producer blocked, was skipped, or
        // completed without a linked result) are *dead*; activities
        // with a dead input are *doomed* and reported skipped, in
        // dependency order, transitively.
        let mut avail: Vec<WorkDays> = vec![self.clock; n];
        let mut missing: Vec<Vec<&str>> = Vec::with_capacity(n);
        for (i, ins) in inputs_idx.iter().enumerate() {
            let mut not_ready = Vec::new();
            for class in ins.iter() {
                match data_ready.get(class.as_str()) {
                    Some(&(at, _)) => avail[i] = avail[i].max(at),
                    None => not_ready.push(class.as_str()),
                }
            }
            missing.push(not_ready);
        }
        let mut dispatched = vec![false; n];
        let mut dead: HashSet<String> = HashSet::new();
        let mut doomed: BTreeSet<usize> = BTreeSet::new();
        let doom_from = |worklist: &mut Vec<String>,
                         dead: &mut HashSet<String>,
                         doomed: &mut BTreeSet<usize>,
                         dispatched: &[bool]| {
            while let Some(cls) = worklist.pop() {
                if !dead.insert(cls.clone()) {
                    continue;
                }
                for j in 0..n {
                    if done[j] || dispatched[j] || doomed.contains(&j) {
                        continue;
                    }
                    if inputs_idx[j].contains(&cls) {
                        doomed.insert(j);
                        worklist.push(output_idx[j].to_owned());
                    }
                }
            }
        };
        // Completed activities whose result never got linked leave
        // their output class permanently missing.
        let mut initial_dead: Vec<String> = (0..n)
            .filter(|&i| done[i] && !data_ready.contains_key(output_idx[i]))
            .map(|i| output_idx[i].to_owned())
            .collect();
        doom_from(&mut initial_dead, &mut dead, &mut doomed, &dispatched);

        let admit = |i: usize,
                     ready_at: WorkDays,
                     data_ready: &HashMap<String, (WorkDays, EntityInstanceId)>,
                     produced_on: &HashMap<String, usize>,
                     h: &Hercules|
         -> ReadyTask<'_> {
            let mut input_bytes = 0u64;
            let mut inputs = Vec::new();
            // Data locality only means something on an explicit
            // cluster; the implicit substrate is shared team storage,
            // so skip the byte accounting there.
            if !implicit {
                for class in inputs_idx[i] {
                    let &(_, inst) = data_ready.get(class).expect("admitted with all inputs");
                    let bytes = h
                        .db()
                        .data_object(h.db().entity_instance(inst).data())
                        .size() as u64;
                    input_bytes += bytes;
                    inputs.push((produced_on.get(class).copied(), bytes));
                }
            }
            ReadyTask {
                activity: &names[i],
                topo_index: i,
                estimate: estimate[i],
                slack: slack[i],
                rank: rank[i],
                ready_at,
                input_bytes,
                inputs,
                home_worker: home_of[i],
            }
        };
        let mut ready: Vec<ReadyTask<'_>> = Vec::new();
        for i in 0..n {
            if !done[i] && missing[i].is_empty() && !doomed.contains(&i) {
                ready.push(admit(i, avail[i], &data_ready, &produced_on, self));
            }
        }

        let injector = self.fault_injector.clone();
        let retry = self.retry_policy;
        let mut executions = Vec::new();
        let mut blocked_rows: Vec<BlockedActivity> = Vec::new();
        let mut skipped: Vec<String> = Vec::new();
        let mut newly_blocked: Vec<(String, WorkDays)> = Vec::new();
        let mut finished_at = self.clock;
        let mut snaps: Vec<WorkerSnapshot> = Vec::with_capacity(worker_free.len());

        while !ready.is_empty() {
            // Ask the policy which ready activity dispatches next.
            let choice = {
                snaps.clear();
                snaps.extend(
                    worker_free
                        .iter()
                        .zip(&worker_speed)
                        .map(|(&free_at, &speed)| WorkerSnapshot { free_at, speed }),
                );
                let transfer = |from: Option<usize>, to: usize, bytes: u64| -> f64 {
                    cluster.map_or(0.0, |c| c.transfer_delay(from, to, bytes))
                };
                let ctx = DispatchContext::new(&ready, &snaps, self.clock, &transfer);
                let d = policy.select(&ctx);
                assert!(
                    d.task < ready.len() && d.worker < worker_free.len(),
                    "policy {:?} returned invalid dispatch {:?}",
                    policy.name(),
                    d,
                );
                d
            };
            let task = ready.remove(choice.task);
            let i = task.topo_index;
            // Skipped activities report in dependency order, woven
            // between dispatches exactly as the serial scan wove them:
            // everything doomed before this dispatch's position flushes
            // first.
            while let Some(&j) = doomed.first() {
                if j >= i {
                    break;
                }
                doomed.remove(&j);
                obs::event!("execute.skipped", activity = names[j].as_str());
                skipped.push(names[j].clone());
            }
            dispatched[i] = true;
            let activity = &names[i];
            let assignee = assignee_of[i].clone();
            // A home binding (implicit mode) overrides the policy's
            // worker choice — one activity at a time per designer.
            let w = task.home_worker.unwrap_or(choice.worker);
            let speed = worker_speed[w];

            // Gather inputs in declaration order; under an explicit
            // networked cluster, remote entities arrive after their
            // seeded transfer delay.
            let mut ready_at = self.clock;
            let mut inputs: Vec<EntityInstanceId> = Vec::new();
            let mut input_bytes = 0u64;
            for class in inputs_idx[i] {
                let &(at, inst) = data_ready.get(class).expect("ready with all inputs");
                let bytes = self
                    .db()
                    .data_object(self.store.db().entity_instance(inst).data())
                    .size() as u64;
                let mut avail = at;
                if let Some(c) = cluster {
                    let delay = c.transfer_delay(produced_on.get(class).copied(), w, bytes);
                    if delay > 0.0 {
                        avail = at + WorkDays::new(delay);
                    }
                }
                ready_at = ready_at.max(avail);
                input_bytes += bytes;
                inputs.push(inst);
            }
            let start = ready_at.max(worker_free[w]);
            obs::Collector::set_sim_days(start.days());
            let mut act_span = obs::span!(
                "execute.activity",
                activity = activity.as_str(),
                assignee = assignee.as_str(),
            );

            // Iterate runs until convergence, absorbing injected faults
            // through the retry policy — the serial executor's loop,
            // with run durations scaled by the worker's speed (timeouts
            // and backoffs are wall-clock and stay unscaled).
            let rule = self
                .schema
                .rule(activity)
                .ok_or_else(|| HerculesError::UnknownActivity(activity.to_owned()))?;
            let tool_name = rule.tool().to_owned();
            let output_class = output_idx[i].to_owned();
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
                        let end = t + WorkDays::new(attempted.outcome.duration_days / speed);
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
                        let burned =
                            WorkDays::new((attempted.outcome.duration_days / speed) * frac)
                                + retry.backoff(attempts);
                        fault_time += burned;
                        t += burned;
                        obs::Collector::set_sim_days(t.days());
                        obs::event!(
                            "execute.retry",
                            activity = activity.as_str(),
                            attempt = attempts,
                            burned_days = burned.days(),
                        );
                        if attempts >= retry.max_attempts || fault_time > retry.activity_budget {
                            blocked = true;
                            break;
                        }
                    }
                    // The run hung: kill it at the timeout, backoff,
                    // retry.
                    Some(InjectedFault::Hang) => {
                        attempts += 1;
                        let burned = retry.timeout + retry.backoff(attempts);
                        fault_time += burned;
                        t += burned;
                        obs::Collector::set_sim_days(t.days());
                        obs::event!(
                            "execute.timeout",
                            activity = activity.as_str(),
                            attempt = attempts,
                            burned_days = burned.days(),
                        );
                        if attempts >= retry.max_attempts || fault_time > retry.activity_budget {
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
                    assignee,
                    attempts,
                    fault_time,
                    runs_recorded: iterations,
                });
                worker_free[w] = t;
                finished_at = finished_at.max(t);
                // The output will never be published: doom the
                // transitive consumers.
                let mut worklist = vec![output_class];
                doom_from(&mut worklist, &mut dead, &mut doomed, &dispatched);
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
            data_ready.insert(output_class.clone(), (t, final_instance));
            if !implicit {
                produced_on.insert(output_class.clone(), w);
            }
            worker_free[w] = t;
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
            // Publishing the output may admit consumers.
            for &j in tree.consumers_at(i) {
                if done[j] || dispatched[j] || doomed.contains(&j) {
                    continue;
                }
                missing[j].retain(|cls| *cls != output_class.as_str());
                avail[j] = avail[j].max(t);
                if missing[j].is_empty() && !ready.iter().any(|r| r.topo_index == j) {
                    ready.push(admit(j, avail[j], &data_ready, &produced_on, self));
                }
            }
        }
        // Drain: whatever is still doomed reports skipped last, in
        // dependency order.
        for &j in &doomed {
            obs::event!("execute.skipped", activity = names[j].as_str());
            skipped.push(names[j].clone());
        }
        debug_assert!(
            (0..n).all(|i| done[i] || dispatched[i] || doomed.contains(&i)),
            "every activity must be completed, dispatched, or skipped"
        );

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
