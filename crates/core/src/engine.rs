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

use std::collections::{BTreeSet, HashMap};

use metadata::EntityInstanceId;
use schedule::WorkDays;
use simtools::cluster::Cluster;
use simtools::{InjectedFault, ToolInvocation};

use crate::error::HerculesError;
use crate::execute::{ActivityExecution, BlockedActivity, ExecutionReport, ITERATION_CAP};
use crate::manager::Hercules;
use crate::policy::{DispatchContext, ReadyTask, SchedulingPolicy, WorkerSnapshot};
use crate::retry;

/// What one activity step left: the time it reached, its runs and
/// failed attempts, the time faults burned, and its final instance —
/// `None` when the retry policy gave up and the activity is blocked.
struct Step {
    t: WorkDays,
    iterations: u32,
    attempts: u32,
    fault_time: WorkDays,
    completed: Option<EntityInstanceId>,
}

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
        obs::Collector::set_sim_md(self.clock.millidays());
        let mut exec_span = obs::span!("hercules.execute", target = target);
        let tree = self.task_tree(target)?;
        // Supply primary inputs up front, as one write group.
        self.supply_primary_inputs(&tree)?;
        // data_ready: class -> (time available, instance).
        let mut data_ready = self.seed_data_ready(&tree);
        // Which worker published each class this session (`None` /
        // absent = shared storage: supplied inputs, prior sessions).
        let mut produced_on: HashMap<String, usize> = HashMap::new();

        // The dispatch loop reads the scope by tree position (inputs,
        // output, consumers), never through string-keyed tree lookups.
        let names = tree.activities();
        let n = names.len();
        let (done, _) = self.open_scope(&tree);
        // Estimates, slack and upward ranks come from the open work's
        // proposal, the one planning reads. Fifo and WorkStealing skip
        // it: the `exec_policies` gate holds default execution to serial.
        let mut metrics = vec![(WorkDays::ZERO, WorkDays::ZERO, WorkDays::ZERO); n];
        if policy.needs_schedule_metrics() {
            self.sync_estimates();
            let open = self.open_work(target)?;
            let estimates = open.in_scope.iter().zip(&open.durations);
            for ((&i, &d), (s, r)) in estimates.zip(self.slack_and_rank(&open)?) {
                metrics[i] = (d, s, r);
            }
        }
        // Assignees: the plan's designer, else the designer planning
        // would give (plans cannot change mid-execution, so computing
        // these up front matches the serial scan).
        let assignee_of: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, a)| {
                self.db()
                    .current_plan(a)
                    .and_then(|p| p.assignees().first().map(|d| d.as_ref().to_owned()))
                    .unwrap_or_else(|| tree.assignee_at(i, &self.team).to_owned())
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
        // data_ready map when the last input lands). An activity whose
        // producer blocked, was doomed, or completed without a linked
        // result can never run: it is *doomed* and reported skipped, in
        // dependency order, and so are its consumers, transitively.
        let mut avail: Vec<WorkDays> = vec![self.clock; n];
        let mut missing: Vec<Vec<&str>> = Vec::with_capacity(n);
        for (i, ready_at) in avail.iter_mut().enumerate() {
            let mut not_ready = Vec::new();
            for class in tree.inputs_at(i) {
                match data_ready.get(class.as_str()) {
                    Some(&(at, _)) => *ready_at = (*ready_at).max(at),
                    None => not_ready.push(class.as_str()),
                }
            }
            missing.push(not_ready);
        }
        let mut dispatched = vec![false; n];
        // Doomed activities not yet reported skipped, in position
        // order, and every activity ever doomed.
        let mut doomed: BTreeSet<usize> = BTreeSet::new();
        let mut is_doomed = vec![false; n];
        // Dooms the open consumers of the activity at `producer`,
        // whose output will never be published, transitively.
        let doom_from = |producer: usize,
                         doomed: &mut BTreeSet<usize>,
                         is_doomed: &mut [bool],
                         dispatched: &[bool]| {
            let mut worklist = vec![producer];
            while let Some(p) = worklist.pop() {
                for &j in tree.consumers_at(p) {
                    if done[j] || dispatched[j] || is_doomed[j] {
                        continue;
                    }
                    is_doomed[j] = true;
                    doomed.insert(j);
                    worklist.push(j);
                }
            }
        };
        // Completed activities whose result never got linked leave
        // their output class permanently missing.
        for i in (0..n).filter(|&i| done[i] && !data_ready.contains_key(tree.output_at(i))) {
            doom_from(i, &mut doomed, &mut is_doomed, &dispatched);
        }

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
                for class in tree.inputs_at(i) {
                    let &(_, inst) = data_ready.get(class).expect("admitted with all inputs");
                    let bytes = h
                        .db()
                        .data_object(h.db().entity_instance(inst).data())
                        .size() as u64;
                    input_bytes += bytes;
                    inputs.push((produced_on.get(class).copied(), bytes));
                }
            }
            let (estimate, slack, rank) = metrics[i];
            ReadyTask {
                activity: &names[i],
                topo_index: i,
                estimate,
                slack,
                rank,
                ready_at,
                input_bytes,
                inputs,
                home_worker: home_of[i],
            }
        };
        let mut ready: Vec<ReadyTask<'_>> = Vec::new();
        for i in 0..n {
            if !done[i] && missing[i].is_empty() && !is_doomed[i] {
                ready.push(admit(i, avail[i], &data_ready, &produced_on, self));
            }
        }

        let injector = self.fault_injector.clone();
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
            for class in tree.inputs_at(i) {
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
            obs::Collector::set_sim_md(start.millidays());
            let mut act_span = obs::span!(
                "execute.activity",
                activity = activity.as_str(),
                assignee = assignee.as_str(),
            );

            let rule = self
                .schema
                .rule(activity)
                .ok_or_else(|| HerculesError::UnknownActivity(activity.to_owned()))?;
            let tool_name = rule.tool().to_owned();
            let output_class = tree.output_at(i).to_owned();
            // The activity's step — its runs and, once it converges, its
            // completion link — reaches the store as one write group.
            let step = self.in_write_group(|h| {
                // Iterate runs until convergence, absorbing injected
                // faults through the retry policy — the serial
                // executor's loop, with run durations scaled by the
                // worker's speed (timeouts and backoffs are wall-clock
                // and stay unscaled).
                let mut t = start;
                let mut iterations = 0u32;
                let mut attempts = 0u32;
                let mut fault_time = WorkDays::ZERO;
                let mut converged = false;
                let mut blocked = false;
                let mut final_instance = None;
                let prior_runs = h.store.db().run_count_of(activity) as u32;
                while iterations < ITERATION_CAP {
                    let req = ToolInvocation {
                        input_bytes,
                        iteration: prior_runs + iterations + 1,
                        seed: h.seed,
                    };
                    let attempted =
                        h.tools
                            .invoke_with_faults(&tool_name, &req, &injector, attempts + 1);
                    match attempted.fault {
                        // A clean run, or one whose output was silently
                        // corrupted: both finish and leave auditable
                        // metadata; only the clean one can converge.
                        None | Some(InjectedFault::CorruptOutput) => {
                            iterations += 1;
                            let run = h.store.begin_run(activity, &assignee, t)?;
                            let end = t + WorkDays::new(attempted.outcome.duration_days / speed);
                            let data = h.store.store_data(
                                &format!("{output_class}.v{}", prior_runs + iterations),
                                attempted.outcome.output,
                            );
                            let inst =
                                h.store.finish_run(run, &output_class, data, end, &inputs)?;
                            t = end;
                            obs::Collector::set_sim_md(t.millidays());
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
                        // The run died partway: charge the elapsed
                        // fraction plus backoff, then retry (no metadata
                        // recorded — the tool never finished).
                        Some(InjectedFault::Transient) => {
                            attempts += 1;
                            let frac = injector.crash_fraction(&tool_name, &req, attempts);
                            let burned =
                                WorkDays::new((attempted.outcome.duration_days / speed) * frac)
                                    + retry::backoff(attempts);
                            fault_time += burned;
                            t += burned;
                            obs::Collector::set_sim_md(t.millidays());
                            obs::event!(
                                "execute.retry",
                                activity = activity.as_str(),
                                attempt = attempts,
                                burned_days = burned.days(),
                            );
                            if retry::exhausted(attempts, fault_time) {
                                blocked = true;
                                break;
                            }
                        }
                        // The run hung: kill it at the timeout, backoff,
                        // retry.
                        Some(InjectedFault::Hang) => {
                            attempts += 1;
                            let burned = retry::timeout() + retry::backoff(attempts);
                            fault_time += burned;
                            t += burned;
                            obs::Collector::set_sim_md(t.millidays());
                            obs::event!(
                                "execute.timeout",
                                activity = activity.as_str(),
                                attempt = attempts,
                                burned_days = burned.days(),
                            );
                            if retry::exhausted(attempts, fault_time) {
                                blocked = true;
                                break;
                            }
                        }
                    }
                }
                let step = Step {
                    t,
                    iterations,
                    attempts,
                    fault_time,
                    completed: None,
                };
                if blocked {
                    return Ok(step);
                }
                let final_instance = match final_instance {
                    Some(inst) if converged => inst,
                    // The loop can only exit unconverged-and-unblocked
                    // by exhausting the iteration cap.
                    _ => {
                        return Err(HerculesError::IterationLimit {
                            activity: activity.clone(),
                            cap: ITERATION_CAP,
                        })
                    }
                };
                // Designer declares completion: link plan to final
                // result.
                if let Some(plan) = h.store.db().current_plan(activity) {
                    let sc = plan.id();
                    h.store.link_completion(sc, final_instance)?;
                }
                Ok(Step {
                    completed: Some(final_instance),
                    ..step
                })
            })?;
            let Step {
                t,
                iterations,
                attempts,
                fault_time,
                completed,
            } = step;
            let Some(final_instance) = completed else {
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
                doom_from(i, &mut doomed, &mut is_doomed, &dispatched);
                continue;
            };
            // The activity recovered (or never faulted): it is not
            // blocked, whatever earlier sessions concluded.
            self.blocked.remove(activity);
            data_ready.insert(output_class.clone(), (t, final_instance));
            if !implicit {
                produced_on.insert(output_class.clone(), w);
            }
            worker_free[w] = t;
            finished_at = finished_at.max(t);
            obs::Collector::set_sim_md(t.millidays());
            act_span.record("iterations", iterations);
            act_span.record("fault_attempts", attempts);
            act_span.record("converged", true);
            executions.push(ActivityExecution {
                activity: activity.clone(),
                assignee,
                started: start,
                finished: t,
                iterations,
                converged: true,
                final_instance,
                fault_attempts: attempts,
                fault_time,
            });
            // Publishing the output may admit consumers.
            for &j in tree.consumers_at(i) {
                if done[j] || dispatched[j] || is_doomed[j] {
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
            (0..n).all(|i| done[i] || dispatched[i] || is_doomed[i]),
            "every activity must be completed, dispatched, or skipped"
        );

        self.clock = finished_at;
        let replanned = self.degrade(target, &tree, &newly_blocked)?;
        obs::Collector::set_sim_md(finished_at.millidays());
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
