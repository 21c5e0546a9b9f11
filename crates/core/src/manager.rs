use std::collections::{BTreeSet, HashMap};

use metadata::{ArenaStore, CompactionStats, EntityInstanceId, Journal, MetadataDb, Store};
use schedule::WorkDays;
use schema::TaskSchema;
use simtools::workload::{primary_input_data, Team};
use simtools::{FaultInjector, ToolLibrary};

use simtools::cluster::Cluster;

use crate::error::HerculesError;
use crate::plan::PlanningView;
use crate::policy::ExecutionPolicy;
use crate::retry::RetryPolicy;
use crate::task::TaskTree;

/// The integrated workflow manager: one object owning the task schema
/// (Level 1), the metadata storage engine (Levels 3–4), the tool
/// substrate, and the design team — so that planning, executing, and
/// tracking all read and write the *same* state.
///
/// Levels 3–4 live behind a [`Store`] handle: by default the in-memory
/// [`ArenaStore`], or a snapshot + journal-tail
/// [`metadata::PersistentStore`] adopted via
/// [`with_store`](Hercules::with_store) — the manager's code path is
/// identical either way.
///
/// See the [crate-level docs](crate) for the full walkthrough; the
/// type's methods follow the paper's procedure:
///
/// 1. [`Hercules::new`] — define the schema, initialise the database.
/// 2. [`Hercules::extract_task_tree`] — scope a task.
/// 3. [`Hercules::plan`](crate::Hercules::plan) — simulate execution,
///    creating schedule instances.
/// 4. [`Hercules::execute`](crate::Hercules::execute) — run the flow,
///    creating entity instances and completion links.
/// 5. [`Hercules::status`](crate::Hercules::status) /
///    [`Hercules::replan`](crate::Hercules::replan) — track and adapt.
#[derive(Debug, Clone)]
pub struct Hercules {
    pub(crate) schema: TaskSchema,
    pub(crate) store: Box<dyn Store>,
    pub(crate) tools: ToolLibrary,
    pub(crate) team: Team,
    pub(crate) seed: u64,
    pub(crate) clock: WorkDays,
    pub(crate) estimates: HashMap<String, WorkDays>,
    pub(crate) supplied: HashMap<String, EntityInstanceId>,
    /// What planning passes reuse: task trees, per-activity estimates
    /// and the per-target plan caches driving the incremental replan
    /// engine (see [`PlanningView`]).
    pub(crate) view: PlanningView,
    /// The fault policy layered over tool invocations during
    /// [`execute`](Hercules::execute). Defaults to no faults.
    pub(crate) fault_injector: FaultInjector,
    /// How execution reacts to injected faults: retries, backoff,
    /// timeouts, and the blocked-activity budget.
    pub(crate) retry_policy: RetryPolicy,
    /// Activities declared blocked after exhausting the retry policy.
    pub(crate) blocked: BTreeSet<String>,
    /// The scheduling policy [`execute`](Hercules::execute) dispatches
    /// under. Defaults to [`ExecutionPolicy::Fifo`], which on the
    /// default implicit cluster reproduces the serial executor.
    pub(crate) execution_policy: ExecutionPolicy,
    /// The simulated cluster execution dispatches onto. `None` (the
    /// default) is the implicit substrate: one full-speed worker per
    /// designer, activities bound to their assignee's worker.
    pub(crate) cluster: Option<Cluster>,
}

impl Hercules {
    /// Creates a manager for `schema`: the task database is initialised
    /// with one entity container per class and one schedule container
    /// per activity.
    ///
    /// `seed` controls all synthetic tool behaviour, making every run
    /// of a project reproducible.
    pub fn new(schema: TaskSchema, tools: ToolLibrary, team: Team, seed: u64) -> Self {
        let db = MetadataDb::for_schema(&schema);
        Self::with_store(schema, tools, team, seed, Box::new(ArenaStore::new(db)))
    }

    /// Creates a manager over an already-populated [`Store`] — e.g. a
    /// [`metadata::PersistentStore`] reopened from disk, or a project
    /// handle checked out of a
    /// [`Workspace`](crate::Workspace). The project clock and the
    /// primary-input registry are recomputed from the store's state, so
    /// a reopened project resumes exactly where it left off.
    ///
    /// The store must hold a database produced on the same `schema`;
    /// containers are not re-validated against it.
    pub fn with_store(
        schema: TaskSchema,
        tools: ToolLibrary,
        team: Team,
        seed: u64,
        store: Box<dyn Store>,
    ) -> Self {
        let view = PlanningView::new(schema.rules().len());
        let mut h = Hercules {
            schema,
            store,
            tools,
            team,
            seed,
            clock: WorkDays::ZERO,
            estimates: HashMap::new(),
            supplied: HashMap::new(),
            view,
            fault_injector: FaultInjector::none(),
            retry_policy: RetryPolicy::default(),
            blocked: BTreeSet::new(),
            execution_policy: ExecutionPolicy::default(),
            cluster: None,
        };
        h.adopt_store_state();
        h
    }

    /// Installs a fault policy for subsequent
    /// [`execute`](Hercules::execute) calls. Accepts a
    /// [`simtools::FaultPlan`], a
    /// [`simtools::BrokenToolPlan`], or a prebuilt
    /// [`FaultInjector`].
    pub fn set_fault_plan(&mut self, faults: impl Into<FaultInjector>) {
        self.fault_injector = faults.into();
    }

    /// Builder-style variant of [`set_fault_plan`](Hercules::set_fault_plan).
    #[must_use]
    pub fn with_fault_plan(mut self, faults: impl Into<FaultInjector>) -> Self {
        self.set_fault_plan(faults);
        self
    }

    /// The installed fault policy.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault_injector
    }

    /// Replaces the retry policy governing fault handling during
    /// execution.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry_policy = policy;
    }

    /// Selects the scheduling policy subsequent
    /// [`execute`](Hercules::execute) calls dispatch under. The default
    /// [`ExecutionPolicy::Fifo`] reproduces the serial dependency-order
    /// executor on the implicit cluster.
    pub fn set_execution_policy(&mut self, policy: ExecutionPolicy) {
        self.execution_policy = policy;
    }

    /// Builder-style variant of
    /// [`set_execution_policy`](Hercules::set_execution_policy).
    #[must_use]
    pub fn with_execution_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.set_execution_policy(policy);
        self
    }

    /// The configured execution policy.
    pub fn execution_policy(&self) -> ExecutionPolicy {
        self.execution_policy
    }

    /// Installs (or with `None`, removes) the simulated cluster
    /// subsequent [`execute`](Hercules::execute) calls dispatch onto.
    /// Without one, execution runs on the implicit substrate: one
    /// full-speed worker per designer, each activity bound to its
    /// assignee. With an explicit cluster, the policy places every
    /// activity on any worker; durations scale with worker speed and
    /// entity hand-off pays the cluster's seeded network delay.
    pub fn set_cluster(&mut self, cluster: impl Into<Option<Cluster>>) {
        self.cluster = cluster.into();
    }

    /// Builder-style variant of [`set_cluster`](Hercules::set_cluster).
    #[must_use]
    pub fn with_cluster(mut self, cluster: impl Into<Option<Cluster>>) -> Self {
        self.set_cluster(cluster);
        self
    }

    /// The configured simulated cluster, if any.
    pub fn cluster(&self) -> Option<&Cluster> {
        self.cluster.as_ref()
    }

    /// The retry policy governing fault handling during execution.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry_policy
    }

    /// Activities currently declared blocked (retry policy exhausted by
    /// injected faults), in sorted order.
    pub fn blocked_activities(&self) -> Vec<&str> {
        self.blocked.iter().map(String::as_str).collect()
    }

    /// Whether `activity` is currently blocked.
    pub fn is_blocked(&self, activity: &str) -> bool {
        self.blocked.contains(activity)
    }

    /// Clears the blocked set — e.g. after the operator repairs a
    /// broken tool and installs a new fault plan, so the next
    /// [`execute`](Hercules::execute) retries the activities.
    pub fn clear_blocked(&mut self) {
        self.blocked.clear();
    }

    /// Enables write-ahead journaling on the metadata store — see
    /// [`metadata::MetadataDb::enable_journal`]. Call before the first
    /// mutation (planning or execution) so recovery can replay the full
    /// history. A no-op for persistent stores, which always journal.
    pub fn enable_journal(&mut self) {
        self.store.enable_journal();
    }

    /// Detaches and returns the store's journal, if journaling was
    /// enabled — see [`Store::take_journal`]. Persistent stores keep
    /// journaling and return a copy of their redo tail, read back from
    /// the tail file (their memory holds no appended ops).
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.store.take_journal()
    }

    /// Arms a simulated crash in the metadata store after `after`
    /// more journaled mutations — see
    /// [`metadata::MetadataDb::inject_crash_after`]. Used by the chaos
    /// suite to prove crash recovery.
    pub fn inject_db_crash_after(&mut self, after: u32) {
        self.store.inject_crash_after(after);
    }

    /// The schema this manager was initialised from.
    pub fn schema(&self) -> &TaskSchema {
        &self.schema
    }

    /// Read access to the metadata database (both spaces).
    pub fn db(&self) -> &MetadataDb {
        self.store.db()
    }

    /// The storage engine behind the database — for inspecting the
    /// backend (e.g. [`Store::path`]) without mutating it.
    pub fn store(&self) -> &dyn Store {
        self.store.as_ref()
    }

    /// Compacts the storage engine: folds the journal history into a
    /// fresh snapshot and bumps the store generation (see
    /// [`Store::compact`]). Handles minted before the call — schedule
    /// instances inside old [`SchedulePlan`](crate::SchedulePlan)s,
    /// cached primary inputs — become stale, so the manager drops its
    /// plan caches and rebuilds the primary-input registry from the
    /// compacted state. It also drops the cached estimates, as a
    /// restore does; the task trees stay.
    ///
    /// # Errors
    ///
    /// [`HerculesError::Store`] if the engine has crashed or persisting
    /// the snapshot fails.
    pub fn gc(&mut self) -> Result<CompactionStats, HerculesError> {
        let stats = self.store.compact()?;
        // Every id the manager cached is now stale: re-derive them from
        // the freshly-stamped database. Session-local state (clock,
        // blocked set, estimates) is untouched — gc is maintenance, not
        // a restore.
        self.view.reset(self.store.db().runs().len());
        self.rebuild_supplied();
        Ok(stats)
    }

    /// The design team.
    pub fn team(&self) -> &Team {
        &self.team
    }

    /// The current project clock (working days since project start).
    pub fn clock(&self) -> WorkDays {
        self.clock
    }

    /// Advances the project clock (e.g. idle calendar time between
    /// planning and execution). The clock never moves backwards.
    pub fn advance_clock(&mut self, to: WorkDays) {
        self.clock = self.clock.max(to);
    }

    /// Records the designer's intuition estimate for an activity's
    /// duration, used by planning when no measured history exists.
    ///
    /// # Errors
    ///
    /// [`HerculesError::UnknownActivity`] if the schema has no such
    /// activity.
    pub fn set_estimate(
        &mut self,
        activity: &str,
        duration: WorkDays,
    ) -> Result<(), HerculesError> {
        let Some(rule) = self.schema.rule_position(activity) else {
            return Err(HerculesError::UnknownActivity(activity.to_owned()));
        };
        if self.estimates.insert(activity.to_owned(), duration) != Some(duration) {
            self.view.drop_estimate(rule);
        }
        Ok(())
    }

    /// Replaces the design team. The plan caches name the old team's
    /// designers, so they are dropped.
    pub(crate) fn set_team(&mut self, team: Team) {
        self.team = team;
        self.view.drop_plans();
    }

    /// Extracts the task tree covering `target` — step 2 of the
    /// procedure, shared by planning and execution.
    ///
    /// # Errors
    ///
    /// [`HerculesError::UnknownTarget`] if `target` names nothing.
    pub fn extract_task_tree(&self, target: &str) -> Result<TaskTree, HerculesError> {
        TaskTree::extract(&self.schema, target)
    }

    /// The duration estimate planning uses for `activity`, in priority
    /// order: (1) measured history from the metadata database — "the
    /// duration of an activity can be based ... on the measured results
    /// of similar tasks"; (2) the designer's intuition estimate;
    /// (3) the tool model's expected activity duration.
    pub fn duration_estimate(&self, activity: &str) -> Result<WorkDays, HerculesError> {
        let rule = self
            .schema
            .rule(activity)
            .ok_or_else(|| HerculesError::UnknownActivity(activity.to_owned()))?;
        if let Some(measured) = self.store.db().last_duration(activity) {
            return Ok(measured);
        }
        if let Some(&intuition) = self.estimates.get(activity) {
            return Ok(intuition);
        }
        let input_bytes = self.planned_input_bytes(activity);
        let model = self.tools.resolve(rule.tool());
        Ok(WorkDays::new(model.expected_activity_duration(input_bytes)))
    }

    /// Estimated input size for `activity` before execution: the sum of
    /// its producers' nominal output sizes (1 KiB for designer-supplied
    /// primary inputs).
    pub(crate) fn planned_input_bytes(&self, activity: &str) -> u64 {
        let Some(rule) = self.schema.rule(activity) else {
            return 0;
        };
        rule.inputs()
            .iter()
            .map(|input| match self.schema.producer_of(input) {
                Some(producer) => self.tools.resolve(producer.tool()).output_bytes(),
                None => 1024,
            })
            .sum()
    }

    /// Replaces the manager's database with a restored one (loaded via
    /// [`metadata::MetadataDb::load`]), recomputing the clock (latest
    /// timestamp in the database) and the primary-input registry. A
    /// persistent store checkpoints the replacement as a fresh
    /// snapshot.
    ///
    /// The database must have been produced by a manager on the same
    /// schema; containers are not re-validated against it.
    ///
    /// # Errors
    ///
    /// [`HerculesError::Store`] if persisting the replacement fails
    /// (never for the in-memory arena).
    pub fn restore_db(&mut self, db: MetadataDb) -> Result<(), HerculesError> {
        self.store.replace_db(db)?;
        self.adopt_store_state();
        Ok(())
    }

    /// Recomputes session state (clock, primary-input registry) from
    /// the store and drops everything derived from the previous state
    /// (plan caches, estimates, blocked set).
    fn adopt_store_state(&mut self) {
        let db = self.store.db();
        let mut clock = WorkDays::ZERO;
        for run in db.runs() {
            if let Some(f) = run.finished_at() {
                clock = clock.max(f);
            } else {
                clock = clock.max(run.started_at());
            }
        }
        for session in db.planning_sessions() {
            clock = clock.max(session.created_at());
        }
        self.clock = clock;
        self.rebuild_supplied();
        // The adopted history may change measured-duration estimates
        // arbitrarily; drop planning caches rather than trust them.
        self.view.reset(self.store.db().runs().len());
        // Blocked state is session-local (it reflects this process's
        // retry bookkeeping, not database state): start fresh.
        self.blocked.clear();
    }

    /// Rebuilds the supplied-primary-input registry from instances with
    /// no producing run (their ids must match the store's current
    /// generation).
    fn rebuild_supplied(&mut self) {
        let db = self.store.db();
        let mut supplied = HashMap::new();
        for class in db.entity_classes() {
            if let Some(container) = db.entity_container(class) {
                if let Some(&first_supplied) = container
                    .iter()
                    .find(|&&id| db.entity_instance(id).produced_by().is_none())
                {
                    supplied.insert(class.to_owned(), first_supplied);
                }
            }
        }
        self.supplied = supplied;
    }

    /// Supplies a primary-input instance for `class` (synthetic content
    /// derived from the project seed), or returns the already-supplied
    /// instance — primary inputs are provided once, like the paper's
    /// `stimuli`.
    ///
    /// # Errors
    ///
    /// [`HerculesError::Metadata`] if `class` has no container.
    pub fn supply_primary_input(
        &mut self,
        class: &str,
        designer: &str,
    ) -> Result<EntityInstanceId, HerculesError> {
        if let Some(&id) = self.supplied.get(class) {
            return Ok(id);
        }
        let content = primary_input_data(class, self.seed);
        let data = self.store.store_data(&format!("{class}.dat"), content);
        let id = self.store.supply_input(class, designer, self.clock, data)?;
        self.supplied.insert(class.to_owned(), id);
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;

    fn manager() -> Hercules {
        Hercules::new(
            examples::circuit_design(),
            ToolLibrary::standard(),
            Team::of_size(2),
            7,
        )
    }

    #[test]
    fn construction_initialises_containers() {
        let h = manager();
        assert!(h.db().entity_container("netlist").is_some());
        assert!(h.db().schedule_container("Simulate").is_some());
        assert_eq!(h.clock(), WorkDays::ZERO);
        assert_eq!(h.team().len(), 2);
        assert_eq!(h.schema().name(), "circuit");
    }

    #[test]
    fn clock_is_monotonic() {
        let mut h = manager();
        h.advance_clock(WorkDays::new(5.0));
        h.advance_clock(WorkDays::new(3.0));
        assert_eq!(h.clock(), WorkDays::new(5.0));
    }

    #[test]
    fn estimate_requires_known_activity() {
        let mut h = manager();
        assert!(h.set_estimate("Create", WorkDays::new(3.0)).is_ok());
        assert!(matches!(
            h.set_estimate("Fabricate", WorkDays::new(1.0)),
            Err(HerculesError::UnknownActivity(_))
        ));
    }

    #[test]
    fn duration_estimate_priorities() {
        let mut h = manager();
        // No history, no intuition: tool-model estimate.
        let model_est = h.duration_estimate("Create").unwrap();
        assert!(model_est.days() > 0.0);
        // Intuition overrides the model.
        h.set_estimate("Create", WorkDays::new(9.0)).unwrap();
        assert_eq!(h.duration_estimate("Create").unwrap(), WorkDays::new(9.0));
        assert!(h.duration_estimate("Missing").is_err());
    }

    #[test]
    fn planned_input_bytes_uses_producer_models() {
        let h = manager();
        // Create has no inputs.
        assert_eq!(h.planned_input_bytes("Create"), 0);
        // Simulate consumes netlist (producer: netlist_editor, 8 KiB)
        // and stimuli (primary input, 1 KiB).
        assert_eq!(h.planned_input_bytes("Simulate"), 8 * 1024 + 1024);
    }

    #[test]
    fn restore_db_recovers_clock_and_supplied() {
        let mut h = manager();
        h.supply_primary_input("stimuli", "alice").unwrap();
        let run = h
            .store
            .begin_run("Create", "alice", WorkDays::new(1.0))
            .unwrap();
        let data = h.store.store_data("x", vec![]);
        h.store
            .finish_run(run, "netlist", data, WorkDays::new(4.0), &[])
            .unwrap();
        let dump = h.db().dump();

        let mut restored = manager();
        restored
            .restore_db(metadata::MetadataDb::load(&dump).unwrap())
            .unwrap();
        assert_eq!(restored.clock(), WorkDays::new(4.0));
        // The supplied registry is rebuilt: supplying again reuses the
        // restored instance.
        let again = restored.supply_primary_input("stimuli", "bob").unwrap();
        assert_eq!(restored.db().entity_container("stimuli").unwrap().len(), 1);
        assert_eq!(restored.db().entity_instance(again).creator(), "alice");
    }

    #[test]
    fn persistent_store_roundtrip_and_gc() {
        let dir = std::env::temp_dir().join(format!("schedflow-manager-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = examples::circuit_design();
        {
            let store =
                metadata::PersistentStore::create(&dir, MetadataDb::for_schema(&schema)).unwrap();
            let mut h = Hercules::with_store(
                schema.clone(),
                ToolLibrary::standard(),
                Team::of_size(2),
                7,
                Box::new(store),
            );
            h.supply_primary_input("stimuli", "alice").unwrap();
            let run = h
                .store
                .begin_run("Create", "alice", WorkDays::new(1.0))
                .unwrap();
            let data = h.store.store_data("x", vec![]);
            h.store
                .finish_run(run, "netlist", data, WorkDays::new(4.0), &[])
                .unwrap();
        }
        // Reopen: the clock and primary-input registry are recomputed
        // from the replayed state.
        let store = metadata::PersistentStore::open(&dir).unwrap();
        let mut h = Hercules::with_store(
            schema,
            ToolLibrary::standard(),
            Team::of_size(2),
            7,
            Box::new(store),
        );
        assert_eq!(h.clock(), WorkDays::new(4.0));
        let again = h.supply_primary_input("stimuli", "bob").unwrap();
        assert_eq!(h.db().entity_instance(again).creator(), "alice");
        // gc folds the tail and refreshes every cached handle: the
        // supplied registry keeps working at the new generation.
        let stats = h.gc().unwrap();
        assert_eq!(stats.tail_ops_after, 0);
        assert!(stats.generation >= 1);
        let fresh = h.supply_primary_input("stimuli", "carol").unwrap();
        assert_eq!(h.db().entity_container("stimuli").unwrap().len(), 1);
        assert_eq!(h.db().entity_instance(fresh).creator(), "alice");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn primary_inputs_supplied_once() {
        let mut h = manager();
        let a = h.supply_primary_input("stimuli", "alice").unwrap();
        let b = h.supply_primary_input("stimuli", "bob").unwrap();
        assert_eq!(a, b);
        assert_eq!(h.db().entity_container("stimuli").unwrap().len(), 1);
        assert!(h.supply_primary_input("ghost", "alice").is_err());
    }
}
