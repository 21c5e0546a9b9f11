use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use schedule::WorkDays;
use schema::TaskSchema;

use crate::error::MetadataError;
use crate::ids::{DataObjectId, EntityInstanceId, PlanningSessionId, RunId, ScheduleInstanceId};
use crate::journal::{Journal, JournalOp, SlotRange};
use crate::objects::{
    DataBody, DataObject, EntityInstance, PlanBody, PlanningSession, Run, ScheduleInstance,
};
use crate::segment::{Extent, SegmentSource, DATA_SEGMENT};
use crate::store::StoreError;

/// The Hercules-style metadata database: entity containers (execution
/// space), schedule containers (schedule space), runs, planning
/// sessions, Level-4 data objects, and the links between the spaces.
///
/// "The Hercules task database is initialized from the schema by
/// generating a series of containers that will hold the entity
/// instances created during flow execution. ... As the task entities
/// are parsed into the database, schedule containers are created from
/// the functions associated with each construction rule" (§IV-A).
///
/// All mutation is through methods that preserve referential integrity;
/// ids handed out by one database must not be used with another (they
/// are dense indices, so misuse is caught only when out of range).
///
/// With [`enable_journal`](MetadataDb::enable_journal) every mutation
/// is write-ahead journaled and the database survives injected crashes
/// via [`recover`](MetadataDb::recover) — see [`crate::journal`].
#[derive(Debug, Clone, Default)]
pub struct MetadataDb {
    /// Per entity class: instance ids in creation order.
    pub(crate) entity_containers: BTreeMap<String, Vec<EntityInstanceId>>,
    /// Per activity: the slot of its schedule container in
    /// `containers`. The key is the name every schedule instance of the
    /// activity shares.
    pub(crate) schedule_containers: BTreeMap<Arc<str>, u32>,
    /// Schedule containers by slot, in declaration order: each
    /// activity's schedule instance ids in creation order. Every
    /// schedule instance records its container's slot, so versioning
    /// an activity needs no name lookup. A schema, a dump and a journal
    /// all declare containers in name order, so slots follow names.
    pub(crate) containers: Vec<Vec<ScheduleInstanceId>>,
    /// Per activity: its declared output class (for link validation).
    pub(crate) activity_outputs: BTreeMap<String, String>,
    pub(crate) entities: Vec<EntityInstance>,
    pub(crate) schedules: Vec<ScheduleInstance>,
    pub(crate) runs: Vec<Run>,
    /// Per activity: its run history — the history `runs_of`,
    /// `actual_start` and run iteration numbers read instead of scanning
    /// every run. Kept in step by [`begin_run`](Self::begin_run), the
    /// only place a run is created: journal replay, `load` and
    /// compaction's reload all go through it. The key is the activity's
    /// schedule-container name.
    pub(crate) runs_by_activity: HashMap<Arc<str>, RunHistory>,
    pub(crate) sessions: Vec<PlanningSession>,
    pub(crate) data: Vec<DataObject>,
    /// The data segment stored data objects live in — set by the
    /// persistent store that holds this database; `None` in memory.
    pub(crate) segment: Option<Arc<SegmentSource>>,
    /// Every designer name assigned so far, first assignment first;
    /// schedule instances share these instead of holding copies. A team
    /// is a handful of designers, so it is searched linearly.
    pub(crate) designers: Vec<Arc<str>>,
    /// Write-ahead journal (`None` when journaling is disabled).
    pub(crate) journal: Option<Journal>,
    /// Fallible mutations until an injected crash fires (`None`:
    /// disarmed).
    pub(crate) crash_countdown: Option<u32>,
    /// Set once an injected crash fired; the database then refuses all
    /// further fallible mutations.
    pub(crate) crashed: bool,
    /// Store generation: bumped by compaction (which renumbers the slot
    /// space). Ids minted here are stamped with it; fallible mutations
    /// reject handles stamped with an older generation as
    /// [`MetadataError::StaleHandle`].
    pub(crate) generation: u32,
}

/// One activity's runs: their positions in `MetadataDb::runs`, oldest
/// first, and the earliest start among them (the actual start).
#[derive(Debug, Clone, Default)]
pub(crate) struct RunHistory {
    runs: Vec<u32>,
    first_start: WorkDays,
}

impl MetadataDb {
    /// Creates an empty database with no containers. Most callers want
    /// [`MetadataDb::for_schema`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Initialises containers from a validated Level-1 schema: one
    /// entity container per class, one schedule container per activity.
    pub fn for_schema(schema: &TaskSchema) -> Self {
        let mut db = MetadataDb::new();
        for class in schema.classes() {
            db.entity_containers
                .insert(class.name().to_owned(), Vec::new());
        }
        // Slots in name order, the order status walks the containers
        // in, so that walk reads them in sequence.
        for &position in schema.rule_positions_by_name().iter() {
            let rule = &schema.rules()[position];
            db.container_slot_or_new(rule.activity());
            db.activity_outputs
                .insert(rule.activity().to_owned(), rule.output().to_owned());
        }
        db
    }

    /// The store generation ids minted by this database carry. Bumped
    /// by compaction; handles from older generations are rejected by
    /// mutating calls with [`MetadataError::StaleHandle`].
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Rejects an id stamped with a generation other than the
    /// database's current one. `display` is the id's rendered form for
    /// the error message.
    fn check_gen(&self, gen: u32, display: impl fmt::Display) -> Result<(), MetadataError> {
        if gen != self.generation {
            return Err(MetadataError::StaleHandle(display.to_string()));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Containers
    // ------------------------------------------------------------------

    /// Instance ids in the container for `class`, oldest first; `None`
    /// if the class has no container.
    pub fn entity_container(&self, class: &str) -> Option<&[EntityInstanceId]> {
        self.entity_containers.get(class).map(Vec::as_slice)
    }

    /// Schedule instance ids in the container for `activity`, oldest
    /// first; `None` if the activity has no container.
    pub fn schedule_container(&self, activity: &str) -> Option<&[ScheduleInstanceId]> {
        let slot = self.container_slot(activity)?;
        Some(&self.containers[slot])
    }

    /// The slot of `activity`'s schedule container, if it has one: a
    /// position [`current_plan_at`](Self::current_plan_at) reads
    /// without a name lookup. A slot stays valid for the database's
    /// life; another database — a reload of this one's dump, such as
    /// compaction's — may number its containers differently.
    pub fn container_slot(&self, activity: &str) -> Option<usize> {
        self.schedule_containers.get(activity).map(|&s| s as usize)
    }

    /// The slot of `activity`'s schedule container, declaring an empty
    /// container at the next slot if it has none.
    fn container_slot_or_new(&mut self, activity: &str) -> usize {
        if let Some(slot) = self.container_slot(activity) {
            return slot;
        }
        let slot = self.containers.len();
        self.containers.push(Vec::new());
        self.schedule_containers
            .insert(Arc::from(activity), slot as u32);
        slot
    }

    /// Every schedule container in activity-name order: the name the
    /// activity's schedule instances share, and their ids, oldest first.
    /// Walking it beside a name-sorted list of activities (such as
    /// [`TaskSchema::rule_positions_by_name`]) finds every container
    /// without a lookup.
    pub fn schedule_containers_by_name(
        &self,
    ) -> impl Iterator<Item = (&Arc<str>, &[ScheduleInstanceId])> + '_ {
        self.schedule_containers
            .iter()
            .map(|(name, &slot)| (name, self.containers[slot as usize].as_slice()))
    }

    /// All entity-class container names, sorted.
    pub fn entity_classes(&self) -> impl Iterator<Item = &str> + '_ {
        self.entity_containers.keys().map(String::as_str)
    }

    /// All activity container names, sorted.
    pub fn activities(&self) -> impl Iterator<Item = &str> + '_ {
        self.schedule_containers.keys().map(|a| &**a)
    }

    /// The output class an activity produces, per the schema.
    pub fn output_class_of(&self, activity: &str) -> Option<&str> {
        self.activity_outputs.get(activity).map(String::as_str)
    }

    /// Declares an entity container without a schema (used by the dump
    /// loader and by callers assembling databases by hand). Idempotent.
    pub fn declare_entity_container(&mut self, class: &str) {
        self.journal_op(|| JournalOp::DeclareEntityContainer {
            class: class.to_owned(),
        });
        self.entity_containers.entry(class.to_owned()).or_default();
    }

    /// Declares a schedule container and its activity's output class.
    /// Idempotent.
    pub fn declare_schedule_container(&mut self, activity: &str, output_class: &str) {
        self.journal_op(|| JournalOp::DeclareScheduleContainer {
            activity: activity.to_owned(),
            output_class: output_class.to_owned(),
        });
        self.container_slot_or_new(activity);
        self.activity_outputs
            .insert(activity.to_owned(), output_class.to_owned());
    }

    /// Number of Level-4 data objects stored.
    pub fn data_count(&self) -> usize {
        self.data.len()
    }

    // ------------------------------------------------------------------
    // Level 4: design data
    // ------------------------------------------------------------------

    /// Stores a Level-4 data object and returns its id.
    pub fn store_data(&mut self, name: impl Into<String>, content: Vec<u8>) -> DataObjectId {
        let name = name.into();
        self.journal_op(|| JournalOp::StoreData {
            name: name.clone(),
            content: content.clone(),
        });
        self.push_data(name, DataBody::Inline(content))
    }

    /// Records a data object whose bytes are already in the store's
    /// data segment at `extent` — the replay of a `store-data-ref`
    /// record or a snapshot's `data-ref` line.
    pub(crate) fn attach_data(&mut self, name: String, extent: Extent) -> DataObjectId {
        self.journal_op(|| JournalOp::StoreDataRef {
            name: name.clone(),
            extent,
        });
        self.push_data(name, DataBody::Stored(extent))
    }

    fn push_data(&mut self, name: String, body: DataBody) -> DataObjectId {
        let id = DataObjectId::new(self.data.len() as u32, self.generation);
        self.data.push(DataObject::new(id, name, body));
        id
    }

    /// The data object behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this database.
    pub fn data_object(&self, id: DataObjectId) -> &DataObject {
        &self.data[id.index()]
    }

    /// The bytes of the data object behind `id`: borrowed when held in
    /// memory, read from the store's data segment (and checked against
    /// the extent's CRC) when stored there.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corruption`] when the stored bytes do not verify;
    /// [`StoreError::Io`] when the segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this database.
    pub fn data_content(&self, id: DataObjectId) -> Result<Cow<'_, [u8]>, StoreError> {
        let d = &self.data[id.index()];
        match &d.body {
            DataBody::Inline(bytes) => Ok(Cow::Borrowed(bytes)),
            DataBody::Stored(extent) => {
                let source = self.segment_source()?;
                let segment = source.read()?;
                Ok(Cow::Owned(
                    source.resolve(&segment, d.name(), extent)?.to_vec(),
                ))
            }
        }
    }

    /// The data segment this database's stored data lives in.
    pub(crate) fn segment_source(&self) -> Result<&SegmentSource, StoreError> {
        self.segment.as_deref().ok_or_else(|| StoreError::Io {
            path: DATA_SEGMENT.into(),
            message: "stored design data read without its store's data segment".to_owned(),
        })
    }

    // ------------------------------------------------------------------
    // Execution space
    // ------------------------------------------------------------------

    /// Starts a run of `activity` by `operator` at `started_at`.
    ///
    /// The iteration number is one more than the number of existing
    /// runs of the activity.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownActivity`] if the activity has no
    /// container; [`MetadataError::InjectedCrash`] under an armed crash
    /// point.
    pub fn begin_run(
        &mut self,
        activity: &str,
        operator: &str,
        started_at: WorkDays,
    ) -> Result<RunId, MetadataError> {
        self.check_alive()?;
        let Some((name, _)) = self.schedule_containers.get_key_value(activity) else {
            return Err(MetadataError::UnknownActivity(activity.to_owned()));
        };
        let name = Arc::clone(name);
        self.journal_op(|| JournalOp::BeginRun {
            activity: activity.to_owned(),
            operator: operator.to_owned(),
            started_md: started_at.millidays(),
        });
        self.crash_point()?;
        let id = RunId::new(self.runs.len() as u32, self.generation);
        let history = self.runs_by_activity.entry(name).or_default();
        let run = Run::new(
            id,
            activity.to_owned(),
            operator.to_owned(),
            history.runs.len() as u32 + 1,
            started_at,
        );
        // The actual start is the earliest of the runs' starts.
        if history.runs.is_empty() || started_at < history.first_start {
            history.first_start = started_at;
        }
        history.runs.push(id.index() as u32);
        self.runs.push(run);
        Ok(id)
    }

    /// Finishes a run: creates the output [`EntityInstance`] in
    /// `output_class`'s container, linked to `data` and depending on
    /// `inputs`.
    ///
    /// # Errors
    ///
    /// * [`MetadataError::UnknownId`] — foreign run or input id.
    /// * [`MetadataError::RunAlreadyFinished`] — double finish.
    /// * [`MetadataError::UnknownClass`] — no container for the class.
    /// * [`MetadataError::WrongOutputClass`] — the class is not what
    ///   the activity produces.
    /// * [`MetadataError::InvalidTimestamps`] — finish before start.
    pub fn finish_run(
        &mut self,
        run: RunId,
        output_class: &str,
        data: DataObjectId,
        finished_at: WorkDays,
        inputs: &[EntityInstanceId],
    ) -> Result<EntityInstanceId, MetadataError> {
        self.check_alive()?;
        self.check_gen(run.gen, run)?;
        self.check_gen(data.gen, data)?;
        for input in inputs {
            self.check_gen(input.gen, input)?;
        }
        let run_ref = self
            .runs
            .get(run.index())
            .ok_or_else(|| MetadataError::UnknownId(run.to_string()))?;
        if run_ref.finished_at().is_some() {
            return Err(MetadataError::RunAlreadyFinished(run));
        }
        if !self.entity_containers.contains_key(output_class) {
            return Err(MetadataError::UnknownClass(output_class.to_owned()));
        }
        let expected = self
            .activity_outputs
            .get(run_ref.activity())
            .cloned()
            .unwrap_or_else(|| output_class.to_owned());
        if expected != output_class {
            return Err(MetadataError::WrongOutputClass {
                run,
                expected,
                found: output_class.to_owned(),
            });
        }
        if finished_at < run_ref.started_at() {
            return Err(MetadataError::InvalidTimestamps {
                started: run_ref.started_at().days(),
                finished: finished_at.days(),
            });
        }
        for input in inputs {
            if input.index() >= self.entities.len() {
                return Err(MetadataError::UnknownId(input.to_string()));
            }
        }
        if data.index() >= self.data.len() {
            return Err(MetadataError::UnknownId(data.to_string()));
        }
        let operator = run_ref.operator().to_owned();
        self.journal_op(|| JournalOp::FinishRun {
            run,
            output_class: output_class.to_owned(),
            data,
            finished_md: finished_at.millidays(),
            inputs: inputs.to_vec(),
        });
        self.crash_point()?;
        let id = self.insert_entity(
            output_class,
            finished_at,
            operator,
            Some(run),
            inputs.to_vec(),
            data,
        );
        self.runs[run.index()].finish(finished_at, id);
        Ok(id)
    }

    /// Records a designer-supplied instance (a primary input such as
    /// the paper's `stimuli`) with no producing run.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownClass`] if the class has no container.
    pub fn supply_input(
        &mut self,
        class: &str,
        creator: &str,
        created_at: WorkDays,
        data: DataObjectId,
    ) -> Result<EntityInstanceId, MetadataError> {
        self.check_alive()?;
        self.check_gen(data.gen, data)?;
        if !self.entity_containers.contains_key(class) {
            return Err(MetadataError::UnknownClass(class.to_owned()));
        }
        if data.index() >= self.data.len() {
            return Err(MetadataError::UnknownId(data.to_string()));
        }
        self.journal_op(|| JournalOp::SupplyInput {
            class: class.to_owned(),
            creator: creator.to_owned(),
            created_md: created_at.millidays(),
            data,
        });
        self.crash_point()?;
        Ok(self.insert_entity(
            class,
            created_at,
            creator.to_owned(),
            None,
            Vec::new(),
            data,
        ))
    }

    fn insert_entity(
        &mut self,
        class: &str,
        created_at: WorkDays,
        creator: String,
        produced_by: Option<RunId>,
        depends_on: Vec<EntityInstanceId>,
        data: DataObjectId,
    ) -> EntityInstanceId {
        let container = self
            .entity_containers
            .get_mut(class)
            .expect("caller checked the container exists");
        let version = container.len() as u32 + 1;
        let id = EntityInstanceId::new(self.entities.len() as u32, self.generation);
        self.entities.push(EntityInstance::new(
            id,
            class.to_owned(),
            version,
            created_at,
            creator,
            produced_by,
            depends_on,
            data,
        ));
        container.push(id);
        id
    }

    /// Restores a run's finish timestamp without creating an output
    /// instance — dump-loader plumbing: the entity record that follows
    /// re-attaches the output via [`restore_entity`](Self::restore_entity).
    pub(crate) fn restore_run_finish(&mut self, run: RunId, finished_at: WorkDays) {
        // A placeholder output id; the matching `restore_entity` call
        // overwrites it with the real instance.
        let placeholder = EntityInstanceId::new(u32::MAX, self.generation);
        self.runs[run.index()].finish(finished_at, placeholder);
    }

    /// Restores an entity instance with explicit provenance — the dump
    /// loader's counterpart of [`finish_run`](Self::finish_run) /
    /// [`supply_input`](Self::supply_input).
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownClass`] / [`MetadataError::UnknownId`]
    /// when references do not resolve.
    pub(crate) fn restore_entity(
        &mut self,
        class: &str,
        created_at: WorkDays,
        creator: &str,
        produced_by: Option<RunId>,
        depends_on: Vec<EntityInstanceId>,
        data: DataObjectId,
    ) -> Result<EntityInstanceId, MetadataError> {
        if !self.entity_containers.contains_key(class) {
            return Err(MetadataError::UnknownClass(class.to_owned()));
        }
        if let Some(run) = produced_by {
            if run.index() >= self.runs.len() {
                return Err(MetadataError::UnknownId(run.to_string()));
            }
        }
        for dep in &depends_on {
            if dep.index() >= self.entities.len() {
                return Err(MetadataError::UnknownId(dep.to_string()));
            }
        }
        if data.index() >= self.data.len() {
            return Err(MetadataError::UnknownId(data.to_string()));
        }
        let id = self.insert_entity(
            class,
            created_at,
            creator.to_owned(),
            produced_by,
            depends_on,
            data,
        );
        if let Some(run) = produced_by {
            // Re-point the run's output at the restored instance.
            let finished = self.runs[run.index()].finished_at().unwrap_or(created_at);
            self.runs[run.index()].finish(finished, id);
        }
        Ok(id)
    }

    /// The entity instance behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this database.
    pub fn entity_instance(&self, id: EntityInstanceId) -> &EntityInstance {
        &self.entities[id.index()]
    }

    /// The run behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this database.
    pub fn run(&self, id: RunId) -> &Run {
        &self.runs[id.index()]
    }

    /// All runs, oldest first.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Runs of one activity, oldest first.
    pub fn runs_of(&self, activity: &str) -> Vec<&Run> {
        self.history_of(activity).collect()
    }

    /// Number of runs of one activity — the iteration number its last
    /// run carries.
    pub fn run_count_of(&self, activity: &str) -> usize {
        self.runs_by_activity
            .get(activity)
            .map_or(0, |h| h.runs.len())
    }

    /// Runs of one activity, oldest first, read from the run index.
    pub(crate) fn history_of<'a>(
        &'a self,
        activity: &str,
    ) -> impl DoubleEndedIterator<Item = &'a Run> + 'a {
        self.runs_by_activity
            .get(activity)
            .map_or(&[][..], |h| h.runs.as_slice())
            .iter()
            .map(|&i| &self.runs[i as usize])
    }

    /// Number of entity instances across all containers.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    // ------------------------------------------------------------------
    // Schedule space
    // ------------------------------------------------------------------

    /// Opens a planning session (the schedule-space analog of a run).
    pub fn begin_planning(&mut self, at: WorkDays) -> PlanningSessionId {
        self.journal_op(|| JournalOp::BeginPlanning {
            at_md: at.millidays(),
        });
        let id = PlanningSessionId::new(self.sessions.len() as u32, self.generation);
        self.sessions.push(PlanningSession::new(id, at));
        id
    }

    /// Creates a schedule instance for `activity` inside `session`.
    ///
    /// The new instance's version is one more than the container's
    /// count, and it records the previous latest instance (if any) as
    /// its provenance (`derived_from`) — replanning never mutates old
    /// plans, it versions them (Fig. 5's SC1/SC2).
    ///
    /// # Errors
    ///
    /// * [`MetadataError::UnknownActivity`] — no container.
    /// * [`MetadataError::UnknownId`] — foreign session id.
    pub fn plan_activity(
        &mut self,
        session: PlanningSessionId,
        activity: &str,
        planned_start: WorkDays,
        planned_duration: WorkDays,
    ) -> Result<ScheduleInstanceId, MetadataError> {
        self.check_alive()?;
        self.check_gen(session.gen, session)?;
        if session.index() >= self.sessions.len() {
            return Err(MetadataError::UnknownId(session.to_string()));
        }
        let Some((name, &slot)) = self.schedule_containers.get_key_value(activity) else {
            return Err(MetadataError::UnknownActivity(activity.to_owned()));
        };
        let name = Arc::clone(name);
        self.journal_op(|| JournalOp::PlanActivity {
            session,
            activity: activity.to_owned(),
            start_md: planned_start.millidays(),
            duration_md: planned_duration.millidays(),
        });
        self.crash_point()?;
        let body = PlanBody::new(name, planned_start, planned_duration);
        Ok(self.push_version(session, slot as usize, Arc::new(body)))
    }

    /// Appends the next version of `body`'s activity to its container,
    /// at slot `slot`, and to `session`, derived from the activity's
    /// latest version. The one place a schedule instance is created;
    /// callers have checked the session and the container.
    fn push_version(
        &mut self,
        session: PlanningSessionId,
        slot: usize,
        body: Arc<PlanBody>,
    ) -> ScheduleInstanceId {
        let container = &mut self.containers[slot];
        let id = ScheduleInstanceId::new(self.schedules.len() as u32, self.generation);
        let version = container.len() as u32 + 1;
        let derived_from = container.last().copied();
        container.push(id);
        self.schedules.push(ScheduleInstance::new(
            id,
            version,
            slot,
            session,
            body,
            derived_from,
        ));
        self.sessions[session.index()].push(id);
        id
    }

    /// Carries each version in `from` into `session` unchanged: in
    /// order, mints for each a new version of its activity with the
    /// same start, duration and assignees, derived from it — the version
    /// [`plan_activity`](Self::plan_activity) plus
    /// [`assign`](Self::assign) would mint for a proposal equal to it,
    /// as one mutation and one journal record (`carry-plan`, which names
    /// the same versions). Each new version shares its predecessor's
    /// plan body instead of copying it. Everything is checked before
    /// anything is journaled or minted, so a carry, live or replayed,
    /// applies whole or not at all. Returns the new ids, in order.
    ///
    /// # Errors
    ///
    /// * [`MetadataError::StaleHandle`] — an id from an older
    ///   generation.
    /// * [`MetadataError::UnknownId`] — foreign session id.
    /// * [`MetadataError::CannotCarry`] — a version does not exist, is
    ///   not the latest of its activity, or is listed twice.
    pub fn carry_plan(
        &mut self,
        session: PlanningSessionId,
        from: &[ScheduleInstanceId],
    ) -> Result<Vec<ScheduleInstanceId>, MetadataError> {
        self.check_alive()?;
        self.check_gen(session.gen, session)?;
        self.check_session(session)?;
        for &pred in from {
            self.check_gen(pred.gen, pred)?;
            let Some(sc) = self.schedules.get(pred.index()) else {
                return Err(MetadataError::CannotCarry(format!(
                    "{pred}: no such version"
                )));
            };
            if self.containers[sc.container()].last() != Some(&pred) {
                return Err(MetadataError::CannotCarry(format!(
                    "{pred}: not the latest version of {:?}",
                    sc.activity()
                )));
            }
        }
        self.check_listed_once(from)?;
        self.mint_carried(session, from)
    }

    fn check_session(&self, session: PlanningSessionId) -> Result<(), MetadataError> {
        match session.index() < self.sessions.len() {
            true => Ok(()),
            false => Err(MetadataError::UnknownId(session.to_string())),
        }
    }

    /// Refuses a carry that lists one version twice: it would mint two
    /// versions derived from the same predecessor.
    fn check_listed_once(&self, from: &[ScheduleInstanceId]) -> Result<(), MetadataError> {
        // Slots ascend in the usual case (a pass re-proposing the
        // previous pass's versions in order), which rules out repeats.
        if from.windows(2).all(|w| w[0].slot < w[1].slot) {
            return Ok(());
        }
        let mut sorted = from.to_vec();
        sorted.sort_unstable();
        match sorted.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(MetadataError::CannotCarry(format!(
                "{:?}: listed twice",
                self.schedules[w[0].index()].activity()
            ))),
            None => Ok(()),
        }
    }

    /// Journals and applies a checked carry: one new version of each
    /// predecessor in `from`, in order, sharing its plan body.
    fn mint_carried(
        &mut self,
        session: PlanningSessionId,
        from: &[ScheduleInstanceId],
    ) -> Result<Vec<ScheduleInstanceId>, MetadataError> {
        if from.is_empty() {
            return Ok(Vec::new());
        }
        self.journal_op(|| JournalOp::CarryPlan {
            session,
            from: SlotRange::runs_of(from),
        });
        self.crash_point()?;
        Ok(from
            .iter()
            .map(|&pred| {
                let pred = &self.schedules[pred.index()];
                let (slot, body) = (pred.container(), Arc::clone(&pred.body));
                self.push_version(session, slot, body)
            })
            .collect())
    }

    /// Restores one version from a dump's `sched` line. A version
    /// that plans what its predecessor plans is minted as a carried
    /// version, sharing the predecessor's plan body, so a reloaded
    /// database holds carried versions the way a live one does.
    pub(crate) fn restore_schedule(
        &mut self,
        session: PlanningSessionId,
        activity: &str,
        planned_start: WorkDays,
        planned_duration: WorkDays,
        assignees: &[&str],
    ) -> Result<ScheduleInstanceId, MetadataError> {
        self.check_gen(session.gen, session)?;
        self.check_session(session)?;
        let Some((name, &slot)) = self.schedule_containers.get_key_value(activity) else {
            return Err(MetadataError::UnknownActivity(activity.to_owned()));
        };
        let name = Arc::clone(name);
        let carried = self.containers[slot as usize]
            .last()
            .map(|pred| &self.schedules[pred.index()])
            .filter(|pred| pred.proposes(planned_start, planned_duration, assignees))
            .map(|pred| Arc::clone(&pred.body));
        let body = match carried {
            Some(body) => body,
            None => {
                let mut body = PlanBody::new(name, planned_start, planned_duration);
                for designer in assignees {
                    body.assign(self.designer_name(designer));
                }
                Arc::new(body)
            }
        };
        Ok(self.push_version(session, slot as usize, body))
    }

    /// Number of distinct plan bodies the schedule instances hold: the
    /// instance count less the versions that share an equal
    /// predecessor's body.
    pub fn plan_body_count(&self) -> usize {
        let mut bodies: Vec<*const _> = self
            .schedules
            .iter()
            .map(|sc| Arc::as_ptr(&sc.body))
            .collect();
        bodies.sort_unstable();
        bodies.dedup();
        bodies.len()
    }

    /// Assigns a designer to a planned activity.
    ///
    /// # Errors
    ///
    /// [`MetadataError::UnknownId`] for a foreign id.
    pub fn assign(
        &mut self,
        schedule: ScheduleInstanceId,
        designer: &str,
    ) -> Result<(), MetadataError> {
        self.check_alive()?;
        self.check_gen(schedule.gen, schedule)?;
        if schedule.index() >= self.schedules.len() {
            return Err(MetadataError::UnknownId(schedule.to_string()));
        }
        self.journal_op(|| JournalOp::Assign {
            schedule,
            designer: designer.to_owned(),
        });
        self.crash_point()?;
        let designer = self.designer_name(designer);
        self.schedules[schedule.index()].assign(designer);
        Ok(())
    }

    /// The shared name for `designer`, added to the designer table on
    /// first use.
    fn designer_name(&mut self, designer: &str) -> Arc<str> {
        if let Some(known) = self.designers.iter().find(|known| ***known == *designer) {
            return Arc::clone(known);
        }
        let name: Arc<str> = Arc::from(designer);
        self.designers.push(Arc::clone(&name));
        name
    }

    /// The schedule instance behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this database.
    pub fn schedule_instance(&self, id: ScheduleInstanceId) -> &ScheduleInstance {
        &self.schedules[id.index()]
    }

    /// The planning session behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this database.
    pub fn planning_session(&self, id: PlanningSessionId) -> &PlanningSession {
        &self.sessions[id.index()]
    }

    /// All planning sessions, oldest first.
    pub fn planning_sessions(&self) -> &[PlanningSession] {
        &self.sessions
    }

    /// The latest schedule instance for `activity`, if any.
    pub fn current_plan(&self, activity: &str) -> Option<&ScheduleInstance> {
        self.current_plan_at(self.container_slot(activity)?)
    }

    /// The latest schedule instance in the container at `slot` (see
    /// [`container_slot`](Self::container_slot)), if any.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a container slot of this database.
    pub fn current_plan_at(&self, slot: usize) -> Option<&ScheduleInstance> {
        self.containers[slot]
            .last()
            .map(|&id| self.schedule_instance(id))
    }

    /// Number of schedule instances across all containers.
    pub fn schedule_count(&self) -> usize {
        self.schedules.len()
    }

    // ------------------------------------------------------------------
    // Links between the spaces
    // ------------------------------------------------------------------

    /// Links a schedule instance to the entity instance the designer
    /// declares to be the activity's final result — "this link is
    /// created when the designer determines that the execution of an
    /// activity is completed" (§III).
    ///
    /// # Errors
    ///
    /// * [`MetadataError::UnknownId`] — foreign ids.
    /// * [`MetadataError::AlreadyLinked`] — the plan already has a
    ///   final result.
    /// * [`MetadataError::MismatchedLink`] — the instance's class is
    ///   not the activity's output class, or it was produced by a
    ///   different activity's run.
    pub fn link_completion(
        &mut self,
        schedule: ScheduleInstanceId,
        entity: EntityInstanceId,
    ) -> Result<(), MetadataError> {
        self.check_alive()?;
        self.check_gen(schedule.gen, schedule)?;
        self.check_gen(entity.gen, entity)?;
        if schedule.index() >= self.schedules.len() {
            return Err(MetadataError::UnknownId(schedule.to_string()));
        }
        if entity.index() >= self.entities.len() {
            return Err(MetadataError::UnknownId(entity.to_string()));
        }
        if self.schedules[schedule.index()].linked_entity().is_some() {
            return Err(MetadataError::AlreadyLinked(schedule));
        }
        let activity = self.schedules[schedule.index()].activity().to_owned();
        let inst = &self.entities[entity.index()];
        let class_ok = self
            .activity_outputs
            .get(&activity)
            .is_none_or(|out| out == inst.class());
        let producer_ok = match inst.produced_by() {
            Some(run) => self.runs[run.index()].activity() == activity,
            None => false,
        };
        if !(class_ok && producer_ok) {
            return Err(MetadataError::MismatchedLink { schedule, entity });
        }
        self.journal_op(|| JournalOp::LinkCompletion { schedule, entity });
        self.crash_point()?;
        self.schedules[schedule.index()].set_link(entity);
        Ok(())
    }

    /// Actual start of `activity`: the start of its first run. "Once a
    /// data instance for the particular task is created, the actual
    /// start date for the task is set" (§IV-C).
    ///
    /// One lookup: the run index keeps each activity's earliest start.
    pub fn actual_start(&self, activity: &str) -> Option<WorkDays> {
        self.runs_by_activity.get(activity).map(|h| h.first_start)
    }

    /// Actual finish of `activity`: the creation time of the entity
    /// instance linked from its *latest* schedule instance. `None`
    /// until the designer links completion.
    pub fn actual_finish(&self, activity: &str) -> Option<WorkDays> {
        let sc = self.current_plan(activity)?;
        let entity = sc.linked_entity()?;
        Some(self.entity_instance(entity).created_at())
    }
}

impl fmt::Display for MetadataDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "metadata db: {} entity instances, {} schedule instances, {} runs, {} sessions, {} data objects",
            self.entities.len(),
            self.schedules.len(),
            self.runs.len(),
            self.sessions.len(),
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;

    fn db() -> MetadataDb {
        MetadataDb::for_schema(&examples::circuit_design())
    }

    #[test]
    fn containers_created_from_schema() {
        let db = db();
        assert_eq!(db.entity_classes().count(), 5);
        assert_eq!(
            db.activities().collect::<Vec<_>>(),
            vec!["Create", "Simulate"]
        );
        assert_eq!(db.output_class_of("Create"), Some("netlist"));
        assert!(db.entity_container("netlist").unwrap().is_empty());
        assert!(db.schedule_container("Simulate").unwrap().is_empty());
        assert!(db.entity_container("nonsense").is_none());
    }

    #[test]
    fn run_produces_versioned_instances() {
        let mut db = db();
        let d1 = db.store_data("v1.net", b"a".to_vec());
        let d2 = db.store_data("v2.net", b"bb".to_vec());
        let r1 = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        let e1 = db
            .finish_run(r1, "netlist", d1, WorkDays::new(1.0), &[])
            .unwrap();
        let r2 = db.begin_run("Create", "alice", WorkDays::new(1.0)).unwrap();
        let e2 = db
            .finish_run(r2, "netlist", d2, WorkDays::new(2.0), &[])
            .unwrap();
        assert_eq!(db.entity_instance(e1).version(), 1);
        assert_eq!(db.entity_instance(e2).version(), 2);
        assert_eq!(db.run(r2).iteration(), 2);
        assert_eq!(db.entity_container("netlist").unwrap().len(), 2);
        assert_eq!(db.entity_count(), 2);
        assert_eq!(db.data_object(d2).size(), 2);
        assert_eq!(&*db.data_content(d2).unwrap(), b"bb");
    }

    #[test]
    fn finish_run_validates() {
        let mut db = db();
        let data = db.store_data("x", vec![]);
        let run = db.begin_run("Create", "alice", WorkDays::new(1.0)).unwrap();
        // Wrong class for the activity.
        assert!(matches!(
            db.finish_run(run, "performance", data, WorkDays::new(2.0), &[]),
            Err(MetadataError::WrongOutputClass { .. })
        ));
        // Time travel.
        assert!(matches!(
            db.finish_run(run, "netlist", data, WorkDays::ZERO, &[]),
            Err(MetadataError::InvalidTimestamps { .. })
        ));
        // Unknown input instance.
        assert!(matches!(
            db.finish_run(
                run,
                "netlist",
                data,
                WorkDays::new(2.0),
                &[EntityInstanceId::new(9, 0)]
            ),
            Err(MetadataError::UnknownId(_))
        ));
        // Happy path then double finish.
        db.finish_run(run, "netlist", data, WorkDays::new(2.0), &[])
            .unwrap();
        assert!(matches!(
            db.finish_run(run, "netlist", data, WorkDays::new(3.0), &[]),
            Err(MetadataError::RunAlreadyFinished(_))
        ));
    }

    #[test]
    fn unknown_activity_rejected() {
        let mut db = db();
        assert!(matches!(
            db.begin_run("Fabricate", "alice", WorkDays::ZERO),
            Err(MetadataError::UnknownActivity(_))
        ));
    }

    #[test]
    fn supply_input_has_no_run() {
        let mut db = db();
        let data = db.store_data("vectors.stim", b"0101".to_vec());
        let e = db
            .supply_input("stimuli", "bob", WorkDays::ZERO, data)
            .unwrap();
        assert_eq!(db.entity_instance(e).produced_by(), None);
        assert!(db
            .supply_input("ghost", "bob", WorkDays::ZERO, data)
            .is_err());
    }

    #[test]
    fn planning_creates_versions_with_provenance() {
        let mut db = db();
        let s1 = db.begin_planning(WorkDays::ZERO);
        let sc1 = db
            .plan_activity(s1, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        let s2 = db.begin_planning(WorkDays::new(3.0));
        let sc2 = db
            .plan_activity(s2, "Create", WorkDays::new(1.0), WorkDays::new(2.0))
            .unwrap();
        assert_eq!(db.schedule_instance(sc1).version(), 1);
        assert_eq!(db.schedule_instance(sc2).version(), 2);
        assert_eq!(db.schedule_instance(sc2).derived_from(), Some(sc1));
        assert_eq!(db.current_plan("Create").unwrap().id(), sc2);
        assert_eq!(db.planning_session(s2).instances(), [sc2]);
        assert_eq!(db.schedule_count(), 2);
        assert_eq!(db.planning_sessions().len(), 2);
    }

    #[test]
    fn plan_unknown_activity_or_session() {
        let mut db = db();
        let s = db.begin_planning(WorkDays::ZERO);
        assert!(db
            .plan_activity(s, "ghost", WorkDays::ZERO, WorkDays::ZERO)
            .is_err());
        assert!(db
            .plan_activity(
                PlanningSessionId::new(9, 0),
                "Create",
                WorkDays::ZERO,
                WorkDays::ZERO
            )
            .is_err());
    }

    #[test]
    fn assignment() {
        let mut db = db();
        let s = db.begin_planning(WorkDays::ZERO);
        let sc = db
            .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(1.0))
            .unwrap();
        db.assign(sc, "carol").unwrap();
        assert_eq!(db.schedule_instance(sc).assignees(), [Arc::from("carol")]);
        assert!(db.assign(ScheduleInstanceId::new(5, 0), "x").is_err());
    }

    fn carried() -> (MetadataDb, ScheduleInstanceId, ScheduleInstanceId) {
        let mut db = db();
        let s1 = db.begin_planning(WorkDays::ZERO);
        let v1 = db
            .plan_activity(s1, "Create", WorkDays::new(1.0), WorkDays::new(2.0))
            .unwrap();
        db.assign(v1, "alice").unwrap();
        let s2 = db.begin_planning(WorkDays::new(0.5));
        let v2 = db.carry_plan(s2, &[v1]).unwrap();
        (db, v1, v2[0])
    }

    #[test]
    fn carry_mints_a_version_sharing_its_predecessors_body() {
        let (db, v1, v2) = carried();
        let (old, new) = (db.schedule_instance(v1), db.schedule_instance(v2));
        assert_eq!(new.version(), 2);
        assert_eq!(new.derived_from(), Some(v1));
        assert_eq!(new.session().index(), 1);
        assert_eq!(db.planning_session(new.session()).instances(), [v2]);
        assert_eq!(
            (new.planned_start(), new.planned_duration(), new.assignees()),
            (old.planned_start(), old.planned_duration(), old.assignees())
        );
        assert!(Arc::ptr_eq(&old.body, &new.body));
        assert_eq!(db.current_plan("Create").unwrap().id(), v2);
        assert_eq!((db.schedule_count(), db.plan_body_count()), (2, 1));
        db.check_invariants().unwrap();
    }

    #[test]
    fn assign_copies_a_shared_body_before_changing_it() {
        let (mut db, v1, v2) = carried();
        db.assign(v2, "bob").unwrap();
        assert_eq!(db.schedule_instance(v1).assignees(), [Arc::from("alice")]);
        assert_eq!(
            db.schedule_instance(v2).assignees(),
            [Arc::from("alice"), Arc::from("bob")]
        );
        assert_eq!(db.plan_body_count(), 2);
    }

    #[test]
    fn carry_refusals_are_typed_and_not_journaled() {
        let (mut db, v1, v2) = carried();
        db.enable_journal();
        let before = db.journal().unwrap().len();
        let s = db.begin_planning(WorkDays::ZERO);
        assert!(matches!(
            db.carry_plan(PlanningSessionId::new(9, 0), &[v2]),
            Err(MetadataError::UnknownId(_))
        ));
        assert!(matches!(
            db.carry_plan(s.with_gen(1), &[v2]),
            Err(MetadataError::StaleHandle(_))
        ));
        assert!(matches!(
            db.carry_plan(s, &[v2.with_gen(1)]),
            Err(MetadataError::StaleHandle(_))
        ));
        assert!(matches!(
            db.carry_plan(s, &[ScheduleInstanceId::new(9, 0)]),
            Err(MetadataError::CannotCarry(_))
        ));
        assert!(matches!(
            db.carry_plan(s, &[v1]),
            Err(MetadataError::CannotCarry(_))
        ));
        assert!(matches!(
            db.carry_plan(s, &[v2, v2]),
            Err(MetadataError::CannotCarry(_))
        ));
        assert_eq!(
            db.journal().unwrap().len(),
            before + 1,
            "begin-planning only"
        );
        assert_eq!(db.schedule_count(), 2);
        // Nothing to carry is no mutation at all.
        assert_eq!(db.carry_plan(s, &[]).unwrap(), []);
        assert_eq!(db.journal().unwrap().len(), before + 1);
    }

    #[test]
    fn completion_link_happy_path() {
        let mut db = db();
        let s = db.begin_planning(WorkDays::ZERO);
        let sc = db
            .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        let data = db.store_data("x.net", vec![]);
        let run = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        let e = db
            .finish_run(run, "netlist", data, WorkDays::new(1.0), &[])
            .unwrap();
        db.link_completion(sc, e).unwrap();
        assert!(db.schedule_instance(sc).is_complete());
        assert_eq!(db.actual_start("Create"), Some(WorkDays::ZERO));
        assert_eq!(db.actual_finish("Create"), Some(WorkDays::new(1.0)));
    }

    #[test]
    fn completion_link_rejects_wrong_activity() {
        let mut db = db();
        let s = db.begin_planning(WorkDays::ZERO);
        let sc_sim = db
            .plan_activity(s, "Simulate", WorkDays::ZERO, WorkDays::new(1.0))
            .unwrap();
        let data = db.store_data("x.net", vec![]);
        let run = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        let e = db
            .finish_run(run, "netlist", data, WorkDays::new(1.0), &[])
            .unwrap();
        // e is a netlist from Create; cannot complete Simulate with it.
        assert!(matches!(
            db.link_completion(sc_sim, e),
            Err(MetadataError::MismatchedLink { .. })
        ));
    }

    #[test]
    fn completion_link_rejects_primary_input_and_double_link() {
        let mut db = db();
        let s = db.begin_planning(WorkDays::ZERO);
        let sc = db
            .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(1.0))
            .unwrap();
        let data = db.store_data("x", vec![]);
        // A supplied input has no producing run — not a valid result.
        let supplied = db
            .supply_input("netlist", "bob", WorkDays::ZERO, data)
            .unwrap();
        assert!(matches!(
            db.link_completion(sc, supplied),
            Err(MetadataError::MismatchedLink { .. })
        ));
        let run = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        let e = db
            .finish_run(run, "netlist", data, WorkDays::new(1.0), &[])
            .unwrap();
        db.link_completion(sc, e).unwrap();
        assert!(matches!(
            db.link_completion(sc, e),
            Err(MetadataError::AlreadyLinked(_))
        ));
    }

    #[test]
    fn actuals_absent_until_linked() {
        let mut db = db();
        assert_eq!(db.actual_start("Create"), None);
        let s = db.begin_planning(WorkDays::ZERO);
        db.plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(1.0))
            .unwrap();
        let data = db.store_data("x", vec![]);
        let run = db.begin_run("Create", "alice", WorkDays::new(0.5)).unwrap();
        db.finish_run(run, "netlist", data, WorkDays::new(1.5), &[])
            .unwrap();
        assert_eq!(db.actual_start("Create"), Some(WorkDays::new(0.5)));
        // Finished a run, but the designer has not declared completion.
        assert_eq!(db.actual_finish("Create"), None);
    }

    #[test]
    fn display_summarises_counts() {
        let db = db();
        assert!(db.to_string().contains("0 entity instances"));
    }

    #[test]
    fn stale_handles_rejected_after_generation_bump() {
        let mut db = db();
        let s = db.begin_planning(WorkDays::ZERO);
        let sc = db
            .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(1.0))
            .unwrap();
        let data = db.store_data("x", vec![]);
        let run = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        assert_eq!(db.generation(), 0);
        // Simulate a compaction bumping the generation: every handle
        // minted above is now stale even though its slot still resolves.
        db.generation = 1;
        assert!(matches!(
            db.finish_run(run, "netlist", data, WorkDays::new(1.0), &[]),
            Err(MetadataError::StaleHandle(_))
        ));
        assert!(matches!(
            db.assign(sc, "carol"),
            Err(MetadataError::StaleHandle(_))
        ));
        assert!(matches!(
            db.plan_activity(s, "Create", WorkDays::ZERO, WorkDays::ZERO),
            Err(MetadataError::StaleHandle(_))
        ));
        assert!(matches!(
            db.supply_input("stimuli", "bob", WorkDays::ZERO, data),
            Err(MetadataError::StaleHandle(_))
        ));
        // Fresh handles minted at the new generation work.
        let data2 = db.store_data("y", vec![]);
        assert_eq!(data2.generation(), 1);
        let run2 = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        let e2 = db
            .finish_run(run2, "netlist", data2, WorkDays::new(1.0), &[])
            .unwrap();
        let s2 = db.begin_planning(WorkDays::new(1.0));
        let sc2 = db
            .plan_activity(s2, "Create", WorkDays::ZERO, WorkDays::new(1.0))
            .unwrap();
        db.link_completion(sc2, e2).unwrap();
    }
}
