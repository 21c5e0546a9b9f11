use std::fmt;
use std::sync::Arc;

use schedule::WorkDays;

use crate::ids::{DataObjectId, EntityInstanceId, PlanningSessionId, RunId, ScheduleInstanceId};
use crate::segment::Extent;

/// Level-4 actual design data — the bytes a tool produced.
///
/// In the real Hercules this is a pointer into the design-data store.
/// Here it is either held inline (an in-memory database, or data not
/// yet written out) or, in a persistent store, an [`Extent`] in the
/// store's data segment: Level-3 metadata *links to* Level-4 data
/// rather than containing it. Read the bytes with
/// [`MetadataDb::data_content`](crate::MetadataDb::data_content).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataObject {
    id: DataObjectId,
    name: String,
    pub(crate) body: DataBody,
}

/// Where a [`DataObject`]'s bytes are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DataBody {
    /// Held in memory.
    Inline(Vec<u8>),
    /// In the store's data segment.
    Stored(Extent),
}

impl DataObject {
    pub(crate) fn new(id: DataObjectId, name: String, body: DataBody) -> Self {
        DataObject { id, name, body }
    }

    /// Restamps the object's id at generation `gen`.
    pub(crate) fn restamp(&mut self, gen: u32) {
        self.id = self.id.with_gen(gen);
    }

    /// This object's id.
    pub fn id(&self) -> DataObjectId {
        self.id
    }

    /// File-like name of the datum, e.g. `"counter.net"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Where the bytes live in the store's data segment, once written
    /// there; `None` while they are held in memory.
    pub fn extent(&self) -> Option<Extent> {
        match self.body {
            DataBody::Inline(_) => None,
            DataBody::Stored(extent) => Some(extent),
        }
    }

    /// Content size in bytes. Needs no I/O.
    pub fn size(&self) -> usize {
        match &self.body {
            DataBody::Inline(bytes) => bytes.len(),
            DataBody::Stored(extent) => extent.len as usize,
        }
    }
}

impl fmt::Display for DataObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?} ({} bytes)", self.id, self.name, self.size())
    }
}

/// Level-3 execution metadata for one version of one entity.
///
/// Created when a run of an activity completes: records *when* the
/// datum was produced, *by whom*, which run produced it, which other
/// instances it was derived from, and where the Level-4 data lives.
/// The class name is shared with the database's entity container, the
/// creator's with its designer table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityInstance {
    id: EntityInstanceId,
    pub(crate) class: Arc<str>,
    version: u32,
    created_at: WorkDays,
    pub(crate) creator: Arc<str>,
    produced_by: Option<RunId>,
    depends_on: Vec<EntityInstanceId>,
    data: DataObjectId,
}

impl EntityInstance {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: EntityInstanceId,
        class: Arc<str>,
        version: u32,
        created_at: WorkDays,
        creator: Arc<str>,
        produced_by: Option<RunId>,
        depends_on: Vec<EntityInstanceId>,
        data: DataObjectId,
    ) -> Self {
        EntityInstance {
            id,
            class,
            version,
            created_at,
            creator,
            produced_by,
            depends_on,
            data,
        }
    }

    /// Restamps every id the instance holds at generation `gen`.
    pub(crate) fn restamp(&mut self, gen: u32) {
        self.id = self.id.with_gen(gen);
        self.produced_by = self.produced_by.map(|run| run.with_gen(gen));
        for dep in &mut self.depends_on {
            *dep = dep.with_gen(gen);
        }
        self.data = self.data.with_gen(gen);
    }

    /// This instance's id.
    pub fn id(&self) -> EntityInstanceId {
        self.id
    }

    /// The entity class this instance belongs to.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// Version number within the class container (1-based).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// When the instance was created, as an offset from project start.
    pub fn created_at(&self) -> WorkDays {
        self.created_at
    }

    /// Who created it ("when an activity is performed *and by whom*").
    pub fn creator(&self) -> &str {
        &self.creator
    }

    /// The run that produced it (`None` for designer-supplied primary
    /// inputs like the paper's `stimuli`).
    pub fn produced_by(&self) -> Option<RunId> {
        self.produced_by
    }

    /// Instance dependencies: the exact input instances consumed.
    pub fn depends_on(&self) -> &[EntityInstanceId] {
        &self.depends_on
    }

    /// The Level-4 design data this metadata describes.
    pub fn data(&self) -> DataObjectId {
        self.data
    }
}

impl fmt::Display for EntityInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}@v{} by {} at {}",
            self.id,
            self.class,
            self.version,
            self.creator,
            self.created_at()
        )
    }
}

/// Execution state of a [`Run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Started but not yet finished.
    InProgress,
    /// Finished, producing an output instance.
    Finished,
}

/// One execution of an activity — "tools are not tied to specific
/// tasks and iterations of tasks can be performed", so an activity's
/// container accumulates a run per iteration. The activity name is
/// shared with the database's schedule container, whose slot the run
/// also records, the operator's with its designer table.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    id: RunId,
    pub(crate) activity: Arc<str>,
    /// The slot of the activity's schedule container.
    container: u32,
    pub(crate) operator: Arc<str>,
    iteration: u32,
    started_at: WorkDays,
    finished_at: Option<WorkDays>,
    output: Option<EntityInstanceId>,
}

impl Run {
    pub(crate) fn new(
        id: RunId,
        activity: Arc<str>,
        container: usize,
        operator: Arc<str>,
        iteration: u32,
        started_at: WorkDays,
    ) -> Self {
        Run {
            id,
            activity,
            container: container as u32,
            operator,
            iteration,
            started_at,
            finished_at: None,
            output: None,
        }
    }

    /// Restamps every id the run holds at generation `gen`.
    pub(crate) fn restamp(&mut self, gen: u32) {
        self.id = self.id.with_gen(gen);
        self.output = self.output.map(|out| out.with_gen(gen));
    }

    pub(crate) fn finish(&mut self, finished_at: WorkDays, output: EntityInstanceId) {
        self.finished_at = Some(finished_at);
        self.output = Some(output);
    }

    /// This run's id.
    pub fn id(&self) -> RunId {
        self.id
    }

    /// The activity executed.
    pub fn activity(&self) -> &str {
        &self.activity
    }

    /// The slot of the activity's schedule container.
    pub(crate) fn container(&self) -> usize {
        self.container as usize
    }

    /// The designer who ran it.
    pub fn operator(&self) -> &str {
        &self.operator
    }

    /// 1-based iteration count of this activity.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// Start offset from project start.
    pub fn started_at(&self) -> WorkDays {
        self.started_at
    }

    /// Finish offset, once finished.
    pub fn finished_at(&self) -> Option<WorkDays> {
        self.finished_at
    }

    /// Elapsed duration, once finished.
    pub fn duration(&self) -> Option<WorkDays> {
        self.finished_at()
            .map(|f| f.saturating_sub(self.started_at()))
    }

    /// The produced entity instance, once finished.
    pub fn output(&self) -> Option<EntityInstanceId> {
        self.output
    }

    /// Current state.
    pub fn state(&self) -> RunState {
        if self.finished_at.is_some() {
            RunState::Finished
        } else {
            RunState::InProgress
        }
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.finished_at() {
            Some(end) => write!(
                f,
                "{} {}#{} by {} [{} .. {}]",
                self.id,
                self.activity,
                self.iteration,
                self.operator,
                self.started_at(),
                end
            ),
            None => write!(
                f,
                "{} {}#{} by {} [{} ..)",
                self.id,
                self.activity,
                self.iteration,
                self.operator,
                self.started_at()
            ),
        }
    }
}

/// Level-3 *schedule* data for one planned version of one activity —
/// the mirror of [`EntityInstance`] in the schedule space.
///
/// Records when the activity *should* run, for how long, and who is
/// assigned; once the designer declares the activity done, a link to
/// the final [`EntityInstance`] connects plan to reality.
///
/// Every plan and replan adds versions, so instances are kept compact.
/// What a version proposes — activity, start, duration, assignees — is
/// its *plan body*, held behind a shared pointer: a version carried
/// unchanged from its predecessor shares the predecessor's body instead
/// of copying it, and [`MetadataDb::assign`](crate::MetadataDb::assign)
/// copies a shared body before changing it. Within a body the activity
/// name is shared with the database's schedule container, designer
/// names with the database's designer table, and a single assignee is
/// held inline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleInstance {
    id: ScheduleInstanceId,
    version: u32,
    /// The slot of the activity's schedule container.
    container: u32,
    session: PlanningSessionId,
    pub(crate) body: Arc<PlanBody>,
    derived_from: Option<ScheduleInstanceId>,
    linked_entity: Option<EntityInstanceId>,
}

/// What one schedule-instance version proposes. Equal bodies of
/// consecutive versions are one allocation (see [`ScheduleInstance`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanBody {
    pub(crate) activity: Arc<str>,
    planned_start: WorkDays,
    planned_duration: WorkDays,
    assignees: Assignees,
}

/// The designers assigned to one schedule instance, sharing the
/// database's designer names: none or one held inline, two or more
/// spilled to the heap, so a clone of a set of at most one designer
/// allocates nothing. Reads as a slice.
#[derive(Debug, Clone)]
pub struct Assignees(AssigneeSet);

#[derive(Debug, Clone)]
enum AssigneeSet {
    Inline(Option<Arc<str>>),
    Spilled(Vec<Arc<str>>),
}

impl Default for Assignees {
    /// No designer.
    fn default() -> Self {
        Assignees(AssigneeSet::Inline(None))
    }
}

impl Assignees {
    fn push(&mut self, designer: Arc<str>) {
        match &mut self.0 {
            AssigneeSet::Inline(None) => self.0 = AssigneeSet::Inline(Some(designer)),
            AssigneeSet::Inline(Some(first)) => {
                self.0 = AssigneeSet::Spilled(vec![Arc::clone(first), designer]);
            }
            AssigneeSet::Spilled(all) => all.push(designer),
        }
    }
}

impl std::ops::Deref for Assignees {
    type Target = [Arc<str>];

    fn deref(&self) -> &[Arc<str>] {
        match &self.0 {
            AssigneeSet::Inline(one) => one.as_slice(),
            AssigneeSet::Spilled(all) => all,
        }
    }
}

impl PartialEq for Assignees {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl PlanBody {
    pub(crate) fn new(
        activity: Arc<str>,
        planned_start: WorkDays,
        planned_duration: WorkDays,
    ) -> Self {
        PlanBody {
            activity,
            planned_start,
            planned_duration,
            assignees: Assignees::default(),
        }
    }

    /// Adds `designer` unless already assigned.
    pub(crate) fn assign(&mut self, designer: Arc<str>) {
        if !self.assignees.contains(&designer) {
            self.assignees.push(designer);
        }
    }
}

impl ScheduleInstance {
    /// A version holding `body` — shared with its predecessor when the
    /// version is carried unchanged.
    pub(crate) fn new(
        id: ScheduleInstanceId,
        version: u32,
        container: usize,
        session: PlanningSessionId,
        body: Arc<PlanBody>,
        derived_from: Option<ScheduleInstanceId>,
    ) -> Self {
        ScheduleInstance {
            id,
            version,
            container: container as u32,
            session,
            body,
            derived_from,
            linked_entity: None,
        }
    }

    /// Restamps every id the version holds at generation `gen`.
    pub(crate) fn restamp(&mut self, gen: u32) {
        self.id = self.id.with_gen(gen);
        self.session = self.session.with_gen(gen);
        self.derived_from = self.derived_from.map(|sc| sc.with_gen(gen));
        self.linked_entity = self.linked_entity.map(|e| e.with_gen(gen));
    }

    pub(crate) fn assign(&mut self, designer: Arc<str>) {
        if !self.assignees().contains(&designer) {
            Arc::make_mut(&mut self.body).assign(designer);
        }
    }

    pub(crate) fn set_link(&mut self, entity: EntityInstanceId) {
        self.linked_entity = Some(entity);
    }

    /// This schedule instance's id.
    pub fn id(&self) -> ScheduleInstanceId {
        self.id
    }

    /// The slot of the activity's schedule container.
    pub(crate) fn container(&self) -> usize {
        self.container as usize
    }

    /// The planned activity.
    pub fn activity(&self) -> &str {
        &self.body.activity
    }

    /// Version within the activity's schedule container (1-based) —
    /// "different versions of schedule instances for each task can be
    /// generated... the schedule plan can be updated at any time".
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The planning session that created this instance.
    pub fn session(&self) -> PlanningSessionId {
        self.session
    }

    /// Proposed start offset from project start.
    pub fn planned_start(&self) -> WorkDays {
        self.body.planned_start
    }

    /// Proposed duration.
    pub fn planned_duration(&self) -> WorkDays {
        self.body.planned_duration
    }

    /// Proposed finish offset.
    pub fn planned_finish(&self) -> WorkDays {
        self.planned_start() + self.planned_duration()
    }

    /// Designers assigned to the activity.
    pub fn assignees(&self) -> &[Arc<str>] {
        &self.body.assignees
    }

    /// The assigned designers as a shared set — for holders that outlive
    /// a borrow of the database. Cloning it allocates only for two or
    /// more designers.
    pub fn shared_assignees(&self) -> Assignees {
        self.body.assignees.clone()
    }

    /// Whether this version proposes exactly `start`, `duration` and
    /// `assignees` (in order), so a proposal this returns `true` for
    /// would be stored as this version's very plan.
    pub fn proposes(&self, start: WorkDays, duration: WorkDays, assignees: &[&str]) -> bool {
        self.body.planned_start == start
            && self.body.planned_duration == duration
            && self
                .assignees()
                .iter()
                .map(|a| &**a)
                .eq(assignees.iter().copied())
    }

    /// The prior schedule instance this plan was derived from, if any —
    /// the provenance chain behind "which schedule plans were used to
    /// create the present schedule plan".
    pub fn derived_from(&self) -> Option<ScheduleInstanceId> {
        self.derived_from
    }

    /// The final entity instance, once the designer linked completion.
    pub fn linked_entity(&self) -> Option<EntityInstanceId> {
        self.linked_entity
    }

    /// Whether the activity has been declared complete.
    pub fn is_complete(&self) -> bool {
        self.linked_entity.is_some()
    }
}

impl fmt::Display for ScheduleInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}@v{} [{} + {}]",
            self.id,
            self.activity(),
            self.version,
            self.planned_start(),
            self.planned_duration()
        )?;
        if let Some(e) = self.linked_entity {
            write!(f, " -> {e}")?;
        }
        Ok(())
    }
}

/// A planning session — the schedule-space analog of a [`Run`]. One
/// simulated execution of the flow produces one session grouping the
/// schedule instances it created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanningSession {
    id: PlanningSessionId,
    created_at: WorkDays,
    instances: Vec<ScheduleInstanceId>,
}

impl PlanningSession {
    pub(crate) fn new(id: PlanningSessionId, created_at: WorkDays) -> Self {
        PlanningSession {
            id,
            created_at,
            instances: Vec::new(),
        }
    }

    /// Restamps every id the session holds at generation `gen`.
    pub(crate) fn restamp(&mut self, gen: u32) {
        self.id = self.id.with_gen(gen);
        for sc in &mut self.instances {
            *sc = sc.with_gen(gen);
        }
    }

    pub(crate) fn push(&mut self, instance: ScheduleInstanceId) {
        self.instances.push(instance);
    }

    /// This session's id.
    pub fn id(&self) -> PlanningSessionId {
        self.id
    }

    /// When planning happened, as an offset from project start.
    pub fn created_at(&self) -> WorkDays {
        self.created_at
    }

    /// Schedule instances created by this session, in planning order.
    pub fn instances(&self) -> &[ScheduleInstanceId] {
        &self.instances
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_object_accessors() {
        let d = DataObject::new(
            DataObjectId::new(0, 0),
            "x.net".into(),
            DataBody::Inline(vec![1, 2, 3]),
        );
        assert_eq!(d.size(), 3);
        assert_eq!(d.name(), "x.net");
        assert_eq!(d.extent(), None);
        assert!(d.to_string().contains("3 bytes"));
        let extent = Extent {
            offset: 10,
            len: 5,
            crc: 7,
        };
        let stored = DataObject::new(d.id(), "y.net".into(), DataBody::Stored(extent));
        assert_eq!(stored.size(), 5);
        assert_eq!(stored.extent(), Some(extent));
    }

    #[test]
    fn run_lifecycle() {
        let mut run = Run::new(
            RunId::new(0, 0),
            "Simulate".into(),
            0,
            "bob".into(),
            1,
            WorkDays::new(2.0),
        );
        assert_eq!(run.state(), RunState::InProgress);
        assert_eq!(run.duration(), None);
        assert!(run.to_string().ends_with("..)"));
        run.finish(WorkDays::new(3.5), EntityInstanceId::new(0, 0));
        assert_eq!(run.state(), RunState::Finished);
        assert_eq!(run.duration(), Some(WorkDays::new(1.5)));
        assert_eq!(run.output(), Some(EntityInstanceId::new(0, 0)));
    }

    #[test]
    fn schedule_instance_dates() {
        let body = PlanBody::new("Create".into(), WorkDays::new(1.0), WorkDays::new(2.0));
        let sc = ScheduleInstance::new(
            ScheduleInstanceId::new(0, 0),
            1,
            0,
            PlanningSessionId::new(0, 0),
            Arc::new(body),
            None,
        );
        assert_eq!(sc.planned_finish(), WorkDays::new(3.0));
        assert!(!sc.is_complete());
        assert_eq!(sc.derived_from(), None);
    }

    #[test]
    fn assign_is_idempotent() {
        let body = PlanBody::new("Create".into(), WorkDays::ZERO, WorkDays::ZERO);
        let mut sc = ScheduleInstance::new(
            ScheduleInstanceId::new(0, 0),
            1,
            0,
            PlanningSessionId::new(0, 0),
            Arc::new(body),
            None,
        );
        sc.assign("alice".into());
        sc.assign("alice".into());
        assert_eq!(sc.assignees(), [Arc::from("alice")]);
        sc.assign("bob".into());
        assert_eq!(sc.assignees(), [Arc::from("alice"), Arc::from("bob")]);
    }

    #[test]
    fn proposes_compares_dates_in_millidays_and_every_assignee() {
        let mut body = PlanBody::new("Create".into(), WorkDays::new(1.0), WorkDays::new(2.0));
        body.assign("alice".into());
        let sc = ScheduleInstance::new(
            ScheduleInstanceId::new(0, 0),
            1,
            0,
            PlanningSessionId::new(0, 0),
            Arc::new(body),
            None,
        );
        let (start, duration) = (WorkDays::new(1.0), WorkDays::new(2.0));
        assert!(sc.proposes(start, duration, &["alice"]));
        assert!(sc.proposes(WorkDays::new(1.0004), duration, &["alice"]));
        assert!(!sc.proposes(WorkDays::new(1.001), duration, &["alice"]));
        assert!(!sc.proposes(start, WorkDays::new(2.5), &["alice"]));
        assert!(!sc.proposes(start, duration, &["bob"]));
        assert!(!sc.proposes(start, duration, &[]));
        assert!(!sc.proposes(start, duration, &["alice", "bob"]));
    }

    #[test]
    fn versions_share_name_allocations() {
        let mut db = crate::MetadataDb::for_schema(&schema::examples::circuit_design());
        let s = db.begin_planning(WorkDays::ZERO);
        let mut plan = || {
            let sc = db
                .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(1.0))
                .unwrap();
            db.assign(sc, "alice").unwrap();
            sc
        };
        let (first, second) = (plan(), plan());
        let v1 = &db.schedules[first.index()];
        let v2 = &db.schedules[second.index()];
        assert_eq!(v2.derived_from(), Some(first));
        assert!(Arc::ptr_eq(&v1.body.activity, &v2.body.activity));
        assert!(Arc::ptr_eq(&v1.assignees()[0], &v2.assignees()[0]));
    }

    #[test]
    fn entity_instance_display() {
        let e = EntityInstance::new(
            EntityInstanceId::new(4, 0),
            "netlist".into(),
            2,
            WorkDays::new(1.0),
            "alice".into(),
            Some(RunId::new(1, 0)),
            vec![EntityInstanceId::new(0, 0)],
            DataObjectId::new(7, 0),
        );
        let s = e.to_string();
        assert!(s.contains("netlist@v2"));
        assert!(s.contains("alice"));
        assert_eq!(e.depends_on(), [EntityInstanceId::new(0, 0)]);
    }
}
