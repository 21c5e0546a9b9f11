//! The latency model B12 (`workspace_concurrent`) and B13
//! (`serve_load`) share: a project store whose commits take time.
//!
//! Both kernels measure lock granularity, not CPU parallelism. A write
//! session holds its project's exclusive lock while its commit reaches
//! disk; sessions on different projects overlap those waits under the
//! workspace's per-project locks, so throughput rises with the thread
//! or worker count even on one core. The wait lives in the store
//! ([`slow_manager`]), not in the workspace or the server, so the code
//! both kernels drive is the production path.

use std::path::Path;
use std::time::Duration;

use hercules::Hercules;
use metadata::{
    ArenaStore, CompactionStats, DataObjectId, EntityInstanceId, Journal, MetadataDb,
    MetadataError, PlanningSessionId, RunId, ScheduleInstanceId, Store, StoreError,
};
use schedule::WorkDays;
use schema::examples;
use simtools::workload::Team;
use simtools::ToolLibrary;

/// Simulated commit latency burned under the project lock each time a
/// write group closes. Long enough to dominate the CPU cost of an
/// incremental replan even in unoptimized builds (so the scaling gates
/// measure lock granularity, not build profile), short enough to keep
/// the full sampling plans under a few seconds.
pub const SESSION_LATENCY: Duration = Duration::from_millis(1);

/// An ASIC-flow manager with a three-designer team, seeded with `seed`,
/// over a journaled in-memory store that sleeps [`SESSION_LATENCY`]
/// each time a write group closes. Apart from that latency it is the
/// manager `Workspace::create_project` builds.
pub fn slow_manager(seed: u64) -> Hercules {
    let schema = examples::asic_flow();
    let mut inner = ArenaStore::new(MetadataDb::for_schema(&schema));
    inner.enable_journal();
    Hercules::with_store(
        schema,
        ToolLibrary::standard(),
        Team::of_size(3),
        seed,
        Box::new(SlowCommits { inner, depth: 0 }),
    )
}

/// An in-memory store whose writes take time: closing the outermost
/// write group sleeps [`SESSION_LATENCY`], where a durable store would
/// wait for its append to reach disk. A planning pass is one write
/// group, so each replan or plan pays the latency once, under its
/// project's write lock. Every other call passes straight through
/// to the wrapped [`ArenaStore`].
#[derive(Debug, Clone)]
struct SlowCommits {
    inner: ArenaStore,
    depth: u32,
}

impl Store for SlowCommits {
    fn db(&self) -> &MetadataDb {
        self.inner.db()
    }
    fn declare_entity_container(&mut self, class: &str) {
        self.inner.declare_entity_container(class);
    }
    fn declare_schedule_container(&mut self, activity: &str, output_class: &str) {
        self.inner
            .declare_schedule_container(activity, output_class);
    }
    fn store_data(&mut self, name: &str, content: Vec<u8>) -> DataObjectId {
        self.inner.store_data(name, content)
    }
    fn begin_run(
        &mut self,
        activity: &str,
        operator: &str,
        started_at: WorkDays,
    ) -> Result<RunId, MetadataError> {
        self.inner.begin_run(activity, operator, started_at)
    }
    fn finish_run(
        &mut self,
        run: RunId,
        output_class: &str,
        data: DataObjectId,
        finished_at: WorkDays,
        inputs: &[EntityInstanceId],
    ) -> Result<EntityInstanceId, MetadataError> {
        self.inner
            .finish_run(run, output_class, data, finished_at, inputs)
    }
    fn supply_input(
        &mut self,
        class: &str,
        creator: &str,
        created_at: WorkDays,
        data: DataObjectId,
    ) -> Result<EntityInstanceId, MetadataError> {
        self.inner.supply_input(class, creator, created_at, data)
    }
    fn begin_planning(&mut self, at: WorkDays) -> PlanningSessionId {
        self.inner.begin_planning(at)
    }
    fn plan_activity(
        &mut self,
        session: PlanningSessionId,
        activity: &str,
        planned_start: WorkDays,
        planned_duration: WorkDays,
    ) -> Result<ScheduleInstanceId, MetadataError> {
        self.inner
            .plan_activity(session, activity, planned_start, planned_duration)
    }
    fn carry_plan(
        &mut self,
        session: PlanningSessionId,
        from: &[ScheduleInstanceId],
    ) -> Result<Vec<ScheduleInstanceId>, MetadataError> {
        self.inner.carry_plan(session, from)
    }
    fn assign(
        &mut self,
        schedule: ScheduleInstanceId,
        designer: &str,
    ) -> Result<(), MetadataError> {
        self.inner.assign(schedule, designer)
    }
    fn link_completion(
        &mut self,
        schedule: ScheduleInstanceId,
        entity: EntityInstanceId,
    ) -> Result<(), MetadataError> {
        self.inner.link_completion(schedule, entity)
    }
    fn begin_write_group(&mut self) {
        self.depth += 1;
    }
    fn end_write_group(&mut self) -> Result<(), MetadataError> {
        self.depth = self.depth.saturating_sub(1);
        if self.depth == 0 {
            std::thread::sleep(SESSION_LATENCY);
        }
        Ok(())
    }
    fn enable_journal(&mut self) {
        self.inner.enable_journal();
    }
    fn take_journal(&mut self) -> Option<Journal> {
        self.inner.take_journal()
    }
    fn inject_crash_after(&mut self, after: u32) {
        self.inner.inject_crash_after(after);
    }
    fn disarm_crash(&mut self) {
        self.inner.disarm_crash();
    }
    fn replace_db(&mut self, db: MetadataDb) -> Result<(), StoreError> {
        self.inner.replace_db(db)
    }
    fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.inner.checkpoint()
    }
    fn compact(&mut self) -> Result<CompactionStats, StoreError> {
        self.inner.compact()
    }
    fn boxed_clone(&self) -> Box<dyn Store> {
        Box::new(self.clone())
    }
    fn path(&self) -> Option<&Path> {
        None
    }
}
