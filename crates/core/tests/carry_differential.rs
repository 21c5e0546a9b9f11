//! Differential test for carried plan versions: a planning pass whose
//! proposal for an activity equals its current plan writes one
//! `carry-plan` record for each run of such activities instead of a
//! `plan-activity` + `assign` pair per activity. The logical state must
//! not notice.
//!
//! Seeded op sequences (plan, replan, set an estimate, execute a
//! prefix of the flow, propagate a slip, gc, crash and reopen) run on
//! two managers over persistent stores on in-memory filesystems:
//!
//! * the **delta** side, a plain [`PersistentStore`];
//! * the **reference** side, [`FullVersions`]: a persistent store whose
//!   `carry_plan` writes every carried version in full through
//!   `plan_activity` + `assign`, as planning did before versions were
//!   carried. Every other `Store` method, write groups and `compact`
//!   included, goes straight to the store it wraps, so both sides
//!   write under the same grouping and compact the same way.
//!
//! After every step the two databases dump byte-identically, every op
//! returns the same result on both, and reopening the delta store from
//! its files yields the live state with the same number of distinct
//! plan bodies.

use std::path::Path;
use std::sync::Arc;

use hercules::Hercules;
use metadata::framing::decode_tail;
use metadata::{
    CompactionStats, DataObjectId, EntityInstanceId, Journal, JournalOp, MetadataDb, MetadataError,
    PersistentStore, PlanningSessionId, RunId, ScheduleInstanceId, Store, StoreError,
};
use schedule::WorkDays;
use schema::{examples, TaskSchema};
use simtools::rng::SplitMix64;
use simtools::vfs::{MemVfs, Vfs};
use simtools::{workload::Team, ToolLibrary, ToolModel};

const DIR: &str = "/project";
const TARGET: &str = "signoff_report";

/// The reference store: every version in full.
#[derive(Debug)]
struct FullVersions(PersistentStore);

impl Store for FullVersions {
    fn db(&self) -> &MetadataDb {
        self.0.db()
    }
    fn declare_entity_container(&mut self, class: &str) {
        self.0.declare_entity_container(class);
    }
    fn declare_schedule_container(&mut self, activity: &str, output_class: &str) {
        self.0.declare_schedule_container(activity, output_class);
    }
    fn store_data(&mut self, name: &str, content: Vec<u8>) -> DataObjectId {
        self.0.store_data(name, content)
    }
    fn begin_run(
        &mut self,
        activity: &str,
        operator: &str,
        started_at: WorkDays,
    ) -> Result<RunId, MetadataError> {
        self.0.begin_run(activity, operator, started_at)
    }
    fn finish_run(
        &mut self,
        run: RunId,
        output_class: &str,
        data: DataObjectId,
        finished_at: WorkDays,
        inputs: &[EntityInstanceId],
    ) -> Result<EntityInstanceId, MetadataError> {
        self.0
            .finish_run(run, output_class, data, finished_at, inputs)
    }
    fn supply_input(
        &mut self,
        class: &str,
        creator: &str,
        created_at: WorkDays,
        data: DataObjectId,
    ) -> Result<EntityInstanceId, MetadataError> {
        self.0.supply_input(class, creator, created_at, data)
    }
    fn begin_planning(&mut self, at: WorkDays) -> PlanningSessionId {
        self.0.begin_planning(at)
    }
    fn plan_activity(
        &mut self,
        session: PlanningSessionId,
        activity: &str,
        planned_start: WorkDays,
        planned_duration: WorkDays,
    ) -> Result<ScheduleInstanceId, MetadataError> {
        self.0
            .plan_activity(session, activity, planned_start, planned_duration)
    }
    fn carry_plan(
        &mut self,
        session: PlanningSessionId,
        from: &[ScheduleInstanceId],
    ) -> Result<Vec<ScheduleInstanceId>, MetadataError> {
        let mut minted = Vec::with_capacity(from.len());
        for &pred in from {
            let current = self.0.db().schedule_instance(pred);
            let activity = current.activity().to_owned();
            if self.0.db().current_plan(&activity).map(|c| c.id()) != Some(pred) {
                return Err(MetadataError::CannotCarry(pred.to_string()));
            }
            let start = current.planned_start();
            let duration = current.planned_duration();
            let assignees = current.assignees().to_vec();
            let sc = self.0.plan_activity(session, &activity, start, duration)?;
            for designer in assignees {
                self.0.assign(sc, &designer)?;
            }
            minted.push(sc);
        }
        Ok(minted)
    }
    fn assign(
        &mut self,
        schedule: ScheduleInstanceId,
        designer: &str,
    ) -> Result<(), MetadataError> {
        self.0.assign(schedule, designer)
    }
    fn link_completion(
        &mut self,
        schedule: ScheduleInstanceId,
        entity: EntityInstanceId,
    ) -> Result<(), MetadataError> {
        self.0.link_completion(schedule, entity)
    }
    fn enable_journal(&mut self) {
        self.0.enable_journal();
    }
    fn take_journal(&mut self) -> Option<Journal> {
        self.0.take_journal()
    }
    fn inject_crash_after(&mut self, after: u32) {
        self.0.inject_crash_after(after);
    }
    fn disarm_crash(&mut self) {
        self.0.disarm_crash();
    }
    fn replace_db(&mut self, db: MetadataDb) -> Result<(), StoreError> {
        self.0.replace_db(db)
    }
    fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.0.checkpoint()
    }
    fn compact(&mut self) -> Result<CompactionStats, StoreError> {
        self.0.compact()
    }
    fn boxed_clone(&self) -> Box<dyn Store> {
        self.0.boxed_clone()
    }
    fn path(&self) -> Option<&Path> {
        self.0.path()
    }
    fn begin_write_group(&mut self) {
        self.0.begin_write_group();
    }
    fn end_write_group(&mut self) -> Result<(), MetadataError> {
        self.0.end_write_group()
    }
    fn wedged_reason(&self) -> Option<&str> {
        Store::wedged_reason(&self.0)
    }
    fn release_files(&mut self) {
        self.0.release_files();
    }
}

fn schema() -> TaskSchema {
    examples::asic_flow()
}

/// The ASIC flow's tools with small outputs, so every step's dumps stay
/// cheap.
fn tools() -> ToolLibrary {
    let mut tools = ToolLibrary::new();
    for (k, rule) in schema().rules().iter().enumerate() {
        tools.add(
            ToolModel::new(rule.tool(), 1.0 + (k % 4) as f64)
                .with_first_pass_rate(0.6)
                .with_output_bytes(256),
        );
    }
    tools
}

fn manager(store: Box<dyn Store>) -> Hercules {
    Hercules::with_store(schema(), tools(), Team::of_size(2), 11, store)
}

/// One side of the comparison: a manager over a persistent store on
/// its own in-memory filesystem.
struct Side {
    vfs: Arc<MemVfs>,
    full: bool,
    h: Hercules,
}

impl Side {
    fn create(full: bool) -> Side {
        let vfs = MemVfs::new();
        let db = MetadataDb::for_schema(&schema());
        let store = PersistentStore::create_on(vfs.clone() as Arc<dyn Vfs>, DIR, db).unwrap();
        let h = manager(wrap(store, full));
        Side { vfs, full, h }
    }

    fn open(&self) -> PersistentStore {
        PersistentStore::open_on(self.vfs.clone() as Arc<dyn Vfs>, DIR).expect("store reopens")
    }

    /// A process death and restart: the files are all that survive.
    fn restart(&mut self, estimates: &[(String, f64)]) {
        let store = self.open();
        self.h = manager(wrap(store, self.full));
        for (activity, days) in estimates {
            self.h
                .set_estimate(activity, WorkDays::new(*days))
                .expect("known activity");
        }
    }

    /// The records the live tail file holds.
    fn tail_ops(&self) -> Vec<JournalOp> {
        tail_ops(&*self.vfs, self.h.store())
    }
}

fn wrap(store: PersistentStore, full: bool) -> Box<dyn Store> {
    match full {
        true => Box::new(FullVersions(store)),
        false => Box::new(store),
    }
}

fn tail_ops(vfs: &dyn Vfs, store: &dyn Store) -> Vec<JournalOp> {
    let seq = store.db().generation();
    let path = Path::new(DIR).join(format!("tail-{seq}.journal"));
    let scan = decode_tail(&vfs.read_to_string(&path).expect("tail readable"));
    assert_eq!(scan.issue, None);
    scan.journal.ops().to_vec()
}

#[derive(Debug, Clone)]
enum Op {
    Plan,
    Replan,
    SetEstimate(usize, f64),
    ExecutePrefix(usize),
    PropagateSlip(usize),
    Gc,
    Restart,
}

fn random_op(rng: &mut SplitMix64, activities: usize) -> Op {
    let pick = |rng: &mut SplitMix64| rng.next_below(activities as u64) as usize;
    match rng.next_below(10) {
        0..=2 => Op::Plan,
        3 | 4 => Op::Replan,
        5 => Op::SetEstimate(pick(rng), 0.5 + rng.next_below(16) as f64 * 0.75),
        6 => Op::ExecutePrefix(pick(rng)),
        7 => Op::PropagateSlip(pick(rng)),
        8 => Op::Gc,
        _ => Op::Restart,
    }
}

/// Applies `op` to one side, returning its observable result.
fn apply(side: &mut Side, op: &Op, estimates: &[(String, f64)]) -> String {
    let rules = schema().rules().to_vec();
    let h = &mut side.h;
    match op {
        Op::Plan => format!("{:?}", h.plan(TARGET)),
        Op::Replan => format!("{:?}", h.replan(TARGET)),
        Op::SetEstimate(k, days) => format!(
            "{:?}",
            h.set_estimate(rules[*k].activity(), WorkDays::new(*days))
        ),
        Op::ExecutePrefix(k) => format!(
            "{:?}",
            h.execute(rules[*k].output())
                .map(|report| report.finished_at())
        ),
        Op::PropagateSlip(k) => format!("{:?}", h.propagate_slip(rules[*k].activity())),
        Op::Gc => format!("{:?}", h.gc().map(|stats| stats.generation)),
        Op::Restart => {
            side.restart(estimates);
            String::from("restarted")
        }
    }
}

fn run_sequence(seed: u64, steps: usize) {
    let activities = schema().rules().len();
    let mut rng = SplitMix64::new(seed);
    let mut delta = Side::create(false);
    let mut reference = Side::create(true);
    let mut estimates: Vec<(String, f64)> = Vec::new();
    let mut saw_carry = false;
    for step in 0..steps {
        let op = random_op(&mut rng, activities);
        if let Op::SetEstimate(k, days) = &op {
            estimates.push((schema().rules()[*k].activity().to_owned(), *days));
        }
        let got = apply(&mut delta, &op, &estimates);
        let want = apply(&mut reference, &op, &estimates);
        let at = format!("seed {seed} step {step} {op:?}");
        assert_eq!(got, want, "{at}: results differ");
        let live = delta.h.db();
        assert_eq!(live.dump(), reference.h.db().dump(), "{at}: states differ");
        live.check_invariants()
            .unwrap_or_else(|v| panic!("{at}: invariants: {v:?}"));
        let reopened = delta.open();
        assert_eq!(
            reopened.db().dump(),
            live.dump(),
            "{at}: reopen differs from live"
        );
        assert_eq!(
            reopened.db().plan_body_count(),
            live.plan_body_count(),
            "{at}: reopen holds other bodies"
        );
        saw_carry |= delta.tail_ops().iter().any(|op| op.kind() == "carry-plan");
        assert!(
            reference
                .tail_ops()
                .iter()
                .all(|op| op.kind() != "carry-plan"),
            "{at}: the reference carried"
        );
    }
    assert!(saw_carry, "seed {seed}: nothing was ever carried");
}

#[test]
fn carried_versions_match_full_versions_on_seeded_sequences() {
    for seed in 0..24 {
        run_sequence(seed, 40);
    }
}

/// Plans `TARGET` once on a fresh delta side.
fn planned() -> Side {
    let mut side = Side::create(false);
    side.h.plan(TARGET).unwrap();
    side
}

#[test]
fn an_unchanged_replan_appends_exactly_two_records() {
    let mut side = planned();
    for pass in 0..3 {
        let before = side.tail_ops().len();
        let versions = side.h.db().schedule_count();
        match pass {
            0 => drop(side.h.plan(TARGET).unwrap()),
            _ => drop(side.h.replan(TARGET).unwrap()),
        }
        let ops = side.tail_ops();
        let kinds: Vec<&str> = ops[before..].iter().map(JournalOp::kind).collect();
        assert_eq!(kinds, ["begin-planning", "carry-plan"], "pass {pass}");
        // Still one new version per activity.
        assert_eq!(side.h.db().schedule_count(), versions + 9);
    }
}

#[test]
fn a_one_estimate_replan_writes_only_what_moved() {
    let mut side = planned();
    let before = side.tail_ops().len();
    side.h
        .set_estimate("Synthesize", WorkDays::new(14.0))
        .unwrap();
    let outcome = side.h.replan(TARGET).unwrap();
    let db = side.h.db();
    let moved: Vec<&str> = outcome
        .replanned
        .iter()
        .filter(|(_, sc)| {
            let new = db.schedule_instance(*sc);
            let old = db.schedule_instance(new.derived_from().expect("a replan"));
            (new.planned_start(), new.planned_duration(), new.assignees())
                != (old.planned_start(), old.planned_duration(), old.assignees())
        })
        .map(|(activity, _)| activity.as_str())
        .collect();
    assert!(
        !moved.is_empty() && moved.len() < outcome.len(),
        "the slip moves some activities, not all: {moved:?}"
    );
    let ops = side.tail_ops();
    let appended = &ops[before..];
    let mut planned = Vec::new();
    let mut carried = 0;
    for (i, op) in appended.iter().enumerate() {
        match op {
            JournalOp::PlanActivity { activity, .. } => {
                let next = appended.get(i + 1);
                assert!(matches!(next, Some(JournalOp::Assign { .. })), "{next:?}");
                planned.push(&**activity);
            }
            JournalOp::CarryPlan { from, .. } => {
                carried += from
                    .iter()
                    .map(|run| (run.last - run.first + 1) as usize)
                    .sum::<usize>();
            }
            _ => {}
        }
    }
    assert_eq!(planned, moved);
    assert_eq!(planned.len() + carried, outcome.len());
}

#[test]
fn live_replayed_and_reloaded_hold_the_same_plan_bodies() {
    let mut side = planned();
    side.h.plan(TARGET).unwrap();
    side.h
        .set_estimate("Floorplan", WorkDays::new(9.0))
        .unwrap();
    side.h.replan(TARGET).unwrap();
    side.h.plan(TARGET).unwrap();
    let live = side.h.db();
    let replayed = side.open();
    let reloaded = MetadataDb::load(&live.dump()).unwrap();
    let counts = [
        live.plan_body_count(),
        replayed.db().plan_body_count(),
        reloaded.plan_body_count(),
    ];
    assert_eq!(counts, [counts[0]; 3]);
    assert!(counts[0] < live.schedule_count(), "carried versions share");
    // Compaction reloads the same sharing.
    side.h.gc().unwrap();
    assert_eq!(side.h.db().plan_body_count(), counts[0]);
    assert_eq!(side.open().db().plan_body_count(), counts[0]);
}
