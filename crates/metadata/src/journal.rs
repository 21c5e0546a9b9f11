//! Write-ahead journaling, crash injection, recovery, and invariant
//! checking for [`MetadataDb`].
//!
//! The original Hercules sat on the Odyssey framework's object store
//! and inherited its transaction semantics; our in-memory database gets
//! the equivalent through a **redo journal**: when journaling is
//! enabled, every mutating method *appends a replayable [`JournalOp`]
//! before it applies the change*. A crash between append and apply
//! (simulated with [`MetadataDb::inject_crash_after`]) therefore never
//! loses an acknowledged mutation: [`MetadataDb::recover`] replays the
//! journal into a fresh database and redoes the appended-but-unapplied
//! tail operation. Because every op is validated against the database
//! state *before* it is appended, replay of a journal produced by a
//! live database cannot fail.
//!
//! The journal has a line-oriented text form (one op per line, hex
//! payloads, millidays timestamps — the same conventions as
//! [`export`](crate::export)) so a journaled session is diffable and
//! can serve as a golden test artifact:
//!
//! ```text
//! metadata-journal v1
//! declare-entity <class>
//! declare-schedule <activity> <output-class>
//! store-data <name-hex> <content-hex>
//! store-data-ref <name-hex> <offset> <len> <crc08x>
//! begin-run <activity> <operator> <started-md>
//! finish-run <run-idx> <class> <data-idx> <finished-md> inputs <i,j|->
//! supply-input <class> <creator> <created-md> <data-idx>
//! begin-planning <at-md>
//! plan-activity <session-idx> <activity> <start-md> <duration-md>
//! carry-plan <session-idx> <sched-idx>[-<sched-idx>][,...]
//! assign <sched-idx> <designer>
//! link <sched-idx> <entity-idx>
//! ```
//!
//! [`MetadataDb::check_invariants`] is the companion consistency pass:
//! it audits dense-id bounds, container membership, link referential
//! integrity, and schedule↔run date monotonicity, and underpins the
//! chaos suite's "invariants hold after every injected crash + recover"
//! property.
//!
//! # Example
//!
//! ```
//! use metadata::{Journal, MetadataDb};
//! use schema::examples;
//! use schedule::WorkDays;
//!
//! # fn main() -> Result<(), metadata::MetadataError> {
//! let mut db = MetadataDb::for_schema(&examples::circuit_design());
//! db.enable_journal();
//! let run = db.begin_run("Create", "alice", WorkDays::ZERO)?;
//! let data = db.store_data("v1.net", b"module".to_vec());
//! db.finish_run(run, "netlist", data, WorkDays::new(1.0), &[])?;
//!
//! // The journal replays to an identical database.
//! let journal = db.journal().unwrap().clone();
//! let recovered = MetadataDb::recover(&journal)?;
//! assert_eq!(recovered.dump(), db.dump());
//! recovered.check_invariants().expect("recovered db is consistent");
//!
//! // And it round-trips through the text form.
//! let reparsed = Journal::parse(&journal.to_text()).unwrap();
//! assert_eq!(reparsed, journal);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use schedule::WorkDays;

use crate::database::MetadataDb;
use crate::error::MetadataError;
use crate::export::{hex_decode, hex_decode_name, hex_u32, LoadError};
use crate::fields::{days, index, indices, items, line, parse_int, Field, Fields};
use crate::framing::Framing;
use crate::ids::{DataObjectId, EntityInstanceId, PlanningSessionId, RunId, ScheduleInstanceId};
use crate::names::NameCache;
use crate::objects::{DataBody, ScheduleInstance};
use crate::segment::Extent;

/// One replayable mutation of a [`MetadataDb`] — the redo-log record
/// appended by the corresponding mutating method before it applies.
///
/// Times are [`WorkDays`]: written as whole milli-days and read back
/// through the one time reader, so replay is exact and a value out of
/// range never becomes an op.
/// Activity, class and designer names are the database's shared names,
/// so recording an op copies none; a datum's name is its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// [`MetadataDb::declare_entity_container`].
    DeclareEntityContainer {
        /// The entity class declared.
        class: Arc<str>,
    },
    /// [`MetadataDb::declare_schedule_container`].
    DeclareScheduleContainer {
        /// The activity declared.
        activity: Arc<str>,
        /// The activity's output class.
        output_class: Arc<str>,
    },
    /// [`MetadataDb::store_data`].
    StoreData {
        /// File-like name of the datum.
        name: String,
        /// Raw content bytes.
        content: Vec<u8>,
    },
    /// A datum whose bytes a persistent store wrote to its data
    /// segment (see [`crate::segment`]): the record carries the
    /// reference, not the bytes.
    StoreDataRef {
        /// File-like name of the datum.
        name: String,
        /// Where the bytes are in the data segment.
        extent: Extent,
    },
    /// [`MetadataDb::begin_run`].
    BeginRun {
        /// The activity being run.
        activity: Arc<str>,
        /// The designer operating the tool.
        operator: Arc<str>,
        /// Start offset.
        started: WorkDays,
    },
    /// [`MetadataDb::finish_run`].
    FinishRun {
        /// The run being finished.
        run: RunId,
        /// The output entity class.
        output_class: Arc<str>,
        /// The produced Level-4 data object.
        data: DataObjectId,
        /// Finish offset.
        finished: WorkDays,
        /// Input instances consumed by the run.
        inputs: Vec<EntityInstanceId>,
    },
    /// [`MetadataDb::supply_input`].
    SupplyInput {
        /// The entity class supplied.
        class: Arc<str>,
        /// The supplying designer.
        creator: Arc<str>,
        /// Creation offset.
        created: WorkDays,
        /// The supplied Level-4 data object.
        data: DataObjectId,
    },
    /// [`MetadataDb::begin_planning`].
    BeginPlanning {
        /// Session creation offset.
        at: WorkDays,
    },
    /// [`MetadataDb::plan_activity`].
    PlanActivity {
        /// The owning planning session.
        session: PlanningSessionId,
        /// The planned activity.
        activity: Arc<str>,
        /// Planned start.
        start: WorkDays,
        /// Planned duration.
        duration: WorkDays,
    },
    /// [`MetadataDb::carry_plan`]: one carried version of each listed
    /// schedule instance, in order.
    CarryPlan {
        /// The owning planning session.
        session: PlanningSessionId,
        /// The versions carried, as runs of consecutive slots.
        from: Vec<SlotRange>,
    },
    /// [`MetadataDb::assign`].
    Assign {
        /// The schedule instance assigned.
        schedule: ScheduleInstanceId,
        /// The designer assigned.
        designer: Arc<str>,
    },
    /// [`MetadataDb::link_completion`].
    LinkCompletion {
        /// The schedule instance completed.
        schedule: ScheduleInstanceId,
        /// The declared final entity instance.
        entity: EntityInstanceId,
    },
}

/// Consecutive schedule-instance slots `first..=last` — the unit a
/// `carry-plan` record lists its versions in (`first-last`, or `first`
/// alone when the run is one slot long).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRange {
    /// The first slot of the run.
    pub first: u32,
    /// The last slot of the run (`>= first`).
    pub last: u32,
}

impl SlotRange {
    /// `ids` as the fewest runs of ascending consecutive slots, in order.
    pub(crate) fn runs_of(ids: &[ScheduleInstanceId]) -> Vec<SlotRange> {
        let mut runs: Vec<SlotRange> = Vec::new();
        for id in ids {
            match runs.last_mut() {
                Some(run) if run.last.checked_add(1) == Some(id.slot) => run.last = id.slot,
                _ => runs.push(SlotRange {
                    first: id.slot,
                    last: id.slot,
                }),
            }
        }
        runs
    }

    /// Number of slots in the run.
    pub(crate) fn count(self) -> u64 {
        u64::from(self.last) - u64::from(self.first) + 1
    }
}

/// A run of slots as one list item: `first-last`, or `first` alone
/// when the run is one slot long.
impl Field for SlotRange {
    fn push_to(&self, out: &mut String) {
        self.first.push_to(out);
        if self.first != self.last {
            out.push('-');
            self.last.push_to(out);
        }
    }
}

/// Parses a `carry-plan` record's slot-range list, accepting only its
/// canonical form: digits only, and `first-last` only with
/// `first < last`.
fn parse_slot_ranges(list: &str) -> Result<Vec<SlotRange>, String> {
    let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    let slot = |s: &str| {
        index(s)
            .filter(|_| digits(s))
            .ok_or_else(|| format!("bad slot {s:?}"))
    };
    items(list)
        .map(|part| match part.split_once('-') {
            None => slot(part).map(|first| SlotRange { first, last: first }),
            Some((first, last)) => match (slot(first)?, slot(last)?) {
                (first, last) if first < last => Ok(SlotRange { first, last }),
                _ => Err(format!("bad slot range {part:?}")),
            },
        })
        .collect()
}

/// Parses the three fields [`Line::extent`](crate::fields::Line::extent)
/// writes.
pub(crate) fn parse_extent(offset: &str, len: &str, crc: &str) -> Result<Extent, String> {
    // Digits only: `u64::from_str` would also take a leading `+`.
    let number = |s: &str| match s.bytes().all(|b| b.is_ascii_digit()) {
        true => parse_int::<u64>(s).map_err(|_| format!("bad extent field {s:?}")),
        false => Err(format!("bad extent field {s:?}")),
    };
    let checksum = match <[u8; 8]>::try_from(crc.as_bytes()) {
        Ok(digits) => hex_u32(digits),
        Err(_) => None,
    };
    let Some(crc) = checksum else {
        return Err(format!("bad extent checksum {crc:?}"));
    };
    Ok(Extent {
        offset: number(offset)?,
        len: number(len)?,
        crc,
    })
}

/// Cached [`obs::Metrics`] handles for journal telemetry — registry
/// lookup once, relaxed atomic adds afterwards (the append path runs
/// inside every mutating database method).
struct JournalMetrics {
    appends: obs::Counter,
    recoveries: obs::Counter,
    replayed: obs::Counter,
}

fn journal_metrics() -> &'static JournalMetrics {
    static METRICS: std::sync::OnceLock<JournalMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| JournalMetrics {
        appends: obs::Metrics::counter("metadata.journal.appends"),
        recoveries: obs::Metrics::counter("metadata.journal.recoveries"),
        replayed: obs::Metrics::counter("metadata.journal.replayed_ops"),
    })
}

/// The op that stopped a [`MetadataDb::replay`]: its index (how many
/// ops applied) and why it does not apply, `None` when its datum does
/// not verify in the segment instead.
#[derive(Debug)]
pub(crate) struct ReplayStop {
    pub(crate) at: usize,
    pub(crate) refused: Option<MetadataError>,
}

impl ReplayStop {
    /// Why the op does not apply. A replay without a segment stops only
    /// on such an op.
    pub(crate) fn into_refusal(self) -> MetadataError {
        self.refused
            .expect("a replay without a segment stops only on a refused op")
    }
}

impl JournalOp {
    /// The op's stable kind tag — the first token of its text form,
    /// used by telemetry (`journal.append` events) and tooling.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalOp::DeclareEntityContainer { .. } => "declare-entity",
            JournalOp::DeclareScheduleContainer { .. } => "declare-schedule",
            JournalOp::StoreData { .. } => "store-data",
            JournalOp::StoreDataRef { .. } => "store-data-ref",
            JournalOp::BeginRun { .. } => "begin-run",
            JournalOp::FinishRun { .. } => "finish-run",
            JournalOp::SupplyInput { .. } => "supply-input",
            JournalOp::BeginPlanning { .. } => "begin-planning",
            JournalOp::PlanActivity { .. } => "plan-activity",
            JournalOp::CarryPlan { .. } => "carry-plan",
            JournalOp::Assign { .. } => "assign",
            JournalOp::LinkCompletion { .. } => "link-completion",
        }
    }

    /// Appends the op as one line of the journal text form (no
    /// newline) to `out` — the unit the persistent store frames into
    /// its tail file. Payloads are hex-encoded straight into `out`.
    pub(crate) fn write_line(&self, out: &mut String) {
        match self {
            JournalOp::DeclareEntityContainer { class } => {
                line(out, "declare-entity").field(class);
            }
            JournalOp::DeclareScheduleContainer {
                activity,
                output_class,
            } => {
                line(out, "declare-schedule")
                    .field(activity)
                    .field(output_class);
            }
            JournalOp::StoreData { name, content } => {
                line(out, "store-data").hex(name.as_bytes()).hex(content);
            }
            JournalOp::StoreDataRef { name, extent } => {
                line(out, "store-data-ref")
                    .hex(name.as_bytes())
                    .extent(extent);
            }
            JournalOp::BeginRun {
                activity,
                operator,
                started,
            } => {
                line(out, "begin-run")
                    .field(activity)
                    .field(operator)
                    .field(*started);
            }
            JournalOp::FinishRun {
                run,
                output_class,
                data,
                finished,
                inputs,
            } => {
                line(out, "finish-run")
                    .field(run.index())
                    .field(output_class)
                    .field(data.index())
                    .field(*finished)
                    .field("inputs")
                    .list(inputs.iter().map(|i| i.index()));
            }
            JournalOp::SupplyInput {
                class,
                creator,
                created,
                data,
            } => {
                line(out, "supply-input")
                    .field(class)
                    .field(creator)
                    .field(*created)
                    .field(data.index());
            }
            JournalOp::BeginPlanning { at } => {
                line(out, "begin-planning").field(*at);
            }
            JournalOp::PlanActivity {
                session,
                activity,
                start,
                duration,
            } => {
                line(out, "plan-activity")
                    .field(session.index())
                    .field(activity)
                    .field(*start)
                    .field(*duration);
            }
            JournalOp::CarryPlan { session, from } => {
                line(out, "carry-plan").field(session.index()).joined(from);
            }
            JournalOp::Assign { schedule, designer } => {
                line(out, "assign").field(schedule.index()).field(designer);
            }
            JournalOp::LinkCompletion { schedule, entity } => {
                line(out, "link")
                    .field(schedule.index())
                    .field(entity.index());
            }
        }
    }
}

/// An append-only redo log of [`JournalOp`]s — see the
/// [module docs](self) for the recovery protocol and text format.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    ops: Vec<JournalOp>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an op (the write-ahead step of a mutation).
    pub(crate) fn record(&mut self, op: JournalOp) {
        self.ops.push(op);
    }

    /// Forgets every recorded op (the persistent store, once they are
    /// in its tail file).
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
    }

    /// All ops, oldest first.
    pub fn ops(&self) -> &[JournalOp] {
        &self.ops
    }

    /// All ops, mutably (the persistent store resolves segment
    /// references into data when it hands out its journal).
    pub(crate) fn ops_mut(&mut self) -> &mut [JournalOp] {
        &mut self.ops
    }

    /// Keeps the first `n` ops.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.ops.truncate(n);
    }

    /// Number of ops recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The first `n` ops as a new journal (saturating) — a simulated
    /// torn log, used by the prefix-replay recovery properties.
    pub fn prefix(&self, n: usize) -> Journal {
        Journal {
            ops: self.ops[..n.min(self.ops.len())].to_vec(),
        }
    }

    /// Serialises to the line-oriented text form — exactly a v1 tail
    /// file.
    pub fn to_text(&self) -> String {
        Framing::V1.encode_tail(self)
    }

    /// Synthesises the *minimal* redo journal whose replay reproduces
    /// `db` — the compaction emission. [`MetadataDb::recover`] of the
    /// returned journal yields a database whose
    /// [`dump`](MetadataDb::dump) is byte-identical to `db`'s.
    ///
    /// Compared to the journal a live session accumulated, the
    /// compacted form drops:
    ///
    /// * ops that were appended but never applied (the torn tail of
    ///   every injected crash in a chaos session), and
    /// * redundant container re-declarations.
    ///
    /// Emission order mirrors [`MetadataDb::dump`] (declares, data,
    /// sessions, then the execution and schedule spaces in allocation
    /// order) so replay re-allocates identical dense ids, versions,
    /// iteration counts, and provenance chains.
    pub fn compacted_from(db: &MetadataDb) -> Journal {
        let mut journal = Journal::new();
        // Declares — same order as `enable_journal`'s snapshot.
        db.record_declares(&mut journal);
        // Level-4 data, in allocation order: inline bytes, or the
        // segment reference of stored ones (never read here).
        for d in &db.data {
            let name = d.name().to_owned();
            journal.record(match &d.body {
                DataBody::Inline(content) => JournalOp::StoreData {
                    name,
                    content: content.clone(),
                },
                DataBody::Stored(extent) => JournalOp::StoreDataRef {
                    name,
                    extent: *extent,
                },
            });
        }
        // Planning sessions, in allocation order (instances re-attach
        // themselves via the PlanActivity ops below).
        for session in &db.sessions {
            journal.record(JournalOp::BeginPlanning {
                at: session.created_at(),
            });
        }
        // Execution space. Entities must be created in allocation order
        // (dense ids, container versions) and runs begun in allocation
        // order (iteration counts); a run may finish *after* a
        // later-begun run finished, so walk entities and begin every
        // run up to each entity's producer on demand.
        let begin_run = |journal: &mut Journal, run: &crate::objects::Run| {
            journal.record(JournalOp::BeginRun {
                activity: Arc::clone(&run.activity),
                operator: Arc::clone(&run.operator),
                started: run.started_at(),
            });
        };
        let mut runs_begun = 0usize; // runs [0, runs_begun) already emitted
        for e in &db.entities {
            match e.produced_by() {
                Some(run_id) => {
                    while runs_begun <= run_id.index() {
                        begin_run(&mut journal, &db.runs[runs_begun]);
                        runs_begun += 1;
                    }
                    let run = &db.runs[run_id.index()];
                    journal.record(JournalOp::FinishRun {
                        run: run_id,
                        output_class: Arc::clone(&e.class),
                        data: e.data(),
                        finished: run.finished_at().unwrap_or(e.created_at()),
                        inputs: e.depends_on().to_vec(),
                    });
                }
                None => {
                    journal.record(JournalOp::SupplyInput {
                        class: Arc::clone(&e.class),
                        creator: Arc::clone(&e.creator),
                        created: e.created_at(),
                        data: e.data(),
                    });
                }
            }
        }
        // Runs that never finished (no output entity walked them in).
        while runs_begun < db.runs.len() {
            begin_run(&mut journal, &db.runs[runs_begun]);
            runs_begun += 1;
        }
        // Schedule space: instances in allocation order reproduce
        // per-container versions and `derived_from` chains; assignments
        // and completion links once everything they reference exists.
        // A version sharing its predecessor's plan body is carried,
        // consecutive ones of one session in one record, after the
        // predecessors' own assignments (the body a carry shares must
        // be complete).
        let mut assigned = vec![false; db.schedules.len()];
        let assign = |journal: &mut Journal, sc: &ScheduleInstance| {
            for designer in sc.assignees() {
                journal.record(JournalOp::Assign {
                    schedule: sc.id(),
                    designer: Arc::clone(designer),
                });
            }
        };
        let mut carry: Vec<ScheduleInstanceId> = Vec::new();
        let mut carry_first = 0;
        for (slot, sc) in db.schedules.iter().enumerate() {
            let carried_from = sc
                .derived_from()
                .filter(|pred| Arc::ptr_eq(&db.schedules[pred.index()].body, &sc.body));
            // A record mints versions of distinct, already existing
            // instances in one session.
            let joins = carried_from.is_some_and(|pred| {
                !carry.is_empty()
                    && db.schedules[carry_first].session() == sc.session()
                    && pred.index() < carry_first
            });
            if !joins && !carry.is_empty() {
                let from = SlotRange::runs_of(&std::mem::take(&mut carry));
                journal.record(JournalOp::CarryPlan {
                    session: db.schedules[carry_first].session(),
                    from,
                });
            }
            match carried_from {
                Some(pred) => {
                    if !assigned[pred.index()] {
                        assign(&mut journal, &db.schedules[pred.index()]);
                        assigned[pred.index()] = true;
                    }
                    if carry.is_empty() {
                        carry_first = slot;
                    }
                    carry.push(pred);
                    assigned[slot] = true;
                }
                None => journal.record(JournalOp::PlanActivity {
                    session: sc.session(),
                    activity: Arc::clone(&sc.body.activity),
                    start: sc.planned_start(),
                    duration: sc.planned_duration(),
                }),
            }
        }
        if !carry.is_empty() {
            journal.record(JournalOp::CarryPlan {
                session: db.schedules[carry_first].session(),
                from: SlotRange::runs_of(&carry),
            });
        }
        for (sc, done) in db.schedules.iter().zip(&assigned) {
            if !done {
                assign(&mut journal, sc);
            }
        }
        for sc in &db.schedules {
            if let Some(entity) = sc.linked_entity() {
                journal.record(JournalOp::LinkCompletion {
                    schedule: sc.id(),
                    entity,
                });
            }
        }
        journal
    }

    /// Wraps pre-parsed ops (the framing decoder's constructor).
    pub(crate) fn from_ops(ops: Vec<JournalOp>) -> Journal {
        Journal { ops }
    }

    /// Parses the text form produced by [`to_text`](Journal::to_text).
    ///
    /// # Errors
    ///
    /// [`LoadError`] on a missing header or malformed line.
    pub fn parse(text: &str) -> Result<Journal, LoadError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "metadata-journal v1")) => {}
            _ => return Err(LoadError::BadHeader),
        }
        let mut ops = Vec::new();
        let mut names = NameCache::default();
        for (lineno, line) in lines {
            if let Some(op) = parse_op_line(lineno, line, &mut names)? {
                ops.push(op);
            }
        }
        Ok(Journal { ops })
    }
}

/// Parses one op line of the journal text form. `lineno` is the
/// 0-based line index (errors report 1-based, matching
/// [`LoadError::BadLine`]); returns `Ok(None)` for a blank line. This
/// is the per-record parser the checksummed framing layer
/// ([`crate::framing`]) shares with [`Journal::parse`]. Activity,
/// class and designer names come from `names`, so the records of one
/// text share them.
pub(crate) fn parse_op_line<'a>(
    lineno: usize,
    line: &'a str,
    names: &mut NameCache<'a>,
) -> Result<Option<JournalOp>, LoadError> {
    let bad = |message: &str| LoadError::BadLine {
        line: lineno + 1,
        message: message.to_owned(),
    };
    let time = |s: &str| days(s).map_err(|_| bad(&format!("bad milli-day timestamp {s:?}")));
    let bad_index = |s: &str| bad(&format!("bad index {s:?}"));
    let idx = |s: &str| index(s).ok_or_else(|| bad_index(s));
    let mut fields = Fields::new(line);
    let Some(kind) = fields.next() else {
        return Ok(None); // blank line
    };
    let malformed = || bad(&format!("malformed {kind} line"));
    let op = match kind {
        "declare-entity" => {
            let [class] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::DeclareEntityContainer {
                class: names.get(class),
            }
        }
        "declare-schedule" => {
            let [activity, output] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::DeclareScheduleContainer {
                activity: names.get(activity),
                output_class: names.get(output),
            }
        }
        "store-data" => {
            let [name, content] = fields.exactly().ok_or_else(malformed)?;
            let name = hex_decode_name(name).map_err(|m| bad(&m))?;
            let content = hex_decode(content).map_err(|m| bad(&m))?;
            JournalOp::StoreData { name, content }
        }
        "store-data-ref" => {
            let [name, offset, len, crc] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::StoreDataRef {
                name: hex_decode_name(name).map_err(|m| bad(&m))?,
                extent: parse_extent(offset, len, crc).map_err(|m| bad(&m))?,
            }
        }
        "begin-run" => {
            let [activity, operator, started] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::BeginRun {
                activity: names.get(activity),
                operator: names.get(operator),
                started: time(started)?,
            }
        }
        "finish-run" => {
            let [run, class, data, finished, word, list] =
                fields.exactly().ok_or_else(malformed)?;
            if word != "inputs" {
                return Err(malformed());
            }
            let inputs = indices(list)
                .map(|i| i.map(|i| EntityInstanceId::new(i, 0)).map_err(bad_index))
                .collect::<Result<_, _>>()?;
            JournalOp::FinishRun {
                run: RunId::new(idx(run)?, 0),
                output_class: names.get(class),
                data: DataObjectId::new(idx(data)?, 0),
                finished: time(finished)?,
                inputs,
            }
        }
        "supply-input" => {
            let [class, creator, created, data] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::SupplyInput {
                class: names.get(class),
                creator: names.get(creator),
                created: time(created)?,
                data: DataObjectId::new(idx(data)?, 0),
            }
        }
        "begin-planning" => {
            let [at] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::BeginPlanning { at: time(at)? }
        }
        "plan-activity" => {
            let [session, activity, start, duration] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::PlanActivity {
                session: PlanningSessionId::new(idx(session)?, 0),
                activity: names.get(activity),
                start: time(start)?,
                duration: time(duration)?,
            }
        }
        "carry-plan" => {
            let [session, list] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::CarryPlan {
                session: PlanningSessionId::new(idx(session)?, 0),
                from: parse_slot_ranges(list).map_err(|m| bad(&m))?,
            }
        }
        "assign" => {
            let [schedule, designer] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::Assign {
                schedule: ScheduleInstanceId::new(idx(schedule)?, 0),
                designer: names.get(designer),
            }
        }
        "link" => {
            let [schedule, entity] = fields.exactly().ok_or_else(malformed)?;
            JournalOp::LinkCompletion {
                schedule: ScheduleInstanceId::new(idx(schedule)?, 0),
                entity: EntityInstanceId::new(idx(entity)?, 0),
            }
        }
        other => return Err(bad(&format!("unknown op kind {other:?}"))),
    };
    Ok(Some(op))
}

impl MetadataDb {
    /// Turns on write-ahead journaling: from now on every mutating
    /// method appends a [`JournalOp`] before applying.
    ///
    /// The current container declarations are snapshotted into the
    /// journal so replay starts from an empty database; any *instances*
    /// already present are **not** captured — enable journaling right
    /// after [`MetadataDb::for_schema`], before the first mutation.
    /// Re-enabling replaces the existing journal.
    pub fn enable_journal(&mut self) {
        let mut journal = Journal::new();
        self.record_declares(&mut journal);
        self.journal = Some(journal);
    }

    /// Records the container declarations, entity classes and then
    /// activities, each in name order: how every journal that rebuilds
    /// this database from empty starts.
    fn record_declares(&self, journal: &mut Journal) {
        for (class, _) in self.entity_containers.by_name() {
            journal.record(JournalOp::DeclareEntityContainer {
                class: Arc::clone(class),
            });
        }
        for (activity, slot) in self.schedule_containers.by_name() {
            journal.record(JournalOp::DeclareScheduleContainer {
                activity: Arc::clone(activity),
                output_class: Arc::clone(&self.containers[slot].output),
            });
        }
    }

    /// The write-ahead journal, if journaling is enabled.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Detaches and returns the journal, disabling journaling.
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.journal.take()
    }

    /// Appends `op` to the journal when journaling is enabled. The
    /// closure defers construction so the fault-free path pays nothing.
    pub(crate) fn journal_op(&mut self, op: impl FnOnce() -> JournalOp) {
        if let Some(journal) = self.journal.as_mut() {
            let op = op();
            obs::event!("journal.append", kind = op.kind());
            journal_metrics().appends.inc();
            journal.record(op);
        }
    }

    /// Arms a simulated crash: the `after`-th subsequent *fallible*
    /// mutation (0 = the very next one) fails with
    /// [`MetadataError::InjectedCrash`] **after** its journal append
    /// and **before** its apply — the worst-case torn write. Once the
    /// crash fires the database refuses all further fallible mutations,
    /// simulating a dead process whose journal survives on disk.
    pub fn inject_crash_after(&mut self, after: u32) {
        self.crash_countdown = Some(after);
    }

    /// Disarms a pending [`inject_crash_after`](Self::inject_crash_after).
    pub fn disarm_crash(&mut self) {
        self.crash_countdown = None;
    }

    /// Whether an injected crash has fired.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    /// Fails fast if the database already crashed.
    pub(crate) fn check_alive(&self) -> Result<(), MetadataError> {
        if self.crashed {
            Err(MetadataError::InjectedCrash)
        } else {
            Ok(())
        }
    }

    /// The crash point between journal append and apply.
    pub(crate) fn crash_point(&mut self) -> Result<(), MetadataError> {
        if let Some(countdown) = self.crash_countdown.as_mut() {
            if *countdown == 0 {
                self.crashed = true;
                return Err(MetadataError::InjectedCrash);
            }
            *countdown -= 1;
        }
        Ok(())
    }

    /// Reconstructs a database by replaying `journal` from scratch
    /// (redo recovery). The recovered database has journaling disabled;
    /// call [`enable_journal`](Self::enable_journal) to resume.
    ///
    /// Ops are validated against the live database *before* they are
    /// appended, so replaying a journal produced by a live database —
    /// including one whose last op crashed between append and apply —
    /// always succeeds and yields a database at least as complete as
    /// the crashed one.
    ///
    /// # Errors
    ///
    /// [`MetadataError`] if an op does not apply cleanly (a corrupted
    /// or hand-edited journal).
    pub fn recover(journal: &Journal) -> Result<MetadataDb, MetadataError> {
        let mut span = obs::span!("journal.recover", ops = journal.len());
        journal_metrics().recoveries.inc();
        let mut db = MetadataDb::new();
        if let Some(stop) = db.replay(journal.ops(), None) {
            return Err(stop.into_refusal());
        }
        span.record("applied", journal.len());
        Ok(db)
    }

    /// Replays `journal`'s ops onto this database in order — the
    /// *tail-replay* half of snapshot + journal-tail recovery: open the
    /// last snapshot with [`load_at`](Self::load_at), then redo the
    /// tail. Ids embedded in the ops are restamped at this database's
    /// current generation before applying (journal text carries no
    /// generation), so a tail written under any prior generation
    /// replays cleanly.
    ///
    /// Returns the number of ops applied.
    ///
    /// # Errors
    ///
    /// [`MetadataError`] if an op does not apply cleanly (a tail that
    /// does not belong to this snapshot).
    pub fn apply_journal(&mut self, journal: &Journal) -> Result<usize, MetadataError> {
        let mut span = obs::span!("journal.tail_replay", ops = journal.len());
        if let Some(stop) = self.replay(journal.ops(), None) {
            return Err(stop.into_refusal());
        }
        span.record("applied", journal.len());
        Ok(journal.len())
    }

    /// Replays `ops` onto this database in order: the one replay loop
    /// behind recovery, open and fsck. It stops at the first op that
    /// does not apply or, when `segment` is given, whose datum does not
    /// verify in it; the ops past that one were written against state
    /// this database does not have. Returns that op, `None` when every
    /// op applied.
    pub(crate) fn replay(
        &mut self,
        ops: &[JournalOp],
        segment: Option<&[u8]>,
    ) -> Option<ReplayStop> {
        let stop = ops.iter().enumerate().find_map(|(at, op)| {
            let unverified = matches!(
                (op, segment),
                (JournalOp::StoreDataRef { extent, .. }, Some(segment))
                    if extent.slice(segment).is_err()
            );
            let refused = if unverified {
                None
            } else {
                Some(self.apply_op(op).err()?)
            };
            Some(ReplayStop { at, refused })
        });
        let applied = stop.as_ref().map_or(ops.len(), |stop| stop.at);
        journal_metrics().replayed.add(applied as u64);
        stop
    }

    pub(crate) fn apply_op(&mut self, op: &JournalOp) -> Result<(), MetadataError> {
        // Journal text carries slots, not generations: restamp every
        // embedded id at the database's current generation so replay
        // works regardless of how many compactions preceded the tail.
        let g = self.generation;
        match op {
            JournalOp::DeclareEntityContainer { class } => {
                self.declare_entity_container(class);
            }
            JournalOp::DeclareScheduleContainer {
                activity,
                output_class,
            } => {
                self.declare_schedule_container(activity, output_class);
            }
            JournalOp::StoreData { name, content } => {
                self.store_data(name.clone(), content.clone());
            }
            JournalOp::StoreDataRef { name, extent } => {
                self.attach_data(name.clone(), *extent);
            }
            JournalOp::BeginRun {
                activity,
                operator,
                started,
            } => {
                self.begin_run(activity, operator, *started)?;
            }
            JournalOp::FinishRun {
                run,
                output_class,
                data,
                finished,
                inputs,
            } => {
                let inputs: Vec<EntityInstanceId> = inputs.iter().map(|i| i.with_gen(g)).collect();
                self.finish_run(
                    run.with_gen(g),
                    output_class,
                    data.with_gen(g),
                    *finished,
                    &inputs,
                )?;
            }
            JournalOp::SupplyInput {
                class,
                creator,
                created,
                data,
            } => {
                self.supply_input(class, creator, *created, data.with_gen(g))?;
            }
            JournalOp::BeginPlanning { at } => {
                self.begin_planning(*at);
            }
            JournalOp::PlanActivity {
                session,
                activity,
                start,
                duration,
            } => {
                self.plan_activity(session.with_gen(g), activity, *start, *duration)?;
            }
            JournalOp::CarryPlan { session, from } => {
                // Bound the runs by the instances that exist before
                // expanding them: a carried version is listed once.
                let known = self.schedules.len() as u64;
                let mut total = 0u64;
                for run in from {
                    if run.first > run.last {
                        return Err(MetadataError::CannotCarry(format!(
                            "slots {}-{}: not a run",
                            run.first, run.last
                        )));
                    }
                    if u64::from(run.last) >= known {
                        let missing = ScheduleInstanceId::new(run.last, g);
                        return Err(MetadataError::CannotCarry(format!(
                            "{missing}: no such version"
                        )));
                    }
                    total += run.count();
                }
                if total > known {
                    return Err(MetadataError::CannotCarry(format!(
                        "{total} versions: only {known} exist"
                    )));
                }
                let ids: Vec<ScheduleInstanceId> = from
                    .iter()
                    .flat_map(|run| run.first..=run.last)
                    .map(|slot| ScheduleInstanceId::new(slot, g))
                    .collect();
                self.carry_plan(session.with_gen(g), &ids)?;
            }
            JournalOp::Assign { schedule, designer } => {
                self.assign(schedule.with_gen(g), designer)?;
            }
            JournalOp::LinkCompletion { schedule, entity } => {
                self.link_completion(schedule.with_gen(g), entity.with_gen(g))?;
            }
        }
        Ok(())
    }

    /// Audits the database's structural invariants, returning every
    /// violation found (empty ⇒ consistent):
    ///
    /// * **Dense-id bounds** — every stored id points inside its vector.
    /// * **Container membership** — each entity/schedule instance sits
    ///   in exactly one container, under its own class/activity, with
    ///   version = position + 1; schedule provenance (`derived_from`)
    ///   chains to the previous container element.
    /// * **Link referential integrity** — run ↔ output entity are
    ///   mutually consistent; a completion link's entity was produced
    ///   by a run of the linked activity with the declared output
    ///   class; sessions and their instances point at each other.
    /// * **Date monotonicity** — runs finish no earlier than they
    ///   start, dependencies are created no later than their
    ///   dependents, and a completed activity's actual finish is no
    ///   earlier than its actual start.
    ///
    /// # Errors
    ///
    /// The list of human-readable violations.
    pub fn check_invariants(&self) -> Result<(), Vec<String>> {
        let mut violations: Vec<String> = Vec::new();
        let n_entities = self.entities.len();
        let n_schedules = self.schedules.len();
        let n_runs = self.runs.len();
        let n_data = self.data.len();
        let n_sessions = self.sessions.len();

        // Container membership: entities.
        let mut entity_refs = vec![0usize; n_entities];
        for (class, slot) in self.entity_containers.by_name() {
            for (pos, id) in self.class_containers[slot].iter().enumerate() {
                if id.index() >= n_entities {
                    violations.push(format!(
                        "entity container {class:?} holds out-of-range {id}"
                    ));
                    continue;
                }
                entity_refs[id.index()] += 1;
                let e = &self.entities[id.index()];
                if e.class() != &**class {
                    violations.push(format!(
                        "{id} is in container {class:?} but has class {:?}",
                        e.class()
                    ));
                }
                if e.version() as usize != pos + 1 {
                    violations.push(format!(
                        "{id} at container position {pos} has version {}",
                        e.version()
                    ));
                }
            }
        }
        for (idx, count) in entity_refs.iter().enumerate() {
            if *count != 1 {
                violations.push(format!(
                    "entity{idx} appears in {count} containers (expected exactly 1)"
                ));
            }
        }

        // Container membership: schedules, including provenance chains.
        let mut schedule_refs = vec![0usize; n_schedules];
        for (activity, ids, _) in self.schedule_containers_by_name() {
            for (pos, id) in ids.iter().enumerate() {
                if id.index() >= n_schedules {
                    violations.push(format!(
                        "schedule container {activity:?} holds out-of-range {id}"
                    ));
                    continue;
                }
                schedule_refs[id.index()] += 1;
                let sc = &self.schedules[id.index()];
                if sc.activity() != &**activity {
                    violations.push(format!(
                        "{id} is in container {activity:?} but plans {:?}",
                        sc.activity()
                    ));
                }
                if sc.version() as usize != pos + 1 {
                    violations.push(format!(
                        "{id} at container position {pos} has version {}",
                        sc.version()
                    ));
                }
                let expected_prev = if pos == 0 { None } else { Some(ids[pos - 1]) };
                if sc.derived_from() != expected_prev {
                    violations.push(format!(
                        "{id} derived_from {:?} but the container predecessor is {expected_prev:?}",
                        sc.derived_from()
                    ));
                }
            }
        }
        for (idx, count) in schedule_refs.iter().enumerate() {
            if *count != 1 {
                violations.push(format!(
                    "sched{idx} appears in {count} containers (expected exactly 1)"
                ));
            }
        }

        // Entities: provenance, dependencies, data.
        for e in &self.entities {
            if let Some(run_id) = e.produced_by() {
                if run_id.index() >= n_runs {
                    violations.push(format!("{} produced_by out-of-range {run_id}", e.id()));
                } else {
                    let run = &self.runs[run_id.index()];
                    if run.output() != Some(e.id()) {
                        violations.push(format!(
                            "{} produced_by {run_id} but that run's output is {:?}",
                            e.id(),
                            run.output()
                        ));
                    }
                    if let Some(expected) = self.output_class_of(run.activity()) {
                        if expected != e.class() {
                            violations.push(format!(
                                "{} has class {:?} but its producing activity {:?} outputs {expected:?}",
                                e.id(),
                                e.class(),
                                run.activity()
                            ));
                        }
                    }
                }
            }
            for dep in e.depends_on() {
                if dep.index() >= n_entities {
                    violations.push(format!("{} depends on out-of-range {dep}", e.id()));
                } else if self.entities[dep.index()].created_at() > e.created_at() {
                    violations.push(format!(
                        "{} depends on {dep}, which was created later",
                        e.id()
                    ));
                }
            }
            if e.data().index() >= n_data {
                violations.push(format!("{} references out-of-range {}", e.id(), e.data()));
            }
        }

        // Runs: activity known, timestamps ordered, output mutual.
        for run in &self.runs {
            if self.container_slot(run.activity()).is_none() {
                violations.push(format!(
                    "{} executes undeclared activity {:?}",
                    run.id(),
                    run.activity()
                ));
            }
            match (run.finished_at(), run.output()) {
                (Some(finished), Some(output)) => {
                    if finished < run.started_at() {
                        violations.push(format!("{} finished before it started", run.id()));
                    }
                    if output.index() >= n_entities {
                        violations.push(format!("{} output is out-of-range {output}", run.id()));
                    } else if self.entities[output.index()].produced_by() != Some(run.id()) {
                        violations.push(format!(
                            "{} claims output {output}, which was not produced by it",
                            run.id()
                        ));
                    }
                }
                (Some(_), None) => {
                    violations.push(format!("{} finished without an output instance", run.id()));
                }
                (None, Some(_)) => {
                    violations.push(format!("{} has an output but never finished", run.id()));
                }
                (None, None) => {}
            }
        }

        // Schedules: session membership, completion links.
        for sc in &self.schedules {
            if sc.session().index() >= n_sessions {
                violations.push(format!(
                    "{} belongs to out-of-range {}",
                    sc.id(),
                    sc.session()
                ));
            } else if !self.sessions[sc.session().index()]
                .instances()
                .contains(&sc.id())
            {
                violations.push(format!(
                    "{} belongs to {} but the session does not list it",
                    sc.id(),
                    sc.session()
                ));
            }
            if let Some(entity) = sc.linked_entity() {
                if entity.index() >= n_entities {
                    violations.push(format!("{} links out-of-range {entity}", sc.id()));
                    continue;
                }
                let e = &self.entities[entity.index()];
                if let Some(expected) = self.output_class_of(sc.activity()) {
                    if expected != e.class() {
                        violations.push(format!(
                            "{} completes {:?} with a {:?} instance (expected {expected:?})",
                            sc.id(),
                            sc.activity(),
                            e.class()
                        ));
                    }
                }
                match e.produced_by() {
                    Some(run_id) if run_id.index() < n_runs => {
                        if self.runs[run_id.index()].activity() != sc.activity() {
                            violations.push(format!(
                                "{} links {entity}, produced by a different activity",
                                sc.id()
                            ));
                        }
                    }
                    _ => violations.push(format!(
                        "{} links {entity}, which has no producing run",
                        sc.id()
                    )),
                }
            }
        }

        // Sessions point back at their instances.
        for session in &self.sessions {
            for id in session.instances() {
                if id.index() >= n_schedules {
                    violations.push(format!("{} lists out-of-range {id}", session.id()));
                } else if self.schedules[id.index()].session() != session.id() {
                    violations.push(format!(
                        "{} lists {id}, which belongs to {}",
                        session.id(),
                        self.schedules[id.index()].session()
                    ));
                }
            }
        }

        // Schedule ↔ run date monotonicity per activity.
        for activity in self.activities() {
            if let (Some(start), Some(finish)) =
                (self.actual_start(activity), self.actual_finish(activity))
            {
                if finish < start {
                    violations.push(format!(
                        "activity {activity:?} actually finished before it started"
                    ));
                }
            }
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedule::WorkDays;
    use schema::examples;

    fn journaled_session() -> MetadataDb {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        db.enable_journal();
        let session = db.begin_planning(WorkDays::ZERO);
        let sc = db
            .plan_activity(session, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        db.assign(sc, "alice").unwrap();
        let stim = db.store_data("vec.stim", b"0101".to_vec());
        db.supply_input("stimuli", "bob", WorkDays::ZERO, stim)
            .unwrap();
        let run = db.begin_run("Create", "alice", WorkDays::new(0.5)).unwrap();
        let data = db.store_data("v1.net", b"module".to_vec());
        let e = db
            .finish_run(run, "netlist", data, WorkDays::new(1.5), &[])
            .unwrap();
        db.link_completion(sc, e).unwrap();
        db
    }

    #[test]
    fn replay_reproduces_live_database() {
        let db = journaled_session();
        let journal = db.journal().unwrap().clone();
        let recovered = MetadataDb::recover(&journal).unwrap();
        assert_eq!(recovered.dump(), db.dump());
        recovered.check_invariants().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn text_roundtrip() {
        let db = journaled_session();
        let journal = db.journal().unwrap();
        let text = journal.to_text();
        assert!(text.starts_with("metadata-journal v1\n"));
        let reparsed = Journal::parse(&text).unwrap();
        assert_eq!(&reparsed, journal);
        // And the reparsed journal still recovers the same database.
        assert_eq!(MetadataDb::recover(&reparsed).unwrap().dump(), db.dump());
    }

    #[test]
    fn every_prefix_recovers_consistently() {
        let db = journaled_session();
        let journal = db.journal().unwrap();
        for n in 0..=journal.len() {
            let recovered = MetadataDb::recover(&journal.prefix(n)).unwrap();
            recovered.check_invariants().unwrap_or_else(|violations| {
                panic!("prefix {n} violates invariants: {violations:?}")
            });
        }
    }

    #[test]
    fn crash_between_append_and_apply_is_recoverable() {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        db.enable_journal();
        let session = db.begin_planning(WorkDays::ZERO);
        db.plan_activity(session, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        // Crash on the next fallible mutation: append happens, apply
        // does not.
        db.inject_crash_after(0);
        let schedules_before = db.schedule_count();
        let err = db
            .plan_activity(session, "Simulate", WorkDays::new(2.0), WorkDays::new(3.0))
            .unwrap_err();
        assert_eq!(err, MetadataError::InjectedCrash);
        assert!(db.has_crashed());
        assert_eq!(db.schedule_count(), schedules_before); // not applied
                                                           // The dead process refuses further work.
        assert_eq!(
            db.begin_run("Create", "alice", WorkDays::ZERO).unwrap_err(),
            MetadataError::InjectedCrash
        );
        // Recovery redoes the appended-but-unapplied op.
        let recovered = MetadataDb::recover(db.journal().unwrap()).unwrap();
        recovered.check_invariants().unwrap();
        assert_eq!(recovered.schedule_count(), schedules_before + 1);
        assert!(recovered.current_plan("Simulate").is_some());
    }

    #[test]
    fn crash_countdown_and_disarm() {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        db.enable_journal();
        db.inject_crash_after(1);
        let session = db.begin_planning(WorkDays::ZERO); // infallible: no crash point
        db.plan_activity(session, "Create", WorkDays::ZERO, WorkDays::new(1.0))
            .unwrap(); // countdown 1 -> 0
        db.disarm_crash();
        db.plan_activity(session, "Simulate", WorkDays::ZERO, WorkDays::new(1.0))
            .unwrap(); // disarmed: no crash
        assert!(!db.has_crashed());
    }

    #[test]
    fn validation_failures_are_not_journaled() {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        db.enable_journal();
        let before = db.journal().unwrap().len();
        assert!(db.begin_run("Fabricate", "alice", WorkDays::ZERO).is_err());
        assert_eq!(db.journal().unwrap().len(), before);
    }

    #[test]
    fn take_journal_disables_journaling() {
        let mut db = journaled_session();
        let journal = db.take_journal().unwrap();
        assert!(db.journal().is_none());
        assert!(!journal.is_empty());
        db.begin_planning(WorkDays::new(9.0)); // no journal to append to
        assert!(db.journal().is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Journal::parse("").unwrap_err(), LoadError::BadHeader);
        assert!(matches!(
            Journal::parse("metadata-journal v1\nwat 1 2\n").unwrap_err(),
            LoadError::BadLine { line: 2, .. }
        ));
        assert!(matches!(
            Journal::parse("metadata-journal v1\nbegin-run a b zz\n").unwrap_err(),
            LoadError::BadLine { .. }
        ));
    }

    #[test]
    fn compacted_journal_recovers_identical_dump() {
        let db = journaled_session();
        let compacted = Journal::compacted_from(&db);
        let recovered = MetadataDb::recover(&compacted).unwrap();
        assert_eq!(recovered.dump(), db.dump());
        recovered.check_invariants().unwrap();
        // Never longer than the live journal (declares + one op per
        // mutation), and it round-trips through text.
        assert!(compacted.len() <= db.journal().unwrap().len() + 7); // +7 declares
        let reparsed = Journal::parse(&compacted.to_text()).unwrap();
        assert_eq!(MetadataDb::recover(&reparsed).unwrap().dump(), db.dump());
    }

    #[test]
    fn compaction_drops_torn_tail_ops() {
        let mut db = journaled_session();
        db.inject_crash_after(0);
        let err = db
            .begin_run("Simulate", "bob", WorkDays::new(2.0))
            .unwrap_err();
        assert_eq!(err, MetadataError::InjectedCrash);
        let live = db.journal().unwrap();
        let compacted = Journal::compacted_from(&db);
        // The torn `begin-run` was appended to the live journal but is
        // absent from the compacted form, which reflects applied state.
        assert!(compacted.len() < live.len() + 7);
        let recovered = MetadataDb::recover(&compacted).unwrap();
        assert_eq!(recovered.dump(), db.dump());
    }

    #[test]
    fn tail_replay_onto_snapshot_matches_full_replay() {
        let db = journaled_session();
        let journal = db.journal().unwrap();
        for split in 0..=journal.len() {
            // Snapshot the first `split` ops as a dump, replay the rest
            // as a tail.
            let snap_db = MetadataDb::recover(&journal.prefix(split)).unwrap();
            let mut reopened = MetadataDb::load_at(&snap_db.dump(), 1).unwrap();
            let tail = Journal {
                ops: journal.ops()[split..].to_vec(),
            };
            reopened.apply_journal(&tail).unwrap();
            assert_eq!(
                reopened.dump(),
                db.dump(),
                "split at {split} diverged from full replay"
            );
            assert_eq!(reopened.generation(), 1);
        }
    }

    /// Two planning passes over both activities: the second carries
    /// Create unchanged and moves Simulate.
    fn carrying_session() -> MetadataDb {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        db.enable_journal();
        let s1 = db.begin_planning(WorkDays::ZERO);
        let mut first = Vec::new();
        for (activity, start, who) in [("Create", 0.0, "alice"), ("Simulate", 2.0, "bob")] {
            let sc = db
                .plan_activity(s1, activity, WorkDays::new(start), WorkDays::new(2.0))
                .unwrap();
            db.assign(sc, who).unwrap();
            first.push(sc);
        }
        let s2 = db.begin_planning(WorkDays::new(1.0));
        let create = db.carry_plan(s2, &first[..1]).unwrap()[0];
        let simulate = db
            .plan_activity(s2, "Simulate", WorkDays::new(3.0), WorkDays::new(2.0))
            .unwrap();
        db.assign(simulate, "bob").unwrap();
        let s3 = db.begin_planning(WorkDays::new(1.0));
        db.carry_plan(s3, &[create, simulate]).unwrap();
        db
    }

    #[test]
    fn carry_record_replays_the_same_versions_and_bodies() {
        let db = carrying_session();
        let journal = db.journal().unwrap();
        let carries: Vec<String> = journal
            .ops()
            .iter()
            .filter(|op| op.kind() == "carry-plan")
            .map(|op| Framing::V1.encode_tail(&Journal::from_ops(vec![op.clone()])))
            .collect();
        assert_eq!(
            carries,
            [
                "metadata-journal v1\ncarry-plan 1 0\n",
                "metadata-journal v1\ncarry-plan 2 2-3\n"
            ]
        );
        let replayed = MetadataDb::recover(&Journal::parse(&journal.to_text()).unwrap()).unwrap();
        let reloaded = MetadataDb::load(&db.dump()).unwrap();
        for other in [&replayed, &reloaded] {
            assert_eq!(other.dump(), db.dump());
            assert_eq!(other.plan_body_count(), db.plan_body_count());
            other.check_invariants().unwrap();
        }
        assert_eq!((db.schedule_count(), db.plan_body_count()), (6, 3));
        // Compaction carries the shared versions too, never growing.
        let compacted = Journal::compacted_from(&db);
        assert!(compacted.len() <= journal.len());
        let recompacted = MetadataDb::recover(&compacted).unwrap();
        assert_eq!(recompacted.dump(), db.dump());
        assert_eq!(recompacted.plan_body_count(), db.plan_body_count());
    }

    #[test]
    fn bad_carry_records_refuse_whole() {
        let db = carrying_session();
        let session = |slot| PlanningSessionId::new(slot, 0);
        let carry = |s, first, last| JournalOp::CarryPlan {
            session: session(s),
            from: vec![SlotRange { first, last }],
        };
        for (op, why) in [
            (carry(9, 4, 5), "unknown id plan9"),
            (carry(2, 4, 9), "cannot carry sc9: no such version"),
            (carry(2, 0, 0), "not the latest version of \"Create\""),
            (carry(2, 5, 4), "slots 5-4: not a run"),
            (carry(2, 4, 5), "ok"),
        ] {
            let mut replica = MetadataDb::load(&db.dump()).unwrap();
            let result = replica.apply_journal(&Journal::from_ops(vec![op]));
            match result {
                Ok(_) => assert_eq!(why, "ok"),
                Err(e) => {
                    assert!(e.to_string().contains(why), "{e} lacks {why:?}");
                    assert_eq!(
                        replica.dump(),
                        db.dump(),
                        "a refused record applies nothing"
                    );
                }
            }
        }
        // The same version twice in one record.
        let twice = JournalOp::CarryPlan {
            session: session(2),
            from: vec![
                SlotRange { first: 4, last: 5 },
                SlotRange { first: 4, last: 4 },
            ],
        };
        let mut replica = MetadataDb::load(&db.dump()).unwrap();
        assert!(matches!(
            replica.apply_journal(&Journal::from_ops(vec![twice])),
            Err(MetadataError::CannotCarry(_))
        ));
        // Malformed text is a parse error, never an expansion.
        for line in [
            "carry-plan 1",
            "carry-plan 1 -",
            "carry-plan 1 5-5",
            "carry-plan 1 6-5",
            "carry-plan 1 +5",
            "carry-plan 1 0-99999999999",
        ] {
            let text = format!("metadata-journal v1\n{line}\n");
            assert!(Journal::parse(&text).is_err(), "{line:?} parsed");
        }
    }

    #[test]
    fn check_invariants_flags_tampering() {
        let mut db = journaled_session();
        // Corrupt a completion link by pointing a schedule at an entity
        // of the wrong activity (reach through the crate-public field).
        let stim_container = db.entity_container("stimuli").unwrap().to_vec();
        let sched = db.schedule_container("Create").unwrap()[0];
        db.schedules[sched.index()].set_link(stim_container[0]);
        let violations = db.check_invariants().unwrap_err();
        assert!(!violations.is_empty());
    }
}
