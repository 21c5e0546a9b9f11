//! The storage engine behind the metadata database: a [`Store`] trait
//! offering typed CRUD over runs, schedule instances, planning
//! sessions, and links, with two interchangeable backends.
//!
//! * [`ArenaStore`] — the original grow-forever in-memory arena: a
//!   [`MetadataDb`] plus its optional write-ahead [`Journal`]. Fast,
//!   volatile, and what every single-session `Hercules` uses by
//!   default.
//! * [`PersistentStore`] — a **snapshot + journal-tail** engine layered
//!   on the write-ahead journal: the database state lives on disk as
//!   the last snapshot (a [`MetadataDb::dump`]) plus a redo tail of
//!   every op appended since. Opening replays snapshot then tail;
//!   [`compact`](Store::compact) folds the tail into a fresh snapshot
//!   and commits it with a crash-consistent `CURRENT` swap (the VOV
//!   lesson: trace-based metadata only scales when the store is an
//!   engine with compaction, not a grow-forever log).
//!
//! # On-disk layout (`PersistentStore`)
//!
//! ```text
//! <dir>/CURRENT            the live sequence number N (temp/renamed)
//! <dir>/snapshot-N.txt     framed metadata-db dump at sequence N
//! <dir>/tail-N.journal     framed redo ops since N
//! <dir>/data.seg           raw design data, append-only (storage v3)
//! ```
//!
//! Files are written in the checksummed **v2 framing**
//! ([`crate::framing`]): each tail record carries the CRC32 of its op
//! line, each snapshot a framing line whose CRC32 covers the dump.
//! Pre-durability v1 roots open read-compatibly and upgrade wholesale
//! on their next compaction.
//!
//! **Storage v3** keeps Level-4 design data out of those files. Each
//! datum is appended once, raw, to the data segment
//! ([`crate::segment`]) *before* the tail record that references it,
//! `store-data-ref <name-hex> <offset> <len> <crc32>`; snapshots carry
//! `data-ref` lines. Opening, compacting and snapshotting never read or
//! copy design data; only the logical export, `take_journal` and
//! `fsck` do, and every such read checks the datum's CRC. The segment
//! is created by the first datum, so a store without design data has
//! exactly the v2 files. v1 and v2 roots (inline `store-data` records
//! and `data` lines) open unmodified; compaction writes v3.
//!
//! Every mutation records its op in the in-memory journal before it is
//! applied; right after, the store frames the op into a staged tail
//! buffer and drops it from memory — including ops torn by an injected
//! crash, which is exactly the write-ahead fidelity the chaos suite
//! checks. Each record is appended to the tail file by the end of its
//! engine step or planning pass, and nothing is acknowledged before
//! then: the flow manager wraps each in a *write group*
//! ([`Store::begin_write_group`]), whose close writes the group's data
//! to the segment in one write and its records to the tail in one
//! append. A mutation outside a group is written before it returns.
//! The tail file *is* this store's journal: memory holds only the
//! staged bytes of an open group, never ops. All I/O goes
//! through the [`Vfs`] seam so the chaos suite can inject storage
//! failures (ENOSPC, EIO, short writes, lying fsync, dropped renames)
//! deterministically.
//!
//! # One reader, one commit
//!
//! A generation is read in one place: `read_generation` reads its
//! snapshot, stats the data segment, reads its tail and replays the
//! tail onto the snapshot through `MetadataDb::replay`, the one
//! replay loop. It returns findings; open refuses or heals on them, and
//! [`crate::fsck`] turns the same findings into verdicts. A generation
//! is written in one place too: `commit_generation` writes the
//! snapshot and an empty tail in place, fsyncs each, syncs the
//! directory once, and then names the generation in `CURRENT` (temp
//! file and rename), the commit point. Until then nothing reads the new
//! files, so they need no temp files of their own. Create,
//! [`replace_db`](Store::replace_db), [`compact`](Store::compact) and
//! `fsck --repair` all commit through it. The data segment is synced
//! first, and only when it grew since this store last synced it.
//!
//! # Recovery policy
//!
//! Reopening distinguishes two failure shapes:
//!
//! * **Torn tail** — only the *last* record is invalid: a process died
//!   mid-append. The op was never acknowledged as durable, so open
//!   truncates it and proceeds, as ever. A `store-data-ref` record
//!   whose extent ends past the data segment's end is torn the same
//!   way (the datum's bytes did not survive), and the tail is
//!   truncated there; appends resume at the segment's physical end.
//! * **Corrupt interior** — an earlier record (or the snapshot) fails
//!   its checksum while valid data follows: bit-rot or a silent short
//!   write. Guessing would fabricate history, so open refuses with a
//!   typed [`StoreError::Corruption`] report; `herc fsck --repair`
//!   (see [`crate::fsck`]) rebuilds from the best recoverable state.
//!
//! # Wedging
//!
//! If a segment write or tail append fails (disk full, I/O error) the
//! store **wedges**: every further fallible mutation returns
//! [`MetadataError::StorageFailed`], because acknowledging writes that
//! cannot be persisted would break the write-ahead contract, and so
//! does the close of the write group whose write failed. (The ops
//! whose records were not written have already applied in memory —
//! they may not survive a reopen; everything acknowledged before them
//! is durable.) Reads keep working; reopening the directory
//! resumes from the last durable prefix. (Earlier revisions panicked here; a
//! million-user workspace must degrade, not abort.)
//!
//! # Generations
//!
//! Compaction renumbers nothing (dumps preserve allocation order) but
//! **bumps the store generation**: the live database is restamped at
//! `N+1` in place — exactly what [`MetadataDb::load_at`] of the new
//! snapshot would build, without parsing it — so ids held from before
//! the compaction fail mutating calls with
//! [`MetadataError::StaleHandle`] instead of silently resolving against
//! the reused slot space. The files of generation `N` are kept as the
//! fallback state for `fsck` (generation `N-1` is deleted), so one
//! corrupted compaction never strands a project.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use schedule::WorkDays;
use simtools::vfs::{AppendFile, RealVfs, Vfs};

use crate::database::MetadataDb;
use crate::error::MetadataError;
use crate::export::LoadError;
use crate::framing::{self, Framing, SnapshotIssue, TailIssue, TailScan};
use crate::ids::{DataObjectId, EntityInstanceId, PlanningSessionId, RunId, ScheduleInstanceId};
use crate::journal::{Journal, JournalOp, ReplayStop};
use crate::objects::DataBody;
use crate::segment::{self, Extent, SegmentWriter};

/// What kind of damage a [`CorruptionReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CorruptionKind {
    /// `CURRENT` exists but does not hold a sequence number.
    BadCurrent,
    /// A file `CURRENT` points at is missing (a dropped rename, manual
    /// deletion).
    MissingFile,
    /// A file is not UTF-8 text at all.
    NotText,
    /// A snapshot or tail header is unrecognized.
    BadHeader,
    /// A v2 snapshot's checksum does not match its body.
    ChecksumMismatch,
    /// An interior tail record failed its checksum or did not parse
    /// while later records exist.
    CorruptRecord,
    /// The snapshot body failed to load as a database dump.
    SnapshotLoad,
    /// The tail's ops do not apply onto the snapshot they accompany.
    TailReplay,
    /// A data reference does not resolve in the data segment: it ends
    /// past the segment, or its bytes fail the reference's checksum.
    DataRef,
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CorruptionKind::BadCurrent => "bad CURRENT",
            CorruptionKind::MissingFile => "missing file",
            CorruptionKind::NotText => "not UTF-8 text",
            CorruptionKind::BadHeader => "bad header",
            CorruptionKind::ChecksumMismatch => "checksum mismatch",
            CorruptionKind::CorruptRecord => "corrupt record",
            CorruptionKind::SnapshotLoad => "snapshot does not load",
            CorruptionKind::TailReplay => "tail does not replay",
            CorruptionKind::DataRef => "bad data reference",
        };
        f.write_str(s)
    }
}

/// A typed description of store damage: which file, what kind of
/// damage, and the details recovery or `fsck` needs to print. This is
/// what the open path surfaces *instead of* garbage state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionReport {
    /// The damaged file.
    pub path: PathBuf,
    /// The damage classification.
    pub kind: CorruptionKind,
    /// Human-readable specifics (line numbers, checksums).
    pub detail: String,
}

impl fmt::Display for CorruptionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {}: {}",
            self.kind,
            self.path.display(),
            self.detail
        )
    }
}

/// Errors from store lifecycle operations (open, checkpoint, compact).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// A metadata-level failure (validation, injected crash, stale
    /// handle).
    Metadata(MetadataError),
    /// A snapshot or tail file failed to parse.
    Load(LoadError),
    /// Filesystem trouble; carries the failing path and the OS error.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// The store's files are damaged beyond the self-healing torn-tail
    /// case: recovery refuses to guess and reports what it found. Run
    /// `herc fsck --repair` to rebuild from the best recoverable state.
    Corruption(CorruptionReport),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Metadata(e) => write!(f, "metadata error: {e}"),
            StoreError::Load(e) => write!(f, "corrupt store file: {e}"),
            StoreError::Io { path, message } => {
                write!(f, "store I/O error at {}: {message}", path.display())
            }
            StoreError::Corruption(report) => write!(f, "store corruption: {report}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<MetadataError> for StoreError {
    fn from(e: MetadataError) -> Self {
        StoreError::Metadata(e)
    }
}

impl From<LoadError> for StoreError {
    fn from(e: LoadError) -> Self {
        StoreError::Load(e)
    }
}

pub(crate) fn io_err(path: &Path, e: impl fmt::Display) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

pub(crate) fn corrupt(path: &Path, kind: CorruptionKind, detail: impl Into<String>) -> StoreError {
    StoreError::Corruption(CorruptionReport {
        path: path.to_path_buf(),
        kind,
        detail: detail.into(),
    })
}

/// What a [`compact`](Store::compact) accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Redo ops in the tail before compaction (folded into the new
    /// snapshot).
    pub tail_ops_before: usize,
    /// Redo ops in the tail afterwards (always 0 for the persistent
    /// store; the compacted journal length for the arena).
    pub tail_ops_after: usize,
    /// Bytes the engine held in files before: the snapshot and the
    /// tail. The data segment, which compaction never rewrites, is not
    /// counted. Always 0 for the arena, which holds no files; its
    /// journal's size shows in `tail_ops_before`.
    pub bytes_before: u64,
    /// Bytes held in files afterwards (0 for the arena).
    pub bytes_after: u64,
    /// The store generation after compaction. Handles minted before it
    /// are now stale.
    pub generation: u32,
}

/// Typed CRUD over the metadata database — the storage-engine seam
/// between the flow manager and its Level-3 metadata.
///
/// Reads go through [`db`](Store::db) (the full [`MetadataDb`] query
/// surface); every mutation goes through a trait method so a backend
/// can interpose write-ahead persistence. Both backends pass the same
/// conformance suite (`tests/store_conformance.rs`).
pub trait Store: fmt::Debug + Send + Sync {
    /// The live database, for queries.
    fn db(&self) -> &MetadataDb;

    // -- typed mutations (mirroring `MetadataDb`) ----------------------

    /// [`MetadataDb::declare_entity_container`].
    fn declare_entity_container(&mut self, class: &str);

    /// [`MetadataDb::declare_schedule_container`].
    fn declare_schedule_container(&mut self, activity: &str, output_class: &str);

    /// [`MetadataDb::store_data`].
    fn store_data(&mut self, name: &str, content: Vec<u8>) -> DataObjectId;

    /// [`MetadataDb::begin_run`].
    ///
    /// # Errors
    ///
    /// As [`MetadataDb::begin_run`].
    fn begin_run(
        &mut self,
        activity: &str,
        operator: &str,
        started_at: WorkDays,
    ) -> Result<RunId, MetadataError>;

    /// [`MetadataDb::finish_run`].
    ///
    /// # Errors
    ///
    /// As [`MetadataDb::finish_run`].
    fn finish_run(
        &mut self,
        run: RunId,
        output_class: &str,
        data: DataObjectId,
        finished_at: WorkDays,
        inputs: &[EntityInstanceId],
    ) -> Result<EntityInstanceId, MetadataError>;

    /// [`MetadataDb::supply_input`].
    ///
    /// # Errors
    ///
    /// As [`MetadataDb::supply_input`].
    fn supply_input(
        &mut self,
        class: &str,
        creator: &str,
        created_at: WorkDays,
        data: DataObjectId,
    ) -> Result<EntityInstanceId, MetadataError>;

    /// [`MetadataDb::begin_planning`].
    fn begin_planning(&mut self, at: WorkDays) -> PlanningSessionId;

    /// [`MetadataDb::plan_activity`].
    ///
    /// # Errors
    ///
    /// As [`MetadataDb::plan_activity`].
    fn plan_activity(
        &mut self,
        session: PlanningSessionId,
        activity: &str,
        planned_start: WorkDays,
        planned_duration: WorkDays,
    ) -> Result<ScheduleInstanceId, MetadataError>;

    /// [`MetadataDb::carry_plan`]: one mutation, one journal record.
    ///
    /// # Errors
    ///
    /// As [`MetadataDb::carry_plan`].
    fn carry_plan(
        &mut self,
        session: PlanningSessionId,
        from: &[ScheduleInstanceId],
    ) -> Result<Vec<ScheduleInstanceId>, MetadataError>;

    /// [`MetadataDb::assign`].
    ///
    /// # Errors
    ///
    /// As [`MetadataDb::assign`].
    fn assign(&mut self, schedule: ScheduleInstanceId, designer: &str)
        -> Result<(), MetadataError>;

    /// [`MetadataDb::link_completion`].
    ///
    /// # Errors
    ///
    /// As [`MetadataDb::link_completion`].
    fn link_completion(
        &mut self,
        schedule: ScheduleInstanceId,
        entity: EntityInstanceId,
    ) -> Result<(), MetadataError>;

    // -- write groups ---------------------------------------------------

    /// Opens a write group. Until it closes, a backend may stage the
    /// records of the mutations that follow and write them together at
    /// [`end_write_group`](Store::end_write_group). Groups nest; the
    /// outermost close writes. Outside a group every mutation is
    /// written before it returns. No-op for the arena.
    fn begin_write_group(&mut self) {}

    /// Closes a write group. The persistent store writes what the
    /// group staged — the data segment in one write, then the tail in
    /// one append — and nothing the group did is durable before this
    /// returns `Ok`. No-op for the arena.
    ///
    /// # Errors
    ///
    /// [`MetadataError::StorageFailed`] when the store is wedged, by
    /// this write or an earlier one.
    fn end_write_group(&mut self) -> Result<(), MetadataError> {
        Ok(())
    }

    // -- journal & crash control ---------------------------------------

    /// Turns on write-ahead journaling ([`MetadataDb::enable_journal`]).
    /// No-op for the persistent store, which always journals.
    fn enable_journal(&mut self);

    /// Detaches the in-memory journal ([`MetadataDb::take_journal`]).
    ///
    /// The persistent store keeps journaling — its durability depends
    /// on it — and returns a *copy* of its redo tail instead: the tail
    /// file decoded through its [`Vfs`], followed by any op not yet
    /// appended (only a wedged store holds such ops). Replayed onto the
    /// live snapshot it reproduces the live state. `None` if the tail
    /// file cannot be read. Meant for tests and diagnostics: it reads
    /// the whole file.
    fn take_journal(&mut self) -> Option<Journal>;

    /// Arms a simulated crash ([`MetadataDb::inject_crash_after`]).
    fn inject_crash_after(&mut self, after: u32);

    /// Disarms a pending injected crash ([`MetadataDb::disarm_crash`]).
    fn disarm_crash(&mut self);

    // -- lifecycle -----------------------------------------------------

    /// Replaces the entire database state (dump-loader plumbing). The
    /// persistent store treats this as a new epoch: it checkpoints a
    /// fresh snapshot of the replacement state.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if persisting the replacement fails.
    fn replace_db(&mut self, db: MetadataDb) -> Result<(), StoreError>;

    /// Forces buffered state to durable storage (no-op for the arena).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem trouble.
    fn checkpoint(&mut self) -> Result<(), StoreError>;

    /// Folds the journal tail into a fresh snapshot and **bumps the
    /// store generation** — handles minted before the call become
    /// stale. See the [module docs](self) for the crash-consistent
    /// swap protocol.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the store has crashed or persisting fails.
    fn compact(&mut self) -> Result<CompactionStats, StoreError>;

    /// An owned deep copy. Cloning a [`PersistentStore`] yields a
    /// *detached in-memory* [`ArenaStore`] over the same state — two
    /// live writers on one tail file would tear it — which is exactly
    /// the what-if-fork semantics the chaos suite's cloned sessions
    /// want.
    fn boxed_clone(&self) -> Box<dyn Store>;

    /// The on-disk directory, for persistent backends.
    fn path(&self) -> Option<&Path>;

    /// Why the store refuses writes, if it has wedged itself after a
    /// failed durability operation. `None` for healthy stores and for
    /// backends that never wedge (the arena).
    fn wedged_reason(&self) -> Option<&str> {
        None
    }

    /// Closes any file the backend holds open, so its directory can be
    /// deleted under it; the next mutation reopens by path (and wedges
    /// if the files are gone). No-op for the arena.
    fn release_files(&mut self) {}
}

impl Clone for Box<dyn Store> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

// ----------------------------------------------------------------------
// Arena backend
// ----------------------------------------------------------------------

/// The in-memory backend: a plain [`MetadataDb`] arena. This is the
/// storage engine every pre-workspace `Hercules` session used, now
/// behind the [`Store`] seam.
#[derive(Debug, Clone, Default)]
pub struct ArenaStore {
    db: MetadataDb,
}

impl ArenaStore {
    /// Wraps an existing database.
    pub fn new(db: MetadataDb) -> Self {
        ArenaStore { db }
    }

    /// Consumes the store, yielding the database.
    pub fn into_db(self) -> MetadataDb {
        self.db
    }
}

impl Store for ArenaStore {
    fn db(&self) -> &MetadataDb {
        &self.db
    }

    fn declare_entity_container(&mut self, class: &str) {
        self.db.declare_entity_container(class);
    }

    fn declare_schedule_container(&mut self, activity: &str, output_class: &str) {
        self.db.declare_schedule_container(activity, output_class);
    }

    fn store_data(&mut self, name: &str, content: Vec<u8>) -> DataObjectId {
        self.db.store_data(name, content)
    }

    fn begin_run(
        &mut self,
        activity: &str,
        operator: &str,
        started_at: WorkDays,
    ) -> Result<RunId, MetadataError> {
        self.db.begin_run(activity, operator, started_at)
    }

    fn finish_run(
        &mut self,
        run: RunId,
        output_class: &str,
        data: DataObjectId,
        finished_at: WorkDays,
        inputs: &[EntityInstanceId],
    ) -> Result<EntityInstanceId, MetadataError> {
        self.db
            .finish_run(run, output_class, data, finished_at, inputs)
    }

    fn supply_input(
        &mut self,
        class: &str,
        creator: &str,
        created_at: WorkDays,
        data: DataObjectId,
    ) -> Result<EntityInstanceId, MetadataError> {
        self.db.supply_input(class, creator, created_at, data)
    }

    fn begin_planning(&mut self, at: WorkDays) -> PlanningSessionId {
        self.db.begin_planning(at)
    }

    fn plan_activity(
        &mut self,
        session: PlanningSessionId,
        activity: &str,
        planned_start: WorkDays,
        planned_duration: WorkDays,
    ) -> Result<ScheduleInstanceId, MetadataError> {
        self.db
            .plan_activity(session, activity, planned_start, planned_duration)
    }

    fn carry_plan(
        &mut self,
        session: PlanningSessionId,
        from: &[ScheduleInstanceId],
    ) -> Result<Vec<ScheduleInstanceId>, MetadataError> {
        self.db.carry_plan(session, from)
    }

    fn assign(
        &mut self,
        schedule: ScheduleInstanceId,
        designer: &str,
    ) -> Result<(), MetadataError> {
        self.db.assign(schedule, designer)
    }

    fn link_completion(
        &mut self,
        schedule: ScheduleInstanceId,
        entity: EntityInstanceId,
    ) -> Result<(), MetadataError> {
        self.db.link_completion(schedule, entity)
    }

    fn enable_journal(&mut self) {
        self.db.enable_journal();
    }

    fn take_journal(&mut self) -> Option<Journal> {
        self.db.take_journal()
    }

    fn inject_crash_after(&mut self, after: u32) {
        self.db.inject_crash_after(after);
    }

    fn disarm_crash(&mut self) {
        self.db.disarm_crash();
    }

    fn replace_db(&mut self, db: MetadataDb) -> Result<(), StoreError> {
        self.db = db;
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn compact(&mut self) -> Result<CompactionStats, StoreError> {
        self.db.check_alive()?;
        let ops_before = self.db.journal().map_or(0, Journal::len);
        // Restamp at a bumped generation: slots are preserved but every
        // handle minted before this call is now stale.
        let generation = self.db.generation() + 1;
        self.db.restamp(generation);
        let ops_after = match self.db.journal.is_some() {
            true => {
                let compacted = Journal::compacted_from(&self.db);
                let len = compacted.len();
                self.db.journal = Some(compacted);
                len
            }
            false => 0,
        };
        Ok(CompactionStats {
            tail_ops_before: ops_before,
            tail_ops_after: ops_after,
            bytes_before: 0,
            bytes_after: 0,
            generation,
        })
    }

    fn boxed_clone(&self) -> Box<dyn Store> {
        Box::new(self.clone())
    }

    fn path(&self) -> Option<&Path> {
        None
    }
}

// ----------------------------------------------------------------------
// Persistent backend
// ----------------------------------------------------------------------

pub(crate) const CURRENT: &str = "CURRENT";

pub(crate) fn snapshot_name(seq: u64) -> String {
    format!("snapshot-{seq}.txt")
}

pub(crate) fn tail_name(seq: u64) -> String {
    format!("tail-{seq}.journal")
}

/// The snapshot + journal-tail backend. See the [module docs](self)
/// for the on-disk layout and protocols.
#[derive(Debug)]
pub struct PersistentStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    db: MetadataDb,
    /// Live sequence number (`CURRENT`'s content); also the store
    /// generation.
    seq: u64,
    /// How many ops the live tail file holds. The in-memory journal
    /// holds only ops not yet appended to it.
    tail_ops: usize,
    /// The framing the live tail file uses for appends (v1 only when
    /// the store was opened from a pre-durability root).
    framing: Framing,
    /// The live tail file, `dir/tail-<seq>.journal`.
    tail_path: PathBuf,
    /// The append handle on `tail_path`. Opened by the first append of
    /// each epoch (so never before `open`'s torn-tail rewrite), dropped
    /// at every epoch switch and by [`Store::release_files`].
    tail: Option<Box<dyn AppendFile>>,
    /// What the next flush writes; see [`Staged`].
    staged: Staged,
    /// Open write groups: a flush waits for the outermost to close.
    groups: u32,
    /// The data segment's append side (storage v3).
    segment: SegmentWriter,
    /// When set, durability is lost (a segment write or tail append
    /// failed): every fallible mutation is refused with the stored
    /// reason.
    wedged: Option<String>,
}

/// The mutations a [`PersistentStore`] has applied but not yet written:
/// encoded bytes only, never ops, so a group's memory is its records.
#[derive(Debug, Default)]
struct Staged {
    /// The framed tail records, in order.
    tail: String,
    /// How many records `tail` holds.
    records: usize,
    /// The staged data objects by index, with the extent each record
    /// names. Their bytes stay in the database, inline, until the
    /// segment write, so a read inside a group still finds them.
    data: Vec<(usize, Extent)>,
    /// Reused buffer the staged data are gathered in for the one
    /// segment write.
    gather: Vec<u8>,
}

impl Staged {
    fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Where the next staged datum lands: past the staged ones, which
    /// land at the segment's end `seg_len`.
    fn data_end(&self, seg_len: Option<u64>) -> u64 {
        self.data
            .last()
            .map_or(seg_len.unwrap_or(0), |(_, extent)| extent.end())
    }
}

/// The bytes of the staged data objects `data` of `db`, in order.
fn staged_bytes<'a>(
    db: &'a MetadataDb,
    data: &'a [(usize, Extent)],
) -> impl Iterator<Item = &'a [u8]> + 'a {
    data.iter().map(|&(d, _)| match &db.data[d].body {
        DataBody::Inline(bytes) => bytes.as_slice(),
        DataBody::Stored(_) => unreachable!("a staged datum is held inline"),
    })
}

impl PersistentStore {
    /// Creates a new store at `dir` (made if absent) holding `db` as
    /// its first snapshot, on the real filesystem. Fails if `dir`
    /// already contains a store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem trouble or an existing store.
    pub fn create(dir: impl Into<PathBuf>, db: MetadataDb) -> Result<PersistentStore, StoreError> {
        Self::create_on(RealVfs::arc(), dir, db)
    }

    /// [`create`](Self::create) over an explicit [`Vfs`] — the seam
    /// the chaos suite points at [`simtools::vfs::FaultVfs`].
    ///
    /// # Errors
    ///
    /// As [`create`](Self::create).
    pub fn create_on(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
        db: MetadataDb,
    ) -> Result<PersistentStore, StoreError> {
        let dir = dir.into();
        vfs.create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let current = dir.join(CURRENT);
        if vfs.exists(&current) {
            return Err(io_err(&current, "store already exists"));
        }
        let mut db = db;
        // The persistent store always journals; the snapshot covers the
        // declares, so the tail starts truly empty (no re-declares).
        db.journal = Some(Journal::new());
        let mut segment = SegmentWriter::at(&*vfs, &dir)?;
        let seq = 0u64;
        segment.spill(&vfs, &mut db)?;
        segment.sync(&*vfs)?;
        commit_generation(&*vfs, &dir, seq, &db.snapshot_by_ref(0), || Ok(()))?;
        db.segment = Some(segment.source(&vfs));
        Ok(PersistentStore {
            vfs,
            tail_path: dir.join(tail_name(seq)),
            dir,
            db,
            seq,
            tail_ops: 0,
            framing: Framing::V2,
            tail: None,
            staged: Staged::default(),
            groups: 0,
            segment,
            wedged: None,
        })
    }

    /// Opens an existing store on the real filesystem: loads
    /// `snapshot-N` at generation `N`, replays the redo ops in
    /// `tail-N` (tolerating one torn trailing record from a mid-append
    /// death), and resumes appending.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory holds no store, or
    /// [`StoreError::Corruption`] if a file is damaged beyond the
    /// self-healing torn-tail case.
    pub fn open(dir: impl Into<PathBuf>) -> Result<PersistentStore, StoreError> {
        Self::open_on(RealVfs::arc(), dir)
    }

    /// [`open`](Self::open) over an explicit [`Vfs`].
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
    ) -> Result<PersistentStore, StoreError> {
        let dir = dir.into();
        let mut span = obs::span!("store.open");
        let seq = read_current(&*vfs, &dir)?;
        let read = read_generation(&*vfs, &dir, seq, None);
        if let Some(refusal) = read.refusal() {
            return Err(refusal);
        }
        let (Some(mut db), Ok(segment), Ok(mut scan)) = (read.db, read.segment, read.tail) else {
            unreachable!("open refuses a generation whose files did not load")
        };
        let kept = read.kept;
        let tail_path = dir.join(tail_name(seq));
        // Refuse before healing, so `fsck` scrubs the files as found.
        if let Some(stop) = read.unreplayable {
            let refused = stop.into_refusal().to_string();
            return Err(corrupt(&tail_path, CorruptionKind::TailReplay, refused));
        }
        // A torn trailing record, or a record referencing data past the
        // segment's end, must be *truncated* on disk, not merely
        // skipped — otherwise the next append would splice onto the
        // partial record and corrupt the log for the next open.
        if kept < scan.journal.len() || scan.issue.is_some() {
            scan.journal.truncate(kept);
            write_atomic(&*vfs, &tail_path, &scan.framing.encode_tail(&scan.journal))?;
        }
        span.record("seq", seq);
        span.record("tail_ops", kept);
        // The replayed ops live on in the tail file; memory starts empty.
        db.journal = Some(Journal::new());
        db.segment = Some(segment.source(&vfs));
        Ok(PersistentStore {
            vfs,
            dir,
            db,
            seq,
            tail_ops: kept,
            framing: scan.framing,
            tail_path,
            tail: None,
            staged: Staged::default(),
            groups: 0,
            segment,
            wedged: None,
        })
    }

    /// The live sequence number (and store generation).
    pub fn sequence(&self) -> u64 {
        self.seq
    }

    /// The framing new tail appends use (v1 only on a pre-durability
    /// root that has not compacted yet).
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// Why the store is wedged, if it is — see the
    /// [module docs](self#wedging).
    pub fn wedged_reason(&self) -> Option<&str> {
        self.wedged.as_deref()
    }

    /// Refuses fallible work on a wedged store.
    fn check_wedged(&self) -> Result<(), MetadataError> {
        match &self.wedged {
            Some(reason) => Err(MetadataError::StorageFailed(reason.clone())),
            None => Ok(()),
        }
    }

    /// Frames the op the last mutation recorded in the in-memory
    /// journal into the staged tail and drops it from memory, then
    /// flushes unless a write group is open. Runs after *every*
    /// mutation — including one torn by an injected crash, whose op
    /// was recorded before the simulated death and therefore must
    /// reach disk, exactly like a real WAL. Each record is appended by
    /// the end of its engine step or planning pass (the write group the
    /// flow manager opens around it); nothing is acknowledged before
    /// then.
    fn stage(&mut self) {
        let journal = self
            .db
            .journal
            .as_mut()
            .expect("persistent store always journals");
        for op in journal.ops() {
            self.framing
                .encode_tail_record_into(op, &mut self.staged.tail);
        }
        self.staged.records += journal.len();
        journal.clear();
        if self.groups == 0 {
            self.flush();
        }
    }

    /// Writes what is staged: the staged data in one segment write,
    /// checked for a short append, then the staged records in one tail
    /// append through the held handle (reopened by path when there is
    /// none). Data go before the records that reference them; a datum's
    /// body points at its extent only once the segment write is done.
    /// If either write fails, what remains staged stays in memory and
    /// the store wedges (see the [module docs](self#wedging)) instead
    /// of panicking: durability is gone, so every further fallible
    /// mutation is refused with [`MetadataError::StorageFailed`].
    fn flush(&mut self) {
        if self.wedged.is_some() || self.staged.is_empty() {
            return;
        }
        let staged = &mut self.staged;
        let mut span = obs::span!(
            "store.flush",
            records = staged.records,
            tail_bytes = staged.tail.len(),
        );
        if !staged.data.is_empty() {
            staged.gather.clear();
            for bytes in staged_bytes(&self.db, &staged.data) {
                staged.gather.extend_from_slice(bytes);
            }
            span.record("data_bytes", staged.gather.len());
            match self.segment.append(&self.vfs, &staged.gather) {
                Ok(offset) => debug_assert_eq!(offset, staged.data[0].1.offset),
                Err(e) => {
                    let path = self.segment.path();
                    obs::event!("store.wedged", path = path.display().to_string());
                    self.wedged = Some(format!(
                        "data segment append failed at {}: {e}",
                        path.display()
                    ));
                    return;
                }
            }
            for (d, extent) in staged.data.drain(..) {
                self.db.data[d].body = DataBody::Stored(extent);
            }
        }
        let path = &self.tail_path;
        let appended = match self.tail.take() {
            Some(tail) => Ok(tail),
            None => Arc::clone(&self.vfs).open_append(path),
        }
        .and_then(|mut tail| tail.append(staged.tail.as_bytes()).map(|()| tail));
        match appended {
            Ok(tail) => {
                self.tail = Some(tail);
                self.tail_ops += staged.records;
                staged.records = 0;
                staged.tail.clear();
            }
            Err(e) => {
                let reason = format!("tail append failed at {}: {e}", path.display());
                obs::event!("store.wedged", path = path.display().to_string());
                self.wedged = Some(reason);
            }
        }
    }

    /// Makes sequence `next` (already committed to `CURRENT`) the live
    /// epoch, with an empty v2 tail.
    fn enter_epoch(&mut self, next: u64) {
        self.seq = next;
        self.tail_ops = 0;
        self.framing = Framing::V2;
        self.tail_path = self.dir.join(tail_name(next));
        self.tail = None;
    }

    /// Commits `db` as the generation after the live one and returns
    /// how many fsyncs that took. Its inline data move to the segment
    /// first, which is made durable before anything refers to it; the
    /// snapshot is written into a buffer of at least `capacity` bytes.
    /// If the commit fails, the live epoch is intact and whatever half
    /// of the next one was written is removed. Once it succeeds, the
    /// superseded generation stays as the fsck fallback and the one
    /// before it is removed.
    fn commit_next(&mut self, db: &mut MetadataDb, capacity: usize) -> Result<u32, StoreError> {
        let next = self.seq + 1;
        let committed = (|| {
            self.segment.spill(&self.vfs, db)?;
            let synced = {
                let mut span = obs::span!("store.segment_sync");
                let synced = self.segment.sync(&*self.vfs)?;
                span.record("fsync", synced);
                synced
            };
            let snapshot = {
                let mut span = obs::span!("store.dump");
                let snapshot = db.snapshot_by_ref(capacity);
                span.record("bytes", snapshot.len());
                snapshot
            };
            let _span = obs::span!("store.commit", seq = next);
            commit_generation(&*self.vfs, &self.dir, next, &snapshot, || Ok(()))?;
            Ok(u32::from(synced) + COMMIT_FSYNCS)
        })();
        let stale = if committed.is_ok() {
            self.seq.checked_sub(1)
        } else {
            Some(next)
        };
        if let Some(seq) = stale {
            self.remove_generation(seq);
        }
        committed
    }

    fn file_size(&self, name: &str) -> u64 {
        self.vfs.file_size(&self.dir.join(name))
    }

    /// Best-effort removal of a generation's files.
    fn remove_generation(&self, seq: u64) {
        let _ = self.vfs.remove_file(&self.dir.join(snapshot_name(seq)));
        let _ = self.vfs.remove_file(&self.dir.join(tail_name(seq)));
    }
}

/// Sequence → generation. Sequences are u64 for on-disk headroom while
/// id stamps stay a compact u32; 2³² compactions of one project is
/// beyond plausible, but saturate rather than wrap if it happens.
pub(crate) fn generation_of(seq: u64) -> u32 {
    u32::try_from(seq).unwrap_or(u32::MAX)
}

/// Whether `db` writes the same snapshot as the database a load of
/// that snapshot builds at `db`'s generation: what a restamp keeps.
fn reloads_to_itself(db: &MetadataDb) -> bool {
    let snapshot = db.snapshot_by_ref(0);
    framing::decode_snapshot(&snapshot)
        .ok()
        .and_then(|(_, body)| MetadataDb::load_at(body, db.generation()).ok())
        .is_some_and(|reloaded| reloaded.snapshot_by_ref(0) == snapshot)
}

/// Reads the sequence number `CURRENT` names.
///
/// # Errors
///
/// [`StoreError::Io`] when `CURRENT` cannot be read (no store), a
/// [`CorruptionKind::BadCurrent`] report when it holds no number.
pub(crate) fn read_current(vfs: &dyn Vfs, dir: &Path) -> Result<u64, StoreError> {
    let path = dir.join(CURRENT);
    let text = vfs.read_to_string(&path).map_err(|e| io_err(&path, e))?;
    text.trim().parse().map_err(|_| {
        corrupt(
            &path,
            CorruptionKind::BadCurrent,
            format!("not a sequence number: {:?}", text.trim()),
        )
    })
}

/// What reading one store generation found: the one reader behind
/// [`PersistentStore::open_on`] and [`crate::fsck`]. It reads the
/// snapshot, stats the data segment, reads the tail, and replays the
/// tail onto the snapshot. It writes nothing and reads no design data.
#[derive(Debug)]
pub(crate) struct GenerationRead {
    /// The store directory and the generation's sequence number.
    pub(crate) dir: PathBuf,
    pub(crate) seq: u64,
    /// The snapshot's framing and size in bytes, or why it does not load.
    pub(crate) snapshot: Result<(Framing, usize), StoreError>,
    /// The data segment's append side, or why it cannot be stat'ed.
    pub(crate) segment: Result<SegmentWriter, StoreError>,
    /// The first datum the snapshot references past the segment's end,
    /// described: acknowledged data that are lost, not torn.
    pub(crate) lost_data: Option<String>,
    /// The tail's valid record prefix and what stopped its decode, or
    /// why it cannot be read.
    pub(crate) tail: Result<TailScan, StoreError>,
    /// The first record of that prefix referencing data past the
    /// segment's end, described. With a segment there the tail is torn
    /// at it; with none, it is damage.
    pub(crate) dangling: Option<(usize, String)>,
    /// How many records of the prefix are kept: those before a torn
    /// data reference.
    pub(crate) kept: usize,
    /// The snapshot, whose data objects are the first `snapshot_data`,
    /// with the kept records replayed onto it; `None` when it does not
    /// load.
    pub(crate) db: Option<MetadataDb>,
    pub(crate) snapshot_data: usize,
    /// The kept record that stopped the replay, if one did.
    pub(crate) unreplayable: Option<ReplayStop>,
}

/// Reads generation `seq` of the store in `dir`. When `verify` holds the
/// segment's bytes, the replay also stops at the first record whose
/// datum does not verify in them.
pub(crate) fn read_generation(
    vfs: &dyn Vfs,
    dir: &Path,
    seq: u64,
    verify: Option<&[u8]>,
) -> GenerationRead {
    let snap_path = dir.join(snapshot_name(seq));
    let loaded = read_store_file(vfs, &snap_path).and_then(|raw| {
        let (framing, body) = decode_snapshot_file(&snap_path, &raw)?;
        let db = MetadataDb::load_at(body, generation_of(seq))
            .map_err(|e| corrupt(&snap_path, CorruptionKind::SnapshotLoad, e.to_string()))?;
        Ok(((framing, raw.len()), db))
    });
    let (snapshot, mut db) = match loaded {
        Ok((found, db)) => (Ok(found), Some(db)),
        Err(e) => (Err(e), None),
    };
    let snapshot_data = db.as_ref().map_or(0, |db| db.data.len());
    let segment = SegmentWriter::at(vfs, dir);
    // References are checked against an unstat-able segment as if empty.
    let seg_len = segment.as_ref().map_or(Some(0), SegmentWriter::len);
    let lost_data = db
        .as_ref()
        .and_then(|db| segment::first_snapshot_ref_past(db, seg_len))
        .map(|(name, extent)| segment::describe_past(name, &extent, seg_len));
    let tail =
        read_store_file(vfs, &dir.join(tail_name(seq))).map(|raw| framing::decode_tail(&raw));
    let ops = tail.as_ref().map_or(&[][..], |scan| scan.journal.ops());
    let dangling = segment::first_ref_past(ops, seg_len)
        .map(|(at, name, extent)| (at, segment::describe_past(name, &extent, seg_len)));
    let kept = match (&dangling, seg_len) {
        (Some((at, _)), Some(_)) => *at,
        _ => ops.len(),
    };
    let _span = obs::span!("journal.tail_replay", ops = kept);
    let unreplayable = db.as_mut().and_then(|db| db.replay(&ops[..kept], verify));
    GenerationRead {
        dir: dir.to_path_buf(),
        seq,
        snapshot,
        segment,
        lost_data,
        tail,
        dangling,
        kept,
        db,
        snapshot_data,
        unreplayable,
    }
}

impl GenerationRead {
    /// Why open refuses this generation before it heals the tail, in
    /// the order open checks. A torn tail is no refusal (open truncates
    /// it), nor is a record that does not replay: open reports that
    /// after the heal.
    pub(crate) fn refusal(&self) -> Option<StoreError> {
        let segment = match (&self.snapshot, &self.segment) {
            (Err(e), _) | (_, Err(e)) => return Some(e.clone()),
            (_, Ok(segment)) => segment,
        };
        let data_ref = |detail| Some(corrupt(segment.path(), CorruptionKind::DataRef, detail));
        if let Some(lost) = &self.lost_data {
            return data_ref(format!("{} references {lost}", snapshot_name(self.seq)));
        }
        let tail_path = self.dir.join(tail_name(self.seq));
        match self.tail.as_ref().map(|scan| &scan.issue) {
            Err(e) => return Some(e.clone()),
            Ok(None | Some(TailIssue::Torn { .. })) => {}
            Ok(Some(issue @ TailIssue::BadHeader)) => {
                return Some(corrupt(
                    &tail_path,
                    CorruptionKind::BadHeader,
                    issue.to_string(),
                ))
            }
            Ok(Some(issue @ (TailIssue::Corrupt { .. } | TailIssue::Unparsable { .. }))) => {
                return Some(corrupt(
                    &tail_path,
                    CorruptionKind::CorruptRecord,
                    issue.to_string(),
                ))
            }
        }
        let (at, what) = self.dangling.as_ref().filter(|_| segment.len().is_none())?;
        data_ref(format!(
            "{} record {} references {what}",
            tail_name(self.seq),
            at + 1
        ))
    }

    /// Whether [`PersistentStore::open_on`] serves this generation.
    pub(crate) fn opens(&self) -> bool {
        self.refusal().is_none() && self.unreplayable.is_none()
    }
}

/// Reads a store file, classifying a missing or non-text file as the
/// corruption it is (the file is named by `CURRENT`, so its absence is
/// damage, not a fresh directory).
fn read_store_file(vfs: &dyn Vfs, path: &Path) -> Result<String, StoreError> {
    vfs.read_to_string(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => corrupt(
            path,
            CorruptionKind::MissingFile,
            "referenced by CURRENT but absent",
        ),
        std::io::ErrorKind::InvalidData => {
            corrupt(path, CorruptionKind::NotText, "not valid UTF-8")
        }
        _ => io_err(path, e),
    })
}

/// Unwraps + checksum-verifies a snapshot file, mapping framing issues
/// to typed corruption.
fn decode_snapshot_file<'a>(path: &Path, raw: &'a str) -> Result<(Framing, &'a str), StoreError> {
    framing::decode_snapshot(raw).map_err(|issue| match issue {
        SnapshotIssue::BadHeader => corrupt(
            path,
            CorruptionKind::BadHeader,
            "unrecognized snapshot header",
        ),
        SnapshotIssue::ChecksumMismatch { .. } => {
            corrupt(path, CorruptionKind::ChecksumMismatch, issue.to_string())
        }
    })
}

/// Commits generation `seq` of the store in `dir`, holding the v2
/// snapshot file `snapshot`: the one commit behind create,
/// [`Store::replace_db`], [`Store::compact`] and `fsck --repair`.
///
/// The generation's snapshot and an empty v2 tail are written in place
/// and fsynced each: nothing reads them before `CURRENT` names them, so
/// they need no temp file and no rename. `before_current` runs next
/// (where repair renames its rewritten data segment into place), then
/// one directory fsync makes every new name durable, and `CURRENT` is
/// replaced through [`write_atomic`]. That rename is the commit point:
/// a crash before it leaves the generation `CURRENT` named before,
/// whole, beside a next generation that nothing names; a crash after
/// it, the new generation, whole.
pub(crate) fn commit_generation(
    vfs: &dyn Vfs,
    dir: &Path,
    seq: u64,
    snapshot: &str,
    before_current: impl FnOnce() -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    write_synced(vfs, &dir.join(snapshot_name(seq)), snapshot)?;
    write_synced(vfs, &dir.join(tail_name(seq)), &Framing::V2.empty_tail())?;
    before_current()?;
    vfs.sync_dir(dir).map_err(|e| io_err(dir, e))?;
    write_atomic(vfs, &dir.join(CURRENT), &format!("{seq}\n"))
}

/// The fsyncs [`commit_generation`] makes: the snapshot, the tail and
/// the directory, then `CURRENT`'s temp file and the directory again.
const COMMIT_FSYNCS: u32 = 5;

/// Writes `content` to `path` in place and fsyncs it. The name is
/// durable only after its directory is synced.
fn write_synced(vfs: &dyn Vfs, path: &Path, content: &str) -> Result<(), StoreError> {
    vfs.write(path, content.as_bytes())
        .and_then(|()| vfs.sync_file(path))
        .map_err(|e| io_err(path, e))
}

/// Writes `content` crash-consistently *and durably*: temp file in the
/// same directory, fsync of the temp file, atomic rename over the
/// target, fsync of the parent directory (without which the rename is
/// not durable — the classic hole). The temp file is removed on any
/// failure.
pub(crate) fn write_atomic(vfs: &dyn Vfs, path: &Path, content: &str) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let result = (|| {
        vfs.write(&tmp, content.as_bytes())
            .map_err(|e| io_err(&tmp, e))?;
        vfs.sync_file(&tmp).map_err(|e| io_err(&tmp, e))?;
        vfs.rename(&tmp, path).map_err(|e| io_err(path, e))?;
        if let Some(parent) = path.parent() {
            if parent != Path::new("") {
                vfs.sync_dir(parent).map_err(|e| io_err(parent, e))?;
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = vfs.remove_file(&tmp);
    }
    result
}

impl Store for PersistentStore {
    fn db(&self) -> &MetadataDb {
        &self.db
    }

    fn declare_entity_container(&mut self, class: &str) {
        self.db.declare_entity_container(class);
        self.stage();
    }

    fn declare_schedule_container(&mut self, activity: &str, output_class: &str) {
        self.db.declare_schedule_container(activity, output_class);
        self.stage();
    }

    fn store_data(&mut self, name: &str, content: Vec<u8>) -> DataObjectId {
        // The datum's place in the segment is fixed now, so its record
        // can be framed at once; the bytes follow at the flush.
        let offset = self.staged.data_end(self.segment.len());
        let extent = Extent::of(offset, &content);
        let id = self.db.store_data_at(name, content, extent);
        self.staged.data.push((id.index(), extent));
        self.stage();
        id
    }

    fn begin_run(
        &mut self,
        activity: &str,
        operator: &str,
        started_at: WorkDays,
    ) -> Result<RunId, MetadataError> {
        self.check_wedged()?;
        let r = self.db.begin_run(activity, operator, started_at);
        self.stage();
        r
    }

    fn finish_run(
        &mut self,
        run: RunId,
        output_class: &str,
        data: DataObjectId,
        finished_at: WorkDays,
        inputs: &[EntityInstanceId],
    ) -> Result<EntityInstanceId, MetadataError> {
        self.check_wedged()?;
        let r = self
            .db
            .finish_run(run, output_class, data, finished_at, inputs);
        self.stage();
        r
    }

    fn supply_input(
        &mut self,
        class: &str,
        creator: &str,
        created_at: WorkDays,
        data: DataObjectId,
    ) -> Result<EntityInstanceId, MetadataError> {
        self.check_wedged()?;
        let r = self.db.supply_input(class, creator, created_at, data);
        self.stage();
        r
    }

    fn begin_planning(&mut self, at: WorkDays) -> PlanningSessionId {
        let id = self.db.begin_planning(at);
        self.stage();
        id
    }

    fn plan_activity(
        &mut self,
        session: PlanningSessionId,
        activity: &str,
        planned_start: WorkDays,
        planned_duration: WorkDays,
    ) -> Result<ScheduleInstanceId, MetadataError> {
        self.check_wedged()?;
        let r = self
            .db
            .plan_activity(session, activity, planned_start, planned_duration);
        self.stage();
        r
    }

    fn carry_plan(
        &mut self,
        session: PlanningSessionId,
        from: &[ScheduleInstanceId],
    ) -> Result<Vec<ScheduleInstanceId>, MetadataError> {
        self.check_wedged()?;
        let r = self.db.carry_plan(session, from);
        self.stage();
        r
    }

    fn assign(
        &mut self,
        schedule: ScheduleInstanceId,
        designer: &str,
    ) -> Result<(), MetadataError> {
        self.check_wedged()?;
        let r = self.db.assign(schedule, designer);
        self.stage();
        r
    }

    fn link_completion(
        &mut self,
        schedule: ScheduleInstanceId,
        entity: EntityInstanceId,
    ) -> Result<(), MetadataError> {
        self.check_wedged()?;
        let r = self.db.link_completion(schedule, entity);
        self.stage();
        r
    }

    fn enable_journal(&mut self) {
        // Always on: the journal *is* the durability mechanism.
    }

    fn take_journal(&mut self) -> Option<Journal> {
        // Hand out a copy read back from the tail file and the staged
        // records; detaching the live journal would silently stop
        // persisting. Data references are resolved: the copy carries
        // every datum's bytes, the staged ones from memory.
        let mut text = self.vfs.read_to_string(&self.tail_path).ok()?;
        text.push_str(&self.staged.tail);
        let mut journal = framing::decode_tail(&text).journal;
        let mut segment = None;
        for op in journal.ops_mut() {
            let JournalOp::StoreDataRef { name, extent } = op else {
                continue;
            };
            let source = self.db.segment_source().ok()?;
            if segment.is_none() {
                // The written segment, then the staged data where the
                // flush will put them.
                let written = self.segment.len().unwrap_or(0);
                let mut bytes = match written {
                    0 => Vec::new(),
                    _ => source.read().ok()?,
                };
                bytes.truncate(written as usize);
                for staged in staged_bytes(&self.db, &self.staged.data) {
                    bytes.extend_from_slice(staged);
                }
                segment = Some(bytes);
            }
            let bytes = source.resolve(segment.as_deref()?, name, extent).ok()?;
            *op = JournalOp::StoreData {
                content: bytes.to_vec(),
                name: std::mem::take(name),
            };
        }
        Some(journal)
    }

    fn inject_crash_after(&mut self, after: u32) {
        self.db.inject_crash_after(after);
    }

    fn disarm_crash(&mut self) {
        self.db.disarm_crash();
    }

    fn replace_db(&mut self, db: MetadataDb) -> Result<(), StoreError> {
        self.flush();
        self.check_wedged()?;
        // A wholesale state replacement starts a new epoch on disk,
        // always in the current framing (v2 upgrade point).
        let mut db = db;
        db.generation = generation_of(self.seq + 1);
        db.journal = Some(Journal::new());
        self.commit_next(&mut db, 0)?;
        db.segment = Some(self.segment.source(&self.vfs));
        self.db = db;
        self.enter_epoch(self.seq + 1);
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.flush();
        if let Some(reason) = &self.wedged {
            return Err(io_err(&self.tail_path, reason));
        }
        // Data before the records that reference them.
        self.segment.sync(&*self.vfs)?;
        self.vfs
            .sync_file(&self.tail_path)
            .map_err(|e| io_err(&self.tail_path, e))
    }

    fn wedged_reason(&self) -> Option<&str> {
        self.wedged.as_deref()
    }

    fn compact(&mut self) -> Result<CompactionStats, StoreError> {
        self.db.check_alive()?;
        self.flush();
        self.check_wedged()?;
        let mut span = obs::span!("store.compact", seq = self.seq);
        let snapshot_before = self.file_size(&snapshot_name(self.seq));
        let bytes_before = snapshot_before + self.file_size(&tail_name(self.seq));
        let tail_ops_before = self.tail_ops;

        // Data held inline (a v1/v2 root's) move to the segment, and
        // the commit writes the next generation: always v3 in v2
        // framing, which is how older roots upgrade. On failure the
        // live state stays, its inline data spilled as before.
        let next = self.seq + 1;
        let mut db = std::mem::take(&mut self.db);
        let committed = self.commit_next(&mut db, snapshot_before as usize);
        self.db = db;
        let fsyncs = committed?;

        // The live database is the state just committed. Restamped at
        // the bumped generation, it is what a load of the new snapshot
        // builds: ids from before this call are stale. Its data already
        // point into the segment it keeps reading.
        let generation = generation_of(next);
        self.db.restamp(generation);
        self.db.journal = Some(Journal::new());
        debug_assert!(
            reloads_to_itself(&self.db),
            "a restamped database is its reloaded snapshot"
        );
        self.enter_epoch(next);

        let bytes_after = self.file_size(&snapshot_name(next)) + self.file_size(&tail_name(next));
        span.record("tail_ops_folded", tail_ops_before);
        span.record("bytes_after", bytes_after);
        span.record("fsyncs", fsyncs);
        Ok(CompactionStats {
            tail_ops_before,
            tail_ops_after: 0,
            bytes_before,
            bytes_after,
            generation,
        })
    }

    fn boxed_clone(&self) -> Box<dyn Store> {
        // Detach: two writers on one tail file would interleave.
        let mut db = self.db.clone();
        db.crashed = false;
        db.crash_countdown = None;
        Box::new(ArenaStore::new(db))
    }

    fn path(&self) -> Option<&Path> {
        Some(&self.dir)
    }

    fn release_files(&mut self) {
        self.tail = None;
        self.segment.release();
    }

    fn begin_write_group(&mut self) {
        self.groups += 1;
    }

    fn end_write_group(&mut self) -> Result<(), MetadataError> {
        self.groups = self
            .groups
            .checked_sub(1)
            .expect("a write group closes only after it opened");
        if self.groups == 0 {
            self.flush();
        }
        self.check_wedged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;
    use simtools::vfs::{FaultVfs, MemVfs, VfsFaultPlan};
    use std::fs;
    use std::io::Write as _;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "schedflow-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seed_db() -> MetadataDb {
        MetadataDb::for_schema(&examples::circuit_design())
    }

    fn mutate(store: &mut dyn Store) -> ScheduleInstanceId {
        let s = store.begin_planning(WorkDays::ZERO);
        let sc = store
            .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        store.assign(sc, "alice").unwrap();
        let data = store.store_data("v1.net", b"module".to_vec());
        let run = store.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        let e = store
            .finish_run(run, "netlist", data, WorkDays::new(1.0), &[])
            .unwrap();
        store.link_completion(sc, e).unwrap();
        sc
    }

    #[test]
    fn persistent_roundtrip_reopen() {
        let dir = temp_dir("roundtrip");
        let mut store = PersistentStore::create(&dir, seed_db()).unwrap();
        mutate(&mut store);
        let dump = store.db().dump();
        drop(store);
        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.db().dump(), dump);
        reopened.db().check_invariants().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_line_is_dropped_on_open() {
        let dir = temp_dir("torn");
        let mut store = PersistentStore::create(&dir, seed_db()).unwrap();
        mutate(&mut store);
        let dump = store.db().dump();
        drop(store);
        // Simulate a process dying mid-append: a partial final line.
        let tail = dir.join(tail_name(0));
        let mut f = fs::OpenOptions::new().append(true).open(&tail).unwrap();
        f.write_all(b"0badc0de begin-run Create al").unwrap();
        drop(f);
        let mut reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.db().dump(), dump);
        // The torn line must be *truncated* on open, not merely
        // skipped: new appends would otherwise splice onto the partial
        // line and corrupt the log for the next open.
        reopened
            .begin_run("Simulate", "bob", WorkDays::ZERO)
            .unwrap();
        let dump = reopened.db().dump();
        drop(reopened);
        let again = PersistentStore::open(&dir).unwrap();
        assert_eq!(again.db().dump(), dump);
        again.db().check_invariants().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_op_survives_reopen() {
        let dir = temp_dir("crash");
        let mut store = PersistentStore::create(&dir, seed_db()).unwrap();
        mutate(&mut store);
        let runs_before = store.db().runs().len();
        store.inject_crash_after(0);
        let err = store
            .begin_run("Simulate", "bob", WorkDays::new(1.0))
            .unwrap_err();
        assert_eq!(err, MetadataError::InjectedCrash);
        drop(store);
        // The op was appended (write-ahead) before the simulated death,
        // so reopening redoes it.
        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.db().runs().len(), runs_before + 1);
        reopened.db().check_invariants().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_tail_and_staleness_bites() {
        let dir = temp_dir("compact");
        let mut store = PersistentStore::create(&dir, seed_db()).unwrap();
        let sc = mutate(&mut store);
        let dump = store.db().dump();
        let stats = store.compact().unwrap();
        assert!(stats.tail_ops_before > 0);
        assert_eq!(stats.tail_ops_after, 0);
        assert_eq!(stats.generation, 1);
        assert_eq!(store.db().dump(), dump, "compaction must not change state");
        // Handles from before the compaction are stale now.
        assert!(matches!(
            store.assign(sc, "bob"),
            Err(MetadataError::StaleHandle(_))
        ));
        // Reopening the compacted store yields byte-identical state.
        drop(store);
        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.db().dump(), dump);
        assert_eq!(reopened.sequence(), 1);
        // And the store keeps working at the new generation.
        let mut reopened = reopened;
        let sc2 = reopened.db().schedule_container("Create").unwrap()[0];
        // Reopening loads the snapshot at generation 1.
        reopened.assign(sc2, "bob").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_keeps_previous_generation_as_fallback() {
        let dir = temp_dir("fallback");
        let mut store = PersistentStore::create(&dir, seed_db()).unwrap();
        mutate(&mut store);
        store.compact().unwrap();
        // Generation 0 files survive as the fsck fallback...
        assert!(dir.join(snapshot_name(0)).exists());
        assert!(dir.join(snapshot_name(1)).exists());
        store.begin_planning(WorkDays::new(3.0));
        store.compact().unwrap();
        // ...and a further compaction retires them, keeping exactly one
        // generation back.
        assert!(!dir.join(snapshot_name(0)).exists());
        assert!(!dir.join(tail_name(0)).exists());
        assert!(dir.join(snapshot_name(1)).exists());
        assert!(dir.join(snapshot_name(2)).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arena_compact_shrinks_journal_and_bumps_generation() {
        let mut store = ArenaStore::new(seed_db());
        store.enable_journal();
        let sc = mutate(&mut store);
        // A torn op inflates the live journal relative to applied state.
        store.inject_crash_after(0);
        let _ = store.begin_run("Simulate", "bob", WorkDays::new(1.0));
        store.disarm_crash();
        // compact() on a crashed arena is refused...
        assert!(matches!(
            store.compact(),
            Err(StoreError::Metadata(MetadataError::InjectedCrash))
        ));
        // ...so recover first, as a real session would.
        let journal = store.take_journal().unwrap();
        let recovered = MetadataDb::recover(&journal).unwrap();
        let mut store = ArenaStore::new(recovered);
        store.enable_journal();
        let dump = store.db().dump();
        let stats = store.compact().unwrap();
        assert_eq!(store.db().dump(), dump);
        assert_eq!(store.db().generation(), stats.generation);
        assert!(store.db().journal().is_some());
        assert!(matches!(
            store.assign(sc, "bob"),
            Err(MetadataError::StaleHandle(_))
        ));
        // The compacted journal still recovers the same state.
        let j = store.db().journal().unwrap();
        assert_eq!(MetadataDb::recover(j).unwrap().dump(), dump);
    }

    #[test]
    fn boxed_clone_of_persistent_store_is_detached() {
        let dir = temp_dir("clone");
        let mut store = PersistentStore::create(&dir, seed_db()).unwrap();
        mutate(&mut store);
        let mut fork = store.boxed_clone();
        assert!(fork.path().is_none(), "clone must not share the tail file");
        fork.begin_planning(WorkDays::new(5.0));
        assert_ne!(fork.db().dump(), store.db().dump());
        fs::remove_dir_all(&dir).unwrap();
    }

    // -- durability-layer tests (Vfs seam, framing, wedging) -----------

    fn mem_store(dir: &str) -> (Arc<MemVfs>, PersistentStore) {
        let mem = MemVfs::new();
        let store =
            PersistentStore::create_on(mem.clone() as Arc<dyn Vfs>, dir, seed_db()).unwrap();
        (mem, store)
    }

    #[test]
    fn mem_vfs_roundtrip_matches_real_backend() {
        let (mem, mut store) = mem_store("/proj");
        mutate(&mut store);
        let dump = store.db().dump();
        drop(store);
        let reopened = PersistentStore::open_on(mem, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), dump);
        reopened.db().check_invariants().unwrap();
    }

    #[test]
    fn persistent_store_keeps_only_unsynced_ops_in_memory() {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(mem.clone(), VfsFaultPlan::none());
        let mut store =
            PersistentStore::create_on(faulty as Arc<dyn Vfs>, "/proj", seed_db()).unwrap();
        for round in 0..150 {
            let at = WorkDays::new(f64::from(round));
            let s = store.begin_planning(at);
            for activity in ["Create", "Simulate"] {
                let sc = store
                    .plan_activity(s, activity, at, WorkDays::new(2.0))
                    .unwrap();
                store.assign(sc, "alice").unwrap();
            }
        }
        assert_eq!(store.db().schedule_count(), 300);
        // Every op is in the tail file, so memory holds none of them.
        assert!(store.db().journal().unwrap().is_empty());
        // take_journal is the tail file, decoded.
        let journal = store.take_journal().unwrap();
        let tail = mem
            .read_to_string(&Path::new("/proj").join(tail_name(0)))
            .unwrap();
        assert_eq!(journal, framing::decode_tail(&tail).journal);
        assert_eq!(journal.len(), 150 + 300 + 300);
        // Replayed onto the snapshot, it reproduces the live state.
        let snapshot = mem
            .read_to_string(&Path::new("/proj").join(snapshot_name(0)))
            .unwrap();
        let (_, body) = decode_snapshot_file(Path::new("snapshot"), &snapshot).unwrap();
        let mut replayed = MetadataDb::load_at(body, 0).unwrap();
        replayed.apply_journal(&journal).unwrap();
        let dump = store.db().dump();
        assert_eq!(replayed.dump(), dump);
        // A reopen replays the same tail and keeps none of it in memory.
        drop(store);
        let reopened = PersistentStore::open_on(mem, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), dump);
        assert!(reopened.db().journal().unwrap().is_empty());
    }

    #[test]
    fn tail_append_failure_wedges_instead_of_panicking() {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(mem.clone(), VfsFaultPlan::none());
        let mut store =
            PersistentStore::create_on(faulty.clone() as Arc<dyn Vfs>, "/proj", seed_db()).unwrap();
        let s = store.begin_planning(WorkDays::ZERO);
        store
            .plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        let persisted_dump = store.db().dump();
        // Every write from here hits ENOSPC.
        faulty.arm_enospc_after(0);
        // The wedging op itself applied in memory before its append
        // failed, so it reports success — but the store is now wedged
        // and refuses every further fallible mutation.
        store.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        assert!(store.wedged_reason().is_some());
        faulty.disarm();
        let err = store
            .begin_run("Create", "alice", WorkDays::new(0.5))
            .unwrap_err();
        assert!(matches!(err, MetadataError::StorageFailed(_)));
        // checkpoint and compact are refused too.
        assert!(store.checkpoint().is_err());
        assert!(store.compact().is_err());
        // Reads still serve.
        assert_eq!(store.db().schedule_count(), 1);
        // Reopen resumes from the durable prefix.
        drop(store);
        let reopened = PersistentStore::open_on(mem, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), persisted_dump);
        reopened.db().check_invariants().unwrap();
    }

    #[test]
    fn corrupt_interior_record_is_a_typed_report() {
        let (mem, mut store) = mem_store("/proj");
        mutate(&mut store);
        drop(store);
        // Flip bytes inside an interior tail record.
        let tail = Path::new("/proj").join(tail_name(0));
        let text = mem.read_to_string(&tail).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert!(lines.len() > 3, "need interior records");
        lines[2] = lines[2].chars().rev().collect();
        mem.write(&tail, (lines.join("\n") + "\n").as_bytes())
            .unwrap();
        let err = PersistentStore::open_on(mem, "/proj").unwrap_err();
        match err {
            StoreError::Corruption(report) => {
                assert_eq!(report.kind, CorruptionKind::CorruptRecord);
                assert_eq!(report.path, tail);
            }
            other => panic!("expected a corruption report, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_bitrot_is_a_typed_report() {
        let (mem, mut store) = mem_store("/proj");
        mutate(&mut store);
        drop(store);
        let snap = Path::new("/proj").join(snapshot_name(0));
        let text = mem.read_to_string(&snap).unwrap();
        mem.write(&snap, text.replace("netlist", "netlisX").as_bytes())
            .unwrap();
        let err = PersistentStore::open_on(mem, "/proj").unwrap_err();
        assert!(matches!(
            err,
            StoreError::Corruption(CorruptionReport {
                kind: CorruptionKind::ChecksumMismatch,
                ..
            })
        ));
    }

    #[test]
    fn missing_snapshot_is_a_typed_report() {
        let (mem, store) = mem_store("/proj");
        drop(store);
        mem.remove_file(&Path::new("/proj").join(snapshot_name(0)))
            .unwrap();
        let err = PersistentStore::open_on(mem, "/proj").unwrap_err();
        assert!(matches!(
            err,
            StoreError::Corruption(CorruptionReport {
                kind: CorruptionKind::MissingFile,
                ..
            })
        ));
    }

    #[test]
    fn v1_root_reads_compatibly_and_upgrades_on_compact() {
        // A pre-durability root: v1 snapshot, v1 tail, no checksums.
        let mem = MemVfs::new();
        let dir = Path::new("/proj");
        let files = [
            (
                snapshot_name(0),
                Framing::V1.encode_snapshot(&seed_db().dump()),
            ),
            (tail_name(0), Framing::V1.empty_tail()),
            (CURRENT.to_owned(), "0\n".to_owned()),
        ];
        for (name, text) in files {
            mem.write(&dir.join(name), text.as_bytes()).unwrap();
        }
        let mut store = PersistentStore::open_on(mem.clone() as Arc<dyn Vfs>, dir).unwrap();
        assert_eq!(store.framing(), Framing::V1);
        mutate(&mut store);
        let dump = store.db().dump();
        drop(store);
        // The appends are v1 records: no checksum field.
        let tail_text = mem.read_to_string(&dir.join(tail_name(0))).unwrap();
        assert!(tail_text.starts_with("metadata-journal v1\nbegin-planning "));
        // A reopen keeps appending v1 to the v1 tail...
        let mut reopened = PersistentStore::open_on(mem.clone() as Arc<dyn Vfs>, dir).unwrap();
        assert_eq!(reopened.framing(), Framing::V1);
        assert_eq!(reopened.db().dump(), dump);
        reopened.begin_planning(WorkDays::new(4.0));
        // ...and compact() rewrites everything checksummed.
        reopened.compact().unwrap();
        assert_eq!(reopened.framing(), Framing::V2);
        let dump2 = reopened.db().dump();
        drop(reopened);
        let snap_text = mem
            .read_to_string(&Path::new("/proj").join(snapshot_name(1)))
            .unwrap();
        assert!(snap_text.starts_with(framing::SNAPSHOT_MAGIC_V2));
        let again = PersistentStore::open_on(mem, "/proj").unwrap();
        assert_eq!(again.framing(), Framing::V2);
        assert_eq!(again.db().dump(), dump2);
    }

    /// A [`MemVfs`] with two data-segment faults: while `cut` is set,
    /// appends silently keep only half their bytes (the lying short
    /// write); while `stat_fails` is set, stats fail with EIO.
    /// Everything else passes through; fsyncs (file and directory) are
    /// counted.
    #[derive(Debug)]
    struct SegmentFaults {
        mem: Arc<MemVfs>,
        cut: std::sync::atomic::AtomicBool,
        stat_fails: std::sync::atomic::AtomicBool,
        fsyncs: std::sync::atomic::AtomicU64,
    }

    impl SegmentFaults {
        fn over(mem: &Arc<MemVfs>) -> Arc<SegmentFaults> {
            Arc::new(SegmentFaults {
                mem: mem.clone(),
                cut: false.into(),
                stat_fails: false.into(),
                fsyncs: 0.into(),
            })
        }

        /// Fsyncs so far.
        fn fsyncs(&self) -> u64 {
            self.fsyncs.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl Vfs for SegmentFaults {
        fn read_to_string(&self, path: &Path) -> std::io::Result<String> {
            self.mem.read_to_string(path)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.mem.read(path)
        }
        fn write(&self, path: &Path, contents: &[u8]) -> std::io::Result<()> {
            self.mem.write(path, contents)
        }
        fn append(&self, path: &Path, contents: &[u8]) -> std::io::Result<()> {
            let short = self.cut.load(std::sync::atomic::Ordering::SeqCst)
                && path.ends_with(crate::segment::DATA_SEGMENT);
            let keep = if short {
                contents.len() / 2
            } else {
                contents.len()
            };
            self.mem.append(path, &contents[..keep])
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.mem.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.mem.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            self.mem.create_dir_all(path)
        }
        fn sync_file(&self, path: &Path) -> std::io::Result<()> {
            self.fsyncs
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.mem.sync_file(path)
        }
        fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
            self.fsyncs
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.mem.sync_dir(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.mem.exists(path)
        }
        fn file_size(&self, path: &Path) -> u64 {
            self.mem.file_size(path)
        }
        fn file_len(&self, path: &Path) -> std::io::Result<u64> {
            if self.stat_fails.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(std::io::Error::other("injected EIO"));
            }
            self.mem.file_len(path)
        }
        fn list_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
            self.mem.list_dir(path)
        }
    }

    /// A datum the filesystem cut short is not acknowledged into the
    /// tail: the store wedges, a reopen drops the partial bytes from
    /// the state, and new data land after them at the segment's
    /// physical end, each exactly where its reference says.
    #[test]
    fn short_segment_append_wedges_and_reopen_resumes_at_physical_end() {
        let mem = MemVfs::new();
        let vfs = SegmentFaults::over(&mem);
        let mut store =
            PersistentStore::create_on(vfs.clone() as Arc<dyn Vfs>, "/proj", seed_db()).unwrap();
        store.store_data("a.net", vec![0xa0; 100]);
        let dump = store.db().dump();
        vfs.cut.store(true, std::sync::atomic::Ordering::SeqCst);
        store.store_data("b.net", vec![0xb0; 100]);
        let reason = store.wedged_reason().expect("a short append wedges");
        assert!(reason.contains("short append"), "{reason}");
        assert!(store.begin_run("Create", "alice", WorkDays::ZERO).is_err());
        drop(store);
        let seg = Path::new("/proj").join(crate::segment::DATA_SEGMENT);
        assert_eq!(mem.file_size(&seg), 150, "the partial datum is on disk");

        let mut store = PersistentStore::open_on(mem.clone() as Arc<dyn Vfs>, "/proj").unwrap();
        assert_eq!(
            store.db().dump(),
            dump,
            "the cut datum was never acknowledged"
        );
        let c = store.store_data("c.net", vec![0xc0; 100]);
        assert_eq!(
            store.db().data_object(c).extent().unwrap().offset,
            150,
            "appends resume at the physical end"
        );
        assert_eq!(&*store.db().data_content(c).unwrap(), &[0xc0; 100][..]);
        let dump = store.db().dump();
        drop(store);
        let reopened = PersistentStore::open_on(mem as Arc<dyn Vfs>, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), dump);
    }

    /// A write group stages until it closes: the files do not change
    /// inside it, a datum read there returns its bytes, `take_journal`
    /// includes the staged records, and the close writes exactly the
    /// bytes per-mutation appends write.
    #[test]
    fn write_group_stages_until_close_and_writes_the_same_bytes() {
        let script = |store: &mut PersistentStore| {
            let run = store.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
            let a = store.store_data("a.net", vec![0xa0; 100]);
            store
                .finish_run(run, "netlist", a, WorkDays::new(1.0), &[])
                .unwrap();
            (a, store.store_data("b.net", vec![0xb0; 50]))
        };
        let (plain_mem, mut plain) = mem_store("/proj");
        script(&mut plain);
        let (mem, mut store) = mem_store("/proj");
        let tail = Path::new("/proj").join(tail_name(0));
        let seg = Path::new("/proj").join(crate::segment::DATA_SEGMENT);
        let empty_tail = mem.read(&tail).unwrap();
        store.begin_write_group();
        let (a, b) = script(&mut store);
        assert_eq!(mem.read(&tail).unwrap(), empty_tail, "no record yet");
        assert!(!mem.exists(&seg), "no datum yet");
        assert_eq!(store.db().data_object(b).extent(), None, "held inline");
        assert_eq!(&*store.db().data_content(b).unwrap(), &[0xb0; 50][..]);
        assert_eq!(store.take_journal(), plain.take_journal());
        store.end_write_group().unwrap();
        for file in [&tail, &seg] {
            assert_eq!(mem.read(file).unwrap(), plain_mem.read(file).unwrap());
        }
        for d in [a, b] {
            let extent = store.db().data_object(d).extent();
            assert!(extent.is_some());
            assert_eq!(extent, plain.db().data_object(d).extent());
        }
        drop(store);
        let reopened = PersistentStore::open_on(mem as Arc<dyn Vfs>, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), plain.db().dump());
    }

    /// A write that fails at a group's close wedges the store, and the
    /// close says so; the state reopens without the group.
    #[test]
    fn write_group_close_reports_a_failed_write() {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(mem.clone(), VfsFaultPlan::none());
        let mut store =
            PersistentStore::create_on(faulty.clone() as Arc<dyn Vfs>, "/proj", seed_db()).unwrap();
        mutate(&mut store);
        let dump = store.db().dump();
        faulty.arm_enospc_after(0);
        store.begin_write_group();
        let run = store
            .begin_run("Create", "bob", WorkDays::new(2.0))
            .unwrap();
        let data = store.store_data("v2.net", b"module v2".to_vec());
        store
            .finish_run(run, "netlist", data, WorkDays::new(3.0), &[])
            .unwrap();
        assert!(matches!(
            store.end_write_group(),
            Err(MetadataError::StorageFailed(_))
        ));
        assert!(store.wedged_reason().is_some());
        assert!(store
            .begin_run("Create", "bob", WorkDays::new(3.0))
            .is_err());
        drop(store);
        let reopened = PersistentStore::open_on(mem as Arc<dyn Vfs>, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), dump);
    }

    /// A data reference in the tail that ends past the segment is torn:
    /// open truncates the tail there, even ahead of later records.
    #[test]
    fn tail_reference_past_the_segment_end_is_torn() {
        let (mem, mut store) = mem_store("/proj");
        store.store_data("a.net", vec![1; 64]);
        let dump = store.db().dump();
        store.store_data("b.net", vec![2; 64]);
        store.begin_planning(WorkDays::new(1.0));
        drop(store);
        // The segment loses b's bytes (an unsynced end torn by a crash).
        let seg = Path::new("/proj").join(crate::segment::DATA_SEGMENT);
        let bytes = mem.read(&seg).unwrap();
        mem.write(&seg, &bytes[..64 + 10]).unwrap();
        let reopened = PersistentStore::open_on(mem.clone() as Arc<dyn Vfs>, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), dump);
        drop(reopened);
        let tail = mem
            .read_to_string(&Path::new("/proj").join(tail_name(0)))
            .unwrap();
        assert_eq!(tail.lines().count(), 2, "truncated on disk: {tail}");
    }

    /// A tail referencing data with no segment at all is not torn: the
    /// segment's name is durable before any record refers to it, so no
    /// crash leaves this. Open refuses with a typed report and leaves
    /// the tail as it found it.
    #[test]
    fn missing_segment_under_tail_references_is_a_typed_report() {
        let (mem, mut store) = mem_store("/proj");
        store.store_data("a.net", vec![1; 64]);
        store.begin_planning(WorkDays::new(1.0));
        store.checkpoint().unwrap();
        drop(store);
        let seg = Path::new("/proj").join(crate::segment::DATA_SEGMENT);
        let tail = Path::new("/proj").join(tail_name(0));
        let tail_before = mem.read(&tail).unwrap();
        mem.remove_file(&seg).unwrap();
        let err = PersistentStore::open_on(mem.clone(), "/proj").unwrap_err();
        match err {
            StoreError::Corruption(report) => {
                assert_eq!(report.kind, CorruptionKind::DataRef);
                assert_eq!(report.path, seg);
                assert!(report.detail.contains("no segment"), "{}", report.detail);
            }
            other => panic!("expected a corruption report, got {other:?}"),
        }
        assert_eq!(mem.read(&tail).unwrap(), tail_before, "tail untouched");
    }

    /// A segment that cannot be stat'ed is an I/O error, not an empty
    /// segment that would cut the tail at its first data reference.
    #[test]
    fn failed_segment_stat_is_an_error_and_leaves_the_tail() {
        let (mem, mut store) = mem_store("/proj");
        store.store_data("a.net", vec![1; 64]);
        let dump = store.db().dump();
        drop(store);
        let tail = Path::new("/proj").join(tail_name(0));
        let tail_before = mem.read(&tail).unwrap();
        let vfs = SegmentFaults::over(&mem);
        vfs.stat_fails
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let err = PersistentStore::open_on(vfs.clone(), "/proj").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
        assert_eq!(mem.read(&tail).unwrap(), tail_before, "tail untouched");
        vfs.stat_fails
            .store(false, std::sync::atomic::Ordering::SeqCst);
        let reopened = PersistentStore::open_on(vfs, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), dump);
    }

    /// A snapshot referencing data past the segment's end does not open:
    /// acknowledged state is missing, so open reports, not guesses.
    #[test]
    fn snapshot_reference_past_the_segment_end_is_a_typed_report() {
        let (mem, mut store) = mem_store("/proj");
        store.store_data("a.net", vec![1; 64]);
        store.compact().unwrap();
        drop(store);
        let seg = Path::new("/proj").join(crate::segment::DATA_SEGMENT);
        mem.write(&seg, &[1; 10]).unwrap();
        let err = PersistentStore::open_on(mem, "/proj").unwrap_err();
        match err {
            StoreError::Corruption(report) => {
                assert_eq!(report.kind, CorruptionKind::DataRef);
                assert_eq!(report.path, seg);
            }
            other => panic!("expected a corruption report, got {other:?}"),
        }
    }

    /// Reads verify the checksum: a flipped byte is a typed corruption
    /// from `try_dump` and `data_content`, never wrong bytes.
    #[test]
    fn flipped_segment_byte_is_a_typed_report_on_read() {
        let (mem, mut store) = mem_store("/proj");
        let a = store.store_data("a.net", vec![7; 64]);
        let seg = Path::new("/proj").join(crate::segment::DATA_SEGMENT);
        let mut bytes = mem.read(&seg).unwrap();
        bytes[5] ^= 0x20;
        mem.write(&seg, &bytes).unwrap();
        for err in [
            store.db().try_dump().unwrap_err(),
            store.db().data_content(a).unwrap_err(),
        ] {
            assert!(
                matches!(&err, StoreError::Corruption(r) if r.kind == CorruptionKind::DataRef),
                "{err:?}"
            );
        }
        assert!(
            store.take_journal().is_none(),
            "no journal with wrong bytes"
        );
        // Open reads no design data, so it still succeeds.
        drop(store);
        assert!(PersistentStore::open_on(mem, "/proj").is_ok());
    }

    #[test]
    fn failed_compact_leaves_no_temp_files_and_store_usable() {
        let mem = MemVfs::new();
        let faulty = FaultVfs::new(mem.clone(), VfsFaultPlan::none());
        let mut store =
            PersistentStore::create_on(faulty.clone() as Arc<dyn Vfs>, "/proj", seed_db()).unwrap();
        mutate(&mut store);
        let dump = store.db().dump();
        // First write of compact (the snapshot temp) hits ENOSPC.
        faulty.arm_enospc_after(0);
        let err = store.compact().unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
        // No temp or next-generation files leaked.
        let files = mem.list_dir(Path::new("/proj")).unwrap();
        for f in &files {
            let name = f.file_name().unwrap().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp") && !name.contains("-1."),
                "leaked {name}"
            );
        }
        // The store still works and a reopen sees pre-compaction state.
        assert_eq!(store.db().dump(), dump);
        store.begin_planning(WorkDays::new(7.0));
        let dump_after = store.db().dump();
        drop(store);
        let reopened = PersistentStore::open_on(mem, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), dump_after);
        assert_eq!(reopened.sequence(), 0);
    }

    /// A compaction costs six fsyncs after a write to the segment (the
    /// segment, the snapshot, the tail, the directory, `CURRENT`'s temp
    /// file and the directory again) and five when nothing was appended
    /// since the last one synced it; a store just opened syncs its
    /// segment once. The span on `store.compact` says the same, and its
    /// children show where the time goes.
    #[test]
    fn compaction_fsyncs_the_segment_only_when_it_grew() {
        let (mem, mut store) = mem_store("/proj");
        mutate(&mut store);
        drop(store);
        let vfs = SegmentFaults::over(&mem);
        let mut store = PersistentStore::open_on(vfs.clone() as Arc<dyn Vfs>, "/proj").unwrap();
        let fsyncs_of = |store: &mut PersistentStore| {
            let before = vfs.fsyncs();
            let session = obs::Collector::session();
            store.compact().unwrap();
            let trace = session.finish();
            let compact = trace.first_span("store.compact").expect("a compact span");
            let traced = compact.arg("fsyncs").cloned();
            let spans = trace.spans();
            for child in ["store.segment_sync", "store.dump", "store.commit"] {
                let span = spans.iter().find(|s| s.name == child).expect(child);
                assert_eq!(span.parent.map(|p| spans[p].name), Some("store.compact"));
            }
            let counted = vfs.fsyncs() - before;
            assert_eq!(traced, Some(obs::ArgValue::from(counted as u32)));
            counted
        };
        assert_eq!(fsyncs_of(&mut store), 6, "a freshly opened segment");
        assert_eq!(fsyncs_of(&mut store), 5, "nothing appended since");
        store.begin_planning(WorkDays::new(2.0));
        assert_eq!(fsyncs_of(&mut store), 5, "metadata only");
        store.store_data("v2.net", b"module v2".to_vec());
        assert_eq!(fsyncs_of(&mut store), 6, "the segment grew");
        let dump = store.db().dump();
        drop(store);
        let reopened = PersistentStore::open_on(mem as Arc<dyn Vfs>, "/proj").unwrap();
        assert_eq!(reopened.db().dump(), dump);
    }

    /// Compaction restamps the live database: the state is a reload of
    /// the new snapshot's byte for byte, every handle from before is
    /// stale on both with the same refusal, handles read afterwards
    /// work on both, and no temp file is left.
    #[test]
    fn compaction_restamps_exactly_as_a_reload_would() {
        let (mem, mut store) = mem_store("/proj");
        let sc = mutate(&mut store);
        let run = store.db().runs()[0].id();
        let session = store.db().schedule_instance(sc).session();
        store.compact().unwrap();
        let snapshot = mem
            .read_to_string(&Path::new("/proj").join(snapshot_name(1)))
            .unwrap();
        let (_, body) = decode_snapshot_file(Path::new("snapshot"), &snapshot).unwrap();
        let mut reloaded = MetadataDb::load_at(body, 1).unwrap();
        assert_eq!(store.db().snapshot_by_ref(0), snapshot);
        assert_eq!(reloaded.snapshot_by_ref(0), snapshot);
        let live = &mut store.db;
        let refusals = [&mut *live, &mut reloaded].map(|db| {
            assert_eq!(db.generation(), 1);
            let refusals = [
                db.assign(sc, "bob").unwrap_err(),
                db.plan_activity(session, "Create", WorkDays::ZERO, WorkDays::ZERO)
                    .unwrap_err(),
                db.finish_run(run, "netlist", DataObjectId::new(0, 0), WorkDays::ZERO, &[])
                    .unwrap_err(),
            ];
            let fresh = db.current_plan("Create").unwrap().id();
            assert_eq!(fresh.generation(), 1);
            db.assign(fresh, "bob").unwrap();
            refusals
        });
        assert!(refusals[0]
            .iter()
            .all(|e| matches!(e, MetadataError::StaleHandle(_))));
        assert_eq!(refusals[0], refusals[1]);
        assert_eq!(store.db().snapshot_by_ref(0), reloaded.snapshot_by_ref(0));
        let files = mem.list_dir(Path::new("/proj")).unwrap();
        assert!(files
            .iter()
            .all(|f| f.extension().is_none_or(|e| e != "tmp")));
    }
}
