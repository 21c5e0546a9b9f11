//! Offline integrity scrubbing and repair for persistent store roots —
//! the engine behind `herc fsck`.
//!
//! [`scrub`] is **read-only**: it walks every store file in a
//! directory (`CURRENT`, all `snapshot-*.txt` / `tail-*.journal`
//! generations, the `data.seg` data segment, leftover temp files). It
//! reads each generation with the store's own reader
//! (`store::read_generation`, the one `PersistentStore::open` uses),
//! which verifies headers and checksums and replays every tail record
//! that frames cleanly onto its generation's snapshot (a record can
//! checksum and still name state the snapshot lacks, such as a
//! `carry-plan` of a version that is no longer its activity's latest:
//! the tail is then corrupt at that record). The scrub turns those
//! findings into a per-file verdict plus a summary:
//!
//! * `healthy` — the store opens, by open's own verdict on the reader's
//!   findings, *and* serves: every data reference the live state keeps
//!   must resolve in the segment with a matching CRC. A torn trailing
//!   tail record, or a tail reference past the segment's end, is torn
//!   (open heals both); a reference with no segment at all is damage
//!   (`data.seg MISSING`);
//! * `repairable` — some snapshot generation still loads and its data
//!   references verify, so [`repair`] can rebuild a servable store;
//! * `unreferenced_bytes` — segment bytes no verified reference covers
//!   (a datum written before a crash took its record). Harmless to
//!   serving; [`repair`] drops them.
//!
//! A commit writes the next generation's snapshot and tail in place and
//! only then names it in `CURRENT` (see `store::commit_generation`), so
//! a crash mid-commit leaves a half-written generation above `CURRENT`.
//! Its files, and any leftover `.tmp` file, are `uncommitted`: nothing
//! names them, so they do not touch `healthy`, and [`repair`] removes
//! them. A generation above `CURRENT` that reads whole (a commit that
//! died after its last fsync but before `CURRENT` moved) is scrubbed
//! like any other.
//!
//! [`repair`] rebuilds from the **best recoverable state**: `CURRENT`'s
//! generation when all of it serves, else the newest generation whose
//! snapshot loads with verified data references, plus the longest
//! prefix of its tail that verifies, replays, and whose data references
//! verify. (A complete generation above `CURRENT` is a compaction that
//! died before naming it; the store kept appending below it.) The
//! rebuilt state is committed through the store's own commit
//! (`store::commit_generation`) as a brand-new generation (above
//! every sequence number seen in the directory, so nothing is
//! overwritten) in storage v3, with the data segment
//! rewritten to hold exactly the data that state references. Damaged
//! files are renamed to `<name>.quarantine` for post-mortems (a
//! segment with failing references included), and uncommitted files
//! are removed. Repair never deletes evidence and never guesses across a
//! checksum failure — ops after a corrupt interior record are
//! unreachable by design, because their ordering against the damage is
//! unknowable.
//!
//! A segment rewrite renames the new segment into place before
//! `CURRENT` names the new generation. A crash between the two leaves
//! the old generation pointing into the new layout, which fails its
//! reference checks; a second `--repair` picks the new generation up.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use simtools::vfs::Vfs;

use crate::framing::{self, Framing, TailIssue, TailScan};
use crate::journal::{JournalOp, ReplayStop};
use crate::objects::DataBody;
use crate::segment::{self, Extent, DATA_SEGMENT};
use crate::store::{
    self, snapshot_name, tail_name, CorruptionKind, CorruptionReport, GenerationRead, StoreError,
};

/// How one store file fared under the scrub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FileStatus {
    /// Verifies completely.
    Ok,
    /// Valid except for a torn final record (self-healing on open).
    Torn,
    /// Fails verification: bad header, checksum mismatch, interior
    /// damage, or does not load/replay.
    Corrupt,
    /// Referenced by `CURRENT` but absent.
    Missing,
    /// An earlier repair's `.quarantine` file: evidence, never part of
    /// the live store.
    Stray,
    /// The remains of a write that `CURRENT` never named: a leftover
    /// `.tmp` file, or a half-written generation above `CURRENT` (a
    /// commit that died before its commit point). Harmless to serving;
    /// [`repair`] removes them.
    Uncommitted,
    /// The data segment serves every reference but also holds bytes no
    /// reference covers (repair drops them).
    Slack,
}

impl std::fmt::Display for FileStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FileStatus::Ok => "ok",
            FileStatus::Torn => "torn",
            FileStatus::Corrupt => "CORRUPT",
            FileStatus::Missing => "MISSING",
            FileStatus::Stray => "stray",
            FileStatus::Uncommitted => "uncommitted",
            FileStatus::Slack => "slack",
        };
        f.write_str(s)
    }
}

/// One file's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileVerdict {
    /// The file.
    pub path: PathBuf,
    /// Its status.
    pub status: FileStatus,
    /// Specifics worth printing (line numbers, checksums, op counts).
    pub detail: String,
}

/// The result of scrubbing one store directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreScrub {
    /// The directory scrubbed.
    pub dir: PathBuf,
    /// The sequence `CURRENT` names, when it parses.
    pub current_seq: Option<u64>,
    /// Per-file verdicts, `CURRENT` first, then by generation, then
    /// the data segment.
    pub verdicts: Vec<FileVerdict>,
    /// Whether the store opens and serves every datum it references.
    pub healthy: bool,
    /// Whether [`repair`] could rebuild a servable store.
    pub repairable: bool,
    /// Data-segment bytes no verified reference covers.
    pub unreferenced_bytes: u64,
}

impl StoreScrub {
    /// Files whose verdict is [`FileStatus::Corrupt`] or
    /// [`FileStatus::Missing`].
    pub fn damaged(&self) -> impl Iterator<Item = &FileVerdict> {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.status, FileStatus::Corrupt | FileStatus::Missing))
    }

    /// Files whose verdict is [`FileStatus::Uncommitted`].
    pub fn uncommitted(&self) -> impl Iterator<Item = &FileVerdict> {
        self.verdicts
            .iter()
            .filter(|v| v.status == FileStatus::Uncommitted)
    }

    /// Whether [`repair`] has nothing to do: the store is healthy, its
    /// segment holds no unreferenced bytes, and no uncommitted file is
    /// left.
    pub fn clean(&self) -> bool {
        self.healthy && self.unreferenced_bytes == 0 && self.uncommitted().next().is_none()
    }
}

/// What [`repair`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RepairOutcome {
    /// The store already opened cleanly with nothing to drop; only
    /// uncommitted files (if any) were removed.
    AlreadyHealthy,
    /// The store was rebuilt.
    Repaired {
        /// The new live sequence number.
        new_seq: u64,
        /// The snapshot generation the rebuild started from.
        base_seq: u64,
        /// Tail ops replayed on top of that snapshot.
        ops_replayed: usize,
        /// Damaged files renamed to `<name>.quarantine`.
        quarantined: Vec<PathBuf>,
    },
}

/// The data segment as the scrub found it.
struct Segment {
    /// Its bytes (empty when absent or unreadable).
    bytes: Vec<u8>,
    /// Its length, `None` when it does not exist.
    len: Option<u64>,
    /// Why it could not be read, when it exists but could not.
    unreadable: Option<String>,
}

impl Segment {
    fn read(vfs: &dyn Vfs, dir: &Path) -> Segment {
        let path = dir.join(DATA_SEGMENT);
        let unreadable = |len, why: String| Segment {
            bytes: Vec::new(),
            len,
            unreadable: Some(why),
        };
        let len = match vfs.file_len(&path) {
            Ok(len) => len,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Segment {
                    bytes: Vec::new(),
                    len: None,
                    unreadable: None,
                }
            }
            Err(e) => return unreadable(Some(0), e.to_string()),
        };
        match segment::read_segment(vfs, &path) {
            Ok(bytes) => Segment {
                len: Some(bytes.len() as u64),
                bytes,
                unreadable: None,
            },
            Err(e) => unreadable(Some(len), e.to_string()),
        }
    }

    fn present(&self) -> bool {
        self.len.is_some()
    }
}

impl GenerationRead {
    /// Every data reference this generation's state holds: the
    /// snapshot's, then the kept tail records'.
    fn refs(&self) -> impl Iterator<Item = (&str, Extent)> {
        let snapshot = self
            .db
            .iter()
            .flat_map(|db| &db.data[..self.snapshot_data])
            .filter_map(|d| Some((d.name(), d.extent()?)));
        let tail = self
            .tail
            .iter()
            .flat_map(|scan| &scan.journal.ops()[..self.kept])
            .filter_map(|op| match op {
                JournalOp::StoreDataRef { name, extent } => Some((name.as_str(), *extent)),
                _ => None,
            });
        snapshot.chain(tail)
    }

    /// Whether the snapshot loads and every datum it references
    /// verifies in `segment`.
    fn snapshot_serves(&self, segment: &[u8]) -> bool {
        self.db.as_ref().is_some_and(|db| {
            db.data[..self.snapshot_data]
                .iter()
                .filter_map(|d| d.extent())
                .all(|extent| extent.slice(segment).is_ok())
        })
    }

    /// Whether both files read whole: the snapshot loads and the tail
    /// decodes with no issue at all, as a commit leaves them.
    fn complete(&self) -> bool {
        self.snapshot.is_ok() && matches!(&self.tail, Ok(TailScan { issue: None, .. }))
    }

    /// Whether the tail's records frame cleanly (a torn last record
    /// included) and every kept one replayed.
    fn tail_whole(&self) -> bool {
        matches!(
            &self.tail,
            Ok(TailScan {
                issue: None | Some(TailIssue::Torn { .. }),
                ..
            })
        ) && self.unreplayable.is_none()
    }
}

fn parse_store_name(name: &str) -> Option<(&'static str, u64)> {
    if let Some(rest) = name.strip_prefix("snapshot-") {
        let seq = rest.strip_suffix(".txt")?.parse().ok()?;
        return Some(("snapshot", seq));
    }
    if let Some(rest) = name.strip_prefix("tail-") {
        let seq = rest.strip_suffix(".journal")?.parse().ok()?;
        return Some(("tail", seq));
    }
    None
}

/// Read-only integrity scrub of one store directory. See the
/// [module docs](self).
///
/// # Errors
///
/// [`StoreError::Io`] when the directory itself cannot be read or
/// holds no `CURRENT` at all (not a store — callers distinguish this
/// from damage).
pub fn scrub(vfs: &dyn Vfs, dir: &Path) -> Result<StoreScrub, StoreError> {
    let current_path = dir.join(store::CURRENT);
    let (current_seq, current_verdict) = match store::read_current(vfs, dir) {
        Ok(seq) => (Some(seq), (FileStatus::Ok, format!("sequence {seq}"))),
        Err(StoreError::Corruption(report)) => (None, (FileStatus::Corrupt, report.detail)),
        Err(e) => return Err(e),
    };
    let mut verdicts = vec![FileVerdict {
        path: current_path,
        status: current_verdict.0,
        detail: current_verdict.1,
    }];

    // Inventory the directory: every generation with any evidence,
    // plus strays.
    let mut listed: Vec<PathBuf> = vfs.list_dir(dir).map_err(|e| StoreError::Io {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    listed.sort();
    for path in &listed {
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if name.ends_with(".tmp") {
            verdicts.push(FileVerdict {
                path: path.clone(),
                status: FileStatus::Uncommitted,
                detail: "leftover temp file from an interrupted write".into(),
            });
        } else if name.ends_with(".quarantine") {
            verdicts.push(FileVerdict {
                path: path.clone(),
                status: FileStatus::Stray,
                detail: "quarantined by an earlier repair".into(),
            });
        }
    }
    let seqs = generations(&listed, current_seq);

    let segment = Segment::read(vfs, dir);
    let mut healthy = current_seq.is_some();
    let mut repairable = false;
    let mut live = None;
    let mut verified: Vec<Extent> = Vec::new();
    for &seq in &seqs {
        let is_live = current_seq == Some(seq);
        let read = store::read_generation(vfs, dir, seq, None);
        match current_seq.filter(|&current| seq > current && !read.complete()) {
            // A commit died writing this generation, before its commit
            // point: each of its files is uncommitted.
            Some(current) => verdicts.extend(
                listed
                    .iter()
                    .filter(|path| store_file_seq(path) == Some(seq))
                    .map(|path| FileVerdict {
                        path: path.clone(),
                        status: FileStatus::Uncommitted,
                        detail: format!("half-written generation {seq}; CURRENT names {current}"),
                    }),
            ),
            None => scrub_generation(&read, is_live, &mut verdicts),
        }
        repairable |= read.snapshot_serves(&segment.bytes);
        verified.extend(
            read.refs()
                .map(|(_, extent)| extent)
                .filter(|extent| extent.slice(&segment.bytes).is_ok()),
        );
        if is_live {
            healthy &= read.opens();
            live = Some(read);
        }
    }
    let unreferenced_bytes = match segment.unreadable {
        Some(_) => 0,
        None => segment.bytes.len() as u64 - covered_bytes(&mut verified),
    };
    if let Some(verdict) = segment_verdict(dir, &segment, live.as_ref(), unreferenced_bytes) {
        healthy &= !matches!(verdict.status, FileStatus::Corrupt | FileStatus::Missing);
        verdicts.push(verdict);
    }
    Ok(StoreScrub {
        dir: dir.to_path_buf(),
        current_seq,
        verdicts,
        healthy,
        repairable,
        unreferenced_bytes,
    })
}

/// The generation a snapshot or tail file at `path` belongs to.
fn store_file_seq(path: &Path) -> Option<u64> {
    parse_store_name(path.file_name()?.to_str()?).map(|(_, seq)| seq)
}

/// Every generation with a file in `listed`, plus the one `CURRENT`
/// names, in ascending order.
fn generations(listed: &[PathBuf], current_seq: Option<u64>) -> Vec<u64> {
    let mut seqs: Vec<u64> = listed
        .iter()
        .filter_map(|path| store_file_seq(path))
        .chain(current_seq)
        .collect();
    seqs.sort_unstable();
    seqs.dedup();
    seqs
}

/// The bytes covered by the union of `extents`.
fn covered_bytes(extents: &mut [Extent]) -> u64 {
    extents.sort_unstable_by_key(|e| (e.offset, e.len));
    let (mut covered, mut reach) = (0u64, 0u64);
    for e in extents.iter() {
        let from = e.offset.max(reach);
        if e.end() > from {
            covered += e.end() - from;
            reach = e.end();
        }
    }
    covered
}

/// The data segment's verdict: every reference the live state keeps
/// must resolve, and bytes no verified reference covers are slack.
/// `None` for a store that has no segment and references none.
fn segment_verdict(
    dir: &Path,
    segment: &Segment,
    live: Option<&GenerationRead>,
    unreferenced: u64,
) -> Option<FileVerdict> {
    let path = dir.join(DATA_SEGMENT);
    if let Some(why) = &segment.unreadable {
        return Some(FileVerdict {
            path,
            status: FileStatus::Corrupt,
            detail: format!("unreadable: {why}"),
        });
    }
    let refs: Vec<(&str, Extent)> = live.map(|read| read.refs().collect()).unwrap_or_default();
    if !segment.present() && refs.is_empty() {
        return None;
    }
    let failing: Vec<String> = refs
        .iter()
        .filter_map(|(name, extent)| {
            let issue = extent.slice(&segment.bytes).err()?;
            Some(issue.describe(name, extent))
        })
        .collect();
    let (status, detail) = if !segment.present() {
        (
            FileStatus::Missing,
            format!("referenced by {} data refs but absent", refs.len()),
        )
    } else if let Some(first) = failing.first() {
        (
            FileStatus::Corrupt,
            format!(
                "{} of {} data refs do not resolve; first: {first}",
                failing.len(),
                refs.len()
            ),
        )
    } else if unreferenced > 0 {
        (
            FileStatus::Slack,
            format!(
                "{} data refs verify; {unreferenced} of {} bytes unreferenced",
                refs.len(),
                segment.bytes.len()
            ),
        )
    } else {
        (
            FileStatus::Ok,
            format!(
                "{} data refs verify ({} bytes)",
                refs.len(),
                segment.bytes.len()
            ),
        )
    };
    Some(FileVerdict {
        path,
        status,
        detail,
    })
}

/// Pushes the verdicts on one generation's snapshot and tail, as
/// `store::read_generation` found them. A missing file is reported
/// only in the live generation.
fn scrub_generation(read: &GenerationRead, is_live: bool, verdicts: &mut Vec<FileVerdict>) {
    let snap_path = read.dir.join(snapshot_name(read.seq));
    let verdict = match &read.snapshot {
        Ok((framing, bytes)) => Some((
            FileStatus::Ok,
            format!("{} ({bytes} bytes)", framing_label(*framing)),
        )),
        Err(e) => damage(e, is_live),
    };
    verdicts.extend(verdict.map(|(status, detail)| FileVerdict {
        path: snap_path,
        status,
        detail,
    }));

    let scan = match &read.tail {
        Ok(scan) => scan,
        Err(e) => {
            verdicts.extend(damage(e, is_live).map(|(status, detail)| FileVerdict {
                path: read.dir.join(tail_name(read.seq)),
                status,
                detail,
            }));
            return;
        }
    };
    // A record referencing data past an existing segment's end tears
    // the live tail there. Only the live tail is opened; an older
    // one's references are checked when repair falls back to it.
    let torn = read
        .dangling
        .as_ref()
        .filter(|_| is_live && read.kept < scan.journal.len());
    let ops = scan.journal.len();
    let (status, detail) = match (&scan.issue, torn) {
        (Some(issue), _) if !matches!(issue, TailIssue::Torn { .. }) => (
            FileStatus::Corrupt,
            format!("{issue}; {ops} ops verify before it"),
        ),
        (_, Some((at, what))) => (
            FileStatus::Torn,
            format!(
                "torn data reference in record {}: {what}; {at} ops verify",
                at + 1
            ),
        ),
        (Some(issue), None) => (FileStatus::Torn, format!("{issue}; {ops} ops verify")),
        (None, None) => (
            FileStatus::Ok,
            format!("{}, {ops} ops", framing_label(scan.framing)),
        ),
    };
    // Every record that framed cleanly must also apply (see the module
    // docs).
    let (status, detail) = match (&read.unreplayable, status) {
        (
            Some(ReplayStop {
                at,
                refused: Some(e),
            }),
            FileStatus::Ok | FileStatus::Torn,
        ) => (
            FileStatus::Corrupt,
            format!(
                "record {} does not replay: {e}; {at} ops apply before it",
                at + 1
            ),
        ),
        _ => (status, detail),
    };
    verdicts.push(FileVerdict {
        path: read.dir.join(tail_name(read.seq)),
        status,
        detail,
    });
}

/// The verdict on a snapshot or tail that did not read or load: its
/// status and detail, `None` for a missing file outside the live
/// generation.
fn damage(e: &StoreError, is_live: bool) -> Option<(FileStatus, String)> {
    match e {
        StoreError::Corruption(CorruptionReport {
            kind: CorruptionKind::MissingFile,
            detail,
            ..
        }) => is_live.then(|| (FileStatus::Missing, detail.clone())),
        StoreError::Corruption(CorruptionReport {
            kind: CorruptionKind::SnapshotLoad,
            detail,
            ..
        }) => Some((
            FileStatus::Corrupt,
            format!("checksum ok but body does not load: {detail}"),
        )),
        StoreError::Corruption(report) => Some((FileStatus::Corrupt, report.detail.clone())),
        StoreError::Io { message, .. } => Some((FileStatus::Corrupt, message.clone())),
        e => Some((FileStatus::Corrupt, e.to_string())),
    }
}

fn framing_label(framing: Framing) -> &'static str {
    match framing {
        Framing::V1 => "v1 (no checksums)",
        Framing::V2 => "v2 checksummed",
    }
}

/// Rebuilds a damaged store from its best recoverable state, or drops
/// a healthy store's unreferenced segment bytes. See the
/// [module docs](self).
///
/// # Errors
///
/// * [`StoreError::Io`] if the directory is not a store or the rebuild
///   itself cannot be written.
/// * [`StoreError::Corruption`] if **no** snapshot generation loads
///   with verified data references — there is nothing to rebuild from.
pub fn repair(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<RepairOutcome, StoreError> {
    let report = scrub(&**vfs, dir)?;

    // Uncommitted files are removed in every case, once the store is
    // committed without them: nothing names them.
    let remove_uncommitted = || {
        for v in report.uncommitted() {
            let _ = vfs.remove_file(&v.path);
        }
    };
    if report.healthy && report.unreferenced_bytes == 0 {
        remove_uncommitted();
        return Ok(RepairOutcome::AlreadyHealthy);
    }

    // Best recoverable state: CURRENT's generation when all of it
    // serves, else the newest generation whose snapshot serves, plus
    // the longest replayable, verifying prefix of its tail. A complete
    // generation above CURRENT that a compaction wrote but died before
    // naming is stale while CURRENT's serves: the store went on
    // appending to CURRENT's tail. (One a repair wrote before dying is
    // taken up by the fallback: its new segment breaks CURRENT's
    // references.)
    let listed: Vec<PathBuf> = report.verdicts.iter().map(|v| v.path.clone()).collect();
    let seqs = generations(&listed, report.current_seq);
    let segment = Segment::read(&**vfs, dir);
    let recover = |seq: u64| {
        let read = store::read_generation(&**vfs, dir, seq, Some(&segment.bytes));
        if !read.snapshot_serves(&segment.bytes) {
            return None;
        }
        let whole = read.tail_whole();
        let replayed = read.unreplayable.as_ref().map_or(read.kept, |stop| stop.at);
        Some((seq, read.db?, replayed, whole))
    };
    let best = report
        .current_seq
        .and_then(recover)
        .filter(|&(.., whole)| whole)
        .or_else(|| seqs.iter().rev().find_map(|&seq| recover(seq)))
        .map(|(seq, db, replayed, _)| (seq, db, replayed));
    let (base_seq, mut db, ops_replayed) = match best {
        Some(b) => b,
        None => {
            let worst = report
                .damaged()
                .next()
                .map(|v| (v.path.clone(), v.detail.clone()))
                .unwrap_or_else(|| (dir.join(store::CURRENT), "no loadable snapshot".into()));
            return Err(StoreError::Corruption(CorruptionReport {
                path: worst.0,
                kind: CorruptionKind::SnapshotLoad,
                detail: format!("unrepairable: no snapshot generation loads ({})", worst.1),
            }));
        }
    };

    // The rebuilt data segment: exactly the data the state holds, in
    // allocation order.
    let seg_path = dir.join(DATA_SEGMENT);
    let rebuilt = (segment.present() || !db.data.is_empty()).then(|| {
        let mut bytes = Vec::new();
        for d in &mut db.data {
            let content = match &d.body {
                DataBody::Inline(content) => &content[..],
                DataBody::Stored(extent) => extent
                    .slice(&segment.bytes)
                    .expect("the serving state's references verify"),
            };
            let extent = Extent {
                offset: bytes.len() as u64,
                len: content.len() as u64,
                crc: framing::crc32(content),
            };
            bytes.extend_from_slice(content);
            d.body = DataBody::Stored(extent);
        }
        bytes
    });

    // Write the rebuilt state as a brand-new generation above every
    // sequence number seen, so nothing — not even damaged evidence —
    // is overwritten. The new segment goes in under its final name
    // just before `CURRENT` moves; a damaged old one is quarantined.
    let new_seq = seqs.iter().copied().max().unwrap_or(base_seq) + 1;
    let seg_tmp = seg_path.with_extension("seg.tmp");
    if let Some(bytes) = &rebuilt {
        vfs.write(&seg_tmp, bytes)
            .and_then(|()| vfs.sync_file(&seg_tmp))
            .map_err(|e| StoreError::Io {
                path: seg_tmp.clone(),
                message: e.to_string(),
            })?;
    }
    let mut quarantined = Vec::new();
    store::commit_generation(&**vfs, dir, new_seq, &db.snapshot_by_ref(0), || {
        if rebuilt.is_none() {
            return Ok(());
        }
        let segment_damaged = report
            .damaged()
            .any(|v| v.path == seg_path && v.status == FileStatus::Corrupt);
        if segment_damaged {
            let target = quarantine_path(&seg_path);
            if vfs.rename(&seg_path, &target).is_ok() {
                quarantined.push(target);
            }
        }
        vfs.rename(&seg_tmp, &seg_path).map_err(|e| StoreError::Io {
            path: seg_path.clone(),
            message: e.to_string(),
        })
    })?;
    remove_uncommitted();

    // Quarantine the damaged files (rename, never delete: they are the
    // post-mortem evidence).
    for v in report.damaged() {
        if v.status != FileStatus::Corrupt || v.path == seg_path {
            continue;
        }
        let target = quarantine_path(&v.path);
        if vfs.rename(&v.path, &target).is_ok() {
            quarantined.push(target);
        }
    }
    Ok(RepairOutcome::Repaired {
        new_seq,
        base_seq,
        ops_replayed,
        quarantined,
    })
}

fn quarantine_path(path: &Path) -> PathBuf {
    let mut target = path.as_os_str().to_owned();
    target.push(".quarantine");
    PathBuf::from(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{PersistentStore, Store};
    use crate::MetadataDb;
    use schedule::WorkDays;
    use schema::examples;
    use simtools::vfs::MemVfs;

    fn seeded(dir: &str) -> (Arc<MemVfs>, Arc<dyn Vfs>, String) {
        let mem = MemVfs::new();
        let vfs: Arc<dyn Vfs> = mem.clone();
        let db = MetadataDb::for_schema(&examples::circuit_design());
        let mut store = PersistentStore::create_on(vfs.clone(), dir, db).unwrap();
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
        let dump = store.db().dump();
        drop(store);
        (mem, vfs, dump)
    }

    #[test]
    fn scrub_of_healthy_store_is_all_ok() {
        let (_mem, vfs, _) = seeded("/p");
        let report = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(report.healthy);
        assert!(report.repairable);
        assert_eq!(report.current_seq, Some(0));
        assert!(report.verdicts.iter().all(|v| v.status == FileStatus::Ok));
        assert_eq!(report.damaged().count(), 0);
    }

    #[test]
    fn scrub_flags_torn_tail_as_healthy() {
        let (mem, vfs, _) = seeded("/p");
        mem.append(
            &Path::new("/p").join(tail_name(0)),
            b"deadbeef begin-run xx",
        )
        .unwrap();
        let report = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(report.healthy, "torn tails self-heal on open");
        assert!(report.verdicts.iter().any(|v| v.status == FileStatus::Torn));
    }

    /// A `carry-plan` record that frames cleanly but does not apply
    /// (it names a version that is no longer its activity's latest) is
    /// damage: open refuses it typed, the scrub marks the tail
    /// corrupt, and repair keeps the records before it.
    #[test]
    fn scrub_validates_carry_records() {
        let (mem, vfs, _) = seeded("/p");
        let mut store = PersistentStore::open_on(vfs.clone(), "/p").unwrap();
        let s = store.begin_planning(WorkDays::new(1.0));
        let latest = store.db().current_plan("Create").unwrap().id();
        store.carry_plan(s, &[latest]).unwrap();
        let dump = store.db().dump();
        drop(store);
        let report = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(report.healthy, "{:?}", report.verdicts);

        let tail = Path::new("/p").join(tail_name(0));
        let mut stale = String::new();
        Framing::V2.encode_tail_record_into(
            &JournalOp::CarryPlan {
                session: crate::ids::PlanningSessionId::new(1, 0),
                from: vec![crate::journal::SlotRange { first: 0, last: 0 }],
            },
            &mut stale,
        );
        mem.append(&tail, stale.as_bytes()).unwrap();
        assert!(matches!(
            PersistentStore::open_on(vfs.clone(), "/p"),
            Err(StoreError::Corruption(CorruptionReport {
                kind: CorruptionKind::TailReplay,
                ..
            }))
        ));
        let report = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(!report.healthy && report.repairable);
        let verdict = report.damaged().next().expect("the tail is damaged");
        assert_eq!(verdict.path, tail);
        assert!(
            verdict
                .detail
                .starts_with("record 10 does not replay: cannot carry sc0"),
            "{}",
            verdict.detail
        );
        repair(&vfs, Path::new("/p")).unwrap();
        let reopened = PersistentStore::open_on(vfs.clone(), "/p").unwrap();
        assert_eq!(reopened.db().dump(), dump);
    }

    /// An open that refuses a record that does not replay leaves the
    /// tail as it found it, torn record and all, for the scrub to read.
    #[test]
    fn refused_open_leaves_a_torn_tail_untouched() {
        let (mem, vfs, _) = seeded("/p");
        let tail = Path::new("/p").join(tail_name(0));
        let mut damage = String::new();
        Framing::V2.encode_tail_record_into(
            &JournalOp::CarryPlan {
                session: crate::ids::PlanningSessionId::new(1, 0),
                from: vec![crate::journal::SlotRange { first: 0, last: 0 }],
            },
            &mut damage,
        );
        damage.push_str("deadbeef begin-run xx");
        mem.append(&tail, damage.as_bytes()).unwrap();
        let before = mem.read_to_string(&tail).unwrap();
        assert!(matches!(
            PersistentStore::open_on(vfs.clone(), "/p"),
            Err(StoreError::Corruption(CorruptionReport {
                kind: CorruptionKind::TailReplay,
                ..
            }))
        ));
        assert_eq!(mem.read_to_string(&tail).unwrap(), before);
    }

    #[test]
    fn scrub_on_non_store_is_an_io_error() {
        let mem = MemVfs::new();
        mem.create_dir_all(Path::new("/empty")).unwrap();
        let err = scrub(&*mem, Path::new("/empty")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }

    #[test]
    fn repair_rebuilds_after_interior_corruption() {
        let (mem, vfs, dump) = seeded("/p");
        // Damage an interior tail record: open refuses...
        let tail = Path::new("/p").join(tail_name(0));
        let text = mem.read_to_string(&tail).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let damaged_line = 3;
        lines[damaged_line] = lines[damaged_line].chars().rev().collect();
        mem.write(&tail, (lines.join("\n") + "\n").as_bytes())
            .unwrap();
        assert!(matches!(
            PersistentStore::open_on(vfs.clone(), "/p"),
            Err(StoreError::Corruption(_))
        ));
        // ...scrub sees it, repair rebuilds, reopen serves.
        let report = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(!report.healthy);
        assert!(report.repairable);
        let outcome = repair(&vfs, Path::new("/p")).unwrap();
        let (new_seq, replayed, quarantined) = match outcome {
            RepairOutcome::Repaired {
                new_seq,
                ops_replayed,
                quarantined,
                ..
            } => (new_seq, ops_replayed, quarantined),
            other => panic!("expected a rebuild, got {other:?}"),
        };
        assert_eq!(new_seq, 1);
        // Records before the damage were replayed; the damaged one and
        // everything after it were not.
        assert_eq!(replayed, damaged_line - 1);
        assert_eq!(quarantined.len(), 1);
        let reopened = PersistentStore::open_on(vfs.clone(), "/p").unwrap();
        reopened.db().check_invariants().unwrap();
        // The recovered state is a strict prefix of the full session.
        assert_ne!(reopened.db().dump(), dump);
        let after = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(after.healthy);
    }

    #[test]
    fn repair_falls_back_to_previous_generation_snapshot() {
        let (mem, vfs, _) = seeded("/p");
        // Compact so generations 0 (fallback) and 1 (live) both exist.
        let mut store = PersistentStore::open_on(vfs.clone(), "/p").unwrap();
        store.compact().unwrap();
        let dump = store.db().dump();
        drop(store);
        // Destroy the live snapshot's checksum.
        let snap = Path::new("/p").join(snapshot_name(1));
        let text = mem.read_to_string(&snap).unwrap();
        mem.write(&snap, text.replace("netlist", "netlisX").as_bytes())
            .unwrap();
        assert!(PersistentStore::open_on(vfs.clone(), "/p").is_err());
        let outcome = repair(&vfs, Path::new("/p")).unwrap();
        match outcome {
            RepairOutcome::Repaired {
                base_seq, new_seq, ..
            } => {
                assert_eq!(base_seq, 0, "fallback generation");
                assert_eq!(new_seq, 2);
            }
            other => panic!("expected a rebuild, got {other:?}"),
        }
        let reopened = PersistentStore::open_on(vfs, "/p").unwrap();
        // Generation 0 held the same folded state (tail 0 replays).
        assert_eq!(reopened.db().dump(), dump);
    }

    #[test]
    fn repair_on_healthy_store_removes_strays_only() {
        let (mem, vfs, dump) = seeded("/p");
        mem.write(Path::new("/p/snapshot-9.tmp"), b"half-written")
            .unwrap();
        let outcome = repair(&vfs, Path::new("/p")).unwrap();
        assert_eq!(outcome, RepairOutcome::AlreadyHealthy);
        assert!(!mem.exists(Path::new("/p/snapshot-9.tmp")));
        let reopened = PersistentStore::open_on(vfs, "/p").unwrap();
        assert_eq!(reopened.db().dump(), dump);
    }

    /// A commit that died writing the next generation leaves it
    /// half-written above `CURRENT`: the store is healthy, the scrub
    /// names each of its files uncommitted, and one repair removes them
    /// and nothing else.
    #[test]
    fn a_half_written_next_generation_is_uncommitted_and_repair_removes_it() {
        let (mem, vfs, dump) = seeded("/p");
        let snapshot = mem.read(&Path::new("/p").join(snapshot_name(0))).unwrap();
        let half = Path::new("/p").join(snapshot_name(1));
        mem.write(&half, &snapshot[..snapshot.len() / 2]).unwrap();
        let report = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(report.healthy && !report.clean(), "{report:?}");
        let uncommitted: Vec<&FileVerdict> = report.uncommitted().collect();
        assert_eq!(uncommitted.len(), 1, "{report:?}");
        assert_eq!(uncommitted[0].path, half);
        assert_eq!(
            uncommitted[0].detail,
            "half-written generation 1; CURRENT names 0"
        );
        assert_eq!(
            repair(&vfs, Path::new("/p")).unwrap(),
            RepairOutcome::AlreadyHealthy
        );
        assert!(!mem.exists(&half));
        assert!(scrub(&*vfs, Path::new("/p")).unwrap().clean());
        let reopened = PersistentStore::open_on(vfs, "/p").unwrap();
        assert_eq!(reopened.db().dump(), dump);
    }

    /// A compaction that dies before moving `CURRENT` leaves a complete
    /// generation above it, and the store keeps appending below it.
    /// Repairing slack must rebuild from `CURRENT`, not from the stale
    /// generation, or every op since the compaction is lost.
    #[test]
    fn repair_prefers_current_over_a_stale_generation_above_it() {
        let (mem, vfs, _) = seeded("/p");
        let mut store = PersistentStore::open_on(vfs.clone(), "/p").unwrap();
        store.compact().unwrap();
        drop(store);
        mem.write(Path::new("/p").join(store::CURRENT).as_path(), b"0\n")
            .unwrap();
        let mut store = PersistentStore::open_on(vfs.clone(), "/p").unwrap();
        assert_eq!(store.sequence(), 0);
        store.store_data("v2.net", b"module v2".to_vec());
        store.begin_planning(WorkDays::new(3.0));
        let dump = store.db().dump();
        drop(store);
        mem.append(&Path::new("/p").join(DATA_SEGMENT), b"orphan")
            .unwrap();
        let report = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(report.healthy);
        assert_eq!(report.unreferenced_bytes, 6);
        match repair(&vfs, Path::new("/p")).unwrap() {
            RepairOutcome::Repaired {
                base_seq, new_seq, ..
            } => {
                assert_eq!(base_seq, 0, "CURRENT's generation");
                assert_eq!(new_seq, 2);
            }
            other => panic!("expected a rebuild, got {other:?}"),
        }
        let reopened = PersistentStore::open_on(vfs.clone(), "/p").unwrap();
        assert_eq!(reopened.db().dump(), dump);
        let after = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(after.healthy);
        assert_eq!(after.unreferenced_bytes, 0);
    }

    /// A tail that references data with no segment is damage, not a
    /// torn tail: the scrub reports the segment missing, and the tail
    /// itself verifies whole.
    #[test]
    fn scrub_reports_a_missing_segment_under_tail_references() {
        let (mem, vfs, _) = seeded("/p");
        mem.remove_file(&Path::new("/p").join(DATA_SEGMENT))
            .unwrap();
        let report = scrub(&*vfs, Path::new("/p")).unwrap();
        assert!(!report.healthy);
        let verdict = |name: &str| {
            report
                .verdicts
                .iter()
                .find(|v| v.path.ends_with(name))
                .unwrap_or_else(|| panic!("no verdict for {name}"))
        };
        assert_eq!(verdict(DATA_SEGMENT).status, FileStatus::Missing);
        assert_eq!(
            verdict(DATA_SEGMENT).detail,
            "referenced by 1 data refs but absent"
        );
        assert_eq!(verdict(&tail_name(0)).status, FileStatus::Ok);
    }

    #[test]
    fn repair_with_no_loadable_snapshot_is_a_typed_refusal() {
        let (mem, vfs, _) = seeded("/p");
        let snap = Path::new("/p").join(snapshot_name(0));
        mem.write(&snap, b"garbage\n").unwrap();
        let err = repair(&vfs, Path::new("/p")).unwrap_err();
        assert!(matches!(err, StoreError::Corruption(_)), "{err:?}");
    }
}
