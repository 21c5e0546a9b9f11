//! The data segment: where a persistent store keeps Level-4 design
//! data, apart from its Level-3 metadata.
//!
//! Each datum is written once, raw, to the end of one append-only file,
//! `<dir>/data.seg`, and the metadata refers to it by an [`Extent`]:
//! offset, length and the CRC32 of the bytes. The journal tail and the
//! snapshots carry only those references, so opening, compacting and
//! snapshotting a store cost metadata, not design data. Nothing ever
//! rewrites the segment except `fsck --repair`, which rebuilds it
//! without bytes no reference covers.
//!
//! The segment is created with the store's first datum: a store that
//! never held design data has no segment at all.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use simtools::vfs::{AppendFile, Vfs};

use crate::database::MetadataDb;
use crate::framing::crc32;
use crate::journal::JournalOp;
use crate::objects::DataBody;
use crate::store::{corrupt, io_err, CorruptionKind, StoreError};

/// The data segment's file name inside a store directory.
pub const DATA_SEGMENT: &str = "data.seg";

/// Where one datum lives in the data segment, and the checksum its
/// bytes must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// Byte offset of the datum in the segment.
    pub offset: u64,
    /// Length of the datum in bytes.
    pub len: u64,
    /// CRC32 (IEEE) of the datum's bytes.
    pub crc: u32,
}

impl Extent {
    /// The extent of `bytes` written at `offset`.
    pub(crate) fn of(offset: u64, bytes: &[u8]) -> Extent {
        Extent {
            offset,
            len: bytes.len() as u64,
            crc: crc32(bytes),
        }
    }

    /// The first byte past the datum. Extents are read from files, so
    /// an end past `u64::MAX` saturates: it is past any segment's end.
    pub fn end(&self) -> u64 {
        self.offset.saturating_add(self.len)
    }

    /// The datum's bytes within `segment`, verified against the CRC.
    ///
    /// # Errors
    ///
    /// [`ExtentIssue`] when the extent ends past the segment or its
    /// bytes fail the checksum.
    pub fn slice<'a>(&self, segment: &'a [u8]) -> Result<&'a [u8], ExtentIssue> {
        let seg_len = segment.len() as u64;
        if self.end() > seg_len {
            return Err(ExtentIssue::PastEnd { seg_len });
        }
        let bytes = &segment[self.offset as usize..self.end() as usize];
        let computed = crc32(bytes);
        if computed != self.crc {
            return Err(ExtentIssue::Checksum { computed });
        }
        Ok(bytes)
    }
}

/// Why an [`Extent`] does not resolve in a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtentIssue {
    /// The extent ends past the segment's last byte.
    PastEnd {
        /// The segment's length.
        seg_len: u64,
    },
    /// The bytes are there but fail the extent's checksum.
    Checksum {
        /// The CRC32 of the bytes found.
        computed: u32,
    },
}

impl ExtentIssue {
    /// Describes the issue for the datum `name` at `extent`.
    pub fn describe(&self, name: &str, extent: &Extent) -> String {
        match self {
            ExtentIssue::PastEnd { seg_len } => format!(
                "{name:?} at {}+{} ends past the segment ({seg_len} bytes)",
                extent.offset, extent.len
            ),
            ExtentIssue::Checksum { computed } => format!(
                "{name:?} at {}+{} fails its checksum: reference says {:08x}, bytes are {computed:08x}",
                extent.offset, extent.len, extent.crc
            ),
        }
    }
}

/// Whether `extent` ends past a segment of `seg_len` bytes. Every
/// extent is past an absent segment (`None`).
fn past(extent: &Extent, seg_len: Option<u64>) -> bool {
    seg_len.is_none_or(|len| extent.end() > len)
}

/// Describes datum `name` at `extent` as past a segment of `seg_len`
/// bytes (`None`: absent).
pub(crate) fn describe_past(name: &str, extent: &Extent, seg_len: Option<u64>) -> String {
    match seg_len {
        Some(seg_len) => ExtentIssue::PastEnd { seg_len }.describe(name, extent),
        None => format!(
            "{name:?} at {}+{} but there is no segment",
            extent.offset, extent.len
        ),
    }
}

/// The first datum `db`'s snapshot references past the end of a
/// segment of `seg_len` bytes (`None`: absent). A snapshot holding one
/// does not open: its data were acknowledged, so they are lost, not
/// torn.
pub(crate) fn first_snapshot_ref_past(
    db: &MetadataDb,
    seg_len: Option<u64>,
) -> Option<(&str, Extent)> {
    db.data
        .iter()
        .filter_map(|d| Some((d.name(), d.extent()?)))
        .find(|(_, extent)| past(extent, seg_len))
}

/// The first of `ops` that references data past the end of a segment
/// of `seg_len` bytes (`None`: absent): its index, name and extent.
///
/// With a segment there, the tail is torn at that op: its datum's
/// bytes never became durable. With none, the tail is not torn but
/// damaged: the segment's name is made durable before any record
/// refers to it, so no crash loses the segment itself.
pub(crate) fn first_ref_past(
    ops: &[JournalOp],
    seg_len: Option<u64>,
) -> Option<(usize, &str, Extent)> {
    ops.iter().enumerate().find_map(|(at, op)| match op {
        JournalOp::StoreDataRef { name, extent } if past(extent, seg_len) => {
            Some((at, name.as_str(), *extent))
        }
        _ => None,
    })
}

/// Reads `path` as a data segment through `vfs`: one whole-file binary
/// read, traced as `store.data_read`.
///
/// # Errors
///
/// [`StoreError::Io`] when the read fails (a missing segment included).
pub(crate) fn read_segment(vfs: &dyn Vfs, path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut span = obs::span!("store.data_read");
    let bytes = vfs.read(path).map_err(|e| io_err(path, e))?;
    span.record("bytes", bytes.len());
    Ok(bytes)
}

/// Read access to a store's data segment, held by the [`MetadataDb`]
/// whose stored data lives there. Reads go by path, so holding one
/// keeps no file open.
#[derive(Debug)]
pub(crate) struct SegmentSource {
    pub(crate) vfs: Arc<dyn Vfs>,
    pub(crate) path: PathBuf,
}

impl SegmentSource {
    /// The whole segment.
    pub(crate) fn read(&self) -> Result<Vec<u8>, StoreError> {
        read_segment(&*self.vfs, &self.path)
    }

    /// The bytes of datum `name` at `extent` within `segment`, a typed
    /// [`StoreError::Corruption`] when they do not verify.
    pub(crate) fn resolve<'a>(
        &self,
        segment: &'a [u8],
        name: &str,
        extent: &Extent,
    ) -> Result<&'a [u8], StoreError> {
        extent.slice(segment).map_err(|issue| {
            corrupt(
                &self.path,
                CorruptionKind::DataRef,
                issue.describe(name, extent),
            )
        })
    }
}

/// The append side of a store's data segment: its path, its length,
/// how much of it this writer has synced, and a held append handle
/// (opened by the first append, like the journal tail's).
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    path: PathBuf,
    /// The segment's length, where the next datum lands; `None` while
    /// there is no segment.
    len: Option<u64>,
    /// The length this writer's last fsync made durable; `None` before
    /// its first. A segment found on disk may hold bytes no fsync
    /// covered yet, so a new writer has synced nothing.
    synced: Option<u64>,
    handle: Option<Box<dyn AppendFile>>,
}

impl SegmentWriter {
    /// The writer for the segment in `dir`, resuming at its physical
    /// end. The length comes from a stat that reports failure: an
    /// absent segment is told from an empty one, and a failed stat is
    /// an error rather than a length of 0.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the segment cannot be stat'ed for any
    /// reason but its absence.
    pub(crate) fn at(vfs: &dyn Vfs, dir: &Path) -> Result<SegmentWriter, StoreError> {
        let path = dir.join(DATA_SEGMENT);
        let len = match vfs.file_len(&path) {
            Ok(len) => Some(len),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err(&path, e)),
        };
        Ok(SegmentWriter {
            path,
            len,
            synced: None,
            handle: None,
        })
    }

    /// The segment's length, `None` while there is no segment.
    pub(crate) fn len(&self) -> Option<u64> {
        self.len
    }

    /// The segment's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `bytes` (one datum, or the data of one write group laid
    /// end to end) in one write and returns the offset they start at.
    /// The segment is created (and its name made durable) by the first
    /// append. A write the filesystem cut short is an error, as a
    /// failed one is: the next append must land exactly where the
    /// extents of this one end.
    ///
    /// # Errors
    ///
    /// The I/O error of the create, the append, or a short append.
    pub(crate) fn append(&mut self, vfs: &Arc<dyn Vfs>, bytes: &[u8]) -> io::Result<u64> {
        let offset = self.len.unwrap_or(0);
        let end = offset + bytes.len() as u64;
        let mut handle = match self.handle.take() {
            Some(handle) => handle,
            None => {
                if !vfs.exists(&self.path) {
                    vfs.write(&self.path, &[])?;
                    if let Some(dir) = self.path.parent() {
                        vfs.sync_dir(dir)?;
                    }
                }
                Arc::clone(vfs).open_append(&self.path)?
            }
        };
        handle.append(bytes)?;
        let found = handle.file_len()?;
        if found != end {
            return Err(io::Error::other(format!(
                "short append: segment is {found} bytes, expected {end}"
            )));
        }
        self.handle = Some(handle);
        self.len = Some(end);
        Ok(offset)
    }

    /// Makes the segment's bytes durable and returns whether that took
    /// an fsync: none while the segment holds no bytes, or when this
    /// writer's last fsync already covers its length (nothing was
    /// appended since).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the fsync fails.
    pub(crate) fn sync(&mut self, vfs: &dyn Vfs) -> Result<bool, StoreError> {
        if self.len.unwrap_or(0) == 0 || self.synced == self.len {
            return Ok(false);
        }
        vfs.sync_file(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        self.synced = self.len;
        Ok(true)
    }

    /// Drops the held append handle; the next append reopens by path.
    pub(crate) fn release(&mut self) {
        self.handle = None;
    }

    /// Moves every datum `db` still holds inline into the segment and
    /// points the database at it — how a database loaded from a v1/v2
    /// root (or handed to [`replace_db`](crate::Store::replace_db))
    /// becomes storage v3.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when an append fails.
    pub(crate) fn spill(
        &mut self,
        vfs: &Arc<dyn Vfs>,
        db: &mut MetadataDb,
    ) -> Result<(), StoreError> {
        for d in &mut db.data {
            if let DataBody::Inline(bytes) = &d.body {
                let offset = self.append(vfs, bytes).map_err(|e| io_err(&self.path, e))?;
                d.body = DataBody::Stored(Extent::of(offset, bytes));
            }
        }
        Ok(())
    }

    /// A read source over this segment for databases that reference it.
    pub(crate) fn source(&self, vfs: &Arc<dyn Vfs>) -> Arc<SegmentSource> {
        Arc::new(SegmentSource {
            vfs: Arc::clone(vfs),
            path: self.path.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_slices_verify_range_and_checksum() {
        let segment = b"headerPAYLOADtrailer".to_vec();
        let extent = Extent {
            offset: 6,
            len: 7,
            crc: crc32(b"PAYLOAD"),
        };
        assert_eq!(extent.slice(&segment).unwrap(), b"PAYLOAD");
        assert_eq!(
            extent.slice(&segment[..10]),
            Err(ExtentIssue::PastEnd { seg_len: 10 })
        );
        let mut flipped = segment.clone();
        flipped[8] ^= 0x01;
        assert!(matches!(
            extent.slice(&flipped),
            Err(ExtentIssue::Checksum { .. })
        ));
        let overflowing = Extent {
            offset: u64::MAX - 2,
            len: 7,
            crc: 0,
        };
        assert_eq!(overflowing.end(), u64::MAX);
        assert_eq!(
            overflowing.slice(&segment),
            Err(ExtentIssue::PastEnd { seg_len: 20 })
        );
    }
}
