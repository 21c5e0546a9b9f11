//! A counting [`Vfs`]: the real filesystem underneath, with every
//! call, byte, fsync and nanosecond spent in it counted — the
//! benchmark's view into the store layer, attached through
//! `PersistentStore::create_on` / `open_on`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use simtools::vfs::{RealVfs, Vfs};

#[derive(Debug, Default)]
pub struct CountingVfs {
    inner: RealVfs,
    reads: AtomicU64,
    bytes_read: AtomicU64,
    writes: AtomicU64,
    appends: AtomicU64,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    other: AtomicU64,
    io_ns: AtomicU64,
}

/// A snapshot of the counters; subtract two to count one operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounts {
    pub reads: u64,
    pub bytes_read: u64,
    /// Whole-file writes (snapshots, temp files, `CURRENT`).
    pub writes: u64,
    /// Journal-tail appends.
    pub appends: u64,
    /// Bytes handed to `write` and `append`.
    pub bytes_written: u64,
    /// `sync_file` plus `sync_dir` calls.
    pub fsyncs: u64,
    /// Renames, removals, directory creation, listings, probes.
    pub other: u64,
    pub io_ns: u64,
}

impl std::ops::Sub for IoCounts {
    type Output = IoCounts;
    fn sub(self, b: IoCounts) -> IoCounts {
        IoCounts {
            reads: self.reads - b.reads,
            bytes_read: self.bytes_read - b.bytes_read,
            writes: self.writes - b.writes,
            appends: self.appends - b.appends,
            bytes_written: self.bytes_written - b.bytes_written,
            fsyncs: self.fsyncs - b.fsyncs,
            other: self.other - b.other,
            io_ns: self.io_ns - b.io_ns,
        }
    }
}

impl IoCounts {
    pub fn io_ms(&self) -> f64 {
        self.io_ns as f64 / 1e6
    }

    /// Whether two counts describe the same I/O, time aside: the
    /// counts of one seeded op sequence must repeat exactly.
    pub fn same_work(&self, other: &IoCounts) -> bool {
        IoCounts { io_ns: 0, ..*self } == IoCounts { io_ns: 0, ..*other }
    }
}

impl CountingVfs {
    pub fn new() -> Arc<CountingVfs> {
        Arc::new(CountingVfs::default())
    }

    pub fn counts(&self) -> IoCounts {
        let get = |c: &AtomicU64| c.load(Ordering::SeqCst);
        IoCounts {
            reads: get(&self.reads),
            bytes_read: get(&self.bytes_read),
            writes: get(&self.writes),
            appends: get(&self.appends),
            bytes_written: get(&self.bytes_written),
            fsyncs: get(&self.fsyncs),
            other: get(&self.other),
            io_ns: get(&self.io_ns),
        }
    }

    fn time<R>(&self, calls: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.io_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::SeqCst);
        calls.fetch_add(1, Ordering::SeqCst);
        out
    }
}

impl Vfs for CountingVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let text = self.time(&self.reads, || self.inner.read_to_string(path))?;
        self.bytes_read
            .fetch_add(text.len() as u64, Ordering::SeqCst);
        Ok(text)
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(contents.len() as u64, Ordering::SeqCst);
        self.time(&self.writes, || self.inner.write(path, contents))
    }

    fn append(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(contents.len() as u64, Ordering::SeqCst);
        self.time(&self.appends, || self.inner.append(path, contents))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.time(&self.other, || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.time(&self.other, || self.inner.remove_file(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.time(&self.other, || self.inner.create_dir_all(path))
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.time(&self.fsyncs, || self.inner.sync_file(path))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.time(&self.fsyncs, || self.inner.sync_dir(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.time(&self.other, || self.inner.exists(path))
    }

    fn file_size(&self, path: &Path) -> u64 {
        self.time(&self.other, || self.inner.file_size(path))
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.time(&self.other, || self.inner.list_dir(path))
    }
}
