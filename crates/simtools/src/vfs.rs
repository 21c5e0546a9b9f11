//! The virtual-filesystem seam under every durable write in the
//! workspace: a small [`Vfs`] trait, a passthrough [`RealVfs`], an
//! in-memory [`MemVfs`] that models *exactly* what a power loss keeps,
//! and a seeded [`FaultVfs`] decorator injecting the I/O failures real
//! deployments hit (ENOSPC, EIO, short writes, lying fsync, dropped
//! renames).
//!
//! # Why a seam
//!
//! PR 3's crash points cover clean process deaths — the journal append
//! happened, the apply did not. They cannot express *storage* failures:
//! a tail append that hits a full disk halfway through, an fsync the
//! drive acknowledged but never performed, a rename whose directory
//! entry was lost because nobody fsynced the parent. Routing every
//! persistent-store operation through `dyn Vfs` lets the chaos suite
//! inject those failures deterministically and assert the store's
//! contract: *serve correct data or report corruption — never silently
//! wrong, never abort*.
//!
//! # The durability model ([`MemVfs`])
//!
//! `MemVfs` keeps two views of the filesystem:
//!
//! * the **live** view — what a running process observes: every write,
//!   rename, and remove is immediately visible;
//! * the **durable** view — what survives [`MemVfs::crash`]: file
//!   *contents* survive only up to the last [`sync_file`](Vfs::sync_file)
//!   (everything after it is torn off at a byte boundary), and
//!   *namespace* changes (create, rename, remove) survive only once the
//!   parent directory was [`sync_dir`](Vfs::sync_dir)'d.
//!
//! This is the POSIX contract at its least forgiving — the model that
//! makes the classic rename-without-dir-fsync hole reproducible in a
//! unit test.
//!
//! # Example
//!
//! ```
//! use simtools::vfs::{MemVfs, Vfs};
//! use std::path::Path;
//!
//! let fs = MemVfs::new();
//! fs.create_dir_all(Path::new("/db")).unwrap();
//! fs.write(Path::new("/db/a"), b"hello").unwrap();
//! fs.sync_file(Path::new("/db/a")).unwrap();
//! // The name was never made durable: the parent dir was not synced.
//! fs.crash();
//! assert!(!fs.exists(Path::new("/db/a")));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::rng::{mix, SplitMix64};

/// The filesystem operations the persistent stores need — nothing
/// more. All methods take `&self` (or a shared `Arc<Self>`): backends
/// are internally synchronised so one `Arc<dyn Vfs>` can serve every
/// store in a workspace.
pub trait Vfs: fmt::Debug + Send + Sync + 'static {
    /// Reads an entire file as UTF-8 text (every store file is text).
    ///
    /// # Errors
    ///
    /// `NotFound` for a missing file, `InvalidData` for non-UTF-8
    /// content (bit-rot on a text file), or an injected/real I/O error.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Reads an entire file as raw bytes — the persistent store's data
    /// segment holds design data, which need not be text.
    ///
    /// The default reads through [`read_to_string`](Vfs::read_to_string),
    /// so it fails with `InvalidData` on non-UTF-8 content; every
    /// backend in this crate overrides it with a true binary read.
    ///
    /// # Errors
    ///
    /// `NotFound` for a missing file, or an injected/real I/O error.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.read_to_string(path).map(String::into_bytes)
    }

    /// Creates or truncates `path` with `contents`.
    ///
    /// # Errors
    ///
    /// Real or injected I/O failure; an injected short write reports
    /// success while persisting only a prefix.
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()>;

    /// Appends `contents` to an existing file.
    ///
    /// # Errors
    ///
    /// `NotFound` if the file does not exist, or real/injected failure.
    fn append(&self, path: &Path, contents: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to` (same directory in practice).
    ///
    /// # Errors
    ///
    /// `NotFound` if `from` does not exist, or real/injected failure.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// `NotFound` if absent, or real/injected failure.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and all parents.
    ///
    /// # Errors
    ///
    /// Real or injected failure.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Forces a file's *contents* to durable storage.
    ///
    /// # Errors
    ///
    /// Real or injected failure; an injected lying fsync reports
    /// success without making anything durable.
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Forces a directory's *namespace* (creates, renames, removes) to
    /// durable storage.
    ///
    /// # Errors
    ///
    /// Real or injected failure.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    /// Whether a file or directory exists in the live view.
    fn exists(&self, path: &Path) -> bool;

    /// A file's size in bytes (0 if absent — sizing is advisory).
    fn file_size(&self, path: &Path) -> u64;

    /// A file's length in bytes, from a stat that reports its failure —
    /// for callers that must tell an absent or unreadable file from an
    /// empty one.
    ///
    /// The default derives it from [`exists`](Vfs::exists) and
    /// [`file_size`](Vfs::file_size), so a stat that fails on an
    /// existing file reads as length 0; every backend in this crate
    /// overrides it with a true stat.
    ///
    /// # Errors
    ///
    /// `NotFound` for a missing file, or a real I/O error.
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        if self.exists(path) {
            Ok(self.file_size(path))
        } else {
            Err(not_found(path))
        }
    }

    /// The files (not directories) directly inside `path`.
    ///
    /// # Errors
    ///
    /// `NotFound` for a missing directory, or real/injected failure.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Opens an existing file for repeated appends. Each
    /// [`AppendFile::append`] has exactly the effect (and the faults)
    /// of one [`append`](Vfs::append) on `path`.
    ///
    /// The default handle appends by path on every call, so a backend
    /// only overrides this when holding the file open is cheaper.
    ///
    /// # Errors
    ///
    /// `NotFound` if the backend opens the file now and it is missing,
    /// or real failure. The default handle defers every error to its
    /// `append`.
    fn open_append(self: Arc<Self>, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        Ok(Box::new(PathAppend {
            vfs: self,
            path: path.to_path_buf(),
        }))
    }
}

/// An append handle on one file, from [`Vfs::open_append`]. The
/// persistent store holds one on its live journal tail.
pub trait AppendFile: fmt::Debug + Send + Sync {
    /// Appends `contents` to the end of the file.
    ///
    /// # Errors
    ///
    /// As [`Vfs::append`].
    fn append(&mut self, contents: &[u8]) -> io::Result<()>;

    /// The file's length in bytes, read through the handle where the
    /// backend can (an `fstat` on a real file), so a caller can check
    /// that an append landed whole without a by-path stat.
    ///
    /// # Errors
    ///
    /// Real failure of the stat.
    fn file_len(&self) -> io::Result<u64>;
}

/// The default [`AppendFile`]: a by-path [`Vfs::append`] per call.
#[derive(Debug)]
struct PathAppend<V: ?Sized> {
    vfs: Arc<V>,
    path: PathBuf,
}

impl<V: Vfs + ?Sized> AppendFile for PathAppend<V> {
    fn append(&mut self, contents: &[u8]) -> io::Result<()> {
        self.vfs.append(&self.path, contents)
    }

    fn file_len(&self) -> io::Result<u64> {
        Ok(self.vfs.file_size(&self.path))
    }
}

// ----------------------------------------------------------------------
// Real backend
// ----------------------------------------------------------------------

/// The production backend: a thin veneer over `std::fs` with the fsync
/// discipline the trait promises.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

impl RealVfs {
    /// A shared handle to the real filesystem.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(RealVfs)
    }
}

impl Vfs for RealVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        std::fs::write(path, contents)
    }

    fn append(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        RealAppend::open(path)?.append(contents)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directory fsync is a POSIX idiom; where a platform cannot
        // open a directory for reading, skipping is the best available.
        match std::fs::File::open(path) {
            Ok(d) => d.sync_all(),
            Err(_) if !cfg!(unix) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn file_size(&self, path: &Path) -> u64 {
        std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        std::fs::metadata(path).map(|m| m.len())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn open_append(self: Arc<Self>, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        Ok(Box::new(RealAppend::open(path)?))
    }
}

/// A held `O_APPEND` file: one `write` per append. `File` is
/// unbuffered, so there is nothing to flush.
#[derive(Debug)]
struct RealAppend(std::fs::File);

impl RealAppend {
    fn open(path: &Path) -> io::Result<RealAppend> {
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map(RealAppend)
    }
}

impl AppendFile for RealAppend {
    fn append(&mut self, contents: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        self.0.write_all(contents)
    }

    fn file_len(&self) -> io::Result<u64> {
        self.0.metadata().map(|m| m.len())
    }
}

// ----------------------------------------------------------------------
// In-memory backend with a durability model
// ----------------------------------------------------------------------

/// One file's bytes plus how much of them an fsync has made durable.
#[derive(Debug, Clone)]
struct Inode {
    data: Vec<u8>,
    /// Bytes `[0, synced)` survive a crash; the rest is torn off.
    synced: usize,
}

#[derive(Debug, Default)]
struct MemState {
    /// The live namespace a running process sees.
    live: BTreeMap<PathBuf, Inode>,
    /// The durable namespace: name → contents as of the last relevant
    /// `sync_dir` (contents still subject to per-inode `synced`).
    durable: BTreeMap<PathBuf, Inode>,
    /// Directories (always durable once created — directory *entries*
    /// are the interesting failure, not the directories themselves).
    dirs: Vec<PathBuf>,
}

/// An in-memory filesystem with a first-principles durability model —
/// see the [module docs](self). Cheap to clone via `Arc`; `crash()`
/// discards everything a real power loss would.
#[derive(Debug, Default)]
pub struct MemVfs {
    state: Mutex<MemState>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

fn parent_of(path: &Path) -> PathBuf {
    path.parent().map(Path::to_path_buf).unwrap_or_default()
}

impl MemVfs {
    /// An empty in-memory filesystem.
    pub fn new() -> Arc<MemVfs> {
        Arc::new(MemVfs::default())
    }

    /// Simulates a power loss: the live view is discarded, the durable
    /// namespace becomes the live one, and every file is torn down to
    /// its last-synced byte count.
    pub fn crash(&self) {
        let mut s = self.state.lock().expect("vfs lock");
        let mut survived = s.durable.clone();
        for inode in survived.values_mut() {
            inode.data.truncate(inode.synced);
        }
        s.live = survived;
    }

    /// Total bytes across all live files — a cheap "disk usage" probe
    /// for tests.
    pub fn total_bytes(&self) -> u64 {
        let s = self.state.lock().expect("vfs lock");
        s.live.values().map(|i| i.data.len() as u64).sum()
    }
}

impl Vfs for MemVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        String::from_utf8(self.read(path)?).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not valid UTF-8", path.display()),
            )
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = self.state.lock().expect("vfs lock");
        let inode = s.live.get(path).ok_or_else(|| not_found(path))?;
        Ok(inode.data.clone())
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock().expect("vfs lock");
        s.live.insert(
            path.to_path_buf(),
            Inode {
                data: contents.to_vec(),
                synced: 0,
            },
        );
        Ok(())
    }

    fn append(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock().expect("vfs lock");
        let inode = s.live.get_mut(path).ok_or_else(|| not_found(path))?;
        inode.data.extend_from_slice(contents);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("vfs lock");
        let inode = s.live.remove(from).ok_or_else(|| not_found(from))?;
        s.live.insert(to.to_path_buf(), inode);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("vfs lock");
        s.live.remove(path).ok_or_else(|| not_found(path))?;
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("vfs lock");
        let mut p = path.to_path_buf();
        loop {
            if !s.dirs.contains(&p) {
                s.dirs.push(p.clone());
            }
            match p.parent() {
                Some(parent) if parent != Path::new("") => p = parent.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("vfs lock");
        let inode = s.live.get_mut(path).ok_or_else(|| not_found(path))?;
        inode.synced = inode.data.len();
        let snapshot = inode.clone();
        // fsync pins contents, not names: only an already-durable name
        // gets the new bytes; a brand-new name still needs `sync_dir`.
        if let Some(d) = s.durable.get_mut(path) {
            *d = snapshot;
        }
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().expect("vfs lock");
        // Commit this directory's namespace: names present live become
        // durable (with their current synced prefix), names removed
        // live disappear from the durable view.
        let in_dir = |p: &Path| parent_of(p) == *path;
        let gone: Vec<PathBuf> = s
            .durable
            .keys()
            .filter(|p| in_dir(p) && !s.live.contains_key(*p))
            .cloned()
            .collect();
        for p in gone {
            s.durable.remove(&p);
        }
        let fresh: Vec<(PathBuf, Inode)> = s
            .live
            .iter()
            .filter(|(p, _)| in_dir(p))
            .map(|(p, i)| (p.clone(), i.clone()))
            .collect();
        for (p, inode) in fresh {
            s.durable.insert(p, inode);
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.state.lock().expect("vfs lock");
        s.live.contains_key(path) || s.dirs.contains(&path.to_path_buf())
    }

    fn file_size(&self, path: &Path) -> u64 {
        let s = self.state.lock().expect("vfs lock");
        s.live.get(path).map(|i| i.data.len() as u64).unwrap_or(0)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let s = self.state.lock().expect("vfs lock");
        let inode = s.live.get(path).ok_or_else(|| not_found(path))?;
        Ok(inode.data.len() as u64)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.state.lock().expect("vfs lock");
        if !s.dirs.contains(&path.to_path_buf()) {
            return Err(not_found(path));
        }
        Ok(s.live
            .keys()
            .filter(|p| parent_of(p) == *path)
            .cloned()
            .collect())
    }
}

// ----------------------------------------------------------------------
// Fault-injecting decorator
// ----------------------------------------------------------------------

/// The faults [`FaultVfs`] can inject, mirroring what real storage
/// stacks do to their users.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsFault {
    /// `write`/`append` fails with ENOSPC after persisting a prefix —
    /// a full disk tears the record it was writing.
    Enospc,
    /// `read_to_string` or `read` fails with EIO (a bad sector).
    Eio,
    /// `write`/`append` *reports success* but persists only a prefix —
    /// a short write the caller never learns about.
    ShortWrite,
    /// `sync_file` reports success without making anything durable —
    /// the lying-fsync drive.
    LyingFsync,
    /// `rename` reports success but never happens — the dropped
    /// directory update.
    RenameDrop,
}

/// A seeded, deterministic fault plan: each I/O operation's fate is a
/// pure function of `(seed, operation index, kind)`, so a failing chaos
/// seed replays exactly.
#[derive(Debug, Clone, Copy)]
pub struct VfsFaultPlan {
    seed: u64,
    /// Probability that a given mutating/reading op faults at all.
    rate: f64,
}

impl VfsFaultPlan {
    /// A plan injecting faults at `rate` (0.0–1.0) under `seed`.
    pub fn seeded(seed: u64, rate: f64) -> VfsFaultPlan {
        VfsFaultPlan { seed, rate }
    }

    /// The no-fault plan: every operation passes through untouched.
    /// Used by the conformance suite to prove the seam is free.
    pub fn none() -> VfsFaultPlan {
        VfsFaultPlan { seed: 0, rate: 0.0 }
    }

    /// What (if anything) happens to operation `index` of `kind`.
    /// `frac` in the result scales partial writes.
    fn decide(&self, index: u64, kind: OpKind) -> Option<(VfsFault, f64)> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut g = SplitMix64::new(mix(&[self.seed, index, kind as u64 + 1]));
        if g.next_f64() >= self.rate {
            return None;
        }
        let frac = g.next_f64();
        let fault = match kind {
            OpKind::Write | OpKind::Append => match g.next_below(3) {
                0 => VfsFault::Enospc,
                1 => VfsFault::ShortWrite,
                _ => VfsFault::Enospc,
            },
            OpKind::Read => VfsFault::Eio,
            OpKind::SyncFile => VfsFault::LyingFsync,
            OpKind::Rename => VfsFault::RenameDrop,
        };
        Some((fault, frac))
    }
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Read = 0,
    Write = 1,
    Append = 2,
    Rename = 3,
    SyncFile = 4,
}

/// A decorator injecting [`VfsFault`]s into an inner [`Vfs`] according
/// to a [`VfsFaultPlan`], plus a one-shot trigger
/// ([`arm_enospc_after`](FaultVfs::arm_enospc_after)) for property
/// tests that need a failure at an *exact* injection point.
#[derive(Debug)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    plan: VfsFaultPlan,
    ops: AtomicU64,
    /// Fail the nth *subsequent* write/append with ENOSPC when set
    /// (decrements on each write; fires at zero).
    armed_enospc: AtomicU64,
    injected: AtomicU64,
}

const DISARMED: u64 = u64::MAX;

impl FaultVfs {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Arc<dyn Vfs>, plan: VfsFaultPlan) -> Arc<FaultVfs> {
        Arc::new(FaultVfs {
            inner,
            plan,
            ops: AtomicU64::new(0),
            armed_enospc: AtomicU64::new(DISARMED),
            injected: AtomicU64::new(0),
        })
    }

    /// Arms a single ENOSPC: the `n`-th write/append from now (0 = the
    /// very next one) fails having persisted nothing.
    pub fn arm_enospc_after(&self, n: u64) {
        self.armed_enospc.store(n, Ordering::SeqCst);
    }

    /// Disarms a pending [`arm_enospc_after`](Self::arm_enospc_after).
    pub fn disarm(&self) {
        self.armed_enospc.store(DISARMED, Ordering::SeqCst);
    }

    /// How many faults this decorator has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Total write/append operations observed — the injection-point
    /// count a sweep iterates over.
    pub fn write_ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    fn next_index(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::SeqCst)
    }

    /// Checks the one-shot trigger for a write-class op.
    fn armed_fires(&self) -> bool {
        loop {
            let v = self.armed_enospc.load(Ordering::SeqCst);
            if v == DISARMED {
                return false;
            }
            if v == 0 {
                self.armed_enospc.store(DISARMED, Ordering::SeqCst);
                return true;
            }
            if self
                .armed_enospc
                .compare_exchange(v, v - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return false;
            }
        }
    }

    fn enospc(&self, path: &Path) -> io::Error {
        self.injected.fetch_add(1, Ordering::SeqCst);
        io::Error::new(
            io::ErrorKind::StorageFull,
            format!("{}: injected ENOSPC", path.display()),
        )
    }

    fn eio(&self, path: &Path) -> io::Error {
        self.injected.fetch_add(1, Ordering::SeqCst);
        io::Error::other(format!("{}: injected EIO", path.display()))
    }

    /// The read fault model, shared by `read_to_string` and `read`: the
    /// seeded decision for this op's index, EIO when it faults.
    fn faulty_read(&self, path: &Path) -> io::Result<()> {
        match self.plan.decide(self.next_index(), OpKind::Read) {
            Some((VfsFault::Eio, _)) => Err(self.eio(path)),
            _ => Ok(()),
        }
    }

    /// The write-class fault model, shared by `write`, by-path
    /// `append` and held append handles: the armed one-shot ENOSPC
    /// first, then the seeded decision for this op's index. A planned
    /// fault persists `frac` of the payload via `put`, then errors
    /// (ENOSPC) or lies (short write).
    fn faulty_write(
        &self,
        kind: OpKind,
        path: &Path,
        contents: &[u8],
        mut put: impl FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        if self.armed_fires() {
            return Err(self.enospc(path));
        }
        let Some((fault, frac)) = self.plan.decide(self.next_index(), kind) else {
            return put(contents);
        };
        let keep = ((contents.len() as f64) * frac) as usize;
        put(&contents[..keep.min(contents.len())])?;
        match fault {
            VfsFault::Enospc => Err(self.enospc(path)),
            VfsFault::ShortWrite => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            _ => unreachable!("write faults are Enospc/ShortWrite"),
        }
    }
}

/// A [`FaultVfs`] append handle: the inner backend's handle behind the
/// same per-append fault decisions as [`FaultVfs::append`].
#[derive(Debug)]
struct FaultAppend {
    fs: Arc<FaultVfs>,
    path: PathBuf,
    inner: Box<dyn AppendFile>,
}

impl AppendFile for FaultAppend {
    fn append(&mut self, contents: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.fs
            .faulty_write(OpKind::Append, &self.path, contents, |bytes| {
                inner.append(bytes)
            })
    }

    fn file_len(&self) -> io::Result<u64> {
        self.inner.file_len()
    }
}

impl Vfs for FaultVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.faulty_read(path)?;
        self.inner.read_to_string(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.faulty_read(path)?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.faulty_write(OpKind::Write, path, contents, |bytes| {
            self.inner.write(path, bytes)
        })
    }

    fn append(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.faulty_write(OpKind::Append, path, contents, |bytes| {
            self.inner.append(path, bytes)
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some((VfsFault::RenameDrop, _)) = self.plan.decide(self.next_index(), OpKind::Rename)
        {
            // Report success; the directory update never happens.
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if let Some((VfsFault::LyingFsync, _)) =
            self.plan.decide(self.next_index(), OpKind::SyncFile)
        {
            // Report success; nothing became durable.
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn file_size(&self, path: &Path) -> u64 {
        self.inner.file_size(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }

    fn open_append(self: Arc<Self>, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        let inner = Arc::clone(&self.inner).open_append(path)?;
        Ok(Box::new(FaultAppend {
            fs: self,
            path: path.to_path_buf(),
            inner,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn mem_roundtrip_and_listing() {
        let fs = MemVfs::new();
        fs.create_dir_all(&p("/db")).unwrap();
        fs.write(&p("/db/a"), b"one").unwrap();
        fs.write(&p("/db/b"), b"two").unwrap();
        assert_eq!(fs.read_to_string(&p("/db/a")).unwrap(), "one");
        assert_eq!(fs.file_size(&p("/db/b")), 3);
        assert_eq!(
            fs.list_dir(&p("/db")).unwrap(),
            vec![p("/db/a"), p("/db/b")]
        );
        fs.append(&p("/db/a"), b"+").unwrap();
        assert_eq!(fs.read_to_string(&p("/db/a")).unwrap(), "one+");
        fs.remove_file(&p("/db/b")).unwrap();
        assert!(!fs.exists(&p("/db/b")));
        assert!(fs.exists(&p("/db")));
    }

    #[test]
    fn crash_drops_unsynced_bytes_and_names() {
        let fs = MemVfs::new();
        fs.create_dir_all(&p("/db")).unwrap();
        // File + dir fully synced: survives whole.
        fs.write(&p("/db/keep"), b"durable").unwrap();
        fs.sync_file(&p("/db/keep")).unwrap();
        fs.sync_dir(&p("/db")).unwrap();
        // Appended after the fsync: the suffix is torn off.
        fs.append(&p("/db/keep"), b" torn").unwrap();
        // Never dir-synced: the name is lost entirely.
        fs.write(&p("/db/lost"), b"x").unwrap();
        fs.sync_file(&p("/db/lost")).unwrap();
        fs.crash();
        assert_eq!(fs.read_to_string(&p("/db/keep")).unwrap(), "durable");
        assert!(!fs.exists(&p("/db/lost")));
    }

    #[test]
    fn rename_needs_dir_sync_to_survive() {
        let fs = MemVfs::new();
        fs.create_dir_all(&p("/db")).unwrap();
        fs.write(&p("/db/f.tmp"), b"v1").unwrap();
        fs.sync_file(&p("/db/f.tmp")).unwrap();
        fs.sync_dir(&p("/db")).unwrap();
        fs.rename(&p("/db/f.tmp"), &p("/db/f")).unwrap();
        // Crash before the dir sync: the rename is lost, the temp name
        // is still there — the classic hole.
        fs.crash();
        assert!(fs.exists(&p("/db/f.tmp")));
        assert!(!fs.exists(&p("/db/f")));
        // Redo, this time with the dir sync: the rename sticks.
        fs.rename(&p("/db/f.tmp"), &p("/db/f")).unwrap();
        fs.sync_dir(&p("/db")).unwrap();
        fs.crash();
        assert!(fs.exists(&p("/db/f")));
        assert_eq!(fs.read_to_string(&p("/db/f")).unwrap(), "v1");
    }

    #[test]
    fn sync_file_on_durable_name_updates_contents() {
        let fs = MemVfs::new();
        fs.create_dir_all(&p("/db")).unwrap();
        fs.write(&p("/db/f"), b"v1").unwrap();
        fs.sync_file(&p("/db/f")).unwrap();
        fs.sync_dir(&p("/db")).unwrap();
        // Overwrite and fsync — no new dir entry, so no dir sync needed.
        fs.write(&p("/db/f"), b"v2!").unwrap();
        fs.sync_file(&p("/db/f")).unwrap();
        fs.crash();
        assert_eq!(fs.read_to_string(&p("/db/f")).unwrap(), "v2!");
    }

    #[test]
    fn no_fault_plan_is_transparent() {
        let mem = MemVfs::new();
        let fs = FaultVfs::new(mem.clone(), VfsFaultPlan::none());
        fs.create_dir_all(&p("/db")).unwrap();
        fs.write(&p("/db/a"), b"abc").unwrap();
        fs.append(&p("/db/a"), b"def").unwrap();
        fs.sync_file(&p("/db/a")).unwrap();
        fs.sync_dir(&p("/db")).unwrap();
        fs.rename(&p("/db/a"), &p("/db/b")).unwrap();
        assert_eq!(fs.read_to_string(&p("/db/b")).unwrap(), "abcdef");
        assert_eq!(fs.injected(), 0);
    }

    #[test]
    fn armed_enospc_fires_once_at_exact_op() {
        let mem = MemVfs::new();
        let fs = FaultVfs::new(mem.clone(), VfsFaultPlan::none());
        fs.create_dir_all(&p("/db")).unwrap();
        fs.arm_enospc_after(1);
        fs.write(&p("/db/a"), b"ok").unwrap(); // op 0: passes
        let err = fs.write(&p("/db/b"), b"no").unwrap_err(); // op 1: fires
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        fs.write(&p("/db/c"), b"ok").unwrap(); // disarmed again
        assert!(!mem.exists(&p("/db/b")));
        assert_eq!(fs.injected(), 1);
    }

    #[test]
    fn seeded_plan_is_deterministic_and_injects() {
        let run = |seed: u64| -> (u64, Vec<bool>) {
            let mem = MemVfs::new();
            let fs = FaultVfs::new(mem, VfsFaultPlan::seeded(seed, 0.3));
            fs.create_dir_all(&p("/db")).unwrap();
            let mut oks = Vec::new();
            for i in 0..50 {
                oks.push(fs.write(&p(&format!("/db/f{i}")), b"payload bytes").is_ok());
            }
            (fs.injected(), oks)
        };
        let (inj_a, oks_a) = run(7);
        let (inj_b, oks_b) = run(7);
        assert_eq!(oks_a, oks_b, "same seed, same fate");
        assert_eq!(inj_a, inj_b);
        assert!(inj_a > 0, "a 30% plan over 50 writes must inject");
        let (_, oks_c) = run(8);
        assert_ne!(oks_a, oks_c, "different seeds diverge");
    }

    #[test]
    fn short_write_persists_prefix_silently() {
        // Sweep seeds until a ShortWrite decision lands on op 1, then
        // check the observable contract: Ok result, truncated bytes.
        for seed in 0..200u64 {
            let plan = VfsFaultPlan::seeded(seed, 1.0);
            if let Some((VfsFault::ShortWrite, frac)) = plan.decide(0, OpKind::Write) {
                let mem = MemVfs::new();
                let fs = FaultVfs::new(mem.clone(), plan);
                let payload = b"0123456789abcdef";
                fs.write(&p("/f"), payload).unwrap();
                let got = mem.file_size(&p("/f"));
                assert_eq!(got, ((payload.len() as f64) * frac) as u64);
                assert!(got < payload.len() as u64);
                return;
            }
        }
        panic!("no seed produced a short write on op 0");
    }

    /// Drives 40 growing appends to one file through a [`FaultVfs`],
    /// by path or through one held handle, and returns what is
    /// observable: the bytes, each append's error kind, and the
    /// decorator's counters.
    fn drive_appends(
        plan: VfsFaultPlan,
        arm: Option<u64>,
        held: bool,
    ) -> (String, Vec<Option<io::ErrorKind>>, u64, u64) {
        let mem = MemVfs::new();
        mem.create_dir_all(&p("/db")).unwrap();
        mem.write(&p("/db/tail"), b"").unwrap();
        let fs = FaultVfs::new(mem.clone(), plan);
        if let Some(k) = arm {
            fs.arm_enospc_after(k);
        }
        let mut handle = held.then(|| Arc::clone(&fs).open_append(&p("/db/tail")).unwrap());
        let errors = (0..40u8)
            .map(|i| {
                let record = vec![b'a' + i % 26; 1 + usize::from(i) * 7];
                let result = match &mut handle {
                    Some(h) => h.append(&record),
                    None => fs.append(&p("/db/tail"), &record),
                };
                result.err().map(|e| e.kind())
            })
            .collect();
        let bytes = mem.read_to_string(&p("/db/tail")).unwrap();
        (bytes, errors, fs.write_ops(), fs.injected())
    }

    #[test]
    fn held_handle_and_by_path_append_share_one_fault_model() {
        let mut injected = 0;
        for seed in 0..64 {
            let plan = VfsFaultPlan::seeded(seed, 0.3);
            let by_path = drive_appends(plan, None, false);
            assert_eq!(by_path, drive_appends(plan, None, true), "seed {seed}");
            injected += by_path.3;
        }
        assert!(injected > 0, "a 30% plan over 64 seeds must inject");
        for k in [0, 1, 17, 39] {
            let by_path = drive_appends(VfsFaultPlan::none(), Some(k), false);
            assert_eq!(by_path, drive_appends(VfsFaultPlan::none(), Some(k), true));
            let fired: Vec<usize> = (0..40).filter(|&i| by_path.1[i].is_some()).collect();
            assert_eq!(fired, vec![k as usize], "armed ENOSPC fires at op {k}");
            assert_eq!(by_path.1[k as usize], Some(io::ErrorKind::StorageFull));
        }
    }

    #[test]
    fn real_vfs_smoke() {
        let dir = std::env::temp_dir().join(format!(
            "schedflow-vfs-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = RealVfs;
        fs.create_dir_all(&dir).unwrap();
        let f = dir.join("a.txt");
        fs.write(&f, b"hello").unwrap();
        fs.sync_file(&f).unwrap();
        fs.sync_dir(&dir).unwrap();
        fs.append(&f, b" world").unwrap();
        let mut held = Arc::new(fs).open_append(&f).unwrap();
        held.append(b"!").unwrap();
        assert_eq!(fs.read_to_string(&f).unwrap(), "hello world!");
        assert_eq!(fs.file_size(&f), 12);
        let missing = Arc::new(fs).open_append(&dir.join("nope")).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        assert_eq!(fs.list_dir(&dir).unwrap(), vec![f.clone()]);
        let g = dir.join("b.txt");
        fs.rename(&f, &g).unwrap();
        assert!(fs.exists(&g) && !fs.exists(&f));
        fs.remove_file(&g).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
