//! The `Vfs` conformance suite for whole-file binary reads and stats,
//! the calls the persistent store's data segment is read back and
//! sized with. Every backend — [`RealVfs`], [`MemVfs`], and
//! [`FaultVfs`] with no faults planned over either — must round-trip
//! raw, non-UTF-8 bytes written and appended, report a missing file as
//! `NotFound` to both calls, and keep refusing non-UTF-8 text reads.
//! Then the two models the chaos suites lean on:
//! [`MemVfs::crash`] drops segment bytes appended after the last fsync,
//! and [`FaultVfs`] injects EIO into binary reads as into text reads.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use simtools::vfs::{FaultVfs, MemVfs, RealVfs, Vfs, VfsFaultPlan};

/// Bytes that are not UTF-8: every byte value, high ones first.
fn raw(len: usize, tag: u8) -> Vec<u8> {
    (0..len).map(|i| (255 - (i % 256)) as u8 ^ tag).collect()
}

/// A scratch directory for the real-filesystem backends, removed on
/// drop. Each is unique within the process, since tests run in
/// parallel.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "schedflow-vfs-conformance-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `check` against every backend, each over its own directory.
fn for_each_backend(check: impl Fn(&str, Arc<dyn Vfs>, &Path)) {
    let real = Scratch::new("real");
    check("real", RealVfs::arc(), &real.0);
    let seamed = Scratch::new("real-fault");
    let fault_real = FaultVfs::new(RealVfs::arc(), VfsFaultPlan::none());
    check("fault(real)", fault_real.clone(), &seamed.0);
    check("mem", MemVfs::new(), Path::new("/db"));
    let fault_mem = FaultVfs::new(MemVfs::new(), VfsFaultPlan::none());
    check("fault(mem)", fault_mem.clone(), Path::new("/db"));
    assert_eq!(fault_real.injected() + fault_mem.injected(), 0);
}

#[test]
fn binary_round_trip_of_non_utf8_bytes() {
    for_each_backend(|name, vfs, dir| {
        vfs.create_dir_all(dir).unwrap();
        let seg = dir.join("data.seg");
        let (first, second) = (raw(1000, 0), raw(300, 0x5a));
        assert!(std::str::from_utf8(&first).is_err());
        vfs.write(&seg, &first).unwrap();
        assert_eq!(vfs.read(&seg).unwrap(), first, "{name}: write");
        vfs.append(&seg, &second).unwrap();
        let mut held = Arc::clone(&vfs).open_append(&seg).unwrap();
        held.append(&first[..7]).unwrap();
        let expected = [&first[..], &second, &first[..7]].concat();
        assert_eq!(vfs.read(&seg).unwrap(), expected, "{name}: appends");
        assert_eq!(vfs.file_size(&seg), expected.len() as u64, "{name}");
        assert_eq!(vfs.file_len(&seg).unwrap(), expected.len() as u64, "{name}");
        // The held handle stats the same file.
        assert_eq!(held.file_len().unwrap(), expected.len() as u64, "{name}");
        // Text reads still refuse the same bytes.
        let err = vfs.read_to_string(&seg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
        // And an empty file reads as no bytes.
        vfs.write(&dir.join("empty"), b"").unwrap();
        assert!(vfs.read(&dir.join("empty")).unwrap().is_empty(), "{name}");
        assert_eq!(vfs.file_len(&dir.join("empty")).unwrap(), 0, "{name}");
    });
}

#[test]
fn missing_file_is_not_found() {
    for_each_backend(|name, vfs, dir| {
        vfs.create_dir_all(dir).unwrap();
        let err = vfs.read(&dir.join("absent.seg")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{name}");
        // A stat tells the absent file from an empty one; the advisory
        // size does not.
        let err = vfs.file_len(&dir.join("absent.seg")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{name}");
        assert_eq!(vfs.file_size(&dir.join("absent.seg")), 0, "{name}");
    });
}

#[test]
fn mem_crash_drops_unsynced_segment_bytes() {
    let fs = MemVfs::new();
    let dir = Path::new("/db");
    let seg = dir.join("data.seg");
    fs.create_dir_all(dir).unwrap();
    fs.write(&seg, b"").unwrap();
    fs.sync_dir(dir).unwrap();
    let durable = raw(512, 1);
    let mut held = (fs.clone() as Arc<dyn Vfs>).open_append(&seg).unwrap();
    held.append(&durable).unwrap();
    fs.sync_file(&seg).unwrap();
    // Appended after the fsync: live until the power cut, gone after.
    held.append(&raw(256, 2)).unwrap();
    assert_eq!(fs.file_size(&seg), 768);
    fs.crash();
    assert_eq!(fs.read(&seg).unwrap(), durable);
}

#[test]
fn fault_vfs_injects_eio_into_binary_reads() {
    let mem = MemVfs::new();
    let seg = Path::new("/db/data.seg");
    mem.create_dir_all(Path::new("/db")).unwrap();
    mem.write(seg, &raw(64, 3)).unwrap();
    let fs = FaultVfs::new(mem.clone(), VfsFaultPlan::seeded(11, 1.0));
    let err = fs.read(seg).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::Other);
    assert!(err.to_string().contains("injected EIO"), "{err}");
    assert_eq!(fs.injected(), 1);
    // The bytes themselves are untouched.
    assert_eq!(mem.read(seg).unwrap(), raw(64, 3));
}

/// A backend implementing only the required methods gets the default
/// binary read, which goes through `read_to_string`: text reads back,
/// raw bytes are refused rather than mangled.
#[test]
fn default_binary_read_goes_through_text() {
    #[derive(Debug)]
    struct TextOnly(Arc<MemVfs>);
    impl Vfs for TextOnly {
        fn read_to_string(&self, path: &Path) -> io::Result<String> {
            self.0.read_to_string(path)
        }
        fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
            self.0.write(path, contents)
        }
        fn append(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
            self.0.append(path, contents)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.0.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.0.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            self.0.create_dir_all(path)
        }
        fn sync_file(&self, path: &Path) -> io::Result<()> {
            self.0.sync_file(path)
        }
        fn sync_dir(&self, path: &Path) -> io::Result<()> {
            self.0.sync_dir(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.0.exists(path)
        }
        fn file_size(&self, path: &Path) -> u64 {
            self.0.file_size(path)
        }
        fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
            self.0.list_dir(path)
        }
    }
    let fs = TextOnly(MemVfs::new());
    fs.create_dir_all(Path::new("/db")).unwrap();
    fs.write(Path::new("/db/text"), b"plain text").unwrap();
    assert_eq!(fs.read(Path::new("/db/text")).unwrap(), b"plain text");
    fs.write(Path::new("/db/raw"), &raw(16, 0)).unwrap();
    let err = fs.read(Path::new("/db/raw")).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    // The default stat: the size of a file that exists, `NotFound` for
    // one that does not.
    assert_eq!(fs.file_len(Path::new("/db/raw")).unwrap(), 16);
    let err = fs.file_len(Path::new("/db/absent")).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::NotFound);
}
