//! A pass-through [`Vfs`] over the real disk that counts what the
//! persistence layer asks of it: bytes written per file kind and file
//! syncs. Counting sits at the `Vfs` boundary, outside the store.

use smartstore_persist::{RealVfs, Vfs, VfsFile};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters shared by a [`CountingVfs`] and every file it hands out.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Bytes written to `wal-*.log` segments.
    pub wal_bytes: AtomicU64,
    /// Bytes written to every other file (snapshots, deltas, manifests).
    pub image_bytes: AtomicU64,
    /// `sync` calls on `wal-*.log` segments.
    pub wal_syncs: AtomicU64,
    /// `sync` calls on every other file.
    pub image_syncs: AtomicU64,
}

/// A snapshot of [`IoCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub wal_bytes: u64,
    pub image_bytes: u64,
    pub wal_syncs: u64,
    pub image_syncs: u64,
}

impl IoSnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            image_bytes: self.image_bytes - earlier.image_bytes,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
            image_syncs: self.image_syncs - earlier.image_syncs,
        }
    }
}

impl IoCounters {
    /// Reads every counter.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            image_bytes: self.image_bytes.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            image_syncs: self.image_syncs.load(Ordering::Relaxed),
        }
    }
}

/// The counting pass-through filesystem.
#[derive(Debug)]
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counters: Arc<IoCounters>,
}

impl CountingVfs {
    /// A counting handle over the real disk, and its counters.
    pub fn real() -> (Arc<dyn Vfs>, Arc<IoCounters>) {
        let counters = Arc::new(IoCounters::default());
        let vfs = Arc::new(CountingVfs {
            inner: RealVfs::handle(),
            counters: Arc::clone(&counters),
        });
        (vfs, counters)
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        let is_wal = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"));
        Box::new(CountingFile {
            inner: file,
            is_wal,
            counters: Arc::clone(&self.counters),
        })
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    is_wal: bool,
    counters: Arc<IoCounters>,
}

impl VfsFile for CountingFile {
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let c = if self.is_wal {
            &self.counters.wal_bytes
        } else {
            &self.counters.image_bytes
        };
        c.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_all_at(offset, buf)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        let c = if self.is_wal {
            &self.counters.wal_syncs
        } else {
            &self.counters.image_syncs
        };
        c.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.create(path)?))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open_rw(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn exists(&self, path: &Path) -> io::Result<bool> {
        self.inner.exists(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(path)
    }
}
