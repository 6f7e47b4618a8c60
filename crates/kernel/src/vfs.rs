//! A small virtual filesystem: enough semantics for the fuzzed syscall
//! surface (open/creat/read/write/lseek/fallocate/ftruncate/xattr/readlink)
//! to behave consistently, plus the page-cache dirty counter that makes
//! `sync(2)` expensive.

use std::collections::HashMap;

use crate::errno::Errno;
use crate::slots::Slots;

/// File descriptor number within one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub i32);

/// What a file descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdObject {
    /// A regular file (by inode).
    File {
        /// Inode of the open file.
        ino: u64,
        /// Current file offset.
        offset: u64,
    },
    /// An inotify instance.
    Inotify,
    /// A socket. Sockets never change after creation, so the one property
    /// a later call reads is kept in the descriptor itself (and copied by
    /// `dup`).
    Socket {
        /// Whether this is the netlink audit socket (`NETLINK_AUDIT`).
        audit: bool,
    },
    /// One end of a socketpair/pipe.
    PipeEnd,
}

/// Metadata of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Inode number.
    pub ino: u64,
    /// Size in bytes.
    pub size: u64,
    /// Permission bits.
    pub mode: u32,
    /// Extended attributes.
    pub xattrs: HashMap<String, Vec<u8>>,
    /// Whether the path is a symlink (readlink target = the path itself for
    /// the `test_eloop` style chains used in the Moonshine seeds).
    pub symlink: bool,
}

/// The filesystem: path table plus global dirty-page bookkeeping.
#[derive(Debug, Clone)]
pub struct Vfs {
    files: HashMap<String, FileMeta>,
    next_ino: u64,
    /// Bytes of dirty page-cache data that a `sync(2)` would flush.
    dirty_bytes: u64,
}

/// Well-known paths pre-populated so Moonshine-style seeds resolve.
const WELL_KNOWN: &[(&str, u32, bool)] = &[
    ("/lib/x86_64-Linux-gnu/libc.so.6", 0o755, false),
    ("/proc/sys/fs/mqueue/msg_max", 0o644, false),
    ("/etc/passwd", 0o644, false),
    ("/dev/null", 0o666, false),
    ("/tmp", 0o777, false),
    ("mntpoint/tmp", 0o777, false),
    ("testdir_1", 0o755, false),
    ("./test_eloop", 0o777, true),
];

impl Vfs {
    /// A filesystem pre-populated with the well-known paths the evaluation
    /// seeds reference.
    pub fn new() -> Vfs {
        let mut vfs = Vfs {
            files: HashMap::new(),
            next_ino: 1,
            dirty_bytes: 0,
        };
        for (path, mode, symlink) in WELL_KNOWN {
            vfs.create(path, *mode);
            if *symlink {
                if let Some(meta) = vfs.files.get_mut(*path) {
                    meta.symlink = true;
                }
            }
        }
        vfs
    }

    /// Create (or truncate) a file at `path` and return its inode.
    pub fn create(&mut self, path: &str, mode: u32) -> u64 {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.files.insert(
            path.to_string(),
            FileMeta {
                ino,
                size: 0,
                mode,
                xattrs: HashMap::new(),
                symlink: false,
            },
        );
        ino
    }

    /// Look up a path.
    pub fn lookup(&self, path: &str) -> Option<&FileMeta> {
        self.files.get(path)
    }

    /// Mutable lookup.
    pub fn lookup_mut(&mut self, path: &str) -> Option<&mut FileMeta> {
        self.files.get_mut(path)
    }

    /// Look up by inode (linear scan; the table stays small).
    pub fn by_ino_mut(&mut self, ino: u64) -> Option<&mut FileMeta> {
        self.files.values_mut().find(|m| m.ino == ino)
    }

    /// Resolve a path for `open(2)`, reproducing `ELOOP` for the deep
    /// symlink chains in the Moonshine seeds.
    ///
    /// # Errors
    /// `ELOOP` for chained symlinks, `ENOENT` for absent paths.
    pub fn resolve(&self, path: &str) -> Result<&FileMeta, Errno> {
        // A path that traverses a self-referencing symlink more than the
        // kernel's nesting limit (40) fails with ELOOP. Forty-one non-empty
        // components need at least 81 bytes, so shorter paths skip the
        // count.
        if path.len() > 80 && component_count(path) > 40 {
            return Err(Errno::ELOOP);
        }
        match self.files.get(path) {
            Some(meta) if meta.symlink && component_count(path) > 1 => Err(Errno::ELOOP),
            Some(meta) => Ok(meta),
            None => Err(Errno::ENOENT),
        }
    }

    /// Record `bytes` of buffered (not yet flushed) writes.
    pub fn dirty(&mut self, bytes: u64) {
        self.dirty_bytes = self.dirty_bytes.saturating_add(bytes);
    }

    /// Flush all dirty data, returning how many bytes were flushed.
    /// This is the work `sync(2)` defers to kworker threads.
    pub fn flush_all(&mut self) -> u64 {
        std::mem::take(&mut self.dirty_bytes)
    }

    /// Currently dirty bytes.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_bytes
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether no files exist (never true in practice: well-known paths).
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

/// The number of non-empty components of `path`, counted up to 41: past
/// the nesting limit the exact count no longer matters.
fn component_count(path: &str) -> usize {
    path.split('/').filter(|c| !c.is_empty()).take(41).count()
}

/// Per-process file-descriptor table.
///
/// Fds count up from 3 and only [`FdTable::close_all`] rewinds them, so
/// each entry is stored at the index of its fd.
#[derive(Debug, Clone)]
pub struct FdTable {
    entries: Slots<FdObject>,
    next_fd: i32,
}

impl Default for FdTable {
    fn default() -> FdTable {
        FdTable::new()
    }
}

impl FdTable {
    /// An empty table; fds start at 3 (0–2 are std streams).
    pub fn new() -> FdTable {
        FdTable {
            entries: Slots::default(),
            next_fd: 3,
        }
    }

    /// Allocate the next fd for `obj`, enforcing `limit` (RLIMIT_NOFILE).
    ///
    /// # Errors
    /// `EMFILE` when the table is full.
    pub fn alloc(&mut self, obj: FdObject, limit: u32) -> Result<Fd, Errno> {
        if self.entries.len() as u32 + 3 >= limit {
            return Err(Errno::EMFILE);
        }
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.entries.insert(fd.0 as usize, obj);
        Ok(fd)
    }

    /// Look up an fd.
    pub fn get(&self, fd: Fd) -> Option<&FdObject> {
        self.entries.get(slot(fd)?)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, fd: Fd) -> Option<&mut FdObject> {
        self.entries.get_mut(slot(fd)?)
    }

    /// Close an fd.
    ///
    /// # Errors
    /// `EBADF` if not open.
    pub fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        slot(fd)
            .and_then(|i| self.entries.remove(i))
            .map(|_| ())
            .ok_or(Errno::EBADF)
    }

    /// Close everything (the executor's `EnableCloseFDs` behaviour).
    pub fn close_all(&mut self) {
        self.entries.clear();
        self.next_fd = 3;
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }
}

/// The table index of `fd`; negative fds have none.
fn slot(fd: Fd) -> Option<usize> {
    usize::try_from(fd.0).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_paths_resolve() {
        let vfs = Vfs::new();
        assert!(vfs.resolve("/lib/x86_64-Linux-gnu/libc.so.6").is_ok());
        assert!(vfs.resolve("/proc/sys/fs/mqueue/msg_max").is_ok());
    }

    #[test]
    fn missing_path_is_enoent() {
        let vfs = Vfs::new();
        assert_eq!(vfs.resolve("/no/such/file"), Err(Errno::ENOENT));
    }

    #[test]
    fn deep_chain_is_eloop() {
        let vfs = Vfs::new();
        let deep = "./".to_string() + &"test_eloop/".repeat(43);
        assert_eq!(vfs.resolve(&deep), Err(Errno::ELOOP));
    }

    #[test]
    fn resolve_counts_components_only_where_they_matter() {
        let mut vfs = Vfs::new();
        // Forty one-byte components fit in 79 bytes; forty-one need 81.
        let forty = ["a"; 40].join("/");
        let forty_one = ["a"; 41].join("/");
        assert_eq!((forty.len(), forty_one.len()), (79, 81));
        vfs.create(&forty, 0o644);
        vfs.create(&forty_one, 0o644);
        assert!(vfs.resolve(&forty).is_ok());
        assert_eq!(vfs.resolve(&forty_one), Err(Errno::ELOOP));
        // Long paths of few components resolve; empty components do
        // not count.
        let long = format!("{}/{}", "/".repeat(100), "x".repeat(100));
        vfs.create(&long, 0o644);
        assert!(vfs.resolve(&long).is_ok());
        // A symlink loops only when reached through a second component.
        for (path, loops) in [("link", false), ("dir/link", true)] {
            vfs.create(path, 0o777);
            vfs.lookup_mut(path).unwrap().symlink = true;
            assert_eq!(vfs.resolve(path).is_err(), loops, "{path}");
        }
        assert_eq!(vfs.resolve("./test_eloop"), Err(Errno::ELOOP));
    }

    #[test]
    fn create_assigns_fresh_inodes() {
        let mut vfs = Vfs::new();
        let a = vfs.create("a", 0o644);
        let b = vfs.create("b", 0o644);
        assert_ne!(a, b);
        assert_eq!(vfs.lookup("a").unwrap().ino, a);
    }

    #[test]
    fn dirty_and_flush() {
        let mut vfs = Vfs::new();
        vfs.dirty(4096);
        vfs.dirty(4096);
        assert_eq!(vfs.dirty_bytes(), 8192);
        assert_eq!(vfs.flush_all(), 8192);
        assert_eq!(vfs.dirty_bytes(), 0);
    }

    #[test]
    fn fd_alloc_close_cycle() {
        let mut t = FdTable::new();
        let fd = t.alloc(FdObject::Inotify, 1024).unwrap();
        assert_eq!(fd, Fd(3));
        assert!(t.get(fd).is_some());
        t.close(fd).unwrap();
        assert_eq!(t.close(fd), Err(Errno::EBADF));
    }

    #[test]
    fn fd_limit_is_emfile() {
        let mut t = FdTable::new();
        t.alloc(FdObject::Inotify, 5).unwrap();
        t.alloc(FdObject::Inotify, 5).unwrap();
        assert_eq!(t.alloc(FdObject::Inotify, 5), Err(Errno::EMFILE));
    }

    #[test]
    fn close_all_resets() {
        let mut t = FdTable::new();
        t.alloc(FdObject::Inotify, 1024).unwrap();
        t.close_all();
        assert!(t.is_empty());
        assert_eq!(t.alloc(FdObject::Inotify, 1024).unwrap(), Fd(3));
    }

    #[test]
    fn by_ino_mut_finds_file() {
        let mut vfs = Vfs::new();
        let ino = vfs.create("somefile", 0o600);
        vfs.by_ino_mut(ino).unwrap().size = 42;
        assert_eq!(vfs.lookup("somefile").unwrap().size, 42);
    }
}
