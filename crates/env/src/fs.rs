//! A virtual filesystem with finite capacity and a maximum file size.
//!
//! Backs four of the paper's environment-dependent-nontransient triggers:
//! a full filesystem (Apache, MySQL), a full application disk cache
//! (Apache), a log or database file exceeding the maximum allowed file size
//! (Apache, MySQL), and a file with an illegal owner field (GNOME).

use std::collections::BTreeMap;
use std::fmt;

/// Errors returned by [`VirtualFs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The filesystem has no space for the requested write.
    NoSpace {
        /// Bytes requested by the write.
        requested: u64,
        /// Bytes actually free.
        free: u64,
    },
    /// The write would push the file past the maximum allowed file size.
    FileTooLarge {
        /// Resulting size the write would have produced.
        would_be: u64,
        /// The configured maximum file size.
        max: u64,
    },
    /// No file exists at the given path.
    NotFound(String),
    /// The file's metadata is corrupt (e.g. an illegal owner id) and the
    /// operation refuses to proceed.
    CorruptMetadata(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NoSpace { requested, free } => {
                write!(f, "no space on device: requested {requested} bytes, {free} free")
            }
            FsError::FileTooLarge { would_be, max } => {
                write!(f, "file size limit exceeded: {would_be} > max {max}")
            }
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::CorruptMetadata(p) => write!(f, "corrupt metadata on file: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Metadata of one virtual file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Current size in bytes.
    pub size: u64,
    /// Numeric owner id; `u32::MAX` conventionally encodes the GNOME
    /// corpus's "illegal value in the owner field".
    pub owner: u32,
}

impl FileMeta {
    /// Whether the owner field holds an illegal value.
    pub(crate) fn owner_is_illegal(&self) -> bool {
        self.owner == u32::MAX
    }
}

/// A capacity-bounded virtual filesystem.
///
/// Paths are flat strings; the hierarchy the applications use is purely a
/// naming convention (`"cache/tmp1"`, `"logs/access.log"`), which is all the
/// fault families require.
///
/// # Example
///
/// ```
/// use faultstudy_env::fs::VirtualFs;
///
/// let mut fs = VirtualFs::new(1_000, 400);
/// fs.write("logs/a", 300).unwrap();
/// assert_eq!(fs.used(), 300);
/// assert!(fs.append("logs/a", 200).is_err()); // would exceed max file size
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualFs {
    files: BTreeMap<String, FileMeta>,
    capacity: u64,
    max_file_size: u64,
    used: u64,
}

impl VirtualFs {
    /// Creates a filesystem with `capacity` total bytes and a per-file size
    /// limit of `max_file_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_file_size` is zero.
    pub fn new(capacity: u64, max_file_size: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(max_file_size > 0, "max file size must be positive");
        VirtualFs { files: BTreeMap::new(), capacity, max_file_size, used: 0 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated to files.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Whether the filesystem is completely full.
    pub fn is_full(&self) -> bool {
        self.used >= self.capacity
    }

    /// The maximum allowed size of a single file.
    pub fn max_file_size(&self) -> u64 {
        self.max_file_size
    }

    /// Creates or truncates the file at `path` to `size` bytes.
    ///
    /// # Errors
    ///
    /// [`FsError::FileTooLarge`] if `size` exceeds the per-file limit;
    /// [`FsError::NoSpace`] if the net new allocation exceeds free space.
    /// On error nothing is changed.
    pub fn write(&mut self, path: impl Into<String>, size: u64) -> Result<(), FsError> {
        let path = path.into();
        let old = self.files.get(&path).map(|m| m.size).unwrap_or(0);
        self.used = used_after(self.used, self.capacity, self.max_file_size, old, size)?;
        let owner = self.files.get(&path).map(|m| m.owner).unwrap_or(0);
        self.files.insert(path, FileMeta { size, owner });
        Ok(())
    }

    /// Appends `bytes` to the file at `path`, creating it if absent. Only
    /// creating the file allocates its path; growing one allocates nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VirtualFs::write`], evaluated against the
    /// resulting size.
    pub fn append(&mut self, path: impl AsRef<str>, bytes: u64) -> Result<(), FsError> {
        let path = path.as_ref();
        let Some(file) = self.files.get_mut(path) else {
            return self.write(path, bytes);
        };
        let size = file.size.saturating_add(bytes);
        self.used = used_after(self.used, self.capacity, self.max_file_size, file.size, size)?;
        file.size = size;
        Ok(())
    }

    /// Removes the file at `path`, reclaiming its space.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if no such file exists.
    pub fn remove(&mut self, path: &str) -> Result<FileMeta, FsError> {
        match self.files.remove(path) {
            Some(meta) => {
                self.used -= meta.size;
                Ok(meta)
            }
            None => Err(FsError::NotFound(path.to_owned())),
        }
    }

    /// Removes every file whose path starts with `prefix`; returns the
    /// number of files removed. Used by the applications' disk caches.
    pub(crate) fn remove_prefix(&mut self, prefix: &str) -> usize {
        let doomed: Vec<String> = self
            .files
            .range(prefix.to_owned()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.clone())
            .collect();
        for p in &doomed {
            let meta = self.files.remove(p).expect("listed file exists");
            self.used -= meta.size;
        }
        doomed.len()
    }

    /// Metadata of the file at `path`, if present.
    pub fn stat(&self, path: &str) -> Option<&FileMeta> {
        self.files.get(path)
    }

    /// Sets the owner field of an existing file. Setting `u32::MAX` models
    /// the GNOME corpus's illegal-owner corruption.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if no such file exists.
    pub fn set_owner(&mut self, path: &str, owner: u32) -> Result<(), FsError> {
        match self.files.get_mut(path) {
            Some(meta) => {
                meta.owner = owner;
                Ok(())
            }
            None => Err(FsError::NotFound(path.to_owned())),
        }
    }

    /// Reads a file's metadata, failing if the owner field is illegal —
    /// models the GNOME file manager crashing on a corrupt owner field.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] or [`FsError::CorruptMetadata`].
    pub fn stat_checked(&self, path: &str) -> Result<&FileMeta, FsError> {
        let meta = self.stat(path).ok_or_else(|| FsError::NotFound(path.to_owned()))?;
        if meta.owner_is_illegal() {
            Err(FsError::CorruptMetadata(path.to_owned()))
        } else {
            Ok(meta)
        }
    }

    /// Iterates over `(path, metadata)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FileMeta)> {
        self.files.iter().map(|(p, m)| (p.as_str(), m))
    }

    /// Removes every external ballast file written by
    /// [`VirtualFs::fill_with_ballast`], returning the number of files
    /// reclaimed. The environment-scrubbing hook for disk-full conditions:
    /// an operator deleting the *other* program's files — application data
    /// (logs, caches, databases) is deliberately untouched, because a
    /// generic recovery has no licence to delete it either.
    pub(crate) fn scrub_ballast(&mut self) -> usize {
        self.remove_prefix("!ballast/")
    }

    /// Fills the filesystem to capacity with an external ballast file,
    /// modelling another program consuming the disk.
    pub fn fill_with_ballast(&mut self) {
        let free = self.free();
        if free > 0 {
            // Ballast may exceed max_file_size conceptually; bypass the
            // per-file limit by spreading across numbered ballast files.
            let mut remaining = free;
            let mut i = 0;
            while remaining > 0 {
                let chunk = remaining.min(self.max_file_size);
                let path = format!("!ballast/{i}");
                let meta = FileMeta { size: chunk, owner: 0 };
                self.used += chunk;
                self.files.insert(path, meta);
                remaining -= chunk;
                i += 1;
            }
        }
    }
}

/// The bytes in use once a file of `old` bytes becomes `size` bytes, with
/// `used` of `capacity` in use and files limited to `max_file_size`; or why
/// the file may not change.
fn used_after(
    used: u64,
    capacity: u64,
    max_file_size: u64,
    old: u64,
    size: u64,
) -> Result<u64, FsError> {
    if size > max_file_size {
        return Err(FsError::FileTooLarge { would_be: size, max: max_file_size });
    }
    let (grow, free) = (size.saturating_sub(old), capacity - used);
    if grow > free {
        return Err(FsError::NoSpace { requested: grow, free });
    }
    Ok(used - old + size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> VirtualFs {
        VirtualFs::new(1000, 400)
    }

    #[test]
    fn write_and_accounting() {
        let mut f = fs();
        f.write("a", 100).unwrap();
        f.write("b", 200).unwrap();
        assert_eq!(f.used(), 300);
        assert_eq!(f.free(), 700);
        assert_eq!(f.iter().count(), 2);
        // Truncate shrinks usage.
        f.write("b", 50).unwrap();
        assert_eq!(f.used(), 150);
    }

    #[test]
    fn no_space_error_and_atomicity() {
        let mut f = VirtualFs::new(100, 1000);
        f.write("a", 80).unwrap();
        let err = f.write("b", 30).unwrap_err();
        assert!(matches!(err, FsError::NoSpace { requested: 30, free: 20 }));
        assert_eq!(f.used(), 80, "failed write must not change state");
    }

    #[test]
    fn max_file_size_enforced() {
        let mut f = fs();
        assert!(matches!(
            f.write("big", 401),
            Err(FsError::FileTooLarge { would_be: 401, max: 400 })
        ));
        f.write("log", 300).unwrap();
        assert!(f.append("log", 101).is_err());
        f.append("log", 100).unwrap();
        assert_eq!(f.stat("log").unwrap().size, 400);
    }

    #[test]
    fn append_creates_missing_file() {
        let mut f = fs();
        f.append("fresh", 10).unwrap();
        assert_eq!(f.stat("fresh").unwrap().size, 10);
    }

    #[test]
    fn remove_reclaims_space() {
        let mut f = fs();
        f.write("a", 100).unwrap();
        let meta = f.remove("a").unwrap();
        assert_eq!(meta.size, 100);
        assert_eq!(f.used(), 0);
        assert!(matches!(f.remove("a"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn remove_prefix_clears_cache_dir() {
        let mut f = fs();
        f.write("cache/1", 10).unwrap();
        f.write("cache/2", 20).unwrap();
        f.write("logs/x", 30).unwrap();
        assert_eq!(f.remove_prefix("cache/"), 2);
        assert_eq!(f.used(), 30);
        assert_eq!(f.remove_prefix("cache/"), 0);
    }

    #[test]
    fn illegal_owner_detected() {
        let mut f = fs();
        f.write("doc", 5).unwrap();
        assert!(f.stat_checked("doc").is_ok());
        f.set_owner("doc", u32::MAX).unwrap();
        assert!(matches!(f.stat_checked("doc"), Err(FsError::CorruptMetadata(_))));
        assert!(f.stat("doc").unwrap().owner_is_illegal());
    }

    #[test]
    fn ballast_fills_to_capacity_across_chunks() {
        let mut f = VirtualFs::new(1000, 300);
        f.write("a", 100).unwrap();
        f.fill_with_ballast();
        assert!(f.is_full());
        assert_eq!(f.free(), 0);
        // 900 bytes of ballast in 300-byte chunks = 3 files.
        assert_eq!(f.iter().filter(|(p, _)| p.starts_with("!ballast/")).count(), 3);
    }

    #[test]
    fn scrub_ballast_reclaims_only_ballast() {
        let mut f = VirtualFs::new(1000, 300);
        f.write("logs/access", 100).unwrap();
        f.fill_with_ballast();
        assert!(f.is_full());
        assert_eq!(f.scrub_ballast(), 3);
        assert_eq!(f.used(), 100, "application files survive the scrub");
        assert!(f.stat("logs/access").is_some());
        assert_eq!(f.scrub_ballast(), 0, "second scrub finds nothing");
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            FsError::NoSpace { requested: 5, free: 2 }.to_string(),
            "no space on device: requested 5 bytes, 2 free"
        );
        assert!(FsError::NotFound("x".into()).to_string().contains("x"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        VirtualFs::new(0, 1);
    }
}
