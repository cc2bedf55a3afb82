//! A bounded file-descriptor table with per-owner accounting.
//!
//! Backs the fd-exhaustion triggers that appear in all three applications:
//! Apache's "lack of file descriptors", GNOME's sound utilities leaking
//! sockets (each open socket consumes a descriptor), and MySQL's shortage of
//! descriptors "due to competition between MySQL and a web server" (§5).
//! The table is a *kernel* resource: descriptors held by one owner reduce
//! what every other owner can open.

use crate::environment::OwnerId;
use std::collections::BTreeMap;
use std::fmt;

/// A file descriptor handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Error returned when the descriptor table is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdExhausted {
    /// The configured table size.
    pub limit: u32,
}

impl fmt::Display for FdExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file descriptor table exhausted (limit {})", self.limit)
    }
}

impl std::error::Error for FdExhausted {}

/// The kernel's file-descriptor table.
///
/// # Example
///
/// ```
/// use faultstudy_env::fdtable::FdTable;
/// use faultstudy_env::environment::OwnerId;
///
/// let mut t = FdTable::new(2);
/// let app = OwnerId(1);
/// let a = t.open(app).unwrap();
/// let _b = t.open(app).unwrap();
/// assert!(t.open(app).is_err());
/// t.close(a).unwrap();
/// assert!(t.open(app).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdTable {
    limit: u32,
    next: u32,
    open: BTreeMap<Fd, OwnerId>,
}

impl FdTable {
    /// Creates a table with room for `limit` simultaneously open descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: u32) -> Self {
        assert!(limit > 0, "fd limit must be positive");
        FdTable { limit, next: 0, open: BTreeMap::new() }
    }

    /// The configured table size.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Number of descriptors currently open across all owners.
    pub fn in_use(&self) -> u32 {
        self.open.len() as u32
    }

    /// Whether the table is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.in_use() >= self.limit
    }

    /// Opens a descriptor for `owner`.
    ///
    /// # Errors
    ///
    /// [`FdExhausted`] if the table is full.
    pub fn open(&mut self, owner: OwnerId) -> Result<Fd, FdExhausted> {
        if self.is_exhausted() {
            return Err(FdExhausted { limit: self.limit });
        }
        let fd = Fd(self.next);
        self.next += 1;
        self.open.insert(fd, owner);
        Ok(fd)
    }

    /// Closes `fd`.
    ///
    /// # Errors
    ///
    /// Returns `Err(fd)` if the descriptor is not open.
    pub fn close(&mut self, fd: Fd) -> Result<(), Fd> {
        self.open.remove(&fd).map(|_| ()).ok_or(fd)
    }

    /// Closes every descriptor held by `owner`; returns how many were closed.
    pub fn close_all_of(&mut self, owner: OwnerId) -> u32 {
        let before = self.open.len();
        self.open.retain(|_, o| *o != owner);
        (before - self.open.len()) as u32
    }

    /// Number of descriptors held by `owner`.
    pub fn held_by(&self, owner: OwnerId) -> u32 {
        self.open.values().filter(|o| **o == owner).count() as u32
    }

    /// Opens descriptors for `owner` until the table is exhausted; returns
    /// how many were opened. Models a competing program (the paper's web
    /// server racing MySQL for descriptors).
    pub fn exhaust_as(&mut self, owner: OwnerId) -> u32 {
        let mut n = 0;
        while self.open(owner).is_ok() {
            n += 1;
        }
        n
    }

    /// Closes every open descriptor regardless of owner; returns how many
    /// were closed. This is the explicit environment-scrubbing hook: an
    /// operator killing the competing descriptor hogs, something no generic
    /// recovery of the *application* can do on its own (§6 — restarting the
    /// app does not return descriptors held by other programs). Descriptor
    /// ids are still never reused afterwards.
    pub(crate) fn scrub(&mut self) -> u32 {
        let n = self.open.len() as u32;
        self.open.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP: OwnerId = OwnerId(1);
    const OTHER: OwnerId = OwnerId(2);

    #[test]
    fn open_until_exhausted() {
        let mut t = FdTable::new(3);
        for _ in 0..3 {
            t.open(APP).unwrap();
        }
        assert!(t.is_exhausted());
        assert_eq!(t.open(APP).unwrap_err(), FdExhausted { limit: 3 });
    }

    #[test]
    fn close_frees_slot_and_rejects_double_close() {
        let mut t = FdTable::new(1);
        let fd = t.open(APP).unwrap();
        t.close(fd).unwrap();
        assert_eq!(t.close(fd), Err(fd));
        assert!(t.open(APP).is_ok());
    }

    #[test]
    fn fds_are_never_reused() {
        let mut t = FdTable::new(2);
        let a = t.open(APP).unwrap();
        t.close(a).unwrap();
        let b = t.open(APP).unwrap();
        assert_ne!(a, b, "descriptor ids are unique per run");
    }

    #[test]
    fn per_owner_accounting_and_bulk_close() {
        let mut t = FdTable::new(10);
        for _ in 0..4 {
            t.open(APP).unwrap();
        }
        for _ in 0..3 {
            t.open(OTHER).unwrap();
        }
        assert_eq!(t.held_by(APP), 4);
        assert_eq!(t.held_by(OTHER), 3);
        assert_eq!(t.close_all_of(APP), 4);
        assert_eq!(t.held_by(APP), 0);
        assert_eq!(t.in_use(), 3);
    }

    #[test]
    fn exhaust_as_models_competition() {
        let mut t = FdTable::new(5);
        t.open(APP).unwrap();
        let grabbed = t.exhaust_as(OTHER);
        assert_eq!(grabbed, 4);
        assert!(t.is_exhausted());
        assert!(t.open(APP).is_err(), "app starved by competitor");
    }

    #[test]
    fn scrub_closes_everything_without_reusing_ids() {
        let mut t = FdTable::new(3);
        let before = t.open(APP).unwrap();
        t.open(OTHER).unwrap();
        t.exhaust_as(OTHER);
        assert!(t.is_exhausted());
        assert_eq!(t.scrub(), 3);
        assert_eq!(t.in_use(), 0);
        assert_eq!(t.held_by(OTHER), 0);
        let after = t.open(APP).unwrap();
        assert!(after.0 > before.0, "scrub must not recycle descriptor ids");
        // Scrubbing an empty table is a no-op.
        t.close(after).unwrap();
        assert_eq!(t.scrub(), 0);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            FdExhausted { limit: 7 }.to_string(),
            "file descriptor table exhausted (limit 7)"
        );
    }

    #[test]
    #[should_panic(expected = "fd limit must be positive")]
    fn zero_limit_rejected() {
        FdTable::new(0);
    }
}
