//! A bounded process table with per-owner accounting and hang states.
//!
//! Backs the transient Apache triggers of §5.1: *"child processes hang
//! during peak load and consume all available slots in the process table"*
//! and *"hung child processes hang onto required network ports"*. Both are
//! classified environment-dependent-**transient** precisely because "as part
//! of automatic recovery, the recovery system is likely to kill all
//! processes associated with the application", clearing the condition.

use crate::environment::OwnerId;
use std::collections::BTreeMap;
use std::fmt;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Making progress.
    Running,
    /// Hung: holds its slot (and any ports) but does no work.
    Hung,
}

/// Error returned when no process-table slots remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcTableFull {
    /// The configured slot count.
    pub slots: u32,
}

impl fmt::Display for ProcTableFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "process table full ({} slots)", self.slots)
    }
}

impl std::error::Error for ProcTableFull {}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ProcEntry {
    owner: OwnerId,
    state: ProcState,
    ports: Vec<u16>,
}

/// The kernel's process table.
///
/// Owner registration also lives here so that one id namespace covers every
/// per-owner resource in the environment.
///
/// # Example
///
/// ```
/// use faultstudy_env::proctable::ProcessTable;
///
/// let mut t = ProcessTable::new(4);
/// let app = t.register_owner();
/// let child = t.spawn(app).unwrap();
/// t.hang(child).unwrap();
/// assert_eq!(t.kill_all_of(app), 1); // recovery kills app processes
/// assert_eq!(t.in_use(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessTable {
    slots: u32,
    next_pid: u32,
    next_owner: u32,
    procs: BTreeMap<Pid, ProcEntry>,
}

impl ProcessTable {
    /// Creates a table with `slots` process slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: u32) -> Self {
        assert!(slots > 0, "process table needs at least one slot");
        ProcessTable { slots, next_pid: 1, next_owner: 1, procs: BTreeMap::new() }
    }

    /// Registers an owner (an application or an external program) and
    /// returns its id.
    pub fn register_owner(&mut self) -> OwnerId {
        let id = OwnerId(self.next_owner);
        self.next_owner += 1;
        id
    }

    /// Total slots.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Slots currently occupied (running or hung).
    pub fn in_use(&self) -> u32 {
        self.procs.len() as u32
    }

    /// Whether no slots remain.
    pub(crate) fn is_full(&self) -> bool {
        self.in_use() >= self.slots
    }

    /// Spawns a process for `owner`.
    ///
    /// # Errors
    ///
    /// [`ProcTableFull`] if every slot is occupied.
    pub fn spawn(&mut self, owner: OwnerId) -> Result<Pid, ProcTableFull> {
        if self.is_full() {
            return Err(ProcTableFull { slots: self.slots });
        }
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid, ProcEntry { owner, state: ProcState::Running, ports: Vec::new() });
        Ok(pid)
    }

    /// Marks `pid` as hung. A hung process keeps its slot and ports.
    ///
    /// # Errors
    ///
    /// Returns `Err(pid)` if the process does not exist.
    pub fn hang(&mut self, pid: Pid) -> Result<(), Pid> {
        match self.procs.get_mut(&pid) {
            Some(e) => {
                e.state = ProcState::Hung;
                Ok(())
            }
            None => Err(pid),
        }
    }

    /// Removes `pid` from the table, freeing its slot and ports.
    ///
    /// # Errors
    ///
    /// Returns `Err(pid)` if the process does not exist.
    pub fn kill(&mut self, pid: Pid) -> Result<(), Pid> {
        self.procs.remove(&pid).map(|_| ()).ok_or(pid)
    }

    /// Kills every process belonging to `owner`; returns how many died.
    /// This is what a generic recovery system does on failover (§3).
    pub fn kill_all_of(&mut self, owner: OwnerId) -> u32 {
        let before = self.procs.len();
        self.procs.retain(|_, e| e.owner != owner);
        (before - self.procs.len()) as u32
    }

    /// Records that `pid` holds network `port`.
    ///
    /// # Errors
    ///
    /// Returns `Err(pid)` if the process does not exist.
    pub fn bind_port(&mut self, pid: Pid, port: u16) -> Result<(), Pid> {
        match self.procs.get_mut(&pid) {
            Some(e) => {
                if !e.ports.contains(&port) {
                    e.ports.push(port);
                }
                Ok(())
            }
            None => Err(pid),
        }
    }

    /// Whether any live process holds `port`.
    pub fn port_held(&self, port: u16) -> bool {
        self.procs.values().any(|e| e.ports.contains(&port))
    }

    /// State of `pid`, if it exists.
    pub fn state(&self, pid: Pid) -> Option<ProcState> {
        self.procs.get(&pid).map(|e| e.state)
    }

    /// Number of processes owned by `owner`, in any state.
    pub fn count_of(&self, owner: OwnerId) -> u32 {
        self.procs.values().filter(|e| e.owner == owner).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (ProcessTable, OwnerId) {
        let mut t = ProcessTable::new(4);
        let app = t.register_owner();
        (t, app)
    }

    #[test]
    fn spawn_until_full() {
        let (mut t, app) = table();
        for _ in 0..4 {
            t.spawn(app).unwrap();
        }
        assert!(t.is_full());
        assert_eq!(t.spawn(app).unwrap_err(), ProcTableFull { slots: 4 });
    }

    #[test]
    fn owners_get_distinct_ids() {
        let (mut t, app) = table();
        assert_ne!(app, t.register_owner());
    }

    #[test]
    fn hang_keeps_slot_and_ports() {
        let (mut t, app) = table();
        let a = t.spawn(app).unwrap();
        t.bind_port(a, 80).unwrap();
        t.hang(a).unwrap();
        assert_eq!(t.state(a), Some(ProcState::Hung));
        assert!(t.port_held(80), "hung process still holds its port");
        assert_eq!(t.in_use(), 1, "a hung process still consumes its slot");
    }

    #[test]
    fn kill_all_of_clears_owner_only() {
        let (mut t, app) = table();
        let ext = t.register_owner();
        let a = t.spawn(app).unwrap();
        t.bind_port(a, 8080).unwrap();
        t.hang(a).unwrap();
        t.spawn(app).unwrap();
        t.spawn(ext).unwrap();
        assert_eq!(t.kill_all_of(app), 2);
        assert_eq!(t.count_of(app), 0);
        assert_eq!(t.count_of(ext), 1);
        assert!(!t.port_held(8080), "recovery freed the hung child's port");
    }

    #[test]
    fn kill_unknown_pid_errors() {
        let (mut t, _) = table();
        assert_eq!(t.kill(Pid(42)), Err(Pid(42)));
        assert_eq!(t.hang(Pid(42)), Err(Pid(42)));
        assert_eq!(t.bind_port(Pid(42), 1), Err(Pid(42)));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        ProcessTable::new(0);
    }
}
