//! The crash-only component model \[Candea03\].
//!
//! The paper's whole-process recovery is too blunt for most faults: a
//! restart discards *every* piece of session state and pays the full
//! process boot latency to clear a condition that usually lives in one
//! subsystem. Microreboot asks the follow-up question — what if the
//! application is partitioned into components that are individually safe
//! to crash? This crate holds the model that question needs, and nothing
//! else:
//!
//! - [`StateKind`] — the state taxonomy that decides whether a component
//!   may be crashed at all: state that is free to discard
//!   ([`StateKind::Volatile`]), state that can be reconstructed from
//!   durable ground truth at boot ([`StateKind::DurableSoft`]), and state
//!   whose loss is unrecoverable ([`StateKind::DurableHard`]).
//! - [`ComponentDesc`] — one node of the component tree: name, state
//!   kind, boot cost in simulated time, and parent edge.
//! - [`CrashOnly`] — the contract an application exposes to a
//!   microrebooting supervisor: route a request to the component that
//!   serves it, crash a component (discarding only its volatile state),
//!   and boot it back from whatever durable state survived.
//!
//! The recovery side — the per-component restart tree with backoff,
//! breakers and escalation — lives in `faultstudy-recovery`; this crate
//! deliberately knows nothing about strategies so applications can
//! implement [`CrashOnly`] without depending on the recovery stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use faultstudy_env::Environment;
use faultstudy_sim::time::Duration;
use std::fmt;

/// How a component's state relates to a crash of that component.
///
/// The taxonomy is the crash-only design rule made explicit: a component
/// is safe to microreboot exactly when everything it would lose is either
/// disposable or reconstructible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// All state is disposable (request scratch, caches of caches, leaked
    /// allocations). Crashing loses nothing a fresh boot cannot live
    /// without — the ideal microreboot target.
    Volatile,
    /// State is backed by durable ground truth (a disk cache, an index
    /// over files): the crash discards the in-memory copy and boot
    /// rebuilds it lazily. Slightly costlier to reboot, still safe.
    DurableSoft,
    /// State that cannot be reconstructed by any generic mechanism
    /// (committed tables, the write-ahead log, session identity). A
    /// crash-only supervisor must never discard it: faults here escalate
    /// straight to a whole-process reboot, which restores a checkpoint
    /// instead of discarding.
    DurableHard,
}

impl StateKind {
    /// Whether a microreboot may crash a component of this kind.
    pub fn crashable(self) -> bool {
        !matches!(self, StateKind::DurableHard)
    }
}

/// One node of an application's component tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentDesc {
    /// Stable component name, unique across all applications (used as a
    /// metrics label).
    pub name: &'static str,
    /// The component's state taxonomy entry.
    pub state_kind: StateKind,
    /// Simulated time a reboot of this component costs. Orders of
    /// magnitude below a whole-process restart — that gap is the entire
    /// economic argument for microreboot.
    pub boot_cost: Duration,
    /// Index of the parent component; `None` for the single root. Parents
    /// always precede children (`parent < index`), which makes subtree
    /// traversal a forward scan.
    pub parent: Option<usize>,
}

/// A topology rule the component slice violates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError(String);

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid component topology: {}", self.0)
    }
}

impl std::error::Error for TopologyError {}

/// Checks the component-tree invariants: non-empty, exactly one root at
/// index 0, every parent precedes its child, and names are unique.
///
/// # Errors
///
/// [`TopologyError`] describing the first violated rule.
pub fn validate_topology(components: &[ComponentDesc]) -> Result<(), TopologyError> {
    if components.is_empty() {
        return Err(TopologyError("no components".into()));
    }
    for (index, c) in components.iter().enumerate() {
        match c.parent {
            None if index != 0 => {
                return Err(TopologyError(format!("second root at index {index} ({})", c.name)));
            }
            Some(p) if p >= index => {
                return Err(TopologyError(format!(
                    "parent {p} does not precede child {index} ({})",
                    c.name
                )));
            }
            _ => {}
        }
        if components[..index].iter().any(|other| other.name == c.name) {
            return Err(TopologyError(format!("duplicate component name {}", c.name)));
        }
    }
    Ok(())
}

/// Whether `ancestor` is on the parent chain of `index` (a component is
/// its own ancestor).
pub(crate) fn is_ancestor(components: &[ComponentDesc], ancestor: usize, index: usize) -> bool {
    let mut cursor = Some(index);
    while let Some(i) = cursor {
        if i == ancestor {
            return true;
        }
        cursor = components[i].parent;
    }
    false
}

/// The indices of `root`'s subtree (including `root`), in index order —
/// which, because parents precede children, is also a valid boot order.
pub fn subtree(components: &[ComponentDesc], root: usize) -> Vec<usize> {
    (root..components.len()).filter(|&i| is_ancestor(components, root, i)).collect()
}

/// The crash-only contract an application exposes to a microrebooting
/// supervisor.
///
/// The supervisor owns *when* to crash and *how far* to escalate; the
/// application owns *what* each crash discards. The one inviolable rule —
/// what makes the design crash-only — is that [`CrashOnly::crash_component`]
/// touches nothing durable: committed data, the write-ahead log, and
/// session identity survive every combination of component crashes. A
/// crash may (and should) release the operating-system resources the
/// component's work was holding: its descriptors die with it, its child
/// processes are reaped, its leaked allocations vanish with its address
/// range. That is precisely the state a checkpoint-restoring generic
/// recovery is *required* to preserve (§2 of the paper), which is where
/// the two mechanisms part ways.
pub trait CrashOnly {
    /// The application's component tree; must satisfy
    /// [`validate_topology`]. Static because the partition is a property
    /// of the program, not of any instance.
    fn components(&self) -> &'static [ComponentDesc];

    /// The component that serves a request with this body. Total: every
    /// body maps to some component, so a failure is always attributable.
    fn route(&self, body: &str) -> usize;

    /// Crashes component `index`: discards its volatile state and
    /// releases the resources it held. Must not touch durable state.
    fn crash_component(&mut self, index: usize, env: &mut Environment);

    /// Boots component `index` back up, reconstructing soft state from
    /// durable ground truth. The simulated boot latency is charged by the
    /// caller from [`ComponentDesc::boot_cost`]; this hook performs the
    /// state reconstruction only.
    fn boot_component(&mut self, index: usize, env: &mut Environment);
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn comp(
        name: &'static str,
        state_kind: StateKind,
        parent: Option<usize>,
    ) -> ComponentDesc {
        ComponentDesc { name, state_kind, boot_cost: Duration::from_millis(10), parent }
    }

    const TREE: [ComponentDesc; 4] = [
        comp("root", StateKind::Volatile, None),
        comp("left", StateKind::Volatile, Some(0)),
        comp("leaf", StateKind::DurableSoft, Some(1)),
        comp("right", StateKind::DurableHard, Some(0)),
    ];

    #[test]
    fn valid_tree_passes() {
        validate_topology(&TREE).unwrap();
    }

    #[test]
    fn empty_tree_is_rejected() {
        assert!(validate_topology(&[]).is_err());
    }

    #[test]
    fn second_root_is_rejected() {
        let bad = [comp("a", StateKind::Volatile, None), comp("b", StateKind::Volatile, None)];
        let err = validate_topology(&bad).unwrap_err();
        assert!(err.to_string().contains("second root"));
    }

    #[test]
    fn forward_parent_edge_is_rejected() {
        let bad = [comp("a", StateKind::Volatile, None), comp("b", StateKind::Volatile, Some(1))];
        assert!(validate_topology(&bad).is_err());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let bad = [comp("a", StateKind::Volatile, None), comp("a", StateKind::Volatile, Some(0))];
        let err = validate_topology(&bad).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn ancestry_follows_parent_edges() {
        assert!(is_ancestor(&TREE, 0, 2), "root is everyone's ancestor");
        assert!(is_ancestor(&TREE, 1, 2));
        assert!(is_ancestor(&TREE, 2, 2), "a component is its own ancestor");
        assert!(!is_ancestor(&TREE, 1, 3));
        assert!(!is_ancestor(&TREE, 2, 1), "ancestry is directional");
    }

    #[test]
    fn subtrees_are_in_boot_order() {
        assert_eq!(subtree(&TREE, 0), vec![0, 1, 2, 3]);
        assert_eq!(subtree(&TREE, 1), vec![1, 2]);
        assert_eq!(subtree(&TREE, 3), vec![3]);
    }

    #[test]
    fn state_kinds_know_crashability() {
        assert!(StateKind::Volatile.crashable());
        assert!(StateKind::DurableSoft.crashable());
        assert!(!StateKind::DurableHard.crashable());
    }
}
