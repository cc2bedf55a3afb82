//! Host-level configuration: hostname, removable hardware, signal routing.
//!
//! Backs three corpus triggers: "hostname of the machine was changed while
//! the application was running" (GNOME, nontransient), "removal of PCMCIA
//! network card from the computer" (Apache, nontransient), and the signal
//! behaviour behind "SIGHUP kills apache on Solaris and Unixware" and
//! MySQL's signal-masking race.

use std::fmt;

/// Signals the simulated kernel can deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Hang-up: conventionally asks a daemon to restart/rejuvenate.
    Hup,
    /// Termination request.
    Term,
    /// Immediate kill.
    Kill,
    /// User-defined signal used by the MySQL signal-masking race.
    Usr1,
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Signal::Hup => "SIGHUP",
            Signal::Term => "SIGTERM",
            Signal::Kill => "SIGKILL",
            Signal::Usr1 => "SIGUSR1",
        };
        f.write_str(s)
    }
}

/// A removable hardware component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HardwareComponent {
    /// The PCMCIA network card of the Apache corpus fault.
    PcmciaNic,
}

impl fmt::Display for HardwareComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardwareComponent::PcmciaNic => f.write_str("PCMCIA network card"),
        }
    }
}

/// Host configuration and hardware inventory.
///
/// # Example
///
/// ```
/// use faultstudy_env::host::{HardwareComponent, HostConfig};
///
/// let mut host = HostConfig::new("db1");
/// assert!(!host.hostname_changed());
/// host.set_hostname("db1-renamed");
/// assert!(host.hostname_changed());
/// host.remove_hardware(HardwareComponent::PcmciaNic);
/// assert!(!host.hardware_present(HardwareComponent::PcmciaNic));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostConfig {
    boot_hostname: String,
    hostname: String,
    nic_present: bool,
}

impl HostConfig {
    /// Creates a host with the given boot-time hostname and all hardware
    /// present.
    pub fn new(hostname: impl Into<String>) -> Self {
        let hostname = hostname.into();
        HostConfig { boot_hostname: hostname.clone(), hostname, nic_present: true }
    }

    /// The current hostname.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// Renames the host while applications are running.
    pub fn set_hostname(&mut self, name: impl Into<String>) {
        self.hostname = name.into();
    }

    /// Whether the hostname differs from the boot-time name — the GNOME
    /// corpus condition. Note this persists across generic recovery: the
    /// restored application still carries the old name in its state.
    pub fn hostname_changed(&self) -> bool {
        self.hostname != self.boot_hostname
    }

    /// Whether `component` is plugged in.
    pub fn hardware_present(&self, component: HardwareComponent) -> bool {
        match component {
            HardwareComponent::PcmciaNic => self.nic_present,
        }
    }

    /// Unplugs `component`.
    pub fn remove_hardware(&mut self, component: HardwareComponent) {
        match component {
            HardwareComponent::PcmciaNic => self.nic_present = false,
        }
    }

    /// Re-inserts `component` (an operator action; no recovery system does
    /// this, which is why hardware removal is nontransient).
    pub fn insert_hardware(&mut self, component: HardwareComponent) {
        match component {
            HardwareComponent::PcmciaNic => self.nic_present = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostname_change_detected_and_reversible() {
        let mut h = HostConfig::new("alpha");
        assert_eq!(h.hostname(), "alpha");
        h.set_hostname("beta");
        assert!(h.hostname_changed());
        h.set_hostname("alpha");
        assert!(!h.hostname_changed(), "renaming back clears the condition");
    }

    #[test]
    fn hardware_removal_and_reinsertion() {
        let mut h = HostConfig::new("x");
        assert!(h.hardware_present(HardwareComponent::PcmciaNic));
        h.remove_hardware(HardwareComponent::PcmciaNic);
        assert!(!h.hardware_present(HardwareComponent::PcmciaNic));
        h.insert_hardware(HardwareComponent::PcmciaNic);
        assert!(h.hardware_present(HardwareComponent::PcmciaNic));
    }

    #[test]
    fn signal_display_names() {
        assert_eq!(Signal::Hup.to_string(), "SIGHUP");
        assert_eq!(Signal::Kill.to_string(), "SIGKILL");
        assert_eq!(Signal::Term.to_string(), "SIGTERM");
        assert_eq!(Signal::Usr1.to_string(), "SIGUSR1");
    }
}
