//! The 50 Apache faults of Table 1: 36 environment-independent, 7
//! environment-dependent-nontransient, 7 environment-dependent-transient.
//!
//! The 14 environment-dependent entries are the paper's own trigger
//! descriptions (§5.1), verbatim in spirit. The paper names five of the 36
//! environment-independent faults (`apache-ei-01` … `apache-ei-05`); the
//! remainder are reconstructed as plausible deterministic Apache bugs of
//! the era, which is the documented substitution in `DESIGN.md` — the
//! study's numbers depend only on the counts and the release distribution,
//! both of which match the paper exactly.

use crate::fault::CuratedFault;
use faultstudy_core::taxonomy::AppKind::Apache;
use faultstudy_env::condition::ConditionKind as C;

/// Apache's releases in study order (drives Figure 1's x-axis).
pub(crate) const RELEASES: &[&str] = &["1.2.4", "1.3.0", "1.3.4", "1.3.9"];

/// All 50 Apache entries.
pub(crate) static ENTRIES: &[CuratedFault] = &[
    // ------------------------- release 0: 1.2.4 -------------------------
    CuratedFault { slug: "apache-ei-01", app: Apache, title: "dies with a segfault when the submitted URL is very long", detail: "Overflow in the hash calculation when the URL exceeds the table width.", trigger: None, release_idx: 0, filed: (1998, 2) },
    CuratedFault { slug: "apache-ei-02", app: Apache, title: "SIGHUP kills apache on Solaris and Unixware", detail: "A HUP signal should gracefully restart the server but instead terminates it on these platforms.", trigger: None, release_idx: 0, filed: (1998, 3) },
    CuratedFault { slug: "apache-ei-03", app: Apache, title: "dumps core on Linux/PPC if handed a nonexistent URL", detail: "ap_log_rerror() uses a va_list variable twice without an intervening va_end/va_start combination.", trigger: None, release_idx: 0, filed: (1998, 3) },
    CuratedFault { slug: "apache-ei-04", app: Apache, title: "crashes when directory listing is on and the directory has zero entries", detail: "The palloc() call used in index_directory() does not handle size zero properly.", trigger: None, release_idx: 0, filed: (1998, 4) },
    CuratedFault { slug: "apache-edn-01", app: Apache, title: "server degrades and dies after hours of peak traffic", detail: "High load leads to an unknown resource leak in the server; restarting from a saved image brings the leak back.", trigger: Some(C::ResourceLeak), release_idx: 0, filed: (1998, 4) },
    CuratedFault { slug: "apache-edt-01", app: Apache, title: "requests fail when the name server misbehaves", detail: "A call to the Domain Name Service returns an error; this is likely to change when the DNS server is restarted.", trigger: Some(C::DnsError), release_idx: 0, filed: (1998, 5) },
    // ------------------------- release 1: 1.3.0 -------------------------
    CuratedFault { slug: "apache-ei-05", app: Apache, title: "shared memory usage exceeds 100 MBytes within 5 hours", detail: "When a HUP signal is then sent to rotate logs, the server freezes or dies.", trigger: None, release_idx: 1, filed: (1998, 6) },
    CuratedFault { slug: "apache-ei-06", app: Apache, title: "mod_rewrite segfaults on a rule with an empty substitution pattern", detail: "The substitution expander dereferences the first capture without checking the pattern length.", trigger: None, release_idx: 1, filed: (1998, 6) },
    CuratedFault { slug: "apache-ei-07", app: Apache, title: "proxy module crashes relaying a response with a folded header line", detail: "Continuation lines are joined into a buffer sized for the unfolded header only.", trigger: None, release_idx: 1, filed: (1998, 7) },
    CuratedFault { slug: "apache-ei-08", app: Apache, title: "child segfaults when a CGI script exits before reading its input", detail: "The POST body writer does not expect the pipe to close early.", trigger: None, release_idx: 1, filed: (1998, 7) },
    CuratedFault { slug: "apache-ei-09", app: Apache, title: "htpasswd corrupts the password file when invoked with no arguments", detail: "The usage path truncates the file before the argument check runs.", trigger: None, release_idx: 1, filed: (1998, 8) },
    CuratedFault { slug: "apache-ei-10", app: Apache, title: "mod_include loops forever on a truncated SSI directive", detail: "The directive scanner never advances past an unterminated quote.", trigger: None, release_idx: 1, filed: (1998, 8) },
    CuratedFault { slug: "apache-ei-11", app: Apache, title: "byte-range request for a zero-length resource aborts the child", detail: "Range arithmetic divides by the resource length.", trigger: None, release_idx: 1, filed: (1998, 9) },
    CuratedFault { slug: "apache-edn-02", app: Apache, title: "server stops accepting connections under sustained load", detail: "Failure is due to lack of file descriptors; a truly generic recovery restores the application's descriptors with its state.", trigger: Some(C::FdExhaustion), release_idx: 1, filed: (1998, 9) },
    CuratedFault { slug: "apache-edt-02", app: Apache, title: "server wedges at peak load and never recovers on its own", detail: "Child processes hang during peak load and consume all available slots in the process table.", trigger: Some(C::ProcessTableFull), release_idx: 1, filed: (1998, 10) },
    CuratedFault { slug: "apache-edt-03", app: Apache, title: "aborted page fetch leaves the server in a bad state", detail: "User presses stop on the browser in the midst of a page download; the fault depends on the exact timing of the requested workload.", trigger: Some(C::WorkloadTiming), release_idx: 1, filed: (1998, 10) },
    // ------------------------- release 2: 1.3.4 -------------------------
    CuratedFault { slug: "apache-ei-12", app: Apache, title: "mod_autoindex crashes sorting filenames with 8-bit characters", detail: "The comparison routine indexes a 128-entry collation table with a signed char.", trigger: None, release_idx: 2, filed: (1998, 11) },
    CuratedFault { slug: "apache-ei-13", app: Apache, title: "ErrorDocument pointing at itself sends the server into unbounded recursion", detail: "The internal redirect path has no recursion guard for self-referential error documents.", trigger: None, release_idx: 2, filed: (1998, 11) },
    CuratedFault { slug: "apache-ei-14", app: Apache, title: "crash when a .htaccess file contains a Limit section with no method", detail: "The section parser pops an empty method list.", trigger: None, release_idx: 2, filed: (1998, 12) },
    CuratedFault { slug: "apache-ei-15", app: Apache, title: "mod_cgi deadlocks on scripts emitting large diagnostics", detail: "stderr is drained only after stdout closes, so a chatty script fills the pipe and blocks.", trigger: None, release_idx: 2, filed: (1998, 12) },
    CuratedFault { slug: "apache-ei-16", app: Apache, title: "chunked request with a zero-size trailing chunk aborts the connection handler", detail: "The trailer reader treats the terminating chunk as a protocol error and calls abort().", trigger: None, release_idx: 2, filed: (1999, 1) },
    CuratedFault { slug: "apache-ei-17", app: Apache, title: "mod_negotiation dereferences a null map entry for an empty variant list", detail: "A type map with headers but no variants yields a best-match of NULL.", trigger: None, release_idx: 2, filed: (1999, 1) },
    CuratedFault { slug: "apache-ei-18", app: Apache, title: "dumps core parsing a Host header containing a colon but no value", detail: "The port substring is handed to atoi() with a length of zero and the result indexes a table.", trigger: None, release_idx: 2, filed: (1999, 2) },
    CuratedFault { slug: "apache-ei-19", app: Apache, title: "keepalive counter wraps after 32768 requests on one connection", detail: "The per-connection counter is a signed short; wrapping trips a bus error in the scoreboard update.", trigger: None, release_idx: 2, filed: (1999, 2) },
    CuratedFault { slug: "apache-ei-20", app: Apache, title: "mod_status emits a corrupt page when the scoreboard contains an unused slot", detail: "Unused slots carry uninitialized worker records that the formatter prints.", trigger: None, release_idx: 2, filed: (1999, 3) },
    CuratedFault { slug: "apache-ei-21", app: Apache, title: "Allow directive with an IPv6-style address segfaults the parser", detail: "The dotted-quad scanner reads past the colon-separated token.", trigger: None, release_idx: 2, filed: (1999, 3) },
    CuratedFault { slug: "apache-ei-22", app: Apache, title: "mod_mime crashes on an AddType directive with a wildcard extension", detail: "The extension table hashes the literal '*' to an out-of-range bucket.", trigger: None, release_idx: 2, filed: (1999, 4) },
    CuratedFault { slug: "apache-edn-03", app: Apache, title: "temporary objects can no longer be written and requests fail", detail: "The disk cache used by the application gets full and the application cannot store any more temporary files.", trigger: Some(C::DiskCacheFull), release_idx: 2, filed: (1999, 4) },
    CuratedFault { slug: "apache-edn-04", app: Apache, title: "logging stops and the server exits during rotation", detail: "The size of the log file is greater than the maximum allowed file size.", trigger: Some(C::MaxFileSize), release_idx: 2, filed: (1999, 4) },
    CuratedFault { slug: "apache-edt-04", app: Apache, title: "restart fails because the listening sockets cannot be re-acquired", detail: "Hung child processes hang onto required network ports; they will likely be killed during recovery and the ports freed.", trigger: Some(C::PortsHeldByChildren), release_idx: 2, filed: (1999, 4) },
    CuratedFault { slug: "apache-edt-05", app: Apache, title: "lookups stall and requests time out intermittently", detail: "Slow DNS response; the cause will likely be fixed eventually by restarting the name server or fixing the network.", trigger: Some(C::DnsSlow), release_idx: 2, filed: (1999, 4) },
    // ------------------------- release 3: 1.3.9 -------------------------
    CuratedFault { slug: "apache-ei-23", app: Apache, title: "trailing backslash at end of configuration file reads past the buffer", detail: "The line-continuation scanner dereferences one byte beyond the final newline.", trigger: None, release_idx: 3, filed: (1999, 5) },
    CuratedFault { slug: "apache-ei-24", app: Apache, title: "mod_alias applies the wrong mapping when two aliases share a prefix, then aborts", detail: "The match-length bookkeeping underflows for the shorter alias.", trigger: None, release_idx: 3, filed: (1999, 5) },
    CuratedFault { slug: "apache-ei-25", app: Apache, title: "suexec kills valid requests with an assertion failure", detail: "The uid range check inverts its comparison for uids above 2^16.", trigger: None, release_idx: 3, filed: (1999, 6) },
    CuratedFault { slug: "apache-ei-26", app: Apache, title: "crash when a request URI consists solely of escaped slashes", detail: "Path collapsing produces an empty segment list that the walker dereferences.", trigger: None, release_idx: 3, filed: (1999, 6) },
    CuratedFault { slug: "apache-ei-27", app: Apache, title: "If-Modified-Since header with a two-digit year aborts the date parser", detail: "The RFC 850 branch subtracts 1900 from an already two-digit year and indexes a month table with the result.", trigger: None, release_idx: 3, filed: (1999, 6) },
    CuratedFault { slug: "apache-ei-28", app: Apache, title: "mod_userdir crashes resolving a home directory for an empty user name", detail: "getpwnam() is called with a zero-length name and the NULL result is not checked.", trigger: None, release_idx: 3, filed: (1999, 7) },
    CuratedFault { slug: "apache-ei-29", app: Apache, title: "server exits with a bus error when the configured MIME types file is empty", detail: "The first-line parser reads the type token from an empty buffer.", trigger: None, release_idx: 3, filed: (1999, 7) },
    CuratedFault { slug: "apache-ei-30", app: Apache, title: "Redirect directive with a status code of 0 crashes the config post-processor", detail: "Status 0 selects the undefined entry of the redirect table.", trigger: None, release_idx: 3, filed: (1999, 7) },
    CuratedFault { slug: "apache-ei-31", app: Apache, title: "mod_log_config corrupts the heap formatting a negative response size", detail: "The %b formatter allocates by digit count computed from an unsigned cast.", trigger: None, release_idx: 3, filed: (1999, 8) },
    CuratedFault { slug: "apache-ei-32", app: Apache, title: "authentication realm string of 256 characters overruns a stack buffer", detail: "The WWW-Authenticate assembler copies the realm into a fixed 256-byte frame including the quotes.", trigger: None, release_idx: 3, filed: (1999, 8) },
    CuratedFault { slug: "apache-ei-33", app: Apache, title: "crash on OPTIONS request for a proxied URL", detail: "The proxy handler assumes a filename-based request record and dereferences a NULL path.", trigger: None, release_idx: 3, filed: (1999, 9) },
    CuratedFault { slug: "apache-ei-34", app: Apache, title: "parent segfaults when MaxClients is lowered below the number of running children", detail: "The reaper indexes the old, larger scoreboard with the new limit.", trigger: None, release_idx: 3, filed: (1999, 9) },
    CuratedFault { slug: "apache-ei-35", app: Apache, title: "mod_env dumps core when PassEnv names an unset variable", detail: "The NULL result of getenv() is handed to the table merger.", trigger: None, release_idx: 3, filed: (1999, 10) },
    CuratedFault { slug: "apache-ei-36", app: Apache, title: "multiline configuration directive continued with a tab aborts startup parsing", detail: "The continuation detector accepts only a space and treats the tab line as a new directive mid-token.", trigger: None, release_idx: 3, filed: (1999, 10) },
    CuratedFault { slug: "apache-edn-05", app: Apache, title: "all writes fail and the server shuts down", detail: "A full file system prevents any further operation until space is manually reclaimed.", trigger: Some(C::FileSystemFull), release_idx: 3, filed: (1999, 8) },
    CuratedFault { slug: "apache-edn-06", app: Apache, title: "connections drop after days of uptime", detail: "An unknown network resource is exhausted in the kernel; only a reboot replenishes it.", trigger: Some(C::NetworkResourceExhausted), release_idx: 3, filed: (1999, 9) },
    CuratedFault { slug: "apache-edn-07", app: Apache, title: "server dies when the laptop's network interface disappears", detail: "Removal of the PCMCIA network card from the computer takes the interface away beneath the listener.", trigger: Some(C::HardwareRemoved), release_idx: 3, filed: (1999, 9) },
    CuratedFault { slug: "apache-edt-06", app: Apache, title: "responses crawl and the server is flagged dead by monitors", detail: "A slow network connection delays every transfer; the network may be fixed by the time the server recovers.", trigger: Some(C::NetworkSlow), release_idx: 3, filed: (1999, 10) },
    CuratedFault { slug: "apache-edt-07", app: Apache, title: "SSL startup blocks and the server fails its readiness check", detail: "Lack of events to generate sufficient random numbers in /dev/random; during recovery more events accumulate.", trigger: Some(C::EntropyExhausted), release_idx: 3, filed: (1999, 10) },
];

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::taxonomy::FaultClass;

    #[test]
    fn counts_match_table_1() {
        let ei = ENTRIES.iter().filter(|e| e.trigger.is_none()).count();
        let edn = ENTRIES
            .iter()
            .filter(|e| {
                e.trigger.is_some_and(|t| {
                    FaultClass::from_condition(Some(t)) == FaultClass::EnvDependentNonTransient
                })
            })
            .count();
        let edt = ENTRIES.len() - ei - edn;
        assert_eq!((ei, edn, edt), (36, 7, 7));
        assert_eq!(ENTRIES.len(), 50);
    }

    #[test]
    fn slugs_unique_and_release_indexes_valid() {
        let mut slugs: Vec<&str> = ENTRIES.iter().map(|e| e.slug).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), ENTRIES.len());
        assert!(ENTRIES.iter().all(|e| (e.release_idx as usize) < RELEASES.len()));
    }

    #[test]
    fn release_totals_increase_with_newer_releases() {
        let mut per_release = [0u32; 4];
        for e in ENTRIES {
            per_release[e.release_idx as usize] += 1;
        }
        assert_eq!(per_release, [6, 10, 15, 19], "figure 1 bar totals");
        assert!(per_release.windows(2).all(|w| w[0] < w[1]));
    }
}
