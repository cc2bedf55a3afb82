//! The aggregate operating environment and its retry semantics.
//!
//! [`Environment`] bundles every environmental resource into one value with
//! a shared logical clock. Two methods encode the paper's central reasoning:
//!
//! - [`Environment::advance`] — natural dynamics. DNS and network failures
//!   self-repair once their deadline passes, the entropy pool refills, and
//!   the scheduler's timing (interleave seed) drifts. These are the changes
//!   that make *environment-dependent-transient* faults disappear on retry.
//! - [`Environment::on_generic_recovery`] — what a purely application-
//!   generic recovery system does: it kills every process associated with
//!   the application (freeing process-table slots and ports held by hung
//!   children) and then restores *all* application state from the
//!   checkpoint — including the application's claim on file descriptors and
//!   disk space, which is why resource-leak conditions persist (§3, §5.1).

use crate::condition::ConditionKind;
use crate::dns::{DnsHealth, DnsService};
use crate::entropy::EntropyPool;
use crate::fdtable::FdTable;
use crate::fs::VirtualFs;
use crate::host::HostConfig;
use crate::network::{LinkQuality, Network};
use crate::proctable::ProcessTable;
use crate::witness::{DecidingRead, ReadLog, SeedSource};
use faultstudy_obs::Metrics;
use faultstudy_sim::rng::{DetRng, Xoshiro256StarStar};
use faultstudy_sim::sched::{Interleaver, RaceGadget};
use faultstudy_sim::time::{Clock, Duration, SimTime};
use std::fmt;

/// Identifies a resource owner (an application or an external program)
/// across every per-owner table in the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OwnerId(pub u32);

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "owner#{}", self.0)
    }
}

/// The complete simulated operating environment.
///
/// Subsystems are public fields: the environment is a passive compound
/// value in the C-struct spirit, and the applications reach into the
/// subsystem they need (`env.fds.open(..)`, `env.fs.append(..)`), exactly
/// as real programs call into distinct kernel facilities.
#[derive(Debug, Clone)]
pub struct Environment {
    /// The shared logical clock.
    pub clock: Clock,
    /// Virtual filesystem.
    pub fs: VirtualFs,
    /// Kernel file-descriptor table.
    pub fds: FdTable,
    /// Kernel process table (also the owner registry).
    pub procs: ProcessTable,
    /// DNS service.
    pub dns: DnsService,
    /// Network link and opaque resource pool.
    pub net: Network,
    /// `/dev/random` entropy pool.
    pub entropy: EntropyPool,
    /// Hostname and hardware inventory.
    pub host: HostConfig,
    /// Deterministic metrics sink; disabled unless the builder opted in.
    /// Everything recorded here is measured in simulated time, so an
    /// instrumented run computes exactly what an uninstrumented one does.
    pub metrics: Metrics,
    rng: Xoshiro256StarStar,
    /// The interleave seed as of the last draw made from `rng`, or the
    /// value forced since.
    interleave_seed: u64,
    /// Draws from `rng` owed to `interleave_seed`: counted where time
    /// passes or a reshuffle asks, made only when a reader needs the seed.
    owed: u64,
    /// Draws made from `rng` so far.
    drawn: u64,
    /// Whether `interleave_seed` was forced after the last draw.
    forced: bool,
    /// Every read of a seed-derived value; see [`Environment::read_log`].
    reads: ReadLog,
}

/// How long one generic recovery (detect, kill, restore, restart) takes.
const RECOVERY_TAKES: Duration = Duration::from_secs(1);
/// DNS lookup latency while healthy and while slow.
const DNS_NORMAL: Duration = Duration::from_millis(2);
const DNS_SLOW: Duration = Duration::from_secs(5);
/// Network latency while healthy and while congested.
const NET_NORMAL: Duration = Duration::from_millis(1);
const NET_SLOW: Duration = Duration::from_secs(2);
/// Size of the network's opaque resource pool.
const NET_RESOURCE_LIMIT: u32 = 1024;
/// Entropy pool capacity in bits and refill rate in bits per second.
const ENTROPY_BITS: u64 = 4096;
const ENTROPY_RATE: u64 = 256;
/// Boot-time hostname.
const HOSTNAME: &str = "sim-host";

impl Environment {
    /// Starts configuring an environment.
    pub fn builder() -> EnvironmentBuilder {
        EnvironmentBuilder::default()
    }

    /// Registers a resource owner and returns its id.
    pub fn register_owner(&mut self) -> OwnerId {
        self.procs.register_owner()
    }

    /// The current instant.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advances simulated time by `d`. All lazily-healing subsystems (DNS,
    /// network, entropy) observe the new time on their next query, and the
    /// thread-scheduler timing drifts to a new interleave seed.
    ///
    /// A non-zero advance owes one draw from the randomness stream to the
    /// interleave seed. The draw is made only when a reader needs the
    /// seed, so a run that never reads it makes none.
    pub fn advance(&mut self, d: Duration) {
        self.clock.advance(d);
        if d > Duration::ZERO {
            self.owed += 1;
        }
    }

    /// Makes the owed draws, in order, leaving the interleave seed what
    /// drawing on every advance and reshuffle would have left it.
    fn settle(&mut self) {
        if self.owed == 0 {
            return;
        }
        for _ in 0..self.owed {
            self.interleave_seed = self.rng.next_u64();
        }
        self.drawn += self.owed;
        self.owed = 0;
        self.forced = false;
    }

    /// Runs `gadget` under the scheduler interleaving the *current*
    /// environment imposes on concurrent tasks: the one deciding read of
    /// the interleave seed. Distinct calls between
    /// [`Environment::advance`]s see the same seed — a fixed environment
    /// is deterministic; the seed only drifts when time passes (§3's
    /// clock-interrupt timing).
    ///
    /// The read reduces the seed to the gadget's verdict, and the
    /// environment logs where the seed came from with the gadget and the
    /// verdict ([`Environment::read_log`]). Logging allocates nothing.
    ///
    /// # Example
    ///
    /// ```
    /// use faultstudy_env::Environment;
    /// use faultstudy_sim::sched::RaceGadget;
    ///
    /// let mut env = Environment::builder().seed(3).build();
    /// env.force_interleave_seed(RaceGadget::default().crashing_seed());
    /// assert!(env.race(RaceGadget::default()).is_err());
    /// assert_eq!(env.read_log().reads().count(), 1);
    /// ```
    pub fn race(&mut self, gadget: RaceGadget) -> Result<(), &'static str> {
        self.settle();
        let source = if self.forced {
            SeedSource::Forced(self.interleave_seed)
        } else {
            SeedSource::Drawn(self.drawn)
        };
        let verdict = gadget.run(Interleaver::Seeded(self.interleave_seed));
        self.reads.push(DecidingRead { source, gadget }, verdict.is_err());
        verdict
    }

    /// The scheduler interleaving the *current* environment would impose on
    /// concurrent tasks, as [`Environment::race`] sees it: the crate's unit
    /// tests read the seed here.
    ///
    /// This raw read hands out the seed itself, which can reach anything,
    /// so it marks the [`Environment::read_log`] opaque.
    #[cfg(test)]
    pub(crate) fn current_interleaving(&mut self) -> Interleaver {
        self.settle();
        self.reads.mark_opaque();
        Interleaver::Seeded(self.interleave_seed)
    }

    /// Overrides the interleave seed; used by fault injection to arm a
    /// race's crashing interleaving, and by tests. The owed draws are made
    /// first, so the stream stays where drawing eagerly would leave it.
    /// A read of the forced value is the same under every seed, and the
    /// log says so ([`SeedSource::Forced`]).
    pub fn force_interleave_seed(&mut self, seed: u64) {
        self.settle();
        self.interleave_seed = seed;
        self.forced = true;
    }

    /// Owes a fresh interleave seed from the environment's randomness
    /// stream — the draw [`Environment::advance`] owes when time passes —
    /// without moving the clock: the progressive retry strategy's
    /// message-reordering perturbation \[Wang93\].
    pub fn reshuffle_interleaving(&mut self) {
        self.owed += 1;
    }

    /// Every read of a seed-derived value so far: the seed witness.
    ///
    /// The builder's seed reaches nothing but the randomness stream and
    /// the interleave seed, and only [`Environment::race`] reads either
    /// (the crate's unit tests also read the interleave seed raw, which
    /// marks the log opaque). So a run whose log ends
    /// [blind](ReadLog::is_blind) would have executed identically under
    /// every seed, and a run whose log is
    /// [complete](ReadLog::is_complete) executes identically under every
    /// seed that gives its reads the same verdicts. The sampled campaign
    /// reuses outcomes on both grounds (DESIGN.md §13).
    ///
    /// The witness covers this one value: a clone carries a log of its
    /// own, and the derived `Debug` prints the seed-derived state without
    /// logging a read. Outside tests, nothing clones an environment or
    /// formats one.
    pub fn read_log(&self) -> &ReadLog {
        &self.reads
    }

    /// How long one generic recovery (detect, kill, restore, restart) takes.
    pub fn recovery_takes(&self) -> Duration {
        RECOVERY_TAKES
    }

    /// Applies the environmental side effects of one application-generic
    /// recovery of `app`, then advances time by the recovery latency.
    ///
    /// Effects, straight from the paper's reasoning (§3, §5.1):
    ///
    /// - every process associated with the application is killed, freeing
    ///   process-table slots and any ports hung children held;
    /// - *nothing else* owned by the application is released: a truly
    ///   generic mechanism restores all application state, so leaked file
    ///   descriptors and consumed disk space come straight back;
    /// - external state (DNS configuration, hostname, hardware, other
    ///   programs' resources) is untouched;
    /// - simulated time advances, letting naturally-healing conditions heal.
    ///
    /// Returns the number of processes killed.
    pub fn on_generic_recovery(&mut self, app: OwnerId) -> u32 {
        let killed = self.procs.kill_all_of(app);
        self.advance(RECOVERY_TAKES);
        killed
    }

    /// Scrubs the environment: clears the non-transient resource conditions
    /// an *operator* (not a generic recovery) could clear by hand — deletes
    /// external ballast files, closes every descriptor in the kernel table,
    /// refills the entropy pool, and reboots the opaque network resource
    /// pool. Returns the number of scrub actions that actually changed
    /// something.
    ///
    /// Deliberately untouched: DNS server health, hostname, and hardware
    /// inventory (external infrastructure no local scrub can fix), and all
    /// application files (a scrub has no licence to delete application
    /// data). The paper's distinction survives the scrub: conditions that
    /// need this hook are exactly the environment-dependent-*nontransient*
    /// ones, which is why the supervisor exposes it as an explicit,
    /// policy-gated step rather than folding it into every recovery (§6).
    pub fn scrub(&mut self) -> u32 {
        let now = self.now();
        let mut actions = 0;
        if self.fs.scrub_ballast() > 0 {
            actions += 1;
        }
        if self.fds.scrub() > 0 {
            actions += 1;
        }
        if self.entropy.scrub(now) > 0 {
            actions += 1;
        }
        if self.net.resource_exhausted() {
            self.net.reboot_resources();
            actions += 1;
        }
        actions
    }

    /// Whether the given environmental condition currently holds, probing
    /// live subsystem state.
    ///
    /// Timing-class conditions ([`ConditionKind::RaceCondition`],
    /// [`ConditionKind::WorkloadTiming`], [`ConditionKind::UnknownTransient`])
    /// are properties of an execution, not of environment state, and always
    /// report `false` here; they are realised through
    /// [`Environment::race`] and the workload generator.
    pub fn holds(&self, cond: ConditionKind) -> bool {
        let now = self.now();
        match cond {
            ConditionKind::FdExhaustion => self.fds.is_exhausted(),
            ConditionKind::FileSystemFull => self.fs.is_full(),
            ConditionKind::DiskCacheFull => self.fs.is_full(),
            ConditionKind::MaxFileSize => false, // per-file; apps detect via FsError
            ConditionKind::ResourceLeak => false, // app-internal; apps report it
            ConditionKind::NetworkResourceExhausted => self.net.resource_exhausted(),
            ConditionKind::HardwareRemoved => {
                !self.host.hardware_present(crate::host::HardwareComponent::PcmciaNic)
            }
            ConditionKind::HostnameChanged => self.host.hostname_changed(),
            ConditionKind::CorruptFileMetadata => self.fs.iter().any(|(_, m)| m.owner_is_illegal()),
            ConditionKind::ReverseDnsMissing => false, // per-host; apps probe dns
            ConditionKind::ProcessTableFull => self.procs.is_full(),
            ConditionKind::PortsHeldByChildren => false, // per-port; apps probe procs
            ConditionKind::DnsError => self.dns.health_at(now) == DnsHealth::Erroring,
            ConditionKind::DnsSlow => self.dns.health_at(now) == DnsHealth::Slow,
            ConditionKind::NetworkSlow => self.net.quality_at(now) == LinkQuality::Slow,
            ConditionKind::EntropyExhausted => {
                // `available_at` needs &mut for lazy settling; probe a clone.
                self.entropy.clone().is_exhausted_at(now)
            }
            ConditionKind::RaceCondition
            | ConditionKind::WorkloadTiming
            | ConditionKind::UnknownTransient => false,
        }
    }
}

/// Builder for [`Environment`] (C-BUILDER).
///
/// # Example
///
/// ```
/// use faultstudy_env::Environment;
///
/// let env = Environment::builder()
///     .seed(42)
///     .fd_limit(32)
///     .proc_slots(16)
///     .build();
/// assert_eq!(env.fds.limit(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct EnvironmentBuilder {
    seed: u64,
    fs_capacity: u64,
    max_file_size: u64,
    fd_limit: u32,
    proc_slots: u32,
    metrics: bool,
}

impl Default for EnvironmentBuilder {
    fn default() -> Self {
        EnvironmentBuilder {
            seed: 0,
            fs_capacity: 10 * 1024 * 1024,
            max_file_size: 2 * 1024 * 1024,
            fd_limit: 64,
            proc_slots: 32,
            metrics: false,
        }
    }
}

impl EnvironmentBuilder {
    /// Seed for every deterministic random stream in the environment.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Filesystem capacity in bytes.
    pub fn fs_capacity(mut self, bytes: u64) -> Self {
        self.fs_capacity = bytes;
        self
    }

    /// Maximum size of a single file in bytes.
    pub fn max_file_size(mut self, bytes: u64) -> Self {
        self.max_file_size = bytes;
        self
    }

    /// Size of the kernel file-descriptor table.
    pub fn fd_limit(mut self, limit: u32) -> Self {
        self.fd_limit = limit;
        self
    }

    /// Number of process-table slots.
    pub fn proc_slots(mut self, slots: u32) -> Self {
        self.proc_slots = slots;
        self
    }

    /// Enables the deterministic metrics sink (disabled by default).
    /// Recording is pure observation — it never touches the clock or the
    /// RNG — so an instrumented environment computes byte-identical
    /// results to an uninstrumented one.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Builds the environment.
    pub fn build(self) -> Environment {
        Environment {
            clock: Clock::new(),
            fs: VirtualFs::new(self.fs_capacity, self.max_file_size),
            fds: FdTable::new(self.fd_limit),
            procs: ProcessTable::new(self.proc_slots),
            dns: DnsService::new(DNS_NORMAL, DNS_SLOW),
            net: Network::new(NET_NORMAL, NET_SLOW, NET_RESOURCE_LIMIT),
            entropy: EntropyPool::new(ENTROPY_BITS, ENTROPY_RATE, SimTime::ZERO),
            host: HostConfig::new(HOSTNAME),
            metrics: if self.metrics { Metrics::enabled() } else { Metrics::disabled() },
            rng: Xoshiro256StarStar::seed_from(self.seed),
            // The first interleave seed is the stream's first draw, owed
            // like every later one.
            interleave_seed: 0,
            owed: 1,
            drawn: 0,
            forced: false,
            reads: ReadLog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HardwareComponent;
    use crate::witness::SeedReplay;
    use proptest::prelude::*;

    fn env() -> Environment {
        Environment::builder().seed(7).fd_limit(4).proc_slots(4).build()
    }

    #[test]
    fn builder_applies_settings() {
        let e = Environment::builder()
            .seed(1)
            .fs_capacity(100)
            .max_file_size(50)
            .fd_limit(2)
            .proc_slots(3)
            .build();
        assert_eq!(e.fs.capacity(), 100);
        assert_eq!(e.fs.max_file_size(), 50);
        assert_eq!(e.fds.limit(), 2);
        assert_eq!(e.procs.slots(), 3);
    }

    #[test]
    fn generic_recovery_kills_app_processes_only() {
        let mut e = env();
        let app = e.register_owner();
        let ext = e.register_owner();
        let child = e.procs.spawn(app).unwrap();
        e.procs.bind_port(child, 80).unwrap();
        e.procs.hang(child).unwrap();
        e.procs.spawn(ext).unwrap();

        assert!(e.procs.port_held(80));
        let killed = e.on_generic_recovery(app);
        assert_eq!(killed, 1);
        assert!(!e.procs.port_held(80), "hung child's port freed by recovery");
        assert_eq!(e.procs.count_of(ext), 1, "external process untouched");
        assert!(e.now() >= SimTime::from_secs(1), "recovery consumed time");
    }

    #[test]
    fn generic_recovery_leaves_fd_and_disk_claims() {
        let mut e = env();
        let app = e.register_owner();
        for _ in 0..4 {
            e.fds.open(app).unwrap();
        }
        e.fs.write("app/leak", 1000).unwrap();
        e.on_generic_recovery(app);
        // The checkpoint restored all application state: fds still held,
        // disk still consumed.
        assert!(e.fds.is_exhausted());
        assert_eq!(e.fs.used(), 1000);
        assert!(e.holds(ConditionKind::FdExhaustion));
    }

    #[test]
    fn holds_probes_live_state() {
        let mut e = env();
        assert!(!e.holds(ConditionKind::FileSystemFull));
        e.fs.fill_with_ballast();
        assert!(e.holds(ConditionKind::FileSystemFull));

        assert!(!e.holds(ConditionKind::HardwareRemoved));
        e.host.remove_hardware(HardwareComponent::PcmciaNic);
        assert!(e.holds(ConditionKind::HardwareRemoved));

        assert!(!e.holds(ConditionKind::HostnameChanged));
        e.host.set_hostname("renamed");
        assert!(e.holds(ConditionKind::HostnameChanged));

        assert!(!e.holds(ConditionKind::ProcessTableFull));
        let ext = e.register_owner();
        while e.procs.spawn(ext).is_ok() {}
        assert!(e.holds(ConditionKind::ProcessTableFull));
    }

    #[test]
    fn dns_conditions_heal_with_time() {
        let mut e = env();
        e.dns.set_health(DnsHealth::Erroring, SimTime::from_secs(10));
        assert!(e.holds(ConditionKind::DnsError));
        e.advance(Duration::from_secs(11));
        assert!(!e.holds(ConditionKind::DnsError), "DNS healed while time passed");
    }

    #[test]
    fn entropy_condition_heals_with_time() {
        let mut e = env();
        e.entropy.drain(e.now());
        assert!(e.holds(ConditionKind::EntropyExhausted));
        e.advance(Duration::from_secs(60));
        assert!(!e.holds(ConditionKind::EntropyExhausted));
    }

    #[test]
    fn corrupt_metadata_condition() {
        let mut e = env();
        e.fs.write("f", 1).unwrap();
        assert!(!e.holds(ConditionKind::CorruptFileMetadata));
        e.fs.set_owner("f", u32::MAX).unwrap();
        assert!(e.holds(ConditionKind::CorruptFileMetadata));
    }

    #[test]
    fn scrub_clears_nontransient_resource_conditions() {
        let mut e = env();
        let ext = e.register_owner();
        e.fds.exhaust_as(ext);
        e.fs.fill_with_ballast();
        e.entropy.drain(e.now());
        assert!(e.holds(ConditionKind::FdExhaustion));
        assert!(e.holds(ConditionKind::FileSystemFull));
        assert!(e.holds(ConditionKind::EntropyExhausted));

        let actions = e.scrub();
        assert_eq!(actions, 3);
        assert!(!e.holds(ConditionKind::FdExhaustion));
        assert!(!e.holds(ConditionKind::FileSystemFull));
        assert!(!e.holds(ConditionKind::EntropyExhausted));
        // A clean environment needs no scrubbing.
        assert_eq!(e.scrub(), 0);
    }

    #[test]
    fn scrub_leaves_external_infrastructure_and_app_data() {
        let mut e = env();
        e.fs.write("app/data", 500).unwrap();
        e.dns.set_health(DnsHealth::Erroring, SimTime::from_secs(100));
        e.host.set_hostname("renamed");
        e.scrub();
        assert_eq!(e.fs.used(), 500, "application data untouched");
        assert!(e.holds(ConditionKind::DnsError), "DNS is not locally scrubbable");
        assert!(e.holds(ConditionKind::HostnameChanged));
    }

    #[test]
    fn scrub_does_not_advance_time_or_drift_interleaving() {
        let mut e = env();
        let before = format!("{:?}", e.current_interleaving());
        let t = e.now();
        e.fs.fill_with_ballast();
        e.scrub();
        assert_eq!(e.now(), t);
        assert_eq!(before, format!("{:?}", e.current_interleaving()));
    }

    #[test]
    fn interleaving_is_stable_within_an_instant_and_drifts_with_time() {
        let mut e = env();
        let a = format!("{:?}", e.current_interleaving());
        let b = format!("{:?}", e.current_interleaving());
        assert_eq!(a, b, "fixed environment, fixed interleaving");
        e.advance(Duration::from_millis(1));
        let c = format!("{:?}", e.current_interleaving());
        assert_ne!(a, c, "time passing changes scheduler timing");
    }

    #[test]
    fn environments_with_same_seed_are_identical() {
        let mut e1 = env();
        let mut e2 = env();
        e1.advance(Duration::from_secs(3));
        e2.advance(Duration::from_secs(3));
        assert_eq!(
            format!("{:?}", e1.current_interleaving()),
            format!("{:?}", e2.current_interleaving())
        );
        e1.reshuffle_interleaving();
        e2.reshuffle_interleaving();
        assert_eq!(
            format!("{:?}", e1.current_interleaving()),
            format!("{:?}", e2.current_interleaving())
        );
    }

    #[test]
    fn reshuffling_draws_as_advancing_does_without_moving_the_clock() {
        let (mut advanced, mut reshuffled) = (env(), env());
        let before = format!("{:?}", reshuffled.current_interleaving());
        advanced.advance(Duration::from_millis(1));
        reshuffled.reshuffle_interleaving();
        let after = format!("{:?}", reshuffled.current_interleaving());
        assert_ne!(before, after, "a reshuffle changes the interleaving");
        assert_eq!(after, format!("{:?}", advanced.current_interleaving()));
        assert_eq!(reshuffled.now(), SimTime::ZERO, "a reshuffle takes no time");
    }

    #[test]
    fn reading_the_interleaving_sets_the_seed_witness() {
        let mut e = env();
        assert!(e.read_log().is_blind());
        e.current_interleaving();
        assert!(!e.read_log().is_blind());
        assert!(!e.read_log().is_complete(), "a raw read goes unrecorded");
        e.advance(Duration::from_secs(1));
        assert!(!e.read_log().is_blind(), "the witness never clears");
    }

    #[test]
    fn a_race_logs_the_draw_it_read_and_its_verdict() {
        let gadget = RaceGadget::default();
        let mut e = env();
        let first = e.race(gadget);
        e.advance(Duration::from_secs(1));
        e.reshuffle_interleaving();
        let third = e.race(gadget);
        let again = e.race(gadget);
        e.force_interleave_seed(gadget.crashing_seed());
        let forced = e.race(gadget);
        e.advance(Duration::from_secs(1));
        let fourth = e.race(gadget);
        assert!(!e.read_log().is_blind());
        assert!(e.read_log().is_complete());
        let sources: Vec<SeedSource> = e.read_log().reads().map(|(r, _)| r.source).collect();
        assert_eq!(
            sources,
            [
                SeedSource::Drawn(1),
                SeedSource::Drawn(3),
                SeedSource::Drawn(3),
                SeedSource::Forced(gadget.crashing_seed()),
                SeedSource::Drawn(4),
            ]
        );
        let verdicts: Vec<bool> = e.read_log().reads().map(|(_, crashed)| crashed).collect();
        let expected = [first, third, again, forced, fourth].map(|v| v.is_err());
        assert_eq!(verdicts, expected);
        assert!(forced.is_err(), "the forced seed crashes");
        assert_eq!(third, again, "one instant, one interleaving");
    }

    #[test]
    fn drawing_forcing_and_scrubbing_leave_the_seed_witness_unset() {
        let mut e = env();
        let app = e.register_owner();
        e.advance(Duration::from_secs(1));
        e.reshuffle_interleaving();
        e.force_interleave_seed(3);
        e.fs.fill_with_ballast();
        e.scrub();
        e.on_generic_recovery(app);
        assert!(!e.holds(ConditionKind::RaceCondition));
        assert!(e.read_log().is_blind(), "nothing read a seed-derived value");
    }

    #[test]
    fn zero_advance_keeps_interleaving() {
        let mut e = env();
        let a = format!("{:?}", e.current_interleaving());
        e.advance(Duration::ZERO);
        assert_eq!(a, format!("{:?}", e.current_interleaving()));
    }

    /// The environment's interleave seed as it was kept before draws were
    /// owed: one draw at build, one on every non-zero advance and every
    /// reshuffle, each made at once, with the source of the seed in force.
    struct EagerSeed {
        rng: Xoshiro256StarStar,
        seed: u64,
        drawn: u64,
        forced: bool,
        observed: bool,
        complete: bool,
    }

    impl EagerSeed {
        fn new(seed: u64) -> EagerSeed {
            let rng = Xoshiro256StarStar::seed_from(seed);
            let mut eager = EagerSeed {
                rng,
                seed: 0,
                drawn: 0,
                forced: false,
                observed: false,
                complete: true,
            };
            eager.draw();
            eager
        }

        fn draw(&mut self) {
            self.seed = self.rng.next_u64();
            self.drawn += 1;
            self.forced = false;
        }

        fn advance(&mut self, d: Duration) {
            if d > Duration::ZERO {
                self.draw();
            }
        }

        fn source(&self) -> SeedSource {
            if self.forced {
                SeedSource::Forced(self.seed)
            } else {
                SeedSource::Drawn(self.drawn)
            }
        }
    }

    proptest! {
        /// Owed draws read exactly as eager ones: over any sequence of zero
        /// and non-zero advances, reshuffles, forced seeds, raw reads and
        /// races, every read sees the seed and the witness an environment that
        /// drew on every advance would show, every race logs the source of its
        /// seed, and a replay of the builder's seed judges each logged race as
        /// the environment did.
        #[test]
        fn owed_draws_read_as_eager_draws(
            seed in any::<u64>(),
            ops in prop::collection::vec((0u8..6, any::<u64>()), 0..80),
        ) {
            let mut env = Environment::builder().seed(seed).build();
            let mut eager = EagerSeed::new(seed);
            let mut races = Vec::new();
            for (op, value) in ops {
                match op {
                    0 => {
                        env.advance(Duration::ZERO);
                        eager.advance(Duration::ZERO);
                    }
                    1 => {
                        let d = Duration::from_nanos(1 + value % 1_000_000_000);
                        env.advance(d);
                        eager.advance(d);
                    }
                    2 => {
                        env.reshuffle_interleaving();
                        eager.draw();
                    }
                    3 => {
                        env.force_interleave_seed(value);
                        eager.seed = value;
                        eager.forced = true;
                    }
                    4 => {
                        let Interleaver::Seeded(got) = env.current_interleaving() else {
                            panic!("the environment interleaves by seed");
                        };
                        eager.observed = true;
                        eager.complete = false;
                        prop_assert_eq!(got, eager.seed);
                    }
                    _ => {
                        let gadget = RaceGadget {
                            user_prepare_steps: (value % 4) as u32,
                            remover_delay_steps: (value / 4 % 4) as u32,
                        };
                        let verdict = env.race(gadget);
                        prop_assert_eq!(verdict, gadget.run(Interleaver::Seeded(eager.seed)));
                        eager.observed = true;
                        races.push((eager.source(), gadget, verdict.is_err()));
                    }
                }
                prop_assert_eq!(!env.read_log().is_blind(), eager.observed);
            }
            let log = env.read_log();
            let logged: Vec<_> =
                log.reads().map(|(r, crashed)| (r.source, r.gadget, crashed)).collect();
            let capacity = ReadLog::CAPACITY;
            prop_assert_eq!(&logged[..], &races[..races.len().min(capacity)]);
            prop_assert_eq!(log.is_complete(), eager.complete && races.len() <= capacity);
            let mut replay = SeedReplay::new(seed);
            for (read, crashed) in log.reads() {
                prop_assert_eq!(replay.judge(&read).is_err(), crashed);
            }
            let Interleaver::Seeded(last) = env.current_interleaving() else {
                panic!("the environment interleaves by seed");
            };
            prop_assert_eq!(last, eager.seed);
        }
    }
}
