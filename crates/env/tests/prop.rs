//! Property tests for the simulated operating environment.

use faultstudy_env::condition::{ConditionKind, Persistence};
use faultstudy_env::dns::{DnsHealth, DnsService};
use faultstudy_env::entropy::EntropyPool;
use faultstudy_env::fs::VirtualFs;
use faultstudy_env::proctable::ProcessTable;
use faultstudy_env::witness::{ReadLog, SeedReplay, SeedSource};
use faultstudy_env::Environment;
use faultstudy_sim::rng::{DetRng, Xoshiro256StarStar};
use faultstudy_sim::sched::{Interleaver, RaceGadget};
use faultstudy_sim::time::{Duration, SimTime};
use proptest::prelude::*;

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
        let mut eager =
            EagerSeed { rng, seed: 0, drawn: 0, forced: false, observed: false, complete: true };
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
        let logged: Vec<_> = log.reads().map(|(r, crashed)| (r.source, r.gadget, crashed)).collect();
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

    /// Process-table slots are conserved under arbitrary spawn/hang/kill
    /// traffic, and per-owner counts sum to the total.
    #[test]
    fn process_table_conserves_slots(
        ops in prop::collection::vec((0u8..4, 0usize..3), 1..100)
    ) {
        let mut table = ProcessTable::new(12);
        let owners = [
            table.register_owner(),
            table.register_owner(),
            table.register_owner(),
        ];
        let mut live = Vec::new();
        for (op, who) in ops {
            match op {
                0 => {
                    if let Ok(pid) = table.spawn(owners[who]) {
                        live.push(pid);
                    }
                }
                1 => {
                    if let Some(pid) = live.last() {
                        prop_assert!(table.hang(*pid).is_ok());
                    }
                }
                2 => {
                    if let Some(pid) = live.pop() {
                        prop_assert!(table.kill(pid).is_ok());
                    }
                }
                _ => {
                    let killed = table.kill_all_of(owners[who]);
                    live.retain(|pid| table.state(*pid).is_some());
                    prop_assert!(killed as usize <= 12);
                }
            }
            prop_assert!(table.in_use() <= table.slots());
            let sum: u32 = owners.iter().map(|o| table.count_of(*o)).sum();
            prop_assert_eq!(sum, table.in_use());
            prop_assert_eq!(live.len() as u32, table.in_use());
        }
    }

    /// The entropy pool never exceeds capacity nor goes negative, for any
    /// interleaving of reads, drains, and waiting.
    #[test]
    fn entropy_pool_stays_in_bounds(
        ops in prop::collection::vec((0u8..3, 0u64..600), 1..60)
    ) {
        let mut pool = EntropyPool::new(512, 64, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for (op, arg) in ops {
            match op {
                0 => {
                    let before = pool.available_at(now);
                    match pool.read(arg, now) {
                        Ok(()) => prop_assert!(arg <= before),
                        Err(e) => {
                            prop_assert_eq!(e.available, before);
                            prop_assert!(arg > before);
                        }
                    }
                }
                1 => pool.drain(now),
                _ => now = now.saturating_add(Duration::from_millis(arg)),
            }
            let avail = pool.available_at(now);
            prop_assert!(avail <= 512);
        }
    }

    /// DNS health monotonically heals: once healthy at time t, it stays
    /// healthy at any later time (absent new injections).
    #[test]
    fn dns_healing_is_monotone(repair_ms in 0u64..10_000, probes in prop::collection::vec(0u64..20_000, 1..20)) {
        let mut dns = DnsService::new(Duration::from_millis(1), Duration::from_secs(1));
        dns.set_health(DnsHealth::Erroring, SimTime::from_millis(repair_ms));
        let mut sorted = probes;
        sorted.sort_unstable();
        let mut was_healthy = false;
        for t in sorted {
            let healthy = dns.health_at(SimTime::from_millis(t)) == DnsHealth::Healthy;
            if was_healthy {
                prop_assert!(healthy, "healed DNS must not relapse at {t}ms");
            }
            was_healthy = healthy;
            prop_assert_eq!(healthy, t >= repair_ms);
        }
    }

    /// `fill_with_ballast` always reaches exactly full, from any prior
    /// occupancy.
    #[test]
    fn ballast_always_fills(prior in prop::collection::vec(1u64..300, 0..10)) {
        let mut fs = VirtualFs::new(4096, 512);
        for (i, size) in prior.iter().enumerate() {
            let _ = fs.write(format!("pre{i}"), *size);
        }
        fs.fill_with_ballast();
        prop_assert!(fs.is_full());
        prop_assert_eq!(fs.free(), 0);
    }

    /// Generic recovery is idempotent on the environment: a second
    /// recovery immediately after the first changes nothing except time.
    #[test]
    fn generic_recovery_is_idempotent(seed in any::<u64>(), children in 0u32..6) {
        let mut env = Environment::builder().seed(seed).proc_slots(16).build();
        let app = env.register_owner();
        for _ in 0..children {
            let pid = env.procs.spawn(app).expect("slots available");
            let _ = env.procs.hang(pid);
        }
        let first = env.on_generic_recovery(app);
        prop_assert_eq!(first, children);
        let second = env.on_generic_recovery(app);
        prop_assert_eq!(second, 0, "nothing left to kill");
        prop_assert_eq!(env.procs.count_of(app), 0);
    }

    /// `holds` is consistent with `persistence` semantics: for conditions
    /// probeable from environment state, injecting and recovering leaves
    /// nontransient conditions holding.
    #[test]
    fn persistent_conditions_survive_recovery(seed in any::<u64>()) {
        let mut env = Environment::builder().seed(seed).fd_limit(4).build();
        let app = env.register_owner();
        env.fs.fill_with_ballast();
        env.fds.exhaust_as(app);
        env.host.set_hostname("renamed");
        for cond in [
            ConditionKind::FileSystemFull,
            ConditionKind::FdExhaustion,
            ConditionKind::HostnameChanged,
        ] {
            prop_assert!(env.holds(cond), "{cond} should hold after injection");
            prop_assert_eq!(cond.persistence(), Persistence::Persists);
        }
        env.on_generic_recovery(app);
        for cond in [
            ConditionKind::FileSystemFull,
            ConditionKind::FdExhaustion,
            ConditionKind::HostnameChanged,
        ] {
            prop_assert!(env.holds(cond), "{cond} must persist across generic recovery");
        }
    }

    /// Cleared-by-recovery conditions stop holding after one recovery.
    #[test]
    fn cleared_conditions_do_not_survive_recovery(seed in any::<u64>()) {
        let mut env = Environment::builder().seed(seed).proc_slots(8).build();
        let app = env.register_owner();
        let pids: Vec<_> = std::iter::from_fn(|| env.procs.spawn(app).ok()).collect();
        for pid in &pids {
            let _ = env.procs.hang(*pid);
            let _ = env.procs.bind_port(*pid, 8080);
        }
        prop_assert!(env.holds(ConditionKind::ProcessTableFull));
        prop_assert!(env.procs.port_held(8080));
        env.on_generic_recovery(app);
        prop_assert!(!env.holds(ConditionKind::ProcessTableFull));
        prop_assert!(!env.procs.port_held(8080));
    }
}
