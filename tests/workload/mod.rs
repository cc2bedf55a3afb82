//! Seeded background load for the soak tests.
//!
//! The fault experiments drive the *triggering* workload of one fault;
//! this module generates realistic *background* load — the mixed request
//! streams a production deployment would see — to run around it. Every
//! generator is a pure function of its seed.

use faultstudy::apps::Request;
use faultstudy::core::taxonomy::AppKind;
use faultstudy::sim::rng::{DetRng, Xoshiro256StarStar};

/// A seeded generator of benign requests for one application.
///
/// "Benign" means the requests exercise real code paths (logging, lookups,
/// SQL, widget actions) but none of the fault triggers; on a healthy
/// application every generated request is served.
#[derive(Debug)]
pub struct WorkloadGen {
    app: AppKind,
    rng: Xoshiro256StarStar,
    /// Tables created so far (minidb workloads insert into them).
    created_tables: u32,
}

impl WorkloadGen {
    /// Creates a generator for `app` with the given seed.
    pub fn new(app: AppKind, seed: u64) -> WorkloadGen {
        WorkloadGen { app, rng: Xoshiro256StarStar::seed_from(seed), created_tables: 0 }
    }

    /// Generates the next request.
    pub fn next_request(&mut self) -> Request {
        match self.app {
            AppKind::Apache => self.next_web(),
            AppKind::Gnome => self.next_desktop(),
            AppKind::Mysql => self.next_sql(),
        }
    }

    /// Generates `n` requests.
    pub fn take_requests(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }

    fn next_web(&mut self) -> Request {
        match self.rng.below(10) {
            0..=5 => Request::new(format!("GET /page{}", self.rng.below(64))),
            6 => Request::new(format!("GET /assets/img{}.png", self.rng.below(16))),
            7 => Request::new("SPAWN"),
            8 => Request::new("SSL"),
            _ => Request::new(format!("RESOLVE host{}.example", self.rng.below(8))),
        }
    }

    fn next_desktop(&mut self) -> Request {
        match self.rng.below(8) {
            0..=2 => Request::new(format!("CLICK widget{}", self.rng.below(12))),
            3 => Request::new(format!("OPEN docs/file{}.txt", self.rng.below(20))),
            4 => Request::new("LAUNCH"),
            5 => Request::new("OPEN-DISPLAY"),
            6 => Request::new("PLAY-SOUND"),
            _ => Request::new("CLICK clock"),
        }
    }

    fn next_sql(&mut self) -> Request {
        // Ensure at least one table exists before data operations.
        if self.created_tables == 0 {
            self.created_tables = 1;
            return Request::new("CREATE TABLE load0 (k, v)");
        }
        let table = self.rng.below(u64::from(self.created_tables));
        match self.rng.below(12) {
            0 if self.created_tables < 4 => {
                let t = self.created_tables;
                self.created_tables += 1;
                Request::new(format!("CREATE TABLE load{t} (k, v)"))
            }
            0..=5 => Request::new(format!(
                "INSERT INTO load{table} VALUES ({}, {})",
                self.rng.below(1000),
                self.rng.below(1000)
            )),
            6 | 7 => Request::new(format!("SELECT * FROM load{table} ORDER BY k")),
            8 => Request::new(format!("SELECT COUNT(*) FROM load{table}")),
            9 => Request::new(format!(
                "UPDATE load{table} SET v = {} WHERE k = {}",
                self.rng.below(1000),
                self.rng.below(1000)
            )),
            10 => {
                Request::new(format!("DELETE FROM load{table} WHERE k = {}", self.rng.below(1000)))
            }
            _ => Request::new("PING"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy::apps::spawn_app;
    use faultstudy::env::Environment;

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadGen::new(AppKind::Apache, 3).take_requests(50);
        let b = WorkloadGen::new(AppKind::Apache, 3).take_requests(50);
        assert_eq!(a, b);
        let c = WorkloadGen::new(AppKind::Apache, 4).take_requests(50);
        assert_ne!(a, c);
    }

    #[test]
    fn benign_workloads_are_served_by_healthy_apps() {
        for app_kind in AppKind::ALL {
            let mut env = Environment::builder()
                .seed(1)
                .fd_limit(64)
                .proc_slots(32)
                .fs_capacity(1 << 22)
                .build();
            let mut app = spawn_app(app_kind, &mut env);
            let mut generator = WorkloadGen::new(app_kind, 5);
            for i in 0..300 {
                let req = generator.next_request();
                let result = app.handle(&req, &mut env);
                assert!(result.is_ok(), "{app_kind} request {i} ({req}) failed: {result:?}");
            }
        }
    }

    #[test]
    fn sql_workload_creates_tables_before_using_them() {
        let mut generator = WorkloadGen::new(AppKind::Mysql, 9);
        let first = generator.next_request();
        assert!(first.body.starts_with("CREATE TABLE"), "{first}");
    }

    #[test]
    fn workloads_cover_multiple_request_kinds() {
        for app in AppKind::ALL {
            let reqs = WorkloadGen::new(app, 11).take_requests(200);
            let kinds: std::collections::BTreeSet<&str> =
                reqs.iter().map(|r| r.body.split_whitespace().next().unwrap_or("")).collect();
            assert!(kinds.len() >= 3, "{app}: workload too uniform: {kinds:?}");
        }
    }
}
