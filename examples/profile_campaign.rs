//! Ad-hoc breakdown of per-sample campaign cost (dev aid, not a bench).

use faultstudy::corpus::full_corpus;
use faultstudy::harness::campaign::{CampaignReport, CampaignSpec};
use faultstudy::harness::experiment::{run_fault_experiment, StrategyKind};
use faultstudy::harness::Campaign;
use std::time::Instant;

fn main() {
    snapshot_and_handle_cost();
    let corpus = full_corpus();
    let n = 20_000u32;

    let start = Instant::now();
    let (report, _) = CampaignReport::run(
        CampaignSpec { samples: n, seed: 2000 },
        faultstudy::exec::ParallelSpec::SEQUENTIAL,
        false,
    );
    let total = start.elapsed();
    println!(
        "campaign {} samples: {:?} ({:.1}/s), cells {}",
        n,
        total,
        f64::from(n) / total.as_secs_f64(),
        report.cells.len()
    );

    // Single experiment repeated: per-strategy cost.
    for strategy in StrategyKind::ALL {
        let fault = &corpus[0];
        let reps = 5000;
        let start = Instant::now();
        for i in 0..reps {
            std::hint::black_box(run_fault_experiment(fault, strategy, i));
        }
        let el = start.elapsed();
        println!(
            "experiment {:<14} {:>8.2} us/op",
            strategy.name(),
            el.as_secs_f64() * 1e6 / reps as f64
        );
    }

    // Full corpus sweep: which faults are expensive?
    let start = Instant::now();
    for strategy in StrategyKind::ALL {
        for fault in &corpus {
            std::hint::black_box(run_fault_experiment(fault, strategy, 5));
        }
    }
    let el = start.elapsed();
    println!(
        "corpus sweep: {:>8.2} us/experiment over {} experiments",
        el.as_secs_f64() * 1e6 / (corpus.len() * StrategyKind::ALL.len()) as f64,
        corpus.len() * StrategyKind::ALL.len()
    );
    let mut worst: Vec<(f64, String)> = corpus
        .iter()
        .map(|fault| {
            let start = Instant::now();
            for strategy in StrategyKind::ALL {
                std::hint::black_box(run_fault_experiment(fault, strategy, 5));
            }
            (start.elapsed().as_secs_f64() * 1e6 / 7.0, fault.slug().to_owned())
        })
        .collect();
    worst.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    for (us, slug) in worst.iter().take(12) {
        println!("  {slug:<16} {us:>8.2} us/experiment");
    }

    // Worst fault, per strategy.
    let wide = corpus.iter().find(|f| f.slug() == "mysql-ei-24").unwrap();
    let workload = faultstudy::harness::experiment::build_workload(wide);
    for strategy in StrategyKind::ALL {
        let reps = 2000;
        let start = Instant::now();
        for i in 0..reps {
            std::hint::black_box(faultstudy::harness::experiment::run_prepared_experiment(
                wide, strategy, i, &workload,
            ));
        }
        let el = start.elapsed();
        println!(
            "mysql-ei-24 {:<14} {:>8.2} us/op",
            strategy.name(),
            el.as_secs_f64() * 1e6 / reps as f64
        );
    }

    // The wide trigger's handle cost, isolated.
    {
        let mut env = faultstudy::env::Environment::builder().seed(1).build();
        let mut db =
            faultstudy::apps::spawn_app(faultstudy::core::taxonomy::AppKind::Mysql, &mut env);
        db.inject("mysql-ei-24", &mut env).unwrap();
        let trigger = db.trigger_request("mysql-ei-24").unwrap();
        let reps = 20_000u32;
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(db.handle(&trigger, &mut env)).ok();
        }
        println!(
            "wide handle: {:>8.3} us/op",
            start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        );
        let body = trigger.body.trim();
        let col_list = body.split_once('(').unwrap().1.trim_end_matches(')');
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(
                col_list.split(',').map(str::trim).filter(|c| !c.is_empty()).count(),
            );
        }
        println!(
            "col count  : {:>8.3} us/op",
            start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        );
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(body.bytes().filter(|&b| b == b'(').count());
        }
        println!(
            "paren scan : {:>8.3} us/op",
            start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        );
    }

    // MiniDb snapshot/restore with a fixture table loaded.
    {
        let mut env = faultstudy::env::Environment::builder().seed(1).build();
        let mut db =
            faultstudy::apps::spawn_app(faultstudy::core::taxonomy::AppKind::Mysql, &mut env);
        db.inject("mysql-ei-01", &mut env).unwrap();
        let reps = 100_000u32;
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(db.snapshot());
        }
        println!(
            "db snapshot: {:>8.3} us/op",
            start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        );
        let snap = db.snapshot();
        let start = Instant::now();
        for _ in 0..reps {
            db.restore(&snap);
        }
        println!(
            "db restore : {:>8.3} us/op",
            start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        );
        let req = db.benign_request();
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(db.handle(&req, &mut env)).ok();
        }
        println!(
            "db handle  : {:>8.3} us/op",
            start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        );
    }

    // Environment construction alone.
    let reps = 50_000u32;
    let start = Instant::now();
    for i in 0..reps {
        let env = faultstudy::env::Environment::builder()
            .seed(u64::from(i))
            .fd_limit(16)
            .proc_slots(8)
            .fs_capacity(256 * 1024)
            .max_file_size(64 * 1024)
            .build();
        std::hint::black_box(&env);
    }
    println!("env build: {:>8.2} us/op", start.elapsed().as_secs_f64() * 1e6 / f64::from(reps));

    // Env + app spawn.
    let start = Instant::now();
    for i in 0..reps {
        let mut env = faultstudy::env::Environment::builder()
            .seed(u64::from(i))
            .fd_limit(16)
            .proc_slots(8)
            .fs_capacity(256 * 1024)
            .max_file_size(64 * 1024)
            .build();
        let app =
            faultstudy::apps::spawn_app(faultstudy::core::taxonomy::AppKind::Apache, &mut env);
        std::hint::black_box(&app);
    }
    println!("env+spawn: {:>8.2} us/op", start.elapsed().as_secs_f64() * 1e6 / f64::from(reps));
}

#[allow(dead_code)]
fn extra() {}

#[allow(dead_code)]
fn snapshot_and_handle_cost() {
    let reps = 200_000u32;
    let mut env = faultstudy::env::Environment::builder().seed(1).build();
    let mut app =
        faultstudy::apps::spawn_app(faultstudy::core::taxonomy::AppKind::Apache, &mut env);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(app.snapshot());
    }
    println!("snapshot : {:>8.3} us/op", start.elapsed().as_secs_f64() * 1e6 / f64::from(reps));

    let snap = app.snapshot();
    let start = Instant::now();
    for _ in 0..reps {
        app.restore(&snap);
    }
    println!("restore  : {:>8.3} us/op", start.elapsed().as_secs_f64() * 1e6 / f64::from(reps));

    let req = app.benign_request();
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(app.handle(&req, &mut env)).ok();
    }
    println!("handle   : {:>8.3} us/op", start.elapsed().as_secs_f64() * 1e6 / f64::from(reps));

    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(req.clone());
    }
    println!("req clone: {:>8.3} us/op", start.elapsed().as_secs_f64() * 1e6 / f64::from(reps));
}
